//! The layer-granular workload description consumed by the simulator
//! executors.

/// One schedulable layer of a model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LayerSpec {
    /// Trainable parameters in this layer.
    pub params: u64,
    /// Forward FLOPs for one micro-batch.
    pub fwd_flops: f64,
    /// Backward FLOPs for one micro-batch (typically 2× forward).
    pub bwd_flops: f64,
    /// Extra forward FLOPs re-executed during backward when activation
    /// checkpointing is enabled (typically 1× forward), else 0.
    pub recompute_flops: f64,
    /// Bytes of checkpointed activation this layer keeps alive for the whole
    /// forward+backward of one micro-batch.
    pub checkpoint_bytes: u64,
    /// Peak transient activation bytes while this layer is executing.
    pub working_bytes: u64,
}

/// A model lowered to an ordered layer list.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadSpec {
    /// Human-readable model name (e.g. `"BERT 10B"`).
    pub name: String,
    /// Layers in execution order.
    pub layers: Vec<LayerSpec>,
    /// Bytes per parameter/gradient element (2 = fp16 mixed precision,
    /// 4 = fp32).
    pub param_dtype_bytes: u64,
    /// Whether activation checkpointing is on (the paper's default for
    /// language models; off for WideResNet).
    pub activation_checkpointing: bool,
    /// Micro-batch size this spec was lowered for.
    pub micro_batch: usize,
}

impl WorkloadSpec {
    /// Total trainable parameters.
    pub fn total_params(&self) -> u64 {
        self.layers.iter().map(|l| l.params).sum()
    }

    /// Total forward FLOPs for one micro-batch.
    pub fn fwd_flops(&self) -> f64 {
        self.layers.iter().map(|l| l.fwd_flops).sum()
    }

    /// Total backward (+recompute) FLOPs for one micro-batch.
    pub fn bwd_flops(&self) -> f64 {
        self.layers.iter().map(|l| l.bwd_flops + l.recompute_flops).sum()
    }

    /// Total FLOPs for one micro-batch (forward + backward + recompute).
    pub fn total_flops(&self) -> f64 {
        self.fwd_flops() + self.bwd_flops()
    }

    /// Sum of live checkpointed activations for one micro-batch.
    pub fn checkpoint_bytes(&self) -> u64 {
        self.layers.iter().map(|l| l.checkpoint_bytes).sum()
    }

    /// Largest transient activation across layers.
    pub fn peak_working_bytes(&self) -> u64 {
        self.layers.iter().map(|l| l.working_bytes).max().unwrap_or(0)
    }

    /// Model-state bytes *before* any sharding, mixed-precision Adam
    /// convention: `param_dtype` params + `param_dtype` grads + 12 B/param
    /// optimizer states (fp32 master + two moments). This is the paper's
    /// "a model with 10 billion parameters takes about 160 GB" arithmetic.
    pub fn model_state_bytes(&self) -> u64 {
        let p = self.total_params();
        p * self.param_dtype_bytes // parameters
            + p * self.param_dtype_bytes // gradients
            + p * 12 // optimizer states
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> WorkloadSpec {
        WorkloadSpec {
            name: "toy".into(),
            layers: vec![
                LayerSpec {
                    params: 100,
                    fwd_flops: 10.0,
                    bwd_flops: 20.0,
                    recompute_flops: 10.0,
                    checkpoint_bytes: 5,
                    working_bytes: 50,
                },
                LayerSpec {
                    params: 300,
                    fwd_flops: 30.0,
                    bwd_flops: 60.0,
                    recompute_flops: 30.0,
                    checkpoint_bytes: 7,
                    working_bytes: 40,
                },
            ],
            param_dtype_bytes: 2,
            activation_checkpointing: true,
            micro_batch: 8,
        }
    }

    #[test]
    fn aggregates() {
        let s = spec();
        assert_eq!(s.total_params(), 400);
        assert_eq!(s.fwd_flops(), 40.0);
        assert_eq!(s.bwd_flops(), 120.0);
        assert_eq!(s.total_flops(), 160.0);
        assert_eq!(s.checkpoint_bytes(), 12);
        assert_eq!(s.peak_working_bytes(), 50);
    }

    #[test]
    fn model_state_bytes_match_paper_example() {
        // §3.2: 10B parameters ≈ 160 GB of model states with Adam + mixed
        // precision (16 bytes per parameter).
        let s = WorkloadSpec {
            name: "10B".into(),
            layers: vec![LayerSpec {
                params: 10_000_000_000,
                fwd_flops: 0.0,
                bwd_flops: 0.0,
                recompute_flops: 0.0,
                checkpoint_bytes: 0,
                working_bytes: 0,
            }],
            param_dtype_bytes: 2,
            activation_checkpointing: true,
            micro_batch: 8,
        };
        assert_eq!(s.model_state_bytes(), 160_000_000_000);
    }
}

//! Results of a simulated training run.

use crate::json::{Json, ToJson};
use crate::memory::MemoryEstimate;
use mics_simnet::SimTime;

/// What one simulated iteration of a [`crate::TrainingJob`] produced.
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    /// Strategy label (e.g. `"MiCS(p=16)"`).
    pub label: String,
    /// Wall-clock time of one full iteration (s micro-steps + boundary).
    pub iter_time: SimTime,
    /// System throughput: samples (sequences/images) per second across the
    /// cluster — the paper's primary metric.
    pub samples_per_sec: f64,
    /// Model FLOP/s actually achieved per GPU, from the workload's own
    /// FLOPs accounting (`total_flops × s / iter_time`).
    pub achieved_flops_per_gpu: f64,
    /// The per-device memory estimate the run was admitted under.
    pub memory: MemoryEstimate,
    /// Whether the hierarchical all-gather was active (it is automatically
    /// disabled when its staging buffers do not fit, §5.1.1).
    pub hierarchical_used: bool,
    /// Fraction of the iteration each device's compute stream was busy.
    pub compute_fraction: f64,
    /// Fraction of the iteration each device's communication lanes were
    /// busy (can exceed 1.0 in aggregate when lanes overlap; normalized per
    /// device here).
    pub comm_fraction: f64,
    /// Inter-node wire volume per node for one iteration — the quantity
    /// hierarchical communication (§3.3) and quantized collectives shrink.
    pub nic_bytes_per_node: u64,
}

impl RunReport {
    /// Achieved TFLOPS per GPU.
    pub fn tflops_per_gpu(&self) -> f64 {
        self.achieved_flops_per_gpu / 1e12
    }

    /// Decode the [`ToJson`] encoding (`None` on shape mismatch). Together
    /// with [`ToJson::to_json`] this is a lossless round trip: `iter_time`
    /// travels as exact integer nanoseconds and every float as its shortest
    /// re-parsable decimal form, so a report that crosses the planner wire
    /// compares equal to the in-process original.
    pub fn from_json(doc: &Json) -> Option<Self> {
        Some(RunReport {
            label: doc.get("label")?.as_str()?.to_string(),
            iter_time: SimTime::from_nanos(doc.get("iter_time_ns")?.as_num()? as u64),
            samples_per_sec: doc.get("samples_per_sec")?.as_num()?,
            achieved_flops_per_gpu: doc.get("achieved_flops_per_gpu")?.as_num()?,
            memory: MemoryEstimate::from_json(doc.get("memory")?)?,
            hierarchical_used: doc.get("hierarchical_used")?.as_bool()?,
            compute_fraction: doc.get("compute_fraction")?.as_num()?,
            comm_fraction: doc.get("comm_fraction")?.as_num()?,
            nic_bytes_per_node: doc.get("nic_bytes_per_node")?.as_num()? as u64,
        })
    }
}

impl ToJson for RunReport {
    fn to_json(&self) -> Json {
        Json::obj([
            ("label", Json::from(self.label.as_str())),
            ("iter_time_ns", Json::Num(self.iter_time.as_nanos() as f64)),
            ("samples_per_sec", Json::Num(self.samples_per_sec)),
            ("achieved_flops_per_gpu", Json::Num(self.achieved_flops_per_gpu)),
            ("memory", self.memory.to_json()),
            ("hierarchical_used", Json::Bool(self.hierarchical_used)),
            ("compute_fraction", Json::Num(self.compute_fraction)),
            ("comm_fraction", Json::Num(self.comm_fraction)),
            ("nic_bytes_per_node", Json::Num(self.nic_bytes_per_node as f64)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory::MemoryEstimate;

    #[test]
    fn helpers() {
        let r = RunReport {
            label: "x".into(),
            iter_time: SimTime::from_secs(1),
            samples_per_sec: 64.0,
            achieved_flops_per_gpu: 50e12,
            memory: MemoryEstimate {
                params: 0,
                grads: 0,
                optimizer: 0,
                activations: 0,
                transient: 0,
                hierarchical_buffers: false,
            },
            hierarchical_used: false,
            compute_fraction: 0.5,
            comm_fraction: 0.4,
            nic_bytes_per_node: 0,
        };
        assert_eq!(r.tflops_per_gpu(), 50.0);
    }

    #[test]
    fn json_round_trip_is_lossless() {
        let r = RunReport {
            label: "MiCS(p=8)".into(),
            iter_time: SimTime::from_nanos(1_234_567_891),
            samples_per_sec: 123.456789012345,
            achieved_flops_per_gpu: 5.0123e13,
            memory: MemoryEstimate {
                params: 1_250_000_000,
                grads: 1_250_000_000,
                optimizer: 7_500_000_000,
                activations: 3_000_000_001,
                transient: 2_147_483_649,
                hierarchical_buffers: true,
            },
            hierarchical_used: true,
            compute_fraction: 0.61234567,
            comm_fraction: 0.3,
            nic_bytes_per_node: 9_876_543_210,
        };
        let back = RunReport::from_json(&r.to_json()).unwrap();
        assert_eq!(back, r);
        // And the encoding itself is stable through a parse → emit cycle.
        let wire = r.to_json().emit();
        assert_eq!(crate::json::Json::parse(&wire).unwrap().emit(), wire);
    }
}

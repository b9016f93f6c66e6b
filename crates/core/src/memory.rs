//! The per-device memory model: decides which jobs fit (and reproduces the
//! paper's "×" OOM marks and the forced hierarchical-all-gather disable for
//! BERT 20B on 16 GPUs, §5.1.1).
//!
//! Accounting follows the mixed-precision Adam convention of §3.2 (16 bytes
//! of model state per parameter before sharding) plus:
//!
//! * **communication buffers** sized in fixed *buckets* (DeepSpeed-style
//!   `allgather_bucket_size` ≈ 5×10⁸ elements ⇒ 1 GiB at fp16): two gather
//!   buckets (double buffering), two gradient buckets, and — when the
//!   hierarchical all-gather is active — four extra staging buckets for the
//!   stage-1 output and the batched intra-node calls;
//! * **activations**: full checkpoint footprint plus the peak transient;
//! * a **fragmentation factor** on the transient pools: dynamic allocators
//!   waste ≈ 60% (the §4 failure mode); MiCS's pre-allocated arenas waste
//!   ≈ 10%;
//! * a fixed **runtime reserve** (CUDA context, NCCL, framework) of
//!   3.5 GiB.

use crate::config::DpPlan;
use crate::json::{Json, ToJson};
use mics_cluster::ClusterSpec;
use mics_model::WorkloadSpec;
use std::fmt;

/// Fixed communication bucket: 5×10⁸ elements × 2 bytes (fp16).
pub const BUCKET_BYTES: u64 = 1 << 30;
/// Bytes the CUDA/NCCL/framework runtime keeps for itself per device.
pub const RUNTIME_RESERVED: u64 = 7 * (1 << 29); // 3.5 GiB
/// Transient-pool overhead of a dynamic (fragmenting) allocator.
pub const FRAG_DYNAMIC: f64 = 1.6;
/// Transient-pool overhead of MiCS's pre-allocated arenas.
pub const FRAG_ARENA: f64 = 1.1;

/// Why a job cannot run.
#[derive(Debug, Clone, PartialEq)]
pub struct OomError {
    /// Bytes the job needs per device.
    pub required: u64,
    /// Usable bytes per device (capacity minus runtime reserve).
    pub available: u64,
    /// Strategy label, for error messages.
    pub strategy: String,
}

impl fmt::Display for OomError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: out of memory — needs {:.2} GiB per device, {:.2} GiB usable",
            self.strategy,
            self.required as f64 / (1u64 << 30) as f64,
            self.available as f64 / (1u64 << 30) as f64
        )
    }
}

impl std::error::Error for OomError {}

impl ToJson for OomError {
    fn to_json(&self) -> Json {
        Json::obj([
            ("required", Json::Num(self.required as f64)),
            ("available", Json::Num(self.available as f64)),
            ("strategy", Json::from(self.strategy.as_str())),
        ])
    }
}

impl OomError {
    /// Decode the [`ToJson`] encoding (`None` on shape mismatch).
    pub fn from_json(doc: &Json) -> Option<Self> {
        Some(OomError {
            required: doc.get("required")?.as_num()? as u64,
            available: doc.get("available")?.as_num()? as u64,
            strategy: doc.get("strategy")?.as_str()?.to_string(),
        })
    }
}

/// Itemized per-device memory estimate for one job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemoryEstimate {
    /// Parameter bytes resident per device (after sharding).
    pub params: u64,
    /// Gradient bytes resident per device.
    pub grads: u64,
    /// Optimizer-state bytes resident per device.
    pub optimizer: u64,
    /// Activation bytes (checkpoints or live activations + peak transient).
    pub activations: u64,
    /// Communication/working buffers after the fragmentation factor.
    pub transient: u64,
    /// Whether the hierarchical-all-gather staging buckets are included.
    pub hierarchical_buffers: bool,
}

impl MemoryEstimate {
    /// Total bytes per device.
    pub fn total(&self) -> u64 {
        self.params + self.grads + self.optimizer + self.activations + self.transient
    }

    /// Compute the estimate for `workload` under `plan`.
    pub fn for_plan(workload: &WorkloadSpec, plan: &DpPlan, hierarchical_active: bool) -> Self {
        let p_total = workload.total_params();
        let dtype = workload.param_dtype_bytes;
        let params = p_total * dtype / plan.p_params as u64;
        let grads = p_total * dtype / plan.p_grads as u64;
        let optimizer = p_total * 12 / plan.p_opt as u64;

        let activations = workload.checkpoint_bytes() + workload.peak_working_bytes();

        let gathers = if plan.p_params > 1 { 2 * BUCKET_BYTES } else { 0 };
        let hier = if hierarchical_active { 4 * BUCKET_BYTES } else { 0 };
        let grad_buckets = 2 * BUCKET_BYTES.min(p_total * dtype); // tiny models need less
        let frag = if plan.arena_memory { FRAG_ARENA } else { FRAG_DYNAMIC };
        let transient = ((gathers + hier + grad_buckets) as f64 * frag) as u64;

        MemoryEstimate {
            params,
            grads,
            optimizer,
            activations,
            transient,
            hierarchical_buffers: hierarchical_active,
        }
    }

    /// Decode the [`ToJson`] encoding (`None` on shape mismatch).
    pub fn from_json(doc: &Json) -> Option<Self> {
        Some(MemoryEstimate {
            params: doc.get("params")?.as_num()? as u64,
            grads: doc.get("grads")?.as_num()? as u64,
            optimizer: doc.get("optimizer")?.as_num()? as u64,
            activations: doc.get("activations")?.as_num()? as u64,
            transient: doc.get("transient")?.as_num()? as u64,
            hierarchical_buffers: doc.get("hierarchical_buffers")?.as_bool()?,
        })
    }
}

impl ToJson for MemoryEstimate {
    fn to_json(&self) -> Json {
        Json::obj([
            ("params", Json::Num(self.params as f64)),
            ("grads", Json::Num(self.grads as f64)),
            ("optimizer", Json::Num(self.optimizer as f64)),
            ("activations", Json::Num(self.activations as f64)),
            ("transient", Json::Num(self.transient as f64)),
            ("hierarchical_buffers", Json::Bool(self.hierarchical_buffers)),
        ])
    }
}

/// Usable bytes per device on this cluster.
pub fn usable_bytes(cluster: &ClusterSpec) -> u64 {
    cluster.instance.gpu_mem_bytes.saturating_sub(RUNTIME_RESERVED)
}

/// Decide whether the job fits; when MiCS's hierarchical all-gather is
/// requested but only fits without its staging buffers, return the
/// downgraded estimate with `hierarchical_buffers == false` (the paper's
/// BERT 20B @ 16 GPUs situation).
pub fn check_memory(
    workload: &WorkloadSpec,
    cluster: &ClusterSpec,
    plan: &DpPlan,
    label: &str,
) -> Result<MemoryEstimate, OomError> {
    let usable = usable_bytes(cluster);
    let wants_hier = plan.hierarchical
        && plan.p_params > cluster.devices_per_node()
        && plan.p_params.is_multiple_of(cluster.devices_per_node());
    let est = MemoryEstimate::for_plan(workload, plan, wants_hier);
    if est.total() <= usable {
        return Ok(est);
    }
    if wants_hier {
        let fallback = MemoryEstimate::for_plan(workload, plan, false);
        if fallback.total() <= usable {
            return Ok(fallback);
        }
    }
    Err(OomError { required: est.total(), available: usable, strategy: label.to_string() })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{MicsConfig, Strategy, ZeroStage};
    use mics_cluster::InstanceType;
    use mics_model::{TransformerConfig, WideResNetConfig};

    fn v100_cluster(nodes: usize) -> ClusterSpec {
        ClusterSpec::new(InstanceType::p3dn_24xlarge(), nodes)
    }

    #[test]
    fn paper_oom_matrix_zero2() {
        // §5.1.1: "In most of the setups, ZeRO-2 has an out-of-memory
        // problem" — with micro-batch 4 it OOMs for BERT 10B on 16/32 GPUs
        // and every larger model everywhere.
        let z2 = |nodes: usize, w: &mics_model::WorkloadSpec| {
            let cluster = v100_cluster(nodes);
            let plan = Strategy::Zero(ZeroStage::Two).plan(cluster.total_devices());
            check_memory(w, &cluster, &plan, "ZeRO-2").is_ok()
        };
        let b10 = TransformerConfig::bert_10b().workload(4);
        assert!(!z2(2, &b10), "10B @ 16 GPUs must OOM");
        assert!(z2(8, &b10), "10B @ 64 GPUs must fit");
        assert!(z2(16, &b10), "10B @ 128 GPUs must fit");
        for cfg in [TransformerConfig::bert_15b(), TransformerConfig::bert_20b()] {
            let w = cfg.workload(4);
            for nodes in [2, 4, 8, 16] {
                assert!(!z2(nodes, &w), "{} @ {} nodes must OOM", cfg.name, nodes);
            }
        }
    }

    #[test]
    fn paper_partition_group_minimums() {
        // §5.1.1: smallest partition groups that fit with micro-batch 8 —
        // 1 node for 10B, 2 nodes for 15B/20B, 8 nodes for 50B.
        let fits = |cfg: &TransformerConfig, nodes_in_group: usize| {
            let cluster = v100_cluster(16);
            let p = nodes_in_group * 8;
            let plan = Strategy::Mics(MicsConfig::paper_defaults(p)).plan(cluster.total_devices());
            check_memory(&cfg.workload(8), &cluster, &plan, "MiCS").is_ok()
        };
        assert!(fits(&TransformerConfig::bert_10b(), 1));
        assert!(fits(&TransformerConfig::bert_15b(), 2));
        assert!(!fits(&TransformerConfig::bert_15b(), 1), "15B on one node must OOM");
        assert!(fits(&TransformerConfig::bert_20b(), 2));
        assert!(!fits(&TransformerConfig::bert_20b(), 1), "20B on one node must OOM");
        assert!(fits(&TransformerConfig::bert_50b(), 8));
        assert!(!fits(&TransformerConfig::bert_50b(), 4), "50B on 4 nodes must OOM");
    }

    #[test]
    fn bert20b_on_two_nodes_drops_hierarchical_buffers() {
        // §5.1.1: "we have to disable hierarchical communication on 16 GPUs
        // due to the memory constraint" (BERT 20B, p = 16).
        let cluster = v100_cluster(2);
        let plan = Strategy::Mics(MicsConfig::paper_defaults(16)).plan(16);
        let est = check_memory(&TransformerConfig::bert_20b().workload(8), &cluster, &plan, "MiCS")
            .expect("must fit after dropping hierarchical buffers");
        assert!(!est.hierarchical_buffers);
        // BERT 15B at the same group size keeps them (Fig. 12b runs it).
        let est = check_memory(&TransformerConfig::bert_15b().workload(8), &cluster, &plan, "MiCS")
            .expect("15B must fit");
        assert!(est.hierarchical_buffers);
    }

    #[test]
    fn zero3_fits_everything_in_the_paper() {
        for (cfg, nodes) in [
            (TransformerConfig::bert_10b(), 2usize),
            (TransformerConfig::bert_15b(), 2),
            (TransformerConfig::bert_20b(), 2),
            (TransformerConfig::bert_50b(), 8),
        ] {
            let cluster = v100_cluster(nodes);
            let plan = Strategy::Zero(ZeroStage::Three).plan(cluster.total_devices());
            assert!(
                check_memory(&cfg.workload(8), &cluster, &plan, "ZeRO-3").is_ok(),
                "{} @ {} nodes",
                cfg.name,
                nodes
            );
        }
    }

    #[test]
    fn wideresnet_zero2_never_fits_but_mics_and_zero3_do() {
        // §5.1.4: WideResNet 3B "is not runnable under ZeRO-2".
        let w = WideResNetConfig::wrn_3b().workload(8);
        for nodes in [2usize, 4, 8, 16] {
            let cluster = v100_cluster(nodes);
            let n = cluster.total_devices();
            let z2 = Strategy::Zero(ZeroStage::Two).plan(n);
            assert!(check_memory(&w, &cluster, &z2, "ZeRO-2").is_err(), "{nodes} nodes");
            let z3 = Strategy::Zero(ZeroStage::Three).plan(n);
            assert!(check_memory(&w, &cluster, &z3, "ZeRO-3").is_ok());
            let mics = Strategy::Mics(MicsConfig::paper_defaults(8)).plan(n);
            assert!(check_memory(&w, &cluster, &mics, "MiCS").is_ok());
        }
    }

    #[test]
    fn arena_allocator_saves_memory_vs_dynamic() {
        let w = TransformerConfig::bert_10b().workload(8);
        let mics = Strategy::Mics(MicsConfig::paper_defaults(8)).plan(64);
        let mut dyn_cfg = MicsConfig::paper_defaults(8);
        dyn_cfg.arena_memory = false;
        let dynamic = Strategy::Mics(dyn_cfg).plan(64);
        let a = MemoryEstimate::for_plan(&w, &mics, false);
        let b = MemoryEstimate::for_plan(&w, &dynamic, false);
        assert!(a.transient < b.transient);
        assert_eq!(a.params, b.params);
    }

    #[test]
    fn estimate_totals_add_up() {
        let w = TransformerConfig::bert_10b().workload(8);
        let plan = Strategy::Mics(MicsConfig::paper_defaults(8)).plan(64);
        let est = MemoryEstimate::for_plan(&w, &plan, false);
        assert_eq!(
            est.total(),
            est.params + est.grads + est.optimizer + est.activations + est.transient
        );
        // 10B over p=8: 160 GB / 8 = 20 GB of model states.
        let states = est.params + est.grads + est.optimizer;
        let expect = w.total_params() * 16 / 8;
        assert_eq!(states, expect);
    }

    #[test]
    fn a100_fits_more() {
        // BERT 15B on a single p4d node (40 GB GPUs) fits; it does not on
        // a p3dn node (32 GB).
        let w = TransformerConfig::bert_15b().workload(8);
        let a100 = ClusterSpec::new(InstanceType::p4d_24xlarge(), 2);
        let plan = Strategy::Mics(MicsConfig::paper_defaults(8)).plan(16);
        assert!(check_memory(&w, &a100, &plan, "MiCS").is_ok());
        let v100 = v100_cluster(2);
        assert!(check_memory(&w, &v100, &plan, "MiCS").is_err());
    }
}

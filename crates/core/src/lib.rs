//! `mics-core` — the paper's contribution: the MiCS training executor, its
//! DeepSpeed ZeRO / DDP baselines, and a Megatron-LM-3D comparator, all
//! running on the deterministic cluster simulator.
//!
//! # Architecture
//!
//! A [`TrainingJob`] pairs a workload (from `mics-model`), a cluster (from
//! `mics-cluster`) and a [`Strategy`]. [`simulate`] first runs the §4-style
//! memory model ([`memory::MemoryEstimate`]) — jobs that do not fit report
//! OOM exactly like the "×" marks in the paper's figures — then lowers one
//! training iteration (s micro-steps plus the gradient-accumulation
//! boundary) into stream programs on the discrete-event simulator and
//! returns a [`report::RunReport`] with iteration time, throughput and
//! communication/computation breakdowns.
//!
//! The three MiCS design components map to config knobs on
//! [`MicsConfig`]:
//!
//! * scale-aware model partitioning (§3.2) — `partition_size`;
//! * hierarchical communication (§3.3) — `hierarchical_allgather`;
//! * 2-hop gradient synchronization (§3.4) — `two_hop_sync`;
//!
//! and the §4 implementation optimizations to `fine_grained_sync`,
//! `cached_decisions`, `coalesced_comm`, and `arena_memory`, so every
//! ablation figure of §5.2–§5.3 is a configuration sweep.
//!
//! # Example
//!
//! ```
//! use mics_core::{simulate, MicsConfig, Strategy, TrainingJob};
//! use mics_cluster::{ClusterSpec, InstanceType};
//! use mics_model::TransformerConfig;
//!
//! let cluster = ClusterSpec::new(InstanceType::p3dn_24xlarge(), 2);
//! let job = TrainingJob {
//!     workload: TransformerConfig::bert_10b().workload(8),
//!     cluster,
//!     strategy: Strategy::Mics(MicsConfig::paper_defaults(8)),
//!     accum_steps: 4,
//! };
//! let report = simulate(&job).expect("fits in memory");
//! assert!(report.samples_per_sec > 0.0);
//! ```

#![warn(missing_docs)]

pub mod canonical;
pub mod config;
pub mod dp;
pub mod json;
pub mod megatron;
pub mod memory;
pub mod ops;
pub mod recovery;
pub mod report;
pub mod schedule;
pub mod tuner;

pub use canonical::{Canonical, CanonicalHasher, CanonicalKey};
pub use config::{MicsConfig, PartitionError, Strategy, ZeroStage};
pub use dp::{dp_pipeline_program, dp_program, simulate_dp_pipeline, simulate_dp_traced, JobView};
pub use json::{Json, ToJson};
pub use megatron::{simulate_megatron, MegatronConfig, MegatronReport};
pub use memory::{MemoryEstimate, OomError};
pub use mics_compress::{CompressionConfig, QuantScheme};
pub use recovery::{
    poisson_failures, policy_for, recovery_time, simulate_elastic, simulate_with_failures,
    spot_plan, ElasticReport, RecoveryPolicy, RecoveryReport, RecoveryTime, SpotPolicy,
};
pub use report::RunReport;
pub use schedule::{
    execute_on_sim, reshape, Geometry, GroupRef, OpKind, Pass, PipelineSpec, ScheduleOp,
    ScheduleSpec, StepProgram, WireOp,
};
pub use tuner::{candidate_partition_sizes, tune, tune_with_compression, Candidate, TuneResult};

use mics_cluster::ClusterSpec;
use mics_model::WorkloadSpec;

/// A complete description of one training job to simulate.
#[derive(Debug, Clone)]
pub struct TrainingJob {
    /// The model, lowered for a specific micro-batch size.
    pub workload: WorkloadSpec,
    /// The cluster to run on.
    pub cluster: ClusterSpec,
    /// The parallelization strategy.
    pub strategy: Strategy,
    /// Micro-steps per iteration (`s`, gradient accumulation depth).
    pub accum_steps: usize,
}

impl TrainingJob {
    /// Global samples consumed per iteration
    /// (`devices × micro_batch × accum_steps`).
    pub fn samples_per_iteration(&self) -> usize {
        self.cluster.total_devices() * self.workload.micro_batch * self.accum_steps
    }

    /// Borrow this job as a [`JobView`] — the allocation-free form the
    /// tuner and planner hot paths simulate from.
    pub fn view(&self) -> JobView<'_> {
        JobView {
            workload: &self.workload,
            cluster: &self.cluster,
            strategy: &self.strategy,
            accum_steps: self.accum_steps,
        }
    }
}

/// Simulate one training iteration of `job`.
///
/// Returns [`OomError`] when the memory model says the job cannot fit — the
/// simulated equivalent of the paper's out-of-memory "×" marks. MiCS jobs
/// with `hierarchical_allgather` that fit only without the hierarchical
/// staging buffers are automatically downgraded (the paper does exactly this
/// for BERT 20B on 16 GPUs, §5.1.1) and the report notes it.
pub fn simulate(job: &TrainingJob) -> Result<RunReport, OomError> {
    dp::simulate_dp(job)
}

//! A minimal, fully deterministic deep-learning stack used to validate the
//! *fidelity* of MiCS's synchronization schedules (paper §5.4, Figure 15).
//!
//! The paper's fidelity experiment trains the same model under DeepSpeed and
//! MiCS and shows matching loss curves. What that experiment actually
//! stresses is the **gradient synchronization algebra**: per-micro-step
//! reduce-scatter inside the partition group plus boundary all-reduce across
//! replication groups (2-hop) must accumulate the same gradient sums as a
//! global all-reduce. That algebra needs a real optimizer, real gradients,
//! and real sharded state — not a GPU. This crate provides:
//!
//! * [`TinyTransformer`] — a miniature causal transformer language model
//!   with hand-written forward/backward (no autograd dependency), whose
//!   layers split over pipeline stages ([`lm`]);
//! * [`Adam`] — the optimizer used throughout the paper's experiments,
//!   operating on an arbitrary shard of the parameter space;
//! * mixed-precision emulation (fp32 master weights, f16-quantized forward
//!   copies) via `mics_tensor`'s converters;
//! * [`train::TrainRun`] / [`train::train_pipeline`] / [`train_lm`] —
//!   data-parallel (and pipelined) training over the real `mics-dataplane`
//!   communicator, one executor walking one lowered step program, under
//!   three schedules:
//!   [`train::SyncSchedule::Ddp`] (classic data parallelism),
//!   [`train::SyncSchedule::PerMicroStepAllReduce`] (DeepSpeed ZeRO-3's
//!   default, the "alternative schedule" of §3.4), and
//!   [`train::SyncSchedule::TwoHop`] (MiCS).

#![warn(missing_docs)]

pub mod adam;
pub mod checkpoint;
pub mod executor;
pub mod kernels;
pub mod lm;
pub mod scaler;
pub mod train;
pub mod transformer;

pub use adam::Adam;
pub use checkpoint::{load as load_checkpoint, save as save_checkpoint, TrainState};
pub use executor::{
    overlappable_wire_ops, CounterSample, ExecLane, LaneSpan, LaneStats, MicroStep, StageGrad,
    StepCompute,
};
pub use kernels::{
    flops_total, kernel_stats, set_kernel_threads, set_simd, simd_active, simd_available,
    simd_level,
};
pub use lm::{train_lm, train_lm_on, LmSetup};
pub use mics_compress::{CompressionConfig, QuantScheme};
pub use scaler::{LossScale, ScalerSnapshot};
pub use train::{
    step_program, train_elastic_on, train_pipeline, CheckpointSink, ElasticPhase, ScheduleHyper,
    Start, SyncSchedule, TrainCheckpoint, TrainOutcome, TrainRun, TrainSetup,
};
pub use transformer::{TinyTransformer, Workspace};

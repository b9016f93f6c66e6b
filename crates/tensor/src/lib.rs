//! Buffer substrate for the MiCS reproduction: the f16 cast, parameter
//! sharding math, and the executor's reused gather buffers.
//!
//! [`ShardSpec`] centralizes the "which rank owns which slice" arithmetic
//! shared by the real data plane, the mini-DL training loops, and the
//! simulator executors. [`GatherBuffers`] is the real backend's instance of
//! the §4 pre-allocated buffers; the simulator prices that design through
//! `mics-core`'s memory model.

#![warn(missing_docs)]

mod alloc;
pub mod dtype;
mod shard;

pub use alloc::GatherBuffers;
pub use dtype::quantize_f16;
pub use shard::ShardSpec;

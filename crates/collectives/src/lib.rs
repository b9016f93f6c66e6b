//! Collective-communication algorithms for MiCS: chunk-layout math, α–β cost
//! models, and the Figure 1 effective-bandwidth model.
//!
//! The cost models are ring algorithms plus the §3.3 hierarchical
//! all-gather. [`WireCollective::cost`] prices any of them exact or on a
//! compressed wire (the codec's payload size comes from `mics-compress`,
//! which the schedule emitter in `mics-core` asks). Tree all-reduce
//! (the paper's footnote 1) is not modelled: no MiCS schedule selects it.
//!
//! This crate is the shared brain behind both halves of the reproduction:
//!
//! * the **data plane** (`mics-dataplane`) executes the chunk layouts from
//!   [`layout`] on real buffers — including the 3-stage hierarchical
//!   all-gather of paper §3.3 with its stage-2 re-arrangement;
//! * the **simulator executors** (`mics-core`) turn the [`cost`] models into
//!   timed transfer operations on shared NIC/NVLink links.
//!
//! Keeping one source of truth for "which chunk goes where" lets property
//! tests prove the hierarchical algorithm equivalent to a flat all-gather
//! for every valid `(p, k)` geometry, which is exactly the correctness bug
//! class the paper calls out (the `[C0, C2, C1, C3]` wrong layout).

#![warn(missing_docs)]

pub mod bandwidth;
pub mod cost;
pub mod dispatch;
pub mod layout;

pub use bandwidth::NetParams;
pub use cost::{CollectiveCost, LinkClass, Phase};
pub use dispatch::{WireCollective, WireKind};
pub use layout::HierarchicalLayout;

//! `mics-planner` — a high-throughput planning/costing service over the
//! MiCS simulator and tuner.
//!
//! Capacity planning is a *query* workload: "what will BERT-50B cost on 16
//! p4d nodes?", "which partition size should this job use?", asked by many
//! tools, sweeps and people against the same deterministic simulator. This
//! crate packages that workload as a long-running server instead of a
//! per-query process launch:
//!
//! * **Protocol** ([`protocol`]) — compact-JSON documents in the
//!   dataplane's own wire layer (`mics_dataplane::transport::wire`: TCP or
//!   Unix-domain streams, length-prefixed frames), with
//!   `simulate`, `tune`, streamed `sweep`, `stats`, `hello` (budget
//!   provisioning) and `shutdown` requests, and a typed [`PlanError`]
//!   taxonomy mirroring the dataplane's `CommError`.
//! * **Server** ([`server`]) — a worker pool over a bounded queue with a
//!   single-flight memoization cache ([`cache`]) keyed by canonical config
//!   hashes (`mics_core::canonical`), in-flight dedup of concurrent
//!   identical queries, per-connection FLOP budgets ([`budget`]),
//!   per-query deadlines, typed backpressure (`Overloaded`) and graceful
//!   drain on shutdown.
//! * **Client** ([`client`]) — a typed [`PlannerClient`] with
//!   bounded-backoff connection retry, plus raw-text access for
//!   byte-identity assertions.
//!
//! Determinism is the contract that makes the cache correct: the simulator
//! is deterministic, `Json::emit` is deterministic, and reports round-trip
//! JSON losslessly, so a memoized response is byte-identical to a freshly
//! computed one — concurrent duplicate queries all receive the same bytes
//! from a single simulation run.

#![warn(missing_docs)]

/// Process name every planner trace event records under.
pub const PLANNER_PROCESS: &str = "planner";

pub mod budget;
pub mod cache;
pub mod client;
pub mod protocol;
pub mod server;

pub use budget::{simulate_cost, tune_cost, FlopLedger};
pub use cache::{CacheOutcome, CacheStats, PlanCache};
pub use client::{PlannerClient, ServerStats, SweepOutcome, TuneOutcome};
pub use protocol::{read_frame, write_frame, JobSpec, PlanError, MAX_FRAME};
pub use server::{PlannerConfig, PlannerServer};

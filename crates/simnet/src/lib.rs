//! Deterministic discrete-event simulation engine for modelling distributed
//! training timelines.
//!
//! The engine models three kinds of entities, mirroring how a GPU runtime
//! schedules work:
//!
//! * [`StreamId`] — an ordered executor (like a CUDA stream). Each device in a
//!   simulated cluster typically owns one compute stream and one or more
//!   communication streams. Operations pushed onto a stream run strictly in
//!   order.
//! * [`EventId`] — a one-shot synchronization token (like a CUDA event). A
//!   stream can [`Op::RecordEvent`] an event, and any stream can
//!   [`Op::WaitEvent`] on it; waiting after the record completes immediately.
//!   This is the *fine-grained* synchronization primitive the MiCS paper (§4)
//!   contrasts with coarse device-wide synchronization.
//! * [`LinkId`] — a capacity-limited shared resource (a node's NIC, a node's
//!   NVLink fabric, or a device-local memcpy engine). Concurrent transfers on
//!   one link share its bandwidth fairly ("fluid flow" model), so two
//!   collectives overlapping on the same NIC genuinely slow each other down.
//!   A transfer may stand for several identical concurrent flows
//!   ([`Op::transfer_flows`]): it takes one fair share per flow, moves its
//!   bytes once per flow and finishes when any one of them would, so a
//!   caller simulating one device per class of identical devices pushes one
//!   transfer where the devices would push one each.
//!
//! Determinism: virtual time is integer nanoseconds and the event queue breaks
//! ties by insertion sequence number, so a given program always produces the
//! same timeline.
//!
//! Link rates are fixed when a link is registered: a slow NIC is a link
//! registered at a lower rate. The [`fault`] module's [`FaultPlan`] is a
//! seeded crash/return timeline that recovery models walk; the engine itself
//! runs no faults.
//!
//! # Example
//!
//! ```
//! use mics_simnet::{Sim, Op, SimTime};
//!
//! let mut sim = Sim::new();
//! let nic = sim.add_link("nic", 12.5e9); // 100 Gbps in bytes/sec
//! let compute = sim.add_stream("compute");
//! let comm = sim.add_stream("comm");
//! let done = sim.add_event();
//!
//! // Communication overlapping computation, joined by an event.
//! sim.push(comm, Op::transfer(nic, 125_000_000, SimTime::from_micros(20)));
//! sim.push(comm, Op::RecordEvent(done));
//! sim.push(compute, Op::compute(SimTime::from_millis(5)));
//! sim.push(compute, Op::WaitEvent(done));
//! sim.push(compute, Op::compute(SimTime::from_millis(1)));
//!
//! let stats = sim.run().unwrap();
//! // 125 MB over 12.5 GB/s = 10 ms, dominating the 5 ms compute.
//! assert!(stats.makespan >= SimTime::from_millis(11));
//! ```

#![warn(missing_docs)]

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fmt;

pub mod fault;
mod time;
pub mod trace;
pub use fault::{FaultEvent, FaultKind, FaultPlan};
pub use time::SimTime;
pub use trace::{Trace, TraceEvent, SIM_PROCESS};

/// Identifies a stream (ordered executor) inside a [`Sim`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StreamId(pub usize);

/// Identifies a one-shot synchronization event inside a [`Sim`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EventId(pub usize);

/// Identifies a shared bandwidth resource (NIC, NVLink fabric, memcpy engine).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LinkId(pub usize);

/// An operation executed on a stream.
#[derive(Debug, Clone)]
pub enum Op {
    /// Occupy the stream for a fixed duration (kernel execution).
    Compute {
        /// How long the stream is busy.
        duration: SimTime,
    },
    /// Move `bytes` across `link`, sharing its bandwidth with other active
    /// transfers. `latency` is a fixed startup term paid before any byte moves
    /// (the α in the α–β collective cost model).
    Transfer {
        /// The shared resource the bytes traverse.
        link: LinkId,
        /// Payload size in bytes, per flow.
        bytes: u64,
        /// Fixed startup latency.
        latency: SimTime,
        /// Identical concurrent flows this transfer stands for (at least 1):
        /// each takes a fair share of the link and moves `bytes`.
        flows: u32,
    },
    /// Record `EventId` as completed at the current stream position.
    RecordEvent(EventId),
    /// Block the stream until the event has been recorded.
    WaitEvent(EventId),
}

impl Op {
    /// Convenience constructor for an [`Op::Compute`].
    pub fn compute(duration: SimTime) -> Self {
        Op::Compute { duration }
    }

    /// Convenience constructor for an [`Op::Transfer`] of one flow.
    pub fn transfer(link: LinkId, bytes: u64, latency: SimTime) -> Self {
        Self::transfer_flows(link, bytes, latency, 1)
    }

    /// An [`Op::Transfer`] standing for `flows` identical concurrent
    /// transfers of `bytes` each.
    pub fn transfer_flows(link: LinkId, bytes: u64, latency: SimTime, flows: u32) -> Self {
        debug_assert!(flows > 0, "a transfer carries at least one flow");
        Op::Transfer { link, bytes, latency, flows }
    }
}

/// Error returned by [`Sim::run`] when the program cannot make progress.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// One or more streams are blocked waiting on events that will never be
    /// recorded. Contains `(stream, event)` pairs for diagnosis.
    Deadlock(Vec<(StreamId, EventId)>),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Deadlock(pairs) => {
                write!(f, "simulation deadlock; blocked streams: ")?;
                for (s, e) in pairs {
                    write!(f, "stream {} on event {}; ", s.0, e.0)?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for SimError {}

/// Aggregate results of a completed simulation.
#[derive(Debug, Clone, Default)]
pub struct RunStats {
    /// Virtual time at which the last operation finished.
    pub makespan: SimTime,
    /// Per-stream total busy time (Compute + Transfer occupancy).
    pub stream_busy: Vec<SimTime>,
    /// Per-link total bytes moved, every flow counted.
    pub link_bytes: Vec<u64>,
    /// Execution spans (only populated after [`Sim::enable_tracing`]),
    /// recorded on the shared `mics-trace` layer under [`SIM_PROCESS`].
    pub trace: Trace,
    /// Stream names, parallel to stream indices (populated with tracing).
    pub stream_names: Vec<String>,
}

#[derive(Debug)]
enum StreamStatus {
    /// Ready to start its next op.
    Idle,
    /// An op is executing; completion is already scheduled.
    Running,
    /// Blocked in a `WaitEvent`.
    Blocked(EventId),
    /// Program exhausted.
    Finished,
}

#[derive(Debug)]
struct StreamState {
    name: String,
    program: Vec<Op>,
    pc: usize,
    status: StreamStatus,
    busy: SimTime,
    /// When the currently running op started (for busy accounting).
    op_started: SimTime,
}

#[derive(Debug)]
struct EventState {
    recorded: Option<SimTime>,
    waiters: Vec<StreamId>,
}

#[derive(Debug, Clone)]
struct ActiveTransfer {
    stream: StreamId,
    /// Bytes left per flow.
    remaining: f64,
    flows: u32,
}

#[derive(Debug)]
struct LinkState {
    /// Bytes per nanosecond.
    rate: f64,
    active: Vec<ActiveTransfer>,
    /// Flows of the active transfers: the fair share is `rate / flows`.
    flows: u32,
    last_update: SimTime,
    /// Invalidates stale completion-check events after membership changes.
    generation: u64,
    total_bytes: u64,
}

impl LinkState {
    /// Advance the fluid model to `now`, draining each active transfer at its
    /// fair share of the link rate.
    fn settle(&mut self, now: SimTime) {
        if self.active.is_empty() {
            self.last_update = now;
            return;
        }
        let dt = now.as_nanos().saturating_sub(self.last_update.as_nanos()) as f64;
        if dt > 0.0 {
            let share = self.rate / self.flows as f64;
            for t in &mut self.active {
                t.remaining -= share * dt;
            }
        }
        self.last_update = now;
    }

    /// Time until the next transfer would complete at current shares.
    fn next_completion_in(&self) -> Option<f64> {
        if self.active.is_empty() {
            return None;
        }
        let share = self.rate / self.flows as f64;
        self.active
            .iter()
            .map(|t| (t.remaining.max(0.0)) / share)
            .fold(None, |acc: Option<f64>, x| Some(acc.map_or(x, |a| a.min(x))))
    }
}

#[derive(Debug, PartialEq, Eq)]
enum Pending {
    OpComplete { stream: StreamId },
    TransferLatencyDone { stream: StreamId, link: LinkId, bytes: u64, flows: u32 },
    LinkCheck { link: LinkId, generation: u64 },
}

#[derive(Debug, PartialEq, Eq)]
struct Queued {
    at: SimTime,
    seq: u64,
    what: Pending,
}

impl Ord for Queued {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}
impl PartialOrd for Queued {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// The discrete-event simulator. See the crate docs for an overview.
#[derive(Debug, Default)]
pub struct Sim {
    now: SimTime,
    seq: u64,
    queue: BinaryHeap<Reverse<Queued>>,
    streams: Vec<StreamState>,
    events: Vec<EventState>,
    links: Vec<LinkState>,
    stats: RunStats,
    tracing: bool,
    /// Time of the last op completion, reported as [`RunStats::makespan`].
    last_progress: SimTime,
}

/// Tolerance (in bytes) below which a fluid transfer counts as complete.
const EPS_BYTES: f64 = 1e-6;

impl Sim {
    /// Create an empty simulator at virtual time zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record execution spans for chrome-trace export (small overhead; off
    /// by default).
    pub fn enable_tracing(&mut self) {
        self.tracing = true;
    }

    /// Register a stream. `name` is only used for diagnostics.
    pub fn add_stream(&mut self, name: impl Into<String>) -> StreamId {
        self.streams.push(StreamState {
            name: name.into(),
            program: Vec::new(),
            pc: 0,
            status: StreamStatus::Idle,
            busy: SimTime::ZERO,
            op_started: SimTime::ZERO,
        });
        StreamId(self.streams.len() - 1)
    }

    /// Register a synchronization event.
    pub fn add_event(&mut self) -> EventId {
        self.events.push(EventState { recorded: None, waiters: Vec::new() });
        EventId(self.events.len() - 1)
    }

    /// Register a shared link with `bytes_per_sec` capacity. The name is
    /// not kept: links appear in no trace or error.
    pub fn add_link(&mut self, _name: impl Into<String>, bytes_per_sec: f64) -> LinkId {
        assert!(bytes_per_sec > 0.0, "link bandwidth must be positive");
        let rate = bytes_per_sec / 1e9; // bytes per nanosecond
        self.links.push(LinkState {
            rate,
            active: Vec::new(),
            flows: 0,
            last_update: SimTime::ZERO,
            generation: 0,
            total_bytes: 0,
        });
        LinkId(self.links.len() - 1)
    }

    /// Append an operation to a stream's program. Programs may only be
    /// extended before [`Sim::run`] is called.
    pub fn push(&mut self, stream: StreamId, op: Op) {
        self.streams[stream.0].program.push(op);
    }

    fn schedule(&mut self, at: SimTime, what: Pending) {
        self.seq += 1;
        self.queue.push(Reverse(Queued { at, seq: self.seq, what }));
    }

    /// Start the op at `pc` of `stream`, or advance through zero-time ops.
    fn kick(&mut self, stream: StreamId) {
        loop {
            let s = &mut self.streams[stream.0];
            if s.pc >= s.program.len() {
                s.status = StreamStatus::Finished;
                return;
            }
            let op = s.program[s.pc].clone();
            match op {
                Op::Compute { duration } => {
                    s.status = StreamStatus::Running;
                    s.op_started = self.now;
                    let at = self.now + duration;
                    self.schedule(at, Pending::OpComplete { stream });
                    return;
                }
                Op::Transfer { link, bytes, latency, flows } => {
                    s.status = StreamStatus::Running;
                    s.op_started = self.now;
                    if latency > SimTime::ZERO {
                        let at = self.now + latency;
                        let what = Pending::TransferLatencyDone { stream, link, bytes, flows };
                        self.schedule(at, what);
                    } else {
                        self.join_link(stream, link, bytes, flows);
                    }
                    return;
                }
                Op::RecordEvent(e) => {
                    s.pc += 1;
                    self.record_event(e);
                    // continue the loop to run subsequent zero-time ops
                }
                Op::WaitEvent(e) => {
                    if self.events[e.0].recorded.is_some() {
                        s.pc += 1;
                        // proceed
                    } else {
                        s.status = StreamStatus::Blocked(e);
                        self.events[e.0].waiters.push(stream);
                        return;
                    }
                }
            }
        }
    }

    fn record_event(&mut self, e: EventId) {
        let ev = &mut self.events[e.0];
        if ev.recorded.is_some() {
            // Re-recording is idempotent in this model.
            return;
        }
        ev.recorded = Some(self.now);
        let waiters = std::mem::take(&mut ev.waiters);
        for w in waiters {
            if let StreamStatus::Blocked(be) = self.streams[w.0].status {
                if be == e {
                    self.streams[w.0].status = StreamStatus::Idle;
                    self.streams[w.0].pc += 1;
                    self.kick(w);
                }
            }
        }
    }

    fn join_link(&mut self, stream: StreamId, link: LinkId, bytes: u64, flows: u32) {
        let now = self.now;
        let l = &mut self.links[link.0];
        l.settle(now);
        l.total_bytes += bytes * u64::from(flows);
        l.flows += flows;
        l.active.push(ActiveTransfer { stream, remaining: bytes as f64, flows });
        l.generation += 1;
        self.reschedule_link(link);
    }

    fn reschedule_link(&mut self, link: LinkId) {
        let l = &self.links[link.0];
        if let Some(dt) = l.next_completion_in() {
            let at = self.now + SimTime::from_nanos(dt.ceil() as u64);
            let generation = l.generation;
            self.schedule(at, Pending::LinkCheck { link, generation });
        }
    }

    fn finish_op(&mut self, stream: StreamId) {
        self.last_progress = self.now;
        let s = &mut self.streams[stream.0];
        s.busy += self.now - s.op_started;
        if self.tracing {
            let (label, bytes) = match &s.program[s.pc] {
                Op::Compute { .. } => ("compute", None),
                Op::Transfer { bytes, .. } => ("transfer", Some(*bytes)),
                _ => ("op", None),
            };
            let name = s.name.clone();
            let started = s.op_started;
            trace::record_span(&mut self.stats.trace, &name, label, started, self.now, bytes);
        }
        let s = &mut self.streams[stream.0];
        s.pc += 1;
        s.status = StreamStatus::Idle;
        self.kick(stream);
    }

    fn handle(&mut self, what: Pending) {
        match what {
            Pending::OpComplete { stream } => self.finish_op(stream),
            Pending::TransferLatencyDone { stream, link, bytes, flows } => {
                self.join_link(stream, link, bytes, flows)
            }
            Pending::LinkCheck { link, generation } => {
                if self.links[link.0].generation != generation {
                    return; // stale
                }
                let now = self.now;
                let l = &mut self.links[link.0];
                l.settle(now);
                let mut finished = Vec::new();
                l.active.retain(|t| {
                    if t.remaining <= EPS_BYTES {
                        finished.push(t.stream);
                        l.flows -= t.flows;
                        false
                    } else {
                        true
                    }
                });
                if !finished.is_empty() {
                    l.generation += 1;
                }
                self.reschedule_link(link);
                for stream in finished {
                    self.finish_op(stream);
                }
            }
        }
    }

    /// Execute all stream programs to completion.
    ///
    /// Returns [`SimError::Deadlock`] if any stream remains blocked on an
    /// event that is never recorded.
    pub fn run(&mut self) -> Result<RunStats, SimError> {
        for i in 0..self.streams.len() {
            if matches!(self.streams[i].status, StreamStatus::Idle) {
                self.kick(StreamId(i));
            }
        }
        while let Some(Reverse(q)) = self.queue.pop() {
            debug_assert!(q.at >= self.now, "time went backwards");
            self.now = q.at;
            self.handle(q.what);
        }
        // All queue drained: check every stream finished.
        let mut blocked = Vec::new();
        for (i, s) in self.streams.iter().enumerate() {
            match s.status {
                StreamStatus::Finished => {}
                StreamStatus::Blocked(e) => blocked.push((StreamId(i), e)),
                _ => blocked.push((StreamId(i), EventId(usize::MAX))),
            }
        }
        if !blocked.is_empty() {
            return Err(SimError::Deadlock(blocked));
        }
        let mut stats = std::mem::take(&mut self.stats);
        stats.makespan = self.last_progress;
        stats.stream_busy = self.streams.iter().map(|s| s.busy).collect();
        stats.link_bytes = self.links.iter().map(|l| l.total_bytes).collect();
        if self.tracing {
            stats.stream_names = self.streams.iter().map(|s| s.name.clone()).collect();
        }
        Ok(stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bw(gb_per_s: f64) -> f64 {
        gb_per_s * 1e9
    }

    #[test]
    fn empty_sim_finishes_at_zero() {
        let mut sim = Sim::new();
        let stats = sim.run().unwrap();
        assert_eq!(stats.makespan, SimTime::ZERO);
    }

    #[test]
    fn single_compute_duration() {
        let mut sim = Sim::new();
        let s = sim.add_stream("c");
        sim.push(s, Op::compute(SimTime::from_millis(7)));
        let stats = sim.run().unwrap();
        assert_eq!(stats.makespan, SimTime::from_millis(7));
        assert_eq!(stats.stream_busy[0], SimTime::from_millis(7));
    }

    #[test]
    fn sequential_ops_on_one_stream_add_up() {
        let mut sim = Sim::new();
        let s = sim.add_stream("c");
        for _ in 0..5 {
            sim.push(s, Op::compute(SimTime::from_micros(100)));
        }
        let stats = sim.run().unwrap();
        assert_eq!(stats.makespan, SimTime::from_micros(500));
    }

    #[test]
    fn parallel_streams_overlap() {
        let mut sim = Sim::new();
        let a = sim.add_stream("a");
        let b = sim.add_stream("b");
        sim.push(a, Op::compute(SimTime::from_millis(3)));
        sim.push(b, Op::compute(SimTime::from_millis(4)));
        let stats = sim.run().unwrap();
        assert_eq!(stats.makespan, SimTime::from_millis(4));
    }

    #[test]
    fn transfer_time_is_latency_plus_bytes_over_rate() {
        let mut sim = Sim::new();
        let l = sim.add_link("nic", bw(10.0)); // 10 GB/s
        let s = sim.add_stream("comm");
        sim.push(s, Op::transfer(l, 1_000_000_000, SimTime::from_micros(50)));
        let stats = sim.run().unwrap();
        // 1 GB / 10 GB/s = 100 ms, + 50 us latency.
        assert_eq!(stats.makespan, SimTime::from_micros(100_050));
        assert_eq!(stats.link_bytes[0], 1_000_000_000);
    }

    #[test]
    fn two_transfers_share_link_bandwidth() {
        let mut sim = Sim::new();
        let l = sim.add_link("nic", bw(10.0));
        let a = sim.add_stream("a");
        let b = sim.add_stream("b");
        sim.push(a, Op::transfer(l, 1_000_000_000, SimTime::ZERO));
        sim.push(b, Op::transfer(l, 1_000_000_000, SimTime::ZERO));
        let stats = sim.run().unwrap();
        // Both share 10 GB/s: each effectively gets 5 GB/s → 200 ms.
        assert_eq!(stats.makespan, SimTime::from_millis(200));
    }

    #[test]
    fn unequal_transfers_fair_share_piecewise() {
        let mut sim = Sim::new();
        let l = sim.add_link("nic", bw(10.0));
        let a = sim.add_stream("a");
        let b = sim.add_stream("b");
        sim.push(a, Op::transfer(l, 500_000_000, SimTime::ZERO));
        sim.push(b, Op::transfer(l, 1_000_000_000, SimTime::ZERO));
        let stats = sim.run().unwrap();
        // Phase 1: both at 5 GB/s until A (0.5 GB) finishes at t=100ms.
        // B has 0.5 GB left, now alone at 10 GB/s → finishes at 150 ms.
        assert_eq!(stats.makespan, SimTime::from_millis(150));
    }

    #[test]
    fn staggered_join_slows_existing_transfer() {
        let mut sim = Sim::new();
        let l = sim.add_link("nic", bw(10.0));
        let a = sim.add_stream("a");
        let b = sim.add_stream("b");
        sim.push(a, Op::transfer(l, 1_000_000_000, SimTime::ZERO));
        // B starts 50 ms in (modelled with compute before the transfer).
        sim.push(b, Op::compute(SimTime::from_millis(50)));
        sim.push(b, Op::transfer(l, 250_000_000, SimTime::ZERO));
        let stats = sim.run().unwrap();
        // A alone: 0.5 GB done by t=50ms. Then both at 5 GB/s. B (0.25 GB)
        // finishes at t=100ms; A has 0.25 GB left, alone → 125 ms.
        assert_eq!(stats.makespan, SimTime::from_millis(125));
    }

    #[test]
    fn event_orders_cross_stream_work() {
        let mut sim = Sim::new();
        let a = sim.add_stream("a");
        let b = sim.add_stream("b");
        let e = sim.add_event();
        sim.push(a, Op::compute(SimTime::from_millis(10)));
        sim.push(a, Op::RecordEvent(e));
        sim.push(b, Op::WaitEvent(e));
        sim.push(b, Op::compute(SimTime::from_millis(1)));
        let stats = sim.run().unwrap();
        assert_eq!(stats.makespan, SimTime::from_millis(11));
    }

    #[test]
    fn wait_after_record_does_not_block() {
        let mut sim = Sim::new();
        let a = sim.add_stream("a");
        let b = sim.add_stream("b");
        let e = sim.add_event();
        sim.push(a, Op::RecordEvent(e));
        sim.push(b, Op::compute(SimTime::from_millis(5)));
        sim.push(b, Op::WaitEvent(e));
        sim.push(b, Op::compute(SimTime::from_millis(5)));
        let stats = sim.run().unwrap();
        assert_eq!(stats.makespan, SimTime::from_millis(10));
    }

    #[test]
    fn deadlock_detected() {
        let mut sim = Sim::new();
        let a = sim.add_stream("a");
        let e = sim.add_event();
        sim.push(a, Op::WaitEvent(e));
        let err = sim.run().unwrap_err();
        assert_eq!(err, SimError::Deadlock(vec![(StreamId(0), EventId(0))]));
    }

    #[test]
    fn determinism_two_identical_runs() {
        let build = || {
            let mut sim = Sim::new();
            let l = sim.add_link("nic", bw(10.0));
            let nv = sim.add_link("nv", bw(100.0));
            for i in 0..8 {
                let c = sim.add_stream(format!("c{i}"));
                let m = sim.add_stream(format!("m{i}"));
                let e = sim.add_event();
                sim.push(m, Op::transfer(l, 10_000_000 * (i as u64 + 1), SimTime::from_micros(15)));
                sim.push(m, Op::transfer(nv, 50_000_000, SimTime::from_micros(2)));
                sim.push(m, Op::RecordEvent(e));
                sim.push(c, Op::compute(SimTime::from_micros(700)));
                sim.push(c, Op::WaitEvent(e));
                sim.push(c, Op::compute(SimTime::from_micros(300)));
            }
            sim.run().unwrap()
        };
        let s1 = build();
        let s2 = build();
        assert_eq!(s1.makespan, s2.makespan);
        assert_eq!(s1.stream_busy, s2.stream_busy);
    }

    #[test]
    fn many_streams_on_one_link_aggregate_throughput_constant() {
        // n concurrent equal transfers take exactly n * t_single.
        for n in [1usize, 2, 4, 8] {
            let mut sim = Sim::new();
            let l = sim.add_link("nic", bw(10.0));
            for i in 0..n {
                let s = sim.add_stream(format!("s{i}"));
                sim.push(s, Op::transfer(l, 100_000_000, SimTime::ZERO));
            }
            let stats = sim.run().unwrap();
            assert_eq!(stats.makespan, SimTime::from_millis(10 * n as u64), "n = {n}");
        }
    }

    #[test]
    fn a_weighted_transfer_is_that_many_copies() {
        // One transfer of `c` flows against `c` identical transfers, with a
        // background transfer of another size joining mid-way.
        let run = |weighted: bool, c: u32| {
            let mut sim = Sim::new();
            let l = sim.add_link("nic", bw(10.0));
            let copies: Vec<StreamId> = if weighted {
                let s = sim.add_stream("w");
                sim.push(s, Op::transfer_flows(l, 300_000_000, SimTime::from_micros(7), c));
                vec![s]
            } else {
                (0..c)
                    .map(|i| {
                        let s = sim.add_stream(format!("copy{i}"));
                        sim.push(s, Op::transfer(l, 300_000_000, SimTime::from_micros(7)));
                        s
                    })
                    .collect()
            };
            // Never blocked, so its busy time is its completion time.
            let bg = sim.add_stream("bg");
            sim.push(bg, Op::compute(SimTime::from_nanos(10_000_003)));
            sim.push(bg, Op::transfer(l, 123_456_789, SimTime::from_micros(3)));
            let stats = sim.run().unwrap();
            let copy_busy = stats.stream_busy[copies[0].0];
            (stats.makespan, stats.stream_busy[bg.0], copy_busy, stats.link_bytes[0])
        };
        for c in [1u32, 2, 3, 7] {
            let (makespan, bg_done, busy, bytes) = run(true, c);
            let (full_makespan, full_bg_done, full_busy, full_bytes) = run(false, c);
            assert_eq!(makespan, full_makespan, "c = {c}");
            assert_eq!(bg_done, full_bg_done, "c = {c}");
            assert_eq!(busy, full_busy, "c = {c}");
            assert_eq!(bytes, u64::from(c) * 300_000_000 + 123_456_789, "c = {c}");
            assert_eq!(bytes, full_bytes, "c = {c}");
        }
    }

    #[test]
    fn busy_time_excludes_blocked_time() {
        let mut sim = Sim::new();
        let a = sim.add_stream("a");
        let b = sim.add_stream("b");
        let e = sim.add_event();
        sim.push(a, Op::compute(SimTime::from_millis(10)));
        sim.push(a, Op::RecordEvent(e));
        sim.push(b, Op::WaitEvent(e));
        sim.push(b, Op::compute(SimTime::from_millis(2)));
        let stats = sim.run().unwrap();
        assert_eq!(stats.stream_busy[1], SimTime::from_millis(2));
    }
}

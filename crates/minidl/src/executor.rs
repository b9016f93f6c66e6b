//! The one executor of the real backend: a per-rank walker that runs any
//! [`StepProgram`] over real `mics-dataplane` communicators, plus the lane
//! accounting and static overlap analysis that make its concurrency
//! observable.
//!
//! `Executor` holds one rank's communicators, parameter shard, optimizer
//! state, span log, in-flight queue and gather double buffer, and walks the
//! program once per iteration. A flat program is the `pp = 1` case; the
//! model enters only through [`StepCompute`]. Every wire op is described
//! once, as a closure over a communicator, and handed to `Executor::issue`,
//! which runs it on the calling thread or submits it to the communicator's
//! progress thread (`mics_dataplane::nonblocking`); `Executor::retire` waits
//! for submitted work where the program's dependency edges demand — the WAR
//! edge from a micro-step's reduce batch to the *next* micro-step's backward
//! compute, the [`OpKind::MicroBarrier`] drains of the ZeRO-3 schedule, and
//! the implicit read of the accumulated gradient by the boundary collectives
//! and the optimizer. Results fold in issue order either way, so
//! `prefetch_depth` changes when collectives run, never what they compute.
//!
//! Observable from outside:
//!
//! * [`LaneSpan`] / [`LaneStats`] — wall-clock spans measured per execution
//!   lane, aggregated into per-lane busy time and a measured overlap
//!   fraction, and carried on [`crate::train::TrainOutcome`];
//! * [`overlappable_wire_ops`] — a *static* analysis of a [`StepProgram`]
//!   answering "which wire ops admit compute between their issue point and
//!   their first dependent?". The executor independently records which ops
//!   it retired later than it issued them
//!   ([`LaneStats::deferred_wire_ops`]); the cross-check tests assert the
//!   two derivations agree, op id for op id, which ties the executor's
//!   measured concurrency to the concurrency `execute_on_sim` charges for
//!   the same program.

use crate::adam::Adam;
use crate::checkpoint::TrainState;
use crate::scaler::{has_overflow, ScalerState};
use crate::train::{CheckpointSink, ScheduleHyper, TrainCheckpoint, TrainOutcome};
use mics_cluster::Rank;
use mics_core::ops::Lane;
use mics_core::schedule::{GradSource, GroupRef, OpKind, Pass, StepProgram, WireOp};
use mics_dataplane::{CollectiveHandle, CommError, Communicator};
use mics_tensor::dtype::quantize_f16;
use mics_tensor::{GatherBuffers, ShardSpec};
use mics_trace::{Arg, Trace};
use std::collections::{BTreeSet, VecDeque};
use std::ops::Range;
use std::time::Instant;

/// Execution lanes of the real backend, mirroring the schedule IR's lane
/// split: one compute stream plus separate gather/reduce communication
/// lanes, and a control lane for the one collective per step that is not
/// part of the costed program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecLane {
    /// Forward/backward kernels and the optimizer step.
    Compute,
    /// Parameter all-gathers.
    Gather,
    /// Gradient reduce-scatters and all-reduces.
    Reduce,
    /// The step's control all-reduce of the loss, the overflow flag and the
    /// clip norm's sum of squares (not in the costed program).
    Control,
}

/// One measured wall-clock span on a lane, in nanoseconds relative to the
/// start of the rank's run. Spans of async collectives cover the progress
/// thread's execution (rendezvous wait included) — the same occupancy the
/// simulator's lane streams model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LaneSpan {
    /// Which lane was busy.
    pub lane: ExecLane,
    /// What it was doing (stable, lowercase; used as the trace event name).
    pub label: &'static str,
    /// Training iteration the span belongs to.
    pub iteration: usize,
    /// Span start, ns since the rank's run began.
    pub start_ns: u64,
    /// Span end, ns since the rank's run began.
    pub end_ns: u64,
}

/// One measured counter sample: the engine records cumulative
/// deferred-reduce and prefetched-gather counts as they happen, so the
/// exported trace shows *when* overlap was banked, not just the totals.
#[derive(Debug, Clone, PartialEq)]
pub struct CounterSample {
    /// Counter series name (stable, used as the trace counter name).
    pub name: &'static str,
    /// Sample time, ns since the rank's run began.
    pub ts_ns: u64,
    /// Sampled value (cumulative counts here).
    pub value: f64,
}

/// Measured per-lane occupancy of a training run on one rank.
///
/// Timing is run-specific, so `TrainOutcome`'s `PartialEq` deliberately
/// ignores this struct — two bit-identical trainings will not report
/// bit-identical nanoseconds.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LaneStats {
    /// Every measured span, in retirement order.
    pub spans: Vec<LaneSpan>,
    /// Counter samples recorded by the engine, in time order.
    pub counters: Vec<CounterSample>,
    /// Wall-clock duration of the whole run on this rank, ns.
    pub wall_ns: u64,
    /// Wire ops (program op ids, first logged iteration) that the executor
    /// retired strictly later than it issued them — i.e. at least one
    /// compute op ran while the collective was in flight. Empty under
    /// `prefetch_depth = 0`.
    pub deferred_wire_ops: Vec<usize>,
    /// Cross-iteration parameter gathers issued ahead of time into the
    /// double-buffer pool (one per iteration after the first, when enabled).
    pub prefetched_gathers: u32,
}

impl LaneStats {
    /// Total busy time of one lane, ns.
    pub fn busy_ns(&self, lane: ExecLane) -> u64 {
        self.spans.iter().filter(|s| s.lane == lane).map(|s| s.end_ns - s.start_ns).sum()
    }

    /// Busy time of the costed communication lanes (gather + reduce), ns.
    pub fn comm_busy_ns(&self) -> u64 {
        self.busy_ns(ExecLane::Gather) + self.busy_ns(ExecLane::Reduce)
    }

    /// Communication time that was hidden under compute: the total
    /// intersection of gather/reduce spans with the union of compute spans.
    pub fn overlap_ns(&self) -> u64 {
        let mut compute: Vec<(u64, u64)> = self
            .spans
            .iter()
            .filter(|s| s.lane == ExecLane::Compute)
            .map(|s| (s.start_ns, s.end_ns))
            .collect();
        compute.sort_unstable();
        // Merge into disjoint intervals.
        let mut merged: Vec<(u64, u64)> = Vec::with_capacity(compute.len());
        for (s, e) in compute {
            match merged.last_mut() {
                Some(last) if s <= last.1 => last.1 = last.1.max(e),
                _ => merged.push((s, e)),
            }
        }
        let mut overlap = 0u64;
        for span in &self.spans {
            if !matches!(span.lane, ExecLane::Gather | ExecLane::Reduce) {
                continue;
            }
            for &(s, e) in &merged {
                if e <= span.start_ns {
                    continue;
                }
                if s >= span.end_ns {
                    break;
                }
                overlap += e.min(span.end_ns) - s.max(span.start_ns);
            }
        }
        overlap
    }

    /// Fraction of communication time hidden under compute, in `[0, 1]`.
    /// `0` when no costed communication was measured.
    pub fn overlap_fraction(&self) -> f64 {
        let comm = self.comm_busy_ns();
        if comm == 0 {
            0.0
        } else {
            self.overlap_ns() as f64 / comm as f64
        }
    }

    /// Append this rank's measured timeline to `trace` under process
    /// `process`: one track per lane carrying the spans (tagged with their
    /// iteration), a derived *lane occupancy* counter per busy lane, and
    /// the engine's cumulative deferred/prefetched counter samples.
    /// Recording into a caller-owned [`Trace`] is what lets the CLI splice
    /// the backend's measured timeline into the same document as the
    /// simulator's charged one, rendered by the single shared writer.
    pub fn trace_into(&self, trace: &mut Trace, process: &str) {
        // Lane occupancy counters first, in canonical lane order — this
        // also pins the lane tracks' first-appearance (= tid) order.
        for (lane, name) in LANE_NAMES {
            let mut edges: Vec<(u64, i64)> = Vec::new();
            for s in self.spans.iter().filter(|s| s.lane == lane) {
                edges.push((s.start_ns, 1));
                edges.push((s.end_ns, -1));
            }
            if edges.is_empty() {
                continue;
            }
            // -1 before +1 at equal timestamps, so back-to-back spans do
            // not read as depth 2.
            edges.sort_unstable_by_key(|&(ts, delta)| (ts, delta));
            let series = format!("lane occupancy ({name})");
            let mut depth = 0i64;
            for (ts, delta) in edges {
                depth += delta;
                trace.counter(process, name, &series, ts, depth as f64);
            }
        }
        for s in &self.spans {
            let (_, track) = LANE_NAMES.iter().find(|(l, _)| *l == s.lane).unwrap();
            trace.span(
                process,
                track,
                s.label,
                "minidl",
                s.start_ns,
                s.end_ns.saturating_sub(s.start_ns),
                vec![("iteration", Arg::from(s.iteration))],
            );
        }
        for c in &self.counters {
            trace.counter(process, c.name, c.name, c.ts_ns, c.value);
        }
    }

    /// This rank's measured timeline as a standalone [`Trace`] (render
    /// with [`Trace::to_json`] for `chrome://tracing` / ui.perfetto.dev).
    pub fn trace(&self, process: &str) -> Trace {
        let mut t = Trace::new();
        self.trace_into(&mut t, process);
        t
    }
}

/// Canonical lane order and display names (also the tid order of the
/// exported tracks).
const LANE_NAMES: [(ExecLane, &str); 4] = [
    (ExecLane::Compute, "compute"),
    (ExecLane::Gather, "gather"),
    (ExecLane::Reduce, "reduce"),
    (ExecLane::Control, "control"),
];

/// Wall-clock recorder for one rank: the [`LaneStats`] being measured plus
/// their epoch, which is `Copy` so that submitted collectives capture it
/// into their progress-thread closures and report on the same clock.
#[derive(Debug)]
pub(crate) struct SpanRecorder {
    epoch: Instant,
    /// The iteration new spans are stamped with.
    iteration: usize,
    stats: LaneStats,
}

impl SpanRecorder {
    fn new(iteration: usize) -> Self {
        SpanRecorder { epoch: Instant::now(), iteration, stats: LaneStats::default() }
    }

    /// Nanoseconds since the epoch.
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn push(&mut self, lane: ExecLane, label: &'static str, start_ns: u64, end_ns: u64) {
        self.stats.spans.push(LaneSpan {
            lane,
            label,
            iteration: self.iteration,
            start_ns,
            end_ns,
        });
    }

    /// Record a span that began at `start_ns` and ends now.
    fn close(&mut self, lane: ExecLane, label: &'static str, start_ns: u64) {
        self.push(lane, label, start_ns, self.now_ns());
    }

    /// Record a cumulative counter sample stamped now.
    fn sample(&mut self, name: &'static str, value: f64) {
        let ts_ns = self.now_ns();
        self.stats.counters.push(CounterSample { name, ts_ns, value });
    }

    fn finish(mut self) -> LaneStats {
        self.stats.wall_ns = self.now_ns();
        self.stats
    }
}

/// Where in the run a [`StepCompute`] call sits.
#[derive(Debug, Clone, Copy)]
pub struct MicroStep {
    /// Training iteration.
    pub iteration: usize,
    /// Micro-step within the iteration.
    pub micro: usize,
    /// Pipeline stage of the calling rank (`0` for a flat model).
    pub stage: usize,
    /// Data-parallel index within the stage (the world rank at `pp = 1`).
    pub rank: usize,
}

/// What one backward pass over one stage produces.
#[derive(Debug)]
pub struct StageGrad {
    /// This micro-step's loss (exactly `0.0` on every stage but the last).
    pub loss: f32,
    /// Gradient of the stage's parameters, in their layout.
    pub grad: Vec<f32>,
    /// Gradient w.r.t. the stage input (`None` on stage 0).
    pub dinput: Option<Vec<f32>>,
}

/// The part of a training step that differs per model: the transformer's
/// pipeline stages (`lm::LmStages`) in every training entry point, or any
/// `Fn(params, iteration, micro_step, rank) → (loss, grad)` closure as a
/// one-stage model. A pipelined model splits its parameters with
/// [`StepCompute::stages`].
pub trait StepCompute: Sync {
    /// Per-rank scratch carried from a micro-step's forward to its backward.
    type Saved: Default;

    /// The parameter range each pipeline stage owns, in stage order.
    fn stages(&self, numel: usize) -> Vec<Range<usize>> {
        std::iter::once(0..numel).collect()
    }

    /// Bytes of the largest stage-boundary tensor, which the IR's
    /// `StageSend` ops are costed at.
    fn act_bytes(&self) -> u64 {
        0
    }

    /// Forward one micro-batch through a stage: from the previous stage's
    /// activation (`None` on stage 0) to the next's (`None` on the last).
    fn forward(
        &self,
        saved: &mut Self::Saved,
        params: &[f32],
        at: MicroStep,
        input: Option<Vec<f32>>,
    ) -> Option<Vec<f32>>;

    /// Backward the same micro-batch, from the next stage's input gradient
    /// (`None` on the last stage, which owns the loss head).
    fn backward(
        &self,
        saved: &mut Self::Saved,
        params: &[f32],
        at: MicroStep,
        dout: Option<Vec<f32>>,
    ) -> StageGrad;
}

/// The closure computes loss and gradient in one call: the forward op runs
/// it, the backward op hands the result over.
impl<F> StepCompute for F
where
    F: Fn(&[f32], usize, usize, usize) -> (f32, Vec<f32>) + Sync,
{
    type Saved = Option<(f32, Vec<f32>)>;

    fn forward(
        &self,
        saved: &mut Self::Saved,
        params: &[f32],
        at: MicroStep,
        _input: Option<Vec<f32>>,
    ) -> Option<Vec<f32>> {
        *saved = Some(self(params, at.iteration, at.micro, at.rank));
        None
    }

    fn backward(
        &self,
        saved: &mut Self::Saved,
        _params: &[f32],
        _at: MicroStep,
        _dout: Option<Vec<f32>>,
    ) -> StageGrad {
        let (loss, grad) = saved.take().expect("backward before forward");
        StageGrad { loss, grad, dinput: None }
    }
}

/// The rank-independent inputs of a run, validated and lowered once by
/// [`crate::train::TrainRun`] and shared by every rank's [`Executor`].
pub(crate) struct Plan<'a> {
    pub(crate) hp: &'a ScheduleHyper,
    /// The one lowering of the step — the IR the simulator backend costs.
    /// Its emitter owns all wire decisions: which collectives exist
    /// (single-rank groups fold locally) and which carry a codec.
    pub(crate) prog: StepProgram,
    /// Parameter range per pipeline stage.
    pub(crate) stages: Vec<Range<usize>>,
    /// Full starting parameters (the checkpoint's, when resuming).
    pub(crate) init: &'a [f32],
    pub(crate) resume: Option<&'a TrainCheckpoint>,
    pub(crate) start_iter: usize,
    pub(crate) checkpoint: Option<(usize, &'a CheckpointSink)>,
}

/// A wire op's result plus its span (ns since the [`SpanRecorder`] epoch).
type TimedVec = (Vec<f32>, u64, u64);

/// Where a wire op's result lands — which also says when the walker needs
/// it, and so which thread runs the op (see `Executor::issue`).
#[derive(Clone, Copy)]
enum Then {
    /// A micro-step reduction, added to the accumulation at a retire point.
    Fold,
    /// The gathered forward parameters, landed at a retire point.
    Params,
    /// A boundary reduction: the total gradient, for the very next op.
    Total,
    /// A boundary tensor from the adjacent stage, for the very next op.
    Inbox(Pass),
    /// A boundary send: nothing lands and no span is recorded. It must
    /// never block this rank — 1F1B would deadlock on the receiver.
    Sent,
}

/// An issued wire op, as its settle point needs to know it.
struct Issued {
    op_id: usize,
    /// Span name, and the op kind a failure names.
    label: &'static str,
    lane: ExecLane,
    then: Then,
    /// Compute ops executed at issue; more by settle time means overlap.
    computes_at_issue: u64,
}

/// Walker state that lives for one iteration.
#[derive(Default)]
struct StepState {
    /// Accumulated gradient of this rank's shard (the total, once a
    /// boundary reduction landed), and accumulated loss.
    accum: Vec<f32>,
    loss: f32,
    /// The stage's materialized forward parameters, and the in-flight
    /// micro-step gradient.
    params: Option<Vec<f32>>,
    grad: Option<Vec<f32>>,
    /// Boundary tensors by [`dir`]: received, awaiting their compute;
    /// produced, awaiting their send. Single-slot because the emitter keeps
    /// each stage action's ops contiguous.
    inbox: [Option<Vec<f32>>; 2],
    outbox: [Option<Vec<f32>>; 2],
}

/// Index of a pass in the per-direction arrays — also the broadcast root on
/// a pair communicator, whose split key puts the lower stage at rank 0.
fn dir(pass: Pass) -> usize {
    (pass == Pass::Backward) as usize
}

fn cast_params(src: &[f32], quantize: bool) -> Vec<f32> {
    if quantize {
        src.iter().map(|&x| quantize_f16(x)).collect()
    } else {
        src.to_vec()
    }
}

fn add_into(acc: &mut [f32], x: &[f32]) {
    debug_assert_eq!(acc.len(), x.len());
    for (a, b) in acc.iter_mut().zip(x.iter()) {
        *a += *b;
    }
}

fn pad_to(mut v: Vec<f32>, len: usize) -> Vec<f32> {
    debug_assert!(v.len() <= len);
    v.resize(len, 0.0);
    v
}

/// One rank's executor: see the module docs.
pub(crate) struct Executor<'a, C: StepCompute> {
    plan: &'a Plan<'a>,
    compute: &'a C,
    saved: C::Saved,
    /// Pipeline stage, and dp index within it.
    stage: usize,
    d: usize,
    world: Communicator,
    /// This stage's dp ranks, keyed in `d` order — the IR's `All { stage }`
    /// group. `None` at `pp = 1`, where the stage *is* the world.
    stage_comm: Option<Communicator>,
    /// Partition group: `p` consecutive dp ranks. Replication group: dp
    /// ranks with equal partition-local rank (Figure 2).
    part: Communicator,
    repl: Communicator,
    /// `pairs[dir][boundary]`, for the boundaries this rank sits on. The
    /// sender submits to the comm's progress thread, the receiver blocks
    /// on its rank thread; each side drives the comm from one thread in
    /// emission order, so the SPMD contract holds per communicator.
    pairs: [Vec<Option<Communicator>>; 2],
    /// The stage's sharding over the partition group, and this rank's fp32
    /// master shard.
    spec: ShardSpec,
    owned: Vec<f32>,
    opt: Adam,
    scaler: ScalerState,
    rec: SpanRecorder,
    /// Submitted ops awaiting a retire point, in issue order; and submitted
    /// sends, which only the end of the iteration waits for.
    in_flight: VecDeque<(Issued, CollectiveHandle<TimedVec>)>,
    sends: Vec<(Issued, CollectiveHandle<TimedVec>)>,
    /// Gathered parameters, double-buffered: this iteration's and the next's.
    pool: GatherBuffers,
    /// The gather op last issued, which the prefetch re-issues (every gather
    /// in a program shares its scheme).
    gather_op: Option<usize>,
    prefetching: bool,
    computes_done: u64,
    st: StepState,
    losses: Vec<f32>,
    wire_log: Vec<usize>,
}

impl<'a, C: StepCompute> Executor<'a, C> {
    pub(crate) fn new(mut world: Communicator, plan: &'a Plan<'a>, compute: &'a C) -> Self {
        let (hp, geo) = (plan.hp, plan.prog.geo);
        let rank = world.rank();
        let (stage, d) = (geo.stage_of(Rank(rank)), geo.dp_index(Rank(rank)));
        let mut stage_comm = (geo.pp > 1).then(|| world.split(stage as i64, rank as i64));
        let within = stage_comm.as_mut().unwrap_or(&mut world);
        let part = within.split((d / geo.p) as i64, d as i64);
        let repl = within.split((d % geo.p) as i64, d as i64);
        // Non-members split into throwaway solo groups (split is collective).
        let mut pair_comms = || -> Vec<Option<Communicator>> {
            (0..geo.pp - 1)
                .map(|lv| {
                    let member = stage == lv || stage == lv + 1;
                    let color = if member { d as i64 } else { -(1 + rank as i64) };
                    let c = world.split(color, rank as i64);
                    member.then_some(c)
                })
                .collect()
        };
        let pairs = [pair_comms(), pair_comms()];

        // Parameter and optimizer state: fresh, or rebuilt (and re-sharded
        // to this run's shape) from the checkpoint.
        let range = plan.stages[stage].clone();
        let spec = ShardSpec::new(range.len(), geo.p);
        let local = part.rank();
        let shard = |full: &[f32]| spec.extract_padded(&full[range.clone()], local);
        let (opt, scaler) = match plan.resume {
            None => (Adam::new(spec.shard_len(), hp.lr), ScalerState::new(hp.loss_scale)),
            Some(c) => (
                Adam::from_state(shard(&c.state.m), shard(&c.state.v), c.state.step, hp.lr),
                ScalerState::resume(hp.loss_scale, c.scaler),
            ),
        };
        Executor {
            plan,
            compute,
            saved: C::Saved::default(),
            stage,
            d,
            owned: shard(plan.init),
            world,
            stage_comm,
            part,
            repl,
            pairs,
            spec,
            opt,
            scaler,
            rec: SpanRecorder::new(plan.start_iter),
            in_flight: VecDeque::new(),
            sends: Vec::new(),
            pool: GatherBuffers::new(spec.padded_len(), 2),
            gather_op: None,
            prefetching: false,
            computes_done: 0,
            st: StepState::default(),
            losses: Vec::with_capacity(hp.iterations - plan.start_iter),
            wire_log: Vec::new(),
        }
    }

    /// Run every remaining iteration and assemble this rank's outcome.
    pub(crate) fn run(mut self) -> TrainOutcome {
        let (plan, geo) = (self.plan, self.plan.prog.geo);
        for iter in plan.start_iter..plan.hp.iterations {
            self.iteration(iter);
        }
        // A snapshot may also be requested at the very end of the run.
        self.rec.iteration = plan.hp.iterations;
        self.capture();

        // Materialize the full parameters: the partition group reassembles
        // its stage, then every rank contributes it padded to the widest
        // stage and each stage's d = 0 copy is taken (dp copies are equal).
        let all_gather = |ex: &Self, comm: &Communicator, x: &[f32]| {
            comm.try_all_gather(x, None).unwrap_or_else(|e| ex.abort("final-gather", None, e))
        };
        let mut final_params = std::mem::take(&mut self.owned);
        if geo.p > 1 {
            final_params = all_gather(&self, &self.part, &final_params);
            final_params.truncate(self.spec.numel());
        }
        if geo.pp > 1 {
            let max_len = plan.stages.iter().map(|r| r.len()).max().expect("pp ≥ 1");
            let gathered = all_gather(&self, &self.world, &pad_to(final_params, max_len));
            final_params = Vec::with_capacity(plan.init.len());
            for (s, range) in plan.stages.iter().enumerate() {
                let off = s * geo.dp * max_len;
                final_params.extend_from_slice(&gathered[off..off + range.len()]);
            }
        }
        // Deterministic shutdown: join any comm-progress threads before the
        // communicators unwind.
        let scoped = self.pairs.iter_mut().flatten().flatten().chain(&mut self.stage_comm);
        for c in scoped.chain([&mut self.part, &mut self.repl, &mut self.world]) {
            c.quiesce();
        }
        TrainOutcome {
            losses: self.losses,
            final_params,
            skipped_steps: self.scaler.skipped_steps(),
            final_loss_scale: self.scaler.scale(),
            wire_ops: self.wire_log,
            lane_stats: self.rec.finish(),
        }
    }

    /// Walk the program once — the single place ops meet communicators.
    fn iteration(&mut self, iter: usize) {
        let (plan, me) = (self.plan, Rank(self.world.rank()));
        let (hp, prog, geo) = (plan.hp, &plan.prog, plan.prog.geo);
        self.rec.iteration = iter;
        self.capture();
        let log_wire = iter == plan.start_iter;
        let cur_scale = self.scaler.scale();
        self.st = StepState { accum: vec![0.0; self.spec.shard_len()], ..StepState::default() };

        for (op_id, op) in prog.ops.iter().enumerate() {
            if prog.wire_of(op_id).is_some() {
                if !prog.executes_wire(op_id, me) {
                    continue;
                }
                if log_wire {
                    self.wire_log.push(op_id);
                }
            }
            match &op.kind {
                // Collectives already rendezvous, so the barrier is purely
                // a drain, as in the sim — which keeps the ZeRO-3
                // schedule's reductions serialized (§3.4) at every depth.
                OpKind::MicroBarrier => self.retire(),
                OpKind::GatherShards { wire, .. } => {
                    // The master weights do not change within an iteration,
                    // so one materialization — prefetched after the
                    // previous optimizer step, or gathered now — serves
                    // every gather op: MiCS's cached decisions (§4).
                    if self.st.params.is_none() {
                        if !std::mem::take(&mut self.prefetching) {
                            self.gather(op_id, wire, "gather");
                        }
                        self.retire();
                    }
                }
                OpKind::Compute { layer, pass, .. } => {
                    if geo.stage_of_layer(*layer, prog.num_layers) != self.stage {
                        continue;
                    }
                    let (micro, stage) = (op.micro, self.stage);
                    let at = MicroStep { iteration: iter, micro, stage, rank: self.d };
                    if *pass == Pass::Forward {
                        // No gather reached this rank (p = 1): it owns the stage.
                        let params = self
                            .st
                            .params
                            .get_or_insert_with(|| cast_params(&self.owned, hp.quantize));
                        let input = self.st.inbox[0].take();
                        let start_ns = self.rec.now_ns();
                        self.st.outbox[0] =
                            self.compute.forward(&mut self.saved, params, at, input);
                        self.rec.close(ExecLane::Compute, "fwd", start_ns);
                    } else {
                        // The WAR edge from a micro-step's reduce batch to
                        // the next backward: in-flight reductions own the
                        // gradient buffer until here, and overlapped all
                        // that ran since their issue — notably this forward.
                        self.retire();
                        let params = self.st.params.as_deref().expect("backward before forward");
                        let dout = self.st.inbox[1].take();
                        let start_ns = self.rec.now_ns();
                        let mut out = self.compute.backward(&mut self.saved, params, at, dout);
                        assert_eq!(out.grad.len(), self.spec.numel(), "wrong-sized gradient");
                        if cur_scale != 1.0 {
                            // Backward on the scaled loss.
                            for g in &mut out.grad {
                                *g *= cur_scale;
                            }
                        }
                        self.rec.close(ExecLane::Compute, "bwd", start_ns);
                        self.st.loss += out.loss;
                        self.st.grad = Some(out.grad);
                        self.st.outbox[1] = out.dinput;
                    }
                    self.computes_done += 1;
                }
                OpKind::AccumGrads { .. } => {
                    // No wire annotation: ownership follows the backward
                    // compute this op drains.
                    let OpKind::Compute { layer, .. } = prog.ops[op.deps[0]].kind else {
                        unreachable!("accumulate must depend on a backward compute")
                    };
                    if geo.stage_of_layer(layer, prog.num_layers) == self.stage {
                        let g = self.take_grad();
                        let mine = self.spec.range(self.part.rank());
                        add_into(&mut self.st.accum[..mine.len()], &g[mine]);
                    }
                }
                OpKind::ReduceScatterGrads { source: GradSource::MicroGrad, wire, .. } => {
                    // Hop 1: reduce-scatter within the partition group (the
                    // qgZ direction when quantized). At depth ≥ 1 the next
                    // micro-step's forward overlaps it (§4).
                    let padded = pad_to(self.take_grad(), self.spec.padded_len());
                    let scheme = wire.scheme;
                    self.issue(op_id, wire, "grad-reduce", Then::Fold, move |c| {
                        c.try_reduce_scatter(&padded, scheme)
                    });
                }
                OpKind::AllReduceGrads { source: GradSource::MicroGrad, wire, .. } => {
                    // Global synchronization every micro-step — the cost
                    // §3.4 calls redundant. The next op is a micro barrier
                    // (or the optimizer), so it stays serialized even when
                    // submitted — exactly what the sim charges.
                    let g = self.take_grad();
                    let (scheme, spec, local) = (wire.scheme, self.spec, self.part.rank());
                    self.issue(op_id, wire, "grad-reduce", Then::Fold, move |c| {
                        Ok(spec.extract_padded(&c.try_all_reduce(&g, scheme)?, local))
                    });
                }
                // DDP's boundary all-reduce, and MiCS hop 2 across the
                // replication group. Both read the accumulation, so in-flight
                // reductions retire first — the hazard the IR leaves
                // implicit; see [`overlappable_wire_ops`].
                OpKind::AllReduceGrads { source: GradSource::Accum, wire, .. }
                | OpKind::CrossGroupAllReduce { wire, .. } => {
                    self.retire();
                    let accum = std::mem::take(&mut self.st.accum);
                    let hop2 = matches!(op.kind, OpKind::CrossGroupAllReduce { .. });
                    let (label, scheme) = (if hop2 { "hop2" } else { "grad-reduce" }, wire.scheme);
                    self.issue(op_id, wire, label, Then::Total, move |c| {
                        c.try_all_reduce(&accum, scheme)
                    });
                }
                OpKind::OptimizerUpdate { .. } => self.optimizer_update(cur_scale),
                OpKind::StageRecv { pass, wire, .. } => {
                    let root = dir(*pass);
                    self.issue(op_id, wire, "stage-recv", Then::Inbox(*pass), move |c| {
                        c.try_broadcast(root, &[])
                    });
                }
                OpKind::StageSend { pass, wire, .. } => {
                    let root = dir(*pass);
                    let data = self.st.outbox[root].take().expect("stage send before its compute");
                    self.issue(op_id, wire, "stage-send", Then::Sent, move |c| {
                        c.try_broadcast(root, &data)
                    });
                }
                OpKind::ReduceScatterGrads { source: GradSource::Accum, .. }
                | OpKind::ParamRefresh { .. } => {
                    unreachable!("ZeRO-1/2 boundary ops are not a minidl schedule")
                }
            }
        }

        // Every send was consumed by its blocking receiver, so these waits
        // only surface errors and bound the submission queue.
        for (tag, handle) in std::mem::take(&mut self.sends) {
            let done = handle.wait();
            self.settle(tag, done);
        }
        debug_assert!(self.st.inbox.iter().all(Option::is_none) && self.st.grad.is_none());

        // Cross-iteration gather prefetch — the one overlap the
        // single-virtual-layer program cannot express as an edge. The next
        // forward's parameters exist the moment the optimizer ran: gather
        // them on the partition group's progress thread, into the other
        // half of the double buffer.
        let ahead = hp.prefetch_depth >= 1 && iter + 1 < hp.iterations;
        if let Some(id) = self.gather_op.filter(|_| ahead) {
            self.gather(id, prog.wire_of(id).expect("a gather op"), "gather-prefetch");
            self.prefetching = true;
            self.rec.stats.prefetched_gathers += 1;
            self.rec.sample("prefetched gathers (cum)", self.rec.stats.prefetched_gathers as f64);
        }

        // Retire this iteration's gathered parameters into the pool.
        if let Some(buf) = self.st.params.take().filter(|_| self.gather_op.is_some()) {
            self.pool.checkin(buf);
        }
    }

    fn take_grad(&mut self) -> Vec<f32> {
        self.st.grad.take().expect("gradient consumed before its backward")
    }

    /// Cast the fp32 master shard down and all-gather it within the partition
    /// group — what MiCS and ZeRO-3 both do before forward.
    fn gather(&mut self, op_id: usize, wire: &WireOp, label: &'static str) {
        let cast = cast_params(&self.owned, self.plan.hp.quantize);
        let mut buf = self.pool.checkout();
        let scheme = wire.scheme;
        self.gather_op = Some(op_id);
        self.issue(op_id, wire, label, Then::Params, move |c| {
            c.try_all_gather_into(&cast, scheme, &mut buf)?;
            Ok(buf)
        });
    }

    fn optimizer_update(&mut self, cur_scale: f32) {
        let (hp, geo) = (self.plan.hp, self.plan.prog.geo);
        // The update reads the accumulation.
        self.retire();
        // Already the total if no boundary collective ran (solo groups).
        let total = std::mem::take(&mut self.st.accum);
        let scale = 1.0 / (hp.accum_steps as f32 * geo.dp as f32);
        let inv = scale / cur_scale;
        let mut scaled: Vec<f32> = total.iter().map(|&g| g * inv).collect();
        // One control all-reduce over the world, each element folded alone
        // in rank order (so each sum has a scalar all-reduce's bits): the
        // loss, to which the non-last stages contribute exact zeros; the
        // overflow flag, from every rank's check of its portion, so all
        // ranks skip (or apply) the step together; and the clip norm's sum
        // of squares.
        let overflow = if has_overflow(&total) { 1.0 } else { 0.0 };
        let sumsq: f32 = match hp.clip_grad_norm {
            Some(_) => scaled.iter().map(|g| g * g).sum(),
            None => 0.0,
        };
        let start_ns = self.rec.now_ns();
        let sums = self
            .world
            .try_all_reduce(&[self.st.loss, overflow, sumsq], None)
            .unwrap_or_else(|e| self.abort("control-sync", None, e));
        self.rec.close(ExecLane::Control, "control-sync", start_ns);
        self.losses.push(sums[0] * scale);
        if !self.scaler.update(sums[1] > 0.0) {
            return;
        }
        if let Some(max_norm) = hp.clip_grad_norm {
            // Global L2 norm: each gradient shard is held once per partition
            // group of its stage, so divide the world's sum of squares.
            let copies = (geo.dp / geo.p) as f32;
            let norm = (sums[2] / copies).sqrt();
            if norm > max_norm {
                let coef = max_norm / (norm + 1e-6);
                for g in &mut scaled {
                    *g *= coef;
                }
            }
        }
        let step_ns = self.rec.now_ns();
        self.opt.step(&mut self.owned, &scaled);
        self.rec.close(ExecLane::Compute, "optimizer", step_ns);
    }

    /// Deposit this rank's shard of a snapshot due now: each stage's
    /// partition group 0 holds one full replica of the stage between its
    /// ranks.
    fn capture(&self) {
        let due = self.plan.checkpoint.filter(|&(at, _)| at == self.rec.iteration);
        if let Some((at, sink)) = due.filter(|_| self.d < self.spec.shards()) {
            let state = TrainState::capture(&self.owned, &self.opt);
            let (key, stages) = ((self.stage, self.part.rank()), self.plan.stages.len());
            sink.deposit(key, stages, self.spec, state, at, self.scaler.snapshot());
        }
    }

    /// The communicator that realizes an IR group for this rank.
    fn comm_of(&mut self, group: &GroupRef) -> &mut Communicator {
        let geo = self.plan.prog.geo;
        match *group {
            GroupRef::Partition { .. } => &mut self.part,
            GroupRef::Replication { .. } => &mut self.repl,
            GroupRef::All { .. } => self.stage_comm.as_mut().unwrap_or(&mut self.world),
            GroupRef::Pair { from, to } => {
                let (a, b) = (geo.stage_of(from), geo.stage_of(to));
                self.pairs[(a > b) as usize][a.min(b)].as_mut().expect("rank is on the boundary")
            }
        }
    }

    /// The one place a wire op meets a communicator. An op the walker needs
    /// before its next one runs on the calling thread and settles at once
    /// (a progress-thread hop could overlap nothing); one that lands at a
    /// retire point does the same at depth 0 and is submitted at depth ≥ 1;
    /// a send is always submitted.
    fn issue<F>(&mut self, op_id: usize, wire: &WireOp, label: &'static str, then: Then, op: F)
    where
        F: FnOnce(&Communicator) -> Result<Vec<f32>, CommError> + Send + 'static,
    {
        let lane = match wire.lane {
            Lane::Gather => ExecLane::Gather,
            Lane::Reduce => ExecLane::Reduce,
        };
        let tag = Issued { op_id, label, lane, then, computes_at_issue: self.computes_done };
        let epoch = self.rec.epoch;
        let timed = move |c: &Communicator| {
            let start_ns = epoch.elapsed().as_nanos() as u64;
            let v = op(c)?;
            Ok((v, start_ns, epoch.elapsed().as_nanos() as u64))
        };
        let overlap = self.plan.hp.prefetch_depth >= 1;
        let comm = self.comm_of(&wire.group);
        match then {
            Then::Sent => {
                let handle = comm.start_collective(timed);
                self.sends.push((tag, handle));
            }
            Then::Fold | Then::Params if overlap => {
                let handle = comm.start_collective(timed);
                self.in_flight.push_back((tag, handle));
            }
            _ => {
                let done = timed(comm);
                self.settle(tag, done);
            }
        }
    }

    /// Settle every submitted op in issue order — the summation order of
    /// depth 0, so accumulation stays bit-identical.
    fn retire(&mut self) {
        while let Some((tag, handle)) = self.in_flight.pop_front() {
            let done = handle.wait();
            self.settle(tag, done);
        }
    }

    /// Land a finished wire op: the executor's single failure site, span
    /// record and fold point.
    fn settle(&mut self, tag: Issued, done: Result<TimedVec, CommError>) {
        let (mut v, start_ns, end_ns) =
            done.unwrap_or_else(|e| self.abort(tag.label, Some(tag.op_id), e));
        if !matches!(tag.then, Then::Sent) {
            self.rec.push(tag.lane, tag.label, start_ns, end_ns);
        }
        match tag.then {
            Then::Fold => {
                let first = self.rec.iteration == self.plan.start_iter;
                if first && self.computes_done > tag.computes_at_issue {
                    self.rec.stats.deferred_wire_ops.push(tag.op_id);
                    let total = self.rec.stats.deferred_wire_ops.len();
                    self.rec.sample("deferred reduces (cum)", total as f64);
                }
                add_into(&mut self.st.accum, &v);
            }
            Then::Total => self.st.accum = v,
            Then::Params => {
                v.truncate(self.spec.numel());
                self.st.params = Some(v);
            }
            Then::Inbox(pass) => self.st.inbox[dir(pass)] = Some(v),
            Then::Sent => {}
        }
    }

    /// Every collective failure ends here, with the ids trace events carry.
    fn abort(&self, label: &str, op_id: Option<usize>, e: CommError) -> ! {
        let (rank, iter) = (self.world.rank(), self.rec.iteration);
        let op = op_id.map_or("-".to_string(), |id| id.to_string());
        panic!("rank {rank} iteration {iter} op {op} ({label}): collective aborted: {e}")
    }
}

/// Static overlap analysis of a [`StepProgram`]: the wire ops that admit at
/// least one compute op between their position and their first blocker in
/// program order.
///
/// A later op *blocks* wire op `i` when any of these hold:
///
/// * it lists `i` in its `deps` (this is how the emitter encodes the WAR
///   hazard from a reduce batch to the next micro-step's backward compute);
/// * it is a [`OpKind::MicroBarrier`] — the executor drains all in-flight
///   work there, exactly as `execute_on_sim` makes every stream wait;
/// * `i` folds into the accumulated gradient (a micro-step reduce) and the
///   later op *reads* the accumulation — a boundary collective or the
///   optimizer update. This hazard is implicit in the IR (the emitters
///   leave e.g. `CrossGroupAllReduce.deps` empty because the sim serializes
///   it through the reduce lane), so the analysis must model it explicitly.
///
/// The executor issues micro-step reduces asynchronously and drains at
/// precisely these blockers, so the set returned here must equal the set of
/// ops it observes retiring after intervening compute
/// ([`LaneStats::deferred_wire_ops`], filtered to the ops whose group
/// contains the observing rank). The cross-check test in `tests/overlap.rs`
/// holds the two implementations to that.
pub fn overlappable_wire_ops(prog: &StepProgram) -> BTreeSet<usize> {
    let mut out = BTreeSet::new();
    for (i, op) in prog.ops.iter().enumerate() {
        let is_wire = matches!(
            op.kind,
            OpKind::GatherShards { .. }
                | OpKind::ReduceScatterGrads { .. }
                | OpKind::AllReduceGrads { .. }
                | OpKind::CrossGroupAllReduce { .. }
                | OpKind::ParamRefresh { .. }
        );
        if !is_wire {
            continue;
        }
        let folds_into_accum = matches!(
            op.kind,
            OpKind::ReduceScatterGrads { source: GradSource::MicroGrad, .. }
                | OpKind::AllReduceGrads { source: GradSource::MicroGrad, .. }
        );
        // Count compute ops strictly between `i` and its first blocker;
        // end-of-program is as much a drain point as an explicit blocker.
        let mut computes_between = 0usize;
        for later in prog.ops.iter().skip(i + 1) {
            let reads_accum = matches!(
                later.kind,
                OpKind::CrossGroupAllReduce { .. }
                    | OpKind::AllReduceGrads { source: GradSource::Accum, .. }
                    | OpKind::OptimizerUpdate { .. }
            );
            if later.deps.contains(&i)
                || matches!(later.kind, OpKind::MicroBarrier)
                || (folds_into_accum && reads_accum)
            {
                break;
            }
            if matches!(later.kind, OpKind::Compute { .. }) {
                computes_between += 1;
            }
        }
        if computes_between > 0 {
            out.insert(i);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(spans: Vec<LaneSpan>) -> LaneStats {
        LaneStats { spans, wall_ns: 100, ..LaneStats::default() }
    }

    fn span(lane: ExecLane, start_ns: u64, end_ns: u64) -> LaneSpan {
        LaneSpan { lane, label: "t", iteration: 0, start_ns, end_ns }
    }

    #[test]
    fn overlap_is_the_intersection_with_merged_compute() {
        let s = stats(vec![
            span(ExecLane::Compute, 0, 10),
            span(ExecLane::Compute, 5, 20), // overlapping compute spans merge
            span(ExecLane::Reduce, 15, 30), // 5 ns under compute
            span(ExecLane::Gather, 18, 19), // 1 ns under compute
            span(ExecLane::Control, 0, 50), // control never counts
        ]);
        assert_eq!(s.busy_ns(ExecLane::Compute), 25);
        assert_eq!(s.comm_busy_ns(), 16);
        assert_eq!(s.overlap_ns(), 6);
        assert!((s.overlap_fraction() - 6.0 / 16.0).abs() < 1e-12);
    }

    #[test]
    fn no_comm_means_zero_overlap_fraction() {
        let s = stats(vec![span(ExecLane::Compute, 0, 10)]);
        assert_eq!(s.overlap_fraction(), 0.0);
    }

    #[test]
    fn fully_serial_lanes_report_zero_overlap() {
        let s = stats(vec![span(ExecLane::Compute, 0, 10), span(ExecLane::Reduce, 10, 20)]);
        assert_eq!(s.overlap_ns(), 0);
    }

    #[test]
    fn trace_export_is_trace_event_shaped() {
        let mut s =
            stats(vec![span(ExecLane::Compute, 1_000, 3_000), span(ExecLane::Reduce, 0, 500)]);
        s.counters.push(CounterSample { name: "deferred reduces (cum)", ts_ns: 600, value: 1.0 });
        let json = s.trace("real \"backend\"").to_json();
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.ends_with("]}"));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"ts\":1")); // ns → µs
        assert!(json.contains("\"dur\":2"));
        assert!(json.contains("\"args\":{\"name\":\"reduce\"}"), "lane tracks are named");
        assert!(json.contains("real \\\"backend\\\""), "process name escaped");
        assert!(json.contains("lane occupancy (compute)"), "occupancy counters derived");
        assert!(json.contains("deferred reduces (cum)"), "engine counter samples exported");
        assert!(json.contains("\"ph\":\"C\""));
        assert!(json.contains("\"args\":{\"iteration\":0}"));
    }

    #[test]
    fn merged_trace_keeps_processes_separate() {
        // Splicing the measured timeline after a sim trace puts it under
        // its own pid — the side-by-side fidelity view.
        let s = stats(vec![span(ExecLane::Compute, 0, 10)]);
        let mut merged = Trace::new();
        merged.span("simulator (charged)", "compute[0]", "compute", "sim", 0, 10, vec![]);
        s.trace_into(&mut merged, "real backend (measured)");
        assert_eq!(merged.processes(), vec!["simulator (charged)", "real backend (measured)"]);
        let json = merged.to_json();
        assert!(json.contains("\"pid\":1"), "measured events live under their own pid: {json}");
    }

    #[test]
    fn occupancy_counter_handles_back_to_back_spans() {
        let s = stats(vec![span(ExecLane::Gather, 0, 10), span(ExecLane::Gather, 10, 20)]);
        let t = s.trace("p");
        let values: Vec<f64> = t
            .events
            .iter()
            .filter_map(|e| match e.kind {
                mics_trace::EventKind::Counter { value } if e.name.contains("gather") => {
                    Some(value)
                }
                _ => None,
            })
            .collect();
        assert_eq!(values, vec![1.0, 0.0, 1.0, 0.0], "no spurious depth-2 sample");
    }
}

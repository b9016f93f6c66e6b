//! Data-parallel training over the real data plane, under the three
//! gradient-synchronization schedules the paper compares (§3.4, §5.4).
//!
//! Each run lowers its schedule to the same [`StepProgram`] the simulator
//! backend costs (see [`step_program`] and `mics-core::schedule`), and every
//! rank's [`crate::executor`] walks that program each iteration, executing
//! the ops whose group contains it over real `mics-dataplane` communicators.
//! The codec annotations on the ops say which collectives compress, so no
//! schedule-specific wire logic lives here — the fidelity claim is
//! structural: the dataplane executes the op sequence the simulator prices.
//!
//! [`TrainRun`] is the one way to start a run, for any [`StepCompute`]
//! model; [`train_pipeline`] and [`train_elastic_on`] call it for the
//! transformer's stages (`lm::LmStages`), and
//! [`crate::lm::train_lm_on`] is [`train_pipeline`] at one stage.

use crate::checkpoint::TrainState;
use crate::executor::{Executor, LaneStats, Plan, StepCompute};
use crate::lm::LmStages;
use crate::scaler::{LossScale, ScalerSnapshot};
use crate::transformer::TinyTransformer;
use mics_compress::CompressionConfig;
use mics_core::config::MicroSync;
use mics_core::schedule::{
    reshape, Geometry, LayerSchedule, PipelineSpec, ScheduleSpec, StepProgram,
};
use mics_dataplane::{run_ranks_on, TransportKind};
use mics_simnet::SimTime;
use mics_tensor::ShardSpec;
use std::sync::Mutex;

/// Which gradient-synchronization schedule to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncSchedule {
    /// Classic data parallelism: full model replica per rank, one global
    /// all-reduce at the gradient-accumulation boundary.
    Ddp,
    /// DeepSpeed ZeRO-3's default — the "alternative schedule" of §3.4:
    /// every micro-step all-reduces gradients across **all** devices, then
    /// each device keeps only its shard.
    PerMicroStepAllReduce,
    /// MiCS 2-hop (§3.4): every micro-step reduce-scatters within the
    /// partition group; at the accumulation boundary an all-reduce runs
    /// across the replication group.
    TwoHop,
}

/// Configuration of a fidelity training run of the transformer on the
/// token chain of [`crate::lm::token_batch`].
#[derive(Debug, Clone)]
pub struct TrainSetup {
    /// The model being trained.
    pub model: TinyTransformer,
    /// Number of data-parallel ranks (`n`).
    pub world: usize,
    /// Partition group size (`p`). Must divide `world`. Ignored by
    /// [`SyncSchedule::Ddp`].
    pub partition_size: usize,
    /// Sequences per rank per micro-step.
    pub micro_batch: usize,
    /// Micro-steps per iteration (`s`, the gradient-accumulation depth).
    pub accum_steps: usize,
    /// Training iterations (optimizer steps).
    pub iterations: usize,
    /// Adam learning rate.
    pub lr: f32,
    /// Seed for initialization and data.
    pub seed: u64,
    /// Emulate mixed precision: forward/backward on f16-quantized parameter
    /// copies, fp32 master weights and optimizer states.
    pub quantize: bool,
    /// Loss-scaling policy (mixed-precision stacks use dynamic scaling).
    pub loss_scale: LossScale,
    /// Clip gradients to this global L2 norm before the optimizer step.
    pub clip_grad_norm: Option<f32>,
    /// ZeRO++-style quantized communication: weight gathers and/or gradient
    /// reductions travel block-quantized (`None` = full-precision wire).
    /// Control-plane collectives (overflow flag, loss, clip norm) and the
    /// final parameter gather always stay exact.
    pub comm_quant: Option<CompressionConfig>,
    /// Comm/compute overlap depth (§4). `0` executes every collective on
    /// the rank thread, blocking. At `≥ 1` micro-step gradient reductions
    /// run on the comm-progress threads and retire at the program's
    /// dependency edges, and the next iteration's parameter gather is
    /// issued ahead into a double buffer. Results are bit-identical either
    /// way — only concurrency changes. The single-virtual-layer program
    /// caps the effective pipeline depth at 1, so every depth `≥ 1` behaves
    /// the same.
    pub prefetch_depth: usize,
}

/// Result of a training run (identical on every rank; returned from rank 0).
#[derive(Debug, Clone)]
pub struct TrainOutcome {
    /// Global mean loss per iteration.
    pub losses: Vec<f32>,
    /// Final full parameter vector.
    pub final_params: Vec<f32>,
    /// Optimizer steps skipped by the loss scaler due to overflow.
    pub skipped_steps: u32,
    /// The loss scale at the end of training.
    pub final_loss_scale: f32,
    /// The communication ops this rank executed in its first iteration, as
    /// indices into the run's [`StepProgram`] — the cross-backend tests
    /// compare this against the op sequence the simulator backend costs.
    pub wire_ops: Vec<usize>,
    /// Measured per-lane busy time, spans, and overlap accounting for
    /// rank 0 (see [`LaneStats`]). Timing-only: excluded from `PartialEq`.
    pub lane_stats: LaneStats,
}

/// Training results compare on *what was computed*, never on how long it
/// took: [`TrainOutcome::lane_stats`] carries wall-clock measurements that
/// differ between two otherwise bit-identical runs, so equality covers
/// every field except it. Floats compare by their bits, so `-0.0` differs
/// from `+0.0` and a NaN equals the same NaN: equal outcomes are
/// bit-identical ones.
impl PartialEq for TrainOutcome {
    fn eq(&self, other: &Self) -> bool {
        let same = |a: &[f32], b: &[f32]| {
            a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
        };
        same(&self.losses, &other.losses)
            && same(&self.final_params, &other.final_params)
            && self.skipped_steps == other.skipped_steps
            && self.final_loss_scale.to_bits() == other.final_loss_scale.to_bits()
            && self.wire_ops == other.wire_ops
    }
}

/// A point-in-time snapshot of a whole training job — the unsharded
/// model/optimizer state plus the loss scaler — sufficient to resume a run
/// bit-exactly from the iteration where the snapshot was taken, under any
/// partition-group size (the state is full; [`Start::Resume`] re-shards it
/// for the resuming world).
#[derive(Debug, Clone, PartialEq)]
pub struct TrainCheckpoint {
    /// Full (unsharded) parameters and Adam state.
    pub state: TrainState,
    /// Iterations completed at the snapshot; a resumed run starts here.
    pub iterations_done: usize,
    /// Loss-scaler state at the snapshot.
    pub scaler: ScalerSnapshot,
}

/// Landing zone for a mid-run checkpoint, shared between the training ranks
/// and the caller. The ranks of each stage's partition group 0 deposit
/// their state shards as the snapshot iteration begins; the caller
/// assembles them with [`CheckpointSink::take`] — even after the run itself
/// has died, which is the point: a checkpoint that only exists in the return
/// value of a killed run is no checkpoint at all.
#[derive(Debug, Default)]
pub struct CheckpointSink {
    inner: Mutex<SinkSlots>,
}

#[derive(Debug, Default)]
struct SinkSlots {
    /// One slot per `(stage, partition-local rank)`, stage-major.
    shards: Vec<Option<TrainState>>,
    /// Parameter count of each stage.
    numels: Vec<usize>,
    iterations_done: usize,
    scaler: Option<ScalerSnapshot>,
}

impl CheckpointSink {
    /// An empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Land shard `local` of `stage` (of `stages`), whose state shards as
    /// `spec`.
    pub(crate) fn deposit(
        &self,
        (stage, local): (usize, usize),
        stages: usize,
        spec: ShardSpec,
        shard: TrainState,
        iterations_done: usize,
        scaler: ScalerSnapshot,
    ) {
        let mut slots = self.inner.lock().unwrap();
        let p = spec.shards();
        if slots.numels.len() != stages || slots.shards.len() != stages * p {
            slots.shards = vec![None; stages * p];
            slots.numels = vec![0; stages];
        }
        slots.numels[stage] = spec.numel();
        slots.iterations_done = iterations_done;
        slots.scaler = Some(scaler);
        slots.shards[stage * p + local] = Some(shard);
    }

    /// Assemble the checkpoint if every shard landed; `None` if the run died
    /// before reaching the snapshot iteration. Each stage unshards on its
    /// own, and the stages concatenate in order.
    pub fn take(&self) -> Option<TrainCheckpoint> {
        let slots = self.inner.lock().unwrap();
        if slots.shards.is_empty() || slots.shards.iter().any(|s| s.is_none()) {
            return None;
        }
        let p = slots.shards.len() / slots.numels.len();
        let mut state = TrainState { params: Vec::new(), m: Vec::new(), v: Vec::new(), step: 0 };
        for (stage, &numel) in slots.shards.chunks(p).zip(&slots.numels) {
            let shards: Vec<TrainState> = stage.iter().flatten().cloned().collect();
            let part = TrainState::unshard(&shards, numel);
            state.params.extend(part.params);
            state.m.extend(part.m);
            state.v.extend(part.v);
            state.step = part.step;
        }
        Some(TrainCheckpoint {
            state,
            iterations_done: slots.iterations_done,
            scaler: slots.scaler.unwrap(),
        })
    }
}

/// Lower one iteration of `schedule` on `hp.world` thread-ranks to the
/// shared schedule IR — the exact program every rank's executor walks, and
/// the one the cross-backend tests feed to the simulator's
/// `execute_on_sim`. The fidelity model is a single "layer" of
/// `numel` fp32 parameters; timing fields (FLOPs, prefetch, decision
/// overhead) are zero because the executor runs real arithmetic, not
/// costs. This is the one-stage case of [`pipeline_step_program`].
pub fn step_program(hp: &ScheduleHyper, schedule: SyncSchedule, numel: usize) -> StepProgram {
    pipeline_step_program(hp, schedule, &[numel], 0)
}

/// The [`ScheduleSpec`] behind [`step_program`], with per-micro-step
/// forward/backward FLOP costs on the virtual layer. Only the simulator
/// backend reads the FLOPs (wire structure and edges do not depend on them),
/// so this is what the overlap cross-checks lower to make compute occupy
/// virtual time — and what [`mics_core::schedule::reshape`] re-emits at a
/// new geometry.
pub fn step_spec_with_flops(
    hp: &ScheduleHyper,
    schedule: SyncSchedule,
    numel: usize,
    fwd_flops: f64,
    bwd_flops: f64,
) -> ScheduleSpec {
    let p = match schedule {
        SyncSchedule::Ddp => 1,
        _ => hp.partition_size,
    };
    let param_bytes = numel as u64 * 4;
    ScheduleSpec {
        n: hp.world,
        // One shared-memory "node": every thread-rank sits on it.
        k: hp.world,
        p_params: p,
        p_grads: p,
        p_opt: p,
        micro_sync: match schedule {
            SyncSchedule::Ddp => MicroSync::LocalAccumulate,
            SyncSchedule::PerMicroStepAllReduce => MicroSync::GlobalAllReduce,
            SyncSchedule::TwoHop => MicroSync::PartitionReduceScatter,
        },
        accum_steps: hp.accum_steps,
        hierarchical: false,
        coalesced: false,
        // The IR records the configured overlap depth, but with a single
        // virtual layer per stage the prefetch transform has no
        // intra-iteration edge to add, so the emitted program (and the
        // golden dumps) is the same at every depth; the executor realizes
        // the overlap across micro-steps and iterations instead.
        prefetch_depth: hp.prefetch_depth,
        decision_overhead: SimTime::ZERO,
        layers: vec![LayerSchedule { param_bytes, fwd_flops, bwd_flops }],
        bucket_bytes: param_bytes.max(1),
        total_param_bytes: param_bytes,
        optimizer_bytes: numel as u64 * 24 / p as u64,
        compression: hp.comm_quant,
        elem_bytes: 4,
    }
}

impl TrainSetup {
    /// The schedule-level half: all but the model, data and micro-batch size.
    pub fn hyper(&self) -> ScheduleHyper {
        ScheduleHyper {
            world: self.world,
            partition_size: self.partition_size,
            accum_steps: self.accum_steps,
            iterations: self.iterations,
            lr: self.lr,
            quantize: self.quantize,
            loss_scale: self.loss_scale,
            clip_grad_norm: self.clip_grad_norm,
            comm_quant: self.comm_quant,
            prefetch_depth: self.prefetch_depth,
        }
    }
}

/// Schedule-level hyper-parameters: a run's all but its model and data.
#[derive(Debug, Clone, Copy)]
pub struct ScheduleHyper {
    /// Data-parallel ranks (per pipeline stage).
    pub world: usize,
    /// Partition group size.
    pub partition_size: usize,
    /// Micro-steps per iteration.
    pub accum_steps: usize,
    /// Optimizer steps.
    pub iterations: usize,
    /// Adam learning rate.
    pub lr: f32,
    /// f16-quantize the forward parameter copies.
    pub quantize: bool,
    /// Loss-scaling policy.
    pub loss_scale: LossScale,
    /// Optional global-norm gradient clip.
    pub clip_grad_norm: Option<f32>,
    /// Quantized communication configuration (`None` = exact wire).
    pub comm_quant: Option<CompressionConfig>,
    /// Comm/compute overlap depth (see [`TrainSetup::prefetch_depth`]).
    pub prefetch_depth: usize,
}

/// Where a run begins.
#[derive(Debug)]
pub enum Start<'a> {
    /// From scratch, with these full initial parameters.
    Fresh(Vec<f32>),
    /// From a snapshot: iterations `iterations_done .. hyper.iterations`
    /// are (re)executed and [`TrainOutcome::losses`] covers that tail. The
    /// checkpoint holds full state, so `partition_size` (and even `world`)
    /// may differ from the run that took it — resuming re-shards.
    Resume(&'a TrainCheckpoint),
}

/// The one way to start a training run.
#[derive(Debug)]
pub struct TrainRun<'a> {
    /// `Local`: rank threads over shared memory. `Socket`: every collective
    /// over framed connections to an in-process hub — bit-identical.
    pub transport: TransportKind,
    /// Schedule-level hyper-parameters.
    pub hyper: ScheduleHyper,
    /// Gradient-synchronization schedule.
    pub schedule: SyncSchedule,
    /// Fresh start or resume.
    pub start: Start<'a>,
    /// Deposit a [`TrainCheckpoint`] into the sink as this iteration begins
    /// (or as the run ends, for `hyper.iterations`). The sink outlives the
    /// run, so the snapshot survives a rank dying later.
    pub checkpoint: Option<(usize, &'a CheckpointSink)>,
}

impl TrainRun<'_> {
    /// Run the job on `hyper.world` ranks per pipeline stage of `compute`
    /// and return the (rank-identical) outcome of rank 0.
    ///
    /// # Panics
    /// Panics if `partition_size` does not divide `world` (for the sharded
    /// schedules), a dimension is zero, the checkpoint or resume point lies
    /// outside the run, or `compute`'s stages do not cover the starting
    /// parameters exactly.
    pub fn run<C: StepCompute>(self, compute: &C) -> TrainOutcome {
        let plan = self.plan(compute);
        let mut results = run_ranks_on(self.transport, plan.prog.geo.world(), |comm| {
            Executor::new(comm, &plan, compute).run()
        });
        // Sanity: every rank must agree bit-for-bit on what was trained.
        for (r, out) in results.iter().enumerate().skip(1) {
            assert_eq!(out.losses, results[0].losses, "rank {r} diverged");
            assert_eq!(out.final_params, results[0].final_params, "rank {r} params diverged");
        }
        results.swap_remove(0)
    }

    /// Validate the run and lower its step once, for every rank.
    pub(crate) fn plan<C: StepCompute>(&self, compute: &C) -> Plan<'_> {
        let hp = &self.hyper;
        assert!(hp.world > 0 && hp.accum_steps > 0);
        // Resolve the kernels' feature detection and counters before rank
        // threads spawn, so no rank pays for them mid-step.
        crate::kernels::init();
        let (init, resume) = match &self.start {
            Start::Fresh(init) => (&init[..], None),
            Start::Resume(ckpt) => {
                assert!(
                    ckpt.iterations_done <= hp.iterations,
                    "checkpoint at iteration {} is beyond the configured {} iterations",
                    ckpt.iterations_done,
                    hp.iterations
                );
                assert_eq!(
                    ckpt.state.params.len(),
                    ckpt.state.m.len(),
                    "corrupt checkpoint: optimizer does not match parameters"
                );
                (&ckpt.state.params[..], Some(*ckpt))
            }
        };
        let start_iter = resume.map_or(0, |c| c.iterations_done);
        if let Some((at, _)) = self.checkpoint {
            assert!(
                (start_iter..=hp.iterations).contains(&at),
                "checkpoint iteration {at} outside the run's [{start_iter}, {}] range",
                hp.iterations
            );
        }
        assert!(
            matches!(self.schedule, SyncSchedule::Ddp)
                || (hp.partition_size > 0 && hp.world.is_multiple_of(hp.partition_size)),
            "partition size {} must divide world {}",
            hp.partition_size,
            hp.world
        );
        let stages = compute.stages(init.len());
        let covered = stages.windows(2).all(|w| w[0].end == w[1].start)
            && stages.first().is_some_and(|r| r.start == 0)
            && stages.last().is_some_and(|r| r.end == init.len());
        assert!(
            covered,
            "the model's {} parameters (stages {stages:?}) do not match the {} starting parameters",
            stages.last().map_or(0, |r| r.end),
            init.len()
        );
        let numels: Vec<usize> = stages.iter().map(|r| r.len()).collect();
        let prog = pipeline_step_program(hp, self.schedule, &numels, compute.act_bytes());
        Plan { hp, prog, stages, init, resume, start_iter, checkpoint: self.checkpoint }
    }
}

/// Run the configured training job as a `dp × pp` 1F1B pipeline on
/// `setup.world · pp` ranks: the model's layers split contiguously over
/// `pp` stages, activations and boundary gradients travel as real
/// point-to-point broadcasts, and gradients synchronize per stage under
/// `schedule`, sharded over each stage's partition groups. `pp` must divide
/// the model's layers. On the exact wire every `pp` trains the bits of
/// `pp = 1`; gradient clipping and block-quantized codecs follow the
/// per-stage shard cut, so they agree only within rounding.
pub fn train_pipeline(
    transport: TransportKind,
    setup: &TrainSetup,
    pp: usize,
    schedule: SyncSchedule,
) -> TrainOutcome {
    let start = Start::Fresh(setup.model.init_params(setup.seed));
    TrainRun { transport, hyper: setup.hyper(), schedule, start, checkpoint: None }
        .run(&LmStages::new(setup, pp))
}

/// One phase of an elastic run: a flat (pp = 1) geometry and how many
/// optimizer steps to execute there. `iterations: 0` is a pure resharding
/// hop — the world is stood up, the checkpoint re-sharded through it, and
/// the state handed on untouched.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ElasticPhase {
    /// Data-parallel ranks in this phase.
    pub world: usize,
    /// Partition group size in this phase (ignored by DDP).
    pub partition_size: usize,
    /// Optimizer steps to run in this phase.
    pub iterations: usize,
}

/// Train `setup`'s job through a sequence of geometries — the elastic
/// grow/shrink path. Each phase is a fresh world at that phase's geometry;
/// transitions go checkpoint → [`reshape`] → resume, so the schedule is
/// re-emitted for the new geometry and the state re-sharded through the
/// resharding-checkpoint path. Every transition asserts, at the IR level,
/// that `reshape(old, new)` reproduces the program the resumed phase runs —
/// the program is a function of the geometry, nothing is baked in at emit
/// time.
///
/// The returned outcome spans the whole run: `losses` concatenates the
/// phases, `final_params` is the last phase's state, `wire_ops` is the
/// first phase's rank-0 log. `setup.world`/`partition_size`/`iterations`
/// are superseded by `phases`.
///
/// Continuity contract (asserted by the tests, not here): a zero-iteration
/// reshape round-trip `[G t | →G′ | →G | G t′]` is bit-identical to the
/// uninterrupted `[G t+t′]` run, and a grow transition is bit-identical to
/// a direct [`Start::Resume`] at the destination geometry.
pub fn train_elastic_on(
    transport: TransportKind,
    setup: &TrainSetup,
    schedule: SyncSchedule,
    phases: &[ElasticPhase],
) -> TrainOutcome {
    assert!(!phases.is_empty(), "an elastic run needs at least one phase");
    let compute = LmStages::new(setup, 1);
    let numel = setup.model.num_params();
    let hp_at = |ph: &ElasticPhase, end: usize| ScheduleHyper {
        world: ph.world,
        partition_size: ph.partition_size,
        iterations: end,
        ..setup.hyper()
    };

    let sink = CheckpointSink::new();
    let phase = |hyper: ScheduleHyper, start: Start<'_>| {
        let checkpoint = Some((hyper.iterations, &sink));
        TrainRun { transport, hyper, schedule, start, checkpoint }.run(&compute)
    };
    let mut done = phases[0].iterations;
    let mut out = phase(hp_at(&phases[0], done), Start::Fresh(setup.model.init_params(setup.seed)));
    for (prev, ph) in phases.iter().zip(&phases[1..]) {
        let ckpt = sink.take().expect("previous phase must deposit its snapshot");
        assert_eq!(ckpt.iterations_done, done, "phase boundary drifted");
        // IR-level transition: re-emitting via `reshape` must produce
        // exactly the program the resumed phase interprets.
        let end = done + ph.iterations;
        let old = step_spec_with_flops(&hp_at(prev, done), schedule, numel, 0.0, 0.0);
        let hp = hp_at(ph, end);
        let fresh = step_program(&hp, schedule, numel);
        let reshaped = reshape(&old, &Geometry::flat(old.n, old.k, old.p_params), &fresh.geo);
        assert_eq!(
            reshaped.dump(),
            fresh.dump(),
            "reshape must re-emit the destination phase's program"
        );
        let tail = phase(hp, Start::Resume(&ckpt));
        out.losses.extend_from_slice(&tail.losses);
        out.skipped_steps += tail.skipped_steps;
        out.final_params = tail.final_params;
        out.final_loss_scale = tail.final_loss_scale;
        out.lane_stats = tail.lane_stats;
        done = end;
    }
    out
}

/// Lower one iteration of a run with any number of pipeline stages to the
/// schedule IR: one virtual layer per stage (each holding that stage's entry
/// of `stage_numels`), `hp.world` data-parallel ranks per stage sharding it
/// under `hp` exactly as a flat run would, every thread-rank on one
/// shared-memory "node". The returned program is what [`TrainRun`] executes
/// over real communicators and what the cross-backend tests feed to the
/// simulator's `execute_on_sim`; one stage is [`step_program`].
pub fn pipeline_step_program(
    hp: &ScheduleHyper,
    schedule: SyncSchedule,
    stage_numels: &[usize],
    act_bytes: u64,
) -> StepProgram {
    let pp = stage_numels.len();
    let total: usize = stage_numels.iter().sum();
    let mut inner = step_spec_with_flops(hp, schedule, total, 0.0, 0.0);
    inner.k = hp.world * pp;
    inner.layers = stage_numels
        .iter()
        .map(|&numel| LayerSchedule {
            param_bytes: numel as u64 * 4,
            fwd_flops: 0.0,
            bwd_flops: 0.0,
        })
        .collect();
    inner.bucket_bytes = inner.layers.iter().map(|l| l.param_bytes).max().unwrap_or(1).max(1);
    PipelineSpec { inner, pp, act_bytes }.program()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::ExecLane;
    use crate::lm::{token_batch, train_lm};
    use mics_cluster::Rank;
    use mics_core::schedule::OpKind;
    use mics_dataplane::try_run_ranks_on;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    const BOTH: [TransportKind; 2] = [TransportKind::Local, TransportKind::Socket];

    fn setup(world: usize, p: usize, s: usize) -> TrainSetup {
        TrainSetup {
            model: TinyTransformer::new(5, 4, 4, 1, 8, 1),
            world,
            partition_size: p,
            micro_batch: 2,
            accum_steps: s,
            iterations: 15,
            lr: 0.02,
            seed: 1234,
            quantize: false,
            loss_scale: LossScale::None,
            clip_grad_norm: None,
            comm_quant: None,
            prefetch_depth: 0,
        }
    }

    #[test]
    fn outcomes_compare_floats_by_bits() {
        let outcome = |x: f32| TrainOutcome {
            losses: vec![1.0, x],
            final_params: vec![x],
            skipped_steps: 0,
            final_loss_scale: x,
            wire_ops: vec![0, 1],
            lane_stats: LaneStats::default(),
        };
        assert_eq!(outcome(f32::NAN), outcome(f32::NAN), "a NaN equals the same NaN");
        assert_ne!(outcome(0.0), outcome(-0.0), "the zeros' signs differ");
        let mut params = outcome(0.0);
        params.final_params[0] = -0.0;
        assert_ne!(params, outcome(0.0), "final_params compare by bits");
        let mut scale = outcome(0.0);
        scale.final_loss_scale = -0.0;
        assert_ne!(scale, outcome(0.0), "final_loss_scale compares by bits");
    }

    #[test]
    fn all_schedules_converge() {
        for schedule in
            [SyncSchedule::Ddp, SyncSchedule::PerMicroStepAllReduce, SyncSchedule::TwoHop]
        {
            let out = train_lm(&setup(4, 2, 2), schedule);
            let first = out.losses[0];
            let last = *out.losses.last().unwrap();
            assert!(last < first * 0.7, "{schedule:?}: loss {first} → {last} did not converge");
        }
    }

    #[test]
    fn async_executor_is_bit_identical_to_inline() {
        // The overlap machinery must change *when* collectives run, never
        // what they compute: same losses, same final parameters, same wire
        // op sequence, for every schedule, on either transport.
        for schedule in
            [SyncSchedule::Ddp, SyncSchedule::PerMicroStepAllReduce, SyncSchedule::TwoHop]
        {
            let inline = train_lm(&setup(4, 2, 3), schedule);
            let mut cfg = setup(4, 2, 3);
            cfg.prefetch_depth = 2;
            for transport in BOTH {
                let overlapped = train_pipeline(transport, &cfg, 1, schedule);
                assert_eq!(
                    inline, overlapped,
                    "{schedule:?} diverged under the async executor on {transport}"
                );
                assert_eq!(
                    inline.losses, overlapped.losses,
                    "{schedule:?} losses must match bit-for-bit on {transport}"
                );
            }
        }
    }

    #[test]
    fn async_executor_defers_only_the_overlappable_reduces() {
        // TwoHop with s micro-steps: the reduce-scatter of micro-steps
        // 0..s-2 retires at the next micro-step's backward (after its
        // forward ran) — deferred. The last one is immediately consumed by
        // hop 2. ZeRO-3's all-reduces are fenced by micro barriers and DDP
        // has nothing in flight: neither defers anything.
        let mut cfg = setup(4, 2, 3);
        cfg.prefetch_depth = 1;
        let out = train_lm(&cfg, SyncSchedule::TwoHop);
        assert_eq!(out.lane_stats.deferred_wire_ops.len(), cfg.accum_steps - 1);
        for schedule in [SyncSchedule::Ddp, SyncSchedule::PerMicroStepAllReduce] {
            let out = train_lm(&cfg, schedule);
            assert!(
                out.lane_stats.deferred_wire_ops.is_empty(),
                "{schedule:?} must not defer: {:?}",
                out.lane_stats.deferred_wire_ops
            );
        }
    }

    #[test]
    fn async_executor_prefetches_one_gather_per_remaining_iteration() {
        let mut cfg = setup(4, 2, 2);
        cfg.prefetch_depth = 1;
        let out = train_lm(&cfg, SyncSchedule::TwoHop);
        assert_eq!(out.lane_stats.prefetched_gathers as usize, cfg.iterations - 1);
        // Inline mode never prefetches and never defers.
        let inline = train_lm(&setup(4, 2, 2), SyncSchedule::TwoHop);
        assert_eq!(inline.lane_stats.prefetched_gathers, 0);
        assert!(inline.lane_stats.deferred_wire_ops.is_empty());
    }

    #[test]
    fn lane_stats_cover_compute_and_comm() {
        let mut cfg = setup(4, 2, 2);
        cfg.prefetch_depth = 1;
        let out = train_lm(&cfg, SyncSchedule::TwoHop);
        let stats = &out.lane_stats;
        assert!(stats.busy_ns(ExecLane::Compute) > 0);
        assert!(stats.busy_ns(ExecLane::Gather) > 0);
        assert!(stats.busy_ns(ExecLane::Reduce) > 0);
        assert!(stats.wall_ns >= stats.busy_ns(ExecLane::Compute));
        // Spans are well-formed and stamped with their iteration.
        for s in &stats.spans {
            assert!(s.end_ns >= s.start_ns);
            assert!(s.iteration < cfg.iterations);
        }
    }

    #[test]
    fn two_hop_with_full_partition_is_bitwise_zero3() {
        // With p = n, MiCS degenerates to ZeRO-3 and the schedules perform
        // the same sums in the same order → bit-identical training.
        let s = setup(4, 4, 3);
        let a = train_lm(&s, SyncSchedule::PerMicroStepAllReduce);
        let b = train_lm(&s, SyncSchedule::TwoHop);
        assert_eq!(a.losses, b.losses);
        assert_eq!(a.final_params, b.final_params);
    }

    #[test]
    fn two_hop_matches_ddp_convergence() {
        // Figure 15: same convergence behaviour (not necessarily the same
        // floating-point bits — summation orders differ).
        let s = setup(4, 2, 2);
        let ddp = train_lm(&s, SyncSchedule::Ddp);
        let mics = train_lm(&s, SyncSchedule::TwoHop);
        for (i, (a, b)) in ddp.losses.iter().zip(mics.losses.iter()).enumerate() {
            let denom = a.abs().max(1e-6);
            assert!((a - b).abs() / denom < 1e-3, "iteration {i}: DDP {a} vs MiCS {b}");
        }
    }

    #[test]
    fn two_hop_gradients_equal_global_all_reduce_exactly_in_expectation() {
        // Stronger algebraic check on the final parameters: with identical
        // data, the three schedules stay within a tight tolerance after
        // training.
        let s = setup(8, 2, 2);
        let ddp = train_lm(&s, SyncSchedule::Ddp);
        let zero3 = train_lm(&s, SyncSchedule::PerMicroStepAllReduce);
        let mics = train_lm(&s, SyncSchedule::TwoHop);
        for i in 0..ddp.final_params.len() {
            let a = ddp.final_params[i];
            let b = mics.final_params[i];
            let c = zero3.final_params[i];
            assert!((a - b).abs() < 5e-4, "param {i}: ddp {a} vs mics {b}");
            assert!((a - c).abs() < 5e-4, "param {i}: ddp {a} vs zero3 {c}");
        }
    }

    #[test]
    fn deterministic_across_runs() {
        let s = setup(4, 2, 2);
        let a = train_lm(&s, SyncSchedule::TwoHop);
        let b = train_lm(&s, SyncSchedule::TwoHop);
        assert_eq!(a, b);
    }

    #[test]
    fn quantized_training_still_converges() {
        let mut s = setup(4, 2, 2);
        s.quantize = true;
        let out = train_lm(&s, SyncSchedule::TwoHop);
        assert!(*out.losses.last().unwrap() < out.losses[0] * 0.8);
        // And differs from unquantized (the cast is real).
        let mut s2 = s.clone();
        s2.quantize = false;
        let exact = train_lm(&s2, SyncSchedule::TwoHop);
        assert_ne!(out.losses, exact.losses);
    }

    #[test]
    fn int8_comm_training_tracks_exact_training() {
        use mics_compress::{CompressionConfig, QuantScheme};
        let exact = train_lm(&setup(4, 2, 2), SyncSchedule::TwoHop);
        let mut cfg = setup(4, 2, 2);
        cfg.comm_quant = Some(CompressionConfig::both(QuantScheme::int8()));
        let q = train_lm(&cfg, SyncSchedule::TwoHop);
        // The quantized wire is real (trajectories differ) ...
        assert_ne!(q.losses, exact.losses);
        // ... but stays within a few percent of the exact loss curve ...
        for (i, (a, b)) in exact.losses.iter().zip(q.losses.iter()).enumerate() {
            assert!((a - b).abs() / a.abs().max(1e-6) < 0.05, "iter {i}: {a} vs {b}");
        }
        // ... and still converges.
        assert!(*q.losses.last().unwrap() < q.losses[0] * 0.8);
    }

    #[test]
    fn f16_weight_wire_is_lossless_for_f16_casts() {
        use mics_compress::{CompressionConfig, QuantScheme};
        // quantize=true casts shards to f16 *before* the gather, so an f16
        // wire carries them bit-exactly: weights-only f16 compression must
        // reproduce the uncompressed run exactly.
        let mut base = setup(4, 2, 2);
        base.quantize = true;
        let exact = train_lm(&base, SyncSchedule::TwoHop);
        let mut cfg = base.clone();
        cfg.comm_quant = Some(CompressionConfig::weights_only(QuantScheme::F16));
        let q = train_lm(&cfg, SyncSchedule::TwoHop);
        assert_eq!(q, exact);
    }

    #[test]
    fn accumulation_depth_changes_only_comm_pattern_not_data_consumed() {
        // s=1 vs s=4 consume different batches per optimizer step, but both
        // must converge under the 2-hop schedule (the s=1 case the paper
        // discusses at the end of §3.4).
        for s in [1usize, 4] {
            let cfg = setup(4, 2, s);
            let out = train_lm(&cfg, SyncSchedule::TwoHop);
            assert!(*out.losses.last().unwrap() < out.losses[0], "s={s} failed to improve");
        }
    }

    #[test]
    fn single_rank_degenerate_case() {
        let cfg = TrainSetup { world: 1, partition_size: 1, ..setup(1, 1, 2) };
        let out = train_lm(&cfg, SyncSchedule::TwoHop);
        assert_eq!(out.losses.len(), cfg.iterations);
        assert!(*out.losses.last().unwrap() < out.losses[0]);
    }

    #[test]
    fn loss_scaling_is_numerically_transparent() {
        // Scaling the loss and unscaling the gradients must not change
        // training (up to fp rounding) for any schedule.
        let base = train_lm(&setup(4, 2, 2), SyncSchedule::TwoHop);
        let mut cfg = setup(4, 2, 2);
        cfg.loss_scale = LossScale::Dynamic { init: 1024.0, growth_interval: u32::MAX };
        let scaled = train_lm(&cfg, SyncSchedule::TwoHop);
        assert_eq!(scaled.skipped_steps, 0);
        for (i, (a, b)) in base.losses.iter().zip(scaled.losses.iter()).enumerate() {
            assert!((a - b).abs() / a.abs().max(1e-9) < 1e-3, "iter {i}: {a} vs {b}");
        }
    }

    #[test]
    fn dynamic_scale_grows_over_clean_steps() {
        let mut cfg = setup(4, 2, 2);
        cfg.loss_scale = LossScale::Dynamic { init: 256.0, growth_interval: 5 };
        let out = train_lm(&cfg, SyncSchedule::TwoHop);
        assert_eq!(out.skipped_steps, 0);
        // 15 iterations, growth every 5 clean steps → 3 doublings.
        assert_eq!(out.final_loss_scale, 256.0 * 8.0);
        assert!(*out.losses.last().unwrap() < out.losses[0]);
    }

    #[test]
    fn gradient_clipping_caps_update_magnitude_consistently() {
        // A tiny clip threshold slows convergence but must act identically
        // across schedules (the global-norm all-reduce sees the same sums).
        let mut cfg = setup(4, 2, 2);
        cfg.clip_grad_norm = Some(0.01);
        let mics = train_lm(&cfg, SyncSchedule::TwoHop);
        let ddp = train_lm(&cfg, SyncSchedule::Ddp);
        for (i, (a, b)) in mics.losses.iter().zip(ddp.losses.iter()).enumerate() {
            assert!((a - b).abs() / a.abs().max(1e-9) < 2e-3, "iter {i}: {a} vs {b}");
        }
        // The cap genuinely binds: the trajectory differs from unclipped
        // training. (Adam's per-element normalization means clipping does
        // not necessarily slow convergence — it just changes the path.)
        let unclipped = train_lm(&setup(4, 2, 2), SyncSchedule::TwoHop);
        assert_ne!(mics.losses, unclipped.losses, "clip at 0.01 must bind");
    }

    #[test]
    fn clipping_with_loose_threshold_is_identity() {
        let mut cfg = setup(4, 2, 2);
        cfg.clip_grad_norm = Some(1e6);
        let clipped = train_lm(&cfg, SyncSchedule::TwoHop);
        let base = train_lm(&setup(4, 2, 2), SyncSchedule::TwoHop);
        assert_eq!(clipped.losses, base.losses, "a loose clip must never bind");
    }

    #[test]
    #[should_panic(expected = "must divide world")]
    fn bad_partition_size_rejected() {
        let cfg = setup(4, 3, 2);
        let _ = train_lm(&cfg, SyncSchedule::TwoHop);
    }

    type GradFn = dyn Fn(&[f32], usize, usize, usize) -> (f32, Vec<f32>) + Sync;

    /// Shared scaffolding for the resume tests: the loss and gradient of a
    /// whole micro-batch as a closure, so a fault can be injected into it.
    /// At one stage it computes what [`train_lm`]'s stages compute.
    fn resume_rig() -> (ScheduleHyper, Vec<f32>, Box<GradFn>) {
        let cfg = setup(4, 2, 2);
        let init = cfg.model.init_params(cfg.seed);
        let grad = move |params: &[f32], iter: usize, micro: usize, rank: usize| {
            let seed = cfg.seed ^ 0x00c0_ffee_1234_5678;
            let toks = token_batch(&cfg.model, seed, iter, micro, rank, cfg.micro_batch);
            cfg.model.loss_and_grad(params, &toks)
        };
        (setup(4, 2, 2).hyper(), init, Box::new(grad))
    }

    /// A local-transport run from `init`, depositing a snapshot at
    /// `checkpoint_at`.
    fn run_with_snapshot(
        hp: &ScheduleHyper,
        schedule: SyncSchedule,
        init: Vec<f32>,
        grad: &impl StepCompute,
        checkpoint_at: usize,
        sink: &CheckpointSink,
    ) -> TrainOutcome {
        TrainRun {
            transport: TransportKind::Local,
            hyper: *hp,
            schedule,
            start: Start::Fresh(init),
            checkpoint: Some((checkpoint_at, sink)),
        }
        .run(grad)
    }

    /// A local-transport run resumed from `ckpt`.
    fn resume(
        hp: &ScheduleHyper,
        schedule: SyncSchedule,
        ckpt: &TrainCheckpoint,
        grad: &impl StepCompute,
    ) -> TrainOutcome {
        TrainRun {
            transport: TransportKind::Local,
            hyper: *hp,
            schedule,
            start: Start::Resume(ckpt),
            checkpoint: None,
        }
        .run(grad)
    }

    #[test]
    fn resume_mid_run_is_bit_exact() {
        let (mut hp, init, grad) = resume_rig();
        for depth in [0, 1] {
            hp.prefetch_depth = depth;
            for schedule in
                [SyncSchedule::Ddp, SyncSchedule::PerMicroStepAllReduce, SyncSchedule::TwoHop]
            {
                let sink = CheckpointSink::new();
                let full = run_with_snapshot(&hp, schedule, init.clone(), &grad, 7, &sink);
                let ckpt = sink.take().expect("snapshot must be deposited");
                assert_eq!(ckpt.iterations_done, 7);
                let resumed = resume(&hp, schedule, &ckpt, &grad);
                assert_eq!(resumed.losses, full.losses[7..], "{schedule:?} depth {depth} tail");
                assert_eq!(resumed.final_params, full.final_params, "{schedule:?} depth {depth}");
                assert_eq!(resumed.final_loss_scale, full.final_loss_scale);
            }
        }
    }

    #[test]
    fn checkpoint_at_start_reproduces_whole_run() {
        let (hp, init, grad) = resume_rig();
        let sink = CheckpointSink::new();
        let full = run_with_snapshot(&hp, SyncSchedule::TwoHop, init.clone(), &grad, 0, &sink);
        let ckpt = sink.take().unwrap();
        // The iteration-0 snapshot is the init state with a zero optimizer.
        assert_eq!(ckpt.state.params, init);
        assert_eq!(ckpt.state.step, 0);
        let replay = resume(&hp, SyncSchedule::TwoHop, &ckpt, &grad);
        assert_eq!(replay, full);
    }

    #[test]
    fn checkpoint_at_end_captures_final_state() {
        let (mut hp, init, grad) = resume_rig();
        for depth in [0, 1] {
            hp.prefetch_depth = depth;
            let sink = CheckpointSink::new();
            let full = run_with_snapshot(
                &hp,
                SyncSchedule::TwoHop,
                init.clone(),
                &grad,
                hp.iterations,
                &sink,
            );
            let ckpt = sink.take().unwrap();
            assert_eq!(ckpt.iterations_done, hp.iterations);
            assert_eq!(ckpt.state.params, full.final_params, "depth {depth}");
            // Resuming at the end runs zero iterations.
            let tail = resume(&hp, SyncSchedule::TwoHop, &ckpt, &grad);
            assert!(tail.losses.is_empty());
            assert_eq!(tail.final_params, full.final_params, "depth {depth}");
        }
    }

    #[test]
    fn dynamic_loss_scale_survives_resume() {
        let (mut hp, init, grad) = resume_rig();
        hp.loss_scale = LossScale::Dynamic { init: 256.0, growth_interval: 4 };
        let sink = CheckpointSink::new();
        let full = run_with_snapshot(&hp, SyncSchedule::TwoHop, init, &grad, 6, &sink);
        let ckpt = sink.take().unwrap();
        // 6 clean iterations → one doubling already happened; the growth
        // window is mid-flight and must be restored, not reset.
        assert_eq!(ckpt.scaler.scale, 512.0);
        assert_eq!(ckpt.scaler.good_steps, 2);
        let resumed = resume(&hp, SyncSchedule::TwoHop, &ckpt, &grad);
        assert_eq!(resumed.losses, full.losses[6..]);
        assert_eq!(resumed.final_loss_scale, full.final_loss_scale);
    }

    #[test]
    fn collective_failures_name_rank_iteration_op_and_kind() {
        // Rank 1 dies entering iteration 2; `try_run_ranks_on` poisons the
        // world on its behalf (`mark_failed`). Every survivor's next
        // collective with a dead peer must abort through the executor's one
        // failure site, whose message carries the ids trace events carry.
        let (hp, init, grad) = resume_rig();
        let killer = |params: &[f32], iter: usize, micro: usize, rank: usize| {
            assert!(iter < 2 || rank != 1, "injected fault: rank 1 lost at iteration 2");
            grad(params, iter, micro, rank)
        };
        for transport in BOTH {
            let run = TrainRun {
                transport,
                hyper: hp,
                schedule: SyncSchedule::TwoHop,
                start: Start::Fresh(init.clone()),
                checkpoint: None,
            };
            let plan = run.plan(&killer);
            let prog = &plan.prog;
            let outcomes = try_run_ranks_on(transport, hp.world, |comm| {
                comm.set_timeout(std::time::Duration::from_secs(10));
                Executor::new(comm, &plan, &killer).run()
            });
            for (rank, outcome) in outcomes.iter().enumerate() {
                let msg = &outcome.as_ref().expect_err("no rank survives a lost peer").message;
                if rank == 1 {
                    assert!(msg.contains("injected fault"), "{transport}: {msg}");
                    continue;
                }
                assert!(
                    msg.starts_with(&format!("rank {rank} iteration 2 op ")),
                    "{transport} rank {rank}: {msg}"
                );
                // The poison is conservative (it reaches every sub-group),
                // so which of the rank's wire ops meets it first is a race;
                // whichever does is named by id and by kind.
                let op_id: usize = msg.split(' ').nth(5).unwrap().parse().expect(msg);
                assert!(prog.executes_wire(op_id, Rank(rank)), "{transport} rank {rank}: {msg}");
                let kind = match prog.ops[op_id].kind {
                    OpKind::GatherShards { .. } => "gather",
                    OpKind::ReduceScatterGrads { .. } => "grad-reduce",
                    OpKind::CrossGroupAllReduce { .. } => "hop2",
                    ref other => panic!("{transport} rank {rank}: {msg} names {other:?}"),
                };
                assert!(
                    msg.contains(&format!("op {op_id} ({kind}): collective aborted: ")),
                    "{transport} rank {rank}: {msg}"
                );
            }
        }
    }

    #[test]
    fn sink_is_empty_until_the_snapshot_iteration() {
        let sink = CheckpointSink::new();
        assert!(sink.take().is_none());
    }

    #[test]
    #[should_panic(expected = "beyond the configured")]
    fn resume_past_the_horizon_rejected() {
        let (mut hp, init, grad) = resume_rig();
        let sink = CheckpointSink::new();
        let _ = run_with_snapshot(&hp, SyncSchedule::TwoHop, init, &grad, 7, &sink);
        let ckpt = sink.take().unwrap();
        hp.iterations = 3; // shorter than the snapshot's 7 completed iterations
        let _ = resume(&hp, SyncSchedule::TwoHop, &ckpt, &grad);
    }

    #[test]
    #[should_panic(expected = "do not match the")]
    fn resume_of_another_model_size_rejected() {
        // The stages come from the model, so a checkpoint of a one-layer
        // model must not slice into a two-layer one's (or train a prefix).
        let (hp, init, grad) = resume_rig();
        let sink = CheckpointSink::new();
        let _ = run_with_snapshot(&hp, SyncSchedule::TwoHop, init, &grad, 2, &sink);
        let ckpt = sink.take().unwrap();
        let mut bigger = setup(4, 2, 2);
        bigger.model.layers = 2;
        let _ = resume(&hp, SyncSchedule::TwoHop, &ckpt, &LmStages::new(&bigger, 1));
    }

    /// A 4-layer model so the pipeline has real stage slices to split.
    fn pipe_setup(dp: usize, s: usize) -> TrainSetup {
        TrainSetup {
            model: TinyTransformer::new(5, 4, 4, 1, 8, 4),
            world: dp,
            partition_size: 1,
            micro_batch: 1,
            accum_steps: s,
            iterations: 6,
            lr: 0.02,
            seed: 1234,
            quantize: false,
            loss_scale: LossScale::None,
            clip_grad_norm: None,
            comm_quant: None,
            prefetch_depth: 0,
        }
    }

    #[test]
    fn pipeline_trains_the_flat_bits_on_every_schedule_transport_and_depth() {
        // The equality the stage split promises: pp ∈ {2, 4} trains the
        // bits of pp = 1 on the exact wire, for every schedule, on both
        // transports, inline and overlapped.
        for schedule in
            [SyncSchedule::Ddp, SyncSchedule::PerMicroStepAllReduce, SyncSchedule::TwoHop]
        {
            for depth in [0, 1] {
                let cfg =
                    TrainSetup { partition_size: 2, prefetch_depth: depth, ..pipe_setup(2, 2) };
                let flat = train_lm(&cfg, schedule);
                for (pp, transport) in [2, 4].into_iter().flat_map(|pp| BOTH.map(|t| (pp, t))) {
                    let piped = train_pipeline(transport, &cfg, pp, schedule);
                    let at = format!("{schedule:?} depth {depth} pp={pp} on {transport}");
                    assert_eq!(flat.losses, piped.losses, "{at}: losses");
                    assert_eq!(flat.final_params, piped.final_params, "{at}: parameters");
                }
            }
        }
    }

    /// A row of the pipeline tables: `pp` stages of `dp` ranks in partition
    /// groups of `p`, `s` micro-steps, and a tweak on top of [`pipe_setup`].
    type PipeRow = (usize, usize, usize, usize, SyncSchedule, fn(&mut TrainSetup));

    fn pipe_row_setup(&(_, dp, p, s, _, tweak): &PipeRow) -> TrainSetup {
        let mut cfg = TrainSetup { partition_size: p, ..pipe_setup(dp, s) };
        tweak(&mut cfg);
        cfg
    }

    fn int8_wire(cfg: &mut TrainSetup) {
        use mics_compress::{CompressionConfig, QuantScheme};
        cfg.comm_quant = Some(CompressionConfig::both(QuantScheme::int8()));
    }

    /// `max |a − b| / max |a|` over a whole vector.
    fn rel_diff(a: &[f32], b: &[f32]) -> f32 {
        assert_eq!(a.len(), b.len());
        let diff = a.iter().zip(b).map(|(x, y)| (x - y).abs()).fold(0.0, f32::max);
        diff / a.iter().map(|x| x.abs()).fold(f32::MIN_POSITIVE, f32::max)
    }

    #[test]
    fn pipeline_matches_flat_training_bit_exactly() {
        use mics_compress::{CompressionConfig, QuantScheme};
        // The stage slices compose bit-exactly (see
        // `TinyTransformer::stage_loss_and_grad`),
        // per-stage gradient folds run in the same rank order as the flat
        // world, each element's shard owner sums the same ranks in the same
        // order wherever the shard cut falls, and the loss all-reduce only
        // adds exact zeros from the non-loss stages — so 1F1B over real
        // communicators reproduces the non-pipelined run to the bit, not
        // merely within tolerance, at any partition size, depth and
        // element-wise codec.
        let rows: [PipeRow; 10] = [
            (2, 2, 1, 3, SyncSchedule::Ddp, |_| {}),
            (2, 2, 1, 3, SyncSchedule::PerMicroStepAllReduce, |_| {}),
            (4, 1, 1, 2, SyncSchedule::Ddp, |_| {}),
            (4, 2, 1, 4, SyncSchedule::PerMicroStepAllReduce, |_| {}),
            (2, 4, 2, 3, SyncSchedule::TwoHop, |_| {}),
            (2, 4, 4, 2, SyncSchedule::PerMicroStepAllReduce, |c| c.prefetch_depth = 2),
            (4, 2, 2, 3, SyncSchedule::TwoHop, |c| c.prefetch_depth = 1),
            (2, 2, 2, 2, SyncSchedule::TwoHop, |c| c.quantize = true),
            (2, 4, 2, 2, SyncSchedule::TwoHop, |c| {
                c.loss_scale = LossScale::Dynamic { init: 256.0, growth_interval: 4 }
            }),
            (2, 4, 2, 2, SyncSchedule::TwoHop, |c| {
                c.comm_quant = Some(CompressionConfig::both(QuantScheme::F16))
            }),
        ];
        for row in rows {
            let (pp, dp, p, _, schedule, _) = row;
            let cfg = pipe_row_setup(&row);
            let flat = train_lm(&cfg, schedule);
            let piped = train_pipeline(TransportKind::Local, &cfg, pp, schedule);
            let at = format!("{schedule:?} pp={pp} dp={dp} p={p} depth={}", cfg.prefetch_depth);
            assert_eq!(flat.losses, piped.losses, "{at}: pipelined losses diverged");
            assert_eq!(
                flat.final_params, piped.final_params,
                "{at}: pipelined parameters diverged"
            );
            assert_eq!(flat.final_loss_scale, piped.final_loss_scale, "{at}");
            assert_eq!(piped.skipped_steps, 0);
            // Rank 0 sits on stage 0: it computes, gathers its stage when
            // it is sharded, receives boundary gradients on the reduce lane,
            // reduces its stage's gradients over whichever groups have
            // peers, and joins both control-plane syncs.
            let labels = |lane: ExecLane| -> BTreeSet<&'static str> {
                let spans = piped.lane_stats.spans.iter();
                spans.filter(|s| s.lane == lane).map(|s| s.label).collect()
            };
            assert_eq!(labels(ExecLane::Compute), BTreeSet::from(["fwd", "bwd", "optimizer"]));
            let mut gather = BTreeSet::new();
            if p > 1 {
                gather.insert("gather");
                if cfg.prefetch_depth > 0 {
                    gather.insert("gather-prefetch");
                }
            }
            assert_eq!(labels(ExecLane::Gather), gather, "{at}");
            let two_hop = schedule == SyncSchedule::TwoHop;
            let mut reduce = BTreeSet::from(["stage-recv"]);
            if (two_hop && p > 1) || (!two_hop && dp > 1) {
                reduce.insert("grad-reduce");
            }
            if two_hop && dp > p {
                reduce.insert("hop2");
            }
            assert_eq!(labels(ExecLane::Reduce), reduce, "{at}");
            assert_eq!(labels(ExecLane::Control), BTreeSet::from(["overflow-sync", "loss-sync"]));
        }
    }

    #[test]
    fn pipeline_matches_flat_training_within_the_shard_cut() {
        // Two knobs depend on where the stage split cuts the shards: the
        // clip norm's sum of squares adds over differently cut pieces, and
        // int8 blocks start at each shard's first element.
        let base = TrainSetup { partition_size: 2, ..pipe_setup(4, 2) };
        let schedule = SyncSchedule::TwoHop;
        let piped = |cfg: &TrainSetup| train_pipeline(TransportKind::Local, cfg, 2, schedule);

        let clipped = TrainSetup { clip_grad_norm: Some(0.01), ..base.clone() };
        let (flat, pipe) = (train_lm(&clipped, schedule), piped(&clipped));
        assert!(rel_diff(&flat.losses, &pipe.losses) <= 1e-6, "clipped losses");
        assert!(rel_diff(&flat.final_params, &pipe.final_params) <= 1e-6, "clipped params");

        // int8 against the exact wire, in the band the flat run is held to.
        let exact = train_lm(&base, schedule);
        let mut cfg = base.clone();
        int8_wire(&mut cfg);
        let q = piped(&cfg);
        assert_ne!(q.losses, exact.losses, "the int8 wire is real");
        for (i, (a, b)) in exact.losses.iter().zip(&q.losses).enumerate() {
            assert!((a - b).abs() / a.abs().max(1e-6) < 0.05, "int8 iter {i}: {a} vs {b}");
        }
    }

    #[test]
    fn pipeline_converges() {
        let cfg = TrainSetup { iterations: 12, ..pipe_setup(2, 2) };
        let out = train_pipeline(TransportKind::Local, &cfg, 2, SyncSchedule::Ddp);
        let first = out.losses[0];
        let last = *out.losses.last().unwrap();
        assert!(last < first * 0.7, "pipeline loss {first} → {last} did not converge");
    }

    #[test]
    fn pipeline_runs_on_the_socket_transport() {
        // The int8 codec and the async executor over real framed
        // connections (the exact wire's rows are in the test above).
        let rows: [PipeRow; 1] = [(2, 2, 2, 2, SyncSchedule::TwoHop, |c| {
            int8_wire(c);
            c.prefetch_depth = 1;
        })];
        for row in rows {
            let (pp, _, _, _, schedule, _) = row;
            let cfg = pipe_row_setup(&row);
            let [local, socket] = BOTH.map(|kind| train_pipeline(kind, &cfg, pp, schedule));
            assert_eq!(local, socket, "{schedule:?}: socket transport must be bit-identical");
        }
    }

    #[test]
    fn pipeline_checkpoints_resume_bit_exactly_at_any_stage_count() {
        // Each stage's partition group 0 deposits its own slice of the
        // state, concurrently with the other stages, so a sink keyed by
        // partition-local rank alone mixes the stages' shards. Many rounds
        // give that race its chances; no round may lose a bit.
        let cfg =
            TrainSetup { partition_size: 2, micro_batch: 1, iterations: 7, ..pipe_setup(4, 2) };
        let run = |pp: usize, start: Start<'_>, checkpoint: Option<(usize, &CheckpointSink)>| {
            let (transport, hyper) = (TransportKind::Local, cfg.hyper());
            let schedule = SyncSchedule::TwoHop;
            TrainRun { transport, hyper, schedule, start, checkpoint }.run(&LmStages::new(&cfg, pp))
        };
        let fresh = || Start::Fresh(cfg.model.init_params(cfg.seed));
        let full = run(1, fresh(), None);
        for round in 0..20 {
            let mut snapshots = Vec::new();
            for (from, resume_at) in [(2, &[2, 1][..]), (1, &[2][..])] {
                let sink = CheckpointSink::new();
                let out = run(from, fresh(), Some((5, &sink)));
                assert_eq!(out.losses, full.losses, "round {round}: pp={from} snapshot run");
                let ckpt = sink.take().expect("snapshot must be deposited");
                for &to in resume_at {
                    let tail = run(to, Start::Resume(&ckpt), None);
                    let at = format!("round {round}: pp={from} → pp={to}");
                    assert_eq!(tail.losses, full.losses[5..], "{at}: tail losses");
                    assert_eq!(tail.final_params, full.final_params, "{at}: final params");
                }
                snapshots.push(ckpt);
            }
            assert_eq!(snapshots[0], snapshots[1], "round {round}: pp=2 and pp=1 snapshots differ");
        }
    }

    #[test]
    fn pipeline_executes_the_programs_wire_ops_for_its_rank() {
        // Rank 0 (stage 0, d 0) of the interpreter must execute exactly the
        // wire ops `executes_wire` assigns it, in program order.
        let cfg = pipe_setup(2, 3);
        let hp = cfg.hyper();
        let stage_numels = [0..2, 2..4].map(|layers| cfg.model.stage_params(layers).len());
        let prog = pipeline_step_program(&hp, SyncSchedule::Ddp, &stage_numels, 64);
        let expected: Vec<usize> =
            prog.wire_ops().into_iter().filter(|&id| prog.executes_wire(id, Rank(0))).collect();
        let out = train_pipeline(TransportKind::Local, &cfg, 2, SyncSchedule::Ddp);
        assert!(!expected.is_empty());
        assert_eq!(out.wire_ops, expected);
    }

    #[test]
    #[should_panic(expected = "evenly split")]
    fn pipeline_rejects_uneven_stage_split() {
        let _ = train_pipeline(TransportKind::Local, &pipe_setup(2, 2), 3, SyncSchedule::Ddp);
    }

    fn elastic_setup(world: usize, p: usize, iters: usize) -> TrainSetup {
        TrainSetup {
            model: TinyTransformer::new(5, 4, 4, 1, 8, 1),
            world,
            partition_size: p,
            micro_batch: 2,
            accum_steps: 2,
            iterations: iters,
            lr: 0.02,
            seed: 99,
            quantize: false,
            loss_scale: LossScale::None,
            clip_grad_norm: None,
            comm_quant: None,
            prefetch_depth: 0,
        }
    }

    #[test]
    fn elastic_zero_iteration_round_trip_is_bit_exact() {
        // [G t1 | →G′ | →G | G t2] ≡ [G t1+t2]: the state round-trips
        // through the foreign geometry's sharding untouched, both growing
        // (8 ranks) and shrinking (2 ranks).
        let base = elastic_setup(4, 2, 10);
        let flat = train_lm(&base, SyncSchedule::TwoHop);
        for (w, p) in [(8, 4), (2, 1)] {
            let phases = [
                ElasticPhase { world: 4, partition_size: 2, iterations: 6 },
                ElasticPhase { world: w, partition_size: p, iterations: 0 },
                ElasticPhase { world: 4, partition_size: 2, iterations: 4 },
            ];
            let el = train_elastic_on(TransportKind::Local, &base, SyncSchedule::TwoHop, &phases);
            assert_eq!(el.losses, flat.losses, "round trip through {w}/{p} drifted");
            assert_eq!(el.final_params, flat.final_params);
        }
    }

    #[test]
    fn elastic_grow_matches_direct_resume() {
        // The grow transition is exactly checkpoint → reshape → resume: the
        // driver must reproduce a hand-rolled resume at the destination
        // geometry bit for bit, losses included.
        let base = elastic_setup(2, 1, 8);
        let phases = [
            ElasticPhase { world: 2, partition_size: 1, iterations: 5 },
            ElasticPhase { world: 4, partition_size: 2, iterations: 3 },
        ];
        let el = train_elastic_on(TransportKind::Local, &base, SyncSchedule::TwoHop, &phases);

        let grad = LmStages::new(&base, 1);
        let mut hp = ScheduleHyper { iterations: 5, ..base.hyper() };
        let sink = CheckpointSink::new();
        let init = base.model.init_params(base.seed);
        let head = run_with_snapshot(&hp, SyncSchedule::TwoHop, init, &grad, 5, &sink);
        let ckpt = sink.take().unwrap();
        hp.world = 4;
        hp.partition_size = 2;
        hp.iterations = 8;
        let tail = resume(&hp, SyncSchedule::TwoHop, &ckpt, &grad);

        assert_eq!(el.losses[..5], head.losses[..]);
        assert_eq!(el.losses[5..], tail.losses[..]);
        assert_eq!(el.final_params, tail.final_params);
    }

    #[test]
    fn elastic_runs_on_the_socket_transport() {
        let base = elastic_setup(2, 2, 6);
        let phases = [
            ElasticPhase { world: 2, partition_size: 2, iterations: 3 },
            ElasticPhase { world: 4, partition_size: 2, iterations: 3 },
        ];
        let [local, socket] =
            BOTH.map(|kind| train_elastic_on(kind, &base, SyncSchedule::TwoHop, &phases));
        assert_eq!(local, socket, "elastic run must be transport-invariant");
    }

    #[test]
    #[should_panic(expected = "at least one phase")]
    fn elastic_rejects_an_empty_phase_list() {
        let _ =
            train_elastic_on(TransportKind::Local, &elastic_setup(2, 1, 2), SyncSchedule::Ddp, &[]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(3))]

        /// Reshape round-trips over random geometries — grow-then-shrink
        /// and shrink-then-grow both land back bit-identical to the
        /// uninterrupted run, on the local and the socket transport.
        #[test]
        fn elastic_reshape_round_trip_over_random_geometries(
            base_p in 1usize..3,
            base_groups in 1usize..3,
            foreign_p in 1usize..3,
            foreign_groups in 1usize..3,
            t1 in 1usize..4,
            t2 in 1usize..3,
        ) {
            let world = base_p * base_groups;
            let foreign_world = foreign_p * foreign_groups;
            let base = elastic_setup(world, base_p, t1 + t2);
            let flat = train_lm(&base, SyncSchedule::TwoHop);
            let phases = [
                ElasticPhase { world, partition_size: base_p, iterations: t1 },
                ElasticPhase {
                    world: foreign_world,
                    partition_size: foreign_p,
                    iterations: 0,
                },
                ElasticPhase { world, partition_size: base_p, iterations: t2 },
            ];
            for transport in BOTH {
                let el = train_elastic_on(transport, &base, SyncSchedule::TwoHop, &phases);
                prop_assert_eq!(&el.losses, &flat.losses);
                prop_assert_eq!(&el.final_params, &flat.final_params);
            }
        }
    }
}

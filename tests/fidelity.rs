//! End-to-end fidelity (paper §5.4): real sharded training under every
//! synchronization schedule converges identically — the integration-level
//! version of Figure 15 — and kill-and-resume through the resharding
//! checkpoint is bit-exact, the training-loop half of the recovery story
//! (`mics-core::recovery` costs it; this proves it loses nothing).

use mics::dataplane::TransportKind;
use mics::minidl::checkpoint::{load, save, TrainState};
use mics::minidl::lm::token_batch;
use mics::minidl::train::ScheduleHyper;
use mics::minidl::{
    train_lm, CheckpointSink, LmSetup, LossScale, Start, StepCompute, SyncSchedule,
    TinyTransformer, TrainCheckpoint, TrainOutcome, TrainRun,
};

fn setup(world: usize, p: usize, s: usize, iters: usize) -> LmSetup {
    LmSetup {
        model: TinyTransformer::new(5, 4, 4, 1, 8, 1),
        world,
        partition_size: p,
        micro_batch: 2,
        accum_steps: s,
        iterations: iters,
        lr: 0.015,
        seed: 99,
        quantize: false,
        loss_scale: mics::minidl::LossScale::None,
        clip_grad_norm: None,
        comm_quant: None,
        prefetch_depth: 0,
    }
}

/// All three schedules track each other within floating-point reordering
/// noise across a long run, and all converge.
#[test]
fn long_run_loss_curves_coincide() {
    let cfg = setup(8, 4, 3, 30);
    let ddp = train_lm(&cfg, SyncSchedule::Ddp);
    let zero3 = train_lm(&cfg, SyncSchedule::PerMicroStepAllReduce);
    let mics = train_lm(&cfg, SyncSchedule::TwoHop);
    for i in 0..cfg.iterations {
        let a = ddp.losses[i];
        for (name, b) in [("zero3", zero3.losses[i]), ("mics", mics.losses[i])] {
            assert!(
                (a - b).abs() / a.abs().max(1e-9) < 5e-3,
                "iteration {i}: ddp {a} vs {name} {b}"
            );
        }
    }
    assert!(*mics.losses.last().unwrap() < mics.losses[0] * 0.5, "must converge");
}

/// Changing the partition group size must not change what MiCS computes —
/// only how it communicates. (Partitioning is numerically transparent.)
#[test]
fn partition_size_is_numerically_transparent() {
    let base = train_lm(&setup(8, 1, 2, 12), SyncSchedule::TwoHop);
    for p in [2usize, 4, 8] {
        let other = train_lm(&setup(8, p, 2, 12), SyncSchedule::TwoHop);
        for (i, (a, b)) in base.losses.iter().zip(other.losses.iter()).enumerate() {
            assert!((a - b).abs() / a.abs().max(1e-9) < 5e-3, "p={p} iteration {i}: {a} vs {b}");
        }
    }
}

/// The world size changes the global batch (more ranks = more data per
/// step), so different world sizes legitimately give different curves —
/// but every world size must converge under 2-hop.
#[test]
fn two_hop_converges_at_every_world_size() {
    for world in [1usize, 2, 4, 8] {
        let p = world.min(2);
        let out = train_lm(&setup(world, p, 2, 15), SyncSchedule::TwoHop);
        assert!(*out.losses.last().unwrap() < out.losses[0], "world={world} did not improve");
    }
}

/// Gradient-accumulation depth interacts correctly with both hops: deeper
/// accumulation (same data per step via fewer iterations) still converges
/// and the boundary all-reduce fires once per optimizer step.
#[test]
fn accumulation_depths_all_converge() {
    for s in [1usize, 2, 4, 8] {
        let out = train_lm(&setup(4, 2, s, 12), SyncSchedule::TwoHop);
        assert!(
            *out.losses.last().unwrap() < out.losses[0] * 0.9,
            "s={s}: {:?}",
            (out.losses[0], out.losses.last())
        );
    }
}

/// Scaffolding for the kill-and-resume tests: the loss and gradient of a
/// micro-batch as a closure, visible to the test so a fault can be injected
/// into it.
struct Rig {
    hp: ScheduleHyper,
    init: Vec<f32>,
    model: TinyTransformer,
    seed: u64,
    micro_batch: usize,
}

fn rig(world: usize, p: usize, iters: usize) -> Rig {
    let model = TinyTransformer::new(5, 4, 4, 1, 8, 1);
    let seed = 4242u64;
    Rig {
        hp: ScheduleHyper {
            world,
            partition_size: p,
            accum_steps: 2,
            iterations: iters,
            lr: 0.015,
            quantize: false,
            loss_scale: LossScale::None,
            clip_grad_norm: None,
            comm_quant: None,
            prefetch_depth: 0,
        },
        init: model.init_params(seed),
        model,
        seed,
        micro_batch: 2,
    }
}

impl Rig {
    /// Run this rig's job on the local transport with `compute`.
    fn run(
        &self,
        schedule: SyncSchedule,
        start: Start<'_>,
        checkpoint: Option<(usize, &CheckpointSink)>,
        compute: &impl StepCompute,
    ) -> TrainOutcome {
        TrainRun { transport: TransportKind::Local, hyper: self.hp, schedule, start, checkpoint }
            .run(compute)
    }

    fn fresh(&self) -> Start<'static> {
        Start::Fresh(self.init.clone())
    }

    fn grad(&self) -> impl Fn(&[f32], usize, usize, usize) -> (f32, Vec<f32>) + Sync + '_ {
        move |params, iter, micro, rank| {
            let toks = token_batch(&self.model, self.seed, iter, micro, rank, self.micro_batch);
            self.model.loss_and_grad(params, &toks)
        }
    }
}

/// Round-trip a checkpoint through the sharded binary format: serialize as
/// `p` per-rank shard blobs, decode, reassemble — what a real job writes at
/// one cluster shape and reads back at another.
fn through_shard_blobs(ckpt: &TrainCheckpoint, p: usize) -> TrainCheckpoint {
    let numel = ckpt.state.params.len();
    let blobs: Vec<Vec<u8>> = ckpt.state.shard(p).iter().map(save).collect();
    let decoded: Vec<TrainState> =
        blobs.iter().map(|b| load(b).expect("blob must decode")).collect();
    TrainCheckpoint {
        state: TrainState::unshard(&decoded, numel),
        iterations_done: ckpt.iterations_done,
        scaler: ckpt.scaler,
    }
}

/// The tentpole robustness claim, training-loop half: kill a rank mid-run
/// (after a checkpoint was taken), resume from the checkpoint, and the
/// resumed losses and final parameters are **bit-exact** equal to an
/// uninterrupted run. The checkpoint travels through the sharded binary
/// format on the way back in.
#[test]
fn killed_run_resumes_bit_exact_from_checkpoint() {
    let r = rig(4, 2, 12);
    let uninterrupted = r.run(SyncSchedule::TwoHop, r.fresh(), None, &r.grad());

    // Same run, but rank 1 dies at iteration 8 — after the iteration-5
    // snapshot, losing the work since. The surviving ranks abort their
    // collectives instead of hanging (dataplane failure detection), so the
    // whole run fails fast.
    let sink = CheckpointSink::new();
    let grad = r.grad();
    let killer = |params: &[f32], iter: usize, micro: usize, rank: usize| {
        assert!(iter < 8 || rank != 1, "rank 1 must be dead by iteration 8");
        if iter == 8 && rank == 1 {
            panic!("injected node loss at iteration {iter}");
        }
        grad(params, iter, micro, rank)
    };
    let died = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        r.run(SyncSchedule::TwoHop, r.fresh(), Some((5, &sink)), &killer)
    }));
    assert!(died.is_err(), "the killed run must not complete");

    // The snapshot survived the crash; resume and compare the tail.
    let ckpt = sink.take().expect("checkpoint must survive the kill");
    assert_eq!(ckpt.iterations_done, 5);
    let ckpt = through_shard_blobs(&ckpt, 2);
    let resumed = r.run(SyncSchedule::TwoHop, Start::Resume(&ckpt), None, &r.grad());
    assert_eq!(resumed.losses, uninterrupted.losses[5..], "loss tail must be bit-exact");
    assert_eq!(resumed.final_params, uninterrupted.final_params, "params must be bit-exact");
}

/// MiCS moving between cluster shapes: a checkpoint taken at partition size
/// 4 resumes at partition size 2 through [`TrainState::reshard`]. Under the
/// per-micro-step all-reduce schedule the partition size only changes how
/// state is laid out — never what is computed — so the resumed run is
/// bit-exact against the uninterrupted p=4 run.
#[test]
fn resharded_resume_is_bit_exact() {
    let r4 = rig(4, 4, 10);
    let zero3 = SyncSchedule::PerMicroStepAllReduce;
    let uninterrupted = r4.run(zero3, r4.fresh(), None, &r4.grad());

    let sink = CheckpointSink::new();
    let full = r4.run(zero3, r4.fresh(), Some((4, &sink)), &r4.grad());
    assert_eq!(full, uninterrupted, "taking a snapshot must not perturb training");

    // 4-way shard blobs from the old shape, resharded to the new one.
    let ckpt = sink.take().unwrap();
    let numel = ckpt.state.params.len();
    let old_blobs: Vec<Vec<u8>> = ckpt.state.shard(4).iter().map(save).collect();
    let old_shards: Vec<TrainState> = old_blobs.iter().map(|b| load(b).unwrap()).collect();
    let new_shards = TrainState::reshard(&old_shards, numel, 2);
    let ckpt2 = TrainCheckpoint {
        state: TrainState::unshard(&new_shards, numel),
        iterations_done: ckpt.iterations_done,
        scaler: ckpt.scaler,
    };

    let mut r2 = rig(4, 2, 10);
    r2.hp.partition_size = 2;
    let resumed = r2.run(zero3, Start::Resume(&ckpt2), None, &r2.grad());
    assert_eq!(resumed.losses, uninterrupted.losses[4..]);
    assert_eq!(resumed.final_params, uninterrupted.final_params);
}

/// Quantized communication (PR 2 tentpole, §5.4 analogue): int8 block
/// quantization on both the weight gathers and the 2-hop gradient sync
/// perturbs each iteration's loss only within a small relative tolerance of
/// the exact-wire baseline — and the run still converges.
#[test]
fn int8_quantized_two_hop_tracks_exact_baseline() {
    use mics::minidl::{CompressionConfig, QuantScheme};
    let cfg = setup(4, 2, 2, 15);
    let exact = train_lm(&cfg, SyncSchedule::TwoHop);
    let mut q = setup(4, 2, 2, 15);
    q.comm_quant = Some(CompressionConfig::both(QuantScheme::int8()));
    let quantized = train_lm(&q, SyncSchedule::TwoHop);
    for (i, (a, b)) in exact.losses.iter().zip(quantized.losses.iter()).enumerate() {
        assert!((a - b).abs() / a.abs().max(1e-9) < 0.05, "iteration {i}: exact {a} vs int8 {b}");
    }
    assert!(
        *quantized.losses.last().unwrap() < quantized.losses[0] * 0.8,
        "int8 comm must still converge: {:?}",
        (quantized.losses[0], quantized.losses.last())
    );
}

/// The f16 passthrough scheme is bit-exact on wires that already carry f16
/// casts: with mixed precision on, compressing the weight gathers to f16
/// changes nothing at all.
#[test]
fn f16_passthrough_weight_gather_is_bit_exact() {
    use mics::minidl::{CompressionConfig, QuantScheme};
    let mut cfg = setup(4, 2, 2, 10);
    cfg.quantize = true;
    let exact = train_lm(&cfg, SyncSchedule::TwoHop);
    let mut f16 = cfg.clone();
    f16.comm_quant = Some(CompressionConfig::weights_only(QuantScheme::F16));
    let compressed = train_lm(&f16, SyncSchedule::TwoHop);
    assert_eq!(compressed.losses, exact.losses, "f16 wire must be lossless here");
    assert_eq!(compressed.final_params, exact.final_params);
}

/// Mixed precision (f16 parameter casts) degrades losses only slightly and
/// identically across schedules — quantization must commute with sharding.
#[test]
fn quantization_commutes_with_sharding() {
    let mut cfg = setup(4, 2, 2, 15);
    cfg.quantize = true;
    let mics = train_lm(&cfg, SyncSchedule::TwoHop);
    let zero3 = train_lm(&cfg, SyncSchedule::PerMicroStepAllReduce);
    for (i, (a, b)) in mics.losses.iter().zip(zero3.losses.iter()).enumerate() {
        assert!((a - b).abs() / a.abs().max(1e-9) < 5e-3, "iteration {i}: {a} vs {b}");
    }
    assert!(*mics.losses.last().unwrap() < mics.losses[0] * 0.7);
}

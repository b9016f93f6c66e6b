//! Cross-backend overlap contract: the async executor's *measured*
//! concurrency must match the concurrency `execute_on_sim` *charges* for the
//! same [`StepProgram`].
//!
//! Two independent derivations are compared, op id for op id:
//!
//! * **Static** — [`overlappable_wire_ops`] analyses the program's
//!   dependency edges (plus the implicit gradient-accumulation hazard) and
//!   returns the wire ops that admit compute between issue and first
//!   blocker. This is exactly the structure the simulator backend exploits:
//!   its lane streams only wait where edges (or the reduce-lane serialization
//!   of the accumulated gradient) force them to.
//! * **Runtime** — the executor under `prefetch_depth ≥ 1` records
//!   `deferred_wire_ops`: the collectives it actually retired after at least
//!   one intervening compute op ran on the real backend.
//!
//! If the executor deferred an op the analysis says is blocked, it broke a
//! dependency; if it failed to defer an op the analysis says is free, the
//! "overlap" the sim charges is fictional on the real backend. Equality is
//! the contract.

use mics::cluster::{ClusterSpec, InstanceType, Rank};
use mics::core::ops::SimCluster;
use mics::core::schedule::execute_on_sim;
use mics::minidl::scaler::LossScale;
use mics::minidl::train::{step_program, step_spec_with_flops, ScheduleHyper, SyncSchedule};
use mics::minidl::{overlappable_wire_ops, train_lm, LmSetup, TinyTransformer};
use std::collections::BTreeSet;

fn hyper(world: usize, p: usize, depth: usize) -> ScheduleHyper {
    ScheduleHyper {
        world,
        partition_size: p,
        accum_steps: 3,
        iterations: 2,
        lr: 0.02,
        quantize: false,
        loss_scale: LossScale::None,
        clip_grad_norm: None,
        comm_quant: None,
        prefetch_depth: depth,
    }
}

fn setup(world: usize, p: usize, depth: usize) -> LmSetup {
    LmSetup {
        model: TinyTransformer::new(5, 4, 4, 1, 8, 1),
        world,
        partition_size: p,
        micro_batch: 2,
        accum_steps: 3,
        iterations: 2,
        lr: 0.02,
        seed: 7,
        quantize: false,
        loss_scale: LossScale::None,
        clip_grad_norm: None,
        comm_quant: None,
        prefetch_depth: depth,
    }
}

/// Runtime deferred set == static overlappable set, restricted to the wire
/// ops whose group contains the reporting rank (rank 0).
#[test]
fn executor_defers_exactly_the_statically_overlappable_ops() {
    for (schedule, world, p) in [
        (SyncSchedule::TwoHop, 8, 4),
        (SyncSchedule::TwoHop, 4, 2),
        (SyncSchedule::PerMicroStepAllReduce, 4, 4),
        (SyncSchedule::Ddp, 4, 1),
    ] {
        let cfg = setup(world, p, 2);
        let prog = step_program(&hyper(world, p, 2), schedule, cfg.model.num_params());
        let structural: BTreeSet<usize> = overlappable_wire_ops(&prog)
            .into_iter()
            .filter(|&id| prog.executes_wire(id, Rank(0)))
            .collect();
        let out = train_lm(&cfg, schedule);
        let runtime: BTreeSet<usize> = out.lane_stats.deferred_wire_ops.iter().copied().collect();
        assert_eq!(
            runtime, structural,
            "{schedule:?} world={world} p={p}: executor deferrals disagree with the IR analysis"
        );
        // MiCS is the schedule with overlap to find; the contract must not
        // be vacuously satisfied there.
        if matches!(schedule, SyncSchedule::TwoHop) {
            assert!(!structural.is_empty(), "TwoHop must admit overlap");
        }
    }
}

/// The simulator charges the same concurrency structure the executor
/// realizes: with one partition group leading on rank 0, every collective
/// phase occupies rank 0's comm streams and each rank's compute is
/// `compute_busy / world`, so `1 - makespan / (compute/world + comm)` is the
/// fraction of time the sim hid communication under other work.
///
/// All sharded schedules get a small gain from gather-lane look-ahead (bwd
/// gathers have no dependency on fwd compute). On top of that, only the
/// schedule whose reduce ops [`overlappable_wire_ops`] marks free — MiCS
/// 2-hop — may beat ZeRO-3's gain; ZeRO-3's barriers fence its reduce lane,
/// and DDP (one boundary all-reduce feeding the optimizer) must charge no
/// overlap at all.
#[test]
fn sim_charges_the_concurrency_the_executor_realizes() {
    let world = 4;
    let gain = |schedule: SyncSchedule, p: usize| {
        let prog =
            step_spec_with_flops(&hyper(world, p, 1), schedule, 2_000_000, 4e9, 8e9).program();
        let mut inst = InstanceType::p3dn_24xlarge();
        inst.gpus_per_node = world;
        let mut sc = SimCluster::new(ClusterSpec::new(inst, 1));
        execute_on_sim(&prog, &mut sc, 1e12);
        let (makespan, compute_busy, comm_busy) = sc.run();
        let serial = compute_busy.as_secs_f64() / world as f64 + comm_busy.as_secs_f64();
        (1.0 - makespan.as_secs_f64() / serial, overlappable_wire_ops(&prog).len())
    };

    let (mics_gain, mics_overlappable) = gain(SyncSchedule::TwoHop, world);
    let (zero3_gain, zero3_overlappable) = gain(SyncSchedule::PerMicroStepAllReduce, world);
    let (ddp_gain, ddp_overlappable) = gain(SyncSchedule::Ddp, 1);

    // The analysis marks MiCS reduce-scatters of micro-steps 0..s-2 free
    // (they retire at the next micro-step's backward), and nothing else.
    assert!(mics_overlappable > 0);
    assert_eq!(zero3_overlappable, 0);
    assert_eq!(ddp_overlappable, 0);

    // The sim's charged gains line up with that structure.
    assert!(
        mics_gain > zero3_gain + 1e-3,
        "sim charged MiCS ({mics_gain:.4}) no reduce-lane gain over ZeRO-3 ({zero3_gain:.4})"
    );
    assert!(
        ddp_gain.abs() < 1e-9,
        "DDP has no sharded gathers and a post-compute all-reduce; charged gain {ddp_gain:.4}"
    );
}

//! Extension: comm/compute overlap measured on the *real* backend.
//!
//! MiCS §4 overlaps gradient synchronization with computation; the simulator
//! backend has always charged that overlap. This experiment shows the real
//! thread-rank backend now earns it: the fig15-class transformer LM is
//! trained under the MiCS 2-hop schedule twice — once with every collective
//! inline on the rank thread (`prefetch_depth = 0`) and once asynchronously
//! (`prefetch_depth = 2`, reduce-scatters in flight across the next
//! micro-step's forward plus cross-iteration gather prefetch) — and the
//! per-lane spans the executor records are compared.
//!
//! Enforced claims:
//!
//! * the two modes produce **bit-identical** losses and final parameters
//!   (the async engine reorders time, never arithmetic);
//! * the async run measures a **positive overlap fraction** (communication
//!   genuinely in flight under compute lane spans);
//! * wall-clock obeys [`overlap_wall_clock_claim`]: with a core per rank
//!   thread the async run's best time **beats the inline run's** in a
//!   majority of measurement rounds; with fewer — where the rank threads
//!   already saturate the cores and thread parallelism cannot shorten the
//!   critical path — it stays within a bounded scheduler tax;
//! * the time ranks spend **blocked on the wire collapses** on any host
//!   (the reduce retires after compute already ran instead of stalling it);
//! * the deferral/prefetch counters match the schedule's structure: one
//!   deferred reduce-scatter per non-final micro-step, one prefetched
//!   gather per iteration after the first.

use mics_bench::{f2, overlap_wall_clock_claim, write_json, Json, Table, ToJson, OVERLAP_WORLD};
use mics_cluster::{ClusterSpec, InstanceType};
use mics_core::ops::SimCluster;
use mics_core::schedule::execute_on_sim;
use mics_minidl::train::step_spec_with_flops;
use mics_minidl::{
    overlappable_wire_ops, train_lm, ExecLane, LmSetup, SyncSchedule, TinyTransformer, TrainOutcome,
};

const ROUNDS: usize = 3;
const RUNS_PER_ROUND: usize = 5;

fn lm_setup(prefetch_depth: usize) -> LmSetup {
    // The fig15 fidelity geometry: 8 ranks, partition groups of 2,
    // micro-batch 8 × 4 accumulation steps.
    LmSetup {
        model: TinyTransformer::new(9, 6, 8, 2, 16, 2),
        world: OVERLAP_WORLD,
        partition_size: 2,
        micro_batch: 8,
        accum_steps: 4,
        iterations: 30,
        lr: 0.015,
        seed: 20220615,
        quantize: false,
        loss_scale: mics_minidl::LossScale::None,
        clip_grad_norm: None,
        comm_quant: None,
        prefetch_depth,
    }
}

/// Best-of-N training runs; returns the outcome with the smallest wall time.
fn best_run(setup: &LmSetup) -> TrainOutcome {
    (0..RUNS_PER_ROUND)
        .map(|_| train_lm(setup, SyncSchedule::TwoHop))
        .min_by_key(|o| o.lane_stats.wall_ns)
        .unwrap()
}

fn main() {
    let inline_setup = lm_setup(0);
    let async_setup = lm_setup(2);

    // ── Wall-clock comparison, noise-tolerant: majority of rounds ───────
    let mut wins = 0usize;
    let mut inline: Option<TrainOutcome> = None;
    let mut asynced: Option<TrainOutcome> = None;
    for round in 0..ROUNDS {
        let i = best_run(&inline_setup);
        let a = best_run(&async_setup);
        assert_eq!(i, a, "the executor must be bit-identical across prefetch depths");
        let win = a.lane_stats.wall_ns < i.lane_stats.wall_ns;
        println!(
            "round {round}: inline {:.1} ms, async {:.1} ms ({})",
            i.lane_stats.wall_ns as f64 / 1e6,
            a.lane_stats.wall_ns as f64 / 1e6,
            if win { "async wins" } else { "inline wins" }
        );
        wins += win as usize;
        // Keep the best-of-all-rounds outcome per mode.
        if inline.as_ref().is_none_or(|b| i.lane_stats.wall_ns < b.lane_stats.wall_ns) {
            inline = Some(i);
        }
        if asynced.as_ref().is_none_or(|b| a.lane_stats.wall_ns < b.lane_stats.wall_ns) {
            asynced = Some(a);
        }
    }
    let inline = inline.unwrap();
    let asynced = asynced.unwrap();
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let speedup = inline.lane_stats.wall_ns as f64 / asynced.lane_stats.wall_ns as f64;
    overlap_wall_clock_claim(cores, wins, ROUNDS, speedup);

    // ── Structural claims ───────────────────────────────────────────────
    let overlap_fraction = asynced.lane_stats.overlap_fraction();
    assert!(overlap_fraction > 0.0, "async run must measure communication in flight under compute");
    assert!(inline.lane_stats.deferred_wire_ops.is_empty());
    assert_eq!(inline.lane_stats.prefetched_gathers, 0);
    assert_eq!(
        asynced.lane_stats.deferred_wire_ops.len(),
        async_setup.accum_steps - 1,
        "one deferred reduce-scatter per non-final micro-step"
    );
    assert_eq!(
        asynced.lane_stats.prefetched_gathers as usize,
        async_setup.iterations - 1,
        "one prefetched gather per iteration after the first"
    );

    // How much less time ranks spend blocked on collectives — the overlap
    // gain that survives a host with fewer cores than ranks.
    let comm_blocked_speedup =
        inline.lane_stats.comm_busy_ns() as f64 / asynced.lane_stats.comm_busy_ns() as f64;
    assert!(comm_blocked_speedup > 1.0, "deferred reduces must shrink collective blocking time");
    let mut t = Table::new(
        "Extension — real-backend overlap, fig15 transformer LM (MiCS 2-hop, 8 ranks, p=2)",
        &[
            "mode",
            "wall ms",
            "compute ms",
            "gather ms",
            "reduce ms",
            "overlap ms",
            "overlap frac",
            "deferred",
            "prefetched",
        ],
    );
    let ms = |ns: u64| format!("{:.2}", ns as f64 / 1e6);
    for (mode, out) in [("inline (depth 0)", &inline), ("async (depth 2)", &asynced)] {
        let s = &out.lane_stats;
        t.row(vec![
            mode.into(),
            ms(s.wall_ns),
            ms(s.busy_ns(ExecLane::Compute)),
            ms(s.busy_ns(ExecLane::Gather)),
            ms(s.busy_ns(ExecLane::Reduce)),
            ms(s.overlap_ns()),
            f2(s.overlap_fraction()),
            s.deferred_wire_ops.len().to_string(),
            s.prefetched_gathers.to_string(),
        ]);
    }
    t.print();
    println!(
        "\nasync executor: {speedup:.3}× wall-clock vs inline, overlap fraction \
         {overlap_fraction:.3}, losses bit-identical over {} iterations",
        async_setup.iterations
    );

    // ── Sim cross-reference: the same schedule, costed ──────────────────
    // The simulator backend charges overlap for exactly the reduce ops the
    // executor defers; report its makespan gain over the serialized bound
    // alongside the measured numbers.
    let hp = async_setup.hyper();
    let spec =
        step_spec_with_flops(&hp, SyncSchedule::TwoHop, async_setup.model.num_params(), 4e9, 8e9);
    let prog = spec.program();
    let overlappable = overlappable_wire_ops(&prog).len();
    let mut inst = InstanceType::p3dn_24xlarge();
    inst.gpus_per_node = hp.world;
    let mut sc = SimCluster::new(ClusterSpec::new(inst, 1));
    execute_on_sim(&prog, &mut sc, 1e12);
    let (makespan, compute_busy, comm_busy) = sc.run();
    let serial = compute_busy.as_secs_f64() / hp.world as f64 + comm_busy.as_secs_f64();
    let sim_gain = 1.0 - makespan.as_secs_f64() / serial;
    println!(
        "sim backend: {overlappable} overlappable wire ops, charged makespan gain \
         {:.1}% over the serialized bound",
        sim_gain * 100.0
    );
    assert!(overlappable > 0 && sim_gain > 0.0);

    write_json(
        "ext_overlap",
        &Json::obj([
            ("lanes", t.to_json()),
            ("iterations", Json::from(async_setup.iterations)),
            ("overlap_fraction", Json::from(overlap_fraction)),
            ("speedup", Json::from(speedup)),
            ("comm_blocked_speedup", Json::from(comm_blocked_speedup)),
            ("cores", Json::from(cores)),
            ("rounds_won", Json::from(wins)),
            ("rounds", Json::from(ROUNDS)),
            ("losses_bit_identical", Json::from(true)),
            (
                "deferred_wire_ops",
                Json::arr(asynced.lane_stats.deferred_wire_ops.iter().map(|&op| Json::from(op))),
            ),
            (
                "sim",
                Json::obj([
                    ("overlappable_wire_ops", Json::from(overlappable)),
                    ("charged_makespan_gain", Json::from(sim_gain)),
                ]),
            ),
        ]),
    );
}

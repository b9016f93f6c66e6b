//! Extension experiment (beyond the paper): elastic training over a spot
//! capacity trace.
//!
//! MiCS emits the synchronization schedule from an explicit `Geometry`,
//! and `reshape` re-emits it for any other geometry — so a job facing spot
//! preemptions does not have to stall until the full cluster is back. This
//! experiment quantifies that on both backends:
//!
//! * **Simulator sweep** — BERT 10B on 64 GPUs walks a seeded spot capacity
//!   trace (preemptions paired with later capacity returns) over 24 h, for a
//!   range of mean times between preemptions. The *elastic* policy reshapes
//!   onto the largest feasible surviving world at every capacity change
//!   (paying a state reshard plus the interrupted iteration, and instance
//!   provisioning on grow); the *static* policy keeps the full-cluster
//!   geometry, stalls through every outage, and resumes via checkpoint
//!   reload. Both policies face the identical seeded timeline.
//!
//! * **Real backend** — the minidl thread-rank stack trains the transformer
//!   LM through actual elastic phase chains: a shrink-and-grow-back bounce
//!   must land **bit-identical** to the uninterrupted run (state round-trips
//!   through the foreign geometry's sharding untouched), on the in-process
//!   *and* the socket transport; and a genuine grow (2 → 4 ranks mid-run)
//!   must continue the loss curve exactly where the small world left it.
//!
//! Enforced claims: same fault fingerprint across policies; elastic goodput
//! never below static and strictly above under churn; elastic goodput
//! degrades monotonically with churn; reshapes and grows actually happen;
//! and every real-backend continuity check is exact, not approximate.

use mics_bench::{accum_steps, v100, write_json, Json, Table, ToJson};
use mics_core::{simulate_elastic, spot_plan, MicsConfig, SpotPolicy, Strategy, TrainingJob};
use mics_dataplane::TransportKind;
use mics_minidl::{
    train_elastic_on, train_lm, ElasticPhase, LmSetup, LossScale, SyncSchedule, TinyTransformer,
};
use mics_model::TransformerConfig;
use mics_simnet::SimTime;

/// Simulator half: goodput vs preemption rate, elastic vs static.
fn sim_sweep() -> Json {
    let nodes = 8;
    let n = nodes * 8;
    let job = TrainingJob {
        workload: TransformerConfig::bert_10b().workload(8),
        cluster: v100(nodes),
        strategy: Strategy::Mics(MicsConfig::paper_defaults(8)),
        accum_steps: accum_steps(n, 8, 8192),
    };
    let horizon = SimTime::from_secs(24 * 3600);
    let outage = SimTime::from_secs(30 * 60);
    let seed = 2026;

    let mut t = Table::new(
        "Extension — elastic vs static on a spot capacity trace \
         (BERT 10B, 64 GPUs, 24 h, 30 min mean outage, seeded)",
        &[
            "mean time between preemptions",
            "preemptions",
            "grows",
            "reshapes",
            "min nodes",
            "elastic goodput",
            "static goodput",
        ],
    );
    let mut elastic_goodputs = Vec::new();
    let mut total_preemptions = 0usize;
    let mut strictly_better = 0usize;
    for mtbf_hours in [24u64, 8, 2] {
        let plan = spot_plan(&job, seed, SimTime::from_secs(mtbf_hours * 3600), outage, horizon);
        let el = simulate_elastic(&job, &plan, horizon, SpotPolicy::Elastic).expect("fits");
        let st = simulate_elastic(&job, &plan, horizon, SpotPolicy::Static).expect("fits");
        assert_eq!(
            el.fault_fingerprint, st.fault_fingerprint,
            "both policies must walk the identical capacity trace"
        );
        assert_eq!(st.reshapes, 0, "the static policy never reshapes");
        assert!(
            el.goodput_fraction >= st.goodput_fraction,
            "elastic must never trail static ({} vs {} at MTBF {mtbf_hours} h)",
            el.goodput_fraction,
            st.goodput_fraction
        );
        if el.preemptions > 0 {
            assert!(el.reshapes > 0, "preempted elastic runs must actually reshape");
        }
        if el.goodput_fraction > st.goodput_fraction {
            strictly_better += 1;
        }
        total_preemptions += el.preemptions;
        elastic_goodputs.push(el.goodput_fraction);
        t.row(vec![
            format!("{mtbf_hours} h"),
            format!("{}", el.preemptions),
            format!("{}", el.grows),
            format!("{}", el.reshapes),
            format!("{}", el.min_nodes),
            format!("{:.1}%", el.goodput_fraction * 100.0),
            format!("{:.1}%", st.goodput_fraction * 100.0),
        ]);
    }
    assert!(total_preemptions > 0, "the sweep must actually exercise preemptions");
    assert!(strictly_better > 0, "elastic must strictly beat static somewhere in the sweep");
    for w in elastic_goodputs.windows(2) {
        assert!(w[0] >= w[1], "elastic goodput must degrade monotonically with churn");
    }
    t.print();
    t.to_json()
}

fn elastic_setup(world: usize, p: usize, iters: usize) -> LmSetup {
    LmSetup {
        model: TinyTransformer::new(7, 5, 8, 2, 12, 1),
        world,
        partition_size: p,
        micro_batch: 4,
        accum_steps: 2,
        iterations: iters,
        lr: 0.02,
        seed: 2022,
        quantize: false,
        loss_scale: LossScale::None,
        clip_grad_norm: None,
        comm_quant: None,
        prefetch_depth: 0,
    }
}

/// Real-backend half: actual elastic phase chains through the minidl
/// engine, exactness asserted (not approximated).
fn real_backend() -> Json {
    // Shrink-and-grow-back bounce vs the uninterrupted run: the reshape
    // round-trip [G t1 | →G′ | →G t2] must be bit-identical to [G t1+t2],
    // in both directions and on both transports.
    let base = elastic_setup(4, 2, 10);
    let flat = train_lm(&base, SyncSchedule::TwoHop);
    let mut bounce_checks = 0usize;
    for (w, p) in [(2usize, 1usize), (8, 4)] {
        let phases = [
            ElasticPhase { world: 4, partition_size: 2, iterations: 6 },
            ElasticPhase { world: w, partition_size: p, iterations: 0 },
            ElasticPhase { world: 4, partition_size: 2, iterations: 4 },
        ];
        for transport in [TransportKind::Local, TransportKind::Socket] {
            let el = train_elastic_on(transport, &base, SyncSchedule::TwoHop, &phases);
            assert_eq!(
                el.losses, flat.losses,
                "bounce through {w}/{p} on {transport:?} drifted the loss curve"
            );
            assert_eq!(
                el.final_params, flat.final_params,
                "bounce through {w}/{p} on {transport:?} drifted the parameters"
            );
            bounce_checks += 1;
        }
    }

    // A genuine grow: train at 2 ranks, grow to 4 mid-run. The pre-grow
    // prefix must continue the 2-rank loss curve exactly, and the grown
    // world must keep making progress.
    let small = elastic_setup(2, 1, 10);
    let uninterrupted = train_lm(&small, SyncSchedule::TwoHop);
    let phases = [
        ElasticPhase { world: 2, partition_size: 1, iterations: 5 },
        ElasticPhase { world: 4, partition_size: 2, iterations: 5 },
    ];
    let grown = train_elastic_on(TransportKind::Local, &small, SyncSchedule::TwoHop, &phases);
    assert_eq!(
        grown.losses[..5],
        uninterrupted.losses[..5],
        "the grow must resume exactly where the small world left off"
    );
    assert_eq!(grown.losses.len(), 10);
    let first = grown.losses[0];
    let last = *grown.losses.last().unwrap();
    assert!(last.is_finite() && last < first, "the grown world must keep training");

    println!("\nreal backend: {bounce_checks} bounce chains (2/1 and 8/4, local + socket)");
    println!("bit-identical to the uninterrupted run; 2→4 grow continues the loss");
    println!("curve exactly ({first:.4} → {last:.4} over 10 iterations)");

    Json::obj([
        ("bounce_bit_exact", Json::Bool(true)),
        ("bounce_checks", Json::from(bounce_checks)),
        ("bounce_geometries", Json::arr(["2/1", "8/4"])),
        ("transports", Json::arr(["local", "socket"])),
        ("grow_prefix_bit_exact", Json::Bool(true)),
        ("grow_phases", Json::arr(["2 ranks × 5 iters", "4 ranks × 5 iters"])),
        ("first_loss", Json::from(first as f64)),
        ("final_loss", Json::from(last as f64)),
    ])
}

fn main() {
    let sweep = sim_sweep();
    let real = real_backend();
    write_json(
        "ext_elastic",
        &Json::obj([
            ("sweep", sweep),
            ("real_backend", real),
            ("horizon_hours", Json::from(24u64)),
            ("mean_outage_minutes", Json::from(30u64)),
            ("seed", Json::from(2026u64)),
        ]),
    );
    println!("\nelastic reshaping turns spot churn from dead time into degraded-but-");
    println!("forward progress: the schedule is a function of the geometry, so shrink");
    println!("and grow are re-emissions plus a state reshard, not a redeploy.");
}

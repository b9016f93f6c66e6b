//! Integration tests for features beyond the paper's evaluation: the
//! configuration auto-tuner (§7 future work), straggler isolation, traced
//! simulation, and the transformer-LM fidelity path.

use mics::cluster::{ClusterSpec, InstanceType, NodeId};
use mics::core::{
    poisson_failures, simulate, simulate_dp_traced, simulate_elastic, simulate_with_failures,
    spot_plan, tune, MicsConfig, SpotPolicy, Strategy, TrainingJob, ZeroStage,
};
use mics::minidl::{train_lm, LmSetup, LossScale, SyncSchedule, TinyTransformer};
use mics::model::TransformerConfig;
use mics::simnet::SimTime;

fn v100(nodes: usize) -> ClusterSpec {
    ClusterSpec::new(InstanceType::p3dn_24xlarge(), nodes)
}

fn throughput(cluster: &ClusterSpec, strategy: Strategy, s: usize) -> f64 {
    let job = TrainingJob {
        workload: TransformerConfig::bert_10b().workload(8),
        cluster: cluster.clone(),
        strategy,
        accum_steps: s,
    };
    simulate(&job).expect("fits").samples_per_sec
}

/// A degraded node hurts MiCS far less than ZeRO-3: small partition groups
/// keep most traffic off the slow NIC; cluster-wide collectives cannot.
#[test]
fn straggler_isolation() {
    let clean = v100(4);
    let slow = v100(4).with_slow_node(NodeId(3), 0.25);
    let mics = |c: &ClusterSpec| throughput(c, Strategy::Mics(MicsConfig::paper_defaults(8)), 8);
    let z3 = |c: &ClusterSpec| throughput(c, Strategy::Zero(ZeroStage::Three), 8);
    let mics_kept = mics(&slow) / mics(&clean);
    let z3_kept = z3(&slow) / z3(&clean);
    assert!(mics_kept > 0.75, "MiCS kept only {mics_kept:.2}");
    assert!(z3_kept < 0.60, "ZeRO-3 kept {z3_kept:.2} — should be dragged down");
    assert!(mics_kept > z3_kept + 0.2);
}

/// A straggler inside a partition group *does* hurt that group's gathers —
/// the isolation comes from the geometry, not magic.
#[test]
fn straggler_inside_the_partition_group_hurts() {
    let clean = v100(4);
    let slow = v100(4).with_slow_node(NodeId(0), 0.25);
    // p = 16: groups span 2 nodes; node 0's slowness taxes group 0's
    // gathers and everyone else through the barrier-free but shared
    // boundary synchronization.
    let t = |c: &ClusterSpec| throughput(c, Strategy::Mics(MicsConfig::paper_defaults(16)), 8);
    let kept = t(&slow) / t(&clean);
    assert!(kept < 0.85, "multi-node groups must feel an in-group straggler: {kept:.2}");
}

/// The tuner beats (or matches) every hand-picked configuration it
/// explored, by construction — and the report agrees with re-simulation.
#[test]
fn tuner_is_consistent_with_direct_simulation() {
    let cluster = v100(4);
    let w = TransformerConfig::bert_10b().workload(8);
    let result = tune(&w, &cluster, 4).unwrap();
    for c in &result.explored {
        if let Ok(r) = &c.outcome {
            assert!(result.report.samples_per_sec >= r.samples_per_sec - 1e-9);
        }
    }
    let direct = simulate(&TrainingJob {
        workload: w,
        cluster,
        strategy: Strategy::Mics(result.best.clone()),
        accum_steps: 4,
    })
    .unwrap();
    assert_eq!(direct.iter_time, result.report.iter_time, "deterministic replay");
}

/// Traced simulation returns a loadable-looking chrome trace with spans on
/// compute and communication streams, and identical timing to the untraced
/// run.
#[test]
fn traced_simulation_matches_untraced() {
    let job = TrainingJob {
        workload: TransformerConfig::bert_10b().workload(8),
        cluster: v100(2),
        strategy: Strategy::Mics(MicsConfig::paper_defaults(8)),
        accum_steps: 2,
    };
    let plain = simulate(&job).unwrap();
    let (traced, json) = simulate_dp_traced(&job).unwrap();
    assert_eq!(plain.iter_time, traced.iter_time);
    assert!(json.starts_with("{\"traceEvents\":["));
    assert!(json.contains("\"name\":\"compute\""));
    assert!(json.contains("\"name\":\"transfer\""));
    assert!(json.contains("gather[0]"));
}

/// The transformer-LM fidelity path end-to-end: 8 thread-ranks, mixed
/// precision with dynamic loss scaling, clipping, MiCS vs DDP.
#[test]
fn transformer_lm_fidelity_end_to_end() {
    let cfg = LmSetup {
        model: TinyTransformer::new(7, 5, 8, 2, 12, 1),
        world: 8,
        partition_size: 2,
        micro_batch: 4,
        accum_steps: 2,
        iterations: 20,
        lr: 0.02,
        seed: 7,
        quantize: true,
        loss_scale: LossScale::Dynamic { init: 1024.0, growth_interval: 6 },
        clip_grad_norm: Some(5.0),
        comm_quant: None,
        prefetch_depth: 0,
    };
    let mics = train_lm(&cfg, SyncSchedule::TwoHop);
    let ddp = train_lm(&cfg, SyncSchedule::Ddp);
    assert_eq!(mics.skipped_steps, 0);
    for (i, (a, b)) in mics.losses.iter().zip(ddp.losses.iter()).enumerate() {
        assert!((a - b).abs() / a.abs().max(1e-9) < 5e-3, "iter {i}: {a} vs {b}");
    }
    assert!(*mics.losses.last().unwrap() < mics.losses[0] * 0.7);
}

/// Every field of the reports `ext_recovery` and `ext_elastic` compute in
/// their 2 h MTBF row, the one with the most transitions, pinned exactly:
/// the artifacts round goodput to 0.1 %.
#[test]
fn recovery_and_elastic_reports_are_pinned() {
    let (horizon, mtbf) = (SimTime::from_secs(24 * 3600), SimTime::from_secs(2 * 3600));
    let job = |strategy| TrainingJob {
        workload: TransformerConfig::bert_10b().workload(8),
        cluster: v100(8),
        strategy,
        accum_steps: 16,
    };
    let (mics, z3) =
        (job(Strategy::Mics(MicsConfig::paper_defaults(8))), job(Strategy::Zero(ZeroStage::Three)));
    let recovery = [&mics, &z3].map(|j| {
        format!(
            "{:?}",
            simulate_with_failures(j, &poisson_failures(j, 2022, mtbf, horizon), horizon)
        )
    });
    let spot = spot_plan(&mics, 2026, mtbf, SimTime::from_secs(30 * 60), horizon);
    let elastic = [SpotPolicy::Elastic, SpotPolicy::Static]
        .map(|policy| format!("{:?}", simulate_elastic(&mics, &spot, horizon, policy)));
    assert_eq!(
        recovery,
        [
            r#"Ok(RecoveryReport { label: "MiCS(p=8)", policy: PeerCopy { replication: 8 }, iter_time: SimTime(84267719700), per_failure: SimTime(188776143464), failures: 10, downtime: SimTime(1045084237640), lost_work: SimTime(842677197000), checkpoint_overhead: SimTime(198354895200), horizon: SimTime(86400000000000), goodput_fraction: 0.9758551350712962, effective_samples_per_sec: 94.86675674818406, fault_fingerprint: 13125111909779713369 })"#,
            r#"Ok(RecoveryReport { label: "ZeRO-3", policy: CheckpointReload, iter_time: SimTime(163683144964), per_failure: SimTime(707631546240), failures: 10, downtime: SimTime(1076315462400), lost_work: SimTime(6763323178536), checkpoint_overhead: SimTime(1586839161600), horizon: SimTime(86400000000000), goodput_fraction: 0.8908972476558333, effective_samples_per_sec: 44.58754903812325, fault_fingerprint: 13125111909779713369 })"#,
        ]
    );
    assert_eq!(
        elastic,
        [
            r#"Ok(ElasticReport { label: "MiCS(p=8)", policy: Elastic, preemptions: 16, grows: 16, reshapes: 32, transition_overhead: SimTime(4193805261619), stalled: SimTime(4193805261619), checkpoint_overhead: SimTime(198354895200), min_nodes: 5, horizon: SimTime(86400000000000), goodput_fraction: 0.9127894404091684, effective_samples_per_sec: 88.7358898811155, fault_fingerprint: 6417921649330005838 })"#,
            r#"Ok(ElasticReport { label: "MiCS(p=8)", policy: Static, preemptions: 16, grows: 16, reshapes: 0, transition_overhead: SimTime(6914771967440), stalled: SimTime(32310572843726), checkpoint_overhead: SimTime(1586839161600), min_nodes: 8, horizon: SimTime(86400000000000), goodput_fraction: 0.6076688425309491, effective_samples_per_sec: 59.073903693320595, fault_fingerprint: 6417921649330005838 })"#,
        ]
    );
}

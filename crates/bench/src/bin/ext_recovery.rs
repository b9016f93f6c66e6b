//! Extension experiment (beyond the paper): recovery from node loss.
//!
//! MiCS replicates model states across partition groups for communication
//! efficiency (§3.2) — but the same replication means a lost node's shards
//! survive on replication-group peers. Recovery is provision-and-copy:
//! P2P shard pulls over the cluster's own NICs, cost-modeled on the
//! simulated fabric. ZeRO-3 shards every state exactly once, so a node
//! loss forces a cluster-wide checkpoint reload plus redoing all work
//! since the checkpoint.
//!
//! BERT 10B on 64 GPUs (8 × p3dn.24xlarge): we sweep the node MTBF of a
//! seeded Poisson failure process over a 24 h window and report per-failure
//! recovery time and goodput for both policies. Same seed ⇒ identical
//! failure timeline for both systems and across reruns.

use mics_bench::{accum_steps, v100, Table};
use mics_core::{
    poisson_failures, simulate_with_failures, MicsConfig, Strategy, TrainingJob, ZeroStage,
};
use mics_model::TransformerConfig;
use mics_simnet::SimTime;

fn main() {
    let nodes = 8;
    let n = nodes * 8;
    let w = TransformerConfig::bert_10b().workload(8);
    let s = accum_steps(n, 8, 8192);
    let horizon = SimTime::from_secs(24 * 3600);
    let seed = 2022;

    let job = |strategy: Strategy| TrainingJob {
        workload: w.clone(),
        cluster: v100(nodes),
        strategy,
        accum_steps: s,
    };
    let mics = job(Strategy::Mics(MicsConfig::paper_defaults(8)));
    let z3 = job(Strategy::Zero(ZeroStage::Three));

    let mut t = Table::new(
        "Extension — node-loss recovery (BERT 10B, 64 GPUs, 24 h, seeded Poisson failures)",
        &[
            "node MTBF",
            "failures",
            "MiCS recovery/failure",
            "MiCS goodput",
            "ZeRO-3 recovery/failure",
            "ZeRO-3 goodput",
        ],
    );
    for mtbf_hours in [24u64, 8, 2] {
        let plan_m = poisson_failures(&mics, seed, SimTime::from_secs(mtbf_hours * 3600), horizon);
        let plan_z = poisson_failures(&z3, seed, SimTime::from_secs(mtbf_hours * 3600), horizon);
        assert_eq!(
            plan_m.fingerprint(),
            plan_z.fingerprint(),
            "both systems must face the identical failure timeline"
        );
        let rm = simulate_with_failures(&mics, &plan_m, horizon).expect("fits");
        let rz = simulate_with_failures(&z3, &plan_z, horizon).expect("fits");
        assert!(
            rm.per_failure < rz.per_failure,
            "MiCS recovery must beat ZeRO-3 ({:?} vs {:?})",
            rm.per_failure,
            rz.per_failure
        );
        t.row(vec![
            format!("{mtbf_hours} h"),
            format!("{}", rm.failures),
            format!("{:.0} s", rm.per_failure.as_secs_f64()),
            format!("{:.1}%", rm.goodput_fraction * 100.0),
            format!("{:.0} s", rz.per_failure.as_secs_f64()),
            format!("{:.1}%", rz.goodput_fraction * 100.0),
        ]);
    }
    t.finish("ext_recovery");
    println!("\nMiCS restores a lost node's shards from replication-group peers (P2P over");
    println!("the cluster's own NICs) and loses one iteration; ZeRO-3 has no surviving");
    println!("replica, so every rank reloads the checkpoint and redoes the gap.");
}

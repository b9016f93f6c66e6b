//! Extension: one-knob-at-a-time ablation of every MiCS design choice.
//!
//! Figures 12–14 ablate components in the paper's groupings; this bench
//! isolates each [`MicsConfig`] switch independently on the same workload
//! (BERT 15B, 64 GPUs — partition groups span 2 nodes so every knob is
//! live), reporting the throughput lost when it alone is turned off.

use mics_bench::{accum_steps, f1, run, v100, Table};
use mics_core::{MicsConfig, Strategy};
use mics_model::TransformerConfig;

fn main() {
    let model = TransformerConfig::bert_15b();
    let w = model.workload(8);
    let nodes = 8;
    let n = nodes * 8;
    let s = accum_steps(n, 8, 8192);
    let cluster = v100(nodes);

    let full = run(&w, &cluster, Strategy::Mics(MicsConfig::paper_defaults(16)), s)
        .expect("fits")
        .samples_per_sec;

    type Knob = (&'static str, fn(&mut MicsConfig));
    let knobs: [Knob; 5] = [
        ("hierarchical_allgather (§3.3)", |c| c.hierarchical_allgather = false),
        ("two_hop_sync (§3.4)", |c| c.two_hop_sync = false),
        ("fine_grained_sync (§4)", |c| c.fine_grained_sync = false),
        ("cached_decisions (§4)", |c| c.cached_decisions = false),
        ("coalesced_comm (§4)", |c| c.coalesced_comm = false),
    ];

    let mut t = Table::new(
        format!("Extension — single-knob ablation, {} on {} GPUs", model.name, n),
        &["knob turned off", "samples/sec", "Δ vs full MiCS"],
    );
    t.row(vec!["(none — full MiCS)".into(), f1(full), "—".into()]);
    for (name, apply) in knobs {
        let mut cfg = MicsConfig::paper_defaults(16);
        apply(&mut cfg);
        let thr = run(&w, &cluster, Strategy::Mics(cfg), s).expect("fits").samples_per_sec;
        t.row(vec![name.into(), f1(thr), format!("{:+.1}%", (thr / full - 1.0) * 100.0)]);
    }
    t.finish("ext_ablation");
    println!("\n(arena_memory affects feasibility, not steady-state speed — see the");
    println!(" fragmentation factors of `mics_core::memory` for its ablation)");
}

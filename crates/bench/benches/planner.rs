//! Microbenchmarks of the planner's per-query hot path: one simulator
//! call (on two nodes, and under ZeRO-3 on one node and on sixteen), one
//! tuner search, the canonical-key hash that indexes the memo cache, and a
//! memoized cache hit.
//!
//! These are the unit costs behind `ext_serve`'s throughput numbers: a
//! cache hit must be orders of magnitude cheaper than the simulation it
//! memoizes, and the key hash must be negligible against both.
//!
//! Besides the criterion registrations, `main` takes its own best-of-N
//! measurements (the vendored criterion shim prints but cannot persist) and
//! writes the per-query cost table to `results/BENCH_planner.json`.

use criterion::{criterion_group, Criterion};
use mics_bench::Table;
use mics_cluster::{ClusterSpec, InstanceType};
use mics_core::{simulate, tune, Canonical, Json, TrainingJob};
use mics_planner::PlanCache;
use std::hint::black_box;
use std::time::Instant;

/// The query every ext_serve phase is made of: BERT-1.5B on two p3dn
/// nodes under MiCS with partition groups of 8.
fn job() -> TrainingJob {
    TrainingJob {
        workload: mics_model::preset("bert-1.5b", 8).unwrap(),
        cluster: ClusterSpec::new(InstanceType::preset("p3dn").unwrap(), 2),
        strategy: mics_core::Strategy::parse("mics:8").unwrap(),
        accum_steps: 4,
    }
}

/// BERT-1.5B under ZeRO-3 on `nodes` p3dn nodes, where every group is the
/// whole cluster (128 members on sixteen nodes).
fn zero3_job(nodes: usize) -> TrainingJob {
    TrainingJob {
        cluster: ClusterSpec::new(InstanceType::preset("p3dn").unwrap(), nodes),
        strategy: mics_core::Strategy::parse("zero3").unwrap(),
        ..job()
    }
}

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("planner");
    g.sample_size(10);
    let job = job();
    g.bench_function("simulate", |b| b.iter(|| simulate(black_box(&job))));
    for (name, nodes) in [("simulate_1node", 1), ("simulate_16node", 16)] {
        let job = zero3_job(nodes);
        g.bench_function(name, |b| b.iter(|| simulate(black_box(&job))));
    }
    g.bench_function("tune", |b| {
        b.iter(|| tune(black_box(&job.workload), black_box(&job.cluster), job.accum_steps))
    });
    g.bench_function("canonical_key", |b| b.iter(|| black_box(&job).canonical_key()));
    let cache = PlanCache::new();
    let key = job.canonical_key();
    let far = Instant::now() + std::time::Duration::from_secs(3600);
    cache.get_or_compute(key, far, || Json::from("memoized")).unwrap();
    g.bench_function("cache_hit", |b| {
        b.iter(|| cache.get_or_compute(black_box(key), far, || unreachable!("must hit")))
    });
    g.finish();
}

criterion_group!(benches, bench);

/// Best-of-`samples` mean ns/iter of `f` over `iters` calls per sample.
fn best_ns(iters: u32, samples: u32, mut f: impl FnMut()) -> u64 {
    f(); // warmup
    let mut best = u64::MAX;
    for _ in 0..samples {
        let start = Instant::now();
        for _ in 0..iters {
            f();
        }
        best = best.min(start.elapsed().as_nanos() as u64 / iters as u64);
    }
    best.max(1)
}

fn main() {
    // `cargo bench` runs with cwd = crates/bench; hop to the workspace root
    // so the artifact lands in the repo-wide `results/` directory that
    // `tests/results_schema.rs` validates.
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    std::env::set_current_dir(root).expect("workspace root must exist");

    benches();

    let job = job();
    let sim_ns = best_ns(50, 7, || {
        black_box(simulate(black_box(&job))).ok();
    });
    let [sim_1node_ns, sim_16node_ns] = [1, 16].map(|nodes| {
        let job = zero3_job(nodes);
        best_ns(50, 7, || {
            black_box(simulate(black_box(&job))).ok();
        })
    });
    let tune_ns = best_ns(10, 7, || {
        black_box(tune(black_box(&job.workload), black_box(&job.cluster), job.accum_steps)).ok();
    });
    let key_ns = best_ns(200, 7, || {
        black_box(black_box(&job).canonical_key());
    });
    let cache = PlanCache::new();
    let key = job.canonical_key();
    let far = Instant::now() + std::time::Duration::from_secs(3600);
    cache.get_or_compute(key, far, || Json::from("memoized")).unwrap();
    let hit_ns = best_ns(200, 7, || {
        black_box(cache.get_or_compute(black_box(key), far, || unreachable!()).unwrap());
    });

    let mut table = Table::new(
        "planner per-query costs, bert-1.5b on 2×p3dn mics:8 accum 4 (simulate_1node and \
         simulate_16node: 1 and 16×p3dn zero3) (best-of-7, ns/iter)",
        &["operation", "ns", "vs cache hit"],
    );
    for (op, ns) in [
        ("simulate", sim_ns),
        ("simulate_1node", sim_1node_ns),
        ("simulate_16node", sim_16node_ns),
        ("tune", tune_ns),
        ("canonical_key", key_ns),
        ("cache_hit", hit_ns),
    ] {
        table.row(vec![
            op.to_string(),
            ns.to_string(),
            format!("{:.1}", ns as f64 / hit_ns as f64),
        ]);
    }
    table.finish("BENCH_planner");
}

//! Microbenchmarks of the mini-DL kernels across three generations: the
//! naive scalar `mics_minidl::kernels::reference`, the cache-blocked
//! autovectorized v1 (`mics_bench::blocked`), and the v2 SIMD
//! dispatch in `mics_minidl::kernels` (AVX-512 or AVX2+FMA lanes, on the
//! calling thread, into output slices allocated once). Causal attention has
//! no v1: its v1 is the scalar reference loop, so the `blocked_ns` cell of
//! its rows times that loop again.
//!
//! Besides the criterion registrations, `main` takes its own best-of-N
//! measurements (the vendored criterion shim prints but cannot persist),
//! writes the three-way table to `results/BENCH_kernels.json` with the SIMD
//! level that produced it (`avx512`, `avx2` or `scalar`), and
//! *asserts* the acceptance claims inline: SIMD ≥ 2× over the blocked
//! kernels on matmul and matmul_bt at both bench shapes, and SIMD ≥ 2×
//! over the reference loops on attention forward and backward at both LM
//! head shapes.

use criterion::{criterion_group, BenchmarkId, Criterion};
use mics_bench::{blocked, write_json, Json, Table, ToJson};
use mics_minidl::kernels;
use std::hint::black_box;
use std::time::Instant;

/// Deterministic pseudo-random buffer in roughly [-1, 1].
fn buf(len: usize, salt: u64) -> Vec<f32> {
    let mut s = salt.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    (0..len)
        .map(|_| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s >> 40) as f32 / (1u64 << 23) as f32 - 1.0
        })
        .collect()
}

/// GEMM-family shapes: a transformer-LM-sized problem (seq × model × ffn,
/// larger than the fig15 toy so timings resolve) and a square cache-stressing
/// one whose reduction crosses the KC tile.
const SHAPES: &[(usize, usize, usize)] = &[(32, 64, 128), (96, 384, 96)];

/// Attention shapes `(t, d, heads)`: the two LM models of the repo
/// benchmark (`lm_compute_local`; `lm_comm_socket` and `lm_q8_zero3_local`).
const ATTENTION_SHAPES: &[(usize, usize, usize)] = &[(32, 64, 4), (8, 96, 4)];

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("kernels");
    g.sample_size(10);
    for &(m, k, n) in SHAPES {
        let a = buf(m * k, 1);
        let b = buf(k * n, 2);
        let shape = format!("{m}x{k}x{n}");
        let mut out = vec![0.0f32; m * n];
        g.bench_with_input(BenchmarkId::new("matmul/simd", &shape), &(), |be, ()| {
            be.iter(|| kernels::matmul(black_box(&a), black_box(&b), m, k, n, black_box(&mut out)))
        });
        g.bench_with_input(BenchmarkId::new("matmul/blocked", &shape), &(), |be, ()| {
            be.iter(|| blocked::matmul(black_box(&a), black_box(&b), m, k, n))
        });
        g.bench_with_input(BenchmarkId::new("matmul/reference", &shape), &(), |be, ()| {
            be.iter(|| kernels::reference::matmul(black_box(&a), black_box(&b), m, k, n))
        });
    }
    g.finish();
}

criterion_group!(benches, bench);

/// Mean ns/iter of `f` over one sample of `iters` calls.
fn sample_ns(iters: u32, f: &mut impl FnMut()) -> u64 {
    let start = Instant::now();
    for _ in 0..iters {
        f();
    }
    (start.elapsed().as_nanos() as u64 / iters as u64).max(1)
}

/// The three timing variants of one kernel at one shape. The `dispatch`
/// closure runs the public v2 entry point (`simd_ns`).
struct Variants {
    reference_ns: u64,
    blocked_ns: u64,
    simd_ns: u64,
}

/// Best of 7 samples per variant. The variants' samples interleave, so a
/// slow stretch of a shared host lands on all of them rather than on one,
/// and the ratios gated below compare like with like.
fn measure(
    iters: u32,
    mut reference: impl FnMut(),
    mut blocked: impl FnMut(),
    mut dispatch: impl FnMut(),
) -> Variants {
    // Warm up.
    reference();
    blocked();
    dispatch();
    let mut best = [u64::MAX; 3];
    for _ in 0..7 {
        best[0] = best[0].min(sample_ns(iters, &mut reference));
        best[1] = best[1].min(sample_ns(iters, &mut blocked));
        best[2] = best[2].min(sample_ns(iters, &mut dispatch));
    }
    let [reference_ns, blocked_ns, simd_ns] = best;
    Variants { reference_ns, blocked_ns, simd_ns }
}

fn main() {
    // `cargo bench` runs with cwd = crates/bench; hop to the workspace root
    // so the artifact lands in the repo-wide `results/` directory that
    // `tests/results_schema.rs` validates.
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    std::env::set_current_dir(root).expect("workspace root must exist");

    benches();

    kernels::init();
    assert!(
        kernels::simd_active() || !kernels::simd_available(),
        "autodetection must engage the SIMD path on capable hosts"
    );

    let mut table = Table::new(
        "kernel microbenchmarks: scalar reference vs blocked (v1) vs SIMD dispatch \
         (v2), best-of-7 ns/iter; attention has no blocked v1, so its blocked_ns \
         times the scalar reference loop",
        &[
            "kernel",
            "shape",
            "reference_ns",
            "blocked_ns",
            "simd_ns",
            "speedup_simd_vs_blocked",
            "speedup_simd_vs_reference",
        ],
    );
    // The acceptance gate: (kernel, shape, simd-vs-blocked,
    // simd-vs-reference) checked after the table fills.
    let mut gated: Vec<(String, String, f64, f64)> = Vec::new();
    let mut fill = |table: &mut Table, kernel: &str, shape: String, v: Variants| {
        let vs_blocked = v.blocked_ns as f64 / v.simd_ns as f64;
        let vs_reference = v.reference_ns as f64 / v.simd_ns as f64;
        gated.push((kernel.to_string(), shape.clone(), vs_blocked, vs_reference));
        table.row(vec![
            kernel.to_string(),
            shape,
            v.reference_ns.to_string(),
            v.blocked_ns.to_string(),
            v.simd_ns.to_string(),
            format!("{vs_blocked:.2}"),
            format!("{vs_reference:.2}"),
        ]);
    };

    for &(m, k, n) in SHAPES {
        let a = buf(m * k, 1);
        let b = buf(k * n, 2);
        let d = buf(m * n, 3);
        let shape = format!("{m}x{k}x{n}");
        let (mut mm, mut bt) = (vec![0.0f32; m * n], vec![0.0f32; m * k]);

        let v = measure(
            20,
            || {
                black_box(kernels::reference::matmul(black_box(&a), black_box(&b), m, k, n));
            },
            || {
                black_box(blocked::matmul(black_box(&a), black_box(&b), m, k, n));
            },
            || {
                kernels::matmul(black_box(&a), black_box(&b), m, k, n, black_box(&mut mm));
            },
        );
        fill(&mut table, "matmul", shape.clone(), v);

        let v = measure(
            20,
            || {
                black_box(kernels::reference::matmul_bt(black_box(&d), black_box(&b), m, n, k));
            },
            || {
                black_box(blocked::matmul_bt(black_box(&d), black_box(&b), m, n, k));
            },
            || {
                kernels::matmul_bt(black_box(&d), black_box(&b), m, n, k, black_box(&mut bt));
            },
        );
        fill(&mut table, "matmul_bt", shape.clone(), v);

        let mut g1 = vec![0.0f32; k * n];
        let mut g2 = vec![0.0f32; k * n];
        let mut g3 = vec![0.0f32; k * n];
        let v = measure(
            20,
            || {
                kernels::reference::acc_matmul_at(
                    black_box(&a),
                    black_box(&d),
                    m,
                    k,
                    n,
                    black_box(&mut g1),
                );
            },
            || {
                blocked::acc_matmul_at(black_box(&a), black_box(&d), m, k, n, black_box(&mut g2));
            },
            || {
                kernels::acc_matmul_at(black_box(&a), black_box(&d), m, k, n, black_box(&mut g3));
            },
        );
        fill(&mut table, "acc_matmul_at", shape, v);
    }

    for &(t, d, h) in ATTENTION_SHAPES {
        let (q, k, v) = (&buf(t * d, 9), &buf(t * d, 10), &buf(t * d, 11));
        let d_ctx = &buf(t * d, 12);
        let (mut att, mut ctx) = (vec![0.0f32; h * t * t], vec![0.0f32; t * d]);
        let [mut d_q, mut d_k, mut d_v] = [(); 3].map(|_| vec![0.0f32; t * d]);
        let mut s = vec![0.0f32; kernels::attention_scratch_len(t, d, h)];
        kernels::attention_forward(q, k, v, t, d, h, [&mut att, &mut ctx], &mut s);
        let shape = format!("t{t}xd{d}xh{h}");
        let r = || {
            black_box(kernels::reference::attention_forward(black_box(q), k, v, t, d, h));
        };
        let vs = measure(200, r, r, || {
            let outs = [black_box(&mut att[..]), &mut ctx[..]];
            kernels::attention_forward(black_box(q), k, v, t, d, h, outs, &mut s);
        });
        fill(&mut table, "attention_forward", shape.clone(), vs);
        let r = || {
            black_box(kernels::reference::attention_backward(
                black_box(q),
                k,
                v,
                &att,
                d_ctx,
                t,
                d,
                h,
            ));
        };
        let vs = measure(200, r, r, || {
            let grads = [black_box(&mut d_q[..]), &mut d_k[..], &mut d_v[..]];
            kernels::attention_backward(black_box(q), k, v, &att, d_ctx, t, d, h, grads, &mut s);
        });
        fill(&mut table, "attention_backward", shape, vs);
    }

    // The nanoseconds are only comparable between runs on the same lanes,
    // so the artifact names the widest backend that produced them.
    table.print();
    let mut doc = table.to_json();
    if let Json::Obj(fields) = &mut doc {
        fields.push(("simd".into(), Json::from(kernels::simd_level())));
    }
    write_json("BENCH_kernels", &doc);

    // Kernels-v2 acceptance claim (also re-checked from the committed JSON
    // by tests/results_schema.rs): on SIMD hosts the dispatch beats the v1
    // blocked kernels ≥ 2× on both GEMM-shaped matmul kernels.
    // Attention's claim is against its scalar reference loop.
    if kernels::simd_available() {
        for (kernel, shape, vs_blocked, vs_reference) in &gated {
            if kernel == "matmul" || kernel == "matmul_bt" {
                assert!(
                    *vs_blocked >= 2.0,
                    "{kernel}@{shape}: SIMD vs blocked {vs_blocked:.2}x < 2x"
                );
            }
            if kernel.starts_with("attention_") {
                assert!(
                    *vs_reference >= 2.0,
                    "{kernel}@{shape}: SIMD vs reference {vs_reference:.2}x < 2x"
                );
            }
        }
    }
    let stats = kernels::kernel_stats();
    let flops = stats.iter().find(|(n, _)| n == "kernel.flops").map(|(_, v)| *v).unwrap_or(0);
    println!("kernels bench: total FLOPs accounted {flops}");
}

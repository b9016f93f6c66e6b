//! Extension experiment (beyond the paper): a FLOP-budgeted **isoFLOP
//! sweep** over model sizes, spending the Kernels-v2 compute speedup on a
//! scaling-law-shaped question the paper's fixed-size fidelity run (§5.4)
//! never asks: *at a fixed compute budget, which model size trains best?*
//!
//! The corpus is an order-2 stochastic token table: `tokᵢ = T[tokᵢ₋₂][tokᵢ₋₁]`
//! with probability 1−ε and a uniform random token otherwise, where `T` is a
//! seeded `V×V` lookup. Unlike the order-1 affine chain of `mics_minidl::lm`
//! (learnable by any model), predicting this stream requires representing all
//! `V²` contexts — so small models hit a capacity floor while, at a fixed
//! FLOP budget, large models run out of optimizer steps. Each budget's
//! eval-loss-vs-size curve is therefore U-shaped, and the budget-optimal
//! size `N_opt` grows with the budget — the classic isoFLOP picture.
//!
//! Every (budget, size) cell trains under all three synchronization
//! schedules — DDP, ZeRO-3 (`PerMicroStepAllReduce`), and MiCS (`TwoHop`) —
//! on real thread-ranks, extending the §5.4 fidelity claim to the whole
//! sweep: the curves are fit on MiCS losses, and DDP/ZeRO-3 must agree.
//! Budgets are honored through the kernel FLOP counters (`flops_total`), so
//! the iteration count per cell is *measured*, not estimated.
//!
//! Enforced claims: ≥ 3 budgets; each budget's eval-loss curve is U-shaped
//! (strictly interior argmin and positive parabola curvature in log-size);
//! `N_opt` and `D_opt` grow as power laws of the budget with exponents in
//! (0, 1) summing to ≈ 1; schedule disagreement stays within tolerance; and
//! the sweep's measured kernel throughput is positive. The artifact lands in
//! `results/ext_sweep.json` (schema-checked by `tests/results_schema.rs`).
//!
//! `--smoke` runs a miniature budget end-to-end (same code path, no curve
//! assertions) and does **not** overwrite the committed artifact.

use mics_bench::{write_json, Json, Table, ToJson};
use mics_dataplane::TransportKind;
use mics_minidl::{
    flops_total, LossScale, ScheduleHyper, Start, SyncSchedule, TinyTransformer, TrainOutcome,
    TrainRun,
};
use std::time::Instant;

/// Vocabulary of the token table.
const VOCAB: usize = 16;
/// Context length fed to the model.
const SEQ_LEN: usize = 8;
/// Per-position probability (‰) of emitting a uniform random token instead
/// of the table entry — the irreducible-entropy floor of the stream.
const NOISE_PERMILLE: u64 = 100;
/// Data-parallel ranks (MiCS partition group spans the world, so the ZeRO-3
/// and 2-hop schedules are exercised at full partition).
const WORLD: usize = 2;
/// Sequences per rank per micro-step.
const MICRO_BATCH: usize = 8;
/// Micro-steps per optimizer step.
const ACCUM: usize = 1;
/// Adam learning rate (shared across sizes; the grid is narrow enough that
/// one rate is stable everywhere).
const LR: f32 = 0.02;
/// Master seed for the table, initialization, and data stream.
const SEED: u64 = 20260807;

/// The isoFLOP budgets, in kernel FLOPs per (budget, size) cell. Geometric
/// ×3 spacing so the fitted `ln N_opt` vs `ln C` line has real leverage.
const BUDGETS: &[f64] = &[2.0e8, 6.0e8, 1.8e9];
/// Model widths of the size grid (heads = 2, ffn = 2·d, 1 layer).
const WIDTHS: &[usize] = &[4, 8, 16, 32, 48];

fn mix(key: &mut u64, coord: u64) {
    *key = key
        .wrapping_add(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(coord.wrapping_mul(0xd1b5_4a32_d192_ed03));
    *key ^= *key >> 29;
    *key = key.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    *key ^= *key >> 32;
}

fn hash(seed: u64, coords: &[u64]) -> u64 {
    let mut key = seed;
    for &c in coords {
        mix(&mut key, c);
    }
    key
}

/// The seeded order-2 transition table `T[prev2][prev1] → next`.
fn token_table(seed: u64) -> Vec<usize> {
    (0..VOCAB * VOCAB)
        .map(|i| (hash(seed, &[0x7ab1_e5a1, i as u64]) % VOCAB as u64) as usize)
        .collect()
}

/// Deterministic micro-batch of `nseq` sequences (`nseq × (SEQ_LEN + 1)`
/// row-major) for coordinates (`iteration`, `micro`, `rank`).
fn token_batch(
    table: &[usize],
    seed: u64,
    iteration: usize,
    micro: usize,
    rank: usize,
    nseq: usize,
) -> Vec<usize> {
    let v = VOCAB as u64;
    let mut out = Vec::with_capacity(nseq * (SEQ_LEN + 1));
    for sample in 0..nseq {
        let base = hash(seed, &[iteration as u64, micro as u64, rank as u64, sample as u64]);
        let mut p2 = (base % v) as usize;
        let mut p1 = ((base >> 32) % v) as usize;
        out.push(p2);
        out.push(p1);
        for pos in 0..SEQ_LEN - 1 {
            let h = hash(base, &[pos as u64]);
            let next = if h % 1000 < NOISE_PERMILLE {
                ((h >> 32) % v) as usize
            } else {
                table[p2 * VOCAB + p1]
            };
            out.push(next);
            p2 = p1;
            p1 = next;
        }
    }
    out
}

fn model_of_width(d: usize) -> TinyTransformer {
    TinyTransformer::new(VOCAB, SEQ_LEN, d, 2, 2 * d, 1)
}

/// Measured kernel FLOPs of one `loss_and_grad` call at this size — the
/// unit the budgets are denominated in (optimizer/collective arithmetic is
/// excluded by construction; it runs outside the kernel layer).
fn flops_per_call(model: &TinyTransformer, table: &[usize]) -> u64 {
    let params = model.init_params(SEED);
    let toks = token_batch(table, SEED ^ 0xca11, 0, 0, 0, MICRO_BATCH);
    let before = flops_total();
    let _ = model.loss_and_grad(&params, &toks);
    flops_total() - before
}

/// One training run of `model` for `iterations` steps under `schedule`.
fn run(
    model: &TinyTransformer,
    table: &[usize],
    iterations: usize,
    schedule: SyncSchedule,
) -> TrainOutcome {
    let hp = ScheduleHyper {
        world: WORLD,
        partition_size: WORLD,
        accum_steps: ACCUM,
        iterations,
        lr: LR,
        quantize: false,
        loss_scale: LossScale::None,
        clip_grad_norm: None,
        comm_quant: None,
        prefetch_depth: 0,
    };
    let data_seed = SEED ^ 0xda7a_57e4;
    let run = TrainRun {
        transport: TransportKind::Local,
        hyper: hp,
        schedule,
        start: Start::Fresh(model.init_params(SEED)),
        checkpoint: None,
    };
    run.run(&|params: &[f32], iter: usize, micro: usize, rank: usize| {
        let toks = token_batch(table, data_seed, iter, micro, rank, MICRO_BATCH);
        model.loss_and_grad(params, &toks)
    })
}

/// Least-squares line `y ≈ slope·x + intercept`.
fn line_fit(xs: &[f64], ys: &[f64]) -> (f64, f64) {
    let n = xs.len() as f64;
    let (sx, sy) = (xs.iter().sum::<f64>(), ys.iter().sum::<f64>());
    let sxx = xs.iter().map(|x| x * x).sum::<f64>();
    let sxy = xs.iter().zip(ys).map(|(x, y)| x * y).sum::<f64>();
    let slope = (n * sxy - sx * sy) / (n * sxx - sx * sx);
    (slope, (sy - slope * sx) / n)
}

/// Least-squares parabola `y ≈ a·x² + b·x + c` via the 3×3 normal
/// equations (Gaussian elimination with partial pivoting).
fn parabola_fit(xs: &[f64], ys: &[f64]) -> (f64, f64, f64) {
    let s = |k: u32| xs.iter().map(|x| x.powi(k as i32)).sum::<f64>();
    let t = |k: u32| xs.iter().zip(ys).map(|(x, y)| y * x.powi(k as i32)).sum::<f64>();
    let mut m =
        [[s(4), s(3), s(2), t(2)], [s(3), s(2), s(1), t(1)], [s(2), s(1), xs.len() as f64, t(0)]];
    for col in 0..3 {
        let pivot = (col..3).max_by(|&i, &j| m[i][col].abs().total_cmp(&m[j][col].abs())).unwrap();
        m.swap(col, pivot);
        for row in col + 1..3 {
            let f = m[row][col] / m[col][col];
            let pivot_row = m[col];
            for (cell, p) in m[row][col..].iter_mut().zip(&pivot_row[col..]) {
                *cell -= f * p;
            }
        }
    }
    let c2 = m[2][3] / m[2][2];
    let c1 = (m[1][3] - m[1][2] * c2) / m[1][1];
    let c0 = (m[0][3] - m[0][2] * c2 - m[0][1] * c1) / m[0][0];
    (c0, c1, c2)
}

/// One fitted isoFLOP curve: the per-size losses plus the parabola minimum.
struct BudgetFit {
    budget: f64,
    n_opt: f64,
    d_opt: f64,
    curvature: f64,
    argmin_index: usize,
}

fn main() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    std::env::set_current_dir(root).expect("workspace root must exist");
    let smoke = std::env::args().any(|a| a == "--smoke");

    mics_minidl::kernels::init();
    let table = token_table(SEED);

    let (budgets, widths): (Vec<f64>, Vec<usize>) =
        if smoke { (vec![2.0e7], vec![4, 8]) } else { (BUDGETS.to_vec(), WIDTHS.to_vec()) };

    // A fixed held-out batch, disjoint from every training coordinate by
    // seed, shared by all sizes and budgets.
    let eval_toks = token_batch(&table, SEED ^ 0xe7a1, 0, 0, 0, 64);

    let schedules = [
        ("ddp", SyncSchedule::Ddp),
        ("zero3", SyncSchedule::PerMicroStepAllReduce),
        ("mics", SyncSchedule::TwoHop),
    ];

    let mut t = Table::new(
        "Extension — isoFLOP sweep: eval cross-entropy vs model size at fixed \
         kernel-FLOP budgets (order-2 token table, 3 schedules on thread-ranks)",
        &[
            "budget_flops",
            "d_model",
            "params",
            "iterations",
            "tokens",
            "final_train_loss",
            "eval_loss_ddp",
            "eval_loss_zero3",
            "eval_loss_mics",
        ],
    );

    let flops_before = flops_total();
    let wall = Instant::now();
    let mut fits: Vec<BudgetFit> = Vec::new();
    let mut max_disagreement = 0.0f64;

    for &budget in &budgets {
        let mut ln_n: Vec<f64> = Vec::new();
        let mut ln_tokens: Vec<f64> = Vec::new();
        let mut eval_mics: Vec<f64> = Vec::new();
        for &d in &widths {
            let model = model_of_width(d);
            let n_params = model.num_params();
            let per_iter = flops_per_call(&model, &table) * (WORLD * ACCUM) as u64;
            let iterations = ((budget / per_iter as f64).round() as usize).max(2);
            let tokens = iterations * WORLD * ACCUM * MICRO_BATCH * SEQ_LEN;

            let mut evals = [0.0f32; 3];
            let mut final_train = 0.0f32;
            for (i, (_, schedule)) in schedules.iter().enumerate() {
                let out = run(&model, &table, iterations, *schedule);
                assert_eq!(out.skipped_steps, 0);
                evals[i] = model.loss_and_grad(&out.final_params, &eval_toks).0;
                final_train = *out.losses.last().unwrap();
            }
            // §5.4 fidelity, extended to the sweep: the three schedules are
            // the same optimization up to float-summation order.
            for i in 1..3 {
                let rel = ((evals[i] - evals[0]).abs() / evals[0].abs().max(1e-9)) as f64;
                max_disagreement = max_disagreement.max(rel);
                assert!(
                    rel < 5e-2,
                    "budget {budget:.1e} d={d}: {} eval {} vs ddp {} (rel {rel:.3})",
                    schedules[i].0,
                    evals[i],
                    evals[0]
                );
            }

            ln_n.push((n_params as f64).ln());
            ln_tokens.push((tokens as f64).ln());
            eval_mics.push(evals[2] as f64);
            t.row(vec![
                format!("{budget:.1e}"),
                d.to_string(),
                n_params.to_string(),
                iterations.to_string(),
                tokens.to_string(),
                format!("{final_train:.4}"),
                format!("{:.4}", evals[0]),
                format!("{:.4}", evals[1]),
                format!("{:.4}", evals[2]),
            ]);
        }

        if smoke {
            continue;
        }
        // U-shape: strictly interior argmin, positive curvature in log-size,
        // and an interior continuous minimum from the parabola fit.
        let argmin =
            (0..eval_mics.len()).min_by(|&i, &j| eval_mics[i].total_cmp(&eval_mics[j])).unwrap();
        assert!(
            argmin > 0 && argmin + 1 < eval_mics.len(),
            "budget {budget:.1e}: eval-loss argmin at grid edge (index {argmin} of {:?})",
            eval_mics
        );
        let (a, b, _) = parabola_fit(&ln_n, &eval_mics);
        assert!(a > 0.0, "budget {budget:.1e}: loss curve not convex in ln N (a = {a})");
        let x_opt = -b / (2.0 * a);
        assert!(
            x_opt > ln_n[0] && x_opt < *ln_n.last().unwrap(),
            "budget {budget:.1e}: fitted minimum ln N = {x_opt} outside the grid"
        );
        // Tokens at fixed C fall as a clean power of N; evaluate that line
        // at the fitted optimum for D_opt.
        let (slope, icept) = line_fit(&ln_n, &ln_tokens);
        fits.push(BudgetFit {
            budget,
            n_opt: x_opt.exp(),
            d_opt: (slope * x_opt + icept).exp(),
            curvature: a,
            argmin_index: argmin,
        });
    }

    let spent = flops_total() - flops_before;
    let gflops = spent as f64 / wall.elapsed().as_secs_f64() / 1e9;
    t.print();
    println!(
        "\nsweep spent {spent} kernel FLOPs in {:.1}s — {gflops:.2} GFLOP/s sustained",
        wall.elapsed().as_secs_f64()
    );
    println!("max schedule disagreement (relative eval loss): {max_disagreement:.2e}");

    if smoke {
        println!("smoke mode: skipping fits and the committed artifact");
        return;
    }

    // The scaling fits: N_opt ∝ C^α, D_opt ∝ C^β, with α + β ≈ 1 because
    // kernel FLOPs per token are ≈ linear in N.
    let ln_c: Vec<f64> = fits.iter().map(|f| f.budget.ln()).collect();
    let (alpha, _) = line_fit(&ln_c, &fits.iter().map(|f| f.n_opt.ln()).collect::<Vec<_>>());
    let (beta, _) = line_fit(&ln_c, &fits.iter().map(|f| f.d_opt.ln()).collect::<Vec<_>>());
    println!(
        "fitted exponents: N_opt ∝ C^{alpha:.3}, D_opt ∝ C^{beta:.3} (α+β = {:.3})",
        alpha + beta
    );
    assert!(fits.len() >= 3, "need ≥ 3 budgets for the power-law fit");
    assert!((0.0..1.0).contains(&alpha), "α = {alpha} outside (0, 1)");
    assert!((0.0..1.0).contains(&beta), "β = {beta} outside (0, 1)");
    assert!((alpha + beta - 1.0).abs() < 0.25, "α + β = {} far from 1", alpha + beta);
    for w in fits.windows(2) {
        assert!(
            w[1].n_opt > w[0].n_opt,
            "N_opt must grow with the budget ({} then {})",
            w[0].n_opt,
            w[1].n_opt
        );
    }

    let fits_json = Json::arr(fits.iter().map(|f| {
        Json::obj([
            ("budget_flops", Json::from(f.budget)),
            ("n_opt", Json::from(f.n_opt)),
            ("d_opt", Json::from(f.d_opt)),
            ("curvature", Json::from(f.curvature)),
            ("argmin_index", Json::from(f.argmin_index)),
            ("interior", Json::Bool(true)),
        ])
    }));
    write_json(
        "ext_sweep",
        &Json::obj([
            ("sweep", t.to_json()),
            ("budgets", Json::arr(budgets.iter().map(|&b| Json::from(b)))),
            ("fits", fits_json),
            (
                "exponents",
                Json::obj([
                    ("alpha", Json::from(alpha)),
                    ("beta", Json::from(beta)),
                    ("alpha_plus_beta", Json::from(alpha + beta)),
                ]),
            ),
            ("schedule_agreement_max_rel", Json::from(max_disagreement)),
            ("measured_gflops", Json::from(gflops)),
            ("vocab", Json::from(VOCAB)),
            ("seq_len", Json::from(SEQ_LEN)),
            ("noise_permille", Json::from(NOISE_PERMILLE)),
            ("world", Json::from(WORLD)),
            ("seed", Json::from(SEED)),
        ]),
    );
    println!("\nat a fixed FLOP budget the best model is neither the biggest nor the");
    println!("longest-trained: capacity and optimization steps trade off through the");
    println!("budget, and the optimum tracks a power law — measured end-to-end on the");
    println!("same kernels, schedules, and FLOP counters the fidelity runs use.");
}

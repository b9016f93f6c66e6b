//! Every artifact under `results/` must parse as JSON through the bench
//! harness's own document model ([`mics_bench::Json`]) and obey the schema
//! its producer promises — tables keep rows as wide as their headers, and
//! the extension benches' headline numbers stay inside their claimed
//! envelopes. This is the read-side counterpart of `write_json`: the
//! serializer and parser must agree on every file the repo ships.

use mics_bench::Json;
use std::path::{Path, PathBuf};

fn results_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("results")
}

fn parse(path: &Path) -> Json {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    Json::parse(&text).unwrap_or_else(|e| panic!("{} is not valid JSON: {e}", path.display()))
}

fn result_files() -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(results_dir())
        .expect("results/ must exist")
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    files.sort();
    assert!(files.len() >= 20, "expected the full result set, found {}", files.len());
    files
}

/// Every results file parses, and parsing is a fixpoint: re-serializing the
/// parsed document and parsing again yields the same value.
#[test]
fn every_results_file_parses_and_round_trips() {
    for path in result_files() {
        let doc = parse(&path);
        let again = Json::parse(&doc.pretty())
            .unwrap_or_else(|e| panic!("{} does not round-trip: {e}", path.display()));
        assert_eq!(again, doc, "{} round-trip changed the document", path.display());
    }
}

/// Table-shaped documents (title/headers/rows) keep every row exactly as
/// wide as the header, with string cells — what `Table::to_json` writes.
#[test]
fn table_documents_obey_the_table_schema() {
    let mut tables = 0;
    for path in result_files() {
        let doc = parse(&path);
        for table in table_views(&doc) {
            let headers = table.get("headers").and_then(Json::as_arr).unwrap();
            let rows = table.get("rows").and_then(Json::as_arr).unwrap();
            assert!(table.get("title").and_then(Json::as_str).is_some());
            assert!(!headers.is_empty() && !rows.is_empty(), "{}", path.display());
            for row in rows {
                let cells = row.as_arr().unwrap_or_else(|| panic!("{}", path.display()));
                assert_eq!(cells.len(), headers.len(), "{}: ragged row", path.display());
                assert!(cells.iter().all(|c| c.as_str().is_some()));
            }
            tables += 1;
        }
    }
    assert!(tables >= 20, "expected many table documents, found {tables}");
}

/// A document is a table view if it carries the title/headers/rows triple;
/// composite documents (like ext_compress.json) nest them one level down.
fn table_views(doc: &Json) -> Vec<&Json> {
    let is_table = |d: &Json| {
        d.get("title").is_some() && d.get("headers").is_some() && d.get("rows").is_some()
    };
    if is_table(doc) {
        return vec![doc];
    }
    match doc {
        Json::Obj(pairs) => pairs.iter().map(|(_, v)| v).filter(|v| is_table(v)).collect(),
        _ => Vec::new(),
    }
}

/// The quantized-collective extension's artifact carries both sweeps and a
/// fidelity record whose loss deviation stays inside the claimed bound.
#[test]
fn ext_compress_artifact_matches_its_claims() {
    let doc = parse(&results_dir().join("ext_compress.json"));
    let sweep = doc.get("bit_width_sweep").expect("bit-width sweep present");
    let headers = sweep.get("headers").and_then(Json::as_arr).unwrap();
    assert!(headers.iter().any(|h| h.as_str() == Some("vs fp32")));
    // The int8 row's fp32 wire ratio is the ~4× headline claim.
    let rows = sweep.get("rows").and_then(Json::as_arr).unwrap();
    let int8 = rows
        .iter()
        .filter_map(Json::as_arr)
        .find(|r| r[0].as_str() == Some("int8/128, both"))
        .expect("int8 row present");
    let vs_fp32: f64 =
        int8.last().unwrap().as_str().unwrap().trim_end_matches('×').parse().unwrap();
    assert!((3.2..4.2).contains(&vs_fp32), "claimed ~4×, artifact says {vs_fp32}×");

    assert!(doc.get("cluster_sweep").is_some());
    let fidelity = doc.get("fidelity").expect("fidelity record present");
    let dev = fidelity.get("max_relative_loss_deviation").and_then(Json::as_num).unwrap();
    assert!(dev < 0.05, "int8 training strayed {dev} from the exact run");
    let exact = fidelity.get("exact_losses").and_then(Json::as_arr).unwrap();
    let int8 = fidelity.get("int8_losses").and_then(Json::as_arr).unwrap();
    assert_eq!(exact.len(), int8.len());
    assert_eq!(exact.len() as f64, fidelity.get("iterations").and_then(Json::as_num).unwrap());
}

/// The multi-process extension's artifact backs its claims: every survivor
/// of the SIGKILL observed the death within the detection deadline, blamed
/// the right rank, and rebuilt a world that still gathers in order.
#[test]
fn ext_multiproc_artifact_matches_its_claims() {
    let doc = parse(&results_dir().join("ext_multiproc.json"));
    assert_eq!(doc.get("transport").and_then(Json::as_str), Some("socket"));

    let world = doc.get("world").and_then(Json::as_num).unwrap();
    let victim = doc.get("victim").and_then(Json::as_num).unwrap();
    assert!(victim < world);

    // Bounded-time failure detection, with real headroom under the deadline.
    let detect = doc.get("max_detect_ms").and_then(Json::as_num).unwrap();
    let deadline = doc.get("detect_deadline_ms").and_then(Json::as_num).unwrap();
    assert!(detect < deadline, "detection {detect} ms missed the {deadline} ms deadline");

    // The shrunk group kept every survivor, in world order, and gathered.
    assert_eq!(doc.get("shrunk_world").and_then(Json::as_num), Some(world - 1.0));
    assert_eq!(doc.get("all_survivors_recovered"), Some(&Json::Bool(true)));
    let post: Vec<f64> = doc
        .get("post_gather")
        .and_then(Json::as_arr)
        .expect("post_gather present")
        .iter()
        .map(|v| v.as_num().unwrap())
        .collect();
    let expected: Vec<f64> =
        (0..world as usize).map(|r| r as f64).filter(|r| *r != victim).collect();
    assert_eq!(post, expected, "rebuilt world must preserve survivor order");

    // One report per survivor, each having gathered before the kill.
    let survivors = doc.get("survivors").expect("survivor table present");
    let rows = survivors.get("rows").and_then(Json::as_arr).unwrap();
    assert_eq!(rows.len(), world as usize - 1);
    for row in rows.iter().filter_map(Json::as_arr) {
        let iters: f64 = row[1].as_str().unwrap().parse().unwrap();
        assert!(iters >= 1.0, "a survivor never collectivized before the kill");
        assert!(row[3].as_str().unwrap().contains(&format!("rank {victim}")), "wrong blame");
    }

    // And the elastic loop closed: a replacement process was admitted back
    // into the victim's slot and the world grew to its original size.
    assert_eq!(doc.get("grow"), Some(&Json::Bool(true)));
    assert_eq!(doc.get("grown_world").and_then(Json::as_num), Some(world));
    assert_eq!(doc.get("replacement_admitted"), Some(&Json::Bool(true)));
}

/// The elastic extension's artifact backs its claims: elastic never trails
/// static on the same seeded capacity trace and strictly beats it under
/// churn, capacity returns are exercised (grows), and the real-backend
/// continuity checks — shrink/grow bounce and mid-run grow — were exact.
#[test]
fn ext_elastic_artifact_matches_its_claims() {
    let doc = parse(&results_dir().join("ext_elastic.json"));

    let sweep = doc.get("sweep").expect("sim sweep present");
    let headers = sweep.get("headers").and_then(Json::as_arr).unwrap();
    let col = |name: &str| {
        headers
            .iter()
            .position(|h| h.as_str() == Some(name))
            .unwrap_or_else(|| panic!("column '{name}' present"))
    };
    let (c_pre, c_grow) = (col("preemptions"), col("grows"));
    let (c_el, c_st) = (col("elastic goodput"), col("static goodput"));
    let pct =
        |cell: &Json| -> f64 { cell.as_str().unwrap().trim_end_matches('%').parse().unwrap() };
    let rows = sweep.get("rows").and_then(Json::as_arr).unwrap();
    assert!(rows.len() >= 3, "sweep must cover several preemption rates");
    let mut preempted = 0.0;
    let mut strictly_better = 0;
    for row in rows.iter().filter_map(Json::as_arr) {
        let el = pct(&row[c_el]);
        let st = pct(&row[c_st]);
        assert!(el >= st, "elastic {el}% trails static {st}%");
        if el > st {
            strictly_better += 1;
        }
        let pre: f64 = row[c_pre].as_str().unwrap().parse().unwrap();
        let grows: f64 = row[c_grow].as_str().unwrap().parse().unwrap();
        assert!(grows <= pre, "cannot grow more often than capacity left");
        preempted += pre;
        if pre > 0.0 {
            assert!(grows > 0.0, "capacity-return traces must exercise grows");
        }
    }
    assert!(preempted > 0.0, "the sweep never exercised a preemption");
    assert!(strictly_better > 0, "elastic must strictly beat static somewhere");

    // Real-backend continuity: bounce round-trip and mid-run grow, exact.
    let real = doc.get("real_backend").expect("real-backend record present");
    assert_eq!(real.get("bounce_bit_exact"), Some(&Json::Bool(true)));
    assert_eq!(real.get("grow_prefix_bit_exact"), Some(&Json::Bool(true)));
    let checks = real.get("bounce_checks").and_then(Json::as_num).unwrap();
    assert!(checks >= 4.0, "both bounce geometries on both transports");
    let first = real.get("first_loss").and_then(Json::as_num).unwrap();
    let last = real.get("final_loss").and_then(Json::as_num).unwrap();
    assert!(last < first, "the grown world must have kept training");
}

/// The planner-service extension's artifact backs its claims: a four-digit
/// query count served over sockets, a warm phase that is pure cache hits,
/// a duplicate burst collapsed by the single-flight cache, and responses
/// byte-identical to in-process simulator calls.
#[test]
fn ext_serve_artifact_matches_its_claims() {
    let doc = parse(&results_dir().join("ext_serve.json"));

    let queries = doc.get("queries").and_then(Json::as_num).unwrap();
    assert!(queries >= 1000.0, "claimed ≥ 1000 served queries, artifact says {queries}");
    assert!(doc.get("queries_per_sec").and_then(Json::as_num).unwrap() > 0.0);

    // The cache earned its keep: hits happened, the warm phase re-ran
    // nothing, and the barrier-synced burst collapsed many-to-one.
    let hit_rate = doc.get("cache_hit_rate").and_then(Json::as_num).unwrap();
    assert!(hit_rate > 0.0 && hit_rate < 1.0, "hit rate out of range: {hit_rate}");
    assert_eq!(doc.get("warm_sim_runs").and_then(Json::as_num), Some(0.0));
    let collapse = doc.get("burst_collapse_factor").and_then(Json::as_num).unwrap();
    assert!(collapse > 1.0, "burst collapse factor must exceed 1, got {collapse}");
    assert!(doc.get("dedup_collapsed").and_then(Json::as_num).unwrap() >= 1.0);

    // Cached or fresh, every byte matches the in-process answer.
    assert_eq!(doc.get("byte_identical"), Some(&Json::Bool(true)));

    // Latency percentiles are sane and the table covers all three phases.
    let p50 = doc.get("p50_us").and_then(Json::as_num).unwrap();
    let p99 = doc.get("p99_us").and_then(Json::as_num).unwrap();
    assert!(p50 > 0.0 && p99 >= p50, "p50 {p50} µs, p99 {p99} µs");
    let phases = doc.get("phases").expect("phase table present");
    let rows = phases.get("rows").and_then(Json::as_arr).unwrap();
    let names: Vec<&str> =
        rows.iter().filter_map(Json::as_arr).map(|r| r[0].as_str().unwrap()).collect();
    assert_eq!(names, ["cold", "warm", "burst"]);
}

/// The overlap extension's artifact backs its claims: communication measured
/// in flight under compute, bit-identical losses, the structural deferral
/// counts, and the wall-clock claim the bench itself enforces.
#[test]
fn ext_overlap_artifact_matches_its_claims() {
    let doc = parse(&results_dir().join("ext_overlap.json"));

    let frac = doc.get("overlap_fraction").and_then(Json::as_num).unwrap();
    assert!(frac > 0.0, "claimed overlap, artifact measured {frac}");
    assert_eq!(doc.get("losses_bit_identical"), Some(&Json::Bool(true)));

    // Deferred reduces shrink collective blocking time on any host.
    let blocked = doc.get("comm_blocked_speedup").and_then(Json::as_num).unwrap();
    assert!(blocked > 1.0, "wire blocking did not shrink: {blocked}×");

    // Wall-clock: the bench's own gate, on the host the artifact recorded.
    let num = |key: &str| doc.get(key).and_then(Json::as_num).unwrap();
    let count = |key: &str| num(key) as usize;
    mics_bench::overlap_wall_clock_claim(
        count("cores"),
        count("rounds_won"),
        count("rounds"),
        num("speedup"),
    );

    // One deferred reduce-scatter per non-final micro-step (fig15: accum 4).
    let deferred = doc.get("deferred_wire_ops").and_then(Json::as_arr).unwrap();
    assert_eq!(deferred.len(), 3, "deferral count must match the schedule structure");

    let lanes = doc.get("lanes").expect("lane table present");
    let headers = lanes.get("headers").and_then(Json::as_arr).unwrap();
    assert!(headers.iter().any(|h| h.as_str() == Some("overlap frac")));
    assert_eq!(lanes.get("rows").and_then(Json::as_arr).unwrap().len(), 2, "inline + async rows");

    // The simulator charges overlap for the same program.
    let sim = doc.get("sim").expect("sim cross-reference present");
    assert!(sim.get("overlappable_wire_ops").and_then(Json::as_num).unwrap() > 0.0);
    assert!(sim.get("charged_makespan_gain").and_then(Json::as_num).unwrap() > 0.0);
}

/// The Kernels-v2 microbenchmark artifact backs the acceptance claim the
/// bench itself asserts at generation time: on the SIMD host that produced
/// it, the v2 dispatch beats the v1 blocked kernels ≥ 2× on both GEMM
/// shapes of `matmul` and `matmul_bt`, and every variant column carries a
/// positive best-of-N timing for all four kernels. It names the SIMD level
/// that produced those timings.
#[test]
fn bench_kernels_artifact_matches_its_claims() {
    let doc = parse(&results_dir().join("BENCH_kernels.json"));
    let simd = doc.get("simd").and_then(Json::as_str).expect("the artifact names its SIMD level");
    assert!(["avx512", "avx2", "scalar"].contains(&simd), "unknown SIMD level {simd}");
    let headers = doc.get("headers").and_then(Json::as_arr).unwrap();
    let col = |name: &str| {
        headers
            .iter()
            .position(|h| h.as_str() == Some(name))
            .unwrap_or_else(|| panic!("missing column {name}"))
    };
    let (k_col, shape_col) = (col("kernel"), col("shape"));
    let (blocked_col, reference_col) =
        (col("speedup_simd_vs_blocked"), col("speedup_simd_vs_reference"));
    let timing_cols = [col("reference_ns"), col("blocked_ns"), col("simd_ns")];

    let rows = doc.get("rows").and_then(Json::as_arr).unwrap();
    let mut kernels_seen = std::collections::BTreeSet::new();
    let mut gated_rows = 0;
    let mut attention_rows = std::collections::BTreeSet::new();
    for row in rows.iter().filter_map(Json::as_arr) {
        let kernel = row[k_col].as_str().unwrap();
        kernels_seen.insert(kernel.to_string());
        for &c in &timing_cols {
            let ns: u64 = row[c].as_str().unwrap().parse().unwrap();
            assert!(ns > 0, "{kernel}: zero timing in column {c}");
        }
        if kernel == "matmul" || kernel == "matmul_bt" {
            let speedup: f64 = row[blocked_col].as_str().unwrap().parse().unwrap();
            assert!(speedup >= 2.0, "{kernel}: SIMD vs blocked {speedup}× < 2× in the artifact");
            gated_rows += 1;
        }
        if kernel.starts_with("attention_") {
            let speedup: f64 = row[reference_col].as_str().unwrap().parse().unwrap();
            assert!(speedup >= 2.0, "{kernel}: SIMD vs reference {speedup}× < 2× in the artifact");
            attention_rows
                .insert((kernel.to_string(), row[shape_col].as_str().unwrap().to_string()));
        }
    }
    assert_eq!(gated_rows, 4, "two shapes each of matmul and matmul_bt must be gated");
    for kernel in ["attention_forward", "attention_backward"] {
        for shape in ["t32xd64xh4", "t8xd96xh4"] {
            assert!(
                attention_rows.contains(&(kernel.to_string(), shape.to_string())),
                "{kernel}@{shape} missing from the bench table"
            );
        }
    }
    assert_eq!(attention_rows.len(), 4, "attention is gated at exactly the two LM head shapes");
    for want in ["matmul", "matmul_bt", "acc_matmul_at"] {
        assert!(kernels_seen.contains(want), "kernel {want} missing from the bench table");
    }
}

/// The isoFLOP-sweep artifact backs its claims: ≥ 3 budgets, each with a
/// U-shaped eval-loss curve (interior argmin in the rows *and* an interior
/// convex parabola minimum in the fit), budget-optimal size and tokens
/// growing as power laws with exponents in (0, 1) that sum to ≈ 1, schedule
/// agreement within tolerance, and positive measured kernel throughput.
#[test]
fn ext_sweep_artifact_matches_its_claims() {
    let doc = parse(&results_dir().join("ext_sweep.json"));

    let budgets = doc.get("budgets").and_then(Json::as_arr).unwrap();
    assert!(budgets.len() >= 3, "claimed ≥ 3 budgets, artifact has {}", budgets.len());

    // Re-derive the per-budget U-shape directly from the table rows: group
    // by the budget column, argmin of the MiCS eval loss strictly interior.
    let sweep = doc.get("sweep").expect("sweep table present");
    let headers = sweep.get("headers").and_then(Json::as_arr).unwrap();
    let col = |name: &str| headers.iter().position(|h| h.as_str() == Some(name)).unwrap();
    let (b_col, loss_col) = (col("budget_flops"), col("eval_loss_mics"));
    let rows = sweep.get("rows").and_then(Json::as_arr).unwrap();
    let mut curves: Vec<(String, Vec<f64>)> = Vec::new();
    for row in rows.iter().filter_map(Json::as_arr) {
        let budget = row[b_col].as_str().unwrap().to_string();
        let loss: f64 = row[loss_col].as_str().unwrap().parse().unwrap();
        match curves.last_mut() {
            Some((b, losses)) if *b == budget => losses.push(loss),
            _ => curves.push((budget, vec![loss])),
        }
    }
    assert_eq!(curves.len(), budgets.len(), "rows must cover every budget contiguously");
    for (budget, losses) in &curves {
        assert!(losses.len() >= 4, "budget {budget}: needs a real size grid");
        let argmin = (0..losses.len()).min_by(|&i, &j| losses[i].total_cmp(&losses[j])).unwrap();
        assert!(
            argmin > 0 && argmin + 1 < losses.len(),
            "budget {budget}: eval-loss curve not U-shaped (argmin {argmin} of {losses:?})"
        );
    }

    // The fitted minima: interior, convex, and monotone in the budget.
    let fits = doc.get("fits").and_then(Json::as_arr).unwrap();
    assert_eq!(fits.len(), budgets.len());
    let mut last_n_opt = 0.0;
    for fit in fits {
        assert_eq!(fit.get("interior"), Some(&Json::Bool(true)));
        assert!(fit.get("curvature").and_then(Json::as_num).unwrap() > 0.0);
        let n_opt = fit.get("n_opt").and_then(Json::as_num).unwrap();
        assert!(n_opt > last_n_opt, "N_opt must grow with the budget");
        last_n_opt = n_opt;
        assert!(fit.get("d_opt").and_then(Json::as_num).unwrap() > 0.0);
    }

    let exp = doc.get("exponents").expect("exponents present");
    let alpha = exp.get("alpha").and_then(Json::as_num).unwrap();
    let beta = exp.get("beta").and_then(Json::as_num).unwrap();
    assert!(alpha > 0.0 && alpha < 1.0, "α = {alpha} outside (0, 1)");
    assert!(beta > 0.0 && beta < 1.0, "β = {beta} outside (0, 1)");
    assert!((alpha + beta - 1.0).abs() < 0.25, "α + β = {} far from 1", alpha + beta);

    let agreement = doc.get("schedule_agreement_max_rel").and_then(Json::as_num).unwrap();
    assert!(agreement < 5e-2, "schedule disagreement {agreement} over tolerance");
    assert!(doc.get("measured_gflops").and_then(Json::as_num).unwrap() > 0.0);
}

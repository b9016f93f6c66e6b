//! The repo benchmark. `run.sh` builds this and passes its arguments on:
//!
//! ```text
//! benchmark/run.sh [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]]
//!                  [--smoke] [--repeat N]
//! ```
//!
//! The process started by `run.sh` is the *parent*: it measures nothing
//! itself. Every round of every workload is a fresh child process of the same
//! binary (`--round`), so each starts with a clean peak-RSS mark, CPU clock
//! and heap layout; the parent folds the children's values into medians,
//! prints them, and ends with one JSON line per workload. README.md has the
//! metric glossary and the reasoning.

mod lm;
mod plan;
mod round;
mod spans;
mod stats;

use mics_core::Json;
use round::{Report, RoundArgs};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

/// The registry of workloads and metrics: names, units, directions, bounds.
const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// Rounds per workload in an untraced run; a metric is their median.
const ROUNDS: usize = 3;
const DEFAULT_SEED: u64 = 20220615;
/// Window length of `--smoke` rounds, and how much it shortens probes.
const SMOKE_WINDOW_S: f64 = 2.0;
const SMOKE_PROBE_DIVISOR: usize = 3;

struct MetricDef {
    name: String,
    unit: String,
    /// Share of the median a later change may worsen the metric by.
    bound: f64,
}

struct Registry {
    run_seconds: f64,
    workloads: Vec<String>,
    end_to_end: Vec<MetricDef>,
    per_layer: Vec<MetricDef>,
}

fn registry() -> Registry {
    let doc = Json::parse(BENCHMARK_JSON).expect("BENCHMARK.json does not parse");
    let text = |j: &Json, key: &str| {
        j.get(key).and_then(Json::as_str).expect("missing string key").to_string()
    };
    let list = |key: &str| doc.get(key).and_then(Json::as_arr).expect("missing list key");
    let metrics = |key: &str| -> Vec<MetricDef> {
        list(key)
            .iter()
            .map(|m| MetricDef {
                name: text(m, "name"),
                unit: text(m, "unit"),
                bound: m.get("bound").and_then(Json::as_num).unwrap_or(0.0),
            })
            .collect()
    };
    Registry {
        run_seconds: doc.get("run_seconds").and_then(Json::as_num).expect("run_seconds"),
        workloads: list("workloads").iter().map(|w| text(w, "name")).collect(),
        end_to_end: metrics("end_to_end"),
        per_layer: metrics("per_layer"),
    }
}

struct Cli {
    workloads: Vec<String>,
    seed: u64,
    /// Timed seconds per workload, split evenly over its rounds.
    seconds: f64,
    trace: bool,
    smoke: bool,
    repeat: usize,
    /// Set in a child: run one round and print its report.
    round: Option<(f64, bool, usize)>,
}

fn parse_cli(registry: &Registry) -> Result<Cli, String> {
    let mut cli = Cli {
        workloads: Vec::new(),
        seed: DEFAULT_SEED,
        seconds: registry.run_seconds,
        trace: false,
        smoke: false,
        repeat: 1,
        round: None,
    };
    let (mut window, mut traced, mut divisor, mut is_round) = (0.0, false, 1, false);
    let mut args = std::env::args().skip(1).peekable();
    while let Some(arg) = args.next() {
        let mut value = |what: &str| args.next().ok_or(format!("{arg} needs {what}"));
        match arg.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                if !registry.workloads.contains(&name) {
                    let known = registry.workloads.join(", ");
                    return Err(format!("unknown workload '{name}' (expected one of {known})"));
                }
                cli.workloads.push(name);
            }
            "--seed" => {
                cli.seed = value("a number")?.parse().map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                cli.seconds = value("a number")?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if cli.seconds.is_nan() || cli.seconds <= 0.0 {
                    return Err("--seconds must be positive".into());
                }
            }
            // `--trace` alone means 1, so does `--trace 1`; `--trace 0` is off.
            "--trace" => {
                cli.trace = match args.next_if(|v| v == "0" || v == "1") {
                    Some(v) => v == "1",
                    None => true,
                }
            }
            "--smoke" => cli.smoke = true,
            "--repeat" => {
                cli.repeat = value("a count")?.parse().map_err(|e| format!("--repeat: {e}"))?;
            }
            "--round" => is_round = true,
            "--window" => window = value("seconds")?.parse().map_err(|e| format!("{e}"))?,
            "--traced" => traced = true,
            "--probe-divisor" => divisor = value("a count")?.parse().map_err(|e| format!("{e}"))?,
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    if is_round {
        cli.round = Some((window, traced, divisor));
    }
    if cli.workloads.is_empty() {
        cli.workloads = registry.workloads.clone();
    }
    Ok(cli)
}

/// `<target dir>/benchmark`, next to the profile directory the binary is in.
fn out_dir() -> PathBuf {
    let exe = std::env::current_exe().expect("cannot locate the benchmark binary");
    exe.parent().and_then(|p| p.parent()).expect("binary is not in a target dir").join("benchmark")
}

// ---- child: one round --------------------------------------------------------

fn run_round(args: &RoundArgs, started: Instant) -> Report {
    match lm::workload(&args.workload, args.seed) {
        Some(w) => lm::run_round(&w, args, started),
        None => plan::run_round(args, started),
    }
}

// ---- parent: rounds as child processes --------------------------------------

/// What one child reported.
struct RoundResult {
    metrics: BTreeMap<String, (f64, String)>,
    attempted: u64,
    failed: u64,
}

fn spawn_round(cli: &Cli, workload: &str, window_s: f64, traced: bool) -> RoundResult {
    let exe = std::env::current_exe().expect("cannot locate the benchmark binary");
    let mut cmd = Command::new(exe);
    cmd.args(["--round", "--workload", workload])
        .args(["--seed", &cli.seed.to_string(), "--window", &window_s.to_string()])
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    if traced {
        cmd.arg("--traced");
    }
    if cli.smoke {
        cmd.args(["--probe-divisor", &SMOKE_PROBE_DIVISOR.to_string()]);
    }
    let out = cmd.output().expect("cannot start a round");
    assert!(out.status.success(), "round of {workload} exited with {}", out.status);
    parse_round(&String::from_utf8_lossy(&out.stdout))
        .unwrap_or_else(|e| panic!("round of {workload} printed a malformed report: {e}"))
}

/// Parse the line protocol of [`Report::print`].
fn parse_round(text: &str) -> Result<RoundResult, String> {
    let mut result = RoundResult { metrics: BTreeMap::new(), attempted: 0, failed: 0 };
    for line in text.lines() {
        let fields: Vec<&str> = line.split_whitespace().collect();
        match fields.as_slice() {
            ["metric", name, value, unit] => {
                let value: f64 = value.parse().map_err(|e| format!("{line}: {e}"))?;
                result.metrics.insert(name.to_string(), (value, unit.to_string()));
            }
            ["units", attempted, failed] => {
                result.attempted = attempted.parse().map_err(|e| format!("{line}: {e}"))?;
                result.failed = failed.parse().map_err(|e| format!("{line}: {e}"))?;
            }
            _ => return Err(format!("unexpected line '{line}'")),
        }
    }
    if result.attempted == 0 {
        return Err("no units line".into());
    }
    Ok(result)
}

/// One workload's folded result: a value per metric name, with its unit.
struct Folded {
    workload: String,
    metrics: BTreeMap<String, (f64, String)>,
    /// The per-round values behind each median, for the printed table.
    rounds: BTreeMap<String, Vec<f64>>,
    attempted: u64,
    failed: u64,
}

/// Median of each metric over `rounds`; units attempted and failed add up.
fn fold(workload: &str, rounds: &[RoundResult]) -> Folded {
    let mut values: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    let mut units: BTreeMap<String, String> = BTreeMap::new();
    for round in rounds {
        for (name, (value, unit)) in &round.metrics {
            values.entry(name.clone()).or_default().push(*value);
            units.insert(name.clone(), unit.clone());
        }
    }
    let metrics = values
        .iter()
        .map(|(name, v)| (name.clone(), (stats::median(v), units[name].clone())))
        .collect();
    Folded {
        workload: workload.to_string(),
        metrics,
        rounds: values,
        attempted: rounds.iter().map(|r| r.attempted).sum(),
        failed: rounds.iter().map(|r| r.failed).sum(),
    }
}

/// Length of one round's timed window.
fn window_s(cli: &Cli) -> f64 {
    if cli.smoke {
        SMOKE_WINDOW_S
    } else {
        cli.seconds / ROUNDS as f64
    }
}

/// One full set over the selected workloads. Rounds are interleaved across
/// workloads (A B C D A B C D …) so a slow stretch of the host lands on every
/// workload rather than on all rounds of one.
fn run_set(cli: &Cli) -> Vec<Folded> {
    let window_s = window_s(cli);
    if cli.smoke {
        return cli
            .workloads
            .iter()
            .map(|w| fold(w, &[spawn_round(cli, w, window_s, true)]))
            .collect();
    }
    if cli.trace {
        // One untraced and one traced round; their ratio is the overhead.
        return cli
            .workloads
            .iter()
            .map(|w| {
                let plain = spawn_round(cli, w, window_s, false);
                let traced = spawn_round(cli, w, window_s, true);
                let p50 = |r: &RoundResult| r.metrics["unit_ms_p50"].0;
                let overhead = p50(&traced) / p50(&plain) - 1.0;
                let mut folded = fold(w, &[traced]);
                folded.metrics.insert("trace.overhead_frac".into(), (overhead, "ratio".into()));
                folded.metrics.insert("harness.window_s".into(), (window_s, "s".into()));
                folded
            })
            .collect();
    }
    let mut rounds: Vec<Vec<RoundResult>> = cli.workloads.iter().map(|_| Vec::new()).collect();
    for _ in 0..ROUNDS {
        for (w, results) in cli.workloads.iter().zip(&mut rounds) {
            results.push(spawn_round(cli, w, window_s, false));
        }
    }
    cli.workloads.iter().zip(&rounds).map(|(w, r)| fold(w, r)).collect()
}

// ---- output ---------------------------------------------------------------------

fn print_env(cli: &Cli) {
    let var = |k: &str| std::env::var(k).unwrap_or_else(|_| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let window_s = window_s(cli);
    let rounds = match (cli.smoke, cli.trace) {
        (true, _) => "1 traced".to_string(),
        (_, true) => "1 untraced + 1 traced".to_string(),
        _ => format!("{ROUNDS} untraced"),
    };
    println!(
        "env nproc={nproc} rustc=\"{}\" commit={}",
        var("MICS_BENCH_RUSTC"),
        var("MICS_BENCH_COMMIT")
    );
    println!(
        "env simd_active={} kernel_threads=1 seed={} rounds=\"{rounds}\" window_s={window_s}",
        mics_minidl::simd_active(),
        cli.seed
    );
}

/// The metrics the final JSON line carries: every end-to-end metric of an
/// untraced run, every per-layer metric of a traced one. A per-layer metric
/// no round reported is a layer that does no work on this workload: 0.
fn result_metrics<'a>(
    folded: &Folded,
    defs: &'a [MetricDef],
    zero_fill: bool,
) -> Result<Vec<(&'a MetricDef, f64)>, String> {
    defs.iter()
        .map(|def| match folded.metrics.get(&def.name) {
            Some((value, unit)) if *unit == def.unit && value.is_finite() => Ok((def, *value)),
            Some((value, unit)) => Err(format!(
                "{}: {} reported as {value} {unit}, registered in {}",
                folded.workload, def.name, def.unit
            )),
            None if zero_fill => Ok((def, 0.0)),
            None => Err(format!("{}: {} was not reported", folded.workload, def.name)),
        })
        .collect()
}

fn print_workload(folded: &Folded, traced: bool, registry: &Registry) -> Result<String, String> {
    println!("== {} ==", folded.workload);
    for (name, (value, unit)) in &folded.metrics {
        let rounds = &folded.rounds.get(name).filter(|r| r.len() > 1);
        let detail = rounds.map_or(String::new(), |r| format!("  rounds {r:?}"));
        println!("{name:<34} {value:>16.4} {unit}{detail}");
    }
    if let Some(p50s) = folded.rounds.get("unit_ms_p50").filter(|r| r.len() > 1) {
        println!("{:<34} {:>16.4} ratio", "harness.round_spread", stats::max_over_min(p50s));
    }
    let fail_share = folded.failed as f64 / folded.attempted as f64;
    println!(
        "{:<34} {fail_share:>16.4} ratio  ({} of {} units)",
        "fail_share", folded.failed, folded.attempted
    );
    let defs = if traced { &registry.per_layer } else { &registry.end_to_end };
    let metrics = result_metrics(folded, defs, traced)?;
    let body: Vec<String> = metrics
        .iter()
        .map(|(def, value)| {
            format!("\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}", def.name, def.unit)
        })
        .collect();
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        folded.failed == 0,
        folded.attempted,
        folded.failed,
        body.join(", ")
    ))
}

/// `--smoke`: every registered metric is reported by some workload, finite
/// and in its registered unit, and nothing unregistered is reported.
fn check_smoke(set: &[Folded], registry: &Registry) -> Result<(), String> {
    let defs = || registry.end_to_end.iter().chain(&registry.per_layer);
    for folded in set {
        result_metrics(folded, &registry.end_to_end, false)?;
        result_metrics(folded, &registry.per_layer, true)?;
        for name in folded.metrics.keys() {
            if !defs().any(|d| d.name == *name) {
                return Err(format!("{}: {name} is not in BENCHMARK.json", folded.workload));
            }
        }
    }
    for def in &registry.per_layer {
        // The two the parent computes from a pair of rounds are not in a
        // smoke run, which has one round per workload.
        let parent_side = ["trace.overhead_frac", "harness.window_s"].contains(&def.name.as_str());
        if !parent_side && !set.iter().any(|f| f.metrics.contains_key(&def.name)) {
            return Err(format!("{} is reported by no workload", def.name));
        }
    }
    Ok(())
}

/// `--repeat`: spread of every end-to-end metric over the sets, against its
/// bound. The verdict is on the quartile distance as a share of the median,
/// the figure a driver holds a benchmark's repeatability to; `max/min-1` is
/// printed beside it. Returns whether every spread is within its bound.
fn print_repeat_table(sets: &[Vec<Folded>], registry: &Registry) -> bool {
    println!("== repeat: {} sets ==", sets.len());
    println!(
        "{:<20} {:<16} {:>12} {:>10} {:>10} {:>7}  verdict   values",
        "workload", "metric", "median", "max/min-1", "iqr/med", "bound"
    );
    let mut all_within = true;
    for (i, first) in sets[0].iter().enumerate() {
        for def in &registry.end_to_end {
            let values: Vec<f64> = sets.iter().map(|set| set[i].metrics[&def.name].0).collect();
            let spread = stats::iqr_share(&values);
            let within = spread <= def.bound;
            all_within &= within;
            println!(
                "{:<20} {:<16} {:>12.4} {:>10.4} {:>10.4} {:>7.2}  {:<8}  {}",
                first.workload,
                def.name,
                stats::median(&values),
                stats::max_over_min(&values),
                spread,
                def.bound,
                if within { "within" } else { "EXCEEDED" },
                values.iter().map(|v| format!("{v:.4}")).collect::<Vec<_>>().join(" ")
            );
        }
    }
    all_within
}

fn main() -> ExitCode {
    let started = Instant::now();
    if cfg!(debug_assertions) {
        eprintln!(
            "refusing to measure a debug build: use benchmark/run.sh, which builds --release"
        );
        return ExitCode::from(2);
    }
    let registry = registry();
    let cli = match parse_cli(&registry) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("{e}\nusage: benchmark/run.sh [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]] [--smoke] [--repeat N]");
            return ExitCode::from(2);
        }
    };
    if let Some((window_s, traced, probe_divisor)) = cli.round {
        let args = RoundArgs {
            workload: cli.workloads[0].clone(),
            seed: cli.seed,
            window_s,
            traced,
            probe_divisor,
            out_dir: out_dir(),
        };
        run_round(&args, started).print();
        return ExitCode::SUCCESS;
    }

    print_env(&cli);
    let sets: Vec<Vec<Folded>> = (0..cli.repeat.max(1)).map(|_| run_set(&cli)).collect();
    let mut ok = true;
    let mut result_lines = Vec::new();
    for folded in sets.last().expect("at least one set") {
        match print_workload(folded, cli.trace && !cli.smoke, &registry) {
            Ok(line) => result_lines.push(line),
            Err(e) => {
                eprintln!("{e}");
                ok = false;
            }
        }
    }
    ok &= sets.iter().flatten().all(|folded| folded.failed == 0);
    if cli.smoke {
        match check_smoke(&sets[0], &registry) {
            Ok(()) => {
                println!("smoke: every metric in BENCHMARK.json is reported, finite, in its unit")
            }
            Err(e) => {
                eprintln!("smoke: {e}");
                ok = false;
            }
        }
    }
    if sets.len() > 1 && !cli.trace && !cli.smoke {
        ok &= print_repeat_table(&sets, &registry);
    }
    for line in result_lines {
        println!("{line}");
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn well_formed(name: &str, max: usize, extra: &str) -> bool {
        !name.is_empty()
            && name.len() <= max
            && name.chars().all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
    }

    #[test]
    fn registry_meets_the_benchmark_contract() {
        let r = registry();
        assert!((1.0..=60.0).contains(&r.run_seconds) && r.run_seconds.fract() == 0.0);
        assert!((2..=8).contains(&r.workloads.len()));
        assert!((1..=16).contains(&r.end_to_end.len()));
        assert!((1..=128).contains(&r.per_layer.len()));
        let setup = r.end_to_end.iter().find(|m| m.name == "setup_s").expect("setup_s");
        assert_eq!(setup.unit, "s");
        for m in &r.end_to_end {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{} bound {}", m.name, m.bound);
            assert!(setup.bound >= m.bound, "setup_s must have the largest bound");
        }
        let mut names: Vec<&String> = r
            .workloads
            .iter()
            .chain(r.end_to_end.iter().chain(&r.per_layer).map(|m| &m.name))
            .collect();
        for name in &names {
            assert!(well_formed(name, 64, "_.-"), "bad name {name}");
            assert!(name.chars().next().unwrap().is_ascii_alphanumeric(), "bad name {name}");
        }
        names.sort();
        names.dedup();
        assert_eq!(names.len(), r.workloads.len() + r.end_to_end.len() + r.per_layer.len());
        for m in r.end_to_end.iter().chain(&r.per_layer) {
            assert!(well_formed(&m.unit, 16, "_/%.-"), "bad unit {}", m.unit);
        }
        // Every workload resolves to a round this binary can run.
        for w in &r.workloads {
            assert!(w == "plan_mix" || lm::workload(w, 1).is_some(), "{w} has no implementation");
        }
    }

    #[test]
    fn rounds_fold_to_medians_and_summed_units() {
        let text = |p50: f64, failed: u64| {
            format!("metric unit_ms_p50 {p50} ms\nmetric setup_s 1.5 s\nunits 10 {failed}\n")
        };
        let rounds: Vec<RoundResult> = [(471.0, 0), (458.25, 1), (462.5, 0)]
            .iter()
            .map(|&(p50, failed)| parse_round(&text(p50, failed)).unwrap())
            .collect();
        let folded = fold("w", &rounds);
        assert_eq!(folded.metrics["unit_ms_p50"], (462.5, "ms".to_string()));
        assert_eq!((folded.attempted, folded.failed), (30, 1));
        assert!(parse_round("metric x 1 ms\n").is_err(), "a report without units is refused");
        assert!(parse_round("hello\nunits 1 0\n").is_err());
    }
}

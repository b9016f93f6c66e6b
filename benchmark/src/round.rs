//! One round: a fresh process that sets one workload up, runs its timed
//! closed-loop window, and prints what it measured for the parent to fold.

use crate::spans::SpanLog;
use crate::stats::{cpu_seconds, median, peak_rss_mb, quantile, sorted};
use mics_trace::Trace;
use std::path::PathBuf;
use std::time::Instant;

/// What the parent asks of a round.
#[derive(Debug, Clone)]
pub struct RoundArgs {
    pub workload: String,
    pub seed: u64,
    /// Length of the timed window, seconds.
    pub window_s: f64,
    /// Record traces, run the layer probes and report per-layer metrics.
    pub traced: bool,
    /// Divides every probe's repetition count (`--smoke` shortens probes).
    pub probe_divisor: usize,
    /// Where `trace_<workload>.json` goes.
    pub out_dir: PathBuf,
}

impl RoundArgs {
    /// A probe's repetition count after `--smoke` scaling (at least 3).
    pub fn reps(&self, full: usize) -> usize {
        (full / self.probe_divisor.max(1)).max(3)
    }
}

/// The values a round reports, in emission order.
#[derive(Debug, Default)]
pub struct Report {
    pub metrics: Vec<(String, f64, &'static str)>,
    pub attempted: u64,
    pub failed: u64,
}

impl Report {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    /// The line protocol the parent parses (see `main::parse_round`).
    pub fn print(&self) {
        for (name, value, unit) in &self.metrics {
            println!("metric {name} {value} {unit}");
        }
        println!("units {} {}", self.attempted, self.failed);
    }
}

/// What a timed window produced, whatever the workload.
pub struct Window {
    /// Wall time of each unit, seconds, in completion order.
    pub unit_secs: Vec<f64>,
    pub failed_units: u64,
    /// Wall time from the first unit's start to the last unit's end.
    pub wall_s: f64,
    /// Process CPU time over the same interval.
    pub cpu_s: f64,
}

/// Brackets the timed window: wall clock and process CPU clock.
pub struct WindowClock {
    start: Instant,
    cpu0: f64,
    window_s: f64,
}

impl WindowClock {
    pub fn start(window_s: f64) -> Self {
        WindowClock { start: Instant::now(), cpu0: cpu_seconds(), window_s }
    }

    /// Whether the window has run its length (checked between units, so a
    /// window always holds at least one whole unit).
    pub fn over(&self) -> bool {
        self.start.elapsed().as_secs_f64() >= self.window_s
    }

    pub fn finish(self, unit_secs: Vec<f64>, failed_units: u64) -> Window {
        Window {
            unit_secs,
            failed_units,
            wall_s: self.start.elapsed().as_secs_f64(),
            cpu_s: cpu_seconds() - self.cpu0,
        }
    }
}

/// The end-to-end metrics and the harness's own figures for one round.
/// `work_per_unit` is tokens for `lm_*` and queries for `plan_mix`.
pub fn report_window(report: &mut Report, w: &Window, work_per_unit: f64, setup_s: f64) {
    let units = w.unit_secs.len() as f64;
    let ms = sorted(&w.unit_secs.iter().map(|s| s * 1e3).collect::<Vec<_>>());
    report.put("unit_ms_p50", quantile(&ms, 0.5), "ms");
    report.put("work_per_s", units * work_per_unit / w.wall_s, "1/s");
    report.put("cpu_ms_per_unit", w.cpu_s * 1e3 / units, "ms");
    report.put("setup_s", setup_s, "s");
    report.put("harness.units", units, "count");
    report.put("harness.unit_ms_p90", quantile(&ms, 0.9), "ms");
    report.put("harness.unit_ms_min", ms[0], "ms");
    report.attempted = w.unit_secs.len() as u64;
    report.failed = w.failed_units;
}

/// Last thing a round reports: the peak resident set of its whole life.
pub fn report_peak_rss(report: &mut Report) {
    report.put("peak_rss_mb", peak_rss_mb(), "MB");
}

/// Cost of the trace layer itself, on a private recorder: one span call with
/// recording off (the price every instrumented hot path always pays) and on.
pub fn trace_probes(report: &mut Report, args: &RoundArgs) {
    let calls = 100_000;
    let per_call_ns = |rec: &mics_trace::Recorder| {
        median(
            &(0..args.reps(30))
                .map(|_| {
                    let t = Instant::now();
                    for i in 0..calls {
                        rec.span("probe", "track", "span", "benchmark", i, i + 1, Vec::new());
                    }
                    let ns = t.elapsed().as_nanos() as f64 / calls as f64;
                    std::hint::black_box(rec.drain());
                    ns
                })
                .collect::<Vec<_>>(),
        )
    };
    let rec = mics_trace::Recorder::new();
    report.put("trace.span_ns_off", per_call_ns(&rec), "ns");
    rec.enable();
    report.put("trace.span_ns_on", per_call_ns(&rec), "ns");
}

/// Merge the benchmark's span logs with the program's drained events and
/// write `trace_<workload>.json` (Trace Event Format; loads in Perfetto).
pub fn write_trace(args: &RoundArgs, logs: &[&SpanLog], program: Trace) {
    let mut trace = Trace::new();
    for log in logs {
        log.write_into(&mut trace);
    }
    trace.merge(program);
    std::fs::create_dir_all(&args.out_dir).expect("cannot create the trace directory");
    let path = args.out_dir.join(format!("trace_{}.json", args.workload));
    std::fs::write(&path, trace.to_json()).expect("cannot write the trace file");
    eprintln!("trace: {} events -> {}", trace.len(), path.display());
}

//! Shared harness utilities for the per-figure benchmark binaries.
//!
//! Every binary in `src/bin/` regenerates one table or figure of the MiCS
//! paper (see DESIGN.md §4 for the index). They print aligned text tables —
//! the same rows/series the paper plots — and also drop machine-readable
//! JSON into `results/` for EXPERIMENTS.md bookkeeping.

#![warn(missing_docs)]

pub mod blocked;

use mics_cluster::{ClusterSpec, InstanceType};
use mics_core::{simulate, RunReport, Strategy, TrainingJob};
use mics_model::WorkloadSpec;
use std::fmt::Display;
use std::path::PathBuf;

pub use mics_core::json;
pub use mics_core::json::{Json, ToJson};

/// A printable result table.
#[derive(Debug, Clone)]
pub struct Table {
    /// Table/figure title.
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Rows of cells.
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// Start a table with the given title and column headers.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Table {
            title: title.into(),
            headers: headers.iter().map(|h| h.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (cells are stringified).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows.push(cells);
    }

    /// Print the table with aligned columns.
    pub fn print(&self) {
        println!("\n=== {} ===", self.title);
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let line = |cells: &[String]| {
            let mut s = String::new();
            for (i, c) in cells.iter().enumerate() {
                s.push_str(&format!("{:>w$}  ", c, w = widths[i]));
            }
            println!("{}", s.trim_end());
        };
        line(&self.headers);
        println!("{}", "-".repeat(widths.iter().sum::<usize>() + 2 * widths.len()));
        for row in &self.rows {
            line(row);
        }
    }

    /// Print and persist as `results/<name>.json`.
    pub fn finish(&self, name: &str) {
        self.print();
        write_json(name, self);
    }
}

impl ToJson for Table {
    fn to_json(&self) -> Json {
        Json::obj([
            ("title", Json::from(self.title.as_str())),
            ("headers", Json::arr(self.headers.iter().map(String::as_str))),
            (
                "rows",
                Json::Arr(
                    self.rows.iter().map(|r| Json::arr(r.iter().map(String::as_str))).collect(),
                ),
            ),
        ])
    }
}

/// Persist any JSON-convertible value as `results/<name>.json` (best effort —
/// failures are reported, not fatal, so benches still work read-only).
pub fn write_json<T: ToJson>(name: &str, value: &T) {
    let dir = PathBuf::from("results");
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("note: cannot create results dir: {e}");
        return;
    }
    let path = dir.join(format!("{name}.json"));
    if let Err(e) = std::fs::write(&path, value.to_json().pretty()) {
        eprintln!("note: cannot write {}: {e}", path.display());
    } else {
        println!("[results written to {}]", path.display());
    }
}

/// A p3dn.24xlarge (V100, 100 Gbps) cluster of `nodes` nodes.
pub fn v100(nodes: usize) -> ClusterSpec {
    ClusterSpec::new(InstanceType::p3dn_24xlarge(), nodes)
}

/// A p4d.24xlarge (A100, 400 Gbps) cluster of `nodes` nodes.
pub fn a100(nodes: usize) -> ClusterSpec {
    ClusterSpec::new(InstanceType::p4d_24xlarge(), nodes)
}

/// Gradient-accumulation depth for the paper's default global batch:
/// `global_batch / (devices × micro_batch)`, minimum 1.
pub fn accum_steps(devices: usize, micro_batch: usize, global_batch: usize) -> usize {
    (global_batch / (devices * micro_batch)).max(1)
}

/// Run one simulated job; `Err` carries the OOM description.
pub fn run(
    workload: &WorkloadSpec,
    cluster: &ClusterSpec,
    strategy: Strategy,
    accum: usize,
) -> Result<RunReport, String> {
    let job = TrainingJob {
        workload: workload.clone(),
        cluster: cluster.clone(),
        strategy,
        accum_steps: accum,
    };
    simulate(&job).map_err(|e| e.to_string())
}

/// The §5.1.1 heuristic: the smallest node-aligned partition group size
/// whose memory estimate fits this cluster (tries 8, 16, 32, … devices).
pub fn smallest_partition_group(workload: &WorkloadSpec, cluster: &ClusterSpec) -> Option<usize> {
    let k = cluster.devices_per_node();
    let n = cluster.total_devices();
    let mut p = k;
    while p <= n {
        let plan = Strategy::Mics(mics_core::MicsConfig::paper_defaults(p)).plan(n);
        if mics_core::memory::check_memory(workload, cluster, &plan, "probe").is_ok() {
            return Some(p);
        }
        p *= 2;
    }
    None
}

/// Render a throughput cell: number, or the paper's `×` OOM marker.
pub fn cell<T: Display>(r: &Result<T, String>) -> String {
    match r {
        Ok(v) => format!("{v}"),
        Err(_) => "×".to_string(),
    }
}

/// Format a float with 1 decimal.
pub fn f1(x: f64) -> String {
    format!("{x:.1}")
}

/// Format a float with 2 decimals.
pub fn f2(x: f64) -> String {
    format!("{x:.2}")
}

/// Rank threads `ext_overlap` trains with (the fig15 geometry).
pub const OVERLAP_WORLD: usize = 8;

/// Where rank threads outnumber cores, what the async executor's progress
/// threads may cost in wall-clock over the inline run.
pub const OVERLAP_MAX_SLOWDOWN: f64 = 1.25;

/// Assert `ext_overlap`'s wall-clock claim: one rule for the bench's own gate
/// and for the claims test over the artifact it wrote. With a core per rank
/// thread, communication can run under compute, so the async executor must
/// win a majority of rounds. With fewer, the rank threads already saturate
/// every core (two under eight ranks are as full as one), overlap cannot
/// shorten the critical path, and `speedup` (inline wall / async wall, best
/// of all rounds) must stay within [`OVERLAP_MAX_SLOWDOWN`].
///
/// # Panics
/// Panics if the claim does not hold.
pub fn overlap_wall_clock_claim(cores: usize, rounds_won: usize, rounds: usize, speedup: f64) {
    if cores >= OVERLAP_WORLD {
        assert!(
            rounds_won * 2 > rounds,
            "async must beat inline wall-clock in a majority of rounds with {cores} cores \
             for {OVERLAP_WORLD} ranks, won {rounds_won}/{rounds}"
        );
    } else {
        assert!(
            speedup * OVERLAP_MAX_SLOWDOWN >= 1.0,
            "{cores} cores for {OVERLAP_WORLD} ranks: async wall-clock regressed beyond \
             {OVERLAP_MAX_SLOWDOWN}× inline ({speedup:.3}× speedup)"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accum_steps_paper_defaults() {
        // Global batch 8192, micro-batch 8.
        assert_eq!(accum_steps(16, 8, 8192), 64);
        assert_eq!(accum_steps(128, 8, 8192), 8);
        // Never below 1.
        assert_eq!(accum_steps(2048, 8, 8192), 1);
    }

    #[test]
    fn table_rows_must_match_headers() {
        let mut t = Table::new("t", &["a", "b"]);
        t.row(vec!["1".into(), "2".into()]);
        assert_eq!(t.rows.len(), 1);
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn bad_row_panics() {
        let mut t = Table::new("t", &["a", "b"]);
        t.row(vec!["1".into()]);
    }

    #[test]
    fn cell_renders_oom_as_cross() {
        let ok: Result<i32, String> = Ok(5);
        let err: Result<i32, String> = Err("oom".into());
        assert_eq!(cell(&ok), "5");
        assert_eq!(cell(&err), "×");
    }
}

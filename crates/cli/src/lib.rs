//! Implementation of the `mics-sim` command-line tool.
//!
//! ```text
//! mics-sim models
//! mics-sim estimate bert-10b --nodes 4 --strategy mics:8
//! mics-sim simulate bert-15b --nodes 8 --instance p4d --strategy zero3 --accum 16
//! mics-sim tune bert-50b --nodes 8
//! ```

#![warn(missing_docs)]

pub mod perf_diff;

use mics_cluster::{ClusterSpec, InstanceType};
use mics_core::memory::check_memory;
use mics_core::{simulate, simulate_dp_traced, tune, Strategy, TrainingJob};
use mics_dataplane::TransportKind;
use mics_model::WorkloadSpec;
pub use perf_diff::{perf_diff, PerfDiffArgs};
use std::fmt;
use std::str::FromStr;

/// A parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// List available model presets.
    Models,
    /// Per-device memory estimate for a job.
    Estimate(JobArgs),
    /// Simulate one training iteration.
    Simulate(JobArgs),
    /// Search for the best MiCS configuration.
    Tune(JobArgs),
    /// Train the fig15-class LM on the real thread-rank backend.
    Fidelity(FidelityArgs),
    /// Compare two `results/` snapshots metric-by-metric.
    PerfDiff(PerfDiffArgs),
}

/// Shared job arguments.
#[derive(Debug, Clone, PartialEq)]
pub struct JobArgs {
    /// Model preset name (see [`model_names`]).
    pub model: String,
    /// Cluster nodes.
    pub nodes: usize,
    /// Instance preset: `p3dn` (default), `p4d`, or `dgx`.
    pub instance: String,
    /// Strategy spec: `mics:<p>`, `zero1`, `zero2`, `zero3`, `ddp`.
    pub strategy: String,
    /// Micro-batch size per device.
    pub micro_batch: usize,
    /// Gradient-accumulation depth.
    pub accum: usize,
    /// Write a chrome-trace JSON of the simulated iteration here
    /// (`simulate` only).
    pub trace: Option<String>,
}

impl Default for JobArgs {
    fn default() -> Self {
        JobArgs {
            model: String::new(),
            nodes: 2,
            instance: "p3dn".into(),
            strategy: "mics:8".into(),
            micro_batch: 8,
            accum: 4,
            trace: None,
        }
    }
}

/// Arguments of the `fidelity` subcommand, which runs the fig15-class
/// transformer LM on the *real* `mics-minidl` backend (8 thread ranks,
/// MiCS 2-hop, partition groups of 2) rather than the simulator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FidelityArgs {
    /// Training iterations to run.
    pub iterations: usize,
    /// Collective look-ahead: `0` = every collective on the rank thread,
    /// `≥ 1` = overlapped reduces and gather prefetch.
    pub prefetch_depth: usize,
    /// Write a chrome-trace JSON combining the backend's *measured* lane
    /// spans with the simulator's *charged* timeline for the same program.
    pub trace: Option<String>,
    /// Data-plane transport the ranks collectivize over: `local` keeps the
    /// shared-memory rendezvous, `socket` frames every collective through a
    /// loopback hub (same bits, real wire).
    pub transport: TransportKind,
}

impl Default for FidelityArgs {
    fn default() -> Self {
        FidelityArgs {
            iterations: 10,
            prefetch_depth: 2,
            trace: None,
            transport: TransportKind::Local,
        }
    }
}

/// CLI errors, printable as user-facing messages.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CliError(pub String);

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for CliError {}

impl From<String> for CliError {
    fn from(msg: String) -> Self {
        CliError(msg)
    }
}

fn err(msg: impl Into<String>) -> CliError {
    CliError(msg.into())
}

/// `--flag value` pairs into typed lookups — the argument grammar of
/// `mics-sim` and of the `mics-rankd` and `mics-plannerd` daemons.
pub struct Flags {
    pairs: Vec<(String, String)>,
    usage: &'static str,
}

impl Flags {
    /// Parse `args`: every `--flag` takes a value except the bare
    /// `switches`, which read as `"true"`. `usage` is appended to the
    /// errors that mean the command line was malformed.
    pub fn parse(args: &[String], switches: &[&str], usage: &'static str) -> Result<Flags, String> {
        let mut pairs = Vec::new();
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let flag = flag
                .strip_prefix("--")
                .ok_or_else(|| format!("expected a --flag, got '{flag}'\n\n{usage}"))?;
            let value = if switches.contains(&flag) {
                "true"
            } else {
                it.next().ok_or_else(|| format!("--{flag} requires a value"))?.as_str()
            };
            pairs.push((flag.to_string(), value.to_string()));
        }
        Ok(Flags { pairs, usage })
    }

    /// Reject any flag outside `known`, the caller's flags (its switches
    /// included).
    pub fn only(self, known: &[&str]) -> Result<Flags, String> {
        match self.pairs.iter().find(|(k, _)| !known.contains(&k.as_str())) {
            Some((k, _)) => Err(format!("unknown flag '--{k}'\n\n{}", self.usage)),
            None => Ok(self),
        }
    }

    /// The value of `--name`, if given.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.pairs.iter().find(|(k, _)| k == name).map(|(_, v)| v.as_str())
    }

    /// `--name` parsed as a `T`, or `default` when absent; `what` names the
    /// expected value in the error.
    pub fn parse_or<T: FromStr>(&self, name: &str, default: T, what: &str) -> Result<T, String> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("--{name} must be {what}, got '{v}'")),
        }
    }

    /// `--name` as an integer, or `default` when absent.
    pub fn num(&self, name: &str, default: usize) -> Result<usize, String> {
        self.parse_or(name, default, "an integer")
    }

    /// The value of `--name`, or a usage error.
    pub fn required(&self, name: &str) -> Result<&str, String> {
        self.get(name).ok_or_else(|| format!("--{name} is required\n\n{}", self.usage))
    }
}

/// The usage banner.
pub const USAGE: &str = "\
mics-sim — simulate MiCS / ZeRO / DDP training on cloud GPU clusters

USAGE:
  mics-sim models
  mics-sim estimate <model> [--nodes N] [--instance p3dn|p4d|dgx]
                    [--strategy mics:<p>|zero1|zero2|zero3|ddp]
                    [--micro-batch B]
  mics-sim simulate <model> [same options] [--accum S] [--trace out.json]
  mics-sim tune     <model> [--nodes N] [--instance ...] [--micro-batch B] [--accum S]
  mics-sim fidelity [--iterations N] [--prefetch-depth D] [--trace out.json]
                    [--transport local|socket]
  mics-sim perf-diff <old-dir> <new-dir> [--threshold PCT]

MODELS: run `mics-sim models` for the list.
SEE ALSO: `mics-rankd` runs the same data plane as one OS process per rank.";

/// Names of the model presets `mics-sim` knows (from `mics-model`).
pub fn model_names() -> Vec<&'static str> {
    mics_model::preset_names().to_vec()
}

/// Resolve a model preset to its workload.
pub fn lookup_model(name: &str, micro_batch: usize) -> Result<WorkloadSpec, CliError> {
    mics_model::preset(name, micro_batch)
        .ok_or_else(|| err(format!("unknown model '{name}'; run `mics-sim models` for the list")))
}

/// Resolve an instance preset.
pub fn lookup_instance(name: &str) -> Result<InstanceType, CliError> {
    InstanceType::preset(name)
        .ok_or_else(|| err(format!("unknown instance '{name}' (expected p3dn, p4d, or dgx)")))
}

/// Parse a strategy spec (the shared [`Strategy::parse`] grammar).
pub fn parse_strategy(spec: &str) -> Result<Strategy, CliError> {
    Strategy::parse(spec).map_err(err)
}

/// `args` as `--flag value` pairs, every flag among `known`.
fn flags(args: &[String], known: &[&str]) -> Result<Flags, CliError> {
    Ok(Flags::parse(args, &[], USAGE)?.only(known)?)
}

/// Parse argv (excluding the program name).
pub fn parse_args(args: &[String]) -> Result<Command, CliError> {
    let (sub, rest) = args.split_first().ok_or_else(|| err(USAGE))?;
    let positional = |i: usize, name: &str| {
        rest.get(i).cloned().ok_or_else(|| err(format!("{sub}: missing <{name}>")))
    };
    match sub.as_str() {
        "models" => Ok(Command::Models),
        "fidelity" => {
            let f = flags(rest, &["iterations", "prefetch-depth", "trace", "transport"])?;
            let d = FidelityArgs::default();
            let fid = FidelityArgs {
                iterations: f.parse_or("iterations", d.iterations, "a positive integer")?,
                prefetch_depth: f.num("prefetch-depth", d.prefetch_depth)?,
                trace: f.get("trace").map(String::from),
                transport: f.parse_or("transport", d.transport, "'local' or 'socket'")?,
            };
            if fid.iterations == 0 {
                return Err(err("--iterations must be a positive integer"));
            }
            Ok(Command::Fidelity(fid))
        }
        "perf-diff" => {
            let (old_dir, new_dir) = (positional(0, "old-dir")?, positional(1, "new-dir")?);
            let f = flags(&rest[2..], &["threshold"])?;
            let default = PerfDiffArgs::default().threshold_pct;
            let threshold_pct = f.parse_or("threshold", default, "a number (percent)")?;
            if !threshold_pct.is_finite() || threshold_pct < 0.0 {
                return Err(err("--threshold must be a non-negative number"));
            }
            Ok(Command::PerfDiff(PerfDiffArgs { old_dir, new_dir, threshold_pct }))
        }
        "estimate" | "simulate" | "tune" => {
            let model = positional(0, "model")?;
            let known = ["nodes", "instance", "strategy", "micro-batch", "accum", "trace"];
            let f = flags(&rest[1..], &known)?;
            let d = JobArgs::default();
            let job = JobArgs {
                model,
                nodes: f.parse_or("nodes", d.nodes, "a positive integer")?,
                instance: f.get("instance").map_or(d.instance, String::from),
                strategy: f.get("strategy").map_or(d.strategy, String::from),
                micro_batch: f.parse_or("micro-batch", d.micro_batch, "a positive integer")?,
                accum: f.parse_or("accum", d.accum, "a positive integer")?,
                trace: f.get("trace").map(String::from),
            };
            Ok(match sub.as_str() {
                "estimate" => Command::Estimate(job),
                "simulate" => Command::Simulate(job),
                _ => Command::Tune(job),
            })
        }
        _ => Err(err(format!("unknown subcommand '{sub}'\n\n{USAGE}"))),
    }
}

fn gib(x: u64) -> f64 {
    x as f64 / (1u64 << 30) as f64
}

/// Execute a parsed command, returning the text to print.
pub fn execute(cmd: &Command) -> Result<String, CliError> {
    match cmd {
        Command::Models => {
            let mut out = String::from("available models:\n");
            for name in model_names() {
                let w = lookup_model(name, 1).unwrap();
                out.push_str(&format!(
                    "  {name:<14} {:>7.2}B params, {} layers\n",
                    w.total_params() as f64 / 1e9,
                    w.layers.len()
                ));
            }
            Ok(out)
        }
        Command::Estimate(job) => {
            let (workload, cluster, strategy) = resolve(job)?;
            let plan = strategy.plan(cluster.total_devices());
            match check_memory(&workload, &cluster, &plan, &strategy.label()) {
                Ok(est) => Ok(format!(
                    "{} on {}×{} ({} GPUs), {}:\n\
                     params     {:>8.2} GiB\n\
                     grads      {:>8.2} GiB\n\
                     optimizer  {:>8.2} GiB\n\
                     activations{:>8.2} GiB\n\
                     transient  {:>8.2} GiB\n\
                     total      {:>8.2} GiB per device (usable: {:.2} GiB) — fits{}",
                    workload.name,
                    cluster.nodes,
                    cluster.instance.name,
                    cluster.total_devices(),
                    strategy.label(),
                    gib(est.params),
                    gib(est.grads),
                    gib(est.optimizer),
                    gib(est.activations),
                    gib(est.transient),
                    gib(est.total()),
                    gib(mics_core::memory::usable_bytes(&cluster)),
                    if est.hierarchical_buffers { "" } else { " (hierarchical staging disabled)" },
                )),
                Err(e) => Ok(format!("{e}")),
            }
        }
        Command::Simulate(job) => {
            let (workload, cluster, strategy) = resolve(job)?;
            let t = TrainingJob {
                workload,
                cluster: cluster.clone(),
                strategy,
                accum_steps: job.accum,
            };
            // With --trace, the same run also lowers to a chrome-trace
            // timeline (load it at chrome://tracing or ui.perfetto.dev).
            let outcome = match &job.trace {
                Some(path) => simulate_dp_traced(&t).map(|(r, json)| (r, Some((path, json)))),
                None => simulate(&t).map(|r| (r, None)),
            };
            match outcome {
                Ok((r, trace)) => {
                    let mut out = format!(
                        "{}: {:.1} samples/sec | iteration {} | {:.1} TFLOPS/GPU | \
                         compute {:.0}% / comm {:.0}% | {:.1} GiB/device{}",
                        r.label,
                        r.samples_per_sec,
                        r.iter_time,
                        r.tflops_per_gpu(),
                        r.compute_fraction * 100.0,
                        r.comm_fraction * 100.0,
                        gib(r.memory.total()),
                        if r.hierarchical_used { " | hierarchical all-gather" } else { "" },
                    );
                    if let Some((path, json)) = trace {
                        std::fs::write(path, json)
                            .map_err(|e| err(format!("cannot write trace to '{path}': {e}")))?;
                        out.push_str(&format!(" | trace written to {path}"));
                    }
                    Ok(out)
                }
                Err(e) => Ok(format!("{e}")),
            }
        }
        Command::Fidelity(args) => {
            let rec = mics_trace::global();
            if args.trace.is_some() {
                // Drop whatever an earlier run in this process recorded, so
                // the merged file only holds this run's wire events.
                let _ = rec.drain();
                rec.enable();
            }
            let setup = fig15_setup(args);
            let out =
                mics_minidl::train_lm_on(args.transport, &setup, mics_minidl::SyncSchedule::TwoHop);
            let s = &out.lane_stats;
            let ms = |ns: u64| ns as f64 / 1e6;
            let mut text = format!(
                "fig15 LM on the real backend (8 ranks, mics p=2, {} transport, {} iters, \
                 prefetch depth {}): final loss {:.6}\n\
                 wall {:.1} ms | compute {:.1} ms | gather {:.1} ms | reduce {:.1} ms | \
                 overlap {:.0}% | {} deferred reduces | {} prefetched gathers",
                args.transport,
                args.iterations,
                args.prefetch_depth,
                out.losses.last().copied().unwrap_or(f32::NAN),
                ms(s.wall_ns),
                ms(s.busy_ns(mics_minidl::ExecLane::Compute)),
                ms(s.busy_ns(mics_minidl::ExecLane::Gather)),
                ms(s.busy_ns(mics_minidl::ExecLane::Reduce)),
                s.overlap_fraction() * 100.0,
                s.deferred_wire_ops.len(),
                s.prefetched_gathers,
            );
            if let Some(path) = &args.trace {
                rec.disable();
                let live = rec.drain();
                std::fs::write(path, fidelity_trace(&setup, s, live))
                    .map_err(|e| err(format!("cannot write trace to '{path}': {e}")))?;
                text.push_str(&format!(" | trace written to {path}"));
            }
            Ok(text)
        }
        Command::PerfDiff(args) => perf_diff(args),
        Command::Tune(job) => {
            let (workload, cluster, _) = resolve(job)?;
            match tune(&workload, &cluster, job.accum) {
                Ok(result) => {
                    let mut out = format!(
                        "best: MiCS p={} (hierarchical: {}) at {:.1} samples/sec\nexplored:\n",
                        result.best.partition_size,
                        result.best.hierarchical_allgather,
                        result.report.samples_per_sec
                    );
                    for c in &result.explored {
                        out.push_str(&format!(
                            "  p={:<4} hier={:<5} {}\n",
                            c.config.partition_size,
                            c.config.hierarchical_allgather,
                            match &c.outcome {
                                Ok(r) => format!("{:.1} samples/sec", r.samples_per_sec),
                                Err(_) => "OOM".into(),
                            }
                        ));
                    }
                    Ok(out)
                }
                Err(e) => Ok(format!("nothing fits: {e}")),
            }
        }
    }
}

/// The fig15 fidelity geometry: 8 ranks, partition groups of 2, micro-batch
/// 8 × 4 accumulation steps over the tiny transformer LM.
fn fig15_setup(args: &FidelityArgs) -> mics_minidl::LmSetup {
    mics_minidl::LmSetup {
        model: mics_minidl::TinyTransformer::new(9, 6, 8, 2, 16, 2),
        world: 8,
        partition_size: 2,
        micro_batch: 8,
        accum_steps: 4,
        iterations: args.iterations,
        lr: 0.015,
        seed: 20220615,
        quantize: false,
        loss_scale: mics_minidl::LossScale::None,
        clip_grad_norm: None,
        comm_quant: None,
        prefetch_depth: args.prefetch_depth,
    }
}

/// One chrome-trace document holding the simulator's *charged* timeline
/// for the fidelity program (pid 0), the real backend's *measured* lane
/// spans and counter tracks (pid 1), and whatever the live recorder
/// captured during the run — the socket dataplane's byte/queue-depth
/// counters and fault instants (further pids). Load it in Perfetto to
/// compare charged vs measured side by side.
fn fidelity_trace(
    setup: &mics_minidl::LmSetup,
    measured: &mics_minidl::LaneStats,
    live: mics_trace::Trace,
) -> String {
    let hp = setup.hyper();
    let spec = mics_minidl::train::step_spec_with_flops(
        &hp,
        mics_minidl::SyncSchedule::TwoHop,
        setup.model.num_params(),
        4e9,
        8e9,
    );
    let prog = spec.program();
    let mut inst = InstanceType::p3dn_24xlarge();
    inst.gpus_per_node = hp.world;
    let mut sc = mics_core::ops::SimCluster::new(ClusterSpec::new(inst, 1));
    sc.enable_tracing();
    mics_core::schedule::execute_on_sim(&prog, &mut sc, 1e12);
    let (_, _, _, mut trace) = sc.run_traced();
    measured.trace_into(&mut trace, "real backend (measured)");
    trace.merge(live);
    trace.to_json()
}

fn resolve(job: &JobArgs) -> Result<(WorkloadSpec, ClusterSpec, Strategy), CliError> {
    if job.nodes == 0 {
        return Err(err("--nodes must be at least 1"));
    }
    let workload = lookup_model(&job.model, job.micro_batch)?;
    let instance = lookup_instance(&job.instance)?;
    let cluster = ClusterSpec::new(instance, job.nodes);
    let strategy = parse_strategy(&job.strategy)?;
    strategy.check_partition(cluster.total_devices()).map_err(|e| err(e.to_string()))?;
    Ok((workload, cluster, strategy))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mics_core::ZeroStage;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(|x| x.to_string()).collect()
    }

    #[test]
    fn parse_models_subcommand() {
        assert_eq!(parse_args(&argv("models")).unwrap(), Command::Models);
    }

    #[test]
    fn parse_simulate_with_flags() {
        let cmd = parse_args(&argv(
            "simulate bert-15b --nodes 8 --instance p4d --strategy zero3 \
             --micro-batch 4 --accum 16",
        ))
        .unwrap();
        match cmd {
            Command::Simulate(j) => {
                assert_eq!(j.model, "bert-15b");
                assert_eq!(j.nodes, 8);
                assert_eq!(j.instance, "p4d");
                assert_eq!(j.strategy, "zero3");
                assert_eq!(j.micro_batch, 4);
                assert_eq!(j.accum, 16);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parse_rejects_unknown_flag_and_subcommand() {
        assert!(parse_args(&argv("simulate bert-10b --bogus 3")).is_err());
        assert!(parse_args(&argv("frobnicate")).is_err());
        assert!(parse_args(&argv("estimate")).is_err(), "missing model");
        assert!(parse_args(&[]).is_err());
    }

    #[test]
    fn daemon_flags_take_values_except_bare_switches() {
        let flags = Flags::parse(&argv("--model bert-10b --tune --nodes 2"), &["tune"], "USAGE");
        let flags = flags.unwrap();
        assert_eq!(flags.get("tune"), Some("true"));
        assert_eq!(flags.required("model"), Ok("bert-10b"), "--tune must not eat --nodes");
        assert_eq!(flags.num("nodes", 1), Ok(2));
        assert!(flags.required("addr").unwrap_err().ends_with("USAGE"));
        assert!(Flags::parse(&argv("--tune 2"), &[], "").is_ok(), "not a switch: takes a value");
        assert!(Flags::parse(&argv("--nodes"), &["tune"], "").is_err());
        assert!(Flags::parse(&argv("nodes 2"), &["tune"], "").is_err());
    }

    #[test]
    fn flags_outside_the_callers_list_are_rejected() {
        let flags = || Flags::parse(&argv("--addr a --tune"), &["tune"], "USAGE").unwrap();
        assert!(flags().only(&["addr", "tune"]).is_ok());
        let e = flags().only(&["addr"]).err().unwrap();
        assert!(e.starts_with("unknown flag '--tune'") && e.ends_with("USAGE"), "{e}");
    }

    #[test]
    fn strategy_parsing() {
        assert_eq!(parse_strategy("ddp").unwrap(), Strategy::Ddp);
        assert_eq!(parse_strategy("zero3").unwrap(), Strategy::Zero(ZeroStage::Three));
        match parse_strategy("mics:16").unwrap() {
            Strategy::Mics(c) => assert_eq!(c.partition_size, 16),
            other => panic!("{other:?}"),
        }
        assert!(parse_strategy("mics:x").is_err());
        assert!(parse_strategy("zero9").is_err());
    }

    #[test]
    fn every_listed_model_resolves() {
        for name in model_names() {
            assert!(lookup_model(name, 2).is_ok(), "{name}");
        }
        assert!(lookup_model("bert-9000b", 2).is_err());
    }

    #[test]
    fn execute_models_lists_all() {
        let out = execute(&Command::Models).unwrap();
        for name in model_names() {
            assert!(out.contains(name), "{name} missing from:\n{out}");
        }
    }

    #[test]
    fn execute_estimate_reports_fit_and_oom() {
        let fit =
            execute(&parse_args(&argv("estimate bert-10b --nodes 2 --strategy mics:8")).unwrap())
                .unwrap();
        assert!(fit.contains("fits"), "{fit}");
        let oom =
            execute(&parse_args(&argv("estimate bert-50b --nodes 2 --strategy mics:16")).unwrap())
                .unwrap();
        assert!(oom.contains("out of memory"), "{oom}");
    }

    #[test]
    fn execute_simulate_end_to_end() {
        let out = execute(
            &parse_args(&argv("simulate bert-10b --nodes 2 --strategy mics:8 --accum 2")).unwrap(),
        )
        .unwrap();
        assert!(out.contains("samples/sec"), "{out}");
        assert!(out.contains("TFLOPS/GPU"));
    }

    #[test]
    fn trace_flag_writes_chrome_trace_json() {
        let path = std::env::temp_dir().join("mics_sim_cli_trace_test.json");
        let path = path.to_str().unwrap().to_string();
        let cmd = parse_args(&argv(&format!(
            "simulate bert-10b --nodes 2 --strategy mics:8 --accum 2 --trace {path}"
        )))
        .unwrap();
        let out = execute(&cmd).unwrap();
        assert!(out.contains("trace written to"), "{out}");
        let json = std::fs::read_to_string(&path).unwrap();
        assert!(json.contains("\"traceEvents\""), "not chrome-trace shaped: {json:.80}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn parse_fidelity_with_flags() {
        let cmd = parse_args(&argv(
            "fidelity --iterations 3 --prefetch-depth 1 --trace t.json --transport socket",
        ))
        .unwrap();
        assert_eq!(
            cmd,
            Command::Fidelity(FidelityArgs {
                iterations: 3,
                prefetch_depth: 1,
                trace: Some("t.json".into()),
                transport: TransportKind::Socket,
            })
        );
        assert_eq!(
            parse_args(&argv("fidelity")).unwrap(),
            Command::Fidelity(FidelityArgs::default())
        );
        assert!(parse_args(&argv("fidelity --iterations 0")).is_err());
        assert!(parse_args(&argv("fidelity --transport carrier-pigeon")).is_err());
        assert!(parse_args(&argv("fidelity --bogus")).is_err());
    }

    #[test]
    fn fidelity_over_sockets_matches_local() {
        // The same fig15 run routed over the framed loopback hub must print
        // the same final loss — the CLI face of the bit-identical claim.
        let local = execute(&parse_args(&argv("fidelity --iterations 2")).unwrap()).unwrap();
        let socket =
            execute(&parse_args(&argv("fidelity --iterations 2 --transport socket")).unwrap())
                .unwrap();
        let loss = |s: &str| {
            s.split("final loss ").nth(1).unwrap().split('\n').next().unwrap().to_string()
        };
        assert_eq!(loss(&local), loss(&socket), "local:\n{local}\nsocket:\n{socket}");
        assert!(socket.contains("socket transport"), "{socket}");
    }

    #[test]
    fn fidelity_runs_real_backend_and_writes_merged_trace() {
        let path = std::env::temp_dir().join("mics_sim_cli_fidelity_trace_test.json");
        let path = path.to_str().unwrap().to_string();
        let cmd = parse_args(&argv(&format!(
            "fidelity --iterations 2 --prefetch-depth 2 --trace {path}"
        )))
        .unwrap();
        let out = execute(&cmd).unwrap();
        assert!(out.contains("final loss"), "{out}");
        assert!(out.contains("trace written to"), "{out}");
        let json = std::fs::read_to_string(&path).unwrap();
        assert!(json.starts_with("{\"traceEvents\":["), "{json:.80}");
        assert!(json.contains("simulator (charged)"), "sim process missing");
        assert!(json.contains("real backend (measured)"), "real process missing");
        assert!(json.contains("\"pid\":1"), "real lanes must live under their own pid");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn parse_perf_diff_with_threshold() {
        let cmd = parse_args(&argv("perf-diff results /tmp/new --threshold 2.5")).unwrap();
        assert_eq!(
            cmd,
            Command::PerfDiff(PerfDiffArgs {
                old_dir: "results".into(),
                new_dir: "/tmp/new".into(),
                threshold_pct: 2.5,
            })
        );
        match parse_args(&argv("perf-diff results results")).unwrap() {
            Command::PerfDiff(d) => assert_eq!(d.threshold_pct, 5.0, "default threshold"),
            other => panic!("{other:?}"),
        }
        assert!(parse_args(&argv("perf-diff results")).is_err(), "missing <new-dir>");
        assert!(parse_args(&argv("perf-diff a b --threshold -1")).is_err());
        assert!(parse_args(&argv("perf-diff a b --bogus")).is_err());
    }

    #[test]
    fn invalid_partition_size_is_a_cli_error_not_a_panic() {
        let cmd = parse_args(&argv("simulate bert-10b --nodes 2 --strategy mics:5")).unwrap();
        let e = execute(&cmd).unwrap_err();
        assert!(e.0.contains("does not divide"), "{e}");
    }
}

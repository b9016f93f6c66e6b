//! `mics-plannerd` — the planning/costing service as a command-line tool.
//!
//! Three subcommands:
//!
//! * `serve` — run the planner server on an address until a client sends
//!   `shutdown` (the resolved address is printed on stdout, so scripts can
//!   bind `127.0.0.1:0` and scrape the port);
//! * `query` — one typed query against a running server: simulate a job,
//!   or `--tune` to search its best strategy;
//! * `bench` — hammer a server (an in-process one by default) from many
//!   client threads and print queries/sec, cache behaviour and latency
//!   percentiles.
//!
//! Query results print as one JSON document on stdout; diagnostics go to
//! stderr — same contract as `mics-rankd`.

use mics_cli::Flags;
use mics_core::{Json, ToJson};
use mics_planner::{JobSpec, PlannerClient, PlannerConfig, PlannerServer};
use std::io::Write as _;
use std::time::{Duration, Instant};

const USAGE: &str = "\
mics-plannerd — planning/costing service over the MiCS simulator and tuner

USAGE:
  mics-plannerd serve [--addr HOST:PORT|unix:PATH] [--workers N]
                      [--queue-depth N] [--budget-flops F] [--deadline-ms T]
  mics-plannerd query --addr A --model M --nodes N [--micro-batch B]
                      [--instance p3dn|p4d|dgx] [--strategy S] [--accum K]
                      [--tune] [--compression none,int8,...] [--deadline-ms T]
  mics-plannerd bench [--addr A] [--clients K] [--queries N]
                      [--out results/FILE.json]
  mics-plannerd stop --addr A

`serve` runs until a client sends a shutdown request (e.g. `stop`).
`query` speaks the planner protocol once and prints the answer as JSON.
`bench` measures a server (spawning a private in-process one unless
--addr points at yours).";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("serve") => run_serve(&args[1..]),
        Some("query") => run_query(&args[1..]),
        Some("bench") => run_bench(&args[1..]),
        Some("stop") => run_stop(&args[1..]),
        _ => Err(USAGE.to_string()),
    };
    if let Err(e) = result {
        eprintln!("{e}");
        std::process::exit(2);
    }
}

/// A subcommand's flags, every one among its `known`: each takes a value
/// except the bare `--tune`.
fn parse_flags(args: &[String], known: &[&str]) -> Result<Flags, String> {
    Flags::parse(args, &["tune"], USAGE)?.only(known)
}

fn config_from(flags: &Flags) -> Result<PlannerConfig, String> {
    let mut cfg = PlannerConfig::default();
    if let Some(addr) = flags.get("addr") {
        cfg.addr = addr.to_string();
    }
    cfg.workers = flags.num("workers", cfg.workers)?;
    cfg.queue_depth = flags.num("queue-depth", cfg.queue_depth)?;
    if let Some(b) = flags.get("budget-flops") {
        cfg.default_budget_flops =
            b.parse().map_err(|_| format!("--budget-flops must be a number, got '{b}'"))?;
    }
    if let Some(ms) = flags.get("deadline-ms") {
        let ms: u64 = ms.parse().map_err(|_| "--deadline-ms must be an integer".to_string())?;
        cfg.default_deadline = Duration::from_millis(ms);
    }
    Ok(cfg)
}

/// Serve until a client asks us to shut down.
fn run_serve(args: &[String]) -> Result<(), String> {
    let known = ["addr", "workers", "queue-depth", "budget-flops", "deadline-ms"];
    let flags = parse_flags(args, &known)?;
    let cfg = config_from(&flags)?;
    let server = PlannerServer::start(cfg).map_err(|e| format!("cannot start server: {e}"))?;
    println!("planner listening on {}", server.addr());
    std::io::stdout().flush().ok();
    server.join();
    eprintln!("planner drained and stopped");
    Ok(())
}

fn job_from(flags: &Flags) -> Result<JobSpec, String> {
    Ok(JobSpec {
        model: flags.required("model")?.to_string(),
        micro_batch: flags.num("micro-batch", 8)?,
        instance: flags.get("instance").unwrap_or("p3dn").to_string(),
        nodes: flags.required("nodes")?.parse().map_err(|e| format!("--nodes: {e}"))?,
        strategy: flags.get("strategy").unwrap_or("mics:8").to_string(),
        accum: flags.num("accum", 4)?,
    })
}

/// One query against a running server.
fn run_query(args: &[String]) -> Result<(), String> {
    let known = [
        "addr",
        "model",
        "nodes",
        "micro-batch",
        "instance",
        "strategy",
        "accum",
        "tune",
        "compression",
        "deadline-ms",
    ];
    let flags = parse_flags(args, &known)?;
    let addr = flags.required("addr")?;
    let job = job_from(&flags)?;
    let deadline = flags.get("deadline-ms").map(|ms| {
        ms.parse::<u64>().map(Duration::from_millis).map_err(|_| "--deadline-ms must be an integer")
    });
    let deadline = deadline.transpose().map_err(String::from)?;
    let mut client =
        PlannerClient::connect(addr).map_err(|e| format!("cannot connect to '{addr}': {e}"))?;
    let doc = if flags.get("tune").is_some() {
        let compression: Vec<&str> =
            flags.get("compression").map(|c| c.split(',').collect()).unwrap_or_default();
        match client.tune(&job, &compression, deadline).map_err(|e| e.to_string())? {
            Ok(t) => Json::obj([
                ("best", t.best.to_json()),
                ("report", t.report.to_json()),
                ("explored", Json::Num(t.explored as f64)),
            ]),
            Err(oom) => Json::obj([("oom", oom.to_json())]),
        }
    } else {
        match client.simulate(&job, deadline).map_err(|e| e.to_string())? {
            Ok(r) => Json::obj([("report", r.to_json())]),
            Err(oom) => Json::obj([("oom", oom.to_json())]),
        }
    };
    println!("{}", doc.pretty());
    Ok(())
}

/// Ask a running server to drain and exit.
fn run_stop(args: &[String]) -> Result<(), String> {
    let flags = parse_flags(args, &["addr"])?;
    let addr = flags.required("addr")?;
    let mut client =
        PlannerClient::connect(addr).map_err(|e| format!("cannot connect to '{addr}': {e}"))?;
    client.shutdown_server().map_err(|e| e.to_string())?;
    eprintln!("shutdown acknowledged by {addr}");
    Ok(())
}

/// Hammer a server and report throughput/latency/cache behaviour.
fn run_bench(args: &[String]) -> Result<(), String> {
    let flags = parse_flags(args, &["addr", "clients", "queries", "out"])?;
    let clients = flags.num("clients", 4)?.max(1);
    let queries = flags.num("queries", 64)?.max(1);

    // Target the given server, or spin up a private in-process one.
    let private = flags.get("addr").is_none();
    let server = if private {
        Some(PlannerServer::start(PlannerConfig::default()).map_err(|e| e.to_string())?)
    } else {
        None
    };
    let addr = flags
        .get("addr")
        .map(str::to_string)
        .unwrap_or_else(|| server.as_ref().unwrap().addr().to_string());
    eprintln!("benching {addr} with {clients} clients × {queries} queries");

    // A small pool of distinct jobs, cycled per query index so every client
    // mixes cold misses with hits on what its peers already computed.
    let jobs: Vec<JobSpec> = [(1usize, 8usize), (2, 8), (2, 16), (1, 4)]
        .iter()
        .flat_map(|&(nodes, p)| {
            [4usize, 8].into_iter().map(move |mb| {
                let mut j = JobSpec::mics("bert-1.5b", nodes, p);
                j.micro_batch = mb;
                j
            })
        })
        .collect();

    let started = Instant::now();
    let mut latencies_ns: Vec<u64> = Vec::with_capacity(clients * queries);
    let handles: Vec<_> = (0..clients)
        .map(|c| {
            let addr = addr.clone();
            let jobs = jobs.clone();
            std::thread::spawn(move || -> Result<Vec<u64>, String> {
                let mut client = PlannerClient::connect(&addr).map_err(|e| e.to_string())?;
                let mut lat = Vec::with_capacity(queries);
                for q in 0..queries {
                    let job = &jobs[(c + q) % jobs.len()];
                    let t = Instant::now();
                    client
                        .simulate(job, None)
                        .map_err(|e| e.to_string())?
                        .map_err(|oom| format!("bench job unexpectedly OOMs: {oom:?}"))?;
                    lat.push(t.elapsed().as_nanos() as u64);
                }
                Ok(lat)
            })
        })
        .collect();
    for h in handles {
        latencies_ns.extend(h.join().map_err(|_| "bench client panicked")??);
    }
    let wall = started.elapsed();

    let mut client = PlannerClient::connect(&addr).map_err(|e| e.to_string())?;
    let stats = client.stats().map_err(|e| e.to_string())?;
    latencies_ns.sort_unstable();
    let pct = |p: f64| latencies_ns[((latencies_ns.len() - 1) as f64 * p) as usize];
    let total = latencies_ns.len();
    let doc = Json::obj([
        ("queries", Json::Num(total as f64)),
        ("clients", Json::Num(clients as f64)),
        ("wall_ms", Json::Num(wall.as_secs_f64() * 1e3)),
        ("queries_per_sec", Json::Num(total as f64 / wall.as_secs_f64())),
        ("p50_us", Json::Num(pct(0.50) as f64 / 1e3)),
        ("p99_us", Json::Num(pct(0.99) as f64 / 1e3)),
        ("sim_runs", Json::Num(stats.sim_runs as f64)),
        ("cache_hits", Json::Num(stats.cache_hits as f64)),
        ("cache_hit_rate", Json::Num(stats.cache_hits as f64 / (stats.queries.max(1)) as f64)),
        ("dedup_collapsed", Json::Num(stats.dedup_collapsed as f64)),
    ]);
    println!("{}", doc.pretty());

    if let Some(out) = flags.get("out") {
        if let Some(parent) = std::path::Path::new(out).parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent).map_err(|e| e.to_string())?;
            }
        }
        std::fs::write(out, doc.pretty()).map_err(|e| format!("cannot write '{out}': {e}"))?;
        eprintln!("[results written to {out}]");
    }
    if let Some(server) = server {
        client.shutdown_server().map_err(|e| e.to_string())?;
        server.join();
    }
    Ok(())
}

//! `plan_mix`: the planner service under a closed loop of two clients.

use crate::round::{
    report_peak_rss, report_window, trace_probes, write_trace, Report, RoundArgs, WindowClock,
};
use crate::spans::SpanLog;
use crate::stats::{median, quantile, sorted, Rng};
use mics_cluster::{ClusterSpec, InstanceType};
use mics_core::memory::check_memory;
use mics_core::{
    candidate_partition_sizes, dp_program, simulate, tune, Canonical, Json, MicsConfig, Strategy,
    ToJson, TrainingJob,
};
use mics_model::WorkloadSpec;
use mics_planner::{JobSpec, PlanCache, PlannerClient, PlannerConfig, PlannerServer};
use mics_simnet::{Op, Sim, SimTime};
use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

const INSTANCES: [&str; 3] = ["p3dn", "p4d", "dgx"];
const NODES: [usize; 8] = [1, 2, 3, 4, 6, 8, 12, 16];
const MICRO_BATCHES: [usize; 2] = [4, 8];
const MAX_ACCUM: usize = 8;

/// Band of the `simulate` cost proxy (`ops of dp_program × nodes`) a config
/// must fall in to enter the cold space. The simulator's cost per op grows
/// with the node count, so the product tracks wall time to about ±2×; a 3×
/// band keeps measured p90/p10 of in-process `simulate` time under 8×.
pub const SIM_PROXY_BAND: (usize, usize) = (1500, 4500);

/// Band of the `tune` cost proxy: the `simulate` proxy summed over the
/// candidates the tuner will actually simulate (those that fit).
pub const TUNE_PROXY_BAND: (usize, usize) = (7000, 21000);

/// Resolve a wire job the way the server does.
pub fn job_of(spec: &JobSpec) -> TrainingJob {
    TrainingJob {
        workload: mics_model::preset(&spec.model, spec.micro_batch).expect("preset model"),
        cluster: ClusterSpec::new(
            InstanceType::preset(&spec.instance).expect("preset instance"),
            spec.nodes,
        ),
        strategy: Strategy::parse(&spec.strategy).expect("strategy grammar"),
        accum_steps: spec.accum,
    }
}

/// Counts the ops of a job's step program, lowering each distinct program
/// once: the op sequence depends on the model, the geometry, the strategy,
/// the accumulation depth and whether hierarchical staging buffers fit, but
/// not on the micro-batch or the instance type beyond that.
#[derive(Default)]
struct OpCounter {
    memo: HashMap<(String, usize, usize, usize, String, bool), usize>,
}

impl OpCounter {
    /// `ops × nodes` of a job — the simulate cost proxy — or `None` when the
    /// job does not fit in memory.
    fn sim_proxy(&mut self, job: &TrainingJob) -> Option<usize> {
        let n = job.cluster.total_devices();
        let plan = job.strategy.plan(n);
        let est = check_memory(&job.workload, &job.cluster, &plan, "benchmark").ok()?;
        let key = (
            job.workload.name.clone(),
            n,
            job.cluster.devices_per_node(),
            job.accum_steps,
            format!("{:?}", job.strategy),
            est.hierarchical_buffers,
        );
        let ops = *self
            .memo
            .entry(key)
            .or_insert_with(|| dp_program(job).expect("job passed the memory check").ops.len());
        Some(ops * job.cluster.nodes)
    }
}

/// Strategies valid on an `n`-device cluster: the ZeRO family, DDP, and MiCS
/// with every power-of-two partition size that divides `n` (`Strategy::plan`
/// panics on a size that does not, and the server refuses it).
fn strategies(n: usize) -> Vec<String> {
    let mut out: Vec<String> = ["ddp", "zero1", "zero2", "zero3"].map(String::from).to_vec();
    let mut p = 1;
    while p <= n {
        if n.is_multiple_of(p) {
            out.push(format!("mics:{p}"));
        }
        p *= 2;
    }
    out
}

/// Call `f` for every model × micro-batch × instance × node count of the
/// workload's grid, in a fixed order.
fn for_each_cluster(mut f: impl FnMut(&JobSpec, &WorkloadSpec, &ClusterSpec)) {
    for model in mics_model::preset_names() {
        for micro_batch in MICRO_BATCHES {
            let workload = mics_model::preset(model, micro_batch).expect("preset model");
            for instance in INSTANCES {
                for nodes in NODES {
                    let cluster =
                        ClusterSpec::new(InstanceType::preset(instance).expect("preset"), nodes);
                    // Strategy and accumulation depth are filled in per query.
                    let spec = JobSpec {
                        model: model.to_string(),
                        micro_batch,
                        instance: instance.to_string(),
                        nodes,
                        strategy: "zero3".to_string(),
                        accum: 1,
                    };
                    f(&spec, &workload, &cluster);
                }
            }
        }
    }
}

/// Whether a cost between `2 × base` and `16 × base` can land in `band`: a
/// program has between 2 and 16 ops per layer and micro-step, so this skips
/// what cannot before paying for a lowering.
fn may_land_in(band: (usize, usize), base: usize) -> bool {
    2 * base <= band.1 && 16 * base >= band.0
}

/// Every `simulate` query of the planner workload, in a fixed order: jobs
/// that fit in memory, are valid, and cost about the same to simulate.
fn simulate_space(counter: &mut OpCounter) -> Vec<JobSpec> {
    let mut out = Vec::new();
    for_each_cluster(|spec, workload, cluster| {
        for accum in 1..=MAX_ACCUM {
            if !may_land_in(SIM_PROXY_BAND, workload.layers.len() * accum * cluster.nodes) {
                continue;
            }
            for strategy in strategies(cluster.total_devices()) {
                let job = TrainingJob {
                    workload: workload.clone(),
                    cluster: cluster.clone(),
                    strategy: Strategy::parse(&strategy).expect("strategy grammar"),
                    accum_steps: accum,
                };
                let in_band = counter
                    .sim_proxy(&job)
                    .is_some_and(|c| (SIM_PROXY_BAND.0..=SIM_PROXY_BAND.1).contains(&c));
                if in_band {
                    out.push(JobSpec { strategy, accum, ..spec.clone() });
                }
            }
        }
    });
    out
}

/// Every `tune` query of the planner workload, in a fixed order: searches
/// in which at least one candidate fits and whose total cost is in band.
/// `strategy` is ignored by `tune`; it is left at a valid one.
fn tune_space(counter: &mut OpCounter) -> Vec<JobSpec> {
    let mut out = Vec::new();
    for_each_cluster(|spec, workload, cluster| {
        let n = cluster.total_devices();
        // The tuner's candidates: partition sizes × the hierarchical toggle
        // where a group spans nodes; it simulates the ones that fit.
        let mut candidates = Vec::new();
        for p in candidate_partition_sizes(cluster) {
            for hierarchical in [true, false] {
                if hierarchical && p <= cluster.devices_per_node() {
                    continue;
                }
                let mut config = MicsConfig::paper_defaults(p);
                config.hierarchical_allgather = hierarchical;
                let strategy = Strategy::Mics(config);
                if check_memory(workload, cluster, &strategy.plan(n), "benchmark").is_ok() {
                    candidates.push(strategy);
                }
            }
        }
        for accum in 1..=MAX_ACCUM {
            let base = workload.layers.len() * accum * cluster.nodes * candidates.len();
            if !may_land_in(TUNE_PROXY_BAND, base) {
                continue;
            }
            let cost: usize = candidates
                .iter()
                .map(|strategy| {
                    let job = TrainingJob {
                        workload: workload.clone(),
                        cluster: cluster.clone(),
                        strategy: strategy.clone(),
                        accum_steps: accum,
                    };
                    counter.sim_proxy(&job).expect("candidate passed the memory check")
                })
                .sum();
            if (TUNE_PROXY_BAND.0..=TUNE_PROXY_BAND.1).contains(&cost) {
                out.push(JobSpec { accum, ..spec.clone() });
            }
        }
    });
    out
}

// ---- the round ---------------------------------------------------------------

/// Requests per session (one unit): hot `simulate`s, cold `simulate`s, one
/// `tune`.
const HOT_PER_UNIT: usize = 24;
const COLD_PER_UNIT: usize = 7;
const QUERIES_PER_UNIT: usize = HOT_PER_UNIT + COLD_PER_UNIT + 1;
/// Configs warmed into the cache in set-up and re-queried by every session.
const HOT_SET: usize = 64;
/// Cold configs the workload must at least have (four times the cache).
pub const MIN_COLD_SPACE: usize = 2048;
const CLIENTS: usize = 2;
/// Every n-th served `simulate` answer is compared byte for byte.
const CHECK_EVERY: usize = 64;

/// The seeded inputs of one run: which configs are hot, and the order the
/// cold and tune configs are walked in.
pub struct PlanInputs {
    pub hot: Vec<JobSpec>,
    pub cold: Vec<JobSpec>,
    pub tune: Vec<JobSpec>,
}

pub fn inputs(seed: u64) -> PlanInputs {
    let mut rng = Rng::new(seed, 0);
    // One counter for both spaces: they lower many of the same programs.
    let mut counter = OpCounter::default();
    let mut sims = simulate_space(&mut counter);
    let mut tune = tune_space(&mut counter);
    rng.shuffle(&mut sims);
    rng.shuffle(&mut tune);
    let cold = sims.split_off(HOT_SET);
    assert!(cold.len() >= MIN_COLD_SPACE, "cold space shrank to {}", cold.len());
    PlanInputs { hot: sims, cold, tune }
}

/// What the server must answer to `simulate`, computed in-process.
fn reference_answer(spec: &JobSpec) -> String {
    simulate(&job_of(spec)).expect("every workload config fits").to_json().emit()
}

#[derive(Clone, Copy)]
enum Query {
    Hot(usize),
    Cold(usize),
    Tune(usize),
}

/// A served answer kept for checking once the window is over.
struct Sample {
    unit: usize,
    query: Query,
    answer: String,
}

/// One closed-loop client: a connection, its share of the cold and tune
/// walks, and what it has measured.
struct Client<'a> {
    id: usize,
    conn: PlannerClient,
    inputs: &'a PlanInputs,
    rng: Rng,
    /// Positions in the cold and tune walks; client `c` takes every
    /// `CLIENTS`-th config starting at `c`, so no cold config is asked for
    /// twice before the whole space has been walked.
    next_cold: usize,
    next_tune: usize,
    simulates_served: usize,
    log: SpanLog,
    unit_secs: Vec<f64>,
    failed_units: Vec<usize>,
    samples: Vec<Sample>,
    errors: u64,
}

impl<'a> Client<'a> {
    fn connect(id: usize, addr: &str, inputs: &'a PlanInputs, seed: u64) -> Self {
        Client {
            id,
            conn: PlannerClient::connect(addr).expect("cannot connect to the planner"),
            inputs,
            rng: Rng::new(seed, 1 + id as u64),
            next_cold: id,
            next_tune: id,
            simulates_served: 0,
            log: SpanLog::new(format!("client{id}")),
            unit_secs: Vec::new(),
            failed_units: Vec::new(),
            samples: Vec::new(),
            errors: 0,
        }
    }

    /// One session of 32 requests in seeded order; records the unit.
    fn session(&mut self) {
        let unit = self.unit_secs.len();
        let mut queries: Vec<Query> = Vec::with_capacity(QUERIES_PER_UNIT);
        queries.extend((0..HOT_PER_UNIT).map(|_| Query::Hot(self.rng.below(HOT_SET))));
        for _ in 0..COLD_PER_UNIT {
            queries.push(Query::Cold(self.next_cold % self.inputs.cold.len()));
            self.next_cold += CLIENTS;
        }
        queries.push(Query::Tune(self.next_tune % self.inputs.tune.len()));
        self.next_tune += CLIENTS;
        self.rng.shuffle(&mut queries);

        let tag = (unit * CLIENTS + self.id) as u64;
        let span = self.log.open("unit", tag, None);
        let mut ok = true;
        for query in queries {
            ok &= self.query(query, unit, tag, span);
        }
        let secs = self.log.close(span);
        self.unit_secs.push(secs);
        if !ok {
            self.failed_units.push(unit);
        }
    }

    /// Send one request and wait for its reply; `false` if it was refused
    /// or failed.
    fn query(&mut self, query: Query, unit: usize, tag: u64, parent: usize) -> bool {
        let inputs = self.inputs;
        let conn = &mut self.conn;
        let (name, spec) = match query {
            Query::Hot(i) => ("query.hot", &inputs.hot[i]),
            Query::Cold(i) => ("query.cold", &inputs.cold[i]),
            Query::Tune(i) => {
                let timed = self.log.timed("query.tune", tag, Some(parent), || {
                    conn.tune(&inputs.tune[i], &[], None)
                });
                let ok = matches!(timed.0, Ok(Ok(_)));
                self.errors += u64::from(!ok);
                return ok;
            }
        };
        let served = self.log.timed(name, tag, Some(parent), || conn.simulate(spec, None)).0;
        let Ok(Ok(report)) = served else {
            self.errors += 1;
            return false;
        };
        self.simulates_served += 1;
        if self.simulates_served.is_multiple_of(CHECK_EVERY) {
            self.samples.push(Sample { unit, query, answer: report.to_json().emit() });
        }
        true
    }

    /// Check the kept answers against in-process `simulate`; a mismatch
    /// fails the unit that received it.
    fn verify_samples(&mut self, hot_answers: &[String]) {
        for sample in std::mem::take(&mut self.samples) {
            let matches = match sample.query {
                Query::Hot(i) => sample.answer == hot_answers[i],
                Query::Cold(i) => sample.answer == reference_answer(&self.inputs.cold[i]),
                Query::Tune(_) => unreachable!("only simulate answers are sampled"),
            };
            if !matches && !self.failed_units.contains(&sample.unit) {
                self.failed_units.push(sample.unit);
            }
        }
    }
}

/// Server-side cache counters the workload reads before and after a window.
#[derive(Clone, Copy)]
struct CacheCounters {
    queries: u64,
    hits: u64,
    sim_runs: u64,
    evictions: u64,
}

impl CacheCounters {
    fn read(server: &PlannerServer) -> Self {
        let (queries, hits, _misses, _dedup, sim_runs) = server.cache_stats();
        CacheCounters { queries, hits, sim_runs, evictions: server.cache_evictions() }
    }
}

/// Run one round of `plan_mix` and report it.
pub fn run_round(args: &RoundArgs, started: Instant) -> Report {
    // Set-up: inputs, reference answers for the hot set, the server, its
    // warm cache, and one untimed session per client.
    let inputs = inputs(args.seed);
    let hot_answers: Vec<String> = inputs.hot.iter().map(reference_answer).collect();
    let server = PlannerServer::start(PlannerConfig {
        workers: 2,
        cache_capacity: 512,
        ..PlannerConfig::default()
    })
    .expect("cannot start the planner");
    let mut clients: Vec<Client> =
        (0..CLIENTS).map(|id| Client::connect(id, server.addr(), &inputs, args.seed)).collect();
    for (spec, expected) in inputs.hot.iter().zip(&hot_answers) {
        let served = clients[0].conn.simulate(spec, None).expect("warm query refused");
        let report = served.expect("every workload config fits");
        assert_eq!(&report.to_json().emit(), expected, "served answer differs from in-process");
    }
    for client in &mut clients {
        client.session();
        assert!(client.failed_units.is_empty(), "a warm-up session failed");
        client.unit_secs.clear();
        client.log.spans.clear();
    }
    let recorder = mics_trace::global();
    if args.traced {
        recorder.enable();
    }
    let setup_s = started.elapsed().as_secs_f64();

    let before = CacheCounters::read(&server);
    let clock = WindowClock::start(args.window_s);
    std::thread::scope(|scope| {
        for client in &mut clients {
            let clock = &clock;
            scope.spawn(move || loop {
                client.session();
                if clock.over() {
                    break;
                }
            });
        }
    });
    let unit_secs: Vec<f64> = clients.iter().flat_map(|c| c.unit_secs.iter().copied()).collect();
    let mut window = clock.finish(unit_secs, 0);
    let after = CacheCounters::read(&server);
    recorder.disable();
    let program_trace = recorder.drain();

    for client in &mut clients {
        client.verify_samples(&hot_answers);
    }
    window.failed_units = clients.iter().map(|c| c.failed_units.len() as u64).sum();

    let mut report = Report::default();
    report_window(&mut report, &window, QUERIES_PER_UNIT as f64, setup_s);
    if args.traced {
        let units = window.unit_secs.len() as f64;
        let queries = (after.queries - before.queries) as f64;
        report.put("planner.hit_ratio", (after.hits - before.hits) as f64 / queries, "ratio");
        report.put(
            "planner.sim_runs_per_unit",
            (after.sim_runs - before.sim_runs) as f64 / units,
            "count",
        );
        report.put(
            "planner.evictions_per_unit",
            (after.evictions - before.evictions) as f64 / units,
            "count",
        );
        report.put("trace.events_per_unit", program_trace.len() as f64 / units, "count");
        let spans = |name: &str| -> Vec<f64> {
            sorted(&clients.iter().flat_map(|c| c.log.secs_of(name)).collect::<Vec<_>>())
        };
        let (miss, tune) = (spans("query.cold"), spans("query.tune"));
        report.put("planner.miss_ms_p50", quantile(&miss, 0.5) * 1e3, "ms");
        report.put("planner.miss_ms_p99", quantile(&miss, 0.99) * 1e3, "ms");
        report.put("planner.tune_ms_p50", quantile(&tune, 0.5) * 1e3, "ms");
        let errors: u64 = clients.iter().map(|c| c.errors).sum();
        report.put("planner.errors", errors as f64, "count");

        let mut log = SpanLog::new("main");
        planner_probes(&mut report, &mut log, &server, &mut clients[0], args);
        core_probes(&mut report, &mut log, &inputs, args);
        simnet_probes(&mut report, &mut log, args);
        trace_probes(&mut report, args);
        let logs: Vec<&SpanLog> =
            clients.iter().map(|c| &c.log).chain(std::iter::once(&log)).collect();
        write_trace(args, &logs, program_trace);
    }
    drop(clients);
    server.shutdown();
    server.join();
    report_peak_rss(&mut report);
    report
}

/// `planner`: the hit path end to end with nothing else in flight, a bare
/// frame round trip, and the cache lookup on its own.
fn planner_probes(
    report: &mut Report,
    log: &mut SpanLog,
    server: &PlannerServer,
    client: &mut Client,
    args: &RoundArgs,
) {
    // Make sure the probed keys are resident, then count on the server
    // that every timed query really was a hit.
    let hot = &client.inputs.hot[..16];
    for spec in hot {
        client.conn.simulate(spec, None).expect("probe warm query refused").ok();
    }
    let reps = args.reps(1000);
    let hits0 = CacheCounters::read(server).hits;
    let mut i = 0;
    let secs = log.probe("planner.hit", reps, || {
        black_box(client.conn.simulate(&hot[i % hot.len()], None)).expect("hit query refused").ok();
        i += 1;
    });
    assert_eq!(CacheCounters::read(server).hits - hits0, reps as u64, "a probed hit was a miss");
    let secs = sorted(&secs);
    report.put("planner.hit_us_p50", quantile(&secs, 0.5) * 1e6, "us");
    report.put("planner.hit_us_p99", quantile(&secs, 0.99) * 1e6, "us");

    let secs = log.probe("planner.frame_rtt", args.reps(300), || {
        black_box(client.conn.stats()).expect("stats refused");
    });
    report.put("planner.frame_rtt_us", median(&secs) * 1e6, "us");

    let cache = PlanCache::new();
    let key = job_of(&hot[0]).canonical_key();
    let far = Instant::now() + std::time::Duration::from_secs(3600);
    cache.get_or_compute(key, far, || Json::from("memoized")).expect("first insert");
    let lookups = 10_000;
    let secs = log.probe("planner.cache_hit", args.reps(30), || {
        for _ in 0..lookups {
            black_box(cache.get_or_compute(black_box(key), far, || unreachable!("must hit")))
                .expect("cache hit");
        }
    });
    report.put("planner.cache_hit_ns", median(&secs) * 1e9 / lookups as f64, "ns");
}

/// `core`: what a miss costs inside the server — `simulate` and `tune`
/// in-process on the workload's own cold configs — and the two small costs
/// every query pays: the cache key and the report's JSON round trip.
fn core_probes(report: &mut Report, log: &mut SpanLog, inputs: &PlanInputs, args: &RoundArgs) {
    let jobs: Vec<TrainingJob> = inputs.cold[..args.reps(200)].iter().map(job_of).collect();
    let mut reports = Vec::new();
    let mut i = 0;
    let secs = log.probe("core.simulate", jobs.len(), || {
        reports.push(simulate(black_box(&jobs[i])).expect("every workload config fits"));
        i += 1;
    });
    let ops: usize = jobs.iter().map(|j| dp_program(j).expect("fits").ops.len()).sum();
    report.put("core.simulate_ms_p50", median(&secs) * 1e3, "ms");
    report.put("core.sim_ops_per_s", ops as f64 / secs.iter().sum::<f64>(), "1/s");

    let tunes: Vec<TrainingJob> = inputs.tune[..args.reps(40)].iter().map(job_of).collect();
    let mut i = 0;
    let secs = log.probe("core.tune", tunes.len(), || {
        let job = &tunes[i];
        black_box(tune(&job.workload, &job.cluster, job.accum_steps)).expect("a candidate fits");
        i += 1;
    });
    report.put("core.tune_ms_p50", median(&secs) * 1e3, "ms");

    let secs = log.probe("core.canonical_key", args.reps(30), || {
        for job in &jobs {
            black_box(black_box(job).canonical_key());
        }
    });
    report.put("core.canonical_key_us", median(&secs) * 1e6 / jobs.len() as f64, "us");

    let secs = log.probe("core.report_json", args.reps(30), || {
        for r in &reports {
            black_box(Json::parse(&black_box(r).to_json().emit())).expect("own output parses");
        }
    });
    report.put("core.report_json_us", median(&secs) * 1e6 / reports.len() as f64, "us");
}

/// `simnet`: the event engine under `core.simulate`, on the two shapes its
/// own micro-benchmark uses.
fn simnet_probes(report: &mut Report, log: &mut SpanLog, args: &RoundArgs) {
    let hops = 1000;
    let secs = log.probe("simnet.pingpong", args.reps(30), || {
        let mut sim = Sim::new();
        let (a, b) = (sim.add_stream("a"), sim.add_stream("b"));
        for _ in 0..hops {
            let (ea, eb) = (sim.add_event(), sim.add_event());
            sim.push(a, Op::compute(SimTime::from_micros(1)));
            sim.push(a, Op::RecordEvent(ea));
            sim.push(b, Op::WaitEvent(ea));
            sim.push(b, Op::compute(SimTime::from_micros(1)));
            sim.push(b, Op::RecordEvent(eb));
            sim.push(a, Op::WaitEvent(eb));
        }
        black_box(sim.run()).expect("ping-pong chain deadlocked");
    });
    // Six ops per hop, each one engine event.
    report.put("simnet.pingpong_events_per_s", (6 * hops) as f64 / median(&secs), "1/s");

    let transfers = 128u64;
    let secs = log.probe("simnet.fluid", args.reps(30), || {
        let mut sim = Sim::new();
        let link = sim.add_link("nic", 12.5e9);
        for i in 0..transfers {
            let s = sim.add_stream(format!("s{i}"));
            // Staggered starts force repeated fair-share recomputation.
            sim.push(s, Op::compute(SimTime::from_micros(i * 3)));
            sim.push(s, Op::transfer(link, 1_000_000 + (i * 7919) % 500_000, SimTime::ZERO));
        }
        black_box(sim.run()).expect("fluid link deadlocked");
    });
    report.put("simnet.fluid_transfers_per_s", transfers as f64 / median(&secs), "1/s");
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn cold_space_is_large_distinct_and_valid() {
        let inputs = inputs(20220615);
        assert_eq!(inputs.hot.len(), HOT_SET);
        assert!(inputs.cold.len() >= MIN_COLD_SPACE);
        // A tuned answer lives 512 / 8 = 64 units in the FIFO cache; the walk
        // must be longer for a repeated tune to be a miss again.
        assert!(inputs.tune.len() >= 256, "tune walk is too short: {}", inputs.tune.len());
        let distinct: HashSet<String> =
            inputs.hot.iter().chain(&inputs.cold).map(|s| s.to_json().emit()).collect();
        assert_eq!(distinct.len(), HOT_SET + inputs.cold.len(), "duplicate configs");
        // Valid and fitting: the same resolution the server does, then the
        // lowering that fails on OOM and panics on a non-dividing partition.
        for spec in inputs.hot.iter().chain(&inputs.cold).step_by(7) {
            assert!(dp_program(&job_of(spec)).is_ok(), "{spec:?} does not fit");
        }
    }

    #[test]
    fn inputs_are_a_function_of_the_seed() {
        let (a, b, c) = (inputs(1), inputs(1), inputs(2));
        assert_eq!(a.hot, b.hot);
        assert_eq!(a.cold, b.cold);
        assert_eq!(a.tune, b.tune);
        assert_ne!(a.cold, c.cold);
    }

    #[test]
    fn memoized_proxy_equals_a_fresh_lowering() {
        let mut counter = OpCounter::default();
        for spec in simulate_space(&mut OpCounter::default()).iter().step_by(97) {
            let job = job_of(spec);
            let fresh = dp_program(&job).unwrap().ops.len() * job.cluster.nodes;
            assert_eq!(counter.sim_proxy(&job), Some(fresh));
            assert_eq!(counter.sim_proxy(&job), Some(fresh), "second call is the memo");
        }
    }
}

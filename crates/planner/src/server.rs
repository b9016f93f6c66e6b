//! The planner server: a worker pool over a bounded queue, fronting the
//! simulator and tuner with memoization, in-flight dedup, budgets and
//! deadlines.
//!
//! # Anatomy
//!
//! One accept thread (blocking in `accept`; shutdown wakes it) spawns a
//! reader thread per connection. Readers decode frames and answer the cheap
//! control requests inline (`hello`, `stats`, `shutdown`); planning queries
//! (`simulate`, `tune`, `sweep`) are pushed onto a bounded queue — a full
//! queue answers `Overloaded` immediately, which is the backpressure story:
//! clients see a typed rejection, not an unbounded latency tail. Worker
//! threads drain the queue and run queries through the single-flight
//! [`PlanCache`], so identical concurrent queries cost one simulation and
//! every response for a key is byte-identical ([`Json::emit`] is
//! deterministic and cache entries are stored id-less).
//!
//! # Lifecycle
//!
//! [`PlannerServer::shutdown`] (or a client `shutdown` frame) flips the
//! flag; the accept loop stops taking connections, workers finish the
//! queries already queued, stragglers get `ShuttingDown`, and
//! [`PlannerServer::join`] reaps every thread. Deadlines are enforced at
//! dequeue (queued too long) and while waiting on an in-flight duplicate,
//! mapping to `DeadlineExceeded { waited }` — the planner's analogue of the
//! dataplane's `CommError::Timeout { waited }`.

use crate::budget::{simulate_cost, tune_cost, FlopLedger};
use crate::cache::{CacheOutcome, PlanCache};
use crate::protocol::{read_frame, write_frame, JobSpec, PlanError};
use crate::PLANNER_PROCESS;
use mics_cluster::{ClusterSpec, InstanceType};
use mics_core::{
    simulate, tune_with_compression, CanonicalHasher, CanonicalKey, CompressionConfig, Json,
    Strategy, ToJson, TrainingJob,
};
use mics_dataplane::transport::wire::{Listener, Stream};
use mics_model::WorkloadSpec;
use mics_trace::Arg;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, Weak};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Server tunables.
#[derive(Debug, Clone)]
pub struct PlannerConfig {
    /// Listen address: `host:port` (`127.0.0.1:0` picks a free port) or
    /// `unix:<path>`.
    pub addr: String,
    /// Worker threads draining the query queue.
    pub workers: usize,
    /// Bounded queue depth; a full queue rejects with `Overloaded`.
    pub queue_depth: usize,
    /// FLOP budget granted to a connection that never says `hello`.
    pub default_budget_flops: f64,
    /// Deadline applied to queries that carry no `deadline_ms`.
    pub default_deadline: Duration,
    /// Maximum completed cache entries kept (0 = unbounded); past this the
    /// cache evicts the least recently used entry (a hit refreshes one)
    /// and counts the evictions.
    pub cache_capacity: usize,
}

impl Default for PlannerConfig {
    fn default() -> Self {
        PlannerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 4,
            queue_depth: 256,
            default_budget_flops: f64::MAX,
            default_deadline: Duration::from_secs(30),
            cache_capacity: 0,
        }
    }
}

/// Per-connection state shared between its reader thread and the workers.
struct ConnState {
    writer: Mutex<Stream>,
    ledger: Mutex<FlopLedger>,
    /// Second OS handle, kept to force readers off blocking reads at
    /// shutdown.
    raw: Stream,
}

impl ConnState {
    /// Write one response frame; a transport failure kills the connection
    /// (its reader unblocks via the raw handle).
    fn send(&self, doc: &Json) -> Result<(), PlanError> {
        let mut w = self.writer.lock().unwrap();
        write_frame(&mut *w, &doc.emit()).map_err(|e| {
            self.raw.shutdown();
            PlanError::Io { message: e.to_string() }
        })
    }
}

/// One queued planning query.
struct Task {
    request: Json,
    conn: Arc<ConnState>,
    enqueued: Instant,
    deadline: Instant,
}

struct Shared {
    cfg: PlannerConfig,
    listener: Listener,
    cache: PlanCache,
    queue: Mutex<VecDeque<Task>>,
    queue_ready: Condvar,
    shutdown: AtomicBool,
    conns: Mutex<Vec<Weak<ConnState>>>,
    readers: Mutex<Vec<JoinHandle<()>>>,
}

impl Shared {
    fn begin_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        self.queue_ready.notify_all();
        self.listener.shutdown();
    }

    fn shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }
}

/// A running planner service. Dropping the handle does *not* stop the
/// server — call [`PlannerServer::shutdown`] then [`PlannerServer::join`].
pub struct PlannerServer {
    shared: Arc<Shared>,
    addr: String,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl PlannerServer {
    /// Bind, spawn the worker pool and the accept loop, and return the
    /// serving handle.
    pub fn start(cfg: PlannerConfig) -> std::io::Result<PlannerServer> {
        let listener = Listener::bind(&cfg.addr)?;
        let addr = listener.local_addr().to_string();
        let shared = Arc::new(Shared {
            cfg: cfg.clone(),
            listener,
            cache: PlanCache::with_capacity(cfg.cache_capacity),
            queue: Mutex::new(VecDeque::new()),
            queue_ready: Condvar::new(),
            shutdown: AtomicBool::new(false),
            conns: Mutex::new(Vec::new()),
            readers: Mutex::new(Vec::new()),
        });
        let workers = (0..cfg.workers.max(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("mics-plan-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("cannot spawn planner worker")
            })
            .collect();
        let accept_shared = Arc::clone(&shared);
        let accept = std::thread::Builder::new()
            .name("mics-plan-accept".to_string())
            .spawn(move || accept_loop(&accept_shared))
            .expect("cannot spawn planner accept thread");
        Ok(PlannerServer { shared, addr, accept: Some(accept), workers })
    }

    /// The address clients should connect to (the actual bound port when
    /// the config asked for `:0`).
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Begin a graceful shutdown: stop accepting, finish queued queries,
    /// reject stragglers. Idempotent; `join` completes once drained.
    pub fn shutdown(&self) {
        self.shared.begin_shutdown();
    }

    /// Block until the server has shut down (via [`PlannerServer::shutdown`]
    /// or a client `shutdown` frame) and every thread is reaped.
    pub fn join(mut self) {
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
        // Anything still queued raced the drain: answer, don't hang them.
        let leftovers: Vec<Task> = self.shared.queue.lock().unwrap().drain(..).collect();
        for task in leftovers {
            let id = request_id(&task.request);
            let _ = task.conn.send(&PlanError::ShuttingDown.to_response(id));
        }
        // Unblock and reap the readers.
        for conn in self.shared.conns.lock().unwrap().iter().filter_map(Weak::upgrade) {
            conn.raw.shutdown();
        }
        let readers: Vec<_> = self.shared.readers.lock().unwrap().drain(..).collect();
        for h in readers {
            let _ = h.join();
        }
    }

    /// Cache/throughput counters (same numbers the `stats` request reports).
    pub fn cache_stats(&self) -> (u64, u64, u64, u64, u64) {
        self.shared.cache.stats.snapshot()
    }

    /// Completed cache entries evicted to honor the capacity bound.
    pub fn cache_evictions(&self) -> u64 {
        self.shared.cache.stats.evictions.get()
    }
}

fn accept_loop(shared: &Arc<Shared>) {
    while let Some(stream) = shared.listener.accept() {
        let Ok(raw) = stream.try_clone() else { continue };
        let Ok(reader) = stream.try_clone() else { continue };
        let conn = Arc::new(ConnState {
            writer: Mutex::new(stream),
            ledger: Mutex::new(FlopLedger::new(shared.cfg.default_budget_flops)),
            raw,
        });
        shared.conns.lock().unwrap().push(Arc::downgrade(&conn));
        let shared2 = Arc::clone(shared);
        let handle = std::thread::Builder::new()
            .name("mics-plan-conn".to_string())
            .spawn(move || reader_loop(reader, conn, &shared2))
            .expect("cannot spawn planner connection thread");
        shared.readers.lock().unwrap().push(handle);
    }
}

/// The `id` of a request, or 0 when it has none (error responses to
/// unparseable requests).
fn request_id(request: &Json) -> u64 {
    request.get("id").and_then(Json::as_num).map(|n| n.max(0.0) as u64).unwrap_or(0)
}

fn reader_loop(mut stream: Stream, conn: Arc<ConnState>, shared: &Arc<Shared>) {
    loop {
        let text = match read_frame(&mut stream) {
            Ok(t) => t,
            Err(_) => return, // EOF or forced shutdown
        };
        let request = match Json::parse(&text) {
            Ok(doc) => doc,
            Err(e) => {
                let err = PlanError::BadRequest { reason: format!("unparseable frame: {e:?}") };
                let _ = conn.send(&err.to_response(0));
                continue;
            }
        };
        let id = request_id(&request);
        match request.get("type").and_then(Json::as_str) {
            Some("hello") => {
                if let Some(budget) = request.get("budget_flops").and_then(Json::as_num) {
                    conn.ledger.lock().unwrap().regrant(budget);
                }
                let remaining = conn.ledger.lock().unwrap().remaining();
                let _ = conn.send(&Json::obj([
                    ("type", Json::from("ready")),
                    ("budget_flops", Json::Num(remaining)),
                ]));
            }
            Some("stats") => {
                let _ = conn.send(&stats_response(shared, &conn, id));
            }
            Some("shutdown") => {
                let _ = conn.send(&Json::obj([("type", Json::from("bye"))]));
                shared.begin_shutdown();
            }
            Some("simulate") | Some("tune") | Some("sweep") => {
                if shared.shutting_down() {
                    let _ = conn.send(&PlanError::ShuttingDown.to_response(id));
                    continue;
                }
                let now = Instant::now();
                let deadline = match request.get("deadline_ms").and_then(Json::as_num) {
                    Some(ms) => now + Duration::from_secs_f64(ms.max(0.0) / 1e3),
                    None => now + shared.cfg.default_deadline,
                };
                let task = Task { request, conn: Arc::clone(&conn), enqueued: now, deadline };
                let mut queue = shared.queue.lock().unwrap();
                if queue.len() >= shared.cfg.queue_depth {
                    drop(queue);
                    let err = PlanError::Overloaded { depth: shared.cfg.queue_depth };
                    let _ = conn.send(&err.to_response(id));
                } else {
                    queue.push_back(task);
                    drop(queue);
                    shared.queue_ready.notify_one();
                }
            }
            other => {
                let reason = match other {
                    Some(t) => format!("unknown request type '{t}'"),
                    None => "request has no 'type'".to_string(),
                };
                let _ = conn.send(&PlanError::BadRequest { reason }.to_response(id));
            }
        }
    }
}

fn worker_loop(shared: &Arc<Shared>) {
    loop {
        let task = {
            let mut queue = shared.queue.lock().unwrap();
            loop {
                if let Some(t) = queue.pop_front() {
                    break Some(t);
                }
                if shared.shutting_down() {
                    break None;
                }
                let (guard, _) =
                    shared.queue_ready.wait_timeout(queue, Duration::from_millis(100)).unwrap();
                queue = guard;
            }
        };
        let Some(task) = task else { return };
        let id = request_id(&task.request);
        // A panic inside a query (a simulator invariant violated by a
        // hostile config) must not kill the worker: answer and move on.
        let outcome =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| handle_task(shared, &task)));
        match outcome {
            Ok(Ok(())) => {}
            Ok(Err(err)) => {
                let _ = task.conn.send(&err.to_response(id));
            }
            Err(_) => {
                let err =
                    PlanError::BadRequest { reason: "internal error: query panicked".to_string() };
                let _ = task.conn.send(&err.to_response(id));
            }
        }
    }
}

fn handle_task(shared: &Arc<Shared>, task: &Task) -> Result<(), PlanError> {
    let now = Instant::now();
    if now >= task.deadline {
        return Err(PlanError::DeadlineExceeded { waited: now.duration_since(task.enqueued) });
    }
    let id = request_id(&task.request);
    match task.request.get("type").and_then(Json::as_str) {
        Some("simulate") => {
            let job = resolve_job(job_field(&task.request)?)?;
            let payload = run_simulate(shared, task, &job)?;
            task.conn.send(&with_id(&payload, id))
        }
        Some("tune") => {
            let spec = job_field(&task.request)?;
            let (workload, cluster, accum) = resolve_parts(&spec)?;
            let options = compression_options(&task.request)?;
            let key = tune_key(&workload, &cluster, accum, &options);
            let cost = tune_cost(&workload, &cluster, accum, options.len());
            let payload =
                charged(shared, task, "tune", key, cost, || {
                    match tune_with_compression(&workload, &cluster, accum, &options) {
                        Ok(r) => Json::obj([
                            ("type", Json::from("tuned")),
                            ("best", r.best.to_json()),
                            ("report", r.report.to_json()),
                            ("explored", Json::Num(r.explored.len() as f64)),
                        ]),
                        Err(oom) => oom_payload(&oom),
                    }
                })?;
            task.conn.send(&with_id(&payload, id))
        }
        Some("sweep") => {
            let jobs =
                task.request.get("jobs").and_then(Json::as_arr).ok_or_else(|| {
                    PlanError::BadRequest { reason: "sweep has no 'jobs'".into() }
                })?;
            let mut count = 0usize;
            for (index, doc) in jobs.iter().enumerate() {
                let item = match JobSpec::from_json(doc)
                    .ok_or_else(|| PlanError::BadRequest {
                        reason: format!("malformed job at index {index}"),
                    })
                    .and_then(resolve_job)
                    .and_then(|job| run_simulate(shared, task, &job))
                {
                    Ok(payload) => sweep_item(id, index, &payload),
                    Err(err) => Json::obj([
                        ("type", Json::from("sweep_item")),
                        ("id", Json::Num(id as f64)),
                        ("index", Json::Num(index as f64)),
                        (
                            "error",
                            Json::obj([
                                ("code", Json::from(err.code())),
                                ("message", Json::from(err.to_string().as_str())),
                            ]),
                        ),
                    ]),
                };
                // A failed write means the client is gone: abandon the
                // stream, the server itself is fine.
                task.conn.send(&item)?;
                count += 1;
            }
            task.conn.send(&Json::obj([
                ("type", Json::from("sweep_done")),
                ("id", Json::Num(id as f64)),
                ("count", Json::Num(count as f64)),
            ]))
        }
        _ => unreachable!("reader only queues planning queries"),
    }
}

/// Run one simulate query through budget + cache; returns the id-less
/// cached payload.
fn run_simulate(shared: &Arc<Shared>, task: &Task, job: &TrainingJob) -> Result<Json, PlanError> {
    let cost = simulate_cost(&job.workload, &job.cluster, job.accum_steps);
    let key = simulate_key(job);
    charged(shared, task, "simulate", key, cost, || match simulate(job) {
        Ok(r) => Json::obj([("type", Json::from("report")), ("report", r.to_json())]),
        Err(oom) => oom_payload(&oom),
    })
}

/// Record the span of one planning query on the worker thread's track,
/// tagged with how the cache served it.
fn record_query_span(kind: &'static str, start_ns: u64, outcome: &'static str) {
    let rec = mics_trace::global();
    if !rec.is_enabled() {
        return;
    }
    let end = rec.now_ns();
    let thread = std::thread::current();
    let track = thread.name().unwrap_or("mics-plan-worker").to_string();
    rec.span(
        PLANNER_PROCESS,
        &track,
        kind,
        "planner",
        start_ns,
        end,
        vec![("outcome", Arg::from(outcome))],
    );
}

/// Record the connection's FLOP-ledger balance as a counter track after a
/// charge or refund. Unbounded ledgers (the `f64::MAX` default grant) are
/// skipped — a flat astronomically-large line is noise.
fn record_ledger_balance(remaining: f64) {
    let rec = mics_trace::global();
    if rec.is_enabled() && remaining < f64::MAX / 2.0 {
        rec.counter(PLANNER_PROCESS, "flop ledger", "flop ledger remaining", remaining);
    }
}

/// The budget-aware cache path. Completed entries are served without
/// touching the ledger (cached answers are free, even on an exhausted
/// budget); otherwise the connection is charged optimistically, the
/// single-flight lookup runs, and the charge is refunded when the query
/// was collapsed onto another client's run or failed before simulating —
/// net effect: only the leader of a fresh computation is billed.
fn charged(
    shared: &Arc<Shared>,
    task: &Task,
    kind: &'static str,
    key: CanonicalKey,
    cost: f64,
    compute: impl FnOnce() -> Json,
) -> Result<Json, PlanError> {
    let start_ns = mics_trace::global().now_ns();
    if let Some(payload) = shared.cache.peek(key) {
        record_query_span(kind, start_ns, CacheOutcome::Hit.label());
        return Ok((*payload).clone());
    }
    let charge = {
        let mut ledger = task.conn.ledger.lock().unwrap();
        ledger.charge(cost).map(|()| ledger.remaining())
    };
    match charge {
        Ok(remaining) => record_ledger_balance(remaining),
        Err(e) => {
            record_query_span(kind, start_ns, "rejected");
            return Err(e);
        }
    }
    let refund = || {
        let mut ledger = task.conn.ledger.lock().unwrap();
        ledger.refund(cost);
        record_ledger_balance(ledger.remaining());
    };
    match shared.cache.get_or_compute(key, task.deadline, compute) {
        Ok((payload, outcome)) => {
            if outcome.served_from_cache() {
                refund();
            }
            record_query_span(kind, start_ns, outcome.label());
            Ok((*payload).clone())
        }
        Err(e) => {
            refund();
            record_query_span(kind, start_ns, "error");
            Err(e)
        }
    }
}

fn oom_payload(oom: &mics_core::OomError) -> Json {
    Json::obj([("type", Json::from("oom")), ("oom", oom.to_json())])
}

fn sweep_item(id: u64, index: usize, payload: &Json) -> Json {
    // payload is {"type":"report"/"oom", <body>}: re-tag as a sweep_item
    // carrying the same body key.
    let mut pairs = vec![
        ("type".to_string(), Json::from("sweep_item")),
        ("id".to_string(), Json::Num(id as f64)),
        ("index".to_string(), Json::Num(index as f64)),
    ];
    if let Json::Obj(body) = payload {
        pairs.extend(body.iter().filter(|(k, _)| k != "type").cloned());
    }
    Json::Obj(pairs)
}

/// Re-emit a cached id-less payload with the request id inserted after
/// `type`, keeping emission deterministic per (payload, id).
fn with_id(payload: &Json, id: u64) -> Json {
    match payload {
        Json::Obj(pairs) => {
            let mut out = Vec::with_capacity(pairs.len() + 1);
            let mut inserted = false;
            for (k, v) in pairs {
                out.push((k.clone(), v.clone()));
                if k == "type" && !inserted {
                    out.push(("id".to_string(), Json::Num(id as f64)));
                    inserted = true;
                }
            }
            if !inserted {
                out.insert(0, ("id".to_string(), Json::Num(id as f64)));
            }
            Json::Obj(out)
        }
        other => other.clone(),
    }
}

fn stats_response(shared: &Arc<Shared>, conn: &ConnState, id: u64) -> Json {
    let (queries, hits, misses, dedup, sim_runs) = shared.cache.stats.snapshot();
    Json::obj([
        ("type", Json::from("stats")),
        ("id", Json::Num(id as f64)),
        ("queries", Json::Num(queries as f64)),
        ("cache_hits", Json::Num(hits as f64)),
        ("cache_misses", Json::Num(misses as f64)),
        ("dedup_collapsed", Json::Num(dedup as f64)),
        ("sim_runs", Json::Num(sim_runs as f64)),
        ("cache_evictions", Json::Num(shared.cache.stats.evictions.get() as f64)),
        ("cache_entries", Json::Num(shared.cache.len() as f64)),
        ("budget_remaining", Json::Num(conn.ledger.lock().unwrap().remaining())),
    ])
}

// ---- request resolution ----------------------------------------------------

fn job_field(request: &Json) -> Result<JobSpec, PlanError> {
    let doc = request
        .get("job")
        .ok_or_else(|| PlanError::BadRequest { reason: "request has no 'job'".into() })?;
    JobSpec::from_json(doc)
        .ok_or_else(|| PlanError::BadRequest { reason: "malformed job spec".into() })
}

/// Largest `micro_batch`, `nodes` or `accum` a job may ask for: 16× the
/// largest job the repo plans (`case_study_100b`'s 64 nodes), and small
/// enough that no accepted job keeps a simulation busy for long.
const MAX_COUNT: usize = 1024;

/// Resolve the preset names of a [`JobSpec`] (everything but the strategy).
fn resolve_parts(spec: &JobSpec) -> Result<(WorkloadSpec, ClusterSpec, usize), PlanError> {
    let bad = |reason: String| PlanError::BadRequest { reason };
    let counts = [("micro_batch", spec.micro_batch), ("nodes", spec.nodes), ("accum", spec.accum)];
    for (name, value) in counts {
        if !(1..=MAX_COUNT).contains(&value) {
            return Err(bad(format!("{name} must be in 1..={MAX_COUNT}, got {value}")));
        }
    }
    let workload = mics_model::preset(&spec.model, spec.micro_batch).ok_or_else(|| {
        bad(format!(
            "unknown model '{}' (expected one of {})",
            spec.model,
            mics_model::preset_names().join(", ")
        ))
    })?;
    let instance = InstanceType::preset(&spec.instance).ok_or_else(|| {
        bad(format!("unknown instance '{}' (expected p3dn, p4d, or dgx)", spec.instance))
    })?;
    Ok((workload, ClusterSpec::new(instance, spec.nodes), spec.accum))
}

/// Resolve a full [`JobSpec`] including its strategy, validating MiCS
/// partition geometry against the cluster.
fn resolve_job(spec: JobSpec) -> Result<TrainingJob, PlanError> {
    let (workload, cluster, accum) = resolve_parts(&spec)?;
    let strategy =
        Strategy::parse(&spec.strategy).map_err(|reason| PlanError::BadRequest { reason })?;
    strategy
        .check_partition(cluster.total_devices())
        .map_err(|e| PlanError::BadRequest { reason: e.to_string() })?;
    Ok(TrainingJob { workload, cluster, strategy, accum_steps: accum })
}

fn compression_options(request: &Json) -> Result<Vec<Option<CompressionConfig>>, PlanError> {
    use mics_core::QuantScheme;
    let Some(list) = request.get("compression") else { return Ok(vec![None]) };
    let names = list
        .as_arr()
        .ok_or_else(|| PlanError::BadRequest { reason: "'compression' must be an array".into() })?;
    let mut options = Vec::with_capacity(names.len().max(1));
    for name in names {
        options.push(match name.as_str() {
            Some("none") => None,
            Some("f16") => Some(CompressionConfig::both(QuantScheme::F16)),
            Some("int8") => Some(CompressionConfig::both(QuantScheme::int8())),
            Some("int4") => Some(CompressionConfig::both(QuantScheme::int4())),
            other => {
                return Err(PlanError::BadRequest {
                    reason: format!(
                        "unknown compression option {other:?} (expected none, f16, int8, int4)"
                    ),
                })
            }
        });
    }
    if options.is_empty() {
        options.push(None);
    }
    Ok(options)
}

// ---- cache keys -------------------------------------------------------------

/// The two-lane key of one canonical walk.
fn key_of(walk: impl FnOnce(&mut CanonicalHasher)) -> CanonicalKey {
    let mut h = CanonicalHasher::new();
    walk(&mut h);
    h.key()
}

/// Cache key of a `simulate` query: tag 1 + the job's canonical walk.
fn simulate_key(job: &TrainingJob) -> CanonicalKey {
    use mics_core::Canonical;
    key_of(|h| {
        h.write_tag(1);
        job.canonicalize(h);
    })
}

/// Cache key of a `tune` query: tag 2 + workload + cluster + accum + the
/// compression option list. Deliberately excludes the request's `strategy`
/// field — tuning searches strategies itself, so two tunes of the same job
/// spelled with different strategies must share one cache entry.
fn tune_key(
    workload: &WorkloadSpec,
    cluster: &ClusterSpec,
    accum: usize,
    options: &[Option<CompressionConfig>],
) -> CanonicalKey {
    use mics_core::Canonical;
    key_of(|h| {
        h.write_tag(2);
        workload.canonicalize(h);
        cluster.canonicalize(h);
        h.write_usize(accum);
        h.write_usize(options.len());
        for o in options {
            o.canonicalize(h);
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::write_frame as send_frame;

    fn request(stream: &mut Stream, text: &str) -> Json {
        send_frame(stream, text).unwrap();
        Json::parse(&read_frame(stream).unwrap()).unwrap()
    }

    #[test]
    fn end_to_end_simulate_tune_stats_shutdown() {
        let server = PlannerServer::start(PlannerConfig::default()).unwrap();
        let mut c = Stream::connect(server.addr()).unwrap();

        let job = JobSpec::mics("bert-10b", 2, 8).to_json().emit();
        let rep = request(&mut c, &format!(r#"{{"type":"simulate","id":1,"job":{job}}}"#));
        assert_eq!(rep.get("type").and_then(Json::as_str), Some("report"), "{rep:?}");
        assert_eq!(rep.get("id").and_then(Json::as_num), Some(1.0));
        assert!(rep.get("report").is_some());

        // Same job again: a cache hit, byte-identical modulo the id.
        let rep2 = request(&mut c, &format!(r#"{{"type":"simulate","id":2,"job":{job}}}"#));
        assert_eq!(rep2.get("id").and_then(Json::as_num), Some(2.0));
        assert_eq!(rep2.get("report").unwrap().emit(), rep.get("report").unwrap().emit());

        let tuned = request(&mut c, &format!(r#"{{"type":"tune","id":3,"job":{job}}}"#));
        assert_eq!(tuned.get("type").and_then(Json::as_str), Some("tuned"), "{tuned:?}");
        assert!(tuned.get("explored").and_then(Json::as_num).unwrap() >= 6.0);

        let stats = request(&mut c, r#"{"type":"stats","id":4}"#);
        assert!(stats.get("cache_hits").and_then(Json::as_num).unwrap() >= 1.0);
        assert!(stats.get("sim_runs").and_then(Json::as_num).unwrap() >= 2.0);

        let bye = request(&mut c, r#"{"type":"shutdown"}"#);
        assert_eq!(bye.get("type").and_then(Json::as_str), Some("bye"));
        server.join();
    }

    #[test]
    fn query_keys_are_pinned() {
        // Both lanes, as literals: the cache must not split from the keys
        // of a hasher change, and a tune key ignores the strategy.
        let job = TrainingJob {
            workload: mics_model::preset("bert-1.5b", 8).unwrap(),
            cluster: ClusterSpec::new(InstanceType::preset("p3dn").unwrap(), 2),
            strategy: Strategy::parse("mics:8").unwrap(),
            accum_steps: 4,
        };
        let int8 = Some(CompressionConfig::both(mics_core::QuantScheme::int8()));
        let tuned = tune_key(&job.workload, &job.cluster, 4, &[None, int8]);
        let pinned = [
            [0xc18b_9e15_85b1_0e6f, 0xbffb_093e_2edf_df26],
            [0xf9bc_ee4d_3497_9cb9, 0xf370_c1f5_a200_2802],
        ];
        assert_eq!([simulate_key(&job).0, tuned.0], pinned);
    }

    #[test]
    fn bad_requests_are_typed_rejections() {
        let server = PlannerServer::start(PlannerConfig::default()).unwrap();
        let mut c = Stream::connect(server.addr()).unwrap();

        let e = request(&mut c, r#"{"type":"frobnicate","id":1}"#);
        assert_eq!(e.get("code").and_then(Json::as_str), Some("BadRequest"));

        let job = JobSpec::mics("no-such-model", 2, 8).to_json().emit();
        let e = request(&mut c, &format!(r#"{{"type":"simulate","id":2,"job":{job}}}"#));
        assert_eq!(e.get("code").and_then(Json::as_str), Some("BadRequest"));
        assert!(e.get("message").and_then(Json::as_str).unwrap().contains("unknown model"));

        // Partition size that does not divide the cluster.
        let job = JobSpec::mics("bert-10b", 2, 7).to_json().emit();
        let e = request(&mut c, &format!(r#"{{"type":"simulate","id":3,"job":{job}}}"#));
        assert!(e.get("message").and_then(Json::as_str).unwrap().contains("does not divide"));

        server.shutdown();
        server.join();
    }

    #[test]
    fn non_integral_counts_are_bad_requests() {
        // `2.5` nodes must not plan as 2: the job does not decode.
        let server = PlannerServer::start(PlannerConfig::default()).unwrap();
        let mut c = Stream::connect(server.addr()).unwrap();
        for (id, field) in ["micro_batch", "nodes", "accum"].into_iter().enumerate() {
            let Json::Obj(mut job) = JobSpec::mics("bert-1.5b", 2, 8).to_json() else {
                unreachable!("a job encodes as an object")
            };
            job.iter_mut().filter(|(k, _)| k == field).for_each(|(_, v)| *v = Json::Num(2.5));
            let bad = Json::Obj(job).emit();
            let e = request(&mut c, &format!(r#"{{"type":"simulate","id":{id},"job":{bad}}}"#));
            assert_eq!(e.get("code").and_then(Json::as_str), Some("BadRequest"), "{bad}: {e:?}");
        }
        let (_, _, _, _, sim_runs) = server.cache_stats();
        assert_eq!(sim_runs, 0);
        server.shutdown();
        server.join();
    }

    #[test]
    fn resolve_job_bounds_every_count() {
        let ok = JobSpec::mics("bert-1.5b", 2, 8);
        assert!(resolve_job(ok.clone()).is_ok());
        assert!(resolve_job(JobSpec { nodes: MAX_COUNT, ..ok.clone() }).is_ok());
        let huge = 1e12 as usize;
        for spec in [
            JobSpec { micro_batch: huge, ..ok.clone() },
            JobSpec { nodes: huge, ..ok.clone() },
            JobSpec { accum: huge, ..ok.clone() },
            JobSpec { nodes: MAX_COUNT + 1, ..ok.clone() },
            JobSpec { accum: 0, ..ok.clone() },
        ] {
            let at = format!("{spec:?}");
            assert!(matches!(resolve_job(spec), Err(PlanError::BadRequest { .. })), "{at}");
        }
    }

    #[test]
    fn zero_deadline_rejects_before_simulating() {
        let server = PlannerServer::start(PlannerConfig::default()).unwrap();
        let mut c = Stream::connect(server.addr()).unwrap();
        let job = JobSpec::mics("bert-10b", 2, 8).to_json().emit();
        let e = request(
            &mut c,
            &format!(r#"{{"type":"simulate","id":1,"job":{job},"deadline_ms":0}}"#),
        );
        assert_eq!(e.get("code").and_then(Json::as_str), Some("DeadlineExceeded"));
        let (_, _, _, _, sim_runs) = server.cache_stats();
        assert_eq!(sim_runs, 0, "an already-expired query must not simulate");
        server.shutdown();
        server.join();
    }

    #[test]
    fn budget_exhaustion_is_reported_and_cache_hits_stay_free() {
        let server = PlannerServer::start(PlannerConfig::default()).unwrap();
        let mut c = Stream::connect(server.addr()).unwrap();

        // First simulate runs on the generous default grant.
        let job = JobSpec::mics("bert-1.5b", 1, 8).to_json().emit();
        let rep = request(&mut c, &format!(r#"{{"type":"simulate","id":1,"job":{job}}}"#));
        assert_eq!(rep.get("type").and_then(Json::as_str), Some("report"), "{rep:?}");

        // Re-provision the connection down to one FLOP: every fresh query
        // must now be rejected with the typed budget error…
        let ready = request(&mut c, r#"{"type":"hello","budget_flops":1.0}"#);
        assert_eq!(ready.get("type").and_then(Json::as_str), Some("ready"));
        let e = request(&mut c, &format!(r#"{{"type":"tune","id":2,"job":{job}}}"#));
        assert_eq!(e.get("code").and_then(Json::as_str), Some("BudgetExceeded"), "{e:?}");
        assert!(e.get("needed").and_then(Json::as_num).unwrap() > 0.0);

        // …but the memoized simulate stays free on the drained ledger.
        let rep2 = request(&mut c, &format!(r#"{{"type":"simulate","id":3,"job":{job}}}"#));
        assert_eq!(rep2.get("type").and_then(Json::as_str), Some("report"), "{rep2:?}");
        server.shutdown();
        server.join();
    }

    #[test]
    fn sweep_streams_items_then_done() {
        let server = PlannerServer::start(PlannerConfig::default()).unwrap();
        let mut c = Stream::connect(server.addr()).unwrap();
        let jobs = format!(
            "[{},{},{}]",
            JobSpec::mics("bert-10b", 2, 8).to_json().emit(),
            JobSpec::mics("bert-10b", 2, 16).to_json().emit(),
            JobSpec::mics("no-such-model", 2, 8).to_json().emit(),
        );
        send_frame(&mut c, &format!(r#"{{"type":"sweep","id":7,"jobs":{jobs}}}"#)).unwrap();
        let mut items = 0;
        let mut errors = 0;
        loop {
            let doc = Json::parse(&read_frame(&mut c).unwrap()).unwrap();
            match doc.get("type").and_then(Json::as_str) {
                Some("sweep_item") => {
                    items += 1;
                    if doc.get("error").is_some() {
                        errors += 1;
                    } else {
                        assert!(doc.get("report").is_some() || doc.get("oom").is_some());
                    }
                }
                Some("sweep_done") => {
                    assert_eq!(doc.get("count").and_then(Json::as_num), Some(3.0));
                    break;
                }
                other => panic!("unexpected frame {other:?}"),
            }
        }
        assert_eq!(items, 3);
        assert_eq!(errors, 1, "the bad job fails per-item, not the stream");
        server.shutdown();
        server.join();
    }
}

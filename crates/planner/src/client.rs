//! Typed client for the planner service.
//!
//! [`PlannerClient`] owns one framed connection and exposes the protocol as
//! typed calls: transport/service failures surface as [`PlanError`], while
//! OOM — a legitimate planning *answer*, the paper's "×" marks — stays in
//! the success channel as `Ok(Err(OomError))`. Connection setup runs under
//! the dataplane's bounded-backoff [`RetryPolicy`], the same policy workers
//! use to outwait a hub that has not finished binding.

use crate::protocol::{read_frame, write_frame, JobSpec, PlanError};
use mics_core::{Json, MicsConfig, OomError, RunReport, ToJson};
use mics_dataplane::transport::wire::Stream;
use mics_dataplane::RetryPolicy;
use std::time::Duration;

/// A `tune` answer: the winning configuration and its projected report.
#[derive(Debug, Clone, PartialEq)]
pub struct TuneOutcome {
    /// The best feasible configuration found.
    pub best: MicsConfig,
    /// Its simulated report.
    pub report: RunReport,
    /// Candidates the search evaluated.
    pub explored: usize,
}

/// One streamed `sweep` result.
#[derive(Debug, Clone)]
pub enum SweepOutcome {
    /// The job simulated successfully.
    Report(RunReport),
    /// The job does not fit in memory.
    Oom(OomError),
    /// The job failed service-side (bad spec, budget, deadline).
    Failed(PlanError),
}

/// Server counters from a `stats` request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServerStats {
    /// Queries that reached the cache.
    pub queries: u64,
    /// Served from a completed cache entry.
    pub cache_hits: u64,
    /// Computed fresh.
    pub cache_misses: u64,
    /// Duplicates collapsed onto an in-flight run.
    pub dedup_collapsed: u64,
    /// Simulator/tuner executions actually run.
    pub sim_runs: u64,
    /// Completed entries evicted to honor the server's capacity bound.
    pub cache_evictions: u64,
    /// Completed entries currently memoized.
    pub cache_entries: u64,
    /// This connection's remaining FLOP budget.
    pub budget_remaining: f64,
}

/// One typed connection to a planner server.
pub struct PlannerClient {
    stream: Stream,
    next_id: u64,
}

impl PlannerClient {
    /// Connect under the default bounded-backoff [`RetryPolicy`] (the
    /// server may still be binding).
    pub fn connect(addr: &str) -> Result<PlannerClient, PlanError> {
        let stream = RetryPolicy::default().run(|| Stream::connect(addr)).map_err(io_err)?;
        Ok(PlannerClient { stream, next_id: 1 })
    }

    /// Send one raw request text and return the raw response text — the
    /// byte-level escape hatch the round-trip tests use to assert
    /// bit-identical responses.
    pub fn request_text(&mut self, request: &str) -> Result<String, PlanError> {
        write_frame(&mut self.stream, request).map_err(io_err)?;
        read_frame(&mut self.stream).map_err(io_err)
    }

    fn fresh_id(&mut self) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    /// Send `doc`, read one response, decode service errors.
    fn round_trip(&mut self, doc: &Json) -> Result<Json, PlanError> {
        let text = self.request_text(&doc.emit())?;
        let response = Json::parse(&text)
            .map_err(|e| PlanError::Io { message: format!("unparseable response: {e:?}") })?;
        match PlanError::from_response(&response) {
            Some(err) => Err(err),
            None => Ok(response),
        }
    }

    /// Provision this connection's FLOP budget; returns the remaining
    /// balance the server acknowledges.
    pub fn hello(&mut self, budget_flops: f64) -> Result<f64, PlanError> {
        let doc =
            Json::obj([("type", Json::from("hello")), ("budget_flops", Json::Num(budget_flops))]);
        let response = self.round_trip(&doc)?;
        response
            .get("budget_flops")
            .and_then(Json::as_num)
            .ok_or_else(|| malformed("ready response without budget_flops"))
    }

    /// Simulate one job (optionally deadline-bounded). `Ok(Err(_))` is the
    /// job not fitting in memory; `Err(_)` is the service refusing or
    /// failing the query.
    pub fn simulate(
        &mut self,
        job: &JobSpec,
        deadline: Option<Duration>,
    ) -> Result<Result<RunReport, OomError>, PlanError> {
        let id = self.fresh_id();
        let doc = query_doc("simulate", id, [("job", job.to_json())], deadline);
        let response = self.round_trip(&doc)?;
        decode_outcome(&response)
    }

    /// Tune a job's strategy (optionally sweeping quantized-collective
    /// options named `"none"`, `"f16"`, `"int8"`, `"int4"`).
    pub fn tune(
        &mut self,
        job: &JobSpec,
        compression: &[&str],
        deadline: Option<Duration>,
    ) -> Result<Result<TuneOutcome, OomError>, PlanError> {
        let id = self.fresh_id();
        let mut fields = vec![("job", job.to_json())];
        if !compression.is_empty() {
            fields.push((
                "compression",
                Json::Arr(compression.iter().map(|&c| Json::from(c)).collect()),
            ));
        }
        let doc = query_doc("tune", id, fields, deadline);
        let response = self.round_trip(&doc)?;
        match response.get("type").and_then(Json::as_str) {
            Some("tuned") => {
                let best = response
                    .get("best")
                    .and_then(MicsConfig::from_json)
                    .ok_or_else(|| malformed("tuned response without best"))?;
                let report = response
                    .get("report")
                    .and_then(RunReport::from_json)
                    .ok_or_else(|| malformed("tuned response without report"))?;
                let explored =
                    response.get("explored").and_then(Json::as_num).unwrap_or(0.0) as usize;
                Ok(Ok(TuneOutcome { best, report, explored }))
            }
            Some("oom") => Ok(Err(decode_oom(&response)?)),
            other => Err(malformed(&format!("unexpected tune response type {other:?}"))),
        }
    }

    /// Sweep a list of jobs; `on_item(index, outcome)` fires as each result
    /// streams back (completion order is upstream's choice, indices say
    /// which job). Returns the number of items the server processed.
    pub fn sweep(
        &mut self,
        jobs: &[JobSpec],
        deadline: Option<Duration>,
        mut on_item: impl FnMut(usize, SweepOutcome),
    ) -> Result<usize, PlanError> {
        let id = self.fresh_id();
        let jobs_doc = Json::Arr(jobs.iter().map(ToJson::to_json).collect());
        let doc = query_doc("sweep", id, [("jobs", jobs_doc)], deadline);
        write_frame(&mut self.stream, &doc.emit()).map_err(io_err)?;
        loop {
            let text = read_frame(&mut self.stream).map_err(io_err)?;
            let frame = Json::parse(&text)
                .map_err(|e| PlanError::Io { message: format!("unparseable frame: {e:?}") })?;
            match frame.get("type").and_then(Json::as_str) {
                Some("sweep_item") => {
                    let index = frame.get("index").and_then(Json::as_num).unwrap_or(-1.0) as usize;
                    let outcome = if let Some(err_doc) = frame.get("error") {
                        let code = err_doc.get("code").and_then(Json::as_str).unwrap_or("");
                        let message = err_doc
                            .get("message")
                            .and_then(Json::as_str)
                            .unwrap_or("unspecified")
                            .to_string();
                        SweepOutcome::Failed(match code {
                            "ShuttingDown" => PlanError::ShuttingDown,
                            _ => PlanError::BadRequest { reason: message },
                        })
                    } else {
                        match decode_outcome(&frame)? {
                            Ok(r) => SweepOutcome::Report(r),
                            Err(oom) => SweepOutcome::Oom(oom),
                        }
                    };
                    on_item(index, outcome);
                }
                Some("sweep_done") => {
                    return Ok(frame.get("count").and_then(Json::as_num).unwrap_or(0.0) as usize)
                }
                _ => {
                    return match PlanError::from_response(&frame) {
                        Some(err) => Err(err),
                        None => Err(malformed("unexpected frame in sweep stream")),
                    }
                }
            }
        }
    }

    /// Fetch server counters.
    pub fn stats(&mut self) -> Result<ServerStats, PlanError> {
        let id = self.fresh_id();
        let doc = Json::obj([("type", Json::from("stats")), ("id", Json::Num(id as f64))]);
        let response = self.round_trip(&doc)?;
        let num = |k: &str| response.get(k).and_then(Json::as_num).unwrap_or(0.0);
        Ok(ServerStats {
            queries: num("queries") as u64,
            cache_hits: num("cache_hits") as u64,
            cache_misses: num("cache_misses") as u64,
            dedup_collapsed: num("dedup_collapsed") as u64,
            sim_runs: num("sim_runs") as u64,
            cache_evictions: num("cache_evictions") as u64,
            cache_entries: num("cache_entries") as u64,
            budget_remaining: num("budget_remaining"),
        })
    }

    /// Ask the server to shut down gracefully (drain, then exit).
    pub fn shutdown_server(&mut self) -> Result<(), PlanError> {
        let doc = Json::obj([("type", Json::from("shutdown"))]);
        let response = self.round_trip(&doc)?;
        match response.get("type").and_then(Json::as_str) {
            Some("bye") => Ok(()),
            other => Err(malformed(&format!("unexpected shutdown response {other:?}"))),
        }
    }
}

fn io_err(e: std::io::Error) -> PlanError {
    PlanError::Io { message: e.to_string() }
}

fn malformed(what: &str) -> PlanError {
    PlanError::Io { message: format!("protocol violation: {what}") }
}

fn query_doc<'a>(
    kind: &str,
    id: u64,
    fields: impl IntoIterator<Item = (&'a str, Json)>,
    deadline: Option<Duration>,
) -> Json {
    let mut pairs =
        vec![("type".to_string(), Json::from(kind)), ("id".to_string(), Json::Num(id as f64))];
    pairs.extend(fields.into_iter().map(|(k, v)| (k.to_string(), v)));
    if let Some(d) = deadline {
        pairs.push(("deadline_ms".to_string(), Json::Num(d.as_secs_f64() * 1e3)));
    }
    Json::Obj(pairs)
}

/// Decode a `report`/`oom` body shared by simulate responses and sweep
/// items.
fn decode_outcome(doc: &Json) -> Result<Result<RunReport, OomError>, PlanError> {
    if let Some(report) = doc.get("report") {
        return RunReport::from_json(report).map(Ok).ok_or_else(|| malformed("undecodable report"));
    }
    if doc.get("oom").is_some() {
        return Ok(Err(decode_oom(doc)?));
    }
    Err(malformed("response carries neither report nor oom"))
}

fn decode_oom(doc: &Json) -> Result<OomError, PlanError> {
    doc.get("oom").and_then(OomError::from_json).ok_or_else(|| malformed("undecodable oom record"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::{PlannerConfig, PlannerServer};

    #[test]
    fn typed_calls_match_in_process_results() {
        let server = PlannerServer::start(PlannerConfig::default()).unwrap();
        let mut client = PlannerClient::connect(server.addr()).unwrap();

        let spec = JobSpec::mics("bert-10b", 2, 8);
        let report = client.simulate(&spec, None).unwrap().unwrap();

        // The service answer must be bit-identical to calling the simulator
        // directly (same canonical JSON round trip).
        let job = mics_core::TrainingJob {
            workload: mics_model::preset("bert-10b", 8).unwrap(),
            cluster: mics_cluster::ClusterSpec::new(
                mics_cluster::InstanceType::preset("p3dn").unwrap(),
                2,
            ),
            strategy: mics_core::Strategy::parse("mics:8").unwrap(),
            accum_steps: 4,
        };
        let direct = mics_core::simulate(&job).unwrap();
        assert_eq!(report.to_json().emit(), direct.to_json().emit());
        assert_eq!(report, direct);

        let tuned = client.tune(&spec, &[], None).unwrap().unwrap();
        let direct_tune = mics_core::tune(&job.workload, &job.cluster, 4).unwrap();
        assert_eq!(tuned.best, direct_tune.best);
        assert_eq!(tuned.report.to_json().emit(), direct_tune.report.to_json().emit());
        assert_eq!(tuned.explored, direct_tune.explored.len());

        let stats = client.stats().unwrap();
        assert_eq!(stats.sim_runs, 2);
        assert_eq!(stats.cache_entries, 2);

        client.shutdown_server().unwrap();
        server.join();
    }

    #[test]
    fn oom_is_an_answer_not_an_error() {
        let server = PlannerServer::start(PlannerConfig::default()).unwrap();
        let mut client = PlannerClient::connect(server.addr()).unwrap();
        // 100B on two V100 nodes cannot fit under any strategy.
        let spec = JobSpec::mics("100b", 2, 16);
        let oom = client.simulate(&spec, None).unwrap().unwrap_err();
        assert!(oom.required > oom.available);
        let oom = client.tune(&spec, &[], None).unwrap().unwrap_err();
        assert!(oom.required > oom.available);
        server.shutdown();
        server.join();
    }

    #[test]
    fn sweep_streams_typed_outcomes() {
        let server = PlannerServer::start(PlannerConfig::default()).unwrap();
        let mut client = PlannerClient::connect(server.addr()).unwrap();
        let jobs = [
            JobSpec::mics("bert-10b", 2, 8),
            JobSpec::mics("100b", 2, 16),
            JobSpec::mics("?", 1, 1),
        ];
        let mut outcomes = [None, None, None];
        let count = client.sweep(&jobs, None, |i, outcome| outcomes[i] = Some(outcome)).unwrap();
        assert_eq!(count, 3);
        assert!(matches!(outcomes[0], Some(SweepOutcome::Report(_))));
        assert!(matches!(outcomes[1], Some(SweepOutcome::Oom(_))));
        assert!(matches!(outcomes[2], Some(SweepOutcome::Failed(_))));
        server.shutdown();
        server.join();
    }
}

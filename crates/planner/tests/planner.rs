//! Planner service integration tests: the concurrency contract (duplicate
//! collapse + byte-identical responses), deadline and budget enforcement,
//! disconnect resilience, and graceful shutdown — all over real sockets.

use mics_planner::{JobSpec, PlanError, PlannerClient, PlannerConfig, PlannerServer, SweepOutcome};
use proptest::prelude::*;
use std::sync::{Arc, Barrier};
use std::time::Duration;

fn start() -> PlannerServer {
    PlannerServer::start(PlannerConfig::default()).expect("server must start")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The single-flight contract, end to end: N clients firing the *same*
    /// query concurrently all receive byte-identical response frames, and
    /// the simulator ran exactly once.
    #[test]
    fn concurrent_duplicates_are_byte_identical_with_one_sim_run(
        clients in 2usize..6,
        nodes in 1usize..3,
        micro in 0usize..2,
        accum in 1usize..4,
    ) {
        let server = start();
        let addr = server.addr().to_string();
        let mut spec = JobSpec::mics("bert-1.5b", nodes, 8);
        spec.micro_batch = [4, 8][micro];
        spec.accum = accum;
        let request = format!(
            r#"{{"type":"simulate","id":11,"job":{}}}"#,
            mics_core::ToJson::to_json(&spec).emit()
        );
        let barrier = Arc::new(Barrier::new(clients));
        let responses: Vec<String> = (0..clients)
            .map(|_| {
                let addr = addr.clone();
                let request = request.clone();
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    let mut c = PlannerClient::connect(&addr).unwrap();
                    barrier.wait();
                    c.request_text(&request).unwrap()
                })
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|t| t.join().unwrap())
            .collect();
        prop_assert!(responses.windows(2).all(|w| w[0] == w[1]),
            "duplicate queries must return byte-identical frames");
        prop_assert!(responses[0].contains(r#""type":"report""#), "{}", responses[0]);
        let (queries, hits, misses, dedup, sim_runs) = server.cache_stats();
        prop_assert_eq!(sim_runs, 1, "N duplicates must cost one simulation");
        prop_assert_eq!(queries, clients as u64);
        prop_assert_eq!(misses, 1, "exactly one leader computed");
        prop_assert_eq!(hits, clients as u64 - 1, "every non-leader resolved as a hit");
        prop_assert!(dedup < clients as u64, "waiters are a subset of the non-leaders");

        // The same numbers, plus evictions, must surface through the wire
        // `stats` request (the counter registry feeds both).
        let mut c = PlannerClient::connect(&addr).unwrap();
        let stats = c.stats().unwrap();
        prop_assert_eq!(stats.sim_runs, 1);
        prop_assert_eq!(stats.cache_hits, hits);
        prop_assert_eq!(stats.dedup_collapsed, dedup);
        prop_assert_eq!(stats.cache_evictions, 0, "unbounded default cache never evicts");
        server.shutdown();
        server.join();
    }
}

#[test]
fn bounded_cache_reports_evictions_through_stats() {
    let cfg = PlannerConfig { cache_capacity: 1, ..PlannerConfig::default() };
    let server = PlannerServer::start(cfg).expect("server must start");
    let mut client = PlannerClient::connect(server.addr()).unwrap();
    let job = mics_core::ToJson::to_json(&JobSpec::mics("bert-1.5b", 1, 8)).emit();
    let first_query = format!(r#"{{"type":"simulate","id":1,"job":{job}}}"#);
    // Three distinct jobs through a one-entry cache: two evictions.
    let first = client.request_text(&first_query).unwrap();
    for nodes in 2..=3 {
        client.simulate(&JobSpec::mics("bert-1.5b", nodes, 8), None).unwrap().unwrap();
    }
    assert_eq!(server.cache_evictions(), 2);
    let stats = client.stats().unwrap();
    assert_eq!(stats.cache_evictions, 2);
    assert_eq!(stats.cache_entries, 1, "capacity bounds the memoized entries");
    // The evicted first job recomputes rather than hitting, and determinism
    // makes the recomputed response byte-identical.
    assert_eq!(client.request_text(&first_query).unwrap(), first);
    let (_, _, _, _, sim_runs) = server.cache_stats();
    assert_eq!(sim_runs, 4, "an evicted entry costs a fresh simulation");
    server.shutdown();
    server.join();
}

#[test]
fn zero_deadline_is_rejected_without_simulating() {
    let server = start();
    let mut client = PlannerClient::connect(server.addr()).unwrap();
    let err = client.simulate(&JobSpec::mics("bert-10b", 2, 8), Some(Duration::ZERO)).unwrap_err();
    assert!(matches!(err, PlanError::DeadlineExceeded { .. }), "{err:?}");
    let (_, _, _, _, sim_runs) = server.cache_stats();
    assert_eq!(sim_runs, 0);
    server.shutdown();
    server.join();
}

#[test]
fn budget_exhaustion_rejects_fresh_queries_but_serves_cached_ones() {
    let server = start();
    let mut client = PlannerClient::connect(server.addr()).unwrap();
    let spec = JobSpec::mics("bert-1.5b", 1, 8);

    // Funded: the first simulate runs.
    client.simulate(&spec, None).unwrap().unwrap();

    // Drain the ledger to (effectively) nothing.
    let remaining = client.hello(1.0).unwrap();
    assert_eq!(remaining, 0.0, "grant is below what was already spent");

    // A fresh query is a typed rejection carrying the evidence…
    let mut other = JobSpec::mics("bert-1.5b", 2, 8);
    other.accum = 2;
    match client.simulate(&other, None).unwrap_err() {
        PlanError::BudgetExceeded { needed, remaining } => {
            assert!(needed > 0.0);
            assert_eq!(remaining, 0.0);
        }
        err => panic!("wrong error: {err:?}"),
    }

    // …while the memoized query is still served, for free.
    client.simulate(&spec, None).unwrap().unwrap();
    server.shutdown();
    server.join();
}

#[test]
fn disconnect_mid_sweep_does_not_kill_the_server() {
    let server = start();
    let addr = server.addr().to_string();
    {
        // Raw connection: fire a sweep, read a single frame, vanish.
        use mics_dataplane::transport::wire::Stream;
        use mics_planner::{read_frame, write_frame};
        let jobs: Vec<String> = (0..6)
            .map(|i| mics_core::ToJson::to_json(&JobSpec::mics("bert-1.5b", 1 + i % 2, 8)).emit())
            .collect();
        let mut c = Stream::connect(&addr).unwrap();
        write_frame(&mut c, &format!(r#"{{"type":"sweep","id":5,"jobs":[{}]}}"#, jobs.join(",")))
            .unwrap();
        let first = read_frame(&mut c).unwrap();
        assert!(first.contains("sweep_item"), "{first}");
        // Connection dropped here, mid-stream.
    }
    // The server must still answer new clients.
    let mut client = PlannerClient::connect(&addr).unwrap();
    let report = client.simulate(&JobSpec::mics("bert-1.5b", 1, 8), None).unwrap().unwrap();
    assert!(report.samples_per_sec > 0.0);
    server.shutdown();
    server.join();
}

#[test]
fn sweep_covers_fit_oom_and_bad_jobs_in_one_stream() {
    let server = start();
    let mut client = PlannerClient::connect(server.addr()).unwrap();
    let jobs = [
        JobSpec::mics("bert-1.5b", 1, 8),
        JobSpec::mics("100b", 2, 16),     // cannot fit: OOM answer
        JobSpec::mics("bert-1.5b", 1, 3), // 3 does not divide 8: typed error
    ];
    let mut seen = [None, None, None];
    let count = client.sweep(&jobs, None, |i, o| seen[i] = Some(o)).unwrap();
    assert_eq!(count, 3);
    assert!(matches!(seen[0], Some(SweepOutcome::Report(_))));
    assert!(matches!(seen[1], Some(SweepOutcome::Oom(_))));
    match &seen[2] {
        Some(SweepOutcome::Failed(PlanError::BadRequest { reason })) => {
            assert!(reason.contains("does not divide"), "{reason}");
        }
        other => panic!("wrong outcome: {other:?}"),
    }
    server.shutdown();
    server.join();
}

#[test]
fn graceful_shutdown_rejects_stragglers_then_drains() {
    let server = start();
    let mut client = PlannerClient::connect(server.addr()).unwrap();
    client.simulate(&JobSpec::mics("bert-1.5b", 1, 8), None).unwrap().unwrap();
    client.shutdown_server().unwrap();
    // The connection stays readable during the drain; new queries get the
    // typed refusal instead of hanging.
    let err = client.simulate(&JobSpec::mics("bert-1.5b", 2, 8), None).unwrap_err();
    assert!(matches!(err, PlanError::ShuttingDown), "{err:?}");
    server.join();
}

#[test]
fn responses_match_in_process_calls_bit_for_bit() {
    let server = start();
    let mut client = PlannerClient::connect(server.addr()).unwrap();
    for (model, nodes, p) in [("bert-1.5b", 1, 8), ("bert-10b", 2, 8), ("bert-10b", 2, 16)] {
        let spec = JobSpec::mics(model, nodes, p);
        let served = client.simulate(&spec, None).unwrap().unwrap();
        let job = mics_core::TrainingJob {
            workload: mics_model::preset(model, 8).unwrap(),
            cluster: mics_cluster::ClusterSpec::new(
                mics_cluster::InstanceType::preset("p3dn").unwrap(),
                nodes,
            ),
            strategy: mics_core::Strategy::parse(&format!("mics:{p}")).unwrap(),
            accum_steps: 4,
        };
        let direct = mics_core::simulate(&job).unwrap();
        assert_eq!(
            mics_core::ToJson::to_json(&served).emit(),
            mics_core::ToJson::to_json(&direct).emit(),
            "served report must be bit-identical to the in-process simulation ({model})"
        );
    }
    server.shutdown();
    server.join();
}

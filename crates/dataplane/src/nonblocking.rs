//! Non-blocking collectives: the §4 overlap engine for the real data plane.
//!
//! Every [`Communicator`] can issue any fallible collective asynchronously
//! through [`Communicator::start_collective`]. The first call lazily
//! spawns a dedicated **comm-progress thread** for that communicator
//! (one per rank per group, mirroring NCCL's per-communicator proxy
//! thread). Submitted operations execute there in submission order against
//! a private fork of the handle, so the SPMD ordering contract is preserved
//! as long as every rank submits the same sequence — exactly the contract
//! the blocking API already imposes. The rank thread keeps computing and
//! collects the result later through [`CollectiveHandle::wait`].
//!
//! The submission queue is **bounded** ([`ASYNC_QUEUE_DEPTH`]): a rank that
//! races ahead of its own progress thread blocks on submission rather than
//! queueing unbounded work, which is the backpressure that keeps prefetch
//! windows honest.
//!
//! # Failure semantics
//!
//! The engine reuses the rendezvous/abort machinery of the blocking path
//! unchanged: a submitted operation that observes a dead or absent peer
//! completes with [`CommError::RankFailed`] / [`CommError::Timeout`], and
//! that error is delivered at [`CollectiveHandle::wait`] — never as a panic
//! on the progress thread. Every outstanding handle of a poisoned group
//! resolves; none hang (the rendezvous deadline still fires on the progress
//! thread). Dropping a communicator with operations still queued does not
//! join the progress thread — it finishes (or aborts) the queued work in
//! the background and exits; see [`Communicator::quiesce`] for a
//! deterministic shutdown.

use crate::{CommError, Communicator};
use std::sync::mpsc::{sync_channel, Receiver, RecvTimeoutError, SyncSender};
use std::thread::JoinHandle;

/// Maximum operations queued per communicator before submission blocks.
pub const ASYNC_QUEUE_DEPTH: usize = 16;

type Job = Box<dyn FnOnce(&Communicator) + Send>;

/// The per-communicator progress thread and its submission queue. Dropping
/// it closes the queue, so the worker exits once the queued work drains —
/// and deliberately does not `join`: during a rank-thread panic the world
/// may not be poisoned yet, and joining would deadlock behind a rendezvous
/// the dying rank will never complete. The worker exits on its own once the
/// group's poison (or timeout) resolves its remaining jobs.
#[derive(Debug)]
pub(crate) struct Engine {
    tx: SyncSender<Job>,
    worker: JoinHandle<()>,
}

impl Engine {
    fn spawn(peer: Communicator) -> Engine {
        let (tx, rx) = sync_channel::<Job>(ASYNC_QUEUE_DEPTH);
        let worker = std::thread::Builder::new()
            .name(format!("comm-progress-{}", peer.rank()))
            .spawn(move || {
                while let Ok(job) = rx.recv() {
                    job(&peer);
                }
            })
            .expect("cannot spawn comm-progress thread");
        Engine { tx, worker }
    }
}

/// An in-flight asynchronous collective. Obtain the result — or the abort
/// reason — with [`CollectiveHandle::wait`]; the operation keeps making
/// progress whether or not anyone is waiting.
#[derive(Debug)]
pub struct CollectiveHandle<T> {
    rx: Receiver<Result<T, CommError>>,
    probe: Communicator,
}

impl<T> CollectiveHandle<T> {
    /// Block until the collective completes and return its result. A rank
    /// failure or rendezvous timeout anywhere in the group surfaces here as
    /// `Err`, exactly as it would from the blocking `try_*` call.
    ///
    /// The wait is bounded by the group's
    /// [`Communicator::set_timeout`] — scaled by the queue depth, since up
    /// to [`ASYNC_QUEUE_DEPTH`] earlier operations may legitimately run
    /// (each with its own rendezvous deadline) before this one. Without
    /// this bound, a timeout configured *after* submission would never
    /// reach an already-blocked wait, and a wedged progress thread would
    /// hang the rank thread forever.
    pub fn wait(self) -> Result<T, CommError> {
        let budget = self.probe.timeout().saturating_mul(ASYNC_QUEUE_DEPTH as u32 + 2);
        match self.rx.recv_timeout(budget) {
            Ok(done) => done,
            // The worker died without delivering: a submitted operation
            // panicked (shape-mismatch assertions live in the collectives).
            // If the group is poisoned, deliver that; otherwise propagate
            // the programming error.
            Err(RecvTimeoutError::Disconnected) => match self.probe.failure() {
                Some(e) => Err(e),
                None => panic!("comm-progress thread died without a group failure"),
            },
            // The progress thread outlived every deadline that could have
            // saved it (stuck outside the rendezvous machinery): give up
            // with the group failure if one exists, else a timeout.
            Err(RecvTimeoutError::Timeout) => {
                Err(self.probe.failure().unwrap_or(CommError::Timeout { waited: budget }))
            }
        }
    }
}

impl Communicator {
    /// Submit an arbitrary fallible collective for asynchronous execution
    /// on this communicator's progress thread. The closure receives the
    /// progress thread's fork of this handle; every rank of the group must
    /// submit the same operation in the same order (the SPMD contract,
    /// unchanged). A composite that spans several communicators (the
    /// hierarchical forms) runs on the progress thread of the one it is
    /// submitted to.
    pub fn start_collective<T, F>(&mut self, op: F) -> CollectiveHandle<T>
    where
        T: Send + 'static,
        F: FnOnce(&Communicator) -> Result<T, CommError> + Send + 'static,
    {
        if self.engine.is_none() {
            self.engine = Some(Engine::spawn(self.fork()));
        }
        let probe = self.fork();
        let (txr, rxr) = sync_channel(1);
        let job: Job = Box::new(move |comm| {
            let _ = txr.send(op(comm));
        });
        // A send can only fail if the worker died, which means a submitted
        // operation panicked; the corresponding handle surfaces that.
        let _ = self.engine.as_ref().expect("spawned above").tx.send(job);
        CollectiveHandle { rx: rxr, probe }
    }

    /// Non-blocking [`Communicator::try_all_reduce`] on the exact wire.
    pub fn start_all_reduce(&mut self, contribution: &[f32]) -> CollectiveHandle<Vec<f32>> {
        let data = contribution.to_vec();
        self.start_collective(move |c| c.try_all_reduce(&data, None))
    }

    /// Deterministic engine shutdown: close the submission queue and join
    /// the progress thread after it drains. Call once every outstanding
    /// handle has been waited; a queue with stuck work would block here
    /// until the group's rendezvous deadline aborts it.
    pub fn quiesce(&mut self) {
        if let Some(Engine { tx, worker }) = self.engine.take() {
            drop(tx);
            let _ = worker.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hierarchical::split_hierarchical;
    use crate::{run_ranks, try_hierarchical_all_gather, try_run_ranks, with_deadline};
    use mics_collectives::HierarchicalLayout;
    use mics_compress::QuantScheme;
    use proptest::prelude::*;
    use std::time::{Duration, Instant};

    #[test]
    fn async_all_gather_matches_blocking() {
        let out = run_ranks(4, |mut c| {
            let data = [c.rank() as f32, 1.0];
            let handle = c.start_collective(move |c| c.try_all_gather(&data, None));
            handle.wait().unwrap()
        });
        for r in &out {
            assert_eq!(r, &[0.0, 1.0, 1.0, 1.0, 2.0, 1.0, 3.0, 1.0]);
        }
    }

    #[test]
    fn pipelined_handles_complete_in_submission_order() {
        // Several collectives in flight at once; the progress thread must
        // execute them in submission order so the rendezvous stay matched.
        let out = run_ranks(3, |mut c| {
            let rank = c.rank() as f32;
            let h1 = c.start_all_reduce(&[rank]);
            let h2 = c.start_all_reduce(&[rank * 10.0]);
            let h3 = c.start_collective(move |c| c.try_reduce_scatter(&[rank; 3], None));
            (h1.wait().unwrap(), h2.wait().unwrap(), h3.wait().unwrap())
        });
        for (r, (a, b, s)) in out.iter().enumerate() {
            assert_eq!(a, &[3.0]);
            assert_eq!(b, &[30.0]);
            let _ = (r, s);
            assert_eq!(s, &[3.0]);
        }
    }

    #[test]
    fn quantized_async_matches_blocking_quantized() {
        let scheme = Some(QuantScheme::F16);
        let expect = run_ranks(4, |c| {
            c.try_all_gather(&[c.rank() as f32 * 0.5; 6], scheme).expect("healthy world")
        });
        let got = run_ranks(4, |mut c| {
            let data = [c.rank() as f32 * 0.5; 6];
            c.start_collective(move |c| c.try_all_gather(&data, scheme)).wait().unwrap()
        });
        assert_eq!(expect, got);
    }

    #[test]
    fn hierarchical_async_matches_flat_gather() {
        let layout = HierarchicalLayout::new(4, 2).unwrap();
        let out = run_ranks(4, move |mut comm| {
            let rank = comm.rank();
            let (mut channel, node) = split_hierarchical(&mut comm, &layout);
            let shard = vec![rank as f32; 3];
            let flat = comm.all_gather(&shard);
            let (node, data) = (node.fork(), shard.clone());
            let h = channel.start_collective(move |ch| {
                try_hierarchical_all_gather(ch, &node, &layout, &data, None)
            });
            let hier = h.wait().unwrap();
            assert_eq!(flat, hier);
            hier
        });
        assert_eq!(out.len(), 4);
    }

    #[test]
    fn rendezvous_deadline_fires_at_wait() {
        // Rank 1 never submits the matching collective and exits cleanly;
        // rank 0's in-flight gather must abort with Timeout at wait() —
        // the deadline guard still fires on the progress thread.
        with_deadline(Duration::from_secs(20), || {
            let results = try_run_ranks(2, |mut c| {
                c.set_timeout(Duration::from_millis(200));
                if c.rank() == 0 {
                    let h = c.start_collective(|c| c.try_all_gather(&[0.0], None));
                    h.wait()
                } else {
                    Ok(Vec::new())
                }
            });
            match &results[0] {
                Ok(Err(CommError::Timeout { .. })) => {}
                other => panic!("rank 0 must time out at wait(), got {other:?}"),
            }
        });
    }

    #[test]
    fn set_timeout_bounds_wait_even_for_wedged_ops() {
        // Regression: the timeout is configured *after* the operation is
        // submitted, and the operation wedges outside the rendezvous
        // machinery (so no rendezvous deadline will save it). wait() must
        // still return within the scaled budget instead of blocking until
        // the wedge clears.
        with_deadline(Duration::from_secs(20), || {
            run_ranks(2, |mut c| {
                let h: CollectiveHandle<Vec<f32>> = c.start_collective(|_| {
                    std::thread::sleep(Duration::from_secs(8));
                    Ok(Vec::new())
                });
                c.set_timeout(Duration::from_millis(100));
                let started = Instant::now();
                let r = h.wait();
                let elapsed = started.elapsed();
                assert!(matches!(r, Err(CommError::Timeout { .. })), "got {r:?}");
                assert!(
                    elapsed < Duration::from_secs(5),
                    "wait must honor the configured timeout, took {elapsed:?}"
                );
            });
        });
    }

    #[test]
    fn quiesce_joins_the_progress_thread() {
        run_ranks(2, |mut c| {
            let h = c.start_all_reduce(&[1.0]);
            assert_eq!(h.wait().unwrap(), vec![2.0]);
            c.quiesce(); // returns promptly: queue drained, worker joined
        });
    }

    /// Satellite: a rank failing while ≥1 async collective is in flight
    /// delivers `RankFailed` at **every** outstanding `wait()` — no hang,
    /// no double-panic — across plain/quantized/hierarchical variants.
    fn abort_under_overlap(world: usize, inflight: usize, variant: usize) {
        with_deadline(Duration::from_secs(30), move || {
            let killer = world - 1;
            let layout = HierarchicalLayout::new(world, 2);
            let results = try_run_ranks(world, move |mut c| {
                c.set_timeout(Duration::from_secs(5));
                // The hierarchical split is itself collective, so it runs
                // before the fault — the async gathers are what must abort.
                let hier = (variant == 2).then(|| {
                    let layout = layout.expect("hierarchical needs p = nodes × k");
                    let (channel, node) = split_hierarchical(&mut c, &layout);
                    (channel, node, layout)
                });
                if c.rank() == killer {
                    panic!("injected fault: rank dies with collectives in flight");
                }
                let mut hier = hier;
                let handles: Vec<CollectiveHandle<Vec<f32>>> = (0..inflight)
                    .map(|i| {
                        let data = vec![c.rank() as f32 + i as f32; 4];
                        let f16 = Some(QuantScheme::F16);
                        match &mut hier {
                            None if variant == 0 => {
                                c.start_collective(move |c| c.try_all_gather(&data, None))
                            }
                            None => c.start_collective(move |c| c.try_all_reduce(&data, f16)),
                            Some((channel, node, layout)) => {
                                let (node, layout) = (node.fork(), *layout);
                                channel.start_collective(move |ch| {
                                    try_hierarchical_all_gather(ch, &node, &layout, &data, f16)
                                })
                            }
                        }
                    })
                    .collect();
                handles.into_iter().map(CollectiveHandle::wait).collect::<Vec<_>>()
            });
            for (rank, r) in results.iter().enumerate() {
                if rank == killer {
                    assert!(r.is_err(), "the killer must be reported as panicked");
                    continue;
                }
                let waits = r.as_ref().unwrap_or_else(|p| {
                    panic!("survivor {rank} must not panic (no double-panic): {}", p.message)
                });
                assert_eq!(waits.len(), inflight);
                for (i, w) in waits.iter().enumerate() {
                    match w {
                        Err(CommError::RankFailed { .. }) => {}
                        other => panic!(
                            "survivor {rank} handle {i} must abort with RankFailed, got {other:?}"
                        ),
                    }
                }
            }
        });
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]
        #[test]
        fn prop_abort_under_overlap(
            world in 2usize..5,
            inflight in 1usize..4,
            variant in 0usize..3,
        ) {
            // The hierarchical variant needs a p = nodes × 2 geometry.
            let world = if variant == 2 { 4 } else { world };
            abort_under_overlap(world, inflight, variant);
        }
    }
}

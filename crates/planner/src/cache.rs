//! Single-flight memoization: the cache that makes repeated planning
//! queries O(1) and concurrent duplicates cost one simulation.
//!
//! Keys are [`CanonicalKey`]s (see `mics_core::canonical`), so two queries
//! that *mean* the same job collide regardless of how they were spelled on
//! the wire. Values are the fully-computed response payloads as [`Json`]
//! documents — deterministic [`Json::emit`] then guarantees a cache-served
//! response is byte-identical to the freshly-computed one.
//!
//! Concurrency is classic single-flight: the first query for a key inserts
//! a `Running` marker and computes; duplicates arriving meanwhile block on
//! a condvar and are all served by that one run (the *dedup collapse* the
//! `ext_serve` bench measures). A panic in the compute closure removes the
//! marker and wakes waiters (one of them recomputes), so a poisoned entry
//! cannot wedge the server. A completed entry never goes stale: a plan is a
//! pure function of its canonical key, so recomputing one could only
//! reproduce the same bytes. Only the capacity bound removes entries.
//!
//! Behaviour counters live in a [`mics_trace::Counters`] registry
//! ([`CacheStats`]), so the same cells back the `stats` request, the
//! `cache_stats` accessor, and — when the global recorder is enabled —
//! trace counter tracks. An optional capacity bounds the completed entries:
//! past it the least recently used one goes (a hit, a served waiter or a
//! completion makes an entry the most recently used); evictions tick a
//! counter and emit an instant event.

use crate::PLANNER_PROCESS;
use mics_core::{CanonicalKey, Json};
use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

use crate::protocol::PlanError;

/// One cache slot: a computation in flight, or its result.
enum Slot {
    /// Some worker is computing this key; wait on the condvar.
    Running,
    /// The memoized response payload, and the tick of its last use.
    Done(Arc<Json>, u64),
}

/// How a [`PlanCache::get_or_compute`] call was served.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheOutcome {
    /// Served from an already-completed entry.
    Hit,
    /// This call ran the computation (and is the one the budget layer
    /// bills).
    Leader,
    /// Collapsed onto another caller's in-flight run.
    Waiter,
}

impl CacheOutcome {
    /// Whether the response came from the cache rather than a fresh run —
    /// everything but the leader.
    pub fn served_from_cache(self) -> bool {
        !matches!(self, CacheOutcome::Leader)
    }

    /// Stable lowercase label, used as a trace-span argument.
    pub fn label(self) -> &'static str {
        match self {
            CacheOutcome::Hit => "hit",
            CacheOutcome::Leader => "leader",
            CacheOutcome::Waiter => "waiter",
        }
    }
}

/// Monotonic counters describing cache behaviour since server start,
/// backed by a [`mics_trace::Counters`] registry.
#[derive(Debug)]
pub struct CacheStats {
    registry: mics_trace::Counters,
    /// Queries that went through the cache at all.
    pub queries: mics_trace::Counter,
    /// Served from a completed entry (includes resolved waiters).
    pub hits: mics_trace::Counter,
    /// Computed fresh (includes the leader of each duplicate burst).
    pub misses: mics_trace::Counter,
    /// Duplicates that waited on an in-flight run instead of computing.
    pub dedup_collapsed: mics_trace::Counter,
    /// Underlying simulate/tune executions actually run.
    pub sim_runs: mics_trace::Counter,
    /// Completed entries dropped to stay within the capacity bound.
    pub evictions: mics_trace::Counter,
}

impl Default for CacheStats {
    fn default() -> Self {
        Self::new()
    }
}

impl CacheStats {
    /// A fresh registry with every counter at zero.
    pub fn new() -> CacheStats {
        let registry = mics_trace::Counters::new();
        CacheStats {
            queries: registry.counter("planner.cache.queries"),
            hits: registry.counter("planner.cache.hits"),
            misses: registry.counter("planner.cache.misses"),
            dedup_collapsed: registry.counter("planner.cache.waiters"),
            sim_runs: registry.counter("planner.sim_runs"),
            evictions: registry.counter("planner.cache.evictions"),
            registry,
        }
    }

    /// The backing registry (for snapshotting every cell by name).
    pub fn registry(&self) -> &mics_trace::Counters {
        &self.registry
    }

    /// Snapshot as plain numbers `(queries, hits, misses, dedup, sim_runs)`.
    pub fn snapshot(&self) -> (u64, u64, u64, u64, u64) {
        (
            self.queries.get(),
            self.hits.get(),
            self.misses.get(),
            self.dedup_collapsed.get(),
            self.sim_runs.get(),
        )
    }
}

/// Slot map plus the use order the capacity bound evicts by, under one
/// lock so depth checks and insertions are atomic.
struct Inner {
    slots: HashMap<CanonicalKey, Slot>,
    /// Completed keys by the tick of their last use, least recent first
    /// (every `Done` key is here exactly once; `Running` markers are not).
    by_use: BTreeMap<u64, CanonicalKey>,
    /// The last tick handed out.
    tick: u64,
}

impl Inner {
    /// The completed entry of `key`, which becomes the most recently used.
    fn hit(&mut self, key: CanonicalKey) -> Option<Arc<Json>> {
        let Some(Slot::Done(value, used)) = self.slots.get_mut(&key) else { return None };
        self.tick += 1;
        self.by_use.remove(used);
        *used = self.tick;
        self.by_use.insert(self.tick, key);
        Some(Arc::clone(value))
    }
}

/// The single-flight memo cache.
pub struct PlanCache {
    inner: Mutex<Inner>,
    ready: Condvar,
    /// Maximum completed entries kept (0 = unbounded). Least recently used
    /// first out: planning workloads revisit the configurations they use.
    capacity: usize,
    /// Behaviour counters, exposed via the `stats` request.
    pub stats: CacheStats,
}

/// Removes a `Running` marker if the compute closure unwinds, so waiters
/// retry instead of blocking forever.
struct RunningGuard<'a> {
    cache: &'a PlanCache,
    key: CanonicalKey,
    armed: bool,
}

impl Drop for RunningGuard<'_> {
    fn drop(&mut self) {
        if self.armed {
            let mut inner = self.cache.inner.lock().unwrap();
            if matches!(inner.slots.get(&self.key), Some(Slot::Running)) {
                inner.slots.remove(&self.key);
            }
            drop(inner);
            self.cache.ready.notify_all();
        }
    }
}

impl Default for PlanCache {
    fn default() -> Self {
        Self::new()
    }
}

impl PlanCache {
    /// An empty, unbounded cache.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// An empty cache keeping at most `capacity` completed entries
    /// (0 = unbounded), evicting the least recently used.
    pub fn with_capacity(capacity: usize) -> Self {
        PlanCache {
            inner: Mutex::new(Inner { slots: HashMap::new(), by_use: BTreeMap::new(), tick: 0 }),
            ready: Condvar::new(),
            capacity,
            stats: CacheStats::new(),
        }
    }

    /// Entries currently memoized (completed only).
    pub fn len(&self) -> usize {
        self.inner.lock().unwrap().by_use.len()
    }

    /// Whether no results are memoized yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Non-blocking lookup of a *completed* entry. A hit counts toward the
    /// stats and refreshes the entry; a miss (including an in-flight
    /// `Running` slot) counts nothing
    /// — the caller is expected to follow up with
    /// [`PlanCache::get_or_compute`], which does the accounting. This is
    /// what lets the budget layer serve memoized answers to clients whose
    /// FLOP ledger is already exhausted: cached responses are free.
    pub fn peek(&self, key: CanonicalKey) -> Option<Arc<Json>> {
        let value = self.inner.lock().unwrap().hit(key)?;
        self.stats.queries.incr();
        self.stats.hits.incr();
        Some(value)
    }

    /// Look up `key`, or compute it exactly once across all concurrent
    /// callers. `deadline` bounds how long a duplicate waits for the
    /// in-flight leader. `compute` runs *without* the cache lock held.
    ///
    /// Returns the payload and how the call was served — the budget layer
    /// charges only the [`CacheOutcome::Leader`] that actually simulated.
    pub fn get_or_compute(
        &self,
        key: CanonicalKey,
        deadline: Instant,
        compute: impl FnOnce() -> Json,
    ) -> Result<(Arc<Json>, CacheOutcome), PlanError> {
        self.stats.queries.incr();
        let mut inner = self.inner.lock().unwrap();
        loop {
            if let Some(v) = inner.hit(key) {
                self.stats.hits.incr();
                return Ok((v, CacheOutcome::Hit));
            }
            match inner.slots.get(&key) {
                Some(Slot::Running) => {
                    self.stats.dedup_collapsed.incr();
                    let started = Instant::now();
                    // Wait for the leader; re-check on every wake. A missing
                    // entry after a wake means the leader panicked — fall
                    // through and become the new leader.
                    loop {
                        let now = Instant::now();
                        if now >= deadline {
                            return Err(PlanError::DeadlineExceeded {
                                waited: now.duration_since(started),
                            });
                        }
                        let (guard, timeout) =
                            self.ready.wait_timeout(inner, deadline.duration_since(now)).unwrap();
                        inner = guard;
                        if let Some(v) = inner.hit(key) {
                            self.stats.hits.incr();
                            return Ok((v, CacheOutcome::Waiter));
                        }
                        match inner.slots.get(&key) {
                            Some(Slot::Running) if timeout.timed_out() => {
                                return Err(PlanError::DeadlineExceeded {
                                    waited: Instant::now().duration_since(started),
                                });
                            }
                            Some(Slot::Running) => continue,
                            _ => break, // leader died; take over
                        }
                    }
                }
                _ => {
                    inner.slots.insert(key, Slot::Running);
                    drop(inner);
                    self.stats.misses.incr();
                    self.stats.sim_runs.incr();
                    let mut guard = RunningGuard { cache: self, key, armed: true };
                    let value = Arc::new(compute());
                    guard.armed = false;
                    let mut inner = self.inner.lock().unwrap();
                    inner.tick += 1;
                    let tick = inner.tick;
                    inner.slots.insert(key, Slot::Done(Arc::clone(&value), tick));
                    inner.by_use.insert(tick, key);
                    while self.capacity > 0 && inner.by_use.len() > self.capacity {
                        let Some((_, old)) = inner.by_use.pop_first() else { break };
                        inner.slots.remove(&old);
                        self.stats.evictions.incr();
                        mics_trace::global().instant(
                            PLANNER_PROCESS,
                            "cache",
                            "cache eviction",
                            "cache",
                            vec![("reason", mics_trace::Arg::from("capacity"))],
                        );
                    }
                    drop(inner);
                    self.ready.notify_all();
                    return Ok((value, CacheOutcome::Leader));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::Duration;

    fn key(n: u64) -> CanonicalKey {
        CanonicalKey([n, !n])
    }

    fn far() -> Instant {
        Instant::now() + Duration::from_secs(60)
    }

    #[test]
    fn second_lookup_hits() {
        let cache = PlanCache::new();
        let runs = AtomicUsize::new(0);
        let compute = || {
            runs.fetch_add(1, Ordering::SeqCst);
            Json::from("v")
        };
        let (a, outcome_a) = cache.get_or_compute(key(1), far(), compute).unwrap();
        let (b, outcome_b) = cache.get_or_compute(key(1), far(), compute).unwrap();
        assert_eq!(runs.load(Ordering::SeqCst), 1);
        assert_eq!(a, b);
        assert_eq!(outcome_a, CacheOutcome::Leader);
        assert_eq!(outcome_b, CacheOutcome::Hit);
        assert!(!outcome_a.served_from_cache() && outcome_b.served_from_cache());
        assert_eq!(cache.stats.snapshot(), (2, 1, 1, 0, 1));
    }

    #[test]
    fn concurrent_duplicates_collapse_to_one_run() {
        let cache = Arc::new(PlanCache::new());
        let runs = Arc::new(AtomicUsize::new(0));
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let cache = Arc::clone(&cache);
                let runs = Arc::clone(&runs);
                std::thread::spawn(move || {
                    let peers = Arc::clone(&cache);
                    cache
                        .get_or_compute(key(2), far(), move || {
                            runs.fetch_add(1, Ordering::SeqCst);
                            // Hold the slot until every peer has collapsed
                            // onto it: a waiter counts itself under the lock
                            // before it parks.
                            while peers.stats.snapshot().3 < 7 {
                                std::thread::yield_now();
                            }
                            Json::from("slow")
                        })
                        .unwrap()
                        .0
                })
            })
            .collect();
        let results: Vec<_> = threads.into_iter().map(|t| t.join().unwrap()).collect();
        assert_eq!(runs.load(Ordering::SeqCst), 1, "exactly one compute");
        assert!(results.windows(2).all(|w| w[0] == w[1]));
        let (queries, hits, misses, dedup, sim_runs) = cache.stats.snapshot();
        assert_eq!(queries, 8);
        assert_eq!(misses, 1);
        assert_eq!(sim_runs, 1);
        assert_eq!(dedup, 7, "every duplicate waited on the one run");
        assert_eq!(hits, 7, "waiters resolve as hits");
    }

    #[test]
    fn waiter_deadline_expires_while_leader_runs() {
        let cache = Arc::new(PlanCache::new());
        let c2 = Arc::clone(&cache);
        let (started_tx, started) = std::sync::mpsc::channel();
        let (release, release_rx) = std::sync::mpsc::channel::<()>();
        let leader = std::thread::spawn(move || {
            c2.get_or_compute(key(3), far(), move || {
                started_tx.send(()).unwrap();
                // Hold the slot until the duplicate has given up.
                release_rx.recv().unwrap();
                Json::from("late")
            })
            .unwrap()
        });
        started.recv().unwrap();
        let err = cache
            .get_or_compute(key(3), Instant::now() + Duration::from_millis(20), || {
                unreachable!("duplicate must not compute")
            })
            .unwrap_err();
        assert!(matches!(err, PlanError::DeadlineExceeded { .. }), "{err:?}");
        release.send(()).unwrap();
        let (_, outcome) = leader.join().unwrap();
        assert_eq!(outcome, CacheOutcome::Leader);
    }

    #[test]
    fn panicking_leader_does_not_wedge_the_key() {
        let cache = Arc::new(PlanCache::new());
        let c2 = Arc::clone(&cache);
        let crashed = std::thread::spawn(move || {
            let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                c2.get_or_compute(key(4), far(), || panic!("boom"))
            }));
        });
        crashed.join().unwrap();
        // The key is free again: a fresh caller computes successfully.
        let (v, outcome) = cache.get_or_compute(key(4), far(), || Json::from("recovered")).unwrap();
        assert_eq!(*v, Json::from("recovered"));
        assert_eq!(outcome, CacheOutcome::Leader);
    }

    #[test]
    fn capacity_bound_evicts_oldest_completed_entry() {
        let cache = PlanCache::with_capacity(2);
        for n in 10..13 {
            let (_, outcome) = cache.get_or_compute(key(n), far(), || Json::Num(n as f64)).unwrap();
            assert_eq!(outcome, CacheOutcome::Leader);
        }
        assert_eq!(cache.len(), 2, "capacity bounds the completed entries");
        assert_eq!(cache.stats.evictions.get(), 1);
        // The oldest key was evicted and recomputes; the newest still hits.
        assert!(cache.peek(key(10)).is_none());
        let (_, outcome) = cache.get_or_compute(key(12), far(), || unreachable!()).unwrap();
        assert_eq!(outcome, CacheOutcome::Hit);
        let (_, outcome) = cache.get_or_compute(key(10), far(), || Json::from("again")).unwrap();
        assert_eq!(outcome, CacheOutcome::Leader);
        assert_eq!(cache.stats.evictions.get(), 2, "re-inserting evicts the next oldest");
    }

    #[test]
    fn a_hit_keeps_its_entry_resident() {
        let cache = PlanCache::with_capacity(2);
        for n in [30, 31] {
            cache.get_or_compute(key(n), far(), || Json::Num(n as f64)).unwrap();
        }
        let (_, outcome) = cache.get_or_compute(key(30), far(), || unreachable!()).unwrap();
        assert_eq!(outcome, CacheOutcome::Hit);
        cache.get_or_compute(key(32), far(), || Json::from("c")).unwrap();
        // The entry not used since it completed went; the hit one stays.
        assert!(cache.peek(key(31)).is_none());
        let (_, outcome) = cache.get_or_compute(key(30), far(), || unreachable!()).unwrap();
        assert_eq!(outcome, CacheOutcome::Hit);
        assert_eq!(cache.stats.evictions.get(), 1);
    }

    #[test]
    fn stats_cells_are_readable_through_the_registry() {
        let cache = PlanCache::new();
        let _ = cache.get_or_compute(key(20), far(), || Json::from("v"));
        let _ = cache.peek(key(20));
        let reg = cache.stats.registry();
        assert_eq!(reg.get("planner.cache.queries"), 2);
        assert_eq!(reg.get("planner.cache.hits"), 1);
        assert_eq!(reg.get("planner.sim_runs"), 1);
        assert_eq!(reg.get("planner.cache.evictions"), 0);
    }
}

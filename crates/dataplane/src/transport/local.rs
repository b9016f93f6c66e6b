//! The shared-memory transport: ranks are threads of one process, a group's
//! rendezvous is a sense-reversing barrier over in-process deposit slots.
//!
//! This is the original data plane, refactored onto the transport
//! contract's single primitive — the sequenced [`Inner::exchange`]. All
//! collective semantics (concatenation order, rank-order folds, shape
//! checks) live above the transport in [`crate::Communicator`], so this
//! module is only the rendezvous: deposit, meet, take references, meet
//! again.

use super::{addressed, ChildKey, Deposit, Parts, Piece};
use crate::{lock, CommError};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Sense-reversing rendezvous barrier with failure detection.
///
/// `generation` is the failure-detection epoch: it advances only when all
/// `world` ranks arrive. A failure (explicit or timeout) permanently breaks
/// the epoch: `broken` is set, every current waiter is woken, and every
/// later wait fails fast.
#[derive(Debug)]
pub(crate) struct Barrier {
    lock: Mutex<BarrierState>,
    cv: Condvar,
}

#[derive(Debug)]
struct BarrierState {
    arrived: usize,
    generation: u64,
    broken: Option<CommError>,
}

impl Barrier {
    pub(crate) fn new() -> Self {
        Barrier {
            lock: Mutex::new(BarrierState { arrived: 0, generation: 0, broken: None }),
            cv: Condvar::new(),
        }
    }

    pub(crate) fn wait(&self, world: usize, timeout: Duration) -> Result<(), CommError> {
        let mut st = lock(&self.lock);
        if let Some(e) = st.broken {
            return Err(e);
        }
        st.arrived += 1;
        if st.arrived == world {
            st.arrived = 0;
            st.generation = st.generation.wrapping_add(1);
            self.cv.notify_all();
            return Ok(());
        }
        let gen = st.generation;
        let deadline = Instant::now() + timeout;
        while st.generation == gen {
            if let Some(e) = st.broken {
                return Err(e);
            }
            let now = Instant::now();
            if now >= deadline {
                let e = CommError::Timeout { waited: timeout };
                st.broken = Some(e);
                self.cv.notify_all();
                return Err(e);
            }
            let (g, _) = self
                .cv
                .wait_timeout(st, deadline - now)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            st = g;
        }
        Ok(())
    }

    pub(crate) fn poison(&self, error: CommError) {
        let mut st = lock(&self.lock);
        if st.broken.is_none() {
            st.broken = Some(error);
        }
        self.cv.notify_all();
    }

    pub(crate) fn broken(&self) -> Option<CommError> {
        lock(&self.lock).broken
    }
}

/// Shared state of one communicator group on the local transport.
#[derive(Debug)]
pub(crate) struct Inner {
    world: usize,
    barrier: Barrier,
    /// Deposit slots: each rank's addressed pieces, each piece shared.
    slots: Mutex<Vec<Vec<Piece<Arc<Parts>>>>>,
    /// Sub-groups created by `split` / `remove_rank`; the map is the
    /// cross-rank rendezvous on the child's shared state.
    children: Mutex<HashMap<ChildKey, Arc<Inner>>>,
    /// Rendezvous deadline in nanoseconds, shared by the whole group.
    timeout_nanos: AtomicU64,
}

impl Inner {
    pub(crate) fn new(world: usize, timeout: Duration) -> Self {
        Inner {
            world,
            barrier: Barrier::new(),
            slots: Mutex::new(vec![Vec::new(); world]),
            children: Mutex::new(HashMap::new()),
            timeout_nanos: AtomicU64::new(timeout.as_nanos() as u64),
        }
    }

    pub(crate) fn world(&self) -> usize {
        self.world
    }

    pub(crate) fn timeout(&self) -> Duration {
        Duration::from_nanos(self.timeout_nanos.load(Ordering::Relaxed))
    }

    pub(crate) fn set_timeout(&self, timeout: Duration) {
        self.timeout_nanos.store(timeout.as_nanos() as u64, Ordering::Relaxed);
    }

    pub(crate) fn failure(&self) -> Option<CommError> {
        self.barrier.broken()
    }

    /// Poison this group and every descendant (splits and rebuilds) so no
    /// surviving rank can block on a rendezvous the failed rank will never
    /// join. `rank` is this group's id for the failed rank; descendants
    /// report the same id (their members may not even contain it — the
    /// poison is conservative by design).
    pub(crate) fn mark_failed(&self, rank: usize) {
        // `children` is taken before the poison wakes anyone and held across
        // the walk: a survivor that reacts by rebuilding (`child()` takes
        // the same lock) inserts its fresh group after the walk, never into
        // it.
        let children = lock(&self.children);
        self.barrier.poison(CommError::RankFailed { rank });
        for child in children.values() {
            child.mark_failed(rank);
        }
    }

    pub(crate) fn barrier(&self) -> Result<(), CommError> {
        self.barrier.wait(self.world, self.timeout())
    }

    /// The sequenced exchange: deposit each of this rank's pieces as one
    /// shared buffer set — owned parts (encoded words) by move, borrowed
    /// ones by one copy (an exact reduce-scatter's `world − 1` slices copy
    /// `(w − 1)/w` of the caller's buffers) — rendezvous, take a reference
    /// to the piece each other rank addressed to this one (`world − 1`
    /// refcount bumps, no payload copy), rendezvous again. The trailing
    /// barrier keeps a fast rank's next deposit out of a slow peer's
    /// snapshot; the caller's fold runs on the references after it, with no
    /// lock held.
    pub(crate) fn exchange(
        &self,
        rank: usize,
        pieces: Vec<Piece<Deposit<'_>>>,
    ) -> Result<Vec<Arc<Parts>>, CommError> {
        let deposit = pieces
            .into_iter()
            .map(|p| Piece { dest: p.dest, parts: p.parts.into_shared() })
            .collect();
        // The previous deposit is released after the lock, not under it.
        let _previous = std::mem::replace(&mut lock(&self.slots)[rank], deposit);
        self.barrier()?;
        let received = {
            let slots = lock(&self.slots);
            (0..self.world)
                .filter(|&from| from != rank)
                .map(|from| Arc::clone(addressed(&slots[from], from, rank)))
                .collect()
        };
        self.barrier()?;
        Ok(received)
    }

    /// First caller creates the child group's shared state; later callers
    /// (the other member ranks) fetch the same `Arc`. A split created after
    /// the parent was poisoned is born poisoned (it shares the parent's
    /// fate); a rebuild is the fresh start.
    pub(crate) fn child(self: &Arc<Self>, key: ChildKey, world: usize) -> Arc<Inner> {
        let mut children = lock(&self.children);
        Arc::clone(children.entry(key).or_insert_with(|| {
            let child = Inner::new(world, self.timeout());
            if let (ChildKey::Split { .. }, Some(err)) = (key, self.failure()) {
                child.barrier.poison(err);
            }
            Arc::new(child)
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn back_to_back_exchanges_never_mix_sequence_numbers() {
        // No sleeps: ranks race from one exchange into the next. A fast
        // rank's deposit for call `seq + 1` must never reach a slow rank's
        // snapshot of call `seq` — the trailing barrier's whole job. Odd
        // calls address one borrowed piece to each peer, even calls one
        // owned piece to all: each rank receives exactly what was addressed
        // to it, from every peer but itself, in member order.
        use super::super::Dest;
        let (world, calls) = (4, 2000);
        let inner = Inner::new(world, Duration::from_secs(10));
        std::thread::scope(|scope| {
            for rank in 0..world {
                let inner = &inner;
                scope.spawn(move || {
                    for seq in 0..calls {
                        let cut = |to: usize| [rank as f32, to as f32, seq as f32];
                        let each: Vec<[f32; 3]> = (0..world).map(cut).collect();
                        let pieces: Vec<Piece<Deposit>> = if seq % 2 == 1 {
                            (0..world)
                                .filter(|&to| to != rank)
                                .map(|to| Piece {
                                    dest: Dest::Member(to),
                                    parts: Deposit::Borrowed(vec![&each[to][..]]),
                                })
                                .collect()
                        } else {
                            let own = Arc::new(vec![each[rank].to_vec()]);
                            vec![Piece { dest: Dest::Others, parts: Deposit::Owned(own) }]
                        };
                        let got = inner.exchange(rank, pieces).unwrap();
                        let from: Vec<usize> = (0..world).filter(|&r| r != rank).collect();
                        assert_eq!(got.len(), from.len());
                        for (r, piece) in from.into_iter().zip(&got) {
                            let to = if seq % 2 == 1 { rank } else { r };
                            assert_eq!(
                                piece[0],
                                [r as f32, to as f32, seq as f32],
                                "rank {rank}, call {seq}"
                            );
                        }
                    }
                });
            }
        });
    }
}

//! A data plane that stands in for NCCL, with two interchangeable
//! transports behind one [`Communicator`] API.
//!
//! Collectives are rendezvous operations over real `f32` buffers, so the
//! *data-layout contracts* of the paper's algorithms — most importantly the
//! 3-stage hierarchical all-gather of §3.3 and the coalesced communication
//! APIs of §4 — are executed and tested for real, not merely cost-modelled.
//! Every collective lowers to one transport primitive (a sequenced
//! exchange: deposit addressed pieces, receive from every other member, in
//! rank order, only the piece addressed to you — an exact reduce-scatter
//! moves `(w − 1)/w` of a buffer each way, and no rank receives its own
//! contribution back), and the [`transport`] layer provides two
//! implementations:
//!
//! * **local** — each simulated device is an OS thread; the rendezvous is a
//!   shared-memory barrier. This is [`Communicator::create_world`] /
//!   [`run_ranks`].
//! * **socket** — each device is a separate OS *process* holding one framed
//!   TCP or Unix-domain connection to a [`transport::Hub`]; see
//!   [`transport::connect_world`] and the `mics-rankd` worker binary. This
//!   is the transport that gives fault injection real teeth: a SIGKILLed
//!   rank is a torn connection, not a poisoned flag.
//!
//! Determinism: reductions fold contributions in fixed rank order *on the
//! rank side of the transport*, so every rank computes bit-identical
//! results on either transport, and repeated runs are bit-identical
//! regardless of scheduling. This is what lets the fidelity experiment
//! (paper §5.4, Figure 15) compare loss curves between synchronization
//! schedules down to floating-point equality.
//!
//! # Failure semantics
//!
//! MiCS targets the public cloud, where ranks die mid-run. A rendezvous
//! collective must therefore be *abortable*: when a rank fails, every
//! peer's in-flight collective returns a [`CommError`] within a bounded
//! time instead of hanging. The detection paths all feed the same poison
//! state:
//!
//! - **Explicit failure:** a rank that panics (see [`try_run_ranks`])
//!   marks its communicator — and, transitively, every sub-communicator
//!   created from it — as failed. Peers blocked in a rendezvous are woken
//!   immediately with [`CommError::RankFailed`].
//! - **Timeout:** every rendezvous wait carries a deadline (configured with
//!   [`Communicator::set_timeout`]). A rank that never shows up is detected
//!   when the wait expires, which breaks the group's current epoch and
//!   returns [`CommError::Timeout`] to all waiters.
//! - **Transport teardown** (socket only): a dead process's connection
//!   closes; survivors observe [`CommError::PeerDisconnected`] without
//!   waiting for any logical deadline.
//! - **Heartbeat** (socket only): a wedged peer — alive but silent — is
//!   expired by per-connection heartbeats, surfacing as
//!   [`CommError::PeerDisconnected`] (hub-detected) or [`CommError::Io`]
//!   (rank-detected silent hub).
//!
//! A poisoned group never recovers; survivors rebuild a smaller group with
//! [`Communicator::remove_rank`] and continue there (the data plane
//! analogue of re-initializing NCCL communicators after shrink).
//!
//! # One surface
//!
//! Every collective is fallible (`try_*`) and takes its wire codec as a
//! parameter: `scheme: None` moves the `f32`s verbatim, `Some(scheme)`
//! moves each contribution's [`quantized`] words. As in the paper, the
//! hierarchical (§3.3) and coalesced (§4) forms are the parameter
//! all-gather's alone: gradients sync through the flat reduce-scatter and
//! all-reduce of the 2-hop schedule (§3.4), so the surface is exactly the
//! set of collectives a step program can emit and the simulator can price.
//! Flat, coalesced and the three stages of the [`hierarchical`] gather are
//! one exchange-then-fold routine; any of them runs asynchronously as a
//! closure handed to [`Communicator::start_collective`]. The few un-prefixed twins
//! (`barrier`, `all_gather`, `split`, [`quantized_all_gather`], …) panic on
//! abort, which in a [`run_ranks`] harness cascades into an orderly
//! whole-world teardown.
//!
//! # Example
//!
//! ```
//! use mics_dataplane::run_ranks;
//!
//! let results = run_ranks(4, |comm| {
//!     let contribution = vec![comm.rank() as f32];
//!     comm.all_gather(&contribution)
//! });
//! for r in &results {
//!     assert_eq!(r, &[0.0, 1.0, 2.0, 3.0]);
//! }
//! ```

#![warn(missing_docs)]

use std::sync::mpsc::RecvTimeoutError;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

pub mod hierarchical;
pub mod nonblocking;
pub mod quantized;
pub mod transport;

pub use hierarchical::{naive_two_stage_all_gather, try_hierarchical_all_gather};
pub use nonblocking::{CollectiveHandle, ASYNC_QUEUE_DEPTH};
pub use quantized::{quantized_all_gather, quantized_all_reduce};
pub use transport::{
    connect_world, socket_counters, Hub, RetryPolicy, SocketWorldConfig, TransportKind,
    DATAPLANE_PROCESS,
};

use mics_compress::{Land, QuantScheme};
use transport::{peer_slot, Backend, ChildKey, Deposit, Dest, Parts, Piece};

/// Rendezvous waits detect an absent rank after this long unless
/// [`Communicator::set_timeout`] overrides it. Generous compared to the
/// microseconds a healthy rendezvous takes, so only a genuinely dead or
/// deadlocked peer trips it.
pub const DEFAULT_TIMEOUT: Duration = Duration::from_secs(30);

/// Why a collective aborted instead of completing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CommError {
    /// A peer was reported dead (panicked rank thread, or a worker process
    /// that reported failure before exiting). The id is the rank as known
    /// to the communicator where the failure was first observed — for
    /// failures propagated from a parent group, its world rank.
    RankFailed {
        /// Failed rank id.
        rank: usize,
    },
    /// A peer never arrived at the rendezvous within the configured bound.
    Timeout {
        /// How long this rank waited before giving up.
        waited: Duration,
    },
    /// The transport itself failed (socket error, silent hub past the
    /// heartbeat grace). Local-transport groups never report this.
    Io {
        /// The underlying I/O error kind.
        kind: std::io::ErrorKind,
    },
    /// A peer's connection tore down without a clean goodbye — the
    /// SIGKILL/preemption signature on the socket transport, detected by
    /// connection teardown or missed heartbeats rather than any logical
    /// deadline.
    PeerDisconnected {
        /// World rank of the vanished peer.
        rank: usize,
    },
}

impl std::fmt::Display for CommError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CommError::RankFailed { rank } => write!(f, "rank {rank} failed"),
            CommError::Timeout { waited } => {
                write!(f, "rendezvous timed out after {waited:?}")
            }
            CommError::Io { kind } => write!(f, "transport I/O error: {kind}"),
            CommError::PeerDisconnected { rank } => {
                write!(f, "peer rank {rank} disconnected")
            }
        }
    }
}

impl std::error::Error for CommError {}

/// Lock that survives a peer thread having panicked while holding the
/// guard: the protected state is plain data (deposit slots, counters) that
/// is always left consistent at the end of each statement, so the std
/// poison flag carries no information the group's own poison state
/// doesn't already capture.
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// The panicking twins' failure: in a [`run_ranks`] harness it cascades
/// into an orderly whole-world teardown.
pub(crate) fn aborted<T>(e: CommError) -> T {
    panic!("collective aborted: {e}")
}

/// Shard `j` of a `len`-element buffer cut into `world` shards of
/// `⌈len / world⌉` elements, the last ones short or empty (equal shards when
/// `world` divides `len`).
fn shard(len: usize, world: usize, j: usize) -> std::ops::Range<usize> {
    let chunk = len.div_ceil(world);
    (j * chunk).min(len)..((j + 1) * chunk).min(len)
}

/// How [`Communicator::collective`] lands the per-rank contributions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Fold {
    /// Concatenate in rank order (all-gather).
    Concat,
    /// Sum this rank's `1/world` shard of each (reduce-scatter).
    SumShard,
    /// Sum every contribution whole (all-reduce).
    SumAll,
}

/// A rank's handle to a communicator group (analogous to an MPI
/// communicator / NCCL communicator).
///
/// All collective methods must be called by **every** rank of the group, in
/// the same program order — the usual SPMD contract. Violations of the
/// contract surface as [`CommError::Timeout`] (a rank at a different
/// rendezvous never arrives at this one) or panic on shape mismatch.
///
/// The handle is transport-agnostic: it behaves identically whether it
/// came from [`Communicator::create_world`] (threads, shared memory) or
/// [`transport::connect_world`] (one process per rank, sockets).
#[derive(Debug)]
pub struct Communicator {
    rank: usize,
    backend: Backend,
    /// Number of `split` calls made so far (local mirror of a value that is
    /// identical across ranks by the SPMD contract).
    split_calls: u64,
    /// Number of `remove_rank` calls made so far (same SPMD mirror).
    rebuild_epoch: u64,
    /// Lazily-spawned progress thread for the non-blocking collectives
    /// (see [`nonblocking`]); `None` until the first `start_*` call.
    engine: Option<nonblocking::Engine>,
}

impl Communicator {
    pub(crate) fn from_backend(rank: usize, backend: Backend) -> Communicator {
        Communicator { rank, backend, split_calls: 0, rebuild_epoch: 0, engine: None }
    }

    /// A second handle to the same (rank, group) — the progress thread's
    /// identity in the [`nonblocking`] engine, and the harness's failure
    /// probe. Never exposed: two handles issuing collectives concurrently
    /// would corrupt the rendezvous, so the engine serializes all use.
    pub(crate) fn fork(&self) -> Communicator {
        Communicator::from_backend(self.rank, self.backend.clone())
    }

    /// Create the world group on the local (thread) transport: one handle
    /// per rank.
    pub fn create_world(world: usize) -> Vec<Communicator> {
        assert!(world > 0, "world must be non-empty");
        let inner = Arc::new(transport::local::Inner::new(world, DEFAULT_TIMEOUT));
        (0..world)
            .map(|rank| Communicator::from_backend(rank, Backend::Local(Arc::clone(&inner))))
            .collect()
    }

    /// This handle's rank within the group.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of ranks in the group.
    pub fn world(&self) -> usize {
        self.backend.world()
    }

    /// Which transport this communicator's group runs on.
    pub fn transport(&self) -> TransportKind {
        transport::socket::kind_of(&self.backend)
    }

    /// Set the failure-detection bound for rendezvous waits. The bound is
    /// shared with every other handle to the same group state in this
    /// process (notably the non-blocking engine's progress thread), and
    /// sub-groups created afterwards inherit it. On the local transport the
    /// group state is process-wide, so any rank's call applies to all; on
    /// the socket transport each rank process governs its own waits — SPMD
    /// programs set it symmetrically anyway.
    pub fn set_timeout(&self, timeout: Duration) {
        self.backend.set_timeout(timeout);
    }

    /// The current failure-detection bound (see
    /// [`Communicator::set_timeout`]).
    pub fn timeout(&self) -> Duration {
        self.backend.timeout()
    }

    /// The failure that poisoned this group, if any — without blocking.
    pub fn failure(&self) -> Option<CommError> {
        self.backend.failure()
    }

    /// Report this rank as failed to the whole group, waking every peer
    /// blocked in a rendezvous. Called automatically by [`try_run_ranks`]
    /// when a rank thread panics; worker processes call it before exiting
    /// on a panic so peers learn the failure faster than any deadline.
    pub fn mark_failed(&self) {
        self.backend.mark_failed(self.rank);
    }

    /// Block until every rank of the group arrives, or the group fails.
    pub fn try_barrier(&self) -> Result<(), CommError> {
        self.backend.barrier(self.rank)
    }

    /// Block until every rank of the group arrives.
    ///
    /// # Panics
    /// Panics if the group fails while waiting.
    pub fn barrier(&self) {
        self.try_barrier().unwrap_or_else(aborted);
    }

    /// The one routine behind every collective, and the only place that
    /// cuts a deposit into pieces: encode each part once if a `scheme` is
    /// given, one exchange, then land every rank's contribution to part `i`
    /// in `outs[i]` — a gather writes rank `r`'s block in place at
    /// `r · len`, a sum adds in rank order from 0.0 — so results are
    /// deterministic and identical across ranks and transports.
    ///
    /// An exact reduce-scatter sends member `j` only slice `j` of each part
    /// (`(w − 1)/w` of the buffer out, as much in); everything else sends
    /// one piece to all other members — a quantized reduce-scatter too,
    /// since per-slice encoding is bit-identical only on block-aligned
    /// slices. This rank's own contribution never crosses the transport: it
    /// lands from the caller's slices, or from its own encoded words, which
    /// go into a local deposit by move. Landing decodes only the elements it
    /// lands (a reduce-scatter `len / world` of each part), straight into
    /// `outs`. A quantized all-reduce decodes each element once: it folds
    /// only this rank's chunk of every contribution, then gathers the chunk
    /// sums on the exact wire (one more exchange). The single-buffer
    /// collectives are its one-part case.
    fn collective(
        &self,
        parts: &[&[f32]],
        scheme: Option<QuantScheme>,
        fold: Fold,
        outs: &mut [Vec<f32>],
    ) -> Result<(), CommError> {
        let world = self.world();
        if fold == Fold::SumShard {
            for (i, p) in parts.iter().enumerate() {
                assert!(
                    p.len().is_multiple_of(world),
                    "reduce_scatter part {i} length {} not divisible by world {world}",
                    p.len()
                );
            }
        }
        let words: Option<Arc<Parts>> =
            scheme.map(|s| Arc::new(parts.iter().map(|p| quantized::encode(p, s)).collect()));
        let sliced = fold == Fold::SumShard && scheme.is_none();
        let pieces: Vec<Piece<Deposit>> = if sliced {
            (0..world)
                .filter(|&j| j != self.rank)
                .map(|j| {
                    let cut = parts.iter().map(|&p| &p[shard(p.len(), world, j)]).collect();
                    Piece { dest: Dest::Member(j), parts: Deposit::Borrowed(cut) }
                })
                .collect()
        } else {
            let parts = match &words {
                Some(w) => Deposit::Owned(Arc::clone(w)),
                None => Deposit::Borrowed(parts.to_vec()),
            };
            vec![Piece { dest: Dest::Others, parts }]
        };
        let received = self.backend.exchange(self.rank, pieces)?;
        for (i, (part, out)) in parts.iter().zip(outs.iter_mut()).enumerate() {
            let len = part.len();
            let mine = match (fold, scheme) {
                (Fold::Concat, _) | (Fold::SumAll, None) => 0..len,
                (Fold::SumShard, _) | (Fold::SumAll, Some(_)) => shard(len, world, self.rank),
            };
            let own = words.as_ref().map_or(*part, |w| &w[i]);
            // What a peer's part holds, and where in it this rank's elements
            // lie: its slice `rank` whole, or everything it contributed.
            let (expected, theirs) = match scheme {
                _ if sliced => (mine.len(), 0..mine.len()),
                Some(s) => (s.encoded_words(len), mine.clone()),
                None => (len, mine.clone()),
            };
            let elements = if sliced { mine.len() } else { len };
            match fold {
                // Every element is overwritten: a reused buffer keeps its
                // allocation and is not cleared first.
                Fold::Concat => out.resize(len * world, 0.0),
                Fold::SumShard | Fold::SumAll => {
                    out.clear();
                    out.resize(mine.len(), 0.0);
                }
            }
            for r in 0..world {
                let (dest, how) = match fold {
                    Fold::Concat => (&mut out[r * len..(r + 1) * len], Land::Overwrite),
                    Fold::SumShard | Fold::SumAll => (&mut out[..], Land::Add),
                };
                if r == self.rank {
                    quantized::land(own, len, scheme, mine.clone(), dest, how);
                    continue;
                }
                let piece = &received[peer_slot(self.rank, r)];
                let got = piece.get(i).map_or(&[][..], Vec::as_slice);
                // How many elements the part holds: under a scheme its
                // stream's count word, if the stream is as long as that
                // count needs (packed codes make neighbouring lengths
                // encode to equally many words).
                let holds = match scheme {
                    Some(s) if !sliced => s.stream_len(got),
                    _ => Some(got.len()),
                };
                assert!(
                    piece.len() == parts.len() && holds == Some(elements),
                    "rank {r} deposited {} parts with {} words in part {i}; expected {} parts \
                     with {expected} words of {elements} elements, got {}",
                    piece.len(),
                    got.len(),
                    parts.len(),
                    holds.map_or("an inconsistent stream".to_string(), |n| format!("{n} elements"))
                );
                quantized::land(got, len, scheme, theirs.clone(), dest, how);
            }
        }
        if fold == Fold::SumAll && scheme.is_some() {
            // Every rank holds the sums of its own chunk: pad each to the
            // full chunk length, gather exactly, cut back to `len`.
            let sums: Vec<Vec<f32>> = parts
                .iter()
                .zip(outs.iter_mut())
                .map(|(p, out)| {
                    let mut sum = std::mem::take(out);
                    sum.resize(p.len().div_ceil(world), 0.0);
                    sum
                })
                .collect();
            let sums: Vec<&[f32]> = sums.iter().map(Vec::as_slice).collect();
            self.collective(&sums, None, Fold::Concat, outs)?;
            for (p, out) in parts.iter().zip(outs) {
                out.truncate(p.len());
            }
        }
        Ok(())
    }

    /// Gather equal-length contributions from all ranks, concatenated in
    /// rank order: `world × len` elements on every rank. With a `scheme` —
    /// here and in every collective below — each contribution is quantized
    /// once, its encoded words travel, and every rank dequantizes them
    /// before landing them. Aborts with the failure when a peer dies or
    /// never arrives.
    pub fn try_all_gather(
        &self,
        contribution: &[f32],
        scheme: Option<QuantScheme>,
    ) -> Result<Vec<f32>, CommError> {
        let mut out = Vec::new();
        self.try_all_gather_into(contribution, scheme, &mut out)?;
        Ok(out)
    }

    /// [`Self::try_all_gather`] into a caller-provided buffer: `out` is
    /// cleared and filled with the `world × len` gathered elements. The
    /// buffer's capacity is reused across calls, which is what lets a hot
    /// training loop double-buffer its parameter gathers with zero
    /// steady-state allocation.
    pub fn try_all_gather_into(
        &self,
        contribution: &[f32],
        scheme: Option<QuantScheme>,
        out: &mut Vec<f32>,
    ) -> Result<(), CommError> {
        self.collective(&[contribution], scheme, Fold::Concat, std::slice::from_mut(out))
    }

    /// [`Self::try_all_gather`] on the exact wire.
    ///
    /// # Panics
    /// Panics if the group fails while waiting.
    pub fn all_gather(&self, contribution: &[f32]) -> Vec<f32> {
        self.try_all_gather(contribution, None).unwrap_or_else(aborted)
    }

    /// Reduce (sum) equal-length contributions of `world × shard` elements
    /// and scatter: rank `r` receives the reduced shard `r`. The sum is in
    /// fp32 over dequantized copies: one quantized hop.
    pub fn try_reduce_scatter(
        &self,
        contribution: &[f32],
        scheme: Option<QuantScheme>,
    ) -> Result<Vec<f32>, CommError> {
        let mut out = Vec::new();
        self.collective(&[contribution], scheme, Fold::SumShard, std::slice::from_mut(&mut out))?;
        Ok(out)
    }

    /// [`Self::try_reduce_scatter`] on the exact wire.
    ///
    /// # Panics
    /// Panics if the group fails while waiting.
    pub fn reduce_scatter(&self, contribution: &[f32]) -> Vec<f32> {
        self.try_reduce_scatter(contribution, None).unwrap_or_else(aborted)
    }

    /// Sum equal-length contributions across all ranks; every rank receives
    /// the full reduced buffer.
    pub fn try_all_reduce(
        &self,
        contribution: &[f32],
        scheme: Option<QuantScheme>,
    ) -> Result<Vec<f32>, CommError> {
        let mut out = Vec::new();
        self.collective(&[contribution], scheme, Fold::SumAll, std::slice::from_mut(&mut out))?;
        Ok(out)
    }

    /// [`Self::try_all_reduce`] on the exact wire.
    ///
    /// # Panics
    /// Panics if the group fails while waiting.
    pub fn all_reduce(&self, contribution: &[f32]) -> Vec<f32> {
        self.try_all_reduce(contribution, None).unwrap_or_else(aborted)
    }

    /// Broadcast `data` from `root` to every rank; non-root ranks' `data` is
    /// ignored.
    pub fn try_broadcast(&self, root: usize, data: &[f32]) -> Result<Vec<f32>, CommError> {
        assert!(root < self.world(), "root out of range");
        // Only the root's piece carries payload; the others are empty.
        let parts = Deposit::Borrowed(if self.rank == root { vec![data] } else { Vec::new() });
        let received =
            self.backend.exchange(self.rank, vec![Piece { dest: Dest::Others, parts }])?;
        if self.rank == root {
            return Ok(data.to_vec());
        }
        Ok(received[peer_slot(self.rank, root)].first().expect("root did not deposit").clone())
    }

    /// The `all_gather_coalesced` API of paper §4: gather a *batch* of
    /// buffers with one rendezvous instead of one per buffer, avoiding the
    /// per-call overhead and interleaving copies of the naive approach.
    /// Entry `i` of the result is the rank-order concatenation of every
    /// rank's `i`-th buffer.
    pub fn try_all_gather_coalesced(
        &self,
        parts: &[&[f32]],
        scheme: Option<QuantScheme>,
    ) -> Result<Vec<Vec<f32>>, CommError> {
        let mut outs = vec![Vec::new(); parts.len()];
        self.collective(parts, scheme, Fold::Concat, &mut outs)?;
        Ok(outs)
    }

    /// Fallible [`Self::split`].
    pub fn try_split(&mut self, color: i64, key: i64) -> Result<Communicator, CommError> {
        let call = self.split_calls;
        self.split_calls += 1;
        // Exchange (color, key) as four f32 bit-halves — exact for every
        // i64, on every transport (the wire is bit-preserving).
        let meta = [
            f32::from_bits(color as u64 as u32),
            f32::from_bits(((color as u64) >> 32) as u32),
            f32::from_bits(key as u64 as u32),
            f32::from_bits(((key as u64) >> 32) as u32),
        ];
        let parts = Deposit::Borrowed(vec![&meta]);
        let received =
            self.backend.exchange(self.rank, vec![Piece { dest: Dest::Others, parts }])?;
        let decode = |piece: &Parts| -> (i64, i64) {
            let m = piece.first().expect("missing split metadata");
            assert_eq!(m.len(), 4, "malformed split metadata");
            let join = |lo: f32, hi: f32| {
                (u64::from(lo.to_bits()) | (u64::from(hi.to_bits()) << 32)) as i64
            };
            (join(m[0], m[1]), join(m[2], m[3]))
        };
        let mut members: Vec<(i64, usize)> = (0..self.world())
            .filter_map(|r| {
                let (c, k) = if r == self.rank {
                    (color, key)
                } else {
                    decode(&received[peer_slot(self.rank, r)])
                };
                (c == color).then_some((k, r))
            })
            .collect();
        members.sort_unstable();
        let new_rank =
            members.iter().position(|&(_, r)| r == self.rank).expect("rank not in own group");
        let child = self.backend.child(ChildKey::Split { call, color }, members.len());
        Ok(Communicator::from_backend(new_rank, child))
    }

    /// Split the group into disjoint sub-groups, MPI `comm_split` style:
    /// ranks passing the same `color` join one sub-group; `key` orders ranks
    /// within it (ties broken by parent rank). Every rank of the parent must
    /// call `split` collectively.
    ///
    /// ```
    /// use mics_dataplane::run_ranks;
    /// // Figure 2: partition groups of 2 consecutive ranks.
    /// let out = run_ranks(4, |mut comm| {
    ///     let group = comm.split((comm.rank() / 2) as i64, comm.rank() as i64);
    ///     group.all_gather(&[comm.rank() as f32])
    /// });
    /// assert_eq!(out[0], vec![0.0, 1.0]);
    /// assert_eq!(out[3], vec![2.0, 3.0]);
    /// ```
    pub fn split(&mut self, color: i64, key: i64) -> Communicator {
        self.try_split(color, key).unwrap_or_else(aborted)
    }

    /// Rebuild the group without rank `removed`, after that rank failed:
    /// the shrink/rebuild step of recovery. Every *surviving* rank must call
    /// this collectively with the same `removed` id; each receives a handle
    /// to a fresh group of `world() - 1` ranks in which surviving ranks keep
    /// their relative order (`rank' = rank - (rank > removed)`).
    ///
    /// The old group stays poisoned; only the new handles are usable. If a
    /// further rank dies before reaching this rendezvous, the rebuild itself
    /// fails with [`CommError::Timeout`] and can be retried with the next
    /// casualty removed as well.
    pub fn remove_rank(&mut self, removed: usize) -> Result<Communicator, CommError> {
        assert!(removed < self.world(), "removed rank out of range");
        assert_ne!(self.rank, removed, "a removed rank cannot join the rebuilt group");
        let epoch = self.rebuild_epoch;
        self.rebuild_epoch += 1;
        let new_world = self.world() - 1;
        let new_rank = self.rank - usize::from(self.rank > removed);
        let rebuilt = self.backend.child(ChildKey::Rebuild { epoch, removed }, new_world);
        // Rendezvous on the *new* group — the old one is poisoned. This is
        // also the liveness check that all survivors made it here.
        rebuilt.barrier(new_rank)?;
        Ok(Communicator::from_backend(new_rank, rebuilt))
    }
}

/// One rank's panic, as reported by [`try_run_ranks`].
#[derive(Debug)]
pub struct RankPanic {
    /// The world rank whose closure panicked.
    pub rank: usize,
    /// The panic payload rendered as a string.
    pub message: String,
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// Like [`run_ranks_on`], but a panicking rank becomes an `Err` entry
/// instead of tearing down the harness — the panic is caught, the world
/// group (and every sub-group) is poisoned so surviving ranks abort their
/// collectives within the configured timeout, and survivors' return values
/// are kept.
///
/// With [`TransportKind::Socket`] the harness stands up an in-process
/// [`Hub`] on an ephemeral loopback port and connects every rank thread
/// through real sockets — same topology as separate worker processes, same
/// wire, same failure paths (a panicking rank reports `Failed` before its
/// connection drops).
pub fn try_run_ranks_on<F, R>(kind: TransportKind, world: usize, f: F) -> Vec<Result<R, RankPanic>>
where
    F: Fn(Communicator) -> R + Sync,
    R: Send,
{
    let (hub, comms) = match kind {
        TransportKind::Local => (None, Communicator::create_world(world)),
        TransportKind::Socket => {
            let (hub, comms) = transport::socket::create_socket_world(world);
            (Some(hub), comms)
        }
    };
    let results = std::thread::scope(|scope| {
        let handles: Vec<_> = comms
            .into_iter()
            .map(|comm| {
                let f = &f;
                let probe = comm.fork();
                scope.spawn(move || {
                    let rank = comm.rank();
                    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(comm))).map_err(
                        |payload| {
                            probe.mark_failed();
                            RankPanic { rank, message: panic_message(payload.as_ref()) }
                        },
                    )
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("rank thread died outside catch_unwind"))
            .collect()
    });
    drop(hub);
    results
}

/// [`try_run_ranks_on`] on the local (thread) transport.
pub fn try_run_ranks<F, R>(world: usize, f: F) -> Vec<Result<R, RankPanic>>
where
    F: Fn(Communicator) -> R + Sync,
    R: Send,
{
    try_run_ranks_on(TransportKind::Local, world, f)
}

/// Spawn `world` ranks on the chosen transport, give rank `r` the rank-`r`
/// communicator, and collect the per-rank results in rank order.
///
/// # Panics
/// If any rank's closure panics, every rank's failure is reported with its
/// rank id and payload (surviving ranks abort their in-flight collectives
/// rather than hanging).
pub fn run_ranks_on<F, R>(kind: TransportKind, world: usize, f: F) -> Vec<R>
where
    F: Fn(Communicator) -> R + Sync,
    R: Send,
{
    let results = try_run_ranks_on(kind, world, f);
    let mut out = Vec::with_capacity(results.len());
    let mut failures = Vec::new();
    for r in results {
        match r {
            Ok(v) => out.push(v),
            Err(p) => failures.push(format!("rank {}: {}", p.rank, p.message)),
        }
    }
    assert!(failures.is_empty(), "rank thread panicked — {}", failures.join("; "));
    out
}

/// [`run_ranks_on`] on the local (thread) transport.
pub fn run_ranks<F, R>(world: usize, f: F) -> Vec<R>
where
    F: Fn(Communicator) -> R + Sync,
    R: Send,
{
    run_ranks_on(TransportKind::Local, world, f)
}

/// Run `f` on a watchdog thread and panic if it exceeds `limit`: the guard
/// that turns an accidental rendezvous deadlock into a fast test failure
/// instead of a hung `cargo test`. Panics from `f` propagate unchanged.
///
/// # Thread lifecycle
///
/// On the happy path (result delivered in time) and on the propagated-panic
/// path the guard thread is **joined** before this function returns — no
/// thread outlives the call. Only the timeout path leaks the thread, by
/// construction: the worker is stuck in whatever deadlock tripped the
/// deadline, a join would hang the very watchdog that exists to avoid
/// hanging, and the process teardown reaps it. That leak is bounded to one
/// thread per tripped deadline, and a tripped deadline is already a test
/// failure.
pub fn with_deadline<R, F>(limit: Duration, f: F) -> R
where
    R: Send + 'static,
    F: FnOnce() -> R + Send + 'static,
{
    let (tx, rx) = std::sync::mpsc::channel();
    let guard = std::thread::Builder::new()
        .name("deadline-guard".into())
        .spawn(move || {
            let _ = tx.send(f());
        })
        .expect("cannot spawn deadline-guard thread");
    match rx.recv_timeout(limit) {
        Ok(r) => {
            let _ = guard.join();
            r
        }
        Err(RecvTimeoutError::Disconnected) => match guard.join() {
            Err(payload) => std::panic::resume_unwind(payload),
            Ok(()) => unreachable!("guarded closure neither sent a result nor panicked"),
        },
        Err(RecvTimeoutError::Timeout) => {
            // The stuck worker thread is leaked; the process will reap it.
            panic!("test exceeded its {limit:?} deadline — likely a rendezvous deadlock")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    const BOTH: [TransportKind; 2] = [TransportKind::Local, TransportKind::Socket];

    #[test]
    fn all_gather_concatenates_in_rank_order() {
        for kind in BOTH {
            let out = run_ranks_on(kind, 4, |c| c.all_gather(&[c.rank() as f32 * 10.0, 1.0]));
            for r in &out {
                assert_eq!(r, &[0.0, 1.0, 10.0, 1.0, 20.0, 1.0, 30.0, 1.0], "{kind}");
            }
        }
    }

    #[test]
    fn all_gather_single_rank_is_identity() {
        for kind in BOTH {
            let out = run_ranks_on(kind, 1, |c| c.all_gather(&[1.0, 2.0]));
            assert_eq!(out[0], vec![1.0, 2.0], "{kind}");
        }
    }

    #[test]
    fn all_reduce_sums_identically_on_every_rank() {
        for kind in BOTH {
            let out = run_ranks_on(kind, 8, |c| c.all_reduce(&[c.rank() as f32, 1.0]));
            let expect = vec![28.0, 8.0];
            for r in &out {
                assert_eq!(r, &expect, "{kind}");
            }
        }
    }

    #[test]
    fn reduce_scatter_gives_each_rank_its_shard() {
        for kind in BOTH {
            let out = run_ranks_on(kind, 4, |c| {
                // Every rank contributes [r; 8] (2 per shard).
                let v = vec![c.rank() as f32; 8];
                c.reduce_scatter(&v)
            });
            // Sum over ranks = 0+1+2+3 = 6 in every position.
            for r in &out {
                assert_eq!(r, &[6.0, 6.0], "{kind}");
            }
        }
    }

    #[test]
    fn reduce_scatter_then_all_gather_equals_all_reduce() {
        let world = 8;
        let data: Vec<Vec<f32>> =
            (0..world).map(|r| (0..16).map(|i| (r * 31 + i) as f32 * 0.25).collect()).collect();
        let via_ar = run_ranks(world, |c| c.all_reduce(&data[c.rank()]));
        let via_rs_ag = run_ranks(world, |c| {
            let mine = c.reduce_scatter(&data[c.rank()]);
            c.all_gather(&mine)
        });
        assert_eq!(via_ar, via_rs_ag);
    }

    #[test]
    fn broadcast_distributes_roots_buffer() {
        for kind in BOTH {
            let out = run_ranks_on(kind, 4, |c| {
                let local = vec![c.rank() as f32; 3];
                c.try_broadcast(2, &local).expect("healthy world")
            });
            for r in &out {
                assert_eq!(r, &[2.0, 2.0, 2.0], "{kind}");
            }
        }
    }

    #[test]
    fn coalesced_all_gather_matches_sequential_calls() {
        let world = 4;
        let mk = |r: usize| (vec![r as f32], vec![r as f32 + 0.5, r as f32 - 0.5]);
        let coalesced = run_ranks(world, |c| {
            let (a, b) = mk(c.rank());
            c.try_all_gather_coalesced(&[&a, &b], None).expect("healthy world")
        });
        let sequential = run_ranks(world, |c| {
            let (a, b) = mk(c.rank());
            vec![c.all_gather(&a), c.all_gather(&b)]
        });
        assert_eq!(coalesced, sequential);
    }

    #[test]
    fn split_partitions_ranks_by_color() {
        for kind in BOTH {
            // 8 ranks → partition groups of 2 consecutive ranks (Figure 2).
            let out = run_ranks_on(kind, 8, |mut c| {
                let color = (c.rank() / 2) as i64;
                let sub = c.split(color, c.rank() as i64);
                let gathered = sub.all_gather(&[c.rank() as f32]);
                (sub.rank(), sub.world(), gathered)
            });
            for (r, (sub_rank, sub_world, gathered)) in out.iter().enumerate() {
                assert_eq!(*sub_world, 2, "{kind}");
                assert_eq!(*sub_rank, r % 2, "{kind}");
                let base = (r / 2 * 2) as f32;
                assert_eq!(gathered, &vec![base, base + 1.0], "{kind}");
            }
        }
    }

    #[test]
    fn split_replication_groups_stride() {
        // Replication groups: ranks with equal (rank % 2), as in Figure 2.
        let out = run_ranks(8, |mut c| {
            let color = (c.rank() % 2) as i64;
            let sub = c.split(color, c.rank() as i64);
            sub.all_gather(&[c.rank() as f32])
        });
        assert_eq!(out[0], vec![0.0, 2.0, 4.0, 6.0]);
        assert_eq!(out[1], vec![1.0, 3.0, 5.0, 7.0]);
        assert_eq!(out[5], vec![1.0, 3.0, 5.0, 7.0]);
    }

    #[test]
    fn split_with_negative_colors_and_keys() {
        // The metadata travels as i64 bit-halves; negative values must
        // survive both transports exactly.
        for kind in BOTH {
            let out = run_ranks_on(kind, 4, |mut c| {
                let color = if c.rank() < 2 { -7i64 } else { i64::MIN };
                let sub = c.split(color, -(c.rank() as i64));
                sub.all_gather(&[c.rank() as f32])
            });
            // Negative keys reverse the order within each pair.
            assert_eq!(out[0], vec![1.0, 0.0], "{kind}");
            assert_eq!(out[3], vec![3.0, 2.0], "{kind}");
        }
    }

    #[test]
    fn consecutive_splits_are_independent() {
        for kind in BOTH {
            let out = run_ranks_on(kind, 4, |mut c| {
                let pairs = c.split((c.rank() / 2) as i64, 0);
                let stripes = c.split((c.rank() % 2) as i64, 0);
                (pairs.all_gather(&[c.rank() as f32]), stripes.all_gather(&[c.rank() as f32]))
            });
            assert_eq!(out[0].0, vec![0.0, 1.0], "{kind}");
            assert_eq!(out[0].1, vec![0.0, 2.0], "{kind}");
            assert_eq!(out[3].0, vec![2.0, 3.0], "{kind}");
            assert_eq!(out[3].1, vec![1.0, 3.0], "{kind}");
        }
    }

    #[test]
    fn determinism_across_runs_and_transports() {
        let run = |kind| {
            run_ranks_on(kind, 8, |c| {
                let v: Vec<f32> = (0..64).map(|i| ((c.rank() * 997 + i) as f32).sin()).collect();
                let r = c.all_reduce(&v);
                let s = c.reduce_scatter(&r);
                c.all_gather(&s)
            })
        };
        let a = run(TransportKind::Local);
        let b = run(TransportKind::Local);
        // Bitwise identical, every rank, every run.
        for (x, y) in a.iter().zip(b.iter()) {
            assert_eq!(x, y);
        }
        for r in &a[1..] {
            assert_eq!(r, &a[0]);
        }
        // And the socket transport computes the exact same bits: the folds
        // run rank-side on both, the wire preserves bit patterns.
        let s = run(TransportKind::Socket);
        assert_eq!(a, s, "socket transport must be bit-identical to local");
    }

    #[test]
    fn mismatched_all_gather_lengths_panic() {
        // One shape check for both codecs, naming rank, part and lengths.
        for scheme in [None, Some(QuantScheme::int8())] {
            let err = std::panic::catch_unwind(|| {
                run_ranks(2, |c| c.try_all_gather(&vec![0.0; c.rank() + 1], scheme))
            })
            .expect_err("a shape mismatch must panic");
            let msg = panic_message(err.as_ref());
            assert!(msg.contains("rank thread panicked"), "{msg}");
            assert!(msg.contains("rank 1 deposited 1 parts with"), "{msg}");
            assert!(msg.contains("words in part 0; expected 1 parts with"), "{msg}");
        }
    }

    #[test]
    fn a_count_word_that_disagrees_with_len_hits_the_shape_check() {
        // 5 and 6 int8 elements encode to equally many words: only the
        // stream's count word tells them apart, and the shape check reads it.
        let scheme = QuantScheme::int8();
        assert_eq!(scheme.encoded_words(5), scheme.encoded_words(6));
        let err = std::panic::catch_unwind(|| {
            run_ranks(2, |c| c.try_all_gather(&vec![0.0; 5 + c.rank()], Some(scheme)))
        })
        .expect_err("a stream of the wrong length must panic");
        let msg = panic_message(err.as_ref());
        assert!(
            msg.contains(
                "rank 1 deposited 1 parts with 5 words in part 0; \
                 expected 1 parts with 5 words of 5 elements, got 6 elements"
            ),
            "{msg}"
        );
    }

    #[test]
    fn repeated_collectives_reuse_slots_safely() {
        for kind in BOTH {
            let out = run_ranks_on(kind, 4, |c| {
                let mut acc = 0.0;
                for round in 0..50 {
                    let v = vec![(c.rank() + round) as f32];
                    acc += c.all_reduce(&v)[0];
                }
                acc
            });
            // Each round sums to 4*round + 6.
            let expect: f32 = (0..50).map(|r| (4 * r + 6) as f32).sum();
            for r in out {
                assert_eq!(r, expect, "{kind}");
            }
        }
    }

    #[test]
    fn transport_kind_is_observable_on_the_handle() {
        for kind in BOTH {
            let seen = run_ranks_on(kind, 2, |mut c| {
                let sub = c.split(0, c.rank() as i64);
                (c.transport(), sub.transport())
            });
            for (world_kind, sub_kind) in seen {
                assert_eq!(world_kind, kind);
                assert_eq!(sub_kind, kind, "children inherit the transport");
            }
        }
    }

    // ---- failure semantics -------------------------------------------------

    #[test]
    fn killed_rank_aborts_every_surviving_collective() {
        // The acceptance-criteria scenario: rank 2 of 4 dies mid-collective;
        // every survivor's all_gather returns an abort within the configured
        // bound instead of hanging — on both transports.
        for kind in BOTH {
            with_deadline(Duration::from_secs(30), move || {
                let started = Instant::now();
                let results = try_run_ranks_on(kind, 4, |c| {
                    c.set_timeout(Duration::from_secs(5));
                    if c.rank() == 2 {
                        panic!("injected fault: rank 2 dies mid-collective");
                    }
                    c.try_all_gather(&[c.rank() as f32], None)
                });
                let elapsed = started.elapsed();
                assert!(
                    elapsed < Duration::from_secs(5),
                    "survivors must abort well before the rendezvous timeout, took {elapsed:?}"
                );
                for (rank, r) in results.iter().enumerate() {
                    match (rank, r) {
                        (2, Err(p)) => {
                            assert_eq!(p.rank, 2);
                            assert!(p.message.contains("injected fault"), "{}", p.message);
                        }
                        (2, Ok(_)) => panic!("rank 2 must be reported as panicked"),
                        (_, Ok(collective)) => {
                            assert_eq!(
                                collective,
                                &Err(CommError::RankFailed { rank: 2 }),
                                "survivor {rank} must observe the failure on {kind}"
                            );
                        }
                        (_, Err(p)) => panic!("survivor {rank} must not panic: {}", p.message),
                    }
                }
            });
        }
    }

    #[test]
    fn absent_rank_is_detected_by_timeout() {
        // A rank that silently walks away (no panic) is caught by the
        // rendezvous deadline instead of hanging the group — both
        // transports.
        for kind in BOTH {
            with_deadline(Duration::from_secs(30), move || {
                let results = try_run_ranks_on(kind, 3, |c| {
                    c.set_timeout(Duration::from_millis(200));
                    if c.rank() == 1 {
                        return Ok(Vec::new()); // never joins the collective
                    }
                    c.try_all_reduce(&[1.0], None)
                });
                for (rank, r) in results.into_iter().enumerate() {
                    let collective = r.expect("no thread panics in this scenario");
                    if rank == 1 {
                        assert_eq!(collective, Ok(Vec::new()));
                    } else {
                        assert!(
                            matches!(collective, Err(CommError::Timeout { .. })),
                            "rank {rank} must time out on {kind}, got {collective:?}"
                        );
                    }
                }
            });
        }
    }

    #[test]
    fn poisoned_group_fails_fast_afterwards() {
        for kind in BOTH {
            with_deadline(Duration::from_secs(30), move || {
                let results = try_run_ranks_on(kind, 2, |c| {
                    c.set_timeout(Duration::from_secs(5));
                    if c.rank() == 0 {
                        panic!("boom");
                    }
                    let first = c.try_all_gather(&[1.0], None);
                    // Once poisoned, later collectives fail immediately (no
                    // new timeout wait) with the same error.
                    let started = Instant::now();
                    let second = c.try_all_gather(&[2.0], None);
                    (first, second, started.elapsed())
                });
                let (first, second, elapsed) =
                    results[1].as_ref().expect("rank 1 must not panic").clone();
                assert_eq!(first, Err(CommError::RankFailed { rank: 0 }), "{kind}");
                assert_eq!(second, Err(CommError::RankFailed { rank: 0 }), "{kind}");
                assert!(elapsed < Duration::from_secs(1), "fail-fast, not a fresh wait");
            });
        }
    }

    #[test]
    fn failure_poisons_sub_communicators() {
        // A failure on the world group must unblock ranks waiting inside a
        // *sub*-communicator created by split — both transports.
        for kind in BOTH {
            with_deadline(Duration::from_secs(30), move || {
                let results = try_run_ranks_on(kind, 4, |mut c| {
                    c.set_timeout(Duration::from_secs(5));
                    let pair = c.split((c.rank() / 2) as i64, c.rank() as i64);
                    if c.rank() == 3 {
                        panic!("dies after split");
                    }
                    // Rank 2 is in the same pair as the casualty and would
                    // hang forever without poison propagation; ranks 0/1
                    // complete.
                    pair.try_all_gather(&[c.rank() as f32], None)
                });
                match &results[2] {
                    Ok(Err(CommError::RankFailed { rank: 3 })) => {}
                    other => {
                        panic!("rank 2 must observe rank 3's failure on {kind}, got {other:?}")
                    }
                }
            });
        }
    }

    #[test]
    fn remove_rank_rebuilds_a_working_group() {
        for kind in BOTH {
            with_deadline(Duration::from_secs(30), move || {
                let results = try_run_ranks_on(kind, 4, |mut c| {
                    c.set_timeout(Duration::from_secs(5));
                    if c.rank() == 1 {
                        panic!("casualty");
                    }
                    // Survivors: observe the failure, then shrink and
                    // continue.
                    let err = c.try_all_reduce(&[1.0], None).expect_err("must abort");
                    let failed = match err {
                        CommError::RankFailed { rank } => rank,
                        CommError::PeerDisconnected { rank } => rank,
                        other => panic!("expected a rank failure, got {other}"),
                    };
                    let shrunk = c.remove_rank(failed).expect("rebuild must succeed");
                    let gathered = shrunk
                        .try_all_gather(&[c.rank() as f32], None)
                        .expect("shrunk group works");
                    (shrunk.rank(), shrunk.world(), gathered)
                });
                for (rank, r) in results.into_iter().enumerate() {
                    if rank == 1 {
                        assert!(r.is_err());
                        continue;
                    }
                    let (new_rank, new_world, gathered) = r.expect("survivors must not panic");
                    assert_eq!(new_world, 3, "{kind}");
                    assert_eq!(new_rank, rank - usize::from(rank > 1), "{kind}");
                    // Old-world ranks 0, 2, 3 in order.
                    assert_eq!(gathered, vec![0.0, 2.0, 3.0], "{kind}");
                }
            });
        }
    }

    #[test]
    fn a_rebuild_racing_the_poison_walk_starts_fresh() {
        // `remove_rank_rebuilds_a_working_group`'s scenario, repeated until
        // a survivor has reacted inside the window between the poison
        // becoming visible and the walk over the descendants: the rebuilt
        // group must never inherit the failure it was rebuilt to escape.
        with_deadline(Duration::from_secs(60), || {
            for round in 0..300 {
                let results = try_run_ranks(4, |mut c| {
                    c.set_timeout(Duration::from_secs(5));
                    if c.rank() == 1 {
                        panic!("casualty");
                    }
                    let err = c.try_all_reduce(&[1.0], None).expect_err("must abort");
                    assert_eq!(err, CommError::RankFailed { rank: 1 });
                    c.remove_rank(1)?.try_all_gather(&[c.rank() as f32], None)
                });
                for (rank, r) in results.into_iter().enumerate().filter(|(rank, _)| *rank != 1) {
                    let gathered = r.expect("survivors must not panic");
                    assert_eq!(gathered, Ok(vec![0.0, 2.0, 3.0]), "round {round}, rank {rank}");
                }
            }
        });
    }

    #[test]
    fn a_split_born_after_the_poison_inherits_it_and_a_rebuild_does_not() {
        // The slow-rank window of `failure_poisons_sub_communicators`, forced:
        // the poison walk has already passed when the children are created.
        use transport::ChildKey::{Rebuild, Split};
        let err = CommError::RankFailed { rank: 1 };
        for kind in BOTH {
            let (split, rebuilt) = run_ranks_on(kind, 1, |c| {
                match &c.backend {
                    Backend::Local(inner) => inner.mark_failed(1),
                    Backend::Socket(group) => group.poison_tree(err),
                }
                let born = |key| c.backend.child(key, 1).failure();
                (born(Split { call: 0, color: 0 }), born(Rebuild { epoch: 0, removed: 1 }))
            })[0];
            assert_eq!((split, rebuilt), (Some(err), None), "{kind}");
        }
    }

    #[test]
    fn remove_rank_world_of_two_leaves_singleton() {
        for kind in BOTH {
            with_deadline(Duration::from_secs(30), move || {
                let results = try_run_ranks_on(kind, 2, |mut c| {
                    c.set_timeout(Duration::from_millis(500));
                    if c.rank() == 0 {
                        panic!("casualty");
                    }
                    let _ = c.try_all_reduce(&[1.0], None).expect_err("must abort");
                    let solo = c.remove_rank(0).expect("rebuild to singleton");
                    solo.try_all_gather(&[7.0], None).expect("singleton collective is local")
                });
                assert_eq!(results[1].as_ref().expect("survivor ok"), &vec![7.0], "{kind}");
            });
        }
    }

    #[test]
    fn run_ranks_reports_rank_id_and_payload() {
        let err = std::panic::catch_unwind(|| {
            run_ranks(3, |c| {
                if c.rank() == 1 {
                    panic!("specific payload {}", 41 + 1);
                }
                c.try_barrier()
            })
        })
        .expect_err("harness must propagate the panic");
        let msg = panic_message(err.as_ref());
        assert!(msg.contains("rank 1"), "{msg}");
        assert!(msg.contains("specific payload 42"), "{msg}");
    }

    #[test]
    fn with_deadline_passes_results_and_panics_through() {
        assert_eq!(with_deadline(Duration::from_secs(5), || 7usize), 7);
        let err = std::panic::catch_unwind(|| {
            with_deadline(Duration::from_secs(5), || panic!("inner failure"))
        })
        .expect_err("panic must propagate");
        assert_eq!(panic_message(err.as_ref()), "inner failure");
    }

    #[test]
    fn with_deadline_trips_on_hang() {
        let err = std::panic::catch_unwind(|| {
            with_deadline(Duration::from_millis(100), || {
                std::thread::sleep(Duration::from_secs(600));
            })
        })
        .expect_err("deadline must trip");
        assert!(panic_message(err.as_ref()).contains("deadline"), "wrong panic");
    }

    // ---- socket-transport specifics ---------------------------------------

    #[test]
    fn socket_transport_works_over_unix_domain_sockets() {
        with_deadline(Duration::from_secs(30), || {
            let path = std::env::temp_dir().join(format!("mics-hub-{}.sock", std::process::id()));
            let addr = format!("unix:{}", path.display());
            let hub = Hub::spawn(&addr).expect("bind unix hub");
            let world = 3;
            let out = std::thread::scope(|scope| {
                let handles: Vec<_> = (0..world)
                    .map(|rank| {
                        let addr = hub.addr().to_string();
                        scope.spawn(move || {
                            let comm = connect_world(SocketWorldConfig::new(addr, rank, world))
                                .expect("connect over unix socket");
                            comm.all_gather(&[rank as f32])
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().unwrap()).collect::<Vec<_>>()
            });
            for r in &out {
                assert_eq!(r, &[0.0, 1.0, 2.0]);
            }
        });
    }

    #[test]
    fn connect_retries_until_the_hub_appears() {
        // The worker starts before its hub: the retry policy must carry it
        // over the gap instead of failing on the first refused connection.
        with_deadline(Duration::from_secs(30), || {
            // Reserve an address, then free it so the first attempts fail.
            let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            let addr = listener.local_addr().unwrap().to_string();
            drop(listener);
            let addr2 = addr.clone();
            let worker = std::thread::spawn(move || {
                let mut cfg = SocketWorldConfig::new(addr2, 0, 1);
                cfg.retry = RetryPolicy {
                    max_attempts: 100,
                    initial_backoff: Duration::from_millis(5),
                    multiplier: 1.2,
                    max_backoff: Duration::from_millis(50),
                };
                let comm = connect_world(cfg).expect("retry must bridge the startup gap");
                comm.all_gather(&[42.0])
            });
            std::thread::sleep(Duration::from_millis(300));
            let _hub = Hub::spawn(&addr).expect("bind the reserved address");
            assert_eq!(worker.join().unwrap(), vec![42.0]);
        });
    }

    #[test]
    fn connect_gives_up_after_bounded_retries() {
        // Nothing ever listens here: the policy must give up with Io, not
        // spin forever.
        let mut cfg = SocketWorldConfig::new("127.0.0.1:9", 0, 2); // discard port
        cfg.retry = RetryPolicy {
            max_attempts: 3,
            initial_backoff: Duration::from_millis(1),
            multiplier: 1.0,
            max_backoff: Duration::from_millis(1),
        };
        match connect_world(cfg) {
            Err(CommError::Io { .. }) => {}
            other => panic!("expected Io after bounded retries, got {other:?}"),
        }
    }

    #[test]
    fn silent_peer_is_expired_by_hub_heartbeat() {
        // A peer that connects and then wedges (alive, but never answers a
        // ping) is expired by the hub's heartbeat grace; the healthy rank's
        // collective aborts with PeerDisconnected well before its own
        // (much longer) rendezvous deadline.
        with_deadline(Duration::from_secs(30), || {
            let hub =
                Hub::spawn_with_grace("127.0.0.1:0", Duration::from_millis(400)).expect("bind hub");
            let addr = hub.addr().to_string();
            // The wedged peer: says hello, then goes silent.
            let mut wedged = transport::wire::Stream::connect(&addr).expect("connect raw");
            transport::socket::write_frame(
                &mut wedged,
                &transport::socket::Frame::Hello { rank: 1, world: 2 },
            )
            .expect("hello");
            let comm = connect_world(SocketWorldConfig::new(addr, 0, 2)).expect("connect rank 0");
            comm.set_timeout(Duration::from_secs(20));
            let started = Instant::now();
            let got = comm.try_all_gather(&[0.0], None);
            let elapsed = started.elapsed();
            assert_eq!(got, Err(CommError::PeerDisconnected { rank: 1 }));
            assert!(
                elapsed < Duration::from_secs(5),
                "heartbeat must beat the 20s logical deadline, took {elapsed:?}"
            );
            drop(wedged);
        });
    }

    #[test]
    fn a_connection_that_never_says_hello_is_closed_within_the_grace() {
        // A connection that never identifies itself holds no rank, so no
        // poison and no `Hub::shutdown` reaches it: the grace must.
        with_deadline(Duration::from_secs(30), || {
            let grace = Duration::from_millis(200);
            let hub = Hub::spawn_with_grace("127.0.0.1:0", grace).expect("bind hub");
            let mut mute = std::net::TcpStream::connect(hub.addr()).expect("connect raw");
            mute.set_read_timeout(Some(Duration::from_secs(10))).expect("read timeout");
            let started = Instant::now();
            let got = std::io::Read::read(&mut mute, &mut [0u8; 1]);
            let elapsed = started.elapsed();
            assert!(matches!(got, Ok(0)), "the hub must close the connection, got {got:?}");
            assert!(elapsed < Duration::from_secs(5), "closed after {elapsed:?}, grace {grace:?}");
        });
    }

    #[test]
    fn clean_goodbye_does_not_poison_survivors() {
        // A rank that disconnects *cleanly* (dropping the handle sends a
        // goodbye) must not trip the teardown detector on its peers.
        with_deadline(Duration::from_secs(30), || {
            let (hub, comms) = transport::socket::create_socket_world(2);
            let mut it = comms.into_iter();
            let c0 = it.next().unwrap();
            let c1 = it.next().unwrap();
            let t = std::thread::spawn(move || c1.all_gather(&[1.0]));
            assert_eq!(c0.all_gather(&[0.0]), vec![0.0, 1.0]);
            t.join().unwrap(); // c1 dropped at thread end → clean goodbye
            std::thread::sleep(Duration::from_millis(300));
            assert!(c0.failure().is_none(), "clean goodbye must not poison");
            drop(hub);
        });
    }
}

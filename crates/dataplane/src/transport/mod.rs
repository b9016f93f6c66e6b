//! Transport layer: where a communicator group's rendezvous actually runs.
//!
//! The [`crate::Communicator`] API is transport-agnostic. Every collective
//! lowers to one primitive — a **sequenced exchange** in which each member
//! deposits *addressed pieces* of `f32` buffers (one piece for all other
//! members, or one per other member) and receives, from every other member
//! in member order, only the piece addressed to it; its own contribution
//! never crosses the transport — plus a barrier and group creation (split /
//! shrink). Two implementations stand behind that contract:
//!
//! * `local` — the original shared-memory rendezvous: ranks are threads of
//!   one process, deposits go through in-process slots, and failure
//!   detection is a poisoned sense-reversing barrier.
//! * [`socket`] — a multi-process dataplane: every rank owns one framed
//!   connection to a [`hub::Hub`] switchboard, payloads are serialized on a
//!   real wire (quantized collectives transport `mics-compress` encoded
//!   blocks verbatim), and failure detection adds two *physical* paths on
//!   top of the logical timeout: connection teardown (a SIGKILLed rank's
//!   socket closes) and per-connection heartbeats (a wedged peer stops
//!   ponging).
//!
//! Both transports feed the same poison/abort state, so
//! `CommError`-surfacing, `remove_rank` shrink/rebuild, and the
//! non-blocking engine work unchanged over either.
//!
//! Under the socket transport — and under the planner service, which has
//! no socket code of its own — sits [`wire`]: streams and listeners over
//! TCP or Unix-domain addresses, and length-prefixed frames whose payload
//! is opaque to everything but its consumer. [`socket`] owns the rank↔hub
//! `Frame` codec laid over those payloads; the hub validates a deposit's
//! addressing and forwards each piece's bytes without decoding them.

use crate::CommError;
use std::sync::Arc;
use std::time::Duration;

pub mod hub;
pub(crate) mod local;
pub mod socket;
pub mod wire;

pub use hub::Hub;
pub use socket::{connect_world, socket_counters, SocketWorldConfig, DATAPLANE_PROCESS};

/// Which transport a rank harness runs its communicator groups on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TransportKind {
    /// Shared-memory rendezvous between threads of one process.
    Local,
    /// Length-prefixed socket framing through a [`Hub`] switchboard — the
    /// transport that gives each rank a real failure domain.
    Socket,
}

impl std::fmt::Display for TransportKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransportKind::Local => write!(f, "local"),
            TransportKind::Socket => write!(f, "socket"),
        }
    }
}

impl std::str::FromStr for TransportKind {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "local" => Ok(TransportKind::Local),
            "socket" => Ok(TransportKind::Socket),
            other => Err(format!("unknown transport '{other}' (expected local or socket)")),
        }
    }
}

/// Bounded retry with exponential backoff — the connection-setup policy of
/// the socket transport (a worker often starts before its hub finishes
/// binding, and public-cloud rendezvous addresses flap).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Total attempts before giving up (≥ 1).
    pub max_attempts: u32,
    /// Backoff slept after the first failed attempt.
    pub initial_backoff: Duration,
    /// Multiplier applied to the backoff after every further failure.
    pub multiplier: f64,
    /// Upper bound on any single backoff.
    pub max_backoff: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 25,
            initial_backoff: Duration::from_millis(10),
            multiplier: 1.6,
            max_backoff: Duration::from_millis(500),
        }
    }
}

impl RetryPolicy {
    /// The backoff slept after failed attempt `attempt` (0-based): the
    /// exponential `initial · multiplierᵃ`, capped at `max_backoff`.
    pub fn backoff(&self, attempt: u32) -> Duration {
        let grown = self.initial_backoff.as_secs_f64() * self.multiplier.powi(attempt as i32);
        self.initial_backoff.max(Duration::from_secs_f64(grown)).min(self.max_backoff)
    }

    /// Worst-case total time spent sleeping across all attempts.
    pub fn total_backoff(&self) -> Duration {
        (0..self.max_attempts.saturating_sub(1)).map(|a| self.backoff(a)).sum()
    }

    /// Run `op` until it succeeds or the attempt budget is exhausted,
    /// sleeping the exponential backoff between attempts. Returns the last
    /// error when every attempt fails.
    pub fn run<T, E>(&self, mut op: impl FnMut() -> Result<T, E>) -> Result<T, E> {
        assert!(self.max_attempts >= 1, "a retry policy must allow at least one attempt");
        let mut attempt = 0;
        loop {
            match op() {
                Ok(v) => return Ok(v),
                Err(e) if attempt + 1 >= self.max_attempts => return Err(e),
                Err(_) => {
                    std::thread::sleep(self.backoff(attempt));
                    attempt += 1;
                }
            }
        }
    }
}

/// Identity of a sub-group derived from a parent group. Both transports use
/// it to agree — without any extra coordination — on *which* child group a
/// collective `split`/`remove_rank` call refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum ChildKey {
    /// `split` call number `call` (per parent), color class `color`.
    Split {
        /// Index of the `split` call on the parent (SPMD-mirrored).
        call: u64,
        /// The color this rank passed.
        color: i64,
    },
    /// `remove_rank` call number `epoch` (per parent), removing `removed`.
    Rebuild {
        /// Index of the `remove_rank` call on the parent (SPMD-mirrored).
        epoch: u64,
        /// The rank being removed.
        removed: usize,
    },
}

/// The buffers of one piece: the `parts` of a coalesced collective
/// (single-buffer collectives use one part).
pub(crate) type Parts = Vec<Vec<f32>>;

/// A piece's parts as a member hands them to an exchange: borrowed from the
/// caller, or already owned — encoded words, which the member itself still
/// reads after the exchange, so they are shared rather than given away.
#[derive(Debug, Clone)]
pub(crate) enum Deposit<'a> {
    /// The caller's slices: a local deposit copies them once.
    Borrowed(Vec<&'a [f32]>),
    /// Owned buffers: a local deposit takes them without a copy.
    Owned(Arc<Parts>),
}

impl Deposit<'_> {
    /// The parts, as slices.
    pub(crate) fn slices(&self) -> Vec<&[f32]> {
        match self {
            Deposit::Borrowed(parts) => parts.clone(),
            Deposit::Owned(parts) => parts.iter().map(Vec::as_slice).collect(),
        }
    }

    /// The parts as one shared deposit: owned parts move in, borrowed ones
    /// are copied.
    pub(crate) fn into_shared(self) -> Arc<Parts> {
        match self {
            Deposit::Borrowed(parts) => Arc::new(parts.iter().map(|s| s.to_vec()).collect()),
            Deposit::Owned(parts) => parts,
        }
    }
}

/// Who a deposited piece is for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Dest {
    /// Every member but the depositor.
    Others,
    /// One other member, by member index.
    Member(usize),
}

/// One addressed piece of a member's deposit; `T` is its parts as the
/// holder keeps them (borrowed slices to send, owned buffers, a shared
/// deposit, or a byte range of a held frame).
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Piece<T> {
    pub(crate) dest: Dest,
    pub(crate) parts: T,
}

/// The piece of member `from`'s deposit addressed to member `to`. A
/// well-formed deposit is one [`Dest::Others`] piece, or one
/// [`Dest::Member`] piece for every member but `from`, in member order.
pub(crate) fn addressed<T>(pieces: &[Piece<T>], from: usize, to: usize) -> &T {
    match pieces {
        [Piece { dest: Dest::Others, parts }] => parts,
        each => &each[peer_slot(from, to)].parts,
    }
}

/// Where member `peer` sits among the members other than `me`, in member
/// order: the index of `me`'s piece for `peer`, and of `peer`'s entry in
/// what an exchange returns to `me`.
pub(crate) fn peer_slot(me: usize, peer: usize) -> usize {
    peer - usize::from(peer > me)
}

/// The transport backing one communicator group, from one rank's side.
#[derive(Debug, Clone)]
pub(crate) enum Backend {
    /// Shared-memory rendezvous state.
    Local(Arc<local::Inner>),
    /// A group multiplexed over this rank's hub connection.
    Socket(Arc<socket::SocketGroup>),
}

impl Backend {
    pub(crate) fn world(&self) -> usize {
        match self {
            Backend::Local(i) => i.world(),
            Backend::Socket(g) => g.world(),
        }
    }

    pub(crate) fn timeout(&self) -> Duration {
        match self {
            Backend::Local(i) => i.timeout(),
            Backend::Socket(g) => g.timeout(),
        }
    }

    pub(crate) fn set_timeout(&self, timeout: Duration) {
        match self {
            Backend::Local(i) => i.set_timeout(timeout),
            Backend::Socket(g) => g.set_timeout(timeout),
        }
    }

    pub(crate) fn failure(&self) -> Option<CommError> {
        match self {
            Backend::Local(i) => i.failure(),
            Backend::Socket(g) => g.failure(),
        }
    }

    pub(crate) fn mark_failed(&self, rank: usize) {
        match self {
            Backend::Local(i) => i.mark_failed(rank),
            Backend::Socket(g) => g.mark_failed(rank),
        }
    }

    /// Block until every member of the group arrives (or the group fails).
    pub(crate) fn barrier(&self, rank: usize) -> Result<(), CommError> {
        match self {
            Backend::Local(i) => i.barrier(),
            // One exchange of an empty piece: the hub releases it exactly
            // when all members' frames arrived — a rendezvous on the wire.
            Backend::Socket(g) => {
                let empty = Piece { dest: Dest::Others, parts: Deposit::Borrowed(Vec::new()) };
                g.exchange(rank, vec![empty]).map(|_| ())
            }
        }
    }

    /// The sequenced exchange every collective lowers to: deposit `pieces`
    /// (see [`addressed`] for their shape), receive from each other member,
    /// in member order, the parts it addressed to `rank` — `world − 1`
    /// entries, nothing of this member's own. They are shared, not owned:
    /// on the local transport the depositor and its receivers hold one copy.
    pub(crate) fn exchange(
        &self,
        rank: usize,
        pieces: Vec<Piece<Deposit<'_>>>,
    ) -> Result<Vec<Arc<Parts>>, CommError> {
        match self {
            Backend::Local(i) => i.exchange(rank, pieces),
            Backend::Socket(g) => g.exchange(rank, pieces),
        }
    }

    /// Create (or fetch) the child group `key` with `world` members; the
    /// caller joins as member `rank`. Creation itself is local — the first
    /// collective on the child is its first rendezvous.
    pub(crate) fn child(&self, key: ChildKey, world: usize) -> Backend {
        match self {
            Backend::Local(i) => Backend::Local(i.child(key, world)),
            Backend::Socket(g) => Backend::Socket(g.child(key, world)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_grows_exponentially_and_caps() {
        let p = RetryPolicy {
            max_attempts: 10,
            initial_backoff: Duration::from_millis(10),
            multiplier: 2.0,
            max_backoff: Duration::from_millis(60),
        };
        assert_eq!(p.backoff(0), Duration::from_millis(10));
        assert_eq!(p.backoff(1), Duration::from_millis(20));
        assert_eq!(p.backoff(2), Duration::from_millis(40));
        assert_eq!(p.backoff(3), Duration::from_millis(60), "capped");
        assert_eq!(p.backoff(8), Duration::from_millis(60), "stays capped");
    }

    #[test]
    fn run_retries_until_success_within_budget() {
        let p = RetryPolicy {
            max_attempts: 5,
            initial_backoff: Duration::from_micros(50),
            multiplier: 1.5,
            max_backoff: Duration::from_micros(200),
        };
        let mut calls = 0;
        let out = p.run(|| {
            calls += 1;
            if calls < 3 {
                Err("not yet")
            } else {
                Ok(calls)
            }
        });
        assert_eq!(out, Ok(3));
    }

    #[test]
    fn run_gives_up_after_max_attempts_with_last_error() {
        let p = RetryPolicy {
            max_attempts: 4,
            initial_backoff: Duration::from_micros(10),
            multiplier: 1.0,
            max_backoff: Duration::from_micros(10),
        };
        let mut calls = 0;
        let out: Result<(), String> = p.run(|| {
            calls += 1;
            Err(format!("attempt {calls}"))
        });
        assert_eq!(calls, 4, "bounded: exactly max_attempts tries");
        assert_eq!(out, Err("attempt 4".to_string()));
    }

    #[test]
    fn total_backoff_is_bounded() {
        let p = RetryPolicy::default();
        assert!(p.total_backoff() < Duration::from_secs(15), "{:?}", p.total_backoff());
    }

    #[test]
    fn transport_kind_round_trips_through_strings() {
        for kind in [TransportKind::Local, TransportKind::Socket] {
            assert_eq!(kind.to_string().parse::<TransportKind>(), Ok(kind));
        }
        assert!("carrier-pigeon".parse::<TransportKind>().is_err());
    }
}

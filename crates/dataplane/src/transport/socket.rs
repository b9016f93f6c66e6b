//! The socket transport: each rank owns one framed connection (TCP or
//! Unix-domain) to a [`super::hub::Hub`] switchboard, and every collective
//! lowers to a sequenced exchange *on the wire*.
//!
//! # Wire model
//!
//! All traffic is [`super::wire`] frames whose payload is a `Frame`: a tag
//! byte, then the fields. Payload buffers travel as raw `f32` bit patterns,
//! so streams that are really encoded blocks — the `mics-compress` wire
//! format the quantized collectives gather — cross the socket bit-exactly,
//! exactly as they cross the shared-memory transport. This module is the
//! only place those bytes become floats: a rank encodes its pieces straight
//! from the caller's slices and decodes a `Reply` into the parts the fold
//! consumes; the hub in between moves each piece as the byte range
//! `exchange_header` validated.
//!
//! A collective exchange is: every member sends `Exchange { group, seq, … }`
//! carrying its addressed pieces — one for all other members, or one per
//! other member in member order. The hub holds them until all `world`
//! members of that `(group, seq)` arrived, then answers each member with
//! the piece every *other* member addressed to it, in member order: a
//! member never receives its own contribution, and an exact reduce-scatter
//! member receives only the slices it folds. All reduction arithmetic stays
//! rank-side (above the transport), which is what keeps results
//! bit-identical between transports.
//!
//! # Failure domains
//!
//! This transport is what gives a rank a *real* failure domain. Three
//! detection paths feed the same poison state the local transport uses:
//!
//! * **Teardown** — a SIGKILLed rank's socket closes; the hub sees EOF
//!   without a `Bye` and broadcasts `WorldPoison(PeerDisconnected)`.
//! * **Heartbeat** — a wedged peer (alive but silent past the grace) is
//!   treated as gone, in both directions, by the reader threads that exist
//!   anyway: each reads under a timeout. The hub's per-connection writer
//!   pings a rank after [`HEARTBEAT_INTERVAL`] (100 ms) with nothing
//!   queued, and the rank's reader answers `Pong`. A rank silent past the
//!   hub's grace is expired by the hub; a rank whose hub sends nothing for
//!   [`DEFAULT_HEARTBEAT_GRACE`] fails itself with [`CommError::Io`]
//!   (`TimedOut`).
//! * **Deadline** — the logical timeout of the local transport, unchanged:
//!   a member whose exchange outwaits [`crate::Communicator::set_timeout`]
//!   aborts the group at the hub, which wakes every other waiter with the
//!   same `Timeout` error.
//!
//! Connection setup runs under a bounded [`super::RetryPolicy`] so workers
//! may start before their hub finishes binding. Backpressure is physical:
//! a sender is bounded by the kernel socket buffer plus the hub's bounded
//! per-connection send queue.

use super::hub::Hub;
use super::wire::{self, Stream};
use super::{Backend, ChildKey, Deposit, Dest, Parts, Piece, RetryPolicy, TransportKind};
use crate::{lock, CommError, Communicator, DEFAULT_TIMEOUT};
use mics_trace::Arg;
use std::collections::HashMap;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, RecvTimeoutError, SyncSender};
use std::sync::{Arc, Mutex, OnceLock, Weak};
use std::time::Duration;

/// Process name every socket-transport trace event records under.
pub const DATAPLANE_PROCESS: &str = "dataplane";

/// The process-wide registry of socket-transport counters: per-rank
/// cumulative wire bytes (`socket.rank{N}.tx_bytes` / `.rx_bytes`) and the
/// in-flight exchange depth gauge (`socket.rank{N}.pending`). Counters are
/// always maintained (one atomic op per frame); trace *events* for them are
/// only recorded while [`mics_trace::global`] is enabled.
pub fn socket_counters() -> &'static mics_trace::Counters {
    static COUNTERS: OnceLock<mics_trace::Counters> = OnceLock::new();
    COUNTERS.get_or_init(mics_trace::Counters::new)
}

/// Group id of the world communicator; sub-group ids are derived hashes.
pub(crate) const WORLD_GROUP: u64 = 0;

/// Upper bound on a single frame's payload — a corrupted length prefix must
/// fail the connection, not attempt a giant allocation.
pub(crate) const MAX_FRAME: usize = 1 << 28;

/// How long a hub connection's writer waits with nothing queued before it
/// pings the rank (a 5-byte frame, answered by a 5-byte pong) — once
/// connected, an idle rank's only traffic.
pub const HEARTBEAT_INTERVAL: Duration = Duration::from_millis(100);

/// How long a rank's reader waits for a frame from its hub before declaring
/// the connection dead (rank side of the heartbeat path).
pub const DEFAULT_HEARTBEAT_GRACE: Duration = Duration::from_secs(10);

// ---- frame codec -----------------------------------------------------------

/// Everything that crosses a rank↔hub connection.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Frame {
    /// First frame of a connection: this rank's world identity.
    Hello {
        /// World rank of the connecting process.
        rank: u64,
        /// Expected world size.
        world: u64,
    },
    /// One member's half of a sequenced exchange.
    Exchange {
        /// Group id (world = [`WORLD_GROUP`], children are derived hashes).
        group: u64,
        /// Per-group collective sequence number (SPMD-mirrored).
        seq: u64,
        /// Member count of the group — how many halves complete the call.
        world: u64,
        /// This rank's member index within the group.
        member: u64,
        /// The deposit: one all-others piece, or one piece per other
        /// member in member order.
        pieces: Vec<Piece<Parts>>,
    },
    /// A member gave up on a group (deadline expired): poison it hub-wide.
    Abort {
        /// Poisoned group id.
        group: u64,
        /// The error every other waiter should observe.
        err: CommError,
    },
    /// Explicit failure report (panicking rank): poison the whole world.
    Failed {
        /// World rank of the failed process.
        rank: u64,
    },
    /// Hub → rank: liveness probe, after [`HEARTBEAT_INTERVAL`] with
    /// nothing else to send.
    Ping,
    /// Rank → hub: the answer to a `Ping`.
    Pong,
    /// Clean goodbye: the peer is leaving on purpose, do not poison.
    Bye,
    /// Hub → rank: the completed exchange — from every other member, in
    /// member order, the parts of the piece it addressed to this rank.
    Reply {
        /// Group id the exchange ran on.
        group: u64,
        /// Sequence number being answered.
        seq: u64,
        /// `world − 1` entries: the receiver's own deposit is not among
        /// them.
        all: Vec<Parts>,
    },
    /// Hub → rank: one group is poisoned (member abort).
    GroupPoison {
        /// Poisoned group id.
        group: u64,
        /// The originating error.
        err: CommError,
    },
    /// Hub → rank: a process-level failure; every existing group is
    /// poisoned (groups created afterwards — rebuilds — start fresh).
    WorldPoison {
        /// The originating error.
        err: CommError,
    },
}

/// io::ErrorKind values with a stable wire code (index); anything else
/// decodes as `Other`.
const WIRE_KINDS: &[std::io::ErrorKind] = &[
    std::io::ErrorKind::NotFound,
    std::io::ErrorKind::PermissionDenied,
    std::io::ErrorKind::ConnectionRefused,
    std::io::ErrorKind::ConnectionReset,
    std::io::ErrorKind::ConnectionAborted,
    std::io::ErrorKind::NotConnected,
    std::io::ErrorKind::AddrInUse,
    std::io::ErrorKind::AddrNotAvailable,
    std::io::ErrorKind::BrokenPipe,
    std::io::ErrorKind::InvalidInput,
    std::io::ErrorKind::InvalidData,
    std::io::ErrorKind::TimedOut,
    std::io::ErrorKind::WriteZero,
    std::io::ErrorKind::Interrupted,
    std::io::ErrorKind::UnexpectedEof,
    std::io::ErrorKind::Other,
];

fn err_to_wire(e: CommError) -> (u8, u64) {
    match e {
        CommError::RankFailed { rank } => (0, rank as u64),
        CommError::Timeout { waited } => (1, waited.as_nanos() as u64),
        CommError::Io { kind } => {
            let idx = WIRE_KINDS.iter().position(|&k| k == kind).unwrap_or(WIRE_KINDS.len() - 1);
            (2, idx as u64)
        }
        CommError::PeerDisconnected { rank } => (3, rank as u64),
    }
}

fn err_from_wire(code: u8, arg: u64) -> std::io::Result<CommError> {
    Ok(match code {
        0 => CommError::RankFailed { rank: arg as usize },
        1 => CommError::Timeout { waited: Duration::from_nanos(arg) },
        2 => CommError::Io {
            kind: WIRE_KINDS.get(arg as usize).copied().unwrap_or(std::io::ErrorKind::Other),
        },
        3 => CommError::PeerDisconnected { rank: arg as usize },
        other => return Err(bad_wire(format!("unknown error code {other}"))),
    })
}

fn bad_wire(msg: String) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, msg)
}

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// A part count, then each part: its length, then its `f32` bit patterns —
/// written in bulk, the buffer grown once per part.
fn put_parts<P: AsRef<[f32]>>(buf: &mut Vec<u8>, parts: &[P]) {
    put_u32(buf, parts.len() as u32);
    for p in parts {
        let p = p.as_ref();
        put_u32(buf, p.len() as u32);
        let at = buf.len();
        buf.resize(at + 4 * p.len(), 0);
        for (bytes, x) in buf[at..].chunks_exact_mut(4).zip(p) {
            bytes.copy_from_slice(&x.to_bits().to_le_bytes());
        }
    }
}

fn put_err(buf: &mut Vec<u8>, err: CommError) {
    let (code, arg) = err_to_wire(err);
    buf.push(code);
    put_u64(buf, arg);
}

const TAG_EXCHANGE: u8 = 2;
const TAG_REPLY: u8 = 10;

/// The destination code of a [`Dest::Others`] piece; any other code is a
/// member index.
const TO_OTHERS: u32 = u32::MAX;

/// Bytes of an `Exchange` payload before its pieces: the tag and four `u64`s.
pub(crate) const EXCHANGE_HEADER: usize = 33;

/// Bytes of a `Reply` payload before its parts: the tag, two `u64`s and the
/// entry count.
pub(crate) const REPLY_HEADER: usize = 21;

/// The fixed fields of an `Exchange`.
pub(crate) struct ExchangeHeader {
    pub(crate) group: u64,
    pub(crate) seq: u64,
    pub(crate) world: u64,
    pub(crate) member: u64,
}

/// Where each piece of a validated `Exchange` lies in its payload: the byte
/// range of its parts (part count, then the parts) — exactly the bytes a
/// `Reply` carries for that piece.
pub(crate) type Routes = Vec<Piece<Range<usize>>>;

/// Encode one member's half of an exchange straight from the caller's
/// slices, into an exactly reserved buffer. A piece is its destination
/// code, then its parts.
pub(crate) fn encode_exchange<P: AsRef<[f32]>>(
    h: ExchangeHeader,
    pieces: &[Piece<Vec<P>>],
) -> Vec<u8> {
    let words: usize = pieces
        .iter()
        .map(|p| 2 + p.parts.iter().map(|x| 1 + x.as_ref().len()).sum::<usize>())
        .sum();
    let mut b = Vec::with_capacity(EXCHANGE_HEADER + 4 * (1 + words));
    b.push(TAG_EXCHANGE);
    for field in [h.group, h.seq, h.world, h.member] {
        put_u64(&mut b, field);
    }
    put_u32(&mut b, pieces.len() as u32);
    for p in pieces {
        put_u32(&mut b, if let Dest::Member(m) = p.dest { m as u32 } else { TO_OTHERS });
        put_parts(&mut b, &p.parts);
    }
    b
}

/// A `Reply` up to its parts. The hub sends it followed by borrowed byte
/// ranges of the pieces it holds, which *are* a reply's entries: it
/// decodes and copies nothing.
pub(crate) fn reply_header(group: u64, seq: u64, entries: usize) -> Vec<u8> {
    let mut b = Vec::with_capacity(REPLY_HEADER);
    b.push(TAG_REPLY);
    put_u64(&mut b, group);
    put_u64(&mut b, seq);
    put_u32(&mut b, entries as u32);
    b
}

/// Encode `frame` as one wire payload.
pub(crate) fn encode_frame(frame: &Frame) -> Vec<u8> {
    let mut b = Vec::new();
    match frame {
        Frame::Hello { rank, world } => {
            b.push(1);
            put_u64(&mut b, *rank);
            put_u64(&mut b, *world);
        }
        &Frame::Exchange { group, seq, world, member, ref pieces } => {
            return encode_exchange(ExchangeHeader { group, seq, world, member }, pieces);
        }
        Frame::Abort { group, err } => {
            b.push(3);
            put_u64(&mut b, *group);
            put_err(&mut b, *err);
        }
        Frame::Failed { rank } => {
            b.push(4);
            put_u64(&mut b, *rank);
        }
        Frame::Ping => b.push(5),
        Frame::Pong => b.push(6),
        Frame::Bye => b.push(7),
        Frame::Reply { group, seq, all } => {
            b = reply_header(*group, *seq, all.len());
            for parts in all {
                put_parts(&mut b, parts);
            }
        }
        Frame::GroupPoison { group, err } => {
            b.push(11);
            put_u64(&mut b, *group);
            put_err(&mut b, *err);
        }
        Frame::WorldPoison { err } => {
            b.push(12);
            put_err(&mut b, *err);
        }
    }
    b
}

struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> std::io::Result<&'a [u8]> {
        if n > self.buf.len() - self.pos {
            return Err(bad_wire("truncated frame".into()));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }
    fn u8(&mut self) -> std::io::Result<u8> {
        Ok(self.take(1)?[0])
    }
    fn u32(&mut self) -> std::io::Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }
    fn u64(&mut self) -> std::io::Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
    /// One part of a batch as raw bytes: its length field, then that many
    /// `f32` bit patterns. The one place a part's length is checked — the
    /// decoder and the hub's validator both walk a batch through it.
    fn part(&mut self) -> std::io::Result<&'a [u8]> {
        let len = self.u32()? as usize;
        self.take(len.checked_mul(4).ok_or_else(|| bad_wire("overflow".into()))?)
    }
    fn parts(&mut self) -> std::io::Result<Parts> {
        let nparts = self.u32()? as usize;
        let mut parts = Vec::with_capacity(nparts.min(1 << 16));
        for _ in 0..nparts {
            let raw = self.part()?;
            parts.push(
                raw.chunks_exact(4)
                    .map(|c| f32::from_bits(u32::from_le_bytes(c.try_into().unwrap())))
                    .collect(),
            );
        }
        Ok(parts)
    }
    fn err(&mut self) -> std::io::Result<CommError> {
        let code = self.u8()?;
        let arg = self.u64()?;
        err_from_wire(code, arg)
    }
    fn end(&self) -> std::io::Result<()> {
        if self.pos != self.buf.len() {
            return Err(bad_wire("trailing bytes in frame".into()));
        }
        Ok(())
    }
}

/// The hub's view of an inbound payload: `None` if it is not an `Exchange`;
/// otherwise its header and [`Routes`], once the pieces after it have been
/// validated by walking their length fields — piece count, each part count
/// and part length, exact end — and their addressing: the sender is a
/// member, and its pieces are one for all others, or one for each other
/// member in member order (so none is out of range, addressed to the
/// sender, duplicated or missing). Each routed range can then be forwarded
/// verbatim; no float is materialised. The rank's decoder reads an
/// `Exchange` through this same walk.
pub(crate) fn exchange_header(payload: &[u8]) -> std::io::Result<Option<(ExchangeHeader, Routes)>> {
    if payload.first() != Some(&TAG_EXCHANGE) {
        return Ok(None);
    }
    let mut c = Cursor { buf: payload, pos: 1 };
    let h = ExchangeHeader { group: c.u64()?, seq: c.u64()?, world: c.u64()?, member: c.u64()? };
    if h.member >= h.world {
        return Err(bad_wire(format!("member {} of a group of {}", h.member, h.world)));
    }
    let count = c.u32()?;
    let mut routes = Routes::new();
    for k in 0..u64::from(count) {
        // The k-th other member, skipping the sender.
        let next = k + u64::from(k >= h.member);
        let dest = match c.u32()? {
            TO_OTHERS if count == 1 => Dest::Others,
            to if to != TO_OTHERS && u64::from(to) == next => Dest::Member(to as usize),
            to => {
                let to = if to == TO_OTHERS { "all others".into() } else { format!("member {to}") };
                return Err(bad_wire(format!(
                    "member {} addressed piece {k} of {count} to {to}; expected member {next}",
                    h.member
                )));
            }
        };
        let start = c.pos;
        for _ in 0..c.u32()? {
            c.part()?;
        }
        routes.push(Piece { dest, parts: start..c.pos });
    }
    let all_others = matches!(routes.as_slice(), [Piece { dest: Dest::Others, .. }]);
    if !all_others && routes.len() as u64 + 1 != h.world {
        return Err(bad_wire(format!(
            "member {} of {} addressed {} pieces",
            h.member,
            h.world,
            routes.len()
        )));
    }
    c.end()?;
    Ok(Some((h, routes)))
}

/// Decode one wire payload.
pub(crate) fn decode_frame(payload: &[u8]) -> std::io::Result<Frame> {
    if let Some((h, routes)) = exchange_header(payload)? {
        let pieces = routes
            .into_iter()
            .map(|r| {
                Ok(Piece {
                    dest: r.dest,
                    parts: Cursor { buf: payload, pos: r.parts.start }.parts()?,
                })
            })
            .collect::<std::io::Result<_>>()?;
        let ExchangeHeader { group, seq, world, member } = h;
        return Ok(Frame::Exchange { group, seq, world, member, pieces });
    }
    let mut c = Cursor { buf: payload, pos: 0 };
    let frame = match c.u8()? {
        1 => Frame::Hello { rank: c.u64()?, world: c.u64()? },
        3 => Frame::Abort { group: c.u64()?, err: c.err()? },
        4 => Frame::Failed { rank: c.u64()? },
        5 => Frame::Ping,
        6 => Frame::Pong,
        7 => Frame::Bye,
        TAG_REPLY => {
            let group = c.u64()?;
            let seq = c.u64()?;
            let n = c.u32()? as usize;
            let mut all = Vec::with_capacity(n.min(1 << 16));
            for _ in 0..n {
                all.push(c.parts()?);
            }
            Frame::Reply { group, seq, all }
        }
        11 => Frame::GroupPoison { group: c.u64()?, err: c.err()? },
        12 => Frame::WorldPoison { err: c.err()? },
        other => return Err(bad_wire(format!("unknown frame tag {other}"))),
    };
    c.end()?;
    Ok(frame)
}

/// Write one frame to `w`.
pub(crate) fn write_frame(w: &mut impl std::io::Write, frame: &Frame) -> std::io::Result<()> {
    wire::write_frame(w, &[&encode_frame(frame)])
}

// ---- rank-side endpoint ----------------------------------------------------

/// Where the reader thread delivers one in-flight exchange's outcome.
type ReplySlot = SyncSender<Result<Vec<Parts>, CommError>>;

/// One rank's connection to the hub, shared by every group multiplexed over
/// it. Holds the pending-exchange table the reader thread resolves into.
pub(crate) struct Endpoint {
    writer: Mutex<Stream>,
    /// A second OS handle to the same socket, kept to force-shutdown the
    /// blocked reader when the endpoint is dropped.
    raw: Stream,
    world_rank: usize,
    /// In-flight exchanges keyed `(group, seq)`; the reader thread resolves
    /// each with the reply or the poison that ends it.
    pending: Mutex<HashMap<(u64, u64), ReplySlot>>,
    /// Every live group on this connection, so hub-announced poisons reach
    /// group state even when no exchange is in flight.
    groups: Mutex<HashMap<u64, Weak<SocketGroup>>>,
    /// Connection-level failure (I/O error, silent hub): terminal.
    failed: Mutex<Option<CommError>>,
    /// The last process-level failure (a rank died) this endpoint reacted
    /// to; the hub can announce one event twice, see [`Endpoint::on_poison`].
    reacted_to: Mutex<Option<CommError>>,
    /// Cumulative bytes written to the wire (`socket.rank{N}.tx_bytes`).
    tx_bytes: mics_trace::Counter,
    /// Cumulative bytes read off the wire (`socket.rank{N}.rx_bytes`).
    rx_bytes: mics_trace::Counter,
    /// Gauge: in-flight exchanges awaiting a hub reply.
    pending_depth: mics_trace::Counter,
}

impl std::fmt::Debug for Endpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Endpoint")
            .field("world_rank", &self.world_rank)
            .field("failed", &*lock(&self.failed))
            .finish()
    }
}

impl Endpoint {
    fn failure(&self) -> Option<CommError> {
        *lock(&self.failed)
    }

    fn send(&self, frame: &Frame) -> Result<(), CommError> {
        self.send_payload(&encode_frame(frame))
    }

    fn send_payload(&self, payload: &[u8]) -> Result<(), CommError> {
        if let Some(e) = self.failure() {
            return Err(e);
        }
        let mut w = lock(&self.writer);
        match wire::write_frame(&mut *w, &[payload]) {
            Ok(()) => {
                // Sample and record while still holding the writer lock:
                // otherwise two senders can emit the cumulative tx series
                // out of order (higher total first), which violates the
                // trace's monotone-counter invariant.
                let total = self.tx_bytes.add(payload.len() as u64 + 4);
                let rec = mics_trace::global();
                if rec.is_enabled() {
                    let track = format!("rank{} tx bytes", self.world_rank);
                    rec.counter(DATAPLANE_PROCESS, &track, &track, total as f64);
                }
                drop(w);
                Ok(())
            }
            Err(e) => {
                let err = CommError::Io { kind: e.kind() };
                drop(w);
                self.fail_connection(err);
                Err(err)
            }
        }
    }

    /// Remove one in-flight exchange's slot — its reply arrived, or its
    /// caller gave up — and republish the depth.
    fn take_pending(&self, key: (u64, u64)) -> Option<ReplySlot> {
        let (slot, depth) = {
            let mut pending = lock(&self.pending);
            (pending.remove(&key), pending.len())
        };
        self.note_pending_depth(depth);
        slot
    }

    /// Record the pending-map depth on the gauge (and, when tracing, as a
    /// counter track) after a mutation.
    fn note_pending_depth(&self, depth: usize) {
        self.pending_depth.set(depth as u64);
        let rec = mics_trace::global();
        if rec.is_enabled() {
            let track = format!("rank{} in-flight exchanges", self.world_rank);
            rec.counter(DATAPLANE_PROCESS, &track, &track, depth as f64);
        }
    }

    /// Terminal connection failure: record it, poison every group, resolve
    /// every in-flight exchange.
    fn fail_connection(&self, err: CommError) {
        {
            let mut failed = lock(&self.failed);
            if failed.is_some() {
                return;
            }
            *failed = Some(err);
        }
        mics_trace::global().instant(
            DATAPLANE_PROCESS,
            &format!("rank{}", self.world_rank),
            "rank poisoned",
            "fault",
            vec![("error", Arg::from(format!("{err:?}")))],
        );
        self.poison_groups(err);
        self.fail_pending(err, |_| true);
    }

    /// The process-level failure path: poison every currently-registered
    /// group and resolve their in-flight exchanges. Groups registered
    /// afterwards — rebuilds — start fresh, exchanges included: a survivor
    /// that saw the poison and already waits on its rebuilt group is not
    /// failed by the event it rebuilt to escape.
    fn poison_groups(&self, err: CommError) {
        // Upgrade under `groups`, poison after releasing it: `poison_tree`
        // takes `children`, and `child()` registers a group (takes `groups`)
        // while it holds `children`.
        let live: Vec<Arc<SocketGroup>> =
            lock(&self.groups).values().filter_map(Weak::upgrade).collect();
        for g in &live {
            g.poison_tree(err);
        }
        self.fail_pending(err, |group| live.iter().any(|g| g.id == group));
    }

    /// A poison announced by the hub, for one group or (`None`) the world.
    ///
    /// A rank's death concerns every group, and the hub may announce it
    /// twice — the `WorldPoison` broadcast, and a `GroupPoison` answering an
    /// exchange that crossed it, in either order. The first notice poisons
    /// everything registered; a survivor may rebuild right away, so the
    /// second notice of the same event must not reach what was registered
    /// in between: it is handled as the group-level poison it at most is.
    fn on_poison(&self, group: Option<u64>, err: CommError) {
        let process_level =
            matches!(err, CommError::RankFailed { .. } | CommError::PeerDisconnected { .. });
        if process_level && lock(&self.reacted_to).replace(err) != Some(err) {
            self.poison_groups(err);
        } else if let Some(group) = group {
            // (`groups` is released before `poison_tree`, as in
            // `poison_groups`.)
            let live = lock(&self.groups).get(&group).and_then(Weak::upgrade);
            if let Some(g) = live {
                g.poison_tree(err);
            }
            self.fail_pending(err, |g| g == group);
        }
    }

    /// Resolve with `err` the in-flight exchanges of the groups `hit` picks.
    fn fail_pending(&self, err: CommError, hit: impl Fn(u64) -> bool) {
        let depth = {
            let mut pending = lock(&self.pending);
            pending.retain(|&(g, _), tx| {
                let hit = hit(g);
                if hit {
                    let _ = tx.send(Err(err));
                }
                !hit
            });
            pending.len()
        };
        self.note_pending_depth(depth);
    }

    fn register_group(&self, group: &Arc<SocketGroup>) {
        let mut groups = lock(&self.groups);
        groups.retain(|_, w| w.strong_count() > 0);
        groups.insert(group.id, Arc::downgrade(group));
    }
}

impl Drop for Endpoint {
    fn drop(&mut self) {
        // Best-effort clean goodbye so the hub does not poison survivors,
        // then force the reader thread off its blocking read.
        if self.failure().is_none() {
            let mut w = lock(&self.writer);
            let _ = write_frame(&mut *w, &Frame::Bye);
        }
        self.raw.shutdown();
    }
}

/// The rank's one transport thread: reads under the heartbeat grace (see
/// [`connect_world`]), so a hub silent for that long — not even a `Ping` —
/// fails the connection with `Io { TimedOut }`.
fn reader_loop(mut stream: Stream, ep: Weak<Endpoint>) {
    // One receive buffer for the life of the connection.
    let mut buf = Vec::new();
    loop {
        let frame = match wire::read_frame_into(&mut stream, MAX_FRAME, &mut buf)
            .and_then(|()| decode_frame(&buf))
        {
            Ok(f) => f,
            Err(e) => {
                use std::io::ErrorKind::{TimedOut, WouldBlock};
                let Some(ep) = ep.upgrade() else { return };
                // A timed-out read is `WouldBlock` on Linux.
                let silent = matches!(e.kind(), WouldBlock | TimedOut);
                if silent && ep.failure().is_none() {
                    mics_trace::global().instant(
                        DATAPLANE_PROCESS,
                        &format!("rank{}", ep.world_rank),
                        "heartbeat missed",
                        "fault",
                        vec![("grace_ms", Arg::from(DEFAULT_HEARTBEAT_GRACE.as_millis() as u64))],
                    );
                }
                let kind = if silent { TimedOut } else { e.kind() };
                ep.fail_connection(CommError::Io { kind });
                return;
            }
        };
        let Some(ep) = ep.upgrade() else { return };
        let total = ep.rx_bytes.add(buf.len() as u64 + 4);
        let rec = mics_trace::global();
        if rec.is_enabled() {
            let track = format!("rank{} rx bytes", ep.world_rank);
            rec.counter(DATAPLANE_PROCESS, &track, &track, total as f64);
        }
        match frame {
            Frame::Reply { group, seq, all } => {
                if let Some(tx) = ep.take_pending((group, seq)) {
                    let _ = tx.send(Ok(all));
                }
            }
            Frame::GroupPoison { group, err } => ep.on_poison(Some(group), err),
            Frame::WorldPoison { err } => ep.on_poison(None, err),
            Frame::Ping => {
                let _ = ep.send(&Frame::Pong);
            }
            // Rank-bound traffic only; anything else is a protocol error.
            _ => {
                ep.fail_connection(CommError::Io { kind: std::io::ErrorKind::InvalidData });
                return;
            }
        }
    }
}

// ---- socket-backed group ---------------------------------------------------

/// One communicator group as seen by this rank over its hub connection.
#[derive(Debug)]
pub(crate) struct SocketGroup {
    id: u64,
    world: usize,
    /// Per-group collective counter; identical across ranks by the SPMD
    /// contract, which is what lets the hub match halves by `(group, seq)`.
    seq: AtomicU64,
    timeout_nanos: AtomicU64,
    broken: Mutex<Option<CommError>>,
    children: Mutex<HashMap<ChildKey, Arc<SocketGroup>>>,
    ep: Arc<Endpoint>,
}

impl SocketGroup {
    fn new(id: u64, world: usize, timeout: Duration, ep: Arc<Endpoint>) -> Arc<SocketGroup> {
        let g = Arc::new(SocketGroup {
            id,
            world,
            seq: AtomicU64::new(0),
            timeout_nanos: AtomicU64::new(timeout.as_nanos() as u64),
            broken: Mutex::new(None),
            children: Mutex::new(HashMap::new()),
            ep: Arc::clone(&ep),
        });
        ep.register_group(&g);
        g
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
        let broken = *lock(&self.broken);
        broken.or_else(|| self.ep.failure())
    }

    /// Poison this group and every descendant (first error wins). Stops at
    /// nodes that are already broken: their unbroken children can only be
    /// post-failure rebuilds (the original poison visited everything that
    /// existed at the time), and those deliberately start fresh. Without the
    /// stop, a stale `GroupPoison`/`WorldPoison` frame processed after
    /// `remove_rank` would re-poison the rebuilt group through its parent.
    pub(crate) fn poison_tree(&self, err: CommError) {
        // `children` is taken before the poison becomes visible and held
        // across the walk: a survivor that reacts to it by rebuilding
        // (`child()` takes the same lock) inserts its fresh group after the
        // walk, never into it.
        let children = lock(&self.children);
        {
            let mut broken = lock(&self.broken);
            if broken.is_some() {
                return;
            }
            *broken = Some(err);
        }
        for child in children.values() {
            child.poison_tree(err);
        }
    }

    /// Explicit failure report: poison locally and tell the hub, which
    /// relays a `WorldPoison` to every connected peer.
    pub(crate) fn mark_failed(&self, rank: usize) {
        self.poison_tree(CommError::RankFailed { rank });
        let _ = self.ep.send(&Frame::Failed { rank: rank as u64 });
    }

    /// The sequenced exchange over the wire: send this member's pieces,
    /// wait (deadline-bounded) for the hub's reply, whose decoded entries —
    /// one per other member — are handed over as they are.
    pub(crate) fn exchange(
        &self,
        rank: usize,
        pieces: Vec<Piece<Deposit<'_>>>,
    ) -> Result<Vec<Arc<Parts>>, CommError> {
        if let Some(e) = self.failure() {
            return Err(e);
        }
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        let (tx, rx) = sync_channel(1);
        let depth = {
            let mut pending = lock(&self.ep.pending);
            pending.insert((self.id, seq), tx);
            pending.len()
        };
        self.ep.note_pending_depth(depth);
        let header =
            ExchangeHeader { group: self.id, seq, world: self.world as u64, member: rank as u64 };
        let slices: Vec<Piece<Vec<&[f32]>>> =
            pieces.iter().map(|p| Piece { dest: p.dest, parts: p.parts.slices() }).collect();
        if let Err(e) = self.ep.send_payload(&encode_exchange(header, &slices)) {
            self.ep.take_pending((self.id, seq));
            return Err(e);
        }
        let timeout = self.timeout();
        match rx.recv_timeout(timeout) {
            Ok(Ok(all)) if all.len() + 1 == self.world => {
                Ok(all.into_iter().map(Arc::new).collect())
            }
            Ok(Ok(_)) => {
                // A reply that does not hold one entry per other member.
                let e = CommError::Io { kind: std::io::ErrorKind::InvalidData };
                self.ep.fail_connection(e);
                Err(e)
            }
            Ok(Err(e)) => Err(e),
            Err(RecvTimeoutError::Timeout) => {
                self.ep.take_pending((self.id, seq));
                let e = CommError::Timeout { waited: timeout };
                self.poison_tree(e);
                // Tell the hub so the peers already waiting on this group
                // wake with the same error instead of each burning its own
                // deadline.
                let _ = self.ep.send(&Frame::Abort { group: self.id, err: e });
                Err((*lock(&self.broken)).unwrap_or(e))
            }
            Err(RecvTimeoutError::Disconnected) => Err(self
                .failure()
                .unwrap_or(CommError::Io { kind: std::io::ErrorKind::BrokenPipe })),
        }
    }

    /// Create (or fetch) the child group for `key`. The id is a
    /// deterministic hash of the parent id and the key, so every member's
    /// process derives the same identity with no extra coordination.
    ///
    /// A split shares its parent's fate: created after the poison walk went
    /// by (this rank was slow out of the split's exchange), it is born with
    /// the poison the walk would have given it — otherwise it would wait out
    /// its deadline for a member that is already dead. A rebuild is the
    /// fresh start.
    pub(crate) fn child(self: &Arc<Self>, key: ChildKey, world: usize) -> Arc<SocketGroup> {
        let mut children = lock(&self.children);
        Arc::clone(children.entry(key).or_insert_with(|| {
            let id = child_id(self.id, key);
            let child = SocketGroup::new(id, world, self.timeout(), Arc::clone(&self.ep));
            if let ChildKey::Split { .. } = key {
                *lock(&child.broken) = *lock(&self.broken);
            }
            child
        }))
    }
}

/// FNV-1a over (parent id, key): the derived group identity.
fn child_id(parent: u64, key: ChildKey) -> u64 {
    let (tag, a, b) = match key {
        ChildKey::Split { call, color } => (1u8, call, color as u64),
        ChildKey::Rebuild { epoch, removed } => (2u8, epoch, removed as u64),
    };
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &x in bytes {
            h ^= u64::from(x);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    eat(&parent.to_le_bytes());
    eat(&[tag]);
    eat(&a.to_le_bytes());
    eat(&b.to_le_bytes());
    h
}

// ---- public entry points ---------------------------------------------------

/// Everything a worker process needs to join a socket world.
#[derive(Debug, Clone)]
pub struct SocketWorldConfig {
    /// Rendezvous address: `host:port` for TCP or `unix:<path>`.
    pub addr: String,
    /// This process's world rank.
    pub rank: usize,
    /// World size.
    pub world: usize,
    /// Initial rendezvous deadline (later adjustable with
    /// [`Communicator::set_timeout`]).
    pub timeout: Duration,
    /// Connection-setup retry policy.
    pub retry: RetryPolicy,
}

impl SocketWorldConfig {
    /// Defaults for everything but the identity: [`DEFAULT_TIMEOUT`] and
    /// [`RetryPolicy::default`].
    pub fn new(addr: impl Into<String>, rank: usize, world: usize) -> Self {
        SocketWorldConfig {
            addr: addr.into(),
            rank,
            world,
            timeout: DEFAULT_TIMEOUT,
            retry: RetryPolicy::default(),
        }
    }
}

/// Join a socket world: connect to the hub (under the retry policy), say
/// hello, and return this rank's world [`Communicator`]. The first
/// collective is the first rendezvous — like the local transport, creation
/// itself does not block on peers.
pub fn connect_world(cfg: SocketWorldConfig) -> Result<Communicator, CommError> {
    assert!(cfg.world > 0, "world must be non-empty");
    assert!(cfg.rank < cfg.world, "rank out of range");
    let stream = cfg
        .retry
        .run(|| Stream::connect(&cfg.addr))
        .map_err(|e| CommError::Io { kind: e.kind() })?;
    let io = |e: std::io::Error| CommError::Io { kind: e.kind() };
    let reader = stream.try_clone().map_err(io)?;
    reader.set_read_timeout(Some(DEFAULT_HEARTBEAT_GRACE)).map_err(io)?;
    let raw = stream.try_clone().map_err(io)?;
    let counters = socket_counters();
    let ep = Arc::new(Endpoint {
        writer: Mutex::new(stream),
        raw,
        world_rank: cfg.rank,
        pending: Mutex::new(HashMap::new()),
        groups: Mutex::new(HashMap::new()),
        failed: Mutex::new(None),
        reacted_to: Mutex::new(None),
        tx_bytes: counters.counter(&format!("socket.rank{}.tx_bytes", cfg.rank)),
        rx_bytes: counters.counter(&format!("socket.rank{}.rx_bytes", cfg.rank)),
        pending_depth: counters.counter(&format!("socket.rank{}.pending", cfg.rank)),
    });
    ep.send(&Frame::Hello { rank: cfg.rank as u64, world: cfg.world as u64 })?;
    let weak = Arc::downgrade(&ep);
    std::thread::Builder::new()
        .name(format!("mics-sock-rx-{}", cfg.rank))
        .spawn(move || reader_loop(reader, weak))
        .expect("cannot spawn socket reader thread");
    let group = SocketGroup::new(WORLD_GROUP, cfg.world, cfg.timeout, ep);
    Ok(Communicator::from_backend(cfg.rank, Backend::Socket(group)))
}

/// Spawn an in-process hub on an ephemeral loopback port and connect
/// `world` ranks to it — the socket analogue of
/// [`Communicator::create_world`], used by the thread harness
/// ([`crate::run_ranks_on`]). Returns the hub (keep it alive) and the
/// communicators.
pub(crate) fn create_socket_world(world: usize) -> (Hub, Vec<Communicator>) {
    let hub = Hub::spawn("127.0.0.1:0").expect("cannot start in-process hub");
    let addr = hub.addr().to_string();
    let comms = (0..world)
        .map(|rank| {
            connect_world(SocketWorldConfig::new(addr.clone(), rank, world))
                .expect("cannot connect rank to in-process hub")
        })
        .collect();
    (hub, comms)
}

/// Which transport created a communicator (used by harnesses and tests to
/// assert parity).
pub(crate) fn kind_of(backend: &Backend) -> TransportKind {
    match backend {
        Backend::Local(_) => TransportKind::Local,
        Backend::Socket(_) => TransportKind::Socket,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip_through_the_codec() {
        for (frame, _) in golden_frames() {
            let bytes = wire_bytes(&frame);
            let mut r = &bytes[..];
            let back = read_frame(&mut r).expect("decode");
            // Compare bit patterns (NaN payloads must survive the wire).
            assert_eq!(format!("{back:?}"), format!("{frame:?}"));
            assert!(r.is_empty(), "frame must consume all bytes");
        }
    }

    /// The bytes a frame puts on the wire, length prefix included.
    fn wire_bytes(frame: &Frame) -> Vec<u8> {
        let mut out = Vec::new();
        write_frame(&mut out, frame).unwrap();
        out
    }

    fn read_frame(r: &mut impl std::io::Read) -> std::io::Result<Frame> {
        let mut buf = Vec::new();
        wire::read_frame_into(r, MAX_FRAME, &mut buf)?;
        decode_frame(&buf)
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// The three deposits of one 3-member exchange: member 0 addresses one
    /// piece to all others, members 1 and 2 one piece to each other member.
    /// Every piece has part lengths `[0, 1, 3]` carrying NaN payloads,
    /// `-0.0` and denormals; part 1's NaN is unique to the piece, so a reply
    /// entry names the piece it came from.
    fn golden_deposits() -> [Vec<Piece<Parts>>; 3] {
        let f = f32::from_bits;
        let piece = |dest, nan: u32, a: f32, b: u32| Piece {
            dest,
            parts: vec![vec![], vec![f(nan)], vec![a, -0.0, f(b)]],
        };
        [
            vec![Piece {
                dest: Dest::Others,
                parts: vec![vec![], vec![f(0x7fc0_0001)], vec![-0.0, f(0x0000_0001), 1.5]],
            }],
            vec![
                piece(Dest::Member(0), 0xffc1_2345, 2.0, 0x007f_ffff),
                piece(Dest::Member(2), 0xffc1_2346, 3.0, 0x007f_fffe),
            ],
            vec![
                piece(Dest::Member(0), 0x7fc2_0000, 4.0, 0x8000_0001),
                piece(Dest::Member(1), 0x7fc2_0001, 5.0, 0x8000_0002),
            ],
        ]
    }

    /// Member `m`'s half of the golden exchange.
    fn golden_exchange(member: usize) -> Frame {
        let pieces = golden_deposits()[member].clone();
        Frame::Exchange { group: 42, seq: 7, world: 3, member: member as u64, pieces }
    }

    /// The reply member `to` gets: from each other member, in member order,
    /// the parts of the piece addressed to `to` — written out by hand.
    fn golden_reply(to: usize) -> Frame {
        let [d0, d1, d2] =
            golden_deposits().map(|d| d.into_iter().map(|p| p.parts).collect::<Vec<_>>());
        let all = match to {
            0 => vec![d1[0].clone(), d2[0].clone()],
            1 => vec![d0[0].clone(), d2[1].clone()],
            _ => vec![d0[0].clone(), d1[1].clone()],
        };
        Frame::Reply { group: 42, seq: 7, all }
    }

    /// One frame per variant with its wire bytes, length prefix included.
    /// The format is pinned: these constants change only with a deliberate
    /// protocol revision.
    fn golden_frames() -> Vec<(Frame, &'static str)> {
        vec![
            (Frame::Hello { rank: 3, world: 8 }, "110000000103000000000000000800000000000000"),
            (golden_exchange(0), "49000000022a0000000000000007000000000000000300000000000000000000000000000001000000ffffffff0300000000000000010000000100c07f0300000000000080010000000000c03f"),
            (golden_exchange(1), "6d000000022a0000000000000007000000000000000300000000000000010000000000000002000000000000000300000000000000010000004523c1ff030000000000004000000080ffff7f00020000000300000000000000010000004623c1ff030000000000404000000080feff7f00"),
            (golden_exchange(2), "6d000000022a0000000000000007000000000000000300000000000000020000000000000002000000000000000300000000000000010000000000c27f03000000000080400000008001000080010000000300000000000000010000000100c27f030000000000a0400000008002000080"),
            (golden_reply(0), "550000000a2a000000000000000700000000000000020000000300000000000000010000004523c1ff030000000000004000000080ffff7f000300000000000000010000000000c27f03000000000080400000008001000080"),
            (golden_reply(1), "550000000a2a000000000000000700000000000000020000000300000000000000010000000100c07f0300000000000080010000000000c03f0300000000000000010000000100c27f030000000000a0400000008002000080"),
            (golden_reply(2), "550000000a2a000000000000000700000000000000020000000300000000000000010000000100c07f0300000000000080010000000000c03f0300000000000000010000004623c1ff030000000000404000000080feff7f00"),
            (
                Frame::Abort {
                    group: 9,
                    err: CommError::Timeout { waited: Duration::from_millis(250) },
                },
                "120000000309000000000000000180b2e60e00000000",
            ),
            (Frame::Failed { rank: 5 }, "09000000040500000000000000"),
            (Frame::Ping, "0100000005"),
            (Frame::Pong, "0100000006"),
            (Frame::Bye, "0100000007"),
            (Frame::GroupPoison { group: 2, err: CommError::RankFailed { rank: 1 } }, "120000000b0200000000000000000100000000000000"),
            (Frame::WorldPoison { err: CommError::PeerDisconnected { rank: 6 } }, "0a0000000c030600000000000000"),
            (
                Frame::WorldPoison {
                    err: CommError::Io { kind: std::io::ErrorKind::ConnectionReset },
                },
                "0a0000000c020300000000000000",
            ),
        ]
    }

    #[test]
    fn golden_wire_bytes_are_pinned() {
        for (frame, golden) in golden_frames() {
            assert_eq!(hex(&wire_bytes(&frame)), golden, "{frame:?}");
            // The rank's send path: the same bytes straight from borrowed
            // slices, in a buffer reserved exactly once.
            if let Frame::Exchange { group, seq, world, member, pieces } = frame {
                let slices: Vec<Piece<Vec<&[f32]>>> = pieces
                    .iter()
                    .map(|p| Piece {
                        dest: p.dest,
                        parts: p.parts.iter().map(Vec::as_slice).collect(),
                    })
                    .collect();
                let payload =
                    encode_exchange(ExchangeHeader { group, seq, world, member }, &slices);
                assert_eq!(hex(&payload), golden[8..], "prefix aside, the golden bytes");
                assert_eq!(payload.capacity(), payload.len(), "reserved exactly");
            }
        }
    }

    /// A hand-driven rank: connect, say hello, then speak raw bytes.
    fn raw_rank(hub: &Hub, rank: u64, world: u64) -> Stream {
        let mut stream = Stream::connect(hub.addr()).unwrap();
        write_frame(&mut stream, &Frame::Hello { rank, world }).unwrap();
        stream
    }

    #[test]
    fn hub_forwards_each_member_only_what_is_addressed_to_it() {
        use std::io::{Read, Write};
        let unhex = |h: &str| -> Vec<u8> {
            (0..h.len()).step_by(2).map(|i| u8::from_str_radix(&h[i..i + 2], 16).unwrap()).collect()
        };
        let (golden, deposits) = (golden_frames(), golden_deposits());
        crate::with_deadline(Duration::from_secs(30), move || {
            let (exchanges, replies) = (&golden[1..4], &golden[4..7]);
            let hub = Hub::spawn("127.0.0.1:0").unwrap();
            let mut ranks: Vec<Stream> = (0..3).map(|r| raw_rank(&hub, r, 3)).collect();
            // Arrival order 2, 0, 1: replies follow member order, not
            // arrival order.
            for member in [2, 0, 1] {
                ranks[member].write_all(&unhex(exchanges[member].1)).unwrap();
            }
            for (to, rank) in ranks.iter_mut().enumerate() {
                let mut reply = vec![0u8; replies[to].1.len() / 2];
                rank.read_exact(&mut reply).unwrap();
                assert_eq!(hex(&reply), replies[to].1, "member {to}'s reply");
                let Frame::Reply { all, .. } = decode_frame(&reply[4..]).unwrap() else {
                    unreachable!("the golden reply decodes")
                };
                assert_eq!(all.len(), 2, "one entry per other member");
                for entry in &all {
                    // The entry's NaN names the piece it was cut from.
                    let (from, piece) = (deposits.iter().enumerate())
                        .flat_map(|(from, d)| d.iter().map(move |p| (from, p)))
                        .find(|(_, p)| p.parts[1][0].to_bits() == entry[1][0].to_bits())
                        .expect("every entry is some member's piece");
                    assert_ne!(from, to, "member {to} got its own contribution back");
                    assert!(
                        matches!(piece.dest, Dest::Others) || piece.dest == Dest::Member(to),
                        "member {to} got member {from}'s piece for {:?}",
                        piece.dest
                    );
                }
            }
        });
    }

    #[test]
    fn hub_rejects_a_malformed_batch_and_poisons_the_world() {
        let header = || ExchangeHeader { group: WORLD_GROUP, seq: 0, world: 2, member: 1 };
        let one = |dest| [Piece { dest, parts: vec![&[1.0f32][..]] }];
        // One part that claims five floats and carries one.
        let mut lying = encode_exchange(header(), &one(Dest::Others));
        lying[EXCHANGE_HEADER + 12..][..4].copy_from_slice(&5u32.to_le_bytes());
        // Well-formed lengths, but the one piece is addressed to the sender.
        let to_self = encode_exchange(header(), &one(Dest::Member(1)));
        for (case, payload) in [("a lying part length", lying), ("a self-addressed piece", to_self)]
        {
            crate::with_deadline(Duration::from_secs(30), move || {
                // The silent hostile rank must be cut by the validator, not
                // expired by a heartbeat grace inside the deadline.
                let hub = Hub::spawn_with_grace("127.0.0.1:0", Duration::from_secs(600)).unwrap();
                let healthy = connect_world(SocketWorldConfig::new(hub.addr(), 0, 2)).unwrap();
                let mut hostile = raw_rank(&hub, 1, 2);
                wire::write_frame(&mut hostile, &[&payload]).unwrap();
                let dropped = std::io::Read::read(&mut hostile, &mut [0u8; 1]);
                assert!(
                    matches!(dropped, Ok(0) | Err(_)),
                    "{case}: the hub must cut the connection"
                );
                assert_eq!(
                    healthy.try_all_gather(&[0.0], None),
                    Err(CommError::PeerDisconnected { rank: 1 }),
                    "{case}: and poison the world, as for any protocol error"
                );
            });
        }
    }

    #[test]
    fn a_failure_announced_twice_does_not_reach_the_group_rebuilt_in_between() {
        let hub = Hub::spawn("127.0.0.1:0").unwrap();
        let comm = connect_world(SocketWorldConfig::new(hub.addr(), 0, 2)).unwrap();
        let Backend::Socket(world) = &comm.backend else { unreachable!() };
        let died = CommError::RankFailed { rank: 1 };
        // First notice: the answer to an exchange that crossed the broadcast.
        world.ep.on_poison(Some(WORLD_GROUP), died);
        assert_eq!(world.failure(), Some(died));
        let rebuilt = world.child(ChildKey::Rebuild { epoch: 0, removed: 1 }, 1);
        // Second notice of the same death: the broadcast itself.
        world.ep.on_poison(None, died);
        assert_eq!(rebuilt.failure(), None, "one event, one reaction");
        // A different death is news, and concerns the rebuilt group too.
        let next = CommError::PeerDisconnected { rank: 0 };
        world.ep.on_poison(None, next);
        assert_eq!(rebuilt.failure(), Some(next));
    }

    /// Read `bytes` as a connection would, holding the layer's contract: a
    /// frame or a typed error, a receive buffer bounded by what was actually
    /// supplied, and the hub's validator agreeing with the rank's decoder.
    fn read_hostile(bytes: &[u8]) -> std::io::Result<Frame> {
        let mut buf = Vec::new();
        let got = wire::read_frame_into(&mut &bytes[..], MAX_FRAME, &mut buf).and_then(|()| {
            let decoded = decode_frame(&buf);
            if buf[0] == TAG_EXCHANGE {
                assert_eq!(exchange_header(&buf).is_err(), decoded.is_err(), "{}", hex(&buf));
            }
            decoded
        });
        assert!(buf.capacity() <= bytes.len() + (1 << 20), "{} bytes reserved", buf.capacity());
        if let Err(e) = &got {
            use std::io::ErrorKind::{InvalidData, UnexpectedEof};
            assert!(matches!(e.kind(), InvalidData | UnexpectedEof), "untyped: {e:?}");
        }
        got
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        #[test]
        fn hostile_bytes_fail_typed_and_bounded(
            lens in proptest::collection::vec(0usize..6, 0usize..4),
            which in 0usize..18,
            salt in 1u32..1 << 30,
        ) {
            let parts: Parts = lens
                .iter()
                .map(|&n| (0..n).map(|i| f32::from_bits(salt.rotate_left(i as u32))).collect())
                .collect();
            let to = |dest| Piece { dest, parts: parts.clone() };
            let exchange = |world, member, pieces| Frame::Exchange { group: 1, seq: 2, world, member, pieces };
            // Addressing: member 1 of 4 must address one piece to all
            // others, or one to each of 0, 2 and 3, in that order.
            use Dest::{Member as M, Others as O};
            for (case, pieces) in [
                ("no piece", vec![]),
                ("a missing destination", vec![to(M(0)), to(M(3))]),
                ("a duplicate destination", vec![to(M(0)), to(M(2)), to(M(2))]),
                ("a piece for the sender", vec![to(M(0)), to(M(1)), to(M(2)), to(M(3))]),
                ("an out-of-range destination", vec![to(M(0)), to(M(2)), to(M(4))]),
                ("destinations out of member order", vec![to(M(2)), to(M(0)), to(M(3))]),
                ("all others, then per destination", vec![to(O), to(M(2)), to(M(3))]),
                ("per destination, then all others", vec![to(M(0)), to(M(2)), to(O)]),
                ("all others twice", vec![to(O), to(O)]),
            ] {
                let got = read_hostile(&wire_bytes(&exchange(4, 1, pieces)));
                let kind = got.as_ref().map_err(std::io::Error::kind).err();
                proptest::prop_assert_eq!(kind, Some(std::io::ErrorKind::InvalidData), "{}", case);
            }
            let outsider = read_hostile(&wire_bytes(&exchange(4, 4, vec![to(O)])));
            proptest::prop_assert!(outsider.is_err(), "a sender outside the group");
            let mut frames: Vec<Frame> = golden_frames().into_iter().map(|(f, _)| f).collect();
            frames.push(exchange(3, 0, vec![to(O)]));
            frames.push(exchange(3, 1, vec![to(M(0)), to(M(2))]));
            frames.push(Frame::Reply { group: 1, seq: 2, all: vec![parts.clone(), parts.clone()] });
            let bytes = wire_bytes(&frames[which]);
            let rejects = |mutate: &dyn Fn(&mut Vec<u8>)| {
                let mut hostile = bytes.clone();
                mutate(&mut hostile);
                read_hostile(&hostile).is_err()
            };
            let put = |b: &mut Vec<u8>, at: usize, v: u32| b[at..at + 4].copy_from_slice(&v.to_le_bytes());
            proptest::prop_assert!(read_hostile(&bytes).is_ok());
            // Truncated at every offset.
            for cut in 0..bytes.len() {
                proptest::prop_assert!(rejects(&|b| b.truncate(cut)), "cut at {cut}");
            }
            // The prefix lies, upwards and downwards.
            let len = bytes.len() as u32 - 4;
            proptest::prop_assert!(rejects(&|b| put(b, 0, len + salt)));
            proptest::prop_assert!(rejects(&|b| put(b, 0, len - 1 - salt % len)));
            // Unknown tag; trailing bytes the prefix owns up to.
            proptest::prop_assert!(rejects(&|b| b[4] = [0, 8, 9, 13, 255][salt as usize % 5]));
            proptest::prop_assert!(rejects(&|b| {
                b.extend_from_slice(&salt.to_le_bytes());
                put(b, 0, len + 4);
            }));
            // A piece or entry count, a part count or a part length that
            // overruns the frame, and counts and lengths whose byte size
            // overflows 32 bits. An exchange's first piece has its
            // destination before its parts.
            let (count_at, parts_at) = match frames[which] {
                Frame::Exchange { .. } => (4 + EXCHANGE_HEADER, 4 + EXCHANGE_HEADER + 8),
                Frame::Reply { .. } => (4 + REPLY_HEADER, 4 + REPLY_HEADER + 4),
                _ => return Ok(()),
            };
            let get = |at: usize| u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap());
            proptest::prop_assert!(rejects(&|b| put(b, count_at, get(count_at) + salt)));
            let mut fields = Vec::new();
            if get(count_at) > 0 {
                fields.push(parts_at);
                if get(parts_at) > 0 {
                    fields.push(parts_at + 4);
                }
            }
            for at in fields {
                proptest::prop_assert!(rejects(&|b| put(b, at, get(at) + salt)), "at {at}");
                proptest::prop_assert!(rejects(&|b| put(b, at, u32::MAX)), "at {at}");
            }
        }
    }

    #[test]
    fn payload_bits_survive_the_wire_exactly() {
        // The quantized collectives ship encoded blocks as f32 bit patterns;
        // the codec must be a bijection on bits, NaNs included.
        let words: Vec<f32> =
            [0x0000_0000u32, 0xffff_ffff, 0x7fc0_0000, 0x7f80_0001, 0x8000_0000, 0xdead_beef]
                .iter()
                .map(|&b| f32::from_bits(b))
                .collect();
        let pieces = vec![Piece { dest: Dest::Member(1), parts: vec![words.clone()] }];
        let frame = Frame::Exchange { group: 0, seq: 0, world: 2, member: 0, pieces };
        let bytes = wire_bytes(&frame);
        let mut r = &bytes[..];
        match read_frame(&mut r).unwrap() {
            Frame::Exchange { pieces, .. } => {
                let got: Vec<u32> = pieces[0].parts[0].iter().map(|x| x.to_bits()).collect();
                let want: Vec<u32> = words.iter().map(|x| x.to_bits()).collect();
                assert_eq!(got, want);
            }
            other => panic!("wrong frame {other:?}"),
        }
    }

    #[test]
    fn truncated_and_oversized_frames_are_rejected() {
        let bytes = wire_bytes(&Frame::Hello { rank: 1, world: 2 });
        let mut r = &bytes[..bytes.len() - 3];
        assert!(read_frame(&mut r).is_err(), "truncated payload must fail");

        let mut huge = Vec::new();
        huge.extend_from_slice(&(u32::MAX).to_le_bytes());
        let mut r = &huge[..];
        assert!(read_frame(&mut r).is_err(), "absurd length prefix must fail");
    }

    #[test]
    fn child_ids_are_distinct_and_deterministic() {
        let a = child_id(WORLD_GROUP, ChildKey::Split { call: 0, color: 0 });
        let b = child_id(WORLD_GROUP, ChildKey::Split { call: 0, color: 1 });
        let c = child_id(WORLD_GROUP, ChildKey::Split { call: 1, color: 0 });
        let d = child_id(WORLD_GROUP, ChildKey::Rebuild { epoch: 0, removed: 0 });
        let again = child_id(WORLD_GROUP, ChildKey::Split { call: 0, color: 0 });
        assert_eq!(a, again);
        let mut ids = vec![a, b, c, d, WORLD_GROUP];
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 5, "derived ids must not collide");
    }

    #[test]
    fn wire_counters_track_bytes_and_pending_drains_to_zero() {
        let tx = socket_counters().counter("socket.rank0.tx_bytes");
        let rx = socket_counters().counter("socket.rank0.rx_bytes");
        let (tx0, rx0) = (tx.get(), rx.get());
        let (_hub, comms) = create_socket_world(2);
        assert!(tx.get() > tx0, "Hello frame must be counted as sent bytes");
        let handles: Vec<_> = comms
            .into_iter()
            .map(|c| std::thread::spawn(move || (c.all_reduce(&[c.rank() as f32 + 1.0]), c)))
            .collect();
        for h in handles {
            let (sum, comm) = h.join().unwrap();
            assert_eq!(sum, vec![3.0]);
            // This endpoint's own table: the `socket.rank{N}.pending` gauge
            // is process-wide, and other tests' rank-0 endpoints move it.
            let Backend::Socket(group) = &comm.backend else { unreachable!() };
            assert!(
                lock(&group.ep.pending).is_empty(),
                "no exchange may be left in flight after the collective completes"
            );
        }
        assert!(rx.get() > rx0, "hub replies must be counted as received bytes");
    }

    #[test]
    fn io_error_kinds_round_trip_or_degrade_to_other() {
        for &kind in WIRE_KINDS {
            let (code, arg) = err_to_wire(CommError::Io { kind });
            assert_eq!(err_from_wire(code, arg).unwrap(), CommError::Io { kind });
        }
        let (code, arg) = err_to_wire(CommError::Io { kind: std::io::ErrorKind::OutOfMemory });
        assert_eq!(
            err_from_wire(code, arg).unwrap(),
            CommError::Io { kind: std::io::ErrorKind::Other },
            "unlisted kinds degrade to Other, not garbage"
        );
    }
}

//! The socket transport: each rank owns one framed connection (TCP or
//! Unix-domain) to a [`super::hub::Hub`] switchboard, and every collective
//! lowers to a sequenced exchange *on the wire*.
//!
//! # Wire model
//!
//! All traffic is length-prefixed frames (`Frame`): a `u32` little-endian
//! payload length, then a tag byte and the fields. Payload buffers travel
//! as raw `f32` bit patterns, so streams that are really encoded blocks —
//! the `mics-compress` wire format the quantized collectives gather — cross
//! the socket bit-exactly, exactly as they cross the shared-memory
//! transport.
//!
//! A collective exchange is: every member sends
//! `Exchange { group, seq, … }` carrying its batch; the hub holds them
//! until all `world` members of that `(group, seq)` arrived, then answers
//! each member with every member's batch in member order. All reduction
//! arithmetic stays rank-side (above the transport), which is what keeps
//! results bit-identical between transports.
//!
//! # Failure domains
//!
//! This transport is what gives a rank a *real* failure domain. Three
//! detection paths feed the same poison state the local transport uses:
//!
//! * **Teardown** — a SIGKILLed rank's socket closes; the hub sees EOF
//!   without a `Bye` and broadcasts `WorldPoison(PeerDisconnected)`.
//! * **Heartbeat** — every connection pings (`HEARTBEAT_INTERVAL`, 100 ms); a
//!   wedged peer (alive but silent past the grace) is treated as gone, in
//!   both directions: the hub expires silent ranks, and a rank whose hub
//!   goes silent fails itself with [`CommError::Io`].
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
use super::{Backend, ChildKey, Parts, RetryPolicy, TransportKind};
use crate::{lock, CommError, Communicator, DEFAULT_TIMEOUT};
use mics_trace::Arg;
use std::collections::HashMap;
use std::io::{BufWriter, Read, Write};
use std::net::TcpStream;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, RecvTimeoutError, SyncSender};
use std::sync::{Arc, Mutex, OnceLock, Weak};
use std::time::{Duration, Instant};

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
const MAX_FRAME: usize = 1 << 28;

/// How often each side of a connection sends a liveness ping.
pub(crate) const HEARTBEAT_INTERVAL: Duration = Duration::from_millis(100);

/// How long a rank tolerates a silent hub before declaring the connection
/// dead (endpoint side of the heartbeat path). Overridable per connection
/// via [`SocketWorldConfig::heartbeat_grace`].
pub const DEFAULT_HEARTBEAT_GRACE: Duration = Duration::from_secs(10);

/// A connected byte stream of either flavor behind one interface.
#[derive(Debug)]
pub(crate) enum Stream {
    /// TCP (addresses like `127.0.0.1:7000`), with Nagle disabled — frames
    /// are latency-sensitive rendezvous traffic.
    Tcp(TcpStream),
    /// Unix-domain (addresses like `unix:/tmp/mics.sock`).
    Unix(UnixStream),
}

impl Stream {
    pub(crate) fn connect(addr: &str) -> std::io::Result<Stream> {
        if let Some(path) = addr.strip_prefix("unix:") {
            Ok(Stream::Unix(UnixStream::connect(path)?))
        } else {
            let s = TcpStream::connect(addr)?;
            s.set_nodelay(true)?;
            Ok(Stream::Tcp(s))
        }
    }

    pub(crate) fn try_clone(&self) -> std::io::Result<Stream> {
        Ok(match self {
            Stream::Tcp(s) => Stream::Tcp(s.try_clone()?),
            Stream::Unix(s) => Stream::Unix(s.try_clone()?),
        })
    }

    pub(crate) fn shutdown(&self) {
        let _ = match self {
            Stream::Tcp(s) => s.shutdown(std::net::Shutdown::Both),
            Stream::Unix(s) => s.shutdown(std::net::Shutdown::Both),
        };
    }
}

impl Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.read(buf),
            Stream::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.write(buf),
            Stream::Unix(s) => s.write(buf),
        }
    }
    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            Stream::Tcp(s) => s.flush(),
            Stream::Unix(s) => s.flush(),
        }
    }
}

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
        /// The deposited batch.
        parts: Parts,
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
    /// Liveness probe (both directions use the same pair).
    Ping,
    /// Liveness answer.
    Pong,
    /// Clean goodbye: the peer is leaving on purpose, do not poison.
    Bye,
    /// Hub → rank: the completed exchange, every member's batch in member
    /// order.
    Reply {
        /// Group id the exchange ran on.
        group: u64,
        /// Sequence number being answered.
        seq: u64,
        /// `all[m]` is member `m`'s batch.
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

fn put_parts(buf: &mut Vec<u8>, parts: &[Vec<f32>]) {
    put_u32(buf, parts.len() as u32);
    for p in parts {
        put_u32(buf, p.len() as u32);
        for x in p {
            put_u32(buf, x.to_bits());
        }
    }
}

fn put_err(buf: &mut Vec<u8>, err: CommError) {
    let (code, arg) = err_to_wire(err);
    buf.push(code);
    put_u64(buf, arg);
}

/// Encode `frame` as one length-prefixed wire message.
pub(crate) fn encode_frame(frame: &Frame) -> Vec<u8> {
    let mut b = vec![0u8; 4]; // length prefix patched below
    match frame {
        Frame::Hello { rank, world } => {
            b.push(1);
            put_u64(&mut b, *rank);
            put_u64(&mut b, *world);
        }
        Frame::Exchange { group, seq, world, member, parts } => {
            b.push(2);
            put_u64(&mut b, *group);
            put_u64(&mut b, *seq);
            put_u64(&mut b, *world);
            put_u64(&mut b, *member);
            put_parts(&mut b, parts);
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
            b.push(10);
            put_u64(&mut b, *group);
            put_u64(&mut b, *seq);
            put_u32(&mut b, all.len() as u32);
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
    let len = (b.len() - 4) as u32;
    b[..4].copy_from_slice(&len.to_le_bytes());
    b
}

struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> std::io::Result<&'a [u8]> {
        if self.pos + n > self.buf.len() {
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
    fn parts(&mut self) -> std::io::Result<Parts> {
        let nparts = self.u32()? as usize;
        let mut parts = Vec::with_capacity(nparts.min(1 << 16));
        for _ in 0..nparts {
            let len = self.u32()? as usize;
            let raw = self.take(len.checked_mul(4).ok_or_else(|| bad_wire("overflow".into()))?)?;
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
}

/// Read one frame off `r`, blocking. An EOF at a frame boundary surfaces as
/// `UnexpectedEof`.
pub(crate) fn read_frame(r: &mut impl Read) -> std::io::Result<Frame> {
    read_frame_sized(r).map(|(frame, _)| frame)
}

/// [`read_frame`] plus the wire size consumed (payload + 4-byte prefix),
/// for the receive-byte counters.
pub(crate) fn read_frame_sized(r: &mut impl Read) -> std::io::Result<(Frame, u64)> {
    let mut len4 = [0u8; 4];
    r.read_exact(&mut len4)?;
    let len = u32::from_le_bytes(len4) as usize;
    if len == 0 || len > MAX_FRAME {
        return Err(bad_wire(format!("bad frame length {len}")));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    let mut c = Cursor { buf: &payload, pos: 0 };
    let frame = match c.u8()? {
        1 => Frame::Hello { rank: c.u64()?, world: c.u64()? },
        2 => Frame::Exchange {
            group: c.u64()?,
            seq: c.u64()?,
            world: c.u64()?,
            member: c.u64()?,
            parts: c.parts()?,
        },
        3 => Frame::Abort { group: c.u64()?, err: c.err()? },
        4 => Frame::Failed { rank: c.u64()? },
        5 => Frame::Ping,
        6 => Frame::Pong,
        7 => Frame::Bye,
        10 => {
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
    if c.pos != payload.len() {
        return Err(bad_wire("trailing bytes in frame".into()));
    }
    Ok((frame, len as u64 + 4))
}

/// Write one frame to `w` and flush.
pub(crate) fn write_frame(w: &mut impl Write, frame: &Frame) -> std::io::Result<()> {
    w.write_all(&encode_frame(frame))?;
    w.flush()
}

// ---- rank-side endpoint ----------------------------------------------------

/// Where the reader thread delivers one in-flight exchange's outcome.
type ReplySlot = SyncSender<Result<Vec<Parts>, CommError>>;

/// One rank's connection to the hub, shared by every group multiplexed over
/// it. Holds the pending-exchange table the reader thread resolves into.
pub(crate) struct Endpoint {
    writer: Mutex<BufWriter<Stream>>,
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
    last_inbound: Mutex<Instant>,
    heartbeat_grace: Duration,
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
        if let Some(e) = self.failure() {
            return Err(e);
        }
        let bytes = encode_frame(frame);
        let mut w = lock(&self.writer);
        match w.write_all(&bytes).and_then(|()| w.flush()) {
            Ok(()) => {
                // Sample and record while still holding the writer lock:
                // otherwise two senders can emit the cumulative tx series
                // out of order (higher total first), which violates the
                // trace's monotone-counter invariant.
                let total = self.tx_bytes.add(bytes.len() as u64);
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
        self.fail_pending(err, None);
    }

    /// Poison every currently-registered group (the process-level failure
    /// path). Groups registered afterwards — rebuilds — start fresh.
    fn poison_groups(&self, err: CommError) {
        for g in lock(&self.groups).values().filter_map(Weak::upgrade) {
            g.poison_tree(err);
        }
    }

    /// Resolve in-flight exchanges with `err` — all of them, or only one
    /// group's.
    fn fail_pending(&self, err: CommError, only_group: Option<u64>) {
        let depth = {
            let mut pending = lock(&self.pending);
            let keys: Vec<(u64, u64)> = pending
                .keys()
                .filter(|(g, _)| only_group.is_none_or(|og| og == *g))
                .copied()
                .collect();
            for k in keys {
                if let Some(tx) = pending.remove(&k) {
                    let _ = tx.send(Err(err));
                }
            }
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

fn reader_loop(mut stream: Stream, ep: Weak<Endpoint>) {
    loop {
        let (frame, nbytes) = match read_frame_sized(&mut stream) {
            Ok(f) => f,
            Err(e) => {
                if let Some(ep) = ep.upgrade() {
                    ep.fail_connection(CommError::Io { kind: e.kind() });
                }
                return;
            }
        };
        let Some(ep) = ep.upgrade() else { return };
        *lock(&ep.last_inbound) = Instant::now();
        let total = ep.rx_bytes.add(nbytes);
        let rec = mics_trace::global();
        if rec.is_enabled() {
            let track = format!("rank{} rx bytes", ep.world_rank);
            rec.counter(DATAPLANE_PROCESS, &track, &track, total as f64);
        }
        match frame {
            Frame::Reply { group, seq, all } => {
                let (slot, depth) = {
                    let mut pending = lock(&ep.pending);
                    let slot = pending.remove(&(group, seq));
                    (slot, pending.len())
                };
                if let Some(tx) = slot {
                    let _ = tx.send(Ok(all));
                }
                ep.note_pending_depth(depth);
            }
            Frame::GroupPoison { group, err } => {
                if let Some(g) = lock(&ep.groups).get(&group).and_then(Weak::upgrade) {
                    g.poison_tree(err);
                }
                ep.fail_pending(err, Some(group));
            }
            Frame::WorldPoison { err } => {
                ep.poison_groups(err);
                ep.fail_pending(err, None);
            }
            Frame::Ping => {
                let _ = ep.send(&Frame::Pong);
            }
            Frame::Pong => {}
            // Rank-bound traffic only; anything else is a protocol error.
            other => {
                let _ = other;
                ep.fail_connection(CommError::Io { kind: std::io::ErrorKind::InvalidData });
                return;
            }
        }
    }
}

fn heartbeat_loop(ep: Weak<Endpoint>) {
    loop {
        std::thread::sleep(HEARTBEAT_INTERVAL);
        let Some(ep) = ep.upgrade() else { return };
        if ep.failure().is_some() {
            return;
        }
        if lock(&ep.last_inbound).elapsed() > ep.heartbeat_grace {
            mics_trace::global().instant(
                DATAPLANE_PROCESS,
                &format!("rank{}", ep.world_rank),
                "heartbeat missed",
                "fault",
                vec![("grace_ms", Arg::from(ep.heartbeat_grace.as_millis() as u64))],
            );
            ep.fail_connection(CommError::Io { kind: std::io::ErrorKind::TimedOut });
            return;
        }
        if ep.send(&Frame::Ping).is_err() {
            return;
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
        {
            let mut broken = lock(&self.broken);
            if broken.is_some() {
                return;
            }
            *broken = Some(err);
        }
        for child in lock(&self.children).values() {
            child.poison_tree(err);
        }
    }

    /// Explicit failure report: poison locally and tell the hub, which
    /// relays a `WorldPoison` to every connected peer.
    pub(crate) fn mark_failed(&self, rank: usize) {
        self.poison_tree(CommError::RankFailed { rank });
        let _ = self.ep.send(&Frame::Failed { rank: rank as u64 });
    }

    /// The sequenced exchange over the wire: send this member's batch, wait
    /// (deadline-bounded) for the hub's assembled reply.
    pub(crate) fn exchange(&self, rank: usize, parts: &[&[f32]]) -> Result<Vec<Parts>, CommError> {
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
        let frame = Frame::Exchange {
            group: self.id,
            seq,
            world: self.world as u64,
            member: rank as u64,
            parts: parts.iter().map(|p| p.to_vec()).collect(),
        };
        if let Err(e) = self.ep.send(&frame) {
            let depth = {
                let mut pending = lock(&self.ep.pending);
                pending.remove(&(self.id, seq));
                pending.len()
            };
            self.ep.note_pending_depth(depth);
            return Err(e);
        }
        let timeout = self.timeout();
        match rx.recv_timeout(timeout) {
            Ok(result) => result,
            Err(RecvTimeoutError::Timeout) => {
                let depth = {
                    let mut pending = lock(&self.ep.pending);
                    pending.remove(&(self.id, seq));
                    pending.len()
                };
                self.ep.note_pending_depth(depth);
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
    pub(crate) fn child(self: &Arc<Self>, key: ChildKey, world: usize) -> Arc<SocketGroup> {
        let mut children = lock(&self.children);
        Arc::clone(children.entry(key).or_insert_with(|| {
            SocketGroup::new(child_id(self.id, key), world, self.timeout(), Arc::clone(&self.ep))
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
    /// How long to tolerate a silent hub before failing the connection.
    pub heartbeat_grace: Duration,
}

impl SocketWorldConfig {
    /// Defaults for everything but the identity: [`DEFAULT_TIMEOUT`],
    /// [`RetryPolicy::default`], [`DEFAULT_HEARTBEAT_GRACE`].
    pub fn new(addr: impl Into<String>, rank: usize, world: usize) -> Self {
        SocketWorldConfig {
            addr: addr.into(),
            rank,
            world,
            timeout: DEFAULT_TIMEOUT,
            retry: RetryPolicy::default(),
            heartbeat_grace: DEFAULT_HEARTBEAT_GRACE,
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
    let reader = stream.try_clone().map_err(|e| CommError::Io { kind: e.kind() })?;
    let raw = stream.try_clone().map_err(|e| CommError::Io { kind: e.kind() })?;
    let counters = socket_counters();
    let ep = Arc::new(Endpoint {
        writer: Mutex::new(BufWriter::new(stream)),
        raw,
        world_rank: cfg.rank,
        pending: Mutex::new(HashMap::new()),
        groups: Mutex::new(HashMap::new()),
        failed: Mutex::new(None),
        last_inbound: Mutex::new(Instant::now()),
        heartbeat_grace: cfg.heartbeat_grace,
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
    let weak = Arc::downgrade(&ep);
    std::thread::Builder::new()
        .name(format!("mics-sock-hb-{}", cfg.rank))
        .spawn(move || heartbeat_loop(weak))
        .expect("cannot spawn heartbeat thread");
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
        let frames = vec![
            Frame::Hello { rank: 3, world: 8 },
            Frame::Exchange {
                group: 42,
                seq: 7,
                world: 4,
                member: 2,
                parts: vec![vec![1.0, -2.5, f32::from_bits(0x7fc0_0001)], vec![], vec![0.0]],
            },
            Frame::Abort {
                group: 9,
                err: CommError::Timeout { waited: Duration::from_millis(250) },
            },
            Frame::Failed { rank: 5 },
            Frame::Ping,
            Frame::Pong,
            Frame::Bye,
            Frame::Reply { group: 1, seq: 0, all: vec![vec![vec![7.25]], vec![]] },
            Frame::GroupPoison { group: 2, err: CommError::RankFailed { rank: 1 } },
            Frame::WorldPoison { err: CommError::PeerDisconnected { rank: 0 } },
            Frame::WorldPoison { err: CommError::Io { kind: std::io::ErrorKind::ConnectionReset } },
        ];
        for frame in frames {
            let bytes = encode_frame(&frame);
            let mut r = &bytes[..];
            let back = read_frame(&mut r).expect("decode");
            // Compare bit patterns (NaN payloads must survive the wire).
            assert_eq!(format!("{back:?}"), format!("{frame:?}"));
            assert!(r.is_empty(), "frame must consume all bytes");
        }
    }

    /// The bytes a frame puts on the wire, length prefix included.
    fn wire_bytes(frame: &Frame) -> Vec<u8> {
        encode_frame(frame)
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// The two halves of one 2-member exchange: part lengths `[0, 1, 3]`
    /// carrying NaN payloads, `-0.0` and denormals.
    fn golden_halves() -> [Parts; 2] {
        let f = f32::from_bits;
        [
            vec![vec![], vec![f(0x7fc0_0001)], vec![-0.0, f(0x0000_0001), 1.5]],
            vec![vec![], vec![f(0xffc1_2345)], vec![2.0, -0.0, f(0x007f_ffff)]],
        ]
    }

    /// One frame per variant with the wire bytes the codec produced for it
    /// before the wire layer was factored out. The format is pinned: these
    /// constants change only with a deliberate protocol revision.
    fn golden_frames() -> Vec<(Frame, &'static str)> {
        let [h0, h1] = golden_halves();
        let exchange =
            |member, parts| Frame::Exchange { group: 42, seq: 7, world: 2, member, parts };
        vec![
            (Frame::Hello { rank: 3, world: 8 }, "110000000103000000000000000800000000000000"),
            (exchange(0, h0.clone()), "41000000022a000000000000000700000000000000020000000000000000000000000000000300000000000000010000000100c07f0300000000000080010000000000c03f"),
            (exchange(1, h1.clone()), "41000000022a000000000000000700000000000000020000000000000001000000000000000300000000000000010000004523c1ff030000000000004000000080ffff7f00"),
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
            (Frame::Reply { group: 42, seq: 7, all: vec![h0, h1] }, "550000000a2a000000000000000700000000000000020000000300000000000000010000000100c07f0300000000000080010000000000c03f0300000000000000010000004523c1ff030000000000004000000080ffff7f00"),
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
        let frame =
            Frame::Exchange { group: 0, seq: 0, world: 1, member: 0, parts: vec![words.clone()] };
        let mut r = &encode_frame(&frame)[..];
        match read_frame(&mut r).unwrap() {
            Frame::Exchange { parts, .. } => {
                let got: Vec<u32> = parts[0].iter().map(|x| x.to_bits()).collect();
                let want: Vec<u32> = words.iter().map(|x| x.to_bits()).collect();
                assert_eq!(got, want);
            }
            other => panic!("wrong frame {other:?}"),
        }
    }

    #[test]
    fn truncated_and_oversized_frames_are_rejected() {
        let bytes = encode_frame(&Frame::Hello { rank: 1, world: 2 });
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
            .map(|c| std::thread::spawn(move || c.all_reduce(&[c.rank() as f32 + 1.0])))
            .collect();
        for h in handles {
            assert_eq!(h.join().unwrap(), vec![3.0]);
        }
        assert!(rx.get() > rx0, "hub replies must be counted as received bytes");
        assert_eq!(
            socket_counters().counter("socket.rank0.pending").get(),
            0,
            "no exchange may be left in flight after the collective completes"
        );
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

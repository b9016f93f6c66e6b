//! The rendezvous switchboard of the socket transport.
//!
//! A [`Hub`] is the star center every rank process connects to. It holds no
//! collective semantics at all: it matches the `world` halves of each
//! `(group, seq)` exchange and answers every member with the piece each
//! *other* member addressed to it, in member order — never the member's own
//! contribution, never a piece addressed to someone else. Folds, layouts,
//! and shape checks all stay rank-side, which is what keeps socket results
//! bit-identical to the shared-memory transport.
//!
//! A piece is opaque here. Of an `Exchange` the hub reads the fixed header
//! and *validates* the pieces behind it by walking their length fields and
//! destinations (a malformed length or addressing drops the connection and
//! poisons the world like any other protocol error); it never reads a
//! payload value. Each half's bytes are held as they arrived, behind one
//! `Arc`. A completed exchange is answered without copying a payload byte:
//! member `m`'s reply is a 21-byte header plus borrowed byte ranges of the
//! other halves — the pieces addressed to `m` — which its writer thread
//! sends in one vectored write loop.
//!
//! What the hub *does* own is failure detection and propagation:
//!
//! * a connection that reaches EOF (SIGKILLed process) or goes silent past
//!   the grace without a clean `Bye` poisons the world —
//!   `WorldPoison(PeerDisconnected)` to every surviving rank, every
//!   existing group poisoned, every held exchange resolved;
//! * an explicit `Failed { rank }` report (a panicking worker) does the
//!   same with `RankFailed`;
//! * a member's `Abort` (deadline expired) poisons only that group, waking
//!   the peers already held on it with the same error.
//!
//! Groups created *after* a poison event start fresh — that is what lets
//! survivors shrink with `remove_rank` and keep collectivizing over the
//! same hub connection.
//!
//! Each connection has two threads, and liveness rides them; there is no
//! timer thread. The writer drains a **bounded** queue
//! ([`SEND_QUEUE_DEPTH`]): a slow or wedged receiver exerts backpressure on
//! the hub instead of ballooning its memory. With nothing queued for
//! [`HEARTBEAT_INTERVAL`] it sends a `Ping`, which a live rank's reader
//! answers with a `Pong`. The reader reads under the hub's grace: a
//! connection that sends nothing for that long (no frame, no `Pong`, no
//! `Hello` after it opened) is cut, and a registered one poisons the world.

use super::addressed;
use super::socket::{
    decode_frame, encode_frame, exchange_header, reply_header, ExchangeHeader, Frame, Routes,
    HEARTBEAT_INTERVAL, MAX_FRAME,
};
use super::wire::{self, Listener, Stream};
use crate::{lock, CommError};
use std::collections::{BTreeMap, HashMap};
use std::ops::Range;
use std::sync::mpsc::{sync_channel, RecvTimeoutError, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Outbound frames queued per connection before the hub considers the
/// receiver wedged — the bounded send queue that provides backpressure.
pub const SEND_QUEUE_DEPTH: usize = 64;

/// How long the hub tolerates a silent connection before treating it as
/// dead (any frame from the rank, a `Pong` included, restarts the wait).
pub const DEFAULT_HUB_GRACE: Duration = Duration::from_secs(5);

/// One member's half of a pending exchange: who to answer, the `Exchange`
/// payload it sent, held as it arrived, and where its pieces lie in it.
struct Half {
    conn: u64,
    payload: Arc<Vec<u8>>,
    routes: Routes,
}

/// An exchange the hub is holding until all `world` members arrive.
struct PendingExchange {
    world: usize,
    by_member: BTreeMap<u64, Half>,
}

/// One queued frame: its own bytes, then borrowed ranges of held payloads
/// (a `Reply`'s entries; empty for every other frame).
struct Outbound {
    head: Vec<u8>,
    held: Vec<(Arc<Vec<u8>>, Range<usize>)>,
}

struct ConnHandle {
    tx: SyncSender<Outbound>,
    stream: Stream,
}

impl ConnHandle {
    fn send(&self, frame: &Frame) {
        self.send_out(Outbound { head: encode_frame(frame), held: Vec::new() });
    }

    /// Queue a frame; a full queue blocks briefly, then the connection is
    /// declared wedged and cut (backpressure with an upper bound, so one
    /// stuck receiver cannot wedge the whole hub).
    fn send_out(&self, frame: Outbound) {
        match self.tx.try_send(frame) {
            Ok(()) => {}
            Err(TrySendError::Full(buf)) => {
                if self.tx.send(buf).is_err() {
                    self.stream.shutdown();
                }
            }
            Err(TrySendError::Disconnected(_)) => self.stream.shutdown(),
        }
    }
}

struct HubState {
    conns: Mutex<HashMap<u64, Arc<ConnHandle>>>,
    pending: Mutex<HashMap<(u64, u64), PendingExchange>>,
    /// Poison state per group id; an entry exists once a group has been
    /// seen. Groups poisoned by a process failure answer any further
    /// exchange with `GroupPoison` immediately.
    groups: Mutex<HashMap<u64, Option<CommError>>>,
    /// The most recent process-level failure. Kept so a rank whose
    /// connection registers *after* the `WorldPoison` broadcast (startup
    /// races a crash) is greeted with the poison instead of missing it.
    world_failed: Mutex<Option<CommError>>,
    grace: Duration,
}

impl HubState {
    /// Process-level failure: poison every known group, resolve every held
    /// exchange, and tell every connected rank.
    fn world_failure(&self, err: CommError) {
        lock(&self.world_failed).get_or_insert(err);
        for poisoned in lock(&self.groups).values_mut() {
            if poisoned.is_none() {
                *poisoned = Some(err);
            }
        }
        lock(&self.pending).clear();
        for conn in lock(&self.conns).values() {
            conn.send(&Frame::WorldPoison { err });
        }
    }

    /// A connection ended without a clean `Bye`.
    fn conn_lost(&self, rank: u64) {
        let removed = lock(&self.conns).remove(&rank);
        if let Some(conn) = removed {
            conn.stream.shutdown();
            self.world_failure(CommError::PeerDisconnected { rank: rank as usize });
        }
    }

    /// One member's half of an exchange arrived: hold its payload (taken
    /// out of the connection's read buffer, not copied) and, when it
    /// completes the exchange, answer every member with the pieces the
    /// others addressed to it. A half that disagrees with its exchange on
    /// the group size, or repeats a member, is a protocol error.
    fn on_exchange(
        &self,
        rank: u64,
        header: ExchangeHeader,
        routes: Routes,
        payload: &mut Vec<u8>,
    ) -> std::io::Result<()> {
        let ExchangeHeader { group, seq, world, member } = header;
        let reply_err = {
            let mut groups = lock(&self.groups);
            *groups.entry(group).or_insert(None)
        };
        if let Some(err) = reply_err {
            if let Some(conn) = lock(&self.conns).get(&rank) {
                conn.send(&Frame::GroupPoison { group, err });
            }
            return Ok(());
        }
        let completed = {
            let mut pending = lock(&self.pending);
            let entry = pending.entry((group, seq)).or_insert_with(|| PendingExchange {
                world: world as usize,
                by_member: BTreeMap::new(),
            });
            if entry.world as u64 != world || entry.by_member.contains_key(&member) {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!("rank {rank} sent member {member} of {world} to a held exchange"),
                ));
            }
            let payload = Arc::new(std::mem::take(payload));
            entry.by_member.insert(member, Half { conn: rank, payload, routes });
            if entry.by_member.len() == entry.world {
                pending.remove(&(group, seq))
            } else {
                None
            }
        };
        if let Some(done) = completed {
            let conns = lock(&self.conns);
            for (&to, half) in &done.by_member {
                let held = (done.by_member.iter().filter(|&(&from, _)| from != to))
                    .map(|(&from, h)| {
                        let range = addressed(&h.routes, from as usize, to as usize);
                        (Arc::clone(&h.payload), range.clone())
                    })
                    .collect();
                if let Some(conn) = conns.get(&half.conn) {
                    conn.send_out(Outbound {
                        head: reply_header(group, seq, done.world - 1),
                        held,
                    });
                }
            }
        }
        Ok(())
    }

    /// Handle one inbound payload; `Ok(false)` is the peer's clean `Bye`.
    fn on_frame(&self, rank: u64, payload: &mut Vec<u8>) -> std::io::Result<bool> {
        if let Some((header, routes)) = exchange_header(payload)? {
            self.on_exchange(rank, header, routes, payload)?;
            return Ok(true);
        }
        match decode_frame(payload)? {
            Frame::Bye => return Ok(false),
            Frame::Abort { group, err } => {
                lock(&self.groups).insert(group, Some(err));
                let mut pending = lock(&self.pending);
                let conns = lock(&self.conns);
                pending.retain(|&(g, _), held| {
                    if g == group {
                        for conn in held.by_member.values().filter_map(|h| conns.get(&h.conn)) {
                            conn.send(&Frame::GroupPoison { group, err });
                        }
                    }
                    g != group
                });
            }
            Frame::Failed { rank } => {
                self.world_failure(CommError::RankFailed { rank: rank as usize });
            }
            Frame::Pong => {}
            other => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!("unexpected frame from rank {rank}: {other:?}"),
                ));
            }
        }
        Ok(true)
    }
}

fn conn_loop(state: Arc<HubState>, stream: Stream) {
    // Every read, the first included, waits at most the grace.
    let timed = stream.set_read_timeout(Some(state.grace));
    let (Ok(()), Ok(mut out), Ok(reader)) = (timed, stream.try_clone(), stream.try_clone()) else {
        return;
    };
    let mut reader = std::io::BufReader::new(reader);
    // One receive buffer for the life of the connection (an `Exchange`
    // payload is moved out of it into the pending table).
    let mut buf = Vec::new();
    let mut read = |buf: &mut Vec<u8>| wire::read_frame_into(&mut reader, MAX_FRAME, buf);
    // The first frame must identify the rank.
    let rank = match read(&mut buf).and_then(|()| decode_frame(&buf)) {
        Ok(Frame::Hello { rank, .. }) => rank,
        _ => {
            stream.shutdown();
            return;
        }
    };
    let (tx, rx) = sync_channel::<Outbound>(SEND_QUEUE_DEPTH);
    let handle = Arc::new(ConnHandle { tx, stream });
    lock(&state.conns).insert(rank, Arc::clone(&handle));
    // A crash can beat a slow-starting peer's registration: deliver any
    // already-declared world failure to the latecomer explicitly.
    if let Some(err) = *lock(&state.world_failed) {
        handle.send(&Frame::WorldPoison { err });
    }
    // Writer thread: drains the bounded queue, and pings the rank after a
    // heartbeat interval with nothing queued. Keeps draining after a write
    // error so blocked senders are never stranded.
    let writer = std::thread::Builder::new()
        .name(format!("mics-hub-tx-{rank}"))
        .spawn(move || {
            let mut dead = false;
            loop {
                let frame = match rx.recv_timeout(HEARTBEAT_INTERVAL) {
                    Ok(frame) => frame,
                    Err(RecvTimeoutError::Timeout) => {
                        Outbound { head: encode_frame(&Frame::Ping), held: Vec::new() }
                    }
                    Err(RecvTimeoutError::Disconnected) => return,
                };
                let slices: Vec<&[u8]> = std::iter::once(&frame.head[..])
                    .chain(frame.held.iter().map(|(payload, range)| &payload[range.clone()]))
                    .collect();
                dead = dead || wire::write_frame(&mut out, &slices).is_err();
            }
        })
        .expect("cannot spawn hub writer thread");
    let clean_bye = loop {
        if read(&mut buf).is_err() {
            break false;
        }
        match state.on_frame(rank, &mut buf) {
            Ok(true) => {}
            Ok(false) => break true,
            Err(_) => break false,
        }
    };
    if clean_bye {
        lock(&state.conns).remove(&rank);
    } else {
        state.conn_lost(rank);
    }
    handle.stream.shutdown();
    drop(handle);
    let _ = writer.join();
}

/// The rendezvous switchboard: bind it, hand its [`Hub::addr`] to every
/// worker, keep it alive for the lifetime of the job. Dropping the hub
/// shuts the listener and every connection down (and unlinks a Unix
/// socket's path).
#[derive(Debug)]
pub struct Hub {
    listener: Arc<Listener>,
    state: Arc<HubState>,
    /// The accept thread, until [`Hub::shutdown`] joins it.
    accept: Option<std::thread::JoinHandle<()>>,
}

impl std::fmt::Debug for HubState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HubState").field("conns", &lock(&self.conns).len()).finish()
    }
}

impl Hub {
    /// Bind `addr` (`host:port`, `host:0` for an ephemeral port, or
    /// `unix:<path>`) and start serving, with [`DEFAULT_HUB_GRACE`] as the
    /// silent-connection bound.
    pub fn spawn(addr: &str) -> std::io::Result<Hub> {
        Hub::spawn_with_grace(addr, DEFAULT_HUB_GRACE)
    }

    /// [`Hub::spawn`] with an explicit heartbeat grace — how long a silent
    /// connection survives before the hub declares it dead.
    pub fn spawn_with_grace(addr: &str, grace: Duration) -> std::io::Result<Hub> {
        let listener = Arc::new(Listener::bind(addr)?);
        let state = Arc::new(HubState {
            conns: Mutex::new(HashMap::new()),
            pending: Mutex::new(HashMap::new()),
            groups: Mutex::new(HashMap::new()),
            world_failed: Mutex::new(None),
            grace,
        });

        let (accepting, accept_state) = (Arc::clone(&listener), Arc::clone(&state));
        let accept = std::thread::Builder::new()
            .name("mics-hub-accept".into())
            .spawn(move || {
                while let Some(stream) = accepting.accept() {
                    let state = Arc::clone(&accept_state);
                    let _ = std::thread::Builder::new()
                        .name("mics-hub-conn".into())
                        .spawn(move || conn_loop(state, stream));
                }
            })
            .expect("cannot spawn hub accept thread");
        Ok(Hub { listener, state, accept: Some(accept) })
    }

    /// The bound rendezvous address workers should connect to (`host:port`
    /// or `unix:<path>`; for a `host:0` bind this carries the real port).
    pub fn addr(&self) -> &str {
        self.listener.local_addr()
    }

    /// Number of currently connected ranks.
    pub fn connections(&self) -> usize {
        lock(&self.state.conns).len()
    }

    /// Stop serving: close every registered connection and join the
    /// accept thread (a connection that never said `Hello` closes within
    /// the grace). Idempotent; called automatically on drop.
    pub fn shutdown(&mut self) {
        self.listener.shutdown();
        for conn in lock(&self.state.conns).drain() {
            conn.1.stream.shutdown();
        }
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
    }
}

impl Drop for Hub {
    fn drop(&mut self) {
        self.shutdown();
    }
}

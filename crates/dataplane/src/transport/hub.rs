//! The rendezvous switchboard of the socket transport.
//!
//! A [`Hub`] is the star center every rank process connects to. It holds no
//! collective semantics at all: it matches the `world` halves of each
//! `(group, seq)` exchange and answers every member with all members'
//! batches in member order. Folds, layouts, and shape checks all stay
//! rank-side, which is what keeps socket results bit-identical to the
//! shared-memory transport.
//!
//! What the hub *does* own is failure detection and propagation:
//!
//! * a connection that reaches EOF (SIGKILLed process) or goes silent past
//!   the heartbeat grace without a clean `Bye` poisons the world —
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
//! Outbound frames go through a **bounded** per-connection queue
//! ([`SEND_QUEUE_DEPTH`]) drained by a dedicated writer thread: a slow or
//! wedged receiver exerts backpressure on the hub instead of ballooning
//! its memory, and the heartbeat sweeper reaps it if it stays silent.

use super::socket::{encode_frame, read_frame, Frame, Stream};
use crate::{lock, CommError};
use std::collections::{BTreeMap, HashMap};
use std::io::BufReader;
use std::net::TcpListener;
use std::os::unix::net::UnixListener;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{sync_channel, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Outbound frames queued per connection before the hub considers the
/// receiver wedged — the bounded send queue that provides backpressure.
pub const SEND_QUEUE_DEPTH: usize = 64;

/// How long the hub tolerates a silent connection before treating it as
/// dead (frames and pings both refresh liveness).
pub const DEFAULT_HUB_GRACE: Duration = Duration::from_secs(5);

/// One member's half of a pending exchange: who to answer, and with what.
struct Half {
    conn: u64,
    parts: Vec<Vec<f32>>,
}

/// An exchange the hub is holding until all `world` members arrive.
struct PendingExchange {
    world: usize,
    by_member: BTreeMap<u64, Half>,
}

struct ConnHandle {
    tx: SyncSender<Vec<u8>>,
    stream: Stream,
    last_seen: Mutex<Instant>,
}

impl ConnHandle {
    /// Queue a frame; a full queue blocks briefly, then the connection is
    /// declared wedged and cut (backpressure with an upper bound, so one
    /// stuck receiver cannot wedge the whole hub).
    fn send(&self, frame: &Frame) {
        match self.tx.try_send(encode_frame(frame)) {
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

    fn on_frame(&self, rank: u64, frame: Frame) -> std::io::Result<()> {
        match frame {
            Frame::Exchange { group, seq, world, member, parts } => {
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
                    entry.by_member.insert(member, Half { conn: rank, parts });
                    if entry.by_member.len() == entry.world {
                        pending.remove(&(group, seq))
                    } else {
                        None
                    }
                };
                if let Some(done) = completed {
                    let all: Vec<Vec<Vec<f32>>> =
                        done.by_member.values().map(|h| h.parts.clone()).collect();
                    let reply = Frame::Reply { group, seq, all };
                    let conns = lock(&self.conns);
                    for half in done.by_member.values() {
                        if let Some(conn) = conns.get(&half.conn) {
                            conn.send(&reply);
                        }
                    }
                }
            }
            Frame::Abort { group, err } => {
                lock(&self.groups).insert(group, Some(err));
                let mut pending = lock(&self.pending);
                let dead: Vec<(u64, u64)> =
                    pending.keys().filter(|(g, _)| *g == group).copied().collect();
                let conns = lock(&self.conns);
                for key in dead {
                    if let Some(p) = pending.remove(&key) {
                        for half in p.by_member.values() {
                            if let Some(conn) = conns.get(&half.conn) {
                                conn.send(&Frame::GroupPoison { group, err });
                            }
                        }
                    }
                }
            }
            Frame::Failed { rank } => {
                self.world_failure(CommError::RankFailed { rank: rank as usize });
            }
            Frame::Ping => {
                if let Some(conn) = lock(&self.conns).get(&rank) {
                    conn.send(&Frame::Pong);
                }
            }
            Frame::Pong => {}
            other => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!("unexpected frame from rank {rank}: {other:?}"),
                ));
            }
        }
        Ok(())
    }
}

fn conn_loop(state: Arc<HubState>, stream: Stream) {
    let write_half = match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    };
    let mut reader = BufReader::new(match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    });
    // The first frame must identify the rank.
    let rank = match read_frame(&mut reader) {
        Ok(Frame::Hello { rank, .. }) => rank,
        _ => {
            stream.shutdown();
            return;
        }
    };
    let (tx, rx) = sync_channel::<Vec<u8>>(SEND_QUEUE_DEPTH);
    let handle = Arc::new(ConnHandle { tx, stream, last_seen: Mutex::new(Instant::now()) });
    lock(&state.conns).insert(rank, Arc::clone(&handle));
    // A crash can beat a slow-starting peer's registration: deliver any
    // already-declared world failure to the latecomer explicitly.
    if let Some(err) = *lock(&state.world_failed) {
        handle.send(&Frame::WorldPoison { err });
    }
    // Writer thread: drains the bounded queue. Keeps draining after a write
    // error so blocked senders are never stranded.
    let writer = std::thread::Builder::new()
        .name(format!("mics-hub-tx-{rank}"))
        .spawn(move || {
            let mut out = write_half;
            let mut dead = false;
            while let Ok(buf) = rx.recv() {
                if !dead && std::io::Write::write_all(&mut out, &buf).is_err() {
                    dead = true;
                }
                if !dead && std::io::Write::flush(&mut out).is_err() {
                    dead = true;
                }
            }
        })
        .expect("cannot spawn hub writer thread");
    let mut clean_bye = false;
    loop {
        match read_frame(&mut reader) {
            Ok(Frame::Bye) => {
                clean_bye = true;
                break;
            }
            Ok(frame) => {
                *lock(&handle.last_seen) = Instant::now();
                if state.on_frame(rank, frame).is_err() {
                    break;
                }
            }
            Err(_) => break,
        }
    }
    if clean_bye {
        lock(&state.conns).remove(&rank);
    } else {
        state.conn_lost(rank);
    }
    handle.stream.shutdown();
    drop(handle);
    let _ = writer.join();
}

enum Listener {
    Tcp(TcpListener),
    Unix(UnixListener, String),
}

impl Listener {
    fn accept(&self) -> std::io::Result<Stream> {
        Ok(match self {
            Listener::Tcp(l) => {
                let (s, _) = l.accept()?;
                s.set_nodelay(true)?;
                Stream::Tcp(s)
            }
            Listener::Unix(l, _) => Stream::Unix(l.accept()?.0),
        })
    }
}

/// The rendezvous switchboard: bind it, hand its [`Hub::addr`] to every
/// worker, keep it alive for the lifetime of the job. Dropping the hub
/// shuts the listener and every connection down.
#[derive(Debug)]
pub struct Hub {
    addr: String,
    state: Arc<HubState>,
    stop: Arc<AtomicBool>,
    accept: Option<std::thread::JoinHandle<()>>,
    sweeper: Option<std::thread::JoinHandle<()>>,
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
    /// rank survives before the hub declares it dead.
    pub fn spawn_with_grace(addr: &str, grace: Duration) -> std::io::Result<Hub> {
        let listener = if let Some(path) = addr.strip_prefix("unix:") {
            // A stale socket file from a previous run would fail the bind.
            let _ = std::fs::remove_file(path);
            Listener::Unix(UnixListener::bind(path)?, path.to_string())
        } else {
            Listener::Tcp(TcpListener::bind(addr)?)
        };
        let bound = match &listener {
            Listener::Tcp(l) => l.local_addr()?.to_string(),
            Listener::Unix(_, path) => format!("unix:{path}"),
        };
        let state = Arc::new(HubState {
            conns: Mutex::new(HashMap::new()),
            pending: Mutex::new(HashMap::new()),
            groups: Mutex::new(HashMap::new()),
            world_failed: Mutex::new(None),
            grace,
        });
        let stop = Arc::new(AtomicBool::new(false));

        let accept_state = Arc::clone(&state);
        let accept_stop = Arc::clone(&stop);
        let accept = std::thread::Builder::new()
            .name("mics-hub-accept".into())
            .spawn(move || {
                while !accept_stop.load(Ordering::Relaxed) {
                    match listener.accept() {
                        Ok(stream) => {
                            let state = Arc::clone(&accept_state);
                            let _ = std::thread::Builder::new()
                                .name("mics-hub-conn".into())
                                .spawn(move || conn_loop(state, stream));
                        }
                        Err(_) => {
                            if accept_stop.load(Ordering::Relaxed) {
                                break;
                            }
                            // Transient accept error: back off instead of
                            // spinning.
                            std::thread::sleep(Duration::from_millis(10));
                        }
                    }
                }
            })
            .expect("cannot spawn hub accept thread");

        let sweep_state = Arc::clone(&state);
        let sweep_stop = Arc::clone(&stop);
        let sweeper = std::thread::Builder::new()
            .name("mics-hub-sweep".into())
            .spawn(move || {
                while !sweep_stop.load(Ordering::Relaxed) {
                    std::thread::sleep(Duration::from_millis(100));
                    let stale: Vec<u64> = lock(&sweep_state.conns)
                        .iter()
                        .filter(|(_, c)| lock(&c.last_seen).elapsed() > sweep_state.grace)
                        .map(|(&r, _)| r)
                        .collect();
                    for rank in stale {
                        sweep_state.conn_lost(rank);
                    }
                }
            })
            .expect("cannot spawn hub sweeper thread");

        Ok(Hub { addr: bound, state, stop, accept: Some(accept), sweeper: Some(sweeper) })
    }

    /// The bound rendezvous address workers should connect to (`host:port`
    /// or `unix:<path>`; for a `host:0` bind this carries the real port).
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Number of currently connected ranks.
    pub fn connections(&self) -> usize {
        lock(&self.state.conns).len()
    }

    /// Stop serving: close every connection and join the service threads.
    /// Called automatically on drop.
    pub fn shutdown(&mut self) {
        if self.accept.is_none() {
            return;
        }
        self.stop.store(true, Ordering::Relaxed);
        // Unblock the accept loop with a throwaway connection.
        let _ = Stream::connect(&self.addr);
        for conn in lock(&self.state.conns).drain() {
            conn.1.stream.shutdown();
        }
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        if let Some(h) = self.sweeper.take() {
            let _ = h.join();
        }
        if let Some(path) = self.addr.strip_prefix("unix:") {
            let _ = std::fs::remove_file(path);
        }
    }
}

impl Drop for Hub {
    fn drop(&mut self) {
        self.shutdown();
    }
}

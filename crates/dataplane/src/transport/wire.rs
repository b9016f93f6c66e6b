//! The wire layer: the only code in the workspace that opens a socket or
//! touches a length prefix.
//!
//! One pair of types covers both address families — `host:port` TCP (Nagle
//! off: frames are latency-sensitive rendezvous traffic) and `unix:<path>` —
//! and one framing covers every service: a `u32` little-endian payload
//! length, then the payload. The payload is opaque at this layer; the
//! rank↔hub codec ([`super::socket`]) and the planner's JSON documents are
//! views their consumers lay over the bytes.
//!
//! The receiver never trusts a length prefix with an allocation:
//! [`read_frame_into`] bounds it, then lets the buffer grow only with bytes
//! that actually arrive.

use std::io::{Error, ErrorKind, IoSlice, Read, Result, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

/// A connected byte stream of either family.
#[derive(Debug)]
pub enum Stream {
    /// TCP (addresses like `127.0.0.1:7000`), Nagle disabled.
    Tcp(TcpStream),
    /// Unix-domain (addresses like `unix:/tmp/mics.sock`).
    Unix(UnixStream),
}

impl Stream {
    /// Connect to `addr` (`unix:<path>` or a TCP `host:port`).
    pub fn connect(addr: &str) -> Result<Stream> {
        if let Some(path) = addr.strip_prefix("unix:") {
            Ok(Stream::Unix(UnixStream::connect(path)?))
        } else {
            let s = TcpStream::connect(addr)?;
            s.set_nodelay(true)?;
            Ok(Stream::Tcp(s))
        }
    }

    /// A second OS handle to the same socket (reader/writer split).
    pub fn try_clone(&self) -> Result<Stream> {
        Ok(match self {
            Stream::Tcp(s) => Stream::Tcp(s.try_clone()?),
            Stream::Unix(s) => Stream::Unix(s.try_clone()?),
        })
    }

    /// Bound every blocking read on this socket, through any of its
    /// handles: a read that waits `timeout` for a byte fails with
    /// `WouldBlock` or `TimedOut` (the kind is the platform's). `None`
    /// waits forever.
    pub fn set_read_timeout(&self, timeout: Option<Duration>) -> Result<()> {
        match self {
            Stream::Tcp(s) => s.set_read_timeout(timeout),
            Stream::Unix(s) => s.set_read_timeout(timeout),
        }
    }

    /// Force both directions closed, unblocking any reader.
    pub fn shutdown(&self) {
        let _ = match self {
            Stream::Tcp(s) => s.shutdown(Shutdown::Both),
            Stream::Unix(s) => s.shutdown(Shutdown::Both),
        };
    }
}

impl Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> Result<usize> {
        match self {
            Stream::Tcp(s) => s.read(buf),
            Stream::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> Result<usize> {
        match self {
            Stream::Tcp(s) => s.write(buf),
            Stream::Unix(s) => s.write(buf),
        }
    }
    fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> Result<usize> {
        match self {
            Stream::Tcp(s) => s.write_vectored(bufs),
            Stream::Unix(s) => s.write_vectored(bufs),
        }
    }
    fn flush(&mut self) -> Result<()> {
        Ok(()) // sockets hold no user-space buffer
    }
}

#[derive(Debug)]
enum Socket {
    Tcp(TcpListener),
    Unix(UnixListener),
}

/// How long [`Listener::accept`] backs off after a transient error (out of
/// descriptors, a connection aborted in the backlog) instead of spinning.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(10);

/// A bound listener of either family. A Unix socket unlinks its path on
/// drop.
#[derive(Debug)]
pub struct Listener {
    socket: Socket,
    addr: String,
    stopped: AtomicBool,
}

impl Listener {
    /// Bind `addr` (`unix:<path>` or TCP; `127.0.0.1:0` picks a free port).
    /// A stale Unix socket file from a crashed server is replaced.
    pub fn bind(addr: &str) -> Result<Listener> {
        let (socket, addr) = if let Some(path) = addr.strip_prefix("unix:") {
            let _ = std::fs::remove_file(path);
            (Socket::Unix(UnixListener::bind(path)?), addr.to_string())
        } else {
            let listener = TcpListener::bind(addr)?;
            let bound = listener.local_addr()?.to_string();
            (Socket::Tcp(listener), bound)
        };
        Ok(Listener { socket, addr, stopped: AtomicBool::new(false) })
    }

    /// The address peers should [`Stream::connect`] to — the actual bound
    /// port for TCP, `unix:<path>` for Unix.
    pub fn local_addr(&self) -> &str {
        &self.addr
    }

    /// Block until a peer connects; `None` once [`Listener::shutdown`] was
    /// called.
    pub fn accept(&self) -> Option<Stream> {
        loop {
            let accepted = match &self.socket {
                Socket::Tcp(l) => l.accept().and_then(|(s, _)| {
                    s.set_nodelay(true)?;
                    Ok(Stream::Tcp(s))
                }),
                Socket::Unix(l) => l.accept().map(|(s, _)| Stream::Unix(s)),
            };
            if self.stopped.load(Ordering::SeqCst) {
                return None;
            }
            match accepted {
                Ok(stream) => return Some(stream),
                Err(_) => std::thread::sleep(ACCEPT_BACKOFF),
            }
        }
    }

    /// Stop accepting: set the flag, then wake the thread blocked in
    /// [`Listener::accept`] with a throw-away connection to ourselves.
    /// Idempotent.
    pub fn shutdown(&self) {
        if !self.stopped.swap(true, Ordering::SeqCst) {
            let _ = Stream::connect(&self.addr);
        }
    }
}

impl Drop for Listener {
    fn drop(&mut self) {
        if let Some(path) = self.addr.strip_prefix("unix:") {
            let _ = std::fs::remove_file(path);
        }
    }
}

/// What [`read_frame_into`] reserves before a payload byte has arrived, at
/// most: a prefix may claim up to the caller's `max`, the buffer grows past
/// this only as fast as the peer really sends.
const UPFRONT_RESERVE: usize = 1 << 20;

/// Read one frame's payload into `buf` (cleared first, capacity kept — pass
/// the same buffer for every frame of a connection). A zero or over-`max`
/// length prefix is `InvalidData` before any payload byte is read; a stream
/// that ends short of the prefix's claim is `UnexpectedEof`.
pub fn read_frame_into(r: &mut impl Read, max: usize, buf: &mut Vec<u8>) -> Result<()> {
    let mut prefix = [0u8; 4];
    r.read_exact(&mut prefix)?;
    let len = u32::from_le_bytes(prefix) as usize;
    if len == 0 || len > max {
        return Err(Error::new(ErrorKind::InvalidData, format!("bad frame length {len}")));
    }
    buf.clear();
    buf.reserve(len.min(UPFRONT_RESERVE));
    if r.take(len as u64).read_to_end(buf)? < len {
        return Err(Error::new(ErrorKind::UnexpectedEof, "stream ended inside a frame"));
    }
    Ok(())
}

/// Write one frame whose payload is the concatenation of `payload`'s slices
/// — a caller with one buffer passes one slice; the hub passes a reply
/// header and borrowed ranges of the payloads it holds. Prefix and slices go
/// out in vectored writes, looping until the OS has taken every byte.
pub fn write_frame(w: &mut impl Write, payload: &[&[u8]]) -> Result<()> {
    let len: usize = payload.iter().map(|s| s.len()).sum();
    let prefix = u32::try_from(len)
        .map_err(|_| Error::new(ErrorKind::InvalidInput, "frame over 4 GiB"))?
        .to_le_bytes();
    let mut slices: Vec<IoSlice<'_>> = std::iter::once(IoSlice::new(&prefix))
        .chain(payload.iter().map(|s| IoSlice::new(s)))
        .collect();
    let mut rest = &mut slices[..];
    while !rest.is_empty() {
        match w.write_vectored(rest) {
            Ok(0) => return Err(Error::new(ErrorKind::WriteZero, "peer took no bytes")),
            Ok(n) => IoSlice::advance_slices(&mut rest, n),
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn echo_once(listener: Listener) {
        let mut peer = listener.accept().expect("a peer connects");
        let mut buf = Vec::new();
        read_frame_into(&mut peer, 64, &mut buf).unwrap();
        write_frame(&mut peer, &[&buf]).unwrap();
    }

    #[test]
    fn tcp_round_trip() {
        let listener = Listener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().to_string();
        let t = std::thread::spawn(move || echo_once(listener));
        let mut c = Stream::connect(&addr).unwrap();
        write_frame(&mut c, &[b"hi"]).unwrap();
        let mut buf = Vec::new();
        read_frame_into(&mut c, 64, &mut buf).unwrap();
        assert_eq!(buf, b"hi");
        t.join().unwrap();
    }

    #[test]
    fn unix_round_trip_and_cleanup() {
        let path = std::env::temp_dir().join(format!("mics-wire-{}.sock", std::process::id()));
        let addr = format!("unix:{}", path.display());
        let listener = Listener::bind(&addr).unwrap();
        assert_eq!(listener.local_addr(), addr);
        let t = std::thread::spawn(move || echo_once(listener)); // dropped there
        let mut c = Stream::connect(&addr).unwrap();
        write_frame(&mut c, &[b"pi", b"", b"ng"]).unwrap();
        let mut buf = Vec::new();
        read_frame_into(&mut c, 64, &mut buf).unwrap();
        assert_eq!(buf, b"ping");
        t.join().unwrap();
        assert!(!path.exists(), "unix socket file must be unlinked on drop");
    }

    #[test]
    fn a_frame_of_many_slices_survives_short_writes() {
        /// A peer that takes at most three bytes per call.
        struct Trickle(Vec<u8>);
        impl Write for Trickle {
            fn write(&mut self, buf: &[u8]) -> Result<usize> {
                let n = buf.len().min(3);
                self.0.extend_from_slice(&buf[..n]);
                Ok(n)
            }
            fn flush(&mut self) -> Result<()> {
                Ok(())
            }
        }
        let mut peer = Trickle(Vec::new());
        write_frame(&mut peer, &[b"head", b"", b"a", b"body bytes"]).unwrap();
        let mut buf = Vec::new();
        read_frame_into(&mut &peer.0[..], 64, &mut buf).unwrap();
        assert_eq!(buf, b"headabody bytes");
    }

    #[test]
    fn shutdown_wakes_a_blocked_accept() {
        let listener = std::sync::Arc::new(Listener::bind("127.0.0.1:0").unwrap());
        let accepting = std::sync::Arc::clone(&listener);
        let t = std::thread::spawn(move || accepting.accept().is_none());
        listener.shutdown();
        listener.shutdown(); // idempotent
        assert!(t.join().unwrap(), "accept must return None after shutdown");
    }

    #[test]
    fn a_lying_length_prefix_does_not_size_the_allocation() {
        const MAX: usize = 1 << 28;
        let mut lying = (MAX as u32).to_le_bytes().to_vec();
        lying.extend_from_slice(&[7u8; 10]);
        let mut buf = Vec::new();
        let err = read_frame_into(&mut &lying[..], MAX, &mut buf).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::UnexpectedEof);
        assert!(buf.capacity() <= 2 << 20, "allocated {} for 10 bytes", buf.capacity());

        // Out-of-range prefixes fail before the body is touched.
        for bad in [0u32, MAX as u32 + 1] {
            let mut bytes = bad.to_le_bytes().to_vec();
            bytes.extend_from_slice(b"body");
            let mut r = &bytes[..];
            let err = read_frame_into(&mut r, MAX, &mut buf).unwrap_err();
            assert_eq!(err.kind(), ErrorKind::InvalidData, "prefix {bad}");
            assert_eq!(r, b"body", "no payload byte may be consumed");
        }
    }
}

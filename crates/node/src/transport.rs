//! The transport abstraction the reactor speaks through, plus the
//! real-socket implementation.
//!
//! A [`Transport`] hands out **non-blocking** connections addressed by
//! [`PeerId`] — the runtime never sees socket addresses, and no call on
//! a [`Conn`] or [`Listener`] ever parks the calling thread. The
//! contract is frame-out / readiness-in:
//!
//! * the write side is **frame-oriented**: [`Conn::try_send`] takes one
//!   whole frame and either accepts it (possibly into an internal
//!   buffer drained by [`Conn::flush`]) or reports backpressure by
//!   returning `Ok(false)` *without consuming the frame*. The frame is
//!   the unit of simulated loss on lossy transports — dropping a
//!   partial frame would desynchronize the stream, dropping a whole
//!   frame models a lost message;
//! * the read side is a **byte stream**: [`Conn::try_recv`] returns
//!   whatever fragment is ready right now (`Ok(None)` is the
//!   `WouldBlock` case), which is exactly what the incremental
//!   [`FrameDecoder`](bartercast_core::codec::FrameDecoder) exists to
//!   absorb.
//!
//! Readiness reaches the reactor one of two ways, reported by
//! [`Conn::ready_source`]:
//!
//! * [`ReadySource::Fd`] — a real file descriptor; the reactor sleeps
//!   in `poll(2)` over every registered fd ([`wait_readiness`]);
//! * [`ReadySource::Waker`] — the endpoint pushes its token onto the
//!   reactor's [`WakeQueue`] whenever bytes, EOF, or an inbound
//!   connection appear, and the reactor sleeps on that queue. This is
//!   the [`MemTransport`](crate::mem::MemTransport) path, and because
//!   wake tokens are drained in sorted order it is also what keeps the
//!   deterministic cluster driver's poll order reproducible.

use bartercast_util::units::PeerId;
use std::collections::{BTreeSet, HashMap};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// How a reactor should wait for this endpoint to make progress.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadySource {
    /// Poll this file descriptor (`poll(2)`).
    Fd(i32),
    /// The endpoint notifies the registered [`WakeQueue`] itself.
    Waker,
}

/// The token a [`Listener`] registers on its reactor's wake queue.
pub const LISTENER_TOKEN: u64 = u64::MAX;

#[derive(Default)]
struct WakeInner {
    ready: BTreeSet<u64>,
    kicked: bool,
}

/// A set of woken tokens plus a condvar to sleep on.
///
/// Transport endpoints registered via `register_waker` push their token
/// here when they become readable; the reactor drains the set (in
/// ascending token order, so pump order is deterministic) and sleeps on
/// it when idle. [`WakeQueue::kick`] wakes a sleeper without marking
/// any token ready — the shutdown path.
#[derive(Default)]
pub struct WakeQueue {
    inner: Mutex<WakeInner>,
    cv: Condvar,
}

impl WakeQueue {
    /// An empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Mark `token` ready and wake any sleeper.
    pub fn notify(&self, token: u64) {
        let mut inner = self.inner.lock().expect("wake lock");
        inner.ready.insert(token);
        self.cv.notify_all();
    }

    /// Wake any sleeper without marking a token ready.
    pub fn kick(&self) {
        let mut inner = self.inner.lock().expect("wake lock");
        inner.kicked = true;
        self.cv.notify_all();
    }

    /// Whether no token is ready.
    pub fn is_empty(&self) -> bool {
        self.inner.lock().expect("wake lock").ready.is_empty()
    }

    /// Take the currently ready tokens without blocking.
    pub fn drain(&self) -> BTreeSet<u64> {
        let mut inner = self.inner.lock().expect("wake lock");
        inner.kicked = false;
        std::mem::take(&mut inner.ready)
    }

    /// Sleep until a token is ready, a kick arrives, or `timeout`
    /// elapses; returns the ready tokens (possibly empty).
    pub fn wait(&self, timeout: Duration) -> BTreeSet<u64> {
        let deadline = Instant::now() + timeout;
        let mut inner = self.inner.lock().expect("wake lock");
        while inner.ready.is_empty() && !inner.kicked {
            let now = Instant::now();
            if now >= deadline {
                break;
            }
            let (guard, _) = self
                .cv
                .wait_timeout(inner, deadline - now)
                .expect("wake lock");
            inner = guard;
        }
        inner.kicked = false;
        std::mem::take(&mut inner.ready)
    }
}

/// One end of an established session. All methods are non-blocking.
pub trait Conn: Send {
    /// Queue one whole frame for transmission. `Ok(true)` means the
    /// frame was accepted (it may still sit in an internal buffer —
    /// call [`Conn::flush`] when the connection is writable);
    /// `Ok(false)` means backpressure: the frame was **not** consumed,
    /// retry after a flush makes progress. An error means the
    /// connection is unusable.
    fn try_send(&mut self, frame: &[u8]) -> io::Result<bool>;

    /// Push previously-buffered output toward the peer. Returns
    /// `Ok(true)` when nothing remains buffered.
    fn flush(&mut self) -> io::Result<bool>;

    /// Read up to `buf.len()` stream bytes without blocking. Returns
    /// `Ok(None)` when no data is ready (`WouldBlock`), `Ok(Some(0))`
    /// on clean end-of-stream, and `Ok(Some(n))` for `n` bytes read
    /// (any fragmentation is legal).
    fn try_recv(&mut self, buf: &mut [u8]) -> io::Result<Option<usize>>;

    /// Whether buffered output is waiting for writability (drives the
    /// `POLLOUT` interest on fd transports).
    fn wants_write(&self) -> bool {
        false
    }

    /// When in-flight data becomes readable, for transports that delay
    /// delivery ([`MemTransport`](crate::mem::MemTransport)); `None`
    /// when nothing is in flight or the transport has no delays.
    fn next_ready_at(&self) -> Option<Instant> {
        None
    }

    /// Hook this connection to a reactor wake queue under `token`
    /// (no-op for fd transports, which are waited on via `poll(2)`).
    fn register_waker(&mut self, _queue: &Arc<WakeQueue>, _token: u64) {}

    /// How a reactor should wait on this connection.
    fn ready_source(&self) -> ReadySource;
}

/// An accept queue bound to one local peer. Non-blocking.
pub trait Listener: Send {
    /// The next pending inbound connection, or `Ok(None)` when none is
    /// queued right now.
    fn try_accept(&mut self) -> io::Result<Option<Box<dyn Conn>>>;

    /// Hook this listener to a reactor wake queue (it should notify
    /// with [`LISTENER_TOKEN`]-style tokens when connections arrive).
    fn register_waker(&mut self, _queue: &Arc<WakeQueue>, _token: u64) {}

    /// How a reactor should wait on this listener.
    fn ready_source(&self) -> ReadySource;
}

/// A connection factory addressed by peer id.
pub trait Transport: Send + Sync {
    /// Bind an accept queue for `local`. Must be called before other
    /// peers can [`Transport::connect`] to it.
    fn listen(&self, local: PeerId) -> io::Result<Box<dyn Listener>>;

    /// Open a connection from `from` to `to`.
    fn connect(&self, from: PeerId, to: PeerId) -> io::Result<Box<dyn Conn>>;

    /// Forcibly sever every live connection touching `peer`, returning
    /// how many were killed. The listener survives, so the peer can be
    /// reconnected to — this is the harness's connection-churn
    /// injection point. Transports that cannot target individual
    /// connections (TCP) return `0`.
    fn disconnect(&self, _peer: PeerId) -> usize {
        0
    }
}

/// One entry in a [`wait_readiness`] poll set.
#[derive(Debug, Clone, Copy)]
pub struct FdInterest {
    /// The descriptor to watch.
    pub fd: i32,
    /// Watch for writability as well as readability.
    pub write: bool,
}

#[cfg(unix)]
mod sys {
    //! Minimal `poll(2)` FFI — enough to sleep on a set of fds without
    //! pulling in an external crate. Layout matches glibc/musl on
    //! every Linux target this repo builds for.
    #[repr(C)]
    pub struct PollFd {
        pub fd: i32,
        pub events: i16,
        pub revents: i16,
    }
    pub const POLLIN: i16 = 0x001;
    pub const POLLOUT: i16 = 0x004;
    extern "C" {
        pub fn poll(fds: *mut PollFd, nfds: u64, timeout: i32) -> i32;
    }
}

/// Sleep until any fd in `set` is readable (or writable, where
/// requested), or `timeout` elapses. With an empty set this is a plain
/// bounded sleep. On non-unix targets it degrades to a short sleep —
/// correctness is unaffected because the reactor re-polls every
/// connection after waking.
#[cfg(unix)]
pub fn wait_readiness(set: &[FdInterest], timeout: Duration) {
    let mut fds: Vec<sys::PollFd> = set
        .iter()
        .map(|e| sys::PollFd {
            fd: e.fd,
            events: sys::POLLIN | if e.write { sys::POLLOUT } else { 0 },
            revents: 0,
        })
        .collect();
    let ms = timeout.as_millis().min(i32::MAX as u128) as i32;
    // SAFETY: fds points at len valid pollfd structs for the call's
    // duration; poll does not retain the pointer.
    unsafe {
        sys::poll(fds.as_mut_ptr(), fds.len() as u64, ms.max(0));
    }
}

/// Non-unix fallback: bounded sleep (the reactor re-polls after).
#[cfg(not(unix))]
pub fn wait_readiness(_set: &[FdInterest], timeout: Duration) {
    std::thread::sleep(timeout.min(Duration::from_millis(2)));
}

/// Soft cap on buffered unsent bytes per TCP connection; `try_send`
/// reports backpressure once the buffer is at least this full.
const TCP_OUT_BUFFER_CAP: usize = 256 * 1024;

/// Loopback TCP transport: a shared `PeerId → SocketAddr` registry and
/// one non-blocking OS socket per session.
///
/// ```no_run
/// use bartercast_node::transport::{TcpTransport, Transport};
/// use bartercast_util::units::PeerId;
///
/// let t = TcpTransport::new();
/// let mut listener = t.listen(PeerId(1)).unwrap();
/// let mut conn = t.connect(PeerId(0), PeerId(1)).unwrap();
/// conn.try_send(b"\x02\x00\x00\x00hi").unwrap();
/// let _inbound = listener.try_accept().unwrap();
/// ```
#[derive(Debug, Clone, Default)]
pub struct TcpTransport {
    registry: Arc<Mutex<HashMap<PeerId, SocketAddr>>>,
}

impl TcpTransport {
    /// A transport with an empty peer registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether this host can bind a loopback socket at all — lets
    /// callers (benches, tests) skip the TCP path gracefully inside
    /// sandboxes without network namespaces.
    pub fn loopback_available() -> bool {
        TcpListener::bind("127.0.0.1:0").is_ok()
    }
}

impl Transport for TcpTransport {
    fn listen(&self, local: PeerId) -> io::Result<Box<dyn Listener>> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        self.registry
            .lock()
            .expect("registry lock")
            .insert(local, addr);
        Ok(Box::new(TcpAccept { listener }))
    }

    fn connect(&self, _from: PeerId, to: PeerId) -> io::Result<Box<dyn Conn>> {
        let addr = self
            .registry
            .lock()
            .expect("registry lock")
            .get(&to)
            .copied()
            .ok_or_else(|| {
                io::Error::new(
                    io::ErrorKind::NotFound,
                    format!("peer {to} is not listening"),
                )
            })?;
        let stream = TcpStream::connect_timeout(&addr, Duration::from_secs(5))?;
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        Ok(Box::new(TcpConn {
            stream,
            out: Vec::new(),
            out_pos: 0,
        }))
    }
}

struct TcpAccept {
    listener: TcpListener,
}

impl Listener for TcpAccept {
    fn try_accept(&mut self) -> io::Result<Option<Box<dyn Conn>>> {
        match self.listener.accept() {
            Ok((stream, _)) => {
                stream.set_nodelay(true)?;
                stream.set_nonblocking(true)?;
                Ok(Some(Box::new(TcpConn {
                    stream,
                    out: Vec::new(),
                    out_pos: 0,
                })))
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => Ok(None),
            Err(e) => Err(e),
        }
    }

    fn ready_source(&self) -> ReadySource {
        #[cfg(unix)]
        {
            use std::os::unix::io::AsRawFd;
            ReadySource::Fd(self.listener.as_raw_fd())
        }
        #[cfg(not(unix))]
        {
            ReadySource::Waker
        }
    }
}

struct TcpConn {
    stream: TcpStream,
    /// Unsent bytes; `out[out_pos..]` is pending.
    out: Vec<u8>,
    out_pos: usize,
}

impl TcpConn {
    fn flush_some(&mut self) -> io::Result<()> {
        while self.out_pos < self.out.len() {
            match self.stream.write(&self.out[self.out_pos..]) {
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::WriteZero,
                        "peer stopped reading",
                    ))
                }
                Ok(n) => self.out_pos += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        if self.out_pos == self.out.len() {
            self.out.clear();
            self.out_pos = 0;
        } else if self.out_pos > TCP_OUT_BUFFER_CAP {
            // reclaim drained prefix so the buffer doesn't creep
            self.out.drain(..self.out_pos);
            self.out_pos = 0;
        }
        Ok(())
    }
}

impl Conn for TcpConn {
    fn try_send(&mut self, frame: &[u8]) -> io::Result<bool> {
        self.flush_some()?;
        if self.out.len() - self.out_pos >= TCP_OUT_BUFFER_CAP {
            return Ok(false); // backpressure: frame not consumed
        }
        self.out.extend_from_slice(frame);
        self.flush_some()?;
        Ok(true)
    }

    fn flush(&mut self) -> io::Result<bool> {
        self.flush_some()?;
        Ok(self.out_pos == self.out.len())
    }

    fn try_recv(&mut self, buf: &mut [u8]) -> io::Result<Option<usize>> {
        match self.stream.read(buf) {
            Ok(n) => Ok(Some(n)),
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock
                    || e.kind() == io::ErrorKind::Interrupted =>
            {
                Ok(None)
            }
            Err(e) => Err(e),
        }
    }

    fn wants_write(&self) -> bool {
        self.out_pos < self.out.len()
    }

    fn ready_source(&self) -> ReadySource {
        #[cfg(unix)]
        {
            use std::os::unix::io::AsRawFd;
            ReadySource::Fd(self.stream.as_raw_fd())
        }
        #[cfg(not(unix))]
        {
            ReadySource::Waker
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(i: u32) -> PeerId {
        PeerId(i)
    }

    /// Poll-loop a try_recv until data (or EOF) arrives.
    fn recv_blocking(conn: &mut dyn Conn, buf: &mut [u8], timeout: Duration) -> Option<usize> {
        let deadline = Instant::now() + timeout;
        loop {
            match conn.try_recv(buf).unwrap() {
                Some(n) => return Some(n),
                None if Instant::now() >= deadline => return None,
                None => std::thread::sleep(Duration::from_millis(1)),
            }
        }
    }

    fn accept_blocking(l: &mut dyn Listener, timeout: Duration) -> Option<Box<dyn Conn>> {
        let deadline = Instant::now() + timeout;
        loop {
            match l.try_accept().unwrap() {
                Some(c) => return Some(c),
                None if Instant::now() >= deadline => return None,
                None => std::thread::sleep(Duration::from_millis(1)),
            }
        }
    }

    #[test]
    fn connect_to_unknown_peer_is_refused() {
        if !TcpTransport::loopback_available() {
            eprintln!("skipping: no loopback in this sandbox");
            return;
        }
        let t = TcpTransport::new();
        assert!(t.connect(p(0), p(9)).is_err());
    }

    #[test]
    fn tcp_roundtrip_with_fragmented_reads() {
        if !TcpTransport::loopback_available() {
            eprintln!("skipping: no loopback in this sandbox");
            return;
        }
        let t = TcpTransport::new();
        let mut listener = t.listen(p(1)).unwrap();
        let mut a = t.connect(p(0), p(1)).unwrap();
        assert!(a.try_send(b"hello frame").unwrap());
        let mut b = accept_blocking(listener.as_mut(), Duration::from_secs(2)).expect("inbound");
        let mut got = Vec::new();
        let deadline = Instant::now() + Duration::from_secs(2);
        while got.len() < 11 && Instant::now() < deadline {
            let mut chunk = [0u8; 4]; // force fragmentation
            if let Some(n) = recv_blocking(b.as_mut(), &mut chunk, Duration::from_millis(50)) {
                if n == 0 {
                    break;
                }
                got.extend_from_slice(&chunk[..n]);
            }
        }
        assert_eq!(&got, b"hello frame");
    }

    #[test]
    fn try_recv_would_block_without_data() {
        if !TcpTransport::loopback_available() {
            eprintln!("skipping: no loopback in this sandbox");
            return;
        }
        let t = TcpTransport::new();
        let mut listener = t.listen(p(1)).unwrap();
        let _a = t.connect(p(0), p(1)).unwrap();
        let mut b = accept_blocking(listener.as_mut(), Duration::from_secs(2)).expect("inbound");
        let mut buf = [0u8; 8];
        assert_eq!(b.try_recv(&mut buf).unwrap(), None, "no data was sent");
        assert!(!b.wants_write());
    }

    #[test]
    fn wake_queue_drains_tokens_in_sorted_order() {
        let q = WakeQueue::new();
        q.notify(9);
        q.notify(1);
        q.notify(5);
        let drained: Vec<u64> = q.drain().into_iter().collect();
        assert_eq!(drained, vec![1, 5, 9]);
        assert!(q.drain().is_empty());
    }

    #[test]
    fn wake_queue_kick_wakes_without_tokens() {
        let q = Arc::new(WakeQueue::new());
        let q2 = Arc::clone(&q);
        let h = std::thread::spawn(move || q2.wait(Duration::from_secs(5)));
        std::thread::sleep(Duration::from_millis(20));
        q.kick();
        let woken = h.join().unwrap();
        assert!(woken.is_empty(), "kick must not fabricate tokens");
    }
}

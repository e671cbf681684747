//! The in-process transport: duplex byte pipes with seeded delay,
//! frame loss, and fragmented delivery — now non-blocking and
//! waker-driven for the reactor.
//!
//! [`MemTransport`] gives the node runtime a socket-free network:
//! connections are pairs of FIFO byte pipes guarded by a mutex, so the
//! session code runs deterministically inside one process. Three
//! adversities are injected, all from seeded per-connection RNGs:
//!
//! * **loss** — each sent frame is dropped whole with probability
//!   `loss` (frame-aligned, so the stream never desynchronizes; a
//!   dropped frame models a lost message, which the periodic exchange
//!   protocol must absorb);
//! * **delay** — each accepted frame becomes readable only after a
//!   delay drawn from `[min_delay, max_delay]`, monotone per pipe so
//!   FIFO order is preserved;
//! * **fragmentation** — reads return random small chunks
//!   (`1..=max_read_chunk` bytes), so the incremental frame decoder is
//!   exercised on every message, not just in fuzz tests.
//!
//! **Determinism contract.** The adversity schedule is independent of
//! *when* and *how often* the reactor polls:
//!
//! * each direction of each connection owns **two** RNG streams — one
//!   consumed only on sends (loss + delay draws) and one consumed only
//!   on successful reads (fragment caps) — so interleaving polls with
//!   sends cannot shift either stream, and a `try_recv` that would
//!   block consumes nothing;
//! * RNG seeds derive from `(seed, from, to, per-pair connection
//!   ordinal)`, not from a transport-global connection counter, so the
//!   k-th `A → B` connection sees the same streams regardless of how
//!   dials of *other* pairs interleave with it;
//! * delays are computed against the transport's [`Clock`], so under a
//!   [`VirtualClock`](crate::clock::VirtualClock) the whole frame
//!   schedule is an exact function of the seeds — which is what the
//!   lockstep cluster driver's bitwise-equality regression test pins.
//!
//! [`MemTransport::disconnect`] severs every live pipe touching a
//! peer — the forced-disconnect injection the cluster harness uses to
//! prove the reconnect machinery works.

use crate::clock::{Clock, SystemClock};
use crate::transport::{Conn, Listener, Transport, WakeQueue};
use bartercast_util::units::PeerId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{HashMap, VecDeque};
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Adversity knobs for the in-process network.
#[derive(Debug, Clone, Copy)]
pub struct MemConfig {
    /// Probability an individual sent frame is dropped whole.
    pub loss: f64,
    /// Minimum one-way frame delay.
    pub min_delay: Duration,
    /// Maximum one-way frame delay (inclusive).
    pub max_delay: Duration,
    /// Largest fragment a single [`Conn::try_recv`] returns.
    pub max_read_chunk: usize,
    /// Seed for every per-connection RNG (combined with the endpoint
    /// pair and a per-pair connection ordinal, so distinct connections
    /// see distinct but reproducible streams regardless of global
    /// connect order).
    pub seed: u64,
}

impl Default for MemConfig {
    fn default() -> Self {
        MemConfig {
            loss: 0.0,
            min_delay: Duration::ZERO,
            max_delay: Duration::from_micros(200),
            max_read_chunk: 64,
            seed: 0xBC,
        }
    }
}

type Watcher = (Arc<WakeQueue>, u64);

/// One direction of a connection: a FIFO of delayed byte chunks.
#[derive(Default)]
struct PipeBuf {
    /// `(readable_at, bytes, read_offset)` in FIFO order.
    chunks: VecDeque<(Instant, Vec<u8>, usize)>,
    /// Monotone floor for the next chunk's `readable_at`.
    last_ready: Option<Instant>,
    closed: bool,
    /// The reader's reactor wake hook, if registered.
    watcher: Option<Watcher>,
}

impl PipeBuf {
    fn wake_reader(&self) {
        if let Some((queue, token)) = &self.watcher {
            queue.notify(*token);
        }
    }
}

#[derive(Default)]
struct Pipe {
    buf: Mutex<PipeBuf>,
}

impl Pipe {
    fn close(&self) {
        let mut buf = self.buf.lock().expect("pipe lock");
        buf.closed = true;
        buf.wake_reader();
    }

    fn is_closed(&self) -> bool {
        self.buf.lock().expect("pipe lock").closed
    }
}

/// Accept queue for one listening peer.
#[derive(Default)]
struct AcceptQueue {
    inner: Mutex<(VecDeque<MemConn>, Option<Watcher>)>,
}

impl AcceptQueue {
    fn push(&self, conn: MemConn) {
        let mut inner = self.inner.lock().expect("accept lock");
        inner.0.push_back(conn);
        if let Some((queue, token)) = &inner.1 {
            queue.notify(*token);
        }
    }
}

/// Book-keeping for [`MemTransport::disconnect`].
struct LiveConn {
    a: PeerId,
    b: PeerId,
    a_to_b: Arc<Pipe>,
    b_to_a: Arc<Pipe>,
}

impl LiveConn {
    /// Both ends are gone (dropped or severed): nothing left to cut.
    fn vanished(&self) -> bool {
        self.a_to_b.is_closed() && self.b_to_a.is_closed()
    }
}

#[derive(Default)]
struct Registry {
    listeners: HashMap<PeerId, Arc<AcceptQueue>>,
    /// Every connection [`MemTransport::disconnect`] may still have to
    /// cut, plus vanished ones not pruned yet.
    live: Vec<LiveConn>,
    /// `live` is pruned when it reaches this length: twice what the
    /// last prune left, so the list stays within 2× the connections
    /// actually open at amortised O(1) per connect.
    prune_at: usize,
    /// Per ordered pair `(from, to)`: how many connections have been
    /// opened. Seeds the per-connection RNGs, so the k-th `A → B`
    /// connection is reproducible regardless of other pairs' dials.
    pair_connects: HashMap<(PeerId, PeerId), u64>,
}

impl Registry {
    fn track(&mut self, conn: LiveConn) {
        if self.live.len() >= self.prune_at {
            self.live.retain(|c| !c.vanished());
            self.prune_at = 2 * self.live.len();
        }
        self.live.push(conn);
    }
}

/// The deterministic in-process transport. Cheap to clone; clones
/// share the same network.
#[derive(Clone)]
pub struct MemTransport {
    config: MemConfig,
    registry: Arc<Mutex<Registry>>,
    frames_dropped: Arc<AtomicU64>,
    clock: Arc<dyn Clock>,
}

impl MemTransport {
    /// An empty in-process network with the given adversity knobs,
    /// running on wall-clock time.
    pub fn new(config: MemConfig) -> Self {
        Self::with_clock(config, Arc::new(SystemClock))
    }

    /// An empty in-process network whose delay schedule is computed
    /// against `clock` — install a
    /// [`VirtualClock`](crate::clock::VirtualClock) for fully
    /// deterministic lockstep runs.
    pub fn with_clock(config: MemConfig, clock: Arc<dyn Clock>) -> Self {
        assert!((0.0..=1.0).contains(&config.loss));
        assert!(config.min_delay <= config.max_delay);
        assert!(config.max_read_chunk >= 1);
        MemTransport {
            config,
            registry: Arc::new(Mutex::new(Registry::default())),
            frames_dropped: Arc::new(AtomicU64::new(0)),
            clock,
        }
    }

    /// Frames silently dropped by loss injection so far.
    pub fn frames_dropped(&self) -> u64 {
        self.frames_dropped.load(Ordering::Relaxed)
    }
}

impl Transport for MemTransport {
    fn listen(&self, local: PeerId) -> io::Result<Box<dyn Listener>> {
        let queue = Arc::new(AcceptQueue::default());
        self.registry
            .lock()
            .expect("registry lock")
            .listeners
            .insert(local, Arc::clone(&queue));
        Ok(Box::new(MemListener { queue }))
    }

    fn connect(&self, from: PeerId, to: PeerId) -> io::Result<Box<dyn Conn>> {
        let mut reg = self.registry.lock().expect("registry lock");
        let queue = reg.listeners.get(&to).cloned().ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::ConnectionRefused,
                format!("peer {to} is not listening"),
            )
        })?;
        let ordinal = {
            let k = reg.pair_connects.entry((from, to)).or_insert(0);
            *k += 1;
            *k
        };
        let a_to_b = Arc::new(Pipe::default());
        let b_to_a = Arc::new(Pipe::default());
        reg.track(LiveConn {
            a: from,
            b: to,
            a_to_b: Arc::clone(&a_to_b),
            b_to_a: Arc::clone(&b_to_a),
        });
        drop(reg);
        // four independent streams per connection: {initiator,
        // acceptor} × {send-side loss/delay, read-side fragmentation}
        let seed_for = |stream: u64| {
            self.config
                .seed
                .wrapping_mul(0x9E3779B97F4A7C15)
                .wrapping_add((from.0 as u64) << 40)
                .wrapping_add((to.0 as u64) << 8)
                .wrapping_add(ordinal.wrapping_mul(0xD1B54A32D192ED03))
                .wrapping_add(stream)
        };
        let initiator = MemConn {
            tx: Arc::clone(&a_to_b),
            rx: Arc::clone(&b_to_a),
            config: self.config,
            tx_rng: StdRng::seed_from_u64(seed_for(1)),
            rx_rng: StdRng::seed_from_u64(seed_for(2)),
            frames_dropped: Arc::clone(&self.frames_dropped),
            clock: Arc::clone(&self.clock),
        };
        let acceptor = MemConn {
            tx: b_to_a,
            rx: a_to_b,
            config: self.config,
            tx_rng: StdRng::seed_from_u64(seed_for(3)),
            rx_rng: StdRng::seed_from_u64(seed_for(4)),
            frames_dropped: Arc::clone(&self.frames_dropped),
            clock: Arc::clone(&self.clock),
        };
        queue.push(acceptor);
        Ok(Box::new(initiator))
    }

    fn disconnect(&self, peer: PeerId) -> usize {
        let mut reg = self.registry.lock().expect("registry lock");
        let mut killed = 0;
        reg.live.retain(|c| {
            if c.a == peer || c.b == peer {
                // a vanished connection awaiting its prune is not live
                killed += usize::from(!c.vanished());
                c.a_to_b.close();
                c.b_to_a.close();
                false
            } else {
                true
            }
        });
        killed
    }
}

struct MemListener {
    queue: Arc<AcceptQueue>,
}

impl Listener for MemListener {
    fn try_accept(&mut self) -> io::Result<Option<Box<dyn Conn>>> {
        let mut inner = self.queue.inner.lock().expect("accept lock");
        Ok(inner.0.pop_front().map(|c| Box::new(c) as Box<dyn Conn>))
    }

    fn register_waker(&mut self, queue: &Arc<WakeQueue>, token: u64) {
        let mut inner = self.queue.inner.lock().expect("accept lock");
        let pending = !inner.0.is_empty();
        inner.1 = Some((Arc::clone(queue), token));
        if pending {
            queue.notify(token);
        }
    }
}

struct MemConn {
    tx: Arc<Pipe>,
    rx: Arc<Pipe>,
    config: MemConfig,
    /// Consumed only on sends: one loss draw, then (if kept and the
    /// delay span is nonzero) one delay draw per frame.
    tx_rng: StdRng,
    /// Consumed only on successful reads: one fragment-cap draw each.
    rx_rng: StdRng,
    frames_dropped: Arc<AtomicU64>,
    clock: Arc<dyn Clock>,
}

impl Drop for MemConn {
    fn drop(&mut self) {
        // closing our write side is the EOF the remote reader sees;
        // closing our read side unblocks the remote writer with an
        // error instead of letting it fill an orphaned buffer
        self.tx.close();
        self.rx.close();
    }
}

impl Conn for MemConn {
    fn try_send(&mut self, frame: &[u8]) -> io::Result<bool> {
        if self.config.loss > 0.0 && self.tx_rng.gen_bool(self.config.loss) {
            self.frames_dropped.fetch_add(1, Ordering::Relaxed);
            return Ok(true); // dropped in flight; the sender cannot tell
        }
        let span = self
            .config
            .max_delay
            .saturating_sub(self.config.min_delay)
            .as_micros() as u64;
        let delay = self.config.min_delay
            + Duration::from_micros(if span == 0 {
                0
            } else {
                self.tx_rng.gen_range(0..=span)
            });
        let mut buf = self.tx.buf.lock().expect("pipe lock");
        if buf.closed {
            return Err(io::Error::new(
                io::ErrorKind::BrokenPipe,
                "connection severed",
            ));
        }
        // FIFO: a fast frame never overtakes a slow one
        let mut ready = self.clock.now() + delay;
        if let Some(floor) = buf.last_ready {
            ready = ready.max(floor);
        }
        buf.last_ready = Some(ready);
        buf.chunks.push_back((ready, frame.to_vec(), 0));
        buf.wake_reader();
        Ok(true)
    }

    fn flush(&mut self) -> io::Result<bool> {
        Ok(true) // sends land in the pipe immediately; nothing buffers
    }

    fn try_recv(&mut self, buf: &mut [u8]) -> io::Result<Option<usize>> {
        if buf.is_empty() {
            return Ok(Some(0));
        }
        let now = self.clock.now();
        let mut pipe = self.rx.buf.lock().expect("pipe lock");
        if let Some((ready, bytes, offset)) = pipe.chunks.front_mut() {
            if *ready <= now {
                // the cap draw happens only on an actual read, so the
                // fragmentation schedule is poll-count independent
                let cap = self
                    .rx_rng
                    .gen_range(1..=self.config.max_read_chunk)
                    .min(buf.len());
                let n = cap.min(bytes.len() - *offset);
                buf[..n].copy_from_slice(&bytes[*offset..*offset + n]);
                *offset += n;
                if *offset == bytes.len() {
                    pipe.chunks.pop_front();
                }
                return Ok(Some(n));
            }
            return Ok(None); // in flight, not readable yet
        }
        if pipe.closed {
            return Ok(Some(0)); // EOF
        }
        Ok(None)
    }

    fn next_ready_at(&self) -> Option<Instant> {
        let pipe = self.rx.buf.lock().expect("pipe lock");
        pipe.chunks.front().map(|(ready, _, _)| *ready)
    }

    fn register_waker(&mut self, queue: &Arc<WakeQueue>, token: u64) {
        let mut pipe = self.rx.buf.lock().expect("pipe lock");
        let pending = !pipe.chunks.is_empty() || pipe.closed;
        pipe.watcher = Some((Arc::clone(queue), token));
        if pending {
            queue.notify(token);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(i: u32) -> PeerId {
        PeerId(i)
    }

    fn lossless() -> MemTransport {
        MemTransport::new(MemConfig::default())
    }

    fn accept_now(l: &mut Box<dyn Listener>) -> Box<dyn Conn> {
        l.try_accept().unwrap().expect("inbound conn queued")
    }

    fn drain(conn: &mut Box<dyn Conn>, want: usize) -> Vec<u8> {
        let mut got = Vec::new();
        let deadline = Instant::now() + Duration::from_secs(2);
        while got.len() < want && Instant::now() < deadline {
            let mut chunk = [0u8; 256];
            match conn.try_recv(&mut chunk).unwrap() {
                Some(0) => break,
                Some(n) => got.extend_from_slice(&chunk[..n]),
                None => std::thread::sleep(Duration::from_micros(100)),
            }
        }
        got
    }

    #[test]
    fn roundtrip_preserves_order_across_frames() {
        let t = lossless();
        let mut listener = t.listen(p(1)).unwrap();
        let mut a = t.connect(p(0), p(1)).unwrap();
        let mut b = accept_now(&mut listener);
        a.try_send(b"first-frame|").unwrap();
        a.try_send(b"second-frame").unwrap();
        let got = drain(&mut b, 24);
        assert_eq!(&got, b"first-frame|second-frame");
    }

    #[test]
    fn reads_are_fragmented() {
        let t = MemTransport::new(MemConfig {
            max_read_chunk: 3,
            ..MemConfig::default()
        });
        let mut listener = t.listen(p(1)).unwrap();
        let mut a = t.connect(p(0), p(1)).unwrap();
        let mut b = accept_now(&mut listener);
        a.try_send(&[7u8; 32]).unwrap();
        let deadline = Instant::now() + Duration::from_secs(2);
        loop {
            let mut chunk = [0u8; 32];
            if let Some(n) = b.try_recv(&mut chunk).unwrap() {
                assert!(n <= 3, "fragment of {n} bytes exceeds the cap");
                break;
            }
            assert!(Instant::now() < deadline, "no data arrived");
        }
    }

    #[test]
    fn total_loss_delivers_nothing_but_counts() {
        let t = MemTransport::new(MemConfig {
            loss: 1.0,
            ..MemConfig::default()
        });
        let mut listener = t.listen(p(1)).unwrap();
        let mut a = t.connect(p(0), p(1)).unwrap();
        let mut b = accept_now(&mut listener);
        for _ in 0..10 {
            a.try_send(b"doomed").unwrap();
        }
        assert_eq!(t.frames_dropped(), 10);
        std::thread::sleep(Duration::from_millis(2));
        let mut buf = [0u8; 8];
        assert_eq!(b.try_recv(&mut buf).unwrap(), None);
    }

    #[test]
    fn connect_without_listener_is_refused() {
        let t = lossless();
        let err = match t.connect(p(0), p(5)) {
            Err(e) => e,
            Ok(_) => panic!("nobody is listening on peer 5"),
        };
        assert_eq!(err.kind(), io::ErrorKind::ConnectionRefused);
    }

    #[test]
    fn disconnect_severs_both_directions_but_not_the_listener() {
        let t = lossless();
        let mut listener = t.listen(p(1)).unwrap();
        let mut a = t.connect(p(0), p(1)).unwrap();
        let mut b = accept_now(&mut listener);
        assert_eq!(t.disconnect(p(1)), 1);
        assert!(a.try_send(b"x").is_err(), "writer must observe the cut");
        let mut buf = [0u8; 4];
        assert_eq!(
            b.try_recv(&mut buf).unwrap(),
            Some(0),
            "reader must observe EOF"
        );
        // the listener survives: reconnection is possible
        let mut a2 = t.connect(p(0), p(1)).unwrap();
        a2.try_send(b"back").unwrap();
        let mut b2 = accept_now(&mut listener);
        assert_eq!(drain(&mut b2, 4), b"back");
    }

    #[test]
    fn dropping_a_conn_signals_eof_to_the_peer() {
        let t = lossless();
        let mut listener = t.listen(p(1)).unwrap();
        let a = t.connect(p(0), p(1)).unwrap();
        let mut b = accept_now(&mut listener);
        drop(a);
        let mut buf = [0u8; 4];
        let deadline = Instant::now() + Duration::from_secs(1);
        loop {
            match b.try_recv(&mut buf).unwrap() {
                Some(0) => break,
                Some(_) => panic!("no data was ever sent"),
                None => assert!(Instant::now() < deadline, "EOF never arrived"),
            }
        }
    }

    #[test]
    fn same_seed_same_loss_pattern() {
        let observe = |seed| {
            let t = MemTransport::new(MemConfig {
                loss: 0.5,
                seed,
                ..MemConfig::default()
            });
            let _listener = t.listen(p(1)).unwrap();
            let mut a = t.connect(p(0), p(1)).unwrap();
            let mut dropped = Vec::new();
            for k in 0..64 {
                let before = t.frames_dropped();
                a.try_send(&[k]).unwrap();
                dropped.push(t.frames_dropped() > before);
            }
            dropped
        };
        assert_eq!(observe(7), observe(7));
        assert_ne!(observe(7), observe(8), "different seeds should differ");
    }

    /// Idle polls must not consume RNG state: the byte-fragment
    /// schedule is identical whether or not the reader poll-spins on an
    /// empty pipe first.
    #[test]
    fn empty_polls_do_not_shift_the_fragment_schedule() {
        let observe = |idle_polls: usize| {
            let clock = Arc::new(crate::clock::VirtualClock::new());
            let t = MemTransport::with_clock(
                MemConfig {
                    max_read_chunk: 5,
                    max_delay: Duration::ZERO,
                    ..MemConfig::default()
                },
                clock,
            );
            let mut listener = t.listen(p(1)).unwrap();
            let mut a = t.connect(p(0), p(1)).unwrap();
            let mut b = accept_now(&mut listener);
            let mut buf = [0u8; 64];
            for _ in 0..idle_polls {
                assert_eq!(b.try_recv(&mut buf).unwrap(), None);
            }
            a.try_send(&[9u8; 40]).unwrap();
            let mut sizes = Vec::new();
            loop {
                match b.try_recv(&mut buf).unwrap() {
                    Some(n) if n > 0 => sizes.push(n),
                    _ => break,
                }
            }
            sizes
        };
        assert_eq!(observe(0), observe(17));
    }

    /// The live list is pruned amortised, not per connect: over many
    /// connect/drop cycles it stays within 2× the open connections, and
    /// `disconnect` counts exactly the open ones whatever is awaiting a
    /// prune.
    #[test]
    fn live_list_stays_bounded_and_disconnect_counts_exactly() {
        let t = lossless();
        let _l1 = t.listen(p(1)).unwrap();
        let _l2 = t.listen(p(2)).unwrap();
        let tracked = |t: &MemTransport| t.registry.lock().unwrap().live.len();
        let held: Vec<_> = (0..5).map(|_| t.connect(p(0), p(1)).unwrap()).collect();
        let other = t.connect(p(0), p(2)).unwrap();
        for _ in 0..10_000 {
            drop(t.connect(p(3), p(1)).unwrap());
            assert!(tracked(&t) <= 2 * (held.len() + 1) + 1, "{}", tracked(&t));
        }
        assert_eq!(t.disconnect(p(1)), held.len());
        assert_eq!(tracked(&t), 1, "only the untouched connection remains");
        assert_eq!(t.disconnect(p(1)), 0);
        drop(other);
        assert_eq!(t.disconnect(p(2)), 0, "a dropped connection is not live");
    }

    /// The k-th connection of a pair sees the same loss pattern no
    /// matter how many *other* pairs connected in between.
    #[test]
    fn pair_ordinal_seeding_ignores_other_pairs() {
        let observe = |noise_dials: usize| {
            let t = MemTransport::new(MemConfig {
                loss: 0.5,
                seed: 42,
                ..MemConfig::default()
            });
            let _l1 = t.listen(p(1)).unwrap();
            let _l9 = t.listen(p(9)).unwrap();
            for _ in 0..noise_dials {
                let _ = t.connect(p(8), p(9)).unwrap();
            }
            let mut a = t.connect(p(0), p(1)).unwrap();
            let mut dropped = Vec::new();
            for k in 0..64 {
                let before = t.frames_dropped();
                a.try_send(&[k]).unwrap();
                dropped.push(t.frames_dropped() > before);
            }
            dropped
        };
        assert_eq!(observe(0), observe(5));
    }
}

//! The in-process transport, the runtime's one network: duplex byte
//! pipes addressed by [`PeerId`], non-blocking and waker-driven for the
//! reactor, with seeded delay, frame loss and fragmented delivery.
//!
//! The contract is frame-out / readiness-in. [`MemConn::try_send`] puts
//! one whole frame in the pipe at once; [`MemConn::try_recv`] returns
//! whatever bytes are ready (`Ok(None)` is the `WouldBlock` case),
//! which the incremental
//! [`FrameDecoder`](bartercast_core::codec::FrameDecoder) absorbs; and
//! each endpoint pushes its token onto its reactor's [`WakeQueue`]
//! whenever bytes, EOF or an inbound connection appear (drained in
//! sorted order, which keeps the poll order reproducible). Three
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
//! * delays are computed against the transport's [`VirtualClock`], so
//!   the whole frame schedule is an exact function of the seeds — which
//!   is what the lockstep cluster driver's bitwise-equality regression
//!   test pins.
//!
//! [`MemTransport::disconnect`] severs every live pipe touching a
//! peer — the forced-disconnect injection the cluster harness uses to
//! prove the reconnect machinery works.
//!
//! Everything here lives on one thread: pipes, accept queues and wake
//! queues are shared through `Rc` and `RefCell`.

use crate::clock::VirtualClock;
use crate::lockstep::{set_bit, Runnable};
use bartercast_util::units::PeerId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cell::{Cell, RefCell};
use std::collections::{BTreeSet, HashMap, VecDeque};
use std::io;
use std::rc::Rc;
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
    /// Largest fragment a single [`MemConn::try_recv`] returns.
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

/// The token a [`MemListener`] registers on its reactor's wake queue.
pub const LISTENER_TOKEN: u64 = u64::MAX;

/// A set of woken tokens.
///
/// Endpoints registered via `register_waker` push their token here
/// when they become readable; the reactor drains the set (in ascending
/// token order, so pump order is deterministic). The lockstep driver
/// also links each reactor's queue to that reactor's bit in its
/// runnable set, so a notify tells the driver which reactor to poll.
#[derive(Default)]
pub struct WakeQueue {
    ready: RefCell<BTreeSet<u64>>,
    /// A driver's runnable bitset and this queue's slot in it.
    link: RefCell<Option<(Runnable, usize)>>,
}

impl WakeQueue {
    /// From now on every [`WakeQueue::notify`] also sets bit `slot` of
    /// `bits`, replacing any earlier link.
    pub(crate) fn link(&self, bits: Runnable, slot: usize) {
        *self.link.borrow_mut() = Some((bits, slot));
    }

    /// Mark `token` ready and set the linked runnable bit.
    pub fn notify(&self, token: u64) {
        self.ready.borrow_mut().insert(token);
        if let Some((bits, slot)) = &*self.link.borrow() {
            set_bit(bits, *slot);
        }
    }

    /// Whether no token is ready.
    pub fn is_empty(&self) -> bool {
        self.ready.borrow().is_empty()
    }

    /// Take the currently ready tokens.
    pub fn drain(&self) -> BTreeSet<u64> {
        self.ready.take()
    }
}

type Watcher = (Rc<WakeQueue>, u64);

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

    fn close(&mut self) {
        self.closed = true;
        self.wake_reader();
    }
}

type Pipe = RefCell<PipeBuf>;

/// Accept queue for one listening peer.
#[derive(Default)]
struct AcceptQueue {
    inner: RefCell<(VecDeque<MemConn>, Option<Watcher>)>,
}

impl AcceptQueue {
    fn push(&self, conn: MemConn) {
        let mut inner = self.inner.borrow_mut();
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
    a_to_b: Rc<Pipe>,
    b_to_a: Rc<Pipe>,
}

impl LiveConn {
    /// Both ends are gone (dropped or severed): nothing left to cut.
    fn vanished(&self) -> bool {
        self.a_to_b.borrow().closed && self.b_to_a.borrow().closed
    }
}

#[derive(Default)]
struct Registry {
    listeners: HashMap<PeerId, Rc<AcceptQueue>>,
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

/// The deterministic in-process network. Cheap to clone; clones share
/// the same network and clock.
#[derive(Clone)]
pub struct MemTransport {
    config: MemConfig,
    registry: Rc<RefCell<Registry>>,
    frames_dropped: Rc<Cell<u64>>,
    clock: Rc<VirtualClock>,
}

impl MemTransport {
    /// An empty in-process network with the given adversity knobs,
    /// whose delay schedule is computed against `clock`.
    pub fn with_clock(config: MemConfig, clock: Rc<VirtualClock>) -> Self {
        assert!((0.0..=1.0).contains(&config.loss));
        assert!(config.min_delay <= config.max_delay);
        assert!(config.max_read_chunk >= 1);
        MemTransport {
            config,
            registry: Rc::default(),
            frames_dropped: Rc::default(),
            clock,
        }
    }

    /// The clock every pipe of this network is timed by.
    pub fn clock(&self) -> &Rc<VirtualClock> {
        &self.clock
    }

    /// Frames silently dropped by loss injection so far.
    pub fn frames_dropped(&self) -> u64 {
        self.frames_dropped.get()
    }

    /// Bind an accept queue for `local`, replacing any earlier one.
    /// Other peers can [`MemTransport::connect`] to it from now on.
    pub fn listen(&self, local: PeerId) -> MemListener {
        let queue = Rc::new(AcceptQueue::default());
        self.registry
            .borrow_mut()
            .listeners
            .insert(local, Rc::clone(&queue));
        MemListener { queue }
    }

    /// Open a connection from `from` to `to`, queueing its other end on
    /// `to`'s listener. Refused when `to` is not listening.
    pub fn connect(&self, from: PeerId, to: PeerId) -> io::Result<MemConn> {
        let mut reg = self.registry.borrow_mut();
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
        let a_to_b = Rc::new(Pipe::default());
        let b_to_a = Rc::new(Pipe::default());
        reg.track(LiveConn {
            a: from,
            b: to,
            a_to_b: Rc::clone(&a_to_b),
            b_to_a: Rc::clone(&b_to_a),
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
            tx: Rc::clone(&a_to_b),
            rx: Rc::clone(&b_to_a),
            config: self.config,
            tx_rng: StdRng::seed_from_u64(seed_for(1)),
            rx_rng: StdRng::seed_from_u64(seed_for(2)),
            frames_dropped: Rc::clone(&self.frames_dropped),
            clock: Rc::clone(&self.clock),
        };
        let acceptor = MemConn {
            tx: b_to_a,
            rx: a_to_b,
            config: self.config,
            tx_rng: StdRng::seed_from_u64(seed_for(3)),
            rx_rng: StdRng::seed_from_u64(seed_for(4)),
            frames_dropped: Rc::clone(&self.frames_dropped),
            clock: Rc::clone(&self.clock),
        };
        queue.push(acceptor);
        Ok(initiator)
    }

    /// Forcibly sever every live connection touching `peer`, returning
    /// how many were killed. The listener survives, so the peer can be
    /// reconnected to — the harness's connection-churn injection point.
    pub fn disconnect(&self, peer: PeerId) -> usize {
        let mut reg = self.registry.borrow_mut();
        let mut killed = 0;
        reg.live.retain(|c| {
            if c.a == peer || c.b == peer {
                // a vanished connection awaiting its prune is not live
                killed += usize::from(!c.vanished());
                c.a_to_b.borrow_mut().close();
                c.b_to_a.borrow_mut().close();
                false
            } else {
                true
            }
        });
        killed
    }
}

/// The accept queue bound to one local peer. Non-blocking.
pub struct MemListener {
    queue: Rc<AcceptQueue>,
}

impl MemListener {
    /// The next pending inbound connection, or `None` when none is
    /// queued right now.
    pub fn try_accept(&mut self) -> Option<MemConn> {
        self.queue.inner.borrow_mut().0.pop_front()
    }

    /// Hook this listener to a reactor wake queue: it notifies `token`
    /// ([`LISTENER_TOKEN`] under the reactor) when connections arrive.
    pub fn register_waker(&mut self, queue: &Rc<WakeQueue>, token: u64) {
        let mut inner = self.queue.inner.borrow_mut();
        let pending = !inner.0.is_empty();
        inner.1 = Some((Rc::clone(queue), token));
        if pending {
            queue.notify(token);
        }
    }
}

/// One end of an established connection. All methods are
/// non-blocking; dropping it closes both directions.
pub struct MemConn {
    tx: Rc<Pipe>,
    rx: Rc<Pipe>,
    config: MemConfig,
    /// Consumed only on sends: one loss draw, then (if kept and the
    /// delay span is nonzero) one delay draw per frame.
    tx_rng: StdRng,
    /// Consumed only on successful reads: one fragment-cap draw each.
    rx_rng: StdRng,
    frames_dropped: Rc<Cell<u64>>,
    clock: Rc<VirtualClock>,
}

impl Drop for MemConn {
    fn drop(&mut self) {
        // closing our write side is the EOF the remote reader sees;
        // closing our read side makes the remote writer's next send an
        // error instead of letting it fill an orphaned buffer
        self.tx.borrow_mut().close();
        self.rx.borrow_mut().close();
    }
}

impl MemConn {
    /// Send one whole frame: it lands in the pipe at once, readable
    /// after its drawn delay, unless loss injection drops it whole (the
    /// sender cannot tell). An error means the connection was severed
    /// and is unusable.
    pub fn try_send(&mut self, frame: &[u8]) -> io::Result<()> {
        if self.config.loss > 0.0 && self.tx_rng.gen_bool(self.config.loss) {
            self.frames_dropped.set(self.frames_dropped.get() + 1);
            return Ok(()); // dropped in flight; the sender cannot tell
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
        let mut buf = self.tx.borrow_mut();
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
        Ok(())
    }

    /// Read up to `buf.len()` stream bytes without blocking. Returns
    /// `Ok(None)` when no data is ready (`WouldBlock`), `Ok(Some(0))`
    /// on clean end-of-stream, and `Ok(Some(n))` for `n` bytes read
    /// (any fragmentation is legal).
    pub fn try_recv(&mut self, buf: &mut [u8]) -> io::Result<Option<usize>> {
        if buf.is_empty() {
            return Ok(Some(0));
        }
        let now = self.clock.now();
        let mut pipe = self.rx.borrow_mut();
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

    /// When the oldest unread frame becomes readable (possibly already
    /// past); `None` when nothing is in flight.
    pub fn next_ready_at(&self) -> Option<Instant> {
        let pipe = self.rx.borrow();
        pipe.chunks.front().map(|(ready, _, _)| *ready)
    }

    /// Hook this connection to a reactor wake queue under `token`: it
    /// notifies the token whenever bytes or EOF become readable.
    pub fn register_waker(&mut self, queue: &Rc<WakeQueue>, token: u64) {
        let mut pipe = self.rx.borrow_mut();
        let pending = !pipe.chunks.is_empty() || pipe.closed;
        pipe.watcher = Some((Rc::clone(queue), token));
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

    /// A fresh network on a fresh virtual clock.
    fn net(config: MemConfig) -> MemTransport {
        MemTransport::with_clock(config, Rc::new(VirtualClock::new()))
    }

    /// Read up to `want` bytes, advancing the virtual clock to each
    /// in-flight frame's arrival; stops at EOF or when nothing is left
    /// in flight.
    fn drain(t: &MemTransport, conn: &mut MemConn, want: usize) -> Vec<u8> {
        let mut got = Vec::new();
        while got.len() < want {
            let mut chunk = [0u8; 256];
            match conn.try_recv(&mut chunk).unwrap() {
                Some(0) => break,
                Some(n) => got.extend_from_slice(&chunk[..n]),
                None => match conn.next_ready_at() {
                    Some(at) if at > t.clock().now() => t.clock().advance_to(at),
                    _ => break,
                },
            }
        }
        got
    }

    #[test]
    fn roundtrip_preserves_order_across_frames() {
        let t = net(MemConfig::default());
        let mut listener = t.listen(p(1));
        let mut a = t.connect(p(0), p(1)).unwrap();
        let mut b = listener.try_accept().unwrap();
        a.try_send(b"first-frame|").unwrap();
        a.try_send(b"second-frame").unwrap();
        let got = drain(&t, &mut b, 24);
        assert_eq!(&got, b"first-frame|second-frame");
    }

    #[test]
    fn reads_are_fragmented() {
        let t = net(MemConfig {
            max_read_chunk: 3,
            ..MemConfig::default()
        });
        let mut listener = t.listen(p(1));
        let mut a = t.connect(p(0), p(1)).unwrap();
        let mut b = listener.try_accept().unwrap();
        a.try_send(&[7u8; 32]).unwrap();
        t.clock().advance_to(b.next_ready_at().expect("in flight"));
        let mut chunk = [0u8; 32];
        let n = b.try_recv(&mut chunk).unwrap().expect("arrived");
        assert!(
            (1..=3).contains(&n),
            "fragment of {n} bytes exceeds the cap"
        );
    }

    #[test]
    fn total_loss_delivers_nothing_but_counts() {
        let t = net(MemConfig {
            loss: 1.0,
            ..MemConfig::default()
        });
        let mut listener = t.listen(p(1));
        let mut a = t.connect(p(0), p(1)).unwrap();
        let mut b = listener.try_accept().unwrap();
        for _ in 0..10 {
            a.try_send(b"doomed").unwrap();
        }
        assert_eq!(t.frames_dropped(), 10);
        assert_eq!(b.next_ready_at(), None, "nothing in flight");
        let clock = t.clock();
        clock.advance_to(clock.now() + Duration::from_secs(1));
        let mut buf = [0u8; 8];
        assert_eq!(b.try_recv(&mut buf).unwrap(), None);
    }

    /// With `min_delay == max_delay` a frame is in flight for exactly
    /// that delay: unreadable a microsecond before `send + delay`,
    /// readable at it.
    #[test]
    fn a_frame_lands_exactly_at_send_plus_delay() {
        let delay = Duration::from_millis(5);
        let t = net(MemConfig {
            min_delay: delay,
            max_delay: delay,
            ..MemConfig::default()
        });
        let mut listener = t.listen(p(1));
        let mut a = t.connect(p(0), p(1)).unwrap();
        let mut b = listener.try_accept().unwrap();
        let clock = t.clock();
        clock.advance_to(clock.now() + Duration::from_millis(3));
        let sent = clock.now();
        a.try_send(b"late").unwrap();
        assert_eq!(b.next_ready_at(), Some(sent + delay));
        let mut buf = [0u8; 8];
        assert_eq!(b.try_recv(&mut buf).unwrap(), None, "in flight at send");
        clock.advance_to(sent + delay - Duration::from_micros(1));
        assert_eq!(b.try_recv(&mut buf).unwrap(), None, "still in flight");
        clock.advance_to(sent + delay);
        assert!(b.try_recv(&mut buf).unwrap().is_some_and(|n| n > 0));
    }

    /// With a delay span each frame draws its own delay, but no frame
    /// becomes readable before one sent ahead of it: the head's arrival
    /// never moves backwards as the pipe drains, and the bytes come out
    /// in send order.
    #[test]
    fn delayed_frames_keep_the_fifo_floor() {
        let t = net(MemConfig {
            max_delay: Duration::from_millis(10),
            ..MemConfig::default()
        });
        let mut listener = t.listen(p(1));
        let mut a = t.connect(p(0), p(1)).unwrap();
        let mut b = listener.try_accept().unwrap();
        let clock = t.clock();
        for k in 0..64u8 {
            a.try_send(&[k]).unwrap();
            clock.advance_to(clock.now() + Duration::from_micros(50));
        }
        let (mut arrivals, mut bytes) = (Vec::new(), Vec::new());
        while let Some(at) = b.next_ready_at() {
            arrivals.push(at);
            clock.advance_to(at);
            let mut buf = [0u8; 1];
            assert_eq!(b.try_recv(&mut buf).unwrap(), Some(1));
            bytes.push(buf[0]);
        }
        assert_eq!(bytes, (0..64).collect::<Vec<u8>>());
        assert!(
            arrivals.windows(2).all(|w| w[0] <= w[1]),
            "an arrival went backwards: {arrivals:?}"
        );
    }

    #[test]
    fn connect_without_listener_is_refused() {
        let t = net(MemConfig::default());
        let err = match t.connect(p(0), p(5)) {
            Err(e) => e,
            Ok(_) => panic!("nobody is listening on peer 5"),
        };
        assert_eq!(err.kind(), io::ErrorKind::ConnectionRefused);
    }

    #[test]
    fn disconnect_severs_both_directions_but_not_the_listener() {
        let t = net(MemConfig::default());
        let mut listener = t.listen(p(1));
        let mut a = t.connect(p(0), p(1)).unwrap();
        let mut b = listener.try_accept().unwrap();
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
        let mut b2 = listener.try_accept().unwrap();
        assert_eq!(drain(&t, &mut b2, 4), b"back");
    }

    #[test]
    fn dropping_a_conn_signals_eof_to_the_peer() {
        let t = net(MemConfig::default());
        let mut listener = t.listen(p(1));
        let a = t.connect(p(0), p(1)).unwrap();
        let mut b = listener.try_accept().unwrap();
        drop(a);
        let mut buf = [0u8; 4];
        assert_eq!(b.try_recv(&mut buf).unwrap(), Some(0), "EOF at once");
    }

    #[test]
    fn same_seed_same_loss_pattern() {
        assert_eq!(loss_pattern(7, 0), loss_pattern(7, 0));
        assert_ne!(
            loss_pattern(7, 0),
            loss_pattern(8, 0),
            "different seeds should differ"
        );
    }

    /// Which of 64 one-byte frames from peer 0 to peer 1 a half-lossy
    /// network seeded `seed` drops, once `noise_dials` connections from
    /// peer 8 to peer 9 were opened first.
    fn loss_pattern(seed: u64, noise_dials: usize) -> Vec<bool> {
        let t = net(MemConfig {
            loss: 0.5,
            seed,
            ..MemConfig::default()
        });
        let (_l1, _l9) = (t.listen(p(1)), t.listen(p(9)));
        for _ in 0..noise_dials {
            drop(t.connect(p(8), p(9)).unwrap());
        }
        let mut a = t.connect(p(0), p(1)).unwrap();
        let mut sent_lost = |k| {
            let before = t.frames_dropped();
            a.try_send(&[k]).unwrap();
            t.frames_dropped() > before
        };
        (0..64).map(&mut sent_lost).collect()
    }

    /// Idle polls must not consume RNG state: the byte-fragment
    /// schedule is identical whether or not the reader poll-spins on an
    /// empty pipe first.
    #[test]
    fn empty_polls_do_not_shift_the_fragment_schedule() {
        let observe = |idle_polls: usize| {
            let t = net(MemConfig {
                max_read_chunk: 5,
                max_delay: Duration::ZERO,
                ..MemConfig::default()
            });
            let mut listener = t.listen(p(1));
            let mut a = t.connect(p(0), p(1)).unwrap();
            let mut b = listener.try_accept().unwrap();
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
        let t = net(MemConfig::default());
        let _l1 = t.listen(p(1));
        let _l2 = t.listen(p(2));
        let tracked = |t: &MemTransport| t.registry.borrow().live.len();
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
        assert_eq!(loss_pattern(42, 0), loss_pattern(42, 5));
    }

    #[test]
    fn wake_queue_drains_tokens_in_sorted_order() {
        let q = WakeQueue::default();
        q.notify(9);
        q.notify(1);
        q.notify(5);
        let drained: Vec<u64> = q.drain().into_iter().collect();
        assert_eq!(drained, vec![1, 5, 9]);
        assert!(q.drain().is_empty());
    }

    #[test]
    fn a_linked_wake_queue_marks_its_slot_on_notify() {
        let bits: Rc<[Cell<u64>]> = (0..2).map(|_| Cell::new(0)).collect();
        let q = WakeQueue::default();
        q.notify(1);
        assert_eq!(bits[1].get(), 0, "not linked yet");
        q.link(Rc::clone(&bits), 70);
        q.notify(2);
        assert_eq!(bits[0].get(), 0);
        assert_eq!(bits[1].get(), 1 << 6);
        assert_eq!(q.drain().into_iter().collect::<Vec<_>>(), vec![1, 2]);
    }
}

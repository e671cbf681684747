//! The per-connection session state machine.
//!
//! Under the reactor a session is *data*, not a thread: a small state
//! machine the reactor pumps whenever its connection reports readiness
//! or a deadline fires.
//!
//! ```text
//!            send Hello                 Hello received
//!  Connect ───────────────▶ Handshake ─────────────────▶ Exchange
//!                               │                            │
//!                   timeout /   │       Bye received /       │
//!                   bad proto   │       begin_drain()        │
//!                               ▼                            ▼
//!                      Closed{clean:false} ◀── timeout ── Draining
//!                                                            │
//!                                                  flush + send Bye
//!                                                            ▼
//!                                                   Closed{clean:true}
//! ```
//!
//! [`Session::pump`] does one full readiness cycle: flush buffered
//! output, read to `WouldBlock` feeding the incremental
//! [`FrameDecoder`], decode and
//! dispatch complete frames, then write queued frames until the
//! connection pushes back. Nothing ever blocks; when a pump
//! can make no progress the reactor parks the session until its token
//! wakes again. Deadlines (handshake and idle) are *checked*, not
//! slept on — [`Session::check_deadlines`] is driven by the reactor's
//! timer wheel.
//!
//! Everything the node core needs to know flows back as
//! [`SessionEvent`]s pushed onto a plain `Vec` the reactor hands in —
//! no channels, no cross-thread signalling, because session and
//! coordinator now share one thread.

use crate::stats::NodeCounters;
use crate::transport::Conn;
use crate::wire::{self, Envelope, SwarmFrame};
use bartercast_core::codec::{BufPool, FrameDecoder};
use bartercast_core::{BarterCastMessage, DeltaMsg, Frontier};
use bartercast_util::units::PeerId;
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Which side of the connection this session is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// We dialed.
    Initiator,
    /// We accepted.
    Responder,
}

/// What a session reports back to the reactor core. `token` is the
/// reactor-assigned id of the session, so events can be correlated
/// with the session table even before the remote identity is known.
#[derive(Debug)]
pub enum SessionEvent {
    /// Handshake completed; the remote identity is now known.
    Established {
        /// Reactor-assigned session id.
        token: u64,
        /// Peer on the other end, from its `Hello`.
        remote: PeerId,
        /// Which side we are.
        direction: Direction,
    },
    /// A `Records` envelope arrived.
    Records {
        /// Reactor-assigned session id.
        token: u64,
        /// Peer the session is established with.
        from: PeerId,
        /// The decoded BarterCast message.
        msg: BarterCastMessage,
    },
    /// A `Digest` envelope arrived: the peer wants whatever its claim
    /// is missing from our advertised slice.
    Digest {
        /// Reactor-assigned session id.
        token: u64,
        /// Peer the session is established with.
        from: PeerId,
        /// The frontier of *our* records as the peer last saw them.
        claim: Frontier,
    },
    /// A `Delta` envelope arrived: records we were missing plus the
    /// peer's fresh frontier stamp (cache it for the next digest).
    Delta {
        /// Reactor-assigned session id.
        token: u64,
        /// Peer the session is established with.
        from: PeerId,
        /// The decoded delta.
        msg: DeltaMsg,
    },
    /// A swarm-workload frame arrived; the reactor routes it to the
    /// attached [`Workload`](crate::workload::Workload), if any.
    Frame {
        /// Reactor-assigned session id.
        token: u64,
        /// Peer the session is established with.
        from: PeerId,
        /// The decoded frame.
        frame: SwarmFrame,
    },
    /// The session ended; the reactor should reap it.
    Closed {
        /// Reactor-assigned session id.
        token: u64,
        /// `true` for graceful teardown (`Bye` sent or received),
        /// `false` for timeouts, resets, and protocol errors.
        clean: bool,
    },
}

/// How long the handshake may take end-to-end (DESIGN.md, "Node
/// runtime", timeout defaults).
pub(crate) const HANDSHAKE_TIMEOUT: Duration = Duration::from_millis(500);

/// Inactivity limit after establishment: no inbound bytes for this long
/// and the session is torn down as dead — three exchange intervals of
/// the default 10 s (DESIGN.md, "Node runtime", timeout defaults).
const IDLE_TIMEOUT: Duration = Duration::from_secs(30);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SessionState {
    /// Hello sent (or about to be); waiting for the peer's Hello.
    Handshake,
    /// Established; records flow both ways.
    Exchange,
    /// Local teardown requested: flush the queue, send Bye, wait for
    /// the flush (a peer Bye arriving first also completes the drain).
    Draining,
    /// Terminal. The reactor reaps the session after seeing this.
    Closed { clean: bool },
}

/// What an outbound frame carries, for send-time accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FrameKind {
    /// Delta anti-entropy request.
    Digest,
    /// Delta anti-entropy reply, or a stamped full push.
    Delta,
    /// Swarm piece transfer.
    Piece,
    /// Everything else (hello, bye, swarm control).
    Control,
}

/// Pre-encoded frame bytes: either a tick-wide shared encoding (the
/// encode-once fan-out path — many sessions hold the same `Arc`) or a
/// session-owned buffer recycled through the reactor's [`BufPool`].
#[derive(Debug, Clone)]
enum FrameBytes {
    Shared(Arc<[u8]>),
    Pooled(bytes::BytesMut),
}

impl FrameBytes {
    fn as_slice(&self) -> &[u8] {
        match self {
            FrameBytes::Shared(b) => b,
            FrameBytes::Pooled(b) => b,
        }
    }
}

/// One queued outbound frame. Frames are encoded at enqueue time —
/// once — and the queue holds bytes, not envelopes, so retrying after
/// backpressure re-sends the same buffer instead of re-encoding.
#[derive(Debug, Clone)]
struct OutFrame {
    bytes: FrameBytes,
    /// Transfer records inside, for `records_sent` accounting.
    records: u32,
    kind: FrameKind,
}

/// One connection's entire life, as pumpable state.
pub struct Session {
    token: u64,
    conn: Box<dyn Conn>,
    direction: Direction,
    state: SessionState,
    decoder: FrameDecoder,
    outbound: VecDeque<OutFrame>,
    remote: Option<PeerId>,
    started_at: Instant,
    last_activity: Instant,
    hello_sent: bool,
    bye_sent: bool,
    /// Drain was requested before establishment; honour it on entry to
    /// `Exchange`.
    drain_requested: bool,
    /// Whether `sessions_opened` was counted (controls whether close
    /// bumps `sessions_closed` or `sessions_failed`).
    counted_open: bool,
}

impl Session {
    /// Wrap a fresh connection. `now` is the reactor clock's current
    /// instant; the handshake deadline counts from it.
    pub fn new(token: u64, conn: Box<dyn Conn>, direction: Direction, now: Instant) -> Self {
        Session {
            token,
            conn,
            direction,
            state: SessionState::Handshake,
            decoder: FrameDecoder::new(),
            outbound: VecDeque::new(),
            remote: None,
            started_at: now,
            last_activity: now,
            hello_sent: false,
            bye_sent: false,
            drain_requested: false,
            counted_open: false,
        }
    }

    /// The peer on the other end, once the handshake has completed.
    pub fn remote(&self) -> Option<PeerId> {
        self.remote
    }

    /// Whether the session has reached its terminal state.
    pub fn is_closed(&self) -> bool {
        matches!(self.state, SessionState::Closed { .. })
    }

    /// Whether records can still be queued (established and not
    /// tearing down).
    pub fn is_established(&self) -> bool {
        self.state == SessionState::Exchange
    }

    /// Access to the underlying connection, for readiness bookkeeping
    /// (`next_ready_at`, `register_waker`, `ready_source`).
    pub fn conn_mut(&mut self) -> &mut dyn Conn {
        self.conn.as_mut()
    }

    /// Whether the connection has buffered output waiting on write
    /// readiness.
    pub fn wants_write(&self) -> bool {
        self.conn.wants_write() || !self.outbound.is_empty()
    }

    /// Queue an already-encoded full `Delta` frame whose bytes are
    /// shared across every session targeted this tick — the encode-once
    /// fan-out path. `records` is the record count inside, for
    /// accounting at actual send time. Carrying the sender's frontier
    /// stamp lets the receiver seed its claim cache, so the digest
    /// round that follows a full push concludes in-sync instead of
    /// re-fetching the slice.
    pub fn enqueue_shared(
        &mut self,
        bytes: Arc<[u8]>,
        records: u32,
        cap: usize,
        counters: &NodeCounters,
    ) -> bool {
        self.enqueue_with(cap, counters, || OutFrame {
            bytes: FrameBytes::Shared(bytes),
            records,
            kind: FrameKind::Delta,
        })
    }

    /// Encode `env` once, into a buffer from `pool`, and queue it,
    /// shedding (and counting) if the bounded queue is full. Returns
    /// whether it was queued.
    pub fn enqueue_envelope(
        &mut self,
        env: &Envelope,
        pool: &mut BufPool,
        cap: usize,
        counters: &NodeCounters,
    ) -> bool {
        let (kind, records) = match env {
            Envelope::Digest { .. } => (FrameKind::Digest, 0),
            Envelope::Delta(delta) => (FrameKind::Delta, delta.records.len() as u32),
            Envelope::Swarm(SwarmFrame::Piece { .. }) => (FrameKind::Piece, 0),
            _ => (FrameKind::Control, 0),
        };
        self.enqueue_with(cap, counters, || {
            let mut buf = pool.take();
            wire::encode_envelope_into(env, &mut buf);
            OutFrame {
                bytes: FrameBytes::Pooled(buf),
                records,
                kind,
            }
        })
    }

    /// The one admission check every outbound frame passes: build and
    /// queue the frame if the session is established and under `cap`,
    /// else shed (and count) it unbuilt.
    fn enqueue_with(
        &mut self,
        cap: usize,
        counters: &NodeCounters,
        frame: impl FnOnce() -> OutFrame,
    ) -> bool {
        if !self.is_established() || self.outbound.len() >= cap {
            NodeCounters::inc(&counters.shed_session);
            return false;
        }
        self.outbound.push_back(frame());
        true
    }

    /// Ask for a graceful teardown: drain the queue, send `Bye`, close
    /// clean. Safe to call in any state.
    pub fn begin_drain(&mut self) {
        match self.state {
            SessionState::Exchange => self.state = SessionState::Draining,
            SessionState::Handshake => self.drain_requested = true,
            _ => {}
        }
    }

    /// Tear down immediately and unconditionally (reactor shutdown past
    /// its drain deadline). Emits `Closed` and settles the counters.
    pub fn force_close(&mut self, counters: &NodeCounters, events: &mut Vec<SessionEvent>) {
        if !self.is_closed() {
            self.close(false, counters, events);
        }
    }

    fn close(&mut self, clean: bool, counters: &NodeCounters, events: &mut Vec<SessionEvent>) {
        if self.counted_open {
            NodeCounters::inc(&counters.sessions_closed);
        } else {
            NodeCounters::inc(&counters.sessions_failed);
        }
        self.state = SessionState::Closed { clean };
        events.push(SessionEvent::Closed {
            token: self.token,
            clean,
        });
    }

    /// Encode and send a control envelope (hello/bye) through a pooled
    /// buffer. On backpressure the buffer returns to the pool and the
    /// caller retries on the next pump — control frames are tiny and
    /// rare, so re-encoding then is cheaper than holding the buffer.
    fn send_control(
        &mut self,
        counters: &NodeCounters,
        pool: &mut BufPool,
        env: &Envelope,
    ) -> std::io::Result<bool> {
        let mut buf = pool.take();
        wire::encode_envelope_into(env, &mut buf);
        let sent = self.conn.try_send(&buf)?;
        if sent {
            NodeCounters::add(&counters.bytes_sent, buf.len() as u64);
        }
        pool.put(buf);
        Ok(sent)
    }

    fn account_sent(frame: &OutFrame, counters: &NodeCounters) {
        NodeCounters::add(&counters.bytes_sent, frame.bytes.as_slice().len() as u64);
        match frame.kind {
            FrameKind::Delta => {
                NodeCounters::add(&counters.records_sent, frame.records as u64);
                NodeCounters::inc(&counters.deltas_sent);
            }
            FrameKind::Digest => NodeCounters::inc(&counters.digests_sent),
            FrameKind::Piece => NodeCounters::inc(&counters.pieces_sent),
            FrameKind::Control => {}
        }
    }

    /// One full readiness cycle. Returns `true` if any progress was
    /// made (bytes moved or state changed), so the reactor can keep
    /// pumping hot sessions before sleeping.
    pub fn pump(
        &mut self,
        local: PeerId,
        now: Instant,
        pool: &mut BufPool,
        counters: &NodeCounters,
        events: &mut Vec<SessionEvent>,
    ) -> bool {
        if self.is_closed() {
            return false;
        }
        let mut progress = false;

        // 1. flush previously buffered output
        match self.conn.flush() {
            Ok(_) => {}
            Err(_) => {
                self.close(false, counters, events);
                return true;
            }
        }

        // 2. our Hello opens the conversation, exactly once
        if !self.hello_sent {
            let hello = Envelope::Hello {
                peer: local,
                version: wire::NODE_PROTOCOL_VERSION,
            };
            match self.send_control(counters, pool, &hello) {
                Ok(true) => {
                    self.hello_sent = true;
                    progress = true;
                }
                Ok(false) => {}
                Err(_) => {
                    self.close(false, counters, events);
                    return true;
                }
            }
        }

        // 3. read to WouldBlock (or EOF), feeding the decoder. EOF is
        // only *recorded* here: frames already in the buffer — the
        // peer's Bye racing its close, typically — must still dispatch
        // before the verdict in step 4b.
        let mut read_buf = [0u8; 4096];
        let mut saw_eof = false;
        loop {
            match self.conn.try_recv(&mut read_buf) {
                Ok(Some(0)) => {
                    saw_eof = true;
                    break;
                }
                Ok(Some(n)) => {
                    NodeCounters::add(&counters.bytes_received, n as u64);
                    self.decoder.feed(&read_buf[..n]);
                    self.last_activity = now;
                    progress = true;
                }
                Ok(None) => break,
                Err(_) => {
                    self.close(false, counters, events);
                    return true;
                }
            }
        }

        // 4. dispatch every complete frame
        loop {
            let payload = match self.decoder.next_frame() {
                Ok(Some(p)) => p,
                Ok(None) => break,
                Err(_) => {
                    NodeCounters::inc(&counters.protocol_errors);
                    self.close(false, counters, events);
                    return true;
                }
            };
            progress = true;
            let env = match wire::decode_envelope(&payload) {
                Ok(env) => env,
                Err(_) => {
                    NodeCounters::inc(&counters.protocol_errors);
                    self.close(false, counters, events);
                    return true;
                }
            };
            match (self.state, env) {
                (SessionState::Handshake, Envelope::Hello { peer, .. }) => {
                    self.remote = Some(peer);
                    self.counted_open = true;
                    NodeCounters::inc(&counters.sessions_opened);
                    self.state = if self.drain_requested {
                        SessionState::Draining
                    } else {
                        SessionState::Exchange
                    };
                    events.push(SessionEvent::Established {
                        token: self.token,
                        remote: peer,
                        direction: self.direction,
                    });
                }
                (SessionState::Handshake, _) => {
                    // Records or Bye before Hello: protocol error
                    NodeCounters::inc(&counters.protocol_errors);
                    self.close(false, counters, events);
                    return true;
                }
                (SessionState::Exchange | SessionState::Draining, Envelope::Records(msg)) => {
                    NodeCounters::add(&counters.records_received, msg.len() as u64);
                    events.push(SessionEvent::Records {
                        token: self.token,
                        from: self.remote.expect("established session has a remote"),
                        msg,
                    });
                }
                (
                    SessionState::Exchange | SessionState::Draining,
                    Envelope::Digest { sender, claim },
                ) => {
                    let from = self.remote.expect("established session has a remote");
                    if sender != from {
                        // a digest must speak for the session peer;
                        // anything else is identity confusion
                        NodeCounters::inc(&counters.protocol_errors);
                        self.close(false, counters, events);
                        return true;
                    }
                    events.push(SessionEvent::Digest {
                        token: self.token,
                        from,
                        claim,
                    });
                }
                (SessionState::Exchange | SessionState::Draining, Envelope::Delta(msg)) => {
                    let from = self.remote.expect("established session has a remote");
                    if msg.sender != from {
                        NodeCounters::inc(&counters.protocol_errors);
                        self.close(false, counters, events);
                        return true;
                    }
                    NodeCounters::add(&counters.records_received, msg.records.len() as u64);
                    events.push(SessionEvent::Delta {
                        token: self.token,
                        from,
                        msg,
                    });
                }
                (SessionState::Exchange | SessionState::Draining, Envelope::Swarm(frame)) => {
                    if matches!(frame, SwarmFrame::Piece { .. }) {
                        NodeCounters::inc(&counters.pieces_received);
                    }
                    events.push(SessionEvent::Frame {
                        token: self.token,
                        from: self.remote.expect("established session has a remote"),
                        frame,
                    });
                }
                (SessionState::Exchange | SessionState::Draining, Envelope::Bye) => {
                    // peer is done; answer in kind (best-effort — it may
                    // already be gone) so both logs agree, then close
                    if !self.bye_sent {
                        let _ = self.send_control(counters, pool, &Envelope::Bye);
                    }
                    self.close(true, counters, events);
                    return true;
                }
                (SessionState::Exchange | SessionState::Draining, Envelope::Hello { .. }) => {
                    NodeCounters::inc(&counters.protocol_errors);
                    self.close(false, counters, events);
                    return true;
                }
                (SessionState::Closed { .. }, _) => unreachable!("pumping a closed session"),
            }
        }

        // 4b. the EOF verdict, now that buffered frames have spoken.
        // During a drain the peer closing after our Bye is a normal
        // teardown race; anywhere else a silent close is unclean.
        if saw_eof {
            let clean = self.state == SessionState::Draining && self.bye_sent;
            self.close(clean, counters, events);
            return true;
        }

        // 5. write queued frames until the connection pushes back. The
        // bytes were encoded at enqueue time; a frame refused by
        // backpressure stays at the front untouched.
        if matches!(self.state, SessionState::Exchange | SessionState::Draining) {
            while let Some(front) = self.outbound.front() {
                match self.conn.try_send(front.bytes.as_slice()) {
                    Ok(true) => {
                        let frame = self.outbound.pop_front().expect("front exists");
                        Self::account_sent(&frame, counters);
                        if let FrameBytes::Pooled(buf) = frame.bytes {
                            pool.put(buf);
                        }
                        progress = true;
                    }
                    Ok(false) => break,
                    Err(_) => {
                        self.close(false, counters, events);
                        return true;
                    }
                }
            }
        }

        // 6. complete a drain: queue empty → Bye → flushed → closed
        if self.state == SessionState::Draining && self.outbound.is_empty() {
            if !self.bye_sent {
                match self.send_control(counters, pool, &Envelope::Bye) {
                    Ok(true) => {
                        self.bye_sent = true;
                        progress = true;
                    }
                    Ok(false) => {}
                    Err(_) => {
                        self.close(false, counters, events);
                        return true;
                    }
                }
            }
            if self.bye_sent {
                match self.conn.flush() {
                    Ok(true) => {
                        self.close(true, counters, events);
                        return true;
                    }
                    Ok(false) => {}
                    Err(_) => {
                        self.close(false, counters, events);
                        return true;
                    }
                }
            }
        }

        progress
    }

    /// Check the state-appropriate deadline against `now`; expire the
    /// session if it passed. Returns the next instant at which this
    /// session should be re-checked (None once closed).
    pub fn check_deadlines(
        &mut self,
        now: Instant,
        counters: &NodeCounters,
        events: &mut Vec<SessionEvent>,
    ) -> Option<Instant> {
        let deadline = match self.state {
            SessionState::Handshake => self.started_at + HANDSHAKE_TIMEOUT,
            SessionState::Exchange | SessionState::Draining => self.last_activity + IDLE_TIMEOUT,
            SessionState::Closed { .. } => return None,
        };
        if now >= deadline {
            self.close(false, counters, events);
            return None;
        }
        Some(deadline)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mem::{MemConfig, MemTransport};
    use crate::transport::Transport;
    use bartercast_core::TransferRecord;
    use bartercast_util::units::Bytes;

    fn msg(sender: u32, peer: u32, up: u64) -> Envelope {
        Envelope::Delta(DeltaMsg {
            sender: PeerId(sender),
            full: true,
            stamp: Frontier::default(),
            records: vec![TransferRecord {
                peer: PeerId(peer),
                up: Bytes(up),
                down: Bytes::ZERO,
            }],
        })
    }

    fn pair(t: &MemTransport) -> (Box<dyn Conn>, Box<dyn Conn>) {
        let mut listener = t.listen(PeerId(1)).unwrap();
        let a = t.connect(PeerId(0), PeerId(1)).unwrap();
        let b = listener.try_accept().unwrap().expect("queued conn");
        (a, b)
    }

    /// Pump both sessions until neither makes progress, with real-time
    /// sleeps to let delayed mem-pipe chunks become readable.
    fn pump_until_quiet(
        a: &mut Session,
        b: &mut Session,
        pool: &mut BufPool,
        counters: &NodeCounters,
        events_a: &mut Vec<SessionEvent>,
        events_b: &mut Vec<SessionEvent>,
    ) {
        let deadline = Instant::now() + Duration::from_secs(2);
        let mut idle_rounds = 0;
        while idle_rounds < 5 && Instant::now() < deadline {
            let now = Instant::now();
            let pa = a.pump(PeerId(0), now, pool, counters, events_a);
            let pb = b.pump(PeerId(1), now, pool, counters, events_b);
            if pa || pb {
                idle_rounds = 0;
            } else {
                idle_rounds += 1;
                std::thread::sleep(Duration::from_micros(300));
            }
        }
    }

    #[test]
    fn paired_sessions_exchange_and_close_cleanly() {
        let t = MemTransport::new(MemConfig::default());
        let (conn_a, conn_b) = pair(&t);
        let counters = NodeCounters::default();
        let mut pool = BufPool::new();
        let now = Instant::now();
        let mut a = Session::new(10, conn_a, Direction::Initiator, now);
        let mut b = Session::new(20, conn_b, Direction::Responder, now);
        let (mut ev_a, mut ev_b) = (Vec::new(), Vec::new());

        pump_until_quiet(&mut a, &mut b, &mut pool, &counters, &mut ev_a, &mut ev_b);
        assert!(a.is_established() && b.is_established());
        assert!(a.enqueue_envelope(&msg(0, 5, 100), &mut pool, 8, &counters));
        assert!(b.enqueue_envelope(&msg(1, 6, 200), &mut pool, 8, &counters));
        pump_until_quiet(&mut a, &mut b, &mut pool, &counters, &mut ev_a, &mut ev_b);

        assert!(matches!(
            ev_a[0],
            SessionEvent::Established {
                token: 10,
                remote: PeerId(1),
                direction: Direction::Initiator,
            }
        ));
        assert!(
            matches!(&ev_a[1], SessionEvent::Delta { from: PeerId(1), msg, .. } if msg.sender == PeerId(1))
        );
        assert!(matches!(
            ev_b[0],
            SessionEvent::Established {
                token: 20,
                remote: PeerId(0),
                direction: Direction::Responder,
            }
        ));
        assert!(
            matches!(&ev_b[1], SessionEvent::Delta { from: PeerId(0), msg, .. } if msg.sender == PeerId(0))
        );

        // a graceful drain from one side closes both cleanly
        a.begin_drain();
        pump_until_quiet(&mut a, &mut b, &mut pool, &counters, &mut ev_a, &mut ev_b);
        assert!(a.is_closed() && b.is_closed());
        assert!(matches!(
            ev_a.last().unwrap(),
            SessionEvent::Closed { clean: true, .. }
        ));
        assert!(matches!(
            ev_b.last().unwrap(),
            SessionEvent::Closed { clean: true, .. }
        ));
        let s = counters.snapshot();
        assert_eq!(s.sessions_opened, 2);
        assert_eq!(s.sessions_closed, 2);
        assert_eq!(s.records_sent, 2);
        assert_eq!(s.records_received, 2);
        assert!(s.bytes_sent > 0 && s.bytes_received > 0);
    }

    /// A session dialing a peer that never speaks must fail via its
    /// handshake deadline, not hang.
    #[test]
    fn silent_peer_fails_handshake_at_deadline() {
        let t = MemTransport::new(MemConfig::default());
        let (conn_a, _mute) = pair(&t);
        let counters = NodeCounters::default();
        let mut pool = BufPool::new();
        let t0 = Instant::now();
        let mut s = Session::new(1, conn_a, Direction::Initiator, t0);
        let mut events = Vec::new();
        s.pump(PeerId(0), t0, &mut pool, &counters, &mut events);
        // before the deadline: still waiting, and a re-check is scheduled
        let next = s
            .check_deadlines(t0 + Duration::from_millis(10), &counters, &mut events)
            .expect("still pending");
        assert_eq!(next, t0 + HANDSHAKE_TIMEOUT);
        // past the deadline: closed unclean, counted as failed
        assert!(s.check_deadlines(next, &counters, &mut events).is_none());
        assert!(s.is_closed());
        assert!(matches!(
            events.last().unwrap(),
            SessionEvent::Closed { clean: false, .. }
        ));
        assert_eq!(counters.snapshot().sessions_failed, 1);
    }

    /// Swarm frames ride the same session as record exchanges and are
    /// surfaced as `Frame` events with piece counters maintained.
    #[test]
    fn swarm_frames_flow_alongside_records() {
        let t = MemTransport::new(MemConfig::default());
        let (conn_a, conn_b) = pair(&t);
        let counters = NodeCounters::default();
        let mut pool = BufPool::new();
        let now = Instant::now();
        let mut a = Session::new(1, conn_a, Direction::Initiator, now);
        let mut b = Session::new(2, conn_b, Direction::Responder, now);
        let (mut ev_a, mut ev_b) = (Vec::new(), Vec::new());
        pump_until_quiet(&mut a, &mut b, &mut pool, &counters, &mut ev_a, &mut ev_b);
        assert!(a.is_established() && b.is_established());

        let request = Envelope::Swarm(SwarmFrame::Request { piece: 4 });
        assert!(a.enqueue_envelope(&request, &mut pool, 8, &counters));
        assert!(a.enqueue_envelope(&msg(0, 5, 100), &mut pool, 8, &counters));
        let piece = Envelope::Swarm(SwarmFrame::Piece {
            piece: 4,
            size: 16384,
        });
        assert!(b.enqueue_envelope(&piece, &mut pool, 8, &counters));
        pump_until_quiet(&mut a, &mut b, &mut pool, &counters, &mut ev_a, &mut ev_b);

        assert!(ev_b.iter().any(|e| matches!(
            e,
            SessionEvent::Frame {
                from: PeerId(0),
                frame: SwarmFrame::Request { piece: 4 },
                ..
            }
        )));
        assert!(ev_b.iter().any(|e| matches!(e, SessionEvent::Delta { .. })));
        assert!(ev_a.iter().any(|e| matches!(
            e,
            SessionEvent::Frame {
                from: PeerId(1),
                frame: SwarmFrame::Piece {
                    piece: 4,
                    size: 16384
                },
                ..
            }
        )));
        let s = counters.snapshot();
        assert_eq!(s.pieces_sent, 1);
        assert_eq!(s.pieces_received, 1);
        assert_eq!(s.records_sent, 1);
    }

    /// Queueing past the cap sheds and counts.
    #[test]
    fn full_outbound_queue_sheds() {
        let t = MemTransport::new(MemConfig::default());
        let (conn_a, conn_b) = pair(&t);
        let counters = NodeCounters::default();
        let mut pool = BufPool::new();
        let now = Instant::now();
        let mut a = Session::new(1, conn_a, Direction::Initiator, now);
        let mut b = Session::new(2, conn_b, Direction::Responder, now);
        let (mut ev_a, mut ev_b) = (Vec::new(), Vec::new());
        pump_until_quiet(&mut a, &mut b, &mut pool, &counters, &mut ev_a, &mut ev_b);
        assert!(a.is_established());
        assert!(a.enqueue_envelope(&msg(0, 1, 1), &mut pool, 2, &counters));
        assert!(a.enqueue_envelope(&msg(0, 1, 2), &mut pool, 2, &counters));
        assert!(
            !a.enqueue_envelope(&msg(0, 1, 3), &mut pool, 2, &counters),
            "cap is 2"
        );
        let shared: Arc<[u8]> = Arc::from(&wire::encode_envelope(&Envelope::Bye)[..]);
        assert!(!a.enqueue_shared(shared, 0, 2, &counters), "one cap");
        assert_eq!(counters.snapshot().shed_session, 2);
        assert_eq!(pool.outstanding(), 2, "a shed frame takes no buffer");
    }

    /// Digest/Delta envelopes flow between paired sessions, counters
    /// advance, and pooled buffers all come home once the wire is
    /// quiet.
    #[test]
    fn digest_and_delta_roundtrip_between_sessions() {
        let t = MemTransport::new(MemConfig::default());
        let (conn_a, conn_b) = pair(&t);
        let counters = NodeCounters::default();
        let mut pool = BufPool::new();
        let now = Instant::now();
        let mut a = Session::new(1, conn_a, Direction::Initiator, now);
        let mut b = Session::new(2, conn_b, Direction::Responder, now);
        let (mut ev_a, mut ev_b) = (Vec::new(), Vec::new());
        pump_until_quiet(&mut a, &mut b, &mut pool, &counters, &mut ev_a, &mut ev_b);
        assert!(a.is_established() && b.is_established());

        // a (PeerId 0) digests b with an empty claim …
        let digest = Envelope::Digest {
            sender: PeerId(0),
            claim: Frontier::default(),
        };
        assert!(a.enqueue_envelope(&digest, &mut pool, 8, &counters));
        pump_until_quiet(&mut a, &mut b, &mut pool, &counters, &mut ev_a, &mut ev_b);
        assert!(ev_b.iter().any(|e| matches!(
            e,
            SessionEvent::Digest {
                from: PeerId(0),
                claim: Frontier { count: 0, .. },
                ..
            }
        )));
        // … and b answers with a delta carrying two records
        let delta = DeltaMsg {
            sender: PeerId(1),
            full: true,
            stamp: Frontier {
                count: 2,
                max_ts: bartercast_util::units::Seconds(7),
                checksum: 42,
            },
            records: vec![
                TransferRecord {
                    peer: PeerId(5),
                    up: Bytes(10),
                    down: Bytes(20),
                },
                TransferRecord {
                    peer: PeerId(6),
                    up: Bytes(30),
                    down: Bytes::ZERO,
                },
            ],
        };
        assert!(b.enqueue_envelope(&Envelope::Delta(delta.clone()), &mut pool, 8, &counters));
        pump_until_quiet(&mut a, &mut b, &mut pool, &counters, &mut ev_a, &mut ev_b);
        assert!(ev_a.iter().any(|e| matches!(
            e,
            SessionEvent::Delta { from: PeerId(1), msg, .. } if *msg == delta
        )));

        let s = counters.snapshot();
        assert_eq!(s.digests_sent, 1);
        assert_eq!(s.deltas_sent, 1);
        assert_eq!(s.records_sent, 2, "delta records count as records");
        assert_eq!(s.records_received, 2);
        assert_eq!(pool.outstanding(), 0, "every pooled buffer came home");
        assert!(pool.pooled() > 0);
    }

    /// A delta whose sender field does not match the session peer is
    /// identity confusion: protocol error, unclean close.
    #[test]
    fn mismatched_delta_sender_is_a_protocol_error() {
        let t = MemTransport::new(MemConfig::default());
        let (conn_a, conn_b) = pair(&t);
        let counters = NodeCounters::default();
        let mut pool = BufPool::new();
        let now = Instant::now();
        let mut a = Session::new(1, conn_a, Direction::Initiator, now);
        let mut b = Session::new(2, conn_b, Direction::Responder, now);
        let (mut ev_a, mut ev_b) = (Vec::new(), Vec::new());
        pump_until_quiet(&mut a, &mut b, &mut pool, &counters, &mut ev_a, &mut ev_b);
        assert!(b.is_established());

        // b is PeerId(1) but claims to be PeerId(9)
        let forged = DeltaMsg {
            sender: PeerId(9),
            full: false,
            stamp: Frontier::default(),
            records: vec![],
        };
        assert!(b.enqueue_envelope(&Envelope::Delta(forged), &mut pool, 8, &counters));
        pump_until_quiet(&mut a, &mut b, &mut pool, &counters, &mut ev_a, &mut ev_b);
        assert!(a.is_closed());
        assert!(counters.snapshot().protocol_errors >= 1);
        assert!(!ev_a.iter().any(|e| matches!(e, SessionEvent::Delta { .. })));
    }
}

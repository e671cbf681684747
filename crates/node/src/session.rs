//! The per-connection session state machine.
//!
//! Under the reactor a session is *data*, not a thread: a small state
//! machine the reactor pumps whenever its connection reports readiness
//! or a deadline fires.
//!
//! ```text
//!            send Hello                 Hello received
//!  Connect ───────────────▶ Handshake ─────────────────▶ Exchange
//!                               │                        │       │
//!                   timeout /   │  timeout / EOF /       │       │ Bye received:
//!                   bad proto   │  bad frame             │       │ answer Bye
//!                               ▼                        │       ▼
//!                      Closed{clean:false} ◀─────────────┘  Closed{clean:true}
//! ```
//!
//! [`Session::pump`] does one full readiness cycle: send the `Hello`
//! once, read to `WouldBlock` feeding the incremental
//! [`FrameDecoder`], decode and dispatch complete frames, then write
//! every queued frame. Nothing ever blocks; when a pump can make no
//! progress the reactor parks the session until its token wakes
//! again. Deadlines (handshake and idle) are *checked*, not
//! slept on — [`Session::check_deadlines`] is driven by the reactor's
//! timer wheel.
//!
//! Everything the node core needs to know flows back as
//! [`SessionEvent`]s pushed onto a plain `Vec` the reactor hands in —
//! no channels, no cross-thread signalling, because session and
//! coordinator now share one thread.

use crate::mem::MemConn;
use crate::stats::NodeStats;
use crate::wire::{self, Envelope, SwarmFrame};
use bartercast_core::codec::{BufPool, FrameDecoder};
use bartercast_core::{DeltaMsg, Frontier};
use bartercast_util::units::PeerId;
use std::collections::VecDeque;
use std::rc::Rc;
use std::time::{Duration, Instant};

/// What a session reports back to the reactor core. `token` is the
/// reactor-assigned id of the session, so events can be correlated
/// with the session table even before the remote identity is known;
/// a `Delta` is absorbed by its sender's id alone and carries none.
#[derive(Debug)]
pub enum SessionEvent {
    /// Handshake completed; the remote identity is now known.
    Established {
        /// Reactor-assigned session id.
        token: u64,
        /// Peer on the other end, from its `Hello`.
        remote: PeerId,
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
        /// `true` for graceful teardown (the peer's `Bye` received and
        /// answered), `false` for timeouts, EOF without `Bye`, resets,
        /// and protocol errors.
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
/// encode-once fan-out path — many sessions hold the same `Rc`) or a
/// session-owned buffer recycled through the reactor's [`BufPool`].
#[derive(Debug, Clone)]
enum FrameBytes {
    Shared(Rc<[u8]>),
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
/// once — and the queue holds bytes, not envelopes, so a shared
/// encoding fans out to many sessions without re-encoding.
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
    conn: MemConn,
    state: SessionState,
    decoder: FrameDecoder,
    outbound: VecDeque<OutFrame>,
    remote: Option<PeerId>,
    started_at: Instant,
    last_activity: Instant,
    hello_sent: bool,
}

impl Session {
    /// Wrap a fresh connection. `now` is the reactor clock's current
    /// instant; the handshake deadline counts from it.
    pub fn new(token: u64, conn: MemConn, now: Instant) -> Self {
        Session {
            token,
            conn,
            state: SessionState::Handshake,
            decoder: FrameDecoder::new(),
            outbound: VecDeque::new(),
            remote: None,
            started_at: now,
            last_activity: now,
            hello_sent: false,
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

    /// Whether records can be queued (established and not closed).
    pub fn is_established(&self) -> bool {
        self.state == SessionState::Exchange
    }

    /// When the connection's oldest unread frame becomes readable
    /// ([`MemConn::next_ready_at`]), for the reactor's self-wakes.
    pub fn next_ready_at(&self) -> Option<Instant> {
        self.conn.next_ready_at()
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
        bytes: Rc<[u8]>,
        records: u32,
        cap: usize,
        stats: &mut NodeStats,
    ) -> bool {
        self.enqueue_with(cap, stats, || OutFrame {
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
        stats: &mut NodeStats,
    ) -> bool {
        let (kind, records) = match env {
            Envelope::Digest { .. } => (FrameKind::Digest, 0),
            Envelope::Delta(delta) => (FrameKind::Delta, delta.records.len() as u32),
            Envelope::Swarm(SwarmFrame::Piece { .. }) => (FrameKind::Piece, 0),
            _ => (FrameKind::Control, 0),
        };
        self.enqueue_with(cap, stats, || {
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
        stats: &mut NodeStats,
        frame: impl FnOnce() -> OutFrame,
    ) -> bool {
        if !self.is_established() || self.outbound.len() >= cap {
            stats.shed_session += 1;
            return false;
        }
        self.outbound.push_back(frame());
        true
    }

    /// End the session: count it closed, or failed if it never
    /// established, and push its one `Closed` event.
    pub(crate) fn close(
        &mut self,
        clean: bool,
        stats: &mut NodeStats,
        events: &mut Vec<SessionEvent>,
    ) {
        // the remote is known once the handshake was counted opened
        if self.remote.is_some() {
            stats.sessions_closed += 1;
        } else {
            stats.sessions_failed += 1;
        }
        self.state = SessionState::Closed { clean };
        events.push(SessionEvent::Closed {
            token: self.token,
            clean,
        });
    }

    /// Encode and send a control envelope (hello/bye) through a pooled
    /// buffer, which goes straight back to the pool.
    fn send_control(
        &mut self,
        stats: &mut NodeStats,
        pool: &mut BufPool,
        env: &Envelope,
    ) -> std::io::Result<()> {
        let mut buf = pool.take();
        wire::encode_envelope_into(env, &mut buf);
        let sent = self.conn.try_send(&buf);
        if sent.is_ok() {
            stats.bytes_sent += buf.len() as u64;
        }
        pool.put(buf);
        sent
    }

    fn account_sent(frame: &OutFrame, stats: &mut NodeStats) {
        stats.bytes_sent += frame.bytes.as_slice().len() as u64;
        match frame.kind {
            FrameKind::Delta => {
                stats.records_sent += frame.records as u64;
                stats.deltas_sent += 1;
            }
            FrameKind::Digest => stats.digests_sent += 1,
            FrameKind::Piece => stats.pieces_sent += 1,
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
        stats: &mut NodeStats,
        events: &mut Vec<SessionEvent>,
    ) -> bool {
        if self.is_closed() {
            return false;
        }
        let mut progress = false;

        // 1. our Hello opens the conversation, exactly once
        if !self.hello_sent {
            let hello = Envelope::Hello {
                peer: local,
                version: wire::NODE_PROTOCOL_VERSION,
            };
            if self.send_control(stats, pool, &hello).is_err() {
                self.close(false, stats, events);
                return true;
            }
            self.hello_sent = true;
            progress = true;
        }

        // 2. read to WouldBlock (or EOF), feeding the decoder. EOF is
        // only *recorded* here: frames already in the buffer — the
        // peer's Bye racing its close, typically — must still dispatch
        // before the verdict in step 3b.
        let mut read_buf = [0u8; 4096];
        let mut saw_eof = false;
        loop {
            match self.conn.try_recv(&mut read_buf) {
                Ok(Some(0)) => {
                    saw_eof = true;
                    break;
                }
                Ok(Some(n)) => {
                    stats.bytes_received += n as u64;
                    self.decoder.feed(&read_buf[..n]);
                    self.last_activity = now;
                    progress = true;
                }
                Ok(None) => break,
                Err(_) => {
                    self.close(false, stats, events);
                    return true;
                }
            }
        }

        // 3. dispatch every complete frame
        loop {
            let payload = match self.decoder.next_frame() {
                Ok(Some(p)) => p,
                Ok(None) => break,
                Err(_) => {
                    stats.protocol_errors += 1;
                    self.close(false, stats, events);
                    return true;
                }
            };
            progress = true;
            let env = match wire::decode_envelope(&payload) {
                Ok(env) => env,
                Err(_) => {
                    stats.protocol_errors += 1;
                    self.close(false, stats, events);
                    return true;
                }
            };
            match (self.state, env) {
                (SessionState::Handshake, Envelope::Hello { peer, .. }) => {
                    self.remote = Some(peer);
                    stats.sessions_opened += 1;
                    self.state = SessionState::Exchange;
                    events.push(SessionEvent::Established {
                        token: self.token,
                        remote: peer,
                    });
                }
                (SessionState::Handshake, _) => {
                    // anything before the peer's Hello: protocol error
                    stats.protocol_errors += 1;
                    self.close(false, stats, events);
                    return true;
                }
                (SessionState::Exchange, Envelope::Digest { sender, claim }) => {
                    let from = self.remote.expect("established session has a remote");
                    if sender != from {
                        // a digest must speak for the session peer;
                        // anything else is identity confusion
                        stats.protocol_errors += 1;
                        self.close(false, stats, events);
                        return true;
                    }
                    events.push(SessionEvent::Digest {
                        token: self.token,
                        from,
                        claim,
                    });
                }
                (SessionState::Exchange, Envelope::Delta(msg)) => {
                    let from = self.remote.expect("established session has a remote");
                    if msg.sender != from {
                        stats.protocol_errors += 1;
                        self.close(false, stats, events);
                        return true;
                    }
                    stats.records_received += msg.records.len() as u64;
                    events.push(SessionEvent::Delta { from, msg });
                }
                (SessionState::Exchange, Envelope::Swarm(frame)) => {
                    if matches!(frame, SwarmFrame::Piece { .. }) {
                        stats.pieces_received += 1;
                    }
                    events.push(SessionEvent::Frame {
                        token: self.token,
                        from: self.remote.expect("established session has a remote"),
                        frame,
                    });
                }
                (SessionState::Exchange, Envelope::Bye) => {
                    // peer is done; answer in kind (best-effort — it may
                    // already be gone) so both logs agree, then close
                    let _ = self.send_control(stats, pool, &Envelope::Bye);
                    self.close(true, stats, events);
                    return true;
                }
                (SessionState::Exchange, Envelope::Hello { .. } | Envelope::Records(_)) => {
                    // a second Hello, or the bare `Records` frame: records
                    // travel only in a `Delta`, whose sender is checked
                    // against the session peer above
                    stats.protocol_errors += 1;
                    self.close(false, stats, events);
                    return true;
                }
                (SessionState::Closed { .. }, _) => unreachable!("pumping a closed session"),
            }
        }

        // 3b. the EOF verdict, now that buffered frames have spoken: a
        // close without the peer's Bye is unclean
        if saw_eof {
            self.close(false, stats, events);
            return true;
        }

        // 4. write every queued frame; the bytes were encoded at
        // enqueue time
        if self.state == SessionState::Exchange {
            while let Some(frame) = self.outbound.pop_front() {
                if self.conn.try_send(frame.bytes.as_slice()).is_err() {
                    self.close(false, stats, events);
                    return true;
                }
                Self::account_sent(&frame, stats);
                if let FrameBytes::Pooled(buf) = frame.bytes {
                    pool.put(buf);
                }
                progress = true;
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
        stats: &mut NodeStats,
        events: &mut Vec<SessionEvent>,
    ) -> Option<Instant> {
        let deadline = match self.state {
            SessionState::Handshake => self.started_at + HANDSHAKE_TIMEOUT,
            SessionState::Exchange => self.last_activity + IDLE_TIMEOUT,
            SessionState::Closed { .. } => return None,
        };
        if now >= deadline {
            self.close(false, stats, events);
            return None;
        }
        Some(deadline)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::VirtualClock;
    use crate::mem::{MemConfig, MemTransport};
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

    /// A fresh network on a fresh virtual clock.
    fn net() -> MemTransport {
        MemTransport::with_clock(MemConfig::default(), Rc::new(VirtualClock::new()))
    }

    fn pair(t: &MemTransport) -> (MemConn, MemConn) {
        let mut listener = t.listen(PeerId(1));
        let a = t.connect(PeerId(0), PeerId(1)).unwrap();
        let b = listener.try_accept().expect("queued conn");
        (a, b)
    }

    /// Advance `t`'s clock to the earliest of `arrivals` still in the
    /// future; `false` when none is, so nothing more can land.
    fn advance(t: &MemTransport, arrivals: &[Option<Instant>]) -> bool {
        let clock = t.clock();
        let now = clock.now();
        match arrivals.iter().flatten().filter(|&&at| at > now).min() {
            Some(&at) => {
                clock.advance_to(at);
                true
            }
            None => false,
        }
    }

    /// Two sessions over one fresh connection on virtual time: `a`
    /// dialed as peer 0, `b` accepted as peer 1, sharing one pool and
    /// one set of counters.
    struct Duo {
        t: MemTransport,
        a: Session,
        b: Session,
        pool: BufPool,
        stats: NodeStats,
        ev_a: Vec<SessionEvent>,
        ev_b: Vec<SessionEvent>,
    }

    impl Duo {
        /// A pair with session tokens `(ta, tb)`, settled through the
        /// handshake.
        fn established(ta: u64, tb: u64) -> Duo {
            let t = net();
            let (conn_a, conn_b) = pair(&t);
            let now = t.clock().now();
            let mut duo = Duo {
                a: Session::new(ta, conn_a, now),
                b: Session::new(tb, conn_b, now),
                t,
                pool: BufPool::new(),
                stats: NodeStats::default(),
                ev_a: Vec::new(),
                ev_b: Vec::new(),
            };
            duo.settle();
            assert!(duo.a.is_established() && duo.b.is_established());
            duo
        }

        /// Queue `env` on `a` under a cap of 8.
        fn send_a(&mut self, env: &Envelope) -> bool {
            self.a
                .enqueue_envelope(env, &mut self.pool, 8, &mut self.stats)
        }

        /// Queue `env` on `b` under a cap of 8.
        fn send_b(&mut self, env: &Envelope) -> bool {
            self.b
                .enqueue_envelope(env, &mut self.pool, 8, &mut self.stats)
        }

        /// Pump both sessions until neither makes progress, advancing
        /// the virtual clock to each in-flight frame's arrival, until
        /// nothing is left in flight.
        fn settle(&mut self) {
            loop {
                let now = self.t.clock().now();
                let (pool, stats) = (&mut self.pool, &mut self.stats);
                let pa = self.a.pump(PeerId(0), now, pool, stats, &mut self.ev_a);
                let pb = self.b.pump(PeerId(1), now, pool, stats, &mut self.ev_b);
                let arrivals = [self.a.next_ready_at(), self.b.next_ready_at()];
                if !(pa || pb || advance(&self.t, &arrivals)) {
                    return;
                }
            }
        }
    }

    #[test]
    fn paired_sessions_exchange_and_close_cleanly() {
        let mut d = Duo::established(10, 20);
        assert!(d.send_a(&msg(0, 5, 100)));
        assert!(d.send_b(&msg(1, 6, 200)));
        d.settle();

        assert!(matches!(
            d.ev_a[0],
            SessionEvent::Established {
                token: 10,
                remote: PeerId(1),
            }
        ));
        assert!(
            matches!(&d.ev_a[1], SessionEvent::Delta { from: PeerId(1), msg } if msg.sender == PeerId(1))
        );
        assert!(matches!(
            d.ev_b[0],
            SessionEvent::Established {
                token: 20,
                remote: PeerId(0),
            }
        ));
        assert!(
            matches!(&d.ev_b[1], SessionEvent::Delta { from: PeerId(0), msg } if msg.sender == PeerId(0))
        );

        let s = d.stats;
        assert_eq!(s.sessions_opened, 2);
        assert_eq!(s.records_sent, 2);
        assert_eq!(s.records_received, 2);
        assert!(s.bytes_sent > 0 && s.bytes_received > 0);

        // the one close path, driven from a raw end: the peer's Bye is
        // answered with exactly one Bye and closes clean; a hang-up
        // without a Bye closes unclean
        let hello = |peer| Envelope::Hello {
            peer: PeerId(peer),
            version: wire::NODE_PROTOCOL_VERSION,
        };
        for bye in [true, false] {
            let t = net();
            let (mut raw, conn) = pair(&t);
            let mut stats = NodeStats::default();
            let mut s = Session::new(30, conn, t.clock().now());
            let mut events = Vec::new();
            raw.try_send(&wire::encode_envelope(&hello(0))).unwrap();
            pump_alone(&t, &mut s, &mut d.pool, &mut stats, &mut events);
            assert!(s.is_established());
            if bye {
                raw.try_send(&wire::encode_envelope(&Envelope::Bye))
                    .unwrap();
                pump_alone(&t, &mut s, &mut d.pool, &mut stats, &mut events);
                drop(s); // the raw end reads to EOF
                assert_eq!(read_frames(&t, &mut raw), vec![hello(1), Envelope::Bye]);
            } else {
                drop(raw);
                pump_alone(&t, &mut s, &mut d.pool, &mut stats, &mut events);
            }
            assert!(
                matches!(events.last(), Some(SessionEvent::Closed { token: 30, clean }) if *clean == bye),
                "bye={bye}: {events:?}"
            );
            assert_eq!(stats.sessions_closed, 1);
        }
    }

    /// Pump one session until it makes no progress and nothing is left
    /// in flight toward it, advancing the virtual clock to each
    /// arrival.
    fn pump_alone(
        t: &MemTransport,
        s: &mut Session,
        pool: &mut BufPool,
        stats: &mut NodeStats,
        events: &mut Vec<SessionEvent>,
    ) {
        while s.pump(PeerId(1), t.clock().now(), pool, stats, events)
            || advance(t, &[s.next_ready_at()])
        {}
    }

    /// Every envelope a raw end reads before EOF, or before nothing is
    /// left in flight toward it.
    fn read_frames(t: &MemTransport, conn: &mut MemConn) -> Vec<Envelope> {
        let mut decoder = FrameDecoder::new();
        let mut buf = [0u8; 256];
        loop {
            match conn.try_recv(&mut buf).unwrap() {
                Some(0) => break,
                Some(n) => decoder.feed(&buf[..n]),
                None if advance(t, &[conn.next_ready_at()]) => {}
                None => break,
            }
        }
        std::iter::from_fn(|| decoder.next_frame().unwrap())
            .map(|payload| wire::decode_envelope(&payload).unwrap())
            .collect()
    }

    /// A session dialing a peer that never speaks must fail via its
    /// handshake deadline, not hang.
    #[test]
    fn silent_peer_fails_handshake_at_deadline() {
        let t = net();
        let (conn_a, _mute) = pair(&t);
        let mut stats = NodeStats::default();
        let mut pool = BufPool::new();
        let t0 = t.clock().now();
        let mut s = Session::new(1, conn_a, t0);
        let mut events = Vec::new();
        s.pump(PeerId(0), t0, &mut pool, &mut stats, &mut events);
        // before the deadline: still waiting, and a re-check is scheduled
        let next = s
            .check_deadlines(t0 + Duration::from_millis(10), &mut stats, &mut events)
            .expect("still pending");
        assert_eq!(next, t0 + HANDSHAKE_TIMEOUT);
        // past the deadline: closed unclean, counted as failed
        assert!(s.check_deadlines(next, &mut stats, &mut events).is_none());
        assert!(s.is_closed());
        assert!(matches!(
            events.last().unwrap(),
            SessionEvent::Closed { clean: false, .. }
        ));
        assert_eq!(stats.sessions_failed, 1);
    }

    /// Swarm frames ride the same session as record exchanges and are
    /// surfaced as `Frame` events with piece counters maintained.
    #[test]
    fn swarm_frames_flow_alongside_records() {
        let mut d = Duo::established(1, 2);
        assert!(d.send_a(&Envelope::Swarm(SwarmFrame::Request { piece: 4 })));
        assert!(d.send_a(&msg(0, 5, 100)));
        let piece = Envelope::Swarm(SwarmFrame::Piece {
            piece: 4,
            size: 16384,
        });
        assert!(d.send_b(&piece));
        d.settle();

        assert!(d.ev_b.iter().any(|e| matches!(
            e,
            SessionEvent::Frame {
                from: PeerId(0),
                frame: SwarmFrame::Request { piece: 4 },
                ..
            }
        )));
        assert!(d
            .ev_b
            .iter()
            .any(|e| matches!(e, SessionEvent::Delta { .. })));
        assert!(d.ev_a.iter().any(|e| matches!(
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
        let s = d.stats;
        assert_eq!(s.pieces_sent, 1);
        assert_eq!(s.pieces_received, 1);
        assert_eq!(s.records_sent, 1);
    }

    /// Queueing past the cap sheds and counts.
    #[test]
    fn full_outbound_queue_sheds() {
        let Duo {
            mut a,
            mut pool,
            mut stats,
            ..
        } = Duo::established(1, 2);
        assert!(a.enqueue_envelope(&msg(0, 1, 1), &mut pool, 2, &mut stats));
        assert!(a.enqueue_envelope(&msg(0, 1, 2), &mut pool, 2, &mut stats));
        assert!(
            !a.enqueue_envelope(&msg(0, 1, 3), &mut pool, 2, &mut stats),
            "cap is 2"
        );
        let shared: Rc<[u8]> = Rc::from(&wire::encode_envelope(&Envelope::Bye)[..]);
        assert!(!a.enqueue_shared(shared, 0, 2, &mut stats), "one cap");
        assert_eq!(stats.shed_session, 2);
        assert_eq!(pool.outstanding(), 2, "a shed frame takes no buffer");
    }

    /// Digest/Delta envelopes flow between paired sessions, counters
    /// advance, and pooled buffers all come home once the wire is
    /// quiet.
    #[test]
    fn digest_and_delta_roundtrip_between_sessions() {
        let mut d = Duo::established(1, 2);
        // a (PeerId 0) digests b with an empty claim …
        let digest = Envelope::Digest {
            sender: PeerId(0),
            claim: Frontier::default(),
        };
        assert!(d.send_a(&digest));
        d.settle();
        assert!(d.ev_b.iter().any(|e| matches!(
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
        assert!(d.send_b(&Envelope::Delta(delta.clone())));
        d.settle();
        assert!(d.ev_a.iter().any(|e| matches!(
            e,
            SessionEvent::Delta { from: PeerId(1), msg } if *msg == delta
        )));

        let s = d.stats;
        assert_eq!(s.digests_sent, 1);
        assert_eq!(s.deltas_sent, 1);
        assert_eq!(s.records_sent, 2, "delta records count as records");
        assert_eq!(s.records_received, 2);
        assert_eq!(d.pool.outstanding(), 0, "every pooled buffer came home");
        assert!(d.pool.pooled() > 0);
    }

    /// A delta whose sender field does not match the session peer is
    /// identity confusion: protocol error, unclean close.
    #[test]
    fn mismatched_delta_sender_is_a_protocol_error() {
        let mut d = Duo::established(1, 2);
        // b is PeerId(1) but claims to be PeerId(9)
        let forged = DeltaMsg {
            sender: PeerId(9),
            full: false,
            stamp: Frontier::default(),
            records: vec![],
        };
        assert!(d.send_b(&Envelope::Delta(forged)));
        d.settle();
        assert!(d.a.is_closed());
        assert!(d.stats.protocol_errors >= 1);
        assert!(!d
            .ev_a
            .iter()
            .any(|e| matches!(e, SessionEvent::Delta { .. })));
    }
}

//! The overload load-generator: thousands of scripted dialers against
//! one node.
//!
//! [`run_loadgen`] hammers a single target with `dialers` concurrent
//! connections, each a tiny scripted state machine
//! (`Hello → WaitHello → Stream → WaitBye → Done`) driven from one
//! scan loop — the generator itself is event-driven, so 5,000 dialers
//! cost 5,000 small structs, not 5,000 threads. Each dialer completes
//! the handshake, streams a fixed number of `Records` frames, then
//! sends `Bye` and waits for the echo.
//!
//! What the [`LoadGenReport`] measures is the *target's* overload
//! behaviour:
//!
//! * `established` vs `shed` — how many dialers got service vs were
//!   accepted-then-dropped at the target's `max_sessions` cap (a shed
//!   dialer sees EOF before any `Hello` reply);
//! * `p50_session_ms` / `p99_session_ms` — dial-to-done latency of the
//!   *successful* sessions, i.e. what service under pressure feels
//!   like for the peers that do get in;
//! * `records_sent` / elapsed — aggregate throughput the one reactor
//!   thread sustained.

use crate::transport::{Conn, Transport};
use crate::wire::{self, Envelope};
use bartercast_core::codec::FrameDecoder;
use bartercast_core::{BarterCastMessage, TransferRecord};
use bartercast_util::units::{Bytes, PeerId};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Load-generator parameters.
#[derive(Debug, Clone, Copy)]
pub struct LoadGenConfig {
    /// Concurrent dialing peers.
    pub dialers: usize,
    /// `Records` frames each dialer streams after its handshake.
    pub frames_per_dialer: usize,
    /// Transfer records inside each frame.
    pub records_per_frame: usize,
    /// Dialers started per scan iteration (ramp rate).
    pub dial_batch: usize,
    /// Give-up deadline for the whole run.
    pub timeout: Duration,
    /// Base peer id for dialers (the target's id must not collide).
    pub first_peer: u32,
}

impl Default for LoadGenConfig {
    fn default() -> Self {
        LoadGenConfig {
            dialers: 1000,
            frames_per_dialer: 4,
            records_per_frame: 8,
            dial_batch: 64,
            timeout: Duration::from_secs(60),
            first_peer: 1000,
        }
    }
}

/// What the run measured.
#[derive(Debug, Clone, Copy, Default)]
pub struct LoadGenReport {
    /// Dialers that got a connection object at all.
    pub dialed: usize,
    /// Dialers whose handshake completed (the target's Hello arrived).
    pub established: usize,
    /// Dialers that saw EOF before the target's Hello — the target
    /// accepted-then-dropped them (its `shed_accept` path).
    pub shed: usize,
    /// Dialers that errored any other way (dial refused, reset
    /// mid-stream, deadline).
    pub failed: usize,
    /// Dialers that ran their whole script including the Bye echo.
    pub completed: usize,
    /// Frames the dialers actually put on the wire (handshake and
    /// teardown included), counted at send time.
    pub frames_sent: u64,
    /// Transfer records actually put on the wire toward the target,
    /// counted at send time — partial progress of shed and failed
    /// dialers included, unlike a `completed × frames × records`
    /// estimate.
    pub records_sent: u64,
    /// Frames received back from the target (hellos, gossip, digests,
    /// byes).
    pub frames_received: u64,
    /// Transfer records received back from the target (its `Delta`
    /// pushes and replies).
    pub records_received: u64,
    /// Wall-clock duration of the run.
    pub elapsed: Duration,
    /// Median dial-to-done latency of completed sessions, milliseconds.
    pub p50_session_ms: f64,
    /// 99th-percentile dial-to-done latency, milliseconds.
    pub p99_session_ms: f64,
}

impl LoadGenReport {
    /// Records per second over the run.
    pub fn records_per_sec(&self) -> f64 {
        if self.elapsed.is_zero() {
            return 0.0;
        }
        self.records_sent as f64 / self.elapsed.as_secs_f64()
    }
}

enum DialerState {
    /// Waiting for the target's Hello.
    WaitHello,
    /// Streaming records; `sent` so far.
    Stream { sent: usize },
    /// Bye sent; waiting for the echo.
    WaitBye,
    /// Script finished cleanly.
    Done,
    /// EOF before the target's Hello: shed at accept.
    Shed,
    /// Any other failure.
    Failed,
}

struct Dialer {
    conn: Box<dyn Conn>,
    decoder: FrameDecoder,
    state: DialerState,
    started: Instant,
    finished: Option<Instant>,
    /// Per-dialer wire accounting, counted at actual send/receive so
    /// partial progress of shed and failed dialers is preserved.
    frames_sent: u64,
    records_sent: u64,
    frames_received: u64,
    records_received: u64,
}

impl Dialer {
    fn terminal(&self) -> bool {
        matches!(
            self.state,
            DialerState::Done | DialerState::Shed | DialerState::Failed
        )
    }

    /// One scan: read what's there, advance the script, write what
    /// fits. Returns whether progress was made.
    fn pump(&mut self, frame: &[u8], config: &LoadGenConfig, now: Instant) -> bool {
        if self.terminal() {
            return false;
        }
        let mut progress = false;
        if self.conn.flush().is_err() {
            self.fail(now);
            return true;
        }
        // inbound; EOF is only recorded so frames already buffered
        // (the target's Bye racing its close) still dispatch first
        let mut buf = [0u8; 4096];
        let mut saw_eof = false;
        loop {
            match self.conn.try_recv(&mut buf) {
                Ok(Some(0)) => {
                    saw_eof = true;
                    break;
                }
                Ok(Some(n)) => {
                    self.decoder.feed(&buf[..n]);
                    progress = true;
                }
                Ok(None) => break,
                Err(_) => {
                    self.fail(now);
                    return true;
                }
            }
        }
        loop {
            let payload = match self.decoder.next_frame() {
                Ok(Some(p)) => p,
                Ok(None) => break,
                Err(_) => {
                    self.fail(now);
                    return true;
                }
            };
            progress = true;
            self.frames_received += 1;
            match (wire::decode_envelope(&payload), &self.state) {
                (Ok(Envelope::Hello { .. }), DialerState::WaitHello) => {
                    self.state = DialerState::Stream { sent: 0 };
                }
                (Ok(Envelope::Bye), DialerState::WaitBye) => {
                    self.state = DialerState::Done;
                    self.finished = Some(now);
                    return true;
                }
                (Ok(Envelope::Digest { .. }), _) => {} // anti-entropy probe; ignore
                (Ok(Envelope::Delta(delta)), _) => {
                    // target gossip; count it, don't act on it
                    self.records_received += delta.records.len() as u64;
                }
                (Ok(Envelope::Bye), _) => {
                    // early Bye (target draining): count as failed script
                    self.fail(now);
                    return true;
                }
                _ => {
                    self.fail(now);
                    return true;
                }
            }
        }
        if saw_eof {
            self.state = match self.state {
                DialerState::WaitHello => DialerState::Shed,
                _ => DialerState::Failed,
            };
            self.finished = Some(now);
            return true;
        }
        // outbound script
        if let DialerState::Stream { sent } = self.state {
            let mut sent = sent;
            while sent < config.frames_per_dialer {
                match self.conn.try_send(frame) {
                    Ok(true) => {
                        sent += 1;
                        self.frames_sent += 1;
                        self.records_sent += config.records_per_frame as u64;
                        progress = true;
                    }
                    Ok(false) => break,
                    Err(_) => {
                        self.fail(now);
                        return true;
                    }
                }
            }
            if sent >= config.frames_per_dialer {
                match self.conn.try_send(&wire::encode_envelope(&Envelope::Bye)) {
                    Ok(true) => {
                        self.state = DialerState::WaitBye;
                        self.frames_sent += 1;
                        progress = true;
                    }
                    Ok(false) => self.state = DialerState::Stream { sent },
                    Err(_) => {
                        self.fail(now);
                        return true;
                    }
                }
            } else {
                self.state = DialerState::Stream { sent };
            }
        }
        progress
    }

    fn fail(&mut self, now: Instant) {
        self.state = DialerState::Failed;
        self.finished = Some(now);
    }
}

/// Run the load scenario against `target` over `transport`. The target
/// node must already be listening.
pub fn run_loadgen(
    transport: Arc<dyn Transport>,
    target: PeerId,
    config: LoadGenConfig,
) -> LoadGenReport {
    // one canonical Records frame shared by every dialer: the payload
    // content doesn't matter for overload behaviour, only its size
    let frame = {
        let records: Vec<TransferRecord> = (0..config.records_per_frame)
            .map(|i| TransferRecord {
                peer: PeerId(config.first_peer + i as u32),
                up: Bytes((i as u64 + 1) * 1024),
                down: Bytes::ZERO,
            })
            .collect();
        let msg = BarterCastMessage {
            sender: PeerId(config.first_peer),
            records,
        };
        wire::encode_envelope(&Envelope::Records(msg))
    };

    let started = Instant::now();
    let deadline = started + config.timeout;
    let mut dialers: Vec<Dialer> = Vec::with_capacity(config.dialers);
    let mut dialed = 0usize;
    let mut failed_dials = 0usize;
    let mut next_id = config.first_peer;

    while Instant::now() < deadline {
        let now = Instant::now();
        // ramp: start up to dial_batch new dialers per scan
        let mut batch = 0;
        while dialed + failed_dials < config.dialers && batch < config.dial_batch {
            batch += 1;
            let id = PeerId(next_id);
            next_id += 1;
            match transport.connect(id, target) {
                Ok(conn) => {
                    dialed += 1;
                    let hello = wire::encode_envelope(&Envelope::Hello {
                        peer: id,
                        version: wire::NODE_PROTOCOL_VERSION,
                    });
                    let mut d = Dialer {
                        conn,
                        decoder: FrameDecoder::new(),
                        state: DialerState::WaitHello,
                        started: now,
                        finished: None,
                        frames_sent: 0,
                        records_sent: 0,
                        frames_received: 0,
                        records_received: 0,
                    };
                    // a send error here means the target already closed
                    // the freshly-accepted conn (its shed path racing
                    // our Hello); keep the dialer — its pump will read
                    // the EOF and classify it as shed
                    if let Ok(true) = d.conn.try_send(&hello) {
                        d.frames_sent += 1;
                    }
                    dialers.push(d);
                    continue;
                }
                Err(_) => failed_dials += 1,
            }
        }
        // scan every live dialer
        let mut progress = batch > 0;
        for d in dialers.iter_mut() {
            if d.pump(&frame, &config, now) {
                progress = true;
            }
        }
        let all_started = dialed + failed_dials >= config.dialers;
        let all_done = dialers.iter().all(Dialer::terminal);
        if all_started && all_done {
            break;
        }
        if !progress {
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    let elapsed = started.elapsed();
    let mut established = 0usize;
    let mut shed = 0usize;
    let mut failed = failed_dials;
    let mut completed = 0usize;
    let mut frames_sent = 0u64;
    let mut records_sent = 0u64;
    let mut frames_received = 0u64;
    let mut records_received = 0u64;
    let mut latencies_ms: Vec<f64> = Vec::new();
    for d in &dialers {
        frames_sent += d.frames_sent;
        records_sent += d.records_sent;
        frames_received += d.frames_received;
        records_received += d.records_received;
        match d.state {
            DialerState::Done => {
                established += 1;
                completed += 1;
                if let Some(f) = d.finished {
                    latencies_ms.push((f - d.started).as_secs_f64() * 1e3);
                }
            }
            DialerState::Shed => shed += 1,
            // past WaitHello means the handshake completed
            DialerState::Stream { .. } | DialerState::WaitBye => {
                established += 1;
                failed += 1; // script never finished (deadline)
            }
            DialerState::WaitHello | DialerState::Failed => failed += 1,
        }
    }
    latencies_ms.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    let pct = |p: f64| -> f64 {
        if latencies_ms.is_empty() {
            return 0.0;
        }
        let idx = ((latencies_ms.len() as f64 - 1.0) * p).round() as usize;
        latencies_ms[idx]
    };
    LoadGenReport {
        dialed,
        established,
        shed,
        failed,
        completed,
        frames_sent,
        records_sent,
        frames_received,
        records_received,
        elapsed,
        p50_session_ms: pct(0.50),
        p99_session_ms: pct(0.99),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mem::{MemConfig, MemTransport};
    use crate::node::{Node, NodeConfig};
    use bartercast_core::PrivateHistory;

    #[test]
    fn small_loadgen_run_completes_against_a_node() {
        let transport = Arc::new(MemTransport::new(MemConfig::default()));
        let node = Node::spawn(
            PeerId(0),
            Arc::clone(&transport) as Arc<dyn Transport>,
            vec![],
            PrivateHistory::new(PeerId(0)),
            NodeConfig {
                exchange_interval: Duration::from_secs(3600), // stay passive
                ..NodeConfig::default()
            },
        )
        .unwrap();
        let report = run_loadgen(
            Arc::clone(&transport) as Arc<dyn Transport>,
            PeerId(0),
            LoadGenConfig {
                dialers: 32,
                frames_per_dialer: 2,
                records_per_frame: 4,
                dial_batch: 8,
                timeout: Duration::from_secs(20),
                first_peer: 100,
            },
        );
        assert_eq!(report.dialed, 32);
        assert_eq!(report.completed, 32, "all scripts must finish: {report:?}");
        assert_eq!(report.shed, 0);
        assert_eq!(report.records_sent, 32 * 2 * 4);
        // per completed dialer: Hello + 2 Records + Bye out, the
        // passive target's Hello + Bye echo back
        assert_eq!(report.frames_sent, 32 * 4);
        assert_eq!(report.frames_received, 32 * 2);
        assert_eq!(report.records_received, 0, "target stayed passive");
        assert!(report.p99_session_ms >= report.p50_session_ms);
        let stats = node.shutdown();
        assert_eq!(stats.sessions_opened, 32);
        assert_eq!(stats.records_received, 32 * 2 * 4);
    }

    #[test]
    fn overloaded_target_sheds_above_its_session_cap() {
        let transport = Arc::new(MemTransport::new(MemConfig::default()));
        let node = Node::spawn(
            PeerId(0),
            Arc::clone(&transport) as Arc<dyn Transport>,
            vec![],
            PrivateHistory::new(PeerId(0)),
            NodeConfig {
                exchange_interval: Duration::from_secs(3600),
                max_sessions: 8,
                ..NodeConfig::default()
            },
        )
        .unwrap();
        let report = run_loadgen(
            Arc::clone(&transport) as Arc<dyn Transport>,
            PeerId(0),
            LoadGenConfig {
                dialers: 64,
                frames_per_dialer: 1,
                records_per_frame: 2,
                dial_batch: 64, // slam them all in at once
                timeout: Duration::from_secs(20),
                first_peer: 100,
            },
        );
        assert!(
            report.shed > 0,
            "a 64-dialer slam against max_sessions=8 must shed: {report:?}"
        );
        let stats = node.shutdown();
        assert_eq!(stats.shed_accept, report.shed as u64);
        assert!(stats.sessions_peak <= 8);
    }
}

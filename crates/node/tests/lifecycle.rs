//! Session-lifecycle edge cases under the reactor.
//!
//! Three failure-mode contracts the refactor must honour:
//!
//! 1. a **half-open peer** — completes the handshake then goes silent —
//!    is reaped by the idle deadline on the timer wheel, and the peer
//!    observes the close;
//! 2. a **`Bye` arriving while the decoder holds a partial frame**
//!    still drains cleanly: the buffered frame is dispatched first,
//!    then the `Bye` closes the session clean;
//! 3. **dial backoff caps at its maximum** with jitter strictly inside
//!    the configured bounds, for any failure count.

use bartercast_core::codec::BufPool;
use bartercast_core::{BarterCastMessage, PrivateHistory, TransferRecord};
use bartercast_node::backoff_delay;
use bartercast_node::mem::{MemConfig, MemTransport};
use bartercast_node::session::{Direction, Session, SessionEvent};
use bartercast_node::stats::NodeCounters;
use bartercast_node::transport::Transport;
use bartercast_node::wire::{self, Envelope};
use bartercast_node::{Lockstep, NodeConfig};
use bartercast_util::units::{Bytes, PeerId};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::{Duration, Instant};

/// A half-open peer: sends its Hello, establishes, then never speaks
/// again. The node's idle deadline must reap the session and the peer
/// must see the close. On virtual time the default 30 s deadline costs
/// nothing.
#[test]
fn half_open_peer_hits_the_idle_timeout() {
    let mut lockstep = Lockstep::new(MemConfig::default());
    lockstep
        .spawn(
            PeerId(0),
            vec![],
            PrivateHistory::new(PeerId(0)),
            NodeConfig::default(),
        )
        .unwrap();
    let mut conn = lockstep.transport().connect(PeerId(9), PeerId(0)).unwrap();
    conn.try_send(&wire::encode_envelope(&Envelope::Hello {
        peer: PeerId(9),
        version: wire::NODE_PROTOCOL_VERSION,
    }))
    .unwrap();
    // ...and then silence. The node must establish, wait out the idle
    // deadline, and close.
    let stats = |l: &Lockstep| l.stats()[&PeerId(0)];
    assert!(lockstep.run_until(|l| stats(l).sessions_closed == 1, Duration::from_secs(60)));
    let reaped_at = lockstep.elapsed();
    assert!(
        reaped_at >= Duration::from_secs(30) && reaped_at < Duration::from_secs(31),
        "reaped at {reaped_at:?}, not at the idle deadline"
    );
    let stats = stats(&lockstep);
    assert_eq!(stats.sessions_opened, 1, "handshake did complete");
    assert_eq!(stats.sessions_live, 0);
    assert_eq!(stats.protocol_errors, 0);
    // the peer observes the close as EOF once the node's Hello is read
    let mut buf = [0u8; 4096];
    loop {
        match conn.try_recv(&mut buf) {
            Ok(Some(0)) | Err(_) => break,
            Ok(Some(_)) => {} // the node's Hello; drain and ignore
            Ok(None) => panic!("the reaped session left the peer hanging"),
        }
    }
}

/// Feed a session a Records frame split at an arbitrary byte boundary,
/// with the peer's Bye following immediately after the second half.
/// The partially-decoded frame must be delivered, then the Bye must
/// close the session *clean* — nothing about the split may poison the
/// decoder or downgrade the teardown.
#[test]
fn bye_after_a_partially_decoded_frame_drains_cleanly() {
    let transport = MemTransport::new(MemConfig {
        max_delay: Duration::ZERO, // keep the chunk schedule immediate
        ..MemConfig::default()
    });
    let mut listener = transport.listen(PeerId(1)).unwrap();
    let mut raw = transport.connect(PeerId(0), PeerId(1)).unwrap();
    let accepted = listener.try_accept().unwrap().expect("queued conn");

    let counters = NodeCounters::default();
    let mut events: Vec<SessionEvent> = Vec::new();
    let mut session = Session::new(7, accepted, Direction::Responder, Instant::now());

    // handshake: raw peer says Hello, session establishes
    raw.try_send(&wire::encode_envelope(&Envelope::Hello {
        peer: PeerId(0),
        version: wire::NODE_PROTOCOL_VERSION,
    }))
    .unwrap();
    pump_settled(&mut session, &counters, &mut events);
    assert!(session.is_established());

    // one Records frame, split mid-frame; Bye right behind the tail
    let msg = BarterCastMessage {
        sender: PeerId(0),
        records: vec![TransferRecord {
            peer: PeerId(5),
            up: Bytes(4096),
            down: Bytes::ZERO,
        }],
    };
    let frame = wire::encode_envelope(&Envelope::Records(msg));
    let split = frame.len() / 2;
    assert!(split > 0 && split < frame.len());
    raw.try_send(&frame[..split]).unwrap();
    pump_settled(&mut session, &counters, &mut events);
    assert!(
        !events
            .iter()
            .any(|e| matches!(e, SessionEvent::Records { .. })),
        "half a frame must not decode"
    );
    assert!(!session.is_closed(), "half a frame must not close anything");

    raw.try_send(&frame[split..]).unwrap();
    raw.try_send(&wire::encode_envelope(&Envelope::Bye))
        .unwrap();
    pump_settled(&mut session, &counters, &mut events);

    assert!(
        events.iter().any(|e| matches!(
            e,
            SessionEvent::Records {
                from: PeerId(0),
                ..
            }
        )),
        "the split frame must be delivered before the Bye is honoured"
    );
    assert!(matches!(
        events.last().unwrap(),
        SessionEvent::Closed { clean: true, .. }
    ));
    let stats = counters.snapshot();
    assert_eq!(stats.sessions_closed, 1);
    assert_eq!(stats.protocol_errors, 0);
    // the session answered the Bye in kind: drain our side and find it
    let mut got = Vec::new();
    let deadline = Instant::now() + Duration::from_secs(1);
    let mut buf = [0u8; 4096];
    while Instant::now() < deadline {
        match raw.try_recv(&mut buf) {
            Ok(Some(0)) => break,
            Ok(Some(n)) => got.extend_from_slice(&buf[..n]),
            Ok(None) => std::thread::sleep(Duration::from_millis(1)),
            Err(_) => break,
        }
    }
    let mut decoder = bartercast_core::codec::FrameDecoder::new();
    decoder.feed(&got);
    let mut saw_bye = false;
    while let Ok(Some(payload)) = decoder.next_frame() {
        if matches!(wire::decode_envelope(&payload), Ok(Envelope::Bye)) {
            saw_bye = true;
        }
    }
    assert!(saw_bye, "the clean close must answer Bye with Bye");
}

/// Pump one session until it reports no further progress (with small
/// real-time sleeps for the mem pipe's delivery).
fn pump_settled(session: &mut Session, counters: &NodeCounters, events: &mut Vec<SessionEvent>) {
    let mut pool = BufPool::new();
    let deadline = Instant::now() + Duration::from_secs(2);
    let mut idle = 0;
    while idle < 5 && Instant::now() < deadline {
        if session.pump(PeerId(1), Instant::now(), &mut pool, counters, events) {
            idle = 0;
        } else {
            idle += 1;
            std::thread::sleep(Duration::from_micros(200));
        }
    }
}

/// The backoff delay must cap at `backoff_max` and its jitter must stay
/// strictly within `[max, max * (1 + jitter)]` once capped — for any
/// failure count, including the shift-overflow-prone ones.
#[test]
fn dial_backoff_caps_at_maximum_with_bounded_jitter() {
    let base = Duration::from_millis(20);
    let max = Duration::from_millis(500);
    let jitter = 0.5;
    let mut rng = StdRng::seed_from_u64(0xBC);
    // pre-cap: deterministic doubling (jitter 0)
    let mut zero_rng = StdRng::seed_from_u64(1);
    assert_eq!(
        backoff_delay(1, base, max, 0.0, &mut zero_rng),
        Duration::from_millis(20)
    );
    assert_eq!(
        backoff_delay(3, base, max, 0.0, &mut zero_rng),
        Duration::from_millis(80)
    );
    // at and past the cap, across many draws: bounded jitter, never
    // below max, never above max * 1.5
    for failures in [6u32, 10, 16, 17, 31, 64, u32::MAX] {
        for _ in 0..200 {
            let d = backoff_delay(failures, base, max, jitter, &mut rng);
            assert!(d >= max, "failures={failures}: {d:?} fell below the cap");
            assert!(
                d <= max.mul_f64(1.0 + jitter),
                "failures={failures}: {d:?} exceeded the jitter ceiling"
            );
        }
    }
    // jitter actually spreads: 200 draws at the cap aren't all equal
    let draws: Vec<Duration> = (0..200)
        .map(|_| backoff_delay(16, base, max, jitter, &mut rng))
        .collect();
    assert!(draws.iter().any(|d| *d != draws[0]), "jitter never varied");
}

//! Session-lifecycle edge cases under the reactor.
//!
//! Two failure-mode contracts the refactor must honour:
//!
//! 1. a **half-open peer** — completes the handshake then goes silent —
//!    is reaped by the idle deadline on the timer wheel, and the peer
//!    observes the close;
//! 2. a **`Bye` arriving while the decoder holds a partial frame**
//!    still drains cleanly: the buffered frame is dispatched first,
//!    then the `Bye` closes the session clean.
//!
//! A third, **dial backoff caps at its maximum** with jitter strictly
//! inside the configured bounds for any failure count, is pinned next
//! to the private `backoff_delay` by the reactor's unit test
//! `dial_backoff_caps_at_maximum_with_bounded_jitter`.

use bartercast_core::codec::BufPool;
use bartercast_core::{DeltaMsg, Frontier, PrivateHistory, TransferRecord};
use bartercast_node::mem::{MemConfig, MemTransport};
use bartercast_node::session::{Session, SessionEvent};
use bartercast_node::wire::{self, Envelope};
use bartercast_node::{Lockstep, NodeConfig, NodeStats, VirtualClock};
use bartercast_util::units::{Bytes, PeerId};
use std::rc::Rc;
use std::time::Duration;

/// A half-open peer: sends its Hello, establishes, then never speaks
/// again. The node's idle deadline must reap the session and the peer
/// must see the close. On virtual time the default 30 s deadline costs
/// nothing.
#[test]
fn half_open_peer_hits_the_idle_timeout() {
    let mut lockstep = Lockstep::new(MemConfig::default());
    lockstep.spawn(
        PeerId(0),
        vec![],
        PrivateHistory::new(PeerId(0)),
        NodeConfig::default(),
    );
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

/// Feed a session a Delta frame split at an arbitrary byte boundary,
/// with the peer's Bye following immediately after the second half.
/// The partially-decoded frame must be delivered, then the Bye must
/// close the session *clean* — nothing about the split may poison the
/// decoder or downgrade the teardown.
#[test]
fn bye_after_a_partially_decoded_frame_drains_cleanly() {
    let transport = MemTransport::with_clock(
        MemConfig {
            max_delay: Duration::ZERO, // every frame is readable at once
            ..MemConfig::default()
        },
        Rc::new(VirtualClock::new()),
    );
    let mut listener = transport.listen(PeerId(1));
    let mut raw = transport.connect(PeerId(0), PeerId(1)).unwrap();
    let accepted = listener.try_accept().expect("queued conn");

    let mut stats = NodeStats::default();
    let mut events: Vec<SessionEvent> = Vec::new();
    let now = transport.clock().now();
    let mut session = Session::new(7, accepted, now);

    // handshake: raw peer says Hello, session establishes
    raw.try_send(&wire::encode_envelope(&Envelope::Hello {
        peer: PeerId(0),
        version: wire::NODE_PROTOCOL_VERSION,
    }))
    .unwrap();
    pump_settled(&mut session, &transport, &mut stats, &mut events);
    assert!(session.is_established());

    // one full Delta frame, split mid-frame; Bye right behind the tail
    let msg = DeltaMsg {
        sender: PeerId(0),
        full: true,
        stamp: Frontier::default(),
        records: vec![TransferRecord {
            peer: PeerId(5),
            up: Bytes(4096),
            down: Bytes::ZERO,
        }],
    };
    let frame = wire::encode_envelope(&Envelope::Delta(msg));
    let split = frame.len() / 2;
    assert!(split > 0 && split < frame.len());
    raw.try_send(&frame[..split]).unwrap();
    pump_settled(&mut session, &transport, &mut stats, &mut events);
    assert!(
        !events
            .iter()
            .any(|e| matches!(e, SessionEvent::Delta { .. })),
        "half a frame must not decode"
    );
    assert!(!session.is_closed(), "half a frame must not close anything");

    raw.try_send(&frame[split..]).unwrap();
    raw.try_send(&wire::encode_envelope(&Envelope::Bye))
        .unwrap();
    pump_settled(&mut session, &transport, &mut stats, &mut events);

    assert!(
        events.iter().any(|e| matches!(
            e,
            SessionEvent::Delta {
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
    assert_eq!(stats.sessions_closed, 1);
    assert_eq!(stats.protocol_errors, 0);
    // the session answered the Bye in kind: drain our side (all of it
    // readable at once, with no delay) and find it
    let mut got = Vec::new();
    let mut buf = [0u8; 4096];
    while let Some(n @ 1..) = raw.try_recv(&mut buf).unwrap() {
        got.extend_from_slice(&buf[..n]);
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

/// Pump one session until it reports no further progress; with no
/// delay configured, every frame sent to it is readable at once.
fn pump_settled(
    session: &mut Session,
    transport: &MemTransport,
    stats: &mut NodeStats,
    events: &mut Vec<SessionEvent>,
) {
    let mut pool = BufPool::new();
    let now = transport.clock().now();
    while session.pump(PeerId(1), now, &mut pool, stats, events) {}
}

//! The `max_sessions` shed gate: 512 raw dialers slam one lockstep
//! reactor capped at 128 sessions. It proves the reactor accepts up to
//! its cap, sheds the rest at accept (counted, not crashed), and serves
//! every admitted session to completion — all on one thread, on
//! virtual time, so every count is exact and repeats bit for bit.
//!
//! Each dialer sends its whole script (`Hello`, two `Records`, `Bye`)
//! the moment it dials. The lockstep driver does not track frames in
//! flight toward a dialer, so a dialer that waited for the reactor's
//! `Hello` before streaming could be overtaken by a clock jump to an
//! idle timeout.

use bartercast_core::{BarterCastMessage, PrivateHistory, TransferRecord};
use bartercast_node::transport::{Conn, Transport};
use bartercast_node::wire::{self, Envelope};
use bartercast_node::{Lockstep, MemConfig, NodeConfig, NodeStats};
use bartercast_util::units::{Bytes, PeerId};
use std::time::Duration;

const TARGET: PeerId = PeerId(0);
const DIALERS: u64 = 512;
const CAP: u64 = 128;
const FRAMES_PER_DIALER: u64 = 2;
const RECORDS_PER_FRAME: u64 = 4;

/// Dial the target as `id` and put the whole script on the wire.
fn dial(lockstep: &Lockstep, id: PeerId) -> Box<dyn Conn> {
    let mut conn = lockstep.transport().connect(id, TARGET).unwrap();
    let records = Envelope::Records(BarterCastMessage {
        sender: id,
        records: (0..RECORDS_PER_FRAME)
            .map(|k| TransferRecord {
                peer: PeerId(k as u32 + 1),
                up: Bytes((k + 1) * 1024),
                down: Bytes::ZERO,
            })
            .collect(),
    });
    let hello = Envelope::Hello {
        peer: id,
        version: wire::NODE_PROTOCOL_VERSION,
    };
    let script = std::iter::once(&hello)
        .chain(std::iter::repeat_n(&records, FRAMES_PER_DIALER as usize))
        .chain(std::iter::once(&Envelope::Bye));
    for envelope in script {
        assert!(conn.try_send(&wire::encode_envelope(envelope)).unwrap());
    }
    conn
}

/// Whether the target closed `conn` before sending it a single byte:
/// the dialer's view of being shed at accept.
fn shed_unheard(conn: &mut dyn Conn) -> bool {
    let mut buf = [0u8; 64];
    matches!(conn.try_recv(&mut buf), Ok(Some(0)))
}

/// One slam: every dialer connects before the first step, then the
/// driver runs until the target holds no session. Returns the target's
/// final counters and how many dialers were closed unheard.
fn slam() -> (NodeStats, u64) {
    let mut lockstep = Lockstep::new(MemConfig::default());
    let config = NodeConfig {
        max_sessions: CAP as usize,
        ..NodeConfig::default()
    };
    lockstep
        .spawn(TARGET, vec![], PrivateHistory::new(TARGET), config)
        .unwrap();
    let mut dialers: Vec<_> = (0..DIALERS)
        .map(|i| dial(&lockstep, PeerId(1000 + i as u32)))
        .collect();
    let stats = |l: &Lockstep| l.stats()[&TARGET];
    let settled = |l: &Lockstep| {
        let s = stats(l);
        s.sessions_opened + s.shed_accept == DIALERS && s.sessions_live == 0
    };
    assert!(
        lockstep.run_until(settled, Duration::from_secs(60)),
        "no settle: {:?}",
        stats(&lockstep)
    );
    // one more step lets the target's last frames toward the dialers land
    assert!(lockstep.step());
    let unheard = dialers.iter_mut().map(|c| shed_unheard(c.as_mut()));
    (
        stats(&lockstep),
        unheard.filter(|&shed| shed).count() as u64,
    )
}

#[test]
fn five_hundred_dialers_against_a_capped_node() {
    let (stats, unheard) = slam();
    assert_eq!(stats.sessions_opened, CAP, "the cap's worth is served");
    assert_eq!(stats.sessions_closed, CAP, "every served script completes");
    assert_eq!(stats.sessions_failed, 0);
    assert_eq!(
        stats.shed_accept,
        DIALERS - CAP,
        "the rest is shed at accept"
    );
    assert_eq!(unheard, stats.shed_accept, "both sides agree on the shed");
    assert_eq!(
        stats.records_received,
        CAP * FRAMES_PER_DIALER * RECORDS_PER_FRAME
    );
    assert_eq!(stats.sessions_peak, CAP, "the cap holds and is used");
    assert_eq!(stats.sessions_live, 0);
    assert_eq!(stats.protocol_errors, 0);
    assert_eq!(slam(), (stats, unheard), "a slam repeats bit for bit");
}

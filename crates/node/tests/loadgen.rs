//! Loadgen smoke: 512 concurrent dialers against one reactor with a
//! deliberately small session cap. This is the scaled-down tier-1
//! version of a 5,000-dialer overload scenario: it proves the
//! reactor accepts up to its cap, sheds the rest (counted, not
//! crashed), and services the admitted sessions to completion — all on
//! one thread.

use bartercast_core::PrivateHistory;
use bartercast_node::loadgen::{run_loadgen, LoadGenConfig};
use bartercast_node::mem::{MemConfig, MemTransport};
use bartercast_node::node::{Node, NodeConfig};
use bartercast_node::transport::Transport;
use bartercast_util::units::PeerId;
use std::sync::Arc;
use std::time::Duration;

#[test]
fn five_hundred_dialers_against_a_capped_node() {
    let transport = Arc::new(MemTransport::new(MemConfig::default()));
    let node = Node::spawn(
        PeerId(0),
        Arc::clone(&transport) as Arc<dyn Transport>,
        vec![],
        PrivateHistory::new(PeerId(0)),
        NodeConfig {
            exchange_interval: Duration::from_secs(3600), // serve, don't gossip
            max_sessions: 128,
            ..NodeConfig::default()
        },
    )
    .unwrap();

    let report = run_loadgen(
        Arc::clone(&transport) as Arc<dyn Transport>,
        PeerId(0),
        LoadGenConfig {
            dialers: 512,
            frames_per_dialer: 2,
            records_per_frame: 4,
            dial_batch: 512, // slam everything in at once
            timeout: Duration::from_secs(30),
            first_peer: 1000,
        },
    );

    assert_eq!(report.dialed, 512, "every dial must get a connection");
    // shed-rate sanity bounds: the cap must bite, but the reactor must
    // still serve a healthy share — sessions complete and free slots,
    // so "established over the whole run" can exceed the cap
    assert!(
        report.shed >= 1,
        "512 dialers against max_sessions=128 must shed: {report:?}"
    );
    assert!(
        report.established >= 64,
        "the reactor must serve a healthy share under overload: {report:?}"
    );
    assert!(
        report.completed + report.shed + report.failed >= 512,
        "every dialer must reach a terminal state: {report:?}"
    );
    assert!(report.p99_session_ms >= report.p50_session_ms);

    let stats = node.shutdown();
    assert_eq!(
        stats.shed_accept, report.shed as u64,
        "both sides must agree on what was shed at accept"
    );
    assert!(
        stats.sessions_peak <= 128,
        "the session cap must hold: peak={}",
        stats.sessions_peak
    );
    assert!(stats.sessions_peak >= 32, "the cap headroom went unused");
    assert_eq!(stats.sessions_live, 0, "shutdown must reap everything");
    assert_eq!(
        stats.records_received,
        report.completed as u64 * 2 * 4,
        "completed scripts' records must all have landed"
    );
}

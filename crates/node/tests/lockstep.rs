//! What the single lockstep driver and the single record dialect
//! guarantee: record-only clusters converge at any size on the default
//! config, get leave/join churn from the same driver the swarm uses,
//! a reactor refuses every handshake but its own version and every
//! record frame but a `Delta` from its session peer, and a redial is
//! counted once.

use bartercast_core::{BarterCastMessage, PrivateHistory, TransferRecord};
use bartercast_node::cluster::{ClusterConfig, DeterministicCluster};
use bartercast_node::wire::{self, Envelope};
use bartercast_node::{Lockstep, MemConfig, MemConn, NodeConfig, NodeStats};
use bartercast_util::units::{Bytes, PeerId, Seconds};
use std::time::Duration;

/// Above `pss.view_size + 1` = 21 nodes the full-membership bootstrap
/// used to be truncated to the default view and never converge.
#[test]
fn default_config_24_nodes_converge() {
    let mut cluster = DeterministicCluster::boot(ClusterConfig {
        n: 24,
        ..ClusterConfig::default()
    })
    .expect("boot");
    assert!(
        cluster.run_until_converged(Duration::from_secs(20)),
        "no convergence after {:?} virtual: progress={:?} expected={}",
        cluster.elapsed(),
        cluster.progress(),
        cluster.expected().len()
    );
}

/// The driver's work is what is due, not what exists: on the lossy
/// 8-node cluster the settle loop runs fewer than one reactor cycle
/// per node per step (polling every reactor until a pass makes no
/// progress costs at least two per node), and the run still converges.
/// `polls()` counts the reactor cycles run, which no scheduler that
/// keeps the schedule can move, so both counts are pinned exactly.
#[test]
fn polls_per_step_stay_below_the_node_count() {
    let config = ClusterConfig {
        mem: MemConfig {
            loss: 0.05,
            ..MemConfig::default()
        },
        ..ClusterConfig::default()
    };
    let mut cluster = DeterministicCluster::boot(config).expect("boot");
    let mut steps = 0u64;
    while !cluster.converged() {
        assert!(
            cluster.elapsed() < Duration::from_secs(60),
            "no convergence"
        );
        assert!(cluster.step());
        steps += 1;
    }
    let polls = cluster.lockstep_mut().polls();
    assert_eq!((steps, polls), (150, 342));
    assert!(polls < steps * config.n as u64);
}

/// Crash-restart without swarm code: a node retired mid-run keeps its
/// final counters in `stats()` (its live sessions now counted closed)
/// and its edges in `edges()`, and the same id spawned again
/// from an empty history relearns every expected edge not incident to
/// itself: gossip never writes a receiver's own edges, which only its
/// history can.
#[test]
fn retired_node_respawned_empty_reconverges() {
    let config = ClusterConfig::default();
    let victim = PeerId(3);
    let mut cluster = DeterministicCluster::boot(config).expect("boot");
    while cluster.elapsed() < Duration::from_millis(100) {
        assert!(cluster.step());
    }
    let (stats_before, edges_before) = (cluster.stats(), cluster.edges());
    assert!(
        !edges_before[3].is_empty(),
        "nothing learned before the crash"
    );

    cluster.lockstep_mut().retire(victim);
    let mut closed = stats_before.clone();
    let books = &mut closed[3];
    assert!(books.sessions_live > 0 && books.sessions_opened == books.sessions_live);
    books.sessions_closed += std::mem::take(&mut books.sessions_live);
    assert_eq!(
        cluster.stats(),
        closed,
        "departed counters kept, books closed"
    );
    assert_eq!(cluster.edges(), edges_before);
    while cluster.elapsed() < Duration::from_millis(300) {
        assert!(cluster.step());
    }
    assert_eq!(cluster.stats()[3], closed[3], "departed counters are final");

    let bootstrap = (0..config.n as u32)
        .map(PeerId)
        .filter(|&p| p != victim)
        .collect();
    cluster
        .lockstep_mut()
        .spawn(victim, bootstrap, PrivateHistory::new(victim), config.node);
    assert!(cluster.edges()[3].is_empty(), "live node shadows snapshot");
    let others: Vec<_> = cluster
        .expected()
        .iter()
        .copied()
        .filter(|&(from, to, _)| from != victim && to != victim)
        .collect();
    let relearned = cluster
        .lockstep_mut()
        .run_until(|l| l.edges()[&victim] == others, Duration::from_secs(60));
    assert!(
        relearned,
        "no reconvergence after {:?} virtual: progress={:?}",
        cluster.elapsed(),
        cluster.progress()
    );
    assert!(others.len() < cluster.expected().len());
}

/// A loadgen-style raw dialer against one lockstep reactor.
fn dial(lockstep: &Lockstep, from: PeerId, version: u8) -> MemConn {
    let mut conn = lockstep.transport().connect(from, PeerId(0)).unwrap();
    let hello = Envelope::Hello {
        peer: from,
        version,
    };
    conn.try_send(&wire::encode_envelope(&hello)).unwrap();
    conn
}

#[test]
fn v2_hello_and_bare_records_are_refused() {
    let mut lockstep = Lockstep::new(MemConfig::default());
    lockstep.spawn(
        PeerId(0),
        vec![],
        PrivateHistory::new(PeerId(0)),
        NodeConfig::default(),
    );
    let stats = |l: &Lockstep| l.stats()[&PeerId(0)];

    // the retired dialect: decode fails with VersionMismatch(2), the
    // session counts a protocol error and never opens
    let _v2 = dial(&lockstep, PeerId(8), 2);
    assert!(lockstep.run_until(|l| stats(l).protocol_errors == 1, Duration::from_secs(1)));
    assert_eq!(stats(&lockstep).sessions_opened, 0);

    // a current-version dialer sends the bare `Records` frame under
    // another peer's name: the session refuses the frame, not just
    // the forged sender, and nothing reaches the graph
    let mut v3 = dial(&lockstep, PeerId(9), wire::NODE_PROTOCOL_VERSION);
    let records = Envelope::Records(BarterCastMessage {
        sender: PeerId(7),
        records: vec![TransferRecord {
            peer: PeerId(5),
            up: Bytes(4096),
            down: Bytes::ZERO,
        }],
    });
    v3.try_send(&wire::encode_envelope(&records)).unwrap();
    assert!(lockstep.run_until(|l| stats(l).protocol_errors == 2, Duration::from_secs(1)));
    lockstep.run_until(|_| false, Duration::from_millis(100));
    let end = stats(&lockstep);
    assert_eq!(
        (end.sessions_opened, end.sessions_closed, end.sessions_live),
        (1, 1, 0),
        "the v3 session opened once and closed on the frame"
    );
    assert_eq!((end.records_received, end.protocol_errors), (0, 2));
    assert!(lockstep.edges()[&PeerId(0)].is_empty());
}

/// `reconnects` counts dials to a peer already met, once each: after
/// one forced disconnect of a two-node cluster, it equals the redials.
/// Only node 0 gossips (node 1 has no history and no bootstrap), so
/// first contact is one dial; on the lossless transport every dial
/// establishes at both ends, so each connection is two
/// `sessions_opened` and every connection but the first is a redial.
#[test]
fn reconnects_count_each_redial_once() {
    let mut lockstep = Lockstep::new(MemConfig::default());
    let mut history = PrivateHistory::new(PeerId(0));
    history.record_upload(PeerId(1), Bytes::from_mb(4), Seconds(1));
    lockstep.spawn(PeerId(0), vec![PeerId(1)], history, NodeConfig::default());
    lockstep.spawn(
        PeerId(1),
        vec![],
        PrivateHistory::new(PeerId(1)),
        NodeConfig::default(),
    );
    let opened = |l: &Lockstep| -> u64 { l.stats().values().map(|s| s.sessions_opened).sum() };
    assert!(lockstep.run_until(|l| opened(l) == 2, Duration::from_secs(1)));

    assert_eq!(lockstep.transport().disconnect(PeerId(0)), 1);
    assert!(lockstep.run_until(|l| opened(l) >= 4, Duration::from_secs(5)));
    lockstep.run_until(|_| false, Duration::from_secs(5));

    let stats = lockstep.stats();
    let sum = |f: fn(&NodeStats) -> u64| -> u64 { stats.values().map(f).sum() };
    assert_eq!(sum(|s| s.sessions_failed), 0, "every dial established");
    let redials = sum(|s| s.sessions_opened) / 2 - 1;
    assert!(redials >= 1);
    assert_eq!(sum(|s| s.reconnects), redials);
}

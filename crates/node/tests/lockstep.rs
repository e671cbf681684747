//! What the single lockstep driver and the single outbound dialect
//! guarantee: record-only clusters converge at any size on the default
//! config, get leave/join churn from the same driver the swarm uses,
//! and a reactor refuses every handshake but its own version while
//! still absorbing the paper's bare `Records` message.

use bartercast_core::{BarterCastMessage, PrivateHistory, TransferRecord};
use bartercast_node::cluster::{ClusterConfig, DeterministicCluster};
use bartercast_node::transport::{Conn, Transport};
use bartercast_node::wire::{self, Envelope};
use bartercast_node::{Lockstep, MemConfig, NodeConfig};
use bartercast_util::units::{Bytes, PeerId};
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
    assert!(polls > steps, "every step polls something: {polls}/{steps}");
    assert!(
        polls < steps * config.n as u64,
        "{polls} polls over {steps} steps of {} nodes",
        config.n
    );
}

/// Crash-restart without swarm code: a node retired mid-run keeps its
/// final snapshot in `stats()`/`edges()`, and the same id spawned again
/// from an empty history relearns the whole expected set (every record
/// of its own is also held by the transfer's counterpart).
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
    assert_eq!(cluster.stats(), stats_before, "departed snapshot kept");
    assert_eq!(cluster.edges(), edges_before);
    while cluster.elapsed() < Duration::from_millis(300) {
        assert!(cluster.step());
    }
    assert_eq!(cluster.stats()[3], stats_before[3], "snapshot is final");

    let bootstrap = (0..config.n as u32)
        .map(PeerId)
        .filter(|&p| p != victim)
        .collect();
    cluster
        .lockstep_mut()
        .spawn(victim, bootstrap, PrivateHistory::new(victim), config.node)
        .expect("respawn");
    assert!(cluster.edges()[3].is_empty(), "live node shadows snapshot");
    assert!(
        cluster.run_until_converged(Duration::from_secs(60)),
        "no reconvergence after {:?} virtual: progress={:?}",
        cluster.elapsed(),
        cluster.progress()
    );
    assert_eq!(cluster.edges()[3], cluster.expected());
}

/// A loadgen-style raw dialer against one lockstep reactor.
fn dial(lockstep: &Lockstep, from: PeerId, version: u8) -> Box<dyn Conn> {
    let mut conn = lockstep.transport().connect(from, PeerId(0)).unwrap();
    let hello = Envelope::Hello {
        peer: from,
        version,
    };
    assert!(conn.try_send(&wire::encode_envelope(&hello)).unwrap());
    conn
}

#[test]
fn v2_hello_is_refused_and_bare_records_are_absorbed() {
    let mut lockstep = Lockstep::new(MemConfig::default());
    lockstep
        .spawn(
            PeerId(0),
            vec![],
            PrivateHistory::new(PeerId(0)),
            NodeConfig::default(),
        )
        .unwrap();
    let stats = |l: &Lockstep| l.stats()[&PeerId(0)];

    // the retired dialect: decode fails with VersionMismatch(2), the
    // session counts a protocol error and never opens
    let _v2 = dial(&lockstep, PeerId(8), 2);
    assert!(lockstep.run_until(|l| stats(l).protocol_errors == 1, Duration::from_secs(1)));
    assert_eq!(stats(&lockstep).sessions_opened, 0);

    // the paper's message from a current-version dialer is applied
    let mut v3 = dial(&lockstep, PeerId(9), wire::NODE_PROTOCOL_VERSION);
    let records = Envelope::Records(BarterCastMessage {
        sender: PeerId(9),
        records: vec![TransferRecord {
            peer: PeerId(5),
            up: Bytes(4096),
            down: Bytes::ZERO,
        }],
    });
    assert!(v3.try_send(&wire::encode_envelope(&records)).unwrap());
    assert!(lockstep.run_until(|l| stats(l).records_received == 1, Duration::from_secs(1)));
    assert_eq!(
        lockstep.edges()[&PeerId(0)],
        [(PeerId(9), PeerId(5), Bytes(4096))]
    );
    let end = stats(&lockstep);
    assert_eq!((end.sessions_opened, end.protocol_errors), (1, 1));
    assert_eq!(end.records_sent, 0, "the reactor never emits `Records`");
}

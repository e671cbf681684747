//! Tier-1 cluster convergence gate.
//!
//! Boots a full 8-node cluster over the deterministic in-process
//! transport with 5% frame loss, severs every node's connections once
//! mid-run, and requires every subjective graph to converge to the
//! gossip-reachable record set. Because the node state is built by
//! max-merge, the converged edge set is a pure function of the seeded
//! histories — so two runs with the same configuration must produce
//! *bit-identical* edge sets, which is asserted explicitly.

use bartercast_node::cluster::{Cluster, ClusterConfig, DeterministicCluster};
use bartercast_node::mem::MemConfig;
use bartercast_node::node::{Node, NodeConfig};
use bartercast_node::transport::{TcpTransport, Transport};
use bartercast_util::units::{Bytes, PeerId};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn lossy_config(seed: u64) -> ClusterConfig {
    ClusterConfig {
        n: 8,
        mem: MemConfig {
            loss: 0.05,
            seed,
            ..MemConfig::default()
        },
        ..ClusterConfig::default()
    }
}

/// One full run: boot, churn, converge; returns the converged edge set
/// (identical on every node) and the per-node stats.
fn run(
    seed: u64,
) -> (
    Vec<(PeerId, PeerId, Bytes)>,
    Vec<bartercast_node::NodeStats>,
) {
    let cluster = Cluster::boot(lossy_config(seed)).expect("boot");

    // let gossip start, then cut every node's live connections once —
    // the reconnect path has to heal each of the 8 injected faults
    std::thread::sleep(Duration::from_millis(100));
    for i in 0..8u32 {
        cluster.force_disconnect(PeerId(i));
        std::thread::sleep(Duration::from_millis(10));
    }

    assert!(
        cluster.run_until_converged(Duration::from_secs(60)),
        "cluster did not converge under loss+churn: progress={:?} expected={} frames_dropped={}",
        cluster.progress(),
        cluster.expected().len(),
        cluster.transport().frames_dropped()
    );
    let edges = cluster.nodes()[0].subjective_edges();
    for node in cluster.nodes() {
        assert_eq!(
            node.subjective_edges(),
            edges,
            "node {:?} disagrees after convergence",
            node.id()
        );
    }
    assert_eq!(edges, cluster.expected(), "converged to the wrong set");
    (edges, cluster.shutdown())
}

#[test]
fn eight_lossy_churning_nodes_converge_bit_identically() {
    let (edges_a, stats_a) = run(0xBC00);
    let (edges_b, _) = run(0xBC00);
    assert_eq!(
        edges_a, edges_b,
        "same seed, same config — the converged edge set must be bit-identical"
    );

    // 8 nodes × 2 uplinks, all distinct directed edges
    assert_eq!(edges_a.len(), 16);

    // the runtime actually worked for it: sessions opened, records
    // flowed, and at least some churn was absorbed
    let opened: u64 = stats_a.iter().map(|s| s.sessions_opened).sum();
    let received: u64 = stats_a.iter().map(|s| s.records_received).sum();
    assert!(opened >= 8, "suspiciously few sessions: {stats_a:?}");
    assert!(received > 0);
    // a lost Hello leaves the handshake asymmetric: the initiator
    // (which did get the responder's Hello) starts exchanging while
    // the responder is still waiting, sees Records, and fails the
    // session as a protocol error — which backoff then retries. So a
    // few protocol errors are expected exhaust from loss, but they
    // must stay rare relative to the session count
    let errors: u64 = stats_a.iter().map(|s| s.protocol_errors).sum();
    assert!(
        errors <= opened / 2,
        "wire layer tripped {errors} times across {opened} sessions"
    );
}

/// Duplicate-ratio regression gate for the delta anti-entropy path.
///
/// The same 8-node 5%-loss population, driven deterministically on
/// virtual time with the default digest-gated sync: by convergence,
/// redundant record deliveries must stay a small minority of traffic.
/// Blind full-slice pushing measures ~0.58 duplicate ratio on this
/// exact schedule; the digest/delta protocol measures ~0.22. The gate
/// sits between the two so any regression back toward re-pushing
/// unchanged slices fails loudly while leaving room for schedule
/// drift.
#[test]
fn delta_sync_keeps_duplicate_ratio_low() {
    let mut config = ClusterConfig {
        mem: MemConfig {
            loss: 0.05,
            seed: 0xBC00,
            ..MemConfig::default()
        },
        ..ClusterConfig::default()
    };
    config.node.seed = 0xBC00;
    let mut cluster = DeterministicCluster::boot(config).expect("boot");
    assert!(
        cluster.run_until_converged(Duration::from_secs(60)),
        "no convergence after {:?} virtual: progress={:?}",
        cluster.elapsed(),
        cluster.progress()
    );
    let stats = cluster.stats();
    let received: u64 = stats.iter().map(|s| s.records_received).sum();
    let duplicate: u64 = stats.iter().map(|s| s.records_duplicate).sum();
    let suppressed: u64 = stats.iter().map(|s| s.records_suppressed).sum();
    let ratio = duplicate as f64 / received.max(1) as f64;
    assert!(received > 0, "no records flowed");
    assert!(
        ratio <= 0.35,
        "duplicate ratio regressed: {duplicate}/{received} = {ratio:.4} (gate 0.35)"
    );
    assert!(
        suppressed > duplicate,
        "digest rounds should suppress more records than slip through \
         as duplicates: suppressed={suppressed} duplicate={duplicate}"
    );
}

/// The seeded population over real loopback sockets: the only
/// multi-node run through `TcpTransport` and the reactor's `poll(2)`
/// path. Four nodes keep OS socket churn modest.
#[test]
fn four_tcp_nodes_converge() {
    if !TcpTransport::loopback_available() {
        eprintln!("skipping: no loopback in this sandbox");
        return;
    }
    let config = ClusterConfig {
        n: 4,
        ..ClusterConfig::default()
    };
    let histories = Cluster::seed_histories(&config);
    let expected = Cluster::expected_edges(&histories, config.node.bartercast);
    let transport = Arc::new(TcpTransport::new());
    let nodes: Vec<Node> = histories
        .into_iter()
        .enumerate()
        .map(|(i, history)| {
            let bootstrap = (0..config.n)
                .filter(|&j| j != i)
                .map(|j| PeerId(j as u32))
                .collect();
            Node::spawn(
                PeerId(i as u32),
                Arc::clone(&transport) as Arc<dyn Transport>,
                bootstrap,
                history,
                NodeConfig {
                    seed: config.node.seed.wrapping_add(i as u64),
                    ..config.node
                },
            )
            .expect("boot tcp node")
        })
        .collect();
    let deadline = Instant::now() + Duration::from_secs(60);
    while !nodes.iter().all(|n| n.subjective_edges() == expected) {
        assert!(
            Instant::now() < deadline,
            "tcp cluster did not converge: {:?}",
            nodes
                .iter()
                .map(|n| n.subjective_edges().len())
                .collect::<Vec<_>>()
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    let stats: Vec<_> = nodes.into_iter().map(Node::shutdown).collect();
    assert!(stats.iter().all(|s| s.protocol_errors == 0), "{stats:?}");
    assert!(stats.iter().map(|s| s.records_received).sum::<u64>() > 0);
}

//! Virtual-time determinism gate: the same adversarial swarm run
//! twice must produce bitwise-identical outcomes — download totals,
//! contribution graphs, and `NodeStats` — even under frame loss,
//! jittered delays, churn, a whitewashing freerider, a node nobody
//! can dial, and a session-capped node. This is the property that
//! makes every other swarm assertion in the suite trustworthy: any
//! hidden wall-clock, map-order, or RNG dependence shows up here as
//! a diff between two runs.

use bartercast_core::policy::ReputationPolicy;
use bartercast_node::mem::MemConfig;
use bartercast_swarm::{
    NodeSpec, PeerBehaviour, SwarmCluster, SwarmClusterConfig, SwarmEvent, SwarmEventKind,
    SwarmParams, SwarmPolicy,
};
use std::time::Duration;

const HORIZON: Duration = Duration::from_secs(120);

/// 8 nodes: a seeder, five cooperators (one non-connectable, one
/// session-capped), two freeriders — one of which whitewashes into a
/// fresh identity mid-run. The transport drops 5% of frames and
/// jitters delivery.
fn adversarial_config() -> SwarmClusterConfig {
    let mut nodes = vec![NodeSpec::new(0, PeerBehaviour::Cooperator, true)];
    for id in 1..=5 {
        nodes.push(NodeSpec::new(id, PeerBehaviour::Cooperator, false));
    }
    // node 3 sits behind NAT: all its sessions are outbound
    nodes[3].connectable = false;
    // node 4 sheds sessions beyond 4
    nodes[4].max_sessions = Some(4);
    for id in 6..=7 {
        nodes.push(NodeSpec::new(id, PeerBehaviour::Freerider, false));
    }
    SwarmClusterConfig {
        nodes,
        params: SwarmParams {
            piece_count: 32,
            policy: SwarmPolicy::Reputation(ReputationPolicy::Rank),
            ..SwarmParams::default()
        },
        mem: MemConfig {
            loss: 0.05,
            min_delay: Duration::from_micros(50),
            max_delay: Duration::from_millis(5),
            ..MemConfig::default()
        },
        events: vec![
            // freerider 7 whitewashes: the paper's §6 attack — shed a
            // ruined reputation by rejoining under a fresh identity
            SwarmEvent {
                at: Duration::from_secs(30),
                kind: SwarmEventKind::Whitewash {
                    old: bartercast_util::units::PeerId(7),
                    fresh: bartercast_util::units::PeerId(8),
                },
            },
            // cooperator 5 churns out entirely
            SwarmEvent {
                at: Duration::from_secs(48),
                kind: SwarmEventKind::Leave(bartercast_util::units::PeerId(5)),
            },
        ],
        ..SwarmClusterConfig::default()
    }
}

fn run_to_horizon() -> SwarmCluster {
    let mut cluster = SwarmCluster::boot(adversarial_config()).expect("boot");
    cluster.run_until(|_| false, HORIZON);
    cluster
}

#[test]
fn two_lossy_churning_runs_are_bitwise_identical() {
    let a = run_to_horizon();
    let b = run_to_horizon();

    assert_eq!(a.elapsed(), b.elapsed(), "virtual clocks diverged");
    assert_eq!(a.ledger(), b.ledger(), "download totals diverged");
    assert_eq!(
        a.edges(),
        b.edges(),
        "subjective contribution graphs diverged"
    );
    assert_eq!(a.stats(), b.stats(), "NodeStats diverged");
    assert_eq!(a.report().rows, b.report().rows, "report rows diverged");
    // every node's choke rounds reach the report, departed ones' too
    let contention = a.report().contention;
    assert_eq!(contention, b.report().contention, "contention diverged");
    assert!(contention.leecher.rounds > 0 && contention.seeder.rounds > 0);
}

#[test]
fn the_adversity_actually_happened() {
    let cluster = run_to_horizon();
    let stats = cluster.stats();

    // the whitewashed identity departed and its replacement ran
    let ids: Vec<u32> = stats.keys().map(|p| p.0).collect();
    assert!(ids.contains(&7), "departed identity keeps its snapshot");
    assert!(ids.contains(&8), "fresh identity joined");
    let fresh = &stats[&bartercast_util::units::PeerId(8)];
    assert!(fresh.sessions_opened > 0, "whitewashed node reconnected");

    // the capped node shed sessions at some point
    let capped = &stats[&bartercast_util::units::PeerId(4)];
    assert!(
        capped.shed_accept + capped.shed_session > 0,
        "session cap never engaged: {capped:?}"
    );

    // loss forced at least one re-request: some served bytes never
    // became receipts
    let ledger = cluster.ledger();
    let served: u64 = ledger.served.values().map(|b| b.0).sum();
    let delivered: u64 = ledger.delivered.values().map(|b| b.0).sum();
    assert!(
        delivered < served,
        "a 5% lossy transport should leak at least one frame: \
         served {served} == delivered {delivered}"
    );

    // contribution edges still only come from pieces
    assert!(cluster.all_from_pieces());

    // and the whitewash paid off, as §6 predicts: the fresh identity
    // kept downloading after the rejoin
    assert!(
        ledger.progress_of(bartercast_util::units::PeerId(8)).pieces > 0,
        "whitewashed freerider should resume downloading under the \
         fresh identity"
    );
}

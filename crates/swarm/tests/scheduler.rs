//! The lockstep scheduler against its oracle on a churning swarm: the
//! bitset driver (`Lockstep::step`) must poll exactly the reactors the
//! per-pass `has_work` scan (`Lockstep::step_by_scan`) polls, step by
//! step, while workloads attach, nodes leave, join and whitewash, and
//! the transport drops and delays frames.

use bartercast_core::policy::ReputationPolicy;
use bartercast_node::mem::MemConfig;
use bartercast_node::stats::NodeStats;
use bartercast_swarm::{
    NodeSpec, PeerBehaviour, SwarmCluster, SwarmClusterConfig, SwarmEvent, SwarmEventKind,
    SwarmLedger, SwarmParams, SwarmPolicy,
};
use bartercast_util::units::PeerId;
use std::collections::BTreeMap;
use std::time::Duration;

const HORIZON: Duration = Duration::from_secs(40);

/// 8 nodes (a seeder, five cooperators, two freeriders) on a lossy,
/// jittered transport; freerider 7 whitewashes into 8 at 10 s,
/// cooperator 5 leaves at 15 s, and a fresh cooperator 9 joins at 20 s.
fn churning_config() -> SwarmClusterConfig {
    let mut nodes = vec![NodeSpec::new(0, PeerBehaviour::Cooperator, true)];
    nodes.extend((1..=5).map(|id| NodeSpec::new(id, PeerBehaviour::Cooperator, false)));
    nodes.extend((6..=7).map(|id| NodeSpec::new(id, PeerBehaviour::Freerider, false)));
    let at = Duration::from_secs;
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
            SwarmEvent {
                at: at(10),
                kind: SwarmEventKind::Whitewash {
                    old: PeerId(7),
                    fresh: PeerId(8),
                },
            },
            SwarmEvent {
                at: at(15),
                kind: SwarmEventKind::Leave(PeerId(5)),
            },
            SwarmEvent {
                at: at(20),
                kind: SwarmEventKind::Join(NodeSpec::new(9, PeerBehaviour::Cooperator, false)),
            },
        ],
        ..SwarmClusterConfig::default()
    }
}

/// The slots each step polled, the poll total, counters, edges and the
/// ledger of one run to the horizon.
type Observation = (
    Vec<Vec<usize>>,
    u64,
    BTreeMap<PeerId, NodeStats>,
    BTreeMap<PeerId, bartercast_node::lockstep::Edges>,
    SwarmLedger,
);

fn observe(by_scan: bool) -> Observation {
    let mut cluster = SwarmCluster::boot(churning_config()).expect("boot");
    let mut steps = Vec::new();
    while cluster.elapsed() < HORIZON {
        cluster.apply_due_events();
        let lockstep = cluster.lockstep_mut();
        let alive = if by_scan {
            lockstep.step_by_scan()
        } else {
            lockstep.step()
        };
        assert!(alive);
        steps.push(lockstep.last_polled().to_vec());
    }
    let polls = cluster.lockstep_mut().polls();
    (
        steps,
        polls,
        cluster.stats(),
        cluster.edges(),
        cluster.ledger(),
    )
}

#[test]
fn the_scheduler_polls_what_the_scan_polls_through_churn() {
    let (steps, polls, stats, edges, ledger) = observe(false);
    let (scan_steps, scan_polls, scan_stats, scan_edges, scan_ledger) = observe(true);
    assert_eq!(steps.len(), scan_steps.len(), "step counts differ");
    for (i, (ours, scan)) in steps.iter().zip(&scan_steps).enumerate() {
        assert_eq!(ours, scan, "step {i} polled different slots");
    }
    assert_eq!(polls, scan_polls);
    assert_eq!(stats, scan_stats);
    assert_eq!(edges, scan_edges);
    assert_eq!(ledger, scan_ledger);
    // the churn happened and the joiner took part
    assert!(stats.contains_key(&PeerId(5)) && stats.contains_key(&PeerId(7)));
    assert!(stats[&PeerId(8)].sessions_opened > 0);
    assert!(
        ledger.progress_of(PeerId(9)).pieces > 0,
        "joiner downloaded"
    );
}

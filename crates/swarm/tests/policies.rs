//! Wire-level policy gate: the paper's qualitative Fig 2–3 result
//! reproduced over the reactor runtime, with piece transfers — not
//! synthetic records — as the sole source of contribution edges.

use bartercast_bt::RatioPolicy;
use bartercast_core::policy::ReputationPolicy;
use bartercast_swarm::{
    NodeSpec, PeerBehaviour, SwarmCluster, SwarmClusterConfig, SwarmParams, SwarmPolicy,
    SwarmReport,
};
use bartercast_util::units::Bytes;
use std::time::Duration;

const PIECES: usize = 32;

fn population() -> Vec<NodeSpec> {
    let mut nodes = vec![NodeSpec::new(0, PeerBehaviour::Cooperator, true)];
    for id in 1..=5 {
        nodes.push(NodeSpec::new(id, PeerBehaviour::Cooperator, false));
    }
    for id in 6..=7 {
        nodes.push(NodeSpec::new(id, PeerBehaviour::Freerider, false));
    }
    nodes
}

fn run(policy: SwarmPolicy) -> (SwarmReport, SwarmCluster) {
    let config = SwarmClusterConfig {
        nodes: population(),
        params: SwarmParams {
            piece_count: PIECES,
            policy,
            ..SwarmParams::default()
        },
        ..SwarmClusterConfig::default()
    };
    let mut cluster = SwarmCluster::boot(config).expect("boot");
    let completed = cluster.run_until_cooperators_complete(Duration::from_secs(900));
    assert!(
        completed,
        "cooperators failed to finish under {} after {:?} virtual: {:?}",
        cluster.report().rows[0].policy,
        cluster.elapsed(),
        cluster.report().rows
    );
    // every policy's run is gated, not only the ones a test inspects:
    // edges trace back to ledger-backed pieces, no wire-layer rejection
    assert_edges_from_pieces(&cluster);
    assert!(cluster.stats().values().all(|s| s.protocol_errors == 0));
    (cluster.report(), cluster)
}

/// Every contribution edge any node believes in must be backed by the
/// ground-truth ledger, and every private history must carry pure
/// piece provenance.
fn assert_edges_from_pieces(cluster: &SwarmCluster) {
    assert!(
        cluster.all_from_pieces(),
        "some node's history holds non-piece records"
    );
    let ledger = cluster.ledger();
    for (node, edges) in cluster.edges() {
        for (from, to, bytes) in edges {
            let served = ledger
                .served
                .get(&(from, to))
                .unwrap_or_else(|| panic!("node {node} believes edge {from}->{to} never served"));
            assert!(
                bytes <= *served,
                "node {node} edge {from}->{to} claims {bytes:?} > ground truth {served:?}"
            );
        }
    }
}

fn class_stats(report: &SwarmReport) -> (f64, f64) {
    let coop = report
        .mean_completeness(PeerBehaviour::Cooperator)
        .expect("cooperators present");
    let free = report
        .mean_completeness(PeerBehaviour::Freerider)
        .expect("freeriders present");
    (coop, free)
}

#[test]
fn rank_policy_suppresses_freeriders_over_the_wire() {
    // Baseline: with no policy, lazy freeriding pays — freeriders
    // finish essentially alongside the cooperators (the paper's
    // motivating observation).
    let (none_report, _) = run(SwarmPolicy::Reputation(ReputationPolicy::None));
    let (_, free_none) = class_stats(&none_report);
    assert!(
        free_none >= 0.9,
        "without a policy freeriders should ride along nearly free: {free_none}"
    );
    let (report, cluster) = run(SwarmPolicy::Reputation(ReputationPolicy::Rank));
    let (coop, free) = class_stats(&report);
    assert_eq!(coop, 1.0, "all cooperators complete: {report:?}");
    assert!(
        free <= 0.8,
        "freeriders must be measurably behind at cooperator completion: \
         freerider {free} vs cooperator {coop}"
    );
    assert!(
        free < free_none - 0.1,
        "rank must suppress measurably below the no-policy baseline: \
         rank {free} vs none {free_none}"
    );
    // pieces actually moved over sessions
    let stats = cluster.stats();
    assert!(stats.values().map(|s| s.pieces_sent).sum::<u64>() > 0);
}

#[test]
fn ban_policy_suppresses_harder_than_rank() {
    let (rank_report, _) = run(SwarmPolicy::Reputation(ReputationPolicy::Rank));
    let (ban_report, _) = run(SwarmPolicy::Reputation(ReputationPolicy::Ban {
        delta: -0.3,
    }));
    let (coop, free_ban) = class_stats(&ban_report);
    assert_eq!(coop, 1.0, "all cooperators complete: {ban_report:?}");
    let (_, free_rank) = class_stats(&rank_report);
    assert!(
        free_ban <= 0.8,
        "banned freeriders must not finish with the cooperators: {free_ban}"
    );
    assert!(
        free_ban <= free_rank + 1e-9,
        "ban must suppress at least as hard as rank: ban {free_ban} vs rank {free_rank}"
    );
}

#[test]
fn ratio_policy_runs_over_the_wire() {
    let (report, _) = run(SwarmPolicy::Ratio(RatioPolicy {
        min_ratio: 0.25,
        grace: Bytes::from_gb(2), // eight pieces of headroom
    }));
    let (coop, free) = class_stats(&report);
    assert_eq!(coop, 1.0, "all cooperators complete: {report:?}");
    assert!(
        free <= 0.6,
        "ratio enforcement must hold freeriders near their grace \
         allowance: {free} vs {coop}"
    );
    assert_eq!(report.rows[0].policy, "ratio(0.25)");
}

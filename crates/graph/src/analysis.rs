//! Contribution-graph analytics.
//!
//! §3.2 justifies the deployed two-hop path bound with a measurement:
//! "98% of peer pairs either exchanged data directly or exchanged data
//! with a common third party". [`two_hop_coverage`] computes exactly
//! that statistic for any contribution graph, so simulations can check
//! whether their gossip layer reproduces the small-world premise.

use crate::contribution::ContributionGraph;
use bartercast_util::units::PeerId;
use bartercast_util::{FxHashMap, FxHashSet};

/// The §3.2 small-world statistic: the fraction of *ordered* node
/// pairs `(u, v)`, `u ≠ v`, connected by a directed path of at most
/// two edges (`u → v` or `u → k → v`).
///
/// The paper reports ≈ 0.98 for real file-sharing workloads (counting
/// undirected "exchanged data" relations; for a graph built from
/// bidirectional exchanges the directed and undirected statistics
/// coincide).
///
/// ```
/// use bartercast_graph::analysis::two_hop_coverage;
/// use bartercast_graph::ContributionGraph;
/// use bartercast_util::units::{Bytes, PeerId};
///
/// let mut g = ContributionGraph::new();
/// g.add_transfer(PeerId(0), PeerId(1), Bytes::from_mb(1));
/// g.add_transfer(PeerId(1), PeerId(2), Bytes::from_mb(1));
/// // 0->1, 1->2 and the two-hop 0->2: 3 of 6 ordered pairs
/// assert!((two_hop_coverage(&g) - 0.5).abs() < 1e-12);
/// ```
pub fn two_hop_coverage(graph: &ContributionGraph) -> f64 {
    let nodes: Vec<PeerId> = graph.nodes().into_iter().collect();
    let n = nodes.len();
    if n < 2 {
        return 1.0;
    }
    // successor sets
    let succ: FxHashMap<PeerId, FxHashSet<PeerId>> = nodes
        .iter()
        .map(|&u| (u, graph.out_edges(u).map(|(v, _)| v).collect()))
        .collect();
    let mut reached_pairs = 0usize;
    for &u in &nodes {
        let mut reach: FxHashSet<PeerId> = FxHashSet::default();
        if let Some(direct) = succ.get(&u) {
            for &v in direct {
                reach.insert(v);
                if let Some(second) = succ.get(&v) {
                    reach.extend(second.iter().copied());
                }
            }
        }
        reach.remove(&u);
        reached_pairs += reach.len();
    }
    reached_pairs as f64 / (n * (n - 1)) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use bartercast_util::units::Bytes;

    fn p(i: u32) -> PeerId {
        PeerId(i)
    }

    #[test]
    fn two_hop_coverage_of_directed_triangle() {
        // 0 -> 1 -> 2 -> 0: every ordered pair reachable within 2 hops
        let mut g = ContributionGraph::new();
        g.add_transfer(p(0), p(1), Bytes::from_mb(1));
        g.add_transfer(p(1), p(2), Bytes::from_mb(1));
        g.add_transfer(p(2), p(0), Bytes::from_mb(1));
        assert!((two_hop_coverage(&g) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn two_hop_coverage_of_long_chain() {
        // 0 -> 1 -> 2 -> 3: pairs (0,1),(0,2),(1,2),(1,3),(2,3) of 12
        let mut g = ContributionGraph::new();
        g.add_transfer(p(0), p(1), Bytes::from_mb(1));
        g.add_transfer(p(1), p(2), Bytes::from_mb(1));
        g.add_transfer(p(2), p(3), Bytes::from_mb(1));
        assert!((two_hop_coverage(&g) - 5.0 / 12.0).abs() < 1e-12);
    }

    #[test]
    fn coverage_of_hub_star_is_high() {
        // star through a hub: i -> hub -> j covers all ordered pairs
        // among the spokes
        let mut g = ContributionGraph::new();
        for i in 1..=10 {
            g.add_transfer(p(i), p(0), Bytes::from_mb(1));
            g.add_transfer(p(0), p(i), Bytes::from_mb(1));
        }
        assert!((two_hop_coverage(&g) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_and_singleton() {
        let g = ContributionGraph::new();
        assert_eq!(two_hop_coverage(&g), 1.0);
    }
}

//! PSS health diagnostics.
//!
//! A peer sampling service is only as good as the randomness of its
//! views: BarterCast's meeting process assumes samples approximate
//! uniform draws from the live population. This module measures the
//! standard PSS health indicators on a set of nodes:
//!
//! * **in-degree distribution** — how often each peer appears in other
//!   peers' views; a healthy PSS is concentrated around the mean with
//!   no starved or celebrity nodes;
//! * **clustering** — the probability that two of a node's view
//!   entries also know each other; random views have clustering near
//!   `view_size / n`;
//! * **freshness** — mean descriptor age.

use crate::pss::PssNode;
use bartercast_util::stats::Running;
use bartercast_util::units::PeerId;
use bartercast_util::FxHashMap;

/// PSS health indicators over a node population.
#[derive(Debug, Clone)]
pub struct PssHealth {
    /// Mean in-degree (appearances in others' views).
    pub indegree_mean: f64,
    /// Standard deviation of the in-degree.
    pub indegree_stddev: f64,
    /// Number of nodes never referenced by anyone (starved).
    pub starved: usize,
    /// Mean clustering coefficient of the view overlay.
    pub clustering: f64,
    /// Mean descriptor age across all views.
    pub mean_age: f64,
}

/// Measure the health of a PSS overlay.
pub fn health(nodes: &[PssNode]) -> PssHealth {
    let mut indegree: FxHashMap<PeerId, u32> = FxHashMap::default();
    let mut ages = Running::new();
    for node in nodes {
        for d in node.view().entries() {
            *indegree.entry(d.peer).or_insert(0) += 1;
            ages.push(d.age as f64);
        }
    }
    let mut deg = Running::new();
    let mut starved = 0usize;
    for node in nodes {
        let d = indegree.get(&node.owner()).copied().unwrap_or(0);
        if d == 0 {
            starved += 1;
        }
        deg.push(d as f64);
    }
    // clustering: for each node, fraction of view-pairs (a, b) where
    // a's view (if a is in the population) contains b
    let by_id: FxHashMap<PeerId, &PssNode> = nodes.iter().map(|n| (n.owner(), n)).collect();
    let mut clustering = Running::new();
    for node in nodes {
        let entries: Vec<PeerId> = node.view().entries().iter().map(|d| d.peer).collect();
        if entries.len() < 2 {
            continue;
        }
        let mut linked = 0usize;
        let mut pairs = 0usize;
        for (i, &a) in entries.iter().enumerate() {
            for &b in &entries[i + 1..] {
                pairs += 1;
                let ab = by_id.get(&a).is_some_and(|n| n.view().contains(b));
                let ba = by_id.get(&b).is_some_and(|n| n.view().contains(a));
                if ab || ba {
                    linked += 1;
                }
            }
        }
        clustering.push(linked as f64 / pairs as f64);
    }
    PssHealth {
        indegree_mean: deg.mean(),
        indegree_stddev: deg.stddev(),
        starved,
        clustering: clustering.mean(),
        mean_age: ages.mean(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pss::{shuffle, PssConfig};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn mixed_overlay(n: usize, cycles: usize, seed: u64) -> Vec<PssNode> {
        let cfg = PssConfig {
            view_size: 12,
            shuffle_len: 6,
        };
        let mut nodes: Vec<PssNode> = (0..n)
            .map(|i| PssNode::new(PeerId(i as u32), cfg))
            .collect();
        for (i, node) in nodes.iter_mut().enumerate() {
            node.bootstrap([PeerId(((i + 1) % n) as u32)]);
        }
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..cycles {
            for i in 0..n {
                if let Some(partner) = nodes[i].start_cycle() {
                    let j = partner.index();
                    if i != j && j < n {
                        let (lo, hi) = if i < j { (i, j) } else { (j, i) };
                        let (l, r) = nodes.split_at_mut(hi);
                        shuffle(&mut l[lo], &mut r[0], &mut rng);
                    }
                }
            }
        }
        // a few extra random shuffles to decluster the ring bootstrap
        for _ in 0..cycles {
            let i = rng.gen_range(0..n);
            let j = rng.gen_range(0..n);
            if i != j {
                let (lo, hi) = if i < j { (i, j) } else { (j, i) };
                let (l, r) = nodes.split_at_mut(hi);
                shuffle(&mut l[lo], &mut r[0], &mut rng);
            }
        }
        nodes
    }

    #[test]
    fn converged_overlay_is_healthy() {
        let nodes = mixed_overlay(60, 40, 1);
        let h = health(&nodes);
        // every node's view is full, so total references = 60 * 12
        assert!(
            (h.indegree_mean - 12.0).abs() < 1.0,
            "mean {}",
            h.indegree_mean
        );
        assert_eq!(h.starved, 0, "no node may be starved");
        // balanced in-degrees: stddev well below the mean
        assert!(
            h.indegree_stddev < h.indegree_mean,
            "stddev {}",
            h.indegree_stddev
        );
        // random-ish views: clustering far below 1
        assert!(h.clustering < 0.5, "clustering {}", h.clustering);
    }

    #[test]
    fn fresh_bootstrap_has_zero_age() {
        let cfg = PssConfig::default();
        let mut a = PssNode::new(PeerId(0), cfg);
        a.bootstrap([PeerId(1), PeerId(2)]);
        let h = health(&[a]);
        assert_eq!(h.mean_age, 0.0);
    }

    #[test]
    fn isolated_nodes_are_starved() {
        let cfg = PssConfig::default();
        let nodes = vec![PssNode::new(PeerId(0), cfg), PssNode::new(PeerId(1), cfg)];
        let h = health(&nodes);
        assert_eq!(h.starved, 2);
        assert_eq!(h.indegree_mean, 0.0);
    }
}

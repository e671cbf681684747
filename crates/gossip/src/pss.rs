//! The Cyclon-style shuffle protocol over partial views.

use crate::view::{Descriptor, PartialView};
use bartercast_util::units::PeerId;
use rand::Rng;

/// PSS parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PssConfig {
    /// View capacity per node.
    pub view_size: usize,
    /// Descriptors exchanged per shuffle.
    pub shuffle_len: usize,
}

impl Default for PssConfig {
    fn default() -> Self {
        PssConfig {
            view_size: 20,
            shuffle_len: 8,
        }
    }
}

/// One node's PSS state.
///
/// ```
/// use bartercast_gossip::{shuffle, PssConfig, PssNode};
/// use bartercast_util::units::PeerId;
/// use rand::SeedableRng;
///
/// let cfg = PssConfig::default();
/// let mut a = PssNode::new(PeerId(0), cfg);
/// let mut b = PssNode::new(PeerId(1), cfg);
/// a.bootstrap([PeerId(2)]);
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// shuffle(&mut a, &mut b, &mut rng);
/// // after one shuffle each node knows the other
/// assert!(b.view().contains(PeerId(0)));
/// assert!(a.view().contains(PeerId(1)));
/// ```
#[derive(Debug, Clone)]
pub struct PssNode {
    view: PartialView,
    config: PssConfig,
}

impl PssNode {
    /// A node with an empty view.
    pub fn new(owner: PeerId, config: PssConfig) -> Self {
        PssNode {
            view: PartialView::new(owner, config.view_size),
            config,
        }
    }

    /// The owning peer.
    pub fn owner(&self) -> PeerId {
        self.view.owner()
    }

    /// Read access to the view.
    pub fn view(&self) -> &PartialView {
        &self.view
    }

    /// Bootstrap the view with known peers (e.g. from a tracker).
    pub fn bootstrap<I: IntoIterator<Item = PeerId>>(&mut self, peers: I) {
        for p in peers {
            self.view.insert(Descriptor { peer: p, age: 0 });
        }
    }

    /// Pick the exchange partner for this cycle (oldest descriptor)
    /// and age the view.
    pub fn start_cycle(&mut self) -> Option<PeerId> {
        self.view.age_all();
        self.view.oldest().map(|d| d.peer)
    }

    /// Age every descriptor by one cycle without selecting a partner.
    /// Drivers that pick gossip partners by other means (e.g. the
    /// simulator's meeting process) must still age the view, or
    /// age-based eviction never fires and views freeze at bootstrap.
    pub fn tick(&mut self) {
        self.view.age_all();
    }

    /// A uniformly random known peer — the sampling interface used by
    /// BarterCast for meetings and by BitTorrent for peer discovery.
    pub fn sample<R: Rng>(&self, rng: &mut R) -> Option<PeerId> {
        self.view.random(rng).map(|d| d.peer)
    }

    /// Up to `n` distinct random known peers.
    pub fn sample_many<R: Rng>(&self, rng: &mut R, n: usize) -> Vec<PeerId> {
        self.view
            .sample(rng, n)
            .into_iter()
            .map(|d| d.peer)
            .collect()
    }

    /// Drop a peer that could not be contacted.
    pub fn evict(&mut self, peer: PeerId) {
        self.view.remove(peer);
    }
}

/// Perform one Cyclon shuffle between `a` (initiator) and `b`
/// (responder): each sends a random subset of its view (plus a fresh
/// descriptor of itself) and merges what it receives.
pub fn shuffle<R: Rng>(a: &mut PssNode, b: &mut PssNode, rng: &mut R) {
    let a_id = a.owner();
    let b_id = b.owner();
    let mut from_a = a.view.sample(rng, a.config.shuffle_len.saturating_sub(1));
    from_a.push(Descriptor { peer: a_id, age: 0 });
    let mut from_b = b.view.sample(rng, b.config.shuffle_len.saturating_sub(1));
    from_b.push(Descriptor { peer: b_id, age: 0 });
    for d in from_b {
        a.view.insert(d);
    }
    for d in from_a {
        b.view.insert(d);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn p(i: u32) -> PeerId {
        PeerId(i)
    }

    #[test]
    fn bootstrap_fills_view() {
        let mut n = PssNode::new(p(0), PssConfig::default());
        n.bootstrap((1..=5).map(p));
        assert_eq!(n.view().len(), 5);
    }

    #[test]
    fn start_cycle_returns_oldest_and_ages() {
        let mut n = PssNode::new(p(0), PssConfig::default());
        n.bootstrap([p(1), p(2)]);
        let partner = n.start_cycle();
        assert!(partner.is_some());
        assert!(n.view().entries().iter().all(|d| d.age == 1));
    }

    #[test]
    fn shuffle_spreads_descriptors() {
        let cfg = PssConfig::default();
        let mut a = PssNode::new(p(0), cfg);
        let mut b = PssNode::new(p(1), cfg);
        a.bootstrap([p(2), p(3)]);
        b.bootstrap([p(4), p(5)]);
        let mut rng = StdRng::seed_from_u64(1);
        shuffle(&mut a, &mut b, &mut rng);
        // each learns about the other
        assert!(a.view().contains(p(1)));
        assert!(b.view().contains(p(0)));
        // and (with full exchange of such small views) their contacts
        assert!(a.view().contains(p(4)) || a.view().contains(p(5)));
        assert!(b.view().contains(p(2)) || b.view().contains(p(3)));
    }

    #[test]
    fn convergence_full_connectivity() {
        // A ring of 20 nodes becomes well-mixed after a few cycles:
        // every node's view fills up to capacity.
        let cfg = PssConfig {
            view_size: 10,
            shuffle_len: 5,
        };
        let n = 20usize;
        let mut nodes: Vec<PssNode> = (0..n).map(|i| PssNode::new(p(i as u32), cfg)).collect();
        for (i, node) in nodes.iter_mut().enumerate() {
            node.bootstrap([p(((i + 1) % n) as u32)]);
        }
        let mut rng = StdRng::seed_from_u64(42);
        for _ in 0..30 {
            for i in 0..n {
                if let Some(partner) = nodes[i].start_cycle() {
                    let j = partner.0 as usize;
                    if i != j {
                        let (a, b) = if i < j {
                            let (l, r) = nodes.split_at_mut(j);
                            (&mut l[i], &mut r[0])
                        } else {
                            let (l, r) = nodes.split_at_mut(i);
                            (&mut r[0], &mut l[j])
                        };
                        shuffle(a, b, &mut rng);
                    }
                }
            }
        }
        for node in &nodes {
            assert_eq!(
                node.view().len(),
                cfg.view_size,
                "view not full at {}",
                node.owner()
            );
        }
    }

    #[test]
    fn eviction_removes_dead_peer() {
        let mut n = PssNode::new(p(0), PssConfig::default());
        n.bootstrap([p(1)]);
        n.evict(p(1));
        let mut rng = StdRng::seed_from_u64(3);
        assert_eq!(n.sample(&mut rng), None);
    }

    #[test]
    fn sample_many_distinct() {
        let mut n = PssNode::new(p(0), PssConfig::default());
        n.bootstrap((1..=10).map(p));
        let mut rng = StdRng::seed_from_u64(9);
        let s = n.sample_many(&mut rng, 4);
        assert_eq!(s.len(), 4);
        let mut sorted = s.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), 4);
    }
}

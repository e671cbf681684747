//! Epoch-consistent snapshots of the sharded service.
//!
//! A publication **freezes every shard's graph** behind an `Arc` that
//! the shard and the [`EpochView`] then share: a view holds the whole
//! set of shard graphs plus the partitioner, so it is a consistent cut
//! of the service, not of one shard, and it answers any evaluator. It
//! is a reference to the very bytes the shards held at publication,
//! not a copy of them, and publishing is O(1) per shard. Readers on
//! other threads evaluate Equation 1 against a view without taking any
//! lock. A shard's first write after a publication takes its graph
//! back: by move when every view of it has been dropped, by one copy
//! of that shard's graph when a view is still alive, which then keeps
//! the old bytes to itself. A write reaches only its edge's one or two
//! owner shards, so it copies at most those. Either way nothing a view
//! can reach is ever written, so a reader can never observe a torn
//! cut: every query against a view sees exactly the service's state at
//! its publication, which equals replaying its mutations up to that
//! point and nothing after it (pinned by `tests/epoch_snapshot.rs`).
//!
//! Evaluation is the live service's own (`shard::owner_reputations`):
//! one bounded sweep of the evaluator's two-hop neighbourhood reading
//! each node at its owner shard, whose flow totals are
//! order-independent `u64` sums, then the metric per target, so epoch
//! reads are bit-identical to live reads at the same state.

use std::sync::Arc;

use super::{owner_reputations, Partitioner};
use bartercast_graph::{ContributionGraph, FlowPair};
use bartercast_util::units::{Bytes, PeerId};
use bartercast_util::FxHashMap;

/// An immutable snapshot of every shard's graph, safe to read from any
/// thread while the shards keep writing. It shares each graph with its
/// shard until the shard next writes.
#[derive(Debug)]
pub struct EpochView {
    /// Every shard's graph as frozen at publication, in shard order.
    pub(super) graphs: Vec<Arc<ContributionGraph>>,
    pub(super) partitioner: Arc<dyn Partitioner>,
}

impl EpochView {
    /// The frozen graph of `peer`'s owner shard, which holds all of
    /// `peer`'s edges.
    fn owner_graph(&self, peer: PeerId) -> &ContributionGraph {
        &self.graphs[self.partitioner.shard_of(peer, self.graphs.len())]
    }

    /// `peer`'s out-edges at this epoch, read at its owner shard.
    pub fn out_edges(&self, peer: PeerId) -> impl Iterator<Item = (PeerId, Bytes)> + '_ {
        self.owner_graph(peer).out_edges(peer)
    }

    /// `peer`'s in-edges at this epoch, read at its owner shard.
    pub fn in_edges(&self, peer: PeerId) -> impl Iterator<Item = (PeerId, Bytes)> + '_ {
        self.owner_graph(peer).in_edges(peer)
    }

    /// `R_i(j)` (Equation 1) for every `j` in `targets`, in order, at
    /// this epoch, for any evaluator `i`: the live service's
    /// `ShardedEngine::reputations_from` on the frozen cut, into a map
    /// of the call's own since a view is shared between threads.
    pub fn reputations_from(&self, i: PeerId, targets: &[PeerId]) -> Vec<f64> {
        self.reputations_with(i, targets, &mut FxHashMap::default())
    }

    /// [`EpochView::reputations_from`] sweeping into `flows`, which the
    /// caller owns and may reuse from call to call.
    pub fn reputations_with(
        &self,
        i: PeerId,
        targets: &[PeerId],
        flows: &mut FxHashMap<PeerId, FlowPair>,
    ) -> Vec<f64> {
        owner_reputations(|p| self.owner_graph(p), i, targets, flows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::repcache::ReputationEngine;
    use crate::shard::ShardedEngine;

    fn p(i: u32) -> PeerId {
        PeerId(i)
    }

    const CHAIN: [(u32, u32, u64); 3] = [(1, 0, 300), (2, 1, 200), (0, 3, 50)];

    /// The chain written into a monolith and a `shards`-shard service.
    fn chain(shards: usize) -> (ReputationEngine, ShardedEngine) {
        let mut mono = ReputationEngine::new();
        let mut svc = ShardedEngine::new(shards);
        for (f, t, mb) in CHAIN {
            mono.graph_mut()
                .add_transfer(p(f), p(t), Bytes::from_mb(mb));
            svc.add_transfer(p(f), p(t), Bytes::from_mb(mb));
        }
        (mono, svc)
    }

    #[test]
    fn epoch_matches_live_engine_bitwise() {
        for shards in [1usize, 3] {
            let (mut mono, mut svc) = chain(shards);
            let view = Arc::clone(&svc.publish_all()[0]);
            let targets: Vec<PeerId> = (0..5).map(p).collect();
            for i in 0..5 {
                let live = mono.reputations_from(p(i), &targets);
                let snap = view.reputations_from(p(i), &targets);
                for (j, (a, b)) in live.iter().zip(&snap).enumerate() {
                    assert_eq!(
                        a.to_bits(),
                        b.to_bits(),
                        "shards={shards}: R_{i}({j}) diverged: live {a} vs epoch {b}"
                    );
                    assert_eq!(mono.reputation(p(i), p(j as u32)).to_bits(), b.to_bits());
                }
            }
        }
    }

    #[test]
    fn epoch_is_immune_to_later_writes() {
        let (_, mut svc) = chain(2);
        let targets = [p(1), p(2), p(3)];
        let before = svc.reputations_from(p(0), &targets);
        let view = Arc::clone(&svc.publish_all()[0]);
        svc.add_transfer(p(2), p(1), Bytes::from_gb(50));
        assert_ne!(
            svc.reputations_from(p(0), &targets),
            before,
            "the write must change live reads"
        );
        let snap = view.reputations_from(p(0), &targets);
        for (a, b) in before.iter().zip(&snap) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    /// Compile-time: a view may be moved to, and shared between,
    /// reader threads.
    #[test]
    fn views_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<EpochView>();
    }

    #[test]
    fn self_reputation_is_zero_on_epoch() {
        let (_, mut svc) = chain(2);
        let view = Arc::clone(&svc.publish_all()[0]);
        assert_eq!(view.reputations_from(p(0), &[p(0)]), vec![0.0]);
    }
}

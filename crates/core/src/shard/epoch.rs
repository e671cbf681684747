//! Epoch-consistent snapshots of the sharded service.
//!
//! A publication **freezes every shard's graph** behind an `Arc` that
//! the shard's live engine and the [`EpochView`]s then share: a view
//! holds the whole set of shard graphs plus the partitioner, so it is
//! a consistent cut of the service, not of one shard, and it answers
//! any evaluator. It is a reference to the very bytes the engines held
//! at publication, not a copy of them, and publishing is O(1) per
//! shard. Readers on other threads evaluate Equation 1 against a view
//! without taking any lock. A shard's first write after a publication
//! takes its graph back: by move when every view of it has been
//! dropped, by one copy of that shard's graph when a view is still
//! alive, which then keeps the old bytes to itself. A write reaches
//! only its edge's one or two owner shards, so it copies at most
//! those. Either way nothing a view can reach is ever written, so a
//! reader can never observe a torn cut: every query against epoch `e`
//! sees exactly the service's state at publication of `e`, which
//! equals replaying its mutations up to that point and nothing after
//! it (pinned by `tests/epoch_snapshot.rs`).
//!
//! Evaluation is the live service's own (`shard::owner_reputations`):
//! one bounded sweep of the evaluator's two-hop neighbourhood reading
//! each node at its owner shard, whose flow totals are
//! order-independent `u64` sums, then the metric per target, so epoch
//! reads are bit-identical to live reads at the same state.

use std::sync::Arc;

use super::{owner_reputations, Partitioner};
use crate::metric::ReputationMetric;
use bartercast_graph::{ContributionGraph, FlowPair, Method};
use bartercast_util::units::{Bytes, PeerId};
use bartercast_util::FxHashMap;

/// An immutable snapshot of every shard's graph, safe to read from any
/// thread while the shards keep writing, and tagged with the shard it
/// was published for. It shares each graph with that shard's live
/// engine until the engine next writes.
#[derive(Debug)]
pub struct EpochView {
    shard: usize,
    epoch: u64,
    method: Method,
    metric: ReputationMetric,
    graphs: Arc<[Arc<ContributionGraph>]>,
    partitioner: Arc<dyn Partitioner>,
}

impl EpochView {
    /// Epoch number `epoch` of `shard` over `graphs`, every shard's
    /// graph as frozen at publication time, indexed by `partitioner`.
    pub(crate) fn new(
        shard: usize,
        epoch: u64,
        method: Method,
        metric: ReputationMetric,
        graphs: Arc<[Arc<ContributionGraph>]>,
        partitioner: Arc<dyn Partitioner>,
    ) -> Arc<Self> {
        Arc::new(EpochView {
            shard,
            epoch,
            method,
            metric,
            graphs,
            partitioner,
        })
    }

    /// The shard this epoch belongs to.
    pub fn shard(&self) -> usize {
        self.shard
    }

    /// Monotonically increasing publication counter for the shard.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The shard's graph version frozen into this epoch.
    pub fn version(&self) -> u64 {
        self.graph().version()
    }

    /// The bounded-flow method the snapshot evaluates with.
    pub fn method(&self) -> Method {
        self.method
    }

    /// The shard's own frozen graph: the edges touching a peer it
    /// owns.
    pub fn graph(&self) -> &ContributionGraph {
        &self.graphs[self.shard]
    }

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
        owner_reputations(
            |p| self.owner_graph(p),
            i,
            self.method,
            self.metric,
            targets,
            flows,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::repcache::ReputationEngine;
    use crate::shard::HashPartitioner;

    fn p(i: u32) -> PeerId {
        PeerId(i)
    }

    fn chain_engine() -> ReputationEngine {
        let mut e = ReputationEngine::new();
        e.graph_mut().add_transfer(p(1), p(0), Bytes::from_mb(300));
        e.graph_mut().add_transfer(p(2), p(1), Bytes::from_mb(200));
        e.graph_mut().add_transfer(p(0), p(3), Bytes::from_mb(50));
        e
    }

    /// A one-shard view of `e`'s graph.
    fn freeze(e: &mut ReputationEngine) -> Arc<EpochView> {
        EpochView::new(
            0,
            1,
            e.method(),
            ReputationMetric::default(),
            Arc::from([e.freeze()]),
            Arc::new(HashPartitioner),
        )
    }

    #[test]
    fn epoch_matches_live_engine_bitwise() {
        let mut e = chain_engine();
        let view = freeze(&mut e);
        let targets: Vec<PeerId> = (0..5).map(p).collect();
        for i in 0..5 {
            let live = e.reputations_from(p(i), &targets);
            let snap = view.reputations_from(p(i), &targets);
            for (j, (a, b)) in live.iter().zip(&snap).enumerate() {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "R_{i}({j}) diverged: live {a} vs epoch {b}"
                );
                assert_eq!(e.reputation(p(i), p(j as u32)).to_bits(), b.to_bits());
            }
        }
    }

    #[test]
    fn epoch_is_immune_to_later_writes() {
        let mut e = chain_engine();
        let before = e.reputations_from(p(0), &[p(1), p(2), p(3)]);
        let view = freeze(&mut e);
        e.graph_mut().add_transfer(p(2), p(1), Bytes::from_gb(50));
        assert_ne!(
            e.reputations_from(p(0), &[p(1), p(2), p(3)]),
            before,
            "the write must change live reads"
        );
        let snap = view.reputations_from(p(0), &[p(1), p(2), p(3)]);
        for (a, b) in before.iter().zip(&snap) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn bounded_one_and_zero_match_live() {
        for k in [0usize, 1] {
            let mut e = chain_engine().with_method(Method::Bounded(k));
            let view = freeze(&mut e);
            let targets: Vec<PeerId> = (0..4).map(p).collect();
            for i in 0..4 {
                let live = e.reputations_from(p(i), &targets);
                let snap = view.reputations_from(p(i), &targets);
                assert_eq!(
                    live.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    snap.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    "k={k} i={i}"
                );
            }
        }
    }

    #[test]
    fn metadata_reflects_publication() {
        let mut e = chain_engine();
        let view = freeze(&mut e);
        assert_eq!(view.shard(), 0);
        assert_eq!(view.epoch(), 1);
        assert_eq!(view.version(), e.graph().version());
        assert_eq!(view.method(), Method::DEPLOYED);
        assert_eq!(view.graph().edge_count(), e.graph().edge_count());
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
        let mut e = chain_engine();
        let view = freeze(&mut e);
        assert_eq!(view.reputations_from(p(0), &[p(0)]), vec![0.0]);
    }
}

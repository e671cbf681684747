//! Epoch-consistent shard snapshots.
//!
//! A shard **publishes** an epoch by freezing its current replica
//! graph (owned subgraph + replicated boundary edges) behind an `Arc`
//! that the live engine and the [`EpochView`] then share: a view is a
//! reference to the very bytes the engine read at publication, not a
//! copy of them, and publishing is O(1). Readers on other threads
//! evaluate Equation 1 against the view without taking any lock. The
//! shard's first write after a publication takes the graph back: by
//! move when every view of it has been dropped, by one copy of that
//! shard's graph when a view is still alive, which then keeps the old
//! bytes to itself. Either way nothing a view can reach is ever
//! written, so a reader can never observe a torn cut: every query
//! against epoch `e` sees exactly the graph state at publication of
//! `e`, which equals replaying the shard's mutations up to the
//! recorded version and nothing after it (pinned by
//! `tests/epoch_snapshot.rs`).
//!
//! Evaluation is the live engine's own batch
//! (`repcache::swept_reputations`): one bounded sweep of the
//! evaluator's two-hop neighbourhood, whose flow totals are
//! order-independent `u64` sums, then the metric per target, so epoch
//! reads are bit-identical to live-engine reads at the same graph
//! state.

use std::sync::Arc;

use crate::metric::ReputationMetric;
use crate::repcache::swept_reputations;
use bartercast_graph::{ContributionGraph, Method};
use bartercast_util::units::PeerId;
use bartercast_util::FxHashMap;

/// An immutable snapshot of one shard's replica graph, safe to read
/// from any thread while the owning shard keeps writing. It shares the
/// graph with the shard's live engine until that engine next writes.
#[derive(Debug)]
pub struct EpochView {
    shard: usize,
    epoch: u64,
    version: u64,
    method: Method,
    metric: ReputationMetric,
    graph: Arc<ContributionGraph>,
}

impl EpochView {
    /// Epoch number `epoch` of `shard` over `graph`, the shard's
    /// replica as frozen at publication time.
    pub(crate) fn new(
        shard: usize,
        epoch: u64,
        method: Method,
        metric: ReputationMetric,
        graph: Arc<ContributionGraph>,
    ) -> Arc<Self> {
        let version = graph.version();
        Arc::new(EpochView {
            shard,
            epoch,
            version,
            method,
            metric,
            graph,
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

    /// The replica-graph version frozen into this epoch.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// The bounded-flow method the snapshot evaluates with.
    pub fn method(&self) -> Method {
        self.method
    }

    /// The frozen replica graph.
    pub fn graph(&self) -> &ContributionGraph {
        &self.graph
    }

    /// `R_i(j)` (Equation 1) for every `j` in `targets`, in order, at
    /// this epoch: the live engine's `ReputationEngine::reputations_from`
    /// on the frozen graph, one two-hop sweep across all targets, into
    /// a map of the call's own since a view is shared between threads.
    pub fn reputations_from(&self, i: PeerId, targets: &[PeerId]) -> Vec<f64> {
        let Method::Bounded(hops) = self.method else {
            unreachable!("ShardedEngine::with_method admits only Bounded(k ≤ 2)")
        };
        let mut flows = FxHashMap::default();
        swept_reputations(&self.graph, i, hops, self.metric, targets, &mut flows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::repcache::ReputationEngine;
    use bartercast_util::units::Bytes;

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

    fn freeze(e: &mut ReputationEngine) -> Arc<EpochView> {
        EpochView::new(0, 1, e.method(), ReputationMetric::default(), e.freeze())
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

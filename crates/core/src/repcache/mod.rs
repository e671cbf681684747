//! The reputation engine: subjective graph + flow kernel + metric.
//!
//! Each peer owns one [`ReputationEngine`]. It holds the peer's
//! subjective [`ContributionGraph`] (private history edges plus
//! gossiped records) and evaluates Equation 1 with a configurable
//! maxflow method (the deployed default is two-hop-bounded).
//!
//! Under the path bounds `k ≤ 2` a reputation is computed, not
//! remembered. A point query is the closed form over the two
//! endpoints' adjacency ([`FlowKernel::flow`]), and a batch is one
//! single-source sweep into a buffer the engine reuses, read out by
//! the crate's `swept_reputations`, which the sharded service calls
//! too.
//! Nothing is kept in step with the graph, so a write costs the engine
//! nothing. `Bounded(k ≥ 3)` and `Dinic` pay a maxflow per pair, and
//! an edge away from both endpoints can reroute the flow between them:
//! their answers are memoized in a plain map that is cleared whenever
//! [`ContributionGraph::version`] moves. [`backend`] holds the
//! [`CacheStats`] counters.

use crate::history::PrivateHistory;
use crate::message::{self, BarterCastMessage, TransferRecord};
use crate::metric::ReputationMetric;
use bartercast_graph::maxflow::{self, Method};
use bartercast_graph::{ssat, ContributionGraph, FlowKernel, FlowPair};
use bartercast_util::units::{Bytes, PeerId};
use bartercast_util::FxHashMap;

pub mod backend;

pub use backend::CacheStats;

/// Subjective reputation evaluation.
#[derive(Debug, Clone)]
pub struct ReputationEngine {
    graph: ContributionGraph,
    metric: ReputationMetric,
    /// The flow kernel for the configured method; it invalidates its
    /// own per-version state lazily, so the engine never issues reset
    /// calls.
    kernel: FlowKernel,
    /// `Bounded(k ≥ 3)` and `Dinic` only: `(evaluator, target)`
    /// reputations at graph version `memo_version`.
    memo: FxHashMap<(PeerId, PeerId), f64>,
    memo_version: u64,
    /// `k ≤ 2` only: the last sweep's flows by dense node index
    /// ([`ssat::sweep_dense`]), reused call to call so a sweep
    /// allocates only when the graph outgrows every earlier one.
    sweep: Vec<FlowPair>,
    hits: u64,
    misses: u64,
    /// Memo entries dropped because the graph changed (diagnostics).
    invalidated: u64,
}

impl Default for ReputationEngine {
    fn default() -> Self {
        Self::new()
    }
}

/// `R_i(j)` for every `j` in `targets`, in order, where `flows(j)` reads
/// `j`'s entry of a sweep of evaluator `i` ([`ssat::sweep_dense`] or
/// [`ssat::sweep_adjacency`]). The one evaluation behind the live
/// engine's batch and the sharded service's reads, so the two are
/// bit-identical wherever their sweeps are.
pub(crate) fn swept_reputations(
    flows: impl Fn(PeerId) -> FlowPair,
    i: PeerId,
    metric: ReputationMetric,
    targets: &[PeerId],
) -> Vec<f64> {
    targets
        .iter()
        .map(|&j| {
            if j == i {
                return 0.0;
            }
            let pair = flows(j);
            metric.eval(pair.toward, pair.away)
        })
        .collect()
}

impl ReputationEngine {
    /// An engine with an empty graph and the deployed configuration
    /// (two-hop bounded maxflow, arctan metric with 2 GB unit).
    pub fn new() -> Self {
        ReputationEngine {
            graph: ContributionGraph::new(),
            metric: ReputationMetric::default(),
            kernel: FlowKernel::new(Method::DEPLOYED),
            memo: FxHashMap::default(),
            memo_version: 0,
            sweep: Vec::new(),
            hits: 0,
            misses: 0,
            invalidated: 0,
        }
    }

    /// Seed an engine from a peer's own private history: each entry
    /// `(j, up, down)` becomes the edges `owner → j` and `j → owner`.
    pub fn from_private(history: &PrivateHistory) -> Self {
        let mut engine = Self::new();
        engine.absorb_private(history);
        engine
    }

    /// Override the maxflow method (ablation: unbounded algorithms).
    /// Invalidates any memoized reputations and rebuilds the kernel.
    pub fn with_method(mut self, method: Method) -> Self {
        self.kernel = FlowKernel::new(method);
        self.memo.clear();
        self
    }

    /// Override the reputation metric. Invalidates any memoized
    /// reputations.
    pub fn with_metric(mut self, metric: ReputationMetric) -> Self {
        self.metric = metric;
        self.memo.clear();
        self
    }

    /// Clear the memo when the graph has moved since it was filled:
    /// under `Bounded(k ≥ 3)` and `Dinic` any edge, however far from a
    /// pair's endpoints, can reroute the flow between them.
    fn sync(&mut self) {
        let version = self.graph().version();
        if version != self.memo_version {
            self.invalidated += self.memo.len() as u64;
            self.memo.clear();
            self.memo_version = version;
        }
    }

    /// Re-absorb the owner's private history (max-merge, so calling it
    /// repeatedly as the history grows is safe and cheap).
    pub fn absorb_private(&mut self, history: &PrivateHistory) {
        let own: Vec<TransferRecord> = history
            .iter()
            .map(|(peer, totals)| TransferRecord::of(peer, &totals))
            .collect();
        message::merge_records(self.graph_mut(), history.owner(), &own);
    }

    /// Merge one gossiped message into the subjective graph. Returns
    /// the number of changed edges.
    pub fn absorb_message(&mut self, msg: &BarterCastMessage) -> usize {
        msg.apply(self.graph_mut())
    }

    /// The maxflow method this engine evaluates Equation 1 with
    /// (schedulers use it to cost sweeps by the method's actual
    /// traversal).
    pub fn method(&self) -> Method {
        self.kernel.method()
    }

    /// Direct read-only access to the subjective graph.
    pub fn graph(&self) -> &ContributionGraph {
        &self.graph
    }

    /// Mutable access (used by tests and by the deployment model).
    pub fn graph_mut(&mut self) -> &mut ContributionGraph {
        &mut self.graph
    }

    /// The two directed maxflows of Equation 1:
    /// `(maxflow(j → i), maxflow(i → j))`, computed on throwaway
    /// networks (diagnostics; the query paths go through the shared
    /// kernel instead).
    pub fn flows(&self, i: PeerId, j: PeerId) -> (Bytes, Bytes) {
        (
            maxflow::compute(self.graph(), j, i, self.method()),
            maxflow::compute(self.graph(), i, j, self.method()),
        )
    }

    /// Subjective reputation `R_i(j)` (§3.3, Equation 1) from the two
    /// flows of this one pair. For the deployed bounds (`k ≤ 2`) that
    /// reads only the two peers' adjacency ([`FlowKernel::flow`]);
    /// every other method runs two maxflows and memoizes the answer
    /// until the graph changes. A caller asking for many targets of
    /// one evaluator wants [`ReputationEngine::reputations_from`].
    pub fn reputation(&mut self, i: PeerId, j: PeerId) -> f64 {
        if i == j {
            return 0.0;
        }
        let memoized = self.kernel.sweep_bound().is_none();
        if memoized {
            self.sync();
            if let Some(&r) = self.memo.get(&(i, j)) {
                self.hits += 1;
                return r;
            }
        }
        self.misses += 1;
        let toward = self.kernel.flow(&self.graph, j, i);
        let away = self.kernel.flow(&self.graph, i, j);
        let r = self.metric.eval(toward, away);
        if memoized {
            self.memo.insert((i, j), r);
        }
        r
    }

    /// Batch form of [`ReputationEngine::reputation`]: `R_i(j)` for
    /// every `j` in `targets`, in order.
    ///
    /// Path bounds `k ≤ 2` sweep once into the reused buffer and
    /// evaluate every target from it (`swept_reputations`). Every
    /// other method has no sweep and is evaluated pair by pair,
    /// exactly as [`ReputationEngine::reputation`] does.
    pub fn reputations_from(&mut self, i: PeerId, targets: &[PeerId]) -> Vec<f64> {
        let Some(hops) = self.kernel.sweep_bound() else {
            return targets.iter().map(|&j| self.reputation(i, j)).collect();
        };
        self.misses += targets.iter().filter(|&&j| j != i).count() as u64;
        ssat::sweep_dense(&self.graph, i, hops, &mut self.sweep);
        let (graph, sweep) = (&self.graph, &self.sweep);
        let flows = |j| {
            graph
                .node(j)
                .map_or_else(FlowPair::default, |u| sweep[u as usize])
        };
        swept_reputations(flows, i, self.metric, targets)
    }

    /// One snapshot of the counters: memo hits, flow evaluations, live
    /// memo entries and change invalidations.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits,
            misses: self.misses,
            entries: self.memo.len(),
            invalidated: self.invalidated,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bartercast_util::units::Seconds;

    fn p(i: u32) -> PeerId {
        PeerId(i)
    }

    fn engine_with_chain() -> ReputationEngine {
        // 2 -> 1 -> 0: peer 0 evaluates peer 2 through intermediary 1
        let mut e = ReputationEngine::new();
        e.graph_mut().add_transfer(p(2), p(1), Bytes::from_mb(300));
        e.graph_mut().add_transfer(p(1), p(0), Bytes::from_mb(200));
        e
    }

    fn hit_miss(e: &ReputationEngine) -> (u64, u64) {
        let s = e.stats();
        (s.hits, s.misses)
    }

    /// `R_i(j)` from scratch: maxflow on a throwaway network of the
    /// engine's graph, then the metric.
    fn reference(e: &ReputationEngine, i: PeerId, j: PeerId) -> f64 {
        if i == j {
            return 0.0;
        }
        let (toward, away) = e.flows(i, j);
        e.metric.eval(toward, away)
    }

    #[test]
    fn from_private_builds_both_directions() {
        let mut h = PrivateHistory::new(p(0));
        h.record_upload(p(1), Bytes::from_mb(100), Seconds(1));
        h.record_download(p(2), Bytes::from_mb(300), Seconds(2));
        let e = ReputationEngine::from_private(&h);
        assert_eq!(e.graph().edge(p(0), p(1)), Bytes::from_mb(100));
        assert_eq!(e.graph().edge(p(2), p(0)), Bytes::from_mb(300));
    }

    #[test]
    fn indirect_service_counts_but_is_limited() {
        let mut e = engine_with_chain();
        // maxflow(2 -> 0) = min(300, 200) = 200 MB through peer 1
        let (toward, away) = e.flows(p(0), p(2));
        assert_eq!(toward, Bytes::from_mb(200));
        assert_eq!(away, Bytes::ZERO);
        assert!(e.reputation(p(0), p(2)) > 0.0);
    }

    #[test]
    fn liar_constrained_by_receivers_incoming_edges() {
        // §3.4: maxflow(j, i) is bounded by i's incoming capacity,
        // which comes from i's own private history.
        let mut e = ReputationEngine::new();
        // I (peer 0) downloaded only 10 MB from peer 1 in total.
        e.graph_mut().add_transfer(p(1), p(0), Bytes::from_mb(10));
        // Liar (peer 9) claims it uploaded 100 GB to peer 1.
        e.graph_mut().merge_record(p(9), p(1), Bytes::from_gb(100));
        let (toward, _) = e.flows(p(0), p(9));
        assert!(
            toward <= Bytes::from_mb(10),
            "lie must be capped at {toward:?}"
        );
        let r = e.reputation(p(0), p(9));
        assert!(r < 0.02, "liar reputation barely moves: {r}");
    }

    #[test]
    fn self_reputation_is_zero() {
        for method in [Method::DEPLOYED, Method::Bounded(3), Method::Dinic] {
            let mut e = engine_with_chain().with_method(method);
            let zero = 0.0f64.to_bits();
            assert_eq!(e.reputation(p(0), p(0)).to_bits(), zero, "{method:?}");
            let batch = e.reputations_from(p(0), &[p(0), p(2), p(0)]);
            assert_eq!(batch[0].to_bits(), zero, "{method:?}");
            assert_eq!(batch[2].to_bits(), zero, "{method:?}");
            assert_eq!(e.stats().misses, 1, "{method:?}: a self-query is free");
        }
    }

    #[test]
    fn unknown_peer_is_neutral() {
        let mut e = engine_with_chain();
        assert_eq!(e.reputation(p(0), p(77)), 0.0);
    }

    #[test]
    fn cache_hits_until_graph_changes() {
        // the per-pair methods memoize; a write clears the memo
        let mut e = engine_with_chain().with_method(Method::Bounded(3));
        let r1 = e.reputation(p(0), p(2));
        let r2 = e.reputation(p(0), p(2));
        assert_eq!(r1, r2);
        assert_eq!(hit_miss(&e), (1, 1));
        e.graph_mut().add_transfer(p(2), p(1), Bytes::from_gb(1));
        let r3 = e.reputation(p(0), p(2));
        assert_eq!(hit_miss(&e), (1, 2));
        assert_eq!(e.stats().invalidated, 1);
        assert!(r3 >= r1);
        assert_eq!(r3.to_bits(), reference(&e, p(0), p(2)).to_bits());
    }

    #[test]
    fn deployed_method_ignores_three_hop_paths() {
        let mut e = ReputationEngine::new();
        // 3 -> 2 -> 1 -> 0 (three hops)
        e.graph_mut().add_transfer(p(3), p(2), Bytes::from_gb(1));
        e.graph_mut().add_transfer(p(2), p(1), Bytes::from_gb(1));
        e.graph_mut().add_transfer(p(1), p(0), Bytes::from_gb(1));
        assert_eq!(e.reputation(p(0), p(3)), 0.0);
        let mut unbounded = e.clone().with_method(Method::Dinic);
        assert!(unbounded.reputation(p(0), p(3)) > 0.0);
    }

    #[test]
    fn batch_matches_per_pair_bitwise() {
        let mut batch = ReputationEngine::new();
        batch
            .graph_mut()
            .add_transfer(p(2), p(1), Bytes::from_mb(300));
        batch
            .graph_mut()
            .add_transfer(p(1), p(0), Bytes::from_mb(200));
        batch
            .graph_mut()
            .add_transfer(p(0), p(3), Bytes::from_gb(1));
        batch
            .graph_mut()
            .add_transfer(p(3), p(2), Bytes::from_mb(50));
        let mut per_pair = batch.clone();

        let targets = [p(0), p(1), p(2), p(3), p(77)];
        let rs = batch.reputations_from(p(0), &targets);
        for (&j, &r) in targets.iter().zip(&rs) {
            assert_eq!(
                r.to_bits(),
                per_pair.reputation(p(0), j).to_bits(),
                "R_0({j}) differs between batch and per-pair"
            );
            assert_eq!(r.to_bits(), reference(&batch, p(0), j).to_bits());
        }
    }

    #[test]
    fn batch_falls_back_for_unbounded_methods() {
        // unbounded methods have no sweep: the batch is the per-pair
        // evaluation, on the (maximally asymmetric) chain as anywhere
        let mut e = engine_with_chain().with_method(Method::Dinic);
        let mut per_pair = e.clone();
        let targets = [p(1), p(2)];
        let rs = e.reputations_from(p(0), &targets);
        for (&j, &r) in targets.iter().zip(&rs) {
            assert_eq!(r.to_bits(), per_pair.reputation(p(0), j).to_bits());
        }
    }

    #[test]
    fn batch_and_per_pair_share_cache_and_stats() {
        let mut e = engine_with_chain().with_method(Method::Bounded(3));
        // batch fills the cache: 2 misses (self-query is free)
        e.reputations_from(p(0), &[p(0), p(1), p(2)]);
        assert_eq!(hit_miss(&e), (0, 2));
        assert_eq!(e.stats().entries, 2);
        // per-pair queries now hit the batch-filled entries
        e.reputation(p(0), p(1));
        e.reputation(p(0), p(2));
        assert_eq!(hit_miss(&e), (2, 2));
        // and a second batch is pure hits
        e.reputations_from(p(0), &[p(1), p(2)]);
        assert_eq!(hit_miss(&e), (4, 2));
    }

    #[test]
    fn incremental_invalidation_never_serves_stale_values() {
        for method in [Method::DEPLOYED, Method::Bounded(3)] {
            let mut e = engine_with_chain().with_method(method);
            let before = e.reputation(p(0), p(2));
            // strengthen the 2 -> 1 edge: flow(2 -> 0) stays 200 MB
            // through 1 — so raise 1 -> 0 too
            e.graph_mut().add_transfer(p(2), p(1), Bytes::from_gb(1));
            e.graph_mut().add_transfer(p(1), p(0), Bytes::from_gb(1));
            let after = e.reputation(p(0), p(2));
            assert_eq!(
                after.to_bits(),
                reference(&e, p(0), p(2)).to_bits(),
                "{method:?}"
            );
            assert!(after > before, "{method:?}");
        }
    }

    #[test]
    fn long_sync_gaps_never_force_full_invalidation() {
        // the deployed bound keeps nothing a gap could invalidate: after
        // any churn its next answer is computed from the graph as it is
        let mut e = ReputationEngine::new();
        e.graph_mut().add_transfer(p(1), p(0), Bytes::from_mb(100));
        e.graph_mut().add_transfer(p(6), p(5), Bytes::from_mb(100));
        e.reputation(p(0), p(1));
        for k in 0..(2 * 4096u64) {
            e.graph_mut().add_transfer(p(6), p(5), Bytes(k + 1));
        }
        let r = e.reputation(p(0), p(1));
        assert_eq!(r.to_bits(), reference(&e, p(0), p(1)).to_bits());
        let s = e.stats();
        assert_eq!((s.entries, s.invalidated), (0, 0));
    }

    #[test]
    fn full_clear_never_serves_stale_values_at_k3_and_up() {
        // deep chain where a distant-but-reachable change matters:
        // 5 -> 4 -> 3 -> 2 -> 1 -> 0, evaluated from 0 toward node k
        for k in [3usize, 4, 5] {
            let far = p(k as u32);
            let mut e = ReputationEngine::new().with_method(Method::Bounded(k));
            for i in (1..=5).rev() {
                e.graph_mut()
                    .add_transfer(p(i), p(i - 1), Bytes::from_mb(50));
            }
            let before = e.reputation(p(0), far);
            // widen the whole path, far end first
            for i in (1..=5).rev() {
                e.graph_mut()
                    .add_transfer(p(i), p(i - 1), Bytes::from_gb(1));
            }
            let after = e.reputation(p(0), far);
            assert_eq!(after.to_bits(), reference(&e, p(0), far).to_bits(), "k={k}");
            assert!(after > before, "k={k}");
        }
    }

    #[test]
    fn bounded_three_is_evaluated_pair_by_pair() {
        // 3 -> 2 -> 1 -> 0 plus a shortcut 3 -> 1: k ≥ 3 has no sweep,
        // so point query, batch and the throwaway-network reference
        // are one computation
        let mut e = ReputationEngine::new().with_method(Method::Bounded(3));
        for (f, t, mb) in [(3, 2, 100), (2, 1, 80), (1, 0, 60), (3, 1, 10)] {
            e.graph_mut().add_transfer(p(f), p(t), Bytes::from_mb(mb));
        }
        assert_eq!(e.kernel.sweep_bound(), None);
        let targets = [p(1), p(2), p(3)];
        let batch = e.clone().reputations_from(p(0), &targets);
        for (&j, r) in targets.iter().zip(batch) {
            assert_eq!(r.to_bits(), reference(&e, p(0), j).to_bits(), "{j}");
            assert_eq!(r.to_bits(), e.reputation(p(0), j).to_bits(), "{j}");
        }
        assert!(e.reputation(p(0), p(3)) > 0.0, "three hops are in reach");
    }

    #[test]
    fn unbounded_methods_clear_everything_on_change() {
        let mut e = ReputationEngine::new().with_method(Method::Dinic);
        e.graph_mut().add_transfer(p(1), p(0), Bytes::from_mb(100));
        e.graph_mut().add_transfer(p(6), p(5), Bytes::from_mb(100));
        e.reputation(p(0), p(1));
        // under Dinic a distant edge can matter, so any change clears
        e.graph_mut().add_transfer(p(6), p(5), Bytes::from_mb(1));
        e.reputation(p(0), p(1));
        assert_eq!(hit_miss(&e), (0, 2));
    }

    #[test]
    fn symmetric_diamond_is_exactly_zero_batch_and_point() {
        // every edge mirrored: both directed maxflows of Equation 1
        // coincide for every pair, so exact evaluation yields 0.0
        // everywhere — an undirected cut-tree shortcut, exact only on
        // such graphs, would carry no reputation signal
        let mut batch = ReputationEngine::new().with_method(Method::Dinic);
        for (a, b, mb) in [(0, 1, 100), (1, 2, 200), (0, 3, 50), (3, 2, 50)] {
            let g = batch.graph_mut();
            g.add_transfer(p(a), p(b), Bytes::from_mb(mb));
            g.add_transfer(p(b), p(a), Bytes::from_mb(mb));
        }
        let mut per_pair = batch.clone();
        let targets = [p(0), p(1), p(2), p(3), p(9)];
        let rs = batch.reputations_from(p(0), &targets);
        for (&j, &r) in targets.iter().zip(&rs) {
            assert_eq!(
                r.to_bits(),
                per_pair.reputation(p(0), j).to_bits(),
                "R_0({j}) differs between batch and per-pair Dinic"
            );
            assert_eq!(r.to_bits(), 0.0f64.to_bits(), "R_0({j}) must be 0.0");
        }
    }

    /// One engine on `method` through a fixed sequence of batch and
    /// point queries with a write between them, every answer checked
    /// bitwise against [`reference`]; returns the engine's counters.
    /// The evaluators reach different peer sets, so an entry of one
    /// sweep left in the buffer would read as flow in the next, and
    /// the targets repeat and include the evaluator itself.
    fn replay_fixed_queries(method: Method) -> CacheStats {
        // {0, 1, 2, 3} and {5, 6, 7}, bridged by 3 -> 6; 9 is isolated
        let edges = [
            (1, 0, 100),
            (2, 1, 50),
            (0, 3, 30),
            (3, 2, 25),
            (6, 5, 80),
            (7, 6, 40),
            (5, 7, 20),
            (3, 6, 10),
            (9, 9, 1),
        ];
        let mut e = ReputationEngine::new().with_method(method);
        for &(f, t, mb) in &edges {
            e.graph_mut().add_transfer(p(f), p(t), Bytes::from_mb(mb));
        }
        for (step, i) in (0u32..).zip([0, 5, 0, 9, 5, 2, 7, 0, 3, 6]) {
            if step == 4 {
                e.graph_mut().add_transfer(p(6), p(5), Bytes::from_mb(1));
            }
            let a = p(3 * step % 11);
            let targets = [a, p((3 * step + 4) % 11), a, p((3 * step + 7) % 11)];
            let got = e.reputations_from(p(i), &targets);
            for (&j, r) in targets.iter().zip(got) {
                let want = reference(&e, p(i), j);
                assert_eq!(
                    r.to_bits(),
                    want.to_bits(),
                    "{method:?}: R_{i}({j}) at step {step}"
                );
            }
            let point = e.reputation(p(i), a);
            assert_eq!(point.to_bits(), reference(&e, p(i), a).to_bits());
        }
        e.stats()
    }

    /// The closed-form bounds keep nothing: every non-self query is one
    /// evaluation, and the buffer serving evaluator after evaluator
    /// answers what a fresh computation answers.
    #[test]
    fn reused_sweep_buffer_matches_fresh_engines() {
        for method in [Method::Bounded(1), Method::DEPLOYED] {
            let want = CacheStats {
                hits: 0,
                misses: 40,
                entries: 0,
                invalidated: 0,
            };
            assert_eq!(replay_fixed_queries(method), want, "{method:?}");
        }
    }

    /// The per-pair methods' memo still serves: repeated targets, the
    /// point query after each batch and the evaluators that recur
    /// before the write hit. Pinned from the per-entry LRU memo this
    /// plain map replaced, on the same sequence.
    #[test]
    fn per_pair_memo_serves_repeat_queries() {
        for method in [Method::Bounded(3), Method::Dinic] {
            let want = CacheStats {
                hits: 14,
                misses: 26,
                entries: 16,
                invalidated: 10,
            };
            assert_eq!(replay_fixed_queries(method), want, "{method:?}");
        }
    }

    #[test]
    fn absorb_message_roundtrip() {
        let mut h = PrivateHistory::new(p(5));
        h.record_upload(p(6), Bytes::from_mb(42), Seconds(1));
        let msg = BarterCastMessage::from_history(&h, Default::default());
        let mut e = ReputationEngine::new();
        assert!(e.absorb_message(&msg) > 0);
        assert_eq!(e.graph().edge(p(5), p(6)), Bytes::from_mb(42));
    }
}

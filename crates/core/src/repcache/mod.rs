//! The reputation engine: subjective graph + flow kernel + metric +
//! memo cache.
//!
//! Each peer owns one [`ReputationEngine`]. It holds the peer's
//! subjective [`ContributionGraph`] (private history edges plus
//! gossiped records), evaluates Equation 1 with a configurable maxflow
//! method (the deployed default is two-hop-bounded), and memoizes
//! results until the graph changes.
//!
//! The engine is assembled from two submodules:
//!
//! * [`backend`] — the consolidated [`CacheStats`].
//! * [`memo`] — the [`MemoCache`] per-entry LRU bounding the memory
//!   the memoized reputations can take, with per-endpoint chains that
//!   drop every entry naming one peer without scanning the rest.
//!
//! Invalidation (the private `sync`, run by every query) keeps no
//! structure of its own: the graph lists the nodes whose incident
//! edges changed ([`ContributionGraph::changed_nodes_since`]), the
//! memo drops those nodes' entries ([`MemoCache::remove_node`]), and
//! the engine remembers the version its memo was last synchronized
//! to. As the graph's one reader of that list, the engine also tells
//! an owned graph what it may forget
//! ([`ContributionGraph::forget_changes_through`]).
//!
//! The graph sits in a private two-state slot. **Owned** is a plain
//! `ContributionGraph` and the only state a per-peer engine (`sim`,
//! `node`, `swarm`) ever sees. **Frozen** is an `Arc` the engine
//! shares with the epoch views a sharded service published
//! (`shard::epoch`): publishing is O(1), reads deref either state, and
//! the first [`ReputationEngine::graph_mut`] after a freeze thaws the
//! slot — a move when no view is alive, one copy of the graph when a
//! reader outlives the write (`ShardStats::graph_copies` counts
//! those).

use std::sync::Arc;

use crate::history::PrivateHistory;
use crate::message::BarterCastMessage;
use crate::metric::ReputationMetric;
use bartercast_graph::maxflow::{self, Method};
use bartercast_graph::{ContributionGraph, FlowKernel, FlowPair};
use bartercast_util::units::{Bytes, PeerId};
use bartercast_util::{FxHashMap, FxHashSet};

pub mod backend;
pub mod memo;

pub use backend::CacheStats;
pub use memo::{MemoCache, DEFAULT_CACHE_BUDGET};

/// The engine's graph: writable in place, or shared with published
/// epoch views until the next write.
// the owned variant stays inline: it is the state every per-peer engine
// lives in, and a `Box` would put a pointer hop on each of its reads
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
enum GraphSlot {
    Owned(ContributionGraph),
    Frozen(Arc<ContributionGraph>),
}

/// Subjective reputation evaluation with memoization.
#[derive(Debug, Clone)]
pub struct ReputationEngine {
    graph: GraphSlot,
    metric: ReputationMetric,
    /// The flow kernel for the configured method; it invalidates its
    /// own per-version state lazily, so the engine never issues reset
    /// calls.
    kernel: FlowKernel,
    /// Memoized `(evaluator, target)` reputations under a per-entry
    /// LRU budget.
    memo: MemoCache,
    /// The last single-source sweep's flows, reused call to call so a
    /// sweep allocates only when it outgrows every earlier one.
    sweep: FxHashMap<PeerId, FlowPair>,
    /// Peers the current batch's sweep newly memoized and the batch has
    /// not yet asked for (see [`ReputationEngine::reputations_from`]).
    fresh: FxHashSet<PeerId>,
    /// Graph version the memo cache was last synchronized to;
    /// [`ReputationEngine::sync`] is the single place that moves it.
    cached_version: u64,
    hits: u64,
    misses: u64,
    /// Entries dropped by graph-change invalidation (diagnostics).
    invalidated: u64,
    /// Thaws that had to copy the graph because a reader still held it.
    graph_copies: u64,
}

impl GraphSlot {
    fn get(&self) -> &ContributionGraph {
        match self {
            GraphSlot::Owned(graph) => graph,
            GraphSlot::Frozen(shared) => shared,
        }
    }

    /// Move the slot out, leaving an empty owned graph (no allocation)
    /// for the caller to overwrite.
    fn take(&mut self) -> GraphSlot {
        std::mem::replace(self, GraphSlot::Owned(ContributionGraph::new()))
    }
}

impl Default for ReputationEngine {
    fn default() -> Self {
        Self::new()
    }
}

impl ReputationEngine {
    /// An engine with an empty graph and the deployed configuration
    /// (two-hop bounded maxflow, arctan metric with 2 GB unit).
    pub fn new() -> Self {
        ReputationEngine {
            graph: GraphSlot::Owned(ContributionGraph::new()),
            metric: ReputationMetric::default(),
            kernel: FlowKernel::new(Method::DEPLOYED),
            memo: MemoCache::default(),
            sweep: FxHashMap::default(),
            fresh: FxHashSet::default(),
            cached_version: 0,
            hits: 0,
            misses: 0,
            invalidated: 0,
            graph_copies: 0,
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

    /// Cap the memo cache at `budget` entries. Batch sweeps memoize
    /// their full single-source result set (every reachable peer, not
    /// just the requested targets); the per-entry LRU evicts the
    /// least-recently-used entries when that pushes the cache past the
    /// budget. Purely a memory/perf knob: eviction can never produce
    /// stale values.
    pub fn with_cache_budget(mut self, budget: usize) -> Self {
        self.memo.set_budget(budget);
        self
    }

    /// Bring the memo cache up to the current graph version. The
    /// single synchronization point for all query paths.
    ///
    /// When the graph moved, the memo cache is evicted
    /// **incrementally** where the method permits: for path-length
    /// bounds ≤ 2, a changed edge `(a, b)` can only alter `flow(s, t)`
    /// when `s = a` or `t = b`, so the entry `(i, j)` — which combines
    /// `flow(j → i)` and `flow(i → j)` — is affected exactly when `i`
    /// or `j` is an endpoint of a changed edge. The graph lists the
    /// nodes that moved since the memo's version
    /// ([`ContributionGraph::changed_nodes_since`]) and the memo drops
    /// each one's entries through its per-endpoint chains, so the cost
    /// is O(changed nodes + evicted entries), not a scan of the memo.
    /// Entries whose pairs avoid every changed endpoint are provably
    /// unchanged and survive — across arbitrarily long gaps between
    /// syncs. An owned graph then forgets the changes the memo has
    /// caught up with; a frozen one is never written (that would thaw
    /// it), so its list waits for the next owned-state sync. A graph
    /// swapped in whole may have forgotten past the memo's version;
    /// the list cannot answer for it and the memo is cleared.
    ///
    /// Every other method — `Bounded(k)` with `k ≥ 3` and the
    /// unbounded algorithms — lets an edge away from both endpoints
    /// reroute the flow between them, so any change clears the whole
    /// memo; that is a semantic requirement of the method, not a
    /// capacity fallback.
    fn sync(&mut self) {
        let version = self.graph().version();
        if version == self.cached_version {
            return;
        }
        let walk = matches!(self.method(), Method::Bounded(k) if k <= 2);
        match self.graph.get().changed_nodes_since(self.cached_version) {
            _ if self.memo.is_empty() => {}
            Some(changed) if walk => {
                for node in changed {
                    self.invalidated += self.memo.remove_node(node) as u64;
                }
            }
            // `k ≥ 3`, unbounded, or a list that cannot answer
            _ => {
                self.invalidated += self.memo.len() as u64;
                self.memo.clear();
            }
        }
        if let GraphSlot::Owned(graph) = &mut self.graph {
            graph.forget_changes_through(version);
        }
        self.cached_version = version;
    }

    /// Re-absorb the owner's private history (max-merge, so calling it
    /// repeatedly as the history grows is safe and cheap).
    pub fn absorb_private(&mut self, history: &PrivateHistory) {
        let me = history.owner();
        let graph = self.graph_mut();
        for (peer, totals) in history.iter() {
            graph.merge_record(me, peer, totals.up);
            graph.merge_record(peer, me, totals.down);
        }
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
        self.graph.get()
    }

    /// Mutable access (used by tests and by the deployment model).
    /// The first call after a freeze thaws the slot.
    pub fn graph_mut(&mut self) -> &mut ContributionGraph {
        if let GraphSlot::Frozen(_) = self.graph {
            self.thaw();
        }
        match &mut self.graph {
            GraphSlot::Owned(graph) => graph,
            GraphSlot::Frozen(_) => unreachable!("thaw leaves the slot owned"),
        }
    }

    /// Share the graph with a reader: the slot turns frozen (a move of
    /// the struct header into the `Arc`, no edge is copied) and stays
    /// so until the next [`ReputationEngine::graph_mut`].
    pub(crate) fn freeze(&mut self) -> Arc<ContributionGraph> {
        let shared = match self.graph.take() {
            GraphSlot::Owned(graph) => Arc::new(graph),
            GraphSlot::Frozen(shared) => shared,
        };
        self.graph = GraphSlot::Frozen(Arc::clone(&shared));
        shared
    }

    /// Take the graph back for writing: a move when the engine holds
    /// the only reference, otherwise the one copy a write pays for a
    /// reader that outlives it. Out of line so the owned-state write
    /// path stays one predictable branch.
    #[cold]
    #[inline(never)]
    fn thaw(&mut self) {
        let graph = match self.graph.take() {
            GraphSlot::Owned(graph) => graph,
            GraphSlot::Frozen(shared) => Arc::try_unwrap(shared).unwrap_or_else(|shared| {
                self.graph_copies += 1;
                ContributionGraph::clone(&shared)
            }),
        };
        self.graph = GraphSlot::Owned(graph);
    }

    /// Thaws that had to copy the graph because an epoch view (or a
    /// clone of this engine) still held it.
    pub(crate) fn graph_copies(&self) -> u64 {
        self.graph_copies
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

    /// Subjective reputation `R_i(j)` (§3.3, Equation 1), memoized
    /// until the graph changes.
    pub fn reputation(&mut self, i: PeerId, j: PeerId) -> f64 {
        if i == j {
            return 0.0;
        }
        self.sync();
        if let Some(r) = self.memo.get(&(i, j)) {
            self.hits += 1;
            return r;
        }
        self.misses += 1;
        let toward = self.kernel.flow(self.graph.get(), j, i);
        let away = self.kernel.flow(self.graph.get(), i, j);
        let r = self.metric.eval(toward, away);
        self.memo.insert((i, j), r);
        r
    }

    /// Batch form of [`ReputationEngine::reputation`]: `R_i(j)` for
    /// every `j` in `targets`, in order.
    ///
    /// Path bounds `k ≤ 2` have a single-source sweep
    /// ([`FlowKernel::all_flows_from`]); it runs lazily on the first
    /// cache miss and its **full** result set (every reachable peer)
    /// is memoized, so consecutive sweeps over different target lists
    /// are pure cache hits; the cache budget bounds the memory this
    /// can take. Every other method has no sweep and is evaluated
    /// pair by pair, exactly as [`ReputationEngine::reputation`] does.
    pub fn reputations_from(&mut self, i: PeerId, targets: &[PeerId]) -> Vec<f64> {
        self.sync();
        // the sweep (when the method has one) runs lazily on the
        // first miss; `fresh` tracks the entries it inserted, which
        // still count as misses the first time they are requested so
        // hit/miss totals stay comparable with per-pair accounting
        let mut swept: Option<bool> = None;
        self.fresh.clear();
        let mut out = Vec::with_capacity(targets.len());
        for &j in targets {
            if j == i {
                out.push(0.0);
                continue;
            }
            if !self.fresh.contains(&j) {
                if let Some(r) = self.memo.get(&(i, j)) {
                    self.hits += 1;
                    out.push(r);
                    continue;
                }
            }
            self.misses += 1;
            // `false` (method without a sweep) is decided once per batch
            let value = if *swept.get_or_insert_with(|| self.sweep_and_memoize(i)) {
                // straight from the flows, never read back through the
                // memo, whose budget may already have evicted this
                // call's own insertions
                let pair = self.sweep.get(&j).copied().unwrap_or_default();
                self.metric.eval(pair.toward, pair.away)
            } else {
                let toward = self.kernel.flow(self.graph.get(), j, i);
                let away = self.kernel.flow(self.graph.get(), i, j);
                self.metric.eval(toward, away)
            };
            // peers absent from the sweep have zero flow either way;
            // memoize them too so repeat queries hit
            self.memo.insert_with((i, j), || value);
            self.fresh.remove(&j);
            out.push(value);
        }
        out
    }

    /// Sweep evaluator `i` into the reused buffer and memoize the
    /// **entire** single-source result set, noting in `fresh` the
    /// entries it inserted; entries already memoized are left alone
    /// (same graph version, hence identical values). `false` when the
    /// method has no sweep.
    fn sweep_and_memoize(&mut self, i: PeerId) -> bool {
        if !self
            .kernel
            .all_flows_from(self.graph.get(), i, &mut self.sweep)
        {
            return false;
        }
        for (&peer, pair) in &self.sweep {
            if peer != i
                && self
                    .memo
                    .insert_with((i, peer), || self.metric.eval(pair.toward, pair.away))
            {
                self.fresh.insert(peer);
            }
        }
        true
    }

    /// One snapshot of the cache counters: hits, misses, live entries,
    /// LRU evictions and change invalidations.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits,
            misses: self.misses,
            entries: self.memo.len(),
            evictions: self.memo.evictions(),
            invalidated: self.invalidated,
        }
    }
}

/// The reference oracle for `sync`.
#[cfg(test)]
impl ReputationEngine {
    /// The whole-memo scan `sync`'s walk replaced: every entry is
    /// checked against the graph, both endpoints. Run before a query,
    /// it leaves that query's own `sync` nothing to do.
    fn sync_by_scan(&mut self) {
        let version = self.graph().version();
        if version == self.cached_version {
            return;
        }
        match self.method() {
            Method::Bounded(k) if k <= 2 => {
                let (graph, since) = (self.graph.get(), self.cached_version);
                let removed = self.memo.retain(|&(i, j)| {
                    !graph.changed_since(i, since) && !graph.changed_since(j, since)
                });
                self.invalidated += removed as u64;
            }
            _ => {
                self.invalidated += self.memo.len() as u64;
                self.memo.clear();
            }
        }
        self.cached_version = version;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bartercast_util::units::Seconds;
    use proptest::prelude::*;

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
        let mut e = engine_with_chain();
        assert_eq!(e.reputation(p(0), p(0)), 0.0);
    }

    #[test]
    fn unknown_peer_is_neutral() {
        let mut e = engine_with_chain();
        assert_eq!(e.reputation(p(0), p(77)), 0.0);
    }

    #[test]
    fn cache_hits_until_graph_changes() {
        let mut e = engine_with_chain();
        let r1 = e.reputation(p(0), p(2));
        let r2 = e.reputation(p(0), p(2));
        assert_eq!(r1, r2);
        assert_eq!(hit_miss(&e), (1, 1));
        // mutate graph: cache must invalidate
        e.graph_mut().add_transfer(p(2), p(1), Bytes::from_gb(1));
        let r3 = e.reputation(p(0), p(2));
        assert_eq!(e.stats().misses, 2);
        assert!(r3 >= r1);
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
    fn clones_of_a_frozen_engine_diverge_on_either_sides_write() {
        // 3 -> 2 -> 1 -> 0: three hops, out of the deployed reach until
        // a shortcut 3 -> 1 is written
        let chain = || {
            let mut e = ReputationEngine::new();
            for i in (1..=3).rev() {
                e.graph_mut()
                    .add_transfer(p(i), p(i - 1), Bytes::from_gb(1));
            }
            e.freeze();
            e
        };
        for write_to_clone in [false, true] {
            let mut original = chain();
            let mut cloned = original.clone();
            assert!(std::ptr::eq(original.graph(), cloned.graph()));
            let (writer, other) = if write_to_clone {
                (&mut cloned, &mut original)
            } else {
                (&mut original, &mut cloned)
            };
            writer
                .graph_mut()
                .add_transfer(p(3), p(1), Bytes::from_gb(1));
            assert_eq!(writer.graph_copies(), 1);
            assert!(writer.reputation(p(0), p(3)) > 0.0);
            assert_eq!(other.reputation(p(0), p(3)), 0.0);
            assert_eq!(other.graph().edge(p(3), p(1)), Bytes::ZERO);
            // the other side now holds the only reference: its own
            // write moves the graph back without a copy
            other
                .graph_mut()
                .add_transfer(p(3), p(1), Bytes::from_mb(1));
            assert_eq!(other.graph_copies(), 0);
        }
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
        let mut e = engine_with_chain();
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
    fn incremental_invalidation_keeps_untouched_entries() {
        let mut e = ReputationEngine::new();
        // two disjoint components: {0,1} and {5,6}
        e.graph_mut().add_transfer(p(1), p(0), Bytes::from_mb(100));
        e.graph_mut().add_transfer(p(6), p(5), Bytes::from_mb(100));
        e.reputation(p(0), p(1));
        e.reputation(p(5), p(6));
        assert_eq!(hit_miss(&e), (0, 2));
        // touching the {5,6} component must not evict the (0,1) entry
        e.graph_mut().add_transfer(p(6), p(5), Bytes::from_mb(1));
        e.reputation(p(0), p(1));
        assert_eq!(hit_miss(&e), (1, 2), "(0,1) must survive eviction");
        e.reputation(p(5), p(6));
        assert_eq!(hit_miss(&e), (1, 3), "(5,6) must be recomputed");
        assert_eq!(e.stats().invalidated, 1, "exactly the dirty entry dropped");
    }

    #[test]
    fn incremental_invalidation_never_serves_stale_values() {
        let mut e = engine_with_chain();
        let before = e.reputation(p(0), p(2));
        // strengthen the 2 -> 1 edge: flow(2 -> 0) rises from 200 MB
        // to min(1300, 200)... still 200 through 1 — so raise 1 -> 0 too
        e.graph_mut().add_transfer(p(2), p(1), Bytes::from_gb(1));
        e.graph_mut().add_transfer(p(1), p(0), Bytes::from_gb(1));
        let after = e.reputation(p(0), p(2));
        let mut fresh = ReputationEngine::new();
        fresh
            .graph_mut()
            .add_transfer(p(2), p(1), Bytes::from_mb(300));
        fresh
            .graph_mut()
            .add_transfer(p(1), p(0), Bytes::from_mb(200));
        fresh
            .graph_mut()
            .add_transfer(p(2), p(1), Bytes::from_gb(1));
        fresh
            .graph_mut()
            .add_transfer(p(1), p(0), Bytes::from_gb(1));
        assert_eq!(after.to_bits(), fresh.reputation(p(0), p(2)).to_bits());
        assert!(after > before);
    }

    #[test]
    fn long_sync_gaps_never_force_full_invalidation() {
        // a flat change log truncating at 4096 entries would fall back
        // to clearing the whole cache; the graph keeps per-node change
        // versions instead, so any gap length evicts precisely
        let mut e = ReputationEngine::new();
        e.graph_mut().add_transfer(p(1), p(0), Bytes::from_mb(100));
        e.graph_mut().add_transfer(p(6), p(5), Bytes::from_mb(100));
        e.reputation(p(0), p(1));
        for k in 0..(2 * 4096u64) {
            e.graph_mut().add_transfer(p(6), p(5), Bytes(k + 1));
        }
        e.reputation(p(0), p(1));
        assert_eq!(hit_miss(&e), (1, 1), "(0,1) must survive the distant churn");
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
            let mut cold = ReputationEngine::new().with_method(Method::Bounded(k));
            *cold.graph_mut() = e.graph().clone();
            assert_eq!(
                after.to_bits(),
                cold.reputation(p(0), far).to_bits(),
                "k={k}"
            );
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
        assert!(!e
            .kernel
            .all_flows_from(e.graph(), p(0), &mut FxHashMap::default()));
        let targets = [p(1), p(2), p(3)];
        let batch = e.clone().reputations_from(p(0), &targets);
        for (&j, r) in targets.iter().zip(batch) {
            let (toward, away) = e.flows(p(0), j);
            assert_eq!(r.to_bits(), e.metric.eval(toward, away).to_bits(), "{j}");
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

    #[test]
    fn full_sweep_memoization_makes_later_targets_hits() {
        // the sweep memoizes every reachable peer, not just requested
        // targets: asking for a *different* reachable target later must
        // be a pure cache hit
        let mut e = engine_with_chain();
        e.reputations_from(p(0), &[p(1)]);
        assert_eq!(hit_miss(&e), (0, 1));
        e.reputations_from(p(0), &[p(2)]);
        assert_eq!(
            hit_miss(&e),
            (1, 1),
            "peer 2 was memoized by the first sweep"
        );
        assert_eq!(
            e.reputation(p(0), p(2)).to_bits(),
            engine_with_chain().reputation(p(0), p(2)).to_bits()
        );
    }

    /// One engine whose sweep buffer serves evaluator after evaluator
    /// answers bitwise what a fresh engine answers each time, with the
    /// hit/miss accounting the per-call maps had. The evaluators reach
    /// different peer sets, so an entry of one sweep left in the
    /// buffer would read as flow in the next.
    #[test]
    fn reused_sweep_buffer_matches_fresh_engines() {
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
        // pinned from the engine with per-call sweep maps, on this
        // same query sequence
        let expected = [
            (Method::Bounded(1), (9, 24, 30, 6)),
            (Method::DEPLOYED, (11, 22, 34, 6)),
        ];
        for (method, (hits, misses, entries, invalidated)) in expected {
            let mut shared = ReputationEngine::new().with_method(method);
            for &(f, t, mb) in &edges {
                shared
                    .graph_mut()
                    .add_transfer(p(f), p(t), Bytes::from_mb(mb));
            }
            for (step, i) in (0u32..).zip([0, 5, 0, 9, 5, 2, 7, 0, 3, 6]) {
                if step == 4 {
                    // a write between queries: `sync` evicts 5's and 6's
                    shared
                        .graph_mut()
                        .add_transfer(p(6), p(5), Bytes::from_mb(1));
                }
                // a repeated target, and targets the evaluator's sweep
                // memoized on an earlier step
                let a = p(3 * step % 11);
                let targets = [a, p((3 * step + 4) % 11), a, p((3 * step + 7) % 11)];
                let mut cold = ReputationEngine::new().with_method(method);
                *cold.graph_mut() = shared.graph().clone();
                let bits = |v: Vec<f64>| v.into_iter().map(f64::to_bits).collect::<Vec<_>>();
                assert_eq!(
                    bits(shared.reputations_from(p(i), &targets)),
                    bits(cold.reputations_from(p(i), &targets)),
                    "{method:?}: R_{i}({targets:?}) at step {step}"
                );
            }
            let want = CacheStats {
                hits,
                misses,
                entries,
                evictions: 0,
                invalidated,
            };
            assert_eq!(shared.stats(), want, "{method:?}");
        }
    }

    #[test]
    fn cache_budget_evicts_cold_entries_without_staleness() {
        let mut e = engine_with_chain().with_cache_budget(2);
        e.reputations_from(p(0), &[p(2)]); // sweep fills (0,1), (0,2)
        assert_eq!(e.stats().entries, 2);
        // evaluator 1's sweep fills (1,2), (1,0): both of evaluator 0's
        // now-coldest entries are evicted to hold the budget
        e.reputations_from(p(1), &[p(2)]);
        let s = e.stats();
        assert_eq!(s.entries, 2, "budget must hold");
        assert_eq!(s.evictions, 2);
        // re-querying recomputes the same value — eviction is never stale
        let misses_before = e.stats().misses;
        let r = e.reputation(p(0), p(2));
        assert_eq!(e.stats().misses, misses_before + 1, "entry was evicted");
        assert_eq!(
            r.to_bits(),
            engine_with_chain().reputation(p(0), p(2)).to_bits()
        );
    }

    #[test]
    fn per_entry_lru_keeps_hot_entries_alive() {
        // whole-evaluator eviction would drop (0,2) along with the rest
        // of evaluator 0's entries when evaluator 1 sweeps; per-entry
        // recency keeps the hot pair and sheds only the cold one
        let mut e = engine_with_chain().with_cache_budget(3);
        e.reputations_from(p(0), &[p(1)]); // fills (0,1), (0,2)
        e.reputation(p(0), p(2)); // hit: (0,2) is now the hottest entry
        let hits_before = e.stats().hits;
        e.reputations_from(p(1), &[p(0)]); // fills (1,*): one eviction
        assert_eq!(e.stats().evictions, 1);
        e.reputation(p(0), p(2));
        assert_eq!(
            e.stats().hits,
            hits_before + 1,
            "hot entry survived the churn"
        );
    }

    /// One write to both engines: `add_transfer` or `merge_record`.
    fn write_both(a: &mut ReputationEngine, b: &mut ReputationEngine, w: (u32, u32, u64, bool)) {
        let (from, to, bytes, merge) = (p(w.0), p(w.1), Bytes(w.2), w.3);
        for e in [a, b] {
            if merge {
                e.graph_mut().merge_record(from, to, bytes);
            } else {
                e.graph_mut().add_transfer(from, to, bytes);
            }
        }
    }

    /// The same query on both engines, the oracle synchronized by the
    /// whole-memo scan first; the answers must agree bitwise.
    fn query_both(
        walk: &mut ReputationEngine,
        scan: &mut ReputationEngine,
        i: u32,
        targets: &[PeerId],
        batch: bool,
    ) -> Result<(), TestCaseError> {
        // the scan stands in for `sync` exactly where the query runs it
        // (a point self-query answers 0.0 before synchronizing)
        if batch || p(i) != targets[0] {
            scan.sync_by_scan();
        }
        let (got, want) = if batch {
            (
                walk.reputations_from(p(i), targets),
                scan.reputations_from(p(i), targets),
            )
        } else {
            let j = targets[0];
            (
                vec![walk.reputation(p(i), j)],
                vec![scan.reputation(p(i), j)],
            )
        };
        let bits = |v: &[f64]| v.iter().map(|r| r.to_bits()).collect::<Vec<_>>();
        prop_assert_eq!(bits(&got), bits(&want), "R_{}({:?})", i, targets);
        Ok(())
    }

    /// Both engines' counters, recency order and values, bitwise.
    fn same_memo(walk: &ReputationEngine, scan: &ReputationEngine) -> Result<(), TestCaseError> {
        prop_assert_eq!(walk.stats(), scan.stats());
        let bits = |e: &ReputationEngine| {
            e.memo
                .by_recency()
                .into_iter()
                .map(|(k, v)| (k, v.to_bits()))
                .collect::<Vec<_>>()
        };
        prop_assert_eq!(bits(walk), bits(scan));
        prop_assert!(
            walk.memo.check_chains().is_ok(),
            "{:?}",
            walk.memo.check_chains()
        );
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// The changed-endpoint walk evicts exactly what the whole-memo
        /// scan did, step by step: one random stream of writes (single,
        /// or gaps of up to 5,000 between syncs), point and batch
        /// queries from several evaluators (targets include peers the
        /// graph has not seen yet) and freeze → query → write, through
        /// one engine on `sync` and one on the scan oracle.
        #[test]
        fn changed_endpoint_walk_evicts_exactly_what_the_scan_did(
            ops in prop::collection::vec((0u8..12, 0u32..12, 0u32..12, 1u64..5_000), 1..60),
            budget in 0usize..4,
            method in 0usize..3,
        ) {
            let budget = [1, 3, 8, DEFAULT_CACHE_BUDGET][budget];
            let method = [Method::Bounded(1), Method::DEPLOYED, Method::Bounded(3)][method];
            let mut walk = ReputationEngine::new()
                .with_method(method)
                .with_cache_budget(budget);
            let mut scan = walk.clone();
            for &(op, a, b, w) in &ops {
                let targets: Vec<PeerId> = (0..5).map(|t| p((b + 3 * t) % 14)).collect();
                match op {
                    0..=3 => write_both(&mut walk, &mut scan, (a, b, w, op % 2 == 1)),
                    4 => {
                        // a gap: up to 5,000 writes before the next sync
                        let mut x = w;
                        for _ in 0..w {
                            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                            let (f, t) = ((x >> 33) as u32 % 12, (x >> 45) as u32 % 12);
                            write_both(&mut walk, &mut scan, (f, t, 1 + (x >> 20) % 999, x & 1 == 1));
                        }
                    }
                    5..=7 => query_both(&mut walk, &mut scan, a, &targets, false)?,
                    8..=10 => query_both(&mut walk, &mut scan, a, &targets, true)?,
                    _ => {
                        // a query while frozen never trims (or thaws) the
                        // graph; the write after it thaws, by a copy when
                        // the reader is still alive
                        let views = (walk.freeze(), scan.freeze());
                        query_both(&mut walk, &mut scan, a, &targets, true)?;
                        prop_assert!(std::ptr::eq(&*views.0, walk.graph()));
                        if w % 2 == 0 {
                            drop(views);
                        }
                        write_both(&mut walk, &mut scan, (a, b, w, false));
                    }
                }
                same_memo(&walk, &scan)?;
                prop_assert!(walk.graph().check_invariants().is_ok());
            }
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

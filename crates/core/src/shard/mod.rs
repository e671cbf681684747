//! Sharded reputation service: `ContributionGraph` ownership
//! partitioned across N shards, each storing the edges of the peers it
//! owns in an arena-backed subgraph, queryable shard-parallel through
//! epoch-consistent snapshots.
//!
//! ## Ownership without replication
//!
//! A [`Partitioner`] assigns every peer to exactly one **owner shard**
//! ([`partition`]). Shard `s` stores exactly the edges with an
//! endpoint it owns: a mutation of `(f, t)` is written to `owner(f)`
//! and, when it differs, to `owner(t)`, so a shard-local edge is
//! stored once and a cross-shard edge twice, at the same weight. The
//! **tail's owner is authoritative**: it counts the edge in
//! [`ShardStats::authoritative_edges`] and reports whether a merge
//! changed it.
//!
//! With the service restricted to `Method::Bounded(k ≤ 2)`, a sweep
//! from evaluator `i` reads only `in(i)`, `out(i)`, `in(m)` for
//! in-neighbours `m` and `out(m)` for out-neighbours `m`
//! (`graph::ssat`). Each of those is one node's adjacency, and a
//! node's owner holds all of it, so every query runs
//! `ssat::sweep_adjacency` reading each node at its owner shard, and
//! nothing is copied between shards to serve it.
//!
//! ## Bit-identity
//!
//! The sweep reads exactly the adjacency it would read on the union
//! graph, and the bounded-flow closed form is an order-independent sum
//! of `u64` minima, so every sharded `reputations_from` is **bitwise
//! equal** to the monolithic engine on the union graph — at any shard
//! count, under any mutation interleaving.
//! `tests/shard_differential.rs` pins this.
//!
//! ## Epochs
//!
//! [`ShardedEngine::publish_all`] freezes every shard's graph, all at
//! once, into [`EpochView`]s ([`epoch`]) that hold the whole set plus
//! the partitioner: a view is a consistent cut of the service and
//! answers any evaluator, whichever shard it is tagged with. Readers
//! on other threads evaluate against the views lock-free while owners
//! keep writing. A view is a reference, not a copy: each frozen graph
//! is shared with its shard's live engine behind an `Arc`, publishing
//! is O(1) per shard, and a write that reaches a shard (its one or two
//! owner shards) copies that shard's graph only if a view of it is
//! still alive ([`ShardStats::graph_copies`] counts those; a service
//! that drops its views before it writes again pays none). The service
//! keeps no view itself, for a reference held here would make every
//! post-publish write copy. The shard-aware sweep scheduler in
//! `sim::sweep` runs every evaluator on the views.

pub mod epoch;
pub mod partition;

use std::sync::Arc;

use crate::message::BarterCastMessage;
use crate::metric::ReputationMetric;
use crate::repcache::{swept_reputations, ReputationEngine};
use crate::PrivateHistory;
use bartercast_graph::{ssat, ContributionGraph, FlowPair, Method};
use bartercast_util::units::{Bytes, PeerId};
use bartercast_util::FxHashMap;

pub use epoch::EpochView;
pub use partition::{CommunityPartitioner, HashPartitioner, Partitioner};

/// One shard: a live engine holding the shard's graph, plus its
/// publication counter.
#[derive(Debug)]
struct Shard {
    engine: ReputationEngine,
    epochs_published: u64,
}

/// Aggregate diagnostics for a sharded service (see
/// [`ShardedEngine::stats`]).
#[derive(Debug, Clone, PartialEq)]
pub struct ShardStats {
    /// Number of shards.
    pub shards: usize,
    /// Authoritative (deduplicated) edge count across the service.
    pub authoritative_edges: usize,
    /// Total edges stored across all shards: every authoritative edge
    /// once more for each cross-shard edge, which both owners store.
    pub replica_edges: usize,
    /// Fraction of authoritative edges whose endpoints share an owner
    /// shard.
    pub locality: f64,
    /// Total epochs published across all shards.
    pub epochs_published: u64,
    /// Writes that had to copy a shard's graph because an epoch view
    /// of it was still alive, summed over shards. Zero when readers
    /// drop their views before the next write reaches the shard.
    pub graph_copies: u64,
}

/// `R_i(j)` for every `j` in `targets`, in order, from one sweep of
/// evaluator `i` into `flows` that reads every node's adjacency from
/// `at_owner(node)`, the graph of the node's owner shard: the one
/// evaluation behind the live service and its epoch views.
pub(crate) fn owner_reputations<'g>(
    at_owner: impl Fn(PeerId) -> &'g ContributionGraph,
    i: PeerId,
    method: Method,
    metric: ReputationMetric,
    targets: &[PeerId],
    flows: &mut FxHashMap<PeerId, FlowPair>,
) -> Vec<f64> {
    let Method::Bounded(hops) = method else {
        unreachable!("ShardedEngine::with_method admits only Bounded(k ≤ 2)")
    };
    ssat::sweep_adjacency(
        i,
        hops,
        |p| at_owner(p).in_edges(p),
        |p| at_owner(p).out_edges(p),
        flows,
    );
    swept_reputations(flows, i, metric, targets)
}

/// A reputation service whose contribution graph is partitioned across
/// shards, answering Equation-1 queries bit-identically to a single
/// monolithic [`ReputationEngine`] holding the union graph.
///
/// Restricted to `Method::Bounded(k ≤ 2)` — the deployed BarterCast
/// configuration — whose two-hop locality is what makes reading each
/// node at its owner shard sufficient (see the module docs).
#[derive(Debug)]
pub struct ShardedEngine {
    shards: Vec<Shard>,
    partitioner: Arc<dyn Partitioner>,
    method: Method,
    metric: ReputationMetric,
    /// The live queries' sweep, reused call to call.
    sweep: FxHashMap<PeerId, FlowPair>,
}

impl ShardedEngine {
    /// A service with `shards` hash-partitioned shards and the
    /// deployed configuration. Panics if `shards` is 0.
    pub fn new(shards: usize) -> Self {
        assert!(shards >= 1, "shard count {shards} must be at least 1");
        ShardedEngine {
            shards: (0..shards)
                .map(|_| Shard {
                    engine: ReputationEngine::new(),
                    epochs_published: 0,
                })
                .collect(),
            partitioner: Arc::new(HashPartitioner),
            method: Method::DEPLOYED,
            metric: ReputationMetric::default(),
            sweep: FxHashMap::default(),
        }
    }

    /// Replace the peer→shard assignment. Call before ingesting any
    /// edges (use [`ShardedEngine::repartition`] afterwards).
    pub fn with_partitioner(mut self, partitioner: Arc<dyn Partitioner>) -> Self {
        assert_eq!(
            self.authoritative_edge_count(),
            0,
            "set the partitioner before ingesting edges, or repartition()"
        );
        self.partitioner = partitioner;
        self
    }

    /// Override the bounded maxflow method. Panics unless the method
    /// is `Bounded(k)` with `k ≤ 2`: deeper bounds and unbounded flow
    /// read beyond a node's own adjacency and its neighbours'.
    pub fn with_method(mut self, method: Method) -> Self {
        assert!(
            matches!(method, Method::Bounded(k) if k <= 2),
            "sharded service requires Bounded(k <= 2), got {method:?}"
        );
        self.method = method;
        self
    }

    /// Override the reputation metric.
    pub fn with_metric(mut self, metric: ReputationMetric) -> Self {
        self.metric = metric;
        self
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The bounded method the service evaluates with.
    pub fn method(&self) -> Method {
        self.method
    }

    /// The owner shard of `peer` under the current partitioner.
    pub fn shard_of(&self, peer: PeerId) -> usize {
        self.partitioner.shard_of(peer, self.shards.len())
    }

    /// Read-only access to shard `s`'s live engine, whose graph holds
    /// exactly the edges touching a peer the shard owns. Its own
    /// queries see only that subgraph; the service's answer for any
    /// evaluator is [`ShardedEngine::reputations_from`].
    pub fn shard_engine(&self, s: usize) -> &ReputationEngine {
        &self.shards[s].engine
    }

    /// Record `amount` more bytes transferred `from → to` (delta), as
    /// [`ContributionGraph::add_transfer`] on the union graph.
    pub fn add_transfer(&mut self, from: PeerId, to: PeerId, amount: Bytes) {
        if from == to || amount.is_zero() {
            return;
        }
        self.route(from, to, |_, g| g.add_transfer(from, to, amount));
    }

    /// Max-merge a gossiped record `from → to` at `total` bytes, as
    /// [`ContributionGraph::merge_record`] on the union graph. Returns
    /// whether the authoritative (tail-owner) weight changed.
    pub fn merge_record(&mut self, from: PeerId, to: PeerId, total: Bytes) -> bool {
        if from == to || total.is_zero() {
            return false;
        }
        let tail_shard = self.shard_of(from);
        let mut changed = false;
        self.route(from, to, |s, g| {
            let c = g.merge_record(from, to, total);
            if s == tail_shard {
                changed = c;
            }
        });
        changed
    }

    /// Merge one gossiped BarterCast message, mirroring
    /// [`BarterCastMessage::apply`] on the union graph. Returns the
    /// number of authoritative edges changed.
    pub fn absorb_message(&mut self, msg: &BarterCastMessage) -> usize {
        let mut changed = 0;
        for r in &msg.records {
            if r.peer == msg.sender {
                continue; // malformed self-record, ignore
            }
            if self.merge_record(msg.sender, r.peer, r.up) {
                changed += 1;
            }
            if self.merge_record(r.peer, msg.sender, r.down) {
                changed += 1;
            }
        }
        changed
    }

    /// Re-absorb a peer's private history (max-merge both directions),
    /// mirroring [`ReputationEngine::absorb_private`].
    pub fn absorb_private(&mut self, history: &PrivateHistory) {
        let me = history.owner();
        for (peer, totals) in history.iter() {
            self.merge_record(me, peer, totals.up);
            self.merge_record(peer, me, totals.down);
        }
    }

    /// `R_i(j)` for every `j` in `targets`: one sweep reading `i` and
    /// each of its neighbours at that node's owner shard.
    /// Bit-identical to the monolithic engine on the union graph.
    pub fn reputations_from(&mut self, i: PeerId, targets: &[PeerId]) -> Vec<f64> {
        let (shards, partitioner) = (&self.shards, &*self.partitioner);
        owner_reputations(
            |p| shards[partitioner.shard_of(p, shards.len())].engine.graph(),
            i,
            self.method,
            self.metric,
            targets,
            &mut self.sweep,
        )
    }

    /// Freeze every shard's graph, together, for a set of views.
    fn freeze_all(&mut self) -> Arc<[Arc<ContributionGraph>]> {
        self.shards.iter_mut().map(|s| s.engine.freeze()).collect()
    }

    /// Epoch `s` over `graphs`, counted as one more publication of `s`.
    fn view(&mut self, s: usize, graphs: Arc<[Arc<ContributionGraph>]>) -> Arc<EpochView> {
        let shard = &mut self.shards[s];
        shard.epochs_published += 1;
        EpochView::new(
            s,
            shard.epochs_published,
            self.method,
            self.metric,
            graphs,
            Arc::clone(&self.partitioner),
        )
    }

    /// Freeze the service into a fresh epoch of shard `s` and return
    /// it. O(1) per shard: the view shares every shard's graph with
    /// that shard's live engine, which copies it only if it writes
    /// while the view (or an earlier one of the same graph) is alive.
    pub fn publish_epoch(&mut self, s: usize) -> Arc<EpochView> {
        let graphs = self.freeze_all();
        self.view(s, graphs)
    }

    /// Publish a fresh epoch for every shard, in shard order, all over
    /// one frozen cut.
    pub fn publish_all(&mut self) -> Vec<Arc<EpochView>> {
        let graphs = self.freeze_all();
        (0..self.shards.len())
            .map(|s| self.view(s, Arc::clone(&graphs)))
            .collect()
    }

    /// Every authoritative edge `(from, to, weight)` exactly once:
    /// shard by shard, each shard contributing the edges whose tail it
    /// owns, in that shard's deterministic insertion order.
    pub fn authoritative_edges(&self) -> Vec<(PeerId, PeerId, Bytes)> {
        let mut out = Vec::new();
        for (s, shard) in self.shards.iter().enumerate() {
            for (f, t, w) in shard.engine.graph().edges() {
                if self.shard_of(f) == s {
                    out.push((f, t, w));
                }
            }
        }
        out
    }

    /// The authoritative edge count and the locality (the fraction of
    /// those edges whose endpoints share an owner shard, `1.0` on an
    /// empty service) in one allocation-free pass: each union-graph
    /// edge is counted once, on its tail's owner shard.
    fn edge_census(&self) -> (usize, f64) {
        let (mut authoritative, mut local) = (0usize, 0usize);
        for (s, shard) in self.shards.iter().enumerate() {
            for (f, t, _) in shard.engine.graph().edges() {
                if self.shard_of(f) == s {
                    authoritative += 1;
                    local += usize::from(self.shard_of(t) == s);
                }
            }
        }
        if authoritative == 0 {
            return (0, 1.0);
        }
        (authoritative, local as f64 / authoritative as f64)
    }

    /// Authoritative edge count (each union-graph edge counted once).
    pub fn authoritative_edge_count(&self) -> usize {
        self.edge_census().0
    }

    /// Rebuild the service with a new shard count and partitioner,
    /// re-ingesting every authoritative edge. Reputations are
    /// preserved bit-for-bit (weights are re-merged exactly).
    pub fn repartition(&mut self, shards: usize, partitioner: Arc<dyn Partitioner>) {
        let edges = self.authoritative_edges();
        let mut fresh = ShardedEngine::new(shards)
            .with_method(self.method)
            .with_metric(self.metric);
        fresh.partitioner = partitioner;
        for (f, t, w) in edges {
            fresh.merge_record(f, t, w);
        }
        *self = fresh;
    }

    /// Fraction of authoritative edges with co-owned endpoints
    /// (shard-local edges). `1.0` on an empty service.
    pub fn locality(&self) -> f64 {
        self.edge_census().1
    }

    /// Aggregate storage / locality / epoch diagnostics.
    pub fn stats(&self) -> ShardStats {
        let (authoritative_edges, locality) = self.edge_census();
        let shards = &self.shards;
        ShardStats {
            shards: shards.len(),
            authoritative_edges,
            replica_edges: shards.iter().map(|s| s.engine.graph().edge_count()).sum(),
            locality,
            epochs_published: shards.iter().map(|s| s.epochs_published).sum(),
            graph_copies: shards.iter().map(|s| s.engine.graph_copies()).sum(),
        }
    }

    /// Write an edge mutation of `(from, to)` to the tail's owner
    /// shard and, when it is another shard, to the head's: the two
    /// shards whose peers' sweeps read the edge.
    fn route(
        &mut self,
        from: PeerId,
        to: PeerId,
        mut apply: impl FnMut(usize, &mut ContributionGraph),
    ) {
        let tail_shard = self.shard_of(from);
        let head_shard = self.shard_of(to);
        apply(tail_shard, self.shards[tail_shard].engine.graph_mut());
        if head_shard != tail_shard {
            apply(head_shard, self.shards[head_shard].engine.graph_mut());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(i: u32) -> PeerId {
        PeerId(i)
    }

    fn monolith() -> ReputationEngine {
        ReputationEngine::new()
    }

    /// A small deterministic edge batch crossing every pair of shards
    /// at 4 shards under the hash partitioner.
    fn batch() -> Vec<(u32, u32, u64)> {
        let mut out = Vec::new();
        let mut x = 0x9e3779b97f4a7c15u64;
        for i in 0..40u32 {
            for j in 0..3u32 {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let f = i % 24;
                let t = (i + 1 + (x >> 33) as u32 % 7) % 24;
                out.push((f, t, 1 + (x >> 17) % 5000 + j as u64));
            }
        }
        out
    }

    #[test]
    fn sharded_matches_monolith_on_mixed_batch() {
        for shards in [1usize, 2, 4, 8] {
            let mut mono = monolith();
            let mut svc = ShardedEngine::new(shards);
            for (i, &(f, t, w)) in batch().iter().enumerate() {
                if i % 3 == 0 {
                    mono.graph_mut().add_transfer(p(f), p(t), Bytes(w));
                    svc.add_transfer(p(f), p(t), Bytes(w));
                } else {
                    mono.graph_mut().merge_record(p(f), p(t), Bytes(w));
                    svc.merge_record(p(f), p(t), Bytes(w));
                }
            }
            let targets: Vec<PeerId> = (0..24).map(p).collect();
            for i in 0..24 {
                let a = mono.reputations_from(p(i), &targets);
                let b = svc.reputations_from(p(i), &targets);
                assert_eq!(
                    a.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    b.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    "shards={shards} evaluator={i}"
                );
            }
        }
    }

    #[test]
    fn each_shard_stores_exactly_the_edges_touching_its_peers() {
        for shards in [1usize, 2, 4, 8] {
            let mut mono = monolith();
            let mut svc = ShardedEngine::new(shards);
            for (i, &(f, t, w)) in batch().iter().enumerate() {
                if i % 3 == 0 {
                    mono.graph_mut().add_transfer(p(f), p(t), Bytes(w));
                    svc.add_transfer(p(f), p(t), Bytes(w));
                } else {
                    mono.graph_mut().merge_record(p(f), p(t), Bytes(w));
                    svc.merge_record(p(f), p(t), Bytes(w));
                }
            }
            let union: Vec<_> = mono.graph().edges().collect();
            for s in 0..shards {
                let touches = |f: PeerId, t: PeerId| svc.shard_of(f) == s || svc.shard_of(t) == s;
                let mut expect: Vec<_> = union.iter().filter(|e| touches(e.0, e.1)).collect();
                let mut stored: Vec<_> = svc.shard_engine(s).graph().edges().collect();
                expect.sort();
                stored.sort();
                assert_eq!(
                    stored.iter().collect::<Vec<_>>(),
                    expect,
                    "shards={shards} shard {s}"
                );
            }
            let cross = union
                .iter()
                .filter(|&&(f, t, _)| svc.shard_of(f) != svc.shard_of(t))
                .count();
            let stats = svc.stats();
            assert_eq!(
                stats.replica_edges,
                stats.authoritative_edges + cross,
                "shards={shards}"
            );
        }
    }

    #[test]
    fn authoritative_edges_are_duplicate_free_and_complete() {
        let mut mono = monolith();
        let mut svc = ShardedEngine::new(8);
        for &(f, t, w) in &batch() {
            mono.graph_mut().add_transfer(p(f), p(t), Bytes(w));
            svc.add_transfer(p(f), p(t), Bytes(w));
        }
        let mut ours: Vec<_> = svc.authoritative_edges();
        let mut truth: Vec<_> = mono.graph().edges().collect();
        ours.sort();
        truth.sort();
        assert_eq!(ours, truth);
        assert_eq!(svc.authoritative_edge_count(), mono.graph().edge_count());
    }

    #[test]
    fn repartition_preserves_reputations_bitwise() {
        let mut svc = ShardedEngine::new(4);
        for &(f, t, w) in &batch() {
            svc.add_transfer(p(f), p(t), Bytes(w));
        }
        let targets: Vec<PeerId> = (0..24).map(p).collect();
        let before: Vec<Vec<u64>> = (0..24)
            .map(|i| {
                svc.reputations_from(p(i), &targets)
                    .iter()
                    .map(|v| v.to_bits())
                    .collect()
            })
            .collect();
        svc.repartition(7, Arc::new(HashPartitioner));
        for i in 0..24 {
            let after: Vec<u64> = svc
                .reputations_from(p(i), &targets)
                .iter()
                .map(|v| v.to_bits())
                .collect();
            assert_eq!(before[i as usize], after, "evaluator {i}");
        }
        assert_eq!(svc.shard_count(), 7);
    }

    #[test]
    fn epochs_freeze_and_survive_writes() {
        let mut svc = ShardedEngine::new(2);
        svc.add_transfer(p(1), p(0), Bytes::from_mb(100));
        let views = svc.publish_all();
        assert_eq!(views.len(), 2);
        let s = svc.shard_of(p(0));
        let before = views[s].reputations_from(p(0), &[p(1)]);
        svc.add_transfer(p(1), p(0), Bytes::from_gb(10));
        assert_eq!(views[s].reputations_from(p(0), &[p(1)]), before);
        assert!(svc.reputations_from(p(0), &[p(1)])[0] > before[0]);
        assert_eq!(views[s].epoch(), 1);
        assert_eq!(svc.publish_epoch(s).epoch(), 2);
    }

    /// One edge on an 8-shard service: a write to it reaches the two
    /// endpoints' owner shards at most.
    fn one_edge_service() -> ShardedEngine {
        let mut svc = ShardedEngine::new(8);
        svc.add_transfer(p(1), p(0), Bytes::from_mb(100));
        svc
    }

    fn shares_live_graph(svc: &ShardedEngine, view: &EpochView) -> bool {
        std::ptr::eq(view.graph(), svc.shard_engine(view.shard()).graph())
    }

    #[test]
    fn a_view_is_a_reference_to_the_live_graph() {
        let mut svc = one_edge_service();
        let first = svc.publish_all();
        let second = svc.publish_all();
        for (a, b) in first.iter().zip(&second) {
            assert!(shares_live_graph(&svc, a), "shard {}", a.shard());
            assert!(std::ptr::eq(a.graph(), b.graph()), "shard {}", a.shard());
            assert_eq!((a.epoch(), b.epoch()), (1, 2));
        }
        assert_eq!(svc.stats().graph_copies, 0);
    }

    #[test]
    fn a_write_a_view_outlives_copies_the_written_shards_only() {
        let mut svc = one_edge_service();
        let views = svc.publish_all();
        let owner = svc.shard_of(p(0));
        let before = views[owner].reputations_from(p(0), &[p(1)]);
        svc.add_transfer(p(1), p(0), Bytes::from_gb(10));
        let written =
            |view: &EpochView| svc.shard_engine(view.shard()).graph().version() != view.version();
        let delivered = views.iter().filter(|v| written(v)).count();
        assert!((1..=2).contains(&delivered), "delivered to {delivered}");
        assert_eq!(svc.stats().graph_copies, delivered as u64);
        for view in &views {
            assert_eq!(shares_live_graph(&svc, view), !written(view));
        }
        // a second write finds the written shards owned again
        svc.add_transfer(p(1), p(0), Bytes::from_gb(10));
        assert_eq!(svc.stats().graph_copies, delivered as u64);
        assert_eq!(views[owner].reputations_from(p(0), &[p(1)]), before);
        assert!(svc.reputations_from(p(0), &[p(1)])[0] > before[0]);
    }

    #[test]
    fn queries_on_frozen_shards_never_write_the_shared_graph() {
        // query every shard, write, publish: each shard's next query
        // runs while its graph is frozen
        let mut svc = ShardedEngine::new(4);
        let edges = batch();
        let (first, rest) = edges.split_at(60);
        for &(f, t, w) in first {
            svc.add_transfer(p(f), p(t), Bytes(w));
        }
        let targets: Vec<PeerId> = (0..24).map(p).collect();
        for i in 0..24 {
            svc.reputations_from(p(i), &targets);
        }
        for &(f, t, w) in rest {
            svc.add_transfer(p(f), p(t), Bytes(w));
        }
        let views = svc.publish_all();
        for view in &views {
            let owned = |i: &PeerId| svc.shard_of(*i) == view.shard();
            let evaluator = (0..24).map(p).find(owned).expect("every shard owns a peer");
            let live = svc.reputations_from(evaluator, &targets);
            assert_eq!(live, view.reputations_from(evaluator, &targets));
        }
        for view in &views {
            assert!(shares_live_graph(&svc, view), "shard {}", view.shard());
        }
        assert_eq!(svc.stats().graph_copies, 0);
    }

    #[test]
    fn a_write_after_the_views_are_dropped_copies_nothing() {
        let mut svc = one_edge_service();
        let views = svc.publish_all();
        let before = views[svc.shard_of(p(0))].reputations_from(p(0), &[p(1)]);
        drop(views);
        svc.add_transfer(p(1), p(0), Bytes::from_gb(10));
        assert_eq!(svc.stats().graph_copies, 0);
        assert!(svc.reputations_from(p(0), &[p(1)])[0] > before[0]);
    }

    #[test]
    fn message_and_private_absorption_match_monolith() {
        use crate::history::PrivateHistory;
        use crate::message::TransferRecord;
        let mut mono = monolith();
        let mut svc = ShardedEngine::new(4);
        let msg = BarterCastMessage {
            sender: p(3),
            records: vec![
                TransferRecord {
                    peer: p(5),
                    up: Bytes::from_mb(80),
                    down: Bytes::from_mb(20),
                },
                TransferRecord {
                    peer: p(3), // malformed self-record, must be skipped
                    up: Bytes::from_mb(999),
                    down: Bytes::ZERO,
                },
            ],
        };
        assert_eq!(svc.absorb_message(&msg), mono.absorb_message(&msg));
        let mut hist = PrivateHistory::new(p(7));
        hist.record_upload(p(2), Bytes::from_mb(40), Default::default());
        hist.record_download(p(5), Bytes::from_mb(15), Default::default());
        mono.absorb_private(&hist);
        svc.absorb_private(&hist);
        let targets: Vec<PeerId> = (0..8).map(p).collect();
        for i in 0..8 {
            assert_eq!(
                mono.reputations_from(p(i), &targets),
                svc.reputations_from(p(i), &targets),
                "evaluator {i}"
            );
        }
    }

    #[test]
    fn stats_report_replication_and_locality() {
        let mut svc = ShardedEngine::new(4);
        for &(f, t, w) in &batch() {
            svc.add_transfer(p(f), p(t), Bytes(w));
        }
        let stats = svc.stats();
        assert_eq!(stats.shards, 4);
        assert!(stats.replica_edges >= stats.authoritative_edges);
        assert!(stats.locality >= 0.0 && stats.locality <= 1.0);
        let single = ShardedEngine::new(1).stats();
        assert_eq!(single.locality, 1.0);
    }

    #[test]
    #[should_panic(expected = "Bounded(k <= 2)")]
    fn deep_bounds_are_rejected() {
        let _ = ShardedEngine::new(2).with_method(Method::Bounded(3));
    }

    #[test]
    #[should_panic(expected = "shard count")]
    fn zero_shards_rejected() {
        let _ = ShardedEngine::new(0);
    }
}

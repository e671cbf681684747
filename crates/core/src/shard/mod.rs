//! Sharded reputation service: `ContributionGraph` ownership
//! partitioned across N shards, each with its own engine (arena-backed
//! subgraph, memo cache), queryable shard-parallel
//! through epoch-consistent snapshots.
//!
//! ## Ownership and replication
//!
//! A [`Partitioner`] assigns every peer to exactly one **owner shard**
//! ([`partition`]). A shard's [`ReputationEngine`] holds a replica
//! graph containing (a) all edges incident to its owned peers and
//! (b) the boundary closure those peers' bounded sweeps read: with
//! the service restricted to `Method::Bounded(k ≤ 2)`, evaluator
//! `i`'s sweep touches only `in(i)`, `out(i)`, `in(m)` for
//! in-neighbours `m`, and `out(m)` for out-neighbours `m`
//! (`graph::ssat`). The [`BoundaryIndex`] tracks which shards need
//! which nodes' adjacency replicated ([`boundary`]) and every edge
//! mutation is delivered to exactly the subscribed shards, with the
//! **tail's owner authoritative** for the edge weight.
//!
//! ## Bit-identity
//!
//! Because a shard's replica contains the evaluator's full two-hop
//! ego subgraph, and the bounded-flow closed form is an
//! order-independent sum of `u64` minima, every sharded
//! `reputations_from` is **bitwise equal** to the monolithic engine
//! on the union graph — at any shard count, under any mutation
//! interleaving. `tests/shard_differential.rs` pins this.
//!
//! ## Epochs
//!
//! [`ShardedEngine::publish_all`] freezes each shard's replica into an
//! immutable [`EpochView`] ([`epoch`]); readers on other threads
//! evaluate against the views lock-free while owners keep writing.
//! An epoch is a reference, not a copy: the view and the live engine
//! share one graph behind an `Arc`, publishing is O(1), and a shard's
//! first write after a publication copies that shard's graph only if
//! a view of it is still alive ([`ShardStats::graph_copies`] counts
//! those; a service that drops its views before it writes again pays
//! none). The service keeps no view itself, for a reference held here
//! would make every post-publish write copy. The shard-aware sweep
//! scheduler in `sim::sweep` drains each shard's evaluators on that
//! shard's live engine and steals tail work across shards through the
//! epochs.

pub mod boundary;
pub mod epoch;
pub mod partition;

use std::sync::Arc;

use crate::message::BarterCastMessage;
use crate::metric::ReputationMetric;
use crate::repcache::ReputationEngine;
use crate::PrivateHistory;
use bartercast_graph::{ContributionGraph, Method};
use bartercast_util::units::{Bytes, PeerId};

pub use boundary::{shards_in_mask, BoundaryIndex, MAX_SHARDS};
pub use epoch::EpochView;
pub use partition::{CommunityPartitioner, HashPartitioner, Partitioner};

/// One shard: a live engine plus its publication counter.
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
    /// Total edges stored across all shard replicas (≥ authoritative;
    /// the ratio is the replication factor).
    pub replica_edges: usize,
    /// Fraction of authoritative edges whose endpoints share an owner
    /// shard.
    pub locality: f64,
    /// Boundary-subscription backfills performed so far.
    pub backfills: u64,
    /// Total epochs published across all shards.
    pub epochs_published: u64,
    /// Writes that had to copy a shard's graph because an epoch view
    /// of it was still alive, summed over shards. Zero when readers
    /// drop their views before the next write reaches the shard.
    pub graph_copies: u64,
}

/// A reputation service whose contribution graph is partitioned across
/// shards, answering Equation-1 queries bit-identically to a single
/// monolithic [`ReputationEngine`] holding the union graph.
///
/// Restricted to `Method::Bounded(k ≤ 2)` — the deployed BarterCast
/// configuration — whose two-hop locality is what makes owner-shard
/// replicas sufficient (see the module docs).
#[derive(Debug)]
pub struct ShardedEngine {
    shards: Vec<Shard>,
    partitioner: Arc<dyn Partitioner>,
    boundary: BoundaryIndex,
    method: Method,
    metric: ReputationMetric,
}

impl ShardedEngine {
    /// A service with `shards` hash-partitioned shards and the
    /// deployed configuration. Panics unless `1 ≤ shards ≤ 64`.
    pub fn new(shards: usize) -> Self {
        assert!(
            (1..=MAX_SHARDS).contains(&shards),
            "shard count {shards} outside 1..={MAX_SHARDS}"
        );
        ShardedEngine {
            shards: (0..shards)
                .map(|_| Shard {
                    engine: ReputationEngine::new(),
                    epochs_published: 0,
                })
                .collect(),
            partitioner: Arc::new(HashPartitioner),
            boundary: BoundaryIndex::new(),
            method: Method::DEPLOYED,
            metric: ReputationMetric::default(),
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
    /// read beyond the replicated two-hop closure.
    pub fn with_method(mut self, method: Method) -> Self {
        assert!(
            matches!(method, Method::Bounded(k) if k <= 2),
            "sharded service requires Bounded(k <= 2), got {method:?}"
        );
        self.method = method;
        for shard in &mut self.shards {
            let engine = std::mem::take(&mut shard.engine);
            shard.engine = engine.with_method(method);
        }
        self
    }

    /// Override the reputation metric on every shard.
    pub fn with_metric(mut self, metric: ReputationMetric) -> Self {
        self.metric = metric;
        for shard in &mut self.shards {
            let engine = std::mem::take(&mut shard.engine);
            shard.engine = engine.with_metric(metric);
        }
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

    /// Read-only access to shard `s`'s live engine.
    pub fn shard_engine(&self, s: usize) -> &ReputationEngine {
        &self.shards[s].engine
    }

    /// Mutable references to every shard's live engine, in shard
    /// order — the handle the shard-aware sweep scheduler distributes
    /// across worker threads.
    pub fn shard_engines_mut(&mut self) -> Vec<&mut ReputationEngine> {
        self.shards.iter_mut().map(|s| &mut s.engine).collect()
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

    /// Subjective reputation `R_i(j)`, answered by `i`'s owner shard.
    /// Bit-identical to the monolithic engine on the union graph.
    pub fn reputation(&mut self, i: PeerId, j: PeerId) -> f64 {
        let s = self.shard_of(i);
        self.shards[s].engine.reputation(i, j)
    }

    /// `R_i(j)` for every `j` in `targets`, answered by `i`'s owner
    /// shard. Bit-identical to the monolithic engine.
    pub fn reputations_from(&mut self, i: PeerId, targets: &[PeerId]) -> Vec<f64> {
        let s = self.shard_of(i);
        self.shards[s].engine.reputations_from(i, targets)
    }

    /// Freeze shard `s`'s current replica into a fresh epoch and
    /// return it. O(1): the view shares the replica with the live
    /// engine, which copies it only if it writes while the view (or an
    /// earlier one of the same graph) is alive.
    pub fn publish_epoch(&mut self, s: usize) -> Arc<EpochView> {
        let shard = &mut self.shards[s];
        shard.epochs_published += 1;
        EpochView::new(
            s,
            shard.epochs_published,
            self.method,
            self.metric,
            shard.engine.freeze(),
        )
    }

    /// Publish a fresh epoch for every shard, in shard order.
    pub fn publish_all(&mut self) -> Vec<Arc<EpochView>> {
        (0..self.shards.len())
            .map(|s| self.publish_epoch(s))
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

    /// Aggregate replication / locality / epoch diagnostics.
    pub fn stats(&self) -> ShardStats {
        let (authoritative_edges, locality) = self.edge_census();
        let shards = &self.shards;
        ShardStats {
            shards: shards.len(),
            authoritative_edges,
            replica_edges: shards.iter().map(|s| s.engine.graph().edge_count()).sum(),
            locality,
            backfills: self.boundary.backfills(),
            epochs_published: shards.iter().map(|s| s.epochs_published).sum(),
            graph_copies: shards.iter().map(|s| s.engine.graph_copies()).sum(),
        }
    }

    /// Deliver an edge mutation of `(from, to)` to every subscribed
    /// shard, then extend subscriptions for the middle-node closure the
    /// new adjacency creates (backfilling fresh subscribers from the
    /// authoritative replicas).
    fn route(
        &mut self,
        from: PeerId,
        to: PeerId,
        mut apply: impl FnMut(usize, &mut ContributionGraph),
    ) {
        let tail_shard = self.shard_of(from);
        let head_shard = self.shard_of(to);
        let mask = self
            .boundary
            .delivery_mask(from, to, tail_shard, head_shard);
        for s in shards_in_mask(mask) {
            apply(s, self.shards[s].engine.graph_mut());
        }
        // `to` is now an out-neighbour of `from`: from's owner sweeps
        // read out(to). `from` is an in-neighbour of `to`: to's owner
        // sweeps read in(from). Same-shard cases are trivially covered
        // by ownership, so only cross-shard adjacency subscribes.
        if tail_shard != head_shard {
            if self.boundary.subscribe_out(to, tail_shard) {
                self.backfill_out(to, head_shard, tail_shard);
            }
            if self.boundary.subscribe_in(from, head_shard) {
                self.backfill_in(from, tail_shard, head_shard);
            }
        }
    }

    /// Copy all out-edges of `node` from the authoritative replica on
    /// `src` into `dst` (max-merge: idempotent, no-op on agreement).
    fn backfill_out(&mut self, node: PeerId, src: usize, dst: usize) {
        let edges: Vec<(PeerId, Bytes)> = self.shards[src].engine.graph().out_edges(node).collect();
        let dst_graph = self.shards[dst].engine.graph_mut();
        for (t, w) in edges {
            dst_graph.merge_record(node, t, w);
        }
    }

    /// Copy all in-edges of `node` from the authoritative replica on
    /// `src` into `dst`.
    fn backfill_in(&mut self, node: PeerId, src: usize, dst: usize) {
        let edges: Vec<(PeerId, Bytes)> = self.shards[src].engine.graph().in_edges(node).collect();
        let dst_graph = self.shards[dst].engine.graph_mut();
        for (f, w) in edges {
            dst_graph.merge_record(f, node, w);
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
    fn replicas_agree_with_owner_on_every_masked_edge() {
        let mut svc = ShardedEngine::new(4);
        for &(f, t, w) in &batch() {
            svc.add_transfer(p(f), p(t), Bytes(w));
        }
        for (f, t, w) in svc.authoritative_edges() {
            for s in 0..4 {
                let replica = svc.shard_engine(s).graph().edge(f, t);
                assert!(
                    replica == Bytes::ZERO || replica == w,
                    "shard {s} stores {f}->{t} at {replica:?}, owner says {w:?}"
                );
            }
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
        let before = views[s].reputation(p(0), p(1));
        svc.add_transfer(p(1), p(0), Bytes::from_gb(10));
        assert_eq!(views[s].reputation(p(0), p(1)).to_bits(), before.to_bits());
        assert!(svc.reputation(p(0), p(1)) > before);
        assert_eq!(views[s].epoch(), 1);
        assert_eq!(svc.publish_epoch(s).epoch(), 2);
    }

    /// One edge on an 8-shard service: a write to it is delivered to
    /// the two endpoints' owner shards at most.
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
        let before = views[owner].reputation(p(0), p(1));
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
        assert_eq!(
            views[owner].reputation(p(0), p(1)).to_bits(),
            before.to_bits()
        );
        assert!(svc.reputation(p(0), p(1)) > before);
    }

    #[test]
    fn queries_on_frozen_shards_never_write_the_shared_graph() {
        // warm every shard's memo, write, publish: each shard's next
        // query synchronizes (evicting changed endpoints) while frozen
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
        let invalidated_before: u64 = (0..4)
            .map(|s| svc.shard_engine(s).stats().invalidated)
            .sum();
        for s in 0..4 {
            let evaluator = (0..24).map(p).find(|&i| svc.shard_of(i) == s).unwrap();
            svc.reputations_from(evaluator, &targets);
        }
        let invalidated: u64 = (0..4)
            .map(|s| svc.shard_engine(s).stats().invalidated)
            .sum();
        assert!(invalidated > invalidated_before, "the frozen syncs evicted");
        for view in &views {
            assert!(shares_live_graph(&svc, view), "shard {}", view.shard());
        }
        assert_eq!(svc.stats().graph_copies, 0);
    }

    #[test]
    fn a_write_after_the_views_are_dropped_copies_nothing() {
        let mut svc = one_edge_service();
        let views = svc.publish_all();
        let before = views[svc.shard_of(p(0))].reputation(p(0), p(1));
        drop(views);
        svc.add_transfer(p(1), p(0), Bytes::from_gb(10));
        assert_eq!(svc.stats().graph_copies, 0);
        assert!(svc.reputation(p(0), p(1)) > before);
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

//! Sharded reputation service: `ContributionGraph` ownership
//! partitioned across N shards, each storing the edges of the peers it
//! owns in an arena-backed subgraph, queryable shard-parallel through
//! epoch-consistent snapshots.
//!
//! The module is a leaf: nothing else in the crate knows about it.
//! `sim::scale::run_shard_scale` and the shard-parallel sweep in
//! `sim::sweep` drive it, and the `shard_1m` benchmark workload drives
//! both.
//!
//! ## Ownership without replication
//!
//! A [`Partitioner`] assigns every peer to exactly one **owner shard**
//! ([`partition`]). Shard `s` stores exactly the edges with an
//! endpoint it owns: a transfer `(f, t)` is written to `owner(f)` and,
//! when it differs, to `owner(t)`, so a shard-local edge is stored
//! once and a cross-shard edge twice, at the same weight. The **tail's
//! owner is authoritative**: it counts the edge in
//! [`ShardStats::authoritative_edges`].
//!
//! The service evaluates with the deployed bound,
//! `Method::Bounded(2)`, whose sweep from evaluator `i` reads only
//! `in(i)`, `out(i)`, `in(m)` for in-neighbours `m` and `out(m)` for
//! out-neighbours `m` (`graph::ssat`). Each of those is one node's
//! adjacency, and a node's owner holds all of it, so every query runs
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
//! once, into one [`EpochView`] ([`epoch`]) that holds the whole set
//! plus the partitioner: a consistent cut of the service that answers
//! any evaluator. Readers on other threads evaluate against it
//! lock-free while the owner keeps writing. A view is a reference, not
//! a copy: a shard's graph sits in a two-state slot, **owned** (written
//! in place) or **frozen** (an `Arc` shared with the views), and
//! publishing moves each owned graph into its `Arc`, O(1) per shard. A
//! write reaches its edge's one or two owner shards and thaws only
//! those: by move when no view is alive, by one copy of that shard's
//! graph when one is ([`ShardStats::graph_copies`] counts those). The
//! service keeps no view itself, for a reference held here would make
//! every post-publish write copy.

pub mod epoch;
pub mod partition;

use std::sync::Arc;

use crate::metric::ReputationMetric;
use crate::repcache::swept_reputations;
use bartercast_graph::{ssat, ContributionGraph, FlowPair, Method, DEPLOYED_MAX_PATH_LEN};
use bartercast_util::units::{Bytes, PeerId};
use bartercast_util::FxHashMap;

pub use epoch::EpochView;
pub use partition::{HashPartitioner, Partitioner};

/// A shard's graph: writable in place, or shared with published epoch
/// views until the shard's next write.
// the owned variant stays inline: it is the state a shard writes in,
// and a `Box` would put a pointer hop on each of its reads
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
enum Slot {
    Owned(ContributionGraph),
    Frozen(Arc<ContributionGraph>),
}

/// One shard: the graph of the edges touching a peer it owns, plus
/// the count of writes that had to copy it.
#[derive(Debug)]
struct Shard {
    slot: Slot,
    /// Thaws that copied the graph because a view still held it.
    copies: u64,
}

impl Shard {
    fn new() -> Self {
        Shard {
            slot: Slot::Owned(ContributionGraph::new()),
            copies: 0,
        }
    }

    fn graph(&self) -> &ContributionGraph {
        match &self.slot {
            Slot::Owned(graph) => graph,
            Slot::Frozen(shared) => shared,
        }
    }

    /// The graph for writing. The first call after a freeze thaws the
    /// slot.
    fn graph_mut(&mut self) -> &mut ContributionGraph {
        if let Slot::Frozen(_) = self.slot {
            self.thaw();
        }
        match &mut self.slot {
            Slot::Owned(graph) => graph,
            Slot::Frozen(_) => unreachable!("thaw leaves the slot owned"),
        }
    }

    /// Share the graph with a view: the slot turns frozen (a move of
    /// the struct header into the `Arc`, no edge is copied) and stays
    /// so until the next [`Shard::graph_mut`].
    fn freeze(&mut self) -> Arc<ContributionGraph> {
        let shared = match self.take() {
            Slot::Owned(graph) => Arc::new(graph),
            Slot::Frozen(shared) => shared,
        };
        self.slot = Slot::Frozen(Arc::clone(&shared));
        shared
    }

    /// Take the graph back for writing: a move when the shard holds the
    /// only reference, otherwise the one copy a write pays for a view
    /// that outlives it. Out of line so the owned-state write path
    /// stays one predictable branch.
    #[cold]
    #[inline(never)]
    fn thaw(&mut self) {
        let graph = match self.take() {
            Slot::Owned(graph) => graph,
            Slot::Frozen(shared) => Arc::try_unwrap(shared).unwrap_or_else(|shared| {
                self.copies += 1;
                ContributionGraph::clone(&shared)
            }),
        };
        self.slot = Slot::Owned(graph);
    }

    /// Move the slot out, leaving an empty owned graph (no allocation)
    /// for the caller to overwrite.
    fn take(&mut self) -> Slot {
        std::mem::replace(&mut self.slot, Slot::Owned(ContributionGraph::new()))
    }
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
    /// shard, `1.0` on an empty service.
    pub locality: f64,
    /// Writes that had to copy a shard's graph because an epoch view
    /// of it was still alive, summed over shards. Zero when readers
    /// drop their views before the next write reaches the shard.
    pub graph_copies: u64,
}

/// `R_i(j)` for every `j` in `targets`, in order, from one deployed
/// two-hop sweep of evaluator `i` into `flows` that reads every node's
/// adjacency from `at_owner(node)`, the graph of the node's owner
/// shard: the one evaluation behind the live service and its epoch
/// views.
fn owner_reputations<'g>(
    at_owner: impl Fn(PeerId) -> &'g ContributionGraph,
    i: PeerId,
    targets: &[PeerId],
    flows: &mut FxHashMap<PeerId, FlowPair>,
) -> Vec<f64> {
    ssat::sweep_adjacency(
        i,
        DEPLOYED_MAX_PATH_LEN,
        |p| at_owner(p).in_edges(p),
        |p| at_owner(p).out_edges(p),
        flows,
    );
    let flows = |j| flows.get(&j).copied().unwrap_or_default();
    swept_reputations(flows, i, ReputationMetric::default(), targets)
}

/// A reputation service whose contribution graph is partitioned across
/// shards, answering Equation-1 queries bit-identically to a single
/// monolithic `ReputationEngine` holding the union graph.
///
/// It evaluates with the deployed configuration only — two-hop
/// bounded maxflow, default metric — whose two-hop locality is what
/// makes reading each node at its owner shard sufficient (see the
/// module docs).
#[derive(Debug)]
pub struct ShardedEngine {
    shards: Vec<Shard>,
    partitioner: Arc<dyn Partitioner>,
    /// The live queries' sweep, reused call to call.
    sweep: FxHashMap<PeerId, FlowPair>,
}

impl ShardedEngine {
    /// A service with `shards` hash-partitioned shards. Panics if
    /// `shards` is 0.
    pub fn new(shards: usize) -> Self {
        assert!(shards >= 1, "shard count {shards} must be at least 1");
        ShardedEngine {
            shards: (0..shards).map(|_| Shard::new()).collect(),
            partitioner: Arc::new(HashPartitioner),
            sweep: FxHashMap::default(),
        }
    }

    /// Replace the peer→shard assignment. Panics unless every shard
    /// graph is still empty.
    pub fn with_partitioner(mut self, partitioner: Arc<dyn Partitioner>) -> Self {
        assert!(
            self.shards.iter().all(|s| s.graph().edge_count() == 0),
            "set the partitioner before ingesting edges"
        );
        self.partitioner = partitioner;
        self
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The bounded method the service evaluates with: always the
    /// deployed two-hop bound.
    pub fn method(&self) -> Method {
        Method::DEPLOYED
    }

    /// The owner shard of `peer` under the current partitioner.
    pub fn shard_of(&self, peer: PeerId) -> usize {
        self.partitioner.shard_of(peer, self.shards.len())
    }

    /// Record `amount` more bytes transferred `from → to` (delta), as
    /// [`ContributionGraph::add_transfer`] on the union graph: written
    /// to the tail's owner shard and, when it is another shard, to the
    /// head's, the two shards whose peers' sweeps read the edge.
    pub fn add_transfer(&mut self, from: PeerId, to: PeerId, amount: Bytes) {
        if from == to || amount.is_zero() {
            return;
        }
        let tail_shard = self.shard_of(from);
        let head_shard = self.shard_of(to);
        self.shards[tail_shard]
            .graph_mut()
            .add_transfer(from, to, amount);
        if head_shard != tail_shard {
            self.shards[head_shard]
                .graph_mut()
                .add_transfer(from, to, amount);
        }
    }

    /// `R_i(j)` for every `j` in `targets`: one sweep reading `i` and
    /// each of its neighbours at that node's owner shard.
    /// Bit-identical to the monolithic engine on the union graph.
    pub fn reputations_from(&mut self, i: PeerId, targets: &[PeerId]) -> Vec<f64> {
        let (shards, partitioner) = (&self.shards, &*self.partitioner);
        owner_reputations(
            |p| shards[partitioner.shard_of(p, shards.len())].graph(),
            i,
            targets,
            &mut self.sweep,
        )
    }

    /// Freeze every shard's graph, together, into one view of the
    /// whole service, returned once per shard in shard order so a
    /// caller may index the views by [`ShardedEngine::shard_of`].
    /// O(1) per shard: the view shares every shard's graph, which a
    /// shard copies only if it writes while the view (or an earlier
    /// one of the same graph) is alive.
    pub fn publish_all(&mut self) -> Vec<Arc<EpochView>> {
        let view = Arc::new(EpochView {
            graphs: self.shards.iter_mut().map(Shard::freeze).collect(),
            partitioner: Arc::clone(&self.partitioner),
        });
        vec![view; self.shards.len()]
    }

    /// Aggregate storage / locality / copy diagnostics, in one
    /// allocation-free pass that counts each union-graph edge once, on
    /// its tail's owner shard.
    pub fn stats(&self) -> ShardStats {
        let (mut authoritative, mut local) = (0usize, 0usize);
        for (s, shard) in self.shards.iter().enumerate() {
            for (f, t, _) in shard.graph().edges() {
                if self.shard_of(f) == s {
                    authoritative += 1;
                    local += usize::from(self.shard_of(t) == s);
                }
            }
        }
        let shards = &self.shards;
        ShardStats {
            shards: shards.len(),
            authoritative_edges: authoritative,
            replica_edges: shards.iter().map(|s| s.graph().edge_count()).sum(),
            locality: if authoritative == 0 {
                1.0
            } else {
                local as f64 / authoritative as f64
            },
            graph_copies: shards.iter().map(|s| s.copies).sum(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::repcache::ReputationEngine;

    fn p(i: u32) -> PeerId {
        PeerId(i)
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

    /// `batch()` written into a monolith and a `shards`-shard service.
    fn both(shards: usize) -> (ReputationEngine, ShardedEngine) {
        let mut mono = ReputationEngine::new();
        let mut svc = ShardedEngine::new(shards);
        for &(f, t, w) in &batch() {
            mono.graph_mut().add_transfer(p(f), p(t), Bytes(w));
            svc.add_transfer(p(f), p(t), Bytes(w));
        }
        (mono, svc)
    }

    #[test]
    fn sharded_matches_monolith_on_mixed_batch() {
        for shards in [1usize, 2, 4, 8] {
            let (mut mono, mut svc) = both(shards);
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
            let (mono, svc) = both(shards);
            let union: Vec<_> = mono.graph().edges().collect();
            for s in 0..shards {
                let touches = |f: PeerId, t: PeerId| svc.shard_of(f) == s || svc.shard_of(t) == s;
                let mut expect: Vec<_> = union.iter().filter(|e| touches(e.0, e.1)).collect();
                let mut stored: Vec<_> = svc.shards[s].graph().edges().collect();
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
        let (mono, svc) = both(8);
        // the edges each shard holds as its tail's owner, which the
        // census counts
        let mut ours: Vec<_> = (0..8)
            .flat_map(|s| {
                let svc = &svc;
                svc.shards[s]
                    .graph()
                    .edges()
                    .filter(move |&(f, _, _)| svc.shard_of(f) == s)
            })
            .collect();
        let mut truth: Vec<_> = mono.graph().edges().collect();
        ours.sort();
        truth.sort();
        assert_eq!(ours, truth);
        assert_eq!(svc.stats().authoritative_edges, mono.graph().edge_count());
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
    }

    /// One edge on an 8-shard service: a write to it reaches the two
    /// endpoints' owner shards at most.
    fn one_edge_service() -> ShardedEngine {
        let mut svc = ShardedEngine::new(8);
        svc.add_transfer(p(1), p(0), Bytes::from_mb(100));
        svc
    }

    /// Whether `view` still shares shard `s`'s live graph.
    fn shares_live_graph(svc: &ShardedEngine, view: &EpochView, s: usize) -> bool {
        std::ptr::eq(&*view.graphs[s], svc.shards[s].graph())
    }

    #[test]
    fn a_view_is_a_reference_to_the_live_graph() {
        let mut svc = one_edge_service();
        let first = svc.publish_all();
        let second = svc.publish_all();
        for s in 0..svc.shard_count() {
            assert!(shares_live_graph(&svc, &first[s], s), "shard {s}");
            assert!(
                Arc::ptr_eq(&first[s].graphs[s], &second[s].graphs[s]),
                "shard {s}"
            );
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
        let view = &views[0];
        let written = |s: usize| svc.shards[s].graph().version() != view.graphs[s].version();
        let delivered = (0..8).filter(|&s| written(s)).count();
        assert!((1..=2).contains(&delivered), "delivered to {delivered}");
        assert_eq!(svc.stats().graph_copies, delivered as u64);
        for s in 0..8 {
            assert_eq!(shares_live_graph(&svc, view, s), !written(s), "shard {s}");
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
        for (s, view) in views.iter().enumerate() {
            let owned = |i: &PeerId| svc.shard_of(*i) == s;
            let evaluator = (0..24).map(p).find(owned).expect("every shard owns a peer");
            let live = svc.reputations_from(evaluator, &targets);
            assert_eq!(live, view.reputations_from(evaluator, &targets));
        }
        for (s, view) in views.iter().enumerate() {
            assert!(shares_live_graph(&svc, view, s), "shard {s}");
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
    fn clones_of_a_frozen_shard_diverge_on_either_sides_write() {
        // 3 -> 2 -> 1 -> 0: three hops, out of the deployed reach until
        // a shortcut 3 -> 1 is written
        let chain = || {
            let mut shard = Shard::new();
            for i in (1..=3).rev() {
                shard
                    .graph_mut()
                    .add_transfer(p(i), p(i - 1), Bytes::from_gb(1));
            }
            let shared = shard.freeze();
            let clone = Shard {
                slot: Slot::Frozen(shared),
                copies: 0,
            };
            (shard, clone)
        };
        let reputation = |shard: &Shard| {
            owner_reputations(|_| shard.graph(), p(0), &[p(3)], &mut FxHashMap::default())[0]
        };
        for write_to_clone in [false, true] {
            let (mut original, mut cloned) = chain();
            assert!(std::ptr::eq(original.graph(), cloned.graph()));
            let (writer, other) = if write_to_clone {
                (&mut cloned, &mut original)
            } else {
                (&mut original, &mut cloned)
            };
            writer
                .graph_mut()
                .add_transfer(p(3), p(1), Bytes::from_gb(1));
            assert_eq!(writer.copies, 1);
            assert!(reputation(writer) > 0.0);
            assert_eq!(reputation(other), 0.0);
            assert_eq!(other.graph().edge(p(3), p(1)), Bytes::ZERO);
            // the other side now holds the only reference: its own
            // write moves the graph back without a copy
            other
                .graph_mut()
                .add_transfer(p(3), p(1), Bytes::from_mb(1));
            assert_eq!(other.copies, 0);
        }
    }

    #[test]
    fn stats_report_replication_and_locality() {
        let (_, svc) = both(4);
        let stats = svc.stats();
        assert_eq!(stats.shards, 4);
        assert!(stats.replica_edges >= stats.authoritative_edges);
        assert!(stats.locality >= 0.0 && stats.locality <= 1.0);
        let single = ShardedEngine::new(1).stats();
        assert_eq!(single.locality, 1.0);
    }

    #[test]
    #[should_panic(expected = "shard count")]
    fn zero_shards_rejected() {
        let _ = ShardedEngine::new(0);
    }
}

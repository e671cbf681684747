//! The contribution graph: aggregated byte transfers between peers.
//!
//! An edge `(i, j)` with weight `w` means "peer `i` has uploaded `w`
//! bytes to peer `j` in total" (§3.1). Edge weights only ever grow in
//! the real protocol, so merging a gossiped record about a pair takes
//! the **maximum** of the stored and received totals — a stale record
//! can never lower what we already know.
//!
//! Adjacency lives in two arena-backed CSR stores (the private `csr` module):
//! one forward (out-edges), one reverse (in-edges). Every flow kernel
//! that walks `out_edges`/`in_edges` — the SSAT closed form and
//! network construction — therefore scans contiguous slots instead of
//! chasing hash buckets; the hash map here only interns peer ids to
//! dense indices once per node.

use crate::csr::AdjArena;
use bartercast_util::units::{Bytes, PeerId};
use bartercast_util::{FxHashMap, FxHashSet};

/// A directed graph of aggregated byte transfers between peers.
///
/// Both out- and in-adjacency are maintained so that the maxflow
/// network construction and two-hop neighbourhood queries are O(degree)
/// rather than O(edges).
///
/// ```
/// use bartercast_graph::ContributionGraph;
/// use bartercast_util::units::{Bytes, PeerId};
///
/// let mut g = ContributionGraph::new();
/// g.add_transfer(PeerId(1), PeerId(2), Bytes::from_mb(100));
/// g.add_transfer(PeerId(1), PeerId(2), Bytes::from_mb(50));
/// assert_eq!(g.edge(PeerId(1), PeerId(2)), Bytes::from_mb(150));
///
/// // gossiped records merge with max semantics: stale totals are ignored
/// assert!(!g.merge_record(PeerId(1), PeerId(2), Bytes::from_mb(120)));
/// assert!(g.merge_record(PeerId(1), PeerId(2), Bytes::from_mb(200)));
/// ```
#[derive(Debug, Clone, Default)]
pub struct ContributionGraph {
    /// Peer id → dense node index, assigned on first sighting.
    index: FxHashMap<PeerId, u32>,
    /// Dense node index → peer id.
    ids: Vec<PeerId>,
    /// Out-adjacency: `fwd.slice(u)` holds `(target, weight)` slots.
    fwd: AdjArena,
    /// In-adjacency mirror: `rev.slice(u)` holds `(source, weight)`.
    rev: AdjArena,
    edge_count: usize,
    version: u64,
    /// Per-node change tracking: the version at which each node last
    /// had an incident edge change. Indexed densely and never
    /// truncated (it is bounded by the node count, not the mutation
    /// count), so a reader can fall arbitrarily far behind and still
    /// get an exact answer from [`ContributionGraph::changed_since`].
    changed_at: Vec<u64>,
    /// The nodes whose `changed_at` is above `dirty_floor`, each once,
    /// in the order they first moved above it: what
    /// [`ContributionGraph::changed_nodes_since`] walks. A node joins
    /// only from at or below the floor, so the list never outgrows the
    /// node count.
    dirty: Vec<u32>,
    /// Versions at or below this are forgotten by `dirty` (moved only
    /// by [`ContributionGraph::forget_changes_through`]).
    dirty_floor: u64,
}

impl ContributionGraph {
    /// An empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Monotone counter bumped on every mutation; used by reputation
    /// caches for invalidation.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Dense index of `id`, interning it on first sighting.
    fn intern(&mut self, id: PeerId) -> u32 {
        if let Some(&i) = self.index.get(&id) {
            return i;
        }
        let i = self.fwd.add_node();
        let r = self.rev.add_node();
        debug_assert_eq!(i, r);
        self.ids.push(id);
        self.changed_at.push(0);
        self.index.insert(id, i);
        i
    }

    /// Add `amount` to the `from → to` edge (the normal accounting path
    /// for a peer's own transfers). Self-edges are ignored.
    pub fn add_transfer(&mut self, from: PeerId, to: PeerId, amount: Bytes) {
        if from == to || amount.is_zero() {
            return;
        }
        let f = self.intern(from);
        let t = self.intern(to);
        match self.fwd.weight_mut(f, t) {
            Some(w) => {
                *w += amount.0;
                *self.rev.weight_mut(t, f).expect("in-adjacency mirrors out") += amount.0;
            }
            None => {
                self.fwd.push(f, t, amount.0);
                self.rev.push(t, f, amount.0);
                self.edge_count += 1;
            }
        }
        self.version += 1;
        self.log_change(f, t);
    }

    /// Merge a gossiped record about the pair `(from, to)`: the stored
    /// total becomes `max(stored, total)`. Returns `true` if the graph
    /// changed. This is the §3.4 shared-history update rule.
    pub fn merge_record(&mut self, from: PeerId, to: PeerId, total: Bytes) -> bool {
        if from == to || total.is_zero() {
            return false;
        }
        let f = self.intern(from);
        let t = self.intern(to);
        match self.fwd.weight_mut(f, t) {
            Some(w) if total.0 <= *w => return false,
            Some(w) => {
                *w = total.0;
                *self.rev.weight_mut(t, f).expect("in-adjacency mirrors out") = total.0;
            }
            None => {
                self.fwd.push(f, t, total.0);
                self.rev.push(t, f, total.0);
                self.edge_count += 1;
            }
        }
        self.version += 1;
        self.log_change(f, t);
        true
    }

    /// Record a changed edge: both endpoints become dirty at the
    /// current version, joining the dirty list if they were clean.
    fn log_change(&mut self, from: u32, to: u32) {
        for node in [from, to] {
            let at = &mut self.changed_at[node as usize];
            if *at <= self.dirty_floor {
                self.dirty.push(node);
            }
            *at = self.version;
        }
    }

    /// Whether `node` has been an endpoint of an edge changed after
    /// version `since`; `false` for a node the graph has never seen.
    ///
    /// Always answerable: the per-node versions never truncate, so a
    /// reader may fall arbitrarily far behind between reads without
    /// losing precision.
    pub fn changed_since(&self, node: PeerId, since: u64) -> bool {
        self.index
            .get(&node)
            .is_some_and(|&i| self.changed_at[i as usize] > since)
    }

    /// Every node that has been an endpoint of an edge changed after
    /// version `since`, each once, in O(nodes changed since the last
    /// [`ContributionGraph::forget_changes_through`]); the set
    /// [`ContributionGraph::changed_since`] answers node by node.
    /// `None` when `since` lies below the forgotten floor, where the
    /// list can no longer tell.
    pub fn changed_nodes_since(&self, since: u64) -> Option<impl Iterator<Item = PeerId> + '_> {
        (since >= self.dirty_floor).then(|| {
            self.dirty
                .iter()
                .filter(move |&&n| self.changed_at[n as usize] > since)
                .map(|&n| self.ids[n as usize])
        })
    }

    /// Forget the changes at or before version `through` (clamped to
    /// the current version): [`ContributionGraph::changed_nodes_since`]
    /// stops answering for any earlier `since`. Meant for the graph's
    /// one reader of changes, once it has caught up to `through`.
    pub fn forget_changes_through(&mut self, through: u64) {
        let through = through.min(self.version);
        if through <= self.dirty_floor {
            return;
        }
        self.dirty_floor = through;
        if through == self.version {
            self.dirty.clear();
        } else {
            let changed_at = &self.changed_at;
            self.dirty.retain(|&n| changed_at[n as usize] > through);
        }
    }

    /// The aggregated bytes `from` has uploaded to `to` (zero if no edge).
    pub fn edge(&self, from: PeerId, to: PeerId) -> Bytes {
        let (Some(&f), Some(&t)) = (self.index.get(&from), self.index.get(&to)) else {
            return Bytes::ZERO;
        };
        Bytes(self.fwd.weight(f, t).unwrap_or(0))
    }

    /// Outgoing edges of `node` as `(target, bytes)`, in first-recorded
    /// order (deterministic — no hash-map iteration anywhere beneath).
    pub fn out_edges(&self, node: PeerId) -> impl Iterator<Item = (PeerId, Bytes)> + '_ {
        self.index.get(&node).into_iter().flat_map(move |&u| {
            self.fwd
                .slice(u)
                .iter()
                .map(|e| (self.ids[e.other as usize], Bytes(e.weight)))
        })
    }

    /// Incoming edges of `node` as `(source, bytes)`, in first-recorded
    /// order.
    pub fn in_edges(&self, node: PeerId) -> impl Iterator<Item = (PeerId, Bytes)> + '_ {
        self.index.get(&node).into_iter().flat_map(move |&u| {
            self.rev
                .slice(u)
                .iter()
                .map(|e| (self.ids[e.other as usize], Bytes(e.weight)))
        })
    }

    /// Total bytes `node` has uploaded (sum of out-edge weights).
    pub fn total_up(&self, node: PeerId) -> Bytes {
        self.out_edges(node).map(|(_, b)| b).sum()
    }

    /// Total bytes `node` has downloaded (sum of in-edge weights).
    pub fn total_down(&self, node: PeerId) -> Bytes {
        self.in_edges(node).map(|(_, b)| b).sum()
    }

    /// Every node that appears as an endpoint of some edge.
    pub fn nodes(&self) -> FxHashSet<PeerId> {
        self.ids.iter().copied().collect()
    }

    /// Number of distinct nodes.
    pub fn node_count(&self) -> usize {
        self.ids.len()
    }

    /// Number of directed edges with nonzero weight.
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// All edges as `(from, to, bytes)` triples, grouped by source in
    /// dense-node order (deterministic).
    pub fn edges(&self) -> impl Iterator<Item = (PeerId, PeerId, Bytes)> + '_ {
        (0..self.ids.len() as u32).flat_map(move |u| {
            self.fwd.slice(u).iter().map(move |e| {
                (
                    self.ids[u as usize],
                    self.ids[e.other as usize],
                    Bytes(e.weight),
                )
            })
        })
    }

    /// Internal consistency check: the in-adjacency mirrors the
    /// out-adjacency exactly. Used by tests and `debug_assert!`s.
    pub fn check_invariants(&self) -> Result<(), String> {
        if self.fwd.node_count() != self.ids.len() || self.rev.node_count() != self.ids.len() {
            return Err(format!(
                "arena node counts {}/{} != interned {}",
                self.fwd.node_count(),
                self.rev.node_count(),
                self.ids.len()
            ));
        }
        let mut forward = 0usize;
        for u in 0..self.ids.len() as u32 {
            let f = self.ids[u as usize];
            for e in self.fwd.slice(u) {
                let t = self.ids[e.other as usize];
                if e.weight == 0 {
                    return Err(format!("zero-weight edge {f}->{t}"));
                }
                if u == e.other {
                    return Err(format!("self edge at {f}"));
                }
                let back = self.rev.weight(e.other, u).unwrap_or(0);
                if back != e.weight {
                    return Err(format!("in/out mismatch {f}->{t}: {} vs {back}", e.weight));
                }
                forward += 1;
            }
        }
        if forward != self.edge_count {
            return Err(format!(
                "edge_count {} != actual {}",
                self.edge_count, forward
            ));
        }
        if self.rev.len() != forward {
            return Err(format!(
                "reverse arena holds {} slots for {forward} edges",
                self.rev.len()
            ));
        }
        let mut listed = vec![false; self.ids.len()];
        for &n in &self.dirty {
            if std::mem::replace(&mut listed[n as usize], true) {
                return Err(format!("{} listed dirty twice", self.ids[n as usize]));
            }
        }
        for (n, &at) in self.changed_at.iter().enumerate() {
            if listed[n] != (at > self.dirty_floor) {
                return Err(format!(
                    "{} changed at {at}, floor {}, listed {}",
                    self.ids[n], self.dirty_floor, listed[n]
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(i: u32) -> PeerId {
        PeerId(i)
    }

    #[test]
    fn add_transfer_accumulates() {
        let mut g = ContributionGraph::new();
        g.add_transfer(p(1), p(2), Bytes::from_mb(10));
        g.add_transfer(p(1), p(2), Bytes::from_mb(5));
        assert_eq!(g.edge(p(1), p(2)), Bytes::from_mb(15));
        assert_eq!(g.edge(p(2), p(1)), Bytes::ZERO);
        assert_eq!(g.edge_count(), 1);
        g.check_invariants().unwrap();
    }

    #[test]
    fn self_and_zero_transfers_ignored() {
        let mut g = ContributionGraph::new();
        let v0 = g.version();
        g.add_transfer(p(1), p(1), Bytes::from_mb(10));
        g.add_transfer(p(1), p(2), Bytes::ZERO);
        assert_eq!(g.edge_count(), 0);
        assert_eq!(g.version(), v0);
        assert_eq!(g.node_count(), 0, "ineffective ops intern no nodes");
    }

    #[test]
    fn merge_record_takes_max() {
        let mut g = ContributionGraph::new();
        assert!(g.merge_record(p(1), p(2), Bytes::from_mb(10)));
        // A stale (smaller) record never lowers what we know.
        assert!(!g.merge_record(p(1), p(2), Bytes::from_mb(4)));
        assert_eq!(g.edge(p(1), p(2)), Bytes::from_mb(10));
        // A fresher (larger) record replaces it.
        assert!(g.merge_record(p(1), p(2), Bytes::from_mb(25)));
        assert_eq!(g.edge(p(1), p(2)), Bytes::from_mb(25));
        g.check_invariants().unwrap();
    }

    #[test]
    fn totals_and_nodes() {
        let mut g = ContributionGraph::new();
        g.add_transfer(p(1), p(2), Bytes::from_mb(10));
        g.add_transfer(p(1), p(3), Bytes::from_mb(20));
        g.add_transfer(p(3), p(1), Bytes::from_mb(7));
        assert_eq!(g.total_up(p(1)), Bytes::from_mb(30));
        assert_eq!(g.total_down(p(1)), Bytes::from_mb(7));
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 3);
        assert_eq!(g.edges().count(), 3);
    }

    #[test]
    fn version_bumps_on_change_only() {
        let mut g = ContributionGraph::new();
        let v0 = g.version();
        g.add_transfer(p(1), p(2), Bytes::from_mb(1));
        let v1 = g.version();
        assert!(v1 > v0);
        g.merge_record(p(1), p(2), Bytes::from_kb(1)); // stale, no-op
        assert_eq!(g.version(), v1);
    }

    /// The nodes among `1..=6` that `changed_since` reports.
    fn changed(g: &ContributionGraph, since: u64) -> Vec<PeerId> {
        (1..=6)
            .map(p)
            .filter(|&n| g.changed_since(n, since))
            .collect()
    }

    #[test]
    fn changed_since_reports_exact_endpoints() {
        let mut g = ContributionGraph::new();
        let v0 = g.version();
        g.add_transfer(p(1), p(2), Bytes::from_mb(1));
        let v1 = g.version();
        g.merge_record(p(3), p(4), Bytes::from_mb(2));
        let v2 = g.version();
        g.add_transfer(p(1), p(2), Bytes::from_mb(1));

        assert_eq!(changed(&g, v0), vec![p(1), p(2), p(3), p(4)]);
        assert_eq!(changed(&g, v1), vec![p(1), p(2), p(3), p(4)]);
        assert_eq!(
            changed(&g, v2),
            vec![p(1), p(2)],
            "3 and 4 last changed at v2"
        );
        assert!(changed(&g, g.version()).is_empty());
        assert!(!g.changed_since(p(77), v0), "absent node never changed");
    }

    #[test]
    fn ineffective_mutations_not_logged() {
        let mut g = ContributionGraph::new();
        g.add_transfer(p(1), p(2), Bytes::from_mb(10));
        let v = g.version();
        g.add_transfer(p(1), p(1), Bytes::from_mb(1)); // self edge: ignored
        g.add_transfer(p(1), p(2), Bytes::ZERO); // zero: ignored
        g.merge_record(p(1), p(2), Bytes::from_mb(4)); // stale: ignored
        assert!(changed(&g, v).is_empty());
    }

    #[test]
    fn dirty_tracking_survives_arbitrarily_long_gaps() {
        let mut g = ContributionGraph::new();
        g.add_transfer(p(5), p(6), Bytes(1));
        let v = g.version();
        // far more mutations than a bounded change log would hold: the
        // per-node versions must stay exact, not truncate
        for i in 0..10_000u64 {
            g.add_transfer(p(1), p(2), Bytes(i + 1));
        }
        assert_eq!(
            changed(&g, v),
            vec![p(1), p(2)],
            "untouched nodes must stay clean"
        );
    }

    #[test]
    fn changed_nodes_since_lists_each_moved_node_once() {
        let mut g = ContributionGraph::new();
        g.add_transfer(p(1), p(2), Bytes(1));
        let v = g.version();
        for i in 0..100u64 {
            g.add_transfer(p(3), p(4), Bytes(i + 1));
            g.merge_record(p(2), p(3), Bytes(i + 1));
        }
        let list = |g: &ContributionGraph, since| {
            let mut nodes: Vec<PeerId> = g.changed_nodes_since(since).unwrap().collect();
            nodes.sort();
            nodes
        };
        assert_eq!(list(&g, 0), vec![p(1), p(2), p(3), p(4)]);
        assert_eq!(list(&g, v), vec![p(2), p(3), p(4)]);
        g.forget_changes_through(v);
        assert!(g.changed_nodes_since(v - 1).is_none(), "below the floor");
        assert_eq!(list(&g, v), vec![p(2), p(3), p(4)]);
        g.forget_changes_through(g.version());
        assert!(list(&g, g.version()).is_empty());
        g.add_transfer(p(4), p(5), Bytes(1));
        assert_eq!(list(&g, g.version() - 1), vec![p(4), p(5)]);
        g.check_invariants().unwrap();
    }

    #[test]
    fn in_edges_mirror_out_edges() {
        let mut g = ContributionGraph::new();
        g.add_transfer(p(5), p(6), Bytes::from_mb(3));
        let ins: Vec<_> = g.in_edges(p(6)).collect();
        assert_eq!(ins, vec![(p(5), Bytes::from_mb(3))]);
    }

    #[test]
    fn iteration_order_is_insertion_order() {
        // the CSR arena guarantees deterministic first-recorded order,
        // where the old hash-of-hash layout gave arbitrary order
        let mut g = ContributionGraph::new();
        g.add_transfer(p(1), p(9), Bytes(1));
        g.add_transfer(p(1), p(3), Bytes(2));
        g.add_transfer(p(1), p(7), Bytes(3));
        let order: Vec<PeerId> = g.out_edges(p(1)).map(|(t, _)| t).collect();
        assert_eq!(order, vec![p(9), p(3), p(7)]);
        let triples: Vec<_> = g.edges().collect();
        assert_eq!(triples[0], (p(1), p(9), Bytes(1)));
    }

    #[test]
    fn heavy_churn_keeps_arena_consistent() {
        // enough interleaved growth to force block relocation and
        // compaction underneath, with invariants checked throughout
        let mut g = ContributionGraph::new();
        for round in 0..50u32 {
            for node in 0..40u32 {
                g.add_transfer(
                    p(node),
                    p((node + round + 1) % 41),
                    Bytes(u64::from(round) + 1),
                );
            }
            if round % 10 == 0 {
                g.check_invariants().unwrap();
            }
        }
        g.check_invariants().unwrap();
    }
}

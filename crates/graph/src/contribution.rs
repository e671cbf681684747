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
//! chasing hash buckets. Peer ids map to dense indices through a
//! [`PeerIndex`], which resolves the small ids real peers carry by one
//! table read and hashes only the rest.
//!
//! Every effective mutation bumps [`ContributionGraph::version`], the
//! graph's one change signal. It does not record which nodes moved: a
//! reader that keeps state derived from the graph (the engine's memo
//! for the per-pair methods, their residual network) drops it whole
//! when the version moves.

use crate::csr::{AdjArena, EdgeSlot};
use bartercast_util::units::{Bytes, PeerId};
use bartercast_util::{FxHashMap, FxHashSet};

/// Slots per page of [`PeerIndex`]'s direct table.
const PAGE: usize = 256;

/// A direct-table slot that holds no index.
const VACANT: u32 = u32::MAX;

/// Peer id → dense index, assigned in first-sighting order.
///
/// An id below [`PeerIndex::direct_bound`] when it is first interned
/// goes into a direct table, read without hashing; every other id goes
/// into a hash map. Neither tier ever hands an id to the other, so a
/// lookup reads the table and, on a miss, the map. The table is held in
/// pages of 256 slots, each allocated the first time an id lands in it,
/// so it never reallocates a large block. The bound grows with the ids
/// interned, so the pages never exceed `direct_bound() / 256 + 1`:
/// about 32 B per interned id, whatever ids a hostile peer gossips.
///
/// ```
/// use bartercast_graph::contribution::PeerIndex;
/// use bartercast_util::units::PeerId;
///
/// let mut index = PeerIndex::default();
/// assert_eq!(index.intern(PeerId(7)), (0, true));
/// assert_eq!(index.intern(PeerId(u32::MAX)), (1, true)); // hashed
/// assert_eq!(index.intern(PeerId(7)), (0, false));
/// assert_eq!(index.get(PeerId(u32::MAX)), Some(1));
/// assert_eq!(index.peer(1), PeerId(u32::MAX));
/// assert_eq!(index.table_pages(), 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct PeerIndex {
    /// Direct table: id `x` sits at `pages[x / 256][x % 256]`, or is
    /// `VACANT` there.
    pages: Vec<Option<Box<[u32; PAGE]>>>,
    /// Ids at or above the direct bound when first interned.
    far: FxHashMap<PeerId, u32>,
    /// Dense index → peer id.
    ids: Vec<PeerId>,
}

impl PeerIndex {
    /// Ids below this bound go into the direct table when interned: a
    /// fixed multiple of the interned count, plus slack for the first
    /// ids.
    pub fn direct_bound(&self) -> u64 {
        8 * self.ids.len() as u64 + 1024
    }

    /// The dense index of `id`, if interned.
    #[inline]
    pub fn get(&self, id: PeerId) -> Option<u32> {
        if let Some(Some(page)) = self.pages.get(id.0 as usize / PAGE) {
            let i = page[id.0 as usize % PAGE];
            if i != VACANT {
                return Some(i);
            }
        }
        if self.far.is_empty() {
            return None;
        }
        self.far.get(&id).copied()
    }

    /// The dense index of `id`, interning it as the next index on first
    /// sighting; the flag says whether it was new.
    #[inline]
    pub fn intern(&mut self, id: PeerId) -> (u32, bool) {
        if let Some(i) = self.get(id) {
            return (i, false);
        }
        let i = u32::try_from(self.ids.len()).expect("node index exceeds u32");
        if u64::from(id.0) < self.direct_bound() {
            let p = id.0 as usize / PAGE;
            if p >= self.pages.len() {
                self.pages.resize_with(p + 1, || None);
            }
            let page = self.pages[p].get_or_insert_with(|| Box::new([VACANT; PAGE]));
            page[id.0 as usize % PAGE] = i;
        } else {
            self.far.insert(id, i);
        }
        self.ids.push(id);
        (i, true)
    }

    /// The peer id of dense index `i`.
    #[inline]
    pub fn peer(&self, i: u32) -> PeerId {
        self.ids[i as usize]
    }

    /// Every interned id, in dense-index order.
    pub fn ids(&self) -> &[PeerId] {
        &self.ids
    }

    /// Pages of the direct table allocated so far.
    pub fn table_pages(&self) -> usize {
        self.pages.iter().flatten().count()
    }
}

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
    /// Peer id ↔ dense node index, assigned on first sighting.
    index: PeerIndex,
    /// Out-adjacency: `fwd.slice(u)` holds `(target, weight)` slots.
    fwd: AdjArena,
    /// In-adjacency mirror: `rev.slice(u)` holds `(source, weight)`.
    rev: AdjArena,
    edge_count: usize,
    version: u64,
}

impl ContributionGraph {
    /// An empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Monotone counter bumped on every effective mutation (see the
    /// module docs).
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Dense index of `id`, interning it on first sighting.
    fn intern(&mut self, id: PeerId) -> u32 {
        let (i, new) = self.index.intern(id);
        if new {
            let f = self.fwd.add_node();
            let r = self.rev.add_node();
            debug_assert_eq!((f, r), (i, i));
        }
        i
    }

    /// Add `amount` to the `from → to` edge (the normal accounting path
    /// for a peer's own transfers). Self-edges are ignored.
    pub fn add_transfer(&mut self, from: PeerId, to: PeerId, amount: Bytes) {
        if from == to || amount.is_zero() {
            return;
        }
        self.upsert(from, to, |w| Some(w.saturating_add(amount.0)));
    }

    /// Merge a gossiped record about the pair `(from, to)`: the stored
    /// total becomes `max(stored, total)`. Returns `true` if the graph
    /// changed. This is the §3.4 shared-history update rule.
    pub fn merge_record(&mut self, from: PeerId, to: PeerId, total: Bytes) -> bool {
        if from == to || total.is_zero() {
            return false;
        }
        self.upsert(from, to, |w| (total.0 > w).then_some(total.0))
    }

    /// The one write path: `weight` maps the stored `from → to` weight
    /// (0 for a missing edge) to the new one, or to `None` to leave the
    /// graph alone. A new weight is written to both mirrors (a missing
    /// edge is pushed) and bumps the version. Returns whether it wrote.
    fn upsert(
        &mut self,
        from: PeerId,
        to: PeerId,
        weight: impl FnOnce(u64) -> Option<u64>,
    ) -> bool {
        let (f, t) = (self.intern(from), self.intern(to));
        let slot = self.fwd.slot_mut(f, t);
        let Some(w) = weight(slot.as_ref().map_or(0, |s| s.weight)) else {
            return false;
        };
        match slot {
            Some(slot) => {
                slot.weight = w;
                let mirror = self.rev.slot_mut(t, f);
                mirror.expect("in-adjacency mirrors out").weight = w;
            }
            None => {
                self.fwd.push(f, t, w);
                self.rev.push(t, f, w);
                self.edge_count += 1;
            }
        }
        self.version += 1;
        true
    }

    /// The aggregated bytes `from` has uploaded to `to` (zero if no edge).
    pub fn edge(&self, from: PeerId, to: PeerId) -> Bytes {
        let (Some(f), Some(t)) = (self.index.get(from), self.index.get(to)) else {
            return Bytes::ZERO;
        };
        Bytes(self.fwd.weight(f, t).unwrap_or(0))
    }

    /// Outgoing edges of `node` as `(target, bytes)`, in first-recorded
    /// order (deterministic — no hash-map iteration anywhere beneath).
    pub fn out_edges(&self, node: PeerId) -> impl Iterator<Item = (PeerId, Bytes)> + '_ {
        self.named(self.index.get(node).map_or(&[], |u| self.fwd.slice(u)))
    }

    /// Incoming edges of `node` as `(source, bytes)`, in first-recorded
    /// order.
    pub fn in_edges(&self, node: PeerId) -> impl Iterator<Item = (PeerId, Bytes)> + '_ {
        self.named(self.index.get(node).map_or(&[], |u| self.rev.slice(u)))
    }

    /// `slots` as `(peer, bytes)`.
    fn named<'a>(&'a self, slots: &'a [EdgeSlot]) -> impl Iterator<Item = (PeerId, Bytes)> + 'a {
        slots
            .iter()
            .map(|e| (self.index.peer(e.other), Bytes(e.weight)))
    }

    /// The dense index of `node`, if it is in the graph: nodes are
    /// numbered `0..node_count()` in the order they first appeared.
    #[inline]
    pub fn node(&self, node: PeerId) -> Option<u32> {
        self.index.get(node)
    }

    /// Out-adjacency slots of dense node `u`, in first-recorded order.
    #[inline]
    pub(crate) fn out_slots(&self, u: u32) -> &[EdgeSlot] {
        self.fwd.slice(u)
    }

    /// In-adjacency slots of dense node `u`, in first-recorded order.
    #[inline]
    pub(crate) fn in_slots(&self, u: u32) -> &[EdgeSlot] {
        self.rev.slice(u)
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
        self.index.ids().iter().copied().collect()
    }

    /// Number of distinct nodes.
    pub fn node_count(&self) -> usize {
        self.index.ids().len()
    }

    /// Number of directed edges with nonzero weight.
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// All edges as `(from, to, bytes)` triples, grouped by source in
    /// dense-node order (deterministic).
    pub fn edges(&self) -> impl Iterator<Item = (PeerId, PeerId, Bytes)> + '_ {
        let ids = self.index.ids();
        (0..ids.len() as u32).flat_map(move |u| {
            self.named(self.fwd.slice(u))
                .map(move |(t, b)| (ids[u as usize], t, b))
        })
    }

    /// Internal consistency check: both arenas' blocks tile them
    /// exactly, and the in-adjacency mirrors the out-adjacency. Used by
    /// tests.
    pub fn check_invariants(&self) -> Result<(), String> {
        self.fwd
            .check()
            .map_err(|e| format!("out-adjacency: {e}"))?;
        self.rev.check().map_err(|e| format!("in-adjacency: {e}"))?;
        let ids = self.index.ids();
        if self.fwd.node_count() != ids.len() || self.rev.node_count() != ids.len() {
            return Err(format!(
                "arena node counts {}/{} != interned {}",
                self.fwd.node_count(),
                self.rev.node_count(),
                ids.len()
            ));
        }
        let mut forward = 0usize;
        for u in 0..ids.len() as u32 {
            let f = ids[u as usize];
            for e in self.fwd.slice(u) {
                let t = ids[e.other as usize];
                if e.weight == 0 {
                    return Err(format!("zero-weight edge {f}->{t}"));
                }
                if u == e.other {
                    return Err(format!("self edge at {f}"));
                }
                let (w, back) = (e.weight, self.rev.weight(e.other, u).unwrap_or(0));
                if back != w {
                    return Err(format!("in/out mismatch {f}->{t}: {w} vs {back}"));
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

    #[test]
    fn ineffective_mutations_not_logged() {
        let mut g = ContributionGraph::new();
        g.add_transfer(p(1), p(2), Bytes::from_mb(10));
        let v = g.version();
        g.add_transfer(p(1), p(1), Bytes::from_mb(1)); // self edge: ignored
        g.add_transfer(p(1), p(2), Bytes::ZERO); // zero: ignored
        g.merge_record(p(1), p(2), Bytes::from_mb(4)); // stale: ignored
        assert_eq!(g.version(), v, "no reader sees a change");
        assert_eq!(g.edge(p(1), p(2)), Bytes::from_mb(10));
        assert_eq!((g.node_count(), g.edge_count()), (2, 1));
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
        // enough interleaved growth to relocate blocks through several
        // size classes and reuse vacated ones, with the allocator and
        // mirror invariants checked throughout
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

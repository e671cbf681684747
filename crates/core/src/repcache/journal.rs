//! The change journal: a per-node dirty bitmap between `sync()` calls.
//!
//! The engine's memo cache is evicted incrementally: for path-length
//! bounds ≤ 2, a changed edge `(a, b)` can only alter the entry
//! `(i, j)` when `i` or `j` is an endpoint of the change, so eviction
//! needs exactly the set of *dirty nodes* since the last sync (for
//! finite bounds `k ≥ 3` the engine widens that seed set to the k-hop
//! dirty neighbourhood via [`ChangeJournal::dirty_nodes`]). The
//! first version of this machinery read that set from a flat change
//! log capped at 4096 entries, and a reader that fell further behind
//! had to clear its whole cache. The journal replaces that: it pulls
//! the graph's per-node last-changed versions (which never truncate)
//! and folds them into a dense bitmap, so arbitrarily long gaps
//! between syncs still evict precisely, and the per-entry dirty test
//! during eviction is two bit probes instead of two hash lookups.

use bartercast_graph::ContributionGraph;
use bartercast_util::units::PeerId;
use bartercast_util::FxHashMap;

/// Default number of node slots the journal pre-allocates bitmap
/// space for. Chosen to match the capacity of the flat change-log
/// deque this structure replaced; unlike that cap it is **not** a
/// correctness boundary — the journal grows past it without losing
/// precision (growth just reallocates the bitmap).
pub const DEFAULT_JOURNAL_CAPACITY: usize = 4096;

/// Bits per bitmap word (the journal packs one dirty bit per node
/// slot into `u64` words).
pub const JOURNAL_WORD_BITS: usize = 64;

/// A per-node dirty bitmap accumulated from the graph's change
/// tracking.
///
/// Node slots are assigned on first sighting and stable for the
/// journal's lifetime, so repeated sync cycles reuse the same bit
/// positions and [`ChangeJournal::clear`] is a word-fill, not a
/// rebuild.
#[derive(Debug, Clone)]
pub struct ChangeJournal {
    /// Stable dense bit index per node ever seen dirty.
    slots: FxHashMap<PeerId, u32>,
    /// The dirty bitmap, one bit per slot.
    words: Vec<u64>,
    /// Number of nodes currently marked dirty.
    dirty: usize,
}

impl Default for ChangeJournal {
    fn default() -> Self {
        Self::new()
    }
}

impl ChangeJournal {
    /// A journal pre-sized for [`DEFAULT_JOURNAL_CAPACITY`] nodes.
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_JOURNAL_CAPACITY)
    }

    /// A journal pre-sized for `nodes` node slots. Purely an
    /// allocation hint: the journal grows beyond it as needed.
    pub fn with_capacity(nodes: usize) -> Self {
        ChangeJournal {
            slots: FxHashMap::default(),
            words: vec![0; nodes.div_ceil(JOURNAL_WORD_BITS)],
            dirty: 0,
        }
    }

    /// Mark `node` dirty.
    pub fn mark(&mut self, node: PeerId) {
        let next = self.slots.len() as u32;
        let slot = *self.slots.entry(node).or_insert(next) as usize;
        let word = slot / JOURNAL_WORD_BITS;
        if word >= self.words.len() {
            self.words.resize(word + 1, 0);
        }
        let bit = 1u64 << (slot % JOURNAL_WORD_BITS);
        if self.words[word] & bit == 0 {
            self.words[word] |= bit;
            self.dirty += 1;
        }
    }

    /// Fold every node the graph changed after version `since` into
    /// the bitmap.
    pub fn absorb(&mut self, graph: &ContributionGraph, since: u64) {
        for node in graph.dirty_nodes_since(since) {
            self.mark(node);
        }
    }

    /// Whether `node` is currently marked dirty.
    pub fn is_dirty(&self, node: PeerId) -> bool {
        match self.slots.get(&node) {
            Some(&slot) => {
                let slot = slot as usize;
                self.words[slot / JOURNAL_WORD_BITS] & (1 << (slot % JOURNAL_WORD_BITS)) != 0
            }
            None => false,
        }
    }

    /// Number of nodes currently marked dirty.
    pub fn dirty_count(&self) -> usize {
        self.dirty
    }

    /// Iterate the nodes currently marked dirty (the seed set for the
    /// k-hop neighbourhood eviction used by finite bounds `k ≥ 3`).
    pub fn dirty_nodes(&self) -> impl Iterator<Item = PeerId> + '_ {
        self.slots.iter().filter_map(|(&node, &slot)| {
            let slot = slot as usize;
            let set = self.words[slot / JOURNAL_WORD_BITS] & (1 << (slot % JOURNAL_WORD_BITS));
            (set != 0).then_some(node)
        })
    }

    /// Node slots the bitmap currently covers without reallocating.
    pub fn capacity(&self) -> usize {
        self.words.len() * JOURNAL_WORD_BITS
    }

    /// Reset every dirty bit (slot assignments are kept, so the next
    /// cycle reuses them).
    pub fn clear(&mut self) {
        self.words.fill(0);
        self.dirty = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bartercast_util::units::Bytes;

    fn p(i: u32) -> PeerId {
        PeerId(i)
    }

    #[test]
    fn marks_and_clears() {
        let mut j = ChangeJournal::with_capacity(0);
        assert!(!j.is_dirty(p(3)));
        j.mark(p(3));
        j.mark(p(3));
        assert!(j.is_dirty(p(3)));
        assert_eq!(j.dirty_count(), 1);
        j.clear();
        assert!(!j.is_dirty(p(3)));
        assert_eq!(j.dirty_count(), 0);
        // slot survives the clear and is reused
        j.mark(p(3));
        assert_eq!(j.dirty_count(), 1);
    }

    #[test]
    fn grows_past_initial_capacity() {
        let mut j = ChangeJournal::with_capacity(JOURNAL_WORD_BITS);
        for i in 0..(JOURNAL_WORD_BITS as u32 * 3) {
            j.mark(p(i));
        }
        assert_eq!(j.dirty_count(), JOURNAL_WORD_BITS * 3);
        assert!(j.capacity() >= JOURNAL_WORD_BITS * 3);
    }

    #[test]
    fn absorb_tracks_graph_changes_exactly() {
        let mut g = ContributionGraph::new();
        g.add_transfer(p(5), p(6), Bytes(1));
        let since = g.version();
        // far beyond the old 4096-entry change-log cap
        for i in 0..10_000u64 {
            g.add_transfer(p(1), p(2), Bytes(i + 1));
        }
        let mut j = ChangeJournal::new();
        j.absorb(&g, since);
        assert!(j.is_dirty(p(1)) && j.is_dirty(p(2)));
        assert!(
            !j.is_dirty(p(5)) && !j.is_dirty(p(6)),
            "clean nodes stay clean"
        );
        assert_eq!(j.dirty_count(), 2);
    }

    #[test]
    fn dirty_nodes_iterates_exactly_the_marked_set() {
        let mut j = ChangeJournal::with_capacity(0);
        assert_eq!(j.dirty_nodes().count(), 0);
        j.mark(p(3));
        j.mark(p(9));
        j.mark(p(3));
        let mut dirty: Vec<u32> = j.dirty_nodes().map(|n| n.0).collect();
        dirty.sort_unstable();
        assert_eq!(dirty, vec![3, 9]);
        j.clear();
        assert_eq!(j.dirty_nodes().count(), 0, "clear empties the view");
        // slots persist across clear but stay invisible until re-marked
        j.mark(p(9));
        assert_eq!(j.dirty_nodes().collect::<Vec<_>>(), vec![p(9)]);
    }
}

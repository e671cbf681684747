//! Arena-backed compressed-sparse-row adjacency storage.
//!
//! One contiguous arena of 12-byte `(neighbour, weight)` slots plus a
//! per-node `(start, len)` span — the CSR layout every flow kernel in
//! this crate walks. Unlike a textbook CSR (frozen offset arrays built
//! in one pass), the arena is **incrementally appendable**. A node's
//! slots sit in one block of a power-of-two size class (4, 8, 16, …
//! slots), so the block's capacity follows from its length. A node
//! whose block is full relocates to a block of the next class
//! (amortized `O(1)` per append).
//!
//! Relocation reuses what it vacates. Each size class keeps an
//! intrusive free list: one head per class, and a free block's first
//! slot links to the next free block of its class. A relocation pops a
//! block of its new class when the list has one and appends at the
//! arena tail only when it is empty; the vacated block goes onto its
//! own class's list. Nothing is ever compacted.
//!
//! **Waste bound.** A node never shrinks, so a tail block of class `c`
//! is appended only while every earlier one is held by a node still
//! in class `c`: the free class-`c` blocks are at most the nodes that
//! have since left class `c`. The free slots therefore never exceed
//! the live blocks' capacity, and a live block is more than half full
//! (class 0 aside, which holds at least one of its four slots), so the
//! arena never holds more than four slots per live slot, however
//! gossip interleaves the nodes' growth. That worst case is nodes
//! growing in lockstep, when no vacated block finds a taker. When new
//! nodes keep arriving, as under gossip, they take the small blocks
//! older nodes vacated.
//!
//! Per-node slot order is insertion order and survives every
//! relocation and reuse, so every traversal over the arena is
//! deterministic — the property the bit-identity differential suites
//! lean on.

/// One adjacency slot: a neighbour (dense node index) and the edge
/// weight toward it, packed into 12 bytes. Fields are only ever read
/// and written by value (a reference to `weight` would be unaligned).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[repr(C, packed(4))]
pub(crate) struct EdgeSlot {
    /// Dense index of the neighbouring node; in a free block's first
    /// slot, the start of the next free block of its class.
    pub other: u32,
    /// Aggregated edge weight in bytes.
    pub weight: u64,
}

const _: () = assert!(std::mem::size_of::<EdgeSlot>() == 12);

/// Per-node span into the arena: `len` live slots starting at `start`,
/// inside a block of `block_cap(len)` slots.
#[derive(Debug, Clone, Copy, Default)]
struct Span {
    start: u32,
    len: u32,
}

/// Smallest block a node's first edge reserves (size class 0).
const MIN_BLOCK: u32 = 4;

/// End of a free list.
const NIL: u32 = u32::MAX;

/// Slots in the block that holds `len` live slots.
fn block_cap(len: u32) -> u32 {
    len.next_power_of_two().max(MIN_BLOCK)
}

/// Size class of a block of `cap` slots (`cap = MIN_BLOCK << class`).
fn class_of(cap: u32) -> usize {
    (cap.trailing_zeros() - MIN_BLOCK.trailing_zeros()) as usize
}

/// An incrementally appendable CSR adjacency arena.
#[derive(Debug, Clone, Default)]
pub(crate) struct AdjArena {
    entries: Vec<EdgeSlot>,
    spans: Vec<Span>,
    /// Live slots (Σ span.len), for the edge-count invariant checks.
    live: usize,
    /// Per size class, the start of the first free block (`NIL` when
    /// none); grown on demand.
    free: Vec<u32>,
}

impl AdjArena {
    /// Register one more node; returns its dense index.
    pub fn add_node(&mut self) -> u32 {
        let i = u32::try_from(self.spans.len()).expect("node index exceeds u32");
        self.spans.push(Span::default());
        i
    }

    /// Number of registered nodes.
    pub fn node_count(&self) -> usize {
        self.spans.len()
    }

    /// Total live slots across all nodes.
    pub fn len(&self) -> usize {
        self.live
    }

    /// The live adjacency slots of `node`, in insertion order.
    #[inline]
    pub fn slice(&self, node: u32) -> &[EdgeSlot] {
        let s = &self.spans[node as usize];
        &self.entries[s.start as usize..(s.start + s.len) as usize]
    }

    /// The `node → other` slot, if present, to read and set its weight
    /// through. A linear scan of the node's span: degrees here are
    /// gossip neighbourhood sizes, and the span is one cache-resident
    /// block.
    pub fn slot_mut(&mut self, node: u32, other: u32) -> Option<&mut EdgeSlot> {
        let s = self.spans[node as usize];
        self.entries[s.start as usize..(s.start + s.len) as usize]
            .iter_mut()
            .find(|e| e.other == other)
    }

    /// Read-only weight of the `node → other` slot, if present.
    pub fn weight(&self, node: u32, other: u32) -> Option<u64> {
        self.slice(node)
            .iter()
            .find(|e| e.other == other)
            .map(|e| e.weight)
    }

    /// Append a new slot to `node` (the caller has checked it is not
    /// already present), relocating the node's block when it is full.
    pub fn push(&mut self, node: u32, other: u32, weight: u64) {
        let s = self.spans[node as usize];
        if s.len == 0 || s.len == block_cap(s.len) {
            self.relocate(node);
        }
        let s = &mut self.spans[node as usize];
        self.entries[(s.start + s.len) as usize] = EdgeSlot { other, weight };
        s.len += 1;
        self.live += 1;
    }

    /// Move `node`'s slots into a block of the next size class, reusing
    /// a free one when its class has one, and free the vacated block.
    fn relocate(&mut self, node: u32) {
        let s = self.spans[node as usize];
        let new_cap = (s.len * 2).max(MIN_BLOCK);
        let class = class_of(new_cap);
        let new_start = match self.free.get(class).copied().filter(|&b| b != NIL) {
            Some(block) => {
                self.free[class] = self.entries[block as usize].other;
                block
            }
            None => {
                let start = self.entries.len();
                let end = u32::try_from(start + new_cap as usize)
                    .expect("adjacency arena exceeds u32 slots");
                self.entries.resize(end as usize, EdgeSlot::default());
                start as u32
            }
        };
        let from = s.start as usize;
        self.entries
            .copy_within(from..from + s.len as usize, new_start as usize);
        if s.len > 0 {
            let old = class_of(block_cap(s.len));
            if self.free.len() <= old {
                self.free.resize(old + 1, NIL);
            }
            self.entries[from].other = self.free[old];
            self.free[old] = s.start;
        }
        self.spans[node as usize].start = new_start;
    }

    /// Allocator invariants: the live blocks and the free blocks tile
    /// the arena exactly — each inside it, none overlapping another.
    /// A free block is measured by the list it is on, so one on the
    /// wrong class's list leaves a gap or an overlap in the tiling.
    pub fn check(&self) -> Result<(), String> {
        let mut blocks: Vec<(usize, usize, &str)> = self
            .spans
            .iter()
            .filter(|s| s.len > 0)
            .map(|s| (s.start as usize, block_cap(s.len) as usize, "live"))
            .collect();
        for (class, &head) in self.free.iter().enumerate() {
            let mut block = head;
            while block != NIL {
                if blocks.len() > self.entries.len() {
                    return Err(format!("free list of class {class} does not end"));
                }
                let Some(slot) = self.entries.get(block as usize) else {
                    return Err(format!("free block {block} lies outside the arena"));
                };
                blocks.push((block as usize, (MIN_BLOCK << class) as usize, "free"));
                block = slot.other;
            }
        }
        blocks.sort_unstable();
        let mut end = 0;
        for &(start, cap, kind) in &blocks {
            if start != end {
                return Err(format!(
                    "{kind} block at {start} does not follow the block ending at {end}"
                ));
            }
            end = start + cap;
        }
        if end != self.entries.len() {
            return Err(format!(
                "blocks end at {end} in an arena of {} slots",
                self.entries.len()
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_find_and_grow() {
        let mut a = AdjArena::default();
        let n0 = a.add_node();
        let n1 = a.add_node();
        for i in 0..20 {
            a.push(n0, 100 + i, i as u64 + 1);
        }
        a.push(n1, 7, 9);
        assert_eq!(a.len(), 21);
        assert_eq!(a.slice(n0).len(), 20);
        assert_eq!(a.weight(n0, 105), Some(6));
        assert_eq!(a.weight(n0, 999), None);
        let slot = a.slot_mut(n1, 7).unwrap();
        slot.weight += 1;
        assert_eq!(a.weight(n1, 7), Some(10));
        // insertion order survives growth
        let others: Vec<u32> = a.slice(n0).iter().map(|e| e.other).collect();
        assert_eq!(others, (100..120).collect::<Vec<u32>>());
        a.check().unwrap();
    }

    #[test]
    fn a_vacated_block_serves_the_next_relocation_of_its_class() {
        let mut a = AdjArena::default();
        let (n0, n1, n2) = (a.add_node(), a.add_node(), a.add_node());
        for i in 0..5 {
            a.push(n0, 10 + i, 1);
        }
        // n0 left its 4-slot block at 0 for an 8-slot block at 4
        assert_eq!(a.entries.len(), 12);
        a.push(n1, 1, 2);
        assert_eq!(a.spans[n1 as usize].start, 0, "n1 reuses n0's old block");
        assert_eq!(a.entries.len(), 12, "reuse appends nothing");
        // the list is empty again, so the next class-0 block is new
        a.push(n2, 1, 3);
        assert_eq!(a.spans[n2 as usize].start, 12);
        assert_eq!(a.entries.len(), 16);
        a.check().unwrap();
        assert_eq!(
            a.slice(n1),
            &[EdgeSlot {
                other: 1,
                weight: 2
            }]
        );
        assert_eq!(
            a.slice(n2),
            &[EdgeSlot {
                other: 1,
                weight: 3
            }]
        );
        let others: Vec<u32> = a.slice(n0).iter().map(|e| e.other).collect();
        assert_eq!(others, vec![10, 11, 12, 13, 14]);
    }

    #[test]
    fn interleaved_growth_stays_inside_the_waste_bound() {
        let mut a = AdjArena::default();
        let nodes: Vec<u32> = (0..64).map(|_| a.add_node()).collect();
        for round in 0..200u32 {
            for (k, &n) in nodes.iter().enumerate() {
                // nodes start at different rounds, so blocks one node
                // vacates serve another's relocation
                if round as usize >= k {
                    a.push(n, round, u64::from(round) + 1);
                }
            }
            assert!(a.entries.len() <= 4 * a.len(), "round {round}");
            if round % 16 == 0 {
                a.check().unwrap();
            }
        }
        a.check().unwrap();
        assert_eq!(a.len(), (0..64).map(|k| 200 - k).sum::<usize>());
        for (k, &n) in nodes.iter().enumerate() {
            let got: Vec<(u32, u64)> = a.slice(n).iter().map(|e| (e.other, e.weight)).collect();
            let want: Vec<(u32, u64)> = (k as u32..200).map(|r| (r, u64::from(r) + 1)).collect();
            assert_eq!(got, want, "node {n} order changed");
        }
    }
}

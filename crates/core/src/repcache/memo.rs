//! The memo cache: per-entry LRU over `(evaluator, target)`
//! reputations, indexed by endpoint.
//!
//! Replaces the previous whole-evaluator idle eviction (one recency
//! stamp per evaluator, evicting every entry an idle evaluator owned)
//! with a per-entry intrusive age list: each `get` moves the entry to
//! the front, each insert past the budget evicts from the back. Under
//! adversarial query mixes — one hot pair amid huge sweeps from other
//! evaluators — the hot entry now survives on its own recency instead
//! of drowning with its evaluator.
//!
//! Every entry is also threaded on two intrusive per-endpoint chains,
//! one for its evaluator and one for its target, whose heads live in
//! one map keyed by peer. [`MemoCache::remove_node`] drops every entry
//! naming a peer by walking its two chains, so the engine's
//! changed-endpoint invalidation costs O(entries evicted) rather than
//! a scan of the whole cache; every unlink, LRU eviction included,
//! stays O(1) with no allocation per insert.
//!
//! Eviction is purely a memory/perf decision and can never produce a
//! stale value: entries are only ever valid at the engine's current
//! graph version (on `sync` the engine removes the entries of every
//! changed endpoint for `k ≤ 2`, and everything otherwise), so
//! dropping one merely forces a recompute of the identical value.

use std::collections::hash_map::Entry as Slot;

use bartercast_util::units::PeerId;
use bartercast_util::FxHashMap;

/// Default ceiling on memoized `(evaluator, target)` entries before
/// LRU eviction kicks in (see `ReputationEngine::with_cache_budget`).
pub const DEFAULT_CACHE_BUDGET: usize = 1 << 20;

/// Sentinel link for the intrusive list ends.
const NIL: u32 = u32::MAX;

/// Chain index of the entry's evaluator (`key.0`) …
const EVALUATOR: usize = 0;
/// … and of its target (`key.1`).
const TARGET: usize = 1;

/// One cache entry: the memoized value plus its age-list and
/// per-endpoint chain links.
#[derive(Debug, Clone, Copy)]
struct Entry {
    key: (PeerId, PeerId),
    value: f64,
    /// Age-list neighbour toward the most-recently-used end.
    newer: u32,
    /// Age-list neighbour toward the least-recently-used end.
    older: u32,
    /// Chain neighbours toward the head, per side (`EVALUATOR`,
    /// `TARGET`).
    prev: [u32; 2],
    /// Chain neighbours away from the head, per side.
    next: [u32; 2],
}

impl Entry {
    fn new(key: (PeerId, PeerId), value: f64) -> Self {
        Entry {
            key,
            value,
            newer: NIL,
            older: NIL,
            prev: [NIL; 2],
            next: [NIL; 2],
        }
    }

    fn endpoint(&self, side: usize) -> PeerId {
        if side == EVALUATOR {
            self.key.0
        } else {
            self.key.1
        }
    }
}

/// A bounded memo map with an intrusive LRU age list and per-endpoint
/// chains.
///
/// Entries live in a slab (`entries` + `free`); the hash map holds
/// slab indices, and the doubly-linked age list and endpoint chains
/// thread through the slab so touch/evict/unlink are O(1) with no
/// per-operation allocation.
#[derive(Debug, Clone)]
pub struct MemoCache {
    map: FxHashMap<(PeerId, PeerId), u32>,
    entries: Vec<Entry>,
    free: Vec<u32>,
    /// Most recently used entry, or `NIL` when empty.
    head: u32,
    /// Least recently used entry, or `NIL` when empty.
    tail: u32,
    /// Per peer, the first entry of its `[EVALUATOR, TARGET]` chains
    /// (`NIL` for an empty chain); a peer with both empty is absent.
    chains: FxHashMap<PeerId, [u32; 2]>,
    /// The evaluator whose chain head was last pushed, and that head:
    /// while it stays linked, the next entry of the same evaluator goes
    /// in right behind it without touching `chains` (a sweep inserts
    /// one evaluator's entries back to back).
    last_evaluator: (PeerId, u32),
    budget: usize,
    evictions: u64,
}

impl Default for MemoCache {
    fn default() -> Self {
        Self::new(DEFAULT_CACHE_BUDGET)
    }
}

impl MemoCache {
    /// An empty cache holding at most `budget` entries.
    pub fn new(budget: usize) -> Self {
        MemoCache {
            map: FxHashMap::default(),
            entries: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            chains: FxHashMap::default(),
            last_evaluator: (PeerId(0), NIL),
            budget,
            evictions: 0,
        }
    }

    /// Entries currently held.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Entries evicted by the budget since construction.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Current entry budget.
    pub fn budget(&self) -> usize {
        self.budget
    }

    /// Change the budget, evicting immediately if the cache is over
    /// the new ceiling.
    pub fn set_budget(&mut self, budget: usize) {
        self.budget = budget;
        self.evict_over_budget();
    }

    /// Look up and mark the entry most recently used.
    pub fn get(&mut self, key: &(PeerId, PeerId)) -> Option<f64> {
        let &idx = self.map.get(key)?;
        self.unlink(idx);
        self.link_front(idx);
        Some(self.entries[idx as usize].value)
    }

    /// Insert (or refresh) an entry at the most-recently-used end,
    /// evicting from the least-recently-used end while over budget.
    /// With a zero budget the inserted entry itself is evicted — the
    /// caller must not rely on reading an entry back after insert.
    pub fn insert(&mut self, key: (PeerId, PeerId), value: f64) {
        if let Some(&idx) = self.map.get(&key) {
            self.entries[idx as usize].value = value;
            self.unlink(idx);
            self.link_front(idx);
            return;
        }
        self.insert_with(key, || value);
    }

    /// Insert `value()` under `key` unless the key is already held, in
    /// one probe of the map; a held entry keeps its value and its
    /// recency. Returns whether it inserted (see
    /// [`MemoCache::insert`] for the budget).
    pub fn insert_with(&mut self, key: (PeerId, PeerId), value: impl FnOnce() -> f64) -> bool {
        let Slot::Vacant(slot) = self.map.entry(key) else {
            return false;
        };
        let entry = Entry::new(key, value());
        let idx = match self.free.pop() {
            Some(i) => {
                self.entries[i as usize] = entry;
                i
            }
            None => {
                self.entries.push(entry);
                (self.entries.len() - 1) as u32
            }
        };
        slot.insert(idx);
        self.link_front(idx);
        self.push_chains(idx);
        self.evict_over_budget();
        true
    }

    /// Drop every entry whose evaluator or target is `node` (the
    /// engine's changed-endpoint invalidation), walking `node`'s two
    /// chains. Returns how many entries were removed.
    pub fn remove_node(&mut self, node: PeerId) -> usize {
        // a self-pair sits on both of `node`'s chains: drop it first, so
        // each walk below meets every entry once
        let mut removed = match self.map.get(&(node, node)) {
            Some(&idx) => {
                self.remove_index(idx);
                1
            }
            None => 0,
        };
        let Some(heads) = self.chains.remove(&node) else {
            return removed;
        };
        if self.last_evaluator.0 == node {
            self.last_evaluator.1 = NIL;
        }
        for (side, other) in [(EVALUATOR, TARGET), (TARGET, EVALUATOR)] {
            let mut idx = heads[side];
            while idx != NIL {
                let next = self.entries[idx as usize].next[side];
                self.unlink(idx);
                self.unlink_chain(idx, other);
                self.map.remove(&self.entries[idx as usize].key);
                self.free.push(idx);
                removed += 1;
                idx = next;
            }
        }
        removed
    }

    /// Drop everything.
    pub fn clear(&mut self) {
        self.map.clear();
        self.entries.clear();
        self.free.clear();
        self.chains.clear();
        self.head = NIL;
        self.tail = NIL;
        self.last_evaluator.1 = NIL;
    }

    fn evict_over_budget(&mut self) {
        while self.map.len() > self.budget {
            let idx = self.tail;
            debug_assert_ne!(idx, NIL, "evict from empty cache");
            self.remove_index(idx);
            self.evictions += 1;
        }
    }

    fn remove_index(&mut self, idx: u32) {
        self.unlink(idx);
        self.unlink_chain(idx, EVALUATOR);
        self.unlink_chain(idx, TARGET);
        let key = self.entries[idx as usize].key;
        self.map.remove(&key);
        self.free.push(idx);
    }

    fn unlink(&mut self, idx: u32) {
        let Entry { newer, older, .. } = self.entries[idx as usize];
        match newer {
            NIL => {
                if self.head == idx {
                    self.head = older;
                }
            }
            n => self.entries[n as usize].older = older,
        }
        match older {
            NIL => {
                if self.tail == idx {
                    self.tail = newer;
                }
            }
            o => self.entries[o as usize].newer = newer,
        }
        self.entries[idx as usize].newer = NIL;
        self.entries[idx as usize].older = NIL;
    }

    fn link_front(&mut self, idx: u32) {
        self.entries[idx as usize].older = self.head;
        self.entries[idx as usize].newer = NIL;
        if self.head != NIL {
            self.entries[self.head as usize].newer = idx;
        }
        self.head = idx;
        if self.tail == NIL {
            self.tail = idx;
        }
    }

    /// Thread a fresh entry onto its evaluator's and its target's
    /// chains.
    fn push_chains(&mut self, idx: u32) {
        let (evaluator, target) = self.entries[idx as usize].key;
        match self.last_evaluator {
            (peer, after) if peer == evaluator && after != NIL => self.link_after(idx, after),
            _ => {
                self.push_head(idx, EVALUATOR, evaluator);
                self.last_evaluator = (evaluator, idx);
            }
        }
        self.push_head(idx, TARGET, target);
    }

    fn push_head(&mut self, idx: u32, side: usize, node: PeerId) {
        let head = &mut self.chains.entry(node).or_insert([NIL; 2])[side];
        let old = std::mem::replace(head, idx);
        self.entries[idx as usize].next[side] = old;
        if old != NIL {
            self.entries[old as usize].prev[side] = idx;
        }
    }

    /// Link `idx` into the evaluator chain right behind `at`.
    fn link_after(&mut self, idx: u32, at: u32) {
        let next = self.entries[at as usize].next[EVALUATOR];
        self.entries[idx as usize].prev[EVALUATOR] = at;
        self.entries[idx as usize].next[EVALUATOR] = next;
        self.entries[at as usize].next[EVALUATOR] = idx;
        if next != NIL {
            self.entries[next as usize].prev[EVALUATOR] = idx;
        }
    }

    fn unlink_chain(&mut self, idx: u32, side: usize) {
        let entry = self.entries[idx as usize];
        let (prev, next) = (entry.prev[side], entry.next[side]);
        if next != NIL {
            self.entries[next as usize].prev[side] = prev;
        }
        if prev != NIL {
            self.entries[prev as usize].next[side] = next;
            return;
        }
        // `idx` heads its chain
        let Slot::Occupied(mut heads) = self.chains.entry(entry.endpoint(side)) else {
            unreachable!("a linked entry has a chain");
        };
        heads.get_mut()[side] = next;
        if *heads.get() == [NIL; 2] {
            heads.remove();
        }
        if side == EVALUATOR && self.last_evaluator.1 == idx {
            self.last_evaluator.1 = NIL;
        }
    }
}

/// The reference oracles: the whole-cache scan `remove_node` replaced,
/// and the views the tests compare two caches by.
#[cfg(test)]
impl MemoCache {
    /// Look up without touching recency.
    pub(crate) fn peek(&self, key: &(PeerId, PeerId)) -> Option<f64> {
        self.map.get(key).map(|&i| self.entries[i as usize].value)
    }

    /// Drop every entry failing the predicate, scanning the whole cache
    /// in recency order. Returns how many entries were removed.
    pub(crate) fn retain(&mut self, mut keep: impl FnMut(&(PeerId, PeerId)) -> bool) -> usize {
        let mut removed = 0;
        let mut idx = self.head;
        while idx != NIL {
            let next = self.entries[idx as usize].older;
            if !keep(&self.entries[idx as usize].key) {
                self.remove_index(idx);
                removed += 1;
            }
            idx = next;
        }
        removed
    }

    /// Every held `(key, value)`, most recently used first.
    pub(crate) fn by_recency(&self) -> Vec<((PeerId, PeerId), f64)> {
        let mut out = Vec::with_capacity(self.len());
        let mut idx = self.head;
        while idx != NIL {
            let e = &self.entries[idx as usize];
            out.push((e.key, e.value));
            idx = e.older;
        }
        out
    }

    /// Check the chains: every live entry is reachable exactly once
    /// from each of its two endpoints' chains, the back links mirror
    /// the forward ones, and no peer is kept with both chains empty.
    pub(crate) fn check_chains(&self) -> Result<(), String> {
        let mut seen = vec![[0u32; 2]; self.entries.len()];
        for (&node, heads) in &self.chains {
            if heads == &[NIL; 2] {
                return Err(format!("{node} kept with both chains empty"));
            }
            for side in [EVALUATOR, TARGET] {
                let (mut prev, mut idx) = (NIL, heads[side]);
                while idx != NIL {
                    let e = &self.entries[idx as usize];
                    if e.endpoint(side) != node {
                        return Err(format!("{:?} on {node}'s chain {side}", e.key));
                    }
                    if e.prev[side] != prev {
                        return Err(format!("{:?} back link on chain {side}", e.key));
                    }
                    seen[idx as usize][side] += 1;
                    (prev, idx) = (idx, e.next[side]);
                }
            }
        }
        for (key, &idx) in &self.map {
            if seen[idx as usize] != [1, 1] {
                return Err(format!("{key:?} reached {:?} times", seen[idx as usize]));
            }
        }
        let linked: u32 = seen.iter().map(|s| s[0] + s[1]).sum();
        if linked as usize != 2 * self.map.len() {
            return Err(format!("{linked} chain links for {} entries", self.len()));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn k(a: u32, b: u32) -> (PeerId, PeerId) {
        (PeerId(a), PeerId(b))
    }

    #[test]
    fn insert_get_peek() {
        let mut c = MemoCache::new(8);
        c.insert(k(0, 1), 0.5);
        assert_eq!(c.peek(&k(0, 1)), Some(0.5));
        assert_eq!(c.get(&k(0, 1)), Some(0.5));
        assert_eq!(c.get(&k(1, 0)), None);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn lru_evicts_oldest_first() {
        let mut c = MemoCache::new(2);
        c.insert(k(0, 1), 1.0);
        c.insert(k(0, 2), 2.0);
        c.insert(k(0, 3), 3.0); // evicts (0,1)
        assert_eq!(c.peek(&k(0, 1)), None);
        assert_eq!(c.peek(&k(0, 2)), Some(2.0));
        assert_eq!(c.evictions(), 1);
    }

    #[test]
    fn get_refreshes_recency() {
        let mut c = MemoCache::new(2);
        c.insert(k(0, 1), 1.0);
        c.insert(k(0, 2), 2.0);
        c.get(&k(0, 1)); // (0,2) is now the LRU entry
        c.insert(k(0, 3), 3.0);
        assert_eq!(c.peek(&k(0, 1)), Some(1.0), "touched entry survives");
        assert_eq!(c.peek(&k(0, 2)), None);
    }

    #[test]
    fn zero_budget_holds_nothing() {
        let mut c = MemoCache::new(0);
        c.insert(k(0, 1), 1.0);
        assert_eq!(c.len(), 0);
        assert_eq!(c.peek(&k(0, 1)), None);
        c.check_chains().unwrap();
    }

    #[test]
    fn insert_with_leaves_held_entries_alone() {
        let mut c = MemoCache::new(4);
        assert!(c.insert_with(k(0, 1), || 1.0));
        assert!(c.insert_with(k(0, 2), || 2.0));
        assert!(!c.insert_with(k(0, 1), || unreachable!("held: value not computed")));
        assert_eq!(c.peek(&k(0, 1)), Some(1.0));
        assert_eq!(
            c.by_recency().first().map(|&(key, _)| key),
            Some(k(0, 2)),
            "a held entry keeps its recency"
        );
    }

    #[test]
    fn chains_stay_intact_under_mixed_operations() {
        // a deterministic mix of inserts (back-to-back per evaluator,
        // as a sweep fills, and interleaved), gets, budget evictions
        // and removals by node, with the chains checked after each
        let mut c = MemoCache::new(24);
        let mut x = 0x2545f4914f6cdd1du64;
        for step in 0..3_000u32 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let (a, b) = ((x % 9) as u32, ((x >> 8) % 9) as u32);
            match (x >> 16) % 8 {
                0..=2 => {
                    for t in 0..(x >> 20) % 6 {
                        c.insert_with(k(a, (b + t as u32) % 9), || f64::from(step));
                    }
                }
                3 => c.insert(k(a, b), f64::from(step)),
                4 | 5 => {
                    c.get(&k(a, b));
                }
                6 => {
                    let before = c.len();
                    let named = c
                        .by_recency()
                        .iter()
                        .filter(|(k, _)| k.0 == PeerId(a) || k.1 == PeerId(a))
                        .count();
                    assert_eq!(c.remove_node(PeerId(a)), named);
                    assert_eq!(c.len(), before - named);
                }
                _ => c.set_budget(4 + (x >> 24) as usize % 24),
            }
            c.check_chains()
                .unwrap_or_else(|e| panic!("step {step}: {e}"));
            assert!(c.len() <= c.budget());
        }
        // what is left drains cleanly by node and the cache is reusable
        for n in 0..9 {
            c.remove_node(PeerId(n));
        }
        assert!(c.is_empty());
        c.check_chains().unwrap();
        c.insert(k(9, 9), 9.0);
        assert_eq!(c.get(&k(9, 9)), Some(9.0));
        assert_eq!(
            c.remove_node(PeerId(9)),
            1,
            "a self-pair sits on both chains once"
        );
        c.check_chains().unwrap();
    }

    #[test]
    fn reinsert_updates_in_place() {
        let mut c = MemoCache::new(4);
        c.insert(k(0, 1), 1.0);
        c.insert(k(0, 1), 2.0);
        assert_eq!(c.len(), 1);
        assert_eq!(c.peek(&k(0, 1)), Some(2.0));
    }
}

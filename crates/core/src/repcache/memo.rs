//! The memo cache: per-entry LRU over `(evaluator, target)`
//! reputations.
//!
//! Replaces the previous whole-evaluator idle eviction (one recency
//! stamp per evaluator, evicting every entry an idle evaluator owned)
//! with a per-entry intrusive age list: each `get` moves the entry to
//! the front, each insert past the budget evicts from the back. Under
//! adversarial query mixes — one hot pair amid huge sweeps from other
//! evaluators — the hot entry now survives on its own recency instead
//! of drowning with its evaluator.
//!
//! Eviction is purely a memory/perf decision and can never produce a
//! stale value: entries are only ever valid at the engine's current
//! graph version (on `sync` the engine evicts entries whose pair
//! touches a changed endpoint for `k ≤ 2`, and everything otherwise),
//! so dropping one merely forces a recompute of the identical value.

use bartercast_util::units::PeerId;
use bartercast_util::FxHashMap;

/// Default ceiling on memoized `(evaluator, target)` entries before
/// LRU eviction kicks in (see `ReputationEngine::with_cache_budget`).
pub const DEFAULT_CACHE_BUDGET: usize = 1 << 20;

/// Sentinel link for the intrusive list ends.
const NIL: u32 = u32::MAX;

/// One cache entry: the memoized value plus its age-list links.
#[derive(Debug, Clone, Copy)]
struct Entry {
    key: (PeerId, PeerId),
    value: f64,
    /// Age-list neighbour toward the most-recently-used end.
    newer: u32,
    /// Age-list neighbour toward the least-recently-used end.
    older: u32,
}

/// A bounded memo map with an intrusive LRU age list.
///
/// Entries live in a slab (`entries` + `free`); the hash map holds
/// slab indices, and the doubly-linked age list threads through the
/// slab so touch/evict are O(1) with no per-operation allocation.
#[derive(Debug, Clone)]
pub struct MemoCache {
    map: FxHashMap<(PeerId, PeerId), u32>,
    entries: Vec<Entry>,
    free: Vec<u32>,
    /// Most recently used entry, or `NIL` when empty.
    head: u32,
    /// Least recently used entry, or `NIL` when empty.
    tail: u32,
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
        while self.map.len() > self.budget {
            self.evict_tail();
        }
    }

    /// Look up without touching recency (used when deciding whether a
    /// sweep still needs to fill an entry).
    pub fn peek(&self, key: &(PeerId, PeerId)) -> Option<f64> {
        self.map.get(key).map(|&i| self.entries[i as usize].value)
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
        let idx = match self.free.pop() {
            Some(i) => {
                self.entries[i as usize] = Entry {
                    key,
                    value,
                    newer: NIL,
                    older: NIL,
                };
                i
            }
            None => {
                self.entries.push(Entry {
                    key,
                    value,
                    newer: NIL,
                    older: NIL,
                });
                (self.entries.len() - 1) as u32
            }
        };
        self.map.insert(key, idx);
        self.link_front(idx);
        while self.map.len() > self.budget {
            self.evict_tail();
        }
    }

    /// Drop every entry failing the predicate (the engine's
    /// changed-endpoint eviction). Returns how many entries were removed.
    pub fn retain(&mut self, mut keep: impl FnMut(&(PeerId, PeerId)) -> bool) -> usize {
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

    /// Drop everything.
    pub fn clear(&mut self) {
        self.map.clear();
        self.entries.clear();
        self.free.clear();
        self.head = NIL;
        self.tail = NIL;
    }

    fn evict_tail(&mut self) {
        let idx = self.tail;
        debug_assert_ne!(idx, NIL, "evict from empty cache");
        self.remove_index(idx);
        self.evictions += 1;
    }

    fn remove_index(&mut self, idx: u32) {
        self.unlink(idx);
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
    }

    #[test]
    fn retain_unlinks_cleanly() {
        let mut c = MemoCache::new(8);
        for t in 1..=5 {
            c.insert(k(0, t), t as f64);
        }
        let removed = c.retain(|&(_, t)| t.0 % 2 == 1);
        assert_eq!(removed, 2);
        assert_eq!(c.len(), 3);
        // the age list is still consistent: evict everything via budget
        c.set_budget(0);
        assert_eq!(c.len(), 0);
        // and reusable afterwards
        c.set_budget(4);
        c.insert(k(9, 9), 9.0);
        assert_eq!(c.get(&k(9, 9)), Some(9.0));
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

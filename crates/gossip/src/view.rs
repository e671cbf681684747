//! Bounded partial views of node descriptors.

use bartercast_util::units::PeerId;
use rand::seq::SliceRandom;
use rand::Rng;

/// One entry in a partial view: a peer plus the age of the information.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Descriptor {
    /// The described peer.
    pub peer: PeerId,
    /// Gossip cycles since this descriptor was created at its subject.
    pub age: u32,
}

/// A bounded set of descriptors, at most one per peer.
#[derive(Debug, Clone)]
pub struct PartialView {
    owner: PeerId,
    capacity: usize,
    entries: Vec<Descriptor>,
}

impl PartialView {
    /// An empty view owned by `owner` holding at most `capacity`
    /// descriptors.
    pub fn new(owner: PeerId, capacity: usize) -> Self {
        assert!(capacity > 0, "view capacity must be positive");
        PartialView {
            owner,
            capacity,
            entries: Vec::with_capacity(capacity),
        }
    }

    /// The view's owner (never contained in the view itself).
    pub fn owner(&self) -> PeerId {
        self.owner
    }

    /// Current descriptors.
    pub fn entries(&self) -> &[Descriptor] {
        &self.entries
    }

    /// Number of descriptors currently held.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True iff the view holds no descriptors.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// True iff `peer` is in the view.
    pub fn contains(&self, peer: PeerId) -> bool {
        self.entries.iter().any(|d| d.peer == peer)
    }

    /// Increment every descriptor's age by one cycle.
    pub fn age_all(&mut self) {
        for d in &mut self.entries {
            d.age = d.age.saturating_add(1);
        }
    }

    /// Insert or refresh a descriptor: an existing entry for the same
    /// peer keeps the **younger** age; the owner is never inserted;
    /// when full, the oldest descriptor is evicted to make room.
    pub fn insert(&mut self, d: Descriptor) {
        if d.peer == self.owner {
            return;
        }
        if let Some(existing) = self.entries.iter_mut().find(|e| e.peer == d.peer) {
            existing.age = existing.age.min(d.age);
            return;
        }
        if self.entries.len() == self.capacity {
            // evict the oldest entry iff the newcomer is younger
            if let Some((idx, oldest)) = self.entries.iter().enumerate().max_by_key(|(_, e)| e.age)
            {
                if d.age < oldest.age {
                    self.entries[idx] = d;
                }
            }
            return;
        }
        self.entries.push(d);
    }

    /// A uniformly random descriptor.
    pub fn random<R: Rng>(&self, rng: &mut R) -> Option<Descriptor> {
        self.entries.choose(rng).copied()
    }

    /// Up to `n` distinct random descriptors.
    pub fn sample<R: Rng>(&self, rng: &mut R, n: usize) -> Vec<Descriptor> {
        let mut pool: Vec<Descriptor> = self.entries.clone();
        pool.shuffle(rng);
        pool.truncate(n);
        pool
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn p(i: u32) -> PeerId {
        PeerId(i)
    }

    fn d(i: u32, age: u32) -> Descriptor {
        Descriptor { peer: p(i), age }
    }

    #[test]
    fn insert_and_contains() {
        let mut v = PartialView::new(p(0), 3);
        v.insert(d(1, 0));
        v.insert(d(2, 5));
        assert!(v.contains(p(1)));
        assert!(!v.contains(p(9)));
        assert_eq!(v.len(), 2);
    }

    #[test]
    fn never_contains_owner() {
        let mut v = PartialView::new(p(0), 3);
        v.insert(d(0, 0));
        assert!(v.is_empty());
    }

    #[test]
    fn duplicate_keeps_younger_age() {
        let mut v = PartialView::new(p(0), 3);
        v.insert(d(1, 7));
        v.insert(d(1, 2));
        assert_eq!(v.entries()[0].age, 2);
        v.insert(d(1, 9));
        assert_eq!(v.entries()[0].age, 2);
        assert_eq!(v.len(), 1);
    }

    #[test]
    fn eviction_replaces_oldest_with_younger() {
        let mut v = PartialView::new(p(0), 2);
        v.insert(d(1, 9));
        v.insert(d(2, 1));
        v.insert(d(3, 0)); // younger than oldest (age 9): evicts peer 1
        assert!(!v.contains(p(1)));
        assert!(v.contains(p(3)));
        // an older newcomer is dropped instead
        v.insert(d(4, 99));
        assert!(!v.contains(p(4)));
        assert_eq!(v.len(), 2);
    }

    #[test]
    fn aging_and_oldest() {
        let mut v = PartialView::new(p(0), 4);
        v.insert(d(1, 0));
        v.insert(d(2, 3));
        v.age_all();
        assert_eq!(v.entries(), [d(1, 1), d(2, 4)]);
    }

    #[test]
    fn sampling_is_bounded_and_distinct() {
        let mut v = PartialView::new(p(0), 8);
        for i in 1..=8 {
            v.insert(d(i, 0));
        }
        let mut rng = StdRng::seed_from_u64(7);
        let s = v.sample(&mut rng, 3);
        assert_eq!(s.len(), 3);
        let mut peers: Vec<u32> = s.iter().map(|x| x.peer.0).collect();
        peers.dedup();
        assert_eq!(peers.len(), 3);
        assert!(v.sample(&mut rng, 20).len() == 8);
        assert!(v.random(&mut rng).is_some());
    }
}

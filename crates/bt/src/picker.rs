//! The rarest-first select-k kernel shared by both piece planes.
//!
//! A downloader that may take `k` pieces picks them one at a time, each
//! pick the minimum of the remaining candidates by `(availability,
//! tie-break, index)`. Within one such batch the key of every
//! *remaining* candidate is constant — the only key a pick changes is
//! the picked piece's, and that piece has just left the candidate set —
//! so the `k` sequential picks are exactly the `k` smallest of one
//! fixed candidate set, in ascending order. [`rarest`] computes that in
//! one pass instead of `k` re-scans; `bt::Swarm`'s byte-credit path and
//! the live swarm's request pipeline both call it, each with its own
//! candidate words and key.

/// The `k` smallest of `candidates` by `(key(i), i)`, ascending — the
/// order `k` successive min-picks would produce. Fewer than `k` come
/// back when fewer candidates exist.
pub fn rarest<K: Ord>(
    candidates: impl Iterator<Item = usize>,
    k: usize,
    mut key: impl FnMut(usize) -> K,
) -> Vec<usize> {
    if k == 0 {
        return Vec::new();
    }
    let mut keyed: Vec<(K, usize)> = candidates.map(|i| (key(i), i)).collect();
    if keyed.len() > k {
        keyed.select_nth_unstable(k - 1);
        keyed.truncate(k);
    }
    keyed.sort_unstable();
    keyed.into_iter().map(|(_, i)| i).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `k` successive min-picks over a shrinking candidate list.
    fn pick_one_by_one(mut candidates: Vec<usize>, k: usize, key: &[u32]) -> Vec<usize> {
        let mut picks = Vec::new();
        while picks.len() < k {
            let Some(&best) = candidates.iter().min_by_key(|&&i| (key[i], i)) else {
                break;
            };
            candidates.retain(|&i| i != best);
            picks.push(best);
        }
        picks
    }

    #[test]
    fn equals_successive_min_picks() {
        // many equal keys, so the index tie-break decides most picks
        let key: Vec<u32> = (0..200u32).map(|i| (i * 7919 + 13) % 5).collect();
        let candidates: Vec<usize> = (0..200).filter(|i| i % 3 != 1).collect();
        for k in [0, 1, 2, 7, 64, 133, 134, 500] {
            assert_eq!(
                rarest(candidates.iter().copied(), k, |i| key[i]),
                pick_one_by_one(candidates.clone(), k, &key),
                "k = {k}"
            );
        }
    }

    #[test]
    fn empty_candidates_pick_nothing() {
        assert!(rarest(std::iter::empty(), 3, |i| i).is_empty());
    }
}

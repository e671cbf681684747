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
///
/// Candidates stream through a buffer of at most `2k` entries: when it
/// fills, a selection cuts it back to its `k` best, and from then on
/// only a candidate below the `k`-th best so far is admitted. Any
/// other has `k` candidates ahead of it, since keys are unique.
pub fn rarest<K: Ord>(
    candidates: impl Iterator<Item = usize>,
    k: usize,
    mut key: impl FnMut(usize) -> K,
) -> Vec<usize> {
    if k == 0 {
        return Vec::new();
    }
    let limit = k.saturating_mul(2);
    let mut kept: Vec<(K, usize)> = Vec::new();
    // once set, `kept[k - 1]` is the k-th best so far: a cut leaves it
    // there and admissions only append
    let mut cut = false;
    for i in candidates {
        let entry = (key(i), i);
        if cut && entry >= kept[k - 1] {
            continue;
        }
        kept.push(entry);
        if kept.len() == limit {
            kept.select_nth_unstable(k - 1);
            kept.truncate(k);
            cut = true;
        }
    }
    if kept.len() > k {
        kept.select_nth_unstable(k - 1);
        kept.truncate(k);
    }
    kept.sort_unstable();
    kept.into_iter().map(|(_, i)| i).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `k` successive min-picks over a shrinking candidate list.
    fn pick_one_by_one<K: Ord + Copy>(
        mut candidates: Vec<usize>,
        k: usize,
        key: &[K],
    ) -> Vec<usize> {
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

    /// The cutoff under the simulator's key: few distinct availabilities
    /// and a salted tie-break, candidates in shuffled order, and every
    /// buffer shape — none, the first cut, a buffer of `2k` that fills
    /// exactly on the last candidate (`k = 50`, `n = 100`), many cuts,
    /// and `k` at and past `n`.
    #[test]
    fn cutoff_equals_successive_min_picks_under_salted_keys() {
        let n = 100;
        let mut candidates: Vec<usize> = (0..n).map(|i| i * 37 % n).collect();
        candidates.rotate_left(11);
        for salt in [0u64, 1, 0x5EED_F00D] {
            let key: Vec<(u32, u64)> = (0..n)
                .map(|i| {
                    let availability = (i as u32).wrapping_mul(2_654_435_761) >> 30;
                    let tie = (i as u64 ^ salt).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                    (availability, tie)
                })
                .collect();
            for k in [0, 1, 2, 3, 49, 50, 51, n - 1, n, n + 5] {
                assert_eq!(
                    rarest(candidates.iter().copied(), k, |i| key[i]),
                    pick_one_by_one(candidates.clone(), k, &key),
                    "salt {salt:#x}, k = {k}"
                );
            }
        }
    }

    #[test]
    fn empty_candidates_pick_nothing() {
        assert!(rarest(std::iter::empty(), 3, |i| i).is_empty());
    }
}

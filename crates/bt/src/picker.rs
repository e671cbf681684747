//! The rarest-first select-k kernel of the live swarm's request
//! pipeline.
//!
//! A downloader that may take `k` pieces picks them one at a time, each
//! pick the minimum of the remaining candidates by `(availability,
//! tie-break, index)`. Within one such batch the key of every
//! *remaining* candidate is constant — the only key a pick changes is
//! the picked piece's, and that piece has just left the candidate set —
//! so the `k` sequential picks are exactly the `k` smallest of one
//! fixed candidate set, in ascending order. [`rarest`] computes that in
//! one pass instead of `k` re-scans. Its key may filter a piece out
//! (`None`: the live swarm's pending and in-flight pieces), which is
//! why `bt::Swarm`, whose candidates are never filtered, reads its
//! availability planes instead and only keeps [`key`]'s order.

/// The packed rarest-first key of a piece: availability in the high
/// half, the tie-break in the low half, so one `u128` comparison orders
/// pieces by `(availability, tie)`.
#[inline]
pub fn key(availability: u32, tie: u64) -> u128 {
    u128::from(availability) << 64 | u128::from(tie)
}

/// The `k` smallest candidates by `(key(i), i)`, ascending — the order
/// `k` successive min-picks would produce. Fewer than `k` come back
/// when fewer candidates exist.
///
/// The candidates are the set bits of `words`, bit `b` of the `w`-th
/// word being piece `64 w + b` (for a piece plane, `OR(provider words)
/// & !mine`, computed one word at a time: see
/// [`Bitfield::wanted_words`](crate::Bitfield::wanted_words)), less
/// every piece `key` answers `None` for.
///
/// Candidates stream through a buffer of at most `2k` entries: when it
/// fills, a selection cuts it back to its `k` best, whose worst becomes
/// the cutoff, and from then on only a candidate below the cutoff is
/// admitted. Any other has `k` candidates ahead of it, since the index
/// makes entries unique.
pub fn rarest(
    words: impl Iterator<Item = u64>,
    k: usize,
    mut key: impl FnMut(usize) -> Option<u128>,
) -> Vec<usize> {
    if k == 0 {
        return Vec::new();
    }
    let limit = k.saturating_mul(2);
    let mut kept: Vec<(u128, usize)> = Vec::new();
    // above every entry until the first cut; then the k-th best so far,
    // which a cut leaves at `kept[k - 1]` while admissions only append
    let mut cutoff = (u128::MAX, usize::MAX);
    for (w, mut word) in words.enumerate() {
        while word != 0 {
            let i = w * 64 + word.trailing_zeros() as usize;
            word &= word - 1;
            let Some(rank) = key(i) else {
                continue;
            };
            if (rank, i) >= cutoff {
                continue;
            }
            kept.push((rank, i));
            if kept.len() == limit {
                kept.select_nth_unstable(k - 1);
                kept.truncate(k);
                cutoff = kept[k - 1];
            }
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
    use crate::bitfield::iter_ones;
    use crate::Bitfield;

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

    /// The words whose set bits are `candidates`.
    fn words_of(candidates: &[usize], n: usize) -> Vec<u64> {
        let mut words = vec![0u64; n.div_ceil(64)];
        for &i in candidates {
            words[i / 64] |= 1 << (i % 64);
        }
        words
    }

    #[test]
    fn equals_successive_min_picks() {
        // many equal keys, so the index tie-break decides most picks
        let key: Vec<u128> = (0..200u32).map(|i| ((i * 7919 + 13) % 5).into()).collect();
        let candidates: Vec<usize> = (0..200).filter(|i| i % 3 != 1).collect();
        let words = words_of(&candidates, 200);
        for k in [0, 1, 2, 7, 64, 133, 134, 500] {
            assert_eq!(
                rarest(words.iter().copied(), k, |i| Some(key[i])),
                pick_one_by_one(candidates.clone(), k, &key),
                "k = {k}"
            );
        }
    }

    /// A pseudo-random `n`-piece bitfield, about one piece in
    /// `sparsity` set.
    fn scattered(n: usize, seed: u64, sparsity: u64) -> Bitfield {
        let mut b = Bitfield::new(n);
        let mut x = seed;
        for i in 0..n {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            if (x >> 33).is_multiple_of(sparsity) {
                b.set(i);
            }
        }
        b
    }

    /// The cutoff under the simulator's key, fed the words of a piece
    /// plane: few distinct availabilities and a salted tie-break, and
    /// every buffer shape — none, the first cut, a buffer of `2k` that
    /// fills exactly on the last candidate, many cuts, and `k` at and
    /// past the number of wanted pieces. The file ends in a partial
    /// word; the candidates come from no, one or several providers,
    /// less a filter that answers `None` (as the live swarm's in-flight
    /// and pending tests do).
    #[test]
    fn cutoff_equals_successive_min_picks_under_salted_keys() {
        let n = 203;
        let mine = scattered(n, 1, 3);
        let providers = [scattered(n, 2, 2), scattered(n, 3, 4), Bitfield::full(n)];
        for offers in [&[][..], &providers[..1], &providers[..2], &providers[1..]] {
            let offers: Vec<&Bitfield> = offers.iter().collect();
            let wanted: Vec<usize> = (0..n)
                .filter(|&i| !mine.has(i) && offers.iter().any(|o| o.has(i)))
                .collect();
            assert_eq!(
                wanted,
                iter_ones(&mine.wanted_words(&offers).collect::<Vec<_>>()).collect::<Vec<_>>(),
                "the word stream is OR(offers) & !mine"
            );
            let w = wanted.len();
            for salt in [0u64, 1, 0x5EED_F00D] {
                let key: Vec<u128> = (0..n)
                    .map(|i| {
                        let availability = (i as u32).wrapping_mul(2_654_435_761) >> 30;
                        let tie = (i as u64 ^ salt).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                        super::key(availability, tie)
                    })
                    .collect();
                let filtered = |i: usize| i % 5 != 2;
                let kept: Vec<usize> = wanted.iter().copied().filter(|&i| filtered(i)).collect();
                for k in [
                    0,
                    1,
                    2,
                    3,
                    w / 4,
                    w / 2,
                    w.div_ceil(2),
                    w.saturating_sub(1),
                    w,
                    w + 5,
                ] {
                    let by_words = |filter: &dyn Fn(usize) -> bool| {
                        rarest(mine.wanted_words(&offers), k, |i| filter(i).then(|| key[i]))
                    };
                    assert_eq!(
                        by_words(&|_| true),
                        pick_one_by_one(wanted.clone(), k, &key),
                        "{} offers, salt {salt:#x}, k = {k}",
                        offers.len()
                    );
                    assert_eq!(
                        by_words(&filtered),
                        pick_one_by_one(kept.clone(), k, &key),
                        "{} offers, salt {salt:#x}, k = {k}, filtered",
                        offers.len()
                    );
                }
            }
        }
    }

    #[test]
    fn key_orders_by_availability_before_tie() {
        assert!(key(0, u64::MAX) < key(1, 0));
        assert!(key(1, 5) < key(1, 6));
        assert!(key(u32::MAX - 1, u64::MAX) < key(u32::MAX, 0));
    }

    #[test]
    fn empty_candidates_pick_nothing() {
        assert!(rarest(std::iter::empty(), 3, |i| Some(i as u128)).is_empty());
        assert!(rarest([u64::MAX].into_iter(), 3, |_| None).is_empty());
    }
}

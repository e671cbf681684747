//! Piece bitfields.

/// A fixed-size bitset recording which pieces a peer has.
///
/// Bits live in 64-bit words, piece `i` at bit `i % 64` of word
/// `i / 64`. **Invariant:** no bit at or beyond `len` is ever set, so
/// whole-word operations ([`Bitfield::words`], [`Bitfield::wanted_from`],
/// interest, iteration) never see a phantom piece in the last word.
///
/// ```
/// use bartercast_bt::Bitfield;
///
/// let mut mine = Bitfield::new(4);
/// let seeder = Bitfield::full(4);
/// assert!(mine.interested_in(&seeder));
/// for i in 0..4 {
///     mine.set(i);
/// }
/// assert!(mine.is_complete());
/// assert!(!mine.interested_in(&seeder));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Bitfield {
    bits: Vec<u64>,
    len: usize,
    count: usize,
}

/// Indices of the set bits of a word slice, ascending (bit `b` of word
/// `w` is index `64 w + b`).
pub fn iter_ones(words: &[u64]) -> impl Iterator<Item = usize> + '_ {
    ones(words.iter().copied())
}

fn ones(words: impl Iterator<Item = u64>) -> impl Iterator<Item = usize> {
    words.enumerate().flat_map(|(w, mut rest)| {
        std::iter::from_fn(move || {
            if rest == 0 {
                return None;
            }
            let bit = rest.trailing_zeros() as usize;
            rest &= rest - 1;
            Some(w * 64 + bit)
        })
    })
}

impl Bitfield {
    /// An all-zero bitfield over `len` pieces.
    pub fn new(len: usize) -> Self {
        Bitfield {
            bits: vec![0; len.div_ceil(64)],
            len,
            count: 0,
        }
    }

    /// An all-one bitfield (a seeder's).
    pub fn full(len: usize) -> Self {
        let mut bits = vec![u64::MAX; len.div_ceil(64)];
        if let Some(last) = bits.last_mut() {
            *last = Self::tail_mask(len);
        }
        Bitfield {
            bits,
            len,
            count: len,
        }
    }

    /// The valid bits of the last word of a `len`-piece bitfield.
    fn tail_mask(len: usize) -> u64 {
        match len % 64 {
            0 => u64::MAX,
            r => (1u64 << r) - 1,
        }
    }

    /// Number of pieces in the torrent.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True iff the torrent has zero pieces (degenerate).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The backing words, `len.div_ceil(64)` of them; bits at or
    /// beyond `len` are zero.
    pub fn words(&self) -> &[u64] {
        &self.bits
    }

    /// Whether piece `i` is present.
    #[inline]
    pub fn has(&self, i: usize) -> bool {
        debug_assert!(i < self.len);
        self.bits[i / 64] & (1u64 << (i % 64)) != 0
    }

    /// Mark piece `i` present. Returns `true` if it was newly set.
    ///
    /// # Panics
    /// If `i >= len` — in release builds too: a stray bit in the last
    /// word would break the tail invariant every word-wise reader
    /// relies on.
    #[inline]
    pub fn set(&mut self, i: usize) -> bool {
        assert!(i < self.len, "piece {i} out of range {}", self.len);
        let w = &mut self.bits[i / 64];
        let mask = 1u64 << (i % 64);
        if *w & mask == 0 {
            *w |= mask;
            self.count += 1;
            true
        } else {
            false
        }
    }

    /// Number of pieces present.
    pub fn count(&self) -> usize {
        self.count
    }

    /// True iff every piece is present.
    pub fn is_complete(&self) -> bool {
        self.count == self.len
    }

    /// Fraction of pieces present in `[0, 1]`.
    #[cfg(test)]
    pub fn completeness(&self) -> f64 {
        if self.len == 0 {
            1.0
        } else {
            self.count as f64 / self.len as f64
        }
    }

    /// True iff `other` has at least one piece that `self` lacks —
    /// i.e. `self`'s owner is *interested* in `other`'s owner.
    pub fn interested_in(&self, other: &Bitfield) -> bool {
        debug_assert_eq!(self.len, other.len);
        self.bits
            .iter()
            .zip(&other.bits)
            .any(|(&mine, &theirs)| theirs & !mine != 0)
    }

    /// The pieces `self` lacks and at least one of `offers` has, as
    /// words (`OR` of the offers `& !self`); read them with
    /// [`iter_ones`].
    pub fn wanted_from<'a>(&self, offers: impl IntoIterator<Item = &'a Bitfield>) -> Vec<u64> {
        let mut wanted = vec![0u64; self.bits.len()];
        for offer in offers {
            debug_assert_eq!(self.len, offer.len);
            for (w, &theirs) in wanted.iter_mut().zip(&offer.bits) {
                *w |= theirs;
            }
        }
        for (w, &mine) in wanted.iter_mut().zip(&self.bits) {
            *w &= !mine;
        }
        wanted
    }

    /// Iterate over the pieces present.
    pub fn iter_set(&self) -> impl Iterator<Item = usize> + '_ {
        iter_ones(&self.bits)
    }

    /// Iterate over the pieces missing.
    #[cfg(test)]
    pub fn iter_missing(&self) -> impl Iterator<Item = usize> + '_ {
        // the complement's phantom tail bits all sort after `len - 1`
        ones(self.bits.iter().map(|&word| !word)).take_while(move |&i| i < self.len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_and_query() {
        let mut b = Bitfield::new(100);
        assert!(!b.has(3));
        assert!(b.set(3));
        assert!(!b.set(3), "setting twice reports false");
        assert!(b.has(3));
        assert_eq!(b.count(), 1);
        assert!(!b.is_complete());
    }

    #[test]
    fn full_is_complete() {
        let b = Bitfield::full(65);
        assert!(b.is_complete());
        assert_eq!(b.count(), 65);
        assert!((b.completeness() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn word_boundary_pieces() {
        let mut b = Bitfield::new(129);
        b.set(63);
        b.set(64);
        b.set(128);
        assert!(b.has(63) && b.has(64) && b.has(128));
        assert!(!b.has(62) && !b.has(65) && !b.has(127));
    }

    #[test]
    fn interest_semantics() {
        let mut me = Bitfield::new(10);
        let mut them = Bitfield::new(10);
        assert!(!me.interested_in(&them), "empty peer is uninteresting");
        them.set(4);
        assert!(me.interested_in(&them));
        me.set(4);
        assert!(!me.interested_in(&them), "no interest once I have it all");
        them.set(9);
        assert!(me.interested_in(&them));
    }

    #[test]
    fn seeder_never_interested() {
        let me = Bitfield::full(20);
        let mut them = Bitfield::new(20);
        them.set(5);
        assert!(!me.interested_in(&them));
    }

    #[test]
    fn iterators() {
        let mut b = Bitfield::new(5);
        b.set(1);
        b.set(3);
        assert_eq!(b.iter_set().collect::<Vec<_>>(), vec![1, 3]);
        assert_eq!(b.iter_missing().collect::<Vec<_>>(), vec![0, 2, 4]);
    }

    const LENS: [usize; 8] = [0, 1, 63, 64, 65, 127, 128, 2_000];

    /// A pseudo-random bitfield, about one bit in `1 / sparsity` set.
    fn scattered(len: usize, seed: u64, sparsity: u64) -> Bitfield {
        let mut b = Bitfield::new(len);
        let mut x = seed;
        for i in 0..len {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            if (x >> 33).is_multiple_of(sparsity) {
                b.set(i);
            }
        }
        b
    }

    fn assert_tail_clear(b: &Bitfield) {
        assert_eq!(b.words().len(), b.len().div_ceil(64));
        let ones: usize = b.words().iter().map(|w| w.count_ones() as usize).sum();
        assert_eq!(ones, b.count(), "a bit beyond len {} is set", b.len());
        assert!(iter_ones(b.words()).all(|i| i < b.len()));
    }

    #[test]
    fn word_wise_operations_equal_their_per_bit_definitions() {
        for len in LENS {
            let full = Bitfield::full(len);
            let mut by_set = Bitfield::new(len);
            for i in 0..len {
                by_set.set(i);
            }
            assert_eq!(full, by_set, "full({len})");
            assert_tail_clear(&full);
            assert_eq!(full.iter_missing().count(), 0);
            assert!(Bitfield::new(len).iter_missing().eq(0..len));

            for (seed, sparsity) in [(1, 2), (2, 7), (3, 64)] {
                let mine = scattered(len, seed, sparsity);
                let theirs = scattered(len, seed + 10, 3);
                let third = scattered(len, seed + 20, 5);
                assert_tail_clear(&mine);
                assert!(mine.iter_set().eq((0..len).filter(|&i| mine.has(i))));
                assert!(mine.iter_missing().eq((0..len).filter(|&i| !mine.has(i))));
                for other in [&theirs, &full, &Bitfield::new(len)] {
                    assert_eq!(
                        mine.interested_in(other),
                        (0..len).any(|i| other.has(i) && !mine.has(i)),
                        "interest at len {len}"
                    );
                }
                let wanted = mine.wanted_from([&theirs, &third]);
                assert!(iter_ones(&wanted)
                    .eq((0..len).filter(|&i| !mine.has(i) && (theirs.has(i) || third.has(i)))));
                assert!(iter_ones(&mine.wanted_from([])).next().is_none());
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn setting_beyond_len_panics_in_every_build() {
        // bit 5 of the only word exists physically; it must stay clear
        Bitfield::new(5).set(5);
    }

    #[test]
    fn empty_torrent_degenerate() {
        let b = Bitfield::new(0);
        assert!(b.is_empty());
        assert!(b.is_complete());
        assert_eq!(b.completeness(), 1.0);
    }
}

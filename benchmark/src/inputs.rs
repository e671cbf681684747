//! Seeded input generation. Every input a workload hands the program
//! derives from `--seed` through the splitmix64 stream here, so the
//! same seed gives the same inputs and the program's own RNGs only
//! ever see the seeds the benchmark generated for them.

use bartercast_util::units::{Bytes, PeerId};

/// splitmix64: cheap, full-period, and stable across runs.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    /// A stream for `seed`, kept apart from other streams of the same
    /// seed by `salt`.
    pub fn new(seed: u64, salt: u64) -> Self {
        SplitMix(seed ^ salt.wrapping_mul(0xd1b5_4a32_d192_ed03))
    }

    /// The next 64 bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A value in `0..n` (`n > 0`; the modulo bias is irrelevant for
    /// input generation).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

/// One contribution record `(uploader, downloader, bytes)`.
pub type Record = (PeerId, PeerId, Bytes);

/// The community-structured record stream of the shard workload:
/// `records_per_peer` uploads per peer, 95 % of them to a partner
/// inside the peer's own block of `community` consecutive ids (the
/// stratification that keeps boundary replication small), the rest to
/// anyone, each of 1–200 MB.
pub fn community_records(
    seed: u64,
    peers: u32,
    community: u32,
    records_per_peer: usize,
) -> Vec<Record> {
    const INTRA_PER_MILLE: u64 = 950;
    let mut rng = SplitMix::new(seed, 0x5a4d);
    let (n, community) = (u64::from(peers), u64::from(community));
    let mut out = Vec::with_capacity(peers as usize * records_per_peer);
    for i in 0..n {
        for _ in 0..records_per_peer {
            let partner = if rng.below(1000) < INTRA_PER_MILLE {
                let base = i / community * community;
                base + rng.below(community.min(n - base))
            } else {
                rng.below(n)
            };
            let amount = Bytes::from_mb(1 + rng.below(200));
            if partner != i {
                out.push((PeerId(i as u32), PeerId(partner as u32), amount));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        let a = community_records(7, 2_000, 100, 3);
        assert_eq!(a, community_records(7, 2_000, 100, 3));
        assert_ne!(a, community_records(8, 2_000, 100, 3));
        assert!(a.len() > 5_900 && a.len() <= 6_000);
        let intra = a.iter().filter(|(f, t, _)| f.0 / 100 == t.0 / 100).count();
        assert!(intra as f64 / a.len() as f64 > 0.9);

        let mut x: Vec<u32> = (0..32).collect();
        let mut y = x.clone();
        SplitMix::new(7, 1).shuffle(&mut x);
        SplitMix::new(7, 1).shuffle(&mut y);
        assert_eq!(x, y);
        y.sort_unstable();
        assert_eq!(y, (0..32).collect::<Vec<u32>>());
    }
}

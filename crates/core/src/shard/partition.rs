//! Ownership partitioning: which shard owns which peer.
//!
//! Every peer is **owned** by exactly one shard — the shard whose
//! graph holds all of the peer's incident edges, and where every sweep
//! reads the peer's adjacency. The assignment is a pure function of
//! the peer id (and the partitioner's configuration), so it is total
//! and disjoint by construction: any `PeerId`, including ones the
//! service has never seen, maps to exactly one shard.
//!
//! [`HashPartitioner`], the default, takes FxHash of the peer id
//! modulo the shard count: uniform, zero-configuration, oblivious to
//! graph structure. A caller that knows its population's communities
//! plugs in its own [`Partitioner`]: stratification in P2P networks
//! (PAPERS.md) observes that like-bandwidth peers cluster into
//! communities with sparse cross-links, and keeping a community on one
//! shard keeps its edges shard-local, which is what bounds the sharded
//! service's cross-shard storage: a cross-shard edge is stored at both
//! endpoints' owners.

use bartercast_util::units::PeerId;
use bartercast_util::FxHasher;
use std::hash::{Hash, Hasher};

/// A total assignment of peers to shards.
///
/// Implementations must be pure: `shard_of(peer, shards)` may depend
/// only on `peer`, `shards`, and the partitioner's own immutable
/// configuration, and must return a value in `0..shards`. The sharded
/// engine routes every mutation and query through this function, so a
/// non-deterministic implementation would scatter a peer's edges
/// across shards and break the ownership invariant.
pub trait Partitioner: std::fmt::Debug + Send + Sync {
    /// The shard in `0..shards` that owns `peer`. Must be
    /// deterministic.
    fn shard_of(&self, peer: PeerId, shards: usize) -> usize;
}

/// Structure-oblivious default: FxHash of the peer id modulo the shard
/// count.
#[derive(Debug, Clone, Copy, Default)]
pub struct HashPartitioner;

impl Partitioner for HashPartitioner {
    fn shard_of(&self, peer: PeerId, shards: usize) -> usize {
        let mut h = FxHasher::default();
        peer.hash(&mut h);
        (h.finish() % shards as u64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(i: u32) -> PeerId {
        PeerId(i)
    }

    #[test]
    fn hash_assignment_is_total_and_stable() {
        let part = HashPartitioner;
        for shards in [1usize, 2, 4, 8, 64] {
            for i in 0..1000u32 {
                let s = part.shard_of(p(i), shards);
                assert!(s < shards, "shard {s} out of range for {shards}");
                assert_eq!(s, part.shard_of(p(i), shards), "must be deterministic");
            }
        }
    }

    #[test]
    fn hash_assignment_spreads_peers() {
        let part = HashPartitioner;
        let shards = 8;
        let mut counts = vec![0usize; shards];
        for i in 0..8000u32 {
            counts[part.shard_of(p(i), shards)] += 1;
        }
        for (s, &c) in counts.iter().enumerate() {
            assert!(
                c > 8000 / shards / 4,
                "shard {s} starved: {c} of 8000 peers"
            );
        }
    }

    #[test]
    fn single_shard_maps_everything_to_zero() {
        let part = HashPartitioner;
        for i in [0u32, 1, 77, u32::MAX] {
            assert_eq!(part.shard_of(p(i), 1), 0);
        }
    }
}

//! Shard-vs-monolith differential suite.
//!
//! The sharded service's whole correctness claim is *bit-identity*:
//! for any mutation history and any shard count, every subjective
//! reputation equals the monolithic [`ReputationEngine`]'s answer on
//! the union graph, bit for bit. The properties here drive both
//! engines with random batches of delta transfers — node populations
//! that grow mid-run, queries interleaved densely or withheld across
//! long sync gaps, hash and community partitions — and compare
//! `reputations_from` / `reputation` via `f64::to_bits` at shard
//! counts {1, 2, 4, 8}.
//!
//! A 64-node pinned fixture closes the loop against history: its
//! all-pairs checksum is a hard-coded constant, so a regression that
//! changes sharded *and* monolithic results in lockstep (which the
//! differential property cannot see) still fails.

use std::sync::Arc;

use bartercast_core::{HashPartitioner, Partitioner, ReputationEngine, ShardedEngine};
use bartercast_util::units::{Bytes, PeerId};
use bartercast_util::FxHashMap;
use proptest::prelude::*;

const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];

fn p(i: u32) -> PeerId {
    PeerId(i)
}

/// One delta transfer `from → to`.
#[derive(Debug, Clone, Copy)]
struct Op {
    from: u32,
    to: u32,
    amount: u64,
}

fn op_strategy(max_node: u32) -> impl Strategy<Value = Op> {
    (0..max_node, 0..max_node, 0u64..2_000_000_000).prop_map(|(from, to, amount)| Op {
        from,
        to,
        amount,
    })
}

fn apply_mono(mono: &mut ReputationEngine, op: Op) {
    mono.graph_mut()
        .add_transfer(p(op.from), p(op.to), Bytes(op.amount));
}

fn apply_sharded(svc: &mut ShardedEngine, op: Op) {
    svc.add_transfer(p(op.from), p(op.to), Bytes(op.amount));
}

/// Community-label partitioning: labelled peers go to
/// `community % shards`, unlabelled ones where the hash partitioner
/// puts them.
#[derive(Debug)]
struct Communities(FxHashMap<PeerId, u32>);

impl Partitioner for Communities {
    fn shard_of(&self, peer: PeerId, shards: usize) -> usize {
        match self.0.get(&peer) {
            Some(&community) => community as usize % shards,
            None => HashPartitioner.shard_of(peer, shards),
        }
    }
}

/// Assert every evaluator's full sweep and a point query agree bitwise.
fn assert_identical(
    mono: &mut ReputationEngine,
    svc: &mut ShardedEngine,
    nodes: u32,
    context: &str,
) {
    let targets: Vec<PeerId> = (0..nodes).map(p).collect();
    for i in 0..nodes {
        let a = mono.reputations_from(p(i), &targets);
        let b = svc.reputations_from(p(i), &targets);
        let a_bits: Vec<u64> = a.iter().map(|v| v.to_bits()).collect();
        let b_bits: Vec<u64> = b.iter().map(|v| v.to_bits()).collect();
        assert_eq!(a_bits, b_bits, "{context}: sweep of evaluator {i} diverged");
        let j = (i * 7 + 3) % nodes;
        assert_eq!(
            mono.reputation(p(i), p(j)).to_bits(),
            svc.reputations_from(p(i), &[p(j)])[0].to_bits(),
            "{context}: point query R_{i}({j}) diverged"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Dense interleaving: query every evaluator after every small
    /// mutation batch, at every shard count.
    #[test]
    fn sharded_sweeps_match_monolith_interleaved(
        batches in prop::collection::vec(
            prop::collection::vec(op_strategy(24), 1..12), 1..5),
    ) {
        for shards in SHARD_COUNTS {
            let mut mono = ReputationEngine::new();
            let mut svc = ShardedEngine::new(shards);
            for (n, batch) in batches.iter().enumerate() {
                for &op in batch {
                    apply_mono(&mut mono, op);
                    apply_sharded(&mut svc, op);
                }
                assert_identical(&mut mono, &mut svc, 24,
                    &format!("shards={shards} batch={n}"));
            }
        }
    }

    /// Long sync gap: hundreds of mutations (touching a population
    /// that grows mid-run: ids 0..16, then 0..40, then 0..64) land
    /// before the first query, so the engines' incremental
    /// invalidation digests the whole backlog at once.
    #[test]
    fn sharded_sweeps_match_monolith_after_long_gap(
        early in prop::collection::vec(op_strategy(16), 20..80),
        mid in prop::collection::vec(op_strategy(40), 20..80),
        late in prop::collection::vec(op_strategy(64), 20..80),
    ) {
        for shards in SHARD_COUNTS {
            let mut mono = ReputationEngine::new();
            let mut svc = ShardedEngine::new(shards);
            for &op in early.iter().chain(&mid).chain(&late) {
                apply_mono(&mut mono, op);
                apply_sharded(&mut svc, op);
            }
            assert_identical(&mut mono, &mut svc, 64,
                &format!("shards={shards} after gap"));
        }
    }

    /// A community partition is just another total assignment:
    /// bit-identity must hold under it too, including for unlabeled
    /// (hash-fallback) peers.
    #[test]
    fn community_partitioner_preserves_bit_identity(
        ops in prop::collection::vec(op_strategy(32), 10..120),
        communities in prop::collection::vec(0u32..6, 20..21),
    ) {
        let mut labels = FxHashMap::default();
        for (i, &c) in communities.iter().enumerate() {
            labels.insert(p(i as u32), c); // peers 20..32 stay unlabeled
        }
        for shards in SHARD_COUNTS {
            let mut mono = ReputationEngine::new();
            let mut svc = ShardedEngine::new(shards)
                .with_partitioner(Arc::new(Communities(labels.clone())));
            for &op in &ops {
                apply_mono(&mut mono, op);
                apply_sharded(&mut svc, op);
            }
            assert_identical(&mut mono, &mut svc, 32,
                &format!("shards={shards} community partition"));
        }
    }
}

/// Deterministic 64-node, 512-edge fixture from a fixed LCG stream:
/// `(merge, op)`, a max-merged gossip record where `merge` is set and
/// a delta transfer otherwise.
fn pinned_ops() -> Vec<(bool, Op)> {
    let mut x = 0x243f6a8885a308d3u64; // pi digits, nothing up the sleeve
    let mut step = move || {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        x
    };
    (0..512)
        .map(|_| {
            let a = step();
            let b = step();
            let op = Op {
                from: ((a >> 33) % 64) as u32,
                to: ((b >> 33) % 64) as u32,
                amount: b % 4_000_000_000,
            };
            (a & 1 == 1, op)
        })
        .collect()
}

/// Wrapping sum of `to_bits` over the all-pairs reputation matrix.
fn all_pairs_checksum(values: impl Iterator<Item = f64>) -> u64 {
    values.fold(0u64, |acc, v| acc.wrapping_add(v.to_bits()))
}

/// The checksum of the pinned fixture, computed once and frozen.
/// Changing the flow kernel, the metric, or the merge semantics —
/// even in a way that keeps sharded and monolithic engines in
/// lockstep — moves this constant and must be a conscious decision.
const PINNED_CHECKSUM: u64 = 0xc18154679b29fd84;

/// On a planted-partition graph a community partition keeps every
/// intra-community edge shard-local, while the structure-oblivious
/// hash partitioner scatters them — the gap is the cross-shard
/// storage (each cross-shard edge kept at both owners) the community
/// assignment exists to avoid.
#[test]
fn community_partitioner_is_local_on_planted_graph() {
    const COMMUNITIES: u32 = 8;
    const SIZE: u32 = 16;
    const SHARDS: usize = 4;
    let mut labels = FxHashMap::default();
    for i in 0..COMMUNITIES * SIZE {
        labels.insert(p(i), i / SIZE);
    }
    let build = |svc: &mut ShardedEngine| {
        for c in 0..COMMUNITIES {
            let base = c * SIZE;
            // intra-community ring plus chords: all local under the
            // community assignment
            for k in 0..SIZE {
                svc.add_transfer(p(base + k), p(base + (k + 1) % SIZE), Bytes(1000));
                svc.add_transfer(p(base + k), p(base + (k + 5) % SIZE), Bytes(500));
            }
            // one sparse cross-link per community
            svc.add_transfer(p(base), p(((c + 1) % COMMUNITIES) * SIZE), Bytes(10));
        }
    };
    let mut community = ShardedEngine::new(SHARDS).with_partitioner(Arc::new(Communities(labels)));
    build(&mut community);
    let mut hashed = ShardedEngine::new(SHARDS);
    build(&mut hashed);

    // 256 intra edges vs 8 cross links: only cross links may be remote
    let intra = (COMMUNITIES * SIZE * 2) as f64;
    let total = intra + COMMUNITIES as f64;
    let (community, hashed) = (community.stats(), hashed.stats());
    assert!(
        community.locality >= intra / total,
        "community locality {} below the intra-community fraction",
        community.locality
    );
    assert!(
        hashed.locality < 0.5,
        "hash partitioner should scatter the planted graph, locality {}",
        hashed.locality
    );
    assert!(
        community.replica_edges <= hashed.replica_edges,
        "community partition must not store more edges than hash"
    );
}

#[test]
fn pinned_64_node_fixture_checksum() {
    let targets: Vec<PeerId> = (0..64).map(p).collect();
    let mut mono = ReputationEngine::new();
    for (merge, op) in pinned_ops() {
        if merge {
            mono.graph_mut()
                .merge_record(p(op.from), p(op.to), Bytes(op.amount));
        } else {
            apply_mono(&mut mono, op);
        }
    }
    let mono_sum =
        all_pairs_checksum((0..64).flat_map(|i| mono.reputations_from(p(i), &targets).into_iter()));
    assert_eq!(
        mono_sum, PINNED_CHECKSUM,
        "monolithic all-pairs checksum moved: got {mono_sum:#018x}"
    );
    // the service ingests the fixture's union graph, one transfer of
    // each edge's final weight onto the absent edge
    let union: Vec<_> = mono.graph().edges().collect();
    for shards in SHARD_COUNTS {
        let mut svc = ShardedEngine::new(shards);
        for &(from, to, weight) in &union {
            svc.add_transfer(from, to, weight);
        }
        let sum = all_pairs_checksum(
            (0..64).flat_map(|i| svc.reputations_from(p(i), &targets).into_iter()),
        );
        assert_eq!(
            sum, PINNED_CHECKSUM,
            "sharded ({shards}) all-pairs checksum moved: got {sum:#018x}"
        );
    }
}

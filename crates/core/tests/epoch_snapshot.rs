//! Epoch-snapshot consistency under concurrent writes.
//!
//! A published [`EpochView`] is an immutable value: while the owning
//! shard's writer keeps mutating the live graph, concurrent readers
//! of the epoch must never observe a torn cut — every read equals the
//! **pure epoch-version replay**, i.e. the answer of a fresh
//! monolithic engine that applied exactly the mutations up to the
//! publication point and nothing after it. The property here runs a
//! real writer thread against real reader threads and compares every
//! concurrent read bitwise against the replay; the deterministic
//! tests cover the empty-shard and single-peer-shard edge cases the
//! proptest's random populations may not isolate.

use std::sync::Arc;

use bartercast_core::{CommunityPartitioner, ReputationEngine, ShardedEngine};
use bartercast_util::units::{Bytes, PeerId};
use bartercast_util::FxHashMap;
use proptest::prelude::*;

fn p(i: u32) -> PeerId {
    PeerId(i)
}

#[derive(Debug, Clone, Copy)]
struct Op {
    merge: bool,
    from: u32,
    to: u32,
    amount: u64,
}

fn op_strategy(max_node: u32) -> impl Strategy<Value = Op> {
    (any::<bool>(), 0..max_node, 0..max_node, 0u64..2_000_000_000).prop_map(
        |(merge, from, to, amount)| Op {
            merge,
            from,
            to,
            amount,
        },
    )
}

fn apply_sharded(svc: &mut ShardedEngine, op: Op) {
    if op.merge {
        svc.merge_record(p(op.from), p(op.to), Bytes(op.amount));
    } else {
        svc.add_transfer(p(op.from), p(op.to), Bytes(op.amount));
    }
}

fn apply_mono(mono: &mut ReputationEngine, op: Op) {
    if op.merge {
        mono.graph_mut()
            .merge_record(p(op.from), p(op.to), Bytes(op.amount));
    } else {
        mono.graph_mut()
            .add_transfer(p(op.from), p(op.to), Bytes(op.amount));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Readers racing a live writer always see exactly the published
    /// cut: every concurrent epoch read is bitwise equal to replaying
    /// the pre-publication prefix into a fresh monolithic engine.
    #[test]
    fn concurrent_reads_equal_prefix_replay(
        prefix in prop::collection::vec(op_strategy(20), 5..60),
        suffix in prop::collection::vec(op_strategy(20), 20..120),
    ) {
        const NODES: u32 = 20;
        const SHARDS: usize = 4;
        let mut svc = ShardedEngine::new(SHARDS);
        for &op in &prefix {
            apply_sharded(&mut svc, op);
        }
        let views = svc.publish_all();

        // the pure replay of the publication prefix
        let mut replay = ReputationEngine::new();
        for &op in &prefix {
            apply_mono(&mut replay, op);
        }
        let targets: Vec<PeerId> = (0..NODES).map(p).collect();
        let mut expected: FxHashMap<u32, Vec<u64>> = FxHashMap::default();
        let owner_of: Vec<usize> = (0..NODES).map(|i| svc.shard_of(p(i))).collect();
        for i in 0..NODES {
            expected.insert(
                i,
                replay
                    .reputations_from(p(i), &targets)
                    .iter()
                    .map(|v| v.to_bits())
                    .collect(),
            );
        }

        std::thread::scope(|scope| {
            // writer: keeps mutating the live shards after publication
            let writer = scope.spawn(|| {
                for &op in &suffix {
                    apply_sharded(&mut svc, op);
                }
            });
            // readers: hammer the frozen epochs while the writer runs
            let mut readers = Vec::new();
            for r in 0..2usize {
                let views = &views;
                let targets = &targets;
                let expected = &expected;
                let owner_of = &owner_of;
                readers.push(scope.spawn(move || {
                    for pass in 0..4 {
                        for i in 0..NODES {
                            let view = &views[owner_of[i as usize]];
                            let got: Vec<u64> = view
                                .reputations_from(p(i), targets)
                                .iter()
                                .map(|v| v.to_bits())
                                .collect();
                            assert_eq!(
                                &got, &expected[&i],
                                "reader {r} pass {pass}: evaluator {i} saw a torn cut"
                            );
                        }
                    }
                }));
            }
            writer.join().unwrap();
            for reader in readers {
                reader.join().unwrap();
            }
        });

        // after the writer finishes the epochs still serve the old cut
        for i in 0..NODES {
            let view = &views[owner_of[i as usize]];
            let got: Vec<u64> = view
                .reputations_from(p(i), &targets)
                .iter()
                .map(|v| v.to_bits())
                .collect();
            prop_assert_eq!(&got, &expected[&i], "evaluator {} drifted post-join", i);
        }
    }
}

/// An epoch published by a shard that owns no peers (and stores no
/// edges) answers every query with the neutral reputation.
#[test]
fn empty_shard_epoch_serves_neutral_answers() {
    let mut svc = ShardedEngine::new(8);
    // two peers, one edge: at most a handful of the 8 shards are
    // populated, the rest publish empty epochs
    svc.add_transfer(p(1), p(0), Bytes::from_mb(100));
    let views = svc.publish_all();
    let populated: Vec<usize> = vec![svc.shard_of(p(0)), svc.shard_of(p(1))];
    let mut saw_empty = false;
    for (s, view) in views.iter().enumerate() {
        if populated.contains(&s) {
            continue;
        }
        saw_empty = true;
        assert_eq!(view.graph().node_count(), 0, "shard {s} should be empty");
        assert_eq!(view.reputations_from(p(0), &[p(1)]), vec![0.0]);
        assert_eq!(
            view.reputations_from(p(5), &[p(0), p(1), p(5)]),
            vec![0.0, 0.0, 0.0]
        );
    }
    assert!(saw_empty, "fixture must leave at least one shard empty");
}

/// A shard owning exactly one peer still replicates that peer's
/// two-hop neighbourhood: its epoch answers the owned evaluator
/// bit-identically to the monolith, while a concurrent writer mutates
/// other shards.
#[test]
fn single_peer_shard_epoch_matches_monolith() {
    // community partition: peer 9 alone in community 1 → shard 1;
    // everyone else in community 0 → shard 0 (of 2 shards)
    let mut labels = FxHashMap::default();
    for i in 0..12u32 {
        labels.insert(p(i), u32::from(i == 9));
    }
    let mut svc =
        ShardedEngine::new(2).with_partitioner(Arc::new(CommunityPartitioner::new(labels)));
    let mut mono = ReputationEngine::new();
    let ops = [
        (0u32, 9u32, 700u64),
        (9, 2, 350),
        (2, 9, 125),
        (3, 4, 900),
        (4, 9, 60),
        (9, 0, 40),
        (5, 6, 800),
    ];
    for &(f, t, mb) in &ops {
        svc.add_transfer(p(f), p(t), Bytes::from_mb(mb));
        mono.graph_mut()
            .add_transfer(p(f), p(t), Bytes::from_mb(mb));
    }
    assert_eq!(svc.shard_of(p(9)), 1);
    let lone = svc.publish_epoch(1);
    let targets: Vec<PeerId> = (0..12).map(p).collect();
    let expected: Vec<u64> = mono
        .reputations_from(p(9), &targets)
        .iter()
        .map(|v| v.to_bits())
        .collect();
    std::thread::scope(|scope| {
        let writer = scope.spawn(|| {
            for round in 1..50u64 {
                svc.add_transfer(p(3), p(4), Bytes::from_mb(round));
                svc.merge_record(p(5), p(6), Bytes::from_gb(round));
            }
        });
        let lone = &lone;
        let targets = &targets;
        let expected = &expected;
        let reader = scope.spawn(move || {
            for _ in 0..20 {
                let got: Vec<u64> = lone
                    .reputations_from(p(9), targets)
                    .iter()
                    .map(|v| v.to_bits())
                    .collect();
                assert_eq!(&got, expected, "lone-peer epoch diverged from monolith");
            }
        });
        writer.join().unwrap();
        reader.join().unwrap();
    });
}

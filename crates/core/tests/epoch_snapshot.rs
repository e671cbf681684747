//! Epoch-snapshot consistency under concurrent writes.
//!
//! A published [`EpochView`] is an immutable value: while the
//! service's writer keeps mutating the live shards, concurrent readers
//! of the epoch must never observe a torn cut — every read equals the
//! **pure epoch-version replay**, i.e. the answer of a fresh
//! monolithic engine that applied exactly the mutations up to the
//! publication point and nothing after it. The property here runs a
//! real writer thread against real reader threads and compares every
//! concurrent read bitwise against the replay; the deterministic
//! tests cover an empty shard's view, a cut that a write to other
//! shards must not move, and a single-peer shard — cases the
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

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// Every view of a publication, an empty shard's included, is a cut of
/// the whole service: it answers any evaluator exactly as the monolith
/// did at publication, while the empty shard's own graph stays empty.
#[test]
fn every_view_answers_any_evaluator_as_the_monolith() {
    let mut svc = ShardedEngine::new(8);
    let mut mono = ReputationEngine::new();
    // four peers: at least four of the 8 shards own none of them
    for (f, t, mb) in [(1u32, 0u32, 100u64), (2, 1, 40), (0, 3, 25), (3, 2, 70)] {
        svc.add_transfer(p(f), p(t), Bytes::from_mb(mb));
        mono.graph_mut()
            .add_transfer(p(f), p(t), Bytes::from_mb(mb));
    }
    let views = svc.publish_all();
    let populated: Vec<usize> = (0..4).map(|i| svc.shard_of(p(i))).collect();
    let targets: Vec<PeerId> = (0..6).map(p).collect();
    assert_ne!(
        mono.reputations_from(p(0), &[p(2)]),
        vec![0.0],
        "vacuous fixture"
    );
    let mut saw_empty = false;
    for (s, view) in views.iter().enumerate() {
        for i in 0..6 {
            assert_eq!(
                bits(&view.reputations_from(p(i), &targets)),
                bits(&mono.reputations_from(p(i), &targets)),
                "view of shard {s}, evaluator {i}"
            );
        }
        if !populated.contains(&s) {
            saw_empty = true;
            assert_eq!(view.graph().node_count(), 0, "shard {s} should be empty");
        }
    }
    assert!(saw_empty, "fixture must leave at least one shard empty");
}

/// A view is a consistent cut: a write after publication to an edge
/// whose endpoints both belong to other shards, through a middle node
/// of the view's evaluator, moves the live answer but not the view's,
/// and copies only the two shards it was written to.
#[test]
fn a_write_elsewhere_after_publication_leaves_the_cut_alone() {
    // evaluator 0 on shard 0, its middle 1 on shard 1, target 2 on
    // shard 2
    let labels: FxHashMap<PeerId, u32> = (0..3).map(|i| (p(i), i)).collect();
    let mut svc =
        ShardedEngine::new(3).with_partitioner(Arc::new(CommunityPartitioner::new(labels)));
    svc.add_transfer(p(0), p(1), Bytes::from_mb(500));
    svc.add_transfer(p(2), p(1), Bytes::from_mb(300));
    svc.add_transfer(p(1), p(0), Bytes::from_mb(200));
    let targets = [p(1), p(2)];
    let before = svc.reputations_from(p(0), &targets);
    let view = svc.publish_epoch(0);
    assert_eq!(bits(&view.reputations_from(p(0), &targets)), bits(&before));

    svc.add_transfer(p(1), p(2), Bytes::from_mb(400));
    assert_eq!(
        bits(&view.reputations_from(p(0), &targets)),
        bits(&before),
        "the view moved with a write made after its publication"
    );
    let after = svc.reputations_from(p(0), &targets);
    assert_ne!(after[1], before[1], "the write must move the live answer");
    assert_eq!(
        svc.stats().graph_copies,
        2,
        "only shards 1 and 2 were written"
    );
    assert!(std::ptr::eq(view.graph(), svc.shard_engine(0).graph()));
}

/// The epoch of a shard owning exactly one peer reads that peer's
/// neighbours at their owner: it answers the owned evaluator
/// bit-identically to the monolith, while a concurrent writer mutates
/// the other shard.
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

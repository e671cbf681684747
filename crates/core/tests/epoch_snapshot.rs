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

use bartercast_core::{ReputationEngine, ShardedEngine};
use bartercast_util::units::{Bytes, PeerId};
use bartercast_util::FxHashMap;
use proptest::prelude::*;

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

fn apply_sharded(svc: &mut ShardedEngine, op: Op) {
    svc.add_transfer(p(op.from), p(op.to), Bytes(op.amount));
}

fn apply_mono(mono: &mut ReputationEngine, op: Op) {
    mono.graph_mut()
        .add_transfer(p(op.from), p(op.to), Bytes(op.amount));
}

/// The first `count` peer ids the service places on shard `s`.
fn owned_by(svc: &ShardedEngine, s: usize, count: usize) -> Vec<PeerId> {
    (0..)
        .map(p)
        .filter(|&i| svc.shard_of(i) == s)
        .take(count)
        .collect()
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
/// did at publication.
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
        saw_empty |= !populated.contains(&s);
    }
    assert!(saw_empty, "fixture must leave at least one shard empty");
}

/// A view is a consistent cut: a write after publication to an edge
/// whose endpoints both belong to other shards, through a middle node
/// of the view's evaluator, moves the live answer but not the view's,
/// and copies only the two shards it was written to.
#[test]
fn a_write_elsewhere_after_publication_leaves_the_cut_alone() {
    // evaluator on shard 0, its middle on shard 1, target on shard 2
    let mut svc = ShardedEngine::new(3);
    let [evaluator, middle, target] = [0, 1, 2].map(|s| owned_by(&svc, s, 1)[0]);
    svc.add_transfer(evaluator, middle, Bytes::from_mb(500));
    svc.add_transfer(target, middle, Bytes::from_mb(300));
    svc.add_transfer(middle, evaluator, Bytes::from_mb(200));
    let targets = [middle, target];
    let before = svc.reputations_from(evaluator, &targets);
    let views = svc.publish_all();
    let view = &views[0];
    assert_eq!(
        bits(&view.reputations_from(evaluator, &targets)),
        bits(&before)
    );

    svc.add_transfer(middle, target, Bytes::from_mb(400));
    assert_eq!(
        bits(&view.reputations_from(evaluator, &targets)),
        bits(&before),
        "the view moved with a write made after its publication"
    );
    let after = svc.reputations_from(evaluator, &targets);
    assert_ne!(after[1], before[1], "the write must move the live answer");
    assert_eq!(
        svc.stats().graph_copies,
        2,
        "only shards 1 and 2 were written"
    );
}

/// The epoch of a shard owning exactly one peer reads that peer's
/// neighbours at their owner: it answers the owned evaluator
/// bit-identically to the monolith, while a concurrent writer mutates
/// the other shard.
#[test]
fn single_peer_shard_epoch_matches_monolith() {
    // twelve peers, `ids[9]` the only one on shard 1 (of 2 shards)
    let mut svc = ShardedEngine::new(2);
    let mut ids = owned_by(&svc, 0, 11);
    ids.insert(9, owned_by(&svc, 1, 1)[0]);
    let mut mono = ReputationEngine::new();
    let ops = [
        (0usize, 9usize, 700u64),
        (9, 2, 350),
        (2, 9, 125),
        (3, 4, 900),
        (4, 9, 60),
        (9, 0, 40),
        (5, 6, 800),
    ];
    for &(f, t, mb) in &ops {
        svc.add_transfer(ids[f], ids[t], Bytes::from_mb(mb));
        mono.graph_mut()
            .add_transfer(ids[f], ids[t], Bytes::from_mb(mb));
    }
    let lone = ids[9];
    assert_eq!(svc.shard_of(lone), 1);
    let views = svc.publish_all();
    let expected = bits(&mono.reputations_from(lone, &ids));
    std::thread::scope(|scope| {
        let writer = scope.spawn(|| {
            for round in 1..50u64 {
                svc.add_transfer(ids[3], ids[4], Bytes::from_mb(round));
                svc.add_transfer(ids[5], ids[6], Bytes::from_gb(round));
            }
        });
        let view = &views[1];
        let (ids, expected) = (&ids, &expected);
        let reader = scope.spawn(move || {
            for _ in 0..20 {
                let got = bits(&view.reputations_from(lone, ids));
                assert_eq!(&got, expected, "lone-peer epoch diverged from monolith");
            }
        });
        writer.join().unwrap();
        reader.join().unwrap();
    });
}

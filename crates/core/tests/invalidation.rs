//! Property tests for the engine across graph changes: after any
//! interleaving of `add_transfer` / `merge_record` mutations and
//! reputation queries, a `ReputationEngine` must return exactly what
//! maxflow on a throwaway network of the same graph, mapped through the
//! metric, computes. The closed-form bounds keep nothing between
//! queries; `Bounded(k ≥ 3)` and `Dinic` memoize, and their memo may
//! never serve a stale value.

use bartercast_core::{reputation_from_flows, ReputationEngine};
use bartercast_graph::maxflow::{self, Method};
use bartercast_util::units::{Bytes, PeerId};
use proptest::prelude::*;

/// Interleaved mutations and queries over a small peer universe:
/// `(from, to, amount, merge)` per step, with a query sweep after
/// every step.
fn ops_strategy() -> impl Strategy<Value = Vec<(u32, u32, u64, bool)>> {
    prop::collection::vec((0u32..6, 0u32..6, 1u64..1000, prop::bool::ANY), 1..30)
}

/// The methods an entry point selects: the deployed bound, the
/// ablation's three-hop bound, and unbounded Dinic.
const METHODS: [Method; 3] = [Method::DEPLOYED, Method::Bounded(3), Method::Dinic];

fn write(e: &mut ReputationEngine, (f, t, c, merge): (u32, u32, u64, bool)) {
    if merge {
        e.graph_mut().merge_record(PeerId(f), PeerId(t), Bytes(c));
    } else {
        e.graph_mut().add_transfer(PeerId(f), PeerId(t), Bytes(c));
    }
}

/// `R_i(j)` from scratch, bit for bit: the engine's method on a
/// throwaway network of its graph, then the default metric.
fn reference(e: &ReputationEngine, i: PeerId, j: PeerId) -> u64 {
    let flow = |s, t| maxflow::compute(e.graph(), s, t, e.method());
    reputation_from_flows(flow(j, i), flow(i, j)).to_bits()
}

/// A burst of `churn` mutations with no query in between.
fn churn(e: &mut ReputationEngine, churn: u64) {
    for k in 0..churn {
        e.graph_mut().add_transfer(
            PeerId((k % 6) as u32),
            PeerId(((k + 1) % 6) as u32),
            Bytes(1 + k % 97),
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn warm_cache_always_matches_cold_engine(
        ops in ops_strategy(),
        method in 0usize..3,
        qs in 0u32..6,
        qt in 0u32..6,
    ) {
        let mut warm = ReputationEngine::new().with_method(METHODS[method]);
        for &op in &ops {
            write(&mut warm, op);
            // query after every mutation so a memo holds entries
            // spanning many graph versions
            let got = warm.reputation(PeerId(qs), PeerId(qt));
            prop_assert_eq!(
                got.to_bits(),
                reference(&warm, PeerId(qs), PeerId(qt)),
                "stale reputation after {} ops", ops.len()
            );
        }
    }

    #[test]
    fn warm_batch_always_matches_cold_engine(
        ops in ops_strategy(),
        method in 0usize..3,
        source in 0u32..6,
    ) {
        // one evaluator batch after batch, a write between each: a
        // batch may never answer from an earlier batch's flows
        let targets: Vec<PeerId> = (0..6).map(PeerId).collect();
        let mut warm = ReputationEngine::new().with_method(METHODS[method]);
        for &op in &ops {
            write(&mut warm, op);
            let got = warm.reputations_from(PeerId(source), &targets);
            for (&j, &g) in targets.iter().zip(&got) {
                prop_assert_eq!(g.to_bits(), reference(&warm, PeerId(source), j), "R_{}({})", source, j);
            }
        }
    }

    #[test]
    fn full_sweep_memo_with_tiny_budget_is_never_stale(ops in ops_strategy()) {
        // the Bounded(2) batch sweeps the evaluator's whole two-hop
        // ball into one reused buffer; rotating the evaluator, no entry
        // another sweep left behind may surface
        let targets: Vec<PeerId> = (0..6).map(PeerId).collect();
        let mut warm = ReputationEngine::new();
        for (step, &op) in ops.iter().enumerate() {
            write(&mut warm, op);
            let source = PeerId((step % 6) as u32);
            let got = warm.reputations_from(source, &targets);
            for (&j, &g) in targets.iter().zip(&got) {
                prop_assert_eq!(g.to_bits(), reference(&warm, source, j), "R_{:?}({}) stale", source, j);
            }
        }
    }

    #[test]
    fn unbounded_batch_always_matches_cold_engine(ops in ops_strategy(), source in 0u32..6) {
        // unbounded methods have no sweep kernel and clear the whole
        // memo on any change; the warm batch must agree bitwise with
        // the reference at every version
        let targets: Vec<PeerId> = (0..6).map(PeerId).collect();
        let mut warm = ReputationEngine::new().with_method(Method::Dinic);
        for &(f, t, c, merge) in &ops {
            write(&mut warm, (f, t, c, merge));
            // mirror every mutation with probability ~1/2 via the merge
            // flag so exactly symmetric graphs (both Equation-1 flows
            // equal, reputation 0.0) occur among the asymmetric ones
            if merge {
                warm.graph_mut().merge_record(PeerId(t), PeerId(f), Bytes(c));
            }
            let got = warm.reputations_from(PeerId(source), &targets);
            for (&j, &g) in targets.iter().zip(&got) {
                prop_assert_eq!(g.to_bits(), reference(&warm, PeerId(source), j), "R_{}({})", source, j);
            }
        }
    }

    #[test]
    fn endpoint_eviction_survives_long_sync_gaps(
        ops in ops_strategy(),
        gap in 1u64..3,
        qs in 0u32..6,
        qt in 0u32..6,
    ) {
        // multiples of 4096 mutations (the cap a change log once had)
        // between queries: the deployed engine reads only the graph
        let mut warm = ReputationEngine::new();
        for &op in &ops {
            write(&mut warm, op);
            churn(&mut warm, gap * 4096);
            let got = warm.reputation(PeerId(qs), PeerId(qt));
            prop_assert_eq!(got.to_bits(), reference(&warm, PeerId(qs), PeerId(qt)), "stale after a {}-mutation gap", gap * 4096);
        }
    }

    #[test]
    fn adversarial_query_mix_never_stale_under_lru(
        ops in ops_strategy(),
        method in 0usize..3,
        hot_s in 0u32..6,
        hot_t in 0u32..6,
    ) {
        // one hot pair queried between sweeps from every other
        // evaluator: values may never drift or go stale
        let targets: Vec<PeerId> = (0..6).map(PeerId).collect();
        let mut warm = ReputationEngine::new().with_method(METHODS[method]);
        for (step, &op) in ops.iter().enumerate() {
            write(&mut warm, op);
            let hot = warm.reputation(PeerId(hot_s), PeerId(hot_t));
            let sweeper = PeerId((step % 6) as u32);
            let swept = warm.reputations_from(sweeper, &targets);
            let hot_again = warm.reputation(PeerId(hot_s), PeerId(hot_t));
            prop_assert_eq!(hot.to_bits(), hot_again.to_bits(), "hot pair value drifted");
            prop_assert_eq!(hot.to_bits(), reference(&warm, PeerId(hot_s), PeerId(hot_t)), "hot pair stale");
            for (&j, &g) in targets.iter().zip(&swept) {
                prop_assert_eq!(g.to_bits(), reference(&warm, sweeper, j));
            }
        }
    }

    #[test]
    fn full_clear_never_stale_across_sync_gaps(
        ops in ops_strategy(),
        k in 3usize..6,
        gap in 1u64..3,
        qs in 0u32..6,
        qt in 0u32..6,
    ) {
        // finite bounds k ≥ 3 clear the whole memo on any change, as
        // the unbounded methods do; long mutation bursts between
        // queries, bitwise agreement with the reference at every step
        let mut warm = ReputationEngine::new().with_method(Method::Bounded(k));
        for &op in &ops {
            write(&mut warm, op);
            churn(&mut warm, gap * 4096);
            let got = warm.reputation(PeerId(qs), PeerId(qt));
            prop_assert_eq!(got.to_bits(), reference(&warm, PeerId(qs), PeerId(qt)), "stale at k={}", k);
        }
    }

    #[test]
    fn bounded_one_eviction_is_safe(ops in ops_strategy(), qs in 0u32..6, qt in 0u32..6) {
        // Bounded(1) reads the direct edges alone
        let mut warm = ReputationEngine::new().with_method(Method::Bounded(1));
        for &op in &ops {
            write(&mut warm, op);
            let got = warm.reputation(PeerId(qs), PeerId(qt));
            prop_assert_eq!(got.to_bits(), reference(&warm, PeerId(qs), PeerId(qt)));
        }
    }
}

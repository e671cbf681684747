//! Property tests for incremental cache invalidation: after any
//! interleaving of `add_transfer` / `merge_record` mutations and
//! reputation queries, a `ReputationEngine` must return exactly what a
//! cold engine computes on the same graph — the dirty-endpoint
//! eviction may never serve a stale memoized value.

use bartercast_core::ReputationEngine;
use bartercast_graph::maxflow::Method;
use bartercast_util::units::{Bytes, PeerId};
use proptest::prelude::*;

/// Interleaved mutations and queries over a small peer universe:
/// `(from, to, amount, merge)` per step, with a query sweep after
/// every step.
fn ops_strategy() -> impl Strategy<Value = Vec<(u32, u32, u64, bool)>> {
    prop::collection::vec((0u32..6, 0u32..6, 1u64..1000, prop::bool::ANY), 1..30)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn warm_cache_always_matches_cold_engine(ops in ops_strategy(), qs in 0u32..6, qt in 0u32..6) {
        let mut warm = ReputationEngine::new();
        for &(f, t, c, merge) in &ops {
            if merge {
                warm.graph_mut().merge_record(PeerId(f), PeerId(t), Bytes(c));
            } else {
                warm.graph_mut().add_transfer(PeerId(f), PeerId(t), Bytes(c));
            }
            // query after every mutation so the cache holds entries
            // spanning many graph versions
            let got = warm.reputation(PeerId(qs), PeerId(qt));
            let mut cold = ReputationEngine::new();
            *cold.graph_mut() = warm.graph().clone();
            let want = cold.reputation(PeerId(qs), PeerId(qt));
            prop_assert_eq!(
                got.to_bits(),
                want.to_bits(),
                "stale reputation after {} ops: warm {got} vs cold {want}",
                ops.len()
            );
        }
    }

    #[test]
    fn warm_batch_always_matches_cold_engine(ops in ops_strategy(), source in 0u32..6) {
        let targets: Vec<PeerId> = (0..6).map(PeerId).collect();
        let mut warm = ReputationEngine::new();
        for &(f, t, c, merge) in &ops {
            if merge {
                warm.graph_mut().merge_record(PeerId(f), PeerId(t), Bytes(c));
            } else {
                warm.graph_mut().add_transfer(PeerId(f), PeerId(t), Bytes(c));
            }
            let got = warm.reputations_from(PeerId(source), &targets);
            let mut cold = ReputationEngine::new();
            *cold.graph_mut() = warm.graph().clone();
            for (&j, &g) in targets.iter().zip(&got) {
                let want = cold.reputation(PeerId(source), j);
                prop_assert_eq!(g.to_bits(), want.to_bits(), "R_{source}({j})");
            }
        }
    }

    #[test]
    fn full_sweep_memo_with_tiny_budget_is_never_stale(
        ops in ops_strategy(),
        budget in 0usize..8,
    ) {
        // the Bounded(2) batch path memoizes each evaluator's *entire*
        // single-source result set under a per-entry LRU budget;
        // neither the full-sweep fill nor the eviction may ever
        // surface a stale value, at any budget (including 0, where
        // every insertion is immediately evicted)
        let targets: Vec<PeerId> = (0..6).map(PeerId).collect();
        let mut warm = ReputationEngine::new().with_cache_budget(budget);
        for (step, &(f, t, c, merge)) in ops.iter().enumerate() {
            if merge {
                warm.graph_mut().merge_record(PeerId(f), PeerId(t), Bytes(c));
            } else {
                warm.graph_mut().add_transfer(PeerId(f), PeerId(t), Bytes(c));
            }
            // rotate the evaluator so sweeps from many sources compete
            // for the budget and eviction actually fires
            let source = PeerId((step % 6) as u32);
            let got = warm.reputations_from(source, &targets);
            let mut cold = ReputationEngine::new();
            *cold.graph_mut() = warm.graph().clone();
            for (&j, &g) in targets.iter().zip(&got) {
                let want = cold.reputation(source, j);
                prop_assert_eq!(
                    g.to_bits(),
                    want.to_bits(),
                    "R_{source:?}({j}) stale at budget {budget}"
                );
            }
        }
    }

    #[test]
    fn unbounded_batch_always_matches_cold_engine(ops in ops_strategy(), source in 0u32..6) {
        // unbounded methods have no sweep kernel and clear the whole
        // memo on any change; the warm batch must agree bitwise with a
        // cold per-pair engine at every version
        let targets: Vec<PeerId> = (0..6).map(PeerId).collect();
        let mut warm = ReputationEngine::new().with_method(Method::Dinic);
        for &(f, t, c, merge) in &ops {
            if merge {
                warm.graph_mut().merge_record(PeerId(f), PeerId(t), Bytes(c));
            } else {
                warm.graph_mut().add_transfer(PeerId(f), PeerId(t), Bytes(c));
            }
            // mirror every mutation with probability ~1/2 via the merge
            // flag so exactly symmetric graphs (both Equation-1 flows
            // equal, reputation 0.0) occur among the asymmetric ones
            if merge {
                warm.graph_mut().merge_record(PeerId(t), PeerId(f), Bytes(c));
            }
            let got = warm.reputations_from(PeerId(source), &targets);
            let mut cold = ReputationEngine::new().with_method(Method::Dinic);
            *cold.graph_mut() = warm.graph().clone();
            for (&j, &g) in targets.iter().zip(&got) {
                let want = cold.reputation(PeerId(source), j);
                prop_assert_eq!(g.to_bits(), want.to_bits(), "R_{source}({j})");
            }
        }
    }

    #[test]
    fn endpoint_eviction_survives_long_sync_gaps(
        ops in ops_strategy(),
        gap in 1usize..3,
        qs in 0u32..6,
        qt in 0u32..6,
    ) {
        // the engine reads the graph's per-node change versions, not a
        // capped change log, so a warm cache that falls arbitrarily
        // far behind (here: multiples of 4096 mutations, the cap such
        // a log once had, between syncs) must still evict precisely
        // and never go stale
        let mut warm = ReputationEngine::new();
        let churn = gap * 4096;
        for &(f, t, c, merge) in &ops {
            if merge {
                warm.graph_mut().merge_record(PeerId(f), PeerId(t), Bytes(c));
            } else {
                warm.graph_mut().add_transfer(PeerId(f), PeerId(t), Bytes(c));
            }
            // long burst of mutations with no query in between
            for k in 0..churn as u64 {
                warm.graph_mut().add_transfer(
                    PeerId((k % 6) as u32),
                    PeerId(((k + 1) % 6) as u32),
                    Bytes(1 + k % 97),
                );
            }
            let got = warm.reputation(PeerId(qs), PeerId(qt));
            let mut cold = ReputationEngine::new();
            *cold.graph_mut() = warm.graph().clone();
            let want = cold.reputation(PeerId(qs), PeerId(qt));
            prop_assert_eq!(got.to_bits(), want.to_bits(), "stale after {}-mutation gap", churn);
        }
    }

    #[test]
    fn adversarial_query_mix_never_stale_under_lru(
        ops in ops_strategy(),
        budget in 1usize..6,
        hot_s in 0u32..6,
        hot_t in 0u32..6,
    ) {
        // adversarial mix for the per-entry LRU: one hot pair queried
        // between sweeps from every other evaluator, with a budget
        // small enough that eviction fires constantly; hits and misses
        // may vary, values may not
        let targets: Vec<PeerId> = (0..6).map(PeerId).collect();
        let mut warm = ReputationEngine::new().with_cache_budget(budget);
        for (step, &(f, t, c, merge)) in ops.iter().enumerate() {
            if merge {
                warm.graph_mut().merge_record(PeerId(f), PeerId(t), Bytes(c));
            } else {
                warm.graph_mut().add_transfer(PeerId(f), PeerId(t), Bytes(c));
            }
            let hot = warm.reputation(PeerId(hot_s), PeerId(hot_t));
            let sweeper = PeerId((step % 6) as u32);
            let swept = warm.reputations_from(sweeper, &targets);
            let hot_again = warm.reputation(PeerId(hot_s), PeerId(hot_t));
            prop_assert_eq!(hot.to_bits(), hot_again.to_bits(), "hot pair value drifted");
            let mut cold = ReputationEngine::new();
            *cold.graph_mut() = warm.graph().clone();
            prop_assert_eq!(
                hot.to_bits(),
                cold.reputation(PeerId(hot_s), PeerId(hot_t)).to_bits(),
                "hot pair stale at budget {budget}"
            );
            for (&j, &g) in targets.iter().zip(&swept) {
                prop_assert_eq!(g.to_bits(), cold.reputation(sweeper, j).to_bits());
            }
        }
    }

    #[test]
    fn full_clear_never_stale_across_sync_gaps(
        ops in ops_strategy(),
        k in 3usize..6,
        gap in 1usize..3,
        qs in 0u32..6,
        qt in 0u32..6,
    ) {
        // finite bounds k ≥ 3 clear the whole memo on any change, as
        // the unbounded methods do; like
        // `endpoint_eviction_survives_long_sync_gaps` this interleaves
        // long mutation bursts with queries and demands bitwise
        // agreement with a cold engine at every step
        let mut warm = ReputationEngine::new().with_method(Method::Bounded(k));
        let churn = gap * 4096;
        for &(f, t, c, merge) in &ops {
            if merge {
                warm.graph_mut().merge_record(PeerId(f), PeerId(t), Bytes(c));
            } else {
                warm.graph_mut().add_transfer(PeerId(f), PeerId(t), Bytes(c));
            }
            for m in 0..churn as u64 {
                warm.graph_mut().add_transfer(
                    PeerId((m % 6) as u32),
                    PeerId(((m + 1) % 6) as u32),
                    Bytes(1 + m % 97),
                );
            }
            let got = warm.reputation(PeerId(qs), PeerId(qt));
            let mut cold = ReputationEngine::new().with_method(Method::Bounded(k));
            *cold.graph_mut() = warm.graph().clone();
            let want = cold.reputation(PeerId(qs), PeerId(qt));
            prop_assert_eq!(
                got.to_bits(),
                want.to_bits(),
                "stale at k={} after {}-mutation gap", k, churn
            );
        }
    }

    #[test]
    fn bounded_one_eviction_is_safe(ops in ops_strategy(), qs in 0u32..6, qt in 0u32..6) {
        // Bounded(1) uses the same incremental eviction rule as
        // Bounded(2); the dirty set is a superset of what it needs.
        let mut warm = ReputationEngine::new().with_method(Method::Bounded(1));
        for &(f, t, c, merge) in &ops {
            if merge {
                warm.graph_mut().merge_record(PeerId(f), PeerId(t), Bytes(c));
            } else {
                warm.graph_mut().add_transfer(PeerId(f), PeerId(t), Bytes(c));
            }
            let got = warm.reputation(PeerId(qs), PeerId(qt));
            let mut cold = ReputationEngine::new().with_method(Method::Bounded(1));
            *cold.graph_mut() = warm.graph().clone();
            prop_assert_eq!(got.to_bits(), cold.reputation(PeerId(qs), PeerId(qt)).to_bits());
        }
    }
}

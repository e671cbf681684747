//! Backend dispatch: which flow kernel serves a query, and the
//! consolidated cache statistics the engine reports.
//!
//! The engine used to pick its evaluation path with per-call `match`es
//! on [`Method`] — one arm per kernel, with the fallback policy
//! (Gomory–Hu tree vs. exact per-pair flow) duplicated at each call
//! site. [`BackendSet`] centralizes that: it owns one instance of each
//! [`FlowBackend`] and answers "who serves this query?" by asking the
//! backends themselves, in a fixed priority order.

use bartercast_graph::backend::{GomoryHu, PairwiseDinic, Ssat};
use bartercast_graph::maxflow::Method;
use bartercast_graph::FlowBackend;

/// The engine's flow kernels, consulted in priority order:
///
/// 1. [`Ssat`] — single-source all-targets sweeps for **every**
///    finite bound `Bounded(k)` (closed form for the deployed
///    `k ≤ 2`, the layered-DAG kernel for `k ≥ 3`); exact.
/// 2. [`GomoryHu`] — `O(n)` tree sweeps for unbounded methods while
///    the graph's directed asymmetry stays within the tolerance.
/// 3. [`PairwiseDinic`] — exact per-pair evaluation; supports
///    everything, so selection never fails.
///
/// Point queries skip the tree (see [`BackendSet::select_point`]):
/// they are cheap enough to stay exact, and the old engine's contract
/// was that `reputation` never approximates.
#[derive(Debug, Clone)]
pub struct BackendSet {
    ssat: Ssat,
    gomoryhu: GomoryHu,
    pairwise: PairwiseDinic,
}

impl BackendSet {
    /// Backends for `method`, with the Gomory–Hu tree admissible up to
    /// `tolerance` directed asymmetry.
    pub fn new(method: Method, tolerance: f64) -> Self {
        BackendSet {
            ssat: Ssat::new(method),
            gomoryhu: GomoryHu::new(tolerance),
            pairwise: PairwiseDinic::new(method),
        }
    }

    /// The highest-priority backend that supports `method` at the
    /// graph's current `asymmetry`. Used for batch queries, where a
    /// sweep kernel pays off; falls through to [`PairwiseDinic`],
    /// which supports everything.
    pub fn select(&mut self, method: Method, asymmetry: f64) -> &mut dyn FlowBackend {
        let ordered: [&mut dyn FlowBackend; 3] =
            [&mut self.ssat, &mut self.gomoryhu, &mut self.pairwise];
        for backend in ordered {
            if backend.supports(method, asymmetry) {
                return backend;
            }
        }
        unreachable!("PairwiseDinic supports every method")
    }

    /// The backend for a single-pair query: the bounded SSAT kernel
    /// when the method admits it, else exact per-pair evaluation —
    /// never the Gomory–Hu tree, whose approximation is only accepted
    /// on batch sweeps where its `O(n)` amortization buys something.
    pub fn select_point(&mut self, method: Method) -> &mut dyn FlowBackend {
        if self.ssat.supports(method, 0.0) {
            &mut self.ssat
        } else {
            &mut self.pairwise
        }
    }

    /// Graph version of the Gomory–Hu backend's current tree, if one
    /// is built (diagnostics: rebuild-once-per-version tests).
    pub fn tree_version(&self) -> Option<u64> {
        self.gomoryhu.tree_version()
    }

    /// How the Gomory–Hu backend has kept its tree current:
    /// `(incremental patches, full rebuilds)` since construction.
    pub fn tree_maintenance(&self) -> (u64, u64) {
        (self.gomoryhu.tree_patches(), self.gomoryhu.tree_rebuilds())
    }
}

/// One snapshot of the engine's cache behaviour, consolidating what
/// used to be spread over `cache_stats()`, `cache_len()` and
/// `batch_backend_stats()`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Queries answered from the memo cache. Each queried pair counts
    /// exactly once per query, on every query path.
    pub hits: u64,
    /// Queries that computed flows. Entries prefilled by the same
    /// call's sweep still count as misses the first time they are
    /// requested, so totals stay comparable across query paths.
    pub misses: u64,
    /// Memoized `(evaluator, target)` entries currently held.
    pub entries: usize,
    /// Entries dropped by the LRU budget since construction.
    pub evictions: u64,
    /// Entries dropped because a graph change dirtied one of their
    /// endpoints (for `k ≥ 3`, their k-hop neighbourhood; for
    /// unbounded methods, any edge).
    pub invalidated: u64,
    /// Unbounded batch queries served by the Gomory–Hu tree.
    pub tree_sweeps: u64,
    /// Unbounded batch queries that fell back to exact per-pair flow
    /// because the graph's asymmetry exceeded the tolerance.
    pub fallback_sweeps: u64,
    /// Gomory–Hu version bumps absorbed by an incremental tree patch
    /// (only the Gusfield steps a dirty node's cut crosses re-run).
    pub tree_patches: u64,
    /// Gomory–Hu version bumps that required a from-scratch Gusfield
    /// rebuild (first build, node-set growth, or oversized dirty set).
    pub tree_rebuilds: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_selection_priority() {
        let mut set = BackendSet::new(Method::DEPLOYED, 0.0);
        assert_eq!(set.select(Method::DEPLOYED, 1.0).name(), "ssat");
        assert_eq!(set.select(Method::Dinic, 0.0).name(), "gomory-hu");
        assert_eq!(set.select(Method::Dinic, 0.5).name(), "pairwise");
    }

    #[test]
    fn finite_bounds_no_longer_fall_back_to_pairwise() {
        // regression: before the layered-DAG kernel, Bounded(k) with
        // k ≥ 3 selected "pairwise" here — a silent degradation to
        // per-pair evaluation with no sweep and no incremental
        // eviction. Every finite bound now selects the SSAT kernel,
        // for batch and point queries alike.
        for k in [3usize, 4, 7, 100] {
            let method = Method::Bounded(k);
            let mut set = BackendSet::new(method, 0.0);
            assert_eq!(set.select(method, 0.0).name(), "ssat", "batch k = {k}");
            assert_eq!(set.select(method, 1.0).name(), "ssat", "asymmetry-blind");
            assert_eq!(set.select_point(method).name(), "ssat", "point k = {k}");
        }
        // unbounded methods are untouched by the widening
        let mut set = BackendSet::new(Method::Dinic, 0.0);
        assert_eq!(set.select_point(Method::Dinic).name(), "pairwise");
    }

    #[test]
    fn point_selection_never_approximates() {
        let mut set = BackendSet::new(Method::Dinic, 1.0);
        // tree would be admissible for a batch at this tolerance, but
        // point queries stay exact
        assert_eq!(set.select(Method::Dinic, 0.5).name(), "gomory-hu");
        assert_eq!(set.select_point(Method::Dinic).name(), "pairwise");
        assert_eq!(set.select_point(Method::DEPLOYED).name(), "ssat");
    }
}

//! The consolidated cache statistics the engine reports.

/// One snapshot of the engine's counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Queries answered from the memo (`Bounded(k ≥ 3)` and `Dinic`
    /// only). Each queried pair counts exactly once per query, on
    /// every query path; a self-query counts nowhere.
    pub hits: u64,
    /// Queries that computed flows: every query under the closed-form
    /// bounds (`k ≤ 2`), which keep no memo.
    pub misses: u64,
    /// Memoized `(evaluator, target)` entries currently held.
    pub entries: usize,
    /// Memo entries dropped because the graph changed.
    pub invalidated: u64,
}

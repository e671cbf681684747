//! The consolidated cache statistics the engine reports.

/// One snapshot of the engine's cache behaviour.
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
    /// endpoints (for `k ≥ 3` and unbounded methods, any edge).
    pub invalidated: u64,
}

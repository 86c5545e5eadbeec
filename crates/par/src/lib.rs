//! # nashdb-par
//!
//! What is left of the NashDB reproduction's thread fan-out: the usage
//! counters, which now always read zero.
//!
//! The library is single-threaded. The paper runs its fragmentation DP over
//! value chunks, so `m ≤ 2|W| + 1`, and every DP layer of the pipeline is
//! smaller than the cost of spawning a thread to fill part of it (see
//! DESIGN.md §10.4). The fan-out helpers are gone; only [`PoolStats`] and
//! [`pool_stats`] remain, because the end-to-end benchmark in `perfbench/`
//! reads them for its `par.*` gauges. That package changes only together
//! with the benchmark definition, so this crate goes once those gauges are
//! dropped from it.

/// Fan-out usage counters, for bench gauges.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolStats {
    /// Chunks run by parallel calls over the process lifetime.
    pub chunks_executed: u64,
    /// Parallel calls over the process lifetime.
    pub parallel_rounds: u64,
}

/// Snapshot of the fan-out counters: always zero, since nothing fans out.
#[must_use]
pub fn pool_stats() -> PoolStats {
    PoolStats {
        chunks_executed: 0,
        parallel_rounds: 0,
    }
}

//! # nashdb-par
//!
//! Dependency-free data parallelism for the NashDB reproduction, built on
//! [`std::thread::scope`].
//!
//! The build environment is fully offline, so rayon is unavailable; this
//! crate provides the tiny slice of data parallelism the pipeline actually
//! needs — "map this independent per-item work across cores". Three
//! properties are guaranteed:
//!
//! * **Deterministic merge order.** Results come back in item order,
//!   regardless of which thread finished first, so same-seed runs stay
//!   byte-identical whether they ran on 1 core or 64.
//! * **Panic propagation.** A panic in any chunk is re-raised on the
//!   calling thread via [`std::panic::resume_unwind`] — the payload of the
//!   *first chunk in item order* that panicked — after every chunk has
//!   joined, preserving invariant-audit assertions under fan-out.
//! * **Serial fast path.** Work smaller than the caller's `min_chunk`
//!   threshold (or a single-core host) runs inline with no thread spawned,
//!   so small reconfigurations pay nothing for the capability.
//!
//! ## How a fan-out runs
//!
//! A parallel call splits its items into contiguous chunks whose sizes
//! differ by at most one, at most one chunk per core. The caller runs
//! chunk 0 itself and one scoped thread runs each other chunk. Scoped
//! threads may borrow from the caller's stack, so callers hand in shared
//! inputs by reference; nothing needs to be `'static`. The pipeline fans
//! out only a wide DP layer (at least 256 cells per chunk), so a thread
//! spawn per chunk is cheap next to the work it carries. Nested calls fan
//! out on their own scoped threads and cannot deadlock.
//!
//! [`pool_stats`] counts parallel calls and the chunks they ran, for
//! benchmarks that attribute host time to fan-out.

use std::num::NonZeroUsize;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};

/// Number of threads a fan-out may use: the machine's available
/// parallelism, floored at 1 (the query if the host refuses to answer).
pub fn max_threads() -> usize {
    std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1)
}

/// How many chunks to split `len` items into when each chunk should hold
/// at least `min_chunk` items: 0 or 1 means "run serially".
fn worker_count(len: usize, min_chunk: usize) -> usize {
    let min_chunk = min_chunk.max(1);
    (len / min_chunk).min(max_threads())
}

/// Splits `len` items into `workers` contiguous chunks whose sizes differ by
/// at most one, returned as `(start, end)` index pairs.
fn chunk_bounds(len: usize, workers: usize) -> Vec<(usize, usize)> {
    let base = len / workers;
    let extra = len % workers;
    let mut bounds = Vec::with_capacity(workers);
    let mut start = 0;
    for w in 0..workers {
        let size = base + usize::from(w < extra);
        bounds.push((start, start + size));
        start += size;
    }
    bounds
}

/// Lifetime count of chunks run by parallel calls (chunk 0 included).
static CHUNKS_EXECUTED: AtomicU64 = AtomicU64::new(0);
/// Lifetime count of parallel (non-serial-fast-path) calls.
static PARALLEL_ROUNDS: AtomicU64 = AtomicU64::new(0);

/// Fan-out usage counters, for bench gauges.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolStats {
    /// Chunks run by parallel calls over the process lifetime.
    pub chunks_executed: u64,
    /// Parallel calls (serial fast-path calls are not counted).
    pub parallel_rounds: u64,
}

/// Snapshot of the fan-out counters.
pub fn pool_stats() -> PoolStats {
    PoolStats {
        chunks_executed: CHUNKS_EXECUTED.load(Ordering::Relaxed),
        parallel_rounds: PARALLEL_ROUNDS.load(Ordering::Relaxed),
    }
}

/// Runs `chunks` — the first on the calling thread, each other on its own
/// scoped thread — and merges their outputs in chunk order. Once every
/// chunk has joined, the first panicking chunk's payload is re-raised.
///
/// # Panics
/// Re-raises a chunk's panic, and panics if the OS refuses to spawn a
/// thread (as [`std::thread::Scope::spawn`] does).
fn run_chunks<R, C>(chunks: Vec<C>) -> Vec<R>
where
    R: Send,
    C: FnOnce() -> Vec<R> + Send,
{
    PARALLEL_ROUNDS.fetch_add(1, Ordering::Relaxed);
    CHUNKS_EXECUTED.fetch_add(chunks.len() as u64, Ordering::Relaxed);
    let mut chunks = chunks.into_iter();
    let Some(first) = chunks.next() else {
        return Vec::new();
    };
    let parts = std::thread::scope(|s| {
        let handles: Vec<_> = chunks.map(|chunk| s.spawn(chunk)).collect();
        let mut parts = Vec::with_capacity(handles.len() + 1);
        parts.push(catch_unwind(AssertUnwindSafe(first)));
        parts.extend(handles.into_iter().map(|h| h.join()));
        parts
    });
    let mut out = Vec::new();
    let mut first_panic = None;
    for part in parts {
        match part {
            Ok(part) => out.extend(part),
            Err(payload) => {
                first_panic.get_or_insert(payload);
            }
        }
    }
    if let Some(payload) = first_panic {
        resume_unwind(payload);
    }
    out
}

/// Maps `f` over owned `items` (with each item's global index), fanning out
/// across cores when there are at least `min_chunk` items per chunk to
/// justify the threads. Results are returned in item order.
pub fn map_vec<T, R, F>(items: Vec<T>, min_chunk: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    let workers = worker_count(items.len(), min_chunk);
    if workers <= 1 {
        return items
            .into_iter()
            .enumerate()
            .map(|(i, t)| f(i, t))
            .collect();
    }
    let f = &f;
    let bounds = chunk_bounds(items.len(), workers);
    let mut items = items.into_iter();
    let chunks = bounds
        .into_iter()
        .map(|(start, end)| {
            let chunk: Vec<T> = items.by_ref().take(end - start).collect();
            move || {
                chunk
                    .into_iter()
                    .enumerate()
                    .map(|(off, t)| f(start + off, t))
                    .collect::<Vec<R>>()
            }
        })
        .collect();
    run_chunks(chunks)
}

/// Builds a `Vec` of `len` values where element `i` is `f(i)` — the
/// "parallelize this independent loop" primitive (a DP layer, a per-index
/// table fill). Fan-out rules are as in [`map_vec`]; shared inputs are
/// borrowed by `f`.
pub fn fill_with<R, F>(len: usize, min_chunk: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let workers = worker_count(len, min_chunk);
    if workers <= 1 {
        return (0..len).map(f).collect();
    }
    let f = &f;
    let chunks = chunk_bounds(len, workers)
        .into_iter()
        .map(|(start, end)| move || (start..end).map(f).collect::<Vec<R>>())
        .collect();
    run_chunks(chunks)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_vec_preserves_order_at_any_granularity() {
        let serial: Vec<u64> = (0..1000).map(|x| x * 3 + 1).collect();
        for min_chunk in [1, 7, 100, 10_000] {
            let items: Vec<u64> = (0..1000).collect();
            let parallel = map_vec(items, min_chunk, |_, x| x * 3 + 1);
            assert_eq!(parallel, serial, "min_chunk {min_chunk}");
        }
    }

    #[test]
    fn map_vec_passes_global_indices() {
        let idxs = map_vec(vec![(); 503], 1, |i, ()| i);
        assert_eq!(idxs, (0..503).collect::<Vec<usize>>());
    }

    #[test]
    fn fill_with_matches_serial_construction() {
        let serial: Vec<usize> = (0..97).map(|i| i * i).collect();
        assert_eq!(fill_with(97, 1, |i| i * i), serial);
        assert_eq!(fill_with(97, 1000, |i| i * i), serial);
    }

    #[test]
    fn empty_and_tiny_inputs_are_fine() {
        assert_eq!(map_vec(Vec::<u8>::new(), 1, |_, x| x), Vec::<u8>::new());
        assert_eq!(fill_with(0, 1, |i| i), Vec::<usize>::new());
        assert_eq!(map_vec(vec![5u8], 1, |_, x| x), vec![5]);
    }

    #[test]
    fn chunks_cover_exactly_once() {
        for len in [1usize, 2, 9, 10, 11, 100] {
            for workers in 1..=8.min(len) {
                let bounds = chunk_bounds(len, workers);
                assert_eq!(bounds.first().map(|b| b.0), Some(0));
                assert_eq!(bounds.last().map(|b| b.1), Some(len));
                for w in bounds.windows(2) {
                    assert_eq!(w[0].1, w[1].0);
                }
            }
        }
    }

    #[test]
    fn worker_panics_propagate() {
        let result = std::panic::catch_unwind(|| {
            map_vec((0..64usize).collect::<Vec<_>>(), 1, |i, _| {
                assert!(i != 40, "boom at {i}");
                i
            })
        });
        assert!(result.is_err());
    }

    #[test]
    fn nested_fanout_runs_serial_and_does_not_deadlock() {
        let items: Vec<u64> = (0..64).collect();
        let got = map_vec(items, 1, |_, x| {
            // Inner call from a fan-out thread: it fans out again on its
            // own scoped threads (min_chunk 1) and must still merge in order.
            fill_with(32, 1, move |j| x + j as u64).iter().sum::<u64>()
        });
        let want: Vec<u64> = (0..64u64)
            .map(|x| (0..32u64).map(|j| x + j).sum())
            .collect();
        assert_eq!(got, want);
    }
}

//! Criterion bench: fragmentation algorithms (§5).
//!
//! The exact DP is O(maxFrags · m²) in the chunk count m; the greedy
//! split/merge and DT heuristics are near-linear per round. This bench
//! quantifies the gap that motivates the greedy algorithm, plus the cost of
//! one *incremental* greedy round (the steady-state maintenance price).

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use nashdb_baselines::dt_fragmentation;
use nashdb_core::fragment::{optimal_fragmentation, ChunkPrefix, GreedyFragmenter};
use nashdb_core::value::Chunk;
use nashdb_sim::SimRng;

fn chunk_series(m: usize, seed: u64) -> Vec<Chunk> {
    let mut rng = SimRng::seed_from_u64(seed);
    let mut chunks = Vec::with_capacity(m);
    let mut pos = 0u64;
    for _ in 0..m {
        let len = rng.uniform_u64(1_000, 1_000_000);
        chunks.push(Chunk {
            start: pos,
            end: pos + len,
            value: rng.uniform_f64() * 1e-6,
        });
        pos += len;
    }
    chunks
}

fn bench_algorithms(c: &mut Criterion) {
    let mut group = c.benchmark_group("fragmentation/from_scratch");
    let k = 32;
    for m in [64usize, 128, 256] {
        let chunks = chunk_series(m, 7);
        let Ok(prefix) = ChunkPrefix::new(&chunks) else {
            continue; // chunk_series is contiguous from zero
        };
        group.bench_with_input(BenchmarkId::new("optimal_dp", m), &m, |b, _| {
            b.iter(|| black_box(optimal_fragmentation(&chunks, k).map_or(0, |f| f.len())));
        });
        group.bench_with_input(BenchmarkId::new("greedy", m), &m, |b, _| {
            b.iter(|| {
                let table = chunks.last().map_or(0, |c| c.end);
                let mut g = GreedyFragmenter::new(table, k);
                g.run(&prefix, 4 * k);
                black_box(g.len())
            });
        });
        group.bench_with_input(BenchmarkId::new("dt", m), &m, |b, _| {
            b.iter(|| black_box(dt_fragmentation(&chunks, k).len()));
        });
    }
    group.finish();
}

fn bench_incremental_round(c: &mut Criterion) {
    // The steady-state cost: one split/merge round on a converged
    // fragmentation after a small workload shift.
    let mut group = c.benchmark_group("fragmentation/incremental_round");
    for m in [64usize, 256] {
        let chunks = chunk_series(m, 9);
        let table = chunks.last().map_or(0, |c| c.end);
        // A shifted value function over the same table span.
        let shifted = respan(&chunk_series(m, 10), table);
        let (Ok(start), Ok(shifted)) = (ChunkPrefix::new(&chunks), ChunkPrefix::new(&shifted))
        else {
            continue; // chunk_series and respan are contiguous from zero
        };
        let mut g = GreedyFragmenter::new(table, 32);
        g.run(&start, 128);
        group.bench_with_input(BenchmarkId::new("step", m), &m, |b, _| {
            b.iter(|| {
                let mut g2 = g.clone();
                black_box(g2.step(&shifted))
            });
        });
    }
    group.finish();
}

/// Rescales a chunk series to span exactly `[0, table)`.
fn respan(chunks: &[Chunk], table: u64) -> Vec<Chunk> {
    let total = chunks.last().map_or(1, |c| c.end);
    let mut out = Vec::with_capacity(chunks.len());
    let mut prev = 0u64;
    for (i, c) in chunks.iter().enumerate() {
        let end = if i + 1 == chunks.len() {
            table
        } else {
            u64::try_from(c.end as u128 * table as u128 / total as u128).unwrap_or(u64::MAX)
        };
        if end > prev {
            out.push(Chunk {
                start: prev,
                end,
                value: c.value,
            });
            prev = end;
        }
    }
    out
}

criterion_group!(benches, bench_algorithms, bench_incremental_round);
criterion_main!(benches);

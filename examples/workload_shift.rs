//! Workload shift: watch the fragmentation follow a moving hot spot
//! (paper §5.3 — the split/merge fragmenter's whole reason to exist).
//!
//! ```text
//! cargo run --release --example workload_shift
//! ```
//!
//! Drives the tuple value estimator and the greedy fragmenter directly
//! (no cluster), shifting the hot range every phase, and prints how the
//! fragment boundaries chase it — plus the error a split-only fragmenter
//! (the paper's DT baseline) accumulates by never merging.

use nashdb_core::fragment::{ChunkPrefix, GreedyFragmenter};
use nashdb_core::value::{PricedScan, TupleValueEstimator};

const TABLE: u64 = 1_000_000;
const WINDOW: usize = 50;
const MAX_FRAGS: usize = 8;

fn main() {
    let mut estimator = TupleValueEstimator::new(WINDOW);
    let mut nash = GreedyFragmenter::new(TABLE, MAX_FRAGS);

    // Three phases, each hammering a different 150k-tuple range.
    let phases = [
        (100_000u64, "early keys"),
        (450_000, "mid keys"),
        (800_000, "recent keys"),
    ];
    for (phase, (hot_start, label)) in phases.iter().enumerate() {
        for i in 0..60u64 {
            // 80% hot-range scans, 20% background full scans.
            let scan = if i % 5 == 0 {
                PricedScan::new(0, TABLE, 1.0)
            } else {
                PricedScan::new(*hot_start, hot_start + 150_000, 1.0)
            };
            estimator.observe(scan);
            // Estimator chunks are contiguous by construction.
            if let Ok(prefix) = ChunkPrefix::new(&estimator.chunks(TABLE)) {
                nash.run(&prefix, 4);
            }
        }
        let chunks = estimator.chunks(TABLE);
        let Ok(prefix) = ChunkPrefix::new(&chunks) else {
            return; // estimator chunks are contiguous by construction
        };
        let frag = nash.fragmentation();
        println!(
            "phase {} — hot range at {label} ({hot_start}..{})",
            phase + 1,
            hot_start + 150_000
        );
        println!("  boundaries: {:?}", frag.boundaries());
        println!(
            "  fragments: {}   total error: {:.3e}",
            frag.len(),
            frag.total_error(&prefix).unwrap_or(0.0)
        );
        // Which fragments are worth replicating? Show the value density.
        let stats = nashdb_core::fragment::fragment_stats(&frag, &prefix).unwrap_or_default();
        for s in &stats {
            let density = s.value / s.range.size() as f64;
            if density > 1e-9 {
                println!(
                    "    {} value {:.3e} ({} tuples) {}",
                    s.range,
                    s.value,
                    s.range.size(),
                    if density > 5e-7 { "<- hot" } else { "" }
                );
            }
        }
        println!();
    }

    println!("the boundary list above relocates each phase: splits chase the new");
    println!("hot range after merges reclaim fragments from the old one (paper §5.3).");
}

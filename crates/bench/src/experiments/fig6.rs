//! Fig. 6a/6b — inner-fragment variance of the fragmentation algorithms on
//! static and dynamic workloads (paper §10.1).
//!
//! * Static: run the whole workload through the tuple value estimator, then
//!   fragment once with each algorithm and report the total error (Eq. 4).
//! * Dynamic: recalculate after every query and report the *sum* of the
//!   total error over time — adaptivity matters, which is where NashDB's
//!   merge step separates it from split-only DT.

use std::collections::VecDeque;

use nashdb_baselines::{dt_fragmentation, hypergraph_fragmentation, naive_fragmentation};
use nashdb_core::fragment::{optimal_fragmentation, ChunkPrefix, Fragmentation, GreedyFragmenter};
use nashdb_core::value::{PricedScan, TupleValueEstimator};
use nashdb_workload::Workload;

use super::{fmt, row, table_header};
use crate::env::WINDOW;
use crate::header;

/// `maxFrags` per table for the fragmentation-quality comparison.
const MAX_FRAGS: usize = 32;

/// Errors are reported with tuple values expressed per GB rather than per
/// tuple (`V` scales by 1e6, error by 1e12): same ordering, magnitudes
/// comparable to the paper's 1e3–1e7 axis.
const ERR_SCALE: f64 = 1e12;

/// Algorithm names, in the paper's legend order.
const ALGOS: [&str; 5] = ["Optimal", "NashDB", "DT", "Naive", "Hypergraph"];

struct TableTrack {
    len: u64,
    est: TupleValueEstimator,
    scans: VecDeque<(u64, u64)>,
    greedy: GreedyFragmenter,
    /// Cached per-algorithm error, refreshed when the table is touched.
    cached: [f64; 5],
}

impl TableTrack {
    fn new(len: u64) -> Self {
        TableTrack {
            len,
            est: TupleValueEstimator::new(WINDOW),
            scans: VecDeque::with_capacity(WINDOW),
            greedy: GreedyFragmenter::new(len, MAX_FRAGS),
            cached: [0.0; 5],
        }
    }

    fn observe(&mut self, start: u64, end: u64, price: f64) {
        let end = end.min(self.len);
        if start >= end {
            return;
        }
        self.est.observe(PricedScan::new(start, end, price));
        if self.scans.len() == WINDOW {
            self.scans.pop_front();
        }
        self.scans.push_back((start, end));
    }

    /// Recomputes every algorithm's error for this table.
    fn refresh(&mut self, greedy_rounds: usize) {
        let chunks = self.est.chunks(self.len);
        let Ok(prefix) = ChunkPrefix::new(&chunks) else {
            return; // estimator never emits malformed chunks
        };
        let scans: Vec<(u64, u64)> = self.scans.iter().copied().collect();
        self.greedy.run(&prefix, greedy_rounds);
        // MAX_FRAGS > 0, the chunks just validated and every fragmentation
        // covers this table, so none of these fail; 0.0 keeps the table
        // printable if one ever does.
        let error = |f: &Fragmentation| f.total_error(&prefix).unwrap_or(0.0);
        self.cached = [
            optimal_fragmentation(&chunks, MAX_FRAGS).map_or(0.0, |f| error(&f)),
            error(&self.greedy.fragmentation()),
            error(&dt_fragmentation(&chunks, MAX_FRAGS)),
            error(&naive_fragmentation(self.len, MAX_FRAGS)),
            error(&hypergraph_fragmentation(&scans, self.len, MAX_FRAGS)),
        ];
    }
}

fn tracks_for(w: &Workload) -> Vec<TableTrack> {
    w.db.tables
        .iter()
        .map(|t| TableTrack::new(t.tuples))
        .collect()
}

fn observe_query(tracks: &mut [TableTrack], tq: &nashdb_workload::TimedQuery) -> Vec<usize> {
    let total: u64 = tq.query.scans.iter().map(|s| s.size()).sum();
    let mut touched = Vec::new();
    for s in &tq.query.scans {
        let price = tq.query.price * s.size() as f64 / total as f64;
        let t = nashdb_core::num::usize_from(s.table.get());
        tracks[t].observe(s.start, s.end, price);
        if !touched.contains(&t) {
            touched.push(t);
        }
    }
    touched
}

/// Fig. 6a: total fragment error after a full static workload.
pub fn run_static() {
    header("Fig 6a — total fragment error, static workloads");
    println!("  (maxFrags = {MAX_FRAGS} per table, window |W| = {WINDOW})");
    table_header(&["workload", ALGOS[0], ALGOS[1], ALGOS[2], ALGOS[3], ALGOS[4]]);
    for w in [
        super::tpch_static(1.0),
        super::bernoulli_static(1.0),
        super::real1_static(),
    ] {
        let mut tracks = tracks_for(&w);
        for tq in &w.queries {
            observe_query(&mut tracks, tq);
        }
        let mut totals = [0.0f64; 5];
        for t in &mut tracks {
            // Static case: let the greedy fragmenter converge.
            t.refresh(4 * MAX_FRAGS);
            for (tot, e) in totals.iter_mut().zip(t.cached) {
                *tot += e;
            }
        }
        let mut cells = vec![w.name.clone()];
        cells.extend(totals.iter().map(|&e| fmt(e * ERR_SCALE)));
        row(&cells);
    }
    println!("  expectation: NashDB ≤ other heuristics, within ~50% of Optimal;");
    println!("  Hypergraph collapses on Bernoulli (adversarial suffix scans).");
}

/// Fig. 6b: summed total fragment error, recalculated after each query of a
/// dynamic workload.
pub fn run_dynamic() {
    header("Fig 6b — summed fragment error over time, dynamic workloads");
    table_header(&["workload", ALGOS[0], ALGOS[1], ALGOS[2], ALGOS[3], ALGOS[4]]);
    for w in [
        super::random_dynamic(),
        super::real1_dynamic(),
        super::real2_dynamic(),
    ] {
        let mut tracks = tracks_for(&w);
        let mut sums = [0.0f64; 5];
        for tq in &w.queries {
            let touched = observe_query(&mut tracks, tq);
            for t in touched {
                // A few rounds per query: the greedy fragmenter adapts
                // incrementally, as deployed.
                tracks[t].refresh(4);
            }
            for track in &tracks {
                for (s, e) in sums.iter_mut().zip(track.cached) {
                    *s += e;
                }
            }
        }
        let mut cells = vec![w.name.clone()];
        cells.extend(sums.iter().map(|&e| fmt(e * ERR_SCALE)));
        row(&cells);
    }
    println!("  expectation: NashDB ≈ 2× better than DT (merge+split vs split-only),");
    println!("  larger Optimal-NashDB gap than the static case.");
}

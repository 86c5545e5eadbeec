//! Tuple value estimation (paper §4).
//!
//! Each incoming query's price is split across its range scans in proportion
//! to scan size (Eq. 1); each scan then contributes `Price(s)/Size(s)` to
//! every tuple it reads. Averaged over a sliding window of the most recent
//! `|W|` scans this yields the tuple value function `V(x)` (Eq. 2), which is
//! piecewise constant with breakpoints only at scan start/end indices — so
//! NashDB stores just those breakpoints in a balanced tree and recovers all
//! values with one in-order traversal (Algorithm 1).

mod reference;
mod tree;

pub use reference::BTreeValueTree;
pub use tree::AvlValueTree;

use std::collections::VecDeque;

use tree::Endpoint;

/// Errors from value-tree scan removal: both variants indicate the caller is
/// trying to un-track a scan endpoint that is not currently tracked.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ValueTreeError {
    /// No windowed scan starts or ends at the key.
    UntrackedKey {
        /// The untracked tuple index.
        key: u64,
    },
    /// The key is tracked, but no scan with the given endpoint kind (start
    /// vs. end) was inserted there.
    EndpointUnderflow {
        /// The tuple index whose endpoint count would go negative.
        key: u64,
    },
}

impl std::fmt::Display for ValueTreeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ValueTreeError::UntrackedKey { key } => {
                write!(f, "removing a scan endpoint at untracked key {key}")
            }
            ValueTreeError::EndpointUnderflow { key } => {
                write!(f, "removing a scan endpoint never inserted at key {key}")
            }
        }
    }
}

impl std::error::Error for ValueTreeError {}

/// A range scan annotated with the share of its query's price it carries
/// (paper Eq. 1).
///
/// `start` is inclusive, `end` exclusive, both tuple indices in the physical
/// ordering of the scanned table.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PricedScan {
    /// First tuple read (inclusive).
    pub start: u64,
    /// One past the last tuple read (exclusive).
    pub end: u64,
    /// The price apportioned to this scan.
    pub price: f64,
}

impl PricedScan {
    /// Creates a scan, validating its range and price.
    ///
    /// # Panics
    /// Panics if the range is empty/inverted or the price is negative or
    /// non-finite.
    pub fn new(start: u64, end: u64, price: f64) -> Self {
        assert!(start < end, "empty scan range {start}..{end}");
        assert!(
            price.is_finite() && price >= 0.0,
            "scan price must be finite and nonnegative, got {price}"
        );
        PricedScan { start, end, price }
    }

    /// Number of tuples the scan reads.
    pub fn size(&self) -> u64 {
        self.end - self.start
    }

    /// The scan's per-tuple income `Price(s)/Size(s)`.
    pub fn weight(&self) -> f64 {
        self.price / self.size() as f64
    }
}

/// Splits a query's price across its scans proportionally to scan size
/// (paper Eq. 1), returning one [`PricedScan`] per input range.
///
/// # Panics
/// Panics if any range is empty or the price is negative/non-finite.
pub fn split_query_price(query_price: f64, scans: &[(u64, u64)]) -> Vec<PricedScan> {
    assert!(
        query_price.is_finite() && query_price >= 0.0,
        "query price must be finite and nonnegative, got {query_price}"
    );
    let total: u64 = scans
        .iter()
        .map(|&(s, e)| {
            assert!(s < e, "empty scan range {s}..{e}");
            e - s
        })
        .sum();
    scans
        .iter()
        .map(|&(s, e)| {
            let share = (e - s) as f64 / total as f64;
            PricedScan::new(s, e, share * query_price)
        })
        .collect()
}

/// A maximal run of tuples sharing the same estimated value `V(x)` — the
/// output of Algorithm 1 and the unit the fragmentation algorithms operate
/// on (splitting inside a constant-value run can never reduce fragment
/// error, so chunk boundaries are the only candidate cut points).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Chunk {
    /// First tuple (inclusive).
    pub start: u64,
    /// One past the last tuple (exclusive).
    pub end: u64,
    /// Per-tuple value `V(x)` for every tuple in the run.
    pub value: f64,
}

impl Chunk {
    /// Number of tuples in the run.
    pub fn len(&self) -> u64 {
        self.end - self.start
    }

    /// True iff the run is empty (never produced by the estimator).
    pub fn is_empty(&self) -> bool {
        self.start >= self.end
    }

    /// Σ V(x) over the run.
    pub fn sum(&self) -> f64 {
        self.value * self.len() as f64
    }

    /// Σ V(x)² over the run.
    pub fn sum_sq(&self) -> f64 {
        self.value * self.value * self.len() as f64
    }
}

/// Storage backend for the value estimation tree; implemented by the AVL
/// tree from the paper and by a `BTreeMap` reference used for differential
/// testing and benchmarking.
pub trait ValueTreeBackend: Default {
    /// Records a scan's endpoints with weight `Price(s)/Size(s)`.
    fn add_scan(&mut self, scan: &PricedScan);
    /// Reverses [`add_scan`](Self::add_scan) when the scan leaves the window.
    ///
    /// # Errors
    /// Fails (leaving the tree unchanged) when the scan was never added —
    /// see [`ValueTreeError`].
    fn remove_scan(&mut self, scan: &PricedScan) -> Result<(), ValueTreeError>;
    /// Visits in-order `(key, ∆)` pairs.
    fn visit_deltas(&self, visit: &mut dyn FnMut(u64, f64));
    /// Number of tracked breakpoints.
    fn tracked_keys(&self) -> usize;
}

impl ValueTreeBackend for AvlValueTree {
    fn add_scan(&mut self, scan: &PricedScan) {
        self.add(scan.start, scan.weight(), Endpoint::Start);
        self.add(scan.end, scan.weight(), Endpoint::End);
    }
    fn remove_scan(&mut self, scan: &PricedScan) -> Result<(), ValueTreeError> {
        // A scan spans two distinct keys; validate both before touching
        // either so a failed removal leaves the tree fully intact.
        self.check_removable(scan.start, Endpoint::Start)?;
        self.check_removable(scan.end, Endpoint::End)?;
        self.remove(scan.start, scan.weight(), Endpoint::Start)?;
        self.remove(scan.end, scan.weight(), Endpoint::End)?;
        Ok(())
    }
    fn visit_deltas(&self, visit: &mut dyn FnMut(u64, f64)) {
        for (k, d) in self.deltas() {
            visit(k, d);
        }
    }
    fn tracked_keys(&self) -> usize {
        self.len()
    }
}

impl ValueTreeBackend for BTreeValueTree {
    fn add_scan(&mut self, scan: &PricedScan) {
        self.add(scan.start, scan.weight(), Endpoint::Start);
        self.add(scan.end, scan.weight(), Endpoint::End);
    }
    fn remove_scan(&mut self, scan: &PricedScan) -> Result<(), ValueTreeError> {
        self.check_removable(scan.start, Endpoint::Start)?;
        self.check_removable(scan.end, Endpoint::End)?;
        self.remove(scan.start, scan.weight(), Endpoint::Start)?;
        self.remove(scan.end, scan.weight(), Endpoint::End)?;
        Ok(())
    }
    fn visit_deltas(&self, visit: &mut dyn FnMut(u64, f64)) {
        for (k, d) in self.deltas() {
            visit(k, d);
        }
    }
    fn tracked_keys(&self) -> usize {
        self.len()
    }
}

/// The tuple value estimator: a scan window (ring buffer) plus a value
/// estimation tree, per table.
///
/// ```
/// use nashdb_core::value::{PricedScan, TupleValueEstimator};
///
/// let mut est = TupleValueEstimator::new(3);
/// est.observe(PricedScan::new(7, 10, 6.0));
/// est.observe(PricedScan::new(4, 10, 3.0));
/// est.observe(PricedScan::new(0, 5, 5.0));
/// // Paper §4.2 worked example: tuples 7..10 are worth 2.5/3 each.
/// let v = est.value_at(8, 12);
/// assert!((v - 2.5 / 3.0).abs() < 1e-12);
/// ```
#[derive(Debug)]
pub struct TupleValueEstimator<B: ValueTreeBackend = AvlValueTree> {
    tree: B,
    window: VecDeque<PricedScan>,
    capacity: usize,
}

impl TupleValueEstimator<AvlValueTree> {
    /// Creates an estimator over a window of `capacity` scans, backed by the
    /// paper's AVL tree.
    pub fn new(capacity: usize) -> Self {
        Self::with_backend(capacity)
    }
}

impl<B: ValueTreeBackend> TupleValueEstimator<B> {
    /// Creates an estimator with an explicit tree backend.
    ///
    /// # Panics
    /// Panics if `capacity` is zero.
    pub fn with_backend(capacity: usize) -> Self {
        assert!(capacity > 0, "scan window must hold at least one scan");
        TupleValueEstimator {
            tree: B::default(),
            window: VecDeque::with_capacity(capacity),
            capacity,
        }
    }

    /// Scan window capacity `|W|`.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of scans currently in the window.
    pub fn window_len(&self) -> usize {
        self.window.len()
    }

    /// True once the window has filled to capacity.
    pub fn is_warm(&self) -> bool {
        self.window.len() == self.capacity
    }

    /// Number of breakpoints tracked by the tree (for overhead reporting).
    pub fn tracked_keys(&self) -> usize {
        self.tree.tracked_keys()
    }

    /// Read-only access to the backing tree (for overhead reporting).
    pub fn tree(&self) -> &B {
        &self.tree
    }

    /// The scans currently in the window, oldest first.
    pub fn scans(&self) -> impl Iterator<Item = &PricedScan> + '_ {
        self.window.iter()
    }

    /// Folds one priced scan into the window, evicting the oldest scan if
    /// the window is full. Returns the evicted scan, if any.
    pub fn observe(&mut self, scan: PricedScan) -> Option<PricedScan> {
        let evicted = if self.window.len() == self.capacity {
            self.window.pop_front()
        } else {
            None
        };
        if let Some(old) = &evicted {
            // Every windowed scan was added to the tree when it entered the
            // window, so removing it on eviction cannot fail.
            if let Err(e) = self.tree.remove_scan(old) {
                unreachable!("windowed scan missing from value tree: {e}");
            }
            nashdb_obs::counter_add("value_tree.evictions", 1);
        }
        self.tree.add_scan(&scan);
        self.window.push_back(scan);
        nashdb_obs::counter_add("value_tree.inserts", 1);
        evicted
    }

    /// Folds a whole query in: splits `price` across `scans` by Eq. 1 and
    /// observes each.
    pub fn observe_query(&mut self, price: f64, scans: &[(u64, u64)]) {
        for s in split_query_price(price, scans) {
            self.observe(s);
        }
    }

    /// Algorithm 1: recovers the piecewise-constant `V(x)` over
    /// `[0, table_len)` as a list of [`Chunk`]s, including zero-valued gaps,
    /// in one in-order traversal.
    ///
    /// Scan endpoints beyond `table_len` are clamped to it.
    pub fn chunks(&self, table_len: u64) -> Vec<Chunk> {
        let mut chunks = Vec::new();
        if table_len == 0 {
            return chunks;
        }
        let w = self.window.len();
        if w == 0 {
            chunks.push(Chunk {
                start: 0,
                end: table_len,
                value: 0.0,
            });
            return chunks;
        }
        let norm = |alpha: f64| (alpha / w as f64).max(0.0);
        let mut alpha = 0.0f64;
        let mut prev = 0u64;
        self.tree.visit_deltas(&mut |key, delta| {
            let key = key.min(table_len);
            if key > prev {
                chunks.push(Chunk {
                    start: prev,
                    end: key,
                    value: norm(alpha),
                });
                prev = key;
            }
            alpha += delta;
        });
        if table_len > prev {
            chunks.push(Chunk {
                start: prev,
                end: table_len,
                value: norm(alpha),
            });
        }
        chunks
    }

    /// `V(x)` for a single tuple — a test/debug helper; use
    /// [`chunks`](Self::chunks) for bulk access.
    pub fn value_at(&self, x: u64, table_len: u64) -> f64 {
        self.chunks(table_len)
            .iter()
            .find(|c| c.start <= x && x < c.end)
            .map_or(0.0, |c| c.value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-12, "{a} vs {b}");
    }

    /// The paper's §4.2 worked example end to end: values 1/3, 1.5/3, 0.5/3,
    /// 2.5/3, 0 across the breakpoints 0,4,5,7,10.
    #[test]
    fn paper_worked_example() {
        let mut est = TupleValueEstimator::new(3);
        est.observe(PricedScan::new(7, 10, 6.0));
        est.observe(PricedScan::new(4, 10, 3.0));
        est.observe(PricedScan::new(0, 5, 5.0));
        let chunks = est.chunks(12);
        let expect = [
            (0u64, 4u64, 1.0 / 3.0),
            (4, 5, 1.5 / 3.0),
            (5, 7, 0.5 / 3.0),
            (7, 10, 2.5 / 3.0),
            (10, 12, 0.0),
        ];
        assert_eq!(chunks.len(), expect.len());
        for (c, &(s, e, v)) in chunks.iter().zip(&expect) {
            assert_eq!((c.start, c.end), (s, e));
            assert_close(c.value, v);
        }
    }

    #[test]
    fn split_query_price_is_proportional() {
        let scans = split_query_price(9.0, &[(0, 10), (100, 120)]);
        assert_close(scans[0].price, 3.0);
        assert_close(scans[1].price, 6.0);
        // Per-tuple weight is equal across the query's scans (both 0.3).
        assert_close(scans[0].weight(), scans[1].weight());
    }

    #[test]
    fn eviction_forgets_old_scans() {
        let mut est = TupleValueEstimator::new(2);
        est.observe(PricedScan::new(0, 10, 10.0));
        est.observe(PricedScan::new(0, 10, 10.0));
        assert!(est.is_warm());
        // Third scan evicts the first.
        let evicted = est.observe(PricedScan::new(50, 60, 20.0));
        assert_eq!(evicted, Some(PricedScan::new(0, 10, 10.0)));
        assert_eq!(est.window_len(), 2);
        // 0..10 now carries only one scan of weight 1.0 over window 2.
        assert_close(est.value_at(5, 100), 0.5);
        assert_close(est.value_at(55, 100), 1.0);
    }

    #[test]
    fn empty_window_is_all_zero() {
        let est = TupleValueEstimator::new(5);
        let chunks = est.chunks(100);
        assert_eq!(chunks.len(), 1);
        assert_close(chunks[0].value, 0.0);
        assert_eq!((chunks[0].start, chunks[0].end), (0, 100));
    }

    #[test]
    fn zero_table_has_no_chunks() {
        let est = TupleValueEstimator::new(5);
        assert!(est.chunks(0).is_empty());
    }

    #[test]
    fn chunks_cover_table_exactly() {
        let mut est = TupleValueEstimator::new(10);
        est.observe_query(4.0, &[(3, 9), (20, 40)]);
        let chunks = est.chunks(64);
        assert_eq!(chunks.first().unwrap().start, 0);
        assert_eq!(chunks.last().unwrap().end, 64);
        for w in chunks.windows(2) {
            assert_eq!(w[0].end, w[1].start, "gap or overlap in {chunks:?}");
        }
    }

    #[test]
    fn scan_past_table_end_is_clamped() {
        let mut est = TupleValueEstimator::new(1);
        est.observe(PricedScan::new(5, 100, 1.0));
        let chunks = est.chunks(10);
        assert_eq!(chunks.last().unwrap().end, 10);
        assert!(chunks.iter().all(|c| c.end <= 10));
    }

    #[test]
    fn chunk_sums() {
        let c = Chunk {
            start: 10,
            end: 20,
            value: 0.5,
        };
        assert_eq!(c.len(), 10);
        assert_close(c.sum(), 5.0);
        assert_close(c.sum_sq(), 2.5);
        assert!(!c.is_empty());
    }

    #[test]
    #[should_panic(expected = "at least one scan")]
    fn zero_capacity_rejected() {
        let _ = TupleValueEstimator::new(0);
    }

    #[test]
    #[should_panic(expected = "empty scan range")]
    fn inverted_scan_rejected() {
        let _ = PricedScan::new(5, 5, 1.0);
    }

    #[test]
    #[should_panic(expected = "nonnegative")]
    fn negative_price_rejected() {
        let _ = PricedScan::new(0, 5, -1.0);
    }

    #[test]
    fn backends_agree_on_a_workload() {
        let mut avl: TupleValueEstimator<AvlValueTree> = TupleValueEstimator::with_backend(8);
        let mut bt: TupleValueEstimator<BTreeValueTree> = TupleValueEstimator::with_backend(8);
        let scans = [
            (0u64, 50u64, 5.0f64),
            (10, 30, 2.0),
            (25, 75, 7.0),
            (0, 100, 1.0),
            (40, 45, 9.0),
            (10, 30, 2.0),
            (60, 90, 4.0),
            (5, 6, 1.0),
            (0, 50, 5.0),
            (25, 75, 7.0),
            (90, 100, 3.0),
            (1, 99, 2.5),
        ];
        for &(s, e, p) in &scans {
            avl.observe(PricedScan::new(s, e, p));
            bt.observe(PricedScan::new(s, e, p));
            let ca = avl.chunks(100);
            let cb = bt.chunks(100);
            assert_eq!(ca.len(), cb.len());
            for (a, b) in ca.iter().zip(&cb) {
                assert_eq!((a.start, a.end), (b.start, b.end));
                assert!((a.value - b.value).abs() < 1e-12);
            }
        }
    }
}

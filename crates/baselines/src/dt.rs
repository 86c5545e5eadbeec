//! The *DT* fragmentation baseline (paper §10.1): "greedily searches for
//! the best split point of the data, then recursively splits the resulting
//! two halves until the maximum number of partitions have been created.
//! This is equivalent to only running the 'split' procedure of NashDB, and
//! is similar to the CART decision tree induction algorithm."

use nashdb_core::fragment::{ChunkPrefix, Fragmentation};
use nashdb_core::value::Chunk;

/// Fragments by repeated best-split (no merging). Produces at most
/// `max_frags` fragments; stops early when no split reduces error.
/// Malformed chunks yield a single fragment spanning whatever the chunks
/// claim to cover (a baseline shouldn't panic where the production
/// fragmenter returns a typed error).
///
/// # Panics
/// Panics if `max_frags` is zero.
pub fn dt_fragmentation(chunks: &[Chunk], max_frags: usize) -> Fragmentation {
    assert!(max_frags > 0, "need at least one fragment");
    let Ok(prefix) = ChunkPrefix::new(chunks) else {
        return Fragmentation::single(chunks.last().map_or(1, |c| c.end.max(1)));
    };
    let bounds = prefix.bounds();
    let table_len = prefix.table_len();

    let mut boundaries = vec![0u64, table_len];
    while boundaries.len() - 1 < max_frags {
        // Best split across all current fragments.
        let mut best: Option<(usize, u64, f64)> = None; // (frag idx, point, gain)
        for (idx, w) in boundaries.windows(2).enumerate() {
            let (a, b) = (w[0], w[1]);
            let whole = prefix.error(a, b);
            if whole <= 1e-12 {
                continue;
            }
            let lo = bounds.partition_point(|&x| x <= a);
            let hi = bounds.partition_point(|&x| x < b);
            for &p in &bounds[lo..hi] {
                let gain = whole - (prefix.error(a, p) + prefix.error(p, b));
                if gain > 1e-12 && best.is_none_or(|(_, _, g)| gain > g) {
                    best = Some((idx, p, gain));
                }
            }
        }
        match best {
            Some((idx, p, _)) => boundaries.insert(idx + 1, p),
            None => break,
        }
    }
    Fragmentation::from_boundaries(boundaries)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nashdb_core::fragment::optimal_fragmentation;

    fn chunk(start: u64, end: u64, value: f64) -> Chunk {
        Chunk { start, end, value }
    }

    #[test]
    fn splits_a_step_function_exactly() {
        let chunks = vec![chunk(0, 50, 1.0), chunk(50, 100, 9.0)];
        let f = dt_fragmentation(&chunks, 2);
        assert_eq!(f.boundaries(), &[0, 50, 100]);
    }

    #[test]
    fn respects_cap_and_stops_when_uniform() {
        let chunks = vec![chunk(0, 100, 3.0)];
        let f = dt_fragmentation(&chunks, 8);
        assert_eq!(f.len(), 1); // nothing to split
        let chunks = vec![
            chunk(0, 25, 1.0),
            chunk(25, 50, 2.0),
            chunk(50, 75, 3.0),
            chunk(75, 100, 4.0),
        ];
        let f = dt_fragmentation(&chunks, 3);
        assert_eq!(f.len(), 3);
    }

    #[test]
    fn never_beats_optimal_and_often_matches_on_staircases() {
        let chunks: Vec<Chunk> = (0..8)
            .map(|i| chunk(i * 10, (i + 1) * 10, (i % 3) as f64))
            .collect();
        let prefix = ChunkPrefix::new(&chunks).unwrap();
        for k in 2..=6 {
            let dt_err = dt_fragmentation(&chunks, k).total_error(&prefix).unwrap();
            let opt_err = optimal_fragmentation(&chunks, k)
                .unwrap()
                .total_error(&prefix)
                .unwrap();
            assert!(
                dt_err + 1e-9 >= opt_err,
                "k={k}: dt {dt_err} < opt {opt_err}"
            );
        }
    }

    /// The classic greedy-split pathology: the best *first* split can be
    /// globally wrong. DT is a strictly weaker heuristic than NashDB's
    /// split+merge, which is the paper's Fig. 6b point.
    #[test]
    fn greedy_first_split_can_be_suboptimal() {
        // Values where one-shot best split differs from the optimal pair of
        // cuts: two symmetric bumps.
        let chunks = vec![
            chunk(0, 10, 0.0),
            chunk(10, 20, 10.0),
            chunk(20, 30, 0.0),
            chunk(30, 40, 10.0),
            chunk(40, 50, 0.0),
        ];
        let prefix = ChunkPrefix::new(&chunks).unwrap();
        let dt_err = dt_fragmentation(&chunks, 3).total_error(&prefix).unwrap();
        let opt_err = optimal_fragmentation(&chunks, 3)
            .unwrap()
            .total_error(&prefix)
            .unwrap();
        assert!(dt_err >= opt_err);
    }
}

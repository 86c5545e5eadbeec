//! Greedy split/merge fragmentation (paper §5.3).
//!
//! The exact DP is quadratic in the number of value chunks; for large
//! databases (and for *incremental* adaptation as the workload drifts) the
//! paper proposes a greedy fragmenter that maintains a live set of cut
//! points and, at user-specified intervals:
//!
//! * **splits** the fragment whose best split point yields the largest error
//!   reduction, while the fragment count is below `maxFrags`
//!   (§5.3.1 / Algorithm 2), and
//! * **merges** the adjacent *triple* of fragments that re-cut into two with
//!   the smallest error increase once the cap is reached (§5.3.2), freeing
//!   the split procedure to chase the shifted workload. Merging three-into-
//!   two (rather than two-into-one) is what lets a boundary *move* between
//!   neighbours (paper Fig. 4).
//!
//! Candidate cut points are the chunk boundaries of the current value
//! function: the optimal split of a piecewise-constant function always falls
//! on a value change (the paper's Appendix C optimization). A step resolves
//! each live boundary against the prefix arrays once (a boundary left from
//! an older value function may fall inside a chunk); every candidate is a
//! chunk bound read by index, so the split and merge scans do no search.

use super::prefix::{total_error, ChunkPrefix, Cut};
use super::Fragmentation;

/// Minimum *absolute* error reduction for a split to be applied (paper
/// footnote 2: "one might wish only to split a fragment if the reduction …
/// is sufficiently large"). Zero by default; float-residue churn is guarded
/// separately by a relative epsilon, which scales with the fragment's own
/// error so the threshold works at any value magnitude (per-tuple values
/// can be ~1e-8 when prices are split across hundred-million-tuple scans).
pub const DEFAULT_MIN_SPLIT_GAIN: f64 = 0.0;

/// Relative gain floor: a split must reduce its fragment's error by more
/// than this fraction to be considered genuine rather than float residue.
pub(super) const REL_EPSILON: f64 = 1e-9;

/// How the fragmenter reclaims fragments once at the cap.
///
/// The paper argues (Fig. 4) for merging three adjacent fragments into two:
/// a pairwise merge can never *move* a boundary between neighbours, so a
/// drifted workload strands cuts where the old hot spot was. The pairwise
/// variant is kept for the ablation that quantifies that argument.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MergePolicy {
    /// Merge the best adjacent triple into two fragments (§5.3.2).
    #[default]
    TripleToPair,
    /// Merge the best adjacent pair into one fragment (the strawman of
    /// paper Fig. 4).
    PairToOne,
}

/// The incremental greedy fragmenter.
#[derive(Debug, Clone)]
pub struct GreedyFragmenter {
    boundaries: Vec<u64>,
    max_frags: usize,
    min_split_gain: f64,
    /// Minimum *relative* improvement for a change to be applied: a split
    /// must cut its fragment's error, and a merge+split round the total
    /// error, by more than this fraction. The paper's footnote 2 suggests
    /// exactly this guard; it keeps sampling noise in the value window from
    /// wandering boundaries (and re-shipping every replica of the touched
    /// fragments) when nothing real has changed.
    min_relative_gain: f64,
    merge_policy: MergePolicy,
}

/// What a [`GreedyFragmenter::step`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepOutcome {
    /// A fragment was split (and possibly a triple merged first).
    Changed,
    /// No profitable split existed; the fragmentation is stable for this
    /// value function.
    Stable,
}

impl GreedyFragmenter {
    /// Starts with a single fragment spanning the table.
    ///
    /// # Panics
    /// Panics if `table_len` is zero or `max_frags` is zero.
    pub fn new(table_len: u64, max_frags: usize) -> Self {
        Self::from_fragmentation(Fragmentation::single(table_len), max_frags)
    }

    /// Adopts an existing fragmentation (e.g. carried over from the previous
    /// reconfiguration period).
    ///
    /// # Panics
    /// Panics if `max_frags` is zero.
    pub fn from_fragmentation(frag: Fragmentation, max_frags: usize) -> Self {
        assert!(max_frags > 0, "need at least one fragment");
        GreedyFragmenter {
            boundaries: frag.boundaries,
            max_frags,
            min_split_gain: DEFAULT_MIN_SPLIT_GAIN,
            min_relative_gain: 0.0,
            merge_policy: MergePolicy::default(),
        }
    }

    /// Overrides the minimum split gain.
    pub fn with_min_split_gain(mut self, gain: f64) -> Self {
        self.min_split_gain = gain.max(0.0);
        self
    }

    /// Requires every applied change to improve its target error by at
    /// least this fraction (e.g. `0.05` = 5 %).
    pub fn with_min_relative_gain(mut self, frac: f64) -> Self {
        self.min_relative_gain = frac.max(0.0);
        self
    }

    /// Selects the merge variant (the pairwise one exists for the Fig. 4
    /// ablation; the default is the paper's three-into-two).
    pub fn with_merge_policy(mut self, policy: MergePolicy) -> Self {
        self.merge_policy = policy;
        self
    }

    /// Current fragment count.
    pub fn len(&self) -> usize {
        self.boundaries.len() - 1
    }

    /// Always false: a fragmenter covers its table with at least one
    /// fragment by construction.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The fragment cap.
    pub fn max_frags(&self) -> usize {
        self.max_frags
    }

    /// Adjusts the cap (e.g. if the block size or table size changes).
    pub fn set_max_frags(&mut self, max_frags: usize) {
        assert!(max_frags > 0, "need at least one fragment");
        self.max_frags = max_frags;
    }

    /// A snapshot of the current fragmentation.
    pub fn fragmentation(&self) -> Fragmentation {
        Fragmentation::from_boundaries(self.boundaries.clone())
    }

    /// One maintenance round against the current value function:
    /// below the cap, apply the best available split; at the cap, merge the
    /// best adjacent triple into two and re-split — atomically, reverting
    /// if the merge+split pair does not reduce total error (so the greedy
    /// trajectory is monotone and cannot oscillate at the cap).
    ///
    /// A value function covering a different table than this fragmenter
    /// leaves the fragmentation untouched and reports
    /// [`StepOutcome::Stable`]; debug builds assert so tests catch the
    /// contract violation.
    pub fn step(&mut self, prefix: &ChunkPrefix) -> StepOutcome {
        let table_len = self.boundaries.last().map_or(0, |&b| b);
        debug_assert_eq!(
            prefix.table_len(),
            table_len,
            "value function covers a different table"
        );
        if prefix.table_len() != table_len {
            return StepOutcome::Stable;
        }
        let mut cuts: Vec<Cut> = self.boundaries.iter().map(|&b| prefix.cut(b)).collect();

        if self.len() < self.max_frags {
            if let Some((frag_idx, point, _gain)) = self.best_split(prefix, &cuts) {
                self.boundaries.insert(frag_idx + 1, point.pos);
                return StepOutcome::Changed;
            }
            return StepOutcome::Stable;
        }

        // At the cap: merging needs enough adjacent fragments.
        let need = match self.merge_policy {
            MergePolicy::TripleToPair => 3,
            MergePolicy::PairToOne => 2,
        };
        if self.len() < need {
            return StepOutcome::Stable;
        }
        // Merge and re-split on the resolved copy; the boundaries only
        // change if the pair pays.
        let before_err = total_error(&cuts);
        match self.merge_policy {
            MergePolicy::TripleToPair => apply_best_merge(prefix, &mut cuts),
            MergePolicy::PairToOne => apply_best_pair_merge(&mut cuts),
        }
        if let Some((frag_idx, point, _gain)) = self.best_split(prefix, &cuts) {
            cuts.insert(frag_idx + 1, point);
        }
        let after_err = total_error(&cuts);
        let floor = self.min_split_gain + (REL_EPSILON + self.min_relative_gain) * before_err;
        if after_err < before_err - floor {
            self.boundaries = cuts.iter().map(|c| c.pos).collect();
            StepOutcome::Changed
        } else {
            StepOutcome::Stable
        }
    }

    /// Runs up to `rounds` steps against one value function, stopping early
    /// once stable. Returns the number of rounds that changed the
    /// fragmentation.
    pub fn run(&mut self, prefix: &ChunkPrefix, rounds: usize) -> usize {
        let watch = crate::obs_hooks::stopwatch();
        let mut changed = 0;
        for _ in 0..rounds {
            match self.step(prefix) {
                StepOutcome::Changed => changed += 1,
                StepOutcome::Stable => break,
            }
        }
        watch.record("fragment.greedy_ns");
        crate::obs_hooks::counter_add("fragment.greedy_runs", 1);
        crate::obs_hooks::counter_add("fragment.greedy_changes", changed as u64);
        changed
    }

    /// Finds the globally best split over the resolved boundaries `cuts`:
    /// `(fragment_index, cut_point, gain)` maximizing
    /// `Err(f) − (Err(left) + Err(right))`, or `None` if no split clears
    /// the minimum gain.
    fn best_split(&self, prefix: &ChunkPrefix, cuts: &[Cut]) -> Option<(usize, Cut, f64)> {
        let mut best: Option<(usize, Cut, f64)> = None;
        for (idx, w) in cuts.windows(2).enumerate() {
            let (a, b) = (&w[0], &w[1]);
            let whole = a.error_to(b);
            if whole <= self.min_split_gain {
                continue; // already uniform; no split can gain enough
            }
            if let Some((point, split_err)) = best_cut(prefix, a, b, &[]) {
                let gain = whole - split_err;
                // Both an absolute and a magnitude-relative floor: the gain
                // must be a real reduction, not float residue.
                if gain > self.min_split_gain
                    && gain > (REL_EPSILON + self.min_relative_gain) * whole
                    && best.is_none_or(|(_, _, g)| gain > g)
                {
                    best = Some((idx, point, gain));
                }
            }
        }
        best
    }
}

/// Merges the adjacent triple whose optimal re-cut into two fragments
/// increases total error the least (paper §5.3.2).
fn apply_best_merge(prefix: &ChunkPrefix, cuts: &mut Vec<Cut>) {
    debug_assert!(cuts.len() >= 4);
    let mut best: Option<(usize, Cut, f64)> = None; // (first boundary idx, cut, delta)
    for (i, w) in cuts.windows(4).enumerate() {
        let (a, b, c, d) = (&w[0], &w[1], &w[2], &w[3]);
        let old = a.error_to(b) + b.error_to(c) + c.error_to(d);
        // The optimal two-way cut of [a, d): chunk boundaries plus the
        // existing cuts b and c (which are always legal and guarantee a
        // candidate even when no value change falls strictly inside).
        // Cut b is always a valid candidate, so best_cut cannot come
        // back empty; skip the triple rather than panic if it ever does.
        let Some((point, new)) = best_cut(prefix, a, d, &[*b, *c]) else {
            continue;
        };
        let delta = new - old;
        if best.is_none_or(|(_, _, d0)| delta < d0) {
            best = Some((i, point, delta));
        }
    }
    // Three fragments yield at least one triple; leave the boundaries
    // untouched in the impossible empty case instead of panicking.
    let Some((i, point, _)) = best else {
        return;
    };
    // Replace boundaries b, c with the single cut `point`.
    cuts.splice(i + 1..i + 3, [point]);
    debug_assert!(cuts.windows(2).all(|w| w[0].pos < w[1].pos));
}

/// The pairwise strawman: delete the interior boundary whose removal
/// increases total error the least.
fn apply_best_pair_merge(cuts: &mut Vec<Cut>) {
    debug_assert!(cuts.len() >= 3);
    let mut best: Option<(usize, f64)> = None; // (boundary idx, delta)
    for (i, w) in cuts.windows(3).enumerate() {
        let (a, b, c) = (&w[0], &w[1], &w[2]);
        let delta = a.error_to(c) - (a.error_to(b) + b.error_to(c));
        if best.is_none_or(|(_, d0)| delta < d0) {
            best = Some((i + 1, delta));
        }
    }
    // Two fragments yield an interior boundary; a no-op beats a panic in
    // the impossible empty case.
    let Some((i, _)) = best else {
        return;
    };
    cuts.remove(i);
}

/// The best single cut of `[a, b)`: considers every chunk boundary strictly
/// inside plus `extra` candidates, returning `(point, err_left + err_right)`
/// minimized. `None` if there are no candidates.
///
/// This is the paper's `FindSplit` (Algorithm 2) restricted to value-change
/// points (Appendix C): linear in the number of candidates, each read from
/// the prefix arrays by index.
fn best_cut(prefix: &ChunkPrefix, a: &Cut, b: &Cut, extra: &[Cut]) -> Option<(Cut, f64)> {
    let candidates = (a.above..b.at_or_above).map(|i| prefix.bound_cut(i)).chain(
        extra
            .iter()
            .copied()
            .filter(|p| p.pos > a.pos && p.pos < b.pos),
    );
    let mut best: Option<(Cut, f64)> = None;
    for p in candidates {
        let e = a.error_to(&p) + p.error_to(b);
        if best.is_none_or(|(_, be)| e < be) {
            best = Some((p, e));
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fragment::optimal_fragmentation;
    use crate::value::Chunk;

    fn chunk(start: u64, end: u64, value: f64) -> Chunk {
        Chunk { start, end, value }
    }

    fn prefix(chunks: &[Chunk]) -> ChunkPrefix {
        ChunkPrefix::new(chunks).unwrap()
    }

    #[test]
    fn splits_at_value_change() {
        let prefix = prefix(&[chunk(0, 50, 1.0), chunk(50, 100, 5.0)]);
        let mut g = GreedyFragmenter::new(100, 4);
        assert_eq!(g.step(&prefix), StepOutcome::Changed);
        assert_eq!(g.fragmentation().boundaries(), &[0, 50, 100]);
        // Error is now zero: further steps are stable.
        assert_eq!(g.step(&prefix), StepOutcome::Stable);
    }

    #[test]
    fn converges_to_optimal_on_staircase() {
        let prefix = prefix(&[
            chunk(0, 10, 1.0),
            chunk(10, 20, 4.0),
            chunk(20, 30, 9.0),
            chunk(30, 40, 2.0),
        ]);
        let mut g = GreedyFragmenter::new(40, 4);
        g.run(&prefix, 16);
        assert!(g.fragmentation().total_error(&prefix).unwrap() < 1e-9);
        assert_eq!(g.len(), 4);
    }

    #[test]
    fn never_exceeds_cap() {
        let chunks: Vec<Chunk> = (0..20)
            .map(|i| chunk(i * 5, (i + 1) * 5, (i % 7) as f64))
            .collect();
        let mut g = GreedyFragmenter::new(100, 6);
        g.run(&prefix(&chunks), 64);
        assert!(g.len() <= 6);
        let f = g.fragmentation();
        assert_eq!(f.table_len(), 100);
    }

    #[test]
    fn each_split_reduces_error() {
        let chunks: Vec<Chunk> = (0..16)
            .map(|i| chunk(i * 4, (i + 1) * 4, ((i * 13) % 11) as f64))
            .collect();
        let prefix = prefix(&chunks);
        let mut g = GreedyFragmenter::new(64, 16);
        let mut prev = g.fragmentation().total_error(&prefix).unwrap();
        while g.step(&prefix) == StepOutcome::Changed {
            let cur = g.fragmentation().total_error(&prefix).unwrap();
            assert!(cur < prev + 1e-9, "split increased error: {prev} -> {cur}");
            prev = cur;
        }
    }

    /// The paper's Fig. 4 motivation: after a workload shift the greedy
    /// fragmenter must *move* a boundary, which requires the 3-into-2 merge.
    #[test]
    fn merge_enables_adaptation_after_shift() {
        // Old workload: hot region 0..50.
        let old = prefix(&[chunk(0, 50, 5.0), chunk(50, 100, 0.0)]);
        let mut g = GreedyFragmenter::new(100, 3);
        g.run(&old, 8);
        assert_eq!(g.fragmentation().boundaries(), &[0, 50, 100]);

        // Shifted workload: hot region 30..80. Reaching the zero-error
        // boundaries {0,30,80,100} with a cap of 3 requires merging a triple
        // back into two so the freed split can land at the new edge.
        let new = prefix(&[chunk(0, 30, 0.0), chunk(30, 80, 5.0), chunk(80, 100, 0.0)]);
        let before = g.fragmentation().total_error(&new).unwrap();
        g.run(&new, 16);
        let after = g.fragmentation().total_error(&new).unwrap();
        assert!(
            after < before,
            "adaptation failed: error {before} -> {after}"
        );
        assert!(after < 1e-9, "did not converge: residual error {after}");
        assert_eq!(g.fragmentation().boundaries(), &[0, 30, 80, 100]);
    }

    #[test]
    fn tracks_optimal_within_factor_on_random_values() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        for _ in 0..10 {
            let m = rng.gen_range(6..24usize);
            let mut chunks = Vec::new();
            let mut pos = 0u64;
            for _ in 0..m {
                let len = rng.gen_range(1..30u64);
                chunks.push(chunk(pos, pos + len, rng.gen_range(0.0..8.0f64)));
                pos += len;
            }
            let k = rng.gen_range(2..=m.min(8));
            let prefix = prefix(&chunks);
            let opt = optimal_fragmentation(&chunks, k)
                .unwrap()
                .total_error(&prefix)
                .unwrap();
            let mut g = GreedyFragmenter::new(pos, k);
            g.run(&prefix, 200);
            let greedy = g.fragmentation().total_error(&prefix).unwrap();
            assert!(
                greedy + 1e-9 >= opt,
                "greedy beat optimal?! {greedy} < {opt}"
            );
            // The paper reports greedy within ~50% of optimal on static
            // workloads; allow generous slack for adversarial random cases.
            assert!(
                greedy <= opt * 4.0 + 1e-6 || greedy - opt < 1e-6,
                "greedy {greedy} far from optimal {opt} (k={k}, m={m})"
            );
        }
    }

    #[test]
    fn stable_on_uniform_values() {
        let mut g = GreedyFragmenter::new(100, 8);
        assert_eq!(g.step(&prefix(&[chunk(0, 100, 2.0)])), StepOutcome::Stable);
        assert_eq!(g.len(), 1);
    }

    #[test]
    fn cap_of_one_is_inert() {
        let mut g = GreedyFragmenter::new(100, 1);
        let prefix = prefix(&[chunk(0, 50, 1.0), chunk(50, 100, 9.0)]);
        assert_eq!(g.step(&prefix), StepOutcome::Stable);
        assert_eq!(g.len(), 1);
    }

    /// The Fig. 4 ablation: after the hot range moves, the pairwise-merge
    /// variant cannot relocate its boundaries as well as three-into-two.
    #[test]
    fn pairwise_merge_adapts_worse_than_triple() {
        let old = prefix(&[chunk(0, 50, 5.0), chunk(50, 100, 0.0)]);
        let new = prefix(&[chunk(0, 30, 0.0), chunk(30, 80, 5.0), chunk(80, 100, 0.0)]);
        let run_with = |policy: MergePolicy| {
            let mut g = GreedyFragmenter::new(100, 3).with_merge_policy(policy);
            g.run(&old, 8);
            // Only a couple of adaptation rounds: the drifted regime where
            // merge choice matters (both converge eventually).
            g.step(&new);
            g.fragmentation().total_error(&new).unwrap()
        };
        let triple = run_with(MergePolicy::TripleToPair);
        let pair = run_with(MergePolicy::PairToOne);
        assert!(
            triple <= pair + 1e-12,
            "triple {triple} should adapt at least as fast as pair {pair}"
        );
    }

    #[test]
    fn adopting_existing_fragmentation() {
        let f = Fragmentation::from_boundaries(vec![0, 10, 100]);
        let g = GreedyFragmenter::from_fragmentation(f.clone(), 4);
        assert_eq!(g.fragmentation(), f);
    }
}

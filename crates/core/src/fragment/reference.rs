//! The binary-search fragment kernel the index-direct one replaced, kept as
//! an executable specification.
//!
//! [`RefPrefix`] resolves every queried position by `partition_point`, as
//! `ChunkPrefix` once did, and [`RefGreedy`] is the greedy step that called
//! it twice per candidate. The property tests below drive both kernels over
//! drifting value functions (old cuts fall inside new chunks) and require
//! the same boundaries, the same step outcomes and bit-identical errors.

use proptest::prelude::*;

use super::greedy::REL_EPSILON;
use super::optimal::optimal_cuts;
use super::{
    optimal_fragmentation, ChunkPrefix, GreedyFragmenter, MergePolicy, StepOutcome,
    DEFAULT_MIN_SPLIT_GAIN,
};
use crate::value::Chunk;

/// Prefix sums of `V(x)` and `V(x)²`, queried by binary search.
struct RefPrefix {
    bounds: Vec<u64>,
    values: Vec<f64>,
    s: Vec<f64>,
    s2: Vec<f64>,
}

impl RefPrefix {
    /// Assumes valid chunks (the tests build them contiguous from zero).
    fn new(chunks: &[Chunk]) -> Self {
        let mut bounds = vec![0];
        let mut values = Vec::new();
        let mut s = vec![0.0];
        let mut s2 = vec![0.0];
        let mut acc = 0.0;
        let mut acc2 = 0.0;
        for c in chunks {
            acc += c.sum();
            acc2 += c.sum_sq();
            bounds.push(c.end);
            values.push(c.value);
            s.push(acc);
            s2.push(acc2);
        }
        RefPrefix {
            bounds,
            values,
            s,
            s2,
        }
    }

    fn table_len(&self) -> u64 {
        self.bounds.last().map_or(0, |&last| last)
    }

    fn sum(&self, a: u64, b: u64) -> f64 {
        self.cum(&self.s, b, 1) - self.cum(&self.s, a, 1)
    }

    fn error(&self, a: u64, b: u64) -> f64 {
        let b = b.min(self.table_len());
        if a >= b {
            return 0.0;
        }
        let sum = self.sum(a, b);
        let sum_sq = self.cum(&self.s2, b, 2) - self.cum(&self.s2, a, 2);
        (sum_sq - sum * sum / (b - a) as f64).max(0.0)
    }

    fn cum(&self, prefix: &[f64], x: u64, power: u32) -> f64 {
        if x == 0 {
            return 0.0;
        }
        if x >= self.table_len() {
            return prefix.last().map_or(0.0, |&total| total);
        }
        let idx = self.bounds.partition_point(|&b| b <= x).saturating_sub(1);
        let v = self.values[idx];
        let partial = (x - self.bounds[idx]) as f64 * v.powi(power as i32);
        prefix[idx] + partial
    }
}

/// The greedy split/merge step over [`RefPrefix`].
struct RefGreedy {
    boundaries: Vec<u64>,
    max_frags: usize,
    min_split_gain: f64,
    min_relative_gain: f64,
    merge_policy: MergePolicy,
}

impl RefGreedy {
    fn len(&self) -> usize {
        self.boundaries.len() - 1
    }

    fn step(&mut self, prefix: &RefPrefix) -> StepOutcome {
        if self.len() < self.max_frags {
            if let Some((frag_idx, point, _gain)) = self.best_split(prefix) {
                self.boundaries.insert(frag_idx + 1, point);
                return StepOutcome::Changed;
            }
            return StepOutcome::Stable;
        }
        let need = match self.merge_policy {
            MergePolicy::TripleToPair => 3,
            MergePolicy::PairToOne => 2,
        };
        if self.len() < need {
            return StepOutcome::Stable;
        }
        let before_boundaries = self.boundaries.clone();
        let before_err = self.total_error_against(prefix);
        match self.merge_policy {
            MergePolicy::TripleToPair => self.apply_best_merge(prefix),
            MergePolicy::PairToOne => self.apply_best_pair_merge(prefix),
        }
        if let Some((frag_idx, point, _gain)) = self.best_split(prefix) {
            self.boundaries.insert(frag_idx + 1, point);
        }
        let after_err = self.total_error_against(prefix);
        let floor = self.min_split_gain + (REL_EPSILON + self.min_relative_gain) * before_err;
        if after_err < before_err - floor {
            StepOutcome::Changed
        } else {
            self.boundaries = before_boundaries;
            StepOutcome::Stable
        }
    }

    fn total_error_against(&self, prefix: &RefPrefix) -> f64 {
        self.boundaries
            .windows(2)
            .map(|w| prefix.error(w[0], w[1]))
            .sum()
    }

    fn best_split(&self, prefix: &RefPrefix) -> Option<(usize, u64, f64)> {
        let mut best: Option<(usize, u64, f64)> = None;
        for (idx, w) in self.boundaries.windows(2).enumerate() {
            let (a, b) = (w[0], w[1]);
            let whole = prefix.error(a, b);
            if whole <= self.min_split_gain {
                continue;
            }
            if let Some((point, split_err)) = best_cut(prefix, a, b, &[]) {
                let gain = whole - split_err;
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

    fn apply_best_merge(&mut self, prefix: &RefPrefix) {
        let mut best: Option<(usize, u64, f64)> = None;
        for i in 0..self.len() - 2 {
            let a = self.boundaries[i];
            let b = self.boundaries[i + 1];
            let c = self.boundaries[i + 2];
            let d = self.boundaries[i + 3];
            let old = prefix.error(a, b) + prefix.error(b, c) + prefix.error(c, d);
            let Some((point, new)) = best_cut(prefix, a, d, &[b, c]) else {
                continue;
            };
            let delta = new - old;
            if best.is_none_or(|(_, _, d0)| delta < d0) {
                best = Some((i, point, delta));
            }
        }
        let Some((i, point, _)) = best else {
            return;
        };
        self.boundaries.splice(i + 1..i + 3, [point]);
    }

    fn apply_best_pair_merge(&mut self, prefix: &RefPrefix) {
        let mut best: Option<(usize, f64)> = None;
        for i in 1..self.boundaries.len() - 1 {
            let a = self.boundaries[i - 1];
            let b = self.boundaries[i];
            let c = self.boundaries[i + 1];
            let delta = prefix.error(a, c) - (prefix.error(a, b) + prefix.error(b, c));
            if best.is_none_or(|(_, d0)| delta < d0) {
                best = Some((i, delta));
            }
        }
        let Some((i, _)) = best else {
            return;
        };
        self.boundaries.remove(i);
    }
}

fn best_cut(prefix: &RefPrefix, a: u64, b: u64, extra: &[u64]) -> Option<(u64, f64)> {
    let bounds = &prefix.bounds;
    let lo = bounds.partition_point(|&x| x <= a);
    let hi = bounds.partition_point(|&x| x < b);
    let candidates = bounds[lo..hi]
        .iter()
        .copied()
        .chain(extra.iter().copied().filter(|&p| p > a && p < b));
    let mut best: Option<(u64, f64)> = None;
    for p in candidates {
        let e = prefix.error(a, p) + prefix.error(p, b);
        if best.is_none_or(|(_, be)| e < be) {
            best = Some((p, e));
        }
    }
    best
}

/// Chunks over `[0, table_len)` cut at the given raw positions (mapped into
/// the table, deduplicated); a zero `flag` makes a chunk's value zero, so
/// neighbouring chunks often share a value.
fn chunks_from(table_len: u64, parts: &[(u64, f64, u8)]) -> Vec<Chunk> {
    let mut cuts: Vec<u64> = parts.iter().map(|&(p, _, _)| p % table_len).collect();
    cuts.push(0);
    cuts.push(table_len);
    cuts.sort_unstable();
    cuts.dedup();
    cuts.windows(2)
        .zip(parts.iter().cycle())
        .map(|(w, &(_, value, flag))| Chunk {
            start: w[0],
            end: w[1],
            value: if flag == 0 { 0.0 } else { value },
        })
        .collect()
}

fn arb_parts() -> impl Strategy<Value = Vec<(u64, f64, u8)>> {
    prop::collection::vec((0u64..100_000, 0.0f64..4.0, 0u8..3), 1..40)
}

proptest! {
    /// Over several value-function periods, the index-direct greedy step
    /// makes the same moves as the binary-search one, step by step, and
    /// `run` ends where the reference's step loop ends.
    #[test]
    fn greedy_matches_binary_search_reference(
        table_len in 2u64..600,
        periods in prop::collection::vec(arb_parts(), 2..5),
        max_frags in 1usize..12,
        rounds in 1usize..21,
        pairwise in 0u8..2,
        damped in 0u8..2,
    ) {
        let merge_policy = if pairwise == 1 {
            MergePolicy::PairToOne
        } else {
            MergePolicy::TripleToPair
        };
        let min_relative_gain = if damped == 1 { 0.05 } else { 0.0 };
        let mut g = GreedyFragmenter::new(table_len, max_frags)
            .with_merge_policy(merge_policy)
            .with_min_relative_gain(min_relative_gain);
        let mut r = RefGreedy {
            boundaries: vec![0, table_len],
            max_frags,
            min_split_gain: DEFAULT_MIN_SPLIT_GAIN,
            min_relative_gain,
            merge_policy,
        };
        for parts in &periods {
            let chunks = chunks_from(table_len, parts);
            let prefix = ChunkPrefix::new(&chunks).unwrap();
            let ref_prefix = RefPrefix::new(&chunks);
            let mut by_run = g.clone();
            let changed = by_run.run(&prefix, rounds);
            let mut ref_changed = 0;
            for round in 0..rounds {
                let got = g.step(&prefix);
                let want = r.step(&ref_prefix);
                prop_assert_eq!(got, want, "round {}", round);
                prop_assert_eq!(g.fragmentation().boundaries().to_vec(), r.boundaries.clone());
                if want == StepOutcome::Stable {
                    break;
                }
                ref_changed += 1;
            }
            prop_assert_eq!(changed, ref_changed);
            prop_assert_eq!(by_run.fragmentation().boundaries().to_vec(), r.boundaries.clone());
        }
    }

    /// The index path equals `ChunkPrefix::error` bit for bit at every
    /// chunk-bound pair, and `ChunkPrefix::error`/`sum` equal the
    /// binary-search kernel bit for bit at arbitrary positions.
    #[test]
    fn index_path_matches_binary_search_error(
        table_len in 2u64..600,
        parts in arb_parts(),
        points in prop::collection::vec((0u64..100_000, 0u64..100_000), 1..20),
    ) {
        let chunks = chunks_from(table_len, &parts);
        let prefix = ChunkPrefix::new(&chunks).unwrap();
        let reference = RefPrefix::new(&chunks);
        let bounds = prefix.bounds();
        for i in 0..bounds.len() {
            for j in i + 1..bounds.len() {
                let indexed = prefix.bound_cut(i).error_to(&prefix.bound_cut(j));
                let searched = prefix.error(bounds[i], bounds[j]);
                prop_assert_eq!(indexed.to_bits(), searched.to_bits(), "bounds {} {}", i, j);
                let want = reference.error(bounds[i], bounds[j]);
                prop_assert_eq!(searched.to_bits(), want.to_bits(), "bounds {} {}", i, j);
            }
        }
        for (x, y) in points {
            let (a, b) = (x % table_len, y % table_len + 1);
            if a < b {
                prop_assert_eq!(prefix.error(a, b).to_bits(), reference.error(a, b).to_bits());
                prop_assert_eq!(prefix.sum(a, b).to_bits(), reference.sum(a, b).to_bits());
            }
        }
    }

    /// The DP over index-direct errors picks the same cuts as the same DP
    /// over the binary-search kernel.
    #[test]
    fn optimal_matches_binary_search_reference(
        table_len in 2u64..600,
        parts in arb_parts(),
        max_frags in 1usize..16,
    ) {
        let chunks = chunks_from(table_len, &parts);
        let reference = RefPrefix::new(&chunks);
        let bounds = &reference.bounds;
        let m = chunks.len();
        let want: Vec<u64> = optimal_cuts(m, max_frags.min(m), |a, b| {
            reference.error(bounds[a], bounds[b])
        })
        .into_iter()
        .map(|c| bounds[c])
        .collect();
        let got = optimal_fragmentation(&chunks, max_frags).unwrap();
        prop_assert_eq!(got.boundaries(), &want[..]);
    }
}

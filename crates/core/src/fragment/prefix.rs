//! Prefix statistics over value chunks (paper §5.2).
//!
//! The fragment error (unnormalized variance, Eq. 4) of a tuple range comes
//! from prefix sums of `V(x)` and `V(x)²` over the `m` chunks of the
//! piecewise-constant value function. Between chunk bounds it is the
//! paper's constant-time array lookup: `O(1)`, by index. At an arbitrary
//! tuple position the array is compressed into runs, so the position is
//! first resolved to its chunk by binary search: `O(log m)`.
//!
//! Both paths meet in one place. A position resolves to a [`Cut`] — the
//! cumulative sums before it — and [`Cut::error_to`] is the single Eq. 6
//! expression over two cuts. [`ChunkPrefix::error`] resolves both ends by
//! search and applies it; the fragmenters resolve each position once and
//! read chunk bounds by index, so the two agree bit for bit by
//! construction.

use super::FragmentError;
use crate::value::Chunk;

/// Prefix sums of `V(x)` and `V(x)²` over a chunked value function.
#[derive(Debug, Clone)]
pub struct ChunkPrefix {
    /// Chunk boundaries: `bounds[0] = 0`, `bounds[m] = table_len`.
    bounds: Vec<u64>,
    /// Per-chunk value (length `m`).
    values: Vec<f64>,
    /// `s[i]` = Σ V(x) for tuples before `bounds[i]`.
    s: Vec<f64>,
    /// `s2[i]` = Σ V(x)² for tuples before `bounds[i]`.
    s2: Vec<f64>,
}

impl ChunkPrefix {
    /// Builds prefix statistics from contiguous chunks covering
    /// `[0, table_len)`.
    ///
    /// # Errors
    /// Returns a [`FragmentError`] if the chunks are empty, do not start at
    /// zero, are not contiguous, or contain an empty chunk.
    pub fn new(chunks: &[Chunk]) -> Result<Self, FragmentError> {
        let Some(first) = chunks.first() else {
            return Err(FragmentError::NoChunks);
        };
        if first.start != 0 {
            return Err(FragmentError::NotAtZero { start: first.start });
        }
        let m = chunks.len();
        let mut bounds = Vec::with_capacity(m + 1);
        let mut values = Vec::with_capacity(m);
        let mut s = Vec::with_capacity(m + 1);
        let mut s2 = Vec::with_capacity(m + 1);
        bounds.push(0);
        s.push(0.0);
        s2.push(0.0);
        let mut acc = 0.0;
        let mut acc2 = 0.0;
        let mut prev_end = 0;
        for c in chunks {
            if c.start != prev_end {
                return Err(FragmentError::Discontiguous {
                    expected: prev_end,
                    got: c.start,
                });
            }
            if c.end <= c.start {
                return Err(FragmentError::EmptyChunk {
                    start: c.start,
                    end: c.end,
                });
            }
            prev_end = c.end;
            acc += c.sum();
            acc2 += c.sum_sq();
            bounds.push(c.end);
            values.push(c.value);
            s.push(acc);
            s2.push(acc2);
        }
        Ok(ChunkPrefix {
            bounds,
            values,
            s,
            s2,
        })
    }

    /// Total number of tuples covered.
    pub fn table_len(&self) -> u64 {
        self.bounds.last().map_or(0, |&last| last)
    }

    /// Number of chunks.
    pub fn num_chunks(&self) -> usize {
        self.values.len()
    }

    /// The chunk boundaries (candidate fragment cut points), including 0 and
    /// `table_len`.
    pub fn bounds(&self) -> &[u64] {
        &self.bounds
    }

    /// Index of the chunk containing tuple `x`.
    ///
    /// # Errors
    /// Returns [`FragmentError::TupleOutOfRange`] if `x >= table_len`.
    pub fn chunk_of(&self, x: u64) -> Result<usize, FragmentError> {
        if x >= self.table_len() {
            return Err(FragmentError::TupleOutOfRange {
                x,
                table_len: self.table_len(),
            });
        }
        // partition_point gives the first bound > x; the chunk is one before.
        Ok(self.bounds.partition_point(|&b| b <= x).saturating_sub(1))
    }

    /// Σ V(x) over tuple range `[a, b)`.
    pub fn sum(&self, a: u64, b: u64) -> f64 {
        self.cut(b).s - self.cut(a).s
    }

    /// Σ V(x)² over tuple range `[a, b)`.
    pub fn sum_sq(&self, a: u64, b: u64) -> f64 {
        self.cut(b).s2 - self.cut(a).s2
    }

    /// Fragment error (paper Eq. 4 via Eq. 6, with the `1/Size` that the
    /// paper's printed Eq. 6 drops — see DESIGN.md): the unnormalized
    /// variance of `V(x)` over `[a, b)`. Clamped at zero against float
    /// residue. `O(log m)`: both ends are resolved by binary search.
    ///
    /// Out-of-contract ranges (empty, or extending beyond the table) are
    /// clamped and contribute zero error; debug builds assert on them so
    /// tests still catch misuse. Use [`ChunkPrefix::try_error`] to surface
    /// the violation as a typed error instead.
    pub fn error(&self, a: u64, b: u64) -> f64 {
        debug_assert!(a < b, "empty fragment {a}..{b}");
        debug_assert!(b <= self.table_len(), "fragment {a}..{b} beyond table");
        let b = b.min(self.table_len());
        if a >= b {
            return 0.0;
        }
        self.cut(a).error_to(&self.cut(b))
    }

    /// Checked variant of [`ChunkPrefix::error`].
    ///
    /// # Errors
    /// Returns [`FragmentError::EmptyRange`] if `a >= b` and
    /// [`FragmentError::RangeBeyondTable`] if `b > table_len`.
    pub fn try_error(&self, a: u64, b: u64) -> Result<f64, FragmentError> {
        if a >= b {
            return Err(FragmentError::EmptyRange { start: a, end: b });
        }
        if b > self.table_len() {
            return Err(FragmentError::RangeBeyondTable {
                start: a,
                end: b,
                table_len: self.table_len(),
            });
        }
        Ok(self.error(a, b))
    }

    /// Resolves tuple position `x` (which may be `table_len`; anything
    /// beyond resolves as `table_len`'s sums) by binary search, handling a
    /// position inside a chunk by adding the chunk's partial run.
    pub(crate) fn cut(&self, x: u64) -> Cut {
        let at_or_above = self.bounds.partition_point(|&b| b < x);
        if self.bounds.get(at_or_above) == Some(&x) {
            return self.bound_cut(at_or_above);
        }
        let m = self.num_chunks();
        if at_or_above > m {
            return Cut {
                pos: x,
                above: at_or_above,
                at_or_above,
                ..self.bound_cut(m)
            };
        }
        // bounds[0] = 0 <= x, so x strictly inside chunk at_or_above - 1.
        let idx = at_or_above - 1;
        let v = self.values[idx];
        let run = (x - self.bounds[idx]) as f64;
        Cut {
            pos: x,
            above: at_or_above,
            at_or_above,
            s: self.s[idx] + run * v,
            s2: self.s2[idx] + run * (v * v),
        }
    }

    /// The cut at chunk bound `i` (`0..=num_chunks`), by index: `O(1)`.
    pub(crate) fn bound_cut(&self, i: usize) -> Cut {
        Cut {
            pos: self.bounds[i],
            above: i + 1,
            at_or_above: i,
            s: self.s[i],
            s2: self.s2[i],
        }
    }
}

/// Summed error of the fragments between consecutive resolved boundaries.
pub(crate) fn total_error(cuts: &[Cut]) -> f64 {
    cuts.windows(2).map(|w| w[0].error_to(&w[1])).sum()
}

/// A tuple position resolved against a [`ChunkPrefix`]: the cumulative
/// sums before it, plus where it falls among the chunk bounds, so that
/// errors between resolved positions and the chunk bounds strictly between
/// them need no further search.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Cut {
    /// The tuple position.
    pub(crate) pos: u64,
    /// Index of the first chunk bound `> pos`.
    pub(crate) above: usize,
    /// Index of the first chunk bound `>= pos`.
    pub(crate) at_or_above: usize,
    /// Σ V(x) for tuples before `pos`.
    s: f64,
    /// Σ V(x)² for tuples before `pos`.
    s2: f64,
}

impl Cut {
    /// Eq. 6 — the one expression every fragment error comes from: the
    /// unnormalized variance of `V(x)` over `[self.pos, end.pos)`, clamped
    /// at zero against float residue. Requires `self.pos < end.pos`.
    pub(crate) fn error_to(&self, end: &Cut) -> f64 {
        debug_assert!(self.pos < end.pos, "empty fragment {self:?}..{end:?}");
        let sum = end.s - self.s;
        let sum_sq = end.s2 - self.s2;
        (sum_sq - sum * sum / end.pos.saturating_sub(self.pos) as f64).max(0.0)
    }

    /// Σ V(x) over `[self.pos, end.pos)`.
    pub(crate) fn sum_to(&self, end: &Cut) -> f64 {
        end.s - self.s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chunks() -> Vec<Chunk> {
        vec![
            Chunk {
                start: 0,
                end: 4,
                value: 1.0,
            },
            Chunk {
                start: 4,
                end: 10,
                value: 3.0,
            },
            Chunk {
                start: 10,
                end: 12,
                value: 0.0,
            },
        ]
    }

    fn assert_close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-9, "{a} vs {b}");
    }

    #[test]
    fn sums_match_direct() {
        let p = ChunkPrefix::new(&chunks()).unwrap();
        assert_eq!(p.table_len(), 12);
        assert_eq!(p.num_chunks(), 3);
        assert_close(p.sum(0, 12), 4.0 + 18.0);
        assert_close(p.sum(2, 6), 2.0 + 6.0);
        assert_close(p.sum_sq(2, 6), 2.0 + 18.0);
        assert_close(p.sum(10, 12), 0.0);
        assert_close(p.sum(5, 5), 0.0);
    }

    #[test]
    fn chunk_of_boundaries() {
        let p = ChunkPrefix::new(&chunks()).unwrap();
        assert_eq!(p.chunk_of(0), Ok(0));
        assert_eq!(p.chunk_of(3), Ok(0));
        assert_eq!(p.chunk_of(4), Ok(1));
        assert_eq!(p.chunk_of(11), Ok(2));
        assert_eq!(
            p.chunk_of(12),
            Err(FragmentError::TupleOutOfRange {
                x: 12,
                table_len: 12
            })
        );
    }

    #[test]
    fn error_of_constant_range_is_zero() {
        let p = ChunkPrefix::new(&chunks()).unwrap();
        assert_close(p.error(0, 4), 0.0);
        assert_close(p.error(4, 10), 0.0);
        assert_close(p.error(5, 9), 0.0);
    }

    #[test]
    fn error_matches_direct_variance() {
        let p = ChunkPrefix::new(&chunks()).unwrap();
        // Range 2..6: values [1,1,3,3]; mean 2; sum sq dev = 4.
        assert_close(p.error(2, 6), 4.0);
        // Whole table: values [1×4, 3×6, 0×2]; mean 22/12.
        let mean: f64 = 22.0 / 12.0;
        let direct = 4.0 * (1.0 - mean).powi(2) + 6.0 * (3.0 - mean).powi(2) + 2.0 * mean * mean;
        assert_close(p.error(0, 12), direct);
    }

    #[test]
    fn error_is_never_negative() {
        // A constant function whose float sums could leave tiny residue.
        let c = vec![Chunk {
            start: 0,
            end: 1000,
            value: 0.1,
        }];
        let p = ChunkPrefix::new(&c).unwrap();
        for a in (0..900).step_by(97) {
            assert!(p.error(a, a + 100) >= 0.0);
        }
    }

    #[test]
    fn gap_in_chunks_rejected() {
        let got = ChunkPrefix::new(&[
            Chunk {
                start: 0,
                end: 4,
                value: 1.0,
            },
            Chunk {
                start: 5,
                end: 9,
                value: 1.0,
            },
        ]);
        assert!(matches!(
            got,
            Err(FragmentError::Discontiguous {
                expected: 4,
                got: 5
            })
        ));
    }

    #[test]
    fn offset_chunks_rejected() {
        let got = ChunkPrefix::new(&[Chunk {
            start: 1,
            end: 4,
            value: 1.0,
        }]);
        assert!(matches!(got, Err(FragmentError::NotAtZero { start: 1 })));
    }

    #[test]
    fn no_chunks_rejected() {
        assert!(matches!(
            ChunkPrefix::new(&[]),
            Err(FragmentError::NoChunks)
        ));
    }

    #[test]
    fn empty_chunk_rejected() {
        let got = ChunkPrefix::new(&[Chunk {
            start: 0,
            end: 0,
            value: 1.0,
        }]);
        assert!(matches!(
            got,
            Err(FragmentError::EmptyChunk { start: 0, end: 0 })
        ));
    }

    #[test]
    fn empty_error_range_rejected() {
        let p = ChunkPrefix::new(&chunks()).unwrap();
        assert_eq!(
            p.try_error(5, 5),
            Err(FragmentError::EmptyRange { start: 5, end: 5 })
        );
        assert_eq!(
            p.try_error(5, 13),
            Err(FragmentError::RangeBeyondTable {
                start: 5,
                end: 13,
                table_len: 12
            })
        );
        assert_close(p.try_error(2, 6).unwrap(), p.error(2, 6));
    }
}

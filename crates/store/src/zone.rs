//! Per-block zone maps over numeric columns.
//!
//! A zone map records, for every block of a scramble, the minimum and maximum
//! value a numeric column takes inside that block. The scan planner consults
//! it to skip blocks that provably contain no row satisfying a numeric range
//! predicate (`DepTime > $t`, `low <= x <= high`), the same way the block
//! bitmap indexes rule blocks out for categorical predicates and active
//! groups. Zone maps are built eagerly when a [`Scramble`] is constructed and
//! persisted verbatim in the on-disk segment format, so the in-memory and
//! segment-backed scan paths make bit-identical skip decisions.
//!
//! NaN rows are ignored when computing the per-block extrema; since a NaN
//! never satisfies a numeric comparison, a block whose non-NaN range misses
//! the predicate range can still be skipped soundly.
//!
//! [`Scramble`]: crate::scramble::Scramble

use crate::block::{BlockId, BlockLayout};
use crate::column::{Column, ColumnData};

/// A numeric range filter extracted from a predicate conjunct, used for
/// zone-map block skipping. Bounds follow the predicate semantics of
/// [`crate::predicate::Predicate`]: `Gt`/`Lt` are strict, `Between` is
/// inclusive on both sides.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RangeFilter {
    /// Rows must satisfy `value > threshold`.
    Gt(f64),
    /// Rows must satisfy `value < threshold`.
    Lt(f64),
    /// Rows must satisfy `low <= value <= high`.
    Between(f64, f64),
}

/// Per-block `[min, max]` summaries of one numeric column.
#[derive(Debug, Clone, PartialEq)]
pub struct ZoneMap {
    column: String,
    /// Per-block minimum over non-NaN rows (`+inf` for blocks with none).
    mins: Vec<f64>,
    /// Per-block maximum over non-NaN rows (`-inf` for blocks with none).
    maxs: Vec<f64>,
}

impl ZoneMap {
    /// Builds the zone map for a numeric column under the given block
    /// layout. Returns `None` for categorical columns.
    pub fn build(column: &Column, layout: &BlockLayout) -> Option<Self> {
        let num_blocks = layout.num_blocks();
        let mut mins = vec![f64::INFINITY; num_blocks];
        let mut maxs = vec![f64::NEG_INFINITY; num_blocks];
        match column.data() {
            ColumnData::Float64(values) => {
                for block in 0..num_blocks {
                    for row in layout.rows_of(BlockId(block)) {
                        let v = values[row];
                        if !v.is_nan() {
                            mins[block] = mins[block].min(v);
                            maxs[block] = maxs[block].max(v);
                        }
                    }
                }
            }
            ColumnData::Int64(values) => {
                for block in 0..num_blocks {
                    for row in layout.rows_of(BlockId(block)) {
                        let v = values[row] as f64;
                        mins[block] = mins[block].min(v);
                        maxs[block] = maxs[block].max(v);
                    }
                }
            }
            ColumnData::Categorical { .. } => return None,
        }
        Some(Self {
            column: column.name().to_string(),
            mins,
            maxs,
        })
    }

    /// Reassembles a zone map from its raw parts (used when loading a
    /// persisted segment). `mins` and `maxs` must have one entry per block.
    pub fn from_parts(column: impl Into<String>, mins: Vec<f64>, maxs: Vec<f64>) -> Self {
        assert_eq!(mins.len(), maxs.len(), "zone map length mismatch");
        Self {
            column: column.into(),
            mins,
            maxs,
        }
    }

    /// Name of the summarized column.
    pub fn column(&self) -> &str {
        &self.column
    }

    /// Number of blocks summarized.
    pub fn num_blocks(&self) -> usize {
        self.mins.len()
    }

    /// Per-block minima (raw storage, for serialization).
    pub fn mins(&self) -> &[f64] {
        &self.mins
    }

    /// Per-block maxima (raw storage, for serialization).
    pub fn maxs(&self) -> &[f64] {
        &self.maxs
    }

    /// The `[min, max]` range of `block`, or `None` if the block holds no
    /// non-NaN value (or the id is out of range).
    pub fn block_range(&self, block: BlockId) -> Option<(f64, f64)> {
        let (min, max) = (
            *self.mins.get(block.index())?,
            *self.maxs.get(block.index())?,
        );
        (min <= max).then_some((min, max))
    }

    /// Whether `block` *may* contain a row satisfying `filter`. Conservative:
    /// `true` whenever the block's range overlaps the filter range (or the
    /// block id is out of range), `false` only when no row can match.
    #[inline]
    pub fn block_may_match(&self, block: BlockId, filter: RangeFilter) -> bool {
        let Some((&min, &max)) = self
            .mins
            .get(block.index())
            .zip(self.maxs.get(block.index()))
        else {
            return true;
        };
        if min > max {
            // No non-NaN rows: nothing in the block can satisfy a comparison.
            return false;
        }
        match filter {
            RangeFilter::Gt(t) => max > t,
            RangeFilter::Lt(t) => min < t,
            RangeFilter::Between(lo, hi) => max >= lo && min <= hi,
        }
    }

    /// [`block_may_match`](Self::block_may_match) for blocks
    /// `0..num_blocks` at once, as a bitset of `⌈num_blocks / 64⌉` words:
    /// bit `b` is set iff block `b` may match. Blocks past the zone map's
    /// end are admitted; bits past `num_blocks` are clear.
    pub fn may_match_words(&self, filter: RangeFilter, num_blocks: usize) -> Vec<u64> {
        match filter {
            RangeFilter::Gt(t) => self.words_where(num_blocks, |_, max| max > t),
            RangeFilter::Lt(t) => self.words_where(num_blocks, |min, _| min < t),
            RangeFilter::Between(lo, hi) => {
                self.words_where(num_blocks, |min, max| max >= lo && min <= hi)
            }
        }
    }

    /// The bitset of blocks `0..num_blocks` that hold a non-NaN value and
    /// whose `[min, max]` passes `test`, plus the unmapped ones.
    fn words_where(&self, num_blocks: usize, test: impl Fn(f64, f64) -> bool) -> Vec<u64> {
        let mapped = num_blocks.min(self.mins.len());
        let mut words = vec![0u64; num_blocks.div_ceil(64)];
        let extrema = self.mins[..mapped]
            .chunks(64)
            .zip(self.maxs[..mapped].chunks(64));
        for (word, (mins, maxs)) in words.iter_mut().zip(extrema) {
            for (bit, (&min, &max)) in mins.iter().zip(maxs).enumerate() {
                let empty = min > max;
                *word |= u64::from(!empty && test(min, max)) << bit;
            }
        }
        for b in mapped..num_blocks {
            words[b / 64] |= 1 << (b % 64);
        }
        words
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn layout(rows: usize, size: usize) -> BlockLayout {
        BlockLayout::new(rows, size)
    }

    #[test]
    fn float_zone_map_per_block_extrema() {
        let c = Column::float("x", vec![1.0, 5.0, -2.0, 10.0, 11.0, 12.0]);
        let z = ZoneMap::build(&c, &layout(6, 3)).unwrap();
        assert_eq!(z.num_blocks(), 2);
        assert_eq!(z.column(), "x");
        assert_eq!(z.block_range(BlockId(0)), Some((-2.0, 5.0)));
        assert_eq!(z.block_range(BlockId(1)), Some((10.0, 12.0)));
        assert_eq!(z.block_range(BlockId(7)), None);
    }

    #[test]
    fn int_columns_are_zone_mapped_categoricals_are_not() {
        let c = Column::int("t", vec![600, 1200, 1800, 2300]);
        let z = ZoneMap::build(&c, &layout(4, 2)).unwrap();
        assert_eq!(z.block_range(BlockId(1)), Some((1800.0, 2300.0)));
        let cat = Column::categorical("g", &["a", "b"]);
        assert!(ZoneMap::build(&cat, &layout(2, 2)).is_none());
    }

    #[test]
    fn range_filters_are_conservative() {
        let c = Column::float("x", vec![1.0, 5.0, 10.0, 12.0]);
        let z = ZoneMap::build(&c, &layout(4, 2)).unwrap();
        // Block 0 covers [1, 5], block 1 covers [10, 12].
        assert!(z.block_may_match(BlockId(0), RangeFilter::Gt(4.0)));
        assert!(
            !z.block_may_match(BlockId(0), RangeFilter::Gt(5.0)),
            "strict >"
        );
        assert!(z.block_may_match(BlockId(1), RangeFilter::Gt(5.0)));
        assert!(
            !z.block_may_match(BlockId(1), RangeFilter::Lt(10.0)),
            "strict <"
        );
        assert!(z.block_may_match(BlockId(0), RangeFilter::Lt(1.5)));
        assert!(z.block_may_match(BlockId(0), RangeFilter::Between(5.0, 9.0)));
        assert!(!z.block_may_match(BlockId(0), RangeFilter::Between(6.0, 9.0)));
        assert!(z.block_may_match(BlockId(1), RangeFilter::Between(12.0, 20.0)));
        // Out-of-range blocks can never be ruled out.
        assert!(z.block_may_match(BlockId(9), RangeFilter::Gt(1e300)));
    }

    #[test]
    fn nan_rows_are_ignored_and_all_nan_blocks_never_match() {
        let c = Column::float("x", vec![f64::NAN, 2.0, f64::NAN, f64::NAN]);
        let z = ZoneMap::build(&c, &layout(4, 2)).unwrap();
        assert_eq!(z.block_range(BlockId(0)), Some((2.0, 2.0)));
        assert_eq!(z.block_range(BlockId(1)), None);
        assert!(!z.block_may_match(BlockId(1), RangeFilter::Gt(f64::NEG_INFINITY)));
        assert!(!z.block_may_match(
            BlockId(1),
            RangeFilter::Between(f64::NEG_INFINITY, f64::INFINITY)
        ));
    }

    /// The word fill gives `block_may_match`'s verdict on every block:
    /// strict and inclusive comparisons, ties on the bounds, NaN-only
    /// blocks, ±∞ thresholds, a partial last word and blocks past the
    /// zone map's end.
    #[test]
    fn may_match_words_equal_the_per_block_verdict() {
        // 150 blocks of 2 rows: block b holds b and b + 0.5, every
        // seventh block only NaN, and the last block one value.
        let values: Vec<f64> = (0..299)
            .map(|r| match r / 2 {
                b if b % 7 == 3 => f64::NAN,
                b => b as f64 + 0.5 * (r % 2) as f64,
            })
            .collect();
        let z = ZoneMap::build(&Column::float("x", values), &layout(299, 2)).unwrap();
        assert_eq!(z.num_blocks(), 150);
        assert_eq!(z.block_range(BlockId(3)), None);
        let (inf, nan) = (f64::INFINITY, f64::NAN);
        let filters = [
            RangeFilter::Gt(70.0),
            RangeFilter::Gt(70.5),
            RangeFilter::Gt(-inf),
            RangeFilter::Gt(inf),
            RangeFilter::Lt(70.0),
            RangeFilter::Lt(-inf),
            RangeFilter::Lt(inf),
            RangeFilter::Lt(nan),
            RangeFilter::Between(10.5, 100.0),
            RangeFilter::Between(-inf, inf),
            RangeFilter::Between(64.2, 64.4),
            RangeFilter::Between(inf, -inf),
        ];
        // 150 blocks end mid-word; 200 reach past the zone map's end.
        for num_blocks in [0, 64, 100, 150, 200] {
            for filter in filters {
                let words = z.may_match_words(filter, num_blocks);
                assert_eq!(words.len(), num_blocks.div_ceil(64));
                for b in 0..words.len() * 64 {
                    let want = b < num_blocks && z.block_may_match(BlockId(b), filter);
                    let got = words[b / 64] & (1 << (b % 64)) != 0;
                    assert_eq!(got, want, "{filter:?} over {num_blocks} blocks, block {b}");
                }
            }
        }
        // The cases are not vacuous: some blocks match, some do not.
        let some = z.may_match_words(RangeFilter::Gt(70.0), 150);
        assert!(some.iter().any(|&w| w != 0) && some.iter().any(|&w| w != u64::MAX));
    }

    #[test]
    fn round_trips_through_raw_parts() {
        let c = Column::float("x", vec![1.0, 5.0, 10.0, 12.0]);
        let z = ZoneMap::build(&c, &layout(4, 2)).unwrap();
        let rebuilt = ZoneMap::from_parts(z.column(), z.mins().to_vec(), z.maxs().to_vec());
        assert_eq!(z, rebuilt);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_parts_panic() {
        ZoneMap::from_parts("x", vec![0.0], vec![]);
    }
}

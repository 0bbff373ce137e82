//! Block-level bitmap indexes over categorical columns.
//!
//! FastFrame "uses block-based bitmaps over categorical attributes for
//! efficient processing of queries with predicates or groups" (§4). For each
//! distinct value of an indexed categorical column, the index stores one bit
//! per *block*: whether any row of that block carries the value. Active
//! scanning (§4.3) consults these bitmaps to decide whether a block can
//! contain tuples for any currently-active group — if not, the block is
//! skipped without being fetched.

use crate::block::{BlockId, BlockLayout};
use crate::column::Column;
use crate::table::{StoreError, StoreResult};

/// A fixed-size bit set backed by `u64` words.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitSet {
    bits: Vec<u64>,
    len: usize,
}

impl BitSet {
    /// Creates a bit set of `len` zero bits.
    pub fn new(len: usize) -> Self {
        Self {
            bits: vec![0u64; len.div_ceil(64)],
            len,
        }
    }

    /// Number of bits.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the set has zero bits.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Sets bit `i`.
    #[inline]
    pub fn set(&mut self, i: usize) {
        debug_assert!(i < self.len);
        self.bits[i / 64] |= 1u64 << (i % 64);
    }

    /// Tests bit `i`.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        debug_assert!(i < self.len);
        self.bits[i / 64] & (1u64 << (i % 64)) != 0
    }

    /// Index of the lowest set bit, if any.
    pub fn first_set(&self) -> Option<usize> {
        self.bits
            .iter()
            .enumerate()
            .find(|(_, &w)| w != 0)
            .map(|(i, w)| i * 64 + w.trailing_zeros() as usize)
            .filter(|&i| i < self.len)
    }

    /// The backing `u64` words (for serialization). Bit `i` lives at
    /// `words()[i / 64]`, position `i % 64`.
    pub fn words(&self) -> &[u64] {
        &self.bits
    }

    /// Reassembles a bit set from its backing words and bit length (the
    /// inverse of [`Self::words`]). Panics if `words` is not exactly the
    /// number of words a `len`-bit set needs.
    pub fn from_words(words: Vec<u64>, len: usize) -> Self {
        assert_eq!(words.len(), len.div_ceil(64), "bitset word count mismatch");
        Self { bits: words, len }
    }
}

/// A block-level bitmap index over one categorical column of a scramble.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockBitmapIndex {
    column: String,
    /// One bitmap per dictionary code; bit `b` is set iff block `b` contains
    /// at least one row with that code.
    per_value: Vec<BitSet>,
    num_blocks: usize,
}

impl BlockBitmapIndex {
    /// Builds the index for `column` under the given block layout.
    ///
    /// # Errors
    ///
    /// Returns a type error if the column is not categorical.
    pub fn build(column: &Column, layout: &BlockLayout) -> StoreResult<Self> {
        let dictionary = column
            .dictionary()
            .ok_or_else(|| StoreError::TypeMismatch {
                name: column.name().to_string(),
                expected: "categorical",
                actual: column.data_type(),
            })?;
        let num_blocks = layout.num_blocks();
        let mut per_value = vec![BitSet::new(num_blocks); dictionary.len()];
        for block in 0..num_blocks {
            for row in layout.rows_of(BlockId(block)) {
                if let Some(code) = column.category_code(row) {
                    per_value[code as usize].set(block);
                }
            }
        }
        Ok(Self {
            column: column.name().to_string(),
            per_value,
            num_blocks,
        })
    }

    /// Reassembles an index from its raw parts (used when loading a
    /// persisted segment). Every bitmap must cover exactly `num_blocks`
    /// bits.
    pub fn from_parts(
        column: impl Into<String>,
        per_value: Vec<BitSet>,
        num_blocks: usize,
    ) -> Self {
        assert!(
            per_value.iter().all(|bs| bs.len() == num_blocks),
            "bitmap length mismatch"
        );
        Self {
            column: column.into(),
            per_value,
            num_blocks,
        }
    }

    /// The per-value bitmaps, indexed by dictionary code (for
    /// serialization).
    pub fn value_bitmaps(&self) -> &[BitSet] {
        &self.per_value
    }

    /// Name of the indexed column.
    pub fn column(&self) -> &str {
        &self.column
    }

    /// Number of blocks covered by each bitmap.
    pub fn num_blocks(&self) -> usize {
        self.num_blocks
    }

    /// Number of distinct values indexed.
    pub fn num_values(&self) -> usize {
        self.per_value.len()
    }

    /// Whether `block` contains at least one row with the given dictionary
    /// code. Returns `false` for out-of-range codes.
    #[inline]
    pub fn block_contains(&self, code: u32, block: BlockId) -> bool {
        self.per_value
            .get(code as usize)
            .map(|bs| bs.get(block.index()))
            .unwrap_or(false)
    }

    /// Whether `block` contains at least one row carrying *any* of the given
    /// codes — the check active scanning performs per block per active group
    /// set.
    pub fn block_contains_any(&self, codes: &[u32], block: BlockId) -> bool {
        codes.iter().any(|&c| self.block_contains(c, block))
    }

    /// The bitmap for one dictionary code.
    pub fn bitmap(&self, code: u32) -> Option<&BitSet> {
        self.per_value.get(code as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::BlockLayout;

    #[test]
    fn bitset_basic_operations() {
        let mut bs = BitSet::new(130);
        assert_eq!(bs.len(), 130);
        assert!(!bs.is_empty());
        assert!(!bs.get(0));
        bs.set(0);
        bs.set(64);
        bs.set(129);
        assert!(bs.get(0) && bs.get(64) && bs.get(129));
        assert!(!bs.get(1));
        assert_eq!((0..130).filter(|&i| bs.get(i)).count(), 3);
    }

    #[test]
    fn bitset_first_set() {
        let mut bs = BitSet::new(130);
        assert_eq!(bs.first_set(), None);
        bs.set(129);
        assert_eq!(bs.first_set(), Some(129));
        bs.set(64);
        assert_eq!(bs.first_set(), Some(64));
        bs.set(3);
        assert_eq!(bs.first_set(), Some(3));
        // Stray bits past the length (e.g. from `from_words`) do not count.
        assert_eq!(BitSet::from_words(vec![1 << 5], 4).first_set(), None);
    }

    /// The planner unions bitmaps a word at a time, over `words`.
    #[test]
    fn bitset_union() {
        let mut a = BitSet::new(70);
        a.set(1);
        let mut b = BitSet::new(70);
        b.set(8);
        b.set(69);
        let words = a.words().iter().zip(b.words()).map(|(x, y)| x | y);
        let union = BitSet::from_words(words.collect(), 70);
        assert_eq!(
            (0..70).filter(|&i| union.get(i)).collect::<Vec<_>>(),
            [1, 8, 69]
        );
        assert_eq!(union.first_set(), Some(1));
    }

    /// Word-wise unions need every bitmap of an index to cover the same
    /// blocks, so an index assembled from bitmaps of mismatched lengths is
    /// refused.
    #[test]
    #[should_panic(expected = "length mismatch")]
    fn bitset_union_length_mismatch_panics() {
        BlockBitmapIndex::from_parts("c", vec![BitSet::new(10), BitSet::new(20)], 10);
    }

    fn airline_column() -> Column {
        // 10 rows → with block size 5: block 0 = rows 0..5, block 1 = rows 5..10.
        Column::categorical(
            "airline",
            &["UA", "UA", "UA", "AA", "UA", "DL", "DL", "DL", "DL", "WN"],
        )
    }

    #[test]
    fn index_reflects_block_membership() {
        let col = airline_column();
        let layout = BlockLayout::new(10, 5);
        let idx = BlockBitmapIndex::build(&col, &layout).unwrap();
        assert_eq!(idx.num_blocks(), 2);
        assert_eq!(idx.num_values(), 4);
        assert_eq!(idx.column(), "airline");

        let ua = col.code_of("UA").unwrap();
        let aa = col.code_of("AA").unwrap();
        let dl = col.code_of("DL").unwrap();
        let wn = col.code_of("WN").unwrap();

        assert!(idx.block_contains(ua, BlockId(0)));
        assert!(!idx.block_contains(ua, BlockId(1)));
        assert!(idx.block_contains(aa, BlockId(0)));
        assert!(!idx.block_contains(aa, BlockId(1)));
        assert!(!idx.block_contains(dl, BlockId(0)));
        assert!(idx.block_contains(dl, BlockId(1)));
        assert!(idx.block_contains(wn, BlockId(1)));

        assert!(idx.block_contains_any(&[aa, wn], BlockId(1)));
        assert!(!idx.block_contains_any(&[aa], BlockId(1)));
        assert!(!idx.block_contains_any(&[], BlockId(0)));
        // Out-of-range code is simply absent.
        assert!(!idx.block_contains(999, BlockId(0)));
    }

    #[test]
    fn union_of_codes() {
        let col = airline_column();
        let layout = BlockLayout::new(10, 5);
        let idx = BlockBitmapIndex::build(&col, &layout).unwrap();
        let ua = col.code_of("UA").unwrap();
        let dl = col.code_of("DL").unwrap();
        let aa = col.code_of("AA").unwrap();
        let union = |codes: &[u32]| {
            (0..idx.num_blocks())
                .filter(|&b| idx.block_contains_any(codes, BlockId(b)))
                .collect::<Vec<_>>()
        };
        assert_eq!(union(&[ua, dl]), [0, 1]);
        assert_eq!(union(&[aa]), [0]);
        assert!(union(&[]).is_empty());
    }

    #[test]
    fn building_on_numeric_column_fails() {
        let col = Column::float("delay", vec![1.0, 2.0]);
        let layout = BlockLayout::new(2, 1);
        assert!(matches!(
            BlockBitmapIndex::build(&col, &layout),
            Err(StoreError::TypeMismatch { .. })
        ));
    }

    #[test]
    fn bitmap_accessor() {
        let col = airline_column();
        let layout = BlockLayout::new(10, 5);
        let idx = BlockBitmapIndex::build(&col, &layout).unwrap();
        let ua = col.code_of("UA").unwrap();
        let bitmap = idx.bitmap(ua).unwrap();
        assert_eq!(bitmap.first_set(), Some(0));
        assert!(!bitmap.get(1));
        assert!(idx.bitmap(99).is_none());
    }
}

//! Block layout of a scramble.
//!
//! FastFrame "performs I/O at the level of blocks" (§4.2); in the paper's
//! experiments each block holds 25 rows and active-scanning lookahead works
//! over batches of 1024 blocks (§4.3). Blocks are the unit in which the
//! *blocks fetched* metric of §5.3 is counted.

use std::ops::Range;

/// The block size (rows per block) used throughout the paper's evaluation
/// (§4.3: "we set the block size to 25 rows").
pub const DEFAULT_BLOCK_SIZE: usize = 25;

/// The planner batch size in blocks, the unit by which `ActivePeek`'s
/// decisions lag the active set (§4.3 plans lookahead over "a batch of 1024
/// blocks").
pub const DEFAULT_LOOKAHEAD_BATCH: usize = 1024;

/// Identifier of a block within a scramble (0-based).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BlockId(pub usize);

impl BlockId {
    /// The underlying index.
    #[inline]
    pub fn index(self) -> usize {
        self.0
    }
}

impl std::fmt::Display for BlockId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "block#{}", self.0)
    }
}

/// Maps between rows and blocks for a table of `num_rows` rows split into
/// blocks of `block_size` rows (the final block may be short).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockLayout {
    num_rows: usize,
    block_size: usize,
}

impl BlockLayout {
    /// Creates a layout. `block_size` must be positive.
    pub fn new(num_rows: usize, block_size: usize) -> Self {
        assert!(block_size > 0, "block size must be positive");
        Self {
            num_rows,
            block_size,
        }
    }

    /// Number of rows covered by the layout.
    pub fn num_rows(&self) -> usize {
        self.num_rows
    }

    /// Rows per (full) block.
    pub fn block_size(&self) -> usize {
        self.block_size
    }

    /// Total number of blocks (the last one may be partial).
    pub fn num_blocks(&self) -> usize {
        self.num_rows.div_ceil(self.block_size)
    }

    /// The row range covered by `block`.
    pub fn rows_of(&self, block: BlockId) -> Range<usize> {
        let start = block.0 * self.block_size;
        let end = (start + self.block_size).min(self.num_rows);
        start..end
    }

    /// Iterates over all block ids starting at `start_block` and wrapping
    /// around, visiting every block exactly once. Starting the scan at a
    /// position chosen independently of the data keeps the scramble's
    /// without-replacement sampling guarantee (§5.2: "each approximate query
    /// was started from a random position in the shuffled data").
    pub fn blocks_from(&self, start_block: usize) -> impl Iterator<Item = BlockId> + '_ {
        let n = self.num_blocks();
        let start = if n == 0 { 0 } else { start_block % n };
        (0..n).map(move |i| BlockId((start + i) % n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layout_counts_blocks() {
        let l = BlockLayout::new(100, 25);
        assert_eq!(l.num_blocks(), 4);
        let l = BlockLayout::new(101, 25);
        assert_eq!(l.num_blocks(), 5);
        let l = BlockLayout::new(0, 25);
        assert_eq!(l.num_blocks(), 0);
        assert_eq!(l.num_rows(), 0);
        assert_eq!(l.block_size(), 25);
    }

    #[test]
    fn rows_of_block_including_partial_tail() {
        let l = BlockLayout::new(60, 25);
        assert_eq!(l.rows_of(BlockId(0)), 0..25);
        assert_eq!(l.rows_of(BlockId(1)), 25..50);
        assert_eq!(l.rows_of(BlockId(2)), 50..60);
    }

    #[test]
    fn block_of_row() {
        // Every row lies in exactly one block's range.
        let l = BlockLayout::new(60, 25);
        let block_of = |row: usize| {
            let mut holding = (0..l.num_blocks()).filter(|&b| l.rows_of(BlockId(b)).contains(&row));
            let block = holding.next().expect("some block holds the row");
            assert!(holding.next().is_none(), "row {row} in two blocks");
            block
        };
        assert_eq!([0, 24, 25, 59].map(block_of), [0, 0, 1, 2]);
    }

    #[test]
    fn blocks_from_wraps_and_covers_all() {
        let l = BlockLayout::new(100, 25);
        let order: Vec<usize> = l.blocks_from(2).map(BlockId::index).collect();
        assert_eq!(order, vec![2, 3, 0, 1]);
        // Start beyond the block count wraps via modulo.
        let order: Vec<usize> = l.blocks_from(7).map(BlockId::index).collect();
        assert_eq!(order, vec![3, 0, 1, 2]);
    }

    #[test]
    fn blocks_from_empty_layout() {
        let l = BlockLayout::new(0, 25);
        assert_eq!(l.blocks_from(3).count(), 0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_block_size_panics() {
        BlockLayout::new(10, 0);
    }

    #[test]
    fn block_id_display() {
        assert_eq!(BlockId(7).to_string(), "block#7");
        assert_eq!(BlockId(7).index(), 7);
    }

    #[test]
    fn paper_constants() {
        assert_eq!(DEFAULT_BLOCK_SIZE, 25);
        assert_eq!(DEFAULT_LOOKAHEAD_BATCH, 1024);
        // §4.3: a batch of 1024 blocks contains 25_600 rows.
        assert_eq!(DEFAULT_BLOCK_SIZE * DEFAULT_LOOKAHEAD_BATCH, 25_600);
    }
}

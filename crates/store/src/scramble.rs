//! Scrambles: randomly permuted table copies enabling scan-based
//! without-replacement sampling (Definition 4).
//!
//! "A scramble is an ordered copy of a relational table that has been
//! permuted randomly, allowing for scan-based without-replacement sampling.
//! Scanning a continuous column in a scramble is equivalent to sampling
//! without replacement" (§4.1). The up-front shuffle cost is paid once and
//! amortized over many queries.
//!
//! A [`Scramble`] owns the permuted copy of the table, its block layout, the
//! catalog built from the *original* table (range bounds are permutation
//! invariant), block bitmap indexes over categorical columns and zone maps
//! over numeric ones.
//!
//! Set-up holds the table once: the copy is made a column at a time and
//! shuffled in place (Fisher–Yates, one generator per column from the
//! scramble's seed). The draws do not depend on a column's type, so all
//! columns move their rows alike, and no row permutation is ever
//! materialised; the scramble equals [`Table::permuted`] by the identity
//! shuffled with the same seed.

use std::collections::HashMap;
use std::ops::{ControlFlow, Range};
use std::slice;

use crate::bitmap::BlockBitmapIndex;
use crate::block::{BlockId, BlockLayout, DEFAULT_BLOCK_SIZE};
use crate::catalog::Catalog;
use crate::source::{runs, BlockRef, BlockSource, GroupUniverseCache};
use crate::table::{StoreError, StoreResult, Table};
use crate::zone::ZoneMap;

/// The path a scramble's read errors name: it is held in memory, not in a
/// file.
const IN_MEMORY: &str = "<in-memory scramble>";

/// A permuted copy of a table, organized in blocks, with bitmap indexes over
/// its categorical columns and zone maps over its numeric columns.
#[derive(Debug, Clone)]
pub struct Scramble {
    table: Table,
    layout: BlockLayout,
    catalog: Catalog,
    indexes: HashMap<String, BlockBitmapIndex>,
    zones: HashMap<String, ZoneMap>,
    seed: u64,
    /// Memoized group universes, filled by the first grouped query over
    /// each column tuple and shared with clones (they hold the same data).
    universes: GroupUniverseCache,
}

impl Scramble {
    /// Builds a scramble of `table` with the default block size and bitmap
    /// indexes over every categorical column.
    pub fn build(table: &Table, seed: u64) -> StoreResult<Self> {
        Self::build_with(table, seed, DEFAULT_BLOCK_SIZE)
    }

    /// Builds a scramble with an explicit block size.
    ///
    /// The rows are shuffled column by column in a copy of `table`, so
    /// set-up holds `table` and its scramble and no permutation array.
    ///
    /// # Errors
    ///
    /// [`StoreError::ZeroBlockSize`] for a `block_size` of zero, before any
    /// row is copied.
    pub fn build_with(table: &Table, seed: u64, block_size: usize) -> StoreResult<Self> {
        if block_size == 0 {
            return Err(StoreError::ZeroBlockSize);
        }
        let permuted = Table::new(
            table
                .columns()
                .iter()
                .map(|c| {
                    let mut c = c.clone();
                    c.shuffle(seed);
                    c
                })
                .collect(),
        )?;
        let layout = BlockLayout::new(permuted.num_rows(), block_size);
        let catalog = Catalog::build(table);

        let mut indexes = HashMap::new();
        let mut zones = HashMap::new();
        for col in permuted.columns() {
            if col.dictionary().is_some() {
                let idx = BlockBitmapIndex::build(col, &layout)?;
                indexes.insert(col.name().to_string(), idx);
            } else if let Some(zone) = ZoneMap::build(col, &layout) {
                zones.insert(col.name().to_string(), zone);
            }
        }

        Ok(Self {
            table: permuted,
            layout,
            catalog,
            indexes,
            zones,
            seed,
            universes: GroupUniverseCache::new(),
        })
    }

    /// Reassembles a scramble from already-permuted parts (used when loading
    /// a persisted segment eagerly into memory). The caller asserts that
    /// `table` is already permuted and that the indexes/zones describe it
    /// under `layout`.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn from_parts(
        table: Table,
        layout: BlockLayout,
        catalog: Catalog,
        indexes: HashMap<String, BlockBitmapIndex>,
        zones: HashMap<String, ZoneMap>,
        seed: u64,
    ) -> Self {
        Self {
            table,
            layout,
            catalog,
            indexes,
            zones,
            seed,
            universes: GroupUniverseCache::new(),
        }
    }

    /// The permuted table.
    pub fn table(&self) -> &Table {
        &self.table
    }

    /// Block layout of the scramble.
    pub fn layout(&self) -> &BlockLayout {
        &self.layout
    }

    /// Catalog of the *original* table (ranges, cardinalities).
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// The seed used for the permutation (recorded for reproducibility).
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Total number of rows.
    pub fn num_rows(&self) -> usize {
        self.table.num_rows()
    }

    /// Total number of blocks.
    pub fn num_blocks(&self) -> usize {
        self.layout.num_blocks()
    }

    /// Bitmap index over a categorical column, if one was built.
    pub fn bitmap_index(&self, column: &str) -> Option<&BlockBitmapIndex> {
        self.indexes.get(column)
    }

    /// Zone map over a numeric column, if one was built.
    pub fn zone_map(&self, column: &str) -> Option<&ZoneMap> {
        self.zones.get(column)
    }

    /// The row range of one block.
    pub fn block_rows(&self, block: BlockId) -> Range<usize> {
        self.layout.rows_of(block)
    }
}

impl BlockSource for Scramble {
    fn schema(&self) -> &Table {
        &self.table
    }

    fn num_rows(&self) -> usize {
        self.table.num_rows()
    }

    fn layout(&self) -> &BlockLayout {
        &self.layout
    }

    fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    fn seed(&self) -> u64 {
        self.seed
    }

    fn bitmap_index(&self, column: &str) -> Option<&BlockBitmapIndex> {
        self.indexes.get(column)
    }

    fn zone_map(&self, column: &str) -> Option<&ZoneMap> {
        self.zones.get(column)
    }

    fn read_block(&self, block: BlockId) -> StoreResult<BlockRef<'_>> {
        let num_blocks = self.layout.num_blocks();
        if block.index() >= num_blocks {
            return Err(StoreError::block_out_of_range(IN_MEMORY, block, num_blocks));
        }
        Ok(BlockRef::borrowed(&self.table, self.layout.rows_of(block)))
    }

    /// Hands out each run as a zero-copy row range of the table: the
    /// run's blocks are adjacent rows. A range reaching past the last block
    /// fails, as on the segment reader, after the runs of the ranges before
    /// it are visited.
    fn scan_blocks(
        &self,
        blocks: &[Range<usize>],
        _projection: Option<&[usize]>,
        visit: &mut dyn FnMut(BlockId, BlockRef<'_>) -> ControlFlow<()>,
    ) -> StoreResult<()> {
        let (block_size, num_blocks) = (self.layout.block_size(), self.layout.num_blocks());
        for range in blocks {
            if !range.is_empty() && range.end > num_blocks {
                let block = BlockId(range.start.max(num_blocks));
                return Err(StoreError::block_out_of_range(IN_MEMORY, block, num_blocks));
            }
            for run in runs(slice::from_ref(range), block_size) {
                let rows =
                    run.start * block_size..(run.end * block_size).min(self.table.num_rows());
                if visit(BlockId(run.start), BlockRef::borrowed(&self.table, rows)).is_break() {
                    return Ok(());
                }
            }
        }
        Ok(())
    }

    fn group_universe_cache(&self) -> Option<&GroupUniverseCache> {
        Some(&self.universes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::Column;

    fn table(n: usize) -> Table {
        let values: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let cats: Vec<String> = (0..n).map(|i| format!("g{}", i % 7)).collect();
        Table::new(vec![
            Column::float("x", values),
            Column::categorical("g", &cats),
        ])
        .unwrap()
    }

    #[test]
    fn scramble_preserves_multiset_of_values() {
        let t = table(1000);
        let s = Scramble::build(&t, 42).unwrap();
        assert_eq!(s.num_rows(), 1000);
        let mut original: Vec<f64> = (0..1000).map(|i| i as f64).collect();
        let mut scrambled: Vec<f64> = (0..1000)
            .map(|i| s.table().column("x").unwrap().numeric_value(i).unwrap())
            .collect();
        original.sort_by(f64::total_cmp);
        scrambled.sort_by(f64::total_cmp);
        assert_eq!(original, scrambled);
    }

    #[test]
    fn scramble_actually_permutes() {
        let t = table(1000);
        let s = Scramble::build(&t, 42).unwrap();
        let same_position = (0..1000)
            .filter(|&i| s.table().column("x").unwrap().numeric_value(i).unwrap() == i as f64)
            .count();
        // A uniform permutation of 1000 elements has ~1 fixed point in
        // expectation; 50 would be wildly improbable.
        assert!(same_position < 50, "{same_position} fixed points");
    }

    #[test]
    fn scramble_is_deterministic_per_seed() {
        let t = table(500);
        let a = Scramble::build(&t, 7).unwrap();
        let b = Scramble::build(&t, 7).unwrap();
        let c = Scramble::build(&t, 8).unwrap();
        let values = |s: &Scramble| -> Vec<f64> {
            (0..500)
                .map(|i| s.table().column("x").unwrap().numeric_value(i).unwrap())
                .collect()
        };
        assert_eq!(values(&a), values(&b));
        assert_ne!(values(&a), values(&c));
        assert_eq!(a.seed(), 7);
    }

    #[test]
    fn a_zero_block_size_is_refused() {
        assert_eq!(
            Scramble::build_with(&table(10), 1, 0).unwrap_err(),
            StoreError::ZeroBlockSize
        );
        assert_eq!(
            Scramble::build_with(&table(10), 1, 1).unwrap().num_blocks(),
            10
        );
    }

    #[test]
    fn rows_and_columns_stay_aligned() {
        // The same permutation must be applied to every column, so the
        // (x, g) pairing of each row is preserved.
        let t = table(700);
        let s = Scramble::build(&t, 11).unwrap();
        for row in 0..700 {
            let x = s.table().column("x").unwrap().numeric_value(row).unwrap() as usize;
            let g = s.table().value("g", row).unwrap().unwrap();
            assert_eq!(g, crate::column::Value::Str(format!("g{}", x % 7)));
        }
    }

    #[test]
    fn catalog_comes_from_original_table() {
        let t = table(100);
        let s = Scramble::build(&t, 1).unwrap();
        assert_eq!(s.catalog().range_bounds("x").unwrap(), (0.0, 99.0));
        assert_eq!(s.catalog().column("g").unwrap().cardinality, Some(7));
    }

    #[test]
    fn bitmap_indexes_built_for_categorical_columns_only() {
        let t = table(100);
        let s = Scramble::build(&t, 1).unwrap();
        assert!(s.bitmap_index("g").is_some());
        assert!(s.bitmap_index("x").is_none());
        assert_eq!(s.bitmap_index("g").unwrap().num_blocks(), s.num_blocks());
    }

    #[test]
    fn bitmap_index_is_consistent_with_scrambled_data() {
        let t = table(1000);
        let s = Scramble::build_with(&t, 3, 25).unwrap();
        let idx = s.bitmap_index("g").unwrap();
        let col = s.table().column("g").unwrap();
        for block in 0..s.num_blocks() {
            for code in 0..7u32 {
                let expected = s
                    .block_rows(BlockId(block))
                    .any(|row| col.category_code(row) == Some(code));
                assert_eq!(idx.block_contains(code, BlockId(block)), expected);
            }
        }
    }

    #[test]
    fn zone_maps_built_for_numeric_columns_only() {
        let t = table(1000);
        let s = Scramble::build_with(&t, 3, 25).unwrap();
        assert!(s.zone_map("x").is_some());
        assert!(s.zone_map("g").is_none());
        let z = s.zone_map("x").unwrap();
        assert_eq!(z.num_blocks(), s.num_blocks());
        // Every block's zone range brackets exactly its rows' extrema.
        let col = s.table().column("x").unwrap();
        for b in 0..s.num_blocks() {
            let (lo, hi) = z.block_range(BlockId(b)).unwrap();
            for row in s.block_rows(BlockId(b)) {
                let v = col.numeric_value(row).unwrap();
                assert!(v >= lo && v <= hi);
            }
        }
    }

    #[test]
    fn scramble_is_a_block_source() {
        let t = table(130);
        let s = Scramble::build_with(&t, 3, 25).unwrap();
        let src: &dyn BlockSource = &s;
        assert_eq!(src.num_rows(), 130);
        assert_eq!(src.num_blocks(), 6);
        assert_eq!(src.seed(), 3);
        assert_eq!(src.schema().num_columns(), 2);
        assert!(src.bitmap_index("g").is_some());
        assert!(src.zone_map("x").is_some());
        let b = src.read_block(BlockId(5)).unwrap();
        assert_eq!(b.rows(), 125..130);
        assert_eq!(b.len(), 5);
        // Borrowed refs window the full permuted table.
        assert_eq!(b.table().num_rows(), 130);
    }

    #[test]
    fn block_size_and_counts() {
        let t = table(101);
        let s = Scramble::build_with(&t, 1, 25).unwrap();
        assert_eq!(s.num_blocks(), 5);
        assert_eq!(s.block_rows(BlockId(4)), 100..101);
        assert_eq!(s.layout().block_size(), 25);
    }
}

//! The [`BlockSource`] scan abstraction: anything that can serve scramble
//! blocks to the engine.
//!
//! The paper's engine only ever touches data at block granularity (§4.2), so
//! the entire scan path — planning, predicate evaluation, aggregation —
//! needs nothing beyond "give me block *b*" plus catalog-level metadata.
//! [`BlockSource`] captures exactly that surface, with two implementations:
//!
//! * the in-memory [`Scramble`](crate::scramble::Scramble), whose
//!   `read_block` is a zero-copy view into the permuted table, and
//! * the on-disk [`SegmentReader`](crate::persist::SegmentReader), which
//!   decodes blocks on demand so working sets larger than memory can be
//!   scanned a run of blocks at a time.
//!
//! Scans ([`BlockSource::scan_blocks`]) take ranges of block ids and hand
//! out **runs** of consecutive blocks holding up to [`RUN_ROWS`] rows, so
//! per-call costs are paid per run; blocks remain the unit of planning,
//! skipping and counting.
//!
//! Both expose the same layout, catalog, bitmap indexes and zone maps, so
//! the planner makes identical skip decisions and the executor produces
//! bit-identical results whichever backing the table has.

use std::collections::{HashMap, HashSet};
use std::ops::{ControlFlow, Range};
use std::slice;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use crate::bitmap::{BitSet, BlockBitmapIndex};
use crate::block::{BlockId, BlockLayout};
use crate::catalog::Catalog;
use crate::table::{StoreResult, Table};
use crate::zone::ZoneMap;

/// The decoded contents of one block, or of one run of consecutive blocks
/// (see [`BlockSource::scan_blocks`]), referencing either the backing
/// in-memory table (zero copy) or a table decoded on demand from disk.
#[derive(Debug)]
pub struct BlockRef<'a> {
    data: BlockData<'a>,
    rows: Range<usize>,
}

#[derive(Debug)]
enum BlockData<'a> {
    Borrowed(&'a Table),
    Owned(Table),
}

impl<'a> BlockRef<'a> {
    /// A zero-copy view of rows `rows` of a larger backing table.
    pub fn borrowed(table: &'a Table, rows: Range<usize>) -> Self {
        Self {
            data: BlockData::Borrowed(table),
            rows,
        }
    }

    /// An owned block decoded on demand; every row of `table` belongs to the
    /// block.
    pub fn owned(table: Table) -> Self {
        let rows = 0..table.num_rows();
        Self {
            data: BlockData::Owned(table),
            rows,
        }
    }

    /// The table holding the block's rows. Columns appear in the same order
    /// and with the same dictionaries as the source's
    /// [`schema`](BlockSource::schema), so expressions and predicates bound
    /// against the schema evaluate directly against this table.
    pub fn table(&self) -> &Table {
        match &self.data {
            BlockData::Borrowed(t) => t,
            BlockData::Owned(t) => t,
        }
    }

    /// The row indices of [`Self::table`] that belong to this block or run.
    pub fn rows(&self) -> Range<usize> {
        self.rows.clone()
    }

    /// Number of rows in the block or run.
    pub fn len(&self) -> usize {
        self.rows.end - self.rows.start
    }

    /// Whether the block holds no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }
}

/// The most rows one run of [`BlockSource::scan_blocks`] covers, on every
/// backing and at every block size: 64 of the paper's 25-row blocks. Long
/// enough that a visitor's per-call costs vanish next to its per-row work,
/// short enough that the buffers sized by a run (a segment scan's decoded
/// columns, the engine's selection vector) stay at tens of KiB whatever
/// the table's block size. A block larger than the cap is a run of its own.
pub const RUN_ROWS: usize = 1_600;

/// The most blocks of `block_size` rows one run covers: as many as fit in
/// [`RUN_ROWS`], and at least one.
pub fn run_blocks(block_size: usize) -> usize {
    (RUN_ROWS / block_size.max(1)).max(1)
}

/// Splits `blocks`, ranges of block ids of a table with `block_size`-row
/// blocks, into the runs [`BlockSource::scan_blocks`] hands out, in list
/// order: each range cut every [`run_blocks`]`(block_size)` blocks from its
/// start. Empty ranges yield none.
pub fn runs(
    blocks: &[Range<usize>],
    block_size: usize,
) -> impl Iterator<Item = Range<usize>> + Clone + '_ {
    let cap = run_blocks(block_size);
    blocks.iter().flat_map(move |range| {
        let end = range.end;
        range
            .clone()
            .step_by(cap)
            .map(move |start| start..end.min(start + cap))
    })
}

/// A source of scramble blocks: the engine's entire view of a table.
///
/// Implementations must be cheap to query for metadata (layout, catalog,
/// indexes — all resident) and may be lazy about the data itself: the block
/// reads ([`Self::read_block`], [`Self::read_block_projected`],
/// [`Self::scan_blocks`]) are the only operations that touch row storage.
///
/// `Sync` is required because the partitioned scan pipeline shares one
/// source across its worker threads.
pub trait BlockSource: Sync {
    /// The schema table: column names, types and dictionaries, in the exact
    /// order and encoding of every [`BlockRef::table`]. For in-memory
    /// sources this is the full data table; lazy sources return a zero-row
    /// table. Use it for *binding* (name → index resolution, dictionary
    /// lookups), never for row access — row counts must come from
    /// [`Self::num_rows`].
    fn schema(&self) -> &Table;

    /// Total number of rows.
    fn num_rows(&self) -> usize;

    /// The block layout (row ↔ block mapping).
    fn layout(&self) -> &BlockLayout;

    /// Catalog of the *original* (pre-permutation) table.
    fn catalog(&self) -> &Catalog;

    /// The seed of the scramble permutation (recorded for reproducibility).
    fn seed(&self) -> u64;

    /// Block bitmap index over a categorical column, if one exists.
    fn bitmap_index(&self, column: &str) -> Option<&BlockBitmapIndex>;

    /// Zone map over a numeric column, if one exists.
    fn zone_map(&self, column: &str) -> Option<&ZoneMap>;

    /// Reads one block.
    ///
    /// # Errors
    ///
    /// Every source fails on a block past the end
    /// ([`StoreError::block_out_of_range`](crate::table::StoreError::block_out_of_range));
    /// in-memory sources fail on nothing else, and lazy sources also report
    /// I/O errors and chunk-level corruption detected on decode.
    fn read_block(&self, block: BlockId) -> StoreResult<BlockRef<'_>>;

    /// Reads one block, decoding only the given columns (projection
    /// pushdown).
    ///
    /// `projection` lists the column indexes the caller will touch; `None`
    /// means all of them. The returned block's table keeps every column at
    /// its schema *position* — so indexes bound against
    /// [`Self::schema`] stay valid — but columns outside the projection may
    /// be zero-row placeholders. Callers must not read rows of
    /// out-of-projection columns.
    ///
    /// The default implementation ignores the projection and delegates to
    /// [`Self::read_block`], which is the right answer for in-memory
    /// sources (their blocks are zero-copy views, so there is nothing to
    /// skip); lazy sources override it to decode — and checksum — only the
    /// chunks a query references (see
    /// [`SegmentReader`](crate::persist::SegmentReader)). The flip side:
    /// corruption confined to an out-of-projection chunk goes *undetected*
    /// by a projected read that a full [`Self::read_block`] would have
    /// failed on.
    ///
    /// # Errors
    ///
    /// Same as [`Self::read_block`].
    fn read_block_projected(
        &self,
        block: BlockId,
        projection: Option<&[usize]>,
    ) -> StoreResult<BlockRef<'_>> {
        let _ = projection;
        self.read_block(block)
    }

    /// Reads `blocks`, ranges of block ids, in list order with
    /// [`Self::read_block_projected`]'s projection semantics and hands them
    /// to `visit` one **run** at a time, until it breaks. This is the scan
    /// path: the engine's partition scans and the group-universe build read
    /// through it.
    ///
    /// A run is a stretch of consecutive blocks of one range, at most
    /// [`run_blocks`]`(block_size)` long, so at most [`RUN_ROWS`] rows
    /// unless one block alone is longer. `visit(first, run)` gets the run's first block id
    /// and one [`BlockRef`] whose rows are the run's blocks' rows, whole and
    /// in block order: row `first_row + i` of the run belongs to block
    /// `first + i / block_size`, where `first_row` is `run.rows().start`.
    /// A run never crosses the end of its range or the cap, so a caller
    /// that wants runs as long as its blocks allow merges ranges that
    /// continue each other. Blocks stay the unit of planning, skipping and
    /// the "blocks fetched" count; a run is only the unit of scanning, so
    /// that a visitor pays its per-call costs (a filter call, a routing
    /// pass, a kernel dispatch; on the segment a CRC batch and a decode call
    /// per column) once for up to [`RUN_ROWS`] rows instead of once per
    /// block. The cap bounds every buffer sized by a run at [`RUN_ROWS`]
    /// rows, whatever the block size.
    ///
    /// Both built-in sources hand the runs of [`runs`]: the in-memory
    /// [`Scramble`](crate::scramble::Scramble) as a zero-copy row range of
    /// its table, the [`SegmentReader`](crate::persist::SegmentReader)
    /// decoded into buffers reused from run to run. The default reads each
    /// block with [`Self::read_block_projected`], so every run of a source
    /// that overrides only that method is one block long; visitors must not
    /// assume a run is maximal.
    ///
    /// # Errors
    ///
    /// The first failing read, after which nothing further is visited. A
    /// run is visited only once all of it has been read, so the runs before
    /// the failing one may have been visited, but no block of its own run.
    fn scan_blocks(
        &self,
        blocks: &[Range<usize>],
        projection: Option<&[usize]>,
        visit: &mut dyn FnMut(BlockId, BlockRef<'_>) -> ControlFlow<()>,
    ) -> StoreResult<()> {
        for block in blocks.iter().cloned().flatten().map(BlockId) {
            if visit(block, self.read_block_projected(block, projection)?).is_break() {
                break;
            }
        }
        Ok(())
    }

    /// Total number of blocks.
    fn num_blocks(&self) -> usize {
        self.layout().num_blocks()
    }

    /// This source's group-universe memo, if it keeps one. Sources that
    /// return one get [`Self::distinct_group_tuples`] memoized per column
    /// tuple; the default keeps none, so every call recomputes.
    fn group_universe_cache(&self) -> Option<&GroupUniverseCache> {
        None
    }

    /// The group universe of the given columns: their distinct
    /// dictionary-code tuples, in **first-appearance order** over storage
    /// (block 0, row 0 onward). Non-categorical columns contribute
    /// `u32::MAX`. The engine derives its per-group aggregate views from
    /// this, so the order is part of the bit-identical-results contract
    /// between backings.
    ///
    /// The result is a pure function of the stored data. Sources with a
    /// [`Self::group_universe_cache`] (both [`Scramble`](crate::scramble::Scramble)
    /// and [`SegmentReader`](crate::persist::SegmentReader)) compute it once
    /// per column tuple, on first use, and later calls share it; see
    /// [`build_group_universe`] for how the cold build avoids a full scan.
    ///
    /// # Errors
    ///
    /// Errors of the block reads the cold build makes.
    fn distinct_group_tuples(&self, columns: &[usize]) -> StoreResult<GroupUniverse> {
        match self.group_universe_cache() {
            Some(cache) => cache.get_or_build(columns, || build_group_universe(self, columns)),
            None => build_group_universe(self, columns).map(Into::into),
        }
    }
}

/// A group universe: distinct code tuples in first-appearance order (see
/// [`BlockSource::distinct_group_tuples`]). Shared, so a memo hit is a
/// reference-count bump.
pub type GroupUniverse = Arc<[Vec<u32>]>;

/// A memo of group universes keyed by the GROUP BY column-index tuple.
///
/// The cache belongs to one source's immutable data. Clones share it, which
/// is sound because a cloned source holds the same data; a source built
/// from new data starts with an empty cache.
#[derive(Debug, Clone, Default)]
pub struct GroupUniverseCache {
    universes: Arc<Mutex<HashMap<Vec<usize>, GroupUniverse>>>,
}

impl GroupUniverseCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// The memoized universe of `columns`, computing it with `build` on a
    /// miss. The lock is not held while building; if two threads race on
    /// the same miss, both build the same universe and the first insert
    /// wins.
    ///
    /// # Errors
    ///
    /// Whatever `build` returns; failures are not memoized.
    fn get_or_build(
        &self,
        columns: &[usize],
        build: impl FnOnce() -> StoreResult<Vec<Vec<u32>>>,
    ) -> StoreResult<GroupUniverse> {
        if let Some(hit) = self.lock().get(columns) {
            return Ok(Arc::clone(hit));
        }
        let built: GroupUniverse = build()?.into();
        Ok(Arc::clone(
            self.lock().entry(columns.to_vec()).or_insert(built),
        ))
    }

    fn lock(&self) -> MutexGuard<'_, HashMap<Vec<usize>, GroupUniverse>> {
        // Every critical section is a single map operation, so a poisoned
        // map is still consistent.
        self.universes
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }
}

/// Computes a group universe cold, reading as few blocks as it can. The
/// result is exactly what a row-by-row first-appearance scan of every block
/// would produce.
///
/// * **One categorical column with a bitmap index:** the universe is the
///   set of codes whose block bitmap is non-empty. Each code's first block
///   is its bitmap's lowest set bit, so only those (at most cardinality)
///   blocks are read, to order codes that first appear in the same block by
///   their first row.
/// * **Otherwise:** one block-ordered pass that probes a hash set of tuples
///   with one reused buffer, allocating only for new tuples. The pass stops
///   once it has found the product of the columns' present-code counts,
///   since no new tuple can appear after that.
///
/// # Errors
///
/// Errors of the block reads.
pub fn build_group_universe<S: BlockSource + ?Sized>(
    source: &S,
    columns: &[usize],
) -> StoreResult<Vec<Vec<u32>>> {
    let schema = source.schema();
    let index_of = |ci: usize| source.bitmap_index(schema.column_at(ci).name());
    if let &[column] = columns {
        if let Some(index) = index_of(column) {
            return indexed_universe(source, column, index);
        }
    }

    // Upper bound on the number of distinct tuples: the product of each
    // column's present-code count (its dictionary size when unindexed, and
    // 1 for a non-categorical column, whose only value is `u32::MAX`).
    let mut bound = Some(1usize);
    for &ci in columns {
        let present = match schema.column_at(ci).dictionary() {
            Some(dictionary) => index_of(ci).map_or(dictionary.len(), |index| {
                index
                    .value_bitmaps()
                    .iter()
                    .filter(|bits| bits.first_set().is_some())
                    .count()
            }),
            None => 1,
        };
        bound = bound.and_then(|b| b.checked_mul(present));
    }
    let mut seen: HashSet<Vec<u32>> = HashSet::new();

    let mut out = Vec::new();
    let mut tuple = Vec::with_capacity(columns.len());
    // Only the group-by columns are read, so lazy sources decode just those
    // chunks.
    let every = 0..source.num_blocks();
    source.scan_blocks(slice::from_ref(&every), Some(columns), &mut |_, run| {
        let table = run.table();
        for row in run.rows() {
            tuple.clear();
            tuple.extend(
                columns
                    .iter()
                    .map(|&ci| table.column_at(ci).category_code(row).unwrap_or(u32::MAX)),
            );
            // Probing with the reused buffer keeps seen rows allocation-free.
            if !seen.contains(&tuple) {
                seen.insert(tuple.clone());
                out.push(tuple.clone());
                if Some(out.len()) == bound {
                    return ControlFlow::Break(());
                }
            }
        }
        ControlFlow::Continue(())
    })?;
    Ok(out)
}

/// The single-column universe read off a bitmap index (see
/// [`build_group_universe`]).
fn indexed_universe<S: BlockSource + ?Sized>(
    source: &S,
    column: usize,
    index: &BlockBitmapIndex,
) -> StoreResult<Vec<Vec<u32>>> {
    let first_block: Vec<Option<usize>> = index
        .value_bitmaps()
        .iter()
        .map(BitSet::first_set)
        .collect();
    let mut firsts: Vec<usize> = first_block.iter().flatten().copied().collect();
    firsts.sort_unstable();
    firsts.dedup();
    // Adjacent first blocks make one range, so runs span their stretches.
    let blocks: Vec<Range<usize>> = firsts
        .chunk_by(|a, b| a + 1 == *b)
        .map(|stretch| stretch[0]..stretch[stretch.len() - 1] + 1)
        .collect();

    let block_size = source.layout().block_size();
    let mut emitted = vec![false; first_block.len()];
    let mut out = Vec::new();
    source.scan_blocks(&blocks, Some(&[column]), &mut |first, run| {
        let codes = run
            .table()
            .column_at(column)
            .category_codes()
            .unwrap_or_default();
        // A run holds whole consecutive blocks, so a row's block follows
        // from its offset within the run.
        for (offset, &code) in codes[run.rows()].iter().enumerate() {
            let c = code as usize;
            let block = first.index() + offset / block_size;
            if first_block.get(c) == Some(&Some(block)) && !emitted[c] {
                emitted[c] = true;
                out.push(vec![code]);
            }
        }
        ControlFlow::Continue(())
    })?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::Column;

    #[test]
    fn borrowed_block_ref_windows_the_backing_table() {
        let t = Table::new(vec![Column::float("x", vec![1.0, 2.0, 3.0, 4.0])]).unwrap();
        let b = BlockRef::borrowed(&t, 2..4);
        assert_eq!(b.rows(), 2..4);
        assert_eq!(b.len(), 2);
        assert!(!b.is_empty());
        assert_eq!(b.table().column("x").unwrap().numeric_value(2), Some(3.0));
    }

    #[test]
    fn owned_block_ref_covers_all_rows() {
        let t = Table::new(vec![Column::float("x", vec![1.0, 2.0])]).unwrap();
        let b = BlockRef::owned(t);
        assert_eq!(b.rows(), 0..2);
        let empty = BlockRef::owned(Table::new(vec![]).unwrap());
        assert!(empty.is_empty());
    }
}

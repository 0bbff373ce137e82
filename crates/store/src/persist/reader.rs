//! The lazy segment reader: validates and loads segment *metadata* eagerly,
//! decodes *blocks* on demand.
//!
//! Opening a segment reads only the footer and metadata section (schema,
//! dictionaries, catalog, zone maps, bitmap indexes, page directory and
//! piece CRCs) — a few bytes per block plus the dictionaries. Row data
//! stays on disk until a scan decodes it, so working sets larger than memory
//! can be scanned a run of blocks at a time through the [`BlockSource`]
//! interface.
//!
//! Every block read goes through one path, [`BlockSource::scan_blocks`],
//! which takes ranges of block ids and hands out **runs**: each range cut
//! into stretches of up to [`RUN_ROWS`](crate::source::RUN_ROWS) rows (see
//! [`runs`]). The reader pays its fixed costs once per window of runs, once
//! per run, and once per page of a run:
//!
//! 1. A **window** is as many whole runs as follow each other in ascending
//!    block order, each separated from the one before by a hole of at most
//!    [`HOLE_ROWS`] rows (the blocks between them; none for a run ended
//!    by the cap), while the window's whole byte span, holes included,
//!    fits in [`READ_BYTES`], and always at least one run. The wrap to
//!    block 0, a longer hole or the byte cap ends it. The data section is
//!    column-major inside each row group, so a window's span of one column
//!    lies in one byte range per row group: the window is one positioned
//!    read per referenced column (per row group it touches) into a buffer
//!    reused from window to window, and unreferenced columns are never
//!    read. A hole's bytes are read with the window; its blocks are never
//!    checked, decoded or visited.
//! 2. Every referenced piece of a run is checked against its CRC-32,
//!    column by column, four pieces at a time: the same column of four
//!    consecutive blocks gives four independent table-lookup chains
//!    ([`check_crcs`]).
//! 3. Each referenced column of the run is decoded into one column buffer
//!    with one width-dispatched call per page the run touches
//!    ([`decode_page`]), and the run is visited as one table.
//!
//! The read buffer holds at most [`READ_BYTES`] (or one run, when a run's
//! pieces are longer) and the decoded table at most one run, so a scan's
//! memory does not grow with the list it scans.
//! [`SegmentReader::read_block`], `read_block_projected`,
//! [`SegmentReader::materialize`] and [`SegmentReader::scan_steps`] run the
//! same code.
//!
//! Integrity is checked at two levels: the footer carries a CRC-32 over the
//! metadata section (validated at open, so truncated or corrupt files —
//! page frames included — fail loudly before any query runs), and every
//! referenced piece's CRC-32 is validated before the piece is decoded (so
//! data corruption is caught on first touch, with the offending block and
//! column in the error). A corrupt piece fails its whole run before any of
//! the run's blocks is visited; when several are corrupt, the error names
//! the first in block order, then column order. Pieces of skipped blocks
//! may be read (when they lie in a window's hole), but are never checked or
//! decoded; pieces of unreferenced columns are neither read nor checked.
//! Blocks remain the unit of every checksum: the file format knows nothing
//! of runs or windows.

use std::collections::HashMap;
use std::fs::File;
use std::ops::{ControlFlow, Range};
use std::path::{Path, PathBuf};
use std::slice;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::bitmap::{BitSet, BlockBitmapIndex};
use crate::block::{BlockId, BlockLayout};
use crate::catalog::{Catalog, ColumnStats};
use crate::column::{Column, ColumnData, DataType};
use crate::scramble::Scramble;
use crate::source::{runs, BlockRef, BlockSource, GroupUniverseCache};
use crate::table::{StoreError, StoreResult, Table};
use crate::zone::ZoneMap;

use super::format::{
    check_crcs, check_frame, crc32, decode_page, piece_len, Cursor, Frame, DECODE_SLACK,
    FOOTER_LEN, GROUP_BLOCKS, HEADER_LEN, MAGIC, NO_CARDINALITY, NO_NON_FINITE, PAGE_BLOCKS,
    TYPE_CAT, TYPE_FLOAT, TYPE_INT, VERSION,
};

/// The most bytes one window of a scan reads, over all its referenced
/// columns and holes included, unless a single run needs more: windows of
/// runs are grown up to this size. At 256 KiB, partitions of 1 600 blocks
/// or more filled whole windows on the Table 5 stream over a 1M-row
/// Flights segment, and the scan's peak RSS rose ≈ 0.3 MiB; at 128 KiB it
/// did not, and the stream ran no slower.
const READ_BYTES: u64 = 128 * 1024;

/// The longest hole, in rows, a window of a scan reads through: 16 blocks
/// of 25 rows. Reading a short hole costs less than the positioned reads
/// that skipping it would take (F-q3's partitions on a 1M-row Flights
/// segment went from ≈ 15 500 reads per query to ≈ 570); with no limit, a
/// list keeping 1 block in 256 read 3–4× slower, as every window then
/// moved its whole byte span for a few blocks.
const HOLE_ROWS: usize = 400;

/// One entry of the page directory: where a page of one column starts,
/// and its frame of reference.
#[derive(Debug, Clone, Copy)]
struct PageEntry {
    offset: u64,
    frame: Frame,
}

/// The bytes one window of a scan reads: per referenced column (in
/// projection order) and per row group the window touches, the file range
/// of the window's pieces, holes included, and where it lands in the read
/// buffer.
struct Window {
    /// Runs of the scan the window covers.
    runs: usize,
    /// Bytes of the window's holes: pieces of blocks the list skips.
    holes: u64,
    /// Row group of the window's first block.
    first_group: usize,
    /// Row groups the window touches.
    groups: usize,
    /// `(file range, buffer offset)`, column-major.
    slices: Vec<(Range<u64>, usize)>,
}

impl Window {
    /// Bytes the window reads.
    fn bytes(&self) -> usize {
        self.slices
            .iter()
            .map(|(file, _)| (file.end - file.start) as usize)
            .sum()
    }
}

/// A lazily-decoding reader over one segment file — the on-disk
/// implementation of [`BlockSource`].
///
/// The reader is `Sync`: blocks are read with positioned reads on a shared
/// file handle, so the parallel scan pipeline's workers can decode different
/// blocks concurrently without locking. It is also `Clone` (the handle is
/// shared), so sessions holding segment-backed tables stay cloneable.
#[derive(Debug, Clone)]
pub struct SegmentReader {
    file: Arc<File>,
    path: PathBuf,
    /// Zero-row table carrying names, types and full dictionaries, in file
    /// column order.
    schema: Table,
    layout: BlockLayout,
    catalog: Catalog,
    seed: u64,
    indexes: HashMap<String, BlockBitmapIndex>,
    zones: HashMap<String, ZoneMap>,
    /// Page directory, column-major: column `ci`'s page `p` at
    /// `ci * num_pages + p`.
    pages: Vec<PageEntry>,
    /// Piece CRC-32s, column-major: column `ci`'s block `b` at
    /// `ci * num_blocks + b`.
    crcs: Vec<u32>,
    /// Memoized group universes, shared across clones (the underlying file
    /// is the same).
    universes: GroupUniverseCache,
}

impl SegmentReader {
    /// Opens a segment file, validating the footer magic/version, the
    /// metadata checksum and every page frame. Row data is *not* read or
    /// validated here; each referenced piece's CRC is checked each time a
    /// block read decodes it.
    ///
    /// A segment whose catalog noted a non-finite float value opens (the
    /// value is stored bitwise, as every other); its
    /// [`Catalog::first_non_finite`] reports it, so a session can refuse
    /// the table without a pass over the data.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] on filesystem failures, [`StoreError::Corrupt`]
    /// for anything that fails to validate (wrong magic, unsupported
    /// version, truncation, checksum mismatch, inconsistent metadata).
    pub fn open(path: impl AsRef<Path>) -> StoreResult<Self> {
        let path = path.as_ref().to_path_buf();
        let file = Arc::new(File::open(&path).map_err(|e| StoreError::io(&path, e))?);
        let file_len = file.metadata().map_err(|e| StoreError::io(&path, e))?.len();
        if file_len < HEADER_LEN + FOOTER_LEN {
            return Err(StoreError::corrupt(
                &path,
                format!("file of {file_len} bytes is too short to be a segment"),
            ));
        }

        // Header.
        let mut header = [0u8; HEADER_LEN as usize];
        read_at(&file, &path, 0, &mut header)?;
        if header[..8] != MAGIC {
            return Err(StoreError::corrupt(&path, "bad header magic"));
        }

        // Footer.
        let mut footer = [0u8; FOOTER_LEN as usize];
        read_at(&file, &path, file_len - FOOTER_LEN, &mut footer)?;
        if footer[24..32] != MAGIC {
            return Err(StoreError::corrupt(&path, "bad footer magic"));
        }
        let version = u32::from_le_bytes(footer[20..24].try_into().expect("4 bytes"));
        if version != VERSION {
            return Err(StoreError::corrupt(
                &path,
                format!("unsupported segment version {version} (expected {VERSION})"),
            ));
        }
        let meta_offset = u64::from_le_bytes(footer[0..8].try_into().expect("8 bytes"));
        let meta_len = u64::from_le_bytes(footer[8..16].try_into().expect("8 bytes"));
        let meta_crc = u32::from_le_bytes(footer[16..20].try_into().expect("4 bytes"));
        if meta_offset < HEADER_LEN
            || meta_offset
                .checked_add(meta_len)
                .map_or(true, |end| end != file_len - FOOTER_LEN)
        {
            return Err(StoreError::corrupt(
                &path,
                "metadata section does not tile the file (truncated or overwritten?)",
            ));
        }

        // Metadata.
        let mut meta = vec![0u8; meta_len as usize];
        read_at(&file, &path, meta_offset, &mut meta)?;
        let actual_crc = crc32(&meta);
        if actual_crc != meta_crc {
            return Err(StoreError::corrupt(
                &path,
                format!("metadata checksum mismatch: stored {meta_crc:#010x}, computed {actual_crc:#010x}"),
            ));
        }

        let mut c = Cursor::new(&meta, &path);
        let num_rows = c.u64()? as usize;
        let block_size = c.u32()? as usize;
        if block_size == 0 {
            return Err(StoreError::corrupt(&path, "block size of zero"));
        }
        let seed = c.u64()?;
        let layout = BlockLayout::new(num_rows, block_size);
        let num_blocks = layout.num_blocks();
        let num_columns = c.u32()? as usize;

        let mut columns = Vec::with_capacity(num_columns);
        let mut stats = Vec::with_capacity(num_columns);
        for _ in 0..num_columns {
            let name = c.string()?;
            let type_tag = c.u8()?;
            let has_range = c.u8()? != 0;
            let min = c.f64()?;
            let max = c.f64()?;
            let cardinality = match c.u64()? {
                NO_CARDINALITY => None,
                n => Some(n as usize),
            };
            let (column, data_type) = match type_tag {
                TYPE_FLOAT => (Column::float(name.clone(), Vec::new()), DataType::Float64),
                TYPE_INT => (Column::int(name.clone(), Vec::new()), DataType::Int64),
                TYPE_CAT => {
                    let dict_len = c.u32()? as usize;
                    let mut dict = Vec::with_capacity(dict_len);
                    for _ in 0..dict_len {
                        dict.push(c.string()?);
                    }
                    (
                        Column::categorical_from_codes(name.clone(), Arc::new(dict), Vec::new()),
                        DataType::Categorical,
                    )
                }
                other => {
                    return Err(StoreError::corrupt(
                        &path,
                        format!("unknown column type tag {other} for `{name}`"),
                    ))
                }
            };
            stats.push(ColumnStats {
                name,
                data_type,
                rows: num_rows,
                min: has_range.then_some(min),
                max: has_range.then_some(max),
                cardinality,
            });
            columns.push(column);
        }
        let schema = Table::new(columns)?;

        // Zone maps.
        let num_zones = c.u32()? as usize;
        let mut zones = HashMap::with_capacity(num_zones);
        for _ in 0..num_zones {
            let ci = c.u32()? as usize;
            let name = column_name(&schema, ci, &path)?;
            let mut mins = Vec::with_capacity(num_blocks);
            let mut maxs = Vec::with_capacity(num_blocks);
            for _ in 0..num_blocks {
                mins.push(c.f64()?);
                maxs.push(c.f64()?);
            }
            zones.insert(name.clone(), ZoneMap::from_parts(name, mins, maxs));
        }

        // Bitmap indexes.
        let words_per_bitmap = num_blocks.div_ceil(64);
        let num_indexes = c.u32()? as usize;
        let mut indexes = HashMap::with_capacity(num_indexes);
        for _ in 0..num_indexes {
            let ci = c.u32()? as usize;
            let name = column_name(&schema, ci, &path)?;
            let num_values = c.u32()? as usize;
            let mut per_value = Vec::with_capacity(num_values);
            for _ in 0..num_values {
                let mut words = Vec::with_capacity(words_per_bitmap);
                for _ in 0..words_per_bitmap {
                    words.push(c.u64()?);
                }
                per_value.push(BitSet::from_words(words, num_blocks));
            }
            indexes.insert(
                name.clone(),
                BlockBitmapIndex::from_parts(name, per_value, num_blocks),
            );
        }

        // The catalog's first non-finite value.
        let non_finite_column = c.u32()?;
        let non_finite_row = c.u64()? as usize;
        let non_finite = match non_finite_column {
            NO_NON_FINITE => None,
            ci => Some((column_name(&schema, ci as usize, &path)?, non_finite_row)),
        };
        let catalog = Catalog::from_stats(stats).with_first_non_finite(non_finite);

        // Page directory: every frame must be one of its column's type, and
        // every page's pieces must lie inside the data section.
        let num_pages = num_blocks.div_ceil(PAGE_BLOCKS);
        let mut pages = Vec::with_capacity(num_columns * num_pages);
        for column in schema.columns() {
            for page in 0..num_pages {
                let entry = PageEntry {
                    offset: c.u64()?,
                    frame: Frame {
                        min: c.u64()?,
                        width: c.u8()?,
                    },
                };
                check_frame(entry.frame, column.data_type(), column.name(), &path)?;
                let blocks = page * PAGE_BLOCKS..((page + 1) * PAGE_BLOCKS).min(num_blocks);
                let last_rows = layout.rows_of(BlockId(blocks.end - 1)).len();
                let len = (blocks.len() - 1) * piece_len(block_size, entry.frame.width)
                    + piece_len(last_rows, entry.frame.width);
                if entry.offset < HEADER_LEN
                    || entry
                        .offset
                        .checked_add(len as u64)
                        .map_or(true, |end| end > meta_offset)
                {
                    return Err(StoreError::corrupt(
                        &path,
                        format!(
                            "page {page} of `{}`: its pieces, {len} bytes from offset {}, \
                             run past the data section",
                            column.name(),
                            entry.offset
                        ),
                    ));
                }
                pages.push(entry);
            }
        }
        let mut crcs = Vec::with_capacity(num_columns * num_blocks);
        for _ in 0..num_columns * num_blocks {
            crcs.push(c.u32()?);
        }
        if c.remaining() != 0 {
            return Err(StoreError::corrupt(
                &path,
                format!("{} trailing bytes after metadata", c.remaining()),
            ));
        }

        Ok(Self {
            file,
            path,
            schema,
            layout,
            catalog,
            seed,
            indexes,
            zones,
            pages,
            crcs,
            universes: GroupUniverseCache::new(),
        })
    }

    /// The path this reader was opened from.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Decodes every block into memory and reassembles the full in-memory
    /// [`Scramble`] — the opposite trade to lazy scanning, for workloads
    /// that will hammer a table small enough to keep resident.
    pub fn materialize(&self) -> StoreResult<Scramble> {
        let mut columns = self.schema.columns().to_vec();
        let mut decoded = self.schema.clone();
        let all = 0..self.layout.num_blocks();
        let blocks = slice::from_ref(&all);
        self.scan_into(blocks, None, &mut decoded, None, &mut |_, run| {
            for (column, part) in columns.iter_mut().zip(run.columns()) {
                append(column.data_mut(), part.data());
            }
            ControlFlow::Continue(())
        })?;
        Ok(Scramble::from_parts(
            Table::new(columns)?,
            self.layout,
            self.catalog.clone(),
            self.indexes.clone(),
            self.zones.clone(),
            self.seed,
        ))
    }

    /// Scans `blocks` as [`BlockSource::scan_blocks`] does with
    /// `projection`, visiting nothing, and returns the time spent in each
    /// step of the reader's run path. This is the reader's own scan, with a
    /// clock read between steps: a profile of the scan path, not a second
    /// copy of it.
    ///
    /// # Errors
    ///
    /// As [`BlockSource::scan_blocks`].
    pub fn scan_steps(
        &self,
        blocks: &[Range<usize>],
        projection: Option<&[usize]>,
    ) -> StoreResult<ScanSteps> {
        let mut steps = ScanSteps::default();
        self.scan_into(
            blocks,
            projection,
            &mut self.schema.clone(),
            Some(&mut steps),
            &mut |_, _| ControlFlow::Continue(()),
        )?;
        Ok(steps)
    }

    /// Reads and decodes the block ranges `blocks` in list order into
    /// `decoded`, a clone of the schema, one run at a time ([`runs`]),
    /// handing it to `visit` with the run's first block id after each run
    /// until `visit` breaks.
    /// `decoded` then holds the run's rows, block after block. Only the
    /// `projection` columns' pieces are read, checked and decoded (all of
    /// them for `None`); the other columns stay zero-row placeholders
    /// keeping their position, name, type and dictionary.
    ///
    /// Each window ([`Self::next_window`]) is one positioned read per
    /// referenced column and row group into a byte buffer, through the
    /// window's holes; each run is then a CRC check of every referenced
    /// piece ([`Self::check_run`]) and one decode per column and page into
    /// the column buffers of `decoded`. A hole's pieces are never checked
    /// or decoded. Both buffers are reused, so after the first window a
    /// scan allocates only when a longer window or run needs more room.
    /// With `steps`, the time of each step is added to it.
    fn scan_into(
        &self,
        blocks: &[Range<usize>],
        projection: Option<&[usize]>,
        decoded: &mut Table,
        steps: Option<&mut ScanSteps>,
        visit: &mut dyn FnMut(BlockId, &Table) -> ControlFlow<()>,
    ) -> StoreResult<()> {
        let columns: Vec<usize> = (0..self.schema.num_columns())
            .filter(|ci| projection.map_or(true, |wanted| wanted.contains(ci)))
            .collect();
        let block_size = self.layout.block_size();
        let mut clock = steps.map(|steps| (steps, Instant::now()));
        let mut buffer = Vec::new();
        let mut rest = runs(blocks, block_size).peekable();
        while rest.peek().is_some() {
            lap(&mut clock, None);
            let window = self.next_window(rest.clone(), &columns)?;
            // The slack past the window's bytes lets the decoder load whole
            // words at the end of the last piece.
            let bytes = window.bytes();
            if buffer.len() < bytes + DECODE_SLACK {
                buffer.resize(bytes + DECODE_SLACK, 0);
            }
            let mut reads = 0;
            for (file, at) in window.slices.iter().filter(|(file, _)| !file.is_empty()) {
                let into = &mut buffer[*at..at + (file.end - file.start) as usize];
                read_at(&self.file, &self.path, file.start, into)?;
                reads += 1;
            }
            lap(&mut clock, Some(|steps| &mut steps.io));
            if let Some((steps, _)) = &mut clock {
                steps.reads += reads;
                steps.bytes += bytes as u64;
                steps.hole_bytes += window.holes;
            }
            // Where the `k`-th referenced column's piece of `block` starts in
            // the buffer.
            let piece_at = |k: usize, block: usize| {
                let (file, at) =
                    &window.slices[k * window.groups + block / GROUP_BLOCKS - window.first_group];
                at + (self.piece(columns[k], block).start - file.start) as usize
            };
            let (buffer, piece_at) = (&buffer[..], &piece_at);
            let last_block = self.layout.num_blocks() - 1;
            for blocks in rest.by_ref().take(window.runs) {
                // The `k`-th referenced column's pieces of the run, page by
                // page: a page's pieces lie `stride` bytes apart, and only
                // the table's ragged last block is shorter.
                let pieces = |k: usize| {
                    let ci = columns[k];
                    pages_of(blocks.clone()).flat_map(move |part| {
                        let width = self.page(ci, part.start).frame.width;
                        let stride = piece_len(block_size, width);
                        let (first, start) = (part.start, piece_at(k, part.start));
                        part.map(move |block| {
                            let len = match block == last_block {
                                true => piece_len(self.layout.rows_of(BlockId(block)).len(), width),
                                false => stride,
                            };
                            &buffer[start + (block - first) * stride..][..len]
                        })
                    })
                };
                self.check_run(blocks.clone(), &columns, pieces)?;
                lap(&mut clock, Some(|steps| &mut steps.crc));
                let rows_of = |blocks: Range<usize>| {
                    self.layout.rows_of(BlockId(blocks.end - 1)).end
                        - self.layout.rows_of(BlockId(blocks.start)).start
                };
                let table_columns = decoded.refill(rows_of(blocks.clone()));
                for (k, &ci) in columns.iter().enumerate() {
                    let name = self.schema.column_at(ci).name();
                    let out = table_columns[ci].data_mut();
                    clear(out);
                    for part in pages_of(blocks.clone()) {
                        let frame = self.page(ci, part.start).frame;
                        let bytes = &buffer[piece_at(k, part.start)..];
                        let rows = rows_of(part);
                        decode_page(frame, bytes, block_size, rows, name, out, &self.path)?;
                    }
                }
                lap(&mut clock, Some(|steps| &mut steps.decode));
                if visit(BlockId(blocks.start), decoded).is_break() {
                    return Ok(());
                }
                lap(&mut clock, None);
            }
        }
        Ok(())
    }

    /// The head of a scan's `runs` (see [`runs`]) that one window covers,
    /// and the byte ranges of its `columns` pieces from its first block to
    /// its last: whole runs, each starting after the one before it with a
    /// hole of at most [`HOLE_ROWS`] rows, while that span fits in
    /// [`READ_BYTES`], and always the first run. A run reaching past the
    /// end of the segment ends the window before it, so it fails on its own
    /// window, after the runs before it are visited.
    ///
    /// # Errors
    ///
    /// [`StoreError::BlockOutOfRange`] when the first run reaches past the
    /// end of the segment.
    fn next_window(
        &self,
        runs: impl Iterator<Item = Range<usize>>,
        columns: &[usize],
    ) -> StoreResult<Window> {
        let (num_blocks, block_size) = (self.layout.num_blocks(), self.layout.block_size());
        let bytes_of = |blocks: Range<usize>| -> u64 {
            columns
                .iter()
                .flat_map(|&ci| self.slices(ci, blocks.clone()))
                .map(|file| file.end - file.start)
                .sum()
        };
        let (mut first, mut end) = (0, 0);
        let (mut count, mut span, mut fetched) = (0, 0, 0);
        for run in runs {
            if count == 0 {
                first = run.start;
            } else {
                // The wrap (or any step back) ends the window, and so does
                // a longer hole.
                let hole = run.start.checked_sub(end);
                if hole.map_or(true, |hole| hole * block_size > HOLE_ROWS) {
                    break;
                }
            }
            if run.end > num_blocks {
                if count > 0 {
                    break;
                }
                let block = BlockId(run.start.max(num_blocks));
                return Err(StoreError::block_out_of_range(
                    &self.path, block, num_blocks,
                ));
            }
            let grown = bytes_of(first..run.end);
            if count > 0 && grown > READ_BYTES {
                break;
            }
            span = grown;
            fetched += bytes_of(run.clone());
            end = run.end;
            count += 1;
        }
        let first_group = first / GROUP_BLOCKS;
        let mut slices = Vec::new();
        let mut at = 0;
        for &ci in columns {
            for file in self.slices(ci, first..end) {
                let next = at + (file.end - file.start) as usize;
                slices.push((file, at));
                at = next;
            }
        }
        Ok(Window {
            runs: count,
            holes: span - fetched,
            first_group,
            groups: (end - 1) / GROUP_BLOCKS + 1 - first_group,
            slices,
        })
    }

    /// The file ranges of column `ci`'s pieces of consecutive `blocks`, one
    /// per row group they touch: a column's pieces are contiguous inside a
    /// row group.
    fn slices(&self, ci: usize, blocks: Range<usize>) -> impl Iterator<Item = Range<u64>> + '_ {
        let groups = blocks.start / GROUP_BLOCKS..(blocks.end - 1) / GROUP_BLOCKS + 1;
        groups.map(move |group| {
            let lo = blocks.start.max(group * GROUP_BLOCKS);
            let hi = blocks.end.min((group + 1) * GROUP_BLOCKS);
            self.piece(ci, lo).start..self.piece(ci, hi - 1).end
        })
    }

    /// Checks every `columns` piece of the consecutive `blocks` of a run
    /// against its stored CRC-32, column by column, four blocks at a time
    /// ([`check_crcs`]). `pieces(k)` gives the bytes of the run's pieces of
    /// the `k`-th referenced column, in block order.
    ///
    /// # Errors
    ///
    /// [`StoreError::Corrupt`] naming the first mismatching piece in block
    /// order, then column order, so the error does not depend on how the
    /// checks are batched.
    fn check_run<'b, I: Iterator<Item = &'b [u8]>>(
        &self,
        blocks: Range<usize>,
        columns: &[usize],
        pieces: impl Fn(usize) -> I,
    ) -> StoreResult<()> {
        let mut first_bad: Option<(usize, usize, u32)> = None;
        for (k, &ci) in columns.iter().enumerate() {
            let stored = &self.crcs[ci * self.layout.num_blocks()..][blocks.clone()];
            if let Err((at, computed)) = check_crcs(pieces(k).zip(stored.iter().copied())) {
                if first_bad.map_or(true, |(earliest, _, _)| at < earliest) {
                    first_bad = Some((at, ci, computed));
                }
            }
        }
        let Some((at, ci, computed)) = first_bad else {
            return Ok(());
        };
        let block = BlockId(blocks.start + at);
        let name = self.schema.column_at(ci).name();
        Err(StoreError::corrupt(
            &self.path,
            format!(
                "chunk checksum mismatch for {block} column {ci} (`{name}`): stored {:#010x}, computed {computed:#010x}",
                self.crc(ci, block)
            ),
        ))
    }

    /// The page directory entry of column `ci`'s page holding `block`.
    fn page(&self, ci: usize, block: usize) -> PageEntry {
        let num_pages = self.layout.num_blocks().div_ceil(PAGE_BLOCKS);
        self.pages[ci * num_pages + block / PAGE_BLOCKS]
    }

    /// The file range of `block`'s piece of column `ci`: every piece of a
    /// page before the last holds a whole block.
    fn piece(&self, ci: usize, block: usize) -> Range<u64> {
        let PageEntry { offset, frame } = self.page(ci, block);
        let stride = piece_len(self.layout.block_size(), frame.width) as u64;
        let start = offset + (block % PAGE_BLOCKS) as u64 * stride;
        let rows = self.layout.rows_of(BlockId(block)).len();
        start..start + piece_len(rows, frame.width) as u64
    }

    /// The stored CRC-32 of `block`'s piece of column `ci`.
    fn crc(&self, ci: usize, block: BlockId) -> u32 {
        self.crcs[ci * self.layout.num_blocks() + block.index()]
    }
}

impl BlockSource for SegmentReader {
    fn schema(&self) -> &Table {
        &self.schema
    }

    fn num_rows(&self) -> usize {
        self.layout.num_rows()
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
        self.read_block_projected(block, None)
    }

    fn read_block_projected(
        &self,
        block: BlockId,
        projection: Option<&[usize]>,
    ) -> StoreResult<BlockRef<'_>> {
        let mut decoded = self.schema.clone();
        let block = block.index()..block.index() + 1;
        let blocks = slice::from_ref(&block);
        self.scan_into(blocks, projection, &mut decoded, None, &mut |_, _| {
            ControlFlow::Continue(())
        })?;
        Ok(BlockRef::owned(decoded))
    }

    fn scan_blocks(
        &self,
        blocks: &[Range<usize>],
        projection: Option<&[usize]>,
        visit: &mut dyn FnMut(BlockId, BlockRef<'_>) -> ControlFlow<()>,
    ) -> StoreResult<()> {
        self.scan_into(
            blocks,
            projection,
            &mut self.schema.clone(),
            None,
            &mut |first, run| visit(first, BlockRef::borrowed(run, 0..run.num_rows())),
        )
    }

    fn group_universe_cache(&self) -> Option<&GroupUniverseCache> {
        Some(&self.universes)
    }
}

/// Time spent in each step of a segment scan, summed over its windows and
/// runs, with the bytes read ([`SegmentReader::scan_steps`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScanSteps {
    /// Positioned reads of the referenced byte ranges.
    pub io: Duration,
    /// CRC-32 checks of the referenced pieces.
    pub crc: Duration,
    /// Decoding the referenced pieces into column buffers.
    pub decode: Duration,
    /// Number of positioned reads.
    pub reads: usize,
    /// Bytes read: the referenced columns' pieces of the blocks scanned,
    /// and of the holes between them that windows read through.
    pub bytes: u64,
    /// The part of `bytes` read for skipped blocks in windows' holes: read,
    /// never checked or decoded.
    pub hole_bytes: u64,
}

/// With a clock, adds the time since its last lap to the step `step`
/// picks (none: the time is dropped) and restarts it; without one, nothing.
fn lap(
    clock: &mut Option<(&mut ScanSteps, Instant)>,
    step: Option<fn(&mut ScanSteps) -> &mut Duration>,
) {
    if let Some((steps, at)) = clock {
        let now = Instant::now();
        if let Some(step) = step {
            *step(steps) += now - *at;
        }
        *at = now;
    }
}

/// Splits consecutive `blocks` at page boundaries.
fn pages_of(blocks: Range<usize>) -> impl Iterator<Item = Range<usize>> {
    let mut start = blocks.start;
    std::iter::from_fn(move || {
        let end = blocks.end.min((start / PAGE_BLOCKS + 1) * PAGE_BLOCKS);
        let part = (start < end).then_some(start..end)?;
        start = end;
        Some(part)
    })
}

/// Positioned read filling `buf` from `offset`.
#[cfg(unix)]
fn read_at(file: &File, path: &Path, offset: u64, buf: &mut [u8]) -> StoreResult<()> {
    use std::os::unix::fs::FileExt;
    file.read_exact_at(buf, offset)
        .map_err(|e| StoreError::io(path, e))
}

/// Portable fallback: re-open the file and seek (positioned shared reads are
/// not in the portable std API).
#[cfg(not(unix))]
fn read_at(file: &File, path: &Path, offset: u64, buf: &mut [u8]) -> StoreResult<()> {
    use std::io::{Read, Seek, SeekFrom};
    let _ = file;
    let mut f = File::open(path).map_err(|e| StoreError::io(path, e))?;
    f.seek(SeekFrom::Start(offset))
        .map_err(|e| StoreError::io(path, e))?;
    f.read_exact(buf).map_err(|e| StoreError::io(path, e))
}

fn column_name(schema: &Table, index: usize, path: &Path) -> StoreResult<String> {
    if index >= schema.num_columns() {
        return Err(StoreError::corrupt(
            path,
            format!("column index {index} out of range"),
        ));
    }
    Ok(schema.column_at(index).name().to_string())
}

/// Empties a decoded column buffer, keeping its allocation for the next
/// run.
fn clear(column: &mut ColumnData) {
    match column {
        ColumnData::Float64(values) => values.clear(),
        ColumnData::Int64(values) => values.clear(),
        ColumnData::Categorical { codes, .. } => codes.clear(),
    }
}

/// Appends one decoded run's values of a column to the whole column
/// (used by [`SegmentReader::materialize`]). Both sides come from the same
/// schema column, so their types agree.
fn append(column: &mut ColumnData, part: &ColumnData) {
    match (column, part) {
        (ColumnData::Float64(all), ColumnData::Float64(part)) => all.extend_from_slice(part),
        (ColumnData::Int64(all), ColumnData::Int64(part)) => all.extend_from_slice(part),
        (
            ColumnData::Categorical { codes: all, .. },
            ColumnData::Categorical { codes: part, .. },
        ) => all.extend_from_slice(part),
        _ => unreachable!("decoded blocks keep the schema's column types"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::persist::write_segment;
    use crate::source::run_blocks;

    /// 40 000 rows of three float columns in 25-row blocks: 1 600 blocks,
    /// two row groups, 200 bytes per piece.
    fn reader(tag: &str) -> (SegmentReader, PathBuf) {
        let n = 40_000usize;
        let column = |name: &str| Column::float(name, (0..n).map(|i| i as f64).collect());
        let table = Table::new(vec![column("a"), column("b"), column("c")]).unwrap();
        let scramble = Scramble::build_with(&table, 1, 25).unwrap();
        let path = std::env::temp_dir().join(format!(
            "fastframe_reader_{tag}_{}.ffseg",
            std::process::id()
        ));
        write_segment(&scramble, &path).unwrap();
        (SegmentReader::open(&path).unwrap(), path)
    }

    #[test]
    fn runs_are_consecutive_and_capped() {
        let (reader, path) = reader("runs");
        let num_blocks = reader.layout.num_blocks();
        assert_eq!(num_blocks, 1_600);
        let all = 0..num_blocks;
        let every = slice::from_ref(&all);
        // 1 600 rows of 25-row blocks.
        const RUN_BLOCKS: usize = 64;
        assert_eq!(run_blocks(25), RUN_BLOCKS);
        let lens = |blocks: &[Range<usize>]| -> Vec<usize> {
            runs(blocks, reader.layout.block_size())
                .map(|run| run.len())
                .collect()
        };
        assert_eq!(lens(every), [RUN_BLOCKS; 25]);

        // Inside a row group a column's pieces are contiguous, and the next
        // column's chunk follows the last of them.
        assert_eq!(reader.piece(1, 3).end - reader.piece(1, 3).start, 200);
        assert_eq!(reader.piece(1, 3).end, reader.piece(1, 4).start);
        assert_eq!(
            reader.piece(0, GROUP_BLOCKS - 1).end,
            reader.piece(1, 0).start
        );
        assert_eq!(reader.piece(0, 0).start, HEADER_LEN);
        let span: Vec<Range<u64>> = reader.slices(1, 3..5).collect();
        assert_eq!(span.len(), 1);
        assert_eq!(span[0], reader.piece(1, 3).start..reader.piece(1, 4).end);
        // A run across the row-group boundary has one range per group.
        let across: Vec<Range<u64>> = reader.slices(2, 1_000..1_064).collect();
        assert_eq!(
            across,
            [
                reader.piece(2, 1_000).start..reader.piece(2, GROUP_BLOCKS - 1).end,
                reader.piece(2, GROUP_BLOCKS).start..reader.piece(2, 1_063).end,
            ]
        );

        // The end of a range ends a run, and so does the cap; an empty
        // range adds none.
        let gapped = [0..2, 5..7, 7..7, 0..1];
        assert_eq!(lens(&gapped), [2, 2, 1]);
        let wrapped = [num_blocks - 3..num_blocks, 0..RUN_BLOCKS + 2];
        assert_eq!(lens(&wrapped), [3, RUN_BLOCKS, 2]);

        // An empty projection reads nothing; a block past the end fails its
        // window.
        let window = reader.next_window(runs(every, 25), &[]).unwrap();
        assert_eq!((window.runs, window.bytes()), (25, 0));
        let past = num_blocks - 1..num_blocks + 1;
        assert_eq!(
            reader
                .next_window(runs(slice::from_ref(&past), 25), &[0])
                .err(),
            Some(StoreError::block_out_of_range(
                &path,
                BlockId(num_blocks),
                num_blocks
            ))
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn a_read_covers_consecutive_whole_runs_up_to_the_byte_cap() {
        let (reader, path) = reader("reads");
        let num_blocks = reader.layout.num_blocks();
        let all = 0..num_blocks;
        let every = slice::from_ref(&all);
        // Each window of a scan, with the blocks it covers.
        let windows = |blocks: &[Range<usize>], columns: &[usize]| {
            let mut rest = runs(blocks, 25).peekable();
            let mut out = Vec::new();
            while rest.peek().is_some() {
                let window = reader.next_window(rest.clone(), columns).unwrap();
                let len: usize = rest.by_ref().take(window.runs).map(|run| run.len()).sum();
                out.push((len, window));
            }
            out
        };

        // A run of all three columns is 64 · 3 · 200 = 38 400 bytes, so three
        // runs fit in READ_BYTES and a fourth does not: the 1 600 blocks
        // take eight windows of three runs and one of one. Each reads one
        // range per column and row group; the sixth crosses into the
        // second row group.
        let all = windows(every, &[0, 1, 2]);
        let lens: Vec<usize> = all.iter().map(|w| w.0).collect();
        assert_eq!(lens, [192, 192, 192, 192, 192, 192, 192, 192, 64]);
        let reads: Vec<usize> = all.iter().map(|w| w.1.slices.len()).collect();
        assert_eq!(reads, [3, 3, 3, 3, 3, 6, 3, 3, 3]);
        assert!(all.iter().all(|w| w.1.bytes() as u64 <= READ_BYTES));
        assert_eq!(
            all[5].1.slices[0].0,
            reader.piece(0, 960).start..reader.piece(0, 1_023).end
        );
        assert_eq!(
            all[5].1.slices[1].0,
            reader.piece(0, 1_024).start..reader.piece(0, 1_151).end
        );
        // One column reads only its own bytes: ten runs fit.
        let one: Vec<usize> = windows(every, &[1]).iter().map(|w| w.0).collect();
        assert_eq!(one, [640, 640, 320]);
        // The scan makes exactly those reads, of exactly those bytes.
        let steps = reader.scan_steps(every, None).unwrap();
        assert_eq!(steps.reads, 30);
        assert_eq!(steps.bytes, 1_600 * 3 * 200);
        let steps = reader.scan_steps(every, Some(&[1])).unwrap();
        assert_eq!((steps.reads, steps.bytes), (4, 1_600 * 200));

        // A window reads through a short hole, but the wrap ends it: the
        // 1-block hole at block 100 is read (200 bytes, never checked or
        // decoded) with the 299 blocks around it.
        let gapped = [0..100, 101..300, 0..10];
        let gapped_windows = windows(&gapped, &[0]);
        let lens: Vec<usize> = gapped_windows.iter().map(|w| w.0).collect();
        assert_eq!(lens, [299, 10]);
        assert_eq!(gapped_windows[0].1.holes, 200);
        assert_eq!(gapped_windows[0].1.bytes(), 300 * 200);
        let steps = reader.scan_steps(&gapped, Some(&[0])).unwrap();
        assert_eq!((steps.reads, steps.hole_bytes), (2, 200));
        assert_eq!(steps.bytes, (300 + 10) * 200);

        // A hole of HOLE_ROWS rows (16 blocks) is read through; one block
        // more ends the window.
        let hole_blocks = HOLE_ROWS / 25;
        assert_eq!(hole_blocks, 16);
        for (hole, reads, hole_bytes) in [(hole_blocks, 1, 16 * 200), (hole_blocks + 1, 2, 0)] {
            let list = [0..100, 100 + hole..200];
            let steps = reader.scan_steps(&list, Some(&[1])).unwrap();
            assert_eq!(
                (steps.reads, steps.hole_bytes),
                (reads, hole_bytes),
                "hole of {hole}"
            );
            let listed = (200 - hole) as u64;
            assert_eq!(steps.bytes, listed * 200 + hole_bytes);
        }

        // The byte cap counts the holes: every other block of all three
        // columns spans 600 bytes per block, so a window covers at most
        // 218 blocks of the file, 109 of the list.
        let halves: Vec<Range<usize>> = (0..num_blocks).step_by(2).map(|b| b..b + 1).collect();
        let half_windows = windows(&halves, &[0, 1, 2]);
        assert!(half_windows
            .iter()
            .all(|w| w.1.bytes() as u64 <= READ_BYTES));
        assert_eq!(half_windows[0].0, 109);
        assert_eq!(half_windows[0].1.bytes(), 217 * 600);
        assert_eq!(half_windows[0].1.holes, 108 * 600);

        // A block past the end ends the window before its run, so the runs
        // before it are read (and visited) first; read alone, it fails.
        let past = num_blocks - 70..num_blocks + 1;
        let mut rest = runs(slice::from_ref(&past), 25);
        let window = reader.next_window(rest.clone(), &[0]).unwrap();
        assert_eq!(window.runs, 1);
        assert_eq!(
            rest.next(),
            Some(num_blocks - 70..num_blocks - 70 + run_blocks(25))
        );
        assert_eq!(
            reader.next_window(rest, &[0]).err(),
            Some(StoreError::block_out_of_range(
                &path,
                BlockId(num_blocks),
                num_blocks
            ))
        );
        std::fs::remove_file(&path).ok();
    }
}

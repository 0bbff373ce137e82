//! The lazy segment reader: validates and loads segment *metadata* eagerly,
//! decodes *blocks* on demand.
//!
//! Opening a segment reads only the footer and metadata section (schema,
//! dictionaries, catalog, zone maps, bitmap indexes, chunk directory) — a
//! few KB plus the dictionaries, independent of the data size. Row data
//! stays on disk until a scan decodes it, so working sets larger than memory
//! can be scanned a run of blocks at a time through the [`BlockSource`]
//! interface.
//!
//! Every block read goes through one path, [`BlockSource::scan_blocks`],
//! which hands out **runs**: stretches of consecutive block ids holding up
//! to [`RUN_ROWS`](crate::source::RUN_ROWS) rows (see [`runs`]). The reader
//! pays its fixed costs once per read and once per run:
//!
//! 1. The data section is block-major, so consecutive blocks' referenced
//!    chunks lie in one byte range. One positioned read fetches the range
//!    of as many whole runs as continue each other (a run ended by the cap,
//!    not by a gap or the wrap, is continued by the next) and fit in
//!    [`READ_BYTES`], and always at least one run, into a buffer reused
//!    from read to read. Read size and visit size are separate: a full pass
//!    over a table makes one read per 256 KiB, not one per run.
//! 2. Every referenced chunk of a run is checked against its CRC-32 in the
//!    directory, column by column, four chunks at a time: the same column
//!    of four consecutive blocks gives four independent table-lookup chains
//!    ([`check_crcs`]).
//! 3. Each referenced column of the run is decoded into one column buffer,
//!    block after block, and the run is visited as one table.
//!
//! The read buffer holds at most [`READ_BYTES`] (or one run, when a run's
//! chunks are longer) and the decoded table at most one run, so a scan's
//! memory does not grow with the list it scans.
//! [`SegmentReader::read_block`], `read_block_projected`,
//! [`SegmentReader::materialize`] and [`SegmentReader::scan_steps`] run the
//! same code.
//!
//! Integrity is checked at two levels: the footer carries a CRC-32 over the
//! metadata section (validated at open, so truncated or corrupt files fail
//! loudly before any query runs), and every referenced chunk's CRC-32 from
//! the directory is validated before the chunk is decoded (so data
//! corruption is caught on first touch, with the offending block and column
//! in the error). A corrupt chunk fails its whole run before any of the
//! run's blocks is visited; when several are corrupt, the error names the
//! first in block order, then column order. Bytes of unreferenced chunks
//! inside a run's range are read but not checked. Blocks remain the unit
//! of the chunk directory and of every checksum: the file format knows
//! nothing of runs.

use std::collections::HashMap;
use std::fs::File;
use std::ops::{ControlFlow, Range};
use std::path::{Path, PathBuf};
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
    check_crcs, crc32, decode_chunk, Cursor, ENC_CODES_FOR, FOOTER_LEN, HEADER_LEN, MAGIC,
    NO_CARDINALITY, TYPE_CAT, TYPE_FLOAT, TYPE_INT, VERSION,
};

/// The most bytes one positioned read of a scan covers, unless a single run
/// needs more: reads of consecutive runs are merged up to this size.
const READ_BYTES: u64 = 256 * 1024;

/// One entry of the in-memory chunk directory.
#[derive(Debug, Clone, Copy)]
struct ChunkEntry {
    offset: u64,
    len: u32,
    encoding: u8,
    crc: u32,
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
    directory: Vec<ChunkEntry>,
    /// Memoized group universes, shared across clones (the underlying file
    /// is the same).
    universes: GroupUniverseCache,
}

impl SegmentReader {
    /// Opens a segment file, validating the footer magic/version and the
    /// metadata checksum. Row data is *not* read or validated here; each
    /// referenced chunk's CRC is checked each time a block read decodes it.
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
        let catalog = Catalog::from_stats(stats);

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

        // Chunk directory.
        let mut directory = Vec::with_capacity(num_blocks * num_columns);
        for _ in 0..num_blocks * num_columns {
            let entry = ChunkEntry {
                offset: c.u64()?,
                len: c.u32()?,
                encoding: c.u8()?,
                crc: c.u32()?,
            };
            if entry.encoding > ENC_CODES_FOR {
                return Err(StoreError::corrupt(
                    &path,
                    format!("unknown chunk encoding tag {}", entry.encoding),
                ));
            }
            if entry.offset < HEADER_LEN
                || entry
                    .offset
                    .checked_add(entry.len as u64)
                    .map_or(true, |end| end > meta_offset)
            {
                return Err(StoreError::corrupt(
                    &path,
                    "chunk directory entry points outside the data section",
                ));
            }
            directory.push(entry);
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
            directory,
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
        let blocks: Vec<BlockId> = (0..self.layout.num_blocks()).map(BlockId).collect();
        let mut decoded = self.schema.clone();
        self.scan_into(&blocks, None, &mut decoded, None, &mut |_, run| {
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
        blocks: &[BlockId],
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

    /// Reads and decodes `blocks` in list order into `decoded`, a clone of
    /// the schema, one run at a time (see [`runs`]), handing it to `visit`
    /// with the run's first block id after each run until `visit` breaks.
    /// `decoded` then holds the run's rows, block after block. Only the
    /// `projection` columns' chunks are checked and decoded (all of them
    /// for `None`); the other columns stay zero-row placeholders keeping
    /// their position, name, type and dictionary.
    ///
    /// Each read ([`Self::next_read`]) is one positioned read of whole runs
    /// into a byte buffer; each run is then a CRC check of every referenced
    /// chunk ([`Self::check_run`]) and one decode per column into the
    /// column buffers of `decoded`. Both buffers are reused, so after the
    /// first read a scan allocates only when a longer read or run needs
    /// more room. With `steps`, the time of each step is added to it.
    fn scan_into(
        &self,
        blocks: &[BlockId],
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
        let mut rest = blocks;
        while !rest.is_empty() {
            lap(&mut clock, None);
            let (len, span) = self.next_read(rest, &columns)?;
            let (read, tail) = rest.split_at(len);
            rest = tail;
            let bytes_len = (span.end - span.start) as usize;
            if buffer.len() < bytes_len {
                buffer.resize(bytes_len, 0);
            }
            read_at(&self.file, &self.path, span.start, &mut buffer[..bytes_len])?;
            lap(
                &mut clock,
                Some(|steps| {
                    steps.reads += 1;
                    &mut steps.io
                }),
            );
            let bytes = &buffer[..bytes_len];
            let chunk = |block: BlockId, ci: usize| {
                let entry = self.entry(block, ci);
                let start = (entry.offset - span.start) as usize;
                (entry, &bytes[start..start + entry.len as usize])
            };
            for run in runs(read, block_size) {
                self.check_run(run, &columns, chunk)?;
                lap(&mut clock, Some(|steps| &mut steps.crc));
                let (first, last) = (run[0], run[run.len() - 1]);
                let rows = self.layout.rows_of(last).end - self.layout.rows_of(first).start;
                let table_columns = decoded.refill(rows);
                for &ci in &columns {
                    let name = self.schema.column_at(ci).name();
                    let out = table_columns[ci].data_mut();
                    clear(out);
                    for &block in run {
                        let (entry, chunk) = chunk(block, ci);
                        let rows = self.layout.rows_of(block).len();
                        decode_chunk(entry.encoding, chunk, rows, name, out, &self.path)?;
                    }
                }
                lap(&mut clock, Some(|steps| &mut steps.decode));
                if visit(first, decoded).is_break() {
                    return Ok(());
                }
                lap(&mut clock, None);
            }
        }
        Ok(())
    }

    /// The head of `blocks` that one positioned read of a scan fetches, as
    /// a number of blocks, and the byte range covering its `columns`
    /// chunks: whole runs (see [`runs`]), each continuing the one before
    /// it, while their range fits in [`READ_BYTES`], and always the first
    /// run. A run that fails [`Self::run_span`] ends the read before it,
    /// so it fails on its own read, after the runs before it are visited.
    ///
    /// # Errors
    ///
    /// [`Self::run_span`]'s, for the first run.
    fn next_read(&self, blocks: &[BlockId], columns: &[usize]) -> StoreResult<(usize, Range<u64>)> {
        let mut len = 0;
        let mut span: Option<Range<u64>> = None;
        for run in runs(blocks, self.layout.block_size()) {
            if len > 0 && run[0].index() != blocks[len - 1].index() + 1 {
                break;
            }
            let run_span = match self.run_span(run, columns) {
                Ok(run_span) => run_span,
                Err(_) if len > 0 => break,
                Err(e) => return Err(e),
            };
            let grown = match &span {
                Some(span) => span.start.min(run_span.start)..span.end.max(run_span.end),
                None => run_span,
            };
            if len > 0 && grown.end - grown.start > READ_BYTES {
                break;
            }
            span = Some(grown);
            len += run.len();
        }
        Ok((len, span.unwrap_or(0..0)))
    }

    /// Checks every `columns` chunk of `run` against its stored CRC-32,
    /// column by column, four blocks at a time ([`check_crcs`]). `chunk`
    /// gives a chunk's directory entry and bytes.
    ///
    /// # Errors
    ///
    /// [`StoreError::Corrupt`] naming the first mismatching chunk in block
    /// order, then column order, so the error does not depend on how the
    /// checks are batched.
    fn check_run<'b>(
        &self,
        run: &[BlockId],
        columns: &[usize],
        chunk: impl Fn(BlockId, usize) -> (ChunkEntry, &'b [u8]),
    ) -> StoreResult<()> {
        let mut first_bad: Option<(usize, usize, u32)> = None;
        for &ci in columns {
            let crcs = run.iter().map(|&block| {
                let (entry, bytes) = chunk(block, ci);
                (bytes, entry.crc)
            });
            if let Err((at, computed)) = check_crcs(crcs) {
                if first_bad.map_or(true, |(earliest, _, _)| at < earliest) {
                    first_bad = Some((at, ci, computed));
                }
            }
        }
        let Some((at, ci, computed)) = first_bad else {
            return Ok(());
        };
        let block = run[at];
        let name = self.schema.column_at(ci).name();
        Err(StoreError::corrupt(
            &self.path,
            format!(
                "chunk checksum mismatch for {block} column {ci} (`{name}`): stored {:#010x}, computed {computed:#010x}",
                self.entry(block, ci).crc
            ),
        ))
    }

    /// The byte range covering the `columns` chunks of `run` (empty when
    /// `columns` is). The data section is block-major, so the range holds
    /// the run's other chunks too; those bytes are read but never decoded
    /// or checked.
    ///
    /// # Errors
    ///
    /// [`StoreError::Corrupt`] for a block id past the end of the segment.
    fn run_span(&self, run: &[BlockId], columns: &[usize]) -> StoreResult<Range<u64>> {
        let num_blocks = self.layout.num_blocks();
        if let Some(&block) = run.iter().find(|block| block.index() >= num_blocks) {
            return Err(StoreError::corrupt(
                &self.path,
                format!("{block} out of range ({num_blocks} blocks)"),
            ));
        }
        let span = run
            .iter()
            .flat_map(|&block| columns.iter().map(move |&ci| self.entry(block, ci)))
            .map(|entry| entry.offset..entry.offset + u64::from(entry.len))
            .reduce(|a, b| a.start.min(b.start)..a.end.max(b.end));
        Ok(span.unwrap_or(0..0))
    }

    /// The directory entry of `block`'s chunk of column `ci`.
    fn entry(&self, block: BlockId, ci: usize) -> ChunkEntry {
        self.directory[block.index() * self.schema.num_columns() + ci]
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
        self.scan_into(&[block], projection, &mut decoded, None, &mut |_, _| {
            ControlFlow::Continue(())
        })?;
        Ok(BlockRef::owned(decoded))
    }

    fn scan_blocks(
        &self,
        blocks: &[BlockId],
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

/// Time spent in each step of a segment scan, summed over its reads and
/// runs ([`SegmentReader::scan_steps`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScanSteps {
    /// Positioned reads of the referenced byte ranges.
    pub io: Duration,
    /// CRC-32 checks of the referenced chunks.
    pub crc: Duration,
    /// Decoding the referenced chunks into column buffers.
    pub decode: Duration,
    /// Number of positioned reads.
    pub reads: usize,
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

    /// Splits `blocks` into runs the way a scan does, with each run's
    /// length and byte range.
    fn runs_of(
        reader: &SegmentReader,
        blocks: &[BlockId],
        columns: &[usize],
    ) -> Vec<(usize, Range<u64>)> {
        runs(blocks, reader.layout.block_size())
            .map(|run| (run.len(), reader.run_span(run, columns).unwrap()))
            .collect()
    }

    #[test]
    fn runs_are_consecutive_and_capped() {
        let n = 20_000usize;
        let column = |name: &str| Column::float(name, (0..n).map(|i| i as f64).collect());
        let table = Table::new(vec![column("a"), column("b"), column("c")]).unwrap();
        let scramble = Scramble::build_with(&table, 1, 25).unwrap();
        let path = std::env::temp_dir().join(format!(
            "fastframe_reader_runs_{}.ffseg",
            std::process::id()
        ));
        write_segment(&scramble, &path).unwrap();
        let reader = SegmentReader::open(&path).unwrap();
        let num_blocks = reader.layout.num_blocks();
        let every: Vec<BlockId> = (0..num_blocks).map(BlockId).collect();
        // 1 600 rows of 25-row blocks.
        const RUN_BLOCKS: usize = 64;
        assert_eq!(run_blocks(25), RUN_BLOCKS);

        // 800 blocks: twelve full runs of RUN_BLOCKS and a 32-block rest,
        // whose byte ranges tile the data section.
        let all = runs_of(&reader, &every, &[0, 1, 2]);
        let lens: Vec<usize> = all.iter().map(|(len, _)| *len).collect();
        assert_eq!(lens[..12], [RUN_BLOCKS; 12]);
        assert_eq!(lens[12..], [num_blocks - 12 * RUN_BLOCKS]);
        assert!(all.windows(2).all(|w| w[0].1.end == w[1].1.start));
        let run_bytes = (RUN_BLOCKS * 3 * 25 * 8) as u64;
        assert!(all[..12]
            .iter()
            .all(|(_, span)| span.end - span.start == run_bytes));

        // One column's span starts at its first chunk and ends at its last.
        let span = reader.run_span(&every[3..5], &[1]).unwrap();
        let first = reader.entry(BlockId(3), 1);
        let last = reader.entry(BlockId(4), 1);
        assert_eq!(span, first.offset..last.offset + u64::from(last.len));

        // A gap or a wrap ends a run, and so does the cap; an empty
        // projection reads nothing.
        let gapped = [BlockId(0), BlockId(1), BlockId(5), BlockId(6), BlockId(0)];
        let lens: Vec<usize> = runs_of(&reader, &gapped, &[0])
            .iter()
            .map(|r| r.0)
            .collect();
        assert_eq!(lens, [2, 2, 1]);
        let wrapped: Vec<BlockId> = (num_blocks - 3..num_blocks)
            .chain(0..RUN_BLOCKS + 2)
            .map(BlockId)
            .collect();
        let lens: Vec<usize> = runs_of(&reader, &wrapped, &[2])
            .iter()
            .map(|r| r.0)
            .collect();
        assert_eq!(lens, [3, RUN_BLOCKS, 2]);
        let empty = runs_of(&reader, &every, &[]);
        assert_eq!(empty.len(), num_blocks.div_ceil(RUN_BLOCKS));
        assert!(empty.iter().all(|(_, span)| *span == (0..0)));

        // A block past the end fails its run.
        let past = [BlockId(num_blocks - 1), BlockId(num_blocks)];
        assert!(matches!(
            reader.run_span(&past, &[0]),
            Err(StoreError::Corrupt { .. })
        ));
        std::fs::remove_file(&path).ok();
    }
    #[test]
    fn a_read_covers_consecutive_whole_runs_up_to_the_byte_cap() {
        let n = 20_000usize;
        let column = |name: &str| Column::float(name, (0..n).map(|i| i as f64).collect());
        let table = Table::new(vec![column("a"), column("b"), column("c")]).unwrap();
        let scramble = Scramble::build_with(&table, 1, 25).unwrap();
        let path = std::env::temp_dir().join(format!(
            "fastframe_reader_reads_{}.ffseg",
            std::process::id()
        ));
        write_segment(&scramble, &path).unwrap();
        let reader = SegmentReader::open(&path).unwrap();
        let num_blocks = reader.layout.num_blocks();
        let every: Vec<BlockId> = (0..num_blocks).map(BlockId).collect();
        let reads = |blocks: &[BlockId], columns: &[usize]| {
            let mut rest = blocks;
            let mut out = Vec::new();
            while !rest.is_empty() {
                let (len, span) = reader.next_read(rest, columns).unwrap();
                out.push((len, span));
                rest = &rest[len..];
            }
            out
        };

        // A run of all three columns is 64 · 25 · 3 · 8 = 38 400 bytes, so
        // six runs fit in READ_BYTES and a seventh does not; the 800 blocks
        // take two reads, six runs and then six plus the 32-block rest,
        // whose ranges tile the data section.
        let all = reads(&every, &[0, 1, 2]);
        let lens: Vec<usize> = all.iter().map(|(len, _)| *len).collect();
        assert_eq!(lens, [384, 416]);
        assert!(all
            .iter()
            .all(|(_, span)| span.end - span.start <= READ_BYTES));
        assert!(all.windows(2).all(|w| w[0].1.end == w[1].1.start));
        // One column's runs: its range spans the other columns too (the
        // section is block-major), so the same six runs fit.
        let one: Vec<usize> = reads(&every, &[1]).iter().map(|r| r.0).collect();
        assert_eq!(one, [384, 416]);
        // The scan makes exactly those reads.
        let steps = reader.scan_steps(&every, None).unwrap();
        assert_eq!(steps.reads, 2);

        // A gap or the wrap ends a read as it ends a run.
        let gapped: Vec<BlockId> = (0..100).chain(101..300).chain(0..10).map(BlockId).collect();
        let lens: Vec<usize> = reads(&gapped, &[0]).iter().map(|r| r.0).collect();
        assert_eq!(lens, [100, 199, 10]);

        // A block past the end ends the read before its run, so the runs
        // before it are read (and visited) first; read alone, it fails.
        let past: Vec<BlockId> = (num_blocks - 70..num_blocks + 1).map(BlockId).collect();
        let (len, _) = reader.next_read(&past, &[0]).unwrap();
        assert_eq!(len, run_blocks(25));
        assert!(matches!(
            reader.next_read(&past[len..], &[0]),
            Err(StoreError::Corrupt { .. })
        ));
        std::fs::remove_file(&path).ok();
    }
}

//! The lazy segment reader: validates and loads segment *metadata* eagerly,
//! decodes *blocks* on demand.
//!
//! Opening a segment reads only the footer and metadata section (schema,
//! dictionaries, catalog, zone maps, bitmap indexes, chunk directory) — a
//! few KB plus the dictionaries, independent of the data size. Row data
//! stays on disk until a scan decodes it, so working sets larger than memory
//! can be scanned block-by-block through the [`BlockSource`] interface.
//!
//! Every block read goes through one path, [`BlockSource::scan_blocks`]:
//! the block list is split into runs of consecutive block ids, and since
//! the data section is block-major, each run's referenced chunks lie in one
//! byte range, fetched with one positioned read into a buffer reused across
//! runs. Each block is then decoded into column buffers reused across the
//! scan. [`SegmentReader::read_block`], `read_block_projected` and
//! [`SegmentReader::materialize`] are runs of the same code.
//!
//! Integrity is checked at two levels: the footer carries a CRC-32 over the
//! metadata section (validated at open, so truncated or corrupt files fail
//! loudly before any query runs), and every referenced chunk's CRC-32 from
//! the directory is validated when the chunk is decoded (so data corruption
//! is caught on first touch, with the offending block and column in the
//! error). Bytes of unreferenced chunks inside a run's range are read but
//! not checked.

use std::collections::HashMap;
use std::fs::File;
use std::ops::{ControlFlow, Range};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use crate::bitmap::{BitSet, BlockBitmapIndex};
use crate::block::{BlockId, BlockLayout};
use crate::catalog::{Catalog, ColumnStats};
use crate::column::{Column, ColumnData, DataType};
use crate::scramble::Scramble;
use crate::source::{BlockRef, BlockSource, GroupUniverseCache};
use crate::table::{StoreError, StoreResult, Table};
use crate::zone::ZoneMap;

use super::format::{
    crc32, decode_chunk, Cursor, ENC_CODES_FOR, FOOTER_LEN, HEADER_LEN, MAGIC, NO_CARDINALITY,
    TYPE_CAT, TYPE_FLOAT, TYPE_INT, VERSION,
};

/// Upper bound on the bytes one positioned read fetches for a run of
/// consecutive blocks: it bounds each scan's read buffer. A run ends before
/// the block that would push its byte range past this; a single block is
/// always read whole.
const RUN_BYTES: u64 = 256 * 1024;

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
        self.scan_into(&blocks, None, &mut self.schema.clone(), &mut |_, block| {
            for (column, part) in columns.iter_mut().zip(block.columns()) {
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

    /// Reads and decodes `blocks` in list order into `decoded`, a clone of
    /// the schema, handing it to `visit` after each block until `visit`
    /// breaks. Only the `projection` columns' chunks are decoded and
    /// CRC-checked (all of them for `None`); the other columns stay zero-row
    /// placeholders keeping their position, name, type and dictionary.
    ///
    /// Blocks are fetched in runs (see [`Self::next_run`]), one positioned
    /// read per run, and each block is decoded into the column buffers of
    /// `decoded`, which are reused from block to block.
    fn scan_into(
        &self,
        blocks: &[BlockId],
        projection: Option<&[usize]>,
        decoded: &mut Table,
        visit: &mut dyn FnMut(BlockId, &Table) -> ControlFlow<()>,
    ) -> StoreResult<()> {
        let columns: Vec<usize> = (0..self.schema.num_columns())
            .filter(|ci| projection.map_or(true, |wanted| wanted.contains(ci)))
            .collect();
        let mut bytes = Vec::new();
        let mut rest = blocks;
        while !rest.is_empty() {
            let (len, span) = self.next_run(rest, &columns)?;
            let (run, tail) = rest.split_at(len);
            rest = tail;
            bytes.resize((span.end - span.start) as usize, 0);
            read_at(&self.file, &self.path, span.start, &mut bytes)?;
            for &block in run {
                let rows = self.layout.rows_of(block).len();
                let table_columns = decoded.refill(rows);
                for &ci in &columns {
                    let entry = self.entry(block, ci);
                    let start = (entry.offset - span.start) as usize;
                    let chunk = &bytes[start..start + entry.len as usize];
                    let name = self.schema.column_at(ci).name();
                    let actual = crc32(chunk);
                    if actual != entry.crc {
                        return Err(StoreError::corrupt(
                            &self.path,
                            format!(
                                "chunk checksum mismatch for {block} column {ci} (`{name}`): stored {:#010x}, computed {actual:#010x}",
                                entry.crc
                            ),
                        ));
                    }
                    let out = table_columns[ci].data_mut();
                    decode_chunk(entry.encoding, chunk, rows, name, out, &self.path)?;
                }
                if visit(block, decoded).is_break() {
                    return Ok(());
                }
            }
        }
        Ok(())
    }

    /// The run at the head of `blocks`: how many of its leading blocks have
    /// consecutive ids and fit, together, in [`RUN_BYTES`], and the byte
    /// range covering their `columns` chunks (empty when `columns` is).
    /// The data section is block-major, so the range holds the run's other
    /// chunks too; those bytes are read but never decoded or checked.
    ///
    /// # Errors
    ///
    /// [`StoreError::Corrupt`] for a block id past the end of the segment.
    fn next_run(&self, blocks: &[BlockId], columns: &[usize]) -> StoreResult<(usize, Range<u64>)> {
        let mut span: Option<Range<u64>> = None;
        let mut len = 0;
        for (i, &block) in blocks.iter().enumerate() {
            if i > 0 && block.index() != blocks[i - 1].index() + 1 {
                break;
            }
            if block.index() >= self.layout.num_blocks() {
                return Err(StoreError::corrupt(
                    &self.path,
                    format!("{block} out of range ({} blocks)", self.layout.num_blocks()),
                ));
            }
            let grown = columns
                .iter()
                .map(|&ci| {
                    let entry = self.entry(block, ci);
                    entry.offset..entry.offset + u64::from(entry.len)
                })
                .chain(span.clone())
                .reduce(|a, b| a.start.min(b.start)..a.end.max(b.end));
            if i > 0 && grown.as_ref().map_or(0, |r| r.end - r.start) > RUN_BYTES {
                break;
            }
            span = grown;
            len += 1;
        }
        Ok((len, span.unwrap_or(0..0)))
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
        self.scan_into(&[block], projection, &mut decoded, &mut |_, _| {
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
            &mut |block, table| visit(block, BlockRef::borrowed(table, 0..table.num_rows())),
        )
    }

    fn group_universe_cache(&self) -> Option<&GroupUniverseCache> {
        Some(&self.universes)
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

/// Appends one decoded block's values of a column to the whole column
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

    /// Splits `blocks` into runs the way a scan does.
    fn runs(
        reader: &SegmentReader,
        blocks: &[BlockId],
        columns: &[usize],
    ) -> Vec<(usize, Range<u64>)> {
        let mut out = Vec::new();
        let mut rest = blocks;
        while !rest.is_empty() {
            let run = reader.next_run(rest, columns).unwrap();
            rest = &rest[run.0..];
            out.push(run);
        }
        out
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

        // 800 blocks of 600 bytes: several capped runs tiling the data.
        let all = runs(&reader, &every, &[0, 1, 2]);
        assert!(all.len() > 1);
        assert!(all
            .iter()
            .all(|(_, span)| span.end - span.start <= RUN_BYTES));
        assert_eq!(all.iter().map(|(len, _)| len).sum::<usize>(), num_blocks);
        assert!(all.windows(2).all(|w| w[0].1.end == w[1].1.start));

        // One column's span starts at its first chunk and ends at its last.
        let (len, span) = reader.next_run(&every[3..5], &[1]).unwrap();
        assert_eq!(len, 2);
        let first = reader.entry(BlockId(3), 1);
        let last = reader.entry(BlockId(4), 1);
        assert_eq!(span, first.offset..last.offset + u64::from(last.len));

        // A gap or a wrap ends a run; an empty projection reads nothing.
        let gapped = [BlockId(0), BlockId(1), BlockId(5), BlockId(6), BlockId(0)];
        let lens: Vec<usize> = runs(&reader, &gapped, &[0]).iter().map(|r| r.0).collect();
        assert_eq!(lens, [2, 2, 1]);
        assert_eq!(runs(&reader, &every, &[]), [(num_blocks, 0..0)]);
        std::fs::remove_file(&path).ok();
    }
}

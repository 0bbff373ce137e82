//! The lazy segment reader: validates and loads segment *metadata* eagerly,
//! decodes *blocks* on demand.
//!
//! Opening a segment reads only the footer and metadata section (schema,
//! dictionaries, catalog, zone maps, bitmap indexes, chunk directory) — a
//! few KB plus the dictionaries, independent of the data size. Row data
//! stays on disk until [`SegmentReader::read_block`] decodes a block, so
//! working sets larger than memory can be scanned block-by-block through the
//! [`BlockSource`] interface.
//!
//! Integrity is checked at two levels: the footer carries a CRC-32 over the
//! metadata section (validated at open, so truncated or corrupt files fail
//! loudly before any query runs), and every chunk's CRC-32 from the
//! directory is validated when the chunk is decoded (so data corruption is
//! caught on first touch, with the offending block in the error).

use std::collections::HashMap;
use std::fs::File;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use crate::bitmap::{BitSet, BlockBitmapIndex};
use crate::block::{BlockId, BlockLayout};
use crate::catalog::{Catalog, ColumnStats};
use crate::column::{Column, DataType};
use crate::scramble::Scramble;
use crate::source::{BlockRef, BlockSource, GroupUniverseCache};
use crate::table::{StoreError, StoreResult, Table};
use crate::zone::ZoneMap;

use super::format::{
    crc32, decode_chunk, Cursor, ENC_CODES_FOR, FOOTER_LEN, HEADER_LEN, MAGIC, NO_CARDINALITY,
    TYPE_CAT, TYPE_FLOAT, TYPE_INT, VERSION,
};

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
    /// Per-column dictionaries (None for numeric columns), for chunk decode.
    dictionaries: Vec<Option<Arc<Vec<String>>>>,
    /// Memoized group universes, shared across clones (the underlying file
    /// is the same).
    universes: GroupUniverseCache,
}

impl SegmentReader {
    /// Opens a segment file, validating the footer magic/version and the
    /// metadata checksum. Row data is *not* read or validated here; each
    /// chunk's CRC is checked when [`Self::read_block`] first decodes it.
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
        let header = read_at(&file, &path, 0, HEADER_LEN as usize)?;
        if header[..8] != MAGIC {
            return Err(StoreError::corrupt(&path, "bad header magic"));
        }

        // Footer.
        let footer = read_at(&file, &path, file_len - FOOTER_LEN, FOOTER_LEN as usize)?;
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
        let meta = read_at(&file, &path, meta_offset, meta_len as usize)?;
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
        let mut dictionaries = Vec::with_capacity(num_columns);
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
            dictionaries.push(column.dictionary().map(Arc::clone));
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
            dictionaries,
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
        let num_columns = self.schema.num_columns();
        let mut per_column: Vec<Vec<Column>> = (0..num_columns).map(|_| Vec::new()).collect();
        for block in 0..self.layout.num_blocks() {
            let decoded = self.decode_block_cols(BlockId(block), None)?;
            for (ci, col) in decoded.into_iter().enumerate() {
                per_column[ci].push(col);
            }
        }
        let columns = per_column
            .into_iter()
            .enumerate()
            .map(|(ci, parts)| concat_columns(self.schema.column_at(ci), parts))
            .collect();
        Ok(Scramble::from_parts(
            Table::new(columns)?,
            self.layout,
            self.catalog.clone(),
            self.indexes.clone(),
            self.zones.clone(),
            self.seed,
        ))
    }

    /// Decodes the columns of one block. With a projection, only the listed
    /// columns' chunks are read (and CRC-checked); the rest are zero-row
    /// placeholders cloned from the schema, keeping their position, name,
    /// type and dictionary.
    fn decode_block_cols(
        &self,
        block: BlockId,
        projection: Option<&[usize]>,
    ) -> StoreResult<Vec<Column>> {
        if block.index() >= self.layout.num_blocks() {
            return Err(StoreError::corrupt(
                &self.path,
                format!("{block} out of range ({} blocks)", self.layout.num_blocks()),
            ));
        }
        let num_columns = self.schema.num_columns();
        let rows = self.layout.rows_of(block);
        let row_count = rows.end - rows.start;
        let mut columns = Vec::with_capacity(num_columns);
        for ci in 0..num_columns {
            if let Some(wanted) = projection {
                if !wanted.contains(&ci) {
                    columns.push(self.schema.column_at(ci).clone());
                    continue;
                }
            }
            let entry = self.directory[block.index() * num_columns + ci];
            let bytes = read_at(&self.file, &self.path, entry.offset, entry.len as usize)?;
            let actual = crc32(&bytes);
            if actual != entry.crc {
                return Err(StoreError::corrupt(
                    &self.path,
                    format!(
                        "chunk checksum mismatch for {block} column {ci}: stored {:#010x}, computed {actual:#010x}",
                        entry.crc
                    ),
                ));
            }
            columns.push(decode_chunk(
                entry.encoding,
                &bytes,
                row_count,
                self.schema.column_at(ci).name(),
                self.dictionaries[ci].as_ref(),
                &self.path,
            )?);
        }
        Ok(columns)
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
        Ok(BlockRef::owned(Table::new(
            self.decode_block_cols(block, None)?,
        )?))
    }

    fn read_block_projected(
        &self,
        block: BlockId,
        projection: Option<&[usize]>,
    ) -> StoreResult<BlockRef<'_>> {
        let Some(wanted) = projection else {
            return self.read_block(block);
        };
        let rows = self.layout.rows_of(block);
        let columns = self.decode_block_cols(block, Some(wanted))?;
        // Placeholder columns are zero-row, so the row count is declared
        // rather than derived.
        Ok(BlockRef::owned(Table::with_placeholders(
            columns,
            rows.end - rows.start,
        )?))
    }

    fn group_universe_cache(&self) -> Option<&GroupUniverseCache> {
        Some(&self.universes)
    }
}

/// Positioned read of exactly `len` bytes at `offset`.
#[cfg(unix)]
fn read_at(file: &File, path: &Path, offset: u64, len: usize) -> StoreResult<Vec<u8>> {
    use std::os::unix::fs::FileExt;
    let mut buf = vec![0u8; len];
    file.read_exact_at(&mut buf, offset)
        .map_err(|e| StoreError::io(path, e))?;
    Ok(buf)
}

/// Portable fallback: re-open the file and seek (positioned shared reads are
/// not in the portable std API).
#[cfg(not(unix))]
fn read_at(file: &File, path: &Path, offset: u64, len: usize) -> StoreResult<Vec<u8>> {
    use std::io::{Read, Seek, SeekFrom};
    let _ = file;
    let mut f = File::open(path).map_err(|e| StoreError::io(path, e))?;
    f.seek(SeekFrom::Start(offset))
        .map_err(|e| StoreError::io(path, e))?;
    let mut buf = vec![0u8; len];
    f.read_exact(&mut buf)
        .map_err(|e| StoreError::io(path, e))?;
    Ok(buf)
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

/// Concatenates per-block decoded pieces of one column back into a full
/// column (used by [`SegmentReader::materialize`]).
fn concat_columns(schema_column: &Column, parts: Vec<Column>) -> Column {
    use crate::column::ColumnData;
    match schema_column.data() {
        ColumnData::Float64(_) => {
            let mut values = Vec::new();
            for p in parts {
                if let ColumnData::Float64(v) = p.data() {
                    values.extend_from_slice(v);
                }
            }
            Column::float(schema_column.name(), values)
        }
        ColumnData::Int64(_) => {
            let mut values = Vec::new();
            for p in parts {
                if let ColumnData::Int64(v) = p.data() {
                    values.extend_from_slice(v);
                }
            }
            Column::int(schema_column.name(), values)
        }
        ColumnData::Categorical { dictionary, .. } => {
            let mut codes = Vec::new();
            for p in parts {
                if let ColumnData::Categorical { codes: c, .. } = p.data() {
                    codes.extend_from_slice(c);
                }
            }
            Column::categorical_from_codes(schema_column.name(), Arc::clone(dictionary), codes)
        }
    }
}

//! Serializing a [`Scramble`] into an on-disk segment file.
//!
//! The write path streams the data section first, row group by row group
//! and, inside a row group, column by column and page by page (tracking the
//! page directory and the piece CRCs as it goes), then emits the metadata
//! section and the checksummed footer. Output bytes are a pure function of
//! the scramble: columns, zone maps and bitmap indexes are all written in
//! table column order, never in hash-map iteration order.

use std::io::Write;
use std::path::Path;

use crate::block::BlockId;
use crate::column::DataType;
use crate::scramble::Scramble;
use crate::table::{StoreError, StoreResult};

use super::format::{
    crc32, encode_piece, frame_of, put_f64, put_string, put_u32, put_u64, Frame, FOOTER_LEN,
    GROUP_BLOCKS, HEADER_LEN, MAGIC, NO_CARDINALITY, NO_NON_FINITE, PAGE_BLOCKS, TYPE_CAT,
    TYPE_FLOAT, TYPE_INT, VERSION,
};

/// Writes `scramble` as a segment file at `path`, replacing any existing
/// file.
///
/// The format is specified byte-for-byte in `docs/FORMAT.md`. Reading the
/// file back with [`super::SegmentReader`] reproduces the scramble exactly:
/// values bitwise, dictionaries, block layout, catalog bounds and its first
/// non-finite value, zone maps and bitmap indexes.
///
/// # Errors
///
/// [`StoreError::Io`] on any filesystem failure.
pub fn write_segment(scramble: &Scramble, path: impl AsRef<Path>) -> StoreResult<()> {
    let path = path.as_ref();
    let file = std::fs::File::create(path).map_err(|e| StoreError::io(path, e))?;
    let mut w = std::io::BufWriter::new(file);
    let io_err = |e: std::io::Error| StoreError::io(path, e);

    let table = scramble.table();
    let layout = scramble.layout();
    let num_blocks = layout.num_blocks();
    let num_pages = num_blocks.div_ceil(PAGE_BLOCKS);
    let num_columns = table.num_columns();

    // Header.
    w.write_all(&MAGIC).map_err(io_err)?;
    w.write_all(&VERSION.to_le_bytes()).map_err(io_err)?;
    w.write_all(&0u32.to_le_bytes()).map_err(io_err)?;
    let mut offset = HEADER_LEN;

    // Data section: row groups of column chunks, each cut into pages of
    // byte-aligned pieces, one piece per block. Pages and CRCs are indexed
    // column-major, as the metadata lists them.
    let mut pages = vec![(0u64, Frame::default()); num_columns * num_pages];
    let mut crcs = vec![0u32; num_columns * num_blocks];
    let mut piece = Vec::new();
    for group in (0..num_blocks).step_by(GROUP_BLOCKS) {
        let group_end = (group + GROUP_BLOCKS).min(num_blocks);
        for (ci, column) in table.columns().iter().enumerate() {
            for page in (group..group_end).step_by(PAGE_BLOCKS) {
                let page_end = (page + PAGE_BLOCKS).min(group_end);
                let rows =
                    layout.rows_of(BlockId(page)).start..layout.rows_of(BlockId(page_end - 1)).end;
                let frame = frame_of(column, rows);
                pages[ci * num_pages + page / PAGE_BLOCKS] = (offset, frame);
                for block in page..page_end {
                    piece.clear();
                    encode_piece(column, layout.rows_of(BlockId(block)), frame, &mut piece);
                    w.write_all(&piece).map_err(io_err)?;
                    crcs[ci * num_blocks + block] = crc32(&piece);
                    offset += piece.len() as u64;
                }
            }
        }
    }

    // Metadata section, assembled in memory so its CRC covers exact bytes.
    let mut meta = Vec::new();
    put_u64(&mut meta, scramble.num_rows() as u64);
    put_u32(&mut meta, layout.block_size() as u32);
    put_u64(&mut meta, scramble.seed());
    put_u32(&mut meta, num_columns as u32);

    for column in table.columns() {
        put_string(&mut meta, column.name());
        meta.push(match column.data_type() {
            DataType::Float64 => TYPE_FLOAT,
            DataType::Int64 => TYPE_INT,
            DataType::Categorical => TYPE_CAT,
        });
        let stats = scramble.catalog().column(column.name())?;
        let has_range = stats.min.is_some() && stats.max.is_some();
        meta.push(has_range as u8);
        put_f64(&mut meta, stats.min.unwrap_or(0.0));
        put_f64(&mut meta, stats.max.unwrap_or(0.0));
        put_u64(
            &mut meta,
            stats.cardinality.map_or(NO_CARDINALITY, |c| c as u64),
        );
        if let Some(dictionary) = column.dictionary() {
            put_u32(&mut meta, dictionary.len() as u32);
            for entry in dictionary.iter() {
                put_string(&mut meta, entry);
            }
        }
    }

    // Zone maps, in column order.
    let zone_columns: Vec<usize> = (0..num_columns)
        .filter(|&ci| scramble.zone_map(table.column_at(ci).name()).is_some())
        .collect();
    put_u32(&mut meta, zone_columns.len() as u32);
    for ci in zone_columns {
        let zone = scramble
            .zone_map(table.column_at(ci).name())
            .expect("filtered to zone-mapped columns");
        put_u32(&mut meta, ci as u32);
        for (min, max) in zone.mins().iter().zip(zone.maxs()) {
            put_f64(&mut meta, *min);
            put_f64(&mut meta, *max);
        }
    }

    // Bitmap index summaries, in column order.
    let indexed_columns: Vec<usize> = (0..num_columns)
        .filter(|&ci| scramble.bitmap_index(table.column_at(ci).name()).is_some())
        .collect();
    put_u32(&mut meta, indexed_columns.len() as u32);
    for ci in indexed_columns {
        let index = scramble
            .bitmap_index(table.column_at(ci).name())
            .expect("filtered to indexed columns");
        put_u32(&mut meta, ci as u32);
        put_u32(&mut meta, index.num_values() as u32);
        for bitmap in index.value_bitmaps() {
            for word in bitmap.words() {
                put_u64(&mut meta, *word);
            }
        }
    }

    // The catalog's first non-finite value, as (column index, row).
    let non_finite = scramble.catalog().first_non_finite();
    let non_finite_column = non_finite
        .map(|(name, _)| table.column_index(name))
        .transpose()?;
    put_u32(
        &mut meta,
        non_finite_column.map_or(NO_NON_FINITE, |ci| ci as u32),
    );
    put_u64(&mut meta, non_finite.map_or(0, |(_, row)| row as u64));

    // Page directory, then piece CRCs, both column-major.
    for &(page_offset, frame) in &pages {
        put_u64(&mut meta, page_offset);
        put_u64(&mut meta, frame.min);
        meta.push(frame.width);
    }
    for &crc in &crcs {
        put_u32(&mut meta, crc);
    }

    let meta_crc = crc32(&meta);
    w.write_all(&meta).map_err(io_err)?;

    // Footer.
    let mut footer = Vec::with_capacity(FOOTER_LEN as usize);
    put_u64(&mut footer, offset);
    put_u64(&mut footer, meta.len() as u64);
    put_u32(&mut footer, meta_crc);
    put_u32(&mut footer, VERSION);
    footer.extend_from_slice(&MAGIC);
    debug_assert_eq!(footer.len() as u64, FOOTER_LEN);
    w.write_all(&footer).map_err(io_err)?;
    w.flush().map_err(io_err)?;
    Ok(())
}

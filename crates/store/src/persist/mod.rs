//! Persistent columnar scramble storage.
//!
//! The paper's economic argument for scrambles is that the random
//! permutation is "paid once and amortized over many queries" (§4.1) — but
//! an in-memory-only scramble re-pays that cost on every process start and
//! caps datasets at RAM. This module amortizes the shuffle *across runs*: a
//! built [`Scramble`](crate::scramble::Scramble) is serialized once with
//! [`write_segment`] into a versioned, checksummed, column-major file, and
//! [`SegmentReader`] serves it back through the
//! [`BlockSource`](crate::source::BlockSource) scan abstraction, decoding
//! blocks on demand so working sets larger than memory scan a run of
//! blocks at a time.
//!
//! ## File anatomy
//!
//! ```text
//! +--------+------------------------------+------------------+--------+
//! | header | data section                 | metadata section | footer |
//! | 16 B   | row groups of 1 024 blocks:  | schema, catalog, | 32 B   |
//! |        | one chunk per column, cut    | dictionaries,    |        |
//! |        | into pages of 64 blocks, one | zone maps, bitmap|        |
//! |        | byte-aligned piece per block | indexes, page    |        |
//! |        |                              | directory, CRCs  |        |
//! +--------+------------------------------+------------------+--------+
//! ```
//!
//! * **Column-major row groups** (the Parquet/DuckDB layout): inside a row
//!   group a column's values are contiguous, so a projected scan reads
//!   only the referenced columns' bytes.
//! * **Encodings**: raw little-endian `f64` for floats (bitwise-exact round
//!   trips, NaN included); for integers and dictionary codes, one
//!   frame of reference per page (a `min` and a bit `width`, kept in the
//!   page directory) and each block's deltas bit-packed in a byte-aligned
//!   piece; dictionaries stored once in the metadata.
//! * **Zone maps & bitmap summaries**: the per-block numeric `[min, max]`
//!   maps and the categorical block bitmap indexes are persisted, so a
//!   reopened segment makes byte-identical skip decisions (and reports
//!   identical `ScanStats`) without re-deriving anything. So is the
//!   catalog's first non-finite value, so a session can refuse such a
//!   table at open without reading its data.
//! * **Fail-loud integrity**: the footer carries magic, version and a
//!   CRC-32 over the metadata, page frames included (validated at open);
//!   every (block, column) piece has its own CRC-32 (validated on decode).
//!   Truncated, overwritten or bit-rotted files surface as
//!   [`StoreError::Corrupt`](crate::table::StoreError) instead of silently
//!   wrong answers, and so does a file of another format version.
//!
//! ## Runs, windows and pages
//!
//! [`SegmentReader`] hands
//! [`BlockSource::scan_blocks`](crate::source::BlockSource::scan_blocks)
//! **runs** of consecutive blocks holding up to
//! [`RUN_ROWS`](crate::source::RUN_ROWS) rows. A window of up to 256 KiB
//! of whole consecutive runs is one positioned read per referenced column
//! (and row group); per run, the referenced pieces' CRC-32s are checked
//! four pieces at a time and each referenced column is decoded with one
//! call per page, so the fixed cost of a checksum batch is paid per run, a
//! decode call per page and a read per window and column. Blocks stay the
//! unit of every checksum, and of planning, skipping and the "blocks
//! fetched" count; a corrupt piece fails its whole run before any of the
//! run's blocks is visited.
//!
//! The byte-level layout is specified in `docs/FORMAT.md` at the repository
//! root.

pub mod format;
mod reader;
mod writer;

pub use reader::{ScanSteps, SegmentReader};
pub use writer::write_segment;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::BlockId;
    use crate::column::Column;
    use crate::scramble::Scramble;
    use crate::source::BlockSource;
    use crate::table::{StoreError, Table};

    fn scramble() -> Scramble {
        let n = 200usize;
        let t = Table::new(vec![
            Column::float("delay", (0..n).map(|i| (i as f64) - 50.0).collect()),
            Column::int(
                "dep_time",
                (0..n).map(|i| 600 + (i as i64 % 1200)).collect(),
            ),
            Column::categorical(
                "airline",
                &(0..n).map(|i| format!("A{}", i % 7)).collect::<Vec<_>>(),
            ),
        ])
        .unwrap();
        Scramble::build_with(&t, 42, 25).unwrap()
    }

    fn temp_path(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!(
            "fastframe_persist_{name}_{}.ffseg",
            std::process::id()
        ))
    }

    /// Projected reads decode exactly the requested columns and leave the
    /// rest as positioned zero-row placeholders with intact schema metadata.
    #[test]
    fn projected_block_read_decodes_only_requested_columns() {
        let s = scramble();
        let path = temp_path("projected");
        write_segment(&s, &path).unwrap();
        let r = SegmentReader::open(&path).unwrap();

        for block in [0usize, s.num_blocks() - 1] {
            let full = r.read_block(BlockId(block)).unwrap();
            let projected = r
                .read_block_projected(BlockId(block), Some(&[0, 2]))
                .unwrap();
            assert_eq!(projected.rows(), full.rows());
            assert_eq!(projected.len(), full.len());
            let pt = projected.table();
            let ft = full.table();
            // Projected columns carry identical data...
            for row in projected.rows() {
                assert_eq!(
                    pt.column_at(0).numeric_value(row),
                    ft.column_at(0).numeric_value(row)
                );
                assert_eq!(
                    pt.column_at(2).category_code(row),
                    ft.column_at(2).category_code(row)
                );
            }
            // ...while the out-of-projection column keeps its position,
            // name and type but holds no rows.
            assert_eq!(pt.column_at(1).name(), "dep_time");
            assert!(pt.column_at(1).is_empty());
        }
        // `None` means every column, matching read_block exactly.
        let all = r.read_block_projected(BlockId(0), None).unwrap();
        assert_eq!(all.table().column_at(1).len(), all.len());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn segment_round_trips_layout_catalog_and_blocks() {
        let s = scramble();
        let path = temp_path("roundtrip");
        write_segment(&s, &path).unwrap();
        let r = SegmentReader::open(&path).unwrap();

        assert_eq!(r.num_rows(), s.num_rows());
        assert_eq!(r.num_blocks(), s.num_blocks());
        assert_eq!(r.layout(), s.layout());
        assert_eq!(r.seed(), s.seed());
        assert_eq!(
            r.catalog().range_bounds("delay").unwrap(),
            s.catalog().range_bounds("delay").unwrap()
        );
        assert_eq!(r.catalog().column("airline").unwrap().cardinality, Some(7));
        // Schema: same columns, same order, full dictionaries, zero rows.
        assert_eq!(r.schema().num_rows(), 0);
        assert_eq!(r.schema().num_columns(), 3);
        assert_eq!(r.schema().column("airline").unwrap().cardinality(), Some(7));

        // Indexes and zone maps are persisted verbatim.
        assert_eq!(
            BlockSource::bitmap_index(&r, "airline"),
            BlockSource::bitmap_index(&s, "airline")
        );
        assert_eq!(
            BlockSource::zone_map(&r, "delay"),
            BlockSource::zone_map(&s, "delay")
        );
        assert_eq!(
            BlockSource::zone_map(&r, "dep_time"),
            BlockSource::zone_map(&s, "dep_time")
        );

        // Every block decodes to bitwise-identical values.
        for b in 0..s.num_blocks() {
            let mem = s.read_block(BlockId(b)).unwrap();
            let disk = r.read_block(BlockId(b)).unwrap();
            assert_eq!(mem.len(), disk.len());
            for (mem_row, disk_row) in mem.rows().zip(disk.rows()) {
                assert_eq!(
                    mem.table()
                        .column("delay")
                        .unwrap()
                        .numeric_value(mem_row)
                        .unwrap()
                        .to_bits(),
                    disk.table()
                        .column("delay")
                        .unwrap()
                        .numeric_value(disk_row)
                        .unwrap()
                        .to_bits()
                );
                assert_eq!(
                    mem.table().value("dep_time", mem_row).unwrap(),
                    disk.table().value("dep_time", disk_row).unwrap()
                );
                assert_eq!(
                    mem.table().value("airline", mem_row).unwrap(),
                    disk.table().value("airline", disk_row).unwrap()
                );
            }
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn materialize_rebuilds_the_scramble() {
        let s = scramble();
        let path = temp_path("materialize");
        write_segment(&s, &path).unwrap();
        let r = SegmentReader::open(&path).unwrap();
        let rebuilt = r.materialize().unwrap();
        assert_eq!(rebuilt.num_rows(), s.num_rows());
        assert_eq!(rebuilt.seed(), s.seed());
        for row in 0..s.num_rows() {
            assert_eq!(
                s.table().value("airline", row).unwrap(),
                rebuilt.table().value("airline", row).unwrap()
            );
            assert_eq!(
                s.table()
                    .column("delay")
                    .unwrap()
                    .numeric_value(row)
                    .unwrap()
                    .to_bits(),
                rebuilt
                    .table()
                    .column("delay")
                    .unwrap()
                    .numeric_value(row)
                    .unwrap()
                    .to_bits()
            );
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn empty_scramble_round_trips() {
        let t = Table::new(vec![Column::float("x", vec![])]).unwrap();
        let s = Scramble::build(&t, 1).unwrap();
        let path = temp_path("empty");
        write_segment(&s, &path).unwrap();
        let r = SegmentReader::open(&path).unwrap();
        assert_eq!(r.num_rows(), 0);
        assert_eq!(r.num_blocks(), 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn truncated_file_fails_to_open() {
        let s = scramble();
        let path = temp_path("truncated");
        write_segment(&s, &path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        // Chop off the footer (and a bit more).
        std::fs::write(&path, &bytes[..bytes.len() - 40]).unwrap();
        assert!(matches!(
            SegmentReader::open(&path),
            Err(StoreError::Corrupt { .. })
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupted_metadata_fails_the_checksum() {
        let s = scramble();
        let path = temp_path("meta_corrupt");
        write_segment(&s, &path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        // Flip a byte in the metadata section (just before the footer).
        let idx = bytes.len() - 40;
        bytes[idx] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        match SegmentReader::open(&path) {
            Err(StoreError::Corrupt { detail, .. }) => {
                assert!(detail.contains("checksum"), "detail: {detail}")
            }
            other => panic!("expected checksum corruption, got {other:?}"),
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupted_data_chunk_fails_on_read() {
        let s = scramble();
        let path = temp_path("data_corrupt");
        write_segment(&s, &path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        // Flip a byte early in the data section (inside block 0's chunks).
        bytes[20] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        // Metadata is intact, so open succeeds...
        let r = SegmentReader::open(&path).unwrap();
        // ...but decoding the damaged block reports the chunk checksum.
        match r.read_block(BlockId(0)) {
            Err(StoreError::Corrupt { detail, .. }) => {
                assert!(detail.contains("checksum"), "detail: {detail}")
            }
            other => panic!("expected chunk corruption, got {other:?}"),
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn wrong_magic_and_missing_file_fail() {
        let path = temp_path("not_a_segment");
        std::fs::write(&path, vec![0u8; 256]).unwrap();
        match SegmentReader::open(&path) {
            Err(StoreError::Corrupt { detail, .. }) => {
                assert!(detail.contains("magic"), "detail: {detail}")
            }
            other => panic!("expected bad magic, got {other:?}"),
        }
        std::fs::remove_file(&path).ok();
        assert!(matches!(
            SegmentReader::open(&path),
            Err(StoreError::Io { .. })
        ));
    }

    /// `docs/FORMAT.md` documents this format: its title names the magic
    /// and the version the code writes, so a format bump cannot leave the
    /// document behind unnoticed.
    #[test]
    fn the_format_document_names_the_magic_and_version_it_specifies() {
        let doc = include_str!("../../../../docs/FORMAT.md");
        let title = doc.lines().next().unwrap_or_default();
        let magic = std::str::from_utf8(&format::MAGIC).unwrap();
        assert_eq!(
            title,
            format!(
                "# FastFrame segment format (`{magic}`, version {})",
                format::VERSION
            )
        );
    }

    #[test]
    fn out_of_range_block_read_is_an_error() {
        let s = scramble();
        let path = temp_path("oob");
        write_segment(&s, &path).unwrap();
        let r = SegmentReader::open(&path).unwrap();
        assert!(r.read_block(BlockId(r.num_blocks())).is_err());
        std::fs::remove_file(&path).ok();
    }
}

//! Persistence integration tests:
//!
//! * **proptest round trip** — random tables (mixed column types, special
//!   float values, random block sizes) survive `Scramble -> segment file ->
//!   SegmentReader` with bitwise-equal values, equal dictionaries, equal
//!   block layout, equal catalog bounds, and equal zone maps / bitmap
//!   indexes;
//! * **corruption** — truncated footers, flipped metadata bytes and flipped
//!   data bytes all fail loudly (`StoreError::Corrupt`), never silently;
//! * **acceptance** — a query executed against a `SegmentReader`-backed
//!   session table returns bit-identical estimates and CI bounds and
//!   identical `ScanStats` (fetched *and* skipped) to the same query on the
//!   in-memory scramble it was saved from, at `threads = 1` and
//!   `threads = 4`, across sampling strategies and predicate shapes.

use std::ops::{ControlFlow, Range};

use proptest::prelude::*;

use fastframe_core::bounder::BounderKind;
use fastframe_engine::config::{EngineConfig, SamplingStrategy};
use fastframe_engine::error::EngineError;
use fastframe_engine::session::{Session, TableOptions};
use fastframe_engine::QueryResult;
use fastframe_store::block::BlockId;
use fastframe_store::column::Column;
use fastframe_store::persist::{write_segment, SegmentReader};
use fastframe_store::predicate::Predicate;
use fastframe_store::scramble::Scramble;
use fastframe_store::source::BlockSource;
use fastframe_store::table::{StoreError, Table};
use fastframe_store::Expr;
use fastframe_tests::piece_range;

fn temp_path(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!(
        "fastframe_persistence_it_{tag}_{}.ffseg",
        std::process::id()
    ))
}

/// Builds a table from raw per-row draws: a float column (with NaN / -0.0 /
/// huge values spliced in), an int column spanning signed extremes, and a
/// categorical column of bounded cardinality.
fn build_table(floats: &[f64], cardinality: usize) -> Table {
    let n = floats.len();
    let values: Vec<f64> = floats
        .iter()
        .enumerate()
        .map(|(i, &v)| match i % 97 {
            13 => f64::NAN,
            29 => -0.0,
            47 => 1e300,
            61 => -1e300,
            _ => v,
        })
        .collect();
    let ints: Vec<i64> = (0..n)
        .map(|i| match i % 89 {
            7 => i64::MIN,
            11 => i64::MAX,
            _ => (i as i64).wrapping_mul(2_654_435_761) % 100_000,
        })
        .collect();
    let cats: Vec<String> = (0..n)
        .map(|i| format!("c{}", i % cardinality.max(1)))
        .collect();
    Table::new(vec![
        Column::float("x", values),
        Column::int("t", ints),
        Column::categorical("g", &cats),
    ])
    .unwrap()
}

fn assert_round_trip(scramble: &Scramble, reader: &SegmentReader) {
    assert_eq!(reader.num_rows(), scramble.num_rows());
    assert_eq!(reader.layout(), scramble.layout());
    assert_eq!(reader.seed(), scramble.seed());

    // Catalog bounds, bitwise.
    for col in ["x", "t"] {
        let (a, b) = scramble.catalog().range_bounds(col).unwrap();
        let (ra, rb) = reader.catalog().range_bounds(col).unwrap();
        assert_eq!(a.to_bits(), ra.to_bits(), "{col} min");
        assert_eq!(b.to_bits(), rb.to_bits(), "{col} max");
    }
    assert_eq!(
        reader.catalog().column("g").unwrap().cardinality,
        scramble.catalog().column("g").unwrap().cardinality
    );

    // Dictionaries.
    assert_eq!(
        reader.schema().column("g").unwrap().dictionary(),
        scramble.table().column("g").unwrap().dictionary()
    );

    // Zone maps and bitmap indexes, verbatim.
    assert_eq!(
        BlockSource::zone_map(reader, "x"),
        BlockSource::zone_map(scramble, "x")
    );
    assert_eq!(
        BlockSource::zone_map(reader, "t"),
        BlockSource::zone_map(scramble, "t")
    );
    assert_eq!(
        BlockSource::bitmap_index(reader, "g"),
        BlockSource::bitmap_index(scramble, "g")
    );

    // Every block's values, bitwise.
    for b in 0..scramble.num_blocks() {
        let mem = scramble.read_block(BlockId(b)).unwrap();
        let disk = reader.read_block(BlockId(b)).unwrap();
        assert_eq!(mem.len(), disk.len());
        for (mr, dr) in mem.rows().zip(disk.rows()) {
            let mx = mem.table().column("x").unwrap().numeric_value(mr).unwrap();
            let dx = disk.table().column("x").unwrap().numeric_value(dr).unwrap();
            assert_eq!(mx.to_bits(), dx.to_bits(), "block {b} float");
            assert_eq!(
                mem.table().value("t", mr).unwrap(),
                disk.table().value("t", dr).unwrap(),
                "block {b} int"
            );
            assert_eq!(
                mem.table().value("g", mr).unwrap(),
                disk.table().value("g", dr).unwrap(),
                "block {b} categorical"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// `Table -> Scramble -> segment -> SegmentReader` preserves everything,
    /// for random shapes: values, dictionaries, block layout, catalog
    /// bounds, zone maps and bitmap summaries.
    #[test]
    fn segment_round_trip(
        floats in proptest::collection::vec(-1e6f64..1e6, 1..600),
        cardinality in 1usize..40,
        block_size in 1usize..64,
        seed in 0u64..1_000,
    ) {
        let table = build_table(&floats, cardinality);
        let scramble = Scramble::build_with(&table, seed, block_size).unwrap();
        let path = temp_path("proptest");
        write_segment(&scramble, &path).unwrap();
        let reader = SegmentReader::open(&path).unwrap();
        assert_round_trip(&scramble, &reader);

        // Materializing the segment rebuilds the full permuted table.
        let rebuilt = reader.materialize().unwrap();
        prop_assert_eq!(rebuilt.num_rows(), scramble.num_rows());
        for row in 0..scramble.num_rows() {
            prop_assert_eq!(
                scramble.table().column("x").unwrap().numeric_value(row).unwrap().to_bits(),
                rebuilt.table().column("x").unwrap().numeric_value(row).unwrap().to_bits()
            );
        }
        std::fs::remove_file(&path).ok();
    }
}

#[test]
fn truncated_and_corrupted_files_fail_loudly() {
    let table = build_table(&vec![1.0; 300], 5);
    let scramble = Scramble::build_with(&table, 3, 25).unwrap();
    let path = temp_path("corrupt");
    write_segment(&scramble, &path).unwrap();
    let pristine = std::fs::read(&path).unwrap();

    // Truncations at many byte lengths: never a silent success, never a
    // panic — always Io/Corrupt.
    for keep in [0, 10, 16, 48, pristine.len() / 2, pristine.len() - 1] {
        std::fs::write(&path, &pristine[..keep]).unwrap();
        match SegmentReader::open(&path) {
            Err(StoreError::Corrupt { .. }) => {}
            Err(StoreError::Io { .. }) => {}
            other => panic!("truncation to {keep} bytes: expected error, got {other:?}"),
        }
    }

    // A flipped byte anywhere in the metadata+footer region fails at open;
    // a flipped byte in the data region fails on first block read.
    let mut data_flip = pristine.clone();
    data_flip[17] ^= 0x40;
    std::fs::write(&path, &data_flip).unwrap();
    let reader = SegmentReader::open(&path).unwrap();
    assert!(matches!(
        reader.read_block(BlockId(0)),
        Err(StoreError::Corrupt { .. })
    ));

    let mut meta_flip = pristine.clone();
    let idx = pristine.len() - 40; // inside the metadata section
    meta_flip[idx] ^= 0x01;
    std::fs::write(&path, &meta_flip).unwrap();
    assert!(matches!(
        SegmentReader::open(&path),
        Err(StoreError::Corrupt { .. })
    ));

    std::fs::remove_file(&path).ok();
}

/// A synthetic table exercising every skip mechanism: a categorical filter
/// column, a group column, and a numeric column whose values correlate with
/// position (so zone maps actually prune blocks).
fn acceptance_table(rows: usize) -> Table {
    let values: Vec<f64> = (0..rows)
        .map(|i| {
            let noise = ((i * 2_654_435_761) % 1000) as f64 / 100.0 - 5.0;
            (i % 5) as f64 * 12.0 + noise
        })
        .collect();
    let times: Vec<i64> = (0..rows).map(|i| 600 + (i as i64 * 7) % 1200).collect();
    let groups: Vec<String> = (0..rows).map(|i| format!("g{}", i % 4)).collect();
    let flags: Vec<String> = (0..rows)
        .map(|i| if i % 3 == 0 { "on" } else { "off" }.to_string())
        .collect();
    Table::new(vec![
        Column::float("v", values),
        Column::int("time", times),
        Column::categorical("g", &groups),
        Column::categorical("flag", &flags),
    ])
    .unwrap()
}

fn assert_bit_identical(mem: &QueryResult, disk: &QueryResult) {
    assert_eq!(mem.groups.len(), disk.groups.len());
    for (a, b) in mem.groups.iter().zip(&disk.groups) {
        assert_eq!(a.key, b.key, "group universe/order must match");
        assert_eq!(
            a.estimate.map(f64::to_bits),
            b.estimate.map(f64::to_bits),
            "estimate bits for {}",
            a.key.display()
        );
        assert_eq!(a.ci.lo.to_bits(), b.ci.lo.to_bits(), "ci.lo bits");
        assert_eq!(a.ci.hi.to_bits(), b.ci.hi.to_bits(), "ci.hi bits");
        assert_eq!(a.samples, b.samples);
        assert_eq!(a.exact, b.exact);
    }
    assert_eq!(mem.selected_labels(), disk.selected_labels());
    assert_eq!(mem.converged, disk.converged);
    // The acceptance bar: *identical* scan statistics — fetched, skipped,
    // rows, matches, index checks, rounds.
    assert_eq!(mem.metrics.scan, disk.metrics.scan);
}

#[test]
fn segment_queries_are_bit_identical_to_memory_at_one_and_four_threads() {
    let table = acceptance_table(12_000);
    let mut session = Session::new();
    session.register("t", &table).unwrap();
    let path = temp_path("acceptance");
    session.save_table("t", &path).unwrap();
    session.open_table("t_disk", &path).unwrap();

    for strategy in SamplingStrategy::ALL {
        for threads in [1usize, 4] {
            let config = EngineConfig::builder()
                .bounder(BounderKind::BernsteinRangeTrim)
                .strategy(strategy)
                .delta(1e-9)
                .round_rows(800)
                .seed(0xABCD)
                .threads(threads)
                .build();
            // Grouped query with a numeric range predicate (zone maps) and a
            // categorical filter (predicate bitmap), plus active scanning.
            let run = |table_name: &str| {
                session
                    .query(table_name)
                    .avg(Expr::col("v"))
                    .filter(Predicate::And(vec![
                        Predicate::cat_eq("flag", "on"),
                        Predicate::num_gt("time", 900.0),
                    ]))
                    .group_by("g")
                    .having_gt(20.0)
                    .config(config.clone())
                    .execute()
                    .unwrap()
            };
            let mem = run("t");
            let disk = run("t_disk");
            assert_bit_identical(&mem, &disk);

            // The ungrouped relative-error form too.
            let run = |table_name: &str| {
                session
                    .query(table_name)
                    .sum(Expr::col("v"))
                    .filter(Predicate::num_lt("time", 1_200.0))
                    .relative_error(0.15)
                    .config(config.clone())
                    .execute()
                    .unwrap()
            };
            assert_bit_identical(&run("t"), &run("t_disk"));
        }
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn exact_and_progressive_modes_work_against_segments() {
    let table = acceptance_table(6_000);
    let mut session = Session::new();
    session.register("t", &table).unwrap();
    let path = temp_path("modes");
    session.save_table("t", &path).unwrap();
    session.open_table("t_disk", &path).unwrap();

    // Exact baseline agrees across backings.
    let exact = |name: &str| {
        session
            .query(name)
            .avg(Expr::col("v"))
            .group_by("g")
            .having_gt(20.0)
            .execute_exact()
            .unwrap()
    };
    let (mem, disk) = (exact("t"), exact("t_disk"));
    assert_bit_identical(&mem, &disk);
    assert!(disk.groups.iter().all(|g| g.exact));

    // Progressive snapshots stream from segments too.
    let p = session
        .query("t_disk")
        .avg(Expr::col("v"))
        .group_by("g")
        .absolute_width(0.0)
        .tune(|c| c.round_rows(500))
        .budget(fastframe_engine::Budget::unlimited().max_rounds(2))
        .progressive()
        .unwrap();
    assert_eq!(p.rounds(), 2);
    assert!(p.cancelled());
    std::fs::remove_file(&path).ok();
}

#[test]
fn mid_scan_corruption_is_an_error_not_a_panic() {
    // Metadata intact (open succeeds), data section rotted: the query must
    // fail with EngineError::Store(Corrupt) through the public API — at one
    // thread (inline scan) and four (worker pool) alike.
    let table = acceptance_table(4_000);
    let scramble = Scramble::build_with(&table, 9, 25).unwrap();
    let path = temp_path("midscan");
    write_segment(&scramble, &path).unwrap();
    let mut bytes = std::fs::read(&path).unwrap();
    bytes[40] ^= 0x20; // inside block 0's chunks
    std::fs::write(&path, &bytes).unwrap();

    let mut session = Session::new();
    session.open_table("t", &path).unwrap();
    for threads in [1usize, 4] {
        let result = session
            .query("t")
            .avg(Expr::col("v"))
            .relative_error(0.2)
            .tune(|c| c.threads(threads).start_block(0).round_rows(500))
            .execute();
        match result {
            Err(EngineError::Store(StoreError::Corrupt { .. })) => {}
            other => panic!("threads={threads}: expected Corrupt error, got {other:?}"),
        }
        // Exact executor reports the same error class.
        let exact = session.query("t").avg(Expr::col("v")).execute_exact();
        assert!(matches!(
            exact,
            Err(EngineError::Store(StoreError::Corrupt { .. }))
        ));
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn group_universe_is_memoized_and_identical_across_backings() {
    let table = acceptance_table(3_000);
    let scramble = Scramble::build_with(&table, 11, 25).unwrap();
    let path = temp_path("universe");
    write_segment(&scramble, &path).unwrap();
    let reader = SegmentReader::open(&path).unwrap();

    let cols = [2usize, 3]; // ("g", "flag")
    let mem = scramble.distinct_group_tuples(&cols).unwrap();
    let disk_first = reader.distinct_group_tuples(&cols).unwrap();
    let disk_cached = reader.distinct_group_tuples(&cols).unwrap();
    assert_eq!(mem, disk_first, "first-appearance order must match");
    assert_eq!(disk_first, disk_cached, "memoized result must be identical");
    assert_eq!(mem.len(), 8, "4 groups × 2 flags all occur");
    std::fs::remove_file(&path).ok();
}

#[test]
fn session_backing_rules_are_enforced() {
    let table = acceptance_table(500);
    let mut session = Session::new();
    session.register("t", &table).unwrap();
    let path = temp_path("rules");
    session.save_table("t", &path).unwrap();
    session.open_table("t_disk", &path).unwrap();

    // A segment-backed table has no in-memory scramble to borrow or save.
    assert!(matches!(
        session.scramble("t_disk"),
        Err(EngineError::SegmentBacked { .. })
    ));
    assert!(matches!(
        session.save_table("t_disk", temp_path("rules2")),
        Err(EngineError::SegmentBacked { .. })
    ));
    // But source() serves both.
    assert_eq!(session.source("t").unwrap().num_rows(), 500);
    assert_eq!(session.source("t_disk").unwrap().num_rows(), 500);

    // Duplicate names and missing files are rejected.
    assert!(matches!(
        session.open_table("t_disk", &path),
        Err(EngineError::DuplicateTable { .. })
    ));
    assert!(matches!(
        session.open_table("missing", temp_path("nonexistent")),
        Err(EngineError::Store(StoreError::Io { .. }))
    ));
    // Dropping a segment-backed table works like any other.
    session.drop_table("t_disk").unwrap();
    assert!(!session.contains("t_disk"));
    std::fs::remove_file(&path).ok();
}

/// Writes `scramble` with one byte flipped in the middle of `block`'s chunk
/// of `column`.
fn write_flipped_chunk(
    tag: &str,
    scramble: &Scramble,
    block: usize,
    column: usize,
) -> std::path::PathBuf {
    let path = temp_path(tag);
    write_segment(scramble, &path).unwrap();
    let mut bytes = std::fs::read(&path).unwrap();
    let range = piece_range(scramble, block, column);
    bytes[(range.start + range.end) / 2] ^= 0x10;
    std::fs::write(&path, &bytes).unwrap();
    path
}

/// [`write_flipped_chunk`], opened in a session as `"t"`.
fn session_with_flipped_chunk(
    tag: &str,
    scramble: &Scramble,
    block: usize,
    column: usize,
) -> (Session, std::path::PathBuf) {
    let path = write_flipped_chunk(tag, scramble, block, column);
    let mut session = Session::new();
    session.open_table("t", &path).unwrap();
    (session, path)
}

/// Every run `scan_blocks` hands out for `blocks`: its first block id and
/// the bits of its decoded values (a float's bits, an int as a float's, a
/// category's code), column after column; a column left out of
/// `projection` adds none.
fn scanned_bits(
    reader: &SegmentReader,
    blocks: &[Range<usize>],
    projection: Option<&[usize]>,
) -> Result<Vec<(BlockId, Vec<u64>)>, StoreError> {
    let mut out = Vec::new();
    reader.scan_blocks(blocks, projection, &mut |first, run| {
        let bits = run
            .table()
            .columns()
            .iter()
            .flat_map(|column| {
                (0..column.len()).map(move |row| match column.numeric_value(row) {
                    Some(value) => value.to_bits(),
                    None => u64::from(column.category_code(row).unwrap()),
                })
            })
            .collect();
        out.push((first, bits));
        ControlFlow::Continue(())
    })?;
    Ok(out)
}

#[test]
fn corruption_of_a_skipped_block_inside_a_window_is_never_reported() {
    // Block 37 is a one-block hole of the list: a window reads its pieces
    // with the blocks around it, but never checks, decodes or visits them,
    // so the scan hands out the pristine file's rows.
    let table = acceptance_table(4_000);
    let scramble = Scramble::build_with(&table, 9, 25).unwrap();
    let path = write_flipped_chunk("skipped_in_window", &scramble, 37, 0);
    let pristine_path = temp_path("skipped_in_window_pristine");
    write_segment(&scramble, &pristine_path).unwrap();
    let (corrupt, pristine) = (
        SegmentReader::open(&path).unwrap(),
        SegmentReader::open(&pristine_path).unwrap(),
    );
    let list = [0..37, 38..100];
    let hole = piece_range(&scramble, 37, 0).len() as u64;
    for projection in [Some(&[0usize][..]), Some(&[0, 1][..]), None] {
        // One window: the corrupt bytes were read.
        let steps = corrupt.scan_steps(&list, projection).unwrap();
        assert_eq!(steps.reads, projection.map_or(4, <[usize]>::len));
        assert!(steps.hole_bytes >= hole, "{projection:?}: {steps:?}");
        let expected = scanned_bits(&pristine, &list, projection).unwrap();
        assert_eq!(expected.len(), 2, "two runs, around the hole");
        assert_eq!(scanned_bits(&corrupt, &list, projection).unwrap(), expected);
    }
    std::fs::remove_file(&path).ok();
    std::fs::remove_file(&pristine_path).ok();
}

#[test]
fn corruption_of_a_fetched_block_right_after_a_hole_names_block_and_column() {
    // Block 38 starts the second run of a window that reads through the
    // hole at block 37; its corrupt piece still fails the scan.
    let table = acceptance_table(4_000);
    let scramble = Scramble::build_with(&table, 9, 25).unwrap();
    let path = write_flipped_chunk("after_hole", &scramble, 38, 0);
    let reader = SegmentReader::open(&path).unwrap();
    let list = [0..37, 38..100];
    for projection in [Some(&[0usize][..]), None] {
        match scanned_bits(&reader, &list, projection) {
            Err(StoreError::Corrupt { detail, .. }) => assert!(
                detail.contains(&format!("{} column 0 (`v`)", BlockId(38))),
                "{projection:?}: error must name the block and column: {detail}"
            ),
            other => panic!("{projection:?}: expected a Corrupt error, got {other:?}"),
        }
        assert!(matches!(
            reader.scan_steps(&list, projection),
            Err(StoreError::Corrupt { .. })
        ));
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn corruption_of_a_referenced_chunk_mid_run_names_block_and_column() {
    // 160 blocks: the full pass below splits into partitions of three
    // consecutive blocks, and block 37 sits in the middle of one.
    let table = acceptance_table(4_000);
    let scramble = Scramble::build_with(&table, 9, 25).unwrap();
    let (session, path) = session_with_flipped_chunk("midrun", &scramble, 37, 0);
    let expect_named = |result: Result<QueryResult, EngineError>, what: &str| match result {
        Err(EngineError::Store(StoreError::Corrupt { detail, .. })) => assert!(
            detail.contains(&format!("{} column 0 (`v`)", BlockId(37))),
            "{what}: error must name the block and column: {detail}"
        ),
        other => panic!("{what}: expected Corrupt error, got {other:?}"),
    };
    for threads in [1usize, 4] {
        let approximate = session
            .query("t")
            .avg(Expr::col("v"))
            .absolute_width(0.0)
            .tune(|c| c.threads(threads).start_block(0).round_rows(4_000))
            .execute();
        expect_named(approximate, &format!("approximate, threads={threads}"));
        let exact = session
            .query("t")
            .avg(Expr::col("v"))
            .threads(threads)
            .execute_exact();
        expect_named(exact, &format!("exact, threads={threads}"));
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn corruption_of_an_unreferenced_chunk_inside_a_run_is_not_checked() {
    // Block 37's `time` piece sits in the `time` chunk of its row group,
    // which a run reading `v` alone neither reads nor checks, so a query
    // on `v` answers as on the pristine data.
    let table = acceptance_table(4_000);
    let scramble = Scramble::build_with(&table, 9, 25).unwrap();
    let (mut session, path) = session_with_flipped_chunk("unreferenced", &scramble, 37, 1);
    let pristine = temp_path("unreferenced_pristine");
    write_segment(&scramble, &pristine).unwrap();
    session.open_table("pristine", &pristine).unwrap();
    for threads in [1usize, 4] {
        let run = |name: &str| {
            session
                .query(name)
                .avg(Expr::col("v"))
                .absolute_width(0.0)
                .tune(|c| c.threads(threads).start_block(0).round_rows(4_000))
                .execute()
                .unwrap()
        };
        assert_bit_identical(&run("pristine"), &run("t"));
    }
    // A query referencing `time` does check the chunk.
    let filtered = session
        .query("t")
        .avg(Expr::col("v"))
        .filter(Predicate::num_gt("time", 0.0))
        .execute_exact();
    assert!(matches!(
        filtered,
        Err(EngineError::Store(StoreError::Corrupt { .. }))
    ));
    std::fs::remove_file(&path).ok();
    std::fs::remove_file(&pristine).ok();
}

#[test]
fn truncated_data_section_mid_scan_is_an_error_not_a_panic() {
    // Open validates the footer; truncating the file afterwards leaves the
    // reader's run reads short.
    let table = acceptance_table(4_000);
    let path = temp_path("truncated_data");
    let mut session = Session::new();
    session.register("mem", &table).unwrap();
    session.save_table("mem", &path).unwrap();
    session.open_table("t", &path).unwrap();
    let len = std::fs::metadata(&path).unwrap().len();
    std::fs::OpenOptions::new()
        .write(true)
        .open(&path)
        .unwrap()
        .set_len(len / 3)
        .unwrap();
    for threads in [1usize, 4] {
        let result = session
            .query("t")
            .avg(Expr::col("v"))
            .absolute_width(0.0)
            .tune(|c| c.threads(threads).start_block(0).round_rows(4_000))
            .execute();
        assert!(
            matches!(result, Err(EngineError::Store(_))),
            "threads={threads}: expected a store error, got {result:?}"
        );
        let exact = session
            .query("t")
            .avg(Expr::col("v"))
            .threads(threads)
            .execute_exact();
        assert!(matches!(exact, Err(EngineError::Store(_))));
    }
    std::fs::remove_file(&path).ok();
}

/// 27 507 rows: in blocks of 5 rows, 5 501 blocks and a ragged 2-row one,
/// six row groups, the last ending in a partial page of 62 blocks whose
/// last is the ragged one, and six planner batches, so active scanning
/// sees its active set change. `v` a float target, `time` an int, `g` four groups, `h` a common
/// group `c` and a rare one `r` (one row in 50), so active scanning skips
/// the blocks without `r` once `c` has converged, and `flag` a rare `on`
/// (one row in 60), so its bitmap skips blocks inside every page.
fn page_table() -> Table {
    let rows = 27_507;
    let mut state = 0x2545_F491_4F6C_DD1Du64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let (mut v, mut time, mut g, mut h, mut flag) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for _ in 0..rows {
        let r = next();
        v.push(100.0 + (r % 1_000) as f64 / 10.0);
        time.push(600 + ((r >> 12) % 1_200) as i64);
        g.push(format!("g{}", (r >> 24) % 4));
        h.push(if (r >> 32) % 50 == 0 { "r" } else { "c" }.to_string());
        flag.push(if (r >> 44) % 60 == 0 { "on" } else { "off" }.to_string());
    }
    Table::new(vec![
        Column::float("v", v),
        Column::int("time", time),
        Column::categorical("g", &g),
        Column::categorical("h", &h),
        Column::categorical("flag", &flag),
    ])
    .unwrap()
}

#[test]
fn page_paths_are_bit_identical_to_memory_at_one_and_four_threads() {
    let table = page_table();
    let mut session = Session::new();
    session
        .register_with("t", &table, TableOptions::default().block_size(5))
        .unwrap();
    let path = temp_path("pages");
    session.save_table("t", &path).unwrap();
    session.open_table("t_disk", &path).unwrap();
    let layout = *session.scramble("t").unwrap().layout();
    assert_eq!(layout.num_blocks(), 5_502);
    assert_eq!(layout.rows_of(BlockId(5_501)).len(), 2, "ragged last block");

    // Start blocks: a page boundary; mid-page, so runs start and end
    // mid-page; 24 blocks before the first row-group boundary, so a run
    // crosses pages and a row group; and inside the partial last page, so
    // the ragged block is read early and the scan wraps.
    for start in [0usize, 30, 1_000, 5_490] {
        for threads in [1usize, 4] {
            for strategy in [SamplingStrategy::Scan, SamplingStrategy::ActivePeek] {
                let config = EngineConfig::builder()
                    .bounder(BounderKind::BernsteinRangeTrim)
                    .strategy(strategy)
                    .delta(0.05)
                    .round_rows(1_000)
                    .start_block(start)
                    .threads(threads)
                    .build();
                let what = format!("start {start}, threads {threads}, {strategy:?}");
                let both = |query: &dyn Fn(&str) -> QueryResult| {
                    let (mem, disk) = (query("t"), query("t_disk"));
                    assert_bit_identical(&mem, &disk);
                    mem
                };
                // Inactive skips: once `c` converges only blocks with `r`
                // are fetched, so runs break inside pages.
                let active = both(&|name| {
                    session
                        .query(name)
                        .avg(Expr::col("v"))
                        .group_by("h")
                        .relative_error(0.05)
                        .config(config.clone())
                        .execute()
                        .unwrap()
                });
                if strategy == SamplingStrategy::ActivePeek {
                    assert!(active.metrics.scan.blocks_skipped > 0, "{what}: active");
                }
                // Predicate skips inside every page, over a full pass that
                // reads the int column too.
                let filtered = both(&|name| {
                    session
                        .query(name)
                        .avg(Expr::col("v"))
                        .filter(Predicate::And(vec![
                            Predicate::cat_eq("flag", "on"),
                            Predicate::num_gt("time", 700.0),
                        ]))
                        .group_by("g")
                        .absolute_width(0.0)
                        .config(config.clone())
                        .execute()
                        .unwrap()
                });
                let scan = &filtered.metrics.scan;
                assert!(scan.blocks_skipped > 0, "{what}: filtered {scan:?}");
                assert_eq!(scan.blocks_fetched + scan.blocks_skipped, 5_502, "{what}");
                // Every block, the ragged one included.
                let exact = both(&|name| {
                    session
                        .query(name)
                        .sum(Expr::col("time"))
                        .group_by("g")
                        .config(config.clone())
                        .execute_exact()
                        .unwrap()
                });
                assert_eq!(exact.metrics.scan.rows_scanned, 27_507, "{what}");
            }
        }
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn open_table_refuses_a_segment_holding_a_non_finite_value() {
    // The catalog notes the first non-finite value in the *original* row
    // order; the segment carries it, so opening reads no data.
    let mut values: Vec<f64> = (0..500).map(f64::from).collect();
    values[321] = f64::NAN;
    values[400] = f64::INFINITY;
    let table = Table::new(vec![
        Column::int("k", (0..500).collect()),
        Column::float("x", values),
    ])
    .unwrap();
    let scramble = Scramble::build_with(&table, 3, 25).unwrap();
    let path = temp_path("non_finite");
    write_segment(&scramble, &path).unwrap();
    // The reader opens it (the values are stored bitwise) and reports it.
    let reader = SegmentReader::open(&path).unwrap();
    assert_eq!(reader.catalog().first_non_finite(), Some(("x", 321)));
    let mut session = Session::new();
    match session.open_table("t", &path) {
        Err(EngineError::NonFiniteValue { column, row }) => {
            assert_eq!((column.as_str(), row), ("x", 321))
        }
        other => panic!("expected NonFiniteValue, got {other:?}"),
    }
    assert!(!session.contains("t"));
    // A finite table's segment records none.
    let finite = Scramble::build_with(&acceptance_table(300), 3, 25).unwrap();
    write_segment(&finite, &path).unwrap();
    assert_eq!(
        SegmentReader::open(&path)
            .unwrap()
            .catalog()
            .first_non_finite(),
        None
    );
    session.open_table("t", &path).unwrap();
    std::fs::remove_file(&path).ok();
}

#[test]
fn a_version_1_segment_fails_loudly() {
    let scramble = Scramble::build_with(&acceptance_table(300), 3, 25).unwrap();
    let path = temp_path("version_1");
    write_segment(&scramble, &path).unwrap();
    let mut bytes = std::fs::read(&path).unwrap();
    // The version sits at header bytes 8..12 and footer bytes 20..24.
    let footer = bytes.len() - 32;
    bytes[8..12].copy_from_slice(&1u32.to_le_bytes());
    bytes[footer + 20..footer + 24].copy_from_slice(&1u32.to_le_bytes());
    std::fs::write(&path, &bytes).unwrap();
    match SegmentReader::open(&path) {
        Err(StoreError::Corrupt { detail, .. }) => assert!(
            detail.contains("unsupported segment version 1 (expected 2)"),
            "detail: {detail}"
        ),
        other => panic!("expected a version mismatch, got {other:?}"),
    }
    std::fs::remove_file(&path).ok();
}

/// Rewrites the page directory entry of column `column`'s page `page` in
/// the segment at `path` with `edit`, and re-seals the metadata checksum,
/// so only the edited frame can fail the open. The directory's position is
/// derived from the documented layout: the metadata ends with the page
/// directory (17 bytes per page and column) and the piece CRCs (4 bytes per
/// block and column), both column-major.
fn edit_page_entry(
    path: &std::path::Path,
    scramble: &Scramble,
    column: usize,
    page: usize,
    edit: impl Fn(&mut [u8]),
) {
    use fastframe_store::persist::format::{crc32, PAGE_BLOCKS, PAGE_ENTRY_LEN};
    let mut bytes = std::fs::read(path).unwrap();
    let footer = bytes.len() - 32;
    let meta_offset = u64::from_le_bytes(bytes[footer..footer + 8].try_into().unwrap()) as usize;
    let columns = scramble.table().num_columns();
    let blocks = scramble.num_blocks();
    let pages = blocks.div_ceil(PAGE_BLOCKS);
    let directory = footer - 4 * columns * blocks - PAGE_ENTRY_LEN * columns * pages;
    let entry = directory + PAGE_ENTRY_LEN * (column * pages + page);
    edit(&mut bytes[entry..entry + PAGE_ENTRY_LEN]);
    let crc = crc32(&bytes[meta_offset..footer]);
    bytes[footer + 16..footer + 20].copy_from_slice(&crc.to_le_bytes());
    std::fs::write(path, &bytes).unwrap();
}

#[test]
fn malformed_page_frames_fail_the_open_naming_the_column() {
    // Columns: 0 `v` float, 1 `time` int, 2 `g` codes; 4 000 rows make 160
    // blocks, so three pages, the last of 32 blocks.
    let scramble = Scramble::build_with(&acceptance_table(4_000), 9, 25).unwrap();
    let path = temp_path("frames");
    // (column, page, byte of the entry, bytes written there, expected
    // error); the width is the entry's byte 16, its offset bytes 0..8.
    let cases = [
        (
            2,
            1,
            16,
            vec![33],
            "code page of `g`: impossible bit width 33",
        ),
        (
            1,
            0,
            16,
            vec![65],
            "int page of `time`: impossible bit width 65",
        ),
        (0, 2, 16, vec![8], "float page of `v`"),
        // The last int page widened to 64 bits: its pieces would need more
        // bytes than the data section holds after it.
        (1, 2, 16, vec![64], "run past the data section"),
        (
            2,
            0,
            0,
            u64::MAX.to_le_bytes().to_vec(),
            "run past the data section",
        ),
    ];
    for (column, page, at, bytes, expect) in cases {
        write_segment(&scramble, &path).unwrap();
        edit_page_entry(&path, &scramble, column, page, |entry| {
            entry[at..at + bytes.len()].copy_from_slice(&bytes)
        });
        match SegmentReader::open(&path) {
            Err(StoreError::Corrupt { detail, .. }) => {
                assert!(detail.contains(expect), "{expect}: {detail}")
            }
            other => panic!("{expect}: expected Corrupt, got {other:?}"),
        }
    }
    std::fs::remove_file(&path).ok();
}

/// FNV-1a 64 of a byte string: a digest independent of the segment's own
/// CRC-32, so the golden-file check does not trust the code under test.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xCBF2_9CE4_8422_2325u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

/// A fixed tiny scramble: every column type, NaN and signed extremes, and
/// a ragged last block (60 rows in blocks of 25).
fn golden_scramble() -> Scramble {
    let n = 60usize;
    let table = Table::new(vec![
        Column::float(
            "x",
            (0..n)
                .map(|i| match i {
                    3 => f64::NAN,
                    5 => -0.0,
                    _ => i as f64 * 1.25 - 20.0,
                })
                .collect(),
        ),
        Column::int(
            "t",
            (0..n)
                .map(|i| match i {
                    7 => i64::MIN,
                    11 => i64::MAX,
                    _ => 600 + (i as i64 * 37) % 900,
                })
                .collect(),
        ),
        Column::categorical(
            "g",
            &(0..n).map(|i| format!("k{}", i % 6)).collect::<Vec<_>>(),
        ),
    ])
    .unwrap();
    Scramble::build_with(&table, 7, 25).unwrap()
}

#[test]
fn segment_bytes_match_the_golden_file() {
    // Recorded once from the version-2 writer (row groups of column-major
    // pages): the format, and every checksum in it, must not change
    // without a version bump.
    const GOLDEN_LEN: usize = 1456;
    const GOLDEN_FNV1A64: u64 = 0x7d5b_ac59_d877_ce0c;
    let path = temp_path("golden");
    write_segment(&golden_scramble(), &path).unwrap();
    let bytes = std::fs::read(&path).unwrap();
    std::fs::remove_file(&path).ok();
    assert_eq!(bytes.len(), GOLDEN_LEN);
    assert_eq!(fnv1a64(&bytes), GOLDEN_FNV1A64);
}

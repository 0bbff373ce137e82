//! Differential tests of run reads: `BlockSource::scan_blocks` hands its
//! visitor runs of consecutive blocks, and those runs, concatenated in
//! visit order, must equal what per-block `read_block_projected` returns,
//! on both backings and under every projection.
//!
//! The block lists below cover every shape a run can take: consecutive
//! runs, runs broken by skipped blocks (as an active scan leaves them), a
//! scan that wraps from the last block to block 0, the ragged last block, a
//! single block, an empty list, and lists longer than the run cap. The
//! engine's side of the contract, counting fetched blocks and rows from the
//! runs it is handed, is checked at the end under active scanning.

use std::ops::{ControlFlow, Range};
use std::path::Path;
use std::sync::Mutex;

use fastframe_core::bounder::BounderKind;
use fastframe_engine::config::{EngineConfig, SamplingStrategy};
use fastframe_engine::session::{Session, TableOptions};
use fastframe_engine::{AggQuery, PreparedQuery, QueryResult};
use fastframe_store::bitmap::BlockBitmapIndex;
use fastframe_store::block::{BlockId, BlockLayout};
use fastframe_store::catalog::Catalog;
use fastframe_store::column::{Column, ColumnData};
use fastframe_store::persist::{write_segment, SegmentReader};
use fastframe_store::scramble::Scramble;
use fastframe_store::source::{run_blocks, BlockRef, BlockSource, RUN_ROWS};
use fastframe_store::table::{StoreError, StoreResult, Table};
use fastframe_store::zone::ZoneMap;
use fastframe_store::{Expr, Predicate};
use fastframe_tests::piece_range;

/// Rows in the test table: 25-row blocks with a ragged 3-row last block.
const ROWS: usize = 40_003;
/// Blocks in a capped run of the 25-row test table: [`RUN_ROWS`] rows.
const RUN_BLOCKS: usize = RUN_ROWS / 25;
const COLUMNS: usize = 4;

fn temp_path(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!(
        "fastframe_run_reads_{tag}_{}.ffseg",
        std::process::id()
    ))
}

fn table() -> Table {
    let floats = |salt: usize| -> Vec<f64> {
        (0..ROWS)
            .map(|i| match (i * salt) % 101 {
                13 => f64::NAN,
                29 => -0.0,
                _ => ((i * 2_654_435_761 + salt) % 10_007) as f64 / 7.0 - 500.0,
            })
            .collect()
    };
    Table::new(vec![
        Column::float("x", floats(3)),
        Column::int(
            "t",
            (0..ROWS)
                .map(|i| match i % 997 {
                    7 => i64::MIN,
                    11 => i64::MAX,
                    _ => (i as i64).wrapping_mul(48_271) % 100_000,
                })
                .collect(),
        ),
        Column::categorical(
            "g",
            &(0..ROWS)
                .map(|i| format!("k{}", (i * 31) % 23))
                .collect::<Vec<_>>(),
        ),
        Column::float("y", floats(7)),
    ])
    .unwrap()
}

/// `None` plus every subset of the columns, the empty one included.
fn projections() -> Vec<Option<Vec<usize>>> {
    let mut out = vec![None];
    for mask in 0u32..(1 << COLUMNS) {
        out.push(Some(
            (0..COLUMNS).filter(|ci| mask & (1 << ci) != 0).collect(),
        ));
    }
    out
}

fn block_lists(num_blocks: usize) -> Vec<(&'static str, Vec<usize>)> {
    let n = num_blocks;
    vec![
        ("consecutive", (10..60).collect()),
        (
            "gaps",
            (0..200)
                .filter(|b| (b * 7) % 5 != 0 && b % 11 != 3)
                .collect(),
        ),
        ("wrap-around", (n - 6..n).chain(0..6).collect()),
        ("ragged last block", vec![n - 1]),
        ("run ending at the ragged block", (n - 4..n).collect()),
        ("single block", vec![17]),
        ("empty", Vec::new()),
        ("exactly one capped run", (100..100 + RUN_BLOCKS).collect()),
        ("one past the cap", (100..101 + RUN_BLOCKS).collect()),
        (
            "wrap-around past the cap",
            (n - RUN_BLOCKS - 5..n).chain(0..RUN_BLOCKS + 3).collect(),
        ),
        ("every block", (0..n).collect()),
    ]
}

/// `blocks` as the ranges `scan_blocks` takes: maximal stretches of
/// consecutive ids, so that a range ends exactly where a run must.
fn ranges(blocks: &[BlockId]) -> Vec<Range<usize>> {
    let mut out: Vec<Range<usize>> = Vec::new();
    for block in blocks.iter().map(|b| b.index()) {
        match out.last_mut() {
            Some(range) if range.end == block => range.end += 1,
            _ => out.push(block..block + 1),
        }
    }
    out
}

/// The runs a built-in source must hand out for `blocks` of 25 rows.
fn expected_runs(blocks: &[BlockId]) -> Vec<Vec<BlockId>> {
    expected_runs_of(blocks, RUN_BLOCKS)
}

/// The runs a built-in source must hand out for `blocks`, split
/// independently of the store's own splitter: a run ends where the next id
/// is not its predecessor plus one, and after `cap` blocks.
fn expected_runs_of(blocks: &[BlockId], cap: usize) -> Vec<Vec<BlockId>> {
    let mut out: Vec<Vec<BlockId>> = Vec::new();
    for &block in blocks {
        match out.last_mut() {
            Some(run) if run.len() < cap && run[run.len() - 1].index() + 1 == block.index() => {
                run.push(block)
            }
            _ => out.push(vec![block]),
        }
    }
    out
}

/// Column contents as comparable bits: for every column its name plus —
/// when the column is in the projection — the values of `rows` (floats by
/// bit pattern, codes with their dictionary).
type ColumnBits = Vec<(String, Option<Vec<u64>>)>;

fn bits(table: &Table, rows: Range<usize>, projection: Option<&[usize]>) -> ColumnBits {
    table
        .columns()
        .iter()
        .enumerate()
        .map(|(ci, column)| {
            let projected = projection.map_or(true, |p| p.contains(&ci));
            let values = projected.then(|| match column.data() {
                ColumnData::Float64(v) => v[rows.clone()].iter().map(|x| x.to_bits()).collect(),
                ColumnData::Int64(v) => v[rows.clone()].iter().map(|&x| x as u64).collect(),
                ColumnData::Categorical { dictionary, codes } => codes[rows.clone()]
                    .iter()
                    .map(|&c| u64::from(c) << 32 | dictionary.len() as u64)
                    .collect(),
            });
            (column.name().to_string(), values)
        })
        .collect()
}

/// One visited run: its first block id, its row range in the visited
/// table, and its columns' bits.
type RunBits = (BlockId, Range<usize>, ColumnBits);

fn via_scan(
    source: &dyn BlockSource,
    blocks: &[BlockId],
    projection: Option<&[usize]>,
) -> Vec<RunBits> {
    let mut out = Vec::new();
    source
        .scan_blocks(&ranges(blocks), projection, &mut |first, run| {
            out.push((first, run.rows(), bits(run.table(), run.rows(), projection)));
            ControlFlow::Continue(())
        })
        .unwrap();
    out
}

/// Each block read alone, as `(id, row count, bits)`.
fn via_single_reads(
    source: &dyn BlockSource,
    blocks: &[BlockId],
    projection: Option<&[usize]>,
) -> Vec<(BlockId, usize, ColumnBits)> {
    blocks
        .iter()
        .map(|&block| {
            let read = source.read_block_projected(block, projection).unwrap();
            (
                block,
                read.len(),
                bits(read.table(), read.rows(), projection),
            )
        })
        .collect()
}

/// Appends `part`'s column values to `all`'s, column by column.
fn concat(all: &mut ColumnBits, part: ColumnBits) {
    if all.is_empty() {
        *all = part;
        return;
    }
    for ((name, values), (part_name, part_values)) in all.iter_mut().zip(part) {
        assert_eq!(*name, part_name);
        if let (Some(values), Some(part_values)) = (values.as_mut(), part_values) {
            values.extend(part_values);
        }
    }
}

/// Checks `runs`, as visited over `blocks`, against the single-block reads
/// `singles`: runs of `expected` shapes, each covering exactly its blocks'
/// rows (at their table rows on the memory backing, `memory_rows`), and the
/// concatenated contents equal to the blocks' bit for bit.
fn assert_runs(
    runs: &[RunBits],
    expected: &[Vec<BlockId>],
    singles: &[(BlockId, usize, ColumnBits)],
    layout: &BlockLayout,
    memory_rows: bool,
    what: &str,
) {
    assert_eq!(
        runs.iter().map(|r| r.0).collect::<Vec<_>>(),
        expected.iter().map(|run| run[0]).collect::<Vec<_>>(),
        "{what}: each run's first block"
    );
    let mut from_runs = ColumnBits::new();
    let mut from_blocks = ColumnBits::new();
    let mut singles = singles.iter();
    for ((_, rows, columns), run) in runs.iter().zip(expected) {
        let (first, last) = (run[0], run[run.len() - 1]);
        let table_rows = layout.rows_of(first).start..layout.rows_of(last).end;
        let want = if memory_rows {
            table_rows.clone()
        } else {
            0..table_rows.len()
        };
        assert_eq!(*rows, want, "{what}: rows of the run at {first}");
        assert!(
            run.len() <= run_blocks(layout.block_size()),
            "{what}: run at {first} over the cap"
        );
        concat(&mut from_runs, columns.clone());
        for &block in run {
            let (id, len, columns) = singles.next().expect("a single read per block");
            assert_eq!(*id, block);
            assert_eq!(*len, layout.rows_of(block).len());
            concat(&mut from_blocks, columns.clone());
        }
    }
    assert!(singles.next().is_none(), "{what}: runs cover every block");
    assert_eq!(from_runs, from_blocks, "{what}: run contents");
}

/// A source that overrides only the single-block read: it inherits the
/// default `scan_blocks`, whose runs are one block long.
struct SingleBlockReads<'a>(&'a Scramble);

impl BlockSource for SingleBlockReads<'_> {
    fn schema(&self) -> &Table {
        self.0.schema()
    }
    fn num_rows(&self) -> usize {
        self.0.num_rows()
    }
    fn layout(&self) -> &BlockLayout {
        self.0.layout()
    }
    fn catalog(&self) -> &Catalog {
        self.0.catalog()
    }
    fn seed(&self) -> u64 {
        self.0.seed()
    }
    fn bitmap_index(&self, column: &str) -> Option<&BlockBitmapIndex> {
        self.0.bitmap_index(column)
    }
    fn zone_map(&self, column: &str) -> Option<&ZoneMap> {
        self.0.zone_map(column)
    }
    fn read_block(&self, block: BlockId) -> StoreResult<BlockRef<'_>> {
        self.0.read_block(block)
    }
}

#[test]
fn scan_blocks_matches_single_block_reads_on_both_backings() {
    let scramble = Scramble::build_with(&table(), 5, 25).unwrap();
    let path = temp_path("differential");
    write_segment(&scramble, &path).unwrap();
    let reader = SegmentReader::open(&path).unwrap();
    let single = SingleBlockReads(&scramble);
    let layout = *scramble.layout();
    let n = scramble.num_blocks();
    assert_eq!(
        scramble.block_rows(BlockId(n - 1)).len(),
        3,
        "ragged last block"
    );
    assert!(
        n > 20 * RUN_BLOCKS,
        "every-block list spans many capped runs"
    );

    for (shape, list) in block_lists(n) {
        let blocks: Vec<BlockId> = list.into_iter().map(BlockId).collect();
        let expected = expected_runs(&blocks);
        let one_block_runs: Vec<Vec<BlockId>> = blocks.iter().map(|&b| vec![b]).collect();
        for projection in projections() {
            let projection = projection.as_deref();
            let what = format!("{shape}, projection {projection:?}");
            let memory = via_single_reads(&scramble, &blocks, projection);
            assert_eq!(
                via_single_reads(&reader, &blocks, projection),
                memory,
                "{what}: segment single reads"
            );
            let memory_runs = via_scan(&scramble, &blocks, projection);
            assert_runs(
                &memory_runs,
                &expected,
                &memory,
                &layout,
                true,
                &format!("{what}: memory"),
            );
            let segment_runs = via_scan(&reader, &blocks, projection);
            assert_runs(
                &segment_runs,
                &expected,
                &memory,
                &layout,
                false,
                &format!("{what}: segment"),
            );
            let single_runs = via_scan(&single, &blocks, projection);
            assert_runs(
                &single_runs,
                &one_block_runs,
                &memory,
                &layout,
                true,
                &format!("{what}: default scan_blocks"),
            );
        }
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn runs_across_pages_and_row_groups_read_as_memory_does() {
    // The segment stores each column of a row group of 1 024 blocks as
    // pages of 64; the test table's 1 601 blocks make two row groups, the
    // second ending in a partial page holding only the ragged 3-row block.
    let scramble = Scramble::build_with(&table(), 5, 25).unwrap();
    let path = temp_path("pages");
    write_segment(&scramble, &path).unwrap();
    let reader = SegmentReader::open(&path).unwrap();
    let layout = *scramble.layout();
    let n = scramble.num_blocks();
    assert_eq!(n, 1_601);
    let lists: Vec<(&str, Vec<usize>)> = vec![
        ("starting and ending mid-page", (70..90).collect()),
        ("across a page boundary", (100..140).collect()),
        ("across a page and a row group", (1_000..1_064).collect()),
        ("many runs across a row group", (900..1_200).collect()),
        (
            "skips inside pages",
            (130..260).filter(|b| b % 3 != 0 && b % 7 != 2).collect(),
        ),
        ("the partial last page", (n - 40..n).collect()),
        ("the ragged block alone", vec![n - 1]),
        (
            "wrapping from the partial page",
            (n - 3..n).chain(0..70).collect(),
        ),
    ];
    for (shape, list) in lists {
        let blocks: Vec<BlockId> = list.into_iter().map(BlockId).collect();
        let expected = expected_runs(&blocks);
        for projection in projections() {
            let projection = projection.as_deref();
            let what = format!("{shape}, projection {projection:?}");
            let memory = via_single_reads(&scramble, &blocks, projection);
            assert_eq!(
                via_single_reads(&reader, &blocks, projection),
                memory,
                "{what}: segment single reads"
            );
            assert_runs(
                &via_scan(&reader, &blocks, projection),
                &expected,
                &memory,
                &layout,
                false,
                &format!("{what}: segment"),
            );
        }
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn runs_are_capped_in_rows_whatever_the_block_size() {
    // One-row blocks make 1 600-block runs, 7-row blocks 228-block runs
    // (1 596 rows); a block of the cap's size or larger is a run alone.
    for (block_size, cap) in [(1, RUN_ROWS), (7, 228), (1_600, 1), (4_000, 1)] {
        assert_eq!(run_blocks(block_size), cap);
        let scramble = Scramble::build_with(&table(), 5, block_size).unwrap();
        let path = temp_path(&format!("row_cap_{block_size}"));
        write_segment(&scramble, &path).unwrap();
        let reader = SegmentReader::open(&path).unwrap();
        let layout = *scramble.layout();
        let blocks: Vec<BlockId> = (0..scramble.num_blocks()).map(BlockId).collect();
        let expected = expected_runs_of(&blocks, cap);
        assert!(expected.iter().all(|run| {
            let rows = layout.rows_of(run[0]).start..layout.rows_of(run[run.len() - 1]).end;
            rows.len() <= RUN_ROWS.max(block_size)
        }));
        let singles = via_single_reads(&scramble, &blocks, Some(&[0, 2]));
        for (source, memory_rows, backing) in [
            (&scramble as &dyn BlockSource, true, "memory"),
            (&reader, false, "segment"),
        ] {
            assert_runs(
                &via_scan(source, &blocks, Some(&[0, 2])),
                &expected,
                &singles,
                &layout,
                memory_rows,
                &format!("block size {block_size}, {backing}"),
            );
        }
        std::fs::remove_file(&path).ok();
    }
}

#[test]
fn scan_blocks_stops_when_the_visitor_breaks() {
    let scramble = Scramble::build_with(&table(), 5, 25).unwrap();
    let path = temp_path("break");
    write_segment(&scramble, &path).unwrap();
    let reader = SegmentReader::open(&path).unwrap();
    let layout = *scramble.layout();
    // Runs of 5, 64 (capped), 36 and 20 blocks.
    let blocks: Vec<BlockId> = (0..5).chain(10..110).chain(200..220).map(BlockId).collect();
    for source in [&scramble as &dyn BlockSource, &reader] {
        for stop_after in 1..=3 {
            let mut seen = Vec::new();
            source
                .scan_blocks(&ranges(&blocks), Some(&[0]), &mut |first, run| {
                    let count = run.len().div_ceil(layout.block_size());
                    seen.push((first, count));
                    if seen.len() == stop_after {
                        ControlFlow::Break(())
                    } else {
                        ControlFlow::Continue(())
                    }
                })
                .unwrap();
            // The visits are a prefix of the list in whole runs.
            let visited: Vec<BlockId> = seen
                .iter()
                .flat_map(|&(first, count)| (first.index()..first.index() + count).map(BlockId))
                .collect();
            let whole: Vec<usize> = expected_runs(&blocks)[..stop_after]
                .iter()
                .map(Vec::len)
                .collect();
            assert_eq!(
                seen.iter().map(|s| s.1).collect::<Vec<_>>(),
                whole,
                "stop after {stop_after}"
            );
            assert_eq!(visited, blocks[..visited.len()], "stop after {stop_after}");
        }
    }
    // A block past the end fails the segment scan, after the runs before
    // its own were visited and before any block of its run.
    let n = scramble.num_blocks();
    for (list, runs_before, bad) in [
        (vec![BlockId(3), BlockId(0), BlockId(99_999)], 2, 99_999),
        (
            vec![BlockId(7), BlockId(n - 2), BlockId(n - 1), BlockId(n)],
            1,
            n,
        ),
    ] {
        let mut visited = 0;
        let result = reader.scan_blocks(&ranges(&list), None, &mut |_, _| {
            visited += 1;
            ControlFlow::Continue(())
        });
        assert_eq!(
            result,
            Err(StoreError::block_out_of_range(&path, BlockId(bad), n)),
            "{list:?}"
        );
        assert_eq!(visited, runs_before, "{list:?}");
    }
    std::fs::remove_file(&path).ok();
}

/// A range past the last block is an error on both backings, naming the
/// first block past the end, after the runs of the ranges before it were
/// visited; so is a single read past the end. Neither backing panics.
#[test]
fn a_range_past_the_end_fails_alike_on_both_backings() {
    let scramble = Scramble::build_with(&table(), 5, 25).unwrap();
    let path = temp_path("past_the_end");
    write_segment(&scramble, &path).unwrap();
    let reader = SegmentReader::open(&path).unwrap();
    let n = scramble.num_blocks();
    for (source, backing, named_path) in [
        (
            &scramble as &dyn BlockSource,
            "memory",
            Path::new("<in-memory scramble>"),
        ),
        (&reader, "segment", path.as_path()),
    ] {
        let named = |block: usize| {
            Err(StoreError::block_out_of_range(
                named_path,
                BlockId(block),
                n,
            ))
        };
        for (list, runs_before, bad) in [
            (vec![3..4, 0..1, 99_999..100_000], 2, 99_999),
            (vec![7..8, n - 2..n + 1], 1, n),
            (vec![0..RUN_BLOCKS + 1, n..n + 1], 2, n),
            (vec![n..n + 1, 0..1], 0, n),
        ] {
            let mut visited = 0;
            let result = source.scan_blocks(&list, Some(&[0]), &mut |_, _| {
                visited += 1;
                ControlFlow::Continue(())
            });
            assert_eq!(result, named(bad), "{backing}: {list:?}");
            assert_eq!(visited, runs_before, "{backing}: {list:?}");
        }
        for block in [n, n + 5] {
            let result = source.read_block_projected(BlockId(block), Some(&[0]));
            assert_eq!(result.map(|_| ()), named(block), "{backing}: {block}");
        }
        assert!(source.read_block(BlockId(n - 1)).is_ok(), "{backing}");
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn a_corrupt_chunk_in_any_crc_lane_fails_its_run_naming_its_block_and_column() {
    // A run of 7 blocks is checked per column as one batch of four chunks
    // (blocks 40–43) and a remainder of three (44–46). Flip a byte in each
    // position, for a float, an int and a categorical column: the scan
    // must fail before visiting the run, naming that chunk.
    let scramble = Scramble::build_with(&table(), 5, 25).unwrap();
    let path = temp_path("lanes");
    write_segment(&scramble, &path).unwrap();
    let pristine = std::fs::read(&path).unwrap();
    let run: Vec<BlockId> = (40..47).map(BlockId).collect();
    assert_eq!(expected_runs(&run).len(), 1, "one run");
    for column in [0usize, 1, 2] {
        let name = scramble.table().column_at(column).name().to_string();
        for &bad in &run {
            let range = piece_range(&scramble, bad.index(), column);
            let mut bytes = pristine.clone();
            bytes[(range.start + range.end) / 2] ^= 0x04;
            std::fs::write(&path, &bytes).unwrap();
            let reader = SegmentReader::open(&path).unwrap();
            let mut visited = 0;
            let result = reader.scan_blocks(&ranges(&run), Some(&[column, 3]), &mut |_, _| {
                visited += 1;
                ControlFlow::Continue(())
            });
            match result {
                Err(StoreError::Corrupt { detail, .. }) => assert!(
                    detail.contains(&format!("{bad} column {column} (`{name}`)")),
                    "{bad}, column {column}: {detail}"
                ),
                other => panic!("{bad}, column {column}: expected Corrupt, got {other:?}"),
            }
            assert_eq!(visited, 0, "{bad}, column {column}: run visited");
            // Out of the projection, the same chunk goes unchecked.
            let other = (column + 1) % 3;
            assert!(reader
                .scan_blocks(&ranges(&run), Some(&[other]), &mut |_, _| {
                    ControlFlow::Continue(())
                })
                .is_ok());
        }
    }
    std::fs::remove_file(&path).ok();
}

/// Rows of the accounting table: 8 005 blocks of [`ACCOUNTING_BLOCK`] rows
/// and a ragged one of 3, so that active scanning's 1 024-block batches
/// see the active set change.
const ACCOUNTING_ROWS: usize = 40_028;
const ACCOUNTING_BLOCK: usize = 5;

/// `x`, a float target; `g`, 160 codes spread evenly, so one code's
/// bitmap holds about one block in 30 and a filter on it breaks the scan
/// into short runs; `h`, a common group `c` and a rare group `r` (one row
/// in 50), so active scanning skips the blocks without `r` once `c` has
/// converged.
fn accounting_table() -> Table {
    let mut state = 0x51ED_2701_A5A5_0F0Fu64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let (mut x, mut g, mut h) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..ACCOUNTING_ROWS {
        let r = next();
        x.push(500.0 + (r % 1000) as f64);
        g.push(format!("g{}", (r >> 20) % 160));
        h.push(if (r >> 40) % 50 == 0 { "r" } else { "c" }.to_string());
    }
    Table::new(vec![
        Column::float("x", x),
        Column::categorical("g", &g),
        Column::categorical("h", &h),
    ])
    .unwrap()
}

/// Active scanning, rounds of 400 blocks, a fixed start: small enough that
/// the active set changes many times within one pass.
fn accounting_config(threads: usize) -> EngineConfig {
    EngineConfig::builder()
        .bounder(BounderKind::BernsteinRangeTrim)
        .strategy(SamplingStrategy::ActivePeek)
        .delta(0.05)
        .round_rows(2_000)
        .start_block(3_500)
        .threads(threads)
        .build()
}

fn assert_accounting(result: &QueryResult, what: &str) {
    let m = &result.metrics;
    assert_eq!(
        m.exec.blocks_fetched, m.scan.blocks_fetched,
        "{what}: blocks"
    );
    assert_eq!(m.exec.rows_scanned, m.scan.rows_scanned, "{what}: rows");
    assert_eq!(m.exec.rows_matched, m.scan.rows_matched, "{what}: matches");
}

#[test]
fn fetch_accounting_counts_the_blocks_of_each_run_under_active_scanning() {
    let table = accounting_table();
    let mut session = Session::new();
    session
        .register_with(
            "mem",
            &table,
            TableOptions::default()
                .seed(17)
                .block_size(ACCOUNTING_BLOCK),
        )
        .unwrap();
    let path = temp_path("accounting");
    session.save_table("mem", &path).unwrap();
    session.open_table("seg", &path).unwrap();

    // Filter on a code of the ragged last block, so the scan fetches it.
    let scramble = session.scramble("mem").unwrap();
    let layout = *scramble.layout();
    let last = layout.rows_of(BlockId(layout.num_blocks() - 1));
    assert_eq!(last.len(), 3);
    assert_eq!(layout.block_size(), ACCOUNTING_BLOCK);
    let g = scramble.table().column("g").unwrap();
    let code = g.category_code(last.start).unwrap() as usize;
    let value = g.dictionary().unwrap()[code].clone();

    for backing in ["mem", "seg"] {
        for threads in [1usize, 4] {
            let what = format!("{backing}, threads={threads}");
            // Predicate skips break the runs; the pass covers every block
            // the bitmap keeps, the ragged one included.
            let filtered = session
                .query(backing)
                .avg(Expr::col("x"))
                .filter(Predicate::cat_eq("g", &value))
                .group_by("h")
                .absolute_width(0.0)
                .config(accounting_config(threads))
                .execute()
                .unwrap();
            assert_accounting(&filtered, &format!("{what}, filtered"));
            let scan = &filtered.metrics.scan;
            assert!(
                scan.blocks_skipped > scan.blocks_fetched,
                "{what}: {scan:?}"
            );
            assert_eq!(
                scan.rows_scanned % ACCOUNTING_BLOCK as u64,
                3,
                "{what}: the ragged block is fetched"
            );
            let exact = session
                .query(backing)
                .avg(Expr::col("x"))
                .filter(Predicate::cat_eq("g", &value))
                .group_by("h")
                .config(accounting_config(threads))
                .execute_exact()
                .unwrap();
            assert_accounting(&exact, &format!("{what}, exact"));

            // Inactive skips: once `c` converges, only blocks holding `r`
            // are fetched.
            let active = session
                .query(backing)
                .avg(Expr::col("x"))
                .group_by("h")
                .relative_error(0.02)
                .config(accounting_config(threads))
                .execute()
                .unwrap();
            assert_accounting(&active, &format!("{what}, active"));
            let scan = &active.metrics.scan;
            assert!(scan.blocks_skipped > 0, "{what}: {scan:?}");
        }
    }
    std::fs::remove_file(&path).ok();
}

/// A source whose scans lose the last block of every list, the last of its
/// last range: the fault the two-sided fetch accounting exists to expose.
struct LosesLastBlock<'a>(&'a dyn BlockSource);

impl BlockSource for LosesLastBlock<'_> {
    fn schema(&self) -> &Table {
        self.0.schema()
    }
    fn num_rows(&self) -> usize {
        self.0.num_rows()
    }
    fn layout(&self) -> &BlockLayout {
        self.0.layout()
    }
    fn catalog(&self) -> &Catalog {
        self.0.catalog()
    }
    fn seed(&self) -> u64 {
        self.0.seed()
    }
    fn bitmap_index(&self, column: &str) -> Option<&BlockBitmapIndex> {
        self.0.bitmap_index(column)
    }
    fn zone_map(&self, column: &str) -> Option<&ZoneMap> {
        self.0.zone_map(column)
    }
    fn read_block(&self, block: BlockId) -> StoreResult<BlockRef<'_>> {
        self.0.read_block(block)
    }
    fn scan_blocks(
        &self,
        blocks: &[Range<usize>],
        projection: Option<&[usize]>,
        visit: &mut dyn FnMut(BlockId, BlockRef<'_>) -> ControlFlow<()>,
    ) -> StoreResult<()> {
        let mut kept = blocks.to_vec();
        if let Some(last) = kept.last_mut() {
            last.end -= 1;
        }
        self.0.scan_blocks(&kept, projection, visit)
    }
    fn distinct_group_tuples(
        &self,
        columns: &[usize],
    ) -> StoreResult<fastframe_store::source::GroupUniverse> {
        self.0.distinct_group_tuples(columns)
    }
}

#[test]
fn a_lost_block_shows_as_diverging_fetch_counts() {
    let table = accounting_table();
    let mut session = Session::new();
    session
        .register_with(
            "mem",
            &table,
            TableOptions::default()
                .seed(17)
                .block_size(ACCOUNTING_BLOCK),
        )
        .unwrap();
    let path = temp_path("lost");
    session.save_table("mem", &path).unwrap();
    session.open_table("seg", &path).unwrap();
    let query = AggQuery::avg("avg_x", Expr::col("x")).group_by("h").build();
    for backing in ["mem", "seg"] {
        let lossy = LosesLastBlock(session.source(backing).unwrap());
        for threads in [1usize, 4] {
            let prepared =
                PreparedQuery::new(&lossy, query.clone(), accounting_config(threads)).unwrap();
            let m = prepared.execute_exact().unwrap().metrics;
            // One block lost per partition: the workers report fewer blocks
            // and rows than the planner granted.
            let partitions = m.exec.partitions;
            assert!(partitions > 0);
            assert_eq!(
                m.exec.blocks_fetched + partitions,
                m.scan.blocks_fetched,
                "{backing}, threads={threads}"
            );
            assert!(m.exec.rows_scanned < m.scan.rows_scanned);
        }
    }
    std::fs::remove_file(&path).ok();
}

/// A source that records the blocks of every run its scans visit.
struct RecordsRuns<'a> {
    inner: &'a dyn BlockSource,
    runs: Mutex<Vec<Range<usize>>>,
}

impl BlockSource for RecordsRuns<'_> {
    fn schema(&self) -> &Table {
        self.inner.schema()
    }
    fn num_rows(&self) -> usize {
        self.inner.num_rows()
    }
    fn layout(&self) -> &BlockLayout {
        self.inner.layout()
    }
    fn catalog(&self) -> &Catalog {
        self.inner.catalog()
    }
    fn seed(&self) -> u64 {
        self.inner.seed()
    }
    fn bitmap_index(&self, column: &str) -> Option<&BlockBitmapIndex> {
        self.inner.bitmap_index(column)
    }
    fn zone_map(&self, column: &str) -> Option<&ZoneMap> {
        self.inner.zone_map(column)
    }
    fn read_block(&self, block: BlockId) -> StoreResult<BlockRef<'_>> {
        self.inner.read_block(block)
    }
    fn scan_blocks(
        &self,
        blocks: &[Range<usize>],
        projection: Option<&[usize]>,
        visit: &mut dyn FnMut(BlockId, BlockRef<'_>) -> ControlFlow<()>,
    ) -> StoreResult<()> {
        let block_size = self.inner.layout().block_size();
        self.inner
            .scan_blocks(blocks, projection, &mut |first, run| {
                let blocks = first.index()..first.index() + run.len().div_ceil(block_size);
                self.runs.lock().unwrap().push(blocks);
                visit(first, run)
            })
    }
}

#[test]
fn a_fetch_span_carried_across_a_planner_batch_is_scanned_as_one_run() {
    // Rounds of 1 000 five-row blocks from block 0: the second round's
    // fetches, blocks 1 000..2 000, come from two planner batches, split at
    // block 1 024, and its first partition holds blocks 1 000..1 256, one
    // run of at most 320 blocks, on both sides of that boundary.
    let scramble = Scramble::build_with(&accounting_table(), 17, ACCOUNTING_BLOCK).unwrap();
    assert_eq!(run_blocks(ACCOUNTING_BLOCK), 320);
    let query = AggQuery::avg("avg_x", Expr::col("x"))
        .absolute_width(0.0)
        .build();
    let config = EngineConfig::builder()
        .strategy(SamplingStrategy::Scan)
        .round_rows(1_000 * ACCOUNTING_BLOCK as u64)
        .start_block(0)
        .build();
    let path = temp_path("batch_boundary");
    write_segment(&scramble, &path).unwrap();
    let reader = SegmentReader::open(&path).unwrap();
    for (backing, inner) in [("mem", &scramble as &dyn BlockSource), ("seg", &reader)] {
        let recorder = RecordsRuns {
            inner,
            runs: Mutex::new(Vec::new()),
        };
        let result = PreparedQuery::new(&recorder, query.clone(), config.clone())
            .unwrap()
            .execute()
            .unwrap();
        assert_accounting(&result, backing);
        let runs = recorder.runs.into_inner().unwrap();
        assert!(runs.contains(&(1_000..1_256)), "{backing}: {runs:?}");
        assert!(
            runs.iter().all(|run| run.start != 1_024),
            "{backing}: a run starts at the batch boundary"
        );
    }
    std::fs::remove_file(&path).ok();
}

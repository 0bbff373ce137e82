//! Differential tests of run reads: `BlockSource::scan_blocks` must hand
//! its visitor exactly the blocks that per-block `read_block_projected`
//! returns, in list order, on both backings and under every projection.
//!
//! The segment reader fetches runs of consecutive blocks with one read and
//! decodes them into reused buffers, so the block lists below cover every
//! shape a run can take: consecutive runs, runs broken by skipped blocks
//! (as an active scan leaves them), a scan that wraps from the last block
//! to block 0, the ragged last block, a single block, an empty list, and a
//! run whose bytes exceed the reader's per-read cap.

use std::ops::ControlFlow;

use fastframe_store::block::BlockId;
use fastframe_store::column::{Column, ColumnData};
use fastframe_store::persist::{write_segment, SegmentReader};
use fastframe_store::scramble::Scramble;
use fastframe_store::source::{BlockRef, BlockSource};
use fastframe_store::table::{StoreError, Table};

/// Rows in the test table: 25-row blocks with a ragged 3-row last block.
const ROWS: usize = 40_003;
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
        ("every block, past the byte cap", (0..n).collect()),
    ]
}

/// One block's contents as comparable bits: the visited id, its row count,
/// and for every column its name plus — when the column is in the
/// projection — its rows' values (floats by bit pattern, codes with their
/// dictionary).
type BlockBits = (BlockId, usize, Vec<(String, Option<Vec<u64>>)>);

fn bits(block: BlockId, block_ref: &BlockRef<'_>, projection: Option<&[usize]>) -> BlockBits {
    let rows = block_ref.rows();
    let columns = block_ref
        .table()
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
        .collect();
    (block, block_ref.len(), columns)
}

fn via_scan(
    source: &dyn BlockSource,
    blocks: &[BlockId],
    projection: Option<&[usize]>,
) -> Vec<BlockBits> {
    let mut out = Vec::new();
    source
        .scan_blocks(blocks, projection, &mut |block, block_ref| {
            out.push(bits(block, &block_ref, projection));
            ControlFlow::Continue(())
        })
        .unwrap();
    out
}

fn via_single_reads(
    source: &dyn BlockSource,
    blocks: &[BlockId],
    projection: Option<&[usize]>,
) -> Vec<BlockBits> {
    blocks
        .iter()
        .map(|&block| {
            bits(
                block,
                &source.read_block_projected(block, projection).unwrap(),
                projection,
            )
        })
        .collect()
}

#[test]
fn scan_blocks_matches_single_block_reads_on_both_backings() {
    let scramble = Scramble::build_with(&table(), 5, 25).unwrap();
    let path = temp_path("differential");
    write_segment(&scramble, &path).unwrap();
    let reader = SegmentReader::open(&path).unwrap();
    let n = scramble.num_blocks();
    assert_eq!(
        scramble.block_rows(BlockId(n - 1)).len(),
        3,
        "ragged last block"
    );
    // The reader caps one read at 256 KiB; a run over every block must be
    // split into several reads.
    let file_bytes = std::fs::metadata(&path).unwrap().len();
    assert!(
        file_bytes > 2 * 256 * 1024,
        "segment of {file_bytes} bytes is too small"
    );

    for (shape, list) in block_lists(n) {
        let blocks: Vec<BlockId> = list.into_iter().map(BlockId).collect();
        for projection in projections() {
            let projection = projection.as_deref();
            let what = format!("{shape}, projection {projection:?}");
            let memory = via_single_reads(&scramble, &blocks, projection);
            assert_eq!(
                memory.iter().map(|b| b.0).collect::<Vec<_>>(),
                blocks,
                "{what}: visit order"
            );
            assert_eq!(
                via_scan(&scramble, &blocks, projection),
                memory,
                "{what}: memory"
            );
            assert_eq!(
                via_single_reads(&reader, &blocks, projection),
                memory,
                "{what}: segment single reads"
            );
            assert_eq!(
                via_scan(&reader, &blocks, projection),
                memory,
                "{what}: segment runs"
            );
        }
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn scan_blocks_stops_when_the_visitor_breaks() {
    let scramble = Scramble::build_with(&table(), 5, 25).unwrap();
    let path = temp_path("break");
    write_segment(&scramble, &path).unwrap();
    let reader = SegmentReader::open(&path).unwrap();
    let blocks: Vec<BlockId> = (0..100).map(BlockId).collect();
    for source in [&scramble as &dyn BlockSource, &reader] {
        let mut seen = Vec::new();
        source
            .scan_blocks(&blocks, Some(&[0]), &mut |block, _| {
                seen.push(block);
                if seen.len() == 7 {
                    ControlFlow::Break(())
                } else {
                    ControlFlow::Continue(())
                }
            })
            .unwrap();
        assert_eq!(seen, blocks[..7]);
    }
    // A block past the end fails the segment scan, after the blocks before
    // its run were visited.
    let mut visited = 0;
    let result = reader.scan_blocks(
        &[BlockId(3), BlockId(0), BlockId(99_999)],
        None,
        &mut |_, _| {
            visited += 1;
            ControlFlow::Continue(())
        },
    );
    assert!(matches!(result, Err(StoreError::Corrupt { .. })));
    assert_eq!(visited, 2);
    std::fs::remove_file(&path).ok();
}

//! Integration-test and example package for the FastFrame workspace.
//!
//! This package (`fastframe-tests`) lives in the repository's `tests/`
//! directory with its test files next to this stub rather than under a
//! `tests/` subdirectory, so `Cargo.toml` declares every target explicitly:
//!
//! * fifteen `[[test]]` targets — `ci_correctness`, `concurrency`,
//!   `count_sum`, `end_to_end`, `group_universe`, `persistence`,
//!   `progressive`, `property_bounders`, `reference`, `run_reads`,
//!   `sampling_strategies`, `scramble_build`, `skip_ledger`,
//!   `stopping_conditions`, and `workspace_smoke` — exercising the
//!   workspace crates end-to-end through the `Session` / `QueryBuilder` /
//!   `PreparedQuery` API (`reference` checks the scan pipeline against a
//!   naive row-at-a-time evaluator, `scramble_build` the scramble against
//!   its permutation definition);
//! * six `[[example]]` targets pointing at the repository-root `examples/`
//!   directory (`quickstart`, `persistence`, `progressive`,
//!   `expression_bounds`, `flights_having`, `top_airlines`), runnable via
//!   `cargo run --release -p fastframe-tests --example <name>`.
//!
//! This library target gives the package a primary target and holds the
//! fixtures several test files share, [`scramble_in_storage_order`] and
//! [`piece_range`]; all other substance lives in the test and example
//! files.

use std::ops::Range;

use fastframe_store::block::BlockId;
use fastframe_store::column::Column;
use fastframe_store::persist::format::{
    encode_piece, frame_of, GROUP_BLOCKS, HEADER_LEN, PAGE_BLOCKS,
};
use fastframe_store::scramble::Scramble;
use fastframe_store::table::Table;

/// Byte range of `block`'s piece of column `column` in a segment written
/// from `scramble`, laid out as `docs/FORMAT.md` specifies: right after the
/// header, row groups of [`GROUP_BLOCKS`] blocks, each holding one chunk
/// per column of pages of [`PAGE_BLOCKS`] blocks, each page one piece per
/// block. The offsets come from the format's encoders, not from a reader's
/// directory, so corruption tests do not trust the code under test.
pub fn piece_range(scramble: &Scramble, block: usize, column: usize) -> Range<usize> {
    let layout = scramble.layout();
    let num_blocks = layout.num_blocks();
    let rows = |blocks: Range<usize>| {
        layout.rows_of(BlockId(blocks.start)).start..layout.rows_of(BlockId(blocks.end - 1)).end
    };
    let mut offset = HEADER_LEN as usize;
    let mut piece = Vec::new();
    for group in (0..num_blocks).step_by(GROUP_BLOCKS) {
        let group_end = (group + GROUP_BLOCKS).min(num_blocks);
        for (ci, c) in scramble.table().columns().iter().enumerate() {
            for page in (group..group_end).step_by(PAGE_BLOCKS) {
                let page_end = (page + PAGE_BLOCKS).min(group_end);
                let frame = frame_of(c, rows(page..page_end));
                for b in page..page_end {
                    piece.clear();
                    encode_piece(c, rows(b..b + 1), frame, &mut piece);
                    if (b, ci) == (block, column) {
                        return offset..offset + piece.len();
                    }
                    offset += piece.len();
                }
            }
        }
    }
    unreachable!("block {block} column {column} is in the segment")
}

/// Builds a scramble whose *storage* order is exactly `columns` (each
/// column given in permuted row order). The scramble permutation depends
/// only on the seed and the row count, so it is read off a scramble of row
/// ids and inverted onto the input.
pub fn scramble_in_storage_order(columns: Vec<Column>, block_size: usize) -> Scramble {
    const SEED: u64 = 5;
    let n = columns[0].len();
    let ids = Table::new(vec![Column::int("id", (0..n as i64).collect())]).unwrap();
    let order = Scramble::build_with(&ids, SEED, block_size).unwrap();
    let original_row: Vec<usize> = (0..n)
        .map(|pos| order.table().column_at(0).numeric_value(pos).unwrap() as usize)
        .collect();
    let mut inverse = vec![0; n];
    for (pos, &row) in original_row.iter().enumerate() {
        inverse[row] = pos;
    }
    let desired = Table::new(columns).unwrap();
    let scramble = Scramble::build_with(&desired.permuted(&inverse), SEED, block_size).unwrap();
    for ci in 0..desired.num_columns() {
        for row in 0..n {
            assert_eq!(
                scramble.table().column_at(ci).value(row),
                desired.column_at(ci).value(row),
                "storage order was not reproduced"
            );
        }
    }
    scramble
}

//! Integration-test and example package for the FastFrame workspace.
//!
//! This package (`fastframe-tests`) lives in the repository's `tests/`
//! directory with its test files next to this stub rather than under a
//! `tests/` subdirectory, so `Cargo.toml` declares every target explicitly:
//!
//! * fourteen `[[test]]` targets — `ci_correctness`, `concurrency`,
//!   `count_sum`, `end_to_end`, `group_universe`, `persistence`,
//!   `progressive`, `property_bounders`, `reference`, `run_reads`,
//!   `sampling_strategies`, `skip_ledger`, `stopping_conditions`, and
//!   `workspace_smoke` — exercising the workspace crates end-to-end through
//!   the `Session` / `QueryBuilder` / `PreparedQuery` API (`reference`
//!   checks the scan pipeline against a naive row-at-a-time evaluator);
//! * six `[[example]]` targets pointing at the repository-root `examples/`
//!   directory (`quickstart`, `persistence`, `progressive`,
//!   `expression_bounds`, `flights_having`, `top_airlines`), runnable via
//!   `cargo run --release -p fastframe-tests --example <name>`.
//!
//! This library target gives the package a primary target and holds the
//! one fixture several test files share, [`scramble_in_storage_order`]; all
//! other substance lives in the test and example files.

use fastframe_store::column::Column;
use fastframe_store::scramble::Scramble;
use fastframe_store::table::Table;

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

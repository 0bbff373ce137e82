//! Integration-test and example package for the FastFrame workspace.
//!
//! This package (`fastframe-tests`) lives in the repository's `tests/`
//! directory with its test files next to this stub rather than under a
//! `tests/` subdirectory, so `Cargo.toml` declares every target explicitly:
//!
//! * twelve `[[test]]` targets — `ci_correctness`, `concurrency`,
//!   `count_sum`, `end_to_end`, `group_universe`, `persistence`,
//!   `progressive`, `property_bounders`, `reference`, `sampling_strategies`,
//!   `stopping_conditions`, and `workspace_smoke` — exercising the
//!   workspace crates end-to-end through the `Session` / `QueryBuilder` /
//!   `PreparedQuery` API (`reference` checks the scan pipeline against a
//!   naive row-at-a-time evaluator);
//! * six `[[example]]` targets pointing at the repository-root `examples/`
//!   directory (`quickstart`, `persistence`, `progressive`,
//!   `expression_bounds`, `flights_having`, `top_airlines`), runnable via
//!   `cargo run --release -p fastframe-tests --example <name>`.
//!
//! This library target exists only so the package has a primary target; all
//! substance lives in the test and example files.

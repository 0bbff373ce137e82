//! Shared harness utilities for the table/figure reproduction benches.
//!
//! Every `[[bench]]` target in this crate (with `harness = false`) is a small
//! program that regenerates one table or figure of the paper's evaluation
//! (§5): it builds the synthetic Flights dataset, runs the relevant queries
//! under the relevant configurations, and prints the same rows/series the
//! paper reports. Absolute numbers differ from the paper (the dataset here is
//! a scaled-down synthetic stand-in and the hardware is different); the
//! quantities to compare are the *relative* ones — who wins, by roughly what
//! factor, and where the crossovers fall. See `EXPERIMENTS.md` at the
//! repository root for the side-by-side discussion.
//!
//! Environment variables understood by all harnesses:
//!
//! * `FASTFRAME_ROWS` — rows in the synthetic Flights dataset
//!   (default 4 000 000).
//! * `FASTFRAME_AIRPORTS` — number of distinct origin airports (default 100).
//! * `FASTFRAME_SEED` — dataset / scramble seed (default 2021).
//! * `FASTFRAME_BENCH_RUNS` — repetitions per measurement; the reported time
//!   is the average (default 1; the paper used 3).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

use std::time::Duration;

use fastframe_core::bounder::BounderKind;
use fastframe_engine::config::{EngineConfig, SamplingStrategy};
use fastframe_engine::query::AggQuery;
use fastframe_engine::result::QueryResult;
use fastframe_engine::session::Session;
use fastframe_workloads::flights::{FlightsConfig, FlightsDataset};

/// The error probability used by every harness, matching the paper (§5.2).
pub const BENCH_DELTA: f64 = 1e-15;

/// Name under which every harness registers the Flights table in its
/// session.
pub const BENCH_TABLE: &str = "flights";

/// Reads an environment variable as a parsed value with a default.
pub fn env_or<T: std::str::FromStr>(name: &str, default: T) -> T {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// The dataset size (rows) used by the harnesses.
pub fn bench_rows() -> usize {
    env_or("FASTFRAME_ROWS", 4_000_000)
}

/// Number of repetitions per measurement.
pub fn bench_runs() -> usize {
    env_or("FASTFRAME_BENCH_RUNS", 1usize).max(1)
}

/// Builds the benchmark dataset and a [`Session`] with it registered under
/// [`BENCH_TABLE`].
pub fn build_flights_session() -> (FlightsDataset, Session) {
    let config = FlightsConfig::default()
        .rows(bench_rows())
        .airports(env_or("FASTFRAME_AIRPORTS", 100usize))
        .seed(env_or("FASTFRAME_SEED", 2_021u64));
    eprintln!(
        "[harness] generating synthetic Flights dataset: {} rows, {} airports (seed {})",
        config.rows, config.airports, config.seed
    );
    let dataset = FlightsDataset::generate(config).expect("dataset generation succeeds");
    let mut session = Session::new();
    dataset
        .register_into(&mut session, BENCH_TABLE)
        .expect("scramble construction succeeds");
    let scramble = session.scramble(BENCH_TABLE).expect("table registered");
    eprintln!(
        "[harness] {} ({} blocks of {} rows)",
        dataset.describe(),
        scramble.num_blocks(),
        scramble.layout().block_size()
    );
    (dataset, session)
}

/// One measured execution.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// Label of the configuration measured (e.g. `Bernstein+RT`).
    pub label: String,
    /// Average wall-clock time across runs.
    pub wall: Duration,
    /// Blocks fetched (identical across runs — execution is deterministic
    /// for a fixed start block).
    pub blocks_fetched: u64,
    /// Whether the query terminated before exhausting the scramble.
    pub converged: bool,
    /// The last run's full result (for correctness checks).
    pub result: QueryResult,
}

impl Measurement {
    /// Wall-clock speedup relative to a baseline measurement.
    pub fn speedup_over(&self, baseline: &Measurement) -> f64 {
        baseline.wall.as_secs_f64() / self.wall.as_secs_f64().max(1e-12)
    }

    /// Blocks-fetched speedup relative to a baseline measurement.
    pub fn block_speedup_over(&self, baseline: &Measurement) -> f64 {
        baseline.blocks_fetched as f64 / self.blocks_fetched.max(1) as f64
    }
}

/// Runs `query` approximately under the given bounder/strategy, repeating
/// `bench_runs()` times and averaging the wall time.
pub fn run_approx(
    session: &Session,
    query: &AggQuery,
    bounder: BounderKind,
    strategy: SamplingStrategy,
) -> Measurement {
    let config = EngineConfig::builder()
        .bounder(bounder)
        .strategy(strategy)
        .delta(BENCH_DELTA)
        .seed(0xF1A9)
        .build();
    let prepared = session
        .prepare(BENCH_TABLE, query)
        .expect("query prepares")
        .with_config(config);
    let runs = bench_runs();
    let mut total = Duration::ZERO;
    let mut last = None;
    for _ in 0..runs {
        let result = prepared.execute().expect("query executes");
        total += result.metrics.wall_time;
        last = Some(result);
    }
    let result = last.expect("at least one run");
    Measurement {
        label: format!("{}/{}", bounder.label(), strategy.label()),
        wall: total / runs as u32,
        blocks_fetched: result.metrics.blocks_fetched(),
        converged: result.converged,
        result,
    }
}

/// Runs the exact baseline for `query`.
pub fn run_exact(session: &Session, query: &AggQuery) -> Measurement {
    let prepared = session.prepare(BENCH_TABLE, query).expect("query prepares");
    let runs = bench_runs();
    let mut total = Duration::ZERO;
    let mut last = None;
    for _ in 0..runs {
        let result = prepared.execute_exact().expect("exact query executes");
        total += result.metrics.wall_time;
        last = Some(result);
    }
    let result = last.expect("at least one run");
    Measurement {
        label: "Exact".to_string(),
        wall: total / runs as u32,
        blocks_fetched: result.metrics.blocks_fetched(),
        converged: true,
        result,
    }
}

/// Checks that an approximate result selects exactly the same groups as the
/// exact baseline — the correctness metric of §5.3. Panics (failing the
/// bench) on mismatch, since with δ = 10⁻¹⁵ a mismatch indicates a bug rather
/// than bad luck.
pub fn assert_same_selection(query_label: &str, approx: &Measurement, exact: &Measurement) {
    let mut a = approx.result.selected_labels();
    let mut e = exact.result.selected_labels();
    a.sort();
    e.sort();
    assert_eq!(
        a, e,
        "[{query_label}] approximate selection differs from exact ({})",
        approx.label
    );
}

/// Formats a duration as milliseconds with two decimals: at 1M rows most
/// query times are a few milliseconds, which three decimals of a second
/// would round to one or two digits.
pub fn fmt_ms(d: Duration) -> String {
    format!("{:.2}", d.as_secs_f64() * 1e3)
}

/// Prints a Markdown-style table row.
pub fn print_row(cells: &[String]) {
    println!("| {} |", cells.join(" | "));
}

/// Prints a Markdown-style header plus separator.
pub fn print_header(cells: &[&str]) {
    println!("| {} |", cells.join(" | "));
    println!(
        "|{}|",
        cells.iter().map(|_| "---").collect::<Vec<_>>().join("|")
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_or_parses_and_defaults() {
        std::env::remove_var("FASTFRAME_TEST_VAR");
        assert_eq!(env_or("FASTFRAME_TEST_VAR", 7usize), 7);
        std::env::set_var("FASTFRAME_TEST_VAR", "13");
        assert_eq!(env_or("FASTFRAME_TEST_VAR", 7usize), 13);
        std::env::set_var("FASTFRAME_TEST_VAR", "not-a-number");
        assert_eq!(env_or("FASTFRAME_TEST_VAR", 7usize), 7);
        std::env::remove_var("FASTFRAME_TEST_VAR");
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(fmt_ms(Duration::from_millis(1_500)), "1500.00");
        assert_eq!(fmt_ms(Duration::from_micros(2_346)), "2.35");
    }
}

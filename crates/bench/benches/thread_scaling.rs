//! Thread-scaling harness for the partitioned scan/aggregation pipeline:
//! round throughput (rows/s) of a full-pass grouped AVG at 1, 2, 4 and 8
//! scan threads, the same query's Exact baseline at each thread count, and
//! a bitwise determinism cross-check between the single-threaded and pooled
//! runs of both.
//!
//! The workload is a fixed full scramble pass (an unsatisfiable stopping
//! condition), so every configuration scans exactly the same rows and the
//! wall-time ratio is a pure pipeline-throughput comparison. Results land in
//! `EXPERIMENTS.md`; on a multi-core machine the 4-thread row is expected at
//! ≥ 1.5× the single-threaded throughput, while on a single-core container
//! the table instead quantifies the pipeline's overhead.
//!
//! Run with `cargo bench -p fastframe-bench --bench thread_scaling`.
//! Environment: `FASTFRAME_ROWS` (default 1 000 000 here), `FASTFRAME_SEED`,
//! `FASTFRAME_BENCH_RUNS`, `FASTFRAME_SCALING_THREADS` (comma-separated
//! list, default `1,2,4,8`).

use std::time::{Duration, Instant};

use fastframe_bench::{env_or, print_header, print_row};
use fastframe_core::bounder::BounderKind;
use fastframe_engine::config::{EngineConfig, SamplingStrategy};
use fastframe_engine::session::{Session, TableOptions};
use fastframe_engine::QueryResult;
use fastframe_store::column::Column;
use fastframe_store::expr::Expr;
use fastframe_store::table::Table;

fn dataset(rows: usize, seed: u64) -> Table {
    let mut values = Vec::with_capacity(rows);
    let mut groups = Vec::with_capacity(rows);
    let mut state = seed | 1;
    for i in 0..rows {
        // xorshift pseudo-noise, deterministic per seed.
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        let group = (state % 8) as usize;
        let noise = (state >> 8) % 1000;
        values.push(group as f64 * 12.0 + noise as f64 / 100.0);
        groups.push(format!("g{}", (group + i) % 8));
    }
    Table::new(vec![
        Column::float("v", values),
        Column::categorical("g", &groups),
    ])
    .unwrap()
}

fn config(threads: usize) -> EngineConfig {
    EngineConfig::builder()
        .bounder(BounderKind::BernsteinRangeTrim)
        .strategy(SamplingStrategy::Scan)
        .delta(1e-15)
        // Large rounds amortize round-boundary synchronization and match the
        // paper-scale default better than the tiny test rounds.
        .round_rows(200_000)
        .start_block(0)
        .threads(threads)
        .build()
}

/// The fastest of `FASTFRAME_BENCH_RUNS` runs of the full pass at
/// `threads` scan threads, approximate or as the Exact baseline.
fn run(session: &Session, threads: usize, exact: bool) -> (Duration, QueryResult) {
    let runs = env_or("FASTFRAME_BENCH_RUNS", 1usize).max(1);
    let mut best = Duration::MAX;
    let mut last = None;
    for _ in 0..runs {
        let start = Instant::now();
        let query = session
            .query("scaling")
            .avg(Expr::col("v"))
            .group_by("g")
            .absolute_width(0.0) // unsatisfiable: a fixed full pass
            .config(config(threads));
        let result = if exact {
            query.execute_exact()
        } else {
            query.execute()
        };
        best = best.min(start.elapsed());
        last = Some(result.expect("query runs"));
    }
    (best, last.expect("at least one run"))
}

fn main() {
    let rows = env_or("FASTFRAME_ROWS", 1_000_000usize);
    let seed = env_or("FASTFRAME_SEED", 2021u64);
    let thread_list: Vec<usize> = std::env::var("FASTFRAME_SCALING_THREADS")
        .unwrap_or_else(|_| "1,2,4,8".to_string())
        .split(',')
        .filter_map(|t| t.trim().parse().ok())
        .collect();

    println!("# Thread scaling — partitioned scan pipeline, full-pass grouped AVG");
    println!();
    println!(
        "{rows} rows, 8 groups, Bernstein+RT, Scan strategy, round_rows=200000; \
         host parallelism = {}",
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    println!();
    print_header(&[
        "Threads",
        "Wall (ms)",
        "Rows/s",
        "Speedup vs 1",
        "Rounds",
        "Exact (ms)",
    ]);

    let mut session = Session::new();
    session
        .register_with(
            "scaling",
            &dataset(rows, seed),
            TableOptions::default().seed(seed),
        )
        .expect("table registers");

    let mut baseline: Option<(Duration, QueryResult, QueryResult)> = None;
    for &threads in &thread_list {
        let (wall, result) = run(&session, threads, false);
        let (exact_wall, exact) = run(&session, threads, true);
        let scanned = result.metrics.scan.rows_scanned;
        let rows_per_s = scanned as f64 / wall.as_secs_f64();
        let speedup = baseline
            .as_ref()
            .map(|(b, _, _)| b.as_secs_f64() / wall.as_secs_f64())
            .unwrap_or(1.0);
        print_row(&[
            threads.to_string(),
            format!("{:.1}", wall.as_secs_f64() * 1e3),
            format!("{:.2e}", rows_per_s),
            format!("{speedup:.2}x"),
            result.metrics.rounds.to_string(),
            format!("{:.1}", exact_wall.as_secs_f64() * 1e3),
        ]);

        // Determinism cross-check: every configuration's full-pass estimates
        // must be bitwise identical to the single-threaded baseline's.
        if let Some((_, base, base_exact)) = &baseline {
            assert_eq!(base.groups.len(), result.groups.len());
            for (a, b) in base.groups.iter().zip(&result.groups) {
                assert_eq!(a.key, b.key, "group order must not depend on threads");
                assert_eq!(
                    a.estimate.map(f64::to_bits),
                    b.estimate.map(f64::to_bits),
                    "thread count changed the estimate of {}",
                    a.key.display()
                );
                assert_eq!(a.ci.lo.to_bits(), b.ci.lo.to_bits());
                assert_eq!(a.ci.hi.to_bits(), b.ci.hi.to_bits());
            }
            assert_eq!(
                base.metrics.scan.rows_scanned,
                result.metrics.scan.rows_scanned
            );
            for (a, b) in base_exact.groups.iter().zip(&exact.groups) {
                assert_eq!(
                    a.estimate.map(f64::to_bits),
                    b.estimate.map(f64::to_bits),
                    "thread count changed the Exact estimate of {}",
                    a.key.display()
                );
            }
        } else {
            baseline = Some((wall, result, exact));
        }
    }
    println!();
    println!(
        "(determinism cross-check passed: estimates and CI bounds bitwise identical, \
         Exact estimates too)"
    );
}

//! Concurrency tests for the partitioned scan/aggregation pipeline:
//!
//! * **determinism** — `threads = 1` and `threads = 4` must produce
//!   bit-for-bit identical per-group estimates, CI bounds, group order and
//!   scan counters for *random* queries (property test), because partition
//!   boundaries and the merge order depend only on the planned block list;
//! * **budgets under concurrency** — `max_rows` is enforced at
//!   partition-grant time and never exceeded; a deadline firing mid-scan
//!   still finalizes a valid, unconverged [`ProgressiveResult`];
//! * **degenerate pool shapes** — one thread, more threads than blocks, and
//!   scans whose rounds go empty (everything skipped / nothing matching)
//!   all complete without deadlock or panic;
//! * **metrics consistency** — the race-free per-partition [`ExecMetrics`]
//!   counters, merged at round end, agree exactly with the storage-level
//!   scan counters;
//! * **panics** — a panic inside a partition's scan re-raises on the
//!   caller with its original message, whichever scan thread hit it, and
//!   never hangs the query.

use std::ops::{ControlFlow, Range};
use std::panic::{self, AssertUnwindSafe};
use std::sync::{mpsc, Condvar, Mutex};
use std::thread::ThreadId;
use std::time::Duration;

use proptest::prelude::*;

use fastframe_core::bounder::BounderKind;
use fastframe_engine::config::{EngineConfig, SamplingStrategy};
use fastframe_engine::progressive::{Budget, CancellationReason, RoundControl};
use fastframe_engine::session::{Session, TableOptions};
use fastframe_engine::{AggQuery, PreparedQuery, ProgressiveResult, QueryResult};
use fastframe_store::bitmap::BlockBitmapIndex;
use fastframe_store::block::{BlockId, BlockLayout};
use fastframe_store::catalog::Catalog;
use fastframe_store::column::Column;
use fastframe_store::expr::Expr;
use fastframe_store::predicate::Predicate;
use fastframe_store::scramble::Scramble;
use fastframe_store::source::{BlockRef, BlockSource, GroupUniverseCache};
use fastframe_store::table::{StoreResult, Table};
use fastframe_store::zone::ZoneMap;

const TABLE: &str = "t";

/// A synthetic table with three well-separated groups, a filter column and
/// deterministic pseudo-noise.
fn table(rows: usize) -> Table {
    let mut values = Vec::with_capacity(rows);
    let mut groups = Vec::with_capacity(rows);
    let mut flags = Vec::with_capacity(rows);
    for i in 0..rows {
        let group = match i % 4 {
            0 | 1 => "alpha",
            2 => "beta",
            _ => "gamma",
        };
        let base = match group {
            "alpha" => 5.0,
            "beta" => 20.0,
            _ => 40.0,
        };
        let noise = ((i * 2_654_435_761) % 1000) as f64 / 100.0 - 5.0;
        values.push(base + noise);
        groups.push(group.to_string());
        flags.push(if i % 3 == 0 { "on" } else { "off" }.to_string());
    }
    Table::new(vec![
        Column::float("v", values),
        Column::categorical("g", &groups),
        Column::categorical("flag", &flags),
    ])
    .unwrap()
}

fn session(rows: usize) -> Session {
    let mut s = Session::new();
    s.register(TABLE, &table(rows)).unwrap();
    s
}

fn config(threads: usize, seed: u64, strategy: SamplingStrategy) -> EngineConfig {
    EngineConfig::builder()
        .bounder(BounderKind::BernsteinRangeTrim)
        .strategy(strategy)
        .delta(1e-9)
        .round_rows(500)
        .seed(seed)
        .threads(threads)
        .build()
}

/// Asserts two results are *bit-for-bit* identical in everything the
/// determinism guarantee covers: group order, estimates, CI bounds, sample
/// counts, and the scan counters.
fn assert_identical(a: &QueryResult, b: &QueryResult) {
    assert_eq!(a.groups.len(), b.groups.len());
    for (ga, gb) in a.groups.iter().zip(&b.groups) {
        assert_eq!(ga.key, gb.key, "group order must not depend on threads");
        assert_eq!(
            ga.estimate.map(f64::to_bits),
            gb.estimate.map(f64::to_bits),
            "estimate bits differ for {}",
            ga.key.display()
        );
        assert_eq!(ga.ci.lo.to_bits(), gb.ci.lo.to_bits(), "ci.lo bits differ");
        assert_eq!(ga.ci.hi.to_bits(), gb.ci.hi.to_bits(), "ci.hi bits differ");
        assert_eq!(ga.samples, gb.samples);
        assert_eq!(ga.exact, gb.exact);
    }
    assert_eq!(a.selected_labels(), b.selected_labels());
    assert_eq!(a.converged, b.converged);
    assert_eq!(a.metrics.scan.rows_scanned, b.metrics.scan.rows_scanned);
    assert_eq!(a.metrics.blocks_fetched(), b.metrics.blocks_fetched());
    assert_eq!(a.metrics.rounds, b.metrics.rounds);
}

/// The exec counters a worker pool reports must agree exactly with the
/// storage-level counters, at any thread count.
fn assert_exec_consistent(r: &QueryResult) {
    assert_eq!(r.metrics.exec.blocks_fetched, r.metrics.scan.blocks_fetched);
    assert_eq!(r.metrics.exec.rows_scanned, r.metrics.scan.rows_scanned);
    assert_eq!(r.metrics.exec.rows_matched, r.metrics.scan.rows_matched);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Determinism is a hard invariant: for random queries and seeds,
    /// `threads=1` and `threads=4` produce identical per-group estimates,
    /// CI bounds and rows_scanned.
    #[test]
    fn thread_count_never_changes_results(
        seed in 0u64..1_000,
        strategy_idx in 0usize..3,
        agg in 0usize..3,
        grouped in any::<bool>(),
        filtered in any::<bool>(),
    ) {
        let s = session(6_000);
        let strategy = SamplingStrategy::ALL[strategy_idx];
        let run = |threads: usize| {
            let mut q = s.query(TABLE);
            q = match agg {
                0 => q.avg(Expr::col("v")),
                1 => q.sum(Expr::col("v")),
                _ => q.count(),
            };
            if grouped {
                q = q.group_by("g");
            }
            if filtered {
                q = q.filter(Predicate::cat_eq("flag", "on"));
            }
            q.relative_error(0.2)
                .config(config(threads, seed, strategy))
                .execute()
                .unwrap()
        };
        let single = run(1);
        let pooled = run(4);
        assert_identical(&single, &pooled);
        assert_exec_consistent(&single);
        assert_exec_consistent(&pooled);
    }
}

#[test]
fn progressive_snapshots_are_identical_across_thread_counts() {
    let s = session(8_000);
    let run = |threads: usize| -> ProgressiveResult {
        s.query(TABLE)
            .avg(Expr::col("v"))
            .group_by("g")
            .relative_error(0.25)
            .config(config(threads, 7, SamplingStrategy::Scan))
            .progressive()
            .unwrap()
    };
    let single = run(1);
    let pooled = run(4);
    assert_eq!(single.rounds(), pooled.rounds());
    for (sa, sb) in single.snapshots.iter().zip(&pooled.snapshots) {
        assert_eq!(sa.round, sb.round);
        assert_eq!(sa.rows_scanned, sb.rows_scanned);
        assert_eq!(sa.blocks_fetched, sb.blocks_fetched);
        assert_eq!(sa.converged, sb.converged);
        for (ga, gb) in sa.groups.iter().zip(&sb.groups) {
            assert_eq!(ga.key, gb.key);
            assert_eq!(ga.estimate.to_bits(), gb.estimate.to_bits());
            assert_eq!(ga.ci.lo.to_bits(), gb.ci.lo.to_bits());
            assert_eq!(ga.ci.hi.to_bits(), gb.ci.hi.to_bits());
            assert_eq!(ga.samples, gb.samples);
        }
    }
    assert_identical(&single.result, &pooled.result);
}

#[test]
fn row_cap_is_never_exceeded_under_concurrency() {
    let s = session(10_000);
    for threads in [1usize, 2, 4, 8] {
        for cap in [137u64, 1_000, 4_321] {
            let p = s
                .query(TABLE)
                .avg(Expr::col("v"))
                .group_by("g")
                .absolute_width(0.0) // unsatisfiable: only the budget stops it
                .config(config(threads, 3, SamplingStrategy::Scan))
                .budget(Budget::unlimited().max_rows(cap))
                .progressive()
                .unwrap();
            assert_eq!(p.cancellation, Some(CancellationReason::RowBudget));
            assert!(
                p.result.metrics.scan.rows_scanned <= cap,
                "threads={threads} cap={cap}: scanned {} rows",
                p.result.metrics.scan.rows_scanned
            );
            for snap in &p.snapshots {
                assert!(snap.rows_scanned <= cap);
            }
            // The cancelled result is still a valid approximation.
            assert!(!p.converged());
            for g in &p.result.groups {
                assert!(!g.exact);
                assert!(g.ci.lo <= g.ci.hi);
            }
            assert_exec_consistent(&p.result);
        }
    }
}

#[test]
fn row_cap_grants_are_thread_count_independent() {
    // The set of granted blocks (hence rows_scanned at cancellation) is
    // decided before workers see any block, so it must match exactly.
    let s = session(10_000);
    let run = |threads: usize| {
        s.query(TABLE)
            .avg(Expr::col("v"))
            .group_by("g")
            .absolute_width(0.0)
            .config(config(threads, 11, SamplingStrategy::Scan))
            .budget(Budget::unlimited().max_rows(2_222))
            .progressive()
            .unwrap()
    };
    let a = run(1);
    let b = run(4);
    assert_eq!(
        a.result.metrics.scan.rows_scanned,
        b.result.metrics.scan.rows_scanned
    );
    assert_identical(&a.result, &b.result);
}

#[test]
fn deadline_mid_scan_finalizes_a_valid_unconverged_result() {
    let s = session(10_000);
    for threads in [1usize, 4] {
        // A zero deadline fires before the first batch; a tiny nonzero one
        // fires at some batch boundary mid-scan. Both must finalize cleanly.
        for deadline in [Duration::ZERO, Duration::from_micros(200)] {
            let p = s
                .query(TABLE)
                .avg(Expr::col("v"))
                .group_by("g")
                .absolute_width(0.0)
                .config(config(threads, 5, SamplingStrategy::Scan))
                .budget(Budget::unlimited().deadline(deadline))
                .progressive()
                .unwrap();
            // The unsatisfiable condition means the scan either hit the
            // deadline or (if the machine was fast enough to finish a full
            // pass first) exhausted the scramble; both are valid ends.
            assert!(!p.converged());
            assert_eq!(p.result.groups.len(), 3);
            for g in &p.result.groups {
                assert!(g.ci.lo <= g.ci.hi);
            }
            if p.cancellation == Some(CancellationReason::Deadline) {
                for g in &p.result.groups {
                    assert!(!g.exact);
                }
            }
            assert_exec_consistent(&p.result);
        }
    }
}

#[test]
fn caller_stop_mid_round_is_clean_under_concurrency() {
    let s = session(10_000);
    for threads in [1usize, 4] {
        let p = s
            .query(TABLE)
            .avg(Expr::col("v"))
            .group_by("g")
            .absolute_width(0.0)
            .config(config(threads, 5, SamplingStrategy::Scan))
            .stream(|snap| {
                if snap.round >= 2 {
                    RoundControl::Stop
                } else {
                    RoundControl::Continue
                }
            })
            .unwrap();
        assert_eq!(p.cancellation, Some(CancellationReason::Caller));
        assert_eq!(p.rounds(), 2);
        assert_exec_consistent(&p.result);
    }
}

#[test]
fn more_threads_than_blocks_completes() {
    // 200 rows with the default block size → a handful of blocks, far fewer
    // than the pool size; idle workers must park and the scan must finish.
    let s = session(200);
    let r = s
        .query(TABLE)
        .avg(Expr::col("v"))
        .group_by("g")
        .relative_error(0.5)
        .config(config(64, 1, SamplingStrategy::Scan))
        .execute()
        .unwrap();
    assert_eq!(r.groups.len(), 3);
    assert_eq!(r.metrics.threads, 64);
    assert_exec_consistent(&r);

    let single = s
        .query(TABLE)
        .avg(Expr::col("v"))
        .group_by("g")
        .relative_error(0.5)
        .config(config(1, 1, SamplingStrategy::Scan))
        .execute()
        .unwrap();
    assert_identical(&single, &r);
}

#[test]
fn empty_rounds_and_empty_views_do_not_deadlock() {
    let s = session(4_000);
    for threads in [1usize, 4] {
        // A numeric predicate matching no row: every block is fetched (no
        // bitmap can skip a numeric predicate) but no row ever reaches a
        // view, so every round's aggregate state stays empty until the full
        // pass ends.
        let r = s
            .query(TABLE)
            .avg(Expr::col("v"))
            .filter(Predicate::num_gt("v", 1e12))
            .relative_error(0.5)
            .config(config(threads, 2, SamplingStrategy::Scan))
            .execute()
            .unwrap();
        assert!(!r.converged);
        assert_eq!(r.metrics.scan.rows_matched, 0);
        let g = r.global().unwrap();
        assert_eq!(g.samples, 0);
        assert!(g.ci.lo <= g.ci.hi);
        assert_exec_consistent(&r);

        // An ActiveSync scan whose active set empties (the stopping
        // condition is satisfied at the first round) must terminate rather
        // than keep planning empty batches.
        let r = s
            .query(TABLE)
            .avg(Expr::col("v"))
            .group_by("g")
            .relative_error(0.9)
            .config(config(threads, 2, SamplingStrategy::ActiveSync))
            .execute()
            .unwrap();
        assert!(r.converged);
        assert_exec_consistent(&r);
    }
}

#[test]
fn single_block_table_completes_at_any_thread_count() {
    // Fewer blocks than partitions than threads: the degenerate extreme.
    let s = session(20);
    for threads in [1usize, 2, 16] {
        let r = s
            .query(TABLE)
            .count()
            .relative_error(0.9)
            .config(config(threads, 0, SamplingStrategy::Scan))
            .execute()
            .unwrap();
        assert_eq!(r.global().unwrap().samples, 20);
        assert_exec_consistent(&r);
    }
}

#[test]
fn exec_metrics_partitions_reflect_the_pipeline() {
    let s = session(6_000);
    let r = s
        .query(TABLE)
        .avg(Expr::col("v"))
        .group_by("g")
        .absolute_width(0.0)
        .config(config(4, 9, SamplingStrategy::Scan))
        .execute()
        .unwrap();
    // A full pass over 6000 rows in 500-row rounds: many merged partitions,
    // each reported exactly once.
    assert!(r.metrics.exec.partitions > 0);
    assert_eq!(r.metrics.threads, 4);
    assert_exec_consistent(&r);
}

/// Rounds of 255, 256 and 257 blocks sit on the edges of the length-only
/// layout's 256-block minimum, and rounds of 383, 384 and 385 on those of
/// the per-view term, which for 3 views of one-row blocks asks for
/// ⌈128 · 3 / 1⌉ = 384 blocks: one partition, one full partition, two. A
/// 16 384-block round has 43. Results must still be bitwise equal at 1 and
/// 8 threads.
#[test]
fn partition_layout_edges_are_thread_count_independent() {
    let t = table(20_000);
    let (values, groups) = (t.column("v").unwrap(), t.column("g").unwrap());
    let labels = groups.dictionary().unwrap();
    let mut sums = std::collections::HashMap::<String, (f64, f64)>::new();
    for row in 0..t.num_rows() {
        let label = &labels[groups.category_code(row).unwrap() as usize];
        let entry = sums.entry(label.clone()).or_default();
        entry.0 += values.float_values().unwrap()[row];
        entry.1 += 1.0;
    }
    let truths: std::collections::HashMap<String, f64> =
        sums.into_iter().map(|(g, (sum, n))| (g, sum / n)).collect();
    let mut s = Session::new();
    s.register_with(TABLE, &t, TableOptions::default().block_size(1))
        .unwrap();
    for round_blocks in [255u64, 256, 257, 383, 384, 385, 16_384] {
        let run = |threads: usize| {
            let config = EngineConfig::builder()
                .bounder(BounderKind::BernsteinRangeTrim)
                .strategy(SamplingStrategy::Scan)
                .delta(1e-9)
                .round_rows(round_blocks)
                .seed(4)
                .threads(threads)
                .build();
            s.query(TABLE)
                .avg(Expr::col("v"))
                .group_by("g")
                .absolute_width(0.0)
                .config(config)
                .execute()
                .unwrap()
        };
        let (one, eight) = (run(1), run(8));
        assert_identical(&one, &eight);
        assert_exec_consistent(&eight);
        // A full pass: the partials merged across partitions give the true
        // group means.
        for g in &one.groups {
            let truth = truths[&g.key.display()];
            let estimate = g.estimate.unwrap();
            assert!(
                (estimate - truth).abs() <= 1e-9 * truth.abs(),
                "{}: {estimate} vs {truth}",
                g.key.display()
            );
        }
        // The full pass scans ⌊20 000 / n⌋ whole rounds and one remainder;
        // a round of `b` one-row blocks over 3 views has
        // ⌈b / max(⌈b/64⌉, 256, ⌈128 · 3 / 1⌉)⌉ partitions.
        let parts = |b: u64| b.div_ceil(b.div_ceil(64).max(256).max(128 * 3));
        let rounds = 20_000 / round_blocks;
        let expected = rounds * parts(round_blocks) + parts(20_000 % round_blocks);
        assert_eq!(one.metrics.exec.partitions, expected, "n={round_blocks}");
        assert_eq!(eight.metrics.exec.partitions, expected, "n={round_blocks}");
    }
}

/// A query with many views gets partitions of at least 128 rows per view:
/// 64 groups over 40 000 rows of 25-row blocks ask for
/// ⌈128 · 64 / 25⌉ = 328-block partitions, so a 20 000-row round (800
/// blocks) merges three and Exact's single round (1 600 blocks) five. The
/// partition counts follow that rule, and every estimate and CI bound is
/// bitwise equal at 1, 2 and 4 threads, in memory and on a segment.
#[test]
fn many_view_partitions_follow_the_view_aware_rule_on_every_backing() {
    const ROWS: usize = 40_000;
    const GROUPS: u64 = 64;
    let labels: Vec<String> = (0..ROWS)
        .map(|i| format!("g{:02}", (i * 7_919) % GROUPS as usize))
        .collect();
    let values = (0..ROWS)
        .map(|i| ((i * 2_654_435_761) % 1_000) as f64 / 10.0 + (i % 7) as f64)
        .collect();
    let t = Table::new(vec![
        Column::float("v", values),
        Column::categorical("g", &labels),
    ])
    .unwrap();
    let mut s = Session::new();
    s.register("mem", &t).unwrap();
    assert_eq!(s.scramble("mem").unwrap().layout().block_size(), 25);
    let path = std::env::temp_dir().join(format!(
        "fastframe_concurrency_many_views_{}.ffseg",
        std::process::id()
    ));
    s.save_table("mem", &path).unwrap();
    s.open_table("seg", &path).unwrap();

    // The rule: a round of `b` blocks over `GROUPS` views of 25-row blocks
    // is cut into partitions of max(⌈b/64⌉, 256, ⌈128 · GROUPS / 25⌉).
    let parts = |b: u64| b.div_ceil(b.div_ceil(64).max(256).max((128 * GROUPS).div_ceil(25)));
    let (round_blocks, blocks) = (800, ROWS as u64 / 25);
    let approx_parts = (blocks / round_blocks) * parts(round_blocks);
    assert_eq!((approx_parts, parts(blocks)), (6, 5));

    let run = |backing: &str, threads: usize, exact: bool| {
        let config = EngineConfig::builder()
            .bounder(BounderKind::BernsteinRangeTrim)
            .strategy(SamplingStrategy::Scan)
            .delta(1e-9)
            .round_rows(round_blocks * 25)
            .seed(3)
            .threads(threads)
            .build();
        let query = s
            .query(backing)
            .avg(Expr::col("v"))
            .group_by("g")
            .absolute_width(0.0)
            .config(config);
        let result = if exact {
            query.execute_exact()
        } else {
            query.execute()
        };
        result.unwrap()
    };
    for exact in [false, true] {
        let reference = run("mem", 1, exact);
        assert_eq!(reference.groups.len(), GROUPS as usize);
        for backing in ["mem", "seg"] {
            for threads in [1, 2, 4] {
                let result = run(backing, threads, exact);
                let expected = if exact { parts(blocks) } else { approx_parts };
                assert_eq!(
                    result.metrics.exec.partitions, expected,
                    "{backing}, {threads} threads, exact={exact}"
                );
                assert_identical(&reference, &result);
                assert_exec_consistent(&result);
            }
        }
    }
    std::fs::remove_file(&path).ok();
}

/// A query with more than 100 views grows its rounds after the first: 700
/// groups (7 × 100, F-q6's shape) over 28 000 rows of 25-row blocks, with
/// 600-row rounds, take 600, 1 200 and 2 400 rows, then ⌈700/100⌉ · 600 =
/// 4 200 rows a round, and the last 2 800 rows in the tail merge. Every
/// snapshot's `rows_scanned` follows that schedule, and every snapshot's
/// intervals, every final estimate and CI bound and the block counts are
/// bitwise equal at 1 and 4 threads, in memory and on a segment.
#[test]
fn many_view_rounds_grow_identically_on_every_backing() {
    const ROWS: usize = 28_000;
    let (days, origins): (Vec<String>, Vec<String>) = (0..ROWS)
        .map(|i| (format!("d{}", i % 7), format!("o{:02}", (i / 7) % 100)))
        .unzip();
    let values = (0..ROWS)
        .map(|i| ((i * 2_654_435_761) % 1_000) as f64 / 10.0 + (i % 7) as f64)
        .collect();
    let t = Table::new(vec![
        Column::float("v", values),
        Column::categorical("day", &days),
        Column::categorical("origin", &origins),
    ])
    .unwrap();
    let mut s = Session::new();
    s.register("mem", &t).unwrap();
    assert_eq!(s.scramble("mem").unwrap().layout().block_size(), 25);
    let path = std::env::temp_dir().join(format!(
        "fastframe_concurrency_growing_rounds_{}.ffseg",
        std::process::id()
    ));
    s.save_table("mem", &path).unwrap();
    s.open_table("seg", &path).unwrap();

    // Round k (from 0) spans 24 · min(2^k, 7) blocks of 25 rows.
    let mut steps = Vec::new();
    let (mut scanned, mut k) = (0, 0);
    loop {
        let step = 24 * (1u64 << k).min(7) * 25;
        if scanned + step > ROWS as u64 {
            break;
        }
        steps.push(step);
        scanned += step;
        k += 1;
    }
    assert_eq!(steps[..5], [600, 1_200, 2_400, 4_200, 4_200]);
    assert_eq!((steps.len(), ROWS as u64 - scanned), (8, 2_800));

    let run = |backing: &str, threads: usize| {
        let config = EngineConfig::builder()
            .bounder(BounderKind::BernsteinRangeTrim)
            .strategy(SamplingStrategy::Scan)
            .delta(1e-9)
            .round_rows(600)
            .seed(5)
            .threads(threads)
            .build();
        s.query(backing)
            .avg(Expr::col("v"))
            .group_by("day")
            .group_by("origin")
            .absolute_width(0.0)
            .config(config)
            .progressive()
            .unwrap()
    };
    let reference = run("mem", 1);
    assert_eq!(reference.result.groups.len(), 700);
    let rows: Vec<u64> = reference.snapshots.iter().map(|s| s.rows_scanned).collect();
    let diffs: Vec<u64> = rows
        .iter()
        .scan(0, |prev, &r| Some(r - std::mem::replace(prev, r)))
        .collect();
    assert_eq!(diffs, steps);
    // The final evaluation follows the tail merge, which has no snapshot.
    assert_eq!(reference.result.metrics.rounds, steps.len() as u64 + 1);
    assert_eq!(reference.result.metrics.scan.rows_scanned, ROWS as u64);
    for backing in ["mem", "seg"] {
        for threads in [1, 4] {
            let other = run(backing, threads);
            assert_identical(&reference.result, &other.result);
            assert_exec_consistent(&other.result);
            assert_eq!(other.snapshots.len(), reference.snapshots.len());
            for (a, b) in reference.snapshots.iter().zip(&other.snapshots) {
                assert_eq!(
                    (a.round, a.rows_scanned, a.blocks_fetched),
                    (b.round, b.rows_scanned, b.blocks_fetched),
                    "{backing}, {threads} threads"
                );
                for (ga, gb) in a.groups.iter().zip(&b.groups) {
                    assert_eq!(ga.key, gb.key);
                    assert_eq!(ga.estimate.to_bits(), gb.estimate.to_bits());
                    assert_eq!(ga.ci.lo.to_bits(), gb.ci.lo.to_bits());
                    assert_eq!(ga.ci.hi.to_bits(), gb.ci.hi.to_bits());
                    assert_eq!(ga.samples, gb.samples);
                }
            }
        }
    }
    std::fs::remove_file(&path).ok();
}

/// What a [`HookedSource`] does in place of a partition scan.
trait ScanHook: Sync {
    fn scan(
        &self,
        inner: &Scramble,
        blocks: &[Range<usize>],
        projection: Option<&[usize]>,
        visit: &mut dyn FnMut(BlockId, BlockRef<'_>) -> ControlFlow<()>,
    ) -> StoreResult<()>;
}

/// Delegates to a scramble, except that every partition scan goes through
/// its hook.
struct HookedSource<'a, H> {
    inner: &'a Scramble,
    hook: H,
}

impl<H: ScanHook> BlockSource for HookedSource<'_, H> {
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

    fn read_block_projected(
        &self,
        block: BlockId,
        projection: Option<&[usize]>,
    ) -> StoreResult<BlockRef<'_>> {
        self.inner.read_block_projected(block, projection)
    }

    fn scan_blocks(
        &self,
        blocks: &[Range<usize>],
        projection: Option<&[usize]>,
        visit: &mut dyn FnMut(BlockId, BlockRef<'_>) -> ControlFlow<()>,
    ) -> StoreResult<()> {
        self.hook.scan(self.inner, blocks, projection, visit)
    }

    fn group_universe_cache(&self) -> Option<&GroupUniverseCache> {
        self.inner.group_universe_cache()
    }
}

/// A scan reaching the block visits the blocks before it and then panics.
struct PanicAt(BlockId);

impl PanicAt {
    fn message(&self) -> String {
        format!("scan reached block {}", self.0 .0)
    }
}

impl ScanHook for PanicAt {
    fn scan(
        &self,
        inner: &Scramble,
        blocks: &[Range<usize>],
        projection: Option<&[usize]>,
        visit: &mut dyn FnMut(BlockId, BlockRef<'_>) -> ControlFlow<()>,
    ) -> StoreResult<()> {
        let at = self.0.index();
        match blocks.iter().position(|range| range.contains(&at)) {
            None => inner.scan_blocks(blocks, projection, visit),
            Some(cut) => {
                let mut before = blocks[..cut].to_vec();
                before.push(blocks[cut].start..at);
                inner.scan_blocks(&before, projection, visit)?;
                panic!("{}", self.message())
            }
        }
    }
}

/// A panic in a partition's scan — the first partition, which the
/// coordinator scans, or a later one, which a helper may take — re-raises
/// on the caller with its original message at every thread count, and the
/// query returns instead of hanging.
#[test]
fn a_panic_in_a_scan_re_raises_on_the_caller() {
    // One-row blocks, 3 views and one 4 000-block round: 11 partitions of
    // 384 blocks (the last 160).
    let scramble: &'static Scramble =
        Box::leak(Box::new(Scramble::build_with(&table(4_000), 7, 1).unwrap()));
    for panic_at in [0, 3_000] {
        for threads in [1, 2, 4] {
            let (done_tx, done) = mpsc::channel();
            std::thread::spawn(move || {
                let source = HookedSource {
                    inner: scramble,
                    hook: PanicAt(BlockId(panic_at)),
                };
                let query = AggQuery::avg("q", Expr::col("v"))
                    .group_by("g")
                    .absolute_width(0.0)
                    .build();
                let config = EngineConfig::builder()
                    .strategy(SamplingStrategy::Scan)
                    .round_rows(4_000)
                    .start_block(0)
                    .threads(threads)
                    .build();
                let prepared = PreparedQuery::new(&source, query, config).unwrap();
                let outcome = panic::catch_unwind(AssertUnwindSafe(|| prepared.execute()));
                let message = match outcome {
                    Ok(result) => Err(format!("returned {:?}", result.map(|r| r.groups))),
                    Err(payload) => payload
                        .downcast::<String>()
                        .map(|m| *m)
                        .map_err(|_| "a payload that is not a String".to_string()),
                };
                done_tx.send((message, source.hook.message())).unwrap();
            });
            let (message, want) = done
                .recv_timeout(Duration::from_secs(120))
                .unwrap_or_else(|_| panic!("block {panic_at}, {threads} threads: hung"));
            assert_eq!(message, Ok(want), "block {panic_at}, {threads} threads");
        }
    }
}

/// Holds the calling thread's first partition scan until the other scan
/// threads have finished `want` partition scans, or 30 s have passed.
struct HoldCaller {
    caller: ThreadId,
    want: usize,
    helper_scans: Mutex<usize>,
    scanned: Condvar,
    /// Set when the caller's first scan is released: the helper scans
    /// finished by then, `Err` if it waited in vain.
    held: Mutex<Option<Result<usize, usize>>>,
}

impl ScanHook for HoldCaller {
    fn scan(
        &self,
        inner: &Scramble,
        blocks: &[Range<usize>],
        projection: Option<&[usize]>,
        visit: &mut dyn FnMut(BlockId, BlockRef<'_>) -> ControlFlow<()>,
    ) -> StoreResult<()> {
        if std::thread::current().id() != self.caller {
            let scanned = inner.scan_blocks(blocks, projection, visit);
            *self.helper_scans.lock().unwrap() += 1;
            self.scanned.notify_all();
            return scanned;
        }
        let mut held = self.held.lock().unwrap();
        if held.is_none() {
            let scans = self.helper_scans.lock().unwrap();
            let (scans, wait) = self
                .scanned
                .wait_timeout_while(scans, Duration::from_secs(30), |n| *n < self.want)
                .unwrap();
            *held = Some(if wait.timed_out() {
                Err(*scans)
            } else {
                Ok(*scans)
            });
        }
        drop(held);
        inner.scan_blocks(blocks, projection, visit)
    }
}

/// The coordinator scans its share, but only it merges and queues, so its
/// scan must not hold up the helpers: while it scans one partition, they
/// scan every other partition of the first `2 · threads`, which are queued
/// before anyone scans. (Should the helpers take every job, the coordinator
/// scans nothing and nothing is held.)
#[test]
fn helpers_keep_scanning_while_the_coordinator_scans() {
    // One-row blocks and one 4 000-block Exact round: 16 partitions.
    let scramble = Scramble::build_with(&table(4_000), 7, 1).unwrap();
    for threads in [2, 4] {
        let source = HookedSource {
            inner: &scramble,
            hook: HoldCaller {
                caller: std::thread::current().id(),
                want: 2 * threads - 1,
                helper_scans: Mutex::new(0),
                scanned: Condvar::new(),
                held: Mutex::new(None),
            },
        };
        let query = AggQuery::avg("q", Expr::col("v")).build();
        let config = EngineConfig::builder().threads(threads).build();
        let result = PreparedQuery::new(&source, query, config)
            .unwrap()
            .execute_exact()
            .unwrap();
        assert_eq!(result.metrics.exec.partitions, 16);
        let held = *source.hook.held.lock().unwrap();
        assert!(
            matches!(held, None | Some(Ok(_))),
            "{threads} threads: the helpers finished {held:?} scans while the coordinator's \
             first scan waited for {}",
            2 * threads - 1
        );
    }
}

//! The skip ledger: what each group missed when blocks were skipped, and
//! what the engine concludes from it.
//!
//! * **exactness** — after a full pass, a group is exact exactly when its
//!   ledger is clean. A block the predicate rules out (by its bitmap or a
//!   zone map) holds none of any group's rows, so skipping it cannot make
//!   a group inexact, whatever the group does later (it may go inactive);
//!   hand-placed blocks check that under every strategy, and a property
//!   test checks every group marked exact against the Exact baseline on
//!   random tables;
//! * **coverage** — at δ = 0.2, where a miss is possible, the per-group
//!   miss rate of early-stopped AVG and COUNT runs stays within δ plus
//!   binomial slack under every strategy, over hundreds of scramble seeds;
//!   so does that of AVG and SUM runs whose rounds merge several
//!   partitions, started from the views' seeds; and so do the per-group and
//!   the simultaneous miss rates of a many-view query whose rounds grow.

use std::collections::HashMap;
use std::sync::Arc;

use proptest::prelude::*;

use fastframe_core::bounder::BounderKind;
use fastframe_engine::config::SamplingStrategy;
use fastframe_engine::query::AggQueryBuilder;
use fastframe_engine::{AggQuery, EngineConfig, PreparedQuery, QueryResult};
use fastframe_store::column::{Column, Value};
use fastframe_store::predicate::Predicate;
use fastframe_store::scramble::Scramble;
use fastframe_store::table::Table;
use fastframe_store::Expr;
use fastframe_tests::scramble_in_storage_order;

fn cat(name: &str, dictionary: &[&str], codes: Vec<u32>) -> Column {
    Column::categorical_from_codes(
        name,
        Arc::new(dictionary.iter().map(|s| s.to_string()).collect()),
        codes,
    )
}

fn config(strategy: SamplingStrategy, delta: f64, round_rows: u64) -> EngineConfig {
    EngineConfig::builder()
        .bounder(BounderKind::BernsteinRangeTrim)
        .strategy(strategy)
        .delta(delta)
        .round_rows(round_rows)
        .start_block(0)
        .threads(1)
        .build()
}

fn run(scramble: &Scramble, query: &AggQuery, config: EngineConfig) -> QueryResult {
    PreparedQuery::new(scramble, query.clone(), config)
        .unwrap()
        .execute()
        .unwrap()
}

/// 60 blocks of 5 rows. Blocks 10–14 hold only `f = 'n'`, so the predicate
/// bitmap skips them, after round 1 (10 blocks a round). Every other block
/// holds 4 rows of group A (`v = 5`) and 1 row of group B. A reaches 100
/// samples in round 3 and goes inactive; B never does, so the scan makes a
/// full pass, and since every block holds a B row, no block is skipped for
/// being inactive. A has then been read whole: 220 rows, all of value 5.
#[test]
fn a_group_inactive_after_a_predicate_skip_is_exact_after_a_full_pass() {
    let (mut g, mut f, mut v) = (Vec::new(), Vec::new(), Vec::new());
    for block in 0..60 {
        for slot in 0..5 {
            let skipped = (10..15).contains(&block);
            let in_a = !skipped && slot < 4;
            g.push(if in_a { 0 } else { 1 });
            f.push(if skipped { 1 } else { 0 });
            v.push(if in_a { 5.0 } else { 1.0 });
        }
    }
    let scramble = scramble_in_storage_order(
        vec![
            cat("g", &["A", "B"], g),
            cat("f", &["y", "n"], f),
            Column::float("v", v),
        ],
        5,
    );
    let query = AggQuery::avg("avg-v", Expr::col("v"))
        .filter(Predicate::cat_eq("f", "y"))
        .group_by("g")
        .sample_count(100)
        .build();
    for strategy in SamplingStrategy::ALL {
        let result = run(&scramble, &query, config(strategy, 0.05, 50));
        assert!(!result.converged, "{strategy}: B never reaches 100 samples");
        assert_eq!(result.metrics.scan.blocks_skipped, 5, "{strategy}");
        let a = result
            .groups
            .iter()
            .find(|g| g.key.display() == "A")
            .unwrap();
        assert!(a.exact, "{strategy}: A was read whole: {a:?}");
        assert_eq!(a.samples, 220, "{strategy}");
        assert_eq!(a.estimate, Some(5.0), "{strategy}");
        assert!(
            (a.ci.lo - 5.0).abs() < 1e-8 && (a.ci.hi - 5.0).abs() < 1e-8,
            "{strategy}: {:?}",
            a.ci
        );
    }
}

/// 60 blocks of 5 rows. Group A has 3 rows in each of blocks 0–20 (63 in
/// all); group B has one row in each of blocks 0–29; both have `f = 'y'`.
/// Every other row is B's with `f = 'n'`, so the predicate bitmap skips
/// blocks 30–59. A reaches 40 samples in round 2 (10 blocks a round) and
/// goes inactive; B never does, so the scan makes a full pass. A's only
/// skipped blocks are predicate skips, passed after it went inactive. Such
/// a block holds none of any group's rows, so A has been counted whole.
/// Charged to A as rows of unknown membership, they would keep it inexact
/// and scale its count of 63 to 126.
#[test]
fn a_count_group_inactive_before_predicate_skips_is_exact_after_a_full_pass() {
    let (mut g, mut f) = (Vec::new(), Vec::new());
    for block in 0..60 {
        for slot in 0..5 {
            let in_a = block < 21 && slot < 3;
            let in_b = block < 30 && slot == 3;
            g.push(if in_a { 0 } else { 1 });
            f.push(if in_a || in_b { 0 } else { 1 });
        }
    }
    let scramble =
        scramble_in_storage_order(vec![cat("g", &["A", "B"], g), cat("f", &["y", "n"], f)], 5);
    let query = AggQuery::count("count")
        .filter(Predicate::cat_eq("f", "y"))
        .group_by("g")
        .sample_count(40)
        .build();
    for strategy in SamplingStrategy::ALL {
        let result = run(&scramble, &query, config(strategy, 0.05, 50));
        assert!(!result.converged, "{strategy}: B never reaches 40 samples");
        assert_eq!(result.metrics.scan.blocks_skipped, 30, "{strategy}");
        let a = result
            .groups
            .iter()
            .find(|g| g.key.display() == "A")
            .unwrap();
        assert!(a.exact, "{strategy}: A was counted whole: {a:?}");
        assert_eq!(a.samples, 63, "{strategy}");
        assert_eq!(a.estimate, Some(63.0), "{strategy}");
        for ci in [a.ci, a.count_ci] {
            assert!(
                (ci.lo - 63.0).abs() < 1e-6 && (ci.hi - 63.0).abs() < 1e-6,
                "{strategy}: {ci:?}"
            );
        }
    }
}

/// The zone-map counterpart of the test above, over 3 072 blocks of 5 rows
/// so that ActiveSync and ActivePeek decide the third batch of 1 024
/// blocks against a real active set. Group A has 3 rows with `t = 100` in
/// each of blocks 0–20 (63 in all); group B has one such row in each of
/// blocks 0–29 and its other rows there have `t = 0`. Blocks 30–3 071 hold
/// only A's rows, all with `t = 0`, so the zone map of `t` rules them out
/// for `t > 50`. A reaches 40 samples in round 2 (10 blocks a round) and
/// goes inactive; B never does, so the scan makes a full pass. No active
/// group has rows in A's later blocks, but the predicate matches none of
/// their rows either: they are pruned, A has been counted whole, and it is
/// exact with its true count of 63. Scan, which never skips a block for
/// being inactive, is the control.
#[test]
fn a_group_inactive_before_zone_map_skips_is_exact_after_a_full_pass() {
    let (mut g, mut t) = (Vec::new(), Vec::new());
    for block in 0..3_072 {
        for slot in 0..5 {
            let in_a = block < 21 && slot < 3;
            let in_b = block < 30 && slot == 3;
            g.push(if block < 30 && !in_a { 1 } else { 0 });
            t.push(if in_a || in_b { 100.0 } else { 0.0 });
        }
    }
    let scramble =
        scramble_in_storage_order(vec![cat("g", &["A", "B"], g), Column::float("t", t)], 5);
    let query = AggQuery::count("count")
        .filter(Predicate::num_gt("t", 50.0))
        .group_by("g")
        .sample_count(40)
        .build();
    for strategy in SamplingStrategy::ALL {
        let result = run(&scramble, &query, config(strategy, 0.05, 50));
        assert!(!result.converged, "{strategy}: B never reaches 40 samples");
        assert_eq!(result.metrics.scan.blocks_skipped, 3_042, "{strategy}");
        let a = result
            .groups
            .iter()
            .find(|g| g.key.display() == "A")
            .unwrap();
        assert!(a.exact, "{strategy}: A was counted whole: {a:?}");
        assert_eq!(a.samples, 63, "{strategy}");
        assert_eq!(a.estimate, Some(63.0), "{strategy}");
        for ci in [a.ci, a.count_ci] {
            assert!(
                (ci.lo - 63.0).abs() < 1e-6 && (ci.hi - 63.0).abs() < 1e-6,
                "{strategy}: {ci:?}"
            );
        }
    }
}

/// A random table for the exactness property: `rows` rows of two GROUP BY
/// columns with skewed codes (so blocks lack some groups and active
/// scanning skips them), a predicate column and a float target.
fn random_scramble(rows: usize, block_size: usize, seed: u64, draw: &[u32]) -> Scramble {
    let code = |i: usize, salt: usize, cardinality: u32| -> u32 {
        let x = draw[(i * 7 + salt) % draw.len()];
        // Code 0 is most frequent: about half the rows, then halving.
        (x.trailing_zeros()).min(cardinality - 1)
    };
    let g: Vec<u32> = (0..rows).map(|i| code(i, 1, 4)).collect();
    let h: Vec<u32> = (0..rows).map(|i| code(i, 3, 3)).collect();
    let f: Vec<u32> = (0..rows).map(|i| code(i, 5, 3)).collect();
    let v: Vec<f64> = (0..rows)
        .map(|i| f64::from(draw[(i * 13 + 2) % draw.len()] % 1_000) / 10.0)
        .collect();
    let table = Table::new(vec![
        cat("g", &["g0", "g1", "g2", "g3"], g),
        cat("h", &["h0", "h1", "h2"], h),
        cat("f", &["f0", "f1", "f2"], f),
        Column::float("v", v),
    ])
    .unwrap();
    Scramble::build_with(&table, seed, block_size).unwrap()
}

/// Every group an approximate run marks exact was read whole: with samples
/// it has Exact's sample count and estimate, without samples Exact omits
/// it. Random tables of up to 3 000 blocks (so ActiveSync and ActivePeek
/// decide later batches against real active sets), categorical, range and
/// `Or` predicates, one or two GROUP BY columns, AVG and COUNT, under every
/// strategy.
#[test]
fn groups_marked_exact_match_the_exact_baseline() {
    const CASES: usize = 128;
    let cases = (
        (20usize..3_000, 1usize..6, 0u64..1_000),
        proptest::collection::vec(any::<u32>(), 64..128),
        (0u32..6, any::<bool>(), any::<bool>()),
        (1u64..200, 1u64..6),
    );
    let mut rng = proptest::TestRng::deterministic("groups_marked_exact_match_the_exact_baseline");
    let (mut exact_groups, mut exact_after_skips) = (0usize, 0usize);
    for _ in 0..CASES {
        let ((rows, block_size, seed), draw, (predicate, two_columns, count), (m, round_blocks)) =
            cases.sample(&mut rng);
        let scramble = random_scramble(rows, block_size, seed, &draw);
        let builder: AggQueryBuilder = if count {
            AggQuery::count("c")
        } else {
            AggQuery::avg("a", Expr::col("v"))
        };
        let mut builder = builder.group_by("g");
        if two_columns {
            builder = builder.group_by("h");
        }
        // 0–2 filter on that code of `f`, 3 on a range of `v` (zone maps),
        // 4 on either a rare code or a range; 5 is unfiltered.
        match predicate {
            0..3 => builder = builder.filter(Predicate::cat_eq("f", format!("f{predicate}"))),
            3 => builder = builder.filter(Predicate::num_gt("v", 80.0)),
            4 => {
                builder = builder.filter(Predicate::Or(vec![
                    Predicate::cat_eq("f", "f2"),
                    Predicate::num_lt("v", 10.0),
                ]))
            }
            _ => {}
        }
        let query = builder.sample_count(m).build();
        let exact = PreparedQuery::new(&scramble, query.clone(), EngineConfig::default())
            .unwrap()
            .execute_exact()
            .unwrap();
        let round_rows = round_blocks * block_size as u64;
        for strategy in SamplingStrategy::ALL {
            let result = run(&scramble, &query, config(strategy, 0.05, round_rows));
            for group in result.groups.iter().filter(|g| g.exact) {
                let what = format!("{strategy} {} in {query:?}", group.key.display());
                assert!(!result.converged, "{what}: exact only after a full pass");
                let reference = exact.groups.iter().find(|e| e.key == group.key);
                if group.samples == 0 {
                    assert!(reference.is_none(), "{what}: no row, but Exact answers it");
                    continue;
                }
                let reference = reference.expect("Exact answers every group with rows");
                assert_eq!(group.samples, reference.samples, "{what}");
                let (a, e) = (group.estimate.unwrap(), reference.estimate.unwrap());
                assert!((a - e).abs() <= 1e-9 * e.abs(), "{what}: {a} vs {e}");
                exact_groups += 1;
                if strategy != SamplingStrategy::Scan && result.metrics.scan.blocks_skipped > 0 {
                    exact_after_skips += 1;
                }
            }
        }
    }
    // Not vacuous: many groups are exact, also under the active strategies
    // after skipped blocks.
    assert!(exact_groups > 500, "{exact_groups} exact groups");
    assert!(exact_after_skips > 200, "{exact_after_skips}");
}

/// The coverage table: 5 000 rows in one-row blocks, three groups holding
/// 70 %, 20 % and 10 % of the rows with overlapping value spreads. Once the
/// big group converges, active scanning skips its rows. The scan runs well
/// past the first two batches of 1 024 blocks, which ActivePeek decides
/// against the initial all-active set, and skips thousands of rows of
/// unknown membership for the big group.
fn coverage_table() -> Table {
    let n = 5_000;
    let (mut g, mut v) = (Vec::with_capacity(n), Vec::with_capacity(n));
    for i in 0..n {
        let (group, base, spread) = match (i * 7_919) % 100 {
            0..=69 => (0, 40.0, 20.0),
            70..=89 => (1, 45.0, 25.0),
            _ => (2, 50.0, 20.0),
        };
        g.push(group);
        let noise = ((i * 2_654_435_761) % 1_000) as f64 / 1_000.0;
        v.push(base + spread * noise);
    }
    Table::new(vec![
        cat("g", &["big", "mid", "small"], g),
        Column::float("v", v),
    ])
    .unwrap()
}

/// Per-group truth of the coverage table: (mean of `v`, row count).
fn coverage_truth(table: &Table) -> HashMap<String, (f64, f64)> {
    let mut sums: HashMap<String, (f64, u64)> = HashMap::new();
    for row in 0..table.num_rows() {
        let Some(Value::Str(key)) = table.column_at(0).value(row) else {
            unreachable!("`g` is categorical")
        };
        let value = table.column_at(1).numeric_value(row).unwrap();
        let entry = sums.entry(key).or_default();
        entry.0 += value;
        entry.1 += 1;
    }
    sums.into_iter()
        .map(|(k, (sum, n))| (k, (sum / n as f64, n as f64)))
        .collect()
}

/// Before the skip ledger bounded COUNT with the skipped rows of unknown
/// membership, the big group's COUNT interval missed in every run under
/// ActiveSync and ActivePeek: its scanned rows were the blocks *not*
/// skipped for holding only its rows, so their selectivity was biased low.
#[test]
fn per_group_miss_rates_stay_within_delta_under_every_strategy() {
    const SEEDS: u64 = 500;
    const DELTA: f64 = 0.2;
    let table = coverage_table();
    let truth = coverage_truth(&table);
    let queries = [
        (
            "AVG",
            AggQuery::avg("avg", Expr::col("v"))
                .group_by("g")
                .absolute_width(10.0)
                .build(),
        ),
        (
            "COUNT",
            AggQuery::count("count")
                .group_by("g")
                .relative_error(0.4)
                .build(),
        ),
    ];
    let bound = DELTA + 3.0 * (DELTA * (1.0 - DELTA) / SEEDS as f64).sqrt();
    let mut report = Vec::new();
    for strategy in SamplingStrategy::ALL {
        for (aggregate, query) in &queries {
            let mut misses: HashMap<String, u64> = HashMap::new();
            let (mut early, mut skipping) = (0u64, 0u64);
            for seed in 0..SEEDS {
                let scramble = Scramble::build_with(&table, seed, 1).unwrap();
                let result = run(&scramble, query, config(strategy, DELTA, 250));
                early += u64::from(result.converged);
                skipping += u64::from(result.metrics.scan.blocks_skipped > 0);
                for group in &result.groups {
                    let label = group.key.display();
                    let (mean, count) = truth[&label];
                    let expected = if *aggregate == "AVG" { mean } else { count };
                    *misses.entry(label).or_default() += u64::from(!group.ci.contains(expected));
                }
            }
            assert!(
                early * 2 > SEEDS,
                "{strategy} {aggregate}: only {early} of {SEEDS} runs stopped early"
            );
            if strategy != SamplingStrategy::Scan {
                assert!(
                    skipping * 2 > SEEDS,
                    "{strategy} {aggregate}: only {skipping} of {SEEDS} runs skipped a block"
                );
            }
            let mut groups: Vec<_> = misses.into_iter().collect();
            groups.sort();
            for (label, missed) in &groups {
                let rate = *missed as f64 / SEEDS as f64;
                assert!(
                    rate <= bound,
                    "{strategy} {aggregate} {label}: miss rate {rate} > {bound}"
                );
            }
            report.push(format!(
                "{strategy} {aggregate}: {early}/{SEEDS} stopped early, \
                 {skipping} skipped, misses {groups:?}"
            ));
        }
    }
    // `cargo test -- --nocapture` prints the rates recorded in EXPERIMENTS.md.
    println!("{}", report.join("\n"));
}

/// Rounds of 600 one-row blocks are cut into two partitions (384 and 216
/// blocks: 3 views ask for at least 128 rows each), so every round merges
/// partials, and from a group's second round on they start from its
/// master's seed: its round-start extremes and shift. The test checks that
/// premise: every run that takes two rounds or more merges at least two
/// partitions per round. At δ = 0.2 the per-group miss rates of
/// Bernstein+RT and Hoeffding+RT, AVG and SUM, stay within δ plus binomial
/// slack, over runs that mostly take two rounds or more and stop early.
#[test]
fn per_group_miss_rates_stay_within_delta_when_partitions_merge() {
    const SEEDS: u64 = 400;
    const DELTA: f64 = 0.2;
    let table = coverage_table();
    let truth = coverage_truth(&table);
    let queries = [
        (
            "AVG",
            AggQuery::avg("avg", Expr::col("v"))
                .group_by("g")
                .absolute_width(8.0)
                .build(),
        ),
        (
            "SUM",
            AggQuery::sum("sum", Expr::col("v"))
                .group_by("g")
                .relative_error(0.2)
                .build(),
        ),
    ];
    let bounders = [
        BounderKind::BernsteinRangeTrim,
        BounderKind::HoeffdingRangeTrim,
    ];
    let bound = DELTA + 3.0 * (DELTA * (1.0 - DELTA) / SEEDS as f64).sqrt();
    let mut misses: HashMap<(BounderKind, &str, String), u64> = HashMap::new();
    let mut runs: HashMap<(BounderKind, &str), (u64, u64, u64)> = HashMap::new();
    for seed in 0..SEEDS {
        let scramble = Scramble::build_with(&table, seed, 1).unwrap();
        for bounder in bounders {
            let config = EngineConfig::builder()
                .bounder(bounder)
                .strategy(SamplingStrategy::Scan)
                .delta(DELTA)
                .round_rows(600)
                .start_block(0)
                .threads(1)
                .build();
            for (aggregate, query) in &queries {
                let result = run(&scramble, query, config.clone());
                let (early, merged, partitions) = runs.entry((bounder, aggregate)).or_default();
                *early += u64::from(result.converged);
                // `rounds` counts the final evaluation too, so a run
                // evaluated `rounds − 1` full rounds.
                let full_rounds = result.metrics.rounds - 1;
                if full_rounds >= 2 {
                    *merged += 1;
                    assert!(
                        result.metrics.exec.partitions >= 2 * full_rounds,
                        "{bounder} {aggregate} seed {seed}: {} partitions over {full_rounds} \
                         rounds",
                        result.metrics.exec.partitions
                    );
                }
                *partitions += result.metrics.exec.partitions;
                for group in &result.groups {
                    let label = group.key.display();
                    let (mean, count) = truth[&label];
                    let expected = if *aggregate == "AVG" {
                        mean
                    } else {
                        mean * count
                    };
                    *misses.entry((bounder, aggregate, label)).or_default() +=
                        u64::from(!group.ci.contains(expected));
                }
            }
        }
    }
    let mut report: Vec<_> = runs.into_iter().collect();
    report.sort_by_key(|((bounder, aggregate), _)| (bounder.to_string(), *aggregate));
    for ((bounder, aggregate), (early, merged, partitions)) in &report {
        println!(
            "{bounder} {aggregate}: {early}/{SEEDS} stopped early, {merged} took two rounds \
             or more, {partitions} partitions"
        );
        assert!(
            early * 2 > SEEDS,
            "{bounder} {aggregate}: {early} stopped early"
        );
        assert!(
            merged * 2 > SEEDS,
            "{bounder} {aggregate}: {merged} took 2 rounds"
        );
    }
    let mut misses: Vec<_> = misses.into_iter().collect();
    misses.sort_by_key(|((bounder, aggregate, label), _)| {
        (bounder.to_string(), *aggregate, label.clone())
    });
    for ((bounder, aggregate, label), missed) in &misses {
        let rate = *missed as f64 / SEEDS as f64;
        println!("{bounder} {aggregate} {label}: miss rate {rate}");
        assert!(
            rate <= bound,
            "{bounder} {aggregate} {label}: miss rate {rate} > {bound}"
        );
    }
}

/// A query with more than 100 views grows its rounds after the first, so it
/// is evaluated less often: 120 groups of 400 rows each, in one-row blocks,
/// with 1 200-row rounds, take 1 200 and then ⌈120/100⌉ · 1 200 = 2 400
/// fetched rows a round. At δ = 0.2 under ActivePeek, the per-group miss
/// rate and the simultaneous miss rate (runs in which any group misses) of
/// Bernstein+RT AVG and COUNT stay within δ plus binomial slack; every
/// run's rounds follow the growing schedule, and some runs stop early.
#[test]
fn miss_rates_stay_within_delta_when_many_view_rounds_grow() {
    const SEEDS: u64 = 300;
    const DELTA: f64 = 0.2;
    const GROUPS: usize = 120;
    const ROUND: u64 = 1_200;
    let n = GROUPS * 400;
    let (mut g, mut v) = (Vec::with_capacity(n), Vec::with_capacity(n));
    for i in 0..n {
        let group = (i * 7_919) % GROUPS;
        g.push(group as u32);
        let noise = ((i * 2_654_435_761) % 1_000) as f64 / 1_000.0;
        v.push((group % 10) as f64 * 0.5 + 5.0 * noise);
    }
    let labels: Vec<String> = (0..GROUPS).map(|i| format!("g{i:03}")).collect();
    let labels: Vec<&str> = labels.iter().map(String::as_str).collect();
    let table = Table::new(vec![cat("g", &labels, g), Column::float("v", v)]).unwrap();
    let truth = coverage_truth(&table);
    let queries = [
        (
            "AVG",
            AggQuery::avg("avg", Expr::col("v"))
                .group_by("g")
                .absolute_width(7.0)
                .build(),
        ),
        (
            "COUNT",
            AggQuery::count("count")
                .group_by("g")
                .relative_error(0.8)
                .build(),
        ),
    ];
    // Round k (from 0) fetches 1 200 · min(2^k, ⌈120/100⌉) one-row blocks.
    let step = |k: usize| ROUND * if k == 0 { 1 } else { 2 };
    let bound = DELTA + 3.0 * (DELTA * (1.0 - DELTA) / SEEDS as f64).sqrt();
    // Per aggregate: per-group misses, runs stopped early, runs with a miss.
    let mut tally: Vec<(HashMap<String, u64>, u64, u64)> = vec![Default::default(); 2];
    for seed in 0..SEEDS {
        let scramble = Scramble::build_with(&table, seed, 1).unwrap();
        for ((aggregate, query), (misses, early, any_miss)) in queries.iter().zip(&mut tally) {
            let run = PreparedQuery::new(
                &scramble,
                query.clone(),
                config(SamplingStrategy::ActivePeek, DELTA, ROUND),
            )
            .unwrap()
            .progressive()
            .unwrap();
            let rows: Vec<u64> = run.snapshots.iter().map(|s| s.rows_scanned).collect();
            assert!(rows.len() >= 2, "{aggregate} seed {seed}: {rows:?}");
            let mut before = 0;
            for (k, &after) in rows.iter().enumerate() {
                assert_eq!(after - before, step(k), "{aggregate} seed {seed}: {rows:?}");
                before = after;
            }
            *early += u64::from(run.result.converged);
            let mut missed = false;
            for group in &run.result.groups {
                let label = group.key.display();
                let (mean, count) = truth[&label];
                let expected = if *aggregate == "AVG" { mean } else { count };
                let miss = !group.ci.contains(expected);
                *misses.entry(label).or_default() += u64::from(miss);
                missed |= miss;
            }
            *any_miss += u64::from(missed);
        }
    }
    for ((aggregate, _), (misses, early, any_miss)) in queries.iter().zip(&tally) {
        let worst = misses.values().copied().max().unwrap_or(0);
        println!(
            "{aggregate}: {early}/{SEEDS} stopped early, simultaneous miss rate {}, \
             worst per-group miss rate {} over {} groups",
            *any_miss as f64 / SEEDS as f64,
            worst as f64 / SEEDS as f64,
            misses.len()
        );
        assert_eq!(misses.len(), GROUPS);
        assert!(*early > 0, "{aggregate}: no run stopped early");
        for (label, missed) in misses {
            let rate = *missed as f64 / SEEDS as f64;
            assert!(
                rate <= bound,
                "{aggregate} {label}: miss rate {rate} > {bound}"
            );
        }
        let rate = *any_miss as f64 / SEEDS as f64;
        assert!(
            rate <= bound,
            "{aggregate}: simultaneous miss rate {rate} > {bound}"
        );
    }
}

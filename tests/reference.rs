//! Differential tests of the scan pipeline against a naive reference
//! evaluator.
//!
//! Every query the engine runs, approximate or Exact, scans rows through
//! one batch pipeline (columnar predicate kernels over selection vectors,
//! projection pushdown, a dense group table, per-row record updates). The
//! reference below shares none of that code: it copies a materialized
//! table into plain rows through the `Table` / `Column` accessors, then
//! walks them one at a time with its own predicate, target and grouping
//! logic.
//!
//! For random predicates × aggregates × targets × group-bys × selections,
//! on the in-memory and the segment backing at `threads = 1` and
//! `threads = 4`, both Exact and an approximate full pass (unsatisfiable
//! stopping condition) must match the reference:
//!
//! * the same set of answered groups, with exactly the same `samples`;
//! * exactly the same `rows_selected`;
//! * estimates within 1e-9 relative;
//! * the same HAVING / ORDER BY-LIMIT selection.
//!
//! Early-stopped runs have no reference answer; for them the tests assert
//! that results are bit-identical across thread counts and backings.

use std::collections::BTreeMap;

use proptest::prelude::*;

use fastframe_core::bounder::BounderKind;
use fastframe_engine::config::{EngineConfig, SamplingStrategy};
use fastframe_engine::session::{QueryBuilder, Session};
use fastframe_engine::QueryResult;
use fastframe_store::column::Column;
use fastframe_store::expr::Expr;
use fastframe_store::persist::SegmentReader;
use fastframe_store::predicate::Predicate;
use fastframe_store::table::Table;

/// A synthetic table exercising every kernel: a float target, an int filter
/// column, a group column, and a second categorical for multi-column
/// group-bys and categorical filters.
fn table(rows: usize) -> Table {
    let mut values = Vec::with_capacity(rows);
    let mut times = Vec::with_capacity(rows);
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
        times.push(600 + (i as i64 % 1200));
        groups.push(group.to_string());
        flags.push(if i % 3 == 0 { "on" } else { "off" }.to_string());
    }
    Table::new(vec![
        Column::float("v", values),
        Column::int("time", times),
        Column::categorical("g", &groups),
        Column::categorical("flag", &flags),
    ])
    .unwrap()
}

fn temp_path(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!(
        "fastframe_reference_{tag}_{}.ffseg",
        std::process::id()
    ))
}

/// A session with the table under both backings: `mem` (in-memory scramble)
/// and `disk` (segment-backed, lazily decoded).
fn dual_backing_session(rows: usize, path: &std::path::Path) -> Session {
    let mut s = Session::new();
    s.register("mem", &table(rows)).unwrap();
    s.save_table("mem", path).unwrap();
    s.open_table("disk", path).unwrap();
    s
}

/// One of a fixed zoo of predicate shapes, covering every leaf kernel and
/// every boolean combinator (including nesting under Or/Not, which the
/// selection algebra must handle with union/difference).
fn predicate(idx: usize) -> Predicate {
    match idx % 7 {
        0 => Predicate::True,
        1 => Predicate::cat_eq("flag", "on"),
        2 => Predicate::num_gt("time", 1_000.0),
        3 => Predicate::NumBetween {
            column: "v".into(),
            low: 3.0,
            high: 30.0,
        },
        4 => Predicate::And(vec![
            Predicate::cat_eq("flag", "off"),
            Predicate::num_lt("time", 1_500.0),
        ]),
        5 => Predicate::Or(vec![
            Predicate::cat_eq("g", "beta"),
            Predicate::num_gt("v", 35.0),
        ]),
        _ => Predicate::Not(Box::new(Predicate::And(vec![
            Predicate::cat_eq("flag", "on"),
            Predicate::num_gt("time", 900.0),
        ]))),
    }
}

/// The composite target `(2·v − 1)²` (the Appendix-B shape).
fn composite() -> Expr {
    Expr::lit(2.0)
        .mul(Expr::col("v"))
        .sub(Expr::lit(1.0))
        .pow(2)
}

fn config(threads: usize, seed: u64, strategy: SamplingStrategy) -> EngineConfig {
    EngineConfig::builder()
        .bounder(BounderKind::BernsteinRangeTrim)
        .strategy(strategy)
        .delta(1e-9)
        .round_rows(700)
        .seed(seed)
        .threads(threads)
        .build()
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Agg {
    Avg,
    Sum,
    Count,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Selection {
    All,
    HavingGt(f64),
    TopK(usize),
}

/// One generated query: everything but the table it runs on.
#[derive(Debug, Clone, Copy)]
struct Case {
    pred: usize,
    agg: Agg,
    composite: bool,
    /// 0: ungrouped, 1: `GROUP BY g`, 2: `GROUP BY g, flag`.
    grouping: usize,
}

impl Case {
    /// The case as a fluent query on `table`, with the selection's default
    /// stopping condition.
    fn query<'s>(&self, s: &'s Session, table: &str, selection: Selection) -> QueryBuilder<'s> {
        let target = if self.composite {
            composite()
        } else {
            Expr::col("v")
        };
        let mut q = s.query(table);
        q = match self.agg {
            Agg::Avg => q.avg(target),
            Agg::Sum => q.sum(target),
            Agg::Count => q.count(),
        };
        q = match self.grouping {
            0 => q,
            1 => q.group_by("g"),
            _ => q.group_by("g").group_by("flag"),
        };
        q = q.filter(predicate(self.pred));
        match selection {
            Selection::All => q,
            Selection::HavingGt(t) => q.having_gt(t),
            Selection::TopK(k) => q.order_desc_limit(k),
        }
    }
}

/// A plain copy of one row.
struct Row {
    v: f64,
    time: i64,
    g: String,
    flag: String,
}

/// Copies every row of `table` out through the column accessors.
fn rows(table: &Table) -> Vec<Row> {
    let labels = |name: &str| -> Vec<String> {
        let column = table.column(name).unwrap();
        let dictionary = column.dictionary().unwrap();
        column
            .category_codes()
            .unwrap()
            .iter()
            .map(|&c| dictionary[c as usize].clone())
            .collect()
    };
    let v = table.column("v").unwrap().float_values().unwrap();
    let time = table.column("time").unwrap().int_values().unwrap();
    let g = labels("g");
    let flag = labels("flag");
    (0..table.num_rows())
        .map(|i| Row {
            v: v[i],
            time: time[i],
            g: g[i].clone(),
            flag: flag[i].clone(),
        })
        .collect()
}

/// [`predicate`], evaluated on one row.
fn matches(idx: usize, row: &Row) -> bool {
    let time = row.time as f64;
    match idx % 7 {
        0 => true,
        1 => row.flag == "on",
        2 => time > 1_000.0,
        3 => (3.0..=30.0).contains(&row.v),
        4 => row.flag == "off" && time < 1_500.0,
        5 => row.g == "beta" || row.v > 35.0,
        _ => !(row.flag == "on" && time > 900.0),
    }
}

/// The reference answer: per-group row counts and target sums.
struct Reference {
    rows_selected: u64,
    /// Group label → (matching rows, sum of target values).
    groups: BTreeMap<String, (u64, f64)>,
}

impl Reference {
    fn new(rows: &[Row], case: &Case) -> Self {
        let mut groups = BTreeMap::new();
        let mut rows_selected = 0;
        for row in rows.iter().filter(|row| matches(case.pred, row)) {
            rows_selected += 1;
            let label = match case.grouping {
                0 => "<all>".to_string(),
                1 => row.g.clone(),
                _ => format!("{}/{}", row.g, row.flag),
            };
            let value = if case.composite {
                (2.0 * row.v - 1.0).powi(2)
            } else {
                row.v
            };
            let entry = groups.entry(label).or_insert((0u64, 0.0));
            entry.0 += 1;
            entry.1 += value;
        }
        Self {
            rows_selected,
            groups,
        }
    }

    fn value(&self, agg: Agg, label: &str) -> f64 {
        let (count, sum) = self.groups[label];
        match agg {
            Agg::Avg => sum / count as f64,
            Agg::Sum => sum,
            Agg::Count => count as f64,
        }
    }

    /// Group values in descending order.
    fn descending(&self, agg: Agg) -> Vec<(String, f64)> {
        let mut values: Vec<(String, f64)> = self
            .groups
            .keys()
            .map(|label| (label.clone(), self.value(agg, label)))
            .collect();
        values.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
        values
    }

    /// A selection whose outcome no float rounding can flip: a HAVING
    /// threshold halfway between two distinct group values, or a LIMIT
    /// that ends at a strict gap.
    fn selection(&self, agg: Agg, kind: usize) -> Selection {
        let values = self.descending(agg);
        let gap = |i: usize| values[i].1 - values[i + 1].1 > 1e-6 * values[i].1.abs().max(1.0);
        let split = (0..values.len().saturating_sub(1)).find(|&i| gap(i));
        match (kind, split) {
            (1, Some(i)) => Selection::HavingGt((values[i].1 + values[i + 1].1) / 2.0),
            (2, Some(i)) => Selection::TopK(i + 1),
            _ => Selection::All,
        }
    }

    fn selected(&self, agg: Agg, selection: Selection) -> Vec<String> {
        let values = self.descending(agg);
        let mut labels: Vec<String> = match selection {
            Selection::All => values.into_iter().map(|(l, _)| l).collect(),
            Selection::HavingGt(t) => values
                .into_iter()
                .filter(|(_, v)| *v > t)
                .map(|(l, _)| l)
                .collect(),
            Selection::TopK(k) => values.into_iter().take(k).map(|(l, _)| l).collect(),
        };
        labels.sort();
        labels
    }

    /// Asserts that `result` answers exactly what the reference does.
    fn check(&self, result: &QueryResult, agg: Agg, selection: Selection, what: &str) {
        assert_eq!(
            result.metrics.rows_selected(),
            self.rows_selected,
            "{what}: rows_selected"
        );
        let answered: Vec<_> = result.groups.iter().filter(|g| g.samples > 0).collect();
        let mut labels: Vec<String> = answered.iter().map(|g| g.key.display()).collect();
        labels.sort();
        assert!(
            labels.iter().eq(self.groups.keys()),
            "{what}: answered groups {labels:?}"
        );
        for g in answered {
            let label = g.key.display();
            assert_eq!(
                g.samples, self.groups[&label].0,
                "{what}: samples of {label}"
            );
            assert!(g.exact, "{what}: {label} is not marked exact");
            let truth = self.value(agg, &label);
            let estimate = g.estimate.expect("answered groups have an estimate");
            assert!(
                (estimate - truth).abs() <= 1e-9 * truth.abs().max(1.0),
                "{what}: {label} estimate {estimate} vs reference {truth}"
            );
            assert!(g.ci.contains(estimate), "{what}: {label} interval");
        }
        let mut selected = result.selected_labels();
        selected.sort();
        assert_eq!(selected, self.selected(agg, selection), "{what}: selection");
    }
}

/// Bit-level identity over everything a deterministic pipeline fixes:
/// group order, estimate/CI bits, samples, selections, convergence and the
/// full `ScanStats`.
fn assert_identical(a: &QueryResult, b: &QueryResult, what: &str) {
    assert_eq!(a.groups.len(), b.groups.len(), "{what}: group count");
    for (ga, gb) in a.groups.iter().zip(&b.groups) {
        let label = ga.key.display();
        assert_eq!(ga.key, gb.key, "{what}: group order");
        assert_eq!(
            ga.estimate.map(f64::to_bits),
            gb.estimate.map(f64::to_bits),
            "{what}: estimate bits for {label}"
        );
        assert_eq!(
            ga.ci.lo.to_bits(),
            gb.ci.lo.to_bits(),
            "{what}: ci.lo of {label}"
        );
        assert_eq!(
            ga.ci.hi.to_bits(),
            gb.ci.hi.to_bits(),
            "{what}: ci.hi of {label}"
        );
        assert_eq!(ga.samples, gb.samples, "{what}: samples");
        assert_eq!(ga.exact, gb.exact, "{what}: exactness");
    }
    assert_eq!(
        a.selected_labels(),
        b.selected_labels(),
        "{what}: selection"
    );
    assert_eq!(a.converged, b.converged, "{what}: convergence");
    assert_eq!(a.metrics.scan, b.metrics.scan, "{what}: ScanStats");
    assert_eq!(a.metrics.rounds, b.metrics.rounds, "{what}: rounds");
}

const BACKINGS: [&str; 2] = ["mem", "disk"];
const THREADS: [usize; 2] = [1, 4];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    /// The headline invariant: Exact and an approximate full pass both
    /// answer exactly what the naive reference answers, on either backing
    /// at any thread count.
    #[test]
    fn exact_and_full_pass_match_the_reference(
        seed in 0u64..1_000,
        strategy_idx in 0usize..3,
        pred in 0usize..7,
        agg_idx in 0usize..3,
        composite in any::<bool>(),
        grouping in 0usize..3,
        selection_kind in 0usize..3,
    ) {
        let agg = [Agg::Avg, Agg::Sum, Agg::Count][agg_idx];
        let case = Case { pred, agg, composite, grouping };
        let path = temp_path(&format!("prop_{seed}_{pred}_{agg_idx}_{grouping}"));
        let s = dual_backing_session(3_000, &path);
        let memory = rows(s.scramble("mem").unwrap().table());
        let segment = rows(SegmentReader::open(&path).unwrap().materialize().unwrap().table());
        let strategy = SamplingStrategy::ALL[strategy_idx];
        for (backing, materialized) in BACKINGS.into_iter().zip([&memory, &segment]) {
            let reference = Reference::new(materialized, &case);
            let selection = reference.selection(agg, selection_kind);
            for threads in THREADS {
                let what = format!("{backing}/threads={threads}");
                let exact = case
                    .query(&s, backing, selection)
                    .threads(threads)
                    .execute_exact()
                    .unwrap();
                reference.check(&exact, agg, selection, &format!("exact {what}"));
                assert!(exact.converged);
                assert_eq!(
                    exact.metrics.blocks_fetched(),
                    s.source(backing).unwrap().num_blocks() as u64
                );
                assert!(exact.groups.iter().all(|g| g.samples > 0));

                let full_pass = case
                    .query(&s, backing, selection)
                    .absolute_width(0.0)
                    .config(config(threads, seed, strategy))
                    .execute()
                    .unwrap();
                reference.check(&full_pass, agg, selection, &format!("full pass {what}"));
            }
        }
        std::fs::remove_file(&path).ok();
    }

    /// Runs that stop early have no reference answer, but they are pure
    /// functions of (data, plan): bit-identical on either backing at any
    /// thread count.
    #[test]
    fn early_stopped_runs_are_bit_identical_across_threads_and_backings(
        seed in 0u64..1_000,
        strategy_idx in 0usize..3,
        pred in 0usize..7,
        agg_idx in 0usize..3,
        grouping in 0usize..3,
    ) {
        let agg = [Agg::Avg, Agg::Sum, Agg::Count][agg_idx];
        let case = Case { pred, agg, composite: false, grouping };
        let path = temp_path(&format!("early_{seed}_{strategy_idx}_{pred}_{agg_idx}_{grouping}"));
        let s = dual_backing_session(5_000, &path);
        let strategy = SamplingStrategy::ALL[strategy_idx];
        let run = |backing: &str, threads: usize| {
            case.query(&s, backing, Selection::All)
                .relative_error(0.2)
                .config(config(threads, seed, strategy))
                .execute()
                .unwrap()
        };
        let baseline = run("mem", 1);
        for backing in BACKINGS {
            for threads in THREADS {
                assert_identical(&run(backing, threads), &baseline, &format!("{backing}/threads={threads}"));
            }
        }
        std::fs::remove_file(&path).ok();
    }
}

/// A composite-expression target is evaluated per selected row; early
/// stopped runs stay bit-identical across threads and backings, and Exact
/// matches the reference.
#[test]
fn composite_target_expression_is_bit_identical() {
    let path = temp_path("composite");
    let s = dual_backing_session(6_000, &path);
    let case = Case {
        pred: 2,
        agg: Agg::Avg,
        composite: true,
        grouping: 1,
    };
    let run = |backing: &str, threads: usize| {
        case.query(&s, backing, Selection::All)
            .relative_error(0.25)
            .config(config(threads, 11, SamplingStrategy::Scan))
            .execute()
            .unwrap()
    };
    let baseline = run("mem", 1);
    let reference = Reference::new(&rows(s.scramble("mem").unwrap().table()), &case);
    for backing in BACKINGS {
        for threads in THREADS {
            let what = format!("{backing}/threads={threads}");
            assert_identical(&run(backing, threads), &baseline, &what);
            let exact = case
                .query(&s, backing, Selection::All)
                .threads(threads)
                .execute_exact()
                .unwrap();
            reference.check(&exact, Agg::Avg, Selection::All, &what);
        }
    }
    std::fs::remove_file(&path).ok();
}

/// A full pass — where every block, including the final ragged one, flows
/// through the kernels — reports the same selection funnel as Exact, and
/// the funnel counters are consistent.
#[test]
fn full_pass_and_funnel_counters_agree() {
    let path = temp_path("fullpass");
    let s = dual_backing_session(4_000, &path);
    for backing in BACKINGS {
        let query = || {
            s.query(backing)
                .avg(Expr::col("v"))
                .filter(Predicate::cat_eq("flag", "on"))
                .group_by("g")
                .threads(4)
        };
        let full_pass = query()
            .absolute_width(0.0)
            .config(config(4, 3, SamplingStrategy::Scan))
            .execute()
            .unwrap();
        let exact = query().execute_exact().unwrap();
        // Scan skips the blocks the predicate bitmap rules out; Exact
        // decodes every row, so the two decode counts differ but their
        // selections agree.
        assert_eq!(
            full_pass.metrics.rows_selected(),
            exact.metrics.rows_selected()
        );
        assert_eq!(full_pass.metrics.rows_sampled, exact.metrics.rows_sampled);
        assert_eq!(exact.metrics.rows_decoded(), 4_000);
        for m in [&full_pass.metrics, &exact.metrics] {
            // Funnel sanity: decoded ≥ selected ≥ matched, with a filter
            // that selects roughly a third of the rows.
            assert!(m.rows_selected() > 0);
            assert!(m.rows_selected() < m.rows_decoded());
            // Every selected row routes to a view here (all groups exist
            // and the target is a plain column), so selected == matched.
            assert_eq!(m.scan.rows_matched, m.rows_selected());
        }
    }
    std::fs::remove_file(&path).ok();
}

/// A predicate no row satisfies: Exact and the full pass agree on the
/// answer's shape. A GROUP BY answers no group; an ungrouped query always
/// answers its global group, with COUNT 0 and no AVG / SUM estimate.
#[test]
fn empty_selection_keeps_the_global_group() {
    let path = temp_path("empty");
    let s = dual_backing_session(2_000, &path);
    for backing in BACKINGS {
        for threads in THREADS {
            for agg in [Agg::Avg, Agg::Sum, Agg::Count] {
                for grouping in 0..3 {
                    let what = format!("{backing}/threads={threads}/{agg:?}/grouping={grouping}");
                    let case = Case {
                        pred: 0,
                        agg,
                        composite: false,
                        grouping,
                    };
                    let query = || {
                        case.query(&s, backing, Selection::All)
                            .filter(Predicate::num_gt("v", 1e9))
                    };
                    let exact = query().threads(threads).execute_exact().unwrap();
                    let full_pass = query()
                        .absolute_width(0.0)
                        .config(config(threads, 5, SamplingStrategy::Scan))
                        .execute()
                        .unwrap();
                    for (result, kind) in [(&exact, "exact"), (&full_pass, "full pass")] {
                        assert_eq!(result.metrics.rows_selected(), 0, "{kind} {what}");
                        assert!(result.groups.iter().all(|g| g.samples == 0));
                    }
                    if grouping > 0 {
                        assert!(exact.groups.is_empty(), "{what}");
                        assert!(exact.selected_labels().is_empty(), "{what}");
                        continue;
                    }
                    let expected = (agg == Agg::Count).then_some(0.0);
                    for (result, kind) in [(&exact, "exact"), (&full_pass, "full pass")] {
                        assert_eq!(result.groups.len(), 1, "{kind} {what}");
                        let global = result.global().expect("the global group is answered");
                        assert_eq!(global.estimate, expected, "{kind} {what}");
                    }
                }
            }
        }
    }
    std::fs::remove_file(&path).ok();
}

/// A table for GROUP BYs beyond the two small columns above: `a`, `b` and
/// `c` (5, 4 and 3 codes; `c` follows from `a` and `b`, so 20 of the 60
/// combinations occur), and `wide1` × `wide2` (293 × 251 = 73 543 code
/// combinations, past the group table's 2¹⁶ dense cap and either
/// column's dictionary, of which 1 000 occur).
fn wide_group_table(rows: usize) -> Table {
    let label = |prefix: &str, code: usize| format!("{prefix}{code}");
    let mut values = Vec::with_capacity(rows);
    let (mut a, mut b, mut c) = (Vec::new(), Vec::new(), Vec::new());
    let (mut wide1, mut wide2) = (Vec::new(), Vec::new());
    for i in 0..rows {
        let k = i % 1_000;
        values.push(((i * 2_654_435_761) % 1000) as f64 / 10.0 + (k % 17) as f64);
        a.push(label("a", i % 5));
        b.push(label("b", i % 4));
        c.push(label("c", (i % 5 + i % 4) % 3));
        wide1.push(label("w", k % 293));
        wide2.push(label("x", k % 251));
    }
    Table::new(vec![
        Column::float("v", values),
        Column::categorical("a", &a),
        Column::categorical("b", &b),
        Column::categorical("c", &c),
        Column::categorical("wide1", &wide1),
        Column::categorical("wide2", &wide2),
    ])
    .unwrap()
}

/// The naive answer of `AVG(v) WHERE v > 20 GROUP BY columns` over the rows
/// of `table`: group label → (rows, sum of `v`).
fn naive_group_avg(table: &Table, columns: &[&str]) -> BTreeMap<String, (u64, f64)> {
    let v = table.column("v").unwrap().float_values().unwrap();
    let mut groups = BTreeMap::new();
    for (row, &value) in v.iter().enumerate() {
        if value <= 20.0 {
            continue;
        }
        let label = columns
            .iter()
            .map(|name| {
                let column = table.column(name).unwrap();
                let code = column.category_codes().unwrap()[row];
                column.dictionary().unwrap()[code as usize].clone()
            })
            .collect::<Vec<_>>()
            .join("/");
        let entry = groups.entry(label).or_insert((0u64, 0.0));
        entry.0 += 1;
        entry.1 += value;
    }
    groups
}

/// GROUP BYs through both storages of the group table: three columns (a
/// dense key table with absent keys) and two columns whose key space
/// exceeds the dense cap (a map). Exact and a full pass answer exactly what
/// the naive evaluator does, and every run is bit-identical at any thread
/// count on either backing.
#[test]
fn multi_column_group_tables_match_the_reference() {
    for columns in [&["a", "b", "c"][..], &["wide1", "wide2"][..]] {
        let path = temp_path(&format!("groups_{}", columns.len()));
        let mut s = Session::new();
        s.register("mem", &wide_group_table(6_000)).unwrap();
        s.save_table("mem", &path).unwrap();
        s.open_table("disk", &path).unwrap();
        let query = |backing: &str| {
            let mut q = s
                .query(backing)
                .avg(Expr::col("v"))
                .filter(Predicate::num_gt("v", 20.0));
            for &column in columns {
                q = q.group_by(column);
            }
            q
        };
        let naive = naive_group_avg(s.scramble("mem").unwrap().table(), columns);
        let check = |result: &QueryResult, what: &str| {
            let mut answered = 0;
            for g in result.groups.iter().filter(|g| g.samples > 0) {
                let label = g.key.display();
                let (count, sum) = naive[&label];
                assert_eq!(g.samples, count, "{what}: samples of {label}");
                let (estimate, truth) = (g.estimate.unwrap(), sum / count as f64);
                assert!(
                    (estimate - truth).abs() <= 1e-9 * truth.abs(),
                    "{what}: {label} estimate {estimate} vs reference {truth}"
                );
                assert!(g.exact, "{what}: {label} is not marked exact");
                answered += 1;
            }
            assert_eq!(answered, naive.len(), "{what}: answered groups");
        };
        let run = |backing: &str, threads: usize, width: f64| {
            query(backing)
                .absolute_width(width)
                .config(config(threads, 9, SamplingStrategy::Scan))
                .execute()
                .unwrap()
        };
        let (full_baseline, early_baseline) = (run("mem", 1, 0.0), run("mem", 1, 20.0));
        let exact_baseline = query("mem").threads(1).execute_exact().unwrap();
        for backing in BACKINGS {
            for threads in THREADS {
                let what = format!("{columns:?} {backing}/threads={threads}");
                let exact = query(backing).threads(threads).execute_exact().unwrap();
                check(&exact, &format!("exact {what}"));
                assert_identical(&exact, &exact_baseline, &format!("exact {what}"));
                let full_pass = run(backing, threads, 0.0);
                check(&full_pass, &format!("full pass {what}"));
                assert_identical(&full_pass, &full_baseline, &format!("full pass {what}"));
                let early = run(backing, threads, 20.0);
                assert_identical(&early, &early_baseline, &format!("early {what}"));
            }
        }
        std::fs::remove_file(&path).ok();
    }
}

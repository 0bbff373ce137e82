//! Integration tests for COUNT and SUM aggregates end-to-end through the
//! engine (§4.1): unknown-selectivity handling via N⁺, count intervals, and
//! the composed SUM intervals — phrased through the fluent session API.

use fastframe_core::bounder::BounderKind;
use fastframe_engine::config::{EngineConfig, SamplingStrategy};
use fastframe_engine::session::Session;
use fastframe_store::expr::Expr;
use fastframe_store::predicate::Predicate;
use fastframe_workloads::flights::{columns, FlightsConfig, FlightsDataset};

fn session() -> Session {
    let dataset = FlightsDataset::generate(FlightsConfig::small().rows(100_000).airports(40))
        .expect("dataset generates");
    let mut session = Session::with_defaults(
        EngineConfig::builder()
            .bounder(BounderKind::BernsteinRangeTrim)
            .strategy(SamplingStrategy::Scan)
            .delta(1e-12)
            .round_rows(10_000)
            .seed(9)
            .build(),
    );
    session
        .register_with(
            "flights",
            &dataset.table,
            fastframe_engine::session::TableOptions::default().seed(55),
        )
        .expect("table registers");
    session
}

#[test]
fn count_of_filtered_rows_brackets_the_exact_count() {
    let session = session();
    for airline in ["NW", "HP", "UA"] {
        let query = session
            .query("flights")
            .count()
            .named(format!("count-{airline}"))
            .filter(Predicate::cat_eq(columns::AIRLINE, airline))
            .relative_error(0.05);
        let approx = query.clone().execute().unwrap();
        let exact = query.execute_exact().unwrap();
        let truth = exact.global().unwrap().estimate.unwrap();
        let g = approx.global().unwrap();
        assert!(
            g.ci.contains(truth),
            "count CI {:?} missed exact count {truth} for {airline}",
            g.ci
        );
        // The count interval carried alongside must agree.
        assert!(g.count_ci.contains(truth));
    }
}

#[test]
fn grouped_count_intervals_bracket_every_group() {
    let session = session();
    let query = session
        .query("flights")
        .count()
        .named("count-by-airline")
        .group_by(columns::AIRLINE)
        .relative_error(0.1);
    let approx = query.clone().execute().unwrap();
    let exact = query.execute_exact().unwrap();
    assert_eq!(approx.groups.len(), exact.groups.len());
    for eg in &exact.groups {
        let ag = approx.groups.iter().find(|g| g.key == eg.key).unwrap();
        assert!(
            ag.ci.contains(eg.estimate.unwrap()),
            "group {} count CI {:?} missed {}",
            eg.key.display(),
            ag.ci,
            eg.estimate.unwrap()
        );
    }
}

#[test]
fn sum_of_delays_brackets_the_exact_sum() {
    let session = session();
    let query = session
        .query("flights")
        .sum(Expr::col(columns::DEP_DELAY))
        .named("sum-delay-hp")
        .filter(Predicate::cat_eq(columns::AIRLINE, "HP"))
        .relative_error(0.2);
    let approx = query.clone().execute().unwrap();
    let exact = query.execute_exact().unwrap();
    let truth = exact.global().unwrap().estimate.unwrap();
    let g = approx.global().unwrap();
    // Both executors run one scan pipeline and read the sum as accumulated;
    // they differ only in how the scan's partitions are laid out and merged,
    // so allow for that summation-order difference when the interval is
    // degenerate after a full pass.
    let tol = 1e-9 * truth.abs();
    assert!(
        g.ci.lo - tol <= truth && truth <= g.ci.hi + tol,
        "sum CI {:?} missed exact sum {truth}",
        g.ci
    );
}

#[test]
fn grouped_sum_selects_the_same_top_group_as_exact() {
    let session = session();
    // Which airline accounts for the largest total delay?
    let query = session
        .query("flights")
        .sum(Expr::col(columns::DEP_DELAY))
        .named("total-delay-by-airline")
        .group_by(columns::AIRLINE)
        .order_desc_limit(1);
    let approx = query.clone().execute().unwrap();
    let exact = query.execute_exact().unwrap();
    assert_eq!(approx.selected_labels(), exact.selected_labels());
}

#[test]
fn count_star_without_filter_is_exactly_the_table_size_after_a_full_pass() {
    let session = session();
    let result = session
        .query("flights")
        .count()
        .named("count-all")
        .absolute_width(0.0)
        .execute()
        .unwrap();
    assert!(!result.converged);
    let g = result.global().unwrap();
    assert_eq!(g.estimate, Some(100_000.0));
    assert!(g.exact);
}

//! Integration tests for the stopping conditions Ê–Ï (§4.2) at the query
//! level: each condition terminates when (and only when) its semantic goal is
//! actually achieved. Queries are phrased through the fluent session API,
//! whose stopping-condition helpers mirror the paper's condition names.

use fastframe_core::bounder::BounderKind;
use fastframe_core::stopping::StoppingCondition;
use fastframe_engine::config::{EngineConfig, SamplingStrategy};
use fastframe_engine::session::{QueryBuilder, Session, TableOptions};
use fastframe_store::column::Column;
use fastframe_store::expr::Expr;
use fastframe_store::table::Table;

/// Three groups with well-separated means (10, 30, 60) inside a [0, 200]
/// range, 60k rows, registered in a session whose defaults pin the scan.
fn session() -> Session {
    let n = 60_000usize;
    let mut values = Vec::with_capacity(n);
    let mut groups = Vec::with_capacity(n);
    for i in 0..n {
        let (g, base) = match i % 3 {
            0 => ("low", 10.0),
            1 => ("mid", 30.0),
            _ => ("high", 60.0),
        };
        let noise = ((i * 2_654_435_761) % 2000) as f64 / 100.0 - 10.0; // ±10
        values.push((base + noise).clamp(0.0, 200.0));
        groups.push(g.to_string());
    }
    let table = Table::new(vec![
        Column::float("value", values),
        Column::categorical("grp", &groups),
    ])
    .unwrap();
    let mut session = Session::with_defaults(
        EngineConfig::builder()
            .bounder(BounderKind::BernsteinRangeTrim)
            .strategy(SamplingStrategy::Scan)
            .delta(1e-9)
            .round_rows(5_000)
            .start_block(0)
            .build(),
    );
    session
        .register_with("vals", &table, TableOptions::default().seed(77))
        .unwrap();
    session
}

fn grouped_avg(session: &Session) -> QueryBuilder<'_> {
    session
        .query("vals")
        .avg(Expr::col("value"))
        .group_by("grp")
}

#[test]
fn sample_count_condition_stops_after_requested_samples() {
    let session = session();
    let result = grouped_avg(&session)
        .named("ê")
        .sample_count(2_000)
        .execute()
        .unwrap();
    assert!(result.converged);
    for g in &result.groups {
        assert!(
            g.samples >= 2_000,
            "group {} got {} samples",
            g.key.display(),
            g.samples
        );
    }
    // It should not have scanned everything.
    assert!(result.metrics.scan.rows_scanned < 60_000);
}

#[test]
fn absolute_width_condition_delivers_the_requested_width() {
    let session = session();
    let result = grouped_avg(&session)
        .named("ë")
        .absolute_width(8.0)
        .execute()
        .unwrap();
    assert!(result.converged);
    for g in &result.groups {
        assert!(
            g.ci.width() < 8.0 + 1e-9,
            "group {} width {}",
            g.key.display(),
            g.ci.width()
        );
    }
}

#[test]
fn relative_error_condition_delivers_the_requested_relative_error() {
    let session = session();
    let result = grouped_avg(&session)
        .named("ì")
        .relative_error(0.2)
        .execute()
        .unwrap();
    let exact = grouped_avg(&session).execute_exact().unwrap();
    assert!(result.converged);
    for eg in &exact.groups {
        let ag = result.groups.iter().find(|g| g.key == eg.key).unwrap();
        let rel = (ag.estimate.unwrap() - eg.estimate.unwrap()).abs() / eg.estimate.unwrap();
        assert!(rel < 0.2, "group {} relative error {rel}", eg.key.display());
    }
}

#[test]
fn threshold_condition_places_every_group_on_the_correct_side() {
    let session = session();
    let result = grouped_avg(&session)
        .named("í")
        .having_gt(20.0)
        .execute()
        .unwrap();
    assert!(result.converged);
    let mut selected = result.selected_labels();
    selected.sort();
    assert_eq!(selected, vec!["high".to_string(), "mid".to_string()]);
    // And the intervals genuinely exclude the threshold.
    for g in &result.groups {
        assert!(
            !g.ci.contains(20.0),
            "group {} CI {:?}",
            g.key.display(),
            g.ci
        );
    }
}

#[test]
fn top_k_condition_separates_the_top_group() {
    let session = session();
    let result = grouped_avg(&session)
        .named("î")
        .order_desc_limit(1)
        .execute()
        .unwrap();
    assert!(result.converged);
    assert_eq!(result.selected_labels(), vec!["high".to_string()]);
}

#[test]
fn groups_ordered_condition_yields_non_overlapping_intervals() {
    let session = session();
    let result = grouped_avg(&session)
        .named("ï")
        .groups_ordered()
        .execute()
        .unwrap();
    assert!(result.converged);
    for (i, a) in result.groups.iter().enumerate() {
        for b in result.groups.iter().skip(i + 1) {
            assert!(
                !a.ci.intersects(&b.ci),
                "groups {} and {} still overlap: {:?} vs {:?}",
                a.key.display(),
                b.key.display(),
                a.ci,
                b.ci
            );
        }
    }
}

#[test]
fn impossible_condition_forces_a_full_exact_pass() {
    let session = session();
    let result = grouped_avg(&session)
        .named("impossible")
        .stop_when(StoppingCondition::AbsoluteWidth { epsilon: 0.0 })
        .execute()
        .unwrap();
    assert!(!result.converged);
    let exact = grouped_avg(&session).execute_exact().unwrap();
    for eg in &exact.groups {
        let ag = result.groups.iter().find(|g| g.key == eg.key).unwrap();
        assert!(
            ag.exact,
            "after a full pass the group result should be exact"
        );
        // Both executors saw every row through one scan pipeline; they
        // differ only in how the rows are cut into partitions and merged
        // (the approximate run's rounds against Exact's single round), so
        // compare with the same relative slack the engine's exact intervals
        // use.
        let (a, e) = (ag.estimate.unwrap(), eg.estimate.unwrap());
        assert!(
            (a - e).abs() <= 1e-9 * (e.abs() + 1.0),
            "exact estimates diverged beyond summation-order noise: {a} vs {e}"
        );
    }
}

#[test]
fn harder_conditions_require_more_data() {
    let session = session();
    let loose_r = grouped_avg(&session)
        .named("loose")
        .absolute_width(20.0)
        .execute()
        .unwrap();
    let tight_r = grouped_avg(&session)
        .named("tight")
        .absolute_width(5.0)
        .execute()
        .unwrap();
    assert!(
        tight_r.metrics.blocks_fetched() >= loose_r.metrics.blocks_fetched(),
        "a tighter width target must not require fewer blocks"
    );
}

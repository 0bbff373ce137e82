//! Aggregating an arbitrary expression of several columns (Appendix B):
//! derived range bounds let the same guarantees apply to
//! `AVG((DepDelay - 10)^2)`-style targets. The engine derives them by
//! interval arithmetic, which encloses the expression's image and is exact
//! here, since `DepDelay` occurs once.
//!
//! Run with:
//!
//! ```text
//! cargo run --release -p fastframe-tests --example expression_bounds
//! ```

use fastframe_engine::prelude::*;
use fastframe_store::catalog::Catalog;
use fastframe_workloads::flights::{columns, FlightsConfig, FlightsDataset};

fn main() {
    let dataset = FlightsDataset::generate(FlightsConfig::default().rows(200_000))
        .expect("generation succeeds");
    let mut session = Session::new();
    session
        .register_with("flights", &dataset.table, TableOptions::default().seed(11))
        .expect("scramble builds");

    // Target expression: squared deviation of the delay from 10 minutes —
    // i.e. AVG((DepDelay - 10)^2), a dispersion-style aggregate.
    let target = Expr::col(columns::DEP_DELAY).sub(Expr::lit(10.0)).pow(2);

    // 1. Derived range bounds via interval arithmetic (what the engine uses
    //    automatically). DepDelay occurs once, so they are the image's exact
    //    extremes: 0 where the range straddles 10, else the nearer end's
    //    square, and the farther end's square.
    let catalog = Catalog::build(&dataset.table);
    let (ia_lo, ia_hi) = target.range_bounds(&catalog).expect("bounds derive");
    println!("interval-arithmetic derived bounds: [{ia_lo:.1}, {ia_hi:.1}]");
    let (a, b) = catalog
        .range_bounds(columns::DEP_DELAY)
        .expect("delay range");
    let (da, db) = ((a - 10.0).powi(2), (b - 10.0).powi(2));
    let image_lo = if a <= 10.0 && 10.0 <= b {
        0.0
    } else {
        da.min(db)
    };
    assert_eq!(
        (ia_lo, ia_hi),
        (image_lo, da.max(db)),
        "interval arithmetic is exact for a single-occurrence expression"
    );

    // 2. Run the aggregate approximately and exactly, through the fluent
    //    builder (which re-derives the same range bounds from the catalog).
    let query = session
        .query("flights")
        .avg(target)
        .named("avg-squared-deviation")
        .relative_error(0.1)
        .config(EngineConfig::builder().round_rows(10_000).build());
    let approx = query.clone().execute().expect("approximate query");
    let exact = query.execute_exact().expect("exact query");

    let ag = approx.global().expect("one group");
    let eg = exact.global().expect("one group");
    println!(
        "\nAVG((DepDelay - 10)^2): estimate {:.1}  CI [{:.1}, {:.1}]  exact {:.1}",
        ag.estimate.unwrap(),
        ag.ci.lo,
        ag.ci.hi,
        eg.estimate.unwrap()
    );
    println!(
        "blocks fetched: approximate {} vs exact {}",
        approx.metrics.blocks_fetched(),
        exact.metrics.blocks_fetched()
    );
    assert!(
        ag.ci.contains(eg.estimate.unwrap()),
        "the interval must enclose the exact aggregate"
    );
    println!("the confidence interval encloses the exact aggregate, as guaranteed.");
}

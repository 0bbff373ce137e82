//! Top-k ranking query over the synthetic Flights dataset: "which airline has
//! the worst average departure delay?" (F-q9), showing how the choice of
//! error bounder and sampling strategy affects how much data must be read
//! before the ranking is certain.
//!
//! Run with:
//!
//! ```text
//! cargo run --release -p fastframe-tests --example top_airlines
//! ```

use fastframe_engine::prelude::*;
use fastframe_workloads::flights::{FlightsConfig, FlightsDataset};
use fastframe_workloads::queries::f_q9;

fn main() {
    let rows: usize = std::env::var("FASTFRAME_ROWS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(400_000);

    let dataset =
        FlightsDataset::generate(FlightsConfig::default().rows(rows)).expect("generation succeeds");
    let mut session = Session::new();
    session
        .register_with("flights", &dataset.table, TableOptions::default().seed(7))
        .expect("scramble builds");

    let template = f_q9();
    println!("{} — {}", template.id, template.description);

    let prepared = session
        .prepare("flights", &template.query)
        .expect("query type-checks");
    let exact = prepared.execute_exact().expect("exact baseline");
    println!(
        "exact answer: {:?} (mean delay {:.2} min), {} blocks scanned\n",
        exact.selected_labels(),
        exact.selected_groups()[0].estimate.unwrap(),
        exact.metrics.blocks_fetched()
    );

    println!(
        "{:<16} {:<12} {:>10} {:>12} {:>10}",
        "bounder", "strategy", "blocks", "wall (ms)", "answer"
    );
    for bounder in [BounderKind::Hoeffding, BounderKind::BernsteinRangeTrim] {
        for strategy in [
            SamplingStrategy::Scan,
            SamplingStrategy::ActiveSync,
            SamplingStrategy::ActivePeek,
        ] {
            let config = EngineConfig::builder()
                .bounder(bounder)
                .strategy(strategy)
                .round_rows(10_000)
                .build();
            let result = prepared
                .clone()
                .with_config(config)
                .execute()
                .expect("query runs");
            println!(
                "{:<16} {:<12} {:>10} {:>12.2} {:>10}",
                bounder.label(),
                strategy.label(),
                result.metrics.blocks_fetched(),
                result.metrics.wall_time.as_secs_f64() * 1e3,
                result.selected_labels().join(",")
            );
            assert_eq!(
                result.selected_labels(),
                exact.selected_labels(),
                "approximate ranking must agree with the exact one"
            );
        }
    }

    // Show the per-airline intervals from the recommended configuration.
    let config = EngineConfig::builder().round_rows(10_000).build();
    let result = prepared
        .clone()
        .with_config(config)
        .execute()
        .expect("query runs");
    println!("\nper-airline intervals (Bernstein+RT, ActivePeek):");
    let mut groups: Vec<_> = result.groups.iter().collect();
    groups.sort_by(|a, b| {
        b.estimate
            .unwrap_or(f64::MIN)
            .partial_cmp(&a.estimate.unwrap_or(f64::MIN))
            .unwrap()
    });
    for g in groups {
        println!(
            "  {:<4} estimate {:>6.2}  CI [{:>6.2}, {:>6.2}]  ({} samples)",
            g.key.display(),
            g.estimate.unwrap_or(f64::NAN),
            g.ci.lo,
            g.ci.hi,
            g.samples
        );
    }
}

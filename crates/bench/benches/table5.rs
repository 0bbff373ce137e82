//! Reproduction of **Table 5**: average query speedups over the `Exact`
//! baseline for every Flights query (F-q1 … F-q9) under the four evaluated
//! error bounders (Hoeffding, Hoeffding+RT, Bernstein, Bernstein+RT).
//!
//! Also prints the Table 3-style dataset description and the Table 4 query /
//! stopping-condition summary, since all three tables describe the same
//! experimental setup.
//!
//! Run with `cargo bench -p fastframe-bench --bench table5`.

use fastframe_bench::{
    assert_same_selection, build_flights_session, fmt_ms, print_header, print_row, run_approx,
    run_exact,
};
use fastframe_core::bounder::BounderKind;
use fastframe_engine::config::SamplingStrategy;
use fastframe_workloads::queries::all_default_queries;

fn main() {
    let (dataset, session) = build_flights_session();

    println!("# Table 3 — dataset description (synthetic stand-in)");
    println!();
    println!("{}", dataset.describe());
    println!();

    println!("# Table 4 — queries and stopping conditions");
    println!();
    print_header(&["Query", "Description", "Stop when"]);
    for t in all_default_queries() {
        print_row(&[
            t.id.to_string(),
            t.description.to_string(),
            t.query.stopping.describe(),
        ]);
    }
    println!();

    println!("# Table 5 — speedup over Exact per error bounder (raw seconds in parentheses)");
    println!();
    print_header(&[
        "Query",
        "Exact (ms)",
        "Hoeffding",
        "Hoeffding+RT",
        "Bernstein",
        "Bernstein+RT",
    ]);

    // Collected alongside: the hardware-independent blocks-fetched speedups
    // (§5.3's decoupled metric), printed as a second table below.
    let mut block_rows: Vec<Vec<String>> = Vec::new();

    for template in all_default_queries() {
        let exact = run_exact(&session, &template.query);
        // GROUP BY queries use active scanning with lookahead (the system's
        // default); ungrouped queries have nothing to prioritize, so plain
        // Scan is used for them.
        let strategy = if template.query.is_grouped() {
            SamplingStrategy::ActivePeek
        } else {
            SamplingStrategy::Scan
        };
        let mut cells = vec![template.query.name.clone(), fmt_ms(exact.wall)];
        let mut blocks = vec![
            template.query.name.clone(),
            exact.blocks_fetched.to_string(),
        ];
        for bounder in BounderKind::EVALUATED {
            let m = run_approx(&session, &template.query, bounder, strategy);
            assert_same_selection(&template.query.name, &m, &exact);
            cells.push(format!(
                "{:.2}x ({})",
                m.speedup_over(&exact),
                fmt_ms(m.wall)
            ));
            blocks.push(format!(
                "{:.2}x ({})",
                m.block_speedup_over(&exact),
                m.blocks_fetched
            ));
        }
        print_row(&cells);
        block_rows.push(blocks);
    }

    println!();
    println!("# Table 5 (companion) — blocks-fetched speedup over Exact (raw block counts in parentheses)");
    println!();
    print_header(&[
        "Query",
        "Exact blocks",
        "Hoeffding",
        "Hoeffding+RT",
        "Bernstein",
        "Bernstein+RT",
    ]);
    for row in &block_rows {
        print_row(row);
    }

    println!();
    println!(
        "Correctness check (§5.3): every approximate execution above returned exactly the same \
         selected groups as the Exact baseline."
    );
}

//! Reproduction of **Table 6**: speedups of the sampling strategies
//! (ActiveSync, ActivePeek) over plain Scan for the GROUP BY queries, all
//! using the Bernstein+RT error bounder.
//!
//! Run with `cargo bench -p fastframe-bench --bench table6`.

use fastframe_bench::{
    assert_same_selection, build_flights_session, fmt_ms, print_header, print_row, run_approx,
    run_exact,
};
use fastframe_core::bounder::BounderKind;
use fastframe_engine::config::SamplingStrategy;
use fastframe_workloads::queries::{f_q3, f_q5, f_q6, f_q7, f_q8};

fn main() {
    let (_dataset, session) = build_flights_session();

    println!("# Table 6 — sampling-strategy ablation (Bernstein+RT), GROUP BY queries");
    println!();
    print_header(&[
        "Query",
        "Scan (ms)",
        "Scan blocks",
        "ActiveSync",
        "ActivePeek",
        "ActivePeek blocks",
    ]);

    for template in [f_q3(2_250), f_q5(), f_q6(), f_q7(), f_q8()] {
        let exact = run_exact(&session, &template.query);
        let scan = run_approx(
            &session,
            &template.query,
            BounderKind::BernsteinRangeTrim,
            SamplingStrategy::Scan,
        );
        assert_same_selection(&template.query.name, &scan, &exact);

        let mut cells = vec![
            template.query.name.clone(),
            fmt_ms(scan.wall),
            scan.blocks_fetched.to_string(),
        ];
        let mut peek_blocks = 0;
        for strategy in [SamplingStrategy::ActiveSync, SamplingStrategy::ActivePeek] {
            let m = run_approx(
                &session,
                &template.query,
                BounderKind::BernsteinRangeTrim,
                strategy,
            );
            assert_same_selection(&template.query.name, &m, &exact);
            cells.push(format!(
                "{:.2}x ({})",
                m.speedup_over(&scan),
                fmt_ms(m.wall)
            ));
            if strategy == SamplingStrategy::ActivePeek {
                peek_blocks = m.blocks_fetched;
            }
        }
        cells.push(peek_blocks.to_string());
        print_row(&cells);
    }

    println!();
    println!(
        "Speedups are relative to the Scan strategy with the same (Bernstein+RT) bounder; the \
         block counts show how much data active scanning skipped."
    );
}

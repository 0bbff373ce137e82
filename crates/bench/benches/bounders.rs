//! Micro-benchmarks for the error bounders: per-value streaming update cost
//! and per-round confidence-interval computation cost.
//!
//! These support the paper's observation (§5.4.1) that "all error bounders
//! incur additional overhead", with the Bernstein-based bounders costing the
//! most per CI recomputation — the reason FastFrame recomputes intervals only
//! once per OptStop round rather than per tuple.
//!
//! Each cell is the mean of 20 timed calls after one untimed warm-up call.
//!
//! Run with `cargo bench -p fastframe-bench --bench bounders`.

use std::hint::black_box;
use std::time::{Duration, Instant};

use fastframe_bench::{print_header, print_row};
use fastframe_core::bounder::{BoundContext, BounderKind};
use fastframe_workloads::synthetic::SyntheticDistribution;

/// Timed calls per measurement.
const SAMPLES: u32 = 20;

/// Mean wall time of one call of `routine`, after one untimed warm-up call.
fn mean_time<O>(mut routine: impl FnMut() -> O) -> Duration {
    black_box(routine());
    let start = Instant::now();
    for _ in 0..SAMPLES {
        black_box(routine());
    }
    start.elapsed() / SAMPLES
}

fn bench_update_state() {
    let values = SyntheticDistribution::HeavyTail.generate(100_000, 42);
    println!("update_state: {} values per call", values.len());
    print_header(&["Bounder", "Time/call", "ns/value"]);
    for kind in BounderKind::EVALUATED {
        let mean = mean_time(|| {
            let mut est = kind.make_estimator();
            for &v in &values {
                est.observe(black_box(v));
            }
            est.count()
        });
        print_row(&[
            kind.label().to_string(),
            format!("{mean:.3?}"),
            format!("{:.2}", mean.as_nanos() as f64 / values.len() as f64),
        ]);
    }
}

fn bench_interval() {
    let values = SyntheticDistribution::HeavyTail.generate(100_000, 7);
    let (a, b) = SyntheticDistribution::HeavyTail.support();
    let ctx = BoundContext::new(a, b, 10_000_000, 1e-15).expect("valid context");
    println!("\ninterval: one CI over {} observed values", values.len());
    print_header(&["Bounder", "Time/call"]);
    for kind in BounderKind::ALL {
        // Pre-populate an estimator once; measure only the CI computation.
        let mut est = kind.make_estimator();
        for &v in &values {
            est.observe(v);
        }
        let mean = mean_time(|| est.interval(black_box(&ctx)));
        print_row(&[kind.label().to_string(), format!("{mean:.3?}")]);
    }
}

fn main() {
    bench_update_state();
    bench_interval();
}

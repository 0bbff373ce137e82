//! Ablation study: confidence-interval width per bounder configuration across
//! synthetic data distributions and sample sizes.
//!
//! This isolates the two design choices the paper argues for — replacing
//! Hoeffding-style bounds with empirical Bernstein–Serfling bounds (removing
//! PMA) and wrapping the bounder in RangeTrim (removing PHOS) — from every
//! system-level effect (sampling strategy, stopping conditions, indexes).
//! For each distribution and sample size it reports the two-sided CI width at
//! δ = 10⁻¹⁵, plus the gap between the estimate and the one-sided lower
//! bound (the quantity that drives threshold-style stopping conditions).
//!
//! RangeTrim is not free. It withholds the first value from each clipped
//! state and bounds them at `N − 1`, so when the observed extremes already
//! sit at the catalog's `[a, b]` (the `uniform-full-range` and
//! `two-point-adversarial` rows) it trims nothing and its intervals come out
//! slightly *wider* than the plain bounder's. The same cost shows end to
//! end: on Flights F-q8 at 10M rows, Hoeffding+RT fetches 353 095 blocks
//! against Hoeffding's 347 200, because the groups' observed maxima are
//! near the catalog's `b`. This is the bound working as specified, not a
//! case to special-case.
//!
//! Run with `cargo bench -p fastframe-bench --bench ablation_rangetrim`.

use fastframe_bench::{print_header, print_row, BENCH_DELTA};
use fastframe_core::bounder::{BoundContext, BounderKind};
use fastframe_workloads::synthetic::SyntheticDistribution;

fn main() {
    let population: u64 = 100_000_000;
    println!("# Ablation — CI width by bounder, distribution and sample size (delta = 1e-15)");
    println!();
    print_header(&[
        "distribution",
        "samples",
        "bounder",
        "two-sided width",
        "estimate - lbound",
    ]);

    for dist in SyntheticDistribution::ALL {
        let (a, b) = dist.support();
        for &m in &[1_000usize, 10_000, 100_000] {
            let values = dist.generate(m, 0xAB1A);
            for kind in BounderKind::ALL {
                let mut est = kind.make_estimator();
                for &v in &values {
                    est.observe(v);
                }
                let ctx = BoundContext::new(a, b, population, BENCH_DELTA).expect("valid context");
                let ci = est.interval(&ctx);
                let estimate = est.estimate().unwrap_or(f64::NAN);
                let lower_gap = estimate - est.lbound(&ctx.with_delta(BENCH_DELTA * 0.5));
                print_row(&[
                    dist.label().to_string(),
                    m.to_string(),
                    kind.label().to_string(),
                    format!("{:.4}", ci.width()),
                    format!("{:.4}", lower_gap),
                ]);
            }
        }
    }

    println!();
    println!(
        "Reading guide: Bernstein vs Hoeffding shows the benefit of removing PMA (width tracks \
         the empirical variance); the +RT rows show the benefit of removing PHOS (the lower-bound \
         gap stops depending on the far-away upper range bound), which is largest for the \
         narrow-low-band and heavy-tail distributions."
    );
    println!();
    println!(
        "When the observed extremes already reach the declared range (uniform-full-range, \
         two-point-adversarial), +RT trims nothing and pays for its withheld first value and \
         N - 1: its rows come out slightly wider than the plain bounder's. This is why \
         Hoeffding+RT fetches more blocks than Hoeffding on Flights F-q8 at 10M rows \
         (353 095 against 347 200)."
    );
}

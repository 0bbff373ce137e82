//! Property-based tests (proptest) over the statistical core: structural
//! invariants that must hold for *every* input, independent of probability.

use proptest::prelude::*;

use fastframe_core::bounder::{BoundContext, BounderKind, Ci};
use fastframe_core::expr_bounds::{corner_extrema, Interval};
use fastframe_core::sum::sum_interval;
use fastframe_core::variance::RunningMoments;

/// The kinds that wrap their bounder in RangeTrim.
const RANGE_TRIM_KINDS: [BounderKind; 3] = [
    BounderKind::HoeffdingRangeTrim,
    BounderKind::BernsteinRangeTrim,
    BounderKind::AndersonDkwRangeTrim,
];

/// Strategy: a data range plus a non-empty batch of values inside it.
fn range_and_values() -> impl Strategy<Value = (f64, f64, Vec<f64>)> {
    (any::<i16>(), 1u16..2000u16).prop_flat_map(|(lo, width)| {
        let a = lo as f64;
        let b = a + width as f64;
        let values = proptest::collection::vec(a..b, 1..200);
        (Just(a), Just(b), values)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    #[test]
    fn intervals_are_ordered_and_clamped_for_every_bounder((a, b, values) in range_and_values()) {
        let ctx = BoundContext::new(a, b, (values.len() as u64).max(1_000), 1e-6).unwrap();
        for kind in BounderKind::ALL {
            let mut est = kind.make_estimator();
            for &v in &values {
                est.observe(v);
            }
            let ci = est.interval(&ctx);
            prop_assert!(ci.lo <= ci.hi, "{kind}: {ci:?}");
            prop_assert!(ci.lo >= a - 1e-9, "{kind}: lower bound escapes the range");
            prop_assert!(ci.hi <= b + 1e-9, "{kind}: upper bound escapes the range");
            // The interval always contains the sample mean (the point
            // estimate) for the bounders in this crate.
            let mean = est.estimate().unwrap();
            prop_assert!(ci.contains(mean), "{kind}: {ci:?} misses its own estimate {mean}");
        }
    }

    #[test]
    fn exhaustive_samples_are_enclosed((a, b, values) in range_and_values()) {
        // When the sample *is* the whole dataset, the true mean is the sample
        // mean, so the interval must contain it (this is probability-free).
        let truth = values.iter().sum::<f64>() / values.len() as f64;
        let ctx = BoundContext::new(a, b, values.len() as u64, 1e-9).unwrap();
        for kind in BounderKind::ALL {
            let mut est = kind.make_estimator();
            for &v in &values {
                est.observe(v);
            }
            let ci = est.interval(&ctx);
            prop_assert!(ci.contains(truth), "{kind}: {ci:?} misses {truth}");
        }
    }

    #[test]
    fn dataset_size_monotonicity_holds((a, b, values) in range_and_values(), extra in 1u64..1_000_000u64) {
        // Using an upper bound N' > N must only loosen the bounds (§3.3) —
        // the property Theorem 2 and Theorem 3 both rely on.
        let n = values.len() as u64 + 10;
        let small = BoundContext::new(a, b, n, 1e-6).unwrap();
        let large = BoundContext::new(a, b, n + extra, 1e-6).unwrap();
        for kind in BounderKind::EVALUATED {
            let mut est = kind.make_estimator();
            for &v in &values {
                est.observe(v);
            }
            prop_assert!(est.lbound(&large) <= est.lbound(&small) + 1e-9, "{kind}");
            prop_assert!(est.rbound(&large) >= est.rbound(&small) - 1e-9, "{kind}");
        }
    }

    #[test]
    fn smaller_delta_never_tightens_the_interval((a, b, values) in range_and_values()) {
        let loose = BoundContext::new(a, b, 1_000_000, 1e-3).unwrap();
        let tight = BoundContext::new(a, b, 1_000_000, 1e-12).unwrap();
        for kind in BounderKind::ALL {
            let mut est = kind.make_estimator();
            for &v in &values {
                est.observe(v);
            }
            prop_assert!(
                est.interval(&tight).width() + 1e-9 >= est.interval(&loose).width(),
                "{kind}: shrinking delta tightened the interval"
            );
        }
    }

    #[test]
    fn range_trim_lower_bound_is_independent_of_b((a, _b, values) in range_and_values(), widen in 1.0f64..1e6) {
        let b1 = values.iter().cloned().fold(f64::NEG_INFINITY, f64::max) + 1.0;
        let b2 = b1 + widen;
        let ctx1 = BoundContext::new(a, b1, 1_000_000, 1e-6).unwrap();
        let ctx2 = BoundContext::new(a, b2, 1_000_000, 1e-6).unwrap();
        for kind in RANGE_TRIM_KINDS {
            let mut est = kind.make_estimator();
            est.observe_batch(&values);
            prop_assert_eq!(est.lbound(&ctx1), est.lbound(&ctx2), "{}", kind);
        }
    }

    #[test]
    fn range_trim_upper_bound_is_independent_of_a((_a, b, values) in range_and_values(), widen in 1.0f64..1e6) {
        let a1 = values.iter().cloned().fold(f64::INFINITY, f64::min) - 1.0;
        let a2 = a1 - widen;
        let ctx1 = BoundContext::new(a1, b, 1_000_000, 1e-6).unwrap();
        let ctx2 = BoundContext::new(a2, b, 1_000_000, 1e-6).unwrap();
        for kind in RANGE_TRIM_KINDS {
            let mut est = kind.make_estimator();
            est.observe_batch(&values);
            prop_assert_eq!(est.rbound(&ctx1), est.rbound(&ctx2), "{}", kind);
        }
    }

    #[test]
    fn welford_matches_naive_two_pass(values in proptest::collection::vec(-1e6f64..1e6, 2..300)) {
        let mut m = RunningMoments::new();
        for &v in &values {
            m.push(v);
        }
        let mean = values.iter().sum::<f64>() / values.len() as f64;
        let var = values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / values.len() as f64;
        prop_assert!((m.mean() - mean).abs() <= 1e-6 * (1.0 + mean.abs()));
        prop_assert!((m.variance() - var).abs() <= 1e-6 * (1.0 + var));
        prop_assert_eq!(m.count(), values.len() as u64);
    }

    #[test]
    fn sum_interval_contains_all_products(
        c_lo in 0.0f64..1e6, c_extra in 0.0f64..1e6,
        a_lo in -1e3f64..1e3, a_extra in 0.0f64..1e3,
        tc in 0.0f64..1.0, ta in 0.0f64..1.0,
    ) {
        let count = Ci::new(c_lo, c_lo + c_extra);
        let avg = Ci::new(a_lo, a_lo + a_extra);
        let sum = sum_interval(&count, &avg);
        // Any (count, avg) pair inside the factor intervals must produce a
        // product inside the sum interval.
        let c = c_lo + tc * c_extra;
        let a = a_lo + ta * a_extra;
        prop_assert!(sum.contains(c * a), "{sum:?} misses {c} * {a}");
    }

    #[test]
    fn corner_extrema_bound_interior_evaluations(
        lo1 in -100.0f64..100.0, w1 in 0.1f64..50.0,
        lo2 in -100.0f64..100.0, w2 in 0.1f64..50.0,
        t1 in 0.0f64..1.0, t2 in 0.0f64..1.0,
    ) {
        // For a multilinear function (linear in each coordinate), the box
        // extrema are attained at corners, so every interior evaluation lies
        // within the corner extrema.
        let f = |c: &[f64]| 3.0 * c[0] - 2.0 * c[1] + 0.5 * c[0] * c[1];
        let boxes = [
            Interval::new(lo1, lo1 + w1).unwrap(),
            Interval::new(lo2, lo2 + w2).unwrap(),
        ];
        let (min, max) = corner_extrema(f, &boxes).unwrap();
        let point = [lo1 + t1 * w1, lo2 + t2 * w2];
        let v = f(&point);
        prop_assert!(v >= min - 1e-9 && v <= max + 1e-9);
    }
}

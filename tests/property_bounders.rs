//! Property-based tests (proptest) over the statistical core: structural
//! invariants that must hold for *every* input, independent of probability.

use proptest::prelude::*;

use fastframe_core::bounder::{BoundContext, BounderKind, Ci};
use fastframe_core::sum::sum_interval;
use fastframe_core::variance::RunningMoments;
use fastframe_store::catalog::Catalog;
use fastframe_store::column::Column;
use fastframe_store::expr::Expr;
use fastframe_store::table::Table;

/// The kinds that wrap their bounder in RangeTrim.
const RANGE_TRIM_KINDS: [BounderKind; 3] = [
    BounderKind::HoeffdingRangeTrim,
    BounderKind::BernsteinRangeTrim,
    BounderKind::AndersonDkwRangeTrim,
];

/// Builds an expression tree over columns `c0..c{columns}` from a stream of
/// random genes: Add, Sub, Mul, Neg, Abs and Pow (exponent up to 4) inside,
/// columns and literals at the leaves. Columns may occur many times.
fn random_expr(genes: &mut impl Iterator<Item = u32>, columns: usize, depth: u32) -> Expr {
    let gene = genes.next().unwrap_or(0);
    let leaf = depth == 0 || gene % 8 >= 6;
    if leaf {
        return if gene % 5 == 0 {
            Expr::lit(f64::from(gene % 21) - 10.0)
        } else {
            Expr::col(format!("c{}", gene as usize % columns))
        };
    }
    let mut child = || random_expr(genes, columns, depth - 1);
    match gene % 8 {
        0 => child().add(child()),
        1 => child().sub(child()),
        2 => child().mul(child()),
        3 => Expr::Neg(Box::new(child())),
        4 => Expr::Abs(Box::new(child())),
        _ => child().pow(gene / 8 % 5),
    }
}

/// Builds an Add/Sub/Mul/Neg tree in which each of `columns` occurs exactly
/// once, splitting the columns between the children of each binary node.
fn single_occurrence_expr(genes: &mut impl Iterator<Item = u32>, columns: &[String]) -> Expr {
    let gene = genes.next().unwrap_or(0);
    let node = if let [column] = columns {
        Expr::col(column.clone())
    } else {
        let split = 1 + gene as usize % (columns.len() - 1);
        let left = single_occurrence_expr(genes, &columns[..split]);
        let right = single_occurrence_expr(genes, &columns[split..]);
        match gene / 4 % 3 {
            0 => left.add(right),
            1 => left.sub(right),
            _ => left.mul(right),
        }
    };
    if gene % 4 == 0 {
        Expr::Neg(Box::new(node))
    } else {
        node
    }
}

/// A table whose first `2^k` rows are the corners of the box of `ranges` and
/// whose remaining rows are the points `fractions` pick inside it, so the
/// catalog's range of column `ci` is `ranges[i]`.
fn box_table(ranges: &[(f64, f64)], fractions: &[f64]) -> Table {
    let corners = 1usize << ranges.len();
    let points = fractions.len() / ranges.len();
    let columns = ranges
        .iter()
        .enumerate()
        .map(|(i, &(lo, hi))| {
            let corner_values = (0..corners).map(|c| if c >> i & 1 == 1 { hi } else { lo });
            let interior = (0..points).map(|p| lo + fractions[p * ranges.len() + i] * (hi - lo));
            Column::float(format!("c{i}"), corner_values.chain(interior).collect())
        })
        .collect();
    Table::new(columns).unwrap()
}

/// Strategy: one to four column ranges inside [-100, 150], fractions for
/// interior points and genes for a tree.
fn box_and_genes() -> impl Strategy<Value = (Vec<(f64, f64)>, Vec<f64>, Vec<u32>)> {
    (1usize..5).prop_flat_map(|columns| {
        (
            proptest::collection::vec((-100.0f64..100.0, 0.0f64..50.0), columns..columns + 1)
                .prop_map(|r| r.into_iter().map(|(lo, w)| (lo, lo + w)).collect()),
            proptest::collection::vec(0.0f64..1.0, columns * 8..columns * 8 + 1),
            proptest::collection::vec(any::<u32>(), 1..40),
        )
    })
}

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

    /// Interval arithmetic encloses every evaluation of a random expression
    /// tree, at every corner of the box and at random interior points.
    #[test]
    fn derived_range_encloses_every_evaluation((ranges, fractions, genes) in box_and_genes()) {
        let expr = random_expr(&mut genes.into_iter(), ranges.len(), 4);
        let table = box_table(&ranges, &fractions);
        let (lo, hi) = expr.range_bounds(&Catalog::build(&table)).unwrap();
        let bound = expr.bind(&table).unwrap();
        for row in 0..table.num_rows() {
            let v = bound.evaluate(&table, row).unwrap();
            prop_assert!(lo <= v && v <= hi, "{expr}: {v} outside [{lo}, {hi}] at row {row}");
        }
    }

    /// With each column occurring once in an Add/Sub/Mul/Neg tree, the
    /// expression is linear in each column, so its extremes over the box lie
    /// at corners, and interval arithmetic finds them exactly (Moore, 1966).
    #[test]
    fn derived_range_is_exact_for_single_occurrence_trees(
        (ranges, fractions, genes) in box_and_genes()
    ) {
        let names: Vec<String> = (0..ranges.len()).map(|i| format!("c{i}")).collect();
        let expr = single_occurrence_expr(&mut genes.into_iter(), &names);
        let table = box_table(&ranges, &fractions);
        let (lo, hi) = expr.range_bounds(&Catalog::build(&table)).unwrap();
        let bound = expr.bind(&table).unwrap();
        let corners: Vec<f64> = (0..1usize << ranges.len())
            .map(|row| bound.evaluate(&table, row).unwrap())
            .collect();
        let min = corners.iter().copied().fold(f64::INFINITY, f64::min);
        let max = corners.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let tolerance = 1e-9 * min.abs().max(max.abs()).max(1.0);
        prop_assert!(
            (lo - min).abs() <= tolerance && (hi - max).abs() <= tolerance,
            "{expr}: [{lo}, {hi}] against corner extremes [{min}, {max}]"
        );
    }
}

//! The Anderson/DKW error bounder (Algorithm 3).
//!
//! Anderson (1969) showed how to turn a high-probability confidence *band*
//! around the CDF into confidence bounds on the mean, using the identity
//! `µ = b − ∫_a^b F(x) dx` (Lemma 2). The band itself comes from the
//! Dvoretzky–Kiefer–Wolfowitz inequality with Massart's tight constant
//! (Lemma 3): with probability at least `1 − δ`, the empirical CDF deviates
//! from the true CDF by at most `ε = sqrt(log(1/δ) / (2m))` everywhere.
//!
//! Theorem 1 of the paper shows DKW continues to hold when the sample is
//! drawn *without replacement* from a finite dataset, so the bounder is valid
//! in the FastFrame setting as well.
//!
//! The resulting lower bound drops the `ε`-fraction largest observed points
//! and re-allocates their mass to the lower range bound `a`:
//!
//! ```text
//! Lbound = ε·a + (1 − ε)·AVG({ x ∈ S : F̂(x) ≤ 1 − ε })
//! ```
//!
//! This bounder exhibits **PMA** (the re-allocated mass is pinned to `a`
//! regardless of what was observed) but **not PHOS** (the lower bound never
//! consults `b`), the mirror image of Bernstein's profile — see Table 2.
//! Unlike the other bounders it must retain the full sample, so its memory
//! footprint is `O(m)`.

use crate::bounder::BoundContext;

/// The Anderson/DKW error bounder (Algorithm 3 in the paper).
#[derive(Debug, Clone, Copy, Default)]
pub struct AndersonDkw;

impl AndersonDkw {
    /// Algorithm 3's `(Lbound, Rbound)` of `sample` (in any order) under
    /// `ctx`, each clamped to the declared range; the range itself for an
    /// empty sample. The sample is sorted once, in place, by `total_cmp`,
    /// so a NaN value does not panic the sort.
    pub fn bounds(mut sample: Vec<f64>, ctx: &BoundContext) -> (f64, f64) {
        if sample.is_empty() {
            return (ctx.a, ctx.b);
        }
        sample.sort_by(f64::total_cmp);
        (
            Self::lbound_sorted(&sample, ctx.a, ctx.delta).max(ctx.a),
            Self::rbound_sorted(&sample, ctx.b, ctx.delta).min(ctx.b),
        )
    }

    /// The DKW band half-width `ε = sqrt(log(1/δ) / (2m))`.
    pub fn band_epsilon(m: u64, delta: f64) -> f64 {
        if m == 0 {
            return f64::INFINITY;
        }
        ((1.0 / delta).ln() / (2.0 * m as f64)).sqrt()
    }

    /// Core of Algorithm 3's `Lbound`: computes
    /// `ε·a + (1−ε)·AVG({x ∈ sorted : F̂(x) ≤ 1 − ε})` for an already-sorted
    /// sample.
    fn lbound_sorted(sorted: &[f64], a: f64, delta: f64) -> f64 {
        let m = sorted.len();
        if m == 0 {
            return a;
        }
        let eps = Self::band_epsilon(m as u64, delta);
        if eps >= 1.0 {
            return a;
        }
        // F̂(x) for the i-th smallest (0-based) value is (i+1)/m; keep values
        // with F̂(x) <= 1 - eps, i.e. the smallest `keep` values where
        // keep = floor((1 - eps) * m).
        let keep = ((1.0 - eps) * m as f64).floor() as usize;
        if keep == 0 {
            return a;
        }
        let trimmed_avg = sorted[..keep].iter().sum::<f64>() / keep as f64;
        eps * a + (1.0 - eps) * trimmed_avg
    }

    /// Direct form of Algorithm 3's `Rbound`.
    ///
    /// Algorithm 3 defines `Rbound(S, a, b, N, δ) = (a+b) − Lbound((a+b) − S,
    /// a, b, N, δ)`. Expanding the reflection, the `a` terms cancel exactly
    /// and the bound equals `ε·b + (1−ε)·AVG(top keep values)`; computing it
    /// in this direct form avoids catastrophic cancellation for extreme range
    /// bounds and makes the absence of PHOS (no dependence on `a`) explicit.
    fn rbound_sorted(sorted: &[f64], b: f64, delta: f64) -> f64 {
        let m = sorted.len();
        if m == 0 {
            return b;
        }
        let eps = Self::band_epsilon(m as u64, delta);
        if eps >= 1.0 {
            return b;
        }
        let keep = ((1.0 - eps) * m as f64).floor() as usize;
        if keep == 0 {
            return b;
        }
        let trimmed_avg = sorted[m - keep..].iter().sum::<f64>() / keep as f64;
        eps * b + (1.0 - eps) * trimmed_avg
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bounder::{BounderKind, Estimator};

    fn ctx(a: f64, b: f64, n: u64, delta: f64) -> BoundContext {
        BoundContext::new(a, b, n, delta).unwrap()
    }

    fn feed(values: &[f64]) -> Estimator {
        let mut est = BounderKind::AndersonDkw.make_estimator();
        est.observe_batch(values);
        est
    }

    #[test]
    fn empty_state_returns_range_bounds() {
        let est = feed(&[]);
        let c = ctx(0.0, 1.0, 100, 0.05);
        assert_eq!(est.lbound(&c), 0.0);
        assert_eq!(est.rbound(&c), 1.0);
    }

    #[test]
    fn band_epsilon_closed_form() {
        let eps = AndersonDkw::band_epsilon(200, 0.05);
        assert!((eps - ((1.0f64 / 0.05).ln() / 400.0).sqrt()).abs() < 1e-12);
        assert!(AndersonDkw::band_epsilon(0, 0.05).is_infinite());
    }

    /// A NaN in the retained sample sorts by `total_cmp` instead of
    /// panicking; the bounds stay inside the declared range.
    #[test]
    fn a_nan_sample_value_does_not_panic_the_sort() {
        let est = feed(&[0.2, f64::NAN, 0.4, 0.6]);
        let c = BoundContext::new(0.0, 1.0, 100, 0.05).unwrap();
        let (lo, hi) = (est.lbound(&c), est.rbound(&c));
        assert!((0.0..=1.0).contains(&lo), "lbound {lo}");
        assert!((0.0..=1.0).contains(&hi), "rbound {hi}");
    }

    #[test]
    fn estimate_is_sample_mean() {
        let est = feed(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(est.count(), 4);
        assert!((est.estimate().unwrap() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn interval_contains_true_mean_of_uniform_data() {
        let values: Vec<f64> = (0..5000).map(|i| (i % 100) as f64 / 100.0).collect();
        let mean = values.iter().sum::<f64>() / values.len() as f64;
        let ci = feed(&values).interval(&ctx(0.0, 1.0, 1_000_000, 1e-9));
        assert!(ci.contains(mean), "{ci:?} should contain {mean}");
    }

    #[test]
    fn interval_shrinks_with_more_samples() {
        let small: Vec<f64> = (0..200).map(|i| (i % 10) as f64).collect();
        let large: Vec<f64> = (0..20_000).map(|i| (i % 10) as f64).collect();
        let c = ctx(0.0, 10.0, 10_000_000, 1e-9);
        let w_small = feed(&small).interval(&c).width();
        let w_large = feed(&large).interval(&c).width();
        assert!(w_large < w_small);
    }

    #[test]
    fn lower_bound_ignores_upper_range_bound() {
        // No PHOS: widening b must not change the lower bound.
        let values: Vec<f64> = (0..1000).map(|i| 10.0 + (i % 5) as f64).collect();
        let est = feed(&values);
        let narrow = ctx(0.0, 100.0, 1_000_000, 1e-9);
        let wide = ctx(0.0, 1_000_000.0, 1_000_000, 1e-9);
        assert_eq!(est.lbound(&narrow), est.lbound(&wide));
    }

    #[test]
    fn upper_bound_ignores_lower_range_bound() {
        let values: Vec<f64> = (0..1000).map(|i| 10.0 + (i % 5) as f64).collect();
        let est = feed(&values);
        let narrow = ctx(0.0, 100.0, 1_000_000, 1e-9);
        let wide = ctx(-1_000_000.0, 100.0, 1_000_000, 1e-9);
        let r_narrow = est.rbound(&narrow);
        let r_wide = est.rbound(&wide);
        assert!(
            (r_narrow - r_wide).abs() < 1e-9,
            "rbound must not depend on a: {r_narrow} vs {r_wide}"
        );
    }

    #[test]
    fn lower_bound_exhibits_pma() {
        // PMA: raising the *smallest* observed values (while keeping them in
        // the dropped/retained structure comparable) does not tighten the
        // lower bound width contribution from the re-allocated mass, because
        // that mass is always pinned to `a`. We verify the characteristic
        // symptom: the lower bound for data far above `a` is dragged down by
        // the ε·a term.
        let lb = feed(&[500.0; 1000]).lbound(&ctx(0.0, 1000.0, 1_000_000, 1e-9));
        let eps = AndersonDkw::band_epsilon(1000, 1e-9);
        // All retained values are 500, so Lbound = (1-ε)·500 exactly.
        assert!((lb - (1.0 - eps) * 500.0).abs() < 1e-9);
        assert!(lb < 500.0 - 10.0, "mass pinned to a drags the bound down");
    }

    #[test]
    fn tiny_sample_returns_range_bound() {
        // With m = 1 and small delta, ε ≥ 1 so the bound degenerates to a.
        let est = feed(&[5.0]);
        let c = ctx(0.0, 10.0, 100, 1e-9);
        assert_eq!(est.lbound(&c), 0.0);
        assert_eq!(est.rbound(&c), 10.0);
    }

    #[test]
    fn bounds_clamped_to_range() {
        let values: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let ci = feed(&values).interval(&ctx(0.0, 99.0, 10_000, 1e-15));
        assert!(ci.lo >= 0.0 && ci.hi <= 99.0);
    }

    #[test]
    fn reflection_symmetry() {
        // Algorithm 3's definition: Rbound of data x equals
        // (a+b) − Lbound of the reflected data (a+b) − x. The direct
        // implementation must agree with the reflection form.
        let values: Vec<f64> = (0..2000).map(|i| (i % 37) as f64).collect();
        let reflected: Vec<f64> = values.iter().map(|v| 100.0 - v).collect();
        let c = ctx(0.0, 100.0, 1_000_000, 1e-6);
        let r = feed(&values).rbound(&c);
        let l = feed(&reflected).lbound(&c);
        assert!(
            (r - (100.0 - l)).abs() < 1e-9,
            "r = {r}, 100 - l = {}",
            100.0 - l
        );
    }
}

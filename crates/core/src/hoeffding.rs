//! The Hoeffding–Serfling error bounder (Algorithm 1).
//!
//! The Hoeffding–Serfling inequality (Serfling 1974) bounds the deviation of
//! the running mean of a *without-replacement* sample from the population
//! mean, in terms of only the data range `(b − a)`, the sample size `m`, the
//! population size `N` and the error probability `δ`:
//!
//! ```text
//! ε = (b − a) · sqrt( log(1/δ) / (2m) · (1 − (m−1)/N) )
//! ```
//!
//! The resulting CI `[ĝ − ε, ĝ + ε]` is asymptotically optimal for worst-case
//! two-point data (half the mass at `a`, half at `b`) but is needlessly wide
//! for real data whose variance is much smaller than the range allows — this
//! bounder exhibits both **PMA** (its width ignores the observed values
//! entirely) and **PHOS** (both endpoints depend on both `a` and `b`), see
//! §2.3.3 and Table 2.

use crate::bounder::BoundContext;
use crate::variance::RunningMoments;

/// The Hoeffding–Serfling error bounder (Algorithm 1 in the paper). Its
/// bound reads only the count and the mean of the sample's
/// [`RunningMoments`], which every range-based kind keeps in one flat
/// record (see [`crate::partial`]).
#[derive(Debug, Clone, Copy, Default)]
pub struct HoeffdingSerfling;

impl HoeffdingSerfling {
    /// The half-width `ε` of the Hoeffding–Serfling confidence interval for a
    /// sample of `m` out of `n` values in a range of width `range`, at error
    /// probability `delta`.
    ///
    /// Exposed publicly because the COUNT machinery (Lemma 5 / Theorem 3)
    /// reuses exactly this expression with `range = 1` for selectivities.
    pub fn epsilon(m: u64, n: u64, range: f64, delta: f64) -> f64 {
        if m == 0 {
            return f64::INFINITY;
        }
        Self::epsilon_with_log(m, n, range, Self::log_term(delta))
    }

    /// The δ-only term `log(1/δ)` of [`Self::epsilon`]. It is the same for
    /// every sample bounded at one δ, so a caller bounding many samples at
    /// one δ computes it once ([`Self::epsilon_with_log`]).
    pub fn log_term(delta: f64) -> f64 {
        (1.0 / delta).ln()
    }

    /// [`Self::epsilon`] from its precomputed [`Self::log_term`], bit for
    /// bit.
    pub fn epsilon_with_log(m: u64, n: u64, range: f64, log_term: f64) -> f64 {
        if m == 0 {
            return f64::INFINITY;
        }
        // The sample cannot be larger than the population; if the caller's N
        // is an underestimate, clamp so the sampling-fraction term stays
        // non-negative (a larger N only loosens the bound, preserving
        // validity per the dataset-size monotonicity property).
        let n = n.max(m) as f64;
        let m_f = m as f64;
        let sampling_fraction = (1.0 - (m_f - 1.0) / n).max(0.0);
        range * (log_term / (2.0 * m_f) * sampling_fraction).sqrt()
    }

    /// `(lbound, rbound)` of `state` under `ctx`, from the precomputed
    /// [`Self::log_term`] of `ctx.delta`. Algorithm 1 implements Rbound by
    /// reflecting the state through `a + b` and reusing Lbound; the
    /// half-width is symmetric, so that is `mean + ε`.
    pub fn bounds_with_log(
        state: &RunningMoments,
        ctx: &BoundContext,
        log_term: f64,
    ) -> (f64, f64) {
        if state.count() == 0 {
            return (ctx.a, ctx.b);
        }
        let eps = Self::epsilon_with_log(state.count(), ctx.n, ctx.range_width(), log_term);
        (
            (state.mean() - eps).max(ctx.a),
            (state.mean() + eps).min(ctx.b),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bounder::{BounderKind, Estimator};

    fn ctx(n: u64, delta: f64) -> BoundContext {
        BoundContext::new(0.0, 1.0, n, delta).unwrap()
    }

    fn feed(values: &[f64]) -> Estimator {
        let mut est = BounderKind::Hoeffding.make_estimator();
        est.observe_batch(values);
        est
    }

    #[test]
    fn empty_state_returns_range_bounds() {
        let est = feed(&[]);
        let c = ctx(100, 0.05);
        assert_eq!(est.lbound(&c), 0.0);
        assert_eq!(est.rbound(&c), 1.0);
        assert!(est.estimate().is_none());
    }

    #[test]
    fn running_mean_is_exact() {
        let est = feed(&[0.1, 0.2, 0.3, 0.4]);
        assert_eq!(est.count(), 4);
        assert!((est.estimate().unwrap() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn epsilon_matches_closed_form() {
        // m = 100, N = 10_000, range = 1, delta = 0.05
        let eps = HoeffdingSerfling::epsilon(100, 10_000, 1.0, 0.05);
        let expected = ((1.0f64 / 0.05).ln() / 200.0 * (1.0 - 99.0 / 10_000.0)).sqrt();
        assert!((eps - expected).abs() < 1e-12);
    }

    #[test]
    fn interval_shrinks_with_more_samples() {
        let c = ctx(1_000_000, 1e-6);
        let w_small = feed(&[0.5; 100]).interval(&c).width();
        let w_large = feed(&[0.5; 10_000]).interval(&c).width();
        assert!(w_large < w_small);
    }

    #[test]
    fn interval_shrinks_with_larger_delta() {
        let est = feed(&[0.5; 1000]);
        let tight = est.interval(&ctx(1_000_000, 0.1)).width();
        let loose = est.interval(&ctx(1_000_000, 1e-12)).width();
        assert!(tight < loose);
    }

    #[test]
    fn sampling_fraction_tightens_bound() {
        // Same sample size, smaller population → tighter interval
        // (without-replacement benefit).
        let est = feed(&[0.5; 500]);
        let near_exhaustive = est.interval(&ctx(600, 1e-6)).width();
        let tiny_fraction = est.interval(&ctx(10_000_000, 1e-6)).width();
        assert!(near_exhaustive < tiny_fraction);
    }

    #[test]
    fn dataset_size_monotonicity() {
        // Using an upper bound for N must only loosen the bounds (§3.3).
        let est = feed(&[0.3; 200]);
        let c_small = ctx(1_000, 1e-9);
        let c_large = ctx(100_000, 1e-9);
        assert!(est.lbound(&c_large) <= est.lbound(&c_small));
        assert!(est.rbound(&c_large) >= est.rbound(&c_small));
    }

    #[test]
    fn exhaustive_sample_has_near_zero_width() {
        // When m == N the sampling fraction term (1 - (m-1)/N) = 1/N → width
        // shrinks towards 0 as N grows.
        let values: Vec<f64> = (0..10_000).map(|i| (i % 2) as f64).collect();
        let ci = feed(&values).interval(&ctx(10_000, 1e-9));
        assert!(ci.width() < 0.05, "width = {}", ci.width());
        assert!(ci.contains(0.5));
    }

    #[test]
    fn width_depends_only_on_range_and_count_not_values() {
        // This is precisely PMA: two samples with the same count but very
        // different value layouts get intervals of identical width (as long
        // as no clamping at the range boundary kicks in). The pathology
        // module turns this observation into a reusable probe.
        let c = ctx(100_000, 1e-6);
        let w_mid = feed(&[0.35; 1000]).interval(&c).width();
        let w_other = feed(&[0.65; 1000]).interval(&c).width();
        assert!((w_mid - w_other).abs() < 1e-12, "{w_mid} vs {w_other}");
    }

    #[test]
    fn bounds_are_clamped_to_range() {
        let ci = feed(&[0.5]).interval(&ctx(1_000_000, 1e-15));
        assert!(ci.lo >= 0.0);
        assert!(ci.hi <= 1.0);
    }

    #[test]
    fn m_larger_than_claimed_n_does_not_panic() {
        // Caller claims N = 10 < m = 50; epsilon clamps N to m.
        let ci = feed(&[0.5; 50]).interval(&ctx(10, 1e-6));
        assert!(ci.lo.is_finite() && ci.hi.is_finite());
        assert!(ci.lo <= 0.5 && ci.hi >= 0.5);
    }
}

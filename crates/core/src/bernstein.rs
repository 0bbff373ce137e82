//! The empirical Bernstein–Serfling error bounder (Algorithm 2).
//!
//! The (empirical) Bernstein–Serfling inequality (Bardenet & Maillard 2015)
//! gives without-replacement confidence bounds whose leading term scales with
//! the *empirical standard deviation* `σ̂` rather than the range `(b − a)`:
//!
//! ```text
//! κ = 7/3 + 3/√2
//! ρ = (1 − (m−1)/N)                        if m ≤ N/2
//!     (1 − m/N)(1 + 1/m)                   if m > N/2
//! ε = σ̂ · sqrt( 2ρ·log(5/δ) / m ) + κ·(b − a)·log(5/δ) / m
//! ```
//!
//! Because increasing the smallest observed values (or decreasing the largest)
//! shrinks `σ̂`, this bounder does **not** exhibit PMA. Its error is still
//! symmetric — both endpoints depend on both `a` and `b` through the additive
//! `(b − a)/m` term — so it **does** exhibit PHOS, which
//! [RangeTrim](crate::range_trim) removes (§3).

use crate::bounder::BoundContext;
use crate::variance::RunningMoments;

/// The constant `κ = 7/3 + 3/√2` from the empirical Bernstein–Serfling
/// inequality.
pub const KAPPA: f64 = 7.0 / 3.0 + 3.0 / std::f64::consts::SQRT_2;

/// The empirical Bernstein–Serfling error bounder (Algorithm 2 in the
/// paper). Its bound reads the count, mean and variance of the sample's
/// shifted-sum [`RunningMoments`], kept in O(1) memory.
#[derive(Debug, Clone, Copy, Default)]
pub struct EmpiricalBernsteinSerfling;

impl EmpiricalBernsteinSerfling {
    /// The `ρ` sampling-fraction factor of the empirical Bernstein–Serfling
    /// inequality (line 10–11 of Algorithm 2).
    pub fn rho(m: u64, n: u64) -> f64 {
        let n = n.max(m);
        let m_f = m as f64;
        let n_f = n as f64;
        if m_f <= n_f / 2.0 {
            (1.0 - (m_f - 1.0) / n_f).max(0.0)
        } else {
            ((1.0 - m_f / n_f) * (1.0 + 1.0 / m_f)).max(0.0)
        }
    }

    /// The δ-only term `log(5/δ)` of [`Self::epsilon`]. It is the same for
    /// every sample bounded at one δ, so a caller bounding many samples at
    /// one δ computes it once ([`Self::epsilon_with_log`]).
    pub fn log_term(delta: f64) -> f64 {
        (5.0 / delta).ln()
    }

    /// Half-width `ε` for a sample with empirical standard deviation
    /// `sigma_hat`, sample size `m`, population size `n`, range width `range`
    /// and per-side error probability `delta`.
    pub fn epsilon(sigma_hat: f64, m: u64, n: u64, range: f64, delta: f64) -> f64 {
        if m == 0 {
            return f64::INFINITY;
        }
        Self::epsilon_with_log(sigma_hat, m, n, range, Self::log_term(delta))
    }

    /// [`Self::epsilon`] from its precomputed [`Self::log_term`], bit for
    /// bit.
    pub fn epsilon_with_log(sigma_hat: f64, m: u64, n: u64, range: f64, log_term: f64) -> f64 {
        if m == 0 {
            return f64::INFINITY;
        }
        let m_f = m as f64;
        let rho = Self::rho(m, n);
        sigma_hat * (2.0 * rho * log_term / m_f).sqrt() + KAPPA * range * log_term / m_f
    }

    /// `(lbound, rbound)` of `state` under `ctx`, from the precomputed
    /// [`Self::log_term`] of `ctx.delta`.
    pub fn bounds_with_log(
        state: &RunningMoments,
        ctx: &BoundContext,
        log_term: f64,
    ) -> (f64, f64) {
        if state.count() == 0 {
            return (ctx.a, ctx.b);
        }
        let eps = Self::epsilon_with_log(
            state.std_dev(),
            state.count(),
            ctx.n,
            ctx.range_width(),
            log_term,
        );
        (
            (state.mean() - eps).max(ctx.a),
            (state.mean() + eps).min(ctx.b),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bounder::{BounderKind, Ci, Estimator};

    fn ctx(a: f64, b: f64, n: u64, delta: f64) -> BoundContext {
        BoundContext::new(a, b, n, delta).unwrap()
    }

    fn feed_kind(kind: BounderKind, values: &[f64]) -> Estimator {
        let mut est = kind.make_estimator();
        est.observe_batch(values);
        est
    }

    fn feed(values: &[f64]) -> Estimator {
        feed_kind(BounderKind::Bernstein, values)
    }

    /// The *non-empirical* Bernstein–Serfling bounder: assumes the population
    /// standard deviation `σ = sqrt(VAR(D))` is known a priori (§2.2.3).
    ///
    /// This oracle is not usable inside the query engine — "knowledge of
    /// VAR(D) typically cannot be assumed in a setting where AVG(D) is
    /// unknown" — but it is the natural yardstick for the empirical variant:
    /// the paper notes the empirical bounder returns intervals of
    /// asymptotically the same width as the oracle one. The half-width is
    ///
    /// ```text
    /// ε = σ · sqrt( 2ρ·log(3/δ) / m ) + κ'·(b − a)·log(3/δ) / m ,   κ' = 4/3
    /// ```
    ///
    /// with the same sampling-fraction factor `ρ` as the empirical variant.
    struct BernsteinSerfling {
        sigma: f64,
    }

    impl BernsteinSerfling {
        fn with_sigma(sigma: f64) -> Self {
            assert!(
                sigma >= 0.0 && sigma.is_finite(),
                "sigma must be a non-negative finite number"
            );
            Self { sigma }
        }

        /// Half-width `ε` for a sample of `m` out of `n` values.
        fn epsilon(&self, m: u64, n: u64, range: f64, delta: f64) -> f64 {
            let m_f = m as f64;
            let rho = EmpiricalBernsteinSerfling::rho(m, n);
            let log_term = (3.0 / delta).ln();
            self.sigma * (2.0 * rho * log_term / m_f).sqrt() + (4.0 / 3.0) * range * log_term / m_f
        }

        /// `(lbound, rbound)` of `state` under `ctx`.
        fn bounds(&self, state: &RunningMoments, ctx: &BoundContext) -> (f64, f64) {
            if state.count() == 0 {
                return (ctx.a, ctx.b);
            }
            let eps = self.epsilon(state.count(), ctx.n, ctx.range_width(), ctx.delta);
            (
                (state.mean() - eps).max(ctx.a),
                (state.mean() + eps).min(ctx.b),
            )
        }

        fn interval(&self, state: &RunningMoments, ctx: &BoundContext) -> Ci {
            Ci::two_sided(ctx, |half| self.bounds(state, half))
        }
    }

    fn moments(values: &[f64]) -> RunningMoments {
        let mut m = RunningMoments::new();
        for &v in values {
            m.push(v);
        }
        m
    }

    #[test]
    fn kappa_value() {
        // κ = 7/3 + 3/√2 ≈ 4.4547
        assert!((KAPPA - 4.454_653_7).abs() < 1e-6, "KAPPA = {KAPPA}");
    }

    #[test]
    fn empty_state_returns_range_bounds() {
        let est = feed(&[]);
        let c = ctx(-5.0, 5.0, 100, 0.05);
        assert_eq!(est.lbound(&c), -5.0);
        assert_eq!(est.rbound(&c), 5.0);
    }

    #[test]
    fn rho_switches_at_half_population() {
        // m <= N/2 branch
        let r1 = EmpiricalBernsteinSerfling::rho(10, 100);
        assert!((r1 - (1.0 - 9.0 / 100.0)).abs() < 1e-12);
        // m > N/2 branch
        let r2 = EmpiricalBernsteinSerfling::rho(80, 100);
        assert!((r2 - (1.0 - 0.8) * (1.0 + 1.0 / 80.0)).abs() < 1e-12);
    }

    #[test]
    fn epsilon_closed_form() {
        let eps = EmpiricalBernsteinSerfling::epsilon(2.0, 100, 100_000, 50.0, 0.01);
        let rho = EmpiricalBernsteinSerfling::rho(100, 100_000);
        let log_term = (5.0f64 / 0.01).ln();
        let expected =
            2.0 * (2.0 * rho * log_term / 100.0).sqrt() + KAPPA * 50.0 * log_term / 100.0;
        assert!((eps - expected).abs() < 1e-12);
    }

    #[test]
    fn low_variance_data_much_tighter_than_hoeffding() {
        // Data concentrated in a tiny sub-range of a huge declared range:
        // Bernstein's σ̂-scaling should beat Hoeffding's (b−a)-scaling by a
        // large factor once m is moderately large.
        let values: Vec<f64> = (0..20_000).map(|i| 100.0 + (i % 5) as f64).collect();
        let c = ctx(0.0, 10_000.0, 10_000_000, 1e-10);
        let w_bern = feed(&values).interval(&c).width();
        let w_hoef = feed_kind(BounderKind::Hoeffding, &values)
            .interval(&c)
            .width();
        assert!(
            w_bern * 3.0 < w_hoef,
            "expected Bernstein ({w_bern}) to be at least 3x tighter than Hoeffding ({w_hoef})"
        );
    }

    #[test]
    fn high_variance_data_not_much_worse_than_hoeffding() {
        // Adversarial two-point data at the range endpoints: Bernstein should
        // be within a constant factor of Hoeffding (its worst case).
        let values: Vec<f64> = (0..10_000)
            .map(|i| if i % 2 == 0 { 0.0 } else { 1.0 })
            .collect();
        let c = ctx(0.0, 1.0, 1_000_000, 1e-10);
        let w_bern = feed(&values).interval(&c).width();
        let w_hoef = feed_kind(BounderKind::Hoeffding, &values)
            .interval(&c)
            .width();
        assert!(w_bern < 5.0 * w_hoef, "bern {w_bern} vs hoef {w_hoef}");
    }

    #[test]
    fn width_shrinks_when_outliers_pulled_in() {
        // No PMA: replacing the smallest observed values with larger ones
        // (closer to the mean) must shrink the interval width.
        let with_outliers: Vec<f64> = (0..1000)
            .map(|i| if i % 100 == 0 { 0.0 } else { 500.0 })
            .collect();
        let pulled_in: Vec<f64> = (0..1000)
            .map(|i| if i % 100 == 0 { 450.0 } else { 500.0 })
            .collect();
        let c = ctx(0.0, 1000.0, 1_000_000, 1e-10);
        let w1 = feed(&with_outliers).interval(&c).width();
        let w2 = feed(&pulled_in).interval(&c).width();
        assert!(
            w2 < w1,
            "pulled-in width {w2} should be < outlier width {w1}"
        );
    }

    #[test]
    fn dataset_size_monotonicity() {
        let est = feed(&[3.0; 500]);
        let c_small = ctx(0.0, 10.0, 1_000, 1e-9);
        let c_large = ctx(0.0, 10.0, 1_000_000, 1e-9);
        assert!(est.lbound(&c_large) <= est.lbound(&c_small));
        assert!(est.rbound(&c_large) >= est.rbound(&c_small));
    }

    #[test]
    fn single_sample_interval_is_valid_but_wide() {
        let ci = feed(&[7.0]).interval(&ctx(0.0, 10.0, 1000, 1e-6));
        // With one sample the additive term dominates and clamping kicks in.
        assert_eq!(ci.lo, 0.0);
        assert_eq!(ci.hi, 10.0);
    }

    #[test]
    fn known_variance_variant_is_tighter_but_same_order() {
        // The oracle bounder (true σ known) must be at least as tight as the
        // empirical one (which pays for estimating σ̂), and the two converge
        // to the same order of magnitude for large m.
        let values: Vec<f64> = (0..50_000).map(|i| 100.0 + (i % 21) as f64).collect();
        let mean = values.iter().sum::<f64>() / values.len() as f64;
        let sigma =
            (values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / values.len() as f64).sqrt();
        let c = ctx(0.0, 1_000.0, 10_000_000, 1e-10);

        let oracle = BernsteinSerfling::with_sigma(sigma);
        let state = moments(&values);
        let w_oracle = oracle.interval(&state, &c).width();
        assert!(oracle.interval(&state, &c).contains(mean));
        assert_eq!(state.count(), 50_000);
        assert!((state.mean() - mean).abs() < 1e-9);

        let w_empirical = feed(&values).interval(&c).width();
        assert!(
            w_oracle <= w_empirical,
            "oracle {w_oracle} vs empirical {w_empirical}"
        );
        assert!(
            w_empirical < 5.0 * w_oracle,
            "empirical should be within a small factor of the oracle"
        );
    }

    #[test]
    fn known_variance_empty_state_returns_range_bounds() {
        let oracle = BernsteinSerfling::with_sigma(3.0);
        let c = ctx(-1.0, 1.0, 100, 0.01);
        assert_eq!(oracle.bounds(&RunningMoments::new(), &c), (-1.0, 1.0));
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn known_variance_rejects_negative_sigma() {
        BernsteinSerfling::with_sigma(-1.0);
    }

    #[test]
    fn zero_variance_width_driven_by_additive_term() {
        let m = 10_000u64;
        let ci = feed(&vec![5.0; m as usize]).interval(&ctx(0.0, 10.0, 100_000_000, 1e-10));
        let log_term = (5.0f64 / (1e-10 / 2.0)).ln();
        let additive = KAPPA * 10.0 * log_term / m as f64;
        assert!((ci.width() - 2.0 * additive).abs() < 1e-9);
    }
}

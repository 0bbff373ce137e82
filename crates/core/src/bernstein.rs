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
//! `(b − a)/m` term — so it **does** exhibit PHOS, which the
//! [`RangeTrim`](crate::range_trim::RangeTrim) wrapper removes (§3).

use crate::bounder::{BoundContext, ErrorBounder};
use crate::variance::RunningMoments;

/// The constant `κ = 7/3 + 3/√2` from the empirical Bernstein–Serfling
/// inequality.
pub const KAPPA: f64 = 7.0 / 3.0 + 3.0 / std::f64::consts::SQRT_2;

/// Streaming state for [`EmpiricalBernsteinSerfling`]: shifted-sum running
/// moments (count, a shift `K` taken from the data, `Σ (v − K)`,
/// `Σ (v − K)²`, the raw sum and the extremes) in O(1) memory.
pub type BernsteinState = RunningMoments;

/// The empirical Bernstein–Serfling error bounder (Algorithm 2 in the paper).
#[derive(Debug, Clone, Copy, Default)]
pub struct EmpiricalBernsteinSerfling;

impl EmpiricalBernsteinSerfling {
    /// Creates the bounder.
    pub fn new() -> Self {
        Self
    }

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
    /// [`Self::log_term`] of `ctx.delta`: the bounds of the
    /// [`ErrorBounder`] implementation, bit for bit.
    pub fn bounds_with_log(
        state: &BernsteinState,
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

/// The *non-empirical* Bernstein–Serfling bounder: assumes the population
/// standard deviation `σ = sqrt(VAR(D))` is known a priori (§2.2.3).
///
/// This oracle variant is not usable inside the query engine — "knowledge of
/// VAR(D) typically cannot be assumed in a setting where AVG(D) is unknown" —
/// but it is the natural yardstick for the empirical variant: the paper notes
/// the empirical bounder returns intervals of asymptotically the same width
/// as the oracle one, and the ablation benchmark quantifies the finite-sample
/// gap. The half-width is
///
/// ```text
/// ε = σ · sqrt( 2ρ·log(3/δ) / m ) + κ'·(b − a)·log(3/δ) / m ,   κ' = 4/3
/// ```
///
/// with the same sampling-fraction factor `ρ` as the empirical variant.
#[derive(Debug, Clone, Copy)]
pub struct BernsteinSerfling {
    sigma: f64,
}

impl BernsteinSerfling {
    /// Creates the bounder with the known population standard deviation.
    pub fn with_sigma(sigma: f64) -> Self {
        assert!(
            sigma >= 0.0 && sigma.is_finite(),
            "sigma must be a non-negative finite number"
        );
        Self { sigma }
    }

    /// The known population standard deviation.
    pub fn sigma(&self) -> f64 {
        self.sigma
    }

    /// Half-width `ε` for a sample of `m` out of `n` values.
    pub fn epsilon(sigma: f64, m: u64, n: u64, range: f64, delta: f64) -> f64 {
        if m == 0 {
            return f64::INFINITY;
        }
        let m_f = m as f64;
        let rho = EmpiricalBernsteinSerfling::rho(m, n);
        let log_term = (3.0 / delta).ln();
        sigma * (2.0 * rho * log_term / m_f).sqrt() + (4.0 / 3.0) * range * log_term / m_f
    }
}

impl ErrorBounder for BernsteinSerfling {
    type State = BernsteinState;

    fn init_state(&self) -> Self::State {
        RunningMoments::new()
    }

    #[inline]
    fn update_state(&self, state: &mut Self::State, v: f64) {
        state.push(v);
    }

    fn lbound(&self, state: &Self::State, ctx: &BoundContext) -> f64 {
        if state.count() == 0 {
            return ctx.a;
        }
        let eps = Self::epsilon(
            self.sigma,
            state.count(),
            ctx.n,
            ctx.range_width(),
            ctx.delta,
        );
        (state.mean() - eps).max(ctx.a)
    }

    fn rbound(&self, state: &Self::State, ctx: &BoundContext) -> f64 {
        if state.count() == 0 {
            return ctx.b;
        }
        let eps = Self::epsilon(
            self.sigma,
            state.count(),
            ctx.n,
            ctx.range_width(),
            ctx.delta,
        );
        (state.mean() + eps).min(ctx.b)
    }

    fn observed(&self, state: &Self::State) -> u64 {
        state.count()
    }

    fn estimate(&self, state: &Self::State) -> Option<f64> {
        (state.count() > 0).then_some(state.mean())
    }

    fn name(&self) -> &'static str {
        "bernstein-serfling(known-variance)"
    }
}

impl ErrorBounder for EmpiricalBernsteinSerfling {
    type State = BernsteinState;

    fn init_state(&self) -> Self::State {
        RunningMoments::new()
    }

    #[inline]
    fn update_state(&self, state: &mut Self::State, v: f64) {
        state.push(v);
    }

    fn lbound(&self, state: &Self::State, ctx: &BoundContext) -> f64 {
        Self::bounds_with_log(state, ctx, Self::log_term(ctx.delta)).0
    }

    fn rbound(&self, state: &Self::State, ctx: &BoundContext) -> f64 {
        Self::bounds_with_log(state, ctx, Self::log_term(ctx.delta)).1
    }

    fn observed(&self, state: &Self::State) -> u64 {
        state.count()
    }

    fn estimate(&self, state: &Self::State) -> Option<f64> {
        (state.count() > 0).then_some(state.mean())
    }

    fn name(&self) -> &'static str {
        "empirical-bernstein-serfling"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bounder::BoundContext;
    use crate::hoeffding::HoeffdingSerfling;

    fn ctx(a: f64, b: f64, n: u64, delta: f64) -> BoundContext {
        BoundContext::new(a, b, n, delta).unwrap()
    }

    fn feed(values: &[f64]) -> BernsteinState {
        let b = EmpiricalBernsteinSerfling::new();
        let mut st = b.init_state();
        for &v in values {
            b.update_state(&mut st, v);
        }
        st
    }

    #[test]
    fn kappa_value() {
        // κ = 7/3 + 3/√2 ≈ 4.4547
        assert!((KAPPA - 4.454_653_7).abs() < 1e-6, "KAPPA = {KAPPA}");
    }

    #[test]
    fn empty_state_returns_range_bounds() {
        let b = EmpiricalBernsteinSerfling::new();
        let st = b.init_state();
        let c = ctx(-5.0, 5.0, 100, 0.05);
        assert_eq!(b.lbound(&st, &c), -5.0);
        assert_eq!(b.rbound(&st, &c), 5.0);
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
        let st = feed(&values);
        let c = ctx(0.0, 10_000.0, 10_000_000, 1e-10);

        let bern = EmpiricalBernsteinSerfling::new();
        let w_bern = bern.interval(&st, &c).width();

        let hoef = HoeffdingSerfling::new();
        let mut hst = hoef.init_state();
        for &v in &values {
            hoef.update_state(&mut hst, v);
        }
        let w_hoef = hoef.interval(&hst, &c).width();

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
        let st = feed(&values);
        let c = ctx(0.0, 1.0, 1_000_000, 1e-10);

        let bern = EmpiricalBernsteinSerfling::new();
        let w_bern = bern.interval(&st, &c).width();

        let hoef = HoeffdingSerfling::new();
        let mut hst = hoef.init_state();
        for &v in &values {
            hoef.update_state(&mut hst, v);
        }
        let w_hoef = hoef.interval(&hst, &c).width();

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
        let b = EmpiricalBernsteinSerfling::new();
        let w1 = b.interval(&feed(&with_outliers), &c).width();
        let w2 = b.interval(&feed(&pulled_in), &c).width();
        assert!(
            w2 < w1,
            "pulled-in width {w2} should be < outlier width {w1}"
        );
    }

    #[test]
    fn dataset_size_monotonicity() {
        let b = EmpiricalBernsteinSerfling::new();
        let st = feed(&vec![3.0; 500]);
        let c_small = ctx(0.0, 10.0, 1_000, 1e-9);
        let c_large = ctx(0.0, 10.0, 1_000_000, 1e-9);
        assert!(b.lbound(&st, &c_large) <= b.lbound(&st, &c_small));
        assert!(b.rbound(&st, &c_large) >= b.rbound(&st, &c_small));
    }

    #[test]
    fn single_sample_interval_is_valid_but_wide() {
        let b = EmpiricalBernsteinSerfling::new();
        let st = feed(&[7.0]);
        let c = ctx(0.0, 10.0, 1000, 1e-6);
        let ci = b.interval(&st, &c);
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
        let mut ost = oracle.init_state();
        for &v in &values {
            oracle.update_state(&mut ost, v);
        }
        let w_oracle = oracle.interval(&ost, &c).width();
        assert!(oracle.interval(&ost, &c).contains(mean));
        assert_eq!(oracle.sigma(), sigma);
        assert_eq!(oracle.observed(&ost), 50_000);
        assert!((oracle.estimate(&ost).unwrap() - mean).abs() < 1e-9);

        let empirical = EmpiricalBernsteinSerfling::new();
        let w_empirical = empirical.interval(&feed(&values), &c).width();

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
        let st = oracle.init_state();
        let c = ctx(-1.0, 1.0, 100, 0.01);
        assert_eq!(oracle.lbound(&st, &c), -1.0);
        assert_eq!(oracle.rbound(&st, &c), 1.0);
        assert!(!oracle.name().is_empty());
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn known_variance_rejects_negative_sigma() {
        BernsteinSerfling::with_sigma(-1.0);
    }

    #[test]
    fn zero_variance_width_driven_by_additive_term() {
        let m = 10_000u64;
        let st = feed(&vec![5.0; m as usize]);
        let c = ctx(0.0, 10.0, 100_000_000, 1e-10);
        let b = EmpiricalBernsteinSerfling::new();
        let ci = b.interval(&st, &c);
        let log_term = (5.0f64 / (1e-10 / 2.0)).ln();
        let additive = KAPPA * 10.0 * log_term / m as f64;
        assert!((ci.width() - 2.0 * additive).abs() < 1e-9);
    }
}

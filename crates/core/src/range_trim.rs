//! RangeTrim (Algorithms 4 and 6) — the paper's primary contribution.
//!
//! RangeTrim converts any symmetric, range-based SSI error bounder into an
//! *asymmetric* one without phantom outlier sensitivity (PHOS): the returned
//! confidence lower bound depends only on the **maximum value observed so
//! far** (`b′ = max S`) rather than the a-priori upper range bound `b`, and
//! the upper bound depends only on the **minimum observed value**
//! (`a′ = min S`) rather than `a`.
//!
//! Conceptually (Algorithm 4), after drawing the sample `S`:
//!
//! 1. `Lbound` is computed over `S − {max S}` with range `[a, max S]` — by
//!    Lemma 4, conditioned on the value of `max S`, the remaining elements are
//!    a uniform without-replacement sample of `D_{< max S}`, whose average is
//!    at most `AVG(D)`, so the bound remains valid.
//! 2. `Rbound` is computed over `S − {min S}` with range `[min S, b]`
//!    (Corollary 1).
//! 3. Both use population size `N − 1` (valid by dataset-size monotonicity,
//!    since `|D_{<max S}| ≤ N − 1`).
//!
//! The streaming variant (Algorithm 6) withholds the first value and feeds
//! every later value `v` to a left state as `min(v, b′)` and to a right state
//! as `max(v, a′)`, where `a′`/`b′` are the extremes *before* `v`. This module
//! holds what every RangeTrim kind shares: the three moments ([`FlatMoments`])
//! and the two trimmed contexts. Hoeffding and Bernstein keep the clipped
//! states inside one record ([`crate::partial`]); Anderson/DKW, which keeps
//! its sample, clips it in one pass each time it bounds.
//!
//! When the effective data range `(MAX − MIN)` of the values contributing to
//! an aggregate is much smaller than the catalog range `(b − a)` — the common
//! case after filters and group-bys (Figure 2) — the trimmed bounds are
//! substantially tighter, which is what drives the additional speedups
//! reported for `Bernstein+RT` and `Hoeffding+RT` in §5.4.

use crate::bounder::BoundContext;
use crate::variance::RunningMoments;

/// Algorithm 6's three moments: every value (`all`) and the clipped `left`
/// and `right` states, materialised from a view's
/// [`FlatMaster`](crate::partial::FlatMaster) when its interval is computed.
#[derive(Debug, Clone, Copy, Default)]
pub struct FlatMoments {
    /// The state fed `min(v, b′)` — used for the confidence lower bound.
    pub left: RunningMoments,
    /// The state fed `max(v, a′)` — used for the confidence upper bound.
    pub right: RunningMoments,
    /// Every observed value, unclipped (including the first, which is not
    /// fed to the clipped states): the count, the untrimmed mean `ĝ`, the
    /// sum and the running extremes `a′`/`b′`.
    pub all: RunningMoments,
}

impl FlatMoments {
    /// The context RangeTrim's lower bound runs its inner bounder in:
    /// `Lbound(S_l, a, b′, N − 1, δ)`, with `b′` clamped so `[a, b′]` is a
    /// valid (possibly degenerate) range even if an observation sat exactly
    /// at `a`. `None` before the first observation.
    pub fn lower_context(&self, ctx: &BoundContext) -> Option<BoundContext> {
        lower_context(&self.all, ctx)
    }

    /// The context of RangeTrim's upper bound: `Rbound(S_r, a′, b, N − 1, δ)`
    /// (see [`Self::lower_context`]).
    pub fn upper_context(&self, ctx: &BoundContext) -> Option<BoundContext> {
        upper_context(&self.all, ctx)
    }
}

/// [`FlatMoments::lower_context`] from the moments of every value alone.
pub(crate) fn lower_context(all: &RunningMoments, ctx: &BoundContext) -> Option<BoundContext> {
    all.max().map(|b_prime| {
        ctx.with_range(ctx.a, b_prime.max(ctx.a))
            .with_n(ctx.n.saturating_sub(1).max(1))
    })
}

/// [`FlatMoments::upper_context`] from the moments of every value alone.
pub(crate) fn upper_context(all: &RunningMoments, ctx: &BoundContext) -> Option<BoundContext> {
    all.min().map(|a_prime| {
        ctx.with_range(a_prime.min(ctx.b), ctx.b)
            .with_n(ctx.n.saturating_sub(1).max(1))
    })
}

/// Algorithm 6's left and right samples of `values` in arrival order, in
/// one pass: the first value is withheld, and every later `v` becomes
/// `min(v, b′)` on the left and `max(v, a′)` on the right, with `a′`/`b′`
/// the extremes before `v`, updated as [`RunningMoments::push`] does.
pub(crate) fn clip(values: &[f64]) -> (Vec<f64>, Vec<f64>) {
    let (mut a_prime, mut b_prime) = (f64::INFINITY, f64::NEG_INFINITY);
    let mut left = Vec::with_capacity(values.len());
    let mut right = Vec::with_capacity(values.len());
    for (i, &v) in values.iter().enumerate() {
        if i > 0 {
            left.push(v.min(b_prime));
            right.push(v.max(a_prime));
        }
        a_prime = if v < a_prime { v } else { a_prime };
        b_prime = if v > b_prime { v } else { b_prime };
    }
    (left, right)
}

#[cfg(test)]
mod tests {
    use crate::bounder::{BoundContext, BounderKind, Estimator};
    use crate::partial::FlatRecord;

    fn ctx(a: f64, b: f64, n: u64, delta: f64) -> BoundContext {
        BoundContext::new(a, b, n, delta).unwrap()
    }

    fn feed(kind: BounderKind, values: &[f64]) -> Estimator {
        let mut est = kind.make_estimator();
        est.observe_batch(values);
        est
    }

    #[test]
    fn empty_state_returns_range_bounds() {
        let est = BounderKind::HoeffdingRangeTrim.make_estimator();
        let c = ctx(0.0, 100.0, 1000, 0.01);
        assert_eq!(est.lbound(&c), 0.0);
        assert_eq!(est.rbound(&c), 100.0);
        assert!(est.estimate().is_none());
    }

    #[test]
    fn first_observation_only_initializes_min_max() {
        let mut record = FlatRecord::EMPTY;
        record.observe(42.0);
        let st = record.moments(1);
        assert_eq!(st.all.min(), Some(42.0));
        assert_eq!(st.all.max(), Some(42.0));
        assert_eq!(st.all.count(), 1);
        // The clipped states have not seen any value yet.
        assert_eq!(st.left.count(), 0);
        assert_eq!(st.right.count(), 0);
        assert_eq!(st.all.mean(), 42.0);
    }

    #[test]
    fn inner_states_receive_clipped_values() {
        let mut record = FlatRecord::EMPTY;
        record.observe(10.0); // initializes a' = b' = 10
        record.observe(50.0); // left sees min(50, 10) = 10, right sees max(50, 10) = 50
        record.observe(5.0); // left sees min(5, 50) = 5, right sees max(5, 10) = 10
        let st = record.moments(1);
        assert_eq!(st.left.count(), 2);
        assert_eq!(st.right.count(), 2);
        assert!((st.left.mean() - 7.5).abs() < 1e-12); // (10 + 5) / 2
        assert!((st.right.mean() - 30.0).abs() < 1e-12); // (50 + 10) / 2
        assert_eq!(st.all.min(), Some(5.0));
        assert_eq!(st.all.max(), Some(50.0));
        // Anderson+RT's one pass over its sample clips the same way.
        assert_eq!(
            super::clip(&[10.0, 50.0, 5.0]),
            (vec![10.0, 5.0], vec![50.0, 10.0])
        );
    }

    #[test]
    fn estimate_is_untrimmed_running_mean() {
        let est = feed(BounderKind::BernsteinRangeTrim, &[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert!((est.estimate().unwrap() - 3.0).abs() < 1e-12);
        assert_eq!(est.count(), 5);
    }

    #[test]
    fn lbound_ignores_upper_range_bound() {
        // The defining property: PHOS is eliminated, so widening `b` must not
        // change the lower bound.
        let values: Vec<f64> = (0..2000).map(|i| 40.0 + (i % 21) as f64).collect();
        let est = feed(BounderKind::BernsteinRangeTrim, &values);
        let narrow = ctx(0.0, 100.0, 1_000_000, 1e-10);
        let wide = ctx(0.0, 1.0e9, 1_000_000, 1e-10);
        assert_eq!(est.lbound(&narrow), est.lbound(&wide));
    }

    #[test]
    fn rbound_ignores_lower_range_bound() {
        let values: Vec<f64> = (0..2000).map(|i| 40.0 + (i % 21) as f64).collect();
        let est = feed(BounderKind::BernsteinRangeTrim, &values);
        let narrow = ctx(0.0, 100.0, 1_000_000, 1e-10);
        let wide = ctx(-1.0e9, 100.0, 1_000_000, 1e-10);
        assert_eq!(est.rbound(&narrow), est.rbound(&wide));
    }

    #[test]
    fn base_bounder_exhibits_phos_where_rangetrim_does_not() {
        // Contrast: the raw Bernstein lower bound *does* move when b widens.
        let values: Vec<f64> = (0..2000).map(|i| 40.0 + (i % 21) as f64).collect();
        let est = feed(BounderKind::Bernstein, &values);
        let narrow = ctx(0.0, 100.0, 1_000_000, 1e-10);
        let wide = ctx(0.0, 1.0e6, 1_000_000, 1e-10);
        assert!(est.lbound(&narrow) > est.lbound(&wide));
    }

    /// Interval widths of `plain` and `trimmed` over the same values.
    fn widths(
        plain: BounderKind,
        trimmed: BounderKind,
        values: &[f64],
        c: &BoundContext,
    ) -> (f64, f64) {
        (
            feed(plain, values).interval(c).width(),
            feed(trimmed, values).interval(c).width(),
        )
    }

    #[test]
    fn roughly_twice_as_tight_when_effective_range_is_small() {
        // Data concentrated in [100, 105] inside a declared range of
        // [0, 10_000]: the lower bound's trimmed range collapses to
        // [0, max S] ≈ 105 while the upper bound still uses [min S, 10_000],
        // so the total width shrinks by roughly 2× — matching the paper's
        // observation that RangeTrim buys "an additional 2× in the best case"
        // for two-sided intervals (§7), and much more for one-sided bounds.
        // (Data is placed mid-range so neither interval is clamped at the
        // range boundary.)
        let values: Vec<f64> = (0..5_000).map(|i| 5_000.0 + (i % 6) as f64).collect();
        let c = ctx(0.0, 10_000.0, 10_000_000, 1e-10);
        let (w_plain, w_rt) = widths(
            BounderKind::Bernstein,
            BounderKind::BernsteinRangeTrim,
            &values,
            &c,
        );
        assert!(
            w_rt < 0.62 * w_plain,
            "RangeTrim width {w_rt} should be ~half of plain {w_plain}"
        );
    }

    #[test]
    fn one_sided_lower_bound_dramatically_tighter_for_concentrated_data() {
        // The HAVING-style use case: only the lower bound matters. Plain
        // Bernstein's lower bound is dragged down by the huge declared range;
        // RangeTrim's uses the observed maximum instead.
        let values: Vec<f64> = (0..5_000).map(|i| 100.0 + (i % 6) as f64).collect();
        let mean = values.iter().sum::<f64>() / values.len() as f64;
        let c = ctx(0.0, 10_000.0, 10_000_000, 1e-10);

        let gap_plain = mean - feed(BounderKind::Bernstein, &values).lbound(&c);
        let gap_rt = mean - feed(BounderKind::BernsteinRangeTrim, &values).lbound(&c);
        assert!(
            gap_rt * 10.0 < gap_plain,
            "lower-bound gap with RT ({gap_rt}) should be >=10x smaller than plain ({gap_plain})"
        );
    }

    #[test]
    fn hoeffding_rangetrim_tighter_than_hoeffding_for_concentrated_data() {
        let values: Vec<f64> = (0..5_000).map(|i| 100.0 + (i % 6) as f64).collect();
        let c = ctx(0.0, 10_000.0, 10_000_000, 1e-10);
        let (w_plain, w_rt) = widths(
            BounderKind::Hoeffding,
            BounderKind::HoeffdingRangeTrim,
            &values,
            &c,
        );
        assert!(w_rt < w_plain);
    }

    #[test]
    fn not_much_worse_when_data_spans_full_range() {
        // When observed min/max already equal the catalog bounds RangeTrim
        // loses one sample and splits nothing; width should be within a small
        // factor of the untrimmed bounder.
        let values: Vec<f64> = (0..4_000)
            .map(|i| if i % 2 == 0 { 0.0 } else { 100.0 })
            .collect();
        let c = ctx(0.0, 100.0, 1_000_000, 1e-10);
        let (w_plain, w_rt) = widths(
            BounderKind::Bernstein,
            BounderKind::BernsteinRangeTrim,
            &values,
            &c,
        );
        assert!(w_rt < 1.2 * w_plain, "rt {w_rt} vs plain {w_plain}");
    }

    #[test]
    fn interval_contains_true_mean() {
        let values: Vec<f64> = (0..3_000).map(|i| ((i * 37) % 500) as f64).collect();
        let mean = values.iter().sum::<f64>() / values.len() as f64;
        let c = ctx(0.0, 1_000.0, 1_000_000, 1e-12);
        let ci = feed(BounderKind::BernsteinRangeTrim, &values).interval(&c);
        assert!(ci.contains(mean), "{ci:?} should contain {mean}");
    }

    #[test]
    fn single_observation_yields_full_range_interval() {
        let est = feed(BounderKind::BernsteinRangeTrim, &[50.0]);
        let c = ctx(0.0, 100.0, 1000, 1e-9);
        let ci = est.interval(&c);
        // The inner states are still empty, so bounds degrade gracefully to
        // the (trimmed) range bounds.
        assert_eq!(ci.lo, 0.0);
        assert!(ci.hi <= 100.0);
    }

    #[test]
    fn dataset_size_monotonicity_preserved() {
        let est = feed(BounderKind::BernsteinRangeTrim, &[5.0; 300]);
        let c_small = ctx(0.0, 10.0, 1_000, 1e-9);
        let c_large = ctx(0.0, 10.0, 1_000_000, 1e-9);
        assert!(est.lbound(&c_large) <= est.lbound(&c_small));
        assert!(est.rbound(&c_large) >= est.rbound(&c_small));
    }

    #[test]
    fn population_of_one_does_not_panic() {
        let est = feed(BounderKind::HoeffdingRangeTrim, &[7.0]);
        let c = ctx(0.0, 10.0, 1, 0.01);
        let ci = est.interval(&c);
        assert!(ci.lo.is_finite() && ci.hi.is_finite());
    }
}

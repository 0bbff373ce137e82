//! Confidence intervals, bound contexts and runtime-selectable estimators.
//!
//! The paper presents every bounder in terms of four functions (§2.2.2):
//! initialise a streaming state, fold a newly seen value into it, and a
//! confidence lower (`Lbound`) and upper (`Rbound`) bound for `AVG(D)` from
//! the state, the range `[a, b]`, the dataset size `N` and the error
//! probability `δ` ([`BoundContext`]). Each bound has one implementation:
//!
//! * Hoeffding and Bernstein, with and without RangeTrim, fold every value
//!   into one flat record ([`FlatRecord`]) and bound it with
//!   [`FlatBounder`]. These are the kinds the query engine runs
//!   ([`BounderKind::EVALUATED`]).
//! * Anderson/DKW keeps its O(m) sample and bounds it with
//!   [`AndersonDkw::bounds`]; with RangeTrim it first clips the sample in one
//!   pass ([`crate::range_trim`]). The engine refuses these kinds.
//!
//! [`BounderKind::make_estimator`] returns an [`Estimator`] of any kind: the
//! values observed so far and that kind's bounds over them, used by the
//! Table 2 probes ([`crate::pathology`]), the bounder benches and the tests.

use crate::anderson::AndersonDkw;
use crate::error::{CoreError, CoreResult};
use crate::partial::{FlatBounder, FlatRecord};
use crate::range_trim::{self, lower_context, upper_context};
use crate::variance::RunningMoments;

/// A closed confidence interval `[lo, hi]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Ci {
    /// Confidence lower bound (`g_l` in the paper).
    pub lo: f64,
    /// Confidence upper bound (`g_r` in the paper).
    pub hi: f64,
}

impl Ci {
    /// Creates a new interval. Callers must ensure `lo <= hi`.
    pub fn new(lo: f64, hi: f64) -> Self {
        debug_assert!(lo <= hi, "interval bounds out of order: [{lo}, {hi}]");
        Self { lo, hi }
    }

    /// The trivially-valid interval covering the full data range.
    pub fn full_range(a: f64, b: f64) -> Self {
        Self { lo: a, hi: b }
    }

    /// Interval width `hi - lo`.
    #[inline]
    pub fn width(&self) -> f64 {
        self.hi - self.lo
    }

    /// Midpoint of the interval.
    #[inline]
    pub fn midpoint(&self) -> f64 {
        0.5 * (self.lo + self.hi)
    }

    /// Whether the interval contains `value`.
    #[inline]
    pub fn contains(&self, value: f64) -> bool {
        self.lo <= value && value <= self.hi
    }

    /// Whether this interval overlaps `other`.
    #[inline]
    pub fn intersects(&self, other: &Ci) -> bool {
        self.lo <= other.hi && other.lo <= self.hi
    }

    /// Intersection of the two intervals, used by the running interval of
    /// [`OptStop`](crate::optstop). When the intervals are disjoint (which can
    /// only happen on the `δ`-probability failure event) the result collapses
    /// to a degenerate interval at the boundary.
    pub fn intersect(&self, other: &Ci) -> Ci {
        let lo = self.lo.max(other.lo);
        let hi = self.hi.min(other.hi);
        if lo <= hi {
            Ci { lo, hi }
        } else {
            let mid = 0.5 * (lo + hi);
            Ci { lo: mid, hi: mid }
        }
    }

    /// The two-sided `(1 − ctx.delta)` interval from one-sided bounds that
    /// spend `ctx.delta / 2` each (union bound), clamped to the declared
    /// range. `bounds` returns `(lbound, rbound)` under the halved context.
    pub fn two_sided(ctx: &BoundContext, bounds: impl FnOnce(&BoundContext) -> (f64, f64)) -> Ci {
        let (lo, hi) = bounds(&ctx.with_delta(ctx.delta * 0.5));
        Ci::new(lo.min(hi), hi.max(lo)).clamp_to(ctx.a, ctx.b)
    }

    /// Clamps the interval to the enclosing data range `[a, b]`.
    ///
    /// Because the true aggregate always lies inside the data range, clamping
    /// never invalidates a confidence interval; it only tightens vacuous
    /// looseness (e.g. Bernstein's additive `(b-a)/m` term with one sample).
    pub fn clamp_to(&self, a: f64, b: f64) -> Ci {
        Ci {
            lo: self.lo.clamp(a, b),
            hi: self.hi.clamp(a, b),
        }
    }

    /// Maximum relative deviation of the interval endpoints from `estimate`,
    /// as used by stopping condition Ì (sufficient relative accuracy):
    /// `max{ (hi − ĝ)/|hi| , (ĝ − lo)/|lo| }`.
    ///
    /// Returns `f64::INFINITY` when an endpoint is zero but the interval has
    /// non-zero width (the relative error is then unbounded).
    pub fn relative_error(&self, estimate: f64) -> f64 {
        if self.width() == 0.0 {
            return 0.0;
        }
        let upper = if self.hi != 0.0 {
            (self.hi - estimate) / self.hi.abs()
        } else {
            f64::INFINITY
        };
        let lower = if self.lo != 0.0 {
            (estimate - self.lo) / self.lo.abs()
        } else {
            f64::INFINITY
        };
        upper.max(lower)
    }
}

/// The side information every range-based bounder needs: the a-priori range
/// bounds `[a, b]`, the (possibly upper-bounded) dataset size `N` and the
/// error probability `δ` allotted to the bound being computed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BoundContext {
    /// Lower range bound `a` (`[a, b] ⊇ [MIN(D), MAX(D)]`).
    pub a: f64,
    /// Upper range bound `b`.
    pub b: f64,
    /// Dataset size `N`, or any upper bound on it (dataset-size monotonicity,
    /// §3.3, guarantees an upper bound only loosens the interval).
    pub n: u64,
    /// Error probability for a *single* call to `lbound` or `rbound`.
    pub delta: f64,
}

impl BoundContext {
    /// Creates a validated context.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidRange`] if `a > b` or either bound is not
    /// finite, [`CoreError::InvalidDelta`] if `delta ∉ (0, 1)` and
    /// [`CoreError::EmptyPopulation`] if `n == 0`.
    pub fn new(a: f64, b: f64, n: u64, delta: f64) -> CoreResult<Self> {
        if !(a.is_finite() && b.is_finite()) || a > b {
            return Err(CoreError::InvalidRange { a, b });
        }
        if !(delta > 0.0 && delta < 1.0) {
            return Err(CoreError::InvalidDelta { delta });
        }
        if n == 0 {
            return Err(CoreError::EmptyPopulation);
        }
        Ok(Self { a, b, n, delta })
    }

    /// Returns a copy with a different error probability.
    pub fn with_delta(&self, delta: f64) -> Self {
        Self { delta, ..*self }
    }

    /// Returns a copy with a different dataset size.
    pub fn with_n(&self, n: u64) -> Self {
        Self { n, ..*self }
    }

    /// Returns a copy with different range bounds.
    pub fn with_range(&self, a: f64, b: f64) -> Self {
        Self { a, b, ..*self }
    }

    /// Width of the declared range `b − a`.
    #[inline]
    pub fn range_width(&self) -> f64 {
        self.b - self.a
    }
}

/// An estimator of one [`BounderKind`]: the values it has observed, and
/// that kind's bounds over them. [`BounderKind::make_estimator`] creates
/// one.
#[derive(Debug, Clone)]
pub struct Estimator(State);

/// What an [`Estimator`] keeps of the values it has observed.
#[derive(Debug, Clone)]
enum State {
    /// Hoeffding and Bernstein (±RT): one open record of every value, the
    /// engine's update.
    Flat(FlatBounder, FlatRecord),
    /// Anderson/DKW (±RT): the sample in arrival order, which RangeTrim
    /// clips by, and the moments of every value.
    Sample {
        range_trim: bool,
        values: Vec<f64>,
        all: RunningMoments,
    },
}

impl Estimator {
    /// Observes a value that contributes to this aggregate.
    pub fn observe(&mut self, v: f64) {
        match &mut self.0 {
            State::Flat(_, open) => open.observe(v),
            State::Sample { values, all, .. } => {
                values.push(v);
                all.push(v);
            }
        }
    }

    /// Observes a batch of values in slice order, bit-identical to one
    /// [`Self::observe`] per value.
    pub fn observe_batch(&mut self, batch: &[f64]) {
        match &mut self.0 {
            State::Flat(_, open) => open.observe_batch(batch),
            State::Sample { values, all, .. } => {
                values.extend_from_slice(batch);
                batch.iter().for_each(|&v| all.push(v));
            }
        }
    }

    /// The moments of every observed value.
    fn all(&self) -> &RunningMoments {
        match &self.0 {
            State::Flat(_, open) => &open.all,
            State::Sample { all, .. } => all,
        }
    }

    /// Number of observed values.
    pub fn count(&self) -> u64 {
        self.all().count()
    }

    /// Running mean, or `None` if no values have been observed. Plain
    /// Anderson/DKW reports its sample's running sum over its size; every
    /// other kind the mean of its moments.
    pub fn estimate(&self) -> Option<f64> {
        let all = self.all();
        (all.count() > 0).then(|| match self.0 {
            State::Sample {
                range_trim: false, ..
            } => all.sum() / all.count() as f64,
            _ => all.mean(),
        })
    }

    /// Confidence lower bound with failure probability `< ctx.delta`.
    pub fn lbound(&self, ctx: &BoundContext) -> f64 {
        self.bounds(ctx).0
    }

    /// Confidence upper bound with failure probability `< ctx.delta`.
    pub fn rbound(&self, ctx: &BoundContext) -> f64 {
        self.bounds(ctx).1
    }

    /// Two-sided `(1 − ctx.delta)` confidence interval for the population
    /// mean: each side spends `ctx.delta / 2` ([`Ci::two_sided`]).
    pub fn interval(&self, ctx: &BoundContext) -> Ci {
        Ci::two_sided(ctx, |half| self.bounds(half))
    }

    /// `(lbound, rbound)` under `ctx`. Anderson/DKW+RT clips its sample as
    /// Algorithm 6 does and bounds the left sample under `[a, b′]` and the
    /// right one under `[a′, b]`, both at `N − 1`.
    fn bounds(&self, ctx: &BoundContext) -> (f64, f64) {
        match &self.0 {
            State::Flat(kind, open) => kind.bounds(&open.moments(1), ctx),
            State::Sample {
                range_trim: false,
                values,
                ..
            } => AndersonDkw::bounds(values.clone(), ctx),
            State::Sample {
                range_trim: true,
                values,
                all,
            } => {
                let (left, right) = range_trim::clip(values);
                (
                    lower_context(all, ctx).map_or(ctx.a, |inner| {
                        AndersonDkw::bounds(left, &inner).0.max(ctx.a)
                    }),
                    upper_context(all, ctx).map_or(ctx.b, |inner| {
                        AndersonDkw::bounds(right, &inner).1.min(ctx.b)
                    }),
                )
            }
        }
    }
}

/// Runtime-selectable bounder configurations evaluated in the paper (§5.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BounderKind {
    /// Hoeffding–Serfling (Algorithm 1). Exhibits both PMA and PHOS.
    Hoeffding,
    /// Hoeffding–Serfling wrapped in RangeTrim (PHOS removed, PMA remains).
    HoeffdingRangeTrim,
    /// Empirical Bernstein–Serfling (Algorithm 2). No PMA, exhibits PHOS.
    Bernstein,
    /// Empirical Bernstein–Serfling wrapped in RangeTrim — the paper's
    /// recommended configuration with neither PMA nor PHOS.
    BernsteinRangeTrim,
    /// Anderson/DKW (Algorithm 3). No PHOS, exhibits PMA; O(m) memory, so
    /// the query engine refuses it (Table 2 probes and ablations only).
    AndersonDkw,
    /// Anderson/DKW wrapped in RangeTrim (kept for completeness/ablations;
    /// the query engine refuses it).
    AndersonDkwRangeTrim,
}

impl BounderKind {
    /// All kinds, in the order used by the paper's tables.
    pub const ALL: [BounderKind; 6] = [
        BounderKind::Hoeffding,
        BounderKind::HoeffdingRangeTrim,
        BounderKind::Bernstein,
        BounderKind::BernsteinRangeTrim,
        BounderKind::AndersonDkw,
        BounderKind::AndersonDkwRangeTrim,
    ];

    /// The four kinds compared throughout the paper's evaluation (Table 5),
    /// all with constant-memory state: the kinds the query engine runs.
    pub const EVALUATED: [BounderKind; 4] = [
        BounderKind::Hoeffding,
        BounderKind::HoeffdingRangeTrim,
        BounderKind::Bernstein,
        BounderKind::BernsteinRangeTrim,
    ];

    /// A fresh [`Estimator`] of this kind. Hoeffding and Bernstein (±RT)
    /// run the engine's one flat-record update; Anderson/DKW (±RT) keeps
    /// its sample, which the engine does not.
    pub fn make_estimator(&self) -> Estimator {
        Estimator(match self.flat() {
            Some(flat) => State::Flat(flat, FlatRecord::EMPTY),
            None => State::Sample {
                range_trim: self.uses_range_trim(),
                values: Vec::new(),
                all: RunningMoments::new(),
            },
        })
    }

    /// The flat-record form of this kind, or `None` for Anderson/DKW (±RT),
    /// whose state is an O(m) sample (see [`crate::partial`]). The kinds
    /// with a flat form are exactly [`Self::EVALUATED`], the ones the query
    /// engine runs.
    pub fn flat(&self) -> Option<FlatBounder> {
        match self {
            BounderKind::Hoeffding => Some(FlatBounder::Hoeffding),
            BounderKind::HoeffdingRangeTrim => Some(FlatBounder::HoeffdingRangeTrim),
            BounderKind::Bernstein => Some(FlatBounder::Bernstein),
            BounderKind::BernsteinRangeTrim => Some(FlatBounder::BernsteinRangeTrim),
            BounderKind::AndersonDkw | BounderKind::AndersonDkwRangeTrim => None,
        }
    }

    /// Whether this configuration applies the RangeTrim wrapper.
    pub fn uses_range_trim(&self) -> bool {
        matches!(
            self,
            BounderKind::HoeffdingRangeTrim
                | BounderKind::BernsteinRangeTrim
                | BounderKind::AndersonDkwRangeTrim
        )
    }

    /// Short label used in benchmark tables (matching the paper's column
    /// headers, e.g. `Bernstein+RT`).
    pub fn label(&self) -> &'static str {
        match self {
            BounderKind::Hoeffding => "Hoeffding",
            BounderKind::HoeffdingRangeTrim => "Hoeffding+RT",
            BounderKind::Bernstein => "Bernstein",
            BounderKind::BernsteinRangeTrim => "Bernstein+RT",
            BounderKind::AndersonDkw => "Anderson/DKW",
            BounderKind::AndersonDkwRangeTrim => "Anderson/DKW+RT",
        }
    }
}

impl std::fmt::Display for BounderKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Value-by-value reference folds of every bound an [`Estimator`]
/// computes: §2.2.2's interface as a minimal trait, Hoeffding and Bernstein
/// over [`RunningMoments::push`], Anderson/DKW over its sample, and
/// Algorithm 6's three-state RangeTrim around any of them. Tests compare the
/// one implementation that ships against these.
#[cfg(test)]
pub(crate) mod reference {
    use super::{BoundContext, Ci};
    use crate::anderson::AndersonDkw;
    use crate::bernstein::EmpiricalBernsteinSerfling;
    use crate::hoeffding::HoeffdingSerfling;
    use crate::variance::RunningMoments;

    /// A streaming bounder (§2.2.2): a state, its update, and the one-sided
    /// bounds `Lbound` and `Rbound` at failure probability `ctx.delta`.
    pub(crate) trait Bounder {
        type State;
        fn init_state(&self) -> Self::State;
        fn update_state(&self, state: &mut Self::State, v: f64);
        fn lbound(&self, state: &Self::State, ctx: &BoundContext) -> f64;
        fn rbound(&self, state: &Self::State, ctx: &BoundContext) -> f64;
        fn estimate(&self, state: &Self::State) -> Option<f64>;

        /// The state after `values`, folded one at a time.
        fn fold(&self, values: &[f64]) -> Self::State {
            let mut state = self.init_state();
            for &v in values {
                self.update_state(&mut state, v);
            }
            state
        }

        /// The two-sided interval, `ctx.delta / 2` per side.
        fn interval(&self, state: &Self::State, ctx: &BoundContext) -> Ci {
            Ci::two_sided(ctx, |half| {
                (self.lbound(state, half), self.rbound(state, half))
            })
        }
    }

    /// Hoeffding (Algorithm 1) and Bernstein (Algorithm 2) over the moments
    /// of every value.
    macro_rules! moments_bounder {
        ($bounder:ident) => {
            impl Bounder for $bounder {
                type State = RunningMoments;
                fn init_state(&self) -> RunningMoments {
                    RunningMoments::new()
                }
                fn update_state(&self, state: &mut RunningMoments, v: f64) {
                    state.push(v);
                }
                fn lbound(&self, state: &RunningMoments, ctx: &BoundContext) -> f64 {
                    $bounder::bounds_with_log(state, ctx, $bounder::log_term(ctx.delta)).0
                }
                fn rbound(&self, state: &RunningMoments, ctx: &BoundContext) -> f64 {
                    $bounder::bounds_with_log(state, ctx, $bounder::log_term(ctx.delta)).1
                }
                fn estimate(&self, state: &RunningMoments) -> Option<f64> {
                    (state.count() > 0).then(|| state.mean())
                }
            }
        };
    }
    moments_bounder!(HoeffdingSerfling);
    moments_bounder!(EmpiricalBernsteinSerfling);

    /// Anderson/DKW (Algorithm 3) over its sample and running sum.
    impl Bounder for AndersonDkw {
        type State = (Vec<f64>, f64);
        fn init_state(&self) -> Self::State {
            (Vec::new(), 0.0)
        }
        fn update_state(&self, (sample, sum): &mut Self::State, v: f64) {
            sample.push(v);
            *sum += v;
        }
        fn lbound(&self, (sample, _): &Self::State, ctx: &BoundContext) -> f64 {
            AndersonDkw::bounds(sample.clone(), ctx).0
        }
        fn rbound(&self, (sample, _): &Self::State, ctx: &BoundContext) -> f64 {
            AndersonDkw::bounds(sample.clone(), ctx).1
        }
        fn estimate(&self, (sample, sum): &Self::State) -> Option<f64> {
            (!sample.is_empty()).then(|| sum / sample.len() as f64)
        }
    }

    /// Algorithm 6 around an inner bounder, with three states.
    pub(crate) struct RangeTrim<B>(pub(crate) B);

    /// [`RangeTrim`]'s state: the inner states fed `min(v, b′)` (left) and
    /// `max(v, a′)` (right), and the moments of every value.
    pub(crate) struct Trimmed<S> {
        pub(crate) left: S,
        pub(crate) right: S,
        pub(crate) all: RunningMoments,
    }

    impl<B: Bounder> Bounder for RangeTrim<B> {
        type State = Trimmed<B::State>;

        fn init_state(&self) -> Self::State {
            Trimmed {
                left: self.0.init_state(),
                right: self.0.init_state(),
                all: RunningMoments::new(),
            }
        }

        /// The first value only sets `a′` and `b′`; every later value is
        /// clipped against the extremes before it.
        fn update_state(&self, state: &mut Self::State, v: f64) {
            if let (Some(a_prime), Some(b_prime)) = (state.all.min(), state.all.max()) {
                self.0.update_state(&mut state.left, v.min(b_prime));
                self.0.update_state(&mut state.right, v.max(a_prime));
            }
            state.all.push(v);
        }

        /// `Lbound(S_l, a, b′, N − 1, δ)`, clamped to the declared range.
        fn lbound(&self, state: &Self::State, ctx: &BoundContext) -> f64 {
            state.all.max().map_or(ctx.a, |b_prime| {
                let inner = ctx.with_range(ctx.a, b_prime.max(ctx.a));
                let inner = inner.with_n(ctx.n.saturating_sub(1).max(1));
                self.0.lbound(&state.left, &inner).max(ctx.a)
            })
        }

        /// `Rbound(S_r, a′, b, N − 1, δ)`, clamped to the declared range.
        fn rbound(&self, state: &Self::State, ctx: &BoundContext) -> f64 {
            state.all.min().map_or(ctx.b, |a_prime| {
                let inner = ctx.with_range(a_prime.min(ctx.b), ctx.b);
                let inner = inner.with_n(ctx.n.saturating_sub(1).max(1));
                self.0.rbound(&state.right, &inner).min(ctx.b)
            })
        }

        fn estimate(&self, state: &Self::State) -> Option<f64> {
            (state.all.count() > 0).then(|| state.all.mean())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::reference::{Bounder, RangeTrim, Trimmed};
    use super::*;
    use crate::bernstein::EmpiricalBernsteinSerfling;
    use crate::hoeffding::HoeffdingSerfling;

    #[test]
    fn ci_basic_accessors() {
        let ci = Ci::new(2.0, 6.0);
        assert_eq!(ci.width(), 4.0);
        assert_eq!(ci.midpoint(), 4.0);
        assert!(ci.contains(2.0));
        assert!(ci.contains(6.0));
        assert!(!ci.contains(6.1));
    }

    #[test]
    fn ci_intersection_and_overlap() {
        let a = Ci::new(0.0, 5.0);
        let b = Ci::new(3.0, 10.0);
        assert!(a.intersects(&b));
        let i = a.intersect(&b);
        assert_eq!(i, Ci::new(3.0, 5.0));

        let c = Ci::new(7.0, 9.0);
        assert!(!a.intersects(&c));
        let collapsed = a.intersect(&c);
        assert_eq!(collapsed.width(), 0.0);
    }

    #[test]
    fn ci_clamp_to_range() {
        let ci = Ci::new(-5.0, 150.0).clamp_to(0.0, 100.0);
        assert_eq!(ci, Ci::new(0.0, 100.0));
    }

    #[test]
    fn ci_relative_error() {
        let ci = Ci::new(8.0, 12.0);
        let rel = ci.relative_error(10.0);
        assert!((rel - 0.25).abs() < 1e-12, "rel = {rel}");

        let degenerate = Ci::new(10.0, 10.0);
        assert_eq!(degenerate.relative_error(10.0), 0.0);

        let through_zero = Ci::new(0.0, 4.0);
        assert!(through_zero.relative_error(2.0).is_infinite());
    }

    #[test]
    fn bound_context_validation() {
        assert!(BoundContext::new(0.0, 1.0, 10, 0.05).is_ok());
        assert!(matches!(
            BoundContext::new(1.0, 0.0, 10, 0.05),
            Err(CoreError::InvalidRange { .. })
        ));
        assert!(matches!(
            BoundContext::new(0.0, 1.0, 10, 0.0),
            Err(CoreError::InvalidDelta { .. })
        ));
        assert!(matches!(
            BoundContext::new(0.0, 1.0, 10, 1.0),
            Err(CoreError::InvalidDelta { .. })
        ));
        assert!(matches!(
            BoundContext::new(0.0, 1.0, 0, 0.05),
            Err(CoreError::EmptyPopulation)
        ));
        assert!(matches!(
            BoundContext::new(f64::NAN, 1.0, 10, 0.05),
            Err(CoreError::InvalidRange { .. })
        ));
    }

    #[test]
    fn bound_context_with_helpers() {
        let ctx = BoundContext::new(0.0, 10.0, 100, 0.1).unwrap();
        assert_eq!(ctx.with_delta(0.01).delta, 0.01);
        assert_eq!(ctx.with_n(50).n, 50);
        let r = ctx.with_range(-1.0, 1.0);
        assert_eq!((r.a, r.b), (-1.0, 1.0));
        assert_eq!(ctx.range_width(), 10.0);
    }

    #[test]
    fn bounder_kind_factory_produces_named_estimators() {
        for kind in BounderKind::ALL {
            let est = kind.make_estimator();
            assert_eq!(est.count(), 0);
            assert!(est.estimate().is_none());
            assert!(!kind.label().is_empty());
            assert_eq!(kind.to_string(), kind.label());
        }
    }

    #[test]
    fn bounder_kind_labels_are_distinct() {
        let labels: std::collections::HashSet<_> =
            BounderKind::ALL.iter().map(|k| k.label()).collect();
        assert_eq!(labels.len(), BounderKind::ALL.len());
    }

    #[test]
    fn boxed_estimator_round_trip() {
        let mut est = BounderKind::BernsteinRangeTrim.make_estimator();
        let ctx = BoundContext::new(0.0, 100.0, 10_000, 1e-6).unwrap();
        for i in 0..500 {
            est.observe(50.0 + (i % 10) as f64);
        }
        assert_eq!(est.count(), 500);
        let mean = est.estimate().unwrap();
        assert!((mean - 54.5).abs() < 1e-9);
        let ci = est.interval(&ctx);
        assert!(ci.contains(mean));
    }

    /// The batch entry point is a dispatch optimization, not a numerical
    /// one: feeding an estimator one batch must leave it bit-for-bit
    /// identical to the per-value update loop, for every bounder kind and
    /// any batch split. The engine's determinism guarantee rests on this.
    #[test]
    fn observe_batch_is_bitwise_identical_to_scalar_updates() {
        let values: Vec<f64> = (0..257)
            .map(|i| ((i * 37) % 113) as f64 / 7.0 - 3.0)
            .collect();
        for kind in BounderKind::ALL {
            let mut scalar = kind.make_estimator();
            for &v in &values {
                scalar.observe(v);
            }
            // Batch the same values in uneven chunks, including an empty one.
            let mut batched = kind.make_estimator();
            batched.observe_batch(&[]);
            for chunk in values.chunks(61) {
                batched.observe_batch(chunk);
            }
            assert_eq!(batched.count(), scalar.count(), "{kind}");
            assert_eq!(
                batched.estimate().map(f64::to_bits),
                scalar.estimate().map(f64::to_bits),
                "{kind}: batched estimate differs from scalar"
            );
            let ctx = BoundContext::new(-5.0, 20.0, 100_000, 1e-9).unwrap();
            let (bi, si) = (batched.interval(&ctx), scalar.interval(&ctx));
            assert_eq!(bi.lo.to_bits(), si.lo.to_bits(), "{kind}: lbound bits");
            assert_eq!(bi.hi.to_bits(), si.hi.to_bits(), "{kind}: rbound bits");
        }
    }

    /// The samples every kind is checked on: empty, a single value, a
    /// bounded body, that body with a 10⁶σ outlier first or last, and the
    /// body holding a NaN.
    fn samples() -> Vec<(&'static str, Vec<f64>)> {
        let body: Vec<f64> = (0..257)
            .map(|i| ((i * 37) % 113) as f64 / 7.0 - 3.0)
            .collect();
        // σ of the body is about 4.7.
        let outlier = 1e6 * 4.7;
        let mut nan = body.clone();
        nan[100] = f64::NAN;
        vec![
            ("empty", Vec::new()),
            ("single", vec![4.0]),
            ("body", body.clone()),
            ("outlier first", [&[outlier], &body[..]].concat()),
            ("outlier last", [&body[..], &[outlier]].concat()),
            ("NaN", nan),
        ]
    }

    /// The bits of `(estimate, lbound, rbound, interval lo, interval hi)`.
    type Bits = (Option<u64>, u64, u64, u64, u64);

    fn bits_of(estimate: Option<f64>, lbound: f64, rbound: f64, ci: Ci) -> Bits {
        (
            estimate.map(f64::to_bits),
            lbound.to_bits(),
            rbound.to_bits(),
            ci.lo.to_bits(),
            ci.hi.to_bits(),
        )
    }

    fn reference_bits<B: Bounder>(bounder: &B, state: &B::State, ctx: &BoundContext) -> Bits {
        bits_of(
            bounder.estimate(state),
            bounder.lbound(state, ctx),
            bounder.rbound(state, ctx),
            bounder.interval(state, ctx),
        )
    }

    /// Every kind's estimator, fed value by value and in uneven batches
    /// (an empty one included), against its value-by-value reference, bit
    /// for bit on the estimate, both one-sided bounds and the interval.
    /// Hoeffding, Bernstein and Anderson/DKW (±RT) are checked against their
    /// reference folds. The one record of Hoeffding+RT and Bernstein+RT holds
    /// the three-state fold's clipped multisets but not its bits (the
    /// `partial` tests compare them within a tolerance), so those two are
    /// checked against the reference RangeTrim over the moments the record
    /// materialises.
    #[test]
    fn every_kind_matches_its_reference_bit_for_bit() {
        let contexts = [
            BoundContext::new(-5.0, 20.0, 100_000, 1e-9).unwrap(),
            BoundContext::new(-5.0, 1e7, 1_000, 1e-3).unwrap(),
        ];
        for (name, values) in samples() {
            for kind in BounderKind::ALL {
                let mut scalar = kind.make_estimator();
                for &v in &values {
                    scalar.observe(v);
                }
                let mut batched = kind.make_estimator();
                batched.observe_batch(&[]);
                for chunk in values.chunks(61) {
                    batched.observe_batch(chunk);
                }
                let moments = match &scalar.0 {
                    State::Flat(_, open) => open.moments(1),
                    State::Sample { .. } => Default::default(),
                };
                let record = Trimmed {
                    left: moments.left,
                    right: moments.right,
                    all: moments.all,
                };
                for ctx in &contexts {
                    let want = match kind {
                        BounderKind::Hoeffding => reference_bits(
                            &HoeffdingSerfling,
                            &HoeffdingSerfling.fold(&values),
                            ctx,
                        ),
                        BounderKind::Bernstein => reference_bits(
                            &EmpiricalBernsteinSerfling,
                            &EmpiricalBernsteinSerfling.fold(&values),
                            ctx,
                        ),
                        BounderKind::AndersonDkw => {
                            reference_bits(&AndersonDkw, &AndersonDkw.fold(&values), ctx)
                        }
                        BounderKind::AndersonDkwRangeTrim => {
                            let rt = RangeTrim(AndersonDkw);
                            reference_bits(&rt, &rt.fold(&values), ctx)
                        }
                        BounderKind::HoeffdingRangeTrim => {
                            reference_bits(&RangeTrim(HoeffdingSerfling), &record, ctx)
                        }
                        BounderKind::BernsteinRangeTrim => {
                            reference_bits(&RangeTrim(EmpiricalBernsteinSerfling), &record, ctx)
                        }
                    };
                    for (how, est) in [("scalar", &scalar), ("batched", &batched)] {
                        let what = format!("{kind} {how} on {name}");
                        assert_eq!(est.count(), values.len() as u64, "{what}");
                        let got = bits_of(
                            est.estimate(),
                            est.lbound(ctx),
                            est.rbound(ctx),
                            est.interval(ctx),
                        );
                        assert_eq!(got, want, "{what} under {ctx:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn uses_range_trim_flag() {
        assert!(!BounderKind::Hoeffding.uses_range_trim());
        assert!(BounderKind::HoeffdingRangeTrim.uses_range_trim());
        assert!(BounderKind::BernsteinRangeTrim.uses_range_trim());
    }
}

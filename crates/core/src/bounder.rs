//! The error-bounder interface of §2.2.2 and runtime-selectable estimators.
//!
//! The paper presents every bounder in terms of four functions:
//!
//! 1. `init_state()` — initialize the streaming state;
//! 2. `update_state(S, v)` — fold a newly seen value into the state;
//! 3. `Lbound(S, a, b, N, δ)` — a confidence *lower* bound for `AVG(D)`;
//! 4. `Rbound(S, a, b, N, δ)` — a confidence *upper* bound for `AVG(D)`.
//!
//! [`ErrorBounder`] mirrors this interface with an associated `State` type so
//! that concrete bounders (and the [`RangeTrim`]
//! wrapper) compose with static dispatch. For callers that select the
//! bounder at runtime, [`BounderKind`] provides a factory producing a
//! [`BoxedEstimator`] — an object-safe, self-contained estimator owning both
//! the bounder and its state, used by the bounder benchmarks and tests. The
//! query engine runs only the constant-memory kinds
//! ([`BounderKind::EVALUATED`]), each accumulating a plain
//! [`FlatRecord`](crate::partial::FlatRecord) through
//! [`BounderKind::flat`], with the same update and bound code.

use crate::anderson::AndersonDkw;
use crate::error::{CoreError, CoreResult};
use crate::partial::{FlatBounder, FlatEstimator};
use crate::range_trim::RangeTrim;

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

/// A streaming, sample-size-independent error bounder for `AVG` following the
/// interface of §2.2.2.
///
/// Implementations must guarantee, for samples drawn uniformly without
/// replacement from a dataset `D` of at most `ctx.n` values in
/// `[ctx.a, ctx.b]`:
///
/// * `P( lbound(..) > AVG(D) ) < ctx.delta`, and
/// * `P( rbound(..) < AVG(D) ) < ctx.delta`,
///
/// for **any** sample size (SSI semantics, Definition 1). Implementations must
/// also obey the dataset-size monotonicity property of §3.3: increasing
/// `ctx.n` never tightens the returned bounds.
pub trait ErrorBounder {
    /// Streaming state maintained while scanning tuples.
    type State: Clone + std::fmt::Debug + Send + 'static;

    /// Ê Initializes state needed for error bounds.
    fn init_state(&self) -> Self::State;

    /// Ë Folds a newly-seen value into the state.
    fn update_state(&self, state: &mut Self::State, v: f64);

    /// Folds a batch of values into the state, in slice order.
    ///
    /// The contract is strict: the resulting state must be **bit-for-bit
    /// identical** to calling [`Self::update_state`] once per element in the
    /// same order. Batch execution is a dispatch/loop-overhead optimization,
    /// never a numerical one, so a state does not depend on how its values
    /// were split into batches.
    fn update_batch(&self, state: &mut Self::State, values: &[f64]) {
        for &v in values {
            self.update_state(state, v);
        }
    }

    /// Ì Confidence lower bound for `AVG(D)` with failure probability
    /// `< ctx.delta`.
    fn lbound(&self, state: &Self::State, ctx: &BoundContext) -> f64;

    /// Í Confidence upper bound for `AVG(D)` with failure probability
    /// `< ctx.delta`.
    fn rbound(&self, state: &Self::State, ctx: &BoundContext) -> f64;

    /// Number of values folded into `state`.
    fn observed(&self, state: &Self::State) -> u64;

    /// Current point estimate (running mean) held by `state`, or `None` for an
    /// empty state.
    fn estimate(&self, state: &Self::State) -> Option<f64>;

    /// Convenience: a two-sided `(1 − ctx.delta)` confidence interval obtained
    /// by spending `ctx.delta / 2` on each side (union bound) and clamping to
    /// the declared range.
    fn interval(&self, state: &Self::State, ctx: &BoundContext) -> Ci {
        Ci::two_sided(ctx, |half| {
            (self.lbound(state, half), self.rbound(state, half))
        })
    }

    /// Human-readable name used by the benchmark harness.
    fn name(&self) -> &'static str;
}

/// Object-safe estimator: a bounder bundled with its own state, for callers
/// that pick the bounder at runtime.
pub trait MeanEstimator: Send {
    /// Observes a value that contributes to this aggregate.
    fn observe(&mut self, v: f64);

    /// Observes a batch of values in slice order — bit-identical to calling
    /// [`Self::observe`] once per element, but with a single virtual
    /// dispatch for the whole batch.
    fn observe_batch(&mut self, values: &[f64]) {
        for &v in values {
            self.observe(v);
        }
    }

    /// Number of observed values.
    fn count(&self) -> u64;

    /// Running mean, or `None` if no values have been observed.
    fn estimate(&self) -> Option<f64>;

    /// Two-sided `(1 − delta)` confidence interval for the population mean.
    fn interval(&self, ctx: &BoundContext) -> Ci;

    /// Confidence lower bound with failure probability `< ctx.delta`.
    fn lbound(&self, ctx: &BoundContext) -> f64;

    /// Confidence upper bound with failure probability `< ctx.delta`.
    fn rbound(&self, ctx: &BoundContext) -> f64;

    /// Resets the estimator to its initial (empty) state.
    fn reset(&mut self);

    /// Name of the underlying bounder.
    fn bounder_name(&self) -> &'static str;
}

/// Pairs an [`ErrorBounder`] with its state, implementing [`MeanEstimator`].
#[derive(Debug, Clone)]
pub struct Estimator<B: ErrorBounder> {
    bounder: B,
    state: B::State,
}

impl<B: ErrorBounder> Estimator<B> {
    /// Creates a new estimator with freshly initialized state.
    pub fn new(bounder: B) -> Self {
        let state = bounder.init_state();
        Self { bounder, state }
    }

    /// Read access to the underlying bounder.
    pub fn bounder(&self) -> &B {
        &self.bounder
    }

    /// Read access to the underlying state.
    pub fn state(&self) -> &B::State {
        &self.state
    }
}

impl<B: ErrorBounder + Send> MeanEstimator for Estimator<B> {
    fn observe(&mut self, v: f64) {
        self.bounder.update_state(&mut self.state, v);
    }

    fn observe_batch(&mut self, values: &[f64]) {
        // One virtual call per batch; the inner loop is monomorphized over
        // the concrete bounder.
        self.bounder.update_batch(&mut self.state, values);
    }

    fn count(&self) -> u64 {
        self.bounder.observed(&self.state)
    }

    fn estimate(&self) -> Option<f64> {
        self.bounder.estimate(&self.state)
    }

    fn interval(&self, ctx: &BoundContext) -> Ci {
        self.bounder.interval(&self.state, ctx)
    }

    fn lbound(&self, ctx: &BoundContext) -> f64 {
        self.bounder.lbound(&self.state, ctx)
    }

    fn rbound(&self, ctx: &BoundContext) -> f64 {
        self.bounder.rbound(&self.state, ctx)
    }

    fn reset(&mut self) {
        self.state = self.bounder.init_state();
    }

    fn bounder_name(&self) -> &'static str {
        self.bounder.name()
    }
}

/// A boxed, dynamically-dispatched estimator.
pub type BoxedEstimator = Box<dyn MeanEstimator>;

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

    /// Creates a fresh boxed estimator of this kind. Hoeffding and
    /// Bernstein (±RT) run the engine's one flat-record update
    /// ([`FlatEstimator`]); Anderson/DKW (±RT) the generic bounder state,
    /// which the engine does not run.
    pub fn make_estimator(&self) -> BoxedEstimator {
        match (self, self.flat()) {
            (_, Some(flat)) => Box::new(FlatEstimator::new(flat)),
            (BounderKind::AndersonDkwRangeTrim, None) => {
                Box::new(Estimator::new(RangeTrim::new(AndersonDkw::new())))
            }
            (_, None) => Box::new(Estimator::new(AndersonDkw::new())),
        }
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

#[cfg(test)]
mod tests {
    use super::*;

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
            assert!(!est.bounder_name().is_empty());
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
        est.reset();
        assert_eq!(est.count(), 0);
    }

    /// Every kind's estimator, and the generic [`Estimator`] over each
    /// bounder the flat kinds stand for (their reference, see
    /// `crate::partial`), as labelled factories.
    fn every_estimator() -> Vec<(String, Box<dyn Fn() -> BoxedEstimator>)> {
        use crate::bernstein::EmpiricalBernsteinSerfling;
        use crate::hoeffding::HoeffdingSerfling;
        let mut all: Vec<(String, Box<dyn Fn() -> BoxedEstimator>)> = BounderKind::ALL
            .iter()
            .map(|&kind| {
                let make: Box<dyn Fn() -> BoxedEstimator> = Box::new(move || kind.make_estimator());
                (kind.to_string(), make)
            })
            .collect();
        all.push((
            "generic Hoeffding".into(),
            Box::new(|| Box::new(Estimator::new(HoeffdingSerfling))),
        ));
        all.push((
            "generic Bernstein".into(),
            Box::new(|| Box::new(Estimator::new(EmpiricalBernsteinSerfling))),
        ));
        all.push((
            "generic Hoeffding+RT".into(),
            Box::new(|| Box::new(Estimator::new(RangeTrim::new(HoeffdingSerfling)))),
        ));
        all.push((
            "generic Bernstein+RT".into(),
            Box::new(|| Box::new(Estimator::new(RangeTrim::new(EmpiricalBernsteinSerfling)))),
        ));
        all
    }

    /// The batch entry points are dispatch optimizations, not numerical
    /// ones: feeding a state one batch must leave it bit-for-bit identical
    /// to the per-value update loop, for every bounder kind and any batch
    /// split. The engine's determinism guarantee rests on this.
    #[test]
    fn observe_batch_is_bitwise_identical_to_scalar_updates() {
        let values: Vec<f64> = (0..257)
            .map(|i| ((i * 37) % 113) as f64 / 7.0 - 3.0)
            .collect();
        for (kind, make_estimator) in every_estimator() {
            let mut scalar = make_estimator();
            for &v in &values {
                scalar.observe(v);
            }
            // Batch the same values in uneven chunks, including an empty one.
            let mut batched = make_estimator();
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

    #[test]
    fn uses_range_trim_flag() {
        assert!(!BounderKind::Hoeffding.uses_range_trim());
        assert!(BounderKind::HoeffdingRangeTrim.uses_range_trim());
        assert!(BounderKind::BernsteinRangeTrim.uses_range_trim());
    }
}

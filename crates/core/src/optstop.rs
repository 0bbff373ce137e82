//! The OptStop optional-stopping meta-algorithm (Algorithm 5).
//!
//! Fixing a sample size up front is usually impractical: how many samples are
//! needed depends on the (unknown) data distribution and on how tight the
//! bounds must be for the query's stopping condition. OptStop instead takes
//! samples in rounds of `B` and recomputes the confidence interval after each
//! round with a *decayed* error probability `δ_k = (6/π²)·δ/k²`; by the union
//! bound and `Σ 1/k² = π²/6`, the probability that **any** round's interval
//! misses the true aggregate is at most δ (Theorem 4). Consequently the
//! intersection of all rounds' intervals — the *running interval* — is itself
//! a valid `(1 − δ)` interval at every point in time, and the query may stop
//! the moment its stopping condition is met.
//!
//! This module provides the running interval accumulator
//! ([`RunningInterval`]) and the paper's round size; the δ schedule is
//! [`DeltaBudget::optstop_round`](crate::delta::DeltaBudget::optstop_round),
//! and the engine drives the actual sampling loop.

use crate::bounder::Ci;

/// The default number of samples per OptStop round used by the paper's
/// experiments (§4.2: "we set B = 40000").
pub const DEFAULT_ROUND_SIZE: u64 = 40_000;

/// Running intersection of per-round confidence intervals
/// (`[max_k L_k, min_k R_k]`, Algorithm 5 line 14).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RunningInterval {
    current: Option<Ci>,
}

impl RunningInterval {
    /// Creates an empty running interval (no rounds observed).
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds in the interval computed at the end of a round.
    pub fn update(&mut self, round_ci: Ci) -> Ci {
        let next = match self.current {
            None => round_ci,
            Some(prev) => prev.intersect(&round_ci),
        };
        self.current = Some(next);
        next
    }

    /// The current running interval, if any round has completed.
    pub fn current(&self) -> Option<Ci> {
        self.current
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn running_interval_is_monotonically_shrinking() {
        let mut r = RunningInterval::new();
        assert!(r.current().is_none());
        let first = r.update(Ci::new(0.0, 10.0));
        assert_eq!(first, Ci::new(0.0, 10.0));
        let second = r.update(Ci::new(2.0, 12.0));
        assert_eq!(second, Ci::new(2.0, 10.0));
        let third = r.update(Ci::new(1.0, 9.0));
        assert_eq!(third, Ci::new(2.0, 9.0));
        // Widths never increase.
        assert!(third.width() <= second.width());
        assert!(second.width() <= first.width());
    }

    #[test]
    fn running_interval_handles_disjoint_rounds() {
        // Disjoint rounds only occur on the δ-probability failure event; the
        // accumulator collapses rather than producing an inverted interval.
        let mut r = RunningInterval::new();
        r.update(Ci::new(0.0, 1.0));
        let collapsed = r.update(Ci::new(5.0, 6.0));
        assert!(collapsed.width() == 0.0);
        assert!(collapsed.lo <= collapsed.hi);
    }

    #[test]
    fn default_round_size_matches_paper() {
        assert_eq!(DEFAULT_ROUND_SIZE, 40_000);
    }
}

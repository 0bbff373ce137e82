//! Confidence intervals for `COUNT` and for unknown dataset sizes (§4.1).
//!
//! When a filter of unknown selectivity is applied, the error bounders of
//! §2/§3 cannot be used directly because they need the size `N` of the
//! dataset being averaged (the *aggregate view*). The paper's fix:
//!
//! * conceptually assign each scramble row a 1 if it belongs to the aggregate
//!   view and a 0 otherwise; the mean of that 0/1 column is the selectivity
//!   `σ_v`;
//! * a Hoeffding–Serfling bound over the scanned prefix of the scramble gives
//!   a two-sided bound on `σ_v` (Lemma 5), hence on `N = σ_v · R` — this is
//!   the `COUNT` confidence interval;
//! * for `AVG`, Theorem 3 uses only the *upper* end `N⁺` with a `(1 − α)·δ`
//!   slice of the budget, and feeds `N⁺` to the mean bounder with the
//!   remaining `α·δ` (dataset-size monotonicity makes the upper bound safe).

use crate::bounder::Ci;
use crate::delta::DEFAULT_ALPHA;
use crate::error::{CoreError, CoreResult};
use crate::hoeffding::HoeffdingSerfling;

/// A confidence interval for a `COUNT` aggregate, carrying both the
/// selectivity interval and the row-count interval.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CountCi {
    /// CI for the selectivity `σ_v ∈ [0, 1]`.
    pub selectivity: Ci,
    /// CI for the number of rows `N = σ_v · R` (clamped to `[seen, R]`).
    pub count: Ci,
    /// Point estimate of the count.
    pub estimate: f64,
}

/// Streaming tracker for the selectivity of one aggregate view while a
/// scramble is scanned (Lemma 5).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SelectivityTracker {
    /// Total number of rows in the scramble (`R`).
    scramble_rows: u64,
    /// Rows of the scramble processed so far (`r`), whether or not they
    /// matched.
    processed: u64,
    /// Rows seen so far that belong to the aggregate view (`m_v`).
    matching: u64,
}

impl SelectivityTracker {
    /// Creates a tracker for a scramble with `scramble_rows` total rows.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::EmptyPopulation`] if `scramble_rows == 0`.
    pub fn new(scramble_rows: u64) -> CoreResult<Self> {
        if scramble_rows == 0 {
            return Err(CoreError::EmptyPopulation);
        }
        Ok(Self {
            scramble_rows,
            processed: 0,
            matching: 0,
        })
    }

    /// Records that one more scramble row has been processed;
    /// `matched` says whether it belongs to the aggregate view.
    #[inline]
    pub fn record(&mut self, matched: bool) {
        self.processed += 1;
        if matched {
            self.matching += 1;
        }
    }

    /// Records a batch of processed rows, `matched` of which belonged to the
    /// view. Useful for block-at-a-time processing.
    pub fn record_batch(&mut self, processed: u64, matched: u64) {
        debug_assert!(matched <= processed);
        self.processed += processed;
        self.matching += matched;
    }

    /// Rows processed so far.
    pub fn processed(&self) -> u64 {
        self.processed
    }

    /// Matching rows seen so far.
    pub fn matching(&self) -> u64 {
        self.matching
    }

    /// Total rows in the scramble.
    pub fn scramble_rows(&self) -> u64 {
        self.scramble_rows
    }

    /// Point estimate of the selectivity `σ̂_v = m_v / r`.
    pub fn selectivity_estimate(&self) -> f64 {
        if self.processed == 0 {
            0.0
        } else {
            self.matching as f64 / self.processed as f64
        }
    }

    /// The Hoeffding–Serfling half-width for the selectivity after `r`
    /// processed rows (Lemma 5): `ε = sqrt(log(2/δ)/(2r) · (1 − (r−1)/R))`.
    ///
    /// `delta` here is the *total* two-sided budget, matching the lemma's
    /// statement (it charges `log(2/δ)`).
    pub fn epsilon(&self, delta: f64) -> f64 {
        self.epsilon_with_log(Self::count_log(delta))
    }

    /// Lemma 5's δ-only term `log(2/δ)`, as [`Self::epsilon`] and
    /// [`Self::count_ci`] compute it. It is the same for every view bounded
    /// at one δ, so a caller bounding many views at one δ computes it once.
    pub fn count_log(delta: f64) -> f64 {
        HoeffdingSerfling::log_term(delta / 2.0)
    }

    /// [`Self::epsilon`] from its precomputed [`Self::count_log`], bit for
    /// bit.
    pub fn epsilon_with_log(&self, count_log: f64) -> f64 {
        HoeffdingSerfling::epsilon_with_log(self.processed, self.scramble_rows, 1.0, count_log)
    }

    /// Two-sided `(1 − delta)` CI for the `COUNT` of rows in the aggregate
    /// view (Lemma 5 scaled by `R`).
    pub fn count_ci(&self, delta: f64) -> CountCi {
        self.count_ci_with_log(Self::count_log(delta))
    }

    /// [`Self::count_ci`] from its precomputed [`Self::count_log`], bit for
    /// bit.
    pub fn count_ci_with_log(&self, count_log: f64) -> CountCi {
        let sel_hat = self.selectivity_estimate();
        let eps = self.epsilon_with_log(count_log);
        let sel_lo = (sel_hat - eps).max(0.0);
        let sel_hi = (sel_hat + eps).min(1.0);
        let r = self.scramble_rows as f64;
        // The count can never be below the matches already seen, nor above
        // the scramble size minus the non-matches already seen.
        let non_matching_seen = (self.processed - self.matching) as f64;
        let lo = (sel_lo * r).max(self.matching as f64);
        let hi = (sel_hi * r).min(r - non_matching_seen);
        CountCi {
            selectivity: Ci::new(sel_lo, sel_hi),
            count: Ci::new(lo, hi.max(lo)),
            estimate: sel_hat * r,
        }
    }

    /// The one-sided upper bound `N⁺` on the aggregate-view size from
    /// Theorem 3, using a `(1 − α)·δ` slice of the budget:
    ///
    /// ```text
    /// N⁺ = ( m_v/r + sqrt( log(1/((1−α)·δ)) / (2r) · (1 − (r−1)/R) ) ) · R
    /// ```
    ///
    /// Returns `scramble_rows` (the trivial upper bound) before any row has
    /// been processed.
    pub fn n_plus(&self, delta: f64, alpha: f64) -> CoreResult<u64> {
        Ok(self.n_plus_with_log(Self::n_plus_log(delta, alpha)?))
    }

    /// The δ-only term `log(1/((1−α)·δ))` of [`Self::n_plus`], after
    /// validating `delta` and `alpha` as it does. It is the same for every
    /// view bounded at one δ, so a caller bounding many views at one δ
    /// computes it once.
    pub fn n_plus_log(delta: f64, alpha: f64) -> CoreResult<f64> {
        if !(alpha > 0.0 && alpha < 1.0) {
            return Err(CoreError::InvalidFraction { value: alpha });
        }
        if !(delta > 0.0 && delta < 1.0) {
            return Err(CoreError::InvalidDelta { delta });
        }
        Ok(HoeffdingSerfling::log_term((1.0 - alpha) * delta))
    }

    /// [`Self::n_plus`] from its precomputed [`Self::n_plus_log`], bit for
    /// bit.
    pub fn n_plus_with_log(&self, n_plus_log: f64) -> u64 {
        if self.processed == 0 {
            return self.scramble_rows;
        }
        let sel_hat = self.selectivity_estimate();
        let eps = HoeffdingSerfling::epsilon_with_log(
            self.processed,
            self.scramble_rows,
            1.0,
            n_plus_log,
        );
        let bound = ((sel_hat + eps) * self.scramble_rows as f64).ceil();
        let clamped = bound.clamp(self.matching.max(1) as f64, self.scramble_rows as f64);
        clamped as u64
    }

    /// Convenience wrapper for [`Self::n_plus`] with the paper's default
    /// `α = 0.99`.
    pub fn n_plus_default(&self, delta: f64) -> CoreResult<u64> {
        self.n_plus(delta, DEFAULT_ALPHA)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_empty_scramble() {
        assert!(SelectivityTracker::new(0).is_err());
    }

    #[test]
    fn selectivity_estimate_tracks_ratio() {
        let mut t = SelectivityTracker::new(1000).unwrap();
        for i in 0..100 {
            t.record(i % 4 == 0);
        }
        assert_eq!(t.processed(), 100);
        assert_eq!(t.matching(), 25);
        assert!((t.selectivity_estimate() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn record_batch_equivalent_to_individual_records() {
        let mut a = SelectivityTracker::new(500).unwrap();
        let mut b = SelectivityTracker::new(500).unwrap();
        for i in 0..60 {
            a.record(i % 3 == 0);
        }
        b.record_batch(60, 20);
        assert_eq!(a, b);
    }

    #[test]
    fn count_ci_contains_true_count_for_exhaustive_scan() {
        let scramble_rows = 10_000u64;
        let true_matches = 2_500u64;
        let mut t = SelectivityTracker::new(scramble_rows).unwrap();
        // Simulate a full scan in which exactly one out of every four rows
        // matches.
        for i in 0..scramble_rows {
            t.record(i % 4 == 0);
        }
        assert_eq!(t.matching(), true_matches);
        let ci = t.count_ci(1e-9);
        assert!(ci.count.contains(true_matches as f64), "{ci:?}");
        // After an exhaustive scan the count is pinned exactly.
        assert!((ci.count.lo - true_matches as f64).abs() < 1e-9);
        assert!((ci.count.hi - true_matches as f64).abs() < 1e-9);
    }

    #[test]
    fn count_ci_partial_scan_brackets_truth() {
        let scramble_rows = 100_000u64;
        let mut t = SelectivityTracker::new(scramble_rows).unwrap();
        // Process 10% of the scramble; matches arrive at a steady 30% rate,
        // mirroring the true selectivity.
        for i in 0..10_000u64 {
            t.record(i % 10 < 3);
        }
        let ci = t.count_ci(1e-6);
        let true_count = 30_000.0;
        assert!(ci.count.contains(true_count), "{ci:?}");
        assert!(ci.count.lo >= t.matching() as f64);
        assert!(ci.count.hi <= scramble_rows as f64);
        assert!((ci.estimate - 30_000.0).abs() < 1.0);
    }

    #[test]
    fn count_ci_width_shrinks_with_more_rows() {
        let mut small = SelectivityTracker::new(1_000_000).unwrap();
        let mut large = SelectivityTracker::new(1_000_000).unwrap();
        for i in 0..1_000u64 {
            small.record(i % 2 == 0);
        }
        for i in 0..100_000u64 {
            large.record(i % 2 == 0);
        }
        assert!(large.count_ci(1e-9).count.width() < small.count_ci(1e-9).count.width());
    }

    #[test]
    fn selectivity_ci_is_clamped_to_unit_interval() {
        let mut t = SelectivityTracker::new(1_000_000).unwrap();
        for _ in 0..10 {
            t.record(true);
        }
        let ci = t.count_ci(1e-9);
        assert!(ci.selectivity.lo >= 0.0);
        assert!(ci.selectivity.hi <= 1.0);
    }

    #[test]
    fn n_plus_is_an_upper_bound_whp() {
        // True selectivity 0.2 over 1M rows → N = 200k. After scanning 50k
        // rows the upper bound must exceed the truth (the failure probability
        // is astronomically small), but be far below the trivial bound of 1M.
        let scramble_rows = 1_000_000u64;
        let mut t = SelectivityTracker::new(scramble_rows).unwrap();
        for i in 0..50_000u64 {
            t.record(i % 5 == 0);
        }
        let n_plus = t.n_plus_default(1e-10).unwrap();
        assert!(n_plus >= 200_000, "n_plus = {n_plus}");
        assert!(n_plus < 300_000, "n_plus = {n_plus} should be far below 1M");
    }

    #[test]
    fn n_plus_before_any_rows_is_trivial_bound() {
        let t = SelectivityTracker::new(12345).unwrap();
        assert_eq!(t.n_plus_default(1e-6).unwrap(), 12345);
    }

    #[test]
    fn n_plus_validates_parameters() {
        let t = SelectivityTracker::new(100).unwrap();
        assert!(t.n_plus(1e-6, 0.0).is_err());
        assert!(t.n_plus(1e-6, 1.0).is_err());
        assert!(t.n_plus(0.0, 0.5).is_err());
    }

    #[test]
    fn n_plus_never_exceeds_scramble_size() {
        let mut t = SelectivityTracker::new(1_000).unwrap();
        for _ in 0..100 {
            t.record(true);
        }
        assert!(t.n_plus_default(0.5).unwrap() <= 1_000);
    }

    #[test]
    fn n_plus_at_least_one_even_with_no_matches() {
        let mut t = SelectivityTracker::new(1_000_000).unwrap();
        for _ in 0..500_000 {
            t.record(false);
        }
        let n_plus = t.n_plus_default(1e-10).unwrap();
        assert!(n_plus >= 1);
    }
}

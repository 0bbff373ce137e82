//! Aggregate views: the per-group approximation state (Definition 5).
//!
//! Each group induced by a query's GROUP BY clause (or the single implicit
//! group of an ungrouped query) owns one [`AggregateView`]. The view holds
//!
//! * the three moments of Algorithm 6 over the target-expression values of
//!   matching rows, merged from the scan's per-partition flat records, and
//!   the bounder ([`FlatBounder`]) that reads its interval from them;
//! * the count of matching rows seen, which — combined with the total number
//!   of scanned rows and the scramble size — yields the selectivity bounds of
//!   Lemma 5 and the dataset-size upper bound `N⁺` of Theorem 3;
//! * running (monotonically shrinking) intervals across OptStop rounds for
//!   both the aggregate and the COUNT.

use std::sync::Arc;

use fastframe_core::bounder::{BoundContext, Ci};
use fastframe_core::count::SelectivityTracker;
use fastframe_core::delta::DEFAULT_ALPHA;
use fastframe_core::error::CoreResult;
use fastframe_core::optstop::RunningInterval;
use fastframe_core::partial::{FlatBounder, FlatMoments, FlatRecord};
use fastframe_core::stopping::GroupSnapshot;
use fastframe_core::sum::sum_interval;

use crate::query::AggregateFunction;
use crate::result::{GroupKey, GroupResult};

/// Per-group approximation state.
pub(crate) struct AggregateView {
    /// Dense identifier assigned by the executor (index into its view list).
    pub(crate) id: usize,
    /// Group identity, built once per query and shared with every round's
    /// [`GroupProgress`](crate::progressive::GroupProgress).
    pub(crate) key: Arc<GroupKey>,
    /// The bounder the query runs, read from `moments`.
    bounder: FlatBounder,
    /// The moments of every value merged so far.
    moments: FlatMoments,
    /// Derived range bounds `[a, b]` of the target expression.
    range: (f64, f64),
    /// Rows matched by this view so far.
    matched: u64,
    /// Rows in *skipped* blocks that are provably not part of this view
    /// (either the block cannot satisfy the query predicate, or — while this
    /// view was active — the block contains none of the view's group codes).
    /// These rows count towards the selectivity denominator with zero
    /// matches: their membership is known with certainty from the bitmap
    /// index rather than estimated, so Lemma 5 still applies to the combined
    /// prefix.
    known_absent: u64,
    /// `false` once a block has been skipped whose membership could *not* be
    /// proven for this view (it was inactive at the time). From then on the
    /// selectivity point estimate may be biased upward, so the COUNT lower
    /// bound falls back to the trivially-valid `matched` count; the `N⁺`
    /// upper bound used for AVG remains valid either way.
    denominator_clean: bool,
    running_agg: RunningInterval,
    running_count: RunningInterval,
}

impl std::fmt::Debug for AggregateView {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AggregateView")
            .field("id", &self.id)
            .field("key", &self.key)
            .field("bounder", &self.bounder)
            .field("range", &self.range)
            .field("matched", &self.matched)
            .finish()
    }
}

impl AggregateView {
    /// Creates an empty view whose intervals `bounder` computes.
    pub(crate) fn new(
        id: usize,
        key: impl Into<Arc<GroupKey>>,
        bounder: FlatBounder,
        range: (f64, f64),
    ) -> Self {
        Self {
            id,
            key: key.into(),
            bounder,
            moments: FlatMoments::EMPTY,
            range,
            matched: 0,
            known_absent: 0,
            denominator_clean: true,
            running_agg: RunningInterval::new(),
            running_count: RunningInterval::new(),
        }
    }

    /// Folds a scan partition's record for this view into the master
    /// state, in partition order.
    ///
    /// The running intervals are *not* touched here — they only advance at
    /// round boundaries via [`Self::round_update`], after every partition of
    /// the round has been merged, which is what keeps round evaluation
    /// identical at any thread count.
    pub(crate) fn absorb_partial(&mut self, partial: &FlatRecord) {
        self.matched += partial.all.count();
        self.moments.merge(&partial.finish());
    }

    /// Records that `rows` rows were skipped in blocks provably containing no
    /// rows of this view (see [`Self`] field docs).
    #[inline]
    pub(crate) fn record_absent(&mut self, rows: u64) {
        self.known_absent += rows;
    }

    /// Marks that rows with unknown membership were skipped for this view.
    #[inline]
    pub(crate) fn mark_denominator_unclean(&mut self) {
        self.denominator_clean = false;
    }

    /// Recomputes this view's intervals at the end of an OptStop round and
    /// returns a snapshot for stopping-condition evaluation.
    ///
    /// * `rows_scanned` — total rows read from fetched blocks so far (the
    ///   `r` of Lemma 5; rows in skipped blocks are excluded, which can only
    ///   overestimate the selectivity and therefore `N⁺`, keeping the bound
    ///   valid by dataset-size monotonicity).
    /// * `scramble_rows` — total rows in the scramble (`R`).
    /// * `round_delta` — this round's error budget for this view,
    ///   `(6/π²)·(δ/#views)/k²`.
    pub(crate) fn round_update(
        &mut self,
        aggregate: AggregateFunction,
        rows_scanned: u64,
        scramble_rows: u64,
        round_delta: f64,
    ) -> CoreResult<GroupSnapshot> {
        let (agg_ci, count_ci) =
            self.intervals(aggregate, rows_scanned, scramble_rows, round_delta)?;
        let agg_running = self.running_agg.update(agg_ci);
        self.running_count.update(count_ci);
        Ok(GroupSnapshot {
            group: self.id,
            estimate: self
                .aggregate_estimate(aggregate, rows_scanned, scramble_rows)
                .unwrap_or(agg_running.midpoint()),
            ci: agg_running,
            samples: self.matched,
        })
    }

    /// The selectivity denominator: rows whose membership in this view is
    /// known, either by scanning them or from the bitmap index.
    fn rows_accounted(&self, rows_scanned: u64, scramble_rows: u64) -> u64 {
        (rows_scanned + self.known_absent).min(scramble_rows)
    }

    /// Computes fresh (non-running) intervals for the aggregate and the
    /// count, given the current state.
    fn intervals(
        &self,
        aggregate: AggregateFunction,
        rows_scanned: u64,
        scramble_rows: u64,
        round_delta: f64,
    ) -> CoreResult<(Ci, Ci)> {
        let mut tracker = SelectivityTracker::new(scramble_rows)?;
        tracker.record_batch(
            self.rows_accounted(rows_scanned, scramble_rows),
            self.matched,
        );

        // When rows with unknown membership were skipped, the selectivity
        // point estimate may be biased high; the Lemma-5 *upper* bound stays
        // valid but the lower bound does not, so fall back to the trivially
        // valid lower bound of "matches already seen".
        let count_interval = |delta: f64| -> Ci {
            let ci = tracker.count_ci(delta).count;
            if self.denominator_clean {
                ci
            } else {
                Ci::new((self.matched as f64).min(ci.hi), ci.hi)
            }
        };

        match aggregate {
            AggregateFunction::Avg => {
                let count_ci = count_interval(round_delta);
                let avg_ci = self.avg_interval(&tracker, round_delta)?;
                Ok((avg_ci, count_ci))
            }
            AggregateFunction::Count => {
                let count_ci = count_interval(round_delta);
                Ok((count_ci, count_ci))
            }
            AggregateFunction::Sum => {
                // Split the round budget between the COUNT interval and the
                // AVG interval (union bound), then combine.
                let count_ci = count_interval(round_delta * 0.5);
                let avg_ci = self.avg_interval(&tracker, round_delta * 0.5)?;
                Ok((sum_interval(&count_ci, &avg_ci), count_ci))
            }
        }
    }

    /// The Theorem 3 AVG interval: `N⁺` from a `(1 − α)` share of the budget,
    /// the bounder interval from the remaining `α` share
    /// ([`DEFAULT_ALPHA`], the paper's 0.99).
    fn avg_interval(&self, tracker: &SelectivityTracker, delta: f64) -> CoreResult<Ci> {
        let (a, b) = self.range;
        if self.matched == 0 {
            return Ok(Ci::full_range(a, b));
        }
        let n_plus = tracker.n_plus(delta, DEFAULT_ALPHA)?;
        let ctx = BoundContext::new(a, b, n_plus.max(self.matched).max(1), DEFAULT_ALPHA * delta)?;
        Ok(self.bounder.interval(&self.moments, &ctx))
    }

    /// Point estimate of the query's aggregate for this view.
    fn aggregate_estimate(
        &self,
        aggregate: AggregateFunction,
        rows_scanned: u64,
        scramble_rows: u64,
    ) -> Option<f64> {
        let accounted = self.rows_accounted(rows_scanned, scramble_rows);
        // Once every row's membership is known the count is exact; skip the
        // scale-up, whose rounding would otherwise perturb it.
        let count_estimate = if accounted == scramble_rows {
            self.matched as f64
        } else if accounted == 0 {
            0.0
        } else {
            self.matched as f64 / accounted as f64 * scramble_rows as f64
        };
        let mean = self.bounder.estimate(&self.moments);
        match aggregate {
            AggregateFunction::Avg => mean,
            AggregateFunction::Count => Some(count_estimate),
            // After a full pass the sum of the matching rows is known: read
            // it as accumulated instead of rebuilding it from the mean.
            AggregateFunction::Sum if accounted == scramble_rows => {
                mean.map(|_| self.moments.all.sum())
            }
            AggregateFunction::Sum => mean.map(|m| m * count_estimate),
        }
    }

    /// Finalizes this view into a [`GroupResult`].
    ///
    /// `exact` callers pass `true` when every row of the scramble was scanned
    /// (so the estimate is the true aggregate); in that case the interval
    /// collapses onto the estimate.
    pub(crate) fn finalize(
        &mut self,
        aggregate: AggregateFunction,
        rows_scanned: u64,
        scramble_rows: u64,
        round_delta: f64,
        exact: bool,
    ) -> CoreResult<GroupResult> {
        let estimate = self.aggregate_estimate(aggregate, rows_scanned, scramble_rows);
        // Exact results collapse the interval onto the estimate, widened by a
        // relative 1e-9 so that downstream comparisons against independently
        // computed exact values (different summation order) never fail on
        // floating-point noise.
        let exact_ci = |e: f64| {
            let slack = 1e-9 * (e.abs() + 1.0);
            Ci::new(e - slack, e + slack)
        };
        let (ci, count_ci) = match (exact, estimate) {
            // No bounder work: the answer is known, and a non-finite catalog
            // range (which the bounders reject) cannot fail it.
            (true, Some(e)) => (exact_ci(e), exact_ci(self.matched as f64)),
            // Without an estimate no row matched, so the AVG interval is the
            // trivial full range and no bounder context is built either.
            _ => {
                let snapshot =
                    self.round_update(aggregate, rows_scanned, scramble_rows, round_delta)?;
                let count_ci = if exact {
                    exact_ci(self.matched as f64)
                } else {
                    self.running_count
                        .current()
                        .unwrap_or_else(|| Ci::new(0.0, scramble_rows as f64))
                };
                (snapshot.ci, count_ci)
            }
        };
        Ok(GroupResult {
            key: GroupKey::clone(&self.key),
            estimate,
            ci,
            samples: self.matched,
            count_ci,
            exact,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fastframe_core::bounder::ErrorBounder;
    use fastframe_core::hoeffding::HoeffdingSerfling;
    use fastframe_core::range_trim::RangeTrim;

    /// Direct access to a view's state, for tests; the scan only absorbs
    /// partition partials.
    impl AggregateView {
        /// Records a matching row's value directly into the state with
        /// Algorithm 6's three-moment update, the sequential fold a
        /// finished record reproduces.
        fn observe(&mut self, value: f64) {
            self.matched += 1;
            RangeTrim::new(HoeffdingSerfling).update_state(&mut self.moments, value)
        }

        fn matched(&self) -> u64 {
            self.matched
        }

        fn mean_estimate(&self) -> Option<f64> {
            self.bounder.estimate(&self.moments)
        }

        fn range(&self) -> (f64, f64) {
            self.range
        }

        /// Rows whose absence from this view is known from the index.
        pub(crate) fn known_absent(&self) -> u64 {
            self.known_absent
        }

        /// Whether no block with unknown membership for this view has been
        /// skipped.
        pub(crate) fn denominator_clean(&self) -> bool {
            self.denominator_clean
        }
    }

    fn view(bounder: FlatBounder) -> AggregateView {
        AggregateView::new(
            0,
            GroupKey {
                codes: vec![0],
                labels: vec!["g".into()],
            },
            bounder,
            (0.0, 100.0),
        )
    }

    #[test]
    fn observe_and_estimate() {
        let mut v = view(FlatBounder::BernsteinRangeTrim);
        assert_eq!(v.matched(), 0);
        assert!(v.mean_estimate().is_none());
        for i in 0..100 {
            v.observe(40.0 + (i % 21) as f64);
        }
        assert_eq!(v.matched(), 100);
        assert!((v.mean_estimate().unwrap() - 50.0).abs() < 1.0);
        assert_eq!(v.range(), (0.0, 100.0));
    }

    #[test]
    fn absorb_partial_matches_direct_observation() {
        // A view that absorbed two partition partials must agree with one
        // that observed the same values partition-by-partition.
        let mut direct = view(FlatBounder::BernsteinRangeTrim);
        let mut merged = view(FlatBounder::BernsteinRangeTrim);
        let mut partial_a = FlatRecord::EMPTY;
        let mut partial_b = FlatRecord::EMPTY;
        for i in 0..300u64 {
            let v = 10.0 + (i % 17) as f64;
            direct.observe(v);
            if i < 200 {
                partial_a.observe(v);
            } else {
                partial_b.observe(v);
            }
        }
        merged.absorb_partial(&partial_a);
        merged.absorb_partial(&partial_b);
        assert_eq!(merged.matched(), direct.matched());
        let m = merged.mean_estimate().unwrap();
        let d = direct.mean_estimate().unwrap();
        assert!((m - d).abs() < 1e-9, "{m} vs {d}");
    }

    #[test]
    fn avg_snapshot_contains_truth_and_shrinks() {
        let mut v = view(FlatBounder::BernsteinRangeTrim);
        // Population: values uniform over 40..60, so the true mean of any
        // matching subset is close to 50; the scramble has 100k rows, 10%
        // matching.
        for i in 0..1_000u64 {
            v.observe(40.0 + (i % 21) as f64);
        }
        let snap1 = v
            .round_update(AggregateFunction::Avg, 10_000, 100_000, 1e-6)
            .unwrap();
        assert!(snap1.ci.contains(snap1.estimate));
        assert_eq!(snap1.samples, 1_000);

        for i in 0..9_000u64 {
            v.observe(40.0 + (i % 21) as f64);
        }
        let snap2 = v
            .round_update(AggregateFunction::Avg, 100_000, 100_000, 1e-6 / 4.0)
            .unwrap();
        assert!(snap2.ci.width() < snap1.ci.width());
        assert!(snap2.ci.contains(50.0));
    }

    #[test]
    fn count_snapshot_brackets_true_count() {
        let mut v = view(FlatBounder::BernsteinRangeTrim);
        // 2500 matches out of 10_000 scanned rows, scramble of 100_000 rows →
        // true count is ~25_000 (if the matching rate is representative).
        for _ in 0..2_500 {
            v.observe(1.0);
        }
        let snap = v
            .round_update(AggregateFunction::Count, 10_000, 100_000, 1e-9)
            .unwrap();
        assert!(snap.ci.contains(25_000.0), "{:?}", snap.ci);
        assert!((snap.estimate - 25_000.0).abs() < 1.0);
    }

    #[test]
    fn sum_estimate_is_mean_times_count() {
        let mut v = view(FlatBounder::BernsteinRangeTrim);
        for _ in 0..1_000 {
            v.observe(10.0);
        }
        let est = v
            .aggregate_estimate(AggregateFunction::Sum, 10_000, 100_000)
            .unwrap();
        assert!((est - 10.0 * 10_000.0).abs() < 1e-6);
        let snap = v
            .round_update(AggregateFunction::Sum, 10_000, 100_000, 1e-9)
            .unwrap();
        assert!(snap.ci.contains(est));
    }

    #[test]
    fn empty_view_yields_full_range_interval() {
        let mut v = view(FlatBounder::Hoeffding);
        let snap = v
            .round_update(AggregateFunction::Avg, 10_000, 100_000, 1e-9)
            .unwrap();
        assert_eq!(snap.ci, Ci::new(0.0, 100.0));
        assert_eq!(snap.samples, 0);
    }

    #[test]
    fn running_interval_is_monotone_across_rounds() {
        let mut v = view(FlatBounder::Bernstein);
        let mut last_width = f64::INFINITY;
        for round in 1..=5u64 {
            for i in 0..2_000u64 {
                v.observe(30.0 + (i % 11) as f64);
            }
            let snap = v
                .round_update(
                    AggregateFunction::Avg,
                    20_000 * round,
                    1_000_000,
                    1e-9 / (round * round) as f64,
                )
                .unwrap();
            assert!(snap.ci.width() <= last_width + 1e-12);
            last_width = snap.ci.width();
        }
    }

    #[test]
    fn finalize_exact_collapses_interval() {
        let mut v = view(FlatBounder::BernsteinRangeTrim);
        for i in 0..1_000u64 {
            v.observe((i % 10) as f64);
        }
        let r = v
            .finalize(AggregateFunction::Avg, 100_000, 100_000, 1e-9, true)
            .unwrap();
        assert!(r.exact);
        assert!(
            r.ci.width() < 1e-6,
            "exact interval should be (nearly) degenerate"
        );
        assert!(r.count_ci.contains(1_000.0) && r.count_ci.width() < 1e-5);
        assert_eq!(r.samples, 1_000);

        let mut v2 = view(FlatBounder::BernsteinRangeTrim);
        for i in 0..1_000u64 {
            v2.observe((i % 10) as f64);
        }
        let r2 = v2
            .finalize(AggregateFunction::Avg, 10_000, 100_000, 1e-9, false)
            .unwrap();
        assert!(!r2.exact);
        assert!(r2.ci.width() > 0.0);
    }
}

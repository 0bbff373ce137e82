//! Aggregate views: the per-group approximation state (Definition 5).
//!
//! Each group induced by a query's GROUP BY clause (or the single implicit
//! group of an ungrouped query) owns one [`AggregateView`]. The view holds
//!
//! * the master record of the target-expression values of matching rows
//!   ([`FlatMaster`]), merged from the scan's per-partition flat records,
//!   and the bounder ([`FlatBounder`]) that reads its interval from the
//!   three moments of Algorithm 6 the record materialises once per round;
//! * the count of matching rows seen (the moments' count), which — combined
//!   with the total number of scanned rows and the scramble size — yields the
//!   selectivity bounds of Lemma 5 and the dataset-size upper bound `N⁺` of
//!   Theorem 3;
//! * the skip ledger: the rows of blocks skipped as inactive that are known
//!   to hold none of the group's rows, and those that may hold some. With
//!   the rows of blocks the predicate rules out (known absent from every
//!   group) it is the only record of what the group missed: it bounds the
//!   group's COUNT and `N⁺`, and it alone decides whether a full pass
//!   answers the group exactly;
//! * running (monotonically shrinking) intervals across OptStop rounds for
//!   both the aggregate and the COUNT.

use std::sync::Arc;

use fastframe_core::bounder::{BoundContext, Ci};
use fastframe_core::count::SelectivityTracker;
use fastframe_core::delta::DEFAULT_ALPHA;
use fastframe_core::error::CoreResult;
use fastframe_core::optstop::RunningInterval;
use fastframe_core::partial::{FlatBounder, FlatMaster, FlatRecord};
use fastframe_core::stopping::GroupSnapshot;
use fastframe_core::sum::sum_interval;

use crate::query::AggregateFunction;
use crate::result::{GroupKey, GroupResult};

/// The δ-only logarithms of one round's interval recompute: Lemma 5's
/// `log(2/δ)`, `N⁺`'s `log(1/((1−α)δ))` and the bounder's log term. Every
/// view gets the same round budget, so they are computed once per round,
/// not once per view; each is the term the per-view computation would
/// take, so the intervals are the same bit for bit.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RoundLogs {
    /// The bounder whose log term `mean` is.
    bounder: FlatBounder,
    /// The budget of the AVG interval: the round's, or half of it for SUM.
    avg_delta: f64,
    /// [`SelectivityTracker::count_log`] of the COUNT interval's budget.
    count: f64,
    /// [`SelectivityTracker::n_plus_log`] of the AVG interval's budget.
    n_plus: f64,
    /// [`FlatBounder::log_term`] of each side of the AVG interval.
    mean: f64,
}

impl RoundLogs {
    /// The terms of a round whose budget per view is `round_delta`. SUM
    /// splits it between its COUNT and AVG intervals (union bound); AVG and
    /// COUNT give each interval all of it.
    pub(crate) fn new(
        aggregate: AggregateFunction,
        bounder: FlatBounder,
        round_delta: f64,
    ) -> CoreResult<Self> {
        let delta = match aggregate {
            AggregateFunction::Sum => round_delta * 0.5,
            AggregateFunction::Avg | AggregateFunction::Count => round_delta,
        };
        Ok(Self {
            bounder,
            avg_delta: delta,
            count: SelectivityTracker::count_log(delta),
            n_plus: SelectivityTracker::n_plus_log(delta, DEFAULT_ALPHA)?,
            // `Ci::two_sided` halves the bounder context's α·δ per side.
            mean: bounder.log_term(DEFAULT_ALPHA * delta * 0.5),
        })
    }
}

/// Per-group approximation state.
pub(crate) struct AggregateView {
    /// Dense identifier assigned by the executor (index into its view list).
    pub(crate) id: usize,
    /// Group identity, built once per query and shared with every round's
    /// [`GroupProgress`](crate::progressive::GroupProgress).
    pub(crate) key: Arc<GroupKey>,
    /// The bounder the query runs, read from the master's moments.
    bounder: FlatBounder,
    /// Every value merged so far; its count is the number of rows this view
    /// matched.
    master: FlatMaster,
    /// Derived range bounds `[a, b]` of the target expression.
    range: (f64, f64),
    /// Rows in blocks skipped as inactive that are provably not part of
    /// this view: it was active both in the set the block was decided
    /// against and when the skip was charged, so the block contains none
    /// of its group codes. (Rows of blocks the predicate rules out are
    /// known absent from every view, and come in with the `rows_known`
    /// the executor passes.) These rows count towards the selectivity
    /// denominator with zero matches: their membership is known with
    /// certainty from the bitmap index rather than estimated, so Lemma 5
    /// still applies to the combined prefix. The executor charges skipped
    /// rows once per run of skips decided against the same pair of sets,
    /// not once per block.
    known_absent: u64,
    /// Rows in skipped blocks whose membership in this view could *not* be
    /// proven (it was inactive in one of the two sets): any of them may be
    /// the view's. Such blocks are skipped *because* they hold no row of an
    /// active group, so they are richer in inactive groups' rows than the
    /// scanned ones, and the scanned rows alone would bias an inactive
    /// view's selectivity low. The selectivity bounds therefore count them
    /// in the prefix as non-matching for the lower bound and as matching
    /// for the upper bound and `N⁺`. While there are none (the denominator
    /// is *clean*), a full pass has seen every row of the view, so
    /// [`Self::finalize`] reports the view exactly.
    unknown: u64,
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
            .field("matched", &self.matched())
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
            master: FlatMaster::EMPTY,
            range,
            known_absent: 0,
            unknown: 0,
            running_agg: RunningInterval::new(),
            running_count: RunningInterval::new(),
        }
    }

    /// Starts a round: the record every partition of the round starts this
    /// view's record from ([`FlatMaster::seed`]).
    pub(crate) fn round_seed(&mut self) -> FlatRecord {
        self.master.seed()
    }

    /// Folds a scan partition's record for this view, started from the
    /// round's seed, into the master state, in partition order.
    ///
    /// The running intervals are *not* touched here — they only advance at
    /// round boundaries via [`Self::round_update`], after every partition of
    /// the round has been merged, which is what keeps round evaluation
    /// identical at any thread count.
    pub(crate) fn absorb_partial(&mut self, partial: &FlatRecord) {
        self.master.absorb(partial);
    }

    /// Rows matched by this view so far.
    fn matched(&self) -> u64 {
        self.master.all().count()
    }

    /// Records that `rows` rows were skipped in blocks provably containing no
    /// rows of this view (see [`Self`] field docs).
    #[inline]
    pub(crate) fn record_absent(&mut self, rows: u64) {
        self.known_absent += rows;
    }

    /// Records that `rows` rows with unknown membership in this view were
    /// skipped.
    #[inline]
    pub(crate) fn record_unknown(&mut self, rows: u64) {
        self.unknown += rows;
    }

    /// Recomputes this view's intervals at the end of an OptStop round and
    /// returns a snapshot for stopping-condition evaluation.
    ///
    /// * `rows_known` — rows whose membership in every view is known: rows
    ///   read from fetched blocks, and rows of blocks the predicate rules
    ///   out. With the skip ledger's rows they make up the `r` of Lemma 5.
    /// * `scramble_rows` — total rows in the scramble (`R`).
    /// * `logs` — the δ-only terms of this round's error budget for every
    ///   view, `(6/π²)·(δ/#views)/k²`.
    pub(crate) fn round_update(
        &mut self,
        aggregate: AggregateFunction,
        rows_known: u64,
        scramble_rows: u64,
        logs: &RoundLogs,
    ) -> CoreResult<GroupSnapshot> {
        let (agg_ci, count_ci) = self.intervals(aggregate, rows_known, scramble_rows, logs)?;
        let agg_running = self.running_agg.update(agg_ci);
        self.running_count.update(count_ci);
        Ok(GroupSnapshot {
            group: self.id,
            estimate: self
                .aggregate_estimate(aggregate, rows_known, scramble_rows)
                .unwrap_or(agg_running.midpoint()),
            ci: agg_running,
            samples: self.matched(),
        })
    }

    /// The rows whose membership in this view is known, by scanning them,
    /// from the predicate or from the bitmap index: the denominator of the
    /// selectivity point estimate.
    fn rows_accounted(&self, rows_known: u64, scramble_rows: u64) -> u64 {
        (rows_known + self.known_absent).min(scramble_rows)
    }

    /// Computes fresh (non-running) intervals for the aggregate and the
    /// count, given the current state.
    fn intervals(
        &self,
        aggregate: AggregateFunction,
        rows_known: u64,
        scramble_rows: u64,
        logs: &RoundLogs,
    ) -> CoreResult<(Ci, Ci)> {
        // Lemma 5 over the prefix the scan has passed, skipped rows of
        // unknown membership included: counted as non-matching for the
        // lower bound, as matching for the upper ones. Both bounds are
        // monotone in the matches, so whichever of those rows are the
        // view's, the interval still holds; with none, the two trackers
        // are one, and so is their interval.
        let prefix =
            (self.rows_accounted(rows_known, scramble_rows) + self.unknown).min(scramble_rows);
        let mut lower = SelectivityTracker::new(scramble_rows)?;
        let mut upper = lower;
        lower.record_batch(prefix, self.matched());
        upper.record_batch(prefix, self.matched() + self.unknown);
        let count_ci = lower.count_ci_with_log(logs.count).count;
        let count_ci = if self.unknown == 0 {
            count_ci
        } else {
            Ci::new(count_ci.lo, upper.count_ci_with_log(logs.count).count.hi)
        };
        let agg_ci = match aggregate {
            AggregateFunction::Avg => self.avg_interval(&upper, logs)?,
            AggregateFunction::Count => count_ci,
            // The round budget is split between the COUNT interval and the
            // AVG interval (union bound, see `RoundLogs`), then combined.
            AggregateFunction::Sum => sum_interval(&count_ci, &self.avg_interval(&upper, logs)?),
        };
        Ok((agg_ci, count_ci))
    }

    /// The Theorem 3 AVG interval: `N⁺` from a `(1 − α)` share of the budget
    /// (read from the `upper` selectivity tracker), the bounder interval
    /// from the remaining `α` share ([`DEFAULT_ALPHA`], the paper's 0.99).
    fn avg_interval(&self, upper: &SelectivityTracker, logs: &RoundLogs) -> CoreResult<Ci> {
        let ((a, b), matched) = (self.range, self.matched());
        if matched == 0 {
            return Ok(Ci::full_range(a, b));
        }
        debug_assert_eq!(logs.bounder, self.bounder);
        let n_plus = upper.n_plus_with_log(logs.n_plus);
        let ctx = BoundContext::new(a, b, n_plus.max(matched), DEFAULT_ALPHA * logs.avg_delta)?;
        Ok(self
            .bounder
            .interval_with_log(&self.master.moments(), &ctx, logs.mean))
    }

    /// Point estimate of the query's aggregate for this view.
    fn aggregate_estimate(
        &self,
        aggregate: AggregateFunction,
        rows_known: u64,
        scramble_rows: u64,
    ) -> Option<f64> {
        let accounted = self.rows_accounted(rows_known, scramble_rows);
        // Once every row's membership is known the count is exact; skip the
        // scale-up, whose rounding would otherwise perturb it.
        let count_estimate = if accounted == scramble_rows {
            self.matched() as f64
        } else if accounted == 0 {
            0.0
        } else {
            self.matched() as f64 / accounted as f64 * scramble_rows as f64
        };
        let all = self.master.all();
        let mean = (all.count() > 0).then(|| all.mean());
        match aggregate {
            AggregateFunction::Avg => mean,
            AggregateFunction::Count => Some(count_estimate),
            // After a full pass the sum of the matching rows is known: read
            // it as accumulated instead of rebuilding it from the mean.
            AggregateFunction::Sum if accounted == scramble_rows => mean.map(|_| all.sum()),
            AggregateFunction::Sum => mean.map(|m| m * count_estimate),
        }
    }

    /// Finalizes this view into a [`GroupResult`].
    ///
    /// `full_pass` callers pass `true` when the scan considered every block
    /// of the scramble without stopping. The result is exact when, in
    /// addition, the view's denominator is clean: every skipped row was then
    /// known not to be the view's, so the view saw all of its rows and the
    /// estimate is the true aggregate. Its interval collapses onto the
    /// estimate.
    pub(crate) fn finalize(
        &mut self,
        aggregate: AggregateFunction,
        rows_known: u64,
        scramble_rows: u64,
        logs: &RoundLogs,
        full_pass: bool,
    ) -> CoreResult<GroupResult> {
        let exact = full_pass && self.unknown == 0;
        let estimate = self.aggregate_estimate(aggregate, rows_known, scramble_rows);
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
            (true, Some(e)) => (exact_ci(e), exact_ci(self.matched() as f64)),
            // Without an estimate no row matched, so the AVG interval is the
            // trivial full range and no bounder context is built either.
            _ => {
                let snapshot = self.round_update(aggregate, rows_known, scramble_rows, logs)?;
                let count_ci = if exact {
                    exact_ci(self.matched() as f64)
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
            samples: self.matched(),
            count_ci,
            exact,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Direct access to a view's state, for tests; the scan only absorbs
    /// partition partials.
    impl AggregateView {
        /// Records a matching row's value directly into the master as a
        /// partition of one value started from the round's seed: the fold
        /// of one open record.
        fn observe(&mut self, value: f64) {
            let mut record = self.round_seed();
            record.observe(value);
            self.absorb_partial(&record);
        }

        fn mean_estimate(&self) -> Option<f64> {
            self.aggregate_estimate(AggregateFunction::Avg, 0, 1)
        }

        /// [`Self::round_update`] of a round whose budget per view is
        /// `delta`.
        fn update(
            &mut self,
            aggregate: AggregateFunction,
            rows_known: u64,
            scramble_rows: u64,
            delta: f64,
        ) -> CoreResult<GroupSnapshot> {
            let logs = RoundLogs::new(aggregate, self.bounder, delta)?;
            self.round_update(aggregate, rows_known, scramble_rows, &logs)
        }

        /// [`Self::finalize`] with a final round budget of `delta`.
        fn finish(
            &mut self,
            aggregate: AggregateFunction,
            rows_known: u64,
            scramble_rows: u64,
            delta: f64,
            full_pass: bool,
        ) -> CoreResult<GroupResult> {
            let logs = RoundLogs::new(aggregate, self.bounder, delta)?;
            self.finalize(aggregate, rows_known, scramble_rows, &logs, full_pass)
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
            self.unknown == 0
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
        // A view that absorbed two partition partials, one per round, must
        // agree with one that observed the same values one by one. The
        // second partial starts from the round's seed and adds.
        let mut direct = view(FlatBounder::BernsteinRangeTrim);
        let mut merged = view(FlatBounder::BernsteinRangeTrim);
        let values: Vec<f64> = (0..300u64).map(|i| 10.0 + (i % 17) as f64).collect();
        for &v in &values {
            direct.observe(v);
        }
        for round in values.chunks(200) {
            let mut partial = merged.round_seed();
            partial.observe_batch(round);
            merged.absorb_partial(&partial);
        }
        assert_eq!(merged.matched(), direct.matched());
        // Integral values: every sum is exact, so the two agree bit for bit.
        assert_eq!(merged.master, direct.master);
        let m = merged.mean_estimate().unwrap();
        let d = direct.mean_estimate().unwrap();
        assert!((m - d).abs() < 1e-9, "{m} vs {d}");
    }

    /// The interval computation of the parent design: every log term
    /// recomputed per view from the round budget `round_delta`.
    fn per_view_intervals(
        v: &AggregateView,
        aggregate: AggregateFunction,
        rows_known: u64,
        scramble_rows: u64,
        round_delta: f64,
    ) -> (Ci, Ci) {
        let prefix = (v.rows_accounted(rows_known, scramble_rows) + v.unknown).min(scramble_rows);
        let mut lower = SelectivityTracker::new(scramble_rows).unwrap();
        let mut upper = lower;
        lower.record_batch(prefix, v.matched());
        upper.record_batch(prefix, v.matched() + v.unknown);
        let count = |delta: f64| {
            Ci::new(
                lower.count_ci(delta).count.lo,
                upper.count_ci(delta).count.hi,
            )
        };
        let avg = |delta: f64| {
            let ((a, b), matched) = (v.range, v.matched());
            if matched == 0 {
                return Ci::full_range(a, b);
            }
            let n_plus = upper.n_plus(delta, DEFAULT_ALPHA).unwrap();
            let ctx = BoundContext::new(a, b, n_plus.max(matched), DEFAULT_ALPHA * delta).unwrap();
            v.bounder.interval(&v.master.moments(), &ctx)
        };
        match aggregate {
            AggregateFunction::Avg => (avg(round_delta), count(round_delta)),
            AggregateFunction::Count => (count(round_delta), count(round_delta)),
            AggregateFunction::Sum => {
                let count = count(round_delta * 0.5);
                (sum_interval(&count, &avg(round_delta * 0.5)), count)
            }
        }
    }

    /// Log terms computed once per round give every view the intervals a
    /// per-view recompute from the round budget gives, bit for bit: for
    /// every flat kind and aggregate, on views with no value, one value and
    /// many, with and without skipped rows of unknown membership.
    #[test]
    fn hoisted_log_terms_match_a_per_view_recompute_bit_for_bit() {
        let kinds = [
            FlatBounder::Hoeffding,
            FlatBounder::HoeffdingRangeTrim,
            FlatBounder::Bernstein,
            FlatBounder::BernsteinRangeTrim,
        ];
        let aggregates = [
            AggregateFunction::Avg,
            AggregateFunction::Count,
            AggregateFunction::Sum,
        ];
        let mut compared = 0;
        for bounder in kinds {
            for aggregate in aggregates {
                for (values, unknown, delta) in [
                    (0u64, 0u64, 1e-3),
                    (1, 0, 0.1),
                    (500, 0, 1e-9),
                    (2_000, 700, 1e-15 / 700.0),
                ] {
                    let mut v = view(bounder);
                    for i in 0..values {
                        v.observe(20.0 + ((i * 7_919) % 613) as f64 / 10.0);
                    }
                    v.record_unknown(unknown);
                    let logs = RoundLogs::new(aggregate, bounder, delta).unwrap();
                    let (agg, count) = v.intervals(aggregate, 5_000, 100_000, &logs).unwrap();
                    let (want_agg, want_count) =
                        per_view_intervals(&v, aggregate, 5_000, 100_000, delta);
                    let what = format!("{bounder:?} {aggregate:?} {values} values");
                    for (side, got, want) in [
                        ("aggregate lo", agg.lo, want_agg.lo),
                        ("aggregate hi", agg.hi, want_agg.hi),
                        ("count lo", count.lo, want_count.lo),
                        ("count hi", count.hi, want_count.hi),
                    ] {
                        assert_eq!(got.to_bits(), want.to_bits(), "{what}: {side}");
                    }
                    compared += 1;
                }
            }
        }
        assert_eq!(compared, 48);
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
            .update(AggregateFunction::Avg, 10_000, 100_000, 1e-6)
            .unwrap();
        assert!(snap1.ci.contains(snap1.estimate));
        assert_eq!(snap1.samples, 1_000);

        for i in 0..9_000u64 {
            v.observe(40.0 + (i % 21) as f64);
        }
        let snap2 = v
            .update(AggregateFunction::Avg, 100_000, 100_000, 1e-6 / 4.0)
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
            .update(AggregateFunction::Count, 10_000, 100_000, 1e-9)
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
            .update(AggregateFunction::Sum, 10_000, 100_000, 1e-9)
            .unwrap();
        assert!(snap.ci.contains(est));
    }

    #[test]
    fn empty_view_yields_full_range_interval() {
        let mut v = view(FlatBounder::Hoeffding);
        let snap = v
            .update(AggregateFunction::Avg, 10_000, 100_000, 1e-9)
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
                .update(
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

    /// Skipped rows of unknown membership count as non-matching for the
    /// COUNT lower bound and as matching for the upper bound, and keep a
    /// full pass from being exact.
    #[test]
    fn unknown_rows_bound_the_count_both_ways_and_forbid_exactness() {
        let observed = |known_absent: u64, unknown: u64| {
            let mut v = view(FlatBounder::BernsteinRangeTrim);
            for _ in 0..100 {
                v.observe(1.0);
            }
            v.record_absent(known_absent);
            v.record_unknown(unknown);
            v
        };
        // 1 000 rows scanned, 100 matched, 4 000 rows skipped, 10 000 in all.
        let mut clean = observed(4_000, 0);
        let mut unknown = observed(0, 4_000);
        let count = |v: &mut AggregateView| {
            v.update(AggregateFunction::Count, 1_000, 10_000, 1e-3)
                .unwrap()
                .ci
        };
        let (clean_ci, unknown_ci) = (count(&mut clean), count(&mut unknown));
        assert_eq!(unknown_ci.lo, clean_ci.lo);
        // If every unknown row matched, 4 100 of the 5 000 rows passed would.
        assert!(
            unknown_ci.contains(4_100.0 / 5_000.0 * 10_000.0),
            "{unknown_ci:?}"
        );
        assert!(clean_ci.hi < 4_100.0, "{clean_ci:?}");

        let full_pass = |mut v: AggregateView| {
            v.finish(AggregateFunction::Avg, 6_000, 10_000, 1e-3, true)
                .unwrap()
                .exact
        };
        assert!(full_pass(observed(4_000, 0)));
        assert!(!full_pass(observed(3_999, 1)));
    }

    #[test]
    fn finalize_exact_collapses_interval() {
        let mut v = view(FlatBounder::BernsteinRangeTrim);
        for i in 0..1_000u64 {
            v.observe((i % 10) as f64);
        }
        let r = v
            .finish(AggregateFunction::Avg, 100_000, 100_000, 1e-9, true)
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
            .finish(AggregateFunction::Avg, 10_000, 100_000, 1e-9, false)
            .unwrap();
        assert!(!r2.exact);
        assert!(r2.ci.width() > 0.0);
    }
}

//! The flat per-view record the engine's partitioned (multi-threaded) scan
//! accumulates, and the merge of its partials.
//!
//! The engine's parallel pipeline cuts each OptStop round's block list into
//! contiguous partitions of a fixed block count (at least 256 blocks, at
//! most 64 partitions per round). The layout is a pure function of the
//! planned list, never of the thread count. Each partition is scanned into
//! one partial per touched aggregate view, on whichever scan thread takes it,
//! and the coordinator folds the partials into the master state **in
//! partition (block-id) order**.
//!
//! ## The accumulation contract
//!
//! Results are a **pure function of (data, plan)**: the partition layout,
//! the order of values within a partition, and the merge order all follow
//! from the planned block list. Every estimate, variance and CI bound is
//! therefore bit-for-bit identical at any thread count and on any backing.
//! They are *not* promised to equal a single row-at-a-time fold bit for bit:
//! merging changes floating-point summation order, and the tests bound that
//! difference numerically instead.
//!
//! ## Flat records
//!
//! Hoeffding, Bernstein and their RangeTrim variants all scan into one
//! plain `Copy` [`FlatRecord`] per view and partition: no allocation, no
//! virtual call, and one update per value whatever the kind.
//!
//! * The `all` moments ([`RunningMoments`]) see every value: count, sum, the
//!   sum and sum of squares shifted by the record's first value `K`, and
//!   the minimum and maximum. Updates are division-free.
//! * Four correction sums carry what RangeTrim's clipped states see
//!   differently (derivation below). They change only when a value is a new
//!   extreme, in one rarely taken branch.
//! * At partition end, [`FlatRecord::finish`] materialises the three-moment
//!   [`FlatMoments`] of Algorithm 6: `all` plus the clipped `left` and
//!   `right` moments. That is a view's master state. Partials fold into it
//!   by translating each partial's shifted sums into the master's shift and
//!   adding them ([`RunningMoments::merge`]: a few multiply-adds, no
//!   division); the raw sums add exactly, so an Exact SUM of integers is exactly integral
//!   under any layout.
//!
//! [`FlatBounder`] computes, from finished moments, the estimate and
//! interval of the bounder a kind stands for: plain kinds read `all`,
//! RangeTrim kinds `left` and `right`. [`FlatEstimator`] is the boxed
//! [`MeanEstimator`] that
//! [`BounderKind::make_estimator`](crate::bounder::BounderKind::make_estimator)
//! returns for these four kinds: one open record, so it runs the same
//! update. Anderson/DKW keeps its O(m) sample and has no flat form, so the
//! engine does not run it; Anderson+RT runs the three-state [`RangeTrim`]
//! wrapper, which also stays the Algorithm 6 reference the one record is
//! tested against.
//!
//! ### RangeTrim in one record
//!
//! Algorithm 6 withholds the first value and feeds every later value `v` to
//! the left state as `min(v, b′)` and to the right state as `max(v, a′)`,
//! where `a′`/`b′` are the extremes *before* `v`. The left feed differs
//! from `v` only at a **max-event**, `v > b′`, where it is `b′`; the right
//! feed differs only at a min-event, `v < a′`. A record therefore keeps
//!
//! ```text
//! L₁ = Σ_{v > b′} (v − b′)      L₂ = Σ_{v > b′} ((v − K)² − (b′ − K)²)
//! R₁ = Σ_{v < a′} (v − a′)      R₂ = Σ_{v < a′} ((v − K)² − (a′ − K)²)
//! ```
//!
//! The withheld first value is the shift `K` itself, so it adds 0 to the
//! shifted sums of `all`. The left state's moments, shifted by `K`, are
//! then count `n − 1`, `Σ (x − K) = all.s₁ − L₁` and
//! `Σ (x − K)² = all.s₂ − L₂`; the right state's use `R₁`, `R₂`. New
//! extremes are rare in a sample: among `m` values in random order the
//! expected number of running maxima is the harmonic number `H_m ≈ ln m`.
//!
//! The materialised left and right states hold the *same multisets* as
//! Algorithm 6's three-state fold, so count, mean and variance (all the
//! inner bounders read) agree up to floating-point rounding, and the
//! validity argument below is unchanged. Their stored extremes are those of
//! `all`, an outer bound of theirs (every clipped value lies between the
//! observed extremes); no bounder reads a clipped state's extremes.
//!
//! **NaN values** are the exception. A NaN is never a new extreme, so it
//! enters `all` as it does in Algorithm 6, and the estimate (the mean of
//! `all`) is NaN under either. Algorithm 6 clips a NaN to `b′`/`a′`, so its
//! left and right states stay finite; here the clipped states are derived
//! from `all` and take the NaN too, so a RangeTrim interval of a view that
//! observed a NaN falls back to the declared range `[a, b]`. That is wider,
//! hence still valid. A session refuses such data up front:
//! `Session::register_with` and `register_scramble` reject a float column
//! holding a NaN or an infinity, naming the column and row. NaN can still
//! reach a scan that bypasses the session, such as a scramble built
//! directly from a table or a segment opened from disk (the CSV loader
//! stores an unparsable float as NaN, and `Table::new` and
//! `Scramble::build_with` accept it, as persistence round-trips need).
//!
//! ## Statistical validity of merged states
//!
//! For the plain moments (count, sum, shifted sums, extremes) a merge
//! reconstructs the state a single pass over the concatenated partitions
//! would have built, up to floating-point summation order, which the fixed
//! merge order pins down.
//!
//! The one subtle case is [`RangeTrim`], whose inner states are fed values
//! clipped against the *prefix* running min/max. A partition clips against
//! its partition-local prefix extremes, which are at most as extreme as the
//! global prefix extremes a sequential scan would have used. Clipping harder
//! can only lower the values fed to the left (lower-bound) state and raise
//! those fed to the right state. Each partition also withholds its own first
//! observation from the inner states. Both effects only *widen* the
//! resulting interval, so merged RangeTrim bounds remain valid
//! (conservative). With fixed-size partitions a round has few of them, so
//! little is withheld: a default 1 600-block round has 7 partitions, not
//! 64.

use crate::bernstein::EmpiricalBernsteinSerfling;
use crate::bounder::{BoundContext, Ci, ErrorBounder, MeanEstimator};
use crate::hoeffding::HoeffdingSerfling;
use crate::range_trim::{RangeTrim, RangeTrimState};
use crate::variance::RunningMoments;

/// Algorithm 6's three moments: every value (`all`) and the clipped `left`
/// and `right` states. A view's master state, built by merging finished
/// [`FlatRecord`]s in partition order.
pub type FlatMoments = RangeTrimState<RunningMoments>;

impl FlatMoments {
    /// The empty state.
    pub const EMPTY: FlatMoments = RangeTrimState {
        left: RunningMoments::new(),
        right: RunningMoments::new(),
        all: RunningMoments::new(),
    };
}

/// One view's scan record for one partition: the moments of every value
/// plus RangeTrim's four correction sums (see the module docs). The same
/// update serves every flat kind.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlatRecord {
    /// Every observed value, unclipped, shifted by the first.
    pub all: RunningMoments,
    /// `(L₁, L₂)`: what the left state sees less than `all` at max-events.
    above: (f64, f64),
    /// `(R₁, R₂)`: the same for the right state at min-events.
    below: (f64, f64),
}

impl FlatRecord {
    /// The empty record.
    pub const EMPTY: FlatRecord = FlatRecord {
        all: RunningMoments::new(),
        above: (0.0, 0.0),
        below: (0.0, 0.0),
    };

    /// Whether no value has been observed.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.all.count() == 0
    }

    /// Observes one value.
    #[inline]
    pub fn observe(&mut self, v: f64) {
        let (a_prime, b_prime) = self.all.extremes();
        if v > b_prime || v < a_prime {
            self.new_extreme(v, a_prime, b_prime);
        }
        self.all.push_within(v);
    }

    /// The rare branch of [`Self::observe`]: `v` is the first value or a new
    /// extreme. Adds the event's corrections and widens the extremes.
    #[cold]
    fn new_extreme(&mut self, v: f64, a_prime: f64, b_prime: f64) {
        if !self.is_empty() {
            let (k, _, _) = self.all.shifted();
            let dv = v - k;
            let (clip, sums) = if v > b_prime {
                (b_prime, &mut self.above)
            } else {
                (a_prime, &mut self.below)
            };
            let dc = clip - k;
            sums.0 += v - clip;
            sums.1 += dv * dv - dc * dc;
        }
        self.all.widen(v);
    }

    /// Observes a batch of values in slice order, bit-identical to one
    /// [`Self::observe`] per value.
    #[inline]
    pub fn observe_batch(&mut self, values: &[f64]) {
        // A local copy keeps the record in registers across the batch.
        let mut record = *self;
        for &v in values {
            record.observe(v);
        }
        *self = record;
    }

    /// Materialises Algorithm 6's three moments: `all`, and the left and
    /// right states as `all` less the withheld first value and the event
    /// corrections.
    pub fn finish(&self) -> FlatMoments {
        let (k, s1, s2) = self.all.shifted();
        let clipped = |(c1, c2): (f64, f64)| {
            RunningMoments::from_shifted(
                self.all.count().saturating_sub(1),
                k,
                s1 - c1,
                s2 - c2,
                self.all.extremes(),
            )
        };
        RangeTrimState {
            left: clipped(self.above),
            right: clipped(self.below),
            all: self.all,
        }
    }
}

/// The bounder kinds that accumulate a [`FlatRecord`]: everything but
/// Anderson/DKW. Obtained from
/// [`BounderKind::flat`](crate::bounder::BounderKind::flat).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FlatBounder {
    /// Hoeffding–Serfling over `all`.
    Hoeffding,
    /// RangeTrim over Hoeffding–Serfling.
    HoeffdingRangeTrim,
    /// Empirical Bernstein–Serfling over `all`.
    Bernstein,
    /// RangeTrim over empirical Bernstein–Serfling.
    BernsteinRangeTrim,
}

impl FlatBounder {
    /// The point estimate (the untrimmed mean), or `None` when empty.
    pub fn estimate(self, moments: &FlatMoments) -> Option<f64> {
        (moments.all.count() > 0).then(|| moments.all.mean())
    }

    /// `(lbound, rbound)` of the bounder this kind stands for: plain kinds
    /// read `all`, RangeTrim kinds `left` and `right`.
    pub fn bounds(self, moments: &FlatMoments, ctx: &BoundContext) -> (f64, f64) {
        fn both<B: ErrorBounder>(bounder: B, state: &B::State, ctx: &BoundContext) -> (f64, f64) {
            (bounder.lbound(state, ctx), bounder.rbound(state, ctx))
        }
        match self {
            FlatBounder::Hoeffding => both(HoeffdingSerfling, &moments.all, ctx),
            FlatBounder::Bernstein => both(EmpiricalBernsteinSerfling, &moments.all, ctx),
            FlatBounder::HoeffdingRangeTrim => {
                both(RangeTrim::new(HoeffdingSerfling), moments, ctx)
            }
            FlatBounder::BernsteinRangeTrim => {
                both(RangeTrim::new(EmpiricalBernsteinSerfling), moments, ctx)
            }
        }
    }

    /// The two-sided interval of the bounder this kind stands for, as its
    /// [`ErrorBounder::interval`] computes it.
    pub fn interval(self, moments: &FlatMoments, ctx: &BoundContext) -> Ci {
        Ci::two_sided(ctx, |half| self.bounds(moments, half))
    }

    /// The name of the bounder this kind stands for.
    pub fn name(self) -> &'static str {
        match self {
            FlatBounder::Hoeffding => HoeffdingSerfling.name(),
            FlatBounder::Bernstein => EmpiricalBernsteinSerfling.name(),
            FlatBounder::HoeffdingRangeTrim => RangeTrim::new(HoeffdingSerfling).name(),
            FlatBounder::BernsteinRangeTrim => RangeTrim::new(EmpiricalBernsteinSerfling).name(),
        }
    }
}

/// The boxed [`MeanEstimator`] of the four flat kinds, which
/// [`BounderKind::make_estimator`](crate::bounder::BounderKind::make_estimator)
/// returns: one open record of every value observed, so it runs the
/// engine's one [`FlatRecord`] update.
#[derive(Debug, Clone, Copy)]
pub struct FlatEstimator {
    kind: FlatBounder,
    open: FlatRecord,
}

impl FlatEstimator {
    /// An empty estimator of `kind`.
    pub fn new(kind: FlatBounder) -> Self {
        Self {
            kind,
            open: FlatRecord::EMPTY,
        }
    }

    /// The three moments of everything observed.
    fn moments(&self) -> FlatMoments {
        self.open.finish()
    }
}

impl MeanEstimator for FlatEstimator {
    fn observe(&mut self, v: f64) {
        self.open.observe(v);
    }

    fn observe_batch(&mut self, values: &[f64]) {
        self.open.observe_batch(values);
    }

    fn count(&self) -> u64 {
        self.open.all.count()
    }

    fn estimate(&self) -> Option<f64> {
        self.kind.estimate(&self.moments())
    }

    fn interval(&self, ctx: &BoundContext) -> Ci {
        self.kind.interval(&self.moments(), ctx)
    }

    fn lbound(&self, ctx: &BoundContext) -> f64 {
        self.kind.bounds(&self.moments(), ctx).0
    }

    fn rbound(&self, ctx: &BoundContext) -> f64 {
        self.kind.bounds(&self.moments(), ctx).1
    }

    fn reset(&mut self) {
        *self = Self::new(self.kind);
    }

    fn bounder_name(&self) -> &'static str {
        self.kind.name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bounder::ErrorBounder;
    use crate::hoeffding::HoeffdingState;
    use crate::variance::RunningMoments;

    /// Merging a chain of per-partition partials left-to-right must be
    /// independent of how the partitions were grouped (associativity), which
    /// is what lets workers finish in any order.
    #[test]
    fn moments_partition_merge_is_associative() {
        let values: Vec<f64> = (0..999).map(|i| ((i * 37) % 100) as f64 / 7.0).collect();
        let partials: Vec<RunningMoments> = values
            .chunks(100)
            .map(|chunk| {
                let mut m = RunningMoments::new();
                for &v in chunk {
                    m.push(v);
                }
                m
            })
            .collect();

        // Left fold.
        let mut left = RunningMoments::new();
        for p in &partials {
            left.merge(p);
        }
        // Pairwise tree fold of the same sequence.
        let mut tree = partials.clone();
        while tree.len() > 1 {
            let mut next = Vec::new();
            for pair in tree.chunks(2) {
                let mut acc = pair[0];
                if let Some(rhs) = pair.get(1) {
                    acc.merge(rhs);
                }
                next.push(acc);
            }
            tree = next;
        }
        assert_eq!(left.count(), tree[0].count());
        assert!((left.mean() - tree[0].mean()).abs() < 1e-9);
        assert!((left.variance() - tree[0].variance()).abs() < 1e-9);
    }

    #[test]
    fn hoeffding_merge_matches_weighted_mean() {
        let mut a = HoeffdingState::default();
        let mut b = HoeffdingState::default();
        for v in [1.0, 2.0, 3.0] {
            a.push(v);
        }
        for v in [10.0, 20.0] {
            b.push(v);
        }
        a.merge(&b);
        assert_eq!(a.count(), 5);
        assert!((a.mean() - (1.0 + 2.0 + 3.0 + 10.0 + 20.0) / 5.0).abs() < 1e-12);
    }

    #[test]
    fn merging_empty_is_identity() {
        let mut a = HoeffdingState::default();
        for v in [1.0, 2.0, 3.0, 4.0] {
            a.push(v);
        }
        let before = a;
        a.merge(&HoeffdingState::default());
        assert_eq!(a, before);
        assert_eq!(a.count(), 4);
        assert_eq!(a.mean(), 2.5);

        let mut empty = HoeffdingState::default();
        empty.merge(&a);
        assert_eq!(empty, before);
    }

    /// The same partial merged in the same order always produces bitwise
    /// identical floats — the engine's determinism guarantee leans on this.
    #[test]
    fn merge_is_bitwise_deterministic() {
        let build = || {
            let mut m = RunningMoments::new();
            let mut parts = Vec::new();
            for chunk in 0..7 {
                let mut p = RunningMoments::new();
                for i in 0..53 {
                    p.push(((chunk * 53 + i) as f64).sin() * 1e3);
                }
                parts.push(p);
            }
            for p in &parts {
                m.merge(p);
            }
            (m.mean().to_bits(), m.variance().to_bits(), m.count())
        };
        assert_eq!(build(), build());
    }

    /// `values` cut into `parts` partitions: each folded into its own flat
    /// record, finished and merged in order.
    fn merged_over(values: &[f64], parts: usize) -> FlatMoments {
        let mut master = FlatMoments::EMPTY;
        for chunk in values.chunks(values.len().div_ceil(parts)) {
            let mut partial = FlatRecord::EMPTY;
            // Uneven batches inside the partition, as blocks would give.
            for batch in chunk.chunks(37) {
                partial.observe_batch(batch);
            }
            master.merge(&partial.finish());
        }
        master
    }

    /// Algorithm 6's three-state fold over the same partitions.
    fn three_state_over(values: &[f64], parts: usize) -> FlatMoments {
        let rt = RangeTrim::new(HoeffdingSerfling);
        let mut master = rt.init_state();
        for chunk in values.chunks(values.len().div_ceil(parts)) {
            let mut partial = rt.init_state();
            for &v in chunk {
                rt.update_state(&mut partial, v);
            }
            master.merge(&partial);
        }
        master
    }

    fn assert_close(what: &str, got: f64, want: f64) {
        assert_within(what, got, want, 1e-12);
    }

    fn assert_within(what: &str, got: f64, want: f64, tolerance: f64) {
        let rel = (got - want).abs() / want.abs().max(f64::MIN_POSITIVE);
        assert!(
            got == want || rel < tolerance,
            "{what}: {got} vs {want} ({rel:e} relative)"
        );
    }

    /// The one-record RangeTrim against Algorithm 6's three-state fold:
    /// equal counts, and left/right means and variances within 1e-12
    /// relative, for single records and merged over 1, 7 and 64
    /// partitions, on data with no, few, and all-row extreme events.
    #[test]
    fn one_record_range_trim_matches_the_three_state_fold() {
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let random: Vec<f64> = (0..6_400)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state >> 11) as f64 / (1u64 << 53) as f64 * 200.0 - 50.0
            })
            .collect();
        let ascending: Vec<f64> = (0..6_400).map(|i| i as f64 * 0.25 - 300.0).collect();
        let descending: Vec<f64> = ascending.iter().rev().copied().collect();
        let constant = vec![42.5; 6_400];
        let offset: Vec<f64> = (0..22_400u64)
            .map(|i| 1e9 + ((i * 7_919) % 1_000) as f64 * 0.1 + (i % 3) as f64 * 1e-3)
            .collect();
        for (name, values) in [
            ("random", &random),
            ("ascending", &ascending),
            ("descending", &descending),
            ("constant", &constant),
            ("offset", &offset),
        ] {
            for parts in [1, 7, 64] {
                let one = merged_over(values, parts);
                let three = three_state_over(values, parts);
                for (side, got, want) in [
                    ("left", one.left, three.left),
                    ("right", one.right, three.right),
                    ("all", one.all, three.all),
                ] {
                    let what = format!("{name} x{parts} {side}");
                    assert_eq!(got.count(), want.count(), "{what}: count");
                    assert_close(&format!("{what} mean"), got.mean(), want.mean());
                    assert_close(&format!("{what} variance"), got.variance(), want.variance());
                }
            }
        }
    }

    /// The translate-and-add merge against one sequential fold: values
    /// folded in 1, 7 and 64 partitions and merged agree with a sequential
    /// `RangeTrim<HoeffdingSerfling>` fold over all of them (the `all`
    /// moments) on mean and variance: within 1e-12 relative at a 1e9
    /// offset, and within 1e-11 with a 10⁶σ outlier as the first value of
    /// the last partition. That partition's sums are then shifted by the
    /// outlier, which costs them about its row count times ε relative
    /// before any merge: Chan et al.'s merge is off by the same 3e-12 on
    /// the 7-partition layout. The clipped states, which depend on the
    /// layout, match Algorithm 6's fold over the same partitions.
    #[test]
    fn translate_and_add_merge_matches_a_sequential_fold() {
        let noise = |i: u64| ((i * 7_919) % 1_000) as f64 * 0.1 + (i % 3) as f64 * 1e-3;
        let rows = 22_400u64;
        // σ of the noise is about 29; the outlier sits 10⁶σ above it.
        let sigma = 28.9;
        let rt = RangeTrim::new(HoeffdingSerfling);
        for (name, offset, outlier) in [
            ("offset", 1e9, false),
            ("outlier", 0.0, true),
            ("offset and outlier", 1e9, true),
        ] {
            for parts in [1usize, 7, 64] {
                let mut values: Vec<f64> = (0..rows).map(|i| offset + noise(i)).collect();
                let chunk = values.len().div_ceil(parts);
                if outlier {
                    values[(parts - 1) * chunk] = offset + 1e6 * sigma;
                }
                let mut sequential = rt.init_state();
                for &v in &values {
                    rt.update_state(&mut sequential, v);
                }
                let merged = merged_over(&values, parts);
                let what = format!("{name} x{parts}");
                assert_eq!(merged.all.count(), sequential.all.count(), "{what}");
                let tolerance = if outlier { 1e-11 } else { 1e-12 };
                for (stat, got, want) in [
                    ("mean", merged.all.mean(), sequential.all.mean()),
                    ("variance", merged.all.variance(), sequential.all.variance()),
                ] {
                    assert_within(&format!("{what} {stat}"), got, want, tolerance);
                }
                if outlier {
                    // The clipped states leave the outlier out but keep its
                    // shift, which costs them up to 1e-8 relative under
                    // either merge; the one-record derivation, not the
                    // merge, sets that bound.
                    continue;
                }
                let three = three_state_over(&values, parts);
                for (side, got, want) in [
                    ("left", merged.left, three.left),
                    ("right", merged.right, three.right),
                ] {
                    assert_eq!(got.count(), want.count(), "{what} {side}");
                    assert_close(&format!("{what} {side} mean"), got.mean(), want.mean());
                    assert_close(
                        &format!("{what} {side} variance"),
                        got.variance(),
                        want.variance(),
                    );
                }
            }
        }
    }

    /// A NaN value is where the one record and Algorithm 6 part ways (see
    /// the module docs). Both report a NaN estimate; Algorithm 6 clips the
    /// NaN to the running extremes and keeps a finite interval, while the
    /// record's clipped states take the NaN, so a RangeTrim interval falls
    /// back to the declared range.
    #[test]
    fn a_nan_value_poisons_the_estimate_and_widens_range_trim_to_the_range() {
        let mut values: Vec<f64> = (0..500).map(|i| 10.0 + (i % 17) as f64).collect();
        values[250] = f64::NAN;
        let ctx = BoundContext::new(0.0, 100.0, 100_000, 1e-6).unwrap();
        let one = merged_over(&values, 1);
        let three = three_state_over(&values, 1);
        assert_eq!(one.all.count(), three.all.count());
        for kind in [
            FlatBounder::HoeffdingRangeTrim,
            FlatBounder::BernsteinRangeTrim,
        ] {
            assert!(kind.estimate(&one).unwrap().is_nan(), "{kind:?}");
            assert!(kind.estimate(&three).unwrap().is_nan(), "{kind:?}");
            assert_eq!(
                kind.interval(&one, &ctx),
                Ci::full_range(0.0, 100.0),
                "{kind:?}"
            );
            let reference = kind.interval(&three, &ctx);
            assert!(
                reference.lo > 0.0 && reference.hi < 100.0,
                "{kind:?}: {reference:?}"
            );
        }
    }

    /// Flat records merged over 1, 7 and 64 partitions agree with a per-row
    /// Welford fold to 1e-9 relative, on data whose offset would wipe out
    /// the naive `Σ v²` method.
    #[test]
    fn flat_records_match_a_welford_fold_at_a_large_offset() {
        let values: Vec<f64> = (0..22_400u64)
            .map(|i| 1e9 + ((i * 7_919) % 1_000) as f64 * 0.1 + (i % 3) as f64 * 1e-3)
            .collect();
        let (mut n, mut mean, mut m2) = (0.0f64, 0.0f64, 0.0f64);
        for &v in &values {
            n += 1.0;
            let delta = v - mean;
            mean += delta / n;
            m2 += delta * (v - mean);
        }
        let variance = m2 / n;
        for parts in [1, 7, 64] {
            let moments = merged_over(&values, parts);
            assert_eq!(moments.all.count(), values.len() as u64);
            let rel_mean = (moments.all.mean() - mean).abs() / mean;
            let rel_var = (moments.all.variance() - variance).abs() / variance;
            assert!(rel_mean < 1e-9, "x{parts}: mean off by {rel_mean}");
            assert!(rel_var < 1e-9, "x{parts}: variance off by {rel_var}");
        }
    }

    /// Raw sums add exactly: integer-valued data sums to an exact integer
    /// under any partition layout, where `count × mean` would not.
    #[test]
    fn flat_sums_of_integers_are_exact_under_any_layout() {
        let values: Vec<f64> = (0..10_000u64).map(|i| ((i * 31) % 997) as f64).collect();
        let exact: u64 = (0..10_000u64).map(|i| (i * 31) % 997).sum();
        for parts in [1, 7, 64, 1_000] {
            let moments = merged_over(&values, parts);
            assert_eq!(moments.all.sum(), exact as f64, "{parts} partitions");
        }
    }

    /// Each flat kind's boxed estimator, which runs the one-record update,
    /// against the generic estimator over the bounder it stands for, fed
    /// value by value. The plain kinds agree bit for bit (`widen` then
    /// `push_within` is `push`); the RangeTrim kinds hold the same multisets
    /// in their clipped states, so they agree within 1e-12 relative. (Merged
    /// records are checked against the three-state fold by
    /// `translate_and_add_merge_matches_a_sequential_fold`.)
    #[test]
    fn flat_records_match_their_boxed_estimator_bitwise() {
        use crate::bernstein::EmpiricalBernsteinSerfling;
        use crate::bounder::{BounderKind, BoxedEstimator, Estimator};

        let values: Vec<f64> = (0..1_000).map(|i| ((i * 37) % 113) as f64 / 7.0).collect();
        let ctx = BoundContext::new(-5.0, 20.0, 100_000, 1e-9).unwrap();
        for kind in BounderKind::ALL {
            let Some(flat) = kind.flat() else {
                continue;
            };
            let mut want: BoxedEstimator = match flat {
                FlatBounder::Hoeffding => Box::new(Estimator::new(HoeffdingSerfling)),
                FlatBounder::Bernstein => Box::new(Estimator::new(EmpiricalBernsteinSerfling)),
                FlatBounder::HoeffdingRangeTrim => {
                    Box::new(Estimator::new(RangeTrim::new(HoeffdingSerfling)))
                }
                FlatBounder::BernsteinRangeTrim => {
                    Box::new(Estimator::new(RangeTrim::new(EmpiricalBernsteinSerfling)))
                }
            };
            let mut flat_est = kind.make_estimator();
            for batch in values.chunks(61) {
                flat_est.observe_batch(batch);
            }
            for &v in &values {
                want.observe(v);
            }
            let what = kind.to_string();
            assert_eq!(flat_est.count(), want.count(), "{what}");
            assert_eq!(flat_est.bounder_name(), want.bounder_name(), "{what}");
            assert_eq!(
                flat_est.estimate().map(f64::to_bits),
                want.estimate().map(f64::to_bits),
                "{what}: estimate"
            );
            let (got, exp) = (flat_est.interval(&ctx), want.interval(&ctx));
            for (side, g, w) in [
                ("interval lo", got.lo, exp.lo),
                ("interval hi", got.hi, exp.hi),
                ("lbound", flat_est.lbound(&ctx), want.lbound(&ctx)),
                ("rbound", flat_est.rbound(&ctx), want.rbound(&ctx)),
            ] {
                if kind.uses_range_trim() {
                    assert_close(&format!("{what}: {side}"), g, w);
                } else {
                    assert_eq!(g.to_bits(), w.to_bits(), "{what}: {side} bits");
                }
            }
        }
        assert!(BounderKind::AndersonDkw.flat().is_none());
    }
}

//! The flat per-view record the engine's partitioned (multi-threaded) scan
//! accumulates, and the merge of its partials.
//!
//! The engine's parallel pipeline cuts each OptStop round's block list into
//! contiguous partitions of a fixed block count (at least 256 blocks and
//! 128 rows per view, at most 64 partitions per round). The layout is a
//! pure function of the planned list's length, the view count and the
//! block size, never of the thread count. Each partition is scanned into
//! one partial per touched aggregate view, on whichever scan thread takes it,
//! and the coordinator folds the partials into the view's master state
//! ([`FlatMaster`]) **in partition (block-id) order**.
//!
//! ## The accumulation contract
//!
//! Results are a **pure function of (data, plan)**: the partition layout,
//! each partition's seed (its views' master states as of the round's
//! start), the order of values within a partition, and the merge order all
//! follow from the planned block list. Every estimate, variance and CI
//! bound is therefore bit-for-bit identical at any thread count and on any
//! backing. They are *not* promised to equal a single row-at-a-time fold
//! bit for bit: merging changes floating-point summation order, and the
//! tests bound that difference numerically instead.
//!
//! ## Flat records
//!
//! Hoeffding, Bernstein and their RangeTrim variants all scan into one
//! plain `Copy` [`FlatRecord`] per view and partition: no allocation, no
//! virtual call, and one update per value whatever the kind.
//!
//! * The `all` moments ([`RunningMoments`]) see every value: count, sum, the
//!   sum and sum of squares shifted by the view's shift `K`, and the
//!   minimum and maximum. Updates are division-free.
//! * Four correction sums carry what RangeTrim's clipped states see
//!   differently (derivation below). They change only when a value is a new
//!   extreme, in one rarely taken branch.
//!
//! A view's master state is itself a record, plus the count of first
//! values withheld from the clipped states ([`FlatMaster`]). From a view's
//! second round on, every partition starts the view's record from a
//! **seed**: the master's shift `K` and its extremes as of the round's
//! start ([`FlatMaster::seed`]). Such a partial merges by **addition**: its
//! shifted sums share `K`, and its correction sums count values beyond
//! thresholds the master's extremes already passed, so all of them add as
//! they are. Only in a view's first round, while its master is empty, does
//! a partition start empty: it takes its first value as its shift and
//! withholds it, and its sums are translated into the master's shift on
//! merge ([`RunningMoments::merge`]; the corrections translate the same
//! way, see below). The raw sums add exactly either way, so an Exact SUM of
//! integers is exactly integral under any layout.
//!
//! [`FlatMaster::moments`] materialises Algorithm 6's three moments,
//! [`FlatMoments`] (`all` plus the clipped `left` and `right` states), once
//! per view per round, when its interval is recomputed.
//!
//! [`FlatBounder`] computes, from those moments, the estimate and interval
//! of the bounder a kind stands for: plain kinds read `all`, RangeTrim kinds
//! `left` and `right`. [`FlatEstimator`] is the boxed [`MeanEstimator`] that
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
//! `L₁ = Σ (v − K) − Σ (x − K)` and `L₂ = Σ (v − K)² − Σ (x − K)²` are
//! what `all` holds beyond the left state's sums; `R₁`, `R₂` likewise for
//! the right. A withheld first value is the shift `K` itself, so it adds 0
//! to the shifted sums of `all`. With `w` values withheld, the left state's
//! moments, shifted by `K`, are then count `n − w`, `Σ (x − K) = all.s₁ − L₁`
//! and `Σ (x − K)² = all.s₂ − L₂`; the right state's use `R₁`, `R₂`.
//!
//! A first-round partial with shift `K′` joins a master with shift `K` by
//! translating its sums by `d = K′ − K`. Its withheld value `K′` now adds
//! `d` to `all`'s shifted sum and `d²` to its sum of squares, and neither
//! to the clipped states, so `L₁ += L₁′ + d` and `L₂ += L₂′ + 2d·L₁′ + d²`
//! (the same for `R`), and the master counts one more withheld value.
//!
//! New extremes are rare in a sample: among `m` values in random order the
//! expected number of running maxima is the harmonic number `H_m ≈ ln m`.
//! The materialised left and right states hold the *same multisets* as the
//! clipped three-state fold they stand for, so count, mean and variance
//! (all the inner bounders read) agree up to floating-point rounding. Their
//! stored extremes are those of `all`, an outer bound of theirs (every
//! clipped value lies between the observed extremes); no bounder reads a
//! clipped state's extremes.
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
//! The one subtle case is RangeTrim, whose inner states Algorithm 6 feeds
//! values clipped against the extremes of the whole *prefix* before each
//! value. A partition clips against the round-start extremes joined with
//! its own prefix. Both are values the query's prefix holds, so these
//! extremes are a subset of Algorithm 6's and never more extreme: `b′` is
//! at most, and `a′` at least, what a sequential scan would use. Clipping
//! harder can only lower the values fed to the left (lower-bound) state and
//! raise those fed to the right state, so the lower bound can only fall and
//! the upper bound only rise. A view also withholds one first value per
//! partition of its first round, not one per query: the inner states then
//! see fewer values, which again only *widens* the interval. Merged
//! RangeTrim bounds therefore remain valid (conservative). From a view's
//! second round on nothing more is withheld, and the round-start extremes
//! are those of every earlier round, so the clipping is close to
//! Algorithm 6's.

use crate::bernstein::EmpiricalBernsteinSerfling;
use crate::bounder::{BoundContext, Ci, ErrorBounder, MeanEstimator};
use crate::hoeffding::HoeffdingSerfling;
use crate::range_trim::{RangeTrim, RangeTrimState};
use crate::variance::RunningMoments;

/// Algorithm 6's three moments: every value (`all`) and the clipped `left`
/// and `right` states, materialised from a view's [`FlatMaster`] when its
/// interval is computed.
pub type FlatMoments = RangeTrimState<RunningMoments>;

/// One view's scan record for one partition: the moments of every value
/// plus RangeTrim's four correction sums (see the module docs). The same
/// update serves every flat kind.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlatRecord {
    /// Every observed value, unclipped, shifted by the view's shift.
    pub all: RunningMoments,
    /// `(L₁, L₂)`: what the left state sees less than `all` at max-events.
    above: (f64, f64),
    /// `(R₁, R₂)`: the same for the right state at min-events.
    below: (f64, f64),
}

impl FlatRecord {
    /// The empty record: its first value becomes its shift and is withheld
    /// from the clipped states.
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

    /// The rare branch of [`Self::observe`]: `v` is a new extreme, or the
    /// first value of an unseeded record (whose extremes are empty, so it
    /// becomes the shift). Adds the event's corrections and widens the
    /// extremes.
    #[cold]
    fn new_extreme(&mut self, v: f64, a_prime: f64, b_prime: f64) {
        if a_prime <= b_prime {
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

    /// Algorithm 6's three moments: `all`, and the left and right states as
    /// `all` less the `withheld` first values and the event corrections.
    fn moments(&self, withheld: u64) -> FlatMoments {
        let (k, s1, s2) = self.all.shifted();
        let clipped = |(c1, c2): (f64, f64)| {
            RunningMoments::from_shifted(
                self.all.count().saturating_sub(withheld),
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

    /// Adds a record seeded from this one's shift: every sum adds as it is.
    fn add(&mut self, other: &FlatRecord) {
        self.all.add(&other.all);
        self.above.0 += other.above.0;
        self.above.1 += other.above.1;
        self.below.0 += other.below.0;
        self.below.1 += other.below.1;
    }

    /// Merges an unseeded record, which withheld its first value (its
    /// shift `K′`), translating its sums into this record's shift `K`. With
    /// `d = K′ − K` the withheld value adds `d` and `d²` to what `all`
    /// holds beyond each clipped state (see the module docs).
    fn translate_add(&mut self, other: &FlatRecord) {
        if self.is_empty() {
            *self = *other;
            return;
        }
        let d = other.all.shifted().0 - self.all.shifted().0;
        self.all.merge(&other.all);
        for (sums, theirs) in [
            (&mut self.above, other.above),
            (&mut self.below, other.below),
        ] {
            sums.0 += theirs.0 + d;
            sums.1 += theirs.1 + d * (2.0 * theirs.0 + d);
        }
    }
}

/// A view's master state: the record every partition's partial merges
/// into, and the number of first values withheld from its clipped states.
/// Partials of a round merge by addition once the master holds a value
/// (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlatMaster {
    record: FlatRecord,
    /// One per partition merged while the master was empty at its round's
    /// start: each withheld its first value.
    withheld: u64,
    /// Whether the latest [`Self::seed`] carried the master's shift and
    /// extremes, so the round's partials started from them.
    seeded: bool,
}

impl FlatMaster {
    /// The empty master.
    pub const EMPTY: FlatMaster = FlatMaster {
        record: FlatRecord::EMPTY,
        withheld: 0,
        seeded: false,
    };

    /// Starts a round: returns the record this round's partitions start the
    /// view's records from. Every partial [`Self::absorb`]s until the next
    /// call must have started from it. Once the master has extremes, that
    /// is its shift and extremes with nothing counted, and the round's
    /// values clip against them; before, the empty record.
    pub fn seed(&mut self) -> FlatRecord {
        let (min, max) = self.record.all.extremes();
        self.seeded = min <= max;
        if !self.seeded {
            return FlatRecord::EMPTY;
        }
        FlatRecord {
            all: self.record.all.seed(),
            ..FlatRecord::EMPTY
        }
    }

    /// Merges a partition's partial, which started from the latest
    /// [`Self::seed`]: by addition when the seed held the master's shift,
    /// by translation (withholding the partial's first value) when it was
    /// empty.
    pub fn absorb(&mut self, partial: &FlatRecord) {
        if partial.is_empty() {
            return;
        }
        if self.seeded {
            self.record.add(partial);
        } else {
            self.record.translate_add(partial);
            self.withheld += 1;
        }
    }

    /// The moments of every value merged so far.
    #[inline]
    pub fn all(&self) -> &RunningMoments {
        &self.record.all
    }

    /// Algorithm 6's three moments of everything merged so far.
    pub fn moments(&self) -> FlatMoments {
        self.record.moments(self.withheld)
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

    /// The δ-only term of this kind's half-width at the per-side error
    /// probability `delta`: Hoeffding's `log(1/δ)` or Bernstein's
    /// `log(5/δ)`. It is the same for every view bounded at one δ, so a
    /// caller bounding many views at one δ computes it once and passes it
    /// to [`Self::bounds_with_log`] or [`Self::interval_with_log`].
    pub fn log_term(self, delta: f64) -> f64 {
        match self {
            FlatBounder::Hoeffding | FlatBounder::HoeffdingRangeTrim => {
                HoeffdingSerfling::log_term(delta)
            }
            FlatBounder::Bernstein | FlatBounder::BernsteinRangeTrim => {
                EmpiricalBernsteinSerfling::log_term(delta)
            }
        }
    }

    /// `(lbound, rbound)` of the bounder this kind stands for: plain kinds
    /// read `all`, RangeTrim kinds `left` and `right`.
    pub fn bounds(self, moments: &FlatMoments, ctx: &BoundContext) -> (f64, f64) {
        self.bounds_with_log(moments, ctx, self.log_term(ctx.delta))
    }

    /// [`Self::bounds`] from `log_term`, the [`Self::log_term`] of
    /// `ctx.delta`, bit for bit.
    pub fn bounds_with_log(
        self,
        moments: &FlatMoments,
        ctx: &BoundContext,
        log_term: f64,
    ) -> (f64, f64) {
        let inner = match self {
            FlatBounder::Hoeffding | FlatBounder::HoeffdingRangeTrim => {
                HoeffdingSerfling::bounds_with_log
            }
            FlatBounder::Bernstein | FlatBounder::BernsteinRangeTrim => {
                EmpiricalBernsteinSerfling::bounds_with_log
            }
        };
        match self {
            FlatBounder::Hoeffding | FlatBounder::Bernstein => inner(&moments.all, ctx, log_term),
            // RangeTrim's two sides, as `RangeTrim::{lbound, rbound}` run
            // the inner bounder.
            FlatBounder::HoeffdingRangeTrim | FlatBounder::BernsteinRangeTrim => (
                moments.lower_context(ctx).map_or(ctx.a, |inner_ctx| {
                    inner(&moments.left, &inner_ctx, log_term).0.max(ctx.a)
                }),
                moments.upper_context(ctx).map_or(ctx.b, |inner_ctx| {
                    inner(&moments.right, &inner_ctx, log_term).1.min(ctx.b)
                }),
            ),
        }
    }

    /// The two-sided interval of the bounder this kind stands for, as its
    /// [`ErrorBounder::interval`] computes it.
    pub fn interval(self, moments: &FlatMoments, ctx: &BoundContext) -> Ci {
        self.interval_with_log(moments, ctx, self.log_term(ctx.delta * 0.5))
    }

    /// [`Self::interval`] from `log_term`, the [`Self::log_term`] of each
    /// side's share `ctx.delta * 0.5`, bit for bit.
    pub fn interval_with_log(self, moments: &FlatMoments, ctx: &BoundContext, log_term: f64) -> Ci {
        Ci::two_sided(ctx, |half| self.bounds_with_log(moments, half, log_term))
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
        self.open.moments(1)
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

    /// `values` cut into `rounds` rounds of `parts` partitions each: every
    /// partition folded into its own flat record, started from the view's
    /// seed, and absorbed into the master in order.
    fn merged_over_rounds(values: &[f64], rounds: usize, parts: usize) -> FlatMoments {
        let mut master = FlatMaster::EMPTY;
        for round in values.chunks(values.len().div_ceil(rounds)) {
            let seed = master.seed();
            for chunk in round.chunks(round.len().div_ceil(parts)) {
                let mut partial = seed;
                // Uneven batches inside the partition, as blocks would give.
                for batch in chunk.chunks(37) {
                    partial.observe_batch(batch);
                }
                master.absorb(&partial);
            }
        }
        master.moments()
    }

    /// `values` cut into `parts` partitions of one round.
    fn merged_over(values: &[f64], parts: usize) -> FlatMoments {
        merged_over_rounds(values, 1, parts)
    }

    /// The clipped three-state fold merged records stand for, over the same
    /// layout as [`merged_over_rounds`], written out value by value: each
    /// value is clipped against the round-start extremes joined with its
    /// partition's prefix, and every partition of the first round
    /// withholds its first value. With one partition this is Algorithm 6.
    fn reference_fold(values: &[f64], rounds: usize, parts: usize) -> FlatMoments {
        let mut state = RangeTrimState {
            left: RunningMoments::new(),
            right: RunningMoments::new(),
            all: RunningMoments::new(),
        };
        for round in values.chunks(values.len().div_ceil(rounds)) {
            let round_start = state.all.min().zip(state.all.max());
            for chunk in round.chunks(round.len().div_ceil(parts)) {
                let mut prefix = round_start;
                for &v in chunk {
                    prefix = Some(match prefix {
                        None => (v, v),
                        Some((a, b)) => {
                            state.left.push(v.min(b));
                            state.right.push(v.max(a));
                            (a.min(v), b.max(v))
                        }
                    });
                    state.all.push(v);
                }
            }
        }
        state
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

    /// Equal counts, and means and variances within 1e-12 relative, of the
    /// three moments.
    fn assert_moments_close(what: &str, got: &FlatMoments, want: &FlatMoments) {
        for (side, got, want) in [
            ("left", got.left, want.left),
            ("right", got.right, want.right),
            ("all", got.all, want.all),
        ] {
            let what = format!("{what} {side}");
            assert_eq!(got.count(), want.count(), "{what}: count");
            assert_close(&format!("{what} mean"), got.mean(), want.mean());
            assert_close(&format!("{what} variance"), got.variance(), want.variance());
        }
    }

    /// Test data with no, few, and all-row extreme events, and at an
    /// offset that would wipe out a naive `Σ v²`.
    fn datasets() -> Vec<(&'static str, Vec<f64>)> {
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
        vec![
            ("random", random),
            ("ascending", ascending),
            ("descending", descending),
            ("constant", constant),
            ("offset", offset),
        ]
    }

    /// The one-record RangeTrim against Algorithm 6's three-state fold,
    /// each partition of one round folded on its own: equal counts, and
    /// left/right means and variances within 1e-12 relative, merged over 1,
    /// 7 and 64 partitions, on data with no, few, and all-row extreme
    /// events.
    #[test]
    fn one_record_range_trim_matches_the_three_state_fold() {
        for (name, values) in datasets() {
            for parts in [1, 7, 64] {
                assert_moments_close(
                    &format!("{name} x{parts}"),
                    &merged_over(&values, parts),
                    &reference_fold(&values, 1, parts),
                );
            }
        }
    }

    /// A record seeded from an empty master is the empty record, and
    /// scans bit for bit as one.
    #[test]
    fn a_record_seeded_from_an_empty_master_is_the_empty_record() {
        let mut master = FlatMaster::EMPTY;
        let seed = master.seed();
        assert_eq!(seed, FlatRecord::EMPTY);
        let values: Vec<f64> = (0..500).map(|i| ((i * 37) % 113) as f64 / 7.0).collect();
        let (mut seeded, mut empty) = (seed, FlatRecord::EMPTY);
        seeded.observe_batch(&values);
        empty.observe_batch(&values);
        assert_eq!(seeded, empty);
        master.absorb(&seeded);
        let (got, want) = (master.moments(), empty.moments(1));
        for (side, got, want) in [
            ("left", got.left, want.left),
            ("right", got.right, want.right),
            ("all", got.all, want.all),
        ] {
            assert_eq!(got, want, "{side}");
        }
    }

    /// Records merged over 1, 7 and 64 partitions per round and 2 or 5
    /// rounds, every round after the first started from the master's
    /// seed, against the clipped reference fold over the same layout:
    /// equal counts, and means and variances within 1e-12 relative.
    #[test]
    fn seeded_records_match_the_clipped_reference_fold() {
        for (name, values) in datasets() {
            for rounds in [2, 5] {
                for parts in [1, 7, 64] {
                    let merged = merged_over_rounds(&values, rounds, parts);
                    let reference = reference_fold(&values, rounds, parts);
                    assert_moments_close(
                        &format!("{name} {rounds} rounds x{parts}"),
                        &merged,
                        &reference,
                    );
                    // Only the first round's partitions withhold a value.
                    let first = &values[..values.len().div_ceil(rounds)];
                    let withheld = first.chunks(first.len().div_ceil(parts)).count() as u64;
                    assert_eq!(merged.left.count(), merged.all.count() - withheld);
                }
            }
        }
    }

    /// The merge against one sequential fold: values folded in 1, 7 and 64
    /// partitions and merged agree with a sequential
    /// `RangeTrim<HoeffdingSerfling>` fold over all of them (the `all`
    /// moments) on mean and variance: within 1e-12 relative at a 1e9
    /// offset. A 10⁶σ outlier as the first value of the last partition
    /// costs the one-round layout more: that partition starts empty, so
    /// the outlier becomes its shift, which costs its sums about their row
    /// count times ε relative before any merge (Chan et al.'s merge is off
    /// by the same 3e-12 on the 7-partition layout), so the bound there is
    /// 1e-11. That caveat applies only to a view's first round: from the
    /// second round on a partition starts from the master's shift, and the
    /// two-round layout, whose last partition is in round 2, holds 1e-12
    /// with the outlier too. Without the outlier the clipped states, which
    /// depend on the layout, match the clipped reference fold over the same
    /// partitions.
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
            for rounds in [1usize, 2] {
                for parts in [1usize, 7, 64] {
                    let mut values: Vec<f64> = (0..rows).map(|i| offset + noise(i)).collect();
                    // The first value of the last partition of the last round.
                    let round = values.len().div_ceil(rounds);
                    let last_round = (rounds - 1) * round;
                    let chunk = (values.len() - last_round).div_ceil(parts);
                    if outlier {
                        values[last_round + (parts - 1) * chunk] = offset + 1e6 * sigma;
                    }
                    let mut sequential = rt.init_state();
                    for &v in &values {
                        rt.update_state(&mut sequential, v);
                    }
                    let merged = merged_over_rounds(&values, rounds, parts);
                    let what = format!("{name} {rounds} rounds x{parts}");
                    assert_eq!(merged.all.count(), sequential.all.count(), "{what}");
                    let tolerance = if outlier && rounds == 1 { 1e-11 } else { 1e-12 };
                    for (stat, got, want) in [
                        ("mean", merged.all.mean(), sequential.all.mean()),
                        ("variance", merged.all.variance(), sequential.all.variance()),
                    ] {
                        assert_within(&format!("{what} {stat}"), got, want, tolerance);
                    }
                    if outlier {
                        // The clipped states leave the outlier out but are
                        // derived from sums that hold it: as the shift of a
                        // first-round partition, or from round 2 on as a
                        // square the correction sums take out again. Their
                        // variance is then off by up to 5e-2 relative as the
                        // shift, and by up to 3e-7 from round 2 on; the
                        // one-record derivation, not the merge, sets that
                        // bound.
                        continue;
                    }
                    let reference = reference_fold(&values, rounds, parts);
                    for (side, got, want) in [
                        ("left", merged.left, reference.left),
                        ("right", merged.right, reference.right),
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
    }

    /// A flat kind's bounds, read with its log term precomputed or not,
    /// equal the generic bounder's over the same three moments bit for bit:
    /// the plain kinds' over `all`, the RangeTrim kinds' over the clipped
    /// states.
    #[test]
    fn flat_bounds_equal_the_generic_bounders_bit_for_bit() {
        use crate::bernstein::EmpiricalBernsteinSerfling;

        let values: Vec<f64> = (0..3_000).map(|i| ((i * 37) % 113) as f64 / 7.0).collect();
        let ctx = BoundContext::new(-5.0, 40.0, 1_000_000, 1e-9).unwrap();
        for moments in [
            merged_over_rounds(&values, 3, 7),
            merged_over(&values[..1], 1),
        ] {
            for kind in [
                FlatBounder::Hoeffding,
                FlatBounder::HoeffdingRangeTrim,
                FlatBounder::Bernstein,
                FlatBounder::BernsteinRangeTrim,
            ] {
                let want = match kind {
                    FlatBounder::Hoeffding => HoeffdingSerfling.interval(&moments.all, &ctx),
                    FlatBounder::Bernstein => {
                        EmpiricalBernsteinSerfling.interval(&moments.all, &ctx)
                    }
                    FlatBounder::HoeffdingRangeTrim => {
                        RangeTrim::new(HoeffdingSerfling).interval(&moments, &ctx)
                    }
                    FlatBounder::BernsteinRangeTrim => {
                        RangeTrim::new(EmpiricalBernsteinSerfling).interval(&moments, &ctx)
                    }
                };
                let log = kind.log_term(ctx.delta * 0.5);
                for got in [
                    kind.interval(&moments, &ctx),
                    kind.interval_with_log(&moments, &ctx, log),
                ] {
                    assert_eq!(got.lo.to_bits(), want.lo.to_bits(), "{kind:?} lo");
                    assert_eq!(got.hi.to_bits(), want.hi.to_bits(), "{kind:?} hi");
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
        let rt = RangeTrim::new(HoeffdingSerfling);
        let mut three = rt.init_state();
        for &v in &values {
            rt.update_state(&mut three, v);
        }
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

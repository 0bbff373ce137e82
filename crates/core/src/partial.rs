//! Mergeable partial accumulator state for partitioned (multi-threaded)
//! scans, and the flat per-view record the engine's scan accumulates.
//!
//! The engine's parallel pipeline cuts each OptStop round's block list into
//! contiguous partitions of a fixed block count (at least 256 blocks, at
//! most 64 partitions per round). The layout is a pure function of the
//! planned list, never of the thread count. Each partition is scanned into
//! one partial per touched aggregate view, on whichever worker picks it up,
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
//! Hoeffding, Bernstein and their RangeTrim variants all accumulate one
//! plain `Copy` [`FlatRecord`] per view: no allocation, no virtual call.
//!
//! * The `all` moments ([`RunningMoments`]) see every value: count, sum, the
//!   sum and sum of squares shifted by the view's first value in the
//!   partition, and the minimum and maximum. Updates are division-free.
//! * RangeTrim kinds also feed the `left` and `right` moments with values
//!   clipped against the partition-prefix extremes (Algorithm 6).
//! * Records merge with Chan et al.'s pairwise formulas
//!   ([`RunningMoments::merge`]); the raw sums add exactly, so an Exact SUM
//!   of integers is exactly integral under any layout.
//!
//! [`FlatBounder`] computes a record's estimate and interval with the
//! bounder it stands for. Anderson/DKW keeps its O(m) sample, so its
//! partials stay boxed [`MeanEstimator`](crate::bounder::MeanEstimator)s.
//!
//! [`PartialState`] is the merge contract every accumulator implements: a
//! state that can be sent to a worker (`Send`) and folded back
//! deterministically (`merge`). The running moments, the Anderson/DKW state,
//! the [`RangeTrim`] wrapper state and the selectivity tracker behind the
//! COUNT path ([`SelectivityTracker`](crate::count::SelectivityTracker))
//! implement it.
//!
//! ## Statistical validity of merged states
//!
//! For the purely additive states (counts, sums, moments, Anderson's
//! retained sample) a merge reconstructs the state a single pass over the
//! concatenated partitions would have built, up to floating-point summation
//! order, which the fixed merge order pins down.
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
use crate::bounder::{BoundContext, Ci, ErrorBounder};
use crate::hoeffding::HoeffdingSerfling;
use crate::range_trim::{RangeTrim, RangeTrimState};
use crate::variance::RunningMoments;

/// A partial accumulator that a scan worker can build independently and the
/// merge step can fold back deterministically.
///
/// Implementations must be:
///
/// * **associative over partitions**: merging `[p0, p1, p2]` left-to-right
///   must equal merging `merge(p0, p1)` then `p2` (up to floating-point
///   rounding);
/// * **deterministic**: the merged state must be a pure function of the
///   operand states (no randomness, clocks or global state), so a fixed
///   partition layout yields bit-identical results at any thread count;
/// * **identity-respecting**: merging an empty (freshly initialized) state
///   must leave the other operand's observable statistics unchanged.
pub trait PartialState: Send {
    /// Folds `other` (the partial accumulated over the *later* partition)
    /// into `self` (the earlier one, or the running master state).
    fn merge(&mut self, other: &Self);
}

/// One view's flat accumulation: the moments of every value plus, for the
/// RangeTrim kinds, the left and right clipped moments. The same type is
/// the master state of a view and its per-partition partial.
pub type FlatRecord = RangeTrimState<RunningMoments>;

impl FlatRecord {
    /// The empty record.
    pub const EMPTY: FlatRecord = RangeTrimState {
        left: RunningMoments::new(),
        right: RunningMoments::new(),
        all: RunningMoments::new(),
    };
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
    /// Folds a batch of values into `record` in slice order. RangeTrim kinds
    /// feed the clipped values to `left` and `right` as well (Algorithm 6);
    /// the others feed `all` only. Bit-identical to feeding the values one
    /// at a time, in any batch split.
    pub fn observe_batch(self, record: &mut FlatRecord, values: &[f64]) {
        match self {
            FlatBounder::Hoeffding | FlatBounder::Bernstein => record.all.push_batch(values),
            // Hoeffding and Bernstein inner states are both `RunningMoments`,
            // so either inner bounder performs the same update.
            FlatBounder::HoeffdingRangeTrim | FlatBounder::BernsteinRangeTrim => {
                RangeTrim::new(HoeffdingSerfling).update_batch(record, values)
            }
        }
    }

    /// The point estimate (the untrimmed mean), or `None` when empty.
    pub fn estimate(self, record: &FlatRecord) -> Option<f64> {
        (record.all.count() > 0).then(|| record.all.mean())
    }

    /// The two-sided interval of the bounder this kind stands for.
    pub fn interval(self, record: &FlatRecord, ctx: &BoundContext) -> Ci {
        match self {
            FlatBounder::Hoeffding => HoeffdingSerfling.interval(&record.all, ctx),
            FlatBounder::Bernstein => EmpiricalBernsteinSerfling.interval(&record.all, ctx),
            FlatBounder::HoeffdingRangeTrim => {
                RangeTrim::new(HoeffdingSerfling).interval(record, ctx)
            }
            FlatBounder::BernsteinRangeTrim => {
                RangeTrim::new(EmpiricalBernsteinSerfling).interval(record, ctx)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::anderson::AndersonState;
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
            PartialState::merge(&mut left, p);
        }
        // Pairwise tree fold of the same sequence.
        let mut tree = partials.clone();
        while tree.len() > 1 {
            let mut next = Vec::new();
            for pair in tree.chunks(2) {
                let mut acc = pair[0];
                if let Some(rhs) = pair.get(1) {
                    PartialState::merge(&mut acc, rhs);
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
        PartialState::merge(&mut a, &b);
        assert_eq!(a.count(), 5);
        assert!((a.mean() - (1.0 + 2.0 + 3.0 + 10.0 + 20.0) / 5.0).abs() < 1e-12);
    }

    #[test]
    fn merging_empty_is_identity() {
        let mut a = HoeffdingState::default();
        a.push_batch(&[1.0, 2.0, 3.0, 4.0]);
        let before = a;
        PartialState::merge(&mut a, &HoeffdingState::default());
        assert_eq!(a, before);
        assert_eq!(a.count(), 4);
        assert_eq!(a.mean(), 2.5);

        let mut empty = HoeffdingState::default();
        PartialState::merge(&mut empty, &a);
        assert_eq!(empty, before);

        let bounder = crate::anderson::AndersonDkw::new();
        let mut anderson = AndersonState::default();
        let mut other = AndersonState::default();
        for v in [5.0, 7.0] {
            crate::bounder::ErrorBounder::update_state(&bounder, &mut other, v);
        }
        PartialState::merge(&mut anderson, &other);
        assert_eq!(anderson.sample, vec![5.0, 7.0]);
        assert_eq!(
            crate::bounder::ErrorBounder::estimate(&bounder, &anderson),
            Some(6.0)
        );
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
                PartialState::merge(&mut m, p);
            }
            (m.mean().to_bits(), m.variance().to_bits(), m.count())
        };
        assert_eq!(build(), build());
    }

    /// `1e9 + noise` cut into `parts` partitions: each folded into its own
    /// flat record, merged in order.
    fn merged_over(kind: FlatBounder, values: &[f64], parts: usize) -> FlatRecord {
        let mut master = FlatRecord::EMPTY;
        for chunk in values.chunks(values.len().div_ceil(parts)) {
            let mut partial = FlatRecord::EMPTY;
            // Uneven batches inside the partition, as blocks would give.
            for batch in chunk.chunks(37) {
                kind.observe_batch(&mut partial, batch);
            }
            master.merge(&partial);
        }
        master
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
        for kind in [FlatBounder::Bernstein, FlatBounder::BernsteinRangeTrim] {
            for parts in [1, 7, 64] {
                let record = merged_over(kind, &values, parts);
                assert_eq!(record.all.count(), values.len() as u64);
                let rel_mean = (record.all.mean() - mean).abs() / mean;
                let rel_var = (record.all.variance() - variance).abs() / variance;
                assert!(rel_mean < 1e-9, "{kind:?} x{parts}: mean off by {rel_mean}");
                assert!(
                    rel_var < 1e-9,
                    "{kind:?} x{parts}: variance off by {rel_var}"
                );
            }
        }
    }

    /// Raw sums add exactly: integer-valued data sums to an exact integer
    /// under any partition layout, where `count × mean` would not.
    #[test]
    fn flat_sums_of_integers_are_exact_under_any_layout() {
        let values: Vec<f64> = (0..10_000u64).map(|i| ((i * 31) % 997) as f64).collect();
        let exact: u64 = (0..10_000u64).map(|i| (i * 31) % 997).sum();
        for parts in [1, 7, 64, 1_000] {
            let record = merged_over(FlatBounder::Hoeffding, &values, parts);
            assert_eq!(record.all.sum(), exact as f64, "{parts} partitions");
        }
    }

    /// A flat record and the boxed estimator of the same kind run the same
    /// update and bound code: estimates and intervals agree bit for bit.
    #[test]
    fn flat_records_match_their_boxed_estimator_bitwise() {
        let values: Vec<f64> = (0..1_000).map(|i| ((i * 37) % 113) as f64 / 7.0).collect();
        let ctx = BoundContext::new(-5.0, 20.0, 100_000, 1e-9).unwrap();
        for kind in crate::bounder::BounderKind::ALL {
            let Some(flat) = kind.flat() else {
                continue;
            };
            let mut record = FlatRecord::EMPTY;
            for batch in values.chunks(61) {
                flat.observe_batch(&mut record, batch);
            }
            let mut boxed = kind.make_estimator();
            for &v in &values {
                boxed.observe(v);
            }
            assert_eq!(
                flat.estimate(&record).map(f64::to_bits),
                boxed.estimate().map(f64::to_bits),
                "{kind}"
            );
            let (fi, bi) = (flat.interval(&record, &ctx), boxed.interval(&ctx));
            assert_eq!(fi.lo.to_bits(), bi.lo.to_bits(), "{kind}: lbound bits");
            assert_eq!(fi.hi.to_bits(), bi.hi.to_bits(), "{kind}: rbound bits");
        }
        assert!(crate::bounder::BounderKind::AndersonDkw.flat().is_none());
    }
}

//! One-pass, numerically stable running moments in shifted-sum form.
//!
//! Algorithm 2 in the paper presents the empirical Bernstein–Serfling bounder
//! in terms of the raw second moment `M2 = Σ v²` "for the sake of exposition",
//! noting that "a real implementation might use a more numerically stable
//! one-pass algorithm for the variance" (Welford 1962, Chan et al. 1983).
//! This module is that implementation. It keeps the count, the raw sum, the
//! sums `Σ (v − K)` and `Σ (v − K)²` of the values shifted by `K` (the first
//! value observed), and the observed minimum and maximum.
//!
//! * **Division-free updates.** Observing a value is a handful of additions
//!   and one multiplication with no dependency through a division, unlike
//!   Welford's update of a running mean. Each field is a plain running sum
//!   or extreme, so however the values are split into batches, the same
//!   operations run in the same order and agree bit for bit.
//! * **Stability.** Shifting by a value of the data removes the catastrophic
//!   cancellation of the naive `Σ v²` method: for values like
//!   `1e9 + noise`, the shifted sums hold only the noise.
//! * **Pairwise merge.** [`RunningMoments::merge`] keeps the earlier
//!   accumulator's shift `K`, which is a value of the data, and translates
//!   the later one's sums into it: with `d = K′ − K`, its `Σ (v − K)` is
//!   `s₁′ + n′d` and its `Σ (v − K)²` is `s₂′ + d(2s₁′ + n′d)`. Both are
//!   added. There is no division and no re-centring on a mean, so a merge
//!   costs a few multiply-adds. This is the shifted-data form of Chan et
//!   al.'s pairwise update ("Updating formulae and a pairwise algorithm for
//!   computing sample variances", 1979): the two agree up to rounding.
//!   Precision is that of any sum shifted by a data value: a shift far from
//!   the rest of the data (a 10⁶σ outlier seen first) costs the shifted sums
//!   about their count times ε, relative, under either merge and in a
//!   sequential fold alike.
//! * **Seeded accumulation.** An accumulator that starts from another's
//!   shift shares it, so the two merge by plain addition, with no
//!   translation at all. The engine seeds every partition of a round from
//!   its view's master state ([`FlatMaster`](crate::partial::FlatMaster)),
//!   so a view's shift is the first value of its first partition for the
//!   whole query.
//! * **A real sum.** [`RunningMoments::sum`] is the running sum of the raw
//!   values, not `count × mean`, so a sum of integer-valued data stays
//!   exactly integral (below 2⁵³) whatever the merge layout.

/// Streaming count / sum / mean / variance / min / max accumulator.
///
/// The population variance returned by [`RunningMoments::variance`] is the
/// *biased* (divide-by-`m`) estimator `σ̂² = (1/m) Σ (xᵢ − x̄)²`, which is the
/// quantity that appears in the empirical Bernstein–Serfling inequality.
///
/// The struct is a plain `Copy` record (seven words), so the engine's scan
/// keeps one per touched aggregate view in a flat slab.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunningMoments {
    count: u64,
    /// The shift `K`: the first value observed (or merged in, for an
    /// accumulator that was empty), or the shift of the accumulator this
    /// one was seeded from.
    shift: f64,
    /// `Σ (v − K)`.
    s1: f64,
    /// `Σ (v − K)²`.
    s2: f64,
    min: f64,
    /// `Σ v`. (Kept between `min` and `max`: with the extremes adjacent,
    /// LLVM packs their two compare-and-select chains into one slower
    /// vector blend chain.)
    sum: f64,
    max: f64,
}

impl Default for RunningMoments {
    fn default() -> Self {
        Self::new()
    }
}

impl RunningMoments {
    /// Creates an empty accumulator.
    pub const fn new() -> Self {
        Self {
            count: 0,
            shift: 0.0,
            s1: 0.0,
            s2: 0.0,
            min: f64::INFINITY,
            sum: 0.0,
            max: f64::NEG_INFINITY,
        }
    }

    /// Observes a new value.
    #[inline]
    pub fn push(&mut self, v: f64) {
        if self.count == 0 {
            self.shift = v;
        }
        let d = v - self.shift;
        self.count += 1;
        self.s1 += d;
        self.s2 += d * d;
        self.sum += v;
        self.min = if v < self.min { v } else { self.min };
        self.max = if v > self.max { v } else { self.max };
    }

    /// Observes `v` without touching the extremes: the update of
    /// [`Self::push`] for a value known to lie within `[min, max]` of a
    /// non-empty (or seeded) accumulator; see [`Self::widen`].
    #[inline]
    pub(crate) fn push_within(&mut self, v: f64) {
        let d = v - self.shift;
        self.count += 1;
        self.s1 += d;
        self.s2 += d * d;
        self.sum += v;
    }

    /// Extends the extremes to cover `v`. A value that widens empty extremes
    /// (the first value that is not NaN) also becomes the shift, unless the
    /// accumulator was seeded with one. For values without NaN, this
    /// followed by [`Self::push_within`] equals [`Self::push`] bit for bit.
    #[inline]
    pub(crate) fn widen(&mut self, v: f64) {
        if self.min > self.max {
            self.shift = v;
        }
        self.min = if v < self.min { v } else { self.min };
        self.max = if v > self.max { v } else { self.max };
    }

    /// An empty accumulator that keeps this one's shift and extremes: the
    /// start of a later partition whose sums [`Self::add`] back without
    /// translation. Its values are clipped against these extremes by
    /// [`FlatRecord`](crate::partial::FlatRecord).
    #[inline]
    pub(crate) fn seed(&self) -> Self {
        Self {
            count: 0,
            s1: 0.0,
            s2: 0.0,
            sum: 0.0,
            ..*self
        }
    }

    /// Adds an accumulator that shares this one's shift (one started from
    /// [`Self::seed`]): every sum adds as it is, and the extremes join.
    #[inline]
    pub(crate) fn add(&mut self, other: &RunningMoments) {
        debug_assert_eq!(self.shift.to_bits(), other.shift.to_bits());
        self.count += other.count;
        self.s1 += other.s1;
        self.s2 += other.s2;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Rebuilds an accumulator from its shifted-sum form: `count` values
    /// with `Σ (v − shift) = s1` and `Σ (v − shift)² = s2`. `extremes` is
    /// stored as the `(min, max)` pair, and the raw sum is derived as
    /// `count · shift + s1`. Empty for `count == 0`.
    pub(crate) fn from_shifted(
        count: u64,
        shift: f64,
        s1: f64,
        s2: f64,
        (min, max): (f64, f64),
    ) -> Self {
        if count == 0 {
            return Self::new();
        }
        Self {
            count,
            shift,
            s1,
            s2,
            min,
            sum: shift * count as f64 + s1,
            max,
        }
    }

    /// The shifted-sum form `(K, Σ (v − K), Σ (v − K)²)`.
    #[inline]
    pub(crate) fn shifted(&self) -> (f64, f64, f64) {
        (self.shift, self.s1, self.s2)
    }

    /// Merges another accumulator into this one by translating its shifted
    /// sums into this one's shift `K` and adding them. With `d = K′ − K`,
    /// `Σ (v − K) = s₁′ + n′d` and `Σ (v − K)² = s₂′ + d(2s₁′ + n′d)`: no
    /// division, and `K` stays the value of the data it was set from.
    pub fn merge(&mut self, other: &RunningMoments) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let d = other.shift - self.shift;
        let n = other.count as f64;
        self.count += other.count;
        self.s1 += other.s1 + n * d;
        self.s2 += other.s2 + d * (2.0 * other.s1 + n * d);
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of values observed so far.
    #[inline]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Running mean, or `0.0` if no values have been observed.
    #[inline]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.shift + self.s1 / self.count as f64
        }
    }

    /// Sum of squared deviations from the mean, `Σ (v − v̄)²`, clamped at
    /// zero against rounding.
    #[inline]
    fn m2(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            (self.s2 - self.s1 * self.s1 / self.count as f64).max(0.0)
        }
    }

    /// Biased (population-style) sample variance `σ̂² = M2 / m`.
    ///
    /// Returns `0.0` when fewer than two values have been observed.
    #[inline]
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2() / self.count as f64
        }
    }

    /// Biased sample standard deviation `σ̂`.
    #[inline]
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Sum of the observed values, accumulated value by value (and added
    /// exactly across merges), not derived from the mean.
    #[inline]
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Smallest value observed so far, or `None` for an empty accumulator.
    #[inline]
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest value observed so far, or `None` for an empty accumulator.
    #[inline]
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// `(min, max)` as stored: `(+∞, −∞)` for an empty accumulator.
    #[inline]
    pub(crate) fn extremes(&self) -> (f64, f64) {
        (self.min, self.max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive_stats(values: &[f64]) -> (f64, f64) {
        let n = values.len() as f64;
        let mean = values.iter().sum::<f64>() / n;
        let var = values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / n;
        (mean, var)
    }

    #[test]
    fn empty_accumulator_reports_zero() {
        let m = RunningMoments::new();
        assert_eq!(m.count(), 0);
        assert_eq!(m.mean(), 0.0);
        assert_eq!(m.variance(), 0.0);
        assert_eq!(m.sum(), 0.0);
        assert!(m.min().is_none());
        assert!(m.max().is_none());
    }

    #[test]
    fn single_value() {
        let mut m = RunningMoments::new();
        m.push(42.0);
        assert_eq!(m.count(), 1);
        assert_eq!(m.mean(), 42.0);
        assert_eq!(m.variance(), 0.0);
        assert_eq!(m.min(), Some(42.0));
        assert_eq!(m.max(), Some(42.0));
    }

    #[test]
    fn matches_naive_computation() {
        let values: Vec<f64> = (0..1000)
            .map(|i| (i as f64 * 0.37).sin() * 100.0 + 12.0)
            .collect();
        let mut m = RunningMoments::new();
        for &v in &values {
            m.push(v);
        }
        let (mean, var) = naive_stats(&values);
        assert!((m.mean() - mean).abs() < 1e-9, "{} vs {}", m.mean(), mean);
        assert!(
            (m.variance() - var).abs() < 1e-6,
            "{} vs {}",
            m.variance(),
            var
        );
    }

    #[test]
    fn numerically_stable_for_large_offsets() {
        // Classic catastrophic-cancellation scenario for the naive Σv² method.
        let offset = 1e9;
        let values: Vec<f64> = (0..10_000).map(|i| offset + (i % 7) as f64).collect();
        let mut m = RunningMoments::new();
        for &v in &values {
            m.push(v);
        }
        let (mean, var) = naive_stats(&values);
        assert!((m.mean() - mean).abs() < 1e-3);
        assert!((m.variance() - var).abs() / var < 1e-6);
    }

    #[test]
    fn merge_matches_sequential() {
        let values: Vec<f64> = (0..500).map(|i| (i as f64).sqrt() * 3.0 - 10.0).collect();
        let mut all = RunningMoments::new();
        for &v in &values {
            all.push(v);
        }
        let mut left = RunningMoments::new();
        let mut right = RunningMoments::new();
        for &v in &values[..200] {
            left.push(v);
        }
        for &v in &values[200..] {
            right.push(v);
        }
        left.merge(&right);
        assert_eq!(left.count(), all.count());
        assert!((left.mean() - all.mean()).abs() < 1e-9);
        assert!((left.variance() - all.variance()).abs() < 1e-9);
        assert_eq!(left.min(), all.min());
        assert_eq!(left.max(), all.max());
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut m = RunningMoments::new();
        m.push(1.0);
        m.push(2.0);
        let snapshot = m;
        m.merge(&RunningMoments::new());
        assert_eq!(m, snapshot);

        let mut empty = RunningMoments::new();
        empty.merge(&snapshot);
        assert_eq!(empty, snapshot);
    }

    #[test]
    fn min_max_track_extremes() {
        let mut m = RunningMoments::new();
        for v in [3.0, -7.0, 12.5, 0.0] {
            m.push(v);
        }
        assert_eq!(m.min(), Some(-7.0));
        assert_eq!(m.max(), Some(12.5));
    }

    #[test]
    fn sum_is_count_times_mean() {
        let mut m = RunningMoments::new();
        for v in [1.0, 2.0, 3.0, 4.0] {
            m.push(v);
        }
        assert!((m.sum() - 10.0).abs() < 1e-12);
    }
}

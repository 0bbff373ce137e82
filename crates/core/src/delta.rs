//! Error-probability (δ) budgeting helpers.
//!
//! Every probabilistic guarantee in the paper is obtained from union bounds
//! over independent sub-claims, each of which is given a slice of the overall
//! error budget δ:
//!
//! * the two sides of a confidence interval get δ/2 each (§2.2.3);
//! * each aggregate view in a query gets δ / #views (§4.1, Definition 5);
//! * each round `k` of the OptStop loop gets `(6/π²)·δ/k²` so the budgets
//!   telescope to δ via `Σ 1/k² = π²/6` (Theorem 4);
//! * the unknown-dataset-size construction of Theorem 3 splits δ between the
//!   selectivity bound (`(1−α)·δ`) and the mean bound (`α·δ`, with α = 0.99
//!   in the paper's experiments).
//!
//! [`DeltaBudget`] packages the per-view and per-round splits the engine
//! makes, so it cannot accidentally double-spend the budget; the interval
//! sides and Theorem 3's α are split where the bounds are computed
//! ([`Ci::two_sided`](crate::bounder::Ci::two_sided), [`DEFAULT_ALPHA`]).

use crate::error::{CoreError, CoreResult};

/// The α fraction used in Theorem 3 throughout the paper's evaluation (§4.1):
/// most of the budget goes to the mean CI, with `(1 − α)·δ` reserved for the
/// selectivity (dataset-size) bound.
pub const DEFAULT_ALPHA: f64 = 0.99;

/// A validated δ budget with the standard splitting operations.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeltaBudget {
    delta: f64,
}

impl DeltaBudget {
    /// Creates a budget from a total error probability `delta ∈ (0, 1)`.
    pub fn new(delta: f64) -> CoreResult<Self> {
        if !delta.is_finite() || delta <= 0.0 || delta >= 1.0 {
            return Err(CoreError::InvalidDelta { delta });
        }
        Ok(Self { delta })
    }

    /// Splits the budget evenly over `parts` independent claims (union bound).
    ///
    /// Returns the per-part δ. `parts = 0` is treated as 1.
    pub fn split_even(&self, parts: usize) -> f64 {
        self.delta / parts.max(1) as f64
    }

    /// The per-round δ′ of the OptStop schedule: `(6/π²)·δ/k²` for round
    /// `k ≥ 1` (Algorithm 5, line 7).
    pub fn optstop_round(&self, round: usize) -> f64 {
        let k = round.max(1) as f64;
        (6.0 / (std::f64::consts::PI * std::f64::consts::PI)) * self.delta / (k * k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_invalid_delta() {
        assert!(DeltaBudget::new(0.0).is_err());
        assert!(DeltaBudget::new(1.0).is_err());
        assert!(DeltaBudget::new(-0.5).is_err());
        assert!(DeltaBudget::new(f64::NAN).is_err());
        assert!(DeltaBudget::new(1e-15).is_ok());
    }

    #[test]
    fn split_even_divides_budget() {
        let b = DeltaBudget::new(0.1).unwrap();
        assert!((b.split_even(4) - 0.025).abs() < 1e-15);
        assert_eq!(b.split_even(0), 0.1);
        assert_eq!(b.split_even(1), 0.1);
    }

    #[test]
    fn optstop_rounds_sum_to_total() {
        // Σ_{k=1..∞} (6/π²)·δ/k² = δ; check partial sums stay strictly below
        // and converge close to δ.
        let b = DeltaBudget::new(0.05).unwrap();
        let partial: f64 = (1..=100_000).map(|k| b.optstop_round(k)).sum();
        assert!(partial < 0.05);
        assert!(partial > 0.05 * 0.9999);
    }

    #[test]
    fn optstop_round_decreases_quadratically() {
        let b = DeltaBudget::new(0.1).unwrap();
        let r1 = b.optstop_round(1);
        let r2 = b.optstop_round(2);
        let r10 = b.optstop_round(10);
        assert!((r1 / r2 - 4.0).abs() < 1e-12);
        assert!((r1 / r10 - 100.0).abs() < 1e-9);
    }

    #[test]
    fn optstop_round_zero_treated_as_one() {
        let b = DeltaBudget::new(0.1).unwrap();
        assert_eq!(b.optstop_round(0), b.optstop_round(1));
    }
}

//! # fastframe-core
//!
//! Sample-size-independent (SSI) error bounders for approximate aggregation,
//! reproducing the statistical core of *“Rapid Approximate Aggregation with
//! Distribution-Sensitive Interval Guarantees”* (Macke et al., ICDE 2021).
//!
//! An **error bounder** consumes a uniform *without-replacement* sample from a
//! finite dataset `D` whose values are known to lie in a range `[a, b]`, and
//! returns a confidence interval `[g_l, g_r]` that encloses `AVG(D)` with
//! probability at least `1 − δ` — for *any* finite sample size, not just
//! asymptotically.
//!
//! The crate provides:
//!
//! * three bounders —
//!   [`HoeffdingSerfling`] (Algorithm 1),
//!   [`EmpiricalBernsteinSerfling`] (Algorithm 2) and
//!   [`AndersonDkw`] (Algorithm 3);
//! * the paper's primary contribution, RangeTrim ([`range_trim`],
//!   Algorithms 4 & 6), which removes *phantom outlier sensitivity* (PHOS)
//!   from each of them;
//! * one [`Estimator`] for every configuration, chosen at runtime by
//!   [`BounderKind`] ([`BounderKind::make_estimator`]), and the flat record
//!   the query engine accumulates, merges and bounds for the constant-memory
//!   kinds ([`partial`]);
//! * the [`OptStop`](optstop) optional-stopping machinery (Algorithm 5) and the
//!   stopping conditions Ê–Ï of §4.2 ([`stopping`]);
//! * confidence intervals for `COUNT` (selectivity bounds, Lemma 5) and `SUM`
//!   (§4.1), including the unknown-dataset-size bound `N⁺` of Theorem 3
//!   ([`count`], [`sum`]);
//! * programmatic PMA / PHOS pathology probes reproducing Table 2
//!   ([`pathology`]).
//!
//! Every bounder takes its range `[a, b]` as given. For an aggregate over an
//! expression of columns (Appendix B) the store derives it by interval
//! arithmetic (`fastframe_store::expr::Expr::range_bounds`).
//!
//! ## Quick example
//!
//! ```
//! use fastframe_core::prelude::*;
//!
//! // A without-replacement sample of 1000 values from a dataset of 1e6
//! // values known to fall in [0, 100].
//! let sample: Vec<f64> = (0..1000).map(|i| 40.0 + (i % 20) as f64).collect();
//!
//! let mut estimator = BounderKind::BernsteinRangeTrim.make_estimator();
//! estimator.observe_batch(&sample);
//! let ctx = BoundContext::new(0.0, 100.0, 1_000_000, 1e-10).unwrap();
//! let ci = estimator.interval(&ctx);
//! assert!(ci.lo <= ci.hi);
//! assert!(ci.lo >= 0.0 && ci.hi <= 100.0);
//! assert!(ci.contains(estimator.estimate().unwrap()));
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![deny(unsafe_code)]

pub mod anderson;
pub mod bernstein;
pub mod bounder;
pub mod count;
pub mod delta;
pub mod error;
pub mod hoeffding;
pub mod optstop;
pub mod partial;
pub mod pathology;
pub mod range_trim;
pub mod stopping;
pub mod sum;
pub mod variance;

pub use anderson::AndersonDkw;
pub use bernstein::EmpiricalBernsteinSerfling;
pub use bounder::{BoundContext, BounderKind, Ci, Estimator};
pub use count::{CountCi, SelectivityTracker};
pub use delta::DeltaBudget;
pub use error::{CoreError, CoreResult};
pub use hoeffding::HoeffdingSerfling;
pub use optstop::RunningInterval;
pub use partial::{FlatBounder, FlatMaster, FlatRecord};
pub use range_trim::FlatMoments;
pub use stopping::StoppingCondition;
pub use sum::sum_interval;
pub use variance::RunningMoments;

/// Convenience re-exports for downstream crates and examples.
pub mod prelude {
    pub use crate::anderson::AndersonDkw;
    pub use crate::bernstein::EmpiricalBernsteinSerfling;
    pub use crate::bounder::{BoundContext, BounderKind, Ci, Estimator};
    pub use crate::count::{CountCi, SelectivityTracker};
    pub use crate::delta::DeltaBudget;
    pub use crate::error::{CoreError, CoreResult};
    pub use crate::hoeffding::HoeffdingSerfling;
    pub use crate::optstop::RunningInterval;
    pub use crate::partial::{FlatBounder, FlatMaster, FlatRecord};
    pub use crate::range_trim::FlatMoments;
    pub use crate::stopping::StoppingCondition;
    pub use crate::sum::sum_interval;
    pub use crate::variance::RunningMoments;
}

/// The error probability used throughout the paper's evaluation (§5.2).
///
/// With `δ = 1e-15`, a failure of the confidence-interval guarantee is
/// effectively impossible over any practical number of queries, so results of
/// approximate queries can be treated as deterministic by downstream
/// consumers.
pub const PAPER_DELTA: f64 = 1e-15;

//! # fastframe-engine
//!
//! The FastFrame approximate-aggregation engine: early-terminating `AVG` /
//! `SUM` / `COUNT` queries with sample-size-independent confidence
//! intervals, over the sampling-optimized column store of `fastframe-store`
//! and the error bounders of `fastframe-core`.
//!
//! Reproduces the system side of *“Rapid Approximate Aggregation with
//! Distribution-Sensitive Interval Guarantees”* (Macke et al., ICDE 2021):
//!
//! * the OptStop sampling loop with per-round δ decay (Algorithm 5),
//! * per-aggregate-view error bounders with unknown-dataset-size handling
//!   (Lemma 5, Theorem 3),
//! * the stopping conditions Ê–Ï of §4.2 and the matching active-group
//!   rules of §4.3,
//! * the three sampling strategies evaluated in §5 (`Scan`, `ActiveSync`,
//!   `ActivePeek` with one-batch-stale lookahead), and
//! * the `Exact` baseline, run as one full pass of the same scan pipeline.
//!
//! ## Entry point
//!
//! There is one public path, `Session → QueryBuilder → PreparedQuery`,
//! built around three pieces:
//!
//! 1. [`Session`] — a named catalog of scrambled tables (register/drop, per
//!    table block size & seed) plus shared [`EngineConfig`] defaults;
//! 2. the fluent [`QueryBuilder`] reached via [`Session::query`], which
//!    type-checks every clause against the catalog *at build time*;
//! 3. [`ProgressiveResult`] — per-round [`Snapshot`]s of every group's
//!    running confidence interval, with first-class cancellation via
//!    [`Budget`] (row cap, round cap, wall-clock deadline), so callers can
//!    render online-aggregation UIs or stop early with a valid answer.
//!
//! Every execution is a method of [`PreparedQuery`]. [`Session::prepare`]
//! prepares a pre-built [`AggQuery`], and [`PreparedQuery::new`] prepares
//! one over any `BlockSource`; like [`QueryBuilder::build`], both check the
//! query and the [`EngineConfig`] through that one constructor, and every
//! execution method checks the configuration again before it scans.
//!
//! Tables persist across process runs: [`Session::save_table`] writes a
//! registered scramble to a checksummed columnar segment file and
//! [`Session::open_table`] re-serves it lazily (blocks decode on demand via
//! the `BlockSource` abstraction), with bit-identical query results either
//! way.
//!
//! ```
//! use fastframe_engine::prelude::*;
//! use fastframe_store::prelude::*;
//!
//! let table = Table::new(vec![
//!     Column::float("delay", (0..2_000).map(|i| (i % 30) as f64).collect()),
//!     Column::categorical("airline", &(0..2_000).map(|i| format!("A{}", i % 3)).collect::<Vec<_>>()),
//! ]).unwrap();
//!
//! let mut session = Session::new();
//! session.register("flights", &table).unwrap();
//!
//! // Blocking execution (drains the progressive stream).
//! let result = session.query("flights")
//!     .avg(Expr::col("delay"))
//!     .group_by("airline")
//!     .having_gt(10.0)
//!     .execute().unwrap();
//! assert_eq!(result.groups.len(), 3);
//!
//! // Progressive execution with a cancellation budget.
//! let progressive = session.query("flights")
//!     .avg(Expr::col("delay"))
//!     .group_by("airline")
//!     .absolute_width(0.0)              // never satisfiable...
//!     .budget(Budget::unlimited().max_rows(500))  // ...so the budget stops it
//!     .progressive().unwrap();
//! assert!(progressive.cancelled());
//! assert!(!progressive.converged());   // a valid, merely unconverged answer
//! ```
//!
//! [`PreparedQuery::execute_exact`] runs the `Exact` baseline of §5.2
//! through the same batch scan pipeline as approximate execution: a first
//! round that seeds every view, then one round over every other block,
//! finalized as a full pass. Rows are scanned in exactly
//! one place, so approximate and exact answers see the same rows through
//! the same kernels.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![warn(unreachable_pub)]
#![deny(unsafe_code)]

pub mod config;
pub mod error;
pub(crate) mod executor;
pub mod metrics;
pub(crate) mod parallel;
pub mod progressive;
pub mod query;
pub mod result;
pub(crate) mod sampling;
pub mod session;
pub(crate) mod view;

pub use config::{EngineConfig, EngineConfigBuilder, SamplingStrategy};
pub use error::{EngineError, EngineResult};
pub use metrics::{ExecMetrics, QueryMetrics};
pub use progressive::{
    Budget, CancellationReason, GroupProgress, ProgressiveResult, RoundControl, Snapshot,
};
pub use query::{AggQuery, AggQueryBuilder, AggregateFunction, CmpOp, HavingClause, OrderLimit};
pub use result::{GroupKey, GroupResult, QueryResult};
pub use session::{PreparedQuery, QueryBuilder, Session, TableOptions};

/// Convenience re-exports for downstream crates and examples.
pub mod prelude {
    pub use crate::config::{EngineConfig, EngineConfigBuilder, SamplingStrategy};
    pub use crate::error::{EngineError, EngineResult};
    pub use crate::metrics::{ExecMetrics, QueryMetrics};
    pub use crate::progressive::{
        Budget, CancellationReason, GroupProgress, ProgressiveResult, RoundControl, Snapshot,
    };
    pub use crate::query::{
        AggQuery, AggQueryBuilder, AggregateFunction, CmpOp, HavingClause, OrderLimit,
    };
    pub use crate::result::{GroupKey, GroupResult, QueryResult};
    pub use crate::session::{PreparedQuery, QueryBuilder, Session, TableOptions};
    pub use fastframe_core::bounder::BounderKind;
    pub use fastframe_core::stopping::StoppingCondition;
    pub use fastframe_store::expr::Expr;
    pub use fastframe_store::predicate::Predicate;
}

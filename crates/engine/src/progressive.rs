//! Progressive execution: per-round result snapshots and cancellation
//! budgets.
//!
//! OptStop's defining property (Algorithm 5) is that it produces a *valid*
//! confidence interval after **every** round, not just at termination. The
//! types in this module surface that property through the public API:
//!
//! * [`Snapshot`] — the per-group state (point estimate + running CI + sample
//!   counts) at the end of one OptStop round;
//! * [`Budget`] — first-class cancellation: cap the rows scanned, the number
//!   of rounds, or the wall-clock time, and the engine stops early with a
//!   valid (merely unconverged) answer instead of an error;
//! * [`RoundControl`] — the verdict a streaming observer returns after each
//!   round, letting callers stop interactively (e.g. when the user navigates
//!   away from an online-aggregation UI);
//! * [`ProgressiveResult`] — the full outcome: every round snapshot, the
//!   finalized [`QueryResult`], and the cancellation reason (if any).
//!
//! Entry points are [`crate::session::PreparedQuery::stream`] (callback per
//! round) and [`crate::session::PreparedQuery::progressive`] (collect all
//! rounds); the blocking `execute` simply drains the same stream.
//!
//! Snapshots are produced from the **merged** state of the partitioned scan
//! pipeline: each round's blocks are scanned by a worker pool
//! ([`EngineConfig::threads`](crate::config::EngineConfig)) and the
//! per-partition partials are folded back in block-id order before the
//! round's intervals are recomputed. Every snapshot — estimates, CI bounds,
//! group order, `rows_scanned` — is therefore bit-for-bit identical at any
//! thread count. Budget caps compose with concurrency the same way:
//! `max_rows` is enforced when blocks are granted to a round (before any
//! worker sees them), and a deadline or observer stop finalizes the state
//! of the last fully-merged round.

use std::sync::Arc;
use std::time::Duration;

use fastframe_core::bounder::Ci;

use crate::result::{GroupKey, QueryResult};

/// Resource caps for one query execution. An exceeded cap cancels the scan
/// and finalizes the current (valid, unconverged) approximation state — it
/// never produces an error.
///
/// ```
/// use std::time::Duration;
/// use fastframe_engine::progressive::Budget;
///
/// let budget = Budget::unlimited()
///     .max_rows(100_000)
///     .max_rounds(16)
///     .deadline(Duration::from_millis(250));
/// assert_eq!(budget.max_rows, Some(100_000));
/// assert_eq!(budget.max_rounds, Some(16));
/// assert_eq!(budget.deadline, Some(Duration::from_millis(250)));
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Budget {
    /// Cap on rows read from fetched blocks. Enforced when blocks are
    /// *granted* to a round — before any scan worker sees them — so the cap
    /// is never exceeded at any thread count; blocks already granted under
    /// the cap are still scanned so the final answer uses every row the
    /// budget paid for.
    pub max_rows: Option<u64>,
    /// Cap on completed OptStop rounds (CI recomputations). A round spans
    /// [`EngineConfig::round_rows`](crate::config::EngineConfig::round_rows)
    /// rows, except that a query with more than 100 views grows its rounds
    /// after the first, up to `⌈views / 100⌉ · round_rows` rows a round.
    pub max_rounds: Option<u64>,
    /// Wall-clock deadline, measured from the start of execution. Checked at
    /// batch boundaries and after every round.
    pub deadline: Option<Duration>,
}

impl Budget {
    /// A budget with no caps: the query runs until its stopping condition is
    /// satisfied or the scramble is exhausted.
    pub fn unlimited() -> Self {
        Self::default()
    }

    /// Caps the number of rows read from fetched blocks.
    pub fn max_rows(mut self, rows: u64) -> Self {
        self.max_rows = Some(rows);
        self
    }

    /// Caps the number of completed OptStop rounds.
    pub fn max_rounds(mut self, rounds: u64) -> Self {
        self.max_rounds = Some(rounds);
        self
    }

    /// Sets a wall-clock deadline for the scan.
    pub fn deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }
}

/// Why a progressive execution stopped before its stopping condition was
/// satisfied and before the scramble was exhausted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CancellationReason {
    /// [`Budget::max_rows`] would have been exceeded by the next block.
    RowBudget,
    /// [`Budget::max_rounds`] rounds completed.
    RoundBudget,
    /// [`Budget::deadline`] passed.
    Deadline,
    /// The streaming observer returned [`RoundControl::Stop`].
    Caller,
}

impl std::fmt::Display for CancellationReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            CancellationReason::RowBudget => "row budget exhausted",
            CancellationReason::RoundBudget => "round budget exhausted",
            CancellationReason::Deadline => "deadline passed",
            CancellationReason::Caller => "cancelled by caller",
        })
    }
}

/// The verdict a per-round observer returns: keep scanning or stop now.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RoundControl {
    /// Continue with the next round.
    #[default]
    Continue,
    /// Stop scanning; the engine finalizes the current state.
    Stop,
}

/// One group's approximation state inside a [`Snapshot`].
#[derive(Debug, Clone, PartialEq)]
pub struct GroupProgress {
    /// Group identity. The engine builds each group's key once per query,
    /// so every round's snapshot shares the same `Arc` (compare with
    /// [`Arc::ptr_eq`]) instead of copying its codes and labels. It derefs
    /// to the [`GroupKey`].
    pub key: Arc<GroupKey>,
    /// Point estimate of the group's aggregate at this round (the interval
    /// midpoint when no row has contributed yet).
    pub estimate: f64,
    /// Running `(1 − δ)` confidence interval — monotonically non-widening
    /// across rounds.
    pub ci: Ci,
    /// Rows that have contributed to this group so far.
    pub samples: u64,
}

/// The per-round state of a progressive execution: every group's estimate and
/// running confidence interval, plus scan-progress counters.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    /// 1-based OptStop round number.
    pub round: u64,
    /// Rows read from fetched blocks so far.
    pub rows_scanned: u64,
    /// Blocks fetched so far.
    pub blocks_fetched: u64,
    /// Wall-clock time since execution started.
    pub elapsed: Duration,
    /// Whether the query's stopping condition was satisfied at this round
    /// (always `true` on the last snapshot of a converged run).
    pub converged: bool,
    /// Per-group states, in group-discovery order.
    pub groups: Vec<GroupProgress>,
}

impl Snapshot {
    /// The single group of an ungrouped query.
    pub fn global(&self) -> Option<&GroupProgress> {
        self.groups.first()
    }

    /// The state of the group identified by `key`, if present.
    pub fn group(&self, key: &GroupKey) -> Option<&GroupProgress> {
        self.groups.iter().find(|g| *g.key == *key)
    }

    /// The widest confidence interval across groups — the quantity most
    /// stopping conditions are driving down.
    pub fn max_ci_width(&self) -> f64 {
        self.groups.iter().map(|g| g.ci.width()).fold(0.0, f64::max)
    }
}

/// The outcome of a progressive execution: all per-round snapshots, the
/// finalized result, and the cancellation reason when a [`Budget`] cap or the
/// observer stopped the scan early.
///
/// A cancelled execution is *not* an error: `result` holds a valid
/// approximation of every group (with `converged == false`), exactly as if
/// the stopping condition simply had not been reached yet.
#[derive(Debug, Clone)]
pub struct ProgressiveResult {
    /// Every round's snapshot, in execution order.
    pub snapshots: Vec<Snapshot>,
    /// The finalized query result (possibly unconverged).
    pub result: QueryResult,
    /// Why the scan was cancelled, if it was.
    pub cancellation: Option<CancellationReason>,
}

impl ProgressiveResult {
    /// Whether the stopping condition was satisfied.
    pub fn converged(&self) -> bool {
        self.result.converged
    }

    /// Whether a budget cap or the observer stopped the scan early.
    pub fn cancelled(&self) -> bool {
        self.cancellation.is_some()
    }

    /// Number of completed OptStop rounds with snapshots.
    pub fn rounds(&self) -> usize {
        self.snapshots.len()
    }

    /// The last round's snapshot, if any round completed.
    pub fn last(&self) -> Option<&Snapshot> {
        self.snapshots.last()
    }

    /// Iterates over the per-round snapshots.
    pub fn iter(&self) -> std::slice::Iter<'_, Snapshot> {
        self.snapshots.iter()
    }

    /// Discards the snapshots and returns the finalized result — the
    /// "blocking execute" view of a progressive run.
    pub fn into_result(self) -> QueryResult {
        self.result
    }
}

impl<'a> IntoIterator for &'a ProgressiveResult {
    type Item = &'a Snapshot;
    type IntoIter = std::slice::Iter<'a, Snapshot>;

    fn into_iter(self) -> Self::IntoIter {
        self.snapshots.iter()
    }
}

impl IntoIterator for ProgressiveResult {
    type Item = Snapshot;
    type IntoIter = std::vec::IntoIter<Snapshot>;

    fn into_iter(self) -> Self::IntoIter {
        self.snapshots.into_iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::QueryMetrics;

    #[test]
    fn budget_builder_and_unlimited() {
        let unlimited = Budget::unlimited();
        assert_eq!(
            (unlimited.max_rows, unlimited.max_rounds, unlimited.deadline),
            (None, None, None)
        );
        let b = Budget::unlimited().max_rows(10).max_rounds(2);
        assert_eq!(b.max_rows, Some(10));
        assert_eq!(b.max_rounds, Some(2));
        assert!(b.deadline.is_none());
        assert_ne!(b, Budget::unlimited());
        assert_ne!(
            Budget::unlimited().deadline(Duration::from_secs(1)),
            Budget::unlimited()
        );
    }

    #[test]
    fn cancellation_reason_display() {
        assert!(CancellationReason::RowBudget.to_string().contains("row"));
        assert!(CancellationReason::RoundBudget
            .to_string()
            .contains("round"));
        assert!(CancellationReason::Deadline
            .to_string()
            .contains("deadline"));
        assert!(CancellationReason::Caller.to_string().contains("caller"));
    }

    fn snapshot(widths: &[f64]) -> Snapshot {
        Snapshot {
            round: 1,
            rows_scanned: 100,
            blocks_fetched: 4,
            elapsed: Duration::from_millis(1),
            converged: false,
            groups: widths
                .iter()
                .enumerate()
                .map(|(i, &w)| GroupProgress {
                    key: Arc::new(GroupKey {
                        codes: vec![i as u32],
                        labels: vec![format!("g{i}")],
                    }),
                    estimate: 0.0,
                    ci: Ci::new(-w / 2.0, w / 2.0),
                    samples: 10,
                })
                .collect(),
        }
    }

    #[test]
    fn snapshot_accessors() {
        let s = snapshot(&[4.0, 10.0, 6.0]);
        assert_eq!(s.global().unwrap().key.labels, vec!["g0".to_string()]);
        assert_eq!(s.max_ci_width(), 10.0);
        let key = GroupKey {
            codes: vec![2],
            labels: vec!["g2".into()],
        };
        assert_eq!(s.group(&key).unwrap().ci.width(), 6.0);
        assert!(s.group(&GroupKey::global()).is_none());
    }

    #[test]
    fn progressive_result_accessors_and_iteration() {
        let result = QueryResult {
            query_name: "q".into(),
            groups: Vec::new(),
            selected: Vec::new(),
            converged: false,
            metrics: QueryMetrics::default(),
        };
        let p = ProgressiveResult {
            snapshots: vec![snapshot(&[4.0]), snapshot(&[2.0])],
            result,
            cancellation: Some(CancellationReason::RowBudget),
        };
        assert!(!p.converged());
        assert!(p.cancelled());
        assert_eq!(p.rounds(), 2);
        assert_eq!(p.last().unwrap().max_ci_width(), 2.0);
        assert_eq!(p.iter().count(), 2);
        assert_eq!((&p).into_iter().count(), 2);
        let drained: Vec<Snapshot> = p.into_iter().collect();
        assert_eq!(drained.len(), 2);
    }
}

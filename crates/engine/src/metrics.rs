//! Per-query execution metrics.

use std::time::Duration;

use fastframe_store::stats::ScanStats;

/// Counters accumulated by one scan worker over the partitions it processed,
/// merged race-free into the query totals at round end.
///
/// The parallel pipeline gives every worker its own `ExecMetrics` per
/// partition — no counter is ever shared between threads, so there are no
/// atomics on the row loop and no lost updates. The per-partition values are
/// folded back with [`ExecMetrics::merge`] on the coordinating thread, in
/// deterministic partition order, at the same point the aggregate partials
/// are merged. For a correctly merged execution the fetch and match totals
/// here agree exactly with the storage-level [`ScanStats`] — the end-to-end
/// tests assert that invariant. `rows_selected` is counted here only.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecMetrics {
    /// Blocks whose rows were read by scan workers.
    pub blocks_fetched: u64,
    /// Rows read out of fetched blocks.
    pub rows_scanned: u64,
    /// Rows that matched the predicate and were routed to an aggregate view.
    pub rows_matched: u64,
    /// Rows that survived the predicate filter, before group routing — the
    /// summed selection-vector lengths. Always `>= rows_matched`
    /// (selected rows whose group is absent or whose target expression has
    /// no value do not match) and `<= rows_scanned` — the decoded-vs-
    /// selected funnel of the batch pipeline. Only the workers can count
    /// it, so it has no storage-level twin.
    pub rows_selected: u64,
    /// Scan partitions processed (one partial state each).
    pub partitions: u64,
}

impl ExecMetrics {
    /// Records that a block of `rows` rows was fetched and scanned.
    #[inline]
    pub fn record_block(&mut self, rows: u64) {
        self.blocks_fetched += 1;
        self.rows_scanned += rows;
    }

    /// Records rows routed to an aggregate view.
    #[inline]
    pub fn record_matches(&mut self, rows: u64) {
        self.rows_matched += rows;
    }

    /// Records rows that survived the predicate filter.
    #[inline]
    pub fn record_selected(&mut self, rows: u64) {
        self.rows_selected += rows;
    }

    /// Folds another worker's counters into this one (round-end merge).
    pub fn merge(&mut self, other: &ExecMetrics) {
        self.blocks_fetched += other.blocks_fetched;
        self.rows_scanned += other.rows_scanned;
        self.rows_matched += other.rows_matched;
        self.rows_selected += other.rows_selected;
        self.partitions += other.partitions;
    }
}

/// Metrics collected while executing one query, mirroring §5.3's measurement
/// methodology (wall-clock time and blocks fetched).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct QueryMetrics {
    /// End-to-end wall-clock time.
    pub wall_time: Duration,
    /// Storage-level counters (blocks fetched / skipped, rows scanned, ...).
    pub scan: ScanStats,
    /// Worker-side execution counters, merged per round from the parallel
    /// scan pipeline. For a consistent execution the fetch and match totals
    /// match the corresponding [`ScanStats`] fields.
    pub exec: ExecMetrics,
    /// Number of scan threads the pipeline ran with.
    pub threads: usize,
    /// Rows that contributed to at least one aggregate view.
    pub rows_sampled: u64,
    /// OptStop rounds executed (CI recomputations).
    pub rounds: u64,
    /// Whether the query terminated before exhausting the scramble.
    pub stopped_early: bool,
}

impl QueryMetrics {
    /// Blocks fetched — the paper's hardware-independent cost metric.
    pub fn blocks_fetched(&self) -> u64 {
        self.scan.blocks_fetched
    }

    /// Rows decoded out of fetched blocks (the top of the selection funnel).
    pub fn rows_decoded(&self) -> u64 {
        self.scan.rows_scanned
    }

    /// Rows that survived the predicate filter (the middle of the funnel;
    /// `rows_sampled` — rows routed to a view — is the bottom).
    pub fn rows_selected(&self) -> u64 {
        self.exec.rows_selected
    }

    /// Speedup of this execution relative to a baseline, by wall time.
    pub fn speedup_over(&self, baseline: &QueryMetrics) -> f64 {
        let own = self.wall_time.as_secs_f64();
        if own <= 0.0 {
            return f64::INFINITY;
        }
        baseline.wall_time.as_secs_f64() / own
    }

    /// Speedup of this execution relative to a baseline, by blocks fetched.
    pub fn block_speedup_over(&self, baseline: &QueryMetrics) -> f64 {
        if self.scan.blocks_fetched == 0 {
            return f64::INFINITY;
        }
        baseline.scan.blocks_fetched as f64 / self.scan.blocks_fetched as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn speedups() {
        let mut fast = QueryMetrics {
            wall_time: Duration::from_millis(10),
            ..Default::default()
        };
        fast.scan.blocks_fetched = 100;
        let mut slow = QueryMetrics {
            wall_time: Duration::from_millis(1000),
            ..Default::default()
        };
        slow.scan.blocks_fetched = 5000;
        assert!((fast.speedup_over(&slow) - 100.0).abs() < 1e-9);
        assert!((fast.block_speedup_over(&slow) - 50.0).abs() < 1e-9);
        assert_eq!(fast.blocks_fetched(), 100);
    }

    #[test]
    fn exec_metrics_accumulate_and_merge() {
        let mut a = ExecMetrics::default();
        a.record_block(25);
        a.record_block(25);
        a.record_matches(7);
        a.partitions += 1;
        let mut b = ExecMetrics::default();
        b.record_block(10);
        b.record_matches(3);
        b.partitions += 1;
        a.merge(&b);
        assert_eq!(a.blocks_fetched, 3);
        assert_eq!(a.rows_scanned, 60);
        assert_eq!(a.rows_matched, 10);
        assert_eq!(a.partitions, 2);
    }

    #[test]
    fn zero_cost_reports_infinite_speedup() {
        let zero = QueryMetrics::default();
        let mut other = QueryMetrics {
            wall_time: Duration::from_millis(5),
            ..Default::default()
        };
        other.scan.blocks_fetched = 10;
        assert!(zero.speedup_over(&other).is_infinite());
        assert!(zero.block_speedup_over(&other).is_infinite());
    }
}

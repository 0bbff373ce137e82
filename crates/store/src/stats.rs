//! Scan instrumentation counters.
//!
//! The paper's evaluation decouples algorithmic cost from CPU effects by
//! reporting the number of **blocks fetched** from main memory (§5.3).
//! [`ScanStats`] tracks that number plus a few auxiliary counters that the
//! benchmark harness and tests use to validate skipping behaviour.

/// Counters accumulated while executing one query.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScanStats {
    /// Blocks whose rows were actually read (the paper's headline cost
    /// metric).
    pub blocks_fetched: u64,
    /// Blocks skipped thanks to the block bitmap index (active scanning).
    pub blocks_skipped: u64,
    /// Individual rows read out of fetched blocks.
    pub rows_scanned: u64,
    /// Rows that satisfied the query predicate (i.e. contributed to some
    /// aggregate view).
    pub rows_matched: u64,
    /// Index work done by the block planner: 64-block bitmap words examined
    /// (predicate and GROUP BY bitmaps) plus zone-map tests.
    pub index_checks: u64,
}

impl ScanStats {
    /// Creates zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records that a block was fetched and `rows` of it were scanned.
    #[inline]
    pub fn record_fetch(&mut self, rows: u64) {
        self.blocks_fetched += 1;
        self.rows_scanned += rows;
    }

    /// Records that a block was skipped without being read.
    #[inline]
    pub fn record_skip(&mut self) {
        self.blocks_skipped += 1;
    }

    /// Records predicate matches.
    #[inline]
    pub fn record_matches(&mut self, rows: u64) {
        self.rows_matched += rows;
    }

    /// Records index work: bitmap words examined plus zone-map tests.
    #[inline]
    pub fn record_index_checks(&mut self, checks: u64) {
        self.index_checks += checks;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let mut s = ScanStats::new();
        s.record_fetch(25);
        s.record_fetch(25);
        s.record_skip();
        s.record_matches(13);
        s.record_index_checks(3);
        assert_eq!(s.blocks_fetched, 2);
        assert_eq!(s.blocks_skipped, 1);
        assert_eq!(s.rows_scanned, 50);
        assert_eq!(s.rows_matched, 13);
        assert_eq!(s.index_checks, 3);
    }

    #[test]
    fn default_is_zeroed() {
        assert_eq!(ScanStats::default(), ScanStats::new());
    }
}

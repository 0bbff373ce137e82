//! Engine configuration: bounder selection, sampling strategy, error budget
//! and round sizing.

use fastframe_core::bounder::BounderKind;
use fastframe_core::delta::DEFAULT_ALPHA;
use fastframe_core::optstop::DEFAULT_ROUND_SIZE;
use fastframe_core::PAPER_DELTA;
use fastframe_store::block::DEFAULT_LOOKAHEAD_BATCH;

/// How blocks of the scramble are selected for processing (§4.3, §5.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SamplingStrategy {
    /// Sequential scan of the scramble. Bitmaps may still be used to skip
    /// blocks that cannot satisfy a fixed categorical predicate, but no
    /// group-level prioritization happens.
    Scan,
    /// Active scanning with synchronous per-block bitmap checks: blocks
    /// containing no rows of any active group are skipped, but each check is
    /// performed inline (incurring the index-lookup latency on the critical
    /// path).
    ActiveSync,
    /// Active scanning with asynchronous lookahead: a separate worker marks
    /// batches of blocks for processing or skipping using the bitmap index,
    /// off the critical path (§4.3).
    ActivePeek,
}

impl SamplingStrategy {
    /// All strategies, in the order used by Table 6.
    pub const ALL: [SamplingStrategy; 3] = [
        SamplingStrategy::Scan,
        SamplingStrategy::ActiveSync,
        SamplingStrategy::ActivePeek,
    ];

    /// Label used in benchmark tables.
    pub fn label(&self) -> &'static str {
        match self {
            SamplingStrategy::Scan => "Scan",
            SamplingStrategy::ActiveSync => "ActiveSync",
            SamplingStrategy::ActivePeek => "ActivePeek",
        }
    }
}

impl std::fmt::Display for SamplingStrategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Configuration of one approximate query execution.
///
/// Construct via [`EngineConfig::default`], [`EngineConfig::with_bounder`],
/// or the derived builder ([`EngineConfig::builder`]); tweak an existing
/// configuration with [`EngineConfig::to_builder`]. The struct is
/// `#[non_exhaustive]`: new knobs can be added without breaking downstream
/// construction sites.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct EngineConfig {
    /// Which error bounder to use for AVG confidence intervals.
    pub bounder: BounderKind,
    /// Which sampling strategy to use.
    pub strategy: SamplingStrategy,
    /// Total error probability budget for the query (δ). The paper uses
    /// `1e-15` throughout its evaluation.
    pub delta: f64,
    /// Theorem 3's α: fraction of each view's budget spent on the mean CI
    /// versus the dataset-size upper bound (paper: 0.99).
    pub alpha: f64,
    /// Number of sampled rows per OptStop round (B in Algorithm 5; paper:
    /// 40 000). CIs are recomputed after roughly this many rows have been
    /// read from fetched blocks.
    pub round_rows: u64,
    /// Lookahead batch size in blocks for `ActivePeek` (paper: 1024).
    pub lookahead_batch: usize,
    /// Starting block of the scan. `None` picks a pseudo-random start from
    /// `seed` ("each approximate query was started from a random position in
    /// the shuffled data", §5.2).
    pub start_block: Option<usize>,
    /// Seed used to pick the starting block when `start_block` is `None`.
    pub seed: u64,
    /// Number of scan worker threads for the partitioned scan/aggregation
    /// pipeline. `0` (the default) resolves at execution time to the
    /// `FASTFRAME_THREADS` environment variable if set, otherwise to the
    /// machine's available parallelism — see
    /// [`EngineConfig::effective_threads`].
    ///
    /// The thread count never changes query *results*: each round's block
    /// list is partitioned independently of the thread count and per-worker
    /// partial states are merged in block-id order, so estimates, variances
    /// and CI bounds are bit-for-bit identical at any setting.
    pub threads: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self {
            bounder: BounderKind::BernsteinRangeTrim,
            strategy: SamplingStrategy::ActivePeek,
            delta: PAPER_DELTA,
            alpha: DEFAULT_ALPHA,
            round_rows: DEFAULT_ROUND_SIZE,
            lookahead_batch: DEFAULT_LOOKAHEAD_BATCH,
            start_block: None,
            seed: 0x5eed,
            threads: 0,
        }
    }
}

impl EngineConfig {
    /// Configuration matching the paper's defaults but with the given bounder.
    pub fn with_bounder(bounder: BounderKind) -> Self {
        Self {
            bounder,
            ..Self::default()
        }
    }

    /// Starts a builder from the paper defaults.
    ///
    /// ```
    /// use fastframe_engine::config::{EngineConfig, SamplingStrategy};
    ///
    /// let config = EngineConfig::builder()
    ///     .delta(0.05)
    ///     .strategy(SamplingStrategy::ActivePeek)
    ///     .round_rows(10_000)
    ///     .build();
    /// assert_eq!(config.delta, 0.05);
    /// ```
    #[must_use = "the builder does nothing until `build` is called"]
    pub fn builder() -> EngineConfigBuilder {
        EngineConfigBuilder {
            config: Self::default(),
        }
    }

    /// Starts a builder from this configuration — the idiom for per-query
    /// overrides on top of session defaults.
    #[must_use = "the builder does nothing until `build` is called"]
    pub fn to_builder(&self) -> EngineConfigBuilder {
        EngineConfigBuilder {
            config: self.clone(),
        }
    }

    /// Sets the sampling strategy.
    #[must_use = "this returns the modified value; the receiver is consumed"]
    pub fn strategy(mut self, strategy: SamplingStrategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Sets the error budget.
    #[must_use = "this returns the modified value; the receiver is consumed"]
    pub fn delta(mut self, delta: f64) -> Self {
        self.delta = delta;
        self
    }

    /// Sets the OptStop round size (rows per round).
    #[must_use = "this returns the modified value; the receiver is consumed"]
    pub fn round_rows(mut self, rows: u64) -> Self {
        self.round_rows = rows;
        self
    }

    /// Sets a deterministic scan start block.
    #[must_use = "this returns the modified value; the receiver is consumed"]
    pub fn start_block(mut self, block: usize) -> Self {
        self.start_block = Some(block);
        self
    }

    /// Sets the seed used for the random scan start.
    #[must_use = "this returns the modified value; the receiver is consumed"]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the scan worker thread count (`0` = auto, see
    /// [`Self::effective_threads`]).
    #[must_use = "this returns the modified value; the receiver is consumed"]
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Resolves the effective scan thread count: an explicit
    /// [`Self::threads`] wins; otherwise the `FASTFRAME_THREADS` environment
    /// variable (if set to a positive integer); otherwise the machine's
    /// available parallelism. Always at least 1.
    pub fn effective_threads(&self) -> usize {
        if self.threads > 0 {
            return self.threads;
        }
        if let Some(n) = std::env::var("FASTFRAME_THREADS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|&n| n > 0)
        {
            return n;
        }
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    }
}

/// Derived builder for [`EngineConfig`].
///
/// Because `EngineConfig` is `#[non_exhaustive]`, downstream crates cannot
/// use struct-update syntax; the builder covers every knob instead. Obtain
/// one with [`EngineConfig::builder`] (paper defaults) or
/// [`EngineConfig::to_builder`] (override an existing configuration).
#[derive(Debug, Clone)]
#[must_use = "EngineConfigBuilder does nothing until `build` is called"]
pub struct EngineConfigBuilder {
    config: EngineConfig,
}

impl EngineConfigBuilder {
    /// Sets the error bounder.
    pub fn bounder(mut self, bounder: BounderKind) -> Self {
        self.config.bounder = bounder;
        self
    }

    /// Sets the sampling strategy.
    #[must_use = "this returns the modified value; the receiver is consumed"]
    pub fn strategy(mut self, strategy: SamplingStrategy) -> Self {
        self.config.strategy = strategy;
        self
    }

    /// Sets the total error probability budget δ.
    #[must_use = "this returns the modified value; the receiver is consumed"]
    pub fn delta(mut self, delta: f64) -> Self {
        self.config.delta = delta;
        self
    }

    /// Sets Theorem 3's α split between the `N⁺` bound and the mean CI.
    pub fn alpha(mut self, alpha: f64) -> Self {
        self.config.alpha = alpha;
        self
    }

    /// Sets the OptStop round size (rows per round).
    #[must_use = "this returns the modified value; the receiver is consumed"]
    pub fn round_rows(mut self, rows: u64) -> Self {
        self.config.round_rows = rows;
        self
    }

    /// Sets the `ActivePeek` lookahead batch size in blocks.
    pub fn lookahead_batch(mut self, blocks: usize) -> Self {
        self.config.lookahead_batch = blocks;
        self
    }

    /// Pins the scan start to a specific block (deterministic scans).
    #[must_use = "this returns the modified value; the receiver is consumed"]
    pub fn start_block(mut self, block: usize) -> Self {
        self.config.start_block = Some(block);
        self
    }

    /// Clears any pinned start block, restoring the seeded random start.
    pub fn random_start(mut self) -> Self {
        self.config.start_block = None;
        self
    }

    /// Sets the seed used for the random scan start.
    #[must_use = "this returns the modified value; the receiver is consumed"]
    pub fn seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self
    }

    /// Sets the scan worker thread count (`0` = auto, see
    /// [`EngineConfig::effective_threads`]).
    #[must_use = "this returns the modified value; the receiver is consumed"]
    pub fn threads(mut self, threads: usize) -> Self {
        self.config.threads = threads;
        self
    }

    /// Finalizes the configuration.
    pub fn build(self) -> EngineConfig {
        self.config
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = EngineConfig::default();
        assert_eq!(c.bounder, BounderKind::BernsteinRangeTrim);
        assert_eq!(c.strategy, SamplingStrategy::ActivePeek);
        assert_eq!(c.delta, 1e-15);
        assert_eq!(c.alpha, 0.99);
        assert_eq!(c.round_rows, 40_000);
        assert_eq!(c.lookahead_batch, 1024);
        assert!(c.start_block.is_none());
        assert_eq!(c.threads, 0, "threads default to auto");
        assert!(c.effective_threads() >= 1);
    }

    #[test]
    fn explicit_threads_override_auto_resolution() {
        let c = EngineConfig::builder().threads(3).build();
        assert_eq!(c.threads, 3);
        assert_eq!(c.effective_threads(), 3);
        let c = EngineConfig::default().threads(7);
        assert_eq!(c.effective_threads(), 7);
    }

    #[test]
    fn builder_methods() {
        let c = EngineConfig::with_bounder(BounderKind::Hoeffding)
            .strategy(SamplingStrategy::Scan)
            .delta(1e-6)
            .round_rows(1_000)
            .start_block(7)
            .seed(99);
        assert_eq!(c.bounder, BounderKind::Hoeffding);
        assert_eq!(c.strategy, SamplingStrategy::Scan);
        assert_eq!(c.delta, 1e-6);
        assert_eq!(c.round_rows, 1_000);
        assert_eq!(c.start_block, Some(7));
        assert_eq!(c.seed, 99);
    }

    #[test]
    fn derived_builder_covers_every_knob() {
        let c = EngineConfig::builder()
            .bounder(BounderKind::AndersonDkw)
            .strategy(SamplingStrategy::ActiveSync)
            .delta(0.05)
            .alpha(0.9)
            .round_rows(123)
            .lookahead_batch(64)
            .start_block(3)
            .seed(11)
            .threads(2)
            .build();
        assert_eq!(c.bounder, BounderKind::AndersonDkw);
        assert_eq!(c.strategy, SamplingStrategy::ActiveSync);
        assert_eq!(c.delta, 0.05);
        assert_eq!(c.alpha, 0.9);
        assert_eq!(c.round_rows, 123);
        assert_eq!(c.lookahead_batch, 64);
        assert_eq!(c.start_block, Some(3));
        assert_eq!(c.seed, 11);
        assert_eq!(c.threads, 2);
        let c2 = c.to_builder().random_start().build();
        assert_eq!(c2.start_block, None);
        assert_eq!(
            c2.delta, 0.05,
            "to_builder starts from the overridden config"
        );
    }

    #[test]
    fn strategy_labels() {
        assert_eq!(SamplingStrategy::Scan.label(), "Scan");
        assert_eq!(SamplingStrategy::ActiveSync.to_string(), "ActiveSync");
        assert_eq!(SamplingStrategy::ALL.len(), 3);
    }
}

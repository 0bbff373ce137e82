//! The FastFrame session: a named catalog of scrambles plus shared execution
//! defaults, queried through a fluent, catalog-checked [`QueryBuilder`].
//!
//! A [`Session`] owns any number of registered tables (each stored as a
//! [`Scramble`], built once and amortized over many queries) and the
//! [`EngineConfig`] defaults every query inherits unless overridden
//! per-query. Queries are phrased fluently:
//!
//! ```
//! use fastframe_engine::prelude::*;
//! use fastframe_store::prelude::*;
//!
//! let table = Table::new(vec![
//!     Column::float("delay", (0..1000).map(|i| (i % 30) as f64).collect()),
//!     Column::categorical("airline", &(0..1000).map(|i| format!("A{}", i % 3)).collect::<Vec<_>>()),
//! ]).unwrap();
//!
//! let mut session = Session::new();
//! session.register("flights", &table).unwrap();
//!
//! let result = session
//!     .query("flights")
//!     .avg(Expr::col("delay"))
//!     .group_by("airline")
//!     .having_gt(10.0)
//!     .execute()
//!     .unwrap();
//! assert_eq!(result.groups.len(), 3);
//! ```
//!
//! The builder *type-checks against the catalog at build time*: unknown
//! tables, unknown or mistyped columns, and non-categorical GROUP BY columns
//! are reported by [`QueryBuilder::build`] before any block is scanned.
//! Execution comes in three modes — blocking ([`PreparedQuery::execute`]),
//! snapshot-collecting ([`PreparedQuery::progressive`]) and streaming with
//! caller cancellation ([`PreparedQuery::stream`]) — all honouring a
//! [`Budget`].

use std::collections::BTreeMap;
use std::path::Path;

use fastframe_core::stopping::StoppingCondition;
use fastframe_store::block::DEFAULT_BLOCK_SIZE;
use fastframe_store::expr::Expr;
use fastframe_store::persist::{write_segment, SegmentReader};
use fastframe_store::predicate::Predicate;
use fastframe_store::scramble::Scramble;
use fastframe_store::source::BlockSource;
use fastframe_store::table::Table;

use crate::config::EngineConfig;
use crate::error::{EngineError, EngineResult};
use crate::executor::{bind_query, run, Pass, RoundObserver};
use crate::progressive::{Budget, ProgressiveResult, RoundControl, Snapshot};
use crate::query::{AggQuery, AggQueryBuilder, AggregateFunction};
use crate::result::QueryResult;

/// Per-table scramble construction options: permutation seed and block size.
/// The catalog records each numeric column's exact `[MIN, MAX]`.
#[derive(Debug, Clone, PartialEq, Eq)]
#[must_use = "TableOptions is a builder: pass it to `register_with` (dropping it does nothing)"]
pub struct TableOptions {
    /// Seed of the scramble permutation.
    pub seed: u64,
    /// Rows per block (the paper's default is 25).
    pub block_size: usize,
}

impl Default for TableOptions {
    fn default() -> Self {
        Self {
            seed: 0x5eed,
            block_size: DEFAULT_BLOCK_SIZE,
        }
    }
}

impl TableOptions {
    /// Sets the scramble permutation seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the block size in rows.
    pub fn block_size(mut self, block_size: usize) -> Self {
        self.block_size = block_size;
        self
    }
}

/// One registered table: either an in-memory scramble or a lazily-decoded
/// on-disk segment. Both serve the engine through [`BlockSource`], so every
/// query mode works identically against either backing.
#[derive(Debug, Clone)]
enum TableEntry {
    /// A fully resident scramble (registered via [`Session::register`]).
    Memory(Scramble),
    /// A segment opened from disk (registered via [`Session::open_table`]);
    /// blocks are decoded on demand, so the table may exceed RAM.
    Segment(SegmentReader),
}

impl TableEntry {
    fn source(&self) -> &dyn BlockSource {
        match self {
            TableEntry::Memory(s) => s,
            TableEntry::Segment(r) => r,
        }
    }
}

/// A multi-table FastFrame session: a named catalog of scrambles (in-memory
/// or segment-backed) and shared [`EngineConfig`] defaults with per-query
/// overrides.
#[derive(Debug, Clone, Default)]
pub struct Session {
    tables: BTreeMap<String, TableEntry>,
    defaults: EngineConfig,
}

impl Session {
    /// An empty session with the paper-default [`EngineConfig`].
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty session whose queries inherit `defaults` unless overridden.
    pub fn with_defaults(defaults: EngineConfig) -> Self {
        Self {
            tables: BTreeMap::new(),
            defaults,
        }
    }

    /// The session-wide execution defaults.
    pub fn defaults(&self) -> &EngineConfig {
        &self.defaults
    }

    /// Replaces the session-wide execution defaults.
    pub fn set_defaults(&mut self, defaults: EngineConfig) {
        self.defaults = defaults;
    }

    /// Registers `table` under `name` with [`TableOptions::default`],
    /// scrambling it eagerly (the one-time cost amortized over all queries).
    pub fn register(&mut self, name: impl Into<String>, table: &Table) -> EngineResult<()> {
        self.register_with(name, table, TableOptions::default())
    }

    /// Registers `table` under `name` with explicit scramble options.
    ///
    /// # Errors
    ///
    /// [`EngineError::DuplicateTable`] for a name already in use, and
    /// [`EngineError::NonFiniteValue`] when a float column holds a NaN or
    /// an infinity (found by the scramble's catalog pass, so the check
    /// costs no extra pass over the data).
    pub fn register_with(
        &mut self,
        name: impl Into<String>,
        table: &Table,
        options: TableOptions,
    ) -> EngineResult<()> {
        let name = name.into();
        // Reject duplicates before paying the O(n) scramble-build cost.
        if self.tables.contains_key(&name) {
            return Err(EngineError::DuplicateTable { name });
        }
        let scramble = Scramble::build_with(table, options.seed, options.block_size)?;
        self.register_scramble(name, scramble)
    }

    /// Registers a pre-built scramble under `name`.
    ///
    /// # Errors
    ///
    /// As [`Session::register_with`]: a duplicate name, or a non-finite
    /// float value noted by the scramble's catalog.
    pub fn register_scramble(
        &mut self,
        name: impl Into<String>,
        scramble: Scramble,
    ) -> EngineResult<()> {
        let name = name.into();
        if self.tables.contains_key(&name) {
            return Err(EngineError::DuplicateTable { name });
        }
        if let Some((column, row)) = scramble.catalog().first_non_finite() {
            return Err(EngineError::NonFiniteValue {
                column: column.to_string(),
                row,
            });
        }
        self.tables.insert(name, TableEntry::Memory(scramble));
        Ok(())
    }

    /// Opens a scramble segment file (written by [`Session::save_table`] or
    /// [`fastframe_store::persist::write_segment`]) and registers it under
    /// `name` as a *segment-backed* table: block data stays on disk and is
    /// decoded on demand, so the table may be larger than memory. Queries
    /// against it behave identically to the in-memory scramble it was saved
    /// from — bit-identical estimates, CI bounds and scan statistics.
    ///
    /// # Errors
    ///
    /// [`EngineError::DuplicateTable`] for a name already in use, a store
    /// error for a file that is missing or fails to validate, and
    /// [`EngineError::NonFiniteValue`] when a float column holds a NaN or
    /// an infinity, as [`Session::register_scramble`] refuses it (the
    /// segment records the catalog's first one, so the check reads no
    /// data).
    pub fn open_table(
        &mut self,
        name: impl Into<String>,
        path: impl AsRef<Path>,
    ) -> EngineResult<()> {
        let name = name.into();
        if self.tables.contains_key(&name) {
            return Err(EngineError::DuplicateTable { name });
        }
        let reader = SegmentReader::open(path)?;
        if let Some((column, row)) = reader.catalog().first_non_finite() {
            return Err(EngineError::NonFiniteValue {
                column: column.to_string(),
                row,
            });
        }
        self.tables.insert(name, TableEntry::Segment(reader));
        Ok(())
    }

    /// Saves the in-memory scramble registered under `name` to a segment
    /// file at `path` (created or replaced). The file can be re-served by
    /// [`Session::open_table`] in any later process, amortizing the shuffle
    /// cost across runs.
    ///
    /// # Errors
    ///
    /// [`EngineError::SegmentBacked`] if the table is itself already backed
    /// by a segment (the file already exists — copy it instead), alongside
    /// the usual unknown-table and I/O errors.
    pub fn save_table(&self, name: &str, path: impl AsRef<Path>) -> EngineResult<()> {
        match self.entry(name)? {
            TableEntry::Memory(scramble) => Ok(write_segment(scramble, path)?),
            TableEntry::Segment(_) => Err(EngineError::SegmentBacked {
                name: name.to_string(),
            }),
        }
    }

    /// Drops a registered table (in-memory or segment-backed).
    pub fn drop_table(&mut self, name: &str) -> EngineResult<()> {
        self.tables
            .remove(name)
            .map(|_| ())
            .ok_or_else(|| EngineError::UnknownTable {
                name: name.to_string(),
            })
    }

    /// Whether a table named `name` is registered.
    pub fn contains(&self, name: &str) -> bool {
        self.tables.contains_key(name)
    }

    /// Names of the registered tables, sorted.
    pub fn table_names(&self) -> Vec<&str> {
        self.tables.keys().map(String::as_str).collect()
    }

    /// Number of registered tables.
    pub fn len(&self) -> usize {
        self.tables.len()
    }

    /// Whether no table is registered.
    pub fn is_empty(&self) -> bool {
        self.tables.is_empty()
    }

    fn entry(&self, name: &str) -> EngineResult<&TableEntry> {
        self.tables
            .get(name)
            .ok_or_else(|| EngineError::UnknownTable {
                name: name.to_string(),
            })
    }

    /// The block source registered under `name` — in-memory scramble and
    /// on-disk segment alike.
    pub fn source(&self, name: &str) -> EngineResult<&dyn BlockSource> {
        Ok(self.entry(name)?.source())
    }

    /// The in-memory scramble registered under `name`.
    ///
    /// # Errors
    ///
    /// [`EngineError::SegmentBacked`] for tables registered via
    /// [`Session::open_table`] — their data lives on disk; use
    /// [`Session::source`] for backing-agnostic access.
    pub fn scramble(&self, name: &str) -> EngineResult<&Scramble> {
        match self.entry(name)? {
            TableEntry::Memory(scramble) => Ok(scramble),
            TableEntry::Segment(_) => Err(EngineError::SegmentBacked {
                name: name.to_string(),
            }),
        }
    }

    /// Starts a fluent query against the table registered under `name`.
    ///
    /// Table and column resolution is deferred to [`QueryBuilder::build`] (or
    /// the terminal helpers that call it), which type-checks the whole query
    /// against the catalog before execution.
    pub fn query(&self, table: impl Into<String>) -> QueryBuilder<'_> {
        QueryBuilder {
            session: self,
            table: table.into(),
            name: None,
            aggregate: None,
            // Placeholder aggregate/name, overwritten in `build`.
            inner: AggQuery::count(""),
            config: None,
            budget: Budget::unlimited(),
        }
    }

    /// Validates a pre-built [`AggQuery`] against the table registered under
    /// `table` and returns it prepared for execution with the session
    /// defaults. This is the bridge for code that assembles [`AggQuery`]
    /// values directly (e.g. the workload templates).
    pub fn prepare(&self, table: &str, query: &AggQuery) -> EngineResult<PreparedQuery<'_>> {
        PreparedQuery::new(self.source(table)?, query.clone(), self.defaults.clone())
    }
}

/// A fluent, catalog-checked builder for aggregate queries over one session
/// table. Obtained from [`Session::query`]; finalized by [`Self::build`] or
/// one of the terminal execution helpers.
#[derive(Debug, Clone)]
#[must_use = "QueryBuilder does nothing until `build`/`execute`/`progressive`/`stream` is called"]
pub struct QueryBuilder<'s> {
    session: &'s Session,
    table: String,
    name: Option<String>,
    aggregate: Option<(AggregateFunction, Expr)>,
    /// Clause accumulation is delegated to [`AggQueryBuilder`] so the
    /// HAVING/ORDER-to-stopping-condition derivations and the default
    /// stopping condition live in exactly one place; the aggregate, target
    /// and name of this placeholder are overwritten in [`Self::build`].
    inner: AggQueryBuilder,
    config: Option<EngineConfig>,
    budget: Budget,
}

impl<'s> QueryBuilder<'s> {
    /// Aggregates `AVG(target)`.
    pub fn avg(mut self, target: Expr) -> Self {
        self.aggregate = Some((AggregateFunction::Avg, target));
        self
    }

    /// Aggregates `SUM(target)`.
    pub fn sum(mut self, target: Expr) -> Self {
        self.aggregate = Some((AggregateFunction::Sum, target));
        self
    }

    /// Aggregates `COUNT(*)`.
    pub fn count(mut self) -> Self {
        self.aggregate = Some((AggregateFunction::Count, Expr::lit(1.0)));
        self
    }

    /// Names the query (defaults to `"<table>.<aggregate>"`).
    pub fn named(mut self, name: impl Into<String>) -> Self {
        self.name = Some(name.into());
        self
    }

    /// Sets the WHERE-clause predicate.
    pub fn filter(mut self, predicate: Predicate) -> Self {
        self.inner = self.inner.filter(predicate);
        self
    }

    /// Adds a GROUP BY column (categorical).
    pub fn group_by(mut self, column: impl Into<String>) -> Self {
        self.inner = self.inner.group_by(column);
        self
    }

    /// Adds a `HAVING agg > threshold` clause and selects the matching
    /// threshold-side stopping condition Í.
    pub fn having_gt(mut self, threshold: f64) -> Self {
        self.inner = self.inner.having_gt(threshold);
        self
    }

    /// Adds a `HAVING agg < threshold` clause and selects the matching
    /// threshold-side stopping condition Í.
    pub fn having_lt(mut self, threshold: f64) -> Self {
        self.inner = self.inner.having_lt(threshold);
        self
    }

    /// Adds an `ORDER BY agg DESC LIMIT k` clause and selects the top-K
    /// separation stopping condition Î.
    pub fn order_desc_limit(mut self, k: usize) -> Self {
        self.inner = self.inner.order_desc_limit(k);
        self
    }

    /// Adds an `ORDER BY agg ASC LIMIT k` clause and selects the bottom-K
    /// separation stopping condition Î.
    pub fn order_asc_limit(mut self, k: usize) -> Self {
        self.inner = self.inner.order_asc_limit(k);
        self
    }

    /// Requires every group's relative error to drop below `epsilon`
    /// (stopping condition Ì).
    pub fn relative_error(mut self, epsilon: f64) -> Self {
        self.inner = self.inner.relative_error(epsilon);
        self
    }

    /// Requires every group's interval width to drop below `epsilon`
    /// (stopping condition Ë).
    pub fn absolute_width(mut self, epsilon: f64) -> Self {
        self.inner = self.inner.absolute_width(epsilon);
        self
    }

    /// Requires the full ordering of group aggregates to be determined
    /// (stopping condition Ï).
    pub fn groups_ordered(mut self) -> Self {
        self.inner = self.inner.groups_ordered();
        self
    }

    /// Requires a fixed number of contributing samples per group (stopping
    /// condition Ê).
    pub fn sample_count(mut self, m: u64) -> Self {
        self.inner = self.inner.sample_count(m);
        self
    }

    /// Sets the stopping condition explicitly (overrides any derived one).
    pub fn stop_when(mut self, condition: StoppingCondition) -> Self {
        self.inner = self.inner.stop_when(condition);
        self
    }

    /// Replaces the session-default [`EngineConfig`] for this query.
    pub fn config(mut self, config: EngineConfig) -> Self {
        self.config = Some(config);
        self
    }

    /// Overrides the scan thread count for this query (`0` = auto,
    /// see [`EngineConfig::effective_threads`]). The thread count never
    /// changes results — per-partition partial states are merged in block-id
    /// order, so output is bit-for-bit identical at any setting.
    pub fn threads(self, threads: usize) -> Self {
        self.tune(|c| c.threads(threads))
    }

    /// Tweaks the effective configuration through a builder seeded with the
    /// current one (the session defaults unless [`Self::config`] was called):
    /// `…​.tune(|c| c.delta(0.05).round_rows(10_000))`.
    pub fn tune(
        mut self,
        f: impl FnOnce(crate::config::EngineConfigBuilder) -> crate::config::EngineConfigBuilder,
    ) -> Self {
        let base = self
            .config
            .take()
            .unwrap_or_else(|| self.session.defaults.clone());
        self.config = Some(f(base.to_builder()).build());
        self
    }

    /// Sets the cancellation [`Budget`] for this query.
    pub fn budget(mut self, budget: Budget) -> Self {
        self.budget = budget;
        self
    }

    /// Finalizes the builder: resolves the table, type-checks every clause
    /// against the catalog, and returns the query prepared for execution.
    pub fn build(self) -> EngineResult<PreparedQuery<'s>> {
        let source = self.session.source(&self.table)?;
        let (aggregate, target) = self.aggregate.ok_or(EngineError::MissingAggregate)?;
        let mut query = self.inner.build();
        query.aggregate = aggregate;
        query.target = target;
        query.name = self
            .name
            .unwrap_or_else(|| format!("{}.{}", self.table, aggregate.to_string().to_lowercase()));
        let config = self.config.unwrap_or_else(|| self.session.defaults.clone());
        Ok(PreparedQuery::new(source, query, config)?.with_budget(self.budget))
    }

    /// Builds and executes approximately, blocking until the stopping
    /// condition is satisfied, a budget cap fires, or the scramble is
    /// exhausted.
    pub fn execute(self) -> EngineResult<QueryResult> {
        self.build()?.execute()
    }

    /// Builds and executes the `Exact` baseline.
    pub fn execute_exact(self) -> EngineResult<QueryResult> {
        self.build()?.execute_exact()
    }

    /// Builds and executes progressively, collecting every round's
    /// [`Snapshot`].
    pub fn progressive(self) -> EngineResult<ProgressiveResult> {
        self.build()?.progressive()
    }

    /// Builds and executes progressively, offering every round's
    /// [`Snapshot`] to `observer` (which may stop the scan).
    pub fn stream(
        self,
        observer: impl FnMut(&Snapshot) -> RoundControl,
    ) -> EngineResult<ProgressiveResult> {
        self.build()?.stream(observer)
    }
}

/// A query that has been type-checked against a block source and bound to
/// an effective configuration and budget — ready to run in any mode. Every
/// execution goes through one of its methods.
#[derive(Clone)]
pub struct PreparedQuery<'s> {
    source: &'s dyn BlockSource,
    query: AggQuery,
    config: EngineConfig,
    budget: Budget,
}

impl std::fmt::Debug for PreparedQuery<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PreparedQuery")
            .field("query", &self.query)
            .field("config", &self.config)
            .field("budget", &self.budget)
            .field("source_rows", &self.source.num_rows())
            .finish()
    }
}

impl<'s> PreparedQuery<'s> {
    /// Prepares `query` over any [`BlockSource`] with `config` and an
    /// unlimited [`Budget`]. [`Session::prepare`] and [`QueryBuilder::build`]
    /// are calls of this constructor over a registered table.
    ///
    /// # Errors
    ///
    /// Whatever the executor's own binding step refuses, on catalog metadata
    /// only (no block is read): an unknown or mistyped column, a
    /// non-categorical GROUP BY column, a target whose range bounds the
    /// catalog cannot derive or whose derived range overflows
    /// ([`EngineError::NonFiniteRange`]), or an empty table. Then an
    /// invalid `config`: `Core(InvalidDelta)` for δ outside (0, 1), and
    /// [`EngineError::InvalidConfig`] for a zero round size or an
    /// Anderson/DKW bounder.
    pub fn new(
        source: &'s dyn BlockSource,
        query: AggQuery,
        config: EngineConfig,
    ) -> EngineResult<Self> {
        bind_query(source, &query)?;
        config.validate()?;
        Ok(Self {
            source,
            query,
            config,
            budget: Budget::unlimited(),
        })
    }

    /// The validated query.
    pub fn query(&self) -> &AggQuery {
        &self.query
    }

    /// The effective configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// The block source this query runs over (in-memory scramble or on-disk
    /// segment).
    pub fn source(&self) -> &dyn BlockSource {
        self.source
    }

    /// The cancellation budget.
    pub(crate) fn budget(&self) -> &Budget {
        &self.budget
    }

    /// Replaces the effective configuration. It is validated when the query
    /// runs: every execution method refuses an invalid one as
    /// [`PreparedQuery::new`] does.
    pub fn with_config(mut self, config: EngineConfig) -> Self {
        self.config = config;
        self
    }

    /// Replaces the cancellation budget.
    pub fn with_budget(mut self, budget: Budget) -> Self {
        self.budget = budget;
        self
    }

    /// Executes approximately and blocks for the final result — the drained
    /// form of the progressive stream (no intermediate snapshots are
    /// materialized).
    pub fn execute(&self) -> EngineResult<QueryResult> {
        run(self, None, Pass::Approximate).map(ProgressiveResult::into_result)
    }

    /// Executes the `Exact` baseline: one full pass of the scan pipeline
    /// over every block, with intervals collapsed onto the estimates and
    /// GROUP BY groups without a matching row omitted. Only an explicit
    /// thread count applies (auto scans on one thread); the budget is
    /// ignored.
    pub fn execute_exact(&self) -> EngineResult<QueryResult> {
        run(self, None, Pass::Exact).map(ProgressiveResult::into_result)
    }

    /// Executes progressively, collecting every round's [`Snapshot`] into
    /// the returned [`ProgressiveResult`].
    pub fn progressive(&self) -> EngineResult<ProgressiveResult> {
        self.stream(|_| RoundControl::Continue)
    }

    /// Executes progressively, offering every round's [`Snapshot`] to
    /// `observer`; returning [`RoundControl::Stop`] cancels the scan (the
    /// result is finalized from the state reached so far).
    pub fn stream(
        &self,
        mut observer: impl FnMut(&Snapshot) -> RoundControl,
    ) -> EngineResult<ProgressiveResult> {
        let observer: &mut RoundObserver<'_> = &mut observer;
        run(self, Some(observer), Pass::Approximate)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fastframe_core::bounder::BounderKind;
    use fastframe_core::error::CoreError;
    use fastframe_store::column::Column;

    fn table() -> Table {
        let n = 5_000usize;
        Table::new(vec![
            Column::float("delay", (0..n).map(|i| (i % 3) as f64 * 10.0).collect()),
            Column::categorical(
                "airline",
                &(0..n).map(|i| format!("A{}", i % 3)).collect::<Vec<_>>(),
            ),
        ])
        .unwrap()
    }

    fn session() -> Session {
        let mut s = Session::with_defaults(
            EngineConfig::builder()
                .bounder(BounderKind::BernsteinRangeTrim)
                .delta(1e-9)
                .round_rows(1_000)
                .start_block(0)
                .build(),
        );
        s.register_with("flights", &table(), TableOptions::default().seed(99))
            .unwrap();
        s
    }

    /// Each configuration the engine refuses, with the field it names: a
    /// zero round size, and the Anderson/DKW bounders, whose state is an
    /// O(m) sample.
    fn invalid_configs() -> [(EngineConfig, &'static str); 3] {
        let base = || session().defaults().to_builder();
        [
            (base().round_rows(0).build(), "round_rows"),
            (base().bounder(BounderKind::AndersonDkw).build(), "bounder"),
            (
                base().bounder(BounderKind::AndersonDkwRangeTrim).build(),
                "bounder",
            ),
        ]
    }

    #[test]
    fn a_zero_round_size_is_rejected_when_the_query_is_built() {
        let base = || session().defaults().to_builder();
        for (config, want) in invalid_configs() {
            let mut from_defaults = session();
            from_defaults.set_defaults(config.clone());
            let per_query = session()
                .query("flights")
                .avg(Expr::col("delay"))
                .config(config)
                .build()
                .map(|_| ());
            let defaults = from_defaults
                .query("flights")
                .avg(Expr::col("delay"))
                .build()
                .map(|_| ());
            let query = AggQuery::avg("q", Expr::col("delay")).build();
            let prepared = from_defaults.prepare("flights", &query).map(|_| ());
            for (how, result) in [
                ("per-query config", per_query),
                ("session defaults", defaults),
                ("prepare", prepared),
            ] {
                match result {
                    Err(EngineError::InvalidConfig { field, .. }) => {
                        assert_eq!(field, want, "{how}")
                    }
                    other => panic!("{want} from {how}: expected InvalidConfig, got {other:?}"),
                }
            }
        }
        // The edge of the accepted range builds.
        let config = base().round_rows(1).build();
        assert!(session()
            .query("flights")
            .avg(Expr::col("delay"))
            .config(config)
            .build()
            .is_ok());
    }

    /// A configuration swapped in after preparation is validated when the
    /// query runs, in every execution mode.
    #[test]
    fn a_config_swapped_in_after_preparation_is_rejected_by_every_mode() {
        let s = session();
        let query = AggQuery::avg("q", Expr::col("delay"))
            .group_by("airline")
            .build();
        let prepared = s.prepare("flights", &query).unwrap();
        for (config, want) in invalid_configs() {
            let prepared = prepared.clone().with_config(config);
            let modes = [
                ("execute", prepared.execute().map(|_| ())),
                ("execute_exact", prepared.execute_exact().map(|_| ())),
                ("progressive", prepared.progressive().map(|_| ())),
                (
                    "stream",
                    prepared.stream(|_| RoundControl::Continue).map(|_| ()),
                ),
            ];
            for (mode, result) in modes {
                match result {
                    Err(EngineError::InvalidConfig { field, .. }) => {
                        assert_eq!(field, want, "{mode}")
                    }
                    other => panic!("{mode}: expected InvalidConfig, got {other:?}"),
                }
            }
        }
        let bad_delta = prepared.with_config(EngineConfig::builder().delta(0.0).build());
        assert!(matches!(
            bad_delta.execute(),
            Err(EngineError::Core(CoreError::InvalidDelta { .. }))
        ));
    }

    #[test]
    fn a_bad_delta_is_rejected_when_the_query_is_built() {
        let build = |s: &Session, config: Option<EngineConfig>| {
            let q = s.query("flights").avg(Expr::col("delay"));
            match config {
                Some(config) => q.config(config).build().map(|_| ()),
                None => q.build().map(|_| ()),
            }
        };
        for delta in [0.0, 1.0, 2.0, -0.1, f64::NAN] {
            let config = session().defaults().to_builder().delta(delta).build();
            let mut from_defaults = session();
            from_defaults.set_defaults(config.clone());
            for (how, result) in [
                ("session defaults", build(&from_defaults, None)),
                ("per-query config", build(&session(), Some(config.clone()))),
            ] {
                match result {
                    Err(EngineError::Core(CoreError::InvalidDelta { delta: got })) => {
                        assert_eq!(got.to_bits(), delta.to_bits(), "{how}")
                    }
                    other => panic!("δ = {delta} from {how}: expected InvalidDelta, got {other:?}"),
                }
            }
            let query = AggQuery::avg("q", Expr::col("delay")).build();
            assert!(matches!(
                from_defaults.prepare("flights", &query),
                Err(EngineError::Core(CoreError::InvalidDelta { .. }))
            ));
        }
        for delta in [1e-15, 0.05] {
            let config = session().defaults().to_builder().delta(delta).build();
            let mut from_defaults = session();
            from_defaults.set_defaults(config.clone());
            build(&from_defaults, None).unwrap();
            build(&session(), Some(config)).unwrap();
        }
    }

    #[test]
    fn catalog_management() {
        let mut s = session();
        assert!(s.contains("flights"));
        assert_eq!(s.table_names(), vec!["flights"]);
        assert_eq!(s.len(), 1);
        assert!(!s.is_empty());

        // Duplicate registration is rejected.
        assert!(matches!(
            s.register("flights", &table()),
            Err(EngineError::DuplicateTable { .. })
        ));

        // A second table with custom options coexists.
        s.register_with("other", &table(), TableOptions::default().block_size(100))
            .unwrap();
        assert_eq!(s.scramble("other").unwrap().layout().block_size(), 100);
        assert_eq!(s.table_names(), vec!["flights", "other"]);

        s.drop_table("other").unwrap();
        assert!(matches!(
            s.drop_table("other"),
            Err(EngineError::UnknownTable { .. })
        ));
        assert!(matches!(
            s.scramble("nope"),
            Err(EngineError::UnknownTable { .. })
        ));
    }

    /// One NaN, +∞ or −∞ in a 10 000-row float column is refused at
    /// registration with an error naming the column and the row, through
    /// `register`, `register_with` and `register_scramble`; nothing is
    /// registered.
    #[test]
    fn a_non_finite_float_is_rejected_when_the_table_is_registered() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut values: Vec<f64> = (0..10_000).map(|i| (i % 97) as f64).collect();
            values[4_321] = bad;
            values[9_000] = bad;
            let t = Table::new(vec![
                Column::float("ok", (0..10_000).map(f64::from).collect()),
                Column::float("delay", values),
            ])
            .unwrap();
            let rejected = |result: EngineResult<()>, how: &str| match result {
                Err(EngineError::NonFiniteValue { column, row }) => {
                    assert_eq!((column.as_str(), row), ("delay", 4_321), "{bad} via {how}")
                }
                other => panic!("{bad} via {how}: expected NonFiniteValue, got {other:?}"),
            };
            let mut s = Session::new();
            rejected(s.register("t", &t), "register");
            rejected(
                s.register_with("t", &t, TableOptions::default().block_size(7)),
                "register_with",
            );
            let scramble = Scramble::build_with(&t, 1, 25).unwrap();
            rejected(s.register_scramble("t", scramble), "register_scramble");
            assert!(s.is_empty());
            let message = s.register("t", &t).unwrap_err().to_string();
            assert!(
                message.contains("`delay`") && message.contains("4321"),
                "{message}"
            );
        }
    }

    /// Finite values up to 9.9e199 register, but `x * x` over them has the
    /// derived range [0, ∞]. Every mode refuses the query when it is built,
    /// with an error naming the target, before any block is read; no mode
    /// returns a NaN estimate or panics. The column's own aggregates run.
    #[test]
    fn an_overflowing_derived_range_is_rejected_when_the_query_is_built() {
        let t = Table::new(vec![Column::float(
            "x",
            (0..1_000).map(|i| f64::from(i) * 9.9e196).collect(),
        )])
        .unwrap();
        let mut s = Session::new();
        s.register("t", &t).unwrap();
        let square = Expr::col("x").mul(Expr::col("x"));
        let refused = |result: EngineResult<QueryResult>, how: &str| match result {
            Err(EngineError::NonFiniteRange { target, a, b }) => {
                assert_eq!(target, "(x * x)", "{how}");
                assert_eq!((a, b), (0.0, f64::INFINITY), "{how}");
            }
            other => panic!("{how}: expected NonFiniteRange, got {other:?}"),
        };
        let query = s.query("t").avg(square.clone());
        assert!(matches!(
            query.clone().build(),
            Err(EngineError::NonFiniteRange { .. })
        ));
        refused(query.clone().execute(), "execute");
        refused(query.execute_exact(), "execute_exact");
        refused(s.query("t").sum(square.clone()).execute(), "sum");
        let prebuilt = AggQuery::avg("square", square.clone()).build();
        assert!(matches!(
            s.prepare("t", &prebuilt),
            Err(EngineError::NonFiniteRange { .. })
        ));
        // 0 · ∞: a NaN range is refused the same way.
        let nan = square.mul(Expr::lit(0.0));
        assert!(matches!(
            s.query("t").avg(nan).build(),
            Err(EngineError::NonFiniteRange { a, b, .. }) if a.is_nan() && b.is_nan()
        ));
        let message = s
            .query("t")
            .avg(Expr::col("x").pow(2))
            .build()
            .unwrap_err()
            .to_string();
        assert!(message.contains("`(x^2)`"), "{message}");
        let exact = s.query("t").avg(Expr::col("x")).execute_exact().unwrap();
        assert!(exact.global().unwrap().estimate.unwrap().is_finite());
        assert!(s.query("t").count().execute().is_ok());
    }

    #[test]
    fn fluent_query_approx_and_exact_agree() {
        let s = session();
        let approx = s
            .query("flights")
            .avg(Expr::col("delay"))
            .group_by("airline")
            .having_gt(5.0)
            .execute()
            .unwrap();
        let exact = s
            .query("flights")
            .avg(Expr::col("delay"))
            .group_by("airline")
            .having_gt(5.0)
            .execute_exact()
            .unwrap();
        let mut a = approx.selected_labels();
        let mut e = exact.selected_labels();
        a.sort();
        e.sort();
        assert_eq!(a, e);
        assert!(approx.metrics.blocks_fetched() <= exact.metrics.blocks_fetched());
    }

    #[test]
    fn build_time_type_checking() {
        let s = session();
        // Unknown table.
        assert!(matches!(
            s.query("nope").avg(Expr::col("delay")).build(),
            Err(EngineError::UnknownTable { .. })
        ));
        // Missing aggregate.
        assert!(matches!(
            s.query("flights").group_by("airline").build(),
            Err(EngineError::MissingAggregate)
        ));
        // Unknown target column — caught at build, not at execution.
        assert!(matches!(
            s.query("flights").avg(Expr::col("nope")).build(),
            Err(EngineError::Store(_))
        ));
        // Unknown filter column.
        assert!(matches!(
            s.query("flights")
                .avg(Expr::col("delay"))
                .filter(Predicate::cat_eq("nope", "x"))
                .build(),
            Err(EngineError::Store(_))
        ));
        // Numeric GROUP BY column.
        assert!(matches!(
            s.query("flights")
                .avg(Expr::col("delay"))
                .group_by("delay")
                .build(),
            Err(EngineError::InvalidGroupBy { .. })
        ));
        // Empty tables are caught at build time too, not at execution.
        let mut s = s;
        s.register(
            "empty",
            &Table::new(vec![Column::float("x", vec![])]).unwrap(),
        )
        .unwrap();
        assert!(matches!(
            s.query("empty").avg(Expr::col("x")).build(),
            Err(EngineError::EmptyScramble)
        ));
    }

    #[test]
    fn default_name_and_overrides() {
        let s = session();
        let prepared = s
            .query("flights")
            .count()
            .named("my-count")
            .tune(|c| c.delta(1e-6))
            .build()
            .unwrap();
        assert_eq!(prepared.query().name, "my-count");
        assert_eq!(prepared.config().delta, 1e-6);
        // Session defaults are untouched.
        assert_eq!(s.defaults().delta, 1e-9);

        let prepared = s.query("flights").sum(Expr::col("delay")).build().unwrap();
        assert_eq!(prepared.query().name, "flights.sum");
        assert_eq!(prepared.config().delta, 1e-9);
    }

    #[test]
    fn prepare_validates_prebuilt_queries() {
        let s = session();
        let good = AggQuery::avg("t", Expr::col("delay"))
            .group_by("airline")
            .build();
        assert!(s.prepare("flights", &good).is_ok());
        let bad = AggQuery::avg("t", Expr::col("nope")).build();
        assert!(s.prepare("flights", &bad).is_err());
        assert!(matches!(
            s.prepare("nope", &good),
            Err(EngineError::UnknownTable { .. })
        ));
    }

    #[test]
    fn progressive_stream_through_the_builder() {
        let s = session();
        let p = s
            .query("flights")
            .avg(Expr::col("delay"))
            .group_by("airline")
            .absolute_width(0.0)
            .budget(Budget::unlimited().max_rounds(2))
            .progressive()
            .unwrap();
        assert_eq!(p.rounds(), 2);
        assert!(p.cancelled());
        assert!(!p.converged());
        assert_eq!(p.result.groups.len(), 3);
    }
}

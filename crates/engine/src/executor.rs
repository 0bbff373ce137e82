//! The query executor: OptStop rounds over a scramble scan with per-view
//! error bounders and active scanning, and the Exact baseline as one full
//! pass of the same scan.
//!
//! High-level flow (§4):
//!
//! 1. **Bind** the query against the scramble: resolve the target expression,
//!    predicate and GROUP BY columns, derive the range bounds `[a, b]` of the
//!    target expression from the catalog (Appendix B; a range that
//!    overflows is refused here), and enumerate the group universe (one
//!    [`AggregateView`] per group).
//! 2. **Budget** the error probability: δ is split evenly across aggregate
//!    views (union bound), and within each view decayed per OptStop round as
//!    `(6/π²)·δ_view/k²` (Algorithm 5); each round's share is further split
//!    between the dataset-size bound `N⁺` and the mean CI (Theorem 3).
//! 3. **Scan** blocks of the scramble starting from a random position,
//!    skipping blocks according to the sampling strategy (predicate bitmap
//!    for all strategies, active-group bitmaps for ActiveSync/ActivePeek).
//!    One inline [`BlockPlanner`] decides a batch of blocks at a time on the
//!    coordinating thread, for every strategy and pass.
//! 4. After every `round_rows` rows worth of fetched blocks, recompute every
//!    view's confidence intervals, fold them into the running intervals, and
//!    evaluate the query's stopping condition; stop as soon as it is
//!    satisfied.
//! 5. **Finalize**: produce per-group results, apply HAVING / ORDER BY-LIMIT
//!    selection, and report metrics (wall time, blocks fetched, rounds). A
//!    run that passed every block without stopping reports exact results
//!    for every view whose skip ledger holds no row of unknown membership.
//!
//! Every [`PreparedQuery`] execution method is one call of [`run`], which
//! validates the configuration before anything else. Execution is
//! *progressive*: [`PreparedQuery::stream`] emits a [`Snapshot`] of every
//! group's running interval after each round, honours the cancellation caps
//! of a [`Budget`], and lets a per-round observer stop the scan
//! ([`RoundControl`]). The blocking [`PreparedQuery::execute`] runs the same
//! loop without an observer and keeps the finalized [`QueryResult`].
//!
//! The executor reads data exclusively through the [`BlockSource`] scan
//! abstraction: the in-memory [`Scramble`](fastframe_store::scramble::Scramble)
//! and the on-disk [`SegmentReader`](fastframe_store::persist::SegmentReader)
//! are interchangeable, and — because the block plan, partition layout, zone
//! maps and bitmap indexes are identical for a scramble and the segment it
//! was saved to — produce bit-identical results and `ScanStats`.
//!
//! Scanning and aggregation are **parallel**: each round's planned block
//! list is handed to the partitioned pipeline of `crate::parallel`, which
//! splits it into thread-count-independent partitions, accumulates partial
//! aggregate state per partition on the coordinating thread and its scoped
//! helpers ([`EngineConfig::effective_threads`] scan threads in all), and
//! merges the partials in block-id order — so results are bit-for-bit
//! identical at any thread count. Budget row caps are enforced when blocks
//! are *granted* to a round (before any thread scans them), so `max_rows` is
//! never exceeded under concurrency.
//!
//! Within each partition, blocks execute **batch-at-a-time**: the predicate
//! runs as a columnar filter kernel emitting a selection vector, only the
//! columns the query references are decoded (projection pushdown on lazy
//! sources), one dense group table maps the selected rows to view ids, and
//! each row updates its view's record in place (see `crate::parallel`).
//!
//! The `Exact` baseline ([`PreparedQuery::execute_exact`]) is a mode of the
//! same loop, not a second one: a planner that grants every block, a single
//! round that never fills (so no interval is computed mid-scan), and the
//! full-pass finalize. Approximate and exact answers therefore come from the
//! same kernels, merges and finalize.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use fastframe_core::delta::DeltaBudget;
use fastframe_core::partial::FlatBounder;
use fastframe_core::stopping::GroupSnapshot;
use fastframe_store::block::{BlockId, DEFAULT_LOOKAHEAD_BATCH};
use fastframe_store::expr::BoundExpr;
use fastframe_store::predicate::BoundPredicate;
use fastframe_store::source::{BlockSource, GroupUniverse};
use fastframe_store::stats::ScanStats;
use fastframe_store::table::Table;

use crate::config::{EngineConfig, SamplingStrategy};
use crate::error::{EngineError, EngineResult};
use crate::metrics::{ExecMetrics, QueryMetrics};
use crate::parallel::{with_round_executor, RoundExecutor, ScanContext};
use crate::progressive::{
    Budget, CancellationReason, GroupProgress, ProgressiveResult, RoundControl, Snapshot,
};
use crate::query::{AggQuery, AggregateFunction};
use crate::result::{select_groups, GroupKey, QueryResult};
use crate::sampling::{ActiveSet, BlockPlanner, Skip};
use crate::session::PreparedQuery;
use crate::view::{AggregateView, RoundLogs};

/// A per-round observer: receives each round's [`Snapshot`] and decides
/// whether the scan continues.
pub(crate) type RoundObserver<'a> = dyn FnMut(&Snapshot) -> RoundControl + 'a;

/// A query bound against a particular scramble. Shared read-only with the
/// scan workers of `crate::parallel`.
pub(crate) struct BoundQuery {
    pub(crate) target: BoundExpr,
    pub(crate) predicate: BoundPredicate,
    group_cols: Vec<usize>,
    range: (f64, f64),
    predicate_eq: Option<(String, u32)>,
    /// Upper bound on the number of aggregate views, used to split δ.
    view_parts: usize,
}

pub(crate) fn bind_query(source: &dyn BlockSource, query: &AggQuery) -> EngineResult<BoundQuery> {
    // Binding resolves names against the schema table (names, types,
    // dictionaries); row data is never touched here.
    let table = source.schema();
    if source.num_rows() == 0 {
        return Err(EngineError::EmptyScramble);
    }
    let target = query.target.bind(table)?;
    let predicate = query.filter.bind(table)?;

    let mut group_cols = Vec::with_capacity(query.group_by.len());
    let mut view_parts: usize = 1;
    for name in &query.group_by {
        let col = table.column(name)?;
        let cardinality = col
            .cardinality()
            .ok_or_else(|| EngineError::InvalidGroupBy {
                column: name.clone(),
            })?;
        view_parts = view_parts.saturating_mul(cardinality.max(1));
        group_cols.push(table.column_index(name)?);
    }

    let range = match query.aggregate {
        AggregateFunction::Count => (0.0, 1.0),
        _ => query.target.range_bounds(source.catalog())?,
    };
    // Over finite data a non-finite derived range is an overflow, and
    // rows would evaluate to ±∞ or NaN. (A table holding non-finite data is
    // refused when it is registered; over a scramble built directly, Exact
    // still answers from the finite rows a predicate selects.)
    let finite_data = source.catalog().first_non_finite().is_none();
    if finite_data && !(range.0.is_finite() && range.1.is_finite()) {
        return Err(EngineError::NonFiniteRange {
            target: query.target.to_string(),
            a: range.0,
            b: range.1,
        });
    }

    let predicate_eq = query.filter.categorical_equality().and_then(|(col, val)| {
        table
            .column(col)
            .ok()
            .and_then(|c| c.code_of(val))
            .map(|code| (col.to_string(), code))
    });

    Ok(BoundQuery {
        target,
        predicate,
        group_cols,
        range,
        predicate_eq,
        view_parts: view_parts.max(1),
    })
}

/// Enumerates the group universe: the distinct code combinations of the
/// GROUP BY columns that occur in the table, assigned view ids in
/// first-appearance order over the permuted rows. The tuples come from
/// [`BlockSource::distinct_group_tuples`], whose order is the same on every
/// backing (a requirement for bit-identical results) and which both the
/// in-memory scramble and the segment reader memoize per column tuple, so
/// only a table's first grouped query over a column tuple pays for the
/// (bitmap-derived or early-exiting) cold build. Not counted against the
/// blocks-fetched metric. An ungrouped query has one view, the empty tuple.
///
/// Returns the view keys, each built once per query and shared by every
/// snapshot, the code tuples (the planner's code table, indexed by view id)
/// and the row → view lookup built from them.
fn enumerate_groups(
    source: &dyn BlockSource,
    group_cols: &[usize],
) -> EngineResult<(Vec<Arc<GroupKey>>, GroupUniverse, GroupLookup)> {
    let schema = source.schema();
    if group_cols.is_empty() {
        let tuples: GroupUniverse = Arc::from(vec![Vec::new()]);
        let lookup = GroupLookup::build(&[], schema, &tuples)?;
        return Ok((vec![Arc::new(GroupKey::global())], tuples, lookup));
    }

    let tuples = source.distinct_group_tuples(group_cols)?;
    let keys = tuples
        .iter()
        .map(|codes| {
            Arc::new(GroupKey {
                codes: codes.clone(),
                labels: group_cols
                    .iter()
                    .zip(codes)
                    .map(|(&ci, &code)| {
                        schema
                            .column_at(ci)
                            .dictionary()
                            .and_then(|d| d.get(code as usize).cloned())
                            .unwrap_or_else(|| format!("#{code}"))
                    })
                    .collect(),
            })
        })
        .collect();
    let lookup = GroupLookup::build(group_cols, schema, &tuples)?;
    Ok((keys, tuples, lookup))
}

/// Key spaces up to this many entries get a dense table: 256 KiB of `u32`
/// view ids at most, built once per query. A key space no larger than one
/// GROUP BY column's dictionary is dense too, so a single-column GROUP BY
/// always indexes its table, whatever the dictionary size.
const DENSE_KEYS: u64 = 1 << 16;

/// Maps a row's GROUP BY codes to its aggregate-view id through one packed
/// mixed-radix key, `key = Σ codeᵢ · strideᵢ`, where `strideᵢ` is the
/// product of the earlier columns' dictionary sizes. An ungrouped query is
/// the zero-column case: every row has key 0. A row in no view routes to
/// the **sink**, the slot one past the last view. Shared read-only with the
/// scan workers of `crate::parallel`.
pub(crate) struct GroupLookup {
    /// `(column index, stride)` per GROUP BY column.
    columns: Vec<(usize, u64)>,
    views: KeyTable,
    /// The slot of a row in no view: the number of views.
    sink: usize,
}

/// Where a key's view id is stored: one storage choice behind the one key
/// computation, fixed by the size of the key space.
enum KeyTable {
    /// `table[key]` is the view id, or the sink for a key in no view.
    Dense(Vec<u32>),
    /// Key spaces larger than both [`DENSE_KEYS`] and every GROUP BY
    /// column's dictionary: the keys of the universe.
    Sparse(HashMap<u64, u32>),
}

impl KeyTable {
    /// The slot of `key`: its view, or `sink` for a key in no view.
    #[inline]
    fn slot(&self, key: u64, sink: usize) -> usize {
        match self {
            KeyTable::Dense(slots) => dense_slot(slots, key, sink),
            KeyTable::Sparse(views) => views.get(&key).map_or(sink, |&v| v as usize),
        }
    }
}

/// `slots[key]`, or `sink` past the table's end.
#[inline]
fn dense_slot(slots: &[u32], key: u64, sink: usize) -> usize {
    slots.get(key as usize).map_or(sink, |&v| v as usize)
}

/// A consumer of one run's router: a function from a row of the run's table
/// to its slot, a view id or the sink. [`GroupLookup::route`] resolves the
/// router once per run and hands it over as a concrete closure, so the
/// consumer's row loop is compiled once per router arm.
pub(crate) trait WithRouter {
    /// What the consumer returns.
    type Output;
    /// Consumes the router.
    fn apply(self, route: impl Fn(usize) -> usize) -> Self::Output;
}

impl GroupLookup {
    /// The lookup whose view `i` is `tuples[i]`, the codes of `group_cols`.
    ///
    /// # Errors
    ///
    /// [`EngineError::GroupCodeOutOfRange`] when a tuple holds a code outside
    /// its column's dictionary (its key would alias another group's), and
    /// [`EngineError::GroupKeySpaceTooLarge`] when the key does not fit 64
    /// bits.
    pub(crate) fn build(
        group_cols: &[usize],
        table: &Table,
        tuples: &[Vec<u32>],
    ) -> EngineResult<Self> {
        let cardinality = |ci: usize| table.column_at(ci).cardinality().unwrap_or(0);
        let mut columns = Vec::with_capacity(group_cols.len());
        let mut space = 1u64;
        let mut dense_cap = DENSE_KEYS;
        for &ci in group_cols {
            columns.push((ci, space));
            dense_cap = dense_cap.max(cardinality(ci) as u64);
            space = space.checked_mul(cardinality(ci) as u64).ok_or_else(|| {
                EngineError::GroupKeySpaceTooLarge {
                    columns: group_cols
                        .iter()
                        .map(|&c| table.column_at(c).name().to_string())
                        .collect(),
                }
            })?;
        }
        let sink = tuples.len();
        let mut views = if space <= dense_cap {
            KeyTable::Dense(vec![sink as u32; space as usize])
        } else {
            KeyTable::Sparse(HashMap::with_capacity(tuples.len()))
        };
        for (view, codes) in tuples.iter().enumerate() {
            debug_assert_eq!(codes.len(), columns.len());
            let mut key = 0;
            for (&(ci, stride), &code) in columns.iter().zip(codes) {
                if code as usize >= cardinality(ci) {
                    return Err(EngineError::GroupCodeOutOfRange {
                        column: table.column_at(ci).name().to_string(),
                        code,
                        cardinality: cardinality(ci),
                    });
                }
                key += u64::from(code) * stride;
            }
            match &mut views {
                KeyTable::Dense(table) => table[key as usize] = view as u32,
                KeyTable::Sparse(map) => {
                    map.insert(key, view as u32);
                }
            }
        }
        Ok(Self {
            columns,
            views,
            sink,
        })
    }

    /// The slot of a row in no view, one past the last view.
    pub(crate) fn sink(&self) -> usize {
        self.sink
    }

    /// Hands `consumer` the router of a run's `table`, resolved once for the
    /// run. Its arms: every row to view 0 (ungrouped); one or two columns
    /// indexing the dense table; and a general arm, for three or more
    /// columns or the sparse map, that packs each row's key column by
    /// column.
    #[inline]
    pub(crate) fn route<W: WithRouter>(&self, table: &Table, consumer: W) -> W::Output {
        let sink = self.sink;
        // One closure type for both constant routers, so they share one
        // compiled loop.
        let constant = |slot: usize| move |_: usize| slot;
        let codes = |ci: usize| table.column_at(ci).category_codes();
        // Binding rejects non-categorical GROUP BY columns, so a column
        // without codes is a defensive invariant: its rows join no view.
        if self.columns.iter().any(|&(ci, _)| codes(ci).is_none()) {
            return consumer.apply(constant(sink));
        }
        let codes = |ci: usize| codes(ci).unwrap_or_default();
        match (self.columns.as_slice(), &self.views) {
            ([], _) => consumer.apply(constant(0)),
            (&[(c0, _)], KeyTable::Dense(slots)) => {
                let c0 = codes(c0);
                consumer.apply(|row| dense_slot(slots, u64::from(c0[row]), sink))
            }
            (&[(c0, _), (c1, stride)], KeyTable::Dense(slots)) => {
                let (c0, c1) = (codes(c0), codes(c1));
                consumer.apply(|row| {
                    let key = u64::from(c0[row]) + u64::from(c1[row]) * stride;
                    dense_slot(slots, key, sink)
                })
            }
            (columns, views) => {
                // The columns' code slices, gathered once per run.
                let columns: Vec<(&[u32], u64)> = columns
                    .iter()
                    .map(|&(ci, stride)| (codes(ci), stride))
                    .collect();
                consumer.apply(|row| {
                    let key = columns
                        .iter()
                        .map(|&(codes, stride)| u64::from(codes[row]) * stride)
                        .sum();
                    views.slot(key, sink)
                })
            }
        }
    }
}

/// Mutable scan state owned by the coordinating thread. Workers never touch
/// it: they report `crate::parallel::PartitionPartial`s that are merged in
/// here between rounds.
struct ScanState {
    views: Vec<AggregateView>,
    stats: ScanStats,
    /// Worker-side counters, merged per round in partition order.
    exec: ExecMetrics,
    rounds: u64,
    /// Shared with the planner, which keeps the set it decided a batch
    /// against.
    active: Arc<ActiveSet>,
    /// Rows of the blocks the predicate ruled out ([`Skip::Pruned`]):
    /// known to hold none of any view's rows, so every view counts them as
    /// rows of known membership, like the rows scanned.
    rows_pruned: u64,
    /// Rows of the blocks skipped as inactive since the last
    /// [`Self::charge_skips`], not yet charged to any view.
    uncharged_skips: u64,
    converged: bool,
}

impl ScanState {
    /// Counts a skipped block. A pruned block's rows are known to every
    /// view at once; an inactive block's wait for the next
    /// [`Self::charge_skips`].
    fn record_skip(&mut self, rows: u64, reason: Skip) {
        self.stats.record_skip();
        match reason {
            Skip::Pruned => self.rows_pruned += rows,
            Skip::Inactive => self.uncharged_skips += rows,
        }
    }

    /// Rows whose membership in every view is known: the rows scanned and
    /// the rows of pruned blocks.
    fn rows_known(&self) -> u64 {
        self.stats.rows_scanned + self.rows_pruned
    }

    /// Charges the rows of inactive skips not yet charged to the views'
    /// skip ledgers. Every one of them was decided against the active set
    /// `planned` while the current set was `self.active`, so the caller
    /// charges before either changes: before planning a batch, before a
    /// round refreshes the active set, and after the scan. `planned` lags
    /// the current set under ActivePeek or when a round ends mid-batch (a
    /// group can re-enter the set in between). The rows are recorded absent
    /// for the views active in both sets and of unknown membership for
    /// every other view.
    fn charge_skips(&mut self, planned: &ActiveSet) {
        let rows = std::mem::take(&mut self.uncharged_skips);
        if rows == 0 {
            return;
        }
        for (id, view) in self.views.iter_mut().enumerate() {
            if planned.contains(id) && self.active.contains(id) {
                view.record_absent(rows);
            } else {
                view.record_unknown(rows);
            }
        }
    }
}

/// The progress-tracking side of one execution: cancellation budget, the
/// optional per-round observer, and the snapshots collected so far. When no
/// observer is attached (blocking execution), per-round [`Snapshot`]s are
/// not materialized at all, keeping the hot path free of the clone cost.
struct ProgressiveSink<'a, 'b> {
    budget: &'a Budget,
    observer: Option<&'a mut RoundObserver<'b>>,
    snapshots: Vec<Snapshot>,
    start: Instant,
    cancellation: Option<CancellationReason>,
}

impl ProgressiveSink<'_, '_> {
    /// Whether the wall-clock deadline (if any) has passed; records the
    /// cancellation if so.
    fn check_deadline(&mut self) -> bool {
        if let Some(deadline) = self.budget.deadline {
            if self.start.elapsed() >= deadline {
                self.cancellation = Some(CancellationReason::Deadline);
                return true;
            }
        }
        false
    }
}

/// What a run scans and how it finishes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Pass {
    /// OptStop rounds over the blocks the sampling strategy grants, until
    /// the stopping condition holds.
    Approximate,
    /// The `Exact` baseline of §5.2: every block in a single round, with no
    /// interval work before the full-pass finalize.
    Exact,
}

/// Runs `prepared` in one mode, the one implementation behind every
/// [`PreparedQuery`] execution method. The configuration is validated before
/// anything else, so a configuration swapped in after preparation is refused
/// as it would have been at build time. `observer` being `None` selects
/// blocking mode, which skips snapshot materialization entirely.
///
/// A [`Pass::Exact`] run fetches every block (so its block count is
/// comparable with an approximate run's) and finalizes the views as a full
/// pass, so each result is marked exact with the interval
/// `estimate ± 1e-9·(|estimate| + 1)`. GROUP BY groups without a matching
/// row are omitted; an ungrouped query always answers its global group. Of
/// the configuration only an explicit thread count applies: Exact ignores
/// the strategy, start block, δ and the [`Budget`]. Left on auto (`0`), it
/// scans on one thread, as the paper's baseline does, so its timings stay
/// comparable with single-threaded approximate runs and it holds one
/// partial at a time.
pub(crate) fn run(
    prepared: &PreparedQuery<'_>,
    observer: Option<&mut RoundObserver<'_>>,
    pass: Pass,
) -> EngineResult<ProgressiveResult> {
    let bounder = prepared.config().validate()?;
    let (source, query) = (prepared.source(), prepared.query());
    let exact_config;
    let unlimited = Budget::unlimited();
    let (config, budget, bounder) = match pass {
        Pass::Approximate => (prepared.config(), prepared.budget(), bounder),
        Pass::Exact => {
            exact_config = EngineConfig {
                start_block: Some(0),
                threads: prepared.config().threads.max(1),
                ..EngineConfig::default()
            };
            // Hoeffding's moments are the least state that yields the mean
            // and the sum; its interval is never reported.
            (&exact_config, &unlimited, FlatBounder::Hoeffding)
        }
    };
    let start_time = Instant::now();
    let bound = bind_query(source, query)?;
    let scramble_rows = source.num_rows() as u64;

    // δ budgeting: split across aggregate views (union bound, §4.1).
    let view_budget =
        DeltaBudget::new(DeltaBudget::new(config.delta)?.split_even(bound.view_parts))?;

    // Group universe and per-group views.
    let (keys, tuples, lookup) = enumerate_groups(source, &bound.group_cols)?;
    let views: Vec<AggregateView> = keys
        .into_iter()
        .enumerate()
        .map(|(id, key)| AggregateView::new(id, key, bounder, bound.range))
        .collect();

    // Scan order: all blocks starting from a pseudo-random position (§5.2).
    let num_blocks = source.num_blocks();
    let start_block = config.start_block.unwrap_or_else(|| {
        // Cheap deterministic hash of the seed; uniform enough for a start
        // offset and keeps the engine free of an RNG dependency.
        (config
            .seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .rotate_left(17) as usize)
            % num_blocks.max(1)
    });

    // Exact's single round never fills, so the loop's tail merge scans it.
    let round_blocks = match pass {
        Pass::Approximate => (config.round_rows as usize).div_ceil(source.layout().block_size()),
        Pass::Exact => usize::MAX,
    };

    let num_views = views.len();
    let mut state = ScanState {
        views,
        stats: ScanStats::new(),
        exec: ExecMetrics::default(),
        rounds: 0,
        active: Arc::new(ActiveSet::all_active()),
        rows_pruned: 0,
        uncharged_skips: 0,
        converged: false,
    };
    let mut sink = ProgressiveSink {
        budget,
        observer,
        snapshots: Vec::new(),
        start: start_time,
        cancellation: None,
    };

    // Shared, read-only context for the scan threads of the partitioned
    // pipeline; the thread count never influences results (see
    // `crate::parallel`). `threads` is the scan-thread count actually used
    // (clamped to the per-round partition cap), so metrics report reality.
    let threads = crate::parallel::effective_pool_size(config.effective_threads());
    // The columns the query actually reads (target ∪ predicate ∪ group-by),
    // in ascending order, pushed down to the block source so lazy backings
    // decode only referenced chunks.
    let mut projection = bound.target.referenced_columns();
    for c in bound
        .predicate
        .referenced_columns()
        .into_iter()
        .chain(bound.group_cols.iter().copied())
    {
        if !projection.contains(&c) {
            projection.push(c);
        }
    }
    projection.sort_unstable();
    let scan_ctx = ScanContext {
        source,
        bound: &bound,
        aggregate: query.aggregate,
        lookup: &lookup,
        num_views,
        projection,
    };

    // Numeric range conjuncts feed zone-map block skipping (all strategies).
    // Exact has nothing to probe, so its planner fetches every block.
    let mut planner = match pass {
        Pass::Approximate => BlockPlanner::new(
            source,
            &query.group_by,
            &tuples,
            bound.predicate_eq.clone(),
            &query.filter.range_filters(),
            config.strategy,
        ),
        Pass::Exact => BlockPlanner::new(source, &[], &[], None, &[], SamplingStrategy::Scan),
    };
    with_round_executor(&scan_ctx, threads, |rexec| {
        run_scan_loop(
            source,
            query,
            bounder,
            &view_budget,
            scramble_rows,
            start_block,
            round_blocks,
            rexec,
            &mut state,
            &mut sink,
            &mut planner,
        )
    })?;
    state.charge_skips(planner.planned_with());

    // Final round so that views updated since the last round evaluation have
    // fresh intervals, then finalize. A cancelled scan is a partial pass, so
    // its results are never exact; after a full pass, a view is exact when
    // its skip ledger is clean.
    state.rounds += 1;
    let final_logs = RoundLogs::new(
        query.aggregate,
        bounder,
        view_budget.optstop_round(state.rounds as usize),
    )?;
    let full_pass = !state.converged && sink.cancellation.is_none();
    let rows_known = state.rows_known();
    let mut groups = Vec::with_capacity(state.views.len());
    for view in state.views.iter_mut() {
        groups.push(view.finalize(
            query.aggregate,
            rows_known,
            scramble_rows,
            &final_logs,
            full_pass,
        )?);
    }
    // Exact omits the groups of a GROUP BY that no row matched; the implicit
    // global group of an ungrouped query is always answered.
    if pass == Pass::Exact && !query.group_by.is_empty() {
        groups.retain(|g| g.samples > 0);
    }

    let selected = select_groups(query, &groups);
    let metrics = QueryMetrics {
        wall_time: start_time.elapsed(),
        rows_sampled: state.stats.rows_matched,
        rounds: state.rounds,
        stopped_early: state.converged,
        scan: state.stats,
        exec: state.exec,
        threads,
    };

    Ok(ProgressiveResult {
        snapshots: sink.snapshots,
        result: QueryResult {
            query_name: query.name.clone(),
            groups,
            selected,
            // Exact has nothing left to converge: its answer is final.
            converged: state.converged || pass == Pass::Exact,
            metrics,
        },
        cancellation: sink.cancellation,
    })
}

/// The block-scan loop shared by all strategies and passes. `planner`
/// decides one batch of [`DEFAULT_LOOKAHEAD_BATCH`] blocks at a time;
/// fetch-granted blocks accumulate into the current round's pending list and
/// are scanned by the partitioned pipeline (`rexec`) when the round fills up.
#[allow(clippy::too_many_arguments)]
fn run_scan_loop(
    source: &dyn BlockSource,
    query: &AggQuery,
    bounder: FlatBounder,
    view_budget: &DeltaBudget,
    scramble_rows: u64,
    start_block: usize,
    round_blocks: usize,
    rexec: &mut RoundExecutor<'_>,
    state: &mut ScanState,
    sink: &mut ProgressiveSink<'_, '_>,
    planner: &mut BlockPlanner<'_>,
) -> EngineResult<()> {
    // Scan order: every block once, from `start_block` on, wrapping around
    // (§5.2), taken one planner batch at a time.
    let mut order = source.layout().blocks_from(start_block);
    // Blocks granted to the current round but not yet scanned.
    let mut pending: Vec<BlockId> = Vec::with_capacity(round_blocks.min(source.num_blocks()));
    // Rows granted so far: rows already scanned plus the rows of `pending`.
    // The row cap is enforced here, at grant time, before a worker ever sees
    // the block — so `max_rows` cannot be exceeded however many threads scan.
    let mut granted_rows: u64 = 0;

    if sink.budget.max_rounds == Some(0) {
        sink.cancellation = Some(CancellationReason::RoundBudget);
        return Ok(());
    }

    let mut batch = Vec::new();
    'batches: loop {
        batch.clear();
        batch.extend(order.by_ref().take(DEFAULT_LOOKAHEAD_BATCH));
        // On a deadline, pending blocks are dropped unscanned: the deadline
        // wants the fastest possible valid answer, and unscanned grants are
        // simply rows the estimate never saw.
        if batch.is_empty() || sink.check_deadline() {
            break;
        }

        state.charge_skips(planner.planned_with());
        let checks = planner.plan(&batch, &state.active);
        state.stats.record_index_checks(checks);

        for (i, (&block, &fetch)) in batch.iter().zip(planner.decisions()).enumerate() {
            let rows = source.block_rows(block);
            let block_rows = (rows.end - rows.start) as u64;
            if !fetch {
                state.record_skip(block_rows, planner.skip_reason(i));
                continue;
            }
            if let Some(cap) = sink.budget.max_rows {
                if granted_rows + block_rows > cap {
                    sink.cancellation = Some(CancellationReason::RowBudget);
                    // Blocks already granted fit under the cap; scan them so
                    // the finalized answer uses every row the budget paid
                    // for.
                    merge_pending(source, rexec, &mut pending, state)?;
                    break 'batches;
                }
            }
            granted_rows += block_rows;
            pending.push(block);

            if pending.len() >= round_blocks {
                merge_pending(source, rexec, &mut pending, state)?;
                state.charge_skips(planner.planned_with());
                let (satisfied, group_snapshots) =
                    evaluate_round(query, bounder, view_budget, scramble_rows, state)?;
                let mut control = RoundControl::Continue;
                if sink.observer.is_some() {
                    let snapshot =
                        make_snapshot(state, &group_snapshots, satisfied, sink.start.elapsed());
                    if let Some(observer) = sink.observer.as_deref_mut() {
                        control = observer(&snapshot);
                    }
                    sink.snapshots.push(snapshot);
                }
                if satisfied {
                    state.converged = true;
                    break 'batches;
                }
                if control == RoundControl::Stop {
                    sink.cancellation = Some(CancellationReason::Caller);
                    break 'batches;
                }
                if sink
                    .budget
                    .max_rounds
                    .is_some_and(|cap| state.rounds >= cap)
                {
                    sink.cancellation = Some(CancellationReason::RoundBudget);
                    break 'batches;
                }
                if sink.check_deadline() {
                    break 'batches;
                }
            }
        }
    }
    // Scramble exhausted with a partial round outstanding: fold it in so
    // finalization sees every scanned row. (On cancellation the pending list
    // is either already merged — row budget — or intentionally dropped.)
    if sink.cancellation.is_none() {
        merge_pending(source, rexec, &mut pending, state)?;
    }
    Ok(())
}

/// Scans the pending blocks through the partitioned pipeline and merges the
/// partials into the master state in partition (block-id) order.
///
/// Fetch accounting is deliberately two-sided: the storage-level `ScanStats`
/// are derived here, on the coordinator, from the granted block list itself,
/// while `ExecMetrics` accumulates what the workers *report* having scanned.
/// A lost, duplicated or miscounted partition therefore shows up as a
/// divergence between the two — the invariant the end-to-end tests assert.
fn merge_pending(
    source: &dyn BlockSource,
    rexec: &mut RoundExecutor<'_>,
    pending: &mut Vec<BlockId>,
    state: &mut ScanState,
) -> EngineResult<()> {
    if pending.is_empty() {
        return Ok(());
    }
    // Every partition of the round starts each view's record from the
    // view's master as of now.
    rexec.seed_round(state.views.iter_mut().map(AggregateView::round_seed));
    // A block-read failure (storage rot caught mid-scan) fails the query;
    // the partly merged state is dropped with it.
    rexec.execute_round(pending, |partial| {
        state.exec.merge(&partial.exec);
        for (view, record) in partial.views() {
            // `ScanStats::rows_matched` is rebuilt from the per-view records
            // being merged, a different scan-side structure than the
            // `ExecMetrics` counter it is asserted against — a dropped or
            // double-merged view record diverges the two.
            state.stats.record_matches(record.all.count());
            state.views[*view as usize].absorb_partial(record);
        }
    })?;
    for &block in pending.iter() {
        let rows = source.block_rows(block);
        let block_rows = (rows.end - rows.start) as u64;
        state.stats.record_fetch(block_rows);
    }
    pending.clear();
    Ok(())
}

/// Packages the group snapshots of one completed round into a public
/// [`Snapshot`].
fn make_snapshot(
    state: &ScanState,
    group_snapshots: &[GroupSnapshot],
    converged: bool,
    elapsed: std::time::Duration,
) -> Snapshot {
    Snapshot {
        round: state.rounds,
        rows_scanned: state.stats.rows_scanned,
        blocks_fetched: state.stats.blocks_fetched,
        elapsed,
        converged,
        groups: group_snapshots
            .iter()
            .map(|s| GroupProgress {
                key: Arc::clone(&state.views[s.group].key),
                estimate: s.estimate,
                ci: s.ci,
                samples: s.samples,
            })
            .collect(),
    }
}

/// Recomputes every view's intervals with this round's decayed δ, evaluates
/// the stopping condition, and refreshes the active set. Returns the verdict
/// plus the per-view snapshots the verdict was computed from.
fn evaluate_round(
    query: &AggQuery,
    bounder: FlatBounder,
    view_budget: &DeltaBudget,
    scramble_rows: u64,
    state: &mut ScanState,
) -> EngineResult<(bool, Vec<GroupSnapshot>)> {
    state.rounds += 1;
    // Every view gets the same round budget: its log terms are computed
    // once here, not once per view.
    let logs = RoundLogs::new(
        query.aggregate,
        bounder,
        view_budget.optstop_round(state.rounds as usize),
    )?;
    let rows_known = state.rows_known();

    let mut snapshots: Vec<GroupSnapshot> = Vec::with_capacity(state.views.len());
    for view in state.views.iter_mut() {
        snapshots.push(view.round_update(query.aggregate, rows_known, scramble_rows, &logs)?);
    }

    let (satisfied, active_ids) = query.stopping.evaluate(&snapshots);
    if !satisfied {
        state.active = Arc::new(ActiveSet::of(active_ids));
    }
    Ok((satisfied, snapshots))
}

#[cfg(test)]
mod tests {
    use super::*;
    use fastframe_core::bounder::BounderKind;
    use fastframe_store::column::Column;
    use fastframe_store::expr::Expr;
    use fastframe_store::predicate::Predicate;
    use fastframe_store::scramble::Scramble;
    use fastframe_store::table::Table;

    /// A small synthetic table: 20_000 rows, three airlines with well
    /// separated mean delays, a filter column, and an outlier-widened range.
    fn test_scramble() -> Scramble {
        let n = 20_000usize;
        let mut delays = Vec::with_capacity(n);
        let mut airlines = Vec::with_capacity(n);
        let mut times = Vec::with_capacity(n);
        for i in 0..n {
            let airline = match i % 4 {
                0 | 1 => "AA",
                2 => "BB",
                _ => "CC",
            };
            // Deterministic pseudo-noise in [-5, 5).
            let noise = ((i * 2_654_435_761) % 1000) as f64 / 100.0 - 5.0;
            let base = match airline {
                "AA" => 5.0,
                "BB" => 20.0,
                _ => 40.0,
            };
            // A single outlier widens the catalog range well beyond the bulk
            // of the data (the base means top out at 45).
            let delay = if i == 1234 { 120.0 } else { base + noise };
            delays.push(delay);
            airlines.push(airline.to_string());
            times.push((600 + (i % 1200)) as i64);
        }
        let t = Table::new(vec![
            Column::float("delay", delays),
            Column::categorical("airline", &airlines),
            Column::int("dep_time", times),
        ])
        .unwrap();
        Scramble::build_with(&t, 7, 25).unwrap()
    }

    fn fast_config(bounder: BounderKind, strategy: SamplingStrategy) -> EngineConfig {
        EngineConfig::builder()
            .bounder(bounder)
            .strategy(strategy)
            .delta(1e-9)
            .round_rows(2_000)
            .start_block(0)
            .build()
    }

    /// Runs `q` over `s` to its final answer.
    fn run_approx(s: &Scramble, q: &AggQuery, cfg: &EngineConfig) -> EngineResult<QueryResult> {
        PreparedQuery::new(s, q.clone(), cfg.clone())?.execute()
    }

    /// Runs `q` over `s` progressively under `budget`.
    fn run_progressive(
        s: &Scramble,
        q: &AggQuery,
        cfg: &EngineConfig,
        budget: &Budget,
        observer: impl FnMut(&Snapshot) -> RoundControl,
    ) -> EngineResult<ProgressiveResult> {
        PreparedQuery::new(s, q.clone(), cfg.clone())?
            .with_budget(budget.clone())
            .stream(observer)
    }

    /// Runs the `Exact` baseline of `q` over `s`.
    fn run_exact(s: &Scramble, q: &AggQuery, cfg: &EngineConfig) -> EngineResult<QueryResult> {
        PreparedQuery::new(s, q.clone(), cfg.clone())?.execute_exact()
    }

    #[test]
    fn ungrouped_avg_with_relative_error_stops_early_and_is_close() {
        let s = test_scramble();
        let q = AggQuery::avg("avg-delay", Expr::col("delay"))
            .relative_error(0.2)
            .build();
        let cfg = fast_config(BounderKind::BernsteinRangeTrim, SamplingStrategy::Scan);
        let r = run_approx(&s, &q, &cfg).unwrap();
        assert_eq!(r.groups.len(), 1);
        let g = r.global().unwrap();
        // True mean ≈ (5 + 5 + 20 + 40)/4 = 17.5 plus a negligible outlier
        // contribution.
        let est = g.estimate.unwrap();
        assert!((est - 17.5).abs() < 2.0, "estimate {est}");
        assert!(g.ci.contains(est));
        assert!(r.converged, "should stop before the full pass");
        assert!(r.metrics.blocks_fetched() < s.num_blocks() as u64);
    }

    #[test]
    fn grouped_having_matches_ground_truth() {
        let s = test_scramble();
        let q = AggQuery::avg("having", Expr::col("delay"))
            .group_by("airline")
            .having_gt(15.0)
            .build();
        let cfg = fast_config(
            BounderKind::BernsteinRangeTrim,
            SamplingStrategy::ActiveSync,
        );
        let r = run_approx(&s, &q, &cfg).unwrap();
        let mut selected = r.selected_labels();
        selected.sort();
        assert_eq!(selected, vec!["BB".to_string(), "CC".to_string()]);
        assert_eq!(r.groups.len(), 3);
    }

    #[test]
    fn grouped_topk_selects_correct_group() {
        let s = test_scramble();
        let q = AggQuery::avg("top1", Expr::col("delay"))
            .group_by("airline")
            .order_desc_limit(1)
            .build();
        let cfg = fast_config(
            BounderKind::BernsteinRangeTrim,
            SamplingStrategy::ActivePeek,
        );
        let r = run_approx(&s, &q, &cfg).unwrap();
        assert_eq!(r.selected_labels(), vec!["CC".to_string()]);
    }

    #[test]
    fn all_strategies_agree_on_results() {
        let s = test_scramble();
        let q = AggQuery::avg("bottom1", Expr::col("delay"))
            .group_by("airline")
            .order_asc_limit(1)
            .build();
        for strategy in SamplingStrategy::ALL {
            let cfg = fast_config(BounderKind::BernsteinRangeTrim, strategy);
            let r = run_approx(&s, &q, &cfg).unwrap();
            assert_eq!(
                r.selected_labels(),
                vec!["AA".to_string()],
                "strategy {strategy}"
            );
        }
    }

    #[test]
    fn bernstein_fetches_fewer_blocks_than_hoeffding() {
        // The outlier-widened range hurts Hoeffding (PMA); Bernstein's
        // variance-sensitive width converges much faster.
        let s = test_scramble();
        let q = AggQuery::avg("cmp", Expr::col("delay"))
            .group_by("airline")
            .having_gt(15.0)
            .build();
        let hoef = run_approx(
            &s,
            &q,
            &fast_config(BounderKind::Hoeffding, SamplingStrategy::Scan),
        )
        .unwrap();
        let bern = run_approx(
            &s,
            &q,
            &fast_config(BounderKind::BernsteinRangeTrim, SamplingStrategy::Scan),
        )
        .unwrap();
        assert!(
            bern.metrics.blocks_fetched() <= hoef.metrics.blocks_fetched(),
            "bernstein {} vs hoeffding {}",
            bern.metrics.blocks_fetched(),
            hoef.metrics.blocks_fetched()
        );
        // Selections agree regardless.
        assert_eq!(
            {
                let mut v = bern.selected_labels();
                v.sort();
                v
            },
            {
                let mut v = hoef.selected_labels();
                v.sort();
                v
            }
        );
    }

    #[test]
    fn filtered_query_with_predicate() {
        let s = test_scramble();
        let q = AggQuery::avg("filtered", Expr::col("delay"))
            .filter(Predicate::cat_eq("airline", "BB"))
            .relative_error(0.2)
            .build();
        let cfg = fast_config(BounderKind::BernsteinRangeTrim, SamplingStrategy::Scan);
        let r = run_approx(&s, &q, &cfg).unwrap();
        let est = r.global().unwrap().estimate.unwrap();
        assert!((est - 20.0).abs() < 2.0, "estimate {est}");
    }

    #[test]
    fn count_query_brackets_truth() {
        let s = test_scramble();
        let q = AggQuery::count("count-bb")
            .filter(Predicate::cat_eq("airline", "BB"))
            .relative_error(0.1)
            .build();
        let cfg = fast_config(BounderKind::BernsteinRangeTrim, SamplingStrategy::Scan);
        let r = run_approx(&s, &q, &cfg).unwrap();
        let g = r.global().unwrap();
        // A quarter of 20_000 rows are "BB".
        assert!(g.ci.contains(5_000.0), "{:?}", g.ci);
    }

    #[test]
    fn sum_query_brackets_truth() {
        let s = test_scramble();
        let q = AggQuery::sum("sum-delay", Expr::col("delay"))
            .filter(Predicate::cat_eq("airline", "AA"))
            .relative_error(0.25)
            .build();
        let cfg = fast_config(BounderKind::BernsteinRangeTrim, SamplingStrategy::Scan);
        let r = run_approx(&s, &q, &cfg).unwrap();
        let g = r.global().unwrap();
        // Compare against the exact SUM over the AA rows (row 1234, the
        // outlier, is a "BB" row, so it does not contribute).
        let true_sum: f64 = (0..20_000usize)
            .filter(|i| i % 4 == 0 || i % 4 == 1)
            .map(|i| {
                let noise = ((i * 2_654_435_761) % 1000) as f64 / 100.0 - 5.0;
                5.0 + noise
            })
            .sum();
        assert!(
            g.ci.contains(true_sum),
            "{:?} should contain {true_sum}",
            g.ci
        );
    }

    #[test]
    fn threshold_query_single_group() {
        let s = test_scramble();
        let q = AggQuery::avg("thresh", Expr::col("delay"))
            .filter(Predicate::cat_eq("airline", "CC"))
            .stop_when(fastframe_core::stopping::StoppingCondition::ThresholdSide {
                threshold: 10.0,
            })
            .build();
        let cfg = fast_config(BounderKind::BernsteinRangeTrim, SamplingStrategy::Scan);
        let r = run_approx(&s, &q, &cfg).unwrap();
        let g = r.global().unwrap();
        assert!(
            g.ci.lo > 10.0,
            "CC's mean (~40) is decisively above 10: {:?}",
            g.ci
        );
        assert!(r.converged);
    }

    #[test]
    fn exhaustive_scan_marks_results_exact() {
        let s = test_scramble();
        // Impossible stopping condition → full pass → exact results.
        let q = AggQuery::avg("exact", Expr::col("delay"))
            .group_by("airline")
            .absolute_width(0.0)
            .build();
        let cfg = fast_config(BounderKind::BernsteinRangeTrim, SamplingStrategy::Scan);
        let r = run_approx(&s, &q, &cfg).unwrap();
        assert!(!r.converged);
        for g in &r.groups {
            assert!(g.exact);
            assert!(
                g.ci.width() < 1e-6,
                "exact interval should be (nearly) degenerate"
            );
        }
        // Sanity: the exact group means are the expected ones.
        let mean_of = |label: &str| {
            r.groups
                .iter()
                .find(|g| g.key.display() == label)
                .unwrap()
                .estimate
                .unwrap()
        };
        assert!((mean_of("AA") - 5.0).abs() < 0.5);
        assert!((mean_of("BB") - 20.0).abs() < 0.5);
        assert!((mean_of("CC") - 40.0).abs() < 0.5);
    }

    #[test]
    fn empty_scramble_is_rejected() {
        let t = Table::new(vec![Column::float("x", vec![])]).unwrap();
        let s = Scramble::build(&t, 1).unwrap();
        let q = AggQuery::avg("q", Expr::col("x")).build();
        let cfg = EngineConfig::default();
        assert!(matches!(
            run_approx(&s, &q, &cfg),
            Err(EngineError::EmptyScramble)
        ));
    }

    #[test]
    fn group_by_numeric_column_is_rejected() {
        let s = test_scramble();
        let q = AggQuery::avg("q", Expr::col("delay"))
            .group_by("delay")
            .build();
        let cfg = EngineConfig::default();
        assert!(matches!(
            run_approx(&s, &q, &cfg),
            Err(EngineError::InvalidGroupBy { .. })
        ));
    }

    #[test]
    fn metrics_are_populated() {
        let s = test_scramble();
        let q = AggQuery::avg("metrics", Expr::col("delay"))
            .relative_error(0.3)
            .build();
        let cfg = fast_config(BounderKind::BernsteinRangeTrim, SamplingStrategy::Scan);
        let r = run_approx(&s, &q, &cfg).unwrap();
        assert!(r.metrics.blocks_fetched() > 0);
        assert!(r.metrics.scan.rows_scanned > 0);
        assert!(r.metrics.rounds >= 1);
        assert!(r.metrics.wall_time.as_nanos() > 0);
        assert!(r.metrics.rows_sampled > 0);
    }

    #[test]
    fn progressive_snapshots_tighten_until_convergence() {
        let s = test_scramble();
        let q = AggQuery::avg("prog", Expr::col("delay"))
            .group_by("airline")
            .relative_error(0.3)
            .build();
        let cfg = fast_config(BounderKind::BernsteinRangeTrim, SamplingStrategy::Scan);
        let mut seen = 0usize;
        let mut observer = |_: &Snapshot| {
            seen += 1;
            RoundControl::Continue
        };
        let p = run_progressive(&s, &q, &cfg, &Budget::unlimited(), &mut observer).unwrap();
        assert!(
            p.rounds() >= 2,
            "expected several rounds, got {}",
            p.rounds()
        );
        assert_eq!(seen, p.rounds(), "observer sees every snapshot");
        assert!(p.cancellation.is_none());
        for pair in p.snapshots.windows(2) {
            for (a, b) in pair[0].groups.iter().zip(&pair[1].groups) {
                assert_eq!(a.key, b.key);
                assert!(
                    b.ci.width() <= a.ci.width() + 1e-12,
                    "running interval widened: {:?} -> {:?}",
                    a.ci,
                    b.ci
                );
                assert!(b.samples >= a.samples);
            }
        }
        assert!(p.last().unwrap().converged);
        assert!(p.converged());
    }

    /// Every round's snapshot shares each group's one key instead of
    /// copying it.
    #[test]
    fn snapshots_share_each_group_key_across_rounds() {
        let s = test_scramble();
        let q = AggQuery::avg("keys", Expr::col("delay"))
            .group_by("airline")
            .absolute_width(0.0)
            .build();
        let cfg = fast_config(BounderKind::BernsteinRangeTrim, SamplingStrategy::Scan);
        let mut observer = |_: &Snapshot| RoundControl::Continue;
        let budget = Budget::unlimited().max_rounds(2);
        let p = run_progressive(&s, &q, &cfg, &budget, &mut observer).unwrap();
        let [first, second] = &p.snapshots[..] else {
            panic!("expected two rounds, got {}", p.rounds());
        };
        assert_eq!(first.groups.len(), 3);
        for (a, b) in first.groups.iter().zip(&second.groups) {
            assert!(Arc::ptr_eq(&a.key, &b.key), "{}", a.key.display());
        }
    }

    #[test]
    fn row_budget_cancels_without_exceeding_the_cap() {
        let s = test_scramble();
        // Impossible stopping condition: only the budget can stop the scan.
        let q = AggQuery::avg("capped", Expr::col("delay"))
            .group_by("airline")
            .absolute_width(0.0)
            .build();
        let cfg = fast_config(BounderKind::BernsteinRangeTrim, SamplingStrategy::Scan);
        let cap = 4_321u64;
        let budget = Budget::unlimited().max_rows(cap);
        let mut observer = |_: &Snapshot| RoundControl::Continue;
        let p = run_progressive(&s, &q, &cfg, &budget, &mut observer).unwrap();
        assert_eq!(p.cancellation, Some(CancellationReason::RowBudget));
        assert!(!p.converged());
        assert!(p.result.metrics.scan.rows_scanned <= cap);
        for snap in &p.snapshots {
            assert!(snap.rows_scanned <= cap);
        }
        // The cancelled result is still a valid approximation.
        assert_eq!(p.result.groups.len(), 3);
        for g in &p.result.groups {
            assert!(!g.exact);
            assert!(g.ci.lo <= g.ci.hi);
        }
    }

    #[test]
    fn round_budget_and_caller_stop_cancel_the_scan() {
        let s = test_scramble();
        let q = AggQuery::avg("rounds", Expr::col("delay"))
            .group_by("airline")
            .absolute_width(0.0)
            .build();
        let cfg = fast_config(BounderKind::BernsteinRangeTrim, SamplingStrategy::Scan);

        let mut observer = |_: &Snapshot| RoundControl::Continue;
        let budget = Budget::unlimited().max_rounds(2);
        let p = run_progressive(&s, &q, &cfg, &budget, &mut observer).unwrap();
        assert_eq!(p.cancellation, Some(CancellationReason::RoundBudget));
        assert_eq!(p.rounds(), 2);

        let mut stopper = |snap: &Snapshot| {
            if snap.round >= 3 {
                RoundControl::Stop
            } else {
                RoundControl::Continue
            }
        };
        let p = run_progressive(&s, &q, &cfg, &Budget::unlimited(), &mut stopper).unwrap();
        assert_eq!(p.cancellation, Some(CancellationReason::Caller));
        assert_eq!(p.rounds(), 3);

        let mut observer = |_: &Snapshot| RoundControl::Continue;
        let p = run_progressive(
            &s,
            &q,
            &cfg,
            &Budget::unlimited().max_rounds(0),
            &mut observer,
        )
        .unwrap();
        assert_eq!(p.cancellation, Some(CancellationReason::RoundBudget));
        assert_eq!(p.rounds(), 0);
        assert_eq!(p.result.metrics.scan.rows_scanned, 0);
    }

    #[test]
    fn zero_deadline_cancels_immediately() {
        let s = test_scramble();
        let q = AggQuery::avg("deadline", Expr::col("delay"))
            .group_by("airline")
            .absolute_width(0.0)
            .build();
        let cfg = fast_config(BounderKind::BernsteinRangeTrim, SamplingStrategy::Scan);
        let budget = Budget::unlimited().deadline(std::time::Duration::ZERO);
        let mut observer = |_: &Snapshot| RoundControl::Continue;
        let p = run_progressive(&s, &q, &cfg, &budget, &mut observer).unwrap();
        assert_eq!(p.cancellation, Some(CancellationReason::Deadline));
        assert!(!p.converged());
        assert_eq!(p.result.groups.len(), 3);
    }

    #[test]
    fn drained_execute_matches_progressive_final_result() {
        let s = test_scramble();
        let q = AggQuery::avg("drain", Expr::col("delay"))
            .group_by("airline")
            .having_gt(15.0)
            .build();
        let cfg = fast_config(BounderKind::BernsteinRangeTrim, SamplingStrategy::Scan);
        let blocking = run_approx(&s, &q, &cfg).unwrap();
        let mut observer = |_: &Snapshot| RoundControl::Continue;
        let progressive =
            run_progressive(&s, &q, &cfg, &Budget::unlimited(), &mut observer).unwrap();
        assert_eq!(
            blocking.selected_labels(),
            progressive.result.selected_labels()
        );
        assert_eq!(
            blocking.metrics.blocks_fetched(),
            progressive.result.metrics.blocks_fetched()
        );
    }

    #[test]
    fn random_start_block_is_deterministic_per_seed() {
        let s = test_scramble();
        let q = AggQuery::avg("seeded", Expr::col("delay"))
            .relative_error(0.2)
            .build();
        let mut cfg = fast_config(BounderKind::BernsteinRangeTrim, SamplingStrategy::Scan);
        cfg.start_block = None;
        cfg.seed = 123;
        let a = run_approx(&s, &q, &cfg).unwrap();
        let b = run_approx(&s, &q, &cfg).unwrap();
        assert_eq!(a.global().unwrap().estimate, b.global().unwrap().estimate);
        assert_eq!(a.metrics.blocks_fetched(), b.metrics.blocks_fetched());
    }

    /// 1 000 rows, three airlines with constant delays 0 / 10 / 20.
    fn exact_scramble() -> Scramble {
        let n = 1_000usize;
        let delays: Vec<f64> = (0..n).map(|i| (i % 3) as f64 * 10.0).collect();
        let airlines: Vec<String> = (0..n).map(|i| format!("A{}", i % 3)).collect();
        let t = Table::new(vec![
            Column::float("delay", delays),
            Column::categorical("airline", &airlines),
        ])
        .unwrap();
        Scramble::build_with(&t, 1, 25).unwrap()
    }

    #[test]
    fn exact_group_means() {
        let s = exact_scramble();
        let q = AggQuery::avg("exact", Expr::col("delay"))
            .group_by("airline")
            .build();
        let r = run_exact(&s, &q, &EngineConfig::default()).unwrap();
        assert_eq!(r.groups.len(), 3);
        for g in &r.groups {
            assert!(g.exact);
            let (expected_mean, expected_count) = match g.key.display().as_str() {
                "A0" => (0.0, 334),
                "A1" => (10.0, 333),
                "A2" => (20.0, 333),
                other => panic!("unexpected group {other}"),
            };
            assert_eq!(g.estimate, Some(expected_mean));
            assert_eq!(g.samples, expected_count);
            let slack = 1e-9 * (expected_mean + 1.0);
            assert_eq!(g.ci.lo, expected_mean - slack);
            assert_eq!(g.ci.hi, expected_mean + slack);
        }
        assert_eq!(r.metrics.rows_sampled, 1_000);
        // Exact fetches every block, and never stops early.
        assert_eq!(r.metrics.blocks_fetched(), s.num_blocks() as u64);
        assert_eq!(r.metrics.exec.blocks_fetched, s.num_blocks() as u64);
        assert!(r.converged);
        assert!(!r.metrics.stopped_early);
    }

    #[test]
    fn exact_count_and_sum() {
        let s = exact_scramble();
        let config = EngineConfig::default();
        let count_q = AggQuery::count("c")
            .filter(Predicate::cat_eq("airline", "A1"))
            .build();
        let r = run_exact(&s, &count_q, &config).unwrap();
        assert_eq!(r.global().unwrap().estimate, Some(333.0));
        assert_eq!(r.global().unwrap().samples, 333);

        let sum_q = AggQuery::sum("s", Expr::col("delay"))
            .filter(Predicate::cat_eq("airline", "A2"))
            .build();
        let r = run_exact(&s, &sum_q, &config).unwrap();
        assert_eq!(r.global().unwrap().estimate, Some(20.0 * 333.0));
        assert_eq!(r.metrics.blocks_fetched(), s.num_blocks() as u64);
    }

    #[test]
    fn exact_having_selection() {
        let s = exact_scramble();
        let q = AggQuery::avg("h", Expr::col("delay"))
            .group_by("airline")
            .having_gt(5.0)
            .build();
        let r = run_exact(&s, &q, &EngineConfig::default()).unwrap();
        let mut labels = r.selected_labels();
        labels.sort();
        assert_eq!(labels, vec!["A1".to_string(), "A2".to_string()]);
    }

    #[test]
    fn exact_omits_groups_without_matching_rows() {
        let s = exact_scramble();
        let q = AggQuery::count("c")
            .filter(Predicate::cat_eq("airline", "A1"))
            .group_by("airline")
            .build();
        let r = run_exact(&s, &q, &EngineConfig::default()).unwrap();
        assert_eq!(r.groups.len(), 1);
        assert_eq!(r.groups[0].key.display(), "A1");
        assert_eq!(r.groups[0].estimate, Some(333.0));
    }

    #[test]
    fn exact_ungrouped_query_keeps_its_global_group() {
        let s = exact_scramble();
        let config = EngineConfig::default();
        let none = Predicate::num_gt("delay", 1e9);
        let q = AggQuery::count("c").filter(none.clone()).build();
        let r = run_exact(&s, &q, &config).unwrap();
        let global = r.global().unwrap();
        assert_eq!(global.estimate, Some(0.0));
        assert_eq!(global.samples, 0);

        let q = AggQuery::avg("a", Expr::col("delay")).filter(none).build();
        let r = run_exact(&s, &q, &config).unwrap();
        assert_eq!(r.global().unwrap().estimate, None);
    }

    /// A single +∞ makes the catalog range of its column non-finite, which
    /// the bounders reject; Exact computes no interval, so it still answers
    /// queries whose matching rows are finite.
    #[test]
    fn exact_answers_despite_a_non_finite_catalog_range() {
        let n = 100usize;
        let mut values: Vec<f64> = (0..n).map(|i| i as f64).collect();
        values[7] = f64::INFINITY;
        let t = Table::new(vec![Column::float("x", values)]).unwrap();
        let s = Scramble::build_with(&t, 1, 25).unwrap();
        let finite = Predicate::num_lt("x", 1e9);
        let expected_sum = (0..n).filter(|&i| i != 7).sum::<usize>() as f64;

        let q = AggQuery::sum("s", Expr::col("x")).filter(finite).build();
        let r = run_exact(&s, &q, &EngineConfig::default()).unwrap();
        let global = r.global().unwrap();
        assert_eq!(global.estimate, Some(expected_sum));
        assert_eq!(global.samples, n as u64 - 1);
    }

    /// A universe code outside its column's dictionary would alias another
    /// group's packed key, so building the group table refuses it.
    #[test]
    fn a_universe_code_outside_its_dictionary_is_a_typed_error() {
        let t = Table::new(vec![
            Column::categorical("g", &["x", "y", "z"]),
            Column::categorical("h", &["p", "q", "p"]),
        ])
        .unwrap();
        // Code 3 of `g` (three entries) packs to key 3, which is (x, q).
        let err = GroupLookup::build(&[0, 1], &t, &[vec![0, 1], vec![3, 0]])
            .err()
            .expect("an out-of-dictionary code is rejected");
        assert!(
            matches!(
                &err,
                EngineError::GroupCodeOutOfRange { column, code: 3, cardinality: 3 }
                    if column == "g"
            ),
            "{err:?}"
        );
        assert!(err.to_string().contains("`g`"), "{err}");

        // In range, rows route to their tuple's view or to no view: the
        // sink, one slot past the last view.
        struct Slots<'r>(&'r [usize]);
        impl WithRouter for Slots<'_> {
            type Output = Vec<usize>;
            fn apply(self, route: impl Fn(usize) -> usize) -> Vec<usize> {
                self.0.iter().map(|&row| route(row)).collect()
            }
        }
        let lookup = GroupLookup::build(&[0, 1], &t, &[vec![2, 1], vec![0, 0]]).unwrap();
        let sink = lookup.sink();
        assert_eq!(sink, 2);
        assert_eq!(lookup.route(&t, Slots(&[0, 1, 2])), vec![1, sink, sink]);
    }

    /// An integer-valued Exact SUM is exactly integral under any partition
    /// layout: the sum is accumulated value by value and added across
    /// partitions, not rebuilt as mean × count.
    #[test]
    fn exact_integer_sum_is_integral_at_any_partition_count() {
        for (rows, partitions) in [(199usize, 1u64), (1_700, 7), (16_385, 64)] {
            let values: Vec<f64> = (0..rows).map(|i| ((i * 7_919) % 1_013) as f64).collect();
            let expected = (0..rows).map(|i| (i * 7_919) % 1_013).sum::<usize>() as f64;
            let t = Table::new(vec![Column::float("x", values)]).unwrap();
            // One-row blocks: the Exact round has `rows` blocks.
            let s = Scramble::build_with(&t, 3, 1).unwrap();
            let q = AggQuery::sum("s", Expr::col("x")).build();
            let r = run_exact(&s, &q, &EngineConfig::default()).unwrap();
            assert_eq!(r.metrics.exec.partitions, partitions, "{rows} blocks");
            let sum = r.global().unwrap().estimate.unwrap();
            assert_eq!(sum, expected, "{partitions} partitions");
        }
    }

    #[test]
    fn exact_rejects_empty_and_bad_group_by() {
        let t = Table::new(vec![Column::float("x", vec![])]).unwrap();
        let s = Scramble::build(&t, 1).unwrap();
        let q = AggQuery::avg("q", Expr::col("x")).build();
        assert!(matches!(
            run_exact(&s, &q, &EngineConfig::default()),
            Err(EngineError::EmptyScramble)
        ));

        let s = exact_scramble();
        let q = AggQuery::avg("q", Expr::col("delay"))
            .group_by("delay")
            .build();
        assert!(matches!(
            run_exact(&s, &q, &EngineConfig::default()),
            Err(EngineError::InvalidGroupBy { .. })
        ));
    }

    #[test]
    fn skipped_rows_are_absent_only_from_views_active_at_planning_and_now() {
        // View 0 is active in the set the block was planned with and now;
        // view 1 re-entered the active set after planning; view 2 left it.
        let views = (0..3)
            .map(|id| {
                let key = GroupKey {
                    codes: vec![id as u32],
                    labels: vec![format!("g{id}")],
                };
                AggregateView::new(id, key, FlatBounder::Hoeffding, (0.0, 1.0))
            })
            .collect();
        let mut state = ScanState {
            views,
            stats: ScanStats::new(),
            exec: ExecMetrics::default(),
            rounds: 2,
            active: Arc::new(ActiveSet::of([0, 1])),
            rows_pruned: 0,
            uncharged_skips: 0,
            converged: false,
        };
        let planned = ActiveSet::of([0, 2]);
        state.record_skip(10, Skip::Inactive);
        state.record_skip(15, Skip::Inactive);
        // A pruned block's rows are known to every view at once, through
        // the rows of known membership, and charge no ledger.
        state.record_skip(7, Skip::Pruned);
        assert_eq!(state.rows_known(), 7);
        // Nothing is charged until the decision set is about to change.
        assert!(state.views.iter().all(|v| v.known_absent() == 0));
        state.charge_skips(&planned);

        assert_eq!(state.views[0].known_absent(), 25);
        assert!(state.views[0].denominator_clean());
        for view in &state.views[1..] {
            assert_eq!(view.known_absent(), 0, "view {}", view.id);
            assert!(!view.denominator_clean(), "view {}", view.id);
        }
        assert_eq!(state.stats.blocks_skipped, 3);

        // A charge with no skip since the last one changes no view.
        state.charge_skips(&ActiveSet::of([]));
        assert_eq!(state.views[0].known_absent(), 25);
        assert!(state.views[0].denominator_clean());
    }
}

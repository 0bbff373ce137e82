//! The query executor: OptStop rounds over a scramble scan with per-view
//! error bounders and active scanning, and the Exact baseline as one full
//! pass of the same scan.
//!
//! High-level flow (§4):
//!
//! 1. **Bind** the query against the scramble: resolve the target expression,
//!    predicate and GROUP BY columns, derive the range bounds `[a, b]` of the
//!    target expression from the catalog (Appendix B), and enumerate the
//!    group universe (one [`AggregateView`] per group).
//! 2. **Budget** the error probability: δ is split evenly across aggregate
//!    views (union bound), and within each view decayed per OptStop round as
//!    `(6/π²)·δ_view/k²` (Algorithm 5); each round's share is further split
//!    between the dataset-size bound `N⁺` and the mean CI (Theorem 3).
//! 3. **Scan** blocks of the scramble starting from a random position,
//!    skipping blocks according to the sampling strategy (predicate bitmap
//!    for all strategies, active-group bitmaps for ActiveSync/ActivePeek).
//! 4. After every `round_rows` rows worth of fetched blocks, recompute every
//!    view's confidence intervals, fold them into the running intervals, and
//!    evaluate the query's stopping condition; stop as soon as it is
//!    satisfied.
//! 5. **Finalize**: produce per-group results, apply HAVING / ORDER BY-LIMIT
//!    selection, and report metrics (wall time, blocks fetched, rounds). A
//!    run that scanned every block without stopping reports exact results.
//!
//! Execution is *progressive*: [`execute_progressive`] emits a [`Snapshot`]
//! of every group's running interval after each round, honours the
//! cancellation caps of a [`Budget`], and lets a per-round observer stop the
//! scan ([`RoundControl`]). The blocking [`execute_approx`] simply drains
//! that stream and keeps the finalized [`QueryResult`].
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
//! aggregate state per partition on a scoped worker pool
//! ([`EngineConfig::effective_threads`] workers), and merges the partials in
//! block-id order — so results are bit-for-bit identical at any thread
//! count. Budget row caps are enforced when blocks are *granted* to a round
//! (before any worker sees them), so `max_rows` is never exceeded under
//! concurrency.
//!
//! Within each partition, blocks execute **batch-at-a-time**: the predicate
//! runs as a columnar filter kernel emitting a selection vector, only the
//! columns the query references are decoded (projection pushdown on lazy
//! sources), selected rows are partitioned by group id once, and each
//! aggregate view receives one contiguous batch of values per block (see
//! `crate::parallel`).
//!
//! The `Exact` baseline ([`PreparedQuery::execute_exact`]) is a mode of the
//! same loop, not a second one: a planner that grants every block, a single
//! round that never fills (so no interval is computed mid-scan), and the
//! full-pass finalize. Approximate and exact answers therefore come from the
//! same kernels, merges and finalize.
//!
//! [`PreparedQuery::execute_exact`]: crate::session::PreparedQuery::execute_exact

use std::collections::HashMap;
use std::time::Instant;

use fastframe_core::bounder::BounderKind;
use fastframe_core::delta::DeltaBudget;
use fastframe_core::stopping::GroupSnapshot;
use fastframe_store::block::BlockId;
use fastframe_store::expr::BoundExpr;
use fastframe_store::predicate::BoundPredicate;
use fastframe_store::source::BlockSource;
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
use crate::sampling::{plan_batch, ActiveSet, PeekPlanner, PlanContext};
use crate::view::AggregateView;

/// A per-round observer: receives each round's [`Snapshot`] and decides
/// whether the scan continues.
pub type RoundObserver<'a> = dyn FnMut(&Snapshot) -> RoundControl + 'a;

/// A batch planner: maps a batch of blocks (plus the following batch, for
/// lookahead prefetching) and the current active set to fetch/skip decisions
/// and the number of bitmap probes performed.
type BatchPlannerFn<'a> =
    dyn FnMut(&[BlockId], Option<&[BlockId]>, &ActiveSet) -> (Vec<bool>, u64) + 'a;

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
/// blocks-fetched metric.
///
/// Returns the view keys and the row → view lookup built from the shared
/// tuples.
fn enumerate_groups(
    source: &dyn BlockSource,
    group_cols: &[usize],
) -> EngineResult<(Vec<GroupKey>, GroupLookup)> {
    if group_cols.is_empty() {
        return Ok((vec![GroupKey::global()], GroupLookup::Global));
    }

    let schema = source.schema();
    let tuples = source.distinct_group_tuples(group_cols)?;
    let keys = tuples
        .iter()
        .map(|codes| GroupKey {
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
        .collect();
    Ok((keys, GroupLookup::build(group_cols, schema, &tuples)))
}

/// Maps a row's group-by dictionary codes to its aggregate-view id without
/// any per-row heap allocation (the per-row cost of this lookup is on the
/// critical path of every fetched block). Shared read-only with the scan
/// workers of `crate::parallel`; the per-worker scratch key is passed in
/// by the caller.
pub(crate) enum GroupLookup {
    /// Ungrouped query: everything routes to the single global view.
    Global,
    /// Single GROUP BY column: a dense code → view-id table.
    SingleColumn {
        /// Index of the group-by column.
        column: usize,
        /// `views_by_code[code]` is the view id, or `u32::MAX` if the code
        /// never occurs (impossible for codes produced by the column itself).
        views_by_code: Vec<u32>,
    },
    /// Multiple GROUP BY columns: hash lookup with a reusable scratch key.
    Multi {
        columns: Vec<usize>,
        lookup: HashMap<Vec<u32>, usize>,
    },
}

impl GroupLookup {
    /// The lookup for a non-empty GROUP BY whose view `i` is `tuples[i]`.
    fn build(group_cols: &[usize], table: &Table, tuples: &[Vec<u32>]) -> Self {
        match group_cols {
            [column] => {
                let cardinality = table
                    .column_at(*column)
                    .cardinality()
                    .unwrap_or(tuples.len());
                let mut views_by_code = vec![u32::MAX; cardinality];
                for (view, codes) in tuples.iter().enumerate() {
                    if let Some(slot) = views_by_code.get_mut(codes[0] as usize) {
                        *slot = view as u32;
                    }
                }
                GroupLookup::SingleColumn {
                    column: *column,
                    views_by_code,
                }
            }
            _ => GroupLookup::Multi {
                columns: group_cols.to_vec(),
                lookup: tuples
                    .iter()
                    .enumerate()
                    .map(|(view, codes)| (codes.clone(), view))
                    .collect(),
            },
        }
    }

    /// The view id for `row`, if its group exists.
    #[inline]
    pub(crate) fn view_of(
        &self,
        table: &Table,
        row: usize,
        scratch: &mut Vec<u32>,
    ) -> Option<usize> {
        match self {
            GroupLookup::Global => Some(0),
            GroupLookup::SingleColumn {
                column,
                views_by_code,
            } => {
                let code = table.column_at(*column).category_code(row)? as usize;
                match views_by_code.get(code) {
                    Some(&v) if v != u32::MAX => Some(v as usize),
                    _ => None,
                }
            }
            GroupLookup::Multi { columns, lookup } => {
                scratch.clear();
                for &ci in columns {
                    // A column with no code at this row (it is not
                    // categorical) means the row belongs to no group.
                    // (Binding rejects non-categorical GROUP BY columns, so
                    // this is a defensive invariant, not a reachable
                    // fallback.)
                    match table.column_at(ci).category_code(row) {
                        Some(code) => scratch.push(code),
                        None => return None,
                    }
                }
                lookup.get(scratch).copied()
            }
        }
    }
}

/// Mutable scan state owned by the coordinating thread. Workers never touch
/// it: they report `crate::parallel::PartitionPartial`s that are merged in
/// here between rounds.
struct ScanState {
    views: Vec<AggregateView>,
    ever_inactive: Vec<bool>,
    /// View ids in the current active set (all views before the first round).
    active_view_ids: Vec<usize>,
    rows_scanned: u64,
    stats: ScanStats,
    /// Worker-side counters, merged per round in partition order.
    exec: ExecMetrics,
    rounds: u64,
    active: ActiveSet,
    any_active_skip: bool,
    converged: bool,
}

impl ScanState {
    /// Accounts for a skipped block: rows of the block are provably absent
    /// from every *active* view (and, before the first round, from every
    /// view, since the only skips possible then are predicate-level ones);
    /// every other view's selectivity denominator is marked unclean.
    fn record_skipped_block(&mut self, rows: u64) {
        self.stats.record_skip();
        if !self.active.initialized {
            for view in &mut self.views {
                view.record_absent(rows);
            }
            return;
        }
        self.any_active_skip = true;
        let mut is_active = vec![false; self.views.len()];
        for &id in &self.active_view_ids {
            is_active[id] = true;
        }
        for (view, active) in self.views.iter_mut().zip(is_active) {
            if active {
                view.record_absent(rows);
            } else {
                view.mark_denominator_unclean();
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

/// Executes `query` approximately with early stopping, blocking until the
/// stopping condition is satisfied or the scramble is exhausted — the
/// drained form of the progressive stream, with an unlimited [`Budget`].
pub fn execute_approx(
    source: &dyn BlockSource,
    query: &AggQuery,
    config: &EngineConfig,
) -> EngineResult<QueryResult> {
    execute_budgeted(source, query, config, &Budget::unlimited())
}

/// Executes `query` approximately with early stopping and the caps of
/// `budget`, blocking for the final (possibly unconverged) result. No
/// per-round snapshots are materialized.
pub fn execute_budgeted(
    source: &dyn BlockSource,
    query: &AggQuery,
    config: &EngineConfig,
    budget: &Budget,
) -> EngineResult<QueryResult> {
    run_progressive(source, query, config, budget, None, Pass::Approximate)
        .map(ProgressiveResult::into_result)
}

/// Executes an approximate query over a block source progressively: after
/// every OptStop round the current per-group state is snapshotted, appended
/// to the returned [`ProgressiveResult`], and offered to `observer`, which
/// may stop the scan. The caps of `budget` are enforced during the scan; a
/// cancelled execution finalizes the current (valid, unconverged) state
/// rather than erroring.
pub fn execute_progressive(
    source: &dyn BlockSource,
    query: &AggQuery,
    config: &EngineConfig,
    budget: &Budget,
    observer: &mut RoundObserver<'_>,
) -> EngineResult<ProgressiveResult> {
    run_progressive(
        source,
        query,
        config,
        budget,
        Some(observer),
        Pass::Approximate,
    )
}

/// Executes `query` exactly: the `Exact` baseline of §5.2, run as one full
/// pass of the same pipeline. Every block is fetched (so its block count is
/// comparable with an approximate run's) and the views are finalized as a
/// full pass, so each result is marked exact with the interval
/// `estimate ± 1e-9·(|estimate| + 1)`. GROUP BY groups without a matching
/// row are omitted; an ungrouped query always answers its global group.
///
/// Of `config` only an explicit thread count applies: Exact ignores the
/// strategy, start block, δ and any [`Budget`]. Left on auto (`0`), it scans
/// on one thread, as the paper's baseline does, so its timings stay
/// comparable with single-threaded approximate runs and it holds one
/// partial at a time.
pub(crate) fn execute_exact(
    source: &dyn BlockSource,
    query: &AggQuery,
    config: &EngineConfig,
) -> EngineResult<QueryResult> {
    // Hoeffding's estimator keeps only (count, mean), the least state that
    // yields the mean; its interval is never reported.
    let config = EngineConfig {
        bounder: BounderKind::Hoeffding,
        start_block: Some(0),
        threads: config.threads.max(1),
        ..EngineConfig::default()
    };
    run_progressive(
        source,
        query,
        &config,
        &Budget::unlimited(),
        None,
        Pass::Exact,
    )
    .map(ProgressiveResult::into_result)
}

/// What a run scans and how it finishes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Pass {
    /// OptStop rounds over the blocks the sampling strategy grants, until
    /// the stopping condition holds.
    Approximate,
    /// Every block in a single round, with no interval work before the
    /// full-pass finalize.
    Exact,
}

/// Shared implementation of every execution mode: `observer` being `None`
/// selects blocking mode, which skips snapshot materialization entirely.
fn run_progressive(
    source: &dyn BlockSource,
    query: &AggQuery,
    config: &EngineConfig,
    budget: &Budget,
    observer: Option<&mut RoundObserver<'_>>,
    pass: Pass,
) -> EngineResult<ProgressiveResult> {
    let start_time = Instant::now();
    let bound = bind_query(source, query)?;
    let scramble_rows = source.num_rows() as u64;

    // δ budgeting: split across aggregate views (union bound, §4.1).
    let view_budget =
        DeltaBudget::new(DeltaBudget::new(config.delta)?.split_even(bound.view_parts))?;

    // Group universe and per-group views.
    let (keys, lookup) = enumerate_groups(source, &bound.group_cols)?;
    let views: Vec<AggregateView> = keys
        .into_iter()
        .enumerate()
        .map(|(id, key)| AggregateView::new(id, key, config.bounder, bound.range))
        .collect();
    let ever_inactive = vec![false; views.len()];

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
        Pass::Approximate => {
            let block_size = source.layout().block_size().max(1);
            ((config.round_rows as usize).div_ceil(block_size)).max(1)
        }
        Pass::Exact => usize::MAX,
    };
    let batch_size = config.lookahead_batch.max(1);

    let all_view_ids: Vec<usize> = (0..views.len()).collect();
    let num_views = views.len();
    let mut state = ScanState {
        views,
        ever_inactive,
        active_view_ids: all_view_ids,
        rows_scanned: 0,
        stats: ScanStats::new(),
        exec: ExecMetrics::default(),
        rounds: 0,
        active: ActiveSet::all_active(),
        any_active_skip: false,
        converged: false,
    };
    let mut sink = ProgressiveSink {
        budget,
        observer,
        snapshots: Vec::new(),
        start: start_time,
        cancellation: None,
    };

    // Shared, read-only context for the scan workers of the partitioned
    // pipeline; the thread count never influences results (see
    // `crate::parallel`). `threads` is the pool size actually used (clamped
    // to the per-round partition cap), so metrics report reality.
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
        bounder: config.bounder,
        lookup: &lookup,
        num_views,
        projection,
    };

    // Runs the scan loop under a batch planner.
    let mut scan = |planner: &mut BatchPlannerFn<'_>| {
        with_round_executor(&scan_ctx, threads, |rexec| {
            run_scan_loop(
                source,
                query,
                config,
                &view_budget,
                scramble_rows,
                start_block,
                round_blocks,
                batch_size,
                rexec,
                &mut state,
                &mut sink,
                planner,
            )
        })
    };
    // Numeric range conjuncts feed zone-map block skipping (all strategies).
    let range_filters = query.filter.range_filters();
    let plan_context = || {
        PlanContext::new(
            source,
            &query.group_by,
            bound.predicate_eq.clone(),
            &range_filters,
            config.strategy,
        )
    };
    match (pass, config.strategy) {
        (Pass::Exact, _) => {
            scan(
                &mut |chunk: &[BlockId], _: Option<&[BlockId]>, _: &ActiveSet| {
                    (vec![true; chunk.len()], 0)
                },
            )?;
        }
        (Pass::Approximate, SamplingStrategy::Scan | SamplingStrategy::ActiveSync) => {
            let ctx = plan_context();
            scan(
                &mut |chunk: &[BlockId], _: Option<&[BlockId]>, active: &ActiveSet| {
                    plan_batch(&ctx, chunk, active)
                },
            )?;
        }
        (Pass::Approximate, SamplingStrategy::ActivePeek) => {
            let fallback_ctx = plan_context();
            let (mut peek, worker) = PeekPlanner::new(plan_context());
            std::thread::scope(|scope| -> EngineResult<()> {
                scope.spawn(worker);
                let out = scan(&mut |chunk: &[BlockId],
                                     next: Option<&[BlockId]>,
                                     active: &ActiveSet| {
                    let current = peek
                        .collect()
                        .unwrap_or_else(|| plan_batch(&fallback_ctx, chunk, active));
                    if let Some(next) = next {
                        peek.prefetch(next, active);
                    }
                    current
                });
                // `peek` is dropped before the scope ends, closing the
                // request channel so the worker thread exits before the scope
                // joins it.
                drop(peek);
                out
            })?;
        }
    }

    // Final round so that views updated since the last round evaluation have
    // fresh intervals, then finalize. A cancelled scan is a partial pass, so
    // its results are never exact.
    state.rounds += 1;
    let final_delta = view_budget.optstop_round(state.rounds as usize);
    let full_pass = !state.converged && sink.cancellation.is_none();
    let mut groups = Vec::with_capacity(state.views.len());
    for (i, view) in state.views.iter_mut().enumerate() {
        let exact = full_pass && !(state.any_active_skip && state.ever_inactive[i]);
        groups.push(view.finalize(
            query.aggregate,
            state.rows_scanned,
            scramble_rows,
            final_delta,
            config.alpha,
            exact,
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

/// The block-scan loop shared by all strategies. `planner` maps a batch of
/// blocks (plus the following batch, for lookahead prefetching) to fetch/skip
/// decisions; fetch-granted blocks accumulate into the current round's
/// pending list and are scanned by the partitioned pipeline (`rexec`) when
/// the round fills up.
#[allow(clippy::too_many_arguments)]
fn run_scan_loop(
    source: &dyn BlockSource,
    query: &AggQuery,
    config: &EngineConfig,
    view_budget: &DeltaBudget,
    scramble_rows: u64,
    start_block: usize,
    round_blocks: usize,
    batch_size: usize,
    rexec: &RoundExecutor<'_>,
    state: &mut ScanState,
    sink: &mut ProgressiveSink<'_, '_>,
    planner: &mut BatchPlannerFn<'_>,
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

    let mut next: Vec<BlockId> = order.by_ref().take(batch_size).collect();
    'batches: while !next.is_empty() {
        if sink.check_deadline() {
            // Pending blocks are dropped unscanned: the deadline wants the
            // fastest possible valid answer, and unscanned grants are simply
            // rows the estimate never saw.
            break 'batches;
        }
        let chunk = std::mem::replace(&mut next, order.by_ref().take(batch_size).collect());
        let lookahead = (!next.is_empty()).then_some(next.as_slice());

        let (decisions, checks) = planner(&chunk, lookahead, &state.active);
        state.stats.record_index_checks(checks);

        for (offset, &block) in chunk.iter().enumerate() {
            let fetch = decisions.get(offset).copied().unwrap_or(true);
            let rows = source.block_rows(block);
            let block_rows = (rows.end - rows.start) as u64;
            if !fetch {
                state.record_skipped_block(block_rows);
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
                let (satisfied, group_snapshots) =
                    evaluate_round(query, config, view_budget, scramble_rows, state)?;
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
    rexec: &RoundExecutor<'_>,
    pending: &mut Vec<BlockId>,
    state: &mut ScanState,
) -> EngineResult<()> {
    if pending.is_empty() {
        return Ok(());
    }
    // A block-read failure (storage rot caught mid-scan) fails the query;
    // the partly merged state is dropped with it.
    rexec.execute_round(pending, |partial| {
        state.exec.merge(&partial.exec);
        // Selection-funnel counter: how many decoded rows survived the
        // predicate. Worker-reported (the coordinator cannot know it), so
        // it is single-sourced — unlike the two-sided fetch accounting
        // below.
        state.stats.record_selected(partial.exec.rows_selected);
        for vp in partial.views {
            // `ScanStats::rows_matched` is rebuilt from the per-view deltas
            // being merged, a different worker-side structure than the
            // `ExecMetrics` counter it is asserted against — a dropped or
            // double-merged view partial diverges the two.
            state.stats.record_matches(vp.matched);
            state.views[vp.view].absorb_partial(vp.matched, vp.estimator.as_ref());
        }
    })?;
    for &block in pending.iter() {
        let rows = source.block_rows(block);
        let block_rows = (rows.end - rows.start) as u64;
        state.stats.record_fetch(block_rows);
        state.rows_scanned += block_rows;
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
        rows_scanned: state.rows_scanned,
        blocks_fetched: state.stats.blocks_fetched,
        elapsed,
        converged,
        groups: group_snapshots
            .iter()
            .map(|s| GroupProgress {
                key: state.views[s.group].key.clone(),
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
    config: &EngineConfig,
    view_budget: &DeltaBudget,
    scramble_rows: u64,
    state: &mut ScanState,
) -> EngineResult<(bool, Vec<GroupSnapshot>)> {
    state.rounds += 1;
    state.stats.record_round();
    let round_delta = view_budget.optstop_round(state.rounds as usize);

    let mut snapshots: Vec<GroupSnapshot> = Vec::with_capacity(state.views.len());
    for view in state.views.iter_mut() {
        snapshots.push(view.round_update(
            query.aggregate,
            state.rows_scanned,
            scramble_rows,
            round_delta,
            config.alpha,
        )?);
    }

    let satisfied = query.stopping.is_satisfied(&snapshots);
    if !satisfied {
        let active_ids = query.stopping.active_groups(&snapshots);
        let active_lookup: std::collections::HashSet<usize> = active_ids.iter().copied().collect();
        for (i, flag) in state.ever_inactive.iter_mut().enumerate() {
            if !active_lookup.contains(&i) {
                *flag = true;
            }
        }
        state.active = ActiveSet::of(
            active_ids
                .iter()
                .map(|&id| state.views[id].key.codes.clone())
                .collect(),
        );
        state.active_view_ids = active_ids;
    }
    Ok((satisfied, snapshots))
}

#[cfg(test)]
mod tests {
    use super::*;
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
        Scramble::build_with(&t, 7, 25, 0.0).unwrap()
    }

    fn fast_config(bounder: BounderKind, strategy: SamplingStrategy) -> EngineConfig {
        EngineConfig::with_bounder(bounder)
            .strategy(strategy)
            .delta(1e-9)
            .round_rows(2_000)
            .start_block(0)
    }

    #[test]
    fn ungrouped_avg_with_relative_error_stops_early_and_is_close() {
        let s = test_scramble();
        let q = AggQuery::avg("avg-delay", Expr::col("delay"))
            .relative_error(0.2)
            .build();
        let cfg = fast_config(BounderKind::BernsteinRangeTrim, SamplingStrategy::Scan);
        let r = execute_approx(&s, &q, &cfg).unwrap();
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
        let r = execute_approx(&s, &q, &cfg).unwrap();
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
        let r = execute_approx(&s, &q, &cfg).unwrap();
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
            let r = execute_approx(&s, &q, &cfg).unwrap();
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
        let hoef = execute_approx(
            &s,
            &q,
            &fast_config(BounderKind::Hoeffding, SamplingStrategy::Scan),
        )
        .unwrap();
        let bern = execute_approx(
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
        let r = execute_approx(&s, &q, &cfg).unwrap();
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
        let r = execute_approx(&s, &q, &cfg).unwrap();
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
        let r = execute_approx(&s, &q, &cfg).unwrap();
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
        let r = execute_approx(&s, &q, &cfg).unwrap();
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
        let r = execute_approx(&s, &q, &cfg).unwrap();
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
            execute_approx(&s, &q, &cfg),
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
            execute_approx(&s, &q, &cfg),
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
        let r = execute_approx(&s, &q, &cfg).unwrap();
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
        let p = execute_progressive(&s, &q, &cfg, &Budget::unlimited(), &mut observer).unwrap();
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
        let p = execute_progressive(&s, &q, &cfg, &budget, &mut observer).unwrap();
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
        let p = execute_progressive(&s, &q, &cfg, &budget, &mut observer).unwrap();
        assert_eq!(p.cancellation, Some(CancellationReason::RoundBudget));
        assert_eq!(p.rounds(), 2);

        let mut stopper = |snap: &Snapshot| {
            if snap.round >= 3 {
                RoundControl::Stop
            } else {
                RoundControl::Continue
            }
        };
        let p = execute_progressive(&s, &q, &cfg, &Budget::unlimited(), &mut stopper).unwrap();
        assert_eq!(p.cancellation, Some(CancellationReason::Caller));
        assert_eq!(p.rounds(), 3);

        let mut observer = |_: &Snapshot| RoundControl::Continue;
        let p = execute_progressive(
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
        let p = execute_progressive(&s, &q, &cfg, &budget, &mut observer).unwrap();
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
        let blocking = execute_approx(&s, &q, &cfg).unwrap();
        let mut observer = |_: &Snapshot| RoundControl::Continue;
        let progressive =
            execute_progressive(&s, &q, &cfg, &Budget::unlimited(), &mut observer).unwrap();
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
        let a = execute_approx(&s, &q, &cfg).unwrap();
        let b = execute_approx(&s, &q, &cfg).unwrap();
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
        Scramble::build_with(&t, 1, 25, 0.0).unwrap()
    }

    #[test]
    fn exact_group_means() {
        let s = exact_scramble();
        let q = AggQuery::avg("exact", Expr::col("delay"))
            .group_by("airline")
            .build();
        let r = execute_exact(&s, &q, &EngineConfig::default()).unwrap();
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
        let r = execute_exact(&s, &count_q, &config).unwrap();
        assert_eq!(r.global().unwrap().estimate, Some(333.0));
        assert_eq!(r.global().unwrap().samples, 333);

        let sum_q = AggQuery::sum("s", Expr::col("delay"))
            .filter(Predicate::cat_eq("airline", "A2"))
            .build();
        let r = execute_exact(&s, &sum_q, &config).unwrap();
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
        let r = execute_exact(&s, &q, &EngineConfig::default()).unwrap();
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
        let r = execute_exact(&s, &q, &EngineConfig::default()).unwrap();
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
        let r = execute_exact(&s, &q, &config).unwrap();
        let global = r.global().unwrap();
        assert_eq!(global.estimate, Some(0.0));
        assert_eq!(global.samples, 0);

        let q = AggQuery::avg("a", Expr::col("delay")).filter(none).build();
        let r = execute_exact(&s, &q, &config).unwrap();
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
        let s = Scramble::build_with(&t, 1, 25, 0.0).unwrap();
        let finite = Predicate::num_lt("x", 1e9);
        let expected_sum = (0..n).filter(|&i| i != 7).sum::<usize>() as f64;

        let q = AggQuery::sum("s", Expr::col("x")).filter(finite).build();
        let r = execute_exact(&s, &q, &EngineConfig::default()).unwrap();
        let global = r.global().unwrap();
        assert_eq!(global.estimate, Some(expected_sum));
        assert_eq!(global.samples, n as u64 - 1);
    }

    #[test]
    fn exact_rejects_empty_and_bad_group_by() {
        let t = Table::new(vec![Column::float("x", vec![])]).unwrap();
        let s = Scramble::build(&t, 1).unwrap();
        let q = AggQuery::avg("q", Expr::col("x")).build();
        assert!(matches!(
            execute_exact(&s, &q, &EngineConfig::default()),
            Err(EngineError::EmptyScramble)
        ));

        let s = exact_scramble();
        let q = AggQuery::avg("q", Expr::col("delay"))
            .group_by("delay")
            .build();
        assert!(matches!(
            execute_exact(&s, &q, &EngineConfig::default()),
            Err(EngineError::InvalidGroupBy { .. })
        ));
    }
}

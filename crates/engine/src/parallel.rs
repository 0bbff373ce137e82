//! The partitioned scan/aggregation pipeline: a crossbeam-scoped worker pool
//! that evaluates predicates and accumulates per-partition partial aggregate
//! state, merged back deterministically in block-id order.
//!
//! ## Design
//!
//! Each OptStop round plans a list of blocks to fetch. That list is split
//! into contiguous **partitions** whose boundaries depend only on the list
//! length (see [`partition_size`]) — never on the thread count. Workers pull
//! partitions off a shared job queue, scan each partition's blocks in block
//! order into a fresh [`PartitionPartial`] (per-view estimator partials plus
//! a private [`ExecMetrics`] counter block, so no counter is shared between
//! threads), and send the partial back. The coordinator merges the
//! partials **in partition order** into the master views, each as soon as
//! it and every earlier partition are done, so only partials that overtook
//! a slower predecessor are ever held (inline, exactly one).
//!
//! Because the partition layout and the merge order are pure functions of
//! the planned block list, the merged estimator states — and every
//! estimate, variance and CI bound derived from them — are bit-for-bit
//! identical at any thread count, including `threads = 1`, which runs the
//! exact same partition/merge code inline without spawning.
//!
//! The pool lives for the whole query (workers are spawned once inside a
//! `crossbeam::thread::scope` and fed rounds through channels), so per-round
//! overhead is a handful of channel operations, not thread spawns.
//!
//! ## Batch execution
//!
//! Within a partition, each block goes through one batch loop: the
//! partition's blocks are read through projection pushdown
//! ([`BlockSource::scan_blocks`] decodes only the columns the query
//! references, and the segment backing fetches runs of consecutive blocks
//! with one read), the predicate runs as a
//! columnar filter kernel producing a [`SelectionVector`], the selected rows
//! are partitioned by group id once, and every touched aggregate view gets
//! one contiguous batch of target values per block
//! ([`MeanEstimator::observe_batch`], a single virtual dispatch per
//! (block, view) pair). Each view receives its values in ascending row
//! order.
//!
//! This is the only code that scans rows. Approximate OptStop rounds and the
//! Exact baseline (one round over every block) both run through it;
//! `tests/reference.rs` checks both against a naive row-at-a-time
//! evaluator.
//!
//! [`MeanEstimator::observe_batch`]:
//!     fastframe_core::bounder::MeanEstimator::observe_batch
//! [`BlockSource::scan_blocks`]:
//!     fastframe_store::source::BlockSource::scan_blocks

use std::ops::ControlFlow;

use fastframe_core::bounder::{BounderKind, BoxedEstimator};

use fastframe_store::block::BlockId;
use fastframe_store::expr::BoundExpr;
use fastframe_store::selection::{SelectionScratch, SelectionVector};
use fastframe_store::source::BlockSource;
use fastframe_store::table::Table;

use crate::executor::{BoundQuery, GroupLookup};
use crate::metrics::ExecMetrics;
use crate::query::AggregateFunction;

/// Upper bound on the number of partitions a round is split into. The
/// partition layout must be independent of the thread count (determinism),
/// so this is a constant rather than a multiple of the pool size; 64 keeps
/// partitions comfortably ahead of any realistic core count while keeping
/// the per-round merge cost trivial.
pub(crate) const TARGET_PARTITIONS: usize = 64;

/// Number of blocks per partition for a round of `total` planned blocks —
/// a pure function of `total`, never of the thread count.
pub(crate) fn partition_size(total: usize) -> usize {
    total.div_ceil(TARGET_PARTITIONS).max(1)
}

/// The pool size actually used for a requested thread count: at least 1,
/// and clamped to [`TARGET_PARTITIONS`] — a round never has more jobs, so
/// extra workers could only idle, and the clamp keeps an absurd setting
/// (or `FASTFRAME_THREADS` value) from exhausting OS thread limits. This is
/// also the value reported in `QueryMetrics::threads`.
pub(crate) fn effective_pool_size(threads: usize) -> usize {
    threads.clamp(1, TARGET_PARTITIONS)
}

/// Everything a scan worker needs to process a partition: shared, read-only
/// per-query state.
pub(crate) struct ScanContext<'a> {
    /// The block source under scan (in-memory scramble or on-disk segment).
    pub source: &'a dyn BlockSource,
    /// The bound query (predicate, target expression, group columns).
    pub bound: &'a BoundQuery,
    /// The query's aggregate function.
    pub aggregate: AggregateFunction,
    /// Bounder kind used to create per-partition estimator partials.
    pub bounder: BounderKind,
    /// Row → aggregate-view routing.
    pub lookup: &'a GroupLookup,
    /// Total number of aggregate views.
    pub num_views: usize,
    /// Column indexes the query references (ascending), pushed down to the
    /// block source so lazy backings decode only those chunks.
    pub projection: Vec<usize>,
}

/// One aggregate view's accumulation over one partition.
pub(crate) struct ViewPartial {
    /// View id (index into the executor's view list).
    pub view: usize,
    /// Rows routed to the view in this partition.
    pub matched: u64,
    /// Estimator partial of the view's bounder kind.
    pub estimator: BoxedEstimator,
}

/// The result of scanning one partition.
pub(crate) struct PartitionPartial {
    /// Partition index within the round (merge key).
    pub index: usize,
    /// Worker-private counters for this partition.
    pub exec: ExecMetrics,
    /// Touched views in ascending view-id order.
    pub views: Vec<ViewPartial>,
    /// A block read failure (I/O error or chunk corruption detected mid
    /// scan); the coordinator fails the query with it instead of merging.
    pub error: Option<fastframe_store::table::StoreError>,
    /// The payload of a panic raised during the worker's scan, carried back
    /// so the coordinator can resume it with its original message.
    pub panic: Option<Box<dyn std::any::Any + Send>>,
}

/// Above this many aggregate views, partitions accumulate into a sorted map
/// instead of a dense per-view slot vector: a dense vector would cost
/// O(partitions × num_views) initialization and sweep per round even when
/// each partition touches a handful of groups.
const DENSE_VIEW_LIMIT: usize = 4096;

/// Per-partition view accumulator: dense slots for small group universes
/// (index = one array access on the row hot path), a sorted map for large
/// ones. Both emit touched views in ascending view-id order.
enum PartialViews {
    Dense(Vec<Option<(u64, BoxedEstimator)>>),
    Sparse(std::collections::BTreeMap<usize, (u64, BoxedEstimator)>),
}

impl PartialViews {
    fn new(num_views: usize) -> Self {
        if num_views <= DENSE_VIEW_LIMIT {
            PartialViews::Dense((0..num_views).map(|_| None).collect())
        } else {
            PartialViews::Sparse(std::collections::BTreeMap::new())
        }
    }

    #[inline]
    fn slot(&mut self, view_id: usize, bounder: BounderKind) -> &mut (u64, BoxedEstimator) {
        match self {
            PartialViews::Dense(slots) => {
                slots[view_id].get_or_insert_with(|| (0, bounder.make_estimator()))
            }
            PartialViews::Sparse(map) => map
                .entry(view_id)
                .or_insert_with(|| (0, bounder.make_estimator())),
        }
    }

    fn into_sorted(self) -> Vec<ViewPartial> {
        let emit = |(view, (matched, estimator)): (usize, (u64, BoxedEstimator))| ViewPartial {
            view,
            matched,
            estimator,
        };
        match self {
            PartialViews::Dense(slots) => slots
                .into_iter()
                .enumerate()
                .filter_map(|(view, slot)| slot.map(|s| emit((view, s))))
                .collect(),
            PartialViews::Sparse(map) => map.into_iter().map(emit).collect(),
        }
    }
}

/// Scans one partition's blocks in block order, producing its partial:
/// projected block reads, columnar predicate kernels into a
/// [`SelectionVector`], one group-routing pass over the selected rows, and
/// one `observe_batch` per (block, view) pair, each view's values in
/// ascending row order.
///
/// Blocks are obtained through one [`BlockSource::scan_blocks`] call: a
/// zero-copy view per block for in-memory scrambles, run reads decoding
/// the referenced chunks into reused buffers for segment readers. A read
/// failure mid-scan (file truncated or rotted *after* open-time validation
/// passed) stops the partition and is carried back in the partial; the
/// coordinator fails the whole query with it, so callers get an
/// `EngineResult::Err` instead of a crash.
pub(crate) fn scan_partition(
    ctx: &ScanContext<'_>,
    index: usize,
    blocks: &[BlockId],
) -> PartitionPartial {
    let mut views = PartialViews::new(ctx.num_views);
    let mut scratch: Vec<u32> = Vec::with_capacity(4);
    let mut exec = ExecMetrics::default();
    let mut router = BatchRouter::new(ctx.num_views);
    // One selection (plus a scratch pool for Or/Not temporaries) reused
    // across all of the partition's blocks: blocks are small (25 rows by
    // default), so per-block allocation would dominate the kernels
    // themselves.
    let mut sel = SelectionVector::empty();
    let mut filter_scratch = SelectionScratch::new();

    let projection = Some(ctx.projection.as_slice());
    let scanned = ctx
        .source
        .scan_blocks(blocks, projection, &mut |_, block_ref| {
            let table = block_ref.table();
            exec.record_block(block_ref.len() as u64);
            ctx.bound.predicate.filter_block_scratch(
                table,
                block_ref.rows(),
                &mut sel,
                &mut filter_scratch,
            );
            exec.record_selected(sel.len() as u64);
            if !sel.is_empty() {
                let kernel = ValueKernel::for_block(ctx, table);
                router.route_block(
                    ctx,
                    table,
                    &sel,
                    &kernel,
                    &mut views,
                    &mut scratch,
                    &mut exec,
                );
            }
            ControlFlow::Continue(())
        });
    exec.partitions = 1;

    PartitionPartial {
        index,
        exec,
        views: views.into_sorted(),
        error: scanned.err(),
        panic: None,
    }
}

/// Per-block gather strategy for the target expression's value of one
/// selected row. Resolved once per block so the common cases — COUNT and a
/// plain column target — read raw storage instead of re-walking the
/// expression per row. Every variant returns exactly the value
/// `BoundExpr::evaluate` would (integers widened to `f64` the same way).
enum ValueKernel<'a> {
    /// COUNT aggregates observe the constant 1 per matching row.
    One,
    /// Target is a raw `Float64` column: direct slice gather.
    Floats(&'a [f64]),
    /// Target is a raw `Int64` column, widened per value.
    Ints(&'a [i64]),
    /// Composite expression: evaluated per selected row.
    Expr(&'a BoundExpr),
}

impl<'a> ValueKernel<'a> {
    fn for_block(ctx: &ScanContext<'a>, table: &'a Table) -> Self {
        if ctx.aggregate == AggregateFunction::Count {
            return ValueKernel::One;
        }
        if let BoundExpr::Column(i) = &ctx.bound.target {
            let column = table.column_at(*i);
            if let Some(values) = column.float_values() {
                return ValueKernel::Floats(values);
            }
            if let Some(values) = column.int_values() {
                return ValueKernel::Ints(values);
            }
        }
        ValueKernel::Expr(&ctx.bound.target)
    }

    /// The target value of `row`, or `None` when the expression has no
    /// value there (such rows are skipped before routing).
    #[inline]
    fn value(&self, table: &Table, row: usize) -> Option<f64> {
        match self {
            ValueKernel::One => Some(1.0),
            ValueKernel::Floats(values) => values.get(row).copied(),
            ValueKernel::Ints(values) => values.get(row).map(|&v| v as f64),
            ValueKernel::Expr(expr) => expr.evaluate(table, row),
        }
    }
}

/// Partitions a block's selected rows by aggregate-view id, buffering each
/// view's target values in ascending row order, then flushes every touched
/// view with a single `observe_batch`.
///
/// For group universes up to [`DENSE_VIEW_LIMIT`] the buffers are dense
/// (view id indexes straight into a slot, allocated once per partition and
/// reused across blocks). Above the limit the per-block dense sweep would
/// dominate, so rows fall back to immediate per-row observation — identical
/// results, since each view still sees its values in row order.
struct BatchRouter {
    /// Per-view value buffers for the block being routed (dense mode).
    buffers: Vec<Vec<f64>>,
    /// View ids with a non-empty buffer, in first-touch order.
    touched: Vec<u32>,
}

impl BatchRouter {
    fn new(num_views: usize) -> Self {
        let dense = num_views <= DENSE_VIEW_LIMIT;
        Self {
            buffers: if dense {
                (0..num_views).map(|_| Vec::new()).collect()
            } else {
                Vec::new()
            },
            touched: Vec::new(),
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn route_block(
        &mut self,
        ctx: &ScanContext<'_>,
        table: &Table,
        sel: &SelectionVector,
        kernel: &ValueKernel<'_>,
        views: &mut PartialViews,
        scratch: &mut Vec<u32>,
        exec: &mut ExecMetrics,
    ) {
        if self.buffers.is_empty() {
            // Sparse universe: observe per row.
            for &r in sel.rows() {
                let row = r as usize;
                let Some(value) = kernel.value(table, row) else {
                    continue;
                };
                if let Some(view_id) = ctx.lookup.view_of(table, row, scratch) {
                    let (matched, estimator) = views.slot(view_id, ctx.bounder);
                    estimator.observe(value);
                    *matched += 1;
                    exec.record_matches(1);
                }
            }
            return;
        }

        match ctx.lookup {
            GroupLookup::Global => {
                let buffer = &mut self.buffers[0];
                for &r in sel.rows() {
                    if let Some(value) = kernel.value(table, r as usize) {
                        buffer.push(value);
                    }
                }
                if !buffer.is_empty() {
                    self.touched.push(0);
                }
            }
            GroupLookup::SingleColumn {
                column,
                views_by_code,
            } => {
                // One columnar pass over the group column's codes; a code
                // that maps to no view (or a non-categorical column, which
                // has no group) routes nowhere.
                if let Some(codes) = table.column_at(*column).category_codes() {
                    for &r in sel.rows() {
                        let row = r as usize;
                        let Some(&view) = views_by_code.get(codes[row] as usize) else {
                            continue;
                        };
                        if view == u32::MAX {
                            continue;
                        }
                        let Some(value) = kernel.value(table, row) else {
                            continue;
                        };
                        let buffer = &mut self.buffers[view as usize];
                        if buffer.is_empty() {
                            self.touched.push(view);
                        }
                        buffer.push(value);
                    }
                }
            }
            GroupLookup::Multi { .. } => {
                for &r in sel.rows() {
                    let row = r as usize;
                    let Some(value) = kernel.value(table, row) else {
                        continue;
                    };
                    let Some(view_id) = ctx.lookup.view_of(table, row, scratch) else {
                        continue;
                    };
                    let buffer = &mut self.buffers[view_id];
                    if buffer.is_empty() {
                        self.touched.push(view_id as u32);
                    }
                    buffer.push(value);
                }
            }
        }

        // Flush: one observe_batch per touched view, values in ascending
        // row order. Flush order across views is irrelevant to results
        // (views are independent) but deterministic anyway (first-touch
        // order is a pure function of the block's data).
        for &view in &self.touched {
            let buffer = &mut self.buffers[view as usize];
            let (matched, estimator) = views.slot(view as usize, ctx.bounder);
            estimator.observe_batch(buffer);
            *matched += buffer.len() as u64;
            exec.record_matches(buffer.len() as u64);
            buffer.clear();
        }
        self.touched.clear();
    }
}

/// A partition job sent to the worker pool.
#[derive(Debug)]
struct Job {
    index: usize,
    blocks: Vec<BlockId>,
}

/// Channel ends the coordinator keeps while a pool is live.
struct Pool {
    jobs: crossbeam::channel::Sender<Job>,
    results: crossbeam::channel::Receiver<PartitionPartial>,
}

/// Executes rounds of planned blocks, either inline (`threads == 1`) or on a
/// scoped worker pool — with identical results either way.
pub(crate) struct RoundExecutor<'a> {
    ctx: &'a ScanContext<'a>,
    pool: Option<Pool>,
}

impl RoundExecutor<'_> {
    /// Scans every partition of `blocks` and hands each partial to `merge`
    /// in partition (block-id) order, as soon as it and every earlier
    /// partition are done. Only partials that finished ahead of an earlier,
    /// slower one are held back, so a round's memory stays bounded however
    /// many blocks it covers.
    ///
    /// # Errors
    ///
    /// The first block-read failure in partition order (storage rot detected
    /// after open-time validation). The caller must then discard the state
    /// it merged into: later partitions are not merged.
    pub fn execute_round(
        &self,
        blocks: &[BlockId],
        mut merge: impl FnMut(PartitionPartial),
    ) -> Result<(), fastframe_store::table::StoreError> {
        if blocks.is_empty() {
            return Ok(());
        }
        let chunks = blocks.chunks(partition_size(blocks.len()));
        let mut accept = |mut partial: PartitionPartial| {
            if let Some(payload) = partial.panic.take() {
                // Re-raise with the original payload so the message and any
                // context it carries survive the thread hop.
                std::panic::resume_unwind(payload);
            }
            match partial.error.take() {
                Some(error) => Err(error),
                None => {
                    merge(partial);
                    Ok(())
                }
            }
        };
        let Some(pool) = &self.pool else {
            for (i, chunk) in chunks.enumerate() {
                accept(scan_partition(self.ctx, i, chunk))?;
            }
            return Ok(());
        };
        let total = chunks.len();
        for (i, chunk) in chunks.enumerate() {
            pool.jobs
                .send(Job {
                    index: i,
                    blocks: chunk.to_vec(),
                })
                .expect("scan workers exited before the round ended");
        }
        let mut waiting: Vec<Option<PartitionPartial>> = (0..total).map(|_| None).collect();
        let mut next = 0;
        while next < total {
            let partial = pool
                .results
                .recv()
                .expect("scan workers exited before the round ended");
            let index = partial.index;
            waiting[index] = Some(partial);
            while let Some(partial) = waiting.get_mut(next).and_then(Option::take) {
                accept(partial)?;
                next += 1;
            }
        }
        Ok(())
    }
}

/// Runs `f` with a [`RoundExecutor`] appropriate for `threads`: inline for a
/// single thread, otherwise a crossbeam-scoped pool of `threads` workers
/// that lives exactly as long as `f`.
pub(crate) fn with_round_executor<R>(
    ctx: &ScanContext<'_>,
    threads: usize,
    f: impl FnOnce(&RoundExecutor<'_>) -> R,
) -> R {
    let threads = effective_pool_size(threads);
    if threads <= 1 {
        return f(&RoundExecutor { ctx, pool: None });
    }
    crossbeam::thread::scope(|scope| {
        let (job_tx, job_rx) = crossbeam::channel::unbounded::<Job>();
        let (result_tx, result_rx) = crossbeam::channel::unbounded::<PartitionPartial>();
        for _ in 0..threads {
            let jobs = job_rx.clone();
            let results = result_tx.clone();
            scope.spawn(move || {
                while let Ok(job) = jobs.recv() {
                    // Catch panics so the coordinator (blocked on the result
                    // channel) is never deadlocked by a dying worker; the
                    // poisoned marker re-raises the panic on the coordinator.
                    let partial = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        scan_partition(ctx, job.index, &job.blocks)
                    }))
                    .unwrap_or_else(|payload| PartitionPartial {
                        index: job.index,
                        exec: ExecMetrics::default(),
                        views: Vec::new(),
                        error: None,
                        panic: Some(payload),
                    });
                    if results.send(partial).is_err() {
                        break;
                    }
                }
            });
        }
        // The workers hold their own clones; dropping these ends the pool
        // when `f` returns and the job sender goes out of scope.
        drop(job_rx);
        drop(result_tx);
        f(&RoundExecutor {
            ctx,
            pool: Some(Pool {
                jobs: job_tx,
                results: result_rx,
            }),
        })
    })
    .expect("scan worker scope never returns Err")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_size_is_thread_count_independent() {
        assert_eq!(partition_size(0), 1);
        assert_eq!(partition_size(1), 1);
        assert_eq!(partition_size(TARGET_PARTITIONS), 1);
        assert_eq!(partition_size(TARGET_PARTITIONS + 1), 2);
        assert_eq!(partition_size(1600), 25);
        // Every round of `n` blocks yields at most TARGET_PARTITIONS chunks.
        for n in [1usize, 7, 63, 64, 65, 1000, 4096] {
            assert!(n.div_ceil(partition_size(n)) <= TARGET_PARTITIONS, "n={n}");
        }
    }
}

//! The partitioned scan/aggregation pipeline: a crossbeam-scoped worker pool
//! that evaluates predicates and accumulates per-partition partial aggregate
//! state, merged back deterministically in block-id order.
//!
//! ## Partition layout
//!
//! Each OptStop round plans a list of blocks to fetch. That list is split
//! into contiguous **partitions** of a fixed block count, as morsel-driven
//! engines size their work units (Leis et al., "Morsel-Driven Parallelism",
//! SIGMOD 2014): [`partition_size`] is `max(⌈n/64⌉, 256)` blocks for a round
//! of `n` blocks. A round therefore has at most 64 partitions, and a
//! partition has at least 256 blocks unless the round is smaller. The layout
//! depends only on the list length, never on the thread count.
//!
//! The price is parallelism inside small rounds. A default round of 40 000
//! rows (1 600 blocks of 25 rows) has 7 partitions, so at most 7 workers
//! scan it at once; a round of 256 blocks or fewer runs on one worker. In
//! exchange a round costs what it scans: per-partition work (a partial per
//! touched view, its merge, RangeTrim's withheld first observation) is paid
//! 7 times per default round instead of 64 times.
//!
//! ## Accumulation and merge
//!
//! Workers pull partitions off a shared job queue and scan each partition's
//! blocks in block order. Every worker owns a `WorkerScratch`, allocated
//! once per worker per query: a dense slab with one slot per aggregate view,
//! a view-id buffer for a block's selected rows, and the selection vectors.
//! A partition fills slots and records them in a touched list; at its end
//! the filled slots are moved into the `PartitionPartial`'s buffer, leaving
//! them empty, in O(touched views).
//!
//! That buffer, and in pool mode the job's block list, are reused: the
//! coordinator hands each partition a spare set of buffers, gets them back
//! with its partial, and keeps them, emptied, for later partitions and
//! rounds. Inline (`threads = 1`) one set serves every partition. Once the
//! buffers have grown to a round's size, a partition allocates nothing.
//!
//! For Hoeffding and Bernstein (±RT) the slab is a dense `Vec` of plain
//! `Copy` [`FlatRecord`]s: count, sum, shifted sums, extremes and
//! RangeTrim's four correction sums, one update per value (see
//! [`fastframe_core::partial`]). The coordinator finishes each into the
//! three-moment state it merges. Anderson/DKW (±RT) keeps a boxed
//! estimator per touched view.
//!
//! The coordinator folds the partials into the master views **in partition
//! order**, each as soon as it and every earlier partition are done. A
//! merge translates the partial's shifted sums into the master's shift and
//! adds them, with no division ([`RunningMoments::merge`]). Only partials
//! that overtook a slower predecessor are ever held.
//!
//! Because the partition layout and the merge order are pure functions of
//! the planned block list, the merged states — and every estimate, variance
//! and CI bound derived from them — are a pure function of (data, plan):
//! bit-for-bit identical at any thread count, including `threads = 1`, which
//! runs the same partition/merge code inline without spawning, and on any
//! backing.
//!
//! RangeTrim partials clip against partition-local prefix extremes and
//! withhold one first observation per partition. That is conservative: it
//! only widens the interval (the argument is in
//! [`fastframe_core::partial`]).
//!
//! The pool lives for the whole query (workers are spawned once inside a
//! `crossbeam::thread::scope` and fed rounds through channels), so per-round
//! overhead is a handful of channel operations, not thread spawns.
//!
//! ## Batch execution
//!
//! Within a partition, each block goes through one loop:
//!
//! 1. The partition's blocks are read through projection pushdown
//!    ([`BlockSource::scan_blocks`] decodes only the columns the query
//!    references, and the segment backing fetches runs of consecutive
//!    blocks with one read).
//! 2. The predicate runs as a columnar filter kernel producing a
//!    [`SelectionVector`].
//! 3. The group table gives every selected row its view id: one columnar
//!    pass per GROUP BY column packs the codes into a key, one more looks
//!    the keys up (`GroupLookup::view_ids`).
//! 4. The target-value kernel is resolved once per block, and one loop
//!    over the selected rows, specialised to it, updates each row's view
//!    slot in place.
//!
//! Rows are never copied into per-view buffers. Each view still sees its
//! values in ascending row order, so a partition's records, and with them
//! the thread and backing bit-identity above, are unchanged by the
//! interleaving of views within a block.
//!
//! This is the only code that scans rows. Approximate OptStop rounds and the
//! Exact baseline (one round over every block) both run through it;
//! `tests/reference.rs` checks both against a naive row-at-a-time
//! evaluator.
//!
//! [`BlockSource::scan_blocks`]:
//!     fastframe_store::source::BlockSource::scan_blocks
//! [`FlatRecord`]: fastframe_core::partial::FlatRecord
//! [`RunningMoments::merge`]: fastframe_core::variance::RunningMoments::merge

use std::ops::ControlFlow;

use fastframe_core::bounder::{BounderKind, BoxedEstimator};
use fastframe_core::partial::FlatRecord;

use fastframe_store::block::BlockId;
use fastframe_store::expr::BoundExpr;
use fastframe_store::selection::{SelectionScratch, SelectionVector};
use fastframe_store::source::BlockSource;
use fastframe_store::table::Table;

use crate::executor::{BoundQuery, GroupLookup, NO_VIEW};
use crate::metrics::ExecMetrics;
use crate::query::AggregateFunction;
use crate::view::Partial;

/// Upper bound on the number of partitions a round is split into. The
/// partition layout must be independent of the thread count (determinism),
/// so this is a constant rather than a multiple of the pool size.
pub(crate) const MAX_PARTITIONS: usize = 64;

/// Smallest partition, in blocks, unless the whole round is smaller: large
/// enough that per-partition costs (one partial per touched view and its
/// merge) stay small next to the rows scanned.
const MIN_PARTITION_BLOCKS: usize = 256;

/// Number of blocks per partition for a round of `total` planned blocks —
/// a pure function of `total`, never of the thread count.
pub(crate) fn partition_size(total: usize) -> usize {
    total.div_ceil(MAX_PARTITIONS).max(MIN_PARTITION_BLOCKS)
}

/// The pool size actually used for a requested thread count: at least 1,
/// and clamped to [`MAX_PARTITIONS`] — a round never has more jobs, so
/// extra workers could only idle, and the clamp keeps an absurd setting
/// (or `FASTFRAME_THREADS` value) from exhausting OS thread limits. This is
/// also the value reported in `QueryMetrics::threads`.
pub(crate) fn effective_pool_size(threads: usize) -> usize {
    threads.clamp(1, MAX_PARTITIONS)
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
    /// Bounder kind of the views, and so of their partials.
    pub bounder: BounderKind,
    /// Row → aggregate-view routing.
    pub lookup: &'a GroupLookup,
    /// Total number of aggregate views.
    pub num_views: usize,
    /// Column indexes the query references (ascending), pushed down to the
    /// block source so lazy backings decode only those chunks.
    pub projection: Vec<usize>,
}

/// The buffers one partition is scanned with, handed back to the
/// coordinator with its partial and reused by later partitions and rounds.
#[derive(Default)]
struct PartitionBuffers {
    /// The partition's blocks (pool mode; an inline scan reads the round's
    /// list in place).
    blocks: Vec<BlockId>,
    /// Touched views' partials, in first-touch order (views are
    /// independent, so the order only has to be deterministic).
    views: Vec<(u32, Partial)>,
}

/// The result of scanning one partition.
pub(crate) struct PartitionPartial {
    /// Partition index within the round (merge key).
    pub index: usize,
    /// Worker-private counters for this partition.
    pub exec: ExecMetrics,
    /// The partition's buffers, its touched views' partials filled in.
    buffers: PartitionBuffers,
    /// A block read failure (I/O error or chunk corruption detected mid
    /// scan); the coordinator fails the query with it instead of merging.
    pub error: Option<fastframe_store::table::StoreError>,
    /// The payload of a panic raised during the worker's scan, carried back
    /// so the coordinator can resume it with its original message.
    pub panic: Option<Box<dyn std::any::Any + Send>>,
}

impl PartitionPartial {
    /// Touched views' partials, in first-touch order.
    pub(crate) fn views(&self) -> &[(u32, Partial)] {
        &self.buffers.views
    }
}

/// One slot per aggregate view, holding the view's partial for the
/// partition being scanned, and the views touched so far.
struct Slab {
    slots: Slots,
    /// Views with a filled slot, in first-touch order.
    touched: Vec<u32>,
}

enum Slots {
    /// Hoeffding and Bernstein (±RT): a dense record per view; an empty
    /// record is an untouched slot.
    Flat(Vec<FlatRecord>),
    /// Anderson/DKW (±RT): a boxed estimator per touched view.
    Boxed(BounderKind, Vec<Option<BoxedEstimator>>),
}

impl Slab {
    fn new(kind: BounderKind, num_views: usize) -> Self {
        let slots = match kind.flat() {
            Some(_) => Slots::Flat(vec![FlatRecord::EMPTY; num_views]),
            None => Slots::Boxed(kind, (0..num_views).map(|_| None).collect()),
        };
        Self {
            slots,
            touched: Vec::new(),
        }
    }

    /// Folds a block's selected `rows` into their views' slots in row order:
    /// `views[i]` is the view of `rows[i]` (or [`NO_VIEW`]) and `value` its
    /// target value. Returns the number of values folded.
    #[inline]
    fn fold_rows(
        &mut self,
        rows: &[u32],
        views: &[u64],
        value: impl Fn(usize) -> Option<f64>,
    ) -> u64 {
        let touched = &mut self.touched;
        let mut folded = 0;
        match &mut self.slots {
            Slots::Flat(records) => {
                for (&row, &view) in rows.iter().zip(views) {
                    if view == NO_VIEW {
                        continue;
                    }
                    let Some(v) = value(row as usize) else {
                        continue;
                    };
                    let record = &mut records[view as usize];
                    if record.is_empty() {
                        touched.push(view as u32);
                    }
                    record.observe(v);
                    folded += 1;
                }
            }
            Slots::Boxed(kind, slots) => {
                for (&row, &view) in rows.iter().zip(views) {
                    if view == NO_VIEW {
                        continue;
                    }
                    let Some(v) = value(row as usize) else {
                        continue;
                    };
                    slots[view as usize]
                        .get_or_insert_with(|| {
                            touched.push(view as u32);
                            kind.make_estimator()
                        })
                        .observe(v);
                    folded += 1;
                }
            }
        }
        folded
    }

    /// Moves the touched slots out as partials into `out`, leaving every
    /// slot empty, in O(touched).
    fn take_into(&mut self, out: &mut Vec<(u32, Partial)>) {
        let slots = &mut self.slots;
        out.extend(self.touched.drain(..).map(|view| {
            let partial = match slots {
                Slots::Flat(records) => Partial::Flat(std::mem::replace(
                    &mut records[view as usize],
                    FlatRecord::EMPTY,
                )),
                Slots::Boxed(_, slots) => Partial::Boxed(
                    slots[view as usize]
                        .take()
                        .expect("a touched slot is filled"),
                ),
            };
            (view, partial)
        }));
    }
}

/// A scan worker's reusable state: allocated once per worker per query,
/// reset after every partition in O(touched views).
struct WorkerScratch {
    slab: Slab,
    /// One selection (plus a scratch pool for Or/Not temporaries) reused
    /// across blocks: blocks are small (25 rows by default), so per-block
    /// allocation would dominate the kernels themselves.
    sel: SelectionVector,
    filter_scratch: SelectionScratch,
    /// The view id of each selected row of the block being scanned.
    views: Vec<u64>,
}

impl WorkerScratch {
    fn new(ctx: &ScanContext<'_>) -> Self {
        Self {
            slab: Slab::new(ctx.bounder, ctx.num_views),
            sel: SelectionVector::empty(),
            filter_scratch: SelectionScratch::new(),
            views: Vec::new(),
        }
    }
}

/// Scans one partition's blocks in block order, producing its partial:
/// projected block reads, columnar predicate kernels into a
/// [`SelectionVector`], the selected rows' view ids from the group table,
/// and one in-place update of its view's slot per selected row, each view's
/// values in ascending row order.
///
/// Blocks are obtained through one [`BlockSource::scan_blocks`] call: a
/// zero-copy view per block for in-memory scrambles, run reads decoding
/// the referenced chunks into reused buffers for segment readers. A read
/// failure mid-scan (file truncated or rotted *after* open-time validation
/// passed) stops the partition and is carried back in the partial; the
/// coordinator fails the whole query with it, so callers get an
/// `EngineResult::Err` instead of a crash.
fn scan_partition(
    ctx: &ScanContext<'_>,
    scratch: &mut WorkerScratch,
    index: usize,
    blocks: &[BlockId],
    mut buffers: PartitionBuffers,
) -> PartitionPartial {
    let WorkerScratch {
        slab,
        sel,
        filter_scratch,
        views,
    } = scratch;
    let mut exec = ExecMetrics::default();
    let projection = Some(ctx.projection.as_slice());
    let scanned = ctx
        .source
        .scan_blocks(blocks, projection, &mut |_, block_ref| {
            let table = block_ref.table();
            exec.record_block(block_ref.len() as u64);
            ctx.bound
                .predicate
                .filter_block_scratch(table, block_ref.rows(), sel, filter_scratch);
            exec.record_selected(sel.len() as u64);
            if !sel.is_empty() {
                ctx.lookup.view_ids(table, sel.rows(), views);
                let folded =
                    ValueKernel::for_block(ctx, table).fold(table, slab, sel.rows(), views);
                exec.record_matches(folded);
            }
            ControlFlow::Continue(())
        });
    exec.partitions = 1;
    slab.take_into(&mut buffers.views);

    PartitionPartial {
        index,
        exec,
        buffers,
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

    /// Folds the selected `rows` of `table` into `slab` (see
    /// [`Slab::fold_rows`]), with the row loop specialised to this kernel.
    /// A row where the expression has no value is skipped.
    fn fold(&self, table: &Table, slab: &mut Slab, rows: &[u32], views: &[u64]) -> u64 {
        match *self {
            ValueKernel::One => slab.fold_rows(rows, views, |_| Some(1.0)),
            ValueKernel::Floats(values) => {
                slab.fold_rows(rows, views, |row| values.get(row).copied())
            }
            ValueKernel::Ints(values) => {
                slab.fold_rows(rows, views, |row| values.get(row).map(|&v| v as f64))
            }
            ValueKernel::Expr(expr) => slab.fold_rows(rows, views, |row| expr.evaluate(table, row)),
        }
    }
}

/// A partition job sent to the worker pool: its index and its buffers, the
/// blocks filled in.
struct Job {
    index: usize,
    buffers: PartitionBuffers,
}

/// Channel ends the coordinator keeps while a pool is live.
struct Pool {
    jobs: crossbeam::channel::Sender<Job>,
    results: crossbeam::channel::Receiver<PartitionPartial>,
    /// Partials that finished ahead of an earlier partition, by index.
    waiting: Vec<Option<PartitionPartial>>,
}

/// Where a round's partitions are scanned.
enum Mode {
    /// `threads == 1`: on the coordinator, with its own scratch.
    Inline(Box<WorkerScratch>),
    /// On a worker pool; each worker owns its scratch.
    Pool(Pool),
}

/// Executes rounds of planned blocks, either inline (`threads == 1`) or on a
/// scoped worker pool — with identical results either way.
pub(crate) struct RoundExecutor<'a> {
    ctx: &'a ScanContext<'a>,
    mode: Mode,
    /// Buffers of merged partitions, ready for the next ones: a round
    /// allocates only while it has more partitions in flight than any
    /// earlier round had.
    spare: Vec<PartitionBuffers>,
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
    pub(crate) fn execute_round(
        &mut self,
        blocks: &[BlockId],
        mut merge: impl FnMut(&PartitionPartial),
    ) -> Result<(), fastframe_store::table::StoreError> {
        if blocks.is_empty() {
            return Ok(());
        }
        let chunks = blocks.chunks(partition_size(blocks.len()));
        // Merges a finished partial and hands back its emptied buffers.
        let mut accept = |mut partial: PartitionPartial| {
            if let Some(payload) = partial.panic.take() {
                // Re-raise with the original payload so the message and any
                // context it carries survive the thread hop.
                std::panic::resume_unwind(payload);
            }
            match partial.error.take() {
                Some(error) => Err(error),
                None => {
                    merge(&partial);
                    let mut buffers = partial.buffers;
                    buffers.blocks.clear();
                    buffers.views.clear();
                    Ok(buffers)
                }
            }
        };
        let pool = match &mut self.mode {
            Mode::Inline(scratch) => {
                let mut buffers = self.spare.pop().unwrap_or_default();
                for (i, chunk) in chunks.enumerate() {
                    buffers = accept(scan_partition(self.ctx, scratch, i, chunk, buffers))?;
                }
                self.spare.push(buffers);
                return Ok(());
            }
            Mode::Pool(pool) => pool,
        };
        let total = chunks.len();
        for (i, chunk) in chunks.enumerate() {
            let mut buffers = self.spare.pop().unwrap_or_default();
            buffers.blocks.extend_from_slice(chunk);
            pool.jobs
                .send(Job { index: i, buffers })
                .unwrap_or_else(|_| panic!("scan workers exited before the round ended"));
        }
        let waiting = &mut pool.waiting;
        waiting.clear();
        waiting.resize_with(total, || None);
        let mut next = 0;
        while next < total {
            let partial = pool
                .results
                .recv()
                .expect("scan workers exited before the round ended");
            let index = partial.index;
            waiting[index] = Some(partial);
            while let Some(partial) = waiting.get_mut(next).and_then(Option::take) {
                self.spare.push(accept(partial)?);
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
    f: impl FnOnce(&mut RoundExecutor<'_>) -> R,
) -> R {
    let threads = effective_pool_size(threads);
    if threads <= 1 {
        return f(&mut RoundExecutor {
            ctx,
            mode: Mode::Inline(Box::new(WorkerScratch::new(ctx))),
            spare: Vec::new(),
        });
    }
    crossbeam::thread::scope(|scope| {
        let (job_tx, job_rx) = crossbeam::channel::unbounded::<Job>();
        let (result_tx, result_rx) = crossbeam::channel::unbounded::<PartitionPartial>();
        for _ in 0..threads {
            let jobs = job_rx.clone();
            let results = result_tx.clone();
            scope.spawn(move || {
                let mut scratch = WorkerScratch::new(ctx);
                while let Ok(Job { index, mut buffers }) = jobs.recv() {
                    // Catch panics so the coordinator (blocked on the result
                    // channel) is never deadlocked by a dying worker; the
                    // poisoned marker re-raises the panic on the coordinator.
                    let blocks = std::mem::take(&mut buffers.blocks);
                    let partial = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        let mut partial =
                            scan_partition(ctx, &mut scratch, index, &blocks, buffers);
                        partial.buffers.blocks = blocks;
                        partial
                    }))
                    .unwrap_or_else(|payload| {
                        // The interrupted partition may have left slots
                        // filled; start over from clean buffers.
                        scratch = WorkerScratch::new(ctx);
                        PartitionPartial {
                            index,
                            exec: ExecMetrics::default(),
                            buffers: PartitionBuffers::default(),
                            error: None,
                            panic: Some(payload),
                        }
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
        f(&mut RoundExecutor {
            ctx,
            mode: Mode::Pool(Pool {
                jobs: job_tx,
                results: result_rx,
                waiting: Vec::new(),
            }),
            spare: Vec::new(),
        })
    })
    .expect("scan worker scope never returns Err")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_size_is_thread_count_independent() {
        // A pure function of the round length: no thread count appears.
        assert_eq!(partition_size(0), MIN_PARTITION_BLOCKS);
        assert_eq!(partition_size(1), 256);
        assert_eq!(partition_size(255), 256);
        assert_eq!(partition_size(256), 256);
        assert_eq!(partition_size(257), 256);
        assert_eq!(partition_size(1600), 256);
        assert_eq!(partition_size(16_384), 256);
        assert_eq!(partition_size(16_385), 257);
        assert_eq!(partition_size(40_000), 625);
        // Partition counts at the edges: one partition up to 256 blocks,
        // 7 for a default 1 600-block round, exactly 64 at 16 384.
        let partitions = |n: usize| n.div_ceil(partition_size(n));
        assert_eq!(partitions(255), 1);
        assert_eq!(partitions(256), 1);
        assert_eq!(partitions(257), 2);
        assert_eq!(partitions(1600), 7);
        assert_eq!(partitions(16_384), 64);
        // Every round of `n` blocks yields at most MAX_PARTITIONS chunks.
        for n in [
            1usize,
            7,
            63,
            64,
            65,
            255,
            256,
            257,
            1000,
            1600,
            4096,
            16_384,
            16_385,
            1 << 20,
        ] {
            assert!(partitions(n) <= MAX_PARTITIONS, "n={n}");
        }
    }
}

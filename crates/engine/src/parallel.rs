//! The partitioned scan/aggregation pipeline: the coordinating thread and
//! its helpers scan a round's partitions into per-partition partial
//! records, which the coordinator merges deterministically in block-id
//! order.
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
//! rows (1 600 blocks of 25 rows) has 7 partitions, so at most 7 threads
//! scan it at once; a round of 256 blocks or fewer runs on one thread. In
//! exchange a round costs what it scans: per-partition work (a partial per
//! touched view and its merge) is paid 7 times per default round instead of
//! 64 times.
//!
//! ## Schedule
//!
//! A query scans on `threads` threads: the coordinator, which plans and
//! merges, and `threads − 1` helpers spawned once per query inside a
//! [`std::thread::scope`] (none at `threads = 1`), so per-round overhead is
//! a handful of channel operations, not thread spawns. A round queues its
//! partitions, in partition order, on one job queue. Helpers block on the
//! queue; the coordinator takes jobs from it without ever blocking, so
//! whichever thread is free scans the next partition (the morsel dispatch
//! of Leis et al.). Before it takes a job, the coordinator merges every
//! partial the helpers have finished, so it scans only when none waits.
//!
//! At most `2 · threads` partitions are unmerged at once (one at
//! `threads = 1`) — queued, being scanned, or finished ahead of a slower
//! predecessor. Only the coordinator merges and queues, and it cannot while
//! it scans. So when every thread finishes a partition at about the same
//! time and the oldest of them reaches the coordinator only after it has
//! started its next scan, those `threads` partitions stay unmerged for a
//! whole scan, and the other `threads` slots must already hold queued jobs
//! for every thread to keep scanning. With partitions of equal cost, a cap
//! of `threads` scans 3 partitions in two scan times at 2 threads, not 4.
//! The coordinator queues another partition only after merging the oldest,
//! so a round holds at most `2 · threads` sets of partition buffers however
//! many partitions it has; alone, the coordinator merges each partition
//! before it queues the next, and holds one set.
//!
//! ## Accumulation and merge
//!
//! Every scan thread owns a `WorkerScratch`, allocated once per query: a
//! dense slab with one plain `Copy` [`FlatRecord`] per aggregate view, a
//! view-id buffer for a block's selected rows, and the selection vectors. A
//! record holds count, sum, shifted sums, extremes and RangeTrim's four
//! correction sums, one update per value for every bounder kind the engine
//! runs (see [`fastframe_core::partial`]). A partition fills records and
//! lists the views it touched; at its end the touched records move into
//! the `PartitionPartial`'s buffer, in O(touched views).
//!
//! Before each round the coordinator writes every view's **seed** into one
//! buffer shared with the helpers, reused across rounds
//! ([`RoundExecutor::seed_round`]): the view's master shift and extremes as
//! of the round's start, with nothing counted
//! ([`FlatMaster::seed`]). A scan thread's first partition of a round
//! copies the seeds into its slab, and every partition leaves each record
//! it hands on replaced by its seed, so a record always starts a partition
//! as its view's seed. The row loop never reads the seeds: a partition's
//! values clip against the round-start extremes joined with its own
//! prefix, and its sums share the master's shift.
//!
//! That buffer and the job's block list are reused: each partition is
//! queued with a spare set of buffers, which comes back with its partial
//! and is kept, emptied, for later partitions and rounds. Once the buffers
//! have grown to a round's size, a partition allocates nothing.
//!
//! The coordinator folds the partials into the master views **in partition
//! order**, each as soon as it and every earlier partition are done, by
//! addition ([`FlatMaster::absorb`]). Only in a view's first round, when
//! its seed is empty, does a partial withhold its first value and have its
//! sums translated into the master's shift. Algorithm 6's three moments
//! are materialised once per view per round, when its interval is
//! recomputed, not once per partition.
//!
//! Because the partition layout, the seeds and the merge order are pure
//! functions of the planned block list, the merged states — and every
//! estimate, variance and CI bound derived from them — are a pure function
//! of (data, plan): bit-for-bit identical at any thread count and on any
//! backing, whichever thread scanned which partition.
//!
//! RangeTrim partials clip against the round-start extremes joined with
//! their partition's prefix, a subset of the prefix Algorithm 6 clips
//! against, and each partition of a view's first round withholds one first
//! observation. Both are conservative: they only widen the interval (the
//! argument is in [`fastframe_core::partial`]).
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
//!    record in place.
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
//! [`FlatMaster::seed`]: fastframe_core::partial::FlatMaster::seed
//! [`FlatMaster::absorb`]: fastframe_core::partial::FlatMaster::absorb

use std::ops::ControlFlow;
use std::panic::{self, AssertUnwindSafe};
use std::sync::RwLock;

use crossbeam::channel::{Receiver, Sender};
use fastframe_core::partial::FlatRecord;

use fastframe_store::block::BlockId;
use fastframe_store::expr::BoundExpr;
use fastframe_store::selection::{SelectionScratch, SelectionVector};
use fastframe_store::source::BlockSource;
use fastframe_store::table::{StoreError, Table};

use crate::executor::{BoundQuery, GroupLookup, NO_VIEW};
use crate::metrics::ExecMetrics;
use crate::query::AggregateFunction;

/// Upper bound on the number of partitions a round is split into. The
/// partition layout must be independent of the thread count (determinism),
/// so this is a constant rather than a multiple of the thread count.
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

/// The number of scan threads, the coordinator included, actually used for
/// a requested thread count: at least 1, and clamped to [`MAX_PARTITIONS`]
/// — a round never has more partitions, so extra helpers could only idle,
/// and the clamp keeps an absurd setting (or `FASTFRAME_THREADS` value) from
/// exhausting OS thread limits. This is also the value reported in
/// `QueryMetrics::threads`.
pub(crate) fn effective_pool_size(threads: usize) -> usize {
    threads.clamp(1, MAX_PARTITIONS)
}

/// Everything a scan thread needs to process a partition: shared, read-only
/// per-query state.
pub(crate) struct ScanContext<'a> {
    /// The block source under scan (in-memory scramble or on-disk segment).
    pub source: &'a dyn BlockSource,
    /// The bound query (predicate, target expression, group columns).
    pub bound: &'a BoundQuery,
    /// The query's aggregate function.
    pub aggregate: AggregateFunction,
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
    /// The partition's blocks.
    blocks: Vec<BlockId>,
    /// Touched views' records, in first-touch order (views are independent,
    /// so the order only has to be deterministic).
    views: Vec<(u32, FlatRecord)>,
}

/// The result of scanning one partition.
pub(crate) struct PartitionPartial {
    /// Partition index within the round (merge key).
    pub index: usize,
    /// Scan-thread-private counters for this partition.
    pub exec: ExecMetrics,
    /// The partition's buffers, its touched views' records filled in.
    buffers: PartitionBuffers,
    /// A block read failure (I/O error or chunk corruption detected mid
    /// scan); the coordinator fails the query with it instead of merging.
    pub error: Option<StoreError>,
    /// The payload of a panic raised during a helper's scan, carried back
    /// so the coordinator can resume it with its original message.
    pub panic: Option<Box<dyn std::any::Any + Send>>,
}

impl PartitionPartial {
    /// Touched views' records, in first-touch order.
    pub(crate) fn views(&self) -> &[(u32, FlatRecord)] {
        &self.buffers.views
    }
}

/// One record per aggregate view for the partition being scanned, and the
/// views touched so far. An untouched view's record is its seed for the
/// round, which has counted nothing.
struct Slab {
    records: Vec<FlatRecord>,
    /// The round whose seeds the untouched records hold (0: none yet).
    round: u64,
    /// Views the partition has touched, in first-touch order: the first
    /// `num_touched` entries. Sized for every view up front, so listing a
    /// view is a plain store. A `Vec::push` would put its growth call in the
    /// row loop, and around that call the loop spilled registers on every
    /// row: about 2 % of Exact's time at one thread, on a 2-vCPU x86-64
    /// host.
    touched: Box<[u32]>,
    num_touched: usize,
}

impl Slab {
    fn new(num_views: usize) -> Self {
        Self {
            records: vec![FlatRecord::EMPTY; num_views],
            round: 0,
            touched: vec![0; num_views].into(),
            num_touched: 0,
        }
    }

    /// Starts a partition of the round `seeds` belongs to: on the thread's
    /// first partition of a round, every record becomes its view's seed.
    fn begin(&mut self, seeds: &Seeds) {
        if self.round != seeds.round {
            self.records.copy_from_slice(&seeds.records);
            self.round = seeds.round;
        }
    }

    /// Folds a block's selected `rows` into their views' records in row
    /// order: `views[i]` is the view of `rows[i]` (or [`NO_VIEW`]) and
    /// `value` its target value. Returns the number of values folded.
    #[inline]
    fn fold_rows(
        &mut self,
        rows: &[u32],
        views: &[u64],
        value: impl Fn(usize) -> Option<f64>,
    ) -> u64 {
        let Slab {
            records,
            touched,
            num_touched,
            ..
        } = self;
        let mut folded = 0;
        for (&row, &view) in rows.iter().zip(views) {
            if view == NO_VIEW {
                continue;
            }
            let Some(v) = value(row as usize) else {
                continue;
            };
            let record = &mut records[view as usize];
            if record.is_empty() {
                touched[*num_touched] = view as u32;
                *num_touched += 1;
            }
            record.observe(v);
            folded += 1;
        }
        folded
    }

    /// Moves the touched records out into `out`, leaving each its view's
    /// seed again, in O(touched).
    fn take_into(&mut self, out: &mut Vec<(u32, FlatRecord)>, seeds: &Seeds) {
        let records = &mut self.records;
        out.extend(self.touched[..self.num_touched].iter().map(|&view| {
            let seed = seeds.records[view as usize];
            let record = std::mem::replace(&mut records[view as usize], seed);
            (view, record)
        }));
        self.num_touched = 0;
    }
}

/// A scan thread's reusable state: allocated once per thread per query,
/// reset after every partition in O(touched views) and on a new round in
/// O(views).
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
            slab: Slab::new(ctx.num_views),
            sel: SelectionVector::empty(),
            filter_scratch: SelectionScratch::new(),
            views: Vec::new(),
        }
    }
}

/// A queued partition: its index and its buffers, the blocks filled in.
struct Job {
    index: usize,
    buffers: PartitionBuffers,
}

/// Scans one partition's blocks in block order, producing its partial:
/// projected block reads, columnar predicate kernels into a
/// [`SelectionVector`], the selected rows' view ids from the group table,
/// and one in-place update of its view's record per selected row, each
/// view's values in ascending row order.
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
    seeds: &Seeds,
    scratch: &mut WorkerScratch,
    Job { index, mut buffers }: Job,
) -> PartitionPartial {
    let WorkerScratch {
        slab,
        sel,
        filter_scratch,
        views,
    } = scratch;
    slab.begin(seeds);
    let mut exec = ExecMetrics::default();
    let projection = Some(ctx.projection.as_slice());
    let scanned = ctx
        .source
        .scan_blocks(&buffers.blocks, projection, &mut |_, block_ref| {
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
    slab.take_into(&mut buffers.views, seeds);

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

/// Why the seeds' lock is never poisoned: only the coordinator writes
/// them, and nothing in [`RoundExecutor::seed_round`] panics.
const SEEDS_WRITTEN_WHOLE: &str = "the seeds are written whole, by the coordinator alone";

/// The views' seeds for the round being scanned, one per view, written by
/// the coordinator between rounds ([`RoundExecutor::seed_round`]) and read
/// by every scan thread while it scans a partition (behind an `RwLock`; no
/// partition is in flight while the coordinator writes, so the lock is
/// never contended).
struct Seeds {
    /// Counts the rounds seeded, so a scan thread sees when they change.
    round: u64,
    records: Vec<FlatRecord>,
}

/// A helper scan thread: scans queued partitions until the queue closes,
/// sending back a partial for every job it takes.
fn help(
    ctx: &ScanContext<'_>,
    seeds: &RwLock<Seeds>,
    queue: Receiver<Job>,
    results: Sender<PartitionPartial>,
) {
    let mut scratch = WorkerScratch::new(ctx);
    while let Ok(job) = queue.recv() {
        let index = job.index;
        // The coordinator may be waiting for this partition, so even a
        // panicking scan sends a partial; the coordinator re-raises its
        // payload.
        let partial = panic::catch_unwind(AssertUnwindSafe(|| {
            let seeds = seeds.read().expect(SEEDS_WRITTEN_WHOLE);
            scan_partition(ctx, &seeds, &mut scratch, job)
        }))
        .unwrap_or_else(|payload| {
            // The interrupted scan may have left records filled.
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
}

/// Executes rounds of planned blocks on the coordinating thread and its
/// helpers, with identical results at any thread count.
pub(crate) struct RoundExecutor<'a> {
    ctx: &'a ScanContext<'a>,
    /// The views' seeds for the round, shared with the helpers.
    seeds: &'a RwLock<Seeds>,
    /// The most partitions a round may have unmerged at once:
    /// `2 · threads`, or 1 without helpers (see the module docs).
    max_unmerged: usize,
    /// The coordinator's own scan state.
    scratch: WorkerScratch,
    /// The job queue's two ends. Helpers hold clones of `queue` and block
    /// on it; the coordinator only ever tries it. Dropping `jobs` with the
    /// executor closes the queue and ends the helpers.
    jobs: Sender<Job>,
    queue: Receiver<Job>,
    /// Partials scanned by helpers.
    results: Receiver<PartitionPartial>,
    /// Partials finished ahead of an earlier partition, by index.
    waiting: Vec<Option<PartitionPartial>>,
    /// Buffers of merged partitions, ready for the next ones.
    spare: Vec<PartitionBuffers>,
}

impl RoundExecutor<'_> {
    /// Sets the records every partition of the next round starts its views'
    /// records from: one per view, in view order. The buffer is reused, so
    /// after the first round this allocates nothing.
    pub(crate) fn seed_round(&mut self, seeds: impl IntoIterator<Item = FlatRecord>) {
        let mut buffer = self.seeds.write().expect(SEEDS_WRITTEN_WHOLE);
        buffer.round += 1;
        buffer.records.clear();
        buffer.records.extend(seeds);
        debug_assert_eq!(buffer.records.len(), self.ctx.num_views);
    }

    /// Scans every partition of `blocks`, each view's record started from
    /// the seed of the latest [`Self::seed_round`], and hands each partial to `merge`
    /// in partition (block-id) order, as soon as it and every earlier
    /// partition are done. At most `2 · threads` partitions (one without
    /// helpers) are unmerged at once, so a round's memory stays bounded
    /// however many blocks it covers.
    ///
    /// # Errors
    ///
    /// The first block-read failure in partition order (storage rot detected
    /// after open-time validation). The caller must then discard the state
    /// it merged into, and the executor: later partitions are not merged,
    /// and some may still be queued.
    pub(crate) fn execute_round(
        &mut self,
        blocks: &[BlockId],
        mut merge: impl FnMut(&PartitionPartial),
    ) -> Result<(), StoreError> {
        let mut chunks = blocks.chunks(partition_size(blocks.len())).enumerate();
        let total = chunks.len();
        self.waiting.clear();
        self.waiting.resize_with(total, || None);
        let (mut queued, mut merged) = (0, 0);
        while merged < total {
            while queued < merged + self.max_unmerged {
                let Some((index, chunk)) = chunks.next() else {
                    break;
                };
                let mut buffers = self.spare.pop().unwrap_or_default();
                buffers.blocks.extend_from_slice(chunk);
                if self.jobs.send(Job { index, buffers }).is_err() {
                    unreachable!("the coordinator holds a receiver of its own queue");
                }
                queued += 1;
            }
            // A finished partial comes first: merging it frees a slot, and
            // the refill above then keeps the helpers supplied.
            let partial = match self.results.try_recv() {
                Ok(partial) => partial,
                Err(_) => match self.queue.try_recv() {
                    Ok(job) => {
                        let seeds = self.seeds.read().expect(SEEDS_WRITTEN_WHOLE);
                        scan_partition(self.ctx, &seeds, &mut self.scratch, job)
                    }
                    // The queue is empty, so partition `merged` — queued,
                    // not merged, and not waiting, or the loop below would
                    // have merged it — was taken by a helper. A helper sends
                    // back a partial for every job it takes, even one whose
                    // scan panicked, so this receive returns. At
                    // `threads = 1` there is no helper, the queue holds the
                    // one unmerged partition, and the coordinator never gets
                    // here.
                    Err(_) => self
                        .results
                        .recv()
                        .expect("a helper sends back every partition it takes"),
                },
            };
            let index = partial.index;
            self.waiting[index] = Some(partial);
            while let Some(mut partial) = self.waiting.get_mut(merged).and_then(Option::take) {
                if let Some(payload) = partial.panic.take() {
                    // Re-raise with the original payload so the message and
                    // any context it carries survive the thread hop.
                    panic::resume_unwind(payload);
                }
                if let Some(error) = partial.error.take() {
                    return Err(error);
                }
                merge(&partial);
                let mut buffers = partial.buffers;
                buffers.blocks.clear();
                buffers.views.clear();
                self.spare.push(buffers);
                merged += 1;
            }
        }
        Ok(())
    }
}

/// Runs `f` with a [`RoundExecutor`] over `threads` scan threads: the
/// calling thread, which coordinates, and `threads − 1` scoped helpers
/// that live exactly as long as `f`.
pub(crate) fn with_round_executor<R>(
    ctx: &ScanContext<'_>,
    threads: usize,
    f: impl FnOnce(&mut RoundExecutor<'_>) -> R,
) -> R {
    let threads = effective_pool_size(threads);
    let (jobs, queue) = crossbeam::channel::unbounded();
    let (results_tx, results) = crossbeam::channel::unbounded();
    let seeds = RwLock::new(Seeds {
        round: 0,
        records: Vec::with_capacity(ctx.num_views),
    });
    std::thread::scope(|scope| {
        for _ in 1..threads {
            let (seeds, queue, results) = (&seeds, queue.clone(), results_tx.clone());
            scope.spawn(move || help(ctx, seeds, queue, results));
        }
        drop(results_tx);
        // The executor, and with it `jobs`, drops when `f` returns or
        // unwinds, which ends the helpers; the scope then joins them and
        // resumes a panic of `f` with its original payload.
        f(&mut RoundExecutor {
            ctx,
            seeds: &seeds,
            max_unmerged: if threads == 1 { 1 } else { 2 * threads },
            scratch: WorkerScratch::new(ctx),
            jobs,
            queue,
            results,
            waiting: Vec::new(),
            spare: Vec::new(),
        })
    })
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

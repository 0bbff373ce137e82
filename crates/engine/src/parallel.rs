//! The partitioned scan/aggregation pipeline: the coordinating thread and
//! its helpers scan a round's partitions into per-partition partial
//! records, which the coordinator merges deterministically in block-id
//! order.
//!
//! ## Partition layout
//!
//! Each OptStop round plans a list of blocks to fetch, written as ranges of
//! block ids in scan order. That list is cut into contiguous **partitions**
//! of a fixed block count, as morsel-driven engines size their work units
//! (Leis et al., "Morsel-Driven Parallelism", SIGMOD 2014): a work unit
//! must be large next to its fixed cost. A
//! partition's fixed cost grows with the query's views: it hands on one
//! record per view it touched, and the coordinator merges each. So
//! [`partition_size`] is, for a round of `n` blocks, a query of `v` views
//! and blocks of `b` rows,
//!
//! ```text
//! max(⌈n/64⌉, 256, ⌈c · v / b⌉)   blocks,   c = ROWS_PER_VIEW = 128 rows
//! ```
//!
//! A round therefore has at most 64 partitions, and a partition has at
//! least 256 blocks and at least `c` rows per view, unless the round is
//! smaller. The layout depends only on (round length, views, block size),
//! never on the thread count.
//!
//! **Why `c = 128`.** Handing on and merging a view's record costs
//! ≈ 40 ns (F-q6 at 1M rows: 150 fewer partitions of 700 views took
//! 3.6 ms off the scan and 0.8 ms off the merge), and scanning a row
//! ≈ 10 ns, so at 128 rows per view the hand-off is at most ≈ 3 % of a
//! partition's scan. A sweep of `c` over 0 (the length-only layout), 64,
//! 128, 256, 512 and 1 024 on perfbench's Table 5 stream at 1M rows (one
//! scan thread, three seeds; EXPERIMENTS.md, "View-aware partitions") put
//! the approximate stream's time 10 % lower at `c = 64` and 13–16 % lower
//! at every `c ≥ 128`, within noise of each other. Exact's kept falling as
//! `c` grew (9 % at 128, 13 % at 256, 17 % at 1 024), as it was one
//! round: each partition found each view's extremes again, value by value
//! (a first round now seeds them; EXPERIMENTS.md, "Exact scans seeded").
//! Each doubling of `c` halves the partitions a 100-view round (F-q5,
//! F-q8) can spread over threads, 4 at `c = 128` and one from `c = 400`
//! on. From `c = 200` on, a 3-view query on one-row blocks also
//! scans a 600-row round as one partition, and the merged-partition
//! coverage test in `tests/skip_ledger.rs` finds no round length that both
//! merges partitions and takes its runs past one round (770–1 000 rows
//! tried at `c = 256`).
//!
//! At the default 40 000-row rounds of 25-row blocks (1 600 blocks), a
//! query with up to 50 views keeps 7 partitions of 256 blocks per round,
//! a 100-view query has 4 of 512 blocks (the last 64), and F-q6's 700
//! views make each round one partition of 3 584 blocks. Exact scans such a
//! first round, then every other block as one round: at 1M rows (40 000
//! blocks) the 38 400 left are 64 partitions of 600 blocks for up to 117
//! views and 11 for F-q6; at 10M rows (400 000 blocks), 64 partitions for
//! up to 1 215 views, F-q6 included.
//!
//! The price is parallelism inside a round: a round scans on at most as
//! many threads as it has partitions, so F-q6's approximate rounds run on
//! one thread. At 10M rows on a 2-vCPU host, F-q6 fell from 174 to 133 ms
//! at one thread, but at two it read 131 ms against the length-only
//! layout's 125, whose 7 partitions per round ran in parallel. In exchange
//! a round pays its per-view hand-off once per partition that earns it,
//! not 7 times.
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
//! dense slab with one plain `Copy` [`FlatRecord`] per aggregate view plus
//! one **sink** record past the last view, and the selection vectors. A
//! record holds count, sum, shifted sums, extremes and RangeTrim's four
//! correction sums, one update per value for every bounder kind the engine
//! runs (see [`fastframe_core::partial`]). A row in no view folds into the
//! sink, which is never handed on, so the row loop has no branch on a
//! row's view. A partition fills records without listing them; at its end
//! one sweep over the views moves every record that counted a value into
//! the `PartitionPartial`'s buffer, in view order, and empties the sink.
//! The sweep is O(views), the order of the per-round seed copy and of the
//! round evaluation that already run per view.
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
//! That buffer and the job's block ranges are reused: each partition is
//! queued with a spare set of buffers, which comes back with its partial
//! and is kept, emptied, for later partitions and rounds. Once the buffers
//! have grown to a round's size, a partition allocates nothing, except the
//! general router arm's list of its columns' code slices, one small
//! allocation per run of up to 1 600 rows.
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
//! Within a partition, each **run** goes through one loop. A run is a
//! stretch of up to 64 consecutive blocks of one of the partition's ranges
//! ([`BlockSource::scan_blocks`]); a skipped block ends it. Each step below
//! is one call per run, so its fixed cost is paid once for up to 1 600
//! rows instead of once per 25-row block (the vectorised execution of
//! MonetDB/X100, Boncz, Zukowski and Nes, CIDR 2005):
//!
//! 1. The partition's runs are read through projection pushdown
//!    ([`BlockSource::scan_blocks`] decodes only the columns the query
//!    references, and the segment backing fetches each run with one read).
//! 2. The predicate runs as a columnar filter kernel producing a
//!    [`SelectionVector`]. A query without a predicate skips this step:
//!    its runs fold their whole row range, never materialised.
//! 3. The router and the target-value kernel are resolved once per run
//!    (`GroupLookup::route`, `ValueKernel::for_run`). The router arms are
//!    ungrouped (view 0), one or two GROUP BY columns indexing the dense
//!    group table, and a general arm that packs each row's key column by
//!    column, for three or more columns or the sparse map.
//! 4. One loop over the selected rows, compiled once per (rows, router
//!    arm, value kernel), computes each row's view from its GROUP BY codes
//!    and folds its target value straight into that view's record, or into
//!    the sink for a row in no view. No view id is written to a buffer
//!    between the two (the fused pipelines of Neumann, "Efficiently
//!    Compiling Efficient Query Plans for Modern Hardware", VLDB 2011).
//!
//! Blocks stay the unit of planning, skipping and counting: a partition's
//! `ExecMetrics::blocks_fetched` adds up the blocks of the runs it was
//! handed.
//!
//! Rows are never copied into per-view buffers. Each view still sees its
//! values in ascending row order, so a partition's records, and with them
//! the thread and backing bit-identity above, are unchanged by the
//! interleaving of views within a run.
//!
//! This is the only code that scans rows. Approximate OptStop rounds and the
//! Exact baseline (a first round, then every other block as one more) both
//! run through it; `tests/reference.rs` checks both against a naive
//! row-at-a-time evaluator.
//!
//! [`BlockSource::scan_blocks`]:
//!     fastframe_store::source::BlockSource::scan_blocks
//! [`FlatRecord`]: fastframe_core::partial::FlatRecord
//! [`FlatMaster::seed`]: fastframe_core::partial::FlatMaster::seed
//! [`FlatMaster::absorb`]: fastframe_core::partial::FlatMaster::absorb

use std::ops::{ControlFlow, Range};
use std::panic::{self, AssertUnwindSafe};
use std::sync::RwLock;

use crossbeam::channel::{Receiver, Sender};
use fastframe_core::partial::FlatRecord;

use fastframe_store::expr::BoundExpr;
use fastframe_store::predicate::BoundPredicate;
use fastframe_store::selection::{SelectionScratch, SelectionVector};
use fastframe_store::source::BlockSource;
use fastframe_store::table::{StoreError, Table};

use crate::executor::{BoundQuery, GroupLookup, WithRouter};
use crate::metrics::ExecMetrics;
use crate::query::AggregateFunction;

/// Upper bound on the number of partitions a round is split into. The
/// partition layout must be independent of the thread count (determinism),
/// so this is a constant rather than a multiple of the thread count.
pub(crate) const MAX_PARTITIONS: usize = 64;

/// Smallest partition, in blocks, unless the whole round is smaller: large
/// enough that per-partition costs stay small next to the rows scanned
/// when a query has few views.
const MIN_PARTITION_BLOCKS: usize = 256;

/// Rows a partition scans per aggregate view of the query, at the least,
/// so the per-view hand-off stays small next to its scan (see "Partition
/// layout" in the module docs for the measurement behind the value).
const ROWS_PER_VIEW: usize = 128;

/// Number of blocks per partition for a round of `total` planned blocks, a
/// query of `views` aggregate views and blocks of `block_rows` rows: the
/// largest of `⌈total/64⌉`, [`MIN_PARTITION_BLOCKS`] and
/// `⌈ROWS_PER_VIEW · views / block_rows⌉`. A pure function of its
/// arguments, never of the thread count.
pub(crate) fn partition_size(total: usize, views: usize, block_rows: usize) -> usize {
    let hand_off = (ROWS_PER_VIEW * views).div_ceil(block_rows);
    total
        .div_ceil(MAX_PARTITIONS)
        .max(MIN_PARTITION_BLOCKS)
        .max(hand_off)
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
    /// The partition's blocks, as ranges in scan order.
    blocks: Vec<Range<usize>>,
    /// Touched views' records, in view order (views are independent, so the
    /// order only has to be deterministic).
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
    /// Touched views' records, in view order.
    pub(crate) fn views(&self) -> &[(u32, FlatRecord)] {
        &self.buffers.views
    }
}

/// One record per aggregate view for the partition being scanned, then the
/// **sink**: one more record, past the last view, that folds the rows in no
/// view and is never handed on. A view the partition has not touched holds
/// its seed for the round, which has counted nothing.
struct Slab {
    records: Vec<FlatRecord>,
    /// The round whose seeds the untouched records hold (0: none yet).
    round: u64,
}

impl Slab {
    fn new(num_views: usize) -> Self {
        Self {
            records: vec![FlatRecord::EMPTY; num_views + 1],
            round: 0,
        }
    }

    /// Starts a partition of the round `seeds` belongs to: on the thread's
    /// first partition of a round, every view's record becomes its seed.
    fn begin(&mut self, seeds: &Seeds) {
        if self.round != seeds.round {
            self.records[..seeds.records.len()].copy_from_slice(&seeds.records);
            self.round = seeds.round;
        }
    }

    /// Moves the records of the views the partition touched out into `out`,
    /// in view order, leaving each its view's seed again, and empties the
    /// sink: one sweep over the views.
    fn take_into(&mut self, out: &mut Vec<(u32, FlatRecord)>, seeds: &Seeds) {
        let (views, sink) = self.records.split_at_mut(seeds.records.len());
        for (view, (record, seed)) in views.iter_mut().zip(&seeds.records).enumerate() {
            if !record.is_empty() {
                out.push((view as u32, std::mem::replace(record, *seed)));
            }
        }
        sink.fill(FlatRecord::EMPTY);
    }
}

/// A scan thread's reusable state: allocated once per thread per query,
/// reset after every partition and on a new round in O(views).
struct WorkerScratch {
    slab: Slab,
    /// One selection (plus a scratch pool for Or/Not temporaries) reused
    /// across runs: a run holds at most 1 600 rows at the default block
    /// size, so per-run allocation would be a visible share of the kernels.
    sel: SelectionVector,
    filter_scratch: SelectionScratch,
}

impl WorkerScratch {
    fn new(ctx: &ScanContext<'_>) -> Self {
        debug_assert_eq!(
            ctx.lookup.sink(),
            ctx.num_views,
            "the sink follows the views"
        );
        Self {
            slab: Slab::new(ctx.num_views),
            sel: SelectionVector::empty(),
            filter_scratch: SelectionScratch::new(),
        }
    }
}

/// A queued partition: its index and its buffers, the blocks filled in.
struct Job {
    index: usize,
    buffers: PartitionBuffers,
}

/// Scans one partition's blocks in block order, a run of consecutive
/// blocks at a time, producing its partial: projected run reads, columnar
/// predicate kernels into a [`SelectionVector`] (none for a query without a
/// predicate), and one loop per run that routes each selected row from its
/// GROUP BY codes straight into its view's record, each view's values in
/// ascending row order.
///
/// Runs are obtained through one [`BlockSource::scan_blocks`] call: a
/// zero-copy row range per run for in-memory scrambles, run reads decoding
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
    } = scratch;
    slab.begin(seeds);
    let mut exec = ExecMetrics::default();
    let projection = Some(ctx.projection.as_slice());
    let block_size = ctx.source.layout().block_size();
    let unfiltered = matches!(ctx.bound.predicate, BoundPredicate::True);
    let scanned = ctx
        .source
        .scan_blocks(&buffers.blocks, projection, &mut |_, run| {
            let table = run.table();
            // A run holds whole blocks and only the table's last block is
            // short, so the blocks it covers follow from its rows. They are
            // counted from what was visited, never from the granted list,
            // which `merge_pending` counts `ScanStats` from: a lost or
            // doubled block then shows as the two disagreeing.
            let rows = run.len();
            exec.record_run(rows.div_ceil(block_size) as u64, rows as u64);
            let rows = if unfiltered {
                RunRows::All(run.rows())
            } else {
                ctx.bound
                    .predicate
                    .filter_block_scratch(table, run.rows(), sel, filter_scratch);
                RunRows::Selected(sel.rows())
            };
            let selected = rows.len();
            exec.record_selected(selected as u64);
            if selected > 0 {
                let fold = Fold {
                    records: &mut slab.records,
                    rows,
                    kernel: ValueKernel::for_run(ctx, table),
                };
                exec.record_matches(ctx.lookup.route(table, fold));
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

/// The rows of a run to fold, in ascending order.
enum RunRows<'s> {
    /// A query without a predicate: the run's whole row range, never
    /// materialised as a selection.
    All(Range<usize>),
    /// The rows the predicate selected.
    Selected(&'s [u32]),
}

impl RunRows<'_> {
    fn len(&self) -> usize {
        match self {
            RunRows::All(rows) => rows.len(),
            RunRows::Selected(rows) => rows.len(),
        }
    }
}

/// One run's fold, handed the run's router by [`GroupLookup::route`]: the
/// row loop is compiled once per (rows, router arm, value kernel).
struct Fold<'s, 'a> {
    /// The slab's records, the sink last.
    records: &'s mut [FlatRecord],
    rows: RunRows<'s>,
    kernel: ValueKernel<'a>,
}

impl WithRouter for Fold<'_, '_> {
    /// The number of values folded into views.
    type Output = u64;

    #[inline]
    fn apply(self, route: impl Fn(usize) -> usize) -> u64 {
        let Fold {
            records,
            rows,
            kernel,
        } = self;
        match rows {
            RunRows::All(rows) => kernel.fold(records, rows, route),
            RunRows::Selected(rows) => {
                kernel.fold(records, rows.iter().map(|&row| row as usize), route)
            }
        }
    }
}

/// Folds each of `rows`, in order, into the record of its slot: `route`
/// gives a row's view, or the sink (the last record) for a row in no view,
/// and `value` its target value; a row without one is skipped. Returns the
/// number of values folded into views, the sink's not counted.
#[inline]
fn fold_rows(
    records: &mut [FlatRecord],
    rows: impl Iterator<Item = usize>,
    route: impl Fn(usize) -> usize,
    value: impl Fn(usize) -> Option<f64>,
) -> u64 {
    let sink = records.len() - 1;
    let mut folded = 0;
    for row in rows {
        if let Some(v) = value(row) {
            let slot = route(row);
            records[slot].observe(v);
            folded += u64::from(slot != sink);
        }
    }
    folded
}

/// Per-run gather strategy for the target expression's value of one
/// selected row. Resolved once per run so the common cases — COUNT and a
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
    /// Composite expression: evaluated per selected row of the run's table.
    Expr(&'a BoundExpr, &'a Table),
}

impl<'a> ValueKernel<'a> {
    fn for_run(ctx: &ScanContext<'a>, table: &'a Table) -> Self {
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
        ValueKernel::Expr(&ctx.bound.target, table)
    }

    /// [`fold_rows`] with the value gather specialised to this kernel.
    #[inline]
    fn fold(
        &self,
        records: &mut [FlatRecord],
        rows: impl Iterator<Item = usize>,
        route: impl Fn(usize) -> usize,
    ) -> u64 {
        match *self {
            ValueKernel::One => fold_rows(records, rows, route, |_| Some(1.0)),
            ValueKernel::Floats(values) => {
                fold_rows(records, rows, route, |row| values.get(row).copied())
            }
            ValueKernel::Ints(values) => fold_rows(records, rows, route, |row| {
                values.get(row).map(|&v| v as f64)
            }),
            ValueKernel::Expr(expr, table) => {
                fold_rows(records, rows, route, |row| expr.evaluate(table, row))
            }
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

/// The pieces of `blocks` that the partitions of `size` blocks each scan,
/// as `(partition, range)` in list order: the list is cut every `size`
/// blocks, where `chunks(size)` cuts the list of its block ids, so a range
/// is split only at a cut, and empty ranges drop out.
fn partition_pieces(
    blocks: &[Range<usize>],
    size: usize,
) -> impl Iterator<Item = (usize, Range<usize>)> + '_ {
    // Blocks of the list before the range being cut.
    let mut before = 0;
    blocks.iter().flat_map(move |range| {
        let (mut at, mut offset) = (range.start, before);
        before += range.len();
        std::iter::from_fn(move || {
            (at < range.end).then(|| {
                let len = (size - offset % size).min(range.end - at);
                let piece = (offset / size, at..at + len);
                at += len;
                offset += len;
                piece
            })
        })
    })
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

    /// Scans every partition of `blocks`, ranges of block ids in scan order
    /// ([`partition_pieces`]), each view's record started from the seed of
    /// the latest [`Self::seed_round`], and hands each partial to `merge`
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
        blocks: &[Range<usize>],
        mut merge: impl FnMut(&PartitionPartial),
    ) -> Result<(), StoreError> {
        let len = blocks.iter().map(ExactSizeIterator::len).sum();
        let size = partition_size(
            len,
            self.ctx.num_views,
            self.ctx.source.layout().block_size(),
        );
        let mut pieces = partition_pieces(blocks, size).peekable();
        let total = len.div_ceil(size);
        self.waiting.clear();
        self.waiting.resize_with(total, || None);
        let (mut queued, mut merged) = (0, 0);
        while merged < total {
            while queued < merged + self.max_unmerged {
                let Some(&(index, _)) = pieces.peek() else {
                    break;
                };
                let mut buffers = self.spare.pop().unwrap_or_default();
                while let Some((_, range)) = pieces.next_if(|(i, _)| *i == index) {
                    buffers.blocks.push(range);
                }
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
    use crate::executor::bind_query;
    use crate::query::AggQuery;
    use fastframe_core::partial::FlatMaster;
    use fastframe_store::column::Column;
    use fastframe_store::expr::Expr;
    use fastframe_store::predicate::Predicate;
    use fastframe_store::scramble::Scramble;
    use fastframe_store::source::BlockRef;

    /// A table with a shape for every router arm: three small categorical
    /// columns (`a`, `b`, `c`: 3, 4 and 2 codes), two wide ones whose
    /// 293 × 251 key space takes the sparse map, a float and an int.
    fn router_table(n: usize) -> Table {
        let labels = |prefix: &str, code: &dyn Fn(usize) -> usize| {
            (0..n)
                .map(|k| format!("{prefix}{}", code(k)))
                .collect::<Vec<_>>()
        };
        Table::new(vec![
            Column::categorical("a", &labels("a", &|k| k % 3)),
            Column::categorical("b", &labels("b", &|k| (k / 3) % 4)),
            Column::categorical("c", &labels("c", &|k| (k / 12) % 2)),
            Column::categorical("wide1", &labels("w", &|k| k % 293)),
            Column::categorical("wide2", &labels("x", &|k| k % 251)),
            Column::float(
                "x",
                (0..n)
                    .map(|k| ((k * 7_919) % 1_013) as f64 / 8.0 - 40.0)
                    .collect(),
            ),
            Column::int("n", (0..n).map(|k| ((k * 31) % 97) as i64 - 20).collect()),
        ])
        .unwrap()
    }

    /// Every router arm (ungrouped; one, two and three dense columns; the
    /// sparse map) crossed with every value kernel (COUNT, Float, Int,
    /// Expr), with and without a predicate, over a universe that leaves
    /// some tuples out: each handed-on record equals a value-by-value
    /// `FlatRecord::observe` fold of its view's rows in ascending order,
    /// the sink never reaches a partial, `rows_matched` counts only rows
    /// with a view and a value, and the slab starts the next partition
    /// from the seeds.
    #[test]
    fn fused_fold_matches_a_value_by_value_fold_on_every_arm_and_kernel() {
        let source = Scramble::build_with(&router_table(3_000), 7, 10).unwrap();
        let schema = source.schema();
        let index = |name: &str| schema.column_index(name).unwrap();
        let x = index("x");
        let groupings: [&[&str]; 5] = [
            &[],
            &["a"],
            &["a", "b"],
            &["a", "b", "c"],
            &["wide1", "wide2"],
        ];
        let kernels = ["count", "float", "int", "expr"];
        let query = |kernel: &str| match kernel {
            "count" => AggQuery::count(kernel),
            "float" => AggQuery::avg(kernel, Expr::col("x")),
            "int" => AggQuery::avg(kernel, Expr::col("n")),
            _ => AggQuery::sum(
                kernel,
                Expr::col("x").mul(Expr::lit(2.0)).add(Expr::col("n")),
            ),
        };
        // Two partitions scanned with one scratch; the first leaves out
        // every fifth block, so its runs end early.
        let half = source.num_blocks() / 2;
        let first: Vec<Range<usize>> = (0..half)
            .step_by(5)
            .flat_map(|b| [b..(b + 3).min(half), (b + 4).min(half)..(b + 5).min(half)])
            .collect();
        let second = half..source.num_blocks();
        for groups in groupings {
            let columns: Vec<usize> = groups.iter().map(|g| index(g)).collect();
            let codes = |table: &Table, row: usize| -> Vec<u32> {
                columns
                    .iter()
                    .map(|&ci| table.column_at(ci).category_code(row).unwrap())
                    .collect()
            };
            // The universe in first-appearance order, every third tuple
            // left out so that some rows belong to no view.
            let mut tuples: Vec<Vec<u32>> = Vec::new();
            let all = source.table();
            for row in 0..all.num_rows() {
                let tuple = codes(all, row);
                if !tuples.contains(&tuple) {
                    tuples.push(tuple);
                }
            }
            if !groups.is_empty() {
                tuples = tuples
                    .into_iter()
                    .enumerate()
                    .filter(|(i, _)| i % 3 != 1)
                    .map(|(_, t)| t)
                    .collect();
            }
            let lookup = GroupLookup::build(&columns, schema, &tuples).unwrap();
            let num_views = tuples.len();
            // Even views start from a seed holding a shift and extremes,
            // odd views from the empty record.
            let seeds = Seeds {
                round: 1,
                records: (0..num_views)
                    .map(|view| {
                        let mut master = FlatMaster::EMPTY;
                        if view % 2 == 0 {
                            master.seed();
                            let mut record = FlatRecord::EMPTY;
                            record.observe(view as f64 - 3.0);
                            record.observe(view as f64 + 5.0);
                            master.absorb(&record);
                        }
                        master.seed()
                    })
                    .collect(),
            };
            for kernel in kernels {
                for filtered in [false, true] {
                    let mut query = groups.iter().fold(query(kernel), |q, g| q.group_by(*g));
                    if filtered {
                        query = query.filter(Predicate::num_gt("x", 0.0));
                    }
                    let query = query.build();
                    let bound = bind_query(&source, &query).unwrap();
                    let ctx = ScanContext {
                        source: &source,
                        bound: &bound,
                        aggregate: query.aggregate,
                        lookup: &lookup,
                        num_views,
                        projection: (0..schema.num_columns()).collect(),
                    };
                    let case = format!("{groups:?} {} filtered={filtered}", query.name);
                    let mut scratch = WorkerScratch::new(&ctx);
                    let mut sunk = 0;
                    for (index, blocks) in [&first[..], std::slice::from_ref(&second)]
                        .into_iter()
                        .enumerate()
                    {
                        // The reference: every row of the partition, one at
                        // a time, in ascending order.
                        let mut expected = seeds.records.clone();
                        let mut folded = 0;
                        let mut visit = |_, run: BlockRef<'_>| {
                            let table = run.table();
                            for row in run.rows() {
                                let x = table.column_at(x).numeric_value(row).unwrap();
                                if filtered && x <= 0.0 {
                                    continue;
                                }
                                let value = match query.aggregate {
                                    AggregateFunction::Count => 1.0,
                                    _ => bound.target.evaluate(table, row).unwrap(),
                                };
                                let tuple = codes(table, row);
                                match tuples.iter().position(|t| *t == tuple) {
                                    Some(view) => {
                                        expected[view].observe(value);
                                        folded += 1;
                                    }
                                    None => sunk += 1,
                                }
                            }
                            ControlFlow::Continue(())
                        };
                        source.scan_blocks(blocks, None, &mut visit).unwrap();

                        let job = Job {
                            index,
                            buffers: PartitionBuffers {
                                blocks: blocks.to_vec(),
                                views: Vec::new(),
                            },
                        };
                        let partial = scan_partition(&ctx, &seeds, &mut scratch, job);
                        assert!(partial.error.is_none(), "{case}");
                        assert_eq!(partial.exec.rows_matched, folded, "{case}");
                        let handed: Vec<u32> = partial.views().iter().map(|&(v, _)| v).collect();
                        let touched: Vec<u32> = (0..num_views as u32)
                            .filter(|&v| !expected[v as usize].is_empty())
                            .collect();
                        assert_eq!(handed, touched, "{case}: the touched views, in view order");
                        for (view, record) in partial.views() {
                            assert_eq!(*record, expected[*view as usize], "{case} view {view}");
                        }
                        assert_eq!(
                            scratch.slab.records[..num_views],
                            seeds.records[..],
                            "{case}"
                        );
                        assert_eq!(scratch.slab.records[num_views], FlatRecord::EMPTY, "{case}");
                    }
                    assert_eq!(sunk > 0, !groups.is_empty(), "{case}: rows in no view");
                }
            }
        }
    }

    /// A round's range list is cut where `chunks(size)` cuts the list of its
    /// block ids, and a range is split only at a cut.
    #[test]
    fn partition_pieces_cut_the_ranges_where_chunks_cut_their_ids() {
        // A range split by cuts, an empty range, a range ending exactly on
        // a cut and a list that wraps from the last block to block 0.
        let list = [0..10, 12..12, 12..16, 20..22, 98..100, 0..1];
        let pieces: Vec<(usize, Range<usize>)> = partition_pieces(&list, 4).collect();
        assert_eq!(
            pieces,
            [
                (0, 0..4),
                (1, 4..8),
                (2, 8..10),
                (2, 12..14),
                (3, 14..16),
                (3, 20..22),
                (4, 98..100),
                (4, 0..1),
            ]
        );
        let lists: [&[Range<usize>]; 5] = [
            &list,
            &[],
            &[3..3, 7..7],
            &[0..256, 256..512, 600..601],
            &[990..1_000, 0..500, 500..500, 510..700, 0..0],
        ];
        for list in lists {
            let ids: Vec<usize> = list.iter().cloned().flatten().collect();
            for size in [1, 2, 3, 4, 7, 10, 256, 1_000] {
                let mut partitions: Vec<Vec<usize>> = Vec::new();
                for (index, range) in partition_pieces(list, size) {
                    assert!(!range.is_empty(), "{list:?} / {size}");
                    if index == partitions.len() {
                        partitions.push(Vec::new());
                    }
                    assert_eq!(index + 1, partitions.len(), "{list:?} / {size}");
                    partitions[index].extend(range);
                }
                let chunks: Vec<Vec<usize>> = ids.chunks(size).map(<[usize]>::to_vec).collect();
                assert_eq!(partitions, chunks, "{list:?} / {size}");
                assert_eq!(partitions.len(), ids.len().div_ceil(size));
            }
        }
    }

    #[test]
    fn partition_size_is_thread_count_independent() {
        // A pure function of (round blocks, views, block rows): no thread
        // count appears.
        let partitions =
            |n: usize, views: usize, rows: usize| n.div_ceil(partition_size(n, views, rows));
        // A few-view query keeps the length-only layout: one partition up
        // to 256 blocks, 7 for a default 1 600-block round of 25-row
        // blocks, exactly 64 at 16 384 blocks and never more.
        for views in [1, 3, 50] {
            assert_eq!(partition_size(0, views, 25), MIN_PARTITION_BLOCKS);
            assert_eq!(partition_size(255, views, 25), 256);
            assert_eq!(partition_size(16_384, views, 25), 256);
            assert_eq!(partition_size(16_385, views, 25), 257);
            assert_eq!(partition_size(40_000, views, 25), 625);
            assert_eq!(partitions(255, views, 25), 1);
            assert_eq!(partitions(256, views, 25), 1);
            assert_eq!(partitions(257, views, 25), 2);
            assert_eq!(partitions(1_600, views, 25), 7);
            assert_eq!(partitions(16_384, views, 25), 64);
        }
        // F-q6's shape: 700 views of 25-row blocks make a default round
        // one partition of ⌈128 · 700 / 25⌉ = 3 584 blocks, and Exact's
        // round 12 partitions at 1M rows and the length-only 64 at 10M.
        assert_eq!(partition_size(1_600, 700, 25), 3_584);
        assert_eq!(partitions(1_600, 700, 25), 1);
        assert_eq!(partitions(40_000, 700, 25), 12);
        assert_eq!(partitions(400_000, 700, 25), 64);
        // A 100-view query (F-q5, F-q8): four partitions per default round.
        assert_eq!(partition_size(1_600, 100, 25), 512);
        assert_eq!(partitions(1_600, 100, 25), 4);
        assert_eq!(partitions(40_000, 100, 25), 64);
        // The per-view term's edges: 51 views is the first to outgrow 256
        // blocks of 25 rows, and 3 views of one-row blocks need 384.
        assert_eq!(partition_size(1_600, 51, 25), 262);
        assert_eq!(partition_size(600, 3, 1), 384);
        assert_eq!(partitions(384, 3, 1), 1);
        assert_eq!(partitions(385, 3, 1), 2);
        assert_eq!(partitions(600, 3, 1), 2);
        // Larger blocks need fewer of them for the same rows per view.
        assert_eq!(partition_size(1_600, 700, 1_000), 256);
        // Every round yields at most MAX_PARTITIONS chunks, and a
        // partition never shrinks as views are added.
        for n in [1usize, 7, 64, 255, 256, 257, 1_600, 16_384, 16_385, 1 << 20] {
            for rows in [1, 25, 1_600] {
                let mut last = 0;
                for views in [0, 1, 3, 51, 100, 700, 100_000] {
                    let size = partition_size(n, views, rows);
                    assert!(partitions(n, views, rows) <= MAX_PARTITIONS, "n={n}");
                    assert!(size >= last, "n={n} views={views} rows={rows}");
                    last = size;
                }
            }
        }
    }
}

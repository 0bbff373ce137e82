//! `scan_throughput`: rows/second of the batch scan/aggregation pipeline
//! for a selective filter + AVG, on the in-memory and the segment backing.
//!
//! The workload is a full scramble pass (unsatisfiable stopping condition)
//! of `AVG(v) WHERE flag = 'on' AND time > t` — a selective conjunctive
//! filter in front of a single-column aggregate, the shape every OptStop
//! round pays on the paper's critical path. Both backings scan exactly the
//! same rows through the same kernels (columnar filter into a selection
//! vector, projection pushdown, per-row update of each row's view record),
//! and the harness asserts their estimates and scan counters are
//! bit-for-bit identical before reporting, so the rate ratio isolates the
//! cost of reading blocks: zero-copy views in memory against projected
//! chunk decodes on the segment.
//!
//! A second table isolates the block-read layer itself: nanoseconds per
//! block to read every block with the query's projection, either one
//! `read_block_projected` call per block or one `scan_blocks` call over the
//! whole list (the scan path, which both backings serve in runs of up to
//! `RUN_ROWS` rows of consecutive blocks).
//!
//! A third splits the segment's scan path into its steps, per block, with
//! the reader's own step clock (`SegmentReader::scan_steps`): the
//! positioned reads (one per referenced column and row group of a window
//! of up to 128 KiB of whole runs, read through holes of up to 400 skipped
//! rows) with the bytes they move, the four-lane CRC-32 check of each
//! run's referenced pieces and their decode into one buffer per column,
//! one call per page, next to the whole path through `scan_blocks`. It
//! covers the synthetic table's projection and two Flights projections
//! (5 columns; `{Origin, DepDelay}` and `{Airline, DepDelay, DepTime}`),
//! the shapes the Table 5 templates read.
//!
//! A fourth measures what reading through holes costs on sparse lists: a
//! list keeping `k` of every `m` blocks of the Flights segment, read with
//! `{Origin, DepDelay}` in partitions of 256 listed blocks as the engine
//! issues a round, one `scan_blocks` call each. Per cell it prints the
//! reads, the bytes read per fetched block (and the part of them read for
//! skipped blocks) and the nanoseconds per fetched block of the whole path.
//!
//! A fifth replays the engine's own partition lists: each Table 5 template
//! (F-q1…F-q9, Bernstein+RT, ActivePeek grouped and Scan ungrouped, as
//! perfbench issues them) runs once on the Flights segment through a
//! wrapper that keeps every block list the engine hands to `scan_blocks`,
//! and the lists are then replayed through `scan_steps`: reads, bytes and
//! the I/O, CRC-32 and unpack milliseconds of one query.
//!
//! A sixth isolates group routing plus estimator update, the layer that
//! takes each selected row from its GROUP BY codes into its view's record:
//! Exact full passes of `AVG(DepDelay)` over the in-memory Flights table,
//! with no predicate, ungrouped and grouped by Airline (10 views), Origin
//! (100), DayOfWeek × Origin (700) and DayOfWeek × Origin × Airline (the
//! general router arm), in nanoseconds per selected row. Each pass is also
//! run on the Flights segment, and the harness asserts every group's
//! estimate, interval and sample count are bit-identical across backings.
//!
//! Results land in `EXPERIMENTS.md`.
//!
//! Run with `cargo bench -p fastframe-bench --bench scan_throughput`.
//! Environment: `FASTFRAME_ROWS` (default 1 000 000), `FASTFRAME_SEED`,
//! `FASTFRAME_BENCH_RUNS` (default 5; the **median** wall time is
//! reported, which is robust to scheduler noise at millisecond-scale
//! runs), `FASTFRAME_THREADS` (pool size, default 1 so the comparison
//! isolates the inner loop).

use std::ops::{ControlFlow, Range};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use fastframe_bench::{env_or, print_header, print_row};
use fastframe_core::bounder::BounderKind;
use fastframe_engine::config::{EngineConfig, SamplingStrategy};
use fastframe_engine::query::AggQuery;
use fastframe_engine::session::{PreparedQuery, Session};
use fastframe_engine::QueryResult;
use fastframe_store::bitmap::BlockBitmapIndex;
use fastframe_store::block::{BlockId, BlockLayout};
use fastframe_store::catalog::Catalog;
use fastframe_store::column::Column;
use fastframe_store::expr::Expr;
use fastframe_store::persist::{ScanSteps, SegmentReader};
use fastframe_store::predicate::Predicate;
use fastframe_store::source::{BlockRef, BlockSource, GroupUniverseCache, RUN_ROWS};
use fastframe_store::table::{StoreResult, Table};
use fastframe_store::zone::ZoneMap;
use fastframe_workloads::flights::{columns as fc, FlightsConfig, FlightsDataset};
use fastframe_workloads::queries::all_default_queries;

const MEM: &str = "mem";
const DISK: &str = "disk";
const FLIGHTS: &str = "flights";
const FLIGHTS_DISK: &str = "flights_disk";

/// Blocks per partition of the sparse-list table: the engine's smallest
/// partition, the size every round of up to 16 384 blocks is cut into.
const PARTITION_BLOCKS: usize = 256;

/// 1M-row synthetic table: a float target, an int time column, a 16-value
/// categorical whose `flag = 'on'` arm selects 1/16 of the rows, plus three
/// padding float columns the query never touches — the realistic wide-table
/// shape where projection pushdown earns its keep on the lazy backing (a
/// scan decodes 3 of the 6 columns).
fn dataset(rows: usize, seed: u64) -> Table {
    let mut values = Vec::with_capacity(rows);
    let mut times = Vec::with_capacity(rows);
    let mut flags = Vec::with_capacity(rows);
    let mut pads: Vec<Vec<f64>> = (0..3).map(|_| Vec::with_capacity(rows)).collect();
    let mut state = seed | 1;
    for _ in 0..rows {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        values.push((state % 10_000) as f64 / 100.0);
        times.push(600 + (state >> 16) as i64 % 1200);
        let f = (state >> 8) % 16;
        flags.push(if f == 0 {
            "on".to_string()
        } else {
            format!("off{f}")
        });
        for (i, pad) in pads.iter_mut().enumerate() {
            pad.push(((state >> (20 + i)) % 1_000) as f64);
        }
    }
    let mut columns = vec![
        Column::float("v", values),
        Column::int("time", times),
        Column::categorical("flag", &flags),
    ];
    for (i, pad) in pads.into_iter().enumerate() {
        columns.push(Column::float(format!("pad{i}"), pad));
    }
    Table::new(columns).unwrap()
}

fn config(threads: usize, rows: usize) -> EngineConfig {
    EngineConfig::builder()
        .bounder(BounderKind::BernsteinRangeTrim)
        .strategy(SamplingStrategy::Scan)
        .delta(1e-15)
        .round_rows((rows as u64 / 4).max(10_000))
        .start_block(0)
        .threads(threads)
        .build()
}

/// The harness's query: `AVG(v) WHERE flag = 'on' AND time > 900`, its
/// stopping condition unsatisfiable, so it always makes a full pass and
/// rows/sec is well defined.
fn full_pass_query() -> AggQuery {
    AggQuery::avg("scan_throughput", Expr::col("v"))
        .filter(Predicate::And(vec![
            Predicate::cat_eq("flag", "on"),
            Predicate::num_gt("time", 900.0),
        ]))
        .absolute_width(0.0)
        .build()
}

fn run(session: &Session, table: &str, cfg: &EngineConfig) -> (QueryResult, Duration) {
    let start = Instant::now();
    let result = session
        .prepare(table, &full_pass_query())
        .expect("scan_throughput query")
        .with_config(cfg.clone())
        .execute()
        .expect("scan_throughput query");
    (result, start.elapsed())
}

/// Asserts every group of `a` and `b` carries the same key, bit-identical
/// estimate and interval, and the same sample count.
fn assert_groups_identical(a: &QueryResult, b: &QueryResult, what: &str) {
    let bits = |r: &QueryResult| -> Vec<_> {
        r.groups
            .iter()
            .map(|g| {
                (
                    g.key.codes.clone(),
                    g.estimate.map(f64::to_bits),
                    (g.ci.lo.to_bits(), g.ci.hi.to_bits()),
                    g.samples,
                )
            })
            .collect()
    };
    assert_eq!(bits(a), bits(b), "{what}: groups must be bit-identical");
}

fn assert_identical(a: &QueryResult, b: &QueryResult, what: &str) {
    assert_eq!(
        a.global().unwrap().estimate.map(f64::to_bits),
        b.global().unwrap().estimate.map(f64::to_bits),
        "{what}: estimates must be bit-identical"
    );
    assert_eq!(a.metrics.scan, b.metrics.scan, "{what}: ScanStats");
}

/// Median nanoseconds per block of the three steps of the segment
/// reader's scan path over `projection`, every block read as a full scan
/// reads it, with the steps timed by the reader itself
/// (`SegmentReader::scan_steps`): I/O (positioned reads of the referenced
/// columns' pieces into a reused buffer), CRC-32 (each run's referenced
/// pieces checked column by column, four at a time) and unpack (each
/// referenced column of a run decoded into one reused buffer, one call per
/// page). Also returns the number of reads of one pass and the bytes they
/// move per block.
fn read_split_ns(
    reader: &SegmentReader,
    projection: &[usize],
    runs: usize,
) -> ([f64; 3], usize, f64) {
    let blocks = reader.num_blocks();
    let every = 0..blocks;
    let steps: Vec<ScanSteps> = (0..runs)
        .map(|_| {
            reader
                .scan_steps(std::slice::from_ref(&every), Some(projection))
                .expect("scan_steps")
        })
        .collect();
    let median = |step: fn(&ScanSteps) -> Duration| {
        let mut walls: Vec<Duration> = steps.iter().map(step).collect();
        walls.sort();
        walls[runs / 2].as_nanos() as f64 / blocks as f64
    };
    (
        [median(|s| s.io), median(|s| s.crc), median(|s| s.decode)],
        steps[0].reads,
        steps[0].bytes as f64 / blocks as f64,
    )
}

/// Median nanoseconds per block to read every block of `source` with
/// `projection`: one `read_block_projected` per block, or one `scan_blocks`
/// over the whole list. Each block's row count is summed so the reads
/// cannot be optimized away.
fn block_read_ns(source: &dyn BlockSource, projection: &[usize], runs: usize, scan: bool) -> f64 {
    let blocks = source.num_blocks();
    let every = 0..blocks;
    let mut walls = Vec::with_capacity(runs);
    for _ in 0..runs {
        let mut rows = 0;
        let start = Instant::now();
        if scan {
            source
                .scan_blocks(
                    std::slice::from_ref(&every),
                    Some(projection),
                    &mut |_, block| {
                        rows += block.len();
                        ControlFlow::Continue(())
                    },
                )
                .expect("scan_blocks");
        } else {
            for block in (0..blocks).map(BlockId) {
                rows += source
                    .read_block_projected(block, Some(projection))
                    .expect("read_block_projected")
                    .len();
            }
        }
        walls.push(start.elapsed());
        assert_eq!(rows, source.num_rows(), "every row read");
    }
    walls.sort();
    walls[runs / 2].as_nanos() as f64 / blocks as f64
}

/// Adds one scan's steps to a running total.
fn add_steps(total: &mut ScanSteps, steps: &ScanSteps) {
    total.io += steps.io;
    total.crc += steps.crc;
    total.decode += steps.decode;
    total.reads += steps.reads;
    total.bytes += steps.bytes;
    total.hole_bytes += steps.hole_bytes;
}

/// `blocks` cut every `size` listed blocks, as the engine cuts a round into
/// partitions.
fn partitions(blocks: &[Range<usize>], size: usize) -> Vec<Vec<Range<usize>>> {
    let mut out: Vec<Vec<Range<usize>>> = Vec::new();
    let mut room = 0;
    for range in blocks {
        let mut at = range.start;
        while at < range.end {
            if room == 0 {
                out.push(Vec::new());
                room = size;
            }
            let len = room.min(range.end - at);
            out.last_mut().expect("a partition").push(at..at + len);
            (at, room) = (at + len, room - len);
        }
    }
    out
}

/// A list keeping the first `keep` of every `stride` blocks of `reader`,
/// scanned as the engine scans a round: one `scan_blocks` call per
/// partition of [`PARTITION_BLOCKS`] listed blocks. Returns the blocks
/// listed, the steps of one pass (summed over its partitions) and the
/// median nanoseconds per listed block of the whole path.
fn sparse_scan(
    reader: &SegmentReader,
    projection: &[usize],
    keep: usize,
    stride: usize,
    runs: usize,
) -> (usize, ScanSteps, f64) {
    let n = reader.num_blocks();
    // Ranges that continue each other are merged, so runs are maximal.
    let mut list: Vec<Range<usize>> = Vec::new();
    for range in (0..n).step_by(stride).map(|b| b..(b + keep).min(n)) {
        match list.last_mut() {
            Some(last) if last.end == range.start => last.end = range.end,
            _ => list.push(range),
        }
    }
    let blocks: usize = list.iter().map(|range| range.len()).sum();
    let partitions = partitions(&list, PARTITION_BLOCKS);
    let mut steps = ScanSteps::default();
    for partition in &partitions {
        let partition_steps = reader
            .scan_steps(partition, Some(projection))
            .expect("scan_steps");
        add_steps(&mut steps, &partition_steps);
    }
    let mut walls = Vec::with_capacity(runs);
    for _ in 0..runs {
        let mut rows = 0;
        let start = Instant::now();
        for partition in &partitions {
            reader
                .scan_blocks(partition, Some(projection), &mut |_, run| {
                    rows += run.len();
                    ControlFlow::Continue(())
                })
                .expect("scan_blocks");
        }
        walls.push(start.elapsed());
        assert!(rows >= blocks, "every listed block read");
    }
    walls.sort();
    let ns = walls[runs / 2].as_nanos() as f64 / blocks as f64;
    (blocks, steps, ns)
}

/// A segment reader that keeps every block list the engine hands to
/// `scan_blocks` (one per partition), with its projection, so a query's
/// reads can be replayed through `SegmentReader::scan_steps`.
struct PartitionLists<'a> {
    reader: &'a SegmentReader,
    lists: Mutex<Vec<ScanCall>>,
}

/// One `scan_blocks` call: its block list and projection.
type ScanCall = (Vec<Range<usize>>, Option<Vec<usize>>);

impl BlockSource for PartitionLists<'_> {
    fn schema(&self) -> &Table {
        self.reader.schema()
    }

    fn num_rows(&self) -> usize {
        self.reader.num_rows()
    }

    fn layout(&self) -> &BlockLayout {
        self.reader.layout()
    }

    fn catalog(&self) -> &Catalog {
        self.reader.catalog()
    }

    fn seed(&self) -> u64 {
        self.reader.seed()
    }

    fn bitmap_index(&self, column: &str) -> Option<&BlockBitmapIndex> {
        self.reader.bitmap_index(column)
    }

    fn zone_map(&self, column: &str) -> Option<&ZoneMap> {
        self.reader.zone_map(column)
    }

    fn read_block(&self, block: BlockId) -> StoreResult<BlockRef<'_>> {
        self.reader.read_block(block)
    }

    fn read_block_projected(
        &self,
        block: BlockId,
        projection: Option<&[usize]>,
    ) -> StoreResult<BlockRef<'_>> {
        self.reader.read_block_projected(block, projection)
    }

    fn scan_blocks(
        &self,
        blocks: &[Range<usize>],
        projection: Option<&[usize]>,
        visit: &mut dyn FnMut(BlockId, BlockRef<'_>) -> ControlFlow<()>,
    ) -> StoreResult<()> {
        let list = (blocks.to_vec(), projection.map(<[usize]>::to_vec));
        self.lists.lock().unwrap().push(list);
        self.reader.scan_blocks(blocks, projection, visit)
    }

    fn group_universe_cache(&self) -> Option<&GroupUniverseCache> {
        self.reader.group_universe_cache()
    }
}

/// Runs `query` with `cfg` over `reader` twice (the first run builds any
/// group universe, as a steady stream has it built) and replays the block
/// lists the engine handed to `scan_blocks` in the second, one per
/// partition, through `scan_steps`, `runs` times. Returns the partitions
/// and blocks the query scanned and the steps of the median replay by
/// total step time.
fn partition_reads(
    reader: &SegmentReader,
    query: AggQuery,
    cfg: EngineConfig,
    runs: usize,
) -> (usize, usize, ScanSteps) {
    let recorder = PartitionLists {
        reader,
        lists: Mutex::new(Vec::new()),
    };
    let query = PreparedQuery::new(&recorder, query, cfg).expect("prepare");
    query.execute().expect("query");
    recorder.lists.lock().unwrap().clear();
    query.execute().expect("query");
    let lists = recorder.lists.into_inner().unwrap();
    let mut replays: Vec<ScanSteps> = (0..runs)
        .map(|_| {
            let mut steps = ScanSteps::default();
            for (blocks, projection) in &lists {
                let list_steps = reader
                    .scan_steps(blocks, projection.as_deref())
                    .expect("scan_steps");
                add_steps(&mut steps, &list_steps);
            }
            steps
        })
        .collect();
    replays.sort_by_key(|s| s.io + s.crc + s.decode);
    let blocks = lists
        .iter()
        .flat_map(|(blocks, _)| blocks)
        .map(|range| range.len())
        .sum();
    (lists.len(), blocks, replays[runs / 2])
}

fn main() {
    let rows = env_or("FASTFRAME_ROWS", 1_000_000usize);
    let seed = env_or("FASTFRAME_SEED", 0x5eedu64);
    let runs = env_or("FASTFRAME_BENCH_RUNS", 5usize);
    let threads = env_or("FASTFRAME_THREADS", 1usize);

    eprintln!("# scan_throughput: building {rows}-row dataset ...");
    let table = dataset(rows, seed);
    let mut session = Session::new();
    session.register(MEM, &table).unwrap();
    let path = std::env::temp_dir().join(format!(
        "fastframe_scan_throughput_{}.ffseg",
        std::process::id()
    ));
    session.save_table(MEM, &path).unwrap();
    session.open_table(DISK, &path).unwrap();

    println!("## scan_throughput — selective filter + AVG, full pass, {rows} rows, {threads} thread(s), median of {runs}");
    print_header(&["backing", "wall", "rows/sec", "selected", "rate vs memory"]);

    let cfg = config(threads, rows);
    let mut memory: Option<(QueryResult, Duration)> = None;
    for backing in [MEM, DISK] {
        let mut walls = Vec::with_capacity(runs);
        let mut result = None;
        for _ in 0..runs {
            let (r, wall) = run(&session, backing, &cfg);
            walls.push(wall);
            result = Some(r);
        }
        walls.sort();
        let wall = walls[runs / 2];
        let result = result.expect("at least one run");
        // Identity first: the rates are only comparable if both backings
        // scanned the same rows into the same state.
        if let Some((ref m, _)) = memory {
            assert_identical(m, &result, "cross-backing");
        }
        let rate = result.metrics.scan.rows_scanned as f64 / wall.as_secs_f64();
        let memory_wall = memory.as_ref().map_or(wall, |(_, w)| *w);
        print_row(&[
            backing.to_string(),
            format!("{:.3}s", wall.as_secs_f64()),
            format!("{:.2}M", rate / 1e6),
            format!("{}", result.metrics.rows_selected()),
            format!("{:.3}x", memory_wall.as_secs_f64() / wall.as_secs_f64()),
        ]);
        if memory.is_none() {
            memory = Some((result, wall));
        }
    }

    println!();
    println!("## block reads — every block, query projection (v, time, flag), median of {runs}");
    print_header(&["backing", "read path", "ns/block"]);
    for backing in [MEM, DISK] {
        let source = session.source(backing).unwrap();
        for (label, scan) in [("read_block_projected", false), ("scan_blocks", true)] {
            print_row(&[
                backing.to_string(),
                label.to_string(),
                format!("{:.0}", block_read_ns(source, &[0, 1, 2], runs, scan)),
            ]);
        }
    }

    // Flights-shaped: 5 columns, two of the projections F-q1…F-q9 use.
    let flights = FlightsDataset::generate(FlightsConfig::default().rows(rows).seed(seed))
        .expect("flights dataset");
    flights.register_into(&mut session, FLIGHTS).unwrap();
    let flights_path = std::env::temp_dir().join(format!(
        "fastframe_scan_throughput_flights_{}.ffseg",
        std::process::id()
    ));
    session.save_table(FLIGHTS, &flights_path).unwrap();
    session.open_table(FLIGHTS_DISK, &flights_path).unwrap();
    let flights_projection = |names: &[&str]| -> Vec<usize> {
        let schema = session.source(FLIGHTS).unwrap().schema();
        let mut projection: Vec<usize> = names
            .iter()
            .map(|name| schema.column_index(name).unwrap())
            .collect();
        projection.sort_unstable();
        projection
    };
    let splits = [
        (path.as_path(), "synthetic {v, time, flag}", vec![0, 1, 2]),
        (
            flights_path.as_path(),
            "Flights {Origin, DepDelay}",
            flights_projection(&[fc::ORIGIN, fc::DEP_DELAY]),
        ),
        (
            flights_path.as_path(),
            "Flights {Airline, DepDelay, DepTime}",
            flights_projection(&[fc::AIRLINE, fc::DEP_DELAY, fc::DEP_TIME]),
        ),
    ];
    println!();
    println!(
        "## segment scans, split by step (ns/block; runs of up to {RUN_ROWS} rows, median of {runs})"
    );
    print_header(&[
        "table and projection",
        "reads",
        "bytes/block",
        "I/O",
        "CRC-32",
        "unpack",
        "sum",
        "scan_blocks",
    ]);
    for (file, label, projection) in &splits {
        let reader = SegmentReader::open(file).expect("reopen segment");
        let ([io, crc, unpack], reads, bytes) = read_split_ns(&reader, projection, runs);
        let whole = block_read_ns(&reader, projection, runs, true);
        print_row(&[
            label.to_string(),
            format!("{reads}"),
            format!("{bytes:.0}"),
            format!("{io:.0}"),
            format!("{crc:.0}"),
            format!("{unpack:.0}"),
            format!("{:.0}", io + crc + unpack),
            format!("{whole:.0}"),
        ]);
    }
    println!();
    println!(
        "## routing and fold — Exact full passes of AVG(DepDelay) over Flights, \
         no predicate, in memory, {threads} thread(s), median of {runs}"
    );
    print_header(&["GROUP BY", "views", "wall", "ns/selected row"]);
    let groupings: [&[&str]; 5] = [
        &[],
        &[fc::AIRLINE],
        &[fc::ORIGIN],
        &[fc::DAY_OF_WEEK, fc::ORIGIN],
        &[fc::DAY_OF_WEEK, fc::ORIGIN, fc::AIRLINE],
    ];
    let exact_cfg = EngineConfig::builder().threads(threads).build();
    for groups in groupings {
        let query = groups
            .iter()
            .fold(AggQuery::avg("fold", Expr::col(fc::DEP_DELAY)), |q, g| {
                q.group_by(*g)
            })
            .build();
        let exact = |table: &str| {
            session
                .prepare(table, &query)
                .expect("routing query")
                .with_config(exact_cfg.clone())
                .execute_exact()
                .expect("routing query")
        };
        let mut walls = Vec::with_capacity(runs);
        let mut result = None;
        for _ in 0..runs {
            let start = Instant::now();
            result = Some(exact(FLIGHTS));
            walls.push(start.elapsed());
        }
        walls.sort();
        let wall = walls[runs / 2];
        let result = result.expect("at least one run");
        let label = match groups {
            [] => "none".to_string(),
            _ => groups.join(" × "),
        };
        assert_groups_identical(&result, &exact(FLIGHTS_DISK), &label);
        print_row(&[
            label,
            format!("{}", result.groups.len()),
            format!("{:.2} ms", wall.as_secs_f64() * 1e3),
            format!(
                "{:.2}",
                wall.as_secs_f64() * 1e9 / result.metrics.rows_selected() as f64
            ),
        ]);
    }

    let flights_reader = SegmentReader::open(&flights_path).expect("reopen segment");
    let origin_delay = flights_projection(&[fc::ORIGIN, fc::DEP_DELAY]);
    println!();
    println!(
        "## sparse lists — Flights {{Origin, DepDelay}}, k of every m blocks, \
         partitions of {PARTITION_BLOCKS} listed blocks, median of {runs}"
    );
    print_header(&[
        "k of m",
        "blocks",
        "reads",
        "bytes/block",
        "hole bytes/block",
        "ns/block",
        "ms/pass",
    ]);
    let cells = [
        (1, 1),
        (1, 2),
        (1, 4),
        (1, 8),
        (1, 16),
        (1, 32),
        (1, 64),
        (1, 256),
        (4, 16),
        (4, 64),
        (4, 256),
    ];
    for (keep, stride) in cells {
        let (blocks, steps, ns) = sparse_scan(&flights_reader, &origin_delay, keep, stride, runs);
        print_row(&[
            format!("{keep} of {stride}"),
            format!("{blocks}"),
            format!("{}", steps.reads),
            format!("{:.0}", steps.bytes as f64 / blocks as f64),
            format!("{:.0}", steps.hole_bytes as f64 / blocks as f64),
            format!("{ns:.0}"),
            format!("{:.3}", ns * blocks as f64 / 1e6),
        ]);
    }

    println!();
    println!(
        "## queries on the segment — the engine's partition lists replayed \
         through scan_steps (ms per query, median of {runs})"
    );
    print_header(&[
        "query",
        "partitions",
        "blocks",
        "reads",
        "KiB",
        "hole KiB",
        "I/O",
        "CRC-32",
        "unpack",
    ]);
    let ms = |d: Duration| format!("{:.2}", d.as_secs_f64() * 1e3);
    let row = |id: &str, partitions: usize, blocks: usize, steps: &ScanSteps| {
        print_row(&[
            id.to_string(),
            format!("{partitions}"),
            format!("{blocks}"),
            format!("{}", steps.reads),
            format!("{}", steps.bytes / 1024),
            format!("{}", steps.hole_bytes / 1024),
            ms(steps.io),
            ms(steps.crc),
            ms(steps.decode),
        ]);
    };
    // Each Table 5 template as perfbench issues it.
    let (mut partitions, mut blocks, mut total) = (0, 0, ScanSteps::default());
    for template in all_default_queries() {
        let strategy = match template.query.is_grouped() {
            true => SamplingStrategy::ActivePeek,
            false => SamplingStrategy::Scan,
        };
        let cfg = EngineConfig::builder()
            .bounder(BounderKind::BernsteinRangeTrim)
            .strategy(strategy)
            .delta(1e-15)
            .start_block(0)
            .threads(1)
            .build();
        let (p, b, steps) = partition_reads(&flights_reader, template.query, cfg, runs);
        row(template.id, p, b, &steps);
        (partitions, blocks) = (partitions + p, blocks + b);
        add_steps(&mut total, &steps);
    }
    row("F-q1…F-q9", partitions, blocks, &total);
    // The first table's full pass, whose bitmap skips leave one-block holes.
    let synthetic = SegmentReader::open(&path).expect("reopen segment");
    let (p, b, steps) = partition_reads(&synthetic, full_pass_query(), cfg, runs);
    row("synthetic full pass", p, b, &steps);
    std::fs::remove_file(&flights_path).ok();
    std::fs::remove_file(&path).ok();
}

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
//! of up to 256 KiB of whole runs) with the bytes they move, the
//! four-lane CRC-32 check of each run's referenced pieces and their decode
//! into one buffer per column, one call per page, next to the whole path
//! through `scan_blocks`. It covers the synthetic table's
//! projection and two Flights projections (5 columns; `{Origin, DepDelay}`
//! and `{Airline, DepDelay, DepTime}`), the shapes the Table 5 templates
//! read.
//!
//! Results land in `EXPERIMENTS.md`.
//!
//! Run with `cargo bench -p fastframe-bench --bench scan_throughput`.
//! Environment: `FASTFRAME_ROWS` (default 1 000 000), `FASTFRAME_SEED`,
//! `FASTFRAME_BENCH_RUNS` (default 5; the **median** wall time is
//! reported, which is robust to scheduler noise at millisecond-scale
//! runs), `FASTFRAME_THREADS` (pool size, default 1 so the comparison
//! isolates the inner loop).

use std::ops::ControlFlow;
use std::time::{Duration, Instant};

use fastframe_bench::{env_or, print_header, print_row};
use fastframe_core::bounder::BounderKind;
use fastframe_engine::config::{EngineConfig, SamplingStrategy};
use fastframe_engine::session::Session;
use fastframe_engine::QueryResult;
use fastframe_store::block::BlockId;
use fastframe_store::column::Column;
use fastframe_store::expr::Expr;
use fastframe_store::persist::{ScanSteps, SegmentReader};
use fastframe_store::predicate::Predicate;
use fastframe_store::source::{BlockSource, RUN_ROWS};
use fastframe_store::table::Table;
use fastframe_workloads::flights::{columns as fc, FlightsConfig, FlightsDataset};

const MEM: &str = "mem";
const DISK: &str = "disk";
const FLIGHTS: &str = "flights";

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

fn run(session: &Session, table: &str, cfg: &EngineConfig) -> (QueryResult, Duration) {
    let start = Instant::now();
    let result = session
        .query(table)
        .avg(Expr::col("v"))
        .filter(Predicate::And(vec![
            Predicate::cat_eq("flag", "on"),
            Predicate::num_gt("time", 900.0),
        ]))
        // Unsatisfiable: force the full pass so rows/sec is well defined.
        .absolute_width(0.0)
        .config(cfg.clone())
        .execute()
        .expect("scan_throughput query");
    (result, start.elapsed())
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
    let blocks: Vec<BlockId> = (0..reader.num_blocks()).map(BlockId).collect();
    let steps: Vec<ScanSteps> = (0..runs)
        .map(|_| {
            reader
                .scan_steps(&blocks, Some(projection))
                .expect("scan_steps")
        })
        .collect();
    let median = |step: fn(&ScanSteps) -> Duration| {
        let mut walls: Vec<Duration> = steps.iter().map(step).collect();
        walls.sort();
        walls[runs / 2].as_nanos() as f64 / blocks.len() as f64
    };
    (
        [median(|s| s.io), median(|s| s.crc), median(|s| s.decode)],
        steps[0].reads,
        steps[0].bytes as f64 / blocks.len() as f64,
    )
}

/// Median nanoseconds per block to read every block of `source` with
/// `projection`: one `read_block_projected` per block, or one `scan_blocks`
/// over the whole list. Each block's row count is summed so the reads
/// cannot be optimized away.
fn block_read_ns(source: &dyn BlockSource, projection: &[usize], runs: usize, scan: bool) -> f64 {
    let blocks: Vec<BlockId> = (0..source.num_blocks()).map(BlockId).collect();
    let mut walls = Vec::with_capacity(runs);
    for _ in 0..runs {
        let mut rows = 0;
        let start = Instant::now();
        if scan {
            source
                .scan_blocks(&blocks, Some(projection), &mut |_, block| {
                    rows += block.len();
                    ControlFlow::Continue(())
                })
                .expect("scan_blocks");
        } else {
            for &block in &blocks {
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
    walls[runs / 2].as_nanos() as f64 / blocks.len() as f64
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
    std::fs::remove_file(&flights_path).ok();
    std::fs::remove_file(&path).ok();
}

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
//! whole list (the scan path, which the segment serves in runs of
//! consecutive blocks).
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
use fastframe_store::column::{Column, ColumnData};
use fastframe_store::expr::Expr;
use fastframe_store::persist::format::{crc32, decode_chunk, encode_chunk, HEADER_LEN};
use fastframe_store::predicate::Predicate;
use fastframe_store::scramble::Scramble;
use fastframe_store::source::BlockSource;
use fastframe_store::table::Table;

const MEM: &str = "mem";
const DISK: &str = "disk";

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

/// Median nanoseconds per block of the three steps of a segment block read,
/// timed apart over the query's projection: I/O (the whole data section in
/// 256 KiB positioned reads, as the reader's runs fetch it), CRC-32 over the
/// referenced chunks, and decoding them into reused column buffers. The
/// chunks are re-encoded from the in-memory scramble, which yields the
/// segment's exact bytes.
fn read_split_ns(
    scramble: &Scramble,
    path: &std::path::Path,
    projection: &[usize],
    runs: usize,
) -> [f64; 3] {
    use std::os::unix::fs::FileExt;
    let table = scramble.table();
    let num_blocks = scramble.num_blocks();
    let mut chunks = Vec::new();
    let mut data_bytes = HEADER_LEN;
    for block in 0..num_blocks {
        let rows = scramble.block_rows(BlockId(block));
        for (ci, column) in table.columns().iter().enumerate() {
            let mut bytes = Vec::new();
            let encoding = encode_chunk(column, rows.clone(), &mut bytes);
            data_bytes += bytes.len() as u64;
            if projection.contains(&ci) {
                chunks.push((ci, encoding, rows.len(), bytes));
            }
        }
    }
    let file = std::fs::File::open(path).unwrap();
    let mut decoded: Vec<ColumnData> = table.columns().iter().map(|c| c.data().clone()).collect();
    let median_ns = |mut f: Box<dyn FnMut() + '_>| {
        let mut walls: Vec<Duration> = (0..runs)
            .map(|_| {
                let start = Instant::now();
                f();
                start.elapsed()
            })
            .collect();
        walls.sort();
        walls[runs / 2].as_nanos() as f64 / num_blocks as f64
    };
    let io = median_ns(Box::new(|| {
        let mut buf = vec![0u8; 256 * 1024];
        let mut offset = HEADER_LEN;
        while offset < data_bytes {
            let len = (data_bytes - offset).min(buf.len() as u64) as usize;
            file.read_exact_at(&mut buf[..len], offset).unwrap();
            offset += len as u64;
        }
    }));
    let crc = median_ns(Box::new(|| {
        let sum = chunks.iter().fold(0u32, |acc, c| acc ^ crc32(&c.3));
        std::hint::black_box(sum);
    }));
    let path = std::path::PathBuf::new();
    let unpack = median_ns(Box::new(|| {
        for (ci, encoding, rows, bytes) in &chunks {
            let name = table.column_at(*ci).name();
            decode_chunk(*encoding, bytes, *rows, name, &mut decoded[*ci], &path).unwrap();
        }
    }));
    [io, crc, unpack]
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
    let scramble = session.scramble(MEM).unwrap();
    let [io, crc, unpack] = read_split_ns(scramble, &path, &[0, 1, 2], runs);
    println!();
    println!("## segment block read, split by step (ns/block)");
    print_header(&["I/O", "CRC-32", "unpack"]);
    print_row(&[
        format!("{io:.0}"),
        format!("{crc:.0}"),
        format!("{unpack:.0}"),
    ]);
    std::fs::remove_file(&path).ok();
}

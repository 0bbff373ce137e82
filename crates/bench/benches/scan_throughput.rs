//! `scan_throughput`: rows/second of the batch scan/aggregation pipeline
//! for a selective filter + AVG, on the in-memory and the segment backing.
//!
//! The workload is a full scramble pass (unsatisfiable stopping condition)
//! of `AVG(v) WHERE flag = 'on' AND time > t` — a selective conjunctive
//! filter in front of a single-column aggregate, the shape every OptStop
//! round pays on the paper's critical path. Both backings scan exactly the
//! same rows through the same kernels (columnar filter into a selection
//! vector, projection pushdown, group-partitioned `observe_batch` per
//! block), and the harness asserts their estimates and scan counters are
//! bit-for-bit identical before reporting, so the rate ratio isolates the
//! cost of reading blocks: zero-copy views in memory against projected
//! chunk decodes on the segment.
//!
//! Results land in `EXPERIMENTS.md`.
//!
//! Run with `cargo bench -p fastframe-bench --bench scan_throughput`.
//! Environment: `FASTFRAME_ROWS` (default 1 000 000), `FASTFRAME_SEED`,
//! `FASTFRAME_BENCH_RUNS` (default 5; the **median** wall time is
//! reported, which is robust to scheduler noise at millisecond-scale
//! runs), `FASTFRAME_THREADS` (pool size, default 1 so the comparison
//! isolates the inner loop).

use std::time::{Duration, Instant};

use fastframe_bench::{env_or, print_header, print_row};
use fastframe_core::bounder::BounderKind;
use fastframe_engine::config::{EngineConfig, SamplingStrategy};
use fastframe_engine::session::Session;
use fastframe_engine::QueryResult;
use fastframe_store::column::Column;
use fastframe_store::expr::Expr;
use fastframe_store::predicate::Predicate;
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
            format!("{}", result.metrics.scan.rows_selected),
            format!("{:.3}x", memory_wall.as_secs_f64() / wall.as_secs_f64()),
        ]);
        if memory.is_none() {
            memory = Some((result, wall));
        }
    }
    std::fs::remove_file(&path).ok();
}

//! `cold_open`: what does a process restart cost before the first query can
//! run?
//!
//! The paper's economics (§4.1) assume the scramble's shuffle is "paid once
//! and amortized over many queries" — but without persistence every process
//! start re-pays it. This harness measures the two cold-start paths to a
//! queryable Flights table:
//!
//! * **csv+shuffle** — load the dataset from CSV, scramble it in memory
//!   (the only path available before the segment format existed);
//! * **open_table** — open a previously saved scramble segment
//!   (metadata-only read; blocks decode lazily during the query).
//!
//! Both paths then run the same HAVING query; the harness asserts the
//! estimates and scan statistics are bit-for-bit identical, so the speedup
//! buys *nothing* in accuracy.
//!
//! Environment: `FASTFRAME_ROWS` (default 1 000 000), `FASTFRAME_AIRPORTS`,
//! `FASTFRAME_SEED`, `FASTFRAME_BENCH_RUNS` as usual.

use std::io::Write;
use std::time::{Duration, Instant};

use fastframe_bench::{env_or, fmt_ms, print_header, print_row, BENCH_DELTA};
use fastframe_engine::config::EngineConfig;
use fastframe_engine::session::Session;
use fastframe_store::block::DEFAULT_BLOCK_SIZE;
use fastframe_store::column::DataType;
use fastframe_store::column::Value;
use fastframe_store::csv::{read_csv_file, CsvOptions};
use fastframe_store::persist::write_segment;
use fastframe_store::scramble::Scramble;
use fastframe_store::table::Table;
use fastframe_workloads::flights::{columns, FlightsConfig, FlightsDataset};
use fastframe_workloads::queries;

const TABLE: &str = "flights";

/// Writes `table` as CSV (the legacy ingest artifact the motivation
/// describes re-loading on every start).
fn write_csv(table: &Table, path: &std::path::Path) {
    let mut w = std::io::BufWriter::new(std::fs::File::create(path).expect("create csv"));
    let names: Vec<&str> = table.columns().iter().map(|c| c.name()).collect();
    writeln!(w, "{}", names.join(",")).expect("write header");
    for row in 0..table.num_rows() {
        let cells: Vec<String> = table
            .columns()
            .iter()
            .map(|c| match c.value(row) {
                Some(Value::Float(v)) => format!("{v}"),
                Some(Value::Int(v)) => format!("{v}"),
                Some(Value::Str(s)) => s,
                None => String::new(),
            })
            .collect();
        writeln!(w, "{}", cells.join(",")).expect("write row");
    }
    w.flush().expect("flush csv");
}

fn file_mb(path: &std::path::Path) -> f64 {
    std::fs::metadata(path)
        .map(|m| m.len() as f64 / 1e6)
        .unwrap_or(0.0)
}

fn main() {
    let rows = env_or("FASTFRAME_ROWS", 1_000_000usize);
    let config = FlightsConfig::default()
        .rows(rows)
        .airports(env_or("FASTFRAME_AIRPORTS", 100usize))
        .seed(env_or("FASTFRAME_SEED", 2_021u64));
    let runs = env_or("FASTFRAME_BENCH_RUNS", 1usize).max(1);

    eprintln!("[cold_open] preparing artifacts: {rows} rows");
    let dataset = FlightsDataset::generate(config.clone()).expect("dataset generates");
    let dir = std::env::temp_dir();
    let csv_path = dir.join(format!("fastframe_cold_open_{}.csv", std::process::id()));
    let seg_path = dir.join(format!("fastframe_cold_open_{}.ffseg", std::process::id()));
    write_csv(&dataset.table, &csv_path);
    let save_start = Instant::now();
    write_segment(&dataset.scramble().expect("scramble builds"), &seg_path)
        .expect("segment writes");
    let save_time = save_start.elapsed();

    // Pin the numeric types: inference looks only at the first data row, and
    // a delay that happens to print integral would flip the column to Int64.
    let csv_options = CsvOptions::new()
        .override_type(columns::DEP_DELAY, DataType::Float64)
        .override_type(columns::DEP_TIME, DataType::Int64);
    // F-q2: airlines with avg delay above 10 — a grouped HAVING query that
    // exercises the bitmap indexes on both paths.
    let query = queries::f_q2(10.0);
    let engine = EngineConfig::builder()
        .delta(BENCH_DELTA)
        .seed(0xF1A9)
        .build();

    let mut csv_setup = Duration::ZERO;
    let mut csv_query = Duration::ZERO;
    let mut open_setup = Duration::ZERO;
    let mut open_query = Duration::ZERO;
    let mut csv_result = None;
    let mut open_result = None;

    for _ in 0..runs {
        // Path A: CSV load + shuffle + query.
        let t0 = Instant::now();
        let table = read_csv_file(&csv_path, &csv_options).expect("csv loads");
        let scramble =
            Scramble::build_with(&table, config.seed, DEFAULT_BLOCK_SIZE).expect("scrambles");
        let mut session = Session::with_defaults(engine.clone());
        session
            .register_scramble(TABLE, scramble)
            .expect("registers");
        csv_setup += t0.elapsed();
        let t1 = Instant::now();
        let r = session
            .prepare(TABLE, &query.query)
            .expect("prepares")
            .execute()
            .expect("executes");
        csv_query += t1.elapsed();
        csv_result = Some(r);

        // Path B: open the saved segment + query.
        let t0 = Instant::now();
        let mut session = Session::with_defaults(engine.clone());
        session.open_table(TABLE, &seg_path).expect("opens");
        open_setup += t0.elapsed();
        let t1 = Instant::now();
        let r = session
            .prepare(TABLE, &query.query)
            .expect("prepares")
            .execute()
            .expect("executes");
        open_query += t1.elapsed();
        open_result = Some(r);
    }

    let (csv_result, open_result) = (csv_result.unwrap(), open_result.unwrap());
    // The lazy path must be a pure storage change: identical estimates, CI
    // bounds and scan counters.
    for (a, b) in csv_result.groups.iter().zip(&open_result.groups) {
        assert_eq!(a.key, b.key, "group universes must agree");
        assert_eq!(
            a.estimate.map(f64::to_bits),
            b.estimate.map(f64::to_bits),
            "estimates must be bit-identical"
        );
        assert_eq!(a.ci.lo.to_bits(), b.ci.lo.to_bits());
        assert_eq!(a.ci.hi.to_bits(), b.ci.hi.to_bits());
    }
    assert_eq!(
        csv_result.metrics.scan, open_result.metrics.scan,
        "scan statistics must be identical"
    );

    let n = runs as u32;
    println!("# cold_open — process start to first answer ({rows} rows, avg of {runs})");
    println!(
        "# artifacts: csv {:.1} MB, segment {:.1} MB (one-time save {} ms)",
        file_mb(&csv_path),
        file_mb(&seg_path),
        fmt_ms(save_time)
    );
    print_header(&[
        "path",
        "setup (ms)",
        "query (ms)",
        "total (ms)",
        "blocks fetched",
    ]);
    let total_csv = csv_setup / n + csv_query / n;
    let total_open = open_setup / n + open_query / n;
    print_row(&[
        "csv+shuffle".into(),
        fmt_ms(csv_setup / n),
        fmt_ms(csv_query / n),
        fmt_ms(total_csv),
        csv_result.metrics.blocks_fetched().to_string(),
    ]);
    print_row(&[
        "open_table".into(),
        fmt_ms(open_setup / n),
        fmt_ms(open_query / n),
        fmt_ms(total_open),
        open_result.metrics.blocks_fetched().to_string(),
    ]);
    println!(
        "# cold-start speedup (setup only): {:.1}x; end-to-end: {:.1}x",
        csv_setup.as_secs_f64() / open_setup.as_secs_f64().max(1e-9),
        total_csv.as_secs_f64() / total_open.as_secs_f64().max(1e-9)
    );

    std::fs::remove_file(&csv_path).ok();
    std::fs::remove_file(&seg_path).ok();
}

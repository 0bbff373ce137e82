//! `group_universe`: what does the first grouped query over a column tuple
//! pay to enumerate its group universe?
//!
//! Every grouped approximate query starts from the distinct GROUP BY code
//! tuples in first-appearance order (`BlockSource::distinct_group_tuples`).
//! Both backings memoize them per column tuple, so only the *first* grouped
//! query after a table is registered or opened builds them. This harness
//! times that cold build, and the memoized call after it, for the Flights
//! GROUP BY shapes of Table 5:
//!
//! * `Airline` (F-q2, F-q3, F-q9) and `Origin` (F-q5, F-q8) — single
//!   indexed columns;
//! * `DayOfWeek × Origin` (F-q6) — a multi-column pass.
//!
//! on a freshly registered in-memory scramble (`register_with`) and on a
//! freshly opened segment of the same scramble (`open_table`, whose file is
//! in the OS page cache). It asserts both backings enumerate identical
//! universes, and reports how many blocks a cold build reads (out of the
//! table's total), which does not depend on the hardware.
//!
//! Environment: `FASTFRAME_ROWS` (default 1 000 000), `FASTFRAME_AIRPORTS`,
//! `FASTFRAME_SEED`, `FASTFRAME_BENCH_RUNS` (default 3; cold times are the
//! median over runs, each on a new table).

use std::hint::black_box;
use std::time::{Duration, Instant};

use fastframe_bench::{env_or, print_header, print_row, BENCH_TABLE};
use fastframe_engine::session::{Session, TableOptions};
use fastframe_store::bitmap::BlockBitmapIndex;
use fastframe_store::block::{BlockId, BlockLayout};
use fastframe_store::catalog::Catalog;
use fastframe_store::source::{build_group_universe, BlockRef, BlockSource, GroupUniverse};
use fastframe_store::table::{StoreResult, Table};
use fastframe_store::zone::ZoneMap;
use fastframe_workloads::flights::{columns, FlightsConfig, FlightsDataset};

const GROUPINGS: [&[&str]; 3] = [
    &[columns::AIRLINE],
    &[columns::ORIGIN],
    &[columns::DAY_OF_WEEK, columns::ORIGIN],
];

/// Times the cold and then the memoized enumeration of every grouping on
/// `source`, returning `(cold, warm, universe)` per grouping.
fn enumerate_all(source: &dyn BlockSource) -> Vec<(Duration, Duration, GroupUniverse)> {
    GROUPINGS
        .iter()
        .map(|names| {
            let cols: Vec<usize> = names
                .iter()
                .map(|n| source.schema().column_index(n).expect("column exists"))
                .collect();
            let t = Instant::now();
            let universe = black_box(source.distinct_group_tuples(&cols).expect("enumerates"));
            let cold = t.elapsed();
            let t = Instant::now();
            black_box(source.distinct_group_tuples(&cols).expect("enumerates"));
            let warm = t.elapsed();
            (cold, warm, universe)
        })
        .collect()
}

/// Delegates to an inner source, counting block reads.
struct CountingSource<'a> {
    inner: &'a dyn BlockSource,
    reads: std::sync::atomic::AtomicUsize,
}

impl BlockSource for CountingSource<'_> {
    fn schema(&self) -> &Table {
        self.inner.schema()
    }
    fn num_rows(&self) -> usize {
        self.inner.num_rows()
    }
    fn layout(&self) -> &BlockLayout {
        self.inner.layout()
    }
    fn catalog(&self) -> &Catalog {
        self.inner.catalog()
    }
    fn seed(&self) -> u64 {
        self.inner.seed()
    }
    fn bitmap_index(&self, column: &str) -> Option<&BlockBitmapIndex> {
        self.inner.bitmap_index(column)
    }
    fn zone_map(&self, column: &str) -> Option<&ZoneMap> {
        self.inner.zone_map(column)
    }
    fn read_block(&self, block: BlockId) -> StoreResult<BlockRef<'_>> {
        self.read_block_projected(block, None)
    }
    fn read_block_projected(
        &self,
        block: BlockId,
        projection: Option<&[usize]>,
    ) -> StoreResult<BlockRef<'_>> {
        self.reads
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        self.inner.read_block_projected(block, projection)
    }
}

/// Blocks a cold build of `names`' universe reads on `source`.
fn cold_reads(source: &dyn BlockSource, names: &[&str]) -> usize {
    let counting = CountingSource {
        inner: source,
        reads: Default::default(),
    };
    let cols: Vec<usize> = names
        .iter()
        .map(|n| source.schema().column_index(n).expect("column exists"))
        .collect();
    build_group_universe(&counting, &cols).expect("enumerates");
    counting.reads.into_inner()
}

fn median(mut samples: Vec<Duration>) -> Duration {
    samples.sort();
    samples[samples.len() / 2]
}

fn ms(d: Duration) -> String {
    format!("{:.3}", d.as_secs_f64() * 1e3)
}

fn main() {
    let rows = env_or("FASTFRAME_ROWS", 1_000_000usize);
    let seed = env_or("FASTFRAME_SEED", 2_021u64);
    let config = FlightsConfig::default()
        .rows(rows)
        .airports(env_or("FASTFRAME_AIRPORTS", 100usize))
        .seed(seed);
    let runs = env_or("FASTFRAME_BENCH_RUNS", 3usize).max(1);

    eprintln!("[group_universe] generating {rows} rows");
    let dataset = FlightsDataset::generate(config).expect("dataset generates");
    let options = TableOptions::default().seed(seed);
    let seg_path = std::env::temp_dir().join(format!(
        "fastframe_group_universe_{}.ffseg",
        std::process::id()
    ));

    let mut mem_runs = Vec::new();
    let mut seg_runs = Vec::new();
    // Per backing: blocks read by each grouping's cold build, and the
    // table's block count.
    let mut reads: Vec<(Vec<usize>, usize)> = Vec::new();
    for run in 0..runs {
        let mut session = Session::new();
        session
            .register_with(BENCH_TABLE, &dataset.table, options.clone())
            .expect("registers");
        if run == 0 {
            session.save_table(BENCH_TABLE, &seg_path).expect("saves");
        }
        let source = session.source(BENCH_TABLE).expect("table");
        mem_runs.push(enumerate_all(source));

        let mut session = Session::new();
        session.open_table(BENCH_TABLE, &seg_path).expect("opens");
        seg_runs.push(enumerate_all(session.source(BENCH_TABLE).expect("table")));
        if run == 0 {
            for source in [source, session.source(BENCH_TABLE).expect("table")] {
                let counts = GROUPINGS.iter().map(|g| cold_reads(source, g)).collect();
                reads.push((counts, source.num_blocks()));
            }
        }
    }
    std::fs::remove_file(&seg_path).ok();

    println!(
        "# group_universe — first (cold) and memoized enumeration ({rows} rows, median of {runs})"
    );
    print_header(&[
        "backing",
        "group by",
        "tuples",
        "cold blocks read",
        "cold (ms)",
        "memoized (ms)",
    ]);
    for ((backing, results), (counts, blocks)) in
        [("register_with", &mem_runs), ("open_table", &seg_runs)]
            .into_iter()
            .zip(&reads)
    {
        for (g, names) in GROUPINGS.iter().enumerate() {
            let universe = &results[0][g].2;
            assert!(
                results.iter().all(|r| &r[g].2 == universe),
                "universes must not depend on the run"
            );
            assert_eq!(
                universe, &mem_runs[0][g].2,
                "backings must enumerate identical universes"
            );
            print_row(&[
                backing.into(),
                names.join(" x "),
                universe.len().to_string(),
                format!("{} / {blocks}", counts[g]),
                ms(median(results.iter().map(|r| r[g].0).collect())),
                ms(median(results.iter().map(|r| r[g].1).collect())),
            ]);
        }
    }
}

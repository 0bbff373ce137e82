//! Group-universe tests:
//!
//! * **equivalence** — the bitmap-derived single-column universe and the
//!   early-exiting multi-column pass equal a naive row-order
//!   first-appearance scan, tuple for tuple and in order, on the in-memory
//!   scramble and on the segment it was saved to: hand-placed edge cases
//!   (a code only in the ragged last block, two codes first appearing in
//!   one block, a non-categorical column) and random tables;
//! * **memo** — a second enumeration of the same column tuple reads no
//!   block, directly and through the engine, on both backings; dropping a
//!   table and registering different data under its name yields the new
//!   universe;
//! * **validation** — `PreparedQuery::new` over a custom source refuses
//!   what `Session::prepare` refuses, without reading a block.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use proptest::prelude::*;

use fastframe_engine::session::{Session, TableOptions};
use fastframe_engine::{AggQuery, EngineConfig, EngineError, PreparedQuery};
use fastframe_store::bitmap::BlockBitmapIndex;
use fastframe_store::block::{BlockId, BlockLayout};
use fastframe_store::catalog::Catalog;
use fastframe_store::column::Column;
use fastframe_store::persist::{write_segment, SegmentReader};
use fastframe_store::scramble::Scramble;
use fastframe_store::source::{BlockRef, BlockSource, GroupUniverseCache};
use fastframe_store::table::{StoreResult, Table};
use fastframe_store::zone::ZoneMap;
use fastframe_store::Expr;
use fastframe_tests::scramble_in_storage_order;

fn temp_path(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!(
        "fastframe_group_universe_it_{tag}_{}.ffseg",
        std::process::id()
    ))
}

/// The reference: distinct code tuples of `columns` in row order over the
/// whole permuted table, with `u32::MAX` for non-categorical columns.
fn naive_universe(table: &Table, columns: &[usize]) -> Vec<Vec<u32>> {
    let mut out: Vec<Vec<u32>> = Vec::new();
    for row in 0..table.num_rows() {
        let tuple: Vec<u32> = columns
            .iter()
            .map(|&ci| table.column_at(ci).category_code(row).unwrap_or(u32::MAX))
            .collect();
        if !out.contains(&tuple) {
            out.push(tuple);
        }
    }
    out
}

/// Asserts that both backings of `scramble` enumerate the naive universe of
/// every grouping, cold and memoized.
fn assert_universes(scramble: &Scramble, groupings: &[&[usize]], tag: &str) {
    let path = temp_path(tag);
    write_segment(scramble, &path).unwrap();
    let reader = SegmentReader::open(&path).unwrap();
    for &columns in groupings {
        let expected = naive_universe(scramble.table(), columns);
        for (backing, source) in [
            ("memory", scramble as &dyn BlockSource),
            ("segment", &reader as &dyn BlockSource),
        ] {
            for pass in ["cold", "memoized"] {
                let universe = source.distinct_group_tuples(columns).unwrap();
                assert_eq!(
                    &universe[..],
                    &expected[..],
                    "{backing} {pass} universe of {columns:?}"
                );
            }
        }
    }
    std::fs::remove_file(&path).ok();
}

fn cat(name: &str, dictionary: &[&str], codes: Vec<u32>) -> Column {
    Column::categorical_from_codes(
        name,
        Arc::new(dictionary.iter().map(|s| s.to_string()).collect()),
        codes,
    )
}

#[test]
fn code_only_in_the_ragged_last_block() {
    // 4 blocks of 5 rows plus a ragged block of 2; code 3 appears only in
    // the very last row, code 2 only in the first row of the ragged block.
    let n = 22;
    let mut g = vec![0u32; n];
    for (row, code) in g.iter_mut().enumerate() {
        *code = (row % 2) as u32;
    }
    g[20] = 2;
    g[21] = 3;
    let h: Vec<u32> = (0..n).map(|row| (row % 3 == 0) as u32).collect();
    let scramble = scramble_in_storage_order(
        vec![cat("g", &["a", "b", "c", "d"], g), cat("h", &["x", "y"], h)],
        5,
    );
    let universe = scramble.distinct_group_tuples(&[0]).unwrap();
    assert_eq!(&universe[..], &[vec![0], vec![1], vec![2], vec![3]]);
    assert_universes(&scramble, &[&[0], &[0, 1], &[1, 0]], "ragged");
}

#[test]
fn codes_first_appearing_in_one_block_keep_row_order() {
    // Block 1 (rows 4..8) is the first block of codes 4, 1 and 3, in that
    // row order, with code 2 already seen in block 0: the universe must
    // follow rows, not codes.
    let g = vec![2, 0, 2, 0, 4, 2, 1, 3, 0, 1, 2, 3, 4];
    let flag = vec![0, 1, 0, 0, 1, 1, 0, 0, 1, 0, 1, 1, 0];
    let scramble = scramble_in_storage_order(
        vec![
            cat("g", &["a", "b", "c", "d", "e"], g),
            cat("flag", &["off", "on"], flag),
        ],
        4,
    );
    let universe = scramble.distinct_group_tuples(&[0]).unwrap();
    assert_eq!(
        &universe[..],
        &[vec![2], vec![0], vec![4], vec![1], vec![3]]
    );
    assert_universes(&scramble, &[&[0], &[0, 1], &[1, 0]], "same_block");
}

#[test]
fn non_categorical_columns_contribute_u32_max() {
    let n = 60;
    let scramble = scramble_in_storage_order(
        vec![
            cat(
                "g",
                &["a", "b", "c"],
                (0..n).map(|r| (r % 3) as u32).collect(),
            ),
            Column::float("x", (0..n).map(|r| r as f64).collect()),
        ],
        7,
    );
    let universe = scramble.distinct_group_tuples(&[1]).unwrap();
    assert_eq!(&universe[..], &[vec![u32::MAX]]);
    assert_universes(&scramble, &[&[1], &[0, 1], &[1, 0]], "numeric");
}

#[test]
fn empty_table_has_an_empty_universe() {
    let table = Table::new(vec![
        Column::categorical::<&str>("g", &[]),
        Column::float("x", Vec::new()),
    ])
    .unwrap();
    let scramble = Scramble::build_with(&table, 1, 25).unwrap();
    for columns in [&[0usize][..], &[1], &[0, 1]] {
        assert!(scramble.distinct_group_tuples(columns).unwrap().is_empty());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Random tables of three categorical columns with skewed codes (so
    /// rare tuples first appear late) and one float column: every single-
    /// and multi-column universe equals the naive scan on both backings.
    #[test]
    fn universes_match_a_naive_scan(
        draws in proptest::collection::vec(0u32..1_000_000, 1..700),
        cardinalities in (1u32..12, 1u32..6, 1u32..40),
        block_size in 1usize..40,
        seed in 0u64..1_000,
    ) {
        let (ca, cb, cc) = cardinalities;
        // Cubing a uniform draw skews towards small codes, so the largest
        // codes are rare and first appear late.
        let skewed = |d: u32, card: u32| ((d as f64 / 1e6).powi(3) * card as f64) as u32;
        let dict = |card: u32| -> Vec<String> { (0..card).map(|c| format!("v{c}")).collect() };
        let a: Vec<String> = draws.iter().map(|&d| dict(ca)[skewed(d, ca) as usize].clone()).collect();
        let b: Vec<String> = draws.iter().map(|&d| dict(cb)[(d % cb) as usize].clone()).collect();
        let c: Vec<String> = draws.iter().map(|&d| dict(cc)[skewed(d.wrapping_mul(7_919) % 1_000_000, cc) as usize].clone()).collect();
        let x: Vec<f64> = draws.iter().map(|&d| d as f64).collect();
        let table = Table::new(vec![
            Column::categorical("a", &a),
            Column::float("x", x),
            Column::categorical("b", &b),
            Column::categorical("c", &c),
        ])
        .unwrap();
        let scramble = Scramble::build_with(&table, seed, block_size).unwrap();
        assert_universes(
            &scramble,
            &[&[0], &[2], &[3], &[1], &[0, 2], &[3, 0], &[0, 2, 3], &[2, 1, 3]],
            "proptest",
        );
    }
}

#[test]
fn multi_column_pass_stops_once_every_combination_is_seen() {
    // Every (g, h) pair occurs in the first two blocks; the rest repeat
    // them, so the pass must not read past block 1.
    let n = 400;
    let g: Vec<u32> = (0..n).map(|r| (r % 4) as u32).collect();
    let h: Vec<u32> = (0..n).map(|r| ((r / 4) % 3) as u32).collect();
    let scramble = scramble_in_storage_order(
        vec![
            cat("g", &["a", "b", "c", "d"], g),
            cat("h", &["x", "y", "z"], h),
        ],
        10,
    );
    let counted = CountingSource::new(&scramble);
    let universe = counted.distinct_group_tuples(&[0, 1]).unwrap();
    assert_eq!(universe.len(), 12);
    assert_eq!(counted.take_reads(), 2);
    assert_universes(&scramble, &[&[0, 1]], "early_exit");
}

/// Delegates to an inner source, counting block reads.
struct CountingSource<'a> {
    inner: &'a dyn BlockSource,
    reads: AtomicUsize,
    /// Whether to expose the inner source's group-universe cache.
    cached: bool,
}

impl<'a> CountingSource<'a> {
    fn new(inner: &'a dyn BlockSource) -> Self {
        Self {
            inner,
            reads: AtomicUsize::new(0),
            cached: true,
        }
    }

    fn without_cache(self) -> Self {
        Self {
            cached: false,
            ..self
        }
    }

    fn take_reads(&self) -> usize {
        self.reads.swap(0, Ordering::SeqCst)
    }
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
        self.reads.fetch_add(1, Ordering::SeqCst);
        self.inner.read_block(block)
    }

    fn read_block_projected(
        &self,
        block: BlockId,
        projection: Option<&[usize]>,
    ) -> StoreResult<BlockRef<'_>> {
        self.reads.fetch_add(1, Ordering::SeqCst);
        self.inner.read_block_projected(block, projection)
    }

    fn group_universe_cache(&self) -> Option<&GroupUniverseCache> {
        self.inner.group_universe_cache().filter(|_| self.cached)
    }
}

fn flights_like(rows: usize) -> Table {
    let origins: Vec<String> = (0..rows)
        .map(|i| format!("ap{}", (i * i / 7 + i) % 23))
        .collect();
    let days: Vec<String> = (0..rows).map(|i| format!("d{}", i % 7)).collect();
    let delays: Vec<f64> = (0..rows).map(|i| ((i * 37) % 100) as f64).collect();
    Table::new(vec![
        Column::categorical("origin", &origins),
        Column::categorical("day", &days),
        Column::float("delay", delays),
    ])
    .unwrap()
}

/// Runs the memo checks against one backing.
fn assert_memoized(source: &dyn BlockSource) {
    // Directly: the cold build reads blocks, the repeat reads none.
    let counted = CountingSource::new(source);
    for columns in [&[0usize][..], &[1, 0]] {
        let cold = counted.distinct_group_tuples(columns).unwrap();
        assert!(counted.take_reads() > 0, "cold build of {columns:?} reads");
        let warm = counted.distinct_group_tuples(columns).unwrap();
        assert_eq!(
            counted.take_reads(),
            0,
            "memoized {columns:?} reads nothing"
        );
        assert!(Arc::ptr_eq(&cold, &warm), "a hit shares the universe");
    }

    // Through the engine, on a column tuple not enumerated yet: the first
    // query reads the enumeration's blocks on top of its scan, the second
    // reads exactly the blocks it fetches.
    let query = AggQuery::avg("avg_delay", Expr::col("delay"))
        .group_by("origin")
        .group_by("day")
        .build();
    let config = EngineConfig::builder().delta(0.05).seed(9).build();
    let prepared = PreparedQuery::new(&counted, query, config).unwrap();
    assert_eq!(counted.take_reads(), 0, "preparing reads no block");
    let first = prepared.execute().unwrap();
    let first_reads = counted.take_reads() as u64;
    let second = prepared.execute().unwrap();
    let second_reads = counted.take_reads() as u64;
    assert_eq!(first.metrics.scan, second.metrics.scan);
    assert!(first_reads > first.metrics.blocks_fetched());
    assert_eq!(second_reads, second.metrics.blocks_fetched());
}

#[test]
fn repeated_enumeration_reads_no_blocks_on_either_backing() {
    let scramble = Scramble::build_with(&flights_like(4_000), 3, 25).unwrap();
    let path = temp_path("memo");
    write_segment(&scramble, &path).unwrap();
    let reader = SegmentReader::open(&path).unwrap();
    assert_memoized(&scramble);
    assert_memoized(&reader);
    std::fs::remove_file(&path).ok();
}

#[test]
fn sources_without_a_cache_recompute() {
    let scramble = Scramble::build_with(&flights_like(500), 3, 25).unwrap();
    let uncached = CountingSource::new(&scramble).without_cache();
    let a = uncached.distinct_group_tuples(&[1, 0]).unwrap();
    assert!(uncached.take_reads() > 0);
    let b = uncached.distinct_group_tuples(&[1, 0]).unwrap();
    assert!(uncached.take_reads() > 0, "no cache, so no memo");
    assert_eq!(a, b);
}

/// `PreparedQuery::new` over a custom source refuses what `Session::prepare`
/// refuses over the same data, with the same error, and reads no block.
#[test]
fn prepared_query_new_rejects_what_session_prepare_rejects() {
    let table = flights_like(500);
    let scramble = Scramble::build(&table, 3).unwrap();
    let counted = CountingSource::new(&scramble);
    let mut session = Session::new();
    session.register("t", &table).unwrap();
    let avg = |target: &str| AggQuery::avg("q", Expr::col(target));
    let mut refused = |query: AggQuery, config: EngineConfig| {
        session.set_defaults(config.clone());
        let via_session = session.prepare("t", &query).unwrap_err();
        let via_new = PreparedQuery::new(&counted, query, config).unwrap_err();
        assert_eq!(via_new.to_string(), via_session.to_string());
        via_new
    };
    let unknown_column = refused(avg("nope").build(), EngineConfig::default());
    assert!(matches!(unknown_column, EngineError::Store(_)));
    let numeric_group_by = refused(
        avg("delay").group_by("delay").build(),
        EngineConfig::default(),
    );
    assert!(matches!(
        numeric_group_by,
        EngineError::InvalidGroupBy { .. }
    ));
    let bad_delta = refused(
        avg("delay").build(),
        EngineConfig::builder().delta(1.5).build(),
    );
    assert!(matches!(bad_delta, EngineError::Core(_)));
    assert_eq!(counted.take_reads(), 0, "validation reads no block");
}

/// Group labels of a grouped AVG over `g`, in view order.
fn group_labels(session: &Session) -> Vec<String> {
    session
        .query("t")
        .avg(Expr::col("x"))
        .group_by("g")
        .execute()
        .unwrap()
        .groups
        .iter()
        .map(|g| g.key.labels.join(","))
        .collect()
}

fn labelled(labels: &[&str], rows: usize) -> Table {
    let g: Vec<&str> = (0..rows).map(|i| labels[i % labels.len()]).collect();
    Table::new(vec![
        Column::categorical("g", &g),
        Column::float("x", (0..rows).map(|i| i as f64).collect()),
    ])
    .unwrap()
}

#[test]
fn re_registered_table_gets_a_fresh_universe() {
    let old = labelled(&["a", "b", "c"], 300);
    let new = labelled(&["p", "q"], 300);
    let sorted = |mut v: Vec<String>| {
        v.sort();
        v
    };

    // In memory.
    let mut session = Session::new();
    session.register("t", &old).unwrap();
    assert_eq!(sorted(group_labels(&session)), ["a", "b", "c"]);
    session.drop_table("t").unwrap();
    session
        .register_with("t", &new, TableOptions::default())
        .unwrap();
    assert_eq!(sorted(group_labels(&session)), ["p", "q"]);

    // From segments, reopened under the same name.
    let (old_path, new_path) = (temp_path("old"), temp_path("new"));
    write_segment(&Scramble::build(&old, 1).unwrap(), &old_path).unwrap();
    write_segment(&Scramble::build(&new, 1).unwrap(), &new_path).unwrap();
    let mut session = Session::new();
    session.open_table("t", &old_path).unwrap();
    assert_eq!(sorted(group_labels(&session)), ["a", "b", "c"]);
    session.drop_table("t").unwrap();
    session.open_table("t", &new_path).unwrap();
    assert_eq!(sorted(group_labels(&session)), ["p", "q"]);
    std::fs::remove_file(&old_path).ok();
    std::fs::remove_file(&new_path).ok();
}

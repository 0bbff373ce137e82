//! The scramble is built with no permutation array: each column is copied
//! and shuffled in place with its own generator from the scramble's seed
//! (`Scramble::build_with`). These tests hold it to its first definition, the
//! table permuted by the row ids `0..n` shuffled with that seed, bit for
//! bit: float bits (NaN payloads, −0.0, ±∞ and subnormals included), ints
//! and categorical codes, and the bitmap indexes and zone maps built over
//! the result. A golden check pins the draw order itself.

use std::sync::Arc;

use fastframe_store::bitmap::BlockBitmapIndex;
use fastframe_store::block::BlockLayout;
use fastframe_store::column::{Column, ColumnData};
use fastframe_store::scramble::Scramble;
use fastframe_store::table::Table;
use fastframe_store::zone::ZoneMap;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// The block sizes every case is built at: one row, a size that leaves
/// most tables a ragged last block, and a larger one.
const BLOCK_SIZES: [usize; 3] = [1, 7, 25];

/// Float bit patterns a random draw almost never hits: quiet and
/// signalling NaNs with payloads of either sign, ±0.0, ±∞, the smallest
/// subnormal and the extremes.
const SPECIAL_FLOATS: [u64; 10] = [
    0x7FF8_0000_0000_0000,
    0x7FF8_0000_DEAD_BEEF,
    0xFFF8_0000_0000_0001,
    0x7FF0_0000_0000_0001,
    0x8000_0000_0000_0000,
    0x0000_0000_0000_0000,
    0x7FF0_0000_0000_0000,
    0xFFF0_0000_0000_0000,
    0x0000_0000_0000_0001,
    0x7FEF_FFFF_FFFF_FFFF,
];

/// The scramble's storage order by its first definition: the row ids
/// `0..n` shuffled by `StdRng::seed_from_u64(seed)`.
fn ids_shuffled(n: usize, seed: u64) -> Vec<usize> {
    let mut ids: Vec<usize> = (0..n).collect();
    ids.shuffle(&mut StdRng::seed_from_u64(seed));
    ids
}

/// A table of one float, one int and one categorical column from drawn
/// rows `(float choice, float bits, int, code)`: a float choice below
/// `SPECIAL_FLOATS.len()` picks a special pattern, any other keeps the
/// drawn bits.
fn table_of(rows: &[(usize, u64, i64, u32)]) -> Table {
    let floats = rows
        .iter()
        .map(|&(choice, bits, _, _)| {
            f64::from_bits(SPECIAL_FLOATS.get(choice).copied().unwrap_or(bits))
        })
        .collect();
    let dictionary = Arc::new(["a", "b", "c", "d", "e", "f"].map(String::from).to_vec());
    Table::new(vec![
        Column::float("x", floats),
        Column::int("n", rows.iter().map(|r| r.2).collect()),
        Column::categorical_from_codes("g", dictionary, rows.iter().map(|r| r.3).collect()),
    ])
    .unwrap()
}

/// Asserts that two columns hold the same name, type and values bit for
/// bit (float bits, not float equality, so NaN payloads and −0.0 count).
fn assert_same_column(built: &Column, old: &Column, context: &str) {
    assert_eq!(built.name(), old.name(), "{context}");
    match (built.data(), old.data()) {
        (ColumnData::Float64(a), ColumnData::Float64(b)) => {
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(a), bits(b), "{context}: {}", built.name());
        }
        (ColumnData::Int64(a), ColumnData::Int64(b)) => {
            assert_eq!(a, b, "{context}: {}", built.name())
        }
        (
            ColumnData::Categorical {
                dictionary: da,
                codes: ca,
            },
            ColumnData::Categorical {
                dictionary: db,
                codes: cb,
            },
        ) => {
            assert_eq!(da, db, "{context}: {}", built.name());
            assert_eq!(ca, cb, "{context}: {}", built.name());
        }
        _ => panic!("{context}: {} changed type", built.name()),
    }
}

/// Asserts that `Scramble::build_with(table, seed, block_size)` is `table`
/// permuted by `ids_shuffled(n, seed)`, bit for bit, and that its bitmap
/// indexes and zone maps are the ones built over that permuted table.
fn assert_built_as_permuted(table: &Table, seed: u64, block_size: usize) {
    let context = format!(
        "{} rows, seed {seed}, block size {block_size}",
        table.num_rows()
    );
    let built = Scramble::build_with(table, seed, block_size).unwrap();
    let old = table.permuted(&ids_shuffled(table.num_rows(), seed));
    assert_eq!(built.num_rows(), old.num_rows(), "{context}");
    assert_eq!(built.table().num_columns(), old.num_columns(), "{context}");
    let layout = BlockLayout::new(old.num_rows(), block_size);
    assert_eq!(built.num_blocks(), layout.num_blocks(), "{context}");
    for (b, o) in built.table().columns().iter().zip(old.columns()) {
        assert_same_column(b, o, &context);
        if o.dictionary().is_some() {
            assert_eq!(
                built.bitmap_index(o.name()),
                Some(&BlockBitmapIndex::build(o, &layout).unwrap()),
                "{context}: {}",
                o.name()
            );
        } else {
            let zone = ZoneMap::build(o, &layout).unwrap();
            let got = built.zone_map(o.name()).unwrap();
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(
                bits(got.mins()),
                bits(zone.mins()),
                "{context}: {}",
                o.name()
            );
            assert_eq!(
                bits(got.maxs()),
                bits(zone.maxs()),
                "{context}: {}",
                o.name()
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// Random tables of 1 to 119 rows, a fifth of their floats special,
    /// at every block size and a random seed.
    #[test]
    fn the_in_place_build_equals_the_permuted_definition(
        rows in proptest::collection::vec(
            (0usize..SPECIAL_FLOATS.len() * 5, any::<u64>(), any::<i64>(), 0u32..6),
            1..120,
        ),
        seed in any::<u64>(),
    ) {
        let table = table_of(&rows);
        for block_size in BLOCK_SIZES {
            assert_built_as_permuted(&table, seed, block_size);
        }
    }
}

/// The edge shapes drawn rarely at random: one row, a last block of one
/// row, a table of exactly one full block, every special float at once.
#[test]
fn one_row_and_ragged_last_blocks_build_as_permuted() {
    for n in [1, 2, 8, 25, 26, 50, 51, 176] {
        let rows: Vec<_> = (0..n)
            .map(|i| (i % SPECIAL_FLOATS.len(), 0, i as i64 - 3, (i % 6) as u32))
            .collect();
        let table = table_of(&rows);
        for block_size in BLOCK_SIZES {
            for seed in [0, 5, 42, u64::MAX] {
                assert_built_as_permuted(&table, seed, block_size);
            }
        }
    }
}

/// The first and last eight storage-order ids of a 10 000-row id table at
/// seed 5, recorded from the permutation-array build: any change to the
/// draw order (the generator, its seeding or the shuffle) fails here.
#[test]
fn the_draw_order_is_pinned() {
    let ids = Table::new(vec![Column::int("id", (0..10_000).collect())]).unwrap();
    let scramble = Scramble::build_with(&ids, 5, 25).unwrap();
    let order = scramble.table().column_at(0).int_values().unwrap();
    assert_eq!(order[..8], [5096, 2179, 7421, 7148, 6833, 7290, 6437, 4274]);
    assert_eq!(
        order[order.len() - 8..],
        [679, 4594, 7028, 5268, 585, 979, 6113, 2920]
    );
}

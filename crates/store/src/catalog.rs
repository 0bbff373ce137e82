//! The catalog: per-column statistics gathered at load time.
//!
//! §2.2.1: "we assume that the database catalog maintains range bounds `a`
//! and `b` for the MIN and MAX of each continuous column, inferred, for
//! example, during data loading." The catalog here records exactly that for
//! numeric columns, the exact `[MIN, MAX]`, and the dictionary cardinality
//! for categorical columns.

use std::collections::HashMap;

use crate::column::DataType;
use crate::table::{StoreError, StoreResult, Table};

/// Statistics recorded for one column.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnStats {
    /// Column name.
    pub name: String,
    /// Column type.
    pub data_type: DataType,
    /// Number of rows.
    pub rows: usize,
    /// Range lower bound `a` (numeric columns only).
    pub min: Option<f64>,
    /// Range upper bound `b` (numeric columns only).
    pub max: Option<f64>,
    /// Number of distinct values (categorical columns only).
    pub cardinality: Option<usize>,
}

/// The table catalog: column statistics keyed by column name.
#[derive(Debug, Clone, Default)]
pub struct Catalog {
    columns: HashMap<String, ColumnStats>,
    /// The first non-finite float value met by [`Catalog::build`], as
    /// `(column, row)`: the first such column in table order, and its first
    /// such row.
    non_finite: Option<(String, usize)>,
}

impl Catalog {
    /// Builds a catalog by scanning every column of `table` once, recording
    /// each numeric column's exact `[MIN, MAX]`.
    ///
    /// The same pass notes the first non-finite float value (NaN or ±∞),
    /// reported by [`Catalog::first_non_finite`]. A NaN is left out of the
    /// recorded range; an infinity makes it infinite.
    pub fn build(table: &Table) -> Self {
        let mut columns = HashMap::new();
        let mut non_finite = None;
        for c in table.columns() {
            let range = match c.float_values() {
                Some(values) => {
                    let (range, bad_row) = float_range(values);
                    if let (None, Some(row)) = (&non_finite, bad_row) {
                        non_finite = Some((c.name().to_string(), row));
                    }
                    range
                }
                None => c.numeric_min_max(),
            };
            let (min, max) = range.unzip();
            columns.insert(
                c.name().to_string(),
                ColumnStats {
                    name: c.name().to_string(),
                    data_type: c.data_type(),
                    rows: c.len(),
                    min,
                    max,
                    cardinality: c.cardinality(),
                },
            );
        }
        Self {
            columns,
            non_finite,
        }
    }

    /// Reassembles a catalog from per-column statistics (used when loading a
    /// persisted segment, whose catalog was computed at write time from the
    /// original table).
    ///
    /// Statistics hold no rows, so such a catalog reports no
    /// [non-finite value](Catalog::first_non_finite) unless one is restored
    /// with [`Catalog::with_first_non_finite`].
    pub fn from_stats(stats: impl IntoIterator<Item = ColumnStats>) -> Self {
        Self {
            columns: stats.into_iter().map(|s| (s.name.clone(), s)).collect(),
            non_finite: None,
        }
    }

    /// This catalog reporting `non_finite` as its
    /// [first non-finite value](Catalog::first_non_finite): a persisted
    /// segment records the one its catalog was built with, so a reopened
    /// table can be refused without a pass over its data.
    pub fn with_first_non_finite(mut self, non_finite: Option<(String, usize)>) -> Self {
        self.non_finite = non_finite;
        self
    }

    /// The first non-finite float value (NaN or ±∞) the catalog was built
    /// over, as `(column, row)`: the first such column in table order and
    /// its first such row. The bounders need finite data, so a session
    /// refuses to register a table that has one.
    pub fn first_non_finite(&self) -> Option<(&str, usize)> {
        self.non_finite
            .as_ref()
            .map(|(column, row)| (column.as_str(), *row))
    }

    /// Statistics for one column.
    pub fn column(&self, name: &str) -> StoreResult<&ColumnStats> {
        self.columns
            .get(name)
            .ok_or_else(|| StoreError::UnknownColumn {
                name: name.to_string(),
            })
    }

    /// The `[a, b]` range bounds of a numeric column.
    pub fn range_bounds(&self, name: &str) -> StoreResult<(f64, f64)> {
        let stats = self.column(name)?;
        match (stats.min, stats.max) {
            (Some(a), Some(b)) => Ok((a, b)),
            _ => Err(StoreError::TypeMismatch {
                name: name.to_string(),
                expected: "numeric",
                actual: stats.data_type,
            }),
        }
    }

    /// Number of columns described by the catalog.
    pub fn len(&self) -> usize {
        self.columns.len()
    }

    /// Whether the catalog is empty.
    pub fn is_empty(&self) -> bool {
        self.columns.is_empty()
    }

    /// Iterates over all column statistics (unordered).
    pub fn iter(&self) -> impl Iterator<Item = &ColumnStats> {
        self.columns.values()
    }
}

/// The `(min, max)` of a float column as [`Column::numeric_min_max`]
/// records it (NaN ignored; `None` when empty), and the row of its first
/// non-finite value, from one pass over the values.
///
/// [`Column::numeric_min_max`]: crate::column::Column::numeric_min_max
fn float_range(values: &[f64]) -> (Option<(f64, f64)>, Option<usize>) {
    if values.is_empty() {
        return (None, None);
    }
    let mut lo = f64::INFINITY;
    let mut hi = f64::NEG_INFINITY;
    let mut finite = true;
    for &x in values {
        lo = lo.min(x);
        hi = hi.max(x);
        finite &= x.is_finite();
    }
    // Only a column that is about to be refused pays a second look.
    let bad_row = if finite {
        None
    } else {
        values.iter().position(|x| !x.is_finite())
    };
    (Some((lo, hi)), bad_row)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::Column;

    fn table() -> Table {
        Table::new(vec![
            Column::float("delay", vec![-10.0, 5.0, 40.0, 0.0]),
            Column::categorical("airline", &["UA", "AA", "UA", "DL"]),
            Column::int("dep_time", vec![600, 900, 1200, 2300]),
        ])
        .unwrap()
    }

    #[test]
    fn records_ranges_and_cardinalities() {
        let cat = Catalog::build(&table());
        assert_eq!(cat.len(), 3);
        assert!(!cat.is_empty());
        assert_eq!(cat.range_bounds("delay").unwrap(), (-10.0, 40.0));
        assert_eq!(cat.range_bounds("dep_time").unwrap(), (600.0, 2300.0));
        let airline = cat.column("airline").unwrap();
        assert_eq!(airline.cardinality, Some(3));
        assert_eq!(airline.min, None);
        assert_eq!(airline.data_type, DataType::Categorical);
    }

    #[test]
    fn unknown_and_non_numeric_columns_error() {
        let cat = Catalog::build(&table());
        assert!(matches!(
            cat.column("missing"),
            Err(StoreError::UnknownColumn { .. })
        ));
        assert!(matches!(
            cat.range_bounds("airline"),
            Err(StoreError::TypeMismatch { .. })
        ));
    }

    #[test]
    fn iter_visits_every_column() {
        let cat = Catalog::build(&table());
        let names: Vec<_> = cat.iter().map(|s| s.name.clone()).collect();
        assert_eq!(names.len(), 3);
        for n in ["delay", "airline", "dep_time"] {
            assert!(names.iter().any(|x| x == n));
        }
    }

    #[test]
    fn the_first_non_finite_float_is_noted_in_the_same_pass() {
        assert_eq!(Catalog::build(&table()).first_non_finite(), None);
        let t = Table::new(vec![
            Column::int("i", vec![1, 2, 3, 4]),
            Column::float("a", vec![0.0, 1.0, f64::NEG_INFINITY, f64::NAN]),
            Column::float("b", vec![f64::NAN, 1.0, 2.0, 3.0]),
        ])
        .unwrap();
        let cat = Catalog::build(&t);
        assert_eq!(cat.first_non_finite(), Some(("a", 2)));
        // The range is what `numeric_min_max` gives: NaN is ignored.
        assert_eq!(cat.range_bounds("b").unwrap(), (1.0, 3.0));
        assert_eq!(
            Catalog::from_stats(cat.iter().cloned()).first_non_finite(),
            None
        );
    }
}

//! Typed columns: the unit of storage in the FastFrame column store.
//!
//! Three physical representations are supported, mirroring what the paper's
//! Flights evaluation needs: `Float64` and `Int64` for continuous attributes
//! that can be aggregated, and dictionary-encoded `Categorical` for the
//! attributes that are filtered or grouped on (origin airport, airline, day
//! of week).

use std::collections::HashMap;
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Logical data type of a column.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataType {
    /// 64-bit floating point values.
    Float64,
    /// 64-bit signed integer values.
    Int64,
    /// Dictionary-encoded string values.
    Categorical,
}

/// A single cell value, used at table-construction time and for result
/// display.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Floating point cell.
    Float(f64),
    /// Integer cell.
    Int(i64),
    /// String / categorical cell.
    Str(String),
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_string())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}

/// Physical storage for one column.
#[derive(Debug, Clone)]
pub enum ColumnData {
    /// Contiguous 64-bit floats.
    Float64(Vec<f64>),
    /// Contiguous 64-bit integers.
    Int64(Vec<i64>),
    /// Dictionary-encoded strings: `codes[i]` indexes into `dictionary`.
    Categorical {
        /// Distinct values, indexed by code.
        dictionary: Arc<Vec<String>>,
        /// Per-row dictionary codes.
        codes: Vec<u32>,
    },
}

/// A named, typed column.
#[derive(Debug, Clone)]
pub struct Column {
    name: String,
    data: ColumnData,
}

impl Column {
    /// Creates a 64-bit float column.
    pub fn float(name: impl Into<String>, values: Vec<f64>) -> Self {
        Self {
            name: name.into(),
            data: ColumnData::Float64(values),
        }
    }

    /// Creates a 64-bit integer column.
    pub fn int(name: impl Into<String>, values: Vec<i64>) -> Self {
        Self {
            name: name.into(),
            data: ColumnData::Int64(values),
        }
    }

    /// Creates a dictionary-encoded categorical column from string values.
    pub fn categorical<S: AsRef<str>>(name: impl Into<String>, values: &[S]) -> Self {
        let mut dictionary: Vec<String> = Vec::new();
        let mut lookup: HashMap<&str, u32> = HashMap::new();
        let mut codes = Vec::with_capacity(values.len());
        for v in values {
            let s = v.as_ref();
            let code = match lookup.get(s) {
                Some(&c) => c,
                None => {
                    let c = dictionary.len() as u32;
                    dictionary.push(s.to_string());
                    // Safety of the borrow: we re-look-up by the owned string
                    // below instead of holding a borrow into `values`.
                    lookup.insert(
                        // Leaking is avoided by keying on the freshly pushed
                        // owned string's slice lifetime — but that would
                        // borrow `dictionary`. Simplest correct approach:
                        // key by the input slice (valid for the loop).
                        s, c,
                    );
                    c
                }
            };
            codes.push(code);
        }
        Self {
            name: name.into(),
            data: ColumnData::Categorical {
                dictionary: Arc::new(dictionary),
                codes,
            },
        }
    }

    /// Creates a categorical column directly from codes and a dictionary.
    ///
    /// Panics (in debug builds) if any code is out of range.
    pub fn categorical_from_codes(
        name: impl Into<String>,
        dictionary: Arc<Vec<String>>,
        codes: Vec<u32>,
    ) -> Self {
        debug_assert!(codes.iter().all(|&c| (c as usize) < dictionary.len()));
        Self {
            name: name.into(),
            data: ColumnData::Categorical { dictionary, codes },
        }
    }

    /// Column name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Logical data type.
    pub fn data_type(&self) -> DataType {
        match &self.data {
            ColumnData::Float64(_) => DataType::Float64,
            ColumnData::Int64(_) => DataType::Int64,
            ColumnData::Categorical { .. } => DataType::Categorical,
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        match &self.data {
            ColumnData::Float64(v) => v.len(),
            ColumnData::Int64(v) => v.len(),
            ColumnData::Categorical { codes, .. } => codes.len(),
        }
    }

    /// Whether the column has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Raw physical data.
    pub fn data(&self) -> &ColumnData {
        &self.data
    }

    /// Mutable physical data, for in-crate decoders that refill a reused
    /// column in place. The column's type and dictionary must not change.
    pub(crate) fn data_mut(&mut self) -> &mut ColumnData {
        &mut self.data
    }

    /// Whether the column holds numeric (aggregatable) values.
    pub fn is_numeric(&self) -> bool {
        !matches!(self.data, ColumnData::Categorical { .. })
    }

    /// Numeric value at `row` (integers are widened to `f64`).
    ///
    /// Returns `None` for categorical columns or out-of-range rows.
    #[inline]
    pub fn numeric_value(&self, row: usize) -> Option<f64> {
        match &self.data {
            ColumnData::Float64(v) => v.get(row).copied(),
            ColumnData::Int64(v) => v.get(row).map(|&x| x as f64),
            ColumnData::Categorical { .. } => None,
        }
    }

    /// Dictionary code at `row` for categorical columns.
    #[inline]
    pub fn category_code(&self, row: usize) -> Option<u32> {
        match &self.data {
            ColumnData::Categorical { codes, .. } => codes.get(row).copied(),
            _ => None,
        }
    }

    /// The raw float storage, if the column is `Float64`. The batch filter
    /// and gather kernels read whole blocks through these slice accessors
    /// instead of per-row [`Self::numeric_value`] calls.
    #[inline]
    pub fn float_values(&self) -> Option<&[f64]> {
        match &self.data {
            ColumnData::Float64(v) => Some(v),
            _ => None,
        }
    }

    /// The raw integer storage, if the column is `Int64`.
    #[inline]
    pub fn int_values(&self) -> Option<&[i64]> {
        match &self.data {
            ColumnData::Int64(v) => Some(v),
            _ => None,
        }
    }

    /// The per-row dictionary codes, if the column is categorical.
    #[inline]
    pub fn category_codes(&self) -> Option<&[u32]> {
        match &self.data {
            ColumnData::Categorical { codes, .. } => Some(codes),
            _ => None,
        }
    }

    /// The dictionary of a categorical column.
    pub fn dictionary(&self) -> Option<&Arc<Vec<String>>> {
        match &self.data {
            ColumnData::Categorical { dictionary, .. } => Some(dictionary),
            _ => None,
        }
    }

    /// Looks up the code of a categorical value, if present.
    pub fn code_of(&self, value: &str) -> Option<u32> {
        self.dictionary()?
            .iter()
            .position(|s| s == value)
            .map(|i| i as u32)
    }

    /// Number of distinct values of a categorical column (dictionary size).
    pub fn cardinality(&self) -> Option<usize> {
        self.dictionary().map(|d| d.len())
    }

    /// The cell value at `row` as a [`Value`], for display.
    pub fn value(&self, row: usize) -> Option<Value> {
        match &self.data {
            ColumnData::Float64(v) => v.get(row).map(|&x| Value::Float(x)),
            ColumnData::Int64(v) => v.get(row).map(|&x| Value::Int(x)),
            ColumnData::Categorical { dictionary, codes } => codes
                .get(row)
                .and_then(|&c| dictionary.get(c as usize))
                .map(|s| Value::Str(s.clone())),
        }
    }

    /// Builds a new column containing the rows of this column permuted so
    /// that output row `i` holds input row `permutation[i]`. Used when
    /// constructing a [`Scramble`](crate::scramble::Scramble).
    pub fn permuted(&self, permutation: &[usize]) -> Column {
        let data = match &self.data {
            ColumnData::Float64(v) => {
                ColumnData::Float64(permutation.iter().map(|&i| v[i]).collect())
            }
            ColumnData::Int64(v) => ColumnData::Int64(permutation.iter().map(|&i| v[i]).collect()),
            ColumnData::Categorical { dictionary, codes } => ColumnData::Categorical {
                dictionary: Arc::clone(dictionary),
                codes: permutation.iter().map(|&i| codes[i]).collect(),
            },
        };
        Column {
            name: self.name.clone(),
            data,
        }
    }

    /// Shuffles this column's rows in place with
    /// `StdRng::seed_from_u64(seed)`. The shuffle's draws depend only on the
    /// row count, never on the element type, so every column shuffled with
    /// one seed moves its rows alike: the same order
    /// [`permuted`](Self::permuted) gives for the identity `0..len`
    /// shuffled with that seed.
    pub(crate) fn shuffle(&mut self, seed: u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        match &mut self.data {
            ColumnData::Float64(v) => v.shuffle(&mut rng),
            ColumnData::Int64(v) => v.shuffle(&mut rng),
            ColumnData::Categorical { codes, .. } => codes.shuffle(&mut rng),
        }
    }

    /// Minimum and maximum of a numeric column, if it is numeric and
    /// non-empty.
    pub fn numeric_min_max(&self) -> Option<(f64, f64)> {
        match &self.data {
            ColumnData::Float64(v) if !v.is_empty() => {
                let mut lo = f64::INFINITY;
                let mut hi = f64::NEG_INFINITY;
                for &x in v {
                    lo = lo.min(x);
                    hi = hi.max(x);
                }
                Some((lo, hi))
            }
            ColumnData::Int64(v) if !v.is_empty() => {
                let lo = *v.iter().min().expect("non-empty") as f64;
                let hi = *v.iter().max().expect("non-empty") as f64;
                Some((lo, hi))
            }
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn float_column_basics() {
        let c = Column::float("delay", vec![1.0, -2.5, 3.0]);
        assert_eq!(c.name(), "delay");
        assert_eq!(c.data_type(), DataType::Float64);
        assert_eq!(c.len(), 3);
        assert!(!c.is_empty());
        assert!(c.is_numeric());
        assert_eq!(c.numeric_value(1), Some(-2.5));
        assert_eq!(c.numeric_value(5), None);
        assert_eq!(c.category_code(0), None);
        assert_eq!(c.numeric_min_max(), Some((-2.5, 3.0)));
        assert_eq!(c.value(0), Some(Value::Float(1.0)));
    }

    #[test]
    fn int_column_widens_to_f64() {
        let c = Column::int("dep_time", vec![830, 1455, 2359]);
        assert_eq!(c.data_type(), DataType::Int64);
        assert_eq!(c.numeric_value(2), Some(2359.0));
        assert_eq!(c.numeric_min_max(), Some((830.0, 2359.0)));
        assert_eq!(c.value(1), Some(Value::Int(1455)));
    }

    #[test]
    fn categorical_column_dictionary_encoding() {
        let c = Column::categorical("airline", &["UA", "AA", "UA", "DL", "AA"]);
        assert_eq!(c.data_type(), DataType::Categorical);
        assert!(!c.is_numeric());
        assert_eq!(c.cardinality(), Some(3));
        assert_eq!(c.category_code(0), c.category_code(2));
        assert_ne!(c.category_code(0), c.category_code(1));
        assert_eq!(c.code_of("DL"), c.category_code(3));
        assert_eq!(c.code_of("XX"), None);
        assert_eq!(c.numeric_value(0), None);
        assert_eq!(c.value(3), Some(Value::Str("DL".to_string())));
    }

    #[test]
    fn categorical_from_codes() {
        let dict = Arc::new(vec!["a".to_string(), "b".to_string()]);
        let c = Column::categorical_from_codes("k", Arc::clone(&dict), vec![0, 1, 1, 0]);
        assert_eq!(c.len(), 4);
        assert_eq!(c.value(1), Some(Value::Str("b".to_string())));
        assert_eq!(c.cardinality(), Some(2));
    }

    #[test]
    fn permuted_preserves_values() {
        let c = Column::float("x", vec![10.0, 20.0, 30.0, 40.0]);
        let p = c.permuted(&[3, 1, 0, 2]);
        assert_eq!(p.numeric_value(0), Some(40.0));
        assert_eq!(p.numeric_value(1), Some(20.0));
        assert_eq!(p.numeric_value(2), Some(10.0));
        assert_eq!(p.numeric_value(3), Some(30.0));
        assert_eq!(p.name(), "x");

        let cat = Column::categorical("c", &["x", "y", "z"]);
        let pc = cat.permuted(&[2, 0, 1]);
        assert_eq!(pc.value(0), Some(Value::Str("z".to_string())));
    }

    #[test]
    fn empty_column() {
        let c = Column::float("x", vec![]);
        assert!(c.is_empty());
        assert_eq!(c.numeric_min_max(), None);
    }

    #[test]
    fn value_conversions() {
        assert_eq!(Value::from(1.5), Value::Float(1.5));
        assert_eq!(Value::from(3i64), Value::Int(3));
        assert_eq!(Value::from("hi"), Value::Str("hi".to_string()));
        assert_eq!(Value::from("hi".to_string()), Value::Str("hi".to_string()));
    }
}

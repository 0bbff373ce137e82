//! Tables: named collections of equal-length columns, plus the store error
//! type.

use std::path::PathBuf;
use std::sync::Arc;

use crate::block::BlockId;
use crate::column::{Column, DataType, Value};

/// Errors produced by the storage layer.
#[derive(Debug, Clone)]
pub enum StoreError {
    /// A referenced column does not exist.
    UnknownColumn {
        /// The missing column's name.
        name: String,
    },
    /// A column was used with an incompatible type (e.g. aggregating a
    /// categorical column).
    TypeMismatch {
        /// Column name.
        name: String,
        /// The type that was expected by the operation.
        expected: &'static str,
        /// The column's actual type.
        actual: DataType,
    },
    /// Columns of differing lengths were combined into one table.
    LengthMismatch {
        /// Name of the offending column.
        name: String,
        /// Its length.
        len: usize,
        /// The expected table length.
        expected: usize,
    },
    /// A categorical value referenced by a predicate does not occur in the
    /// column's dictionary.
    UnknownCategory {
        /// Column name.
        column: String,
        /// The value that was not found.
        value: String,
    },
    /// The table has no rows.
    EmptyTable,
    /// An I/O operation on a storage file failed.
    Io {
        /// Path of the file being read or written.
        path: PathBuf,
        /// The underlying I/O error (shared so the error stays `Clone`).
        source: Arc<std::io::Error>,
    },
    /// A storage file is malformed: bad magic, unsupported version, checksum
    /// mismatch, truncation, or an impossible value in a decoded structure.
    Corrupt {
        /// Path of the offending file.
        path: PathBuf,
        /// What exactly failed to validate.
        detail: String,
    },
    /// A read asked for a block past the end of the table.
    BlockOutOfRange {
        /// Path of the table read (`<in-memory scramble>` for a scramble
        /// held in memory).
        path: PathBuf,
        /// The first block asked for past the end.
        block: BlockId,
        /// The table's number of blocks.
        num_blocks: usize,
    },
    /// A scramble was asked for blocks of zero rows.
    ZeroBlockSize,
}

impl StoreError {
    /// Wraps an I/O error with the path it occurred on.
    pub fn io(path: impl Into<PathBuf>, source: std::io::Error) -> Self {
        StoreError::Io {
            path: path.into(),
            source: Arc::new(source),
        }
    }

    /// A corruption error for `path` with a human-readable detail.
    pub fn corrupt(path: impl Into<PathBuf>, detail: impl Into<String>) -> Self {
        StoreError::Corrupt {
            path: path.into(),
            detail: detail.into(),
        }
    }

    /// The error for a read of `block` from the table at `path`, which has
    /// only `num_blocks` blocks: both backings' error for a range past the
    /// end. Cold and out of line: the scan path only tests for it.
    #[cold]
    #[inline(never)]
    pub fn block_out_of_range(path: impl Into<PathBuf>, block: BlockId, num_blocks: usize) -> Self {
        StoreError::BlockOutOfRange {
            path: path.into(),
            block,
            num_blocks,
        }
    }
}

// Manual `PartialEq`: `std::io::Error` is not comparable, so `Io` errors
// compare by path and error kind (which is what tests match on).
impl PartialEq for StoreError {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (StoreError::UnknownColumn { name: a }, StoreError::UnknownColumn { name: b }) => {
                a == b
            }
            (
                StoreError::TypeMismatch {
                    name: a,
                    expected: ae,
                    actual: aa,
                },
                StoreError::TypeMismatch {
                    name: b,
                    expected: be,
                    actual: ba,
                },
            ) => a == b && ae == be && aa == ba,
            (
                StoreError::LengthMismatch {
                    name: a,
                    len: al,
                    expected: ae,
                },
                StoreError::LengthMismatch {
                    name: b,
                    len: bl,
                    expected: be,
                },
            ) => a == b && al == bl && ae == be,
            (
                StoreError::UnknownCategory {
                    column: a,
                    value: av,
                },
                StoreError::UnknownCategory {
                    column: b,
                    value: bv,
                },
            ) => a == b && av == bv,
            (StoreError::EmptyTable, StoreError::EmptyTable) => true,
            (
                StoreError::Io {
                    path: a,
                    source: asrc,
                },
                StoreError::Io {
                    path: b,
                    source: bsrc,
                },
            ) => a == b && asrc.kind() == bsrc.kind(),
            (
                StoreError::Corrupt {
                    path: a,
                    detail: ad,
                },
                StoreError::Corrupt {
                    path: b,
                    detail: bd,
                },
            ) => a == b && ad == bd,
            (
                StoreError::BlockOutOfRange {
                    path: a,
                    block: ab,
                    num_blocks: an,
                },
                StoreError::BlockOutOfRange {
                    path: b,
                    block: bb,
                    num_blocks: bn,
                },
            ) => a == b && ab == bb && an == bn,
            (StoreError::ZeroBlockSize, StoreError::ZeroBlockSize) => true,
            _ => false,
        }
    }
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::UnknownColumn { name } => write!(f, "unknown column `{name}`"),
            StoreError::TypeMismatch {
                name,
                expected,
                actual,
            } => write!(
                f,
                "column `{name}` has type {actual:?}, expected {expected}"
            ),
            StoreError::LengthMismatch {
                name,
                len,
                expected,
            } => write!(
                f,
                "column `{name}` has {len} rows but the table has {expected}"
            ),
            StoreError::UnknownCategory { column, value } => {
                write!(f, "value `{value}` not present in column `{column}`")
            }
            StoreError::EmptyTable => write!(f, "table has no rows"),
            StoreError::Io { path, source } => {
                write!(f, "I/O error on `{}`: {source}", path.display())
            }
            StoreError::Corrupt { path, detail } => {
                write!(f, "corrupt storage file `{}`: {detail}", path.display())
            }
            StoreError::BlockOutOfRange {
                path,
                block,
                num_blocks,
            } => write!(
                f,
                "{block} out of range ({num_blocks} blocks) in `{}`",
                path.display()
            ),
            StoreError::ZeroBlockSize => {
                write!(f, "invalid `block_size` = 0, expected at least 1 row")
            }
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io { source, .. } => Some(source.as_ref()),
            _ => None,
        }
    }
}

/// Result alias for storage operations.
pub type StoreResult<T> = Result<T, StoreError>;

/// An immutable, in-memory table of equal-length columns.
#[derive(Debug, Clone)]
pub struct Table {
    columns: Vec<Column>,
    num_rows: usize,
}

impl Table {
    /// Assembles a table from columns, validating that all lengths agree.
    pub fn new(columns: Vec<Column>) -> StoreResult<Self> {
        let num_rows = columns.first().map_or(0, Column::len);
        for c in &columns {
            if c.len() != num_rows {
                return Err(StoreError::LengthMismatch {
                    name: c.name().to_string(),
                    len: c.len(),
                    expected: num_rows,
                });
            }
        }
        Ok(Self { columns, num_rows })
    }

    /// Assembles a projected-block table directly, for tests of the kernels
    /// over placeholder columns (see [`Self::refill`]). Every column must
    /// either match `num_rows` or be empty.
    #[cfg(test)]
    pub(crate) fn with_placeholders(columns: Vec<Column>, num_rows: usize) -> StoreResult<Self> {
        for c in &columns {
            if c.len() != num_rows && !c.is_empty() {
                return Err(StoreError::LengthMismatch {
                    name: c.name().to_string(),
                    len: c.len(),
                    expected: num_rows,
                });
            }
        }
        Ok(Self { columns, num_rows })
    }

    /// The columns of a reused decode buffer, for refilling in place with a
    /// block of `num_rows` rows. This is the projected-block case: the
    /// caller must leave every column either `num_rows` long or empty, a
    /// zero-row placeholder that keeps its schema *position* (so indexes
    /// bound against the schema stay valid) without carrying data.
    pub(crate) fn refill(&mut self, num_rows: usize) -> &mut [Column] {
        self.num_rows = num_rows;
        &mut self.columns
    }

    /// Number of rows.
    pub fn num_rows(&self) -> usize {
        self.num_rows
    }

    /// Number of columns.
    pub fn num_columns(&self) -> usize {
        self.columns.len()
    }

    /// All columns, in declaration order.
    pub fn columns(&self) -> &[Column] {
        &self.columns
    }

    /// Looks up a column by name.
    pub fn column(&self, name: &str) -> StoreResult<&Column> {
        self.columns
            .iter()
            .find(|c| c.name() == name)
            .ok_or_else(|| StoreError::UnknownColumn {
                name: name.to_string(),
            })
    }

    /// Index of a column by name.
    pub fn column_index(&self, name: &str) -> StoreResult<usize> {
        self.columns
            .iter()
            .position(|c| c.name() == name)
            .ok_or_else(|| StoreError::UnknownColumn {
                name: name.to_string(),
            })
    }

    /// Column by positional index.
    pub fn column_at(&self, index: usize) -> &Column {
        &self.columns[index]
    }

    /// Looks up a numeric column by name, failing with a type error for
    /// categorical columns.
    pub fn numeric_column(&self, name: &str) -> StoreResult<&Column> {
        let c = self.column(name)?;
        if c.is_numeric() {
            Ok(c)
        } else {
            Err(StoreError::TypeMismatch {
                name: name.to_string(),
                expected: "numeric",
                actual: c.data_type(),
            })
        }
    }

    /// Looks up a categorical column by name.
    pub fn categorical_column(&self, name: &str) -> StoreResult<&Column> {
        let c = self.column(name)?;
        if c.data_type() == DataType::Categorical {
            Ok(c)
        } else {
            Err(StoreError::TypeMismatch {
                name: name.to_string(),
                expected: "categorical",
                actual: c.data_type(),
            })
        }
    }

    /// Cell value for display.
    pub fn value(&self, column: &str, row: usize) -> StoreResult<Option<Value>> {
        Ok(self.column(column)?.value(row))
    }

    /// Builds a new table with every column permuted by the same permutation
    /// (output row `i` holds input row `permutation[i]`).
    pub fn permuted(&self, permutation: &[usize]) -> Table {
        Table {
            columns: self
                .columns
                .iter()
                .map(|c| c.permuted(permutation))
                .collect(),
            num_rows: permutation.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_table() -> Table {
        Table::new(vec![
            Column::float("delay", vec![5.0, -2.0, 12.0, 0.0]),
            Column::categorical("airline", &["UA", "AA", "UA", "DL"]),
            Column::int("dep_time", vec![900, 1200, 1800, 600]),
        ])
        .unwrap()
    }

    #[test]
    fn construction_and_accessors() {
        let t = sample_table();
        assert_eq!(t.num_rows(), 4);
        assert_eq!(t.num_columns(), 3);
        assert_eq!(t.column("delay").unwrap().name(), "delay");
        assert_eq!(t.column_index("airline").unwrap(), 1);
        assert_eq!(t.column_at(2).name(), "dep_time");
        assert!(matches!(
            t.column("nope"),
            Err(StoreError::UnknownColumn { .. })
        ));
    }

    #[test]
    fn rejects_mismatched_lengths() {
        let err = Table::new(vec![
            Column::float("a", vec![1.0, 2.0]),
            Column::float("b", vec![1.0]),
        ])
        .unwrap_err();
        assert!(matches!(err, StoreError::LengthMismatch { .. }));
    }

    #[test]
    fn typed_column_lookups() {
        let t = sample_table();
        assert!(t.numeric_column("delay").is_ok());
        assert!(t.numeric_column("dep_time").is_ok());
        assert!(matches!(
            t.numeric_column("airline"),
            Err(StoreError::TypeMismatch { .. })
        ));
        assert!(t.categorical_column("airline").is_ok());
        assert!(matches!(
            t.categorical_column("delay"),
            Err(StoreError::TypeMismatch { .. })
        ));
    }

    #[test]
    fn value_access() {
        let t = sample_table();
        assert_eq!(
            t.value("airline", 3).unwrap(),
            Some(Value::Str("DL".to_string()))
        );
        assert_eq!(t.value("delay", 2).unwrap(), Some(Value::Float(12.0)));
        assert_eq!(t.value("delay", 99).unwrap(), None);
    }

    #[test]
    fn permuted_table() {
        let t = sample_table();
        let p = t.permuted(&[3, 2, 1, 0]);
        assert_eq!(p.num_rows(), 4);
        assert_eq!(p.value("delay", 0).unwrap(), Some(Value::Float(0.0)));
        assert_eq!(
            p.value("airline", 3).unwrap(),
            Some(Value::Str("UA".to_string()))
        );
    }

    #[test]
    fn empty_table_is_allowed_but_has_zero_rows() {
        let t = Table::new(vec![]).unwrap();
        assert_eq!(t.num_rows(), 0);
        assert_eq!(t.num_columns(), 0);
    }

    #[test]
    fn error_display() {
        let e = StoreError::UnknownCategory {
            column: "airline".into(),
            value: "ZZ".into(),
        };
        assert!(e.to_string().contains("ZZ"));
        assert!(StoreError::EmptyTable.to_string().contains("no rows"));
    }

    #[test]
    fn io_and_corrupt_errors() {
        use std::error::Error;
        let e = StoreError::io(
            "/tmp/x.seg",
            std::io::Error::new(std::io::ErrorKind::NotFound, "gone"),
        );
        assert!(e.to_string().contains("/tmp/x.seg"));
        assert!(e.source().is_some());
        // Io errors compare by path + kind.
        let same = StoreError::io(
            "/tmp/x.seg",
            std::io::Error::new(std::io::ErrorKind::NotFound, "different message"),
        );
        assert_eq!(e, same);
        let other_kind = StoreError::io(
            "/tmp/x.seg",
            std::io::Error::new(std::io::ErrorKind::PermissionDenied, "nope"),
        );
        assert_ne!(e, other_kind);

        let c = StoreError::corrupt("/tmp/x.seg", "bad magic");
        assert!(c.to_string().contains("bad magic"));
        assert_eq!(c, StoreError::corrupt("/tmp/x.seg", "bad magic"));
        assert_ne!(c, e);
        assert!(c.source().is_none());
    }

    #[test]
    fn a_block_past_the_end_is_its_own_error() {
        let e = StoreError::block_out_of_range("t.seg", BlockId(7), 5);
        assert_eq!(e.to_string(), "block#7 out of range (5 blocks) in `t.seg`");
        assert_eq!(e, StoreError::block_out_of_range("t.seg", BlockId(7), 5));
        assert_ne!(e, StoreError::block_out_of_range("t.seg", BlockId(6), 5));
        assert_ne!(e, StoreError::block_out_of_range("u.seg", BlockId(7), 5));
        assert_ne!(
            e,
            StoreError::corrupt("t.seg", "block#7 out of range (5 blocks)")
        );
        assert_eq!(
            StoreError::ZeroBlockSize.to_string(),
            "invalid `block_size` = 0, expected at least 1 row"
        );
    }
}

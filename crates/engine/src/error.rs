//! Engine error type.

use fastframe_core::error::CoreError;
use fastframe_store::table::StoreError;

/// Errors produced while planning or executing a query.
#[derive(Debug, Clone, PartialEq)]
pub enum EngineError {
    /// A storage-layer error (unknown column, type mismatch, ...).
    Store(StoreError),
    /// A statistics-layer error (invalid δ, invalid range, ...).
    Core(CoreError),
    /// The query groups by a non-categorical column.
    InvalidGroupBy {
        /// The offending column.
        column: String,
    },
    /// The group universe holds a code outside its column's dictionary.
    /// Packed into a group key it would alias another group, so the query
    /// is refused instead.
    GroupCodeOutOfRange {
        /// The GROUP BY column.
        column: String,
        /// The offending code.
        code: u32,
        /// The size of the column's dictionary.
        cardinality: usize,
    },
    /// The GROUP BY columns' cardinalities multiply past 2⁶⁴, so a row's
    /// group key does not fit one packed 64-bit integer.
    GroupKeySpaceTooLarge {
        /// The GROUP BY columns.
        columns: Vec<String>,
    },
    /// A float column holds a NaN or an infinity, which no bounder can
    /// bound; the table is refused when it is registered.
    NonFiniteValue {
        /// The column.
        column: String,
        /// The first offending row, in the registered table's order.
        row: usize,
    },
    /// The aggregate target's derived range `[a, b]` (Appendix B) is not
    /// finite, say `x * x` over a column reaching 1e200, so no bounder can
    /// bound it; the query is refused when it is built.
    NonFiniteRange {
        /// The target expression, rendered infix.
        target: String,
        /// The derived lower bound.
        a: f64,
        /// The derived upper bound.
        b: f64,
    },
    /// The scramble holds no rows.
    EmptyScramble,
    /// The query references a table that is not registered in the session.
    UnknownTable {
        /// The unregistered table name.
        name: String,
    },
    /// A table with this name is already registered in the session.
    DuplicateTable {
        /// The conflicting table name.
        name: String,
    },
    /// The operation needs an in-memory scramble, but the table is backed by
    /// an on-disk segment (registered via `Session::open_table`).
    SegmentBacked {
        /// The segment-backed table's name.
        name: String,
    },
    /// The query builder was finalized without an aggregate (`avg` / `sum` /
    /// `count`).
    MissingAggregate,
    /// An `EngineConfig` setting is out of range; rejected when the query is
    /// prepared and again when it runs. (An invalid δ is reported as
    /// `Core(InvalidDelta)`.)
    InvalidConfig {
        /// The offending `EngineConfig` field.
        field: &'static str,
        /// The rejected value, as written.
        value: String,
        /// The accepted range.
        expected: &'static str,
    },
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::Store(e) => write!(f, "storage error: {e}"),
            EngineError::Core(e) => write!(f, "statistics error: {e}"),
            EngineError::InvalidGroupBy { column } => {
                write!(f, "GROUP BY column `{column}` must be categorical")
            }
            EngineError::GroupCodeOutOfRange {
                column,
                code,
                cardinality,
            } => write!(
                f,
                "group universe holds code {code} of GROUP BY column `{column}`, \
                 whose dictionary has {cardinality} entries"
            ),
            EngineError::GroupKeySpaceTooLarge { columns } => write!(
                f,
                "GROUP BY columns {columns:?} have more than 2^64 code combinations"
            ),
            EngineError::NonFiniteValue { column, row } => write!(
                f,
                "column `{column}` holds a non-finite value (NaN or infinity) at row {row}; \
                 the error bounders need finite data"
            ),
            EngineError::NonFiniteRange { target, a, b } => write!(
                f,
                "target `{target}` has the derived range [{a}, {b}], which is not finite; \
                 the error bounders need a finite range"
            ),
            EngineError::EmptyScramble => write!(f, "cannot query an empty scramble"),
            EngineError::UnknownTable { name } => {
                write!(f, "no table named `{name}` is registered in the session")
            }
            EngineError::DuplicateTable { name } => {
                write!(f, "a table named `{name}` is already registered")
            }
            EngineError::SegmentBacked { name } => {
                write!(
                    f,
                    "table `{name}` is backed by an on-disk segment, not an in-memory scramble"
                )
            }
            EngineError::MissingAggregate => {
                write!(f, "query built without an aggregate (avg / sum / count)")
            }
            EngineError::InvalidConfig {
                field,
                value,
                expected,
            } => write!(
                f,
                "invalid config: `{field}` = {value}, expected {expected}"
            ),
        }
    }
}

impl std::error::Error for EngineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EngineError::Store(e) => Some(e),
            EngineError::Core(e) => Some(e),
            _ => None,
        }
    }
}

impl From<StoreError> for EngineError {
    fn from(e: StoreError) -> Self {
        EngineError::Store(e)
    }
}

impl From<CoreError> for EngineError {
    fn from(e: CoreError) -> Self {
        EngineError::Core(e)
    }
}

/// Result alias for engine operations.
pub type EngineResult<T> = Result<T, EngineError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_and_display() {
        let e: EngineError = StoreError::EmptyTable.into();
        assert!(matches!(e, EngineError::Store(_)));
        assert!(e.to_string().contains("storage error"));

        let e: EngineError = CoreError::EmptySample.into();
        assert!(matches!(e, EngineError::Core(_)));
        assert!(e.to_string().contains("statistics error"));

        let e = EngineError::InvalidGroupBy {
            column: "delay".into(),
        };
        assert!(e.to_string().contains("delay"));
        assert!(EngineError::EmptyScramble.to_string().contains("empty"));
        let e = EngineError::UnknownTable {
            name: "flights".into(),
        };
        assert!(e.to_string().contains("flights"));
        let e = EngineError::DuplicateTable {
            name: "flights".into(),
        };
        assert!(e.to_string().contains("already"));
        let e = EngineError::SegmentBacked {
            name: "flights".into(),
        };
        assert!(e.to_string().contains("segment"));
        assert!(EngineError::MissingAggregate
            .to_string()
            .contains("aggregate"));
        let e = EngineError::InvalidConfig {
            field: "round_rows",
            value: "0".into(),
            expected: "at least 1 row",
        };
        assert_eq!(
            e.to_string(),
            "invalid config: `round_rows` = 0, expected at least 1 row"
        );
        let e = EngineError::NonFiniteRange {
            target: "(x * x)".into(),
            a: 0.0,
            b: f64::INFINITY,
        };
        assert!(e.to_string().contains("`(x * x)`") && e.to_string().contains("inf"));
    }

    #[test]
    fn source_chains() {
        use std::error::Error;
        let e: EngineError = StoreError::EmptyTable.into();
        assert!(e.source().is_some());
        assert!(EngineError::EmptyScramble.source().is_none());
    }
}

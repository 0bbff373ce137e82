//! Error types shared by the statistical core.

use std::fmt;

/// Errors produced while constructing or evaluating error bounders.
#[derive(Debug, Clone, PartialEq)]
pub enum CoreError {
    /// The supplied range bounds do not satisfy `a <= b` or are not finite.
    InvalidRange {
        /// Lower range bound supplied by the caller.
        a: f64,
        /// Upper range bound supplied by the caller.
        b: f64,
    },
    /// The supplied error probability is outside the open interval `(0, 1)`.
    InvalidDelta {
        /// Error probability supplied by the caller.
        delta: f64,
    },
    /// The supplied dataset size is zero.
    EmptyPopulation,
    /// A sample value lies outside the declared range bounds.
    ValueOutOfRange {
        /// Offending value.
        value: f64,
        /// Lower range bound.
        a: f64,
        /// Upper range bound.
        b: f64,
    },
    /// An operation that requires at least one observation was invoked on an
    /// empty sample.
    EmptySample,
    /// A split fraction (such as Theorem 3's `α`) is outside `(0, 1)`.
    InvalidFraction {
        /// Offending fraction.
        value: f64,
    },
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::InvalidRange { a, b } => {
                write!(
                    f,
                    "invalid range bounds: a = {a}, b = {b} (need finite a <= b)"
                )
            }
            CoreError::InvalidDelta { delta } => {
                write!(
                    f,
                    "invalid error probability delta = {delta} (need 0 < delta < 1)"
                )
            }
            CoreError::EmptyPopulation => write!(f, "population size N must be positive"),
            CoreError::ValueOutOfRange { value, a, b } => {
                write!(f, "value {value} outside declared range [{a}, {b}]")
            }
            CoreError::EmptySample => write!(f, "operation requires a non-empty sample"),
            CoreError::InvalidFraction { value } => {
                write!(f, "fraction {value} must lie strictly between 0 and 1")
            }
        }
    }
}

impl std::error::Error for CoreError {}

/// Convenient result alias for the crate.
pub type CoreResult<T> = Result<T, CoreError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_mention_offending_values() {
        let e = CoreError::InvalidRange { a: 3.0, b: 1.0 };
        assert!(e.to_string().contains("3"));
        assert!(e.to_string().contains("1"));

        let e = CoreError::InvalidDelta { delta: 1.5 };
        assert!(e.to_string().contains("1.5"));

        let e = CoreError::ValueOutOfRange {
            value: 7.0,
            a: 0.0,
            b: 1.0,
        };
        assert!(e.to_string().contains("7"));
    }

    #[test]
    fn error_is_std_error() {
        fn assert_error<E: std::error::Error>(_: &E) {}
        assert_error(&CoreError::EmptySample);
    }

    #[test]
    fn errors_compare_equal_by_value() {
        assert_eq!(
            CoreError::InvalidDelta { delta: 0.0 },
            CoreError::InvalidDelta { delta: 0.0 }
        );
        assert_ne!(CoreError::EmptySample, CoreError::EmptyPopulation);
    }
}

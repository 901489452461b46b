//! Error type shared by the fallible constructors and checked update paths.

use std::fmt;

/// Errors produced by `stat4-core` constructors and checked operations.
///
/// The per-packet hot paths (`push`, `observe`, `rebalance`) are
/// infallible by design — a data plane cannot signal errors mid-pipeline —
/// so errors only arise when *configuring* a tracker or when using the
/// explicitly checked `try_*` variants.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Stat4Error {
    /// A value lies outside the configured domain of a frequency
    /// distribution or percentile tracker.
    ValueOutOfDomain {
        /// The offending value.
        value: i64,
        /// Inclusive lower bound of the domain.
        min: i64,
        /// Inclusive upper bound of the domain.
        max: i64,
    },
    /// A domain was configured with `min > max` or with a size that does
    /// not fit in memory-addressable counters.
    InvalidDomain {
        /// Inclusive lower bound requested.
        min: i64,
        /// Inclusive upper bound requested.
        max: i64,
    },
    /// A quantile was configured with a zero weight on either side.
    InvalidQuantile {
        /// Weight of the mass below the marker.
        low_weight: u32,
        /// Weight of the mass above the marker.
        high_weight: u32,
    },
    /// A windowed distribution was configured with zero intervals.
    EmptyWindow,
    /// An arithmetic update would overflow the counter width.
    Overflow {
        /// Human-readable description of the operation that overflowed.
        op: &'static str,
    },
    /// Two trackers with incompatible configurations (different domains,
    /// sketch geometries or quantile sets) were asked to merge.
    MergeMismatch {
        /// Which configuration aspect differed.
        what: &'static str,
    },
    /// Raw state handed to a `restore` (a checkpoint import) breaks an
    /// invariant the live tracker maintains.
    InvalidState {
        /// Which invariant the raw state breaks.
        what: &'static str,
    },
}

/// Convenience alias used throughout the crate.
pub type Stat4Result<T> = Result<T, Stat4Error>;

impl fmt::Display for Stat4Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Stat4Error::ValueOutOfDomain { value, min, max } => {
                write!(f, "value {value} outside tracked domain [{min}, {max}]")
            }
            Stat4Error::InvalidDomain { min, max } => {
                write!(f, "invalid domain [{min}, {max}]")
            }
            Stat4Error::InvalidQuantile {
                low_weight,
                high_weight,
            } => write!(
                f,
                "invalid quantile weights {low_weight}:{high_weight}; both must be non-zero"
            ),
            Stat4Error::EmptyWindow => write!(f, "windowed distribution needs >= 1 interval"),
            Stat4Error::Overflow { op } => write!(f, "integer overflow in {op}"),
            Stat4Error::MergeMismatch { what } => {
                write!(f, "cannot merge trackers with different {what}")
            }
            Stat4Error::InvalidState { what } => write!(f, "inconsistent raw state: {what}"),
        }
    }
}

impl std::error::Error for Stat4Error {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = Stat4Error::ValueOutOfDomain {
            value: 300,
            min: -255,
            max: 255,
        };
        let s = e.to_string();
        assert!(s.contains("300"));
        assert!(s.contains("-255"));
    }

    #[test]
    fn error_is_std_error() {
        fn assert_err<E: std::error::Error>(_: &E) {}
        assert_err(&Stat4Error::EmptyWindow);
    }

    #[test]
    fn errors_compare_by_value() {
        assert_eq!(
            Stat4Error::Overflow { op: "sumsq" },
            Stat4Error::Overflow { op: "sumsq" }
        );
        assert_ne!(
            Stat4Error::EmptyWindow,
            Stat4Error::Overflow { op: "sumsq" }
        );
    }
}

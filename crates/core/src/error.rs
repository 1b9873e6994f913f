//! Error types for the view-maintenance layer.

use std::fmt;

use eca_relational::RelationalError;

/// Errors raised while defining views or running maintenance algorithms.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CoreError {
    /// A relational-layer error bubbled up.
    Relational(RelationalError),
    /// The view definition referenced the same base relation twice. The
    /// paper (§4) assumes distinct relations; multiple occurrences would
    /// need per-occurrence update handling.
    DuplicateBaseRelation {
        /// The repeated relation name.
        relation: String,
    },
    /// A view required by an algorithm to be fully keyed (ECA-Key) is not.
    ViewNotKeyed {
        /// The view name.
        view: String,
    },
    /// An update referenced a relation that is not part of the view.
    UnknownRelation {
        /// The unknown relation name.
        relation: String,
    },
    /// An answer arrived for a query id that is not pending.
    UnknownQuery {
        /// The offending query id.
        id: u64,
    },
    /// The recompute period `s` for the RV algorithm must be at least 1.
    InvalidRecomputePeriod {
        /// The supplied period.
        period: u64,
    },
    /// A batching maintainer must ship a query every `n ≥ 1` updates.
    ZeroBatchSize,
    /// The algorithm cannot atomically adopt an externally recomputed
    /// view state (RV-style resync): it maintains auxiliary state that a
    /// bare `V(ss)` answer cannot restore.
    ResyncUnsupported {
        /// The algorithm's name.
        algorithm: &'static str,
    },
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::Relational(e) => write!(f, "{e}"),
            CoreError::DuplicateBaseRelation { relation } => {
                write!(
                    f,
                    "base relation {relation:?} occurs more than once in the view"
                )
            }
            CoreError::ViewNotKeyed { view } => write!(
                f,
                "view {view:?} does not contain a key of every base relation (required by ECA-Key)"
            ),
            CoreError::UnknownRelation { relation } => {
                write!(f, "relation {relation:?} is not part of the view")
            }
            CoreError::UnknownQuery { id } => write!(f, "no pending query with id {id}"),
            CoreError::InvalidRecomputePeriod { period } => {
                write!(f, "recompute period must be >= 1, got {period}")
            }
            CoreError::ZeroBatchSize => write!(f, "batch size must be >= 1"),
            CoreError::ResyncUnsupported { algorithm } => {
                write!(
                    f,
                    "algorithm {algorithm} does not support full-state resync"
                )
            }
        }
    }
}

impl std::error::Error for CoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CoreError::Relational(e) => Some(e),
            _ => None,
        }
    }
}

impl From<RelationalError> for CoreError {
    fn from(e: RelationalError) -> Self {
        CoreError::Relational(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wraps_relational_errors() {
        let e: CoreError = RelationalError::MissingKey {
            relation: "r".into(),
        }
        .into();
        assert!(matches!(e, CoreError::Relational(_)));
        assert!(std::error::Error::source(&e).is_some());
    }

    #[test]
    fn display() {
        let e = CoreError::UnknownQuery { id: 7 };
        assert!(e.to_string().contains('7'));
    }
}

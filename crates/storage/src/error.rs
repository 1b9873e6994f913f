//! Storage-layer errors.

use std::fmt;

use eca_relational::RelationalError;

/// Errors raised by the physical storage layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StorageError {
    /// A relational-layer error bubbled up.
    Relational(RelationalError),
    /// A query referenced a table that is not loaded in the engine.
    UnknownTable {
        /// The missing table name.
        table: String,
    },
    /// `K` (tuples per block) must be at least 1.
    InvalidBlockSize {
        /// The supplied value.
        tuples_per_block: usize,
    },
    /// An index was requested on an attribute the schema lacks.
    BadIndexAttribute {
        /// The table.
        table: String,
        /// The attribute that failed to resolve.
        attribute: String,
    },
    /// A heap would hold more occurrences than its index entries address.
    HeapFull {
        /// The most occurrences a heap holds.
        limit: usize,
    },
    /// A clustered access on a heap that has no cluster order.
    NotClustered,
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::Relational(e) => write!(f, "{e}"),
            StorageError::UnknownTable { table } => write!(f, "unknown table {table:?}"),
            StorageError::InvalidBlockSize { tuples_per_block } => {
                write!(f, "tuples per block must be >= 1, got {tuples_per_block}")
            }
            StorageError::BadIndexAttribute { table, attribute } => {
                write!(f, "table {table:?} has no attribute {attribute:?} to index")
            }
            StorageError::HeapFull { limit } => {
                write!(f, "a heap holds at most {limit} tuple occurrences")
            }
            StorageError::NotClustered => write!(f, "the heap has no cluster order"),
        }
    }
}

impl std::error::Error for StorageError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StorageError::Relational(e) => Some(e),
            _ => None,
        }
    }
}

impl From<RelationalError> for StorageError {
    fn from(e: RelationalError) -> Self {
        StorageError::Relational(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        let e = StorageError::UnknownTable { table: "r9".into() };
        assert!(e.to_string().contains("r9"));
        let w: StorageError = RelationalError::MissingKey {
            relation: "r".into(),
        }
        .into();
        assert!(std::error::Error::source(&w).is_some());
    }
}

//! Error types for the Monte Carlo database substrate.

use crate::schema::ColumnKind;
use std::fmt;

/// Errors raised while building relations or generating scenarios.
#[derive(Debug, Clone, PartialEq)]
pub enum McdbError {
    /// A referenced column does not exist in the relation.
    UnknownColumn(String),
    /// A column with the same name was defined twice (column names are
    /// case-insensitive, across the deterministic *and* stochastic sets).
    DuplicateColumn {
        /// The offending name, as given on the second definition.
        column: String,
        /// Kind of the column already holding the name.
        existing: ColumnKind,
        /// Kind the duplicate definition tried to add.
        added: ColumnKind,
    },
    /// Column lengths within a relation disagree.
    LengthMismatch {
        /// Column whose length disagrees with the relation cardinality.
        column: String,
        /// Length of the offending column.
        expected: usize,
        /// Relation cardinality established by earlier columns.
        actual: usize,
    },
    /// The operation requires a stochastic column but a deterministic one was given.
    NotStochastic(String),
    /// The operation requires a deterministic column but a stochastic one was given.
    NotDeterministic(String),
    /// A VG function was configured with invalid parameters.
    InvalidVgParameter {
        /// Name of the VG function.
        vg: &'static str,
        /// Human-readable description of the problem.
        message: String,
    },
    /// A tuple index is out of bounds.
    TupleOutOfBounds {
        /// Offending index.
        index: usize,
        /// Relation cardinality.
        len: usize,
    },
    /// A value could not be interpreted as a number.
    NotNumeric(String),
    /// A column chunk file failed verification (bad magic, wrong header,
    /// truncation, checksum mismatch). The file has been deleted; the caller
    /// should rebuild the relation from its source.
    ChunkCorrupt {
        /// Path of the rejected (and deleted) chunk file.
        path: String,
        /// What failed verification.
        detail: String,
    },
    /// An I/O failure while reading or writing a column chunk file.
    ChunkIo {
        /// Path involved in the failure.
        path: String,
        /// The underlying I/O error.
        message: String,
    },
    /// A streamed row's arity disagrees with the declared columns.
    RowArity {
        /// Declared streaming columns.
        expected: usize,
        /// Values in the offending row.
        actual: usize,
    },
    /// Storage options were configured inconsistently (e.g. changed after
    /// columns were already written).
    InvalidStorage(String),
}

impl fmt::Display for McdbError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            McdbError::UnknownColumn(c) => write!(f, "unknown column `{c}`"),
            McdbError::DuplicateColumn {
                column,
                existing,
                added,
            } => {
                let kind = |k: &ColumnKind| match k {
                    ColumnKind::Deterministic => "deterministic",
                    ColumnKind::Stochastic => "stochastic",
                };
                write!(
                    f,
                    "duplicate column `{column}`: already defined as a {} column, \
                     cannot redefine it as a {} column (names are case-insensitive)",
                    kind(existing),
                    kind(added)
                )
            }
            McdbError::LengthMismatch {
                column,
                expected,
                actual,
            } => write!(
                f,
                "column `{column}` has {expected} values but the relation has {actual} tuples"
            ),
            McdbError::NotStochastic(c) => write!(f, "column `{c}` is not stochastic"),
            McdbError::NotDeterministic(c) => write!(f, "column `{c}` is not deterministic"),
            McdbError::InvalidVgParameter { vg, message } => {
                write!(f, "invalid parameter for VG function {vg}: {message}")
            }
            McdbError::TupleOutOfBounds { index, len } => {
                write!(
                    f,
                    "tuple index {index} out of bounds for relation of size {len}"
                )
            }
            McdbError::NotNumeric(c) => write!(f, "column `{c}` contains non-numeric values"),
            McdbError::ChunkCorrupt { path, detail } => write!(
                f,
                "column chunk `{path}` failed verification ({detail}); the file was deleted — \
                 rebuild the relation from its source"
            ),
            McdbError::ChunkIo { path, message } => {
                write!(f, "column chunk I/O failure at `{path}`: {message}")
            }
            McdbError::RowArity { expected, actual } => write!(
                f,
                "streamed row has {actual} values but {expected} deterministic columns are declared"
            ),
            McdbError::InvalidStorage(msg) => write!(f, "invalid storage configuration: {msg}"),
        }
    }
}

impl std::error::Error for McdbError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_mention_offending_column() {
        let e = McdbError::UnknownColumn("gain".into());
        assert!(e.to_string().contains("gain"));
        let e = McdbError::LengthMismatch {
            column: "price".into(),
            expected: 3,
            actual: 5,
        };
        assert!(e.to_string().contains("price"));
        assert!(e.to_string().contains('3'));
        assert!(e.to_string().contains('5'));
    }

    #[test]
    fn errors_are_comparable() {
        assert_eq!(
            McdbError::NotStochastic("a".into()),
            McdbError::NotStochastic("a".into())
        );
        assert_ne!(
            McdbError::NotStochastic("a".into()),
            McdbError::NotDeterministic("a".into())
        );
    }
}

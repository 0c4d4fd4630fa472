//! Error type shared by the sparse substrate.

use std::fmt;

/// Errors produced while constructing, converting or reading matrices.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SparseError {
    /// An entry referenced a row or column outside the matrix dimensions.
    IndexOutOfBounds {
        /// Offending row index.
        row: usize,
        /// Offending column index.
        col: usize,
        /// Number of rows of the matrix.
        n_rows: usize,
        /// Number of columns of the matrix.
        n_cols: usize,
    },
    /// Offset array (`row_ptr` / `col_ptr`) is malformed: wrong length,
    /// non-monotone, or inconsistent with the index array.
    MalformedOffsets(String),
    /// Indices within a row (CSR) or column (CSC) are not strictly ascending.
    UnsortedIndices {
        /// The row (CSR) or column (CSC) where the violation was found.
        major: usize,
    },
    /// The same (row, col) coordinate appeared more than once where
    /// duplicates are not permitted.
    DuplicateEntry {
        /// Row of the duplicate.
        row: usize,
        /// Column of the duplicate.
        col: usize,
    },
    /// The operation requires a square matrix.
    NotSquare {
        /// Number of rows.
        n_rows: usize,
        /// Number of columns.
        n_cols: usize,
    },
    /// A structurally zero diagonal entry where one is required
    /// (LU without pivoting needs a full structural diagonal).
    ZeroDiagonal {
        /// The row whose diagonal is missing.
        row: usize,
    },
    /// Numerically zero (or non-finite) pivot encountered.
    ZeroPivot {
        /// The column of the offending pivot.
        col: usize,
    },
    /// A stored value is NaN or infinite where finite data is required.
    NonFiniteValue {
        /// Row of the offending entry.
        row: usize,
        /// Column of the offending entry.
        col: usize,
    },
    /// A numeric update targeted a position the symbolic pattern does not
    /// contain — the fill closure was violated (corrupt pattern).
    MissingFill {
        /// Row of the missing position.
        row: usize,
        /// Column of the missing position.
        col: usize,
    },
    /// A column was eliminated out of schedule order: against dependency
    /// column `dep` before that column was finished, or (`dep == col`)
    /// a second time, after its values had become its factors.
    OutOfOrder {
        /// The column being eliminated.
        col: usize,
        /// The unfinished dependency, or `col` itself.
        dep: usize,
    },
    /// Matrix Market parsing failure.
    Parse(String),
    /// Underlying I/O failure (stringified; `std::io::Error` is not `Clone`).
    Io(String),
    /// Permutation vector is not a bijection on `0..n`.
    InvalidPermutation(String),
}

impl fmt::Display for SparseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SparseError::IndexOutOfBounds {
                row,
                col,
                n_rows,
                n_cols,
            } => write!(
                f,
                "entry ({row}, {col}) out of bounds for {n_rows}x{n_cols} matrix"
            ),
            SparseError::MalformedOffsets(msg) => write!(f, "malformed offset array: {msg}"),
            SparseError::UnsortedIndices { major } => {
                write!(
                    f,
                    "indices not strictly ascending within major index {major}"
                )
            }
            SparseError::DuplicateEntry { row, col } => {
                write!(f, "duplicate entry at ({row}, {col})")
            }
            SparseError::NotSquare { n_rows, n_cols } => {
                write!(
                    f,
                    "operation requires a square matrix, got {n_rows}x{n_cols}"
                )
            }
            SparseError::ZeroDiagonal { row } => {
                write!(f, "structurally zero diagonal at row {row}")
            }
            SparseError::ZeroPivot { col } => write!(f, "zero or non-finite pivot in column {col}"),
            SparseError::NonFiniteValue { row, col } => {
                write!(f, "non-finite value at ({row}, {col})")
            }
            SparseError::MissingFill { row, col } => {
                write!(
                    f,
                    "missing fill position ({row}, {col}): symbolic closure violated"
                )
            }
            SparseError::OutOfOrder { col, dep } if col == dep => {
                write!(f, "column {col} eliminated a second time")
            }
            SparseError::OutOfOrder { col, dep } => {
                write!(f, "column {col} eliminated before its dependency {dep}")
            }
            SparseError::Parse(msg) => write!(f, "matrix market parse error: {msg}"),
            SparseError::Io(msg) => write!(f, "i/o error: {msg}"),
            SparseError::InvalidPermutation(msg) => write!(f, "invalid permutation: {msg}"),
        }
    }
}

impl std::error::Error for SparseError {}

impl From<std::io::Error> for SparseError {
    fn from(e: std::io::Error) -> Self {
        SparseError::Io(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let e = SparseError::IndexOutOfBounds {
            row: 5,
            col: 7,
            n_rows: 4,
            n_cols: 4,
        };
        assert!(e.to_string().contains("(5, 7)"));
        assert!(e.to_string().contains("4x4"));

        let e = SparseError::ZeroPivot { col: 3 };
        assert!(e.to_string().contains("column 3"));
    }

    #[test]
    fn io_error_converts() {
        let io = std::io::Error::new(std::io::ErrorKind::NotFound, "missing.mtx");
        let e: SparseError = io.into();
        assert!(matches!(e, SparseError::Io(_)));
        assert!(e.to_string().contains("missing.mtx"));
    }
}

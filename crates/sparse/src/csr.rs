//! Compressed sparse row format — the layout of the symbolic phase.
//!
//! The paper's out-of-core symbolic factorization (Section 3.2) stores the
//! filled matrix in CSR: stage 1 counts fill-ins per row, a prefix sum over
//! the counts produces `row_ptr`, and stage 2 writes the column positions.

use crate::{error::SparseError, Idx, Val};

/// A sparse matrix in compressed sparse row (CSR) format with strictly
/// ascending column indices in every row.
#[derive(Debug, Clone, PartialEq)]
pub struct Csr {
    n_rows: usize,
    n_cols: usize,
    /// `row_ptr[i]..row_ptr[i+1]` is the index range of row `i`.
    pub row_ptr: Vec<usize>,
    /// Column index of each stored entry, ascending within each row.
    pub col_idx: Vec<Idx>,
    /// Value of each stored entry.
    pub vals: Vec<Val>,
}

/// The 0×0 matrix.
impl Default for Csr {
    fn default() -> Self {
        Csr {
            n_rows: 0,
            n_cols: 0,
            row_ptr: vec![0],
            col_idx: Vec::new(),
            vals: Vec::new(),
        }
    }
}

impl Csr {
    /// Builds a CSR matrix from raw arrays, validating the invariants:
    /// offsets monotone and spanning `col_idx`, indices in bounds and
    /// strictly ascending within each row.
    pub fn new(
        n_rows: usize,
        n_cols: usize,
        row_ptr: Vec<usize>,
        col_idx: Vec<Idx>,
        vals: Vec<Val>,
    ) -> Result<Self, SparseError> {
        Csr::check_structure(n_rows, n_cols, &row_ptr, &col_idx, vals.len())?;
        Ok(Csr {
            n_rows,
            n_cols,
            row_ptr,
            col_idx,
            vals,
        })
    }

    /// The structural invariants of [`Csr::new`], as a standalone check.
    fn check_structure(
        n_rows: usize,
        n_cols: usize,
        row_ptr: &[usize],
        col_idx: &[Idx],
        n_vals: usize,
    ) -> Result<(), SparseError> {
        if row_ptr.len() != n_rows + 1 {
            return Err(SparseError::MalformedOffsets(format!(
                "row_ptr has length {}, expected {}",
                row_ptr.len(),
                n_rows + 1
            )));
        }
        if row_ptr[0] != 0 || *row_ptr.last().expect("len >= 1") != col_idx.len() {
            return Err(SparseError::MalformedOffsets(format!(
                "row_ptr must start at 0 and end at nnz={}, got {}..{}",
                col_idx.len(),
                row_ptr[0],
                row_ptr.last().expect("len >= 1")
            )));
        }
        if col_idx.len() != n_vals {
            return Err(SparseError::MalformedOffsets(format!(
                "col_idx ({}) and vals ({}) lengths differ",
                col_idx.len(),
                n_vals
            )));
        }
        for i in 0..n_rows {
            if row_ptr[i] > row_ptr[i + 1] {
                return Err(SparseError::MalformedOffsets(format!(
                    "row_ptr decreases at row {i}"
                )));
            }
            let row = &col_idx[row_ptr[i]..row_ptr[i + 1]];
            for w in row.windows(2) {
                if w[0] == w[1] {
                    return Err(SparseError::DuplicateEntry {
                        row: i,
                        col: w[1] as usize,
                    });
                }
                if w[0] > w[1] {
                    return Err(SparseError::UnsortedIndices { major: i });
                }
            }
            if let Some(&last) = row.last() {
                if last as usize >= n_cols {
                    return Err(SparseError::IndexOutOfBounds {
                        row: i,
                        col: last as usize,
                        n_rows,
                        n_cols,
                    });
                }
            }
        }
        Ok(())
    }

    /// Full validation for untrusted data (e.g. freshly parsed files):
    /// the structural invariants of [`Csr::new`] plus finiteness of every
    /// stored value. Factors may legitimately hold transient non-finite
    /// values mid-elimination, so finiteness is *not* part of
    /// construction — call this at trust boundaries.
    pub fn validate(&self) -> Result<(), SparseError> {
        Csr::check_structure(
            self.n_rows,
            self.n_cols,
            &self.row_ptr,
            &self.col_idx,
            self.vals.len(),
        )?;
        for i in 0..self.n_rows {
            for (j, v) in self.row_iter(i) {
                if !v.is_finite() {
                    return Err(SparseError::NonFiniteValue { row: i, col: j });
                }
            }
        }
        Ok(())
    }

    /// Builds a CSR matrix without validation. The caller must uphold the
    /// invariants checked by [`Csr::new`]; debug builds re-verify them.
    pub fn from_parts_unchecked(
        n_rows: usize,
        n_cols: usize,
        row_ptr: Vec<usize>,
        col_idx: Vec<Idx>,
        vals: Vec<Val>,
    ) -> Self {
        debug_assert!(
            Csr::new(
                n_rows,
                n_cols,
                row_ptr.clone(),
                col_idx.clone(),
                vals.clone()
            )
            .is_ok(),
            "from_parts_unchecked given invalid CSR"
        );
        Csr {
            n_rows,
            n_cols,
            row_ptr,
            col_idx,
            vals,
        }
    }

    /// An `n x n` identity matrix.
    pub fn identity(n: usize) -> Self {
        Csr {
            n_rows: n,
            n_cols: n,
            row_ptr: (0..=n).collect(),
            col_idx: (0..n as Idx).collect(),
            vals: vec![1.0; n],
        }
    }

    /// Number of rows.
    #[inline]
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Number of columns.
    #[inline]
    pub fn n_cols(&self) -> usize {
        self.n_cols
    }

    /// Number of stored entries.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.col_idx.len()
    }

    /// Average entries per row, the `nnz/n` density measure the paper's
    /// Figure 4 analysis correlates speedups with.
    pub fn density(&self) -> f64 {
        if self.n_rows == 0 {
            0.0
        } else {
            self.nnz() as f64 / self.n_rows as f64
        }
    }

    /// Column indices of row `i`.
    #[inline]
    pub fn row_cols(&self, i: usize) -> &[Idx] {
        &self.col_idx[self.row_ptr[i]..self.row_ptr[i + 1]]
    }

    /// Values of row `i`.
    #[inline]
    pub fn row_vals(&self, i: usize) -> &[Val] {
        &self.vals[self.row_ptr[i]..self.row_ptr[i + 1]]
    }

    /// Entries `(col, val)` of row `i`.
    pub fn row_iter(&self, i: usize) -> impl Iterator<Item = (usize, Val)> + '_ {
        self.row_cols(i)
            .iter()
            .zip(self.row_vals(i))
            .map(|(&c, &v)| (c as usize, v))
    }

    /// Looks up `A[i, j]` by binary search within row `i`.
    pub fn get(&self, i: usize, j: usize) -> Option<Val> {
        let row = self.row_cols(i);
        row.binary_search(&(j as Idx))
            .ok()
            .map(|k| self.vals[self.row_ptr[i] + k])
    }

    /// True if every diagonal entry `(i, i)` is structurally present
    /// (required for LU factorization without pivoting).
    pub fn has_full_diagonal(&self) -> bool {
        (0..self.n_rows.min(self.n_cols)).all(|i| self.get(i, i).is_some())
    }

    /// Sparse matrix–vector product `y = A x`.
    pub fn spmv(&self, x: &[Val]) -> Vec<Val> {
        assert_eq!(x.len(), self.n_cols, "dimension mismatch in spmv");
        (0..self.n_rows)
            .map(|i| self.row_iter(i).map(|(j, v)| v * x[j]).sum())
            .collect()
    }

    /// Frobenius norm of the stored values.
    pub fn frobenius_norm(&self) -> f64 {
        self.vals.iter().map(|v| v * v).sum::<f64>().sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Csr {
        // [1 0 2]
        // [0 3 0]
        // [4 0 5]
        Csr::new(
            3,
            3,
            vec![0, 2, 3, 5],
            vec![0, 2, 1, 0, 2],
            vec![1.0, 2.0, 3.0, 4.0, 5.0],
        )
        .expect("valid")
    }

    #[test]
    fn construction_and_access() {
        let a = sample();
        assert_eq!(a.nnz(), 5);
        assert_eq!(a.get(0, 2), Some(2.0));
        assert_eq!(a.get(0, 1), None);
        assert_eq!(a.row_cols(2), &[0, 2]);
        assert!((a.density() - 5.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn rejects_bad_offsets() {
        assert!(matches!(
            Csr::new(2, 2, vec![0, 1], vec![0], vec![1.0]),
            Err(SparseError::MalformedOffsets(_))
        ));
        assert!(matches!(
            Csr::new(2, 2, vec![0, 2, 1], vec![0, 1], vec![1.0, 1.0]),
            Err(SparseError::MalformedOffsets(_))
        ));
    }

    #[test]
    fn rejects_unsorted_rows() {
        assert!(matches!(
            Csr::new(1, 3, vec![0, 2], vec![2, 0], vec![1.0, 1.0]),
            Err(SparseError::UnsortedIndices { major: 0 })
        ));
    }

    #[test]
    fn rejects_duplicate_column_in_row() {
        // A repeated column index within a row is a distinct defect from
        // disorder: it would make binary-search access and value updates
        // ambiguous, so it gets its own typed error.
        assert!(matches!(
            Csr::new(1, 3, vec![0, 2], vec![1, 1], vec![1.0, 1.0]),
            Err(SparseError::DuplicateEntry { row: 0, col: 1 })
        ));
        assert!(matches!(
            Csr::new(3, 3, vec![0, 1, 4, 4], vec![0, 0, 2, 2], vec![1.0; 4]),
            Err(SparseError::DuplicateEntry { row: 1, col: 2 })
        ));
    }

    #[test]
    fn rejects_out_of_bounds_column() {
        assert!(matches!(
            Csr::new(1, 2, vec![0, 1], vec![5], vec![1.0]),
            Err(SparseError::IndexOutOfBounds { .. })
        ));
    }

    #[test]
    fn validate_accepts_finite_and_rejects_non_finite() {
        let mut a = sample();
        a.validate().expect("sample is clean");
        a.vals[2] = f64::NAN;
        assert_eq!(
            a.validate(),
            Err(SparseError::NonFiniteValue { row: 1, col: 1 })
        );
        a.vals[2] = f64::INFINITY;
        assert!(a.validate().is_err());
    }

    #[test]
    fn validate_recatches_structural_corruption() {
        let mut a = sample();
        a.col_idx[0] = 2; // row 0 becomes [2, 2]: a duplicate entry
        assert!(matches!(
            a.validate(),
            Err(SparseError::DuplicateEntry { row: 0, col: 2 })
        ));
    }

    #[test]
    fn identity_has_full_diagonal() {
        let i = Csr::identity(4);
        assert!(i.has_full_diagonal());
        assert_eq!(i.nnz(), 4);
        assert_eq!(i.get(2, 2), Some(1.0));
    }

    #[test]
    fn spmv_matches_dense() {
        let a = sample();
        let y = a.spmv(&[1.0, 2.0, 3.0]);
        assert_eq!(y, vec![1.0 + 6.0, 6.0, 4.0 + 15.0]);
    }

    #[test]
    fn missing_diagonal_detected() {
        let a = Csr::new(2, 2, vec![0, 1, 2], vec![1, 0], vec![1.0, 1.0]).expect("valid");
        assert!(!a.has_full_diagonal());
    }

    #[test]
    fn diagonal_detection_full() {
        // sample has diag (0,0)=1, (1,1)=3, (2,2)=5 -> full.
        let a = sample();
        assert_eq!(a.get(1, 1), Some(3.0));
        assert_eq!(a.get(2, 2), Some(5.0));
        assert!(a.has_full_diagonal());
    }
}

//! Compressed sparse column format — the layout of the numeric phase.
//!
//! Algorithm 6 of the paper relies on the CSC row indices being **sorted**
//! within each column so that `As(i, j)` can be located by binary search.
//! [`Csc`] enforces that invariant at construction, and
//! [`Csc::find_in_col`] is exactly the paper's search routine.

use crate::{error::SparseError, Idx, Val};

/// A sparse matrix in compressed sparse column (CSC) format with strictly
/// ascending row indices in every column.
#[derive(Debug, Clone, PartialEq)]
pub struct Csc {
    n_rows: usize,
    n_cols: usize,
    /// `col_ptr[j]..col_ptr[j+1]` is the index range of column `j`.
    pub col_ptr: Vec<usize>,
    /// Row index of each stored entry, ascending within each column.
    pub row_idx: Vec<Idx>,
    /// Value of each stored entry.
    pub vals: Vec<Val>,
}

/// The 0×0 matrix.
impl Default for Csc {
    fn default() -> Self {
        Csc {
            n_rows: 0,
            n_cols: 0,
            col_ptr: vec![0],
            row_idx: Vec::new(),
            vals: Vec::new(),
        }
    }
}

impl Csc {
    /// Builds a CSC matrix from raw arrays, validating offsets, bounds and
    /// the sorted-rows invariant.
    pub fn new(
        n_rows: usize,
        n_cols: usize,
        col_ptr: Vec<usize>,
        row_idx: Vec<Idx>,
        vals: Vec<Val>,
    ) -> Result<Self, SparseError> {
        Csc::check_structure(n_rows, n_cols, &col_ptr, &row_idx, vals.len())?;
        Ok(Csc {
            n_rows,
            n_cols,
            col_ptr,
            row_idx,
            vals,
        })
    }

    /// The structural invariants of [`Csc::new`], as a standalone check.
    fn check_structure(
        n_rows: usize,
        n_cols: usize,
        col_ptr: &[usize],
        row_idx: &[Idx],
        n_vals: usize,
    ) -> Result<(), SparseError> {
        if col_ptr.len() != n_cols + 1 {
            return Err(SparseError::MalformedOffsets(format!(
                "col_ptr has length {}, expected {}",
                col_ptr.len(),
                n_cols + 1
            )));
        }
        if col_ptr[0] != 0 || *col_ptr.last().expect("len >= 1") != row_idx.len() {
            return Err(SparseError::MalformedOffsets(
                "col_ptr must start at 0 and end at nnz".into(),
            ));
        }
        if row_idx.len() != n_vals {
            return Err(SparseError::MalformedOffsets(
                "row_idx and vals lengths differ".into(),
            ));
        }
        for j in 0..n_cols {
            if col_ptr[j] > col_ptr[j + 1] {
                return Err(SparseError::MalformedOffsets(format!(
                    "col_ptr decreases at column {j}"
                )));
            }
            let col = &row_idx[col_ptr[j]..col_ptr[j + 1]];
            for w in col.windows(2) {
                if w[0] == w[1] {
                    return Err(SparseError::DuplicateEntry {
                        row: w[1] as usize,
                        col: j,
                    });
                }
                if w[0] > w[1] {
                    return Err(SparseError::UnsortedIndices { major: j });
                }
            }
            if let Some(&last) = col.last() {
                if last as usize >= n_rows {
                    return Err(SparseError::IndexOutOfBounds {
                        row: last as usize,
                        col: j,
                        n_rows,
                        n_cols,
                    });
                }
            }
        }
        Ok(())
    }

    /// Full validation for untrusted data: the structural invariants of
    /// [`Csc::new`] plus finiteness of every stored value. Finiteness is
    /// deliberately not part of construction — factors can transiently
    /// hold non-finite values — so call this at trust boundaries.
    pub fn validate(&self) -> Result<(), SparseError> {
        Csc::check_structure(
            self.n_rows,
            self.n_cols,
            &self.col_ptr,
            &self.row_idx,
            self.vals.len(),
        )?;
        for j in 0..self.n_cols {
            for (i, v) in self.col_iter(j) {
                if !v.is_finite() {
                    return Err(SparseError::NonFiniteValue { row: i, col: j });
                }
            }
        }
        Ok(())
    }

    /// Builds a CSC matrix without validation; debug builds re-verify.
    pub fn from_parts_unchecked(
        n_rows: usize,
        n_cols: usize,
        col_ptr: Vec<usize>,
        row_idx: Vec<Idx>,
        vals: Vec<Val>,
    ) -> Self {
        debug_assert!(
            Csc::new(
                n_rows,
                n_cols,
                col_ptr.clone(),
                row_idx.clone(),
                vals.clone()
            )
            .is_ok(),
            "from_parts_unchecked given invalid CSC"
        );
        Csc {
            n_rows,
            n_cols,
            col_ptr,
            row_idx,
            vals,
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
        self.row_idx.len()
    }

    /// Row indices of column `j`.
    #[inline]
    pub fn col_rows(&self, j: usize) -> &[Idx] {
        &self.row_idx[self.col_ptr[j]..self.col_ptr[j + 1]]
    }

    /// Values of column `j`.
    #[inline]
    pub fn col_vals(&self, j: usize) -> &[Val] {
        &self.vals[self.col_ptr[j]..self.col_ptr[j + 1]]
    }

    /// Entries `(row, val)` of column `j`.
    pub fn col_iter(&self, j: usize) -> impl Iterator<Item = (usize, Val)> + '_ {
        self.col_rows(j)
            .iter()
            .zip(self.col_vals(j))
            .map(|(&r, &v)| (r as usize, v))
    }

    /// Binary search for row `i` within column `j` (Algorithm 6 of the
    /// paper). Returns the *storage index* into `row_idx`/`vals`, so callers
    /// can both read and write the located entry.
    ///
    /// Also returns the number of probe iterations, which the GPU cost model
    /// charges as the sparse-access penalty.
    #[inline]
    pub fn find_in_col(&self, i: usize, j: usize) -> (Option<usize>, u32) {
        let target = i as Idx;
        let mut fs = self.col_ptr[j] as isize;
        let mut fe = self.col_ptr[j + 1] as isize - 1;
        let mut probes = 0;
        while fe >= fs {
            probes += 1;
            let mid = ((fs + fe) / 2) as usize;
            let r = self.row_idx[mid];
            if r == target {
                return (Some(mid), probes);
            } else if r > target {
                fe = mid as isize - 1;
            } else {
                fs = mid as isize + 1;
            }
        }
        (None, probes)
    }

    /// Looks up `A[i, j]`.
    pub fn get(&self, i: usize, j: usize) -> Option<Val> {
        self.find_in_col(i, j).0.map(|k| self.vals[k])
    }

    /// First storage index in column `j` whose row is `> i` — the paper uses
    /// this to iterate the strictly-lower part of a column (the sub-diagonal
    /// of `L`). Returns `col_ptr[j+1]` when none exists.
    pub fn lower_bound_after(&self, i: usize, j: usize) -> usize {
        let col = self.col_rows(j);
        let pos = col.partition_point(|&r| r as usize <= i);
        self.col_ptr[j] + pos
    }

    /// Sparse matrix–vector product `y = A x`.
    pub fn spmv(&self, x: &[Val]) -> Vec<Val> {
        assert_eq!(x.len(), self.n_cols, "dimension mismatch in spmv");
        let mut y = vec![0.0; self.n_rows];
        for (j, &xj) in x.iter().enumerate() {
            for (i, v) in self.col_iter(j) {
                y[i] += v * xj;
            }
        }
        y
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Csc {
        // Column-major of
        // [1 0 2]
        // [0 3 0]
        // [4 0 5]
        Csc::new(
            3,
            3,
            vec![0, 2, 3, 5],
            vec![0, 2, 1, 0, 2],
            vec![1.0, 4.0, 3.0, 2.0, 5.0],
        )
        .expect("valid")
    }

    #[test]
    fn construction_and_access() {
        let a = sample();
        assert_eq!(a.get(2, 0), Some(4.0));
        assert_eq!(a.get(1, 0), None);
        assert_eq!(a.col_rows(2), &[0, 2]);
    }

    #[test]
    fn validate_checks_structure_and_finiteness() {
        let mut a = sample();
        a.validate().expect("sample is clean");
        a.vals[1] = f64::NEG_INFINITY;
        assert_eq!(
            a.validate(),
            Err(SparseError::NonFiniteValue { row: 2, col: 0 })
        );
        let mut b = sample();
        b.row_idx[0] = 2; // column 0 becomes [2, 2]: a duplicate entry
        assert!(matches!(
            b.validate(),
            Err(SparseError::DuplicateEntry { row: 2, col: 0 })
        ));
    }

    #[test]
    fn binary_search_counts_probes() {
        let a = sample();
        let (found, probes) = a.find_in_col(2, 2);
        assert!(found.is_some());
        assert!((1..=2).contains(&probes));
        let (missing, _) = a.find_in_col(1, 2);
        assert!(missing.is_none());
    }

    #[test]
    fn binary_search_on_empty_column() {
        let a = Csc::new(2, 2, vec![0, 0, 1], vec![1], vec![9.0]).expect("valid");
        let (found, probes) = a.find_in_col(0, 0);
        assert!(found.is_none());
        assert_eq!(probes, 0);
    }

    #[test]
    fn lower_bound_after_skips_diagonal() {
        let a = sample();
        // Column 0 has rows [0, 2]; entries strictly below row 0 start at row 2.
        let k = a.lower_bound_after(0, 0);
        assert_eq!(a.row_idx[k], 2);
        // Nothing below row 2.
        assert_eq!(a.lower_bound_after(2, 0), a.col_ptr[1]);
    }

    #[test]
    fn rejects_unsorted_columns() {
        assert!(matches!(
            Csc::new(3, 1, vec![0, 2], vec![2, 0], vec![1.0, 1.0]),
            Err(SparseError::UnsortedIndices { major: 0 })
        ));
    }

    #[test]
    fn rejects_duplicate_row_in_column() {
        assert!(matches!(
            Csc::new(3, 1, vec![0, 2], vec![1, 1], vec![1.0, 1.0]),
            Err(SparseError::DuplicateEntry { row: 1, col: 0 })
        ));
    }

    #[test]
    fn spmv_matches_row_major() {
        let a = sample();
        assert_eq!(a.spmv(&[1.0, 2.0, 3.0]), vec![7.0, 6.0, 19.0]);
    }
}

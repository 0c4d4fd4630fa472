//! Dense matrix — the test oracle for symbolic and numeric factorization,
//! and the per-column dense buffers used by the GLU-style numeric kernel.

use crate::{error::SparseError, Val};

/// A row-major dense matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct Dense {
    n_rows: usize,
    n_cols: usize,
    data: Vec<Val>,
}

impl Dense {
    /// An `n_rows x n_cols` zero matrix.
    pub fn zeros(n_rows: usize, n_cols: usize) -> Self {
        Dense {
            n_rows,
            n_cols,
            data: vec![0.0; n_rows * n_cols],
        }
    }

    /// An `n x n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Dense::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Builds from a row-major data vector.
    pub fn from_row_major(n_rows: usize, n_cols: usize, data: Vec<Val>) -> Self {
        assert_eq!(data.len(), n_rows * n_cols, "data length mismatch");
        Dense {
            n_rows,
            n_cols,
            data,
        }
    }

    /// Number of rows.
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Number of columns.
    pub fn n_cols(&self) -> usize {
        self.n_cols
    }

    /// Row `i` as a slice.
    pub fn row(&self, i: usize) -> &[Val] {
        &self.data[i * self.n_cols..(i + 1) * self.n_cols]
    }

    /// Matrix product `self * other`.
    pub fn matmul(&self, other: &Dense) -> Dense {
        assert_eq!(self.n_cols, other.n_rows, "dimension mismatch in matmul");
        let mut out = Dense::zeros(self.n_rows, other.n_cols);
        for i in 0..self.n_rows {
            for k in 0..self.n_cols {
                let aik = self[(i, k)];
                if aik == 0.0 {
                    continue;
                }
                for j in 0..other.n_cols {
                    out[(i, j)] += aik * other[(k, j)];
                }
            }
        }
        out
    }

    /// Matrix–vector product.
    pub fn matvec(&self, x: &[Val]) -> Vec<Val> {
        assert_eq!(x.len(), self.n_cols, "dimension mismatch in matvec");
        (0..self.n_rows)
            .map(|i| self.row(i).iter().zip(x).map(|(a, b)| a * b).sum())
            .collect()
    }

    /// In-place LU factorization without pivoting (Doolittle): on return the
    /// strictly lower triangle holds `L` (unit diagonal implied) and the
    /// upper triangle holds `U`. This is the numeric oracle for the sparse
    /// kernels — the paper's matrices are preconditioned so that no pivoting
    /// is needed.
    pub fn lu_no_pivot(&self) -> Result<Dense, SparseError> {
        if self.n_rows != self.n_cols {
            return Err(SparseError::NotSquare {
                n_rows: self.n_rows,
                n_cols: self.n_cols,
            });
        }
        let n = self.n_rows;
        let mut a = self.clone();
        for j in 0..n {
            let pivot = a[(j, j)];
            if pivot == 0.0 || !pivot.is_finite() {
                return Err(SparseError::ZeroPivot { col: j });
            }
            for i in (j + 1)..n {
                let lij = a[(i, j)] / pivot;
                a[(i, j)] = lij;
                if lij == 0.0 {
                    continue;
                }
                for k in (j + 1)..n {
                    let u_jk = a[(j, k)];
                    if u_jk != 0.0 {
                        a[(i, k)] -= lij * u_jk;
                    }
                }
            }
        }
        Ok(a)
    }

    /// LU factorization with partial (row) pivoting, `P·A = L·U`: at each
    /// column the largest-magnitude entry on or below the diagonal becomes
    /// the pivot. The independent correctness oracle for small systems —
    /// it shares no ordering, pattern or arithmetic with the sparse
    /// engines, so it cannot be wrong together with them.
    pub fn lu_partial_pivot(&self) -> Result<DenseLu, SparseError> {
        if self.n_rows != self.n_cols {
            return Err(SparseError::NotSquare {
                n_rows: self.n_rows,
                n_cols: self.n_cols,
            });
        }
        let n = self.n_rows;
        let mut a = self.clone();
        let mut perm: Vec<usize> = (0..n).collect();
        for j in 0..n {
            let p = (j..n)
                .max_by(|&x, &y| a[(x, j)].abs().total_cmp(&a[(y, j)].abs()))
                .expect("j < n");
            let pivot = a[(p, j)];
            if pivot == 0.0 || !pivot.is_finite() {
                return Err(SparseError::ZeroPivot { col: j });
            }
            if p != j {
                for k in 0..n {
                    a.data.swap(j * n + k, p * n + k);
                }
                perm.swap(j, p);
            }
            for i in (j + 1)..n {
                let lij = a[(i, j)] / pivot;
                a[(i, j)] = lij;
                for k in (j + 1)..n {
                    a[(i, k)] -= lij * a[(j, k)];
                }
            }
        }
        Ok(DenseLu { lu: a, perm })
    }

    /// Splits an in-place LU result into explicit `(L, U)` factors with
    /// `L` unit-diagonal.
    pub fn split_lu(&self) -> (Dense, Dense) {
        assert_eq!(self.n_rows, self.n_cols, "split_lu requires square");
        let n = self.n_rows;
        let mut l = Dense::identity(n);
        let mut u = Dense::zeros(n, n);
        for i in 0..n {
            for j in 0..n {
                if i > j {
                    l[(i, j)] = self[(i, j)];
                } else {
                    u[(i, j)] = self[(i, j)];
                }
            }
        }
        (l, u)
    }

    /// Max-abs difference between two matrices.
    pub fn max_abs_diff(&self, other: &Dense) -> f64 {
        assert_eq!((self.n_rows, self.n_cols), (other.n_rows, other.n_cols));
        self.data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max)
    }
}

/// The factors of [`Dense::lu_partial_pivot`]: `P·A = L·U`.
#[derive(Debug, Clone)]
pub struct DenseLu {
    /// `L` strictly below the diagonal (unit diagonal implied), `U` on and
    /// above it.
    pub lu: Dense,
    /// Row `k` of `L·U` is row `perm[k]` of `A`.
    pub perm: Vec<usize>,
}

impl DenseLu {
    /// Solves `A x = b` by forward and backward substitution.
    pub fn solve(&self, b: &[Val]) -> Vec<Val> {
        let n = self.perm.len();
        assert_eq!(b.len(), n, "rhs length mismatch");
        let mut x: Vec<Val> = self.perm.iter().map(|&r| b[r]).collect();
        for i in 0..n {
            let row = self.lu.row(i);
            x[i] -= (0..i).map(|k| row[k] * x[k]).sum::<Val>();
        }
        for i in (0..n).rev() {
            let row = self.lu.row(i);
            x[i] = (x[i] - ((i + 1)..n).map(|k| row[k] * x[k]).sum::<Val>()) / row[i];
        }
        x
    }
}

impl std::ops::Index<(usize, usize)> for Dense {
    type Output = Val;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &Val {
        &self.data[i * self.n_cols + j]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Dense {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut Val {
        &mut self.data[i * self.n_cols + j]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_matmul_is_noop() {
        let a = Dense::from_row_major(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let i = Dense::identity(2);
        assert_eq!(a.matmul(&i), a);
        assert_eq!(i.matmul(&a), a);
    }

    #[test]
    fn lu_reconstructs_matrix() {
        let a = Dense::from_row_major(3, 3, vec![4.0, 1.0, 0.0, 1.0, 5.0, 2.0, 0.0, 2.0, 6.0]);
        let lu = a.lu_no_pivot().expect("factorizable");
        let (l, u) = lu.split_lu();
        let product = l.matmul(&u);
        assert!(product.max_abs_diff(&a) < 1e-12);
    }

    #[test]
    fn lu_detects_zero_pivot() {
        // Leading entry zero and no pivoting -> fail at column 0.
        let a = Dense::from_row_major(2, 2, vec![0.0, 1.0, 1.0, 0.0]);
        assert!(matches!(
            a.lu_no_pivot(),
            Err(SparseError::ZeroPivot { col: 0 })
        ));
    }

    #[test]
    fn lu_requires_square() {
        let a = Dense::zeros(2, 3);
        assert!(matches!(
            a.lu_no_pivot(),
            Err(SparseError::NotSquare { .. })
        ));
    }

    #[test]
    fn partial_pivoting_solves_what_no_pivot_rejects() {
        // A zero leading entry: row exchange recovers it.
        let a = Dense::from_row_major(3, 3, vec![0.0, 2.0, 1.0, 4.0, 1.0, 0.0, 1.0, 1.0, 3.0]);
        assert!(a.lu_no_pivot().is_err());
        let f = a.lu_partial_pivot().expect("nonsingular");
        assert_eq!(f.perm[0], 1, "largest entry of column 0 pivots");
        let x = [1.0, -2.0, 0.5];
        let got = f.solve(&a.matvec(&x));
        for (g, w) in got.iter().zip(x) {
            assert!((g - w).abs() < 1e-14, "{got:?}");
        }
        let singular = Dense::from_row_major(2, 2, vec![1.0, 2.0, 2.0, 4.0]);
        assert!(matches!(
            singular.lu_partial_pivot(),
            Err(SparseError::ZeroPivot { col: 1 })
        ));
    }

    #[test]
    fn matvec_basic() {
        let a = Dense::from_row_major(2, 3, vec![1.0, 0.0, 2.0, 0.0, 3.0, 0.0]);
        assert_eq!(a.matvec(&[1.0, 1.0, 1.0]), vec![3.0, 3.0]);
    }
}

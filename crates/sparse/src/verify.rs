//! Factorization verification: residual checks used by every test and by
//! the experiment harness to certify that all implementations (CPU
//! baseline, out-of-core GPU, unified-memory) compute the same factors.

use crate::{Csc, Csr, Val};

/// Splits a combined factor (unit-diagonal `L` strictly below, `U` on and
/// above the diagonal) into explicit `L` and `U` CSC matrices. The
/// oracle side of the residual checks: [`residual_dense`] multiplies the
/// copies, and `L.spmv(&U.spmv(v))` over them is the product
/// [`residual_probe`] reproduces to the bit without making them.
pub fn split_combined(lu: &Csc) -> (Csc, Csc) {
    let n = lu.n_cols();
    let mut l_ptr = vec![0usize; n + 1];
    let mut u_ptr = vec![0usize; n + 1];
    let mut l_rows = Vec::new();
    let mut l_vals = Vec::new();
    let mut u_rows = Vec::new();
    let mut u_vals = Vec::new();
    for j in 0..n {
        // Unit diagonal of L first (rows ascending: diagonal j, then below).
        l_rows.push(j as crate::Idx);
        l_vals.push(1.0);
        for (i, v) in lu.col_iter(j) {
            if i > j {
                l_rows.push(i as crate::Idx);
                l_vals.push(v);
            } else {
                u_rows.push(i as crate::Idx);
                u_vals.push(v);
            }
        }
        l_ptr[j + 1] = l_rows.len();
        u_ptr[j + 1] = u_rows.len();
    }
    let l = Csc::from_parts_unchecked(lu.n_rows(), n, l_ptr, l_rows, l_vals);
    let u = Csc::from_parts_unchecked(lu.n_rows(), n, u_ptr, u_rows, u_vals);
    (l, u)
}

/// Computes the scaled residual `max_ij |(L·U - A)_ij| / ||A||_F` by probing
/// the product against the original matrix with a handful of random-ish
/// deterministic vectors (a matrix-free check that stays O(nnz) even when
/// the factors carry heavy fill).
///
/// With `k` probe vectors the check certifies `(LU - A) v ≈ 0` for each
/// probe `v`, which bounds the residual with overwhelming probability.
pub fn residual_probe(a: &Csr, lu: &Csc, probes: usize) -> f64 {
    let n = a.n_rows();
    let (mut uv, mut luv) = (vec![0.0; lu.n_rows()], vec![0.0; lu.n_rows()]);
    let norm_a = a.frobenius_norm().max(1e-300);
    let mut worst: f64 = 0.0;
    // Deterministic quasi-random probe vectors (xorshift).
    let mut state = 0x9e3779b97f4a7c15u64;
    for _ in 0..probes.max(1) {
        let v: Vec<Val> = (0..n)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                // Map to [-1, 1].
                (state >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0
            })
            .collect();
        let av = a.spmv(&v);
        apply_combined(lu, &v, &mut uv, &mut luv);
        let vnorm = v.iter().map(|x| x * x).sum::<f64>().sqrt().max(1e-300);
        let err = av
            .iter()
            .zip(&luv)
            .map(|(x, y)| (x - y).abs())
            .fold(0.0f64, f64::max);
        worst = worst.max(err / (norm_a * vnorm / (n as f64).sqrt()));
    }
    worst
}

/// `luv = L·(U·v)` read in place from a combined factor (unit-diagonal
/// `L` strictly below the diagonal, `U` on and above it), `uv = U·v` on
/// the way. Each sum is accumulated in the order of a column-major
/// product over split `L` and `U` copies — columns ascending, each
/// column's stored rows in order, `L`'s unit diagonal first — so the
/// result is that product's to the bit.
fn apply_combined(lu: &Csc, v: &[Val], uv: &mut [Val], luv: &mut [Val]) {
    uv.fill(0.0);
    luv.fill(0.0);
    for (j, &vj) in v.iter().enumerate() {
        for (i, x) in lu.col_iter(j).filter(|&(i, _)| i <= j) {
            uv[i] += x * vj;
        }
    }
    for (j, &uj) in uv.iter().enumerate().take(lu.n_cols()) {
        luv[j] += uj;
        for (i, x) in lu.col_iter(j).filter(|&(i, _)| i > j) {
            luv[i] += x * uj;
        }
    }
}

/// Entry-exact residual `max |(L·U - A)_ij|` computed densely — only for
/// oracle-scale matrices in tests.
pub fn residual_dense(a: &Csr, lu: &Csc) -> f64 {
    use crate::convert::{csc_to_dense, csr_to_dense};
    let (l, u) = split_combined(lu);
    let ld = csc_to_dense(&l);
    let ud = csc_to_dense(&u);
    let product = ld.matmul(&ud);
    product.max_abs_diff(&csr_to_dense(a))
}

/// True when the solve `A x = b` is satisfied to `tol` (relative, inf-norm).
pub fn check_solution(a: &Csr, x: &[Val], b: &[Val], tol: f64) -> bool {
    let ax = a.spmv(x);
    let bnorm = b.iter().map(|v| v.abs()).fold(0.0f64, f64::max).max(1e-300);
    ax.iter()
        .zip(b)
        .map(|(p, q)| (p - q).abs())
        .fold(0.0f64, f64::max)
        / bnorm
        <= tol
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::convert::{coo_to_csc, coo_to_csr, csr_to_dense, dense_to_csr};
    use crate::Coo;

    /// Build A = [[2,1],[4,5]] and its combined factor.
    fn fixture() -> (Csr, Csc) {
        let mut a = Coo::new(2, 2);
        a.push(0, 0, 2.0);
        a.push(0, 1, 1.0);
        a.push(1, 0, 4.0);
        a.push(1, 1, 5.0);
        let mut lu = Coo::new(2, 2);
        lu.push(0, 0, 2.0);
        lu.push(0, 1, 1.0);
        lu.push(1, 0, 2.0); // L
        lu.push(1, 1, 3.0); // U
        (coo_to_csr(&a), coo_to_csc(&lu))
    }

    #[test]
    fn split_produces_unit_lower() {
        let (_, lu) = fixture();
        let (l, u) = split_combined(&lu);
        assert_eq!(l.get(0, 0), Some(1.0));
        assert_eq!(l.get(1, 1), Some(1.0));
        assert_eq!(l.get(1, 0), Some(2.0));
        assert_eq!(u.get(0, 0), Some(2.0));
        assert_eq!(u.get(1, 1), Some(3.0));
        assert_eq!(u.get(1, 0), None);
    }

    #[test]
    fn residuals_vanish_for_exact_factor() {
        let (a, lu) = fixture();
        assert!(residual_dense(&a, &lu) < 1e-14);
        assert!(residual_probe(&a, &lu, 3) < 1e-14);
    }

    #[test]
    fn residuals_catch_wrong_factor() {
        let (a, mut lu) = fixture();
        lu.vals[0] += 0.5; // corrupt
        assert!(residual_dense(&a, &lu) > 0.1);
        assert!(residual_probe(&a, &lu, 3) > 1e-6);
    }

    #[test]
    fn residual_matches_dense_oracle_on_random_matrix() {
        // Dense-factor a diagonally dominant matrix and verify through the
        // sparse path.
        let n = 8;
        let mut d = crate::Dense::zeros(n, n);
        let mut state = 1u64;
        for i in 0..n {
            for j in 0..n {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                if i == j {
                    d[(i, j)] = 10.0;
                } else if state.is_multiple_of(3) {
                    d[(i, j)] = ((state >> 33) as f64 / (1u64 << 31) as f64) - 0.5;
                }
            }
        }
        let lu_dense = d.lu_no_pivot().expect("dominant");
        let a = dense_to_csr(&d);
        // Convert combined dense LU (with implicit unit diagonal) to CSC.
        let mut coo = Coo::new(n, n);
        for i in 0..n {
            for j in 0..n {
                let v = lu_dense[(i, j)];
                if v != 0.0 && !(i > j && v == 0.0) {
                    coo.push(i, j, v);
                }
            }
        }
        let lu = coo_to_csc(&coo);
        assert!(residual_dense(&a, &lu) < 1e-10, "dense oracle mismatch");
        let _ = csr_to_dense(&a);
    }

    #[test]
    fn check_solution_accepts_and_rejects() {
        let (a, _) = fixture();
        let x = vec![1.0, 1.0];
        let b = a.spmv(&x);
        assert!(check_solution(&a, &x, &b, 1e-12));
        assert!(!check_solution(&a, &[1.0, 2.0], &b, 1e-6));
    }
}

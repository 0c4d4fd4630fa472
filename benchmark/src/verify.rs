//! The harness's own correctness checks. They share no code with the
//! program: the SpMV walks the CSR arrays directly, and the factor hash is
//! a plain FNV-1a over the bit patterns.

use gplu::sparse::Csr;

/// Relative residual `‖A·x − b‖₂ / ‖b‖₂` of a returned solution against
/// the matrix the harness generated (not the program's permuted copy).
pub fn relative_residual(a: &Csr, x: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.n_rows(), b.len());
    assert_eq!(a.n_cols(), x.len());
    let mut err2 = 0.0f64;
    let mut b2 = 0.0f64;
    for (row, &bi) in a.row_ptr.windows(2).zip(b) {
        let ax: f64 = (row[0]..row[1])
            .map(|k| a.vals[k] * x[a.col_idx[k] as usize])
            .sum();
        err2 += (ax - bi) * (ax - bi);
        b2 += bi * bi;
    }
    // NaN anywhere propagates to the result.
    (err2 / b2.max(f64::MIN_POSITIVE)).sqrt()
}

/// A system a returned solution is held to.
pub struct Check<'a> {
    pub a: &'a Csr,
    pub b: &'a [f64],
    /// Largest acceptable relative residual.
    pub tol: f64,
}

impl Check<'_> {
    /// `None` when `x` solves the system to tolerance, else what to
    /// report. A residual that is not a number fails.
    pub fn failure(&self, x: &[f64]) -> Option<String> {
        let r = relative_residual(self.a, x, self.b);
        (r.is_nan() || r > self.tol).then(|| format!("residual {r:.3e} > {:.0e}", self.tol))
    }
}

/// `b = A·x` by the same direct walk (right-hand sides are generated from
/// a known solution so every system is consistent).
pub fn spmv(a: &Csr, x: &[f64]) -> Vec<f64> {
    a.row_ptr
        .windows(2)
        .map(|row| {
            (row[0]..row[1])
                .map(|k| a.vals[k] * x[a.col_idx[k] as usize])
                .sum()
        })
        .collect()
}

/// FNV-1a (64-bit) over the IEEE-754 bit patterns of `vals`: equal hashes
/// across passes mean the factors repeated to the bit.
pub fn hash_vals(vals: &[f64]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for v in vals {
        for byte in v.to_bits().to_le_bytes() {
            h = (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use gplu::sparse::gen::random::random_dominant;

    #[test]
    fn residual_is_zero_for_the_generating_solution_and_large_otherwise() {
        let a = random_dominant(50, 4.0, 3);
        let x: Vec<f64> = (0..50).map(|i| 1.0 + i as f64 / 10.0).collect();
        let b = spmv(&a, &x);
        assert!(relative_residual(&a, &x, &b) < 1e-15);
        let mut wrong = x.clone();
        wrong[7] += 1.0;
        assert!(relative_residual(&a, &wrong, &b) > 1e-3);
        let check = Check {
            a: &a,
            b: &b,
            tol: 1e-8,
        };
        assert!(check.failure(&x).is_none());
        assert!(check.failure(&wrong).is_some());
        wrong[7] = f64::NAN;
        assert!(relative_residual(&a, &wrong, &b).is_nan());
        assert!(check.failure(&wrong).is_some(), "NaN fails the check");
    }

    #[test]
    fn own_spmv_agrees_with_the_library() {
        let a = random_dominant(40, 5.0, 9);
        let x: Vec<f64> = (0..40).map(|i| (i as f64).sin()).collect();
        assert_eq!(spmv(&a, &x), a.spmv(&x));
    }

    #[test]
    fn vals_hash_sees_single_bit_flips_and_sign_of_zero() {
        let v = [1.0, 2.5, -3.0];
        assert_eq!(hash_vals(&v), hash_vals(&[1.0, 2.5, -3.0]));
        let flipped = [1.0, f64::from_bits(2.5f64.to_bits() ^ 1), -3.0];
        assert_ne!(hash_vals(&v), hash_vals(&flipped));
        assert_ne!(hash_vals(&[0.0]), hash_vals(&[-0.0]));
        assert_ne!(hash_vals(&[1.0, 2.0]), hash_vals(&[2.0, 1.0]));
        // FNV-1a offset basis: the hash of nothing.
        assert_eq!(hash_vals(&[]), 0xcbf2_9ce4_8422_2325);
    }
}

//! Host-side pre-processing (the first box of the paper's Figure 2):
//! "row and column permutations ... performed in order to improve
//! numerical stability and reduce the number of fill-ins".

use crate::error::GpluError;
use gplu_sim::{CostModel, SimTime};
use gplu_sparse::ordering::{order, OrderingKind};
use gplu_sparse::perm::permute_csr;
use gplu_sparse::pivot::{max_transversal, repair_diagonal};
use gplu_sparse::{Csr, Permutation};
use std::borrow::Cow;

/// Pre-processing configuration.
#[derive(Debug, Clone)]
pub struct PreprocessOptions {
    /// Fill-reducing ordering applied symmetrically.
    pub ordering: OrderingKind,
    /// Row permutation bringing nonzeros onto the diagonal before
    /// ordering (the MC64-style static pivoting of production solvers).
    /// When `false` (or when the matching fails), missing diagonals are
    /// handled by `repair_value` instead.
    pub static_pivot: bool,
    /// Value written into structurally/numerically zero diagonals — the
    /// paper's Table 4 treatment ("replaced their 0 diagonal elements
    /// with a non-zero number (1000)").
    pub repair_value: f64,
    /// When the numeric phase hits a pivot that cancelled to zero *during*
    /// elimination (pre-processing only repairs diagonals that start out
    /// zero), patch that diagonal with `repair_value` and retry the
    /// numeric phase once instead of failing with `SingularPivot`.
    pub repair_singular: bool,
}

impl Default for PreprocessOptions {
    fn default() -> Self {
        PreprocessOptions {
            // Minimum degree keeps fill manageable on the circuit-style
            // matrices that motivate the paper; RCM remains available for
            // banded/mesh problems.
            ordering: OrderingKind::MinDegree,
            static_pivot: false,
            repair_value: 1000.0,
            repair_singular: false,
        }
    }
}

/// Result of pre-processing.
#[derive(Debug, Clone)]
pub struct PreprocessOutcome {
    /// The permuted, diagonal-complete matrix handed to symbolic
    /// factorization.
    pub matrix: Csr,
    /// Row permutation (old → new): `matrix[p_row(i), p_col(j)] = A[i,j]`.
    pub p_row: Permutation,
    /// Column permutation (old → new).
    pub p_col: Permutation,
    /// Diagonal entries inserted or replaced.
    pub repaired: usize,
    /// Simulated host time.
    pub time: SimTime,
}

/// Runs pre-processing on the host.
pub fn preprocess(
    a: &Csr,
    opts: &PreprocessOptions,
    cost: &CostModel,
) -> Result<PreprocessOutcome, GpluError> {
    let n = a.n_rows();
    if n == 0 {
        return Err(GpluError::Input("empty matrix".into()));
    }
    if n != a.n_cols() {
        return Err(GpluError::Input(format!(
            "matrix must be square, got {n}x{}",
            a.n_cols()
        )));
    }

    // Optional static pivoting: a row permutation completing the
    // structural diagonal (falls back to diagonal repair when the matrix
    // is structurally singular).
    let (matched, p_static) = match opts.static_pivot.then(|| max_transversal(a)) {
        Some(Ok(p)) => {
            let m = permute_csr(a, &p, &Permutation::identity(n));
            (Cow::Owned(m), Some(p))
        }
        _ => (Cow::Borrowed(a), None),
    };

    // Symmetric fill-reducing ordering.
    let ord = order(&matched, opts.ordering);
    let p_sym = Permutation::from_order(&ord)?;
    let permuted = permute_csr(&matched, &p_sym, &p_sym);

    // Diagonal completion: structural repair + replacement of numerically
    // zero diagonals, both with the paper's constant.
    let (mut fixed, inserted) = if permuted.has_full_diagonal() {
        (permuted, 0)
    } else {
        repair_diagonal(&permuted, opts.repair_value)
    };
    let replaced = gplu_sparse::pivot::replace_zero_diagonal(&mut fixed, opts.repair_value);

    // Host cost: the orderings and matching are a small number of passes
    // over the edges.
    let passes = 4 + u64::from(opts.static_pivot) * 2;
    let time = SimTime::from_ns(cost.cpu_parallel_ns(passes * a.nnz() as u64));

    let p_row = match p_static {
        Some(p) => p.then(&p_sym),
        None => p_sym.clone(),
    };
    Ok(PreprocessOutcome {
        matrix: fixed,
        p_row,
        p_col: p_sym,
        repaired: inserted + replaced,
        time,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use gplu_sparse::convert::csr_to_dense;
    use gplu_sparse::gen::planar::{planar, PlanarParams};
    use gplu_sparse::gen::random::random_dominant;

    #[test]
    fn output_has_full_diagonal() {
        let a = planar(&PlanarParams {
            side: 12,
            tri_prob: 0.4,
            missing_diag_fraction: 0.5,
            seed: 2,
        });
        let out = preprocess(&a, &PreprocessOptions::default(), &CostModel::default())
            .expect("preprocesses");
        assert!(out.matrix.has_full_diagonal());
        assert!(out.repaired > 0);
    }

    #[test]
    fn permutation_is_consistent() {
        let a = random_dominant(30, 4.0, 91);
        let out = preprocess(&a, &PreprocessOptions::default(), &CostModel::default())
            .expect("preprocesses");
        let ad = csr_to_dense(&a);
        let bd = csr_to_dense(&out.matrix);
        for i in 0..30 {
            for j in 0..30 {
                if ad[(i, j)] != 0.0 {
                    assert_eq!(bd[(out.p_row.apply(i), out.p_col.apply(j))], ad[(i, j)]);
                }
            }
        }
    }

    #[test]
    fn static_pivot_completes_antidiagonal() {
        let mut coo = gplu_sparse::Coo::new(4, 4);
        for i in 0..4 {
            coo.push(i, 3 - i, 1.0);
        }
        let a = gplu_sparse::convert::coo_to_csr(&coo);
        let opts = PreprocessOptions {
            static_pivot: true,
            ..Default::default()
        };
        let out = preprocess(&a, &opts, &CostModel::default()).expect("preprocesses");
        assert!(out.matrix.has_full_diagonal());
        assert_eq!(
            out.repaired, 0,
            "matching should complete the diagonal without repair"
        );
    }

    #[test]
    fn rejects_non_square_and_empty() {
        let empty = Csr::identity(0);
        assert!(matches!(
            preprocess(&empty, &PreprocessOptions::default(), &CostModel::default()),
            Err(GpluError::Input(_))
        ));
    }

    #[test]
    fn natural_ordering_keeps_structure() {
        let a = random_dominant(20, 3.0, 92);
        let opts = PreprocessOptions {
            ordering: OrderingKind::Natural,
            ..Default::default()
        };
        let out = preprocess(&a, &opts, &CostModel::default()).expect("preprocesses");
        assert_eq!(
            out.matrix, a,
            "natural ordering of a diagonal-complete matrix is a no-op"
        );
    }
}

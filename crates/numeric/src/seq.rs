//! Sequential numeric factorization — the exact-arithmetic reference the
//! GPU variants are verified against.
//!
//! This is the host-side instantiation of the unified engine interface:
//! it runs the *same* kernel core as every GPU engine
//! ([`crate::outcome::process_column`], merge discipline) one column at a
//! time in column order — exactly the serialization every level schedule
//! reduces to. The update order inside a column (dependency columns
//! ascending, then division) is therefore byte-for-byte what the parallel
//! engines apply, so results are bit-identical across all engines by
//! construction rather than by parallel-to-sequential transliteration.

use crate::outcome::{process_column_with, AccessDiscipline, PivotCache, PivotRule};
use crate::scratch::ColumnScratch;
use crate::values::ColumnStore;
use gplu_sparse::{Csc, SparseError};

/// Factorizes the filled matrix sequentially: on return `lu` holds the
/// combined factor (unit-diagonal `L` strictly below, `U` on and above the
/// diagonal).
///
/// `lu` must carry the *complete* fill pattern (from symbolic
/// factorization): an update aimed at a position the pattern lacks is a
/// typed [`SparseError::MissingFill`], never a dropped update. On any
/// error `lu` is left as it was.
pub fn factorize_seq(lu: &mut Csc) -> Result<(), SparseError> {
    factorize_seq_rule(lu, PivotRule::Exact).map(|_| ())
}

/// [`factorize_seq`] under an explicit engine-level [`PivotRule`]; returns
/// the static-perturbation deltas applied, as `(col, delta)` in column
/// order. The reference for verifying that every GPU engine applies the
/// same rule at the same point.
pub fn factorize_seq_rule(lu: &mut Csc, rule: PivotRule) -> Result<Vec<(usize, f64)>, SparseError> {
    let cache = PivotCache::build(lu);
    let mut vals = lu.vals.clone();
    let mut store = ColumnStore::new(&mut vals, &lu.col_ptr);
    let mut scratch = ColumnScratch::default();
    let mut perturbs = Vec::new();
    for j in 0..lu.n_cols() {
        let (_, perturb) = process_column_with(
            lu,
            &store,
            j,
            AccessDiscipline::Merge,
            &cache,
            rule,
            &mut scratch,
        )?;
        store.seal([j]);
        if let Some(delta) = perturb {
            perturbs.push((j, delta));
        }
    }
    drop(store);
    lu.vals = vals;
    Ok(perturbs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gplu_sim::CostModel;
    use gplu_sparse::convert::{csr_to_csc, csr_to_dense};
    use gplu_sparse::gen::random::{banded_dominant, random_dominant};
    use gplu_sparse::verify::{residual_dense, residual_probe};
    use gplu_symbolic::symbolic_cpu;

    fn filled_csc(a: &gplu_sparse::Csr) -> Csc {
        csr_to_csc(&symbolic_cpu(a, &CostModel::default()).result.filled)
    }

    #[test]
    fn matches_dense_oracle() {
        let a = random_dominant(30, 4.0, 51);
        let mut lu = filled_csc(&a);
        factorize_seq(&mut lu).expect("factorizes");
        let dense_lu = csr_to_dense(&a).lu_no_pivot().expect("oracle factorizes");
        // Compare entrywise at the sparse positions.
        for j in 0..30 {
            for (i, v) in lu.col_iter(j) {
                assert!(
                    (v - dense_lu[(i, j)]).abs() < 1e-10,
                    "entry ({i},{j}): sparse {v} vs dense {}",
                    dense_lu[(i, j)]
                );
            }
        }
    }

    #[test]
    fn residual_is_small() {
        let a = banded_dominant(200, 4, 52);
        let mut lu = filled_csc(&a);
        factorize_seq(&mut lu).expect("factorizes");
        assert!(residual_probe(&a, &lu, 4) < 1e-10);
    }

    #[test]
    fn residual_dense_on_small_case() {
        let a = random_dominant(16, 3.0, 53);
        let mut lu = filled_csc(&a);
        factorize_seq(&mut lu).expect("factorizes");
        assert!(residual_dense(&a, &lu) < 1e-11);
    }

    #[test]
    fn rejects_zero_pivot() {
        // A matrix engineered to hit an exact zero pivot: [[1,1],[1,1]]
        // gives U(1,1) = 1 - 1*1 = 0.
        let mut coo = gplu_sparse::Coo::new(2, 2);
        for i in 0..2 {
            for j in 0..2 {
                coo.push(i, j, 1.0);
            }
        }
        let a = gplu_sparse::convert::coo_to_csr(&coo);
        let mut lu = filled_csc(&a);
        assert!(matches!(
            factorize_seq(&mut lu),
            Err(SparseError::ZeroPivot { col: 1 })
        ));
    }

    #[test]
    fn identity_factorizes_to_itself() {
        let a = gplu_sparse::Csr::identity(5);
        let mut lu = filled_csc(&a);
        factorize_seq(&mut lu).expect("factorizes");
        for j in 0..5 {
            assert_eq!(lu.get(j, j), Some(1.0));
        }
    }
}

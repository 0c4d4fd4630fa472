//! Static pivoting: making a matrix LU-factorizable without runtime
//! pivoting.
//!
//! The paper's numeric kernel (Algorithm 2) performs no pivoting, which is
//! the GLU-family convention: stability is handled during pre-processing.
//! Two facilities are provided:
//!
//! * [`max_transversal`] — a maximum-matching row permutation that brings a
//!   structurally nonzero entry onto every diagonal position when one
//!   exists (the role MC64 plays in production solvers), and
//! * [`repair_diagonal`] — the paper's own Table 4 fallback: "we replaced
//!   their 0 diagonal elements with a non-zero number (1000) to make them
//!   factorizable".

use crate::{Csr, Idx, Permutation, SparseError, Val};

/// Finds a row permutation placing a structural nonzero on every diagonal.
///
/// Uses the classical augmenting-path maximum bipartite matching
/// (Hopcroft–Karp would be asymptotically better; the simple version is
/// ample for pre-processing at this workspace's scales). Returns the row
/// permutation `p` such that `permute_csr(a, p, identity)` has a full
/// structural diagonal, or an error naming an unmatched column if the
/// matrix is structurally singular.
pub fn max_transversal(a: &Csr) -> Result<Permutation, SparseError> {
    let n = a.n_rows();
    if n != a.n_cols() {
        return Err(SparseError::NotSquare {
            n_rows: n,
            n_cols: a.n_cols(),
        });
    }
    // match_col[j] = row matched to column j; match_row[i] = column matched to row i.
    let mut match_col = vec![usize::MAX; n];
    let mut match_row = vec![usize::MAX; n];
    let mut stamp = vec![usize::MAX; n];

    fn augment(
        a: &Csr,
        i: usize,
        round: usize,
        stamp: &mut [usize],
        match_row: &mut [usize],
        match_col: &mut [usize],
    ) -> bool {
        for &j in a.row_cols(i) {
            let j = j as usize;
            if stamp[j] == round {
                continue;
            }
            stamp[j] = round;
            if match_col[j] == usize::MAX
                || augment(a, match_col[j], round, stamp, match_row, match_col)
            {
                match_col[j] = i;
                match_row[i] = j;
                return true;
            }
        }
        false
    }

    for i in 0..n {
        // Cheap pass: claim the diagonal when free, preferring identity.
        if match_row[i] == usize::MAX
            && match_col.get(i).is_some_and(|&m| m == usize::MAX)
            && a.get(i, i).is_some()
        {
            match_col[i] = i;
            match_row[i] = i;
        }
    }
    for i in 0..n {
        if match_row[i] == usize::MAX
            && !augment(a, i, i, &mut stamp, &mut match_row, &mut match_col)
        {
            return Err(SparseError::ZeroDiagonal { row: i });
        }
    }

    // Row i carries the entry for column match_row[i]; moving row i to
    // position match_row[i] puts that entry on the diagonal.
    Permutation::from_forward(match_row.iter().map(|&j| j as Idx).collect())
}

/// Inserts `value` at every structurally missing diagonal position and
/// returns the repaired matrix together with the number of insertions.
///
/// This reproduces the paper's Table 4 treatment of the huge mesh matrices,
/// which "happen not to be LU-factorizable", with `value = 1000`.
pub fn repair_diagonal(a: &Csr, value: Val) -> (Csr, usize) {
    let n = a.n_rows().min(a.n_cols());
    let missing = (0..n).filter(|&i| a.get(i, i).is_none()).count();
    if missing == 0 {
        return (a.clone(), 0);
    }
    let mut row_ptr = Vec::with_capacity(a.n_rows() + 1);
    row_ptr.push(0);
    let mut col_idx = Vec::with_capacity(a.nnz() + missing);
    let mut vals = Vec::with_capacity(a.nnz() + missing);
    for i in 0..a.n_rows() {
        let (cols, row_vals) = (a.row_cols(i), a.row_vals(i));
        let k = cols.partition_point(|&c| (c as usize) < i);
        col_idx.extend_from_slice(&cols[..k]);
        vals.extend_from_slice(&row_vals[..k]);
        if i < n && cols.get(k) != Some(&(i as Idx)) {
            col_idx.push(i as Idx);
            vals.push(value);
        }
        col_idx.extend_from_slice(&cols[k..]);
        vals.extend_from_slice(&row_vals[k..]);
        row_ptr.push(col_idx.len());
    }
    let repaired = Csr::from_parts_unchecked(a.n_rows(), a.n_cols(), row_ptr, col_idx, vals);
    (repaired, missing)
}

/// Replaces numerically zero (but structurally present) diagonal entries
/// with `value`; returns the count replaced.
pub fn replace_zero_diagonal(a: &mut Csr, value: Val) -> usize {
    let n = a.n_rows().min(a.n_cols());
    let mut replaced = 0;
    for i in 0..n {
        let start = a.row_ptr[i];
        if let Ok(k) = a.row_cols(i).binary_search(&(i as Idx)) {
            if a.vals[start + k] == 0.0 {
                a.vals[start + k] = value;
                replaced += 1;
            }
        }
    }
    replaced
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::convert::coo_to_csr;
    use crate::perm::permute_csr;
    use crate::Coo;

    #[test]
    fn transversal_fixes_permuted_identity() {
        // Anti-diagonal matrix: rows must be reversed.
        let mut coo = Coo::new(3, 3);
        coo.push(0, 2, 1.0);
        coo.push(1, 1, 1.0);
        coo.push(2, 0, 1.0);
        let a = coo_to_csr(&coo);
        assert!(!a.has_full_diagonal());
        let p = max_transversal(&a).expect("structurally nonsingular");
        let b = permute_csr(&a, &p, &Permutation::identity(3));
        assert!(b.has_full_diagonal());
    }

    #[test]
    fn transversal_prefers_existing_diagonal() {
        let a = Csr::identity(4);
        let p = max_transversal(&a).expect("identity matches itself");
        assert_eq!(p, Permutation::identity(4));
    }

    #[test]
    fn transversal_detects_structural_singularity() {
        // Column 1 empty -> no perfect matching.
        let mut coo = Coo::new(2, 2);
        coo.push(0, 0, 1.0);
        coo.push(1, 0, 1.0);
        let a = coo_to_csr(&coo);
        assert!(max_transversal(&a).is_err());
    }

    #[test]
    fn transversal_needs_augmenting_path() {
        // Row 0 can go to cols {0,1}, row 1 only to col 0: matching must
        // push row 0 off column 0.
        let mut coo = Coo::new(2, 2);
        coo.push(0, 0, 1.0);
        coo.push(0, 1, 1.0);
        coo.push(1, 0, 1.0);
        let a = coo_to_csr(&coo);
        let p = max_transversal(&a).expect("matchable");
        let b = permute_csr(&a, &p, &Permutation::identity(2));
        assert!(b.has_full_diagonal());
    }

    #[test]
    fn repair_diagonal_inserts_value() {
        let mut coo = Coo::new(3, 3);
        coo.push(0, 0, 1.0);
        coo.push(1, 2, 2.0);
        coo.push(2, 1, 3.0);
        let a = coo_to_csr(&coo);
        let (b, inserted) = repair_diagonal(&a, 1000.0);
        assert_eq!(inserted, 2);
        assert!(b.has_full_diagonal());
        assert_eq!(b.get(1, 1), Some(1000.0));
        assert_eq!(b.get(2, 2), Some(1000.0));
        assert_eq!(b.get(0, 0), Some(1.0));
    }

    /// The input's entries plus `(i, value)` at each missing diagonal,
    /// from an ordered map.
    #[test]
    fn repair_diagonal_matches_its_definition() {
        use std::collections::BTreeMap;
        for (name, a) in crate::gen::tests::families() {
            let mut want = BTreeMap::new();
            for i in 0..a.n_rows() {
                want.insert((i, i), 1000f64.to_bits());
                for (j, v) in a.row_iter(i) {
                    want.insert((i, j), v.to_bits());
                }
            }
            let (b, inserted) = repair_diagonal(&a, 1000.0);
            assert_eq!(inserted, b.nnz() - a.nnz(), "{name}: count");
            let got: BTreeMap<_, _> = (0..b.n_rows())
                .flat_map(|i| b.row_iter(i).map(move |(j, v)| ((i, j), v.to_bits())))
                .collect();
            assert_eq!(got, want, "{name}");
            Csr::new(b.n_rows(), b.n_cols(), b.row_ptr, b.col_idx, b.vals)
                .unwrap_or_else(|e| panic!("{name}: repaired matrix is not a valid CSR: {e}"));
        }
    }

    #[test]
    fn repair_diagonal_noop_when_full() {
        let a = Csr::identity(3);
        let (b, inserted) = repair_diagonal(&a, 1000.0);
        assert_eq!(inserted, 0);
        assert_eq!(a, b);
    }

    #[test]
    fn replace_zero_diagonal_only_touches_zeros() {
        let mut coo = Coo::new(2, 2);
        coo.push(0, 0, 0.0);
        coo.push(1, 1, 5.0);
        let mut a = coo_to_csr(&coo);
        let replaced = replace_zero_diagonal(&mut a, 1000.0);
        assert_eq!(replaced, 1);
        assert_eq!(a.get(0, 0), Some(1000.0));
        assert_eq!(a.get(1, 1), Some(5.0));
    }
}

//! Conversions between matrix formats.
//!
//! The end-to-end pipeline moves through formats: assembly in [`Coo`],
//! symbolic factorization over [`Csr`], levelization over the column graph,
//! and numeric factorization over sorted [`Csc`] (or dense column chunks).
//! Conversions here are all O(nnz) counting-sort style.

use crate::{Coo, Csc, Csr, Dense, Idx, Val};

/// COO → CSR. Duplicate coordinates are summed.
pub fn coo_to_csr(a: &Coo) -> Csr {
    let mut sorted = a.clone();
    sorted.sum_duplicates();
    let n_rows = sorted.n_rows();
    let mut row_ptr = vec![0usize; n_rows + 1];
    for &r in &sorted.rows {
        row_ptr[r as usize + 1] += 1;
    }
    for i in 0..n_rows {
        row_ptr[i + 1] += row_ptr[i];
    }
    Csr::from_parts_unchecked(n_rows, sorted.n_cols(), row_ptr, sorted.cols, sorted.vals)
}

/// COO → CSC. Duplicate coordinates are summed.
pub fn coo_to_csc(a: &Coo) -> Csc {
    csr_to_csc(&coo_to_csr(a))
}

/// CSR → CSC transposition-style conversion; preserves sortedness because
/// rows are scanned in ascending order.
pub fn csr_to_csc(a: &Csr) -> Csc {
    let (n_rows, n_cols, nnz) = (a.n_rows(), a.n_cols(), a.nnz());
    let mut col_ptr = vec![0usize; n_cols + 1];
    for &c in &a.col_idx {
        col_ptr[c as usize + 1] += 1;
    }
    for j in 0..n_cols {
        col_ptr[j + 1] += col_ptr[j];
    }
    let mut cursor = col_ptr.clone();
    let mut row_idx = vec![0 as Idx; nnz];
    let mut vals = vec![0.0 as Val; nnz];
    for i in 0..n_rows {
        for (j, v) in a.row_iter(i) {
            let dst = cursor[j];
            row_idx[dst] = i as Idx;
            vals[dst] = v;
            cursor[j] += 1;
        }
    }
    Csc::from_parts_unchecked(n_rows, n_cols, col_ptr, row_idx, vals)
}

/// The pattern of `Aᵀ` restricted to the entries `(r, c)` of `A` that
/// `keep(r, c)` accepts, from `A`'s compressed lists: list `r` is
/// `idx[ptr[r]..ptr[r + 1]]`, its entries below `n` (the rows of a CSR,
/// the columns of a CSC). `out_ptr[c]..out_ptr[c + 1]` indexes the list
/// `c` of the result in `rows`, ascending. A counting transpose like
/// [`csr_to_csc`], without values.
pub fn transpose_pattern(
    n: usize,
    ptr: &[usize],
    idx: &[Idx],
    keep: impl Fn(usize, usize) -> bool,
) -> (Vec<usize>, Vec<Idx>) {
    let lists = (0..ptr.len() - 1).map(|r| (r, &idx[ptr[r]..ptr[r + 1]]));
    let mut out_ptr = vec![0usize; n + 1];
    for (r, list) in lists.clone() {
        for &c in list {
            if keep(r, c as usize) {
                out_ptr[c as usize + 1] += 1;
            }
        }
    }
    for c in 0..n {
        out_ptr[c + 1] += out_ptr[c];
    }
    let mut cursor = out_ptr.clone();
    let mut rows = vec![0 as Idx; out_ptr[n]];
    for (r, list) in lists {
        for &c in list {
            if keep(r, c as usize) {
                rows[cursor[c as usize]] = r as Idx;
                cursor[c as usize] += 1;
            }
        }
    }
    (out_ptr, rows)
}

/// Appends the union of two strictly ascending index lists to `out`,
/// ascending and without duplicates.
pub fn union_ascending(a: &[Idx], b: &[Idx], out: &mut Vec<Idx>) {
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        let (x, y) = (a[i], b[j]);
        out.push(x.min(y));
        i += usize::from(x <= y);
        j += usize::from(y <= x);
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
}

/// CSC → CSR, the mirror of [`csr_to_csc`].
pub fn csc_to_csr(a: &Csc) -> Csr {
    let (n_rows, n_cols, nnz) = (a.n_rows(), a.n_cols(), a.nnz());
    let mut row_ptr = vec![0usize; n_rows + 1];
    for &r in &a.row_idx {
        row_ptr[r as usize + 1] += 1;
    }
    for i in 0..n_rows {
        row_ptr[i + 1] += row_ptr[i];
    }
    let mut cursor = row_ptr.clone();
    let mut col_idx = vec![0 as Idx; nnz];
    let mut vals = vec![0.0 as Val; nnz];
    for j in 0..n_cols {
        for (i, v) in a.col_iter(j) {
            let dst = cursor[i];
            col_idx[dst] = j as Idx;
            vals[dst] = v;
            cursor[i] += 1;
        }
    }
    Csr::from_parts_unchecked(n_rows, n_cols, row_ptr, col_idx, vals)
}

/// CSR → dense (test-oracle sizes only).
pub fn csr_to_dense(a: &Csr) -> Dense {
    let mut d = Dense::zeros(a.n_rows(), a.n_cols());
    for i in 0..a.n_rows() {
        for (j, v) in a.row_iter(i) {
            d[(i, j)] = v;
        }
    }
    d
}

/// CSC → dense (test-oracle sizes only).
pub fn csc_to_dense(a: &Csc) -> Dense {
    let mut d = Dense::zeros(a.n_rows(), a.n_cols());
    for j in 0..a.n_cols() {
        for (i, v) in a.col_iter(j) {
            d[(i, j)] = v;
        }
    }
    d
}

/// Dense → CSR, dropping exact zeros.
pub fn dense_to_csr(a: &Dense) -> Csr {
    let mut coo = Coo::new(a.n_rows(), a.n_cols());
    for i in 0..a.n_rows() {
        for j in 0..a.n_cols() {
            let v = a[(i, j)];
            if v != 0.0 {
                coo.push(i, j, v);
            }
        }
    }
    coo_to_csr(&coo)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_coo() -> Coo {
        let mut a = Coo::new(3, 4);
        a.push(0, 0, 1.0);
        a.push(2, 3, 2.0);
        a.push(1, 1, 3.0);
        a.push(0, 2, 4.0);
        a.push(2, 0, 5.0);
        a
    }

    #[test]
    fn coo_to_csr_sorts_rows() {
        let csr = coo_to_csr(&sample_coo());
        assert_eq!(csr.row_cols(0), &[0, 2]);
        assert_eq!(csr.row_cols(2), &[0, 3]);
        assert_eq!(csr.get(1, 1), Some(3.0));
    }

    #[test]
    fn coo_duplicates_summed_in_conversion() {
        let mut a = Coo::new(2, 2);
        a.push(0, 0, 1.0);
        a.push(0, 0, 2.5);
        let csr = coo_to_csr(&a);
        assert_eq!(csr.nnz(), 1);
        assert_eq!(csr.get(0, 0), Some(3.5));
    }

    #[test]
    fn csr_csc_round_trip() {
        let csr = coo_to_csr(&sample_coo());
        let csc = csr_to_csc(&csr);
        let back = csc_to_csr(&csc);
        assert_eq!(csr, back);
    }

    #[test]
    fn csc_columns_are_sorted() {
        let csc = coo_to_csc(&sample_coo());
        assert_eq!(csc.col_rows(0), &[0, 2]);
        assert_eq!(csc.get(2, 0), Some(5.0));
    }

    mod props {
        use super::*;
        use crate::gen::random::random_dominant;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(32))]

            /// CSR -> CSC -> CSR is the identity for any generated matrix.
            #[test]
            fn prop_csr_csc_round_trip(
                n in 1usize..60,
                density in 1.0f64..6.0,
                seed in 0u64..1000,
            ) {
                let a = random_dominant(n, density, seed);
                prop_assert_eq!(&a, &csc_to_csr(&csr_to_csc(&a)));
            }

            /// spmv agrees across every representation.
            #[test]
            fn prop_spmv_representation_invariant(
                n in 1usize..40,
                seed in 0u64..1000,
            ) {
                let a = random_dominant(n, 3.0, seed);
                let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin()).collect();
                let via_csr = a.spmv(&x);
                let via_csc = csr_to_csc(&a).spmv(&x);
                let via_dense = csr_to_dense(&a).matvec(&x);
                for ((p, q), r) in via_csr.iter().zip(&via_csc).zip(&via_dense) {
                    prop_assert!((p - q).abs() < 1e-12);
                    prop_assert!((p - r).abs() < 1e-12);
                }
            }
        }
    }

    #[test]
    fn dense_round_trip() {
        let csr = coo_to_csr(&sample_coo());
        let dense = csr_to_dense(&csr);
        let back = dense_to_csr(&dense);
        assert_eq!(csr, back);
        let via_csc = csc_to_dense(&csr_to_csc(&csr));
        assert!(dense.max_abs_diff(&via_csc) == 0.0);
    }
}

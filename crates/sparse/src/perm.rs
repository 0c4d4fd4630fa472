//! Row/column permutations.
//!
//! The paper's pre-processing step (Figure 2) permutes rows and columns "to
//! improve numerical stability and reduce the number of fill-ins". A
//! [`Permutation`] `p` maps *old* index `i` to *new* index `p[i]`; applying
//! `(p_row, p_col)` to `A` produces `B[p_row[i], p_col[j]] = A[i, j]`, i.e.
//! `B = P A Qᵀ` in matrix terms.

use crate::{error::SparseError, Csr, Idx, Val};

/// A permutation of `0..n`, stored as the forward map old → new.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Permutation {
    forward: Vec<Idx>,
}

impl Permutation {
    /// The identity permutation on `0..n`.
    pub fn identity(n: usize) -> Self {
        Permutation {
            forward: (0..n as Idx).collect(),
        }
    }

    /// Builds from a forward map, validating bijectivity.
    pub fn from_forward(forward: Vec<Idx>) -> Result<Self, SparseError> {
        let n = forward.len();
        let mut seen = vec![false; n];
        for &t in &forward {
            let t = t as usize;
            if t >= n {
                return Err(SparseError::InvalidPermutation(format!(
                    "target {t} out of range for n={n}"
                )));
            }
            if seen[t] {
                return Err(SparseError::InvalidPermutation(format!(
                    "target {t} repeated"
                )));
            }
            seen[t] = true;
        }
        Ok(Permutation { forward })
    }

    /// Builds the permutation that maps `order[k] → k`, i.e. the inverse of
    /// an "ordering" vector that lists old indices in their new sequence.
    /// This is the form fill-reducing orderings naturally produce.
    pub fn from_order(order: &[Idx]) -> Result<Self, SparseError> {
        let n = order.len();
        let mut forward = vec![Idx::MAX; n];
        for (new, &old) in order.iter().enumerate() {
            let old = old as usize;
            if old >= n {
                return Err(SparseError::InvalidPermutation(format!(
                    "ordering entry {old} out of range for n={n}"
                )));
            }
            if forward[old] != Idx::MAX {
                return Err(SparseError::InvalidPermutation(format!(
                    "ordering repeats index {old}"
                )));
            }
            forward[old] = new as Idx;
        }
        Ok(Permutation { forward })
    }

    /// Size of the permuted set.
    pub fn len(&self) -> usize {
        self.forward.len()
    }

    /// True for the size-0 permutation.
    pub fn is_empty(&self) -> bool {
        self.forward.is_empty()
    }

    /// New position of old index `i`.
    #[inline]
    pub fn apply(&self, i: usize) -> usize {
        self.forward[i] as usize
    }

    /// The inverse permutation (new → old).
    pub fn inverse(&self) -> Permutation {
        let mut inv = vec![0 as Idx; self.len()];
        for (old, &new) in self.forward.iter().enumerate() {
            inv[new as usize] = old as Idx;
        }
        Permutation { forward: inv }
    }

    /// Composition `other ∘ self`: applies `self` first, then `other`.
    pub fn then(&self, other: &Permutation) -> Permutation {
        assert_eq!(
            self.len(),
            other.len(),
            "composing permutations of different sizes"
        );
        Permutation {
            forward: self
                .forward
                .iter()
                .map(|&m| other.forward[m as usize])
                .collect(),
        }
    }

    /// Permutes a vector: `out[p[i]] = v[i]`.
    pub fn permute_vec(&self, v: &[Val]) -> Vec<Val> {
        assert_eq!(v.len(), self.len(), "vector length mismatch");
        let mut out = vec![0.0; v.len()];
        for (i, &x) in v.iter().enumerate() {
            out[self.apply(i)] = x;
        }
        out
    }

    /// The forward map as a slice.
    pub fn as_slice(&self) -> &[Idx] {
        &self.forward
    }
}

/// Applies row and column permutations to a CSR matrix:
/// `B[p_row[i], p_col[j]] = A[i, j]`.
///
/// Row `r` of `B` is row `p_row⁻¹[r]` of `A` with its columns mapped and
/// sorted. Columns of a valid [`Csr`] are unique, so no entries collide.
pub fn permute_csr(a: &Csr, p_row: &Permutation, p_col: &Permutation) -> Csr {
    assert_eq!(p_row.len(), a.n_rows(), "row permutation size mismatch");
    assert_eq!(p_col.len(), a.n_cols(), "column permutation size mismatch");
    let mut row_ptr = Vec::with_capacity(a.n_rows() + 1);
    row_ptr.push(0);
    let mut col_idx = Vec::with_capacity(a.nnz());
    let mut vals = Vec::with_capacity(a.nnz());
    let mut row: Vec<(Idx, Val)> = Vec::new();
    for &i in p_row.inverse().as_slice() {
        row.clear();
        row.extend(a.row_iter(i as usize).map(|(j, v)| (p_col.forward[j], v)));
        row.sort_unstable_by_key(|&(c, _)| c);
        col_idx.extend(row.iter().map(|&(c, _)| c));
        vals.extend(row.iter().map(|&(_, v)| v));
        row_ptr.push(col_idx.len());
    }
    Csr::from_parts_unchecked(a.n_rows(), a.n_cols(), row_ptr, col_idx, vals)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::convert::{coo_to_csr, csr_to_dense};
    use crate::Coo;

    #[test]
    fn from_forward_validates() {
        assert!(Permutation::from_forward(vec![1, 0, 2]).is_ok());
        assert!(Permutation::from_forward(vec![1, 1, 2]).is_err());
        assert!(Permutation::from_forward(vec![0, 5]).is_err());
    }

    #[test]
    fn from_order_inverts() {
        // order lists old indices in new sequence: new0=old2, new1=old0, new2=old1
        let p = Permutation::from_order(&[2, 0, 1]).expect("valid");
        assert_eq!(p.apply(2), 0);
        assert_eq!(p.apply(0), 1);
        assert_eq!(p.apply(1), 2);
    }

    #[test]
    fn inverse_round_trips() {
        let p = Permutation::from_forward(vec![2, 0, 3, 1]).expect("valid");
        let composed = p.then(&p.inverse());
        assert_eq!(composed, Permutation::identity(4));
    }

    #[test]
    fn permute_vec_places_by_target() {
        let p = Permutation::from_forward(vec![2, 0, 1]).expect("valid");
        assert_eq!(p.permute_vec(&[10.0, 20.0, 30.0]), vec![20.0, 30.0, 10.0]);
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        /// Strategy: a random permutation of 0..n as a forward map.
        fn perm(n: usize) -> impl Strategy<Value = Permutation> {
            Just(()).prop_perturb(move |_, mut rng| {
                let mut fwd: Vec<Idx> = (0..n as Idx).collect();
                for i in (1..n).rev() {
                    let j = (rng.next_u64() % (i as u64 + 1)) as usize;
                    fwd.swap(i, j);
                }
                Permutation::from_forward(fwd).expect("shuffle is a bijection")
            })
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(48))]

            /// p ∘ p⁻¹ = id and (p⁻¹)⁻¹ = p.
            #[test]
            fn prop_inverse_laws(n in 1usize..40, p in (1usize..40).prop_flat_map(perm)) {
                let _ = n;
                prop_assert_eq!(p.then(&p.inverse()), Permutation::identity(p.len()));
                prop_assert_eq!(&p.inverse().inverse(), &p);
            }

            /// Vector permutation composes: (q ∘ p) v = q (p v).
            #[test]
            fn prop_permute_vec_composes(
                (p, q) in (2usize..30).prop_flat_map(|n| (perm(n), perm(n))),
            ) {
                let v: Vec<f64> = (0..p.len()).map(|i| i as f64).collect();
                let via_compose = p.then(&q).permute_vec(&v);
                let via_steps = q.permute_vec(&p.permute_vec(&v));
                prop_assert_eq!(via_compose, via_steps);
            }
        }
    }

    /// `B[p_row[i], p_col[j]] = A[i, j]` from an ordered map, under a
    /// symmetric ordering and under two independent shuffles.
    #[test]
    fn permute_csr_matches_its_definition() {
        use std::collections::BTreeMap;
        let shuffle = |n: usize, seed: u64| {
            let mut x = seed;
            let mut fwd: Vec<Idx> = (0..n as Idx).collect();
            for i in (1..n).rev() {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                fwd.swap(i, (x >> 33) as usize % (i + 1));
            }
            Permutation::from_forward(fwd).expect("shuffle is a bijection")
        };
        for (k, (name, a)) in crate::gen::tests::families().into_iter().enumerate() {
            let n = a.n_rows();
            let amd = Permutation::from_order(&crate::ordering::amd_order(&a)).expect("valid");
            let shuffles = (shuffle(n, 2 * k as u64), shuffle(n, 2 * k as u64 + 1));
            for (p, q) in [(&amd, &amd), (&shuffles.0, &shuffles.1)] {
                let mut want = BTreeMap::new();
                for i in 0..n {
                    for (j, v) in a.row_iter(i) {
                        want.insert((p.apply(i), q.apply(j)), v.to_bits());
                    }
                }
                let b = permute_csr(&a, p, q);
                let mut want_ptr = vec![0usize; n + 1];
                for &(r, _) in want.keys() {
                    want_ptr[r + 1] += 1;
                }
                for r in 0..n {
                    want_ptr[r + 1] += want_ptr[r];
                }
                let want_cols: Vec<Idx> = want.keys().map(|&(_, c)| c as Idx).collect();
                let want_vals: Vec<u64> = want.values().copied().collect();
                let vals: Vec<u64> = b.vals.iter().map(|v| v.to_bits()).collect();
                assert_eq!(b.row_ptr, want_ptr, "{name}: ptr");
                assert_eq!(b.col_idx, want_cols, "{name}: columns");
                assert_eq!(vals, want_vals, "{name}: values");
            }
        }
    }

    #[test]
    fn permute_csr_matches_dense_permutation() {
        let mut coo = Coo::new(3, 3);
        coo.push(0, 1, 1.0);
        coo.push(1, 2, 2.0);
        coo.push(2, 0, 3.0);
        let a = coo_to_csr(&coo);
        let p = Permutation::from_forward(vec![1, 2, 0]).expect("valid");
        let q = Permutation::from_forward(vec![0, 2, 1]).expect("valid");
        let b = permute_csr(&a, &p, &q);
        let ad = csr_to_dense(&a);
        let bd = csr_to_dense(&b);
        for i in 0..3 {
            for j in 0..3 {
                assert_eq!(bd[(p.apply(i), q.apply(j))], ad[(i, j)]);
            }
        }
    }
}

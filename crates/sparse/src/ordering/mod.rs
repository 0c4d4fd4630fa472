//! Fill-reducing orderings for the pre-processing step.
//!
//! The paper (Section 2, Figure 2) performs "row and column permutations ...
//! with the goals of reducing fill-ins and improving numeric stability"
//! before symbolic factorization, citing the classical direct-solver
//! literature. Two standard orderings are provided:
//!
//! * [`rcm`] — reverse Cuthill–McKee, a bandwidth-reducing BFS ordering that
//!   works well for the mesh/FEM matrices in Table 2, and
//! * [`amd`] — an approximate minimum-degree ordering on the symmetrized
//!   pattern `A + Aᵀ`, the classical fill-reduction heuristic used for the
//!   circuit-style matrices (its tests compare it against the exact
//!   greedy in `mindeg`, which is compiled for them alone).
//!
//! Both return an *ordering* (old indices in new sequence) that callers turn
//! into a [`crate::Permutation`] via [`crate::Permutation::from_order`] and
//! apply symmetrically to rows and columns so the diagonal stays intact.

pub mod amd;
#[cfg(test)]
mod mindeg;
pub mod rcm;

pub use amd::amd_order;
pub use rcm::rcm_order;

use crate::convert::{transpose_pattern, union_ascending};
use crate::{Csr, Idx};

/// Which ordering pre-processing should use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OrderingKind {
    /// Leave the matrix as given.
    Natural,
    /// Reverse Cuthill–McKee (bandwidth reduction).
    #[default]
    Rcm,
    /// Approximate minimum degree on `A + Aᵀ` (fill reduction; the
    /// production choice — see [`amd`]).
    MinDegree,
}

/// Computes the adjacency of the symmetrized pattern `A + Aᵀ` without the
/// diagonal, as a CSR-like structure. Both orderings run on this graph, as
/// is conventional for unsymmetric matrices.
///
/// Row `i` of `A` and row `i` of `Aᵀ` (column `i` of `A`) both ascend, so
/// row `i` of the result is their union: one counting transpose and a
/// merge per row, no sort.
pub fn symmetrized_adjacency(a: &Csr) -> (Vec<usize>, Vec<Idx>) {
    let n = a.n_rows();
    assert_eq!(n, a.n_cols(), "ordering requires a square matrix");
    let (tptr, trows) = transpose_pattern(a.n_cols(), &a.row_ptr, &a.col_idx, |r, c| r != c);
    let mut ptr = Vec::with_capacity(n + 1);
    ptr.push(0);
    let mut adj = Vec::with_capacity(2 * trows.len());
    for i in 0..n {
        let row = a.row_cols(i);
        let col = &trows[tptr[i]..tptr[i + 1]];
        // Split both lists at the diagonal, which drops out between them.
        let (rk, ck) = (
            row.partition_point(|&c| (c as usize) < i),
            col.partition_point(|&r| (r as usize) < i),
        );
        let above = &row[rk..];
        let above = above.strip_prefix(&[i as Idx]).unwrap_or(above);
        union_ascending(&row[..rk], &col[..ck], &mut adj);
        union_ascending(above, &col[ck..], &mut adj);
        ptr.push(adj.len());
    }
    adj.shrink_to_fit();
    (ptr, adj)
}

/// Computes an ordering of the requested kind.
pub fn order(a: &Csr, kind: OrderingKind) -> Vec<Idx> {
    match kind {
        OrderingKind::Natural => (0..a.n_rows() as Idx).collect(),
        OrderingKind::Rcm => rcm_order(a),
        OrderingKind::MinDegree => amd_order(a),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::convert::coo_to_csr;
    use crate::Coo;
    use std::collections::BTreeSet;

    #[test]
    fn symmetrized_adjacency_mirrors_edges() {
        // A = [[1, 1, 0], [0, 1, 0], [0, 1, 1]]  (edge 0-1 one way, 2-1 one way)
        let mut coo = Coo::new(3, 3);
        for i in 0..3 {
            coo.push(i, i, 1.0);
        }
        coo.push(0, 1, 1.0);
        coo.push(2, 1, 1.0);
        let a = coo_to_csr(&coo);
        let (ptr, adj) = symmetrized_adjacency(&a);
        let neigh = |u: usize| &adj[ptr[u]..ptr[u + 1]];
        assert_eq!(neigh(0), &[1]);
        assert_eq!(neigh(1), &[0, 2]);
        assert_eq!(neigh(2), &[1]);
    }

    /// Row `u` of `A + Aᵀ` without the diagonal, from ordered sets.
    #[test]
    fn symmetrized_adjacency_matches_its_definition() {
        for (name, a) in crate::gen::families() {
            let n = a.n_rows();
            let mut rows = vec![BTreeSet::new(); n];
            for i in 0..n {
                for &j in a.row_cols(i) {
                    if j as usize != i {
                        rows[i].insert(j);
                        rows[j as usize].insert(i as Idx);
                    }
                }
            }
            let (ptr, adj) = symmetrized_adjacency(&a);
            let want_adj: Vec<Idx> = rows.iter().flatten().copied().collect();
            let want_ptr: Vec<usize> = std::iter::once(0)
                .chain(rows.iter().scan(0, |acc, r| {
                    *acc += r.len();
                    Some(*acc)
                }))
                .collect();
            assert_eq!(ptr, want_ptr, "{name}: ptr");
            assert_eq!(adj, want_adj, "{name}: adj");
        }
    }

    #[test]
    fn natural_order_is_identity() {
        let a = Csr::identity(5);
        assert_eq!(order(&a, OrderingKind::Natural), vec![0, 1, 2, 3, 4]);
    }

    /// FNV-1a over the ordering, so a pin is one literal per family.
    fn fnv(order: &[Idx]) -> u64 {
        order.iter().fold(0xcbf2_9ce4_8422_2325, |h, &v| {
            (h ^ u64::from(v)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    /// Both orderings hashed per family; the literals were captured before
    /// the orderings' graph builders were made linear-time (pair sorts and
    /// a lazy-deletion heap), so any drift names the family it hit.
    #[test]
    fn amd_and_rcm_orders_are_pinned_per_family() {
        const PINS: &[(&str, u64, u64)] = &[
            ("circuit/300", 0x017f4929bc0bcf65, 0xf754f70148ed7295),
            ("planar/300", 0x5dcb0558d97ccb6f, 0x1affd80c50101223),
            ("banded/300", 0xc69b3ec8206f7c53, 0xcf50e9f873e232eb),
            ("random/300", 0xa3c6dc4a9cf0e5b3, 0x081844e6beb8815d),
            ("near_singular/300", 0x7fd983cb2bf6ea9b, 0xc8cf3540379f0d6b),
            ("graded/300", 0x5e26c47d0e417621, 0xf67686aafd3b3931),
            ("zero_diag/300", 0xad065e9d9027e301, 0x41a0a345226c23ed),
            (
                "sign_alternating/300",
                0xf8c7ed27a1b317d9,
                0xf6ce601c48cbefd1,
            ),
            ("circuit/2000", 0xe7d1d735c548fa27, 0x4ca959c95a827259),
            ("planar/2000", 0xbeb1632d1376f497, 0x87cdd9d72d4b6465),
            ("banded/2000", 0x7a90d55cb5e2adb1, 0x22655bc23dc7867d),
            ("random/2000", 0x78d5bba96a861d21, 0x43751993aa683305),
            ("near_singular/2000", 0x10fae06f80fc2269, 0x9c52f84959ba4983),
            ("graded/2000", 0xd0cc23e546e5bc35, 0x2ea07f4c14b07625),
            ("zero_diag/2000", 0xdf7e895e9fbbd0f3, 0xc926c02f9cab6583),
            (
                "sign_alternating/2000",
                0x7089986a8963eb75,
                0x8e7223db433a06e7,
            ),
        ];
        let got: Vec<(String, u64, u64)> = crate::gen::families()
            .into_iter()
            .map(|(name, a)| {
                let (amd, rcm) = (amd_order(&a), rcm_order(&a));
                (name, fnv(&amd), fnv(&rcm))
            })
            .collect();
        assert_eq!(got.len(), PINS.len(), "one pin per family and size");
        for ((name, amd, rcm), &(pin_name, pin_amd, pin_rcm)) in got.iter().zip(PINS) {
            assert_eq!(name, pin_name);
            assert_eq!(*amd, pin_amd, "{name}: AMD ordering drifted");
            assert_eq!(*rcm, pin_rcm, "{name}: RCM ordering drifted");
        }
    }
}

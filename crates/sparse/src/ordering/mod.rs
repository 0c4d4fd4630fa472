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
pub fn symmetrized_adjacency(a: &Csr) -> (Vec<usize>, Vec<Idx>) {
    let n = a.n_rows();
    assert_eq!(n, a.n_cols(), "ordering requires a square matrix");
    let mut degree = vec![0usize; n];
    // Count both directions, skipping the diagonal; duplicates (i,j) and
    // (j,i) both present are deduplicated in the fill pass below.
    let mut pairs: Vec<(Idx, Idx)> = Vec::with_capacity(a.nnz() * 2);
    for i in 0..n {
        for &j in a.row_cols(i) {
            let j = j as usize;
            if i != j {
                pairs.push((i as Idx, j as Idx));
                pairs.push((j as Idx, i as Idx));
            }
        }
    }
    pairs.sort_unstable();
    pairs.dedup();
    for &(u, _) in &pairs {
        degree[u as usize] += 1;
    }
    let mut ptr = vec![0usize; n + 1];
    for i in 0..n {
        ptr[i + 1] = ptr[i] + degree[i];
    }
    let mut adj = vec![0 as Idx; pairs.len()];
    let mut cursor = ptr.clone();
    for (u, v) in pairs {
        adj[cursor[u as usize]] = v;
        cursor[u as usize] += 1;
    }
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

    #[test]
    fn natural_order_is_identity() {
        let a = Csr::identity(5);
        assert_eq!(order(&a, OrderingKind::Natural), vec![0, 1, 2, 3, 4]);
    }
}

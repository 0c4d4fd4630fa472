//! Minimum-degree ordering on the symmetrized pattern.
//!
//! A quotient-graph-free implementation of the classical minimum-degree
//! heuristic: repeatedly eliminate a vertex of minimal current degree and
//! connect its remaining neighbours into a clique. This is the textbook
//! algorithm (the ancestor of AMD); it is O(fill) in the worst case, so it
//! is compiled only as the small-case oracle of [`super::amd`]'s tests.

use super::symmetrized_adjacency;
use crate::{Csr, Idx};
use std::cmp::Reverse;
use std::collections::{BTreeSet, BinaryHeap};

/// Computes a minimum-degree ordering of `A + Aᵀ`.
///
/// Returns old indices in new sequence.
pub fn min_degree_order(a: &Csr) -> Vec<Idx> {
    let n = a.n_rows();
    let (ptr, adj) = symmetrized_adjacency(a);

    // Mutable adjacency as ordered sets so clique insertion stays cheap to
    // deduplicate. BTreeSet keeps neighbour scans deterministic.
    let mut nbrs: Vec<BTreeSet<Idx>> = (0..n)
        .map(|u| adj[ptr[u]..ptr[u + 1]].iter().copied().collect())
        .collect();

    let mut eliminated = vec![false; n];
    // Lazy-deletion priority queue of (degree, vertex): stale entries are
    // skipped when their recorded degree no longer matches.
    let mut heap: BinaryHeap<Reverse<(usize, Idx)>> =
        (0..n).map(|u| Reverse((nbrs[u].len(), u as Idx))).collect();

    let mut order = Vec::with_capacity(n);
    while let Some(Reverse((deg, u))) = heap.pop() {
        let u = u as usize;
        if eliminated[u] || nbrs[u].len() != deg {
            continue; // stale heap entry
        }
        eliminated[u] = true;
        order.push(u as Idx);

        // Form the elimination clique among surviving neighbours.
        let clique: Vec<Idx> = nbrs[u]
            .iter()
            .copied()
            .filter(|&v| !eliminated[v as usize])
            .collect();
        for (a_pos, &v) in clique.iter().enumerate() {
            let v = v as usize;
            nbrs[v].remove(&(u as Idx));
            for &w in &clique[a_pos + 1..] {
                nbrs[v].insert(w);
                nbrs[w as usize].insert(v as Idx);
            }
        }
        for &v in &clique {
            let v = v as usize;
            heap.push(Reverse((nbrs[v].len(), v as Idx)));
        }
        nbrs[u].clear();
    }
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::convert::coo_to_csr;
    use crate::{Coo, Permutation};

    /// Star graph: centre 0 connected to all others. Minimum degree must
    /// eliminate the leaves (degree 1) before the hub (degree n-1).
    #[test]
    fn star_eliminates_leaves_first() {
        let n = 6;
        let mut coo = Coo::new(n, n);
        for i in 0..n {
            coo.push(i, i, 1.0);
        }
        for leaf in 1..n {
            coo.push(0, leaf, 1.0);
            coo.push(leaf, 0, 1.0);
        }
        let a = coo_to_csr(&coo);
        let order = min_degree_order(&a);
        // Once all but one leaf is gone the hub's degree drops to 1 and it
        // ties with the final leaf, so the hub lands in the last two slots.
        let hub_pos = order.iter().position(|&v| v == 0).expect("hub ordered");
        assert!(
            hub_pos >= n - 2,
            "hub eliminated at {hub_pos}, expected near the end"
        );
    }

    #[test]
    fn produces_valid_permutation() {
        let mut coo = Coo::new(5, 5);
        for i in 0..5 {
            coo.push(i, i, 1.0);
        }
        coo.push(0, 4, 1.0);
        coo.push(4, 0, 1.0);
        coo.push(1, 3, 1.0);
        let a = coo_to_csr(&coo);
        let order = min_degree_order(&a);
        assert!(Permutation::from_order(&order).is_ok());
    }

    /// An arrow matrix ordered hub-first produces O(n^2) fill; minimum
    /// degree should order it hub-last, producing zero fill. We verify via
    /// a simple symbolic elimination fill count.
    #[test]
    fn arrow_matrix_gets_zero_fill() {
        let n = 8;
        let mut coo = Coo::new(n, n);
        for i in 0..n {
            coo.push(i, i, 4.0);
        }
        for i in 1..n {
            coo.push(0, i, 1.0);
            coo.push(i, 0, 1.0);
        }
        let a = coo_to_csr(&coo);
        let order = min_degree_order(&a);
        let p = Permutation::from_order(&order).expect("valid");
        let b = crate::perm::permute_csr(&a, &p, &p);

        // Count fill of symmetric elimination on the permuted pattern.
        let mut rows: Vec<std::collections::BTreeSet<usize>> = (0..n)
            .map(|i| b.row_cols(i).iter().map(|&c| c as usize).collect())
            .collect();
        let mut fill = 0usize;
        for k in 0..n {
            let later: Vec<usize> = rows[k].iter().copied().filter(|&j| j > k).collect();
            for (ai, &i) in later.iter().enumerate() {
                for &j in &later[ai + 1..] {
                    if rows[i].insert(j) {
                        fill += 1;
                    }
                    if rows[j].insert(i) {
                        fill += 1;
                    }
                }
            }
        }
        assert_eq!(
            fill, 0,
            "min-degree ordering of an arrow matrix is fill-free"
        );
    }
}

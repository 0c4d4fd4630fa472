//! Column dependency graph of the filled matrix.

use gplu_sparse::convert::{transpose_pattern, union_ascending};
use gplu_sparse::{Csr, Idx};

/// The dependency DAG: an edge `t → j` (with `t < j` always) means column
/// `j` must be factorized after column `t`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DepGraph {
    /// Out-edge offsets (`ptr[t]..ptr[t+1]` indexes `adj`).
    pub ptr: Vec<usize>,
    /// Out-edge targets, ascending within each source.
    pub adj: Vec<Idx>,
    /// In-degree of each column.
    pub indegree: Vec<u32>,
}

impl DepGraph {
    /// Builds the dependency graph from the filled pattern `As`.
    ///
    /// Every structural entry `(r, c)` with `r ≠ c` contributes the edge
    /// `min(r,c) → max(r,c)`: `c > r` is the paper's U dependency
    /// (`U(r,c) ≠ 0` ⇒ column `c` after column `r`), `c < r` is the
    /// L-side ordering GLU 3.0's relaxed detection adds. Duplicates (a
    /// symmetric pair) are merged.
    ///
    /// Out-list of `t` = row `t` above the diagonal ∪ column `t` below it.
    /// Both ascend (the second from one counting transpose of the strict
    /// lower part), so each list is a merge, with no sort of the pairs.
    pub fn build(filled: &Csr) -> DepGraph {
        let n = filled.n_rows();
        let (lptr, lrows) = transpose_pattern(filled, |r, c| c < r);
        let mut ptr = Vec::with_capacity(n + 1);
        ptr.push(0);
        let mut adj = Vec::with_capacity(filled.nnz());
        for t in 0..n {
            let row = filled.row_cols(t);
            let above = &row[row.partition_point(|&c| c as usize <= t)..];
            union_ascending(above, &lrows[lptr[t]..lptr[t + 1]], &mut adj);
            ptr.push(adj.len());
        }
        adj.shrink_to_fit();
        let mut indegree = vec![0u32; n];
        for &j in &adj {
            indegree[j as usize] += 1;
        }
        DepGraph { ptr, adj, indegree }
    }

    /// Number of columns.
    pub fn n(&self) -> usize {
        self.indegree.len()
    }

    /// Number of dependency edges.
    pub fn n_edges(&self) -> usize {
        self.adj.len()
    }

    /// Out-edges of column `t`.
    #[inline]
    pub fn out(&self, t: usize) -> &[Idx] {
        &self.adj[self.ptr[t]..self.ptr[t + 1]]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gplu_sparse::convert::coo_to_csr;
    use gplu_sparse::Coo;

    /// Filled pattern:
    /// ```text
    ///   x . x
    ///   . x .
    ///   x . x
    /// ```
    /// Entry (0,2) gives the U edge 0→2; entry (2,0) the L edge 0→2 — the
    /// pair must merge into one edge.
    #[test]
    fn symmetric_pair_merges() {
        let mut c = Coo::new(3, 3);
        for i in 0..3 {
            c.push(i, i, 1.0);
        }
        c.push(0, 2, 1.0);
        c.push(2, 0, 1.0);
        let g = DepGraph::build(&coo_to_csr(&c));
        assert_eq!(g.n_edges(), 1);
        assert_eq!(g.out(0), &[2]);
        assert_eq!(g.indegree, vec![0, 0, 1]);
    }

    #[test]
    fn l_only_entry_still_creates_edge() {
        // As(2,1) ≠ 0 with no As(1,2): GLU 3.0's second dependency family.
        let mut c = Coo::new(3, 3);
        for i in 0..3 {
            c.push(i, i, 1.0);
        }
        c.push(2, 1, 1.0);
        let g = DepGraph::build(&coo_to_csr(&c));
        assert_eq!(g.out(1), &[2]);
    }

    #[test]
    fn edges_always_point_upward() {
        let a = gplu_sparse::gen::random::random_dominant(50, 4.0, 5);
        let g = DepGraph::build(&a);
        for t in 0..50 {
            for &j in g.out(t) {
                assert!(j as usize > t, "edge {t} -> {j} must ascend");
            }
        }
    }

    /// Edges `min(r, c) → max(r, c)` over the off-diagonal entries, from an
    /// ordered set, on every generator family at two sizes.
    #[test]
    fn build_matches_its_definition() {
        use gplu_sparse::gen::{circuit, hard::HardKind, planar, random};
        use std::collections::BTreeSet;
        for n in [300usize, 2000] {
            let seed = n as u64;
            let mut mats = vec![
                circuit::circuit(&circuit::CircuitParams {
                    n,
                    nnz_per_row: 7.0,
                    seed,
                    ..Default::default()
                }),
                planar::planar(&planar::PlanarParams::for_target(n, 5.0, seed)),
                random::banded_dominant(n, 3, seed),
                random::random_dominant(n, 5.0, seed),
            ];
            mats.extend(HardKind::ALL.iter().map(|k| k.generate(n, seed)));
            for (m, a) in mats.iter().enumerate() {
                let n = a.n_rows();
                let mut out = vec![BTreeSet::new(); n];
                for r in 0..n {
                    for &c in a.row_cols(r) {
                        let c = c as usize;
                        if c != r {
                            out[r.min(c)].insert(r.max(c) as Idx);
                        }
                    }
                }
                let mut ptr = vec![0usize];
                let mut indegree = vec![0u32; n];
                for s in &out {
                    ptr.push(ptr.last().expect("starts at 0") + s.len());
                    for &j in s {
                        indegree[j as usize] += 1;
                    }
                }
                let adj: Vec<Idx> = out.iter().flatten().copied().collect();
                let want = DepGraph { ptr, adj, indegree };
                assert_eq!(DepGraph::build(a), want, "matrix {m} at n = {n}");
            }
        }
    }

    #[test]
    fn diagonal_only_matrix_has_no_edges() {
        let g = DepGraph::build(&Csr::identity(4));
        assert_eq!(g.n_edges(), 0);
        assert_eq!(g.indegree, vec![0; 4]);
    }
}

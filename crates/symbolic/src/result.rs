//! Symbolic-phase result types.

use gplu_sparse::{Csr, Idx, Val};

/// Aggregate traversal metrics over all rows.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SymbolicMetrics {
    /// Total frontier BFS steps.
    pub steps: u64,
    /// Total adjacency entries scanned.
    pub edges: u64,
    /// Total frontier vertices processed.
    pub frontiers: u64,
}

/// The output of symbolic factorization: the filled pattern `As`, with
/// `A`'s values at original positions and explicit zeros at fill-ins —
/// exactly the "non-zero filled-in matrix of A after symbolic analysis"
/// that the paper's Algorithm 2 takes as input.
#[derive(Debug, Clone, Default)]
pub struct SymbolicResult {
    /// The filled matrix `As` in CSR form (values populated from `A`).
    pub filled: Csr,
    /// Per-row nonzero counts of `As` (the stage-1 `fill_count` array).
    pub fill_count: Vec<u32>,
    /// Traversal metrics.
    pub metrics: SymbolicMetrics,
}

impl SymbolicResult {
    /// Assembles the result from per-row **sorted** patterns and the
    /// original matrix (for values).
    pub fn from_patterns(a: &Csr, patterns: Vec<Vec<Idx>>, metrics: SymbolicMetrics) -> Self {
        let n = a.n_rows();
        assert_eq!(patterns.len(), n, "one pattern per row required");
        let fill_count: Vec<u32> = patterns.iter().map(|p| p.len() as u32).collect();
        let nnz: usize = patterns.iter().map(Vec::len).sum();
        let mut row_ptr = Vec::with_capacity(n + 1);
        row_ptr.push(0usize);
        let mut col_idx = Vec::with_capacity(nnz);
        let mut vals = vec![0.0 as Val; nnz];
        for (i, pat) in patterns.iter().enumerate() {
            debug_assert!(
                pat.windows(2).all(|w| w[0] < w[1]),
                "row {i} pattern unsorted"
            );
            let base = col_idx.len();
            col_idx.extend_from_slice(pat);
            // Scatter A's values into the (sorted) filled row by a merged
            // scan: both sequences are ascending.
            let mut k = base;
            for (j, v) in a.row_iter(i) {
                while col_idx[k] != j as Idx {
                    k += 1;
                }
                vals[k] = v;
                k += 1;
            }
            row_ptr.push(col_idx.len());
        }
        let filled = Csr::from_parts_unchecked(n, a.n_cols(), row_ptr, col_idx, vals);
        SymbolicResult {
            filled,
            fill_count,
            metrics,
        }
    }

    /// Number of nonzeros in the filled matrix.
    pub fn fill_nnz(&self) -> usize {
        self.filled.nnz()
    }

    /// Number of *new* fill-ins relative to the original matrix.
    pub fn new_fill_ins(&self, a: &Csr) -> usize {
        self.fill_nnz() - a.nnz()
    }

    /// Fill ratio `nnz(As) / nnz(A)` — the growth the out-of-core design
    /// has to absorb.
    pub fn fill_ratio(&self, a: &Csr) -> f64 {
        self.fill_nnz() as f64 / a.nnz() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gplu_sparse::convert::coo_to_csr;
    use gplu_sparse::Coo;

    fn small() -> Csr {
        let mut c = Coo::new(3, 3);
        c.push(0, 0, 1.0);
        c.push(0, 2, 5.0);
        c.push(1, 1, 2.0);
        c.push(2, 0, 4.0);
        c.push(2, 2, 3.0);
        coo_to_csr(&c)
    }

    #[test]
    fn values_scattered_zeros_at_fill() {
        let a = small();
        // Pretend symbolic found fill-in (2, 1).
        let patterns = vec![vec![0, 2], vec![1], vec![0, 1, 2]];
        let r = SymbolicResult::from_patterns(&a, patterns, SymbolicMetrics::default());
        assert_eq!(r.filled.get(0, 2), Some(5.0));
        assert_eq!(
            r.filled.get(2, 1),
            Some(0.0),
            "fill-in must be explicit zero"
        );
        assert_eq!(r.filled.get(2, 2), Some(3.0));
        assert_eq!(r.new_fill_ins(&a), 1);
        assert!((r.fill_ratio(&a) - 6.0 / 5.0).abs() < 1e-12);
        assert_eq!(r.fill_count, vec![2, 1, 3]);
    }
}

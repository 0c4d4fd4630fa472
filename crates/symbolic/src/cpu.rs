//! The "modified GLU 3.0" parallel CPU symbolic baseline.
//!
//! The paper's Figure 4 baseline runs symbolic factorization on the
//! 28-thread host. Functionally this is the same fill2 traversal as the
//! GPU versions, parallelised across source rows on the host pool with one
//! workspace per worker; its simulated cost comes from
//! [`CostModel::cpu_parallel_ns`] over the edges actually scanned.

use crate::fill2::Traversals;
use crate::result::SymbolicResult;
use gplu_sim::{CostModel, SimTime};
use gplu_sparse::Csr;

/// Outcome of the CPU baseline: the symbolic result plus its simulated
/// wall time on the 28-thread host.
#[derive(Debug, Clone)]
pub struct CpuOutcome {
    /// The factorization pattern (identical across all implementations).
    pub result: SymbolicResult,
    /// Simulated CPU time.
    pub time: SimTime,
}

/// Runs parallel CPU symbolic factorization.
pub fn symbolic_cpu(a: &Csr, cost: &CostModel) -> CpuOutcome {
    let traversals = Traversals::new(a);
    traversals.traverse_all();
    let result = traversals.into_result();
    // Simulated cost: every scanned edge plus every emitted entry is one
    // irregular memory-bound item on the host.
    let items = result.metrics.edges + result.fill_nnz() as u64;
    let time = SimTime::from_ns(cost.cpu_parallel_ns(items));
    CpuOutcome { result, time }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::fill_by_elimination;
    use gplu_sparse::gen::random::random_dominant;

    #[test]
    fn matches_reference_pattern() {
        let a = random_dominant(60, 4.0, 3);
        let out = symbolic_cpu(&a, &CostModel::default());
        let oracle = fill_by_elimination(&a);
        for (i, want) in oracle.iter().enumerate() {
            assert_eq!(out.result.filled.row_cols(i), &want[..], "row {i}");
        }
    }

    #[test]
    fn time_scales_with_work() {
        let cost = CostModel::default();
        let small = symbolic_cpu(&random_dominant(40, 3.0, 1), &cost);
        let large = symbolic_cpu(&random_dominant(400, 6.0, 1), &cost);
        assert!(large.time > small.time);
    }

    #[test]
    fn values_preserved_fill_zeroed() {
        let a = random_dominant(30, 4.0, 7);
        let out = symbolic_cpu(&a, &CostModel::default());
        for i in 0..30 {
            for (j, v) in a.row_iter(i) {
                assert_eq!(out.result.filled.get(i, j), Some(v));
            }
        }
        // Any entries beyond A's are zeros.
        let extra = out.result.fill_nnz() - a.nnz();
        let zeros = out.result.filled.vals.iter().filter(|&&v| v == 0.0).count();
        assert!(zeros >= extra);
    }
}

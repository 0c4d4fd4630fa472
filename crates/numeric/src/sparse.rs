//! Sorted-CSC GPU numeric factorization with binary-search access — the
//! paper's third contribution (Section 3.4, Algorithm 6).
//!
//! No per-column dense buffers: the factor stays in sorted CSC the whole
//! time, so the only per-column device state is registers/shared memory
//! and **all `TB_max` thread blocks can be resident** regardless of `n`.
//! The price is that each target row must be located by binary search
//! within its column (the ascending `row_idx` makes Algorithm 6 exact);
//! the probe count is charged by the cost model at a reduced per-probe
//! weight (the upper levels of the search tree stay cache-resident).
//!
//! That is the *device* kernel being modelled and priced. The host
//! executes the same per-position arithmetic in the kernel core's dense
//! accumulator, as every engine does, and reports the search's iteration
//! count (`probes`) in closed form — see
//! [`crate::outcome::AccessDiscipline::BinarySearch`].
//!
//! The level loop, the kernel body and the counters live in
//! [`crate::engine`]; this module states only the probe surcharge and the
//! forced-mode ablation knob.

use crate::engine::{LevelRun, NumericEngine};
use crate::error::NumericError;
use crate::fleet::run_on;
use crate::modes::{classify_level_cached, LevelType};
use crate::outcome::{AccessDiscipline, NumericOutcome, PivotCache, PivotRule};
use gplu_schedule::Levels;
use gplu_sim::{BlockCtx, Gpu};
use gplu_sparse::{Csc, Idx};
use gplu_trace::NOOP;

/// Fraction of a full work-item each binary-search probe costs (probes hit
/// mostly cache-resident tree levels; the leaf access is already counted
/// as the update item itself). This is the default of the cost model's
/// `probe_weight` knob; the kernel charges through
/// [`gplu_sim::CostModel::probe_flop_items`].
pub const PROBE_WEIGHT: f64 = 0.12;

/// The binary-search numeric engine (Algorithm 6), with GLU 3.0's
/// forced-mode ablation knob.
pub struct SparseEngine {
    force: Option<LevelType>,
}

impl SparseEngine {
    /// The engine, with every level's mode classification overridden to
    /// `force` when given.
    pub fn new(force: Option<LevelType>) -> SparseEngine {
        SparseEngine { force }
    }
}

impl NumericEngine for SparseEngine {
    fn kernel_name(&self) -> &'static str {
        "numeric_sparse"
    }

    fn discipline(&self) -> AccessDiscipline {
        AccessDiscipline::BinarySearch
    }

    fn classify(&self, pattern: &Csc, cache: &PivotCache, cols: &[Idx]) -> LevelType {
        self.force
            .unwrap_or_else(|| classify_level_cached(pattern, cache, cols))
    }

    // Each located access pays log2(col_nnz) probes at the reduced probe
    // weight, on top of the item itself (all at the structured flop rate;
    // the chain-free right-looking charge, as in the dense engine).
    fn price(&self, run: &LevelRun<'_>, col: usize, items: u64, ctx: &mut BlockCtx<'_>) {
        let stripes = run.stripes as u64;
        let nnz_col = (run.pattern.col_ptr[col + 1] - run.pattern.col_ptr[col]).max(1) as u64;
        let probe_items = run.gpu.cost().probe_flop_items(items, nnz_col);
        ctx.bulk_flops(3, (items + probe_items) / stripes);
        ctx.mem(items * 8 / stripes);
    }
}

/// Factorizes the filled matrix in the sorted-CSC format (Algorithm 6).
pub fn factorize_gpu_sparse(
    gpu: &Gpu,
    pattern: &Csc,
    levels: &Levels,
) -> Result<NumericOutcome, NumericError> {
    factorize_gpu_sparse_forced(gpu, pattern, levels, None)
}

/// As [`factorize_gpu_sparse`], but with the per-level A/B/C mode
/// classification overridden to a single `force`d type — the ablation knob
/// for GLU 3.0's adaptive kernel modes (paper Section 2.2).
pub fn factorize_gpu_sparse_forced(
    gpu: &Gpu,
    pattern: &Csc,
    levels: &Levels,
    force: Option<LevelType>,
) -> Result<NumericOutcome, NumericError> {
    run_on(
        SparseEngine::new(force),
        &gpu.into(),
        pattern,
        levels,
        &NOOP,
        None,
        None,
        None,
        PivotRule::Exact,
    )
    .map(|run| run.outcome)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dense::factorize_gpu_dense;
    use gplu_schedule::{levelize_cpu, DepGraph};
    use gplu_sim::{CostModel, GpuConfig};
    use gplu_sparse::convert::csr_to_csc;
    use gplu_sparse::gen::random::{banded_dominant, random_dominant};
    use gplu_sparse::verify::residual_probe;
    use gplu_symbolic::symbolic_cpu;

    fn setup(a: &gplu_sparse::Csr) -> (Csc, Levels) {
        let sym = symbolic_cpu(a, &CostModel::default());
        let g = DepGraph::build(&sym.result.filled);
        let levels = levelize_cpu(&g, &CostModel::default()).levels;
        (csr_to_csc(&sym.result.filled), levels)
    }

    #[test]
    fn matches_dense_engine_bitwise() {
        let a = random_dominant(100, 4.0, 81);
        let (pattern, levels) = setup(&a);
        let sparse = factorize_gpu_sparse(&Gpu::new(GpuConfig::v100()), &pattern, &levels)
            .expect("sparse ok");
        let dense =
            factorize_gpu_dense(&Gpu::new(GpuConfig::v100()), &pattern, &levels).expect("dense ok");
        assert_eq!(
            sparse.lu.vals, dense.lu.vals,
            "identical update order ⇒ identical bits"
        );
        assert!(residual_probe(&a, &sparse.lu, 3) < 1e-10);
    }

    #[test]
    fn counts_binary_search_probes() {
        let a = banded_dominant(200, 4, 82);
        let (pattern, levels) = setup(&a);
        let out =
            factorize_gpu_sparse(&Gpu::new(GpuConfig::v100()), &pattern, &levels).expect("ok");
        assert!(
            out.probes > pattern.nnz() as u64 / 2,
            "probes {} too few",
            out.probes
        );
        assert!(out.m_limit.is_none());
    }

    #[test]
    fn beats_dense_when_dense_is_block_starved() {
        // The Figure 8 situation: a device whose free memory fits only a
        // handful of dense column buffers, while CSC fits entirely.
        let a = banded_dominant(2000, 6, 83);
        let (pattern, levels) = setup(&a);
        let csc_bytes = ((2000 + 1) as u64 + 2 * pattern.nnz() as u64) * 4;
        let mem = csc_bytes + 2000 * 4 + 20 * 2000 * 4 + 1024; // M ≈ 20 < 160
        let dense_out = factorize_gpu_dense(
            &Gpu::new(GpuConfig::v100().with_memory(mem)),
            &pattern,
            &levels,
        )
        .expect("dense ok");
        let sparse_out = factorize_gpu_sparse(
            &Gpu::new(GpuConfig::v100().with_memory(mem)),
            &pattern,
            &levels,
        )
        .expect("sparse ok");
        assert!(
            sparse_out.time < dense_out.time,
            "sparse {} must beat block-starved dense {}",
            sparse_out.time,
            dense_out.time
        );
    }

    #[test]
    fn frees_device_memory() {
        let a = random_dominant(64, 3.0, 84);
        let (pattern, levels) = setup(&a);
        let gpu = Gpu::new(GpuConfig::v100());
        factorize_gpu_sparse(&gpu, &pattern, &levels).expect("ok");
        assert_eq!(gpu.mem.used_bytes(), 0);
    }

    #[test]
    fn singular_pivot_is_typed() {
        // Rank-deficient 2x2 of all ones: column 1's pivot cancels to zero.
        let mut coo = gplu_sparse::Coo::new(2, 2);
        for i in 0..2 {
            for j in 0..2 {
                coo.push(i, j, 1.0);
            }
        }
        let a = gplu_sparse::convert::coo_to_csr(&coo);
        let (pattern, levels) = setup(&a);
        let err =
            factorize_gpu_sparse(&Gpu::new(GpuConfig::v100()), &pattern, &levels).unwrap_err();
        assert!(
            matches!(err, crate::NumericError::SingularPivot { col: 1, .. }),
            "want SingularPivot in column 1, got {err}"
        );
    }
}

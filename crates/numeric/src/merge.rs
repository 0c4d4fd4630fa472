//! Sorted-CSC GPU numeric factorization with **merge-join** access — the
//! streaming refinement of the paper's Algorithm 6.
//!
//! Algorithm 6 keeps the factor in sorted CSC and locates every update
//! target with a per-element binary search: `O(log nnz_j)` probes per
//! multiply–add, `O(nnz · log nnz)` over the factorization. But *both*
//! sides of an update are sorted by row — the source segment (the rows of
//! column `t` below its diagonal) and the destination column `j` — so a
//! two-pointer merge-join locates the same positions with one forward walk:
//! `O(nnz_t + nnz_j)` per update, `O(nnz)` overall, and perfectly coalesced
//! (both cursors only move forward).
//!
//! The cost model prices this as the pure item stream — no probe surcharge
//! (compare [`crate::sparse`], which charges
//! [`gplu_sim::CostModel::probe_flop_items`] on top). Like the
//! binary-search engine it needs no per-column dense buffers, so all
//! `TB_max` blocks stay resident regardless of `n`.
//!
//! That is the *device* kernel being modelled and priced. The host
//! executes the same per-position arithmetic in the kernel core's dense
//! accumulator and reports the walk's cursor advances (`merge_steps`) in
//! closed form — see [`crate::outcome::AccessDiscipline::Merge`].
//!
//! The level loop, the kernel body and the counters live in
//! [`crate::engine`]; this module states only the streaming price.

use crate::engine::{LevelRun, NumericEngine};
use crate::error::NumericError;
use crate::fleet::run_on;
use crate::outcome::{AccessDiscipline, NumericOutcome, PivotCache, PivotRule};
use crate::resume::{LevelHook, NumericResume};
use gplu_schedule::Levels;
use gplu_sim::{BlockCtx, Gpu};
use gplu_sparse::Csc;
use gplu_trace::{TraceSink, NOOP};

/// The merge-join numeric engine: streaming two-pointer update location,
/// priced as the pure item stream.
#[derive(Default)]
pub struct MergeEngine;

impl NumericEngine for MergeEngine {
    fn kernel_name(&self) -> &'static str {
        "numeric_merge"
    }

    fn discipline(&self) -> AccessDiscipline {
        AccessDiscipline::Merge
    }

    // Streaming traffic only: the merge cursors advance once per touched
    // entry, so the whole update is the item stream at the structured flop
    // rate — no probe surcharge, and the same value-stream bytes as the
    // binary-search engine (the index bytes the cursor walk touches ride
    // the same cache lines).
    fn price(&self, run: &LevelRun<'_>, _col: usize, items: u64, ctx: &mut BlockCtx<'_>) {
        ctx.bulk_flops(3, items / run.stripes as u64);
        ctx.mem(items * 8 / run.stripes as u64);
    }
}

/// Factorizes the filled matrix in sorted CSC with merge-join access.
pub fn factorize_gpu_merge(
    gpu: &Gpu,
    pattern: &Csc,
    levels: &Levels,
) -> Result<NumericOutcome, NumericError> {
    factorize_gpu_merge_run_cached(
        gpu,
        pattern,
        levels,
        &NOOP,
        None,
        None,
        None,
        PivotRule::Exact,
    )
}

/// Full-control entry point: [`factorize_gpu_merge`] with telemetry (one
/// `numeric.level` span per schedule level; the end event carries the
/// level's width, its A/B/C mode, and the merge-cursor steps the level
/// contributed), optional level-granular resume state, a per-level
/// checkpoint hook, and an optional prebuilt [`PivotCache`] (the
/// pattern-keyed refactorization fast path: the cache is pattern-only, so
/// a service factorizing the same pattern repeatedly builds it once).
///
/// Every run — cold, resumed or warm — follows the launch rule of
/// [`crate::engine`]: without a `hook`, the host launches the first
/// executed level and every later one continues that kernel behind an
/// in-kernel dependency wait, priced by
/// [`gplu_sim::CostModel::launch_ns`]; with one, every level is a host
/// launch.
#[allow(clippy::too_many_arguments)]
pub fn factorize_gpu_merge_run_cached(
    gpu: &Gpu,
    pattern: &Csc,
    levels: &Levels,
    trace: &dyn TraceSink,
    resume: Option<&NumericResume>,
    hook: Option<&mut LevelHook<'_>>,
    pivot: Option<&PivotCache>,
    rule: PivotRule,
) -> Result<NumericOutcome, NumericError> {
    run_on(
        MergeEngine,
        &gpu.into(),
        pattern,
        levels,
        trace,
        resume,
        hook,
        pivot,
        rule,
    )
    .map(|run| run.outcome)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sparse::factorize_gpu_sparse;
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
    fn matches_binary_search_engine_bitwise() {
        let a = random_dominant(100, 4.0, 91);
        let (pattern, levels) = setup(&a);
        let merge =
            factorize_gpu_merge(&Gpu::new(GpuConfig::v100()), &pattern, &levels).expect("merge ok");
        let bsearch = factorize_gpu_sparse(&Gpu::new(GpuConfig::v100()), &pattern, &levels)
            .expect("bsearch ok");
        assert_eq!(
            merge.lu.vals, bsearch.lu.vals,
            "identical update order ⇒ identical bits"
        );
        assert!(residual_probe(&a, &merge.lu, 3) < 1e-10);
    }

    #[test]
    fn counts_merge_steps_not_probes() {
        let a = banded_dominant(200, 4, 92);
        let (pattern, levels) = setup(&a);
        let out = factorize_gpu_merge(&Gpu::new(GpuConfig::v100()), &pattern, &levels).expect("ok");
        assert_eq!(out.probes, 0);
        assert!(
            out.merge_steps > 0,
            "merge must report its streaming traffic"
        );
        assert!(out.m_limit.is_none());
    }

    #[test]
    fn beats_binary_search_in_simulated_time() {
        // Same launches, same item streams — the only difference is the
        // probe surcharge, so merge must come out strictly faster.
        let a = banded_dominant(2000, 6, 93);
        let (pattern, levels) = setup(&a);
        let merge =
            factorize_gpu_merge(&Gpu::new(GpuConfig::v100()), &pattern, &levels).expect("merge ok");
        let bsearch = factorize_gpu_sparse(&Gpu::new(GpuConfig::v100()), &pattern, &levels)
            .expect("bsearch ok");
        assert!(
            merge.time < bsearch.time,
            "merge {} must beat binary search {}",
            merge.time,
            bsearch.time
        );
    }

    #[test]
    fn frees_device_memory() {
        let a = random_dominant(64, 3.0, 94);
        let (pattern, levels) = setup(&a);
        let gpu = Gpu::new(GpuConfig::v100());
        factorize_gpu_merge(&gpu, &pattern, &levels).expect("ok");
        assert_eq!(gpu.mem.used_bytes(), 0);
    }

    #[test]
    fn singular_pivot_is_typed() {
        let mut coo = gplu_sparse::Coo::new(2, 2);
        for i in 0..2 {
            for j in 0..2 {
                coo.push(i, j, 1.0);
            }
        }
        let a = gplu_sparse::convert::coo_to_csr(&coo);
        let (pattern, levels) = setup(&a);
        let err = factorize_gpu_merge(&Gpu::new(GpuConfig::v100()), &pattern, &levels).unwrap_err();
        assert!(
            matches!(err, crate::NumericError::SingularPivot { col: 1, .. }),
            "want SingularPivot in column 1, got {err}"
        );
    }
}

//! Structure-aware **blocked** GPU numeric factorization — irregular
//! supernode blocks updated with tiled BLAS-3 kernels.
//!
//! LU fill makes the trailing columns of a sparse factor progressively
//! denser, and columns that are adjacent in the (fill-reducing) ordering
//! tend to acquire near-identical sub-diagonal patterns — the classic
//! supernode effect. A post-symbolic blocking pass ([`BlockPlan::detect`])
//! scans the filled pattern once and greedily groups adjacent columns
//! whose sub-diagonal row sets match above a Jaccard-similarity threshold
//! into irregular blocks of width ≤ [`TILE_WIDTH`].
//!
//! Columns inside a block share (almost) one source tile: their updates
//! read the same dependency segments and write row-sets that coincide, so
//! the hot update loop becomes a `TILE_WIDTH × TILE_WIDTH`-tiled dense
//! block update. The cost model prices block-member columns at the
//! pipelined GEMM rate ([`gplu_sim::CostModel::gemm_flop_ns`], ~3× the
//! streamed flop rate) with tile-granular traffic
//! ([`gplu_sim::CostModel::tiled_mem_bytes`]: the shared tile is fetched
//! once per block, not once per column). Singleton columns are priced
//! exactly like the merge engine — a plan with zero blocks degenerates to
//! the merge engine bit-for-bit *and* cost-for-cost.
//!
//! Correctness is inherited, not re-proven: the engine is a price list
//! over the one kernel body in [`crate::engine`] (merge discipline), so
//! every column runs the shared kernel core under the unchanged level
//! schedule and the arithmetic order — and therefore every bit of the
//! factor — is identical to the merge/sequential engines. Blocking
//! changes only what the simulator charges for it, and adds the tile
//! count and the block attributes of each level's span.

use crate::engine::{EngineCounters, LevelRun, NumericEngine};
use crate::error::NumericError;
use crate::fleet::run_on;
use crate::outcome::{AccessDiscipline, NumericOutcome, PivotCache, PivotRule};
use crate::resume::{LevelHook, NumericResume};
use gplu_schedule::Levels;
use gplu_sim::{BlockCtx, Gpu};
use gplu_sparse::Csc;
use gplu_trace::{AttrValue, TraceSink, NOOP};
use std::cmp::Ordering;
use std::collections::HashSet;

/// Side of the square dense update tile (and the width cap of a supernode
/// block): a `TILE_WIDTH × TILE_WIDTH` tile per thread block, the shape of
/// the classic shared-memory GEMM kernel.
pub const TILE_WIDTH: usize = 32;

/// Default Jaccard-similarity threshold for chaining adjacent columns into
/// a block. Empirically (BENCH_blocked_numeric.json): high enough that
/// circuit/random patterns stay unblocked, low enough that the near-dense
/// trailing columns of planar/mesh fills chain up.
pub const DEFAULT_BLOCK_THRESHOLD: f64 = 0.6;

/// The blocking plan: which adjacent column runs form irregular supernode
/// blocks. Pattern-only (like the [`PivotCache`]), so a refactorization
/// service captures it once per pattern and replays it warm without
/// re-scanning.
#[derive(Debug, Clone, PartialEq)]
pub struct BlockPlan {
    /// Supernode blocks as `(first column, width)`, width ≥ 2, columns
    /// adjacent, ascending and non-overlapping.
    blocks: Vec<(u32, u32)>,
    /// Column → its block id, or `u32::MAX` for singletons.
    block_of: Vec<u32>,
    /// The similarity threshold the plan was detected with.
    pub threshold: f64,
}

impl BlockPlan {
    /// Scans the filled pattern once, greedily chaining adjacent columns
    /// whose sub-diagonal row sets have Jaccard similarity ≥ `threshold`
    /// into blocks of width ≤ [`TILE_WIDTH`].
    ///
    /// The comparison for a candidate pair `(j, j+1)` restricts column `j`
    /// to rows strictly below `j+1` — the rows the two columns could share
    /// as BLAS-3 update targets. One merged walk over the two sorted row
    /// lists, `O(nnz)` over the whole pattern.
    pub fn detect(pattern: &Csc, cache: &PivotCache, threshold: f64) -> BlockPlan {
        let n = pattern.n_cols();
        let mut block_of = vec![u32::MAX; n];
        let mut blocks = Vec::new();
        let mut j = 0usize;
        while j < n {
            let mut w = 1usize;
            while j + w < n
                && w < TILE_WIDTH
                && pair_similarity(pattern, cache, j + w - 1, j + w) >= threshold
            {
                w += 1;
            }
            if w >= 2 {
                let id = blocks.len() as u32;
                blocks.push((j as u32, w as u32));
                for b in &mut block_of[j..j + w] {
                    *b = id;
                }
            }
            j += w;
        }
        BlockPlan {
            blocks,
            block_of,
            threshold,
        }
    }

    /// Number of supernode blocks (width ≥ 2) found.
    pub fn n_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// Number of columns the plan covers.
    pub fn n_cols(&self) -> usize {
        self.block_of.len()
    }

    /// Columns that are members of some block.
    pub fn blocked_cols(&self) -> usize {
        self.blocks.iter().map(|&(_, w)| w as usize).sum()
    }

    /// Width of the block containing `col` (1 for singletons).
    #[inline]
    pub fn width_of(&self, col: usize) -> u32 {
        match self.block_of[col] {
            u32::MAX => 1,
            id => self.blocks[id as usize].1,
        }
    }

    /// Block id of `col`, if it is a block member.
    #[inline]
    pub fn block_id(&self, col: usize) -> Option<u32> {
        let id = self.block_of[col];
        (id != u32::MAX).then_some(id)
    }

    /// Mean supernode width: columns per group, counting every singleton
    /// as a group of one. 1.0 when nothing blocked; approaches
    /// [`TILE_WIDTH`] as the pattern goes dense.
    pub fn mean_width(&self) -> f64 {
        let groups = self.n_cols() - self.blocked_cols() + self.blocks.len();
        if groups == 0 {
            1.0
        } else {
            self.n_cols() as f64 / groups as f64
        }
    }

    /// Approximate heap footprint, for cache budget accounting.
    pub fn approx_bytes(&self) -> u64 {
        (self.block_of.len() * 4 + self.blocks.len() * 8 + 16) as u64
    }
}

/// Jaccard similarity of the sub-diagonal row sets of adjacent columns
/// `j` and `k = j + 1`, with column `j` restricted to rows strictly below
/// `k`. Both row lists are sorted, so one forward merge walk suffices.
fn pair_similarity(pattern: &Csc, cache: &PivotCache, j: usize, k: usize) -> f64 {
    debug_assert_eq!(k, j + 1);
    let a = &pattern.row_idx[cache.lower_start(j)..pattern.col_ptr[j + 1]];
    let b = &pattern.row_idx[cache.lower_start(k)..pattern.col_ptr[k + 1]];
    // Drop column j's rows at or above k (at most the single row k, since
    // everything here is already > j).
    let a = &a[a.partition_point(|&r| (r as usize) <= k)..];
    if a.is_empty() && b.is_empty() {
        // Two trailing columns with no sub-diagonal at all: identical.
        return 1.0;
    }
    let (mut ia, mut ib, mut inter) = (0usize, 0usize, 0usize);
    while ia < a.len() && ib < b.len() {
        match a[ia].cmp(&b[ib]) {
            Ordering::Less => ia += 1,
            Ordering::Greater => ib += 1,
            Ordering::Equal => {
                inter += 1;
                ia += 1;
                ib += 1;
            }
        }
    }
    let union = a.len() + b.len() - inter;
    inter as f64 / union as f64
}

/// The blocked numeric engine: merge-join arithmetic, BLAS-3 pricing for
/// supernode-member columns.
pub struct BlockedEngine<'p> {
    plan: &'p BlockPlan,
}

impl<'p> BlockedEngine<'p> {
    /// The engine over a precomputed blocking `plan`.
    pub fn new(plan: &'p BlockPlan) -> BlockedEngine<'p> {
        BlockedEngine { plan }
    }
}

impl NumericEngine for BlockedEngine<'_> {
    fn kernel_name(&self) -> &'static str {
        "numeric_blocked"
    }

    fn discipline(&self) -> AccessDiscipline {
        AccessDiscipline::Merge
    }

    fn price(&self, run: &LevelRun<'_>, col: usize, items: u64, ctx: &mut BlockCtx<'_>) {
        let (width, stripes) = (self.plan.width_of(col) as u64, run.stripes as u64);
        if width >= 2 {
            // Supernode member: the update is a tiled dense block update.
            // Flops run at the pipelined GEMM rate, and the source tile is
            // fetched once per block rather than once per column, so the
            // column's share of the traffic is the stream divided by the
            // block width.
            ctx.bulk_gemm(3, items / stripes);
            ctx.mem(run.gpu.cost().tiled_mem_bytes(items, width) / stripes);
        } else {
            // Singleton: exactly the merge engine's streaming price.
            ctx.bulk_flops(3, items / stripes);
            ctx.mem(items * 8 / stripes);
        }
    }

    // Number of `TILE_WIDTH × TILE_WIDTH` tiles a block-member column's
    // `items` update stream occupies (at least one).
    fn gemm_tiles(&self, col: usize, items: u64) -> u64 {
        if self.plan.width_of(col) < 2 {
            return 0;
        }
        items.div_ceil((TILE_WIDTH * TILE_WIDTH) as u64).max(1)
    }

    fn level_attrs(
        &self,
        run: &LevelRun<'_>,
        delta: &EngineCounters,
        attrs: &mut Vec<(&'static str, AttrValue)>,
    ) {
        let ids: HashSet<u32> = run
            .cols
            .iter()
            .filter_map(|&j| self.plan.block_id(j as usize))
            .collect();
        let mean = run
            .cols
            .iter()
            .map(|&j| self.plan.width_of(j as usize) as f64)
            .sum::<f64>()
            / run.cols.len().max(1) as f64;
        attrs.push(("blocks", ids.len().into()));
        attrs.push(("mean_block_width", mean.into()));
        attrs.push(("gemm_tiles", delta.gemm_tiles.into()));
    }
}

/// Factorizes the filled matrix with the blocked engine, detecting the
/// blocking plan at `threshold` first.
pub fn factorize_gpu_blocked(
    gpu: &Gpu,
    pattern: &Csc,
    levels: &Levels,
    threshold: f64,
) -> Result<NumericOutcome, NumericError> {
    let cache = PivotCache::build(pattern);
    let plan = BlockPlan::detect(pattern, &cache, threshold);
    factorize_gpu_blocked_run_cached(
        gpu,
        pattern,
        levels,
        &plan,
        &NOOP,
        None,
        None,
        None,
        PivotRule::Exact,
    )
}

/// Full-control entry point: [`factorize_gpu_blocked`] with a precomputed
/// [`BlockPlan`], telemetry (each `numeric.level` span-end carries the
/// level's width, mode, merge steps, distinct blocks touched, mean block
/// width, and BLAS-3 tiles executed), optional level-granular resume
/// state, a per-level checkpoint hook, and an optional prebuilt
/// [`PivotCache`]. The [`BlockPlan`] is pattern-only, so warm
/// refactorizations replay both artifacts without re-scanning.
#[allow(clippy::too_many_arguments)]
pub fn factorize_gpu_blocked_run_cached(
    gpu: &Gpu,
    pattern: &Csc,
    levels: &Levels,
    plan: &BlockPlan,
    trace: &dyn TraceSink,
    resume: Option<&NumericResume>,
    hook: Option<&mut LevelHook<'_>>,
    pivot: Option<&PivotCache>,
    rule: PivotRule,
) -> Result<NumericOutcome, NumericError> {
    run_on(
        BlockedEngine::new(plan),
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
    use crate::merge::factorize_gpu_merge;
    use gplu_schedule::{levelize_cpu, DepGraph};
    use gplu_sim::{CostModel, GpuConfig};
    use gplu_sparse::convert::csr_to_csc;
    use gplu_sparse::gen::planar::{planar, PlanarParams};
    use gplu_sparse::gen::random::{banded_dominant, random_dominant};
    use gplu_sparse::pivot::repair_diagonal;
    use gplu_sparse::verify::residual_probe;
    use gplu_symbolic::symbolic_cpu;

    fn setup(a: &gplu_sparse::Csr) -> (Csc, Levels) {
        let sym = symbolic_cpu(a, &CostModel::default());
        let g = DepGraph::build(&sym.result.filled);
        let levels = levelize_cpu(&g, &CostModel::default()).levels;
        (csr_to_csc(&sym.result.filled), levels)
    }

    #[test]
    fn plan_respects_width_cap_and_adjacency() {
        let a = random_dominant(200, 5.0, 11);
        let (pattern, _) = setup(&a);
        let cache = PivotCache::build(&pattern);
        let plan = BlockPlan::detect(&pattern, &cache, 0.3);
        let mut prev_end = 0u32;
        for &(start, w) in &plan.blocks {
            assert!(w >= 2, "blocks are at least two columns wide");
            assert!(w as usize <= TILE_WIDTH, "width capped at TILE_WIDTH");
            assert!(start >= prev_end, "blocks ascend without overlap");
            prev_end = start + w;
            for c in start..start + w {
                assert_eq!(
                    plan.block_id(c as usize),
                    Some(plan.block_of[start as usize])
                );
                assert_eq!(plan.width_of(c as usize), w);
            }
        }
        assert!(plan.mean_width() >= 1.0);
    }

    #[test]
    fn impossible_threshold_finds_zero_blocks() {
        let a = random_dominant(150, 4.0, 12);
        let (pattern, _) = setup(&a);
        let cache = PivotCache::build(&pattern);
        let plan = BlockPlan::detect(&pattern, &cache, f64::INFINITY);
        assert_eq!(plan.n_blocks(), 0);
        assert_eq!(plan.blocked_cols(), 0);
        assert_eq!(plan.mean_width(), 1.0);
        assert!((0..150).all(|c| plan.width_of(c) == 1));
    }

    #[test]
    fn dense_fill_produces_wide_blocks() {
        // Planar (delaunay-class) fill densifies the trailing columns, so
        // a moderate threshold must find real supernodes there.
        let (a, _) = repair_diagonal(&planar(&PlanarParams::for_target(900, 5.0, 13)), 1000.0);
        let (pattern, _) = setup(&a);
        let cache = PivotCache::build(&pattern);
        let plan = BlockPlan::detect(&pattern, &cache, DEFAULT_BLOCK_THRESHOLD);
        assert!(plan.n_blocks() > 0, "planar fill must block");
        assert!(
            plan.mean_width() > 1.1,
            "mean width {} too small",
            plan.mean_width()
        );
    }

    #[test]
    fn matches_merge_engine_bitwise() {
        let (a, _) = repair_diagonal(&planar(&PlanarParams::for_target(600, 5.0, 14)), 1000.0);
        let (pattern, levels) = setup(&a);
        let blocked = factorize_gpu_blocked(
            &Gpu::new(GpuConfig::v100()),
            &pattern,
            &levels,
            DEFAULT_BLOCK_THRESHOLD,
        )
        .expect("blocked ok");
        let merge =
            factorize_gpu_merge(&Gpu::new(GpuConfig::v100()), &pattern, &levels).expect("merge ok");
        assert_eq!(
            blocked.lu.vals, merge.lu.vals,
            "identical update order ⇒ identical bits"
        );
        assert!(blocked.gemm_tiles > 0, "planar fill must execute tiles");
        assert!(residual_probe(&a, &blocked.lu, 3) < 1e-10);
    }

    #[test]
    fn zero_block_plan_degenerates_to_merge_exactly() {
        let a = banded_dominant(300, 5, 15);
        let (pattern, levels) = setup(&a);
        let blocked = factorize_gpu_blocked(
            &Gpu::new(GpuConfig::v100()),
            &pattern,
            &levels,
            f64::INFINITY,
        )
        .expect("blocked ok");
        let merge =
            factorize_gpu_merge(&Gpu::new(GpuConfig::v100()), &pattern, &levels).expect("merge ok");
        assert_eq!(blocked.lu.vals, merge.lu.vals);
        assert_eq!(blocked.merge_steps, merge.merge_steps);
        assert_eq!(blocked.gemm_tiles, 0);
        assert_eq!(
            blocked.time, merge.time,
            "with zero blocks every column is priced as merge"
        );
    }

    #[test]
    fn beats_merge_on_dense_fill() {
        // The headline: on a dense-fill (delaunay-class) pattern the
        // BLAS-3 pricing must win simulated time over pure streaming.
        let (a, _) = repair_diagonal(&planar(&PlanarParams::for_target(2000, 5.0, 16)), 1000.0);
        let (pattern, levels) = setup(&a);
        let blocked = factorize_gpu_blocked(
            &Gpu::new(GpuConfig::v100()),
            &pattern,
            &levels,
            DEFAULT_BLOCK_THRESHOLD,
        )
        .expect("blocked ok");
        let merge =
            factorize_gpu_merge(&Gpu::new(GpuConfig::v100()), &pattern, &levels).expect("merge ok");
        assert!(
            blocked.time < merge.time,
            "blocked {} must beat merge {} on dense fill",
            blocked.time,
            merge.time
        );
    }

    #[test]
    fn frees_device_memory() {
        let a = random_dominant(64, 3.0, 17);
        let (pattern, levels) = setup(&a);
        let gpu = Gpu::new(GpuConfig::v100());
        factorize_gpu_blocked(&gpu, &pattern, &levels, DEFAULT_BLOCK_THRESHOLD).expect("ok");
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
        let err = factorize_gpu_blocked(
            &Gpu::new(GpuConfig::v100()),
            &pattern,
            &levels,
            DEFAULT_BLOCK_THRESHOLD,
        )
        .unwrap_err();
        assert!(
            matches!(err, crate::NumericError::SingularPivot { col: 1, .. }),
            "want SingularPivot in column 1, got {err}"
        );
    }
}

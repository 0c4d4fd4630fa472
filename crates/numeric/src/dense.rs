//! Dense-format GPU numeric factorization — the GLU 3.0 discipline the
//! paper's Section 3.4 starts from, and the baseline of Figure 8.
//!
//! Every concurrently active column owns an `O(n)` dense buffer on the
//! device, giving direct row indexing — but only
//! `M = L_free / (n · sizeof(dtype))` buffers fit. The engine takes one
//! pool of `min(M, widest level)` buffers for the whole run, so nothing
//! is allocated between two batches. When a level is wider than `M`, it
//! is processed in `⌈width/M⌉` sequential batches whose concurrency is
//! capped at `M`, every batch after the first waiting in-kernel on the one
//! before; every column
//! additionally pays the buffer traffic (clear + scatter + gather) that
//! the sparse format avoids. For the huge matrices of Table 4, `M` drops
//! below `TB_max` and the device runs block-starved — the deficiency the
//! binary-search CSC format removes.
//!
//! The level loop, the kernel body and the counters live in
//! [`crate::engine`]; this module states only what the format costs: the
//! per-stripe price of a column and the M-capped batched launch.

use crate::engine::{ColumnKernel, LevelRun, NumericEngine};
use crate::error::NumericError;
use crate::fleet::run_on;
use crate::outcome::{AccessDiscipline, NumericOutcome, PivotCache, PivotRule};
use crate::resume::{LevelHook, NumericResume};
use gplu_schedule::Levels;
use gplu_sim::{BlockCost, BlockCtx, Exec, Gpu, LaunchKind, SimError, SimTime};
use gplu_sparse::Csc;
use gplu_trace::{TraceSink, NOOP};

/// The dense-column numeric engine: direct row indexing into `O(n)`
/// scatter buffers, with concurrency capped at the paper's `M`.
#[derive(Default)]
pub struct DenseEngine {
    m_limit: usize,
}

impl NumericEngine for DenseEngine {
    fn kernel_name(&self) -> &'static str {
        "numeric_dense"
    }

    fn discipline(&self) -> AccessDiscipline {
        AccessDiscipline::Dense
    }

    fn begin(&mut self, gpu: &Gpu, pattern: &Csc, widest: usize) -> Result<u64, NumericError> {
        // The paper's M: how many O(n) dense buffers fit in what remains
        // after the CSC structure and level numbers are resident. The pool
        // holds as many as one batch can use.
        let col_bytes = pattern.n_cols() as u64 * gpu.config().data_bytes;
        self.m_limit = (gpu.mem.free_bytes() / col_bytes) as usize;
        if self.m_limit == 0 {
            return Err(NumericError::Sim(SimError::OutOfMemory {
                requested: col_bytes,
                free: gpu.mem.free_bytes(),
                capacity: gpu.mem.capacity(),
            }));
        }
        Ok(self.m_limit.min(widest) as u64 * col_bytes)
    }

    // Each column's work (updates + scatter/gather + the O(n) dense-buffer
    // traffic the paper charges per column) is split across its
    // cooperating stripes. Right-looking execution has no per-target
    // dependency chain, so a column costs a few block-wide steps plus its
    // share of the (structured, flop-rate) update stream.
    fn price(&self, run: &LevelRun<'_>, col: usize, items: u64, ctx: &mut BlockCtx<'_>) {
        let (n, stripes) = (run.pattern.n_cols() as u64, run.stripes as u64);
        let nnz_col = (run.pattern.col_ptr[col + 1] - run.pattern.col_ptr[col]) as u64;
        // Structured update stream at the flop rate…
        ctx.bulk_flops(3, (items + 2 * nnz_col) / stripes);
        // …plus the O(n) dense-buffer traffic (clear + scatter + gather of
        // an `n`-length vector): uncoalesced read-modify-write, charged at
        // the irregular rate — the per-column tax the sparse format avoids
        // entirely.
        ctx.work(4 * n / stripes);
        ctx.mem((items * 8 + 4 * n) / stripes);
    }

    // The share split into batches of at most M concurrent dense buffers
    // from the pool, each capped at M. Nothing happens on the host between
    // two batches, so the share's first batch starts as the share does and
    // every later one continues that kernel behind a dependency wait.
    fn launch(&self, run: &LevelRun<'_>, body: &ColumnKernel<'_>) -> Result<(), SimError> {
        let m = self.m_limit.max(1);
        for (chunk, batch) in run.cols.chunks(m).enumerate() {
            run.count_batch();
            let base = chunk * m;
            run.gpu.launch_striped(
                self.kernel_name(),
                batch.len(),
                run.stripes,
                run.threads,
                batch_kind(run, chunk),
                Exec::Par,
                Some(self.m_limit),
                &|i: usize, ctx: &mut BlockCtx<'_>| body(base + i, ctx),
            )?;
        }
        Ok(())
    }

    // The same batches, quoted.
    fn quote(&self, run: &LevelRun<'_>, blocks: &[BlockCost]) -> SimTime {
        let batch = |(chunk, b)| {
            let kind = batch_kind(run, chunk);
            run.gpu.quote(kind, Some(self.m_limit), b).time
        };
        blocks
            .chunks(self.m_limit.max(1) * run.stripes)
            .enumerate()
            .map(batch)
            .sum()
    }

    fn finish(&self, out: &mut NumericOutcome) {
        out.m_limit = Some(self.m_limit);
    }
}

/// How batch `chunk` of a share starts.
fn batch_kind(run: &LevelRun<'_>, chunk: usize) -> LaunchKind {
    LaunchKind::level(chunk == 0, run.kind)
}

/// Factorizes the filled matrix in the dense-column format.
///
/// `pattern` must carry the complete fill pattern with `A`'s values (the
/// symbolic result converted to CSC); `levels` the schedule for its
/// dependency graph.
pub fn factorize_gpu_dense(
    gpu: &Gpu,
    pattern: &Csc,
    levels: &Levels,
) -> Result<NumericOutcome, NumericError> {
    factorize_gpu_dense_run_cached(
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

/// Full-control entry point: [`factorize_gpu_dense`] with telemetry (one
/// `numeric.level` span per schedule level; the end event carries the
/// level's width, its A/B/C mode classification, and the number of
/// M-capped batches it took), optional level-granular resume state, a
/// per-level checkpoint hook, and an optional prebuilt [`PivotCache`] (the
/// pattern-keyed refactorization fast path: the cache is pattern-only, so
/// a service factorizing the same pattern repeatedly builds it once).
#[allow(clippy::too_many_arguments)]
pub fn factorize_gpu_dense_run_cached(
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
        DenseEngine::default(),
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
    use gplu_schedule::{levelize_cpu, DepGraph};
    use gplu_sim::{CostModel, GpuConfig};
    use gplu_sparse::convert::csr_to_csc;
    use gplu_sparse::gen::random::random_dominant;
    use gplu_sparse::verify::residual_probe;
    use gplu_symbolic::symbolic_cpu;

    fn setup(a: &gplu_sparse::Csr) -> (Csc, Levels) {
        let sym = symbolic_cpu(a, &CostModel::default());
        let g = DepGraph::build(&sym.result.filled);
        let levels = levelize_cpu(&g, &CostModel::default()).levels;
        (csr_to_csc(&sym.result.filled), levels)
    }

    #[test]
    fn matches_sequential_factorization() {
        let a = random_dominant(80, 4.0, 71);
        let (pattern, levels) = setup(&a);
        let gpu = Gpu::new(GpuConfig::v100());
        let out = factorize_gpu_dense(&gpu, &pattern, &levels).expect("factorizes");

        let mut seq = pattern.clone();
        crate::seq::factorize_seq(&mut seq).expect("seq ok");
        for (k, (&want, &got)) in seq.vals.iter().zip(&out.lu.vals).enumerate() {
            assert!((want - got).abs() < 1e-12, "value {k}: {want} vs {got}");
        }
        assert!(residual_probe(&a, &out.lu, 3) < 1e-10);
    }

    #[test]
    fn m_limit_caps_concurrency_and_batches() {
        // Random sparsity ⇒ wide levels (hundreds of independent columns),
        // so a single-digit M must split them into many batches.
        let a = random_dominant(256, 3.0, 72);
        let (pattern, levels) = setup(&a);
        // Tiny device: CSC + levels + ~8 dense buffers.
        let csc_bytes = ((256 + 1) as u64 + 2 * pattern.nnz() as u64) * 4;
        let mem = csc_bytes + 256 * 4 + 8 * 256 * 4 + 512;
        let gpu = Gpu::new(GpuConfig::v100().with_memory(mem));
        let out = factorize_gpu_dense(&gpu, &pattern, &levels).expect("factorizes");
        let m = out.m_limit.expect("dense reports M");
        assert!(m <= 9, "M should be ~8, got {m}");
        assert!(
            out.batches as usize > levels.n_levels(),
            "narrow M must split wide levels into batches"
        );
    }

    #[test]
    fn block_starved_device_is_slower() {
        let a = random_dominant(512, 4.0, 73);
        let (pattern, levels) = setup(&a);
        let roomy = Gpu::new(GpuConfig::v100());
        let fast = factorize_gpu_dense(&roomy, &pattern, &levels).expect("ok");
        let csc_bytes = ((512 + 1) as u64 + 2 * pattern.nnz() as u64) * 4;
        let tight =
            Gpu::new(GpuConfig::v100().with_memory(csc_bytes + 512 * 4 + 4 * 512 * 4 + 512));
        let slow = factorize_gpu_dense(&tight, &pattern, &levels).expect("ok");
        assert!(slow.time > fast.time, "M-starvation must cost time");
    }

    #[test]
    fn frees_device_memory() {
        let a = random_dominant(64, 3.0, 74);
        let (pattern, levels) = setup(&a);
        let gpu = Gpu::new(GpuConfig::v100());
        factorize_gpu_dense(&gpu, &pattern, &levels).expect("ok");
        assert_eq!(gpu.mem.used_bytes(), 0);
    }

    #[test]
    fn zero_pivot_surfaces_as_error() {
        let mut coo = gplu_sparse::Coo::new(2, 2);
        for i in 0..2 {
            for j in 0..2 {
                coo.push(i, j, 1.0);
            }
        }
        let a = gplu_sparse::convert::coo_to_csr(&coo);
        let (pattern, levels) = setup(&a);
        let gpu = Gpu::new(GpuConfig::v100());
        let err = factorize_gpu_dense(&gpu, &pattern, &levels).unwrap_err();
        assert!(
            matches!(err, NumericError::SingularPivot { col: 1, .. }),
            "want SingularPivot in column 1, got {err}"
        );
    }
}

//! Out-of-core GPU symbolic factorization — the paper's Algorithm 3 — and
//! the chunk arithmetic every out-of-core engine shares.
//!
//! Algorithm 3 is the two-stage driver of [`crate::dynamic`] under the
//! degenerate row split: no low-frontier part (`n1 = 0`) and every chunk
//! sized for the worst case, `chunk_size = L_free / (c·4·n)`
//! ([`fixed_split`]). [`symbolic_ooc`] and its variants are that driver's
//! constructors for this split; they state its outcome in Algorithm 3's
//! terms (one chunk size, iterations per stage).
//!
//! The rest of the module is what the driver and the other engines build
//! on: the per-row state size, the per-row cost charge, and the geometric
//! OOM backoff.

use crate::dynamic::{two_stage, DynamicSplit};
use crate::fill2::{RowMetrics, Traversals};
use crate::result::SymbolicResult;
use crate::resume::{ChunkHook, SymbolicResume};
use gplu_sim::{BlockCtx, Gpu, GpuConfig, GpuStatsSnapshot, SimError, SimTime};
use gplu_sparse::Csr;
use gplu_trace::{TraceSink, NOOP};

/// Outcome of an out-of-core symbolic run.
#[derive(Debug, Clone)]
#[must_use = "the outcome carries the pattern and any recovery evidence"]
pub struct OocOutcome {
    /// The factorization pattern (identical across all implementations).
    pub result: SymbolicResult,
    /// Rows per stage-1 chunk, after any OOM backoff.
    pub chunk_size: usize,
    /// Out-of-core iterations of stage 1.
    pub num_iterations: usize,
    /// Chunk halvings taken after failed allocations (OOM backoff).
    pub oom_backoffs: usize,
    /// True when the factorized pattern could not stay device-resident and
    /// stage 2 streamed each batch back to the host instead.
    pub streamed_output: bool,
    /// Simulated time of the whole symbolic phase.
    pub time: SimTime,
    /// GPU statistics delta over the phase.
    pub stats: GpuStatsSnapshot,
}

/// Charges one fill2 row traversal to a block context: the seed scan plus
/// every frontier step, the scanned edges, and the emitted entries.
pub(crate) fn charge_row(ctx: &mut BlockCtx<'_>, m: &RowMetrics) {
    let items = m.edges + m.emitted as u64;
    ctx.bulk_steps(m.steps + 1, items);
    ctx.mem(items * 4);
}

/// Charges the in-block bitonic-style ordering of a row's emitted entries,
/// which the storing stages pay on top of the traversal.
pub(crate) fn charge_sort(ctx: &mut BlockCtx<'_>, m: &RowMetrics) {
    let e = m.emitted as u64;
    if e > 1 {
        ctx.step(e * (64 - e.leading_zeros() as u64));
    }
}

/// Per-source-row device bytes of traversal state (`c` words of 4 bytes).
pub(crate) fn row_state_bytes(n: usize) -> u64 {
    GpuConfig::SYMBOLIC_ROW_WORDS * 4 * n as u64
}

/// Computes the chunk size from currently free device memory, the paper's
/// `chunk_size = L / (c × n)` with `L` the free bytes.
pub(crate) fn chunk_size_for(gpu: &Gpu, n: usize) -> usize {
    (gpu.mem.free_bytes() / row_state_bytes(n)) as usize
}

/// Attempts beyond which [`with_oom_backoff`] gives up and surfaces the
/// last [`SimError::OutOfMemory`]. Halving alone terminates at one row;
/// the bound additionally caps floor-level retries (which exist so a
/// *transient* fault at the floor still recovers) against a device that
/// is persistently out of memory.
pub(crate) const MAX_OOM_RETRIES: usize = 32;

/// Runs `attempt(rows)`; on [`SimError::OutOfMemory`] halves `rows`
/// (geometric backoff, floor at one source row) and retries, up to
/// [`MAX_OOM_RETRIES`] attempts. Returns the successful value, the row
/// count that fit, and the number of backoff retries taken. The free-bytes
/// pre-check the engines start from is only a *hint* — the headroom can
/// shrink between check and allocation (injected squeezes model exactly
/// that), so the allocation itself is the arbiter.
pub(crate) fn with_oom_backoff<T>(
    mut rows: usize,
    mut attempt: impl FnMut(usize) -> Result<T, SimError>,
) -> Result<(T, usize, usize), SimError> {
    let mut retries = 0usize;
    loop {
        match attempt(rows) {
            Ok(v) => return Ok((v, rows, retries)),
            Err(e @ SimError::OutOfMemory { .. }) => {
                if retries >= MAX_OOM_RETRIES {
                    return Err(e);
                }
                retries += 1;
                rows = (rows / 2).max(1);
            }
            Err(e) => return Err(e),
        }
    }
}

/// Algorithm 3's split rule: no low-frontier part, and one conservative
/// chunk sized from the bytes free right now. A chunk of zero — not even
/// one row's state fits — is the driver's allocate-nothing early-out.
pub(crate) fn fixed_split(
    gpu: &Gpu,
    a: &Csr,
    _traversals: &Traversals,
) -> Result<DynamicSplit, SimError> {
    let n = a.n_rows();
    let chunk = chunk_size_for(gpu, n).min(n);
    Ok(DynamicSplit {
        n1: 0,
        frontier_cap: 0,
        chunk1: chunk,
        chunk2: chunk,
    })
}

/// Runs out-of-core GPU symbolic factorization (Algorithm 3).
pub fn symbolic_ooc(gpu: &Gpu, a: &Csr) -> Result<OocOutcome, SimError> {
    symbolic_ooc_run(gpu, a, &NOOP, None, None)
}

/// Full-control entry point: [`symbolic_ooc`] with telemetry — the spans
/// of [`crate::dynamic::symbolic_ooc_dynamic_run`], every row in part 2 —
/// plus optional chunk-granular resume state and a per-chunk checkpoint
/// hook.
pub fn symbolic_ooc_run(
    gpu: &Gpu,
    a: &Csr,
    trace: &dyn TraceSink,
    resume: Option<&SymbolicResume>,
    hook: Option<&mut ChunkHook<'_>>,
) -> Result<OocOutcome, SimError> {
    let run = two_stage(gpu, a, trace, fixed_split, resume, hook)?;
    Ok(OocOutcome {
        result: run.outcome.result,
        chunk_size: run.chunk,
        num_iterations: run.stage1_chunks,
        oom_backoffs: run.outcome.oom_backoffs,
        streamed_output: run.outcome.streamed_output,
        time: run.outcome.time,
        stats: run.outcome.stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cpu::symbolic_cpu;
    use gplu_sim::CostModel;
    use gplu_sparse::gen::random::random_dominant;

    fn gpu_for(a: &Csr) -> Gpu {
        Gpu::new(GpuConfig::v100_symbolic_profile(a.n_rows(), a.nnz()))
    }

    #[test]
    fn matches_cpu_baseline_pattern() {
        let a = random_dominant(200, 4.0, 17);
        let gpu = gpu_for(&a);
        let ooc = symbolic_ooc(&gpu, &a).expect("fits profile");
        let cpu = symbolic_cpu(&a, &CostModel::default());
        assert_eq!(ooc.result.filled, cpu.result.filled);
        assert_eq!(ooc.result.fill_count, cpu.result.fill_count);
    }

    #[test]
    fn chunking_forces_multiple_iterations() {
        let a = random_dominant(1024, 3.0, 5);
        let gpu = gpu_for(&a);
        let ooc = symbolic_ooc(&gpu, &a).expect("runs");
        assert!(
            ooc.num_iterations >= 2,
            "profile must force out-of-core chunking"
        );
        assert_eq!(ooc.num_iterations, 1024usize.div_ceil(ooc.chunk_size));
    }

    #[test]
    fn device_memory_is_released() {
        let a = random_dominant(300, 4.0, 9);
        let gpu = gpu_for(&a);
        let _ = symbolic_ooc(&gpu, &a).expect("runs");
        assert_eq!(gpu.mem.used_bytes(), 0, "phase must free all device memory");
        assert!(gpu.mem.peak_bytes() > 0);
    }

    #[test]
    fn stats_record_kernels_and_transfers() {
        let a = random_dominant(500, 4.0, 2);
        let gpu = gpu_for(&a);
        let ooc = symbolic_ooc(&gpu, &a).expect("runs");
        // 2 traversal stages + prefix sum.
        assert!(ooc.stats.kernels_host as usize > 2 * ooc.num_iterations);
        assert!(ooc.stats.h2d_bytes > 0);
        assert!(ooc.stats.d2h_bytes > 0);
        assert!(ooc.time.as_ns() > 0.0);
    }

    #[test]
    fn oom_when_even_one_row_does_not_fit() {
        let a = random_dominant(4096, 3.0, 3);
        // Device barely larger than the matrix itself: no room for state.
        let a_bytes = (4096u64 + 1 + a.nnz() as u64) * 4;
        let gpu = Gpu::new(GpuConfig::v100().with_memory(a_bytes + 4096 * 4 + 1024));
        assert!(matches!(
            symbolic_ooc(&gpu, &a),
            Err(SimError::OutOfMemory { .. })
        ));
    }

    #[test]
    fn oom_backoff_halves_chunk_until_fit() {
        use gplu_sim::FaultPlan;
        let a = random_dominant(1024, 3.0, 5);
        let plain = symbolic_ooc(&gpu_for(&a), &a).expect("runs");
        // Fail the stage-1 state allocation (ordinal 3: matrix, counts,
        // state) twice: the chunk must halve twice and then fit.
        let gpu = Gpu::with_fault_plan(
            GpuConfig::v100_symbolic_profile(a.n_rows(), a.nnz()),
            CostModel::default(),
            FaultPlan::new().oom_on_alloc(3).oom_on_alloc(4),
        );
        let faulted = symbolic_ooc(&gpu, &a).expect("backoff recovers");
        assert_eq!(faulted.oom_backoffs, 2);
        assert_eq!(faulted.chunk_size, (plain.chunk_size / 4).max(1));
        assert_eq!(
            faulted.num_iterations,
            a.n_rows().div_ceil(faulted.chunk_size)
        );
        assert_eq!(faulted.result.filled, plain.result.filled);
        assert_eq!(gpu.stats().injected_oom, 2);
        assert_eq!(gpu.mem.used_bytes(), 0);
    }

    #[test]
    fn injected_oom_on_resident_output_forces_streaming() {
        use gplu_sim::FaultPlan;
        let a = random_dominant(300, 4.0, 9);
        let plain = symbolic_ooc(&gpu_for(&a), &a).expect("runs");
        // Ordinal 4 is the resident-output attempt (matrix, counts,
        // stage-1 state, output): failing it must flip stage 2 into
        // streaming without changing the pattern.
        let gpu = Gpu::with_fault_plan(
            GpuConfig::v100_symbolic_profile(a.n_rows(), a.nnz()),
            CostModel::default(),
            FaultPlan::new().oom_on_alloc(4),
        );
        let faulted = symbolic_ooc(&gpu, &a).expect("streams instead");
        assert!(faulted.streamed_output);
        assert_eq!(faulted.result.filled, plain.result.filled);
        assert_eq!(gpu.mem.used_bytes(), 0);
    }

    #[test]
    fn persistent_oom_at_floor_is_a_typed_error() {
        use gplu_sim::FaultPlan;
        let a = random_dominant(200, 4.0, 17);
        let gpu = Gpu::with_fault_plan(
            GpuConfig::v100_symbolic_profile(a.n_rows(), a.nnz()),
            CostModel::default(),
            FaultPlan::new().persistent_oom_from(3),
        );
        assert!(matches!(
            symbolic_ooc(&gpu, &a),
            Err(SimError::OutOfMemory { .. })
        ));
    }
}

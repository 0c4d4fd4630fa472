//! The two-stage out-of-core symbolic driver, and the **dynamic
//! parallelism assignment** that feeds it — the paper's Algorithms 3 and 4.
//!
//! The intermediate traversal state costs `c·n` words per in-flight source
//! row (`c = 6`), so all `n` rows at once would need `O(n²)` device memory.
//! Algorithm 3 therefore processes the rows in chunks, twice:
//!
//! 1. **Stage 1** (`symbolic_1`): per chunk, one thread block per source
//!    row runs the fill2 traversal and records only the *count* of
//!    nonzeros of its filled row into `fill_count`.
//! 2. A device **prefix sum** over `fill_count` yields the CSR row offsets
//!    and the total, sizing the factorized pattern.
//! 3. **Stage 2** (`symbolic_2`): the traversal runs again, now *storing*
//!    the column positions. The pattern stays device-resident for the
//!    numeric phase when it fits (the paper's design); when it does not,
//!    each batch's rows stream back to the host so the device only ever
//!    holds one batch of output — the out-of-core completion of the same
//!    design, changing no counts.
//!
//! The simulated device traverses every row in both stages, and the clock
//! charges both. The host does not repeat the work: the first request for
//! a row — a kernel, or the Algorithm 4 prepass — runs fill2 and keeps its
//! sorted columns and metrics (`Traversals` in `crate::fill2`), and every
//! later kernel over the row is charged from those, block by block in the
//! same order. A resumed run meets the rows below its watermark for the
//! first time after the cut, and traverses them there.
//!
//! Algorithm 3 sizes every chunk for the worst case. But the per-row
//! frontier count grows with the source-row id (Theorem 1 admits more
//! intermediates for larger ids — the paper's Figure 3), so early rows
//! waste most of their reservation. Algorithm 4 is the same procedure
//! over two row ranges: it splits the rows at `n1`, the first row whose
//! frontier count reaches 50 % of the maximum, and uses a *larger* chunk
//! for the first part (its frontier queues can be allocated small) and
//! the conservative chunk for the rest.
//!
//! So there is one driver here, [`two_stage`], and two *split rules*:
//! [`plan_split`] estimates `n1` from a cheap sampled prepass (the paper
//! derives it from the same profile its Figure 3 plots), and
//! [`crate::ooc::fixed_split`] is Algorithm 3 — a split at row 0 with one
//! conservative chunk. Rows whose frontier overflows the shrunken part-1
//! queues are detected and re-run with full-size state, so the
//! optimization is safe regardless of the estimate's quality.
//!
//! `two_stage` runs on one device over an ascending set of source rows:
//! `0..n` alone, or each live device's share of a fleet ([`crate::multi`]).
//!
//! Everything observable — chunk sizes, iteration counts, launch count,
//! transfer bytes — comes out of the simulated GPU's accounting.

use crate::fill2::{RowMetrics, Traversals};
use crate::frontier::split_point;
use crate::multi::{run_sharded, FleetSymbolicOutcome, Partition::Blocked};
use crate::ooc::{charge_row, charge_sort, chunk_size_for, row_state_bytes, with_oom_backoff};
use crate::result::SymbolicResult;
use crate::resume::{ChunkHook, ChunkProgress, SymbolicResume};
use gplu_sim::{BlockCtx, DeviceFleet, Gpu, GpuStatsSnapshot, SimError, SimTime};
use gplu_sparse::Csr;
use gplu_trace::{AttrValue, TraceSink, NOOP};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};

/// The two-part row split a run works under.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DynamicSplit {
    /// Rows `0..n1` form the low-frontier part.
    pub n1: usize,
    /// Frontier-queue capacity allocated per part-1 row.
    pub frontier_cap: u64,
    /// Chunk size for part 1 (large).
    pub chunk1: usize,
    /// Chunk size for part 2 (the conservative Algorithm 3 value).
    pub chunk2: usize,
}

/// Outcome of the dynamic-assignment run.
#[derive(Debug, Clone)]
#[must_use = "the outcome carries the pattern and any recovery evidence"]
pub struct DynamicOutcome {
    /// The factorization pattern.
    pub result: SymbolicResult,
    /// The split the prepass chose.
    pub split: DynamicSplit,
    /// Part-1 rows whose frontier overflowed the shrunken queues and were
    /// re-run with full state.
    pub overflows: usize,
    /// Total out-of-core iterations across both parts and stages.
    pub num_iterations: usize,
    /// Batch halvings taken after failed allocations (OOM backoff).
    pub oom_backoffs: usize,
    /// True when the factorized pattern could not stay device-resident and
    /// the storing stage streamed each batch back to the host instead.
    pub streamed_output: bool,
    /// Simulated time of the whole phase.
    pub time: SimTime,
    /// GPU statistics delta.
    pub stats: GpuStatsSnapshot,
}

/// Number of rows the prepass samples.
const PREPASS_SAMPLES: usize = 64;
/// The paper's split criterion: 50 % of the highest frontier count.
const SPLIT_FRACTION: f64 = 0.5;
/// Headroom multiplier on the sampled part-1 frontier maximum. Queue
/// memory is cheap relative to the `n`-word stamp array, so generous
/// headroom costs little chunk size and avoids overflow re-runs.
const CAP_HEADROOM: f64 = 3.0;

/// Per-row state bytes for a part-1 row: the full `n`-word fill-stamp
/// array is unavoidable, but the two frontier queues and scratch shrink to
/// the sampled cap.
fn part1_row_bytes(n: usize, cap: u64) -> u64 {
    4 * (n as u64 + 5 * cap.max(16))
}

/// Runs the sampled prepass and picks the split.
///
/// The prepass is *not* charged to the simulated clock: the paper derives
/// the split from the frontier profile it measures offline (its Figure 3
/// analysis precedes the Algorithm 4 runs), so the measured phase starts
/// with the split already known. Its samples go through the memo, so the
/// kernels that meet those rows later do not traverse them again.
pub(crate) fn plan_split(
    gpu: &Gpu,
    a: &Csr,
    traversals: &Traversals,
) -> Result<DynamicSplit, SimError> {
    let n = a.n_rows();
    let samples: Vec<usize> = if n <= PREPASS_SAMPLES {
        (0..n).collect()
    } else {
        (0..PREPASS_SAMPLES)
            .map(|k| k * n / PREPASS_SAMPLES)
            .collect()
    };
    let sampled: Vec<RowMetrics> = samples
        .iter()
        .map(|&row| traversals.row(row as u32))
        .collect();
    let profile: Vec<u64> = sampled.iter().map(|m| m.frontiers).collect();
    let split_at = split_point(&profile, SPLIT_FRACTION);
    let n1 = if split_at == 0 {
        0
    } else {
        samples.get(split_at).copied().unwrap_or(n)
    };

    let cap = samples
        .iter()
        .zip(&sampled)
        .filter(|(&row, _)| row < n1)
        .map(|(_, m)| m.max_queue)
        .max()
        .unwrap_or(16);
    let cap = ((cap as f64 * CAP_HEADROOM) as u64).max(16);

    let chunk2 = chunk_size_for(gpu, n).clamp(1, n.max(1));
    let chunk1 =
        ((gpu.mem.free_bytes() / part1_row_bytes(n, cap)) as usize).clamp(chunk2, n.max(1));
    Ok(DynamicSplit {
        n1,
        frontier_cap: cap,
        chunk1,
        chunk2,
    })
}

/// Runs out-of-core symbolic factorization with dynamic parallelism
/// assignment (Algorithm 4).
pub fn symbolic_ooc_dynamic(gpu: &Gpu, a: &Csr) -> Result<DynamicOutcome, SimError> {
    let before = gpu.stats();
    let out = symbolic_ooc_dynamic_run(&DeviceFleet::from(gpu), a, &NOOP, None, None)?;
    let (run, stats) = (out.run, gpu.stats().since(&before));
    Ok(DynamicOutcome {
        result: out.result,
        split: run.split,
        overflows: run.overflows,
        num_iterations: run.num_iterations,
        oom_backoffs: run.oom_backoffs,
        streamed_output: run.streamed_output,
        time: stats.now,
        stats,
    })
}

/// Full-control entry point: [`symbolic_ooc_dynamic`] on each live device
/// of `fleet` over its [`Blocked`] rows, with telemetry — a
/// `symbolic.split` instant for the split decision, one `symbolic.chunk`
/// span per counting-stage iteration (attrs: iteration, rows, part), and
/// one `symbolic.batch` span per storing-stage or retry batch — plus
/// optional chunk-granular resume state and a per-chunk checkpoint hook
/// (a fleet of one only; both apply to the counting stage, and the storing
/// stage recomputes from the counts).
pub fn symbolic_ooc_dynamic_run(
    fleet: &DeviceFleet<'_>,
    a: &Csr,
    trace: &dyn TraceSink,
    resume: Option<&SymbolicResume>,
    hook: Option<&mut ChunkHook<'_>>,
) -> Result<FleetSymbolicOutcome, SimError> {
    run_sharded(fleet, a, Blocked, plan_split, trace, resume, hook)
}

/// How a fresh run learns its row split — the one decision that separates
/// the two out-of-core engines: [`plan_split`] (Algorithm 4) or
/// [`crate::ooc::fixed_split`] (Algorithm 3).
pub(crate) type SplitRule = fn(&Gpu, &Csr, &Traversals) -> Result<DynamicSplit, SimError>;

/// What the two-stage loop counted on one device's rows — or on a
/// fleet's, added up.
#[derive(Debug, Clone, Copy, Default)]
pub struct TwoStageRun {
    /// The split the run worked under (on a fleet, the first device's;
    /// only the chunk sizes differ between devices).
    pub split: DynamicSplit,
    /// Effective stage-1 chunk size last in force (after OOM backoff).
    pub chunk: usize,
    /// Stage-1 chunks alone.
    pub stage1_chunks: usize,
    /// Stage-1 chunks plus every storing-stage and retry batch.
    pub num_iterations: usize,
    /// Part-1 rows re-run with full state.
    pub overflows: usize,
    /// Batch halvings taken after failed allocations.
    pub oom_backoffs: usize,
    /// True when a storing stage streamed its batches back to the host.
    pub streamed_output: bool,
}

impl TwoStageRun {
    /// Two devices' runs as one: the counts add up, the first run's split
    /// stands, and the smaller chunk is the one in force.
    pub(crate) fn and(self, other: TwoStageRun) -> TwoStageRun {
        TwoStageRun {
            split: self.split,
            chunk: self.chunk.min(other.chunk),
            stage1_chunks: self.stage1_chunks + other.stage1_chunks,
            num_iterations: self.num_iterations + other.num_iterations,
            overflows: self.overflows + other.overflows,
            oom_backoffs: self.oom_backoffs + other.oom_backoffs,
            streamed_output: self.streamed_output || other.streamed_output,
        }
    }
}

/// The two-stage out-of-core procedure (Algorithm 3) over the two row
/// ranges of a [`DynamicSplit`] — the one chunk loop behind every
/// out-of-core engine — on one device's ascending `rows`, which `n1`
/// divides. Traversals go through the caller's memo, shared by a fleet.
#[allow(clippy::too_many_arguments)]
pub(crate) fn two_stage(
    gpu: &Gpu,
    a: &Csr,
    rows: &[u32],
    traversals: &Traversals,
    trace: &dyn TraceSink,
    split_rule: SplitRule,
    resume: Option<&SymbolicResume>,
    mut hook: Option<&mut ChunkHook<'_>>,
) -> Result<TwoStageRun, SimError> {
    let n = a.n_rows();
    if let Some(r) = resume {
        r.check(n).map_err(SimError::Aborted)?;
    }

    // The matrix pattern lives on the device for the whole phase
    // (row_ptr + col_idx; symbolic needs no values), beside the counts.
    let a_bytes = (n as u64 + 1 + a.nnz() as u64) * 4;
    let _a_dev = gpu.mem.alloc(a_bytes)?;
    gpu.h2d(a_bytes);
    let _counts_dev = gpu.mem.alloc(rows.len() as u64 * 4)?;

    let split = match resume {
        Some(r) => r.split,
        None => split_rule(gpu, a, traversals)?,
    };
    trace.instant(
        "symbolic.split",
        "chunk",
        gpu.now().as_ns(),
        &[
            ("n1", split.n1.into()),
            ("frontier_cap", split.frontier_cap.into()),
            ("chunk1", split.chunk1.into()),
            ("chunk2", split.chunk2.into()),
        ],
    );
    if split.chunk2 == 0 {
        // Not even one full-state row fits: nothing further is allocated.
        return Err(SimError::OutOfMemory {
            requested: row_state_bytes(n),
            free: gpu.mem.free_bytes(),
            capacity: gpu.mem.capacity(),
        });
    }

    let fill_counts: Vec<AtomicU32> = match resume {
        Some(r) => r.fill_counts.iter().map(|&c| AtomicU32::new(c)).collect(),
        None => (0..n).map(|_| AtomicU32::new(0)).collect(),
    };
    // Metrics of the rows counted so far, for the checkpoint hook.
    let agg = [
        AtomicU64::new(resume.map_or(0, |r| r.agg_steps)),
        AtomicU64::new(resume.map_or(0, |r| r.agg_edges)),
        AtomicU64::new(resume.map_or(0, |r| r.agg_frontiers)),
    ];
    // A mutexed vec (not a lock-free queue) so the per-chunk hook can
    // snapshot the overflow set without draining it.
    let overflowed: Mutex<Vec<u32>> =
        Mutex::new(resume.map_or_else(Vec::new, |r| r.overflow_rows.clone()));
    let count_watermark = resume.map_or(0, |r| r.rows_done);
    let mut stage1_chunks = resume.map_or(0, |r| r.iters_done);
    let mut chunk_in_force = resume.map_or(0, |r| r.chunk);
    // Storing-stage and retry batches, counted on top of the chunks.
    let mut batches = 0usize;
    let mut overflow_rows = 0usize;
    let mut oom_backoffs = resume.map_or(0, |r| r.oom_backoffs);
    let mut streamed_output = false;
    let count_of = |row: u32| fill_counts[row as usize].load(Ordering::Relaxed) as u64;
    let sum_counts = |rows: &[u32]| rows.iter().map(|&row| count_of(row)).sum::<u64>();
    // Positions `..part1` of `rows` lie below the split.
    let part1 = rows.partition_point(|&row| (row as usize) < split.n1);

    // Two stages (count, then store); within each, part 1 with its large
    // chunk and shrunken queues, then part 2 with the conservative chunk.
    for store in [false, true] {
        // Resident output when the factorized pattern fits on the device
        // (Algorithm 3 line 8, left there for the numeric phase; it drops
        // with the stage, because our pipeline re-allocates per phase);
        // otherwise each batch's positions stream back to the host,
        // sharing the free bytes with that batch's traversal state.
        let resident_out = if store {
            let out = gpu.mem.alloc(sum_counts(rows) * 4).ok();
            streamed_output = out.is_none();
            out
        } else {
            None
        };
        let streaming = store && resident_out.is_none();

        // Shared kernel body for both parts and the retry pass. Every
        // kernel is charged a full traversal of its row; the host runs
        // fill2 only the first time the memo is asked for it.
        let body = |src: u32, capped: bool, ctx: &mut BlockCtx| {
            let m = traversals.row(src);
            charge_row(ctx, &m);
            if capped && m.max_queue > split.frontier_cap {
                // Shrunken queues overflowed: discard and re-run this
                // row with full-size state.
                overflowed.lock().push(src);
                return;
            }
            if store {
                charge_sort(ctx, &m);
            } else {
                fill_counts[src as usize].store(m.emitted, Ordering::Relaxed);
                agg[0].fetch_add(m.steps, Ordering::Relaxed);
                agg[1].fetch_add(m.edges, Ordering::Relaxed);
                agg[2].fetch_add(m.frontiers, Ordering::Relaxed);
            }
        };

        // Traversal state for `batch` plus, when streaming, its output
        // positions. Sizing against free bytes is only a hint — the
        // allocation decides, backing off geometrically when it fails.
        let alloc_batch = |batch: &[u32], row_bytes: u64| {
            with_oom_backoff(batch.len(), |got| {
                let nnz = sum_counts(&batch[..got]);
                let state = gpu.mem.alloc(got as u64 * row_bytes)?;
                let out = streaming.then(|| gpu.mem.alloc(nnz * 4)).transpose()?;
                Ok((state, out, nnz))
            })
        };

        for (part, range, chunk, row_bytes) in [
            (
                1u64,
                0..part1,
                split.chunk1,
                part1_row_bytes(n, split.frontier_cap),
            ),
            (2u64, part1..rows.len(), split.chunk2, row_state_bytes(n)),
        ] {
            let capped = part == 1;
            // Counting resumes past the watermark; storing always re-runs
            // in full (it is recomputed from the durable counts).
            let range = if store {
                range
            } else {
                range.start.max(count_watermark)..range.end
            };
            if range.is_empty() {
                continue;
            }
            if !store {
                // Counting stage: fixed chunks, state only; the chunk the
                // split planned is what the backoff starts from.
                let (_state_dev, eff_chunk, backoffs) =
                    with_oom_backoff(chunk.min(range.len()), |got| {
                        gpu.mem.alloc(got as u64 * row_bytes)
                    })?;
                oom_backoffs += backoffs;
                chunk_in_force = eff_chunk;
                for (iter, start) in range.clone().step_by(eff_chunk).enumerate() {
                    let len = eff_chunk.min(range.end - start);
                    trace.span_begin(
                        "symbolic.chunk",
                        "chunk",
                        gpu.now().as_ns(),
                        &[
                            ("iter", iter.into()),
                            ("rows", len.into()),
                            ("part", part.into()),
                        ],
                    );
                    let clk0 = trace.enabled().then(|| gpu.clocks());
                    gpu.launch("symbolic_1", len, 1024, &|b: usize, ctx: &mut BlockCtx| {
                        body(rows[start + b], capped, ctx);
                    })?;
                    trace.span_end("symbolic.chunk", "chunk", gpu.now().as_ns(), &[]);
                    if let Some((obs0, pred0)) = clk0 {
                        let (obs1, pred1) = gpu.clocks();
                        if obs1 > obs0 {
                            trace.instant(
                                "drift.sample",
                                "drift",
                                obs1,
                                &[
                                    ("kind", "symbolic_chunk".into()),
                                    ("predicted_ns", AttrValue::F64(pred1 - pred0)),
                                    ("observed_ns", AttrValue::F64(obs1 - obs0)),
                                ],
                            );
                        }
                    }
                    stage1_chunks += 1;
                    if let Some(h) = hook.as_mut() {
                        h(&ChunkProgress {
                            rows_done: start + len,
                            n_rows: n,
                            iters_done: stage1_chunks,
                            chunk: eff_chunk,
                            oom_backoffs,
                            fill_counts: fill_counts
                                .iter()
                                .map(|c| c.load(Ordering::Relaxed))
                                .collect(),
                            agg_steps: agg[0].load(Ordering::Relaxed),
                            agg_edges: agg[1].load(Ordering::Relaxed),
                            agg_frontiers: agg[2].load(Ordering::Relaxed),
                            split,
                            overflow_rows: overflowed.lock().clone(),
                        })?;
                    }
                }
            } else {
                // Storing stage: per batch, as many rows (up to the
                // planned chunk) as the free bytes hold.
                let mut start = range.start;
                while start < range.end {
                    let free = gpu.mem.free_bytes();
                    let mut want = 0usize;
                    let mut planned_nnz = 0u64;
                    while start + want < range.end && want < chunk {
                        let c = count_of(rows[start + want]);
                        let out_need = if streaming { (planned_nnz + c) * 4 } else { 0 };
                        let need = (want as u64 + 1) * row_bytes + out_need;
                        if want > 0 && need > free {
                            break;
                        }
                        planned_nnz += c;
                        want += 1;
                    }
                    let ((_state_dev, out_dev, batch_nnz), got, backoffs) =
                        alloc_batch(&rows[start..start + want], row_bytes)?;
                    oom_backoffs += backoffs;
                    batches += 1;
                    let batch = &rows[start..start + got];
                    trace.span_begin(
                        "symbolic.batch",
                        "chunk",
                        gpu.now().as_ns(),
                        &[
                            ("start", start.into()),
                            ("rows", got.into()),
                            ("nnz", batch_nnz.into()),
                            ("streamed", streamed_output.into()),
                        ],
                    );
                    gpu.launch("symbolic_2", got, 1024, &|b: usize, ctx: &mut BlockCtx| {
                        body(batch[b], capped, ctx);
                    })?;
                    trace.span_end("symbolic.batch", "chunk", gpu.now().as_ns(), &[]);
                    if out_dev.is_some() {
                        gpu.d2h(batch_nnz * 4);
                    }
                    start += got;
                }
            }
        }

        // Re-run overflowed part-1 rows with full-size state.
        let mut retry: Vec<u32> = std::mem::take(&mut *overflowed.lock());
        retry.sort_unstable();
        if !store {
            overflow_rows += retry.len();
        }
        let mut idx = 0usize;
        while idx < retry.len() {
            let want = (retry.len() - idx).min(split.chunk2);
            let ((_state_dev, out_dev, nnz), got, backoffs) =
                alloc_batch(&retry[idx..idx + want], row_state_bytes(n))?;
            oom_backoffs += backoffs;
            let batch = &retry[idx..idx + got];
            batches += 1;
            trace.span_begin(
                "symbolic.retry",
                "chunk",
                gpu.now().as_ns(),
                &[("rows", batch.len().into())],
            );
            gpu.launch(
                "symbolic_retry",
                batch.len(),
                1024,
                &|b: usize, ctx: &mut BlockCtx| {
                    body(batch[b], false, ctx);
                },
            )?;
            trace.span_end("symbolic.retry", "chunk", gpu.now().as_ns(), &[]);
            if out_dev.is_some() {
                gpu.d2h(nnz * 4);
            }
            idx += got;
        }

        if !store {
            // Device prefix sum over fill_count, and the row offsets read
            // back for host-side assembly (Algorithm 3 line 7).
            gpu.launch(
                "prefix_sum",
                rows.len().div_ceil(1024).max(1),
                1024,
                &|_b: usize, ctx: &mut BlockCtx| {
                    ctx.step(1024);
                    ctx.mem(1024 * 4);
                },
            )?;
            gpu.d2h(rows.len() as u64 * 4);
        }
    }

    // The overflow list is drained per stage; anything left means a bug.
    debug_assert!(overflowed.lock().is_empty());

    Ok(TwoStageRun {
        split,
        chunk: chunk_in_force,
        stage1_chunks,
        num_iterations: stage1_chunks + batches,
        overflows: overflow_rows,
        oom_backoffs,
        streamed_output,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ooc::symbolic_ooc;
    use gplu_sim::GpuConfig;
    use gplu_sparse::gen::random::{banded_dominant, random_dominant};

    fn gpu_for(a: &Csr) -> Gpu {
        Gpu::new(GpuConfig::v100_symbolic_profile(a.n_rows(), a.nnz()))
    }

    /// `run_sharded` on `gpu` alone under `rule`, as the engines run it.
    fn run_on(
        gpu: &Gpu,
        a: &Csr,
        rule: SplitRule,
        resume: Option<&SymbolicResume>,
        hook: Option<&mut ChunkHook<'_>>,
    ) -> Result<FleetSymbolicOutcome, SimError> {
        run_sharded(
            &DeviceFleet::from(gpu),
            a,
            Blocked,
            rule,
            &NOOP,
            resume,
            hook,
        )
    }

    #[test]
    fn matches_naive_ooc_pattern() {
        let a = random_dominant(400, 4.0, 21);
        let naive = symbolic_ooc(&gpu_for(&a), &a).expect("naive runs");
        let dynamic = symbolic_ooc_dynamic(&gpu_for(&a), &a).expect("dynamic runs");
        assert_eq!(naive.result.filled, dynamic.result.filled);
    }

    #[test]
    fn part1_chunk_is_larger() {
        let a = banded_dominant(1200, 5, 4);
        let gpu = gpu_for(&a);
        let out = symbolic_ooc_dynamic(&gpu, &a).expect("runs");
        assert!(
            out.split.chunk1 >= out.split.chunk2,
            "part-1 chunk {} must be >= part-2 chunk {}",
            out.split.chunk1,
            out.split.chunk2
        );
    }

    #[test]
    fn dynamic_is_not_slower_than_naive() {
        // The optimization targets banded/mesh-like matrices where the
        // frontier profile rises late; allow a small tolerance for the
        // prepass overhead.
        let a = banded_dominant(1500, 6, 8);
        let naive = symbolic_ooc(&gpu_for(&a), &a).expect("naive runs");
        let dynamic = symbolic_ooc_dynamic(&gpu_for(&a), &a).expect("dynamic runs");
        assert!(
            dynamic.time.as_ns() <= naive.time.as_ns() * 1.10,
            "dynamic {} vs naive {}",
            dynamic.time,
            naive.time
        );
    }

    #[test]
    fn overflow_retry_keeps_pattern_correct() {
        // A hub-heavy matrix makes early rows occasionally spike above the
        // sampled cap; the retry path must keep results exact.
        let a = gplu_sparse::gen::circuit::circuit(&gplu_sparse::gen::circuit::CircuitParams {
            n: 600,
            nnz_per_row: 8.0,
            ..Default::default()
        });
        let naive = symbolic_ooc(&gpu_for(&a), &a).expect("naive runs");
        let dynamic = symbolic_ooc_dynamic(&gpu_for(&a), &a).expect("dynamic runs");
        assert_eq!(naive.result.filled, dynamic.result.filled);
    }

    #[test]
    fn releases_device_memory() {
        let a = random_dominant(300, 4.0, 13);
        let gpu = gpu_for(&a);
        let _ = symbolic_ooc_dynamic(&gpu, &a).expect("runs");
        assert_eq!(gpu.mem.used_bytes(), 0);
    }

    #[test]
    fn oom_backoff_recovers_and_keeps_pattern_exact() {
        use gplu_sim::{CostModel, FaultPlan};
        let a = random_dominant(400, 4.0, 21);
        let plain = symbolic_ooc_dynamic(&gpu_for(&a), &a).expect("runs");
        // Fail the first counting-stage state allocation (ordinal 3:
        // matrix, counts, part-1 state) twice.
        let gpu = Gpu::with_fault_plan(
            GpuConfig::v100_symbolic_profile(a.n_rows(), a.nnz()),
            CostModel::default(),
            FaultPlan::new().oom_on_alloc(3).oom_on_alloc(4),
        );
        let faulted = symbolic_ooc_dynamic(&gpu, &a).expect("backoff recovers");
        assert_eq!(faulted.oom_backoffs, 2);
        assert!(faulted.num_iterations > plain.num_iterations);
        assert_eq!(faulted.result.filled, plain.result.filled);
        assert_eq!(gpu.mem.used_bytes(), 0);
    }

    /// Clock and counters of both engines, pinned as literals at the
    /// commit that still had a second Algorithm 3 body: the merged driver
    /// must reproduce each engine's simulated time to the bit.
    #[test]
    fn golden_clock_and_counters_of_both_split_rules() {
        use gplu_sim::{CostModel, FaultPlan};
        let random = random_dominant(1024, 3.0, 5);
        let banded = banded_dominant(1500, 6, 8);
        let profile = |a: &Csr| GpuConfig::v100_symbolic_profile(a.n_rows(), a.nnz());
        // Two rows of state: the pattern cannot stay resident, so stage 2
        // streams.
        let small = device_for_rows(&banded, 2);
        // Fails the first stage-1 state allocation twice (matrix, counts,
        // state): the chunk halves twice.
        let backoff = || FaultPlan::new().oom_on_alloc(3).oom_on_alloc(4);
        let cases = [
            ("random", &random, profile(&random), FaultPlan::new()),
            ("banded", &banded, profile(&banded), FaultPlan::new()),
            ("small device", &banded, small, FaultPlan::new()),
            ("backoff", &random, profile(&random), backoff()),
        ];
        // (case, engine, time bits, iterations, chunk(s), host kernels,
        //  d2h bytes, backoffs, streamed)
        type Row = (
            &'static str,
            &'static str,
            u64,
            usize,
            (usize, usize),
            u64,
            u64,
            usize,
            bool,
        );
        #[rustfmt::skip]
        let golden: [Row; 8] = [
            ("random", "ooc", 0x4111218a55555556, 8, (130, 130), 18, 4096, 0, false),
            ("random", "dynamic", 0x410cc074aaaaaaaa, 9, (562, 130), 10, 4096, 0, false),
            ("banded", "ooc", 0x4119a5cb55555555, 8, (188, 188), 18, 6000, 0, false),
            ("banded", "dynamic", 0x4116658355555555, 11, (1040, 188), 12, 6000, 0, false),
            ("small device", "ooc", 0x418603c2acaaaabe, 750, (2, 2), 2251, 80520, 0, true),
            ("small device", "dynamic", 0x417c9f5c11555523, 1269, (11, 2), 1270, 80520, 0, true),
            // The one row that moved with the merge, on purpose. After a
            // stage-1 backoff Algorithm 3's own body capped stage-2
            // batches at the *halved* chunk (32 rows: 32 launches, time
            // bits 0x41297a192aaaaaaa, 65 kernels); the one driver caps
            // them at the *planned* chunk as Algorithm 4 always has (130
            // rows: the fault-free run's 9 launches). Stage 1 is
            // untouched: 32 chunks of 32.
            ("backoff", "ooc", 0x41214c4caaaaaaaa, 32, (32, 32), 42, 4096, 2, false),
            ("backoff", "dynamic", 0x411027f855555556, 13, (562, 130), 14, 4096, 2, false),
        ];
        let mut got: Vec<Row> = Vec::new();
        for (case, a, cfg, plan) in cases {
            let gpu = Gpu::with_fault_plan(cfg.clone(), CostModel::default(), plan.clone());
            let o = symbolic_ooc(&gpu, a).expect("ooc runs");
            got.push((
                case,
                "ooc",
                o.time.as_ns().to_bits(),
                o.num_iterations,
                (o.chunk_size, o.chunk_size),
                o.stats.kernels_host,
                o.stats.d2h_bytes,
                o.oom_backoffs,
                o.streamed_output,
            ));
            let gpu = Gpu::with_fault_plan(cfg, CostModel::default(), plan);
            let o = symbolic_ooc_dynamic(&gpu, a).expect("dynamic runs");
            got.push((
                case,
                "dynamic",
                o.time.as_ns().to_bits(),
                o.num_iterations,
                (o.split.chunk1, o.split.chunk2),
                o.stats.kernels_host,
                o.stats.d2h_bytes,
                o.oom_backoffs,
                o.streamed_output,
            ));
        }
        for (g, want) in got.iter().zip(&golden) {
            assert_eq!(g, want, "{} / {}", want.0, want.1);
        }
    }

    /// Cuts a run after each stage-1 chunk in turn (the hook aborts it the
    /// way an injected crash does) and resumes from the hook's snapshot.
    /// Every resumed run must reach the uncut run's outcome; returns each
    /// resumed run's simulated time bits, cut by cut.
    fn cut_at_every_chunk_and_resume<S: PartialEq + std::fmt::Debug>(
        engine: &str,
        run: impl Fn(
            Option<&SymbolicResume>,
            Option<&mut ChunkHook<'_>>,
        ) -> Result<(S, SimTime), SimError>,
    ) -> Vec<u64> {
        let mut chunks = 0u64;
        let (whole, _) = run(
            None,
            Some(&mut |_: &ChunkProgress| {
                chunks += 1;
                Ok(())
            }),
        )
        .expect("uninterrupted run");
        assert!(chunks >= 3, "{engine}: want a mid-stage cut, got {chunks}");
        let mut times = Vec::new();
        for k in 1..=chunks {
            let (mut seen, mut cut) = (0, None);
            run(
                None,
                Some(&mut |p: &ChunkProgress| {
                    seen += 1;
                    if seen < k {
                        return Ok(());
                    }
                    cut = Some(p.to_resume());
                    Err(SimError::Crashed { ordinal: k })
                }),
            )
            .expect_err("the hook aborts the run");
            let (resumed, time) = run(cut.as_ref(), None).expect("resumes");
            assert_eq!(resumed, whole, "{engine}: cut after chunk {k} of {chunks}");
            times.push(time.as_ns().to_bits());
        }
        times
    }

    #[test]
    fn a_run_cut_at_any_chunk_resumes_to_the_same_outcome_under_both_split_rules() {
        // Nineteen part-1 rows of this matrix overflow the sampled cap, so
        // the overflow set is carried across the cut with the watermark.
        let a = random_dominant(900, 3.0, 2);
        cut_at_every_chunk_and_resume("ooc", |resume, hook| {
            let o = crate::ooc::symbolic_ooc_run(
                &DeviceFleet::from(&gpu_for(&a)),
                &a,
                &NOOP,
                resume,
                hook,
            )?;
            let r = o.result;
            Ok((
                (r.filled, r.fill_count, r.metrics, o.run.num_iterations),
                o.time,
            ))
        });
        cut_at_every_chunk_and_resume("dynamic", |resume, hook| {
            let o = symbolic_ooc_dynamic_run(
                &DeviceFleet::from(&gpu_for(&a)),
                &a,
                &NOOP,
                resume,
                hook,
            )?;
            assert!(
                o.run.overflows > 0,
                "the case must exercise the overflow set"
            );
            let r = o.result;
            let outcome = (
                r.filled,
                r.fill_count,
                r.metrics,
                o.run.num_iterations,
                o.run.overflows,
            );
            Ok((outcome, o.time))
        });
    }

    /// Matrix, counts and `rows` rows of full traversal state.
    fn device_for_rows(a: &Csr, rows: u64) -> GpuConfig {
        let n = a.n_rows() as u64;
        let a_bytes = (n + 1 + a.nnz() as u64) * 4;
        GpuConfig::v100().with_memory(a_bytes + n * 4 + rows * row_state_bytes(a.n_rows()))
    }

    /// The streaming variant: the pattern cannot stay resident, so the
    /// storing stage sends each batch back. A resumed run meets the rows
    /// below its watermark for the first time in the storing stage, where
    /// the host traverses them; the clock must charge them as it always
    /// has. The time bits are pinned from the commit at which both stages
    /// still ran fill2 on the host.
    #[test]
    fn a_streaming_run_cut_at_any_chunk_resumes_to_the_same_outcome_and_clock() {
        let a = random_dominant(64, 12.0, 1);
        // Eight rows of state hold a little less than the pattern.
        let cfg = device_for_rows(&a, 8);
        let ooc = cut_at_every_chunk_and_resume("ooc", |resume, hook| {
            let gpu = Gpu::new(cfg.clone());
            let o =
                crate::ooc::symbolic_ooc_run(&DeviceFleet::from(&gpu), &a, &NOOP, resume, hook)?;
            assert!(o.run.streamed_output);
            let r = o.result;
            Ok(((r.filled, r.metrics, o.run.num_iterations), o.time))
        });
        let dynamic = cut_at_every_chunk_and_resume("dynamic", |resume, hook| {
            let gpu = Gpu::new(cfg.clone());
            let o = symbolic_ooc_dynamic_run(&DeviceFleet::from(&gpu), &a, &NOOP, resume, hook)?;
            assert!(o.run.streamed_output);
            let r = o.result;
            Ok(((r.filled, r.metrics, o.run.num_iterations), o.time))
        });
        #[rustfmt::skip]
        let want_ooc = [
            0x410df191fffffffe, 0x410d3ddffffffffe, 0x410c8035ffffffff, 0x410bb521ffffffff,
            0x410adb5000000000, 0x4109f2b400000000, 0x4109004200000000, 0x4108006200000001,
        ];
        #[rustfmt::skip]
        let want_dynamic = [
            0x4106880400000001, 0x4105bcf000000001, 0x4104e31e00000000, 0x4103fa8200000000,
            0x4103081000000000, 0x4102083000000001,
        ];
        assert_eq!(ooc, want_ooc);
        assert_eq!(dynamic, want_dynamic);
    }

    /// Every engine runs fill2 once per row on the host — the Algorithm 4
    /// prepass reads the memo too — while the clock keeps charging both
    /// stages and every overflow re-run (the golden tables pin that).
    #[test]
    fn each_row_is_traversed_once_on_the_host() {
        use crate::fill2::last_host_traversals;
        use crate::multi::{symbolic_fleet, Partition};
        use crate::ooc::fixed_split;
        use crate::um::{symbolic_um, UmMode};
        use gplu_sim::{CostModel, DeviceFleet, FaultPlan};
        // Part-1 rows of this matrix overflow the sampled cap: both stages
        // re-run them.
        let a = random_dominant(900, 3.0, 2);
        let n = a.n_rows() as u64;
        let profile = GpuConfig::v100_symbolic_profile(a.n_rows(), a.nnz());
        let streams = device_for_rows(&a, 4);
        for cfg in [profile.clone(), streams] {
            let run = |rule: SplitRule, resume: Option<&SymbolicResume>| {
                let gpu = Gpu::new(cfg.clone());
                let run = run_on(&gpu, &a, rule, resume, None).expect("runs");
                (run, last_host_traversals())
            };
            assert_eq!(run(fixed_split, None).1, n, "ooc");
            let (dynamic, traversals) = run(plan_split, None);
            assert!(dynamic.run.overflows > 0);
            assert_eq!(traversals, n, "dynamic, prepass included");

            // A run resumed past its third chunk plans no split and meets
            // the rows below the watermark after the cut: still once each.
            for rule in [fixed_split as SplitRule, plan_split] {
                let mut cut = None;
                let mut hook = |p: &ChunkProgress| {
                    if p.iters_done < 3 {
                        return Ok(());
                    }
                    cut = Some(p.to_resume());
                    Err(SimError::Crashed { ordinal: 3 })
                };
                let gpu = Gpu::new(cfg.clone());
                let cut_run = run_on(&gpu, &a, rule, None, Some(&mut hook));
                assert!(cut_run.is_err());
                assert_eq!(run(rule, cut.as_ref()).1, n, "resumed");
            }

            for mode in [UmMode::NoPrefetch, UmMode::Prefetch] {
                symbolic_um(&Gpu::new(cfg.clone()), &a, mode).expect("um runs");
                assert_eq!(last_host_traversals(), n, "{mode:?}");
            }
        }

        crate::cpu::symbolic_cpu(&a, &CostModel::default());
        assert_eq!(last_host_traversals(), n, "cpu");

        // Device 2 dies on its first launch: its rows re-run on the
        // survivors, from the memo.
        for plan in ["", "dev=2:badlaunch:*=1:persistent"] {
            let plans = FaultPlan::parse_fleet(plan, 4).expect("plans");
            let cost = CostModel::default();
            let fleet = DeviceFleet::with_fault_plans(4, profile.clone(), cost, &plans);
            symbolic_fleet(&fleet, &a, Partition::Strided).expect("fleet runs");
            assert_eq!(fleet.stats().resharded > 0, !plan.is_empty());
            assert_eq!(last_host_traversals(), n, "fleet {plan:?}");
        }
    }

    /// A failed run leaves nothing on the device: each launch fault of every
    /// kernel the driver issues, a hook that aborts after any chunk, and
    /// allocations that do not fit.
    #[test]
    fn a_failed_run_frees_every_device_buffer() {
        use crate::ooc::fixed_split;
        use gplu_sim::{CostModel, FaultPlan};
        let resident = random_dominant(900, 3.0, 2);
        let streamed = random_dominant(64, 12.0, 1);
        let cases = [
            (
                &resident,
                GpuConfig::v100_symbolic_profile(900, resident.nnz()),
            ),
            (&streamed, device_for_rows(&streamed, 8)),
        ];
        let rules = [("ooc", fixed_split as SplitRule), ("dynamic", plan_split)];
        let kernels = ["symbolic_1", "symbolic_2", "symbolic_retry", "prefix_sum"];
        for (a, cfg) in &cases {
            let n = a.n_rows();
            let run = |rule: SplitRule, plan: FaultPlan, hook: Option<&mut ChunkHook<'_>>| {
                let gpu = Gpu::with_fault_plan(cfg.clone(), CostModel::default(), plan);
                let r = run_on(&gpu, a, rule, None, hook).map(drop);
                (r, gpu.mem.used_bytes())
            };
            for (engine, rule) in rules {
                for kernel in kernels {
                    let mut landed = 0;
                    for k in 1.. {
                        match run(rule, FaultPlan::new().bad_launch(kernel, k), None) {
                            (Ok(()), _) => break,
                            (Err(e), used) => {
                                assert!(matches!(e, SimError::BadLaunch(_)), "{kernel} {k}: {e}");
                                assert_eq!(used, 0, "{engine} n={n}: {kernel} {k} leaked");
                                landed += 1;
                            }
                        }
                    }
                    // Algorithm 3 has no part 1 and the small matrix no
                    // overflowing row: nothing to re-run.
                    let retries = kernel == "symbolic_retry";
                    if !(retries && (engine == "ooc" || n == 64)) {
                        assert!(landed > 0, "{engine} n={n}: no {kernel} launch");
                    }
                }
                // The hook aborts after chunk k, for every k.
                for k in 1.. {
                    let mut seen = 0;
                    let mut hook = |_: &ChunkProgress| {
                        seen += 1;
                        if seen == k {
                            return Err(SimError::Crashed { ordinal: k });
                        }
                        Ok(())
                    };
                    match run(rule, FaultPlan::new(), Some(&mut hook)) {
                        (Ok(()), _) => break,
                        (Err(e), used) => {
                            assert!(matches!(e, SimError::Crashed { .. }), "hook {k}: {e}");
                            assert_eq!(used, 0, "{engine} n={n}: hook {k} leaked");
                        }
                    }
                }
                // The counts buffer, then every state allocation, fail.
                for plan in [
                    FaultPlan::new().oom_on_alloc(2),
                    FaultPlan::new().persistent_oom_from(3),
                ] {
                    let (r, used) = run(rule, plan, None);
                    assert!(matches!(r, Err(SimError::OutOfMemory { .. })), "{r:?}");
                    assert_eq!(used, 0, "{engine} n={n}: OOM leaked");
                }
            }
        }
        // Not one row of state fits: Algorithm 3 plans a zero chunk and
        // stops before allocating state, Algorithm 4 backs off to one row
        // and gives up.
        let a = &resident;
        let bare = device_for_rows(a, 0);
        let tight = bare.clone().with_memory(bare.device_memory + 1024);
        for rule in [fixed_split as SplitRule, plan_split] {
            let gpu = Gpu::new(tight.clone());
            let r = run_on(&gpu, a, rule, None, None).map(drop);
            assert!(matches!(r, Err(SimError::OutOfMemory { .. })), "{r:?}");
            assert_eq!(gpu.mem.used_bytes(), 0);
        }
    }

    #[test]
    fn resume_state_that_does_not_fit_the_matrix_is_a_typed_error() {
        let a = random_dominant(50, 3.0, 1);
        let fits = SymbolicResume {
            fill_counts: vec![0; 50],
            split: DynamicSplit {
                n1: 10,
                frontier_cap: 16,
                chunk1: 8,
                chunk2: 4,
            },
            ..Default::default()
        };
        let _ = symbolic_ooc_dynamic_run(
            &DeviceFleet::from(&gpu_for(&a)),
            &a,
            &NOOP,
            Some(&fits),
            None,
        )
        .expect("fits");
        let mut short_counts = fits.clone();
        short_counts.fill_counts.pop();
        let mut split_past_the_end = fits.clone();
        split_past_the_end.split.n1 = 51;
        let mut empty_part1_chunk = fits.clone();
        empty_part1_chunk.split.chunk1 = 0;
        for bad in [short_counts, split_past_the_end, empty_part1_chunk] {
            let err = symbolic_ooc_dynamic_run(
                &DeviceFleet::from(&gpu_for(&a)),
                &a,
                &NOOP,
                Some(&bad),
                None,
            );
            // The host stops the run: no device is at fault, so no ladder
            // degrades around it.
            let err = err.expect_err("rejected");
            assert!(matches!(err, SimError::Aborted(_)), "{bad:?}");
            assert!(err.is_terminal(), "{bad:?}");
        }
    }

    #[test]
    fn persistent_oom_is_a_typed_error() {
        use gplu_sim::{CostModel, FaultPlan};
        let a = random_dominant(300, 4.0, 13);
        let gpu = Gpu::with_fault_plan(
            GpuConfig::v100_symbolic_profile(a.n_rows(), a.nnz()),
            CostModel::default(),
            FaultPlan::new().persistent_oom_from(1),
        );
        assert!(matches!(
            symbolic_ooc_dynamic(&gpu, &a),
            Err(SimError::OutOfMemory { .. })
        ));
    }
}

//! GPU-simulated sparse triangular solves — the step the paper's
//! introduction motivates ("solution x can be easily obtained by solving
//! equations involving these two triangular matrices") and the natural
//! completion of the end-to-end GPU story: with factorization fully on the
//! device, the solve can stay there too.
//!
//! Triangular solves carry the same dependency structure as numeric
//! factorization: unknown `x_j` of `L y = b` is final only after every
//! `y_t` with `L(j, t) ≠ 0` has been applied. We reuse the workspace's
//! level machinery (Kahn wavefronts over the factor's own pattern) and run
//! one thread block per column per level, each scattering its column's
//! updates into the right-hand side — the level-scheduled GPU solve of the
//! sparse-triangular literature the paper cites.
//!
//! Nothing happens on the host between two levels, or between the two
//! sweeps, so a whole solve is **one kernel**: its first level is a
//! device-side launch and every later level continues it
//! ([`LaunchKind::Continue`]), its blocks waiting on an in-kernel
//! dependency flag for the level before — the synchronization-free
//! discipline of Liu et al. \[28\], priced as one block step per level
//! boundary instead of a launch. Every level still passes the fault
//! injector under its sweep's kernel name.
//!
//! Blocks of one level may update the same row, and floating-point
//! addition does not commute to the bit, so the host replays every level
//! in block order ([`Exec::Seq`]; pricing is identical either way): a row
//! receives its updates in (level, block) order on every run and `x` is
//! bit-reproducible, across repeats and between a single solve and the
//! same right-hand side inside a batch. It is still computed through the
//! level schedule — a wrong schedule yields a wrong answer — and therefore
//! equals the host `solve_lu` (column order) to rounding, not to the bit.
//!
//! Everything pattern-only lives in [`TriSolvePlan`]: the two wavefront
//! schedules *and* the per-column diagonal/`L`-segment positions the
//! sweeps consult on every solve. Building the plan costs one pass over
//! the factor; each subsequent solve is search-free (the
//! circuit-simulation pattern: one plan, many right-hand sides). For the
//! many-rhs case itself, [`solve_gpu_batch`] runs each level once across
//! *all* right-hand sides, so the per-level price of the deep, narrow
//! levels of triangular factors is paid once per level rather than once
//! per level per rhs; [`solve_gpu`] is a batch of one.

use crate::error::NumericError;
use crate::outcome::PivotCache;
use crate::values::ValueStore;
use gplu_schedule::Levels;
use gplu_sim::{BlockCtx, Exec, Gpu, GpuStatsSnapshot, LaunchKind, SimTime};
use gplu_sparse::{Csc, SparseError, Val};
use gplu_trace::{AttrValue, TraceSink, NOOP};

/// Precomputed pattern-only solve state for a combined factor: the level
/// schedules of both triangles plus the per-column structural positions
/// every sweep needs.
///
/// Building the plan costs one pass over the factor; it is reused across
/// every right-hand side (the circuit-simulation pattern: one plan, many
/// solves). No per-solve work re-derives pattern facts: the backward
/// sweep's pivot lookup and the forward sweep's `L`-segment start are
/// `O(1)` array reads out of this plan.
#[derive(Debug, Clone)]
pub struct TriSolvePlan {
    /// Wavefronts of the forward (unit-L) solve.
    pub l_levels: Levels,
    /// Wavefronts of the backward (U) solve.
    pub u_levels: Levels,
    /// Diagonal position and `L`-segment start of every column.
    pivot: PivotCache,
}

impl TriSolvePlan {
    /// Builds the schedules and position tables from the combined factor
    /// (unit-diagonal `L` strictly below, `U` on and above the diagonal).
    pub fn new(lu: &Csc) -> TriSolvePlan {
        let n = lu.n_cols();
        // One structural pass, shared by both schedule constructions below
        // and by every subsequent solve.
        let pivot = PivotCache::build(lu);
        // Forward solve: column j's updates touch rows > j where L has
        // entries, so x_j depends on every t < j with L(j, t) != 0 — the
        // longest-path recurrence over the L pattern (edges ascend).
        let mut l_level = vec![0u32; n];
        let mut u_level = vec![0u32; n];
        for t in 0..n {
            for k in pivot.lower_start(t)..lu.col_ptr[t + 1] {
                let j = lu.row_idx[k] as usize;
                l_level[j] = l_level[j].max(l_level[t] + 1);
            }
        }
        // Backward solve: x_j depends on every i > j with U(i, j)… in
        // column terms, column j of U updates rows i < j, so the
        // dependency points downward; sweep columns descending.
        for t in (0..n).rev() {
            for k in lu.col_ptr[t]..pivot.lower_start(t) {
                let i = lu.row_idx[k] as usize;
                if i < t {
                    u_level[i] = u_level[i].max(u_level[t] + 1);
                }
            }
        }
        TriSolvePlan {
            l_levels: Levels::from_level_of(l_level),
            u_levels: Levels::from_level_of(u_level),
            pivot,
        }
    }

    /// Position of the diagonal entry of column `j`, if structurally
    /// present (absent is reported as [`SparseError::ZeroDiagonal`] at
    /// solve time).
    #[inline]
    pub fn diag(&self, j: usize) -> Option<usize> {
        self.pivot.diag(j)
    }

    /// First position in column `j` whose row index exceeds `j` (the
    /// start of the `L` segment).
    #[inline]
    pub fn lower_start(&self, j: usize) -> usize {
        self.pivot.lower_start(j)
    }

    /// Number of columns covered by the plan.
    pub fn n_cols(&self) -> usize {
        self.pivot.len()
    }

    /// Estimated host-memory footprint of the plan (the quantity a factor
    /// cache charges against its device-model budget).
    pub fn approx_bytes(&self) -> u64 {
        let levels = |l: &Levels| {
            (l.level_of.len() * 4 + l.groups.iter().map(Vec::len).sum::<usize>() * 4) as u64
        };
        levels(&self.l_levels) + levels(&self.u_levels) + (self.pivot.len() as u64) * 16
    }
}

/// Outcome of a GPU triangular solve.
#[derive(Debug, Clone)]
pub struct TriSolveOutcome {
    /// The solution vector.
    pub x: Vec<Val>,
    /// Simulated time of both sweeps.
    pub time: SimTime,
    /// Levels of the forward sweep.
    pub l_levels: usize,
    /// Levels of the backward sweep.
    pub u_levels: usize,
    /// GPU statistics delta.
    pub stats: GpuStatsSnapshot,
}

/// Outcome of a batched multi-rhs GPU triangular solve.
#[derive(Debug, Clone)]
pub struct BatchSolveOutcome {
    /// One solution per input right-hand side, in order.
    pub xs: Vec<Vec<Val>>,
    /// Simulated time of the whole batch.
    pub time: SimTime,
    /// Kernel launches issued: one for the whole batch, both sweeps — not
    /// one per level and not one per rhs.
    pub launches: u64,
    /// GPU statistics delta.
    pub stats: GpuStatsSnapshot,
}

/// Solves `(L·U) x = b` on the simulated GPU with the level-scheduled
/// column algorithm, given a combined factor and its plan.
pub fn solve_gpu(
    gpu: &Gpu,
    lu: &Csc,
    plan: &TriSolvePlan,
    b: &[Val],
) -> Result<TriSolveOutcome, NumericError> {
    solve_gpu_traced(gpu, lu, plan, b, &NOOP)
}

/// [`solve_gpu`] with telemetry: one `trisolve` drift sample covering the
/// whole solve (transfers + both sweeps) for the cost-model drift
/// profiler. A batch of one: the same allocation, transfers and launch
/// grids, so the same clock.
pub fn solve_gpu_traced(
    gpu: &Gpu,
    lu: &Csc,
    plan: &TriSolvePlan,
    b: &[Val],
    trace: &dyn TraceSink,
) -> Result<TriSolveOutcome, NumericError> {
    let mut out = solve_gpu_batch_traced(gpu, lu, plan, &[b.to_vec()], trace)?;
    Ok(TriSolveOutcome {
        x: out.xs.pop().expect("one rhs in, one solution out"),
        time: out.time,
        l_levels: plan.l_levels.n_levels(),
        u_levels: plan.u_levels.n_levels(),
        stats: out.stats,
    })
}

/// Solves `(L·U) X = B` for a whole batch of right-hand sides in one
/// kernel: at every level of either sweep, block `(c, r)` applies column
/// `cols[c]` to right-hand side `r`. The per-level fixed price — the
/// dominant cost of the deep, narrow wavefronts of triangular factors — is
/// paid once per level instead of once per level *per rhs*.
pub fn solve_gpu_batch(
    gpu: &Gpu,
    lu: &Csc,
    plan: &TriSolvePlan,
    bs: &[Vec<Val>],
) -> Result<BatchSolveOutcome, NumericError> {
    solve_gpu_batch_traced(gpu, lu, plan, bs, &NOOP)
}

/// [`solve_gpu_batch`] with telemetry: one `trisolve` drift sample
/// covering the whole batch.
pub fn solve_gpu_batch_traced(
    gpu: &Gpu,
    lu: &Csc,
    plan: &TriSolvePlan,
    bs: &[Vec<Val>],
    trace: &dyn TraceSink,
) -> Result<BatchSolveOutcome, NumericError> {
    let n = lu.n_cols();
    if bs.is_empty() {
        return Err(NumericError::Input("empty rhs batch".into()));
    }
    for (r, b) in bs.iter().enumerate() {
        if b.len() != n {
            return Err(NumericError::Input(format!(
                "rhs {r} length {} does not match matrix dimension {n}",
                b.len()
            )));
        }
    }
    if plan.n_cols() != n {
        return Err(NumericError::Input(format!(
            "plan covers {} columns, matrix has {n}",
            plan.n_cols()
        )));
    }
    let before = gpu.stats();
    let clk0 = trace.enabled().then(|| gpu.clocks());

    // The factor is assumed device-resident (it just came out of numeric
    // factorization); the right-hand sides cross the bus.
    let bytes = (bs.len() * n) as u64 * 8;
    let _x_dev = gpu.mem.alloc(bytes)?;
    gpu.h2d(bytes);

    let ys: Vec<ValueStore> = bs.iter().map(|b| ValueStore::new(b)).collect();
    // Forward: y_j is final; apply y_i -= L(i,j)·y_j to the rows below.
    sweep(gpu, "trisolve_l", true, &plan.l_levels, &ys, |y, j, ctx| {
        forward_column(lu, plan, y, j, ctx);
        Ok(())
    })?;
    // Backward, in the same kernel: divide by the pivot, then push x_j up
    // through U's column.
    sweep(
        gpu,
        "trisolve_u",
        false,
        &plan.u_levels,
        &ys,
        |y, j, ctx| backward_column(lu, plan, y, j, ctx),
    )?;
    gpu.d2h(bytes);
    emit_trisolve_drift(gpu, trace, clk0);
    let stats = gpu.stats().since(&before);
    Ok(BatchSolveOutcome {
        xs: ys.into_iter().map(ValueStore::into_vec).collect(),
        time: stats.now,
        launches: stats.kernels_host + stats.kernels_device,
        stats,
    })
}

/// One sweep: per level, one level of the solve's kernel whose block
/// `c·nrhs + r` applies column `cols[c]` to right-hand side `r`, replayed
/// in block order so every row receives its updates in the same order on
/// every run. Only the sweep that `opens` the kernel launches its first
/// level (from the device); every other level continues the kernel.
fn sweep(
    gpu: &Gpu,
    name: &str,
    opens: bool,
    levels: &Levels,
    ys: &[ValueStore],
    column: impl Fn(&ValueStore, usize, &mut BlockCtx) -> Result<(), SparseError> + Sync,
) -> Result<(), NumericError> {
    let nrhs = ys.len();
    let error = parking_lot::Mutex::new(None::<SparseError>);
    for (li, cols) in levels.groups.iter().enumerate() {
        gpu.launch_striped(
            name,
            cols.len() * nrhs,
            1,
            256,
            LaunchKind::level(opens && li == 0, LaunchKind::Device),
            Exec::Seq,
            None,
            &|blk: usize, ctx: &mut BlockCtx| {
                if let Err(e) = column(&ys[blk % nrhs], cols[blk / nrhs] as usize, ctx) {
                    error.lock().get_or_insert(e);
                }
            },
        )?;
        if let Some(e) = error.lock().take() {
            return Err(NumericError::from_sparse_at_level(e, usize::MAX));
        }
    }
    Ok(())
}

/// Emits the solve's predicted-vs-observed drift sample when the sink is
/// live and simulated time actually passed.
fn emit_trisolve_drift(gpu: &Gpu, trace: &dyn TraceSink, clk0: Option<(f64, f64)>) {
    if let Some((obs0, pred0)) = clk0 {
        let (obs1, pred1) = gpu.clocks();
        if obs1 > obs0 {
            trace.instant(
                "drift.sample",
                "drift",
                obs1,
                &[
                    ("kind", "trisolve".into()),
                    ("predicted_ns", AttrValue::F64(pred1 - pred0)),
                    ("observed_ns", AttrValue::F64(obs1 - obs0)),
                ],
            );
        }
    }
}

/// One forward-sweep column: `y_i -= L(i, j) · y_j` for the rows below
/// the diagonal. The `L`-segment bounds come from the plan — no
/// per-solve pattern search.
#[inline]
fn forward_column(lu: &Csc, plan: &TriSolvePlan, y: &ValueStore, j: usize, ctx: &mut BlockCtx) {
    let yj = y.get(j);
    let start = plan.lower_start(j);
    let end = lu.col_ptr[j + 1];
    ctx.bulk_flops(1, (end - start) as u64);
    ctx.mem((end - start) as u64 * 12);
    if yj != 0.0 {
        for k in start..end {
            let i = lu.row_idx[k] as usize;
            y.set(i, y.get(i) - lu.vals[k] * yj);
        }
    }
}

/// One backward-sweep column: divide by the pivot (position read from
/// the plan), then push `x_j`'s contribution up through `U`'s column.
#[inline]
fn backward_column(
    lu: &Csc,
    plan: &TriSolvePlan,
    y: &ValueStore,
    j: usize,
    ctx: &mut BlockCtx,
) -> Result<(), SparseError> {
    let Some(diag_pos) = plan.diag(j) else {
        return Err(SparseError::ZeroDiagonal { row: j });
    };
    let pivot = lu.vals[diag_pos];
    if pivot == 0.0 || !pivot.is_finite() {
        return Err(SparseError::ZeroPivot { col: j });
    }
    let xj = y.get(j) / pivot;
    y.set(j, xj);
    let ups = diag_pos - lu.col_ptr[j];
    ctx.bulk_flops(1, ups as u64);
    ctx.mem(ups as u64 * 12);
    if xj != 0.0 {
        for k in lu.col_ptr[j]..diag_pos {
            let i = lu.row_idx[k] as usize;
            y.set(i, y.get(i) - lu.vals[k] * xj);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use gplu_sim::{CostModel, GpuConfig};
    use gplu_sparse::convert::csr_to_csc;
    use gplu_sparse::gen::random::{banded_dominant, random_dominant};
    use gplu_sparse::triangular::solve_lu;
    use gplu_symbolic::symbolic_cpu;

    fn factor(a: &gplu_sparse::Csr) -> Csc {
        let mut lu = csr_to_csc(&symbolic_cpu(a, &CostModel::default()).result.filled);
        crate::seq::factorize_seq(&mut lu).expect("factorizes");
        lu
    }

    #[test]
    fn matches_host_solve() {
        let a = random_dominant(200, 4.0, 91);
        let lu = factor(&a);
        let b: Vec<f64> = (0..200).map(|i| (i % 5) as f64 - 2.0).collect();
        let host = solve_lu(&lu, &b).expect("host solve");
        let plan = TriSolvePlan::new(&lu);
        let gpu = Gpu::new(GpuConfig::v100());
        let out = solve_gpu(&gpu, &lu, &plan, &b).expect("gpu solve");
        for (k, (h, g)) in host.iter().zip(&out.x).enumerate() {
            assert!((h - g).abs() < 1e-9, "x[{k}]: host {h} vs gpu {g}");
        }
    }

    #[test]
    fn solves_the_original_system() {
        let a = banded_dominant(300, 4, 92);
        let lu = factor(&a);
        let x_true = vec![1.5; 300];
        let b = a.spmv(&x_true);
        let plan = TriSolvePlan::new(&lu);
        let gpu = Gpu::new(GpuConfig::v100());
        let out = solve_gpu(&gpu, &lu, &plan, &b).expect("gpu solve");
        assert!(gplu_sparse::verify::check_solution(&a, &out.x, &b, 1e-8));
    }

    #[test]
    fn plan_levels_respect_dependencies() {
        let a = random_dominant(150, 4.0, 93);
        let lu = factor(&a);
        let plan = TriSolvePlan::new(&lu);
        // Forward: every L entry (i, j) with i > j must cross levels.
        for j in 0..150 {
            for k in lu.lower_bound_after(j, j)..lu.col_ptr[j + 1] {
                let i = lu.row_idx[k] as usize;
                assert!(
                    plan.l_levels.level_of[i] > plan.l_levels.level_of[j],
                    "L({i},{j}) violates forward schedule"
                );
            }
        }
        // Backward: every strict-U entry (i, j) with i < j must cross.
        for j in 0..150 {
            let diag = lu.lower_bound_after(j, j);
            for k in lu.col_ptr[j]..diag {
                let i = lu.row_idx[k] as usize;
                if i < j {
                    assert!(
                        plan.u_levels.level_of[i] > plan.u_levels.level_of[j],
                        "U({i},{j}) violates backward schedule"
                    );
                }
            }
        }
    }

    #[test]
    fn plan_hoists_pattern_positions() {
        let a = random_dominant(120, 4.0, 98);
        let lu = factor(&a);
        let plan = TriSolvePlan::new(&lu);
        for j in 0..120 {
            assert_eq!(plan.lower_start(j), lu.lower_bound_after(j, j));
            assert_eq!(plan.diag(j), lu.find_in_col(j, j).0);
        }
        assert!(plan.approx_bytes() > 0);
    }

    #[test]
    fn plan_reuse_across_many_rhs() {
        let a = random_dominant(120, 4.0, 94);
        let lu = factor(&a);
        let plan = TriSolvePlan::new(&lu);
        let gpu = Gpu::new(GpuConfig::v100());
        for seed in 0..4u64 {
            let x_true: Vec<f64> = (0..120)
                .map(|i| ((i as u64 + seed) % 9) as f64 + 1.0)
                .collect();
            let b = a.spmv(&x_true);
            let out = solve_gpu(&gpu, &lu, &plan, &b).expect("gpu solve");
            assert!(
                gplu_sparse::verify::check_solution(&a, &out.x, &b, 1e-8),
                "rhs {seed}"
            );
        }
    }

    #[test]
    fn batch_matches_per_rhs_solves_bitwise() {
        let a = random_dominant(150, 4.0, 99);
        let lu = factor(&a);
        let plan = TriSolvePlan::new(&lu);
        let bs: Vec<Vec<f64>> = (0..5u64)
            .map(|s| {
                (0..150)
                    .map(|i| ((i as u64 * 31 + s) % 11) as f64 - 5.0)
                    .collect()
            })
            .collect();
        let gpu_b = Gpu::new(GpuConfig::v100());
        let batch = solve_gpu_batch(&gpu_b, &lu, &plan, &bs).expect("batch solve");
        assert_eq!(batch.xs.len(), 5);
        for (r, b) in bs.iter().enumerate() {
            let gpu_s = Gpu::new(GpuConfig::v100());
            let single = solve_gpu(&gpu_s, &lu, &plan, b).expect("single solve");
            assert_eq!(batch.xs[r], single.x, "rhs {r} must be bit-identical");
        }
    }

    #[test]
    fn batch_amortizes_launch_latency() {
        let a = banded_dominant(400, 4, 100);
        let lu = factor(&a);
        let plan = TriSolvePlan::new(&lu);
        let nrhs = 8;
        let bs: Vec<Vec<f64>> = (0..nrhs)
            .map(|s| a.spmv(&vec![1.0 + s as f64; 400]))
            .collect();
        let gpu_b = Gpu::new(GpuConfig::v100());
        let batch = solve_gpu_batch(&gpu_b, &lu, &plan, &bs).expect("batch");
        let gpu_s = Gpu::new(GpuConfig::v100());
        let mut serial = SimTime::ZERO;
        for b in &bs {
            serial += solve_gpu(&gpu_s, &lu, &plan, b).expect("single").time;
        }
        assert!(
            batch.time < serial,
            "batched {} must beat {} serial solves at {}",
            batch.time,
            nrhs,
            serial
        );
        // One kernel for the batch: every level after the first, across
        // both sweeps, is an in-kernel dependency wait.
        assert_eq!(batch.launches, 1, "one launch per batch");
        assert_eq!(
            batch.stats.dependency_waits as usize,
            plan.l_levels.n_levels() + plan.u_levels.n_levels() - 1
        );
    }

    #[test]
    fn batch_rejects_bad_inputs() {
        let a = random_dominant(40, 3.0, 96);
        let lu = factor(&a);
        let plan = TriSolvePlan::new(&lu);
        let gpu = Gpu::new(GpuConfig::v100());
        assert!(matches!(
            solve_gpu_batch(&gpu, &lu, &plan, &[]).unwrap_err(),
            NumericError::Input(_)
        ));
        assert!(matches!(
            solve_gpu_batch(&gpu, &lu, &plan, &[vec![1.0; 7]]).unwrap_err(),
            NumericError::Input(_)
        ));
    }

    #[test]
    fn frees_device_memory() {
        let a = random_dominant(80, 3.0, 95);
        let lu = factor(&a);
        let plan = TriSolvePlan::new(&lu);
        let gpu = Gpu::new(GpuConfig::v100());
        let b = vec![1.0; 80];
        solve_gpu(&gpu, &lu, &plan, &b).expect("gpu solve");
        solve_gpu_batch(&gpu, &lu, &plan, &[b.clone(), b]).expect("batch solve");
        assert_eq!(gpu.mem.used_bytes(), 0);
    }

    #[test]
    fn rhs_length_mismatch_is_typed_not_a_panic() {
        let a = random_dominant(40, 3.0, 96);
        let lu = factor(&a);
        let plan = TriSolvePlan::new(&lu);
        let gpu = Gpu::new(GpuConfig::v100());
        let err = solve_gpu(&gpu, &lu, &plan, &[1.0; 7]).unwrap_err();
        assert!(matches!(err, NumericError::Input(_)), "got {err}");
    }

    #[test]
    fn zero_pivot_in_factor_is_singular_pivot() {
        let a = random_dominant(40, 3.0, 97);
        let mut lu = factor(&a);
        // Corrupt one pivot to zero: the backward sweep must report it.
        let (diag, _) = lu.find_in_col(5, 5);
        lu.vals[diag.expect("diagonal present")] = 0.0;
        let plan = TriSolvePlan::new(&lu);
        let gpu = Gpu::new(GpuConfig::v100());
        let err = solve_gpu(&gpu, &lu, &plan, &[1.0; 40]).unwrap_err();
        assert_eq!(
            err,
            NumericError::SingularPivot {
                col: 5,
                level: usize::MAX
            }
        );
        assert_eq!(gpu.mem.used_bytes(), 0, "a failed solve frees its rhs");
        // A launch fault at any level of the backward sweep — each still a
        // fault-plan ordinal although it continues the kernel — fails the
        // solve and frees the rhs too.
        let lu = factor(&a);
        let plan = TriSolvePlan::new(&lu);
        for k in 1..=plan.u_levels.n_levels() {
            let spec = format!("badlaunch:trisolve_u={k}");
            let faults = gplu_sim::FaultPlan::parse(&spec).expect("plan");
            let gpu = Gpu::with_fault_plan(GpuConfig::v100(), CostModel::default(), faults);
            let err = solve_gpu(&gpu, &lu, &plan, &[1.0; 40]).unwrap_err();
            assert!(matches!(err, NumericError::Sim(_)), "trisolve_u={k}: {err}");
            assert_eq!(gpu.mem.used_bytes(), 0, "trisolve_u={k}");
        }
    }
}

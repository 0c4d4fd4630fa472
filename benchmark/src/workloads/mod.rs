//! The six workloads. Each is a fixed, seed-determined list of operations
//! (a *pass*) over long-lived state built once in set-up.
//!
//! Pass sizes were chosen on a 2-core box so that one pass takes 1.1–1.5 s
//! of wall time on the unmodified program (never under a second, even in
//! the box's fast spells): long enough that scheduler noise is a small
//! share, short enough that seven passes plus three set-ups fit the run
//! budget.

mod chain_banded;
mod factor_solve;
mod fleet_4dev;
pub mod serve_mix;
mod warm_refactor;

use crate::trace::{Layers, Tracer};
use gplu::core::PhaseReport;
use gplu::core::RecoveryAction;
use gplu::sim::GpuStatsSnapshot;

/// Outcome of one operation.
#[derive(Debug, Clone)]
pub struct OpOut {
    /// Wall time of the operation's calls into the program, without the
    /// harness's own verification.
    pub lat_ms: f64,
    /// Simulated device time the operation consumed.
    pub sim_ns: f64,
    /// Hash of the bit patterns of `lu.vals`: the factors the operation
    /// computed, or those a solve-only operation ran on (device solutions
    /// repeat only to rounding and are not hashed).
    pub hash: u64,
    /// Why the operation failed: a program error (typed rejections
    /// included), a residual above tolerance, or a replay mismatch. The
    /// runner adds which operation and pass it was.
    pub failure: Option<String>,
}

impl OpOut {
    pub fn failed(lat_ms: f64, why: impl std::fmt::Display) -> OpOut {
        OpOut {
            lat_ms,
            sim_ns: 0.0,
            hash: 0,
            failure: Some(why.to_string()),
        }
    }
}

/// Milliseconds since `t0`.
pub fn ms_since(t0: std::time::Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e3
}

/// A workload the runner can execute pass by pass.
pub trait Workload {
    /// Executes the pass once with tracing off.
    fn pass(&mut self) -> Vec<OpOut>;

    /// Executes the pass once and, per operation, the layer-by-layer
    /// replay under spans. `l` receives the pass's per-layer numbers.
    fn traced_pass(&mut self, t: &mut Tracer, l: &mut Layers) -> Vec<OpOut>;

    /// Whether simulated time repeats to the bit across passes (every
    /// single-client workload; not `serve_mix`, where two workers race for
    /// cache tiers).
    fn sim_exact(&self) -> bool {
        true
    }

    /// Spans recorded on threads other than the runner's (client threads),
    /// drained once at the end of the run.
    fn take_thread_spans(&mut self) -> Vec<Vec<crate::trace::Span>> {
        Vec::new()
    }
}

/// A single-client workload: operations run one after another.
pub trait Ops {
    fn n_ops(&self) -> usize;
    fn run_op(&mut self, i: usize) -> OpOut;
    fn trace_op(&mut self, i: usize, t: &mut Tracer, l: &mut Layers) -> OpOut;
}

impl<T: Ops> Workload for T {
    fn pass(&mut self) -> Vec<OpOut> {
        (0..self.n_ops()).map(|i| self.run_op(i)).collect()
    }

    fn traced_pass(&mut self, t: &mut Tracer, l: &mut Layers) -> Vec<OpOut> {
        (0..self.n_ops()).map(|i| self.trace_op(i, t, l)).collect()
    }
}

/// Name and one-line rationale of every workload, in BENCHMARK.json order.
pub const WORKLOADS: [(&str, &str); 6] = [
    (
        "cold_suite",
        "the paper's Fig. 4 population cold on the out-of-core device; every layer runs, numeric does most of the work",
    ),
    (
        "chain_banded",
        "deep narrow schedules: launch-bound on both clocks, symbolic and trisolve dominate, numeric arithmetic is bypassed",
    ),
    (
        "warm_refactor",
        "circuit-transient refactorization from captured plans with batched solves: no symbolic, no levelize",
    ),
    (
        "pivot_hard",
        "adversarial matrices under threshold pivoting with escalation: the only traffic through pivot discovery and fill expansion",
    ),
    (
        "serve_mix",
        "the solver service under two closed-loop clients: queue, cache tiers and all execution tiers, reads beside evicting writes",
    ),
    (
        "fleet_4dev",
        "four-device fleet pipeline with host solve: the forked fleet driver and the level-barrier exchange",
    ),
];

/// Builds the named workload's long-lived state and inputs from `seed`.
/// (The warm-up pass that completes set-up is the runner's.)
pub fn build(name: &str, seed: u64) -> Option<Box<dyn Workload>> {
    Some(match name {
        "cold_suite" => Box::new(factor_solve::cold_suite(seed)),
        "pivot_hard" => Box::new(factor_solve::pivot_hard(seed)),
        "chain_banded" => Box::new(chain_banded::ChainBanded::new(seed)),
        "warm_refactor" => Box::new(warm_refactor::WarmRefactor::new(seed)),
        "serve_mix" => Box::new(serve_mix::ServeMix::new(seed)),
        "fleet_4dev" => Box::new(fleet_4dev::Fleet4Dev::new(seed)),
        _ => return None,
    })
}

/// Folds a factorization's `PhaseReport` into the pass's sim-clock and
/// count rows.
pub fn record_report(l: &mut Layers, r: &PhaseReport) {
    l.add("ops.factorized", 1.0);
    l.add("preprocess.sim_ms", r.preprocess.as_ms());
    l.add("symbolic.sim_ms", r.symbolic.as_ms());
    l.add("schedule.sim_ms", r.levelize.as_ms());
    l.add("numeric.sim_ms", r.numeric.as_ms());
    l.add("symbolic.iterations", r.symbolic_iterations as f64);
    l.add("symbolic.chunk_rows", r.chunk_size as f64);
    l.add("symbolic.fill_nnz", r.fill_nnz as f64);
    l.add("symbolic.new_fill_ins", r.new_fill_ins as f64);
    let sym = &r.phase_stats.symbolic;
    l.add(
        "symbolic.kernels",
        (sym.kernels_host + sym.kernels_device) as f64,
    );
    l.add(
        "symbolic.xfer_bytes",
        (sym.h2d_bytes + sym.d2h_bytes) as f64,
    );
    l.add("schedule.levels", r.n_levels as f64);
    l.max("schedule.max_width", r.max_level_width as f64);
    l.add("numeric.merge_steps", r.merge_steps as f64);
    l.add("numeric.probes", r.probes as f64);
    l.add("numeric.gemm_tiles", r.gemm_tiles as f64);
    let num = &r.phase_stats.numeric;
    l.add(
        "numeric.kernels",
        (num.kernels_host + num.kernels_device) as f64,
    );
    l.add("numeric.pivot_swaps", r.pivot_swaps as f64);
    l.add("numeric.pattern_expanded", r.pattern_expanded as f64);
    let escalations = r
        .recovery
        .events()
        .iter()
        .filter(|e| matches!(e.action, RecoveryAction::PivotEscalated { .. }))
        .count();
    l.add("numeric.escalations", escalations as f64);
    l.add("core.recovery_events", r.recovery.len() as f64);
    let lvl = &r.phase_stats.levelize;
    l.add(
        "launches.levelize_numeric",
        (lvl.kernels_host + lvl.kernels_device + num.kernels_host + num.kernels_device) as f64,
    );
}

/// Folds one device's whole-operation statistics into the gpu-sim rows.
pub fn record_device(l: &mut Layers, s: &GpuStatsSnapshot, peak_bytes: u64) {
    l.add("sim.kernels_host", s.kernels_host as f64);
    l.add("sim.kernels_device", s.kernels_device as f64);
    l.add("sim.h2d_bytes", s.h2d_bytes as f64);
    l.add("sim.d2h_bytes", s.d2h_bytes as f64);
    l.add("sim.kernel_sim_ms", s.kernel_time.as_ms());
    l.add("sim.xfer_sim_ms", s.xfer_time.as_ms());
    l.max(
        "sim.peak_device_mib",
        peak_bytes as f64 / (1u64 << 20) as f64,
    );
}

/// Bit equality of two value arrays.
pub fn bits_equal(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// A replayed factorization on its own device, ready for replayed solves.
pub struct ReplayedFactor {
    pub gpu: gplu::sim::Gpu,
    pub rp: crate::replay::Replayed,
    pub plan: gplu::numeric::TriSolvePlan,
}

/// Replays `compute(a, opts)` layer by layer on a fresh device of
/// configuration `cfg`, builds the solve plan, and holds the result to
/// what `compute` returned in `f`: factors equal to the bit, simulated
/// time equal to the bit.
pub fn replay_factor(
    cfg: &gplu::sim::GpuConfig,
    a: &gplu::sparse::Csr,
    opts: &gplu::core::LuOptions,
    f: &gplu::core::LuFactorization,
    t: &mut Tracer,
    op: u32,
    l: &mut Layers,
) -> Result<ReplayedFactor, String> {
    let gpu = gplu::sim::Gpu::new(cfg.clone());
    let rp = crate::replay::replay_compute(&gpu, a, opts, t, op, l)
        .map_err(|e| format!("replay failed: {e}"))?;
    let (plan, ms) = t.time("trisolve.plan", op, || {
        gplu::numeric::TriSolvePlan::new(&rp.lu)
    });
    l.add("trisolve.plan_wall_ms", ms);
    l.add(rp.engine.ops_metric(), 1.0);
    if !bits_equal(&rp.lu.vals, &f.lu.vals) {
        return Err("replayed factors differ from compute's".into());
    }
    if rp.sim_total.as_ns() != f.report.total().as_ns() {
        return Err(format!(
            "replay priced {} ns, compute {} ns",
            rp.sim_total.as_ns(),
            f.report.total().as_ns()
        ));
    }
    Ok(ReplayedFactor { gpu, rp, plan })
}

/// Replays one single-RHS device solve through `numeric::solve_gpu` and
/// holds it to the simulated time `t_solve` the program's own
/// `solve_on_gpu` reported and to the harness's residual check. (The
/// two solutions are not compared bit for bit: concurrent columns of a
/// level scatter their updates in thread order, so a device solve repeats
/// only to rounding.)
pub fn replay_solve(
    rf: &ReplayedFactor,
    check: &crate::verify::Check<'_>,
    t_solve: gplu::sim::SimTime,
    t: &mut Tracer,
    op: u32,
    l: &mut Layers,
) -> Result<(), String> {
    let b_perm = rf.rp.p_row.permute_vec(check.b);
    let (solved, ms) = t.time("trisolve.solve_gpu", op, || {
        gplu::numeric::solve_gpu(&rf.gpu, &rf.rp.lu, &rf.plan, &b_perm)
    });
    l.add("trisolve.solve_wall_ms", ms);
    l.add("launch.wall_ms", ms);
    let s = solved.map_err(|e| format!("replayed solve: {e}"))?;
    l.add("trisolve.sim_ms", s.time.as_ms());
    l.add("trisolve.rhs", 1.0);
    l.add("trisolve.levels", (s.l_levels + s.u_levels) as f64);
    l.add(
        "launches.trisolve",
        (s.stats.kernels_host + s.stats.kernels_device) as f64,
    );
    let x: Vec<f64> = (0..s.x.len()).map(|k| s.x[rf.rp.p_col.apply(k)]).collect();
    if let Some(e) = check.failure(&x) {
        return Err(format!("replayed solve: {e}"));
    }
    if s.time.as_ns() != t_solve.as_ns() {
        return Err(format!(
            "replayed solve priced {} ns, solve_on_gpu {} ns",
            s.time.as_ns(),
            t_solve.as_ns()
        ));
    }
    Ok(())
}

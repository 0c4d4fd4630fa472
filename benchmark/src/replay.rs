//! The layered replay: the harness executes, through public entry points
//! and in pipeline order, the same layers `LuFactorization::compute` (or
//! `compute_fleet`) drives internally, with a span around each call. The
//! caller then checks the replayed factors against `compute`'s to the bit,
//! so the per-layer walls are walls of the same work.
//!
//! The replay mirrors the pipeline's ladders — symbolic engine fallback,
//! format degradation, late pivot repair, residual-gated pivot escalation —
//! because `pivot_hard` walks them. A drift between this file and the
//! pipeline shows up as a bit mismatch, which fails the run.

use crate::trace::{Layers, Tracer};
use gplu::core::{
    preprocess, LuOptions, NumericFormat, PivotPolicy, PreprocessOutcome, DEFAULT_PIVOT_TAU,
};
use gplu::numeric::{
    discover_pivots, factorize_fleet_blocked, factorize_fleet_dense, factorize_fleet_merge,
    factorize_gpu_blocked_run_cached, factorize_gpu_dense_run_cached,
    factorize_gpu_merge_run_cached, BlockPlan, NumericError, NumericOutcome, PivotCache, PivotRule,
};
use gplu::schedule::{levelize_gpu, DepGraph};
use gplu::sim::{DeviceFleet, Gpu, SimError, SimTime};
use gplu::sparse::convert::csr_to_csc;
use gplu::sparse::perm::permute_csr;
use gplu::sparse::verify::residual_probe;
use gplu::sparse::{Csc, Csr, Permutation, SparseError};
use gplu::symbolic::{
    expand_fill, symbolic_fleet, symbolic_ooc_dynamic, symbolic_um, Partition, SymbolicResult,
    UmMode,
};
use gplu::trace::NOOP;

/// Which numeric engine ran.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    Dense,
    Merge,
    Blocked,
}

impl Engine {
    /// The per-layer count this engine's operations go to (Auto's mix).
    pub fn ops_metric(self) -> &'static str {
        match self {
            Engine::Dense => "numeric.dense_ops",
            Engine::Merge => "numeric.merge_ops",
            Engine::Blocked => "numeric.blocked_ops",
        }
    }
}

/// What a replay hands back for the bit comparison and the solve.
pub struct Replayed {
    pub lu: Csc,
    /// The permuted (and possibly repaired) matrix the factors represent.
    pub preprocessed: Csr,
    pub p_row: Permutation,
    pub p_col: Permutation,
    /// Sum of the four phase times of the accepted rung — the replay's
    /// `PhaseReport::total()`.
    pub sim_total: SimTime,
    pub engine: Engine,
}

enum Fail {
    /// Pivot-class failure: the escalation ladder may try the next rung.
    Pivot(String),
    Fatal(String),
}

fn fatal(what: &str, e: impl std::fmt::Display) -> Fail {
    Fail::Fatal(format!("{what}: {e}"))
}

/// The pipeline's escalation rungs for `opts` (see `compute_inner`).
fn rungs(a: &Csr, opts: &LuOptions) -> Vec<PivotPolicy> {
    let mut rungs = vec![opts.pivot];
    if opts.gate.enabled && opts.gate.escalate {
        match opts.pivot {
            PivotPolicy::NoPivot | PivotPolicy::Static { .. } => {
                rungs.push(PivotPolicy::Threshold {
                    tau: DEFAULT_PIVOT_TAU,
                });
                rungs.push(PivotPolicy::Threshold { tau: 1.0 });
            }
            PivotPolicy::Threshold { tau } if tau < 1.0 => {
                rungs.push(PivotPolicy::Threshold { tau: 1.0 });
            }
            PivotPolicy::Threshold { .. } => {}
        }
        let floor = (a.frobenius_norm() * 1e-8).max(f64::MIN_POSITIVE);
        rungs.push(PivotPolicy::Static { threshold: floor });
    }
    rungs
}

/// Auto's two chained criteria, priced exactly as the pipeline prices
/// them: the paper's dense→CSC switch, then the BLAS-3 crossover over the
/// detected supernode plan.
fn choose_engines(
    gpu: &Gpu,
    n: usize,
    pattern: &Csc,
    opts: &LuOptions,
    t: &mut Tracer,
    op: u32,
    l: &mut Layers,
) -> (Vec<Engine>, Option<BlockPlan>) {
    assert_eq!(
        opts.format,
        NumericFormat::Auto,
        "the benchmark only runs the default format"
    );
    if !gpu.config().should_use_sparse_format(n) {
        return (vec![Engine::Dense, Engine::Merge], None);
    }
    let (plan, ms) = t.time("numeric.block_detect", op, || {
        let cache = PivotCache::build(pattern);
        BlockPlan::detect(pattern, &cache, opts.block_threshold)
    });
    l.add("numeric.block_detect_wall_ms", ms);
    gpu.advance(SimTime::from_ns(gpu.cost().cpu_parallel_ns(
        2 * pattern.nnz() as u64 + pattern.n_cols() as u64,
    )));
    let fill_density = pattern.nnz() as f64 / pattern.n_cols().max(1) as f64;
    if gpu
        .cost()
        .blocked_crossover(fill_density, plan.mean_width())
    {
        (vec![Engine::Blocked, Engine::Merge], Some(plan))
    } else {
        (vec![Engine::Merge], None)
    }
}

fn bump_diag(matrix: &mut Csr, pattern: &mut Csc, col: usize, value: f64) -> bool {
    let (Some(pos), _) = pattern.find_in_col(col, col) else {
        return false;
    };
    pattern.vals[pos] = value;
    for k in matrix.row_ptr[col]..matrix.row_ptr[col + 1] {
        if matrix.col_idx[k] as usize == col {
            matrix.vals[k] = value;
            return true;
        }
    }
    false
}

fn add_to_diag(matrix: &mut Csr, col: usize, delta: f64) {
    for k in matrix.row_ptr[col]..matrix.row_ptr[col + 1] {
        if matrix.col_idx[k] as usize == col {
            matrix.vals[k] += delta;
        }
    }
}

/// Symbolic with the pipeline's engine ladder: out-of-core dynamic first,
/// unified memory with prefetch if the device cannot hold even one chunk.
fn symbolic_ladder(
    gpu: &Gpu,
    matrix: &Csr,
    l: &mut Layers,
) -> Result<(SymbolicResult, SimTime), Fail> {
    match symbolic_ooc_dynamic(gpu, matrix) {
        Ok(out) => {
            l.add("symbolic.overflow_rows", out.overflows as f64);
            Ok((out.result, out.time))
        }
        Err(e @ SimError::Crashed { .. }) => Err(fatal("symbolic", e)),
        Err(_) => {
            gpu.mem.reset();
            symbolic_um(gpu, matrix, UmMode::Prefetch)
                .map(|o| (o.result, o.time))
                .map_err(|e| fatal("symbolic fallback", e))
        }
    }
}

/// One pipeline pass under a fixed pivoting policy (`compute_once`).
fn replay_once(
    gpu: &Gpu,
    a: &Csr,
    opts: &LuOptions,
    policy: PivotPolicy,
    t: &mut Tracer,
    op: u32,
    l: &mut Layers,
) -> Result<Replayed, Fail> {
    // 1. Pre-processing (host).
    let (pre, ms) = t.time("core.preprocess", op, || {
        preprocess(a, &opts.preprocess, gpu.cost())
    });
    l.add("preprocess.wall_ms", ms);
    l.add("symbolic.rows", a.n_rows() as f64);
    let PreprocessOutcome {
        mut matrix,
        mut p_row,
        p_col,
        time: t_pre,
        ..
    } = pre.map_err(|e| fatal("preprocess", e))?;
    gpu.advance(t_pre);

    // 2. Symbolic factorization (out-of-core, dynamic assignment).
    let (sym, ms) = t.time("symbolic.ooc_dynamic", op, || {
        symbolic_ladder(gpu, &matrix, l)
    });
    l.add("symbolic.wall_ms", ms);
    let (mut symbolic, mut t_sym) = sym?;

    // 2b. Threshold-pivot discovery and in-place pattern expansion.
    if let PivotPolicy::Threshold { tau } = policy {
        let (disc, ms) = t.time("numeric.discover_pivots", op, || {
            discover_pivots(&matrix, tau)
        });
        l.add("numeric.pivot_discover_wall_ms", ms);
        let disc = disc.map_err(|e| match e {
            SparseError::ZeroPivot { .. } | SparseError::ZeroDiagonal { .. } => {
                Fail::Pivot(e.to_string())
            }
            other => Fail::Fatal(other.to_string()),
        })?;
        gpu.advance(SimTime::from_ns(gpu.cost().pivot_discovery_ns(disc.flops)));
        if disc.swaps > 0 {
            let p_pivot =
                Permutation::from_forward(disc.pinv).map_err(|e| fatal("pivot order", e))?;
            let id = Permutation::identity(matrix.n_cols());
            matrix = permute_csr(&matrix, &p_pivot, &id);
            p_row = p_row.then(&p_pivot);
            let filled_perm = permute_csr(&symbolic.filled, &p_pivot, &id);
            let budget = 4 * filled_perm.nnz() + 256;
            let (expansion, ms) = t.time("symbolic.expand_fill", op, || {
                expand_fill(&filled_perm, budget)
            });
            l.add("numeric.pivot_discover_wall_ms", ms);
            gpu.advance(SimTime::from_ns(
                gpu.cost()
                    .pattern_expand_ns((filled_perm.nnz() + expansion.added) as u64),
            ));
            if expansion.closed {
                symbolic.filled = expansion.filled;
            } else {
                let (re, ms) = t.time("symbolic.resymbolic_um", op, || {
                    symbolic_um(gpu, &matrix, UmMode::Prefetch)
                });
                l.add("symbolic.wall_ms", ms);
                let re = re.map_err(|e| fatal("resymbolic", e))?;
                symbolic = re.result;
                t_sym += re.time;
            }
        }
    }

    // 3. Levelization (dependency graph on the host, Kahn on the device).
    let (dep, ms) = t.time("schedule.depgraph", op, || {
        DepGraph::build(&symbolic.filled)
    });
    l.add("schedule.depgraph_wall_ms", ms);
    let (lvl, ms) = t.time("schedule.levelize_gpu", op, || levelize_gpu(gpu, &dep));
    l.add("schedule.levelize_wall_ms", ms);
    l.add("launch.wall_ms", ms);
    let lvl = lvl.map_err(|e| fatal("levelize", e))?;
    l.add("schedule.device_launches", lvl.device_launches as f64);
    let levels = lvl.levels;

    // 4. Numeric factorization over the level schedule.
    let (mut pattern, ms) = t.time("sparse.csr_to_csc", op, || csr_to_csc(&symbolic.filled));
    l.add("sparse.convert_wall_ms", ms);
    let (ladder, block_plan) = choose_engines(gpu, matrix.n_rows(), &pattern, opts, t, op, l);
    let rule = match policy {
        PivotPolicy::Static { threshold } => PivotRule::Perturb { threshold },
        _ => PivotRule::Exact,
    };
    let mut repair_attempted = false;
    let (numeric, engine): (NumericOutcome, Engine) = 'numeric: loop {
        let mut last: Option<SimError> = None;
        for (i, &engine) in ladder.iter().enumerate() {
            if i > 0 {
                gpu.mem.reset();
            }
            let (run, ms) = t.time("numeric.factorize", op, || match engine {
                Engine::Dense => factorize_gpu_dense_run_cached(
                    gpu, &pattern, &levels, &NOOP, None, None, None, rule,
                ),
                Engine::Merge => factorize_gpu_merge_run_cached(
                    gpu, &pattern, &levels, &NOOP, None, None, None, rule,
                ),
                Engine::Blocked => factorize_gpu_blocked_run_cached(
                    gpu,
                    &pattern,
                    &levels,
                    block_plan.as_ref().expect("blocked rung carries a plan"),
                    &NOOP,
                    None,
                    None,
                    None,
                    rule,
                ),
            });
            l.add("numeric.factor_wall_ms", ms);
            l.add("launch.wall_ms", ms);
            match run {
                Ok(out) => break 'numeric (out, engine),
                Err(NumericError::Sim(e @ SimError::Crashed { .. })) => {
                    return Err(fatal("numeric", e))
                }
                Err(NumericError::Sim(e)) => last = Some(e),
                Err(NumericError::SingularPivot { col, .. }) => {
                    if opts.preprocess.repair_singular
                        && !repair_attempted
                        && bump_diag(&mut matrix, &mut pattern, col, opts.preprocess.repair_value)
                    {
                        repair_attempted = true;
                        gpu.mem.reset();
                        continue 'numeric;
                    }
                    return Err(Fail::Pivot(format!("singular pivot in column {col}")));
                }
                Err(NumericError::Input(msg)) => return Err(Fail::Fatal(msg)),
            }
        }
        let last = last.map_or("no numeric format ran".to_string(), |e| e.to_string());
        return Err(Fail::Fatal(format!("numeric ladder exhausted: {last}")));
    };
    for &(col, delta) in &numeric.perturbations {
        add_to_diag(&mut matrix, col, delta);
    }

    Ok(Replayed {
        lu: numeric.lu,
        preprocessed: matrix,
        p_row,
        p_col,
        sim_total: t_pre + t_sym + lvl.time + numeric.time,
        engine,
    })
}

/// The pipeline's residual acceptance gate, over replayed factors.
fn gate(
    opts: &LuOptions,
    r: &Replayed,
    t: &mut Tracer,
    op: u32,
    l: &mut Layers,
) -> Result<(), String> {
    if !opts.gate.enabled {
        return Ok(());
    }
    let (residual, ms) = t.time("core.residual_gate", op, || {
        residual_probe(&r.preprocessed, &r.lu, opts.gate.probes.max(1))
    });
    l.add("core.gate_wall_ms", ms);
    if residual.is_finite() && residual <= opts.gate.threshold {
        Ok(())
    } else {
        Err(format!("gate residual {residual:.3e}"))
    }
}

/// Replays `LuFactorization::compute(gpu, a, opts)` layer by layer on a
/// fresh `gpu` of the same configuration.
pub fn replay_compute(
    gpu: &Gpu,
    a: &Csr,
    opts: &LuOptions,
    t: &mut Tracer,
    op: u32,
    l: &mut Layers,
) -> Result<Replayed, String> {
    let rungs = rungs(a, opts);
    let mut last = String::from("no rung ran");
    for (i, &policy) in rungs.iter().enumerate() {
        match replay_once(gpu, a, opts, policy, t, op, l) {
            Ok(once) => match gate(opts, &once, t, op, l) {
                Ok(()) => return Ok(once),
                Err(e) => last = format!("{e} under {policy:?}"),
            },
            Err(Fail::Pivot(msg)) if i + 1 < rungs.len() => last = msg,
            Err(Fail::Pivot(msg) | Fail::Fatal(msg)) => return Err(msg),
        }
    }
    Err(format!("every pivoting rung rejected: {last}"))
}

/// Replays `LuFactorization::compute_fleet(fleet, a, opts)` for the
/// options `fleet_4dev` uses (no pivoting, no escalation): the same phases
/// with symbolic and numeric sharded across the devices.
pub fn replay_compute_fleet(
    fleet: &DeviceFleet,
    a: &Csr,
    opts: &LuOptions,
    t: &mut Tracer,
    op: u32,
    l: &mut Layers,
) -> Result<Replayed, String> {
    assert!(
        opts.pivot == PivotPolicy::NoPivot && !opts.gate.escalate,
        "the fleet replay covers the options fleet_4dev runs"
    );
    let lead = fleet.device(0);
    let advance_all = |time: SimTime| {
        for d in fleet.alive() {
            fleet.device(d).advance(time);
        }
    };

    let (pre, ms) = t.time("core.preprocess", op, || {
        preprocess(a, &opts.preprocess, lead.cost())
    });
    l.add("preprocess.wall_ms", ms);
    let pre = pre.map_err(|e| format!("preprocess: {e}"))?;
    advance_all(pre.time);

    let (sym, ms) = t.time("symbolic.fleet", op, || {
        symbolic_fleet(fleet, &pre.matrix, Partition::Blocked)
    });
    l.add("symbolic.wall_ms", ms);
    l.add("fleet.symbolic_wall_ms", ms);
    let sym = sym.map_err(|e| format!("symbolic_fleet: {e}"))?;

    let (dep, ms) = t.time("schedule.depgraph", op, || {
        DepGraph::build(&sym.result.filled)
    });
    l.add("schedule.depgraph_wall_ms", ms);
    let (lvl, ms) = t.time("schedule.levelize_gpu", op, || levelize_gpu(lead, &dep));
    l.add("schedule.levelize_wall_ms", ms);
    l.add("launch.wall_ms", ms);
    let lvl = lvl.map_err(|e| format!("levelize: {e}"))?;
    l.add("schedule.device_launches", lvl.device_launches as f64);
    fleet.barrier();

    let (pattern, ms) = t.time("sparse.csr_to_csc", op, || csr_to_csc(&sym.result.filled));
    l.add("sparse.convert_wall_ms", ms);
    let (ladder, block_plan) = choose_engines(lead, pre.matrix.n_rows(), &pattern, opts, t, op, l);
    // Block detection advanced only the lead clock; re-sync.
    fleet.barrier();

    let mut last = String::from("no numeric format ran");
    for (i, &engine) in ladder.iter().enumerate() {
        if i > 0 {
            for d in fleet.alive() {
                fleet.device(d).mem.reset();
            }
        }
        let (run, ms) = t.time("numeric.factorize_fleet", op, || match engine {
            Engine::Dense => {
                factorize_fleet_dense(fleet, &pattern, &lvl.levels, &NOOP, PivotRule::Exact)
            }
            Engine::Merge => {
                factorize_fleet_merge(fleet, &pattern, &lvl.levels, &NOOP, PivotRule::Exact)
            }
            Engine::Blocked => factorize_fleet_blocked(
                fleet,
                &pattern,
                &lvl.levels,
                block_plan.as_ref().expect("blocked rung carries a plan"),
                &NOOP,
                PivotRule::Exact,
            ),
        });
        l.add("numeric.factor_wall_ms", ms);
        l.add("fleet.numeric_wall_ms", ms);
        l.add("launch.wall_ms", ms);
        match run {
            Ok(out) => {
                let replayed = Replayed {
                    lu: out.outcome.lu,
                    preprocessed: pre.matrix,
                    p_row: pre.p_row,
                    p_col: pre.p_col,
                    sim_total: pre.time + sym.time + lvl.time + out.outcome.time,
                    engine,
                };
                return gate(opts, &replayed, t, op, l).map(|()| replayed);
            }
            Err(NumericError::Sim(e @ SimError::Crashed { .. })) => {
                return Err(format!("numeric: {e}"))
            }
            Err(e) => last = e.to_string(),
        }
    }
    Err(format!("numeric ladder exhausted: {last}"))
}

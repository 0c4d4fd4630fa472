//! The multi-device pipeline: [`LuFactorization::compute_fleet`] runs the
//! same phases as [`LuFactorization::compute`] across a [`DeviceFleet`].
//!
//! Sharding never touches values — symbolic fill counting splits by
//! source-row range and the numeric phase splits each schedule level by
//! column range, but both compute on host-deterministic state, so the
//! factors are **bit-identical** to the single-device pipeline for every
//! engine and device count (the `fleet` integration suite proves it).
//! What the fleet changes is *pricing*: each device's clock advances only
//! for its own shard, and every level barrier / fill-count merge is
//! charged on the NVLink interconnect terms of the cost model.
//!
//! Device deaths (injected OOM or launch faults) reshard the dead
//! device's work onto the survivors and land in the recovery log as
//! [`RecoveryAction::DeviceLost`]; only an injected crash or whole-fleet
//! death is terminal. The fleet path is a cold run: checkpoint/resume and
//! the captured-schedule replay fast path remain single-device features.

use crate::error::GpluError;
use crate::pipeline::{
    add_to_diag, bump_diag, detect_block_plan, format_name, ladder_exhausted, policy_desc,
    trace_recovery, LuFactorization, LuOptions, NumericFormat,
};
use crate::preprocess::{preprocess, PreprocessOutcome};
use crate::recovery::{Phase, RecoveryAction, RecoveryLog};
use crate::report::{FleetReport, PhaseReport};
use gplu_numeric::{
    discover_pivots, factorize_fleet_blocked, factorize_fleet_dense, factorize_fleet_merge,
    factorize_fleet_sparse, BlockPlan, NumericError, PivotPolicy, PivotRule, DEFAULT_PIVOT_TAU,
};
use gplu_schedule::{levelize_gpu_traced, DepGraph, Levels};
use gplu_sim::{DeviceFleet, SimError, SimTime};
use gplu_sparse::convert::csr_to_csc;
use gplu_sparse::perm::permute_csr;
use gplu_sparse::verify::residual_probe;
use gplu_sparse::{Permutation, SparseError};
use gplu_symbolic::{expand_fill, symbolic_fleet, Partition};
use gplu_trace::{AttrValue, TraceSink, NOOP};

/// Advances every live device's clock by `t` — host-side work (ordering,
/// pivot discovery, pattern expansion) blocks the whole fleet equally.
fn advance_all(fleet: &DeviceFleet, t: SimTime) {
    for d in fleet.alive() {
        fleet.device(d).advance(t);
    }
}

/// First live device — the one whose per-phase statistics deltas stand in
/// for "the GPU" in the single-device report fields.
fn rep_device(fleet: &DeviceFleet) -> Result<usize, GpluError> {
    fleet
        .alive()
        .first()
        .copied()
        .ok_or_else(|| GpluError::Sim(SimError::BadLaunch("no live devices in fleet".into())))
}

fn record_device_losses(
    fleet: &DeviceFleet,
    trace: &dyn TraceSink,
    recovery: &mut RecoveryLog,
    phase: Phase,
    died: &[usize],
    resharded: usize,
) {
    for &device in died {
        let action = RecoveryAction::DeviceLost { device, resharded };
        trace_recovery(trace, fleet.makespan().as_ns(), phase, &action);
        recovery.record(phase, action);
    }
}

impl LuFactorization {
    /// Runs the full pipeline across `fleet`. See the module docs for the
    /// sharding discipline; the result is bit-identical to
    /// [`LuFactorization::compute`] on one device with the same options.
    ///
    /// [`crate::PhaseReport::fleet`] carries the per-device accounting
    /// (busy times, deaths, interconnect traffic).
    pub fn compute_fleet(
        fleet: &DeviceFleet,
        a: &gplu_sparse::Csr,
        opts: &LuOptions,
    ) -> Result<Self, GpluError> {
        Self::compute_fleet_traced(fleet, a, opts, &NOOP)
    }

    /// [`LuFactorization::compute_fleet`] with telemetry: the same
    /// `phase.*` spans as the single-device pipeline, with a `devices`
    /// attribute on the per-level numeric spans.
    pub fn compute_fleet_traced(
        fleet: &DeviceFleet,
        a: &gplu_sparse::Csr,
        opts: &LuOptions,
        trace: &dyn TraceSink,
    ) -> Result<Self, GpluError> {
        // The same residual-gated escalation ladder as the single-device
        // `compute_inner`, minus durability (the fleet path is cold).
        let mut rungs: Vec<PivotPolicy> = vec![opts.pivot];
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

        let total = rungs.len();
        let mut best_residual = f64::INFINITY;
        for (i, &policy) in rungs.iter().enumerate() {
            let mut seed = RecoveryLog::default();
            if i > 0 {
                let action = RecoveryAction::PivotEscalated {
                    from: policy_desc(rungs[i - 1]),
                    to: policy_desc(policy),
                };
                trace_recovery(trace, fleet.makespan().as_ns(), Phase::Numeric, &action);
                seed.record(Phase::Numeric, action);
            }
            match compute_fleet_once(fleet, a, opts, policy, trace, seed) {
                Ok(mut f) => {
                    if !opts.gate.enabled {
                        return Ok(f);
                    }
                    let r = residual_probe(&f.preprocessed, &f.lu, opts.gate.probes.max(1));
                    f.report.residual = Some(r);
                    let pass = r.is_finite() && r <= opts.gate.threshold;
                    if trace.enabled() {
                        trace.instant(
                            "numeric.residual_gate",
                            "verify",
                            fleet.makespan().as_ns(),
                            &[
                                ("residual", r.into()),
                                ("threshold", opts.gate.threshold.into()),
                                ("pass", pass.into()),
                                ("policy", AttrValue::Str(policy_desc(policy))),
                            ],
                        );
                    }
                    if pass {
                        return Ok(f);
                    }
                    best_residual = best_residual.min(r);
                }
                Err(e @ GpluError::Crashed { .. }) => return Err(e),
                Err(e) => {
                    let escalatable = matches!(
                        e,
                        GpluError::SingularPivot { .. }
                            | GpluError::Sparse(SparseError::ZeroPivot { .. })
                            | GpluError::Sparse(SparseError::ZeroDiagonal { .. })
                    );
                    if !escalatable || i + 1 == total {
                        return Err(e);
                    }
                }
            }
        }
        Err(GpluError::NumericallySingular {
            residual: best_residual,
            threshold: opts.gate.threshold,
            attempts: total,
        })
    }
}

/// One fleet pipeline pass under a fixed pivoting policy.
fn compute_fleet_once(
    fleet: &DeviceFleet,
    a: &gplu_sparse::Csr,
    opts: &LuOptions,
    policy: PivotPolicy,
    trace: &dyn TraceSink,
    seed_recovery: RecoveryLog,
) -> Result<LuFactorization, GpluError> {
    let mut report = PhaseReport::default();
    let mut recovery = seed_recovery;
    let devices = fleet.len();
    let before: Vec<_> = fleet.devices().iter().map(|g| g.stats()).collect();
    let ic_before = fleet.stats().interconnect.clone();
    let mut resharded_rows = 0usize;
    let mut resharded_cols = 0usize;
    let mut dead: Vec<usize> = Vec::new();

    // 1. Pre-processing (host): identical to the single-device pipeline;
    // every live device waits on it.
    let lead = rep_device(fleet)?;
    trace.span_begin("phase.preprocess", "phase", fleet.makespan().as_ns(), &[]);
    let PreprocessOutcome {
        mut matrix,
        mut p_row,
        p_col,
        repaired,
        time,
    } = preprocess(a, &opts.preprocess, fleet.device(lead).cost())?;
    advance_all(fleet, time);
    report.preprocess = time;
    report.repaired_diagonals = repaired;
    trace.span_end(
        "phase.preprocess",
        "phase",
        fleet.makespan().as_ns(),
        &[("repaired_diagonals", repaired.into())],
    );
    report.phase_stats.preprocess = fleet.device(lead).stats().since(&before[lead]);

    // 2. Symbolic fill counting, sharded by source-row range across the
    // live devices (GSoFa-style), with the fill-count merge priced on the
    // interconnect. Device deaths reshard inside `symbolic_fleet`; only a
    // whole-fleet death or an injected crash surfaces as an error.
    let sym_dev = rep_device(fleet)?;
    let sym_before = fleet.device(sym_dev).stats();
    trace.span_begin(
        "phase.symbolic",
        "phase",
        fleet.makespan().as_ns(),
        &[
            ("engine", "FleetOoc".into()),
            ("devices", fleet.n_alive().into()),
        ],
    );
    let sym_out = match symbolic_fleet(fleet, &matrix, Partition::Blocked) {
        Ok(o) => o,
        Err(e @ SimError::Crashed { .. }) => return Err(e.into()),
        Err(e) => return Err(ladder_exhausted(Phase::Symbolic, 1, e)),
    };
    record_device_losses(
        fleet,
        trace,
        &mut recovery,
        Phase::Symbolic,
        &sym_out.died,
        sym_out.resharded_rows,
    );
    dead.extend(&sym_out.died);
    resharded_rows += sym_out.resharded_rows;
    report.symbolic = sym_out.time;
    report.symbolic_iterations = 1;
    trace.span_end(
        "phase.symbolic",
        "phase",
        fleet.makespan().as_ns(),
        &[
            ("engine", "FleetOoc".into()),
            ("devices", fleet.n_alive().into()),
            ("efficiency", sym_out.efficiency.into()),
        ],
    );
    let mut symbolic = sym_out.result;
    report.phase_stats.symbolic = fleet.device(sym_dev).stats().since(&sym_before);

    // 2b. Threshold-pivot discovery: the host pre-pass is identical to
    // the single-device pipeline (it is what keeps the fleet bit-exact
    // under pivoting); a non-closing in-place expansion re-runs the
    // *fleet* symbolic phase on the permuted matrix.
    if let PivotPolicy::Threshold { tau } = policy {
        trace.span_begin(
            "phase.pivot_discovery",
            "phase",
            fleet.makespan().as_ns(),
            &[("tau", tau.into())],
        );
        let disc = discover_pivots(&matrix, tau).map_err(GpluError::from_pivot_discovery);
        if let Ok(d) = &disc {
            let cost = fleet
                .device(rep_device(fleet)?)
                .cost()
                .pivot_discovery_ns(d.flops);
            advance_all(fleet, SimTime::from_ns(cost));
        }
        trace.span_end(
            "phase.pivot_discovery",
            "phase",
            fleet.makespan().as_ns(),
            &[
                (
                    "swaps",
                    (disc.as_ref().map_or(0, |d| d.swaps) as u64).into(),
                ),
                ("ok", disc.is_ok().into()),
            ],
        );
        let disc = disc?;
        report.pivot_swaps = disc.swaps;
        if disc.swaps > 0 {
            let p_pivot = Permutation::from_forward(disc.pinv).map_err(|e| {
                GpluError::Input(format!("pivot discovery produced a non-bijective map: {e}"))
            })?;
            let id = Permutation::identity(matrix.n_cols());
            matrix = permute_csr(&matrix, &p_pivot, &id);
            p_row = p_row.then(&p_pivot);
            let filled_perm = permute_csr(&symbolic.filled, &p_pivot, &id);
            let budget = 4 * filled_perm.nnz() + 256;
            let expansion = expand_fill(&filled_perm, budget);
            let expand_cost = fleet
                .device(rep_device(fleet)?)
                .cost()
                .pattern_expand_ns((filled_perm.nnz() + expansion.added) as u64);
            advance_all(fleet, SimTime::from_ns(expand_cost));
            if expansion.closed {
                report.pattern_expanded = expansion.added;
                let action = RecoveryAction::PatternExpanded {
                    added: expansion.added,
                    rounds: expansion.rounds,
                };
                trace_recovery(trace, fleet.makespan().as_ns(), Phase::Symbolic, &action);
                recovery.record(Phase::Symbolic, action);
                symbolic.filled = expansion.filled;
            } else {
                let action = RecoveryAction::Resymbolic {
                    abandoned: expansion.added,
                };
                trace_recovery(trace, fleet.makespan().as_ns(), Phase::Symbolic, &action);
                recovery.record(Phase::Symbolic, action);
                let re = match symbolic_fleet(fleet, &matrix, Partition::Blocked) {
                    Ok(o) => o,
                    Err(e @ SimError::Crashed { .. }) => return Err(e.into()),
                    Err(e) => return Err(ladder_exhausted(Phase::Symbolic, 1, e)),
                };
                record_device_losses(
                    fleet,
                    trace,
                    &mut recovery,
                    Phase::Symbolic,
                    &re.died,
                    re.resharded_rows,
                );
                dead.extend(&re.died);
                resharded_rows += re.resharded_rows;
                report.symbolic += re.time;
                symbolic = re.result;
            }
        }
    }
    report.fill_nnz = symbolic.fill_nnz();
    report.new_fill_ins = symbolic.new_fill_ins(&matrix);

    // 3. Levelization on the representative device (the dependency DAG is
    // global state every device needs; replicating the run would change
    // nothing), then a barrier so the whole fleet enters the numeric
    // phase together.
    let lvl_dev = rep_device(fleet)?;
    let lvl_before = fleet.device(lvl_dev).stats();
    trace.span_begin("phase.levelize", "phase", fleet.makespan().as_ns(), &[]);
    let dep = DepGraph::build(&symbolic.filled);
    let lvl = levelize_gpu_traced(fleet.device(lvl_dev), &dep, trace).map_err(|e| match e {
        SimError::OutOfMemory { .. } => GpluError::DeviceOom {
            phase: Phase::Levelize,
            attempts: 1,
        },
        other => GpluError::from(other),
    })?;
    fleet.barrier();
    report.levelize = lvl.time;
    report.n_levels = lvl.levels.n_levels();
    report.max_level_width = lvl.levels.max_width();
    trace.span_end(
        "phase.levelize",
        "phase",
        fleet.makespan().as_ns(),
        &[
            ("levels", report.n_levels.into()),
            ("max_width", report.max_level_width.into()),
        ],
    );
    report.phase_stats.levelize = fleet.device(lvl_dev).stats().since(&lvl_before);
    let levels: Levels = lvl.levels;

    // 4. Numeric factorization, each level's columns sharded across the
    // live devices, with the boundary-column all-gather priced at every
    // level barrier. The format ladder and singular-pivot repair mirror
    // the single-device pipeline.
    let mut pattern = csr_to_csc(&symbolic.filled);
    let num_dev = rep_device(fleet)?;
    let mut block_plan: Option<BlockPlan> = None;
    let format_ladder: &[NumericFormat] = match opts.format {
        NumericFormat::Auto => {
            if fleet
                .device(num_dev)
                .config()
                .should_use_sparse_format(matrix.n_rows())
            {
                let plan =
                    detect_block_plan(fleet.device(num_dev), &pattern, opts.block_threshold, trace);
                let fill_density = pattern.nnz() as f64 / pattern.n_cols().max(1) as f64;
                if fleet
                    .device(num_dev)
                    .cost()
                    .blocked_crossover(fill_density, plan.mean_width())
                {
                    block_plan = Some(plan);
                    &[NumericFormat::SparseBlocked, NumericFormat::SparseMerge]
                } else {
                    &[NumericFormat::SparseMerge]
                }
            } else {
                &[NumericFormat::Dense, NumericFormat::SparseMerge]
            }
        }
        NumericFormat::Dense => &[NumericFormat::Dense, NumericFormat::SparseMerge],
        NumericFormat::Sparse => &[NumericFormat::Sparse],
        NumericFormat::SparseMerge => &[NumericFormat::SparseMerge],
        NumericFormat::SparseBlocked => {
            block_plan = Some(detect_block_plan(
                fleet.device(num_dev),
                &pattern,
                opts.block_threshold,
                trace,
            ));
            &[NumericFormat::SparseBlocked, NumericFormat::SparseMerge]
        }
    };
    // Block detection advanced only the representative clock; re-sync.
    fleet.barrier();
    let num_before = fleet.device(num_dev).stats();
    trace.span_begin(
        "phase.numeric",
        "phase",
        fleet.makespan().as_ns(),
        &[
            ("format", format_name(opts.format).into()),
            ("devices", fleet.n_alive().into()),
        ],
    );
    let rule = match policy {
        PivotPolicy::Static { threshold } => PivotRule::Perturb { threshold },
        _ => PivotRule::Exact,
    };
    let mut repair_attempted = false;
    let (numeric_fleet, used_format) = 'numeric: loop {
        let mut last_err: Option<SimError> = None;
        let mut attempts = 0usize;
        for (i, &format) in format_ladder.iter().enumerate() {
            if i > 0 {
                for d in fleet.alive() {
                    fleet.device(d).mem.reset();
                }
                let action = RecoveryAction::FormatDegraded {
                    from: format_name(format_ladder[i - 1]).to_string(),
                    to: format_name(format).to_string(),
                };
                trace_recovery(trace, fleet.makespan().as_ns(), Phase::Numeric, &action);
                recovery.record(Phase::Numeric, action);
            }
            attempts += 1;
            let run = match format {
                NumericFormat::Dense => {
                    factorize_fleet_dense(fleet, &pattern, &levels, trace, rule)
                }
                NumericFormat::Sparse => {
                    factorize_fleet_sparse(fleet, &pattern, &levels, trace, rule)
                }
                NumericFormat::SparseBlocked => factorize_fleet_blocked(
                    fleet,
                    &pattern,
                    &levels,
                    block_plan.as_ref().expect("blocked rung carries a plan"),
                    trace,
                    rule,
                ),
                NumericFormat::Auto | NumericFormat::SparseMerge => {
                    factorize_fleet_merge(fleet, &pattern, &levels, trace, rule)
                }
            };
            match run {
                Ok(out) => break 'numeric (out, format),
                Err(NumericError::Sim(e)) => {
                    if matches!(e, SimError::Crashed { .. }) {
                        return Err(e.into());
                    }
                    last_err = Some(e);
                }
                Err(NumericError::SingularPivot { col, level }) => {
                    let value = opts.preprocess.repair_value;
                    let old = if opts.preprocess.repair_singular && !repair_attempted {
                        bump_diag(&mut matrix, &mut pattern, col, value)
                    } else {
                        None
                    };
                    if let Some(old) = old {
                        repair_attempted = true;
                        for d in fleet.alive() {
                            fleet.device(d).mem.reset();
                        }
                        let action = RecoveryAction::PivotRepaired {
                            col,
                            value,
                            magnitude: (value - old).abs(),
                        };
                        trace_recovery(trace, fleet.makespan().as_ns(), Phase::Numeric, &action);
                        recovery.record(Phase::Numeric, action);
                        report.repaired_diagonals += 1;
                        continue 'numeric;
                    }
                    return Err(GpluError::SingularPivot { col, level });
                }
                Err(NumericError::Input(msg)) => return Err(GpluError::Input(msg)),
            }
        }
        let last = last_err.unwrap_or(SimError::BadLaunch("no numeric format ran".into()));
        return Err(ladder_exhausted(Phase::Numeric, attempts, last));
    };
    record_device_losses(
        fleet,
        trace,
        &mut recovery,
        Phase::Numeric,
        &numeric_fleet.died,
        numeric_fleet.resharded_cols,
    );
    dead.extend(&numeric_fleet.died);
    resharded_cols += numeric_fleet.resharded_cols;
    let numeric = numeric_fleet.outcome;
    report.numeric = numeric.time;
    report.mode_mix = (numeric.mode_mix.a, numeric.mode_mix.b, numeric.mode_mix.c);
    report.m_limit = numeric.m_limit;
    report.probes = numeric.probes;
    report.merge_steps = numeric.merge_steps;
    report.gemm_tiles = numeric.gemm_tiles;
    trace.span_end(
        "phase.numeric",
        "phase",
        fleet.makespan().as_ns(),
        &[
            ("format", format_name(used_format).into()),
            ("mode_a", numeric.mode_mix.a.into()),
            ("mode_b", numeric.mode_mix.b.into()),
            ("mode_c", numeric.mode_mix.c.into()),
            ("devices", fleet.n_alive().into()),
        ],
    );
    report.phase_stats.numeric = fleet.device(num_dev).stats().since(&num_before);
    if !numeric.perturbations.is_empty() {
        let mut max_delta = 0.0f64;
        for &(col, delta) in &numeric.perturbations {
            add_to_diag(&mut matrix, col, delta);
            max_delta = max_delta.max(delta.abs());
        }
        let action = RecoveryAction::PivotPerturbed {
            cols: numeric.perturbations.len(),
            max_delta,
        };
        trace_recovery(trace, fleet.makespan().as_ns(), Phase::Numeric, &action);
        recovery.record(Phase::Numeric, action);
    }

    let ic = fleet.stats().interconnect;
    dead.sort_unstable();
    dead.dedup();
    report.fleet = Some(FleetReport {
        devices,
        dead,
        per_device_ns: fleet
            .devices()
            .iter()
            .zip(&before)
            .map(|(g, b)| g.stats().since(b).now.as_ns())
            .collect(),
        resharded_rows,
        resharded_cols,
        exchanges: ic.exchanges - ic_before.exchanges,
        exchange_bytes: ic.bytes - ic_before.bytes,
        exchange_ns: (ic.time - ic_before.time).as_ns(),
    });
    report.recovery = recovery;

    Ok(LuFactorization {
        lu: numeric.lu,
        preprocessed: matrix,
        p_row,
        p_col,
        levels,
        report,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::RunReport;
    use gplu_sim::{FaultPlan, Gpu, GpuConfig};
    use gplu_sparse::gen::random::random_dominant;
    use gplu_trace::{JsonValue, Recorder};

    fn bits_equal(a: &[f64], b: &[f64]) -> bool {
        a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
    }

    #[test]
    fn fleet_run_is_bit_identical_and_reports_the_fleet_section() {
        let a = random_dominant(150, 4.0, 5);
        let opts = LuOptions::default();
        let single =
            LuFactorization::compute(&Gpu::new(GpuConfig::v100()), &a, &opts).expect("single");
        let fleet = DeviceFleet::new(4, GpuConfig::v100());
        let f = LuFactorization::compute_fleet(&fleet, &a, &opts).expect("fleet");
        assert!(bits_equal(&single.lu.vals, &f.lu.vals));
        let fr = f.report.fleet.as_ref().expect("fleet report");
        assert_eq!(fr.devices, 4);
        assert!(fr.dead.is_empty());
        assert!(fr.exchanges > 0, "level barriers price the exchange");
        assert_eq!(fr.per_device_ns.len(), 4);
        assert!(fr.per_device_ns.iter().all(|&ns| ns > 0.0));
        // A single-device run has no fleet section at all.
        assert!(single.report.fleet.is_none());
    }

    #[test]
    fn traced_fleet_run_feeds_the_run_report_fleet_json() {
        let a = random_dominant(120, 4.0, 9);
        let fleet = DeviceFleet::new(2, GpuConfig::v100());
        let rec = Recorder::new();
        let f = LuFactorization::compute_fleet_traced(&fleet, &a, &LuOptions::default(), &rec)
            .expect("fleet");
        let events = rec.into_events();
        assert!(
            events
                .iter()
                .any(|e| e.attrs.iter().any(|(k, _)| *k == "devices")),
            "fleet spans must carry the device-count attribute"
        );
        let json = RunReport::new(a.n_rows(), a.nnz(), f.report.clone(), &events).to_json();
        let fl = json.get("fleet").expect("fleet section in the run report");
        assert_eq!(fl.get("devices").and_then(JsonValue::as_u64), Some(2));
        assert_eq!(
            fl.get("per_device_ns")
                .and_then(JsonValue::as_arr)
                .map(<[JsonValue]>::len),
            Some(2)
        );
    }

    #[test]
    fn dead_device_lands_in_the_recovery_log() {
        let a = random_dominant(200, 4.0, 7);
        let plans = FaultPlan::parse_fleet("dev=1:oom:alloc=1:persistent", 4).expect("plans");
        let fleet = DeviceFleet::with_fault_plans(
            4,
            GpuConfig::v100(),
            gplu_sim::CostModel::default(),
            &plans,
        );
        let f = LuFactorization::compute_fleet(&fleet, &a, &LuOptions::default())
            .expect("survivors absorb the shard");
        let fr = f.report.fleet.as_ref().expect("fleet report");
        assert_eq!(fr.dead, vec![1]);
        assert!(f.report.recovery.events().iter().any(|e| matches!(
            e.action,
            RecoveryAction::DeviceLost { device: 1, resharded } if resharded > 0
        )));
    }
}

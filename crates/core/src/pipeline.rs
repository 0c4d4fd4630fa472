//! The end-to-end pipeline: one driver behind every entry point.
//!
//! `compute`, `compute_checkpointed`, `compute_fleet` and the warm
//! `refactorize` all run on a [`DeviceFleet`] — a single `Gpu` is a
//! borrowed fleet of one — through [`compute_on`] (the escalation ladder)
//! and [`Pass`] (one function per phase over a small shared context).
//!
//! [`LuFactorization::compute`] is self-healing: device OOM in the
//! symbolic phase first backs off chunk sizes (inside the engines), then
//! degrades the engine Ooc → UM; the numeric phase degrades
//! Dense → SparseMerge; a pivot that cancels to zero can be repaired and
//! retried once. Every corrective step lands in
//! [`PhaseReport::recovery`], and every terminal failure is a structured
//! [`GpluError`] — the pipeline never panics on a well-formed input.

use crate::checkpoint::{
    self, CheckpointOptions, CheckpointSession, PhaseMark, PreState, ResumeState, SymbolicDone,
};
use crate::error::GpluError;
use crate::preprocess::{preprocess, PreprocessOptions, PreprocessOutcome};
use crate::recovery::{Phase, RecoveryAction, RecoveryLog};
use crate::report::{FleetReport, PhaseReport};
use gplu_numeric::{
    discover_pivots_swept, run_levels, AccessDiscipline, BlockPlan, BlockedEngine, DenseEngine,
    LevelHook, LevelProgress, MergeEngine, NumericEngine, NumericError, NumericResume, PivotCache,
    PivotPolicy, PivotRule, SparseEngine, SweptFactors, DEFAULT_BLOCK_THRESHOLD, DEFAULT_PIVOT_TAU,
};
use gplu_schedule::{levelize_gpu_traced, DepGraph, Levels};
use gplu_sim::{DeviceFleet, FleetStats, Gpu, SimError, SimTime};
use gplu_sparse::convert::csr_to_csc;
use gplu_sparse::ordering::OrderingKind;
use gplu_sparse::perm::permute_csr;
use gplu_sparse::triangular::solve_lu;
use gplu_sparse::verify::residual_probe;
use gplu_sparse::{Csc, Csr, Permutation, SparseError, Val};
use gplu_symbolic::{
    expand_fill, symbolic_ooc_dynamic_run, symbolic_ooc_run, symbolic_um_traced, ChunkHook,
    ChunkProgress, SymbolicResult, SymbolicResume, UmMode,
};
use gplu_trace::{AttrValue, TraceSink, NOOP};

/// Which symbolic engine the pipeline runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SymbolicEngine {
    /// Out-of-core GPU, naive chunking (Algorithm 3).
    Ooc,
    /// Out-of-core GPU with dynamic parallelism assignment (Algorithm 4).
    #[default]
    OocDynamic,
    /// Unified memory, on-demand paging.
    UmNoPrefetch,
    /// Unified memory with batched prefetching.
    UmPrefetch,
}

/// Numeric-format selection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum NumericFormat {
    /// Two chained criteria decide the format. The paper's switch
    /// criterion decides *when* to leave the dense format
    /// (`n > L/(TB_max · sizeof(dtype))`); once it fires, the cost
    /// model's BLAS-3 crossover ([`gplu_sim::CostModel::blocked_crossover`])
    /// decides *which* CSC kernel runs: when the filled pattern is dense
    /// enough (fill density and mean supernode width both above the
    /// crossover), the supernode-blocked kernel; otherwise the plain
    /// merge-join kernel — the streaming refinement of Algorithm 6 (use
    /// [`NumericFormat::Sparse`] to force the paper's binary-search
    /// access verbatim).
    #[default]
    Auto,
    /// Force the dense-column format (the GLU 3.0 discipline).
    Dense,
    /// Force the sorted-CSC binary-search format (Algorithm 6).
    Sparse,
    /// Force the sorted-CSC merge-join format (`O(nnz)` access).
    SparseMerge,
    /// Force the supernode-blocked merge format: adjacent columns with
    /// near-identical filled patterns are grouped into irregular blocks
    /// whose updates are priced as tiled BLAS-3 traffic. Degrades to
    /// [`NumericFormat::SparseMerge`] on device failure.
    SparseBlocked,
}

/// Residual-based acceptance gate: after factorization the pipeline
/// solves against probe right-hand sides and accepts only when the
/// relative residual clears `threshold`. A failing gate either escalates
/// the pivoting policy (when [`ResidualGate::escalate`] is set) or
/// rejects with [`GpluError::NumericallySingular`] — the pipeline never
/// silently returns garbage factors.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResidualGate {
    /// Run the gate at all. Off, the pipeline accepts whatever the
    /// numeric phase produced (the historical behavior).
    pub enabled: bool,
    /// Largest acceptable relative residual.
    pub threshold: f64,
    /// Probe right-hand sides (the max residual across them is gated).
    pub probes: usize,
    /// On gate failure, retry under progressively stronger pivoting
    /// (threshold pivoting at the default tau, then full partial
    /// pivoting, then a static perturbation floor) instead of rejecting
    /// immediately. Every escalation lands in the recovery log.
    pub escalate: bool,
}

impl Default for ResidualGate {
    fn default() -> Self {
        ResidualGate {
            enabled: true,
            threshold: 1e-6,
            probes: 2,
            escalate: false,
        }
    }
}

impl ResidualGate {
    /// Probes `f`'s residual into its report, emits the
    /// `numeric.residual_gate` instant at `ts` with the caller's own
    /// attribute, and returns the rejected residual as the error. A
    /// disabled gate accepts without probing; what a rejection costs
    /// (escalation or a typed error) is the caller's decision.
    pub(crate) fn check(
        &self,
        f: &mut LuFactorization,
        trace: &dyn TraceSink,
        ts: f64,
        attr: impl FnOnce() -> (&'static str, AttrValue),
    ) -> Result<(), f64> {
        if !self.enabled {
            return Ok(());
        }
        let r = residual_probe(&f.preprocessed, &f.lu, self.probes.max(1));
        f.report.residual = Some(r);
        let pass = r.is_finite() && r <= self.threshold;
        if trace.enabled() {
            trace.instant(
                "numeric.residual_gate",
                "verify",
                ts,
                &[
                    ("residual", r.into()),
                    ("threshold", self.threshold.into()),
                    ("pass", pass.into()),
                    attr(),
                ],
            );
        }
        if pass {
            Ok(())
        } else {
            Err(r)
        }
    }
}

/// End-to-end pipeline options.
#[derive(Debug, Clone)]
pub struct LuOptions {
    /// Pre-processing configuration.
    pub preprocess: PreprocessOptions,
    /// Symbolic engine.
    pub symbolic: SymbolicEngine,
    /// Numeric format.
    pub format: NumericFormat,
    /// Minimum adjacent-column pattern similarity (Jaccard, in `[0, 1]`)
    /// for the supernode blocking pass to chain two columns into one
    /// block. Used by [`NumericFormat::SparseBlocked`] and the
    /// [`NumericFormat::Auto`] crossover probe.
    pub block_threshold: f64,
    /// How small and zero pivots are handled (none / static perturbation
    /// / threshold pivoting with a host discovery pre-pass).
    pub pivot: PivotPolicy,
    /// Post-factorization residual acceptance gate.
    pub gate: ResidualGate,
}

impl Default for LuOptions {
    fn default() -> Self {
        LuOptions {
            preprocess: PreprocessOptions::default(),
            symbolic: SymbolicEngine::default(),
            format: NumericFormat::default(),
            block_threshold: DEFAULT_BLOCK_THRESHOLD,
            pivot: PivotPolicy::default(),
            gate: ResidualGate::default(),
        }
    }
}

impl LuOptions {
    /// Options with a specific ordering (convenience).
    pub fn with_ordering(mut self, kind: OrderingKind) -> Self {
        self.preprocess.ordering = kind;
        self
    }

    /// Options with a specific pivoting policy (convenience).
    pub fn with_pivot(mut self, pivot: PivotPolicy) -> Self {
        self.pivot = pivot;
        self
    }
}

/// Human-readable pivot policy description for recovery events and trace
/// attributes.
pub(crate) fn policy_desc(p: PivotPolicy) -> String {
    match p {
        PivotPolicy::NoPivot => "none".into(),
        PivotPolicy::Static { threshold } => format!("static({threshold:.1e})"),
        PivotPolicy::Threshold { tau } => format!("threshold(tau={tau})"),
    }
}

/// A completed factorization: `P_row · A · P_colᵀ = L · U` on the repaired,
/// permuted matrix.
#[derive(Debug, Clone)]
pub struct LuFactorization {
    /// Combined factor (unit-diagonal `L` strictly below, `U` on/above).
    pub lu: Csc,
    /// The pre-processed matrix that was factorized (post permutation and
    /// diagonal repair) — residuals are measured against this.
    pub preprocessed: Csr,
    /// Row permutation old → new.
    pub p_row: Permutation,
    /// Column permutation old → new.
    pub p_col: Permutation,
    /// Level schedule used by the numeric phase.
    pub levels: Levels,
    /// Per-phase timings and accounting.
    pub report: PhaseReport,
}

/// Maps a ladder's terminal failure onto the structured error surface:
/// a single-rung OOM becomes [`GpluError::DeviceOom`]; a multi-rung
/// exhaustion becomes [`GpluError::RecoveryExhausted`].
fn ladder_exhausted(phase: Phase, attempts: usize, last: SimError) -> GpluError {
    if attempts > 1 {
        GpluError::RecoveryExhausted {
            phase,
            attempts,
            last: last.to_string(),
        }
    } else if matches!(last, SimError::OutOfMemory { .. }) {
        GpluError::DeviceOom { phase, attempts }
    } else {
        GpluError::Sim(last)
    }
}

/// Static display name for the symbolic engine (an allocation-free
/// [`AttrValue::Sym`] on the phase spans).
fn engine_name(engine: SymbolicEngine) -> &'static str {
    match engine {
        SymbolicEngine::Ooc => "Ooc",
        SymbolicEngine::OocDynamic => "OocDynamic",
        SymbolicEngine::UmNoPrefetch => "UmNoPrefetch",
        SymbolicEngine::UmPrefetch => "UmPrefetch",
    }
}

/// Static display name for the numeric format.
pub(crate) fn format_name(format: NumericFormat) -> &'static str {
    match format {
        NumericFormat::Auto => "Auto",
        NumericFormat::Dense => "Dense",
        NumericFormat::Sparse => "Sparse",
        NumericFormat::SparseMerge => "SparseMerge",
        NumericFormat::SparseBlocked => "SparseBlocked",
    }
}

/// The access discipline `format`'s numeric ladder starts on — what
/// threshold discovery's sweep prices its columns under, so that the
/// ladder's first engine can store them. `sparse` is the paper's memory
/// switch for the matrix, which sends Auto to its merge-priced rungs.
pub(crate) fn lead_discipline(format: NumericFormat, sparse: bool) -> AccessDiscipline {
    match format {
        NumericFormat::Auto if !sparse => AccessDiscipline::Dense,
        NumericFormat::Dense => AccessDiscipline::Dense,
        NumericFormat::Sparse => AccessDiscipline::BinarySearch,
        NumericFormat::Auto | NumericFormat::SparseMerge | NumericFormat::SparseBlocked => {
            AccessDiscipline::Merge
        }
    }
}

/// Runs the supernode blocking pass over the filled pattern: one
/// structural sweep comparing adjacent columns' sub-diagonal row sets
/// (host-side, like levelization's dependency-graph build), traced as its
/// own `phase.block_detect` span so warm paths can prove they skipped it.
/// `cache` is the pattern's pivot cache, which the numeric phase reuses.
fn detect_block_plan(
    gpu: &Gpu,
    pattern: &Csc,
    cache: &PivotCache,
    threshold: f64,
    trace: &dyn TraceSink,
) -> BlockPlan {
    trace.span_begin(
        "phase.block_detect",
        "phase",
        gpu.now().as_ns(),
        &[("threshold", threshold.into())],
    );
    let plan = BlockPlan::detect(pattern, cache, threshold);
    // The pivot-cache build and the similarity walk each touch every
    // stored row index once. The pass is priced with the build even when
    // the host already held the cache.
    gpu.advance(SimTime::from_ns(gpu.cost().cpu_parallel_ns(
        2 * pattern.nnz() as u64 + pattern.n_cols() as u64,
    )));
    trace.span_end(
        "phase.block_detect",
        "phase",
        gpu.now().as_ns(),
        &[
            ("blocks", (plan.n_blocks() as u64).into()),
            ("blocked_cols", (plan.blocked_cols() as u64).into()),
            ("mean_block_width", plan.mean_width().into()),
        ],
    );
    plan
}

/// Emits a `recovery` instant alongside a [`RecoveryLog::record`] call.
/// The owned attribute strings are only built when the sink is live.
fn trace_recovery(trace: &dyn TraceSink, ts_ns: f64, phase: Phase, action: &RecoveryAction) {
    if trace.enabled() {
        trace.instant(
            "recovery",
            "recovery",
            ts_ns,
            &[
                ("phase", AttrValue::Str(phase.to_string())),
                ("action", AttrValue::Str(action.to_string())),
            ],
        );
    }
}

/// Runs one symbolic engine, filling the report and recording any
/// in-engine recovery (chunk backoff, fault-forced streaming). The
/// out-of-core engines run a shard per live device of `fleet` and take the
/// optional chunk-watermark resume state and per-chunk checkpoint hook;
/// unified memory runs on the lead as a single indivisible pass with no
/// durability points.
#[allow(clippy::too_many_arguments)]
fn run_symbolic(
    fleet: &DeviceFleet<'_>,
    matrix: &Csr,
    engine: SymbolicEngine,
    report: &mut PhaseReport,
    recovery: &mut RecoveryLog,
    trace: &dyn TraceSink,
    resume: Option<&SymbolicResume>,
    hook: Option<&mut ChunkHook<'_>>,
) -> Result<SymbolicResult, SimError> {
    let injected = |g: &Gpu| g.stats().injected_faults();
    let faults = || fleet.devices().iter().map(injected).sum::<u64>();
    let faults_before = faults();
    let out = match engine {
        SymbolicEngine::Ooc => {
            let out = symbolic_ooc_run(fleet, matrix, trace, resume, hook)?;
            report.chunk_size = out.run.chunk;
            report.symbolic_iterations = out.run.stage1_chunks;
            out
        }
        SymbolicEngine::OocDynamic => {
            let out = symbolic_ooc_dynamic_run(fleet, matrix, trace, resume, hook)?;
            report.chunk_size = out.run.split.chunk2;
            report.symbolic_iterations = out.run.num_iterations;
            out
        }
        SymbolicEngine::UmNoPrefetch | SymbolicEngine::UmPrefetch => {
            let mode = if engine == SymbolicEngine::UmPrefetch {
                UmMode::Prefetch
            } else {
                UmMode::NoPrefetch
            };
            let Some(&lead) = fleet.alive().first() else {
                return Err(SimError::Aborted("no live device".into()));
            };
            let out = symbolic_um_traced(fleet.device(lead), matrix, mode, trace)?;
            // The lead counted every row: the fill-count merge of a shard
            // that owns them all (nothing to ship on a fleet of one).
            let merge_from = fleet.makespan();
            let mut owned = vec![0; fleet.len()];
            owned[lead] = matrix.n_rows() as u64 * 4;
            fleet.all_gather(&owned);
            report.symbolic = out.time + (fleet.makespan() - merge_from);
            return Ok(out.result);
        }
    };
    report.symbolic = out.time;
    if out.run.oom_backoffs > 0 {
        let action = RecoveryAction::ChunkBackoff {
            backoffs: out.run.oom_backoffs,
            final_chunk: report.chunk_size,
        };
        trace_recovery(trace, fleet.makespan().as_ns(), Phase::Symbolic, &action);
        recovery.record(Phase::Symbolic, action);
    }
    // Streaming is the designed out-of-core response to a genuinely small
    // device; it only counts as *recovery* when injected faults forced it.
    if out.run.streamed_output && faults() > faults_before {
        let action = RecoveryAction::StreamedOutput;
        trace_recovery(trace, fleet.makespan().as_ns(), Phase::Symbolic, &action);
        recovery.record(Phase::Symbolic, action);
    }
    Ok(out.result)
}

/// Overwrites the diagonal value of column `col` in both the factorized
/// pattern (CSC) and the pre-processed matrix (CSR) — the late analogue
/// of pre-processing's `repair_diagonal`, applied when a pivot cancels
/// to zero during elimination. Returns the previous matrix diagonal so
/// the caller can record the perturbation magnitude.
fn bump_diag(matrix: &mut Csr, pattern: &mut Csc, col: usize, value: f64) -> Option<f64> {
    let (pos, _) = pattern.find_in_col(col, col);
    let pos = pos?;
    pattern.vals[pos] = value;
    for k in matrix.row_ptr[col]..matrix.row_ptr[col + 1] {
        if matrix.col_idx[k] as usize == col {
            let old = matrix.vals[k];
            matrix.vals[k] = value;
            return Some(old);
        }
    }
    // The pre-processed matrix always carries a full diagonal; reaching
    // here means the inputs are inconsistent.
    None
}

/// Adds `delta` onto the stored diagonal of row `col` — mirroring an
/// engine-level static pivot clamp into the input so the matrix and its
/// factors agree exactly.
fn add_to_diag(matrix: &mut Csr, col: usize, delta: f64) -> bool {
    for k in matrix.row_ptr[col]..matrix.row_ptr[col + 1] {
        if matrix.col_idx[k] as usize == col {
            matrix.vals[k] += delta;
            return true;
        }
    }
    false
}

impl LuFactorization {
    /// Runs the full pipeline on `gpu`.
    ///
    /// Returns a verified-recoverable factorization or a structured
    /// [`GpluError`]; corrective actions taken along the way are listed
    /// in `report.recovery`.
    pub fn compute(gpu: &Gpu, a: &Csr, opts: &LuOptions) -> Result<Self, GpluError> {
        Self::compute_traced(gpu, a, opts, &NOOP)
    }

    /// [`LuFactorization::compute`] with telemetry: one `phase.*` span per
    /// pipeline phase, the engines' per-chunk/per-level spans, and a
    /// `recovery` instant per corrective action land in `trace`; per-phase
    /// GPU statistics deltas land in [`PhaseReport::phase_stats`] either
    /// way.
    pub fn compute_traced(
        gpu: &Gpu,
        a: &Csr,
        opts: &LuOptions,
        trace: &dyn TraceSink,
    ) -> Result<Self, GpluError> {
        compute_on(&DeviceFleet::from(gpu), false, a, opts, None, trace)
    }

    /// [`LuFactorization::compute_traced`] with crash-consistent
    /// checkpointing: a durable snapshot is cut at every phase boundary
    /// and every [`CheckpointOptions::every`] completed numeric levels /
    /// symbolic chunks. With [`CheckpointOptions::resume`] the latest
    /// valid snapshot in the directory is verified against the input
    /// matrix ([`GpluError::CheckpointMismatch`] when it belongs to a
    /// different one) and replayed; the resumed run produces factors
    /// bit-identical to an uninterrupted run. An empty or absent
    /// checkpoint directory under `resume` simply starts fresh.
    pub fn compute_checkpointed(
        gpu: &Gpu,
        a: &Csr,
        opts: &LuOptions,
        ckpt: &CheckpointOptions,
        trace: &dyn TraceSink,
    ) -> Result<Self, GpluError> {
        let mut session = CheckpointSession::open(ckpt, a, opts, gpu, trace)?;
        let fleet = DeviceFleet::from(gpu);
        compute_on(&fleet, false, a, opts, Some(&mut session), trace)
    }
}

/// The one driver behind every entry point: the residual-gated escalation
/// loop around [`Pass::run`]. Runs the user's pivoting policy, measures
/// the factors against the acceptance gate, and — when
/// [`ResidualGate::escalate`] is set — climbs the ladder (threshold
/// pivoting at the default tau → full partial pivoting → static
/// perturbation floor) until a rung passes or every rung is spent, in
/// which case the typed [`GpluError::NumericallySingular`] rejection is
/// returned. Never a silently wrong answer.
///
/// `fleet_report` is what the fleet-taking entry points choose (see
/// [`Pass::fleet_before`]); a `Gpu`-taking entry point passes a borrowed
/// fleet of one and `false`.
pub(crate) fn compute_on(
    fleet: &DeviceFleet<'_>,
    fleet_report: bool,
    a: &Csr,
    opts: &LuOptions,
    mut session: Option<&mut CheckpointSession>,
    trace: &dyn TraceSink,
) -> Result<LuFactorization, GpluError> {
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
        // Last constructive rung: clamp every surviving small pivot
        // to a floor scaled by the matrix norm. The factors then
        // exactly factor the correspondingly bumped matrix, with the
        // deltas mirrored into it and logged.
        let floor = (a.frobenius_norm() * 1e-8).max(f64::MIN_POSITIVE);
        rungs.push(PivotPolicy::Static { threshold: floor });
    }

    let total = rungs.len();
    let mut best_residual = f64::INFINITY;
    for (i, &policy) in rungs.iter().enumerate() {
        // Durability covers only the first attempt: an escalated
        // retry runs under a different policy, so a partial snapshot
        // from the failed rung must not replay into it.
        let sess = if i == 0 { session.take() } else { None };
        let mut pass = Pass::new(fleet, fleet_report, sess, trace);
        if i > 0 {
            pass.recover(
                Phase::Numeric,
                RecoveryAction::PivotEscalated {
                    from: policy_desc(rungs[i - 1]),
                    to: policy_desc(policy),
                },
            );
        }
        match pass.run(a, opts, policy) {
            Ok(mut f) => {
                let ts = fleet.makespan().as_ns();
                let policy = || ("policy", AttrValue::Str(policy_desc(policy)));
                match opts.gate.check(&mut f, trace, ts, policy) {
                    Ok(()) => return Ok(f),
                    Err(r) => best_residual = best_residual.min(r),
                }
            }
            Err(e @ GpluError::Crashed { .. }) => return Err(e),
            Err(e) => {
                // Only pivot-class failures are worth escalating;
                // device and input failures have their own ladders
                // and their own types.
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

/// What the phases of one pipeline pass share: the devices, the optional
/// durability session, the trace sink, and the recovery log and report
/// being built. [`Pass::run`] is a cold pass under a fixed pivoting
/// policy; the warm path ([`crate::RefactorPlan::refactorize_traced`])
/// runs [`Pass::numeric`] alone.
pub(crate) struct Pass<'a> {
    /// The devices — a borrowed fleet of one behind the `Gpu`-taking entry
    /// points. Host-side work advances every live clock; unsharded device
    /// work (unified-memory symbolic, levelization, block detection,
    /// snapshot writes) runs on the lead device and the fleet barriers.
    fleet: &'a DeviceFleet<'a>,
    /// `Some` behind the fleet-taking entry points, and the one thing they
    /// choose: `report.fleet` is filled — measured against this reading of
    /// the fleet as the pass found it. Every phase runs the same way at
    /// every fleet size.
    fleet_before: Option<FleetStats>,
    session: Option<&'a mut CheckpointSession>,
    trace: &'a dyn TraceSink,
    pub(crate) recovery: RecoveryLog,
    pub(crate) report: PhaseReport,
}

/// The numeric phase's inputs: everything [`Pass::numeric`] needs beyond
/// the shared context, as the cold pass and the warm path each supply it.
pub(crate) struct NumericPhase<'p> {
    /// The format the caller asked for (span attribute only).
    pub(crate) requested: NumericFormat,
    /// The formats to try, in degradation order.
    pub(crate) ladder: &'p [NumericFormat],
    /// Present whenever `ladder` contains [`NumericFormat::SparseBlocked`].
    pub(crate) block_plan: Option<&'p BlockPlan>,
    /// A pivot cache already built over `pattern` — the warm replay's
    /// captured one, threshold discovery's when nothing swapped, or the
    /// blocking pass's — so the engines do not build their own.
    pub(crate) pivot: Option<&'p PivotCache>,
    /// Marks the run as a warm replay (the `refactorize` span attribute).
    pub(crate) refactorize: bool,
    /// The pass's pivoting policy. Static perturbation acts inside the
    /// engines at division time; every other policy factorizes exactly
    /// (threshold pivoting has already moved its swaps into the row
    /// permutation).
    pub(crate) policy: PivotPolicy,
    /// Threshold discovery's factors of `pattern`, when its sweep kept
    /// every diagonal: a rung whose engine prices their discipline stores
    /// them instead of eliminating.
    pub(crate) swept: Option<&'p SweptFactors>,
    /// Late singular-pivot repair value, when repair is enabled.
    pub(crate) repair: Option<f64>,
    pub(crate) matrix: &'p mut Csr,
    pub(crate) pattern: &'p mut Csc,
    pub(crate) levels: &'p Levels,
    /// Row and column permutation (snapshotted with a late repair).
    pub(crate) perms: (&'p Permutation, &'p Permutation),
    /// Completed-level watermark to resume from, tagged with the format
    /// that cut it.
    pub(crate) partial: Option<(u8, NumericResume)>,
}

impl<'a> Pass<'a> {
    pub(crate) fn new(
        fleet: &'a DeviceFleet<'a>,
        fleet_report: bool,
        session: Option<&'a mut CheckpointSession>,
        trace: &'a dyn TraceSink,
    ) -> Self {
        let mut report = PhaseReport::default();
        if fleet_report {
            report.fleet = Some(FleetReport {
                devices: fleet.len(),
                ..Default::default()
            });
        }
        Pass {
            fleet,
            fleet_before: fleet_report.then(|| fleet.stats()),
            session,
            trace,
            recovery: RecoveryLog::default(),
            report,
        }
    }

    fn now_ns(&self) -> f64 {
        self.fleet.makespan().as_ns()
    }

    /// First live device: it runs the unsharded device work, and its
    /// per-phase statistics deltas are the report's `phase_stats`.
    fn lead(&self) -> Result<&'a Gpu, GpluError> {
        let lead = (0..self.fleet.len()).find(|&d| !self.fleet.is_dead(d));
        lead.map(|d| self.fleet.device(d))
            .ok_or_else(|| SimError::Aborted("no live devices in fleet".into()).into())
    }

    /// Advances every live device's clock by `t` — host-side work
    /// (ordering, pivot discovery, pattern expansion)
    /// blocks the whole fleet equally.
    fn advance_all(&self, t: SimTime) {
        for d in self.fleet.alive() {
            self.fleet.device(d).advance(t);
        }
    }

    /// Records a corrective action in the log and as a `recovery` instant.
    fn recover(&mut self, phase: Phase, action: RecoveryAction) {
        trace_recovery(self.trace, self.now_ns(), phase, &action);
        self.recovery.record(phase, action);
    }

    /// Counts the rows or columns lost devices shed since the last call —
    /// whether or not the rung that moved them completed — and logs every
    /// device that died since then as [`RecoveryAction::DeviceLost`]
    /// (fleet-taking entry points only; a borrowed fleet of one never
    /// loses its device).
    fn note_losses(&mut self, phase: Phase) {
        let (Some(before), Some(fr)) = (&self.fleet_before, &mut self.report.fleet) else {
            return;
        };
        let counted = before.resharded + fr.resharded_rows + fr.resharded_cols;
        let resharded = self.fleet.stats().resharded - counted;
        match phase {
            Phase::Symbolic => fr.resharded_rows += resharded,
            _ => fr.resharded_cols += resharded,
        }
        let lost: Vec<usize> = (0..self.fleet.len())
            .filter(|&d| self.fleet.is_dead(d) && !before.devices[d].dead && !fr.dead.contains(&d))
            .collect();
        fr.dead.extend(&lost);
        for device in lost {
            self.recover(phase, RecoveryAction::DeviceLost { device, resharded });
        }
    }

    /// One full pipeline pass under a fixed pivoting policy. The caller
    /// ([`compute_on`]) owns gating and escalation.
    fn run(
        mut self,
        a: &Csr,
        opts: &LuOptions,
        policy: PivotPolicy,
    ) -> Result<LuFactorization, GpluError> {
        let resume = self.session.as_mut().and_then(|s| s.resume.take());
        if let Some(r) = &resume {
            // Continue the interrupted run's clock so simulated timings
            // accumulate across the restart rather than starting over.
            let now = self.now_ns();
            if r.clock_ns > now {
                self.advance_all(SimTime::from_ns(r.clock_ns - now));
            }
            self.recovery = r.recovery.clone();
        }
        let resume = resume.as_ref();

        let (mut matrix, mut p_row, p_col) = self.preprocess(a, opts, resume)?;
        let symbolic = self.symbolic(&matrix, opts.symbolic, resume)?;
        let sparse = self
            .lead()?
            .config()
            .should_use_sparse_format(matrix.n_rows());
        // Every later phase reads the filled pattern as CSC; the filled
        // CSR is dropped once it is built (or repaired, under pivoting).
        let (mut pattern, swept, mut cache) = match policy {
            PivotPolicy::Threshold { tau } => {
                let discipline = lead_discipline(opts.format, sparse);
                self.pivot_discovery(tau, discipline, &mut matrix, &mut p_row, symbolic)?
            }
            _ => {
                let pattern = csr_to_csc(&symbolic.filled);
                drop(symbolic);
                (pattern, None, None)
            }
        };
        self.report.fill_nnz = pattern.nnz();
        self.report.new_fill_ins = pattern.nnz() - matrix.nnz();
        let levels = self.levelize(&pattern, resume)?;

        // Numeric factorization (GPU), format per the paper's
        // criterion unless forced, with format degradation: the dense
        // engine's O(n) column buffers are the memory-hungry rung; on
        // device failure fall back to the buffer-free merge-join CSC
        // kernel. (Forced Sparse/SparseMerge are already the conservative
        // formats and run as requested.)
        // Auto follows the paper's *switch* criterion to CSC residency,
        // then the cost model's BLAS-3 crossover picks between the plain
        // merge-join kernel and the supernode-blocked variant: blocking
        // only pays when the filled pattern is dense enough that adjacent
        // columns share their row sets (mesh/Delaunay-class fill), so the
        // crossover gates on measured fill density and the detected mean
        // supernode width.
        let lead = self.lead()?;
        let mut block_plan: Option<BlockPlan> = None;
        let ladder: &[NumericFormat] = match opts.format {
            NumericFormat::Auto => {
                let fill_density = pattern.nnz() as f64 / pattern.n_cols().max(1) as f64;
                let plan = sparse.then(|| {
                    let cache = cache.get_or_insert_with(|| PivotCache::build(&pattern));
                    detect_block_plan(lead, &pattern, cache, opts.block_threshold, self.trace)
                });
                let mean_width = plan.as_ref().map(BlockPlan::mean_width);
                let ladder: &[NumericFormat] = match mean_width {
                    None => &[NumericFormat::Dense, NumericFormat::SparseMerge],
                    Some(w) if lead.cost().blocked_crossover(fill_density, w) => {
                        block_plan = plan;
                        &[NumericFormat::SparseBlocked, NumericFormat::SparseMerge]
                    }
                    Some(_) => &[NumericFormat::SparseMerge],
                };
                // The decision and the inputs that drove it.
                if self.trace.enabled() {
                    let names: Vec<&str> = ladder.iter().map(|&f| format_name(f)).collect();
                    let mut attrs: Vec<(&'static str, AttrValue)> = vec![
                        ("n", matrix.n_rows().into()),
                        ("fill_density", fill_density.into()),
                        ("ladder", names.join(">").into()),
                    ];
                    if let Some(w) = mean_width {
                        attrs.push(("mean_block_width", w.into()));
                    }
                    self.trace
                        .instant("numeric.format", "decision", self.now_ns(), &attrs);
                }
                ladder
            }
            NumericFormat::Dense => &[NumericFormat::Dense, NumericFormat::SparseMerge],
            NumericFormat::Sparse => &[NumericFormat::Sparse],
            NumericFormat::SparseMerge => &[NumericFormat::SparseMerge],
            NumericFormat::SparseBlocked => {
                let cache = cache.get_or_insert_with(|| PivotCache::build(&pattern));
                block_plan = Some(detect_block_plan(
                    lead,
                    &pattern,
                    cache,
                    opts.block_threshold,
                    self.trace,
                ));
                &[NumericFormat::SparseBlocked, NumericFormat::SparseMerge]
            }
        };
        // Block detection advanced only the lead clock; re-sync.
        self.fleet.barrier();
        let lu = self.numeric(NumericPhase {
            requested: opts.format,
            ladder,
            block_plan: block_plan.as_ref(),
            pivot: cache.as_ref(),
            refactorize: false,
            policy,
            swept: swept.as_ref(),
            repair: opts
                .preprocess
                .repair_singular
                .then_some(opts.preprocess.repair_value),
            matrix: &mut matrix,
            pattern: &mut pattern,
            levels: &levels,
            perms: (&p_row, &p_col),
            partial: resume.and_then(|r| r.numeric.clone()),
        })?;

        if let (Some(before), Some(fr)) = (&self.fleet_before, &mut self.report.fleet) {
            let after = self.fleet.stats();
            fr.dead.sort_unstable();
            let run = after.devices.iter().zip(&before.devices);
            (fr.per_device_ns, fr.per_device_busy_ns) = run
                .map(|(now, then)| now.elapsed_and_busy_since(then))
                .map(|(elapsed, busy)| (elapsed.as_ns(), busy.as_ns()))
                .unzip();
            fr.exchanges = after.interconnect.exchanges - before.interconnect.exchanges;
            fr.exchange_bytes = after.interconnect.bytes - before.interconnect.bytes;
            fr.exchange_ns = (after.interconnect.time - before.interconnect.time).as_ns();
        }
        self.report.recovery = self.recovery;
        Ok(LuFactorization {
            lu,
            preprocessed: matrix,
            p_row,
            p_col,
            levels,
            report: self.report,
        })
    }

    /// Phase 1, pre-processing (host) — replayed from the snapshot on resume
    /// (every snapshot carries it, including any later diagonal repairs).
    fn preprocess(
        &mut self,
        a: &Csr,
        opts: &LuOptions,
        resume: Option<&ResumeState>,
    ) -> Result<(Csr, Permutation, Permutation), GpluError> {
        if let Some(r) = resume {
            let pre = &r.pre;
            self.report.preprocess = SimTime::from_ns(pre.time_ns);
            self.report.repaired_diagonals = pre.repaired;
            return Ok((pre.matrix.clone(), pre.p_row.clone(), pre.p_col.clone()));
        }
        let lead = self.lead()?;
        let pre_before = lead.stats();
        self.trace
            .span_begin("phase.preprocess", "phase", self.now_ns(), &[]);
        let PreprocessOutcome {
            matrix,
            p_row,
            p_col,
            repaired,
            time,
        } = preprocess(a, &opts.preprocess, lead.cost())?;
        self.advance_all(time);
        self.report.preprocess = time;
        self.report.repaired_diagonals = repaired;
        self.trace.span_end(
            "phase.preprocess",
            "phase",
            self.now_ns(),
            &[("repaired_diagonals", repaired.into())],
        );
        self.report.phase_stats.preprocess = lead.stats().since(&pre_before);
        if let Some(sess) = self.session.as_deref_mut() {
            sess.set_preprocess(&mut PreState {
                matrix: matrix.clone(),
                p_row: p_row.clone(),
                p_col: p_col.clone(),
                repaired,
                time_ns: time.as_ns(),
            });
            sess.cut(lead, self.trace, PhaseMark::Preprocessed, None)?;
        }
        Ok((matrix, p_row, p_col))
    }

    /// Phase 2, symbolic factorization (GPU). A snapshot past this phase replays
    /// the filled pattern instead of running it.
    fn symbolic(
        &mut self,
        matrix: &Csr,
        engine: SymbolicEngine,
        resume: Option<&ResumeState>,
    ) -> Result<SymbolicResult, GpluError> {
        if let Some(done) = resume.and_then(|r| r.symbolic.as_ref()) {
            self.report.chunk_size = done.chunk_size;
            self.report.symbolic_iterations = done.iterations;
            return Ok(done.result.clone());
        }
        let lead = self.lead()?;
        let sym_before = self.fleet.stats();
        let partial = resume.and_then(|r| r.sym_partial.as_ref());
        let symbolic = self.symbolic_ladder(matrix, engine, partial);
        // Every device of a sharded phase ran its share: the phase's
        // statistics are the sum of their deltas.
        self.report.phase_stats.symbolic = self.fleet.stats().summed_since(&sym_before);
        let mut done = SymbolicDone {
            result: symbolic?,
            chunk_size: self.report.chunk_size,
            iterations: self.report.symbolic_iterations,
        };
        if let Some(sess) = self.session.as_deref_mut() {
            sess.set_symbolic(&mut done);
            sess.note_recovery(&self.recovery);
            sess.cut(lead, self.trace, PhaseMark::Symbolic, None)?;
        }
        Ok(done.result)
    }

    /// The `opts.symbolic` engine, with engine degradation: the sharded
    /// out-of-core engines already back off their chunk sizes under OOM
    /// (and reshard past a lost device); if one still fails on a live
    /// device, fall back to unified memory, whose on-demand paging cannot
    /// run out of device capacity. A partial
    /// snapshot replays the chunk watermark on the engine that cut it.
    fn symbolic_ladder(
        &mut self,
        matrix: &Csr,
        requested: SymbolicEngine,
        partial: Option<&(u8, SymbolicResume)>,
    ) -> Result<SymbolicResult, GpluError> {
        let engine_ladder: &[SymbolicEngine] = match requested {
            SymbolicEngine::Ooc => &[SymbolicEngine::Ooc, SymbolicEngine::UmPrefetch],
            SymbolicEngine::OocDynamic => &[SymbolicEngine::OocDynamic, SymbolicEngine::UmPrefetch],
            SymbolicEngine::UmNoPrefetch => &[SymbolicEngine::UmNoPrefetch],
            SymbolicEngine::UmPrefetch => &[SymbolicEngine::UmPrefetch],
        };
        let (trace, lead) = (self.trace, self.lead()?);
        let every = self.session.as_ref().map_or(usize::MAX, |s| s.every());
        trace.span_begin(
            "phase.symbolic",
            "phase",
            self.now_ns(),
            &[
                ("engine", engine_name(requested).into()),
                ("devices", self.fleet.n_alive().into()),
            ],
        );
        let mut symbolic: Option<SymbolicResult> = None;
        let mut last_err: Option<SimError> = None;
        let mut attempts = 0usize;
        let mut used_engine = requested;
        for (i, &engine) in engine_ladder.iter().enumerate() {
            if i > 0 {
                self.recover(
                    Phase::Symbolic,
                    RecoveryAction::EngineDegraded {
                        from: engine_name(engine_ladder[i - 1]).to_string(),
                        to: engine_name(engine).to_string(),
                    },
                );
            }
            attempts += 1;
            // Partial state only replays on the rung that cut it.
            let rung_resume = partial
                .filter(|(tag, _)| *tag == checkpoint::engine_tag(engine))
                .map(|(_, r)| r);
            let mut hook_storage;
            let hook: Option<&mut ChunkHook<'_>> = match self.session.as_deref_mut() {
                Some(sess) => {
                    hook_storage = move |p: &ChunkProgress| -> Result<(), SimError> {
                        if !p.iters_done.is_multiple_of(every) {
                            return Ok(());
                        }
                        let payload =
                            CheckpointSession::symbolic_partial_payload(engine, p.to_resume());
                        sess.cut_in_kernel(lead, trace, PhaseMark::SymbolicPartial, Some(payload))
                    };
                    Some(&mut hook_storage)
                }
                None => None,
            };
            let run = run_symbolic(
                self.fleet,
                matrix,
                engine,
                &mut self.report,
                &mut self.recovery,
                trace,
                rung_resume,
                hook,
            );
            self.note_losses(Phase::Symbolic);
            match run {
                Ok(result) => {
                    symbolic = Some(result);
                    used_engine = engine;
                    break;
                }
                // An injected kill or a host abort (a failed snapshot
                // write, unusable resume state) stops the run: no ladder
                // degrades around it — a later run resumes from the last
                // durable snapshot.
                Err(e) if e.is_terminal() => return Err(e.into()),
                Err(e) => last_err = Some(e),
            }
        }
        trace.span_end(
            "phase.symbolic",
            "phase",
            self.now_ns(),
            &[
                ("engine", engine_name(used_engine).into()),
                ("attempts", attempts.into()),
                ("ok", symbolic.is_some().into()),
            ],
        );
        symbolic.ok_or_else(|| {
            let last = last_err.unwrap_or(SimError::Aborted("no symbolic engine ran".into()));
            ladder_exhausted(Phase::Symbolic, attempts, last)
        })
    }

    /// Phase 2b, threshold-pivot discovery (host pre-pass): the level-scheduled
    /// engines cannot pivot at runtime, so under the threshold policy the
    /// row permutation is picked *before* levelization. Discovery first
    /// sweeps the kernel core over the filled pattern's CSC, keeping every
    /// diagonal that clears tau ([`discover_pivots_swept`]); when all do,
    /// swaps == 0, every downstream artifact is untouched, and the sweep's
    /// factors, priced under `discipline`, go to the numeric phase.
    /// Otherwise the sequential Gilbert–Peierls discovery picks the
    /// permutation and the filled pattern is repaired. Returns the filled
    /// pattern's CSC, the sweep's factors, if any, and — when nothing
    /// swapped, so the pattern is the one discovery walked — its pivot
    /// cache, which the numeric phase then need not build again.
    fn pivot_discovery(
        &mut self,
        tau: f64,
        discipline: AccessDiscipline,
        matrix: &mut Csr,
        p_row: &mut Permutation,
        mut symbolic: SymbolicResult,
    ) -> Result<(Csc, Option<SweptFactors>, Option<PivotCache>), GpluError> {
        let cost = self.lead()?.cost();
        self.trace.span_begin(
            "phase.pivot_discovery",
            "phase",
            self.now_ns(),
            &[("tau", tau.into())],
        );
        let pattern = csr_to_csc(&symbolic.filled);
        let cache = PivotCache::build(&pattern);
        let disc = discover_pivots_swept(matrix, &pattern, &cache, tau, discipline)
            .map_err(GpluError::from_pivot_discovery);
        let mut clock = SimTime::ZERO;
        if let Ok((d, _)) = &disc {
            clock = SimTime::from_ns(cost.pivot_discovery_ns(d.flops));
            self.advance_all(clock);
        }
        self.trace.span_end(
            "phase.pivot_discovery",
            "phase",
            self.now_ns(),
            &[
                (
                    "swaps",
                    (disc.as_ref().map_or(0, |(d, _)| d.swaps) as u64).into(),
                ),
                ("ok", disc.is_ok().into()),
            ],
        );
        let (disc, factors) = disc?;
        self.report.pivot_swaps = disc.swaps;
        self.report.pivot_discovery = Some(clock);
        if disc.swaps == 0 {
            return Ok((pattern, factors, Some(cache)));
        }
        drop((pattern, cache));
        let p_pivot = Permutation::from_forward(disc.pinv).map_err(|e| {
            GpluError::Input(format!("pivot discovery produced a non-bijective map: {e}"))
        })?;
        let id = Permutation::identity(matrix.n_cols());
        *matrix = permute_csr(matrix, &p_pivot, &id);
        *p_row = p_row.then(&p_pivot);
        // The predicted fill no longer covers the permuted rows; grow it
        // in place (bounded), or re-run symbolic from scratch when the
        // in-place closure blows its budget.
        let filled_perm = permute_csr(&symbolic.filled, &p_pivot, &id);
        drop(symbolic.filled);
        self.trace
            .span_begin("numeric.pattern_expand", "phase", self.now_ns(), &[]);
        let budget = 4 * filled_perm.nnz() + 256;
        let expansion = expand_fill(&filled_perm, budget);
        let expand =
            SimTime::from_ns(cost.pattern_expand_ns((filled_perm.nnz() + expansion.added) as u64));
        self.advance_all(expand);
        self.report.pivot_discovery = Some(clock + expand);
        self.trace.span_end(
            "numeric.pattern_expand",
            "phase",
            self.now_ns(),
            &[
                ("added", (expansion.added as u64).into()),
                ("rounds", (expansion.rounds as u64).into()),
                ("closed", expansion.closed.into()),
            ],
        );
        if expansion.closed {
            self.report.pattern_expanded = expansion.added;
            self.recover(
                Phase::Symbolic,
                RecoveryAction::PatternExpanded {
                    added: expansion.added,
                    rounds: expansion.rounds,
                },
            );
            return Ok((csr_to_csc(&expansion.filled), None, None));
        }
        self.recover(
            Phase::Symbolic,
            RecoveryAction::Resymbolic {
                abandoned: expansion.added,
            },
        );
        let prev = self.report.symbolic;
        // Unified memory cannot run out of device capacity, making it the
        // safe engine for the fallback pass.
        symbolic = run_symbolic(
            self.fleet,
            matrix,
            SymbolicEngine::UmPrefetch,
            &mut self.report,
            &mut self.recovery,
            self.trace,
            None,
            None,
        )?;
        self.report.symbolic = prev + self.report.symbolic;
        Ok((csr_to_csc(&symbolic.filled), None, None))
    }

    /// Phase 3, levelization (GPU, dynamic parallelism) on the lead device (the
    /// dependency DAG is global state every device needs; replicating the
    /// run would change nothing), then a barrier so the whole fleet enters
    /// the numeric phase together. Replayed from the snapshot when
    /// available ([`Levels::from_level_of`] rebuilds the groups
    /// deterministically).
    fn levelize(
        &mut self,
        pattern: &Csc,
        resume: Option<&ResumeState>,
    ) -> Result<Levels, GpluError> {
        if let Some(lv) = resume.and_then(|r| r.levels()) {
            self.report.n_levels = lv.n_levels();
            self.report.max_level_width = lv.max_width();
            return Ok(lv);
        }
        let lead = self.lead()?;
        let lvl_before = lead.stats();
        self.trace
            .span_begin("phase.levelize", "phase", self.now_ns(), &[]);
        let dep = DepGraph::build_csc(pattern);
        let mut lvl = levelize_gpu_traced(lead, &dep, self.trace).map_err(|e| match e {
            SimError::OutOfMemory { .. } => GpluError::DeviceOom {
                phase: Phase::Levelize,
                attempts: 1,
            },
            other => GpluError::from(other),
        })?;
        self.fleet.barrier();
        self.report.levelize = lvl.time;
        self.report.n_levels = lvl.levels.n_levels();
        self.report.max_level_width = lvl.levels.max_width();
        self.trace.span_end(
            "phase.levelize",
            "phase",
            self.now_ns(),
            &[
                ("levels", self.report.n_levels.into()),
                ("max_width", self.report.max_level_width.into()),
            ],
        );
        self.report.phase_stats.levelize = lead.stats().since(&lvl_before);
        if let Some(sess) = self.session.as_deref_mut() {
            sess.set_levels(&mut lvl.levels.level_of);
            sess.note_recovery(&self.recovery);
            sess.cut(lead, self.trace, PhaseMark::Levelized, None)?;
        }
        Ok(lvl.levels)
    }

    /// Phase 4, the numeric phase, cold or warm: the format ladder (degrading on
    /// device failure), each level placed by quote — whole on the home
    /// device, or split across the live devices when that prices lower,
    /// legs included — one late singular-pivot repair, and the mirroring of
    /// engine-level perturbations into `matrix`. A partial snapshot
    /// replays the completed-level watermark and value store on the format
    /// that cut it; static pivoting cuts none. Fills the report's numeric fields and returns the
    /// factors.
    pub(crate) fn numeric(&mut self, job: NumericPhase<'_>) -> Result<Csc, GpluError> {
        let NumericPhase {
            requested,
            ladder,
            block_plan,
            pivot,
            refactorize,
            policy,
            mut swept,
            repair,
            matrix,
            pattern,
            levels,
            perms,
            mut partial,
        } = job;
        let (fleet, trace) = (self.fleet, self.trace);
        let lead = self.lead()?;
        let rule = match policy {
            PivotPolicy::Static { threshold } => PivotRule::Perturb { threshold },
            _ => PivotRule::Exact,
        };
        let every = self.session.as_ref().map_or(usize::MAX, |s| s.every());
        let num_before = fleet.stats();
        let mut begin_attrs: Vec<(&'static str, AttrValue)> = vec![
            ("format", format_name(requested).into()),
            ("devices", fleet.n_alive().into()),
        ];
        if refactorize {
            begin_attrs.push(("refactorize", true.into()));
        }
        trace.span_begin("phase.numeric", "phase", self.now_ns(), &begin_attrs);
        let mut repair_attempted = false;
        let (numeric, used_format) = 'numeric: loop {
            let mut last_err: Option<SimError> = None;
            let mut attempts = 0usize;
            for (i, &format) in ladder.iter().enumerate() {
                if i > 0 {
                    self.recover(
                        Phase::Numeric,
                        RecoveryAction::FormatDegraded {
                            from: format_name(ladder[i - 1]).to_string(),
                            to: format_name(format).to_string(),
                        },
                    );
                }
                attempts += 1;
                let rung_resume = partial
                    .as_ref()
                    .filter(|(tag, _)| *tag == checkpoint::format_tag(format))
                    .map(|(_, r)| r);
                let mut hook_storage;
                // A level watermark cannot carry the static clamps made
                // before it, so under static pivoting a resume re-runs the
                // phase from the levelized snapshot.
                let static_pivot = matches!(rule, PivotRule::Perturb { .. });
                let hook: Option<&mut LevelHook<'_>> = match self.session.as_deref_mut() {
                    Some(sess) if !static_pivot => {
                        hook_storage = move |p: &LevelProgress<'_, '_>| -> Result<(), SimError> {
                            let done = p.level + 1;
                            if !done.is_multiple_of(every) && done != p.n_levels {
                                return Ok(());
                            }
                            let state = NumericResume {
                                start_level: done,
                                vals: p.vals.snapshot(),
                                mode_mix: p.mode_mix,
                                probes: p.probes,
                                merge_steps: p.merge_steps,
                                batches: p.batches,
                                gemm_tiles: p.gemm_tiles,
                            };
                            let payload = CheckpointSession::numeric_partial_payload(format, state);
                            let mark = PhaseMark::NumericPartial;
                            sess.cut_in_kernel(lead, trace, mark, Some(payload))
                        };
                        Some(&mut hook_storage)
                    }
                    _ => None,
                };
                let mut engine: Box<dyn NumericEngine + '_> = match format {
                    NumericFormat::Dense => Box::new(DenseEngine::default()),
                    NumericFormat::Sparse => Box::new(SparseEngine::new(None)),
                    NumericFormat::SparseBlocked => Box::new(BlockedEngine::new(
                        block_plan.expect("blocked rung carries a plan"),
                    )),
                    NumericFormat::Auto | NumericFormat::SparseMerge => Box::new(MergeEngine),
                };
                let run = run_levels(
                    &mut *engine,
                    fleet,
                    pattern,
                    levels,
                    trace,
                    rung_resume,
                    hook,
                    pivot,
                    rule,
                    swept,
                );
                // Devices lost on a failed rung stay lost for the next.
                self.note_losses(Phase::Numeric);
                match run {
                    Ok(out) => break 'numeric (out.outcome, format),
                    Err(NumericError::Sim(e)) if e.is_terminal() => return Err(e.into()),
                    Err(NumericError::Sim(e)) => last_err = Some(e),
                    Err(NumericError::SingularPivot { col, level }) => {
                        // A pivot cancelled to zero mid-elimination. The
                        // structure is unchanged, so the symbolic result
                        // and schedule stay valid: patch the diagonal
                        // (the paper's Table 4 constant) and retry the
                        // numeric ladder once.
                        let patched = repair.filter(|_| !repair_attempted).and_then(|value| {
                            bump_diag(matrix, pattern, col, value).map(|old| (value, old))
                        });
                        let Some((value, old)) = patched else {
                            return Err(GpluError::SingularPivot { col, level });
                        };
                        repair_attempted = true;
                        self.recover(
                            Phase::Numeric,
                            RecoveryAction::PivotRepaired {
                                col,
                                value,
                                magnitude: (value - old).abs(),
                            },
                        );
                        self.report.repaired_diagonals += 1;
                        // Any mid-level snapshot and swept factor
                        // predates the repair; restart the numeric phase
                        // fresh and make the repaired matrix the durable
                        // one.
                        partial = None;
                        swept = None;
                        if let Some(sess) = self.session.as_deref_mut() {
                            sess.set_preprocess(&mut PreState {
                                matrix: matrix.clone(),
                                p_row: perms.0.clone(),
                                p_col: perms.1.clone(),
                                repaired: self.report.repaired_diagonals,
                                time_ns: self.report.preprocess.as_ns(),
                            });
                            sess.note_recovery(&self.recovery);
                            sess.cut(lead, trace, PhaseMark::Levelized, None)?;
                        }
                        continue 'numeric;
                    }
                    Err(NumericError::Input(msg)) => return Err(GpluError::Input(msg)),
                }
            }
            let last = last_err.unwrap_or(SimError::Aborted("no numeric format ran".into()));
            return Err(ladder_exhausted(Phase::Numeric, attempts, last));
        };
        self.report.numeric = numeric.time;
        self.report.mode_mix = (numeric.mode_mix.a, numeric.mode_mix.b, numeric.mode_mix.c);
        self.report.m_limit = numeric.m_limit;
        self.report.probes = numeric.probes;
        self.report.merge_steps = numeric.merge_steps;
        self.report.gemm_tiles = numeric.gemm_tiles;
        trace.span_end(
            "phase.numeric",
            "phase",
            self.now_ns(),
            &[
                ("format", format_name(used_format).into()),
                ("mode_a", numeric.mode_mix.a.into()),
                ("mode_b", numeric.mode_mix.b.into()),
                ("mode_c", numeric.mode_mix.c.into()),
                ("devices", fleet.n_alive().into()),
            ],
        );
        // Every device stages the pattern and runs its shares of split
        // levels: the phase's statistics are the sum of their deltas.
        self.report.phase_stats.numeric = fleet.stats().summed_since(&num_before);
        if !numeric.perturbations.is_empty() {
            // The factors exactly factor the bumped matrix; mirror the
            // clamp deltas into the preprocessed diagonal so residuals
            // and solves target the system the factors represent.
            let mut max_delta = 0.0f64;
            for &(col, delta) in &numeric.perturbations {
                add_to_diag(matrix, col, delta);
                max_delta = max_delta.max(delta.abs());
            }
            self.recover(
                Phase::Numeric,
                RecoveryAction::PivotPerturbed {
                    cols: numeric.perturbations.len(),
                    max_delta,
                },
            );
        }
        Ok(numeric.lu)
    }
}

impl LuFactorization {
    /// Permutes a right-hand side into factor ordering (`P_row · b`).
    pub fn permute_rhs(&self, b: &[Val]) -> Vec<Val> {
        self.p_row.permute_vec(b)
    }

    /// Builds the level schedules for GPU triangular solves (reusable
    /// across right-hand sides — the circuit-simulation pattern).
    pub fn solve_plan(&self) -> gplu_numeric::TriSolvePlan {
        gplu_numeric::TriSolvePlan::new(&self.lu)
    }

    /// Solves `A x = b` with the level-scheduled triangular solve on the
    /// simulated GPU (the end-to-end completion of the paper's pipeline:
    /// the factors never leave the device). Returns the solution and the
    /// simulated solve time.
    pub fn solve_on_gpu(
        &self,
        gpu: &Gpu,
        plan: &gplu_numeric::TriSolvePlan,
        b: &[Val],
    ) -> Result<(Vec<Val>, gplu_sim::SimTime), GpluError> {
        self.solve_on_gpu_traced(gpu, plan, b, &NOOP)
    }

    /// [`LuFactorization::solve_on_gpu`] with telemetry (`trisolve` drift
    /// samples for the cost-model profiler). A batch of one.
    pub fn solve_on_gpu_traced(
        &self,
        gpu: &Gpu,
        plan: &gplu_numeric::TriSolvePlan,
        b: &[Val],
        trace: &dyn TraceSink,
    ) -> Result<(Vec<Val>, gplu_sim::SimTime), GpluError> {
        let (mut xs, time) = self.solve_many_on_gpu_traced(gpu, plan, &[b.to_vec()], trace)?;
        Ok((xs.pop().expect("one rhs in, one solution out"), time))
    }

    /// Solves `A X = B` for many right-hand sides with one batched
    /// level-scheduled launch sequence per sweep — the amortized variant
    /// of [`LuFactorization::solve_on_gpu`] for transient simulation and
    /// multi-source analyses. Returns one solution per input plus the
    /// simulated time of the whole batch (strictly less than the sum of
    /// per-RHS solves: launch latency is paid once per level, not once
    /// per level per RHS).
    pub fn solve_many_on_gpu(
        &self,
        gpu: &Gpu,
        plan: &gplu_numeric::TriSolvePlan,
        bs: &[Vec<Val>],
    ) -> Result<(Vec<Vec<Val>>, gplu_sim::SimTime), GpluError> {
        self.solve_many_on_gpu_traced(gpu, plan, bs, &NOOP)
    }

    /// [`LuFactorization::solve_many_on_gpu`] with telemetry (`trisolve`
    /// drift samples for the cost-model profiler).
    pub fn solve_many_on_gpu_traced(
        &self,
        gpu: &Gpu,
        plan: &gplu_numeric::TriSolvePlan,
        bs: &[Vec<Val>],
        trace: &dyn TraceSink,
    ) -> Result<(Vec<Vec<Val>>, gplu_sim::SimTime), GpluError> {
        let permuted = bs
            .iter()
            .map(|b| self.checked_rhs(b))
            .collect::<Result<Vec<_>, _>>()?;
        let out = gplu_numeric::solve_gpu_batch_traced(gpu, &self.lu, plan, &permuted, trace)?;
        Ok((out.xs.iter().map(|y| self.unpermute(y)).collect(), out.time))
    }

    /// Solves `A x = b` with `steps` rounds of iterative refinement:
    /// `x ← x + A⁻¹(b − A·x)` through the existing factors. Because the
    /// pipeline factorizes without pivoting (stability handled by
    /// pre-processing, the GLU-family convention), refinement recovers the
    /// last digits on marginally conditioned systems at the cost of one
    /// extra triangular-solve pair per round.
    pub fn solve_refined(&self, b: &[Val], steps: usize) -> Result<Vec<Val>, GpluError> {
        let mut x = self.solve(b)?;
        // Refinement must target the matrix the factors represent; if
        // diagonal repair changed values, that is the repaired system.
        // Residuals are computed against `preprocessed` in factor ordering.
        for _ in 0..steps {
            let ax = {
                // A x in original ordering.
                let mut full = vec![0.0; x.len()];
                let x_perm: Vec<Val> = (0..x.len()).map(|i| x[i]).collect();
                let pre_x = self.p_col.permute_vec(&x_perm);
                let ax_pre = self.preprocessed.spmv(&pre_x);
                // back to original row ordering
                let inv = self.p_row.inverse();
                for (new, v) in ax_pre.into_iter().enumerate() {
                    full[inv.apply(new)] = v;
                }
                full
            };
            let r: Vec<Val> = b.iter().zip(&ax).map(|(p, q)| p - q).collect();
            let dx = self.solve(&r)?;
            for (xi, di) in x.iter_mut().zip(&dx) {
                *xi += di;
            }
        }
        Ok(x)
    }

    /// Solves `A x = b` through the factors (for the repaired matrix when
    /// diagonal repair was needed — see [`PhaseReport::repaired_diagonals`]).
    pub fn solve(&self, b: &[Val]) -> Result<Vec<Val>, GpluError> {
        // P_row A P_colᵀ = LU  ⇒  A x = b  ⇔  (LU)(P_col x) = P_row b.
        let y = solve_lu(&self.lu, &self.checked_rhs(b)?)?;
        Ok(self.unpermute(&y))
    }

    /// `P_row · b`, after checking `b` against the matrix dimension.
    fn checked_rhs(&self, b: &[Val]) -> Result<Vec<Val>, GpluError> {
        if b.len() != self.preprocessed.n_rows() {
            return Err(GpluError::Input(format!(
                "rhs length {} != n {}",
                b.len(),
                self.preprocessed.n_rows()
            )));
        }
        Ok(self.permute_rhs(b))
    }

    /// `x = P_colᵀ y`, i.e. `x[i] = y[p_col(i)]`: a factor-ordering
    /// solution back in the caller's column order.
    fn unpermute(&self, y: &[Val]) -> Vec<Val> {
        (0..y.len()).map(|i| y[self.p_col.apply(i)]).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gplu_sim::{CostModel, FaultPlan, GpuConfig};
    use gplu_sparse::gen::random::{banded_dominant, random_dominant};
    use gplu_sparse::verify::{check_solution, residual_probe};

    fn gpu_for(a: &Csr) -> Gpu {
        Gpu::new(GpuConfig::v100_symbolic_profile(a.n_rows(), a.nnz()))
    }

    fn faulted_gpu_for(a: &Csr, plan: FaultPlan) -> Gpu {
        Gpu::with_fault_plan(
            GpuConfig::v100_symbolic_profile(a.n_rows(), a.nnz()),
            CostModel::default(),
            plan,
        )
    }

    #[test]
    fn end_to_end_factors_and_solves() {
        let a = random_dominant(300, 4.0, 101);
        let gpu = gpu_for(&a);
        let f = LuFactorization::compute(&gpu, &a, &LuOptions::default()).expect("pipeline ok");
        assert!(
            residual_probe(&f.preprocessed, &f.lu, 4) < 1e-9,
            "factors must reconstruct"
        );

        let x_true = vec![1.0; 300];
        let b = a.spmv(&x_true);
        let x = f.solve(&b).expect("solve ok");
        assert!(
            check_solution(&a, &x, &b, 1e-8),
            "A x = b must hold in original ordering"
        );
    }

    #[test]
    fn auto_selects_merge_exactly_when_format_switch_fires() {
        // Criterion: sparse iff n > L/(TB_max·sizeof). With TB_max = 160
        // and 4-byte data, L = 160·4·n sits exactly at the boundary (not
        // sparse); one byte less flips it.
        let boundary = 160u64 * 4 * 300;
        assert!(!GpuConfig::v100()
            .with_memory(boundary)
            .should_use_sparse_format(300));
        assert!(GpuConfig::v100()
            .with_memory(boundary - 1)
            .should_use_sparse_format(300));

        // When the switch fires, Auto must run the merge kernel
        // (merge_steps counted, no probes, no M limit)…
        let a = banded_dominant(300, 4, 108);
        let tight = Gpu::new(GpuConfig::v100().with_memory(150_000));
        assert!(tight.config().should_use_sparse_format(300));
        let f = LuFactorization::compute(&tight, &a, &LuOptions::default()).expect("ok");
        assert!(
            f.report.merge_steps > 0,
            "Auto must pick merge when the switch fires"
        );
        assert_eq!(f.report.probes, 0);
        assert!(f.report.m_limit.is_none());

        // …and stay dense otherwise.
        let roomy = Gpu::new(GpuConfig::v100());
        assert!(!roomy.config().should_use_sparse_format(300));
        let f = LuFactorization::compute(&roomy, &a, &LuOptions::default()).expect("ok");
        assert!(f.report.m_limit.is_some(), "Auto must stay dense otherwise");
        assert_eq!(f.report.merge_steps, 0);
    }

    #[test]
    fn report_is_populated() {
        let a = random_dominant(400, 4.0, 104);
        let gpu = gpu_for(&a);
        let f = LuFactorization::compute(&gpu, &a, &LuOptions::default()).expect("ok");
        let r = &f.report;
        assert!(r.symbolic.as_ns() > 0.0);
        assert!(r.levelize.as_ns() > 0.0);
        assert!(r.numeric.as_ns() > 0.0);
        assert!(r.fill_nnz >= a.nnz());
        assert!(r.n_levels >= 1);
        assert!(r.symbolic_iterations >= 1);
        assert!(r.total() >= r.gpu_total());
    }

    #[test]
    fn refinement_tightens_the_residual() {
        let a = random_dominant(300, 4.0, 107);
        let gpu = gpu_for(&a);
        let f = LuFactorization::compute(&gpu, &a, &LuOptions::default()).expect("ok");
        let x_true: Vec<f64> = (0..300).map(|i| ((i * 7919) % 13) as f64 - 6.0).collect();
        let b = a.spmv(&x_true);
        let plain = f.solve(&b).expect("solve");
        let refined = f.solve_refined(&b, 2).expect("refined");
        let resid = |x: &[f64]| {
            a.spmv(x)
                .iter()
                .zip(&b)
                .map(|(p, q)| (p - q).abs())
                .fold(0.0f64, f64::max)
        };
        assert!(
            resid(&refined) <= resid(&plain) * 1.0001,
            "refinement must not worsen the residual"
        );
        assert!(check_solution(&a, &refined, &b, 1e-10));
    }

    #[test]
    fn rejects_wrong_rhs_length() {
        let a = random_dominant(50, 3.0, 105);
        let gpu = gpu_for(&a);
        let f = LuFactorization::compute(&gpu, &a, &LuOptions::default()).expect("ok");
        assert!(matches!(f.solve(&vec![0.0; 49]), Err(GpluError::Input(_))));
    }

    #[test]
    fn clean_run_has_empty_recovery_log() {
        let a = random_dominant(200, 4.0, 120);
        let gpu = gpu_for(&a);
        let f = LuFactorization::compute(&gpu, &a, &LuOptions::default()).expect("ok");
        assert!(
            f.report.recovery.is_empty(),
            "clean run must not report recovery: {}",
            f.report.recovery.summary()
        );
    }

    #[test]
    fn transient_oom_backs_off_and_matches_clean_factors() {
        let a = random_dominant(200, 4.0, 121);
        let opts = LuOptions {
            symbolic: SymbolicEngine::Ooc,
            ..Default::default()
        };
        let clean = LuFactorization::compute(&gpu_for(&a), &a, &opts).expect("clean ok");

        // Ordinal 3 is the stage-1 state chunk: the engine must halve its
        // chunk and carry on.
        let gpu = faulted_gpu_for(&a, FaultPlan::new().oom_on_alloc(3));
        let f = LuFactorization::compute(&gpu, &a, &opts).expect("recovers");
        assert_eq!(f.lu.vals, clean.lu.vals, "recovery must not change bits");
        assert!(
            f.report
                .recovery
                .events()
                .iter()
                .any(|e| matches!(e.action, RecoveryAction::ChunkBackoff { .. })),
            "backoff must be recorded: {}",
            f.report.recovery.summary()
        );
        assert!(!f.report.recovery.degraded());
    }

    #[test]
    fn symbolic_engine_degrades_ooc_to_um() {
        let a = random_dominant(150, 4.0, 122);
        let opts = LuOptions {
            symbolic: SymbolicEngine::Ooc,
            ..Default::default()
        };
        let clean = LuFactorization::compute(&gpu_for(&a), &a, &opts).expect("clean ok");

        // Every out-of-core stage-1 launch is rejected; UM runs different
        // kernels and must take over.
        let gpu = faulted_gpu_for(&a, FaultPlan::new().persistent_bad_launch("symbolic_1", 1));
        let f = LuFactorization::compute(&gpu, &a, &opts).expect("degrades to UM");
        assert_eq!(f.lu.vals, clean.lu.vals, "engines agree bitwise");
        let degraded = f.report.recovery.events().iter().any(|e| {
            matches!(
                &e.action,
                RecoveryAction::EngineDegraded { from, to }
                    if from == "Ooc" && to == "UmPrefetch"
            )
        });
        assert!(
            degraded,
            "Ooc -> UmPrefetch must be recorded: {}",
            f.report.recovery.summary()
        );
    }

    #[test]
    fn numeric_format_degrades_dense_to_merge() {
        let a = banded_dominant(200, 4, 123);
        let opts = LuOptions {
            format: NumericFormat::Dense,
            ..Default::default()
        };
        let clean = LuFactorization::compute(&gpu_for(&a), &a, &opts).expect("clean ok");

        let gpu = faulted_gpu_for(
            &a,
            FaultPlan::new().persistent_bad_launch("numeric_dense", 1),
        );
        let f = LuFactorization::compute(&gpu, &a, &opts).expect("degrades to merge");
        assert_eq!(f.lu.vals, clean.lu.vals, "formats agree bitwise");
        let degraded = f.report.recovery.events().iter().any(|e| {
            matches!(
                &e.action,
                RecoveryAction::FormatDegraded { from, to }
                    if from == "Dense" && to == "SparseMerge"
            )
        });
        assert!(
            degraded,
            "Dense -> SparseMerge must be recorded: {}",
            f.report.recovery.summary()
        );
        assert!(f.report.m_limit.is_none(), "merge engine reports no M");
        assert!(f.report.merge_steps > 0);
    }

    #[test]
    fn recovery_exhaustion_is_a_typed_error_not_a_panic() {
        let a = random_dominant(100, 4.0, 124);
        // Reject every kernel on the device: both symbolic rungs fail.
        let gpu = faulted_gpu_for(&a, FaultPlan::new().persistent_bad_launch("*", 1));
        let err = LuFactorization::compute(&gpu, &a, &LuOptions::default()).unwrap_err();
        assert!(
            matches!(
                err,
                GpluError::RecoveryExhausted {
                    phase: Phase::Symbolic,
                    attempts: 2,
                    ..
                }
            ),
            "got {err}"
        );
    }

    #[test]
    fn singular_pivot_without_repair_is_typed() {
        // Rank-deficient 2x2 of ones: the second pivot cancels to zero
        // during elimination (pre-processing sees nonzero diagonals, so it
        // repairs nothing up front).
        let mut coo = gplu_sparse::Coo::new(2, 2);
        for i in 0..2 {
            for j in 0..2 {
                coo.push(i, j, 1.0);
            }
        }
        let a = gplu_sparse::convert::coo_to_csr(&coo);
        let gpu = gpu_for(&a);
        let err = LuFactorization::compute(&gpu, &a, &LuOptions::default()).unwrap_err();
        assert!(
            matches!(err, GpluError::SingularPivot { col: 1, .. }),
            "got {err}"
        );
    }

    #[test]
    fn singular_pivot_with_repair_retries_and_records() {
        let mut coo = gplu_sparse::Coo::new(2, 2);
        for i in 0..2 {
            for j in 0..2 {
                coo.push(i, j, 1.0);
            }
        }
        let a = gplu_sparse::convert::coo_to_csr(&coo);
        let gpu = gpu_for(&a);
        let opts = LuOptions {
            preprocess: PreprocessOptions {
                repair_singular: true,
                ..Default::default()
            },
            ..Default::default()
        };
        let f = LuFactorization::compute(&gpu, &a, &opts).expect("repairs and retries");
        let repaired = f
            .report
            .recovery
            .events()
            .iter()
            .any(|e| matches!(e.action, RecoveryAction::PivotRepaired { col: 1, .. }));
        assert!(
            repaired,
            "repair must be recorded: {}",
            f.report.recovery.summary()
        );
        assert!(f.report.repaired_diagonals >= 1);
        // The factors reconstruct the *repaired* matrix.
        assert!(residual_probe(&f.preprocessed, &f.lu, 2) < 1e-9);
    }

    fn ckpt_tempdir() -> std::path::PathBuf {
        use std::sync::atomic::{AtomicU64, Ordering};
        static N: AtomicU64 = AtomicU64::new(0);
        let d = std::env::temp_dir().join(format!(
            "gplu-pipeline-ckpt-{}-{}",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn resume_against_the_wrong_matrix_is_typed() {
        let a = random_dominant(120, 4.0, 112);
        let dir = ckpt_tempdir();
        let ckpt = CheckpointOptions::new(&dir).every(2);
        let gpu = gpu_for(&a);
        LuFactorization::compute_checkpointed(&gpu, &a, &LuOptions::default(), &ckpt, &NOOP)
            .expect("ok");
        let b = random_dominant(120, 4.0, 113);
        let gpu2 = gpu_for(&b);
        let err = LuFactorization::compute_checkpointed(
            &gpu2,
            &b,
            &LuOptions::default(),
            &ckpt.resume(true),
            &NOOP,
        )
        .unwrap_err();
        assert!(matches!(err, GpluError::CheckpointMismatch(_)), "{err:?}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn repaired_planar_matrix_pipeline() {
        use gplu_sparse::gen::planar::{planar, PlanarParams};
        let a = planar(&PlanarParams {
            side: 16,
            tri_prob: 0.4,
            missing_diag_fraction: 0.4,
            seed: 9,
        });
        let gpu = gpu_for(&a);
        let f = LuFactorization::compute(&gpu, &a, &LuOptions::default()).expect("ok");
        assert!(f.report.repaired_diagonals > 0);
        assert!(residual_probe(&f.preprocessed, &f.lu, 3) < 1e-9);
    }

    #[test]
    fn threshold_pivoting_swaps_rows_and_passes_the_gate() {
        let a = gplu_sparse::gen::hard::near_singular(150, 5);
        let opts = LuOptions::default().with_pivot(PivotPolicy::Threshold {
            tau: DEFAULT_PIVOT_TAU,
        });
        let gpu = gpu_for(&a);
        let f = LuFactorization::compute(&gpu, &a, &opts).expect("threshold survives");
        assert!(f.report.pivot_swaps > 0, "near-singular rows must swap");
        let r = f.report.residual.expect("gate ran");
        assert!(r <= opts.gate.threshold, "gate must pass: {r:e}");
        // Factors solve the *original* system through the composed p_row.
        let x_true = vec![1.0; 150];
        let b = a.spmv(&x_true);
        let x = f.solve(&b).expect("solve ok");
        assert!(check_solution(&a, &x, &b, 1e-6));
    }

    #[test]
    fn nopivot_on_adversarial_values_is_rejected_not_wrong() {
        // Without pivoting the tiny diagonals blow up element growth; the
        // gate must convert that into a typed rejection, never a silently
        // garbage factorization.
        let a = gplu_sparse::gen::hard::near_singular(150, 6);
        let opts = LuOptions::default(); // NoPivot, gate on, no escalation
        let gpu = gpu_for(&a);
        match LuFactorization::compute(&gpu, &a, &opts) {
            Ok(f) => {
                let r = f.report.residual.expect("gate ran");
                assert!(r <= opts.gate.threshold, "accepted factors must verify");
            }
            Err(GpluError::NumericallySingular {
                residual,
                threshold,
                attempts,
            }) => {
                assert!(residual > threshold);
                assert_eq!(attempts, 1, "no escalation requested");
            }
            Err(GpluError::SingularPivot { .. }) => {}
            Err(e) => panic!("unexpected error class: {e}"),
        }
    }

    #[test]
    fn escalation_ladder_recovers_nopivot_traffic() {
        let a = gplu_sparse::gen::hard::near_singular(150, 6);
        let mut opts = LuOptions::default();
        opts.gate.escalate = true;
        let gpu = gpu_for(&a);
        let f = LuFactorization::compute(&gpu, &a, &opts).expect("ladder recovers");
        let r = f.report.residual.expect("gate ran");
        assert!(
            r <= opts.gate.threshold,
            "accepted factors must verify: {r:e}"
        );
        assert!(
            f.report
                .recovery
                .events()
                .iter()
                .any(|e| matches!(e.action, RecoveryAction::PivotEscalated { .. })),
            "escalation must be logged: {}",
            f.report.recovery.summary()
        );
    }

    #[test]
    fn static_perturbation_mirrors_deltas_and_verifies() {
        // Rank-1 matrix: the second pivot cancels to exactly zero. Static
        // pivoting clamps it, mirrors the delta into the preprocessed
        // diagonal, and the gate accepts the bumped system.
        let mut coo = gplu_sparse::Coo::new(3, 3);
        for i in 0..3 {
            for j in 0..3 {
                coo.push(i, j, 1.0);
            }
        }
        let a = gplu_sparse::convert::coo_to_csr(&coo);
        let opts = LuOptions::default().with_pivot(PivotPolicy::Static { threshold: 1e-8 });
        let gpu = gpu_for(&a);
        let f = LuFactorization::compute(&gpu, &a, &opts).expect("static pivoting survives");
        assert!(
            f.report
                .recovery
                .events()
                .iter()
                .any(|e| matches!(e.action, RecoveryAction::PivotPerturbed { .. })),
            "clamps must be logged: {}",
            f.report.recovery.summary()
        );
        // The mirrored matrix and the factors agree exactly.
        assert!(residual_probe(&f.preprocessed, &f.lu, 3) <= opts.gate.threshold);
    }

    #[test]
    fn zero_diag_family_recovers_via_structural_repair() {
        // Structurally missing diagonals are repaired by preprocessing
        // (planar-style), then threshold pivoting handles the values.
        let a = gplu_sparse::gen::hard::zero_diag(150, 8);
        let opts = LuOptions::default().with_pivot(PivotPolicy::Threshold {
            tau: DEFAULT_PIVOT_TAU,
        });
        let f = LuFactorization::compute(&gpu_for(&a), &a, &opts).expect("recovers");
        assert!(f.report.repaired_diagonals > 0, "repair must fire");
        assert!(f.report.residual.expect("gate ran") <= opts.gate.threshold);
    }
}

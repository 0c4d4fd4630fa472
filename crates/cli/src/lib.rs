//! Implementation of the `gplu` command-line driver (library-shaped so the
//! command logic is unit-testable without spawning processes).

use gplu_core::{
    CheckpointOptions, GpluError, LuFactorization, LuOptions, NumericFormat, PivotPolicy,
    RunReport, SymbolicEngine, DEFAULT_PIVOT_TAU,
};
use gplu_server::{
    generate_workload, JobHandle, ServiceConfig, ServiceReport, SloSpec, SolverService,
    WorkloadParams,
};
use gplu_sim::{CostModel, DeviceFleet, FaultPlan, GpuConfig, FAULT_PLAN_ENV};
use gplu_sparse::convert::coo_to_csr;
use gplu_sparse::gen::hard::HardKind;
use gplu_sparse::gen::{circuit, mesh, planar};
use gplu_sparse::io::{read_matrix_market_file, write_matrix_market_file};
use gplu_sparse::ordering::OrderingKind;
use gplu_sparse::{Coo, Csr, SparseError};
use gplu_trace::{chrome_trace, metrics_text, Recorder, TraceSink, NOOP};
use std::collections::VecDeque;
use std::fmt;
use std::io::Write;
use std::sync::Arc;

/// CLI error type.
#[derive(Debug)]
pub enum CliError {
    /// Bad arguments (exit code 2, usage printed).
    Usage(String),
    /// Matrix/IO failure.
    Sparse(SparseError),
    /// Pipeline failure.
    Pipeline(GpluError),
    /// Output failure.
    Io(std::io::Error),
    /// A run-level acceptance check failed (e.g. `--min-hot-hit-rate`).
    Check(String),
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Usage(m) => write!(f, "{m}"),
            CliError::Sparse(e) => write!(f, "{e}"),
            CliError::Pipeline(e) => write!(f, "{e}"),
            CliError::Io(e) => write!(f, "{e}"),
            CliError::Check(m) => write!(f, "check failed: {m}"),
        }
    }
}

impl std::error::Error for CliError {}

impl From<SparseError> for CliError {
    fn from(e: SparseError) -> Self {
        CliError::Sparse(e)
    }
}
impl From<GpluError> for CliError {
    fn from(e: GpluError) -> Self {
        CliError::Pipeline(e)
    }
}
impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> Self {
        CliError::Io(e)
    }
}

/// Parsed factorize/solve options.
#[derive(Debug, Clone, Default)]
pub struct RunOptions {
    /// Pipeline options assembled from the flags.
    pub lu: LuOptions,
    /// Device memory override (bytes).
    pub mem: Option<u64>,
    /// Solve on the simulated GPU (`solve --gpu-solve`).
    pub gpu_solve: bool,
    /// One deterministic fault-injection plan per device, expanded from
    /// the `dev=K:` grammar of `--fault-plan` or `GPLU_FAULT_PLAN`; empty
    /// when neither is set.
    pub fault_plans: Vec<FaultPlan>,
    /// Write a Chrome trace-event file here (`--trace-out`).
    pub trace_out: Option<String>,
    /// Write the machine-readable run report here (`--report-json`).
    pub report_json: Option<String>,
    /// Print span histograms and counters (`--metrics`).
    pub metrics: bool,
    /// Crash-consistent checkpointing (`--checkpoint-dir`,
    /// `--checkpoint-every`, `--resume`), validated as a unit.
    pub checkpoint: Option<CheckpointOptions>,
    /// Fleet size (`--devices`); [`parse_options`] defaults it to 1.
    pub devices: usize,
}

impl RunOptions {
    /// True when any telemetry output was requested (the pipeline then
    /// runs with a live recorder instead of the no-op sink).
    pub fn wants_telemetry(&self) -> bool {
        self.trace_out.is_some() || self.report_json.is_some() || self.metrics
    }
}

/// Parsed `serve` options: the workload shape, the service knobs, and the
/// stress driver's output/check settings.
#[derive(Debug, Clone, Default)]
pub struct ServeOptions {
    /// `--stress` given (required; bare `serve` is a usage error because
    /// the service is in-process — there is no listener to run).
    pub stress: bool,
    /// Synthetic workload shape.
    pub workload: WorkloadParams,
    /// Worker pool / queue / cache knobs.
    pub service: ServiceConfig,
    /// Replaces the seeded per-job fault plans with this one.
    pub fault_plan: Option<FaultPlan>,
    /// Numeric format forced onto every generated job (`--format`).
    pub format: Option<NumericFormat>,
    /// Blocking-pass similarity threshold applied to every generated job
    /// (`--block-threshold`).
    pub block_threshold: Option<f64>,
    /// Write the service-report JSON here.
    pub service_report: Option<String>,
    /// Write the wall-clock Chrome trace here.
    pub trace_out: Option<String>,
    /// Fail the run when the hot-segment hit rate lands below this.
    pub min_hot_hit_rate: Option<f64>,
    /// Write the metrics-registry text exposition here.
    pub metrics_out: Option<String>,
    /// Evaluate this SLO spec against the sliding window; violations
    /// fail the run.
    pub slo: Option<SloSpec>,
}

/// One row of a flag table: `--help` prints it and the parser matches it.
pub struct Flag<O> {
    /// The flag, then its value placeholder unless it is a switch.
    pub usage: &'static str,
    /// One-line description, wrapped by [`write_flags`].
    pub help: &'static str,
    /// Stores the value (`""` for a switch). The error says what the flag
    /// takes; the parser prefixes the flag's name.
    pub set: fn(&mut O, &str) -> Result<(), String>,
}

impl<O> Flag<O> {
    /// The flag itself, without its value placeholder.
    pub fn name(&self) -> &'static str {
        self.usage
            .split_once(' ')
            .map_or(self.usage, |(name, _)| name)
    }
}

/// A cross-flag rule, checked once after every flag is read: parsing
/// fails with the message when the predicate holds.
pub type Rule<O> = (fn(&O) -> bool, &'static str);

/// Reads `args` against the rows of `tables`, then checks `rules`.
/// Returns the names of the flags given, in order.
pub fn parse_flags<O>(
    tables: &[&[Flag<O>]],
    rules: &[Rule<O>],
    args: &[String],
    o: &mut O,
) -> Result<Vec<&'static str>, CliError> {
    let mut given = Vec::new();
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        let flag = tables
            .iter()
            .copied()
            .flatten()
            .find(|f| f.name() == arg)
            .ok_or_else(|| CliError::Usage(format!("unknown flag '{arg}'")))?;
        let name = flag.name();
        let value = if name == flag.usage {
            ""
        } else {
            args.next()
                .ok_or_else(|| CliError::Usage(format!("{name} needs a value")))?
        };
        (flag.set)(o, value).map_err(|e| CliError::Usage(format!("{name} {e}")))?;
        given.push(name);
    }
    match rules.iter().find(|(broken, _)| broken(o)) {
        Some((_, why)) => Err(CliError::Usage(why.to_string())),
        None => Ok(given),
    }
}

/// Stores a parsed value into its option.
pub fn put<T>(slot: &mut T, value: Result<T, String>) -> Result<(), String> {
    *slot = value?;
    Ok(())
}

fn integer<T: std::str::FromStr>(v: &str) -> Result<T, String> {
    v.parse()
        .map_err(|_| format!("takes an integer, not '{v}'"))
}

/// A count of at least one.
pub fn positive_integer(v: &str) -> Result<usize, String> {
    match integer(v)? {
        0 => Err("takes a positive integer, not 0".into()),
        n => Ok(n),
    }
}

/// A size in MiB, as bytes.
fn mib(v: &str) -> Result<u64, String> {
    integer::<u64>(v)?
        .checked_mul(1 << 20)
        .ok_or_else(|| format!("takes MiB that fit in 64-bit bytes, not {v}"))
}

/// A number in `0..=1`.
pub fn fraction(v: &str) -> Result<f64, String> {
    match v.parse() {
        Ok(x) if (0.0..=1.0).contains(&x) => Ok(x),
        _ => Err(format!("takes a number in 0..1, not '{v}'")),
    }
}

fn positive(v: &str) -> Result<f64, String> {
    match v.parse::<f64>() {
        Ok(x) if x > 0.0 && x.is_finite() => Ok(x),
        _ => Err(format!("takes a positive number, not '{v}'")),
    }
}

fn fault_plan(v: &str) -> Result<Option<FaultPlan>, String> {
    FaultPlan::parse(v).map(Some)
}

/// The value `v` names in `table`.
fn pick<T: Copy>(v: &str, table: &[(&str, T)]) -> Result<T, String> {
    match table.iter().find(|(name, _)| *name == v) {
        Some(&(_, value)) => Ok(value),
        None => Err(format!("takes one of the names --help lists, not '{v}'")),
    }
}

const ORDERINGS: &[(&str, OrderingKind)] = &[
    ("amd", OrderingKind::MinDegree),
    ("rcm", OrderingKind::Rcm),
    ("natural", OrderingKind::Natural),
];
const ENGINES: &[(&str, SymbolicEngine)] = &[
    ("ooc", SymbolicEngine::Ooc),
    ("dynamic", SymbolicEngine::OocDynamic),
    ("um", SymbolicEngine::UmNoPrefetch),
    ("um-prefetch", SymbolicEngine::UmPrefetch),
];
const FORMATS: &[(&str, NumericFormat)] = &[
    ("auto", NumericFormat::Auto),
    ("dense", NumericFormat::Dense),
    ("sparse", NumericFormat::Sparse),
    ("merge", NumericFormat::SparseMerge),
    ("blocked", NumericFormat::SparseBlocked),
];
/// Each policy with the defaults `--pivot-tau` / `--static-floor` refine.
const PIVOTS: &[(&str, PivotPolicy)] = &[
    ("none", PivotPolicy::NoPivot),
    ("static", PivotPolicy::Static { threshold: 1e-8 }),
    (
        "threshold",
        PivotPolicy::Threshold {
            tau: DEFAULT_PIVOT_TAU,
        },
    ),
];

/// What the factorize/solve flags set, before [`parse_options`] resolves
/// the pivot policy, the checkpoint options and the fault plans.
#[derive(Default)]
struct RunFlags {
    opts: RunOptions,
    pivot: Option<PivotPolicy>,
    pivot_tau: Option<f64>,
    static_floor: Option<f64>,
    checkpoint_dir: Option<String>,
    checkpoint_every: Option<usize>,
    resume: bool,
    /// Expanded per device once `--devices` is known.
    fault_plan: Option<String>,
}

static RUN_FLAGS: &[Flag<RunFlags>] = &[
    Flag {
        usage: "--ordering amd|rcm|natural",
        help: "fill-reducing ordering (default amd)",
        set: |o, v| put(&mut o.opts.lu.preprocess.ordering, pick(v, ORDERINGS)),
    },
    Flag {
        usage: "--engine ooc|dynamic|um|um-prefetch",
        help: "symbolic engine (default dynamic); with --devices, the out-of-core \
               engines shard the source rows across the fleet and the unified-memory \
               ones run on device 0",
        set: |o, v| put(&mut o.opts.lu.symbolic, pick(v, ENGINES)),
    },
    Flag {
        usage: "--format auto|dense|sparse|merge|blocked",
        help: "numeric format (default auto: dense until the paper's switch criterion \
               fires, then merge-join CSC, or supernode-blocked CSC past the BLAS-3 \
               density crossover; 'sparse' forces binary-search CSC, 'blocked' the \
               supernode-blocked kernel)",
        set: |o, v| put(&mut o.opts.lu.format, pick(v, FORMATS)),
    },
    Flag {
        usage: "--block-threshold <sim>",
        help: "minimum adjacent-column pattern similarity (Jaccard, 0..1) for the \
               blocking pass to chain two columns (default 0.6)",
        set: |o, v| put(&mut o.opts.lu.block_threshold, fraction(v)),
    },
    Flag {
        usage: "--mem <MiB>",
        help: "device memory (default: out-of-core profile)",
        set: |o, v| put(&mut o.opts.mem, mib(v).map(Some)),
    },
    Flag {
        usage: "--devices <N>",
        help: "shard the heavy phases across a fleet of N simulated devices (default \
               1); the factors are bit-identical, only the simulated makespan changes. \
               Above 1, incompatible with --checkpoint-dir",
        set: |o, v| put(&mut o.opts.devices, positive_integer(v)),
    },
    Flag {
        usage: "--pivot none|static|threshold",
        help: "pivoting policy (default none): 'static' perturbs tiny pivots up to a \
               floor at division time, 'threshold' swaps rows whose pivot falls below \
               tau times the column max",
        set: |o, v| put(&mut o.pivot, pick(v, PIVOTS).map(Some)),
    },
    Flag {
        usage: "--pivot-tau <F>",
        help: "threshold-pivoting relative tolerance in 0..1 (default 0.1; implies \
               --pivot threshold when that flag is unset)",
        set: |o, v| put(&mut o.pivot_tau, positive(v).and(fraction(v)).map(Some)),
    },
    Flag {
        usage: "--static-floor <F>",
        help: "static-perturbation pivot floor (default 1e-8; requires --pivot static)",
        set: |o, v| put(&mut o.static_floor, positive(v).map(Some)),
    },
    Flag {
        usage: "--gate-threshold <F>",
        help: "reject factors whose relative residual exceeds F (default 1e-6)",
        set: |o, v| put(&mut o.opts.lu.gate.threshold, positive(v)),
    },
    Flag {
        usage: "--no-gate",
        help: "skip the residual gate (accept whatever the numeric phase produced)",
        set: |o, _| put(&mut o.opts.lu.gate.enabled, Ok(false)),
    },
    Flag {
        usage: "--escalate",
        help: "on gate failure, retry under stronger pivoting (threshold -> partial -> \
               static floor) before rejecting",
        set: |o, _| put(&mut o.opts.lu.gate.escalate, Ok(true)),
    },
    Flag {
        usage: "--repair-singular",
        help: "patch pivots that cancel to zero and retry the numeric phase once",
        set: |o, _| put(&mut o.opts.lu.preprocess.repair_singular, Ok(true)),
    },
    Flag {
        usage: "--fault-plan <spec>",
        help: "inject deterministic device faults: a comma list of \
               oom:alloc=N[:persistent], squeeze:alloc=N:KEEP%, \
               badlaunch:KERNEL=N[:persistent], crash:at=N (die at the Nth checkpoint \
               crash point) or seed:S, each optionally prefixed dev=K: to hit one \
               device. GPLU_FAULT_PLAN is read when unset",
        set: |o, v| put(&mut o.fault_plan, Ok(Some(v.into()))),
    },
    Flag {
        usage: "--checkpoint-dir <dir>",
        help: "cut crash-consistent snapshots into <dir> at every phase boundary and \
               inside the symbolic/numeric phases",
        set: |o, v| put(&mut o.checkpoint_dir, Ok(Some(v.into()))),
    },
    Flag {
        usage: "--checkpoint-every <N>",
        help: "partial-snapshot cadence in symbolic iterations / numeric levels \
               (default 8; requires --checkpoint-dir)",
        set: |o, v| put(&mut o.checkpoint_every, positive_integer(v).map(Some)),
    },
    Flag {
        usage: "--resume",
        help: "resume from the latest valid snapshot of the same matrix in \
               --checkpoint-dir",
        set: |o, _| put(&mut o.resume, Ok(true)),
    },
    Flag {
        usage: "--trace-out <path>",
        help: "write a Chrome trace-event JSON file of the run (open in Perfetto or \
               chrome://tracing)",
        set: |o, v| put(&mut o.opts.trace_out, Ok(Some(v.into()))),
    },
    Flag {
        usage: "--report-json <path>",
        help: "write the versioned machine-readable run report (phase timings, \
               per-level records, GPU counters, recovery log)",
        set: |o, v| put(&mut o.opts.report_json, Ok(Some(v.into()))),
    },
    Flag {
        usage: "--metrics",
        help: "print span histograms and counters to stdout",
        set: |o, _| put(&mut o.opts.metrics, Ok(true)),
    },
];

static SOLVE_FLAGS: &[Flag<RunFlags>] = &[Flag {
    usage: "--gpu-solve",
    help: "run the triangular solves on the simulated GPU (device 0 of a fleet)",
    set: |o, _| put(&mut o.opts.gpu_solve, Ok(true)),
}];

static RUN_RULES: &[Rule<RunFlags>] = &[
    (
        |o| o.pivot_tau.is_some() && o.pivot.is_some_and(|p| p.name() != "threshold"),
        "--pivot-tau belongs to --pivot threshold",
    ),
    (
        |o| o.static_floor.is_some() && o.pivot.is_none_or(|p| p.name() != "static"),
        "--static-floor requires --pivot static",
    ),
    (
        |o| o.opts.lu.gate.escalate && !o.opts.lu.gate.enabled,
        "--escalate needs the residual gate; drop --no-gate",
    ),
    (
        |o| o.resume && o.checkpoint_dir.is_none(),
        "--resume requires --checkpoint-dir (where should the snapshot come from?)",
    ),
    (
        |o| o.checkpoint_every.is_some() && o.checkpoint_dir.is_none(),
        "--checkpoint-every requires --checkpoint-dir",
    ),
    (
        |o| o.opts.devices > 1 && o.checkpoint_dir.is_some(),
        "--devices above 1 is incompatible with --checkpoint-dir: fleet runs are \
         cold-run only (no checkpoint/resume yet)",
    ),
];

/// Parses the flags of `factorize`, or of `solve` when `solve` is set
/// (which also takes `--gpu-solve`).
pub fn parse_options(args: &[String], solve: bool) -> Result<RunOptions, CliError> {
    let mut f = RunFlags::default();
    f.opts.devices = 1;
    let solve_flags = if solve { SOLVE_FLAGS } else { &[] };
    parse_flags(&[RUN_FLAGS, solve_flags], RUN_RULES, args, &mut f)?;
    let mut opts = f.opts;
    // The rules leave one policy per combination: a tau means threshold
    // pivoting, a floor refines `--pivot static`.
    opts.lu.pivot = match (f.pivot, f.pivot_tau) {
        (Some(PivotPolicy::Static { threshold }), _) => PivotPolicy::Static {
            threshold: f.static_floor.unwrap_or(threshold),
        },
        (_, Some(tau)) => PivotPolicy::Threshold { tau },
        (policy, None) => policy.unwrap_or(opts.lu.pivot),
    };
    opts.checkpoint = f.checkpoint_dir.map(|dir| {
        let ckpt = CheckpointOptions::new(dir).resume(f.resume);
        let every = f.checkpoint_every.unwrap_or(ckpt.every);
        ckpt.every(every)
    });
    let (source, spec) = match f.fault_plan {
        Some(spec) => ("--fault-plan", Some(spec)),
        None => (FAULT_PLAN_ENV, std::env::var(FAULT_PLAN_ENV).ok()),
    };
    if let Some(spec) = spec {
        opts.fault_plans = FaultPlan::parse_fleet(&spec, opts.devices)
            .map_err(|e| CliError::Usage(format!("{source}: {e}")))?;
    }
    Ok(opts)
}

static SERVE_FLAGS: &[Flag<ServeOptions>] = &[
    Flag {
        usage: "--stress",
        help: "required: replay a seeded workload against the in-process service \
               (there is no listener) and report what happened",
        set: |o, _| put(&mut o.stress, Ok(true)),
    },
    Flag {
        usage: "--jobs <N>",
        help: "workload size (default 500)",
        set: |o, v| put(&mut o.workload.jobs, integer(v)),
    },
    Flag {
        usage: "--workers <N>",
        help: "worker threads (default 4)",
        set: |o, v| put(&mut o.service.workers, positive_integer(v)),
    },
    Flag {
        usage: "--seed <S>",
        help: "workload seed; the whole job mix is a pure function of it (default 1)",
        set: |o, v| put(&mut o.workload.seed, integer(v)),
    },
    Flag {
        usage: "--queue-cap <N>",
        help: "admission-queue capacity; overflow is typed backpressure (default 64)",
        set: |o, v| put(&mut o.service.queue_cap, positive_integer(v)),
    },
    Flag {
        usage: "--cache-budget <MiB>",
        help: "pattern-keyed factor-cache device-tier budget (default 64)",
        set: |o, v| put(&mut o.service.cache_budget_bytes, mib(v)),
    },
    Flag {
        usage: "--host-cache-budget <MiB>",
        help: "host tier that plans evicted from the device tier demote to (default \
               64; 0 disables)",
        set: |o, v| put(&mut o.service.host_cache_budget_bytes, mib(v)),
    },
    Flag {
        usage: "--cache-dir <dir>",
        help: "persistent disk cache tier: new plans are written behind into <dir> \
               (crash-consistent, checksummed) and misses consult it before going cold",
        set: |o, v| put(&mut o.service.cache_dir, Ok(Some(v.into()))),
    },
    Flag {
        usage: "--rewarm",
        help: "repopulate the host tier from --cache-dir before accepting jobs (a warm \
               restart skips the symbolic work of every cached pattern)",
        set: |o, _| put(&mut o.service.rewarm, Ok(true)),
    },
    Flag {
        usage: "--disk-fault-plan <spec>",
        help: "inject disk-tier faults: a comma list of diskfault:read=N[:persistent] \
               or diskfault:write=N[:persistent] (needs --cache-dir)",
        set: |o, v| put(&mut o.service.disk_fault_plan, fault_plan(v)),
    },
    Flag {
        usage: "--hot-patterns <N>",
        help: "distinct hot patterns in the mix (default 3)",
        set: |o, v| put(&mut o.workload.hot_patterns, positive_integer(v)),
    },
    Flag {
        usage: "--hot-n <N>",
        help: "matrix dimension of the hot segment (default 300)",
        set: |o, v| put(&mut o.workload.hot_n, integer(v)),
    },
    Flag {
        usage: "--cold-n <N>",
        help: "matrix dimension of the cold segment (default 200)",
        set: |o, v| put(&mut o.workload.cold_n, integer(v)),
    },
    Flag {
        usage: "--fault-every <N>",
        help: "give every Nth job a seeded fault plan (default 0 = no chaos)",
        set: |o, v| put(&mut o.workload.fault_every, integer(v)),
    },
    Flag {
        usage: "--fault-plan <spec>",
        help: "give the faulted jobs this plan (factorize's grammar) instead of seeded \
               ones; implies --fault-every 7 when unset",
        set: |o, v| put(&mut o.fault_plan, fault_plan(v)),
    },
    Flag {
        usage: "--hard-fraction <F>",
        help: "fraction of jobs (0..1, default 0) drawn from the adversarial corpus: \
               ill-conditioned patterns resubmitted with drifting values",
        set: |o, v| put(&mut o.workload.hard_fraction, fraction(v)),
    },
    Flag {
        usage: "--quarantine-strikes <N>",
        help: "numeric rejections before a pattern is quarantined (default 2; 0 never)",
        set: |o, v| put(&mut o.service.quarantine_strikes, integer(v)),
    },
    Flag {
        usage: "--devices <N>",
        help: "schedule jobs across N simulated devices (default 1): a pattern goes \
               back to the device holding its plan, the rest go least-loaded",
        set: |o, v| put(&mut o.service.devices, positive_integer(v)),
    },
    Flag {
        usage: "--format auto|dense|sparse|merge|blocked",
        help: "numeric format forced onto every generated job (default auto)",
        set: |o, v| put(&mut o.format, pick(v, FORMATS).map(Some)),
    },
    Flag {
        usage: "--block-threshold <sim>",
        help: "blocking-pass similarity threshold of every job (0..1, default 0.6)",
        set: |o, v| put(&mut o.block_threshold, fraction(v).map(Some)),
    },
    Flag {
        usage: "--service-report <path>",
        help: "write the versioned service-report JSON (telemetry_check --service \
               validates it)",
        set: |o, v| put(&mut o.service_report, Ok(Some(v.into()))),
    },
    Flag {
        usage: "--trace-out <path>",
        help: "write the wall-clock Chrome trace of the run (queue depth, job spans)",
        set: |o, v| put(&mut o.trace_out, Ok(Some(v.into()))),
    },
    Flag {
        usage: "--min-hot-hit-rate <F>",
        help: "exit nonzero unless the hot-segment cache hit rate reaches F (0..1)",
        set: |o, v| put(&mut o.min_hot_hit_rate, fraction(v).map(Some)),
    },
    Flag {
        usage: "--metrics-out <path>",
        help: "write the metrics registry (per-tenant/per-tier latency histograms, \
               gauges, counters) as text",
        set: |o, v| put(&mut o.metrics_out, Ok(Some(v.into()))),
    },
    Flag {
        usage: "--slo <spec>",
        help: "exit nonzero when the sliding-window SLO fails; spec is key=value \
               ceilings sim_p50_ns, sim_p95_ns, sim_p99_ns, wall_p95_ns, a hit_rate \
               floor and window, e.g. sim_p95_ns=2.5e9,hit_rate=0.8",
        set: |o, v| put(&mut o.slo, SloSpec::parse(v).map(Some)),
    },
    Flag {
        usage: "--tenants <N>",
        help: "tenants the workload spreads jobs across (default 4)",
        set: |o, v| put(&mut o.workload.tenants, positive_integer(v)),
    },
];

static SERVE_RULES: &[Rule<ServeOptions>] = &[
    (
        |o| !o.stress,
        "serve needs --stress: the solver service is in-process (no network listener); \
         the stress driver replays a seeded workload against it",
    ),
    (
        |o| o.service.rewarm && o.service.cache_dir.is_none(),
        "--rewarm needs --cache-dir: there is no persistent tier to rewarm from",
    ),
    (
        |o| o.service.disk_fault_plan.is_some() && o.service.cache_dir.is_none(),
        "--disk-fault-plan needs --cache-dir: there is no disk tier to fault",
    ),
];

/// Parses the flags of the `serve` subcommand.
pub fn parse_serve_options(args: &[String]) -> Result<ServeOptions, CliError> {
    let mut o = ServeOptions::default();
    let given = parse_flags(&[SERVE_FLAGS], SERVE_RULES, args, &mut o)?;
    if o.fault_plan.is_some() && !given.contains(&"--fault-every") {
        o.workload.fault_every = 7;
    }
    Ok(o)
}

const COMMANDS: &str = "\
gplu — end-to-end sparse LU factorization on a simulated GPU

commands:
  info <matrix.mtx>
  factorize <matrix.mtx> [options]
  solve <matrix.mtx> [options] [--gpu-solve]
  gen <family> <n> <nnz_per_row> <out.mtx> [seed]
      families: circuit, mesh, planar (dominant); near-singular, graded,
      zero-diag, sign-alternating (adversarial; nnz_per_row ignored)
  serve --stress [serve options]
";

/// Column where help text starts, and the width it wraps at.
const HELP_COLUMN: usize = 32;
const HELP_WIDTH: usize = 78;

/// Appends `title` and one wrapped entry per row of `flags`.
pub fn write_flags<O>(out: &mut String, title: &str, flags: &[Flag<O>]) {
    write_rows(out, title, flags.iter().map(|f| (f.usage, f.help)));
}

/// Appends `title` and one entry per `(head, help)` row: the head, then
/// the help wrapped in a column of its own.
pub fn write_rows<'a>(
    out: &mut String,
    title: &str,
    rows: impl IntoIterator<Item = (&'a str, &'a str)>,
) {
    out.push_str(title);
    for (head, help) in rows {
        let mut line = format!("  {head}");
        for (i, word) in help.split_whitespace().enumerate() {
            // A head too wide for the column gets a line of its own.
            if (i == 0 && line.len() >= HELP_COLUMN) || line.len() + word.len() >= HELP_WIDTH {
                out.extend([line.as_str(), "\n"]);
                line.clear();
            }
            line = format!("{line:<w$} {word}", w = HELP_COLUMN - 1);
        }
        out.extend([line.as_str(), "\n"]);
    }
}

/// The `--help` text, printed from the flag tables the parsers match; a
/// usage error prints it too.
pub fn usage() -> String {
    let mut out = String::from(COMMANDS);
    write_flags(&mut out, "\nfactorize and solve options:\n", RUN_FLAGS);
    write_flags(&mut out, "\nsolve options:\n", SOLVE_FLAGS);
    write_flags(&mut out, "\nserve options:\n", SERVE_FLAGS);
    out
}

/// Replays the seeded workload against a fresh service, printing the
/// service summary and writing the requested artifacts.
fn run_serve(o: &ServeOptions, out: &mut dyn Write) -> Result<(), CliError> {
    let mut jobs = generate_workload(&o.workload);
    if let Some(plan) = &o.fault_plan {
        for j in jobs.iter_mut().filter(|j| j.fault.is_some()) {
            j.fault = Some(plan.clone());
        }
    }
    if let Some(format) = o.format {
        for j in &mut jobs {
            j.opts.format = format;
        }
    }
    if let Some(sim) = o.block_threshold {
        for j in &mut jobs {
            j.opts.block_threshold = sim;
        }
    }
    writeln!(
        out,
        "serve --stress: {} jobs ({} hot patterns, seed {}), {} workers, \
         queue {} slots, cache {} MiB",
        jobs.len(),
        o.workload.hot_patterns,
        o.workload.seed,
        o.service.workers,
        o.service.queue_cap,
        o.service.cache_budget_bytes >> 20,
    )?;
    if o.workload.hard_fraction > 0.0 {
        writeln!(
            out,
            "hard traffic: {:.0}% adversarial jobs, quarantine after {} strike(s)",
            o.workload.hard_fraction * 100.0,
            o.service.quarantine_strikes,
        )?;
    }
    if let Some(dir) = &o.service.cache_dir {
        writeln!(
            out,
            "disk tier: {} (host tier {} MiB{}{})",
            dir.display(),
            o.service.host_cache_budget_bytes >> 20,
            if o.service.rewarm { ", rewarm" } else { "" },
            if o.service.disk_fault_plan.is_some() {
                ", disk faults injected"
            } else {
                ""
            },
        )?;
    }
    let recorder = o.trace_out.as_ref().map(|_| Arc::new(Recorder::new()));
    let svc = match &recorder {
        Some(rec) => SolverService::start_traced(o.service.clone(), Arc::clone(rec)),
        None => SolverService::start(o.service.clone()),
    };

    let mut pending: VecDeque<JobHandle> = VecDeque::new();
    let mut failures: Vec<(u64, GpluError)> = Vec::new();
    let mut settle = |h: JobHandle| {
        let id = h.id();
        if let Err(e) = h.wait() {
            failures.push((id, e));
        }
    };
    let mut client_shed = 0u64;
    for spec in jobs {
        // At most `queue_cap` jobs outstanding, so the queue never fills:
        // the client waits on its oldest job instead of racing the
        // workers for a slot.
        if pending.len() >= o.service.queue_cap {
            if let Some(h) = pending.pop_front() {
                settle(h);
            }
        }
        match svc.submit(spec) {
            Ok(h) => pending.push_back(h),
            // Degraded-mode shedding is the service protecting itself —
            // accounted, not an error and not retried (retrying shed
            // traffic defeats the shed).
            Err(GpluError::LoadShed { .. }) => client_shed += 1,
            Err(e) => return Err(e.into()),
        }
    }
    pending.into_iter().for_each(settle);
    // Graceful drain-and-flush: every plan built by the run is durable
    // before the report is captured (no-op without --cache-dir).
    svc.drain();
    if client_shed > 0 {
        writeln!(
            out,
            "load shed: {client_shed} best-effort jobs dropped while degraded"
        )?;
    }

    let report = ServiceReport::capture_with_slo(&svc, o.slo.as_ref());
    let metrics_text = svc.metrics().map(|m| m.to_text());
    svc.shutdown();
    writeln!(out, "{}", report.summary())?;
    for (id, e) in failures.iter().take(10) {
        writeln!(out, "job {id} failed: {e}")?;
    }
    if failures.len() > 10 {
        writeln!(out, "... and {} more failed jobs", failures.len() - 10)?;
    }
    if let Some(path) = &o.service_report {
        std::fs::write(path, report.to_json().to_pretty())?;
        writeln!(out, "service report: {path}")?;
    }
    if let Some(path) = &o.metrics_out {
        match &metrics_text {
            Some(text) => {
                std::fs::write(path, text)?;
                writeln!(out, "metrics: {path}")?;
            }
            None => {
                return Err(CliError::Usage(
                    "--metrics-out needs a service with observability on".into(),
                ));
            }
        }
    }
    if let (Some(path), Some(rec)) = (&o.trace_out, &recorder) {
        let events = rec.events();
        std::fs::write(path, chrome_trace(&events))?;
        writeln!(out, "trace: {path} ({} events)", events.len())?;
    }
    if o.slo.is_some() {
        match &report.slo_eval {
            Some(slo) if !slo.pass() => {
                return Err(CliError::Check(format!(
                    "slo violated: {}",
                    slo.violations.join("; ")
                )));
            }
            Some(_) => {}
            None => {
                return Err(CliError::Usage(
                    "--slo needs a service with observability on".into(),
                ));
            }
        }
    }
    if let Some(min) = o.min_hot_hit_rate {
        let rate = report.stats.hot_hit_rate();
        if rate < min {
            return Err(CliError::Check(format!(
                "hot-pattern cache hit rate {rate:.3} below required {min:.3}"
            )));
        }
    }
    // Under fault injection a job may legitimately exhaust its recovery
    // ladder (e.g. a seeded *persistent* OOM), and under hard traffic the
    // residual gate / quarantine *should* reject jobs — those are typed
    // failures, not panics, and the run is still healthy. Without chaos,
    // any failure is a real regression.
    let chaos =
        o.workload.fault_every > 0 || o.fault_plan.is_some() || o.workload.hard_fraction > 0.0;
    if !failures.is_empty() && !chaos {
        return Err(CliError::Check(format!(
            "{} of {} jobs failed without fault injection",
            failures.len(),
            report.stats.submitted
        )));
    }
    Ok(())
}

fn load(path: &str) -> Result<Csr, CliError> {
    let a = coo_to_csr(&read_matrix_market_file(path)?);
    // The parser already rejects non-finite values; validate the built
    // structure too so corrupt files surface as typed errors, not index
    // panics further down the pipeline.
    a.validate()?;
    Ok(a)
}

/// Builds the simulated devices for a run: `--devices` of them (one by
/// default), each with its share of the fault plan.
fn fleet_for(a: &Csr, opts: &RunOptions) -> DeviceFleet<'static> {
    let cfg = match opts.mem {
        Some(bytes) => GpuConfig::v100().with_memory(bytes),
        None => GpuConfig::v100_symbolic_profile(a.n_rows(), a.nnz()),
    };
    DeviceFleet::with_fault_plans(opts.devices, cfg, CostModel::default(), &opts.fault_plans)
}

/// Runs the pipeline, recording telemetry when any of `--trace-out`,
/// `--report-json`, or `--metrics` was given, and writes the requested
/// artifacts. `--devices` above 1 takes the fleet entry point (`fleet`
/// section in the run report; checkpointing was already rejected at parse
/// time); otherwise the one device runs the classic entry points. Both run
/// the same phases.
fn compute_with_telemetry(
    fleet: &DeviceFleet<'_>,
    a: &Csr,
    opts: &RunOptions,
    out: &mut dyn Write,
) -> Result<LuFactorization, CliError> {
    let recorder = opts.wants_telemetry().then(Recorder::new);
    let trace: &dyn TraceSink = recorder.as_ref().map_or(&NOOP, |r| r);
    let f = match &opts.checkpoint {
        _ if opts.devices > 1 => LuFactorization::compute_fleet_traced(fleet, a, &opts.lu, trace)?,
        Some(ckpt) => {
            LuFactorization::compute_checkpointed(fleet.device(0), a, &opts.lu, ckpt, trace)?
        }
        None => LuFactorization::compute_traced(fleet.device(0), a, &opts.lu, trace)?,
    };
    if let Some(recorder) = recorder {
        write_telemetry_artifacts(a, &f, &recorder.into_events(), opts, out)?;
    }
    Ok(f)
}

/// Writes the `--trace-out` / `--report-json` / `--metrics` artifacts
/// for a recorded run.
fn write_telemetry_artifacts(
    a: &Csr,
    f: &LuFactorization,
    events: &[gplu_trace::TraceEvent],
    opts: &RunOptions,
    out: &mut dyn Write,
) -> Result<(), CliError> {
    if let Some(path) = &opts.trace_out {
        std::fs::write(path, chrome_trace(events))?;
        writeln!(out, "trace: {path} ({} events)", events.len())?;
    }
    if let Some(path) = &opts.report_json {
        let report = RunReport::new(a.n_rows(), a.nnz(), f.report.clone(), events);
        std::fs::write(path, report.to_json_string())?;
        writeln!(out, "report: {path}")?;
    }
    if opts.metrics {
        write!(out, "{}", metrics_text(events))?;
    }
    Ok(())
}

/// Prints injected-fault counters (summed over the devices) and the
/// recovery record after a factorization that ran under a fault plan (or
/// recovered from genuine pressure), then — for a fleet run — the fleet
/// summary line (deaths, exchange traffic, resharded work).
fn report_faults(
    out: &mut dyn Write,
    fleet: &DeviceFleet<'_>,
    f: &LuFactorization,
) -> std::io::Result<()> {
    let (mut oom, mut launch, mut squeeze) = (0, 0, 0);
    for gpu in fleet.devices() {
        let stats = gpu.stats();
        oom += stats.injected_oom;
        launch += stats.injected_launch_faults;
        squeeze += stats.injected_squeezes;
    }
    if oom + launch + squeeze > 0 {
        writeln!(
            out,
            "injected faults: {oom} oom, {launch} launch, {squeeze} squeeze"
        )?;
    }
    if !f.report.recovery.is_empty() {
        writeln!(out, "recovery: {}", f.report.recovery.summary())?;
    }
    if let Some(fr) = &f.report.fleet {
        write!(out, "fleet: {} devices", fr.devices)?;
        if !fr.dead.is_empty() {
            write!(out, " ({} died: {:?})", fr.dead.len(), fr.dead)?;
        }
        writeln!(
            out,
            ", {} exchange legs, {} bytes over interconnect ({:.3} ms)",
            fr.exchanges,
            fr.exchange_bytes,
            fr.exchange_ns / 1.0e6
        )?;
        if fr.resharded_rows + fr.resharded_cols > 0 {
            writeln!(
                out,
                "resharded onto survivors: {} symbolic rows, {} numeric columns",
                fr.resharded_rows, fr.resharded_cols
            )?;
        }
    }
    Ok(())
}

/// What `factorize` and `solve` share: build the devices, run the
/// pipeline on them, and report faults and recovery (`factorize` prints
/// the phase summary first; `solve` prints it after the solve).
fn factorize_on_devices(
    a: &Csr,
    opts: &RunOptions,
    summary_first: bool,
    out: &mut dyn Write,
) -> Result<(DeviceFleet<'static>, LuFactorization), CliError> {
    let fleet = fleet_for(a, opts);
    let f = compute_with_telemetry(&fleet, a, opts, out)?;
    if summary_first {
        writeln!(out, "{}", f.report.summary())?;
    }
    report_faults(out, &fleet, &f)?;
    Ok((fleet, f))
}

/// Runs one command against `out`.
pub fn run(args: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    match args.first().map(String::as_str) {
        Some("info") => {
            let path = args
                .get(1)
                .ok_or_else(|| CliError::Usage("info needs a path".into()))?;
            let a = load(path)?;
            writeln!(
                out,
                "{path}: {} x {}, {} nonzeros ({:.2}/row)",
                a.n_rows(),
                a.n_cols(),
                a.nnz(),
                a.density()
            )?;
            writeln!(
                out,
                "structural diagonal: {}",
                if a.has_full_diagonal() {
                    "full"
                } else {
                    "DEFICIENT (will be repaired)"
                }
            )?;
            let state = 24 * a.n_rows() as u64 * a.n_rows() as u64;
            writeln!(
                out,
                "symbolic intermediate state: {} MiB (out-of-core on devices below that)",
                state >> 20
            )?;
            Ok(())
        }
        Some("factorize") => {
            let path = args
                .get(1)
                .ok_or_else(|| CliError::Usage("factorize needs a path".into()))?;
            let opts = parse_options(&args[2..], false)?;
            let a = load(path)?;
            let (_, f) = factorize_on_devices(&a, &opts, true, out)?;
            if let Some(ckpt) = &opts.checkpoint {
                writeln!(
                    out,
                    "checkpoints: {} (cadence {})",
                    ckpt.dir.display(),
                    ckpt.every
                )?;
            }
            writeln!(
                out,
                "levels: {} (widest {}), modes A/B/C: {:?}",
                f.report.n_levels, f.report.max_level_width, f.report.mode_mix
            )?;
            let launches = &f.report.phase_stats.levelize;
            writeln!(
                out,
                "levelize: {} host launches, {} child launches, {} in-kernel waits",
                launches.kernels_host, launches.kernels_device, launches.dependency_waits
            )?;
            let launches = &f.report.phase_stats.numeric;
            writeln!(
                out,
                "numeric: {} host launches, {} child launches, {} in-kernel level waits",
                launches.kernels_host, launches.kernels_device, launches.dependency_waits
            )?;
            if let Some(m) = f.report.m_limit {
                writeln!(out, "dense format, M = {m} parallel columns")?;
            } else if f.report.probes > 0 {
                writeln!(
                    out,
                    "sorted-CSC format, {} binary-search probes",
                    f.report.probes
                )?;
            } else if f.report.gemm_tiles > 0 {
                writeln!(
                    out,
                    "sorted-CSC format, supernode-blocked access, {} gemm tiles, {} merge steps",
                    f.report.gemm_tiles, f.report.merge_steps
                )?;
            } else {
                writeln!(
                    out,
                    "sorted-CSC format, merge-join access, {} merge steps",
                    f.report.merge_steps
                )?;
            }
            writeln!(out, "total simulated time: {}", f.report.total())?;
            Ok(())
        }
        Some("solve") => {
            let path = args
                .get(1)
                .ok_or_else(|| CliError::Usage("solve needs a path".into()))?;
            let opts = parse_options(&args[2..], true)?;
            let a = load(path)?;
            let (fleet, f) = factorize_on_devices(&a, &opts, false, out)?;
            let x_true = vec![1.0; a.n_rows()];
            let b = a.spmv(&x_true);
            let x = if opts.gpu_solve {
                // On a fleet the triangular solve runs on device 0: the
                // host holds the factors whichever device shipped them.
                let plan = f.solve_plan();
                let (x, t) = f.solve_on_gpu(fleet.device(0), &plan, &b)?;
                writeln!(out, "gpu solve: {t}")?;
                x
            } else {
                f.solve(&b)?
            };
            let err = x
                .iter()
                .zip(&x_true)
                .map(|(p, q)| (p - q).abs())
                .fold(0.0f64, f64::max);
            writeln!(out, "{}", f.report.summary())?;
            writeln!(out, "solve max error vs x = 1: {err:.3e}")?;
            if f.report.repaired_diagonals > 0 {
                writeln!(
                    out,
                    "note: {} diagonals repaired; the solve targets the repaired system",
                    f.report.repaired_diagonals
                )?;
            }
            Ok(())
        }
        Some("gen") => {
            let [family, n, density, path] = [1, 2, 3, 4].map(|i| args.get(i).cloned());
            let (Some(family), Some(n), Some(density), Some(path)) = (family, n, density, path)
            else {
                return Err(CliError::Usage(
                    "gen needs <family> <n> <density> <out.mtx>".into(),
                ));
            };
            let n: usize = n
                .parse()
                .map_err(|_| CliError::Usage("n must be an integer".into()))?;
            let density: f64 = density
                .parse()
                .map_err(|_| CliError::Usage("density must be a number".into()))?;
            let seed: u64 = match args.get(5) {
                Some(seed) => seed.parse().map_err(|_| {
                    CliError::Usage(format!("seed must be an integer, not '{seed}'"))
                })?,
                None => 42,
            };
            let a = match family.as_str() {
                "circuit" => circuit::circuit(&circuit::CircuitParams {
                    n,
                    nnz_per_row: density,
                    seed,
                    ..Default::default()
                }),
                "mesh" => mesh::mesh(&mesh::MeshParams::for_target(n, density, seed)),
                "planar" => planar::planar(&planar::PlanarParams::for_target(n, density, seed)),
                // The adversarial families fix their own structure; the
                // density argument is accepted for command symmetry but
                // unused.
                "near-singular" => HardKind::NearSingular.generate(n, seed),
                "graded" => HardKind::Graded.generate(n, seed),
                "zero-diag" => HardKind::ZeroDiag.generate(n, seed),
                "sign-alternating" => HardKind::SignAlternating.generate(n, seed),
                other => return Err(CliError::Usage(format!("unknown family '{other}'"))),
            };
            let mut coo = Coo::with_capacity(a.n_rows(), a.n_cols(), a.nnz());
            for i in 0..a.n_rows() {
                for (j, v) in a.row_iter(i) {
                    coo.push(i, j, v);
                }
            }
            write_matrix_market_file(&path, &coo)?;
            writeln!(
                out,
                "wrote {path}: {} x {}, {} nonzeros",
                a.n_rows(),
                a.n_cols(),
                a.nnz()
            )?;
            Ok(())
        }
        Some("serve") => {
            let opts = parse_serve_options(&args[1..])?;
            run_serve(&opts, out)
        }
        Some("--help") | Some("-h") | None => {
            writeln!(out, "{}", usage())?;
            Ok(())
        }
        Some(other) => Err(CliError::Usage(format!("unknown command '{other}'"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_str(args: &[&str]) -> Result<String, CliError> {
        let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        let mut buf = Vec::new();
        run(&args, &mut buf)?;
        Ok(String::from_utf8(buf).expect("utf8 output"))
    }

    fn tmp(name: &str) -> String {
        let dir = std::env::temp_dir().join("gplu-cli-tests");
        std::fs::create_dir_all(&dir).expect("mkdir");
        dir.join(name).to_string_lossy().into_owned()
    }

    #[test]
    fn gen_info_factorize_solve_round_trip() {
        let path = tmp("roundtrip.mtx");
        let out = run_str(&["gen", "circuit", "400", "6", &path]).expect("gen");
        assert!(out.contains("wrote"));

        let out = run_str(&["info", &path]).expect("info");
        assert!(out.contains("400 x 400"));
        assert!(out.contains("full"));

        let out = run_str(&["factorize", &path, "--ordering", "amd"]).expect("factorize");
        assert!(out.contains("total simulated time"));

        let out = run_str(&["solve", &path, "--gpu-solve"]).expect("solve");
        assert!(out.contains("gpu solve"));
        let err: f64 = out
            .lines()
            .find(|l| l.contains("max error"))
            .and_then(|l| l.rsplit(' ').next())
            .and_then(|v| v.parse().ok())
            .expect("error line");
        assert!(err < 1e-8, "solve error {err}");
    }

    #[test]
    fn planar_gen_is_deficient_and_solvable() {
        let path = tmp("planar.mtx");
        run_str(&["gen", "planar", "900", "5", &path]).expect("gen");
        let out = run_str(&["info", &path]).expect("info");
        assert!(out.contains("DEFICIENT"));
        let out = run_str(&["solve", &path]).expect("solve despite repair");
        assert!(out.contains("diagonals repaired"));
    }

    #[test]
    fn engine_and_format_flags_parse() {
        let o = parse_options(
            &[
                "--engine",
                "um-prefetch",
                "--format",
                "sparse",
                "--mem",
                "64",
                "--gpu-solve",
            ]
            .map(String::from),
            true,
        )
        .expect("parses");
        assert_eq!(o.lu.symbolic, SymbolicEngine::UmPrefetch);
        assert_eq!(o.lu.format, NumericFormat::Sparse);
        assert_eq!(o.mem, Some(64 << 20));
        assert!(o.gpu_solve);
    }

    #[test]
    fn merge_format_flag_parses_and_reports() {
        let o = parse_options(&["--format", "merge"].map(String::from), false).expect("parses");
        assert_eq!(o.lu.format, NumericFormat::SparseMerge);

        let path = tmp("merge.mtx");
        run_str(&["gen", "circuit", "300", "5", &path]).expect("gen");
        let out = run_str(&["factorize", &path, "--format", "merge"]).expect("factorize");
        assert!(out.contains("merge-join access"), "got: {out}");
        let out = run_str(&["factorize", &path, "--format", "sparse"]).expect("factorize");
        assert!(out.contains("binary-search probes"), "got: {out}");
    }

    #[test]
    fn blocked_format_flag_parses_and_reports() {
        let o = parse_options(&["--format", "blocked"].map(String::from), false).expect("parses");
        assert_eq!(o.lu.format, NumericFormat::SparseBlocked);
        assert_eq!(o.lu.block_threshold, 0.6);

        // Planar fill is dense enough for the blocking pass to find
        // supernodes, so the forced-blocked run reports its BLAS-3 tiles.
        let path = tmp("blocked.mtx");
        run_str(&["gen", "planar", "900", "5", &path]).expect("gen");
        let out = run_str(&["factorize", &path, "--format", "blocked"]).expect("factorize");
        assert!(out.contains("supernode-blocked access"), "got: {out}");
        assert!(out.contains("gemm tiles"), "got: {out}");
    }

    #[test]
    fn block_threshold_flag_parses_and_validates() {
        let o =
            parse_options(&["--block-threshold", "0.45"].map(String::from), false).expect("parses");
        assert_eq!(o.lu.block_threshold, 0.45);
        for bad in ["1.5", "-0.1", "wat"] {
            assert!(
                matches!(
                    parse_options(&["--block-threshold".into(), bad.into()], false),
                    Err(CliError::Usage(_))
                ),
                "'{bad}' must be rejected"
            );
        }
    }

    #[test]
    fn fault_plan_flag_parses_and_reports_recovery() {
        let o = parse_options(
            &["--fault-plan", "oom:alloc=3,seed:0"].map(String::from),
            false,
        )
        .expect("parses");
        assert_eq!(o.fault_plans.len(), 1);
        assert!(matches!(
            parse_options(&["--fault-plan".into(), "oom:alloc=wat".into()], false),
            Err(CliError::Usage(_))
        ));

        let path = tmp("faulted.mtx");
        run_str(&["gen", "circuit", "300", "5", &path]).expect("gen");
        // Ordinal 3 is the symbolic state chunk: the engine backs off and
        // the run must still succeed, reporting what it did.
        let out = run_str(&[
            "factorize",
            &path,
            "--engine",
            "ooc",
            "--fault-plan",
            "oom:alloc=3",
        ])
        .expect("recovers");
        assert!(out.contains("injected faults: 1 oom"), "got: {out}");
        assert!(out.contains("recovery:"), "got: {out}");
        assert!(out.contains("chunk backoff"), "got: {out}");
    }

    #[test]
    fn devices_flag_parses_and_validates() {
        let o = parse_options(&["--devices", "4"].map(String::from), false).expect("parses");
        assert_eq!(o.devices, 4);
        assert!(o.fault_plans.is_empty());

        assert!(matches!(
            parse_options(&["--devices".into(), "0".into()], false),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            parse_options(
                &["--devices", "2", "--checkpoint-dir", "/tmp/ck"].map(String::from),
                false
            ),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn fleet_fault_plans_route_by_device_prefix() {
        // Flag order must not matter: the spec is resolved after the loop.
        for args in [
            ["--devices", "2", "--fault-plan", "dev=1:oom:alloc=1"],
            ["--fault-plan", "dev=1:oom:alloc=1", "--devices", "2"],
        ] {
            let o = parse_options(&args.map(String::from), false).expect("parses");
            assert_eq!(o.fault_plans.len(), 2);
        }
        // One device is a fleet of one: device 0 exists, device 1 does not.
        let o = parse_options(
            &["--fault-plan", "dev=0:oom:alloc=1"].map(String::from),
            false,
        )
        .expect("parses");
        assert_eq!(o.fault_plans.len(), 1);

        // Without `--devices`, only device 0 exists.
        assert!(matches!(
            parse_options(&["--fault-plan".into(), "dev=1:oom:alloc=1".into()], false),
            Err(CliError::Usage(_))
        ));
        // An out-of-range selector is caught at parse time.
        assert!(matches!(
            parse_options(
                &["--devices", "2", "--fault-plan", "dev=7:oom:alloc=1"].map(String::from),
                false
            ),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn factorize_and_solve_across_a_fleet_match_the_single_device_run() {
        let path = tmp("fleet.mtx");
        run_str(&["gen", "circuit", "400", "6", &path]).expect("gen");

        let single = run_str(&["factorize", &path]).expect("single");
        let out = run_str(&["factorize", &path, "--devices", "4"]).expect("fleet");
        assert!(out.contains("fleet: 4 devices"), "got: {out}");
        assert!(out.contains("exchange legs"), "got: {out}");
        assert!(out.contains("total simulated time"), "got: {out}");
        // Bit-identity: everything after "fill" in the summary is a
        // deterministic counter (fill nnz, probes, pivots); only the
        // timings before it may differ between fleet sizes.
        let counters_of = |s: &str| {
            s.lines()
                .find_map(|l| l.split_once("| fill "))
                .map(|(_, tail)| tail.split(" | fleet").next().unwrap().to_owned())
                .expect("summary line")
        };
        assert_eq!(counters_of(&single), counters_of(&out));

        let out = run_str(&["solve", &path, "--devices", "4", "--gpu-solve"]).expect("solve");
        assert!(out.contains("gpu solve"), "got: {out}");
        let err: f64 = out
            .lines()
            .find(|l| l.contains("max error"))
            .and_then(|l| l.rsplit(' ').next())
            .and_then(|v| v.parse().ok())
            .expect("error line");
        assert!(err < 1e-8, "solve error {err}");
    }

    #[test]
    fn fleet_device_fault_reshards_and_reports() {
        let path = tmp("fleet-fault.mtx");
        run_str(&["gen", "circuit", "400", "6", &path]).expect("gen");
        let out = run_str(&[
            "factorize",
            &path,
            "--devices",
            "4",
            "--fault-plan",
            "dev=2:oom:alloc=1",
        ])
        .expect("recovers");
        assert!(out.contains("injected faults: 1 oom"), "got: {out}");
        assert!(out.contains("recovery:"), "got: {out}");
        assert!(out.contains("died: [2]"), "got: {out}");
        assert!(out.contains("resharded onto survivors"), "got: {out}");
    }

    #[test]
    fn telemetry_flags_write_artifacts() {
        use gplu_trace::{json, JsonValue};

        let path = tmp("telemetry.mtx");
        run_str(&["gen", "circuit", "300", "5", &path]).expect("gen");
        let trace_path = tmp("telemetry-trace.json");
        let report_path = tmp("telemetry-report.json");
        let out = run_str(&[
            "factorize",
            &path,
            "--trace-out",
            &trace_path,
            "--report-json",
            &report_path,
            "--metrics",
        ])
        .expect("factorize with telemetry");
        assert!(out.contains("trace: "), "got: {out}");
        assert!(out.contains("report: "), "got: {out}");
        assert!(out.contains("spans (simulated time):"), "got: {out}");

        // Both artifacts parse; the trace has events, the report carries
        // the schema stamp and per-level records.
        let trace = json::parse(&std::fs::read_to_string(&trace_path).expect("trace file"))
            .expect("trace parses");
        let events = trace
            .get("traceEvents")
            .and_then(JsonValue::as_arr)
            .expect("traceEvents");
        assert!(!events.is_empty());

        let report = json::parse(&std::fs::read_to_string(&report_path).expect("report file"))
            .expect("report parses");
        assert_eq!(
            report.get("schema_version").and_then(JsonValue::as_u64),
            Some(2)
        );
        let levels = report
            .get("levels")
            .and_then(JsonValue::as_arr)
            .expect("levels");
        assert!(!levels.is_empty(), "per-level records must be present");
    }

    #[test]
    fn checkpoint_flags_parse_and_validate() {
        let o = parse_options(
            &["--checkpoint-dir", "/tmp/ck", "--checkpoint-every", "3"].map(String::from),
            false,
        )
        .expect("parses");
        let ckpt = o.checkpoint.expect("checkpoint options");
        assert_eq!(ckpt.dir, std::path::PathBuf::from("/tmp/ck"));
        assert_eq!(ckpt.every, 3);
        assert!(!ckpt.resume);

        let o = parse_options(
            &["--checkpoint-dir", "/tmp/ck", "--resume"].map(String::from),
            false,
        )
        .expect("parses");
        assert!(o.checkpoint.expect("checkpoint options").resume);

        // Satellite guardrails: every bad combination is a typed usage
        // error, never a panic or a silent ignore.
        for bad in [
            vec!["--resume"],
            vec!["--checkpoint-every", "4"],
            vec!["--checkpoint-dir", "/tmp/ck", "--checkpoint-every", "0"],
            vec!["--checkpoint-dir", "/tmp/ck", "--checkpoint-every", "wat"],
            vec!["--checkpoint-dir"],
        ] {
            let args: Vec<String> = bad.iter().map(|s| s.to_string()).collect();
            assert!(
                matches!(parse_options(&args, false), Err(CliError::Usage(_))),
                "expected usage error for {bad:?}"
            );
        }
    }

    #[test]
    fn crash_then_resume_from_the_command_line() {
        let path = tmp("crashy.mtx");
        run_str(&["gen", "circuit", "300", "5", &path]).expect("gen");
        let dir = tmp("crashy-ckpt");
        let _ = std::fs::remove_dir_all(&dir);

        // First run is killed at an injected crash point mid-factorization.
        let err = run_str(&[
            "factorize",
            &path,
            "--checkpoint-dir",
            &dir,
            "--checkpoint-every",
            "2",
            "--fault-plan",
            "crash:at=5",
        ])
        .unwrap_err();
        assert!(
            matches!(err, CliError::Pipeline(GpluError::Crashed { ordinal: 5 })),
            "got {err}"
        );

        // A snapshot survived the crash...
        let snapshots = std::fs::read_dir(&dir).expect("checkpoint dir").count();
        assert!(snapshots > 0, "no snapshots written before the crash");

        // ...and the rerun resumes from it and completes.
        let out = run_str(&[
            "factorize",
            &path,
            "--checkpoint-dir",
            &dir,
            "--checkpoint-every",
            "2",
            "--resume",
        ])
        .expect("resume completes");
        assert!(out.contains("total simulated time"), "got: {out}");
        assert!(out.contains("checkpoints: "), "got: {out}");

        // Resuming against a different matrix is a typed mismatch.
        let other = tmp("crashy-other.mtx");
        run_str(&["gen", "circuit", "310", "5", &other]).expect("gen");
        let err =
            run_str(&["factorize", &other, "--checkpoint-dir", &dir, "--resume"]).unwrap_err();
        assert!(
            matches!(err, CliError::Pipeline(GpluError::CheckpointMismatch(_))),
            "got {err}"
        );
    }

    #[test]
    fn repair_singular_flag_parses() {
        let o = parse_options(&["--repair-singular".to_string()], false).expect("parses");
        assert!(o.lu.preprocess.repair_singular);
    }

    #[test]
    fn pivot_and_gate_flags_parse_and_validate() {
        // Defaults: no pivoting, gate on, no escalation.
        let o = parse_options(&[], false).expect("parses");
        assert_eq!(o.lu.pivot, PivotPolicy::NoPivot);
        assert!(o.lu.gate.enabled);
        assert!(!o.lu.gate.escalate);

        let o = parse_options(&["--pivot", "threshold"].map(String::from), false).expect("parses");
        assert_eq!(
            o.lu.pivot,
            PivotPolicy::Threshold {
                tau: DEFAULT_PIVOT_TAU
            }
        );

        // A bare --pivot-tau implies threshold pivoting.
        let o = parse_options(&["--pivot-tau", "0.5"].map(String::from), false).expect("parses");
        assert_eq!(o.lu.pivot, PivotPolicy::Threshold { tau: 0.5 });

        let o = parse_options(
            &["--pivot", "static", "--static-floor", "1e-6"].map(String::from),
            false,
        )
        .expect("parses");
        assert_eq!(o.lu.pivot, PivotPolicy::Static { threshold: 1e-6 });

        let o = parse_options(
            &["--gate-threshold", "1e-9", "--escalate", "--pivot", "none"].map(String::from),
            false,
        )
        .expect("parses");
        assert_eq!(o.lu.gate.threshold, 1e-9);
        assert!(o.lu.gate.escalate);
        assert_eq!(o.lu.pivot, PivotPolicy::NoPivot);

        let o = parse_options(&["--no-gate".to_string()], false).expect("parses");
        assert!(!o.lu.gate.enabled);

        // Every conflicting or malformed combination is a typed usage
        // error, never a silently dropped knob.
        for bad in [
            vec!["--pivot", "partial"],
            vec!["--pivot"],
            vec!["--pivot-tau", "0"],
            vec!["--pivot-tau", "1.5"],
            vec!["--pivot-tau", "wat"],
            vec!["--pivot", "none", "--pivot-tau", "0.2"],
            vec!["--pivot", "static", "--pivot-tau", "0.2"],
            vec!["--pivot", "threshold", "--static-floor", "1e-8"],
            vec!["--static-floor", "1e-8"],
            vec!["--pivot-tau", "0.2", "--static-floor", "1e-8"],
            vec!["--static-floor", "-1.0", "--pivot", "static"],
            vec!["--gate-threshold", "0"],
            vec!["--gate-threshold", "wat"],
            vec!["--no-gate", "--escalate"],
        ] {
            let args: Vec<String> = bad.iter().map(|s| s.to_string()).collect();
            assert!(
                matches!(parse_options(&args, false), Err(CliError::Usage(_))),
                "expected usage error for {bad:?}"
            );
        }
    }

    #[test]
    fn hard_families_generate_and_threshold_pivoting_recovers_them() {
        let path = tmp("hard.mtx");
        run_str(&["gen", "near-singular", "200", "6", &path, "5"]).expect("gen");
        let out = run_str(&["info", &path]).expect("info");
        assert!(out.contains("200 x 200"));

        // No-pivot either passes the gate or is refused typed — and
        // threshold pivoting must turn this family into a verified run.
        match run_str(&["factorize", &path]) {
            Ok(out) => assert!(out.contains("total simulated time"), "got: {out}"),
            Err(CliError::Pipeline(
                GpluError::NumericallySingular { .. } | GpluError::SingularPivot { .. },
            )) => {}
            Err(e) => panic!("no-pivot on hard traffic must fail typed, got {e}"),
        }
        let out =
            run_str(&["factorize", &path, "--pivot", "threshold"]).expect("threshold recovers");
        assert!(out.contains("pivot swaps"), "got: {out}");

        for family in ["graded", "zero-diag", "sign-alternating"] {
            let p = tmp(&format!("hard-{family}.mtx"));
            run_str(&["gen", family, "120", "6", &p]).expect("gen");
            assert!(run_str(&["info", &p]).is_ok(), "{family} round-trips");
        }
    }

    #[test]
    fn threshold_pivoting_runs_from_the_command_line() {
        let path = tmp("pivot.mtx");
        run_str(&["gen", "circuit", "300", "5", &path]).expect("gen");
        let out = run_str(&["factorize", &path, "--pivot", "threshold"]).expect("factorize");
        assert!(out.contains("total simulated time"), "got: {out}");
        let out = run_str(&["solve", &path, "--pivot", "threshold", "--escalate"]).expect("solve");
        let err: f64 = out
            .lines()
            .find(|l| l.contains("max error"))
            .and_then(|l| l.rsplit(' ').next())
            .and_then(|v| v.parse().ok())
            .expect("error line");
        assert!(err < 1e-6, "solve error {err}");
    }

    #[test]
    fn corrupt_matrix_file_is_a_typed_error() {
        let path = tmp("nan.mtx");
        std::fs::write(
            &path,
            "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n2 2 nan\n",
        )
        .expect("write");
        let err = run_str(&["info", &path]).unwrap_err();
        assert!(
            matches!(
                err,
                CliError::Sparse(SparseError::NonFiniteValue { row: 1, col: 1 })
            ),
            "got {err}"
        );
    }

    #[test]
    fn bad_flags_are_usage_errors() {
        for bad in [
            vec!["factorize", "x.mtx", "--engine"],
            vec!["factorize", "x.mtx", "--format", "csc"],
            // `--gpu-solve` belongs to `solve`; factorize never solves.
            vec!["factorize", "x.mtx", "--gpu-solve"],
            vec!["wat"],
        ] {
            let args: Vec<String> = bad.iter().map(|s| s.to_string()).collect();
            assert!(
                matches!(run(&args, &mut Vec::new()), Err(CliError::Usage(_))),
                "expected usage error for {bad:?}"
            );
        }
    }

    #[test]
    fn mib_flags_reject_sizes_that_overflow_bytes() {
        // 2^44 MiB is 2^64 bytes: one past what a u64 holds.
        let o = parse_options(&["--mem", "17592186044415"].map(String::from), false)
            .expect("the largest size that fits parses");
        assert_eq!(o.mem, Some(17592186044415 << 20));
        for bad in [
            vec!["factorize", "x.mtx", "--mem", "17592186044416"],
            vec!["factorize", "x.mtx", "--mem", "17592186044417"],
            vec!["serve", "--stress", "--cache-budget", "17592186044416"],
            vec!["serve", "--stress", "--host-cache-budget", "17592186044416"],
        ] {
            let args: Vec<String> = bad.iter().map(|s| s.to_string()).collect();
            assert!(
                matches!(run(&args, &mut Vec::new()), Err(CliError::Usage(m)) if m.contains("MiB")),
                "expected an overflow usage error for {bad:?}"
            );
        }
    }

    #[test]
    fn gen_rejects_a_seed_that_is_not_an_integer() {
        let path = tmp("bad-seed.mtx");
        let err = run_str(&["gen", "circuit", "100", "4", &path, "wat"]).unwrap_err();
        assert!(matches!(err, CliError::Usage(_)), "got {err}");
        run_str(&["gen", "circuit", "100", "4", &path, "7"]).expect("an integer seed");
    }

    /// What a command line parses to, as `flag_pins.txt` records it: the
    /// xxh64 of the parsed options' Debug string, or "usage error".
    fn pin(args: &[String]) -> String {
        let parsed = match args[0].as_str() {
            "serve" => parse_serve_options(&args[1..]).map(|o| format!("{o:?}")),
            cmd => parse_options(&args[2..], cmd == "solve").map(|o| {
                format!(
                    "lu={:?} mem={:?} devices={} checkpoint={:?} fault_plans={:?} \
                     gpu_solve={} trace_out={:?} report_json={:?} metrics={}",
                    o.lu,
                    o.mem,
                    o.devices,
                    o.checkpoint,
                    o.fault_plans,
                    o.gpu_solve,
                    o.trace_out,
                    o.report_json,
                    o.metrics
                )
            }),
        };
        match parsed {
            Ok(debug) => format!("{:016x}", gplu_checkpoint::xxh64(debug.as_bytes(), 0)),
            Err(CliError::Usage(_)) => "usage error".into(),
            Err(e) => panic!("{args:?}: {e}"),
        }
    }

    #[test]
    fn flag_tables_parse_every_pinned_command_line_as_before() {
        let pins = include_str!("../tests/flag_pins.txt");
        let mut checked = 0;
        for line in pins.lines().filter(|l| !l.starts_with('#')) {
            let (want, cmd) = line.split_once('\t').expect("<pin>\t<command line>");
            let args: Vec<String> = cmd.split_whitespace().map(String::from).collect();
            assert_eq!(pin(&args), want, "{cmd}");
            checked += 1;
        }
        assert!(checked >= 100, "only {checked} pins");
    }

    #[test]
    fn every_flag_row_is_documented_and_parsed_from_its_table() {
        let help = usage();
        let section = |title: &str| {
            let rest = help.split(title).nth(1).expect("section title");
            rest.split("\n\n").next().unwrap().to_owned()
        };
        let run_help = section("\nfactorize and solve options:");
        let solve_help = section("\nsolve options:");
        let serve_help = section("\nserve options:");
        let parse = |cmd: &str, args: &[&str]| {
            let mut full = vec![cmd.to_string(), "x.mtx".into()];
            if cmd == "serve" {
                full.truncate(1);
            }
            full.extend(args.iter().map(|a| a.to_string()));
            run(&full, &mut Vec::new())
        };
        let tables = [
            (
                "factorize",
                &run_help,
                RUN_FLAGS.iter().map(|f| f.usage).collect::<Vec<_>>(),
            ),
            (
                "solve",
                &solve_help,
                SOLVE_FLAGS.iter().map(|f| f.usage).collect(),
            ),
            (
                "serve",
                &serve_help,
                SERVE_FLAGS.iter().map(|f| f.usage).collect(),
            ),
        ];
        for (cmd, help, rows) in tables {
            for usage in rows {
                // A row starts a line; a wide one has that line to itself.
                let row = format!("  {usage}");
                assert!(
                    help.lines()
                        .any(|l| l == row || l.starts_with(&format!("{row} "))),
                    "{usage} missing from {cmd}'s help"
                );
                let Some((name, _)) = usage.split_once(' ') else {
                    continue;
                };
                match parse(cmd, &[name]) {
                    Err(CliError::Usage(m)) if m.contains(name) => {}
                    other => panic!("{cmd} {name} without a value: {other:?}"),
                }
            }
            assert!(
                matches!(parse(cmd, &["--wat"]), Err(CliError::Usage(m)) if m.contains("--wat")),
                "{cmd} must refuse an unknown flag"
            );
        }

        // Every `gplu-cli -- <cmd> …` example in the README parses.
        let readme = include_str!("../../../README.md").replace("\\\n", " ");
        let mut examples = 0;
        for line in readme.lines() {
            let Some((_, cmd)) = line.split_once("gplu-cli -- ") else {
                continue;
            };
            let cmd = cmd.split(['#', '|', '&']).next().unwrap().replace('"', "");
            let args: Vec<String> = cmd.split_whitespace().map(String::from).collect();
            let parsed = match args[0].as_str() {
                "serve" => parse_serve_options(&args[1..]).map(drop),
                "factorize" | "solve" => parse_options(&args[2..], args[0] == "solve").map(drop),
                "gen" | "info" => Ok(()),
                other => panic!("README runs an unknown command '{other}'"),
            };
            assert!(parsed.is_ok(), "README example does not parse: {cmd}");
            examples += 1;
        }
        assert!(examples >= 15, "only {examples} README examples");
    }

    #[test]
    fn help_prints_usage() {
        let out = run_str(&["--help"]).expect("help");
        assert!(out.contains("factorize"));
        assert!(out.contains("--ordering"));
        assert!(out.contains("serve --stress"));
    }

    #[test]
    fn serve_flags_parse_with_defaults_and_overrides() {
        let o = parse_serve_options(&["--stress".to_string()]).expect("parses");
        assert_eq!(o.workload.jobs, 500);
        assert_eq!(o.service.workers, 4);
        assert!(o.fault_plan.is_none());

        let o = parse_serve_options(
            &[
                "--stress",
                "--jobs",
                "50",
                "--workers",
                "2",
                "--seed",
                "9",
                "--queue-cap",
                "16",
                "--cache-budget",
                "8",
                "--hot-patterns",
                "2",
                "--min-hot-hit-rate",
                "0.8",
            ]
            .map(String::from),
        )
        .expect("parses");
        assert_eq!(o.workload.jobs, 50);
        assert_eq!(o.workload.seed, 9);
        assert_eq!(o.service.workers, 2);
        assert_eq!(o.service.queue_cap, 16);
        assert_eq!(o.service.cache_budget_bytes, 8 << 20);
        assert_eq!(o.workload.hot_patterns, 2);
        assert_eq!(o.min_hot_hit_rate, Some(0.8));

        // A custom plan without a cadence implies one, so the chaos
        // actually reaches the workload.
        let o = parse_serve_options(&["--stress", "--fault-plan", "seed:3"].map(String::from))
            .expect("parses");
        assert!(o.fault_plan.is_some());
        assert_eq!(o.workload.fault_every, 7);

        let o = parse_serve_options(
            &[
                "--stress",
                "--format",
                "blocked",
                "--block-threshold",
                "0.7",
            ]
            .map(String::from),
        )
        .expect("parses");
        assert_eq!(o.format, Some(NumericFormat::SparseBlocked));
        assert_eq!(o.block_threshold, Some(0.7));

        let o = parse_serve_options(
            &[
                "--stress",
                "--hard-fraction",
                "0.25",
                "--quarantine-strikes",
                "3",
            ]
            .map(String::from),
        )
        .expect("parses");
        assert_eq!(o.workload.hard_fraction, 0.25);
        assert_eq!(o.service.quarantine_strikes, 3);
        for bad in [
            vec!["--stress", "--hard-fraction", "1.5"],
            vec!["--stress", "--hard-fraction", "wat"],
            vec!["--stress", "--quarantine-strikes", "wat"],
        ] {
            let args: Vec<String> = bad.iter().map(|s| s.to_string()).collect();
            assert!(
                matches!(parse_serve_options(&args), Err(CliError::Usage(_))),
                "expected usage error for {bad:?}"
            );
        }
    }

    #[test]
    fn serve_stress_with_hard_traffic_reports_the_quarantine() {
        use gplu_trace::{json, JsonValue};

        let report_path = tmp("serve-hard-report.json");
        let out = run_str(&[
            "serve",
            "--stress",
            "--jobs",
            "60",
            "--workers",
            "2",
            "--seed",
            "11",
            "--hot-n",
            "100",
            "--cold-n",
            "64",
            "--hard-fraction",
            "0.4",
            "--service-report",
            &report_path,
        ])
        .expect("hard-traffic stress run must not be a driver failure");
        assert!(out.contains("hard traffic: 40%"), "got: {out}");
        assert!(out.contains("gate failures"), "got: {out}");

        let report = json::parse(&std::fs::read_to_string(&report_path).expect("report file"))
            .expect("report parses");
        let rob = report.get("robustness").expect("robustness section");
        // Adversarial jobs either pass the gate after recovery or land as
        // typed rejections; the counters must be present either way.
        assert!(rob
            .get("gate_failures")
            .and_then(JsonValue::as_u64)
            .is_some());
        assert!(rob
            .get("quarantined_patterns")
            .and_then(JsonValue::as_u64)
            .is_some());
        let jobs = report.get("jobs").expect("jobs section");
        let completed = jobs.get("completed").and_then(JsonValue::as_u64).unwrap();
        let failed = jobs.get("failed").and_then(JsonValue::as_u64).unwrap();
        assert_eq!(completed + failed, 60, "every job resolves");
    }

    #[test]
    fn serve_without_stress_or_with_bad_flags_is_a_usage_error() {
        for bad in [
            vec!["serve"],
            vec!["serve", "--jobs", "10"],
            vec!["serve", "--stress", "--jobs", "wat"],
            vec!["serve", "--stress", "--min-hot-hit-rate", "1.5"],
            vec!["serve", "--stress", "--listen"],
            // Zero of a count that must be positive is refused, not clamped.
            vec!["serve", "--stress", "--devices", "0"],
            vec!["serve", "--stress", "--workers", "0"],
            vec!["serve", "--stress", "--queue-cap", "0"],
            vec!["serve", "--stress", "--hot-patterns", "0"],
            vec!["serve", "--stress", "--tenants", "0"],
        ] {
            let args: Vec<String> = bad.iter().map(|s| s.to_string()).collect();
            assert!(
                matches!(run(&args, &mut Vec::new()), Err(CliError::Usage(_))),
                "expected usage error for {bad:?}"
            );
        }
    }

    #[test]
    fn serve_stress_runs_reports_and_writes_artifacts() {
        use gplu_trace::{json, JsonValue};

        let report_path = tmp("serve-report.json");
        let trace_path = tmp("serve-trace.json");
        let out = run_str(&[
            "serve",
            "--stress",
            "--jobs",
            "40",
            "--workers",
            "2",
            "--seed",
            "7",
            "--hot-patterns",
            "2",
            "--hot-n",
            "120",
            "--cold-n",
            "80",
            "--fault-every",
            "9",
            "--service-report",
            &report_path,
            "--trace-out",
            &trace_path,
            "--min-hot-hit-rate",
            "0.5",
        ])
        .expect("stress run");
        assert!(out.contains("hot hit rate"), "got: {out}");
        assert!(out.contains("service report: "), "got: {out}");
        assert!(out.contains("trace: "), "got: {out}");

        let report = json::parse(&std::fs::read_to_string(&report_path).expect("report file"))
            .expect("report parses");
        assert_eq!(
            report
                .get("service_schema_version")
                .and_then(JsonValue::as_u64),
            Some(4)
        );
        for section in ["metrics", "tenants", "slo", "drift", "fleet"] {
            assert!(
                report.get(section).is_some(),
                "v2 observability section {section} missing"
            );
        }
        let cache = report.get("cache").expect("cache section");
        for tier in ["host", "disk"] {
            assert!(
                cache.get(tier).is_some(),
                "v3 cache tier section {tier} missing"
            );
        }
        let jobs = report.get("jobs").expect("jobs section");
        assert_eq!(jobs.get("submitted").and_then(JsonValue::as_u64), Some(40));
        let completed = jobs.get("completed").and_then(JsonValue::as_u64).unwrap();
        let failed = jobs.get("failed").and_then(JsonValue::as_u64).unwrap();
        assert_eq!(completed + failed, 40, "every job resolves");
        let faults = report.get("faults").expect("faults section");
        assert!(
            faults.get("injected").and_then(JsonValue::as_u64) > Some(0),
            "fault cadence 9 over 40 jobs must inject something"
        );

        let trace = json::parse(&std::fs::read_to_string(&trace_path).expect("trace file"))
            .expect("trace parses");
        let events = trace
            .get("traceEvents")
            .and_then(JsonValue::as_arr)
            .expect("traceEvents");
        assert!(!events.is_empty());
    }

    #[test]
    fn serve_stress_enforces_the_hit_rate_floor() {
        // All-cold traffic (hot fraction comes from the workload mix; with
        // one job per pattern nothing can hit) against an impossible floor.
        let err = run_str(&[
            "serve",
            "--stress",
            "--jobs",
            "6",
            "--workers",
            "1",
            "--hot-patterns",
            "6",
            "--hot-n",
            "60",
            "--cold-n",
            "50",
            "--min-hot-hit-rate",
            "1.0",
        ])
        .unwrap_err();
        assert!(
            matches!(err, CliError::Check(_)),
            "expected a check failure, got {err}"
        );
    }

    /// `serve --stress --workers 1 --jobs 200 --seed 1 --metrics-out`
    /// exposes every metric the service exposed before its counts moved
    /// into one registry, and every counter with the same value.
    #[test]
    fn metrics_out_keeps_every_name_and_count_of_the_stress_run() {
        let metrics_path = tmp("pin-metrics.txt");
        let report_path = tmp("pin-report.json");
        #[rustfmt::skip]
        let args = ["serve", "--stress", "--workers", "1", "--jobs", "200", "--seed", "1",
            "--metrics-out", &metrics_path, "--service-report", &report_path];
        run_str(&args).expect("stress run");
        let text = std::fs::read_to_string(&metrics_path).expect("metrics file");
        let exposed: Vec<(&str, &str, &str)> = text
            .lines()
            .filter(|l| !l.starts_with('#'))
            .map(|l| {
                let mut f = l.splitn(3, ' ');
                (f.next().unwrap(), f.next().expect(l), f.next().expect(l))
            })
            .collect();
        let find = |kind: &str, name: &str| {
            let hit = exposed.iter().find(|(k, n, _)| *k == kind && *n == name);
            hit.unwrap_or_else(|| panic!("{kind} {name} missing")).2
        };
        // The client never holds more jobs than the queue takes.
        let counters = [
            ("service.cancelled", "0"),
            ("service.completed", "200"),
            ("service.deadline_dropped", "0"),
            ("service.failed", "0"),
            ("service.gate_failures", "0"),
            ("service.load_shed", "0"),
            ("service.quarantine_rejects", "0"),
            ("service.recovered_jobs", "0"),
            ("service.recovery_events", "0"),
            ("service.rejected", "0"),
        ];
        for (name, value) in counters {
            assert_eq!(find("counter", name), value, "{name}");
        }
        for name in [
            "service.cache_entries",
            "service.cache_evictions",
            "service.cache_host_entries",
            "service.cache_host_used_bytes",
            "service.cache_used_bytes",
            "service.device_dead{device=0}",
            "service.device_plan_bytes{device=0}",
            "service.device_queue_depth{device=0}",
            "service.disk_tier_down",
            "service.in_flight",
            "service.queue_depth",
        ] {
            find("gauge", name);
        }
        for metric in [
            "execute_ns",
            "queue_wait_ns",
            "sim_ns",
            "solve_ns",
            "wall_ns",
        ] {
            for tenant in ["t0", "t1", "t2", "t3"] {
                find("hist", &format!("service.{metric}{{tenant={tenant}}}"));
            }
        }
        for metric in ["sim_ns", "wall_ns"] {
            for tier in ["cached_solve", "cold", "warm_disk", "warm_host", "warm"] {
                find("hist", &format!("service.{metric}{{tier={tier}}}"));
            }
        }
        assert_eq!(exposed.len(), counters.len() + 11 + 30, "no name added");
    }
}

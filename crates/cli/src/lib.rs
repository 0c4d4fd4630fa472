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
use gplu_sim::{CostModel, DeviceFleet, FaultPlan, GpuConfig};
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

/// Usage text shared by `--help` and usage errors.
pub const USAGE: &str = "\
gplu — end-to-end sparse LU factorization on a simulated GPU

commands:
  info <matrix.mtx>
  factorize <matrix.mtx> [options]
  solve <matrix.mtx> [options] [--gpu-solve]
  gen <family> <n> <nnz_per_row> <out.mtx> [seed]
      families: circuit, mesh, planar (dominant); near-singular, graded,
      zero-diag, sign-alternating (adversarial; nnz_per_row ignored)
  serve --stress [serve options]

options:
  --ordering amd|rcm|natural    fill-reducing ordering (default amd)
  --engine ooc|dynamic|um|um-prefetch
                                symbolic engine (default dynamic)
  --format auto|dense|sparse|merge|blocked
                                numeric format (default auto: dense until the
                                paper's switch criterion fires, then merge-join
                                CSC — or supernode-blocked CSC when the fill
                                density crosses the BLAS-3 crossover; 'sparse'
                                forces binary-search CSC, 'blocked' forces the
                                supernode-blocked kernel)
  --block-threshold <sim>       minimum adjacent-column pattern similarity
                                (Jaccard, 0..1) for the supernode blocking
                                pass to chain two columns (default 0.6; used
                                by --format blocked and the auto crossover)
  --mem <MiB>                   device memory (default: out-of-core profile)
  --devices <N>                 shard the heavy phases across a fleet of N
                                simulated devices (default 1). Results are
                                bit-identical to a single device; only the
                                simulated makespan changes. Fault plans may
                                target one device with a dev=K: prefix.
                                Incompatible with --checkpoint-dir (fleet
                                runs are cold-run only)
  --pivot none|static|threshold pivoting policy (default none): 'static'
                                perturbs tiny pivots up to a floor at
                                division time, 'threshold' runs the host
                                discovery pre-pass and swaps rows whose
                                pivot falls below tau times the column max
  --pivot-tau <F>               threshold-pivoting relative tolerance in
                                0..1 (default 0.1; implies --pivot
                                threshold when that flag is unset)
  --static-floor <F>            static-perturbation pivot floor (default
                                1e-8; requires --pivot static)
  --gate-threshold <F>          residual acceptance gate: reject factors
                                whose relative residual exceeds F
                                (default 1e-6)
  --no-gate                     skip the residual gate entirely (accept
                                whatever the numeric phase produced)
  --escalate                    on gate failure, retry under progressively
                                stronger pivoting (threshold -> partial ->
                                static floor) before rejecting
  --repair-singular             patch pivots that cancel to zero with the
                                repair value and retry the numeric phase once
  --fault-plan <spec>           inject deterministic device faults; spec is a
                                comma list of oom:alloc=N[:persistent],
                                squeeze:alloc=N:KEEP%, badlaunch:KERNEL=N
                                [:persistent], crash:at=N (kill the process at
                                its Nth crash point — checkpoint write
                                boundaries), or seed:S (random plan).
                                Also read from GPLU_FAULT_PLAN when unset.
  --checkpoint-dir <dir>        cut crash-consistent snapshots into <dir>: one
                                at every phase boundary plus periodic partial
                                snapshots inside the symbolic/numeric phases
  --checkpoint-every <N>        partial-snapshot cadence in completed symbolic
                                iterations / numeric levels (default 8;
                                requires --checkpoint-dir, must be >= 1)
  --resume                      resume from the latest valid snapshot in
                                --checkpoint-dir (which must belong to the
                                same matrix) instead of starting over
  --trace-out <path>            write a Chrome trace-event JSON file of the
                                run (open in Perfetto / chrome://tracing)
  --report-json <path>          write the versioned machine-readable run
                                report (phase timings, per-level records,
                                GPU counters, recovery log)
  --metrics                     print span histograms and counters to stdout

serve options (the solver service is in-process; `--stress` replays a
seeded synthetic workload against it and reports what happened):
  --jobs <N>                    workload size (default 500)
  --workers <N>                 worker threads (default 4)
  --seed <S>                    workload seed; the whole job mix is a pure
                                function of it (default 1)
  --queue-cap <N>               bounded admission-queue capacity; overflow
                                is typed backpressure (default 64)
  --cache-budget <MiB>          pattern-keyed factor-cache device-tier
                                budget (default 64)
  --host-cache-budget <MiB>     host memory tier: plans evicted from the
                                device tier demote here instead of
                                dropping (default 64; 0 disables)
  --cache-dir <dir>             persistent disk cache tier: newly built
                                plans are persisted write-behind into
                                <dir> (crash-consistent, checksummed)
                                and misses consult it before going cold
  --rewarm                      repopulate the host tier from --cache-dir
                                before accepting jobs (warm restart;
                                previously cached patterns skip all
                                symbolic work)
  --disk-fault-plan <spec>      inject deterministic disk-tier faults:
                                comma list of diskfault:read=N
                                [:persistent], diskfault:write=N
                                [:persistent] (degraded-mode chaos)
  --hot-patterns <N>            distinct hot patterns in the mix (default 3)
  --hot-n <N> / --cold-n <N>    matrix dimensions of the hot / cold
                                segments (defaults 300 / 200)
  --fault-every <N>             give every Nth job a seeded fault plan
                                (default 0 = no chaos)
  --fault-plan <spec>           use this plan (same grammar as factorize)
                                for the faulted jobs instead of seeded
                                ones; implies --fault-every 7 when unset
  --hard-fraction <F>           fraction of jobs drawn from the adversarial
                                hard corpus (ill-conditioned patterns
                                resubmitted with drifting values; 0..1,
                                default 0 = none)
  --quarantine-strikes <N>      numeric rejections on one pattern before
                                the service fast-rejects it (default 2,
                                0 disables quarantine)
  --devices <N>                 schedule jobs across a fleet of N simulated
                                devices (default 1): patterns route back to
                                the device holding their cached plan, the
                                rest go least-loaded, and the report gains
                                per-device hit rates
  --format auto|dense|sparse|merge|blocked
                                numeric format forced onto every generated
                                job (default auto)
  --block-threshold <sim>       blocking-pass similarity threshold applied
                                to every generated job (0..1, default 0.6)
  --service-report <path>       write the versioned service-report JSON
                                (validated by telemetry_check --service)
  --trace-out <path>            write the wall-clock Chrome trace of the
                                service run (queue depth, per-job spans)
  --min-hot-hit-rate <F>        exit nonzero unless the hot-segment cache
                                hit rate reaches F (0..1)
  --metrics-out <path>          write the live metrics-registry text
                                exposition (per-tenant/per-tier latency
                                histograms, gauges, counters)
  --slo <spec>                  evaluate the sliding-window SLO and exit
                                nonzero on violation; spec is key=value
                                pairs: sim_p50_ns / sim_p95_ns /
                                sim_p99_ns / wall_p95_ns ceilings,
                                hit_rate floor, window size — e.g.
                                --slo sim_p95_ns=2.5e9,hit_rate=0.8
  --tenants <N>                 tenants the workload spreads jobs across
                                (default 4)
";

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
#[derive(Debug, Clone)]
pub struct RunOptions {
    /// Pipeline options assembled from the flags.
    pub lu: LuOptions,
    /// Device memory override (bytes).
    pub mem: Option<u64>,
    /// Solve on the simulated GPU.
    pub gpu_solve: bool,
    /// Deterministic fault-injection plan (`--fault-plan` or
    /// `GPLU_FAULT_PLAN`).
    pub fault_plan: Option<FaultPlan>,
    /// Write a Chrome trace-event file here (`--trace-out`).
    pub trace_out: Option<String>,
    /// Write the machine-readable run report here (`--report-json`).
    pub report_json: Option<String>,
    /// Print span histograms and counters (`--metrics`).
    pub metrics: bool,
    /// Crash-consistent checkpointing (`--checkpoint-dir`,
    /// `--checkpoint-every`, `--resume`), validated as a unit.
    pub checkpoint: Option<CheckpointOptions>,
    /// Fleet size (`--devices`); 1 runs the classic single-device path.
    pub devices: usize,
    /// Per-device fault plans for a fleet run, expanded from the
    /// `dev=K:`-prefixed `--fault-plan` grammar (only with `--devices`
    /// above 1).
    pub fleet_fault_plans: Option<Vec<FaultPlan>>,
}

impl RunOptions {
    /// True when any telemetry output was requested (the pipeline then
    /// runs with a live recorder instead of the no-op sink).
    pub fn wants_telemetry(&self) -> bool {
        self.trace_out.is_some() || self.report_json.is_some() || self.metrics
    }
}

fn parse_block_threshold(v: String) -> Result<f64, CliError> {
    let sim: f64 = v
        .parse()
        .map_err(|_| CliError::Usage("--block-threshold takes a number in 0..1".into()))?;
    if !(0.0..=1.0).contains(&sim) {
        return Err(CliError::Usage(
            "--block-threshold takes a number in 0..1".into(),
        ));
    }
    Ok(sim)
}

/// Parses the option flags shared by `factorize` and `solve`.
pub fn parse_options(args: &[String]) -> Result<RunOptions, CliError> {
    let mut opts = RunOptions {
        lu: LuOptions {
            symbolic: SymbolicEngine::OocDynamic,
            ..Default::default()
        },
        mem: None,
        gpu_solve: false,
        fault_plan: None,
        trace_out: None,
        report_json: None,
        metrics: false,
        checkpoint: None,
        devices: 1,
        fleet_fault_plans: None,
    };
    let mut fault_spec: Option<String> = None;
    let mut ckpt_dir: Option<String> = None;
    let mut ckpt_every: Option<usize> = None;
    let mut resume = false;
    let mut pivot_kind: Option<String> = None;
    let mut pivot_tau: Option<f64> = None;
    let mut static_floor: Option<f64> = None;
    let mut no_gate = false;
    let mut escalate = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| CliError::Usage(format!("{flag} needs a value")))
        };
        match a.as_str() {
            "--ordering" => {
                opts.lu.preprocess.ordering = match value("--ordering")?.as_str() {
                    "amd" => OrderingKind::MinDegree,
                    "rcm" => OrderingKind::Rcm,
                    "natural" => OrderingKind::Natural,
                    other => return Err(CliError::Usage(format!("unknown ordering '{other}'"))),
                };
            }
            "--engine" => {
                opts.lu.symbolic = match value("--engine")?.as_str() {
                    "ooc" => SymbolicEngine::Ooc,
                    "dynamic" => SymbolicEngine::OocDynamic,
                    "um" => SymbolicEngine::UmNoPrefetch,
                    "um-prefetch" => SymbolicEngine::UmPrefetch,
                    other => return Err(CliError::Usage(format!("unknown engine '{other}'"))),
                };
            }
            "--format" => {
                opts.lu.format = match value("--format")?.as_str() {
                    "auto" => NumericFormat::Auto,
                    "dense" => NumericFormat::Dense,
                    "sparse" => NumericFormat::Sparse,
                    "merge" => NumericFormat::SparseMerge,
                    "blocked" => NumericFormat::SparseBlocked,
                    other => return Err(CliError::Usage(format!("unknown format '{other}'"))),
                };
            }
            "--block-threshold" => {
                opts.lu.block_threshold = parse_block_threshold(value("--block-threshold")?)?;
            }
            "--mem" => {
                let mib: u64 = value("--mem")?
                    .parse()
                    .map_err(|_| CliError::Usage("--mem takes MiB as an integer".into()))?;
                opts.mem = Some(mib << 20);
            }
            "--gpu-solve" => opts.gpu_solve = true,
            "--devices" => {
                let n: usize = value("--devices")?
                    .parse()
                    .map_err(|_| CliError::Usage("--devices takes a positive integer".into()))?;
                if n == 0 {
                    return Err(CliError::Usage(
                        "--devices must be at least 1 (who would run the kernels?)".into(),
                    ));
                }
                opts.devices = n;
            }
            "--pivot" => {
                let kind = value("--pivot")?;
                match kind.as_str() {
                    "none" | "static" | "threshold" => pivot_kind = Some(kind),
                    other => {
                        return Err(CliError::Usage(format!("unknown pivot policy '{other}'")))
                    }
                }
            }
            "--pivot-tau" => {
                let tau: f64 = value("--pivot-tau")?
                    .parse()
                    .map_err(|_| CliError::Usage("--pivot-tau takes a number in 0..1".into()))?;
                if !(tau > 0.0 && tau <= 1.0) {
                    return Err(CliError::Usage("--pivot-tau takes a number in 0..1".into()));
                }
                pivot_tau = Some(tau);
            }
            "--static-floor" => {
                let floor: f64 = value("--static-floor")?.parse().map_err(|_| {
                    CliError::Usage("--static-floor takes a positive number".into())
                })?;
                if !(floor > 0.0 && floor.is_finite()) {
                    return Err(CliError::Usage(
                        "--static-floor takes a positive number".into(),
                    ));
                }
                static_floor = Some(floor);
            }
            "--gate-threshold" => {
                let t: f64 = value("--gate-threshold")?.parse().map_err(|_| {
                    CliError::Usage("--gate-threshold takes a positive number".into())
                })?;
                if !(t > 0.0 && t.is_finite()) {
                    return Err(CliError::Usage(
                        "--gate-threshold takes a positive number".into(),
                    ));
                }
                opts.lu.gate.threshold = t;
            }
            "--no-gate" => no_gate = true,
            "--escalate" => escalate = true,
            "--checkpoint-dir" => ckpt_dir = Some(value("--checkpoint-dir")?),
            "--checkpoint-every" => {
                let n: usize = value("--checkpoint-every")?.parse().map_err(|_| {
                    CliError::Usage("--checkpoint-every takes a positive integer".into())
                })?;
                if n == 0 {
                    return Err(CliError::Usage(
                        "--checkpoint-every must be at least 1 (0 would never cut a snapshot)"
                            .into(),
                    ));
                }
                ckpt_every = Some(n);
            }
            "--resume" => resume = true,
            "--repair-singular" => opts.lu.preprocess.repair_singular = true,
            "--trace-out" => opts.trace_out = Some(value("--trace-out")?),
            "--report-json" => opts.report_json = Some(value("--report-json")?),
            "--metrics" => opts.metrics = true,
            // Parsed after the loop: the fleet grammar (`dev=K:` device
            // selectors) is only legal once `--devices` is known, and the
            // flags may come in either order.
            "--fault-plan" => fault_spec = Some(value("--fault-plan")?),
            other => return Err(CliError::Usage(format!("unknown flag '{other}'"))),
        }
    }
    // Pivoting flags are validated as a unit so conflicting combinations
    // are typed usage errors, never silently dropped knobs.
    opts.lu.pivot = match pivot_kind.as_deref() {
        Some("none") => {
            if pivot_tau.is_some() || static_floor.is_some() {
                return Err(CliError::Usage(
                    "--pivot none conflicts with --pivot-tau / --static-floor".into(),
                ));
            }
            PivotPolicy::NoPivot
        }
        Some("static") => {
            if pivot_tau.is_some() {
                return Err(CliError::Usage(
                    "--pivot-tau belongs to --pivot threshold, not static".into(),
                ));
            }
            PivotPolicy::Static {
                threshold: static_floor.unwrap_or(1e-8),
            }
        }
        Some("threshold") => {
            if static_floor.is_some() {
                return Err(CliError::Usage(
                    "--static-floor belongs to --pivot static, not threshold".into(),
                ));
            }
            PivotPolicy::Threshold {
                tau: pivot_tau.unwrap_or(DEFAULT_PIVOT_TAU),
            }
        }
        Some(_) => unreachable!("parser rejected unknown policies"),
        // Bare --pivot-tau implies threshold pivoting; a bare
        // --static-floor has nothing to attach to.
        None => match (pivot_tau, static_floor) {
            (Some(tau), None) => PivotPolicy::Threshold { tau },
            (None, Some(_)) => {
                return Err(CliError::Usage(
                    "--static-floor requires --pivot static".into(),
                ));
            }
            (Some(_), Some(_)) => {
                return Err(CliError::Usage(
                    "--pivot-tau conflicts with --static-floor (pick one policy)".into(),
                ));
            }
            (None, None) => opts.lu.pivot,
        },
    };
    if no_gate && escalate {
        return Err(CliError::Usage(
            "--escalate needs the residual gate; drop --no-gate".into(),
        ));
    }
    opts.lu.gate.enabled = !no_gate;
    opts.lu.gate.escalate = escalate;
    // Fault plans resolve once the fleet size is known: a fleet run
    // expands the `dev=K:` grammar into per-device plans, a single-device
    // run keeps the classic single-plan parse (where `dev=` is an error).
    match fault_spec {
        Some(spec) if opts.devices > 1 => {
            opts.fleet_fault_plans = Some(
                FaultPlan::parse_fleet(&spec, opts.devices)
                    .map_err(|e| CliError::Usage(format!("--fault-plan: {e}")))?,
            );
        }
        Some(spec) => {
            opts.fault_plan = Some(
                FaultPlan::parse(&spec)
                    .map_err(|e| CliError::Usage(format!("--fault-plan: {e}")))?,
            );
        }
        None if opts.devices > 1 => {
            if let Ok(spec) = std::env::var(gplu_sim::FAULT_PLAN_ENV) {
                if !spec.trim().is_empty() {
                    opts.fleet_fault_plans =
                        Some(FaultPlan::parse_fleet(&spec, opts.devices).map_err(|e| {
                            CliError::Usage(format!("{}: {e}", gplu_sim::FAULT_PLAN_ENV))
                        })?);
                }
            }
        }
        None => {
            opts.fault_plan = FaultPlan::from_env()
                .map_err(|e| CliError::Usage(format!("{}: {e}", gplu_sim::FAULT_PLAN_ENV)))?;
        }
    }
    opts.checkpoint = match ckpt_dir {
        Some(dir) => {
            let mut ckpt = CheckpointOptions::new(dir).resume(resume);
            if let Some(n) = ckpt_every {
                ckpt = ckpt.every(n);
            }
            Some(ckpt)
        }
        None if resume => {
            return Err(CliError::Usage(
                "--resume requires --checkpoint-dir (where should the snapshot come from?)".into(),
            ));
        }
        None if ckpt_every.is_some() => {
            return Err(CliError::Usage(
                "--checkpoint-every requires --checkpoint-dir".into(),
            ));
        }
        None => None,
    };
    if opts.devices > 1 && opts.checkpoint.is_some() {
        return Err(CliError::Usage(
            "--devices above 1 is incompatible with --checkpoint-dir: fleet runs \
             are cold-run only (no checkpoint/resume yet)"
                .into(),
        ));
    }
    Ok(opts)
}

/// Parsed `serve` options: the workload shape, the service knobs, and the
/// stress driver's output/check settings.
#[derive(Debug, Clone)]
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

/// Parses the flags of the `serve` subcommand.
pub fn parse_serve_options(args: &[String]) -> Result<ServeOptions, CliError> {
    let mut o = ServeOptions {
        stress: false,
        workload: WorkloadParams::default(),
        service: ServiceConfig::default(),
        fault_plan: None,
        format: None,
        block_threshold: None,
        service_report: None,
        trace_out: None,
        min_hot_hit_rate: None,
        metrics_out: None,
        slo: None,
    };
    let mut fault_every_set = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| CliError::Usage(format!("{flag} needs a value")))
        };
        fn int(flag: &str, v: String) -> Result<usize, CliError> {
            v.parse()
                .map_err(|_| CliError::Usage(format!("{flag} takes an integer")))
        }
        match a.as_str() {
            "--stress" => o.stress = true,
            "--jobs" => o.workload.jobs = int("--jobs", value("--jobs")?)?,
            "--workers" => o.service.workers = int("--workers", value("--workers")?)?.max(1),
            "--seed" => o.workload.seed = int("--seed", value("--seed")?)? as u64,
            "--queue-cap" => {
                o.service.queue_cap = int("--queue-cap", value("--queue-cap")?)?.max(1);
            }
            "--cache-budget" => {
                o.service.cache_budget_bytes =
                    (int("--cache-budget", value("--cache-budget")?)? as u64) << 20;
            }
            "--host-cache-budget" => {
                o.service.host_cache_budget_bytes =
                    (int("--host-cache-budget", value("--host-cache-budget")?)? as u64) << 20;
            }
            "--cache-dir" => {
                o.service.cache_dir = Some(std::path::PathBuf::from(value("--cache-dir")?));
            }
            "--rewarm" => o.service.rewarm = true,
            "--disk-fault-plan" => {
                let spec = value("--disk-fault-plan")?;
                o.service.disk_fault_plan = Some(
                    FaultPlan::parse(&spec)
                        .map_err(|e| CliError::Usage(format!("--disk-fault-plan: {e}")))?,
                );
            }
            "--hot-patterns" => {
                o.workload.hot_patterns = int("--hot-patterns", value("--hot-patterns")?)?.max(1);
            }
            "--hot-n" => o.workload.hot_n = int("--hot-n", value("--hot-n")?)?,
            "--cold-n" => o.workload.cold_n = int("--cold-n", value("--cold-n")?)?,
            "--fault-every" => {
                o.workload.fault_every = int("--fault-every", value("--fault-every")?)?;
                fault_every_set = true;
            }
            "--hard-fraction" => {
                let f: f64 = value("--hard-fraction")?.parse().map_err(|_| {
                    CliError::Usage("--hard-fraction takes a number in 0..1".into())
                })?;
                if !(0.0..=1.0).contains(&f) {
                    return Err(CliError::Usage(
                        "--hard-fraction takes a number in 0..1".into(),
                    ));
                }
                o.workload.hard_fraction = f;
            }
            "--quarantine-strikes" => {
                o.service.quarantine_strikes =
                    int("--quarantine-strikes", value("--quarantine-strikes")?)? as u32;
            }
            "--devices" => {
                o.service.devices = int("--devices", value("--devices")?)?.max(1);
            }
            "--fault-plan" => {
                let spec = value("--fault-plan")?;
                o.fault_plan = Some(
                    FaultPlan::parse(&spec)
                        .map_err(|e| CliError::Usage(format!("--fault-plan: {e}")))?,
                );
            }
            "--format" => {
                o.format = Some(match value("--format")?.as_str() {
                    "auto" => NumericFormat::Auto,
                    "dense" => NumericFormat::Dense,
                    "sparse" => NumericFormat::Sparse,
                    "merge" => NumericFormat::SparseMerge,
                    "blocked" => NumericFormat::SparseBlocked,
                    other => return Err(CliError::Usage(format!("unknown format '{other}'"))),
                });
            }
            "--block-threshold" => {
                o.block_threshold = Some(parse_block_threshold(value("--block-threshold")?)?);
            }
            "--service-report" => o.service_report = Some(value("--service-report")?),
            "--trace-out" => o.trace_out = Some(value("--trace-out")?),
            "--metrics-out" => o.metrics_out = Some(value("--metrics-out")?),
            "--slo" => {
                o.slo = Some(SloSpec::parse(&value("--slo")?).map_err(CliError::Usage)?);
            }
            "--tenants" => o.workload.tenants = int("--tenants", value("--tenants")?)?.max(1),
            "--min-hot-hit-rate" => {
                let f: f64 = value("--min-hot-hit-rate")?.parse().map_err(|_| {
                    CliError::Usage("--min-hot-hit-rate takes a number in 0..1".into())
                })?;
                if !(0.0..=1.0).contains(&f) {
                    return Err(CliError::Usage(
                        "--min-hot-hit-rate takes a number in 0..1".into(),
                    ));
                }
                o.min_hot_hit_rate = Some(f);
            }
            other => return Err(CliError::Usage(format!("unknown serve flag '{other}'"))),
        }
    }
    if !o.stress {
        return Err(CliError::Usage(
            "serve needs --stress: the solver service is in-process (no network \
             listener); the stress driver replays a seeded workload against it"
                .into(),
        ));
    }
    if o.service.rewarm && o.service.cache_dir.is_none() {
        return Err(CliError::Usage(
            "--rewarm needs --cache-dir: there is no persistent tier to rewarm from".into(),
        ));
    }
    if o.service.disk_fault_plan.is_some() && o.service.cache_dir.is_none() {
        return Err(CliError::Usage(
            "--disk-fault-plan needs --cache-dir: there is no disk tier to fault".into(),
        ));
    }
    if o.fault_plan.is_some() && !fault_every_set {
        o.workload.fault_every = 7;
    }
    Ok(o)
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
    let mut client_shed = 0u64;
    for spec in jobs {
        loop {
            // Bounded exponential backoff with deterministic jitter
            // absorbs transient queue-full spikes without the client
            // treating backpressure as terminal; only when the backoff
            // budget is exhausted does the driver reclaim a slot by
            // draining the oldest in-flight job.
            match svc.submit_with_backoff(spec.clone(), 4) {
                Ok(h) => {
                    pending.push_back(h);
                    break;
                }
                Err(GpluError::QueueFull { .. }) => match pending.pop_front() {
                    Some(h) => {
                        let id = h.id();
                        if let Err(e) = h.wait() {
                            failures.push((id, e));
                        }
                    }
                    None => std::thread::yield_now(),
                },
                Err(GpluError::LoadShed { .. }) => {
                    // Degraded-mode shedding is the service protecting
                    // itself — accounted, not an error and not retried
                    // (retrying shed traffic defeats the shed).
                    client_shed += 1;
                    break;
                }
                Err(e) => return Err(e.into()),
            }
        }
    }
    for h in pending {
        let id = h.id();
        if let Err(e) = h.wait() {
            failures.push((id, e));
        }
    }
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
    let metrics_text = svc.observability().map(|obs| obs.registry().to_text());
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
    let plans = match (&opts.fleet_fault_plans, &opts.fault_plan) {
        (Some(plans), _) => plans.as_slice(),
        (None, Some(plan)) => std::slice::from_ref(plan),
        (None, None) => &[],
    };
    DeviceFleet::with_fault_plans(opts.devices, cfg, CostModel::default(), plans)
}

/// Runs the pipeline, recording telemetry when any of `--trace-out`,
/// `--report-json`, or `--metrics` was given, and writes the requested
/// artifacts. `--devices` above 1 takes the fleet entry point (sharded
/// symbolic phase, `fleet` section in the run report; checkpointing was
/// already rejected at parse time); otherwise the one device runs the
/// classic entry points.
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
            let opts = parse_options(&args[2..])?;
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
            let opts = parse_options(&args[2..])?;
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
            let seed: u64 = args.get(5).map(|s| s.parse().unwrap_or(42)).unwrap_or(42);
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
            writeln!(out, "{USAGE}")?;
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
        )
        .expect("parses");
        assert_eq!(o.lu.symbolic, SymbolicEngine::UmPrefetch);
        assert_eq!(o.lu.format, NumericFormat::Sparse);
        assert_eq!(o.mem, Some(64 << 20));
        assert!(o.gpu_solve);
    }

    #[test]
    fn merge_format_flag_parses_and_reports() {
        let o = parse_options(&["--format", "merge"].map(String::from)).expect("parses");
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
        let o = parse_options(&["--format", "blocked"].map(String::from)).expect("parses");
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
        let o = parse_options(&["--block-threshold", "0.45"].map(String::from)).expect("parses");
        assert_eq!(o.lu.block_threshold, 0.45);
        for bad in ["1.5", "-0.1", "wat"] {
            assert!(
                matches!(
                    parse_options(&["--block-threshold".into(), bad.into()]),
                    Err(CliError::Usage(_))
                ),
                "'{bad}' must be rejected"
            );
        }
    }

    #[test]
    fn fault_plan_flag_parses_and_reports_recovery() {
        let o = parse_options(&["--fault-plan", "oom:alloc=3,seed:0"].map(String::from))
            .expect("parses");
        assert!(o.fault_plan.is_some());
        assert!(matches!(
            parse_options(&["--fault-plan".into(), "oom:alloc=wat".into()]),
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
        let o = parse_options(&["--devices", "4"].map(String::from)).expect("parses");
        assert_eq!(o.devices, 4);
        assert!(o.fleet_fault_plans.is_none());

        assert!(matches!(
            parse_options(&["--devices".into(), "0".into()]),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            parse_options(&["--devices", "2", "--checkpoint-dir", "/tmp/ck"].map(String::from)),
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
            let o = parse_options(&args.map(String::from)).expect("parses");
            let plans = o.fleet_fault_plans.expect("fleet plans");
            assert_eq!(plans.len(), 2);
            assert!(o.fault_plan.is_none());
        }

        // A device selector without a fleet is meaningless.
        assert!(matches!(
            parse_options(&["--fault-plan".into(), "dev=1:oom:alloc=1".into()]),
            Err(CliError::Usage(_))
        ));
        // An out-of-range selector is caught at parse time.
        assert!(matches!(
            parse_options(
                &["--devices", "2", "--fault-plan", "dev=7:oom:alloc=1"].map(String::from)
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
        )
        .expect("parses");
        let ckpt = o.checkpoint.expect("checkpoint options");
        assert_eq!(ckpt.dir, std::path::PathBuf::from("/tmp/ck"));
        assert_eq!(ckpt.every, 3);
        assert!(!ckpt.resume);

        let o = parse_options(&["--checkpoint-dir", "/tmp/ck", "--resume"].map(String::from))
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
                matches!(parse_options(&args), Err(CliError::Usage(_))),
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
        let o = parse_options(&["--repair-singular".to_string()]).expect("parses");
        assert!(o.lu.preprocess.repair_singular);
    }

    #[test]
    fn pivot_and_gate_flags_parse_and_validate() {
        // Defaults: no pivoting, gate on, no escalation.
        let o = parse_options(&[]).expect("parses");
        assert_eq!(o.lu.pivot, PivotPolicy::NoPivot);
        assert!(o.lu.gate.enabled);
        assert!(!o.lu.gate.escalate);

        let o = parse_options(&["--pivot", "threshold"].map(String::from)).expect("parses");
        assert_eq!(
            o.lu.pivot,
            PivotPolicy::Threshold {
                tau: DEFAULT_PIVOT_TAU
            }
        );

        // A bare --pivot-tau implies threshold pivoting.
        let o = parse_options(&["--pivot-tau", "0.5"].map(String::from)).expect("parses");
        assert_eq!(o.lu.pivot, PivotPolicy::Threshold { tau: 0.5 });

        let o = parse_options(&["--pivot", "static", "--static-floor", "1e-6"].map(String::from))
            .expect("parses");
        assert_eq!(o.lu.pivot, PivotPolicy::Static { threshold: 1e-6 });

        let o = parse_options(
            &["--gate-threshold", "1e-9", "--escalate", "--pivot", "none"].map(String::from),
        )
        .expect("parses");
        assert_eq!(o.lu.gate.threshold, 1e-9);
        assert!(o.lu.gate.escalate);
        assert_eq!(o.lu.pivot, PivotPolicy::NoPivot);

        let o = parse_options(&["--no-gate".to_string()]).expect("parses");
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
                matches!(parse_options(&args), Err(CliError::Usage(_))),
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
        assert!(matches!(
            parse_options(&["--engine".into()]),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            parse_options(&["--format".into(), "csc".into()]),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            run(&["wat".into()], &mut Vec::new()),
            Err(CliError::Usage(_))
        ));
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
}

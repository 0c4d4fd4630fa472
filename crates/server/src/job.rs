//! Job model: what clients submit and what they get back.

use gplu_core::{GpluError, LuFactorization, LuOptions};
use gplu_sim::FaultPlan;
use gplu_sparse::{Csr, Val};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};

/// What a job asks the service to do.
///
/// The kind is the *client's intent*; the service is free to serve any
/// kind from a cheaper tier when the cache allows it (a `Factorize` of an
/// already-cached pattern runs the warm path — the result is bit-identical
/// by construction, see `tests/service.rs`).
#[derive(Debug, Clone)]
pub enum JobKind {
    /// Factorize the matrix (cold or cache-served).
    Factorize,
    /// Factorize expecting a cached pattern (circuit-transient traffic).
    Refactorize,
    /// Factorize (any tier) and then solve for the given right-hand
    /// sides with the cached batched triangular-solve plan.
    Solve {
        /// Right-hand sides, each of length `n`.
        rhs: Vec<Vec<Val>>,
    },
}

impl JobKind {
    /// Static label for spans and reports.
    pub fn label(&self) -> &'static str {
        match self {
            JobKind::Factorize => "factorize",
            JobKind::Refactorize => "refactorize",
            JobKind::Solve { .. } => "solve",
        }
    }
}

/// One unit of work for the service.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// The matrix to factorize (pattern + values).
    pub matrix: Csr,
    /// What to do with it.
    pub kind: JobKind,
    /// Pipeline options (ordering, engine, format, repair).
    pub opts: LuOptions,
    /// Fault plan injected into this job's simulated GPU — the per-job
    /// chaos hook; the pipeline's recovery ladder runs inside the worker.
    pub fault: Option<FaultPlan>,
    /// Wall-clock deadline in nanoseconds from submission: a job still
    /// queued past it is dropped with [`GpluError::DeadlineExceeded`].
    pub deadline_ns: Option<u64>,
    /// Marks hot-pattern traffic; the service's cache hit rate is
    /// measured over hot jobs (cold unique patterns *cannot* hit).
    pub hot: bool,
    /// Override the simulated device-memory capacity for this job.
    pub mem_override: Option<u64>,
    /// Tenant this job is attributed to: the service keys its latency
    /// histograms and SLO breakdowns per tenant.
    pub tenant: String,
    /// Marks this job sheddable: when the service is degraded (the
    /// persistent cache tier is down) *and* under queue pressure, jobs
    /// flagged best-effort are refused at admission with
    /// [`GpluError::LoadShed`] so protected traffic keeps its capacity.
    pub best_effort: bool,
}

impl JobSpec {
    /// A job with default options, no faults, no deadline.
    pub fn new(matrix: Csr, kind: JobKind) -> Self {
        JobSpec {
            matrix,
            kind,
            opts: LuOptions::default(),
            fault: None,
            deadline_ns: None,
            hot: false,
            mem_override: None,
            tenant: String::from("default"),
            best_effort: false,
        }
    }

    /// Marks this job as hot-pattern traffic.
    pub fn hot(mut self) -> Self {
        self.hot = true;
        self
    }

    /// Attributes this job to a tenant.
    pub fn with_tenant(mut self, tenant: impl Into<String>) -> Self {
        self.tenant = tenant.into();
        self
    }

    /// Attaches a fault plan to this job's GPU.
    pub fn with_fault(mut self, plan: FaultPlan) -> Self {
        self.fault = Some(plan);
        self
    }

    /// Sets a wall-clock queueing deadline.
    pub fn with_deadline_ns(mut self, ns: u64) -> Self {
        self.deadline_ns = Some(ns);
        self
    }

    /// Marks this job sheddable under degraded-mode queue pressure.
    pub fn best_effort(mut self) -> Self {
        self.best_effort = true;
        self
    }
}

/// Which tier served the job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecTier {
    /// Full pipeline: preprocess + symbolic + levelize + numeric, plus
    /// plan construction for the cache.
    Cold,
    /// Device-tier pattern hit: value scatter + numeric kernels only.
    Warm,
    /// Pattern hit rescued from the host memory tier (the plan was
    /// demoted out of the device arena, or rewarmed at boot) and
    /// promoted back; numeric kernels still run.
    WarmHost,
    /// Pattern hit rescued from the persistent disk tier: the plan was
    /// deserialized, validated, and promoted; all symbolic work was
    /// still skipped.
    WarmDisk,
    /// Pattern *and* value hit: factors reused outright.
    CachedSolve,
}

impl ExecTier {
    /// Static label for spans and reports.
    pub fn label(&self) -> &'static str {
        match self {
            ExecTier::Cold => "cold",
            ExecTier::Warm => "warm",
            ExecTier::WarmHost => "warm_host",
            ExecTier::WarmDisk => "warm_disk",
            ExecTier::CachedSolve => "cached_solve",
        }
    }
}

/// What a completed job returns.
#[derive(Debug, Clone)]
pub struct JobResult {
    /// Service-assigned job id (submission order).
    pub id: u64,
    /// Which tier served it.
    pub tier: ExecTier,
    /// Fleet device the job ran on (0 for a single-device service).
    pub device: usize,
    /// The factors (shared with the cache on warm/cached tiers).
    pub factorization: Arc<LuFactorization>,
    /// Solutions, for [`JobKind::Solve`] jobs.
    pub solutions: Option<Vec<Vec<Val>>>,
    /// Simulated time this job spent on its GPU (factorize + solve).
    pub sim_ns: f64,
    /// Wall-clock service latency (submit → completion).
    pub wall_ns: u64,
    /// Wall time spent queued before a worker picked the job up.
    pub queue_wait_ns: u64,
    /// Wall time inside the batched triangular solve (0 for non-solve
    /// jobs); `wall_ns - queue_wait_ns - solve_wall_ns` is execution.
    pub solve_wall_ns: u64,
    /// Faults injected into this job's GPU.
    pub injected_faults: u64,
    /// Corrective actions the recovery ladder took for this job.
    pub recovery_events: usize,
}

/// Client-side handle to a submitted job.
#[derive(Debug)]
pub struct JobHandle {
    pub(crate) id: u64,
    pub(crate) rx: mpsc::Receiver<Result<JobResult, GpluError>>,
    pub(crate) cancelled: Arc<AtomicBool>,
}

impl JobHandle {
    /// The service-assigned job id.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Requests cancellation. Best-effort: a job already running
    /// completes normally; a job still queued is dropped with
    /// [`GpluError::Cancelled`].
    pub fn cancel(&self) {
        self.cancelled.store(true, Ordering::SeqCst);
    }

    /// Blocks until the job completes (or is dropped by the service).
    pub fn wait(self) -> Result<JobResult, GpluError> {
        // A dropped sender without a message means the service shut down
        // with the job still queued — surface that as a cancellation.
        self.rx.recv().unwrap_or(Err(GpluError::Cancelled))
    }
}

/// Internal queued form: the spec plus its completion channel.
pub(crate) struct QueuedJob {
    pub id: u64,
    pub spec: JobSpec,
    pub tx: mpsc::Sender<Result<JobResult, GpluError>>,
    pub cancelled: Arc<AtomicBool>,
    pub enqueued: std::time::Instant,
    /// Fleet device the job was placed on at admission (0 for a
    /// single-device service).
    pub device: usize,
}

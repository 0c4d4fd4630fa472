//! # gplu-server
//!
//! A multi-tenant, in-process solver service over the `gplu` pipeline —
//! the ROADMAP's "serving heavy traffic" north star made concrete on the
//! simulated GPU.
//!
//! Clients submit factorize / refactorize / solve jobs onto a **bounded
//! queue** ([`SolverService::submit`] returns the typed backpressure
//! error [`gplu_core::GpluError::QueueFull`] when it is full); a worker
//! pool drains the queue, one simulated GPU per job. The service's
//! leverage is the **pattern-keyed factor cache** ([`FactorCache`]): the
//! circuit-simulation traffic the paper targets factorizes the same
//! sparsity pattern thousands of times with drifting values, so the
//! pattern-only artifacts — permutations, filled pattern, level schedule,
//! pivot cache, triangular-solve plan — are computed once per pattern
//! (on the cold miss) and every later job runs only the
//! [`gplu_core::RefactorPlan`] fast path, or, when even the values match
//! a previous job, no factorization at all.
//!
//! Five execution tiers, cheapest first:
//!
//! | tier | pattern | values | work |
//! |---|---|---|---|
//! | [`ExecTier::CachedSolve`] | hit | hit | reuse factors, solve only |
//! | [`ExecTier::Warm`] | device hit | miss | value scatter + numeric kernels |
//! | [`ExecTier::WarmHost`] | host hit | miss | promote + numeric kernels |
//! | [`ExecTier::WarmDisk`] | disk hit | miss | decode + validate + numeric |
//! | [`ExecTier::Cold`] | miss | — | full pipeline + plan build |
//!
//! The cache is **tiered**: the hot set is budgeted against a device
//! byte budget and evicts least-recently-used
//! patterns into a separately budgeted host-memory tier; newly built
//! plans are also persisted write-behind into a crash-consistent
//! on-disk [`gplu_checkpoint::PlanStore`], so a restarted service
//! rewarms instead of recomputing symbolic work
//! ([`ServiceConfig::rewarm`]). Entries are `Arc`-shared, so an
//! eviction can never corrupt a job that already holds the entry, and a
//! persisted entry that fails its checksum/schema/fingerprint guards is
//! rejected with an audit trail — corruption costs time, never
//! correctness.
//!
//! With [`ServiceConfig::devices`] > 1 the service schedules jobs
//! across a small simulated **device fleet** ([`FleetScheduler`]):
//! placement is cache-locality-first (a pattern routes back to the
//! device that built its plan) with a least-loaded fallback, per-device
//! hit rates feed the service report's `fleet` section, and a dead
//! device re-homes its patterns onto survivors while degradation-aware
//! admission sheds best-effort traffic under queue pressure.
//!
//! Everything composes with the existing subsystems rather than
//! bypassing them: per-job fault plans run the PR-2 recovery ladder
//! inside the worker, service-level spans/counters flow through
//! `gplu-trace`, and [`ServiceReport`] emits the `RunReport`-style JSON
//! that `telemetry_check --service` validates.

pub mod cache;
pub mod fleet;
pub mod job;
pub mod observe;
pub mod report;
pub mod service;
pub mod workload;

pub use cache::{CacheCounters, CacheTier, CachedFactor, FactorCache, DISK_FAILURE_LIMIT};
pub use fleet::{DeviceLoadSnapshot, FleetScheduler};
pub use job::{ExecTier, JobHandle, JobKind, JobResult, JobSpec};
pub use observe::{
    JobObservation, ServiceObs, SloEval, SloSpec, DEFAULT_SLO_WINDOW, SLO_SCHEMA_VERSION,
};
pub use report::{check_service_report, percentile, ServiceReport, SERVICE_SCHEMA_VERSION};
pub use service::{ServiceConfig, SolverService, StatsSnapshot};
pub use workload::{generate_workload, WorkloadParams};

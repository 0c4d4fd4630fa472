//! The solver service: bounded admission queue, worker pool, tiered
//! execution against the factor cache.

use crate::cache::{CacheCounters, CacheTier, CachedFactor, FactorCache};
use crate::fleet::{DeviceLoadSnapshot, FleetScheduler};
use crate::job::{ExecTier, JobHandle, JobKind, JobResult, JobSpec, QueuedJob};
use crate::observe::{JobObservation, ServiceObs, DEFAULT_SLO_WINDOW, DRIFT_SAMPLE_EVERY};
use gplu_checkpoint::{DiskFaultHook, PlanStore};
use gplu_core::{matrix_fingerprint, pattern_fingerprint, GpluError, LuFactorization};
use gplu_numeric::TriSolvePlan;
use gplu_sim::{CostModel, DiskOp, FaultInjector, FaultPlan, Gpu, GpuConfig};
use gplu_trace::{Counter, MetricsRegistry, Recorder, TraceSink, NOOP};
use std::collections::{HashMap, VecDeque};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread;
use std::time::{Duration, Instant};

/// Service knobs.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Worker threads draining the queue.
    pub workers: usize,
    /// Bounded queue capacity; submissions past it are rejected with
    /// [`GpluError::QueueFull`].
    pub queue_cap: usize,
    /// Factor-cache budget in bytes (see [`FactorCache`]).
    pub cache_budget_bytes: u64,
    /// Numeric rejections (failed residual gate, unrepaired singular
    /// pivot, stale pivot order) a pattern may accumulate before the
    /// service quarantines it and fast-rejects further jobs on it with
    /// [`GpluError::Quarantined`]. 0 disables quarantine.
    pub quarantine_strikes: u32,
    /// Live observability: the [`ServiceObs`] layer (per-tenant and
    /// per-tier latency histograms, SLO window, drift profiler) and the
    /// exposed metrics registry ([`SolverService::metrics`]). Off, the
    /// service still counts every event ([`SolverService::stats`]) but
    /// records no histogram and exposes no registry. On by default; the
    /// `service_slo` bench turns it off to measure the layer's overhead
    /// against a bare service.
    pub observability: bool,
    /// Completed jobs the sliding SLO window holds.
    pub slo_window: usize,
    /// Drift-profiler sampling period: one in this many pipeline calls
    /// runs with the profiler as a live trace sink (which makes that
    /// call emit its full span stream). 1 profiles every call, 0
    /// disables drift profiling. The default keeps the observability
    /// layer under the `service_slo` bench's 2% wall-overhead budget.
    pub drift_sample_every: u64,
    /// Host-memory cache tier budget in bytes: plans evicted from the
    /// device arena demote here instead of dropping. 0 disables the
    /// tier (demoted entries drop, as before the tiering).
    pub host_cache_budget_bytes: u64,
    /// Directory for the persistent disk cache tier. `None` (the
    /// default) runs memory-only. When set, newly built plans are
    /// persisted write-behind and misses consult the store before
    /// falling back cold. An unopenable directory degrades to
    /// memory-only rather than failing startup.
    pub cache_dir: Option<PathBuf>,
    /// Repopulate the host tier from `cache_dir` before the workers
    /// start (crash-consistent warm restart). No-op without `cache_dir`.
    pub rewarm: bool,
    /// Fault plan driven through the disk tier's I/O hooks
    /// (`diskfault:read=N` / `diskfault:write=N` grammar) — the chaos
    /// knob for degraded-mode tests. Independent of per-job GPU faults.
    pub disk_fault_plan: Option<FaultPlan>,
    /// Simulated devices behind the admission queue (clamped to at
    /// least 1). With more than one, every accepted job is placed on a
    /// device by the [`FleetScheduler`]: patterns route back to the
    /// device that built their plan, unknown patterns go least-loaded,
    /// and a dead device's patterns re-home onto survivors.
    pub devices: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            workers: 4,
            queue_cap: 64,
            cache_budget_bytes: 64 << 20,
            quarantine_strikes: 2,
            observability: true,
            slo_window: DEFAULT_SLO_WINDOW,
            drift_sample_every: DRIFT_SAMPLE_EVERY,
            host_cache_budget_bytes: 64 << 20,
            cache_dir: None,
            rewarm: false,
            disk_fault_plan: None,
            devices: 1,
        }
    }
}

/// Adapts the simulator's [`FaultInjector`] (which owns the
/// `diskfault:` grammar and ordinal accounting) onto the checkpoint
/// crate's [`DiskFaultHook`] so one fault plan drives both layers.
struct InjectorHook(Arc<FaultInjector>);

impl DiskFaultHook for InjectorHook {
    fn on_disk_read(&self) -> bool {
        self.0.on_disk_op(DiskOp::Read)
    }

    fn on_disk_write(&self) -> bool {
        self.0.on_disk_op(DiskOp::Write)
    }
}

/// Wall-clock source producing strictly increasing f64 nanosecond stamps
/// across threads, so the service-level trace stays a valid (sortable)
/// Chrome timeline no matter how workers interleave.
#[derive(Debug)]
struct WallClock {
    origin: Instant,
    last: Mutex<f64>,
}

impl WallClock {
    fn new() -> Self {
        WallClock {
            origin: Instant::now(),
            last: Mutex::new(0.0),
        }
    }

    fn now(&self) -> f64 {
        let t = self.origin.elapsed().as_nanos() as f64;
        let mut last = self.last.lock().unwrap();
        let v = if t > *last { t } else { *last + 1.0 };
        *last = v;
        v
    }
}

/// The service's counts, read with [`SolverService::stats`]. The
/// outcomes the metrics registry exposes are handles into it, so each
/// event is counted once, at one site, whether or not observability is
/// on.
#[derive(Debug, Default)]
struct ServiceStats {
    submitted: Counter,
    rejected: Arc<Counter>,
    completed: Arc<Counter>,
    failed: Arc<Counter>,
    cancelled: Arc<Counter>,
    deadline_dropped: Arc<Counter>,
    cold: Counter,
    warm: Counter,
    warm_host: Counter,
    warm_disk: Counter,
    cached_solve: Counter,
    load_shed: Arc<Counter>,
    hot_jobs: Counter,
    hot_hits: Counter,
    plans_built: Counter,
    injected_faults: Counter,
    jobs_recovered: Arc<Counter>,
    gate_failures: Arc<Counter>,
    quarantine_rejected: Arc<Counter>,
    max_depth: AtomicU64,
    // Completed-job latencies for the percentile report.
    sim_ns: Mutex<Vec<f64>>,
    wall_ns: Mutex<Vec<f64>>,
}

impl ServiceStats {
    fn new(metrics: &MetricsRegistry) -> ServiceStats {
        let exposed = |name: &str| metrics.counter(&format!("service.{name}"));
        ServiceStats {
            rejected: exposed("rejected"),
            completed: exposed("completed"),
            failed: exposed("failed"),
            cancelled: exposed("cancelled"),
            deadline_dropped: exposed("deadline_dropped"),
            load_shed: exposed("load_shed"),
            jobs_recovered: exposed("recovered_jobs"),
            gate_failures: exposed("gate_failures"),
            quarantine_rejected: exposed("quarantine_rejects"),
            ..ServiceStats::default()
        }
    }
}

/// Point-in-time view of the service counters.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StatsSnapshot {
    /// Jobs accepted onto the queue.
    pub submitted: u64,
    /// Submissions refused with queue-full backpressure.
    pub rejected: u64,
    /// Jobs that returned a result.
    pub completed: u64,
    /// Jobs that returned a typed error (after recovery exhausted).
    pub failed: u64,
    /// Jobs cancelled before a worker started them.
    pub cancelled: u64,
    /// Jobs dropped because their deadline passed while queued.
    pub deadline_dropped: u64,
    /// Jobs served cold / warm / from cached factors.
    pub cold: u64,
    /// Pattern hit, value miss: refactorization fast path.
    pub warm: u64,
    /// Pattern hit rescued from the host memory tier (demoted or
    /// rewarmed plans promoted back on use).
    pub warm_host: u64,
    /// Pattern hit rescued from the persistent disk tier.
    pub warm_disk: u64,
    /// Pattern and value hit: factors reused outright.
    pub cached_solve: u64,
    /// Best-effort jobs refused at admission while the service was
    /// degraded and under queue pressure.
    pub load_shed: u64,
    /// Jobs flagged as hot-pattern traffic.
    pub hot_jobs: u64,
    /// Hot jobs served warm or from cached factors.
    pub hot_hits: u64,
    /// RefactorPlan + TriSolvePlan constructions (== cold misses that
    /// built pattern artifacts; the regression bound for "a plan is built
    /// exactly once per cached pattern").
    pub plans_built: u64,
    /// Faults injected across all job GPUs.
    pub injected_faults: u64,
    /// Jobs whose recovery ladder recorded at least one action.
    pub jobs_recovered: u64,
    /// Jobs rejected by numeric acceptance (residual gate, unrepaired
    /// singular pivot, stale pivot order) — each one a strike against
    /// its pattern.
    pub gate_failures: u64,
    /// Jobs fast-rejected because their pattern was quarantined.
    pub quarantine_rejected: u64,
    /// Patterns currently at or past the quarantine strike limit.
    pub quarantined_patterns: u64,
    /// Deepest the queue ever got.
    pub max_depth: u64,
    /// Per-job simulated latencies (ns), completion order.
    pub sim_ns: Vec<f64>,
    /// Per-job wall latencies (ns), completion order.
    pub wall_ns: Vec<f64>,
    /// Per-device placement state, in device order (one entry for a
    /// single-device service).
    pub devices: Vec<DeviceLoadSnapshot>,
}

impl StatsSnapshot {
    /// Cache hit rate over the hot-pattern segment (1.0 when no hot jobs).
    pub fn hot_hit_rate(&self) -> f64 {
        if self.hot_jobs == 0 {
            1.0
        } else {
            self.hot_hits as f64 / self.hot_jobs as f64
        }
    }
}

struct Shared {
    queue: Mutex<VecDeque<QueuedJob>>,
    cv: Condvar,
    shutdown: AtomicBool,
    /// Jobs currently executing in workers (drain-and-flush watches
    /// this reach zero alongside an empty queue).
    in_flight: AtomicU64,
    cap: usize,
    cache: FactorCache,
    /// The one metrics registry: the counters of `stats` always, the
    /// observability layer's histograms when it is on, and the gauges
    /// [`SolverService::metrics`] sets when it exposes the registry.
    metrics: Arc<MetricsRegistry>,
    stats: ServiceStats,
    clock: WallClock,
    trace: Option<Arc<Recorder>>,
    /// Numeric-rejection strikes per pattern fingerprint; a pattern at or
    /// past `strike_limit` is quarantined.
    strikes: Mutex<HashMap<u64, u32>>,
    strike_limit: u32,
    /// Device-fleet placement: locality-first routing plus per-device
    /// load/hit accounting (trivial for a single-device service).
    fleet: FleetScheduler,
    /// Latency histograms, SLO window and drift profiler, when
    /// observability is on.
    obs: Option<Arc<ServiceObs>>,
}

impl Shared {
    fn sink(&self) -> &dyn TraceSink {
        match &self.trace {
            Some(r) => r.as_ref(),
            None => &NOOP,
        }
    }

    /// The trace sink for the next pipeline call: the drift profiler on
    /// sampled calls ([`ServiceConfig::drift_sample_every`]), the no-op
    /// sink otherwise. The service recorder keeps wall time either way;
    /// sampled calls' `drift.sample` instants feed the cost-model table.
    fn drift_sink(&self) -> &dyn TraceSink {
        match &self.obs {
            Some(o) => o.drift_sink(),
            None => &NOOP,
        }
    }
}

/// The in-process solver service. Dropping it shuts the pool down
/// (pending jobs are dropped as cancelled).
pub struct SolverService {
    shared: Arc<Shared>,
    workers: Vec<thread::JoinHandle<()>>,
    next_id: AtomicU64,
}

impl SolverService {
    /// Starts the worker pool with no service-level tracing.
    pub fn start(cfg: ServiceConfig) -> Self {
        Self::start_inner(cfg, None)
    }

    /// Starts the worker pool with service-level spans and counters
    /// recorded into `rec` (wall-clock timeline: one `service.job` span
    /// per job, `service.queue_depth` counter samples, `service.reject`
    /// instants).
    pub fn start_traced(cfg: ServiceConfig, rec: Arc<Recorder>) -> Self {
        Self::start_inner(cfg, Some(rec))
    }

    fn start_inner(cfg: ServiceConfig, trace: Option<Arc<Recorder>>) -> Self {
        let store = cfg.cache_dir.as_ref().and_then(|dir| {
            // An unopenable cache dir degrades to memory-only: the
            // service must come up, and the report's `disk.enabled`
            // field makes the degradation visible.
            PlanStore::open(dir)
                .ok()
                .map(|s| match &cfg.disk_fault_plan {
                    Some(plan) => {
                        let inj = Arc::new(FaultInjector::new(plan.clone()));
                        s.with_faults(Arc::new(InjectorHook(inj)))
                    }
                    None => s,
                })
        });
        let cache =
            FactorCache::with_tiers(cfg.cache_budget_bytes, cfg.host_cache_budget_bytes, store);
        if cfg.rewarm {
            // Before any worker exists: every plan the store yields is
            // host-resident by the time the first job can miss, so a
            // previously-hot pattern never recomputes symbolic work.
            cache.rewarm();
        }
        let metrics = Arc::new(MetricsRegistry::new());
        let shared = Arc::new(Shared {
            queue: Mutex::new(VecDeque::new()),
            cv: Condvar::new(),
            shutdown: AtomicBool::new(false),
            in_flight: AtomicU64::new(0),
            cap: cfg.queue_cap.max(1),
            cache,
            stats: ServiceStats::new(&metrics),
            clock: WallClock::new(),
            trace,
            strikes: Mutex::new(HashMap::new()),
            strike_limit: cfg.quarantine_strikes,
            fleet: FleetScheduler::new(cfg.devices),
            obs: cfg.observability.then(|| {
                Arc::new(ServiceObs::new(
                    Arc::clone(&metrics),
                    cfg.slo_window,
                    cfg.drift_sample_every,
                ))
            }),
            metrics,
        });
        let workers = (0..cfg.workers.max(1))
            .map(|_| {
                let sh = Arc::clone(&shared);
                thread::spawn(move || worker_loop(&sh))
            })
            .collect();
        SolverService {
            shared,
            workers,
            next_id: AtomicU64::new(0),
        }
    }

    /// Submits a job. Returns [`GpluError::QueueFull`] when the bounded
    /// queue is at capacity — the backpressure signal; the caller decides
    /// whether to retry, shed, or wait on an outstanding handle.
    pub fn submit(&self, spec: JobSpec) -> Result<JobHandle, GpluError> {
        let sh = &self.shared;
        let mut q = sh.queue.lock().unwrap();
        if q.len() >= sh.cap {
            sh.stats.rejected.inc();
            drop(q);
            let sink = sh.sink();
            if sink.enabled() {
                sink.instant("service.reject", "service", sh.clock.now(), &[]);
            }
            return Err(GpluError::QueueFull {
                depth: sh.cap,
                cap: sh.cap,
            });
        }
        // Degradation-aware admission: while the disk tier is down the
        // service has lost its rescue path (every cache miss past the
        // memory tiers is a full cold factorization), and while a fleet
        // device is dead the survivors absorb its share of the load —
        // either way, under queue pressure best-effort traffic is shed
        // to keep protected tenants' latency. The threshold is half the
        // queue: shedding only begins when backpressure is already
        // building.
        if spec.best_effort
            && q.len() * 2 >= sh.cap
            && (sh.cache.disk_down() || sh.fleet.degraded())
        {
            let depth = q.len();
            sh.stats.load_shed.inc();
            drop(q);
            let sink = sh.sink();
            if sink.enabled() {
                sink.instant("service.load_shed", "service", sh.clock.now(), &[]);
            }
            return Err(GpluError::LoadShed {
                tenant: spec.tenant,
                depth,
            });
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let (tx, rx) = mpsc::channel();
        let cancelled = Arc::new(AtomicBool::new(false));
        if spec.hot {
            sh.stats.hot_jobs.inc();
        }
        // Placement at admission: the device is decided while the
        // pattern's home (if any) is current, and the per-device
        // logical queue depth feeds back into later placements.
        let device = sh.fleet.place(pattern_fingerprint(&spec.matrix));
        q.push_back(QueuedJob {
            id,
            spec,
            tx,
            cancelled: Arc::clone(&cancelled),
            enqueued: Instant::now(),
            device,
        });
        let depth = q.len() as u64;
        sh.stats.submitted.inc();
        sh.stats.max_depth.fetch_max(depth, Ordering::Relaxed);
        drop(q);
        sh.cv.notify_one();
        sh.sink().counter(
            "service.queue_depth",
            "service",
            sh.clock.now(),
            depth as f64,
        );
        Ok(JobHandle { id, rx, cancelled })
    }

    /// Jobs waiting right now.
    pub fn queue_depth(&self) -> usize {
        self.shared.queue.lock().unwrap().len()
    }

    /// The factor cache (for inspection and tests).
    pub fn cache(&self) -> &FactorCache {
        &self.shared.cache
    }

    /// The device-fleet scheduler (placement inspection and tests).
    pub fn fleet(&self) -> &FleetScheduler {
        &self.shared.fleet
    }

    /// Marks a fleet device dead: it drops out of placement, its homed
    /// patterns re-home onto survivors, and the fleet reports itself
    /// degraded to the admission path. Returns false for an
    /// out-of-range ordinal or the last live device.
    pub fn mark_device_dead(&self, device: usize) -> bool {
        self.shared.fleet.mark_dead(device)
    }

    /// Counter snapshot.
    pub fn stats(&self) -> StatsSnapshot {
        let s = &self.shared.stats;
        StatsSnapshot {
            submitted: s.submitted.get(),
            rejected: s.rejected.get(),
            completed: s.completed.get(),
            failed: s.failed.get(),
            cancelled: s.cancelled.get(),
            deadline_dropped: s.deadline_dropped.get(),
            cold: s.cold.get(),
            warm: s.warm.get(),
            warm_host: s.warm_host.get(),
            warm_disk: s.warm_disk.get(),
            cached_solve: s.cached_solve.get(),
            load_shed: s.load_shed.get(),
            hot_jobs: s.hot_jobs.get(),
            hot_hits: s.hot_hits.get(),
            plans_built: s.plans_built.get(),
            injected_faults: s.injected_faults.get(),
            jobs_recovered: s.jobs_recovered.get(),
            gate_failures: s.gate_failures.get(),
            quarantine_rejected: s.quarantine_rejected.get(),
            quarantined_patterns: if self.shared.strike_limit == 0 {
                0
            } else {
                self.shared
                    .strikes
                    .lock()
                    .unwrap()
                    .values()
                    .filter(|&&s| s >= self.shared.strike_limit)
                    .count() as u64
            },
            max_depth: s.max_depth.load(Ordering::Relaxed),
            sim_ns: s.sim_ns.lock().unwrap().clone(),
            wall_ns: s.wall_ns.lock().unwrap().clone(),
            devices: self.shared.fleet.snapshot(),
        }
    }

    /// Cache counter snapshot.
    pub fn cache_counters(&self) -> CacheCounters {
        self.shared.cache.counters()
    }

    /// Queue capacity.
    pub fn queue_cap(&self) -> usize {
        self.shared.cap
    }

    /// Cache budget in bytes.
    pub fn cache_budget(&self) -> u64 {
        self.shared.cache.capacity()
    }

    /// The live observability bundle, when the service runs with
    /// [`ServiceConfig::observability`] on.
    pub fn observability(&self) -> Option<&Arc<ServiceObs>> {
        self.shared.obs.as_ref()
    }

    /// The metrics registry as exposed, or `None` when
    /// [`ServiceConfig::observability`] is off. Its counters are the
    /// service's own counts; every gauge is set here, from the state its
    /// owner holds now: the queue, the workers, the cache tiers and the
    /// fleet scheduler.
    pub fn metrics(&self) -> Option<&MetricsRegistry> {
        self.shared.obs.as_ref()?;
        let sh = &self.shared;
        let gauge = |name: &str, v: u64| sh.metrics.gauge(name).set(v as i64);
        gauge("service.queue_depth", self.queue_depth() as u64);
        gauge("service.in_flight", sh.in_flight.load(Ordering::SeqCst));
        gauge("service.cache_entries", sh.cache.len() as u64);
        gauge("service.cache_used_bytes", sh.cache.used_bytes());
        gauge("service.cache_evictions", sh.cache.counters().evictions);
        gauge("service.cache_host_entries", sh.cache.host_len() as u64);
        gauge("service.cache_host_used_bytes", sh.cache.host_used_bytes());
        gauge("service.disk_tier_down", u64::from(sh.cache.disk_down()));
        for d in sh.fleet.snapshot() {
            let device = |metric: &str, v: u64| {
                gauge(&format!("service.{metric}{{device={}}}", d.device), v);
            };
            device("device_queue_depth", d.queued);
            device("device_plan_bytes", d.plan_bytes);
            device("device_dead", u64::from(d.dead));
        }
        Some(&sh.metrics)
    }

    /// Blocks until the queue is empty and every worker is idle, then
    /// flushes the cache's write-behind queue to disk. The graceful
    /// half of drain-and-flush shutdown: after `drain()` returns, every
    /// plan built so far is durable (unless the disk tier is down, in
    /// which case flushing is skipped and `false` is returned).
    pub fn drain(&self) -> bool {
        loop {
            // Both checks under the queue lock: workers register
            // in-flight before releasing it, so this can't observe a
            // popped-but-uncounted job.
            let q = self.shared.queue.lock().unwrap();
            let idle = q.is_empty() && self.shared.in_flight.load(Ordering::SeqCst) == 0;
            drop(q);
            if idle {
                break;
            }
            thread::sleep(Duration::from_millis(1));
        }
        self.shared.cache.flush()
    }

    /// Stops accepting progress and joins the workers. Jobs still queued
    /// are dropped; their handles resolve to [`GpluError::Cancelled`].
    /// Pending write-behind persistence is flushed (graceful shutdown);
    /// call [`FactorCache::simulate_crash`] on [`SolverService::cache`]
    /// first to model an unclean exit instead.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.cv.notify_all();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        // Dropping the queued jobs drops their senders; waiting handles
        // observe the hangup as Cancelled.
        self.shared.queue.lock().unwrap().clear();
        // A no-op without a disk tier; skipped (false) when it is down.
        self.shared.cache.flush();
    }
}

impl Drop for SolverService {
    fn drop(&mut self) {
        if !self.workers.is_empty() {
            self.shutdown_inner();
        }
    }
}

fn worker_loop(sh: &Shared) {
    loop {
        let job = {
            let mut q = sh.queue.lock().unwrap();
            loop {
                if let Some(j) = q.pop_front() {
                    // Counted under the queue lock so drain() never sees
                    // "empty queue, zero in flight" while a popped job
                    // is still in a worker's hand.
                    sh.in_flight.fetch_add(1, Ordering::SeqCst);
                    break j;
                }
                if sh.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                q = sh.cv.wait(q).unwrap();
            }
        };
        let sink = sh.sink();
        if sink.enabled() {
            let depth = sh.queue.lock().unwrap().len() as f64;
            sink.counter("service.queue_depth", "service", sh.clock.now(), depth);
        }
        process(sh, job);
        sh.in_flight.fetch_sub(1, Ordering::SeqCst);
    }
}

fn process(sh: &Shared, job: QueuedJob) {
    let start = sh.clock.now();
    if job.cancelled.load(Ordering::SeqCst) {
        sh.stats.cancelled.inc();
        sh.fleet.finish(job.device, job.spec.hot, false);
        let _ = job.tx.send(Err(GpluError::Cancelled));
        return;
    }
    let waited_ns = job.enqueued.elapsed().as_nanos() as u64;
    if let Some(deadline_ns) = job.spec.deadline_ns {
        if waited_ns > deadline_ns {
            sh.stats.deadline_dropped.inc();
            sh.fleet.finish(job.device, job.spec.hot, false);
            let _ = job.tx.send(Err(GpluError::DeadlineExceeded {
                waited_ns,
                deadline_ns,
            }));
            return;
        }
    }

    let outcome = execute(sh, &job);

    let end = sh.clock.now();
    let sink = sh.sink();
    if sink.enabled() {
        // Span pairs are emitted at completion so concurrent workers
        // never interleave half-open spans; timestamps still cover the
        // real execution window (chrome export sorts by ts). The job's
        // queued interval rides along as an explicit `queue_wait`
        // sub-span (its begin stamp is reconstructed, so it can tie an
        // existing stamp — chrome sorting doesn't mind).
        let tier = match &outcome {
            Ok(r) => r.tier.label(),
            Err(_) => "error",
        };
        let queued_at = (start - waited_ns as f64).max(0.0);
        sink.span_begin(
            "service.queue_wait",
            "service",
            queued_at,
            &[("job", job.id.into())],
        );
        sink.span_end(
            "service.queue_wait",
            "service",
            start,
            &[("job", job.id.into())],
        );
        sink.span_begin(
            "service.job",
            "service",
            start,
            &[
                ("job", job.id.into()),
                ("kind", job.spec.kind.label().into()),
                ("hot", job.spec.hot.into()),
                ("device", (job.device as u64).into()),
            ],
        );
        sink.span_end(
            "service.job",
            "service",
            end,
            &[("job", job.id.into()), ("tier", tier.into())],
        );
        sink.span_begin(
            "service.execute",
            "service",
            start,
            &[("job", job.id.into())],
        );
        sink.span_end(
            "service.execute",
            "service",
            end,
            &[("job", job.id.into()), ("tier", tier.into())],
        );
    }

    match outcome {
        Ok(mut r) => {
            r.wall_ns = job.enqueued.elapsed().as_nanos() as u64;
            r.queue_wait_ns = waited_ns;
            sh.fleet
                .finish(job.device, job.spec.hot, r.tier != ExecTier::Cold);
            match r.tier {
                ExecTier::Cold => &sh.stats.cold,
                ExecTier::Warm => &sh.stats.warm,
                ExecTier::WarmHost => &sh.stats.warm_host,
                ExecTier::WarmDisk => &sh.stats.warm_disk,
                ExecTier::CachedSolve => &sh.stats.cached_solve,
            }
            .inc();
            if job.spec.hot && r.tier != ExecTier::Cold {
                sh.stats.hot_hits.inc();
            }
            if r.recovery_events > 0 {
                sh.stats.jobs_recovered.inc();
            }
            sh.stats.completed.inc();
            sh.stats.sim_ns.lock().unwrap().push(r.sim_ns);
            sh.stats.wall_ns.lock().unwrap().push(r.wall_ns as f64);
            if let Some(o) = &sh.obs {
                o.record_job(&JobObservation {
                    tenant: &job.spec.tenant,
                    tier: r.tier,
                    queue_wait_ns: waited_ns,
                    execute_ns: ((end - start) as u64).saturating_sub(r.solve_wall_ns),
                    solve_ns: r.solve_wall_ns,
                    wall_ns: r.wall_ns,
                    sim_ns: r.sim_ns,
                    hot: job.spec.hot,
                    recovery_events: r.recovery_events,
                });
            }
            let _ = job.tx.send(Ok(r));
        }
        Err(e) => {
            sh.stats.failed.inc();
            sh.fleet.finish(job.device, job.spec.hot, false);
            let _ = job.tx.send(Err(e));
        }
    }
}

/// Runs the job on a fresh simulated GPU through the cheapest available
/// tier. All pipeline-level tracing goes to a per-job sink (the service
/// recorder keeps wall-clock time; mixing the two timebases would
/// corrupt the timeline).
fn execute(sh: &Shared, job: &QueuedJob) -> Result<JobResult, GpluError> {
    let spec = &job.spec;
    let a = &spec.matrix;
    let fp = pattern_fingerprint(a);

    // Quarantine fast path: a pattern that keeps failing numeric
    // acceptance is rejected before any GPU work is scheduled for it.
    if sh.strike_limit > 0 {
        let strikes = *sh.strikes.lock().unwrap().get(&fp).unwrap_or(&0);
        if strikes >= sh.strike_limit {
            sh.stats.quarantine_rejected.inc();
            let sink = sh.sink();
            if sink.enabled() {
                sink.instant(
                    "service.quarantine_reject",
                    "service",
                    sh.clock.now(),
                    &[("strikes", (strikes as u64).into())],
                );
            }
            return Err(GpluError::Quarantined {
                pattern_fp: fp,
                strikes,
            });
        }
    }

    let mut cfg = GpuConfig::v100_symbolic_profile(a.n_rows(), a.nnz());
    if let Some(mem) = spec.mem_override {
        cfg = cfg.with_memory(mem);
    }
    let gpu = match &spec.fault {
        Some(plan) => Gpu::with_fault_plan(cfg, CostModel::default(), plan.clone()),
        None => Gpu::new(cfg),
    };

    let value_fp = matrix_fingerprint(a);
    let outcome = execute_tiers(sh, job, &gpu, fp, value_fp);
    // Chaos accounting holds whether or not the job survived its faults:
    // an unrecoverable injection still shows up in the service report.
    sh.stats.injected_faults.add(gpu.stats().injected_faults());

    // Numeric rejections are strikes against the pattern: the cached
    // plan (if any) is suspect for this traffic and is evicted, and a
    // pattern at the strike limit is quarantined outright.
    if sh.strike_limit > 0 {
        if let Err(
            GpluError::NumericallySingular { .. }
            | GpluError::SingularPivot { .. }
            | GpluError::StalePivotOrder { .. },
        ) = &outcome
        {
            sh.stats.gate_failures.inc();
            sh.cache.remove(fp);
            *sh.strikes.lock().unwrap().entry(fp).or_insert(0) += 1;
        }
    }
    outcome
}

fn execute_tiers(
    sh: &Shared,
    job: &QueuedJob,
    gpu: &Gpu,
    fp: u64,
    value_fp: u64,
) -> Result<JobResult, GpluError> {
    let spec = &job.spec;
    let a = &spec.matrix;
    let (tier, entry, factors) = match sh.cache.lookup_tiered(fp) {
        Some((entry, src)) => match entry.latest_for(value_fp) {
            // A value hit is CachedSolve regardless of which tier the
            // entry was rescued from (a demoted entry keeps its latest
            // factors; disk rescues never have them).
            Some(f) => (ExecTier::CachedSolve, Some(entry), f),
            None => {
                let f = Arc::new(entry.plan.refactorize_traced(gpu, a, sh.drift_sink())?);
                entry.store_latest(value_fp, Arc::clone(&f));
                let tier = match src {
                    CacheTier::Device => ExecTier::Warm,
                    CacheTier::Host => ExecTier::WarmHost,
                    CacheTier::Disk => ExecTier::WarmDisk,
                };
                (tier, Some(entry), f)
            }
        },
        None => {
            let f = Arc::new(LuFactorization::compute_traced(
                gpu,
                a,
                &spec.opts,
                sh.drift_sink(),
            )?);
            // Build the pattern artifacts once and publish them. A plan
            // build can only fail on inconsistent inputs — in that case
            // the job still succeeds, it just stays uncacheable.
            let entry = f.refactor_plan(a, &spec.opts).ok().map(|plan| {
                sh.stats.plans_built.inc();
                let cached = CachedFactor::new(plan, TriSolvePlan::new(&f.lu));
                cached.store_latest(value_fp, Arc::clone(&f));
                // The plan now lives where this job ran: charge the
                // home device's occupancy gauge so locality routing has
                // something to point at.
                sh.fleet.charge_plan(job.device, cached.approx_bytes());
                sh.cache.insert(fp, cached)
            });
            (ExecTier::Cold, entry, f)
        }
    };

    let mut sim_ns = match tier {
        // Factorization work this job actually ran on its GPU.
        ExecTier::Cold | ExecTier::Warm | ExecTier::WarmHost | ExecTier::WarmDisk => {
            factors.report.total().as_ns()
        }
        ExecTier::CachedSolve => 0.0,
    };
    let mut solve_wall_ns = 0u64;
    let solutions = match &spec.kind {
        JobKind::Solve { rhs } => {
            let plan_storage;
            let plan = match &entry {
                Some(e) => &e.solve,
                None => {
                    plan_storage = TriSolvePlan::new(&factors.lu);
                    &plan_storage
                }
            };
            // The solve sub-span gets its own wall window so per-tenant
            // histograms can split solve time out of execution time.
            let track = sh.sink().enabled() || sh.obs.is_some();
            let t0 = track.then(|| sh.clock.now());
            let (xs, t) = factors.solve_many_on_gpu_traced(gpu, plan, rhs, sh.drift_sink())?;
            sim_ns += t.as_ns();
            if let Some(t0) = t0 {
                let t1 = sh.clock.now();
                solve_wall_ns = (t1 - t0) as u64;
                let sink = sh.sink();
                if sink.enabled() {
                    sink.span_begin("service.solve", "service", t0, &[("job", job.id.into())]);
                    sink.span_end("service.solve", "service", t1, &[("job", job.id.into())]);
                }
            }
            Some(xs)
        }
        _ => None,
    };

    Ok(JobResult {
        id: job.id,
        tier,
        device: job.device,
        injected_faults: gpu.stats().injected_faults(),
        recovery_events: factors.report.recovery.events().len(),
        factorization: factors,
        solutions,
        sim_ns,
        wall_ns: 0,       // filled by the caller with the submit→done window
        queue_wait_ns: 0, // filled by the caller
        solve_wall_ns,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobKind;
    use gplu_sparse::gen::random::random_dominant;

    #[test]
    fn factorize_then_refactorize_then_cached() {
        let svc = SolverService::start(ServiceConfig {
            workers: 1,
            ..Default::default()
        });
        let a = random_dominant(80, 4.0, 50);
        let r1 = svc
            .submit(JobSpec::new(a.clone(), JobKind::Factorize))
            .unwrap()
            .wait()
            .unwrap();
        assert_eq!(r1.tier, ExecTier::Cold);
        let mut a2 = a.clone();
        a2.vals.iter_mut().for_each(|v| *v *= 1.25);
        let r2 = svc
            .submit(JobSpec::new(a2.clone(), JobKind::Refactorize))
            .unwrap()
            .wait()
            .unwrap();
        assert_eq!(r2.tier, ExecTier::Warm);
        let r3 = svc
            .submit(JobSpec::new(a2, JobKind::Refactorize))
            .unwrap()
            .wait()
            .unwrap();
        assert_eq!(r3.tier, ExecTier::CachedSolve);
        let stats = svc.stats();
        assert_eq!(stats.plans_built, 1, "one pattern, one plan build");
        assert_eq!((stats.cold, stats.warm, stats.cached_solve), (1, 1, 1));
        svc.shutdown();
    }

    #[test]
    fn solve_jobs_return_solutions() {
        let svc = SolverService::start(ServiceConfig {
            workers: 2,
            ..Default::default()
        });
        let a = random_dominant(60, 4.0, 51);
        let x_true = vec![1.0; 60];
        let b = a.spmv(&x_true);
        let r = svc
            .submit(JobSpec::new(
                a.clone(),
                JobKind::Solve {
                    rhs: vec![b.clone(), b.clone()],
                },
            ))
            .unwrap()
            .wait()
            .unwrap();
        let xs = r.solutions.expect("solutions");
        assert_eq!(xs.len(), 2);
        assert!(gplu_sparse::verify::check_solution(&a, &xs[0], &b, 1e-8));
        assert!(r.sim_ns > 0.0);
        svc.shutdown();
    }

    #[test]
    fn queue_full_is_typed_backpressure() {
        // No workers can drain fast enough to matter: capacity 1, and the
        // first job occupies the only worker long enough for the probe.
        let svc = SolverService::start(ServiceConfig {
            workers: 1,
            queue_cap: 1,
            ..Default::default()
        });
        let big = random_dominant(300, 5.0, 52);
        let small = random_dominant(40, 3.0, 53);
        let h1 = svc.submit(JobSpec::new(big, JobKind::Factorize)).unwrap();
        // Fill the single queue slot, then overflow it. The worker may
        // steal the first queued job at any moment, so retry the fill.
        let mut rejected = None;
        let mut pending = Vec::new();
        for _ in 0..200 {
            match svc.submit(JobSpec::new(small.clone(), JobKind::Factorize)) {
                Ok(h) => pending.push(h),
                Err(e) => {
                    rejected = Some(e);
                    break;
                }
            }
        }
        let e = rejected.expect("bounded queue must reject eventually");
        assert!(matches!(e, GpluError::QueueFull { cap: 1, .. }), "got {e}");
        assert!(svc.stats().rejected >= 1);
        h1.wait().unwrap();
        for h in pending {
            let _ = h.wait();
        }
        svc.shutdown();
    }

    #[test]
    fn cancelled_and_deadline_jobs_are_typed() {
        // One worker pinned on a big job; the queued ones get cancelled
        // or time out before it finishes.
        let svc = SolverService::start(ServiceConfig {
            workers: 1,
            queue_cap: 8,
            ..Default::default()
        });
        let big = random_dominant(400, 5.0, 54);
        let small = random_dominant(30, 3.0, 55);
        let h_big = svc.submit(JobSpec::new(big, JobKind::Factorize)).unwrap();
        let h_cancel = svc
            .submit(JobSpec::new(small.clone(), JobKind::Factorize))
            .unwrap();
        h_cancel.cancel();
        let h_late = svc
            .submit(JobSpec::new(small, JobKind::Factorize).with_deadline_ns(1))
            .unwrap();
        assert!(matches!(h_cancel.wait(), Err(GpluError::Cancelled)));
        assert!(matches!(
            h_late.wait(),
            Err(GpluError::DeadlineExceeded { .. })
        ));
        h_big.wait().unwrap();
        let stats = svc.stats();
        assert_eq!(stats.cancelled, 1);
        assert_eq!(stats.deadline_dropped, 1);
        svc.shutdown();
    }

    #[test]
    fn traced_service_emits_a_valid_wall_clock_timeline() {
        let rec = Arc::new(Recorder::new());
        let svc = SolverService::start_traced(
            ServiceConfig {
                workers: 2,
                ..Default::default()
            },
            Arc::clone(&rec),
        );
        let a = random_dominant(60, 4.0, 56);
        let handles: Vec<_> = (0..4)
            .map(|_| {
                svc.submit(JobSpec::new(a.clone(), JobKind::Refactorize).hot())
                    .unwrap()
            })
            .collect();
        for h in handles {
            h.wait().unwrap();
        }
        svc.shutdown();
        let events = rec.events();
        let jobs = events.iter().filter(|e| e.name == "service.job").count();
        assert_eq!(jobs, 8, "4 jobs × B+E");
        assert!(events.iter().any(|e| e.name == "service.queue_depth"));
        // The chrome export must be renderable (sorted, balanced).
        let chrome = gplu_trace::chrome_trace(&events);
        assert!(chrome.contains("service.job"));
    }

    #[test]
    fn observability_records_tenants_tiers_slo_and_drift() {
        use crate::observe::SloSpec;
        let svc = SolverService::start(ServiceConfig {
            workers: 2,
            // Profile every pipeline call so all six jobs feed the
            // drift table this test asserts on.
            drift_sample_every: 1,
            ..Default::default()
        });
        let a = random_dominant(80, 4.0, 58);
        let b = a.spmv(&vec![1.0; 80]);
        for i in 0..6 {
            let tenant = if i % 2 == 0 { "acme" } else { "globex" };
            let kind = if i == 5 {
                JobKind::Solve {
                    rhs: vec![b.clone()],
                }
            } else {
                JobKind::Refactorize
            };
            svc.submit(JobSpec::new(a.clone(), kind).hot().with_tenant(tenant))
                .unwrap()
                .wait()
                .unwrap();
        }
        let obs = svc.observability().expect("observability on by default");
        let mut tenants = obs.tenants();
        tenants.sort();
        assert_eq!(tenants, ["acme", "globex"]);
        // Latency splits exist per tenant; the solve job put wall time
        // into the solve histogram.
        let solve_total: u64 = tenants
            .iter()
            .map(|t| {
                obs.registry()
                    .find_histogram(&format!("service.solve_ns{{tenant={t}}}"))
                    .expect("solve histogram")
                    .sum()
            })
            .sum();
        assert!(solve_total > 0, "solve wall time must be attributed");
        // Tier histograms: 1 cold + 5 hits of some warm/cached mix.
        let tier_count: u64 = ["cold", "warm", "cached_solve"]
            .iter()
            .filter_map(|t| {
                obs.registry()
                    .find_histogram(&format!("service.wall_ns{{tier={t}}}"))
            })
            .map(|h| h.count())
            .sum();
        assert_eq!(tier_count, 6);
        // The drift profiler saw the pipeline's samples: a cold
        // factorize produces symbolic chunks and numeric levels, the
        // solve produces trisolve samples.
        let table = obs.drift_table();
        let kinds: Vec<&str> = table.rows.iter().map(|r| r.kind.as_str()).collect();
        assert!(
            kinds.contains(&"numeric_level") || kinds.contains(&"gemm_tile"),
            "numeric drift samples missing: {kinds:?}"
        );
        assert!(kinds.contains(&"trisolve"), "trisolve missing: {kinds:?}");
        // A generous SLO passes; an impossible one fails with a typed
        // violation list.
        let ok = obs.slo(&SloSpec::parse("sim_p95_ns=1e15,hit_rate=0.5").unwrap());
        assert!(ok.pass(), "violations: {:?}", ok.violations);
        // p99 reaches the cold job's factorization time; 1 ns can't hold.
        let bad = obs.slo(&SloSpec::parse("sim_p99_ns=1").unwrap());
        assert!(!bad.pass());
        // The captured report carries all four v2 sections.
        let report = crate::ServiceReport::capture(&svc);
        let doc = report.to_json();
        for section in ["metrics", "tenants", "slo", "drift"] {
            assert!(doc.get(section).is_some(), "missing {section}");
        }
        svc.shutdown();
    }

    #[test]
    fn observability_off_means_no_registry() {
        let svc = SolverService::start(ServiceConfig {
            workers: 1,
            observability: false,
            ..Default::default()
        });
        let a = random_dominant(40, 4.0, 59);
        svc.submit(JobSpec::new(a, JobKind::Factorize))
            .unwrap()
            .wait()
            .unwrap();
        assert!(svc.observability().is_none());
        let doc = crate::ServiceReport::capture(&svc).to_json();
        assert!(doc.get("metrics").is_none());
        assert!(doc.get("slo").is_none());
        svc.shutdown();
    }

    #[test]
    fn traced_service_splits_queue_wait_execute_and_solve_spans() {
        let rec = Arc::new(Recorder::new());
        let svc = SolverService::start_traced(
            ServiceConfig {
                workers: 1,
                ..Default::default()
            },
            Arc::clone(&rec),
        );
        let a = random_dominant(60, 4.0, 60);
        let b = a.spmv(&vec![1.0; 60]);
        svc.submit(JobSpec::new(
            a.clone(),
            JobKind::Solve {
                rhs: vec![b.clone()],
            },
        ))
        .unwrap()
        .wait()
        .unwrap();
        svc.shutdown();
        let events = rec.events();
        for name in [
            "service.queue_wait",
            "service.job",
            "service.execute",
            "service.solve",
        ] {
            let n = events.iter().filter(|e| e.name == name).count();
            assert_eq!(n, 2, "{name} must be one balanced B+E pair, got {n}");
        }
        // Sub-spans nest inside the job window.
        let ts = |name: &str| -> Vec<f64> {
            events
                .iter()
                .filter(|e| e.name == name)
                .map(|e| e.ts_ns)
                .collect()
        };
        let job = ts("service.job");
        let solve = ts("service.solve");
        assert!(job[0] <= solve[0] && solve[1] <= job[1], "solve inside job");
        let qw = ts("service.queue_wait");
        assert!(
            qw[1] <= job[0] + 1.0,
            "queue_wait ends where the job starts"
        );
    }

    #[test]
    fn numeric_rejections_strike_and_quarantine_the_pattern() {
        let svc = SolverService::start(ServiceConfig {
            workers: 1,
            quarantine_strikes: 2,
            ..Default::default()
        });
        // Full 2x2 pattern: good values factorize; all-ones values make
        // the second pivot cancel to exactly zero mid-elimination.
        let build = |d: f64| {
            let mut coo = gplu_sparse::Coo::new(2, 2);
            for i in 0..2 {
                for j in 0..2 {
                    coo.push(i, j, if i == j { d } else { 1.0 });
                }
            }
            gplu_sparse::convert::coo_to_csr(&coo)
        };
        let good = build(2.0);
        let bad = build(1.0);

        svc.submit(JobSpec::new(good.clone(), JobKind::Factorize))
            .unwrap()
            .wait()
            .unwrap();
        assert_eq!(svc.cache().len(), 1);

        // Strike 1 (warm path): typed singular rejection, and the now
        // suspect cache entry is evicted.
        let e = svc
            .submit(JobSpec::new(bad.clone(), JobKind::Factorize))
            .unwrap()
            .wait()
            .unwrap_err();
        assert!(matches!(e, GpluError::SingularPivot { .. }), "got {e}");
        assert_eq!(svc.cache().len(), 0, "suspect entry must be evicted");

        // Strike 2 (cold path, nothing cached): singular again.
        let e = svc
            .submit(JobSpec::new(bad.clone(), JobKind::Factorize))
            .unwrap()
            .wait()
            .unwrap_err();
        assert!(matches!(e, GpluError::SingularPivot { .. }), "got {e}");

        // At the limit the pattern is quarantined — even good values are
        // fast-rejected, because quarantine is pattern-keyed.
        let e = svc
            .submit(JobSpec::new(good, JobKind::Factorize))
            .unwrap()
            .wait()
            .unwrap_err();
        assert!(
            matches!(e, GpluError::Quarantined { strikes: 2, .. }),
            "got {e}"
        );

        let stats = svc.stats();
        assert_eq!(stats.gate_failures, 2);
        assert_eq!(stats.quarantine_rejected, 1);
        assert_eq!(stats.quarantined_patterns, 1);
        svc.shutdown();
    }

    #[test]
    fn quarantine_disabled_keeps_retrying() {
        let svc = SolverService::start(ServiceConfig {
            workers: 1,
            quarantine_strikes: 0,
            ..Default::default()
        });
        let mut coo = gplu_sparse::Coo::new(2, 2);
        for i in 0..2 {
            for j in 0..2 {
                coo.push(i, j, 1.0);
            }
        }
        let bad = gplu_sparse::convert::coo_to_csr(&coo);
        for _ in 0..4 {
            let e = svc
                .submit(JobSpec::new(bad.clone(), JobKind::Factorize))
                .unwrap()
                .wait()
                .unwrap_err();
            assert!(
                matches!(e, GpluError::SingularPivot { .. }),
                "never Quarantined when disabled: {e}"
            );
        }
        assert_eq!(svc.stats().quarantine_rejected, 0);
        svc.shutdown();
    }

    #[test]
    fn fleet_routes_hot_patterns_to_their_home_device() {
        let svc = SolverService::start(ServiceConfig {
            workers: 1,
            devices: 4,
            ..Default::default()
        });
        let a = random_dominant(60, 4.0, 61);
        let r1 = svc
            .submit(JobSpec::new(a.clone(), JobKind::Factorize))
            .unwrap()
            .wait()
            .unwrap();
        assert_eq!(r1.tier, ExecTier::Cold);
        let home = r1.device;
        // Every later job on the pattern lands where its plan lives.
        for _ in 0..3 {
            let r = svc
                .submit(JobSpec::new(a.clone(), JobKind::Refactorize).hot())
                .unwrap()
                .wait()
                .unwrap();
            assert_eq!(r.device, home, "locality routing must win");
            assert_ne!(r.tier, ExecTier::Cold);
        }
        let snap = svc.stats().devices;
        assert_eq!(snap.len(), 4);
        assert_eq!(snap[home].jobs, 4);
        assert_eq!(snap[home].hot_hit_rate(), 1.0);
        assert!(snap[home].plan_bytes > 0, "cold build charges the home");
        // Killing the home re-homes the pattern onto a survivor.
        assert!(svc.mark_device_dead(home));
        assert!(svc.fleet().degraded());
        let r = svc
            .submit(JobSpec::new(a, JobKind::Refactorize).hot())
            .unwrap()
            .wait()
            .unwrap();
        assert_ne!(r.device, home, "dead device must not receive work");
        assert_ne!(r.tier, ExecTier::Cold, "cache survives the re-home");
        svc.shutdown();
    }

    #[test]
    fn worker_races_on_one_pattern_build_one_plan() {
        let svc = SolverService::start(ServiceConfig {
            workers: 4,
            ..Default::default()
        });
        let a = random_dominant(100, 4.0, 57);
        let handles: Vec<_> = (0..8)
            .map(|_| {
                svc.submit(JobSpec::new(a.clone(), JobKind::Refactorize))
                    .unwrap()
            })
            .collect();
        for h in handles {
            h.wait().unwrap();
        }
        // Several workers may lose the cold-miss race and each build a
        // plan, but the cache keeps exactly one entry for the pattern.
        assert_eq!(svc.cache().len(), 1);
        assert!(svc.cache_counters().insertions >= 1);
        svc.shutdown();
    }
}

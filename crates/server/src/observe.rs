//! Live service observability: what the service records only when
//! [`crate::ServiceConfig::observability`] is on (the default).
//!
//! [`ServiceObs`] hangs off the service's shared state and owns what
//! nothing else records:
//!
//! * log-linear latency histograms keyed per tenant
//!   (`service.wall_ns{tenant=t0}`) and per cache tier
//!   (`service.sim_ns{tier=warm}`), split into queue-wait vs execution vs
//!   solve time, and the `service.recovery_events` counter,
//! * a [`SloWindow`] — a sliding window over the last N completed jobs
//!   that [`SloSpec`] thresholds are evaluated against. The gated
//!   latencies are the *simulated* ones, which are deterministic in the
//!   workload seed, so CI gates don't flake with machine load; wall
//!   thresholds are available but optional,
//! * a [`DriftProfiler`] threaded through a *sampled* subset of
//!   factorize/refactorize/solve calls as their trace sink, folding the
//!   pipeline's `drift.sample` instants into the predicted-vs-observed
//!   cost-model drift table. Sampling matters: a live sink flips the
//!   pipeline's `trace.enabled()` fast path on, and a factorization
//!   emits per-level span events by the hundred. Profiling one call in
//!   [`DRIFT_SAMPLE_EVERY`] keeps the drift table statistically dense
//!   (each sampled call contributes every level it runs) while the
//!   other calls stay on the no-op sink — that is what holds the
//!   `service_slo` bench under its 2% overhead budget.
//!
//! The histograms live in the service's one [`MetricsRegistry`], beside
//! the job counters the service keeps there whether or not this layer is
//! on. The registry's gauges belong to neither: the queue, the cache
//! and the fleet scheduler own that state, and
//! [`crate::SolverService::metrics`] reads it into the gauges when it
//! exposes the registry.
//!
//! Everything here is lock-cheap at job granularity: histograms are
//! atomics, the window takes a short mutex per completion, and the
//! drift profiler filters events by a pointer-compare before touching
//! its map.

use crate::job::ExecTier;
use crate::report::percentile;
use gplu_core::{DriftProfiler, DriftTable, DRIFT_FLAG_THRESHOLD};
use gplu_trace::json::{self, at_most, Field, JsonValue, Kind::*, Rule};
use gplu_trace::{Counter, Histogram, MetricsRegistry, TraceSink, NOOP};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Version tag of the `slo` section in the service report.
pub const SLO_SCHEMA_VERSION: u64 = 1;

/// Default sliding-window size (completed jobs) for SLO evaluation.
pub const DEFAULT_SLO_WINDOW: usize = 256;

/// Default drift-profiler sampling period: one in this many pipeline
/// calls (factorize / refactorize / batched solve) runs with the
/// profiler as its live trace sink; the rest run on the no-op sink.
pub const DRIFT_SAMPLE_EVERY: u64 = 64;

/// Service-level objective thresholds. Unset fields are not gated.
///
/// Parsed from the CLI `--slo` flag: a comma-separated `key=value` list,
/// e.g. `sim_p95_ns=2.5e9,hit_rate=0.8,window=256`. Keys: `window`,
/// `sim_p50_ns`, `sim_p95_ns`, `sim_p99_ns`, `wall_p95_ns`, `hit_rate`.
#[derive(Debug, Clone, PartialEq)]
pub struct SloSpec {
    /// Completed jobs the sliding window holds.
    pub window: usize,
    /// Ceiling on p50 simulated latency (ns) over the window.
    pub max_sim_p50_ns: Option<f64>,
    /// Ceiling on p95 simulated latency (ns) over the window.
    pub max_sim_p95_ns: Option<f64>,
    /// Ceiling on p99 simulated latency (ns) over the window.
    pub max_sim_p99_ns: Option<f64>,
    /// Ceiling on p95 wall latency (ns) over the window. Machine-load
    /// dependent — leave unset in CI gates.
    pub max_wall_p95_ns: Option<f64>,
    /// Floor on the hot-traffic cache hit rate over the window.
    pub min_hot_hit_rate: Option<f64>,
}

impl Default for SloSpec {
    fn default() -> Self {
        SloSpec {
            window: DEFAULT_SLO_WINDOW,
            max_sim_p50_ns: None,
            max_sim_p95_ns: None,
            max_sim_p99_ns: None,
            max_wall_p95_ns: None,
            min_hot_hit_rate: None,
        }
    }
}

impl SloSpec {
    /// Parses the CLI `key=value,key=value` form.
    pub fn parse(s: &str) -> Result<SloSpec, String> {
        let mut spec = SloSpec::default();
        for part in s.split(',').map(str::trim).filter(|p| !p.is_empty()) {
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| format!("slo: `{part}` is not key=value"))?;
            let num = || {
                value
                    .trim()
                    .parse::<f64>()
                    .map_err(|_| format!("slo: `{key}` value `{value}` is not a number"))
            };
            match key.trim() {
                "window" => {
                    let w = num()?;
                    if !(w.is_finite() && w >= 1.0) {
                        return Err(format!("slo: window `{value}` must be >= 1"));
                    }
                    spec.window = w as usize;
                }
                "sim_p50_ns" => spec.max_sim_p50_ns = Some(num()?),
                "sim_p95_ns" => spec.max_sim_p95_ns = Some(num()?),
                "sim_p99_ns" => spec.max_sim_p99_ns = Some(num()?),
                "wall_p95_ns" => spec.max_wall_p95_ns = Some(num()?),
                "hit_rate" => spec.min_hot_hit_rate = Some(num()?),
                other => return Err(format!("slo: unknown key `{other}`")),
            }
        }
        Ok(spec)
    }
}

/// One completed job as the SLO window sees it.
#[derive(Debug, Clone, Copy)]
struct SloSample {
    sim_ns: f64,
    wall_ns: f64,
    hot: bool,
    hit: bool,
}

/// Sliding window of the last N completed jobs.
#[derive(Debug)]
pub struct SloWindow {
    cap: usize,
    samples: Mutex<VecDeque<SloSample>>,
}

impl SloWindow {
    fn new(cap: usize) -> SloWindow {
        let cap = cap.max(1);
        SloWindow {
            cap,
            samples: Mutex::new(VecDeque::with_capacity(cap)),
        }
    }

    fn push(&self, s: SloSample) {
        let mut w = self.samples.lock().expect("slo window lock");
        if w.len() == self.cap {
            w.pop_front();
        }
        w.push_back(s);
    }

    /// Evaluates `spec` against the window's current contents.
    fn evaluate(&self, spec: &SloSpec) -> SloEval {
        let w = self.samples.lock().expect("slo window lock");
        let sim: Vec<f64> = w.iter().map(|s| s.sim_ns).collect();
        let wall: Vec<f64> = w.iter().map(|s| s.wall_ns).collect();
        let hot_jobs = w.iter().filter(|s| s.hot).count() as u64;
        let hot_hits = w.iter().filter(|s| s.hot && s.hit).count() as u64;
        drop(w);
        // Same convention as `StatsSnapshot::hot_hit_rate`: vacuously
        // perfect when the window saw no hot traffic.
        let hot_hit_rate = if hot_jobs == 0 {
            1.0
        } else {
            hot_hits as f64 / hot_jobs as f64
        };
        let eval = SloEval {
            window: self.cap,
            samples: sim.len(),
            sim_p50_ns: percentile(&sim, 50.0),
            sim_p95_ns: percentile(&sim, 95.0),
            sim_p99_ns: percentile(&sim, 99.0),
            wall_p50_ns: percentile(&wall, 50.0),
            wall_p95_ns: percentile(&wall, 95.0),
            wall_p99_ns: percentile(&wall, 99.0),
            hot_jobs,
            hot_hits,
            hot_hit_rate,
            spec: spec.clone(),
            violations: Vec::new(),
        };
        eval.with_violations()
    }
}

/// The SLO verdict: observed window quantiles, the spec they were gated
/// against, and every violated threshold.
#[derive(Debug, Clone)]
pub struct SloEval {
    /// Window capacity.
    pub window: usize,
    /// Completed jobs actually in the window.
    pub samples: usize,
    /// Observed simulated-latency quantiles (ns) over the window.
    pub sim_p50_ns: f64,
    /// p95 simulated latency (ns).
    pub sim_p95_ns: f64,
    /// p99 simulated latency (ns).
    pub sim_p99_ns: f64,
    /// Observed wall-latency quantiles (ns) over the window.
    pub wall_p50_ns: f64,
    /// p95 wall latency (ns).
    pub wall_p95_ns: f64,
    /// p99 wall latency (ns).
    pub wall_p99_ns: f64,
    /// Hot jobs in the window.
    pub hot_jobs: u64,
    /// Hot jobs served warm or from cached factors.
    pub hot_hits: u64,
    /// Hit rate over the window's hot segment (1.0 when none).
    pub hot_hit_rate: f64,
    /// The spec evaluated.
    pub spec: SloSpec,
    /// Human-readable description of each violated threshold.
    pub violations: Vec<String>,
}

impl SloEval {
    fn with_violations(mut self) -> SloEval {
        let mut v = Vec::new();
        let mut ceil = |name: &str, observed: f64, limit: Option<f64>| {
            if let Some(limit) = limit {
                if observed > limit {
                    v.push(format!("{name}: observed {observed:.0} > limit {limit:.0}"));
                }
            }
        };
        ceil("sim_p50_ns", self.sim_p50_ns, self.spec.max_sim_p50_ns);
        ceil("sim_p95_ns", self.sim_p95_ns, self.spec.max_sim_p95_ns);
        ceil("sim_p99_ns", self.sim_p99_ns, self.spec.max_sim_p99_ns);
        ceil("wall_p95_ns", self.wall_p95_ns, self.spec.max_wall_p95_ns);
        if let Some(floor) = self.spec.min_hot_hit_rate {
            if self.hot_hit_rate < floor {
                v.push(format!(
                    "hit_rate: observed {:.3} < floor {floor:.3}",
                    self.hot_hit_rate
                ));
            }
        }
        self.violations = v;
        self
    }

    /// True when no threshold was violated.
    pub fn pass(&self) -> bool {
        self.violations.is_empty()
    }

    /// The `slo` section of the service report, written from
    /// [`SLO_EVAL`].
    pub fn to_json(&self) -> JsonValue {
        json::write(SLO_EVAL, self)
    }

    /// A one-line human summary for `serve` output.
    pub fn summary(&self) -> String {
        let verdict = if self.pass() {
            "PASS".to_string()
        } else {
            format!("FAIL ({})", self.violations.join("; "))
        };
        format!(
            "slo[{}/{} jobs]: sim p50 {:.0} p95 {:.0} p99 {:.0} ns | \
             wall p95 {:.0} ns | hot hit rate {:.1}% | {verdict}",
            self.samples,
            self.window,
            self.sim_p50_ns,
            self.sim_p95_ns,
            self.sim_p99_ns,
            self.wall_p95_ns,
            self.hot_hit_rate * 100.0,
        )
    }
}

/// The SLO verdict's fields; the spec's unset thresholds are `null`.
#[rustfmt::skip]
pub const SLO_EVAL: &[Field<SloEval>] = &[
    ("/schema_version", Version(SLO_SCHEMA_VERSION), |_| SLO_SCHEMA_VERSION.into()),
    ("/window", Count, |e| e.window.into()),
    ("/samples", Count, |e| e.samples.into()),
    ("/sim_p50_ns", Num, |e| e.sim_p50_ns.into()),
    ("/sim_p95_ns", Num, |e| e.sim_p95_ns.into()),
    ("/sim_p99_ns", Num, |e| e.sim_p99_ns.into()),
    ("/wall_p50_ns", Num, |e| e.wall_p50_ns.into()),
    ("/wall_p95_ns", Num, |e| e.wall_p95_ns.into()),
    ("/wall_p99_ns", Num, |e| e.wall_p99_ns.into()),
    ("/hot_jobs", Count, |e| e.hot_jobs.into()),
    ("/hot_hits", Count, |e| e.hot_hits.into()),
    ("/hot_hit_rate", Rate, |e| e.hot_hit_rate.into()),
    ("/spec/window", Count, |e| e.spec.window.into()),
    ("/spec/sim_p50_ns", Nullable(&Num), |e| e.spec.max_sim_p50_ns.into()),
    ("/spec/sim_p95_ns", Nullable(&Num), |e| e.spec.max_sim_p95_ns.into()),
    ("/spec/sim_p99_ns", Nullable(&Num), |e| e.spec.max_sim_p99_ns.into()),
    ("/spec/wall_p95_ns", Nullable(&Num), |e| e.spec.max_wall_p95_ns.into()),
    ("/spec/hit_rate", Nullable(&Num), |e| e.spec.min_hot_hit_rate.into()),
    ("/violations", Array(&Str), |e| e.violations.iter().map(String::as_str).collect()),
    ("/pass", Bool, |e| e.pass().into()),
];

/// The SLO verdict's cross-field rules: its quantiles are ordered.
#[rustfmt::skip]
pub const SLO_RULES: &[Rule] = &[
    ("/sim_p50_ns", |e| at_most(e, &["/sim_p50_ns"], &["/sim_p95_ns"])),
    ("/sim_p95_ns", |e| at_most(e, &["/sim_p95_ns"], &["/sim_p99_ns"])),
];

/// Everything `record_job` needs about one completed job.
#[derive(Debug)]
pub struct JobObservation<'a> {
    /// Tenant the job was submitted under.
    pub tenant: &'a str,
    /// Tier that served it.
    pub tier: ExecTier,
    /// Wall time spent queued before a worker picked it up.
    pub queue_wait_ns: u64,
    /// Wall time in the worker excluding the solve phase.
    pub execute_ns: u64,
    /// Wall time in the batched triangular solve (0 for non-solve jobs).
    pub solve_ns: u64,
    /// Full submit→completion wall latency.
    pub wall_ns: u64,
    /// Simulated GPU time the job consumed.
    pub sim_ns: f64,
    /// Hot-pattern traffic marker.
    pub hot: bool,
    /// Recovery-ladder actions taken for this job.
    pub recovery_events: usize,
}

/// One tenant's latency histogram handles, resolved once on the
/// tenant's first completed job and reused for every one after.
#[derive(Debug)]
struct TenantHandles {
    queue_wait: Arc<Histogram>,
    execute: Arc<Histogram>,
    solve: Arc<Histogram>,
    wall: Arc<Histogram>,
    sim: Arc<Histogram>,
}

fn tier_index(tier: ExecTier) -> usize {
    match tier {
        ExecTier::Cold => 0,
        ExecTier::Warm => 1,
        ExecTier::WarmHost => 2,
        ExecTier::WarmDisk => 3,
        ExecTier::CachedSolve => 4,
    }
}

/// Every tier, in [`tier_index`] order.
const TIERS: [ExecTier; 5] = [
    ExecTier::Cold,
    ExecTier::Warm,
    ExecTier::WarmHost,
    ExecTier::WarmDisk,
    ExecTier::CachedSolve,
];

/// The live observability bundle the service threads through its
/// workers. See the module docs for the three sub-systems.
#[derive(Debug)]
pub struct ServiceObs {
    /// The service's registry, shared with its job counters.
    registry: Arc<MetricsRegistry>,
    drift: DriftProfiler,
    /// Sampling period for [`ServiceObs::drift_sink`]; 0 disables.
    drift_every: u64,
    /// Pipeline calls seen so far; drives the sampling decision.
    drift_calls: AtomicU64,
    /// Cached per-tenant histogram handles, so the per-job record path
    /// is one hash lookup instead of five name `format!`s + registry
    /// locks (the registry's "no allocation on the record path" rule,
    /// upheld from the caller's side).
    tenant_handles: Mutex<HashMap<String, Arc<TenantHandles>>>,
    /// Per-tier wall/sim handles, indexed by [`tier_index`].
    tier_wall: [Arc<Histogram>; 5],
    tier_sim: [Arc<Histogram>; 5],
    window: SloWindow,
    /// Recovery-ladder actions over every completed job.
    recovery_events: Arc<Counter>,
}

impl ServiceObs {
    /// A fresh bundle recording into `registry`, with a window of
    /// `slo_window` completed jobs and drift profiling on one in
    /// `drift_sample_every` pipeline calls (0 turns the profiler off
    /// entirely; 1 profiles every call).
    pub fn new(
        registry: Arc<MetricsRegistry>,
        slo_window: usize,
        drift_sample_every: u64,
    ) -> ServiceObs {
        let tier_hist = |metric: &str| {
            TIERS.map(|t| registry.histogram(&format!("service.{metric}{{tier={}}}", t.label())))
        };
        ServiceObs {
            recovery_events: registry.counter("service.recovery_events"),
            tier_wall: tier_hist("wall_ns"),
            tier_sim: tier_hist("sim_ns"),
            registry,
            drift: DriftProfiler::new(),
            drift_every: drift_sample_every,
            drift_calls: AtomicU64::new(0),
            tenant_handles: Mutex::new(HashMap::new()),
            window: SloWindow::new(slo_window),
        }
    }

    /// The registry the histograms record into. Its gauges are set only
    /// when [`crate::SolverService::metrics`] exposes it.
    pub fn registry(&self) -> &MetricsRegistry {
        &self.registry
    }

    /// The drift profiler (table reduction, tests).
    pub fn drift(&self) -> &DriftProfiler {
        &self.drift
    }

    /// The trace sink for the next pipeline call: the drift profiler on
    /// one call in `drift_sample_every`, the no-op sink otherwise. A
    /// live sink makes the pipeline emit (and pay for) every span event
    /// it is instrumented with, so this is the service's observability
    /// overhead knob.
    pub fn drift_sink(&self) -> &dyn TraceSink {
        if self.drift_every == 0 {
            return &NOOP;
        }
        let call = self.drift_calls.fetch_add(1, Ordering::Relaxed);
        if call.is_multiple_of(self.drift_every) {
            &self.drift
        } else {
            &NOOP
        }
    }

    /// The current drift table at the standard flag threshold.
    pub fn drift_table(&self) -> DriftTable {
        self.drift.table(DRIFT_FLAG_THRESHOLD)
    }

    /// Evaluates `spec` against the live sliding window.
    pub fn slo(&self, spec: &SloSpec) -> SloEval {
        self.window.evaluate(spec)
    }

    /// Folds one completed job into the histograms and the SLO window.
    pub fn record_job(&self, o: &JobObservation<'_>) {
        self.recovery_events.add(o.recovery_events as u64);
        let handles = {
            let mut map = self.tenant_handles.lock().expect("tenant handles lock");
            match map.get(o.tenant) {
                Some(h) => Arc::clone(h),
                None => {
                    let tenant = o.tenant;
                    let hist = |metric: &str| {
                        self.registry
                            .histogram(&format!("service.{metric}{{tenant={tenant}}}"))
                    };
                    let h = Arc::new(TenantHandles {
                        queue_wait: hist("queue_wait_ns"),
                        execute: hist("execute_ns"),
                        solve: hist("solve_ns"),
                        wall: hist("wall_ns"),
                        sim: hist("sim_ns"),
                    });
                    map.insert(tenant.to_string(), Arc::clone(&h));
                    h
                }
            }
        };
        handles.queue_wait.record(o.queue_wait_ns);
        handles.execute.record(o.execute_ns);
        handles.solve.record(o.solve_ns);
        handles.wall.record(o.wall_ns);
        handles.sim.record_f64(o.sim_ns);
        let ti = tier_index(o.tier);
        self.tier_wall[ti].record(o.wall_ns);
        self.tier_sim[ti].record_f64(o.sim_ns);
        self.window.push(SloSample {
            sim_ns: o.sim_ns,
            wall_ns: o.wall_ns as f64,
            hot: o.hot,
            hit: o.hot && o.tier != ExecTier::Cold,
        });
    }

    /// Tenants that have recorded at least one completed job.
    pub fn tenants(&self) -> Vec<String> {
        const PREFIX: &str = "service.wall_ns{tenant=";
        self.registry
            .histogram_names()
            .into_iter()
            .filter_map(|n| {
                n.strip_prefix(PREFIX)
                    .and_then(|rest| rest.strip_suffix('}'))
                    .map(str::to_string)
            })
            .collect()
    }

    /// The per-tenant latency breakdown (`tenants` report section):
    /// one object per tenant with job count and p50/p95/p99 over each
    /// latency split.
    pub fn tenants_json(&self) -> JsonValue {
        let mut out = JsonValue::obj();
        for tenant in self.tenants() {
            let mut t = JsonValue::obj();
            let mut count = 0;
            for metric in [
                "queue_wait_ns",
                "execute_ns",
                "solve_ns",
                "wall_ns",
                "sim_ns",
            ] {
                let name = format!("service.{metric}{{tenant={tenant}}}");
                let Some(h) = self.registry.find_histogram(&name) else {
                    continue;
                };
                count = count.max(h.count());
                let base = metric.strip_suffix("_ns").unwrap_or(metric);
                for (q, label) in [(0.50, "p50"), (0.95, "p95"), (0.99, "p99")] {
                    t = t.set(&format!("{base}_{label}_ns"), h.quantile(q).unwrap_or(0));
                }
            }
            t = t.set("jobs", count);
            out = out.set(&tenant, t);
        }
        out
    }
}

/// Validates a `tenants` section: per tenant, an object of counts.
pub(crate) fn check_tenants(doc: &JsonValue) -> Result<(), String> {
    for (tenant, quantiles) in doc.as_obj().ok_or(": expected an object")? {
        for (key, v) in quantiles
            .as_obj()
            .ok_or(format!("/{tenant}: expected an object"))?
        {
            Count.check(v).map_err(|e| format!("/{tenant}/{key}{e}"))?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slo_spec_parses_the_cli_form() {
        let s = SloSpec::parse("sim_p95_ns=2.5e9, hit_rate=0.8,window=64").unwrap();
        assert_eq!(s.window, 64);
        assert_eq!(s.max_sim_p95_ns, Some(2.5e9));
        assert_eq!(s.min_hot_hit_rate, Some(0.8));
        assert_eq!(s.max_sim_p50_ns, None);
        assert!(SloSpec::parse("bogus=1").is_err());
        assert!(SloSpec::parse("sim_p95_ns").is_err());
        assert!(SloSpec::parse("window=0").is_err());
        assert_eq!(SloSpec::parse("").unwrap(), SloSpec::default());
    }

    #[test]
    fn slo_window_slides_and_gates() {
        let obs = ServiceObs::new(Arc::default(), 4, 1);
        // 6 jobs; the window keeps the last 4 (sim 300..=600).
        for i in 1..=6u64 {
            obs.record_job(&JobObservation {
                tenant: "t0",
                tier: if i % 2 == 0 {
                    ExecTier::Warm
                } else {
                    ExecTier::Cold
                },
                queue_wait_ns: 10,
                execute_ns: 80,
                solve_ns: 0,
                wall_ns: 100 * i,
                sim_ns: 100.0 * i as f64,
                hot: true,
                recovery_events: 0,
            });
        }
        let pass = obs.slo(&SloSpec::parse("sim_p99_ns=1e9,hit_rate=0.4").unwrap());
        assert_eq!(pass.samples, 4);
        assert!(pass.pass(), "violations: {:?}", pass.violations);
        assert!(pass.sim_p50_ns >= 300.0, "window slid past early samples");
        let fail = obs.slo(&SloSpec::parse("sim_p95_ns=100,hit_rate=0.9").unwrap());
        assert_eq!(fail.violations.len(), 2, "{:?}", fail.violations);
        assert!(!fail.pass());
        let json = fail.to_json();
        assert_eq!(json.get("pass"), Some(&JsonValue::Bool(false)));
        assert_eq!(
            json.get("violations")
                .and_then(JsonValue::as_arr)
                .map(<[JsonValue]>::len),
            Some(2)
        );
    }

    #[test]
    fn record_job_keys_histograms_by_tenant_and_tier() {
        let obs = ServiceObs::new(Arc::default(), 16, 1);
        for (tenant, wall) in [("t0", 100u64), ("t0", 200), ("t1", 400)] {
            obs.record_job(&JobObservation {
                tenant,
                tier: ExecTier::Cold,
                queue_wait_ns: 5,
                execute_ns: wall - 5,
                solve_ns: 0,
                wall_ns: wall,
                sim_ns: wall as f64,
                hot: false,
                recovery_events: 1,
            });
        }
        let mut tenants = obs.tenants();
        tenants.sort();
        assert_eq!(tenants, ["t0", "t1"]);
        let h = obs
            .registry()
            .find_histogram("service.wall_ns{tenant=t0}")
            .expect("tenant histogram");
        assert_eq!(h.count(), 2);
        assert_eq!(
            obs.registry()
                .find_histogram("service.wall_ns{tier=cold}")
                .expect("tier histogram")
                .count(),
            3
        );
        let tj = obs.tenants_json();
        let t1 = tj.get("t1").expect("t1 section");
        assert_eq!(t1.get("jobs").and_then(JsonValue::as_u64), Some(1));
        let p95 = t1
            .get("wall_p95_ns")
            .and_then(JsonValue::as_u64)
            .expect("p95");
        assert!((400..=425).contains(&p95), "upper-bound estimate: {p95}");
        assert_eq!(obs.registry().counter("service.recovery_events").get(), 3);
    }
}

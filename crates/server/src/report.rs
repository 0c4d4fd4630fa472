//! The service report: the `RunReport`-style JSON summary of a service
//! run. Its schema is the [`SERVICE_REPORT`] field table with its
//! [`SERVICE_RULES`] (the fleet section in [`FLEET`] and [`DEVICE`], the
//! `slo` section in [`crate::observe::SLO_EVAL`], the `drift` section in
//! [`gplu_core::drift::DRIFT_TABLE`]): [`ServiceReport::to_json`] writes
//! it and [`check_service_report`] validates against it, as
//! `telemetry_check --service` does.
//!
//! Schema v2 adds the live-observability sections captured from
//! [`crate::ServiceObs`] when the service runs with observability on:
//! `tiers` (per-tier job shares), `metrics` (the full registry
//! exposition), `tenants` (per-tenant latency quantiles), `slo` (the
//! sliding-window verdict `telemetry_check --slo` gates on), and
//! `drift` (the cost-model drift table).
//!
//! Schema v3 adds the tiered-cache surface: `warm_host` / `warm_disk`
//! job counts and shares, the `cache.host` subsection (budget,
//! residency, hits, demotions), the `cache.disk` subsection (enabled,
//! degraded `down` flag, write-behind and rejection counters, rewarm
//! count), and `jobs.load_shed` for degradation-aware admission.
//!
//! Schema v4 adds the device-fleet section: `fleet.devices`,
//! `fleet.degraded`, `fleet.dead` (dead device ordinals), and
//! `fleet.per_device` — one object per device with its job counts,
//! logical queue depth, homed plan bytes, and hot hit rate, so a fleet
//! `--min-hot-hit-rate` gate can see *which* device is cold.

use crate::cache::CacheCounters;
use crate::fleet::DeviceLoadSnapshot;
use crate::observe::{check_tenants, SloEval, SloSpec, SLO_EVAL, SLO_RULES};
use crate::service::{SolverService, StatsSnapshot};
use gplu_core::drift::DRIFT_TABLE;
use gplu_core::telemetry::{fleet_devices, one_per_device};
use gplu_core::DriftTable;
use gplu_trace::json::{self, at_most, Field, JsonValue, Kind::*, Rule};
use gplu_trace::MetricsRegistry;

/// Version tag of the service-report JSON schema.
pub const SERVICE_SCHEMA_VERSION: u64 = 4;

/// Linear-interpolation percentile over an unsorted sample (ns). `p` in
/// `[0, 100]`; returns 0.0 for an empty sample.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = (p / 100.0) * (s.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    if lo == hi {
        s[lo]
    } else {
        let frac = rank - lo as f64;
        s[lo] * (1.0 - frac) + s[hi] * frac
    }
}

/// Everything the stress subcommand reports about a service run.
#[derive(Debug, Clone)]
pub struct ServiceReport {
    /// Counter snapshot at report time.
    pub stats: StatsSnapshot,
    /// Cache counters at report time.
    pub cache: CacheCounters,
    /// Patterns resident in the cache.
    pub cache_entries: usize,
    /// Cache budget bytes charged.
    pub cache_used_bytes: u64,
    /// Configured cache budget.
    pub cache_budget_bytes: u64,
    /// Patterns resident in the host tier.
    pub host_entries: usize,
    /// Host-tier bytes charged.
    pub host_used_bytes: u64,
    /// Configured host-tier budget (0 = tier disabled).
    pub host_budget_bytes: u64,
    /// Whether the service was configured with a persistent tier.
    pub disk_enabled: bool,
    /// Whether the persistent tier is in the `down` degraded mode.
    pub disk_down: bool,
    /// Queue capacity.
    pub queue_cap: usize,
    /// Full metrics-registry snapshot, gauges read at capture (`None`
    /// when observability off).
    pub metrics: Option<JsonValue>,
    /// Per-tenant latency quantiles (`None` when observability off).
    pub tenants: Option<JsonValue>,
    /// Sliding-window SLO verdict (`None` when observability off).
    pub slo_eval: Option<SloEval>,
    /// Cost-model drift table (`None` when observability off).
    pub drift_table: Option<DriftTable>,
}

impl ServiceReport {
    /// Snapshots a running service. SLO sections are evaluated against
    /// the threshold-free default spec (quantiles reported, nothing
    /// gated); use [`ServiceReport::capture_with_slo`] to gate.
    pub fn capture(svc: &SolverService) -> Self {
        Self::capture_with_slo(svc, None)
    }

    /// Snapshots a running service, evaluating the SLO window against
    /// `spec` when given.
    pub fn capture_with_slo(svc: &SolverService, spec: Option<&SloSpec>) -> Self {
        let obs = svc.observability();
        let default_spec = SloSpec::default();
        ServiceReport {
            stats: svc.stats(),
            cache: svc.cache_counters(),
            cache_entries: svc.cache().len(),
            cache_used_bytes: svc.cache().used_bytes(),
            cache_budget_bytes: svc.cache_budget(),
            host_entries: svc.cache().host_len(),
            host_used_bytes: svc.cache().host_used_bytes(),
            host_budget_bytes: svc.cache().host_capacity(),
            disk_enabled: svc.cache().disk_enabled(),
            disk_down: svc.cache().disk_down(),
            queue_cap: svc.queue_cap(),
            metrics: svc.metrics().map(MetricsRegistry::to_json),
            tenants: obs.map(|o| o.tenants_json()),
            slo_eval: obs.map(|o| o.slo(spec.unwrap_or(&default_spec))),
            drift_table: obs.map(|o| o.drift_table()),
        }
    }

    /// The JSON document, written from [`SERVICE_REPORT`].
    pub fn to_json(&self) -> JsonValue {
        json::write(SERVICE_REPORT, self)
    }

    /// One-paragraph human summary (plus SLO and drift lines when the
    /// service ran with observability on).
    pub fn summary(&self) -> String {
        let s = &self.stats;
        let mut out = format!(
            "jobs: {} completed ({} cold / {} warm / {} host / {} disk / {} cached), \
             {} failed, {} rejected, {} shed, {} cancelled, {} past deadline | \
             hot hit rate {:.1}% ({}/{}) | cache: {} patterns, {}/{} bytes, \
             {} evictions | sim p50 {:.0} ns p95 {:.0} ns | \
             faults injected {} (recovered {} jobs) | \
             gate failures {} ({} patterns quarantined, {} fast-rejected)",
            s.completed,
            s.cold,
            s.warm,
            s.warm_host,
            s.warm_disk,
            s.cached_solve,
            s.failed,
            s.rejected,
            s.load_shed,
            s.cancelled,
            s.deadline_dropped,
            s.hot_hit_rate() * 100.0,
            s.hot_hits,
            s.hot_jobs,
            self.cache_entries,
            self.cache_used_bytes,
            self.cache_budget_bytes,
            self.cache.evictions,
            percentile(&s.sim_ns, 50.0),
            percentile(&s.sim_ns, 95.0),
            s.injected_faults,
            s.jobs_recovered,
            s.gate_failures,
            s.quarantined_patterns,
            s.quarantine_rejected,
        );
        if self.disk_enabled {
            out.push_str(&format!(
                "\ndisk tier: {} | {} writes ({} failed), {} hits, {} rejects, \
                 {} rewarmed | host tier: {} entries, {}/{} bytes, {} hits",
                if self.disk_down {
                    "DOWN (degraded)"
                } else {
                    "up"
                },
                self.cache.disk_writes,
                self.cache.disk_write_failures,
                self.cache.disk_hits,
                self.cache.disk_rejects,
                self.cache.rewarmed,
                self.host_entries,
                self.host_used_bytes,
                self.host_budget_bytes,
                self.cache.host_hits,
            ));
        }
        let fleet = &s.devices;
        if fleet.len() > 1 {
            let per: Vec<String> = fleet
                .iter()
                .map(|d| {
                    format!(
                        "d{}{}: {} jobs, hot hit rate {:.1}% ({}/{})",
                        d.device,
                        if d.dead { " DEAD" } else { "" },
                        d.jobs,
                        d.hot_hit_rate() * 100.0,
                        d.hot_hits,
                        d.hot_jobs,
                    )
                })
                .collect();
            out.push_str(&format!(
                "\nfleet: {} devices{} | {}",
                fleet.len(),
                if fleet.iter().any(|d| d.dead) {
                    " (DEGRADED)"
                } else {
                    ""
                },
                per.join(" | "),
            ));
        }
        if let Some(slo) = &self.slo_eval {
            out.push('\n');
            out.push_str(&slo.summary());
        }
        if let Some(drift) = &self.drift_table {
            out.push('\n');
            out.push_str(drift.summary().trim_end());
        }
        out
    }
}

/// Share of the completed jobs that `count` makes up.
fn share(r: &ServiceReport, count: u64) -> JsonValue {
    (count as f64 / r.stats.completed.max(1) as f64).into()
}

/// The service report's fields.
#[rustfmt::skip]
pub const SERVICE_REPORT: &[Field<ServiceReport>] = &[
    ("/service_schema_version", Version(SERVICE_SCHEMA_VERSION), |_| SERVICE_SCHEMA_VERSION.into()),
    ("/jobs/submitted", Count, |r| r.stats.submitted.into()),
    ("/jobs/completed", Count, |r| r.stats.completed.into()),
    ("/jobs/failed", Count, |r| r.stats.failed.into()),
    ("/jobs/cancelled", Count, |r| r.stats.cancelled.into()),
    ("/jobs/deadline_dropped", Count, |r| r.stats.deadline_dropped.into()),
    ("/jobs/cold", Count, |r| r.stats.cold.into()),
    ("/jobs/warm", Count, |r| r.stats.warm.into()),
    ("/jobs/warm_host", Count, |r| r.stats.warm_host.into()),
    ("/jobs/warm_disk", Count, |r| r.stats.warm_disk.into()),
    ("/jobs/cached_solve", Count, |r| r.stats.cached_solve.into()),
    ("/jobs/load_shed", Count, |r| r.stats.load_shed.into()),
    ("/cache/budget_bytes", Count, |r| r.cache_budget_bytes.into()),
    ("/cache/used_bytes", Count, |r| r.cache_used_bytes.into()),
    ("/cache/entries", Count, |r| r.cache_entries.into()),
    ("/cache/hits", Count, |r| r.cache.hits.into()),
    ("/cache/misses", Count, |r| r.cache.misses.into()),
    ("/cache/insertions", Count, |r| r.cache.insertions.into()),
    ("/cache/evictions", Count, |r| r.cache.evictions.into()),
    ("/cache/oversize_skipped", Count, |r| r.cache.oversize_skipped.into()),
    ("/cache/plans_built", Count, |r| r.stats.plans_built.into()),
    ("/cache/hot_jobs", Count, |r| r.stats.hot_jobs.into()),
    ("/cache/hot_hits", Count, |r| r.stats.hot_hits.into()),
    ("/cache/hot_hit_rate", Rate, |r| r.stats.hot_hit_rate().into()),
    ("/cache/host/budget_bytes", Count, |r| r.host_budget_bytes.into()),
    ("/cache/host/used_bytes", Count, |r| r.host_used_bytes.into()),
    ("/cache/host/entries", Count, |r| r.host_entries.into()),
    ("/cache/host/hits", Count, |r| r.cache.host_hits.into()),
    ("/cache/host/demotions", Count, |r| r.cache.demotions.into()),
    ("/cache/host/evictions", Count, |r| r.cache.host_evictions.into()),
    ("/cache/host/promotions", Count, |r| r.cache.promotions.into()),
    ("/cache/disk/enabled", Bool, |r| r.disk_enabled.into()),
    ("/cache/disk/down", Bool, |r| r.disk_down.into()),
    ("/cache/disk/hits", Count, |r| r.cache.disk_hits.into()),
    ("/cache/disk/writes", Count, |r| r.cache.disk_writes.into()),
    ("/cache/disk/write_failures", Count, |r| r.cache.disk_write_failures.into()),
    ("/cache/disk/read_failures", Count, |r| r.cache.disk_read_failures.into()),
    ("/cache/disk/rejects", Count, |r| r.cache.disk_rejects.into()),
    ("/cache/disk/rewarmed", Count, |r| r.cache.rewarmed.into()),
    ("/latency/sim_p50_ns", Num, |r| percentile(&r.stats.sim_ns, 50.0).into()),
    ("/latency/sim_p95_ns", Num, |r| percentile(&r.stats.sim_ns, 95.0).into()),
    ("/latency/wall_p50_ns", Num, |r| percentile(&r.stats.wall_ns, 50.0).into()),
    ("/latency/wall_p95_ns", Num, |r| percentile(&r.stats.wall_ns, 95.0).into()),
    ("/tiers/cold_share", Rate, |r| share(r, r.stats.cold)),
    ("/tiers/warm_share", Rate, |r| share(r, r.stats.warm)),
    ("/tiers/warm_host_share", Rate, |r| share(r, r.stats.warm_host)),
    ("/tiers/warm_disk_share", Rate, |r| share(r, r.stats.warm_disk)),
    ("/tiers/cached_solve_share", Rate, |r| share(r, r.stats.cached_solve)),
    ("/tiers/hot_hit_rate", Rate, |r| r.stats.hot_hit_rate().into()),
    ("/queue/capacity", Count, |r| r.queue_cap.into()),
    ("/queue/max_depth", Count, |r| r.stats.max_depth.into()),
    ("/queue/rejections", Count, |r| r.stats.rejected.into()),
    ("/faults/injected", Count, |r| r.stats.injected_faults.into()),
    ("/faults/jobs_recovered", Count, |r| r.stats.jobs_recovered.into()),
    ("/robustness/gate_failures", Count, |r| r.stats.gate_failures.into()),
    ("/robustness/quarantine_rejected", Count, |r| r.stats.quarantine_rejected.into()),
    ("/robustness/quarantined_patterns", Count, |r| r.stats.quarantined_patterns.into()),
    ("/fleet", Object(|v| json::check(FLEET, FLEET_RULES, v)), |r| json::write(FLEET, &r.stats.devices)),
    ("/metrics", Optional(&Object(|v| MetricsRegistry::from_json(v).map(drop).map_err(|e| format!(": {e}")))), |r| r.metrics.clone().into()),
    ("/tenants", Optional(&Object(check_tenants)), |r| r.tenants.clone().into()),
    ("/slo", Optional(&Object(|v| json::check(SLO_EVAL, SLO_RULES, v))), |r| r.slo_eval.as_ref().map(SloEval::to_json).into()),
    ("/drift", Optional(&Object(|v| json::check(DRIFT_TABLE, &[], v))), |r| r.drift_table.as_ref().map(DriftTable::to_json).into()),
];

/// Completed jobs by the tier that served them; the warm tier is split
/// by rescue provenance (device, host, disk).
const TIERS: [&str; 5] = [
    "/jobs/cold",
    "/jobs/warm",
    "/jobs/cached_solve",
    "/jobs/warm_host",
    "/jobs/warm_disk",
];

/// The service report's cross-field rules.
#[rustfmt::skip]
pub const SERVICE_RULES: &[Rule] = &[
    ("/jobs/submitted", |d| at_most(d, &["/jobs/completed", "/jobs/failed", "/jobs/cancelled", "/jobs/deadline_dropped"], &["/jobs/submitted"])),
    ("/jobs/completed", |d| at_most(d, &TIERS, &["/jobs/completed"]).and(at_most(d, &["/jobs/completed"], &TIERS))),
    ("/cache/used_bytes", |d| at_most(d, &["/cache/used_bytes"], &["/cache/budget_bytes"])),
    ("/cache/host/used_bytes", |d| at_most(d, &["/cache/host/used_bytes"], &["/cache/host/budget_bytes"])),
    // A report claiming disk rescues must have the disk tier enabled.
    ("/cache/disk/hits", |d| {
        let enabled = d.pointer("/cache/disk/enabled") == Some(&JsonValue::Bool(true));
        if d.number_at("/cache/disk/hits") > 0.0 && !enabled {
            return Err(": hits reported with the disk tier disabled".into());
        }
        Ok(())
    }),
    ("/latency/sim_p50_ns", |d| at_most(d, &["/latency/sim_p50_ns"], &["/latency/sim_p95_ns"])),
    ("/latency/wall_p50_ns", |d| at_most(d, &["/latency/wall_p50_ns"], &["/latency/wall_p95_ns"])),
    ("/queue/max_depth", |d| at_most(d, &["/queue/max_depth"], &["/queue/capacity"])),
    // Every quarantined pattern took at least one recorded strike.
    ("/robustness/quarantined_patterns", |d| at_most(d, &["/robustness/quarantined_patterns"], &["/robustness/gate_failures"])),
    // A device can only finish jobs that were actually submitted.
    ("/fleet/per_device", |d| {
        let per_device = d.array_at("/fleet/per_device").iter();
        let placed: f64 = per_device.map(|x| x.number_at("/jobs")).sum();
        if placed > d.number_at("/jobs/submitted") {
            return Err(format!(": devices finished {placed} jobs, more than /jobs/submitted"));
        }
        Ok(())
    }),
];

/// The fleet scheduler's section: one entry per device, in device order.
#[rustfmt::skip]
pub const FLEET: &[Field<Vec<DeviceLoadSnapshot>>] = &[
    ("/devices", Count, |f| f.len().into()),
    ("/degraded", Bool, |f| f.iter().any(|d| d.dead).into()),
    ("/dead", Array(&Count), |f| f.iter().filter(|d| d.dead).map(|d| d.device).collect()),
    ("/per_device", Array(&Object(|v| json::check(DEVICE, DEVICE_RULES, v))), |f| f.iter().map(|d| json::write(DEVICE, d)).collect()),
];

/// The fleet section's cross-field rules.
pub const FLEET_RULES: &[Rule] = &[
    ("", fleet_devices),
    ("/per_device", |f| one_per_device(f, "/per_device")),
    ("/per_device", |f| {
        for (i, d) in f.array_at("/per_device").iter().enumerate() {
            let device = d.number_at("/device");
            if device != i as f64 {
                return Err(format!(
                    "/{i}/device: device {device} listed at position {i}"
                ));
            }
        }
        Ok(())
    }),
];

/// One entry of the fleet section's `per_device`.
#[rustfmt::skip]
pub const DEVICE: &[Field<DeviceLoadSnapshot>] = &[
    ("/device", Count, |d| d.device.into()),
    ("/jobs", Count, |d| d.jobs.into()),
    ("/queued", Count, |d| d.queued.into()),
    ("/hot_jobs", Count, |d| d.hot_jobs.into()),
    ("/hot_hits", Count, |d| d.hot_hits.into()),
    ("/hot_hit_rate", Rate, |d| d.hot_hit_rate().into()),
    ("/plan_bytes", Count, |d| d.plan_bytes.into()),
    ("/dead", Bool, |d| d.dead.into()),
];

/// A device's hot hits are among its hot jobs.
const DEVICE_RULES: &[Rule] = &[("/hot_hits", |d| at_most(d, &["/hot_hits"], &["/hot_jobs"]))];

/// Validates a parsed service report against [`SERVICE_REPORT`] and
/// [`SERVICE_RULES`]. The error starts with the failing field's JSON
/// pointer.
pub fn check_service_report(doc: &JsonValue) -> Result<(), String> {
    json::check(SERVICE_REPORT, SERVICE_RULES, doc)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates() {
        let v = vec![10.0, 20.0, 30.0, 40.0];
        assert_eq!(percentile(&v, 0.0), 10.0);
        assert_eq!(percentile(&v, 100.0), 40.0);
        assert_eq!(percentile(&v, 50.0), 25.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(percentile(&[7.0], 95.0), 7.0);
    }

    #[test]
    fn report_json_has_the_schema_sections() {
        let report = ServiceReport {
            stats: StatsSnapshot {
                submitted: 3,
                completed: 3,
                cold: 1,
                warm: 2,
                hot_jobs: 2,
                hot_hits: 2,
                sim_ns: vec![100.0, 200.0, 300.0],
                wall_ns: vec![1000.0, 2000.0, 3000.0],
                devices: vec![DeviceLoadSnapshot::default()],
                ..Default::default()
            },
            cache: CacheCounters::default(),
            cache_entries: 1,
            cache_used_bytes: 4096,
            cache_budget_bytes: 1 << 20,
            host_entries: 0,
            host_used_bytes: 0,
            host_budget_bytes: 1 << 20,
            disk_enabled: false,
            disk_down: false,
            queue_cap: 64,
            metrics: None,
            tenants: None,
            slo_eval: None,
            drift_table: None,
        };
        let doc = report.to_json();
        assert_eq!(
            doc.get("service_schema_version")
                .and_then(JsonValue::as_u64),
            Some(SERVICE_SCHEMA_VERSION)
        );
        check_service_report(&doc).expect("valid service report");
        // Observability sections are absent when captured without obs.
        for section in ["metrics", "tenants", "slo", "drift"] {
            assert!(doc.get(section).is_none(), "unexpected {section}");
        }
        let parsed = gplu_trace::json::parse(&doc.to_pretty()).expect("round-trips");
        assert_eq!(
            parsed
                .get("cache")
                .and_then(|c| c.get("hot_hit_rate"))
                .and_then(JsonValue::as_f64),
            Some(1.0)
        );
        assert!(!report.summary().is_empty());
    }
}

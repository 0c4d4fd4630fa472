//! The machine-readable run report.
//!
//! [`RunReport`] is the versioned JSON superset of [`PhaseReport`]: phase
//! timings, per-phase GPU statistics deltas, per-level numeric records
//! (extracted from the `numeric.level` spans a [`gplu_trace::Recorder`]
//! captured), and the recovery log. The schema is the field tables
//! below, one per object: [`RUN_REPORT`] (with [`RUN_RULES`]),
//! [`GPU_SNAPSHOT`] for each phase under `gpu`, [`LEVEL`] for each
//! entry of `levels`, [`RECOVERY`] for each entry of `recovery`, and
//! [`FLEET`] (with [`FLEET_RULES`]) for the `fleet` object that only
//! `--devices` runs carry, and [`PIVOT`] (with [`PIVOT_RULES`]) for the
//! `pivot` object that only passes running threshold-pivot discovery
//! carry. [`RunReport::to_json`] writes them and
//! [`check_run_report`] validates against them.
//!
//! `phases.total_ns` always equals the sum of the four phase fields (it is
//! written from [`PhaseReport::total`]), so consumers can cross-check a
//! report against the in-process numbers.

use crate::recovery::RecoveryEvent;
use crate::report::{FleetReport, PhaseReport};
use gplu_sim::{GpuStatsSnapshot, SimTime};
use gplu_trace::json::{self, Field, Kind::*, Rule};
use gplu_trace::{AttrValue, EventKind, JsonValue, TraceEvent};

/// Version stamp written into every report; bump on breaking layout
/// changes. Version 2 added the blocked-engine counters
/// (`numeric.gemm_tiles` plus the per-level `blocks`,
/// `mean_block_width` and `gemm_tiles` fields).
pub const SCHEMA_VERSION: u64 = 2;

/// One schedule level as the numeric engine ran it, reconstructed from a
/// `numeric.level` Begin/End span pair.
#[derive(Debug, Clone, PartialEq)]
pub struct LevelRecord {
    /// Level index in schedule order.
    pub level: u64,
    /// Columns factorized concurrently in this level.
    pub width: u64,
    /// Kernel mode letter (`A`/`B`/`C`).
    pub mode: String,
    /// Simulated wall time the level took.
    pub duration_ns: f64,
    /// Binary-search probes this level issued (binary-search engine only).
    pub probes: Option<u64>,
    /// Merge-cursor advances this level issued (merge and blocked
    /// engines).
    pub merge_steps: Option<u64>,
    /// Dense-format launch batches (dense engine only).
    pub batches: Option<u64>,
    /// Distinct supernode blocks touched (blocked engine only).
    pub blocks: Option<u64>,
    /// Mean supernode width across the level's columns (blocked engine
    /// only).
    pub mean_block_width: Option<f64>,
    /// BLAS-3 update tiles this level executed (blocked engine only).
    pub gemm_tiles: Option<u64>,
}

/// Extracts per-level records from recorded events by pairing each
/// `numeric.level` End with the innermost open Begin. When a numeric
/// ladder ran more than one engine, only the last (successful) attempt's
/// levels are kept — an End for level 0 resets the accumulation.
pub fn extract_levels(events: &[TraceEvent]) -> Vec<LevelRecord> {
    let mut open: Vec<f64> = Vec::new();
    let mut out: Vec<LevelRecord> = Vec::new();
    for e in events {
        if e.name != "numeric.level" {
            continue;
        }
        match e.kind {
            EventKind::Begin => open.push(e.ts_ns),
            EventKind::End => {
                let Some(begin_ts) = open.pop() else { continue };
                let attr_u64 = |key: &str| e.attr(key).and_then(AttrValue::as_u64);
                let level = attr_u64("level").unwrap_or(0);
                if level == 0 {
                    // A fresh engine attempt restarts at level 0; discard
                    // the aborted attempt's records.
                    out.clear();
                }
                out.push(LevelRecord {
                    level,
                    width: attr_u64("width").unwrap_or(0),
                    mode: e
                        .attr("mode")
                        .and_then(AttrValue::as_str)
                        .unwrap_or("?")
                        .to_string(),
                    duration_ns: e.ts_ns - begin_ts,
                    probes: attr_u64("probes"),
                    merge_steps: attr_u64("merge_steps"),
                    batches: attr_u64("batches"),
                    blocks: attr_u64("blocks"),
                    mean_block_width: e.attr("mean_block_width").and_then(AttrValue::as_f64),
                    gemm_tiles: attr_u64("gemm_tiles"),
                });
            }
            _ => {}
        }
    }
    out
}

/// A complete, exportable description of one factorization run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Matrix dimension.
    pub n: usize,
    /// Matrix nonzeros (input pattern, before fill).
    pub nnz: usize,
    /// The pipeline's phase accounting.
    pub report: PhaseReport,
    /// Per-level numeric records, from the trace.
    pub levels: Vec<LevelRecord>,
}

impl RunReport {
    /// Builds the report from the pipeline output and the recorded trace.
    /// `events` may be empty (report without per-level detail).
    pub fn new(n: usize, nnz: usize, report: PhaseReport, events: &[TraceEvent]) -> Self {
        RunReport {
            n,
            nnz,
            report,
            levels: extract_levels(events),
        }
    }

    /// The report as a JSON value, written from [`RUN_REPORT`].
    pub fn to_json(&self) -> JsonValue {
        json::write(RUN_REPORT, self)
    }

    /// The report as pretty-printed JSON text.
    pub fn to_json_string(&self) -> String {
        self.to_json().to_pretty()
    }
}

/// The run report's fields.
#[rustfmt::skip]
pub const RUN_REPORT: &[Field<RunReport>] = &[
    ("/schema_version", Version(SCHEMA_VERSION), |_| SCHEMA_VERSION.into()),
    ("/matrix/n", Count, |r| r.n.into()),
    ("/matrix/nnz", Count, |r| r.nnz.into()),
    ("/phases/preprocess_ns", Num, |r| r.report.preprocess.as_ns().into()),
    ("/phases/symbolic_ns", Num, |r| r.report.symbolic.as_ns().into()),
    ("/phases/levelize_ns", Num, |r| r.report.levelize.as_ns().into()),
    ("/phases/numeric_ns", Num, |r| r.report.numeric.as_ns().into()),
    ("/phases/total_ns", Num, |r| r.report.total().as_ns().into()),
    ("/phases/gpu_total_ns", Num, |r| r.report.gpu_total().as_ns().into()),
    ("/symbolic/iterations", Count, |r| r.report.symbolic_iterations.into()),
    ("/symbolic/chunk_size", Count, |r| r.report.chunk_size.into()),
    ("/symbolic/fault_groups", Count, |r| r.report.fault_groups().into()),
    ("/schedule/n_levels", Count, |r| r.report.n_levels.into()),
    ("/schedule/max_level_width", Count, |r| r.report.max_level_width.into()),
    ("/numeric/mode_a", Count, |r| r.report.mode_mix.0.into()),
    ("/numeric/mode_b", Count, |r| r.report.mode_mix.1.into()),
    ("/numeric/mode_c", Count, |r| r.report.mode_mix.2.into()),
    ("/numeric/m_limit", Nullable(&Count), |r| r.report.m_limit.into()),
    ("/numeric/probes", Count, |r| r.report.probes.into()),
    ("/numeric/merge_steps", Count, |r| r.report.merge_steps.into()),
    ("/numeric/gemm_tiles", Count, |r| r.report.gemm_tiles.into()),
    ("/fill/nnz", Count, |r| r.report.fill_nnz.into()),
    ("/fill/new_fill_ins", Count, |r| r.report.new_fill_ins.into()),
    ("/fill/repaired_diagonals", Count, |r| r.report.repaired_diagonals.into()),
    ("/gpu/preprocess", Object(|v| json::check(GPU_SNAPSHOT, &[], v)), |r| json::write(GPU_SNAPSHOT, &r.report.phase_stats.preprocess)),
    ("/gpu/symbolic", Object(|v| json::check(GPU_SNAPSHOT, &[], v)), |r| json::write(GPU_SNAPSHOT, &r.report.phase_stats.symbolic)),
    ("/gpu/levelize", Object(|v| json::check(GPU_SNAPSHOT, &[], v)), |r| json::write(GPU_SNAPSHOT, &r.report.phase_stats.levelize)),
    ("/gpu/numeric", Object(|v| json::check(GPU_SNAPSHOT, &[], v)), |r| json::write(GPU_SNAPSHOT, &r.report.phase_stats.numeric)),
    ("/levels", Array(&Object(|v| json::check(LEVEL, LEVEL_RULES, v))), |r| r.levels.iter().map(|l| json::write(LEVEL, l)).collect()),
    ("/recovery", Array(&Object(|v| json::check(RECOVERY, &[], v))), |r| r.report.recovery.events().iter().map(|e| json::write(RECOVERY, e)).collect()),
    ("/fleet", Optional(&Object(|v| json::check(FLEET, FLEET_RULES, v))), |r| r.report.fleet.as_ref().map(|f| json::write(FLEET, f)).into()),
    ("/pivot", Optional(&Object(|v| json::check(PIVOT, PIVOT_RULES, v))), |r| r.report.pivot_discovery.map(|_| json::write(PIVOT, &r.report)).into()),
];

/// The run report's cross-field rules.
pub const RUN_RULES: &[Rule] = &[
    ("/phases/total_ns", |doc| {
        let phases = ["preprocess_ns", "symbolic_ns", "levelize_ns", "numeric_ns"];
        let sum: f64 = phases
            .iter()
            .map(|p| doc.number_at(&format!("/phases/{p}")))
            .sum();
        let diff = (doc.number_at("/phases/total_ns") - sum).abs();
        if diff > 1e-9 {
            return Err(format!(": off the phase sum {sum} by {diff}"));
        }
        Ok(())
    }),
    // A resumed run whose every level was durable launches none.
    ("/levels", |doc| match doc.array_at("/levels") {
        [] if doc.number_at("/gpu/numeric/kernels_host") > 0.0 => {
            Err(": no per-level records".into())
        }
        _ => Ok(()),
    }),
    ("/numeric/gemm_tiles", |doc| {
        let levels = doc.array_at("/levels").iter();
        let per_level: f64 = levels.map(|l| l.number_at("/gemm_tiles")).sum();
        if per_level > doc.number_at("/numeric/gemm_tiles") {
            return Err(format!(": less than the per-level sum {per_level}"));
        }
        Ok(())
    }),
];

/// A phase's GPU statistics delta, one under `gpu` per phase.
#[rustfmt::skip]
pub const GPU_SNAPSHOT: &[Field<GpuStatsSnapshot>] = &[
    ("/kernels_host", Count, |s| s.kernels_host.into()),
    ("/kernels_device", Count, |s| s.kernels_device.into()),
    ("/dependency_waits", Count, |s| s.dependency_waits.into()),
    ("/kernel_time_ns", Num, |s| s.kernel_time.as_ns().into()),
    ("/fault_time_ns", Num, |s| s.fault_time.as_ns().into()),
    ("/fault_groups", Count, |s| s.fault_groups.into()),
    ("/h2d_bytes", Count, |s| s.h2d_bytes.into()),
    ("/d2h_bytes", Count, |s| s.d2h_bytes.into()),
    ("/xfer_time_ns", Num, |s| s.xfer_time.as_ns().into()),
    ("/prefetch_time_ns", Num, |s| s.prefetch_time.as_ns().into()),
];

/// One entry of `levels`; each engine writes only its own counters.
#[rustfmt::skip]
pub const LEVEL: &[Field<LevelRecord>] = &[
    ("/level", Count, |l| l.level.into()),
    ("/width", Count, |l| l.width.into()),
    ("/mode", Str, |l| l.mode.as_str().into()),
    ("/duration_ns", Num, |l| l.duration_ns.into()),
    ("/probes", Optional(&Count), |l| l.probes.into()),
    ("/merge_steps", Optional(&Count), |l| l.merge_steps.into()),
    ("/batches", Optional(&Count), |l| l.batches.into()),
    ("/blocks", Optional(&Count), |l| l.blocks.into()),
    ("/mean_block_width", Optional(&Num), |l| l.mean_block_width.into()),
    ("/gemm_tiles", Optional(&Count), |l| l.gemm_tiles.into()),
];

/// A level reporting blocks has a mean block width of at least one column.
const LEVEL_RULES: &[Rule] = &[("/mean_block_width", |l| {
    let mean = l.pointer("/mean_block_width").and_then(JsonValue::as_f64);
    if l.number_at("/blocks") > 0.0 && mean.is_none_or(|w| w < 1.0) {
        return Err(format!(": {mean:?} for a level with blocks"));
    }
    Ok(())
})];

/// One entry of `recovery`.
#[rustfmt::skip]
pub const RECOVERY: &[Field<RecoveryEvent>] = &[
    ("/phase", Str, |e| e.phase.to_string().into()),
    ("/action", Str, |e| e.action.to_string().into()),
];

/// The `fleet` object of a `--devices` run.
#[rustfmt::skip]
pub const FLEET: &[Field<FleetReport>] = &[
    ("/devices", Count, |f| f.devices.into()),
    ("/dead", Array(&Count), |f| f.dead.iter().copied().collect()),
    ("/per_device_ns", Array(&Num), |f| f.per_device_ns.iter().copied().collect()),
    ("/per_device_busy_ns", Array(&Num), |f| f.per_device_busy_ns.iter().copied().collect()),
    ("/resharded_rows", Count, |f| f.resharded_rows.into()),
    ("/resharded_cols", Count, |f| f.resharded_cols.into()),
    ("/exchanges", Count, |f| f.exchanges.into()),
    ("/exchange_bytes", Count, |f| f.exchange_bytes.into()),
    ("/exchange_ns", Num, |f| f.exchange_ns.into()),
];

/// The fleet object's cross-field rules.
pub const FLEET_RULES: &[Rule] = &[
    ("", fleet_devices),
    ("/per_device_ns", |f| one_per_device(f, "/per_device_ns")),
    ("/per_device_busy_ns", |f| {
        one_per_device(f, "/per_device_busy_ns")
    }),
    // Busy time is the clock advance less barrier waits: never more.
    ("/per_device_busy_ns", |f| {
        let elapsed = f.array_at("/per_device_ns");
        for (d, (e, b)) in elapsed
            .iter()
            .zip(f.array_at("/per_device_busy_ns"))
            .enumerate()
        {
            let (e, b) = (e.number_at(""), b.number_at(""));
            if !(0.0..=e).contains(&b) {
                return Err(format!("/{d}: {b} outside 0..={e} (the clock advance)"));
            }
        }
        Ok(())
    }),
    ("/dead", |f| {
        if f.array_at("/dead").len() as f64 >= f.number_at("/devices") {
            return Err(": every device dead yet the run completed".into());
        }
        Ok(())
    }),
    // Device deaths without resharded work would mean lost columns.
    ("/resharded_cols", |f| {
        let resharded = f.number_at("/resharded_rows") + f.number_at("/resharded_cols");
        if resharded == 0.0 && !f.array_at("/dead").is_empty() {
            return Err(": devices died but nothing resharded".into());
        }
        Ok(())
    }),
];

/// The `pivot` object of a pass that ran threshold-pivot discovery.
/// `discovery_ns` is the simulated time of discovery plus pattern
/// expansion, which `phases.total_ns` does not include.
#[rustfmt::skip]
pub const PIVOT: &[Field<PhaseReport>] = &[
    ("/swaps", Count, |r| r.pivot_swaps.into()),
    ("/pattern_expanded", Count, |r| r.pattern_expanded.into()),
    ("/discovery_ns", Num, |r| r.pivot_discovery.unwrap_or(SimTime::ZERO).as_ns().into()),
];

/// The pivot object's cross-field rules.
pub const PIVOT_RULES: &[Rule] = &[
    // The pattern is expanded only to cover swapped rows.
    ("/pattern_expanded", |p| {
        if p.number_at("/swaps") == 0.0 && p.number_at("/pattern_expanded") > 0.0 {
            return Err(": entries added with no swaps".into());
        }
        Ok(())
    }),
];

/// Fleet rule: the array at `key` has one entry per device.
pub fn one_per_device(fleet: &JsonValue, key: &str) -> Result<(), String> {
    let entries = fleet.array_at(key).len();
    let devices = fleet.number_at("/devices");
    if entries as f64 != devices {
        return Err(format!(": {entries} entries for {devices} devices"));
    }
    Ok(())
}

/// Fleet rule: at least one device, and `dead` lists distinct device
/// ordinals below `devices`.
pub fn fleet_devices(fleet: &JsonValue) -> Result<(), String> {
    let (devices, dead) = (fleet.number_at("/devices"), fleet.array_at("/dead"));
    if devices == 0.0 {
        return Err("/devices: zero devices".into());
    }
    match (0..dead.len())
        .find(|&i| dead[i].number_at("") >= devices || dead[..i].contains(&dead[i]))
    {
        Some(i) => Err(format!(
            "/dead/{i}: not a distinct device ordinal below {devices}"
        )),
        None => Ok(()),
    }
}

/// Validates a parsed run report against [`RUN_REPORT`] and
/// [`RUN_RULES`]. The error starts with the failing field's JSON pointer.
pub fn check_run_report(doc: &JsonValue) -> Result<(), String> {
    json::check(RUN_REPORT, RUN_RULES, doc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gplu_sim::SimTime;

    fn level_span(
        level: u64,
        begin: f64,
        end: f64,
        extra: &'static str,
        v: u64,
    ) -> [TraceEvent; 2] {
        [
            TraceEvent {
                name: "numeric.level",
                cat: "level",
                kind: EventKind::Begin,
                ts_ns: begin,
                wall_ns: 0,
                attrs: vec![("level", level.into()), ("width", 2u64.into())],
            },
            TraceEvent {
                name: "numeric.level",
                cat: "level",
                kind: EventKind::End,
                ts_ns: end,
                wall_ns: 0,
                attrs: vec![
                    ("level", level.into()),
                    ("width", 2u64.into()),
                    ("mode", "A".into()),
                    (extra, v.into()),
                ],
            },
        ]
    }

    #[test]
    fn extracts_levels_with_durations() {
        let mut events = Vec::new();
        events.extend(level_span(0, 10.0, 25.0, "probes", 3));
        events.extend(level_span(1, 25.0, 40.0, "probes", 5));
        let levels = extract_levels(&events);
        assert_eq!(levels.len(), 2);
        assert_eq!(levels[0].level, 0);
        assert!((levels[0].duration_ns - 15.0).abs() < 1e-12);
        assert_eq!(levels[0].probes, Some(3));
        assert_eq!(levels[0].merge_steps, None);
        assert_eq!(levels[1].probes, Some(5));
    }

    #[test]
    fn ladder_retry_keeps_only_last_attempt() {
        let mut events = Vec::new();
        // A dense attempt that got through two levels before failing…
        events.extend(level_span(0, 0.0, 5.0, "batches", 1));
        events.extend(level_span(1, 5.0, 9.0, "batches", 1));
        // …then the merge retry from level 0.
        events.extend(level_span(0, 20.0, 26.0, "merge_steps", 7));
        events.extend(level_span(1, 26.0, 31.0, "merge_steps", 9));
        let levels = extract_levels(&events);
        assert_eq!(levels.len(), 2);
        assert_eq!(levels[0].merge_steps, Some(7));
        assert_eq!(levels[0].batches, None);
    }

    #[test]
    fn empty_run_produces_a_valid_report() {
        // A run that failed before the first span — or one traced through
        // the no-op sink — still exports a well-formed report: schema
        // stamp, zeroed phases, empty levels/recovery arrays.
        let run = RunReport::new(0, 0, PhaseReport::default(), &[]);
        assert!(run.levels.is_empty());
        let doc = gplu_trace::json::parse(&run.to_json_string()).expect("valid json");
        assert_eq!(
            doc.get("schema_version").and_then(JsonValue::as_u64),
            Some(SCHEMA_VERSION)
        );
        let levels = doc
            .get("levels")
            .and_then(JsonValue::as_arr)
            .expect("levels array");
        assert!(levels.is_empty());
        let recovery = doc
            .get("recovery")
            .and_then(JsonValue::as_arr)
            .expect("recovery array");
        assert!(recovery.is_empty());
        assert_eq!(
            doc.get("phases")
                .and_then(|p| p.get("total_ns"))
                .and_then(JsonValue::as_f64),
            Some(0.0)
        );

        // Dangling Begin spans (aborted numeric phase) never produce
        // phantom level records.
        let dangling = [TraceEvent {
            name: "numeric.level",
            cat: "level",
            kind: EventKind::Begin,
            ts_ns: 4.0,
            wall_ns: 0,
            attrs: vec![("level", 0u64.into())],
        }];
        assert!(extract_levels(&dangling).is_empty());
    }

    #[test]
    fn json_totals_match_phase_report() {
        let report = PhaseReport {
            preprocess: SimTime::from_us(1.0),
            symbolic: SimTime::from_us(2.5),
            levelize: SimTime::from_us(0.5),
            numeric: SimTime::from_us(4.0),
            ..Default::default()
        };
        let total = report.total().as_ns();
        let run = RunReport::new(100, 500, report, &[]);
        let doc = gplu_trace::json::parse(&run.to_json_string()).expect("valid json");
        assert_eq!(
            doc.get("schema_version").and_then(JsonValue::as_u64),
            Some(SCHEMA_VERSION)
        );
        let phases = doc.get("phases").expect("phases");
        let total_json = phases
            .get("total_ns")
            .and_then(JsonValue::as_f64)
            .expect("total_ns");
        assert!((total_json - total).abs() < 1e-9);
        let sum: f64 = ["preprocess_ns", "symbolic_ns", "levelize_ns", "numeric_ns"]
            .iter()
            .map(|k| phases.get(k).and_then(JsonValue::as_f64).expect("phase"))
            .sum();
        assert!((sum - total).abs() < 1e-9);
        assert_eq!(
            doc.get("matrix")
                .and_then(|m| m.get("n"))
                .and_then(JsonValue::as_u64),
            Some(100)
        );
        // m_limit: None serializes as null.
        assert!(matches!(
            doc.get("numeric").and_then(|n| n.get("m_limit")),
            Some(JsonValue::Null)
        ));
    }
}

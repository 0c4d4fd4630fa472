//! The machine-readable run report.
//!
//! [`RunReport`] is the versioned JSON superset of [`PhaseReport`]: phase
//! timings, per-phase GPU statistics deltas, per-level numeric records
//! (extracted from the `numeric.level` spans a [`gplu_trace::Recorder`]
//! captured), and the recovery log. The schema:
//!
//! ```text
//! {
//!   "schema_version": 2,
//!   "matrix":  { "n": u64, "nnz": u64 },
//!   "phases":  { "preprocess_ns": f64, "symbolic_ns": f64,
//!                "levelize_ns": f64, "numeric_ns": f64,
//!                "total_ns": f64, "gpu_total_ns": f64 },
//!   "symbolic": { "iterations": u64, "chunk_size": u64,
//!                 "fault_groups": u64 },
//!   "schedule": { "n_levels": u64, "max_level_width": u64 },
//!   "numeric":  { "mode_a": u64, "mode_b": u64, "mode_c": u64,
//!                 "m_limit": u64|null, "probes": u64,
//!                 "merge_steps": u64, "gemm_tiles": u64 },
//!   "fill":     { "nnz": u64, "new_fill_ins": u64,
//!                 "repaired_diagonals": u64 },
//!   "gpu": { "<phase>": { "kernels_host": u64, "kernels_device": u64,
//!                         "dependency_waits": u64,
//!                         "kernel_time_ns": f64, "fault_time_ns": f64,
//!                         "fault_groups": u64, "h2d_bytes": u64,
//!                         "d2h_bytes": u64, "xfer_time_ns": f64,
//!                         "prefetch_time_ns": f64 }, ... },
//!   "levels": [ { "level": u64, "width": u64, "mode": "A"|"B"|"C",
//!                 "duration_ns": f64, "probes": u64?, "merge_steps": u64?,
//!                 "batches": u64?, "blocks": u64?,
//!                 "mean_block_width": f64?, "gemm_tiles": u64? }, ... ],
//!   "recovery": [ { "phase": str, "action": str }, ... ],
//!   "fleet":   { "devices": u64, "dead": [u64...],
//!                "per_device_ns": [f64...],
//!                "per_device_busy_ns": [f64...], "resharded_rows": u64,
//!                "resharded_cols": u64, "exchanges": u64,
//!                "exchange_bytes": u64, "exchange_ns": f64 }?   // fleet runs only
//! }
//! ```
//!
//! `phases.total_ns` always equals the sum of the four phase fields (it is
//! written from [`PhaseReport::total`]), so consumers can cross-check a
//! report against the in-process numbers.

use crate::report::PhaseReport;
use gplu_sim::GpuStatsSnapshot;
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

    /// The report as a JSON value (schema documented at module level).
    pub fn to_json(&self) -> JsonValue {
        let r = &self.report;
        let phases = JsonValue::obj()
            .set("preprocess_ns", r.preprocess.as_ns())
            .set("symbolic_ns", r.symbolic.as_ns())
            .set("levelize_ns", r.levelize.as_ns())
            .set("numeric_ns", r.numeric.as_ns())
            .set("total_ns", r.total().as_ns())
            .set("gpu_total_ns", r.gpu_total().as_ns());

        let gpu = JsonValue::obj()
            .set("preprocess", snapshot_json(&r.phase_stats.preprocess))
            .set("symbolic", snapshot_json(&r.phase_stats.symbolic))
            .set("levelize", snapshot_json(&r.phase_stats.levelize))
            .set("numeric", snapshot_json(&r.phase_stats.numeric));

        let levels: Vec<JsonValue> = self.levels.iter().map(level_json).collect();
        let recovery: Vec<JsonValue> = r
            .recovery
            .events()
            .iter()
            .map(|e| {
                JsonValue::obj()
                    .set("phase", e.phase.to_string())
                    .set("action", e.action.to_string())
            })
            .collect();

        let mut out = JsonValue::obj()
            .set("schema_version", SCHEMA_VERSION)
            .set(
                "matrix",
                JsonValue::obj().set("n", self.n).set("nnz", self.nnz),
            )
            .set("phases", phases)
            .set(
                "symbolic",
                JsonValue::obj()
                    .set("iterations", r.symbolic_iterations)
                    .set("chunk_size", r.chunk_size)
                    .set("fault_groups", r.fault_groups()),
            )
            .set(
                "schedule",
                JsonValue::obj()
                    .set("n_levels", r.n_levels)
                    .set("max_level_width", r.max_level_width),
            )
            .set(
                "numeric",
                JsonValue::obj()
                    .set("mode_a", r.mode_mix.0)
                    .set("mode_b", r.mode_mix.1)
                    .set("mode_c", r.mode_mix.2)
                    .set("m_limit", r.m_limit)
                    .set("probes", r.probes)
                    .set("merge_steps", r.merge_steps)
                    .set("gemm_tiles", r.gemm_tiles),
            )
            .set(
                "fill",
                JsonValue::obj()
                    .set("nnz", r.fill_nnz)
                    .set("new_fill_ins", r.new_fill_ins)
                    .set("repaired_diagonals", r.repaired_diagonals),
            )
            .set("gpu", gpu)
            .set("levels", levels)
            .set("recovery", recovery);
        if let Some(fl) = &r.fleet {
            let ns_array = |ns: &[f64]| -> Vec<JsonValue> {
                ns.iter().map(|&ns| JsonValue::from(ns)).collect()
            };
            let dead: Vec<JsonValue> = fl.dead.iter().map(|&d| JsonValue::from(d)).collect();
            out = out.set(
                "fleet",
                JsonValue::obj()
                    .set("devices", fl.devices)
                    .set("dead", dead)
                    .set("per_device_ns", ns_array(&fl.per_device_ns))
                    .set("per_device_busy_ns", ns_array(&fl.per_device_busy_ns))
                    .set("resharded_rows", fl.resharded_rows)
                    .set("resharded_cols", fl.resharded_cols)
                    .set("exchanges", fl.exchanges)
                    .set("exchange_bytes", fl.exchange_bytes)
                    .set("exchange_ns", fl.exchange_ns),
            );
        }
        out
    }

    /// The report as pretty-printed JSON text.
    pub fn to_json_string(&self) -> String {
        self.to_json().to_pretty()
    }
}

fn snapshot_json(s: &GpuStatsSnapshot) -> JsonValue {
    JsonValue::obj()
        .set("kernels_host", s.kernels_host)
        .set("kernels_device", s.kernels_device)
        .set("dependency_waits", s.dependency_waits)
        .set("kernel_time_ns", s.kernel_time.as_ns())
        .set("fault_time_ns", s.fault_time.as_ns())
        .set("fault_groups", s.fault_groups)
        .set("h2d_bytes", s.h2d_bytes)
        .set("d2h_bytes", s.d2h_bytes)
        .set("xfer_time_ns", s.xfer_time.as_ns())
        .set("prefetch_time_ns", s.prefetch_time.as_ns())
}

fn level_json(l: &LevelRecord) -> JsonValue {
    let mut out = JsonValue::obj()
        .set("level", l.level)
        .set("width", l.width)
        .set("mode", l.mode.clone())
        .set("duration_ns", l.duration_ns);
    if let Some(p) = l.probes {
        out = out.set("probes", p);
    }
    if let Some(m) = l.merge_steps {
        out = out.set("merge_steps", m);
    }
    if let Some(b) = l.batches {
        out = out.set("batches", b);
    }
    if let Some(b) = l.blocks {
        out = out.set("blocks", b);
    }
    if let Some(w) = l.mean_block_width {
        out = out.set("mean_block_width", w);
    }
    if let Some(g) = l.gemm_tiles {
        out = out.set("gemm_tiles", g);
    }
    out
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
                attrs: vec![("level", level.into()), ("width", 2u64.into())],
            },
            TraceEvent {
                name: "numeric.level",
                cat: "level",
                kind: EventKind::End,
                ts_ns: end,
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

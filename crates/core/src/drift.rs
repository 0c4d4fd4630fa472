//! Cost-model drift profiler: predicted-vs-observed simulated time per
//! span kind.
//!
//! The planning heuristics (`Auto` format selection, `blocked_crossover`,
//! the symbolic chunk split) all reason about the [`CostModel`]'s
//! *analytic* prices — flop rates, bandwidth roofs, launch overheads —
//! while the simulator actually *schedules* the work (greedy list
//! scheduling onto `tb_max` slots, makespan quantization, fault
//! serialization). The two agree closely when the model is calibrated;
//! when either side rots (a kernel re-priced without re-fitting the
//! model, a scheduler change, a new fault term), they diverge — and
//! nothing noticed, because nothing compared them. This module is the
//! comparator.
//!
//! Instrumented span sites (`gplu-symbolic` chunks, `gplu-numeric` levels
//! and trisolves) emit `drift.sample` instants carrying the span's
//! observed scheduled time and the analytic prediction over the same
//! interval (both clocks come from [`Gpu::clocks`], read atomically).
//! [`DriftProfiler`] is a [`TraceSink`] that folds those samples into
//! per-kind accumulators; [`DriftProfiler::table`] reduces them to a
//! [`DriftTable`] of geometric-mean observed/predicted ratios, flagging
//! any kind whose geomean drifts more than [`DRIFT_FLAG_THRESHOLD`] from
//! parity.
//!
//! Span kinds: `symbolic_chunk`, `numeric_level`, `gemm_tile` (levels
//! that executed BLAS-3 tiles — a distinct pricing path), `trisolve`.
//!
//! [`CostModel`]: gplu_sim::CostModel
//! [`Gpu::clocks`]: gplu_sim::Gpu::clocks

use gplu_trace::json::{self, Field, Kind::*};
use gplu_trace::{AttrValue, EventKind, JsonValue, TraceSink};
use std::collections::BTreeMap;
use std::sync::Mutex;

/// Geomean drift above which a span kind is flagged as mis-calibrated:
/// `|geomean(observed/predicted) - 1| > 0.10`.
pub const DRIFT_FLAG_THRESHOLD: f64 = 0.10;

/// Schema version of the drift table JSON.
pub const DRIFT_SCHEMA_VERSION: u64 = 1;

#[derive(Debug, Default, Clone, Copy)]
struct KindAccum {
    samples: u64,
    predicted_ns: f64,
    observed_ns: f64,
    /// Σ ln(observed/predicted) — the geomean is `exp(sum / samples)`.
    sum_ln_ratio: f64,
}

/// A [`TraceSink`] that accumulates `drift.sample` instants and ignores
/// everything else. Spans, counters and unrelated instants cost one
/// static-string comparison each, so threading the profiler through a hot
/// pipeline is cheap; samples take a short mutex on a four-entry map.
#[derive(Debug, Default)]
pub struct DriftProfiler {
    kinds: Mutex<BTreeMap<&'static str, KindAccum>>,
}

impl DriftProfiler {
    /// An empty profiler.
    pub fn new() -> DriftProfiler {
        DriftProfiler::default()
    }

    /// Reduces the accumulated samples to a drift table, flagging kinds
    /// past `threshold` (conventionally [`DRIFT_FLAG_THRESHOLD`]).
    pub fn table(&self, threshold: f64) -> DriftTable {
        let kinds = self.kinds.lock().expect("drift lock");
        let rows = kinds
            .iter()
            .map(|(kind, acc)| {
                let geomean = (acc.sum_ln_ratio / acc.samples as f64).exp();
                DriftRow {
                    kind: kind.to_string(),
                    samples: acc.samples,
                    predicted_ns: acc.predicted_ns,
                    observed_ns: acc.observed_ns,
                    geomean_ratio: geomean,
                    drift: (geomean - 1.0).abs(),
                    flagged: (geomean - 1.0).abs() > threshold,
                }
            })
            .collect();
        DriftTable { threshold, rows }
    }
}

impl TraceSink for DriftProfiler {
    fn enabled(&self) -> bool {
        true
    }

    fn event(
        &self,
        name: &'static str,
        _cat: &'static str,
        kind: EventKind,
        _ts_ns: f64,
        attrs: &[(&'static str, AttrValue)],
    ) {
        if name != "drift.sample" || !matches!(kind, EventKind::Instant) {
            return;
        }
        let mut span_kind = None;
        let mut predicted = None;
        let mut observed = None;
        for (key, value) in attrs {
            match (*key, value) {
                ("kind", AttrValue::Sym(s)) => span_kind = Some(*s),
                ("predicted_ns", v) => predicted = v.as_f64(),
                ("observed_ns", v) => observed = v.as_f64(),
                _ => {}
            }
        }
        let (Some(span_kind), Some(predicted), Some(observed)) = (span_kind, predicted, observed)
        else {
            return; // malformed sample: drop, don't poison the table
        };
        if observed <= 0.0 {
            return;
        }
        // A zero prediction with observed time is infinite drift; clamp
        // the denominator so the ratio stays finite and screams loudly.
        let ratio = observed / predicted.max(1e-9);
        let mut kinds = self.kinds.lock().expect("drift lock");
        let acc = kinds.entry(span_kind).or_default();
        acc.samples += 1;
        acc.predicted_ns += predicted;
        acc.observed_ns += observed;
        acc.sum_ln_ratio += ratio.ln();
    }
}

/// One span kind's drift summary.
#[derive(Debug, Clone)]
pub struct DriftRow {
    /// Span kind (`symbolic_chunk`, `numeric_level`, `gemm_tile`,
    /// `trisolve`).
    pub kind: String,
    /// Samples accumulated.
    pub samples: u64,
    /// Total analytic (predicted) simulated ns across samples.
    pub predicted_ns: f64,
    /// Total scheduled (observed) simulated ns across samples.
    pub observed_ns: f64,
    /// Geometric mean of per-sample observed/predicted ratios.
    pub geomean_ratio: f64,
    /// `|geomean_ratio - 1|`.
    pub drift: f64,
    /// True when `drift` exceeds the table's threshold.
    pub flagged: bool,
}

/// The reduced drift table the service report embeds.
#[derive(Debug, Clone)]
pub struct DriftTable {
    /// Flagging threshold the rows were evaluated against.
    pub threshold: f64,
    /// One row per span kind that produced samples, sorted by kind.
    pub rows: Vec<DriftRow>,
}

impl DriftTable {
    /// True when any span kind drifted past the threshold.
    pub fn any_flagged(&self) -> bool {
        self.rows.iter().any(|r| r.flagged)
    }

    /// The table as JSON (the `drift` section of the service report),
    /// written from [`DRIFT_TABLE`].
    pub fn to_json(&self) -> JsonValue {
        json::write(DRIFT_TABLE, self)
    }

    /// A terminal-friendly rendering for `serve --stress` summaries.
    pub fn summary(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::from("cost-model drift (geomean observed/predicted):\n");
        if self.rows.is_empty() {
            out.push_str("  no samples\n");
            return out;
        }
        for r in &self.rows {
            writeln!(
                out,
                "  {:<16} {:>8} samples  ratio {:.4}  drift {:>5.2}%{}",
                r.kind,
                r.samples,
                r.geomean_ratio,
                r.drift * 100.0,
                if r.flagged { "  ** FLAGGED **" } else { "" },
            )
            .expect("string write");
        }
        out
    }
}

/// The drift table's fields.
#[rustfmt::skip]
pub const DRIFT_TABLE: &[Field<DriftTable>] = &[
    ("/schema_version", Version(DRIFT_SCHEMA_VERSION), |_| DRIFT_SCHEMA_VERSION.into()),
    ("/threshold", Num, |t| t.threshold.into()),
    ("/kinds", Array(&Object(|v| json::check(DRIFT_ROW, &[], v))), |t| t.rows.iter().map(|r| json::write(DRIFT_ROW, r)).collect()),
];

/// One entry of the drift table's `kinds`.
#[rustfmt::skip]
pub const DRIFT_ROW: &[Field<DriftRow>] = &[
    ("/kind", Str, |r| r.kind.as_str().into()),
    ("/samples", Count, |r| r.samples.into()),
    ("/predicted_ns", Num, |r| r.predicted_ns.into()),
    ("/observed_ns", Num, |r| r.observed_ns.into()),
    ("/geomean_ratio", Num, |r| r.geomean_ratio.into()),
    ("/drift", Num, |r| r.drift.into()),
    ("/flagged", Bool, |r| r.flagged.into()),
];

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(p: &DriftProfiler, kind: &'static str, predicted: f64, observed: f64) {
        p.instant(
            "drift.sample",
            "drift",
            0.0,
            &[
                ("kind", AttrValue::Sym(kind)),
                ("predicted_ns", AttrValue::F64(predicted)),
                ("observed_ns", AttrValue::F64(observed)),
            ],
        );
    }

    #[test]
    fn accumulates_geomean_per_kind_and_flags_past_threshold() {
        let p = DriftProfiler::new();
        // numeric_level: ratios 2.0 and 0.5 — geomean exactly 1.0.
        sample(&p, "numeric_level", 100.0, 200.0);
        sample(&p, "numeric_level", 100.0, 50.0);
        // trisolve: consistent 20% overshoot.
        sample(&p, "trisolve", 1000.0, 1200.0);
        let table = p.table(DRIFT_FLAG_THRESHOLD);
        assert_eq!(table.rows.len(), 2);
        let level = &table.rows[0];
        assert_eq!(level.kind, "numeric_level");
        assert_eq!(level.samples, 2);
        assert!((level.geomean_ratio - 1.0).abs() < 1e-12);
        assert!(!level.flagged);
        let tri = &table.rows[1];
        assert!((tri.geomean_ratio - 1.2).abs() < 1e-12);
        assert!(tri.flagged);
        assert!(table.any_flagged());
    }

    #[test]
    fn ignores_unrelated_events_and_malformed_samples() {
        let p = DriftProfiler::new();
        p.span_begin("numeric.level", "level", 0.0, &[]);
        p.span_end("numeric.level", "level", 1.0, &[]);
        p.counter("service.queue_depth", "service", 2.0, 4.0);
        p.instant("drift.sample", "drift", 0.0, &[]); // missing attrs
        sample(&p, "trisolve", 100.0, 0.0); // zero observed time
        assert!(p.table(DRIFT_FLAG_THRESHOLD).rows.is_empty());
    }

    #[test]
    fn table_json_has_the_schema_fields() {
        let p = DriftProfiler::new();
        sample(&p, "symbolic_chunk", 10.0, 10.5);
        let json = p.table(DRIFT_FLAG_THRESHOLD).to_json();
        assert_eq!(
            json.get("schema_version").and_then(JsonValue::as_u64),
            Some(DRIFT_SCHEMA_VERSION)
        );
        let kinds = json.get("kinds").and_then(JsonValue::as_arr).expect("arr");
        assert_eq!(kinds.len(), 1);
        assert_eq!(
            kinds[0].get("kind").and_then(JsonValue::as_str),
            Some("symbolic_chunk")
        );
        assert_eq!(kinds[0].get("flagged"), Some(&JsonValue::Bool(false)));
    }
}

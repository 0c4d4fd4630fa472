//! Chrome trace-event exporter.
//!
//! Produces the JSON object format (`{"traceEvents": [...]}`) understood by
//! `chrome://tracing` and [Perfetto](https://ui.perfetto.dev). Timestamps
//! are the pipeline's *simulated* nanoseconds converted to the format's
//! microsecond unit, so a factorization renders as a flamegraph over
//! simulated time; each event also carries its host wall stamp
//! ([`TraceEvent::wall_ns`]) as `wall_ns`, which the viewers ignore.

use crate::event::{AttrValue, EventKind, TraceEvent};
use crate::json::{Field, JsonValue, Kind::*};

/// Single process/thread ids: the simulator is a single logical timeline.
const PID: u64 = 1;
const TID: u64 = 1;

/// One entry of `traceEvents`: the writer writes it from this table and
/// `telemetry_check` checks it against the same table.
#[rustfmt::skip]
pub const CHROME_EVENT: &[Field<TraceEvent>] = &[
    ("/name", Str, |e| e.name.into()),
    ("/cat", Str, |e| e.cat.into()),
    ("/ph", Str, |e| phase(e.kind).into()),
    ("/ts", Num, |e| (e.ts_ns / 1000.0).into()),
    ("/wall_ns", Count, |e| e.wall_ns.into()),
    ("/pid", Count, |_| PID.into()),
    ("/tid", Count, |_| TID.into()),
    // Thread-scoped instant marker.
    ("/s", Optional(&Str), |e| match e.kind {
        EventKind::Instant => "t".into(),
        _ => JsonValue::Null,
    }),
    ("/args", Optional(&Object(is_object)), args),
];

fn is_object(v: &JsonValue) -> Result<(), String> {
    match v.as_obj() {
        Some(_) => Ok(()),
        None => Err(format!(": expected an object, found {}", v.to_compact())),
    }
}

/// Renders events as Chrome trace-event JSON.
///
/// Events are stably sorted by timestamp, so the emission order breaks ties
/// — in particular a zero-length span keeps its `B` before its `E`, and
/// nested spans opened at the same instant stay properly nested. Spans left
/// open by an aborted code path (an engine erroring out of a chunk, a
/// ladder rung failing mid-phase) are closed with synthetic `E` events at
/// the final timestamp and the latest wall stamp, so the output is always
/// balanced.
pub fn chrome_trace(events: &[TraceEvent]) -> String {
    let mut ordered: Vec<&TraceEvent> = events.iter().collect();
    // total_cmp: a NaN timestamp from a hostile or truncated event log
    // sorts last instead of panicking the exporter.
    ordered.sort_by(|a, b| a.ts_ns.total_cmp(&b.ts_ns));

    let write = |e: &TraceEvent| crate::json::write(CHROME_EVENT, e);
    let mut trace_events: Vec<JsonValue> = ordered.iter().map(|e| write(e)).collect();

    // Close any span a failed code path left open (LIFO, so the synthetic
    // ends unwind the open stack innermost-first).
    let mut open: Vec<&TraceEvent> = Vec::new();
    for e in &ordered {
        match e.kind {
            EventKind::Begin => open.push(e),
            EventKind::End => {
                if let Some(i) = open.iter().rposition(|b| b.name == e.name) {
                    open.remove(i);
                }
            }
            _ => {}
        }
    }
    let last_ts = ordered.last().map_or(0.0, |e| e.ts_ns);
    let last_wall = events.iter().map(|e| e.wall_ns).max().unwrap_or(0);
    while let Some(b) = open.pop() {
        trace_events.push(write(&TraceEvent {
            kind: EventKind::End,
            ts_ns: last_ts,
            wall_ns: last_wall,
            attrs: Vec::new(),
            ..*b
        }));
    }

    JsonValue::obj()
        .set("traceEvents", trace_events)
        .set("displayTimeUnit", "ns")
        .to_compact()
}

fn phase(kind: EventKind) -> &'static str {
    match kind {
        EventKind::Begin => "B",
        EventKind::End => "E",
        EventKind::Instant => "i",
        EventKind::Counter(_) => "C",
    }
}

/// The event's attributes (and a counter's value under its name), or
/// `null` when it has none.
fn args(e: &TraceEvent) -> JsonValue {
    let mut args = JsonValue::obj();
    if let EventKind::Counter(v) = e.kind {
        args = args.set(e.name, v);
    }
    for (k, v) in &e.attrs {
        args = args.set(k, attr_json(v));
    }
    match &args {
        JsonValue::Obj(fields) if fields.is_empty() => JsonValue::Null,
        _ => args,
    }
}

fn attr_json(v: &AttrValue) -> JsonValue {
    use AttrValue::*;
    match v {
        U64(x) => JsonValue::from(*x),
        I64(x) => JsonValue::from(*x),
        F64(x) => JsonValue::from(*x),
        Bool(x) => JsonValue::from(*x),
        Sym(s) => JsonValue::from(*s),
        Str(s) => JsonValue::from(s.clone()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::AttrValue;
    use crate::json::parse;

    fn ev(name: &'static str, kind: EventKind, ts_ns: f64) -> TraceEvent {
        TraceEvent {
            name,
            cat: "test",
            kind,
            ts_ns,
            wall_ns: ts_ns as u64,
            attrs: vec![],
        }
    }

    #[test]
    fn empty_run_exports_a_valid_empty_trace() {
        // A zero-span run (factorization failed before the first event,
        // or tracing was enabled on a no-op path) must still produce a
        // well-formed document, not panic or emit garbage.
        let doc = parse(&chrome_trace(&[])).expect("valid json");
        let list = doc
            .get("traceEvents")
            .and_then(JsonValue::as_arr)
            .expect("traceEvents array");
        assert!(list.is_empty());
    }

    #[test]
    fn non_finite_timestamps_do_not_panic_the_exporter() {
        // A truncated or hand-edited event log can carry NaN timestamps;
        // the exporter sorts them deterministically instead of panicking.
        let events = vec![
            ev("a", EventKind::Begin, f64::NAN),
            ev("a", EventKind::End, 5.0),
            ev("b", EventKind::Instant, f64::INFINITY),
        ];
        let doc = parse(&chrome_trace(&events)).expect("valid json");
        let list = doc
            .get("traceEvents")
            .and_then(JsonValue::as_arr)
            .expect("traceEvents array");
        // NaN sorts last, so the Begin lands after its End and the
        // balancer closes it with a synthetic E: 3 events in, 4 out.
        assert_eq!(list.len(), 4);
        let begins = list
            .iter()
            .filter(|e| e.get("ph").and_then(JsonValue::as_str) == Some("B"))
            .count();
        let ends = list
            .iter()
            .filter(|e| e.get("ph").and_then(JsonValue::as_str) == Some("E"))
            .count();
        // Every Begin got closed (the stray input End passes through).
        assert!(
            begins <= ends,
            "some Begin was left open: {begins} B, {ends} E"
        );
    }

    #[test]
    fn emits_sorted_balanced_events() {
        let events = vec![
            ev("outer", EventKind::Begin, 0.0),
            ev("inner", EventKind::Begin, 5.0),
            ev("inner", EventKind::End, 5.0), // zero-length span
            ev("outer", EventKind::End, 10.0),
            ev("mark", EventKind::Instant, 7.0),
            ev("width", EventKind::Counter(3.0), 7.0),
        ];
        let out = chrome_trace(&events);
        let doc = parse(&out).expect("valid json");
        let list = doc
            .get("traceEvents")
            .and_then(JsonValue::as_arr)
            .expect("traceEvents array");
        assert_eq!(list.len(), 6);

        // ts non-decreasing, in microseconds.
        let ts: Vec<f64> = list
            .iter()
            .map(|e| e.get("ts").and_then(JsonValue::as_f64).expect("ts"))
            .collect();
        assert!(ts.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(ts[0], 0.0);
        assert_eq!(*ts.last().expect("non-empty"), 0.01); // 10 ns = 0.01 µs

        // B/E balanced, with the zero-length span's B before its E.
        let phs: Vec<&str> = list
            .iter()
            .map(|e| e.get("ph").and_then(JsonValue::as_str).expect("ph"))
            .collect();
        assert_eq!(phs.iter().filter(|p| **p == "B").count(), 2);
        assert_eq!(phs.iter().filter(|p| **p == "E").count(), 2);
        let inner_b = list
            .iter()
            .position(|e| {
                e.get("name").and_then(JsonValue::as_str) == Some("inner")
                    && e.get("ph").and_then(JsonValue::as_str) == Some("B")
            })
            .expect("inner B");
        assert_eq!(
            list[inner_b + 1].get("ph").and_then(JsonValue::as_str),
            Some("E")
        );

        // Counter value lands in args under the counter's name.
        let counter = list
            .iter()
            .find(|e| e.get("ph").and_then(JsonValue::as_str) == Some("C"))
            .expect("counter event");
        assert_eq!(
            counter
                .get("args")
                .and_then(|a| a.get("width"))
                .and_then(JsonValue::as_f64),
            Some(3.0)
        );
    }

    #[test]
    fn unmatched_begin_gets_synthetic_end() {
        // An engine that errored out of its chunk leaves a dangling B;
        // the exporter must still hand Perfetto a balanced trace.
        let events = vec![
            ev("phase.symbolic", EventKind::Begin, 0.0),
            ev("symbolic.chunk", EventKind::Begin, 2.0),
            ev("symbolic.chunk", EventKind::End, 4.0),
            ev("symbolic.chunk", EventKind::Begin, 6.0),
        ];
        let doc = parse(&chrome_trace(&events)).expect("valid json");
        let list = doc
            .get("traceEvents")
            .and_then(JsonValue::as_arr)
            .expect("arr");
        let phs: Vec<&str> = list
            .iter()
            .map(|e| e.get("ph").and_then(JsonValue::as_str).expect("ph"))
            .collect();
        assert_eq!(phs.iter().filter(|p| **p == "B").count(), 3);
        assert_eq!(phs.iter().filter(|p| **p == "E").count(), 3);
        // Synthetic ends unwind innermost-first at the last timestamp.
        assert_eq!(
            list[4].get("name").and_then(JsonValue::as_str),
            Some("symbolic.chunk")
        );
        assert_eq!(
            list[5].get("name").and_then(JsonValue::as_str),
            Some("phase.symbolic")
        );
        assert_eq!(list[5].get("ts").and_then(JsonValue::as_f64), Some(0.006));
    }

    #[test]
    fn attrs_become_args() {
        let events = vec![TraceEvent {
            name: "numeric.level",
            cat: "level",
            kind: EventKind::End,
            ts_ns: 100.0,
            wall_ns: 7,
            attrs: vec![
                ("width", AttrValue::U64(4)),
                ("mode", AttrValue::Sym("B")),
                ("frac", AttrValue::F64(0.5)),
            ],
        }];
        let doc = parse(&chrome_trace(&events)).expect("valid json");
        let e = &doc
            .get("traceEvents")
            .and_then(JsonValue::as_arr)
            .expect("arr")[0];
        let args = e.get("args").expect("args");
        assert_eq!(args.get("width").and_then(JsonValue::as_u64), Some(4));
        assert_eq!(args.get("mode").and_then(JsonValue::as_str), Some("B"));
        assert_eq!(args.get("frac").and_then(JsonValue::as_f64), Some(0.5));
        assert_eq!(e.get("wall_ns").and_then(JsonValue::as_u64), Some(7));
    }

    #[test]
    fn every_event_checks_against_the_table_it_was_written_from() {
        let events = vec![
            ev("outer", EventKind::Begin, 0.0),
            ev("mark", EventKind::Instant, 3.0),
            ev("width", EventKind::Counter(3.0), 4.0),
            ev("inner", EventKind::Begin, 5.0),
        ];
        let doc = parse(&chrome_trace(&events)).expect("valid json");
        let list = doc.array_at("/traceEvents");
        assert_eq!(list.len(), 6, "two synthetic ends");
        for e in list {
            crate::json::check(CHROME_EVENT, &[], e).expect("checks");
        }
        // The synthetic ends carry the latest wall stamp.
        let walls: Vec<u64> = list
            .iter()
            .map(|e| e.number_at("/wall_ns") as u64)
            .collect();
        assert_eq!(walls, [0, 3, 4, 5, 5, 5]);
        let mut bad = list[1].clone();
        if let JsonValue::Obj(fields) = &mut bad {
            fields.retain(|(k, _)| k != "wall_ns");
        }
        let err = crate::json::check(CHROME_EVENT, &[], &bad).unwrap_err();
        assert_eq!(err, "/wall_ns: missing");
    }
}

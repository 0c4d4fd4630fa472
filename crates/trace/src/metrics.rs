//! Plain-text metrics dump: span duration histograms and counter totals.
//!
//! The human-facing counterpart of the machine-readable exporters — meant
//! for terminals and CI logs, behind the CLI's `--metrics` flag.

use crate::event::{EventKind, TraceEvent};

#[derive(Debug, Default, Clone)]
struct SpanAgg {
    count: u64,
    total_ns: f64,
    min_ns: f64,
    max_ns: f64,
}

#[derive(Debug, Default, Clone)]
struct CounterAgg {
    samples: u64,
    last: f64,
    max: f64,
}

/// Renders an aggregate view of an event log: per-span-name duration
/// statistics (count / total / mean / min / max, matched by pairing each
/// `End` with the innermost open `Begin` of the same name), counter
/// last/max values, and instant-event counts.
pub fn metrics_text(events: &[TraceEvent]) -> String {
    // name -> stack of open begin timestamps; aggregation keyed by name.
    let mut open: Vec<(&'static str, f64)> = Vec::new();
    let mut spans: Vec<(&'static str, SpanAgg)> = Vec::new();
    let mut counters: Vec<(&'static str, CounterAgg)> = Vec::new();
    let mut instants: Vec<(&'static str, u64)> = Vec::new();

    for e in events {
        match e.kind {
            EventKind::Begin => open.push((e.name, e.ts_ns)),
            EventKind::End => {
                let Some(idx) = open.iter().rposition(|(n, _)| *n == e.name) else {
                    continue; // unbalanced End: skip rather than panic
                };
                let (_, begin_ts) = open.remove(idx);
                let dur = (e.ts_ns - begin_ts).max(0.0);
                let agg = find_or_insert(&mut spans, e.name);
                if agg.count == 0 {
                    agg.min_ns = dur;
                    agg.max_ns = dur;
                } else {
                    agg.min_ns = agg.min_ns.min(dur);
                    agg.max_ns = agg.max_ns.max(dur);
                }
                agg.count += 1;
                agg.total_ns += dur;
            }
            EventKind::Instant => match instants.iter_mut().find(|(n, _)| *n == e.name) {
                Some((_, c)) => *c += 1,
                None => instants.push((e.name, 1)),
            },
            EventKind::Counter(v) => {
                let agg = find_or_insert(&mut counters, e.name);
                if agg.samples == 0 {
                    agg.max = v;
                } else {
                    agg.max = agg.max.max(v);
                }
                agg.samples += 1;
                agg.last = v;
            }
        }
    }

    let mut out = String::new();
    out.push_str("spans (simulated time):\n");
    if spans.is_empty() {
        out.push_str("  (none)\n");
    }
    for (name, a) in &spans {
        out.push_str(&format!(
            "  {:<24} count {:>5}  total {:>12}  mean {:>10}  min {:>10}  max {:>10}\n",
            name,
            a.count,
            fmt_ns(a.total_ns),
            fmt_ns(a.total_ns / a.count as f64),
            fmt_ns(a.min_ns),
            fmt_ns(a.max_ns),
        ));
    }
    if !counters.is_empty() {
        out.push_str("counters:\n");
        for (name, a) in &counters {
            out.push_str(&format!(
                "  {:<24} samples {:>5}  last {:>12}  max {:>12}\n",
                name, a.samples, a.last, a.max
            ));
        }
    }
    if !instants.is_empty() {
        out.push_str("instants:\n");
        for (name, c) in &instants {
            out.push_str(&format!("  {name:<24} count {c:>5}\n"));
        }
    }
    out
}

fn find_or_insert<'a, T: Default>(
    list: &'a mut Vec<(&'static str, T)>,
    name: &'static str,
) -> &'a mut T {
    if let Some(idx) = list.iter().position(|(n, _)| *n == name) {
        return &mut list[idx].1;
    }
    list.push((name, T::default()));
    &mut list.last_mut().expect("just pushed").1
}

/// Human-scaled duration: picks ns/µs/ms/s.
fn fmt_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.3}s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.3}ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.3}us", ns / 1e3)
    } else {
        format!("{ns:.1}ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(name: &'static str, kind: EventKind, ts_ns: f64) -> TraceEvent {
        TraceEvent {
            name,
            cat: "t",
            kind,
            ts_ns,
            wall_ns: 0,
            attrs: vec![],
        }
    }

    #[test]
    fn aggregates_spans_counters_instants() {
        let events = vec![
            ev("phase.numeric", EventKind::Begin, 0.0),
            ev("numeric.level", EventKind::Begin, 0.0),
            ev("numeric.level", EventKind::End, 1_000.0),
            ev("numeric.level", EventKind::Begin, 1_000.0),
            ev("numeric.level", EventKind::End, 4_000.0),
            ev("phase.numeric", EventKind::End, 4_000.0),
            ev("level.width", EventKind::Counter(2.0), 1_000.0),
            ev("level.width", EventKind::Counter(5.0), 4_000.0),
            ev("recovery", EventKind::Instant, 4_000.0),
        ];
        let text = metrics_text(&events);
        assert!(text.contains("numeric.level"), "{text}");
        assert!(text.contains("count     2"), "{text}");
        assert!(text.contains("4.000us"), "{text}"); // phase total
        assert!(text.contains("level.width"), "{text}");
        assert!(text.contains("recovery"), "{text}");
    }

    #[test]
    fn tolerates_unbalanced_events() {
        // A dangling End and a dangling Begin must not panic.
        let events = vec![ev("a", EventKind::End, 5.0), ev("b", EventKind::Begin, 6.0)];
        let text = metrics_text(&events);
        assert!(text.contains("(none)"), "{text}");
    }
}

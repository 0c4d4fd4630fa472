//! The enabled sink: owns the event log of one run.

use crate::event::{AttrValue, EventKind, TraceEvent};
use crate::sink::TraceSink;
use std::sync::Mutex;
use std::time::Instant;

/// Records every event of one factorization, in emission order, each
/// stamped with the host monotonic time since the recorder was created
/// ([`TraceEvent::wall_ns`]).
///
/// Engines emit from their (serial) orchestration code, never from inside
/// simulated kernel blocks, so the mutex is uncontended; it exists so the
/// recorder can be shared as `&dyn TraceSink` across the pipeline without
/// interior-mutability gymnastics at every call site.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    events: Mutex<Vec<TraceEvent>>,
}

impl Default for Recorder {
    fn default() -> Recorder {
        Recorder {
            origin: Instant::now(),
            events: Mutex::default(),
        }
    }
}

impl Recorder {
    /// A fresh, empty recorder; its wall stamps count from now.
    pub fn new() -> Recorder {
        Recorder::default()
    }

    /// Snapshot of all events recorded so far, in order.
    pub fn events(&self) -> Vec<TraceEvent> {
        self.events.lock().expect("recorder poisoned").clone()
    }

    /// Consumes the recorder, returning the event log.
    pub fn into_events(self) -> Vec<TraceEvent> {
        self.events.into_inner().expect("recorder poisoned")
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.lock().expect("recorder poisoned").len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of completed spans (balanced begin/end pairs are counted by
    /// their `End` events).
    pub fn span_count(&self) -> usize {
        self.events
            .lock()
            .expect("recorder poisoned")
            .iter()
            .filter(|e| e.kind == EventKind::End)
            .count()
    }
}

impl TraceSink for Recorder {
    fn enabled(&self) -> bool {
        true
    }

    fn event(
        &self,
        name: &'static str,
        cat: &'static str,
        kind: EventKind,
        ts_ns: f64,
        attrs: &[(&'static str, AttrValue)],
    ) {
        let wall_ns = self.origin.elapsed().as_nanos() as u64;
        self.events
            .lock()
            .expect("recorder poisoned")
            .push(TraceEvent {
                name,
                cat,
                kind,
                ts_ns,
                wall_ns,
                attrs: attrs.to_vec(),
            });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_in_order_with_attrs() {
        let rec = Recorder::new();
        assert!(rec.is_empty());
        rec.span_begin("phase.symbolic", "phase", 0.0, &[]);
        rec.span_end(
            "phase.symbolic",
            "phase",
            10.0,
            &[("iterations", AttrValue::U64(4))],
        );
        rec.instant("recovery", "recovery", 10.0, &[]);
        rec.counter("width", "level", 10.0, 3.0);
        assert_eq!(rec.len(), 4);
        assert_eq!(rec.span_count(), 1);
        let evs = rec.into_events();
        assert_eq!(evs[0].kind, EventKind::Begin);
        assert_eq!(evs[1].attr("iterations").unwrap().as_u64(), Some(4));
        assert_eq!(evs[3].kind, EventKind::Counter(3.0));
        assert!(evs.windows(2).all(|w| w[0].ts_ns <= w[1].ts_ns));
        // Wall stamps follow emission order.
        assert!(evs.windows(2).all(|w| w[0].wall_ns <= w[1].wall_ns));
    }
}

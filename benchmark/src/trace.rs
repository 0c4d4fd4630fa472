//! Spans recorded by the harness around its own calls into each layer, and
//! the per-layer numbers accumulated beside them. Everything stays in
//! memory until the run ends; nothing inside the program is instrumented.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One timed interval: a public call into a layer, or a grouping parent.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same recorder, if any.
    pub parent: Option<u32>,
    /// Operation the span belongs to (all spans of one op share it).
    pub op: u32,
    pub pass: u32,
}

/// In-memory span recorder for one thread.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    pub pass: u32,
}

/// Handle returned by [`Tracer::begin`]; spans close innermost first.
pub struct Open(u32);

impl Tracer {
    /// All recorders of a run share `origin` so their stamps line up.
    pub fn new(origin: Instant) -> Self {
        Tracer {
            origin,
            spans: Vec::new(),
            open: Vec::new(),
            pass: 0,
        }
    }

    pub fn begin(&mut self, name: &'static str, op: u32) -> Open {
        let id = self.spans.len() as u32;
        let now = self.origin.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
            op,
            pass: self.pass,
        });
        self.open.push(id);
        Open(id)
    }

    /// Closes `span` and returns its duration in milliseconds.
    pub fn end(&mut self, span: Open) -> f64 {
        let top = self.open.pop();
        assert_eq!(top, Some(span.0), "spans close innermost first");
        let s = &mut self.spans[span.0 as usize];
        s.end_ns = self.origin.elapsed().as_nanos() as u64;
        (s.end_ns - s.start_ns) as f64 / 1e6
    }

    /// Times `f` as a leaf span; returns its result and milliseconds.
    pub fn time<T>(&mut self, name: &'static str, op: u32, f: impl FnOnce() -> T) -> (T, f64) {
        let s = self.begin(name, op);
        let out = f();
        (out, self.end(s))
    }

    pub fn into_spans(self) -> Vec<Span> {
        assert!(self.open.is_empty(), "every span was closed");
        self.spans
    }
}

/// Self time of span `i`: its duration minus what its children cover.
pub fn self_ns(spans: &[Span], i: usize) -> u64 {
    let covered: u64 = spans
        .iter()
        .filter(|s| s.parent == Some(i as u32))
        .map(|s| s.end_ns - s.start_ns)
        .sum();
    (spans[i].end_ns - spans[i].start_ns).saturating_sub(covered)
}

/// Serializes one recorder's spans (`thread` labels it in the file).
pub fn spans_json(thread: usize, spans: &[Span]) -> String {
    let mut out = String::new();
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        write!(
            out,
            "    {{\"id\": {i}, \"thread\": {thread}, \"name\": \"{}\", \"op\": {}, \"pass\": {}, \
             \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {}, \"parent\": {}}}",
            s.name,
            s.op,
            s.pass,
            s.start_ns,
            s.end_ns,
            self_ns(spans, i),
            s.parent.map_or("null".to_string(), |p| p.to_string()),
        )
        .expect("write to String");
    }
    out
}

/// Per-layer numbers of one traced pass: sums (walls, counts), maxima,
/// and raw samples for percentiles. Names are the `per_layer` metric
/// names of BENCHMARK.json or intermediate terms of their ratios.
#[derive(Default)]
pub struct Layers {
    pub sums: BTreeMap<&'static str, f64>,
    pub maxima: BTreeMap<&'static str, f64>,
    pub samples: BTreeMap<&'static str, Vec<f64>>,
}

impl Layers {
    pub fn add(&mut self, name: &'static str, v: f64) {
        *self.sums.entry(name).or_insert(0.0) += v;
    }

    pub fn max(&mut self, name: &'static str, v: f64) {
        let e = self.maxima.entry(name).or_insert(v);
        *e = e.max(v);
    }

    pub fn set(&mut self, name: &'static str, v: f64) {
        self.sums.insert(name, v);
    }

    pub fn sample(&mut self, name: &'static str, v: f64) {
        self.samples.entry(name).or_default().push(v);
    }

    /// A sum or a maximum by name; 0 for a layer the pass never entered.
    pub fn get(&self, name: &str) -> f64 {
        self.sums
            .get(name)
            .or_else(|| self.maxima.get(name))
            .copied()
            .unwrap_or(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_self_time_excludes_children() {
        let mut t = Tracer::new(Instant::now());
        let outer = t.begin("op", 3);
        let ((), inner_ms) = t.time("layer", 3, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        let outer_ms = t.end(outer);
        assert!(inner_ms >= 2.0 && outer_ms >= inner_ms);
        let spans = t.into_spans();
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[0].parent, None);
        assert!(spans.iter().all(|s| s.op == 3));
        let outer_ns = spans[0].end_ns - spans[0].start_ns;
        assert!(self_ns(&spans, 0) <= outer_ns - 2_000_000);
        assert_eq!(self_ns(&spans, 1), spans[1].end_ns - spans[1].start_ns);
        assert!(spans_json(0, &spans).contains("\"parent\": 0"));
    }

    #[test]
    fn layers_sum_max_and_sample() {
        let mut a = Layers::default();
        a.add("x", 1.0);
        a.add("x", 2.0);
        a.max("m", 1.0);
        a.max("m", 5.0);
        a.max("m", 2.0);
        a.sample("s", 1.0);
        a.sample("s", 2.0);
        assert_eq!(a.get("x"), 3.0);
        assert_eq!(a.get("m"), 5.0);
        assert_eq!(a.get("missing"), 0.0);
        assert_eq!(a.samples["s"], vec![1.0, 2.0]);
    }
}

//! Live metrics: a dependency-free registry of counters, gauges, and
//! log-linear-bucket histograms.
//!
//! The [`Recorder`](crate::Recorder) answers "what happened in this run"
//! after the fact; the registry answers "what is happening right now" while
//! a service is taking traffic. Three design rules, in order:
//!
//! 1. **No allocation on the record path.** Handles ([`Counter`],
//!    [`Gauge`], [`Histogram`]) are `Arc`s handed out once by
//!    [`MetricsRegistry`]; recording is a handful of relaxed atomic ops on
//!    a fixed-size structure. The registry's name map is locked only at
//!    handle creation, never per sample.
//! 2. **Fixed size.** A histogram is [`BUCKET_COUNT`] atomic
//!    counters in a log-linear (HDR-style) layout: values below
//!    [`SUB_BUCKETS`] get exact unit buckets, and every octave above is
//!    split into [`SUB_BUCKETS`] linear sub-buckets, bounding the relative
//!    quantization error by `1/SUB_BUCKETS` (6.25%).
//! 3. **Lossless exposition.** [`MetricsRegistry::to_text`] /
//!    [`to_json`](MetricsRegistry::to_json) serialize the full bucket
//!    state (not pre-reduced quantiles), and [`from_text`]
//!    (MetricsRegistry::from_text) / [`from_json`]
//!    (MetricsRegistry::from_json) parse it back, so downstream tooling
//!    (`telemetry_check --slo`) can re-derive any quantile exactly.
//!
//! Label sets are flattened into the metric name by convention
//! (`service.wall_ns{tenant=t3,tier=warm}`); names must be non-empty and
//! free of whitespace so the text exposition stays unambiguous.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::json::JsonValue;

/// Version stamp carried by both exposition formats.
pub const METRICS_SCHEMA_VERSION: u64 = 1;

/// Sub-buckets per octave (`1 << SUB_BITS`). 16 sub-buckets bound the
/// relative quantization error of any recorded value by 1/16 = 6.25%.
pub const SUB_BUCKETS: u64 = 1 << SUB_BITS;
const SUB_BITS: u32 = 4;

/// Total bucket count: 16 exact unit buckets for values `0..16`, then 60
/// octaves (`2^4 ..= 2^63`) of 16 linear sub-buckets each. Index 975 is
/// the last bucket, holding values up to `u64::MAX`.
pub const BUCKET_COUNT: usize = (SUB_BUCKETS + (64 - SUB_BITS as u64) * SUB_BUCKETS) as usize;

/// The bucket index a value lands in. Monotone in `v`, exact below
/// [`SUB_BUCKETS`], and always `< BUCKET_COUNT`.
pub fn bucket_index(v: u64) -> usize {
    if v < SUB_BUCKETS {
        return v as usize;
    }
    let octave = 63 - u64::from(v.leading_zeros()); // floor(log2 v) >= SUB_BITS
    let sub = (v >> (octave - u64::from(SUB_BITS))) & (SUB_BUCKETS - 1);
    ((octave - u64::from(SUB_BITS) + 1) * SUB_BUCKETS + sub) as usize
}

/// The inclusive `[lo, hi]` value range of bucket `i` (the inverse of
/// [`bucket_index`]). `hi / lo < 1 + 1/SUB_BUCKETS` for every bucket, which
/// is the quantile error bound the proptest oracle checks.
pub fn bucket_bounds(i: usize) -> (u64, u64) {
    let i = i as u64;
    if i < SUB_BUCKETS {
        return (i, i);
    }
    let octave = i / SUB_BUCKETS - 1 + u64::from(SUB_BITS);
    let sub = i % SUB_BUCKETS;
    let width = 1u64 << (octave - u64::from(SUB_BITS));
    let lo = (SUB_BUCKETS + sub) * width;
    // `lo + (width - 1)`: the last bucket's upper bound is exactly
    // `u64::MAX`, so the naive `lo + width - 1` would overflow first.
    (lo, lo + (width - 1))
}

/// A monotone event counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current total.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A last-writer-wins instantaneous value (queue depth, in-flight jobs,
/// cache bytes). Signed so `add(-1)` works for decrement-on-completion.
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    /// Replaces the value.
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Adjusts the value by `delta` (may be negative).
    pub fn add(&self, delta: i64) {
        self.0.fetch_add(delta, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A fixed-size log-linear histogram of non-negative values
/// (conventionally nanoseconds).
///
/// `record` is wait-free: one `fetch_add` into the value's bucket plus
/// count/sum/min/max maintenance, no allocation, no lock. Quantile
/// estimates return the **upper bound** of the covering bucket, so for a
/// true order statistic `v` the estimate lands in
/// `[v, v * (1 + 1/SUB_BUCKETS)]`.
pub struct Histogram {
    buckets: Box<[AtomicU64; BUCKET_COUNT]>,
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: Box::new(std::array::from_fn(|_| AtomicU64::new(0))),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram")
            .field("count", &self.count())
            .field("sum", &self.sum())
            .field("min", &self.min())
            .field("max", &self.max())
            .finish()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Histogram {
        Histogram::default()
    }

    /// Records one value.
    pub fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.min.fetch_min(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Records a simulated/wall duration in ns, rounding to the unit grid.
    /// Negative and non-finite inputs clamp to zero (they indicate a
    /// caller bug, not a value worth corrupting the histogram over).
    pub fn record_f64(&self, v: f64) {
        let v = if v.is_finite() && v > 0.0 { v } else { 0.0 };
        self.record(v.round() as u64);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Exact sum of recorded values (wraps only past `u64::MAX` total ns).
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Smallest recorded value, if any.
    pub fn min(&self) -> Option<u64> {
        (self.count() > 0).then(|| self.min.load(Ordering::Relaxed))
    }

    /// Largest recorded value, if any.
    pub fn max(&self) -> Option<u64> {
        (self.count() > 0).then(|| self.max.load(Ordering::Relaxed))
    }

    /// Exact mean, if any values were recorded.
    pub fn mean(&self) -> Option<f64> {
        let n = self.count();
        (n > 0).then(|| self.sum() as f64 / n as f64)
    }

    /// Upper-bound estimate of the `q`-quantile (`q` clamped to `[0, 1]`):
    /// the upper bucket bound covering the order statistic of rank
    /// `max(1, ceil(q * count))`. Returns `None` on an empty histogram.
    ///
    /// Guarantee (checked by the proptest oracle): for the true rank-`r`
    /// order statistic `v`, the estimate is in
    /// `[v, v * (1 + 1/SUB_BUCKETS)]`, clamped above by [`Histogram::max`].
    pub fn quantile(&self, q: f64) -> Option<u64> {
        let total = self.count();
        if total == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut cum = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            cum += b.load(Ordering::Relaxed);
            if cum >= rank {
                let (_, hi) = bucket_bounds(i);
                return Some(hi.min(self.max.load(Ordering::Relaxed)));
            }
        }
        self.max()
    }

    /// The non-empty buckets as `(index, count)` pairs, ascending.
    pub fn nonzero_buckets(&self) -> Vec<(usize, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter_map(|(i, b)| {
                let n = b.load(Ordering::Relaxed);
                (n > 0).then_some((i, n))
            })
            .collect()
    }
}

/// A process-wide named collection of metrics.
///
/// `counter` / `gauge` / `histogram` are get-or-create: the first call
/// allocates the instrument under a short-lived lock, every later call
/// (and every clone of the returned `Arc`) records lock-free. Names share
/// one namespace per instrument kind; registering the same name as two
/// different kinds is fine (they serialize in separate sections).
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    counters: Mutex<BTreeMap<String, Arc<Counter>>>,
    gauges: Mutex<BTreeMap<String, Arc<Gauge>>>,
    histograms: Mutex<BTreeMap<String, Arc<Histogram>>>,
}

fn check_name(name: &str) {
    debug_assert!(
        !name.is_empty() && !name.contains(char::is_whitespace),
        "metric names must be non-empty and whitespace-free: {name:?}"
    );
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Get-or-create the counter `name`.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        check_name(name);
        let mut map = self.counters.lock().expect("metrics lock");
        Arc::clone(map.entry(name.to_string()).or_default())
    }

    /// Get-or-create the gauge `name`.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        check_name(name);
        let mut map = self.gauges.lock().expect("metrics lock");
        Arc::clone(map.entry(name.to_string()).or_default())
    }

    /// Get-or-create the histogram `name`.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        check_name(name);
        let mut map = self.histograms.lock().expect("metrics lock");
        Arc::clone(map.entry(name.to_string()).or_default())
    }

    /// The histogram `name`, if it was ever created.
    pub fn find_histogram(&self, name: &str) -> Option<Arc<Histogram>> {
        self.histograms
            .lock()
            .expect("metrics lock")
            .get(name)
            .cloned()
    }

    /// All histogram names, sorted.
    pub fn histogram_names(&self) -> Vec<String> {
        self.histograms
            .lock()
            .expect("metrics lock")
            .keys()
            .cloned()
            .collect()
    }

    /// Lossless plain-text exposition (one instrument per line):
    ///
    /// ```text
    /// # gplu-metrics v1
    /// counter service.jobs_completed 500
    /// gauge service.queue_depth 3
    /// hist service.wall_ns{tenant=t0} count=2 sum=30 min=10 max=20 buckets=10:1,17:1
    /// ```
    pub fn to_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = format!("# gplu-metrics v{METRICS_SCHEMA_VERSION}\n");
        for (name, c) in self.counters.lock().expect("metrics lock").iter() {
            writeln!(out, "counter {name} {}", c.get()).expect("string write");
        }
        for (name, g) in self.gauges.lock().expect("metrics lock").iter() {
            writeln!(out, "gauge {name} {}", g.get()).expect("string write");
        }
        for (name, h) in self.histograms.lock().expect("metrics lock").iter() {
            let n = h.count();
            if n == 0 {
                writeln!(out, "hist {name} count=0").expect("string write");
                continue;
            }
            let buckets: Vec<String> = h
                .nonzero_buckets()
                .into_iter()
                .map(|(i, c)| format!("{i}:{c}"))
                .collect();
            writeln!(
                out,
                "hist {name} count={n} sum={} min={} max={} buckets={}",
                h.sum(),
                h.min().expect("non-empty"),
                h.max().expect("non-empty"),
                buckets.join(",")
            )
            .expect("string write");
        }
        out
    }

    /// Parses [`to_text`](MetricsRegistry::to_text) output back into a
    /// registry (the exposition is lossless, so
    /// `from_text(to_text()) == self` state-wise).
    pub fn from_text(input: &str) -> Result<MetricsRegistry, String> {
        let reg = MetricsRegistry::new();
        let mut lines = input.lines();
        let header = lines.next().unwrap_or_default();
        let version = header
            .strip_prefix("# gplu-metrics v")
            .and_then(|v| v.parse::<u64>().ok())
            .ok_or_else(|| format!("bad metrics header: {header:?}"))?;
        if version > METRICS_SCHEMA_VERSION {
            return Err(format!("unsupported metrics schema v{version}"));
        }
        for line in lines.filter(|l| !l.trim().is_empty()) {
            let mut fields = line.split_whitespace();
            let kind = fields.next().unwrap_or_default();
            let name = fields
                .next()
                .ok_or_else(|| format!("metric line missing a name: {line:?}"))?;
            match kind {
                "counter" => {
                    let v = parse_field::<u64>(fields.next(), "counter value", line)?;
                    reg.counter(name).add(v);
                }
                "gauge" => {
                    let v = parse_field::<i64>(fields.next(), "gauge value", line)?;
                    reg.gauge(name).set(v);
                }
                "hist" => parse_hist_line(&reg, name, fields, line)?,
                other => return Err(format!("unknown metric kind {other:?} in {line:?}")),
            }
        }
        Ok(reg)
    }

    /// Lossless JSON exposition. Integer fields stay exact below 2^53
    /// (the shared [`JsonValue`] number model); every value this workspace
    /// records is far below that.
    pub fn to_json(&self) -> JsonValue {
        let mut counters = JsonValue::obj();
        for (name, c) in self.counters.lock().expect("metrics lock").iter() {
            counters = counters.set(name, c.get());
        }
        let mut gauges = JsonValue::obj();
        for (name, g) in self.gauges.lock().expect("metrics lock").iter() {
            gauges = gauges.set(name, g.get());
        }
        let mut hists = JsonValue::obj();
        for (name, h) in self.histograms.lock().expect("metrics lock").iter() {
            hists = hists.set(name, histogram_json(h));
        }
        JsonValue::obj()
            .set("schema_version", METRICS_SCHEMA_VERSION)
            .set("counters", counters)
            .set("gauges", gauges)
            .set("histograms", hists)
    }

    /// Parses [`to_json`](MetricsRegistry::to_json) output back into a
    /// registry.
    pub fn from_json(v: &JsonValue) -> Result<MetricsRegistry, String> {
        let version = v
            .get("schema_version")
            .and_then(JsonValue::as_u64)
            .ok_or("metrics json missing schema_version")?;
        if version > METRICS_SCHEMA_VERSION {
            return Err(format!("unsupported metrics schema v{version}"));
        }
        let reg = MetricsRegistry::new();
        for (name, val) in obj_fields(v.get("counters"), "counters")? {
            let n = val
                .as_u64()
                .ok_or_else(|| format!("counter {name} is not a u64"))?;
            reg.counter(name).add(n);
        }
        for (name, val) in obj_fields(v.get("gauges"), "gauges")? {
            let n = val
                .as_f64()
                .filter(|f| f.fract() == 0.0)
                .ok_or_else(|| format!("gauge {name} is not an integer"))?;
            reg.gauge(name).set(n as i64);
        }
        for (name, val) in obj_fields(v.get("histograms"), "histograms")? {
            histogram_from_json(&reg.histogram(name), name, val)?;
        }
        Ok(reg)
    }
}

fn obj_fields<'a>(
    v: Option<&'a JsonValue>,
    section: &str,
) -> Result<&'a [(String, JsonValue)], String> {
    match v {
        Some(JsonValue::Obj(fields)) => Ok(fields),
        _ => Err(format!("metrics json missing the {section} object")),
    }
}

fn parse_field<T: std::str::FromStr>(
    field: Option<&str>,
    what: &str,
    line: &str,
) -> Result<T, String> {
    field
        .and_then(|f| f.parse().ok())
        .ok_or_else(|| format!("bad {what} in {line:?}"))
}

fn parse_hist_line<'a>(
    reg: &MetricsRegistry,
    name: &str,
    fields: impl Iterator<Item = &'a str>,
    line: &str,
) -> Result<(), String> {
    let h = reg.histogram(name);
    let mut count = None;
    let mut sum = 0u64;
    let mut min = u64::MAX;
    let mut max = 0u64;
    for field in fields {
        let (key, value) = field
            .split_once('=')
            .ok_or_else(|| format!("bad hist field {field:?} in {line:?}"))?;
        match key {
            "count" => count = Some(parse_field::<u64>(Some(value), "hist count", line)?),
            "sum" => sum = parse_field(Some(value), "hist sum", line)?,
            "min" => min = parse_field(Some(value), "hist min", line)?,
            "max" => max = parse_field(Some(value), "hist max", line)?,
            "buckets" => {
                for pair in value.split(',').filter(|p| !p.is_empty()) {
                    let (i, c) = pair
                        .split_once(':')
                        .ok_or_else(|| format!("bad bucket {pair:?} in {line:?}"))?;
                    let i: usize = parse_field(Some(i), "bucket index", line)?;
                    let c: u64 = parse_field(Some(c), "bucket count", line)?;
                    if i >= BUCKET_COUNT {
                        return Err(format!("bucket index {i} out of range in {line:?}"));
                    }
                    h.buckets[i].fetch_add(c, Ordering::Relaxed);
                }
            }
            other => return Err(format!("unknown hist field {other:?} in {line:?}")),
        }
    }
    let count = count.ok_or_else(|| format!("hist line missing count: {line:?}"))?;
    if count > 0 {
        h.count.fetch_add(count, Ordering::Relaxed);
        h.sum.fetch_add(sum, Ordering::Relaxed);
        h.min.fetch_min(min, Ordering::Relaxed);
        h.max.fetch_max(max, Ordering::Relaxed);
    }
    Ok(())
}

fn histogram_json(h: &Histogram) -> JsonValue {
    let buckets: Vec<JsonValue> = h
        .nonzero_buckets()
        .into_iter()
        .map(|(i, c)| JsonValue::Arr(vec![JsonValue::from(i), JsonValue::from(c)]))
        .collect();
    JsonValue::obj()
        .set("count", h.count())
        .set("sum", h.sum())
        .set("min", h.min())
        .set("max", h.max())
        .set("buckets", buckets)
}

fn histogram_from_json(h: &Histogram, name: &str, v: &JsonValue) -> Result<(), String> {
    let field = |key: &str| {
        v.get(key)
            .and_then(JsonValue::as_u64)
            .ok_or_else(|| format!("histogram {name} missing {key}"))
    };
    let count = field("count")?;
    for pair in v
        .get("buckets")
        .and_then(JsonValue::as_arr)
        .ok_or_else(|| format!("histogram {name} missing buckets"))?
    {
        let pair = pair
            .as_arr()
            .filter(|p| p.len() == 2)
            .ok_or_else(|| format!("histogram {name} has a malformed bucket pair"))?;
        let (i, c) = (
            pair[0]
                .as_u64()
                .ok_or_else(|| format!("histogram {name} bucket index"))? as usize,
            pair[1]
                .as_u64()
                .ok_or_else(|| format!("histogram {name} bucket count"))?,
        );
        if i >= BUCKET_COUNT {
            return Err(format!("histogram {name} bucket index {i} out of range"));
        }
        h.buckets[i].fetch_add(c, Ordering::Relaxed);
    }
    if count > 0 {
        h.count.fetch_add(count, Ordering::Relaxed);
        h.sum.fetch_add(field("sum")?, Ordering::Relaxed);
        h.min.fetch_min(field("min")?, Ordering::Relaxed);
        h.max.fetch_max(field("max")?, Ordering::Relaxed);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_is_monotone_and_in_range_at_boundaries() {
        let mut last = 0usize;
        for octave in 0..64u32 {
            for v in [1u64 << octave, (1u64 << octave) + 1, (1u64 << octave) - 1] {
                let i = bucket_index(v);
                assert!(i < BUCKET_COUNT, "v={v} i={i}");
                let (lo, hi) = bucket_bounds(i);
                assert!(lo <= v && v <= hi, "v={v} not in [{lo}, {hi}]");
            }
            last = last.max(bucket_index(1u64 << octave));
        }
        assert_eq!(bucket_index(u64::MAX), BUCKET_COUNT - 1);
        assert_eq!(bucket_index(0), 0);
        // Exact unit buckets below SUB_BUCKETS, contiguous handoff at 16.
        for v in 0..2 * SUB_BUCKETS {
            assert_eq!(bucket_index(v), v as usize);
        }
    }

    #[test]
    fn quantiles_track_exact_small_values() {
        let h = Histogram::new();
        for v in 1..=10u64 {
            h.record(v);
        }
        assert_eq!(h.quantile(0.0), Some(1));
        assert_eq!(h.quantile(0.5), Some(5));
        assert_eq!(h.quantile(1.0), Some(10));
        assert_eq!(h.count(), 10);
        assert_eq!(h.sum(), 55);
        assert_eq!(h.mean(), Some(5.5));
    }

    #[test]
    fn counters_and_gauges_round_trip_both_expositions() {
        let reg = MetricsRegistry::new();
        reg.counter("jobs").add(42);
        reg.gauge("depth").set(-3);
        reg.histogram("lat{tenant=t0}").record(1000);
        reg.histogram("empty"); // created, never recorded

        let text = reg.to_text();
        let back = MetricsRegistry::from_text(&text).expect("parses");
        assert_eq!(back.to_text(), text);

        let json = reg.to_json();
        let back = MetricsRegistry::from_json(&json).expect("parses");
        assert_eq!(back.to_json().to_compact(), json.to_compact());
        assert_eq!(back.counter("jobs").get(), 42);
        assert_eq!(back.gauge("depth").get(), -3);
        assert_eq!(back.histogram("lat{tenant=t0}").quantile(1.0), Some(1000));
        assert_eq!(back.histogram("empty").count(), 0);
    }
}

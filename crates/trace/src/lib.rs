//! # gplu-trace
//!
//! Structured run telemetry for the `gplu` pipeline: a lightweight,
//! dependency-free span/event recorder threaded through every phase of the
//! factorization, plus three exporters.
//!
//! The paper's entire evaluation (Figures 4–6, Tables 3–4) is phase- and
//! level-resolved accounting; this crate makes that accounting a
//! first-class, machine-readable artifact instead of a hand-formatted
//! summary string:
//!
//! * [`TraceSink`] — the recording interface the engines talk to. Events
//!   carry a static name, a category, a monotonic **simulated** timestamp
//!   (nanoseconds, the pipeline's [`SimTime`] clock), and key=value
//!   attributes.
//! * [`NoopSink`] — the zero-cost disabled sink: `enabled()` is `false`,
//!   every emission is a no-op, and because attributes are built on the
//!   caller's stack the hot path performs **zero heap allocations** when
//!   tracing is off.
//! * [`Recorder`] — the enabled sink: appends owned [`TraceEvent`]s under a
//!   mutex (engine orchestration is serial; kernels never emit from inside
//!   blocks).
//! * [`chrome::chrome_trace`] — Chrome trace-event JSON (loadable in
//!   `chrome://tracing` and [Perfetto](https://ui.perfetto.dev)): a
//!   factorization renders as a flamegraph over simulated time.
//! * [`metrics::metrics_text`] — plain-text span histograms and counter
//!   totals for terminals and CI logs.
//! * [`json`] — the hand-rolled JSON value builder + minimal parser shared
//!   by the exporters, `gplu-core`'s versioned run report, and the
//!   validation tooling (no serde in the workspace).
//! * [`registry`] — live metrics for long-running services: a
//!   [`MetricsRegistry`] of counters, gauges, and mergeable log-linear
//!   histograms with lossless text/JSON exposition (the post-hoc exporters
//!   above answer "what happened"; the registry answers "what is
//!   happening").
//!
//! [`SimTime`]: https://docs.rs/gplu-sim

pub mod chrome;
pub mod event;
pub mod json;
pub mod metrics;
pub mod recorder;
pub mod registry;
pub mod sink;

pub use chrome::{chrome_trace, CHROME_EVENT};
pub use event::{AttrValue, EventKind, TraceEvent};
pub use json::JsonValue;
pub use metrics::metrics_text;
pub use recorder::Recorder;
pub use registry::{Counter, Gauge, Histogram, MetricsRegistry, METRICS_SCHEMA_VERSION};
pub use sink::{NoopSink, TraceSink, NOOP};

//! The event model: what one telemetry record carries.

use std::fmt;

/// An attribute value attached to an event.
///
/// Numeric variants are preferred on hot paths (no heap allocation);
/// [`AttrValue::Sym`] covers static strings (mode letters, engine names)
/// equally cheaply. [`AttrValue::Str`] owns its data — callers should guard
/// its construction behind [`crate::TraceSink::enabled`].
#[derive(Debug, Clone, PartialEq)]
pub enum AttrValue {
    /// Unsigned counter.
    U64(u64),
    /// Signed quantity.
    I64(i64),
    /// Real-valued quantity (timings, fractions).
    F64(f64),
    /// Boolean flag.
    Bool(bool),
    /// Static string (no allocation).
    Sym(&'static str),
    /// Owned string (allocates — guard behind `enabled()`).
    Str(String),
}

impl AttrValue {
    /// The value as `u64`, when it is one.
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            AttrValue::U64(v) => Some(v),
            AttrValue::I64(v) if v >= 0 => Some(v as u64),
            _ => None,
        }
    }

    /// The value as `f64`, widening integer variants.
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            AttrValue::F64(v) => Some(v),
            AttrValue::U64(v) => Some(v as f64),
            AttrValue::I64(v) => Some(v as f64),
            _ => None,
        }
    }

    /// The value as a string slice, when it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            AttrValue::Sym(s) => Some(s),
            AttrValue::Str(s) => Some(s),
            _ => None,
        }
    }
}

impl fmt::Display for AttrValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AttrValue::U64(v) => write!(f, "{v}"),
            AttrValue::I64(v) => write!(f, "{v}"),
            AttrValue::F64(v) => write!(f, "{v}"),
            AttrValue::Bool(v) => write!(f, "{v}"),
            AttrValue::Sym(s) => f.write_str(s),
            AttrValue::Str(s) => f.write_str(s),
        }
    }
}

impl From<u64> for AttrValue {
    fn from(v: u64) -> Self {
        AttrValue::U64(v)
    }
}
impl From<usize> for AttrValue {
    fn from(v: usize) -> Self {
        AttrValue::U64(v as u64)
    }
}
impl From<i64> for AttrValue {
    fn from(v: i64) -> Self {
        AttrValue::I64(v)
    }
}
impl From<f64> for AttrValue {
    fn from(v: f64) -> Self {
        AttrValue::F64(v)
    }
}
impl From<bool> for AttrValue {
    fn from(v: bool) -> Self {
        AttrValue::Bool(v)
    }
}
impl From<&'static str> for AttrValue {
    fn from(v: &'static str) -> Self {
        AttrValue::Sym(v)
    }
}
impl From<String> for AttrValue {
    fn from(v: String) -> Self {
        AttrValue::Str(v)
    }
}

/// The kind of a [`TraceEvent`], mirroring the Chrome trace-event phases.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EventKind {
    /// Span opens at `ts_ns` (Chrome `ph: "B"`).
    Begin,
    /// Span closes at `ts_ns` (Chrome `ph: "E"`).
    End,
    /// Point event (Chrome `ph: "i"`).
    Instant,
    /// Counter sample with the carried value (Chrome `ph: "C"`).
    Counter(f64),
}

/// One recorded telemetry event.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Event name (static: span names are part of the schema).
    pub name: &'static str,
    /// Category, used to group related spans (e.g. `phase`, `level`).
    pub cat: &'static str,
    /// What kind of record this is.
    pub kind: EventKind,
    /// Simulated timestamp in nanoseconds (monotone within a run).
    pub ts_ns: f64,
    /// Host monotonic nanoseconds since the recording sink was created,
    /// stamped by the sink when it kept the event: the wall clock beside
    /// the simulated one.
    pub wall_ns: u64,
    /// Key=value attributes.
    pub attrs: Vec<(&'static str, AttrValue)>,
}

impl TraceEvent {
    /// Looks up an attribute by key.
    pub fn attr(&self, key: &str) -> Option<&AttrValue> {
        self.attrs.iter().find(|(k, _)| *k == key).map(|(_, v)| v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn attr_conversions_and_lookup() {
        let ev = TraceEvent {
            name: "numeric.level",
            cat: "level",
            kind: EventKind::End,
            ts_ns: 12.5,
            wall_ns: 0,
            attrs: vec![("width", 7usize.into()), ("mode", "A".into())],
        };
        assert_eq!(ev.attr("width").and_then(AttrValue::as_u64), Some(7));
        assert_eq!(ev.attr("mode").and_then(AttrValue::as_str), Some("A"));
        assert!(ev.attr("missing").is_none());
    }

    #[test]
    fn display_formats_values() {
        assert_eq!(AttrValue::U64(3).to_string(), "3");
        assert_eq!(AttrValue::Bool(true).to_string(), "true");
        assert_eq!(AttrValue::Sym("B").to_string(), "B");
    }
}

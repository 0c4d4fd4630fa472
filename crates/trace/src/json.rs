//! Hand-rolled JSON: a small value tree with a writer and a minimal
//! recursive-descent parser.
//!
//! The workspace deliberately carries no serde; every machine-readable
//! artifact (the run report, the Chrome trace, `BENCH_*.json`) is built
//! through [`JsonValue`], and the validation tooling parses them back with
//! [`parse`]. Numbers round-trip exactly: `f64` serialization uses Rust's
//! shortest-round-trip `Display`, and the parser reads with `str::parse`.
//!
//! A versioned report object is described once, as a table of
//! [`Field`] rows (a JSON pointer, a [`Kind`], a getter) plus the
//! [`Rule`]s that tie its fields together: [`write()`] builds the object
//! from the table and [`check`] validates a parsed one against it.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number (stored as `f64`; exact for integers < 2⁵³).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object; insertion order is preserved.
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Builder: an empty object.
    pub fn obj() -> JsonValue {
        JsonValue::Obj(Vec::new())
    }

    /// Builder: sets `key` on an object (panics on non-objects — builder
    /// misuse, not input data).
    pub fn set(mut self, key: &str, value: impl Into<JsonValue>) -> JsonValue {
        match &mut self {
            JsonValue::Obj(fields) => fields.push((key.to_string(), value.into())),
            _ => panic!("JsonValue::set on non-object"),
        }
        self
    }

    /// Member lookup on objects.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Walks a JSON pointer (object keys and array indices, `/a/b/0/c`).
    pub fn pointer(&self, ptr: &str) -> Option<&JsonValue> {
        ptr.split('/')
            .filter(|s| !s.is_empty())
            .try_fold(self, |d, key| match d {
                JsonValue::Arr(items) => key.parse::<usize>().ok().and_then(|i| items.get(i)),
                _ => d.get(key),
            })
    }

    /// The number at `ptr`, 0 when there is none. For [`Rule`]s, which
    /// run once every field has its kind.
    pub fn number_at(&self, ptr: &str) -> f64 {
        self.pointer(ptr).and_then(JsonValue::as_f64).unwrap_or(0.0)
    }

    /// The array at `ptr`, empty when there is none. For [`Rule`]s.
    pub fn array_at(&self, ptr: &str) -> &[JsonValue] {
        self.pointer(ptr)
            .and_then(JsonValue::as_arr)
            .unwrap_or_default()
    }

    /// The value as a number, when it is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as a non-negative integer, when it is one.
    pub fn as_u64(&self) -> Option<u64> {
        self.as_f64()
            .filter(|v| *v >= 0.0 && v.fract() == 0.0)
            .map(|v| v as u64)
    }

    /// The value as a bool, when it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as a string slice, when it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value's members, when it is an object.
    pub fn as_obj(&self) -> Option<&[(String, JsonValue)]> {
        match self {
            JsonValue::Obj(fields) => Some(fields),
            _ => None,
        }
    }

    /// The value as an array, when it is one.
    pub fn as_arr(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(a) => Some(a),
            _ => None,
        }
    }

    /// Serializes compactly (no whitespace).
    pub fn to_compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Serializes with two-space indentation.
    pub fn to_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        let (nl, pad, pad_in) = match indent {
            Some(w) => ("\n", " ".repeat(w * depth), " ".repeat(w * (depth + 1))),
            None => ("", String::new(), String::new()),
        };
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            JsonValue::Num(v) => write_number(out, *v),
            JsonValue::Str(s) => write_escaped(out, s),
            JsonValue::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str(nl);
                    out.push_str(&pad_in);
                    item.write(out, indent, depth + 1);
                }
                out.push_str(nl);
                out.push_str(&pad);
                out.push(']');
            }
            JsonValue::Obj(fields) => {
                if fields.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str(nl);
                    out.push_str(&pad_in);
                    write_escaped(out, k);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    v.write(out, indent, depth + 1);
                }
                out.push_str(nl);
                out.push_str(&pad);
                out.push('}');
            }
        }
    }
}

impl From<bool> for JsonValue {
    fn from(v: bool) -> Self {
        JsonValue::Bool(v)
    }
}
impl From<f64> for JsonValue {
    fn from(v: f64) -> Self {
        JsonValue::Num(v)
    }
}
impl From<u64> for JsonValue {
    fn from(v: u64) -> Self {
        JsonValue::Num(v as f64)
    }
}
impl From<u32> for JsonValue {
    fn from(v: u32) -> Self {
        JsonValue::Num(v as f64)
    }
}
impl From<usize> for JsonValue {
    fn from(v: usize) -> Self {
        JsonValue::Num(v as f64)
    }
}
impl From<i64> for JsonValue {
    fn from(v: i64) -> Self {
        JsonValue::Num(v as f64)
    }
}
impl From<&str> for JsonValue {
    fn from(v: &str) -> Self {
        JsonValue::Str(v.to_string())
    }
}
impl From<String> for JsonValue {
    fn from(v: String) -> Self {
        JsonValue::Str(v)
    }
}
impl From<Vec<JsonValue>> for JsonValue {
    fn from(v: Vec<JsonValue>) -> Self {
        JsonValue::Arr(v)
    }
}
impl<V: Into<JsonValue>> From<Option<V>> for JsonValue {
    fn from(v: Option<V>) -> Self {
        v.map_or(JsonValue::Null, Into::into)
    }
}
impl From<BTreeMap<String, JsonValue>> for JsonValue {
    fn from(v: BTreeMap<String, JsonValue>) -> Self {
        JsonValue::Obj(v.into_iter().collect())
    }
}
impl<V: Into<JsonValue>> FromIterator<V> for JsonValue {
    fn from_iter<I: IntoIterator<Item = V>>(items: I) -> Self {
        JsonValue::Arr(items.into_iter().map(Into::into).collect())
    }
}

/// What a [`Field`] holds: how [`check`] validates it, and whether
/// [`write()`] may leave it out.
#[derive(Debug, Clone, Copy)]
pub enum Kind {
    /// A non-negative integer.
    Count,
    /// Any number.
    Num,
    /// A number in `0..=1`.
    Rate,
    /// `true` or `false`.
    Bool,
    /// A string.
    Str,
    /// Exactly this schema version.
    Version(u64),
    /// `null`, or the inner kind.
    Nullable(&'static Kind),
    /// Absent, or the inner kind: [`write()`] leaves a `null` value out.
    Optional(&'static Kind),
    /// An array whose every item is the inner kind.
    Array(&'static Kind),
    /// A value its own checker validates: a nested table.
    Object(Check),
}

/// Validates a value. An error starts with the JSON pointer of the
/// failing part relative to the value (empty for the value itself), then
/// `: ` and the reason.
pub type Check = fn(&JsonValue) -> Result<(), String>;

/// One field of a report object: its JSON pointer within the object, its
/// kind, and how to read it off the Rust value.
pub type Field<T> = (&'static str, Kind, fn(&T) -> JsonValue);

/// A rule across fields, checked after every field has its kind: the
/// pointer it blames, and a [`Check`] of the whole object whose error
/// continues that pointer.
pub type Rule = (&'static str, Check);

impl Kind {
    /// Checks `v` against this kind.
    pub fn check(&self, v: &JsonValue) -> Result<(), String> {
        let ok = match (self, v) {
            (Kind::Count, _) => v.as_u64().is_some(),
            (Kind::Num, JsonValue::Num(_)) | (Kind::Bool, JsonValue::Bool(_)) => true,
            (Kind::Str, JsonValue::Str(_)) | (Kind::Nullable(_), JsonValue::Null) => true,
            (Kind::Rate, JsonValue::Num(x)) => (0.0..=1.0).contains(x),
            (Kind::Version(want), _) => v.as_u64() == Some(*want),
            (Kind::Nullable(inner) | Kind::Optional(inner), _) => return inner.check(v),
            (Kind::Object(check), _) => return check(v),
            (Kind::Array(item), JsonValue::Arr(items)) => {
                for (i, x) in items.iter().enumerate() {
                    item.check(x).map_err(|e| format!("/{i}{e}"))?;
                }
                true
            }
            _ => false,
        };
        if !ok {
            return Err(format!(
                ": expected {}, found {}",
                self.name(),
                v.to_compact()
            ));
        }
        Ok(())
    }

    fn name(&self) -> String {
        match self {
            Kind::Count => "a non-negative integer".into(),
            Kind::Num => "a number".into(),
            Kind::Rate => "a number in 0..=1".into(),
            Kind::Bool => "a bool".into(),
            Kind::Str => "a string".into(),
            Kind::Version(v) => format!("version {v}"),
            Kind::Nullable(inner) => format!("null or {}", inner.name()),
            Kind::Optional(inner) => inner.name(),
            Kind::Array(_) => "an array".into(),
            Kind::Object(_) => "an object".into(),
        }
    }
}

/// Builds the object `table` describes from `value`, field by field in
/// table order (a pointer's parent objects appear where it first names
/// them).
pub fn write<T>(table: &[Field<T>], value: &T) -> JsonValue {
    let mut doc = JsonValue::obj();
    for (at, kind, get) in table {
        let v = get(value);
        if matches!(kind, Kind::Optional(_)) && v == JsonValue::Null {
            continue;
        }
        let (parents, key) = at
            .rsplit_once('/')
            .expect("a field pointer starts with '/'");
        let parent = parents
            .split('/')
            .skip(1)
            .fold(&mut doc, |o, name| member(o, name));
        *member(parent, key) = v;
    }
    doc
}

/// A [`Rule`]'s comparison: the numbers at `lo` sum to at most those at
/// `hi`.
pub fn at_most(doc: &JsonValue, lo: &[&str], hi: &[&str]) -> Result<(), String> {
    let sum = |ptrs: &[&str]| -> f64 { ptrs.iter().map(|p| doc.number_at(p)).sum() };
    let (a, b) = (sum(lo), sum(hi));
    if a > b {
        return Err(format!(
            ": {} = {a} exceeds {} = {b}",
            lo.join(" + "),
            hi.join(" + ")
        ));
    }
    Ok(())
}

/// The member `key` of object `obj`, appended as an empty object when
/// absent.
fn member<'a>(obj: &'a mut JsonValue, key: &str) -> &'a mut JsonValue {
    let JsonValue::Obj(fields) = obj else {
        panic!("a field pointer runs through a non-object at {key}")
    };
    let i = fields
        .iter()
        .position(|(k, _)| k == key)
        .unwrap_or_else(|| {
            fields.push((key.to_string(), JsonValue::obj()));
            fields.len() - 1
        });
    &mut fields[i].1
}

/// Checks `doc` against `table`: it is an object, every field is present
/// (unless optional) with its kind, then every rule holds. The error
/// starts with the failing field's pointer.
pub fn check<T>(table: &[Field<T>], rules: &[Rule], doc: &JsonValue) -> Result<(), String> {
    if doc.as_obj().is_none() {
        return Err(format!(": expected an object, found {}", doc.to_compact()));
    }
    for (at, kind, _) in table {
        match doc.pointer(at) {
            Some(v) => kind.check(v).map_err(|e| format!("{at}{e}"))?,
            None if matches!(kind, Kind::Optional(_)) => {}
            None => return Err(format!("{at}: missing")),
        }
    }
    for (at, rule) in rules {
        rule(doc).map_err(|e| format!("{at}{e}"))?;
    }
    Ok(())
}

/// Writes an `f64` so that integers print without a fractional part and
/// every value round-trips through the parser bit-exactly.
fn write_number(out: &mut String, v: f64) {
    if !v.is_finite() {
        // JSON has no NaN/Inf; null is the conventional stand-in.
        out.push_str("null");
    } else {
        // Rust's shortest-round-trip Display.
        write!(out, "{v}").expect("string write");
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                write!(out, "\\u{:04x}", c as u32).expect("string write");
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Parse error with a byte offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// What went wrong.
    pub msg: String,
    /// Byte offset into the input.
    pub at: usize,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "json error at byte {}: {}", self.at, self.msg)
    }
}

impl std::error::Error for JsonError {}

/// Maximum container nesting the parser accepts. The recursive-descent
/// parser uses one stack frame per level, so a hostile
/// `[[[[…]]]]` document would otherwise overflow the thread stack;
/// past this depth it returns a typed [`JsonError`] instead. Far above
/// anything the workspace emits (reports nest ~4 deep).
pub const MAX_DEPTH: usize = 512;

/// Parses a complete JSON document (trailing whitespace allowed, nothing
/// else). Minimal by design: it accepts exactly the constructs the
/// workspace emits (and standard JSON in general), and rejects garbage
/// with an offset. Containers nested deeper than [`MAX_DEPTH`] are a
/// typed error, not a stack overflow.
pub fn parse(input: &str) -> Result<JsonValue, JsonError> {
    let bytes = input.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(err("trailing data", pos));
    }
    Ok(value)
}

fn err(msg: &str, at: usize) -> JsonError {
    JsonError {
        msg: msg.to_string(),
        at,
    }
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, c: u8) -> Result<(), JsonError> {
    if *pos < b.len() && b[*pos] == c {
        *pos += 1;
        Ok(())
    } else {
        Err(err(&format!("expected '{}'", c as char), *pos))
    }
}

fn parse_value(b: &[u8], pos: &mut usize, depth: usize) -> Result<JsonValue, JsonError> {
    skip_ws(b, pos);
    if depth > MAX_DEPTH {
        return Err(err("nesting too deep", *pos));
    }
    match b.get(*pos) {
        None => Err(err("unexpected end of input", *pos)),
        Some(b'{') => parse_obj(b, pos, depth),
        Some(b'[') => parse_arr(b, pos, depth),
        Some(b'"') => Ok(JsonValue::Str(parse_string(b, pos)?)),
        Some(b't') => parse_lit(b, pos, "true", JsonValue::Bool(true)),
        Some(b'f') => parse_lit(b, pos, "false", JsonValue::Bool(false)),
        Some(b'n') => parse_lit(b, pos, "null", JsonValue::Null),
        Some(_) => parse_number(b, pos),
    }
}

fn parse_lit(
    b: &[u8],
    pos: &mut usize,
    lit: &str,
    value: JsonValue,
) -> Result<JsonValue, JsonError> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(err(&format!("expected '{lit}'"), *pos))
    }
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<JsonValue, JsonError> {
    let start = *pos;
    while *pos < b.len() && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E') {
        *pos += 1;
    }
    let text = std::str::from_utf8(&b[start..*pos]).expect("ascii slice");
    text.parse::<f64>()
        .map(JsonValue::Num)
        .map_err(|_| err("bad number", start))
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, JsonError> {
    expect(b, pos, b'"')?;
    let mut out = String::new();
    loop {
        match b.get(*pos) {
            None => return Err(err("unterminated string", *pos)),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = b
                            .get(*pos + 1..*pos + 5)
                            .ok_or_else(|| err("short \\u escape", *pos))?;
                        let code = u32::from_str_radix(
                            std::str::from_utf8(hex).map_err(|_| err("bad \\u escape", *pos))?,
                            16,
                        )
                        .map_err(|_| err("bad \\u escape", *pos))?;
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err(err("bad escape", *pos)),
                }
                *pos += 1;
            }
            Some(_) => {
                // Consume one UTF-8 scalar.
                let rest = std::str::from_utf8(&b[*pos..]).map_err(|_| err("bad utf8", *pos))?;
                let c = rest.chars().next().expect("non-empty");
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

fn parse_arr(b: &[u8], pos: &mut usize, depth: usize) -> Result<JsonValue, JsonError> {
    expect(b, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(JsonValue::Arr(items));
    }
    loop {
        items.push(parse_value(b, pos, depth + 1)?);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(JsonValue::Arr(items));
            }
            _ => return Err(err("expected ',' or ']'", *pos)),
        }
    }
}

fn parse_obj(b: &[u8], pos: &mut usize, depth: usize) -> Result<JsonValue, JsonError> {
    expect(b, pos, b'{')?;
    let mut fields = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(JsonValue::Obj(fields));
    }
    loop {
        skip_ws(b, pos);
        let key = parse_string(b, pos)?;
        skip_ws(b, pos);
        expect(b, pos, b':')?;
        let value = parse_value(b, pos, depth + 1)?;
        fields.push((key, value));
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(JsonValue::Obj(fields));
            }
            _ => return Err(err("expected ',' or '}'", *pos)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_and_pretty_print() {
        let v = JsonValue::obj()
            .set("schema_version", 1u64)
            .set("name", "a \"quoted\" name")
            .set("items", vec![JsonValue::from(1u64), JsonValue::from(2u64)])
            .set("none", Option::<u64>::None);
        let s = v.to_pretty();
        assert!(s.contains("\"schema_version\": 1"));
        assert!(s.contains("\\\"quoted\\\""));
        assert!(s.contains("null"));
        assert_eq!(parse(&s).expect("round-trips"), v);
    }

    #[test]
    fn numbers_round_trip_exactly() {
        for &x in &[0.0, 1.5, 1e-9, 123456789.000000001, 2.0f64.powi(53)] {
            let s = JsonValue::Num(x).to_compact();
            let back = parse(&s).expect("parses").as_f64().expect("number");
            assert_eq!(back, x, "{s}");
        }
    }

    #[test]
    fn parses_nested_structures() {
        let v = parse(r#"{"a":[1,2,{"b":"c\nd"}],"e":true,"f":null,"g":-1.25e2}"#).expect("ok");
        assert_eq!(v.get("e"), Some(&JsonValue::Bool(true)));
        assert_eq!(v.get("g").and_then(JsonValue::as_f64), Some(-125.0));
        let arr = v.get("a").and_then(JsonValue::as_arr).expect("array");
        assert_eq!(arr[2].get("b").and_then(JsonValue::as_str), Some("c\nd"));
    }

    #[test]
    fn rejects_garbage_with_offset() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{} junk").is_err());
        assert!(parse("nope").is_err());
    }

    #[test]
    fn a_table_writes_in_order_and_checks_with_pointers() {
        struct Row {
            n: u64,
            rate: f64,
            tag: Option<u64>,
        }
        const TABLE: &[Field<Row>] = &[
            ("/v", Kind::Version(3), |_| 3u64.into()),
            ("/a/n", Kind::Count, |r| r.n.into()),
            ("/b", Kind::Rate, |r| r.rate.into()),
            ("/a/tag", Kind::Optional(&Kind::Count), |r| r.tag.into()),
        ];
        const RULES: &[Rule] = &[("/a/n", |d| at_most(d, &["/a/n"], &["/v"]))];
        let row = Row {
            n: 2,
            rate: 0.5,
            tag: None,
        };
        let doc = write(TABLE, &row);
        assert_eq!(doc.to_compact(), r#"{"v":3,"a":{"n":2},"b":0.5}"#);
        assert_eq!(check(TABLE, RULES, &doc), Ok(()));
        let with = |v: &str, a: &str, b: &str| {
            let bad = parse(&format!(r#"{{"v":{v},"a":{a},"b":{b}}}"#)).expect("json");
            check(TABLE, RULES, &bad).expect_err("rejected")
        };
        let n = |n: &str| format!(r#"{{"n":{n}}}"#);
        assert_eq!(
            with("3.5", &n("2"), "0.5"),
            "/v: expected version 3, found 3.5"
        );
        assert_eq!(with("3", "{}", "0.5"), "/a/n: missing");
        assert_eq!(
            with("3", &n("-1"), "0.5"),
            "/a/n: expected a non-negative integer, found -1"
        );
        assert_eq!(
            with("3", &n("[1]"), "0.5"),
            "/a/n: expected a non-negative integer, found [1]"
        );
        assert_eq!(
            with("3", &n("2"), "7"),
            "/b: expected a number in 0..=1, found 7"
        );
        assert_eq!(with("3", &n("4"), "0.5"), "/a/n: /a/n = 4 exceeds /v = 3");
    }

    #[test]
    fn non_finite_serializes_as_null() {
        assert_eq!(JsonValue::Num(f64::NAN).to_compact(), "null");
    }
}

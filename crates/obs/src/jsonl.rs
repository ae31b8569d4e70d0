//! The JSONL wire format: one flat JSON object per line.
//!
//! Writing and parsing are hand-rolled over `std` so the crate stays
//! dependency-free. The writer is deterministic — field order is emission
//! order, floats use Rust's shortest round-trip `{}` formatting, and
//! non-finite floats render as `null` — so two identical seeded runs
//! produce byte-identical output. The parser handles exactly the subset
//! the writer produces (flat objects of scalars), which is all `fap
//! report` needs to replay a recorded run offline.
//!
//! Line shapes:
//!
//! ```text
//! {"t":3,"event":"fault","kind":"drop","round":3,"from":1,"to":4}
//! {"counter":"sim.dropped","value":12}
//! {"gauge":"core.node_threads","value":8}
//! {"hist":"sim.report_latency_rounds","count":57,"sum":61,"min":0,"max":3,"p50":1,"p90":2,"p99":3}
//! {"sketch":"served.wait","error":0.01,"count":9,"sum":41,"min":0,"max":12,"p50":3.0002,"p90":8.9,"p99":12}
//! ```

use std::fmt::Write as _;

use crate::event::{EventRecord, Value};
use crate::metrics::{Histogram, MetricsRegistry};
use crate::sketch::QuantileSketch;

/// Appends `text` to `out` as a JSON string literal (quotes included).
pub fn push_json_str(out: &mut String, text: &str) {
    out.push('"');
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Appends `value` to `out` as a JSON number, or `null` when non-finite.
/// Uses Rust's shortest round-trip formatting, matching the vendored
/// `serde_json` shim.
pub fn push_json_f64(out: &mut String, value: f64) {
    if value.is_finite() {
        let _ = write!(out, "{value}");
    } else {
        out.push_str("null");
    }
}

fn push_value(out: &mut String, value: &Value) {
    match value {
        Value::U64(v) => {
            let _ = write!(out, "{v}");
        }
        Value::I64(v) => {
            let _ = write!(out, "{v}");
        }
        Value::F64(v) => push_json_f64(out, *v),
        Value::Bool(v) => {
            let _ = write!(out, "{v}");
        }
        Value::Str(v) => push_json_str(out, v),
    }
}

/// Appends one event line (with trailing newline) to `out`:
/// `{"t":<tick>,"event":"<name>",<fields...>}`.
pub fn write_event(out: &mut String, event: &EventRecord) {
    let _ = write!(out, "{{\"t\":{},\"event\":", event.time());
    push_json_str(out, event.name());
    for (key, value) in event.fields() {
        out.push(',');
        push_json_str(out, key);
        out.push(':');
        push_value(out, value);
    }
    out.push_str("}\n");
}

/// Appends one line (with trailing newline) per metric in `registry`, in
/// registration order: counters, then gauges, then histograms, then
/// quantile sketches.
pub fn write_registry(out: &mut String, registry: &MetricsRegistry) {
    for (name, value) in registry.counters() {
        out.push_str("{\"counter\":");
        push_json_str(out, name);
        let _ = writeln!(out, ",\"value\":{value}}}");
    }
    for (name, value) in registry.gauges() {
        out.push_str("{\"gauge\":");
        push_json_str(out, name);
        out.push_str(",\"value\":");
        push_json_f64(out, *value);
        out.push_str("}\n");
    }
    for (name, hist) in registry.histograms() {
        write_histogram(out, name, hist);
    }
    for (name, sketch) in registry.sketches() {
        write_sketch(out, name, sketch);
    }
}

fn write_histogram(out: &mut String, name: &str, hist: &Histogram) {
    out.push_str("{\"hist\":");
    push_json_str(out, name);
    let _ = write!(out, ",\"count\":{}", hist.count());
    for (key, value) in [
        ("sum", hist.sum()),
        ("min", if hist.count() == 0 { 0.0 } else { hist.min() }),
        ("max", if hist.count() == 0 { 0.0 } else { hist.max() }),
        ("p50", hist.quantile(0.5)),
        ("p90", hist.quantile(0.9)),
        ("p99", hist.quantile(0.99)),
    ] {
        let _ = write!(out, ",\"{key}\":");
        push_json_f64(out, value);
    }
    out.push_str("}\n");
}

fn write_sketch(out: &mut String, name: &str, sketch: &QuantileSketch) {
    out.push_str("{\"sketch\":");
    push_json_str(out, name);
    out.push_str(",\"error\":");
    push_json_f64(out, sketch.relative_accuracy());
    let _ = write!(out, ",\"count\":{}", sketch.count());
    for (key, value) in [
        ("sum", sketch.sum()),
        ("min", sketch.min()),
        ("max", sketch.max()),
        ("p50", sketch.quantile(0.5)),
        ("p90", sketch.quantile(0.9)),
        ("p99", sketch.quantile(0.99)),
    ] {
        let _ = write!(out, ",\"{key}\":");
        push_json_f64(out, value);
    }
    out.push_str("}\n");
}

/// A scalar parsed back from a JSONL line.
#[derive(Debug, Clone, PartialEq)]
pub enum Scalar {
    /// JSON `null` (also produced for non-finite floats on the way out).
    Null,
    /// A boolean.
    Bool(bool),
    /// An integer-valued number.
    Int(i64),
    /// Any other number.
    Num(f64),
    /// A string.
    Str(String),
}

impl Scalar {
    /// The value as an `f64`, when numeric.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Scalar::Int(v) => Some(*v as f64),
            Scalar::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as an `i64`, when an integer.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Scalar::Int(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as a `&str`, when a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Scalar::Str(v) => Some(v),
            _ => None,
        }
    }
}

/// A line [`parse_line`] refused: the byte offset into the line where
/// parsing stopped, and why.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JsonlError {
    /// Byte offset of the offending input (the line's length when the
    /// line ended too early).
    pub offset: usize,
    /// What was wrong there.
    pub reason: &'static str,
}

impl std::fmt::Display for JsonlError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "byte {}: {}", self.offset, self.reason)
    }
}

impl std::error::Error for JsonlError {}

const BAD_ESCAPE: &str = "invalid escape in string";
const UNTERMINATED: &str = "unterminated string";

/// A read position in one line.
struct Cursor<'a> {
    text: &'a str,
    chars: std::iter::Peekable<std::str::CharIndices<'a>>,
}

impl Cursor<'_> {
    fn offset(&mut self) -> usize {
        self.chars.peek().map_or(self.text.len(), |(i, _)| *i)
    }

    fn peek(&mut self) -> Option<char> {
        self.chars.peek().map(|(_, c)| *c)
    }

    fn error<T>(&mut self, reason: &'static str) -> Result<T, JsonlError> {
        Err(JsonlError { offset: self.offset(), reason })
    }

    fn skip_ws(&mut self) {
        while self.peek().is_some_and(char::is_whitespace) {
            self.chars.next();
        }
    }

    /// Consumes `expected`, or fails with `reason` at the current byte.
    fn expect(&mut self, expected: char, reason: &'static str) -> Result<(), JsonlError> {
        if self.peek() == Some(expected) {
            self.chars.next();
            Ok(())
        } else {
            self.error(reason)
        }
    }

    /// Consumes the characters `accept` takes and returns them as a slice.
    fn token(&mut self, accept: impl Fn(char) -> bool) -> &str {
        let start = self.offset();
        while self.peek().is_some_and(&accept) {
            self.chars.next();
        }
        let end = self.offset();
        &self.text[start..end]
    }

    fn string(&mut self, not_a_string: &'static str) -> Result<String, JsonlError> {
        self.expect('"', not_a_string)?;
        let mut s = String::new();
        loop {
            let Some(c) = self.peek() else {
                return self.error(UNTERMINATED);
            };
            self.chars.next();
            match c {
                '"' => return Ok(s),
                '\\' => {
                    let escaped = match self.peek() {
                        Some('"') => '"',
                        Some('\\') => '\\',
                        Some('/') => '/',
                        Some('n') => '\n',
                        Some('r') => '\r',
                        Some('t') => '\t',
                        Some('u') => {
                            self.chars.next();
                            let at = self.offset();
                            let mut code = 0u32;
                            for _ in 0..4 {
                                let Some(digit) = self.peek().and_then(|c| c.to_digit(16)) else {
                                    return self.error(BAD_ESCAPE);
                                };
                                self.chars.next();
                                code = code * 16 + digit;
                            }
                            let Some(c) = char::from_u32(code) else {
                                return Err(JsonlError { offset: at, reason: BAD_ESCAPE });
                            };
                            s.push(c);
                            continue;
                        }
                        Some(_) => return self.error(BAD_ESCAPE),
                        None => return self.error(UNTERMINATED),
                    };
                    self.chars.next();
                    s.push(escaped);
                }
                c => s.push(c),
            }
        }
    }

    fn scalar(&mut self) -> Result<Scalar, JsonlError> {
        let start = self.offset();
        let fail = |reason| Err(JsonlError { offset: start, reason });
        match self.peek() {
            Some('"') => self.string("expected a value").map(Scalar::Str),
            Some('t' | 'f' | 'n') => match self.token(|c| c.is_ascii_alphabetic()) {
                "true" => Ok(Scalar::Bool(true)),
                "false" => Ok(Scalar::Bool(false)),
                "null" => Ok(Scalar::Null),
                _ => fail("expected true, false or null"),
            },
            Some('-' | '0'..='9') => {
                let token =
                    self.token(|c| c.is_ascii_digit() || matches!(c, '-' | '+' | '.' | 'e' | 'E'));
                if let Ok(v) = token.parse::<i64>() {
                    Ok(Scalar::Int(v))
                } else {
                    token.parse::<f64>().map(Scalar::Num).or(fail("malformed number"))
                }
            }
            Some('[' | '{') => fail("nested arrays and objects are not allowed"),
            Some(',' | '}') | None => fail("expected a value"),
            Some(_) => fail("expected true, false or null"),
        }
    }
}

/// Parses one JSONL line — a flat object of scalar values, the only shape
/// the writers above produce — into `(key, value)` pairs in source order.
///
/// # Errors
///
/// Returns a [`JsonlError`] naming the byte offset and the reason on any
/// malformed input (nested containers included).
pub fn parse_line(line: &str) -> Result<Vec<(String, Scalar)>, JsonlError> {
    let mut cur = Cursor { text: line, chars: line.char_indices().peekable() };
    let mut pairs = Vec::new();
    cur.skip_ws();
    cur.expect('{', "expected '{'")?;
    cur.skip_ws();
    if cur.peek() == Some('}') {
        cur.chars.next();
    } else {
        loop {
            cur.skip_ws();
            let key = cur.string("expected a string key")?;
            cur.skip_ws();
            cur.expect(':', "expected ':' after a key")?;
            cur.skip_ws();
            let value = cur.scalar()?;
            pairs.push((key, value));
            cur.skip_ws();
            match cur.peek() {
                Some(',') => {
                    cur.chars.next();
                }
                Some('}') => {
                    cur.chars.next();
                    break;
                }
                _ => return cur.error("expected ',' or '}'"),
            }
        }
    }
    cur.skip_ws();
    match cur.peek() {
        None => Ok(pairs),
        Some(_) => cur.error("trailing input after the object"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_lines_have_the_documented_shape() {
        let event = EventRecord::new(
            3,
            "fault",
            &[
                ("kind", Value::Str("drop")),
                ("round", Value::U64(3)),
                ("ok", Value::Bool(false)),
                ("norm", Value::F64(0.5)),
            ],
        );
        let mut out = String::new();
        write_event(&mut out, &event);
        assert_eq!(
            out,
            "{\"t\":3,\"event\":\"fault\",\"kind\":\"drop\",\"round\":3,\"ok\":false,\"norm\":0.5}\n"
        );
    }

    #[test]
    fn non_finite_floats_render_as_null() {
        let mut out = String::new();
        push_json_f64(&mut out, f64::NAN);
        out.push(' ');
        push_json_f64(&mut out, f64::INFINITY);
        assert_eq!(out, "null null");
    }

    #[test]
    fn strings_are_escaped() {
        let mut out = String::new();
        push_json_str(&mut out, "a\"b\\c\nd\u{1}");
        assert_eq!(out, "\"a\\\"b\\\\c\\nd\\u0001\"");
    }

    #[test]
    fn registry_lines_round_trip_through_the_parser() {
        let mut registry = MetricsRegistry::new();
        registry.incr("sim.dropped", 12);
        registry.gauge("threads", 8.0);
        registry.register_histogram("lat", &[0.0, 1.0, 2.0, 4.0]);
        registry.observe("lat", 1.0);
        registry.observe("lat", 2.0);
        let mut out = String::new();
        write_registry(&mut out, &registry);

        let lines: Vec<_> = out.lines().collect();
        assert_eq!(lines.len(), 3);

        let counter = parse_line(lines[0]).unwrap();
        assert_eq!(counter[0], ("counter".into(), Scalar::Str("sim.dropped".into())));
        assert_eq!(counter[1], ("value".into(), Scalar::Int(12)));

        let gauge = parse_line(lines[1]).unwrap();
        assert_eq!(gauge[0].1.as_str(), Some("threads"));
        assert_eq!(gauge[1].1.as_f64(), Some(8.0));

        let hist = parse_line(lines[2]).unwrap();
        let get = |key: &str| {
            hist.iter().find(|(k, _)| k == key).map(|(_, v)| v.as_f64().unwrap())
        };
        assert_eq!(get("count"), Some(2.0));
        assert_eq!(get("sum"), Some(3.0));
        assert_eq!(get("p50"), Some(1.0));
        assert_eq!(get("p99"), Some(2.0));
    }

    #[test]
    fn sketch_lines_round_trip_through_the_parser() {
        let mut registry = MetricsRegistry::new();
        registry.register_sketch("served.wait", 0.01);
        for v in [1.0, 2.0, 4.0] {
            registry.observe_sketch("served.wait", v);
        }
        let mut out = String::new();
        write_registry(&mut out, &registry);
        let lines: Vec<_> = out.lines().collect();
        assert_eq!(lines.len(), 1);
        let pairs = parse_line(lines[0]).unwrap();
        assert_eq!(pairs[0], ("sketch".into(), Scalar::Str("served.wait".into())));
        let get = |key: &str| {
            pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v.as_f64().unwrap())
        };
        assert_eq!(get("error"), Some(0.01));
        assert_eq!(get("count"), Some(3.0));
        assert_eq!(get("sum"), Some(7.0));
        assert_eq!(get("min"), Some(1.0));
        assert_eq!(get("max"), Some(4.0));
        let p50 = get("p50").unwrap();
        assert!((p50 - 2.0).abs() <= 2.0 * 0.011, "p50 {p50} off the true median");
    }

    #[test]
    fn parser_rejects_malformed_lines_with_offset_and_reason() {
        let cases: &[(&str, usize, &str)] = &[
            ("", 0, "expected '{'"),
            ("  [1]", 2, "expected '{'"),
            ("{", 1, "expected a string key"),
            ("{a:1}", 1, "expected a string key"),
            ("{\"a\" 1}", 5, "expected ':' after a key"),
            ("{\"a\":}", 5, "expected a value"),
            ("{\"a\":", 5, "expected a value"),
            ("{\"a\":[1]}", 5, "nested arrays and objects are not allowed"),
            ("{\"a\":{}}", 5, "nested arrays and objects are not allowed"),
            ("{\"a\":flase}", 5, "expected true, false or null"),
            ("{\"a\":@}", 5, "expected true, false or null"),
            ("{\"a\":1-2}", 5, "malformed number"),
            ("{\"a\":\"xy", 8, "unterminated string"),
            ("{\"a\\q\":1}", 4, "invalid escape in string"),
            ("{\"a\":\"\\u00zz\"}", 10, "invalid escape in string"),
            ("{\"a\":\"\\ud800\"}", 8, "invalid escape in string"),
            ("{\"a\":1 \"b\":2}", 7, "expected ',' or '}'"),
            ("{\"a\":1", 6, "expected ',' or '}'"),
            ("{\"a\":1} trailing", 8, "trailing input after the object"),
        ];
        for &(line, offset, reason) in cases {
            assert_eq!(parse_line(line), Err(JsonlError { offset, reason }), "{line:?}");
        }
        let err = parse_line("{\"a\":flase}").unwrap_err();
        assert_eq!(err.to_string(), "byte 5: expected true, false or null");
    }

    #[test]
    fn parser_handles_empty_objects_and_escapes() {
        assert_eq!(parse_line("{}"), Ok(vec![]));
        let pairs = parse_line("{\"k\\n\":\"v\\u0041\",\"x\":null}").unwrap();
        assert_eq!(pairs[0], ("k\n".into(), Scalar::Str("vA".into())));
        assert_eq!(pairs[1].1, Scalar::Null);
    }

    #[test]
    fn numbers_parse_to_int_or_float() {
        let pairs = parse_line("{\"a\":-3,\"b\":2.5,\"c\":1e3}").unwrap();
        assert_eq!(pairs[0].1, Scalar::Int(-3));
        assert_eq!(pairs[1].1, Scalar::Num(2.5));
        assert_eq!(pairs[2].1, Scalar::Num(1000.0));
    }
}

//! Minimal JSON support shared by the workspace's machine-readable
//! artifacts.
//!
//! The workspace vendors its dependencies and has no `serde`, so
//! structured output is rendered and parsed with a small hand-rolled
//! implementation: a [`JsonWriter`] that produces
//! deterministic, pretty-printed output (fixed key order, two-space
//! indent), and a [`JsonValue`] recursive-descent parser used by the test
//! suite, the bench harness and CI to validate what the writer produced.
//!
//! This is the *single* writer/parser pair of the workspace: the run
//! reports here in `dmc-metrics` (`dmc.run_report.*`) and the benchmark
//! suite records in `dmc-bench` (`dmc.bench.*`) both serialize through it
//! rather than keeping per-crate copies.
//!
//! The writer only emits the subset of JSON those schemas need: objects,
//! arrays (of objects or scalars), strings, booleans, `null`, and finite
//! numbers.

use std::fmt::Write as _;

/// Escapes `s` into `out` as a JSON string literal (with quotes).
fn escape_into(out: &mut String, s: &str) {
    out.push('"');
    for ch in s.chars() {
        match ch {
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

/// Builds pretty-printed JSON with deterministic key order.
///
/// Keys are emitted in the order the caller writes them; nesting is tracked
/// so commas and indentation come out right without the caller bookkeeping
/// either.
pub struct JsonWriter {
    out: String,
    /// One entry per open container: `true` once it has at least one item.
    stack: Vec<bool>,
}

impl JsonWriter {
    /// A writer positioned before the root value.
    #[must_use]
    pub fn new() -> Self {
        Self {
            out: String::new(),
            stack: Vec::new(),
        }
    }

    /// Finishes and returns the rendered document.
    #[must_use]
    pub fn finish(self) -> String {
        debug_assert!(self.stack.is_empty(), "unclosed JSON container");
        self.out
    }

    fn indent(&mut self) {
        for _ in 0..self.stack.len() {
            self.out.push_str("  ");
        }
    }

    /// Starts the next element: comma for siblings, newline + indent inside
    /// a container.
    fn begin_item(&mut self) {
        if let Some(has_items) = self.stack.last_mut() {
            if *has_items {
                self.out.push(',');
            }
            *has_items = true;
            self.out.push('\n');
            self.indent();
        }
    }

    /// Opens the root object or an array-element object.
    pub fn object(&mut self) {
        self.begin_item();
        self.out.push('{');
        self.stack.push(false);
    }

    /// Opens an object under `key`.
    pub fn object_key(&mut self, key: &str) {
        self.begin_item();
        escape_into(&mut self.out, key);
        self.out.push_str(": {");
        self.stack.push(false);
    }

    /// Closes the innermost object.
    pub fn end_object(&mut self) {
        let had_items = self.stack.pop().expect("end_object without object");
        if had_items {
            self.out.push('\n');
            self.indent();
        }
        self.out.push('}');
    }

    /// Opens an array under `key`.
    pub fn array_key(&mut self, key: &str) {
        self.begin_item();
        escape_into(&mut self.out, key);
        self.out.push_str(": [");
        self.stack.push(false);
    }

    /// Closes the innermost array.
    pub fn end_array(&mut self) {
        let had_items = self.stack.pop().expect("end_array without array");
        if had_items {
            self.out.push('\n');
            self.indent();
        }
        self.out.push(']');
    }

    /// Writes `key: "value"`.
    pub fn string(&mut self, key: &str, value: &str) {
        self.begin_item();
        escape_into(&mut self.out, key);
        self.out.push_str(": ");
        escape_into(&mut self.out, value);
    }

    /// Writes `key: value` for an unsigned integer.
    pub fn uint(&mut self, key: &str, value: u64) {
        self.begin_item();
        escape_into(&mut self.out, key);
        let _ = write!(self.out, ": {value}");
    }

    /// Writes `key: value` for a finite float (falls back to `null`).
    pub fn float(&mut self, key: &str, value: f64) {
        self.begin_item();
        escape_into(&mut self.out, key);
        if value.is_finite() {
            let _ = write!(self.out, ": {value}");
        } else {
            self.out.push_str(": null");
        }
    }

    /// Writes `key: value` or `key: null`.
    pub fn opt_uint(&mut self, key: &str, value: Option<u64>) {
        match value {
            Some(v) => self.uint(key, v),
            None => self.null(key),
        }
    }

    /// Writes `key: true` or `key: false`.
    pub fn bool(&mut self, key: &str, value: bool) {
        self.begin_item();
        escape_into(&mut self.out, key);
        let _ = write!(self.out, ": {value}");
    }

    /// Writes a bare string as the next array element.
    pub fn item_string(&mut self, value: &str) {
        self.begin_item();
        escape_into(&mut self.out, value);
    }

    /// Writes a bare unsigned integer as the next array element.
    pub fn item_uint(&mut self, value: u64) {
        self.begin_item();
        let _ = write!(self.out, "{value}");
    }

    /// Writes a bare finite float as the next array element (falls back
    /// to `null`).
    pub fn item_float(&mut self, value: f64) {
        self.begin_item();
        if value.is_finite() {
            let _ = write!(self.out, "{value}");
        } else {
            self.out.push_str("null");
        }
    }

    /// Writes `key: null`.
    pub fn null(&mut self, key: &str) {
        self.begin_item();
        escape_into(&mut self.out, key);
        self.out.push_str(": null");
    }
}

impl Default for JsonWriter {
    fn default() -> Self {
        Self::new()
    }
}

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum JsonValue {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<JsonValue>),
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Parses a complete JSON document.
    pub fn parse(text: &str) -> Result<JsonValue, JsonError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing data after JSON value"));
        }
        Ok(v)
    }

    /// Looks up `key` in an object; `None` for other variants.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The object's keys in document order; empty for other variants.
    #[must_use]
    pub fn keys(&self) -> Vec<&str> {
        match self {
            JsonValue::Obj(entries) => entries.iter().map(|(k, _)| k.as_str()).collect(),
            _ => Vec::new(),
        }
    }

    /// The numeric value, if this is a number.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric value as a non-negative integer, if exactly representable.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= 2f64.powi(53) => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The boolean value, if this is a boolean.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s.as_str()),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    #[must_use]
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// A parse failure with a byte offset.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset where parsing failed.
    pub offset: usize,
    /// What went wrong.
    pub message: &'static str,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "JSON parse error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for JsonError {}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, message: &'static str) -> JsonError {
        JsonError {
            offset: self.pos,
            message,
        }
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8, message: &'static str) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(message))
        }
    }

    fn literal(&mut self, lit: &str, message: &'static str) -> Result<(), JsonError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(())
        } else {
            Err(self.err(message))
        }
    }

    fn value(&mut self) -> Result<JsonValue, JsonError> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(JsonValue::Str(self.string()?)),
            Some(b't') => {
                self.literal("true", "expected 'true'")?;
                Ok(JsonValue::Bool(true))
            }
            Some(b'f') => {
                self.literal("false", "expected 'false'")?;
                Ok(JsonValue::Bool(false))
            }
            Some(b'n') => {
                self.literal("null", "expected 'null'")?;
                Ok(JsonValue::Null)
            }
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn object(&mut self) -> Result<JsonValue, JsonError> {
        self.expect(b'{', "expected '{'")?;
        let mut entries = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Obj(entries));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':', "expected ':' after object key")?;
            self.skip_ws();
            let value = self.value()?;
            entries.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Obj(entries));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue, JsonError> {
        self.expect(b'[', "expected '['")?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"', "expected '\"'")?;
        let mut s = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => s.push('"'),
                        Some(b'\\') => s.push('\\'),
                        Some(b'/') => s.push('/'),
                        Some(b'n') => s.push('\n'),
                        Some(b'r') => s.push('\r'),
                        Some(b't') => s.push('\t'),
                        Some(b'b') => s.push('\u{8}'),
                        Some(b'f') => s.push('\u{c}'),
                        Some(b'u') => {
                            self.pos += 1;
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| self.err("bad \\u escape"))?;
                            // Surrogate pairs are not needed for our reports.
                            let ch = char::from_u32(hex)
                                .ok_or_else(|| self.err("bad \\u code point"))?;
                            s.push(ch);
                            self.pos += 3; // the final +1 below covers the 4th digit
                        }
                        _ => return Err(self.err("bad escape sequence")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar.
                    let rest = &self.bytes[self.pos..];
                    let text = std::str::from_utf8(rest)
                        .map_err(|_| self.err("invalid UTF-8 in string"))?;
                    let ch = text.chars().next().unwrap();
                    s.push(ch);
                    self.pos += ch.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<JsonValue, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number"))?;
        text.parse::<f64>()
            .map(JsonValue::Num)
            .map_err(|_| self.err("invalid number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_renders_nested_document() {
        let mut w = JsonWriter::new();
        w.object();
        w.string("name", "dmc");
        w.uint("rows", 42);
        w.float("seconds", 0.5);
        w.opt_uint("switch_at", None);
        w.array_key("phases");
        w.object();
        w.string("phase", "pre-scan");
        w.end_object();
        w.end_array();
        w.object_key("inner");
        w.uint("x", 1);
        w.end_object();
        w.end_object();
        let text = w.finish();
        let v = JsonValue::parse(&text).expect("round trip");
        assert_eq!(v.get("name").and_then(JsonValue::as_str), Some("dmc"));
        assert_eq!(v.get("rows").and_then(JsonValue::as_u64), Some(42));
        assert_eq!(v.get("seconds").and_then(JsonValue::as_f64), Some(0.5));
        assert_eq!(v.get("switch_at"), Some(&JsonValue::Null));
        let phases = v.get("phases").and_then(JsonValue::as_array).unwrap();
        assert_eq!(phases.len(), 1);
        assert_eq!(
            phases[0].get("phase").and_then(JsonValue::as_str),
            Some("pre-scan")
        );
        assert_eq!(
            v.get("inner")
                .and_then(|i| i.get("x"))
                .and_then(JsonValue::as_u64),
            Some(1)
        );
    }

    #[test]
    fn scalar_array_items_and_bools_round_trip() {
        let mut w = JsonWriter::new();
        w.object();
        w.bool("gate", true);
        w.bool("quick", false);
        w.array_key("threads");
        for t in [1u64, 2, 4, 8] {
            w.item_uint(t);
        }
        w.end_array();
        w.array_key("scales");
        w.item_string("small");
        w.item_string("medium");
        w.end_array();
        w.end_object();
        let v = JsonValue::parse(&w.finish()).expect("round trip");
        assert_eq!(v.get("gate").and_then(JsonValue::as_bool), Some(true));
        assert_eq!(v.get("quick").and_then(JsonValue::as_bool), Some(false));
        let threads: Vec<u64> = v
            .get("threads")
            .and_then(JsonValue::as_array)
            .unwrap()
            .iter()
            .map(|t| t.as_u64().unwrap())
            .collect();
        assert_eq!(threads, vec![1, 2, 4, 8]);
        let scales: Vec<&str> = v
            .get("scales")
            .and_then(JsonValue::as_array)
            .unwrap()
            .iter()
            .map(|s| s.as_str().unwrap())
            .collect();
        assert_eq!(scales, vec!["small", "medium"]);
    }

    #[test]
    fn strings_escape_and_parse_back() {
        let mut w = JsonWriter::new();
        w.object();
        w.string("k", "a\"b\\c\nd\te\u{1}");
        w.end_object();
        let text = w.finish();
        let v = JsonValue::parse(&text).unwrap();
        assert_eq!(
            v.get("k").and_then(JsonValue::as_str),
            Some("a\"b\\c\nd\te\u{1}")
        );
    }

    #[test]
    fn parser_rejects_trailing_garbage() {
        assert!(JsonValue::parse("{} x").is_err());
        assert!(JsonValue::parse("{,}").is_err());
        assert!(JsonValue::parse("[1,]").is_err());
        assert!(JsonValue::parse("\"open").is_err());
    }

    #[test]
    fn parses_numbers_and_literals() {
        let v = JsonValue::parse("[-1.5e2, 0, 7, true, false, null]").unwrap();
        let items = v.as_array().unwrap();
        assert_eq!(items[0].as_f64(), Some(-150.0));
        assert_eq!(items[1].as_u64(), Some(0));
        assert_eq!(items[2].as_u64(), Some(7));
        assert_eq!(items[3], JsonValue::Bool(true));
        assert_eq!(items[4], JsonValue::Bool(false));
        assert_eq!(items[5], JsonValue::Null);
    }
}

//! Minimal, dependency-free JSON support shared by the exporters.
//!
//! One document model, [`Value`], with one writer, [`write()`], that every
//! `BENCH_*.json` artifact goes through, plus the formatting helpers the
//! streaming exporters use directly (string escaping, shortest-round-trip
//! floats). The reader, [`parse`], is a small recursive-descent parser
//! that validates exported traces and loads artifacts. None of it aims to
//! be a general JSON library — just enough for trace-event files and bench
//! snapshots, with zero external crates (the workspace builds offline).

/// Escape a string for inclusion in a JSON document (adds the quotes).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Deterministic float rendering: shortest representation that round-trips
/// (Rust's `{:?}` for `f64`), with non-finite values mapped to `null` —
/// JSON has no NaN/Infinity.
pub fn fmt_f64(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "null".to_string()
    }
}

/// A JSON document. Objects keep their keys in insertion order, so a
/// document built field by field is written in that order, and integers
/// keep their spelling apart from floats (`4000` vs `1.0`).
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// An integer, written without a fraction.
    Int(i128),
    /// Any other number, written through [`fmt_f64`].
    Num(f64),
    /// String.
    Str(String),
    /// Array.
    Arr(Vec<Value>),
    /// Object, keys in insertion order (unique when parsed).
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Object field access (`None` for non-objects / missing keys).
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(m) => m.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Array elements (`None` for non-arrays).
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(a) => Some(a),
            _ => None,
        }
    }

    /// Number value, integer or not (`None` for non-numbers).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// String value (`None` for non-strings).
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }
}

macro_rules! from {
    ($($t:ty => $variant:ident),*) => {$(
        impl From<$t> for Value {
            fn from(x: $t) -> Self {
                Value::$variant(x.into())
            }
        }
    )*};
}
from!(i32 => Int, u32 => Int, u64 => Int, f64 => Num, bool => Bool, &str => Str, String => Str);

impl From<usize> for Value {
    fn from(n: usize) -> Self {
        Value::Int(n as i128)
    }
}

impl<T: Into<Value>> From<Vec<T>> for Value {
    fn from(items: Vec<T>) -> Self {
        Value::Arr(items.into_iter().map(Into::into).collect())
    }
}

impl<T: Into<Value>> From<Option<T>> for Value {
    fn from(v: Option<T>) -> Self {
        v.map_or(Value::Null, Into::into)
    }
}

impl<K: Into<String>, V: Into<Value>> FromIterator<(K, V)> for Value {
    /// An object of the pairs, in iteration order.
    fn from_iter<I: IntoIterator<Item = (K, V)>>(pairs: I) -> Self {
        Value::Obj(
            pairs
                .into_iter()
                .map(|(k, v)| (k.into(), v.into()))
                .collect(),
        )
    }
}

/// An object literal, fields in the order written:
/// `obj!("n": 4000, "theta": 0.4, "ok": true)`. Each value goes through
/// `Value::from`.
#[macro_export]
macro_rules! obj {
    ($($k:literal: $v:expr),* $(,)?) => {
        $crate::json::Value::Obj(vec![
            $((String::from($k), $crate::json::Value::from($v))),*
        ])
    };
}

/// Write a document in the one canonical layout, ending in a newline.
///
/// The root, and any non-empty container directly inside a broken one
/// whose children are all containers, is broken one child per line, two
/// spaces per level. Every other container goes on one line with `", "`
/// and `": "` separators. Empty containers are `[]` and `{}`. Floats go
/// through [`fmt_f64`], strings (keys too) through [`escape`].
pub fn write(v: &Value) -> String {
    let mut out = String::new();
    put(&mut out, v, 0, true);
    out.push('\n');
    out
}

fn put(out: &mut String, v: &Value, level: usize, broken: bool) {
    let (items, close): (Vec<(Option<&str>, &Value)>, char) = match v {
        Value::Null => return out.push_str("null"),
        Value::Bool(b) => return out.push_str(if *b { "true" } else { "false" }),
        Value::Int(i) => return out.push_str(&i.to_string()),
        Value::Num(x) => return out.push_str(&fmt_f64(*x)),
        Value::Str(s) => return out.push_str(&escape(s)),
        Value::Arr(a) => (a.iter().map(|x| (None, x)).collect(), ']'),
        Value::Obj(m) => (m.iter().map(|(k, x)| (Some(k.as_str()), x)).collect(), '}'),
    };
    out.push(if close == ']' { '[' } else { '{' });
    let broken = broken && !items.is_empty();
    for (i, (key, x)) in items.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        if broken {
            out.push('\n');
            out.push_str(&"  ".repeat(level + 1));
        } else if i > 0 {
            out.push(' ');
        }
        if let Some(k) = key {
            out.push_str(&escape(k));
            out.push_str(": ");
        }
        put(out, x, level + 1, broken && holds_only_containers(x));
    }
    if broken {
        out.push('\n');
        out.push_str(&"  ".repeat(level));
    }
    out.push(close);
}

/// A container whose children are all containers.
fn holds_only_containers(v: &Value) -> bool {
    let container = |x: &Value| matches!(x, Value::Arr(_) | Value::Obj(_));
    match v {
        Value::Arr(a) => a.iter().all(container),
        Value::Obj(m) => m.iter().all(|(_, x)| container(x)),
        _ => false,
    }
}

/// Deepest container nesting [`parse`] accepts: it recurses once per level,
/// and reads files named on the command line.
pub const MAX_DEPTH: usize = 128;

/// Parse a JSON document. Errors carry the byte offset of the problem; a
/// key repeated within one object and nesting deeper than [`MAX_DEPTH`]
/// are errors.
pub fn parse(input: &str) -> Result<Value, String> {
    let b = input.as_bytes();
    let mut p = Parser { b, i: 0, depth: 0 };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.i != b.len() {
        return Err(format!("trailing data at byte {}", p.i));
    }
    Ok(v)
}

struct Parser<'a> {
    b: &'a [u8],
    i: usize,
    depth: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while self.i < self.b.len() && matches!(self.b[self.i], b' ' | b'\t' | b'\n' | b'\r') {
            self.i += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.b.get(self.i).copied()
    }

    fn expect(&mut self, c: u8) -> Result<(), String> {
        if self.peek() == Some(c) {
            self.i += 1;
            Ok(())
        } else {
            Err(format!(
                "expected '{}' at byte {}, found {:?}",
                c as char,
                self.i,
                self.peek().map(|x| x as char)
            ))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{' | b'[') => self.container(),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            other => Err(format!("unexpected {:?} at byte {}", other.map(|x| x as char), self.i)),
        }
    }

    fn literal(&mut self, lit: &str, v: Value) -> Result<Value, String> {
        if self.b[self.i..].starts_with(lit.as_bytes()) {
            self.i += lit.len();
            Ok(v)
        } else {
            Err(format!("invalid literal at byte {}", self.i))
        }
    }

    /// An object or array: one loop, keys read (and checked unique) only
    /// for an object.
    fn container(&mut self) -> Result<Value, String> {
        if self.depth == MAX_DEPTH {
            return Err(format!(
                "nesting deeper than {MAX_DEPTH} at byte {}",
                self.i
            ));
        }
        let close = if self.peek() == Some(b'{') {
            b'}'
        } else {
            b']'
        };
        self.i += 1;
        self.depth += 1;
        let (mut keys, mut items) = (Vec::new(), Vec::new());
        self.skip_ws();
        if self.peek() == Some(close) {
            self.i += 1;
        } else {
            loop {
                if close == b'}' {
                    self.skip_ws();
                    let at = self.i;
                    let k = self.string()?;
                    if keys.contains(&k) {
                        return Err(format!("duplicate key {} at byte {at}", escape(&k)));
                    }
                    keys.push(k);
                    self.skip_ws();
                    self.expect(b':')?;
                }
                items.push(self.value()?);
                self.skip_ws();
                match self.peek() {
                    Some(b',') => self.i += 1,
                    Some(c) if c == close => break self.i += 1,
                    _ => {
                        let close = close as char;
                        return Err(format!("expected ',' or '{close}' at byte {}", self.i));
                    }
                }
            }
        }
        self.depth -= 1;
        Ok(if close == b'}' {
            Value::Obj(keys.into_iter().zip(items).collect())
        } else {
            Value::Arr(items)
        })
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            let Some(c) = self.peek() else {
                return Err("unterminated string".to_string());
            };
            self.i += 1;
            match c {
                b'"' => return Ok(s),
                b'\\' => {
                    let Some(e) = self.peek() else {
                        return Err("unterminated escape".to_string());
                    };
                    self.i += 1;
                    match e {
                        b'"' => s.push('"'),
                        b'\\' => s.push('\\'),
                        b'/' => s.push('/'),
                        b'n' => s.push('\n'),
                        b'r' => s.push('\r'),
                        b't' => s.push('\t'),
                        b'b' => s.push('\u{8}'),
                        b'f' => s.push('\u{c}'),
                        b'u' => {
                            if self.i + 4 > self.b.len() {
                                return Err("truncated \\u escape".to_string());
                            }
                            let hex = std::str::from_utf8(&self.b[self.i..self.i + 4])
                                .map_err(|_| "bad \\u escape".to_string())?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| "bad \\u escape".to_string())?;
                            self.i += 4;
                            s.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        _ => return Err(format!("bad escape at byte {}", self.i)),
                    }
                }
                _ => {
                    // Re-sync to char boundary for multi-byte UTF-8.
                    let start = self.i - 1;
                    let mut end = self.i;
                    while end < self.b.len() && (self.b[end] & 0xC0) == 0x80 {
                        end += 1;
                    }
                    let chunk = std::str::from_utf8(&self.b[start..end])
                        .map_err(|_| "invalid UTF-8".to_string())?;
                    s.push_str(chunk);
                    self.i = end;
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.i;
        if self.peek() == Some(b'-') {
            self.i += 1;
        }
        while self
            .peek()
            .is_some_and(|c| c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.i += 1;
        }
        let txt = std::str::from_utf8(&self.b[start..self.i]).unwrap();
        let int = !txt.contains(['.', 'e', 'E']);
        match txt.parse::<i128>() {
            Ok(i) if int => Ok(Value::Int(i)),
            _ => txt
                .parse::<f64>()
                .map(Value::Num)
                .map_err(|_| format!("bad number '{txt}' at byte {start}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escape_specials() {
        assert_eq!(escape("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(escape("\u{1}"), "\"\\u0001\"");
    }

    #[test]
    fn fmt_f64_round_trips() {
        for x in [0.0, 1.5, -2.45, 1e-12, 13.0e6, f64::MAX] {
            let s = fmt_f64(x);
            assert_eq!(s.parse::<f64>().unwrap(), x, "{s}");
        }
        assert_eq!(fmt_f64(f64::NAN), "null");
    }

    #[test]
    fn parse_round_trip() {
        let doc = r#"{"a": [1, 2.5, -3e2], "b": {"nested": "x\ny"}, "t": true, "n": null}"#;
        let v = parse(doc).unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap()[0], Value::Int(1));
        assert_eq!(v.get("a").unwrap().as_arr().unwrap()[0].as_f64(), Some(1.0));
        assert_eq!(v.get("a").unwrap().as_arr().unwrap()[2].as_f64(), Some(-300.0));
        assert_eq!(
            v.get("b").unwrap().get("nested").unwrap().as_str(),
            Some("x\ny")
        );
        assert_eq!(v.get("t"), Some(&Value::Bool(true)));
        assert_eq!(v.get("n"), Some(&Value::Null));
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{\"a\": 1} extra").is_err());
        assert!(parse("nul").is_err());
    }

    #[test]
    fn write_breaks_only_containers_of_containers_and_escapes() {
        let v = obj!(
            "schema": "x",
            "config": obj!("n": 4000, "theta": 1.0, "ranks": vec![1, 2]),
            "rows": vec![obj!("a": 1), obj!("a": 2, "b": Value::Null)],
            "inline": obj!("bins": vec![vec![1, 2]], "none": Vec::<Value>::new(), "k": 0),
            "empty": Vec::<Value>::new(),
            "map": obj!(),
            "a\"b": "c\\d\n",
        );
        let text = write(&v);
        assert_eq!(
            text,
            "{\n  \"schema\": \"x\",\n  \"config\": {\"n\": 4000, \"theta\": 1.0, \"ranks\": [1, 2]},\n  \
             \"rows\": [\n    {\"a\": 1},\n    {\"a\": 2, \"b\": null}\n  ],\n  \
             \"inline\": {\"bins\": [[1, 2]], \"none\": [], \"k\": 0},\n  \
             \"empty\": [],\n  \"map\": {},\n  \"a\\\"b\": \"c\\\\d\\n\"\n}\n"
        );
        assert_eq!(parse(&text).unwrap(), v, "layout and key order round-trip");
        assert_eq!(write(&obj!()), "{}\n");
    }

    #[test]
    fn duplicate_keys_are_rejected_with_their_offset() {
        let e = parse(r#"{"a": 1, "b": {"a": 2}, "a": 3}"#).unwrap_err();
        assert!(e.contains("duplicate key \"a\" at byte 24"), "{e}");
        assert!(parse(r#"[{"a": 1}, {"a": 2}]"#).is_ok(), "per object");
    }

    #[test]
    fn nesting_is_bounded_without_overflowing_the_stack() {
        let e = parse(&"[".repeat(1 << 20)).unwrap_err();
        assert!(e.contains("nesting deeper than 128 at byte 128"), "{e}");
        let deepest = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&deepest).is_ok());
        let objects = "{\"k\": ".repeat(MAX_DEPTH + 1) + &"}".repeat(MAX_DEPTH + 1);
        assert!(parse(&objects).unwrap_err().contains("nesting deeper"));
    }

    #[test]
    fn parse_unicode() {
        let v = parse("\"caf\u{e9} \\u00e9\"").unwrap();
        assert_eq!(v.as_str(), Some("café é"));
    }
}

//! A minimal JSON value model, parser, and serializer.
//!
//! The observability layer needs to *emit* schema-stable metrics JSON
//! and *read it back* (round-trip tests and the serve protocol), but
//! the build environment has no network access for a real JSON crate —
//! so this module vendors the small slice the workspace uses: objects,
//! arrays, strings, finite numbers, booleans, and null. Objects
//! preserve key order on parse and are emitted with the order the
//! caller built (the [`crate::Metrics`] serializer always inserts keys
//! in sorted order, which is what makes the output schema-stable and
//! diff-friendly).

use std::collections::BTreeMap;
use std::fmt;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A finite number (non-finite floats serialize as `null`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object; keys iterate in sorted order.
    Obj(BTreeMap<String, Value>),
}

impl Value {
    /// The value as a number, if it is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a string slice, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an object, if it is one.
    pub fn as_obj(&self) -> Option<&BTreeMap<String, Value>> {
        match self {
            Value::Obj(o) => Some(o),
            _ => None,
        }
    }

    /// Member lookup on objects: `v.get("key")`.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_obj().and_then(|o| o.get(key))
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => f.write_str("null"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Num(n) if n.is_finite() => {
                // Integral values print without a fraction so counters
                // stay grep-able; everything else uses Rust's shortest
                // round-trip float formatting.
                if n.fract() == 0.0 && n.abs() < 9.0e15 {
                    write!(f, "{}", *n as i64)
                } else {
                    write!(f, "{n}")
                }
            }
            Value::Num(_) => f.write_str("null"),
            Value::Str(s) => write_escaped(f, s),
            Value::Arr(items) => {
                f.write_str("[")?;
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{v}")?;
                }
                f.write_str("]")
            }
            Value::Obj(map) => {
                f.write_str("{")?;
                for (i, (k, v)) in map.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write_escaped(f, k)?;
                    f.write_str(":")?;
                    write!(f, "{v}")?;
                }
                f.write_str("}")
            }
        }
    }
}

fn write_escaped(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_str("\"")?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            '\r' => f.write_str("\\r")?,
            '\t' => f.write_str("\\t")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => write!(f, "{c}")?,
        }
    }
    f.write_str("\"")
}

/// A parse failure, with a byte offset into the input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset of the failure.
    pub at: usize,
    /// What went wrong.
    pub msg: &'static str,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json parse error at byte {}: {}", self.at, self.msg)
    }
}

impl std::error::Error for ParseError {}

/// The deepest array/object nesting [`parse`] accepts. Parsing and
/// dropping a [`Value`] both recurse once per level, so the bound
/// keeps a hostile document (say, 100k `[`) from overflowing the
/// stack; every document the workspace writes nests a few levels.
pub const MAX_NESTING: usize = 128;

/// Parses one JSON document (trailing whitespace allowed).
///
/// # Errors
///
/// Returns a [`ParseError`] with the byte offset of the first
/// malformed construct, or of the array/object that nests deeper
/// than [`MAX_NESTING`].
pub fn parse(src: &str) -> Result<Value, ParseError> {
    let mut p = Parser {
        bytes: src.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after document"));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays/objects currently open.
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, msg: &'static str) -> ParseError {
        ParseError { at: self.pos, msg }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err("unexpected character"))
        }
    }

    fn literal(&mut self, lit: &'static str, v: Value) -> Result<Value, ParseError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(self.err("invalid literal"))
        }
    }

    fn value(&mut self) -> Result<Value, ParseError> {
        match self.peek() {
            Some(open @ (b'{' | b'[')) => {
                if self.depth == MAX_NESTING {
                    return Err(self.err("arrays/objects nest too deeply"));
                }
                self.depth += 1;
                let v = if open == b'{' {
                    self.object()
                } else {
                    self.array()
                };
                self.depth -= 1;
                v
            }
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a value")),
        }
    }

    fn object(&mut self) -> Result<Value, ParseError> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let v = self.value()?;
            map.insert(key, v);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(map));
                }
                _ => return Err(self.err("expected `,` or `}` in object")),
            }
        }
    }

    fn array(&mut self) -> Result<Value, ParseError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(self.err("expected `,` or `]` in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{0008}'),
                        Some(b'f') => out.push('\u{000c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let hex = std::str::from_utf8(hex)
                                .map_err(|_| self.err("invalid \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("invalid \\u escape"))?;
                            // Surrogates are not paired (the emitter
                            // never writes them); map them to U+FFFD.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(b) if b < 0x80 => {
                    out.push(b as char);
                    self.pos += 1;
                }
                Some(_) => {
                    // Multi-byte UTF-8 scalar: re-decode from the
                    // remaining input (which came from a &str, so the
                    // sequence is well-formed).
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| self.err("bad utf-8"))?;
                    let c = rest.chars().next().ok_or_else(|| self.err("bad utf-8"))?;
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value, ParseError> {
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
        let text =
            std::str::from_utf8(&self.bytes[start..self.pos]).expect("number bytes are ascii");
        text.parse::<f64>()
            .map(Value::Num)
            .map_err(|_| self.err("malformed number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_nested_documents() {
        let src = r#"{"a": [1, 2.5, -3e2], "b": {"x": true, "y": null}, "s": "hi\n\"q\""}"#;
        let v = parse(src).unwrap();
        let emitted = v.to_string();
        assert_eq!(parse(&emitted).unwrap(), v);
        assert_eq!(
            v.get("a").unwrap(),
            &Value::Arr(vec![Value::Num(1.0), Value::Num(2.5), Value::Num(-300.0)])
        );
        assert_eq!(v.get("b").unwrap().get("x").unwrap(), &Value::Bool(true));
        assert_eq!(v.get("s").unwrap().as_str().unwrap(), "hi\n\"q\"");
    }

    #[test]
    fn integral_numbers_emit_without_fraction() {
        assert_eq!(Value::Num(42.0).to_string(), "42");
        assert_eq!(Value::Num(0.5).to_string(), "0.5");
        assert_eq!(Value::Num(f64::NAN).to_string(), "null");
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("12 34").is_err());
        assert!(parse("\"unterminated").is_err());
        let e = parse("nul").unwrap_err();
        assert!(e.to_string().contains("byte 0"), "{e}");
    }

    #[test]
    fn nesting_is_bounded_not_a_stack_overflow() {
        let ok = format!("{}{}", "[".repeat(MAX_NESTING), "]".repeat(MAX_NESTING));
        assert!(parse(&ok).is_ok());
        let deep = format!(
            "{}{}",
            "[".repeat(MAX_NESTING + 1),
            "]".repeat(MAX_NESTING + 1)
        );
        let e = parse(&deep).unwrap_err();
        assert_eq!(e.at, MAX_NESTING);
        // 100k unclosed levels (arrays and objects mixed) fail the same
        // way, long before the stack is at risk.
        let hostile = "[{\"k\":".repeat(50_000);
        assert!(parse(&hostile).unwrap_err().msg.contains("nest"));
    }

    #[test]
    fn object_keys_sort_on_parse() {
        let v = parse(r#"{"b": 1, "a": 2}"#).unwrap();
        let keys: Vec<&str> = v.as_obj().unwrap().keys().map(String::as_str).collect();
        assert_eq!(keys, ["a", "b"]);
        assert_eq!(v.to_string(), r#"{"a":2,"b":1}"#);
    }
}

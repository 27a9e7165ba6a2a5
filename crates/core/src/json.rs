//! Minimal JSON support for the registry serialization format.
//!
//! The build environment has no crates.io access, so instead of `serde` the
//! registry format is read and written by this small hand-rolled module. It
//! supports exactly what the format needs — objects, arrays, numbers, and
//! strings — and keeps two properties the algorithm tests rely on:
//!
//! * numbers that are mathematically integers are written with a trailing
//!   `.0` (`1.0`, `-2.0`), so coefficient edits in fixture files stay
//!   greppable;
//! * parsing is strict: trailing garbage, malformed literals, and missing
//!   keys are errors, never silently defaulted.
//!
//! Every consumer feeds this parser files and frames it did not write, so
//! the whole module is held panic-free by the attribute below, which
//! denies clippy's panic lints outside tests.

#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::indexing_slicing,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented
    )
)]

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A parsed JSON value (subset: no booleans/null — the registry format does
/// not use them). Numbers written without a fractional part parse as
/// [`Value::Int`], everything else as [`Value::Number`]; the distinction
/// keeps structural fields (`rows`, `mt`, …) free of `.0` suffixes while
/// coefficient data always carries one.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    Int(i64),
    Number(f64),
    String(String),
    Array(Vec<Value>),
    Object(BTreeMap<String, Value>),
}

impl Value {
    /// The value as a finite number.
    pub fn as_number(&self) -> Result<f64, String> {
        match self {
            Value::Number(x) => Ok(*x),
            Value::Int(i) => Ok(*i as f64),
            other => Err(format!("expected number, got {other:?}")),
        }
    }

    /// The value as a non-negative integer.
    pub fn as_usize(&self) -> Result<usize, String> {
        let x = self.as_number()?;
        if x >= 0.0 && x.fract() == 0.0 && x < 2.0_f64.powi(53) {
            Ok(x as usize)
        } else {
            Err(format!("expected unsigned integer, got {x}"))
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Result<&str, String> {
        match self {
            Value::String(s) => Ok(s),
            other => Err(format!("expected string, got {other:?}")),
        }
    }

    /// The value as an array slice.
    pub fn as_array(&self) -> Result<&[Value], String> {
        match self {
            Value::Array(items) => Ok(items),
            other => Err(format!("expected array, got {other:?}")),
        }
    }

    /// Member `key` of an object value.
    pub fn get(&self, key: &str) -> Result<&Value, String> {
        match self {
            Value::Object(map) => map.get(key).ok_or_else(|| format!("missing key {key:?}")),
            other => Err(format!("expected object, got {other:?}")),
        }
    }
}

/// Render `x` so integer-valued floats keep a `.0` suffix.
pub fn format_f64(x: f64) -> String {
    if x.is_finite() && x.fract() == 0.0 && x.abs() < 1e15 {
        format!("{x:.1}")
    } else {
        format!("{x}")
    }
}

/// Serialize with two-space indentation (the registry fixture style).
pub fn to_string_pretty(v: &Value) -> String {
    let mut out = String::new();
    write_value(&mut out, v, 0);
    out
}

fn write_value(out: &mut String, v: &Value, indent: usize) {
    let pad = "  ".repeat(indent);
    let pad_in = "  ".repeat(indent + 1);
    match v {
        Value::Int(i) => {
            let _ = write!(out, "{i}");
        }
        Value::Number(x) => {
            let _ = write!(out, "{}", format_f64(*x));
        }
        Value::String(s) => write_string(out, s),
        Value::Array(items) => {
            if items.is_empty() {
                out.push_str("[]");
                return;
            }
            // Flat number arrays (coefficient data) stay on one line.
            if items.iter().all(|i| matches!(i, Value::Number(_) | Value::Int(_))) {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    write_value(out, item, 0);
                }
                out.push(']');
                return;
            }
            out.push_str("[\n");
            for (i, item) in items.iter().enumerate() {
                out.push_str(&pad_in);
                write_value(out, item, indent + 1);
                if i + 1 < items.len() {
                    out.push(',');
                }
                out.push('\n');
            }
            out.push_str(&pad);
            out.push(']');
        }
        Value::Object(map) => {
            if map.is_empty() {
                out.push_str("{}");
                return;
            }
            out.push_str("{\n");
            for (i, (k, item)) in map.iter().enumerate() {
                out.push_str(&pad_in);
                write_string(out, k);
                out.push_str(": ");
                write_value(out, item, indent + 1);
                if i + 1 < map.len() {
                    out.push(',');
                }
                out.push('\n');
            }
            out.push_str(&pad);
            out.push('}');
        }
    }
}

fn write_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Maximum container (object/array) nesting depth [`parse`] accepts.
///
/// The parser recurses per nesting level, so without a limit a small
/// hostile document (`[[[[…`) overflows the stack. Every consumer of this
/// module parses files it did not write — registry fixtures, the tune
/// store, `fmm_serve` CLI inputs — so depth is bounded here, once, and
/// exceeding it degrades to `Err` like any other malformed input. The
/// registry format nests a handful of levels; 64 is far above any
/// legitimate document and far below stack exhaustion.
pub const MAX_DEPTH: usize = 64;

/// Parse a complete JSON document.
pub fn parse(input: &str) -> Result<Value, String> {
    let mut p = Parser { bytes: input.as_bytes(), pos: 0, depth: 0 };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing data at byte {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Current container nesting depth, checked against [`MAX_DEPTH`].
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Result<u8, String> {
        self.bytes.get(self.pos).copied().ok_or_else(|| "unexpected end of input".to_string())
    }

    fn expect_byte(&mut self, b: u8) -> Result<(), String> {
        if self.peek()? == b {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected {:?} at byte {}, found {:?}",
                b as char,
                self.pos,
                self.peek()? as char
            ))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        match self.peek()? {
            b'{' => self.object(),
            b'[' => self.array(),
            b'"' => Ok(Value::String(self.string()?)),
            b'-' | b'0'..=b'9' => self.number(),
            other => Err(format!("unexpected character {:?} at byte {}", other as char, self.pos)),
        }
    }

    fn enter(&mut self) -> Result<(), String> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(format!("nesting depth exceeds {MAX_DEPTH} at byte {}", self.pos));
        }
        Ok(())
    }

    fn object(&mut self) -> Result<Value, String> {
        self.expect_byte(b'{')?;
        self.enter()?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek()? == b'}' {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Value::Object(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect_byte(b':')?;
            self.skip_ws();
            let v = self.value()?;
            map.insert(key, v);
            self.skip_ws();
            match self.peek()? {
                b',' => {
                    self.pos += 1;
                }
                b'}' => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Value::Object(map));
                }
                other => {
                    return Err(format!("expected ',' or '}}', found {:?}", other as char));
                }
            }
        }
    }

    fn array(&mut self) -> Result<Value, String> {
        self.expect_byte(b'[')?;
        self.enter()?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek()? == b']' {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek()? {
                b',' => {
                    self.pos += 1;
                }
                b']' => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Value::Array(items));
                }
                other => {
                    return Err(format!("expected ',' or ']', found {:?}", other as char));
                }
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect_byte(b'"')?;
        let mut out = String::new();
        loop {
            let b = self.peek()?;
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let esc = self.peek()?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'r' => out.push('\r'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            if self.pos + 4 > self.bytes.len() {
                                return Err("truncated \\u escape".into());
                            }
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or_else(|| "invalid \\u escape".to_string())?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| format!("invalid \\u escape {hex:?}"))?;
                            self.pos += 4;
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| format!("invalid code point {code:#x}"))?,
                            );
                        }
                        other => {
                            return Err(format!("unknown escape \\{}", other as char));
                        }
                    }
                }
                b if b < 0x80 => out.push(b as char),
                _ => {
                    // Multi-byte UTF-8: re-decode from the byte stream.
                    let start = self.pos - 1;
                    let len = utf8_len(b)?;
                    let end = start + len;
                    if end > self.bytes.len() {
                        return Err("truncated UTF-8 sequence".into());
                    }
                    let s = self
                        .bytes
                        .get(start..end)
                        .and_then(|b| std::str::from_utf8(b).ok())
                        .ok_or_else(|| "invalid UTF-8 in string".to_string())?;
                    out.push_str(s);
                    self.pos = end;
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        if self.peek()? == b'-' {
            self.pos += 1;
        }
        while let Some(&b) = self.bytes.get(self.pos) {
            if b.is_ascii_digit() || b == b'.' || b == b'e' || b == b'E' || b == b'+' || b == b'-' {
                self.pos += 1;
            } else {
                break;
            }
        }
        // The scanned range is ASCII by construction; the empty fallback
        // degrades to the `invalid number` error below.
        let text = self
            .bytes
            .get(start..self.pos)
            .and_then(|b| std::str::from_utf8(b).ok())
            .unwrap_or_default();
        if !text.contains(['.', 'e', 'E']) {
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Value::Int(i));
            }
        }
        let x: f64 = text.parse().map_err(|_| format!("invalid number {text:?}"))?;
        if !x.is_finite() {
            return Err(format!("non-finite number {text:?}"));
        }
        Ok(Value::Number(x))
    }
}

fn utf8_len(first: u8) -> Result<usize, String> {
    match first {
        0xC0..=0xDF => Ok(2),
        0xE0..=0xEF => Ok(3),
        0xF0..=0xF7 => Ok(4),
        _ => Err("invalid UTF-8 leading byte".into()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_nested_document() {
        let doc = Value::Object(BTreeMap::from([
            ("name".to_string(), Value::String("strassen <2,2,2>".to_string())),
            ("rank".to_string(), Value::Number(7.0)),
            (
                "data".to_string(),
                Value::Array(vec![Value::Number(1.0), Value::Number(-0.5), Value::Number(0.0)]),
            ),
        ]));
        let text = to_string_pretty(&doc);
        assert_eq!(parse(&text).unwrap(), doc);
    }

    #[test]
    fn integers_serialize_with_decimal_point() {
        assert_eq!(format_f64(1.0), "1.0");
        assert_eq!(format_f64(-2.0), "-2.0");
        assert_eq!(format_f64(0.5), "0.5");
        assert_eq!(format_f64(0.0), "0.0");
    }

    #[test]
    fn parse_rejects_trailing_garbage_and_truncation() {
        assert!(parse("{\"a\": 1} x").is_err());
        assert!(parse("{\"a\": ").is_err());
        assert!(parse("[1, 2").is_err());
        assert!(parse("nope").is_err());
    }

    #[test]
    fn parse_handles_escapes_and_unicode() {
        let v = parse(r#""a\"b\\c\ndAé""#).unwrap();
        assert_eq!(v.as_str().unwrap(), "a\"b\\c\ndAé");
    }

    #[test]
    fn depth_limit_rejects_hostile_nesting_without_overflow() {
        // Just inside the limit: parses.
        let ok = format!("{}1{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&ok).is_ok());
        // One past the limit: a clean Err, not a stack overflow.
        let over = format!("{}1{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
        let err = parse(&over).unwrap_err();
        assert!(err.contains("nesting depth"), "{err}");
        // A hostile unterminated prefix far past any plausible stack
        // budget must also degrade to Err.
        for open in ["[", "{\"k\":", "[[{\"a\":["] {
            let hostile = open.repeat(100_000);
            assert!(parse(&hostile).is_err());
        }
        // Depth counts the *stack*, not the total container count: wide
        // shallow documents stay parseable.
        let wide = format!("[{}1]", "[1],".repeat(10_000));
        assert!(parse(&wide).is_ok());
        // Sibling containers release their depth budget.
        let siblings = format!(
            "[{a},{a}]",
            a = format!("{}1{}", "[".repeat(MAX_DEPTH - 1), "]".repeat(MAX_DEPTH - 1))
        );
        assert!(parse(&siblings).is_ok());
    }

    /// Fuzz-style determinism sweep: parsing truncated and byte-mutated
    /// documents must always return (Ok or Err), never panic or overflow —
    /// the registry loader and the serve CLI both feed this parser files
    /// and frames they did not write.
    #[test]
    fn truncated_and_garbage_inputs_degrade_to_err() {
        let seed_doc = concat!(
            "{\"name\": \"strassen <2,2,2>\", \"rank\": 7.0, ",
            "\"u\": [[1.0, -0.5], [0.0, 2.0e3]], ",
            "\"meta\": {\"esc\": \"a\\\"b\\\\c\\u00e9\\n\", \"deep\": [[[[1]]]]}}"
        );
        assert!(parse(seed_doc).is_ok());

        // Every prefix: truncation at any byte is an error or (for the
        // full document) a success — never a panic.
        for cut in 0..seed_doc.len() {
            if !seed_doc.is_char_boundary(cut) {
                continue;
            }
            let _ = parse(&seed_doc[..cut]);
        }

        // Deterministic xorshift byte mutations (single- and double-byte),
        // parsed as lossy UTF-8. No mutation may panic.
        let mut state: u64 = 0x9E37_79B9_7F4A_7C15;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let bytes = seed_doc.as_bytes();
        for _ in 0..2_000 {
            let mut mutated = bytes.to_vec();
            let flips = 1 + (next() as usize % 2);
            for _ in 0..flips {
                let pos = next() as usize % mutated.len();
                mutated[pos] = (next() & 0xFF) as u8;
            }
            let text = String::from_utf8_lossy(&mutated);
            let _ = parse(&text);
        }
    }

    #[test]
    fn accessors_report_type_mismatches() {
        let v = parse("[1.5]").unwrap();
        assert!(v.get("x").is_err());
        assert!(v.as_str().is_err());
        assert!(v.as_array().unwrap()[0].as_usize().is_err());
        assert_eq!(v.as_array().unwrap()[0].as_number().unwrap(), 1.5);
    }
}

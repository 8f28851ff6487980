//! A minimal, dependency-free JSON value model with an emitter and parser.
//!
//! The build environment is hermetic (no crates.io access), so neither the
//! report layer nor the persistence layer can lean on `serde`; the figure
//! reports, benchmark outputs, checkpoint snapshots and sweep journals only
//! need flat objects, arrays, strings and numbers, which this crate covers
//! completely.
//!
//! # Numbers
//!
//! JSON has a single number production, but the workspace carries two kinds
//! of numeric payload with incompatible exactness requirements: measured
//! quantities (energies, latencies — naturally `f64`) and identifiers
//! (seeds, window revisions, event sequence numbers — `u64`/`i64` values
//! that MUST survive a round trip bit-for-bit, including above 2^53 where
//! `f64` starts dropping low bits). The model therefore distinguishes:
//!
//! * [`JsonValue::Int`] — a lossless integer (carried as `i128`, wide
//!   enough for every `u64` and `i64`). Emitted as bare digits.
//! * [`JsonValue::Number`] — an `f64`. Emitted with Rust's shortest
//!   round-trip formatting, **always** with a decimal point (`1.0`, never
//!   `1`), so the two emit formats are disjoint.
//!
//! The parser maps the grammar back the same way: a numeric literal without
//! a fraction or exponent becomes an [`JsonValue::Int`] (falling back to
//! `f64` only when it exceeds `i128`); anything with a `.` or an exponent
//! becomes a [`JsonValue::Number`]. Together with the emitter convention
//! this makes `parse(emit(v)) == v` hold *per variant* for every finite
//! number and every integer.
//!
//! # Nesting
//!
//! The parser recurses once per array or object, so it refuses documents
//! nested deeper than [`MAX_NESTING`] levels with a [`JsonError`] instead of
//! overflowing the stack: a hostile file on disk must not abort the process.
//! Nothing the workspace writes comes close (a tenant snapshot nests about
//! ten levels).
//!
//! # Example
//!
//! ```
//! use wsn_json::JsonValue;
//!
//! let value = JsonValue::object([
//!     ("name", JsonValue::from("Figure 4")),
//!     ("seed", JsonValue::from(u64::MAX)),
//!     ("rows", JsonValue::Array(vec![JsonValue::from(1.5), JsonValue::from(2.0)])),
//! ]);
//! let text = value.to_pretty_string();
//! let back = JsonValue::parse(&text).unwrap();
//! assert_eq!(back, value);
//! assert_eq!(back.get("seed").and_then(|v| v.as_u64()), Some(u64::MAX));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;

/// The deepest array/object nesting [`JsonValue::parse`] accepts.
pub const MAX_NESTING: usize = 128;

/// A parsed or to-be-emitted JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A lossless integer (bare-digit literal). `i128` covers the full
    /// `u64` and `i64` ranges the workspace serializes.
    Int(i128),
    /// A JSON number carried as `f64` (literal with a fraction or
    /// exponent).
    Number(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object; insertion order is preserved.
    Object(Vec<(String, JsonValue)>),
}

/// An error produced while parsing JSON text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset at which the parse failed.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON parse error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

impl From<&str> for JsonValue {
    fn from(s: &str) -> Self {
        JsonValue::String(s.to_string())
    }
}

impl From<String> for JsonValue {
    fn from(s: String) -> Self {
        JsonValue::String(s)
    }
}

impl From<f64> for JsonValue {
    fn from(n: f64) -> Self {
        JsonValue::Number(n)
    }
}

impl From<bool> for JsonValue {
    fn from(b: bool) -> Self {
        JsonValue::Bool(b)
    }
}

impl From<u64> for JsonValue {
    fn from(n: u64) -> Self {
        JsonValue::Int(n as i128)
    }
}

impl From<i64> for JsonValue {
    fn from(n: i64) -> Self {
        JsonValue::Int(n as i128)
    }
}

impl From<u32> for JsonValue {
    fn from(n: u32) -> Self {
        JsonValue::Int(n as i128)
    }
}

impl From<usize> for JsonValue {
    fn from(n: usize) -> Self {
        JsonValue::Int(n as i128)
    }
}

impl JsonValue {
    /// Builds an object from `(key, value)` pairs.
    pub fn object<K: Into<String>>(pairs: impl IntoIterator<Item = (K, JsonValue)>) -> JsonValue {
        JsonValue::Object(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Looks up a key in an object (`None` for other variants).
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::String(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload as `f64`. Covers both number variants —
    /// integers are converted (lossily above 2^53), so measurement-style
    /// consumers keep working regardless of how a literal was classified.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Number(n) => Some(*n),
            JsonValue::Int(i) => Some(*i as f64),
            _ => None,
        }
    }

    /// The exact integer payload as `u64`, if this is an [`JsonValue::Int`]
    /// in range. Never goes through `f64`.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Int(i) => u64::try_from(*i).ok(),
            _ => None,
        }
    }

    /// The exact integer payload as `i64`, if this is an [`JsonValue::Int`]
    /// in range. Never goes through `f64`.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            JsonValue::Int(i) => i64::try_from(*i).ok(),
            _ => None,
        }
    }

    /// The element list, if this is an array.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(items) => Some(items),
            _ => None,
        }
    }

    /// Emits compact JSON (no whitespace).
    pub fn to_compact_string(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Emits pretty-printed JSON with two-space indentation.
    pub fn to_pretty_string(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            JsonValue::Int(i) => write_int(out, *i),
            JsonValue::Number(n) => write_number(out, *n),
            JsonValue::String(s) => write_string(out, s),
            JsonValue::Array(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent, depth + 1);
                    item.write(out, indent, depth + 1);
                }
                newline_indent(out, indent, depth);
                out.push(']');
            }
            JsonValue::Object(pairs) => {
                if pairs.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (key, value)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent, depth + 1);
                    write_string(out, key);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    value.write(out, indent, depth + 1);
                }
                newline_indent(out, indent, depth);
                out.push('}');
            }
        }
    }

    /// Parses a complete JSON document (rejecting trailing garbage).
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] with the byte offset of the first problem,
    /// including nesting deeper than [`MAX_NESTING`].
    pub fn parse(text: &str) -> Result<JsonValue, JsonError> {
        let mut parser = Parser { bytes: text.as_bytes(), pos: 0, depth: 0 };
        parser.skip_whitespace();
        let value = parser.parse_value()?;
        parser.skip_whitespace();
        if parser.pos != parser.bytes.len() {
            return Err(parser.error("trailing characters after the document"));
        }
        Ok(value)
    }
}

fn newline_indent(out: &mut String, indent: Option<usize>, depth: usize) {
    if let Some(width) = indent {
        out.push('\n');
        for _ in 0..width * depth {
            out.push(' ');
        }
    }
}

fn write_int(out: &mut String, i: i128) {
    // Digits go straight into `out`, with no temporary String per integer:
    // snapshots are mostly small integers, so the allocation would cost
    // more than the digits.
    let Ok(mut rest) = u64::try_from(i) else {
        out.push_str(&i.to_string());
        return;
    };
    let mut digits = [0u8; 20];
    let mut start = digits.len();
    loop {
        start -= 1;
        digits[start] = b'0' + (rest % 10) as u8;
        rest /= 10;
        if rest == 0 {
            break;
        }
    }
    out.extend(digits[start..].iter().map(|&d| char::from(d)));
}

fn write_number(out: &mut String, n: f64) {
    if n.is_finite() {
        // Rust's Display for f64 is the shortest representation that parses
        // back to the same bits, so numeric round trips are lossless. It
        // never uses exponent notation, so an integral value formats as bare
        // digits ("1", "602000000000000000000000"); a trailing ".0" keeps
        // the f64 emit format disjoint from the Int one, which is what lets
        // the parser restore the exact variant.
        let formatted = format!("{n}");
        out.push_str(&formatted);
        if !formatted.contains(['.', 'e', 'E']) {
            out.push_str(".0");
        }
    } else {
        // JSON has no NaN/Infinity; represent them as null like serde_json's
        // default behaviour for non-finite floats.
        out.push_str("null");
    }
}

fn write_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{08}' => out.push_str("\\b"),
            '\u{0C}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open at `pos`.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn error(&self, message: impl Into<String>) -> JsonError {
        JsonError { offset: self.pos, message: message.into() }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_whitespace(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), JsonError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(format!("expected {:?}", byte as char)))
        }
    }

    fn consume_literal(&mut self, literal: &str) -> bool {
        if self.bytes[self.pos..].starts_with(literal.as_bytes()) {
            self.pos += literal.len();
            true
        } else {
            false
        }
    }

    fn parse_value(&mut self) -> Result<JsonValue, JsonError> {
        self.skip_whitespace();
        match self.peek() {
            Some(b'n') if self.consume_literal("null") => Ok(JsonValue::Null),
            Some(b't') if self.consume_literal("true") => Ok(JsonValue::Bool(true)),
            Some(b'f') if self.consume_literal("false") => Ok(JsonValue::Bool(false)),
            Some(b'"') => self.parse_string().map(JsonValue::String),
            Some(b'[') => self.nested(Self::parse_array),
            Some(b'{') => self.nested(Self::parse_object),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.parse_number(),
            Some(_) => Err(self.error("unexpected character")),
            None => Err(self.error("unexpected end of input")),
        }
    }

    /// Runs `parse` one nesting level deeper, refusing to pass
    /// [`MAX_NESTING`].
    fn nested(
        &mut self,
        parse: fn(&mut Self) -> Result<JsonValue, JsonError>,
    ) -> Result<JsonValue, JsonError> {
        if self.depth == MAX_NESTING {
            return Err(self.error(format!("nesting deeper than {MAX_NESTING} levels")));
        }
        self.depth += 1;
        let value = parse(self);
        self.depth -= 1;
        value
    }

    fn parse_array(&mut self) -> Result<JsonValue, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_whitespace();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            items.push(self.parse_value()?);
            self.skip_whitespace();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Array(items));
                }
                _ => return Err(self.error("expected ',' or ']' in array")),
            }
        }
    }

    fn parse_object(&mut self) -> Result<JsonValue, JsonError> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_whitespace();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Object(pairs));
        }
        loop {
            self.skip_whitespace();
            let key = self.parse_string()?;
            self.skip_whitespace();
            self.expect(b':')?;
            let value = self.parse_value()?;
            pairs.push((key, value));
            self.skip_whitespace();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Object(pairs));
                }
                _ => return Err(self.error("expected ',' or '}' in object")),
            }
        }
    }

    fn parse_string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Fast path: copy the longest run without escapes or quotes.
            while let Some(c) = self.peek() {
                if c == b'"' || c == b'\\' || c < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            if self.pos > start {
                let chunk = std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| self.error("invalid UTF-8 in string"))?;
                out.push_str(chunk);
            }
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let escape = self.peek().ok_or_else(|| self.error("unterminated escape"))?;
                    self.pos += 1;
                    match escape {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{08}'),
                        b'f' => out.push('\u{0C}'),
                        b'u' => {
                            let code = self.parse_hex4()?;
                            let c = if (0xD800..0xDC00).contains(&code) {
                                // A high surrogate must be followed by \uXXXX
                                // with a low surrogate.
                                if !self.consume_literal("\\u") {
                                    return Err(self.error("unpaired surrogate"));
                                }
                                let low = self.parse_hex4()?;
                                if !(0xDC00..0xE000).contains(&low) {
                                    return Err(self.error("invalid low surrogate"));
                                }
                                let combined = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                                char::from_u32(combined)
                                    .ok_or_else(|| self.error("invalid surrogate pair"))?
                            } else {
                                char::from_u32(code)
                                    .ok_or_else(|| self.error("invalid unicode escape"))?
                            };
                            out.push(c);
                        }
                        _ => return Err(self.error("unknown escape sequence")),
                    }
                }
                Some(_) => return Err(self.error("control character in string")),
                None => return Err(self.error("unterminated string")),
            }
        }
    }

    fn parse_hex4(&mut self) -> Result<u32, JsonError> {
        if self.pos + 4 > self.bytes.len() {
            return Err(self.error("truncated unicode escape"));
        }
        let hex = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
            .map_err(|_| self.error("invalid unicode escape"))?;
        let code =
            u32::from_str_radix(hex, 16).map_err(|_| self.error("invalid unicode escape"))?;
        self.pos += 4;
        Ok(code)
    }

    fn parse_number(&mut self) -> Result<JsonValue, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        let mut integral = true;
        if self.peek() == Some(b'.') {
            integral = false;
            self.pos += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            integral = false;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.error("invalid number"))?;
        if integral {
            // Bare-digit literal: keep it exact. Only a literal wider than
            // i128 (which this workspace never emits) falls back to f64, so
            // documents written by the pre-Int emitter still parse.
            if let Ok(i) = text.parse::<i128>() {
                return Ok(JsonValue::Int(i));
            }
        }
        text.parse::<f64>()
            .map(JsonValue::Number)
            .map_err(|_| JsonError { offset: start, message: "invalid number".into() })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_round_trip() {
        for text in ["null", "true", "false", "0", "-1.5", "1e-3", "\"hi\""] {
            let value = JsonValue::parse(text).unwrap();
            let emitted = value.to_compact_string();
            assert_eq!(JsonValue::parse(&emitted).unwrap(), value, "for input {text}");
        }
    }

    #[test]
    fn numbers_round_trip_exactly() {
        for n in [0.0, -0.5, 1.0 / 3.0, 6.02e23, 1.6e-19, f64::MAX, f64::MIN_POSITIVE] {
            let text = JsonValue::Number(n).to_compact_string();
            let parsed = JsonValue::parse(&text).unwrap();
            assert_eq!(parsed, JsonValue::Number(n), "value {n} changed through {text}");
            assert_eq!(parsed.as_f64(), Some(n));
        }
    }

    #[test]
    fn float_emit_format_is_disjoint_from_integers() {
        // An integral f64 still emits with a decimal point, so the parser
        // can tell it apart from a lossless integer literal.
        assert_eq!(JsonValue::Number(1.0).to_compact_string(), "1.0");
        assert_eq!(JsonValue::Number(-0.0).to_compact_string(), "-0.0");
        assert_eq!(JsonValue::Number(6.02e23).to_compact_string(), "602000000000000000000000.0");
        assert_eq!(JsonValue::Int(1).to_compact_string(), "1");
    }

    #[test]
    fn large_integers_round_trip_losslessly() {
        // The 2^53 boundary where f64 starts dropping low bits, and the
        // extremes of the integer types the workspace serializes (seeds,
        // window revisions, event sequence numbers).
        let boundary = 1u64 << 53;
        for n in [0, 1, boundary - 1, boundary, boundary + 1, u64::MAX - 1, u64::MAX] {
            let value = JsonValue::from(n);
            for text in [value.to_compact_string(), value.to_pretty_string()] {
                let back = JsonValue::parse(&text).unwrap();
                assert_eq!(back, value, "u64 {n} changed through {text}");
                assert_eq!(back.as_u64(), Some(n), "u64 {n} inexact through {text}");
            }
        }
        for n in [i64::MIN, i64::MIN + 1, -(1i64 << 53) - 1, -1, i64::MAX] {
            let value = JsonValue::from(n);
            let text = value.to_compact_string();
            let back = JsonValue::parse(&text).unwrap();
            assert_eq!(back.as_i64(), Some(n), "i64 {n} inexact through {text}");
        }
        // The old f64 path really would have corrupted this.
        assert_ne!((boundary + 1) as f64 as u64, boundary + 1);
    }

    #[test]
    fn integer_accessors_enforce_ranges() {
        assert_eq!(JsonValue::from(u64::MAX).as_i64(), None);
        assert_eq!(JsonValue::from(-1i64).as_u64(), None);
        assert_eq!(JsonValue::from(7u32).as_u64(), Some(7));
        assert_eq!(JsonValue::from(7usize).as_i64(), Some(7));
        // Exact accessors never read the lossy f64 variant...
        assert_eq!(JsonValue::Number(3.0).as_u64(), None);
        assert_eq!(JsonValue::Number(3.0).as_i64(), None);
        // ...but the f64 accessor reads integers, so measurement-style
        // consumers are agnostic to the literal's classification.
        assert_eq!(JsonValue::from(3u64).as_f64(), Some(3.0));
        assert_eq!(JsonValue::Null.as_u64(), None);
    }

    #[test]
    fn oversized_integer_literals_fall_back_to_f64() {
        // Wider than i128: the pre-Int emitter wrote f64::MAX like this.
        let text = format!("{}", f64::MAX);
        assert!(!text.contains('.'), "f64::MAX formats as bare digits");
        let parsed = JsonValue::parse(&text).unwrap();
        assert_eq!(parsed, JsonValue::Number(f64::MAX));
    }

    #[test]
    fn non_finite_numbers_emit_null() {
        assert_eq!(JsonValue::Number(f64::NAN).to_compact_string(), "null");
        assert_eq!(JsonValue::Number(f64::INFINITY).to_compact_string(), "null");
    }

    #[test]
    fn strings_escape_and_unescape() {
        let tricky = "a\"b\\c\nd\te\u{08}\u{0C}\u{1F}é∞";
        let text = JsonValue::from(tricky).to_compact_string();
        assert_eq!(JsonValue::parse(&text).unwrap().as_str(), Some(tricky));
        // Unicode escapes and surrogate pairs parse too.
        let parsed = JsonValue::parse("\"\\u00e9\\ud83d\\ude00\"").unwrap();
        assert_eq!(parsed.as_str(), Some("é😀"));
    }

    #[test]
    fn nested_structures_round_trip_pretty_and_compact() {
        let value = JsonValue::object([
            ("s", JsonValue::from("x")),
            ("n", JsonValue::from(2.5)),
            ("i", JsonValue::from(42u64)),
            ("b", JsonValue::from(true)),
            ("z", JsonValue::Null),
            ("a", JsonValue::Array(vec![JsonValue::from(1.0), JsonValue::Array(vec![])])),
            ("o", JsonValue::object([("k", JsonValue::from(false))])),
        ]);
        for text in [value.to_pretty_string(), value.to_compact_string()] {
            assert_eq!(JsonValue::parse(&text).unwrap(), value);
        }
    }

    #[test]
    fn malformed_documents_are_rejected_with_offsets() {
        for text in ["", "{", "[1,", "{\"a\":}", "tru", "\"unterminated", "1 2", "{\"a\" 1}"] {
            assert!(JsonValue::parse(text).is_err(), "{text:?} should fail");
        }
        let err = JsonValue::parse("[1, x]").unwrap_err();
        assert!(err.offset >= 4, "offset {} should point at the bad byte", err.offset);
        assert!(err.to_string().contains("JSON parse error"));
    }

    #[test]
    fn escaped_and_unicode_string_edge_cases() {
        // Every escape the grammar defines, including the optional solidus.
        let parsed = JsonValue::parse(r#""\"\\\/\n\r\t\b\f""#).unwrap();
        assert_eq!(parsed.as_str(), Some("\"\\/\n\r\t\u{08}\u{0C}"));
        // NUL and other C0 controls round-trip through \u escapes.
        let nul = JsonValue::from("\u{0}a\u{1F}b");
        let text = nul.to_compact_string();
        assert_eq!(text, "\"\\u0000a\\u001fb\"");
        assert_eq!(JsonValue::parse(&text).unwrap(), nul);
        // Astral-plane characters round-trip raw and parse from surrogate
        // pairs; unpaired or malformed surrogates are rejected.
        let emoji = JsonValue::from("𝄞😀");
        assert_eq!(JsonValue::parse(&emoji.to_compact_string()).unwrap(), emoji);
        assert_eq!(JsonValue::parse("\"\\ud834\\udd1e\"").unwrap().as_str(), Some("𝄞"));
        for bad in
            ["\"\\ud834\"", "\"\\ud834x\"", "\"\\ud834\\u0041\"", "\"\\udc00\"", "\"\\uZZZZ\""]
        {
            assert!(JsonValue::parse(bad).is_err(), "{bad} should be rejected");
        }
        // Raw control characters inside a string are invalid JSON.
        assert!(JsonValue::parse("\"a\nb\"").is_err());
    }

    #[test]
    fn nested_empty_arrays_and_objects_round_trip() {
        for text in ["[]", "{}", "[[]]", "[[],[]]", "[{}]", "{\"a\":[]}", "{\"a\":{},\"b\":[[]]}"] {
            let value = JsonValue::parse(text).unwrap();
            for emitted in [value.to_compact_string(), value.to_pretty_string()] {
                assert_eq!(JsonValue::parse(&emitted).unwrap(), value, "for input {text}");
            }
        }
        // Deep nesting keeps its shape through the pretty printer.
        let deep = JsonValue::parse("[[[[ ]]]]").unwrap();
        assert_eq!(deep.to_compact_string(), "[[[[]]]]");
        let pretty = deep.to_pretty_string();
        assert!(pretty.contains("[]"), "innermost empty array stays compact: {pretty}");
        assert_eq!(JsonValue::parse(&pretty).unwrap(), deep);
    }

    #[test]
    fn nesting_is_bounded_instead_of_overflowing_the_stack() {
        let arrays = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        let objects =
            |depth: usize| format!("{}null{}", "{\"k\":".repeat(depth), "}".repeat(depth));
        for doc in [arrays(MAX_NESTING), objects(MAX_NESTING)] {
            let value = JsonValue::parse(&doc).unwrap();
            assert_eq!(value.to_compact_string(), doc, "the bound itself parses");
        }
        for depth in [MAX_NESTING + 1, 100_000] {
            for doc in [arrays(depth), objects(depth), "[".repeat(depth)] {
                let err = JsonValue::parse(&doc).unwrap_err();
                assert!(err.message.contains("nesting"), "depth {depth}: {err}");
                // The error points at the first opener past the bound.
                let opener_len = if doc.starts_with('{') { "{\"k\":".len() } else { 1 };
                assert_eq!(err.offset, MAX_NESTING * opener_len, "depth {depth}");
            }
        }
    }

    #[test]
    fn index_microbench_report_shape_round_trips() {
        // The shape `wsn_bench::harness` emits for the neighbour-index
        // strategy comparison benches (BENCH_algo_microbench.json).
        let result = |group: &str, name: &str, median: f64| {
            JsonValue::object([
                ("group", JsonValue::from(group)),
                ("name", JsonValue::from(name)),
                ("iterations", JsonValue::from(12_000.0)),
                ("mean_ns", JsonValue::from(median * 1.04)),
                ("min_ns", JsonValue::from(median * 0.9)),
                ("max_ns", JsonValue::from(median * 1.8)),
                ("median_ns", JsonValue::from(median)),
                ("samples", JsonValue::from(50.0)),
            ])
        };
        let report = JsonValue::object([
            ("suite", JsonValue::from("algo_microbench")),
            (
                "results",
                JsonValue::Array(vec![
                    result("index_build", "kd/1024", 310_000.0),
                    result("sufficient_set_strategy", "nn_brute/1024", 9_800_000.0),
                    result("sufficient_set_strategy", "nn_kd/1024", 1_100_000.0),
                ]),
            ),
        ]);
        for text in [report.to_pretty_string(), report.to_compact_string()] {
            let back = JsonValue::parse(&text).unwrap();
            assert_eq!(back, report);
            let results = back.get("results").and_then(JsonValue::as_array).unwrap();
            assert_eq!(results.len(), 3);
            assert_eq!(
                results[1].get("name").and_then(JsonValue::as_str),
                Some("nn_brute/1024"),
                "strategy case names survive the round trip"
            );
            assert!(results
                .iter()
                .all(|r| r.get("median_ns").and_then(JsonValue::as_f64).is_some()));
        }
    }

    #[test]
    fn object_lookup_helpers_work() {
        let value = JsonValue::object([("k", JsonValue::from(3.0))]);
        assert_eq!(value.get("k").and_then(JsonValue::as_f64), Some(3.0));
        assert!(value.get("missing").is_none());
        assert!(JsonValue::Null.get("k").is_none());
        assert!(value.as_array().is_none());
        assert_eq!(
            JsonValue::Array(vec![JsonValue::Null]).as_array().map(<[JsonValue]>::len),
            Some(1)
        );
    }
}

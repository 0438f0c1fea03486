//! A small, self-contained JSON codec.
//!
//! The workspace builds without a crate registry, so it carries no
//! serialization framework. This module provides the wire format the
//! experiment API uses: a [`Json`] document value, a recursive-descent
//! [`Json::parse`] with byte offsets in errors, and compact / pretty
//! writers. Integers are kept exact over the full `u64`/`i64` range (a
//! `seed` of `u64::MAX` round-trips bit-for-bit rather than being squashed
//! through an `f64`).
//!
//! Types that ship over this format implement [`ToJson`] (and, where a spec
//! needs to be read back, a `from_json` inherent constructor); see
//! [`crate::spec`] for the experiment-spec codec built on top.

use std::fmt;

/// One JSON value.
///
/// Objects preserve insertion order (a `Vec` of pairs, not a hash map), so
/// encoding is deterministic run to run and diffs of emitted files are
/// stable.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer literal (no decimal point or exponent).
    Uint(u64),
    /// A negative integer literal.
    Int(i64),
    /// Any number written with a decimal point or exponent, or too large
    /// for the integer variants.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Json>),
    /// An object, in insertion order.
    Object(Vec<(String, Json)>),
}

/// Conversion into a [`Json`] document — the emission half of the codec.
pub trait ToJson {
    /// Encode `self` as a JSON value.
    fn to_json(&self) -> Json;
}

/// A parse error: what went wrong and the byte offset it went wrong at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset into the input where parsing failed.
    pub offset: usize,
    /// Human-readable description of the failure.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

impl Json {
    /// Parse one JSON document; trailing non-whitespace is an error.
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser { bytes: text.as_bytes(), pos: 0, depth: 0 };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after the document"));
        }
        Ok(value)
    }

    /// Look up a key of an object (`None` for missing keys or non-objects).
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a string slice, if it is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a bool, if it is a bool.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as a `u64`, if it is a non-negative integer (floats with
    /// zero fraction included, so `3.0` reads back as `3`).
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Json::Uint(u) => Some(u),
            Json::Int(i) => u64::try_from(i).ok(),
            // `u64::MAX as f64` rounds *up* to 2^64, which does not fit;
            // the comparison must be strict or 2^64 would silently
            // saturate-clamp to u64::MAX instead of being rejected.
            Json::Float(f) if f >= 0.0 && f.fract() == 0.0 && f < u64::MAX as f64 => Some(f as u64),
            _ => None,
        }
    }

    /// The value as an `i64`, if it is an integer in range.
    #[must_use]
    pub fn as_i64(&self) -> Option<i64> {
        match *self {
            Json::Uint(u) => i64::try_from(u).ok(),
            Json::Int(i) => Some(i),
            // `i64::MAX as f64` rounds *up* to 2^63 (not representable);
            // strict comparison, as in `as_u64`. The lower bound -2^63 is
            // exactly representable, so `>=` is correct there.
            Json::Float(f) if f.fract() == 0.0 && f >= i64::MIN as f64 && f < i64::MAX as f64 => {
                Some(f as i64)
            }
            _ => None,
        }
    }

    /// The value as an `f64`, if it is any number.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Json::Uint(u) => Some(u as f64),
            Json::Int(i) => Some(i as f64),
            Json::Float(f) => Some(f),
            _ => None,
        }
    }

    /// The value as an array slice, if it is an array.
    #[must_use]
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The value as object pairs, if it is an object.
    #[must_use]
    pub fn as_object(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Object(pairs) => Some(pairs),
            _ => None,
        }
    }

    /// Whether the value is `null`.
    #[must_use]
    pub fn is_null(&self) -> bool {
        matches!(self, Json::Null)
    }

    /// Compact single-line encoding.
    #[must_use]
    pub fn to_compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Pretty encoding with two-space indentation and a trailing newline.
    #[must_use]
    pub fn to_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Uint(u) => out.push_str(&u.to_string()),
            Json::Int(i) => out.push_str(&i.to_string()),
            Json::Float(f) => {
                if f.is_finite() {
                    // `{}` on f64 is the shortest representation that parses
                    // back to the same value; force a fractional marker so
                    // the value re-parses as a Float, not an integer.
                    let s = f.to_string();
                    out.push_str(&s);
                    if !s.contains(['.', 'e', 'E']) {
                        out.push_str(".0");
                    }
                } else {
                    // JSON has no NaN/Infinity; null is the conventional
                    // stand-in and keeps emitted documents parseable.
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_string(out, s),
            Json::Array(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                        if indent.is_none() {
                            out.push(' ');
                        }
                    }
                    newline_indent(out, indent, depth + 1);
                    item.write(out, indent, depth + 1);
                }
                newline_indent(out, indent, depth);
                out.push(']');
            }
            Json::Object(pairs) => {
                if pairs.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (key, value)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                        if indent.is_none() {
                            out.push(' ');
                        }
                    }
                    newline_indent(out, indent, depth + 1);
                    write_string(out, key);
                    out.push_str(": ");
                    value.write(out, indent, depth + 1);
                }
                newline_indent(out, indent, depth);
                out.push('}');
            }
        }
    }
}

/// Convenience for building object values in codec code.
#[must_use]
pub fn obj(pairs: Vec<(&str, Json)>) -> Json {
    Json::Object(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

impl From<&str> for Json {
    fn from(s: &str) -> Self {
        Json::Str(s.to_string())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Self {
        Json::Str(s)
    }
}

impl From<bool> for Json {
    fn from(b: bool) -> Self {
        Json::Bool(b)
    }
}

impl From<u64> for Json {
    fn from(u: u64) -> Self {
        Json::Uint(u)
    }
}

impl From<usize> for Json {
    fn from(u: usize) -> Self {
        Json::Uint(u as u64)
    }
}

impl From<f64> for Json {
    fn from(f: f64) -> Self {
        Json::Float(f)
    }
}

impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(value: Option<T>) -> Self {
        value.map_or(Json::Null, Into::into)
    }
}

fn newline_indent(out: &mut String, indent: Option<usize>, depth: usize) {
    if let Some(width) = indent {
        out.push('\n');
        for _ in 0..depth * width {
            out.push(' ');
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
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Maximum container-nesting depth the parser accepts. The parser is
/// recursive-descent, so without a cap an adversarial document of 100k
/// consecutive `[`s would overflow the stack instead of erroring; no real
/// spec or report nests past a handful of levels.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, message: impl Into<String>) -> JsonError {
        JsonError { offset: self.pos, message: message.into() }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), JsonError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected '{}'", byte as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(format!("expected '{word}'")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(other) => Err(self.err(format!("unexpected character '{}'", other as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn enter(&mut self) -> Result<(), JsonError> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(self.err(format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        Ok(())
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.enter()?;
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Json::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Json::Array(items));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.enter()?;
        self.expect(b'{')?;
        let mut pairs: Vec<(String, Json)> = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Json::Object(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            if pairs.iter().any(|(k, _)| *k == key) {
                return Err(self.err(format!("duplicate key \"{key}\"")));
            }
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Json::Object(pairs));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Consume a run of plain bytes in one go.
            while let Some(b) = self.peek() {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| self.err("invalid UTF-8 in string"))?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    out.push(self.escape()?);
                }
                Some(_) => return Err(self.err("unescaped control character in string")),
                None => return Err(self.err("unterminated string")),
            }
        }
    }

    fn escape(&mut self) -> Result<char, JsonError> {
        let c = self.peek().ok_or_else(|| self.err("unterminated escape"))?;
        self.pos += 1;
        Ok(match c {
            b'"' => '"',
            b'\\' => '\\',
            b'/' => '/',
            b'b' => '\u{8}',
            b'f' => '\u{c}',
            b'n' => '\n',
            b'r' => '\r',
            b't' => '\t',
            b'u' => {
                let hi = self.hex4()?;
                let code = if (0xD800..0xDC00).contains(&hi) {
                    // Surrogate pair: a second \uXXXX must follow.
                    if self.peek() == Some(b'\\') {
                        self.pos += 1;
                        self.expect(b'u')?;
                        let lo = self.hex4()?;
                        if !(0xDC00..0xE000).contains(&lo) {
                            return Err(self.err("invalid low surrogate"));
                        }
                        0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                    } else {
                        return Err(self.err("lone high surrogate"));
                    }
                } else {
                    hi
                };
                char::from_u32(code).ok_or_else(|| self.err("invalid unicode escape"))?
            }
            other => return Err(self.err(format!("invalid escape '\\{}'", other as char))),
        })
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut code = 0u32;
        for _ in 0..4 {
            let b = self.peek().ok_or_else(|| self.err("truncated \\u escape"))?;
            let digit = (b as char).to_digit(16).ok_or_else(|| self.err("bad hex digit"))?;
            code = code * 16 + digit;
            self.pos += 1;
        }
        Ok(code)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        // Integer part per the JSON grammar: a lone '0' or a nonzero-led
        // digit run ("01" is not JSON, even though Rust's parsers take it).
        match self.peek() {
            Some(b'0') => {
                self.pos += 1;
                if matches!(self.peek(), Some(b'0'..=b'9')) {
                    return Err(self.err("leading zeros are not allowed"));
                }
            }
            Some(b'1'..=b'9') => {
                while matches!(self.peek(), Some(b'0'..=b'9')) {
                    self.pos += 1;
                }
            }
            _ => return Err(self.err("expected a digit")),
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.err("expected a digit after the decimal point"));
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.err("expected a digit in the exponent"));
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        // Invariant: every byte consumed into this span matched an ASCII
        // digit/sign/dot/exponent pattern above.
        #[allow(clippy::expect_used)]
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("digits are ASCII");
        if !is_float {
            // Keep integers exact; overflowing literals fall through to f64.
            if let Some(stripped) = text.strip_prefix('-') {
                if let Ok(i) = stripped.parse::<i64>().map(|v| -v) {
                    return Ok(Json::Int(i));
                }
            } else if let Ok(u) = text.parse::<u64>() {
                return Ok(Json::Uint(u));
            }
        }
        text.parse::<f64>().map(Json::Float).map_err(|_| JsonError {
            offset: start,
            message: format!("invalid number literal '{text}'"),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_round_trip() {
        for text in ["null", "true", "false", "0", "-7", "18446744073709551615", "1.5", "\"hi\""] {
            let parsed = Json::parse(text).unwrap();
            assert_eq!(Json::parse(&parsed.to_compact()).unwrap(), parsed, "{text}");
        }
    }

    #[test]
    fn integers_stay_exact_beyond_f64_precision() {
        let parsed = Json::parse("9223372036854775807").unwrap();
        assert_eq!(parsed.as_u64(), Some(9_223_372_036_854_775_807));
        assert_eq!(parsed.to_compact(), "9223372036854775807");
        let max = Json::Uint(u64::MAX);
        assert_eq!(Json::parse(&max.to_compact()).unwrap(), max);
    }

    #[test]
    fn nested_documents_round_trip_compact_and_pretty() {
        let doc = obj(vec![
            ("name", "spec \"quoted\"\n".into()),
            ("values", Json::Array(vec![Json::Uint(1), Json::Float(0.5), Json::Null])),
            ("nested", obj(vec![("empty_list", Json::Array(Vec::new())), ("ok", true.into())])),
        ]);
        assert_eq!(Json::parse(&doc.to_compact()).unwrap(), doc);
        assert_eq!(Json::parse(&doc.to_pretty()).unwrap(), doc);
    }

    #[test]
    fn float_encoding_reparses_as_float() {
        let f = Json::Float(2.0);
        assert_eq!(f.to_compact(), "2.0");
        assert_eq!(Json::parse("2.0").unwrap(), f);
        assert_eq!(Json::Float(f64::NAN).to_compact(), "null");
    }

    #[test]
    fn accessors_read_the_right_shapes() {
        let doc = Json::parse(r#"{"a": 3, "b": [1, 2], "c": "x", "d": -4, "e": 2.5}"#).unwrap();
        assert_eq!(doc.get("a").and_then(Json::as_u64), Some(3));
        assert_eq!(doc.get("b").and_then(Json::as_array).map(<[Json]>::len), Some(2));
        assert_eq!(doc.get("c").and_then(Json::as_str), Some("x"));
        assert_eq!(doc.get("d").and_then(Json::as_i64), Some(-4));
        assert_eq!(doc.get("d").and_then(Json::as_u64), None);
        assert_eq!(doc.get("e").and_then(Json::as_f64), Some(2.5));
        assert!(doc.get("missing").is_none());
    }

    #[test]
    fn unicode_escapes_parse() {
        let parsed = Json::parse(r#""aéb😀c\td""#).unwrap();
        assert_eq!(parsed.as_str(), Some("aéb\u{1F600}c\td"));
    }

    #[test]
    fn float_integer_bounds_reject_out_of_range_instead_of_clamping() {
        // 2^64 parses as Float (u64::parse overflows); it must not clamp
        // to u64::MAX. 2^63 likewise must not clamp to i64::MAX.
        let two_64 = Json::parse("18446744073709551616").unwrap();
        assert!(matches!(two_64, Json::Float(_)));
        assert_eq!(two_64.as_u64(), None);
        assert_eq!(Json::Float(9_223_372_036_854_775_808.0).as_i64(), None);
        assert_eq!(Json::Float(i64::MIN as f64).as_i64(), Some(i64::MIN));
        assert_eq!(Json::Float(3.0).as_u64(), Some(3));
    }

    #[test]
    fn number_grammar_matches_json_not_rust() {
        // Rust's u64/f64 parsers accept these; the JSON grammar does not.
        for bad in ["01", "[1.]", ".5", "1e", "1e+", "-", "--1", "+1"] {
            assert!(Json::parse(bad).is_err(), "{bad} must be rejected");
        }
        assert_eq!(Json::parse("1e3").unwrap(), Json::Float(1000.0));
        assert_eq!(Json::parse("-0").unwrap().as_i64(), Some(0));
        assert_eq!(Json::parse("0.25").unwrap(), Json::Float(0.25));
    }

    #[test]
    fn pathological_nesting_errors_instead_of_overflowing() {
        let deep_ok = format!("{}0{}", "[".repeat(64), "]".repeat(64));
        assert!(Json::parse(&deep_ok).is_ok());
        // Many siblings at modest depth are fine: depth unwinds on exit.
        let wide = format!("[{}]", vec!["[[]]"; 1_000].join(","));
        assert!(Json::parse(&wide).is_ok());
        let bomb = "[".repeat(100_000);
        let err = Json::parse(&bomb).unwrap_err();
        assert!(err.message.contains("nesting"), "{err}");
    }

    #[test]
    fn errors_carry_offsets() {
        let err = Json::parse("{\"a\": }").unwrap_err();
        assert_eq!(err.offset, 6);
        assert!(Json::parse("[1, 2").is_err());
        assert!(Json::parse("{} trailing").is_err());
        assert!(Json::parse(r#"{"a": 1, "a": 2}"#).unwrap_err().message.contains("duplicate"));
    }
}

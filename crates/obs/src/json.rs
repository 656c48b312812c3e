//! A minimal JSON value model with a writer and a parser.
//!
//! The workspace runs in hermetic environments with no third-party
//! crates, so the telemetry layer carries its own JSON implementation.
//! It covers exactly what the trace/report formats need:
//!
//! * numbers are `i64` or `f64` (floats print with Rust's shortest
//!   round-trip formatting, so `parse(write(x)) == x` bit-for-bit);
//! * objects preserve insertion order (trace records read naturally and
//!   serialization is deterministic);
//! * the parser accepts any RFC 8259 document produced by this writer or
//!   by common tools.

use std::fmt;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number without fractional part that fits `i64`.
    Int(i64),
    /// Any other number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Json>),
    /// An object; key order is preserved.
    Object(Vec<(String, Json)>),
}

/// A parse failure: message plus byte offset into the input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// What went wrong.
    pub message: String,
    /// Byte offset where the parser stopped.
    pub offset: usize,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

impl Json {
    /// Builds an object from `(key, value)` pairs.
    pub fn obj<I>(pairs: I) -> Json
    where
        I: IntoIterator<Item = (&'static str, Json)>,
    {
        Json::Object(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Member lookup on an object; `None` for other variants.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as `f64` (accepting both number variants).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(i) => Some(*i as f64),
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// The value as `i64` (floats only when exactly integral).
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Int(i) => Some(*i),
            Json::Num(x) if x.fract() == 0.0 && x.abs() < 9.2e18 => Some(*x as i64),
            _ => None,
        }
    }

    /// The value as `u64` (non-negative integers).
    pub fn as_u64(&self) -> Option<u64> {
        self.as_i64().and_then(|i| u64::try_from(i).ok())
    }

    /// The value as `&str`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as `bool`.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The value as object pairs.
    pub fn as_object(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Object(pairs) => Some(pairs),
            _ => None,
        }
    }

    /// Compact single-line rendering.
    pub fn to_string_compact(&self) -> String {
        let mut out = String::new();
        write_value(self, &mut out);
        out
    }

    /// Pretty rendering with two-space indentation.
    pub fn to_string_pretty(&self) -> String {
        let mut out = String::new();
        write_pretty(self, &mut out, 0);
        out.push('\n');
        out
    }

    /// Parses a JSON document, requiring it to span the whole input.
    ///
    /// # Errors
    ///
    /// Returns [`JsonError`] on malformed input, trailing garbage, or
    /// arrays and objects nested more than [`MAX_DEPTH`] deep.
    pub fn parse(input: &str) -> Result<Json, JsonError> {
        let bytes = input.as_bytes();
        let mut pos = 0usize;
        skip_ws(bytes, &mut pos);
        let value = parse_value(bytes, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(JsonError {
                message: "trailing characters after document".to_string(),
                offset: pos,
            });
        }
        Ok(value)
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_string_compact())
    }
}

/// Conversion into a [`Json`] value (the writer-side half of the layer).
pub trait ToJson {
    /// The JSON representation of `self`.
    fn to_json(&self) -> Json;
}

impl ToJson for Json {
    fn to_json(&self) -> Json {
        self.clone()
    }
}

impl ToJson for bool {
    fn to_json(&self) -> Json {
        Json::Bool(*self)
    }
}

impl ToJson for f64 {
    fn to_json(&self) -> Json {
        Json::Num(*self)
    }
}

impl ToJson for u64 {
    fn to_json(&self) -> Json {
        Json::Int(*self as i64)
    }
}

impl ToJson for i64 {
    fn to_json(&self) -> Json {
        Json::Int(*self)
    }
}

impl ToJson for usize {
    fn to_json(&self) -> Json {
        Json::Int(*self as i64)
    }
}

impl ToJson for str {
    fn to_json(&self) -> Json {
        Json::Str(self.to_string())
    }
}

impl ToJson for String {
    fn to_json(&self) -> Json {
        Json::Str(self.clone())
    }
}

impl<T: ToJson> ToJson for [T] {
    fn to_json(&self) -> Json {
        Json::Array(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Json {
        self.as_slice().to_json()
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> Json {
        match self {
            Some(v) => v.to_json(),
            None => Json::Null,
        }
    }
}

fn write_value(value: &Json, out: &mut String) {
    match value {
        Json::Null => out.push_str("null"),
        Json::Bool(true) => out.push_str("true"),
        Json::Bool(false) => out.push_str("false"),
        Json::Int(i) => out.push_str(&i.to_string()),
        Json::Num(x) => write_number(*x, out),
        Json::Str(s) => write_string(s, out),
        Json::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_value(item, out);
            }
            out.push(']');
        }
        Json::Object(pairs) => {
            out.push('{');
            for (i, (k, v)) in pairs.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_string(k, out);
                out.push(':');
                write_value(v, out);
            }
            out.push('}');
        }
    }
}

fn write_pretty(value: &Json, out: &mut String, depth: usize) {
    let indent = |out: &mut String, d: usize| {
        for _ in 0..d {
            out.push_str("  ");
        }
    };
    match value {
        Json::Array(items) if !items.is_empty() => {
            out.push_str("[\n");
            for (i, item) in items.iter().enumerate() {
                indent(out, depth + 1);
                write_pretty(item, out, depth + 1);
                if i + 1 < items.len() {
                    out.push(',');
                }
                out.push('\n');
            }
            indent(out, depth);
            out.push(']');
        }
        Json::Object(pairs) if !pairs.is_empty() => {
            out.push_str("{\n");
            for (i, (k, v)) in pairs.iter().enumerate() {
                indent(out, depth + 1);
                write_string(k, out);
                out.push_str(": ");
                write_pretty(v, out, depth + 1);
                if i + 1 < pairs.len() {
                    out.push(',');
                }
                out.push('\n');
            }
            indent(out, depth);
            out.push('}');
        }
        other => write_value(other, out),
    }
}

/// Writes an `f64` so it parses back bit-identically: Rust's `{:?}` is
/// the shortest representation that round-trips. Non-finite values have
/// no JSON spelling and degrade to `null`.
fn write_number(x: f64, out: &mut String) {
    if x.is_finite() {
        out.push_str(&format!("{x:?}"));
    } else {
        out.push_str("null");
    }
}

fn write_string(s: &str, out: &mut String) {
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

/// The deepest array/object nesting [`Json::parse`] accepts. The parser
/// recurses once per level, so unbounded nesting would overflow the
/// stack; every document this workspace writes nests fewer than 20
/// levels.
pub const MAX_DEPTH: usize = 128;

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn err(message: &str, offset: usize) -> JsonError {
    JsonError {
        message: message.to_string(),
        offset,
    }
}

fn expect(bytes: &[u8], pos: &mut usize, b: u8) -> Result<(), JsonError> {
    if *pos < bytes.len() && bytes[*pos] == b {
        *pos += 1;
        Ok(())
    } else {
        Err(err(&format!("expected `{}`", b as char), *pos))
    }
}

/// Parses one value whose enclosing arrays/objects number `depth`.
fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, JsonError> {
    if depth == MAX_DEPTH && matches!(bytes.get(*pos), Some(b'[' | b'{')) {
        return Err(err(
            &format!("nesting deeper than {MAX_DEPTH} levels"),
            *pos,
        ));
    }
    match bytes.get(*pos) {
        None => Err(err("unexpected end of input", *pos)),
        Some(b'n') => parse_literal(bytes, pos, "null", Json::Null),
        Some(b't') => parse_literal(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_literal(bytes, pos, "false", Json::Bool(false)),
        Some(b'"') => parse_string(bytes, pos).map(Json::Str),
        Some(b'[') => parse_array(bytes, pos, depth + 1),
        Some(b'{') => parse_object(bytes, pos, depth + 1),
        Some(b'-' | b'0'..=b'9') => parse_number(bytes, pos),
        Some(&c) => Err(err(&format!("unexpected byte `{}`", c as char), *pos)),
    }
}

fn parse_literal(
    bytes: &[u8],
    pos: &mut usize,
    word: &str,
    value: Json,
) -> Result<Json, JsonError> {
    if bytes[*pos..].starts_with(word.as_bytes()) {
        *pos += word.len();
        Ok(value)
    } else {
        Err(err(&format!("expected `{word}`"), *pos))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, JsonError> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    let mut is_float = false;
    while let Some(&c) = bytes.get(*pos) {
        match c {
            b'0'..=b'9' => *pos += 1,
            b'.' | b'e' | b'E' | b'+' | b'-' => {
                is_float = true;
                *pos += 1;
            }
            _ => break,
        }
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).expect("digits are ASCII");
    if !is_float {
        if let Ok(i) = text.parse::<i64>() {
            return Ok(Json::Int(i));
        }
    }
    text.parse::<f64>()
        .map(Json::Num)
        .map_err(|_| err(&format!("invalid number `{text}`"), start))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, JsonError> {
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        let Some(&c) = bytes.get(*pos) else {
            return Err(err("unterminated string", *pos));
        };
        *pos += 1;
        match c {
            b'"' => return Ok(out),
            b'\\' => {
                let Some(&esc) = bytes.get(*pos) else {
                    return Err(err("unterminated escape", *pos));
                };
                *pos += 1;
                match esc {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'/' => out.push('/'),
                    b'n' => out.push('\n'),
                    b'r' => out.push('\r'),
                    b't' => out.push('\t'),
                    b'b' => out.push('\u{8}'),
                    b'f' => out.push('\u{c}'),
                    b'u' => {
                        let code = parse_hex4(bytes, pos)?;
                        // Surrogate pairs: combine a high surrogate with
                        // the following \uXXXX low surrogate.
                        let c = if (0xD800..0xDC00).contains(&code) {
                            if bytes.get(*pos) == Some(&b'\\') && bytes.get(*pos + 1) == Some(&b'u')
                            {
                                *pos += 2;
                                let low = parse_hex4(bytes, pos)?;
                                let combined = 0x10000
                                    + ((code - 0xD800) << 10)
                                    + (low.wrapping_sub(0xDC00) & 0x3FF);
                                char::from_u32(combined)
                            } else {
                                None
                            }
                        } else {
                            char::from_u32(code)
                        };
                        out.push(c.ok_or_else(|| err("invalid \\u escape", *pos))?);
                    }
                    _ => return Err(err("unknown escape", *pos - 1)),
                }
            }
            _ => {
                // Re-sync to char boundaries for multi-byte UTF-8.
                let rest_start = *pos - 1;
                let s = std::str::from_utf8(&bytes[rest_start..])
                    .map_err(|_| err("invalid UTF-8 in string", rest_start))?;
                let ch = s.chars().next().expect("non-empty by construction");
                out.push(ch);
                *pos = rest_start + ch.len_utf8();
            }
        }
    }
}

fn parse_hex4(bytes: &[u8], pos: &mut usize) -> Result<u32, JsonError> {
    if *pos + 4 > bytes.len() {
        return Err(err("truncated \\u escape", *pos));
    }
    let s = std::str::from_utf8(&bytes[*pos..*pos + 4])
        .map_err(|_| err("non-ASCII \\u escape", *pos))?;
    let code = u32::from_str_radix(s, 16).map_err(|_| err("bad \\u escape", *pos))?;
    *pos += 4;
    Ok(code)
}

fn parse_array(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, JsonError> {
    expect(bytes, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Array(items));
    }
    loop {
        skip_ws(bytes, pos);
        items.push(parse_value(bytes, pos, depth)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Array(items));
            }
            _ => return Err(err("expected `,` or `]`", *pos)),
        }
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, JsonError> {
    expect(bytes, pos, b'{')?;
    let mut pairs = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Object(pairs));
    }
    loop {
        skip_ws(bytes, pos);
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        expect(bytes, pos, b':')?;
        skip_ws(bytes, pos);
        let value = parse_value(bytes, pos, depth)?;
        pairs.push((key, value));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Object(pairs));
            }
            _ => return Err(err("expected `,` or `}`", *pos)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_round_trips() {
        for text in ["null", "true", "false", "0", "-17", "3.5", "\"hi\""] {
            let v = Json::parse(text).unwrap();
            assert_eq!(Json::parse(&v.to_string_compact()).unwrap(), v, "{text}");
        }
    }

    #[test]
    fn floats_round_trip_exactly() {
        for x in [
            0.1,
            1.0 / 3.0,
            f64::MIN_POSITIVE,
            1.7976931348623157e308,
            -2.5e-10,
            123_456_789.123_456_79,
        ] {
            let text = Json::Num(x).to_string_compact();
            let back = Json::parse(&text).unwrap().as_f64().unwrap();
            assert_eq!(back.to_bits(), x.to_bits(), "{x} -> {text}");
        }
    }

    #[test]
    fn large_integers_stay_exact() {
        let v = Json::Int(i64::MAX);
        let back = Json::parse(&v.to_string_compact()).unwrap();
        assert_eq!(back.as_i64(), Some(i64::MAX));
    }

    #[test]
    fn object_preserves_order_and_gets() {
        let v = Json::obj([("b", Json::Int(1)), ("a", Json::Str("x".to_string()))]);
        assert_eq!(v.to_string_compact(), r#"{"b":1,"a":"x"}"#);
        assert_eq!(v.get("a").and_then(Json::as_str), Some("x"));
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn string_escapes_round_trip() {
        let nasty = "quote \" backslash \\ newline \n tab \t unicode ∆ control \u{1}";
        let v = Json::Str(nasty.to_string());
        let back = Json::parse(&v.to_string_compact()).unwrap();
        assert_eq!(back.as_str(), Some(nasty));
    }

    #[test]
    fn parses_foreign_documents() {
        let doc = r#" { "a" : [ 1 , 2.5 , null , { "b" : "\u0041\ud83d\ude00" } ] , "c" : true } "#;
        let v = Json::parse(doc).unwrap();
        assert_eq!(v.get("c").and_then(Json::as_bool), Some(true));
        let arr = v.get("a").and_then(Json::as_array).unwrap();
        assert_eq!(arr[0].as_i64(), Some(1));
        assert_eq!(arr[3].get("b").and_then(Json::as_str), Some("A😀"));
    }

    #[test]
    fn rejects_garbage() {
        for bad in ["", "{", "[1,", "{\"a\":}", "tru", "1 2", "\"\\x\""] {
            assert!(Json::parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn nesting_is_bounded_not_a_stack_overflow() {
        let nested = |open: &str, close: &str, levels: usize| {
            format!("{}0{}", open.repeat(levels), close.repeat(levels))
        };
        assert!(Json::parse(&nested("[", "]", MAX_DEPTH)).is_ok());
        assert!(Json::parse(&nested("{\"k\":", "}", MAX_DEPTH)).is_ok());
        // The error points at the first opener past the limit.
        for (deep, offset) in [
            (nested("[", "]", MAX_DEPTH + 1), MAX_DEPTH),
            (nested("{\"k\":", "}", MAX_DEPTH + 1), 5 * MAX_DEPTH),
            ("[".repeat(200_000), MAX_DEPTH),
            ("{\"k\":".repeat(200_000), 5 * MAX_DEPTH),
        ] {
            let e = Json::parse(&deep).expect_err("too deep");
            assert!(e.message.contains("nesting deeper"), "{e}");
            assert_eq!(e.offset, offset);
        }
    }

    #[test]
    fn pretty_is_reparseable() {
        let v = Json::obj([
            (
                "nested",
                Json::Array(vec![Json::Int(1), Json::obj([("k", Json::Null)])]),
            ),
            ("empty", Json::Array(vec![])),
        ]);
        assert_eq!(Json::parse(&v.to_string_pretty()).unwrap(), v);
    }
}

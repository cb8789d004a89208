//! Minimal JSON support for the service: a strict recursive-descent parser
//! for request bodies and a few composition helpers for responses.
//!
//! std-only by design (workspace rule); the response side reuses the
//! number/string formatting of [`pm_obs::json`] so every JSON emitter in the
//! workspace renders identically.

use std::borrow::Cow;
use std::collections::BTreeMap;

/// Maximum nesting depth the parser accepts — deep enough for any real
/// request body, shallow enough that hostile input cannot blow the stack.
const MAX_DEPTH: usize = 32;

/// A parsed JSON value. Objects keep `BTreeMap` order (sorted keys), which
/// is irrelevant for reading and keeps lookups simple.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Number(f64),
    String(String),
    Array(Vec<Json>),
    Object(BTreeMap<String, Json>),
}

impl Json {
    /// Member lookup on objects; `None` elsewhere.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(map) => map.get(key),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Number(v) => Some(*v),
            _ => None,
        }
    }

    /// The numeric value as an integer, if it is one exactly.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Number(v) if v.fract() == 0.0 && v.abs() <= i64::MAX as f64 => Some(*v as i64),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::String(s) => Some(s),
            _ => None,
        }
    }

    /// The element list, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(v) => Some(v),
            _ => None,
        }
    }
}

/// Parses one JSON document, rejecting trailing garbage.
pub fn parse(text: &str) -> Result<Json, String> {
    let mut cursor = Cursor::new(text);
    let value = cursor.value(0)?;
    cursor.finish()?;
    Ok(value)
}

/// A request body's JSON text: a blank body reads as `{}`, and a body that
/// is not UTF-8 is refused.
pub(crate) fn body_text(body: &[u8]) -> Result<&str, String> {
    let text = std::str::from_utf8(body).map_err(|_| "body is not UTF-8".to_string())?;
    Ok(if text.trim().is_empty() { "{}" } else { text })
}

/// A read position in one JSON document: the lexer behind [`parse`], open
/// to decoders that walk a known shape without building a [`Json`] tree,
/// so a syntax error reads the same, down to its byte offset, either way.
pub(crate) struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    pub(crate) fn new(text: &'a str) -> Cursor<'a> {
        Cursor {
            bytes: text.as_bytes(),
            pos: 0,
        }
    }

    /// The next byte after whitespace, left unread.
    pub(crate) fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.bytes.get(self.pos).copied()
    }

    /// Rejects anything but whitespace after the document.
    pub(crate) fn finish(mut self) -> Result<(), String> {
        self.skip_ws();
        if self.pos != self.bytes.len() {
            return Err(format!("trailing characters at byte {}", self.pos));
        }
        Ok(())
    }

    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    /// Parses one value nested `depth` levels deep into a tree.
    pub(crate) fn value(&mut self, depth: usize) -> Result<Json, String> {
        if depth > MAX_DEPTH {
            return Err(format!("nesting deeper than {MAX_DEPTH}"));
        }
        match self.peek() {
            None => Err("unexpected end of input".into()),
            Some(b'{') => {
                let mut map = BTreeMap::new();
                self.object(|cursor, key| {
                    map.insert(key.into_owned(), cursor.value(depth + 1)?);
                    Ok(())
                })?;
                Ok(Json::Object(map))
            }
            Some(b'[') => {
                let mut items = Vec::new();
                self.array(|cursor| {
                    items.push(cursor.value(depth + 1)?);
                    Ok(())
                })?;
                Ok(Json::Array(items))
            }
            Some(b'"') => Ok(Json::String(self.string()?.into_owned())),
            Some(b't') => self.keyword("true", Json::Bool(true)),
            Some(b'f') => self.keyword("false", Json::Bool(false)),
            Some(b'n') => self.keyword("null", Json::Null),
            Some(_) => self.number(),
        }
    }

    fn keyword(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while matches!(
            self.bytes.get(self.pos),
            Some(b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
        ) {
            self.pos += 1;
        }
        let text =
            std::str::from_utf8(&self.bytes[start..self.pos]).map_err(|_| "non-UTF8 number")?;
        let v: f64 = text
            .parse()
            .map_err(|_| format!("invalid number {text:?} at byte {start}"))?;
        if !v.is_finite() {
            return Err(format!("non-finite number {text:?} at byte {start}"));
        }
        Ok(Json::Number(v))
    }

    /// The string that opens here, borrowed from the document unless it
    /// holds an escape.
    fn string(&mut self) -> Result<Cow<'a, str>, String> {
        debug_assert_eq!(self.bytes[self.pos], b'"');
        self.pos += 1;
        let mut escaped: Option<String> = None;
        loop {
            // Consume the whole run of plain characters up to the next
            // quote or escape in one slice. Scanning bytes is sound: every
            // byte of a multi-byte UTF-8 scalar is >= 0x80, so it can never
            // collide with '"' (0x22) or '\\' (0x5C) — and validating only
            // the run keeps the parser O(n) overall (validating the
            // *remainder* per character made large ingest bodies quadratic).
            let start = self.pos;
            while let Some(&b) = self.bytes.get(self.pos) {
                if b == b'"' || b == b'\\' {
                    break;
                }
                self.pos += 1;
            }
            let run =
                std::str::from_utf8(&self.bytes[start..self.pos]).map_err(|_| "non-UTF8 string")?;
            match self.bytes.get(self.pos) {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(match escaped {
                        None => Cow::Borrowed(run),
                        Some(mut out) => {
                            out.push_str(run);
                            Cow::Owned(out)
                        }
                    });
                }
                Some(_) => {
                    let out = escaped.get_or_insert_with(String::new);
                    out.push_str(run);
                    self.pos += 1;
                    match self.bytes.get(self.pos) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or("truncated \\u escape")?;
                            let hex =
                                std::str::from_utf8(hex).map_err(|_| "non-UTF8 \\u escape")?;
                            let code =
                                u32::from_str_radix(hex, 16).map_err(|_| "invalid \\u escape")?;
                            // Surrogates are not combined — the service never
                            // needs astral-plane input; reject instead of
                            // mis-decoding.
                            let c = char::from_u32(code).ok_or("\\u escape is a surrogate half")?;
                            out.push(c);
                            self.pos += 4;
                        }
                        _ => return Err("invalid escape".into()),
                    }
                    self.pos += 1;
                }
            }
        }
    }

    /// Walks the array that opens here, handing `element` the cursor at
    /// each element in turn; `element` must read past it.
    pub(crate) fn array(
        &mut self,
        mut element: impl FnMut(&mut Self) -> Result<(), String>,
    ) -> Result<(), String> {
        self.pos += 1; // '['
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(());
        }
        loop {
            element(self)?;
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    /// Walks the object that opens here, handing `member` each key with the
    /// cursor at its value; `member` must read past the value.
    pub(crate) fn object(
        &mut self,
        mut member: impl FnMut(&mut Self, Cow<'a, str>) -> Result<(), String>,
    ) -> Result<(), String> {
        self.pos += 1; // '{'
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(());
        }
        loop {
            if self.peek() != Some(b'"') {
                return Err(format!("expected object key at byte {}", self.pos));
            }
            let key = self.string()?;
            if self.peek() != Some(b':') {
                return Err(format!("expected ':' at byte {}", self.pos));
            }
            self.pos += 1;
            member(self, key)?;
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Response composition helpers
// ---------------------------------------------------------------------------

/// Renders a JSON string literal (quotes included) into `out`.
pub fn push_str_lit(out: &mut String, s: &str) {
    pm_obs::json::write_str(out, s);
}

/// Renders an `f64` exactly as every other workspace JSON emitter does.
pub fn num(v: f64) -> String {
    pm_obs::json::number(v)
}

/// A `{"error": ...}` body.
pub fn error_body(message: &str) -> String {
    let mut out = String::from("{\"error\":");
    push_str_lit(&mut out, message);
    out.push('}');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_document() {
        let doc = r#"{"points":[{"x":1.5,"y":-2,"t":3600}],"name":"a\nb","ok":true,"none":null}"#;
        let v = parse(doc).unwrap();
        let points = v.get("points").unwrap().as_array().unwrap();
        assert_eq!(points[0].get("x").unwrap().as_f64(), Some(1.5));
        assert_eq!(points[0].get("t").unwrap().as_i64(), Some(3600));
        assert_eq!(v.get("name").unwrap().as_str(), Some("a\nb"));
        assert_eq!(v.get("ok"), Some(&Json::Bool(true)));
        assert_eq!(v.get("none"), Some(&Json::Null));
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\" 1}",
            "tru",
            "\"unterminated",
            "1 2",
            "{\"a\":1}x",
            "nan",
            "1e999",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn rejects_pathological_nesting() {
        let deep = "[".repeat(100) + &"]".repeat(100);
        assert!(parse(&deep).is_err());
    }

    #[test]
    fn unicode_escapes_decode() {
        let v = parse(r#""é\tA""#).unwrap();
        assert_eq!(v.as_str(), Some("\u{e9}\tA"));
    }

    #[test]
    fn error_body_escapes() {
        assert_eq!(
            error_body("bad \"x\""),
            r#"{"error":"bad \"x\""}"#.to_string()
        );
    }
}

//! Minimal JSON writing helpers (std-only, no serde).
//!
//! Just enough for [`RunReport`](crate::RunReport) and the bench harness:
//! string escaping and a number formatter that never emits tokens JSON
//! cannot parse (non-finite floats become `null`).

use std::fmt::Write as _;

/// Appends `s` to `out` as a JSON string literal, quotes included.
pub fn write_str(out: &mut String, s: &str) {
    out.push('"');
    if !s.bytes().any(|b| b < 0x20 || b == b'"' || b == b'\\') {
        // Nothing to escape: one copy.
        out.push_str(s);
        out.push('"');
        return;
    }
    for c in s.chars() {
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

/// Renders an `f64` as a JSON number token; non-finite values become `null`.
pub fn number(v: f64) -> String {
    let mut out = String::new();
    write_number(&mut out, v);
    out
}

/// Appends [`number`]'s token for `v` to `out`, with no temporary string.
pub fn write_number(out: &mut String, v: f64) {
    if v.is_finite() {
        // Shortest round-trip formatting; Rust's `Display` for finite f64
        // only emits digits, '.', '-', and 'e' exponents — all valid JSON.
        let _ = write!(out, "{v}");
    } else {
        out.push_str("null");
    }
}

/// Renders a millisecond quantity with fixed precision (stable field width
/// for diffs; 1 ns resolution is noise anyway).
pub fn millis(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.3}")
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_specials() {
        let mut out = String::new();
        write_str(&mut out, "a\"b\\c\nd\te\u{1}");
        assert_eq!(out, "\"a\\\"b\\\\c\\nd\\te\\u0001\"");
        // Strings with nothing to escape are copied as they are.
        for s in ["", "Residence", "Shop & Market", "user-07", "café ✓"] {
            let mut out = String::new();
            write_str(&mut out, s);
            assert_eq!(out, format!("\"{s}\""));
        }
    }

    #[test]
    fn numbers_are_json_safe() {
        assert_eq!(number(1.5), "1.5");
        assert_eq!(number(-3.0), "-3");
        assert_eq!(number(f64::NAN), "null");
        assert_eq!(number(f64::INFINITY), "null");
        assert_eq!(millis(1.23456), "1.235");
        assert_eq!(millis(f64::NAN), "null");
    }
}

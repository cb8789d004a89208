//! The one writer of `BENCH_pipeline.json`.
//!
//! The report is a JSON object with one top-level member per bench section
//! (`"stages"`, `"serve"`, `"ingest"`, `"motifs"`, `"cohorts"`, ...). A bench
//! upserts its own members by key: a member already present is replaced in
//! place, a new one is appended, and every other member keeps its exact
//! text. Re-running one bench therefore never erases another's section.

use pervasive_miner::serve::json;

/// Schema tag of a freshly started report.
const SCHEMA: &str = "\"pm-bench/1\"";

/// The report path: `PM_BENCH_OUT`, or `BENCH_pipeline.json` in the
/// current directory.
pub fn out_path() -> String {
    std::env::var("PM_BENCH_OUT").unwrap_or_else(|_| "BENCH_pipeline.json".to_string())
}

/// Upserts each `(key, value)` member into the report at `path`; `value` is
/// raw JSON text. A missing report starts fresh; so does one that is not a
/// JSON object, with a warning, since its sections cannot be kept.
pub fn upsert(path: &str, entries: &[(&str, &str)]) {
    let existing = match std::fs::read_to_string(path) {
        Ok(doc) => {
            let parsed = members(&doc);
            if parsed.is_none() {
                eprintln!("warning: {path} is not a JSON object; starting a fresh report");
            }
            parsed
        }
        Err(_) => None,
    };
    let mut doc = existing.unwrap_or_else(|| vec![("schema".to_string(), SCHEMA.to_string())]);
    for &(key, value) in entries {
        match doc.iter_mut().find(|(k, _)| k == key) {
            Some(member) => member.1 = value.to_string(),
            None => doc.push((key.to_string(), value.to_string())),
        }
    }
    std::fs::write(path, render(&doc)).expect("write bench report");
    eprintln!("wrote {path}");
}

/// Renders members as the report's two-space-indented object.
fn render(doc: &[(String, String)]) -> String {
    let body: Vec<String> = doc.iter().map(|(k, v)| format!("  \"{k}\": {v}")).collect();
    format!("{{\n{}\n}}\n", body.join(",\n"))
}

/// Splits a JSON object into its top-level members, each value as its raw
/// text. `None` unless `doc` parses as a JSON object.
fn members(doc: &str) -> Option<Vec<(String, String)>> {
    if !matches!(json::parse(doc), Ok(json::Json::Object(_))) {
        return None;
    }
    let body = doc.trim().strip_prefix('{')?.strip_suffix('}')?;
    let mut out = Vec::new();
    let mut rest = body.trim_start();
    while !rest.is_empty() {
        // The document parsed, so `rest` opens with a key string.
        let key_len = string_len(rest)?;
        let key = rest[1..key_len - 1].to_string();
        let after = rest[key_len..].trim_start().strip_prefix(':')?;
        let value_len = value_len(after);
        out.push((key, after[..value_len].trim().to_string()));
        rest = after[value_len..].trim_start();
        rest = rest.strip_prefix(',').unwrap_or(rest).trim_start();
    }
    Some(out)
}

/// Byte length of the string literal `s` opens with, quotes included.
fn string_len(s: &str) -> Option<usize> {
    let mut escaped = false;
    for (i, b) in s.bytes().enumerate().skip(1) {
        match b {
            _ if escaped => escaped = false,
            b'\\' => escaped = true,
            b'"' => return Some(i + 1),
            _ => {}
        }
    }
    None
}

/// Byte length of the value `s` opens with: up to the first comma outside
/// any string, array or object, or the whole of `s`.
fn value_len(s: &str) -> usize {
    let (mut depth, mut in_string, mut escaped) = (0usize, false, false);
    for (i, b) in s.bytes().enumerate() {
        match b {
            _ if escaped => escaped = false,
            b'\\' if in_string => escaped = true,
            b'"' => in_string = !in_string,
            _ if in_string => {}
            b'[' | b'{' => depth += 1,
            b']' | b'}' => depth -= 1,
            b',' if depth == 0 => return i,
            _ => {}
        }
    }
    s.len()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_report(name: &str, contents: Option<&str>) -> String {
        let path = std::env::temp_dir().join(format!("pm-bench-report-{name}.json"));
        let path = path.to_string_lossy().into_owned();
        match contents {
            Some(doc) => std::fs::write(&path, doc).unwrap(),
            None => {
                let _ = std::fs::remove_file(&path);
            }
        }
        path
    }

    const DOC: &str = "{\n  \"schema\": \"pm-bench/1\",\n  \"stages\": [\n    {\"name\": \"a, b\", \"ms\": 1}\n  ],\n  \"cohorts\": {\n    \"cluster_ms\": 41.359\n  }\n}\n";

    #[test]
    fn members_keep_raw_value_text() {
        let m = members(DOC).unwrap();
        let keys: Vec<&str> = m.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["schema", "stages", "cohorts"]);
        assert_eq!(m[1].1, "[\n    {\"name\": \"a, b\", \"ms\": 1}\n  ]");
        assert_eq!(render(&m), DOC);
    }

    #[test]
    fn upsert_replaces_in_place_and_keeps_other_sections() {
        let path = temp_report("replace", Some(DOC));
        upsert(&path, &[("cohorts", "{\"cluster_ms\": 9.5}")]);
        upsert(&path, &[("serve", "{\"requests\": 25}")]);
        let doc = std::fs::read_to_string(&path).unwrap();
        let m = members(&doc).unwrap();
        let keys: Vec<&str> = m.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["schema", "stages", "cohorts", "serve"]);
        assert_eq!(m[1].1, members(DOC).unwrap()[1].1);
        assert_eq!(m[2].1, "{\"cluster_ms\": 9.5}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn missing_or_malformed_report_starts_fresh() {
        for (name, contents) in [("missing", None), ("malformed", Some("{\"a\": [1,"))] {
            let path = temp_report(name, contents);
            upsert(&path, &[("ingest", "{\"fixes\": 768}")]);
            let doc = std::fs::read_to_string(&path).unwrap();
            assert_eq!(
                doc,
                "{\n  \"schema\": \"pm-bench/1\",\n  \"ingest\": {\"fixes\": 768}\n}\n"
            );
            let _ = std::fs::remove_file(&path);
        }
    }
}

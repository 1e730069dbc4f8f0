//! A minimal JSON value builder + pretty-printer, replacing `serde_json`
//! for the workspace's machine-readable outputs.
//!
//! Only what the bench binaries need: objects with insertion-ordered
//! keys, arrays, strings, numbers and booleans, printed with two-space
//! indentation. Non-finite floats serialize as `null` (matching what
//! `serde_json` does for `f64::NAN` under its default configuration).

use std::fmt::Write as _;

/// A JSON document fragment.
#[derive(Debug, Clone)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Int(i64),
    Str(String),
    Arr(Vec<Json>),
    /// Insertion-ordered object.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Convenience constructor for an empty object.
    pub fn obj() -> Json {
        Json::Obj(Vec::new())
    }

    /// Adds/overwrites a field on an object (panics on non-objects).
    pub fn set(mut self, key: &str, value: impl Into<Json>) -> Json {
        match &mut self {
            Json::Obj(fields) => {
                let value = value.into();
                if let Some(slot) = fields.iter_mut().find(|(k, _)| k == key) {
                    slot.1 = value;
                } else {
                    fields.push((key.to_string(), value));
                }
            }
            other => panic!("Json::set on non-object {other:?}"),
        }
        self
    }

    /// Pretty-prints with two-space indentation and a trailing newline.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => {
                let _ = write!(out, "{b}");
            }
            Json::Int(i) => {
                let _ = write!(out, "{i}");
            }
            Json::Num(x) => {
                if x.is_finite() {
                    if *x == x.trunc() && x.abs() < 1e15 {
                        let _ = write!(out, "{:.1}", x);
                    } else {
                        let _ = write!(out, "{x}");
                    }
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent + 1);
                    item.write(out, indent + 1);
                }
                newline_indent(out, indent);
                out.push(']');
            }
            Json::Obj(fields) => {
                if fields.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent + 1);
                    write_escaped(out, k);
                    out.push_str(": ");
                    v.write(out, indent + 1);
                }
                newline_indent(out, indent);
                out.push('}');
            }
        }
    }
}

fn newline_indent(out: &mut String, indent: usize) {
    out.push('\n');
    for _ in 0..indent {
        out.push_str("  ");
    }
}

fn write_escaped(out: &mut String, s: &str) {
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

impl From<f64> for Json {
    fn from(x: f64) -> Json {
        Json::Num(x)
    }
}

impl From<i64> for Json {
    fn from(x: i64) -> Json {
        Json::Int(x)
    }
}

impl From<u64> for Json {
    fn from(x: u64) -> Json {
        Json::Int(x as i64)
    }
}

impl From<usize> for Json {
    fn from(x: usize) -> Json {
        Json::Int(x as i64)
    }
}

impl From<bool> for Json {
    fn from(x: bool) -> Json {
        Json::Bool(x)
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}

impl From<Vec<Json>> for Json {
    fn from(items: Vec<Json>) -> Json {
        Json::Arr(items)
    }
}

/// Checks that `text` is exactly one syntactically well-formed JSON
/// document (trailing whitespace allowed). A minimal recursive-descent
/// scanner — no values are built — used by the trace-export CI check to
/// prove the hand-rolled writer emitted parseable output.
pub fn validate(text: &str) -> Result<(), String> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    skip_ws(bytes, &mut pos);
    scan_value(bytes, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing garbage at byte {pos}"));
    }
    Ok(())
}

/// Nesting depth bound for the scanner — far above anything the bench
/// writers produce, low enough to never blow the stack on crafted input.
const MAX_DEPTH: usize = 128;

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn scan_value(b: &[u8], pos: &mut usize, depth: usize) -> Result<(), String> {
    if depth > MAX_DEPTH {
        return Err(format!("nesting deeper than {MAX_DEPTH} at byte {pos}"));
    }
    let Some(&c) = b.get(*pos) else {
        return Err(format!("unexpected end of input at byte {pos}"));
    };
    match c {
        b'{' => {
            *pos += 1;
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(());
            }
            loop {
                skip_ws(b, pos);
                scan_string(b, pos)?;
                skip_ws(b, pos);
                if b.get(*pos) != Some(&b':') {
                    return Err(format!("expected ':' at byte {pos}"));
                }
                *pos += 1;
                skip_ws(b, pos);
                scan_value(b, pos, depth + 1)?;
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(&b',') => *pos += 1,
                    Some(&b'}') => {
                        *pos += 1;
                        return Ok(());
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {pos}")),
                }
            }
        }
        b'[' => {
            *pos += 1;
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(());
            }
            loop {
                skip_ws(b, pos);
                scan_value(b, pos, depth + 1)?;
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(&b',') => *pos += 1,
                    Some(&b']') => {
                        *pos += 1;
                        return Ok(());
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {pos}")),
                }
            }
        }
        b'"' => scan_string(b, pos),
        b't' => scan_lit(b, pos, "true"),
        b'f' => scan_lit(b, pos, "false"),
        b'n' => scan_lit(b, pos, "null"),
        b'-' | b'0'..=b'9' => scan_number(b, pos),
        other => Err(format!("unexpected byte {:?} at byte {pos}", other as char)),
    }
}

fn scan_lit(b: &[u8], pos: &mut usize, lit: &str) -> Result<(), String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(())
    } else {
        Err(format!("expected `{lit}` at byte {pos}"))
    }
}

fn scan_string(b: &[u8], pos: &mut usize) -> Result<(), String> {
    if b.get(*pos) != Some(&b'"') {
        return Err(format!("expected '\"' at byte {pos}"));
    }
    *pos += 1;
    while let Some(&c) = b.get(*pos) {
        match c {
            b'"' => {
                *pos += 1;
                return Ok(());
            }
            b'\\' => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't') => *pos += 1,
                    Some(b'u') => {
                        *pos += 1;
                        for _ in 0..4 {
                            match b.get(*pos) {
                                Some(h) if h.is_ascii_hexdigit() => *pos += 1,
                                _ => return Err(format!("bad \\u escape at byte {pos}")),
                            }
                        }
                    }
                    _ => return Err(format!("bad escape at byte {pos}")),
                }
            }
            c if c < 0x20 => {
                return Err(format!(
                    "raw control byte 0x{c:02x} in string at byte {pos}"
                ));
            }
            _ => *pos += 1,
        }
    }
    Err("unterminated string".to_string())
}

fn scan_number(b: &[u8], pos: &mut usize) -> Result<(), String> {
    let start = *pos;
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    let digits = |b: &[u8], pos: &mut usize| {
        let from = *pos;
        while matches!(b.get(*pos), Some(d) if d.is_ascii_digit()) {
            *pos += 1;
        }
        *pos > from
    };
    // Integer part: `0` alone or a non-zero digit run (no leading zeros).
    match b.get(*pos) {
        Some(b'0') => {
            *pos += 1;
            if matches!(b.get(*pos), Some(d) if d.is_ascii_digit()) {
                return Err(format!("leading zero at byte {start}"));
            }
        }
        Some(d) if d.is_ascii_digit() => {
            digits(b, pos);
        }
        _ => return Err(format!("malformed number at byte {start}")),
    }
    if b.get(*pos) == Some(&b'.') {
        *pos += 1;
        if !digits(b, pos) {
            return Err(format!("malformed number at byte {start}"));
        }
    }
    if matches!(b.get(*pos), Some(b'e' | b'E')) {
        *pos += 1;
        if matches!(b.get(*pos), Some(b'+' | b'-')) {
            *pos += 1;
        }
        if !digits(b, pos) {
            return Err(format!("malformed number at byte {start}"));
        }
    }
    Ok(())
}

/// Serializes one end-to-end [`SystemResult`](workload::SystemResult) (the `fig17_results.json`
/// schema previously produced via serde).
pub fn system_result_json(r: &workload::SystemResult) -> Json {
    let ls: Vec<Json> =
        r.ls.iter()
            .map(|m| {
                Json::obj()
                    .set("model", m.model.as_str())
                    .set("requests", m.requests)
                    .set("p99_latency_us", m.p99_latency_us)
                    .set("mean_latency_us", m.mean_latency_us)
                    .set("slo_us", m.slo_us)
                    .set("slo_attainment", m.slo_attainment)
                    .set("goodput_hz", m.goodput_hz)
            })
            .collect();
    let be: Vec<Json> = r
        .be_throughput_hz
        .iter()
        .map(|(name, hz)| {
            Json::obj()
                .set("model", name.as_str())
                .set("samples_per_s", *hz)
        })
        .collect();
    Json::obj()
        .set("system", r.system.as_str())
        .set("gpu", r.gpu.as_str())
        .set("load", r.load.as_str())
        .set("ls", Json::Arr(ls))
        .set("be_throughput_hz", Json::Arr(be))
        .set("overall_throughput_hz", r.overall_throughput_hz)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_nested_documents() {
        let doc = Json::obj()
            .set("name", "fig17 \"sweep\"")
            .set("count", 3u64)
            .set("ratio", 2.5)
            .set("whole", 4.0)
            .set("items", Json::Arr(vec![Json::Int(1), Json::Null]));
        let s = doc.pretty();
        assert!(s.contains("\"name\": \"fig17 \\\"sweep\\\"\""), "{s}");
        assert!(s.contains("\"count\": 3"), "{s}");
        assert!(s.contains("\"ratio\": 2.5"), "{s}");
        assert!(s.contains("\"whole\": 4.0"), "{s}");
        assert!(s.ends_with("}\n"), "{s}");
    }

    #[test]
    fn nan_becomes_null() {
        assert_eq!(Json::Num(f64::NAN).pretty(), "null\n");
    }

    #[test]
    fn set_overwrites() {
        let doc = Json::obj().set("a", 1u64).set("a", 2u64);
        assert!(doc.pretty().contains("\"a\": 2"));
    }

    #[test]
    fn escapes_every_special_string() {
        // Quotes, backslashes, the named control escapes and the \uXXXX
        // fallback — round-tripped through the validator so the escaped
        // form is provably parseable.
        let nasty = "q\"q b\\b n\nn t\tt r\rr nul\u{0}bel\u{7}esc\u{1b}hi\u{1f}é✓";
        let mut out = String::new();
        write_escaped(&mut out, nasty);
        assert_eq!(
            out,
            "\"q\\\"q b\\\\b n\\nn t\\tt r\\rr nul\\u0000bel\\u0007esc\\u001bhi\\u001fé✓\""
        );
        validate(&out).expect("escaped string parses");
        let doc = Json::obj().set(nasty, nasty).pretty();
        validate(&doc).expect("escaped keys and values parse");
        assert!(!doc.contains('\u{0}'), "raw control byte leaked");
    }

    #[test]
    fn validator_accepts_writer_output() {
        let doc = Json::obj()
            .set("s", "a\"b\\c\nd")
            .set("nan", f64::NAN)
            .set("neg", -2.5)
            .set("exp", 1.5e300)
            .set(
                "arr",
                Json::Arr(vec![Json::Null, Json::Bool(true), Json::obj()]),
            );
        validate(&doc.pretty()).expect("writer output is well-formed");
    }

    #[test]
    fn validator_rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\" 1}",
            "{\"a\": 1} x",
            "\"unterminated",
            "\"bad \\q escape\"",
            "\"raw \u{1} ctrl\"",
            "01",
            "1.",
            "--1",
            "nul",
        ] {
            assert!(validate(bad).is_err(), "accepted {bad:?}");
        }
    }
}

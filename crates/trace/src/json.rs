//! Hand-rolled JSON: a flat-object writer and a small recursive-descent
//! parser. The workspace deliberately carries no external dependencies,
//! so this module is what `Event::to_json`, `gcbench`'s `gc/1` writer
//! and trace report, `gcwatch`'s readers and `gcsnap`'s `snap/1` validator
//! all share.
//!
//! The writer emits objects with fields in insertion order. The parser
//! accepts the full JSON value grammar (objects, arrays, strings,
//! numbers, booleans, null) — enough to read back anything the writer
//! or the JSONL sink produced.

use std::collections::BTreeMap;

// ---------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------

/// Incremental single-object writer: `{"k":v,...}` in call order.
#[derive(Debug, Default)]
pub struct Writer {
    buf: String,
}

impl Writer {
    /// Starts an empty object.
    pub fn new() -> Self {
        Writer {
            buf: String::from("{"),
        }
    }

    fn key(&mut self, k: &str) {
        if self.buf.len() > 1 {
            self.buf.push(',');
        }
        self.buf.push('"');
        escape_into(k, &mut self.buf);
        self.buf.push_str("\":");
    }

    /// Appends a string field.
    pub fn str_field(&mut self, k: &str, v: &str) {
        self.key(k);
        self.buf.push('"');
        escape_into(v, &mut self.buf);
        self.buf.push('"');
    }

    /// Appends a signed integer field.
    pub fn int_field(&mut self, k: &str, v: i64) {
        self.key(k);
        self.buf.push_str(&v.to_string());
    }

    /// Appends an unsigned integer field.
    pub fn uint_field(&mut self, k: &str, v: u64) {
        self.key(k);
        self.buf.push_str(&v.to_string());
    }

    /// Appends a float field (finite values only; callers hold that).
    pub fn float_field(&mut self, k: &str, v: f64) {
        self.key(k);
        self.buf.push_str(&format_float(v));
    }

    /// Appends a boolean field.
    pub fn bool_field(&mut self, k: &str, v: bool) {
        self.key(k);
        self.buf.push_str(if v { "true" } else { "false" });
    }

    /// Appends a field whose value is already-serialized JSON.
    pub fn raw_field(&mut self, k: &str, json: &str) {
        self.key(k);
        self.buf.push_str(json);
    }

    /// Closes the object and returns the text.
    pub fn finish(mut self) -> String {
        self.buf.push('}');
        self.buf
    }
}

fn escape_into(s: &str, out: &mut String) {
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
}

fn format_float(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        // Keep a decimal point so the value round-trips as a float.
        format!("{v:.1}")
    } else {
        format!("{v}")
    }
}

// ---------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number; parsed as f64 (integers up to 2^53 are exact,
    /// larger trace counters never occur in practice).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object (key order not preserved).
    Obj(BTreeMap<String, JsonValue>),
}

impl JsonValue {
    /// The value as a string, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an f64, if numeric.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a u64, if it is a non-negative integral number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Num(n) if *n >= 0.0 && n.trunc() == *n => Some(*n as u64),
            _ => None,
        }
    }

    /// Member lookup on objects.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(m) => m.get(key),
            _ => None,
        }
    }
}

/// Parses a complete JSON value; trailing non-whitespace is an error.
pub fn parse(text: &str) -> Result<JsonValue, String> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    let v = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing garbage at byte {pos}"));
    }
    Ok(v)
}

/// Parses one JSON object into its member map (the JSONL-line shape).
pub fn parse_object(text: &str) -> Result<BTreeMap<String, JsonValue>, String> {
    match parse(text)? {
        JsonValue::Obj(m) => Ok(m),
        other => Err(format!("expected object, got {other:?}")),
    }
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Result<JsonValue, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'{') => {
            *pos += 1;
            let mut map = BTreeMap::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(JsonValue::Obj(map));
            }
            loop {
                skip_ws(b, pos);
                let key = match parse_value(b, pos)? {
                    JsonValue::Str(s) => s,
                    other => return Err(format!("object key must be a string, got {other:?}")),
                };
                skip_ws(b, pos);
                if b.get(*pos) != Some(&b':') {
                    return Err(format!("expected ':' at byte {pos}", pos = *pos));
                }
                *pos += 1;
                let val = parse_value(b, pos)?;
                map.insert(key, val);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(JsonValue::Obj(map));
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {pos}", pos = *pos)),
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            let mut arr = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(JsonValue::Arr(arr));
            }
            loop {
                arr.push(parse_value(b, pos)?);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(JsonValue::Arr(arr));
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {pos}", pos = *pos)),
                }
            }
        }
        Some(b'"') => parse_string(b, pos).map(JsonValue::Str),
        Some(b't') => expect_lit(b, pos, "true").map(|_| JsonValue::Bool(true)),
        Some(b'f') => expect_lit(b, pos, "false").map(|_| JsonValue::Bool(false)),
        Some(b'n') => expect_lit(b, pos, "null").map(|_| JsonValue::Null),
        Some(_) => parse_number(b, pos),
    }
}

fn expect_lit(b: &[u8], pos: &mut usize, lit: &str) -> Result<(), String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(())
    } else {
        Err(format!("invalid literal at byte {pos}", pos = *pos))
    }
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    debug_assert_eq!(b[*pos], b'"');
    *pos += 1;
    let mut out = String::new();
    loop {
        match b.get(*pos) {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let code = parse_hex4(b, *pos + 1)?;
                        *pos += 4;
                        if (0xD800..=0xDBFF).contains(&code) {
                            // High surrogate: valid external JSONL encodes
                            // astral characters as a \uXXXX\uXXXX pair.
                            // Combine it with the following low surrogate;
                            // a lone surrogate degrades to U+FFFD.
                            if b.get(*pos + 1..*pos + 3) == Some(b"\\u") {
                                let lo = parse_hex4(b, *pos + 3)?;
                                if (0xDC00..=0xDFFF).contains(&lo) {
                                    let combined =
                                        0x10000 + ((code - 0xD800) << 10) + (lo - 0xDC00);
                                    out.push(char::from_u32(combined).unwrap_or('\u{fffd}'));
                                    *pos += 6;
                                } else {
                                    // \uXXXX follows but is not a low
                                    // surrogate: the high one is lone; the
                                    // second escape is decoded on its own.
                                    out.push('\u{fffd}');
                                }
                            } else {
                                out.push('\u{fffd}');
                            }
                        } else {
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                    }
                    _ => return Err("bad escape".into()),
                }
                *pos += 1;
            }
            Some(_) => {
                // Copy the run up to the next delimiter in one step,
                // validating only the run, so parsing stays linear. Both
                // delimiters are ASCII, so the run ends on a char boundary.
                let len = b[*pos..]
                    .iter()
                    .position(|&c| c == b'"' || c == b'\\')
                    .ok_or("unterminated string")?;
                let run = std::str::from_utf8(&b[*pos..*pos + len]).map_err(|_| "invalid utf-8")?;
                out.push_str(run);
                *pos += len;
            }
        }
    }
}

fn parse_hex4(b: &[u8], at: usize) -> Result<u32, String> {
    let hex = b.get(at..at + 4).ok_or("truncated \\u escape")?;
    u32::from_str_radix(std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?, 16)
        .map_err(|_| "bad \\u escape".to_string())
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<JsonValue, String> {
    let start = *pos;
    while *pos < b.len() && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E') {
        *pos += 1;
    }
    let text = std::str::from_utf8(&b[start..*pos]).map_err(|_| "invalid number")?;
    text.parse::<f64>()
        .map(JsonValue::Num)
        .map_err(|_| format!("invalid number {text:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_and_parser_round_trip() {
        let mut w = Writer::new();
        w.str_field("name", "gawk");
        w.int_field("delta", -3);
        w.uint_field("bytes", 18_446_744_073_709_551_615 / 1024);
        w.bool_field("checked", true);
        w.float_field("ratio", 1.31);
        let text = w.finish();
        let m = parse_object(&text).expect("round trips");
        assert_eq!(m["name"].as_str(), Some("gawk"));
        assert_eq!(m["delta"].as_f64(), Some(-3.0));
        assert_eq!(m["checked"], JsonValue::Bool(true));
        assert!((m["ratio"].as_f64().unwrap() - 1.31).abs() < 1e-12);
    }

    #[test]
    fn parser_handles_nesting_and_escapes() {
        let v = parse(r#"{"a":[1,2,{"b":"x\n\"y\""}],"c":null,"d":false}"#).expect("parses");
        assert_eq!(v.get("c"), Some(&JsonValue::Null));
        match v.get("a") {
            Some(JsonValue::Arr(items)) => {
                assert_eq!(items[0].as_u64(), Some(1));
                assert_eq!(
                    items[2].get("b").and_then(JsonValue::as_str),
                    Some("x\n\"y\"")
                );
            }
            other => panic!("expected array, got {other:?}"),
        }
    }

    #[test]
    fn surrogate_pairs_combine_into_real_code_points() {
        // U+1F600 as the \uD83D\uDE00 pair, the encoding external JSONL
        // producers use for astral characters.
        let v = parse(r#"{"s":"\uD83D\uDE00"}"#).expect("parses");
        assert_eq!(v.get("s").and_then(JsonValue::as_str), Some("\u{1F600}"));
        // A pair embedded in surrounding text.
        let v = parse(r#"{"s":"a\uD83D\uDE00b"}"#).expect("parses");
        assert_eq!(v.get("s").and_then(JsonValue::as_str), Some("a\u{1F600}b"));
        // Lower-case hex digits work too.
        let v = parse(r#"{"s":"\ud83d\ude00"}"#).expect("parses");
        assert_eq!(v.get("s").and_then(JsonValue::as_str), Some("\u{1F600}"));
    }

    #[test]
    fn lone_surrogates_degrade_to_replacement_chars() {
        // Unpaired high surrogate before a plain character.
        let v = parse(r#"{"s":"\uD83Dx"}"#).expect("parses");
        assert_eq!(v.get("s").and_then(JsonValue::as_str), Some("\u{fffd}x"));
        // Unpaired low surrogate.
        let v = parse(r#"{"s":"\uDE00"}"#).expect("parses");
        assert_eq!(v.get("s").and_then(JsonValue::as_str), Some("\u{fffd}"));
        // High surrogate followed by a non-surrogate escape: the second
        // escape survives on its own.
        let v = parse(r#"{"s":"\uD83D\u0041"}"#).expect("parses");
        assert_eq!(v.get("s").and_then(JsonValue::as_str), Some("\u{fffd}A"));
        // High surrogate at end of string.
        let v = parse(r#"{"s":"\uD800"}"#).expect("parses");
        assert_eq!(v.get("s").and_then(JsonValue::as_str), Some("\u{fffd}"));
    }

    #[test]
    fn raw_multibyte_runs_beside_escapes_decode_exactly() {
        let text = "{\"kéy\\t\u{1F600}\":\"\u{e9}\u{4e2d}\\\"\u{1F600}\\n\u{df}\",\"\u{4e2d}\":\"\\u00e9\u{e9}\"}";
        let v = parse(text).expect("parses");
        assert_eq!(
            v.get("kéy\t\u{1F600}").and_then(JsonValue::as_str),
            Some("\u{e9}\u{4e2d}\"\u{1F600}\n\u{df}")
        );
        assert_eq!(
            v.get("\u{4e2d}").and_then(JsonValue::as_str),
            Some("\u{e9}\u{e9}")
        );
        assert_eq!(
            parse("{\"s\":\"ab\u{4e2d}\u{1F600}").unwrap_err(),
            "unterminated string"
        );
    }

    #[test]
    fn parser_rejects_garbage() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{\"a\":1} extra").is_err());
        assert!(parse("nul").is_err());
    }

    #[test]
    fn empty_object_and_array() {
        assert_eq!(parse("{}").unwrap(), JsonValue::Obj(BTreeMap::new()));
        assert_eq!(parse("[]").unwrap(), JsonValue::Arr(vec![]));
    }
}

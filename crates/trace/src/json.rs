//! Minimal JSON parser and validator.
//!
//! The workspace builds without a registry, so it has no serialization
//! framework and the Chrome exporter writes JSON by hand; this module is
//! the other half of that bargain — a small recursive-descent parser used
//! to round-trip exported traces and check them against the Chrome
//! `trace_event` schema (the CI trace-smoke gate and the integration
//! tests).

use std::collections::BTreeMap;

/// A parsed JSON value. Object keys keep insertion order via a Vec so that
/// `to_string` round-trips byte-identically for our own exporter output.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Look up a key in an object (None for non-objects/missing keys).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => {
                if *n == n.trunc() && n.abs() < 1e15 {
                    out.push_str(&format!("{}", *n as i64));
                } else {
                    out.push_str(&format!("{n}"));
                }
            }
            Json::Str(s) => {
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
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    Json::Str(k.clone()).write(out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

/// Compact serialization (round-trips [`parse`] output).
impl std::fmt::Display for Json {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut out = String::new();
        self.write(&mut out);
        f.write_str(&out)
    }
}

/// Parse a JSON document. Errors carry a byte offset and a short message.
pub fn parse(input: &str) -> Result<Json, String> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
    };
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
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", b as char, self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            _ => Err(format!("unexpected input at byte {}", self.pos)),
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while let Some(b) = self.peek() {
            if b.is_ascii_digit() || matches!(b, b'.' | b'e' | b'E' | b'+' | b'-') {
                self.pos += 1;
            } else {
                break;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap_or("");
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| format!("bad number at byte {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => s.push('"'),
                        Some(b'\\') => s.push('\\'),
                        Some(b'/') => s.push('/'),
                        Some(b'n') => s.push('\n'),
                        Some(b'r') => s.push('\r'),
                        Some(b't') => s.push('\t'),
                        Some(b'b') => s.push('\u{8}'),
                        Some(b'f') => s.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or("truncated \\u escape")?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| format!("bad \\u escape at byte {}", self.pos))?;
                            // Surrogates are exporter-internal never-emitted;
                            // map them to the replacement char rather than
                            // implementing full pair decoding.
                            s.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (input is a &str, so slicing
                    // at char boundaries is safe via chars()).
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| "invalid utf-8".to_string())?;
                    let c = rest.chars().next().unwrap();
                    s.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }
}

/// Validate a document against the Chrome `trace_event` JSON Object Format:
/// a top-level object with a `traceEvents` array whose entries each carry a
/// valid `ph`, string `name`, numeric `pid`/`tid`, numeric `ts` (except
/// metadata), and — for `"X"` events — a numeric non-negative `dur`.
/// Returns the list of violations (empty = valid).
pub fn validate_chrome(doc: &Json) -> Vec<String> {
    let mut problems = Vec::new();
    let Some(events) = doc.get("traceEvents").and_then(|e| e.as_array()) else {
        problems.push("missing top-level 'traceEvents' array".into());
        return problems;
    };
    let mut seen_phases: BTreeMap<String, usize> = BTreeMap::new();
    for (i, e) in events.iter().enumerate() {
        let Some(ph) = e.get("ph").and_then(|p| p.as_str()) else {
            problems.push(format!("event {i}: missing 'ph'"));
            continue;
        };
        *seen_phases.entry(ph.to_owned()).or_insert(0) += 1;
        if !matches!(ph, "X" | "B" | "E" | "M" | "C" | "i" | "I") {
            problems.push(format!("event {i}: unknown phase '{ph}'"));
        }
        if e.get("name").and_then(|n| n.as_str()).is_none() {
            problems.push(format!("event {i}: missing string 'name'"));
        }
        for key in ["pid", "tid"] {
            if e.get(key).and_then(|v| v.as_f64()).is_none() {
                problems.push(format!("event {i}: missing numeric '{key}'"));
            }
        }
        if ph != "M" && e.get("ts").and_then(|v| v.as_f64()).is_none() {
            problems.push(format!("event {i}: missing numeric 'ts'"));
        }
        if ph == "X" {
            match e.get("dur").and_then(|v| v.as_f64()) {
                Some(d) if d >= 0.0 => {}
                Some(_) => problems.push(format!("event {i}: negative 'dur'")),
                None => problems.push(format!("event {i}: 'X' event without 'dur'")),
            }
        }
    }
    problems
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars_arrays_objects() {
        assert_eq!(parse("null").unwrap(), Json::Null);
        assert_eq!(parse(" true ").unwrap(), Json::Bool(true));
        assert_eq!(parse("-1.5e2").unwrap(), Json::Num(-150.0));
        assert_eq!(parse(r#""a\"bA\n""#).unwrap(), Json::Str("a\"bA\n".into()));
        let v = parse(r#"{"a": [1, 2, {"b": false}], "c": "x"}"#).unwrap();
        assert_eq!(v.get("c").unwrap().as_str().unwrap(), "x");
        let arr = v.get("a").unwrap().as_array().unwrap();
        assert_eq!(arr[1].as_f64().unwrap(), 2.0);
        assert_eq!(arr[2].get("b").unwrap(), &Json::Bool(false));
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(parse("").is_err());
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{\"a\" 1}").is_err());
        assert!(parse("tru").is_err());
        assert!(parse("1 2").is_err());
        assert!(parse("\"open").is_err());
    }

    #[test]
    fn round_trips_compact_output() {
        let text = r#"{"displayTimeUnit":"ns","traceEvents":[{"ph":"X","name":"k \"q\"","ts":1.5,"dur":2,"pid":0,"tid":1,"args":{"bytes":4096}}]}"#;
        let v = parse(text).unwrap();
        assert_eq!(v.to_string(), text);
        assert_eq!(parse(&v.to_string()).unwrap(), v);
    }

    #[test]
    fn chrome_schema_validation() {
        let good = parse(
            r#"{"traceEvents":[
                {"ph":"M","name":"process_name","pid":0,"tid":0,"ts":0,"args":{"name":"rank 0"}},
                {"ph":"X","name":"loop","ts":0,"dur":5,"pid":0,"tid":0,"args":{}},
                {"ph":"C","name":"ctr","ts":1,"pid":0,"tid":0,"args":{"value":3}},
                {"ph":"i","name":"ev","ts":2,"s":"t","pid":0,"tid":0,"args":{}}
            ]}"#,
        )
        .unwrap();
        assert!(validate_chrome(&good).is_empty());

        let bad =
            parse(r#"{"traceEvents":[{"ph":"X","name":"a","ts":0,"pid":0,"tid":0}]}"#).unwrap();
        assert_eq!(
            validate_chrome(&bad),
            vec!["event 0: 'X' event without 'dur'"]
        );
        let bad =
            parse(r#"{"traceEvents":[{"ph":"Z","ts":0,"pid":0,"tid":0,"name":"a"}]}"#).unwrap();
        assert_eq!(validate_chrome(&bad), vec!["event 0: unknown phase 'Z'"]);
        let bad = parse(r#"{"events":[]}"#).unwrap();
        assert!(validate_chrome(&bad)[0].contains("traceEvents"));
    }
}

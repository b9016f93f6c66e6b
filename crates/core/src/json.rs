//! A tiny JSON document model with pretty and compact serializers.
//!
//! The bench harness used to derive `serde::Serialize` for its result
//! tables; the offline build environment can't fetch serde, and the needs
//! here are small (string/number/array/object), so this hand-rolled
//! writer replaces it. See `vendor/README.md`. It lives in `mics-core`
//! (rather than the bench harness that originally grew it) because it is
//! now the single encoder shared by the `results/*.json` writers *and* the
//! planner service's wire protocol: [`Json::pretty`] for artifacts on
//! disk, [`Json::emit`] for length-prefixed frames on a socket. One
//! encoder means a response served from the planner's memo cache is
//! byte-identical to one computed fresh.

use std::fmt::Write as _;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// JSON null (also what non-finite numbers serialize to).
    Null,
    /// JSON string.
    Str(String),
    /// JSON number (non-finite values serialize as `null`).
    Num(f64),
    /// JSON boolean.
    Bool(bool),
    /// JSON array.
    Arr(Vec<Json>),
    /// JSON object (insertion-ordered).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Build an object from `(key, value)` pairs.
    pub fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Build an array from anything convertible to values.
    pub fn arr<V: Into<Json>>(items: impl IntoIterator<Item = V>) -> Json {
        Json::Arr(items.into_iter().map(Into::into).collect())
    }

    /// Pretty-print with two-space indentation.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.render(&mut out, Some(0));
        out
    }

    /// Compact single-line serialization (no whitespace) — the wire form of
    /// the planner protocol. Deterministic: equal documents always emit the
    /// same bytes, which is what makes cached planner responses
    /// byte-identical to fresh ones.
    pub fn emit(&self) -> String {
        let mut out = String::new();
        self.render(&mut out, None);
        out
    }

    /// `indent` is `Some(depth)` for pretty output, `None` for compact.
    fn render(&self, out: &mut String, indent: Option<usize>) {
        let newline = |out: &mut String, depth: usize| {
            if indent.is_some() {
                out.push('\n');
                out.push_str(&"  ".repeat(depth));
            }
        };
        match self {
            Json::Null => out.push_str("null"),
            Json::Str(s) => render_string(out, s),
            Json::Num(x) => {
                if x.is_finite() {
                    // Integral values print without a trailing ".0", matching
                    // the serde_json output the results files used to have.
                    if *x == x.trunc() && x.abs() < 1e15 {
                        let _ = write!(out, "{}", *x as i64);
                    } else {
                        let _ = write!(out, "{x}");
                    }
                } else {
                    out.push_str("null");
                }
            }
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline(out, indent.unwrap_or(0) + 1);
                    v.render(out, indent.map(|d| d + 1));
                }
                newline(out, indent.unwrap_or(0));
                out.push(']');
            }
            Json::Obj(pairs) => {
                if pairs.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline(out, indent.unwrap_or(0) + 1);
                    render_string(out, k);
                    out.push_str(if indent.is_some() { ": " } else { ":" });
                    v.render(out, indent.map(|d| d + 1));
                }
                newline(out, indent.unwrap_or(0));
                out.push('}');
            }
        }
    }
}

impl std::fmt::Display for Json {
    /// `to_string()` is the compact wire encoding ([`Json::emit`]).
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.emit())
    }
}

impl Json {
    /// Parse a JSON document (the inverse of [`Json::pretty`], accepting
    /// any whitespace). Errors carry the byte offset of the problem.
    pub fn parse(text: &str) -> Result<Json, ParseError> {
        let mut p = Parser { bytes: text.as_bytes(), pos: 0 };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing data after the document"));
        }
        Ok(value)
    }

    /// Object field lookup (`None` for non-objects and missing keys).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The string contents, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// The flag, if this is a boolean (`1` or `"true"` is not one).
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

/// A parse failure: what went wrong and where.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Human-readable description.
    pub message: String,
    /// Byte offset into the input.
    pub offset: usize,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

impl std::error::Error for ParseError {}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, message: &str) -> ParseError {
        ParseError { message: message.to_string(), offset: self.pos }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), ParseError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", byte as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, ParseError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    fn value(&mut self) -> Result<Json, ParseError> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn object(&mut self) -> Result<Json, ParseError> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            pairs.push((key, self.value()?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, ParseError> {
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
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| self.err("bad \\u escape"))?;
                            // Surrogates never appear in our own output;
                            // reject rather than mis-decode them.
                            out.push(
                                char::from_u32(hex)
                                    .ok_or_else(|| self.err("\\u escape is not a scalar"))?,
                            );
                            self.pos += 4;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(b) if b < 0x20 => return Err(self.err("unescaped control character")),
                Some(b) if b < 0x80 => {
                    out.push(b as char);
                    self.pos += 1;
                }
                Some(_) => {
                    // Multibyte scalar: decode just its (≤ 4 byte) span.
                    let end = (self.pos + 4).min(self.bytes.len());
                    let rest = &self.bytes[self.pos..end];
                    let c = match std::str::from_utf8(rest) {
                        Ok(s) => s.chars().next().unwrap(),
                        Err(e) if e.valid_up_to() > 0 => {
                            std::str::from_utf8(&rest[..e.valid_up_to()])
                                .unwrap()
                                .chars()
                                .next()
                                .unwrap()
                        }
                        Err(_) => return Err(self.err("bad utf-8")),
                    };
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        let x: f64 = text
            .parse()
            .map_err(|_| ParseError { message: format!("bad number '{text}'"), offset: start })?;
        Ok(Json::Num(x))
    }
}

fn render_string(out: &mut String, s: &str) {
    out.push('"');
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
impl From<f64> for Json {
    fn from(x: f64) -> Json {
        Json::Num(x)
    }
}
impl From<f32> for Json {
    fn from(x: f32) -> Json {
        Json::Num(x as f64)
    }
}
impl From<usize> for Json {
    fn from(x: usize) -> Json {
        Json::Num(x as f64)
    }
}
impl From<u64> for Json {
    fn from(x: u64) -> Json {
        Json::Num(x as f64)
    }
}
impl From<i64> for Json {
    fn from(x: i64) -> Json {
        Json::Num(x as f64)
    }
}
impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}
impl<V: Into<Json> + Clone> From<&[V]> for Json {
    fn from(xs: &[V]) -> Json {
        Json::arr(xs.iter().cloned())
    }
}
impl<V: Into<Json>> From<Vec<V>> for Json {
    fn from(xs: Vec<V>) -> Json {
        Json::arr(xs)
    }
}

/// Types that can report themselves as a [`Json`] document.
pub trait ToJson {
    /// Convert to a JSON value.
    fn to_json(&self) -> Json;
}

impl ToJson for Json {
    fn to_json(&self) -> Json {
        self.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pretty_output_shape() {
        let doc = Json::obj([
            ("title", Json::from("t")),
            ("rows", Json::arr([1.0f64, 2.5])),
            ("empty", Json::Arr(vec![])),
        ]);
        let s = doc.pretty();
        assert!(s.starts_with("{\n  \"title\": \"t\""), "{s}");
        assert!(s.contains("\"rows\": [\n    1,\n    2.5\n  ]"), "{s}");
        assert!(s.contains("\"empty\": []"), "{s}");
        assert!(s.ends_with('}'), "{s}");
    }

    #[test]
    fn strings_are_escaped() {
        let s = Json::Str("a\"b\\c\nd".into()).pretty();
        assert_eq!(s, r#""a\"b\\c\nd""#);
    }

    #[test]
    fn emit_is_compact_and_parses_back() {
        let doc = Json::obj([
            ("title", Json::from("t")),
            ("rows", Json::arr([1.0f64, 2.5])),
            ("empty", Json::Arr(vec![])),
            ("flag", Json::from(true)),
        ]);
        let s = doc.emit();
        assert_eq!(s, r#"{"title":"t","rows":[1,2.5],"empty":[],"flag":true}"#);
        assert_eq!(Json::parse(&s).unwrap(), doc);
        // Display is the wire encoding.
        assert_eq!(doc.to_string(), s);
    }

    #[test]
    fn emit_and_pretty_agree_on_values() {
        // Same serializer core: parsing either form yields the same document.
        let doc = Json::obj([
            ("nested", Json::obj([("a", Json::from(-2.5)), ("b", Json::Null)])),
            ("arr", Json::arr(["x", "y"])),
        ]);
        assert_eq!(Json::parse(&doc.emit()).unwrap(), Json::parse(&doc.pretty()).unwrap());
    }

    #[test]
    fn emit_is_deterministic() {
        // Byte-identical output for equal documents — the property the
        // planner's cached responses rely on.
        let build =
            || Json::obj([("k", Json::arr([1.0f64, 2.0, 3.0])), ("s", Json::from("v"))]).emit();
        assert_eq!(build(), build());
    }

    #[test]
    fn non_finite_numbers_become_null() {
        assert_eq!(Json::Num(f64::NAN).pretty(), "null");
        assert_eq!(Json::Num(f64::INFINITY).pretty(), "null");
    }

    #[test]
    fn parse_round_trips_pretty_output() {
        let doc = Json::obj([
            ("title", Json::from("a \"quoted\"\nname")),
            ("ok", Json::from(true)),
            ("none", Json::Null),
            ("rows", Json::arr([1.0f64, -2.5, 3e8])),
            (
                "nested",
                Json::obj([("empty_arr", Json::Arr(vec![])), ("empty_obj", Json::Obj(vec![]))]),
            ),
        ]);
        assert_eq!(Json::parse(&doc.pretty()).unwrap(), doc);
    }

    #[test]
    fn parse_accepts_arbitrary_whitespace_and_escapes() {
        let v = Json::parse("  { \"a\\u0041\" : [ 1 ,\t2e2 , null ] }\n").unwrap();
        assert_eq!(
            v,
            Json::obj([("aA", Json::arr([Json::Num(1.0), Json::Num(200.0), Json::Null]))])
        );
    }

    #[test]
    fn parse_rejects_malformed_documents() {
        for bad in ["", "{", "[1,]", "{\"a\":}", "tru", "1 2", "\"unterminated", "{\"a\" 1}"] {
            assert!(Json::parse(bad).is_err(), "{bad:?} should not parse");
        }
        assert_eq!(Json::parse("1 2").unwrap_err().offset, 2);
    }

    #[test]
    fn accessors_navigate_documents() {
        let doc = Json::parse("{\"x\": {\"y\": [\"z\", 4]}}").unwrap();
        let arr = doc.get("x").and_then(|x| x.get("y")).and_then(Json::as_arr).unwrap();
        assert_eq!(arr[0].as_str(), Some("z"));
        assert_eq!(arr[1].as_num(), Some(4.0));
        assert_eq!(doc.get("missing"), None);
        assert_eq!(arr[0].get("x"), None);
    }
}

//! Minimal JSON: an escaping writer for responses and a recursive-descent
//! parser for the small request bodies the API accepts (`{"sql": …}`,
//! `{"name": …}`). Dependency-free by construction — the build
//! environment has no crates.io access.

use std::fmt::Write;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number (parsed as f64).
    Number(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object, preserving key order.
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Object member by key.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// String view.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::String(s) => Some(s),
            _ => None,
        }
    }

    /// Numeric view.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// Boolean view.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

/// A parse failure with a byte offset.
#[derive(Debug, Clone, PartialEq)]
pub struct JsonError {
    /// What went wrong.
    pub message: String,
    /// Byte offset into the input.
    pub offset: usize,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "json error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

/// Nesting cap: request bodies are flat; anything deeper is hostile.
const MAX_DEPTH: usize = 64;

/// Parses one JSON document (surrounding whitespace allowed).
pub fn parse(input: &str) -> Result<JsonValue, JsonError> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing data"));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, message: &str) -> JsonError {
        JsonError {
            message: message.to_string(),
            offset: self.pos,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected {:?}", b as char)))
        }
    }

    fn value(&mut self, depth: usize) -> Result<JsonValue, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => Ok(JsonValue::String(self.string()?)),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(c) => Err(self.err(&format!("unexpected {:?}", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn literal(&mut self, text: &str, value: JsonValue) -> Result<JsonValue, JsonError> {
        let rest = self.bytes.get(self.pos..).unwrap_or(&[]);
        if rest.starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected {text}")))
        }
    }

    fn number(&mut self) -> Result<JsonValue, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        // The scanned range is ASCII digits/signs by construction, but a
        // malformed frame must surface as a parse error, never a panic.
        let text = self
            .bytes
            .get(start..self.pos)
            .and_then(|b| std::str::from_utf8(b).ok())
            .ok_or_else(|| self.err("bad number"))?;
        text.parse::<f64>()
            .map(JsonValue::Number)
            .map_err(|_| self.err(&format!("bad number {text:?}")))
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.eat(b'"')?;
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
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let hi = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: require \uXXXX for the low half.
                                if self.peek() == Some(b'\\') {
                                    self.pos += 1;
                                    self.eat(b'u')?;
                                    let lo = self.hex4()?;
                                    if !(0xDC00..0xE000).contains(&lo) {
                                        return Err(self.err("invalid low surrogate"));
                                    }
                                    let cp = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                                    char::from_u32(cp)
                                        .ok_or_else(|| self.err("invalid surrogate pair"))?
                                } else {
                                    return Err(self.err("lone high surrogate"));
                                }
                            } else if (0xDC00..0xE000).contains(&hi) {
                                return Err(self.err("lone low surrogate"));
                            } else {
                                char::from_u32(hi).ok_or_else(|| self.err("bad \\u escape"))?
                            };
                            out.push(c);
                            continue; // hex4 advanced past the escape
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(c) if c < 0x20 => return Err(self.err("raw control character in string")),
                Some(_) => {
                    // Copy one UTF-8 scalar (multi-byte sequences intact).
                    let tail = self
                        .bytes
                        .get(self.pos..)
                        .ok_or_else(|| self.err("unexpected end of input"))?;
                    let rest = std::str::from_utf8(tail).map_err(|_| self.err("invalid UTF-8"))?;
                    let c = rest
                        .chars()
                        .next()
                        .ok_or_else(|| self.err("unexpected end of input"))?;
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let end = self.pos + 4;
        let quad = self
            .bytes
            .get(self.pos..end)
            .ok_or_else(|| self.err("truncated \\u escape"))?;
        let text = std::str::from_utf8(quad).map_err(|_| self.err("bad \\u escape"))?;
        let v = u32::from_str_radix(text, 16).map_err(|_| self.err("bad \\u escape"))?;
        self.pos = end;
        Ok(v)
    }

    fn object(&mut self, depth: usize) -> Result<JsonValue, JsonError> {
        self.eat(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Object(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Object(members));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<JsonValue, JsonError> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Array(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }
}

/// Appends `s` to `out` escaped for the inside of a JSON string literal
/// (quotes, backslashes, control characters): runs of clean bytes are
/// copied whole, only the bytes that need it are rewritten.
fn escape_body_into(out: &mut String, s: &str) {
    let mut clean = 0;
    for (i, b) in s.bytes().enumerate() {
        if b >= 0x20 && b != b'"' && b != b'\\' {
            continue;
        }
        // Every escaped byte is ASCII, so both cuts are char boundaries.
        out.push_str(s.get(clean..i).unwrap_or_default());
        clean = i + 1;
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            0x08 => out.push_str("\\b"),
            0x0c => out.push_str("\\f"),
            _ => {
                let _ = write!(out, "\\u{b:04x}");
            }
        }
    }
    out.push_str(s.get(clean..).unwrap_or_default());
}

/// Appends `s` to `out` as a JSON string literal, escaping quotes,
/// backslashes, and control characters. Review text goes through here on
/// every response, so it must be correct for arbitrary input.
pub fn escape_into(out: &mut String, s: &str) {
    out.push('"');
    escape_body_into(out, s);
    out.push('"');
}

/// [`escape_into`] for a value's `Display`/`Debug` rendering
/// (`format_args!("{x:?}")`), escaped as it is produced rather than
/// formatted into a temporary first.
pub fn escape_fmt_into(out: &mut String, args: std::fmt::Arguments<'_>) {
    struct Escaping<'a>(&'a mut String);
    impl Write for Escaping<'_> {
        fn write_str(&mut self, s: &str) -> std::fmt::Result {
            escape_body_into(self.0, s);
            Ok(())
        }
    }
    out.push('"');
    let _ = Escaping(out).write_fmt(args);
    out.push('"');
}

/// `s` as a standalone JSON string literal.
pub fn escaped(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    escape_into(&mut out, s);
    out
}

/// Appends an f64 in JSON-safe form: NaN and infinities (which JSON
/// cannot represent) become `null`.
pub fn push_f64(out: &mut String, x: f64) {
    if x.is_finite() {
        let _ = write!(out, "{x}");
    } else {
        out.push_str("null");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_flat_request_bodies() {
        let v = parse("{\"sql\": \"select * from hotels\", \"limit\": 5}").unwrap();
        assert_eq!(v.get("sql").unwrap().as_str(), Some("select * from hotels"));
        assert_eq!(v.get("limit").unwrap().as_f64(), Some(5.0));
        assert!(v.get("missing").is_none());
    }

    #[test]
    fn parses_nested_and_scalar_documents() {
        let v = parse("[1, -2.5, true, false, null, {\"a\": []}]").unwrap();
        let JsonValue::Array(items) = v else { panic!() };
        assert_eq!(items.len(), 6);
        assert_eq!(items[1], JsonValue::Number(-2.5));
        assert_eq!(items[4], JsonValue::Null);
    }

    #[test]
    fn escape_round_trips_through_parser() {
        // Review-shaped text: quotes, newlines, tabs, backslash, unicode,
        // control characters.
        for text in [
            "the \"best\" rooms\never",
            "tab\there \\ backslash",
            "émigré café ☕ 旅館",
            "control\u{1}char\u{1f}",
            "",
        ] {
            let doc = format!("{{\"review\": {}}}", escaped(text));
            let v = parse(&doc).unwrap_or_else(|e| panic!("{doc:?}: {e}"));
            assert_eq!(
                v.get("review").unwrap().as_str(),
                Some(text),
                "escape({text:?}) must round-trip"
            );
        }
    }

    /// The writer as it was before it copied clean runs whole: one
    /// `char` at a time, kept as the specification of the bytes.
    fn escaped_char_by_char(s: &str) -> String {
        let mut out = String::from("\"");
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                '\u{8}' => out.push_str("\\b"),
                '\u{c}' => out.push_str("\\f"),
                c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                c => out.push(c),
            }
        }
        out.push('"');
        out
    }

    #[test]
    fn run_copying_escape_writes_the_same_bytes_as_char_by_char() {
        let every_low_byte: String = (0u8..=0x7f).map(char::from).collect();
        for text in [
            "",
            "plain",
            "\"",
            "\\\\\"\"",
            "ends with a quote\"",
            "\u{1}starts with a control",
            "émigré \"café\" ☕\n旅館\u{7f}\u{80}\u{1f}",
            "Direct { attribute: 3, similarity: 0.8124 }",
            every_low_byte.as_str(),
        ] {
            assert_eq!(escaped(text), escaped_char_by_char(text), "{text:?}");
            // The same text arriving in pieces through a formatter.
            let mut streamed = String::new();
            escape_fmt_into(&mut streamed, format_args!("{}{text}{:?}", "", 1.5));
            assert_eq!(streamed, escaped_char_by_char(&format!("{text}1.5")));
        }
        #[derive(Debug)]
        #[allow(dead_code)]
        struct Quoted(&'static str, f32);
        let value = Quoted("a \"b\"\n", 0.25);
        let mut streamed = String::new();
        escape_fmt_into(&mut streamed, format_args!("{value:?}"));
        assert_eq!(streamed, escaped(&format!("{value:?}")));
    }

    #[test]
    fn unicode_escapes_and_surrogate_pairs() {
        let v = parse("\"caf\\u00e9 \\ud83d\\ude00\"").unwrap();
        assert_eq!(v.as_str(), Some("café 😀"));
        assert!(parse("\"\\ud83d\"").is_err(), "lone high surrogate");
        assert!(parse("\"\\ude00\"").is_err(), "lone low surrogate");
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "{\"a\": }",
            "{\"a\": 1,}",
            "[1, 2",
            "\"unterminated",
            "{\"a\": 1} trailing",
            "nul",
            "0x10",
            "\"raw\ncontrol\"",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} must fail");
        }
    }

    #[test]
    fn depth_limit_stops_hostile_nesting() {
        let deep = format!("{}1{}", "[".repeat(200), "]".repeat(200));
        assert!(parse(&deep).is_err());
    }

    #[test]
    fn push_f64_is_json_safe() {
        let mut s = String::new();
        push_f64(&mut s, 0.25);
        s.push(' ');
        push_f64(&mut s, f64::NAN);
        s.push(' ');
        push_f64(&mut s, f64::INFINITY);
        assert_eq!(s, "0.25 null null");
        for x in [
            0.0,
            -0.0,
            1.0,
            0.1 + 0.2,
            1e-7,
            1e21,
            f64::MIN_POSITIVE,
            -123.456,
        ] {
            let mut s = String::new();
            push_f64(&mut s, x);
            assert_eq!(s, format!("{x}"));
        }
    }
}

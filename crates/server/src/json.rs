//! Minimal JSON: an escaping writer for responses and a recursive-descent
//! parser for the small request bodies the API accepts (`{"sql": …}`,
//! `{"name": …}`). Dependency-free by construction — the build
//! environment has no crates.io access. The writer is `opine-store`'s,
//! re-exported: a frozen table renders its cells with the same
//! [`push_value`] that formats every other served value.

pub use opine_store::json::{escape_fmt_into, escape_into, push_f64, push_value};

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
        text: input,
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
    text: &'a str,
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
                    // Copy the run up to the next quote, backslash or
                    // control byte as one slice. All three are ASCII, so
                    // the run ends on a char boundary of the input.
                    let start = self.pos;
                    while self
                        .peek()
                        .is_some_and(|c| c != b'"' && c != b'\\' && c >= 0x20)
                    {
                        self.pos += 1;
                    }
                    let run = self.text.get(start..self.pos);
                    out.push_str(run.ok_or_else(|| self.err("invalid UTF-8"))?);
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

/// `s` as a standalone JSON string literal.
pub fn escaped(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    escape_into(&mut out, s);
    out
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

    /// The string decoder as it was before it copied unescaped runs
    /// whole: one scalar at a time, each found by validating the whole
    /// rest of the input. Kept as the specification of the result.
    fn string_per_char(p: &mut Parser<'_>) -> Result<String, JsonError> {
        p.eat(b'"')?;
        let mut out = String::new();
        loop {
            match p.peek() {
                None => return Err(p.err("unterminated string")),
                Some(b'"') => {
                    p.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    p.pos += 1;
                    match p.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            p.pos += 1;
                            let hi = p.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&hi) {
                                if p.peek() == Some(b'\\') {
                                    p.pos += 1;
                                    p.eat(b'u')?;
                                    let lo = p.hex4()?;
                                    if !(0xDC00..0xE000).contains(&lo) {
                                        return Err(p.err("invalid low surrogate"));
                                    }
                                    let cp = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                                    char::from_u32(cp)
                                        .ok_or_else(|| p.err("invalid surrogate pair"))?
                                } else {
                                    return Err(p.err("lone high surrogate"));
                                }
                            } else if (0xDC00..0xE000).contains(&hi) {
                                return Err(p.err("lone low surrogate"));
                            } else {
                                char::from_u32(hi).ok_or_else(|| p.err("bad \\u escape"))?
                            };
                            out.push(c);
                            continue;
                        }
                        _ => return Err(p.err("bad escape")),
                    }
                    p.pos += 1;
                }
                Some(c) if c < 0x20 => return Err(p.err("raw control character in string")),
                Some(_) => {
                    let tail = p
                        .bytes
                        .get(p.pos..)
                        .ok_or_else(|| p.err("unexpected end of input"))?;
                    let rest = std::str::from_utf8(tail).map_err(|_| p.err("invalid UTF-8"))?;
                    let c = rest
                        .chars()
                        .next()
                        .ok_or_else(|| p.err("unexpected end of input"))?;
                    out.push(c);
                    p.pos += c.len_utf8();
                }
            }
        }
    }

    fn parser(input: &str) -> Parser<'_> {
        Parser {
            text: input,
            bytes: input.as_bytes(),
            pos: 0,
        }
    }

    /// Seeded string literals — plain runs, every escape, `\u` escapes
    /// in and out of the BMP (surrogate pairs), raw multibyte scalars,
    /// and now and then a defect (a raw control byte, a lone surrogate,
    /// a bad escape, a missing closing quote) — decode to the same
    /// string, or fail with the same error at the same offset, as the
    /// per-scalar decoder.
    #[test]
    fn run_copying_decoder_equals_the_per_scalar_decoder() {
        const PIECES: [&str; 22] = [
            "plain ",
            "rooms",
            "\\\"",
            "\\\\",
            "\\/",
            "\\b",
            "\\f",
            "\\n",
            "\\r",
            "\\t",
            "\\u00e9",
            "\\u65c5",
            "\\ud83d\\ude00",
            "\\uD834\\uDD1E",
            "é",
            "旅館",
            "😀",
            "\u{7f}",
            "\u{1}",
            "\\ud83d",
            "\\ude00",
            "\\x",
        ];
        let mut state = 0x5DEE_CE66_D1CE_4E5B_u64;
        let mut next = move |n: usize| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as usize % n
        };
        let (mut decoded, mut failed) = (0, 0);
        for _ in 0..2_000 {
            let mut literal = String::from("\"");
            for _ in 0..next(12) {
                // The last four pieces are defects: rarer than the rest.
                let piece = match next(8) {
                    0 => PIECES[PIECES.len() - 1 - next(4)],
                    _ => PIECES[next(PIECES.len() - 4)],
                };
                literal.push_str(piece);
            }
            if next(16) != 0 {
                literal.push('"');
            }
            let (mut run, mut per_char) = (parser(&literal), parser(&literal));
            let want = string_per_char(&mut per_char);
            assert_eq!(run.string(), want, "{literal:?}");
            assert_eq!(run.pos, per_char.pos, "{literal:?}");
            match want {
                Ok(_) => decoded += 1,
                Err(_) => failed += 1,
            }
        }
        assert!(
            decoded > 500 && failed > 100,
            "{decoded} decoded, {failed} failed"
        );
    }

    /// A 1 MiB string (the default body cap) parses in linear time. The
    /// per-scalar decoder validated the rest of the input at every
    /// scalar, ≈ 17 s for this input in a release build; the run copy
    /// takes milliseconds.
    #[test]
    fn a_one_mib_string_parses_in_linear_time() {
        let text = "spotless rooms, très calme — 旅館 ".repeat(1 << 14);
        let body = format!("{{\"review\": \"{text}\\n{text}\"}}");
        assert!(body.len() >= 1 << 20);
        let started = std::time::Instant::now();
        let parsed = parse(&body).unwrap();
        let elapsed = started.elapsed();
        assert_eq!(
            parsed.get("review").unwrap().as_str(),
            Some(format!("{text}\n{text}").as_str())
        );
        assert!(elapsed.as_secs_f64() < 1.0, "{elapsed:?}");
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

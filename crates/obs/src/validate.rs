//! A minimal JSON parser, for validating what the exporters emit.
//!
//! The workspace cannot pull a registry parser, and the exporters'
//! correctness claim — "the trace file loads in Perfetto" — needs a
//! machine check in tests and CI, not a human with a browser. This is
//! a strict RFC 8259 recursive-descent parser producing the same
//! [`Json`] values the encoder consumes, so `parse(encode(x)) == x`
//! holds for integer/string/container documents. (Floats may parse
//! back as integers when their decimal rendering has no fraction;
//! validation cares about well-formedness, not type round-tripping.)

use spur_harness::Json;

/// Deepest array/object nesting [`parse`] accepts. The parser recurses
/// once per level, so an unbounded depth would let one small document
/// (`"[" × 100 000`) overflow the stack; the deepest document the
/// workspace writes nests well under ten levels.
pub(crate) const MAX_DEPTH: usize = 128;

/// Where and why parsing failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset of the failure.
    pub pos: usize,
    /// What was wrong.
    pub msg: String,
}

impl core::fmt::Display for ParseError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "JSON parse error at byte {}: {}", self.pos, self.msg)
    }
}

/// Parses a complete JSON document. Trailing non-whitespace is an
/// error.
pub fn parse(input: &str) -> Result<Json, ParseError> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after document"));
    }
    Ok(value)
}

/// Looks up `key` in an object, returning the first match.
pub fn get_field<'a>(value: &'a Json, key: &str) -> Option<&'a Json> {
    match value {
        Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Containers currently open around `pos`.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: impl Into<String>) -> ParseError {
        ParseError {
            pos: self.pos,
            msg: msg.into(),
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

    fn expect(&mut self, b: u8) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, ParseError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(format!("expected '{word}'")))
        }
    }

    fn value(&mut self) -> Result<Json, ParseError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(c) => Err(self.err(format!("unexpected character '{}'", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    /// Parses one container one level deeper, refusing past
    /// [`MAX_DEPTH`].
    fn nested(
        &mut self,
        container: fn(&mut Self) -> Result<Json, ParseError>,
    ) -> Result<Json, ParseError> {
        if self.depth == MAX_DEPTH {
            return Err(self.err(format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        let value = container(self);
        self.depth -= 1;
        value
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
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, ParseError> {
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
                _ => return Err(self.err("expected ',' or '}' in object")),
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
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let cp = self.hex4()?;
                            let c = if (0xd800..0xdc00).contains(&cp) {
                                // High surrogate: a \uXXXX low half must
                                // follow.
                                if self.bytes[self.pos..].starts_with(b"\\u") {
                                    self.pos += 2;
                                    let lo = self.hex4()?;
                                    if !(0xdc00..0xe000).contains(&lo) {
                                        return Err(self.err("invalid low surrogate"));
                                    }
                                    let combined = 0x10000 + ((cp - 0xd800) << 10) + (lo - 0xdc00);
                                    char::from_u32(combined)
                                } else {
                                    return Err(self.err("unpaired high surrogate"));
                                }
                            } else {
                                char::from_u32(cp)
                            };
                            match c {
                                Some(c) => out.push(c),
                                None => return Err(self.err("invalid unicode escape")),
                            }
                            continue; // hex4 already advanced past the digits
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(b) if b < 0x80 => {
                    if b < 0x20 {
                        return Err(self.err("unescaped control character"));
                    }
                    out.push(b as char);
                    self.pos += 1;
                }
                Some(b) => {
                    // Consume one multi-byte UTF-8 character. The input
                    // arrived as &str, so boundaries are sound and the
                    // lead byte determines the length — decode just
                    // those bytes, never the whole remaining buffer.
                    let len = match b {
                        0xc0..=0xdf => 2,
                        0xe0..=0xef => 3,
                        _ => 4,
                    };
                    let end = (self.pos + len).min(self.bytes.len());
                    let s = core::str::from_utf8(&self.bytes[self.pos..end])
                        .map_err(|_| self.err("invalid UTF-8"))?;
                    let c = s.chars().next().ok_or_else(|| self.err("invalid UTF-8"))?;
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, ParseError> {
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return Err(self.err("truncated \\u escape"));
        }
        let digits = core::str::from_utf8(&self.bytes[self.pos..end])
            .map_err(|_| self.err("invalid \\u escape"))?;
        let cp = u32::from_str_radix(digits, 16).map_err(|_| self.err("invalid \\u escape"))?;
        self.pos = end;
        Ok(cp)
    }

    fn number(&mut self) -> Result<Json, ParseError> {
        let start = self.pos;
        let negative = self.peek() == Some(b'-');
        if negative {
            self.pos += 1;
        }
        // Integer part: a lone 0, or a nonzero digit run (no leading
        // zeros, per RFC 8259).
        match self.peek() {
            Some(b'0') => self.pos += 1,
            Some(b'1'..=b'9') => {
                while matches!(self.peek(), Some(b'0'..=b'9')) {
                    self.pos += 1;
                }
            }
            _ => return Err(self.err("expected digit")),
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.err("expected digit after '.'"));
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.err("expected digit in exponent"));
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = core::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        if !is_float {
            if negative {
                if let Ok(i) = text.parse::<i64>() {
                    return Ok(Json::Int(i));
                }
            } else if let Ok(u) = text.parse::<u64>() {
                return Ok(Json::UInt(u));
            }
        }
        text.parse::<f64>()
            .map(Json::Float)
            .map_err(|_| self.err("invalid number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_round_trip() {
        assert_eq!(parse("null"), Ok(Json::Null));
        assert_eq!(parse(" true "), Ok(Json::Bool(true)));
        assert_eq!(parse("false"), Ok(Json::Bool(false)));
        assert_eq!(parse("0"), Ok(Json::UInt(0)));
        assert_eq!(parse("42"), Ok(Json::UInt(42)));
        assert_eq!(parse("-42"), Ok(Json::Int(-42)));
        assert_eq!(parse("18446744073709551615"), Ok(Json::UInt(u64::MAX)));
        assert_eq!(parse("-9223372036854775808"), Ok(Json::Int(i64::MIN)));
        assert_eq!(parse("1.5"), Ok(Json::Float(1.5)));
        assert_eq!(parse("1e3"), Ok(Json::Float(1000.0)));
        assert_eq!(parse("-2.5e-1"), Ok(Json::Float(-0.25)));
    }

    #[test]
    fn strings_unescape() {
        assert_eq!(parse(r#""plain""#), Ok(Json::from("plain")));
        assert_eq!(parse(r#""a\"b\\c\/d""#), Ok(Json::from("a\"b\\c/d")));
        assert_eq!(parse(r#""\n\t\r\b\f""#), Ok(Json::from("\n\t\r\u{8}\u{c}")));
        assert_eq!(parse(r#""\u0041""#), Ok(Json::from("A")));
        assert_eq!(parse(r#""\ud83d\ude00""#), Ok(Json::from("😀")));
        assert_eq!(parse("\"π\""), Ok(Json::from("π")));
    }

    #[test]
    fn containers_preserve_order() {
        let doc = r#"{"b": 1, "a": [true, null, {"k": "v"}]}"#;
        let expected = Json::object([
            ("b", Json::from(1u64)),
            (
                "a",
                Json::array([
                    Json::Bool(true),
                    Json::Null,
                    Json::object([("k", Json::from("v"))]),
                ]),
            ),
        ]);
        assert_eq!(parse(doc), Ok(expected));
        assert_eq!(parse("[]"), Ok(Json::array([])));
        assert_eq!(parse("{}"), Ok(Json::object(Vec::<(String, Json)>::new())));
    }

    #[test]
    fn encoder_output_round_trips() {
        let doc = Json::object([
            ("n", Json::from(u64::MAX)),
            ("i", Json::from(-5i64)),
            ("s", Json::from("say \"hi\"\n")),
            ("arr", Json::array([Json::Null, Json::from(true)])),
            ("obj", Json::object([("nested", Json::from(0u64))])),
        ]);
        assert_eq!(parse(&doc.encode()), Ok(doc.clone()));
        assert_eq!(parse(&doc.encode_pretty()), Ok(doc));
    }

    #[test]
    fn malformed_documents_are_rejected() {
        for bad in [
            "",
            "nul",
            "{",
            "[1,]",
            "{\"k\":}",
            "{\"k\" 1}",
            "\"unterminated",
            "01",
            "1.",
            "1e",
            "--1",
            "[1] trailing",
            "\"bad \u{1} control\"",
            "\"\\ud800\"",
            "\"\\q\"",
        ] {
            assert!(parse(bad).is_err(), "accepted malformed input: {bad:?}");
        }
    }

    #[test]
    fn nesting_is_capped_at_max_depth() {
        let arrays = |n: usize| "[".repeat(n) + &"]".repeat(n);
        let objects = |n: usize| r#"{"k":"#.repeat(n) + "0" + &"}".repeat(n);
        assert!(parse(&arrays(MAX_DEPTH)).is_ok());
        assert!(parse(&objects(MAX_DEPTH)).is_ok());
        for deep in [arrays(MAX_DEPTH + 1), objects(MAX_DEPTH + 1)] {
            let err = parse(&deep).unwrap_err();
            assert!(err.msg.contains("nesting deeper than"), "{err}");
        }
        // Arrays and objects count toward the same limit.
        assert!(parse(&format!("[{}]", objects(MAX_DEPTH))).is_err());
        // A document far past the limit fails without recursing into it.
        assert!(parse(&"[".repeat(100_000)).is_err());
    }

    #[test]
    fn get_field_finds_keys() {
        let doc = parse(r#"{"a": 1, "b": {"c": 2}}"#).unwrap();
        assert_eq!(get_field(&doc, "a"), Some(&Json::UInt(1)));
        let b = get_field(&doc, "b").unwrap();
        assert_eq!(get_field(b, "c"), Some(&Json::UInt(2)));
        assert_eq!(get_field(&doc, "missing"), None);
        assert_eq!(get_field(&Json::Null, "a"), None);
    }
}

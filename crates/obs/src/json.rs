//! A minimal, deterministic JSON value model with a writer and a
//! recursive-descent parser.
//!
//! The vendored `serde_json` substitute only (de)serializes concrete derived
//! types; the trace exporters need a dynamic document model (heterogeneous
//! `args` maps, validation of externally produced files), so this module
//! provides one. Object member order is preserved as inserted, which keeps
//! exports byte-stable across same-seed runs.

use std::fmt::Write as _;

/// A JSON document node.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer (serialized without a decimal point).
    Int(i64),
    /// A non-integer number.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object; member order is preserved (not sorted).
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Serialize to compact JSON text.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            JsonValue::Int(i) => {
                let _ = write!(out, "{i}");
            }
            JsonValue::Float(f) => {
                if f.is_finite() {
                    let _ = write!(out, "{f}");
                } else {
                    out.push_str("null");
                }
            }
            JsonValue::Str(s) => write_escaped(out, s),
            JsonValue::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            JsonValue::Obj(members) => {
                out.push('{');
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(out, k);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    /// Look up an object member by key (first match); `None` on non-objects.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The array items, if this is an array.
    pub fn as_arr(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The string contents, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an `i64`, if it is an integral number.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            JsonValue::Int(i) => Some(*i),
            JsonValue::Float(f) if f.fract() == 0.0 && f.abs() < 9e15 => Some(*f as i64),
            _ => None,
        }
    }

    /// Parse JSON text. Rejects trailing garbage.
    pub fn parse(text: &str) -> Result<JsonValue, JsonError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let value = p.value(0)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after document"));
        }
        Ok(value)
    }
}

fn write_escaped(out: &mut String, s: &str) {
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

/// A parse failure with a byte offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the failure.
    pub at: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "json error at byte {}: {}", self.at, self.message)
    }
}
impl std::error::Error for JsonError {}

/// Nesting depth guard (a parser for trace files, not adversarial input —
/// but it must not blow the stack either way).
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: &str) -> JsonError {
        JsonError {
            at: self.pos,
            message: message.to_string(),
        }
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
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

    fn eat(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected {:?}", b as char)))
        }
    }

    fn eat_keyword(&mut self, word: &str) -> Result<(), JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(())
        } else {
            Err(self.err(&format!("expected {word:?}")))
        }
    }

    fn value(&mut self, depth: usize) -> Result<JsonValue, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'n') => self.eat_keyword("null").map(|_| JsonValue::Null),
            Some(b't') => self.eat_keyword("true").map(|_| JsonValue::Bool(true)),
            Some(b'f') => self.eat_keyword("false").map(|_| JsonValue::Bool(false)),
            Some(b'"') => self.string().map(JsonValue::Str),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(b'-') | Some(b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn array(&mut self, depth: usize) -> Result<JsonValue, JsonError> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<JsonValue, JsonError> {
        self.eat(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Obj(members));
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
                    return Ok(JsonValue::Obj(members));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
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
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{0008}'),
                        Some(b'f') => out.push('\u{000c}'),
                        Some(b'u') => {
                            let cp = self.unicode_escape()?;
                            out.push(cp);
                            continue;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 character (input is a &str, so the
                    // bytes are valid UTF-8 by construction).
                    let rest = &self.bytes[self.pos..];
                    let s = std::str::from_utf8(rest).map_err(|_| self.err("invalid utf-8"))?;
                    let c = s.chars().next().unwrap();
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    /// Parse the `XXXX` of a `\uXXXX` escape (cursor on the `u`), including
    /// surrogate pairs.
    fn unicode_escape(&mut self) -> Result<char, JsonError> {
        let unit = self.hex4()?;
        if (0xD800..0xDC00).contains(&unit) {
            // High surrogate: require a following \uXXXX low surrogate.
            self.eat(b'\\')?;
            let low = self.hex4()?;
            if !(0xDC00..0xE000).contains(&low) {
                return Err(self.err("unpaired surrogate"));
            }
            let cp = 0x10000 + ((unit - 0xD800) << 10) + (low - 0xDC00);
            char::from_u32(cp).ok_or_else(|| self.err("bad surrogate pair"))
        } else if (0xDC00..0xE000).contains(&unit) {
            Err(self.err("unpaired low surrogate"))
        } else {
            char::from_u32(unit).ok_or_else(|| self.err("bad codepoint"))
        }
    }

    /// Consume `uXXXX` (cursor on the `u`); returns the code unit and leaves
    /// the cursor after the last hex digit.
    fn hex4(&mut self) -> Result<u32, JsonError> {
        self.eat(b'u')?;
        let mut v = 0u32;
        for _ in 0..4 {
            let d = self
                .peek()
                .and_then(|b| (b as char).to_digit(16))
                .ok_or_else(|| self.err("expected 4 hex digits"))?;
            v = v * 16 + d;
            self.pos += 1;
        }
        Ok(v)
    }

    fn number(&mut self) -> Result<JsonValue, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e') | Some(b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+') | Some(b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number"))?;
        if !is_float {
            if let Ok(i) = text.parse::<i64>() {
                return Ok(JsonValue::Int(i));
            }
        }
        text.parse::<f64>()
            .map(JsonValue::Float)
            .map_err(|_| self.err("invalid number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(v: &JsonValue) -> JsonValue {
        JsonValue::parse(&v.render()).unwrap()
    }

    #[test]
    fn scalars_roundtrip() {
        for v in [
            JsonValue::Null,
            JsonValue::Bool(true),
            JsonValue::Bool(false),
            JsonValue::Int(0),
            JsonValue::Int(-42),
            JsonValue::Int(i64::MAX),
            JsonValue::Float(1.5),
            JsonValue::Str("plain".into()),
            JsonValue::Str("quo\"te \\ back\nnew\ttab".into()),
            JsonValue::Str("unicode: åäö 🚀 \u{1}".into()),
        ] {
            assert_eq!(roundtrip(&v), v, "value {v:?}");
        }
    }

    #[test]
    fn containers_roundtrip_and_preserve_order() {
        let v = JsonValue::Obj(vec![
            ("zeta".into(), JsonValue::Arr(vec![JsonValue::Int(1)])),
            ("alpha".into(), JsonValue::Obj(vec![])),
        ]);
        let text = v.render();
        assert!(text.find("zeta").unwrap() < text.find("alpha").unwrap());
        assert_eq!(roundtrip(&v), v);
    }

    #[test]
    fn parses_whitespace_and_escapes() {
        let v = JsonValue::parse(" { \"a\" : [ 1 , \"\\u0041\\u00e5\" , null ] } ").unwrap();
        assert_eq!(
            v.get("a").unwrap().as_arr().unwrap()[1].as_str().unwrap(),
            "Aå"
        );
    }

    #[test]
    fn parses_surrogate_pair() {
        let v = JsonValue::parse("\"\\ud83d\\ude80\"").unwrap();
        assert_eq!(v.as_str().unwrap(), "🚀");
    }

    #[test]
    fn rejects_garbage() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\":}",
            "tru",
            "1 2",
            "\"\\q\"",
            "\"\\ud83d\"",
        ] {
            assert!(JsonValue::parse(bad).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn accessors() {
        let v = JsonValue::parse("{\"n\":3,\"s\":\"x\",\"f\":2.0}").unwrap();
        assert_eq!(v.get("n").unwrap().as_int(), Some(3));
        assert_eq!(v.get("f").unwrap().as_int(), Some(2));
        assert_eq!(v.get("s").unwrap().as_str(), Some("x"));
        assert!(v.get("missing").is_none());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// The parser never panics on arbitrary input.
        #[test]
        fn parser_never_panics(s in "\\PC{0,256}") {
            let _ = JsonValue::parse(&s);
        }

        /// Arbitrary strings survive a render/parse round trip.
        #[test]
        fn strings_roundtrip(s in "\\PC{0,128}") {
            let v = JsonValue::Str(s.clone());
            prop_assert_eq!(JsonValue::parse(&v.render()).unwrap(), v);
        }
    }
}

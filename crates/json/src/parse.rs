//! Recursive-descent JSON parser (RFC 8259) with positioned errors and a
//! nesting-depth limit.

use crate::value::Value;
use std::fmt;

/// Maximum nesting depth accepted by the parser (defence against stack
/// exhaustion from adversarial input).
pub const MAX_DEPTH: usize = 128;

/// A parse failure with byte offset and a human-readable reason.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset into the input where the error was detected.
    pub offset: usize,
    /// What went wrong.
    pub reason: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "JSON parse error at byte {}: {}",
            self.offset, self.reason
        )
    }
}

impl std::error::Error for ParseError {}

/// Parses a complete JSON document. Trailing non-whitespace is an error.
pub fn from_str(input: &str) -> Result<Value, ParseError> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after document"));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, reason: &str) -> ParseError {
        ParseError {
            offset: self.pos,
            reason: reason.to_string(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), ParseError> {
        match self.bump() {
            Some(got) if got == b => Ok(()),
            Some(got) => {
                self.pos -= 1;
                Err(self.err(&format!(
                    "expected '{}', found '{}'",
                    b as char, got as char
                )))
            }
            None => Err(self.err(&format!("expected '{}', found end of input", b as char))),
        }
    }

    fn literal(&mut self, word: &str, value: Value) -> Result<Value, ParseError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("invalid literal, expected '{word}'")))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Value, ParseError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => Ok(Value::String(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(c) => Err(self.err(&format!("unexpected character '{}'", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn object(&mut self, depth: usize) -> Result<Value, ParseError> {
        self.expect(b'{')?;
        // Members in text order; the `Map` sorts them once at the end.
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::object());
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value(depth + 1)?;
            members.push((key, val));
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b'}') => return Ok(Value::Object(members.into_iter().collect())),
                _ => {
                    self.pos = self.pos.saturating_sub(1);
                    return Err(self.err("expected ',' or '}' in object"));
                }
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<Value, ParseError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b']') => return Ok(Value::Array(items)),
                _ => {
                    self.pos = self.pos.saturating_sub(1);
                    return Err(self.err("expected ',' or ']' in array"));
                }
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.bump() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => return Ok(out),
                Some(b'\\') => match self.bump() {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'b') => out.push('\u{0008}'),
                    Some(b'f') => out.push('\u{000C}'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let hi = self.hex4()?;
                        let ch = if (0xD800..0xDC00).contains(&hi) {
                            // High surrogate: require a following \uXXXX low half.
                            if self.bump() != Some(b'\\') || self.bump() != Some(b'u') {
                                return Err(self.err("unpaired surrogate"));
                            }
                            let lo = self.hex4()?;
                            if !(0xDC00..0xE000).contains(&lo) {
                                return Err(self.err("invalid low surrogate"));
                            }
                            let c = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                            char::from_u32(c).ok_or_else(|| self.err("invalid surrogate pair"))?
                        } else if (0xDC00..0xE000).contains(&hi) {
                            return Err(self.err("unpaired low surrogate"));
                        } else {
                            char::from_u32(hi).ok_or_else(|| self.err("invalid codepoint"))?
                        };
                        out.push(ch);
                    }
                    _ => return Err(self.err("invalid escape sequence")),
                },
                Some(c) if c < 0x20 => return Err(self.err("unescaped control character")),
                Some(c) if c < 0x80 => out.push(c as char),
                Some(first) => {
                    // Multi-byte UTF-8: the input is a &str so it is valid;
                    // re-decode the sequence starting at `first`.
                    let len = match first {
                        0xC0..=0xDF => 2,
                        0xE0..=0xEF => 3,
                        0xF0..=0xF7 => 4,
                        _ => return Err(self.err("invalid UTF-8 lead byte")),
                    };
                    let start = self.pos - 1;
                    let end = start + len;
                    if end > self.bytes.len() {
                        return Err(self.err("truncated UTF-8 sequence"));
                    }
                    let s = std::str::from_utf8(&self.bytes[start..end])
                        .map_err(|_| self.err("invalid UTF-8 sequence"))?;
                    out.push_str(s);
                    self.pos = end;
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, ParseError> {
        let mut v = 0u32;
        for _ in 0..4 {
            let b = self
                .bump()
                .ok_or_else(|| self.err("truncated \\u escape"))?;
            let d = (b as char)
                .to_digit(16)
                .ok_or_else(|| self.err("invalid hex digit in \\u escape"))?;
            v = v * 16 + d;
        }
        Ok(v)
    }

    fn number(&mut self) -> Result<Value, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        // Integer part: '0' alone or a non-zero digit run.
        match self.peek() {
            Some(b'0') => {
                self.pos += 1;
                if matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                    return Err(self.err("leading zero in number"));
                }
            }
            Some(c) if c.is_ascii_digit() => {
                while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                    self.pos += 1;
                }
            }
            _ => return Err(self.err("invalid number")),
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            if !matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                return Err(self.err("digit required after decimal point"));
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if !matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                return Err(self.err("digit required in exponent"));
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii number");
        let n: f64 = text.parse().map_err(|_| self.err("number out of range"))?;
        if !n.is_finite() {
            return Err(self.err("number overflows f64"));
        }
        Ok(Value::Number(n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(from_str("null").unwrap(), Value::Null);
        assert_eq!(from_str("true").unwrap(), Value::Bool(true));
        assert_eq!(from_str("false").unwrap(), Value::Bool(false));
        assert_eq!(from_str("42").unwrap(), Value::Number(42.0));
        assert_eq!(from_str("-3.25e2").unwrap(), Value::Number(-325.0));
        assert_eq!(from_str("\"hi\"").unwrap(), Value::String("hi".into()));
    }

    #[test]
    fn parses_nested_document() {
        let doc = r#"
        {
          "video_id": "qjT4T2gU9sM",
          "formats": [
            {"itag": 22, "quality": "720p", "size": 123456789},
            {"itag": 18, "quality": "360p", "size": 45678901}
          ],
          "copyrighted": false,
          "token": null
        }"#;
        let v = from_str(doc).unwrap();
        assert_eq!(
            v.get("video_id").and_then(Value::as_str),
            Some("qjT4T2gU9sM")
        );
        let f0 = v.get("formats").and_then(|f| f.at(0)).unwrap();
        assert_eq!(f0.get("itag").and_then(Value::as_u64), Some(22));
        assert!(v.get("token").unwrap().is_null());
    }

    #[test]
    fn string_escapes() {
        let v = from_str(r#""a\"b\\c\/d\n\tAé""#).unwrap();
        assert_eq!(v.as_str(), Some("a\"b\\c/d\n\tA\u{e9}"));
    }

    #[test]
    fn surrogate_pairs() {
        // U+1D11E MUSICAL SYMBOL G CLEF
        let v = from_str(r#""𝄞""#).unwrap();
        assert_eq!(v.as_str(), Some("\u{1D11E}"));
    }

    #[test]
    fn unpaired_surrogate_is_error() {
        assert!(from_str(r#""\ud834""#).is_err());
        assert!(from_str(r#""\udd1e""#).is_err());
    }

    #[test]
    fn utf8_passthrough() {
        let v = from_str("\"héllo wörld ✓\"").unwrap();
        assert_eq!(v.as_str(), Some("héllo wörld ✓"));
    }

    #[test]
    fn rejects_malformed() {
        for bad in [
            "", "{", "}", "[1,", "{\"a\":}", "01", "1.", "1e", "+1", "'x'", "tru", "[1] junk",
            "\"\x01\"", "{a:1}",
        ] {
            assert!(from_str(bad).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn error_carries_offset() {
        let err = from_str("[1, @]").unwrap_err();
        assert_eq!(err.offset, 4);
        assert!(err.to_string().contains("byte 4"));
    }

    #[test]
    fn depth_limit_enforced() {
        let deep = "[".repeat(MAX_DEPTH + 2) + &"]".repeat(MAX_DEPTH + 2);
        let err = from_str(&deep).unwrap_err();
        assert!(err.reason.contains("deep"));
        let ok = "[".repeat(MAX_DEPTH) + &"]".repeat(MAX_DEPTH);
        assert!(from_str(&ok).is_ok());
    }

    #[test]
    fn whitespace_everywhere() {
        let v = from_str(" \t\r\n{ \"a\" : [ 1 , 2 ] } \n").unwrap();
        assert_eq!(
            v.get("a").and_then(|a| a.at(1)).and_then(Value::as_f64),
            Some(2.0)
        );
    }

    #[test]
    fn duplicate_keys_last_wins() {
        let v = from_str(r#"{"k": 1, "k": 2}"#).unwrap();
        assert_eq!(v.get("k").and_then(Value::as_f64), Some(2.0));
    }

    #[test]
    fn members_are_sorted_by_key_whatever_the_text_order() {
        let v = from_str(r#"{"b": 1, "é": 2, "a": {"z": 3, "y": 4}, "B": 5}"#).unwrap();
        assert_eq!(
            v.get("a").and_then(|a| a.get("y")),
            Some(&Value::Number(4.0))
        );
        assert_eq!(v.get("B"), Some(&Value::Number(5.0)));
        assert_eq!(
            crate::to_string(&v),
            r#"{"B":5,"a":{"y":4,"z":3},"b":1,"é":2}"#
        );
    }

    #[test]
    fn leading_zeros_are_refused() {
        for bad in ["01", "-01", "00", "[007]", "{\"a\":00.5}"] {
            let err = from_str(bad).expect_err(bad);
            assert!(err.reason.contains("leading zero"), "{bad}: {err}");
        }
        assert_eq!(from_str("0").unwrap(), Value::Number(0.0));
        assert_eq!(from_str("-0.5").unwrap(), Value::Number(-0.5));
        assert_eq!(from_str("10").unwrap(), Value::Number(10.0));
    }
}

//! A minimal JSON value, parser, and writer for the wire protocol and the
//! on-disk store.
//!
//! The workspace's `serde` is a vendored no-op stub (this environment has
//! no registry access), so the daemon carries its own small JSON layer:
//! a recursive-descent parser over the full JSON grammar and an escaping
//! writer. Two deliberate restrictions keep it honest for this protocol:
//!
//! * **Numbers are `f64`** — which cannot carry a 64-bit fingerprint
//!   exactly. Fingerprints therefore travel as *strings* on the wire and
//!   in the store ([`Json::as_u64_str`]); plain counters and costs, which
//!   fit `f64` comfortably, travel as numbers.
//! * **Objects are ordered vectors**, not maps: serialization is
//!   deterministic (same input → same bytes) and duplicate keys resolve
//!   to the first occurrence, matching what a paranoid reader should do.

use std::fmt::Write as _;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    /// All JSON numbers, including integers (see the module docs for why
    /// fingerprints do not use this variant).
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    /// Key-value pairs in serialization order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Looks up `key` in an object (first occurrence); `None` for
    /// non-objects and missing keys.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// A number as a non-negative integer: accepts only whole numbers
    /// that round-trip through `f64` exactly (so sizes and counts are
    /// safe, fingerprints are not — see [`Json::as_u64_str`]).
    pub fn as_u64(&self) -> Option<u64> {
        let n = self.as_f64()?;
        if n >= 0.0 && n <= (1u64 << 53) as f64 && n.fract() == 0.0 {
            Some(n as u64)
        } else {
            None
        }
    }

    /// A `u64` carried as a decimal *string* — the full-fidelity encoding
    /// used for fingerprints.
    pub fn as_u64_str(&self) -> Option<u64> {
        self.as_str()?.parse().ok()
    }

    /// The boolean payload, if this is a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The element vector, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Num(n) => {
                // JSON has no NaN/Infinity; encode them as null so a
                // defective cost can never produce an unparseable frame.
                if n.is_finite() {
                    if n.fract() == 0.0 && n.abs() < 1e15 {
                        let _ = write!(out, "{}", *n as i64);
                    } else {
                        let _ = write!(out, "{n}");
                    }
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_escaped(out, s),
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
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
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
}

/// Compact serialization (no whitespace): `value.to_string()` is the
/// wire form.
impl std::fmt::Display for Json {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut out = String::new();
        self.write(&mut out);
        f.write_str(&out)
    }
}

/// Convenience constructor: a `u64` in its full-fidelity string encoding.
pub fn u64_str(v: u64) -> Json {
    Json::Str(v.to_string())
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

/// A parse failure with its byte offset, for actionable protocol errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset the parse failed at.
    pub at: usize,
    /// What the parser expected or found.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "JSON parse error at byte {}: {}", self.at, self.message)
    }
}

impl std::error::Error for ParseError {}

/// Parses one complete JSON document (trailing whitespace allowed,
/// trailing garbage rejected).
pub fn parse(input: &str) -> Result<Json, ParseError> {
    let mut p = Parser { bytes: input.as_bytes(), pos: 0 };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after JSON value"));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: &str) -> ParseError {
        ParseError { at: self.pos, message: message.to_string() }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, b: u8) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected {:?}", b as char)))
        }
    }

    fn eat_word(&mut self, word: &str, value: Json) -> Result<Json, ParseError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected {word:?}")))
        }
    }

    fn value(&mut self) -> Result<Json, ParseError> {
        match self.peek() {
            Some(b'n') => self.eat_word("null", Json::Null),
            Some(b't') => self.eat_word("true", Json::Bool(true)),
            Some(b'f') => self.eat_word("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn array(&mut self) -> Result<Json, ParseError> {
        self.eat(b'[')?;
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

    fn object(&mut self) -> Result<Json, ParseError> {
        self.eat(b'{')?;
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
            self.eat(b':')?;
            self.skip_ws();
            let value = self.value()?;
            pairs.push((key, value));
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

    fn string(&mut self) -> Result<String, ParseError> {
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
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let cp = self.unicode_escape()?;
                            out.push(cp);
                            continue;
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume the whole run up to the next quote or
                    // backslash. The input arrived as a &str and both
                    // delimiters are ASCII, so the run starts and ends on
                    // scalar boundaries; it is validated once, as a whole.
                    let rest = &self.bytes[self.pos..];
                    let len =
                        rest.iter().position(|&b| b == b'"' || b == b'\\').unwrap_or(rest.len());
                    let run =
                        std::str::from_utf8(&rest[..len]).map_err(|_| self.err("invalid UTF-8"))?;
                    out.push_str(run);
                    self.pos += len;
                }
            }
        }
    }

    /// Parses the 4 hex digits after `\u` (cursor on the `u`), handling
    /// surrogate pairs.
    fn unicode_escape(&mut self) -> Result<char, ParseError> {
        self.pos += 1; // consume 'u'
        let hi = self.hex4()?;
        if (0xD800..0xDC00).contains(&hi) {
            // High surrogate: require a following \uXXXX low surrogate.
            if self.peek() == Some(b'\\') {
                self.pos += 1;
                if self.peek() == Some(b'u') {
                    self.pos += 1;
                    let lo = self.hex4()?;
                    if (0xDC00..0xE000).contains(&lo) {
                        let cp = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                        return char::from_u32(cp).ok_or_else(|| self.err("invalid code point"));
                    }
                }
            }
            return Err(self.err("unpaired surrogate"));
        }
        char::from_u32(hi).ok_or_else(|| self.err("invalid code point"))
    }

    fn hex4(&mut self) -> Result<u32, ParseError> {
        let mut v = 0u32;
        for _ in 0..4 {
            let d = match self.peek() {
                Some(c @ b'0'..=b'9') => u32::from(c - b'0'),
                Some(c @ b'a'..=b'f') => u32::from(c - b'a') + 10,
                Some(c @ b'A'..=b'F') => u32::from(c - b'A') + 10,
                _ => return Err(self.err("expected hex digit")),
            };
            v = v * 16 + d;
            self.pos += 1;
        }
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number"))?;
        text.parse::<f64>().map(Json::Num).map_err(|_| self.err("invalid number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_structures() {
        let v = Json::Obj(vec![
            ("a".into(), Json::Num(1.0)),
            ("b".into(), Json::Arr(vec![Json::Bool(true), Json::Null, Json::Str("x\"y".into())])),
            ("fp".into(), u64_str(u64::MAX)),
        ]);
        let text = v.to_string();
        let back = parse(&text).unwrap();
        assert_eq!(v, back);
        assert_eq!(back.get("fp").unwrap().as_u64_str(), Some(u64::MAX));
    }

    #[test]
    fn u64_fidelity_goes_through_strings_not_numbers() {
        // 2^63 + 1 is not representable in f64; the string encoding is.
        let v = (1u64 << 63) + 1;
        assert_eq!(parse(&u64_str(v).to_string()).unwrap().as_u64_str(), Some(v));
        // And as_u64 on numbers refuses anything beyond exact range.
        assert_eq!(Json::Num(9.0e18).as_u64(), None);
        assert_eq!(Json::Num(42.0).as_u64(), Some(42));
        assert_eq!(Json::Num(1.5).as_u64(), None);
    }

    #[test]
    fn rejects_garbage_with_offsets() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("nul").is_err());
        assert!(parse("{}x").is_err());
        let e = parse("[1, @]").unwrap_err();
        assert_eq!(e.at, 4);
    }

    #[test]
    fn escapes_and_unicode() {
        let back = parse(r#""aA\né😀""#).unwrap();
        assert_eq!(back.as_str(), Some("aA\né😀"));
        // Control characters are escaped on the way out.
        assert_eq!(Json::Str("\u{1}".into()).to_string(), "\"\\u0001\"");
    }

    #[test]
    fn multi_byte_scalars_next_to_escapes_and_the_closing_quote() {
        // 2-, 3- and 4-byte scalars directly before and after an escape,
        // at the very start, and as the last thing before the quote.
        let back = parse(r#""é\n€\t😀\\é\"€😀""#).unwrap();
        assert_eq!(back.as_str(), Some("é\n€\t😀\\é\"€😀"));
        assert_eq!(parse("\"😀\"").unwrap().as_str(), Some("😀"));
        // As an object key too: the same scanner reads keys.
        let v = parse(r#"{"ключ\u0021": "значение"}"#).unwrap();
        assert_eq!(v.get("ключ!").unwrap().as_str(), Some("значение"));
    }

    #[test]
    fn surrogate_pairs_inside_long_runs() {
        let run = "x".repeat(3000);
        let text = format!("\"{run}\\ud83d\\ude00{run}é\\u00e9{run}\"");
        let want = format!("{run}😀{run}éé{run}");
        assert_eq!(parse(&text).unwrap().as_str(), Some(want.as_str()));
        // A lone high surrogate in the middle of a run is still rejected.
        let e = parse(&format!("\"{run}\\ud83d{run}\"")).unwrap_err();
        assert_eq!(e.message, "unpaired surrogate");
    }

    #[test]
    fn an_unterminated_long_string_fails_at_the_end_of_input() {
        let text = format!("\"{}", "é".repeat(32 * 1024));
        assert_eq!(text.len(), 1 + 64 * 1024);
        let e = parse(&text).unwrap_err();
        assert_eq!((e.at, e.message.as_str()), (text.len(), "unterminated string"));
        // Also when the input ends inside an escape.
        let e = parse(&format!("{text}\\")).unwrap_err();
        assert_eq!(e.at, text.len() + 1);
    }

    #[test]
    fn strings_of_every_size_round_trip() {
        for len in [0, 1, 1024, 4096] {
            // Every kind of character the writer treats differently:
            // plain, quote, backslash, control, multi-byte.
            let s: String = "a\"\\\n\u{1}é€😀".chars().cycle().take(len).collect();
            let v = Json::Arr(vec![Json::Str(s.clone()), Json::Obj(vec![(s, Json::Null)])]);
            assert_eq!(parse(&v.to_string()).unwrap(), v, "{len} chars");
        }
    }

    #[test]
    fn duplicate_keys_resolve_to_first() {
        let v = parse(r#"{"k":1,"k":2}"#).unwrap();
        assert_eq!(v.get("k").unwrap().as_f64(), Some(1.0));
    }
}

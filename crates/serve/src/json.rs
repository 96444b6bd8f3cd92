//! A minimal JSON layer for the wire protocol and the on-disk store: a
//! borrowed pull tokenizer, a value tree built on it, and the writer both
//! the tree and the daemon's direct encoders print through.
//!
//! The workspace's `serde` is a vendored no-op stub (this environment has
//! no registry access), so the daemon carries its own. A pull tokenizer
//! walks a document token by token over the input — strings and numbers
//! are handed out as slices of it, syntax-checked but not yet decoded —
//! so a reader that knows its schema ([`Request::parse`]) decodes straight
//! into its own types, and [`parse`] is just the reader that builds a
//! [`Json`] tree. Two deliberate restrictions keep it honest for this
//! protocol:
//!
//! * **Numbers are `f64`** — which cannot carry a 64-bit fingerprint
//!   exactly. Fingerprints therefore travel as *strings* on the wire and
//!   in the store ([`Json::as_u64_str`]); plain counters and costs, which
//!   fit `f64` comfortably, travel as numbers.
//! * **Objects are ordered vectors**, not maps: serialization is
//!   deterministic (same input → same bytes) and duplicate keys resolve
//!   to the first occurrence, matching what a paranoid reader should do.
//!
//! [`Request::parse`]: crate::wire::Request::parse

use std::borrow::Cow;
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
        exact_u64(self.as_f64()?)
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

    /// Appends the compact serialization to `out`.
    pub(crate) fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => write_bool(out, *b),
            Json::Num(n) => write_num(out, *n),
            Json::Str(s) => write_str(out, s),
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
                    write_str(out, k);
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

/// `n` as a `u64` when it is a whole number within `f64`'s exact range.
fn exact_u64(n: f64) -> Option<u64> {
    (n >= 0.0 && n <= (1u64 << 53) as f64 && n.fract() == 0.0).then_some(n as u64)
}

// The writer. Everything the daemon prints goes through these, the tree
// included, so a response written field by field and the same response
// built as a tree and printed are the same bytes.

pub(crate) fn write_bool(out: &mut String, b: bool) {
    out.push_str(if b { "true" } else { "false" });
}

/// A number as the tree prints it. JSON has no NaN/Infinity; they print
/// as `null`, so a defective cost can never produce an unparseable frame.
pub(crate) fn write_num(out: &mut String, n: f64) {
    if !n.is_finite() {
        out.push_str("null");
    } else if n.fract() == 0.0 && n.abs() < 1e15 {
        let int = n as i64;
        if int < 0 {
            out.push('-');
        }
        write_digits(out, int.unsigned_abs());
    } else {
        let _ = write!(out, "{n}");
    }
}

/// A `u64` in its string encoding ([`u64_str`]).
pub(crate) fn write_u64_str(out: &mut String, v: u64) {
    out.push('"');
    write_digits(out, v);
    out.push('"');
}

fn write_digits(out: &mut String, mut v: u64) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&digits[at..]).expect("ASCII digits"));
}

/// A string, quoted and escaped: quote, backslash and control characters
/// only; everything else, multi-byte scalars included, verbatim.
pub(crate) fn write_str(out: &mut String, s: &str) {
    out.push('"');
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        let escape = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0..=0x1f => "",
            _ => continue,
        };
        out.push_str(&s[run..i]);
        if escape.is_empty() {
            let _ = write!(out, "\\u{b:04x}");
        } else {
            out.push_str(escape);
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
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
/// trailing garbage rejected) into a tree.
pub fn parse(input: &str) -> Result<Json, ParseError> {
    let mut tokens = Tokenizer::new(input);
    let first = tokens.next_token()?;
    let value = tree(&mut tokens, first)?;
    tokens.finish()?;
    Ok(value)
}

/// The value `first` starts, as a tree. Recursive, like the document:
/// trees are for trusted or client-side text (the store, responses); the
/// daemon reads requests without one.
fn tree<'a>(tokens: &mut Tokenizer<'a>, first: Token<'a>) -> Result<Json, ParseError> {
    Ok(match first {
        Token::Null => Json::Null,
        Token::Bool(b) => Json::Bool(b),
        Token::Num(n) => Json::Num(n.to_f64()),
        Token::Str(s) => Json::Str(s.decode().into_owned()),
        Token::BeginArray => {
            let mut items = Vec::new();
            loop {
                match tokens.next_token()? {
                    Token::EndArray => break Json::Arr(items),
                    item => items.push(tree(tokens, item)?),
                }
            }
        }
        Token::BeginObject => {
            let mut pairs = Vec::new();
            loop {
                match tokens.next_token()? {
                    Token::Key(key) => {
                        let value = tokens.next_token()?;
                        pairs.push((key.decode().into_owned(), tree(tokens, value)?));
                    }
                    _ => break Json::Obj(pairs),
                }
            }
        }
        Token::Key(_) | Token::EndArray | Token::EndObject | Token::End => {
            unreachable!("the tokenizer starts every value with a value token")
        }
    })
}

/// One token of a JSON document, borrowing from the text.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Token<'a> {
    Null,
    Bool(bool),
    Num(Number<'a>),
    Str(JsonStr<'a>),
    /// An object member's key; the `:` after it is consumed.
    Key(JsonStr<'a>),
    BeginArray,
    EndArray,
    BeginObject,
    EndObject,
    /// The document is complete: its value was read and nothing but
    /// whitespace follows it.
    End,
}

/// A string token: the text between its quotes, escapes still in it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) struct JsonStr<'a> {
    raw: &'a str,
    escaped: bool,
}

impl<'a> JsonStr<'a> {
    /// The string's value: borrowed unless it has escapes to resolve.
    pub(crate) fn decode(&self) -> Cow<'a, str> {
        if !self.escaped {
            return Cow::Borrowed(self.raw);
        }
        let mut out = String::with_capacity(self.raw.len());
        let mut chars = self.raw.chars();
        while let Some(c) = chars.next() {
            if c != '\\' {
                out.push(c);
                continue;
            }
            out.push(match chars.next() {
                Some('n') => '\n',
                Some('r') => '\r',
                Some('t') => '\t',
                Some('b') => '\u{8}',
                Some('f') => '\u{c}',
                Some('u') => {
                    let hi = hex4(&mut chars);
                    if (0xD800..0xDC00).contains(&hi) {
                        // The tokenizer checked the `\u` low half follows.
                        chars.nth(1);
                        let lo = hex4(&mut chars);
                        char::from_u32(0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00))
                    } else {
                        char::from_u32(hi)
                    }
                    .expect("the tokenizer checked the code point")
                }
                // `"`, `\` and `/` stand for themselves.
                Some(c) => c,
                None => unreachable!("the tokenizer checked every escape"),
            });
        }
        Cow::Owned(out)
    }

    /// Whether the string's value is `s`. Inlined: against a literal the
    /// comparison is a few loads, not a `memcmp` call.
    #[inline]
    pub(crate) fn is(&self, s: &str) -> bool {
        if self.escaped {
            self.decode() == s
        } else {
            self.raw == s
        }
    }

    /// A `u64` carried as a decimal string ([`Json::as_u64_str`]).
    pub(crate) fn as_u64(&self) -> Option<u64> {
        self.decode().parse().ok()
    }
}

/// Four hex digits the tokenizer has already checked.
fn hex4(chars: &mut std::str::Chars<'_>) -> u32 {
    (0..4).fold(0, |v, _| v * 16 + chars.next().and_then(|c| c.to_digit(16)).unwrap_or(0))
}

/// A number token, as written: `-`? digits (`.` digits)? (`e` sign?
/// digits)?, with at least one mantissa digit and, when there is an
/// exponent, at least one exponent digit — exactly the texts `f64`
/// parses, so reading one back never fails.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Number<'a> {
    text: &'a str,
}

impl Number<'_> {
    /// The value ([`Json::Num`]).
    pub(crate) fn to_f64(self) -> f64 {
        self.text.parse().expect("the tokenizer only hands out numbers f64 reads")
    }

    /// The value as a non-negative integer ([`Json::as_u64`]). Up to 15
    /// plain digits are an exact `f64`, so they skip the float parse.
    #[inline]
    pub(crate) fn as_u64(&self) -> Option<u64> {
        let digits = self.text.as_bytes();
        if digits.len() <= 15 && digits.iter().all(u8::is_ascii_digit) {
            return Some(digits.iter().fold(0, |v, &d| v * 10 + u64::from(d - b'0')));
        }
        exact_u64(self.to_f64())
    }
}

/// A syntax error inside the tokenizer: plain data, so the hot path
/// returns no drop glue; [`Tokenizer::next_token`] turns it into a
/// [`ParseError`].
#[derive(Debug, Clone, Copy)]
struct Failure {
    at: usize,
    message: &'static str,
}

/// What the grammar allows at the tokenizer's position.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Expect {
    /// A value: the document's, or a member's after its key.
    Value,
    /// Just inside `[`: an element or `]`.
    FirstElement,
    /// Just inside `{`: a key or `}`.
    FirstKey,
    /// After a value inside a container: `,` or the container's closer.
    Separator,
    /// After the document's value: nothing but whitespace.
    End,
    Done,
}

/// A pull tokenizer over one JSON document.
///
/// [`next_token`](Self::next_token) yields the document's tokens in
/// order, then [`Token::End`] once the value is complete and nothing but
/// whitespace follows it. The grammar is checked as it goes, with the errors a
/// recursive-descent reader reports at the same byte offsets: the first
/// error in document order ends the walk. String escapes and number
/// syntax are checked on the way past; their values are read only when
/// asked for ([`JsonStr::decode`], [`Number::to_f64`]). Nesting lives on
/// the heap, so no depth of input can overflow the stack.
#[derive(Debug)]
pub(crate) struct Tokenizer<'a> {
    text: &'a str,
    pos: usize,
    expect: Expect,
    /// Open containers, innermost last: `true` for an object.
    open: Vec<bool>,
}

impl<'a> Tokenizer<'a> {
    pub(crate) fn new(text: &'a str) -> Self {
        Tokenizer { text, pos: 0, expect: Expect::Value, open: Vec::new() }
    }

    /// The next token; [`Token::End`] once the document is complete.
    ///
    /// # Errors
    ///
    /// The first syntax error of the document; the tokenizer is spent.
    #[inline]
    pub(crate) fn next_token(&mut self) -> Result<Token<'a>, ParseError> {
        self.step().map_err(|e| ParseError { at: e.at, message: e.message.to_string() })
    }

    fn step(&mut self) -> Result<Token<'a>, Failure> {
        self.skip_ws();
        let token = match self.expect {
            Expect::Value => self.value()?,
            Expect::FirstElement if self.peek() == Some(b']') => self.close(),
            Expect::FirstElement => self.value()?,
            Expect::FirstKey if self.peek() == Some(b'}') => self.close(),
            Expect::FirstKey => self.key()?,
            Expect::Separator => {
                let object = *self.open.last().expect("a separator is only expected inside");
                match (self.peek(), object) {
                    (Some(b','), _) => {
                        self.pos += 1;
                        self.skip_ws();
                        if object {
                            self.key()?
                        } else {
                            self.value()?
                        }
                    }
                    (Some(b']'), false) | (Some(b'}'), true) => self.close(),
                    (_, false) => return Err(self.err("expected ',' or ']'")),
                    (_, true) => return Err(self.err("expected ',' or '}'")),
                }
            }
            Expect::End if self.pos != self.text.len() => {
                return Err(self.err("trailing characters after JSON value"));
            }
            Expect::End | Expect::Done => {
                self.expect = Expect::Done;
                Token::End
            }
        };
        Ok(token)
    }

    /// Consumes the rest of the value `first` opened (nothing for a
    /// scalar), checking its syntax.
    pub(crate) fn skip(&mut self, first: Token<'a>) -> Result<(), ParseError> {
        let mut depth = usize::from(matches!(first, Token::BeginArray | Token::BeginObject));
        while depth > 0 {
            match self.next_token()? {
                Token::BeginArray | Token::BeginObject => depth += 1,
                Token::EndArray | Token::EndObject => depth -= 1,
                _ => {}
            }
        }
        Ok(())
    }

    /// Checks that the document ends after the value just read.
    pub(crate) fn finish(&mut self) -> Result<(), ParseError> {
        match self.next_token()? {
            Token::End => Ok(()),
            _ => unreachable!("`finish` is called after the document's value"),
        }
    }

    #[cold]
    fn err(&self, message: &'static str) -> Failure {
        Failure { at: self.pos, message }
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        let mut pos = self.pos;
        while matches!(self.text.as_bytes().get(pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            pos += 1;
        }
        self.pos = pos;
    }

    /// A value has just completed: what may follow it.
    fn completed(&mut self) {
        self.expect = if self.open.is_empty() { Expect::End } else { Expect::Separator };
    }

    fn close(&mut self) -> Token<'a> {
        self.pos += 1;
        let object = self.open.pop().expect("a closer is only accepted inside");
        self.completed();
        if object {
            Token::EndObject
        } else {
            Token::EndArray
        }
    }

    fn value(&mut self) -> Result<Token<'a>, Failure> {
        let token = match self.peek() {
            Some(b'n') => self.word("null", Token::Null, "expected \"null\"")?,
            Some(b't') => self.word("true", Token::Bool(true), "expected \"true\"")?,
            Some(b'f') => self.word("false", Token::Bool(false), "expected \"false\"")?,
            Some(b'"') => Token::Str(self.string()?),
            Some(open @ (b'[' | b'{')) => {
                self.pos += 1;
                let object = open == b'{';
                self.open.push(object);
                self.expect = if object { Expect::FirstKey } else { Expect::FirstElement };
                return Ok(if object { Token::BeginObject } else { Token::BeginArray });
            }
            Some(c) if c == b'-' || c.is_ascii_digit() => Token::Num(self.number()?),
            Some(_) => return Err(self.err("unexpected character")),
            None => return Err(self.err("unexpected end of input")),
        };
        self.completed();
        Ok(token)
    }

    fn key(&mut self) -> Result<Token<'a>, Failure> {
        if self.peek() != Some(b'"') {
            return Err(self.err("expected '\"'"));
        }
        let key = self.string()?;
        self.skip_ws();
        if self.peek() != Some(b':') {
            return Err(self.err("expected ':'"));
        }
        self.pos += 1;
        self.expect = Expect::Value;
        Ok(Token::Key(key))
    }

    /// A literal; inlined, so the comparison is against a constant.
    #[inline(always)]
    fn word(
        &mut self,
        word: &str,
        token: Token<'a>,
        expected: &'static str,
    ) -> Result<Token<'a>, Failure> {
        if self.text.as_bytes()[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(token)
        } else {
            Err(self.err(expected))
        }
    }

    /// A string from its opening quote (at the cursor) past its closing
    /// one, escapes checked.
    fn string(&mut self) -> Result<JsonStr<'a>, Failure> {
        self.pos += 1;
        let start = self.pos;
        let bytes = self.text.as_bytes();
        let mut escaped = false;
        loop {
            // Both delimiters are ASCII, so the run between them ends on a
            // scalar boundary of the `&str` input.
            match bytes[self.pos..].iter().position(|&b| b == b'"' || b == b'\\') {
                None => {
                    self.pos = bytes.len();
                    return Err(self.err("unterminated string"));
                }
                Some(run) if bytes[self.pos + run] == b'"' => {
                    let raw = &self.text[start..self.pos + run];
                    self.pos += run + 1;
                    return Ok(JsonStr { raw, escaped });
                }
                Some(run) => {
                    escaped = true;
                    self.pos += run + 1;
                    match self.peek() {
                        Some(b'"' | b'\\' | b'/' | b'n' | b'r' | b't' | b'b' | b'f') => {
                            self.pos += 1;
                        }
                        Some(b'u') => self.unicode_escape()?,
                        _ => return Err(self.err("invalid escape")),
                    }
                }
            }
        }
    }

    /// Checks the 4 hex digits after `\u` (cursor on the `u`), and the
    /// low half that must follow a high surrogate.
    fn unicode_escape(&mut self) -> Result<(), Failure> {
        self.pos += 1;
        let hi = self.hex4()?;
        if (0xD800..0xDC00).contains(&hi) {
            if self.peek() == Some(b'\\') {
                self.pos += 1;
                if self.peek() == Some(b'u') {
                    self.pos += 1;
                    if (0xDC00..0xE000).contains(&self.hex4()?) {
                        return Ok(());
                    }
                }
            }
            return Err(self.err("unpaired surrogate"));
        }
        match char::from_u32(hi) {
            Some(_) => Ok(()),
            None => Err(self.err("invalid code point")),
        }
    }

    fn hex4(&mut self) -> Result<u32, Failure> {
        let mut v = 0u32;
        for _ in 0..4 {
            let d = self
                .peek()
                .and_then(|c| char::from(c).to_digit(16))
                .ok_or_else(|| self.err("expected hex digit"))?;
            v = v * 16 + d;
            self.pos += 1;
        }
        Ok(v)
    }

    fn digits(&mut self) -> usize {
        let start = self.pos;
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        self.pos - start
    }

    fn number(&mut self) -> Result<Number<'a>, Failure> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut mantissa = self.digits();
        if self.peek() == Some(b'.') {
            self.pos += 1;
            mantissa += self.digits();
        }
        let mut exponent_ok = true;
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            exponent_ok = self.digits() > 0;
        }
        if mantissa == 0 || !exponent_ok {
            return Err(self.err("invalid number"));
        }
        Ok(Number { text: &self.text[start..self.pos] })
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

    #[test]
    fn tokens_come_in_document_order_then_the_end() {
        let mut t = Tokenizer::new(r#" {"a" : [1, "x\n", {}], "b":null} "#);
        let mut kinds = Vec::new();
        loop {
            kinds.push(match t.next_token().unwrap() {
                Token::End => break,
                Token::Key(k) => format!("key {}", k.decode()),
                Token::Str(s) => format!("str {:?}", s.decode()),
                Token::Num(n) => format!("num {}", n.to_f64()),
                other => format!("{other:?}"),
            });
        }
        assert_eq!(
            kinds,
            [
                "BeginObject",
                "key a",
                "BeginArray",
                "num 1",
                "str \"x\\n\"",
                "BeginObject",
                "EndObject",
                "EndArray",
                "key b",
                "Null",
                "EndObject"
            ]
        );
        assert_eq!(t.next_token().unwrap(), Token::End, "the end stays the end");
    }

    #[test]
    fn skipping_a_value_checks_its_syntax() {
        let mut t = Tokenizer::new(r#"[[1, {"a": [true]}], 2]"#);
        assert_eq!(t.next_token().unwrap(), Token::BeginArray);
        let first = t.next_token().unwrap();
        t.skip(first).unwrap();
        assert!(matches!(t.next_token().unwrap(), Token::Num(n) if n.as_u64() == Some(2)));
        let mut t = Tokenizer::new(r#"[[1, {"a" [true]}]]"#);
        t.next_token().unwrap();
        let first = t.next_token().unwrap();
        let e = t.skip(first).unwrap_err();
        assert_eq!(e, ParseError { at: 10, message: "expected ':'".into() });
    }

    /// The number syntax the tokenizer accepts is exactly what `f64`
    /// reads, over every text of the scanned shape from these parts.
    #[test]
    fn accepted_numbers_are_exactly_the_f64_texts() {
        for sign in ["", "-"] {
            for int in ["", "0", "12"] {
                for frac in ["", ".", ".5", ".05"] {
                    for exp in ["", "e", "E", "e+", "e-", "e5", "E+7", "e-12"] {
                        let text = format!("{sign}{int}{frac}{exp}");
                        if !text.starts_with(|c: char| c == '-' || c.is_ascii_digit()) {
                            continue; // not a number token at all
                        }
                        let ours = Tokenizer::new(&text).next_token().map(|t| match t {
                            Token::Num(n) => n.to_f64(),
                            other => panic!("{text:?} read as {other:?}"),
                        });
                        let std = text.parse::<f64>();
                        assert_eq!(ours.is_ok(), std.is_ok(), "{text:?}");
                        if let (Ok(a), Ok(b)) = (ours, std) {
                            assert_eq!(a.to_bits(), b.to_bits(), "{text:?}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn integers_read_like_the_tree_reads_them() {
        for text in
            ["0", "7", "123456789012345", "1234567890123456", "9007199254740993", "-0", "1e3"]
        {
            let tree = parse(text).unwrap().as_u64();
            let token = match Tokenizer::new(text).next_token().unwrap() {
                Token::Num(n) => n.as_u64(),
                other => panic!("{other:?}"),
            };
            assert_eq!(token, tree, "{text}");
        }
    }

    #[test]
    fn the_writer_prints_numbers_like_display_did() {
        for n in [0.0, -0.0, 1.0, -42.0, 1.5, 1e15, 999_999_999_999_999.0, 2.5e-7, f64::NAN] {
            let mut ours = String::new();
            write_num(&mut ours, n);
            let want = if !n.is_finite() {
                "null".to_string()
            } else if n.fract() == 0.0 && n.abs() < 1e15 {
                format!("{}", n as i64)
            } else {
                format!("{n}")
            };
            assert_eq!(ours, want, "{n}");
        }
    }
}

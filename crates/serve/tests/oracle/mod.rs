//! The daemon's codecs as they were before the pull tokenizer: a
//! recursive-descent JSON parser into a value tree, its printer, the
//! tree-walking request decoder and the tree-building response encoders.
//! Kept only as the oracle the differential tests hold the streaming
//! decoder and the direct response writer to; nothing in `src/` uses it.

#![allow(dead_code)] // each test binary uses its own part of the oracle

use std::fmt::Write as _;

use sunstone::fingerprint::workload_fingerprint;
use sunstone_ir::{DimId, Workload};
use sunstone_mapping::{Mapping, MappingLevel};

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum OldJson {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<OldJson>),
    Obj(Vec<(String, OldJson)>),
}

impl OldJson {
    pub fn get(&self, key: &str) -> Option<&OldJson> {
        match self {
            OldJson::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            OldJson::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            OldJson::Num(n) => Some(*n),
            _ => None,
        }
    }

    pub fn as_u64(&self) -> Option<u64> {
        let n = self.as_f64()?;
        if n >= 0.0 && n <= (1u64 << 53) as f64 && n.fract() == 0.0 {
            Some(n as u64)
        } else {
            None
        }
    }

    pub fn as_u64_str(&self) -> Option<u64> {
        self.as_str()?.parse().ok()
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            OldJson::Bool(b) => Some(*b),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[OldJson]> {
        match self {
            OldJson::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The compact serialization.
    pub fn text(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            OldJson::Null => out.push_str("null"),
            OldJson::Bool(true) => out.push_str("true"),
            OldJson::Bool(false) => out.push_str("false"),
            OldJson::Num(n) => {
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
            OldJson::Str(s) => write_escaped(out, s),
            OldJson::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            OldJson::Obj(pairs) => {
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

pub fn u64_str(v: u64) -> OldJson {
    OldJson::Str(v.to_string())
}

/// A syntax error: byte offset and message.
pub type SyntaxError = (usize, String);

pub fn parse(input: &str) -> Result<OldJson, SyntaxError> {
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

impl Parser<'_> {
    fn err(&self, message: &str) -> SyntaxError {
        (self.pos, message.to_string())
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, b: u8) -> Result<(), SyntaxError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected {:?}", b as char)))
        }
    }

    fn eat_word(&mut self, word: &str, value: OldJson) -> Result<OldJson, SyntaxError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected {word:?}")))
        }
    }

    fn value(&mut self) -> Result<OldJson, SyntaxError> {
        match self.peek() {
            Some(b'n') => self.eat_word("null", OldJson::Null),
            Some(b't') => self.eat_word("true", OldJson::Bool(true)),
            Some(b'f') => self.eat_word("false", OldJson::Bool(false)),
            Some(b'"') => Ok(OldJson::Str(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn array(&mut self) -> Result<OldJson, SyntaxError> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(OldJson::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(OldJson::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<OldJson, SyntaxError> {
        self.eat(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(OldJson::Obj(pairs));
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
                    return Ok(OldJson::Obj(pairs));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, SyntaxError> {
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

    fn unicode_escape(&mut self) -> Result<char, SyntaxError> {
        self.pos += 1; // consume 'u'
        let hi = self.hex4()?;
        if (0xD800..0xDC00).contains(&hi) {
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

    fn hex4(&mut self) -> Result<u32, SyntaxError> {
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

    fn number(&mut self) -> Result<OldJson, SyntaxError> {
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
        text.parse::<f64>().map(OldJson::Num).map_err(|_| self.err("invalid number"))
    }
}

/// A request as the tree decoder saw it, reduced to what a daemon acts
/// on: workloads by structural fingerprint, the preset name, the deadline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Decoded {
    Schedule { workload: u64, arch: String, deadline_ms: Option<u64> },
    ScheduleBatch { workloads: Vec<u64>, arch: String, deadline_ms: Option<u64> },
    CacheStats,
    Shutdown,
}

/// How a decoder refused a frame: a syntax error (offset, message) or a
/// protocol error's message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Refusal {
    Json(usize, String),
    Protocol(String),
}

fn protocol(m: impl Into<String>) -> Refusal {
    Refusal::Protocol(m.into())
}

/// The tree-walking request decoder the streaming one replaced.
pub fn decode_request(payload: &str) -> Result<Decoded, Refusal> {
    let v = parse(payload).map_err(|(at, m)| Refusal::Json(at, m))?;
    let op = v.get("op").and_then(OldJson::as_str).ok_or_else(|| protocol("missing \"op\""))?;
    let fp = |w: Workload| workload_fingerprint(&w);
    match op {
        "schedule" => Ok(Decoded::Schedule {
            workload: fp(workload_from_json(
                v.get("workload").ok_or_else(|| protocol("missing \"workload\""))?,
            )?),
            arch: request_arch(&v)?,
            deadline_ms: request_deadline(&v)?,
        }),
        "schedule_batch" => {
            let items = v
                .get("workloads")
                .and_then(OldJson::as_arr)
                .ok_or_else(|| protocol("missing \"workloads\""))?;
            let workloads = items
                .iter()
                .map(|w| workload_from_json(w).map(fp))
                .collect::<Result<Vec<_>, _>>()?;
            Ok(Decoded::ScheduleBatch {
                workloads,
                arch: request_arch(&v)?,
                deadline_ms: request_deadline(&v)?,
            })
        }
        "cache_stats" => Ok(Decoded::CacheStats),
        "shutdown" => Ok(Decoded::Shutdown),
        other => Err(protocol(format!("unknown op {other:?}"))),
    }
}

fn request_arch(v: &OldJson) -> Result<String, Refusal> {
    Ok(v.get("arch")
        .and_then(OldJson::as_str)
        .ok_or_else(|| protocol("missing \"arch\""))?
        .to_string())
}

fn request_deadline(v: &OldJson) -> Result<Option<u64>, Refusal> {
    match v.get("deadline_ms") {
        None => Ok(None),
        Some(d) => {
            let ms = d
                .as_u64()
                .filter(|&ms| ms > 0)
                .ok_or_else(|| protocol("\"deadline_ms\" must be a positive integer"))?;
            Ok(Some(ms))
        }
    }
}

/// The tree-walking workload decoder.
pub fn workload_from_json(v: &OldJson) -> Result<Workload, Refusal> {
    let name =
        v.get("name").and_then(OldJson::as_str).ok_or_else(|| protocol("workload missing name"))?;
    let dims =
        v.get("dims").and_then(OldJson::as_arr).ok_or_else(|| protocol("workload missing dims"))?;
    let mut b = Workload::builder(name);
    let mut n_dims = 0usize;
    for d in dims {
        let dname =
            d.get("name").and_then(OldJson::as_str).ok_or_else(|| protocol("dim missing name"))?;
        let size = d
            .get("size")
            .and_then(OldJson::as_u64_str)
            .ok_or_else(|| protocol("dim missing size"))?;
        b.dim(dname, size);
        n_dims += 1;
    }
    let tensors = v
        .get("tensors")
        .and_then(OldJson::as_arr)
        .ok_or_else(|| protocol("workload missing tensors"))?;
    for t in tensors {
        let tname = t
            .get("name")
            .and_then(OldJson::as_str)
            .ok_or_else(|| protocol("tensor missing name"))?;
        let output = t.get("output").and_then(OldJson::as_bool).unwrap_or(false);
        let bits = t
            .get("bits")
            .and_then(OldJson::as_u64)
            .and_then(|b| u32::try_from(b).ok())
            .ok_or_else(|| protocol("tensor missing bits"))?;
        let ranks = t
            .get("indices")
            .and_then(OldJson::as_arr)
            .ok_or_else(|| protocol("tensor missing indices"))?;
        let mut exprs = Vec::with_capacity(ranks.len());
        for rank in ranks {
            let terms = rank.as_arr().ok_or_else(|| protocol("index rank is not an array"))?;
            if terms.is_empty() {
                return Err(protocol("index expression has no terms"));
            }
            let mut expr = None;
            for term in terms {
                let pair = term.as_arr().ok_or_else(|| protocol("index term is not a pair"))?;
                let (dim, stride) = match pair {
                    [d, s] => (
                        d.as_u64().ok_or_else(|| protocol("index term dim is not an integer"))?,
                        s.as_u64_str()
                            .ok_or_else(|| protocol("index term stride is not a string"))?,
                    ),
                    _ => return Err(protocol("index term is not a [dim, stride] pair")),
                };
                let dim = usize::try_from(dim).ok().filter(|&d| d < n_dims).ok_or_else(|| {
                    protocol(format!("index term references unknown dimension {dim}"))
                })?;
                let next = DimId::from_index(dim).strided(stride);
                expr = Some(match expr {
                    None => next,
                    Some(e) => e + next,
                });
            }
            exprs.push(expr.expect("at least one term"));
        }
        if output {
            b.output_bits(tname, exprs, bits);
        } else {
            b.input_bits(tname, exprs, bits);
        }
    }
    b.build().map_err(|e| protocol(format!("invalid workload: {e}")))
}

/// The tree-building mapping encoder.
pub fn mapping_to_json(m: &Mapping) -> OldJson {
    let levels = m
        .levels()
        .iter()
        .map(|level| match level {
            MappingLevel::Temporal(t) => OldJson::Obj(vec![(
                "t".into(),
                OldJson::Obj(vec![
                    ("mem".into(), OldJson::Num(t.mem.0 as f64)),
                    (
                        "factors".into(),
                        OldJson::Arr(t.factors.iter().map(|&f| u64_str(f)).collect()),
                    ),
                    (
                        "order".into(),
                        OldJson::Arr(
                            t.order.iter().map(|d| OldJson::Num(d.index() as f64)).collect(),
                        ),
                    ),
                ]),
            )]),
            MappingLevel::Spatial(s) => OldJson::Obj(vec![(
                "s".into(),
                OldJson::Obj(vec![
                    ("fabric".into(), OldJson::Num(s.fabric.0 as f64)),
                    (
                        "factors".into(),
                        OldJson::Arr(s.factors.iter().map(|&f| u64_str(f)).collect()),
                    ),
                ]),
            )]),
        })
        .collect();
    OldJson::Obj(vec![("levels".into(), OldJson::Arr(levels))])
}

/// The tree-building response encoders.
pub fn result_body(
    ctx_fp: u64,
    source: &str,
    mapping_fp: u64,
    (edp, energy_pj, delay_cycles): (f64, f64, f64),
    mapping: &Mapping,
    degraded: bool,
) -> OldJson {
    OldJson::Obj(vec![
        ("ok".into(), OldJson::Bool(true)),
        ("source".into(), OldJson::Str(source.into())),
        ("degraded".into(), OldJson::Bool(degraded)),
        ("ctx_fp".into(), u64_str(ctx_fp)),
        ("mapping_fp".into(), u64_str(mapping_fp)),
        ("edp".into(), OldJson::Num(edp)),
        ("energy_pj".into(), OldJson::Num(energy_pj)),
        ("delay_cycles".into(), OldJson::Num(delay_cycles)),
        ("mapping".into(), mapping_to_json(mapping)),
    ])
}

pub fn error_response(kind: &str, message: &str) -> OldJson {
    OldJson::Obj(vec![
        ("ok".into(), OldJson::Bool(false)),
        ("kind".into(), OldJson::Str(kind.into())),
        ("error".into(), OldJson::Str(message.into())),
    ])
}

pub fn overloaded_response(retry_after_ms: u64, message: &str) -> OldJson {
    OldJson::Obj(vec![
        ("ok".into(), OldJson::Bool(false)),
        ("kind".into(), OldJson::Str("overloaded".into())),
        ("error".into(), OldJson::Str(format!("{message}; retry later"))),
        ("retry_after_ms".into(), OldJson::Num(retry_after_ms as f64)),
    ])
}

//! The daemon's wire protocol: length-prefixed JSON frames over a Unix
//! socket, plus the workload/mapping codecs shared with the on-disk
//! store.
//!
//! # Framing
//!
//! Every message — request or response — is one frame: a 4-byte
//! little-endian byte length followed by that many bytes of UTF-8 JSON.
//! Frames larger than [`MAX_FRAME`] are rejected before allocation (a
//! corrupt length prefix must not trigger a multi-gigabyte allocation),
//! and a clean EOF *between* frames is a normal disconnect while an EOF
//! *inside* a frame is an error (the "client killed mid-request" case the
//! stress tests exercise).
//!
//! # Requests
//!
//! ```json
//! {"op":"schedule","arch":"simba_like","workload":{...},"deadline_ms":500}
//! {"op":"schedule_batch","arch":"simba_like","workloads":[{...},...]}
//! {"op":"cache_stats"}
//! {"op":"shutdown"}
//! ```
//!
//! `deadline_ms` (optional, both schedule ops) bounds the whole request:
//! a search that hits the deadline stops gracefully and returns its best
//! mapping so far with `"degraded":true` in the response, rather than an
//! error — clients that set deadlines have decided latency beats
//! optimality. Memo and store hits ignore the deadline (they are
//! microseconds). A batch shares one deadline across its layers.
//!
//! Keys may come in any order; the first occurrence of a key counts and
//! unknown keys are ignored. [`Request::parse`] reads the frame through
//! the JSON layer's pull tokenizer straight into the request — no value
//! tree — so
//! a field its op does not use is only syntax-checked. A syntax error
//! anywhere is a [`WireError::Json`] (the daemon answers and closes: the
//! framing cannot be trusted); a frame that tokenizes but is not a valid
//! request is a [`WireError::Protocol`] (the connection stays open), and
//! only ever reported once the whole frame has tokenized.
//!
//! Architectures are referenced by preset name ([`arch_by_name`]) — the
//! store keys results by the full arch fingerprint regardless, so a
//! renamed preset can never alias a stale entry.
//!
//! # Workload and mapping encodings
//!
//! A workload is self-contained (name, dims, tensors with affine index
//! expressions), so a store record can be replayed on a fresh daemon
//! without the original client. A mapping serializes its level list
//! verbatim; both codecs reject structurally invalid input with a typed
//! [`WireError`] instead of panicking.

use std::io::{Read, Write};
use std::sync::OnceLock;

use sunstone::fingerprint::arch_fingerprint;
use sunstone_arch::{presets, ArchSpec, LevelId};
use sunstone_ir::{DimId, Workload, WorkloadBuilder};
use sunstone_mapping::{Mapping, MappingLevel, SpatialAssignment, TemporalLevel};

use crate::json::{self, u64_str, Json, JsonStr, ParseError, Token, Tokenizer};

/// Hard cap on one frame's payload size. Far above any legitimate
/// request (a whole-network batch is tens of kilobytes) and far below
/// anything that could pressure memory.
pub const MAX_FRAME: usize = 16 * 1024 * 1024;

/// Protocol-level failures: framing, JSON, and codec errors.
#[derive(Debug)]
pub enum WireError {
    /// The underlying socket failed.
    Io(std::io::Error),
    /// The payload was not valid JSON.
    Json(json::ParseError),
    /// The JSON was valid but not a valid protocol message.
    Protocol(String),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "socket error: {e}"),
            WireError::Json(e) => write!(f, "{e}"),
            WireError::Protocol(m) => write!(f, "protocol error: {m}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> Self {
        WireError::Io(e)
    }
}

impl From<json::ParseError> for WireError {
    fn from(e: json::ParseError) -> Self {
        WireError::Json(e)
    }
}

fn protocol(m: impl Into<String>) -> WireError {
    WireError::Protocol(m.into())
}

/// Writes one frame (length prefix + payload).
pub fn write_frame(w: &mut impl Write, payload: &str) -> std::io::Result<()> {
    let bytes = payload.as_bytes();
    let len = u32::try_from(bytes.len())
        .map_err(|_| std::io::Error::new(std::io::ErrorKind::InvalidInput, "frame too large"))?;
    w.write_all(&len.to_le_bytes())?;
    w.write_all(bytes)?;
    w.flush()
}

/// Reads one frame. `Ok(None)` is a clean disconnect (EOF before any
/// prefix byte); EOF mid-frame and oversized prefixes are errors.
pub fn read_frame(r: &mut impl Read) -> Result<Option<String>, WireError> {
    let mut payload = Vec::new();
    if read_frame_into(r, &mut payload)?.is_none() {
        return Ok(None);
    }
    Ok(Some(String::from_utf8(payload).expect("read_frame_into checked the payload")))
}

/// [`read_frame`] into `buf`, which keeps its allocation from frame to
/// frame; the payload is borrowed from it.
pub(crate) fn read_frame_into<'b>(
    r: &mut impl Read,
    buf: &'b mut Vec<u8>,
) -> Result<Option<&'b str>, WireError> {
    let mut prefix = [0u8; 4];
    // Distinguish "no more requests" from "died mid-prefix" by hand: a
    // clean disconnect is EOF on the very first byte.
    let mut filled = 0;
    while filled < prefix.len() {
        match r.read(&mut prefix[filled..])? {
            0 if filled == 0 => return Ok(None),
            0 => return Err(protocol("connection closed inside a frame header")),
            n => filled += n,
        }
    }
    let len = u32::from_le_bytes(prefix) as usize;
    if len > MAX_FRAME {
        return Err(protocol(format!("frame of {len} bytes exceeds the {MAX_FRAME} byte cap")));
    }
    buf.clear();
    buf.resize(len, 0);
    r.read_exact(buf).map_err(|e| {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            protocol("connection closed inside a frame payload")
        } else {
            WireError::Io(e)
        }
    })?;
    let text = std::str::from_utf8(buf).map_err(|_| protocol("frame is not UTF-8"))?;
    Ok(Some(text))
}

/// A parsed client request.
#[derive(Debug)]
pub enum Request {
    /// Schedule one workload on the named architecture preset, optionally
    /// bounded by a deadline in milliseconds.
    Schedule { workload: Workload, arch: String, deadline_ms: Option<u64> },
    /// Schedule a batch of workloads on the named architecture preset;
    /// the deadline (if any) covers the whole batch.
    ScheduleBatch { workloads: Vec<Workload>, arch: String, deadline_ms: Option<u64> },
    /// Report daemon, session-memo, and store statistics.
    CacheStats,
    /// Compact the store and stop the daemon.
    Shutdown,
}

impl Request {
    /// Parses one request frame (see the module docs).
    ///
    /// # Errors
    ///
    /// [`WireError::Json`] for malformed JSON, [`WireError::Protocol`]
    /// for a well-formed frame that is not a valid request.
    pub fn parse(payload: &str) -> Result<Request, WireError> {
        let mut tokens = Tokenizer::new(payload);
        let mut fields = RequestFields::default();
        let first = tokens.next_token()?;
        fields.read(&mut tokens, first)?;
        tokens.finish()?;
        fields.into_request()
    }
}

/// A request frame's fields: each the first occurrence of its key, read
/// as far as it alone decides; `None` until the key is met. Whether a
/// field's error counts, and before which others, is the op's to say once
/// the frame has tokenized ([`into_request`](Self::into_request)).
#[derive(Default)]
struct RequestFields<'a> {
    /// `Some(None)`: present, not a string (and likewise below).
    op: Option<Option<JsonStr<'a>>>,
    arch: Option<Option<JsonStr<'a>>>,
    deadline_ms: Option<Option<u64>>,
    workload: Option<WorkloadFields<'a>>,
    workloads: Option<Option<Vec<WorkloadFields<'a>>>>,
}

impl<'a> RequestFields<'a> {
    fn read(&mut self, t: &mut Tokenizer<'a>, first: Token<'a>) -> Result<(), ParseError> {
        members(t, first, |t, key, value| {
            // An op read already says whether a workload is worth decoding.
            let op = self.op.flatten();
            let wanted = |name: &str| op.is_none_or(|op| op.is(name));
            match key {
                k if k.is("op") && self.op.is_none() => self.op = Some(string(t, value)?),
                k if k.is("arch") && self.arch.is_none() => self.arch = Some(string(t, value)?),
                k if k.is("deadline_ms") && self.deadline_ms.is_none() => {
                    self.deadline_ms = Some(integer(t, value)?);
                }
                k if k.is("workload") && self.workload.is_none() && wanted("schedule") => {
                    self.workload = Some(WorkloadFields::read(t, value)?);
                }
                k if k.is("workloads") && self.workloads.is_none() && wanted("schedule_batch") => {
                    let mut items = Vec::new();
                    let array = elements(t, value, |t, item| {
                        items.push(WorkloadFields::read(t, item)?);
                        Ok(())
                    })?;
                    self.workloads = Some(array.then_some(items));
                }
                _ => t.skip(value)?,
            }
            Ok(())
        })?;
        Ok(())
    }

    /// The request, or the first protocol error in the order the op checks
    /// its fields: the workload(s), then `arch`, then `deadline_ms`.
    fn into_request(self) -> Result<Request, WireError> {
        let op = self.op.flatten().ok_or_else(|| protocol("missing \"op\""))?;
        match &*op.decode() {
            "schedule" => Ok(Request::Schedule {
                workload: self.workload.ok_or_else(|| protocol("missing \"workload\""))?.build()?,
                arch: required_arch(self.arch)?,
                deadline_ms: deadline(self.deadline_ms)?,
            }),
            "schedule_batch" => Ok(Request::ScheduleBatch {
                workloads: self
                    .workloads
                    .flatten()
                    .ok_or_else(|| protocol("missing \"workloads\""))?
                    .into_iter()
                    .map(WorkloadFields::build)
                    .collect::<Result<_, _>>()?,
                arch: required_arch(self.arch)?,
                deadline_ms: deadline(self.deadline_ms)?,
            }),
            "cache_stats" => Ok(Request::CacheStats),
            "shutdown" => Ok(Request::Shutdown),
            other => Err(protocol(format!("unknown op {other:?}"))),
        }
    }
}

fn required_arch(arch: Option<Option<JsonStr<'_>>>) -> Result<String, WireError> {
    Ok(arch.flatten().ok_or_else(|| protocol("missing \"arch\""))?.decode().into_owned())
}

/// The optional `deadline_ms`. Absence is fine (no deadline); a
/// present-but-invalid value is a protocol error — silently ignoring a
/// malformed deadline would run the request unbounded, the opposite of
/// what the client asked for.
fn deadline(field: Option<Option<u64>>) -> Result<Option<u64>, WireError> {
    match field {
        None => Ok(None),
        Some(ms) => ms
            .filter(|&ms| ms > 0)
            .map(Some)
            .ok_or_else(|| protocol("\"deadline_ms\" must be a positive integer")),
    }
}

/// A workload object's fields ([`workload_from_json`]'s encoding). The
/// checks that need fields from across the object — index dimensions in
/// range, the builder's own — run in [`build`](Self::build), in the order
/// the encoding's checks are documented in.
#[derive(Default)]
struct WorkloadFields<'a> {
    name: Option<Option<JsonStr<'a>>>,
    /// `Some(Err)`: not an array, or its first bad dimension.
    dims: Option<Result<Vec<(JsonStr<'a>, u64)>, WireError>>,
    /// `Some(None)`: not an array.
    tensors: Option<Option<Vec<TensorFields<'a>>>>,
}

impl<'a> WorkloadFields<'a> {
    /// Reads the value `first` opened; a value that is not an object has
    /// no fields.
    fn read(t: &mut Tokenizer<'a>, first: Token<'a>) -> Result<Self, ParseError> {
        let mut w = WorkloadFields::default();
        members(t, first, |t, key, value| {
            match key {
                k if k.is("name") && w.name.is_none() => w.name = Some(string(t, value)?),
                k if k.is("dims") && w.dims.is_none() => {
                    // Every dimension, or the first bad one's error; the
                    // rest are only syntax-checked.
                    let mut dims = Ok(Vec::with_capacity(8));
                    let array = elements(t, value, |t, item| {
                        match &mut dims {
                            Ok(read) => match dim(t, item)? {
                                Ok(d) => read.push(d),
                                Err(e) => dims = Err(e),
                            },
                            Err(_) => t.skip(item)?,
                        }
                        Ok(())
                    })?;
                    w.dims =
                        Some(if array { dims } else { Err(protocol("workload missing dims")) });
                }
                k if k.is("tensors") && w.tensors.is_none() => {
                    let mut tensors = Vec::with_capacity(4);
                    let array = elements(t, value, |t, item| {
                        tensors.push(TensorFields::read(t, item)?);
                        Ok(())
                    })?;
                    w.tensors = Some(array.then_some(tensors));
                }
                _ => t.skip(value)?,
            }
            Ok(())
        })?;
        Ok(w)
    }

    /// Rebuilds the workload through [`Workload::builder`]: the name, the
    /// dimensions, then tensor by tensor, then the builder's validation.
    fn build(self) -> Result<Workload, WireError> {
        let name = self.name.flatten().ok_or_else(|| protocol("workload missing name"))?;
        let dims = self.dims.unwrap_or_else(|| Err(protocol("workload missing dims")))?;
        let tensors = self.tensors.flatten().ok_or_else(|| protocol("workload missing tensors"))?;
        let mut b = Workload::builder(name.decode());
        for (dname, size) in &dims {
            b.dim(dname.decode(), *size);
        }
        for tensor in tensors {
            tensor.declare(&mut b, dims.len())?;
        }
        b.build().map_err(|e| protocol(format!("invalid workload: {e}")))
    }
}

/// One dimension: `{"name":…,"size":"…"}`.
fn dim<'a>(
    t: &mut Tokenizer<'a>,
    first: Token<'a>,
) -> Result<Result<(JsonStr<'a>, u64), WireError>, ParseError> {
    let (mut name, mut size) = (None, None);
    members(t, first, |t, key, value| {
        match key {
            k if k.is("name") && name.is_none() => name = Some(string(t, value)?),
            k if k.is("size") && size.is_none() => size = Some(u64_string(t, value)?),
            _ => t.skip(value)?,
        }
        Ok(())
    })?;
    Ok(match (name.flatten(), size.flatten()) {
        (None, _) => Err(protocol("dim missing name")),
        (_, None) => Err(protocol("dim missing size")),
        (Some(name), Some(size)) => Ok((name, size)),
    })
}

/// One tensor: name, `output` flag (default `false`), `bits`, and its
/// index expressions as ranks of `[dim, "stride"]` terms.
struct TensorFields<'a> {
    name: JsonStr<'a>,
    output: bool,
    bits: u32,
    /// Every index term read, rank after rank; `ranks[i]` ends rank `i`.
    terms: Vec<(u64, u64)>,
    ranks: Vec<usize>,
    /// The first failed check, which comes after every term in `terms`
    /// (whose dimensions are range-checked once the dimension count is
    /// known).
    error: Option<WireError>,
}

impl<'a> TensorFields<'a> {
    fn read(t: &mut Tokenizer<'a>, first: Token<'a>) -> Result<Self, ParseError> {
        let (mut name, mut output, mut bits, mut indices) = (None, None, None, None);
        // Room for a 4-D tensor's indices without regrowing.
        let (mut terms, mut ranks) = (Vec::with_capacity(8), Vec::with_capacity(4));
        members(t, first, |t, key, value| {
            match key {
                k if k.is("name") && name.is_none() => name = Some(string(t, value)?),
                k if k.is("output") && output.is_none() => {
                    output = Some(matches!(value, Token::Bool(true)));
                    t.skip(value)?;
                }
                k if k.is("bits") && bits.is_none() => bits = Some(integer(t, value)?),
                k if k.is("indices") && indices.is_none() => {
                    indices = Some(index_ranks(t, value, &mut terms, &mut ranks)?);
                }
                _ => t.skip(value)?,
            }
            Ok(())
        })?;
        let name = name.flatten();
        let bits = bits.flatten().and_then(|b| u32::try_from(b).ok());
        // A missing name or width fails the tensor before its indices.
        let error = match (name, bits) {
            (None, _) => Some(protocol("tensor missing name")),
            (_, None) => Some(protocol("tensor missing bits")),
            _ => indices.unwrap_or_else(|| Err(protocol("tensor missing indices"))).err(),
        };
        if name.is_none() || bits.is_none() {
            terms.clear();
        }
        Ok(TensorFields {
            name: name.unwrap_or_default(),
            output: output.unwrap_or(false),
            bits: bits.unwrap_or(0),
            terms,
            ranks,
            error,
        })
    }

    /// Range-checks the terms and adds the tensor to `b`, or returns its
    /// first error in check order.
    fn declare(self, b: &mut WorkloadBuilder, n_dims: usize) -> Result<(), WireError> {
        let in_range = |dim: u64| usize::try_from(dim).is_ok_and(|d| d < n_dims);
        if let Some(&(dim, _)) = self.terms.iter().find(|&&(dim, _)| !in_range(dim)) {
            return Err(protocol(format!("index term references unknown dimension {dim}")));
        }
        if let Some(e) = self.error {
            return Err(e);
        }
        let mut start = 0;
        let exprs: Vec<_> = self
            .ranks
            .iter()
            .map(|&end| {
                let rank = self.terms[start..end].iter();
                start = end;
                rank.map(|&(dim, stride)| DimId::from_index(dim as usize).strided(stride))
                    .reduce(|e, next| e + next)
                    .expect("a rank has at least one term")
            })
            .collect();
        if self.output {
            b.output_bits(self.name.decode(), exprs, self.bits);
        } else {
            b.input_bits(self.name.decode(), exprs, self.bits);
        }
        Ok(())
    }
}

/// Reads a tensor's `indices` into `terms` and `ranks` up to its first
/// structural error, which it returns; the rest is only syntax-checked.
fn index_ranks<'a>(
    t: &mut Tokenizer<'a>,
    first: Token<'a>,
    terms: &mut Vec<(u64, u64)>,
    ranks: &mut Vec<usize>,
) -> Result<Result<(), WireError>, ParseError> {
    let mut error = None;
    let array = elements(t, first, |t, rank| {
        if error.is_some() {
            return t.skip(rank);
        }
        let mut empty = true;
        let is_array = elements(t, rank, |t, term| {
            empty = false;
            if error.is_none() {
                match index_term(t, term)? {
                    Ok(pair) => terms.push(pair),
                    Err(e) => error = Some(e),
                }
            } else {
                t.skip(term)?;
            }
            Ok(())
        })?;
        if !is_array {
            error = Some(protocol("index rank is not an array"));
        } else if empty {
            error = Some(protocol("index expression has no terms"));
        } else if error.is_none() {
            ranks.push(terms.len());
        }
        Ok(())
    })?;
    Ok(match error {
        _ if !array => Err(protocol("tensor missing indices")),
        Some(e) => Err(e),
        None => Ok(()),
    })
}

/// One index term: `[dim, "stride"]`.
fn index_term<'a>(
    t: &mut Tokenizer<'a>,
    first: Token<'a>,
) -> Result<Result<(u64, u64), WireError>, ParseError> {
    let (mut len, mut dim, mut stride) = (0, None, None);
    let array = elements(t, first, |t, item| {
        match len {
            0 => dim = integer(t, item)?,
            1 => stride = u64_string(t, item)?,
            _ => t.skip(item)?,
        }
        len += 1;
        Ok(())
    })?;
    Ok(match (array, len, dim, stride) {
        (false, ..) => Err(protocol("index term is not a pair")),
        (_, 2, Some(dim), Some(stride)) => Ok((dim, stride)),
        (_, 2, None, _) => Err(protocol("index term dim is not an integer")),
        (_, 2, _, None) => Err(protocol("index term stride is not a string")),
        _ => Err(protocol("index term is not a [dim, stride] pair")),
    })
}

// Readers over the tokenizer. Each takes the value's first token, consumes
// the whole value, and reports what it holds — a value of another type is
// skipped (so syntax-checked) and reads as `None` or `false`.

/// Hands each member of the object `first` opened to `member` with its
/// key and value's first token; `false` when it is not an object.
fn members<'a>(
    t: &mut Tokenizer<'a>,
    first: Token<'a>,
    mut member: impl FnMut(&mut Tokenizer<'a>, JsonStr<'a>, Token<'a>) -> Result<(), ParseError>,
) -> Result<bool, ParseError> {
    if first != Token::BeginObject {
        t.skip(first)?;
        return Ok(false);
    }
    loop {
        match t.next_token()? {
            Token::Key(key) => {
                let value = t.next_token()?;
                member(t, key, value)?;
            }
            _ => return Ok(true),
        }
    }
}

/// Hands each element of the array `first` opened to `element`; `false`
/// when it is not an array.
fn elements<'a>(
    t: &mut Tokenizer<'a>,
    first: Token<'a>,
    mut element: impl FnMut(&mut Tokenizer<'a>, Token<'a>) -> Result<(), ParseError>,
) -> Result<bool, ParseError> {
    if first != Token::BeginArray {
        t.skip(first)?;
        return Ok(false);
    }
    loop {
        match t.next_token()? {
            Token::EndArray => return Ok(true),
            item => element(t, item)?,
        }
    }
}

fn string<'a>(t: &mut Tokenizer<'a>, first: Token<'a>) -> Result<Option<JsonStr<'a>>, ParseError> {
    match first {
        Token::Str(s) => Ok(Some(s)),
        other => t.skip(other).map(|()| None),
    }
}

/// A whole number in `f64`'s exact range ([`Json::as_u64`]).
fn integer<'a>(t: &mut Tokenizer<'a>, first: Token<'a>) -> Result<Option<u64>, ParseError> {
    match first {
        Token::Num(n) => Ok(n.as_u64()),
        other => t.skip(other).map(|()| None),
    }
}

/// A `u64` in its string encoding ([`Json::as_u64_str`]).
fn u64_string<'a>(t: &mut Tokenizer<'a>, first: Token<'a>) -> Result<Option<u64>, ParseError> {
    Ok(string(t, first)?.and_then(|s| s.as_u64()))
}

/// The four presets, each built once beside its fingerprint.
fn preset_table() -> &'static [(&'static str, ArchSpec, u64)] {
    static TABLE: OnceLock<Vec<(&str, ArchSpec, u64)>> = OnceLock::new();
    TABLE.get_or_init(|| {
        [
            ("conventional", presets::conventional()),
            ("eyeriss_like", presets::eyeriss_like()),
            ("simba_like", presets::simba_like()),
            ("diannao_like", presets::diannao_like()),
        ]
        .into_iter()
        .map(|(name, arch)| {
            let fp = arch_fingerprint(&arch);
            (name, arch, fp)
        })
        .collect()
    })
}

/// The preset named `name` and its [`arch_fingerprint`], shared.
pub(crate) fn preset(name: &str) -> Option<(&'static ArchSpec, u64)> {
    preset_table().iter().find(|(n, ..)| *n == name).map(|(_, arch, fp)| (arch, *fp))
}

/// Resolves an architecture preset by name. The four presets cover the
/// paper's evaluation; the store records the name so a reloaded record
/// rebuilds the same spec (and the context fingerprint verifies it did).
pub fn arch_by_name(name: &str) -> Option<ArchSpec> {
    preset(name).map(|(arch, _)| arch.clone())
}

/// Serializes a workload to its self-contained JSON encoding.
pub fn workload_to_json(w: &Workload) -> Json {
    let dims = w
        .dims()
        .iter()
        .map(|d| {
            Json::Obj(vec![
                ("name".into(), Json::Str(d.name().to_string())),
                // Sizes are ordinary u64s but can exceed 2^53 in the
                // degenerate grids; string encoding keeps full fidelity.
                ("size".into(), u64_str(d.size())),
            ])
        })
        .collect();
    let tensors = w
        .tensors()
        .iter()
        .map(|t| {
            let indices = t
                .indices()
                .iter()
                .map(|e| {
                    Json::Arr(
                        e.terms()
                            .iter()
                            .map(|term| {
                                Json::Arr(vec![
                                    Json::Num(term.dim.index() as f64),
                                    u64_str(term.stride),
                                ])
                            })
                            .collect(),
                    )
                })
                .collect();
            Json::Obj(vec![
                ("name".into(), Json::Str(t.name().to_string())),
                ("output".into(), Json::Bool(t.is_output())),
                ("bits".into(), Json::Num(f64::from(t.bits()))),
                ("indices".into(), Json::Arr(indices)),
            ])
        })
        .collect();
    Json::Obj(vec![
        ("name".into(), Json::Str(w.name().to_string())),
        ("dims".into(), Json::Arr(dims)),
        ("tensors".into(), Json::Arr(tensors)),
    ])
}

/// Rebuilds a workload from its JSON encoding, revalidating through
/// [`Workload::builder`] (a hand-crafted or corrupt encoding fails with a
/// typed error, never a panic). The tree is read back through its text by
/// the decoder [`Request::parse`] reads workloads with, so a stored
/// workload and a requested one can never be judged differently.
pub fn workload_from_json(v: &Json) -> Result<Workload, WireError> {
    let text = v.to_string();
    let mut tokens = Tokenizer::new(&text);
    let first = tokens.next_token()?;
    WorkloadFields::read(&mut tokens, first)?.build()
}

/// Serializes a mapping's level list: the tree of the bytes the daemon
/// writes into its responses without one.
pub fn mapping_to_json(m: &Mapping) -> Json {
    let factors = |factors: &[u64]| Json::Arr(factors.iter().map(|&f| u64_str(f)).collect());
    let levels = m
        .levels()
        .iter()
        .map(|level| match level {
            MappingLevel::Temporal(t) => Json::Obj(vec![(
                "t".into(),
                Json::Obj(vec![
                    ("mem".into(), Json::Num(t.mem.0 as f64)),
                    ("factors".into(), factors(&t.factors)),
                    (
                        "order".into(),
                        Json::Arr(t.order.iter().map(|d| Json::Num(d.index() as f64)).collect()),
                    ),
                ]),
            )]),
            MappingLevel::Spatial(s) => Json::Obj(vec![(
                "s".into(),
                Json::Obj(vec![
                    ("fabric".into(), Json::Num(s.fabric.0 as f64)),
                    ("factors".into(), factors(&s.factors)),
                ]),
            )]),
        })
        .collect();
    Json::Obj(vec![("levels".into(), Json::Arr(levels))])
}

/// Appends a mapping's encoding to `out`:
/// `{"levels":[{"t":{"mem":…,"factors":["…",…],"order":[…]}},{"s":{"fabric":…,"factors":[…]}},…]}`
/// — the daemon's responses, written without the tree
/// ([`mapping_to_json`] builds the same bytes as a tree, for the store).
pub(crate) fn write_mapping(out: &mut String, m: &Mapping) {
    out.push_str("{\"levels\":[");
    for (i, level) in m.levels().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        match level {
            MappingLevel::Temporal(t) => {
                out.push_str("{\"t\":{\"mem\":");
                json::write_num(out, t.mem.0 as f64);
                out.push_str(",\"factors\":");
                write_factors(out, &t.factors);
                out.push_str(",\"order\":[");
                for (j, d) in t.order.iter().enumerate() {
                    if j > 0 {
                        out.push(',');
                    }
                    json::write_num(out, d.index() as f64);
                }
                out.push_str("]}}");
            }
            MappingLevel::Spatial(s) => {
                out.push_str("{\"s\":{\"fabric\":");
                json::write_num(out, s.fabric.0 as f64);
                out.push_str(",\"factors\":");
                write_factors(out, &s.factors);
                out.push_str("}}");
            }
        }
    }
    out.push_str("]}");
}

/// Factors in their string encoding: they are `u64`s.
fn write_factors(out: &mut String, factors: &[u64]) {
    out.push('[');
    for (i, &f) in factors.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        json::write_u64_str(out, f);
    }
    out.push(']');
}

fn factors_from_json(v: &Json) -> Result<Vec<u64>, WireError> {
    v.get("factors")
        .and_then(Json::as_arr)
        .ok_or_else(|| protocol("level missing factors"))?
        .iter()
        .map(|f| f.as_u64_str().ok_or_else(|| protocol("factor is not a u64 string")))
        .collect()
}

/// Rebuilds a mapping from its JSON encoding. Structural validity against
/// a concrete (workload, arch) pair is *not* checked here — that is
/// [`Scheduler::prime_mapping`](sunstone::Scheduler::prime_mapping)'s
/// job — but ids out of representable range are rejected.
pub fn mapping_from_json(v: &Json) -> Result<Mapping, WireError> {
    let levels =
        v.get("levels").and_then(Json::as_arr).ok_or_else(|| protocol("mapping missing levels"))?;
    let mut out = Vec::with_capacity(levels.len());
    for level in levels {
        if let Some(t) = level.get("t") {
            let mem = t
                .get("mem")
                .and_then(Json::as_u64)
                .and_then(|m| usize::try_from(m).ok())
                .ok_or_else(|| protocol("temporal level missing mem"))?;
            let order = t
                .get("order")
                .and_then(Json::as_arr)
                .ok_or_else(|| protocol("temporal level missing order"))?
                .iter()
                .map(|d| {
                    d.as_u64()
                        .and_then(|d| usize::try_from(d).ok())
                        .filter(|&d| d < sunstone_ir::DimId::MAX_DIMS)
                        .map(DimId::from_index)
                        .ok_or_else(|| protocol("order entry is not a dimension index"))
                })
                .collect::<Result<Vec<_>, _>>()?;
            out.push(MappingLevel::Temporal(TemporalLevel {
                mem: LevelId(mem),
                factors: factors_from_json(t)?,
                order,
            }));
        } else if let Some(s) = level.get("s") {
            let fabric = s
                .get("fabric")
                .and_then(Json::as_u64)
                .and_then(|f| usize::try_from(f).ok())
                .ok_or_else(|| protocol("spatial level missing fabric"))?;
            out.push(MappingLevel::Spatial(SpatialAssignment {
                fabric: LevelId(fabric),
                factors: factors_from_json(s)?,
            }));
        } else {
            return Err(protocol("level is neither temporal (\"t\") nor spatial (\"s\")"));
        }
    }
    Ok(Mapping::from_levels(out))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn conv() -> Workload {
        let mut b = Workload::builder("conv");
        let k = b.dim("K", 32);
        let c = b.dim("C", 16);
        let p = b.dim("P", 28);
        let r = b.dim("R", 3);
        b.input_bits("I", [c.expr(), p.strided(1) + r.strided(1)], 8);
        b.input("W", [k.expr(), c.expr(), r.expr()]);
        b.output("O", [k.expr(), p.expr()]);
        b.build().unwrap()
    }

    #[test]
    fn workload_round_trips_with_identical_fingerprint() {
        let w = conv();
        let text = workload_to_json(&w).to_string();
        let back = workload_from_json(&json::parse(&text).unwrap()).unwrap();
        assert_eq!(
            sunstone::fingerprint::workload_fingerprint(&w),
            sunstone::fingerprint::workload_fingerprint(&back),
        );
        assert_eq!(w.name(), back.name());
    }

    #[test]
    fn the_mapping_writer_prints_what_the_tree_prints() {
        let w = conv();
        for arch in [presets::simba_like(), presets::conventional()] {
            let m = Mapping::streaming(&w, &arch);
            let mut out = String::new();
            write_mapping(&mut out, &m);
            assert_eq!(out, mapping_to_json(&m).to_string());
        }
    }

    #[test]
    fn mapping_round_trips_with_identical_fingerprint() {
        let w = conv();
        let arch = presets::simba_like();
        let m = Mapping::streaming(&w, &arch);
        let text = mapping_to_json(&m).to_string();
        let back = mapping_from_json(&json::parse(&text).unwrap()).unwrap();
        assert_eq!(m, back);
        assert_eq!(
            sunstone::fingerprint::mapping_fingerprint(&m),
            sunstone::fingerprint::mapping_fingerprint(&back),
        );
    }

    #[test]
    fn frames_round_trip_and_reject_oversize() {
        let mut buf = Vec::new();
        write_frame(&mut buf, "{\"op\":\"cache_stats\"}").unwrap();
        write_frame(&mut buf, "second").unwrap();
        let mut r = &buf[..];
        assert_eq!(read_frame(&mut r).unwrap().as_deref(), Some("{\"op\":\"cache_stats\"}"));
        assert_eq!(read_frame(&mut r).unwrap().as_deref(), Some("second"));
        assert!(read_frame(&mut r).unwrap().is_none());

        let huge = (MAX_FRAME as u32 + 1).to_le_bytes();
        let mut r = &huge[..];
        assert!(read_frame(&mut r).is_err());
    }

    #[test]
    fn truncated_frame_is_an_error_not_a_hang() {
        let mut buf = Vec::new();
        write_frame(&mut buf, "abcdef").unwrap();
        // Cut the payload mid-way: "client killed mid-request".
        buf.truncate(7);
        let mut r = &buf[..];
        let err = read_frame(&mut r).unwrap_err();
        assert!(err.to_string().contains("closed inside"));
    }

    #[test]
    fn requests_parse_and_reject() {
        let w = workload_to_json(&conv()).to_string();
        let req = Request::parse(&format!(
            "{{\"op\":\"schedule\",\"arch\":\"simba_like\",\"workload\":{w}}}"
        ))
        .unwrap();
        assert!(matches!(req, Request::Schedule { deadline_ms: None, .. }));
        assert!(matches!(Request::parse("{\"op\":\"shutdown\"}").unwrap(), Request::Shutdown));
        assert!(Request::parse("{\"op\":\"nope\"}").is_err());
        assert!(Request::parse("{}").is_err());
        assert!(Request::parse("not json").is_err());
    }

    #[test]
    fn deadline_parses_strictly() {
        let w = workload_to_json(&conv()).to_string();
        let req = Request::parse(&format!(
            "{{\"op\":\"schedule\",\"arch\":\"simba_like\",\"workload\":{w},\"deadline_ms\":250}}"
        ))
        .unwrap();
        assert!(matches!(req, Request::Schedule { deadline_ms: Some(250), .. }));
        // A malformed deadline must be rejected, not silently unbounded.
        for bad in ["\"soon\"", "0", "-5", "1.5"] {
            let req = format!(
                "{{\"op\":\"schedule\",\"arch\":\"simba_like\",\"workload\":{w},\"deadline_ms\":{bad}}}"
            );
            assert!(Request::parse(&req).is_err(), "deadline_ms:{bad} must be rejected");
        }
    }

    #[test]
    fn arch_presets_resolve() {
        for name in ["conventional", "eyeriss_like", "simba_like", "diannao_like"] {
            assert!(arch_by_name(name).is_some(), "{name}");
        }
        assert!(arch_by_name("tpu_v9").is_none());
    }
}

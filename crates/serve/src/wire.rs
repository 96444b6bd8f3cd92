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

use sunstone_arch::{presets, ArchSpec, LevelId};
use sunstone_ir::{DimId, Workload};
use sunstone_mapping::{Mapping, MappingLevel, SpatialAssignment, TemporalLevel};

use crate::json::{self, u64_str, Json};

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
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload).map_err(|e| {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            protocol("connection closed inside a frame payload")
        } else {
            WireError::Io(e)
        }
    })?;
    let text = String::from_utf8(payload).map_err(|_| protocol("frame is not UTF-8"))?;
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
    /// Parses one request frame.
    ///
    /// # Errors
    ///
    /// [`WireError::Json`] for malformed JSON, [`WireError::Protocol`]
    /// for a well-formed frame that is not a valid request.
    pub fn parse(payload: &str) -> Result<Request, WireError> {
        let v = json::parse(payload)?;
        let op = v.get("op").and_then(Json::as_str).ok_or_else(|| protocol("missing \"op\""))?;
        match op {
            "schedule" => Ok(Request::Schedule {
                workload: workload_from_json(
                    v.get("workload").ok_or_else(|| protocol("missing \"workload\""))?,
                )?,
                arch: request_arch(&v)?,
                deadline_ms: request_deadline(&v)?,
            }),
            "schedule_batch" => {
                let items = v
                    .get("workloads")
                    .and_then(Json::as_arr)
                    .ok_or_else(|| protocol("missing \"workloads\""))?;
                let workloads =
                    items.iter().map(workload_from_json).collect::<Result<Vec<_>, _>>()?;
                Ok(Request::ScheduleBatch {
                    workloads,
                    arch: request_arch(&v)?,
                    deadline_ms: request_deadline(&v)?,
                })
            }
            "cache_stats" => Ok(Request::CacheStats),
            "shutdown" => Ok(Request::Shutdown),
            other => Err(protocol(format!("unknown op {other:?}"))),
        }
    }
}

fn request_arch(v: &Json) -> Result<String, WireError> {
    Ok(v.get("arch")
        .and_then(Json::as_str)
        .ok_or_else(|| protocol("missing \"arch\""))?
        .to_string())
}

/// Extracts the optional `deadline_ms` field. Absence is fine (no
/// deadline); a present-but-invalid value is a protocol error — silently
/// ignoring a malformed deadline would run the request unbounded, the
/// opposite of what the client asked for.
fn request_deadline(v: &Json) -> Result<Option<u64>, WireError> {
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

/// Resolves an architecture preset by name. The four presets cover the
/// paper's evaluation; the store records the name so a reloaded record
/// rebuilds the same spec (and the context fingerprint verifies it did).
pub fn arch_by_name(name: &str) -> Option<ArchSpec> {
    match name {
        "conventional" => Some(presets::conventional()),
        "eyeriss_like" => Some(presets::eyeriss_like()),
        "simba_like" => Some(presets::simba_like()),
        "diannao_like" => Some(presets::diannao_like()),
        _ => None,
    }
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
/// typed error, never a panic).
pub fn workload_from_json(v: &Json) -> Result<Workload, WireError> {
    let name =
        v.get("name").and_then(Json::as_str).ok_or_else(|| protocol("workload missing name"))?;
    let dims =
        v.get("dims").and_then(Json::as_arr).ok_or_else(|| protocol("workload missing dims"))?;
    let mut b = Workload::builder(name);
    let mut n_dims = 0usize;
    for d in dims {
        let dname =
            d.get("name").and_then(Json::as_str).ok_or_else(|| protocol("dim missing name"))?;
        let size =
            d.get("size").and_then(Json::as_u64_str).ok_or_else(|| protocol("dim missing size"))?;
        b.dim(dname, size);
        n_dims += 1;
    }
    let tensors = v
        .get("tensors")
        .and_then(Json::as_arr)
        .ok_or_else(|| protocol("workload missing tensors"))?;
    for t in tensors {
        let tname =
            t.get("name").and_then(Json::as_str).ok_or_else(|| protocol("tensor missing name"))?;
        let output = t.get("output").and_then(Json::as_bool).unwrap_or(false);
        let bits = t
            .get("bits")
            .and_then(Json::as_u64)
            .and_then(|b| u32::try_from(b).ok())
            .ok_or_else(|| protocol("tensor missing bits"))?;
        let ranks = t
            .get("indices")
            .and_then(Json::as_arr)
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

/// Serializes a mapping's level list.
pub fn mapping_to_json(m: &Mapping) -> Json {
    let levels = m
        .levels()
        .iter()
        .map(|level| match level {
            MappingLevel::Temporal(t) => Json::Obj(vec![(
                "t".into(),
                Json::Obj(vec![
                    ("mem".into(), Json::Num(t.mem.0 as f64)),
                    ("factors".into(), Json::Arr(t.factors.iter().map(|&f| u64_str(f)).collect())),
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
                    ("factors".into(), Json::Arr(s.factors.iter().map(|&f| u64_str(f)).collect())),
                ]),
            )]),
        })
        .collect();
    Json::Obj(vec![("levels".into(), Json::Arr(levels))])
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

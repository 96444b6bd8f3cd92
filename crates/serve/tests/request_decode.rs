//! The streaming request decoder held to the tree-walking one it
//! replaced (`oracle`): on real request frames, on hand-written edge
//! cases, and on seeded byte mutations of those frames, both must return
//! the same request or refuse it the same way — a syntax error at the
//! same byte with the same message, or the same protocol error. The tree
//! parser is held to the old recursive-descent parser the same way.
//!
//! A slice of the mutated frames then goes through a live daemon: every
//! answer must be a typed error or a fingerprint-correct mapping, never a
//! panic or a hang.

mod oracle;

use std::io::{BufReader, BufWriter};
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::time::Duration;

use oracle::{Decoded, Refusal};
use sunstone::fingerprint::{arch_fingerprint, mapping_fingerprint, workload_fingerprint};
use sunstone::prelude::*;
use sunstone_ir::Workload;
use sunstone_mapping::Mapping;
use sunstone_serve::json::{self, Json};
use sunstone_serve::wire::{self, Request, WireError};
use sunstone_serve::{FsyncPolicy, MappingStore, ServeConfig, Server, StoreRecord};
use sunstone_workloads::mobilenet::mobilenet_v2_blocks;
use sunstone_workloads::{resnet18_layers, resnet18_network, Precision};

const ARCH: &str = "simba_like";

/// The streaming decoder's answer, in the oracle's terms.
fn streaming(payload: &str) -> Result<Decoded, Refusal> {
    match Request::parse(payload) {
        Ok(Request::Schedule { workload, arch, deadline_ms }) => {
            Ok(Decoded::Schedule { workload: workload_fingerprint(&workload), arch, deadline_ms })
        }
        Ok(Request::ScheduleBatch { workloads, arch, deadline_ms }) => Ok(Decoded::ScheduleBatch {
            workloads: workloads.iter().map(workload_fingerprint).collect(),
            arch,
            deadline_ms,
        }),
        Ok(Request::CacheStats) => Ok(Decoded::CacheStats),
        Ok(Request::Shutdown) => Ok(Decoded::Shutdown),
        Err(WireError::Json(e)) => Err(Refusal::Json(e.at, e.message)),
        Err(WireError::Protocol(m)) => Err(Refusal::Protocol(m)),
        Err(WireError::Io(e)) => panic!("a decode does no I/O: {e}"),
    }
}

/// Both decoders agree on `payload`, and so do both tree parsers; returns
/// what they said.
fn agree(payload: &str) -> Result<Decoded, Refusal> {
    let want = oracle::decode_request(payload);
    assert_eq!(streaming(payload), want, "request decoders differ on {payload:?}");
    let tree = json::parse(payload).map(|v| v.to_string()).map_err(|e| (e.at, e.message));
    assert_eq!(
        tree,
        oracle::parse(payload).map(|v| v.text()),
        "tree parsers differ on {payload:?}"
    );
    want
}

fn schedule_frame(w: &Workload) -> String {
    Json::Obj(vec![
        ("op".into(), Json::Str("schedule".into())),
        ("arch".into(), Json::Str(ARCH.into())),
        ("workload".into(), wire::workload_to_json(w)),
    ])
    .to_string()
}

/// The fig-8 layers, then the rest of the `net_cold` network's distinct
/// shapes (ResNet-18 with its repeats, five MobileNetV2 blocks).
fn layers() -> Vec<Workload> {
    let bits = Precision::simba();
    let mut out: Vec<Workload> = resnet18_layers(16).iter().map(|l| l.inference(bits)).collect();
    let mut net: Vec<Workload> = resnet18_network(16).iter().map(|l| l.inference(bits)).collect();
    for block in mobilenet_v2_blocks(16) {
        net.extend(block.workloads(bits));
    }
    for w in net {
        if !out.iter().any(|o| workload_fingerprint(o) == workload_fingerprint(&w)) {
            out.push(w);
        }
    }
    out
}

/// xorshift64*: the mutations are reproducible from the seed alone.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// One seeded mutation of `frame`: a bit flip, an inserted byte (mostly
/// JSON punctuation, digits and literal letters), a deleted byte, or a
/// truncation. Bytes that stop being UTF-8 become U+FFFD, as a frame
/// reader would have to refuse them before any decode anyway.
fn mutate(rng: &mut Rng, frame: &str) -> String {
    const ALPHABET: &[u8] = b"{}[],:\"\\ 0123456789-+.eEtrufalsn/bu\n";
    let mut bytes = frame.as_bytes().to_vec();
    for _ in 0..1 + rng.below(2) {
        let at = rng.below(bytes.len().max(1));
        match rng.below(4) {
            0 if !bytes.is_empty() => bytes[at] ^= 1 << rng.below(8),
            1 => {
                let b = if rng.below(4) == 0 {
                    rng.next() as u8
                } else {
                    ALPHABET[rng.below(ALPHABET.len())]
                };
                bytes.insert(at.min(bytes.len()), b);
            }
            2 if !bytes.is_empty() => {
                bytes.remove(at);
            }
            _ => bytes.truncate(at),
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

#[test]
fn real_frames_decode_identically() {
    let ws = layers();
    assert_eq!(ws.len(), 26, "the net_cold shapes, fig-8 first");
    for w in &ws {
        let frame = schedule_frame(w);
        let want = Decoded::Schedule {
            workload: workload_fingerprint(w),
            arch: ARCH.into(),
            deadline_ms: None,
        };
        assert_eq!(agree(&frame), Ok(want));
    }
    let batch = Json::Obj(vec![
        ("op".into(), Json::Str("schedule_batch".into())),
        ("arch".into(), Json::Str(ARCH.into())),
        ("workloads".into(), Json::Arr(ws.iter().map(wire::workload_to_json).collect())),
        ("deadline_ms".into(), Json::Num(250.0)),
    ]);
    assert!(matches!(agree(&batch.to_string()), Ok(Decoded::ScheduleBatch { .. })));
}

#[test]
fn edge_cases_decode_identically() {
    let w = wire::workload_to_json(&resnet18_layers(16)[4].inference(Precision::simba()));
    let w = w.to_string();
    let bad_w = r#"{"name":"w","tensors":[{"name":"t","bits":8,"indices":[[[0,"1"]]]}],"dims":5}"#;
    let cases = [
        // Key order, whitespace, escaped keys and values.
        format!(r#"{{"workload":{w},"arch":"simba_like","op":"schedule"}}"#),
        format!(" {{ \"op\" : \"schedule\" ,\n\"arch\":\"simba_like\",\t\"workload\" :{w} }} "),
        format!(r#"{{"op":"schedule","arch":"simba_like","workload":{w}}}"#),
        // Duplicates: the first occurrence counts.
        format!(r#"{{"op":"schedule","op":"shutdown","arch":"simba_like","workload":{w}}}"#),
        format!(r#"{{"op":"schedule","arch":"nope","arch":"simba_like","workload":{w}}}"#),
        format!(r#"{{"op":"schedule","arch":"simba_like","workload":{w},"workload":5}}"#),
        format!(r#"{{"op":"schedule","arch":"simba_like","workload":5,"workload":{w}}}"#),
        // Unknown keys, including one holding every kind of value.
        format!(
            r#"{{"x":[1,{{"y":null,"z":[true,false,-1.5e3,"😀"]}}],"op":"schedule","arch":"simba_like","workload":{w}}}"#
        ),
        // A bad field under an op that does not read it.
        r#"{"op":"cache_stats","workload":{"name":5},"arch":7}"#.into(),
        format!(r#"{{"workload":{bad_w},"op":"shutdown"}}"#),
        format!(r#"{{"op":"schedule_batch","workload":{bad_w},"workloads":[{w}],"arch":"a"}}"#),
        // ...but never a syntax error there.
        r#"{"op":"cache_stats","workload":{"name":}}"#.into(),
        r#"{"workload":[1,2,,],"op":"cache_stats"}"#.into(),
        // Deadlines.
        format!(r#"{{"op":"schedule","arch":"simba_like","workload":{w},"deadline_ms":250}}"#),
        format!(r#"{{"op":"schedule","arch":"simba_like","workload":{w},"deadline_ms":1e3}}"#),
        format!(r#"{{"op":"schedule","arch":"simba_like","workload":{w},"deadline_ms":"soon"}}"#),
        format!(r#"{{"op":"schedule","arch":"simba_like","workload":{w},"deadline_ms":0}}"#),
        format!(r#"{{"op":"schedule","arch":"simba_like","workload":{w},"deadline_ms":-5}}"#),
        format!(r#"{{"op":"schedule","arch":"simba_like","workload":{w},"deadline_ms":1.5}}"#),
        format!(r#"{{"op":"schedule","arch":"simba_like","workload":{w},"deadline_ms":null}}"#),
        format!(
            r#"{{"op":"schedule","arch":"simba_like","workload":{w},"deadline_ms":9007199254740993}}"#
        ),
        // Which error counts when several fields are bad, in any order.
        format!(r#"{{"deadline_ms":0,"arch":5,"op":"schedule","workload":{bad_w}}}"#),
        r#"{"deadline_ms":0,"arch":5,"op":"schedule"}"#.into(),
        format!(r#"{{"deadline_ms":0,"op":"schedule","workload":{w}}}"#),
        r#"{"op":"schedule_batch","arch":"simba_like","workloads":{}}"#.into(),
        format!(r#"{{"op":"schedule_batch","arch":"simba_like","workloads":[{w},7,{bad_w}]}}"#),
        // Workload fields in other orders, with errors in several places:
        // the tree decoder checks name, dims, tensors, then per tensor
        // name, bits, indices, and the dimension range term by term.
        r#"{"op":"schedule","arch":"a","workload":{"tensors":[{"indices":[[[9,"1"]],[[0,2]]],"bits":8,"name":"t"}],"dims":[{"size":"3","name":"K"}],"name":"w"}}"#.into(),
        r#"{"op":"schedule","arch":"a","workload":{"tensors":[{"indices":[[[0,"1"]],[]],"bits":8,"name":"t"},{"name":"u","bits":8,"indices":[[[7,"1"]]]}],"dims":[{"size":"3","name":"K"}],"name":"w"}}"#.into(),
        r#"{"op":"schedule","arch":"a","workload":{"tensors":[{"indices":[[[5,"1"]]],"bits":-8,"name":"t"}],"dims":[{"name":"K","size":"3"}],"name":"w"}}"#.into(),
        r#"{"op":"schedule","arch":"a","workload":{"tensors":[{"indices":[[[0,"1"]]],"bits":8}],"dims":[{"name":"K"}],"name":"w"}}"#.into(),
        r#"{"op":"schedule","arch":"a","workload":{"name":"w","dims":[{"name":"K","size":"4"}],"tensors":[{"name":"i","bits":8,"indices":[[[0,"1",3]]]},{"name":"o","output":true,"bits":8,"indices":[[[0,"1"],[0,"2"]]]}]}}"#.into(),
        r#"{"op":"schedule","arch":"a","workload":{"name":"w","dims":[{"name":"K","size":"+4"}],"tensors":[{"name":"i","bits":8,"indices":[[["0","1"]]]}]}}"#.into(),
        r#"{"op":"schedule","arch":"a","workload":{"name":"w","dims":[{"name":"K","size":"4"}],"tensors":[{"name":"i","output":"yes","bits":8,"indices":[[[0,"1"]]]},{"name":"o","output":true,"bits":8,"indices":[[[0,"1"]]]}]}}"#.into(),
        r#"{"op":"schedule","arch":"a","workload":["name"]}"#.into(),
        // Ops and shapes that are not requests.
        r#"{"op":"a\"b"}"#.into(),
        r#"{"op":5}"#.into(),
        r#"{}"#.into(),
        "[]".into(),
        "\"schedule\"".into(),
        "5".into(),
        "".into(),
        "   ".into(),
        r#"{"op":"shutdown"} x"#.into(),
        r#"{"op":"shutdown""#.into(),
        r#"{"op" "shutdown"}"#.into(),
        r#"{"op":"sh\x"}"#.into(),
        r#"{"op":"\ud83d"}"#.into(),
        r#"{"op":"\udc00"}"#.into(),
        r#"{"op":"\u12"}"#.into(),
        r#"{"op":tru}"#.into(),
        r#"{"op":-}"#.into(),
        r#"{"op":1e}"#.into(),
        r#"{"op":[1 2]}"#.into(),
        format!(r#"{{"op":"cache_stats","deep":{}{}}}"#, "[".repeat(400), "]".repeat(400)),
    ];
    let mut refused = 0;
    for case in &cases {
        refused += usize::from(agree(case).is_err());
    }
    assert!(refused > cases.len() / 2, "the edge cases are mostly refusals");
}

#[test]
fn seeded_mutations_decode_identically() {
    let frames: Vec<String> = layers().iter().map(schedule_frame).collect();
    let mut rng = Rng(0x5EED_F00D);
    let (mut ok, mut syntax, mut protocol) = (0, 0, 0);
    for _ in 0..12_000 {
        let pick = rng.below(frames.len());
        match agree(&mutate(&mut rng, &frames[pick])) {
            Ok(_) => ok += 1,
            Err(Refusal::Json(..)) => syntax += 1,
            Err(Refusal::Protocol(_)) => protocol += 1,
        }
    }
    // The mutations reach every outcome, so the agreement is not vacuous.
    assert!(ok > 500 && syntax > 500 && protocol > 500, "{ok} ok, {syntax}, {protocol}");
}

/// A store holding, per fig-8 layer, its streaming mapping: a daemon that
/// warm-loads it answers those contexts without ever searching.
fn seeded_store(dir: &std::path::Path) -> Vec<(u64, u64)> {
    let arch = wire::arch_by_name(ARCH).unwrap();
    let session = Scheduler::new(SunstoneConfig::default());
    let mut store = MappingStore::open_with(dir, 2, FsyncPolicy::Never).unwrap();
    let mut served = Vec::new();
    for w in &layers()[..11] {
        let mapping = Mapping::streaming(w, &arch);
        let report = session.prime_mapping(w, &arch, &mapping).unwrap();
        let (ctx_fp, mapping_fp) =
            (session.context_fingerprint(w, &arch), mapping_fingerprint(&mapping));
        store
            .append(StoreRecord {
                ctx_fp,
                mapping_fp,
                arch: ARCH.into(),
                edp: report.edp,
                energy_pj: report.energy_pj,
                delay_cycles: report.delay_cycles,
                workload: wire::workload_to_json(w),
                mapping: wire::mapping_to_json(&mapping),
            })
            .unwrap();
        served.push((ctx_fp, mapping_fp));
    }
    served
}

struct Conn {
    reader: BufReader<UnixStream>,
    writer: BufWriter<UnixStream>,
}

impl Conn {
    fn open(socket: &std::path::Path) -> Conn {
        let stream = UnixStream::connect(socket).expect("the daemon accepts");
        // A wedged daemon fails the test instead of hanging it.
        stream.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
        Conn { reader: BufReader::new(stream.try_clone().unwrap()), writer: BufWriter::new(stream) }
    }

    fn call(&mut self, payload: &str) -> Json {
        wire::write_frame(&mut self.writer, payload).expect("the request goes out");
        let reply =
            wire::read_frame(&mut self.reader).expect("a reply, not a hang").expect("a frame");
        json::parse(&reply).expect("every reply is JSON")
    }
}

#[test]
fn mutated_frames_through_a_live_daemon_get_typed_or_correct_answers() {
    let base = std::env::temp_dir().join(format!("sunstone-serve-{}-fuzz", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    std::fs::create_dir_all(&base).unwrap();
    let (socket, store): (PathBuf, PathBuf) = (base.join("sock"), base.join("store"));
    let served = seeded_store(&store);
    let session = Scheduler::new(SunstoneConfig::default());
    let mut config = ServeConfig::new(&socket).with_store(&store);
    // No search tier: a mutated frame that names a new shape is shed, so
    // the slice runs in milliseconds in a debug build.
    config.max_queued_searches = 0;
    let server = Server::bind(config).expect("binds");
    let daemon = std::thread::spawn(move || server.run().expect("runs"));

    let frames: Vec<String> = layers()[..11].iter().map(schedule_frame).collect();
    let mut rng = Rng(0xD43_40E);
    let mut conn = Conn::open(&socket);
    let (mut hits, mut typed, mut closed) = (0, 0, 0);
    for _ in 0..1_000 {
        let pick = rng.below(frames.len());
        let frame = mutate(&mut rng, &frames[pick]);
        let want = oracle::decode_request(&frame);
        if want == Ok(Decoded::Shutdown) {
            continue;
        }
        let reply = conn.call(&frame);
        let kind = reply.get("kind").and_then(Json::as_str);
        match &want {
            Err(Refusal::Json(..)) => {
                assert_eq!(kind, Some("protocol_error"), "{frame:?} → {reply}");
                // The daemon closed the connection after answering.
                conn = Conn::open(&socket);
                closed += 1;
            }
            Err(Refusal::Protocol(m)) => {
                assert_eq!(kind, Some("protocol"), "{frame:?} → {reply}");
                let message = reply.get("error").and_then(Json::as_str).unwrap_or_default();
                assert!(message.ends_with(m.as_str()), "{message} vs {m}");
            }
            Ok(Decoded::Schedule { workload, arch, .. }) => match wire::arch_by_name(arch) {
                Some(arch) => {
                    let ctx_fp = session.context_fingerprint_of(*workload, arch_fingerprint(&arch));
                    match served.iter().find(|&&(ctx, _)| ctx == ctx_fp) {
                        Some(&(_, mapping_fp)) => {
                            let fp = |key| reply.get(key).and_then(Json::as_u64_str);
                            assert_eq!(fp("ctx_fp"), Some(ctx_fp), "{frame:?} → {reply}");
                            assert_eq!(fp("mapping_fp"), Some(mapping_fp), "{frame:?} → {reply}");
                            hits += 1;
                        }
                        None => {
                            assert_eq!(kind, Some("overloaded"), "{frame:?} → {reply}");
                            typed += 1;
                        }
                    }
                }
                None => {
                    assert_eq!(kind, Some("protocol"), "{frame:?} → {reply}");
                    typed += 1;
                }
            },
            Ok(_) => assert_eq!(reply.get("ok"), Some(&Json::Bool(true)), "{frame:?} → {reply}"),
        }
    }
    assert!(
        hits >= 5 && typed >= 5 && closed >= 100,
        "{hits} hits, {typed} shed or unknown-preset answers, {closed} syntax errors"
    );
    let stats = conn.call(r#"{"op":"cache_stats"}"#);
    assert_eq!(stats.get("searches").and_then(Json::as_f64), Some(0.0));
    conn.call(r#"{"op":"shutdown"}"#);
    daemon.join().expect("the daemon never panicked out");
    let _ = std::fs::remove_dir_all(&base);
}

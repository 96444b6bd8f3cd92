//! The daemon writes its responses straight into the frame; they must be
//! byte for byte what the tree encoder it replaced (`oracle`) printed:
//! for the 26 `net_cold` contexts answered by a search, from the memo and
//! from a restarted daemon's store, and for a degraded, an error, a shed
//! and a closing answer. The tree is built from the library's own numbers
//! — the context fingerprint, and the served mapping re-priced — so a
//! value in the wrong field fails as surely as a wrong byte.

mod oracle;

use std::io::{BufReader, BufWriter, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::thread::JoinHandle;

use sunstone::fingerprint::{mapping_fingerprint, workload_fingerprint};
use sunstone::prelude::*;
use sunstone_arch::ArchSpec;
use sunstone_ir::Workload;
use sunstone_serve::json::{self, Json};
use sunstone_serve::wire;
use sunstone_serve::{FsyncPolicy, ServeConfig, Server};
use sunstone_workloads::mobilenet::mobilenet_v2_blocks;
use sunstone_workloads::{resnet18_network, Precision};

const ARCH: &str = "simba_like";

/// The distinct shapes of the `net_cold` network.
fn net_cold() -> Vec<Workload> {
    let bits = Precision::simba();
    let mut all: Vec<Workload> = resnet18_network(16).iter().map(|l| l.inference(bits)).collect();
    for block in mobilenet_v2_blocks(16) {
        all.extend(block.workloads(bits));
    }
    let mut out: Vec<Workload> = Vec::new();
    for w in all {
        if !out.iter().any(|o| workload_fingerprint(o) == workload_fingerprint(&w)) {
            out.push(w);
        }
    }
    out
}

fn frame(w: &Workload, arch: &str, deadline_ms: Option<u64>) -> String {
    let mut pairs = vec![
        ("op".into(), Json::Str("schedule".into())),
        ("arch".into(), Json::Str(arch.into())),
        ("workload".into(), wire::workload_to_json(w)),
    ];
    if let Some(ms) = deadline_ms {
        pairs.push(("deadline_ms".into(), Json::Num(ms as f64)));
    }
    Json::Obj(pairs).to_string()
}

fn start(config: ServeConfig) -> JoinHandle<()> {
    let server = Server::bind(config).expect("binds");
    std::thread::spawn(move || server.run().expect("runs"))
}

struct Conn {
    reader: BufReader<UnixStream>,
    writer: BufWriter<UnixStream>,
}

impl Conn {
    fn open(socket: &Path) -> Conn {
        let stream = UnixStream::connect(socket).expect("connects");
        Conn { reader: BufReader::new(stream.try_clone().unwrap()), writer: BufWriter::new(stream) }
    }

    /// One round trip; the reply exactly as it came off the socket.
    fn call(&mut self, payload: &str) -> String {
        wire::write_frame(&mut self.writer, payload).expect("writes");
        wire::read_frame(&mut self.reader).expect("reads").expect("a reply")
    }
}

/// What the tree encoder printed for a served mapping: the reply's mapping
/// re-priced by a library session, under that session's context
/// fingerprint.
fn tree_bytes(
    reply: &str,
    w: &Workload,
    source: &str,
    degraded: bool,
    session: &Scheduler,
    arch: &ArchSpec,
) -> String {
    let v = json::parse(reply).expect("a JSON reply");
    let mapping = wire::mapping_from_json(v.get("mapping").expect("a mapping")).expect("decodes");
    let report = session.prime_mapping(w, arch, &mapping).expect("a valid mapping");
    oracle::result_body(
        session.context_fingerprint(w, arch),
        source,
        mapping_fingerprint(&mapping),
        (report.edp, report.energy_pj, report.delay_cycles),
        &mapping,
        degraded,
    )
    .text()
}

fn scratch(tag: &str) -> (PathBuf, PathBuf) {
    let base = std::env::temp_dir().join(format!("sunstone-serve-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    std::fs::create_dir_all(&base).unwrap();
    (base.join("sock"), base.join("store"))
}

#[test]
fn served_mappings_are_the_bytes_the_tree_printed() {
    let (socket, store) = scratch("bytes");
    let mut config = ServeConfig::new(&socket).with_store(&store);
    config.fsync = FsyncPolicy::Never;
    let session = Scheduler::new(config.config.clone());
    let arch = wire::arch_by_name(ARCH).unwrap();
    let layers = net_cold();
    assert_eq!(layers.len(), 26);

    let daemon = start(config.clone());
    let mut conn = Conn::open(&socket);
    for source in ["search", "memo"] {
        for w in &layers {
            let reply = conn.call(&frame(w, ARCH, None));
            assert_eq!(reply, tree_bytes(&reply, w, source, false, &session, &arch), "{source}");
        }
    }
    conn.call(r#"{"op":"shutdown"}"#);
    daemon.join().unwrap();

    let daemon = start(config);
    let mut conn = Conn::open(&socket);
    for w in &layers {
        let reply = conn.call(&frame(w, ARCH, None));
        assert_eq!(reply, tree_bytes(&reply, w, "store", false, &session, &arch));
    }
    // A search cut short by its deadline: served, marked degraded.
    let mut b = Workload::builder("slow");
    let (n, k, c) = (b.dim("N", 1), b.dim("K", 512), b.dim("C", 512));
    let (p, q, r, s) = (b.dim("P", 224), b.dim("Q", 224), b.dim("R", 3), b.dim("S", 3));
    b.input("ifmap", [n.expr(), c.expr(), p + r, q + s]);
    b.input("weight", [k.expr(), c.expr(), r.expr(), s.expr()]);
    b.output("ofmap", [n.expr(), k.expr(), p.expr(), q.expr()]);
    let slow = b.build().unwrap();
    let reply = conn.call(&frame(&slow, ARCH, Some(1)));
    assert_eq!(reply, tree_bytes(&reply, &slow, "search", true, &session, &arch));
    // Errors, on the same connection.
    let message = "unknown architecture preset \"tpu_v9\"";
    let reply = conn.call(&frame(&layers[0], "tpu_v9", None));
    assert_eq!(reply, oracle::error_response("protocol", message).text());
    let reply = conn.call(r#"{"op":"fly"}"#);
    let message = "protocol error: unknown op \"fly\"";
    assert_eq!(reply, oracle::error_response("protocol", message).text());
    // A syntax error is answered, then the connection closes.
    let reply = conn.call("{\"op\":\"shutdown\"\n\t\"\u{e9}\"}");
    let message = "JSON parse error at byte 18: expected ',' or '}'";
    assert_eq!(reply, oracle::error_response("protocol_error", message).text());
    let mut conn = Conn::open(&socket);
    conn.call(r#"{"op":"shutdown"}"#);
    daemon.join().unwrap();
}

#[test]
fn shed_answers_are_the_bytes_the_tree_printed() {
    let (socket, _) = scratch("shedbytes");
    let mut config = ServeConfig::new(&socket);
    config.max_queued_searches = 0;
    config.max_connections = 1;
    config.retry_after_ms = 40;
    let daemon = start(config);
    let mut first = Conn::open(&socket);
    let reply = first.call(&frame(&net_cold()[0], ARCH, None));
    let shed = oracle::overloaded_response(40, "search queue at capacity").text();
    assert_eq!(reply, shed);
    // Over the connection cap: one frame at accept time, then EOF.
    let mut over = BufReader::new(UnixStream::connect(&socket).unwrap());
    let reply = wire::read_frame(&mut over).unwrap().expect("the shed frame");
    let shed = oracle::overloaded_response(40, "server at connection capacity").text();
    assert_eq!(reply, shed);
    first.writer.flush().unwrap();
    first.call(r#"{"op":"shutdown"}"#);
    daemon.join().unwrap();
}

//! End-to-end daemon tests: concurrent clients, bit-identity against the
//! library path, crash-safety of the store, restart warm-loading, load
//! shedding under a connection flood, and the daemon's own per-hit phase
//! ledger. None of them gates on speed: the daemon's numbers come from the
//! repo benchmark (`benchmark/run.sh --workload serve_hot|serve_churn`).
//!
//! Each test binds its own socket under the temp dir and runs the accept
//! loop on a background thread; `shutdown` requests (the same path real
//! clients use) bring the daemon down.

use std::io::{BufReader, BufWriter, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::sync::Barrier;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use sunstone::fingerprint::mapping_fingerprint;
use sunstone::prelude::*;
use sunstone_ir::Workload;
use sunstone_serve::json::{self, Json};
use sunstone_serve::wire::{self, workload_to_json, WireError};
use sunstone_serve::{MappingStore, ServeConfig, ServeError, Server, StoreRecord};

fn conv(name: &str, k: u64, c: u64, pq: u64, r: u64) -> Workload {
    let mut b = Workload::builder(name);
    let n = b.dim("N", 1);
    let kd = b.dim("K", k);
    let cd = b.dim("C", c);
    let p = b.dim("P", pq);
    let q = b.dim("Q", pq);
    let rd = b.dim("R", r);
    let s = b.dim("S", r);
    b.input("ifmap", [n.expr(), cd.expr(), p + rd, q + s]);
    b.input("weight", [kd.expr(), cd.expr(), rd.expr(), s.expr()]);
    b.output("ofmap", [n.expr(), kd.expr(), p.expr(), q.expr()]);
    b.build().unwrap()
}

/// A small mixed-shape layer set (fast to search in debug builds).
fn mix() -> Vec<Workload> {
    vec![conv("a", 8, 8, 7, 3), conv("b", 16, 4, 7, 1), conv("c", 4, 16, 14, 3)]
}

/// Unique per-test scratch paths (socket + store dir).
fn scratch(tag: &str) -> (PathBuf, PathBuf) {
    let base = std::env::temp_dir().join(format!("sunstone-serve-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    std::fs::create_dir_all(&base).unwrap();
    (base.join("sock"), base.join("store"))
}

fn start(config: ServeConfig) -> JoinHandle<()> {
    let server = Server::bind(config).expect("binds");
    std::thread::spawn(move || server.run().expect("runs"))
}

fn schedule_request(w: &Workload) -> Json {
    Json::Obj(vec![
        ("op".into(), Json::Str("schedule".into())),
        ("arch".into(), Json::Str("conventional".into())),
        ("workload".into(), workload_to_json(w)),
    ])
}

struct Client {
    reader: BufReader<UnixStream>,
    writer: BufWriter<UnixStream>,
}

impl Client {
    fn connect(socket: &Path) -> Client {
        let stream = UnixStream::connect(socket).expect("connects");
        let reader = BufReader::new(stream.try_clone().unwrap());
        Client { reader, writer: BufWriter::new(stream) }
    }

    fn call(&mut self, request: &Json) -> Json {
        wire::write_frame(&mut self.writer, &request.to_string()).expect("writes");
        let payload = wire::read_frame(&mut self.reader).expect("reads").expect("response");
        json::parse(&payload).expect("valid response JSON")
    }

    fn schedule(&mut self, w: &Workload) -> Json {
        self.call(&schedule_request(w))
    }

    fn stats(&mut self) -> Json {
        self.call(&Json::Obj(vec![("op".into(), Json::Str("cache_stats".into()))]))
    }

    fn shutdown(&mut self) {
        let r = self.call(&Json::Obj(vec![("op".into(), Json::Str("shutdown".into()))]));
        assert_eq!(r.get("ok").and_then(Json::as_bool), Some(true));
    }
}

fn fp_of(response: &Json) -> u64 {
    assert_eq!(response.get("ok").and_then(Json::as_bool), Some(true), "daemon error: {response}");
    response.get("mapping_fp").and_then(Json::as_u64_str).expect("mapping_fp")
}

fn source_of(response: &Json) -> &str {
    response.get("source").and_then(Json::as_str).expect("source")
}

/// Library-path reference fingerprints, same config as the daemon.
fn reference_fps(layers: &[Workload]) -> Vec<u64> {
    let scheduler = Scheduler::new(SunstoneConfig::default());
    let arch = wire::arch_by_name("conventional").unwrap();
    layers
        .iter()
        .map(|w| mapping_fingerprint(&scheduler.schedule(w, &arch).expect("schedules").mapping))
        .collect()
}

#[test]
fn concurrent_clients_get_bit_identical_results() {
    let (socket, _) = scratch("concurrent");
    let handle = start(ServeConfig::new(&socket));
    let layers = mix();
    let expected = reference_fps(&layers);

    let clients: Vec<_> = (0..4)
        .map(|i| {
            let socket = socket.clone();
            let layers = layers.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(&socket);
                // Each client walks the mix from a different offset, so
                // every layer is requested concurrently by several
                // clients, some while the first search is in flight.
                (0..layers.len())
                    .map(|j| {
                        let w = &layers[(i + j) % layers.len()];
                        ((i + j) % layers.len(), fp_of(&client.schedule(w)))
                    })
                    .collect::<Vec<_>>()
            })
        })
        .collect();
    for handle in clients {
        for (idx, fp) in handle.join().expect("client thread") {
            assert_eq!(fp, expected[idx], "served mapping diverged from the library");
        }
    }

    let mut control = Client::connect(&socket);
    let stats = control.stats();
    assert_eq!(stats.get("searches").and_then(Json::as_f64), Some(3.0), "one search per layer");
    assert_eq!(stats.get("errors").and_then(Json::as_f64), Some(0.0));
    control.shutdown();
    handle.join().unwrap();
}

#[test]
fn client_killed_mid_frame_leaves_daemon_serving() {
    let (socket, _) = scratch("killed");
    let handle = start(ServeConfig::new(&socket));
    let layers = mix();
    let expected = reference_fps(&layers);

    let mut survivor = Client::connect(&socket);
    assert_eq!(fp_of(&survivor.schedule(&layers[0])), expected[0]);

    // A client dies mid-request: the frame header promises 512 bytes but
    // the connection drops after 7. The daemon must drop the connection
    // and keep serving everyone else.
    {
        let mut doomed = UnixStream::connect(&socket).unwrap();
        doomed.write_all(&512u32.to_le_bytes()).unwrap();
        doomed.write_all(b"{\"op\":\"").unwrap();
        doomed.flush().unwrap();
    } // dropped here, mid-frame

    for (i, w) in layers.iter().enumerate() {
        assert_eq!(fp_of(&survivor.schedule(w)), expected[i], "daemon wedged after client death");
    }
    let mut fresh = Client::connect(&socket);
    assert_eq!(fp_of(&fresh.schedule(&layers[1])), expected[1], "new connections still accepted");
    survivor.shutdown();
    handle.join().unwrap();
}

#[test]
fn schedule_batch_answers_every_layer() {
    let (socket, _) = scratch("batch");
    let handle = start(ServeConfig::new(&socket));
    let layers = mix();
    let expected = reference_fps(&layers);

    let mut client = Client::connect(&socket);
    let response = client.call(&Json::Obj(vec![
        ("op".into(), Json::Str("schedule_batch".into())),
        ("arch".into(), Json::Str("conventional".into())),
        ("workloads".into(), Json::Arr(layers.iter().map(workload_to_json).collect())),
    ]));
    assert_eq!(response.get("ok").and_then(Json::as_bool), Some(true));
    let rows = response.get("layers").and_then(Json::as_arr).expect("layers");
    assert_eq!(rows.len(), layers.len());
    for (row, fp) in rows.iter().zip(&expected) {
        assert_eq!(fp_of(row), *fp);
    }
    client.shutdown();
    handle.join().unwrap();
}

/// Snapshot of a store directory taken *before* clean shutdown — exactly
/// the on-disk state an unclean daemon death leaves behind (per-record
/// flushed appends, no compaction).
fn snapshot_store(store: &Path, tag: &str) -> PathBuf {
    let dest = store.with_file_name(format!("store-{tag}"));
    std::fs::create_dir_all(&dest).unwrap();
    for entry in std::fs::read_dir(store).unwrap() {
        let entry = entry.unwrap();
        std::fs::copy(entry.path(), dest.join(entry.file_name())).unwrap();
    }
    dest
}

#[test]
fn store_survives_unclean_shutdown_and_truncated_tail() {
    let (socket, store) = scratch("unclean");
    let handle = start(ServeConfig::new(&socket).with_store(&store));
    let layers = mix();
    let expected = reference_fps(&layers);

    let mut client = Client::connect(&socket);
    for w in &layers {
        assert_eq!(source_of(&client.schedule(w)), "search");
    }
    // Crash state: appends are flushed per record, compaction never ran.
    let crashed = snapshot_store(&store, "crashed");
    client.shutdown();
    handle.join().unwrap();

    // A torn final append (daemon died mid-write) on every shard.
    let mut torn_any = false;
    for entry in std::fs::read_dir(&crashed).unwrap() {
        let path = entry.unwrap().path();
        let mut f = std::fs::OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(b"{\"ctx_fp\":\"12345\",\"mapping_").unwrap();
        torn_any = true;
    }
    assert!(torn_any, "store had no shards to tear");

    let socket2 = socket.with_file_name("sock2");
    let handle2 = start(ServeConfig::new(&socket2).with_store(&crashed));
    let mut client2 = Client::connect(&socket2);
    for (i, w) in layers.iter().enumerate() {
        let response = client2.schedule(w);
        assert_eq!(source_of(&response), "store", "layer {i} not served from the store");
        assert_eq!(fp_of(&response), expected[i]);
    }
    let stats = client2.stats();
    let store_stats = stats.get("store").expect("store stats");
    assert_eq!(store_stats.get("loaded").and_then(Json::as_f64), Some(layers.len() as f64));
    assert_eq!(store_stats.get("load_skipped").and_then(Json::as_f64), Some(0.0));
    assert!(
        store_stats.get("quarantined").and_then(Json::as_f64).unwrap_or(0.0) >= 1.0,
        "torn tails must be counted"
    );
    assert_eq!(stats.get("store_hits").and_then(Json::as_f64), Some(layers.len() as f64));
    client2.shutdown();
    handle2.join().unwrap();
}

#[test]
fn restarted_daemon_serves_repeated_layer_from_store() {
    let (socket, store) = scratch("restart");
    let layers = mix();

    // Session 1: search, persist, clean shutdown (compacts).
    let handle = start(ServeConfig::new(&socket).with_store(&store));
    let mut client = Client::connect(&socket);
    let first = client.schedule(&layers[0]);
    assert_eq!(source_of(&first), "search");
    let fp = fp_of(&first);
    // A repeat within the session is a memo hit, not a store hit.
    assert_eq!(source_of(&client.schedule(&layers[0])), "memo");
    client.shutdown();
    handle.join().unwrap();

    // Between the sessions the record's stored cost goes stale, and a
    // record turns up that pairs another layer's context with this
    // layer's mapping (checksum, context and mapping fingerprints all
    // consistent — only re-validation can tell).
    {
        let mut on_disk = MappingStore::open(&store, 4).expect("opens");
        let rec = on_disk.iter().next().expect("one record").clone();
        on_disk.append(StoreRecord { edp: 1.0, ..rec.clone() }).expect("appends");
        let arch = wire::arch_by_name("conventional").unwrap();
        let ctx_fp =
            Scheduler::new(SunstoneConfig::default()).context_fingerprint(&layers[1], &arch);
        on_disk
            .append(StoreRecord { ctx_fp, workload: workload_to_json(&layers[1]), ..rec })
            .expect("appends");
    }

    // Session 2: the very first request for the repeated layer must be
    // answered from the warm-loaded store — the session's memo, primed —
    // re-priced under the current model, and counted as such; the
    // mismatched record was refused, so its layer is searched.
    let handle = start(ServeConfig::new(&socket).with_store(&store));
    let mut client = Client::connect(&socket);
    let again = client.schedule(&layers[0]);
    assert_eq!(source_of(&again), "store");
    assert_eq!(fp_of(&again), fp, "restart changed the served mapping");
    let edp = |r: &Json| r.get("edp").and_then(Json::as_f64).expect("edp").to_bits();
    assert_eq!(edp(&again), edp(&first), "a stored cost is never trusted");
    let refused = client.schedule(&layers[1]);
    assert_eq!(source_of(&refused), "search");
    assert_eq!(fp_of(&refused), reference_fps(&layers[1..2])[0]);
    let stats = client.stats();
    assert_eq!(stats.get("store_hits").and_then(Json::as_f64), Some(1.0));
    assert_eq!(stats.get("searches").and_then(Json::as_f64), Some(1.0));
    assert_eq!(stats.get("memo_entries").and_then(Json::as_f64), Some(2.0));
    let store_stats = stats.get("store").expect("store stats");
    assert_eq!(store_stats.get("loaded").and_then(Json::as_f64), Some(1.0));
    assert_eq!(store_stats.get("load_skipped").and_then(Json::as_f64), Some(1.0));
    client.shutdown();
    handle.join().unwrap();
}

#[test]
fn bind_refuses_a_live_daemon_and_a_non_socket_but_claims_a_stale_socket() {
    let (socket, _) = scratch("bindsafety");
    let handle = start(ServeConfig::new(&socket));
    // Make sure the daemon is accepting before racing a second bind.
    let mut client = Client::connect(&socket);
    client.stats();

    // A second daemon must refuse to steal the live socket...
    match Server::bind(ServeConfig::new(&socket)) {
        Err(ServeError::AlreadyRunning { socket: s }) => assert_eq!(s, socket),
        other => panic!("expected AlreadyRunning, got {other:?}", other = other.err()),
    }
    // ...and the first daemon must be unharmed by the attempt.
    assert_eq!(client.stats().get("ok").and_then(Json::as_bool), Some(true));
    client.shutdown();
    handle.join().unwrap();

    // A plain file at the socket path is never deleted.
    let decoy = socket.with_file_name("decoy");
    std::fs::write(&decoy, b"operator data").unwrap();
    match Server::bind(ServeConfig::new(&decoy)) {
        Err(ServeError::NotASocket { path }) => assert_eq!(path, decoy),
        other => panic!("expected NotASocket, got {other:?}", other = other.err()),
    }
    assert_eq!(std::fs::read(&decoy).unwrap(), b"operator data");

    // A stale socket (bound once, daemon long gone, file left behind) is
    // taken over: connect gets ECONNREFUSED, so the path is reclaimed.
    let stale = socket.with_file_name("stale");
    drop(std::os::unix::net::UnixListener::bind(&stale).unwrap());
    assert!(stale.exists(), "listener drop must leave the socket file");
    let server = Server::bind(ServeConfig::new(&stale)).expect("stale socket is reclaimed");
    drop(server);
}

#[test]
fn protocol_violations_get_typed_responses() {
    let (socket, _) = scratch("protoerr");
    let handle = start(ServeConfig::new(&socket));

    // An over-MAX_FRAME length prefix: one typed protocol_error frame,
    // then close — not a silent drop.
    {
        let stream = UnixStream::connect(&socket).unwrap();
        let mut w = BufWriter::new(stream.try_clone().unwrap());
        let mut r = BufReader::new(stream);
        let huge = (wire::MAX_FRAME as u32 + 1).to_le_bytes();
        w.write_all(&huge).unwrap();
        w.flush().unwrap();
        let payload = wire::read_frame(&mut r).expect("typed response").expect("frame");
        let v = json::parse(&payload).unwrap();
        assert_eq!(v.get("ok").and_then(Json::as_bool), Some(false));
        assert_eq!(v.get("kind").and_then(Json::as_str), Some("protocol_error"));
        assert!(wire::read_frame(&mut r).expect("clean close").is_none(), "connection must close");
    }

    // Malformed JSON in a well-framed payload: same typed answer + close.
    {
        let stream = UnixStream::connect(&socket).unwrap();
        let mut w = BufWriter::new(stream.try_clone().unwrap());
        let mut r = BufReader::new(stream);
        wire::write_frame(&mut w, "{not json").unwrap();
        let payload = wire::read_frame(&mut r).expect("typed response").expect("frame");
        let v = json::parse(&payload).unwrap();
        assert_eq!(v.get("kind").and_then(Json::as_str), Some("protocol_error"));
        assert!(wire::read_frame(&mut r).expect("clean close").is_none(), "connection must close");
    }

    // Valid JSON that is not a valid request: typed "protocol" error and
    // the connection stays usable (framing was never in doubt).
    let mut client = Client::connect(&socket);
    let v = client.call(&Json::Obj(vec![("op".into(), Json::Str("fly".into()))]));
    assert_eq!(v.get("kind").and_then(Json::as_str), Some("protocol"));
    assert_eq!(fp_of(&client.schedule(&mix()[0])), reference_fps(&mix()[..1])[0]);
    client.shutdown();
    handle.join().unwrap();
}

#[test]
fn connection_cap_sheds_with_typed_overloaded_response() {
    let (socket, _) = scratch("connshed");
    let mut config = ServeConfig::new(&socket);
    config.max_connections = 1;
    config.retry_after_ms = 40;
    let handle = start(config);

    // First client occupies the only slot (a completed call proves its
    // handler is registered, not still racing through accept).
    let mut first = Client::connect(&socket);
    first.stats();

    // Second connection: one overloaded frame, then EOF.
    {
        let stream = UnixStream::connect(&socket).unwrap();
        let mut r = BufReader::new(stream.try_clone().unwrap());
        let payload = wire::read_frame(&mut r).expect("shed frame").expect("frame");
        let v = json::parse(&payload).unwrap();
        assert_eq!(v.get("ok").and_then(Json::as_bool), Some(false));
        assert_eq!(v.get("kind").and_then(Json::as_str), Some("overloaded"));
        assert_eq!(v.get("retry_after_ms").and_then(Json::as_f64), Some(40.0));
        assert!(wire::read_frame(&mut r).expect("clean close").is_none());
    }

    // The admitted client is untouched, and the shed is counted.
    let stats = first.stats();
    assert_eq!(stats.get("shed_connections").and_then(Json::as_f64), Some(1.0));
    assert_eq!(stats.get("conns_live").and_then(Json::as_f64), Some(1.0));
    assert_eq!(stats.get("conns_peak").and_then(Json::as_f64), Some(1.0));
    first.shutdown();
    handle.join().unwrap();
}

/// What one flood client saw: its one reply, and whether the daemon then
/// closed the connection.
struct Flooded {
    reply: Option<Json>,
    closed: bool,
}

/// Whether the daemon has closed the connection: EOF, possibly behind the
/// one reset a Unix socket reports when its peer closed with our request
/// still unread.
fn closed_by_daemon(reader: &mut BufReader<UnixStream>) -> bool {
    match wire::read_frame(reader) {
        Ok(None) => true,
        Err(WireError::Io(e)) if e.kind() == std::io::ErrorKind::ConnectionReset => {
            matches!(wire::read_frame(reader), Ok(None))
        }
        _ => false,
    }
}

/// One flood client: connect when the start line drops, send `request`,
/// read the reply — and, when it is a shed, the close behind it — then
/// hold the connection until every client has its answer. Failures are
/// reported, not raised, so every client reaches the second barrier.
fn flood_client(socket: &Path, request: &str, start: &Barrier, answered: &Barrier) -> Flooded {
    start.wait();
    let connection = (|| {
        let stream = UnixStream::connect(socket).ok()?;
        stream.set_read_timeout(Some(Duration::from_secs(30))).ok()?;
        let mut reader = BufReader::new(stream.try_clone().ok()?);
        // A shed connection may already be closed for writing: its
        // `overloaded` frame was written at accept and waits in the
        // receive buffer either way, so the write's result is moot.
        let _ = wire::write_frame(&mut BufWriter::new(&stream), request);
        let reply = json::parse(&wire::read_frame(&mut reader).ok()??).ok()?;
        let shed = reply.get("kind").and_then(Json::as_str) == Some("overloaded");
        let closed = shed && closed_by_daemon(&mut reader);
        Some((Flooded { reply: Some(reply), closed }, stream))
    })();
    answered.wait();
    connection.map_or(Flooded { reply: None, closed: false }, |(flooded, _)| flooded)
}

/// A connection flood against the admission cap. A control connection
/// holds one of four slots; 64 clients released at once each send one
/// `schedule` for a warm layer, and the admitted ones keep their slot
/// until every client has its answer — so exactly 3 are admitted and 61
/// shed. Whatever is served is the library's mapping, every shed is the
/// typed `overloaded` frame followed by a close, the daemon counts each
/// shed, and afterwards it drains back to the control connection alone.
#[test]
fn a_connection_flood_sheds_the_excess_serves_identically_and_drains() {
    const CAP: usize = 4;
    const CLIENTS: usize = 64;
    let (socket, _) = scratch("flood");
    let mut config = ServeConfig::new(&socket);
    config.max_connections = CAP;
    let handle = start(config);
    let layer = mix().swap_remove(0);
    let expected = reference_fps(std::slice::from_ref(&layer))[0];

    // The warm-up is a completed call, so the control connection's
    // handler holds its slot before the flood starts.
    let mut control = Client::connect(&socket);
    assert_eq!(fp_of(&control.schedule(&layer)), expected);

    let request = schedule_request(&layer).to_string();
    let (start_line, answered) = (Barrier::new(CLIENTS), Barrier::new(CLIENTS));
    let flood: Vec<Flooded> = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..CLIENTS)
            .map(|_| scope.spawn(|| flood_client(&socket, &request, &start_line, &answered)))
            .collect();
        clients.into_iter().map(|c| c.join().expect("flood client")).collect()
    });

    let (mut admitted, mut shed) = (0, 0);
    for (i, f) in flood.iter().enumerate() {
        let reply = f.reply.as_ref().unwrap_or_else(|| panic!("flood client {i} got no reply"));
        if reply.get("kind").and_then(Json::as_str) == Some("overloaded") {
            assert_eq!(reply.get("ok").and_then(Json::as_bool), Some(false));
            assert!(f.closed, "flood client {i}: a shed connection must close after its frame");
            shed += 1;
        } else {
            assert_eq!(fp_of(reply), expected, "flood client {i}: served mapping diverged");
            admitted += 1;
        }
    }
    assert_eq!((admitted, shed), (CAP - 1, CLIENTS - (CAP - 1)));

    let stats = control.stats();
    assert_eq!(stats.get("shed_connections").and_then(Json::as_f64), Some(shed as f64));
    assert_eq!(stats.get("errors").and_then(Json::as_f64), Some(0.0));
    // The admitted clients have hung up; their handlers must all exit.
    let draining = Instant::now();
    loop {
        let live = control.stats().get("conns_live").and_then(Json::as_f64);
        if live == Some(1.0) {
            break;
        }
        assert!(draining.elapsed() < Duration::from_secs(10), "{live:?} connections still live");
        std::thread::sleep(Duration::from_millis(10));
    }
    control.shutdown();
    handle.join().unwrap();
}

#[test]
fn search_queue_cap_sheds_requests_but_serves_memo_hits() {
    let (socket, _) = scratch("queueshed");
    let mut config = ServeConfig::new(&socket);
    // Zero queued searches: every memo miss is deterministically shed.
    config.max_queued_searches = 0;
    let handle = start(config);
    let layers = mix();

    let mut client = Client::connect(&socket);
    let v = client.schedule(&layers[0]);
    assert_eq!(v.get("ok").and_then(Json::as_bool), Some(false));
    assert_eq!(v.get("kind").and_then(Json::as_str), Some("overloaded"));
    assert!(v.get("retry_after_ms").and_then(Json::as_f64).is_some());
    // The connection survives a shed request.
    let stats = client.stats();
    assert_eq!(stats.get("shed_requests").and_then(Json::as_f64), Some(1.0));
    assert_eq!(stats.get("searches").and_then(Json::as_f64), Some(0.0));
    client.shutdown();
    handle.join().unwrap();
}

#[test]
fn deadline_cut_search_serves_degraded_best_so_far_and_is_not_memoized() {
    let (socket, _) = scratch("deadline");
    let handle = start(ServeConfig::new(&socket));
    // A shape whose search spends nearly all of its time in one estimate
    // round, which observes the deadline claim by claim, after a first
    // stage that takes a few percent of it. The deadline is half of what
    // an undeadlined library search of the shape takes on this machine
    // and build (the faster of two), so it reliably cuts the daemon's
    // search *and* the degraded answer reliably lands inside 2x the
    // deadline, however fast the machine or the model.
    let w = conv("slow", 512, 512, 224, 3);
    let arch = wire::arch_by_name("conventional").unwrap();
    let full = (0..2)
        .map(|_| {
            let started = std::time::Instant::now();
            Scheduler::new(SunstoneConfig::default()).schedule(&w, &arch).expect("schedules");
            started.elapsed()
        })
        .min()
        .unwrap();
    let deadline_ms = (full.as_millis() as u64 / 2).max(1);

    let mut client = Client::connect(&socket);
    let request = Json::Obj(vec![
        ("op".into(), Json::Str("schedule".into())),
        ("arch".into(), Json::Str("conventional".into())),
        ("workload".into(), workload_to_json(&w)),
        ("deadline_ms".into(), Json::Num(deadline_ms as f64)),
    ]);
    let started = std::time::Instant::now();
    let v = client.call(&request);
    let elapsed = started.elapsed();
    assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true), "deadline hit is not an error");
    assert_eq!(v.get("degraded").and_then(Json::as_bool), Some(true), "must be marked degraded");
    assert_eq!(source_of(&v), "search");
    assert!(v.get("mapping_fp").and_then(Json::as_u64_str).is_some(), "carries a usable mapping");
    assert!(
        elapsed < std::time::Duration::from_millis(deadline_ms * 2),
        "deadline-hit response took {elapsed:?}, over 2x the {deadline_ms}ms deadline"
    );

    // A degraded result must not be memoized: the next request searches
    // again with its own budget instead of inheriting the cut result.
    let v2 = client.call(&request);
    assert_eq!(source_of(&v2), "search", "degraded results must not enter the memo");
    let stats = client.stats();
    assert_eq!(stats.get("searches").and_then(Json::as_f64), Some(2.0));
    assert_eq!(stats.get("degraded").and_then(Json::as_f64), Some(2.0));

    // An undeadlined request completes and serves the true best.
    let full = client.schedule(&w);
    assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true));
    assert_eq!(full.get("degraded").and_then(Json::as_bool), Some(false));
    assert_eq!(source_of(&full), "search");
    client.shutdown();
    handle.join().unwrap();
}

#[test]
fn flipped_bit_in_store_is_quarantined_and_never_served() {
    let (socket, store) = scratch("bitflip");
    let layers = mix();
    let expected = reference_fps(&layers);

    // Session 1: persist all three layers, clean shutdown.
    let handle = start(ServeConfig::new(&socket).with_store(&store));
    let mut client = Client::connect(&socket);
    for w in &layers {
        client.schedule(w);
    }
    client.shutdown();
    handle.join().unwrap();

    // Flip one bit in the middle of one record line of one shard.
    let mut flipped = false;
    for entry in std::fs::read_dir(&store).unwrap() {
        let path = entry.unwrap().path();
        if flipped || path.extension().map(|e| e != "log").unwrap_or(true) {
            continue;
        }
        let mut bytes = std::fs::read(&path).unwrap();
        let header_end = bytes.iter().position(|&b| b == b'\n').unwrap();
        if header_end + 1 >= bytes.len() {
            continue; // header-only shard
        }
        let rest = &bytes[header_end + 1..];
        let line_len = rest.iter().position(|&b| b == b'\n').unwrap_or(rest.len());
        let target = header_end + 1 + line_len / 2;
        bytes[target] ^= 0x04;
        std::fs::write(&path, &bytes).unwrap();
        flipped = true;
    }
    assert!(flipped, "no shard with a record to corrupt");

    // Session 2: the corrupt record is quarantined, counted, and its
    // layer re-searched to the same answer — never served from the bad
    // bytes.
    let handle = start(ServeConfig::new(&socket).with_store(&store));
    let mut client = Client::connect(&socket);
    let mut sources = Vec::new();
    for (i, w) in layers.iter().enumerate() {
        let v = client.schedule(w);
        assert_eq!(fp_of(&v), expected[i], "layer {i} served a wrong mapping after corruption");
        sources.push(source_of(&v).to_string());
    }
    assert_eq!(
        sources.iter().filter(|s| s.as_str() == "search").count(),
        1,
        "exactly the corrupted layer must be re-searched (sources: {sources:?})"
    );
    let stats = client.stats();
    let store_stats = stats.get("store").expect("store stats");
    assert_eq!(store_stats.get("quarantined").and_then(Json::as_f64), Some(1.0));
    assert_eq!(store_stats.get("load_skipped").and_then(Json::as_f64), Some(0.0));
    let sidecars = std::fs::read_dir(&store)
        .unwrap()
        .filter(|e| {
            e.as_ref().unwrap().path().extension().map(|x| x == "quarantine").unwrap_or(false)
        })
        .count();
    assert_eq!(sidecars, 1, "the corrupt line must land in a quarantine sidecar");
    client.shutdown();
    handle.join().unwrap();
}

#[test]
fn v1_fixture_migrates_serves_bit_identically_and_survives_compaction() {
    use sunstone_serve::MappingStore;

    // A store written by the v1 daemon (PR 8 vintage): plain JSON record
    // lines, no checksums. Committed as a fixture so migration is tested
    // against real historical bytes, not a synthetic reconstruction.
    let fixture = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/store-v1/shard-00.log");
    let raw = std::fs::read_to_string(&fixture).expect("fixture exists");
    let mut lines = raw.lines();
    let header = lines.next().expect("fixture header");
    assert!(header.contains("sunstone-store/v1"), "fixture must be v1");
    // (ctx_fp, mapping_fp, full record JSON) per fixture line.
    let expected: Vec<(u64, u64, Json)> = lines
        .map(|l| {
            let v = json::parse(l).expect("fixture line parses");
            (
                v.get("ctx_fp").and_then(Json::as_u64_str).unwrap(),
                v.get("mapping_fp").and_then(Json::as_u64_str).unwrap(),
                v,
            )
        })
        .collect();
    assert_eq!(expected.len(), 3, "fixture carries three records");

    let (socket, store) = scratch("v1migrate");
    std::fs::create_dir_all(&store).unwrap();
    // Patch the header's cost-model version to the current one: the
    // fixture pins the *layout*, not the pricing epoch (a genuinely
    // version-skewed shard is rightly discarded, which
    // version_skew_discards_the_shard covers at the unit level).
    let patched = raw.replacen(
        "\"cost_model\":1",
        &format!("\"cost_model\":{}", sunstone_model::COST_MODEL_VERSION),
        1,
    );
    std::fs::write(store.join("shard-00.log"), patched).unwrap();

    // Library-level: opening migrates, preserving every record field
    // bit-identically, and rewrites the shard as checksummed v2.
    {
        let s = MappingStore::open(&store, 1).unwrap();
        assert_eq!(s.stats().migrated_shards, 1);
        assert_eq!(s.stats().quarantined, 0);
        assert_eq!(s.len(), 3);
        for (ctx_fp, mapping_fp, v) in &expected {
            let rec = s.get(*ctx_fp).expect("record survived migration");
            assert_eq!(rec.mapping_fp, *mapping_fp);
            assert_eq!(Json::Num(rec.edp), *v.get("edp").unwrap());
            assert_eq!(Json::Num(rec.energy_pj), *v.get("energy_pj").unwrap());
            assert_eq!(Json::Num(rec.delay_cycles), *v.get("delay_cycles").unwrap());
            assert_eq!(rec.workload.to_string(), v.get("workload").unwrap().to_string());
            assert_eq!(rec.mapping.to_string(), v.get("mapping").unwrap().to_string());
        }
        let migrated = std::fs::read_to_string(store.join("shard-00.log")).unwrap();
        assert!(migrated.lines().next().unwrap().contains("sunstone-store/v2"));
        assert_eq!(migrated.lines().count(), 4, "header + three checksummed records");
    }

    // Round-trip through compaction, then reopen: nothing lost, no
    // second migration.
    {
        let mut s = MappingStore::open(&store, 1).unwrap();
        assert_eq!(s.stats().migrated_shards, 0, "migration must be one-shot");
        s.compact().unwrap();
    }
    let s = MappingStore::open(&store, 1).unwrap();
    assert_eq!(s.len(), 3);
    assert_eq!(s.stats().quarantined, 0);
    drop(s);

    // Daemon-level: a daemon started on the migrated store warm-loads
    // and re-serves every fixture record with its original fingerprint.
    let handle = start(ServeConfig::new(&socket).with_store(&store));
    let mut client = Client::connect(&socket);
    for (_, mapping_fp, v) in &expected {
        let w = wire::workload_from_json(v.get("workload").unwrap()).unwrap();
        let response = client.schedule(&w);
        assert_eq!(source_of(&response), "store", "fixture record must serve from the store");
        assert_eq!(fp_of(&response), *mapping_fp, "fixture mapping diverged");
    }
    let stats = client.stats();
    assert_eq!(stats.get("store").and_then(|s| s.get("loaded")).and_then(Json::as_f64), Some(3.0));
    assert_eq!(
        stats.get("store").and_then(|s| s.get("load_skipped")).and_then(Json::as_f64),
        Some(0.0)
    );
    client.shutdown();
    handle.join().unwrap();
}

#[test]
fn stats_report_uptime_and_degraded_defaults() {
    let (socket, _) = scratch("statshape");
    let handle = start(ServeConfig::new(&socket));
    let mut client = Client::connect(&socket);
    let stats = client.stats();
    for key in
        ["uptime_secs", "conns_live", "conns_peak", "shed_connections", "shed_requests", "degraded"]
    {
        assert!(stats.get(key).and_then(Json::as_f64).is_some(), "cache_stats missing {key}");
    }
    // A normal scheduled response advertises degraded:false explicitly.
    let v = client.schedule(&mix()[1]);
    assert_eq!(v.get("degraded").and_then(Json::as_bool), Some(false));
    client.shutdown();
    handle.join().unwrap();
}

/// The daemon's own ledger of its memo hits (`cache_stats` `hit_path`):
/// N hits on one connection are N ledger requests, every phase took
/// time, and the phases — timed inside the daemon from a frame's first
/// byte to its reply written — add up to no more than the client's wall
/// time for the same N round trips.
#[test]
fn hit_path_ledger_counts_memo_hits_within_the_clients_wall_time() {
    const HITS: usize = 100;
    let (socket, _) = scratch("hitpath");
    let handle = start(ServeConfig::new(&socket));
    let layer = &mix()[0];
    let mut client = Client::connect(&socket);
    assert_eq!(source_of(&client.schedule(layer)), "search");

    let started = Instant::now();
    for _ in 0..HITS {
        assert_eq!(source_of(&client.schedule(layer)), "memo");
    }
    let wall_ns = started.elapsed().as_nanos() as f64;

    let stats = client.stats();
    let ledger = stats.get("hit_path").expect("hit_path");
    assert_eq!(ledger.get("requests").and_then(Json::as_f64), Some(HITS as f64));
    let mut phases_ns = 0.0;
    for phase in ["read", "parse", "resolve", "encode", "write"] {
        let ns = ledger.get(&format!("{phase}_ns")).and_then(Json::as_f64);
        let ns = ns.unwrap_or_else(|| panic!("hit_path has no {phase}_ns"));
        assert!(ns > 0.0, "{phase} took no time over {HITS} hits");
        phases_ns += ns;
    }
    assert!(phases_ns <= wall_ns, "daemon phases {phases_ns} ns > client wall {wall_ns} ns");
    client.shutdown();
    handle.join().unwrap();
}

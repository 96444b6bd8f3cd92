//! Daemon serving benchmark: latency/throughput of `sunstone-serve`
//! under a zipfian request mix, emitted as `BENCH_serve.json`.
//!
//! The daemon must already be listening (start it with
//! `sunstone-serve --socket PATH [--store DIR]`); this binary is a pure
//! client. Three phases:
//!
//! 1. **warm** — every unique layer is scheduled once, so the timed
//!    phase measures the serve path (memo/store lookups), not search.
//! 2. **gate** — every unique layer is also scheduled through an
//!    in-process library [`Scheduler`] with the daemon's default
//!    configuration, and the served `mapping_fp` must be bit-identical.
//!    Any divergence is counted in `fp_mismatches` (CI gates on zero).
//! 3. **timed** — `--clients` concurrent connections draw `--requests`
//!    total requests from a zipfian (s = 1.0) popularity distribution
//!    over the ResNet-18 + MobileNetV2 layer mix, recording per-request
//!    latency; the report carries p50/p99/mean and aggregate qps plus
//!    the daemon's own hit counters and its per-hit phase ledger
//!    (`hit_path_us`). Each request is encoded once up front and a reply
//!    is checked by its `"ok":true` prefix, so the client's own JSON work
//!    stays out of the timed loop.
//! 4. **flood** (`--flood N`, off by default) — N clients connect at
//!    once (barrier-released) against a daemon whose connection cap is
//!    far smaller, each issuing up to four warm-layer requests. Every
//!    served response is fingerprint-checked, every typed `overloaded`
//!    shed is counted, and afterwards the daemon is polled until its
//!    `conns_live` drains back to the control connection alone — the
//!    `overload` block is what `ci.sh` gates on (zero mismatches, zero
//!    leaked handlers, shed > 0).
//!
//! ```text
//! Usage: bench_serve --socket PATH [smoke|probe] [--requests N]
//!                    [--clients N] [--flood N] [--out FILE] [--shutdown]
//! ```
//!
//! * `smoke` — CI mode: fewer layers, fewer requests.
//! * `probe` — no benchmark: assert every known layer is answered with
//!   `source == "store"` (the restart warm-load acceptance check), then
//!   exit. Nonzero exit on any miss.
//! * `--shutdown` — send a `shutdown` request when done, so CI can run
//!   the daemon in the foreground-less background and still reap it.
//!
//! The schema is documented in `results/README.md`.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::io::{BufReader, BufWriter};
use std::os::unix::net::UnixStream;
use std::process::ExitCode;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use sunstone::fingerprint::mapping_fingerprint;
use sunstone::prelude::*;
use sunstone_ir::Workload;
use sunstone_serve::json::{self, Json};
use sunstone_serve::wire::{self, workload_to_json};
use sunstone_workloads::mobilenet::mobilenet_v2_blocks;
use sunstone_workloads::{resnet18_layers, Precision};

const ARCH: &str = "simba_like";

/// The phases of the daemon's `cache_stats` `hit_path` ledger.
const HIT_PHASES: [&str; 5] = ["read", "parse", "resolve", "encode", "write"];

/// One client connection speaking the frame protocol.
struct Conn {
    reader: BufReader<UnixStream>,
    writer: BufWriter<UnixStream>,
}

impl Conn {
    fn open(socket: &str) -> std::io::Result<Conn> {
        let stream = UnixStream::connect(socket)?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Conn { reader, writer: BufWriter::new(stream) })
    }

    /// One request/response round trip.
    fn call(&mut self, request: &Json) -> Result<Json, String> {
        let payload = self.call_raw(&request.to_string())?;
        json::parse(&payload).map_err(|e| format!("parse: {e}"))
    }

    /// One round trip on raw payloads, so the timed phase encodes each
    /// request once and leaves the reply unparsed.
    fn call_raw(&mut self, request: &str) -> Result<String, String> {
        wire::write_frame(&mut self.writer, request).map_err(|e| format!("write: {e}"))?;
        match wire::read_frame(&mut self.reader) {
            Ok(Some(payload)) => Ok(payload),
            Ok(None) => Err("daemon closed the connection".into()),
            Err(e) => Err(format!("read: {e}")),
        }
    }
}

fn schedule_request(w: &Workload) -> Json {
    Json::Obj(vec![
        ("op".into(), Json::Str("schedule".into())),
        ("arch".into(), Json::Str(ARCH.into())),
        ("workload".into(), workload_to_json(w)),
    ])
}

fn op_request(op: &str) -> Json {
    Json::Obj(vec![("op".into(), Json::Str(op.into()))])
}

/// The fig8-style layer mix: ResNet-18 convolutions plus MobileNetV2
/// inverted-residual stages (expand/depthwise/project).
fn layer_mix(smoke: bool) -> Vec<Workload> {
    let bits = Precision::simba();
    let mut layers: Vec<Workload> = resnet18_layers(16).iter().map(|l| l.inference(bits)).collect();
    for block in mobilenet_v2_blocks(16) {
        layers.extend(block.workloads(bits));
    }
    if smoke {
        // First conv of each shape class + one full inverted residual.
        layers.truncate(3);
        layers.extend(mobilenet_v2_blocks(16)[0].workloads(bits));
    }
    layers
}

/// Inverse-CDF zipfian sampler over `n` ranks, s = 1.0.
struct Zipf {
    cumulative: Vec<f64>,
}

impl Zipf {
    fn new(n: usize) -> Zipf {
        let mut cumulative = Vec::with_capacity(n);
        let mut total = 0.0;
        for rank in 1..=n {
            total += 1.0 / rank as f64;
            cumulative.push(total);
        }
        Zipf { cumulative }
    }

    fn sample(&self, rng: &mut StdRng) -> usize {
        let total = *self.cumulative.last().expect("non-empty mix");
        let u = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64 * total;
        self.cumulative.partition_point(|&c| c < u).min(self.cumulative.len() - 1)
    }
}

fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx]
}

fn esc(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// What one flood client observed (summed over the burst for the
/// report's `overload` block).
#[derive(Default)]
struct FloodTally {
    /// Served responses whose `mapping_fp` matched the warm phase.
    ok: usize,
    /// Typed `overloaded` sheds (connection- or request-level).
    shed: usize,
    /// Transport failures: refused connects, unparseable frames, EOF.
    errors: usize,
    /// Served responses that contradicted the warm phase — the one
    /// number that must be zero no matter how hard the daemon sheds.
    fp_mismatches: usize,
}

/// One flood client: barrier-released connect, then up to four
/// warm-layer requests. The request write runs unconditionally but its
/// result is ignored — a shed connection's `overloaded` frame is
/// written by the daemon at accept time and sits in the local receive
/// buffer even when the write half is already broken, so the read that
/// follows classifies the connection either way.
fn flood_client(
    socket: &str,
    offset: usize,
    layers: &[Workload],
    expect: &HashMap<u64, u64>,
    barrier: &Barrier,
) -> FloodTally {
    let mut tally = FloodTally::default();
    barrier.wait();
    let stream = match UnixStream::connect(socket) {
        Ok(s) => s,
        Err(_) => {
            tally.errors += 1;
            return tally;
        }
    };
    let _ = stream.set_read_timeout(Some(Duration::from_secs(10)));
    let clone = match stream.try_clone() {
        Ok(s) => s,
        Err(_) => {
            tally.errors += 1;
            return tally;
        }
    };
    let mut reader = BufReader::new(clone);
    let mut writer = BufWriter::new(stream);
    for j in 0..4 {
        let w = &layers[(offset + j) % layers.len()];
        let _ = wire::write_frame(&mut writer, &schedule_request(w).to_string());
        let response = match wire::read_frame(&mut reader) {
            Ok(Some(payload)) => match json::parse(&payload) {
                Ok(v) => v,
                Err(_) => {
                    tally.errors += 1;
                    return tally;
                }
            },
            Ok(None) | Err(_) => {
                tally.errors += 1;
                return tally;
            }
        };
        if response.get("kind").and_then(Json::as_str) == Some("overloaded") {
            tally.shed += 1;
            return tally;
        }
        if response.get("ok").and_then(Json::as_bool) != Some(true) {
            tally.errors += 1;
            return tally;
        }
        let ctx = response.get("ctx_fp").and_then(Json::as_u64_str).unwrap_or(0);
        let fp = response.get("mapping_fp").and_then(Json::as_u64_str).unwrap_or(0);
        if expect.get(&ctx) == Some(&fp) {
            tally.ok += 1;
        } else {
            tally.fp_mismatches += 1;
        }
    }
    tally
}

fn counter(stats: &Json, path: &[&str]) -> f64 {
    let mut v = stats;
    for key in path {
        match v.get(key) {
            Some(next) => v = next,
            None => return 0.0,
        }
    }
    v.as_f64().unwrap_or(0.0)
}

/// Restart acceptance probe: every layer in the mix must come back from
/// the warm-loaded store, and the daemon must count the hits.
fn probe(socket: &str, layers: &[Workload], shutdown: bool) -> ExitCode {
    let mut conn = match Conn::open(socket) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("bench_serve: cannot connect to {socket}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut failures = 0usize;
    for w in layers {
        let response = match conn.call(&schedule_request(w)) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("probe: {}: {e}", w.name());
                failures += 1;
                continue;
            }
        };
        let ok = response.get("ok").and_then(Json::as_bool).unwrap_or(false);
        let source = response.get("source").and_then(Json::as_str).unwrap_or("");
        if !ok || source != "store" {
            eprintln!("probe: {}: ok={ok} source={source:?} (expected \"store\")", w.name());
            failures += 1;
        }
    }
    let stats = conn.call(&op_request("cache_stats")).unwrap_or(Json::Null);
    let store_hits = counter(&stats, &["store_hits"]);
    let loaded = counter(&stats, &["store", "loaded"]);
    if store_hits < layers.len() as f64 {
        eprintln!("probe: store_hits {store_hits} < {} layers", layers.len());
        failures += 1;
    }
    if loaded < layers.len() as f64 {
        eprintln!("probe: warm-loaded {loaded} < {} layers", layers.len());
        failures += 1;
    }
    if shutdown {
        let _ = conn.call(&op_request("shutdown"));
    }
    if failures == 0 {
        println!(
            "probe OK: {} layers served from the warm-loaded store ({loaded} loaded)",
            layers.len()
        );
        ExitCode::SUCCESS
    } else {
        eprintln!("probe FAILED: {failures} check(s)");
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "smoke");
    let probe_mode = args.iter().any(|a| a == "probe");
    let shutdown = args.iter().any(|a| a == "--shutdown");
    let flag = |name: &str| {
        args.iter().position(|a| a == name).and_then(|i| args.get(i + 1)).map(String::as_str)
    };
    let Some(socket) = flag("--socket").map(str::to_string) else {
        eprintln!(
            "Usage: bench_serve --socket PATH [smoke|probe] [--requests N] \
             [--clients N] [--flood N] [--out FILE] [--shutdown]"
        );
        return ExitCode::from(2);
    };
    let requests: usize =
        flag("--requests").and_then(|v| v.parse().ok()).unwrap_or(if smoke { 400 } else { 4000 });
    let clients: usize =
        flag("--clients").and_then(|v| v.parse().ok()).unwrap_or(if smoke { 2 } else { 4 });
    let flood: usize = flag("--flood").and_then(|v| v.parse().ok()).unwrap_or(0);
    let out_path = flag("--out").unwrap_or("BENCH_serve.json").to_string();

    let layers = Arc::new(layer_mix(smoke || probe_mode));
    if probe_mode {
        return probe(&socket, &layers, shutdown);
    }

    let mut control = match Conn::open(&socket) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("bench_serve: cannot connect to {socket}: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "bench_serve: {} unique layers, {requests} requests × zipf(1.0), {clients} clients",
        layers.len()
    );

    // Phase 1: warm — schedule every unique layer once through the daemon.
    struct WarmRow {
        name: String,
        source: String,
        ctx_fp: u64,
        mapping_fp: u64,
        edp: f64,
    }
    let mut warm_rows: Vec<WarmRow> = Vec::new();
    let warm_t0 = Instant::now();
    for w in layers.iter() {
        let response = match control.call(&schedule_request(w)) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("bench_serve: warm {}: {e}", w.name());
                return ExitCode::FAILURE;
            }
        };
        if !response.get("ok").and_then(Json::as_bool).unwrap_or(false) {
            let msg = response.get("error").and_then(Json::as_str).unwrap_or("?");
            eprintln!("bench_serve: warm {}: daemon error: {msg}", w.name());
            return ExitCode::FAILURE;
        }
        warm_rows.push(WarmRow {
            name: w.name().to_string(),
            source: response.get("source").and_then(Json::as_str).unwrap_or("?").to_string(),
            ctx_fp: response.get("ctx_fp").and_then(Json::as_u64_str).unwrap_or(0),
            mapping_fp: response.get("mapping_fp").and_then(Json::as_u64_str).unwrap_or(0),
            edp: response.get("edp").and_then(Json::as_f64).unwrap_or(0.0),
        });
    }
    let warm_ms = warm_t0.elapsed().as_secs_f64() * 1e3;
    println!("  warm: {} layers in {warm_ms:.0} ms", warm_rows.len());

    // Phase 2: gate — the served mappings must be bit-identical to what
    // the library path produces under the daemon's default configuration.
    let reference = Scheduler::new(SunstoneConfig::default());
    let arch = wire::arch_by_name(ARCH).expect("known preset");
    let mut fp_mismatches: Vec<String> = Vec::new();
    for (w, row) in layers.iter().zip(&warm_rows) {
        let expect_ctx = reference.context_fingerprint(w, &arch);
        let result = reference.schedule(w, &arch).expect("library schedules");
        let expect_fp = mapping_fingerprint(&result.mapping);
        if row.ctx_fp != expect_ctx || row.mapping_fp != expect_fp {
            fp_mismatches.push(row.name.clone());
        }
    }
    if fp_mismatches.is_empty() {
        println!("  gate: all {} served mappings bit-identical to the library", warm_rows.len());
    } else {
        println!("  gate: MISMATCH on {}", fp_mismatches.join(", "));
    }

    // Phase 3: timed — concurrent clients, zipfian mix, per-request latency.
    let stats_before = control.call(&op_request("cache_stats")).unwrap_or(Json::Null);
    let per_client = requests.div_ceil(clients);
    let payloads: Arc<Vec<String>> =
        Arc::new(layers.iter().map(|w| schedule_request(w).to_string()).collect());
    let timed_t0 = Instant::now();
    let handles: Vec<_> = (0..clients)
        .map(|c| {
            let layers = Arc::clone(&layers);
            let payloads = Arc::clone(&payloads);
            let socket = socket.clone();
            std::thread::spawn(move || -> Result<Vec<f64>, String> {
                let mut conn = Conn::open(&socket).map_err(|e| format!("connect: {e}"))?;
                let zipf = Zipf::new(layers.len());
                let mut rng = StdRng::seed_from_u64(0xC0FFEE + c as u64);
                let mut latencies = Vec::with_capacity(per_client);
                for _ in 0..per_client {
                    let i = zipf.sample(&mut rng);
                    let t0 = Instant::now();
                    let response = conn.call_raw(&payloads[i])?;
                    latencies.push(t0.elapsed().as_secs_f64() * 1e3);
                    if !response.starts_with("{\"ok\":true,") {
                        return Err(format!("daemon error on {}", layers[i].name()));
                    }
                }
                Ok(latencies)
            })
        })
        .collect();
    let mut latencies: Vec<f64> = Vec::with_capacity(per_client * clients);
    for handle in handles {
        match handle.join() {
            Ok(Ok(mut l)) => latencies.append(&mut l),
            Ok(Err(e)) => {
                eprintln!("bench_serve: client failed: {e}");
                return ExitCode::FAILURE;
            }
            Err(_) => {
                eprintln!("bench_serve: client panicked");
                return ExitCode::FAILURE;
            }
        }
    }
    let elapsed = timed_t0.elapsed().as_secs_f64();
    let stats_after = control.call(&op_request("cache_stats")).unwrap_or(Json::Null);

    latencies.sort_by(f64::total_cmp);
    let total = latencies.len();
    let qps = total as f64 / elapsed;
    let p50 = percentile(&latencies, 0.50);
    let p99 = percentile(&latencies, 0.99);
    let mean = latencies.iter().sum::<f64>() / total.max(1) as f64;
    let delta = |path: &[&str]| counter(&stats_after, path) - counter(&stats_before, path);
    let hits = delta(&["memo_hits"]) + delta(&["store_hits"]);
    let served = delta(&["requests"]) - 2.0; // minus the two cache_stats calls
    let hit_rate = if served > 0.0 { (hits / served).clamp(0.0, 1.0) } else { 0.0 };
    println!(
        "  timed: {total} requests in {elapsed:.2} s — {qps:.0} qps, \
         p50 {p50:.3} ms, p99 {p99:.3} ms, hit rate {hit_rate:.4}"
    );
    if qps < 1000.0 || p99 >= 50.0 {
        println!("  WARNING: below the warm-cache target (>=1000 qps, p99 < 50 ms)");
    }
    // The daemon's own account of the timed hits: mean µs per phase.
    let ledger_hits = delta(&["hit_path", "requests"]);
    let hit_path: Vec<(&str, f64)> = HIT_PHASES
        .iter()
        .map(|&phase| {
            let ns = delta(&["hit_path", &format!("{phase}_ns")]);
            (phase, ns / ledger_hits.max(1.0) / 1e3)
        })
        .collect();
    let hit_path_sum: f64 = hit_path.iter().map(|(_, us)| us).sum();
    println!(
        "  daemon per hit: {} = {hit_path_sum:.2} µs",
        hit_path.iter().map(|(p, us)| format!("{p} {us:.2}")).collect::<Vec<_>>().join(" + ")
    );

    // Phase 4 (optional): flood — a barrier-released burst of `--flood`
    // simultaneous connections against the daemon's admission cap.
    // Everything served must still be fingerprint-correct, sheds must be
    // the typed `overloaded` frame, and afterwards `conns_live` must
    // drain back to the control connection alone (a leaked handler
    // thread shows up here as a connection that never dies).
    struct FloodReport {
        tally: FloodTally,
        post_flood_live: f64,
        daemon_shed_connections: f64,
        daemon_shed_requests: f64,
        drain_ms: f64,
    }
    let flood_report: Option<FloodReport> = if flood > 0 {
        let expect: Arc<HashMap<u64, u64>> =
            Arc::new(warm_rows.iter().map(|r| (r.ctx_fp, r.mapping_fp)).collect());
        let stats_pre = control.call(&op_request("cache_stats")).unwrap_or(Json::Null);
        let barrier = Arc::new(Barrier::new(flood));
        let handles: Vec<_> = (0..flood)
            .map(|c| {
                let layers = Arc::clone(&layers);
                let expect = Arc::clone(&expect);
                let barrier = Arc::clone(&barrier);
                let socket = socket.clone();
                std::thread::spawn(move || flood_client(&socket, c, &layers, &expect, &barrier))
            })
            .collect();
        let mut tally = FloodTally::default();
        for handle in handles {
            match handle.join() {
                Ok(t) => {
                    tally.ok += t.ok;
                    tally.shed += t.shed;
                    tally.errors += t.errors;
                    tally.fp_mismatches += t.fp_mismatches;
                }
                Err(_) => tally.errors += 1,
            }
        }
        // Drain: poll until the daemon is back to the control connection
        // alone (conns_live == 1), bounded so a leak fails fast.
        let drain_t0 = Instant::now();
        let mut live = f64::INFINITY;
        while drain_t0.elapsed() < Duration::from_secs(10) {
            let stats = control.call(&op_request("cache_stats")).unwrap_or(Json::Null);
            live = counter(&stats, &["conns_live"]);
            if live <= 1.0 {
                break;
            }
            std::thread::sleep(Duration::from_millis(25));
        }
        let drain_ms = drain_t0.elapsed().as_secs_f64() * 1e3;
        let stats_post = control.call(&op_request("cache_stats")).unwrap_or(Json::Null);
        let shed_key = |s: &Json, key: &str| counter(s, &[key]);
        let report = FloodReport {
            post_flood_live: (live - 1.0).max(0.0),
            daemon_shed_connections: shed_key(&stats_post, "shed_connections")
                - shed_key(&stats_pre, "shed_connections"),
            daemon_shed_requests: shed_key(&stats_post, "shed_requests")
                - shed_key(&stats_pre, "shed_requests"),
            drain_ms,
            tally,
        };
        println!(
            "  flood: {flood} clients — {} ok, {} shed, {} errors, {} fp mismatches, \
             drained to {} extra conn(s) in {drain_ms:.0} ms",
            report.tally.ok,
            report.tally.shed,
            report.tally.errors,
            report.tally.fp_mismatches,
            report.post_flood_live,
        );
        Some(report)
    } else {
        None
    };
    let stats_final = control.call(&op_request("cache_stats")).unwrap_or(Json::Null);

    if shutdown {
        let _ = control.call(&op_request("shutdown"));
    }

    let mut out = String::new();
    let _ = writeln!(out, "{{");
    let _ = writeln!(out, "  \"schema\": \"sunstone-bench-serve/v2\",");
    let _ = writeln!(out, "  \"mode\": \"{}\",", if smoke { "smoke" } else { "full" });
    let _ = writeln!(out, "  \"arch\": \"{ARCH}\",");
    let _ = writeln!(out, "  \"unique_layers\": {},", layers.len());
    let _ = writeln!(out, "  \"requests\": {total},");
    let _ = writeln!(out, "  \"clients\": {clients},");
    let _ = writeln!(out, "  \"zipf_s\": 1.0,");
    let _ = writeln!(out, "  \"warm_ms\": {warm_ms:.3},");
    let _ = writeln!(out, "  \"latency\": {{");
    let _ = writeln!(out, "    \"p50_ms\": {p50:.4},");
    let _ = writeln!(out, "    \"p99_ms\": {p99:.4},");
    let _ = writeln!(out, "    \"mean_ms\": {mean:.4},");
    let _ = writeln!(out, "    \"qps\": {qps:.1}");
    let _ = writeln!(out, "  }},");
    let _ = writeln!(out, "  \"hit_rate\": {hit_rate:.4},");
    let _ = writeln!(out, "  \"hit_path_us\": {{");
    let _ = writeln!(out, "    \"hits\": {ledger_hits},");
    for (phase, us) in &hit_path {
        let _ = writeln!(out, "    \"{phase}\": {us:.3},");
    }
    let _ = writeln!(out, "    \"sum\": {hit_path_sum:.3}");
    let _ = writeln!(out, "  }},");
    let _ = writeln!(out, "  \"fp_mismatches\": {},", fp_mismatches.len());
    if let Some(f) = &flood_report {
        let _ = writeln!(out, "  \"overload\": {{");
        let _ = writeln!(out, "    \"flood_clients\": {flood},");
        let _ = writeln!(out, "    \"ok\": {},", f.tally.ok);
        let _ = writeln!(out, "    \"shed\": {},", f.tally.shed);
        let _ = writeln!(out, "    \"errors\": {},", f.tally.errors);
        let _ = writeln!(out, "    \"fp_mismatches\": {},", f.tally.fp_mismatches);
        let _ = writeln!(out, "    \"post_flood_live\": {},", f.post_flood_live);
        let _ = writeln!(out, "    \"daemon_shed_connections\": {},", f.daemon_shed_connections);
        let _ = writeln!(out, "    \"daemon_shed_requests\": {},", f.daemon_shed_requests);
        let _ = writeln!(out, "    \"drain_ms\": {:.1}", f.drain_ms);
        let _ = writeln!(out, "  }},");
    }
    let _ = writeln!(out, "  \"layers\": [");
    for (i, r) in warm_rows.iter().enumerate() {
        let _ = writeln!(out, "    {{");
        let _ = writeln!(out, "      \"name\": \"{}\",", esc(&r.name));
        let _ = writeln!(out, "      \"source\": \"{}\",", esc(&r.source));
        let _ = writeln!(out, "      \"ctx_fp\": \"{}\",", r.ctx_fp);
        let _ = writeln!(out, "      \"mapping_fp\": \"{}\",", r.mapping_fp);
        let _ = writeln!(out, "      \"edp\": {:.6e}", r.edp);
        let _ = writeln!(out, "    }}{}", if i + 1 < warm_rows.len() { "," } else { "" });
    }
    let _ = writeln!(out, "  ],");
    let _ = writeln!(out, "  \"daemon\": {{");
    let _ = writeln!(out, "    \"uptime_secs\": {},", counter(&stats_final, &["uptime_secs"]));
    let _ = writeln!(out, "    \"requests\": {},", counter(&stats_final, &["requests"]));
    let _ = writeln!(out, "    \"searches\": {},", counter(&stats_final, &["searches"]));
    let _ = writeln!(out, "    \"memo_hits\": {},", counter(&stats_final, &["memo_hits"]));
    let _ = writeln!(out, "    \"store_hits\": {},", counter(&stats_final, &["store_hits"]));
    let _ = writeln!(out, "    \"errors\": {},", counter(&stats_final, &["errors"]));
    let _ = writeln!(out, "    \"degraded\": {},", counter(&stats_final, &["degraded"]));
    let _ = writeln!(out, "    \"conns_peak\": {},", counter(&stats_final, &["conns_peak"]));
    let _ = writeln!(
        out,
        "    \"shed_connections\": {},",
        counter(&stats_final, &["shed_connections"])
    );
    let _ = writeln!(out, "    \"shed_requests\": {},", counter(&stats_final, &["shed_requests"]));
    let _ =
        writeln!(out, "    \"quarantined\": {},", counter(&stats_final, &["store", "quarantined"]));
    let _ = writeln!(out, "    \"memo_entries\": {}", counter(&stats_final, &["memo_entries"]));
    let _ = writeln!(out, "  }}");
    let _ = writeln!(out, "}}");
    if let Err(e) = std::fs::write(&out_path, &out) {
        eprintln!("bench_serve: cannot write {out_path}: {e}");
        return ExitCode::FAILURE;
    }
    println!("wrote {out_path}");
    ExitCode::SUCCESS
}

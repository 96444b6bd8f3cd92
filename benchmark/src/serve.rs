//! The two daemon workloads, `serve_hot` and `serve_churn`.
//!
//! The daemon runs in this process (`Server::bind` + `Server::run` on a
//! thread) with its store in a fresh directory under the output directory
//! and `FsyncPolicy::Never`: fsync time is the disk's, not the program's,
//! and is reported as `store.append_fsync_us` instead. Load comes from two
//! connections, each waiting for its reply before sending the next request
//! — a closed loop, as a compiler asking a mapping oracle is.

use std::io::{Read, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use sunstone::prelude::{Scheduler, SunstoneConfig};
use sunstone_mapping::Mapping;
use sunstone_serve::json::{self, Json};
use sunstone_serve::{wire, FsyncPolicy, ServeConfig, Server};

use crate::expected::{Expected, Tally};
use crate::inputs::{self, Context, Plan};
use crate::layers;
use crate::library::Regime;
use crate::metrics::{Metrics, PER_LAYER};
use crate::run::{config, end_to_end, ms, peak_rss_mb, Outcome, RunOpts};
use crate::stats::{percentile_sorted, Rng, Zipf};
use crate::trace::{self, Tracer, ROOT};

/// Connections of the timed section.
const CONNECTIONS: usize = 2;
/// Requests in the churn plan: more than two connections finish in a
/// minute, so the clock, not the plan, ends the timed section.
const CHURN_PLAN_REQUESTS: usize = 4000;
/// The churn daemon's bound on cached estimates. The default (2^20) is
/// reached only after some 230 searches — past the end of a ten-second
/// run — so with it the run would never evict and its peak memory would
/// follow the number of requests sent, not the code. A quarter of it is
/// reached within two seconds; from there on eviction runs and memory is
/// level.
const CHURN_MAX_CACHE_ENTRIES: usize = 1 << 18;
/// Spans written to the trace file; earlier ones are counted, not written.
const TRACE_FILE_SPANS: usize = 20_000;

/// A daemon running on a thread of this process.
struct Daemon {
    socket: PathBuf,
    thread: JoinHandle<std::io::Result<()>>,
}

impl Daemon {
    /// Binds (warm-loading `store` if it holds records) and starts
    /// serving; returns the daemon and how long the bind took.
    fn start(
        socket: &Path,
        store: &Path,
        config: SunstoneConfig,
    ) -> Result<(Daemon, Duration), String> {
        let mut serve = ServeConfig::new(socket).with_store(store);
        serve.fsync = FsyncPolicy::Never;
        serve.config = config;
        let start = Instant::now();
        let server = Server::bind(serve).map_err(|e| format!("bind {}: {e}", socket.display()))?;
        let bind = start.elapsed();
        let thread = std::thread::spawn(move || server.run());
        Ok((Daemon { socket: socket.to_path_buf(), thread }, bind))
    }

    /// Sends `shutdown`, waits for the daemon to compact and exit, and
    /// returns how long that took.
    fn stop(self) -> Result<Duration, String> {
        let start = Instant::now();
        let mut client = Client::connect(&self.socket)?;
        let reply = client.call(&frame_of("{\"op\":\"shutdown\"}"))?;
        if !reply.contains("\"ok\":true") {
            return Err(format!("shutdown refused: {reply}"));
        }
        match self.thread.join() {
            Ok(Ok(())) => Ok(start.elapsed()),
            Ok(Err(e)) => Err(format!("daemon exited with {e}")),
            Err(_) => Err("daemon thread panicked".into()),
        }
    }
}

/// Length prefix plus payload, ready to write.
fn frame_of(payload: &str) -> Vec<u8> {
    let mut frame = Vec::with_capacity(payload.len() + 4);
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(payload.as_bytes());
    frame
}

/// One connection. The client is the harness's own — a reused buffer and
/// two reads per reply — so what it costs is constant and small beside
/// the daemon's work.
struct Client {
    stream: UnixStream,
    reply: Vec<u8>,
}

impl Client {
    fn connect(socket: &Path) -> Result<Client, String> {
        let stream = UnixStream::connect(socket)
            .map_err(|e| format!("connect {}: {e}", socket.display()))?;
        // A stuck daemon must fail the run, not hang it.
        stream.set_read_timeout(Some(Duration::from_secs(120))).map_err(|e| e.to_string())?;
        Ok(Client { stream, reply: Vec::new() })
    }

    fn call(&mut self, frame: &[u8]) -> Result<&str, String> {
        let io = |e: std::io::Error| format!("daemon connection: {e}");
        self.stream.write_all(frame).map_err(io)?;
        let mut prefix = [0u8; 4];
        self.stream.read_exact(&mut prefix).map_err(io)?;
        let len = u32::from_le_bytes(prefix) as usize;
        if len > wire::MAX_FRAME {
            return Err(format!("reply of {len} bytes exceeds the frame cap"));
        }
        self.reply.resize(len, 0);
        self.stream.read_exact(&mut self.reply).map_err(io)?;
        std::str::from_utf8(&self.reply).map_err(|e| format!("reply is not UTF-8: {e}"))
    }
}

/// A reply decoded in full: done once per context, not per request.
struct Served {
    mapping_fp: u64,
    edp: f64,
    mapping: Mapping,
}

fn decode(reply: &str) -> Result<Served, String> {
    let v = json::parse(reply).map_err(|e| e.to_string())?;
    if v.get("ok").and_then(Json::as_bool) != Some(true) {
        return Err(format!("daemon answered {reply}"));
    }
    if v.get("degraded").and_then(Json::as_bool) != Some(false) {
        return Err("daemon answered with a degraded mapping though no deadline was set".into());
    }
    let field = |name: &str| v.get(name).ok_or_else(|| format!("reply has no {name:?}"));
    Ok(Served {
        mapping_fp: field("mapping_fp")?.as_u64_str().ok_or("mapping_fp is not a u64 string")?,
        edp: field("edp")?.as_f64().ok_or("edp is not a number")?,
        mapping: wire::mapping_from_json(field("mapping")?).map_err(|e| e.to_string())?,
    })
}

/// Decodes a reply, checks its mapping against the reference and its
/// fingerprint against the mapping it carries.
fn check_reply(
    ctx: &Context,
    reply: &str,
    expected: &Expected,
    tally: &mut Tally,
) -> Option<Served> {
    match decode(reply) {
        Ok(served) => {
            let mut ok = tally.check(ctx, &served.mapping, served.edp, expected);
            if sunstone::fingerprint::mapping_fingerprint(&served.mapping) != served.mapping_fp {
                tally.problem(format!(
                    "{}: mapping_fp does not match the mapping sent with it",
                    ctx.key
                ));
                ok = false;
            }
            ok.then_some(served)
        }
        Err(e) => {
            tally.problem(format!("{}: {e}", ctx.key));
            None
        }
    }
}

/// The value of `"mapping_fp":"…"` in a raw reply.
fn fp_in(reply: &str) -> Option<u64> {
    let rest = &reply[reply.find("\"mapping_fp\":\"")? + 14..];
    rest[..rest.find('"')?].parse().ok()
}

/// Counters of `cache_stats` the ledger reports as deltas.
#[derive(Default, Clone, Copy)]
struct DaemonCounters {
    searches: f64,
    memo_hits: f64,
    store_hits: f64,
    shed: f64,
    degraded: f64,
    errors: f64,
    loaded: f64,
}

fn daemon_counters(client: &mut Client) -> Result<DaemonCounters, String> {
    let v = json::parse(client.call(&frame_of("{\"op\":\"cache_stats\"}"))?)
        .map_err(|e| e.to_string())?;
    let n = |key: &str| v.get(key).and_then(Json::as_f64).unwrap_or(0.0);
    Ok(DaemonCounters {
        searches: n("searches"),
        memo_hits: n("memo_hits"),
        store_hits: n("store_hits"),
        shed: n("shed_connections") + n("shed_requests"),
        degraded: n("degraded"),
        errors: n("errors"),
        loaded: v.get("store").and_then(|s| s.get("loaded")).and_then(Json::as_f64).unwrap_or(0.0),
    })
}

/// One timed round trip: its latency in nanoseconds, whether the daemon
/// searched for it, and whether a span was recorded for it.
#[derive(Clone, Copy)]
struct Sample {
    ns: u32,
    searched: bool,
    traced: bool,
}

/// What one connection saw in the timed section.
#[derive(Default)]
struct ConnLog {
    samples: Vec<Sample>,
    spans: Vec<(Instant, Instant, bool)>,
    /// (context, raw reply) of every search result, to be checked in full.
    searched: Vec<(usize, String)>,
    failed: u64,
    problems: Vec<String>,
    elapsed: Duration,
}

impl ConnLog {
    fn fail(&mut self, problem: String) {
        self.failed += 1;
        if self.problems.len() < 4 {
            self.problems.push(problem);
        }
    }

    fn requests(&self) -> usize {
        self.samples.len() + self.failed as usize
    }
}

/// The request loop of one connection: send what `next` names until it
/// runs dry or `seconds` pass, checking every reply on its raw bytes —
/// `"ok":true`, and the same `mapping_fp` for a context every time.
fn drive(
    socket: &Path,
    frames: &[Vec<u8>],
    fps: &[AtomicU64],
    seconds: f64,
    trace: bool,
    mut next: impl FnMut(usize) -> Option<usize>,
) -> ConnLog {
    let mut log = ConnLog::default();
    let mut client = match Client::connect(socket) {
        Ok(c) => c,
        Err(e) => {
            log.fail(e);
            return log;
        }
    };
    let start = Instant::now();
    let mut sent = 0usize;
    while start.elapsed().as_secs_f64() < seconds {
        let Some(context) = next(sent) else { break };
        let traced = trace && sent % 2 == 1;
        sent += 1;
        let t0 = Instant::now();
        let reply = client.call(&frames[context]);
        let t1 = Instant::now();
        let reply = match reply {
            Ok(r) => r,
            Err(e) => {
                log.fail(e);
                break;
            }
        };
        if !reply.contains("\"ok\":true") {
            let problem = format!("context {context}: {reply}");
            log.fail(problem);
            continue;
        }
        let searched = reply.contains("\"source\":\"search\"");
        // Whoever sees a context first publishes the fingerprint every
        // later reply for it must carry.
        let known = fps[context].load(Ordering::Acquire);
        let consistent = fp_in(reply).is_some_and(|fp| match known {
            0 => fps[context]
                .compare_exchange(0, fp, Ordering::AcqRel, Ordering::Acquire)
                .map_or_else(|seen| seen == fp, |_| true),
            known => fp == known,
        });
        if !consistent {
            log.fail(format!("context {context}: mapping_fp changed between replies"));
            continue;
        }
        if searched {
            log.searched.push((context, reply.to_string()));
        }
        let ns = (t1 - t0).as_nanos().min(u128::from(u32::MAX)) as u32;
        log.samples.push(Sample { ns, searched, traced });
        if traced {
            log.spans.push((t0, t1, searched));
        }
    }
    log.elapsed = start.elapsed();
    log
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Hot,
    Churn,
}

impl Kind {
    pub fn name(self) -> &'static str {
        match self {
            Kind::Hot => "serve_hot",
            Kind::Churn => "serve_churn",
        }
    }
}

/// A daemon workload set up and ready to time.
struct Serving {
    contexts: Vec<Context>,
    frames: Vec<Vec<u8>>,
    /// `mapping_fp` every reply for a context must carry; 0 until seen.
    fps: Vec<AtomicU64>,
    /// The churn plan; `None` for `serve_hot`.
    plan: Option<Plan>,
    expected: Expected,
    socket: PathBuf,
    store: PathBuf,
    /// How long binding the daemon on its empty store took.
    bind: Duration,
}

fn daemon_config(kind: Kind, opts: &RunOpts) -> SunstoneConfig {
    let mut config = config(opts.threads);
    if kind == Kind::Churn {
        config.max_cache_entries = CHURN_MAX_CACHE_ENTRIES;
    }
    config
}

/// Input generation, reference load, daemon bind, and the cache fill: all
/// 26 contexts for `serve_hot`, the first steps of the plan for
/// `serve_churn`. Part of set-up time.
fn set_up(
    kind: Kind,
    opts: &RunOpts,
    dir: &Path,
    tally: &mut Tally,
) -> Result<(Serving, Daemon), String> {
    let expected = Expected::load(&opts.expected_dir, kind.name())?;
    let (contexts, plan) = match kind {
        Kind::Hot => {
            let net = inputs::net_layers();
            let mut unique: Vec<Context> =
                inputs::unique_positions(&net).into_iter().map(|i| net[i].clone()).collect();
            // The seed decides which layer is how popular.
            Rng::fork(opts.seed, 0x207).shuffle(&mut unique);
            unique.truncate(opts.scale.max_contexts);
            (unique, None)
        }
        Kind::Churn => {
            let universe = inputs::churn_universe();
            let plan = inputs::churn_plan(opts.seed, universe.len(), CHURN_PLAN_REQUESTS);
            let contexts =
                plan.shapes.iter().map(|&i| inputs::churn_context(&universe[i])).collect();
            (contexts, Some(plan))
        }
    };
    let frames: Vec<Vec<u8>> =
        contexts.iter().map(|c| frame_of(&layers::request_payload(c))).collect();
    let fps: Vec<AtomicU64> = contexts.iter().map(|_| AtomicU64::new(0)).collect();
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let store = dir.join("store");
    let (daemon, bind) = Daemon::start(&dir.join("d.sock"), &store, daemon_config(kind, opts))?;
    let mut client = Client::connect(&daemon.socket)?;
    let warm: Vec<usize> = match &plan {
        None => (0..contexts.len()).collect(),
        Some(plan) => {
            plan.steps.iter().take(opts.scale.churn_warmup_steps).map(|s| s.context).collect()
        }
    };
    for context in warm {
        let reply = client.call(&frames[context])?.to_string();
        match check_reply(&contexts[context], &reply, &expected, tally) {
            Some(served) => fps[context].store(served.mapping_fp, Ordering::Release),
            None => tally.problem("a warm-up request failed its checks".into()),
        }
    }
    let socket = daemon.socket.clone();
    Ok((Serving { contexts, frames, fps, plan, expected, socket, store, bind }, daemon))
}

/// What the restart on the populated store showed.
struct Restart {
    shutdown: Duration,
    warm_load: Duration,
    /// Contexts probed: every one served before the restart.
    probes: usize,
    store_hits: f64,
}

/// Stops `daemon`, binds a new one on the store it left, and asks for
/// every context served so far: each must come back from the store with
/// the mapping it was first served with.
fn restart(
    kind: Kind,
    opts: &RunOpts,
    root: &Path,
    daemon: Daemon,
    serving: &Serving,
    tally: &mut Tally,
) -> Result<Restart, String> {
    let shutdown = daemon.stop()?;
    let (daemon, warm_load) =
        Daemon::start(&root.join("restart.sock"), &serving.store, daemon_config(kind, opts))?;
    let mut control = Client::connect(&daemon.socket)?;
    let mut probes = 0;
    for (context, fp) in serving.fps.iter().enumerate() {
        let fp = fp.load(Ordering::Acquire);
        if fp == 0 {
            continue;
        }
        probes += 1;
        let reply = control.call(&serving.frames[context])?;
        let ok = reply.contains("\"ok\":true")
            && reply.contains("\"source\":\"store\"")
            && fp_in(reply) == Some(fp);
        if !ok {
            tally.problem(format!(
                "{}: not served from the store after a restart: {reply}",
                serving.contexts[context].key
            ));
        }
        tally.unit(ok);
    }
    let counters = daemon_counters(&mut control)?;
    if counters.loaded as usize != probes {
        tally.problem(format!(
            "restart warm-loaded {} records, {probes} were served",
            counters.loaded
        ));
    }
    drop(control);
    daemon.stop()?;
    Ok(Restart { shutdown, warm_load, probes, store_hits: counters.store_hits })
}

pub fn run(kind: Kind, opts: &RunOpts) -> Result<Outcome, String> {
    let mut tally = Tally::default();
    let root = opts.out_dir.join(format!("tmp-{}-{}", kind.name(), std::process::id()));
    let start = Instant::now();
    let (serving, daemon) = set_up(kind, opts, &root.join("s0"), &mut tally)?;
    let mut setup_s = vec![start.elapsed().as_secs_f64()];
    println!(
        "{}: {} contexts, {CONNECTIONS} connections, threads {}, seed {}, {} s{}",
        kind.name(),
        serving.contexts.len(),
        opts.threads,
        opts.seed,
        opts.seconds,
        if opts.trace { ", traced" } else { "" }
    );

    // The timed section. The tracer's clock starts before it.
    let tracer = opts.trace.then(Tracer::default);
    let mut control = Client::connect(&serving.socket)?;
    let before = daemon_counters(&mut control)?;
    let zipf = Zipf::new(serving.contexts.len());
    let logs: Vec<ConnLog> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|conn| {
                let serving = &serving;
                let zipf = &zipf;
                scope.spawn(move || {
                    let mut rng = Rng::fork(opts.seed, 0xC0 + conn as u64);
                    drive(
                        &serving.socket,
                        &serving.frames,
                        &serving.fps,
                        opts.seconds,
                        opts.trace,
                        |sent| {
                            match &serving.plan {
                                None => Some(zipf.sample(&mut rng)),
                                // Connection `conn` takes every CONNECTIONS-th
                                // step after the warm-up.
                                Some(plan) => plan
                                    .steps
                                    .get(opts.scale.churn_warmup_steps + sent * CONNECTIONS + conn)
                                    .map(|s| s.context),
                            }
                        },
                    )
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join().unwrap_or_else(|_| {
                    let mut log = ConnLog::default();
                    log.fail("a client thread panicked".into());
                    log
                })
            })
            .collect()
    });
    let after = daemon_counters(&mut control)?;
    drop(control);
    let peak_rss = peak_rss_mb();

    // Every search result is decoded and checked in full; every other
    // reply was checked on its bytes against the fingerprint of one.
    let mut requests = 0usize;
    for log in &logs {
        requests += log.requests();
        tally.attempted += log.requests() as u64;
        tally.failed += log.failed;
        log.problems.iter().for_each(|p| tally.problem(p.clone()));
        for (context, reply) in &log.searched {
            if check_reply(&serving.contexts[*context], reply, &serving.expected, &mut tally)
                .is_none()
            {
                tally.failed += 1;
            }
        }
    }
    let wall = logs.iter().map(|l| l.elapsed).max().unwrap_or_default().as_secs_f64();
    let served_from_cache =
        (after.memo_hits - before.memo_hits) + (after.store_hits - before.store_hits);
    let searched: usize = logs.iter().map(|l| l.searched.len()).sum();
    if (after.searches - before.searches) as usize != searched
        || (served_from_cache as usize)
            + searched
            + logs.iter().map(|l| l.failed as usize).sum::<usize>()
            != requests
    {
        tally.problem(format!(
            "daemon counters disagree with the replies: {} searches and {served_from_cache} hits counted, {searched} and {} seen",
            after.searches - before.searches,
            requests - searched
        ));
    }
    if kind == Kind::Hot && searched > 0 {
        tally.problem(format!("{searched} requests of the hot workload reached the search tier"));
    }

    let restart = restart(kind, opts, &root, daemon, &serving, &mut tally)?;
    let contexts = &serving.contexts;

    // Sorted latencies in milliseconds of one class of request.
    let class = |searched: bool, traced: bool| -> Vec<f64> {
        let of_class = |s: &&Sample| s.searched == searched && s.traced == traced;
        let mut v: Vec<f64> = logs
            .iter()
            .flat_map(|l| l.samples.iter().filter(of_class).map(|s| f64::from(s.ns) / 1e6))
            .collect();
        v.sort_by(f64::total_cmp);
        v
    };
    // The unit is a hit for `serve_hot`, a miss for `serve_churn`.
    let unit_is_miss = kind == Kind::Churn;
    let (hits, misses) = (class(false, false), class(true, false));
    let units = if unit_is_miss { &misses } else { &hits };
    let mut metrics = Metrics::default();
    if let Some(tracer) = &tracer {
        let mut unit = 0u32;
        for log in &logs {
            for &(t0, t1, searched) in &log.spans {
                tracer.push(
                    ROOT,
                    unit,
                    if searched { "client.miss" } else { "client.hit" },
                    t0,
                    t1,
                );
                unit += 1;
            }
        }
        let ledger = trace::ledger(&tracer.spans());
        ledger.print();
        let searched = &contexts[..contexts.len().min(opts.scale.count_contexts)];
        let measured = layers::measure(searched, Regime::Shared, false, opts, &mut tally)?;
        metrics.merge(measured.metrics);
        // The life of one hit, replayed outside the daemon.
        let session = Scheduler::new(config(opts.threads));
        for (ctx, result) in &measured.sample {
            layers::replay_hit(tracer, unit, ctx, &session, result);
            unit += 1;
        }
        let spans = tracer.spans();
        // Traced and untraced requests alternate on every connection.
        let traced_units = class(unit_is_miss, true);
        let medians = (percentile_sorted(units, 0.5), percentile_sorted(&traced_units, 0.5));
        layers::trace_metrics(&mut metrics, &ledger, medians, traced_units.len(), spans.len());
        let path = opts.out_dir.join(format!("trace-{}.json", kind.name()));
        // The last spans are written, so a file cut short keeps the replays.
        trace::write(&path, kind.name(), &spans, TRACE_FILE_SPANS)
            .map_err(|e| format!("{}: {e}", path.display()))?;

        let get = |m: &Metrics, name: &str| m.get(name).unwrap_or(0.0);
        let replayed = get(&metrics, "wire.frame_rt_us")
            + get(&metrics, "wire.request_parse_us")
            + get(&metrics, "session.ctx_fp_us")
            + get(&metrics, "wire.mapping_encode_us")
            + get(&metrics, "wire.response_bytes")
                / get(&metrics, "json.print_mb_per_s").max(1e-12);
        let hit_p50_us = percentile_sorted(&hits, 0.5) * 1e3;
        metrics.set("server.hit_replayed_us", replayed);
        metrics.set("server.hit_unattributed_us", hit_p50_us - replayed);
        metrics.set_n("server.hit_p99_ms", percentile_sorted(&hits, 0.99), hits.len());
        metrics.set_n("server.hit_p999_ms", percentile_sorted(&hits, 0.999), hits.len());
        metrics.set_n("server.miss_p90_ms", percentile_sorted(&misses, 0.9), misses.len());
        metrics.set_n(
            "server.hit_under_search_p50_ms",
            if kind == Kind::Churn { percentile_sorted(&hits, 0.5) } else { 0.0 },
            hits.len(),
        );
        metrics.set_n("server.requests_per_s", requests as f64 / wall, requests);
        metrics.set("server.searches", after.searches - before.searches);
        metrics.set("server.memo_hits", after.memo_hits - before.memo_hits);
        metrics.set("server.store_hits", restart.store_hits);
        metrics.set("server.shed", after.shed - before.shed);
        metrics.set("server.degraded", after.degraded - before.degraded);
        metrics.set("server.errors", after.errors - before.errors);
        metrics.set("server.bind_ms", ms(serving.bind));
        metrics.set_n("server.warm_load_ms", ms(restart.warm_load), restart.probes);
        metrics.set("server.shutdown_ms", ms(restart.shutdown));
        layers::quality_metrics(&mut metrics, &tally, opts.threads);
        metrics.print(PER_LAYER);
    } else {
        // The other set-ups come after the timed section, so peak memory
        // is that of one daemon, not of the repetition.
        for rep in 1..opts.scale.setup_reps {
            let start = Instant::now();
            let (_, extra) = set_up(kind, opts, &root.join(format!("s{rep}")), &mut tally)?;
            setup_s.push(start.elapsed().as_secs_f64());
            extra.stop()?;
        }
        let unit_ms = (percentile_sorted(units, 0.5), units.len());
        metrics = end_to_end(&mut setup_s, unit_ms, requests, wall, peak_rss);
    }
    let _ = std::fs::remove_dir_all(&root);
    Ok(Outcome { tally, metrics })
}

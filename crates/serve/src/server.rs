//! The daemon: a [`UnixListener`] accept loop multiplexing concurrent
//! client connections onto one shared [`Scheduler`] session and one
//! persistent [`MappingStore`].
//!
//! # Serving discipline
//!
//! Every `schedule` request resolves to a context fingerprint
//! ([`Scheduler::context_fingerprint`]) and goes through two tiers:
//!
//! 1. **memo** — the shared session's own result memo
//!    ([`Scheduler::memoized`]): every context searched to completion
//!    this process lifetime *plus* everything warm-loaded from the store
//!    at startup. The daemon keeps no index of its own. Hits are
//!    microseconds: no search, no model.
//! 2. **search** — a full library `schedule` call on the shared session,
//!    which memoizes the result itself when the search ran to completion;
//!    the daemon appends it to the store.
//!
//! A memoized answer remembers whether it was *primed* — it entered via
//! the startup warm-load — or searched earlier in this process, and
//! responses report `source` `store` or `memo` accordingly (`search` for
//! a fresh computation), so clients and the restart acceptance test can
//! distinguish a warm-loaded answer from a recomputed one.
//!
//! # Overload and degradation
//!
//! The daemon bounds its own resources and sheds the excess instead of
//! queueing unboundedly:
//!
//! * **connection admission** — at most
//!   [`ServeConfig::max_connections`] live handler threads; a connection
//!   over the cap receives one typed `overloaded` frame (with a
//!   `retry_after_ms` hint) and is closed, counted in
//!   `shed_connections`.
//! * **search admission** — at most
//!   [`ServeConfig::max_queued_searches`] requests past the memo tier at
//!   once (searching or waiting on a single-flight peer); the excess get
//!   the same `overloaded` response, counted in `shed_requests`. Memo
//!   and store hits are never shed — they cost microseconds.
//! * **deadlines** — a request carrying `deadline_ms` maps onto the
//!   library's wall-clock budget; a search cut short returns its best
//!   mapping so far with `"degraded":true`. Degraded results are served
//!   but *not* memoized (the session only memoizes complete searches) or
//!   persisted: the next request (with its own deadline) searches again
//!   rather than inheriting a worse-than-best answer forever.
//! * **socket timeouts** — per-connection read
//!   ([`ServeConfig::idle_timeout`]) and write
//!   ([`ServeConfig::write_timeout`]) timeouts reap idle, slow, or dead
//!   clients without touching their single-flight peers (timeouts bound
//!   socket I/O, never lock waits).
//!
//! # Bit-identity
//!
//! The warm-load path never trusts the store: each record's workload is
//! rebuilt, its context fingerprint recomputed and compared, the mapping
//! re-validated, checked against the session's constraints and re-priced
//! under the current cost model ([`Scheduler::prime_mapping`]), and its
//! mapping fingerprint recomputed. Any mismatch skips the record (counted
//! in `load_skipped`), so a served mapping is always exactly what the
//! library path would produce for that context.
//!
//! # Fault isolation
//!
//! A panic inside a request is caught by the library's own isolation
//! boundary and surfaces as a typed `internal` error response; the
//! connection, the session, and the daemon survive. All shared state is
//! behind poison-recovering locks, so a fault while a lock was held
//! degrades to the error response, never to a poisoned-mutex abort.
//! Under the `fault-injection` feature the serve layer carries its own
//! failpoints (`sunstone::faultpoint::SERVE_POINTS`); the chaos soak
//! in `tests/fault_injection.rs` drives them.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, BufWriter};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use sunstone::fingerprint::{mapping_fingerprint, workload_fingerprint};
use sunstone::prelude::*;
use sunstone_arch::ArchSpec;
use sunstone_ir::Workload;
use sunstone_mapping::Mapping;
use sunstone_model::CostTotals;

use crate::json::{self, Json};
use crate::store::{FsyncPolicy, MappingStore, StoreRecord};
use crate::wire::{self, Request, WireError};

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Unix socket path to listen on. A stale socket left by a crashed
    /// daemon is taken over; a *live* daemon's socket is refused
    /// ([`ServeError::AlreadyRunning`]).
    pub socket: PathBuf,
    /// Store directory; `None` runs fully in-memory.
    pub store_dir: Option<PathBuf>,
    /// Shard count of the store (1 to 64): a fresh store is made with it,
    /// and an existing store written with another count is re-sharded to
    /// it when it is opened, every record kept.
    pub shards: usize,
    /// Store durability policy (see [`FsyncPolicy`]).
    pub fsync: FsyncPolicy,
    /// Scheduler configuration for the shared session.
    pub config: SunstoneConfig,
    /// Admission cap on live connections; excess connections get one
    /// `overloaded` frame and are closed.
    pub max_connections: usize,
    /// Admission cap on requests simultaneously past the memo tier
    /// (searching, or queued on a single-flight peer); excess requests
    /// get an `overloaded` response on their open connection.
    pub max_queued_searches: usize,
    /// The `retry_after_ms` hint carried by `overloaded` responses.
    pub retry_after_ms: u64,
    /// Per-connection read timeout: a client idle longer than this is
    /// reaped. `None` waits forever (the pre-hardening behavior).
    pub idle_timeout: Option<Duration>,
    /// Per-connection write timeout: a client that stops draining its
    /// socket is reaped instead of blocking its handler forever.
    pub write_timeout: Option<Duration>,
}

impl ServeConfig {
    /// A daemon on `socket` with default scheduling, default admission
    /// limits, and no persistence.
    pub fn new(socket: impl Into<PathBuf>) -> Self {
        ServeConfig {
            socket: socket.into(),
            store_dir: None,
            shards: 4,
            fsync: FsyncPolicy::default(),
            config: SunstoneConfig::default(),
            max_connections: 256,
            max_queued_searches: 64,
            retry_after_ms: 25,
            idle_timeout: Some(Duration::from_secs(60)),
            write_timeout: Some(Duration::from_secs(10)),
        }
    }

    /// Enables the persistent store under `dir`.
    pub fn with_store(mut self, dir: impl Into<PathBuf>) -> Self {
        self.store_dir = Some(dir.into());
        self
    }
}

/// Startup failures with an operational meaning beyond raw I/O.
#[derive(Debug)]
pub enum ServeError {
    /// The socket path is a Unix socket and something answered a dial:
    /// another daemon is live. Refusing to unlink it is the whole point —
    /// the old behavior silently orphaned the running daemon.
    AlreadyRunning { socket: PathBuf },
    /// The socket path exists but is not a Unix socket; refusing to
    /// delete it protects whatever file the operator actually has there.
    NotASocket { path: PathBuf },
    /// Everything else: bind, store, filesystem.
    Io(std::io::Error),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::AlreadyRunning { socket } => {
                write!(f, "a daemon is already serving on {}", socket.display())
            }
            ServeError::NotASocket { path } => {
                write!(
                    f,
                    "{} exists and is not a Unix socket; refusing to replace it",
                    path.display()
                )
            }
            ServeError::Io(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<std::io::Error> for ServeError {
    fn from(e: std::io::Error) -> Self {
        ServeError::Io(e)
    }
}

#[derive(Default)]
struct Counters {
    requests: AtomicU64,
    searches: AtomicU64,
    memo_hits: AtomicU64,
    store_hits: AtomicU64,
    errors: AtomicU64,
    /// Connections refused at the admission cap.
    shed_connections: AtomicU64,
    /// Requests refused at the search-queue cap.
    shed_requests: AtomicU64,
    /// Searches cut short by a client deadline (served best-so-far).
    degraded: AtomicU64,
    /// Store records skipped at warm-load (fingerprint or validation
    /// mismatch) — should be zero on a healthy store.
    load_skipped: AtomicU64,
    /// Store records successfully warm-loaded at startup.
    loaded: AtomicU64,
    /// Single `schedule` requests answered by the memo tier, and their
    /// cumulative wall time per [`PHASES`] entry in nanoseconds.
    hits: AtomicU64,
    hit_ns: [AtomicU64; PHASES.len()],
}

/// The phases of a memo or store hit, in order: the frame off the socket
/// (from its first byte), the request decode, the memo tier (preset,
/// context fingerprint, memo lookup), the response encode, and the frame
/// onto the socket. `cache_stats` reports each one's cumulative time as
/// `hit_path.<phase>_ns`. Five phases have six boundaries, so a hit costs
/// six clock reads.
const PHASES: [&str; 5] = ["read", "parse", "resolve", "encode", "write"];

/// Shared daemon state: the session (whose result memo is the memo
/// tier) and the store.
struct ServeState {
    scheduler: Scheduler,
    store: Option<Mutex<MappingStore>>,
    counters: Counters,
    shutdown: AtomicBool,
    started: Instant,
    /// The listening socket's path, so a shutdown handler can dial it to
    /// unblock the accept loop.
    socket: PathBuf,
    /// Live connections by id, so shutdown can half-close them and
    /// unblock handler threads parked in `read_frame` on idle clients.
    conns: Mutex<HashMap<u64, UnixStream>>,
    next_conn: AtomicU64,
    /// Live handler-thread count, maintained by [`ConnGuard`] so an
    /// injected panic still releases its admission slot.
    conns_live: AtomicU64,
    conns_peak: AtomicU64,
    /// Requests currently past the memo tier (see `max_queued_searches`).
    queued_searches: AtomicU64,
    /// Single-flight locks by context fingerprint: concurrent requests
    /// for the same context serialize onto one search, with later
    /// arrivals re-checking the memo once the first completes.
    flights: Mutex<HashMap<u64, Arc<Mutex<()>>>>,
    max_connections: u64,
    max_queued_searches: u64,
    retry_after_ms: u64,
}

/// Locks a daemon mutex, recovering from poisoning: they hold
/// plain data valid at every unwind point, and a faulted request must
/// never wedge the daemon.
fn lock_recover<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Unregisters a connection when its handler exits — normally, by
/// timeout, or by panic — releasing the admission slot either way.
struct ConnGuard {
    state: Arc<ServeState>,
    id: u64,
}

impl Drop for ConnGuard {
    fn drop(&mut self) {
        lock_recover(&self.state.conns).remove(&self.id);
        self.state.conns_live.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Holds one slot of the bounded search queue; dropped (releasing the
/// slot) when the request finishes, errors, or panics.
struct SearchTicket<'a> {
    state: &'a ServeState,
}

impl<'a> SearchTicket<'a> {
    /// Claims a queue slot, or `None` when the queue is at capacity.
    fn acquire(state: &'a ServeState) -> Option<SearchTicket<'a>> {
        if state.queued_searches.fetch_add(1, Ordering::SeqCst) >= state.max_queued_searches {
            state.queued_searches.fetch_sub(1, Ordering::SeqCst);
            return None;
        }
        Some(SearchTicket { state })
    }
}

impl Drop for SearchTicket<'_> {
    fn drop(&mut self) {
        self.state.queued_searches.fetch_sub(1, Ordering::SeqCst);
    }
}

/// The running daemon.
pub struct Server {
    listener: UnixListener,
    state: Arc<ServeState>,
    socket: PathBuf,
    /// (read, write) timeouts applied to every accepted connection.
    timeouts: (Option<Duration>, Option<Duration>),
}

/// Decides whether `path` may be claimed as our listening socket:
/// absent → yes; a socket nobody answers (crashed daemon) → unlink and
/// claim; a socket something answers → [`ServeError::AlreadyRunning`];
/// any other file → [`ServeError::NotASocket`].
fn claim_socket_path(path: &Path) -> Result<(), ServeError> {
    use std::os::unix::fs::FileTypeExt;
    let meta = match std::fs::symlink_metadata(path) {
        Ok(m) => m,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(()),
        Err(e) => return Err(ServeError::Io(e)),
    };
    if !meta.file_type().is_socket() {
        return Err(ServeError::NotASocket { path: path.to_path_buf() });
    }
    match UnixStream::connect(path) {
        // Something accepted: a live daemon owns this path.
        Ok(_) => Err(ServeError::AlreadyRunning { socket: path.to_path_buf() }),
        // Nobody listening: a stale socket from an unclean shutdown.
        Err(e) if e.kind() == std::io::ErrorKind::ConnectionRefused => {
            std::fs::remove_file(path).map_err(ServeError::Io)
        }
        Err(e) => Err(ServeError::Io(e)),
    }
}

impl Server {
    /// Binds the socket, opens the store, and warm-loads it into the
    /// session's result memo. Returns a server ready to
    /// [`run`](Self::run).
    ///
    /// # Errors
    ///
    /// [`ServeError::AlreadyRunning`] when a live daemon owns the socket,
    /// [`ServeError::NotASocket`] when the path is some other file, and
    /// [`ServeError::Io`] for bind and store failures.
    pub fn bind(config: ServeConfig) -> Result<Server, ServeError> {
        claim_socket_path(&config.socket)?;
        let listener = UnixListener::bind(&config.socket)?;
        let scheduler = Scheduler::new(config.config.clone());
        let store = match &config.store_dir {
            Some(dir) => Some(MappingStore::open_with(dir, config.shards, config.fsync)?),
            None => None,
        };
        let state = Arc::new(ServeState {
            scheduler,
            store: store.map(Mutex::new),
            counters: Counters::default(),
            shutdown: AtomicBool::new(false),
            started: Instant::now(),
            socket: config.socket.clone(),
            conns: Mutex::new(HashMap::new()),
            next_conn: AtomicU64::new(0),
            conns_live: AtomicU64::new(0),
            conns_peak: AtomicU64::new(0),
            queued_searches: AtomicU64::new(0),
            flights: Mutex::new(HashMap::new()),
            max_connections: config.max_connections.max(1) as u64,
            max_queued_searches: config.max_queued_searches as u64,
            retry_after_ms: config.retry_after_ms,
        });
        let timeouts = (config.idle_timeout, config.write_timeout);
        warm_load(&state);
        Ok(Server { listener, state, socket: config.socket, timeouts })
    }

    /// Serves until a `shutdown` request arrives, then compacts the
    /// store, removes the socket, and returns.
    ///
    /// # Errors
    ///
    /// Accept-loop and shutdown-compaction I/O failures (per-connection
    /// failures only close that connection).
    pub fn run(self) -> std::io::Result<()> {
        let (idle_timeout, write_timeout) = self.timeouts;
        let mut handles = Vec::new();
        for conn in self.listener.incoming() {
            if self.state.shutdown.load(Ordering::SeqCst) {
                break;
            }
            let stream = match conn {
                Ok(s) => s,
                // A transient accept failure must not kill the daemon.
                Err(_) => continue,
            };
            // Admission: over the cap, the connection gets one typed
            // `overloaded` frame and is dropped — no thread, no queue.
            if self.state.conns_live.load(Ordering::SeqCst) >= self.state.max_connections {
                self.state.counters.shed_connections.fetch_add(1, Ordering::Relaxed);
                let _ = stream.set_write_timeout(write_timeout);
                let mut body = String::new();
                let message = "server at connection capacity";
                write_overloaded(&mut body, self.state.retry_after_ms, message);
                let _ = wire::write_frame(&mut &stream, &body);
                continue;
            }
            // Timeouts are per-socket and shared by every clone, so set
            // them before the registry clone below.
            let _ = stream.set_read_timeout(idle_timeout);
            let _ = stream.set_write_timeout(write_timeout);
            let id = self.state.next_conn.fetch_add(1, Ordering::Relaxed);
            if let Ok(clone) = stream.try_clone() {
                lock_recover(&self.state.conns).insert(id, clone);
            }
            let live = self.state.conns_live.fetch_add(1, Ordering::SeqCst) + 1;
            self.state.conns_peak.fetch_max(live, Ordering::SeqCst);
            let state = Arc::clone(&self.state);
            handles.push(std::thread::spawn(move || {
                // The guard exists before the failpoint: a panic at spawn
                // must still release the admission slot.
                let _guard = ConnGuard { state: Arc::clone(&state), id };
                faultpoint!("serve.handler_spawn");
                serve_connection(&state, stream);
            }));
            // Reap finished handler threads so a long-lived daemon's
            // handle list tracks live connections, not total accepts.
            handles.retain(|h| !h.is_finished());
        }
        // Half-close every live connection: handlers parked in
        // `read_frame` on idle clients wake with EOF and exit; in-flight
        // requests still finish (writes stay open until the handler
        // returns on its next read).
        for (_, stream) in lock_recover(&self.state.conns).drain() {
            let _ = stream.shutdown(std::net::Shutdown::Read);
        }
        for h in handles {
            let _ = h.join();
        }
        if let Some(store) = &self.state.store {
            lock_recover(store).compact()?;
        }
        let _ = std::fs::remove_file(&self.socket);
        Ok(())
    }

    /// The socket path this server listens on.
    pub fn socket(&self) -> &std::path::Path {
        &self.socket
    }
}

/// Replays every store record into the session's result memo, verifying
/// context fingerprint, mapping validity, and mapping fingerprint per
/// record (see the module docs). Records are read and admitted one at a
/// time under the store lock, which nothing else takes before the daemon
/// serves.
fn warm_load(state: &ServeState) {
    let Some(store) = &state.store else { return };
    let store = lock_recover(store);
    for rec in store.iter() {
        let loaded = (|| {
            let (arch, _) = wire::preset(&rec.arch)?;
            let workload = wire::workload_from_json(&rec.workload).ok()?;
            if state.scheduler.context_fingerprint(&workload, arch) != rec.ctx_fp {
                return None;
            }
            let mapping = wire::mapping_from_json(&rec.mapping).ok()?;
            if mapping_fingerprint(&mapping) != rec.mapping_fp {
                return None;
            }
            // Re-validate, check against the session's constraints and
            // re-price under the current model, and file the mapping as
            // the context's memoized answer.
            state.scheduler.prime_mapping(&workload, arch, &mapping).ok()
        })();
        let counter =
            if loaded.is_some() { &state.counters.loaded } else { &state.counters.load_skipped };
        counter.fetch_add(1, Ordering::Relaxed);
    }
}

/// Per-connection loop: read a frame, dispatch, write the response;
/// repeat until disconnect, timeout, or shutdown. The request frame and
/// the response are each read and written in one buffer the connection
/// keeps, and responses are written straight into it; a hit's mapping is
/// decoded into one the connection keeps too.
fn serve_connection(state: &ServeState, stream: UnixStream) {
    let mut reader = BufReader::new(match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    });
    let mut writer = BufWriter::new(stream);
    let (mut frame, mut response) = (Vec::new(), String::new());
    let mut mapping = Mapping::from_levels(Vec::new());
    loop {
        faultpoint!("serve.frame_read");
        // Wait for the next frame's first byte: the time a client takes to
        // send its next request is not the daemon's.
        match reader.fill_buf() {
            Ok([]) | Err(_) => return,
            Ok(_) => {}
        }
        let mut clock = [Instant::now(); PHASES.len() + 1];
        response.clear();
        let payload = match wire::read_frame_into(&mut reader, &mut frame) {
            Ok(Some(p)) => p,
            // Clean disconnect: this connection is done.
            Ok(None) => return,
            // Framing violation (oversized prefix, mid-frame EOF,
            // non-UTF-8): tell the client *why* before closing — a silent
            // drop is indistinguishable from a daemon crash. The write is
            // best-effort; a mid-frame-EOF client is usually gone.
            Err(WireError::Protocol(m)) => {
                write_error(&mut response, "protocol_error", &m);
                let _ = wire::write_frame(&mut writer, &response);
                return;
            }
            // Socket-level failure, including the idle-timeout reap.
            Err(_) => return,
        };
        clock[1] = Instant::now();
        state.counters.requests.fetch_add(1, Ordering::Relaxed);
        let request = Request::parse(payload);
        clock[2] = Instant::now();
        let (mut hit, mut shutdown) = (false, false);
        match request {
            Ok(Request::Schedule { workload, arch, deadline_ms }) => {
                match resolve(state, &workload, &arch) {
                    Tier::Hit(found) => {
                        clock[3] = Instant::now();
                        hit = true;
                        found.write(&mut response, &mut mapping);
                    }
                    tier => {
                        let deadline = deadline(deadline_ms);
                        answer(
                            state,
                            tier,
                            &workload,
                            &arch,
                            deadline,
                            &mut response,
                            &mut mapping,
                        );
                    }
                }
            }
            Ok(Request::ScheduleBatch { workloads, arch, deadline_ms }) => {
                // One deadline bounds the whole batch; each layer gets
                // whatever wall-clock remains when its turn comes.
                let batch_deadline = deadline(deadline_ms);
                response.push_str("{\"ok\":true,\"layers\":[");
                for (i, w) in workloads.iter().enumerate() {
                    if i > 0 {
                        response.push(',');
                    }
                    answer(
                        state,
                        resolve(state, w, &arch),
                        w,
                        &arch,
                        batch_deadline,
                        &mut response,
                        &mut mapping,
                    );
                }
                response.push_str("]}");
            }
            Ok(Request::CacheStats) => stats_response(state).write(&mut response),
            Ok(Request::Shutdown) => {
                response.push_str("{\"ok\":true}");
                shutdown = true;
            }
            // Malformed JSON: the frame boundary cannot be trusted to
            // resynchronize, so answer and close.
            Err(WireError::Json(e)) => {
                write_error(&mut response, "protocol_error", &e.to_string());
                let _ = wire::write_frame(&mut writer, &response);
                return;
            }
            // Well-formed JSON that is not a valid request: the framing
            // is intact, so answer and keep the connection.
            Err(e) => write_error(&mut response, "protocol", &e.to_string()),
        }
        clock[4] = Instant::now();
        if wire::write_frame(&mut writer, &response).is_err() {
            return;
        }
        if hit {
            clock[5] = Instant::now();
            let c = &state.counters;
            c.hits.fetch_add(1, Ordering::Relaxed);
            for (total, span) in c.hit_ns.iter().zip(clock.windows(2)) {
                total.fetch_add((span[1] - span[0]).as_nanos() as u64, Ordering::Relaxed);
            }
        }
        if shutdown {
            trigger_shutdown(state);
            return;
        }
    }
}

/// Converts a request's `deadline_ms` into an absolute instant, anchored
/// at parse time so queueing and single-flight waits count against it.
fn deadline(deadline_ms: Option<u64>) -> Option<Instant> {
    deadline_ms.map(|ms| Instant::now() + Duration::from_millis(ms))
}

/// Flags shutdown, then dials the socket so the accept loop (blocked in
/// `incoming`) wakes, observes the flag, and exits.
fn trigger_shutdown(state: &ServeState) {
    state.shutdown.store(true, Ordering::SeqCst);
    let _ = UnixStream::connect(&state.socket);
}

fn error_kind(e: &ScheduleError) -> &'static str {
    match e {
        ScheduleError::Arch(_) => "arch",
        ScheduleError::Binding(_) => "binding",
        ScheduleError::NoValidMapping => "no_valid_mapping",
        ScheduleError::InfeasibleLevel { .. } => "infeasible",
        ScheduleError::InvalidConfig { .. } => "invalid_config",
        ScheduleError::InvalidConstraints { .. } => "invalid_constraints",
        ScheduleError::InvalidMapping { .. } => "invalid_mapping",
        ScheduleError::Cancelled => "cancelled",
        ScheduleError::BudgetExhausted => "budget_exhausted",
        ScheduleError::Internal { .. } => "internal",
        _ => "error",
    }
}

// The responses, written straight into the connection's buffer through
// the writer `Json` prints with: each is the bytes of the object its doc
// shows, keys in that order.

/// `{"ok":false,"kind":…,"error":…}`.
fn write_error(out: &mut String, kind: &str, message: &str) {
    out.push_str("{\"ok\":false,\"kind\":");
    json::write_str(out, kind);
    out.push_str(",\"error\":");
    json::write_str(out, message);
    out.push('}');
}

/// The typed load-shedding response,
/// `{"ok":false,"kind":"overloaded","error":"…; retry later","retry_after_ms":…}`:
/// the retry hint lets well-behaved clients back off instead of
/// hammering.
fn write_overloaded(out: &mut String, retry_after_ms: u64, message: &str) {
    out.push_str("{\"ok\":false,\"kind\":\"overloaded\",\"error\":");
    json::write_str(out, &format!("{message}; retry later"));
    out.push_str(",\"retry_after_ms\":");
    json::write_num(out, retry_after_ms as f64);
    out.push('}');
}

/// A served mapping: `{"ok":true,"source":…,"degraded":…,"ctx_fp":"…",
/// "mapping_fp":"…","edp":…,"energy_pj":…,"delay_cycles":…,"mapping":{…}}`.
/// The EDP is the totals' product, as a cost report's is.
fn write_result(
    out: &mut String,
    ctx_fp: u64,
    source: &str,
    mapping_fp: u64,
    mapping: &Mapping,
    totals: CostTotals,
    degraded: bool,
) {
    out.push_str("{\"ok\":true,\"source\":");
    json::write_str(out, source);
    out.push_str(",\"degraded\":");
    json::write_bool(out, degraded);
    out.push_str(",\"ctx_fp\":");
    json::write_u64_str(out, ctx_fp);
    out.push_str(",\"mapping_fp\":");
    json::write_u64_str(out, mapping_fp);
    out.push_str(",\"edp\":");
    json::write_num(out, totals.edp());
    out.push_str(",\"energy_pj\":");
    json::write_num(out, totals.energy_pj);
    out.push_str(",\"delay_cycles\":");
    json::write_num(out, totals.delay_cycles);
    out.push_str(",\"mapping\":");
    wire::write_mapping(out, mapping);
    out.push('}');
}

/// A memoized answer (searched earlier or warm-loaded) and the `source`
/// it is served as.
struct Hit {
    ctx_fp: u64,
    source: &'static str,
    entry: Memoized,
}

impl Hit {
    /// Writes the response, the best mapping decoded into `mapping`, which
    /// the connection keeps across its requests.
    fn write(&self, out: &mut String, mapping: &mut Mapping) {
        let (totals, fp) = (self.entry.best_into(mapping), self.entry.mapping_fp);
        write_result(out, self.ctx_fp, self.source, fp, mapping, totals, false);
    }
}

/// A memo hit bumps the counter of its `source`.
fn memo_hit(state: &ServeState, ctx_fp: u64) -> Option<Hit> {
    let entry = state.scheduler.memoized(ctx_fp)?;
    let (source, counter) = if entry.primed {
        ("store", &state.counters.store_hits)
    } else {
        ("memo", &state.counters.memo_hits)
    };
    counter.fetch_add(1, Ordering::Relaxed);
    Some(Hit { ctx_fp, source, entry })
}

/// Where the memo tier leaves one `schedule` request.
enum Tier {
    /// Answered from the session memo, which serves in microseconds.
    Hit(Hit),
    /// Not memoized: the search tier's.
    Miss { arch: &'static ArchSpec, ctx_fp: u64 },
    /// The request names no known preset.
    UnknownArch,
}

/// The memo tier: the preset (built once, fingerprint beside it), the
/// context fingerprint, the memo lookup.
fn resolve(state: &ServeState, workload: &Workload, arch_name: &str) -> Tier {
    let Some((arch, arch_fp)) = wire::preset(arch_name) else { return Tier::UnknownArch };
    let ctx_fp = state.scheduler.context_fingerprint_of(workload_fingerprint(workload), arch_fp);
    match memo_hit(state, ctx_fp) {
        Some(found) => Tier::Hit(found),
        None => Tier::Miss { arch, ctx_fp },
    }
}

/// Answers one workload from where the memo tier left it (see the module
/// docs): a hit as is; a miss through search-queue admission,
/// single-flight, then a (possibly deadline-bounded) library search. A
/// hit decodes its mapping into `mapping`, the connection's.
fn answer(
    state: &ServeState,
    tier: Tier,
    workload: &Workload,
    arch_name: &str,
    deadline: Option<Instant>,
    out: &mut String,
    mapping: &mut Mapping,
) {
    let (arch, ctx_fp) = match tier {
        Tier::Hit(found) => return found.write(out, mapping),
        Tier::Miss { arch, ctx_fp } => (arch, ctx_fp),
        Tier::UnknownArch => {
            state.counters.errors.fetch_add(1, Ordering::Relaxed);
            let message = format!("unknown architecture preset {arch_name:?}");
            return write_error(out, "protocol", &message);
        }
    };
    // Search-queue admission: memo misses are the expensive tier, and
    // only `max_queued_searches` of them may be in flight at once.
    let Some(_ticket) = SearchTicket::acquire(state) else {
        state.counters.shed_requests.fetch_add(1, Ordering::Relaxed);
        return write_overloaded(out, state.retry_after_ms, "search queue at capacity");
    };
    // Single-flight: concurrent misses on the same context serialize
    // here; whoever acquires first searches, everyone after re-checks
    // the memo under the flight lock and hits.
    let flight = Arc::clone(lock_recover(&state.flights).entry(ctx_fp).or_default());
    let _guard = flight.lock().unwrap_or_else(|e| e.into_inner());
    if let Some(found) = memo_hit(state, ctx_fp) {
        return found.write(out, mapping);
    }
    state.counters.searches.fetch_add(1, Ordering::Relaxed);
    // The deadline is anchored at request parse: waiting on the flight
    // lock already spent part of it, so the search gets the remainder
    // (none left: the search stops before its first stage and serves the
    // root's completion, degraded).
    let mut options = ScheduleOptions::default();
    if let Some(d) = deadline {
        options = options.time_budget(d.saturating_duration_since(Instant::now()));
    }
    let (result, degraded) = match state.scheduler.schedule_with(workload, arch, &options) {
        Ok(outcome) => outcome.into_best(),
        Err(e) => {
            lock_recover(&state.flights).remove(&ctx_fp);
            state.counters.errors.fetch_add(1, Ordering::Relaxed);
            return write_error(out, error_kind(&e), &e.to_string());
        }
    };
    let mapping_fp = mapping_fingerprint(&result.mapping);
    let totals = result.report.totals();
    write_result(out, ctx_fp, "search", mapping_fp, &result.mapping, totals, degraded);
    // The session memoized a complete search before returning it — so a
    // fault in persistence below cannot lose an already-computed result —
    // and never memoizes a deadline-cut one.
    lock_recover(&state.flights).remove(&ctx_fp);
    if degraded {
        // A deadline-cut result is only as good as its budget allowed:
        // serve it to the client that asked, but never persist it — the
        // next request searches with its own budget instead of inheriting
        // a worse-than-best mapping forever.
        state.counters.degraded.fetch_add(1, Ordering::Relaxed);
        return;
    }
    if let Some(store) = &state.store {
        let rec = StoreRecord {
            ctx_fp,
            mapping_fp,
            arch: arch_name.to_string(),
            edp: result.report.edp,
            energy_pj: result.report.energy_pj,
            delay_cycles: result.report.delay_cycles,
            workload: wire::workload_to_json(workload),
            mapping: wire::mapping_to_json(&result.mapping),
        };
        // A full disk degrades persistence, not serving.
        let _ = lock_recover(store).append(rec);
    }
}

fn stats_response(state: &ServeState) -> Json {
    let c = &state.counters;
    let session = state.scheduler.cache_stats();
    let mut pairs = vec![
        ("ok".into(), Json::Bool(true)),
        ("uptime_secs".into(), Json::Num(state.started.elapsed().as_secs() as f64)),
        ("requests".into(), Json::Num(c.requests.load(Ordering::Relaxed) as f64)),
        ("searches".into(), Json::Num(c.searches.load(Ordering::Relaxed) as f64)),
        ("memo_hits".into(), Json::Num(c.memo_hits.load(Ordering::Relaxed) as f64)),
        ("store_hits".into(), Json::Num(c.store_hits.load(Ordering::Relaxed) as f64)),
        ("errors".into(), Json::Num(c.errors.load(Ordering::Relaxed) as f64)),
        ("degraded".into(), Json::Num(c.degraded.load(Ordering::Relaxed) as f64)),
        ("conns_live".into(), Json::Num(state.conns_live.load(Ordering::SeqCst) as f64)),
        ("conns_peak".into(), Json::Num(state.conns_peak.load(Ordering::SeqCst) as f64)),
        ("shed_connections".into(), Json::Num(c.shed_connections.load(Ordering::Relaxed) as f64)),
        ("shed_requests".into(), Json::Num(c.shed_requests.load(Ordering::Relaxed) as f64)),
        ("memo_entries".into(), Json::Num(session.entries as f64)),
        (
            "session".into(),
            Json::Obj(vec![
                ("hits".into(), Json::Num(session.hits as f64)),
                ("misses".into(), Json::Num(session.misses as f64)),
                ("entries".into(), Json::Num(session.entries as f64)),
                ("memo_bytes".into(), Json::Num(session.memo_bytes as f64)),
                ("pool_rounds".into(), Json::Num(session.pool_rounds as f64)),
            ]),
        ),
        ("hit_path".into(), hit_path_stats(c)),
    ];
    if let Some(store) = &state.store {
        let s = lock_recover(store).stats();
        pairs.push((
            "store".into(),
            Json::Obj(vec![
                ("records".into(), Json::Num(s.records as f64)),
                ("quarantined".into(), Json::Num(s.quarantined as f64)),
                ("stale_shards".into(), Json::Num(s.stale_shards as f64)),
                ("migrated_shards".into(), Json::Num(s.migrated_shards as f64)),
                ("appended".into(), Json::Num(s.appended as f64)),
                ("fsyncs".into(), Json::Num(s.fsyncs as f64)),
                ("loaded".into(), Json::Num(c.loaded.load(Ordering::Relaxed) as f64)),
                ("load_skipped".into(), Json::Num(c.load_skipped.load(Ordering::Relaxed) as f64)),
            ]),
        ));
    }
    Json::Obj(pairs)
}

/// `{"requests":N,"read_ns":…,…}`: the memo hits of single `schedule`
/// requests and their cumulative nanoseconds per phase ([`PHASES`]).
fn hit_path_stats(c: &Counters) -> Json {
    let mut pairs = vec![("requests".into(), Json::Num(c.hits.load(Ordering::Relaxed) as f64))];
    for (phase, ns) in PHASES.iter().zip(&c.hit_ns) {
        pairs.push((format!("{phase}_ns"), Json::Num(ns.load(Ordering::Relaxed) as f64)));
    }
    Json::Obj(pairs)
}

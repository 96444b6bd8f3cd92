//! The persistent on-disk mapping store: best mapping + cost per
//! scheduling context, surviving daemon restarts.
//!
//! # Format (`sunstone-store/v2`)
//!
//! A store is a directory of line-oriented shards, `shard-NN.log`. Every
//! shard starts with a plain-JSON header line
//!
//! ```json
//! {"schema":"sunstone-store/v2","cost_model":1,"shards":4}
//! ```
//!
//! followed by one *checksummed* record per line: eight lowercase hex
//! digits of the record's CRC32 ([`crate::crc::crc32`]), one space, then
//! the record JSON the checksum covers:
//!
//! ```text
//! 9f3a01bc {"ctx_fp":"…","mapping_fp":"…","arch":"simba_like",…}
//! ```
//!
//! Fingerprints are decimal strings (u64s do not survive JSON numbers);
//! the workload and mapping are embedded in full so a fresh daemon can
//! rebuild the problem, re-validate the mapping, and re-price it under
//! the current cost model — the stored EDP is a cache, never an oracle.
//!
//! # The index
//!
//! In memory the store holds no record, only where each context's latest
//! line lies in its shard: `ctx_fp → (offset, len)`, 24 bytes a record
//! before hash-table slack (the shard follows from the fingerprint).
//! [`MappingStore::get`] and [`MappingStore::iter`] read a line back with
//! `pread` and verify its checksum again before parsing it. The daemon
//! serves an answer from its session memo, so the memo's copy is the only
//! one it keeps in memory; the store's is on disk.
//!
//! # Corruption and quarantine
//!
//! A record line that fails its CRC, fails to parse, or is torn by an
//! unclean shutdown is **quarantined**: the raw line is appended to the
//! shard's `shard-NN.quarantine` sidecar, counted in
//! [`StoreStats::quarantined`], and never enters the index — a flipped
//! bit loses one cached result and leaves evidence, it never serves a
//! wrong mapping and never fails the open. An open that quarantined a
//! line then rewrites the store as compaction does, so the line leaves
//! its shard and the next open does not copy it to the sidecar again. A
//! line that verified at open but no longer does when read back (the file
//! changed under the store) is never returned, and the next compaction
//! quarantines it and drops it from the index. A shard whose *header* is
//! missing, wrong-schema (other than v1, see below), or priced under a
//! different
//! [`COST_MODEL_VERSION`] is discarded wholesale — replaying costs from
//! an older model would serve wrong numbers as current.
//!
//! # Durability
//!
//! Every append writes its line straight to the shard file, which the
//! index reads back from; [`FsyncPolicy`] decides how often the file is
//! `fsync`ed: `Never` (hand it to the OS only), `PerRecord` (the default:
//! an fsync after every append), or `Interval` (at most one fsync per
//! period, amortizing bursts). Compaction always syncs the temp file
//! before the atomic rename that commits it.
//!
//! # Migration
//!
//! A shard with a `sunstone-store/v1` header (plain JSON lines, no
//! checksums) and a current cost-model version is migrated on first
//! open: its lines are indexed as the v1 parser reads them, then the
//! shard is rewritten in v2 form the way compaction rewrites one, and
//! counted in [`StoreStats::migrated_shards`]. A crash mid-migration
//! leaves either the old v1 shard or the new v2 shard, both loadable.
//!
//! # Compaction
//!
//! Appends are log-structured: a context scheduled twice appears twice,
//! last record winning at load. [`MappingStore::compact`] (called on
//! graceful shutdown) rewrites each shard to exactly one line per
//! context, in fingerprint order, via a temp file + atomic rename, so a
//! crash *during* compaction leaves either the old or the new shard, both
//! valid. It reads each shard once, in sequence, and copies the indexed
//! lines out after checking each checksum again; it parses no JSON.
//! Quarantine sidecars are left untouched — they are operator evidence.
//! An open with another shard count than the store was written with
//! indexes every `shard-NN.log` in the directory and rewrites the store
//! the same way, to the count it is given, removing the files past it.

use std::borrow::Cow;
use std::collections::HashMap;
use std::fs::{self, File, OpenOptions};
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

use sunstone_model::COST_MODEL_VERSION;

use crate::crc::crc32;
use crate::json::{self, u64_str, Json};

/// Store schema identifier; bump on any incompatible layout change.
pub const SCHEMA: &str = "sunstone-store/v2";

/// The previous, checksum-less schema, still readable (and migrated)
/// when its cost-model version matches.
const SCHEMA_V1: &str = "sunstone-store/v1";

/// How often an appended record is `fsync`ed to disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FsyncPolicy {
    /// Hand every record to the OS but never fsync: a host crash can lose
    /// recent appends, a daemon crash cannot.
    Never,
    /// Fsync after every appended record (the default): a host crash
    /// loses at most the in-flight record.
    #[default]
    PerRecord,
    /// Fsync at most once per period, amortizing append bursts.
    Interval(Duration),
}

/// One persisted scheduling result.
#[derive(Debug, Clone)]
pub struct StoreRecord {
    /// The session's context fingerprint (workload, arch, config,
    /// constraints) — the lookup key.
    pub ctx_fp: u64,
    /// Fingerprint of the stored mapping, for bit-identity gating.
    pub mapping_fp: u64,
    /// Architecture preset name the result was produced on.
    pub arch: String,
    /// Stored cost figures (re-priced at load; see the module docs).
    pub edp: f64,
    pub energy_pj: f64,
    pub delay_cycles: f64,
    /// Self-contained workload encoding ([`crate::wire::workload_to_json`]).
    pub workload: Json,
    /// Mapping encoding ([`crate::wire::mapping_to_json`]).
    pub mapping: Json,
}

impl StoreRecord {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("ctx_fp".into(), u64_str(self.ctx_fp)),
            ("mapping_fp".into(), u64_str(self.mapping_fp)),
            ("arch".into(), Json::Str(self.arch.clone())),
            ("edp".into(), Json::Num(self.edp)),
            ("energy_pj".into(), Json::Num(self.energy_pj)),
            ("delay_cycles".into(), Json::Num(self.delay_cycles)),
            ("workload".into(), self.workload.clone()),
            ("mapping".into(), self.mapping.clone()),
        ])
    }

    /// The v2 on-disk line: CRC over the serialized record, then the
    /// record itself.
    fn to_line(&self) -> String {
        let body = self.to_json().to_string();
        format!("{:08x} {body}", crc32(body.as_bytes()))
    }

    fn from_json(v: &Json) -> Option<StoreRecord> {
        Some(StoreRecord {
            ctx_fp: v.get("ctx_fp")?.as_u64_str()?,
            mapping_fp: v.get("mapping_fp")?.as_u64_str()?,
            arch: v.get("arch")?.as_str()?.to_string(),
            edp: v.get("edp")?.as_f64()?,
            energy_pj: v.get("energy_pj")?.as_f64()?,
            delay_cycles: v.get("delay_cycles")?.as_f64()?,
            workload: v.get("workload")?.clone(),
            mapping: v.get("mapping")?.clone(),
        })
    }

    /// Parses a v2 line, checksum verified before the JSON is even parsed.
    fn from_line(line: &[u8]) -> Option<StoreRecord> {
        Self::from_body(checked_body(line)?)
    }

    /// Parses a record's plain JSON: a v1 line, or a v2 line's body.
    fn from_body(body: &[u8]) -> Option<StoreRecord> {
        Self::from_json(&json::parse(std::str::from_utf8(body).ok()?).ok()?)
    }
}

/// The record JSON of a v2 line, `<crc32 hex8> <json>`, if its checksum
/// holds.
fn checked_body(line: &[u8]) -> Option<&[u8]> {
    let crc = u32::from_str_radix(std::str::from_utf8(line.get(..8)?).ok()?, 16).ok()?;
    let body = line[8..].strip_prefix(b" ")?;
    (crc == crc32(body)).then_some(body)
}

/// A line as read, without its terminator (`\n` or `\r\n`).
fn strip_newline(line: &[u8]) -> &[u8] {
    let line = line.strip_suffix(b"\n").unwrap_or(line);
    line.strip_suffix(b"\r").unwrap_or(line)
}

/// The header line every shard starts with.
fn header(shards: usize) -> String {
    Json::Obj(vec![
        ("schema".into(), Json::Str(SCHEMA.into())),
        ("cost_model".into(), Json::Num(f64::from(COST_MODEL_VERSION))),
        ("shards".into(), Json::Num(shards as f64)),
    ])
    .to_string()
}

/// Load-time statistics, surfaced through `cache_stats`.
#[derive(Debug, Clone, Copy, Default)]
pub struct StoreStats {
    /// Distinct contexts indexed.
    pub records: usize,
    /// Rejected lines, each copied to a `.quarantine` sidecar:
    /// unparseable, checksum-failing, or truncated lines at load, and
    /// lines that no longer verified when compaction read them back.
    pub quarantined: usize,
    /// Shards discarded for schema or cost-model version mismatch.
    pub stale_shards: usize,
    /// v1 shards rewritten to v2 on open.
    pub migrated_shards: usize,
    /// Records appended since open.
    pub appended: u64,
    /// `fsync` calls issued since open (see [`FsyncPolicy`]).
    pub fsyncs: u64,
}

/// Where a record's line lies: the shard file, the offset of the line's
/// first byte and its length without the newline. Once the store is open
/// the file is the one the context's fingerprint names
/// ([`MappingStore::shard_of`]); only while an open re-shards a store
/// written with another shard count does a line lie in another file.
#[derive(Debug, Clone, Copy)]
struct Span {
    offset: u64,
    len: u32,
    shard: u8,
}

impl Span {
    fn range(self) -> std::ops::Range<usize> {
        let start = self.offset as usize;
        start..start + self.len as usize
    }
}

/// One shard's open state.
#[derive(Debug)]
struct ShardFile {
    /// A read-and-append handle, opened on first use; a rewrite of the
    /// shard drops it with the file the rename replaces.
    handle: OnceLock<File>,
    /// Where the next append lands: the file's length as this store last
    /// left it. `None` when unknown — nothing appended since open or a
    /// rewrite, or an append stopped partway — and the next append asks
    /// the file.
    end: Option<u64>,
    /// The last fsync, for [`FsyncPolicy::Interval`].
    last_sync: Instant,
}

/// The most shard files a store has: shard indices are two digits in a
/// file name and a `u8` in a [`Span`].
const MAX_SHARDS: usize = 64;

/// One past the highest `NN` of a `shard-NN.log` in `dir` (`NN` below
/// [`MAX_SHARDS`]); 0 when there is none.
fn shards_on_disk(dir: &Path) -> std::io::Result<usize> {
    let mut on_disk = 0;
    for entry in fs::read_dir(dir)? {
        let name = entry?.file_name();
        let nn = name.to_str().and_then(|n| n.strip_prefix("shard-")?.strip_suffix(".log"));
        if let Some(nn) = nn.filter(|nn| nn.len() == 2 && nn.bytes().all(|b| b.is_ascii_digit())) {
            let shard: usize = nn.parse().expect("two digits");
            if shard < MAX_SHARDS {
                on_disk = on_disk.max(shard + 1);
            }
        }
    }
    Ok(on_disk)
}

/// The whole of an old shard file (nothing when it is gone).
fn read_whole(file: Option<&File>) -> std::io::Result<Vec<u8>> {
    let Some(file) = file else { return Ok(Vec::new()) };
    let mut bytes = vec![0; file.metadata()?.len() as usize];
    file.read_exact_at(&mut bytes, 0)?;
    Ok(bytes)
}

/// The shard's handle in `slot`, opened (and the file created) on first
/// use.
fn open_handle<'a>(slot: &'a OnceLock<File>, path: &Path) -> std::io::Result<&'a File> {
    if let Some(file) = slot.get() {
        return Ok(file);
    }
    let file = OpenOptions::new().read(true).append(true).create(true).open(path)?;
    Ok(slot.get_or_init(|| file))
}

/// The persistent store: an offset index of the latest line per context
/// over sharded append logs.
#[derive(Debug)]
pub struct MappingStore {
    dir: PathBuf,
    fsync: FsyncPolicy,
    /// Where the latest line of each context lies. No line is held here:
    /// the daemon serves an answer from its session memo, and the store
    /// reads a line back only for [`get`](Self::get), [`iter`](Self::iter)
    /// and compaction.
    index: HashMap<u64, Span>,
    shards: Vec<ShardFile>,
    stats: StoreStats,
}

impl MappingStore {
    /// Opens (or initializes) a store directory with `shards` shard
    /// files (1 to 64) and the default [`FsyncPolicy`]. Every existing
    /// `shard-NN.log` is indexed (v1 shards are migrated), and a store
    /// written with another shard count is re-sharded to `shards`: no
    /// record is lost and none is left where a later open would read it
    /// as current; see the module docs for how corruption and version skew
    /// degrade.
    ///
    /// # Errors
    ///
    /// Only filesystem failures (directory creation, unreadable files)
    /// error; corrupt *content* never does.
    pub fn open(dir: impl Into<PathBuf>, shards: usize) -> std::io::Result<MappingStore> {
        Self::open_with(dir, shards, FsyncPolicy::default())
    }

    /// [`open`](Self::open) with an explicit durability policy.
    ///
    /// # Errors
    ///
    /// As [`open`](Self::open).
    pub fn open_with(
        dir: impl Into<PathBuf>,
        shards: usize,
        fsync: FsyncPolicy,
    ) -> std::io::Result<MappingStore> {
        let dir = dir.into();
        let shards = shards.clamp(1, MAX_SHARDS);
        fs::create_dir_all(&dir)?;
        let on_disk = shards_on_disk(&dir)?;
        let now = Instant::now();
        let mut store = MappingStore {
            dir,
            fsync,
            index: HashMap::new(),
            shards: (0..shards)
                .map(|_| ShardFile { handle: OnceLock::new(), end: None, last_sync: now })
                .collect(),
            stats: StoreStats::default(),
        };
        let mut v1 = vec![false; shards.max(on_disk)];
        for (shard, v1) in v1.iter_mut().enumerate() {
            *v1 = store.load_shard(shard)? == Some(SCHEMA_V1);
        }
        store.stats.migrated_shards = v1.iter().filter(|&&v1| v1).count();
        // A v1 shard is migrated; a rejected line leaves its shard: it is
        // in the sidecar now, and would be copied there at every open; and
        // a store written with another shard count is re-sharded, so that
        // no file past the count keeps lines a later open would index.
        let misplaced = store
            .index
            .iter()
            .any(|(&ctx_fp, span)| usize::from(span.shard) != store.shard_of(ctx_fp));
        if store.stats.migrated_shards > 0
            || store.stats.quarantined > 0
            || misplaced
            || on_disk > shards
        {
            store.rewrite(&v1)?;
        }
        Ok(store)
    }

    fn shard_path(&self, shard: usize) -> PathBuf {
        self.dir.join(format!("shard-{shard:02}.log"))
    }

    fn quarantine_path(&self, shard: usize) -> PathBuf {
        self.dir.join(format!("shard-{shard:02}.quarantine"))
    }

    fn shard_of(&self, ctx_fp: u64) -> usize {
        // Top bits: FNV output mixes well, and the prefix keeps related
        // contexts spread even if low bits ever become structured.
        (ctx_fp >> 56) as usize % self.shards.len()
    }

    /// Classifies a shard's header line: current v2, migratable v1, or
    /// untrusted.
    fn header_schema(line: &[u8]) -> Option<&'static str> {
        let v = json::parse(std::str::from_utf8(line).ok()?).ok()?;
        if v.get("cost_model").and_then(Json::as_u64) != Some(u64::from(COST_MODEL_VERSION)) {
            return None;
        }
        match v.get("schema").and_then(Json::as_str) {
            Some(s) if s == SCHEMA => Some(SCHEMA),
            Some(s) if s == SCHEMA_V1 => Some(SCHEMA_V1),
            _ => None,
        }
    }

    /// Copies a rejected line into the shard's quarantine sidecar and
    /// counts it. Sidecar I/O is best-effort: quarantine must never turn
    /// a corrupt record into a failed open.
    fn quarantine(&mut self, shard: usize, line: &[u8]) {
        self.stats.quarantined += 1;
        if let Ok(mut f) =
            OpenOptions::new().create(true).append(true).open(self.quarantine_path(shard))
        {
            let _ = f.write_all(line);
            let _ = f.write_all(b"\n");
        }
    }

    /// Indexes one shard's verified lines, a later line of a context
    /// superseding an earlier one. Returns the shard's schema, `None`
    /// when it has no file or was discarded.
    fn load_shard(&mut self, shard: usize) -> std::io::Result<Option<&'static str>> {
        let path = self.shard_path(shard);
        let file = match File::open(&path) {
            Ok(f) => f,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(e),
        };
        let mut reader = BufReader::new(file);
        let mut line = Vec::new();
        let mut offset = reader.read_until(b'\n', &mut line)? as u64;
        let Some(schema) = Self::header_schema(strip_newline(&line)) else {
            // Missing, torn, or version-skewed header: the whole shard is
            // untrusted. Drop it on disk too, so a later append does not
            // graft current-version records onto a stale file.
            self.stats.stale_shards += 1;
            fs::remove_file(&path)?;
            return Ok(None);
        };
        loop {
            line.clear();
            let read = reader.read_until(b'\n', &mut line)?;
            if read == 0 {
                break;
            }
            let (text, start) = (strip_newline(&line), offset);
            offset += read as u64;
            if text.trim_ascii().is_empty() {
                continue;
            }
            let parsed = if schema == SCHEMA {
                StoreRecord::from_line(text)
            } else {
                StoreRecord::from_body(text)
            };
            match (parsed, u32::try_from(text.len())) {
                (Some(rec), Ok(len)) => {
                    self.index.insert(rec.ctx_fp, Span { offset: start, len, shard: shard as u8 });
                }
                // A torn tail (unclean shutdown), a flipped bit, or any
                // other garbage: quarantine and count, never fail the
                // open, never serve.
                _ => self.quarantine(shard, text),
            }
        }
        Ok(Some(schema))
    }

    /// Number of distinct contexts currently indexed.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Whether the store indexes no records.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Load/append statistics.
    pub fn stats(&self) -> StoreStats {
        StoreStats { records: self.index.len(), ..self.stats }
    }

    /// The latest record for `ctx_fp`, if any: its line read back from
    /// the shard and verified again. A line that no longer verifies (the
    /// file changed under the store) reads as absent, and the next
    /// [`compact`](Self::compact) quarantines it; so does a record
    /// appended with a value its line cannot carry (a non-finite cost),
    /// as it would after a reopen.
    pub fn get(&self, ctx_fp: u64) -> Option<StoreRecord> {
        self.read(*self.index.get(&ctx_fp)?)
    }

    /// Iterates over the latest record of every context (see
    /// [`get`](Self::get)), shard by shard in file order, reading and
    /// parsing one line at a time.
    pub fn iter(&self) -> impl Iterator<Item = StoreRecord> + '_ {
        let mut spans: Vec<Span> = self.index.values().copied().collect();
        spans.sort_unstable_by_key(|span| (span.shard, span.offset));
        spans.into_iter().filter_map(|span| self.read(span))
    }

    /// Reads `span` back with `pread` and parses it if its checksum still
    /// holds.
    fn read(&self, span: Span) -> Option<StoreRecord> {
        let shard = usize::from(span.shard);
        let file = open_handle(&self.shards[shard].handle, &self.shard_path(shard)).ok()?;
        let mut line = vec![0; span.len as usize];
        file.read_exact_at(&mut line, span.offset).ok()?;
        StoreRecord::from_line(&line)
    }

    /// Appends `record` to its shard (creating the shard with a fresh
    /// header if needed) and indexes where its line landed.
    ///
    /// # Errors
    ///
    /// Filesystem failures. The index then keeps what it held: the
    /// daemon serves the record from its session memo meanwhile, and a
    /// restart searches it again.
    pub fn append(&mut self, record: StoreRecord) -> std::io::Result<()> {
        let shard = self.shard_of(record.ctx_fp);
        let mut line = record.to_line();
        let len = u32::try_from(line.len()).map_err(|_| {
            std::io::Error::new(std::io::ErrorKind::InvalidInput, "a record line over 4 GiB")
        })?;
        line.push('\n');
        self.stats.appended += 1;
        let (path, shards) = (self.shard_path(shard), self.shards.len());
        let ShardFile { handle, end, .. } = &mut self.shards[shard];
        let mut file = open_handle(handle, &path)?;
        // Every write goes straight to the file, in append mode: the line
        // lands at its end. Until this append completes, that end is
        // unknown.
        let offset = match end.take() {
            Some(end) => end,
            None => match file.metadata()?.len() {
                0 => {
                    let header = header(shards) + "\n";
                    file.write_all(header.as_bytes())?;
                    header.len() as u64
                }
                len => {
                    let mut last = [0];
                    file.read_exact_at(&mut last, len - 1)?;
                    if last == *b"\n" {
                        len
                    } else {
                        // The last line is unterminated (an append stopped
                        // partway, or the file ended so at open): end it so
                        // this record starts clean. The torn half is
                        // quarantined at the next open.
                        file.write_all(b"\n")?;
                        len + 1
                    }
                }
            },
        };
        // Two write halves with a failpoint between them: an injected
        // panic here is a *genuine* short write, the torn-record case the
        // chaos soak and the quarantine path must absorb.
        let (first, rest) = line.as_bytes().split_at(line.len() / 2);
        file.write_all(first)?;
        faultpoint!("serve.store_append");
        file.write_all(rest)?;
        *end = Some(offset + line.len() as u64);
        let span = Span { offset, len, shard: shard as u8 };
        self.index.insert(record.ctx_fp, span);
        self.sync_shard(shard)
    }

    /// Applies the [`FsyncPolicy`] after an append to `shard`.
    fn sync_shard(&mut self, shard: usize) -> std::io::Result<()> {
        let state = &mut self.shards[shard];
        let due = match self.fsync {
            FsyncPolicy::Never => false,
            FsyncPolicy::PerRecord => true,
            FsyncPolicy::Interval(period) => state.last_sync.elapsed() >= period,
        };
        if !due {
            return Ok(());
        }
        faultpoint!("serve.fsync");
        if let Some(file) = state.handle.get() {
            file.sync_data()?;
        }
        state.last_sync = Instant::now();
        self.stats.fsyncs += 1;
        Ok(())
    }

    /// Rewrites every shard as a v2 shard holding exactly the latest
    /// lines of the contexts it owns ([`shard_of`](Self::shard_of)), in
    /// fingerprint order — so rewriting the same contents twice produces
    /// byte-identical shards — and indexes where each line now lies. A
    /// line of a v2 file is copied as it is once its checksum holds again;
    /// a line of a v1 file (`v1[shard]`) is parsed and written in v2 form;
    /// a line that fails is quarantined and dropped from the index.
    ///
    /// Lines are read from the files as they were before the first rename,
    /// one per entry of `v1`: a store reopened with another shard count
    /// holds some lines in another shard's file, which may be rewritten
    /// first, or in a file past the count, which goes once it is copied.
    fn rewrite(&mut self, v1: &[bool]) -> std::io::Result<()> {
        let mut old = Vec::with_capacity(v1.len());
        for shard in 0..v1.len() {
            old.push(match File::open(self.shard_path(shard)) {
                Ok(f) => Some(f),
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => None,
                Err(e) => return Err(e),
            });
        }
        for shard in 0..self.shards.len() {
            self.rewrite_shard(shard, &old, v1)?;
        }
        for (shard, file) in old.iter().enumerate().skip(self.shards.len()) {
            if file.is_some() {
                fs::remove_file(self.shard_path(shard))?;
            }
        }
        Ok(())
    }

    /// One shard of [`rewrite`](Self::rewrite), via temp file + atomic
    /// rename (the commit point); the temp file is synced before the
    /// rename, so a committed shard is durable. Each old file it copies
    /// from is read whole, once, in sequence — only `shard`'s own, unless
    /// the shard count changed.
    fn rewrite_shard(
        &mut self,
        shard: usize,
        old: &[Option<File>],
        v1: &[bool],
    ) -> std::io::Result<()> {
        let mut live: Vec<(u64, Span)> = self
            .index
            .iter()
            .filter(|(&ctx_fp, _)| self.shard_of(ctx_fp) == shard)
            .map(|(&ctx_fp, &span)| (ctx_fp, span))
            .collect();
        live.sort_unstable_by_key(|&(ctx_fp, _)| ctx_fp);
        // The old handle would read the file the rename replaces.
        (self.shards[shard].handle, self.shards[shard].end) = (OnceLock::new(), None);
        let path = self.shard_path(shard);
        if live.is_empty() {
            if path.exists() {
                fs::remove_file(&path)?;
            }
            return Ok(());
        }
        let mut read: Vec<Option<Vec<u8>>> = vec![None; old.len()];
        let tmp = self.dir.join(format!("shard-{shard:02}.tmp"));
        let header = header(self.shards.len());
        // The lines are in memory already: a 64 KiB buffer writes them in
        // an eighth of the calls the default 8 KiB one takes.
        let mut w = BufWriter::with_capacity(1 << 16, File::create(&tmp)?);
        w.write_all(header.as_bytes())?;
        w.write_all(b"\n")?;
        let mut offset = header.len() as u64 + 1;
        let mut moved = Vec::with_capacity(live.len());
        for (ctx_fp, span) in live {
            let from = usize::from(span.shard);
            if read[from].is_none() {
                read[from] = Some(read_whole(old[from].as_ref())?);
            }
            let line = read[from].as_deref().and_then(|b| b.get(span.range())).unwrap_or_default();
            let kept = if v1[from] {
                StoreRecord::from_body(line).map(|rec| Cow::Owned(rec.to_line().into_bytes()))
            } else {
                checked_body(line).map(|_| Cow::Borrowed(line))
            };
            let Some((len, kept)) = kept.and_then(|k| Some((u32::try_from(k.len()).ok()?, k)))
            else {
                // The line changed on disk since it was indexed: it was
                // never served, and it goes now.
                self.index.remove(&ctx_fp);
                self.quarantine(from, line);
                continue;
            };
            w.write_all(&kept)?;
            w.write_all(b"\n")?;
            moved.push((ctx_fp, Span { offset, len, shard: shard as u8 }));
            offset += u64::from(len) + 1;
        }
        w.flush()?;
        w.get_ref().sync_data()?;
        drop(w);
        faultpoint!("serve.compact_rename");
        fs::rename(&tmp, &path)?;
        self.index.extend(moved);
        Ok(())
    }

    /// Rewrites every shard to exactly one line per context (latest
    /// wins), via temp file + atomic rename. Called on graceful shutdown;
    /// safe to call repeatedly. It parses no JSON.
    ///
    /// # Errors
    ///
    /// Filesystem failures. A failed compaction leaves the previous
    /// shards intact (the rename is the commit point).
    pub fn compact(&mut self) -> std::io::Result<()> {
        self.rewrite(&vec![false; self.shards.len()])
    }

    /// The heap the store holds: its index's table (a hash table has 8/7
    /// of its capacity in buckets, each an entry and a control byte) and
    /// the per-shard state.
    #[cfg(test)]
    fn heap_bytes(&self) -> usize {
        let buckets = self.index.capacity() * 8 / 7;
        buckets * (std::mem::size_of::<(u64, Span)>() + 1)
            + self.shards.capacity() * std::mem::size_of::<ShardFile>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(ctx: u64, edp: f64) -> StoreRecord {
        StoreRecord {
            ctx_fp: ctx,
            mapping_fp: ctx.wrapping_mul(3),
            arch: "simba_like".into(),
            edp,
            energy_pj: 1.0,
            delay_cycles: 2.0,
            workload: Json::Obj(vec![("name".into(), Json::Str("w".into()))]),
            mapping: Json::Obj(vec![("levels".into(), Json::Arr(vec![]))]),
        }
    }

    fn tmpdir(tag: &str) -> PathBuf {
        let d =
            std::env::temp_dir().join(format!("sunstone-store-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn append_reload_latest_wins() {
        let dir = tmpdir("reload");
        {
            let mut s = MappingStore::open(&dir, 4).unwrap();
            s.append(rec(1, 10.0)).unwrap();
            s.append(rec(2, 20.0)).unwrap();
            s.append(rec(1, 5.0)).unwrap(); // supersedes
        }
        let s = MappingStore::open(&dir, 4).unwrap();
        assert_eq!(s.len(), 2);
        assert_eq!(s.iter().count(), 2);
        assert_eq!(s.get(1).unwrap().edp, 5.0);
        assert_eq!(s.get(2).unwrap().edp, 20.0);
        assert_eq!(s.stats().quarantined, 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_tail_is_quarantined_not_fatal() {
        let dir = tmpdir("torn");
        {
            let mut s = MappingStore::open(&dir, 1).unwrap();
            s.append(rec(7, 1.0)).unwrap();
            s.append(rec(8, 2.0)).unwrap();
        }
        // Simulate an unclean shutdown: cut the last line mid-record.
        let path = dir.join("shard-00.log");
        let contents = fs::read_to_string(&path).unwrap();
        fs::write(&path, &contents[..contents.len() - 30]).unwrap();
        let s = MappingStore::open(&dir, 1).unwrap();
        assert_eq!(s.len(), 1);
        assert!(s.get(7).is_some());
        assert_eq!(s.stats().quarantined, 1);
        let sidecar = fs::read_to_string(dir.join("shard-00.quarantine")).unwrap();
        assert_eq!(sidecar.lines().count(), 1, "torn line must land in the sidecar");
        let _ = fs::remove_dir_all(&dir);
    }

    /// A torn tail is quarantined once: the open that rejects it rewrites
    /// the shard without it, so two more opens find nothing to quarantine,
    /// the sidecar holds the line once, and every whole record survives.
    #[test]
    fn a_torn_tail_is_quarantined_once_across_reopens() {
        let dir = tmpdir("tornthrice");
        {
            let mut s = MappingStore::open(&dir, 1).unwrap();
            for ctx in [7, 8, 9] {
                s.append(rec(ctx, ctx as f64)).unwrap();
            }
        }
        let path = dir.join("shard-00.log");
        let contents = fs::read_to_string(&path).unwrap();
        fs::write(&path, &contents[..contents.len() - 30]).unwrap();
        for open in 0..3 {
            let s = MappingStore::open(&dir, 1).unwrap();
            assert_eq!(s.stats().quarantined, usize::from(open == 0), "open {open}");
            assert_eq!(s.len(), 2, "open {open}");
            assert_eq!((s.get(7).unwrap().edp, s.get(8).unwrap().edp), (7.0, 8.0), "open {open}");
            let sidecar = fs::read_to_string(dir.join("shard-00.quarantine")).unwrap();
            assert_eq!(sidecar.lines().count(), 1, "open {open}: the sidecar holds the line once");
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn flipped_bit_is_quarantined_by_the_checksum() {
        let dir = tmpdir("bitflip");
        {
            let mut s = MappingStore::open(&dir, 1).unwrap();
            s.append(rec(7, 1.0)).unwrap();
            s.append(rec(8, 2.0)).unwrap();
        }
        let path = dir.join("shard-00.log");
        let mut bytes = fs::read(&path).unwrap();
        // Flip one bit in the middle of the *first record line's* JSON
        // body — the header is line 0, records start after it.
        let header_end = bytes.iter().position(|&b| b == b'\n').unwrap();
        let line_end =
            header_end + 1 + bytes[header_end + 1..].iter().position(|&b| b == b'\n').unwrap();
        let target = (header_end + 1 + line_end) / 2;
        bytes[target] ^= 0x40;
        fs::write(&path, &bytes).unwrap();
        let s = MappingStore::open(&dir, 1).unwrap();
        assert_eq!(s.len(), 1, "the flipped record must not be served");
        assert_eq!(s.stats().quarantined, 1);
        assert!(dir.join("shard-00.quarantine").exists());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn version_skew_discards_the_shard() {
        let dir = tmpdir("skew");
        {
            let mut s = MappingStore::open(&dir, 1).unwrap();
            s.append(rec(9, 1.0)).unwrap();
        }
        let path = dir.join("shard-00.log");
        let contents = fs::read_to_string(&path).unwrap();
        let bumped = contents.replacen(
            &format!("\"cost_model\":{COST_MODEL_VERSION}"),
            &format!("\"cost_model\":{}", COST_MODEL_VERSION + 1),
            1,
        );
        assert_ne!(contents, bumped, "header rewrite must take");
        fs::write(&path, bumped).unwrap();
        let s = MappingStore::open(&dir, 1).unwrap();
        assert!(s.is_empty());
        assert_eq!(s.stats().stale_shards, 1);
        assert!(!path.exists(), "stale shard is removed");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn v1_shard_migrates_to_v2_on_open() {
        let dir = tmpdir("migrate");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("shard-00.log");
        // A v1 shard: plain JSON lines, no checksums, two records with a
        // superseding rewrite of the first.
        let mut v1 = format!(
            "{{\"schema\":\"{SCHEMA_V1}\",\"cost_model\":{COST_MODEL_VERSION},\"shards\":1}}\n"
        );
        for r in [rec(5, 1.0), rec(6, 2.0), rec(5, 9.0)] {
            v1.push_str(&r.to_json().to_string());
            v1.push('\n');
        }
        fs::write(&path, v1).unwrap();

        let s = MappingStore::open(&dir, 1).unwrap();
        assert_eq!(s.stats().migrated_shards, 1);
        assert_eq!(s.len(), 2);
        assert_eq!(s.get(5).unwrap().edp, 9.0, "latest-wins must survive migration");
        assert_eq!(s.get(6).unwrap().edp, 2.0);

        // On disk the shard is now v2: current header, checksummed lines.
        let contents = fs::read_to_string(&path).unwrap();
        let mut lines = contents.lines();
        assert!(lines.next().unwrap().contains(SCHEMA));
        for line in lines {
            assert!(StoreRecord::from_line(line.as_bytes()).is_some(), "unverifiable line: {line}");
        }

        // And a second open is a plain v2 load, no second migration.
        drop(s);
        let s = MappingStore::open(&dir, 1).unwrap();
        assert_eq!(s.stats().migrated_shards, 0);
        assert_eq!(s.len(), 2);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn interval_fsync_coalesces_and_never_skips_forever() {
        let dir = tmpdir("fsync");
        let mut s =
            MappingStore::open_with(&dir, 1, FsyncPolicy::Interval(Duration::from_secs(3600)))
                .unwrap();
        for i in 0..10u64 {
            s.append(rec(i, i as f64)).unwrap();
        }
        assert_eq!(s.stats().fsyncs, 0, "a long interval must coalesce bursts");
        drop(s);
        let mut s = MappingStore::open_with(&dir, 1, FsyncPolicy::PerRecord).unwrap();
        s.append(rec(99, 1.0)).unwrap();
        assert_eq!(s.stats().fsyncs, 1, "per-record must sync every append");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn compaction_dedups_and_survives_reopen() {
        let dir = tmpdir("compact");
        {
            let mut s = MappingStore::open(&dir, 2).unwrap();
            for i in 0..10u64 {
                s.append(rec(i << 56, i as f64)).unwrap(); // spread shards
                s.append(rec(i << 56, i as f64 + 100.0)).unwrap();
            }
            s.compact().unwrap();
        }
        let s = MappingStore::open(&dir, 2).unwrap();
        assert_eq!(s.len(), 10);
        for i in 0..10u64 {
            assert_eq!(s.get(i << 56).unwrap().edp, i as f64 + 100.0);
        }
        // One line per record plus a header per existing shard.
        let mut lines = 0;
        for i in 0..2 {
            let p = dir.join(format!("shard-{i:02}.log"));
            if p.exists() {
                lines += fs::read_to_string(p).unwrap().lines().count();
            }
        }
        assert_eq!(lines, 10 + 2);
        let _ = fs::remove_dir_all(&dir);
    }

    /// A record the size of a served answer's line (about 1.6 kB).
    fn answer_sized(ctx: u64) -> StoreRecord {
        let factors = (0..400u64).map(|i| Json::Num((i * 7 % 64) as f64)).collect();
        StoreRecord {
            mapping: Json::Obj(vec![("levels".into(), Json::Arr(factors))]),
            ..rec(ctx, 1.0)
        }
    }

    /// What the daemon appends, one record per search, costs the store's
    /// memory an index entry, not the line.
    #[test]
    fn the_index_holds_no_line() {
        let dir = tmpdir("index");
        let mut s = MappingStore::open_with(&dir, 4, FsyncPolicy::Never).unwrap();
        let n = 1000u64;
        for i in 0..n {
            s.append(answer_sized(i.wrapping_mul(0x9e37_79b9_7f4a_7c15))).unwrap();
        }
        let per_record = s.heap_bytes() as f64 / n as f64;
        assert!(per_record <= 64.0, "the store holds {per_record:.0} B per record");
        let line = answer_sized(0).to_line().len();
        assert!(line > 1000, "the records are answer-sized: {line} B");
        assert_eq!(s.iter().count(), n as usize, "every record reads back");
        let _ = fs::remove_dir_all(&dir);
    }

    /// The first record line of a one-shard store's file, as a range.
    fn line_range(bytes: &[u8], nth: usize) -> std::ops::Range<usize> {
        let mut starts = vec![0];
        starts.extend(bytes.iter().enumerate().filter(|(_, &b)| b == b'\n').map(|(i, _)| i + 1));
        starts[nth]..starts[nth + 1] - 1
    }

    #[test]
    fn a_line_flipped_after_open_is_never_served_and_compaction_drops_it() {
        let dir = tmpdir("reread");
        let mut s = MappingStore::open(&dir, 1).unwrap();
        for ctx in [3, 1, 2] {
            s.append(rec(ctx, ctx as f64)).unwrap();
        }
        let path = dir.join("shard-00.log");
        let before = fs::read(&path).unwrap();
        // Lines: the header, then ctx 3, 1, 2. Flip a bit in ctx 1's body.
        let flipped = line_range(&before, 2);
        let mut bytes = before.clone();
        bytes[(flipped.start + flipped.end) / 2] ^= 0x40;
        fs::write(&path, &bytes).unwrap();

        assert!(s.get(1).is_none(), "a line that no longer verifies is never returned");
        let mut served: Vec<u64> = s.iter().map(|r| r.ctx_fp).collect();
        served.sort_unstable();
        assert_eq!(served, [2, 3]);

        s.compact().unwrap();
        assert_eq!(s.stats().quarantined, 1);
        assert_eq!(s.len(), 2);
        let sidecar = fs::read(dir.join("shard-00.quarantine")).unwrap();
        assert_eq!(sidecar, [&bytes[flipped], b"\n"].concat(), "the flipped line is the evidence");
        // The survivors are their appended lines, byte for byte, in
        // fingerprint order.
        let header = &before[line_range(&before, 0)];
        let survivors = [header, &before[line_range(&before, 3)], &before[line_range(&before, 1)]];
        let want: Vec<u8> = survivors.iter().flat_map(|l| l.iter().chain(b"\n")).copied().collect();
        assert_eq!(fs::read(&path).unwrap(), want);
        assert_eq!(s.get(2).unwrap().edp, 2.0, "the index follows the rewrite");
        drop(s);
        let s = MappingStore::open(&dir, 1).unwrap();
        assert_eq!((s.len(), s.stats().quarantined), (2, 0));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn an_append_after_a_torn_tail_starts_its_own_line() {
        let dir = tmpdir("torntail");
        {
            let mut s = MappingStore::open(&dir, 1).unwrap();
            s.append(rec(7, 1.0)).unwrap();
        }
        // An unclean shutdown left half a record and no newline.
        let path = dir.join("shard-00.log");
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(b"0badc0de {\"ctx_fp\":\"8\",\"mapp").unwrap();
        drop(f);
        let mut s = MappingStore::open(&dir, 1).unwrap();
        assert_eq!(s.stats().quarantined, 1);
        s.append(rec(8, 2.0)).unwrap();
        assert_eq!(s.get(8).unwrap().edp, 2.0);
        drop(s);
        // Reopened, the new record is still there: it did not extend the
        // torn line.
        let mut s = MappingStore::open(&dir, 1).unwrap();
        assert_eq!(s.get(8).unwrap().edp, 2.0);
        assert_eq!(s.len(), 2);
        s.compact().unwrap();
        drop(s);
        let s = MappingStore::open(&dir, 1).unwrap();
        assert_eq!((s.len(), s.stats().quarantined), (2, 0));
        assert_eq!(s.get(8).unwrap().edp, 2.0, "compaction keeps it");
        let _ = fs::remove_dir_all(&dir);
    }

    /// (length, CRC32) of each compacted shard below, as the store wrote
    /// them when it still kept every line in memory.
    const PINNED_SHARDS: [(usize, u32); 2] = [(945, 87_660_221), (990, 1_795_823_524)];

    /// The compacted bytes of a fixed append sequence: the format and the
    /// order of a compacted shard are pinned, whatever the store keeps in
    /// memory.
    #[test]
    fn compacted_bytes_of_a_fixed_sequence_are_pinned() {
        let dir = tmpdir("pinned");
        let mut s = MappingStore::open(&dir, 2).unwrap();
        for i in 0..24u64 {
            let ctx = i.wrapping_mul(0x9e37_79b9_7f4a_7c15) % 40;
            s.append(rec(ctx << 56 | ctx, i as f64 * 0.25)).unwrap();
        }
        s.compact().unwrap();
        let shards: Vec<Vec<u8>> =
            (0..2).map(|i| fs::read(dir.join(format!("shard-{i:02}.log"))).unwrap()).collect();
        let got: Vec<(usize, u32)> = shards.iter().map(|b| (b.len(), crc32(b))).collect();
        assert_eq!(got, PINNED_SHARDS);
        let _ = fs::remove_dir_all(&dir);
    }

    /// A store reopened with another shard count reads each line from
    /// the file it lies in, and compaction moves it to the shard its
    /// fingerprint names.
    #[test]
    fn a_store_reopened_with_more_shards_keeps_every_record() {
        let dir = tmpdir("reshard");
        {
            let mut s = MappingStore::open(&dir, 1).unwrap();
            for i in 0..8u64 {
                s.append(rec(i << 56, i as f64)).unwrap();
            }
        }
        let mut s = MappingStore::open(&dir, 4).unwrap();
        assert_eq!(s.iter().count(), 8);
        s.compact().unwrap();
        s.append(rec(9 << 56, 9.0)).unwrap();
        for i in (0..8u64).chain([9]) {
            assert_eq!(s.get(i << 56).unwrap().edp, i as f64);
        }
        drop(s);
        let s = MappingStore::open(&dir, 4).unwrap();
        assert_eq!((s.len(), s.stats().quarantined), (9, 0));
        let files = (0..4).filter(|i| dir.join(format!("shard-{i:02}.log")).exists()).count();
        assert_eq!(files, 4, "compaction spread the records over every shard");
        let _ = fs::remove_dir_all(&dir);
    }

    /// A store reopened with fewer shards indexes the files past the count
    /// and re-shards them: none is left on disk for a later open with more
    /// shards to read a superseded line from.
    #[test]
    fn a_store_reopened_with_fewer_shards_keeps_every_record() {
        let dir = tmpdir("unshard");
        {
            let mut s = MappingStore::open(&dir, 4).unwrap();
            for i in 0..8u64 {
                s.append(rec(i << 56, i as f64)).unwrap();
            }
            s.compact().unwrap();
        }
        let mut s = MappingStore::open(&dir, 2).unwrap();
        assert_eq!((s.len(), s.stats().quarantined), (8, 0));
        for i in 0..8u64 {
            assert_eq!(s.get(i << 56).unwrap().edp, i as f64);
        }
        s.append(rec(3 << 56, 33.0)).unwrap();
        s.compact().unwrap();
        drop(s);
        let files = (0..4).filter(|i| dir.join(format!("shard-{i:02}.log")).exists()).count();
        assert_eq!(files, 2, "the files past the count are gone");
        let s = MappingStore::open(&dir, 4).unwrap();
        assert_eq!((s.len(), s.stats().quarantined), (8, 0));
        for i in 0..8u64 {
            let edp = if i == 3 { 33.0 } else { i as f64 };
            assert_eq!(s.get(i << 56).unwrap().edp, edp, "record {i}");
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn append_after_compact_keeps_appending() {
        let dir = tmpdir("appendafter");
        let mut s = MappingStore::open(&dir, 1).unwrap();
        s.append(rec(1, 1.0)).unwrap();
        s.compact().unwrap();
        s.append(rec(2, 2.0)).unwrap();
        drop(s);
        let s = MappingStore::open(&dir, 1).unwrap();
        assert_eq!(s.len(), 2);
        let _ = fs::remove_dir_all(&dir);
    }
}

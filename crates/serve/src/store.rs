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
//! # Corruption and quarantine
//!
//! A record line that fails its CRC, fails to parse, or is torn by an
//! unclean shutdown is **quarantined**: the raw line is appended to the
//! shard's `shard-NN.quarantine` sidecar, counted in
//! [`StoreStats::quarantined`], and never enters the in-memory index —
//! a flipped bit loses one cached result and leaves evidence, it never
//! serves a wrong mapping and never fails the open. A shard whose
//! *header* is missing, wrong-schema (other than v1, see below), or
//! priced under a different [`COST_MODEL_VERSION`] is discarded
//! wholesale — replaying costs from an older model would serve wrong
//! numbers as current.
//!
//! # Durability
//!
//! Appends go through a buffered writer with one logical line per
//! record; [`FsyncPolicy`] decides how often the shard file is
//! `fsync`ed: `Never` (flush to the OS only), `PerRecord` (the default:
//! an fsync after every append), or `Interval` (at most one fsync per
//! period, amortizing bursts). Compaction always syncs the temp file
//! before the atomic rename that commits it.
//!
//! # Migration
//!
//! A shard with a `sunstone-store/v1` header (plain JSON lines, no
//! checksums) and a current cost-model version is migrated on first
//! open: its records are loaded with the v1 parser, then the shard is
//! rewritten in v2 form via temp file + rename and counted in
//! [`StoreStats::migrated_shards`]. A crash mid-migration leaves either
//! the old v1 shard or the new v2 shard, both loadable.
//!
//! # Compaction
//!
//! Appends are log-structured: a context scheduled twice appears twice,
//! last record winning at load. [`MappingStore::compact`] (called on
//! graceful shutdown) rewrites each shard to exactly one record per
//! context via a temp file + atomic rename, so a crash *during*
//! compaction leaves either the old or the new shard, both valid.
//! Quarantine sidecars are left untouched — they are operator evidence.

use std::collections::HashMap;
use std::fs::{self, File, OpenOptions};
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::path::PathBuf;
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
    /// Flush to the OS after every record but never fsync: a host crash
    /// can lose recent appends, a daemon crash cannot.
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

    /// Parses a v2 line: `<crc32 hex8> <json>`, checksum verified before
    /// the JSON is even parsed.
    fn from_line(line: &str) -> Option<StoreRecord> {
        let (crc_hex, body) = line.split_once(' ')?;
        if crc_hex.len() != 8 {
            return None;
        }
        let crc = u32::from_str_radix(crc_hex, 16).ok()?;
        if crc != crc32(body.as_bytes()) {
            return None;
        }
        Self::from_json(&json::parse(body).ok()?)
    }
}

/// Load-time statistics, surfaced through `cache_stats`.
#[derive(Debug, Clone, Copy, Default)]
pub struct StoreStats {
    /// Distinct contexts loaded.
    pub records: usize,
    /// Unparseable, checksum-failing, or truncated lines rejected at
    /// load (every one of them also lands in `quarantined`, except lines
    /// so torn they cannot even be read as text).
    pub corrupt_lines: usize,
    /// Corrupt record lines copied to a `.quarantine` sidecar at load.
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

/// The persistent store: an in-memory latest-per-context index over
/// sharded append logs.
#[derive(Debug)]
pub struct MappingStore {
    dir: PathBuf,
    shards: usize,
    fsync: FsyncPolicy,
    /// Latest record per context fingerprint, as its verified v2 line. A
    /// daemon appends one record per search it serves; parsed, a record's
    /// workload and mapping trees take about eight times the memory of
    /// the line, which compaction writes back verbatim anyway.
    records: HashMap<u64, String>,
    /// Open appenders, one per shard (lazily created).
    writers: Vec<Option<BufWriter<File>>>,
    /// Per-shard last-fsync instant, for [`FsyncPolicy::Interval`].
    last_sync: Vec<Instant>,
    /// Per-shard "previous append may have torn its line" flag: set
    /// before a record's bytes go out, cleared after its newline lands,
    /// so the next append can terminate a half-written line first.
    torn: Vec<bool>,
    stats: StoreStats,
}

impl MappingStore {
    /// Opens (or initializes) a store directory with `shards` shard
    /// files and the default [`FsyncPolicy`]. Existing shards are
    /// replayed into the in-memory index (v1 shards are migrated); see
    /// the module docs for how corruption and version skew degrade.
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
        let shards = shards.clamp(1, 64);
        fs::create_dir_all(&dir)?;
        let mut store = MappingStore {
            dir,
            shards,
            fsync,
            records: HashMap::new(),
            writers: (0..shards).map(|_| None).collect(),
            last_sync: vec![Instant::now(); shards],
            torn: vec![false; shards],
            stats: StoreStats::default(),
        };
        for i in 0..shards {
            if store.load_shard(i)? {
                store.rewrite_shard(i)?;
                store.stats.migrated_shards += 1;
            }
        }
        store.stats.records = store.records.len();
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
        (ctx_fp >> 56) as usize % self.shards
    }

    fn header(&self) -> String {
        Json::Obj(vec![
            ("schema".into(), Json::Str(SCHEMA.into())),
            ("cost_model".into(), Json::Num(f64::from(COST_MODEL_VERSION))),
            ("shards".into(), Json::Num(self.shards as f64)),
        ])
        .to_string()
    }

    /// Classifies a shard's header line: current v2, migratable v1, or
    /// untrusted.
    fn header_schema(line: &str) -> Option<&'static str> {
        let v = json::parse(line).ok()?;
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
    fn quarantine(&mut self, shard: usize, line: &str) {
        self.stats.corrupt_lines += 1;
        self.stats.quarantined += 1;
        if let Ok(mut f) =
            OpenOptions::new().create(true).append(true).open(self.quarantine_path(shard))
        {
            let _ = f.write_all(line.as_bytes());
            let _ = f.write_all(b"\n");
        }
    }

    /// Replays one shard into the index. Returns `true` when the shard
    /// was read under the v1 schema and needs migration.
    fn load_shard(&mut self, shard: usize) -> std::io::Result<bool> {
        let path = self.shard_path(shard);
        let file = match File::open(&path) {
            Ok(f) => f,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(false),
            Err(e) => return Err(e),
        };
        let mut lines = BufReader::new(file).lines();
        let schema = match lines.next() {
            Some(Ok(header)) => Self::header_schema(&header),
            _ => None,
        };
        let Some(schema) = schema else {
            // Missing, torn, or version-skewed header: the whole shard is
            // untrusted. Drop it on disk too, so a later append does not
            // graft current-version records onto a stale file.
            self.stats.stale_shards += 1;
            fs::remove_file(&path)?;
            return Ok(false);
        };
        for line in lines {
            let Ok(line) = line else {
                // Unreadable tail (e.g. torn multi-byte sequence): the
                // raw bytes cannot even be lifted into a sidecar line.
                self.stats.corrupt_lines += 1;
                break;
            };
            if line.trim().is_empty() {
                continue;
            }
            let parsed = if schema == SCHEMA {
                StoreRecord::from_line(&line)
            } else {
                json::parse(&line).ok().as_ref().and_then(StoreRecord::from_json)
            };
            match parsed {
                Some(rec) => {
                    let v2 = if schema == SCHEMA { line } else { rec.to_line() };
                    self.records.insert(rec.ctx_fp, v2);
                }
                // A torn tail (unclean shutdown), a flipped bit, or any
                // other garbage: quarantine and count, never fail the
                // open, never serve.
                None => self.quarantine(shard, &line),
            }
        }
        Ok(schema == SCHEMA_V1)
    }

    /// Number of distinct contexts currently held.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the store holds no records.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Load/append statistics.
    pub fn stats(&self) -> StoreStats {
        StoreStats { records: self.records.len(), ..self.stats }
    }

    /// The latest record for `ctx_fp`, if any, parsed from its line. A
    /// record appended with a value its line cannot carry (a non-finite
    /// cost) reads as absent, as it would after a reopen.
    pub fn get(&self, ctx_fp: u64) -> Option<StoreRecord> {
        self.records.get(&ctx_fp).and_then(|line| StoreRecord::from_line(line))
    }

    /// Iterates over the latest record of every context (see
    /// [`get`](Self::get)).
    pub fn iter(&self) -> impl Iterator<Item = StoreRecord> + '_ {
        self.records.values().filter_map(|line| StoreRecord::from_line(line))
    }

    /// Appends `record` to its shard (creating the shard with a fresh
    /// header if needed) and updates the in-memory index.
    ///
    /// # Errors
    ///
    /// Filesystem failures; the in-memory index is updated regardless, so
    /// a full disk degrades persistence but not serving.
    pub fn append(&mut self, record: StoreRecord) -> std::io::Result<()> {
        let shard = self.shard_of(record.ctx_fp);
        let line = record.to_line();
        self.records.insert(record.ctx_fp, line.clone());
        self.stats.appended += 1;
        if self.writers[shard].is_none() {
            let path = self.shard_path(shard);
            let fresh = !path.exists();
            let file = OpenOptions::new().create(true).append(true).open(&path)?;
            let mut w = BufWriter::new(file);
            if fresh {
                w.write_all(self.header().as_bytes())?;
                w.write_all(b"\n")?;
            }
            self.writers[shard] = Some(w);
        }
        let w = self.writers[shard].as_mut().expect("writer just ensured");
        if self.torn[shard] {
            // The previous append panicked or failed mid-line; terminate
            // the half-written line so this record starts clean. The torn
            // half is quarantined at the next open.
            w.write_all(b"\n")?;
        }
        self.torn[shard] = true;
        // Two write halves with a failpoint between them: an injected
        // panic here is a *genuine* short write, the torn-record case the
        // chaos soak and the quarantine path must absorb.
        let (head, tail) = line.as_bytes().split_at(line.len() / 2);
        w.write_all(head)?;
        faultpoint!("serve.store_append");
        w.write_all(tail)?;
        w.write_all(b"\n")?;
        w.flush()?;
        self.torn[shard] = false;
        self.sync_shard(shard)
    }

    /// Applies the [`FsyncPolicy`] after an append to `shard`.
    fn sync_shard(&mut self, shard: usize) -> std::io::Result<()> {
        let due = match self.fsync {
            FsyncPolicy::Never => false,
            FsyncPolicy::PerRecord => true,
            FsyncPolicy::Interval(period) => self.last_sync[shard].elapsed() >= period,
        };
        if !due {
            return Ok(());
        }
        faultpoint!("serve.fsync");
        if let Some(w) = self.writers[shard].as_mut() {
            w.get_ref().sync_data()?;
        }
        self.last_sync[shard] = Instant::now();
        self.stats.fsyncs += 1;
        Ok(())
    }

    /// Writes `lines` as a complete v2 shard via temp file + atomic
    /// rename (the commit point). The temp file is synced before the
    /// rename, so a committed shard is durable.
    fn write_shard(&self, shard: usize, lines: &[&str]) -> std::io::Result<()> {
        let tmp = self.dir.join(format!("shard-{shard:02}.tmp"));
        {
            let mut w = BufWriter::new(File::create(&tmp)?);
            w.write_all(self.header().as_bytes())?;
            w.write_all(b"\n")?;
            for line in lines {
                w.write_all(line.as_bytes())?;
                w.write_all(b"\n")?;
            }
            w.flush()?;
            w.get_ref().sync_data()?;
        }
        faultpoint!("serve.compact_rename");
        fs::rename(&tmp, self.shard_path(shard))
    }

    /// The lines of the latest records that live in `shard`, in
    /// deterministic (fingerprint) order: rewriting the same contents twice
    /// produces byte-identical shards.
    fn shard_records(&self, shard: usize) -> Vec<&str> {
        let mut recs: Vec<(u64, &str)> = self
            .records
            .iter()
            .filter(|(&ctx_fp, _)| self.shard_of(ctx_fp) == shard)
            .map(|(&ctx_fp, line)| (ctx_fp, line.as_str()))
            .collect();
        recs.sort_unstable_by_key(|&(ctx_fp, _)| ctx_fp);
        recs.into_iter().map(|(_, line)| line).collect()
    }

    /// Rewrites one shard in v2 form from the records already loaded —
    /// the migration step for a v1 shard.
    fn rewrite_shard(&mut self, shard: usize) -> std::io::Result<()> {
        self.writers[shard] = None;
        let recs = self.shard_records(shard);
        if recs.is_empty() {
            let path = self.shard_path(shard);
            if path.exists() {
                fs::remove_file(&path)?;
            }
            return Ok(());
        }
        self.write_shard(shard, &recs)
    }

    /// Rewrites every shard to exactly one line per context (latest
    /// wins), via temp file + atomic rename. Called on graceful shutdown;
    /// safe to call repeatedly.
    ///
    /// # Errors
    ///
    /// Filesystem failures. A failed compaction leaves the previous
    /// shards intact (the rename is the commit point).
    pub fn compact(&mut self) -> std::io::Result<()> {
        // Close appenders first so the rename below supersedes them.
        self.writers = (0..self.shards).map(|_| None).collect();
        self.torn = vec![false; self.shards];
        for shard in 0..self.shards {
            let recs = self.shard_records(shard);
            if recs.is_empty() {
                let path = self.shard_path(shard);
                if path.exists() {
                    fs::remove_file(&path)?;
                }
                continue;
            }
            self.write_shard(shard, &recs)?;
        }
        Ok(())
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
        assert_eq!(s.get(1).unwrap().edp, 5.0);
        assert_eq!(s.get(2).unwrap().edp, 20.0);
        assert_eq!(s.stats().corrupt_lines, 0);
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
        assert_eq!(s.stats().corrupt_lines, 1);
        assert_eq!(s.stats().quarantined, 1);
        let sidecar = fs::read_to_string(dir.join("shard-00.quarantine")).unwrap();
        assert_eq!(sidecar.lines().count(), 1, "torn line must land in the sidecar");
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
            assert!(StoreRecord::from_line(line).is_some(), "unverifiable migrated line: {line}");
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

//! Candidate estimation: completion of partial mappings, the
//! session-lifetime memoized estimate cache, prefix-incremental cost
//! evaluation, and parallel execution on the session worker pool.

use std::cell::RefCell;
use std::collections::hash_map::Entry;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

use sunstone_ir::{DimSet, DimVec, FxHashMap};
use sunstone_mapping::{Mapping, MappingLevel};
use sunstone_model::{BatchEvalScratch, CostReport, EvalScratch, MappingPrefix};

use super::beam::{key_hash, mapping_key, KeyHashMap};
use super::candidates::Candidates;
use super::stats::SearchStats;
use super::{PartialState, SearchContext};
use crate::pool::SliceWriter;
use crate::Direction;

/// Cumulative statistics of a session's estimate cache and worker pool
/// ([`Scheduler::cache_stats`](crate::Scheduler::cache_stats)).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[non_exhaustive]
pub struct CacheStats {
    /// Estimates served from the cache since the session was created.
    pub hits: u64,
    /// Estimates that had to run the analytic model.
    pub misses: u64,
    /// Estimates currently retained (bounded by
    /// [`SunstoneConfig::max_cache_entries`](crate::SunstoneConfig::max_cache_entries)).
    pub entries: usize,
    /// Model evaluations that reused a memoized decided-prefix cost
    /// instead of re-deriving every level from scratch.
    pub prefix_hits: u64,
    /// SoA batch dispatches: contiguous same-prefix candidate runs priced
    /// through the structure-of-arrays evaluator in one call.
    pub batches: u64,
    /// Model evaluations priced inside an SoA batch (the rest went
    /// through the scalar path: no shared prefix, or a run of one).
    pub batched: u64,
    /// Always 0: nothing writes it. Kept because the repo benchmark reads it.
    pub seed_probes: u64,
    /// Always 0: nothing writes it. Kept because the repo benchmark reads it.
    pub seed_hits: u64,
    /// Fan-out rounds the session worker pool has executed.
    pub pool_rounds: u64,
}

impl CacheStats {
    /// Fraction of probes served from the cache (0 when never probed).
    pub fn hit_rate(&self) -> f64 {
        let probes = self.hits + self.misses;
        if probes == 0 {
            0.0
        } else {
            self.hits as f64 / probes as f64
        }
    }

    /// Fraction of model evaluations that reused a memoized prefix
    /// (0 when the model never ran).
    pub fn prefix_hit_rate(&self) -> f64 {
        if self.misses == 0 {
            0.0
        } else {
            self.prefix_hits as f64 / self.misses as f64
        }
    }

    /// Mean number of candidates priced per SoA batch dispatch (0 when no
    /// batch ever ran).
    pub fn avg_batch_width(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.batched as f64 / self.batches as f64
        }
    }

    /// Fraction of model evaluations priced through the SoA batch path
    /// (0 when the model never ran).
    pub fn batched_fraction(&self) -> f64 {
        if self.misses == 0 {
            0.0
        } else {
            self.batched as f64 / self.misses as f64
        }
    }
}

/// Memoized tile enumeration: the kept tiles plus the enumeration stats
/// to replay, so cached and uncached searches report identical counters.
/// The tiles are shared, not copied: a lookup hands out the `Arc` under
/// the context's lock.
#[derive(Debug, Clone)]
pub(crate) struct TileMemo {
    pub(crate) tiles: Arc<[DimVec]>,
    pub(crate) explored: usize,
}

/// Key of one tile enumeration; together with the context fingerprint
/// this covers every input of `tiles_with_allowed` (the ladders, pruning
/// flags, caps, and the capacity plan of `mem_pos` are all functions of
/// the context).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) struct TileKey {
    pub(crate) mem_pos: usize,
    pub(crate) base: DimVec,
    pub(crate) quotas: DimVec,
    pub(crate) reserve: u64,
    pub(crate) allowed: DimSet,
    pub(crate) unrollable: DimSet,
}

/// Memoized unrolling enumeration (one fabric, one accumulated prefix).
#[derive(Debug, Clone)]
pub(crate) struct UnrollMemo {
    pub(crate) unrollings: Arc<[DimVec]>,
    pub(crate) explored: usize,
}

/// Key of one per-fabric unrolling enumeration. `combined` is the
/// resident tile already multiplied by the unrolls accumulated from
/// inner fabrics — the exact base the capacity probe inflates — so the
/// key covers the whole fits closure.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) struct UnrollKey {
    pub(crate) pos: usize,
    pub(crate) quotas: DimVec,
    pub(crate) principled: DimSet,
    pub(crate) combined: DimVec,
}

/// One context's estimates: the configured objective's value of a
/// completed mapping under the 128-bit [`key_hash`] of its key. Numbers
/// only — the search ranks by one scalar per candidate, and whatever a
/// caller receives is priced afresh outside the cache
/// ([`evaluate_cached`]) — so an entry is a 32-byte bucket, not a key
/// vector and a report tree.
///
/// Debug builds (which is what the test suite runs) keep the full key
/// beside each entry and assert it on every hit and re-insert: a hash
/// collision, which could silently change which candidate ranks, panics
/// instead. Release builds leave `shadow` empty.
#[derive(Debug, Default)]
pub(crate) struct EstimateTable {
    values: KeyHashMap<f64>,
    shadow: KeyHashMap<Box<[u64]>>,
}

impl EstimateTable {
    fn len(&self) -> usize {
        self.values.len()
    }

    /// The estimate filed under `hash`. `key` writes down the words the
    /// hash was taken of; only the debug-build guard calls it.
    pub(crate) fn get(&self, hash: u128, key: impl FnOnce() -> Vec<u64>) -> Option<f64> {
        let value = *self.values.get(&hash)?;
        if cfg!(debug_assertions) {
            assert_eq!(self.shadow[&hash][..], key()[..], "128-bit key hash collision");
        }
        Some(value)
    }

    /// Files `value` under `hash`, returning whether the entry is new.
    pub(crate) fn insert(
        &mut self,
        hash: u128,
        value: f64,
        key: impl FnOnce() -> Vec<u64>,
    ) -> bool {
        if cfg!(debug_assertions) {
            match self.shadow.entry(hash) {
                Entry::Vacant(slot) => {
                    slot.insert(key().into_boxed_slice());
                }
                Entry::Occupied(known) => {
                    assert_eq!(known.get()[..], key()[..], "128-bit key hash collision");
                }
            }
        }
        self.values.insert(hash, value).is_none()
    }
}

/// Everything the session retains for one context fingerprint: the
/// estimate table plus the tile/unrolling enumeration memos, behind the
/// context's own lock, with the bookkeeping the cache bound evicts by.
#[derive(Debug, Default)]
pub(crate) struct CtxEntry {
    estimates: EstimateTable,
    tiles: FxHashMap<TileKey, TileMemo>,
    unrolls: FxHashMap<UnrollKey, UnrollMemo>,
    /// Logical timestamp of the last publish into this context
    /// (whole-context LRU eviction granularity).
    last_used: u64,
    /// How many of `estimates` the session's `entries` counter includes.
    /// Settled under this entry's lock after every publish, so an
    /// eviction subtracts exactly what was added — also when a fault
    /// unwound a publisher half-way.
    counted: usize,
    /// Set once the session has dropped this context (eviction,
    /// `clear_cache`, fault recovery). A search still holding the entry
    /// finishes on it as a private table: it keeps reading what it wrote,
    /// so its results and counters are those of an undisturbed run, but
    /// nothing it inserts is counted and the memory goes with the search.
    detached: bool,
}

/// Locks one context's entry, recovering from mutex poisoning: a panic
/// can only unwind *between* map operations (each insert leaves the
/// tables structurally valid and every value in them is a correct
/// estimate), and the fault boundary follows every caught panic with
/// [`SessionCache::evict_context`], which drops exactly that context.
/// Propagating the poison instead would turn one recovered fault into a
/// permanently broken session.
fn lock_entry(entry: &Mutex<CtxEntry>) -> MutexGuard<'_, CtxEntry> {
    entry.lock().unwrap_or_else(|e| e.into_inner())
}

/// The session-lifetime estimate cache: per context fingerprint, a table
/// of estimates keyed by completed-mapping hash ([`EstimateTable`]) plus
/// the enumeration memos.
///
/// The context fingerprint condenses *(workload, architecture, search
/// configuration)* ([`crate::fingerprint`]) — the objective included, so
/// a table holds values of one objective — and one session safely serves
/// every call a [`Scheduler`](crate::Scheduler) makes: repeated calls on
/// the same layer, repeated layer shapes inside a batch, and the
/// candidate re-evaluations of the network pass all hit entries written
/// by earlier work. Within one search, distinct beam states frequently
/// complete to the same mapping — the remainder placement collapses
/// states that differ only in undecided levels — so the cache saves real
/// model work even on the first call.
///
/// Locking is two-level. `map` only resolves a fingerprint to its
/// context and is held for that lookup, an eviction or a clear; every
/// probe, insert and memo call locks the one [`CtxEntry`] it concerns, so
/// concurrent searches on different contexts never wait on each other.
/// The order is map → entry, never the reverse: nothing takes `map` while
/// holding an entry. Retained estimates are bounded by
/// [`SunstoneConfig::max_cache_entries`](crate::SunstoneConfig::max_cache_entries):
/// when a publish pushes past the bound, the least-recently-used contexts
/// are dropped whole (never the context that just published).
#[derive(Debug, Default)]
pub(crate) struct SessionCache {
    map: Mutex<FxHashMap<u64, Arc<Mutex<CtxEntry>>>>,
    hits: AtomicU64,
    misses: AtomicU64,
    /// Retained estimates: the sum of every attached entry's `counted`.
    entries: AtomicUsize,
    /// Logical clock behind every `CtxEntry::last_used` stamp.
    tick: AtomicU64,
    prefix_hits: AtomicU64,
    batches: AtomicU64,
    batched: AtomicU64,
}

impl SessionCache {
    pub(crate) fn new() -> Self {
        SessionCache::default()
    }

    /// Locks the context map, recovering from poisoning (the map is a
    /// plain fingerprint → `Arc` table; see [`lock_entry`] for why
    /// recovery is sound).
    fn lock_map(&self) -> MutexGuard<'_, FxHashMap<u64, Arc<Mutex<CtxEntry>>>> {
        self.map.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The context filed under `fp`, created empty if absent.
    fn entry_of(&self, fp: u64) -> Arc<Mutex<CtxEntry>> {
        Arc::clone(self.lock_map().entry(fp).or_default())
    }

    /// Takes an entry just removed from the map out of the accounting.
    /// Called with the map lock held, so no new holder can appear; a
    /// search already holding the entry keeps it as a private table.
    fn detach(&self, entry: &Mutex<CtxEntry>) {
        let mut e = lock_entry(entry);
        e.detached = true;
        self.entries.fetch_sub(std::mem::take(&mut e.counted), Ordering::Relaxed);
    }

    /// Poison-and-recover: drops everything retained for `fp` — the
    /// estimates, the tile/unroll enumeration memos, the LRU stamp.
    /// Called by the panic-isolation boundary after a caught fault: the
    /// faulting call may have died mid-publish, which is why the counter
    /// gives back the entry's settled `counted`, not its length.
    pub(crate) fn evict_context(&self, fp: u64) {
        let mut map = self.lock_map();
        if let Some(entry) = map.remove(&fp) {
            self.detach(&entry);
        }
    }

    pub(crate) fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries: self.entries.load(Ordering::Relaxed),
            prefix_hits: self.prefix_hits.load(Ordering::Relaxed),
            batches: self.batches.load(Ordering::Relaxed),
            batched: self.batched.load(Ordering::Relaxed),
            // `pool_rounds` is filled in by the scheduler, which owns
            // the pool.
            ..CacheStats::default()
        }
    }

    pub(crate) fn clear(&self) {
        let mut map = self.lock_map();
        for (_, entry) in map.drain() {
            self.detach(&entry);
        }
        drop(map);
        self.hits.store(0, Ordering::Relaxed);
        self.misses.store(0, Ordering::Relaxed);
        self.prefix_hits.store(0, Ordering::Relaxed);
        self.batches.store(0, Ordering::Relaxed);
        self.batched.store(0, Ordering::Relaxed);
    }

    /// Drops whole least-recently-used contexts (never `keep`) until the
    /// retained estimates fit `max` again or nothing else holds any.
    /// Must be called with no entry lock held (lock order map → entry).
    fn evict_lru(&self, max: usize, keep: u64) {
        let mut map = self.lock_map();
        while self.entries.load(Ordering::Relaxed) > max {
            let victim = map
                .iter()
                .filter(|(fp, _)| **fp != keep)
                .filter_map(|(fp, entry)| {
                    let e = lock_entry(entry);
                    (e.counted > 0).then_some((e.last_used, *fp))
                })
                .min();
            let Some((_, fp)) = victim else { break };
            if let Some(entry) = map.remove(&fp) {
                self.detach(&entry);
            }
        }
    }
}

/// One search's view of the [`SessionCache`]: its context's entry,
/// fetched once, so lookups cannot cross workloads, architectures, or
/// configurations and never touch the session-wide map.
pub(crate) struct EstimateCache<'s> {
    /// The context's entry; `None` with the cache disabled.
    entry: Option<Arc<Mutex<CtxEntry>>>,
    ctx_fp: u64,
    max_entries: usize,
    session: &'s SessionCache,
}

impl<'s> EstimateCache<'s> {
    pub(crate) fn new(
        enabled: bool,
        ctx_fp: u64,
        max_entries: usize,
        session: &'s SessionCache,
    ) -> Self {
        let entry = enabled.then(|| session.entry_of(ctx_fp));
        EstimateCache { entry, ctx_fp, max_entries, session }
    }

    /// This context's entry, locked (`None` with the cache disabled).
    fn lock(&self) -> Option<MutexGuard<'_, CtxEntry>> {
        self.entry.as_deref().map(lock_entry)
    }

    /// Closes a publish into `e`: stamps its LRU clock and settles the
    /// session's entry counter with what the table holds now — under the
    /// entry's lock, so an eviction can never subtract what was not yet
    /// added. Returns whether the bound is now exceeded; the caller
    /// releases the entry and only then calls
    /// [`enforce_bound`](Self::enforce_bound).
    fn settle(&self, e: &mut CtxEntry) -> bool {
        if e.detached {
            return false;
        }
        e.last_used = self.session.tick.fetch_add(1, Ordering::Relaxed) + 1;
        let added = e.estimates.len() - e.counted;
        e.counted += added;
        let total = self.session.entries.fetch_add(added, Ordering::Relaxed) + added;
        added > 0 && total > self.max_entries
    }

    fn enforce_bound(&self) {
        self.session.evict_lru(self.max_entries, self.ctx_fp);
    }

    fn lookup(&self, hash: u128, key: &[u64]) -> Option<f64> {
        let found = self.lock()?.estimates.get(hash, || key.to_vec());
        match found {
            Some(_) => self.session.hits.fetch_add(1, Ordering::Relaxed),
            None => self.session.misses.fetch_add(1, Ordering::Relaxed),
        };
        found
    }

    fn insert(&self, hash: u128, key: Vec<u64>, value: f64) {
        let Some(mut e) = self.lock() else { return };
        e.estimates.insert(hash, value, || key);
        let over = self.settle(&mut e);
        drop(e);
        if over {
            self.enforce_bound();
        }
    }

    /// Memoized tile enumeration for this context, if already recorded.
    pub(crate) fn tiles_lookup(&self, key: &TileKey) -> Option<TileMemo> {
        self.lock()?.tiles.get(key).cloned()
    }

    pub(crate) fn tiles_insert(&self, key: TileKey, memo: TileMemo) {
        if let Some(mut e) = self.lock() {
            e.tiles.insert(key, memo);
        }
    }

    /// Memoized unrolling enumeration for this context, if already
    /// recorded.
    pub(crate) fn unrolls_lookup(&self, key: &UnrollKey) -> Option<UnrollMemo> {
        self.lock()?.unrolls.get(key).cloned()
    }

    pub(crate) fn unrolls_insert(&self, key: UnrollKey, memo: UnrollMemo) {
        if let Some(mut e) = self.lock() {
            e.unrolls.insert(key, memo);
        }
    }
}

/// The memory position where [`complete`] places a state's remainder.
pub(super) fn completion_pos(ctx: &SearchContext<'_>, direction: Direction) -> usize {
    match direction {
        Direction::BottomUp => *ctx.mems.last().expect("at least one memory"),
        Direction::TopDown => ctx.mems[0],
    }
}

/// Completes a partial state into a structurally valid mapping: bottom-up
/// places the remaining quotient at the outermost memory; top-down places
/// the unresolved resident tile at the innermost memory.
pub(crate) fn complete(
    ctx: &SearchContext<'_>,
    state: &PartialState,
    direction: Direction,
) -> Mapping {
    let mut m = state.mapping.clone();
    let pos = completion_pos(ctx, direction);
    if let MappingLevel::Temporal(t) = &mut m.levels_mut()[pos] {
        for (f, q) in t.factors.iter_mut().zip(&state.quotas) {
            *f *= q;
        }
    }
    m
}

/// Per-worker evaluation state, reused across rounds and calls (the pool
/// threads are session-lived, so the buffers stay warm): the scalar and
/// SoA batch scratches, and the [`ESTIMATE_CHUNK`] mappings a claim's
/// misses are materialized into — clones of the context's base, rebuilt
/// only when a search arrives whose base is shaped differently.
#[derive(Default)]
struct WorkerScratch {
    eval: EvalScratch,
    batch: BatchEvalScratch,
    mappings: Vec<Mapping>,
}

thread_local! {
    static SCRATCH: RefCell<WorkerScratch> = RefCell::new(WorkerScratch::default());
}

/// Whether `m` has `base`'s levels (kind by kind) and dimension count,
/// i.e. whether a row of `base`'s layout can be written into it.
fn shaped_like(m: &Mapping, base: &Mapping) -> bool {
    m.levels().len() == base.levels().len()
        && m.levels().iter().zip(base.levels()).all(|(a, b)| {
            std::mem::discriminant(a) == std::mem::discriminant(b)
                && a.factors().len() == b.factors().len()
        })
}

/// Indices per pool claim in the estimate round. One atomic claim covers
/// a contiguous candidate range, and every maximal same-prefix run inside
/// the range is priced through the SoA batch evaluator in one call — the
/// chunk bounds the batch width, so the per-candidate SoA tables stay in
/// cache while still amortizing claim and dispatch overhead. Kept small
/// enough that modest rounds (a few hundred misses) still split into more
/// claims than the pool has claimants.
const ESTIMATE_CHUNK: usize = 16;

/// When an estimation round may observe the wall-clock deadline.
///
/// The first stage's round can be large, so exempting it from the
/// deadline whole would let a budget of a few milliseconds overshoot by
/// the entire stage. Under
/// [`AfterFirstClaim`](DeadlinePolicy::AfterFirstClaim) the first claim
/// chunk always runs — so even a zero budget evaluates *some* candidates
/// and the best-so-far completion stays usable — and every claim after it
/// observes the deadline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum DeadlinePolicy {
    /// First stage: the deadline engages once at least one claim chunk
    /// has completed (the zero-budget contract keeps one chunk of work).
    AfterFirstClaim,
    /// Later stages: every claim observes the deadline.
    Always,
}

/// Why an estimation round ended; anything but `Done` aborts the stage
/// (the composition loop returns the *previous* beam, which is what the
/// best-so-far deadline contract completes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum RoundStatus {
    /// Every miss was evaluated; the candidates carry real estimates.
    Done,
    /// The cancellation token fired mid-round; remaining evaluations were
    /// skipped (bounded-latency cancellation).
    Cancelled,
    /// The wall-clock deadline passed mid-round; remaining evaluations
    /// were skipped.
    DeadlineReached,
}

/// Completes and estimates every candidate of the arena, filling its
/// `estimate` column.
///
/// The cache is probed on the calling thread, under one acquisition of
/// the context's own lock, with the hash dedup already computed per row
/// ([`RowLayout::completed_key_hash`](super::RowLayout::completed_key_hash)):
/// the [`key_hash`] of the row's key with the completion level's factor
/// slots multiplied by the row's quotas — the hash of the [`mapping_key`]
/// of the completed mapping, so entries written by earlier calls,
/// [`evaluate_cached`] and primed store records all hit. A hit is one
/// table read of an `f64`. A miss is an index: nothing is allocated per
/// candidate. The misses go through the model distributed over the
/// session's persistent worker pool (no per-round thread spawns), each
/// worker materializing its claim's rows into its own reused mappings
/// ([`RowLayout::materialize_completed_into`](super::RowLayout::materialize_completed_into)).
///
/// Bottom-up stages past the first price each miss *prefix-incrementally*:
/// all candidates expanded from one beam state share the decided levels
/// `0..=mems[stage − 1]`, so that prefix's per-level cost contribution is
/// built once per parent ([`CostModel::prefix_of`]) and each candidate
/// only derives the delta of its frontier and completion levels. The
/// composition is bit-identical to the monolithic evaluation (see the
/// `prefix` property tests), so cached estimates are unaffected.
///
/// The pool claims contiguous *chunks* of misses ([`ESTIMATE_CHUNK`] per
/// atomic claim), and every maximal same-prefix run inside a claim is
/// priced through the structure-of-arrays batch evaluator
/// ([`CostModel::price_prefixed_batch`]) in one call — branch-free inner
/// loops over per-candidate columns instead of a full per-candidate model
/// walk, handing back the two totals the objective is a function of
/// rather than a report. The batch evaluator is bit-identical to the
/// scalar path (see the `batch` property tests), so the dispatch choice
/// never changes a result; the scalar fall-backs (no shared prefix, runs
/// of one) read the objective off a report.
///
/// Results are written back by candidate index, so the outcome is
/// identical for any thread count.
///
/// Cancellation and the deadline are checked *per pool claim*, so a
/// mid-round stop is observed within a bounded number of evaluations: at
/// most one in-flight evaluation per claimant finishes after the token
/// fires. The [`DeadlinePolicy`] decides when the deadline engages: the
/// first stage uses [`DeadlinePolicy::AfterFirstClaim`] (the first claim
/// chunk always runs, so a zero budget still yields a usable best-so-far
/// mapping, but a large first round cannot overshoot a few-millisecond
/// budget by a whole stage), later stages [`DeadlinePolicy::Always`]. A
/// stopped round leaves the skipped candidates at `f64::INFINITY` and
/// returns the stop reason; completed evaluations are still published to
/// the cache (they are correct and deterministic, so later calls may
/// reuse them).
///
/// The stage's [`LevelStats`](super::stats::LevelStats) gets the wall
/// time of the three parts after the probe: `estimate_prefix`,
/// `estimate_price`, `estimate_publish`.
///
/// [`CostModel::prefix_of`]: sunstone_model::CostModel::prefix_of
/// [`CostModel::price_prefixed_batch`]: sunstone_model::CostModel::price_prefixed_batch
pub(crate) fn estimate_all(
    ctx: &SearchContext<'_>,
    direction: Direction,
    candidates: &mut Candidates,
    stage: usize,
    deadline: DeadlinePolicy,
    stats: &mut SearchStats,
) -> RoundStatus {
    faultpoint!("estimate.round");
    stats.probed += candidates.len() as u64;
    let layout = &ctx.layout;
    let objective = ctx.config.objective;
    let pos = completion_pos(ctx, direction);
    let cache = &ctx.cache;
    let mut hits = 0u64;
    // Candidate index per cache miss.
    let mut misses: Vec<u32> = Vec::new();
    {
        // One acquisition of the context's lock covers every probe of the
        // round.
        let guard = cache.lock();
        for i in 0..candidates.len() {
            let found = guard.as_deref().and_then(|e| {
                e.estimates.get(candidates.hash[i], || layout.completed_key(candidates.row(i), pos))
            });
            match found {
                Some(estimate) => {
                    candidates.estimate[i] = estimate;
                    hits += 1;
                }
                None => misses.push(i as u32),
            }
        }
    }
    if cache.entry.is_some() {
        cache.session.hits.fetch_add(hits, Ordering::Relaxed);
        cache.session.misses.fetch_add(misses.len() as u64, Ordering::Relaxed);
    }

    // Prefix memoization: bottom-up, every candidate of one parent shares
    // the levels up to the previous stage's memory, and completion only
    // touches the outermost level — strictly above that boundary. Misses
    // preserve candidate order and candidates are expanded parent by
    // parent, so each parent's run of misses is contiguous.
    let phase = Instant::now();
    let boundary = (direction == Direction::BottomUp && stage >= 1).then(|| ctx.mems[stage - 1]);
    let mut prefixes: Vec<MappingPrefix> = Vec::new();
    let mut group_of: Vec<u32> = Vec::new();
    if let Some(b) = boundary.filter(|_| !misses.is_empty()) {
        let mut last_parent = u32::MAX;
        // The first miss of each parent, materialized for `prefix_of`.
        let mut first = ctx.base.clone();
        for &i in &misses {
            faultpoint!("estimate.prefix");
            let parent = candidates.parent[i as usize];
            if prefixes.is_empty() || parent != last_parent {
                layout.materialize_completed_into(candidates.row(i as usize), pos, &mut first);
                prefixes.push(ctx.model.prefix_of(&first, b));
                last_parent = parent;
            }
            group_of.push((prefixes.len() - 1) as u32);
        }
        let reused = (misses.len() - prefixes.len()) as u64;
        stats.prefix_hits += reused;
        cache.session.prefix_hits.fetch_add(reused, Ordering::Relaxed);
    }
    let prefix_time = phase.elapsed();

    let phase = Instant::now();
    let mut estimates: Vec<Option<f64>> = vec![None; misses.len()];
    let round_cancelled = AtomicBool::new(false);
    let round_deadlined = AtomicBool::new(false);
    let round_batches = AtomicU64::new(0);
    let round_batched = AtomicU64::new(0);
    // Claim chunks fully evaluated so far; under `AfterFirstClaim` the
    // deadline only engages once this is nonzero, so every round keeps at
    // least one chunk of real estimates (the zero-budget contract).
    let claims_done = AtomicUsize::new(0);
    if !misses.is_empty() {
        stats.rounds += 1;
        let model = &ctx.model;
        let writer = SliceWriter::new(&mut estimates);
        let (prefixes, group_of, misses) = (&prefixes, &group_of, &misses);
        let candidates = &*candidates;
        let (round_cancelled, round_deadlined) = (&round_cancelled, &round_deadlined);
        let (round_batches, round_batched) = (&round_batches, &round_batched);
        let claims_done = &claims_done;
        ctx.pool.run_chunked(misses.len(), ESTIMATE_CHUNK, &|range| {
            // Bounded-latency stop checks, per claim: the cancel check is
            // one atomic load and the deadline one clock read, and a claim
            // covers at most `ESTIMATE_CHUNK` evaluations. Once a stop is
            // observed every remaining claim returns immediately, so at
            // most one in-flight claim per claimant outlives the stop.
            if round_cancelled.load(Ordering::Relaxed) || ctx.cancelled() {
                round_cancelled.store(true, Ordering::Relaxed);
                return;
            }
            let enforce = match deadline {
                DeadlinePolicy::Always => true,
                DeadlinePolicy::AfterFirstClaim => claims_done.load(Ordering::Relaxed) > 0,
            };
            if enforce && (round_deadlined.load(Ordering::Relaxed) || ctx.past_deadline()) {
                round_deadlined.store(true, Ordering::Relaxed);
                return;
            }
            SCRATCH.with(|cell| {
                let scratch = &mut *cell.borrow_mut();
                if !scratch.mappings.first().is_some_and(|m| shaped_like(m, &ctx.base)) {
                    scratch.mappings = vec![ctx.base.clone(); ESTIMATE_CHUNK];
                }
                let WorkerScratch { eval, batch, mappings } = scratch;
                // The claim's misses as completed mappings; `completed[j]`
                // is miss `range.start + j`.
                let completed = &mut mappings[..range.len()];
                for (m, &i) in completed.iter_mut().zip(&misses[range.clone()]) {
                    layout.materialize_completed_into(candidates.row(i as usize), pos, m);
                }
                let mut k = range.start;
                while k < range.end {
                    let at = k - range.start;
                    let Some(&g) = group_of.get(k) else {
                        // No shared prefix this stage: scalar path.
                        let report = model.evaluate_unchecked_with(&completed[at], eval);
                        // SAFETY: claims are disjoint ranges and every
                        // index is written by its claimant only.
                        unsafe { writer.write(k, Some(objective.of(&report))) };
                        k += 1;
                        continue;
                    };
                    // Maximal same-prefix run inside this claim.
                    let mut end = k + 1;
                    while end < range.end && group_of[end] == g {
                        end += 1;
                    }
                    if end - k >= 2 {
                        round_batches.fetch_add(1, Ordering::Relaxed);
                        round_batched.fetch_add((end - k) as u64, Ordering::Relaxed);
                        model.price_prefixed_batch(
                            &prefixes[g as usize],
                            &completed[at..end - range.start],
                            batch,
                            |j, totals| {
                                // SAFETY: disjoint claims; `k + j` stays
                                // inside this run.
                                unsafe { writer.write(k + j, Some(objective.of_totals(totals))) };
                            },
                        );
                    } else {
                        let report = model.evaluate_prefixed_with(
                            &prefixes[g as usize],
                            &completed[at],
                            eval,
                        );
                        // SAFETY: disjoint claims (see above).
                        unsafe { writer.write(k, Some(objective.of(&report))) };
                    }
                    k = end;
                }
            });
            claims_done.fetch_add(1, Ordering::Relaxed);
        });
    }
    let price_time = phase.elapsed();

    let phase = Instant::now();
    let miss_count = misses.len() as u64;
    stats.modeled += estimates.iter().filter(|e| e.is_some()).count() as u64;
    let (round_batches, round_batched) = (round_batches.into_inner(), round_batched.into_inner());
    stats.batches += round_batches;
    stats.batched += round_batched;
    cache.session.batches.fetch_add(round_batches, Ordering::Relaxed);
    cache.session.batched.fetch_add(round_batched, Ordering::Relaxed);
    {
        // Publish every new estimate under a single acquisition of the
        // context's lock, settle the session's counter while still holding
        // it, and only after releasing it enforce the cache bound.
        let mut guard = cache.lock();
        for (&i, estimate) in misses.iter().zip(estimates) {
            let i = i as usize;
            // Skipped by a mid-round stop: never evaluated, never
            // published. The caller discards the stage, so the placeholder
            // estimate is never ranked against real ones.
            candidates.estimate[i] = estimate.unwrap_or(f64::INFINITY);
            if let (Some(e), Some(estimate)) = (guard.as_deref_mut(), estimate) {
                faultpoint!("cache.insert");
                e.estimates.insert(candidates.hash[i], estimate, || {
                    layout.completed_key(candidates.row(i), pos)
                });
            }
        }
        let over = guard.as_deref_mut().is_some_and(|e| cache.settle(e));
        drop(guard);
        if over {
            cache.enforce_bound();
        }
    }

    let level = stats.level_mut(stage);
    level.cache_hits += hits;
    level.cache_misses += miss_count;
    level.estimate_prefix += prefix_time;
    level.estimate_price += price_time;
    level.estimate_publish += phase.elapsed();
    stats.cache_hits += hits;
    stats.cache_misses += miss_count;

    if round_cancelled.into_inner() || ctx.cancelled() {
        RoundStatus::Cancelled
    } else if round_deadlined.into_inner() {
        RoundStatus::DeadlineReached
    } else {
        RoundStatus::Done
    }
}

/// Prices a complete mapping for a caller — the final top-k
/// re-evaluation and [`prime_mapping`](crate::Scheduler::prime_mapping).
/// The report is always computed afresh on the scalar path: the cache
/// holds one number per mapping and only ever *ranks*, so everything a
/// caller receives is priced outside it. The mapping's estimate is still
/// looked up (the last stage already filed the finalists, so the hit/miss
/// counters read as they always did) and filed if absent — under the hash
/// of its [`mapping_key`], which is the hash its row would probe with, so
/// a primed mapping is a hit for the search that later completes to it.
pub(crate) fn evaluate_cached(
    ctx: &SearchContext<'_>,
    mapping: &Mapping,
    stats: &mut SearchStats,
) -> CostReport {
    let report = ctx.model.evaluate_unchecked(mapping);
    let estimate = ctx.config.objective.of(&report);
    let key = mapping_key(mapping);
    let hash = key_hash(&key);
    match ctx.cache.lookup(hash, &key) {
        Some(cached) => {
            debug_assert_eq!(cached.to_bits(), estimate.to_bits(), "cached estimate is stale");
            stats.cache_hits += 1;
        }
        None => {
            stats.cache_misses += 1;
            ctx.cache.insert(hash, key, estimate);
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_table_files_numbers_under_hashes() {
        let mut t = EstimateTable::default();
        assert_eq!(t.get(7, || vec![1, 2, 3]), None);
        assert!(t.insert(7, 1.5, || vec![1, 2, 3]));
        assert!(!t.insert(7, 1.5, || vec![1, 2, 3]), "same key again is not a new entry");
        assert!(t.insert(8, 2.5, || vec![1, 2, 4]));
        assert_eq!(t.get(7, || vec![1, 2, 3]), Some(1.5));
        assert_eq!(t.get(8, || vec![1, 2, 4]), Some(2.5));
        assert_eq!(t.len(), 2);
    }

    /// The collision guard is real: two different keys under one hash —
    /// which `key_hash` cannot be made to produce, so the hash is forced
    /// through the table's own API — panic on the second key's hit.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "128-bit key hash collision")]
    fn a_forced_collision_panics_on_the_second_keys_hit() {
        let mut t = EstimateTable::default();
        t.insert(42, 1.0, || vec![1, 2, 3]);
        t.get(42, || vec![1, 2, 4]);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "128-bit key hash collision")]
    fn a_forced_collision_panics_on_the_second_keys_insert() {
        let mut t = EstimateTable::default();
        t.insert(42, 1.0, || vec![1, 2, 3]);
        t.insert(42, 2.0, || vec![1, 2, 4]);
    }

    /// Eviction, fault recovery and `clear` give the counter back exactly
    /// what publishes added — including for an entry a search still holds,
    /// which then finishes on a private, uncounted table.
    #[test]
    fn a_detached_entry_keeps_serving_its_holder_and_counts_nothing() {
        let session = SessionCache::new();
        let a = EstimateCache::new(true, 1, 2, &session);
        a.insert(10, vec![10], 1.0);
        a.insert(11, vec![11], 2.0);
        assert_eq!(session.stats().entries, 2);
        // A second context pushes past the bound of 2: context 1 goes.
        let b = EstimateCache::new(true, 2, 2, &session);
        b.insert(20, vec![20], 3.0);
        assert_eq!(session.stats().entries, 1, "the LRU context was dropped whole");
        // Its holder still reads what it wrote, and what it writes now is
        // private.
        assert_eq!(a.lookup(10, &[10]), Some(1.0));
        a.insert(12, vec![12], 4.0);
        assert_eq!(a.lookup(12, &[12]), Some(4.0));
        assert_eq!(session.stats().entries, 1);
        // A new view of context 1 starts from nothing and counts from zero.
        let a2 = EstimateCache::new(true, 1, 2, &session);
        assert_eq!(a2.lookup(10, &[10]), None);
        a2.insert(10, vec![10], 1.0);
        assert_eq!(session.stats().entries, 2);
        session.evict_context(1);
        assert_eq!(session.stats().entries, 1);
        session.clear();
        assert_eq!(session.stats().entries, 0);
        b.insert(21, vec![21], 5.0);
        assert_eq!(session.stats().entries, 0, "cleared views are detached too");
    }

    #[test]
    fn a_disabled_cache_holds_nothing() {
        let session = SessionCache::new();
        let off = EstimateCache::new(false, 1, 2, &session);
        off.insert(10, vec![10], 1.0);
        assert_eq!(off.lookup(10, &[10]), None);
        assert_eq!(session.stats(), CacheStats::default());
    }
}

//! Candidate estimation: completion of partial mappings, the
//! session-lifetime memoized estimate cache, prefix-incremental cost
//! evaluation, and parallel execution on the session worker pool.

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use sunstone_ir::{DimSet, DimVec, FxHashMap};
use sunstone_mapping::{Mapping, MappingLevel};
use sunstone_model::{BatchEvalScratch, CostReport, EvalScratch, MappingPrefix};

use super::beam::mapping_key;
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
    /// Cost reports currently retained (bounded by
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
/// the session lock.
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

/// Everything the session retains for one context fingerprint: memoized
/// cost reports plus the tile/unrolling enumeration memos, and the LRU
/// stamp the cache bound evicts by.
#[derive(Debug, Default)]
pub(crate) struct CtxEntry {
    reports: FxHashMap<Vec<u64>, CostReport>,
    tiles: FxHashMap<TileKey, TileMemo>,
    unrolls: FxHashMap<UnrollKey, UnrollMemo>,
    /// Logical timestamp of the last estimation round that used this
    /// context (whole-context LRU eviction granularity).
    last_used: u64,
}

/// The session-lifetime estimate cache: memoized cost reports keyed by
/// *(context fingerprint, completed-mapping fingerprint)*, plus the
/// per-context enumeration memos.
///
/// The context fingerprint condenses *(workload, architecture, search
/// configuration)* ([`crate::fingerprint`]), so one map safely serves
/// every call a [`Scheduler`](crate::Scheduler) session makes: repeated
/// calls on the same layer, repeated layer shapes inside a batch, and the
/// candidate re-evaluations of the network pass all hit entries written by
/// earlier work. Within one search, distinct beam states frequently
/// complete to the same mapping — the remainder placement collapses
/// states that differ only in undecided levels — so the cache saves real
/// model work even on the first call.
///
/// The map is shared across worker threads; entries are inserted after
/// each parallel evaluation round, so the lock is never contended inside
/// the model. Retained cost reports are bounded by
/// [`SunstoneConfig::max_cache_entries`](crate::SunstoneConfig::max_cache_entries):
/// when an insert pushes past the bound, the least-recently-used context
/// fingerprints are evicted whole (never the context that just inserted).
#[derive(Debug, Default)]
pub(crate) struct SessionCache {
    map: Mutex<FxHashMap<u64, CtxEntry>>,
    hits: AtomicU64,
    misses: AtomicU64,
    /// Retained cost reports, maintained on insert/evict/clear so
    /// [`stats`](Self::stats) never walks the map under the lock.
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

    /// Locks the cache map, recovering from mutex poisoning. A panic can
    /// only unwind while the lock is held *between* map operations (each
    /// individual insert/remove leaves the map structurally valid), so
    /// the data under a poisoned lock is a valid map whose *contents* may
    /// be half-published — and the fault boundary follows every caught
    /// panic with [`evict_context`](Self::evict_context), which drops
    /// exactly that context. Propagating the poison instead would turn
    /// one recovered fault into a permanently broken session.
    fn lock_map(&self) -> MutexGuard<'_, FxHashMap<u64, CtxEntry>> {
        self.map.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Poison-and-recover: drops everything retained for `fp` — cost
    /// reports, tile/unroll enumeration memos, the LRU stamp — and
    /// recomputes the retained-report counter from the surviving
    /// contexts. Called by the panic-isolation boundary after a caught
    /// fault: the faulting call may have died mid-publish (reports
    /// inserted but the counter not yet bumped, or vice versa), so the
    /// counter is rebuilt rather than adjusted. Runs under the map lock,
    /// and every publisher updates the counter while holding the same
    /// lock, so the recount is exact even with concurrent batch workers.
    pub(crate) fn evict_context(&self, fp: u64) {
        let mut map = self.lock_map();
        map.remove(&fp);
        let total = map.values().map(|e| e.reports.len()).sum();
        self.entries.store(total, Ordering::Relaxed);
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
        self.lock_map().clear();
        self.entries.store(0, Ordering::Relaxed);
        self.hits.store(0, Ordering::Relaxed);
        self.misses.store(0, Ordering::Relaxed);
        self.prefix_hits.store(0, Ordering::Relaxed);
        self.batches.store(0, Ordering::Relaxed);
        self.batched.store(0, Ordering::Relaxed);
    }

    /// Evicts whole least-recently-used contexts (never `keep`) until the
    /// retained reports fit `max` again or only `keep` is left.
    fn evict_lru(&self, map: &mut FxHashMap<u64, CtxEntry>, max: usize, keep: u64) {
        while self.entries.load(Ordering::Relaxed) > max {
            let victim = map
                .iter()
                .filter(|(fp, e)| **fp != keep && !e.reports.is_empty())
                .min_by_key(|(_, e)| e.last_used)
                .map(|(fp, _)| *fp);
            let Some(fp) = victim else { break };
            if let Some(e) = map.remove(&fp) {
                self.entries.fetch_sub(e.reports.len(), Ordering::Relaxed);
            }
        }
    }
}

/// One search's view of the [`SessionCache`]: the context fingerprint is
/// fixed, so lookups cannot cross workloads, architectures, or
/// configurations.
pub(crate) struct EstimateCache<'s> {
    enabled: bool,
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
        EstimateCache { enabled, ctx_fp, max_entries, session }
    }

    fn lookup(&self, key: &[u64]) -> Option<CostReport> {
        if !self.enabled {
            return None;
        }
        let found =
            self.session.lock_map().get(&self.ctx_fp).and_then(|e| e.reports.get(key)).cloned();
        match &found {
            Some(_) => self.session.hits.fetch_add(1, Ordering::Relaxed),
            None => self.session.misses.fetch_add(1, Ordering::Relaxed),
        };
        found
    }

    fn insert(&self, key: Vec<u64>, report: CostReport) {
        if !self.enabled {
            return;
        }
        let mut guard = self.session.lock_map();
        let tick = self.session.tick.fetch_add(1, Ordering::Relaxed) + 1;
        let e = guard.entry(self.ctx_fp).or_default();
        e.last_used = tick;
        if e.reports.insert(key, report).is_none() {
            let total = self.session.entries.fetch_add(1, Ordering::Relaxed) + 1;
            if total > self.max_entries {
                self.session.evict_lru(&mut guard, self.max_entries, self.ctx_fp);
            }
        }
    }

    /// Memoized tile enumeration for this context, if already recorded.
    pub(crate) fn tiles_lookup(&self, key: &TileKey) -> Option<TileMemo> {
        if !self.enabled {
            return None;
        }
        self.session.lock_map().get(&self.ctx_fp).and_then(|e| e.tiles.get(key)).cloned()
    }

    pub(crate) fn tiles_insert(&self, key: TileKey, memo: TileMemo) {
        if self.enabled {
            self.session.lock_map().entry(self.ctx_fp).or_default().tiles.insert(key, memo);
        }
    }

    /// Memoized unrolling enumeration for this context, if already
    /// recorded.
    pub(crate) fn unrolls_lookup(&self, key: &UnrollKey) -> Option<UnrollMemo> {
        if !self.enabled {
            return None;
        }
        self.session.lock_map().get(&self.ctx_fp).and_then(|e| e.unrolls.get(key)).cloned()
    }

    pub(crate) fn unrolls_insert(&self, key: UnrollKey, memo: UnrollMemo) {
        if self.enabled {
            self.session.lock_map().entry(self.ctx_fp).or_default().unrolls.insert(key, memo);
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

thread_local! {
    /// Per-worker evaluation scratch, reused across rounds and calls (the
    /// pool threads are session-lived, so the buffers stay warm).
    static SCRATCH: RefCell<EvalScratch> = RefCell::new(EvalScratch::default());
    /// Per-worker SoA batch scratch, likewise session-lived.
    static BATCH_SCRATCH: RefCell<BatchEvalScratch> = RefCell::new(BatchEvalScratch::default());
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
/// The cache is probed on the calling thread with a reused scratch key:
/// the candidate's row prefix with the completion level's factor slots
/// multiplied by the row's quotas
/// ([`RowLayout::write_completed_key`](super::RowLayout::write_completed_key))
/// — word for word the [`mapping_key`] of the completed mapping, so
/// entries written by earlier calls, [`evaluate_cached`] and primed store
/// records all hit. Only the misses allocate: the key they will be
/// inserted under, and the completed [`Mapping`] materialized *from that
/// key* for the evaluators, which go through the model distributed over
/// the session's persistent worker pool (no per-round thread spawns; each
/// worker reuses one evaluation scratch).
///
/// Bottom-up stages past the first price each miss *prefix-incrementally*:
/// all candidates expanded from one beam state share the decided levels
/// `0..=mems[stage − 1]`, so that prefix's per-level cost contribution is
/// built once per parent ([`CostModel::prefix_of`]) and each candidate
/// only derives the delta of its frontier and completion levels. The
/// composition is bit-identical to the monolithic evaluation (see the
/// `prefix` property tests), so cached reports are unaffected.
///
/// The pool claims contiguous *chunks* of misses ([`ESTIMATE_CHUNK`] per
/// atomic claim), and every maximal same-prefix run inside a claim is
/// priced through the structure-of-arrays batch evaluator
/// ([`CostModel::evaluate_prefixed_batch`]) in one call — branch-free
/// inner loops over per-candidate columns instead of a full per-candidate
/// model walk. The batch evaluator is bit-identical to the scalar path
/// (see the `batch` property tests), so the dispatch choice never changes
/// a result.
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
/// [`CostModel::prefix_of`]: sunstone_model::CostModel::prefix_of
/// [`CostModel::evaluate_prefixed_batch`]: sunstone_model::CostModel::evaluate_prefixed_batch
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
    // (candidate index, cache key) per cache miss.
    let mut misses: Vec<(usize, Vec<u64>)> = Vec::new();
    let mut key = Vec::new();
    {
        // One lock acquisition covers every probe of the round, and hits
        // read the memoized report in place — no per-probe clone.
        let guard = cache.enabled.then(|| cache.session.lock_map());
        let per_ctx = guard.as_ref().and_then(|g| g.get(&cache.ctx_fp));
        for i in 0..candidates.len() {
            layout.write_completed_key(candidates.row(i), pos, &mut key);
            match per_ctx.and_then(|e| e.reports.get(key.as_slice())) {
                Some(report) => {
                    candidates.estimate[i] = objective.of(report);
                    hits += 1;
                }
                None => misses.push((i, std::mem::take(&mut key))),
            }
        }
    }
    if cache.enabled {
        cache.session.hits.fetch_add(hits, Ordering::Relaxed);
        cache.session.misses.fetch_add(misses.len() as u64, Ordering::Relaxed);
    }
    // A miss's key *is* its completed mapping.
    let completed: Vec<Mapping> =
        misses.iter().map(|(_, key)| layout.materialize(key, &ctx.base)).collect();

    // Prefix memoization: bottom-up, every candidate of one parent shares
    // the levels up to the previous stage's memory, and completion only
    // touches the outermost level — strictly above that boundary. Misses
    // preserve candidate order and candidates are expanded parent by
    // parent, so each parent's run of misses is contiguous.
    let boundary = (direction == Direction::BottomUp && stage >= 1).then(|| ctx.mems[stage - 1]);
    let mut prefixes: Vec<MappingPrefix> = Vec::new();
    let mut group_of: Vec<u32> = Vec::new();
    if let Some(b) = boundary {
        let mut last_parent = u32::MAX;
        for (k, &(i, _)) in misses.iter().enumerate() {
            faultpoint!("estimate.prefix");
            let parent = candidates.parent[i];
            if prefixes.is_empty() || parent != last_parent {
                prefixes.push(ctx.model.prefix_of(&completed[k], b));
                last_parent = parent;
            }
            group_of.push((prefixes.len() - 1) as u32);
        }
        let reused = (misses.len() - prefixes.len()) as u64;
        stats.prefix_hits += reused;
        cache.session.prefix_hits.fetch_add(reused, Ordering::Relaxed);
    }

    let mut reports: Vec<Option<CostReport>> = vec![None; misses.len()];
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
        let writer = SliceWriter::new(&mut reports);
        let (prefixes, group_of, completed) = (&prefixes, &group_of, &completed);
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
                BATCH_SCRATCH.with(|bcell| {
                    let mut scratch = cell.borrow_mut();
                    let mut bscratch = bcell.borrow_mut();
                    let mut k = range.start;
                    while k < range.end {
                        let Some(&g) = group_of.get(k) else {
                            // No shared prefix this stage: scalar path.
                            let report = model.evaluate_unchecked_with(&completed[k], &mut scratch);
                            // SAFETY: claims are disjoint ranges and every
                            // index is written by its claimant only.
                            unsafe { writer.write(k, Some(report)) };
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
                            model.evaluate_prefixed_batch(
                                &prefixes[g as usize],
                                &completed[k..end],
                                &mut bscratch,
                                |j, report| {
                                    // SAFETY: disjoint claims; `k + j`
                                    // stays inside this run.
                                    unsafe { writer.write(k + j, Some(report)) };
                                },
                            );
                        } else {
                            let report = model.evaluate_prefixed_with(
                                &prefixes[g as usize],
                                &completed[k],
                                &mut scratch,
                            );
                            // SAFETY: disjoint claims (see above).
                            unsafe { writer.write(k, Some(report)) };
                        }
                        k = end;
                    }
                });
            });
            claims_done.fetch_add(1, Ordering::Relaxed);
        });
    }

    let miss_count = misses.len() as u64;
    stats.modeled += reports.iter().filter(|r| r.is_some()).count() as u64;
    let (round_batches, round_batched) = (round_batches.into_inner(), round_batched.into_inner());
    stats.batches += round_batches;
    stats.batched += round_batched;
    cache.session.batches.fetch_add(round_batches, Ordering::Relaxed);
    cache.session.batched.fetch_add(round_batched, Ordering::Relaxed);
    {
        // Publish every new report under a single lock acquisition, stamp
        // the context's LRU clock, and enforce the cache bound.
        let mut guard = cache.enabled.then(|| cache.session.lock_map());
        let mut per_ctx = guard.as_deref_mut().map(|g| {
            let tick = cache.session.tick.fetch_add(1, Ordering::Relaxed) + 1;
            let e = g.entry(cache.ctx_fp).or_default();
            e.last_used = tick;
            e
        });
        let mut inserted = 0usize;
        for ((i, key), report) in misses.into_iter().zip(reports) {
            match report {
                Some(report) => {
                    candidates.estimate[i] = objective.of(&report);
                    if let Some(e) = per_ctx.as_deref_mut() {
                        faultpoint!("cache.insert");
                        if e.reports.insert(key, report).is_none() {
                            inserted += 1;
                        }
                    }
                }
                // Skipped by a mid-round stop: never evaluated, never
                // published. The caller discards the stage, so the
                // placeholder estimate is never ranked against real ones.
                None => candidates.estimate[i] = f64::INFINITY,
            }
        }
        if inserted > 0 {
            let total = cache.session.entries.fetch_add(inserted, Ordering::Relaxed) + inserted;
            if total > cache.max_entries {
                if let Some(g) = guard.as_deref_mut() {
                    cache.session.evict_lru(g, cache.max_entries, cache.ctx_fp);
                }
            }
        }
    }

    let level = stats.level_mut(stage);
    level.cache_hits += hits;
    level.cache_misses += miss_count;
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

/// Evaluates a complete mapping through the estimate cache (the final
/// top-k re-evaluation: the last stage already estimated these mappings,
/// so with the cache enabled this is a pure lookup).
pub(crate) fn evaluate_cached(
    ctx: &SearchContext<'_>,
    mapping: &Mapping,
    stats: &mut SearchStats,
) -> CostReport {
    let key = mapping_key(mapping);
    if let Some(report) = ctx.cache.lookup(&key) {
        stats.cache_hits += 1;
        return report;
    }
    stats.cache_misses += 1;
    let report = ctx.model.evaluate_unchecked(mapping);
    ctx.cache.insert(key, report.clone());
    report
}

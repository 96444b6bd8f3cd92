//! The session's result memo: per context fingerprint, the answer of a
//! search that ran to completion there, or of a mapping primed from
//! outside, packed into **one byte string per context**.
//!
//! An entry is written once, when it is filed, and read through a view
//! ([`Memoized`]) that decodes only what its reader asks for: the daemon's
//! hit decodes the best mapping and nothing else, and only
//! `Scheduler::verified` decodes the statistics. Every unsigned integer is
//! LEB128 unless said otherwise:
//!
//! * header: the best mapping's [`mapping_fingerprint`] (8 bytes, little
//!   endian), the `top_k` the list was ranked for, a primed byte (1 for a
//!   primed mapping, 0 for a search's list), the workload's dimension
//!   count and the finalist count;
//! * per finalist: its [`CostTotals`] as the bit patterns of
//!   `energy_pj` and `delay_cycles` (8 bytes each, little endian), the
//!   level count, then per level its position shifted left once with the
//!   low bit set for a spatial level (one byte below position 64), one
//!   factor per dimension, and for a temporal level its order, one byte
//!   per dimension (`DimId` indices, innermost first);
//! * a searched entry only: the search's statistics as a memo hit reports
//!   them — the model and probe columns struck out, every estimate
//!   request served from memory — written by [`put_stats`], a duration
//!   as whole seconds and then the sub-second nanoseconds.

use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

use sunstone_arch::LevelId;
use sunstone_ir::{DimId, FxHashMap};
use sunstone_mapping::{Mapping, MappingLevel, SpatialAssignment, TemporalLevel};
use sunstone_model::CostTotals;

use crate::fingerprint::mapping_fingerprint;
use crate::search::{LevelStats, PruneCounter, SearchStats};

/// One context's memoized answer (`Scheduler::memoized`): the ranked
/// finalists of a search that ran to completion there — or the one
/// mapping `Scheduler::prime_mapping` vouched for. It is a view over the
/// context's entry, shared with the memo, not a copy: the fingerprint and
/// the primed flag are read from the entry's header when the view is
/// made, a finalist is decoded when it is asked for
/// ([`best`](Self::best), [`Finalists::iter`]). A call answered from it
/// re-prices every mapping on the way out, so a finalist is its mapping
/// and the two totals it was priced at, not a `CostReport`.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct Memoized {
    /// The ranked finalists, best first; never empty.
    pub finalists: Finalists,
    /// [`mapping_fingerprint`] of the best mapping.
    pub mapping_fp: u64,
    /// Whether the entry was primed from outside rather than searched by
    /// this session.
    pub primed: bool,
}

impl Memoized {
    /// The view of a filed entry.
    fn of(entry: Arc<[u8]>) -> Memoized {
        let header = Header::read(&entry);
        let finalists =
            Finalists { count: header.count, ndims: header.ndims, start: header.len, entry };
        Memoized { finalists, mapping_fp: header.mapping_fp, primed: header.primed }
    }

    /// The best finalist, decoded.
    pub fn best(&self) -> Finalist {
        self.finalists.iter().next().expect("a memoized list is never empty")
    }

    /// The best finalist decoded into `mapping`, and the totals it was
    /// filed at: what [`best`](Self::best) returns, with the mapping's
    /// vectors reused, so a reader that keeps one mapping across answers
    /// of one shape decodes without allocating.
    pub fn best_into(&self, mapping: &mut Mapping) -> CostTotals {
        read_finalist_into(&mut self.finalists.reader(), self.finalists.ndims, mapping)
    }

    /// The producing search's statistics as a hit reports them: the model
    /// and probe columns struck out (`modeled`, `bounded`, `prefix_hits`,
    /// `batches`, `batched` and `capacity_probes` read 0, per level
    /// `bounded` too) and every estimate request, in total and per level,
    /// served from memory. Everything else, the timers included, is the
    /// search's. `None` for a primed mapping, which no search produced.
    pub(crate) fn stats(&self) -> Option<SearchStats> {
        if self.primed {
            return None;
        }
        let mut at = self.finalists.reader();
        for _ in 0..self.finalists.count {
            skip_finalist(&mut at, self.finalists.ndims);
        }
        Some(read_stats(&mut at))
    }
}

/// A memoized context's ranked finalists, decoded one at a time from the
/// entry they share.
#[derive(Clone)]
pub struct Finalists {
    entry: Arc<[u8]>,
    /// Where the first finalist starts: the header's length.
    start: usize,
    count: usize,
    ndims: usize,
}

impl Finalists {
    /// How many finalists the entry holds (at most the `top_k` it was
    /// ranked for; fewer when the search found no more).
    pub fn len(&self) -> usize {
        self.count
    }

    /// Never true for a filed entry.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// The finalists, best first, each decoded as it is reached.
    pub fn iter(&self) -> impl Iterator<Item = Finalist> + '_ {
        let mut at = self.reader();
        (0..self.count).map(move |_| read_finalist(&mut at, self.ndims))
    }

    fn reader(&self) -> Reader<'_> {
        Reader { bytes: &self.entry, at: self.start }
    }
}

impl fmt::Debug for Finalists {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// A memoized finalist, decoded from its context's entry: the mapping and
/// the totals it was priced at when it was filed.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub struct Finalist {
    /// The mapping.
    pub mapping: Mapping,
    /// Its energy and delay when it was filed, bit for bit.
    pub totals: CostTotals,
}

/// The session's memory: per context fingerprint, the answer of a
/// complete search or a primed mapping. Best-so-far and failed calls are
/// never filed, so a hit is always what a fresh search would return.
#[derive(Debug, Default)]
pub(crate) struct ResultMemo {
    table: Mutex<MemoTable>,
    /// Lookups the memo answered.
    pub(crate) hits: AtomicU64,
    /// Searches started because it could not.
    pub(crate) searches: AtomicU64,
}

/// The memoized contexts, each one packed entry; oldest first, the order
/// they were first filed in — what the bound evicts by; and the bytes the
/// entries hold.
#[derive(Debug, Default)]
struct MemoTable {
    contexts: FxHashMap<u64, Arc<[u8]>>,
    order: VecDeque<u64>,
    bytes: usize,
}

impl ResultMemo {
    /// Nothing can unwind while the lock is held (map operations, header
    /// reads and `Arc` clones only; entries are encoded before it is
    /// taken), but a poisoned memo would break the session for good, so
    /// recover anyway.
    fn lock(&self) -> MutexGuard<'_, MemoTable> {
        self.table.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The context's entry if it answers a request for `top_k` results.
    pub(crate) fn get(&self, ctx_fp: u64, top_k: usize) -> Option<Memoized> {
        let entry = {
            let table = self.lock();
            let entry = table.contexts.get(&ctx_fp)?;
            if top_k > Header::read(entry).top_k {
                return None;
            }
            Arc::clone(entry)
        };
        self.hits.fetch_add(1, Ordering::Relaxed);
        Some(Memoized::of(entry))
    }

    /// Files `finalists` — ranked for `top_k` by a search that gathered
    /// `stats`, or primed when there is none — as the context's answer,
    /// packed into one entry. A searched list already there that answers
    /// as many requests stays: a narrower search finishing late, or a
    /// primed mapping, never displaces it. A new context past `max`
    /// evicts the oldest ones, in insertion order.
    pub(crate) fn insert<'m>(
        &self,
        ctx_fp: u64,
        finalists: impl ExactSizeIterator<Item = (&'m Mapping, CostTotals)>,
        stats: Option<&SearchStats>,
        top_k: usize,
        max: usize,
    ) {
        let entry = encode(finalists, stats, top_k);
        let table = &mut *self.lock();
        if table.contexts.get(&ctx_fp).is_some_and(|kept| {
            let kept = Header::read(kept);
            !kept.primed && kept.top_k >= top_k
        }) {
            return;
        }
        table.bytes += entry.len();
        match table.contexts.insert(ctx_fp, entry) {
            Some(replaced) => table.bytes -= replaced.len(),
            None => {
                table.order.push_back(ctx_fp);
                while table.contexts.len() > max {
                    let oldest = table.order.pop_front().expect("every context is in the order");
                    if let Some(evicted) = table.contexts.remove(&oldest) {
                        table.bytes -= evicted.len();
                    }
                }
            }
        }
    }

    /// The contexts memoized and the bytes their entries hold.
    pub(crate) fn size(&self) -> (usize, usize) {
        let table = self.lock();
        (table.contexts.len(), table.bytes)
    }

    /// Forgets every context and zeroes the counters.
    pub(crate) fn clear(&self) {
        *self.lock() = MemoTable::default();
        self.hits.store(0, Ordering::Relaxed);
        self.searches.store(0, Ordering::Relaxed);
    }
}

/// An entry's header, read from its first bytes.
struct Header {
    mapping_fp: u64,
    top_k: usize,
    primed: bool,
    ndims: usize,
    count: usize,
    /// Its length in bytes: where the first finalist starts.
    len: usize,
}

impl Header {
    fn read(entry: &[u8]) -> Header {
        let mut at = Reader { bytes: entry, at: 0 };
        let mapping_fp = at.fixed();
        let top_k = at.uint() as usize;
        let primed = at.byte() != 0;
        let (ndims, count) = (at.uint() as usize, at.uint() as usize);
        Header { mapping_fp, top_k, primed, ndims, count, len: at.at }
    }
}

/// Packs one context's answer: the header, the finalists, and — for a
/// searched list — the statistics a hit reports, into one exactly sized
/// allocation.
fn encode<'m>(
    finalists: impl ExactSizeIterator<Item = (&'m Mapping, CostTotals)>,
    stats: Option<&SearchStats>,
    top_k: usize,
) -> Arc<[u8]> {
    let mut finalists = finalists.peekable();
    let &(best, _) = finalists.peek().expect("a memoized list is never empty");
    let ndims = best.levels().first().map_or(0, |l| l.factors().len());
    let mut out = Vec::with_capacity(512);
    out.extend_from_slice(&mapping_fingerprint(best).to_le_bytes());
    put_uint(&mut out, top_k as u64);
    out.push(u8::from(stats.is_none()));
    put_uint(&mut out, ndims as u64);
    put_uint(&mut out, finalists.len() as u64);
    for (mapping, totals) in finalists {
        out.extend_from_slice(&totals.energy_pj.to_bits().to_le_bytes());
        out.extend_from_slice(&totals.delay_cycles.to_bits().to_le_bytes());
        put_mapping(&mut out, mapping, ndims);
    }
    if let Some(stats) = stats {
        put_stats(&mut out, stats);
    }
    out.into()
}

/// One mapping: its level count, then per level the position-and-kind
/// word, the factors, and a temporal level's order. Every level of a
/// filed mapping has one factor (and one order entry) per dimension: it
/// was validated before it was filed.
fn put_mapping(out: &mut Vec<u8>, mapping: &Mapping, ndims: usize) {
    put_uint(out, mapping.levels().len() as u64);
    for level in mapping.levels() {
        debug_assert_eq!(level.factors().len(), ndims, "a filed mapping is validated");
        match level {
            MappingLevel::Temporal(t) => {
                put_uint(out, (t.mem.index() as u64) << 1);
                t.factors.iter().for_each(|&f| put_uint(out, f));
                debug_assert_eq!(t.order.len(), ndims, "a filed mapping is validated");
                out.extend(t.order.iter().map(|d| d.index() as u8));
            }
            MappingLevel::Spatial(s) => {
                put_uint(out, (s.fabric.index() as u64) << 1 | 1);
                s.factors.iter().for_each(|&f| put_uint(out, f));
            }
        }
    }
}

fn read_finalist(at: &mut Reader<'_>, ndims: usize) -> Finalist {
    let mut mapping = Mapping::from_levels(Vec::new());
    let totals = read_finalist_into(at, ndims, &mut mapping);
    Finalist { mapping, totals }
}

/// Decodes one finalist's mapping into `mapping` and returns its totals.
/// The mapping's vectors are refilled in place, keeping their capacity;
/// a level of the other kind, or a level count that differs, is rebuilt.
fn read_finalist_into(at: &mut Reader<'_>, ndims: usize, mapping: &mut Mapping) -> CostTotals {
    let totals = CostTotals {
        energy_pj: f64::from_bits(at.fixed()),
        delay_cycles: f64::from_bits(at.fixed()),
    };
    let count = at.uint() as usize;
    if mapping.levels().len() != count {
        let unit = MappingLevel::Spatial(SpatialAssignment::unit(LevelId(0), 0));
        *mapping = Mapping::from_levels(vec![unit; count]);
    }
    for level in mapping.levels_mut() {
        let word = at.uint();
        let (id, spatial) = (LevelId((word >> 1) as usize), word & 1 == 1);
        if matches!(level, MappingLevel::Spatial(_)) != spatial {
            *level = if spatial {
                MappingLevel::Spatial(SpatialAssignment::unit(id, 0))
            } else {
                MappingLevel::Temporal(TemporalLevel::unit(id, 0))
            };
        }
        let (factors, order) = match level {
            MappingLevel::Spatial(s) => {
                s.fabric = id;
                (&mut s.factors, None)
            }
            MappingLevel::Temporal(t) => {
                t.mem = id;
                (&mut t.factors, Some(&mut t.order))
            }
        };
        factors.clear();
        factors.extend((0..ndims).map(|_| at.uint()));
        if let Some(order) = order {
            order.clear();
            order.extend((0..ndims).map(|_| DimId::from_index(at.byte().into())));
        }
    }
    totals
}

/// Steps over one finalist without building it.
fn skip_finalist(at: &mut Reader<'_>, ndims: usize) {
    at.at += 16;
    for _ in 0..at.uint() {
        let spatial = at.uint() & 1 == 1;
        for _ in 0..ndims {
            at.uint();
        }
        if !spatial {
            at.at += ndims;
        }
    }
}

/// The statistics a memo hit reports, written from a search's: every
/// field the hit keeps, in declaration order, with `cache_hits` carrying
/// the misses too (in total and per level). The struck columns are not
/// written: [`read_stats`] restores them as 0. Both structs are taken
/// apart field by field, so a field added to either does not compile
/// until the codec carries it.
fn put_stats(out: &mut Vec<u8>, stats: &SearchStats) {
    let SearchStats {
        probed,
        modeled: _,
        bounded: _,
        prefix_hits: _,
        batches: _,
        batched: _,
        seed_evals,
        rounds,
        orderings,
        tiles,
        unrollings,
        nodes_explored,
        capacity_probes: _,
        tile_memo_hits,
        tile_memo_misses,
        unroll_memo_hits,
        unroll_memo_misses,
        cache_hits,
        cache_misses,
        elapsed,
        rank,
        levels,
    } = stats;
    for &n in [
        probed,
        seed_evals,
        rounds,
        orderings,
        tiles,
        unrollings,
        nodes_explored,
        tile_memo_hits,
        tile_memo_misses,
        unroll_memo_hits,
        unroll_memo_misses,
    ] {
        put_uint(out, n);
    }
    put_uint(out, cache_hits + cache_misses);
    put_duration(out, *elapsed);
    put_duration(out, *rank);
    put_uint(out, levels.len() as u64);
    for level in levels {
        let LevelStats {
            level,
            ordering,
            ordering_no_reuse,
            ordering_dominated,
            tiling,
            unrolling,
            constraint,
            beam,
            cache_hits,
            cache_misses,
            bounded: _,
            expand,
            expand_tiles,
            expand_unrolls,
            expand_orderings,
            expand_rows,
            estimate,
            estimate_prefix,
            estimate_price,
            estimate_publish,
            select,
        } = level;
        put_uint(out, *level as u64);
        put_uint(out, *ordering_no_reuse);
        put_uint(out, *ordering_dominated);
        for PruneCounter { considered, kept } in [ordering, tiling, unrolling, constraint, beam] {
            put_uint(out, *considered);
            put_uint(out, *kept);
        }
        put_uint(out, cache_hits + cache_misses);
        for &d in [
            expand,
            expand_tiles,
            expand_unrolls,
            expand_orderings,
            expand_rows,
            estimate,
            estimate_prefix,
            estimate_price,
            estimate_publish,
            select,
        ] {
            put_duration(out, d);
        }
    }
}

/// The statistics [`put_stats`] wrote, the struck columns 0.
fn read_stats(at: &mut Reader<'_>) -> SearchStats {
    let mut n = [0u64; 11];
    n.iter_mut().for_each(|n| *n = at.uint());
    let [probed, seed_evals, rounds, orderings, tiles, unrollings, nodes_explored, tile_memo_hits, tile_memo_misses, unroll_memo_hits, unroll_memo_misses] =
        n;
    let cache_hits = at.uint();
    let (elapsed, rank) = (at.duration(), at.duration());
    let levels = (0..at.uint()).map(|_| read_level(at)).collect();
    SearchStats {
        probed,
        modeled: 0,
        bounded: 0,
        prefix_hits: 0,
        batches: 0,
        batched: 0,
        seed_evals,
        rounds,
        orderings,
        tiles,
        unrollings,
        nodes_explored,
        capacity_probes: 0,
        tile_memo_hits,
        tile_memo_misses,
        unroll_memo_hits,
        unroll_memo_misses,
        cache_hits,
        cache_misses: 0,
        elapsed,
        rank,
        levels,
    }
}

fn read_level(at: &mut Reader<'_>) -> LevelStats {
    let level = at.uint() as usize;
    let (ordering_no_reuse, ordering_dominated) = (at.uint(), at.uint());
    let mut counter = || PruneCounter { considered: at.uint(), kept: at.uint() };
    let [ordering, tiling, unrolling, constraint, beam] = std::array::from_fn(|_| counter());
    let cache_hits = at.uint();
    let [expand, expand_tiles, expand_unrolls, expand_orderings, expand_rows, estimate, estimate_prefix, estimate_price, estimate_publish, select] =
        std::array::from_fn(|_| at.duration());
    LevelStats {
        level,
        ordering,
        ordering_no_reuse,
        ordering_dominated,
        tiling,
        unrolling,
        constraint,
        beam,
        cache_hits,
        cache_misses: 0,
        bounded: 0,
        expand,
        expand_tiles,
        expand_unrolls,
        expand_orderings,
        expand_rows,
        estimate,
        estimate_prefix,
        estimate_price,
        estimate_publish,
        select,
    }
}

/// Unsigned LEB128: seven bits a byte, low first, the high bit set on
/// every byte but the last.
fn put_uint(out: &mut Vec<u8>, mut n: u64) {
    while n >= 0x80 {
        out.push(n as u8 | 0x80);
        n >>= 7;
    }
    out.push(n as u8);
}

/// Whole seconds, then the sub-second nanoseconds: exact for any
/// `Duration`.
fn put_duration(out: &mut Vec<u8>, d: Duration) {
    put_uint(out, d.as_secs());
    put_uint(out, d.subsec_nanos().into());
}

/// A cursor over an entry the memo wrote itself: a read past its end is a
/// bug, and panics.
struct Reader<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl Reader<'_> {
    fn byte(&mut self) -> u8 {
        self.at += 1;
        self.bytes[self.at - 1]
    }

    fn fixed(&mut self) -> u64 {
        let bytes = self.bytes[self.at..self.at + 8].try_into().expect("eight bytes");
        self.at += 8;
        u64::from_le_bytes(bytes)
    }

    fn uint(&mut self) -> u64 {
        let (mut n, mut shift) = (0u64, 0);
        loop {
            let b = self.byte();
            n |= u64::from(b & 0x7f) << shift;
            if b < 0x80 {
                return n;
            }
            shift += 7;
        }
    }

    fn duration(&mut self) -> Duration {
        let secs = self.uint();
        Duration::new(secs, self.uint() as u32)
    }
}

#[cfg(test)]
mod tests {
    use sunstone_arch::presets;

    use super::*;
    use crate::search::testing::conv2d;
    use crate::{Scheduler, SunstoneConfig};

    impl ResultMemo {
        /// Σ the entries' lengths, and the oldest entry's length.
        fn lengths(&self) -> (usize, Option<usize>) {
            let table = self.lock();
            let oldest = table.order.front().map(|fp| table.contexts[fp].len());
            (table.contexts.values().map(|e| e.len()).sum(), oldest)
        }
    }

    /// A 7-level mapping over three dimensions, temporal and spatial
    /// levels mixed, positions up to 200 and one factor past 2⁴⁰.
    fn seven_levels() -> Mapping {
        let order = |o: [usize; 3]| o.map(DimId::from_index).to_vec();
        let t = |pos, factors: [u64; 3], o| {
            MappingLevel::Temporal(TemporalLevel {
                mem: LevelId(pos),
                factors: factors.to_vec(),
                order: order(o),
            })
        };
        let s = |pos, factors: [u64; 3]| {
            MappingLevel::Spatial(SpatialAssignment {
                fabric: LevelId(pos),
                factors: factors.to_vec(),
            })
        };
        Mapping::from_levels(vec![
            t(0, [2, 3, 5], [2, 0, 1]),
            s(1, [7, 1, 11]),
            t(2, [1, 127, 128], [0, 1, 2]),
            s(3, [16_384, 1, 1]),
            t(4, [1, 1, (1 << 40) + 3], [1, 2, 0]),
            t(200, [u64::MAX, 1, 1], [2, 1, 0]),
            s(6, [1, 13, 1]),
        ])
    }

    /// Search statistics whose every field is distinct and nonzero, over
    /// seven levels, with sub-second nanoseconds in every timer.
    fn distinct_stats() -> SearchStats {
        let next = std::cell::Cell::new(0u64);
        let n = || {
            next.set(next.get() + 1);
            next.get() * 1_000 + next.get()
        };
        let d = || Duration::new(n() % 7, (n() * 7_919 % 1_000_000_000) as u32);
        let counter = || PruneCounter { considered: n(), kept: n() };
        let mut stats = SearchStats {
            probed: 1 << 40,
            modeled: 2,
            bounded: 3,
            prefix_hits: 4,
            batches: 5,
            batched: 6,
            seed_evals: 7,
            rounds: 8,
            orderings: 9,
            tiles: 10,
            unrollings: 11,
            nodes_explored: u64::MAX - 1,
            capacity_probes: 12,
            tile_memo_hits: 13,
            tile_memo_misses: 14,
            unroll_memo_hits: 15,
            unroll_memo_misses: 16,
            cache_hits: 17,
            cache_misses: 18,
            elapsed: Duration::new(3, 141_592_653),
            rank: Duration::new(0, 999_999_999),
            levels: Vec::new(),
        };
        for level in 0..7 {
            stats.levels.push(LevelStats {
                level,
                ordering: counter(),
                ordering_no_reuse: n(),
                ordering_dominated: n(),
                tiling: counter(),
                unrolling: counter(),
                constraint: counter(),
                beam: counter(),
                cache_hits: n(),
                cache_misses: n(),
                bounded: n(),
                expand: d(),
                expand_tiles: d(),
                expand_unrolls: d(),
                expand_orderings: d(),
                expand_rows: d(),
                estimate: d(),
                estimate_prefix: d(),
                estimate_price: d(),
                estimate_publish: d(),
                select: d(),
            });
        }
        stats
    }

    /// What a hit reports of `stats`, spelled out field by field: the
    /// model and probe columns 0, every estimate request served from
    /// memory.
    fn struck(stats: &SearchStats) -> SearchStats {
        let mut hit = stats.clone();
        (hit.modeled, hit.bounded, hit.prefix_hits) = (0, 0, 0);
        (hit.batches, hit.batched, hit.capacity_probes) = (0, 0, 0);
        (hit.cache_hits, hit.cache_misses) = (stats.cache_hits + stats.cache_misses, 0);
        for level in &mut hit.levels {
            (level.cache_hits, level.cache_misses) = (level.cache_hits + level.cache_misses, 0);
            level.bounded = 0;
        }
        hit
    }

    #[test]
    fn an_entry_round_trips_every_field() {
        let stats = distinct_stats();
        let mapping = seven_levels();
        let mut other = seven_levels();
        other.levels_mut()[0].factors_mut()[0] = 4;
        let totals = [
            CostTotals { energy_pj: 1.5e12, delay_cycles: f64::MIN_POSITIVE / 3.0 },
            CostTotals { energy_pj: -0.0, delay_cycles: f64::MAX },
        ];
        let memo = ResultMemo::default();
        let filed = [(&mapping, totals[0]), (&other, totals[1])];
        memo.insert(1, filed.into_iter(), Some(&stats), 3, 8);
        let hit = memo.get(1, 3).expect("answers three");
        assert!(memo.get(1, 4).is_none(), "ranked for three");
        assert_eq!((hit.mapping_fp, hit.primed), (mapping_fingerprint(&mapping), false));
        let finalists: Vec<_> = hit.finalists.iter().collect();
        assert_eq!(finalists.len(), 2);
        for (f, (m, t)) in finalists.iter().zip(filed) {
            assert_eq!(&f.mapping, m);
            assert_eq!(f.totals.energy_pj.to_bits(), t.energy_pj.to_bits());
            assert_eq!(f.totals.delay_cycles.to_bits(), t.delay_cycles.to_bits());
        }
        assert_eq!(hit.best(), finalists[0]);
        assert_eq!(hit.stats(), Some(struck(&stats)));
        // Statistics a hit already reports as such come back unchanged.
        let remembered = struck(&stats);
        memo.insert(2, [(&mapping, totals[0])].into_iter(), Some(&remembered), 1, 8);
        assert_eq!(memo.get(2, 1).expect("filed").stats(), Some(remembered));

        memo.insert(3, [(&other, totals[1])].into_iter(), None, 1, 8);
        let primed = memo.get(3, 1).expect("filed");
        assert!(primed.primed && primed.stats().is_none());
        assert_eq!(primed.best().mapping, other);
    }

    /// Decoding the best finalist into a mapping of another shape — more or
    /// fewer levels, another dimension count, each level of the other
    /// kind — or of its own shape gives what `best` decodes, totals
    /// included, bit for bit.
    #[test]
    fn best_into_any_mapping_equals_best() {
        let seven = seven_levels();
        let total = CostTotals { energy_pj: 2.5e9, delay_cycles: 7.0 };
        let memo = ResultMemo::default();
        memo.insert(1, [(&seven, total)].into_iter(), None, 1, 8);
        let hit = memo.get(1, 1).expect("filed");
        let best = hit.best();
        let (w, arch) = (conv2d(16, 16, 14), presets::simba_like());
        let mut flipped = seven_levels();
        for level in flipped.levels_mut() {
            *level = match level {
                MappingLevel::Temporal(t) => {
                    MappingLevel::Spatial(SpatialAssignment::unit(t.mem, 5))
                }
                MappingLevel::Spatial(s) => {
                    MappingLevel::Temporal(TemporalLevel::unit(s.fabric, 1))
                }
            };
        }
        let shapes = [
            Mapping::from_levels(Vec::new()),
            Mapping::streaming(&w, &arch),
            Mapping::from_levels(seven.levels()[..3].to_vec()),
            flipped,
            seven.clone(),
        ];
        for mut into in shapes {
            let totals = hit.best_into(&mut into);
            assert_eq!(into, best.mapping);
            assert_eq!(totals.energy_pj.to_bits(), best.totals.energy_pj.to_bits());
            assert_eq!(totals.delay_cycles.to_bits(), best.totals.delay_cycles.to_bits());
        }
    }

    /// The bytes counter is the sum of the entries' lengths: it grows with
    /// each context filed, falls by the evicted entry's length when the
    /// bound evicts, and reads 0 after `clear_cache`.
    #[test]
    fn memo_bytes_is_the_entries_lengths() {
        let arch = presets::conventional();
        let convs: Vec<_> =
            (0..20).map(|i| conv2d(8 << (i % 4), 8 << (i / 4 % 2), 4 + i / 8)).collect();
        let bounded = SunstoneConfig { threads: 1, max_cache_entries: 8, ..Default::default() };
        for session in [
            Scheduler::new(SunstoneConfig { threads: 1, ..Default::default() }),
            Scheduler::new(bounded),
        ] {
            let max = session.config().max_cache_entries;
            for (i, w) in convs.iter().enumerate() {
                let (before, oldest) = session.memo().lengths();
                assert_eq!(session.cache_stats().memo_bytes, before);
                session.schedule(w, &arch).expect("schedules");
                let stats = session.cache_stats();
                assert_eq!(stats.memo_bytes, session.memo().lengths().0, "after search {i}");
                assert_eq!(stats.entries, (i + 1).min(max));
                let entry = session.memoized(session.context_fingerprint(w, &arch)).expect("filed");
                let filed = entry.finalists.entry.len();
                if i < max {
                    assert_eq!(stats.memo_bytes, before + filed);
                } else {
                    let evicted = oldest.expect("a full memo has an oldest entry");
                    assert_eq!(
                        stats.memo_bytes,
                        before + filed - evicted,
                        "fell by the evicted entry"
                    );
                }
            }
            session.clear_cache();
            assert_eq!(session.cache_stats().memo_bytes, 0);
        }
    }

    /// A remembered answer is one small allocation. The parent commit kept
    /// a context as a shared slice of finalists, each a `Mapping` of 12
    /// allocations, and a shared `SearchStats` (ten `Duration`s per
    /// level): 2 374 B of live heap per context, measured with a counting
    /// global allocator around 161 distinct Simba convs scheduled at
    /// `top_k` 1 on 2 threads, as the live bytes the session gained
    /// divided by the contexts it filed (2 349 B in 15 allocations with
    /// another set of 161 convs; 429 B in one allocation after). Packed,
    /// a context's entry is about 350 B.
    #[test]
    fn a_memo_entry_is_small() {
        let arch = presets::simba_like();
        let session = Scheduler::new(SunstoneConfig { threads: 2, ..Default::default() });
        for i in 0..32 {
            let w = conv2d(16 << (i % 4), 16 << (i / 4 % 4), 4 + 2 * (i / 16));
            session.schedule(&w, &arch).expect("schedules");
        }
        let stats = session.cache_stats();
        assert_eq!(stats.entries, 32, "32 distinct contexts");
        let per_entry = stats.memo_bytes / stats.entries;
        assert!(per_entry <= 512, "{per_entry} B per memoized context");
    }
}

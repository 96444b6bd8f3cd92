//! Candidate estimation: the search's own memo of enumerations, one
//! estimate round per stage — its repeats found in the round, its misses
//! priced prefix-incrementally from their rows — and parallel execution
//! on the session worker pool.

use std::cell::{Ref, RefCell};
use std::hash::Hash;
use std::ops::{Deref, RangeInclusive};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use sunstone_ir::{DimSet, DimVec, FxHashMap};
use sunstone_model::{BatchEvalScratch, CostTotals, MappingPrefix, Nest, NestSource};

use super::beam::Beam;
use super::candidates::Candidates;
use super::compose::SearchStop;
use super::stats::{LevelStats, PruneCounter, SearchStats};
use super::{RowLayout, SearchContext};
use crate::pool::SliceWriter;

/// Which of a stage's three enumerations a [`Record`] counts for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Enumeration {
    Orderings,
    Tiles,
    Unrollings,
}

/// The counters one enumeration produced. Every ask of it — the one that
/// ran it and each memo hit after — replays them ([`replay`](Self::replay)),
/// so the stats read as if every beam parent had enumerated for itself.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Record {
    pub(crate) of: Enumeration,
    /// Trie, tree or lattice nodes explored (0 for orderings with the
    /// trie off).
    pub(crate) nodes: u64,
    /// Candidates considered vs. kept under the stage's principle (and
    /// the enumeration's cap).
    pub(crate) pruning: PruneCounter,
    /// Orderings: suffixes rejected for adding no reuse (Ordering
    /// Principle 3) and dropped by sibling dominance.
    pub(crate) no_reuse: u64,
    pub(crate) dominated: u64,
    /// Orderings: the order constraint's filter.
    pub(crate) constraint: PruneCounter,
    /// Calls of the enumerator's `fits`: counted once, by the ask that
    /// ran it, never replayed (a hit probes nothing).
    pub(crate) probes: u64,
}

impl Record {
    /// The record of an enumeration of `of` that explored `nodes` and kept
    /// `kept` of them, making `probes` capacity probes.
    pub(crate) fn new(of: Enumeration, nodes: usize, kept: usize, probes: usize) -> Record {
        let (nodes, kept) = (nodes as u64, kept as u64);
        Record {
            of,
            nodes,
            pruning: PruneCounter { considered: nodes, kept },
            no_reuse: 0,
            dominated: 0,
            constraint: PruneCounter::default(),
            probes: probes as u64,
        }
    }

    /// Writes the enumeration's counters into `stats` at `stage`. The only
    /// writer of `nodes_explored`, of the `orderings`/`tiles`/`unrollings`
    /// totals, of the stage's `ordering`/`tiling`/`unrolling` counters and
    /// of `ordering_no_reuse`/`ordering_dominated` (`ci.sh`, "one
    /// enumeration rule").
    pub(crate) fn replay(&self, stage: usize, stats: &mut SearchStats) {
        let (total, counter): (&mut u64, fn(&mut LevelStats) -> &mut PruneCounter) = match self.of {
            Enumeration::Orderings => (&mut stats.orderings, |l| &mut l.ordering),
            Enumeration::Tiles => (&mut stats.tiles, |l| &mut l.tiling),
            Enumeration::Unrollings => (&mut stats.unrollings, |l| &mut l.unrolling),
        };
        *total += self.pruning.kept;
        stats.nodes_explored += self.nodes;
        let level = stats.level_mut(stage);
        counter(level).merge(&self.pruning);
        level.ordering_no_reuse += self.no_reuse;
        level.ordering_dominated += self.dominated;
        level.constraint.merge(&self.constraint);
    }
}

/// One enumeration's answer as its memo files it: what it kept — shared,
/// so that a lookup hands out a clone of `kept`, for an `Arc` a count
/// bump — and its [`Record`].
#[derive(Debug, Clone)]
pub(crate) struct Answer<T> {
    pub(crate) kept: T,
    pub(crate) record: Record,
}

/// The memo of one enumeration: its answers by key.
#[derive(Debug)]
pub(crate) struct Memo<K, T> {
    answers: FxHashMap<K, Answer<T>>,
}

impl<K, T> Default for Memo<K, T> {
    fn default() -> Self {
        Memo { answers: FxHashMap::default() }
    }
}

impl<K: Hash + Eq, T: Clone> Memo<K, T> {
    /// The one lookup of an enumeration: what it keeps for `key`, from
    /// memory, or — on a miss, or on every ask when `hits` is off — from
    /// `enumerate`, whose answer is then filed (its probes counted and its
    /// run timed). Either way the ask is counted as a hit or a miss and
    /// the answer's record replayed at `stage`, so a hit reports what the
    /// enumeration did.
    pub(crate) fn ask(
        &mut self,
        key: K,
        hits: bool,
        stage: usize,
        stats: &mut SearchStats,
        enumerate: impl FnOnce(&K) -> Answer<T>,
    ) -> T {
        let (answer, hit) = match self.answers.get(&key) {
            Some(known) if hits => (known.clone(), true),
            _ => {
                let clock = Instant::now();
                let answer = enumerate(&key);
                let level = stats.level_mut(stage);
                *match answer.record.of {
                    Enumeration::Orderings => &mut level.expand_orderings,
                    Enumeration::Tiles => &mut level.expand_tiles,
                    Enumeration::Unrollings => &mut level.expand_unrolls,
                } += clock.elapsed();
                stats.capacity_probes += answer.record.probes;
                self.answers.insert(key, answer.clone());
                (answer, false)
            }
        };
        let asks = match answer.record.of {
            Enumeration::Orderings => None,
            Enumeration::Tiles => Some((&mut stats.tile_memo_hits, &mut stats.tile_memo_misses)),
            Enumeration::Unrollings => {
                Some((&mut stats.unroll_memo_hits, &mut stats.unroll_memo_misses))
            }
        };
        if let Some((hits, misses)) = asks {
            *if hit { hits } else { misses } += 1;
        }
        answer.record.replay(stage, stats);
        answer.kept
    }
}

/// The tile question of one expansion run, asked once per run after the
/// user's tile pins are seeded: within one search this covers every input
/// of the tile enumeration (the ladders, pruning flags, caps, and the
/// capacity plan of `mem_pos` are all functions of the context).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) struct TileKey {
    pub(crate) mem_pos: usize,
    pub(crate) base: DimVec,
    pub(crate) quotas: DimVec,
    pub(crate) reserve: u64,
    pub(crate) allowed: DimSet,
    pub(crate) unrollable: DimSet,
}

/// The unroll question of one beam parent, asked once per parent after
/// the user's unroll pins are seeded: the fabric at `pos`, the quotas
/// left for it, the dimensions the Spatial Unrolling Principle lets it
/// unroll and the wider set the high-throughput fallback may turn to,
/// and `combined`, the resident tile with the pinned factors folded in —
/// the exact tile the capacity probe inflates — so the key covers the
/// whole fits closure.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) struct UnrollKey {
    pub(crate) pos: usize,
    pub(crate) quotas: DimVec,
    pub(crate) principled: DimSet,
    pub(crate) relaxed: DimSet,
    pub(crate) combined: DimVec,
}

/// What one search remembers while it runs: the ordering, tile and
/// unrolling enumerations it has run. Owned by the search and dropped with
/// it — a repeated call is answered from the session's result memo, above
/// the search, so nothing here needs to outlive it — and touched only on
/// the thread that runs the search (expansion happens there; pool workers
/// only price), so there is no lock.
///
/// Beam parents share their in-play set and reach the same (base, quota)
/// frontier again and again, so the enumeration memos hit. Estimates are
/// not kept across rounds: a round finds its own repeats
/// ([`estimate_all`]), and what a later round could find of an earlier
/// one's prices is a fraction of a percent of its candidates once the
/// outermost memory's stage, which re-priced its parents, is skipped
/// ([`SearchContext::stages`](super::SearchContext::stages)).
#[derive(Debug, Default)]
pub(crate) struct SearchMemo {
    /// Per stage and in-play set, the run of the stage arena's ordering
    /// pool the enumeration appended. It indexes the arena of its stage,
    /// which is the only stage that asks its key.
    pub(crate) orderings: Memo<(usize, DimSet), RangeInclusive<u32>>,
    /// Per [`TileKey`], per kept tile its growth over the key's base and
    /// the quotas it leaves (`2 × ndims` words a tile; the tile itself is
    /// the base times the growth).
    pub(crate) tiles: Memo<TileKey, Arc<[u64]>>,
    /// Per [`UnrollKey`], the kept unrolls (`ndims` words each).
    pub(crate) unrolls: Memo<UnrollKey, Arc<[u64]>>,
    /// Makes every enumeration lookup miss, so that each enumeration runs
    /// again: what tests hold the filed answers and replayed counters to.
    #[cfg(test)]
    pub(crate) miss_all: bool,
    /// When set, per stage expanded, how many of its candidates' rows
    /// repeat an earlier row's words: what tests hold the arena's
    /// distinctness to.
    /// Each stage's run table is then also held to its rows
    /// (`Candidates::assert_runs_describe_rows`).
    #[cfg(test)]
    pub(crate) repeated_rows: Option<Vec<usize>>,
}

impl SearchMemo {
    /// Whether an enumeration lookup may answer from memory.
    pub(crate) fn hits(&self) -> bool {
        #[cfg(test)]
        if self.miss_all {
            return false;
        }
        true
    }
}

thread_local! {
    /// Per-worker evaluation state, reused across rounds and calls (the
    /// pool threads are session-lived, so the buffers stay warm): the
    /// count kernel's tables, and the one row a claim writes its misses
    /// into ([`ClaimRow`]).
    static SCRATCH: RefCell<(BatchEvalScratch, Vec<u64>)> = RefCell::default();
}

/// One miss of an estimate round: the candidate, and the run it belongs
/// to, which its row is written from.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Miss {
    pub(crate) child: u32,
    pub(crate) run: u32,
}

/// A run of a claim's misses as the count kernel reads them, one at a
/// time, each as its row in one buffer: written whole
/// ([`Candidates::write_row`]) where its run is not the last miss's,
/// else only its tile ([`Candidates::retile`]), all that a run's children
/// differ in. A nest holds the buffer, so reading two at once panics.
pub(crate) struct ClaimRow<'a> {
    pub(crate) layout: &'a RowLayout,
    pub(crate) candidates: &'a Candidates,
    pub(crate) parents: &'a Beam,
    pub(crate) misses: &'a [Miss],
    /// The row, and the run it was last written whole from.
    pub(crate) row: RefCell<(Vec<u64>, Option<u32>)>,
}

impl NestSource for ClaimRow<'_> {
    type Nest<'a>
        = RowNest<'a, Ref<'a, [u64]>>
    where
        Self: 'a;

    fn count(&self) -> usize {
        self.misses.len()
    }

    fn nest(&self, i: usize) -> Self::Nest<'_> {
        let Miss { child, run } = self.misses[i];
        {
            let (row, written) = &mut *self.row.borrow_mut();
            if *written == Some(run) {
                self.candidates.retile(run as usize, child as usize, row);
            } else {
                row.clear();
                self.candidates.write_row(self.parents, child as usize, row);
                *written = Some(run);
            }
        }
        RowNest { layout: self.layout, row: Ref::map(self.row.borrow(), |(row, _)| &row[..]) }
    }
}

/// A candidate or beam row as the count kernel reads it: its mapping,
/// never built. `R` holds the row: a borrow, or a claim's buffer.
pub(crate) struct RowNest<'a, R = &'a [u64]> {
    pub(crate) layout: &'a RowLayout,
    pub(crate) row: R,
}

impl<R: Deref<Target = [u64]>> Nest for RowNest<'_, R> {
    fn factors(&self, pos: usize) -> &[u64] {
        &self.row[self.layout.factors(pos)]
    }

    fn order(&self, pos: usize) -> impl DoubleEndedIterator<Item = usize> + '_ {
        self.row[self.layout.order(pos)].iter().map(|&d| d as usize)
    }
}

/// Indices per pool claim in the estimate round. One atomic claim covers
/// a contiguous range of misses, and every maximal same-prefix run inside
/// the range is priced by one call of the model's count kernel, which
/// reads the run's rows — the chunk bounds the batch width, and
/// with it how long a claim holds the round, while still amortizing the
/// claim, the dispatch and the call's hoisted pair tails. Kept small
/// enough that modest rounds (a few hundred misses) still split into more
/// claims than the pool has claimants.
const ESTIMATE_CHUNK: usize = 16;

/// Misses in an estimate round's first wave. Each wave is one pool round
/// of twice the misses of the one before, and the bound's threshold is
/// taken between waves, on the calling thread: the waves start small so
/// that the threshold tightens early, and grow so that a large round
/// costs few pool rounds. Their bounds depend only on the round's size,
/// so which candidates are cut does not depend on the thread count.
const FIRST_WAVE: usize = 64;

/// What became of one miss of an estimate round.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Priced {
    /// Not reached: the round stopped first.
    Unpriced,
    /// Cut by the bound: it cannot enter the beam.
    Bounded,
    /// The objective's value of its totals.
    Exact(f64),
}

impl Priced {
    /// How the estimate column holds the two outcomes without a price
    /// while the round runs: two signalling NaNs. Arithmetic only ever
    /// produces quiet NaNs, so no price reads as either.
    const UNPRICED: u64 = 0x7ff0_0000_0000_0001;
    const BOUNDED: u64 = 0x7ff0_0000_0000_0002;

    /// The outcome as the miss's entry of the estimate column holds it
    /// until the round settles it.
    fn to_column(self) -> f64 {
        match self {
            Priced::Unpriced => f64::from_bits(Self::UNPRICED),
            Priced::Bounded => f64::from_bits(Self::BOUNDED),
            Priced::Exact(estimate) => estimate,
        }
    }

    /// The outcome a miss's entry of the estimate column holds.
    fn of_column(entry: f64) -> Priced {
        match entry.to_bits() {
            Self::UNPRICED => Priced::Unpriced,
            Self::BOUNDED => Priced::Bounded,
            _ => Priced::Exact(entry),
        }
    }

    /// The candidate's estimate for the beam: its price, or `+∞` for a
    /// candidate that is never selected.
    fn or_infinity(self) -> f64 {
        match self {
            Priced::Exact(estimate) => estimate,
            Priced::Bounded | Priced::Unpriced => f64::INFINITY,
        }
    }
}

/// The round's own index of its nests: per nest, the place in `misses` of
/// its first candidate, which is priced. A slot is a `u32`; the nest hash
/// it stands for is read through the arena's `nest` column, not kept
/// again. Open addressing with linear probing over twice as many slots as
/// the round has candidates, so it never grows; it is dropped once the
/// round's repeats are found.
struct Repeats {
    slots: Vec<u32>,
}

impl Repeats {
    const EMPTY: u32 = u32::MAX;

    /// An index with room for `nests` nests.
    fn with_room(nests: usize) -> Self {
        Repeats { slots: vec![Self::EMPTY; 2 * nests.max(1)] }
    }

    /// The place of the first miss whose nest hash is `hash`, where
    /// `nest_of` reads a place's hash; when there is none, `place` is
    /// filed as that first one.
    fn first_or_file(
        &mut self,
        hash: u128,
        place: u32,
        nest_of: impl Fn(u32) -> u128,
    ) -> Option<u32> {
        let n = self.slots.len();
        // The hash is uniformly mixed: its high half, scaled to the
        // slots, is the home slot.
        let mut at = ((((hash >> 64) as u64 as u128) * n as u128) >> 64) as usize;
        loop {
            match self.slots[at] {
                Self::EMPTY => {
                    self.slots[at] = place;
                    return None;
                }
                first if nest_of(first) == hash => return Some(first),
                _ => at = if at + 1 == n { 0 } else { at + 1 },
            }
        }
    }
}

/// The `width` smallest exact estimates a round knows so far — what its
/// waves priced, each counted once per candidate that carries it — kept
/// to answer one question: the `width`-th smallest. A miss whose lower
/// bound exceeds it has at least `width` candidates strictly ahead of it,
/// so the beam ([`select`](super::beam::select), `width` candidates by
/// estimate) never takes it.
struct BeamCut {
    width: usize,
    /// Ascending in [`f64::total_cmp`], as the beam ranks; at most `width`.
    kept: Vec<f64>,
}

impl BeamCut {
    fn new(width: usize) -> Self {
        BeamCut { width, kept: Vec::with_capacity(width + 1) }
    }

    /// One more candidate whose estimate is `estimate`.
    fn offer(&mut self, estimate: f64) {
        let at = self.kept.partition_point(|k| k.total_cmp(&estimate).is_le());
        if at < self.width {
            self.kept.insert(at, estimate);
            self.kept.truncate(self.width);
        }
    }

    /// The `width`-th smallest estimate known; `+∞` — nothing is past it —
    /// until `width` are known.
    fn threshold(&self) -> f64 {
        if self.kept.len() == self.width {
            self.kept[self.width - 1]
        } else {
            f64::INFINITY
        }
    }
}

/// Estimates every candidate of the arena, filling its
/// `estimate` column. `parents` is the beam the arena was expanded from.
///
/// Every candidate is a miss of the round: nothing is kept from earlier
/// rounds. The round finds its own repeats in an index of its own
/// ([`Repeats`], two `u32` slots a candidate) by the nest hash expansion
/// filed per candidate ([`Candidates::nest`]): the
/// [`key_hash`](super::beam::key_hash) of its row's key with each temporal
/// level's order cut down to the dimensions that loop there
/// ([`RowLayout::nest_key`](super::RowLayout::nest_key)). Rows that
/// differ only in where a factor-1 dimension sits flatten to the same
/// loop nest — the model reads nothing else of an order — so the first of
/// each nest is priced and the rest copy its price (counted as hits). A
/// miss is two indices, the candidate's and its run's ([`Miss`]), and its
/// outcome is written straight into the arena's `estimate` column: nothing
/// else is allocated per candidate. The rows of a stage are distinct by
/// construction, so a miss that copies another's price is a different row
/// with the same loop nest; debug builds assert both, so that a collision
/// of two nest keys under one hash panics instead of silently sharing a
/// price. The priced misses go through the model distributed over the
/// session's persistent worker pool (no per-round thread spawns), and the
/// model reads each miss as its row, written into one buffer its worker
/// keeps ([`ClaimRow`]). No miss becomes a
/// [`Mapping`](sunstone_mapping::Mapping).
///
/// Stages past the first price each miss *prefix-incrementally*:
/// all candidates expanded from one beam state share the decided levels
/// `0..=mems[stage − 1]` with the parent's row — a miss's parent is its
/// run's ([`Candidates::runs`]) — so that prefix's per-level cost
/// contribution is built once per parent with a miss
/// ([`CostModel::prefix_of`], reading the parent's row in place) and each
/// candidate only derives the delta of its frontier and outermost
/// levels. The
/// composition is bit-identical to the whole-nest evaluation (see the
/// model's `batch` tests), so which prefix priced an entry never shows.
/// The first stage has no shared prefix and prices against the model's
/// empty prefix ([`CostModel::empty_prefix`]), which walks each
/// candidate's whole nest.
///
/// The misses are priced in *waves* — 64, 128, 256, … misses in
/// candidate order, each one pool round — and bound before they are
/// priced. Between waves the calling thread takes the threshold `T`: the
/// `beam_width`-th smallest exact estimate the round knows (what earlier
/// waves priced, once per candidate that carries it; [`BeamCut`]). In a wave the kernel first prices each candidate's
/// outermost storing pairs alone, a lower bound on its price
/// ([`CostModel::price_prefixed_batch_bounded`]); a candidate whose bound's
/// objective exceeds `T` has `beam_width` candidates strictly ahead of it
/// and can never be selected, so the rest of it is skipped: its estimate
/// is `+∞` and it counts in
/// `SearchStats::bounded` instead of `modeled`. The waves' bounds depend
/// only on the round's size and `T` only on earlier waves, so the same
/// candidates are cut at any thread count.
///
/// The pool claims contiguous *chunks* of a wave's misses
/// ([`ESTIMATE_CHUNK`] per atomic claim), and every maximal same-prefix run
/// inside a claim — the whole claim when the stage has no prefix — goes
/// through one call of the model's count kernel over the run's misses, which
/// hands back the two totals the objective is a function of rather than a
/// report. A run of one is a width-1 call of the same kernel.
/// `SearchStats::{batches, batched}` count the runs of two or more that
/// share a decided prefix, and the candidates in them priced to the end.
///
/// Results are written back by candidate index, so the outcome is
/// identical for any thread count. When the round ends, each miss's entry
/// is settled to its price or `+∞`, and each copy takes its first's.
///
/// Every pool claim asks the call's stop rule
/// ([`CallControls::stop`](super::CallControls::stop)) before it prices,
/// so a mid-round stop is observed within a bounded number of
/// evaluations: at most one in-flight claim per claimant finishes after
/// it. A stopped round leaves the skipped candidates at `f64::INFINITY`
/// and returns the stop; the caller discards the stage. Both stop
/// conditions only ever turn on, so a claim that saw a stop means the
/// round returns it.
///
/// The stage's [`LevelStats`](super::stats::LevelStats) gets the wall
/// time of the three parts after the search for repeats:
/// `estimate_prefix`, `estimate_price`, `estimate_publish`.
///
/// [`CostModel::prefix_of`]: sunstone_model::CostModel::prefix_of
/// [`CostModel::empty_prefix`]: sunstone_model::CostModel::empty_prefix
/// [`CostModel::price_prefixed_batch_bounded`]: sunstone_model::CostModel::price_prefixed_batch_bounded
pub(crate) fn estimate_all(
    ctx: &SearchContext<'_>,
    candidates: &mut Candidates,
    parents: &Beam,
    stage: usize,
    stats: &mut SearchStats,
) -> Option<SearchStop> {
    faultpoint!("estimate.round");
    stats.probed += candidates.len() as u64;
    // The round writes the estimate column while it reads the rest of the
    // arena: the count kernel reads the rows each claim writes, never this
    // column.
    let mut estimate = std::mem::take(&mut candidates.estimate);
    let arena = candidates;
    let candidates = &*arena;
    let layout = &ctx.layout;
    let objective = ctx.config.objective;
    // Candidate `i`'s row, and the words its nest hash was taken of: what
    // the debug-build checks compare.
    let row = |candidates: &Candidates, i: usize| {
        let mut row = Vec::new();
        candidates.write_row(parents, i, &mut row);
        row
    };
    let nest_key = |candidates: &Candidates, i: usize| {
        let mut key = Vec::new();
        layout.nest_key(&row(candidates, i), &mut key);
        key
    };
    let mut cut = BeamCut::new(ctx.config.beam_width.max(1));
    // The round's repeats: the first candidate of each nest is a miss,
    // priced; each later one becomes a copy — the candidate, and its
    // first's place in `misses` — which takes that price.
    let mut misses: Vec<Miss> = Vec::with_capacity(candidates.len());
    let mut copies: Vec<(u32, u32)> = Vec::new();
    let mut repeats = Repeats::with_room(candidates.len());
    for (run, r) in candidates.runs().iter().enumerate() {
        for child in r.start..r.end {
            let hash = candidates.nest[child as usize];
            let nest_of = |place: u32| candidates.nest[misses[place as usize].child as usize];
            match repeats.first_or_file(hash, misses.len() as u32, nest_of) {
                Some(first) => {
                    let (i, first_child) = (child as usize, misses[first as usize].child as usize);
                    if cfg!(debug_assertions) {
                        assert_ne!(
                            row(candidates, i),
                            row(candidates, first_child),
                            "a stage wrote one row twice"
                        );
                        assert_eq!(
                            nest_key(candidates, i),
                            nest_key(candidates, first_child),
                            "128-bit key hash collision"
                        );
                    }
                    copies.push((child, first));
                }
                None => misses.push(Miss { child, run: run as u32 }),
            }
        }
    }
    drop(repeats);

    // Prefix memoization: every candidate of one parent shares
    // the levels up to the previous stage's memory, and its remainder only
    // touches the outermost level — strictly above that boundary. Misses
    // preserve candidate order and a parent's runs are contiguous, so each
    // parent's misses are too; each miss names its run, and the run its
    // parent.
    let phase = Instant::now();
    let runs = candidates.runs();
    let boundary = (stage >= 1).then(|| ctx.mems[stage - 1]);
    // Per beam parent with a miss, its decided prefix; empty at the first
    // stage.
    let mut prefixes: Vec<Option<MappingPrefix>> = Vec::new();
    if let Some(b) = boundary {
        prefixes.resize_with(parents.len(), || None);
        for miss in &misses {
            faultpoint!("estimate.prefix");
            let parent = runs[miss.run as usize].parent as usize;
            if prefixes[parent].is_none() {
                let row = parents.row(parent);
                prefixes[parent] = Some(ctx.model.prefix_of(RowNest { layout, row }, b));
            }
        }
    }
    let prefix_time = phase.elapsed();
    // The beam parent whose prefix prices miss `k`: none at the first stage.
    let parent_of = |k: usize| boundary.map(|_| runs[misses[k].run as usize].parent);

    let phase = Instant::now();
    for miss in &misses {
        estimate[miss.child as usize] = Priced::Unpriced.to_column();
    }
    let exact = |estimate: &[f64], place: u32| match Priced::of_column(
        estimate[misses[place as usize].child as usize],
    ) {
        Priced::Exact(price) => Some(price),
        Priced::Bounded | Priced::Unpriced => None,
    };
    let round_batches = AtomicU64::new(0);
    let round_batched = AtomicU64::new(0);
    let (mut start, mut wave) = (0, FIRST_WAVE);
    while start < misses.len() {
        let end = (start + wave).min(misses.len());
        stats.rounds += 1;
        let model = &ctx.model;
        let threshold = cut.threshold();
        let writer = SliceWriter::new(&mut estimate);
        let (prefixes, misses) = (&prefixes, &misses);
        let (round_batches, round_batched) = (&round_batches, &round_batched);
        ctx.pool.run_chunked(end - start, ESTIMATE_CHUNK, &|range| {
            // A claim covers at most `ESTIMATE_CHUNK` evaluations; once a
            // stop is observed every remaining claim returns at once.
            if ctx.controls.stop().is_some() {
                return;
            }
            SCRATCH.with(|cell| {
                let (batch, buffer) = &mut *cell.borrow_mut();
                let last = start + range.end;
                let mut k = start + range.start;
                while k < last {
                    // Maximal same-prefix run inside this claim; with no
                    // prefix this stage, the whole claim.
                    let parent = parent_of(k);
                    let mut end = k + 1;
                    while end < last && parent_of(end) == parent {
                        end += 1;
                    }
                    let prefix = parent.map_or(model.empty_prefix(), |p| {
                        prefixes[p as usize].as_ref().expect("a prefix per parent with a miss")
                    });
                    let row = RefCell::new((std::mem::take(buffer), None));
                    let run =
                        ClaimRow { layout, candidates, parents, misses: &misses[k..end], row };
                    let mut full = 0;
                    let mut emit = |j: usize, totals: Option<CostTotals>| {
                        let priced = match totals {
                            Some(totals) => {
                                full += 1;
                                Priced::Exact(objective.of_totals(totals))
                            }
                            None => Priced::Bounded,
                        };
                        // SAFETY: claims are disjoint ranges of misses, the
                        // misses name distinct candidates, and every
                        // candidate is written by its miss's claimant only.
                        unsafe { writer.write(misses[k + j].child as usize, priced.to_column()) };
                    };
                    // Nothing is past an infinite threshold: no bound to take.
                    if threshold == f64::INFINITY {
                        model.price_prefixed_batch(prefix, &run, batch, |j, t| emit(j, Some(t)));
                    } else {
                        let past = |bound| objective.of_totals(bound) > threshold;
                        model.price_prefixed_batch_bounded(prefix, &run, batch, past, emit);
                    }
                    *buffer = run.row.into_inner().0;
                    if parent.is_some() && end - k >= 2 {
                        round_batches.fetch_add(1, Ordering::Relaxed);
                        round_batched.fetch_add(full, Ordering::Relaxed);
                    }
                    k = end;
                }
            });
        });
        if ctx.controls.stop().is_some() {
            break;
        }
        // Each price the wave found, once per candidate that carries it:
        // its miss and the copies of it.
        let wave_places = start as u32..end as u32;
        let copied = copies.iter().map(|&(_, first)| first).filter(|f| wave_places.contains(f));
        for place in wave_places.clone().chain(copied) {
            if let Some(price) = exact(&estimate, place) {
                cut.offer(price);
            }
        }
        (start, wave) = (end, 2 * wave);
    }
    let price_time = phase.elapsed();

    let phase = Instant::now();
    let miss_count = misses.len() as u64;
    let modeled = (0..misses.len() as u32).filter(|&p| exact(&estimate, p).is_some()).count();
    let mut bounded = 0u64;
    // Per beam parent, every priced miss but the first reused its prefix.
    let mut full = vec![0u64; prefixes.len()];
    // Settle every miss's entry. Bounded, or skipped by a mid-round stop:
    // never evaluated. A bounded nest cannot enter the beam (its bound
    // already exceeds `beam_width` known estimates); a stopped round's
    // stage is discarded by the caller. Either way the placeholder, `+∞`,
    // is never selected.
    for (k, miss) in misses.iter().enumerate() {
        let i = miss.child as usize;
        let priced = Priced::of_column(estimate[i]);
        estimate[i] = priced.or_infinity();
        match priced {
            Priced::Exact(_) => {
                faultpoint!("estimate.publish");
                if let Some(parent) = parent_of(k) {
                    full[parent as usize] += 1;
                }
            }
            Priced::Bounded => bounded += 1,
            Priced::Unpriced => {}
        }
    }
    for &(i, first) in &copies {
        estimate[i as usize] = estimate[misses[first as usize].child as usize];
    }
    arena.estimate = estimate;
    let hits = copies.len() as u64;
    stats.modeled += modeled as u64;
    stats.bounded += bounded;
    stats.batches += round_batches.into_inner();
    stats.batched += round_batched.into_inner();
    stats.prefix_hits += full.iter().map(|n| n.saturating_sub(1)).sum::<u64>();

    let level = stats.level_mut(stage);
    level.cache_hits += hits;
    level.cache_misses += miss_count;
    level.bounded += bounded;
    level.estimate_prefix += prefix_time;
    level.estimate_price += price_time;
    level.estimate_publish += phase.elapsed();
    stats.cache_hits += hits;
    stats.cache_misses += miss_count;
    ctx.controls.stop()
}

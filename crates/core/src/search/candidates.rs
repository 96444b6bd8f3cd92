//! Per-level candidate enumeration: the orderings × tiles × unrollings
//! each stage admits, under the paper's pruning principles, filed as the
//! children of runs in the stage's [`Candidates`] arena.
//!
//! The unit of expansion is the [`Run`]: the children of one beam parent
//! that share an unroll and an ordering of the next memory and differ in
//! their tile. A run asks one tile question — a [`TileKey`], looked up in
//! the search's memo — and is filed in the arena's run table; a child is
//! its run plus one tile delta. A child's row is written from the table
//! only where it is read ([`Candidates::write_row`], the one writer): for
//! the count kernel, and for the beam cut's survivors.
//!
//! The three enumerations — the ordering trie (Ordering Principles 1–3 +
//! sibling dominance), the spatial unrolling enumeration (Spatial
//! Unrolling Principle) and the tiling tree (Tiling Principle) — are
//! asked one way: a key, one memo lookup, the enumeration on a miss, and
//! on every ask the replay of what it counted into the stage's
//! [`LevelStats`] record, a considered/kept counter each.
//!
//! [`LevelStats`]: super::stats::LevelStats

use std::ops::RangeInclusive;
use std::sync::Arc;

use sunstone_arch::LevelId;
use sunstone_ir::{DimId, DimSet, DimVec};
use sunstone_mapping::constraints::inner_groups;

use crate::factors::{divide, multiply};
use crate::ordering::OrderingCandidate;
use crate::tiling::enumerate_growths;
use crate::unrolling::{enumerate_unrollings_over, principle_excluded_dims};

use super::beam::{self, Beam};
use super::estimate::{Answer, Enumeration, Record, SearchMemo, TileKey, UnrollKey};
use super::stats::SearchStats;
use super::{RowLayout, SearchContext};

/// The [`Run::ordering`] of a run that chose no ordering: the outermost
/// memory has no level above to order.
const NO_ORDERING: u32 = u32::MAX;

/// One stage's candidates as columns over a run table.
///
/// A stage builds tens of thousands of candidates and the beam keeps a
/// few dozen, so what a candidate costs to *exist* is the search's unit
/// price. Here it is one entry in each of two columns — the hash of its
/// loop nest and its estimate — and a place in its [`Run`], which holds
/// what its children share: the parent, the unroll, the ordering, and the
/// tile deltas the memo filed. Its row is written from those four sources
/// only where it is read ([`write_row`](Self::write_row)). The arena is
/// reused across the stages of one search.
pub(crate) struct Candidates {
    layout: RowLayout,
    /// Where the stage's children differ from their parent.
    stage: Slots,
    /// The stage's runs, in arena order: their children tile the columns.
    runs: Vec<Run>,
    /// The unrolls the runs place below the stage's memory.
    unrolls: Vec<DimVec>,
    /// Per candidate, the objective estimate of its mapping (infinite
    /// until the estimate round fills it in).
    pub(crate) estimate: Vec<f64>,
    /// Per candidate, the 128-bit hash of its
    /// [`nest_key`](RowLayout::nest_key): what the estimate round finds
    /// its repeats by. Taken from the scratch row as each child is hashed
    /// ([`hash_children`](Self::hash_children)).
    pub(crate) nest: Vec<u128>,
    /// Scratch for the nest keys.
    key: Vec<u64>,
    /// Per entry of `orderings`, the dimension sets the pruning principles
    /// derive from it.
    ordering_dims: Vec<OrderingDims>,
    /// The stage's ordering candidates: one run per distinct in-play set.
    orderings: Vec<OrderingCandidate>,
    /// Per entry of `orderings`, its order as a row's order slots hold it
    /// (`ndims` words each).
    order_words: Vec<u64>,
    /// The one scratch row children are hashed in: the parent's, with the
    /// run's unroll and ordering placed, and each child's tile written
    /// over the last one's.
    template: Vec<u64>,
}

/// The architecture positions a stage decides, where its children differ
/// from their parent besides the remainder: the memory whose tile it
/// grows, the fabric in the gap below it whose unroll it places, if any,
/// and the memory above it whose loop order it picks (none at the
/// outermost memory).
#[derive(Debug, Clone, Copy, Default)]
struct Slots {
    mem: usize,
    fabric: Option<usize>,
    ordered: Option<usize>,
}

impl Slots {
    fn of(ctx: &SearchContext<'_>, stage: usize) -> Self {
        Slots {
            mem: ctx.mems[stage],
            fabric: ctx.lower_spatial[stage],
            ordered: ctx.mems.get(stage + 1).copied(),
        }
    }
}

/// A run of one parent's children that share an unroll and an ordering
/// and differ in their tile: the unit [`expand`] decides, and one entry of
/// the arena's run table. Its children are its deltas; hashing their nests
/// is one tight pass of slice writes into one scratch row
/// ([`Candidates::hash_children`], timed as `LevelStats::expand_rows`).
pub(crate) struct Run {
    /// The index of the beam state the run was expanded from. Candidates
    /// of one parent share every level decided before the current stage,
    /// which is what lets estimation memoize the decided-prefix cost once
    /// per parent; a parent's runs are contiguous.
    pub(crate) parent: u32,
    /// The index into [`Candidates::orderings`] of the ordering the run
    /// chose for the next memory ([`NO_ORDERING`] at the outermost stage).
    /// The survivors carry what it excludes into the next stage's
    /// unrolling principle.
    ordering: u32,
    /// The index into [`Candidates::unrolls`] of the run's unroll.
    unroll: u32,
    /// One child per `2 × ndims` words — a tile enumeration's, as the memo
    /// keeps them: the tile's growth at the stage's memory (the temporal
    /// factors there), then the remainder left above it.
    deltas: Arc<[u64]>,
    /// The run's first candidate in the arena.
    pub(crate) start: u32,
    /// One past the run's last candidate: the next run's start.
    pub(crate) end: u32,
}

impl Candidates {
    pub(crate) fn new(ctx: &SearchContext<'_>) -> Self {
        Candidates {
            layout: ctx.layout.clone(),
            stage: Slots::default(),
            runs: Vec::new(),
            unrolls: Vec::new(),
            estimate: Vec::new(),
            nest: Vec::new(),
            key: Vec::new(),
            ordering_dims: Vec::new(),
            orderings: Vec::new(),
            order_words: Vec::new(),
            template: Vec::new(),
        }
    }

    /// Empties the arena for stage `stage`. The two columns go — the next
    /// ones are sized from the stage's runs ([`hash_children`](Self::hash_children))
    /// — and the tables keep their capacity.
    pub(crate) fn start_stage(&mut self, ctx: &SearchContext<'_>, stage: usize) {
        self.stage = Slots::of(ctx, stage);
        self.runs.clear();
        self.unrolls.clear();
        (self.estimate, self.nest) = (Vec::new(), Vec::new());
        self.ordering_dims.clear();
        self.orderings.clear();
        self.order_words.clear();
    }

    /// The stage's candidates: its runs' children.
    pub(crate) fn len(&self) -> usize {
        self.runs.last().map_or(0, |r| r.end as usize)
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The stage's runs, in arena order.
    pub(crate) fn runs(&self) -> &[Run] {
        &self.runs
    }

    /// The index of the run candidate `i` belongs to.
    fn run_of(&self, i: usize) -> usize {
        self.runs.partition_point(|r| r.end as usize <= i)
    }

    /// Appends candidate `i`'s row to `out`: its parent's row in `parents`
    /// with its run's unroll and ordering placed ([`place_run`](Self::place_run)),
    /// and its own tile ([`retile`](Self::retile)). The one way a candidate
    /// becomes a row: for the count kernel ([`ClaimRow`]), the beam's
    /// survivors ([`select`](super::beam::select)) and the checks.
    ///
    /// [`ClaimRow`]: super::estimate::ClaimRow
    pub(crate) fn write_row(&self, parents: &Beam, i: usize, out: &mut Vec<u64>) {
        let run = self.run_of(i);
        let r = &self.runs[run];
        let start = out.len();
        out.extend_from_slice(parents.row(r.parent as usize));
        let row = &mut out[start..];
        self.place_run(&self.unrolls[r.unroll as usize], self.ordering_of(r), row);
        self.retile(run, i, row);
    }

    /// Writes the tile of candidate `i`, a child of run `run`, over `row`
    /// ([`place_tile`](Self::place_tile)): all a row of another child of
    /// the run differs in.
    pub(crate) fn retile(&self, run: usize, i: usize, row: &mut [u64]) {
        let (r, n) = (&self.runs[run], self.layout.ndims);
        let at = (i - r.start as usize) * 2 * n;
        let (growth, remaining) = r.deltas[at..at + 2 * n].split_at(n);
        self.place_tile(growth, remaining, row);
    }

    /// Hashes the children of every run of the stage, expanded from
    /// `parents`, into the `nest` column, and fills `estimate` with `+∞`:
    /// both are sized from the runs, once, and the run and unroll tables
    /// are trimmed to their length, so that nothing the estimate round
    /// reads sits at twice its length. No child is written out: one
    /// scratch row — its parent's, with each run's unroll and ordering
    /// placed ([`place_run`](Self::place_run)) — takes the run's nest key
    /// once; then per child its tile is written over the last one's
    /// ([`place_tile`](Self::place_tile)), the key brought up to date where
    /// the child differs ([`RowLayout::renest`]) and hashed, while the row
    /// is in cache.
    pub(crate) fn hash_children(&mut self, parents: &Beam) {
        let (mut row, mut key) =
            (std::mem::take(&mut self.template), std::mem::take(&mut self.key));
        let (layout, n) = (&self.layout, self.layout.ndims);
        debug_assert_eq!(self.order_words.len(), self.orderings.len() * n);
        self.runs.shrink_to_fit();
        self.unrolls.shrink_to_fit();
        self.estimate = vec![f64::INFINITY; self.len()];
        self.nest = Vec::with_capacity(self.len());
        let mut parent = None;
        for run in &self.runs {
            if parent != Some(run.parent) {
                parent = Some(run.parent);
                row.clear();
                row.extend_from_slice(parents.row(run.parent as usize));
            }
            self.place_run(&self.unrolls[run.unroll as usize], self.ordering_of(run), &mut row);
            layout.nest_key(&row, &mut key);
            for delta in run.deltas.chunks_exact(2 * n) {
                let (growth, remaining) = delta.split_at(n);
                self.place_tile(growth, remaining, &mut row);
                layout.renest(&row, self.stage.mem, &mut key);
                let nest = beam::key_hash(&key);
                if cfg!(debug_assertions) {
                    let mut fresh = Vec::new();
                    layout.nest_key(&row, &mut fresh);
                    assert_eq!(nest, beam::key_hash(&fresh), "a renested key went stale");
                }
                self.nest.push(nest);
            }
            debug_assert_eq!(self.nest.len(), run.end as usize);
        }
        (self.template, self.key) = (row, key);
    }

    /// The memory whose loop order run `r`'s ordering picks, and its order
    /// words; `None` and empty when the run picks none.
    fn ordering_of(&self, r: &Run) -> (Option<usize>, &[u64]) {
        let n = self.layout.ndims;
        match r.ordering {
            NO_ORDERING => (None, &[]),
            o => (self.stage.ordered, &self.order_words[o as usize * n..(o as usize + 1) * n]),
        }
    }

    /// Writes a run's unroll to the factor slots of the fabric in the gap
    /// below the stage's memory, if the gap has one (otherwise the unroll
    /// is all ones), and its ordering's order words to the order slots of
    /// the memory it orders, if it picks one ([`ordering_of`](Self::ordering_of)).
    fn place_run(
        &self,
        unroll: &[u64],
        (ordered, order): (Option<usize>, &[u64]),
        row: &mut [u64],
    ) {
        if let Some(pos) = self.stage.fabric {
            row[self.layout.factors(pos)].copy_from_slice(unroll);
        }
        if let Some(pos) = ordered {
            row[self.layout.order(pos)].copy_from_slice(order);
        }
    }

    /// Writes a child's tile to `row`: its `growth` as the temporal factors
    /// of the stage's memory, then what it leaves, `remaining`, as the
    /// outermost memory's. At the outermost memory's own stage the growth
    /// is all ones ([`expand`]), so its factors are the remainder.
    fn place_tile(&self, growth: &[u64], remaining: &[u64], row: &mut [u64]) {
        debug_assert!(
            self.stage.mem != self.layout.complete_at || growth.iter().all(|&g| g == 1),
            "a growth at the outermost memory"
        );
        row[self.layout.factors(self.stage.mem)].copy_from_slice(growth);
        row[self.layout.remainder()].copy_from_slice(remaining);
    }

    /// The dimensions the ordering candidate `i` chose for the next memory
    /// excludes from that memory's fabric (none when it chose none).
    pub(crate) fn unroll_excluded_of(&self, i: usize) -> DimSet {
        self.ordering_dims
            .get(self.runs[self.run_of(i)].ordering as usize)
            .map_or(DimSet::EMPTY, |o| o.unroll_excluded)
    }

    /// Writes the order words and dimension sets of `orderings[first..]`.
    fn index_orderings(&mut self, ctx: &SearchContext<'_>, first: usize) {
        for o in &self.orderings[first..] {
            self.order_words.extend(o.order.iter().map(|d| d.index() as u64));
            self.ordering_dims.push(OrderingDims {
                tile_allowed: tile_allowed_dims(ctx, o),
                unroll_excluded: unroll_excluded(ctx, o),
            });
        }
    }

    /// Bytes the arena holds on the heap, the run table's deltas aside
    /// (the memo owns them): what a stage's candidates cost to exist.
    #[cfg(test)]
    pub(crate) fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        self.runs.capacity() * size_of::<Run>()
            + self.unrolls.capacity() * size_of::<DimVec>()
            + self.estimate.capacity() * size_of::<f64>()
            + self.nest.capacity() * size_of::<u128>()
            + (self.key.capacity() + self.order_words.capacity() + self.template.capacity())
                * size_of::<u64>()
            + self.ordering_dims.capacity() * size_of::<OrderingDims>()
            + self.orderings.capacity() * size_of::<OrderingCandidate>()
    }

    /// How many of the stage's rows, expanded from `parents`, repeat an
    /// earlier row.
    #[cfg(test)]
    pub(crate) fn repeated_rows(&self, parents: &Beam) -> usize {
        let mut seen = std::collections::HashSet::new();
        (0..self.len())
            .filter(|&i| {
                let mut row = Vec::new();
                self.write_row(parents, i, &mut row);
                !seen.insert(row)
            })
            .count()
    }

    /// Asserts that the run table describes the arena of stage `stage`,
    /// expanded from `parents`: the runs tile the arena in order, one
    /// candidate per delta; every row [`write_row`](Self::write_row)
    /// materializes holds its parent's words outside the slots the stage
    /// decides, and there the run's unroll, the run ordering's order words
    /// and its own delta — its growth at the stage's memory, all ones at
    /// the outermost, and its remainder there; and what a row's ordering
    /// excludes from unrolling is what its run's ordering implies.
    #[cfg(test)]
    pub(crate) fn assert_runs_describe_rows(
        &self,
        ctx: &SearchContext<'_>,
        stage: usize,
        parents: &Beam,
    ) {
        let (layout, n) = (&ctx.layout, ctx.workload.num_dims());
        let last_stage = stage == ctx.mems.len() - 1;
        let (mem, fabric) = (ctx.mems[stage], ctx.lower_spatial[stage]);
        let mut decided = vec![false; layout.stride()];
        decided[layout.factors(mem)].fill(true);
        decided[layout.remainder()].fill(true);
        if let Some(pos) = fabric {
            decided[layout.factors(pos)].fill(true);
        }
        if !last_stage {
            decided[layout.order(ctx.mems[stage + 1])].fill(true);
        }
        let (mut start, mut row) = (0, Vec::new());
        for run in &self.runs {
            let end = run.end as usize;
            assert_eq!(start, run.start as usize, "stage {stage}: runs out of order");
            assert_eq!(end - start, run.deltas.len() / (2 * n), "stage {stage}: one per delta");
            let parent = parents.row(run.parent as usize);
            let unroll = &self.unrolls[run.unroll as usize];
            let ordering = self.orderings.get(run.ordering as usize);
            assert_eq!(ordering.is_none(), last_stage, "stage {stage}: only the last orders none");
            let excluded = ordering.map_or(DimSet::EMPTY, |o| unroll_excluded(ctx, o));
            for (i, delta) in (start..end).zip(run.deltas.chunks_exact(2 * n)) {
                row.clear();
                self.write_row(parents, i, &mut row);
                for (w, (got, had)) in row.iter().zip(parent).enumerate() {
                    assert!(
                        decided[w] || got == had,
                        "stage {stage} row {i}: word {w} not decided"
                    );
                }
                match fabric {
                    Some(pos) => assert_eq!(row[layout.factors(pos)], unroll[..]),
                    None => assert!(unroll.iter().all(|&u| u == 1)),
                }
                if let Some(o) = ordering {
                    let words: Vec<u64> = o.order.iter().map(|d| d.index() as u64).collect();
                    assert_eq!(row[layout.order(ctx.mems[stage + 1])], words[..]);
                }
                let (growth, remaining) = delta.split_at(n);
                assert_eq!(&row[layout.remainder()], remaining, "stage {stage} row {i}");
                if last_stage {
                    assert_eq!(growth, &DimVec::ones(n)[..], "stage {stage} row {i}");
                } else {
                    assert_eq!(&row[layout.factors(mem)], growth, "stage {stage} row {i}");
                }
                assert_eq!(self.unroll_excluded_of(i), excluded, "stage {stage} row {i}");
            }
            start = end;
        }
        assert_eq!(start, self.len(), "stage {stage}: the runs cover the arena");
    }
}

/// What the pruning principles derive from one ordering, taken once per
/// ordering instead of per tile enumeration.
#[derive(Debug, Clone, Copy)]
struct OrderingDims {
    /// The dimensions a tile may grow in under it ([`tile_allowed_dims`]).
    tile_allowed: DimSet,
    /// The dimensions a fabric paired with it may not unroll
    /// ([`unroll_excluded`]).
    unroll_excluded: DimSet,
}

/// One stage for beam state `parent` of `parents`, in the paper's
/// unroll → tile → order: the unrollings below memory `stage` first (the
/// fabric claims its quota), then per unroll and per ordering of memory
/// `stage + 1` — per [`Run`] — the tiles at memory `stage`, grown in what
/// remains. The parent's runs are decided into the arena's run table;
/// their children are hashed once the stage's every run is decided
/// ([`Candidates::hash_children`]).
///
/// Each of the three enumerations is asked one way: its key is built once
/// (the user's pins seeded, [`Pins`]), looked up in its memo
/// ([`Memo::ask`](super::estimate::Memo::ask)), enumerated only on a
/// miss, and its answer's counters replayed on every ask
/// ([`Record::replay`](super::estimate::Record::replay)).
pub(crate) fn expand(
    ctx: &SearchContext<'_>,
    parents: &Beam,
    parent: usize,
    stage: usize,
    out: &mut Candidates,
    memo: &mut SearchMemo,
    stats: &mut SearchStats,
) {
    let (row, here) = (parents.row(parent), parents.unroll_excluded[parent]);
    let mem_pos = ctx.mems[stage];
    let last_stage = stage == ctx.mems.len() - 1;
    let base = ctx.layout.tile_below(row, mem_pos);
    let quotas = &row[ctx.layout.remainder()];
    let hits = memo.hits();

    let orderings = if last_stage {
        // The outermost memory has no level above to order.
        NO_ORDERING..=NO_ORDERING
    } else {
        let in_play = in_play_dims(ctx, quotas);
        memo.orderings.ask((stage, in_play), hits, stage, stats, |_| {
            enumerate_orderings(ctx, out, in_play, stage)
        })
    };

    let ndims = base.len();
    let unrolls = match ctx.lower_spatial[stage] {
        // No fabric in the gap: the one unroll is all ones.
        None => Arc::from(&DimVec::ones(ndims)[..]),
        Some(pos) => match unroll_key(ctx, pos, here, stage, &base, quotas, stats) {
            Some((key, pins)) => pins.place(
                memo.unrolls.ask(key, hits, stage, stats, |key| enumerate_unrolls(ctx, stage, key)),
                ndims,
            ),
            None => Arc::from([]),
        },
    };
    let mut end = out.len() as u32;
    let reserve = spatial_reserve(ctx, stage, quotas);
    for u in unrolls.chunks_exact(ndims) {
        debug_assert!(
            ctx.lower_spatial[stage].is_none_or(|pos| {
                let fabric = ctx.arch.level(LevelId(pos)).as_spatial().expect("spatial level");
                u.iter().product::<u64>() <= fabric.units
            }),
            "an unroll larger than its fabric"
        );
        let u_quotas = divide(quotas, u);
        let base_u = multiply(&base, u);
        let unroll = out.unrolls.len() as u32;
        out.unrolls.push(DimVec::from_slice(u));
        for ordering in orderings.clone() {
            let dims = (out.ordering_dims.get(ordering as usize), here);
            let deltas = if last_stage {
                // DRAM: the "tile" is the base itself, and what is left
                // stays the remainder ([`Candidates::place_tile`]).
                [&DimVec::ones(ndims)[..], &u_quotas[..]].concat().into()
            } else {
                let mut tiles = |held| match tile_key(
                    ctx,
                    stage,
                    &base_u,
                    &u_quotas,
                    (reserve, held),
                    dims,
                    stats,
                ) {
                    Some((key, pins)) => pins.place(
                        memo.tiles.ask(key, hits, stage, stats, |key| enumerate_tiles(ctx, key)),
                        2 * ndims,
                    ),
                    None => Arc::from([]),
                };
                // A run whose every tile takes a factor the fabrics above
                // are pinned to would dead-end there: it asks again with
                // those pins held back.
                let deltas = tiles(None);
                match &ctx.pinned_above[stage] {
                    Some(held) if !deltas.is_empty() && !leaves_any(&deltas, held) => {
                        tiles(Some(held))
                    }
                    _ => deltas,
                }
            };
            let start = end;
            end += (deltas.len() / (2 * ndims)) as u32;
            out.runs.push(Run { parent: parent as u32, ordering, unroll, deltas, start, end });
        }
    }
}

/// Whether any tile of an answer leaves `held` in its remainder (the
/// second half of each tile's words).
fn leaves_any(deltas: &[u64], held: &DimVec) -> bool {
    deltas
        .chunks_exact(2 * held.len())
        .any(|tile| tile[held.len()..].iter().zip(held.iter()).all(|(q, h)| q.is_multiple_of(*h)))
}

/// Dimensions with remaining quota — the only ones worth ordering.
fn in_play_dims(ctx: &SearchContext<'_>, quotas: &[u64]) -> DimSet {
    ctx.workload.dim_ids().filter(|d| quotas[d.index()] > 1).collect()
}

/// A level's user pins, seeded into an enumeration's key: per dimension
/// the factor the pins fix over the caller's base (1 where none), and the
/// pinned dimensions, which leave the enumeration. Tile and unroll pins
/// follow this one rule: seeded into the key ([`seed`](Self::seed)), and
/// re-applied to the answer, which the memo files past the pins
/// ([`place`](Self::place)).
struct Pins {
    factors: DimVec,
    dims: DimSet,
    /// A tile question's held-back quota ([`Pins::hold_back`]), which
    /// every answer's remainder gets back.
    held: Option<DimVec>,
}

impl Pins {
    /// Seeds `pins` — per pinned dimension its extent over `base` — into
    /// `quotas`: each pinned dimension takes the factor extent ÷ base,
    /// which leaves its quota. `None`, counted in the constraint filter of
    /// `stage`, when the parent cannot reach a pin (its base is already
    /// past it, or the quota is not divisible): other beam parents may
    /// still satisfy it.
    fn seed(
        pins: &[(usize, u64)],
        base: &[u64],
        quotas: &mut DimVec,
        stage: usize,
        stats: &mut SearchStats,
    ) -> Option<Pins> {
        let mut seeded =
            Pins { factors: DimVec::ones(base.len()), dims: DimSet::EMPTY, held: None };
        for &(d, v) in pins {
            if !v.is_multiple_of(base[d]) || !quotas[d].is_multiple_of(v / base[d]) {
                stats.level_mut(stage).constraint.record(1, 0);
                return None;
            }
            quotas[d] /= v / base[d];
            seeded.factors[d] = v / base[d];
            seeded.dims = seeded.dims.with(DimId::from_index(d));
        }
        Some(seeded)
    }

    /// Holds `held` — the unroll pins of the fabrics above `stage`'s
    /// memory ([`SearchContext::pinned_above`]) — back from a tile
    /// question's `quotas`, so that no tile takes them, and remembers it
    /// for [`place`](Self::place). `None`, counted in the constraint filter
    /// of `stage`, when the quota no longer holds them: the parent cannot
    /// reach those pins.
    fn hold_back(
        &mut self,
        held: &DimVec,
        quotas: &mut DimVec,
        stage: usize,
        stats: &mut SearchStats,
    ) -> Option<()> {
        if quotas.iter().zip(held.iter()).any(|(q, h)| !q.is_multiple_of(*h)) {
            stats.level_mut(stage).constraint.record(1, 0);
            return None;
        }
        for (q, h) in quotas.iter_mut().zip(held.iter()) {
            *q /= h;
        }
        self.held = Some(held.clone());
        Some(())
    }

    /// An answer with the pinned factors placed: each of its factor
    /// vectors — the first `ndims` words of every `stride` — takes them
    /// (the enumeration left each pinned dimension at 1), and each
    /// remainder after them gets the held-back quota back.
    fn place(&self, kept: Arc<[u64]>, stride: usize) -> Arc<[u64]> {
        if self.dims.is_empty() && self.held.is_none() {
            return kept;
        }
        let mut kept = kept.to_vec();
        for words in kept.chunks_exact_mut(stride) {
            let (factors, rest) = words.split_at_mut(self.factors.len());
            for (f, &pin) in factors.iter_mut().zip(&self.factors) {
                *f *= pin;
            }
            for (q, &held) in rest.iter_mut().zip(self.held.iter().flatten()) {
                *q *= held;
            }
        }
        kept.into()
    }
}

/// The `cap` largest of `found` by volume, equals in enumeration order:
/// the maximal-frontier members with the biggest iteration volume capture
/// the most reuse.
fn keep_largest(mut found: Vec<DimVec>, cap: usize) -> Vec<DimVec> {
    if found.len() > cap {
        found.sort_by_key(|v| std::cmp::Reverse(v.volume()));
        found.truncate(cap);
    }
    found
}

/// The ordering enumeration of one stage for `in_play`: appends the
/// stage's ordering candidates to `out.orderings` — the trie's pruning
/// attributed per principle — and answers with their run. A user order
/// constraint on the level being ordered (memory `stage + 1`) filters the
/// enumeration here — before estimation and beam selection — and always
/// re-adds the constraint's canonical completion so a satisfiable
/// constraint can never strand the stage without candidates.
fn enumerate_orderings(
    ctx: &SearchContext<'_>,
    out: &mut Candidates,
    in_play: DimSet,
    stage: usize,
) -> Answer<RangeInclusive<u32>> {
    let (mut cands, mut record) = if ctx.config.pruning.ordering_trie {
        let outcome = ctx.trie.candidates_detailed(in_play);
        let kept = outcome.candidates.len();
        let mut record = Record::new(Enumeration::Orderings, outcome.explored, kept, 0);
        record.no_reuse = outcome.rejected_no_reuse as u64;
        record.dominated = outcome.dominated as u64;
        (outcome.candidates, record)
    } else {
        let cands = ctx.trie.all_permutations(in_play);
        let mut record = Record::new(Enumeration::Orderings, 0, cands.len(), 0);
        record.pruning.considered = cands.len() as u64;
        (cands, record)
    };
    if let Some((groups, exact)) = &ctx.constraints.at(ctx.mems[stage + 1]).order {
        let considered = cands.len() as u64 + 1;
        if *exact {
            // An exact constraint admits one order per in-play set: the
            // forced completion below.
            cands.clear();
        } else {
            // Judged over the dimensions still in play: the rest carry
            // factor 1 here, so where they sit is moot.
            cands.retain(|c| inner_groups(&c.order, groups, in_play).is_ok());
        }
        let forced = ctx.trie.forced_prefix(groups, in_play);
        if !cands.iter().any(|c| c.order == forced.order) {
            cands.push(forced);
        }
        record.constraint.record(considered, cands.len() as u64);
    }
    let first = out.orderings.len();
    out.orderings.extend(cands);
    out.index_orderings(ctx, first);
    Answer { kept: first as u32..=out.orderings.len() as u32 - 1, record }
}

/// The parallelism budget a tile must leave unconsumed: the product of
/// the sizes of the fabrics above the stage's memory (scaled by the
/// utilization floor, capped by what the problem can offer). This is the
/// "high throughput" constraint of Table I: a tile that swallows the
/// quota the fabrics need would force an under-utilized — and therefore
/// dominated — mapping.
fn spatial_reserve(ctx: &SearchContext<'_>, stage: usize, quotas: &[u64]) -> u64 {
    let m = ctx.mems[stage];
    let units =
        product(ctx.arch.spatial_levels().filter(|(pos, _)| pos.index() > m).map(|(_, s)| s.units));
    let want = ((units as f64) * ctx.config.min_spatial_utilization).ceil() as u128;
    want.min(product(quotas.iter().copied())).max(1) as u64
}

/// The product of `factors`, saturating: exact whenever the true product
/// fits in a `u128`, and past that larger than any reserve it is held
/// against.
fn product(factors: impl Iterator<Item = u64>) -> u128 {
    factors.fold(1, |p, f| p.saturating_mul(u128::from(f)))
}

/// The tile question of one run: the key of its tile enumeration at the
/// stage's memory over `base` and `quotas` (the parent's, with the run's
/// unroll claimed), under the run's ordering's dimension sets and what
/// the ordering chosen at the previous stage excludes from unrolling
/// (`here`, the parent's `Beam::unroll_excluded`), with the user's tile
/// pins seeded. The parallelism reserve is measured over `unrollable` —
/// the dimensions the fabrics above may unroll under the Spatial
/// Unrolling Principle ([`SearchContext::unrollable_above`]) — so a tile
/// cannot swallow the quota the unrollings need. `held`, when given, is
/// the fabrics' pins above, held back from the quotas
/// ([`Pins::hold_back`]). `None` when a pin the parent cannot reach kills
/// the run. Never asked at the outermost memory, where the children place
/// the remainder.
fn tile_key(
    ctx: &SearchContext<'_>,
    stage: usize,
    base: &[u64],
    quotas: &[u64],
    (reserve, held): (u64, Option<&DimVec>),
    (ordering, here): (Option<&OrderingDims>, DimSet),
    stats: &mut SearchStats,
) -> Option<(TileKey, Pins)> {
    let mut allowed = ordering.map_or(DimSet::first_n(ctx.workload.num_dims()), |o| o.tile_allowed);
    // When this stage has a fabric in its own gap, that fabric pairs with
    // the ordering chosen at the *previous* stage (`here`); otherwise the
    // nearest future fabric pairs with the ordering being chosen now.
    let excluded = if ctx.lower_spatial[stage].is_none() {
        ordering.map_or(DimSet::EMPTY, |o| o.unroll_excluded)
    } else {
        here
    };
    let above = ctx.unrollable_above[stage];
    let mut unrollable = above.difference(excluded);
    // Mirror the high-throughput fallback of `enumerate_unrolls`: when the
    // principled dimensions cannot reach the utilization floor, the
    // fabrics will unroll anything they may, so the reserve must guard it
    // all.
    if product(unrollable.iter().map(|d| quotas[d.index()])) < u128::from(reserve) {
        unrollable = above;
    }
    let mem_pos = ctx.mems[stage];
    let lc = ctx.constraints.at(mem_pos);
    // An exact order constraint fixes which loops run at the memory, not
    // only their order: only its groups' dimensions grow here.
    if let Some((groups, true)) = &lc.order {
        allowed = groups.iter().fold(DimSet::EMPTY, |g, &d| g.union(d)).intersection(allowed);
    }
    // User tile pins seed the enumeration base: the pinned extent becomes
    // the starting tile and the dimension leaves the growth set, so every
    // enumerated tile carries exactly the pinned factor.
    let mut quotas = DimVec::from_slice(quotas);
    let mut pins = Pins::seed(&lc.tile_pins, base, &mut quotas, stage, stats)?;
    let mut reserve = reserve;
    if let Some(held) = held {
        pins.hold_back(held, &mut quotas, stage, stats)?;
        // The held-back pins are parallelism the fabrics get anyway: the
        // tile owes them only the rest of the reserve.
        reserve = u128::from(reserve).div_ceil(product(held.iter().copied())) as u64;
    }
    let (base, allowed) = (multiply(base, &pins.factors), allowed.difference(pins.dims));
    Some((TileKey { mem_pos, base, quotas, reserve, allowed, unrollable }, pins))
}

/// The tile enumeration behind a [`TileKey`], past the pins: the kept
/// tiles as deltas over the key's base and quotas, capped to the
/// `max_tiles_per_enum` largest.
fn enumerate_tiles(ctx: &SearchContext<'_>, key: &TileKey) -> Answer<Arc<[u64]>> {
    let TileKey { mem_pos, ref base, ref quotas, reserve, allowed, unrollable } = *key;
    let lc = ctx.constraints.at(mem_pos);
    // What a tile must leave for the fabrics: the reserve, capped by what
    // the unrollable dimensions can offer at all.
    let offer = product(unrollable.iter().map(|d| quotas[d.index()]));
    let want = u128::from(reserve).min(offer);
    let found = enumerate_growths(
        &ctx.ladders.ladder_set(quotas),
        base,
        allowed,
        |growth, tile| {
            // The stop rule inside the enumeration tree: rejecting every
            // probe prunes the tree to nothing in O(depth) steps once the
            // call must stop (the composition loop then reports the stop
            // and discards the stage; the memo that now holds the
            // truncated result goes with the search).
            if ctx.controls.stop().is_some() {
                return false;
            }
            // What the tile leaves the unrollable dimensions is
            // offer ÷ their growth (each growth divides its quota), so it
            // meets `want` iff want × growth ≤ offer: no division.
            let grown = product(unrollable.iter().map(|d| growth[d.index()]));
            want.checked_mul(grown).is_some_and(|need| need <= offer)
                && lc.tile_caps.iter().all(|&(d, cap)| tile[d] <= cap)
                && ctx.validation.capacity().fits(mem_pos, tile)
        },
        ctx.config.pruning.tiling_maximal,
    );
    // A tile's volume is its growth's times the base's, so the growths
    // sort alike.
    let growths = keep_largest(found.tiles, ctx.config.max_tiles_per_enum);
    let mut deltas = Vec::with_capacity(2 * base.len() * growths.len());
    for growth in &growths {
        deltas.extend_from_slice(growth);
        deltas.extend(quotas.iter().zip(growth.iter()).map(|(q, g)| q / g));
    }
    let record = Record::new(Enumeration::Tiles, found.explored, growths.len(), found.probes);
    Answer { kept: deltas.into(), record }
}

/// Dimensions the Unrolling Principle forbids for fabrics paired with
/// this ordering.
fn unroll_excluded(ctx: &SearchContext<'_>, ordering: &OrderingCandidate) -> DimSet {
    if !ctx.config.pruning.unrolling_principle {
        return DimSet::EMPTY;
    }
    principle_excluded_dims(
        ordering.fully_reused().map(|t| ctx.workload.reuse_info().of(t).full_reuse),
    )
}

/// Growth dimensions permitted by the Tiling Principle for an ordering:
/// the indexing dimensions of every fully reused tensor (all dimensions
/// when the principle is disabled or nothing is reused).
fn tile_allowed_dims(ctx: &SearchContext<'_>, ordering: &OrderingCandidate) -> DimSet {
    let all = DimSet::first_n(ctx.workload.num_dims());
    if !ctx.config.pruning.tiling_reuse_dims {
        return all;
    }
    let mut allowed = DimSet::EMPTY;
    let mut any = false;
    for t in ordering.fully_reused() {
        allowed = allowed.union(ctx.workload.tensor(t).indexing_dims());
        any = true;
    }
    if any {
        allowed
    } else {
        all
    }
}

/// The unroll question of one parent for the fabric at `pos`, directly
/// below the stage's memory: the key of its unrolling enumeration over the
/// parent's `quotas` and `resident` tile, under what the parent's ordering
/// of this memory excludes from the fabric (`excluded`, from
/// [`unroll_excluded`]), with the user's unroll pins seeded. `None` when a
/// pin the remaining quota cannot honor (an inner level already consumed
/// part of the pinned factor) kills the expansion.
fn unroll_key(
    ctx: &SearchContext<'_>,
    pos: usize,
    excluded: DimSet,
    stage: usize,
    resident: &[u64],
    quotas: &[u64],
    stats: &mut SearchStats,
) -> Option<(UnrollKey, Pins)> {
    let ndims = ctx.workload.num_dims();
    // What the fabric may unroll, resolved once with the constraints, is
    // the relaxed (high-throughput fallback) set, and the principled set
    // within it; pinned dimensions are seeded — their factors leave the
    // enumeration entirely and the fabric's unit budget shrinks by the
    // pinned product.
    let lc = ctx.constraints.at(pos);
    let relaxed = lc.unroll_dims.difference(lc.unroll_pinned);
    if let Some(free) = lc.unroll_free {
        // Attribute the allow-list/pin restriction: dimension slots the
        // fabric would have unrolled freely vs. what the constraint leaves
        // open (pinned dims count as removed — they are fixed, not
        // searched).
        stats.level_mut(stage).constraint.record(free.len() as u64, relaxed.len() as u64);
    }
    let mut quotas = DimVec::from_slice(quotas);
    let pins = Pins::seed(&lc.unroll_pins, &DimVec::ones(ndims), &mut quotas, stage, stats)?;
    let (principled, combined) = (relaxed.difference(excluded), multiply(resident, &pins.factors));
    Some((UnrollKey { pos, quotas, principled, relaxed, combined }, pins))
}

/// The unrolling enumeration behind an [`UnrollKey`], past the pins: the
/// principled pass, the high-throughput fallback when that cannot keep the
/// fabric busy, and the `max_unrolls_per_enum` largest of what they found,
/// each once.
fn enumerate_unrolls(ctx: &SearchContext<'_>, stage: usize, key: &UnrollKey) -> Answer<Arc<[u64]>> {
    let UnrollKey { pos, ref quotas, principled, relaxed, ref combined } = *key;
    let fabric = ctx.arch.level(LevelId(pos)).as_spatial().expect("spatial level");
    let pinned = ctx.constraints.at(pos).unroll_pin_product;
    let units = fabric.units / pinned;
    let ladders = ctx.ladders.ladder_set(quotas);
    let (min, maximal) =
        (ctx.config.min_spatial_utilization, ctx.config.pruning.unrolling_principle);
    let fits = |u: &[u64]| {
        // The stop rule (see `enumerate_tiles`).
        ctx.controls.stop().is_none()
            && ctx.validation.capacity().fits(ctx.mems[stage], &multiply(combined, u))
    };
    let mut found = enumerate_unrollings_over(&ladders, principled, units, fits, min, maximal);
    // The high-throughput constraint dominates the Unrolling Principle:
    // when the principled dimensions cannot keep the fabric busy, widen to
    // every dimension the hardware permits. Utilization is judged over the
    // full fabric, pins included.
    let floor = min * fabric.units as f64;
    let best = found
        .unrollings
        .iter()
        .map(|u| (u.iter().product::<u64>().saturating_mul(pinned)) as f64)
        .fold(0.0f64, f64::max);
    if best < floor && principled != relaxed {
        let wide = enumerate_unrollings_over(&ladders, relaxed, units, fits, min, maximal);
        found.explored += wide.explored;
        found.probes += wide.probes;
        found.unrollings.extend(wide.unrollings);
    }
    // The relaxed pass finds again what the principled pass kept; the
    // first of each stays, so the stage writes every child once.
    let mut kept: Vec<DimVec> = Vec::new();
    for u in keep_largest(found.unrollings, ctx.config.max_unrolls_per_enum) {
        if !kept.contains(&u) {
            kept.push(u);
        }
    }
    let record = Record::new(Enumeration::Unrollings, found.explored, kept.len(), found.probes);
    Answer { kept: kept.concat().into(), record }
}

#[cfg(test)]
mod tests {
    use std::cell::RefCell;
    use std::time::Duration;

    use sunstone_arch::presets;
    use sunstone_mapping::{DataflowTemplate, Mapping, MappingConstraints};
    use sunstone_model::MappingPrefix;

    use super::super::beam::{self, Beam};
    use super::super::compose::run_level_search;
    use super::super::estimate::{self, RowNest};
    use super::super::stats::{LevelStats, PruneCounter};
    use super::super::testing::{
        conv2d, conv2d_batch, matmul, random_state, with_constraints, with_context,
    };
    use super::*;
    use crate::SunstoneConfig;

    /// Appends a run of children of beam state `parent` to the arena as
    /// expansion does: the run places `unroll` and the order of
    /// `ordering`, and has one child per `2 × ndims` words of `deltas`.
    /// [`Candidates::hash_children`] hashes them once every run is in.
    fn push_run(
        ctx: &SearchContext<'_>,
        cands: &mut Candidates,
        parent: usize,
        ordering: u32,
        unroll: &[u64],
        deltas: Vec<u64>,
    ) {
        let start = cands.len() as u32;
        let end = start + (deltas.len() / (2 * ctx.workload.num_dims())) as u32;
        cands.unrolls.push(DimVec::from_slice(unroll));
        let unroll = cands.unrolls.len() as u32 - 1;
        cands.runs.push(Run {
            parent: parent as u32,
            ordering,
            unroll,
            deltas: deltas.into(),
            start,
            end,
        });
    }

    /// A first-stage arena of children of the root state, one run of one
    /// child per entry of `children`, with the beam of parents it was
    /// expanded from: child `i` belongs to parent `i`, a copy of the root,
    /// takes the ordering `children[i].1` of the stage's (or none) and
    /// differs from its parent in one key word, `children[i].0`, the first
    /// factor of the innermost memory.
    fn arena(ctx: &SearchContext<'_>, children: &[(u64, u32)]) -> (Candidates, Beam) {
        let root = Beam::root(ctx).row(0).to_vec();
        let parents = Beam::of_rows(ctx, &vec![root.clone(); children.len()]);
        let mut cands = Candidates::new(ctx);
        cands.start_stage(ctx, 0);
        enumerate_orderings(ctx, &mut cands, DimSet::first_n(ctx.workload.num_dims()), 0);
        let sizes = ctx.workload.dim_sizes();
        let ones = DimVec::ones(sizes.len());
        for (i, &(tag, ordering)) in children.iter().enumerate() {
            let mut growth = ones.clone();
            growth[0] = tag;
            let deltas = [&growth[..], &sizes[..]].concat();
            push_run(ctx, &mut cands, i, ordering, &ones, deltas);
        }
        cands.hash_children(&parents);
        (cands, parents)
    }

    /// A stage's worth of random rows, written the way expansion writes
    /// them: a few parents drawn from three random states (so parents
    /// repeat), each with runs of children that place a small factor at
    /// the stage's memory — at the outermost memory's stage, which grows
    /// nothing, a small factor on the remainder — the parent's own unroll
    /// (cut to what the fabric holds) and one of six orderings — three
    /// random ones and each with two dimensions swapped, which often
    /// differ only where a factor is 1 — or none. Every row's estimate is
    /// its index. Returns the arena and the beam of its parents.
    fn random_arena(ctx: &SearchContext<'_>, stage: usize, seed: u64) -> (Candidates, Beam) {
        let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let (layout, ndims) = (&ctx.layout, ctx.workload.num_dims());
        let mut cands = Candidates::new(ctx);
        cands.start_stage(ctx, stage);
        for _ in 0..3 {
            let mut order: Vec<DimId> = (0..ndims).map(DimId::from_index).collect();
            for i in (1..ndims).rev() {
                order.swap(i, (next() % (i as u64 + 1)) as usize);
            }
            let mut swapped = order.clone();
            swapped.swap((next() % ndims as u64) as usize, (next() % ndims as u64) as usize);
            for order in [order, swapped] {
                cands.orderings.push(OrderingCandidate {
                    order,
                    suffix_len: 0,
                    reused: Vec::new(),
                });
            }
        }
        cands.index_orderings(ctx, 0);
        let mem = ctx.mems[stage];
        let mut parents = Vec::new();
        for parent in 0..1 + next() % 5 {
            let mut m = random_state(ctx, next() % 3);
            // The unroll every run places is the parent's own, cut to what
            // the fabric holds; what the cut leaves goes to the remainder.
            let unroll = match ctx.lower_spatial[stage] {
                Some(pos) => {
                    let fabric = ctx.arch.level(LevelId(pos)).as_spatial().expect("spatial level");
                    let mut units = fabric.units;
                    let mut cut = DimVec::ones(ndims);
                    let placed = m.levels_mut()[pos].factors_mut();
                    for (f, c) in placed.iter_mut().zip(cut.iter_mut()) {
                        if *f <= units {
                            units /= *f;
                        } else {
                            *c = std::mem::replace(f, 1);
                        }
                    }
                    let unroll = DimVec::from_slice(placed);
                    let rest = m.levels_mut()[layout.complete_at].factors_mut();
                    rest.iter_mut().zip(cut.iter()).for_each(|(r, c)| *r *= c);
                    unroll
                }
                None => DimVec::ones(ndims),
            };
            let mut row = Vec::new();
            layout.write_row(&m, &mut row);
            for _ in 0..next() % 4 {
                let ordering = match next() % 7 {
                    6 => NO_ORDERING,
                    o => o as u32,
                };
                let mut deltas = Vec::new();
                for _ in 0..next() % 12 {
                    let (d, f) = ((next() % ndims as u64) as usize, 1 + next() % 3);
                    let mut growth = row[layout.factors(mem)].to_vec();
                    let mut remaining = row[layout.remainder()].to_vec();
                    if mem == layout.complete_at {
                        growth.fill(1);
                        remaining[d] *= f;
                    } else {
                        growth[d] = f;
                    }
                    deltas.extend(growth);
                    deltas.extend(remaining);
                }
                push_run(ctx, &mut cands, parent as usize, ordering, &unroll, deltas);
            }
            parents.push(row);
        }
        let parents = Beam::of_rows(ctx, &parents);
        cands.hash_children(&parents);
        for (i, e) in cands.estimate.iter_mut().enumerate() {
            *e = i as f64;
        }
        (cands, parents)
    }

    /// The count kernel prices a stage's candidates, read as an estimate
    /// round's claims read them ([`estimate::ClaimRow`]: one row, written
    /// whole or retiled per miss), exactly as it prices the mappings their
    /// rows are: on random arenas of every stage
    /// on three presets, each candidate's totals at widths 1, 2 and 16 —
    /// against the empty prefix, and at every boundary below the stage's
    /// memory against its parent's prefix, built both from the parent's
    /// row read in place and from the family's first child materialized —
    /// equal `evaluate_unchecked` of the mapping of the row `write_row`
    /// materializes, bit for bit.
    #[test]
    fn rows_price_as_their_completed_mappings() {
        let mut priced = 0usize;
        for arch in [presets::simba_like(), presets::conventional(), presets::diannao_like()] {
            for w in [conv2d(16, 24, 14), matmul(64, 48, 96)] {
                with_context(&w, &arch, &SunstoneConfig::default(), |ctx| {
                    let (model, layout) = (&ctx.model, &ctx.layout);
                    let mut scratch = model.batch_scratch();
                    for stage in 0..ctx.mems.len() {
                        for seed in 0..3 {
                            let (cands, parents) = random_arena(ctx, stage, seed);
                            let rows: Vec<estimate::Miss> = (0..cands.len())
                                .map(|i| estimate::Miss {
                                    child: i as u32,
                                    run: cands.run_of(i) as u32,
                                })
                                .collect();
                            let completed: Vec<Mapping> = (0..cands.len())
                                .map(|i| {
                                    let (mut m, mut row) = (ctx.base.clone(), Vec::new());
                                    cands.write_row(&parents, i, &mut row);
                                    layout.materialize_into(&row, &mut m);
                                    m
                                })
                                .collect();
                            let alone: Vec<_> =
                                completed.iter().map(|m| model.evaluate_unchecked(m)).collect();
                            // Runs of `width` rows from `rows`, all sharing
                            // `prefix`, priced from the arena.
                            let mut price = |prefix: &MappingPrefix, rows: &[estimate::Miss]| {
                                for width in [1, 2, 16] {
                                    for run in rows.chunks(width) {
                                        let source = estimate::ClaimRow {
                                            layout,
                                            candidates: &cands,
                                            parents: &parents,
                                            misses: run,
                                            row: RefCell::new((Vec::new(), None)),
                                        };
                                        let mut seen = 0;
                                        model.price_prefixed_batch(
                                            prefix,
                                            &source,
                                            &mut scratch,
                                            |j, got| {
                                                let want = &alone[run[j].child as usize];
                                                let case = format!(
                                                    "{} stage {stage} seed {seed} row {} width \
                                                     {width} prefix {:?}",
                                                    arch.name(),
                                                    run[j].child,
                                                    prefix.boundary()
                                                );
                                                assert_eq!(
                                                    got.energy_pj.to_bits(),
                                                    want.energy_pj.to_bits(),
                                                    "{case}"
                                                );
                                                assert_eq!(
                                                    got.delay_cycles.to_bits(),
                                                    want.delay_cycles.to_bits(),
                                                    "{case}"
                                                );
                                                seen += 1;
                                            },
                                        );
                                        assert_eq!(seen, run.len());
                                        priced += run.len();
                                    }
                                }
                            };
                            // The empty prefix prices any rows together.
                            price(model.empty_prefix(), &rows);
                            // A parent's children share every level below
                            // the stage's memory with it.
                            let parent = |m: &estimate::Miss| cands.runs[m.run as usize].parent;
                            for family in rows.chunk_by(|a, b| parent(a) == parent(b)) {
                                let first = &completed[family[0].child as usize];
                                let row = parents.row(parent(&family[0]) as usize);
                                for boundary in 0..ctx.mems[stage] {
                                    price(
                                        &model.prefix_of(RowNest { layout, row }, boundary),
                                        family,
                                    );
                                    price(&model.prefix_of(first, boundary), family);
                                }
                            }
                        }
                    }
                });
            }
        }
        assert!(priced > 0, "no row was priced");
    }

    /// A stage's candidates are columns over a run table, not rows: after
    /// expanding stage 1 of ResNet-18's `conv2_x` on `simba_like` — ten
    /// thousand candidates from a beam of 48 — the arena holds less than a
    /// quarter of one row's bytes per candidate, its runs, orderings and
    /// unrolls included; the rows it does not hold are still there to be
    /// written, one per candidate, by `write_row`.
    #[test]
    fn the_arena_holds_no_row_per_candidate() {
        let (w, arch) = (conv2d_batch(16, 64, 64, 56), presets::simba_like());
        with_context(&w, &arch, &SunstoneConfig::default(), |ctx| {
            let (mut memo, mut stats) = (SearchMemo::default(), SearchStats::default());
            let mut cands = Candidates::new(ctx);
            let mut parents = Beam::root(ctx);
            for stage in 0..2 {
                if stage > 0 {
                    let round =
                        estimate::estimate_all(ctx, &mut cands, &parents, stage - 1, &mut stats);
                    assert!(round.is_none());
                    parents = beam::select(ctx, &cands, &parents, stage - 1, &mut stats);
                }
                cands.start_stage(ctx, stage);
                for parent in 0..parents.len() {
                    expand(ctx, &parents, parent, stage, &mut cands, &mut memo, &mut stats);
                }
                cands.hash_children(&parents);
            }
            let row_bytes = ctx.layout.stride() * std::mem::size_of::<u64>();
            let held = cands.heap_bytes();
            assert!(cands.len() > 1_000, "{} candidates", cands.len());
            assert!(
                4 * held < cands.len() * row_bytes,
                "{held} B for {} candidates of {row_bytes} B rows",
                cands.len()
            );
            let mut row = Vec::new();
            cands.write_row(&parents, cands.len() - 1, &mut row);
            assert_eq!(row.len(), ctx.layout.stride());
        });
    }

    /// A search's statistics with what an enumeration memo hit saves — the
    /// capacity probes — the memos' hit and miss counts and every timer
    /// struck out.
    fn replayed(mut stats: SearchStats) -> SearchStats {
        (stats.capacity_probes, stats.tile_memo_hits, stats.tile_memo_misses) = (0, 0, 0);
        (stats.unroll_memo_hits, stats.unroll_memo_misses) = (0, 0);
        stats.elapsed = Duration::ZERO;
        stats.rank = Duration::ZERO;
        for l in &mut stats.levels {
            for timer in [
                &mut l.expand,
                &mut l.expand_tiles,
                &mut l.expand_unrolls,
                &mut l.expand_orderings,
                &mut l.expand_rows,
                &mut l.estimate,
                &mut l.estimate_prefix,
                &mut l.estimate_price,
                &mut l.estimate_publish,
                &mut l.select,
            ] {
                *timer = Duration::ZERO;
            }
        }
        stats
    }

    /// The enumeration memos' filed answers and replayed counters are what
    /// the enumerations did: with every lookup forced to miss — ordering,
    /// unroll and tile — the search ends on the same beam with the same
    /// counters, on `simba_like`, where the unroll memo hits, and on
    /// `conventional`, where it never does. Every counter the replay writes
    /// is live (a replay that dropped one would read 0 on both sides). Run
    /// with the default caps and with caps small enough to bind on every
    /// enumeration kind, so an answer filed past its cap would show.
    #[test]
    fn tile_memo_hits_replay_what_the_enumeration_did() {
        let w = conv2d(16, 16, 14);
        let capped =
            SunstoneConfig { max_tiles_per_enum: 4, max_unrolls_per_enum: 2, ..Default::default() };
        for config in [SunstoneConfig::default(), capped] {
            for (arch, unroll_hits) in
                [(presets::simba_like(), true), (presets::conventional(), false)]
            {
                with_context(&w, &arch, &config, |ctx| {
                    let search = |miss_all| {
                        let mut memo = SearchMemo { miss_all, ..SearchMemo::default() };
                        let mut stats = SearchStats::default();
                        let run = run_level_search(ctx, &mut memo, &mut stats);
                        (run.beam, stats)
                    };
                    let (beam, stats) = search(false);
                    let (missed_beam, missed) = search(true);
                    let case = format!("{} with caps {}", arch.name(), config.max_tiles_per_enum);
                    assert!(beam == missed_beam, "{case}: the beams differ");
                    assert_eq!((missed.tile_memo_hits, missed.unroll_memo_hits), (0, 0), "{case}");
                    assert!(stats.tile_memo_hits > 0, "{case}: the tile memo answered nothing");
                    assert_eq!(stats.unroll_memo_hits > 0, unroll_hits, "{case}");
                    assert!(missed.capacity_probes > stats.capacity_probes, "{case}");
                    let sum = |f: fn(&LevelStats) -> u64| stats.levels.iter().map(f).sum::<u64>();
                    let live = [
                        stats.nodes_explored,
                        stats.orderings,
                        stats.tiles,
                        stats.unrollings,
                        sum(|l| l.ordering.considered),
                        sum(|l| l.tiling.considered),
                        sum(|l| l.unrolling.considered),
                        sum(|l| l.ordering_no_reuse),
                        sum(|l| l.ordering_dominated),
                    ];
                    assert!(live.iter().all(|&n| n > 0), "{case}: a counter is dead: {live:?}");
                    assert_eq!(replayed(stats), replayed(missed), "{case}");
                });
            }
        }
    }

    /// No stage writes a row twice, on real searches: on every preset,
    /// with the default pruning and with each principle off, free and
    /// under each dataflow template, no stage's arena holds two rows with
    /// equal words. The shapes are a matmul and ResNet-18's `conv5_x`,
    /// whose search on `simba_like` meets the high-throughput fallback
    /// finding the principled unrolls again; with the ordering trie off
    /// only the matmul runs (`conv5_x` would order 5 040 permutations of
    /// its seven dimensions a stage, seconds of a debug build per search).
    #[test]
    fn stage_rows_are_distinct_by_construction() {
        let workloads = [matmul(64, 48, 96), conv2d_batch(16, 512, 512, 7)];
        let configs: Vec<SunstoneConfig> = (0..5)
            .map(|off| {
                let mut config = SunstoneConfig::default();
                let flags = &mut config.pruning;
                match off {
                    1 => flags.ordering_trie = false,
                    2 => flags.tiling_maximal = false,
                    3 => flags.unrolling_principle = false,
                    4 => flags.tiling_reuse_dims = false,
                    _ => {}
                }
                config
            })
            .collect();
        let (mut searches, mut stages) = (0, 0);
        for arch in [
            presets::conventional(),
            presets::eyeriss_like(),
            presets::simba_like(),
            presets::diannao_like(),
        ] {
            let templates = [
                DataflowTemplate::WeightStationaryCK,
                DataflowTemplate::OutputStationary,
                DataflowTemplate::RowStationary,
                DataflowTemplate::NvdlaLike,
            ];
            let constraints: Vec<MappingConstraints> = std::iter::once(MappingConstraints::new())
                .chain(templates.iter().map(|t| t.constraints(&arch)))
                .collect();
            for w in &workloads {
                for constraints in &constraints {
                    for config in &configs {
                        if !config.pruning.ordering_trie && w.num_dims() > 3 {
                            continue;
                        }
                        with_constraints(w, &arch, config, constraints, |ctx| {
                            let mut memo = SearchMemo {
                                repeated_rows: Some(Vec::new()),
                                ..SearchMemo::default()
                            };
                            let mut stats = SearchStats::default();
                            run_level_search(ctx, &mut memo, &mut stats);
                            let repeats = memo.repeated_rows.expect("recorded");
                            assert!(
                                repeats.iter().all(|&r| r == 0),
                                "{} {:?} {:?}: repeated rows per stage {repeats:?}",
                                arch.name(),
                                w.dim_sizes(),
                                config.pruning
                            );
                            searches += 1;
                            stages += repeats.len();
                        });
                    }
                }
            }
        }
        assert!(searches >= 100 && stages > searches, "{searches} searches, {stages} stages");
    }

    /// A pinned case of the high-throughput fallback finding again what
    /// the principled pass kept: `conv5_x` on `simba_like` at stage 1,
    /// under a parent whose ordering excludes `K` from the fabric. The
    /// principled pass cannot fill the fabric, the relaxed pass returns
    /// the principled unrolls among its own, and the unrolling enumeration
    /// — and the memo answering its repeat — lists each once.
    #[test]
    fn the_relaxed_fallback_lists_each_unroll_once() {
        let w = conv2d_batch(16, 512, 512, 7);
        let arch = presets::simba_like();
        with_context(&w, &arch, &SunstoneConfig::default(), |ctx| {
            let stage = 1;
            let excluded = DimSet::EMPTY.with(w.dim_by_name("K").expect("K"));
            let base = [16, 1, 8, 7, 7, 1, 1];
            let quotas = [1, 512, 64, 1, 1, 3, 3];
            let pos = ctx.lower_spatial[stage].expect("a fabric below the stage's memory");
            let fabric = arch.level(LevelId(pos)).as_spatial().expect("spatial level");
            let relaxed = ctx.constraints.at(pos).unroll_dims;
            let pass = |allowed| {
                let fits = |u: &[u64]| {
                    ctx.validation.capacity().fits(ctx.mems[stage], &multiply(&base, u))
                };
                let min = ctx.config.min_spatial_utilization;
                crate::unrolling::enumerate_unrollings(
                    &quotas,
                    allowed,
                    fabric.units,
                    fits,
                    min,
                    true,
                )
                .unrollings
            };
            let (narrow, wide) = (pass(relaxed.difference(excluded)), pass(relaxed));
            let busiest = narrow.iter().map(|u| u.iter().product::<u64>()).max().expect("some");
            let floor = ctx.config.min_spatial_utilization * fabric.units as f64;
            assert!((busiest as f64) < floor, "the fallback does not fire");
            assert!(!narrow.is_empty() && narrow.iter().all(|u| wide.contains(u)));
            let mut want = narrow.clone();
            want.extend(wide.iter().filter(|u| !narrow.contains(u)).cloned());
            let want: Vec<u64> = want.concat();
            let (mut memo, mut stats) = (SearchMemo::default(), SearchStats::default());
            let mut ask = |stats: &mut SearchStats| {
                let (key, _) = unroll_key(ctx, pos, excluded, stage, &base, &quotas, stats)
                    .expect("no pins to miss");
                memo.unrolls.ask(key, true, stage, stats, |key| enumerate_unrolls(ctx, stage, key))
            };
            assert_eq!(ask(&mut stats)[..], want[..]);
            let kept = (want.len() / w.num_dims()) as u64;
            assert_eq!(stats.unrollings, kept);
            assert_eq!(stats.levels[stage].unrolling.kept, kept);
            assert_eq!((ask(&mut stats)[..] == want[..], stats.unroll_memo_hits), (true, 1));
        });
    }

    /// A round finds its own repeats: of three first-stage children, two
    /// take one tile under two orderings of a memory where nothing loops
    /// yet, so they flatten to one nest. The first is priced and the
    /// second copies its price, counted as a hit.
    #[test]
    fn an_in_round_repeat_copies_its_first_price() {
        let (w, arch) = (conv2d(16, 16, 14), presets::simba_like());
        with_context(&w, &arch, &SunstoneConfig::default(), |ctx| {
            let (mut cands, parents) = arena(ctx, &[(2, 0), (2, 1), (4, 0)]);
            let row = |i| {
                let mut row = Vec::new();
                cands.write_row(&parents, i, &mut row);
                row
            };
            assert_ne!(row(0), row(1), "two rows");
            assert_eq!(cands.nest[0], cands.nest[1], "one nest");
            assert_ne!(cands.nest[0], cands.nest[2]);
            let mut stats = SearchStats::default();
            let round = estimate::estimate_all(ctx, &mut cands, &parents, 0, &mut stats);
            assert!(round.is_none());
            assert!(cands.estimate[0].is_finite() && cands.estimate[2].is_finite());
            assert_eq!(cands.estimate[1].to_bits(), cands.estimate[0].to_bits());
            let level = &stats.levels[0];
            assert_eq!((level.cache_hits, level.cache_misses, level.bounded), (1, 2, 0));
            let counts = (stats.probed, stats.modeled, stats.bounded, stats.rounds);
            assert_eq!(counts, (3, 2, 0, 1));
            assert_eq!((stats.cache_hits, stats.cache_misses, stats.prefix_hits), (1, 2, 0));
        });
    }

    /// The round's collision guard is real: two different rows given one
    /// nest hash — which `key_hash` cannot be made to produce, so the hash
    /// is forced into the arena's column — panic when the second copies
    /// the first's price.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "128-bit key hash collision")]
    fn a_forced_collision_panics_in_the_round() {
        let (w, arch) = (conv2d(16, 16, 14), presets::simba_like());
        with_context(&w, &arch, &SunstoneConfig::default(), |ctx| {
            let (mut cands, parents) = arena(ctx, &[(2, 0), (4, 0)]);
            cands.nest[1] = cands.nest[0];
            let mut stats = SearchStats::default();
            estimate::estimate_all(ctx, &mut cands, &parents, 0, &mut stats);
        });
    }

    #[test]
    fn select_breaks_estimate_ties_by_enumeration_order() {
        let (w, arch) = (conv2d(16, 16, 14), presets::simba_like());
        let config = SunstoneConfig { beam_width: 4, ..SunstoneConfig::default() };
        with_context(&w, &arch, &config, |ctx| {
            let layout = &ctx.layout;
            // Two of the first stage's orderings that exclude different
            // dimensions from the next fabric, for survivors that chose one.
            let (probe, _) = arena(ctx, &[]);
            let excluding = |not: DimSet| {
                (0..probe.orderings.len()).find(|&o| {
                    let excluded = probe.ordering_dims[o].unroll_excluded;
                    !excluded.is_empty() && excluded != not
                })
            };
            let x = excluding(DimSet::EMPTY).expect("an ordering that excludes");
            let x_excluded = probe.ordering_dims[x].unroll_excluded;
            let y = excluding(x_excluded).expect("another exclusion");
            let (x, y) = (x as u32, y as u32);
            let orderings = [NO_ORDERING, x, NO_ORDERING, y, x, NO_ORDERING];
            let tags = [10, 11, 12, 13, 14, 15];
            let children: Vec<(u64, u32)> = tags.into_iter().zip(orderings).collect();
            let (mut cands, parents) = arena(ctx, &children);
            cands.estimate.copy_from_slice(&[2.0, 1.0, 2.0, 1.0, 0.5, 2.0]);
            let mut stats = SearchStats::default();
            let beam = beam::select(ctx, &cands, &parents, 0, &mut stats);
            let first = layout.factors(ctx.mems[0]).start;
            let kept: Vec<u64> = (0..beam.len()).map(|i| beam.row(i)[first]).collect();
            assert_eq!(kept, [14, 11, 13, 10], "best first; equal estimates in arena order");
            assert_eq!(stats.levels[0].beam, PruneCounter { considered: 6, kept: 4 });
            // Each survivor carries what its run's ordering excludes
            // (nothing when it chose none).
            let y_excluded = probe.ordering_dims[y as usize].unroll_excluded;
            assert_eq!(beam.unroll_excluded, [x_excluded, x_excluded, y_excluded, DimSet::EMPTY]);
            for i in 0..beam.len() {
                assert_eq!(&beam.row(i)[layout.remainder()], &w.dim_sizes()[..]);
            }
        });
    }
}

//! The staged search pipeline (Section III-C / V-A of the paper).
//!
//! The scheduler walks the memory hierarchy one level at a time; each
//! stage runs the same three-step pipeline over the surviving beam:
//!
//! 1. **expand** (`candidates`) — per partial mapping, enumerate the
//!    orderings × tiles × unrollings the pruning principles admit, as
//!    runs of children that share an unroll and an ordering (one tile
//!    enumeration each), then hash each child's loop nest in one scratch
//!    row, its tile written over the last child's; no child is written
//!    out. Each enumeration lists a choice once and a child places its
//!    choices over slots its parent left undecided, so a stage's
//!    candidates are distinct by construction: there is nothing to
//!    deduplicate,
//! 2. **estimate** (`estimate`) — evaluate the analytic model on each
//!    candidate's whole mapping (what no stage has placed yet sits at the
//!    outermost memory), once per loop nest of the round (the hash of
//!    `RowLayout::nest_key`: candidates that differ only where a factor is
//!    1 share one price) and parallelized over the configured worker
//!    threads,
//! 3. **select** (`beam`) — keep the best `beam_width` candidates (the
//!    alpha-beta-style cut).
//!
//! A stage builds tens of thousands of candidates and keeps
//! `beam_width` of them, so a candidate is not a [`Mapping`], nor even a
//! row: it is a (run, child) pair in the stage's `candidates::Candidates`
//! arena with a nest hash and an estimate. Its row — its mapping's key,
//! `u64` words laid out by `RowLayout` — is written from its parent's row,
//! its run and its tile delta only where it is read: for the count kernel,
//! and for the cut's survivors (`beam::Beam`), from whose rows the next
//! stage starts its children and prices their shared prefix. Only the
//! final ranking materializes mappings.
//!
//! The walk is bottom-up — innermost memory first, the paper's default —
//! one stage per memory, the outermost's only when a fabric sits directly
//! below it (`SearchContext::stages`), and within a stage the fabric's
//! unroll is chosen before the tile grows and the next memory's loop order
//! is picked (`compose::run_level_search`, `candidates::expand`). Table VI's other five orders are an experiment,
//! not a search of the library: `sunstone-bench`'s `table6` study.
//!
//! Every pruning decision is recorded in the structured [`SearchStats`]:
//! per level and per principle, how many candidates were considered and
//! how many survived.

pub mod stats;

pub(crate) mod beam;
pub(crate) mod candidates;
pub(crate) mod compose;
pub(crate) mod estimate;

use std::ops::Range;
use std::time::Instant;

use sunstone_arch::{ArchSpec, Binding, Level, LevelId};
use sunstone_ir::{DimId, DimSet, DimVec, Workload};
use sunstone_mapping::{
    Mapping, MappingConstraints, MappingLevel, ResolvedConstraints, ValidationContext,
};
use sunstone_model::CostModel;

use crate::factors::DivisorLadders;
use crate::ordering::OrderingTrie;
use crate::pool::WorkerPool;
use crate::progress::{CancelToken, ProgressSink};
use crate::{ScheduleOptions, SunstoneConfig};
use compose::SearchStop;

pub use stats::{LevelStats, PruneCounter, SearchStats};

/// One call's controls, built once per call from its
/// [`ScheduleOptions`]: when it started, its deadline, its cancellation
/// token, its progress sink, how many results it wants and the
/// constraints it searches under. The search holds them in its
/// [`SearchContext`].
///
/// [`stop`](Self::stop) is the one stop rule: every checkpoint of a
/// search — each stage start, between parent expansions and after
/// expansion, inside the tile and unroll `fits` closures, and each pool
/// claim of an estimate round — asks it, with no exemption, and a stop
/// discards the stage in progress.
#[derive(Clone, Copy)]
pub(crate) struct CallControls<'a> {
    /// When the call (for a batch: the layer) started.
    pub(crate) start: Instant,
    /// The absolute deadline of the call's `time_budget`; `None` also for
    /// a budget past what an `Instant` can hold.
    deadline: Option<Instant>,
    cancel: Option<&'a CancelToken>,
    /// Progress callback for level started/finished events.
    pub(crate) progress: Option<&'a dyn ProgressSink>,
    /// How many ranked results to return, at least 1.
    pub(crate) top_k: usize,
    /// The call's constraint override, or the session's set.
    pub(crate) constraints: &'a MappingConstraints,
}

impl<'a> CallControls<'a> {
    /// The controls of a call under `options` starting now; `constraints`
    /// is the session's set, for a call that does not override it.
    pub(crate) fn new(options: &'a ScheduleOptions, constraints: &'a MappingConstraints) -> Self {
        let start = Instant::now();
        CallControls {
            start,
            deadline: options.time_budget.and_then(|budget| start.checked_add(budget)),
            cancel: options.cancel.as_ref(),
            progress: options.progress.as_deref(),
            top_k: options.top_k.max(1),
            constraints: options.constraints.as_ref().unwrap_or(constraints),
        }
    }

    /// The controls of one layer of a batch: the batch's deadline, token
    /// and constraints, its own start, and no level events.
    pub(crate) fn layer(&self) -> Self {
        CallControls { start: Instant::now(), progress: None, ..*self }
    }

    /// Whether the search must stop, and why: the token first, then the
    /// deadline. Both only ever turn on, so once a checkpoint sees a stop
    /// every later one does.
    pub(crate) fn stop(&self) -> Option<SearchStop> {
        if self.cancel.is_some_and(CancelToken::is_cancelled) {
            Some(SearchStop::Cancelled)
        } else if self.deadline.is_some_and(|d| Instant::now() >= d) {
            Some(SearchStop::DeadlineReached)
        } else {
            None
        }
    }
}

/// Where each decision of a mapping sits in a candidate row.
///
/// A row is the mapping's search key — every architecture level's
/// factors, then every temporal level's loop order as dimension indices
/// ([`write_row`](Self::write_row)) — and nothing else: two mappings with
/// equal rows are the same point in the space, and a partial mapping is
/// the whole mapping it stands for, what no stage has placed yet sitting
/// in the outermost memory's factors (the
/// [`remainder`](Self::remainder)), where [`Mapping::streaming`] puts the
/// whole problem. What the cost model prices is coarser — the loop nest,
/// in which a dimension whose factor is 1 at a level has no loop there,
/// wherever the order puts it — so an estimate round finds its repeats by
/// the hash of the *nest key* ([`nest_key`](Self::nest_key)): rows that
/// differ only in where their unit factors sit share one estimate.
#[derive(Debug, Clone)]
pub(crate) struct RowLayout {
    /// Per architecture position: offset of the level's factors, and of
    /// its order for a temporal level.
    levels: Vec<(usize, Option<usize>)>,
    ndims: usize,
    /// Words per row.
    stride: usize,
    /// The outermost memory's position, whose factors hold what no stage
    /// has placed yet (`ArchSpec::validate` makes it an unbounded DRAM).
    pub(crate) complete_at: usize,
}

impl RowLayout {
    /// The layout of every mapping shaped like `base` (one entry per
    /// dimension in each level's factors and order), whose remainder sits
    /// at `complete_at`.
    fn of(base: &Mapping, ndims: usize, complete_at: usize) -> Self {
        let mut order_at = base.levels().len() * ndims;
        let levels = base
            .levels()
            .iter()
            .enumerate()
            .map(|(pos, level)| {
                let order = matches!(level, MappingLevel::Temporal(_)).then(|| {
                    order_at += ndims;
                    order_at - ndims
                });
                (pos * ndims, order)
            })
            .collect();
        RowLayout { levels, ndims, stride: order_at, complete_at }
    }

    /// Words per row: the mapping key's length.
    pub(crate) fn stride(&self) -> usize {
        self.stride
    }

    /// The factor slots of the level at `pos`.
    pub(crate) fn factors(&self, pos: usize) -> Range<usize> {
        let at = self.levels[pos].0;
        at..at + self.ndims
    }

    /// The loop-order slots of the temporal level at `pos`.
    pub(crate) fn order(&self, pos: usize) -> Range<usize> {
        let at = self.levels[pos].1.expect("a spatial level has no order slots");
        at..at + self.ndims
    }

    /// The remainder slots: the outermost memory's factors, which hold
    /// what no stage has placed yet — the quotas a stage reads.
    pub(crate) fn remainder(&self) -> Range<usize> {
        self.factors(self.complete_at)
    }

    /// Appends the row of `mapping` to `out`.
    pub(crate) fn write_row(&self, mapping: &Mapping, out: &mut Vec<u64>) {
        let start = out.len();
        for level in mapping.levels() {
            out.extend_from_slice(level.factors());
        }
        for level in mapping.levels() {
            if let MappingLevel::Temporal(t) = level {
                out.extend(t.order.iter().map(|d| d.index() as u64));
            }
        }
        debug_assert_eq!(out.len() - start, self.stride, "mapping does not fit the layout");
    }

    /// The tile below the level at `pos` of the row's mapping: the product
    /// of every level's factors at positions `0..pos`.
    pub(crate) fn tile_below(&self, row: &[u64], pos: usize) -> DimVec {
        let mut tile = DimVec::ones(self.ndims);
        for level in 0..pos {
            for (t, f) in tile.iter_mut().zip(&row[self.factors(level)]) {
                *t *= f;
            }
        }
        tile
    }

    /// Makes `m` (any mapping shaped like the layout's base) the row's
    /// mapping, overwriting every factor and loop order, without
    /// allocating: what the final ranking validates and prices.
    pub(crate) fn materialize_into(&self, row: &[u64], m: &mut Mapping) {
        for (pos, level) in m.levels_mut().iter_mut().enumerate() {
            level.factors_mut().copy_from_slice(&row[self.factors(pos)]);
            if let MappingLevel::Temporal(t) = level {
                for (slot, &d) in t.order.iter_mut().zip(&row[self.order(pos)]) {
                    *slot = DimId::from_index(d as usize);
                }
            }
        }
    }

    /// Writes the row's *nest key* into `key`: every level's factors,
    /// then per temporal level its order cut to the dimensions whose factor
    /// there is above 1 ([`ranks`]). Two rows with one nest key flatten to
    /// the same loop nest, which is all the cost model reads of a mapping's
    /// orders, so they price the same to the bit.
    pub(crate) fn nest_key(&self, row: &[u64], key: &mut Vec<u64>) {
        let factors = self.levels.len() * self.ndims;
        let temporal = (self.stride - factors) / self.ndims;
        key.clear();
        key.extend_from_slice(&row[..factors]);
        key.resize(factors + temporal * self.ndims.div_ceil(8), 0);
        for pos in 0..self.levels.len() {
            self.renest_level(row, pos, key);
        }
    }

    /// Brings `key`, the nest key of a row that has since changed only in
    /// its remainder and in the factors at `pos`, up to date with `row`:
    /// what `pos` and the outermost memory contribute is rewritten, the
    /// rest kept. A run of rows that differ only there pays for its whole key
    /// once.
    pub(crate) fn renest(&self, row: &[u64], pos: usize, key: &mut [u64]) {
        self.renest_level(row, pos, key);
        if pos != self.complete_at {
            self.renest_level(row, self.complete_at, key);
        }
    }

    /// Writes what the level at `pos` contributes to the nest key: its
    /// factors, then, for a temporal level, its cut order.
    fn renest_level(&self, row: &[u64], pos: usize, key: &mut [u64]) {
        let slots = self.factors(pos);
        key[slots.clone()].copy_from_slice(&row[slots.clone()]);
        if let Some(order) = self.levels[pos].1 {
            let (factors, cuts) = key.split_at_mut(self.levels.len() * self.ndims);
            ranks(&row[order..order + self.ndims], &factors[slots], &mut cuts[self.orders_at(pos)]);
        }
    }

    /// Where the temporal level at `pos` sits among a nest key's cut
    /// orders.
    pub(crate) fn orders_at(&self, pos: usize) -> Range<usize> {
        let words = self.ndims.div_ceil(8);
        let before = (self.order(pos).start - self.levels.len() * self.ndims) / self.ndims;
        before * words..(before + 1) * words
    }
}

/// Writes `order` in rank form to `cut`, cut to the dimensions whose
/// factor `factors[d]` is above 1: byte `d` holds `d`'s 1-based rank in
/// loop order among the looping dimensions (0 for one that does not
/// loop), eight bytes to a word. Orders that cut to the same sequence
/// have the same cut ranks. Branch-free, and the byte a dimension lands in
/// does not depend on the ones before it, so the only chain through the
/// loop is the running count.
#[inline]
fn ranks(order: &[u64], factors: &[u64], cut: &mut [u64]) {
    let mut rank = 0u64;
    if let [word] = cut {
        // Every workload evaluated: a word each, kept in a register.
        let mut bytes = 0u64;
        for &d in order {
            let loops = u64::from(factors[d as usize] > 1);
            rank += loops;
            bytes |= (rank & loops.wrapping_neg()) << (8 * d);
        }
        *word = bytes;
        return;
    }
    cut.fill(0);
    for &d in order {
        let loops = u64::from(factors[d as usize] > 1);
        rank += loops;
        cut[d as usize / 8] |= (rank & loops.wrapping_neg()) << (8 * (d % 8));
    }
}

/// Everything the pipeline stages share for one scheduling run: the
/// problem, the derived level structure, the enumeration trie and the
/// cost model. Read-only and shared with the pool workers; what a search
/// writes while it runs is its [`estimate::SearchMemo`].
pub(crate) struct SearchContext<'a> {
    pub(crate) workload: &'a Workload,
    pub(crate) arch: &'a ArchSpec,
    pub(crate) config: &'a SunstoneConfig,
    /// The call's controls, whose [`stop`](CallControls::stop) every
    /// checkpoint of the search asks.
    pub(crate) controls: CallControls<'a>,
    pub(crate) model: CostModel<'a>,
    pub(crate) trie: OrderingTrie<'a>,
    /// Memory level positions, innermost first.
    pub(crate) mems: Vec<usize>,
    /// `lower_spatial[i]`: the spatial position between memory `i − 1`
    /// and memory `i` (for `i = 0`: below the innermost memory), if any —
    /// `ArchSpec::validate` rejects adjacent spatial levels, so a gap holds
    /// at most one fabric.
    pub(crate) lower_spatial: Vec<Option<usize>>,
    /// The stages a search runs, innermost memory first: one per memory,
    /// less the outermost memory's when no fabric sits directly below it.
    /// That stage would decide nothing: every row already keeps what no
    /// stage placed at the outermost memory, and there is no level above
    /// it to order, so each of its children would be its parent.
    pub(crate) stages: usize,
    /// `unrollable_above[i]`: what the fabrics above memory `i` may unroll
    /// — the union of their resolved sets
    /// ([`LevelConstraints::unroll_dims`](sunstone_mapping::constraints::LevelConstraints::unroll_dims)),
    /// over which a tile at memory `i` leaves them their parallelism. A
    /// fabric whose pins fix its whole unroll adds every dimension (DESIGN
    /// §3f, "One fabric rule").
    pub(crate) unrollable_above: Vec<DimSet>,
    /// `pinned_above[i]`: per dimension, the product of the unroll pins of
    /// the fabrics above memory `i` — a factor a tile at memory `i` must
    /// leave in the quota, or no child of it can reach those pins when
    /// their fabric's stage comes. `None` without such pins (the common
    /// case).
    pub(crate) pinned_above: Vec<Option<DimVec>>,
    /// The session's persistent worker pool (estimate rounds fan out over
    /// it instead of spawning threads per round).
    pub(crate) pool: &'a WorkerPool,
    /// Precomputed sorted divisor ladders for every quota the search can
    /// produce (quotas only shrink by division, so they stay divisors of
    /// the dimension extents).
    pub(crate) ladders: DivisorLadders,
    /// The validator of this problem: the final ranking validates through
    /// it, and the enumerators ask its capacity plan whether a tile fits —
    /// the one rule the validator holds the results to.
    pub(crate) validation: ValidationContext<'a>,
    /// The call's user constraints, resolved to per-architecture-position
    /// form. Empty (the common case) adds one cheap `is_empty` branch per
    /// enumeration; the free search path is otherwise untouched.
    pub(crate) constraints: ResolvedConstraints,
    /// The streaming mapping every search starts from — the whole problem
    /// at the outermost memory, the root of the beam its row — and the
    /// template the final ranking materializes rows over.
    pub(crate) base: Mapping,
    /// The candidate-row layout of mappings shaped like `base`.
    pub(crate) layout: RowLayout,
}

impl<'a> SearchContext<'a> {
    pub(crate) fn new(
        workload: &'a Workload,
        arch: &'a ArchSpec,
        binding: &'a Binding,
        config: &'a SunstoneConfig,
        pool: &'a WorkerPool,
        controls: CallControls<'a>,
        constraints: ResolvedConstraints,
    ) -> Self {
        let mems: Vec<usize> = arch.memory_levels().map(|(id, _)| id.index()).collect();
        let mut lower_spatial = Vec::with_capacity(mems.len());
        let mut gap = 0;
        for &m in &mems {
            let mut fabrics =
                (gap..m).filter(|&p| matches!(arch.level(LevelId(p)), Level::Spatial(_)));
            lower_spatial.push(fabrics.next());
            debug_assert!(fabrics.next().is_none(), "adjacent spatial levels");
            gap = m + 1;
        }
        let stages = mems.len() - usize::from(matches!(lower_spatial.last(), Some(None)));
        // What a fabric gives the reserve: its set, or every dimension
        // when its pins fix its whole unroll.
        let feeds = |pos: LevelId| {
            let lc = constraints.at(pos.index());
            let open = lc.unroll_dims.difference(lc.unroll_pinned);
            if open.is_empty() {
                DimSet::first_n(workload.num_dims())
            } else {
                lc.unroll_dims
            }
        };
        let unrollable_above = mems
            .iter()
            .map(|&m| {
                let above = arch.spatial_levels().filter(|(pos, _)| pos.index() > m);
                above.map(|(pos, _)| feeds(pos)).fold(DimSet::EMPTY, DimSet::union)
            })
            .collect();
        let pinned_above = mems
            .iter()
            .map(|&m| {
                let above = arch.spatial_levels().filter(|(pos, _)| pos.index() > m);
                let pins = above.flat_map(|(pos, _)| &constraints.at(pos.index()).unroll_pins);
                let mut held: Option<DimVec> = None;
                for &(d, v) in pins {
                    held.get_or_insert_with(|| DimVec::ones(workload.num_dims()))[d] *= v;
                }
                held
            })
            .collect();
        let base = Mapping::streaming(workload, arch);
        let complete_at = *mems.last().expect("at least one memory");
        let layout = RowLayout::of(&base, workload.num_dims(), complete_at);
        SearchContext {
            workload,
            arch,
            config,
            controls,
            model: CostModel::new(workload, arch, binding),
            trie: OrderingTrie::new(workload),
            mems,
            lower_spatial,
            stages,
            unrollable_above,
            pinned_above,
            pool,
            ladders: DivisorLadders::new(&workload.dim_sizes()),
            validation: ValidationContext::new(workload, arch, binding),
            constraints,
            base,
            layout,
        }
    }
}

/// A search context on an inline pool, for unit tests of the pipeline
/// stages.
#[cfg(test)]
pub(crate) mod testing {
    use super::*;
    use crate::factors::sorted_divisors;

    /// Runs `f` with the context a scheduling call on `(workload, arch)`
    /// under `config` would build: unconstrained, on an inline pool.
    pub(crate) fn with_context<R>(
        workload: &Workload,
        arch: &ArchSpec,
        config: &SunstoneConfig,
        f: impl FnOnce(&SearchContext<'_>) -> R,
    ) -> R {
        with_constraints(workload, arch, config, &MappingConstraints::new(), f)
            .expect("no constraints")
    }

    /// [`with_context`] under `constraints`; `None` when they do not
    /// resolve on `(workload, arch)`.
    pub(crate) fn with_constraints<R>(
        workload: &Workload,
        arch: &ArchSpec,
        config: &SunstoneConfig,
        constraints: &MappingConstraints,
        f: impl FnOnce(&SearchContext<'_>) -> R,
    ) -> Option<R> {
        let binding = Binding::resolve(arch, workload).expect("binds");
        let pool = WorkerPool::new(0);
        let resolved = ResolvedConstraints::resolve(constraints, workload, arch).ok()?;
        let options = ScheduleOptions::new();
        let controls = CallControls::new(&options, constraints);
        let ctx = SearchContext::new(workload, arch, &binding, config, &pool, controls, resolved);
        Some(f(&ctx))
    }

    /// A random mapping shaped like the context's base: every level takes
    /// a random divisor of what each dimension still has to distribute,
    /// temporal levels a random loop order, and the rest goes to the
    /// outermost memory — every state the search can reach has this form.
    pub(crate) fn random_state(ctx: &SearchContext<'_>, seed: u64) -> Mapping {
        let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1);
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut m = ctx.base.clone();
        let mut quotas = DimVec::from(ctx.workload.dim_sizes());
        for level in m.levels_mut() {
            for (f, q) in level.factors_mut().iter_mut().zip(quotas.iter_mut()) {
                let divisors = sorted_divisors(*q);
                *f = divisors[(next() % divisors.len() as u64) as usize];
                *q /= *f;
            }
            if let MappingLevel::Temporal(t) = level {
                for i in (1..t.order.len()).rev() {
                    t.order.swap(i, (next() % (i as u64 + 1)) as usize);
                }
            }
        }
        for (f, q) in m.levels_mut()[ctx.layout.complete_at].factors_mut().iter_mut().zip(&quotas) {
            *f *= q;
        }
        m
    }

    /// A 7-dimensional convolution whose tensor names every preset's
    /// partition filters bind.
    pub(crate) fn conv2d(k: u64, c: u64, hw: u64) -> Workload {
        conv2d_batch(2, k, c, hw)
    }

    /// [`conv2d`] over a batch of `n`.
    pub(crate) fn conv2d_batch(n: u64, k: u64, c: u64, hw: u64) -> Workload {
        let mut b = Workload::builder("conv2d");
        let n = b.dim("N", n);
        let kk = b.dim("K", k);
        let cc = b.dim("C", c);
        let p = b.dim("P", hw);
        let q = b.dim("Q", hw);
        let r = b.dim("R", 3);
        let s = b.dim("S", 3);
        b.input_bits("ifmap", [n.expr(), cc.expr(), p + r, q + s], 8);
        b.input_bits("weight", [kk.expr(), cc.expr(), r.expr(), s.expr()], 8);
        b.output_bits("ofmap", [n.expr(), kk.expr(), p.expr(), q.expr()], 24);
        b.build().expect("valid workload")
    }

    /// `out[m][n] = Σ_k a[m][k] · b[k][n]`, its tensors named as
    /// [`conv2d`]'s so every preset binds them.
    pub(crate) fn matmul(m: u64, n: u64, k: u64) -> Workload {
        let mut b = Workload::builder("matmul");
        let (mm, nn, kk) = (b.dim("M", m), b.dim("N", n), b.dim("K", k));
        b.input_bits("ifmap", [mm.expr(), kk.expr()], 8);
        b.input_bits("weight", [kk.expr(), nn.expr()], 8);
        b.output_bits("ofmap", [mm.expr(), nn.expr()], 24);
        b.build().expect("valid workload")
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;
    use sunstone_arch::presets;

    use super::beam::Beam;
    use super::candidates::{expand, Candidates};
    use super::estimate::{estimate_all, RowNest, SearchMemo};
    use super::testing::{conv2d, matmul, random_state, with_context};
    use super::*;

    fn preset(i: usize) -> ArchSpec {
        match i {
            0 => presets::conventional(),
            1 => presets::eyeriss_like(),
            2 => presets::simba_like(),
            _ => presets::diannao_like(),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Row ↔ tree: a mapping's row is one stride long, holds what is
        /// left in its remainder slots, reads the tiles below each level,
        /// and materializes back to the mapping.
        #[test]
        fn rows_round_trip(arch in 0usize..4, k in 1u32..6, hw in 1u64..5, seed in 0u64..10_000) {
            let (w, arch) = (conv2d(1 << k, 24, 7 * hw), preset(arch));
            with_context(&w, &arch, &SunstoneConfig::default(), |ctx| {
                let layout = &ctx.layout;
                let m = random_state(ctx, seed);
                let mut row = Vec::new();
                layout.write_row(&m, &mut row);
                assert_eq!(row.len(), layout.stride());
                assert_eq!(&row[layout.remainder()], m.level(layout.complete_at).factors());
                assert_eq!(layout.tile_below(&row, 0), DimVec::ones(w.num_dims()));
                for pos in 1..m.levels().len() {
                    let below = m.resident_tile(pos - 1, w.num_dims());
                    assert_eq!(layout.tile_below(&row, pos), below);
                }
                let mut done = ctx.base.clone();
                layout.materialize_into(&row, &mut done);
                assert_eq!(done, m);
            });
        }

        /// What the nest key leaves out is invisible to the model: moving
        /// the dimensions whose factor is 1 anywhere in a level's order
        /// keeps the nest key and the price, to the bit — and moving the
        /// others changes the nest key.
        #[test]
        fn unit_factor_order_moves_keep_the_nest_key_and_the_price(
            arch in 0usize..4, k in 1u32..6, hw in 1u64..5, seed in 0u64..10_000,
        ) {
            let (w, arch) = (conv2d(1 << k, 24, 7 * hw), preset(arch));
            with_context(&w, &arch, &SunstoneConfig::default(), |ctx| {
                let m = random_state(ctx, seed);
                let nest = |m: &Mapping| {
                    let (mut row, mut key) = (Vec::new(), Vec::new());
                    ctx.layout.write_row(m, &mut row);
                    ctx.layout.nest_key(&row, &mut key);
                    key
                };
                // Each level's unit-factor dimensions moved to the front,
                // the looping ones kept in order; and the looping ones
                // reversed.
                let (mut moved, mut reordered) = (m.clone(), m.clone());
                let mut reversible = false;
                for (a, b) in moved.levels_mut().iter_mut().zip(reordered.levels_mut()) {
                    if let (MappingLevel::Temporal(a), MappingLevel::Temporal(b)) = (a, b) {
                        let (ones, loops): (Vec<DimId>, Vec<DimId>) =
                            a.order.iter().partition(|d| a.factors[d.index()] == 1);
                        a.order = ones.iter().chain(&loops).copied().collect();
                        b.order = ones.iter().chain(loops.iter().rev()).copied().collect();
                        reversible |= loops.len() >= 2;
                    }
                }
                assert_eq!(nest(&moved), nest(&m));
                let price = |m: &Mapping| ctx.model.evaluate_unchecked(m).edp.to_bits();
                assert_eq!(price(&moved), price(&m));
                if reversible {
                    assert_ne!(nest(&reordered), nest(&m));
                }
            });
        }
    }

    /// Stage `stage` of a search from `beam`, as `run_level_search` runs
    /// it: every parent expanded, the children hashed, estimated and cut.
    /// Returns the stage's arena and the beam the cut keeps.
    fn walk_stage(
        ctx: &SearchContext<'_>,
        beam: &Beam,
        stage: usize,
        memo: &mut SearchMemo,
        stats: &mut SearchStats,
    ) -> (Candidates, Beam) {
        let mut cands = Candidates::new(ctx);
        cands.start_stage(ctx, stage);
        for parent in 0..beam.len() {
            expand(ctx, beam, parent, stage, &mut cands, memo, stats);
        }
        cands.hash_children(beam);
        assert!(estimate_all(ctx, &mut cands, beam, stage, stats).is_none());
        let kept = beam::select(ctx, &cands, beam, stage, stats);
        (cands, kept)
    }

    /// The search skips the outermost memory's stage when no fabric sits
    /// directly below that memory, and that stage would decide nothing: on
    /// every preset, for a conv and a matmul, after the stages the search
    /// runs, the outermost stage run by hand gives one child per parent,
    /// each child's row its parent's, and the cut keeps the parents' rows
    /// in their order.
    #[test]
    fn the_outermost_stage_without_a_fabric_keeps_its_parents() {
        for arch in (0..4).map(preset) {
            for w in [conv2d(16, 24, 14), matmul(64, 48, 96)] {
                with_context(&w, &arch, &SunstoneConfig::default(), |ctx| {
                    let outermost = ctx.mems.len() - 1;
                    assert_eq!(ctx.lower_spatial[outermost], None, "{}", arch.name());
                    assert_eq!(ctx.stages, outermost, "{}", arch.name());
                    let (mut memo, mut stats) = (SearchMemo::default(), SearchStats::default());
                    let mut beam = Beam::root(ctx);
                    for stage in 0..ctx.stages {
                        beam = walk_stage(ctx, &beam, stage, &mut memo, &mut stats).1;
                    }
                    let rows = |beam: &Beam| {
                        (0..beam.len()).map(|i| beam.row(i).to_vec()).collect::<Vec<_>>()
                    };
                    let (cands, kept) = walk_stage(ctx, &beam, outermost, &mut memo, &mut stats);
                    assert_eq!(cands.len(), beam.len(), "{}: one child per parent", arch.name());
                    for (i, parent) in rows(&beam).into_iter().enumerate() {
                        let mut row = Vec::new();
                        cands.write_row(&beam, i, &mut row);
                        assert_eq!(row, parent, "{}: child {i}", arch.name());
                    }
                    assert_eq!(rows(&kept), rows(&beam), "{}: the cut reorders", arch.name());
                });
            }
        }
    }

    /// The outermost memory's stage runs when a fabric sits directly below
    /// that memory: a matmul on L1 → grid of 16 → DRAM searches two
    /// stages, the second enumerates unrolls, and the best mapping unrolls
    /// on the grid.
    #[test]
    fn a_fabric_below_the_outermost_memory_is_unrolled() {
        let arch = sunstone_arch::ArchBuilder::new("grid-below-dram")
            .unified_memory("L1", 4 << 10, 1.0, 1.0)
            .spatial("grid", 16)
            .dram(200.0)
            .build()
            .expect("valid arch");
        let w = matmul(64, 64, 64);
        with_context(&w, &arch, &SunstoneConfig::default(), |ctx| {
            assert_eq!((ctx.mems.len(), ctx.stages), (2, 2));
        });
        let r = crate::Scheduler::new(SunstoneConfig::default())
            .schedule(&w, &arch)
            .expect("schedules");
        assert_eq!(r.stats.levels.len(), 2);
        assert!(r.stats.levels[1].unrolling.considered > 0, "{:?}", r.stats.levels[1]);
        let (grid, _) = arch.spatial_levels().next().expect("a fabric");
        let unrolled: u64 = r.mapping.level(grid.index()).factors().iter().product();
        assert!(unrolled > 1, "no unroll on the grid: {:?}", r.mapping);
    }

    /// One row as the count kernel's source.
    struct OneRow<'a>(RowNest<'a>);

    impl sunstone_model::NestSource for OneRow<'_> {
        type Nest<'a>
            = RowNest<'a>
        where
            Self: 'a;

        fn count(&self) -> usize {
            1
        }

        fn nest(&self, _: usize) -> RowNest<'_> {
            RowNest { layout: self.0.layout, row: self.0.row }
        }
    }

    /// Every beam row is a whole mapping, on real searches: walking the
    /// stages of a conv and a matmul on every preset, after every cut each
    /// survivor's row, materialized, multiplies per dimension to the
    /// problem's extent, writes back to the same row, and prices through
    /// its row against the empty prefix to exactly `evaluate_unchecked`'s
    /// bits. Whether a row's tiles fit the memories above is not asserted:
    /// the beam may keep a parent whose tile a memory above cannot hold, a
    /// dead end rather than a malformed row.
    #[test]
    fn every_beam_row_is_a_whole_mapping() {
        let mut rows = 0;
        for arch in (0..4).map(preset) {
            for w in [conv2d(16, 24, 14), matmul(64, 48, 96)] {
                with_context(&w, &arch, &SunstoneConfig::default(), |ctx| {
                    let (layout, model) = (&ctx.layout, &ctx.model);
                    let (mut memo, mut stats) = (SearchMemo::default(), SearchStats::default());
                    let mut beam = Beam::root(ctx);
                    let mut scratch = model.batch_scratch();
                    for stage in 0..ctx.stages {
                        beam = walk_stage(ctx, &beam, stage, &mut memo, &mut stats).1;
                        assert!(beam.len() > 0, "{} stage {stage}: an empty beam", arch.name());
                        for (i, m) in beam.mappings(ctx).into_iter().enumerate() {
                            let (row, case) =
                                (beam.row(i), format!("{} stage {stage}", arch.name()));
                            for d in 0..w.num_dims() {
                                let extent: u64 =
                                    m.levels().iter().map(|l| l.factors()[d]).product();
                                assert_eq!(extent, w.dim_sizes()[d], "{case} row {i} dim {d}");
                            }
                            let mut written = Vec::new();
                            layout.write_row(&m, &mut written);
                            assert_eq!(written, row, "{case} row {i}");
                            let want = model.evaluate_unchecked(&m);
                            let mut priced = 0;
                            let source = OneRow(RowNest { layout, row });
                            model.price_prefixed_batch(
                                model.empty_prefix(),
                                &source,
                                &mut scratch,
                                |_, got| {
                                    assert_eq!(got.energy_pj.to_bits(), want.energy_pj.to_bits());
                                    assert_eq!(
                                        got.delay_cycles.to_bits(),
                                        want.delay_cycles.to_bits()
                                    );
                                    priced += 1;
                                },
                            );
                            assert_eq!(priced, 1, "{case} row {i}");
                            rows += 1;
                        }
                    }
                });
            }
        }
        assert!(rows > 0, "no row was checked");
    }
}

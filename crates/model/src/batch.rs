//! The count kernel: pricing a batch of candidates that share a decided
//! prefix — the model's one count pass.
//!
//! One estimate round of the level-by-level search prices hundreds of
//! candidates that share a decided prefix ([`MappingPrefix`]). What the
//! prefix decides is priced once when it is built; what no candidate
//! changes is looked up once per model or built once per call; and each
//! candidate then costs only its own arithmetic. The kernel takes the
//! candidates one at a time: it writes the candidate's *columns* over the
//! undecided suffix — its flattened loops with a mark at every level,
//! its resident tiles as flat words, its spatial-product ladder — then,
//! per tensor, one pass over the loops for the refill aggregates above
//! every level, and prices each storing pair from those. Its count tables
//! are handed to the caller before the next candidate is counted, so the
//! scratch does not grow with the batch.
//!
//! The kernel reads its candidates through [`NestSource`]: per candidate
//! and undecided level, the loop factors and the loop order. The search
//! feeds it its candidates as rows, its mappings' search keys, each
//! written from its parent's row and the choices it adds as it is read;
//! `[Mapping]` is the other source, and the same code, monomorphized,
//! prices both.
//!
//! Every entry point of the model is a call of this kernel. A full
//! evaluation ([`CostModel::evaluate_unchecked`],
//! [`AccessCounts::compute`](crate::AccessCounts::compute)) is width 1
//! against the empty prefix ([`CostModel::empty_prefix`]), which decides
//! no level, so every storing pair — the MAC-boundary pair included — is
//! priced by `count_pair` over the candidate's whole nest. A single
//! prefixed evaluation ([`CostModel::evaluate_prefixed_with`]) is width 1
//! against its prefix.
//!
//! For the dominant pair shape (union tile complete inside the prefix and
//! the reuse run closed there — every pair at or below the frontier once
//! the search has decided a level) the pair's tail (footprints, multicast
//! penalty, halo-window geometry, driving loop) is built once per call,
//! leaving a multiply–accumulate per candidate. Cached pairs that still
//! straddle the frontier are priced candidate by candidate from the
//! cache, and pairs above it by `count_pair` over the candidate's suffix.
//! What does not depend on the candidate at all — which levels are
//! fabrics and multicast, each tensor's word scale, where each dimension
//! slides a halo window — is the model's `PricingPlan`, looked up once
//! per model.
//!
//! # Bit-identity
//!
//! Every path performs, per candidate, the floating-point operations of
//! the whole-nest walk in the same association order, except that products
//! of integer-valued factors are regrouped across the prefix boundary
//! (exact below 2⁵³); sums never are. Only the iteration order *across*
//! candidates changes, and candidates never mix arithmetically. A price is
//! therefore the same bits at every width, from either source, and against
//! every prefix of the mapping, the empty one included (asserted by the
//! tests below).

use std::ops::Range;

use sunstone_ir::{DimId, TensorId};
use sunstone_mapping::{FlatLoop, LoopKind, Mapping, MappingLevel};

use crate::cost::{CostModel, CostReport, CostTotals, PricingPlan};
use crate::counts::{count_pair, ladder_step, PairTail, TensorLevelCounts};
use crate::prefix::{CandAgg, MappingPrefix};

/// The candidates one count-kernel call prices, as the kernel reads them:
/// per candidate, its [`Nest`]. A slice of complete mappings is one
/// source; the search's candidates, as rows, are another.
pub trait NestSource {
    /// One candidate as the kernel reads it.
    type Nest<'a>: Nest
    where
        Self: 'a;

    /// Number of candidates.
    fn count(&self) -> usize;

    /// Candidate `i`, resolved once for everything the kernel reads of it.
    fn nest(&self, i: usize) -> Self::Nest<'_>;
}

/// One candidate's loop nest as the count kernel reads it: per
/// architecture position `pos` the loop factors and, at a temporal level,
/// the loop order. A candidate is a whole mapping: the search keeps what
/// no stage has placed yet in the outermost memory's factors.
pub trait Nest {
    /// The loop factors at `pos`, one per dimension.
    fn factors(&self, pos: usize) -> &[u64];

    /// The loop order at the temporal level at `pos`, innermost first, as
    /// dimension indices.
    fn order(&self, pos: usize) -> impl DoubleEndedIterator<Item = usize> + '_;
}

impl NestSource for [Mapping] {
    type Nest<'a> = &'a Mapping;

    fn count(&self) -> usize {
        self.len()
    }

    fn nest(&self, i: usize) -> &Mapping {
        &self[i]
    }
}

impl Nest for &Mapping {
    fn factors(&self, pos: usize) -> &[u64] {
        self.level(pos).factors()
    }

    fn order(&self, pos: usize) -> impl DoubleEndedIterator<Item = usize> + '_ {
        let order = match self.level(pos) {
            MappingLevel::Temporal(t) => &t.order[..],
            MappingLevel::Spatial(_) => &[],
        };
        order.iter().map(|d| d.index())
    }
}

/// One candidate's setup columns over the levels the kernel prices: its
/// loops, their level marks, and its resident tiles.
#[derive(Debug, Clone, Default)]
pub(crate) struct Columns {
    /// The candidate's flattened loops, outermost first.
    pub(crate) loops: Vec<FlatLoop>,
    /// Level marks into `loops`, one more than the levels: entry `j`
    /// counts the loops at positions `≥` the first level `+ j`, so the
    /// loops above any level are a prefix of `loops`.
    pub(crate) marks: Vec<u32>,
    /// Resident tiles, `ndims` words a level, lowest level first.
    pub(crate) resident: Vec<u64>,
}

impl Columns {
    /// The columns of the candidate `nest` over `levels`, whole: its
    /// resident tiles, its loops with their marks, and its ladder (see the
    /// parts below). What [`build_prefix`](crate::prefix) reads of the
    /// decided levels.
    pub(crate) fn fill(
        &mut self,
        plan: &PricingPlan<'_>,
        nest: &impl Nest,
        levels: Range<usize>,
        base: &[u64],
        ladder: &mut [f64],
    ) {
        self.begin(levels.len());
        Self::ladder(plan, nest, levels.clone(), ladder);
        self.push_resident(nest, levels.clone(), base);
        self.push_loops(plan, nest, levels.start, levels);
    }

    /// Starts a candidate's columns over `levels` levels: no loops, no
    /// tiles yet.
    pub(crate) fn begin(&mut self, levels: usize) {
        self.loops.clear();
        self.marks.clear();
        self.marks.resize(levels + 1, 0);
        self.resident.clear();
    }

    /// `ladder[j]` becomes the product of the candidate's spatial factors
    /// at positions `≥ levels.start + j`, extending the product above the
    /// levels given in its last entry.
    pub(crate) fn ladder(
        plan: &PricingPlan<'_>,
        nest: &impl Nest,
        levels: Range<usize>,
        ladder: &mut [f64],
    ) {
        for q in levels.clone().rev() {
            let j = q - levels.start;
            ladder[j] = if plan.is_fabric(q) {
                ladder_step(plan, q, nest.factors(q), ladder[j + 1])
            } else {
                ladder[j + 1]
            };
        }
    }

    /// Appends the candidate's resident tiles at `levels`, innermost
    /// first, extending `base` (the tile below the first of them): each
    /// level's tile is the one below it times the level's factors.
    pub(crate) fn push_resident(&mut self, nest: &impl Nest, levels: Range<usize>, base: &[u64]) {
        let ndims = base.len();
        for q in levels.clone() {
            let at = self.resident.len();
            if q == levels.start {
                self.resident.extend_from_slice(base);
            } else {
                self.resident.extend_from_within(at - ndims..at);
            }
            let tile = &mut self.resident[at..];
            tile.iter_mut().zip(nest.factors(q)).for_each(|(t, f)| *t *= f);
        }
    }

    /// Appends the candidate's loops at `levels`, outermost first, below
    /// the loops already written (those of the levels above), exactly as
    /// [`FlatNest`](sunstone_mapping::FlatNest) flattens them — a temporal
    /// level's looping dimensions in loop order, a fabric's in dimension
    /// order — and sets their level marks; `first` is the lowest level of
    /// the columns.
    pub(crate) fn push_loops(
        &mut self,
        plan: &PricingPlan<'_>,
        nest: &impl Nest,
        first: usize,
        levels: Range<usize>,
    ) {
        for q in levels.clone().rev() {
            self.marks[q - first + 1] = self.loops.len() as u32;
            let factors = nest.factors(q);
            let loops = &mut self.loops;
            let mut push = |d: usize, kind| {
                let factor = factors[d];
                if factor > 1 {
                    loops.push(FlatLoop { dim: DimId::from_index(d), factor, kind, arch_pos: q });
                }
            };
            if plan.is_fabric(q) {
                (0..factors.len()).for_each(|d| push(d, LoopKind::Spatial));
            } else {
                nest.order(q).rev().for_each(|d| push(d, LoopKind::Temporal));
            }
        }
        self.marks[levels.start - first] = self.loops.len() as u32;
    }
}

/// Reusable tables of the count kernel and of the report phase after it:
/// keep one per evaluation thread; repeated calls only grow the buffers,
/// never reallocate per candidate.
#[derive(Debug, Clone, Default)]
pub struct BatchEvalScratch {
    /// The candidate's columns over the undecided suffix.
    columns: Columns,
    /// Per cached pair of the prefix, in order, its tail when no
    /// candidate changes it (union tile complete and reuse run closed in
    /// the prefix): built once per call.
    tails: Vec<Option<PairTail>>,
    /// Per tensor, its refill aggregates over the candidate's loops above
    /// each suffix level, laid out as the marks.
    aggs: Vec<CandAgg>,
    /// The positions whose rows phase A writes, ascending: what a bound
    /// sums.
    pub(crate) touched: Vec<usize>,
    /// The candidate's spatial-product ladder over arch positions
    /// `0..=L`: the count pass's and the report phase's instances.
    pub(crate) s_above: Vec<f64>,
    /// The candidate's access-count table, row-major `[arch_pos][tensor]`.
    pub(crate) per: Vec<TensorLevelCounts>,
    /// The candidate's NoC crossing table, same layout.
    pub(crate) crossings: Vec<f64>,
    /// Union-tile scratch.
    union_tile: Vec<u64>,
    /// Report phase: per-partition read and write sums of one level.
    pub(crate) parts: Vec<(f64, f64)>,
}

impl CostModel<'_> {
    /// A fresh scratch for the count kernel (one per evaluation thread);
    /// the same type as [`scratch`](Self::scratch).
    pub fn batch_scratch(&self) -> BatchEvalScratch {
        self.scratch()
    }

    /// Prices every mapping in `mappings` against the shared `prefix` and
    /// calls `emit(i, report)` once per candidate, in candidate order.
    ///
    /// Every mapping's levels `0..=prefix.boundary()` must equal the
    /// levels `prefix` was built from (the caller's contract; they are not
    /// re-read). Each emitted report is **bit-identical** to the
    /// mapping's own [`evaluate_unchecked`](Self::evaluate_unchecked) —
    /// batching shares work across candidates, never changes it within
    /// one.
    pub fn evaluate_prefixed_batch(
        &self,
        prefix: &MappingPrefix,
        mappings: &[Mapping],
        scratch: &mut BatchEvalScratch,
        mut emit: impl FnMut(usize, CostReport),
    ) {
        self.count_each(prefix, mappings, scratch, None, |i, s| {
            emit(i, self.report_from_rows(s.expect("nothing is cut")))
        });
    }

    /// [`evaluate_prefixed_batch`](Self::evaluate_prefixed_batch) for a
    /// caller that only ranks, from any [`NestSource`]: the same tables
    /// and the same arithmetic, but `emit(i, totals)` receives two numbers
    /// instead of a report, so pricing a candidate allocates nothing. The
    /// totals are bit-identical to the `energy_pj` and `delay_cycles` of
    /// the report form.
    ///
    /// Every candidate's levels `0..=prefix.boundary()` must equal the
    /// levels `prefix` was built from.
    pub fn price_prefixed_batch<S: NestSource + ?Sized>(
        &self,
        prefix: &MappingPrefix,
        candidates: &S,
        scratch: &mut BatchEvalScratch,
        mut emit: impl FnMut(usize, CostTotals),
    ) {
        self.count_each(prefix, candidates, scratch, None, |i, s| {
            emit(i, self.totals_from_rows(s.expect("nothing is cut")))
        });
    }

    /// [`price_prefixed_batch`](Self::price_prefixed_batch), cut by a
    /// lower bound: for each candidate whose outermost storing pairs lie
    /// above the prefix, the kernel first prices only those pairs and
    /// hands `past` the bound they give — the model's arithmetic over the
    /// rows they wrote, every other entry counted as 0, never more than the
    /// candidate's totals in either component. When `past` returns `true`
    /// the rest of the candidate is skipped and `emit(i, None)` reports it;
    /// otherwise, and for a candidate with no such pair (no bound, `past`
    /// not called), `emit(i, Some(totals))` receives what
    /// `price_prefixed_batch` would, to the bit.
    pub fn price_prefixed_batch_bounded<S: NestSource + ?Sized>(
        &self,
        prefix: &MappingPrefix,
        candidates: &S,
        scratch: &mut BatchEvalScratch,
        mut past: impl FnMut(CostTotals) -> bool,
        mut emit: impl FnMut(usize, Option<CostTotals>),
    ) {
        let mut cut = |s: &mut BatchEvalScratch| past(self.bound_rows(s));
        self.count_each(prefix, candidates, scratch, Some(&mut cut), |i, s| {
            emit(i, s.map(|s| self.totals_from_rows(s)))
        });
    }

    /// The count pass: fills the count tables of each candidate in turn
    /// — `scratch.per` and `scratch.crossings`, `levels × tensors` each,
    /// and its ladder in `scratch.s_above` — and hands them to
    /// `each(i, Some(scratch))`. What no candidate changes, the cached
    /// pairs' hoisted tails, is built once per call.
    ///
    /// Each candidate is counted in two phases. Phase A writes what each
    /// tensor's outermost storing pair reads — when that pair lies above
    /// the prefix — and prices those pairs: the whole ladder, the tiles up
    /// to the highest such child, the loops above the lowest one and their
    /// refill aggregates. Given a `cut`, `scratch.touched` lists the
    /// positions whose rows phase A wrote, and `cut(scratch)` may end the
    /// candidate there (`each(i, None)`). Phase B resumes — the remaining
    /// loops and marks, the aggregates below continued as the same running
    /// products — and prices every other pair. Pricing the outermost pairs
    /// first changes no bit: every table entry starts at 0 and receives at
    /// most two addends, and a sum of two commutes.
    pub(crate) fn count_each<S: NestSource + ?Sized>(
        &self,
        prefix: &MappingPrefix,
        candidates: &S,
        scratch: &mut BatchEvalScratch,
        mut cut: Option<&mut dyn FnMut(&mut BatchEvalScratch) -> bool>,
        mut each: impl FnMut(usize, Option<&mut BatchEvalScratch>),
    ) {
        let (arch, workload, plan) = (self.arch(), self.workload(), self.plan());
        let n_levels = arch.num_levels();
        let ndims = workload.num_dims();
        let first = prefix.first_undecided();
        debug_assert_eq!(prefix.ndims, ndims);
        let decided = prefix.decided_tile().unwrap_or(&plan.ones);
        let tables = n_levels * workload.num_tensors();
        let s = scratch;
        s.tails.clear();
        s.tails.extend(prefix.pairs.iter().map(|lc| {
            (lc.union_complete && lc.closed)
                .then(|| lc.hoisted_tail(self, workload.tensor(lc.tensor)))
        }));
        // Phase A's pairs: the lowest level whose loops they read, the
        // highest child tile, and — for a bound — the positions they write.
        let (mut lo, mut hi) = (n_levels, -1i64);
        s.touched.clear();
        for (child, p) in workload.tensor_ids().filter_map(|t| self.outer_pair(prefix, t)) {
            lo = lo.min((child + 1) as usize);
            hi = hi.max(child);
            if cut.is_some() {
                s.touched.push(p);
                s.touched.extend(((child + 1) as usize..p).filter(|&q| plan.is_fabric(q)));
                s.touched.extend(usize::try_from(child));
            }
        }
        s.touched.sort_unstable();
        s.touched.dedup();
        // One tensor's refill aggregates above each suffix level, laid out
        // as the marks, tensor after tensor.
        let marks = n_levels - first + 1;
        s.aggs.clear();
        s.aggs.resize(workload.num_tensors() * marks, CandAgg::EMPTY);
        for i in 0..candidates.count() {
            let nest = candidates.nest(i);
            // Phase A. The candidate's spatial-product ladder, over the
            // suffix and composed from the cached mid products below it
            // (exact integer-product regrouping); its resident tiles up to
            // the highest outermost child, extending the prefix's (a tile
            // of ones when it decides nothing); its loops above the lowest.
            s.s_above.clear();
            s.s_above.resize(n_levels + 1, 1.0);
            let cols = &mut s.columns;
            cols.begin(n_levels - first);
            Columns::ladder(plan, &nest, first..n_levels, &mut s.s_above[first..]);
            let s_cand = s.s_above[first];
            for (r, &mid) in s.s_above[..first].iter_mut().zip(&prefix.s_mid) {
                *r = s_cand * mid;
            }
            if let Ok(hi) = usize::try_from(hi) {
                cols.push_resident(&nest, first..hi + 1, decided);
            }
            cols.push_loops(plan, &nest, first, lo..n_levels);
            s.per.clear();
            s.per.resize(tables, TensorLevelCounts::default());
            s.crossings.clear();
            s.crossings.resize(tables, 0.0);
            #[cfg(test)]
            crate::counts::addends::reset(tables);

            for t in workload.tensor_ids() {
                let Some((child, p)) = self.outer_pair(prefix, t) else { continue };
                let tensor = workload.tensor(t);
                let aggs = &mut s.aggs[t.index() * marks..][..marks];
                CandAgg::above_marks(
                    &cols.loops,
                    &cols.marks,
                    tensor.indexing_dims(),
                    aggs,
                    lo - first..marks,
                );
                self.count_above(
                    t,
                    child,
                    p,
                    first,
                    cols,
                    &aggs[(child + 1) as usize - first],
                    &mut s.union_tile,
                    &s.s_above,
                    &mut s.per,
                    &mut s.crossings,
                );
            }
            if lo < n_levels && cut.as_mut().is_some_and(|cut| cut(s)) {
                each(i, None);
                continue;
            }

            // Phase B: the loops below, and every other pair.
            let cols = &mut s.columns;
            cols.push_loops(plan, &nest, first, first..lo);
            let mut cached = prefix.pairs.iter().zip(&s.tails);
            for t in workload.tensor_ids() {
                let tensor = workload.tensor(t);
                let aggs = &mut s.aggs[t.index() * marks..][..marks];
                // Phase A priced the outermost pair and took the aggregates
                // above `lo`.
                let chain = self.chain(t);
                let (resume, chain) = match self.outer_pair(prefix, t) {
                    Some(_) => (lo - first, &chain[..chain.len() - 1]),
                    None => (marks, chain),
                };
                CandAgg::above_marks(
                    &cols.loops,
                    &cols.marks,
                    tensor.indexing_dims(),
                    aggs,
                    0..resume,
                );
                let mut child: i64 = -1;
                for &p in chain {
                    if prefix.caches(child) {
                        // Every loop of the candidate lies above the
                        // pair's child.
                        let (lc, tail) =
                            cached.next().expect("the prefix caches every decided pair");
                        debug_assert!(lc.tensor == t && lc.child == child && lc.p == p);
                        let agg = &aggs[0];
                        match tail {
                            // `refills = all_temporal · pre_refills`: the
                            // closed run makes every candidate temporal
                            // loop a refill.
                            Some(tail) => tail.add(
                                self,
                                agg.all_temporal * lc.pre_refills,
                                agg.distinct * lc.pre_distinct,
                                &s.s_above,
                                &mut s.per,
                                &mut s.crossings,
                            ),
                            // A union tile still open takes the candidate's
                            // spatial loops below the parent: those at
                            // positions `first..p`.
                            None => {
                                let widening = if lc.union_complete { 0 } else { lc.p - first };
                                lc.count(
                                    self,
                                    tensor,
                                    &cols.loops[cols.marks[widening] as usize..],
                                    agg,
                                    &s.s_above,
                                    &mut s.union_tile,
                                    &mut s.per,
                                    &mut s.crossings,
                                );
                            }
                        }
                    } else {
                        let agg = &aggs[(child + 1) as usize - first];
                        self.count_above(
                            t,
                            child,
                            p,
                            first,
                            cols,
                            agg,
                            &mut s.union_tile,
                            &s.s_above,
                            &mut s.per,
                            &mut s.crossings,
                        );
                    }
                    child = p as i64;
                }
            }
            each(i, Some(s));
        }
    }

    /// Tensor `t`'s outermost storing pair `(child, parent)` — the parent
    /// is its outermost storing level — when the pair lies above `prefix`:
    /// what phase A prices.
    fn outer_pair(&self, prefix: &MappingPrefix, t: TensorId) -> Option<(i64, usize)> {
        let chain = self.chain(t);
        let child = chain.len().checked_sub(2).map_or(-1, |c| chain[c] as i64);
        chain.last().filter(|_| !prefix.caches(child)).map(|&p| (child, p))
    }

    /// Prices a pair above the decided prefix (every pair, for the empty
    /// one): the whole-nest kernel over the suffix, whose loops above
    /// `child` and between the two levels the marks delimit; `agg` is the
    /// tensor's aggregates above `child`.
    #[allow(clippy::too_many_arguments)]
    fn count_above(
        &self,
        t: TensorId,
        child: i64,
        p: usize,
        first: usize,
        cols: &Columns,
        agg: &CandAgg,
        union_tile: &mut Vec<u64>,
        s_above: &[f64],
        per: &mut [TensorLevelCounts],
        crossings: &mut [f64],
    ) {
        let ndims = self.plan().ones.len();
        let (above, parent) = ((child + 1) as usize - first, p - first);
        let child_tile = match usize::try_from(child) {
            Ok(c) => &cols.resident[(c - first) * ndims..(c - first + 1) * ndims],
            Err(_) => &self.plan().ones[..],
        };
        count_pair(
            self,
            t,
            self.workload().tensor(t),
            child,
            p,
            &cols.loops[cols.marks[parent] as usize..cols.marks[above] as usize],
            agg,
            child_tile,
            s_above,
            union_tile,
            per,
            crossings,
        );
    }
}

#[cfg(test)]
mod tests {
    use std::cell::Cell;
    use std::slice;

    use super::BatchEvalScratch;
    use crate::counts::addends;
    use crate::{CostModel, CostReport, CostTotals, MappingPrefix, ModelOptions};
    use sunstone_arch::{
        presets, ArchSpec, Binding, BufferPartition, Capacity, Level, MemoryLevel, NocModel,
        SpatialLevel, TensorFilter,
    };
    use sunstone_ir::Workload;
    use sunstone_mapping::{Mapping, MappingLevel};

    fn conv2d() -> Workload {
        let mut b = Workload::builder("conv");
        let k = b.dim("K", 8);
        let c = b.dim("C", 8);
        let p = b.dim("P", 14);
        let q = b.dim("Q", 14);
        let r = b.dim("R", 3);
        let s = b.dim("S", 3);
        b.input("ifmap", [c.expr(), p + r, q + s]);
        b.input_bits("weight", [k.expr(), c.expr(), r.expr(), s.expr()], 8);
        b.output_bits("ofmap", [k.expr(), p.expr(), q.expr()], 24);
        b.build().unwrap()
    }

    fn set(m: &mut Mapping, pos: usize, factors: &[u64]) {
        match &mut m.levels_mut()[pos] {
            MappingLevel::Temporal(t) => t.factors.copy_from_slice(factors),
            MappingLevel::Spatial(s) => s.factors.copy_from_slice(factors),
        }
    }

    /// A fabric below every memory, with a unicast NoC, and an L1 the
    /// output bypasses: every tensor's MAC-boundary pair straddles the
    /// fabric and pays its broadcast fan-out, and the output's only
    /// storing level is DRAM, so its MAC-boundary pair spans the whole
    /// hierarchy.
    fn fabric_first() -> ArchSpec {
        let memory = |name: &str, capacity, energy| {
            MemoryLevel::unified(
                name,
                BufferPartition::new(name, TensorFilter::Any, capacity, energy, energy),
            )
        };
        ArchSpec::new(
            "fabric-first",
            vec![
                Level::Spatial(
                    SpatialLevel::new("lanes", 4)
                        .with_noc(NocModel { multicast: false, per_word_energy_pj: 0.1 }),
                ),
                Level::Memory(
                    memory("L1", Capacity::Bytes(1 << 20), 1.0).with_bypass(TensorFilter::Output),
                ),
                Level::Memory(memory("DRAM", Capacity::Unbounded, 100.0)),
            ],
            1.0,
            16,
        )
    }

    /// Deterministic xorshift: factor streams without a rand dependency.
    struct Rng(u64);
    impl Rng {
        fn next(&mut self) -> u64 {
            let mut x = self.0;
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            self.0 = x;
            x
        }
        fn pick<T: Copy>(&mut self, from: &[T]) -> T {
            from[(self.next() % from.len() as u64) as usize]
        }
    }

    /// `n` candidates over `base`: the base itself, then copies whose
    /// levels from `from` upward carry random factors. They need not
    /// cover the problem exactly — the count pass is pure arithmetic over
    /// the factors, which is what the search prices mid-walk too.
    fn candidates(base: &Mapping, from: usize, rng: &mut Rng, n: usize) -> Vec<Mapping> {
        let n_levels = base.levels().len();
        let mut out = vec![base.clone()];
        while out.len() < n {
            let mut m = base.clone();
            for pos in from..n_levels {
                let ndims = m.level(pos).factors().len();
                let factors: Vec<u64> =
                    (0..ndims).map(|_| rng.pick(&[1u64, 1, 2, 3, 7, 14])).collect();
                set(&mut m, pos, &factors);
            }
            out.push(m);
        }
        out
    }

    /// Prices `cands` against `prefix` at width `cands.len()`, in both
    /// forms, and holds every price to the candidate's own width-1 price
    /// against the empty prefix, bit for bit.
    fn assert_prices_alone(
        model: &CostModel<'_>,
        prefix: &MappingPrefix,
        cands: &[Mapping],
        scratch: &mut BatchEvalScratch,
        what: &str,
    ) {
        let alone: Vec<(CostReport, CostTotals)> = cands
            .iter()
            .map(|c| {
                let report = model.evaluate_unchecked(c);
                let mut totals = None;
                model.price_prefixed_batch(
                    model.empty_prefix(),
                    slice::from_ref(c),
                    &mut model.scratch(),
                    |_, t| totals = Some(t),
                );
                let totals = totals.expect("one candidate, one price");
                assert_eq!(totals.energy_pj.to_bits(), report.energy_pj.to_bits(), "{what}");
                assert_eq!(totals.delay_cycles.to_bits(), report.delay_cycles.to_bits(), "{what}");
                (report, totals)
            })
            .collect();
        if let [c] = cands {
            let single = model.evaluate_prefixed_with(prefix, c, scratch);
            assert_eq!(single, alone[0].0, "{what}: evaluate_prefixed_with");
        }
        let mut seen = 0usize;
        model.evaluate_prefixed_batch(prefix, cands, scratch, |i, got| {
            assert_eq!(i, seen, "emit order is candidate order");
            seen += 1;
            assert_eq!(got, alone[i].0, "{what}: report of candidate {i}");
            assert_eq!(got.edp.to_bits(), alone[i].0.edp.to_bits(), "{what}: candidate {i}");
        });
        assert_eq!(seen, cands.len());
        let mut priced = 0usize;
        model.price_prefixed_batch(prefix, cands, scratch, |i, got| {
            assert_eq!(i, priced, "emit order is candidate order");
            priced += 1;
            let (report, totals) = &alone[i];
            assert_eq!(got.energy_pj.to_bits(), totals.energy_pj.to_bits(), "{what}: {i}");
            assert_eq!(got.delay_cycles.to_bits(), totals.delay_cycles.to_bits(), "{what}: {i}");
            assert_eq!(
                (got.energy_pj * got.delay_cycles).to_bits(),
                report.edp.to_bits(),
                "{what}: the EDP a ranking caller derives is the report's"
            );
        });
        assert_eq!(priced, cands.len());
    }

    /// The grid the kernel's tests walk: every preset and `fabric_first`,
    /// halo credit on and off, every prefix boundary at widths 1, 2 and 17,
    /// and the empty prefix at width 17, over random candidates from one
    /// seed. The presets cover a multi-level spatial hierarchy with
    /// bypasses (Simba) and a memory-only prefix where every pair takes the
    /// hoisted path (conventional); `fabric_first` covers MAC-boundary
    /// pairs that straddle a unicast fabric or span the whole hierarchy and
    /// an output that bypasses its L1. A width-17 run against the empty
    /// prefix itself — how the search's first stage, which has no decided
    /// prefix, prices — varies every level.
    fn for_each_batch(
        mut check: impl FnMut(&CostModel<'_>, &MappingPrefix, &[Mapping], &mut BatchEvalScratch, &str),
    ) {
        let w = conv2d();
        let mut simba = Mapping::streaming(&w, &presets::simba_like());
        set(&mut simba, 0, &[1, 2, 1, 1, 3, 1]); // vector lanes: C, R
        set(&mut simba, 1, &[2, 1, 1, 1, 1, 1]); // weight regs: K
        set(&mut simba, 2, &[1, 2, 2, 1, 1, 3]); // PE lanes: C, P, S
        set(&mut simba, 3, &[2, 2, 1, 1, 1, 1]); // L1: K, C
        set(&mut simba, 5, &[1, 1, 1, 2, 1, 1]); // L2: Q
        set(&mut simba, 6, &[2, 1, 7, 7, 1, 1]); // DRAM: K, P, Q
        let mut fabric = Mapping::streaming(&w, &fabric_first());
        set(&mut fabric, 0, &[2, 2, 1, 1, 1, 1]); // lanes: K, C
        set(&mut fabric, 1, &[1, 2, 2, 1, 3, 3]); // L1: C, P, R, S
        set(&mut fabric, 2, &[4, 2, 7, 14, 1, 1]); // DRAM: the rest
        let streaming = |arch: ArchSpec| {
            let m = Mapping::streaming(&w, &arch);
            (arch, m)
        };
        let cases = [
            (presets::simba_like(), simba),
            streaming(presets::conventional()),
            (fabric_first(), fabric),
            streaming(presets::eyeriss_like()),
            streaming(presets::diannao_like()),
        ];

        let mut rng = Rng(0x5eed_cafe_f00d_u64);
        for (arch, base) in &cases {
            let binding = Binding::resolve(arch, &w).unwrap();
            for options in [ModelOptions::default(), ModelOptions { halo_reuse: false }] {
                let model = CostModel::with_options(&w, arch, &binding, options);
                let mut scratch = model.batch_scratch();
                for boundary in 0..arch.num_levels() {
                    let prefix = model.prefix_of(base, boundary);
                    for width in [1, 2, 17] {
                        let cands = candidates(base, boundary + 1, &mut rng, width);
                        let what = format!(
                            "{}: boundary {boundary}, width {width}, {options:?}",
                            arch.name()
                        );
                        check(&model, &prefix, &cands, &mut scratch, &what);
                    }
                }
                let cands = candidates(base, 0, &mut rng, 17);
                let what = format!("{}: empty prefix, width 17, {options:?}", arch.name());
                check(&model, model.empty_prefix(), &cands, &mut scratch, &what);
            }
        }
    }

    /// One count pass behind every entry point: over the whole grid every
    /// report and every pair of totals equals the candidate's width-1
    /// price against the empty prefix, bit for bit.
    #[test]
    fn every_prefix_and_width_prices_as_the_empty_prefix_alone() {
        for_each_batch(|model, prefix, cands, scratch, what| {
            assert_prices_alone(model, prefix, cands, scratch, what)
        });
    }

    /// The two totals as bits.
    fn bits(t: CostTotals) -> (u64, u64) {
        (t.energy_pj.to_bits(), t.delay_cycles.to_bits())
    }

    /// The three objectives a search ranks by: EDP, energy, delay.
    const OBJECTIVES: [fn(CostTotals) -> f64; 3] =
        [|t| t.energy_pj * t.delay_cycles, |t| t.energy_pj, |t| t.delay_cycles];

    /// Bound before price, over the whole grid:
    /// - the bound is the model's arithmetic over the rows phase A wrote —
    ///   the same bits as pricing the whole partial table — and no
    ///   objective of it exceeds the candidate's;
    /// - the two-phase kernel's totals are `evaluate_unchecked`'s, bit for
    ///   bit, and no count-table entry receives a third addend (what makes
    ///   pricing the outermost pairs first exact);
    /// - a candidate the bound cuts leaves nothing behind: the candidates
    ///   after it price exactly, and only a candidate with a bound is cut.
    #[test]
    fn the_bound_is_admissible_and_the_two_phases_exact() {
        let (mut bounded, mut strict) = (0usize, 0usize);
        for_each_batch(|model, prefix, cands, scratch, what| {
            let exact: Vec<CostTotals> = cands
                .iter()
                .map(|c| {
                    let r = model.evaluate_unchecked(c);
                    CostTotals { energy_pj: r.energy_pj, delay_cycles: r.delay_cycles }
                })
                .collect();
            let bound = Cell::new(None);
            let mut cut = |s: &mut BatchEvalScratch| {
                let b = model.bound_rows(s);
                let whole = model.totals_from_rows(s);
                assert_eq!(bits(b), bits(whole), "{what}: the bound prices phase A's rows");
                bound.set(Some(b));
                false
            };
            model.count_each(prefix, cands, scratch, Some(&mut cut), |i, s| {
                let got = model.totals_from_rows(s.expect("nothing is cut"));
                assert_eq!(bits(got), bits(exact[i]), "{what}: candidate {i}");
                assert!(addends::most() <= 2, "{what}: candidate {i}: a third addend");
                if let Some(b) = bound.take() {
                    bounded += 1;
                    for objective in OBJECTIVES {
                        assert!(objective(b) <= objective(exact[i]), "{what}: candidate {i}");
                    }
                    strict += usize::from(OBJECTIVES[0](b) < OBJECTIVES[0](exact[i]));
                }
            });

            // Cut every other candidate that has a bound.
            let (mut asked, mut cut) = (0usize, 0usize);
            let mut emitted = 0usize;
            let past = |_| {
                asked += 1;
                asked % 2 == 1
            };
            model.price_prefixed_batch_bounded(prefix, cands, scratch, past, |i, got| {
                assert_eq!(i, emitted, "emit order is candidate order");
                emitted += 1;
                match got {
                    Some(got) => assert_eq!(bits(got), bits(exact[i]), "{what}: after a cut, {i}"),
                    None => cut += 1,
                }
            });
            assert_eq!(emitted, cands.len());
            assert_eq!(cut, asked.div_ceil(2), "{what}: exactly the candidates told to go");
        });
        assert!(bounded > 0 && strict > 0, "the grid exercises real bounds: {bounded}, {strict}");
    }

    /// The batch evaluation is bit-identical to the scalar prefixed path
    /// for random candidate sets, at every boundary, with and without
    /// halo credit, on a multi-level spatial hierarchy.
    #[test]
    fn batch_matches_scalar_on_simba() {
        let w = conv2d();
        let arch = presets::simba_like();
        let binding = Binding::resolve(&arch, &w).unwrap();
        let mut base = Mapping::streaming(&w, &arch);
        set(&mut base, 0, &[1, 2, 1, 1, 3, 1]);
        set(&mut base, 1, &[2, 1, 1, 1, 1, 1]);
        set(&mut base, 2, &[1, 2, 2, 1, 1, 3]);
        set(&mut base, 3, &[2, 2, 1, 1, 1, 1]);
        set(&mut base, 5, &[1, 1, 1, 2, 1, 1]);
        set(&mut base, 6, &[2, 1, 7, 7, 1, 1]);
        let mut rng = Rng(0x5eed_cafe_f00d_u64);
        for options in [ModelOptions::default(), ModelOptions { halo_reuse: false }] {
            let model = CostModel::with_options(&w, &arch, &binding, options);
            let mut scalar_scratch = model.scratch();
            let mut batch_scratch = model.batch_scratch();
            for boundary in 0..arch.num_levels() {
                let cands = candidates(&base, boundary + 1, &mut rng, 17);
                let prefix = model.prefix_of(&base, boundary);
                let mut seen = 0usize;
                model.evaluate_prefixed_batch(&prefix, &cands, &mut batch_scratch, |i, got| {
                    assert_eq!(i, seen, "emit order is candidate order");
                    seen += 1;
                    let want =
                        model.evaluate_prefixed_with(&prefix, &cands[i], &mut scalar_scratch);
                    assert_eq!(
                        want, got,
                        "batch diverges from scalar at boundary {boundary}, candidate {i} \
                         ({options:?})"
                    );
                });
                assert_eq!(seen, cands.len());
                // The ranking form hands out the report's own two totals.
                let mut priced = 0usize;
                model.price_prefixed_batch(&prefix, &cands[..], &mut batch_scratch, |i, got| {
                    assert_eq!(i, priced, "emit order is candidate order");
                    priced += 1;
                    let want =
                        model.evaluate_prefixed_with(&prefix, &cands[i], &mut scalar_scratch);
                    assert_eq!(got.energy_pj.to_bits(), want.energy_pj.to_bits());
                    assert_eq!(got.delay_cycles.to_bits(), want.delay_cycles.to_bits());
                    assert_eq!(
                        (got.energy_pj * got.delay_cycles).to_bits(),
                        want.edp.to_bits(),
                        "the EDP a ranking caller derives is the report's"
                    );
                });
                assert_eq!(priced, cands.len());
            }
        }
    }

    /// Same property on the conventional (memory-only) preset, where
    /// union tiles are trivial and every pair takes the hoisted path.
    #[test]
    fn batch_matches_scalar_on_conventional() {
        let w = conv2d();
        let arch = presets::conventional();
        let binding = Binding::resolve(&arch, &w).unwrap();
        let base = Mapping::streaming(&w, &arch);
        let mut rng = Rng(0xdead_beef_1234_u64);
        let model = CostModel::new(&w, &arch, &binding);
        let mut scalar_scratch = model.scratch();
        let mut batch_scratch = model.batch_scratch();
        for boundary in 0..arch.num_levels() {
            let cands = candidates(&base, boundary + 1, &mut rng, 9);
            let prefix = model.prefix_of(&base, boundary);
            model.evaluate_prefixed_batch(&prefix, &cands, &mut batch_scratch, |i, got| {
                let want = model.evaluate_prefixed_with(&prefix, &cands[i], &mut scalar_scratch);
                assert_eq!(want, got, "batch diverges at boundary {boundary}, candidate {i}");
            });
        }
    }

    /// An empty candidate set emits nothing and touches nothing.
    #[test]
    fn empty_batch_is_a_no_op() {
        let w = conv2d();
        let arch = presets::conventional();
        let binding = Binding::resolve(&arch, &w).unwrap();
        let base = Mapping::streaming(&w, &arch);
        let model = CostModel::new(&w, &arch, &binding);
        let prefix = model.prefix_of(&base, 0);
        let mut scratch = model.batch_scratch();
        model.evaluate_prefixed_batch(&prefix, &[], &mut scratch, |_, _| {
            panic!("emit called on an empty batch")
        });
        model.price_prefixed_batch(&prefix, &[] as &[Mapping], &mut scratch, |_, _| {
            panic!("emit called on an empty batch")
        });
    }
}

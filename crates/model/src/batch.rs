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
//! and undecided level, the loop factors — with the remainder a candidate
//! still carries folded in at its completion level — and the loop order.
//! The search feeds it its arena rows in place; `[Mapping]` is the other
//! source, and the same code, monomorphized, prices both.
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

use sunstone_ir::DimId;
use sunstone_mapping::{FlatLoop, LoopKind, Mapping, MappingLevel};

use crate::cost::{CostModel, CostReport, CostTotals, PricingPlan};
use crate::counts::{count_pair, ladder_step, PairTail, TensorLevelCounts};
use crate::prefix::{CandAgg, MappingPrefix};

/// The candidates one count-kernel call prices, as the kernel reads them.
///
/// Per candidate `i` and architecture position `pos` the kernel reads the
/// loop factors and, at a temporal level, the loop order; a candidate that
/// still carries a remainder names the level it completes at, whose
/// factors the kernel multiplies by it. A slice of complete mappings is
/// one source; the search's candidate rows, read in place, are another.
pub trait NestSource {
    /// Number of candidates.
    fn count(&self) -> usize;

    /// Candidate `i`'s loop factors at `pos`, one per dimension, before
    /// completion.
    fn factors(&self, i: usize, pos: usize) -> &[u64];

    /// Candidate `i`'s loop order at the temporal level at `pos`,
    /// innermost first, as dimension indices.
    fn order(&self, i: usize, pos: usize) -> impl DoubleEndedIterator<Item = usize> + '_;

    /// The level candidate `i` completes at and the per-dimension
    /// remainder it places there; `None` for a complete candidate.
    fn completion(&self, i: usize) -> Option<(usize, &[u64])>;
}

impl NestSource for [Mapping] {
    fn count(&self) -> usize {
        self.len()
    }

    fn factors(&self, i: usize, pos: usize) -> &[u64] {
        self[i].level(pos).factors()
    }

    fn order(&self, i: usize, pos: usize) -> impl DoubleEndedIterator<Item = usize> + '_ {
        let order = match self[i].level(pos) {
            MappingLevel::Temporal(t) => &t.order[..],
            MappingLevel::Spatial(_) => &[],
        };
        order.iter().map(|d| d.index())
    }

    fn completion(&self, _: usize) -> Option<(usize, &[u64])> {
        None
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
    /// One level's factors as completed.
    level: Vec<u64>,
}

impl Columns {
    /// The columns of candidate `i` of `source` over `levels`: its
    /// resident tiles, extending `base` (the tile below the levels); its
    /// loops, outermost first, exactly as
    /// [`FlatNest`](sunstone_mapping::FlatNest) flattens them — a temporal
    /// level's looping dimensions in loop order, a fabric's in dimension
    /// order — and their level marks. `ladder[j]` becomes the product of
    /// the spatial factors at positions `≥ levels.start + j`, extending
    /// the product above the levels given in its last entry.
    pub(crate) fn fill<S: NestSource + ?Sized>(
        &mut self,
        plan: &PricingPlan<'_>,
        source: &S,
        i: usize,
        levels: Range<usize>,
        base: &[u64],
        ladder: &mut [f64],
    ) {
        let ndims = base.len();
        let (complete_at, rest) = source.completion(i).unwrap_or((usize::MAX, &[]));
        // Innermost first: each level's resident tile is the one below it
        // times the level's factors as completed.
        self.resident.clear();
        for q in levels.clone() {
            let factors = source.factors(i, q);
            let below = self.resident.len().wrapping_sub(ndims);
            for d in 0..ndims {
                let tile = if q == levels.start { base[d] } else { self.resident[below + d] };
                let f = if q == complete_at { factors[d] * rest[d] } else { factors[d] };
                self.resident.push(tile * f);
            }
        }
        // Outermost first: the loops, their marks and the ladder.
        self.loops.clear();
        self.marks.clear();
        self.marks.resize(levels.len() + 1, 0);
        for q in levels.clone().rev() {
            let j = q - levels.start;
            self.marks[j + 1] = self.loops.len() as u32;
            let mut factors = source.factors(i, q);
            if q == complete_at {
                self.level.clear();
                self.level.extend(factors.iter().zip(rest).map(|(f, r)| f * r));
                factors = &self.level;
            }
            let loops = &mut self.loops;
            let mut push = |d: usize, kind| {
                let factor = factors[d];
                if factor > 1 {
                    loops.push(FlatLoop { dim: DimId::from_index(d), factor, kind, arch_pos: q });
                }
            };
            if plan.is_fabric(q) {
                (0..ndims).for_each(|d| push(d, LoopKind::Spatial));
            } else {
                source.order(i, q).rev().for_each(|d| push(d, LoopKind::Temporal));
            }
            ladder[j] = ladder_step(plan, q, &factors[..ndims], ladder[j + 1]);
        }
        self.marks[0] = self.loops.len() as u32;
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
    /// One tensor's refill aggregates over the candidate's loops above
    /// each suffix level, laid out as the marks.
    aggs: Vec<CandAgg>,
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
    pub(crate) part_reads: Vec<f64>,
    pub(crate) part_writes: Vec<f64>,
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
        self.count_each(prefix, mappings, scratch, |i, s| emit(i, self.report_from_rows(s)));
    }

    /// [`evaluate_prefixed_batch`](Self::evaluate_prefixed_batch) for a
    /// caller that only ranks, from any [`NestSource`]: the same tables
    /// and the same arithmetic, but `emit(i, totals)` receives two numbers
    /// instead of a report, so pricing a candidate allocates nothing. The
    /// totals are bit-identical to the `energy_pj` and `delay_cycles` of
    /// the report form.
    ///
    /// Every candidate's levels `0..=prefix.boundary()`, as completed,
    /// must equal the levels `prefix` was built from.
    pub fn price_prefixed_batch<S: NestSource + ?Sized>(
        &self,
        prefix: &MappingPrefix,
        candidates: &S,
        scratch: &mut BatchEvalScratch,
        mut emit: impl FnMut(usize, CostTotals),
    ) {
        self.count_each(prefix, candidates, scratch, |i, s| emit(i, self.totals_from_rows(s)));
    }

    /// The count pass: fills the count tables of each candidate in turn
    /// — `scratch.per` and `scratch.crossings`, `levels × tensors` each,
    /// and its ladder in `scratch.s_above` — and hands them to
    /// `each(i, scratch)`. What no candidate changes, the cached pairs'
    /// hoisted tails, is built once per call.
    pub(crate) fn count_each<S: NestSource + ?Sized>(
        &self,
        prefix: &MappingPrefix,
        candidates: &S,
        scratch: &mut BatchEvalScratch,
        mut each: impl FnMut(usize, &mut BatchEvalScratch),
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
        for i in 0..candidates.count() {
            // The candidate's loops, marks and resident tiles over the
            // undecided suffix, extending the prefix's (a tile of ones
            // when it decides nothing); its spatial-product ladder, over
            // the suffix and composed from the cached mid products below
            // it (exact integer-product regrouping).
            s.s_above.clear();
            s.s_above.resize(n_levels + 1, 1.0);
            s.columns.fill(plan, candidates, i, first..n_levels, decided, &mut s.s_above[first..]);
            let s_cand = s.s_above[first];
            for (r, &mid) in s.s_above[..first].iter_mut().zip(&prefix.s_mid) {
                *r = s_cand * mid;
            }
            s.per.clear();
            s.per.resize(tables, TensorLevelCounts::default());
            s.crossings.clear();
            s.crossings.resize(tables, 0.0);

            let cols = &s.columns;
            let mut cached = prefix.pairs.iter().zip(&s.tails);
            for t in workload.tensor_ids() {
                let tensor = workload.tensor(t);
                // The refill aggregates over the loops above every suffix
                // level, in one pass over the loops.
                s.aggs.clear();
                CandAgg::above_levels(
                    &cols.loops,
                    &cols.marks,
                    tensor.indexing_dims(),
                    &mut s.aggs,
                );
                let mut child: i64 = -1;
                for &p in &self.chains()[t.index()] {
                    if prefix.caches(child) {
                        // Every loop of the candidate lies above the
                        // pair's child.
                        let (lc, tail) =
                            cached.next().expect("the prefix caches every decided pair");
                        debug_assert!(lc.tensor == t && lc.child == child && lc.p == p);
                        let agg = &s.aggs[0];
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
                        // Pair above the decided prefix (every pair, for
                        // the empty one): the whole-nest kernel over the
                        // suffix, whose loops above `child` and between
                        // the two levels the marks delimit.
                        let (above, parent) = ((child + 1) as usize - first, p - first);
                        let child_tile = match usize::try_from(child) {
                            Ok(c) => &cols.resident[(c - first) * ndims..(c - first + 1) * ndims],
                            Err(_) => &plan.ones[..],
                        };
                        count_pair(
                            self,
                            t,
                            tensor,
                            child,
                            p,
                            &cols.loops[cols.marks[parent] as usize..cols.marks[above] as usize],
                            &s.aggs[above],
                            child_tile,
                            &s.s_above,
                            &mut s.union_tile,
                            &mut s.per,
                            &mut s.crossings,
                        );
                    }
                    child = p as i64;
                }
            }
            each(i, s);
        }
    }
}

#[cfg(test)]
mod tests {
    use std::slice;

    use super::BatchEvalScratch;
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

    /// One count pass behind every entry point: at every prefix boundary
    /// and at widths 1, 2 and 17, with halo credit on and off, every
    /// report and every pair of totals equals the candidate's width-1
    /// price against the empty prefix, bit for bit. The presets cover a
    /// multi-level spatial hierarchy with bypasses (Simba) and a
    /// memory-only prefix where every pair takes the hoisted path
    /// (conventional); `fabric_first` covers MAC-boundary pairs that
    /// straddle a unicast fabric or span the whole hierarchy. A width-17
    /// run against the empty prefix itself — how the search's first stage,
    /// which has no decided prefix, prices — varies every level.
    #[test]
    fn every_prefix_and_width_prices_as_the_empty_prefix_alone() {
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
        let conventional = Mapping::streaming(&w, &presets::conventional());
        let cases = [
            (presets::simba_like(), simba),
            (presets::conventional(), conventional),
            (fabric_first(), fabric),
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
                        assert_prices_alone(&model, &prefix, &cands, &mut scratch, &what);
                    }
                }
                let cands = candidates(base, 0, &mut rng, 17);
                let what = format!("{}: empty prefix, width 17, {options:?}", arch.name());
                assert_prices_alone(&model, model.empty_prefix(), &cands, &mut scratch, &what);
            }
        }
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

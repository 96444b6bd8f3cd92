//! The count kernel: structure-of-arrays pricing of candidates that share
//! a decided prefix — the model's one count pass.
//!
//! One estimate round of the level-by-level search prices hundreds of
//! candidates that share a decided prefix ([`MappingPrefix`]). The kernel
//! decomposes the candidate set once into per-candidate *columns* —
//! CSR-flattened suffix loops, suffix resident tiles, spatial-product
//! ladders, and per-tensor refill aggregates — and then prices each storing
//! pair for the whole batch in one inner loop over the columns.
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
//! the search has decided a level) the pair-invariant quantities
//! (footprints, multicast penalty, halo-window geometry, driving loop)
//! are hoisted out of the candidate loop entirely, leaving a
//! multiply–accumulate over the aggregate columns. Cached pairs that
//! still straddle the frontier are priced candidate by candidate from the
//! cache, and pairs above it by `count_pair` over the candidate's suffix.
//!
//! # Bit-identity
//!
//! Every path performs, per candidate, the floating-point operations of
//! the whole-nest walk in the same association order, except that products
//! of integer-valued factors are regrouped across the prefix boundary
//! (exact below 2⁵³); sums never are. Only the iteration order *across*
//! candidates changes, and candidates never mix arithmetically. A price is
//! therefore the same bits at every width and against every prefix of the
//! mapping, the empty one included (asserted by the tests below).

use sunstone_ir::{DimVec, TensorDesc};
use sunstone_mapping::{FlatLoop, Mapping};

use crate::cost::{CostModel, CostReport, CostTotals};
use crate::counts::{count_pair, fanout, TensorLevelCounts};
use crate::prefix::{flatten_range, CandAgg, LevelCost, MappingPrefix};

/// Reusable tables of the count kernel and of the report phase after it:
/// keep one per evaluation thread; repeated calls only grow the buffers,
/// never reallocate per candidate.
#[derive(Debug, Clone, Default)]
pub struct BatchEvalScratch {
    /// CSR offsets into `loops`: candidate `i`'s suffix loops live at
    /// `loops[off[i]..off[i + 1]]`.
    off: Vec<usize>,
    /// Flattened undecided-suffix loops of every candidate, outermost
    /// first within each candidate.
    loops: Vec<FlatLoop>,
    /// Suffix resident tiles, row-major `[candidate][suffix level]`.
    resident: Vec<DimVec>,
    /// Spatial-product ladders, row-major `[candidate][arch pos 0..=L]`.
    s_above: Vec<f64>,
    /// One tensor's refill aggregates per candidate (rebuilt per tensor).
    aggs: Vec<CandAgg>,
    /// Access-count tables, row-major `[candidate][arch_pos][tensor]`.
    pub(crate) per: Vec<TensorLevelCounts>,
    /// NoC crossing tables, same layout.
    pub(crate) crossings: Vec<f64>,
    /// Union-tile extension scratch for straddling pairs.
    union_tile: DimVec,
    /// Report phase: per-partition read and write sums of one level.
    pub(crate) part_reads: Vec<f64>,
    pub(crate) part_writes: Vec<f64>,
    /// Report phase: instances of each level (its own spatial ladder).
    pub(crate) instances: Vec<f64>,
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
    /// batching reorders work across candidates, never within one.
    pub fn evaluate_prefixed_batch(
        &self,
        prefix: &MappingPrefix,
        mappings: &[Mapping],
        scratch: &mut BatchEvalScratch,
        mut emit: impl FnMut(usize, CostReport),
    ) {
        self.fill_count_tables(prefix, mappings, scratch);
        for (i, m) in mappings.iter().enumerate() {
            emit(i, self.report_from_rows(m, scratch, i));
        }
    }

    /// [`evaluate_prefixed_batch`](Self::evaluate_prefixed_batch) for a
    /// caller that only ranks: the same tables and the same arithmetic,
    /// but `emit(i, totals)` receives two numbers instead of a report, so
    /// pricing a candidate allocates nothing. The totals are bit-identical
    /// to the `energy_pj` and `delay_cycles` of the report form.
    pub fn price_prefixed_batch(
        &self,
        prefix: &MappingPrefix,
        mappings: &[Mapping],
        scratch: &mut BatchEvalScratch,
        mut emit: impl FnMut(usize, CostTotals),
    ) {
        self.fill_count_tables(prefix, mappings, scratch);
        for (i, m) in mappings.iter().enumerate() {
            emit(i, self.totals_from_rows(m, scratch, i));
        }
    }

    /// The count pass: decomposes `mappings` into the per-candidate setup
    /// columns, then fills `scratch.per` and `scratch.crossings` (stride
    /// `levels × tensors` per candidate) tensor by tensor, pair by pair.
    pub(crate) fn fill_count_tables(
        &self,
        prefix: &MappingPrefix,
        mappings: &[Mapping],
        scratch: &mut BatchEvalScratch,
    ) {
        let n = mappings.len();
        let arch = self.arch();
        let workload = self.workload();
        let n_levels = arch.num_levels();
        let ndims = workload.num_dims();
        let first = prefix.first_undecided();
        let n_suffix = n_levels - first;
        debug_assert_eq!(prefix.ndims, ndims);

        // ---- Phase 1: per-candidate setup columns ----------------------
        // CSR suffix loops (exactly `flatten_range`, per candidate).
        scratch.off.clear();
        scratch.off.push(0);
        scratch.loops.clear();
        for m in mappings {
            flatten_range(m, first, n_levels - 1, &mut scratch.loops);
            scratch.off.push(scratch.loops.len());
        }
        // Suffix resident tiles, extending the prefix's accumulation (a
        // tile of ones when it decides nothing).
        let ones = DimVec::ones(ndims);
        let decided = prefix.resident.last().unwrap_or(&ones);
        scratch.resident.clear();
        scratch.resident.reserve(n * n_suffix);
        for m in mappings {
            let mut acc = decided.clone();
            for q in first..n_levels {
                for (t, &f) in acc.iter_mut().zip(m.level(q).factors()) {
                    *t *= f;
                }
                scratch.resident.push(acc.clone());
            }
        }
        // Spatial-product ladders: suffix computed, prefix composed from
        // the cached mid products (exact integer-product regrouping).
        let lstride = n_levels + 1;
        scratch.s_above.clear();
        scratch.s_above.resize(n * lstride, 1.0);
        for (i, m) in mappings.iter().enumerate() {
            let row = &mut scratch.s_above[i * lstride..(i + 1) * lstride];
            for q in (first..n_levels).rev() {
                row[q] = row[q + 1] * fanout(arch, m, q);
            }
            let s_cand = row[first];
            for (r, &mid) in row[..first].iter_mut().zip(&prefix.s_mid) {
                *r = s_cand * mid;
            }
        }

        let stride = n_levels * workload.num_tensors();
        scratch.per.clear();
        scratch.per.resize(n * stride, TensorLevelCounts::default());
        scratch.crossings.clear();
        scratch.crossings.resize(n * stride, 0.0);

        // ---- Phase 2+3: per tensor, aggregate columns then pair loops --
        let mut cached = prefix.pairs.iter();
        for t in workload.tensor_ids() {
            let tensor = workload.tensor(t);
            if prefix.boundary.is_some() {
                let indexing = tensor.indexing_dims();
                let (off, loops) = (&scratch.off, &scratch.loops);
                scratch.aggs.clear();
                scratch
                    .aggs
                    .extend((0..n).map(|i| CandAgg::of(&loops[off[i]..off[i + 1]], indexing)));
            }
            let mut child: i64 = -1;
            for &p in &self.chains()[t.index()] {
                if prefix.caches(child) {
                    let lc = cached.next().expect("the prefix caches every decided pair");
                    debug_assert!(lc.tensor == t && lc.child == child && lc.p == p);
                    self.price_cached_pair(lc, tensor, scratch, n);
                } else {
                    // Pair above the decided prefix (every pair, for the
                    // empty one): the whole-nest kernel over the suffix.
                    for i in 0..n {
                        let child_tile = match usize::try_from(child) {
                            Ok(c) => &scratch.resident[i * n_suffix + (c - first)],
                            Err(_) => &ones,
                        };
                        count_pair(
                            self,
                            t,
                            tensor,
                            child,
                            p,
                            &scratch.loops[scratch.off[i]..scratch.off[i + 1]],
                            child_tile,
                            &scratch.s_above[i * lstride..(i + 1) * lstride],
                            &mut scratch.per[i * stride..(i + 1) * stride],
                            &mut scratch.crossings[i * stride..(i + 1) * stride],
                        );
                    }
                }
                child = p as i64;
            }
        }
    }

    /// Prices one cached prefix pair for the whole batch. The dominant
    /// shape (union tile complete, reuse run closed in the prefix) applies
    /// one hoisted tail per candidate; straddling shapes price each
    /// candidate from the cache.
    fn price_cached_pair(
        &self,
        lc: &LevelCost,
        tensor: &TensorDesc,
        scratch: &mut BatchEvalScratch,
        n: usize,
    ) {
        let lstride = self.arch().num_levels() + 1;
        let stride = (lstride - 1) * self.workload().num_tensors();
        let s = scratch;
        if lc.union_complete && lc.closed {
            // Union tile, footprints, multicast penalty and the driving
            // loop are pair constants; per candidate only the aggregate
            // products vary. `refills = all_temporal · pre_refills`
            // because the closed run makes every candidate temporal loop
            // a refill.
            let tail = lc.hoisted_tail(self, tensor);
            for i in 0..n {
                tail.add(
                    self,
                    s.aggs[i].all_temporal * lc.pre_refills,
                    s.aggs[i].distinct * lc.pre_distinct,
                    &s.s_above[i * lstride..(i + 1) * lstride],
                    &mut s.per[i * stride..(i + 1) * stride],
                    &mut s.crossings[i * stride..(i + 1) * stride],
                );
            }
        } else {
            for i in 0..n {
                lc.count(
                    self,
                    tensor,
                    &s.loops[s.off[i]..s.off[i + 1]],
                    &s.aggs[i],
                    &s.s_above[i * lstride..(i + 1) * lstride],
                    &mut s.union_tile,
                    &mut s.per[i * stride..(i + 1) * stride],
                    &mut s.crossings[i * stride..(i + 1) * stride],
                );
            }
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
    /// run against the empty prefix itself — how top-down stages, which
    /// decide no prefix, price — varies every level.
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
                model.price_prefixed_batch(&prefix, &cands, &mut batch_scratch, |i, got| {
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
        model.price_prefixed_batch(&prefix, &[], &mut scratch, |_, _| {
            panic!("emit called on an empty batch")
        });
    }
}

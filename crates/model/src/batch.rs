//! Structure-of-arrays batch evaluation of prefixed candidates.
//!
//! One estimate round of the level-by-level search prices hundreds of
//! candidates that share a decided prefix ([`MappingPrefix`]). The scalar
//! path ([`CostModel::evaluate_prefixed_with`]) walks tensors × storing
//! pairs per candidate; this module transposes that loop nest: the
//! candidate set is decomposed once into per-candidate *columns* —
//! CSR-flattened suffix loops, suffix resident tiles, spatial-product
//! ladders, and per-tensor refill aggregates — and each storing pair is
//! then priced for the whole batch in one inner loop over the columns.
//!
//! For the dominant pair shape (union tile complete inside the prefix and
//! the reuse run closed there — every pair at or below the frontier once
//! the search has decided a level) the pair-invariant quantities
//! (footprints, multicast penalty, halo-window geometry, driving loop)
//! are hoisted out of the candidate loop entirely, leaving a branch-free
//! multiply–accumulate over the aggregate columns that the compiler can
//! autovectorize. Pairs that still straddle the frontier fall back to the
//! scalar per-pair kernel, candidate by candidate.
//!
//! # Bit-identity
//!
//! Every specialized inner loop performs, per candidate, exactly the
//! floating-point operations of the scalar kernels in the same
//! association order — only the iteration order *across* candidates
//! changes, and candidates never mix arithmetically. The result of
//! [`CostModel::evaluate_prefixed_batch`] is therefore bit-identical to
//! calling [`CostModel::evaluate_prefixed_with`] per candidate (asserted
//! exhaustively by the `batch_matches_scalar_*` tests).

use sunstone_arch::{Level, LevelId};
use sunstone_ir::{DimVec, TensorDesc};
use sunstone_mapping::{FlatLoop, Mapping};

use crate::cost::{CostModel, CostReport, CostTotals, EvalScratch};
use crate::counts::{add_crossings, count_pair, TensorLevelCounts};
use crate::prefix::{count_prefix_pair, flatten_range, CandAgg, LevelCost, MappingPrefix};
use crate::ModelOptions;

/// Reusable per-round SoA tables for
/// [`CostModel::evaluate_prefixed_batch`]: keep one per evaluation thread;
/// repeated rounds only grow the buffers, never reallocate per candidate.
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
    /// Per-tensor aggregate columns (rebuilt per tensor).
    agg_all: Vec<f64>,
    agg_refills: Vec<f64>,
    agg_distinct: Vec<f64>,
    agg_driving: Vec<Option<FlatLoop>>,
    /// Access-count tables, row-major `[candidate][arch_pos][tensor]`.
    per: Vec<TensorLevelCounts>,
    /// NoC crossing tables, same layout.
    crossings: Vec<f64>,
    /// Union-tile extension scratch for straddling pairs.
    union_tile: DimVec,
    /// Report-phase buffers (bandwidth accounting, spatial ladder).
    eval: EvalScratch,
}

/// The halo-refetch computation of one (pair, tile) with every
/// pair-invariant factor folded in; per candidate only `refills` varies.
/// Mirrors `halo_volume` operation-for-operation (see the module note on
/// bit-identity).
#[derive(Debug, Clone, Copy)]
enum HaloKernel {
    /// Degenerate window (`extent == 0`): no words move.
    Zero,
    /// No window overlap to credit: `refills * f`.
    Plain { f: f64 },
    /// Sliding-window credit along the driving loop:
    /// `((refills / drvf) * f) * k` with `k = 1 + (drvf − 1) · frac`.
    Windowed { drvf: f64, f: f64, k: f64 },
}

impl HaloKernel {
    /// Builds the kernel for a pair whose driving loop and tile are
    /// candidate-invariant; the branch structure is `halo_volume`'s,
    /// resolved once instead of per candidate.
    fn of(
        options: ModelOptions,
        tensor: &TensorDesc,
        driving: Option<FlatLoop>,
        tile: &[u64],
        f: f64,
    ) -> Self {
        let Some(drv) = driving else { return HaloKernel::Plain { f } };
        if !options.halo_reuse {
            return HaloKernel::Plain { f };
        }
        let Some(expr) =
            tensor.indices().iter().find(|e| e.terms().iter().any(|t| t.dim == drv.dim))
        else {
            return HaloKernel::Plain { f };
        };
        if !expr.is_compound() {
            return HaloKernel::Plain { f };
        }
        let extent = expr.extent_of(tile) as f64;
        if extent == 0.0 {
            return HaloKernel::Zero;
        }
        let stride =
            expr.terms().iter().find(|t| t.dim == drv.dim).map(|t| t.stride).unwrap_or(1) as f64;
        let shift = stride * tile[drv.dim.index()] as f64;
        let frac = (shift.min(extent)) / extent;
        HaloKernel::Windowed {
            drvf: drv.factor as f64,
            f,
            k: 1.0 + (drv.factor as f64 - 1.0) * frac,
        }
    }

    /// Words fetched over `refills` refill events — the same value (and
    /// the same operation order) `halo_volume` computes.
    #[inline]
    fn apply(self, refills: f64) -> f64 {
        match self {
            HaloKernel::Zero => 0.0,
            HaloKernel::Plain { f } => refills * f,
            HaloKernel::Windowed { drvf, f, k } => refills / drvf * f * k,
        }
    }
}

impl CostModel<'_> {
    /// A fresh SoA scratch for [`evaluate_prefixed_batch`]
    /// (one per evaluation thread).
    ///
    /// [`evaluate_prefixed_batch`]: Self::evaluate_prefixed_batch
    pub fn batch_scratch(&self) -> BatchEvalScratch {
        BatchEvalScratch::default()
    }

    /// Batch form of
    /// [`evaluate_prefixed_with`](Self::evaluate_prefixed_with): prices
    /// every mapping in `mappings` against the shared `prefix` over
    /// structure-of-arrays tables and calls `emit(i, report)` once per
    /// candidate, in candidate order.
    ///
    /// Every mapping's levels `0..=prefix.boundary()` must equal the
    /// levels `prefix` was built from (the caller's contract, as in the
    /// scalar method). Each emitted report is **bit-identical** to the
    /// scalar evaluation of the same mapping — batching reorders work
    /// across candidates, never within one.
    pub fn evaluate_prefixed_batch(
        &self,
        prefix: &MappingPrefix,
        mappings: &[Mapping],
        scratch: &mut BatchEvalScratch,
        mut emit: impl FnMut(usize, CostReport),
    ) {
        let stride = self.fill_count_tables(prefix, mappings, scratch);
        for (i, m) in mappings.iter().enumerate() {
            let report = self.report_from_rows(
                m,
                &scratch.per[i * stride..(i + 1) * stride],
                &scratch.crossings[i * stride..(i + 1) * stride],
                &mut scratch.eval,
            );
            emit(i, report);
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
        let stride = self.fill_count_tables(prefix, mappings, scratch);
        for (i, m) in mappings.iter().enumerate() {
            let totals = self.totals_from_rows(
                m,
                &scratch.per[i * stride..(i + 1) * stride],
                &scratch.crossings[i * stride..(i + 1) * stride],
                &mut scratch.eval,
            );
            emit(i, totals);
        }
    }

    /// Phases 1–3 of the batch evaluation: decomposes `mappings` into the
    /// per-candidate setup columns, then fills `scratch.per` and
    /// `scratch.crossings` tensor by tensor, pair by pair. Returns the
    /// per-candidate stride of the two tables.
    fn fill_count_tables(
        &self,
        prefix: &MappingPrefix,
        mappings: &[Mapping],
        scratch: &mut BatchEvalScratch,
    ) -> usize {
        let n = mappings.len();
        let arch = self.arch();
        let workload = self.workload();
        let n_levels = arch.num_levels();
        let nt = workload.num_tensors();
        let b = prefix.boundary;
        let n_suffix = n_levels - 1 - b;
        debug_assert_eq!(prefix.ndims, workload.num_dims());

        // ---- Phase 1: per-candidate setup columns ----------------------
        // CSR suffix loops (exactly `flatten_range`, per candidate).
        scratch.off.clear();
        scratch.off.push(0);
        scratch.loops.clear();
        for m in mappings {
            flatten_range(m, b + 1, n_levels - 1, &mut scratch.loops);
            scratch.off.push(scratch.loops.len());
        }
        // Suffix resident tiles, extending the cached prefix accumulation.
        scratch.resident.clear();
        scratch.resident.reserve(n * n_suffix);
        for m in mappings {
            let mut acc = prefix.resident[b].clone();
            for q in b + 1..n_levels {
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
            for q in (b + 1..n_levels).rev() {
                let own: f64 = match arch.level(LevelId(q)) {
                    Level::Spatial(_) => m.level(q).factors().iter().map(|&f| f as f64).product(),
                    Level::Memory(_) => 1.0,
                };
                row[q] = row[q + 1] * own;
            }
            let s_cand = row[b + 1];
            for (r, &mid) in row[..=b].iter_mut().zip(&prefix.s_mid) {
                *r = s_cand * mid;
            }
        }

        let stride = n_levels * nt;
        scratch.per.clear();
        scratch.per.resize(n * stride, TensorLevelCounts::default());
        scratch.crossings.clear();
        scratch.crossings.resize(n * stride, 0.0);

        // ---- Phase 2+3: per tensor, aggregate columns then pair loops --
        let chains = self.chains();
        let options = self.options();
        let mut pair_idx = 0usize;
        for t in workload.tensor_ids() {
            let tensor = workload.tensor(t);
            let indexing = tensor.indexing_dims();
            scratch.agg_all.clear();
            scratch.agg_refills.clear();
            scratch.agg_distinct.clear();
            scratch.agg_driving.clear();
            for i in 0..n {
                let cand = &scratch.loops[scratch.off[i]..scratch.off[i + 1]];
                let agg = CandAgg::of(cand, indexing);
                scratch.agg_all.push(agg.all_temporal);
                scratch.agg_refills.push(agg.refills);
                scratch.agg_distinct.push(agg.distinct);
                scratch.agg_driving.push(agg.driving);
            }
            let mut child: i64 = -1;
            for &p in &chains[t.index()] {
                if child <= b as i64 {
                    let lc = &prefix.pairs[pair_idx];
                    pair_idx += 1;
                    debug_assert!(lc.tensor == t && lc.child == child && lc.p == p);
                    batch_prefix_pair(self, lc, tensor, scratch, n, nt, n_levels);
                } else {
                    // Pair fully above the decided prefix: the scalar
                    // suffix-only kernel, candidate by candidate.
                    for i in 0..n {
                        let cand = &scratch.loops[scratch.off[i]..scratch.off[i + 1]];
                        let row = &scratch.s_above[i * lstride..(i + 1) * lstride];
                        let child_tile = &scratch.resident[i * n_suffix + (child as usize - b - 1)];
                        count_pair(
                            workload,
                            arch,
                            options,
                            t,
                            tensor,
                            child,
                            p,
                            cand,
                            child_tile,
                            row[p + 1],
                            row[child as usize + 1],
                            &mut scratch.per[i * stride..(i + 1) * stride],
                            &mut scratch.crossings[i * stride..(i + 1) * stride],
                        );
                    }
                }
                child = p as i64;
            }
        }

        stride
    }
}

/// Prices one cached prefix pair for the whole batch. The dominant shapes
/// (union tile complete, reuse run closed in the prefix) run hoisted
/// inner loops over the aggregate columns; straddling shapes fall back to
/// the scalar `count_prefix_pair` per candidate.
fn batch_prefix_pair(
    model: &CostModel<'_>,
    lc: &LevelCost,
    tensor: &TensorDesc,
    scratch: &mut BatchEvalScratch,
    n: usize,
    nt: usize,
    n_levels: usize,
) {
    let workload = model.workload();
    let arch = model.arch();
    let options = model.options();
    let indexing = tensor.indexing_dims();
    let is_output = tensor.is_output();
    let stride = n_levels * nt;
    let lstride = n_levels + 1;
    let t = lc.tensor;
    let p = lc.p;

    if !(lc.union_complete && lc.closed) {
        // Straddling pair (union still extends into the candidate, or the
        // reuse run hands over to the candidate's own scan): per-candidate
        // scalar kernel over the CSR columns.
        for i in 0..n {
            let cand = &scratch.loops[scratch.off[i]..scratch.off[i + 1]];
            let row = &scratch.s_above[i * lstride..(i + 1) * lstride];
            let s_p = row[p + 1];
            let s_c = if lc.child < 0 { row[0] } else { row[lc.child as usize + 1] };
            let agg = CandAgg {
                all_temporal: scratch.agg_all[i],
                refills: scratch.agg_refills[i],
                distinct: scratch.agg_distinct[i],
                driving: scratch.agg_driving[i],
            };
            count_prefix_pair(
                workload,
                arch,
                options,
                lc,
                tensor,
                indexing,
                cand,
                &agg,
                s_p,
                s_c,
                &mut scratch.union_tile,
                &mut scratch.per[i * stride..(i + 1) * stride],
                &mut scratch.crossings[i * stride..(i + 1) * stride],
            );
        }
        return;
    }

    // Hoisted path: union tile, footprints, multicast penalty, and the
    // driving loop are pair constants; per candidate only the aggregate
    // products vary. `refills = all_temporal · pre_refills` because the
    // closed run makes every candidate temporal loop a refill.
    let f_union = lc.f_union;
    let non_mc = lc.non_mc;
    let f_child = lc.f_child;
    let pre_refills = lc.pre_refills;
    let pre_distinct = lc.pre_distinct;

    if is_output {
        for i in 0..n {
            let refills = scratch.agg_all[i] * pre_refills;
            let distinct = scratch.agg_distinct[i] * pre_distinct;
            let reloads = (refills - distinct).max(0.0);
            let row = &scratch.s_above[i * lstride..(i + 1) * lstride];
            let s_p = row[p + 1];
            let s_c = if lc.child < 0 { row[0] } else { row[lc.child as usize + 1] };
            let per = &mut scratch.per[i * stride..(i + 1) * stride];
            per[p * nt + t.index()].updates += refills * f_union * non_mc * s_p;
            per[p * nt + t.index()].reads += reloads * f_union * non_mc * s_p;
            if lc.child >= 0 {
                let c = lc.child as usize;
                per[c * nt + t.index()].reads += refills * f_child * s_c;
                per[c * nt + t.index()].fills += reloads * f_child * s_c;
            }
            let crossing_words = (refills + reloads) * f_child * s_c;
            add_crossings(
                workload,
                arch,
                t,
                lc.child,
                p,
                crossing_words,
                &mut scratch.crossings[i * stride..(i + 1) * stride],
            );
        }
    } else {
        let parent_kernel =
            HaloKernel::of(options, tensor, lc.pre_driving, &lc.union_tile, f_union);
        let child_kernel = HaloKernel::of(options, tensor, lc.pre_driving, &lc.child_tile, f_child);
        for i in 0..n {
            let refills = scratch.agg_all[i] * pre_refills;
            let parent_vol = parent_kernel.apply(refills);
            let child_vol = child_kernel.apply(refills);
            let row = &scratch.s_above[i * lstride..(i + 1) * lstride];
            let s_p = row[p + 1];
            let s_c = if lc.child < 0 { row[0] } else { row[lc.child as usize + 1] };
            let per = &mut scratch.per[i * stride..(i + 1) * stride];
            per[p * nt + t.index()].reads += parent_vol * non_mc * s_p;
            if lc.child >= 0 {
                let c = lc.child as usize;
                per[c * nt + t.index()].fills += child_vol * s_c;
            }
            add_crossings(
                workload,
                arch,
                t,
                lc.child,
                p,
                child_vol * s_c,
                &mut scratch.crossings[i * stride..(i + 1) * stride],
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::{CostModel, ModelOptions};
    use sunstone_arch::{presets, ArchSpec, Binding};
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

    /// Random candidate suffixes over a shared prefix mapping: each
    /// candidate varies the factors and orders of the levels above
    /// `boundary`. The candidates need not cover the problem exactly —
    /// the count pass is pure arithmetic over the factors, which is what
    /// the search evaluates mid-walk too.
    fn random_candidates(
        base: &Mapping,
        arch: &ArchSpec,
        boundary: usize,
        rng: &mut Rng,
        n: usize,
    ) -> Vec<Mapping> {
        let n_levels = arch.num_levels();
        (0..n)
            .map(|_| {
                let mut m = base.clone();
                for pos in boundary + 1..n_levels {
                    let ndims = m.level(pos).factors().len();
                    let factors: Vec<u64> =
                        (0..ndims).map(|_| rng.pick(&[1u64, 1, 2, 3, 7, 14])).collect();
                    set(&mut m, pos, &factors);
                }
                m
            })
            .collect()
    }

    /// The SoA batch evaluation is bit-identical to the scalar prefixed
    /// path for random candidate sets, at every boundary, with and
    /// without halo credit, on a multi-level spatial hierarchy.
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
                let cands = random_candidates(&base, &arch, boundary, &mut rng, 17);
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
            let cands = random_candidates(&base, &arch, boundary, &mut rng, 9);
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

//! Prefix-incremental evaluation (the "LevelCost" decomposition).
//!
//! The level-by-level search (paper Section III-C / V-A) expands many
//! candidates from one parent state: every candidate shares all mapping
//! levels at positions `0..=boundary` (the decided prefix) and differs
//! only in the frontier and completion levels above. A walk of the whole
//! nest would recompute the prefix's resident tiles, spatial products,
//! and per-(tensor, storing-pair) refill analysis for each candidate.
//!
//! [`MappingPrefix`] caches that shared portion once, as composable
//! per-storing-pair [`LevelCost`] entries, so the count kernel
//! ([`crate::batch`]) prices each candidate as *cached prefix ⊕ suffix
//! delta*:
//!
//! - resident tiles and spatial products of the suffix extend the cached
//!   prefix values,
//! - storing pairs fully inside the prefix reuse their cached tiles and
//!   footprints; pairs straddling the boundary extend the cached partial
//!   union tile with the candidate's spatial loops; pairs fully above the
//!   boundary run the ordinary [`count_pair`](crate::counts::count_pair)
//!   over the suffix loops only,
//! - the refill/reuse-run analysis composes algebraically: the innermost
//!   reuse run either closes inside the prefix (`closed`, the candidate
//!   contributes all its temporal factors as refills and the driving loop
//!   is the prefix's breaking loop) or stays open (the run continues into
//!   the candidate, whose own trailing-run scan takes over).
//!
//! The empty prefix ([`crate::CostModel::empty_prefix`]) decides no level:
//! it caches no pair, so every pair is priced by `count_pair` over the
//! candidate's whole nest — the full evaluation.
//!
//! Every composed quantity is a *product* regrouping of the quantities
//! the full walk computes — integer-valued `f64` products are exact below
//! 2⁵³ under any association, and all sums are accumulated in the same
//! order into the same tables — so a prefixed price is bit-identical to
//! the empty-prefix price within the model's own documented exactness
//! envelope.

use sunstone_arch::ArchSpec;
use sunstone_ir::{DimSet, DimVec, TensorDesc, TensorId, Workload};
use sunstone_mapping::{FlatLoop, LoopKind, Mapping, MappingLevel};

use crate::counts::{fanout, reuse_suffix_start, widen_union, PairTail, TensorLevelCounts};
use crate::CostModel;

/// The cached, composable cost contribution of one (tensor, storing-level
/// pair) whose child boundary lies inside the decided prefix.
#[derive(Debug, Clone)]
pub(crate) struct LevelCost {
    pub(crate) tensor: TensorId,
    /// Child storing position (−1 = the MAC boundary).
    pub(crate) child: i64,
    /// Parent storing position.
    pub(crate) p: usize,
    /// Resident tile at the child boundary.
    pub(crate) child_tile: DimVec,
    /// Footprint of `child_tile`, in words.
    pub(crate) f_child: f64,
    /// Union tile: `child_tile` extended by the *prefix's* spatial loops
    /// strictly between `child` and `p`. Complete iff `p ≤ boundary`;
    /// otherwise the candidate's spatial loops below `p` still extend it.
    pub(crate) union_tile: DimVec,
    /// Prefix part of the non-multicast penalty factor.
    pub(crate) non_mc: f64,
    /// `p ≤ boundary`: `union_tile`/`f_union`/`non_mc` need no extension.
    pub(crate) union_complete: bool,
    /// Footprint of the union tile — valid only when `union_complete`.
    pub(crate) f_union: f64,
    /// The innermost reuse run closed inside the prefix (an indexing
    /// temporal loop of the tensor lies in the prefix above `child`).
    /// Always true at the MAC boundary.
    pub(crate) closed: bool,
    /// Product of the prefix's refill-contributing temporal factors
    /// (everything above the run; 1 when the run is open).
    pub(crate) pre_refills: f64,
    /// Product of the prefix's indexing temporal factors above `child`.
    pub(crate) pre_distinct: f64,
    /// The run-breaking loop when `closed` (None at the MAC boundary,
    /// where the model forces a no-reuse refill per operand).
    pub(crate) pre_driving: Option<FlatLoop>,
}

/// The memoized shared portion of all candidates expanded from one parent
/// state: everything the count pass derives from mapping levels
/// `0..=boundary`. Build once per (stage, parent) with
/// [`crate::CostModel::prefix_of`], price many candidates with
/// [`crate::CostModel::price_prefixed_batch`]. The empty prefix
/// ([`crate::CostModel::empty_prefix`]) decides no level.
#[derive(Debug, Clone)]
pub struct MappingPrefix {
    /// The highest decided architecture position; `None` decides nothing.
    pub(crate) boundary: Option<usize>,
    pub(crate) ndims: usize,
    /// Resident tiles at positions `0..=boundary`.
    pub(crate) resident: Vec<DimVec>,
    /// `s_mid[q]` = Π spatial factors at positions `q..=boundary`
    /// (length `boundary + 2`, `s_mid[boundary + 1] = 1`).
    pub(crate) s_mid: Vec<f64>,
    /// Cached pair contributions in chain-walk order (per tensor, pairs
    /// with `child ≤ boundary` — a per-tensor prefix of its chain).
    pub(crate) pairs: Vec<LevelCost>,
}

impl MappingPrefix {
    /// The prefix that decides no level.
    pub(crate) fn empty(ndims: usize) -> Self {
        MappingPrefix {
            boundary: None,
            ndims,
            resident: Vec::new(),
            s_mid: Vec::new(),
            pairs: Vec::new(),
        }
    }

    /// The decided-prefix boundary this cache was built for (the highest
    /// architecture position whose mapping level it covers); `None` for
    /// the empty prefix.
    pub fn boundary(&self) -> Option<usize> {
        self.boundary
    }

    /// The lowest architecture position the prefix leaves undecided.
    pub(crate) fn first_undecided(&self) -> usize {
        self.boundary.map_or(0, |b| b + 1)
    }

    /// Whether the storing pair with child boundary `child` is cached.
    pub(crate) fn caches(&self, child: i64) -> bool {
        self.boundary.is_some_and(|b| child <= b as i64)
    }
}

/// Candidate-suffix refill aggregates of one tensor, shared by all of its
/// prefix pairs.
#[derive(Debug, Clone, Copy)]
pub(crate) struct CandAgg {
    /// Π of all temporal factors in the suffix.
    pub(crate) all_temporal: f64,
    /// Π of refill-contributing temporal factors when the run is open
    /// (the suffix's own trailing-run scan).
    pub(crate) refills: f64,
    /// Π of indexing temporal factors in the suffix.
    pub(crate) distinct: f64,
    /// The suffix's own run-breaking loop (None if its run never closes).
    pub(crate) driving: Option<FlatLoop>,
}

impl CandAgg {
    pub(crate) fn of(cand: &[FlatLoop], indexing: DimSet) -> Self {
        let local = reuse_suffix_start(cand, indexing);
        let all_temporal =
            cand.iter().filter(|l| !l.is_spatial()).map(|l| l.factor as f64).product();
        let refills =
            cand[..local].iter().filter(|l| !l.is_spatial()).map(|l| l.factor as f64).product();
        let driving = cand[..local].iter().rev().find(|l| !l.is_spatial()).copied();
        let distinct = cand
            .iter()
            .filter(|l| !l.is_spatial() && indexing.contains(l.dim))
            .map(|l| l.factor as f64)
            .product();
        CandAgg { all_temporal, refills, distinct, driving }
    }
}

/// Flattens the mapping levels at `positions` (an inclusive range walked
/// outermost-first) exactly like `FlatNest::refill` does.
pub(crate) fn flatten_range(
    mapping: &Mapping,
    lo: usize,
    hi_inclusive: usize,
    out: &mut Vec<FlatLoop>,
) {
    for pos in (lo..=hi_inclusive).rev() {
        match &mapping.levels()[pos] {
            MappingLevel::Temporal(t) => {
                for &d in t.order.iter().rev() {
                    let f = t.factors[d.index()];
                    if f > 1 {
                        out.push(FlatLoop {
                            dim: d,
                            factor: f,
                            kind: LoopKind::Temporal,
                            arch_pos: pos,
                        });
                    }
                }
            }
            MappingLevel::Spatial(s) => {
                for (i, &f) in s.factors.iter().enumerate() {
                    if f > 1 {
                        out.push(FlatLoop {
                            dim: sunstone_ir::DimId::from_index(i),
                            factor: f,
                            kind: LoopKind::Spatial,
                            arch_pos: pos,
                        });
                    }
                }
            }
        }
    }
}

/// Builds the prefix cache for mapping levels `0..=boundary`.
pub(crate) fn build_prefix(
    workload: &Workload,
    arch: &ArchSpec,
    chains: &[Vec<usize>],
    mapping: &Mapping,
    boundary: usize,
) -> MappingPrefix {
    let n_levels = arch.num_levels();
    // True invariant, not input validation: boundaries are stage indices
    // produced by the search itself, never user data. A violation is a
    // scheduler bug, and the panic-isolation boundary at the public API
    // converts it into a typed internal error.
    assert!(boundary < n_levels, "prefix boundary {boundary} out of range");
    let ndims = workload.num_dims();

    let mut pre: Vec<FlatLoop> = Vec::new();
    flatten_range(mapping, 0, boundary, &mut pre);

    let mut resident = Vec::with_capacity(boundary + 1);
    let mut acc = DimVec::ones(ndims);
    for q in 0..=boundary {
        for (t, &f) in acc.iter_mut().zip(mapping.level(q).factors()) {
            *t *= f;
        }
        resident.push(acc.clone());
    }

    let mut s_mid = vec![1.0f64; boundary + 2];
    for q in (0..=boundary).rev() {
        s_mid[q] = s_mid[q + 1] * fanout(arch, mapping, q);
    }

    let mut pairs = Vec::new();
    for t in workload.tensor_ids() {
        let tensor = workload.tensor(t);
        let mut child: i64 = -1;
        for &p in &chains[t.index()] {
            if child > boundary as i64 {
                break;
            }
            pairs.push(level_cost(arch, tensor, t, child, p, boundary, &pre, &resident, ndims));
            child = p as i64;
        }
    }

    MappingPrefix { boundary: Some(boundary), ndims, resident, s_mid, pairs }
}

#[allow(clippy::too_many_arguments)]
fn level_cost(
    arch: &ArchSpec,
    tensor: &TensorDesc,
    t: TensorId,
    child: i64,
    p: usize,
    boundary: usize,
    pre: &[FlatLoop],
    resident: &[DimVec],
    ndims: usize,
) -> LevelCost {
    let indexing = tensor.indexing_dims();
    let child_tile: DimVec =
        if child < 0 { DimVec::ones(ndims) } else { resident[child as usize].clone() };
    let mut union_tile = child_tile.clone();
    let non_mc = widen_union(arch, indexing, pre, child, p, &mut union_tile, 1.0);
    let union_complete = p <= boundary;
    let f_child = tensor.footprint(&child_tile) as f64;
    let f_union = if union_complete { tensor.footprint(&union_tile) as f64 } else { 0.0 };

    let cut = pre.iter().position(|l| (l.arch_pos as i64) <= child).unwrap_or(pre.len());
    let agg = CandAgg::of(&pre[..cut], indexing);
    // Above a storing child the run closes in the prefix exactly when an
    // indexing temporal loop lies there, and that loop is the driver; at
    // the MAC boundary every temporal loop is a refill.
    let (closed, pre_refills, pre_driving) = if child < 0 {
        (true, agg.all_temporal, None)
    } else {
        (agg.driving.is_some(), agg.refills, agg.driving)
    };

    LevelCost {
        tensor: t,
        child,
        p,
        child_tile,
        f_child,
        union_tile,
        non_mc,
        union_complete,
        f_union,
        closed,
        pre_refills,
        pre_distinct: agg.distinct,
        pre_driving,
    }
}

impl LevelCost {
    /// The pair's tail when the union tile is complete and the reuse run
    /// closed: then nothing of it depends on the candidate.
    pub(crate) fn hoisted_tail(&self, model: &CostModel<'_>, tensor: &TensorDesc) -> PairTail {
        debug_assert!(self.union_complete && self.closed);
        self.tail(model, tensor, self.non_mc, self.pre_driving, &self.union_tile, self.f_union)
    }

    /// The pair's tail with the given union tile, penalty and driver.
    fn tail(
        &self,
        model: &CostModel<'_>,
        tensor: &TensorDesc,
        non_mc: f64,
        driving: Option<FlatLoop>,
        union_tile: &[u64],
        f_union: f64,
    ) -> PairTail {
        PairTail::new(
            model,
            tensor,
            self.tensor,
            self.child,
            self.p,
            non_mc,
            driving,
            union_tile,
            f_union,
            &self.child_tile,
            self.f_child,
        )
    }

    /// Prices this pair for one candidate suffix `cand` with refill
    /// aggregates `agg`; the prefix portions come from the cache.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn count(
        &self,
        model: &CostModel<'_>,
        tensor: &TensorDesc,
        cand: &[FlatLoop],
        agg: &CandAgg,
        s_above: &[f64],
        union_scratch: &mut DimVec,
        per: &mut [TensorLevelCounts],
        crossings: &mut [f64],
    ) {
        // Union tile: cached when complete; otherwise extend the cached
        // prefix part with the candidate's spatial loops below `p`.
        let (f_union, non_mc, union_tile): (f64, f64, &DimVec) = if self.union_complete {
            (self.f_union, self.non_mc, &self.union_tile)
        } else {
            union_scratch.clone_from(&self.union_tile);
            let indexing = tensor.indexing_dims();
            let non_mc = widen_union(
                model.arch(),
                indexing,
                cand,
                self.child,
                self.p,
                union_scratch,
                self.non_mc,
            );
            (tensor.footprint(union_scratch) as f64, non_mc, &*union_scratch)
        };

        // Compose the refill-run analysis: a run closed inside the prefix
        // makes every candidate temporal loop a refill and keeps the
        // prefix's breaking loop as driver; an open run hands over to the
        // candidate's own trailing-run scan (pre_refills is 1 then).
        let (refills, driving) = if self.closed {
            (agg.all_temporal * self.pre_refills, self.pre_driving)
        } else {
            (agg.refills * self.pre_refills, agg.driving)
        };
        let distinct = agg.distinct * self.pre_distinct;

        let tail = self.tail(model, tensor, non_mc, driving, union_tile, f_union);
        tail.add(model, refills, distinct, s_above, per, crossings);
    }
}

#[cfg(test)]
mod tests {
    use crate::{CostModel, ModelOptions};
    use sunstone_arch::{presets, Binding};
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

    /// Prefixed evaluation is bit-identical to the full pass at every
    /// possible boundary, with and without halo credit.
    #[test]
    fn prefixed_matches_full_at_every_boundary() {
        let w = conv2d();
        let arch = presets::simba_like();
        let binding = Binding::resolve(&arch, &w).unwrap();
        // A mapping exercising temporal orders, spatial unrolls, and
        // bypassed levels across the Simba hierarchy.
        let mut m = Mapping::streaming(&w, &arch);
        set(&mut m, 0, &[1, 2, 1, 1, 3, 1]); // vector lanes: C, R
        set(&mut m, 1, &[2, 1, 1, 1, 1, 1]); // weight regs: K
        set(&mut m, 2, &[1, 2, 2, 1, 1, 3]); // PE lanes: C, P, S
        set(&mut m, 3, &[2, 2, 1, 1, 1, 1]); // L1: K, C
        set(&mut m, 5, &[1, 1, 1, 2, 1, 1]); // L2: Q
        set(&mut m, 6, &[2, 1, 7, 7, 1, 1]); // DRAM: K, P, Q
        for options in [ModelOptions::default(), ModelOptions { halo_reuse: false }] {
            let model = CostModel::with_options(&w, &arch, &binding, options);
            let full = model.evaluate_unchecked(&m);
            let mut scratch = model.scratch();
            for boundary in 0..arch.num_levels() {
                let prefix = model.prefix_of(&m, boundary);
                let prefixed = model.evaluate_prefixed_with(&prefix, &m, &mut scratch);
                assert_eq!(
                    full, prefixed,
                    "prefixed evaluation diverges at boundary {boundary} ({options:?})"
                );
            }
        }
    }
}

//! Prefix-incremental evaluation (the "LevelCost" decomposition).
//!
//! The level-by-level search (paper Section III-C / V-A) expands many
//! candidates from one parent state: every candidate shares all mapping
//! levels at positions `0..=boundary` (the decided prefix) and differs
//! only in the frontier and outermost levels above. A walk of the whole
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

use std::ops::Range;

use sunstone_ir::{DimSet, DimVec, TensorDesc, TensorId};
use sunstone_mapping::FlatLoop;

use crate::batch::{Columns, Nest};
use crate::counts::{widen_union, PairTail, TensorLevelCounts};
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
    /// Whether the prefix's spatial loops widened `union_tile` at all.
    pub(crate) widened: bool,
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
    /// Resident tiles at positions `0..=boundary`, `ndims` words each.
    resident: Vec<u64>,
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

    /// The resident tile at the boundary, which the undecided levels
    /// extend; `None` for the empty prefix.
    pub(crate) fn decided_tile(&self) -> Option<&[u64]> {
        self.resident.len().checked_sub(self.ndims).map(|at| &self.resident[at..])
    }
}

/// One tensor's refill aggregates over a run of loops (outermost first):
/// a candidate's suffix, shared by all of the tensor's prefix pairs, or
/// the loops above one pair's child.
///
/// The loops' innermost contiguous run of temporal loops that do not index
/// the tensor (spatial loops are transparent) is its temporal reuse; the
/// temporal loops before the run are its refills, and the indexing loop
/// that breaks the run drives them.
#[derive(Debug, Clone, Copy)]
pub(crate) struct CandAgg {
    /// Π of all temporal factors.
    pub(crate) all_temporal: f64,
    /// Π of the refill-contributing temporal factors: those before the
    /// trailing reuse run.
    pub(crate) refills: f64,
    /// Π of indexing temporal factors.
    pub(crate) distinct: f64,
    /// The run-breaking loop (None if no indexing temporal loop closes
    /// the run).
    pub(crate) driving: Option<FlatLoop>,
}

impl CandAgg {
    /// The aggregates of no loops.
    pub(crate) const EMPTY: CandAgg =
        CandAgg { all_temporal: 1.0, refills: 1.0, distinct: 1.0, driving: None };

    /// Extends the aggregates by the next loop inward. Every product is a
    /// running product in loop order, so it is the fold over the loops so
    /// far to the bit. An indexing temporal loop closes the run: the
    /// refills are then every temporal factor so far and it drives them;
    /// a temporal loop that does not index the tensor joins the run.
    #[inline]
    fn push(&mut self, l: &FlatLoop, indexing: DimSet) {
        if l.is_spatial() {
            return;
        }
        let f = l.factor as f64;
        self.all_temporal *= f;
        if indexing.contains(l.dim) {
            self.distinct *= f;
            self.refills = self.all_temporal;
            self.driving = Some(*l);
        }
    }

    /// The aggregates of the loops `cand`.
    pub(crate) fn of(cand: &[FlatLoop], indexing: DimSet) -> Self {
        let mut agg = Self::EMPTY;
        cand.iter().for_each(|l| agg.push(l, indexing));
        agg
    }

    /// Sets `out[j]`, for each `j` in `marks` descending, to the
    /// aggregates of the loops above mark `j` — `loops[..mark[j]]`, with
    /// marks falling as `j` rises — continuing those of `out[marks.end]`
    /// (the aggregates of no loops when `marks` runs to the last mark): in
    /// one pass over the loops, and the same bits whether the marks are
    /// taken in one call or in several.
    pub(crate) fn above_marks(
        loops: &[FlatLoop],
        mark: &[u32],
        indexing: DimSet,
        out: &mut [CandAgg],
        marks: Range<usize>,
    ) {
        let (mut agg, mut done) = match out.get(marks.end) {
            Some(&agg) => (agg, mark[marks.end] as usize),
            None => (Self::EMPTY, 0),
        };
        for j in marks.rev() {
            let end = mark[j] as usize;
            loops[done..end].iter().for_each(|l| agg.push(l, indexing));
            done = end;
            out[j] = agg;
        }
    }
}

/// Builds the prefix cache for mapping levels `0..=boundary`.
pub(crate) fn build_prefix(
    model: &CostModel<'_>,
    nest: &impl Nest,
    boundary: usize,
) -> MappingPrefix {
    let (workload, plan) = (model.workload(), model.plan());
    // True invariant, not input validation: boundaries are stage indices
    // produced by the search itself, never user data. A violation is a
    // scheduler bug, and the panic-isolation boundary at the public API
    // converts it into a typed internal error.
    assert!(boundary < model.arch().num_levels(), "prefix boundary {boundary} out of range");
    let ndims = workload.num_dims();

    let (mut cols, mut s_mid) = (Columns::default(), vec![1.0f64; boundary + 2]);
    cols.fill(plan, nest, 0..boundary + 1, &plan.ones, &mut s_mid);
    let Columns { loops: pre, marks, resident, .. } = cols;

    let mut pairs = Vec::new();
    for t in workload.tensor_ids() {
        let tensor = workload.tensor(t);
        let mut child: i64 = -1;
        for &p in model.chain(t) {
            if child > boundary as i64 {
                break;
            }
            pairs.push(level_cost(model, tensor, t, child, p, boundary, &pre, &marks, &resident));
            child = p as i64;
        }
    }

    MappingPrefix { boundary: Some(boundary), ndims, resident, s_mid, pairs }
}

#[allow(clippy::too_many_arguments)]
fn level_cost(
    model: &CostModel<'_>,
    tensor: &TensorDesc,
    t: TensorId,
    child: i64,
    p: usize,
    boundary: usize,
    pre: &[FlatLoop],
    marks: &[u32],
    resident: &[u64],
) -> LevelCost {
    let indexing = tensor.indexing_dims();
    let ndims = model.plan().ones.len();
    let child_tile = match usize::try_from(child) {
        Ok(c) => DimVec::from_slice(&resident[c * ndims..(c + 1) * ndims]),
        Err(_) => DimVec::ones(ndims),
    };
    // The prefix's loops above `child`, and those below `p` among them.
    let above = &pre[..marks[(child + 1) as usize] as usize];
    let between = &above[marks[p.min(boundary + 1)] as usize..];
    let mut union_tile = child_tile.clone();
    let (non_mc, widened) = widen_union(model.plan(), indexing, between, &mut union_tile, 1.0);
    let union_complete = p <= boundary;
    let f_child = tensor.footprint(&child_tile) as f64;
    let f_union = if union_complete { tensor.footprint(&union_tile) as f64 } else { 0.0 };

    let agg = CandAgg::of(above, indexing);
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
        widened,
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
        let union = self.widened.then(|| (&self.union_tile[..], self.f_union));
        self.tail(model, tensor, self.non_mc, self.pre_driving, union)
    }

    /// The pair's tail with the given union tile and footprint (`None`:
    /// the child's), penalty and driver.
    fn tail(
        &self,
        model: &CostModel<'_>,
        tensor: &TensorDesc,
        non_mc: f64,
        driving: Option<FlatLoop>,
        union: Option<(&[u64], f64)>,
    ) -> PairTail {
        PairTail::new(
            model,
            tensor,
            self.tensor,
            self.child,
            self.p,
            non_mc,
            driving,
            union,
            &self.child_tile,
            self.f_child,
        )
    }

    /// Prices this pair for one candidate whose suffix has the refill
    /// aggregates `agg` and, below `p`, the loops `widening` (read only
    /// while the union tile is incomplete); the prefix portions come from
    /// the cache. `union_scratch` is scratch for the union tile.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn count(
        &self,
        model: &CostModel<'_>,
        tensor: &TensorDesc,
        widening: &[FlatLoop],
        agg: &CandAgg,
        s_above: &[f64],
        union_scratch: &mut Vec<u64>,
        per: &mut [TensorLevelCounts],
        crossings: &mut [f64],
    ) {
        // Union tile: cached when complete; otherwise extend the cached
        // prefix part with the candidate's spatial loops below `p`.
        let (union, non_mc) = if self.union_complete {
            (self.widened.then(|| (&self.union_tile[..], self.f_union)), self.non_mc)
        } else {
            union_scratch.clear();
            union_scratch.extend_from_slice(&self.union_tile);
            let indexing = tensor.indexing_dims();
            let (non_mc, widened) =
                widen_union(model.plan(), indexing, widening, union_scratch, self.non_mc);
            let union = (self.widened || widened)
                .then(|| (&union_scratch[..], tensor.footprint(union_scratch) as f64));
            (union, non_mc)
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

        let tail = self.tail(model, tensor, non_mc, driving, union);
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

//! Per-level access counting — the core of the analytic model.

use serde::{Deserialize, Serialize};
use sunstone_arch::{ArchSpec, Binding};
use sunstone_ir::{DimSet, TensorDesc, TensorId, Workload};
use sunstone_mapping::{FlatLoop, Mapping};

use crate::cost::PricingPlan;
use crate::prefix::CandAgg;
use crate::{CostModel, ModelOptions};

/// Per-tensor chains of storing memory positions, innermost first, one
/// after another, and where each tensor's starts (one more entry than
/// tensors).
///
/// The chain depends only on *(workload, architecture, binding)*, so
/// [`CostModel`] derives it once instead of re-walking the binding per
/// mapping.
pub(crate) fn storage_chains(
    workload: &Workload,
    arch: &ArchSpec,
    binding: &Binding,
) -> (Vec<usize>, Vec<usize>) {
    let mut chains = Vec::with_capacity(workload.num_tensors() * arch.num_levels());
    let mut starts = Vec::with_capacity(workload.num_tensors() + 1);
    starts.push(0);
    for t in workload.tensor_ids() {
        let stores = arch.memory_levels().filter(|(id, _)| binding.stores(*id, t));
        chains.extend(stores.map(|(id, _)| id.index()));
        starts.push(chains.len());
    }
    (chains, starts)
}

/// Access counts of one tensor at one memory level, in words.
///
/// Counts are `f64` because products of loop bounds on large workloads can
/// exceed `u64`; all small-case counts are exact (below 2⁵³).
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct TensorLevelCounts {
    /// Words read out of the level (serving children, MAC operands, or
    /// output evictions).
    pub reads: f64,
    /// Words written into the level from its parent (input refills and
    /// partial-sum reloads).
    pub fills: f64,
    /// Words written into the level from below (output partials and
    /// results).
    pub updates: f64,
}

impl TensorLevelCounts {
    /// Total accesses (reads + writes).
    pub fn total(&self) -> f64 {
        self.reads + self.fills + self.updates
    }

    /// Total writes (fills + updates).
    pub fn writes(&self) -> f64 {
        self.fills + self.updates
    }
}

/// The full access-count table of a mapping: per memory level, per tensor,
/// plus per-spatial-level NoC crossings.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AccessCounts {
    /// Row stride of the flattened tables below.
    n_tensors: usize,
    /// Row-major `[arch_pos][tensor]`; rows for spatial levels are zeroed.
    per: Vec<TensorLevelCounts>,
    /// Row-major `[arch_pos][tensor]`: words of the tensor delivered
    /// across the spatial level at `arch_pos`; rows for memory levels are
    /// zeroed.
    crossings: Vec<f64>,
}

impl AccessCounts {
    /// Computes access counts for a structurally valid mapping.
    ///
    /// The mapping must mirror the architecture and cover the problem
    /// exactly (use [`sunstone_mapping::ValidationContext`] first);
    /// capacity violations do not affect counting and are checked
    /// separately.
    pub fn compute(
        workload: &Workload,
        arch: &ArchSpec,
        binding: &Binding,
        mapping: &Mapping,
        options: ModelOptions,
    ) -> Self {
        // The count kernel at width 1 against the empty prefix.
        let model = CostModel::with_options(workload, arch, binding, options);
        let mut scratch = model.scratch();
        let mapping = std::slice::from_ref(mapping);
        model.count_each(model.empty_prefix(), mapping, &mut scratch, None, |_, _| {});
        AccessCounts {
            n_tensors: workload.num_tensors(),
            per: scratch.per,
            crossings: scratch.crossings,
        }
    }

    /// Counts of `tensor` at architecture position `pos`.
    pub fn at(&self, pos: usize, tensor: TensorId) -> TensorLevelCounts {
        self.per[pos * self.n_tensors + tensor.index()]
    }

    /// Total reads+writes of all tensors at architecture position `pos`.
    pub fn level_total(&self, pos: usize) -> f64 {
        let row = &self.per[pos * self.n_tensors..(pos + 1) * self.n_tensors];
        row.iter().map(TensorLevelCounts::total).sum()
    }

    /// Words of `tensor` crossing the spatial level at `pos`.
    pub fn crossings(&self, pos: usize, tensor: TensorId) -> f64 {
        self.crossings[pos * self.n_tensors + tensor.index()]
    }

    /// Number of architecture levels covered.
    pub fn num_levels(&self) -> usize {
        self.per.len() / self.n_tensors.max(1)
    }
}

/// Accounts for the data movement of `tensor` between the storing level at
/// `p` and its child storing level at `child` (−1 = the MAC boundary).
///
/// `between` is the nest's loops strictly between `child` and `p` (they
/// widen the union tile), and `agg` the refill aggregates of its loops
/// above `child` ([`CandAgg`]); a caller that knows every loop above some
/// boundary can take both from a suffix nest. At the MAC boundary
/// (`child < 0`) there is no temporal reuse: the innermost storing level
/// is read once per MAC per operand — registers must be modelled as
/// explicit memory levels (as in the Simba preset) to reuse operands
/// across MACs. `s_above` is the candidate's spatial-product ladder:
/// `s_above[q]` = Π spatial factors at positions `≥ q`. `union` is
/// scratch for the union tile.
#[allow(clippy::too_many_arguments)]
pub(crate) fn count_pair(
    model: &CostModel<'_>,
    t: TensorId,
    tensor: &TensorDesc,
    child: i64,
    p: usize,
    between: &[FlatLoop],
    agg: &CandAgg,
    child_tile: &[u64],
    s_above: &[f64],
    union: &mut Vec<u64>,
    per: &mut [TensorLevelCounts],
    crossings: &mut [f64],
) {
    let indexing = tensor.indexing_dims();
    union.clear();
    union.extend_from_slice(child_tile);
    let (non_mc, widened) = widen_union(model.plan(), indexing, between, union, 1.0);
    let f_child = tensor.footprint(child_tile) as f64;
    let f_union = widened.then(|| tensor.footprint(union) as f64);

    // At the MAC boundary every temporal loop is a refill and none drives.
    let (refills, driving) =
        if child < 0 { (agg.all_temporal, None) } else { (agg.refills, agg.driving) };

    let union = f_union.map(|f| (&union[..], f));
    let tail =
        PairTail::new(model, tensor, t, child, p, non_mc, driving, union, child_tile, f_child);
    tail.add(model, refills, agg.distinct, s_above, per, crossings);
}

/// Extends `union_tile` by the spatial loops of `between` — loops strictly
/// between a pair's two levels — and returns `non_mc` times the fan-out of
/// those that broadcast the tensor over a NoC without multicast, and
/// whether any loop widened the tile.
pub(crate) fn widen_union(
    plan: &PricingPlan<'_>,
    indexing: DimSet,
    between: &[FlatLoop],
    union_tile: &mut [u64],
    mut non_mc: f64,
) -> (f64, bool) {
    let mut widened = false;
    for l in between.iter().filter(|l| l.is_spatial()) {
        union_tile[l.dim.index()] *= l.factor;
        widened = true;
        if !plan.multicast(l.arch_pos) && !indexing.contains(l.dim) {
            non_mc *= l.factor as f64;
        }
    }
    (non_mc, widened)
}

/// The last step of the count pass for one storing pair: with the pair's
/// tiles, footprints, multicast penalty and halo geometry fixed, it turns
/// a candidate's refill counts into table entries. Every path through the
/// count kernel ends here, so the accumulation is written once.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PairTail {
    t: TensorId,
    child: i64,
    p: usize,
    non_mc: f64,
    flow: Flow,
}

#[derive(Debug, Clone, Copy)]
enum Flow {
    /// An output: evictions travel up (child read → parent update),
    /// revisits travel down (parent read → child fill).
    Output { f_union: f64, f_child: f64 },
    /// An input: parent reads and child fills, each with its halo credit.
    Input { parent: HaloKernel, child: HaloKernel },
}

impl PairTail {
    /// The tail of the pair whose union tile and footprint are `union`, or
    /// — when `None` — the child tile and its footprint: no loop between
    /// the two levels widened it, so the parent's halo kernel is the
    /// child's.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        model: &CostModel<'_>,
        tensor: &TensorDesc,
        t: TensorId,
        child: i64,
        p: usize,
        non_mc: f64,
        driving: Option<FlatLoop>,
        union: Option<(&[u64], f64)>,
        child_tile: &[u64],
        f_child: f64,
    ) -> Self {
        let flow = if tensor.is_output() {
            Flow::Output { f_union: union.map_or(f_child, |(_, f)| f), f_child }
        } else {
            let plan = model.plan();
            let child = HaloKernel::of(plan, t, driving, child_tile, f_child);
            let parent = match union {
                Some((tile, f)) => HaloKernel::of(plan, t, driving, tile, f),
                None => child,
            };
            Flow::Input { parent, child }
        };
        PairTail { t, child, p, non_mc, flow }
    }

    /// Adds one candidate's traffic: `refills` refill events of the child
    /// tile, `distinct` of them to an output tile not visited before.
    /// `s_above` is the candidate's spatial-product ladder.
    #[inline]
    pub(crate) fn add(
        &self,
        model: &CostModel<'_>,
        refills: f64,
        distinct: f64,
        s_above: &[f64],
        per: &mut [TensorLevelCounts],
        crossings: &mut [f64],
    ) {
        let nt = model.workload().num_tensors();
        let (at_p, non_mc) = (self.p * nt + self.t.index(), self.non_mc);
        let s_p = s_above[self.p + 1];
        let s_c = s_above[(self.child + 1) as usize];
        let at_child = (self.child >= 0).then(|| self.child as usize * nt + self.t.index());
        let crossing_words = match self.flow {
            Flow::Output { f_union, f_child } => {
                let reloads = (refills - distinct).max(0.0);
                per[at_p].updates += refills * f_union * non_mc * s_p;
                per[at_p].reads += reloads * f_union * non_mc * s_p;
                #[cfg(test)]
                addends::tally(at_p, &[addends::UPDATES, addends::READS]);
                if let Some(c) = at_child {
                    per[c].reads += refills * f_child * s_c;
                    per[c].fills += reloads * f_child * s_c;
                    #[cfg(test)]
                    addends::tally(c, &[addends::READS, addends::FILLS]);
                }
                (refills + reloads) * f_child * s_c
            }
            Flow::Input { parent, child } => {
                let child_vol = child.apply(refills);
                per[at_p].reads += parent.apply(refills) * non_mc * s_p;
                #[cfg(test)]
                addends::tally(at_p, &[addends::READS]);
                if let Some(c) = at_child {
                    per[c].fills += child_vol * s_c;
                    #[cfg(test)]
                    addends::tally(c, &[addends::FILLS]);
                }
                child_vol * s_c
            }
        };
        // Every word delivered to the child crosses each fabric between.
        let plan = model.plan();
        for pos in (self.child + 1) as usize..self.p {
            if plan.is_fabric(pos) {
                crossings[pos * nt + self.t.index()] += crossing_words;
                #[cfg(test)]
                addends::tally(pos * nt + self.t.index(), &[addends::CROSSINGS]);
            }
        }
    }
}

/// A ledger of how many addends each count-table entry received for the
/// candidate being counted: the kernel prices the pairs in any order only
/// because no entry receives more than two, so the tests hold it to that.
#[cfg(test)]
pub(crate) mod addends {
    use std::cell::RefCell;

    pub(crate) const READS: usize = 0;
    pub(crate) const FILLS: usize = 1;
    pub(crate) const UPDATES: usize = 2;
    pub(crate) const CROSSINGS: usize = 3;

    thread_local! {
        static LEDGER: RefCell<Vec<[u8; 4]>> = const { RefCell::new(Vec::new()) };
    }

    /// Starts a candidate over `entries` entries per table.
    pub(crate) fn reset(entries: usize) {
        LEDGER.with(|l| {
            let mut l = l.borrow_mut();
            l.clear();
            l.resize(entries, [0; 4]);
        });
    }

    /// One addend into each of `fields` of entry `at`.
    pub(crate) fn tally(at: usize, fields: &[usize]) {
        LEDGER.with(|l| fields.iter().for_each(|&f| l.borrow_mut()[at][f] += 1));
    }

    /// The most addends any entry received since the last reset.
    pub(crate) fn most() -> u8 {
        LEDGER.with(|l| l.borrow().iter().flatten().copied().max().unwrap_or(0))
    }
}

/// Words fetched over a pair's refill events with the halo (sliding-window)
/// credit folded in: every factor but the number of refills is fixed by
/// the pair, so the branch structure is resolved once per pair.
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
    /// The kernel for a tile of tensor `t` with footprint `f` refilled
    /// along `driving`.
    fn of(
        plan: &PricingPlan<'_>,
        t: TensorId,
        driving: Option<FlatLoop>,
        tile: &[u64],
        f: f64,
    ) -> Self {
        let Some(drv) = driving else { return HaloKernel::Plain { f } };
        // A plain index (or no credit): every refill is a full refetch.
        let Some((expr, stride)) = plan.halo(t, drv.dim) else {
            return HaloKernel::Plain { f };
        };
        let extent = expr.extent_of(tile) as f64;
        if extent == 0.0 {
            return HaloKernel::Zero;
        }
        let shift = stride * tile[drv.dim.index()] as f64;
        let frac = (shift.min(extent)) / extent;
        // refills = sweeps × drv.factor; within a sweep, the first refill
        // is a full fetch and the remaining (factor − 1) fetch only the
        // fresh window portion.
        HaloKernel::Windowed {
            drvf: drv.factor as f64,
            f,
            k: 1.0 + (drv.factor as f64 - 1.0) * frac,
        }
    }

    /// Words fetched over `refills` refill events.
    #[inline]
    fn apply(self, refills: f64) -> f64 {
        match self {
            HaloKernel::Zero => 0.0,
            HaloKernel::Plain { f } => refills * f,
            HaloKernel::Windowed { drvf, f, k } => refills / drvf * f * k,
        }
    }
}

/// Extends a spatial-product ladder down one level: `above` times the
/// fan-out of the level at `pos` whose factors are `factors` — their
/// product, in `f64` so adversarial fan-outs cannot wrap `u64` — at a
/// fabric; `above` itself at a memory.
#[inline]
pub(crate) fn ladder_step(plan: &PricingPlan<'_>, pos: usize, factors: &[u64], above: f64) -> f64 {
    if plan.is_fabric(pos) {
        above * factors.iter().map(|&f| f as f64).product::<f64>()
    } else {
        above
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sunstone_arch::{
        presets, ArchSpec, BufferPartition, Capacity, Level, LevelId, MemoryLevel, SpatialLevel,
        TensorFilter,
    };
    use sunstone_mapping::{MappingLevel, SpatialAssignment, TemporalLevel, ValidationContext};

    /// 1-D conv with C input channels: the paper's running example from
    /// Section III (Algorithms 4 and 5).
    fn conv1d(k: u64, c: u64, p: u64, r: u64) -> Workload {
        let mut b = Workload::builder("conv1d");
        let kk = b.dim("K", k);
        let cc = b.dim("C", c);
        let pp = b.dim("P", p);
        let rr = b.dim("R", r);
        b.input("ifmap", [cc.expr(), pp + rr]);
        b.input("weight", [kk.expr(), cc.expr(), rr.expr()]);
        b.output("ofmap", [kk.expr(), pp.expr()]);
        b.build().unwrap()
    }

    /// Two-level memory: L1 (pos 0) and "L2" as the unbounded outer memory
    /// (pos 1) — exactly the paper's Algorithm 4 setting.
    fn two_level_arch() -> ArchSpec {
        ArchSpec::new(
            "algo4",
            vec![
                Level::Memory(MemoryLevel::unified(
                    "L1",
                    BufferPartition::new(
                        "l1",
                        TensorFilter::Any,
                        Capacity::Bytes(1 << 20),
                        1.0,
                        1.0,
                    ),
                )),
                Level::Memory(MemoryLevel::unified(
                    "L2",
                    BufferPartition::new("l2", TensorFilter::Any, Capacity::Unbounded, 10.0, 10.0),
                )),
            ],
            1.0,
            16,
        )
    }

    /// Algorithm 5: L1, a spatial grid, then unbounded L2.
    fn spatial_arch(units: u64) -> ArchSpec {
        ArchSpec::new(
            "algo5",
            vec![
                Level::Memory(MemoryLevel::unified(
                    "L1",
                    BufferPartition::new(
                        "l1",
                        TensorFilter::Any,
                        Capacity::Bytes(1 << 20),
                        1.0,
                        1.0,
                    ),
                )),
                Level::Spatial(SpatialLevel::new("grid", units)),
                Level::Memory(MemoryLevel::unified(
                    "L2",
                    BufferPartition::new("l2", TensorFilter::Any, Capacity::Unbounded, 10.0, 10.0),
                )),
            ],
            1.0,
            16,
        )
    }

    fn no_halo() -> ModelOptions {
        ModelOptions { halo_reuse: false }
    }

    /// Builds the Algorithm-4 mapping: L1 tile (K_L1, C_L1, P_L1, R), L2
    /// loops (K_L2, C_L2, P_L2) with order P_L2, K_L2, C_L2
    /// (outermost-first), i.e. C innermost.
    fn algo4_mapping(w: &Workload, k1: u64, c1: u64, p1: u64) -> Mapping {
        let d = |n: &str| w.dim_by_name(n).unwrap();
        let (k, c, p, r) =
            (w.dim_size(d("K")), w.dim_size(d("C")), w.dim_size(d("P")), w.dim_size(d("R")));
        Mapping::from_levels(vec![
            MappingLevel::Temporal(TemporalLevel {
                mem: LevelId(0),
                factors: vec![k1, c1, p1, r],
                order: vec![d("R"), d("C"), d("K"), d("P")],
            }),
            MappingLevel::Temporal(TemporalLevel {
                mem: LevelId(1),
                factors: vec![k / k1, c / c1, p / p1, 1],
                // innermost-first: C, K, P  (paper: for p2 { for k2 { for c2 }}).
                order: vec![d("C"), d("K"), d("P"), d("R")],
            }),
        ])
    }

    fn counts_for(
        w: &Workload,
        arch: &ArchSpec,
        m: &Mapping,
        options: ModelOptions,
    ) -> (AccessCounts, Binding) {
        let binding = Binding::resolve(arch, w).unwrap();
        let ctx = ValidationContext::new(w, arch, &binding);
        ctx.validate(m).expect("test mapping must be valid");
        (AccessCounts::compute(w, arch, &binding, m, options), binding)
    }

    /// Paper Equations 1–3: L2 access counts for Algorithm 4.
    #[test]
    fn paper_equations_1_to_3() {
        let (k, c, p, r) = (8u64, 4, 28, 3);
        let w = conv1d(k, c, p, r);
        let arch = two_level_arch();
        let (k1, c1, p1) = (2u64, 2, 7);
        let (k2, _c2, p2) = (k / k1, c / c1, p / p1);
        let m = algo4_mapping(&w, k1, c1, p1);
        let (counts, _) = counts_for(&w, &arch, &m, no_halo());

        let ifmap = w.tensor_by_name("ifmap").unwrap();
        let weight = w.tensor_by_name("weight").unwrap();
        let ofmap = w.tensor_by_name("ofmap").unwrap();

        // Eq 1: ifmap reads from L2 = K_L2 × C × P_L2 (P_L1 + R − 1).
        assert_eq!(counts.at(1, ifmap).reads, (k2 * c * p2 * (p1 + r - 1)) as f64);
        // Eq 2: weight reads from L2 = C × K × R × P_L2.
        assert_eq!(counts.at(1, weight).reads, (c * k * r * p2) as f64);
        // Eq 3: ofmap accesses at L2 = P × K (all final updates, no reloads
        // because C is the innermost L2 loop).
        assert_eq!(counts.at(1, ofmap).updates, (p * k) as f64);
        assert_eq!(counts.at(1, ofmap).reads, 0.0);
    }

    /// Changing the innermost L2 loop from C to K destroys the ofmap reuse:
    /// psums now travel up and back down C_L2 times (Ordering Principle 2).
    #[test]
    fn ordering_principle_2_breaks_reuse() {
        let (k, c, p, r) = (8u64, 4, 28, 3);
        let w = conv1d(k, c, p, r);
        let arch = two_level_arch();
        let mut m = algo4_mapping(&w, 2, 2, 7);
        let d = |n: &str| w.dim_by_name(n).unwrap();
        if let MappingLevel::Temporal(t) = &mut m.levels_mut()[1] {
            // innermost-first: K, C, P → C loop is *outside* K.
            t.order = vec![d("K"), d("C"), d("P"), d("R")];
        }
        let (counts, _) = counts_for(&w, &arch, &m, no_halo());
        let ofmap = w.tensor_by_name("ofmap").unwrap();
        let (c2, p2, k2) = (2.0, 4.0, 4.0);
        // Refills = P_L2 × C_L2 × K_L2 (K innermost indexes ofmap, so no
        // trailing reuse run); distinct = P_L2 × K_L2.
        let f_l1 = (2 * 7) as f64; // K_L1 × P_L1
        assert_eq!(counts.at(1, ofmap).updates, p2 * c2 * k2 * f_l1);
        assert_eq!(counts.at(1, ofmap).reads, p2 * (c2 - 1.0) * k2 * f_l1);
    }

    /// Paper Equations 5–7: spatial unrolling with multicast.
    #[test]
    fn paper_equations_5_to_7() {
        let (k, c, p, r) = (8u64, 4, 28, 3);
        let w = conv1d(k, c, p, r);
        let arch = spatial_arch(16);
        let d = |n: &str| w.dim_by_name(n).unwrap();
        let (k1, c1, p1) = (2u64, 2, 7);
        let (ks, cs, ps) = (2u64, 1, 2); // spatial unrolls
        let (k2, c2, p2) = (k / k1 / ks, c / c1 / cs, p / p1 / ps);
        let m = Mapping::from_levels(vec![
            MappingLevel::Temporal(TemporalLevel {
                mem: LevelId(0),
                factors: vec![k1, c1, p1, r],
                order: vec![d("R"), d("C"), d("K"), d("P")],
            }),
            MappingLevel::Spatial(SpatialAssignment {
                fabric: LevelId(1),
                factors: vec![ks, cs, ps, 1],
            }),
            MappingLevel::Temporal(TemporalLevel {
                mem: LevelId(2),
                factors: vec![k2, c2, p2, 1],
                order: vec![d("C"), d("K"), d("P"), d("R")],
            }),
        ]);
        let (counts, _) = counts_for(&w, &arch, &m, no_halo());
        let ifmap = w.tensor_by_name("ifmap").unwrap();
        let weight = w.tensor_by_name("weight").unwrap();
        let ofmap = w.tensor_by_name("ofmap").unwrap();

        // Eq 5: ifmap = K_L2 P_L2 C_L2 (P_sp·P_L1 + R − 1) · C_sp·C_L1.
        assert_eq!(counts.at(2, ifmap).reads, (k2 * p2 * c2 * (ps * p1 + r - 1) * cs * c1) as f64);
        // Eq 6: weight = K_L2 P_L2 C_L2 · C_sp C_L1 K_sp K_L1 R.
        assert_eq!(counts.at(2, weight).reads, (k2 * p2 * c2 * cs * c1 * ks * k1 * r) as f64);
        // Eq 7: ofmap = P_L2 K_L2 · (P_sp P_L1 K_sp K_L1) = P × K (C inner).
        assert_eq!(counts.at(2, ofmap).updates, (p * k) as f64);
        assert_eq!(counts.at(2, ofmap).reads, 0.0);
    }

    /// L1 fills are per-unit (no multicast dedup on the receiving side).
    #[test]
    fn fills_count_every_receiving_unit() {
        let (k, c, p, r) = (8u64, 4, 28, 3);
        let w = conv1d(k, c, p, r);
        let arch = spatial_arch(16);
        let d = |n: &str| w.dim_by_name(n).unwrap();
        let m = Mapping::from_levels(vec![
            MappingLevel::Temporal(TemporalLevel {
                mem: LevelId(0),
                factors: vec![2, 2, 7, r],
                order: vec![d("R"), d("C"), d("K"), d("P")],
            }),
            MappingLevel::Spatial(SpatialAssignment {
                fabric: LevelId(1),
                factors: vec![2, 1, 2, 1],
            }),
            MappingLevel::Temporal(TemporalLevel {
                mem: LevelId(2),
                factors: vec![2, 2, 2, 1],
                order: vec![d("C"), d("K"), d("P"), d("R")],
            }),
        ]);
        let (counts, _) = counts_for(&w, &arch, &m, no_halo());
        let ifmap = w.tensor_by_name("ifmap").unwrap();
        // Each refill fills all 4 units with their own (smaller) tiles even
        // though K-broadcast dedups the L2 reads.
        let refills = (2 * 2 * 2) as f64; // K_L2 × C_L2 × P_L2
        let f_l1 = ((7 + r - 1) * 2) as f64;
        assert_eq!(counts.at(0, ifmap).fills, refills * f_l1 * 4.0);
    }

    /// Without multicast, broadcast dims multiply parent reads.
    #[test]
    fn unicast_noc_pays_per_receiver() {
        let (k, c, p, r) = (8u64, 4, 28, 3);
        let w = conv1d(k, c, p, r);
        let mut arch = spatial_arch(16);
        let levels: Vec<Level> = arch
            .levels()
            .iter()
            .cloned()
            .map(|l| match l {
                Level::Spatial(s) => Level::Spatial(s.with_noc(sunstone_arch::NocModel {
                    multicast: false,
                    per_word_energy_pj: 0.0,
                })),
                other => other,
            })
            .collect();
        arch = ArchSpec::new("unicast", levels, 1.0, 16);
        let d = |n: &str| w.dim_by_name(n).unwrap();
        let m = Mapping::from_levels(vec![
            MappingLevel::Temporal(TemporalLevel {
                mem: LevelId(0),
                factors: vec![2, 2, 7, r],
                order: vec![d("R"), d("C"), d("K"), d("P")],
            }),
            MappingLevel::Spatial(SpatialAssignment {
                fabric: LevelId(1),
                factors: vec![2, 1, 1, 1], // K ×2: ifmap is broadcast
            }),
            MappingLevel::Temporal(TemporalLevel {
                mem: LevelId(2),
                factors: vec![2, 2, 4, 1],
                order: vec![d("C"), d("K"), d("P"), d("R")],
            }),
        ]);
        let binding = Binding::resolve(&arch, &w).unwrap();
        let counts = AccessCounts::compute(&w, &arch, &binding, &m, no_halo());
        let ifmap = w.tensor_by_name("ifmap").unwrap();
        let refills = (2 * 2 * 4) as f64;
        let f_l1 = ((7 + r - 1) * 2) as f64;
        // Unicast: the K-broadcast costs ×2 reads at L2.
        assert_eq!(counts.at(2, ifmap).reads, refills * f_l1 * 2.0);
    }

    /// Halo reuse: when P drives ifmap refills, adjacent tiles share
    /// R − 1 columns; only the fresh portion is fetched.
    #[test]
    fn halo_reuse_reduces_sliding_window_traffic() {
        let (k, c, p, r) = (1u64, 1, 16, 3);
        let w = conv1d(k, c, p, r);
        let arch = two_level_arch();
        let d = |n: &str| w.dim_by_name(n).unwrap();
        let m = Mapping::from_levels(vec![
            MappingLevel::Temporal(TemporalLevel {
                mem: LevelId(0),
                factors: vec![1, 1, 4, r],
                order: vec![d("R"), d("P"), d("K"), d("C")],
            }),
            MappingLevel::Temporal(TemporalLevel {
                mem: LevelId(1),
                factors: vec![1, 1, 4, 1],
                order: vec![d("P"), d("K"), d("C"), d("R")],
            }),
        ]);
        let binding = Binding::resolve(&arch, &w).unwrap();
        let ifmap = w.tensor_by_name("ifmap").unwrap();

        let plain = AccessCounts::compute(&w, &arch, &binding, &m, no_halo());
        let halo = AccessCounts::compute(&w, &arch, &binding, &m, ModelOptions::default());
        // Without halo: 4 refills × (4 + 3 − 1) = 24 reads.
        assert_eq!(plain.at(1, ifmap).reads, 24.0);
        // With halo: first tile 6 words, then 3 × 4 fresh words = 18.
        assert_eq!(halo.at(1, ifmap).reads, 6.0 + 3.0 * 4.0);
        assert!(halo.at(1, ifmap).reads < plain.at(1, ifmap).reads);
    }

    /// The MAC boundary: the innermost storing level is read once per MAC
    /// per operand (minus broadcast dedup), and the output level absorbs
    /// one update per MAC.
    #[test]
    fn mac_boundary_counts() {
        let (k, c, p, r) = (4u64, 2, 8, 2);
        let w = conv1d(k, c, p, r);
        let arch = two_level_arch();
        let m = algo4_mapping(&w, 2, 2, 4);
        let (counts, _) = counts_for(&w, &arch, &m, no_halo());
        let ops = w.total_ops() as f64;
        let weight = w.tensor_by_name("weight").unwrap();
        let ofmap = w.tensor_by_name("ofmap").unwrap();
        assert_eq!(counts.at(0, weight).reads, ops);
        assert_eq!(counts.at(0, ofmap).updates, ops);
        // Accumulator reads (ops − K·P first touches) plus one eviction
        // read per output element (K·P) add back up to ops.
        assert_eq!(counts.at(0, ofmap).reads, ops);
    }

    /// Spatial reduction merges partial sums before they reach the parent.
    #[test]
    fn spatial_reduction_dedups_updates() {
        let (k, c, p, r) = (2u64, 8, 4, 1);
        let w = conv1d(k, c, p, r);
        let arch = spatial_arch(4);
        let d = |n: &str| w.dim_by_name(n).unwrap();
        let m = Mapping::from_levels(vec![
            MappingLevel::Temporal(TemporalLevel {
                mem: LevelId(0),
                factors: vec![2, 2, 4, 1],
                order: vec![d("R"), d("C"), d("K"), d("P")],
            }),
            MappingLevel::Spatial(SpatialAssignment {
                fabric: LevelId(1),
                factors: vec![1, 4, 1, 1], // C unrolled: reduction across units
            }),
            MappingLevel::Temporal(TemporalLevel {
                mem: LevelId(2),
                factors: vec![1, 1, 1, 1],
                order: vec![d("C"), d("K"), d("P"), d("R")],
            }),
        ]);
        let (counts, _) = counts_for(&w, &arch, &m, no_halo());
        let ofmap = w.tensor_by_name("ofmap").unwrap();
        // One refill (no L2 loops); the 4 partial tiles merge into one
        // union tile of K_L1 × P_L1 = 8 words at L2.
        assert_eq!(counts.at(2, ofmap).updates, 8.0);
        // Each unit still evicts its own 8-word tile from L1 (8 × 4), and
        // the accumulator RMW reads are (16 ops − 8 first touches) × 4.
        assert_eq!(counts.at(0, ofmap).reads, 8.0 * 4.0 + 8.0 * 4.0);
    }

    /// Bypass: with the Simba preset, weights move DRAM → L1 directly and
    /// produce no L2 traffic.
    #[test]
    fn bypass_skips_levels() {
        let mut b = Workload::builder("convS");
        let k = b.dim("K", 8);
        let c = b.dim("C", 8);
        let p = b.dim("P", 8);
        let r = b.dim("R", 3);
        b.input_bits("ifmap", [c.expr(), p + r], 8);
        b.input_bits("weight", [k.expr(), c.expr(), r.expr()], 8);
        b.output_bits("ofmap", [k.expr(), p.expr()], 24);
        let w = b.build().unwrap();
        let arch = presets::simba_like();
        let binding = Binding::resolve(&arch, &w).unwrap();
        let m = Mapping::streaming(&w, &arch);
        let counts = AccessCounts::compute(&w, &arch, &binding, &m, ModelOptions::default());
        let weight = w.tensor_by_name("weight").unwrap();
        // L2 is position 5 in the Simba preset; weights bypass it.
        assert_eq!(counts.at(5, weight).total(), 0.0);
        // DRAM (pos 6) serves the weights directly.
        assert!(counts.at(6, weight).reads > 0.0);
    }

    /// Crossings accumulate the words delivered across each spatial level.
    #[test]
    fn crossings_track_noc_traffic() {
        let (k, c, p, r) = (8u64, 4, 28, 3);
        let w = conv1d(k, c, p, r);
        let arch = spatial_arch(16);
        let d = |n: &str| w.dim_by_name(n).unwrap();
        let m = Mapping::from_levels(vec![
            MappingLevel::Temporal(TemporalLevel {
                mem: LevelId(0),
                factors: vec![2, 2, 7, r],
                order: vec![d("R"), d("C"), d("K"), d("P")],
            }),
            MappingLevel::Spatial(SpatialAssignment {
                fabric: LevelId(1),
                factors: vec![2, 1, 2, 1],
            }),
            MappingLevel::Temporal(TemporalLevel {
                mem: LevelId(2),
                factors: vec![2, 2, 2, 1],
                order: vec![d("C"), d("K"), d("P"), d("R")],
            }),
        ]);
        let (counts, _) = counts_for(&w, &arch, &m, no_halo());
        let ifmap = w.tensor_by_name("ifmap").unwrap();
        // NoC crossings for ifmap equal its L1 fills (every delivered word
        // crosses the grid once).
        assert_eq!(counts.crossings(1, ifmap), counts.at(0, ifmap).fills);
        // Memory levels have no crossings.
        assert_eq!(counts.crossings(0, ifmap), 0.0);
    }
}

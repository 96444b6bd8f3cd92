//! Energy, delay, and EDP computation.

use serde::{Deserialize, Serialize};
use sunstone_arch::{ArchSpec, Binding, Level, LevelId, MemoryLevel};
use sunstone_ir::{DimId, IndexExpr, TensorId, Workload};
use sunstone_mapping::{Mapping, MappingError, ValidationContext};

use crate::counts::storage_chains;
use crate::{BatchEvalScratch, MappingPrefix, ModelOptions, Nest};

/// Per-memory-level cost summary inside a [`CostReport`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LevelReport {
    /// Level name from the architecture.
    pub name: String,
    /// Architecture position (0 = innermost).
    pub arch_pos: usize,
    /// Total words read from the level.
    pub reads: f64,
    /// Total words written into the level (fills + updates).
    pub writes: f64,
    /// Energy spent at this level, in pJ.
    pub energy_pj: f64,
}

/// The evaluation result of one mapping.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CostReport {
    /// Total energy in pJ (memory + MAC + NoC).
    pub energy_pj: f64,
    /// Execution time in cycles, assuming double buffering overlaps
    /// compute with every level's transfers.
    pub delay_cycles: f64,
    /// Energy-delay product in pJ·cycles — the paper's figure of merit.
    pub edp: f64,
    /// Total MAC operations.
    pub total_ops: f64,
    /// Energy spent in the MACs, in pJ.
    pub mac_energy_pj: f64,
    /// Energy spent in the interconnect, in pJ.
    pub noc_energy_pj: f64,
    /// Compute-bound lower limit on the delay.
    pub compute_cycles: f64,
    /// Per-memory-level breakdown.
    pub levels: Vec<LevelReport>,
}

impl CostReport {
    /// The report's two totals.
    pub fn totals(&self) -> CostTotals {
        CostTotals { energy_pj: self.energy_pj, delay_cycles: self.delay_cycles }
    }

    /// Energy spent in memories (total minus MAC and NoC).
    pub fn memory_energy_pj(&self) -> f64 {
        self.energy_pj - self.mac_energy_pj - self.noc_energy_pj
    }

    /// Returns `true` if the mapping is limited by a memory's bandwidth
    /// rather than by compute.
    pub fn is_bandwidth_bound(&self) -> bool {
        self.delay_cycles > self.compute_cycles
    }
}

/// The two totals every objective is a function of — what the batch
/// evaluator hands a caller that only ranks candidates
/// ([`CostModel::price_prefixed_batch`]), bit-identical to the same
/// fields of the [`CostReport`] the report-returning entry points build.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostTotals {
    /// Total energy in pJ (memory + MAC + NoC).
    pub energy_pj: f64,
    /// Execution time in cycles.
    pub delay_cycles: f64,
}

impl CostTotals {
    /// Energy-delay product: the one product a report's `edp` is.
    pub fn edp(self) -> f64 {
        self.energy_pj * self.delay_cycles
    }
}

/// What [`CostModel::price_rows`] computes beyond the per-level
/// breakdown it hands its callback.
struct PricedRows {
    totals: CostTotals,
    noc_energy_pj: f64,
    compute_cycles: f64,
}

/// What pricing reads of the (workload, architecture, options) triple,
/// looked up once per [`CostModel`] instead of once per candidate.
#[derive(Debug, Clone)]
pub(crate) struct PricingPlan<'a> {
    /// Per architecture position: `Some(multicast)` for a fabric, `None`
    /// for a memory.
    fabric: Vec<Option<bool>>,
    /// Per tensor: its element width in reference words.
    scale: Vec<f64>,
    /// Per (tensor, dimension), row-major: the index expression the halo
    /// credit slides along when the dimension drives the tensor's refills
    /// — the first expression that contains it — and the dimension's
    /// stride there. `None` when that expression is plain, when none
    /// contains the dimension, or when halo credit is off: every refill is
    /// then a full fetch.
    halo: Vec<Option<(&'a IndexExpr, f64)>>,
    /// A tile of ones, one word per dimension.
    pub(crate) ones: Vec<u64>,
    /// The workload's MAC count.
    total_ops: f64,
    /// Per memory, each tensor it stores, in tensor order, with its
    /// partition's index and read and write energies; memory `pos`'s are
    /// `stores[store_at[pos]..store_at[pos + 1]]` (none at a fabric).
    stores: Vec<(usize, usize, f64, f64)>,
    store_at: Vec<usize>,
}

impl<'a> PricingPlan<'a> {
    fn new(
        workload: &'a Workload,
        arch: &ArchSpec,
        binding: &Binding,
        options: ModelOptions,
    ) -> Self {
        let fabric =
            arch.levels().iter().map(|l| l.as_spatial().map(|s| s.noc.multicast)).collect();
        let ref_bits = f64::from(arch.ref_bits());
        let scale = workload.tensors().iter().map(|t| f64::from(t.bits()) / ref_bits).collect();
        let ndims = workload.num_dims();
        let mut halo = Vec::with_capacity(workload.num_tensors() * ndims);
        for tensor in workload.tensors() {
            halo.extend((0..ndims).map(|d| {
                let dim = DimId::from_index(d);
                let expr = tensor.indices().iter().find(|e| e.dims().contains(dim))?;
                let stride = expr.terms().iter().find(|t| t.dim == dim)?.stride;
                (options.halo_reuse && expr.is_compound()).then_some((expr, stride as f64))
            }));
        }
        let mut stores = Vec::with_capacity(arch.num_levels() * workload.num_tensors());
        let mut store_at = Vec::with_capacity(arch.num_levels() + 1);
        store_at.push(0);
        for (pos, level) in arch.levels().iter().enumerate() {
            if let Level::Memory(mem) = level {
                stores.extend(workload.tensor_ids().filter_map(|t| {
                    let pid = binding.partition_of(LevelId(pos), t)?;
                    let part = mem.partition(pid);
                    Some((t.index(), pid.0, part.read_energy_pj, part.write_energy_pj))
                }));
            }
            store_at.push(stores.len());
        }
        let total_ops = workload.total_ops() as f64;
        PricingPlan { fabric, scale, halo, ones: vec![1; ndims], total_ops, stores, store_at }
    }

    /// Whether the level at `pos` is a fabric.
    #[inline]
    pub(crate) fn is_fabric(&self, pos: usize) -> bool {
        self.fabric[pos].is_some()
    }

    /// Whether the level at `pos` delivers a word to every receiver at
    /// once (every memory does; a fabric as its NoC says).
    #[inline]
    pub(crate) fn multicast(&self, pos: usize) -> bool {
        self.fabric[pos].unwrap_or(true)
    }

    /// The halo geometry of `tensor` refilled along dimension `dim`.
    #[inline]
    pub(crate) fn halo(&self, tensor: TensorId, dim: DimId) -> Option<(&'a IndexExpr, f64)> {
        self.halo[tensor.index() * self.ones.len() + dim.index()]
    }
}

/// Evaluates mappings for one (workload, architecture, binding) triple.
///
/// Construct once and evaluate many candidates; see the [crate-level
/// example](crate). Every evaluation runs one count kernel
/// ([`price_prefixed_batch`](Self::price_prefixed_batch) and its report
/// form); the single-mapping entry points are width-1 calls of it.
#[derive(Debug, Clone)]
pub struct CostModel<'a> {
    workload: &'a Workload,
    arch: &'a ArchSpec,
    binding: &'a Binding,
    /// Per-tensor storing-level chains, derived once at construction:
    /// tensor `t`'s are `chains[chain_at[t]..chain_at[t + 1]]`.
    chains: Vec<usize>,
    chain_at: Vec<usize>,
    /// What pricing looks up, looked up once.
    plan: PricingPlan<'a>,
    /// The prefix that decides no level.
    empty: MappingPrefix,
}

impl<'a> CostModel<'a> {
    /// Creates a model with default [`ModelOptions`].
    pub fn new(workload: &'a Workload, arch: &'a ArchSpec, binding: &'a Binding) -> Self {
        Self::with_options(workload, arch, binding, ModelOptions::default())
    }

    /// Creates a model with explicit options.
    pub fn with_options(
        workload: &'a Workload,
        arch: &'a ArchSpec,
        binding: &'a Binding,
        options: ModelOptions,
    ) -> Self {
        let (chains, chain_at) = storage_chains(workload, arch, binding);
        let plan = PricingPlan::new(workload, arch, binding, options);
        let empty = MappingPrefix::empty(workload.num_dims());
        CostModel { workload, arch, binding, chains, chain_at, plan, empty }
    }

    /// A fresh scratch for the evaluation entry points (one per
    /// evaluation thread; [`batch_scratch`](Self::batch_scratch) is the
    /// same).
    pub fn scratch(&self) -> BatchEvalScratch {
        BatchEvalScratch::default()
    }

    /// The workload being modelled.
    pub fn workload(&self) -> &'a Workload {
        self.workload
    }

    /// The architecture being modelled.
    pub fn arch(&self) -> &'a ArchSpec {
        self.arch
    }

    /// The tensor binding in use.
    pub fn binding(&self) -> &'a Binding {
        self.binding
    }

    /// Tensor `t`'s chain of storing positions, innermost first.
    pub(crate) fn chain(&self, t: TensorId) -> &[usize] {
        &self.chains[self.chain_at[t.index()]..self.chain_at[t.index() + 1]]
    }

    /// What pricing looks up.
    pub(crate) fn plan(&self) -> &PricingPlan<'a> {
        &self.plan
    }

    /// The prefix that decides no level: pricing against it walks each
    /// candidate's whole nest, so it is how a caller with no shared
    /// prefix prices a run of candidates.
    pub fn empty_prefix(&self) -> &MappingPrefix {
        &self.empty
    }

    /// Validates the mapping, then evaluates it.
    ///
    /// # Errors
    ///
    /// Returns the mapping's first validity violation, if any.
    pub fn evaluate(&self, mapping: &Mapping) -> Result<CostReport, MappingError> {
        let ctx = ValidationContext::new(self.workload, self.arch, self.binding);
        ctx.validate(mapping)?;
        Ok(self.evaluate_unchecked(mapping))
    }

    /// Evaluates a mapping that is already known to be valid.
    ///
    /// Schedulers that validate candidates during construction use this to
    /// skip re-validation in the inner loop.
    pub fn evaluate_unchecked(&self, mapping: &Mapping) -> CostReport {
        self.evaluate_unchecked_with(mapping, &mut self.scratch())
    }

    /// [`evaluate_unchecked`](Self::evaluate_unchecked) with reusable
    /// scratch buffers: the count kernel at width 1 against the empty
    /// prefix.
    pub fn evaluate_unchecked_with(
        &self,
        mapping: &Mapping,
        scratch: &mut BatchEvalScratch,
    ) -> CostReport {
        self.evaluate_prefixed_with(&self.empty, mapping, scratch)
    }

    /// Caches the count pass's view of `nest`'s decided prefix — levels
    /// `0..=boundary` — as composable per-storing-pair contributions.
    /// `nest` is any loop nest the kernel reads: a `&Mapping`, or a
    /// partial mapping whose undecided levels do not matter here.
    ///
    /// Candidates sharing those levels are then priced against it
    /// ([`price_prefixed_batch`](Self::price_prefixed_batch)), which walks
    /// only their undecided suffix.
    pub fn prefix_of(&self, nest: impl Nest, boundary: usize) -> MappingPrefix {
        crate::prefix::build_prefix(self, &nest, boundary)
    }

    /// [`evaluate_unchecked_with`](Self::evaluate_unchecked_with), pricing
    /// the decided prefix from `prefix` instead of re-walking it: the
    /// count kernel at width 1.
    ///
    /// The mapping's levels `0..=prefix.boundary()` must equal the levels
    /// `prefix` was built from (they are not re-read). The result is
    /// bit-identical to the full evaluation within the model's exactness
    /// envelope (integer loop-factor products below 2⁵³): only products
    /// are regrouped, never sums.
    pub fn evaluate_prefixed_with(
        &self,
        prefix: &MappingPrefix,
        mapping: &Mapping,
        scratch: &mut BatchEvalScratch,
    ) -> CostReport {
        let mut report = None;
        let mapping = std::slice::from_ref(mapping);
        self.evaluate_prefixed_batch(prefix, mapping, scratch, |_, got| report = Some(got));
        report.expect("one mapping, one report")
    }

    /// The report of the candidate whose count tables `scratch` holds.
    pub(crate) fn report_from_rows(&self, scratch: &mut BatchEvalScratch) -> CostReport {
        let mut levels = Vec::new();
        let priced = self.price_rows(scratch, |mem, arch_pos, reads, writes, energy_pj| {
            levels.push(LevelReport { name: mem.name.clone(), arch_pos, reads, writes, energy_pj });
        });
        let total_ops = self.workload.total_ops() as f64;
        let CostTotals { energy_pj, delay_cycles } = priced.totals;
        CostReport {
            energy_pj,
            delay_cycles,
            edp: priced.totals.edp(),
            total_ops,
            mac_energy_pj: total_ops * self.arch.mac_energy_pj(),
            noc_energy_pj: priced.noc_energy_pj,
            compute_cycles: priced.compute_cycles,
            levels,
        }
    }

    /// [`report_from_rows`](Self::report_from_rows) for a caller that only
    /// ranks: the same arithmetic, no report and no allocation.
    pub(crate) fn totals_from_rows(&self, scratch: &mut BatchEvalScratch) -> CostTotals {
        self.price_rows(scratch, |_, _, _, _, _| {}).totals
    }

    /// The model's arithmetic over the candidate's row-major
    /// `[arch_pos][tensor]` count tables: energy per memory level, NoC
    /// energy per fabric, and the delay as the slower of compute and the
    /// busiest partition port. `on_level` receives each memory level's
    /// breakdown as it is summed (the report's `levels`; a caller that
    /// only ranks passes a no-op and nothing is allocated).
    fn price_rows(
        &self,
        scratch: &mut BatchEvalScratch,
        on_level: impl FnMut(&MemoryLevel, usize, f64, f64, f64),
    ) -> PricedRows {
        self.price_levels(scratch, 0..self.arch.num_levels(), on_level)
    }

    /// A lower bound on the totals of the candidate whose count kernel has
    /// written only phase A's rows, at the positions `scratch.touched`:
    /// the same arithmetic as [`price_rows`](Self::price_rows) over those
    /// positions alone. Every other row is still 0, so skipping it drops
    /// only additions of 0 and maxima with 0 — this is the arithmetic over
    /// the whole partial table, to the bit. And every count and energy is
    /// `≥ 0`, each entry holds a subset of its final addends, and IEEE `+`,
    /// `×`, `/` and `max` round monotonically, so neither total can exceed
    /// the candidate's, nor can any objective increasing in both.
    pub(crate) fn bound_rows(&self, scratch: &mut BatchEvalScratch) -> CostTotals {
        let touched = std::mem::take(&mut scratch.touched);
        let totals = self.price_levels(scratch, touched.iter().copied(), |_, _, _, _, _| {}).totals;
        scratch.touched = touched;
        totals
    }

    /// [`price_rows`](Self::price_rows) over the levels at `positions`,
    /// ascending.
    fn price_levels(
        &self,
        scratch: &mut BatchEvalScratch,
        positions: impl Iterator<Item = usize>,
        mut on_level: impl FnMut(&MemoryLevel, usize, f64, f64, f64),
    ) -> PricedRows {
        let nt = self.workload.num_tensors();
        let (per, crossings) = (&scratch.per, &scratch.crossings);
        // Instances of each level = product of spatial factors above it:
        // the count kernel's ladder for the candidate.
        let s_above = &scratch.s_above;
        let plan = &self.plan;
        let (scale, total_ops) = (&plan.scale, plan.total_ops);

        let mut energy_pj = total_ops * self.arch.mac_energy_pj();
        let mut noc_energy_pj = 0.0;

        let mut max_transfer_cycles = 0.0f64;
        for pos in positions {
            match &self.arch.levels()[pos] {
                Level::Memory(mem) => {
                    let mut reads = 0.0;
                    let mut writes = 0.0;
                    let mut level_energy = 0.0;
                    // Per-partition bandwidth accounting (a reused buffer of
                    // read and write sums).
                    let parts = &mut scratch.parts;
                    parts.clear();
                    parts.resize(mem.partitions.len(), (0.0, 0.0));
                    let stores = &plan.stores[plan.store_at[pos]..plan.store_at[pos + 1]];
                    for &(t, pid, read_pj, write_pj) in stores {
                        let c = per[pos * nt + t];
                        let scale = scale[t];
                        level_energy += c.reads * read_pj * scale + c.writes() * write_pj * scale;
                        reads += c.reads;
                        writes += c.writes();
                        parts[pid].0 += c.reads;
                        parts[pid].1 += c.writes();
                    }
                    // A port that moved no word takes no cycles: its
                    // division, `0 / instances / bw`, would be a maximum
                    // with 0 (or with NaN, which `max` ignores).
                    let instances = s_above[pos + 1].max(1.0);
                    for (part, &(part_reads, part_writes)) in mem.partitions.iter().zip(&*parts) {
                        if let Some(bw) = part.read_bw.filter(|_| part_reads != 0.0) {
                            max_transfer_cycles =
                                max_transfer_cycles.max(part_reads / instances / bw);
                        }
                        if let Some(bw) = part.write_bw.filter(|_| part_writes != 0.0) {
                            max_transfer_cycles =
                                max_transfer_cycles.max(part_writes / instances / bw);
                        }
                    }
                    energy_pj += level_energy;
                    on_level(mem, pos, reads, writes, level_energy);
                }
                Level::Spatial(s) => {
                    for (t, scale) in scale.iter().enumerate() {
                        noc_energy_pj += crossings[pos * nt + t] * s.noc.per_word_energy_pj * scale;
                    }
                }
            }
        }
        energy_pj += noc_energy_pj;

        // s_above[0] is the f64 product of every spatial factor — the
        // used parallelism without the u64-overflow hazard of
        // `Mapping::used_parallelism` on adversarial fan-outs.
        let parallelism = s_above[0].max(1.0);
        let compute_cycles = total_ops / parallelism;
        let delay_cycles = compute_cycles.max(max_transfer_cycles);

        PricedRows { totals: CostTotals { energy_pj, delay_cycles }, noc_energy_pj, compute_cycles }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sunstone_arch::presets;
    use sunstone_mapping::MappingLevel;

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

    #[test]
    fn streaming_mapping_cost_is_dram_dominated() {
        let w = conv1d(16, 16, 56, 3);
        let arch = presets::conventional();
        let binding = Binding::resolve(&arch, &w).unwrap();
        let model = CostModel::new(&w, &arch, &binding);
        let report = model.evaluate(&Mapping::streaming(&w, &arch)).unwrap();
        let dram = report.levels.iter().find(|l| l.name == "DRAM").unwrap();
        assert!(
            dram.energy_pj > 0.5 * report.energy_pj,
            "streaming burns most energy in DRAM: {report:?}"
        );
        assert!(report.edp > 0.0);
        assert_eq!(report.total_ops, (16 * 16 * 56 * 3) as f64);
    }

    #[test]
    fn tiled_mapping_beats_streaming() {
        let w = conv1d(16, 16, 56, 3);
        let arch = presets::conventional();
        let binding = Binding::resolve(&arch, &w).unwrap();
        let model = CostModel::new(&w, &arch, &binding);
        let streaming = model.evaluate(&Mapping::streaming(&w, &arch)).unwrap();

        // Tile K and P into L1 and unroll K on the grid.
        let mut m = Mapping::streaming(&w, &arch);
        set(&mut m, 0, &[4, 1, 8, 3]);
        set(&mut m, 1, &[4, 1, 1, 1]);
        set(&mut m, 3, &[1, 16, 7, 1]);
        let tiled = model.evaluate(&m).unwrap();
        assert!(tiled.energy_pj < streaming.energy_pj);
        assert!(tiled.delay_cycles < streaming.delay_cycles);
        assert!(tiled.edp < streaming.edp / 10.0, "reuse should be dramatic");
    }

    fn set(m: &mut Mapping, pos: usize, factors: &[u64]) {
        match &mut m.levels_mut()[pos] {
            MappingLevel::Temporal(t) => t.factors.copy_from_slice(factors),
            MappingLevel::Spatial(s) => s.factors.copy_from_slice(factors),
        }
    }

    #[test]
    fn delay_respects_bandwidth() {
        let w = conv1d(16, 16, 56, 3);
        let arch = presets::conventional();
        let binding = Binding::resolve(&arch, &w).unwrap();
        let model = CostModel::new(&w, &arch, &binding);
        // Streaming from DRAM: every operand word crosses the 16-words/cycle
        // DRAM port; must be bandwidth bound.
        let report = model.evaluate(&Mapping::streaming(&w, &arch)).unwrap();
        assert!(report.is_bandwidth_bound());
        assert!(report.delay_cycles >= report.compute_cycles);
    }

    #[test]
    fn invalid_mapping_is_rejected() {
        let w = conv1d(16, 16, 56, 3);
        let arch = presets::conventional();
        let binding = Binding::resolve(&arch, &w).unwrap();
        let model = CostModel::new(&w, &arch, &binding);
        let mut m = Mapping::streaming(&w, &arch);
        set(&mut m, 0, &[32, 1, 1, 1]); // K over-covered
        assert!(model.evaluate(&m).is_err());
    }

    #[test]
    fn wider_tensors_cost_proportionally_more() {
        // Same shape, once with 8-bit and once with 32-bit ifmap.
        let build = |bits: u32| {
            let mut b = Workload::builder("convb");
            let k = b.dim("K", 8);
            let c = b.dim("C", 8);
            let p = b.dim("P", 8);
            let r = b.dim("R", 3);
            b.input_bits("ifmap", [c.expr(), p + r], bits);
            b.input_bits("weight", [k.expr(), c.expr(), r.expr()], 16);
            b.output_bits("ofmap", [k.expr(), p.expr()], 16);
            b.build().unwrap()
        };
        let arch = presets::conventional();
        let w8 = build(8);
        let w32 = build(32);
        let b8 = Binding::resolve(&arch, &w8).unwrap();
        let b32 = Binding::resolve(&arch, &w32).unwrap();
        let r8 = CostModel::new(&w8, &arch, &b8).evaluate(&Mapping::streaming(&w8, &arch)).unwrap();
        let r32 =
            CostModel::new(&w32, &arch, &b32).evaluate(&Mapping::streaming(&w32, &arch)).unwrap();
        assert!(r32.energy_pj > r8.energy_pj);
    }

    #[test]
    fn report_breakdown_sums_to_total() {
        let w = conv1d(16, 16, 56, 3);
        let arch = presets::conventional();
        let binding = Binding::resolve(&arch, &w).unwrap();
        let model = CostModel::new(&w, &arch, &binding);
        let report = model.evaluate(&Mapping::streaming(&w, &arch)).unwrap();
        let level_sum: f64 = report.levels.iter().map(|l| l.energy_pj).sum();
        let total = level_sum + report.mac_energy_pj + report.noc_energy_pj;
        assert!((total - report.energy_pj).abs() < 1e-6 * report.energy_pj.max(1.0));
        assert!((report.memory_energy_pj() - level_sum).abs() < 1e-6 * level_sum.max(1.0));
    }
}

//! A dMazeRunner-like mapper (Dave et al., TECS 2019): directed search
//! over divisor tilings pruned by minimum-utilization thresholds
//! (Table V of the Sunstone paper).
//!
//! Faithful to the limitations the paper observes (Fig 7):
//!
//! * assumes **symmetric** convolutions — asymmetric kernels (1×7, 3×1)
//!   are rejected;
//! * supports architectures with a single spatial level and 2–3 memory
//!   levels — the Simba-like hierarchy is unsupported;
//! * when no tiling meets the utilization thresholds (light early
//!   layers), it returns *invalid* rather than relaxing them.

use std::cmp::Reverse;
use std::time::Instant;

use sunstone::ordering::OrderingTrie;
use sunstone::tiling::sorted_divisors;
use sunstone::unrolling::enumerate_unrollings;
use sunstone_arch::ArchSpec;
use sunstone_ir::{DimSet, Workload};
use sunstone_mapping::{CapacityPlan, Mapping, MappingLevel};

use crate::mapper::Trial;
use crate::{MapOutcome, MapStats, Mapper};

/// dMazeRunner configuration (Table V).
#[derive(Debug, Clone, PartialEq)]
pub struct DMazeConfig {
    /// Minimum L1 (innermost buffer) utilization.
    pub l1_util: f64,
    /// Minimum L2 (shared buffer) utilization.
    pub l2_util: f64,
    /// Minimum PE-array utilization.
    pub pe_util: f64,
    /// Whether spatial reduction (unrolling reduction dims) is permitted.
    pub allow_spatial_reduction: bool,
    /// Evaluation budget: the search stops after this many candidate
    /// mappings (keeps worst-case runtime bounded).
    pub max_evaluations: u64,
}

impl DMazeConfig {
    /// The repository-default `dMaze-fast` configuration: 80% / 50% / 80%
    /// utilization, no spatial reduction.
    pub fn fast() -> Self {
        DMazeConfig {
            l1_util: 0.8,
            l2_util: 0.5,
            pe_util: 0.8,
            allow_spatial_reduction: false,
            max_evaluations: 200_000,
        }
    }

    /// The `dMaze-slow` configuration: 60% / 40% / 80%, spatial reduction
    /// allowed.
    pub fn slow() -> Self {
        DMazeConfig {
            l1_util: 0.6,
            l2_util: 0.4,
            pe_util: 0.8,
            allow_spatial_reduction: true,
            max_evaluations: 400_000,
        }
    }
}

/// The dMazeRunner-like mapper.
#[derive(Debug, Clone)]
pub struct DMazeMapper {
    name: String,
    config: DMazeConfig,
}

impl DMazeMapper {
    /// Creates a mapper with the given display name (e.g. `"dMaze-fast"`).
    pub fn new(name: impl Into<String>, config: DMazeConfig) -> Self {
        DMazeMapper { name: name.into(), config }
    }

    fn check_support(&self, workload: &Workload, arch: &ArchSpec) -> Result<(), String> {
        // Symmetric-convolution assumption.
        if let (Some(r), Some(s)) = (workload.dim_by_name("R"), workload.dim_by_name("S")) {
            if workload.dim_size(r) != workload.dim_size(s) {
                return Err("assumes symmetric convolutions (R = S)".to_string());
            }
        }
        if arch.num_memory_levels() > 3 {
            return Err("supports at most 3 memory levels".to_string());
        }
        if arch.spatial_levels().count() > 1 {
            return Err("supports a single spatial level".to_string());
        }
        Ok(())
    }

    /// The directed search: offers every candidate within the budget and
    /// returns why none was kept.
    fn search(&self, trial: &mut Trial<'_>) -> String {
        let (workload, arch) = (trial.ctx().workload(), trial.ctx().arch());
        let trie = OrderingTrie::new(workload);
        let ndims = workload.num_dims();
        let mems: Vec<usize> = arch.memory_levels().map(|(id, _)| id.index()).collect();
        let spatial_pos = arch.spatial_levels().next().map(|(id, s)| (id.index(), s.units));

        let plan = trial.ctx().capacity();

        // 1. L1 tiles meeting the utilization threshold (all dimensions —
        //    dMazeRunner enumerates divisor combinations directly).
        let l1 = mems[0];
        let sizes = workload.dim_sizes();
        let mut l1_tiles: Vec<Vec<u64>> = Vec::new();
        let ones = vec![1; ndims];
        utilised_tiles(plan, l1, &ones, &sizes, self.config.l1_util, |t| l1_tiles.push(t.to_vec()));
        if l1_tiles.is_empty() {
            return "no L1 tiling meets the minimum utilization constraints".into();
        }
        // Keep the search bounded: prefer the highest-utilization tiles
        // (dMazeRunner's own objective) and cap the combination counts.
        l1_tiles.sort_by_key(|t| Reverse(plan.load(l1, t).0));
        l1_tiles.truncate(256);

        // 2–4. For each L1 tile: unrollings meeting PE utilization, L2
        //      tiles meeting L2 utilization, orderings from the reduced
        //      set. Evaluate within the budget.
        let (orderings, _) = trie.candidates(DimSet::first_n(ndims));
        'outer: for l1_tile in &l1_tiles {
            let quotas: Vec<u64> = sizes.iter().zip(l1_tile).map(|(s, t)| s / t).collect();
            let unroll_sets: Vec<Vec<u64>> = match spatial_pos {
                None => vec![vec![1; ndims]],
                Some((_, units)) => {
                    let allowed = if self.config.allow_spatial_reduction {
                        DimSet::first_n(ndims)
                    } else {
                        DimSet::first_n(ndims).difference(workload.reduction_dims())
                    };
                    enumerate_unrollings(
                        &quotas,
                        allowed,
                        units,
                        |_| true,
                        self.config.pe_util,
                        true,
                    )
                    .unrollings
                    .into_iter()
                    .filter(|u| {
                        u.iter().product::<u64>() as f64 >= self.config.pe_util * units as f64
                    })
                    .map(Vec::from)
                    .collect()
                }
            };
            for unroll in unroll_sets.iter().take(8) {
                let after_unroll: Vec<u64> =
                    quotas.iter().zip(unroll).map(|(q, u)| q / u).collect();
                // L2 tiles (only when a distinct L2 exists below DRAM).
                let l2_options: Vec<Vec<u64>> = if mems.len() >= 3 {
                    let l2 = mems[1];
                    let base: Vec<u64> = l1_tile.iter().zip(unroll).map(|(t, u)| t * u).collect();
                    let mut factors = Vec::new();
                    utilised_tiles(plan, l2, &base, &after_unroll, self.config.l2_util, |t| {
                        factors.push(t.iter().zip(&base).map(|(t, b)| t / b).collect());
                    });
                    factors
                } else {
                    vec![vec![1; ndims]]
                };
                for l2_factors in l2_options.iter().take(32) {
                    for ordering in &orderings {
                        if trial.evaluated() >= self.config.max_evaluations {
                            break 'outer;
                        }
                        let mapping = build_mapping(
                            workload,
                            arch,
                            &mems,
                            spatial_pos.map(|(p, _)| p),
                            l1_tile,
                            unroll,
                            l2_factors,
                            &ordering.order,
                        );
                        let _ = trial.offer(&mapping);
                    }
                }
            }
        }
        "no mapping meets the minimum utilization constraints".into()
    }
}

impl Mapper for DMazeMapper {
    fn name(&self) -> &str {
        &self.name
    }

    fn map(&self, workload: &Workload, arch: &ArchSpec) -> MapOutcome {
        let start = Instant::now();
        if let Err(reason) = self.check_support(workload, arch) {
            return MapOutcome::invalid(&self.name, reason, MapStats::since(start));
        }
        Trial::run(&self.name, workload, arch, |trial| self.search(trial))
    }
}

/// dMazeRunner's tiles at the memory at `pos`: every resident tile
/// `base × f`, each `f[d]` a divisor of `quotas[d]`, that fits there by the
/// validator's rule and fills at least `util` of the level's pooled
/// capacity ([`CapacityPlan::load`]), passed to `keep` depth first over the
/// dimensions, divisors ascending.
pub(crate) fn utilised_tiles(
    plan: &CapacityPlan<'_>,
    pos: usize,
    base: &[u64],
    quotas: &[u64],
    util: f64,
    mut keep: impl FnMut(&[u64]),
) {
    enumerate_divisor_tiles(
        base,
        quotas,
        &mut base.to_vec(),
        0,
        &mut |tile| !plan.fits(pos, tile),
        &mut |tile| {
            let (needed, capacity) = plan.load(pos, tile);
            if needed as f64 >= util * capacity as f64 {
                keep(tile);
            }
        },
    );
}

/// Depth-first enumeration of the tiles `base × f` over divisors `f` of
/// `quotas`. `prune` cuts a subtree as soon as the partial tile already
/// violates capacity (footprints grow monotonically in every factor);
/// `leaf` receives each complete tile.
fn enumerate_divisor_tiles(
    base: &[u64],
    quotas: &[u64],
    tile: &mut [u64],
    dim: usize,
    prune: &mut impl FnMut(&[u64]) -> bool,
    leaf: &mut impl FnMut(&[u64]),
) {
    if dim == quotas.len() {
        leaf(tile);
        return;
    }
    for f in sorted_divisors(quotas[dim]) {
        tile[dim] = base[dim].saturating_mul(f);
        if prune(tile) {
            break;
        }
        enumerate_divisor_tiles(base, quotas, tile, dim + 1, prune, leaf);
    }
    tile[dim] = base[dim];
}

/// The mapping of an L1 tile, an unrolling and L2 factors (when a distinct
/// L2 exists), every temporal level above L1 in `order`, and the rest of
/// each dimension at DRAM.
#[allow(clippy::too_many_arguments)]
pub(crate) fn build_mapping(
    workload: &Workload,
    arch: &ArchSpec,
    mems: &[usize],
    spatial: Option<usize>,
    l1_tile: &[u64],
    unroll: &[u64],
    l2_factors: &[u64],
    order: &[sunstone_ir::DimId],
) -> Mapping {
    let sizes = workload.dim_sizes();
    let mut mapping = Mapping::streaming(workload, arch);
    for level in mapping.levels_mut() {
        level.factors_mut().iter_mut().for_each(|f| *f = 1);
    }
    let ndims = sizes.len();
    for d in 0..ndims {
        mapping.levels_mut()[mems[0]].factors_mut()[d] = l1_tile[d];
        if let Some(sp) = spatial {
            mapping.levels_mut()[sp].factors_mut()[d] = unroll[d];
        }
        let mut consumed = l1_tile[d] * unroll[d];
        if mems.len() >= 3 {
            mapping.levels_mut()[mems[1]].factors_mut()[d] = l2_factors[d];
            consumed *= l2_factors[d];
        }
        let last = *mems.last().expect("memories exist");
        mapping.levels_mut()[last].factors_mut()[d] = sizes[d] / consumed;
    }
    for &m in &mems[1..] {
        if let MappingLevel::Temporal(t) = &mut mapping.levels_mut()[m] {
            t.order = order.to_vec();
        }
    }
    mapping
}

#[cfg(test)]
mod tests {
    use super::*;
    use sunstone_arch::presets;
    use sunstone_workloads::{ConvSpec, Precision};

    fn small_conv() -> Workload {
        ConvSpec::new("t", 2, 16, 16, 14, 14, 3, 3, 1).inference(Precision::conventional())
    }

    #[test]
    fn rejects_asymmetric_convolutions() {
        let w =
            ConvSpec::new("1x7", 2, 16, 16, 16, 16, 1, 7, 1).inference(Precision::conventional());
        let out = DMazeMapper::new("dMaze", DMazeConfig::fast()).map(&w, &presets::conventional());
        assert!(!out.is_valid());
        assert!(out.invalid_reason.unwrap().contains("symmetric"));
    }

    #[test]
    fn rejects_simba_hierarchy() {
        let w = small_conv();
        let out = DMazeMapper::new("dMaze", DMazeConfig::fast()).map(&w, &presets::simba_like());
        assert!(!out.is_valid());
    }

    #[test]
    fn maps_a_conventional_conv() {
        // Heavy enough that the L2-utilization floor is reachable (the
        // paper's dMaze fails on *light* layers whose entire footprint
        // is below 40–50% of L2; it must succeed on deep heavy ones).
        let w =
            ConvSpec::new("t", 16, 256, 256, 14, 14, 3, 3, 1).inference(Precision::conventional());
        let out =
            DMazeMapper::new("dMaze-slow", DMazeConfig::slow()).map(&w, &presets::conventional());
        assert!(out.is_valid(), "{:?}", out.invalid_reason);
        assert!(out.edp().unwrap() > 0.0);
    }

    #[test]
    fn utilization_thresholds_can_reject_light_layers() {
        // A tiny layer cannot fill 80% of the 512 B L1 across 1024 PEs
        // with 80% PE utilization at the same time.
        let w = ConvSpec::new("tiny", 1, 4, 4, 4, 4, 1, 1, 1).inference(Precision::conventional());
        let out =
            DMazeMapper::new("dMaze-fast", DMazeConfig::fast()).map(&w, &presets::conventional());
        assert!(!out.is_valid(), "tiny layer should fail utilization constraints");
    }
}

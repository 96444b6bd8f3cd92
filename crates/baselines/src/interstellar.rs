//! An Interstellar-like mapper (Yang et al., ASPLOS 2020): spatial
//! unrolling preset to the input/output channel dimensions (C, K), with
//! fallback unrolling of other dimensions only when C·K cannot fill the
//! PE array, followed by a throughput-driven tiling search.
//!
//! As the paper observes (Fig 7), the restrictive unrolling preset
//! shrinks the search space but sometimes excludes better mappings —
//! e.g. solutions that reuse the output both temporally and spatially.

use std::time::Instant;

use sunstone::ordering::OrderingTrie;
use sunstone::tiling::enumerate_tiles;
use sunstone::unrolling::enumerate_unrollings;
use sunstone_arch::ArchSpec;
use sunstone_ir::{DimSet, Workload};

use crate::dmaze::build_mapping;
use crate::mapper::Trial;
use crate::{MapOutcome, MapStats, Mapper};

/// The Interstellar-like mapper.
#[derive(Debug, Clone)]
pub struct InterstellarMapper {
    name: String,
    /// Utilization below which the C/K preset falls back to other dims.
    full_util_threshold: f64,
}

impl InterstellarMapper {
    /// Creates the mapper with the paper's settings: C/K preset, fallback
    /// when the preset cannot fully utilize the grid.
    pub fn new() -> Self {
        InterstellarMapper { name: "INTER".to_string(), full_util_threshold: 1.0 }
    }
}

impl Default for InterstellarMapper {
    fn default() -> Self {
        Self::new()
    }
}

impl Mapper for InterstellarMapper {
    fn name(&self) -> &str {
        &self.name
    }

    fn map(&self, workload: &Workload, arch: &ArchSpec) -> MapOutcome {
        let start = Instant::now();
        // DNN-specific: requires C and K dimensions.
        let (Some(c), Some(k)) = (workload.dim_by_name("C"), workload.dim_by_name("K")) else {
            return MapOutcome::invalid(
                &self.name,
                "workload has no C/K channel dimensions (DNN-specific mapper)",
                MapStats::since(start),
            );
        };
        if arch.num_memory_levels() > 3 || arch.spatial_levels().count() > 1 {
            let reason = "multi-level hierarchies unsupported";
            return MapOutcome::invalid(&self.name, reason, MapStats::since(start));
        }
        Trial::run(&self.name, workload, arch, |trial| {
            let ndims = workload.num_dims();
            let dims = DimSet::first_n(ndims);
            let ones = vec![1; ndims];
            let sizes = workload.dim_sizes();
            let mems: Vec<usize> = arch.memory_levels().map(|(id, _)| id.index()).collect();
            let spatial = arch.spatial_levels().next().map(|(id, s)| (id.index(), s.units));

            // Preset unrolling: C and K only; fall back to every dimension
            // if the preset cannot fully utilize the grid.
            let unrolls: Vec<Vec<u64>> = match spatial {
                None => vec![vec![1; ndims]],
                Some((_, units)) => {
                    let ck: DimSet = [c, k].into_iter().collect();
                    let preset: Vec<Vec<u64>> =
                        enumerate_unrollings(&sizes, ck, units, |_| true, 0.0, true)
                            .unrollings
                            .into_iter()
                            .map(Vec::from)
                            .collect();
                    let best_util = preset
                        .iter()
                        .map(|u| u.iter().product::<u64>() as f64 / units as f64)
                        .fold(0.0f64, f64::max);
                    if best_util >= self.full_util_threshold {
                        preset
                    } else {
                        let mut all: Vec<Vec<u64>> =
                            enumerate_unrollings(&sizes, dims, units, |_| true, 0.5, true)
                                .unrollings
                                .into_iter()
                                .map(Vec::from)
                                .collect();
                        all.extend(preset);
                        all
                    }
                }
            };

            let trie = OrderingTrie::new(workload);
            let (orderings, _) = trie.candidates(dims);
            let ctx = trial.ctx();
            for unroll in &unrolls {
                let quotas: Vec<u64> = sizes.iter().zip(unroll).map(|(s, u)| s / u).collect();
                // High-throughput tiling: maximal L1 tiles over all dims.
                let fits_l1 = |tile: &[u64]| ctx.capacity().fits(mems[0], tile);
                let l1_tiles = enumerate_tiles(&ones, &quotas, dims, fits_l1, true).tiles;
                for l1_tile in &l1_tiles {
                    for ordering in &orderings {
                        // dMaze's layout with every L2 factor 1: the rest
                        // at DRAM.
                        let mapping = build_mapping(
                            workload,
                            arch,
                            &mems,
                            spatial.map(|(p, _)| p),
                            l1_tile,
                            unroll,
                            &ones,
                            &ordering.order,
                        );
                        let _ = trial.offer(&mapping);
                    }
                }
            }
            "no mapping can use the preset unrolling".into()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sunstone_arch::presets;
    use sunstone_workloads::{tensor, ConvSpec, Precision};

    #[test]
    fn maps_a_conv_with_ck_unrolling() {
        let w = ConvSpec::new("t", 2, 64, 64, 14, 14, 3, 3, 1).inference(Precision::conventional());
        let out = InterstellarMapper::new().map(&w, &presets::conventional());
        assert!(out.is_valid(), "{:?}", out.invalid_reason);
        // The chosen unroll uses C and/or K (64 × 64 covers 1024 PEs).
        let m = out.mapping.unwrap();
        let c = w.dim_by_name("C").unwrap();
        let k = w.dim_by_name("K").unwrap();
        let sp = &m.levels()[1];
        let ck_units = sp.factors()[c.index()] * sp.factors()[k.index()];
        assert!(ck_units >= 512, "C/K dominate the unroll: {:?}", sp.factors());
    }

    #[test]
    fn rejects_non_dnn_workloads() {
        let w = tensor::mttkrp(tensor::Shape3(64, 64, 64), 32);
        let out = InterstellarMapper::new().map(&w, &presets::conventional());
        assert!(!out.is_valid());
    }

    #[test]
    fn rejects_simba() {
        let w = ConvSpec::new("t", 2, 64, 64, 14, 14, 3, 3, 1).inference(Precision::simba());
        let out = InterstellarMapper::new().map(&w, &presets::simba_like());
        assert!(!out.is_valid());
    }
}

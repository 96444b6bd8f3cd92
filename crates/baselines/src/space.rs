//! Optimization-space size estimators (Table I of the paper).
//!
//! Each estimator counts the raw space the corresponding tool's search is
//! defined over, following the construction the paper describes:
//! temporal divisor splits per dimension per level × loop permutations
//! per level × spatial unroll choices. Counts are returned as `f64`
//! because they reach 10¹⁰ and beyond.

use sunstone_arch::{ArchSpec, Level};
use sunstone_ir::Workload;

/// Number of ordered ways to write `v` as a product of `levels` factors
/// (multiplicative compositions): `Π_i C(e_i + L − 1, L − 1)` over the
/// prime exponents `e_i` of `v`.
pub fn compositions(v: u64, levels: u64) -> f64 {
    let mut n = v;
    let mut total = 1.0f64;
    let mut p = 2u64;
    while p * p <= n {
        let mut e = 0u64;
        while n.is_multiple_of(p) {
            e += 1;
            n /= p;
        }
        if e > 0 {
            total *= binomial(e + levels - 1, levels - 1);
        }
        p += 1;
    }
    if n > 1 {
        total *= binomial(levels, levels - 1);
    }
    total
}

fn binomial(n: u64, k: u64) -> f64 {
    let k = k.min(n - k.min(n));
    let mut r = 1.0f64;
    for i in 0..k {
        r *= (n - i) as f64 / (i + 1) as f64;
    }
    r
}

/// Timeloop's space: every dimension split across every level (temporal
/// and spatial). No pruning (Table I: "nothing").
///
/// Loop-order permutations are excluded, matching the paper's own Table I
/// accounting — the ordering axis is identical across tools and the
/// paper's Timeloop count (3.69 × 10¹⁰ for its example layer) corresponds
/// to the pure tiling/unrolling space.
pub fn timeloop_space(workload: &Workload, arch: &ArchSpec) -> f64 {
    let levels = arch.num_levels() as u64;
    workload.dims().iter().map(|d| compositions(d.size(), levels)).product()
}

/// CoSA's space is "similar to Timeloop" (Table I) — the MIP is defined
/// over the same variables; the solver prunes internally.
pub fn cosa_space(workload: &Workload, arch: &ArchSpec) -> f64 {
    timeloop_space(workload, arch)
}

/// Marvel's space: off-chip and on-chip mappings are decoupled — the
/// off-chip level is searched separately from the on-chip levels, so the
/// product collapses into a sum of two smaller spaces.
pub fn marvel_space(workload: &Workload, arch: &ArchSpec) -> f64 {
    let on_chip_levels = (arch.num_levels() as u64).saturating_sub(1).max(1);
    let off: f64 = workload.dims().iter().map(|d| compositions(d.size(), 2)).product();
    let on: f64 = workload.dims().iter().map(|d| compositions(d.size(), on_chip_levels)).product();
    off + on
}

/// Interstellar's space: like Timeloop's temporal space, but spatial
/// unrolling is preset to the input/output channels, and its
/// high-throughput heuristic keeps only the maximal (fabric-filling)
/// C/K unrollings.
pub fn interstellar_space(workload: &Workload, arch: &ArchSpec) -> f64 {
    use sunstone::unrolling::enumerate_unrollings;
    use sunstone_ir::DimSet;

    let n_temporal = arch.num_memory_levels() as u64;
    let splits: f64 = workload.dims().iter().map(|d| compositions(d.size(), n_temporal)).product();
    let mut unroll_choices = 1.0f64;
    let ck: DimSet = ["C", "K"].iter().filter_map(|name| workload.dim_by_name(name)).collect();
    for level in arch.levels() {
        if let Level::Spatial(s) = level {
            let count =
                enumerate_unrollings(&workload.dim_sizes(), ck, s.units, |_| true, 0.0, true)
                    .unrollings
                    .len();
            unroll_choices *= count.max(1) as f64;
        }
    }
    splits * unroll_choices
}

/// dMazeRunner's space, *measured* structurally: the number of
/// (L1 tile, unrolling, L2 tile) combinations that survive its
/// utilization thresholds, times the orderings its analysis keeps. No
/// cost evaluation is performed — this counts candidates the way the
/// paper's Table I does.
pub fn dmaze_space(workload: &Workload, arch: &ArchSpec, l1_util: f64, l2_util: f64) -> f64 {
    use sunstone::unrolling::enumerate_unrollings;
    use sunstone_arch::Binding;
    use sunstone_ir::DimSet;
    use sunstone_mapping::CapacityPlan;

    use crate::dmaze::utilised_tiles;

    let Ok(binding) = Binding::resolve(arch, workload) else {
        return 0.0;
    };
    let plan = CapacityPlan::new(workload, arch, &binding);
    let ndims = workload.num_dims();
    let sizes = workload.dim_sizes();
    let mems: Vec<usize> = arch.memory_levels().map(|(id, _)| id.index()).collect();
    let units: u64 = arch.spatial_levels().map(|(_, s)| s.units).product();

    // Surviving L1 tiles.
    let mut l1_tiles: Vec<Vec<u64>> = Vec::new();
    let ones = vec![1; ndims];
    utilised_tiles(&plan, mems[0], &ones, &sizes, l1_util, |t| l1_tiles.push(t.to_vec()));
    if l1_tiles.is_empty() {
        return 0.0;
    }

    // Average surviving unrollings and L2 tiles over a tile sample.
    let reduction = workload.reduction_dims();
    let allowed = DimSet::first_n(ndims).difference(reduction);
    let sample: Vec<&Vec<u64>> = l1_tiles.iter().step_by((l1_tiles.len() / 32).max(1)).collect();
    let mut unroll_sum = 0.0f64;
    let mut l2_sum = 0.0f64;
    for tile in &sample {
        let quotas: Vec<u64> = sizes.iter().zip(tile.iter()).map(|(s, t)| s / t).collect();
        let good = enumerate_unrollings(&quotas, allowed, units, |_| true, 0.8, true)
            .unrollings
            .into_iter()
            .filter(|u| u.iter().product::<u64>() as f64 >= 0.8 * units as f64)
            .count();
        unroll_sum += good as f64;
        if mems.len() >= 3 {
            let mut l2_count = 0u64;
            utilised_tiles(&plan, mems[1], tile, &quotas, l2_util, |_| l2_count += 1);
            l2_sum += l2_count as f64;
        } else {
            l2_sum += 1.0;
        }
    }
    let avg_unrolls = unroll_sum / sample.len() as f64;
    let avg_l2 = l2_sum / sample.len() as f64;
    // Its ordering analysis keeps roughly one ordering per reused tensor.
    let orderings = workload.num_tensors() as f64;
    l1_tiles.len() as f64 * avg_unrolls.max(0.0) * avg_l2.max(0.0) * orderings
}

/// Sunstone's space for Table I is *measured*, not estimated: run the
/// scheduler and report how many candidates it examined.
pub fn sunstone_space(stats: &sunstone::SearchStats) -> f64 {
    stats.probed as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use sunstone_arch::presets;
    use sunstone_workloads::{inception_v3_layers, Precision};

    #[test]
    fn compositions_ground_truth() {
        // 8 = 2³ into 2 factors: (1,8),(2,4),(4,2),(8,1) = C(4,1) = 4.
        assert_eq!(compositions(8, 2), 4.0);
        // 12 = 2²·3 into 2 factors: C(3,1)·C(2,1) = 6.
        assert_eq!(compositions(12, 2), 6.0);
        assert_eq!(compositions(1, 5), 1.0);
        // A prime into 3 factors: 3 placements.
        assert_eq!(compositions(7, 3), 3.0);
    }

    #[test]
    fn table_i_ordering_of_magnitudes() {
        // For an Inception-v3 example layer on the conventional
        // accelerator, the tools' spaces must be ordered as in Table I:
        // Timeloop ≈ CoSA ≫ Marvel ≳ Interstellar ≫ dMaze.
        let layer = &inception_v3_layers(16)[4]; // 3x3_mid
        let w = layer.inference(Precision::conventional());
        let arch = presets::conventional();
        let tl = timeloop_space(&w, &arch);
        let cosa = cosa_space(&w, &arch);
        let marvel = marvel_space(&w, &arch);
        let inter = interstellar_space(&w, &arch);
        let dmaze = dmaze_space(&w, &arch, 0.8, 0.5);
        assert!(tl >= 1e9, "Timeloop space is astronomical: {tl:.2e}");
        assert_eq!(tl, cosa);
        assert!(marvel < tl, "decoupling shrinks the space: {marvel:.2e} < {tl:.2e}");
        assert!(inter < tl, "preset unrolling shrinks the space: {inter:.2e}");
        assert!(dmaze < inter, "utilization pruning shrinks it further: {dmaze:.2e}");
    }

    #[test]
    fn sunstone_space_is_smallest_by_far() {
        let layer = &inception_v3_layers(16)[4];
        let w = layer.inference(Precision::conventional());
        let arch = presets::conventional();
        let result = sunstone::Scheduler::new(sunstone::SunstoneConfig::default())
            .schedule(&w, &arch)
            .unwrap();
        let ss = sunstone_space(&result.stats);
        let dm = dmaze_space(&w, &arch, 0.8, 0.5);
        assert!(ss < dm, "sunstone={ss:.2e} dmaze={dm:.2e}");
        assert!(ss < 1e6);
    }
}

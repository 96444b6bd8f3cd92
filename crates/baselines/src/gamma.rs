//! A GAMMA-like mapper (Kao & Krishna, ICCAD 2020): a genetic algorithm
//! over complete mappings.
//!
//! The Sunstone paper cites GAMMA among the black-box optimizers
//! (Section VI) without comparing against it; this implementation closes
//! that gap. Individuals are full mappings (divisor splits per dimension
//! per level plus loop orders); fitness is the objective under the shared
//! analytic cost model; variation operators are
//!
//! * **crossover** — per-dimension factor-column exchange between two
//!   parents (a dimension's whole split across levels moves as a gene,
//!   keeping the factor product exact),
//! * **mutation** — move a factor between two levels of one dimension,
//!   or swap two loops in one level's order,
//!
//! with tournament selection and elitism. Invalid individuals (capacity
//! overflow) are penalized rather than discarded, as in GAMMA.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sunstone::tiling::sorted_divisors;
use sunstone_arch::{ArchSpec, Level, LevelId};
use sunstone_ir::Workload;
use sunstone_mapping::{Mapping, MappingLevel};

use crate::mapper::Trial;
use crate::timeloop::random_mapping;
use crate::{MapOutcome, Mapper};

/// Genetic-algorithm hyperparameters.
#[derive(Debug, Clone, PartialEq)]
pub struct GammaConfig {
    /// Population size.
    pub population: usize,
    /// Number of generations.
    pub generations: usize,
    /// Per-individual mutation probability.
    pub mutation_rate: f64,
    /// Fraction of elites copied unchanged.
    pub elitism: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for GammaConfig {
    fn default() -> Self {
        GammaConfig {
            population: 60,
            generations: 40,
            mutation_rate: 0.6,
            elitism: 0.1,
            seed: 0x6761_6d6d,
        }
    }
}

/// The GAMMA-like genetic mapper.
#[derive(Debug, Clone, Default)]
pub struct GammaMapper {
    config: GammaConfig,
}

impl GammaMapper {
    /// Creates the mapper with default hyperparameters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates the mapper with explicit hyperparameters.
    pub fn with_config(config: GammaConfig) -> Self {
        GammaMapper { config }
    }
}

impl Mapper for GammaMapper {
    fn name(&self) -> &str {
        "GAMMA"
    }

    fn map(&self, workload: &Workload, arch: &ArchSpec) -> MapOutcome {
        Trial::run(self.name(), workload, arch, |trial| {
            let mut rng = StdRng::seed_from_u64(self.config.seed);
            let mut fitness = |m: &Mapping| trial.offer(m).unwrap_or(f64::INFINITY);

            let mut population: Vec<(Mapping, f64)> = (0..self.config.population)
                .map(|_| {
                    let m = random_mapping(workload, arch, &mut rng);
                    let f = fitness(&m);
                    (m, f)
                })
                .collect();

            let elites = ((self.config.population as f64 * self.config.elitism) as usize).max(1);
            for _gen in 0..self.config.generations {
                population.sort_by(|a, b| a.1.total_cmp(&b.1));
                let mut next: Vec<(Mapping, f64)> = population[..elites].to_vec();
                while next.len() < self.config.population {
                    let a = tournament(&population, &mut rng);
                    let b = tournament(&population, &mut rng);
                    let mut child =
                        crossover(workload, &population[a].0, &population[b].0, &mut rng);
                    if rng.gen_bool(self.config.mutation_rate) {
                        mutate(workload, arch, &mut child, &mut rng);
                    }
                    let f = fitness(&child);
                    next.push((child, f));
                }
                population = next;
            }
            // Elitism carries the best individual to the end, so the
            // trial's kept best is the final population's best.
            "no valid individual evolved".into()
        })
    }
}

fn tournament(population: &[(Mapping, f64)], rng: &mut StdRng) -> usize {
    let a = rng.gen_range(0..population.len());
    let b = rng.gen_range(0..population.len());
    if population[a].1 <= population[b].1 {
        a
    } else {
        b
    }
}

/// Exchanges whole per-dimension factor columns between parents; loop
/// orders come from one parent per level.
fn crossover(workload: &Workload, a: &Mapping, b: &Mapping, rng: &mut StdRng) -> Mapping {
    let mut child = a.clone();
    for d in 0..workload.num_dims() {
        if rng.gen_bool(0.5) {
            for (pos, level) in child.levels_mut().iter_mut().enumerate() {
                level.factors_mut()[d] = b.level(pos).factors()[d];
            }
        }
    }
    for (pos, level) in child.levels_mut().iter_mut().enumerate() {
        if rng.gen_bool(0.5) {
            if let (MappingLevel::Temporal(t), MappingLevel::Temporal(src)) =
                (level, &b.levels()[pos])
            {
                t.order = src.order.clone();
            }
        }
    }
    child
}

/// Moves a prime factor of one dimension between two levels, or swaps two
/// loops in one order.
fn mutate(workload: &Workload, arch: &ArchSpec, m: &mut Mapping, rng: &mut StdRng) {
    let ndims = workload.num_dims();
    if rng.gen_bool(0.5) {
        // Factor migration.
        let d = rng.gen_range(0..ndims);
        let from = rng.gen_range(0..m.levels().len());
        let to = rng.gen_range(0..m.levels().len());
        if from == to {
            return;
        }
        let f = m.level(from).factors()[d];
        if f == 1 {
            return;
        }
        let divisors = sorted_divisors(f);
        let moved = divisors[rng.gen_range(1..divisors.len())];
        // Respect fabric limits at the destination.
        if let Level::Spatial(s) = arch.level(LevelId(to)) {
            let used: u64 = m.level(to).factors().iter().product();
            if used * moved > s.units {
                return;
            }
        }
        m.levels_mut()[from].factors_mut()[d] /= moved;
        m.levels_mut()[to].factors_mut()[d] *= moved;
    } else {
        // Order swap.
        let pos = rng.gen_range(0..m.levels().len());
        if let MappingLevel::Temporal(t) = &mut m.levels_mut()[pos] {
            let i = rng.gen_range(0..t.order.len());
            let j = rng.gen_range(0..t.order.len());
            t.order.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sunstone_arch::presets;
    use sunstone_workloads::{ConvSpec, Precision};

    fn quick() -> GammaConfig {
        GammaConfig { population: 24, generations: 12, ..GammaConfig::default() }
    }

    #[test]
    fn evolves_a_valid_mapping() {
        let w = ConvSpec::new("t", 2, 16, 16, 14, 14, 3, 3, 1).inference(Precision::conventional());
        let arch = presets::conventional();
        let out = GammaMapper::with_config(quick()).map(&w, &arch);
        assert!(out.is_valid(), "{:?}", out.invalid_reason);
        assert!(out.stats.evaluated > 0);
        // Whatever evolved covers the problem exactly.
        let m = out.mapping.unwrap();
        for d in w.dim_ids() {
            assert_eq!(m.total_factor(d), w.dim_size(d));
        }
    }

    #[test]
    fn more_generations_never_hurt() {
        let w = ConvSpec::new("t", 2, 16, 16, 14, 14, 3, 3, 1).inference(Precision::conventional());
        let arch = presets::conventional();
        let short =
            GammaMapper::with_config(GammaConfig { generations: 2, ..quick() }).map(&w, &arch);
        let long =
            GammaMapper::with_config(GammaConfig { generations: 30, ..quick() }).map(&w, &arch);
        assert!(long.edp().unwrap() <= short.edp().unwrap() * 1.0001, "elitism is monotone");
    }

    #[test]
    fn deterministic_under_fixed_seed() {
        let w = ConvSpec::new("t", 1, 8, 8, 8, 8, 3, 3, 1).inference(Precision::conventional());
        let arch = presets::conventional();
        let a = GammaMapper::with_config(quick()).map(&w, &arch);
        let b = GammaMapper::with_config(quick()).map(&w, &arch);
        assert_eq!(a.edp(), b.edp());
    }

    #[test]
    fn handles_simba_hierarchy() {
        // Unlike dMaze/INTER, a black-box GA runs on any hierarchy — just
        // not necessarily well.
        let w = ConvSpec::new("t", 1, 16, 16, 8, 8, 3, 3, 1).inference(Precision::simba());
        let arch = presets::simba_like();
        let out = GammaMapper::with_config(quick()).map(&w, &arch);
        // Valid or honestly invalid; either way it must have searched.
        assert!(out.stats.evaluated + out.stats.invalid > 0);
    }
}

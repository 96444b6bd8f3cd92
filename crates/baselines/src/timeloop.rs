//! A Timeloop-like mapper: undirected random search with `timeout` /
//! `victory_condition` termination (Parashar et al., ISPASS 2019;
//! hyperparameters from Table V of the Sunstone paper).

use std::sync::Mutex;
use std::time::Duration;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sunstone::tiling::sorted_divisors;
use sunstone_arch::{ArchSpec, Level, LevelId};
use sunstone_ir::{DimId, Workload};
use sunstone_mapping::{Mapping, MappingLevel};

use crate::mapper::Trial;
use crate::{MapOutcome, Mapper};

/// Termination hyperparameters (Table V).
#[derive(Debug, Clone, PartialEq)]
pub struct TimeloopConfig {
    /// Consecutive invalid mappings before a search thread gives up.
    pub timeout: u64,
    /// Consecutive valid-but-not-better mappings before a thread declares
    /// victory.
    pub victory_condition: u64,
    /// Worker threads (0 = available parallelism; the paper uses 8).
    pub threads: usize,
    /// RNG seed for reproducibility.
    pub seed: u64,
    /// Wall-clock cap; the paper terminates Timeloop after one hour per
    /// layer.
    pub max_wall: Option<Duration>,
}

impl TimeloopConfig {
    /// The `TL-fast` configuration of Table V: timeout 20000, victory
    /// condition 25.
    pub fn fast() -> Self {
        TimeloopConfig {
            timeout: 20_000,
            victory_condition: 25,
            threads: 0,
            seed: 0x5375_6e73,
            max_wall: Some(Duration::from_secs(3600)),
        }
    }

    /// The `TL-slow` configuration of Table V: timeout 80000, victory
    /// condition 1500.
    pub fn slow() -> Self {
        TimeloopConfig { timeout: 80_000, victory_condition: 1_500, ..Self::fast() }
    }

    fn effective_threads(&self) -> usize {
        if self.threads > 0 {
            self.threads
        } else {
            std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
        }
    }
}

/// The Timeloop-like random-search mapper.
#[derive(Debug, Clone)]
pub struct TimeloopMapper {
    name: String,
    config: TimeloopConfig,
}

impl TimeloopMapper {
    /// Creates a mapper with the given display name (e.g. `"TL-fast"`).
    pub fn new(name: impl Into<String>, config: TimeloopConfig) -> Self {
        TimeloopMapper { name: name.into(), config }
    }
}

impl Mapper for TimeloopMapper {
    fn name(&self) -> &str {
        &self.name
    }

    fn map(&self, workload: &Workload, arch: &ArchSpec) -> MapOutcome {
        let threads = self.config.effective_threads();
        Trial::run(&self.name, workload, arch, |trial| {
            let workers: Vec<_> = (0..threads).map(|_| trial.worker()).collect();
            // Poison recovery: the shared trial holds a plain best-so-far,
            // valid at every unwind point; a panicked sibling thread must
            // not abort the whole search.
            let shared = Mutex::new(trial);
            let lock = || shared.lock().unwrap_or_else(|e| e.into_inner());
            std::thread::scope(|scope| {
                for (tid, mut worker) in workers.into_iter().enumerate() {
                    let config = &self.config;
                    scope.spawn(move || {
                        let mut rng = StdRng::seed_from_u64(config.seed ^ (tid as u64) << 32);
                        let mut consecutive_invalid = 0u64;
                        let mut consecutive_flat = 0u64;
                        loop {
                            if config.max_wall.is_some_and(|cap| worker.elapsed() > cap) {
                                break;
                            }
                            let mapping = random_mapping(workload, arch, &mut rng);
                            match worker.admit(&mapping) {
                                Err(_) => {
                                    consecutive_invalid += 1;
                                    if consecutive_invalid >= config.timeout {
                                        break;
                                    }
                                }
                                Ok(report) => {
                                    consecutive_invalid = 0;
                                    if lock().keep(&mapping, report) {
                                        consecutive_flat = 0;
                                    } else {
                                        consecutive_flat += 1;
                                        if consecutive_flat >= config.victory_condition {
                                            break;
                                        }
                                    }
                                }
                            }
                        }
                        lock().join(worker);
                    });
                }
            });
            "random search found no valid mapping".into()
        })
    }
}

/// Samples a structurally consistent random mapping: random divisor
/// splits of every dimension across the levels (spatial splits capped by
/// the fabric size) and random loop orders. Capacity is *not* considered
/// — that is what makes the samples frequently invalid, as in Timeloop.
/// GAMMA's initial population is drawn by it too.
pub(crate) fn random_mapping(workload: &Workload, arch: &ArchSpec, rng: &mut StdRng) -> Mapping {
    let mut mapping = Mapping::streaming(workload, arch);
    // Reset the streaming remainder; we re-factor from scratch.
    for level in mapping.levels_mut() {
        level.factors_mut().iter_mut().for_each(|f| *f = 1);
    }
    let last = arch.num_levels() - 1;
    for d in 0..workload.num_dims() {
        let mut remaining = workload.dim_size(DimId::from_index(d));
        for pos in 0..last {
            let budget = match arch.level(LevelId(pos)) {
                Level::Spatial(s) => {
                    let used: u64 = mapping.level(pos).factors().iter().product();
                    s.units / used.max(1)
                }
                Level::Memory(_) => u64::MAX,
            };
            let feasible: Vec<u64> =
                sorted_divisors(remaining).into_iter().filter(|&f| f <= budget).collect();
            let f = feasible[rng.gen_range(0..feasible.len())];
            mapping.levels_mut()[pos].factors_mut()[d] = f;
            remaining /= f;
        }
        mapping.levels_mut()[last].factors_mut()[d] = remaining;
    }
    // Random loop orders.
    for level in mapping.levels_mut() {
        if let MappingLevel::Temporal(t) = level {
            for i in (1..t.order.len()).rev() {
                t.order.swap(i, rng.gen_range(0..=i));
            }
        }
    }
    mapping
}

#[cfg(test)]
mod tests {
    use super::*;
    use sunstone_arch::{presets, Binding};
    use sunstone_mapping::ValidationContext;

    fn conv() -> Workload {
        let mut b = Workload::builder("conv1d");
        let k = b.dim("K", 16);
        let c = b.dim("C", 16);
        let p = b.dim("P", 28);
        let r = b.dim("R", 3);
        b.input("ifmap", [c.expr(), p + r]);
        b.input("weight", [k.expr(), c.expr(), r.expr()]);
        b.output("ofmap", [k.expr(), p.expr()]);
        b.build().unwrap()
    }

    fn quick_config() -> TimeloopConfig {
        TimeloopConfig {
            timeout: 500,
            victory_condition: 50,
            threads: 2,
            seed: 7,
            max_wall: Some(Duration::from_secs(10)),
        }
    }

    #[test]
    fn finds_a_valid_mapping() {
        let tl = TimeloopMapper::new("TL-test", quick_config());
        let out = tl.map(&conv(), &presets::conventional());
        assert!(out.is_valid(), "{:?}", out.invalid_reason);
        assert!(out.stats.evaluated > 0);
    }

    #[test]
    fn random_mappings_are_structurally_consistent() {
        let w = conv();
        let arch = presets::conventional();
        let binding = Binding::resolve(&arch, &w).unwrap();
        let ctx = ValidationContext::new(&w, &arch, &binding);
        let mut rng = StdRng::seed_from_u64(42);
        let mut valid = 0;
        for _ in 0..200 {
            let m = random_mapping(&w, &arch, &mut rng);
            // Structure (products, permutations, fabric limits) always
            // holds; only capacity may fail.
            ctx.validate_structure(&m).unwrap();
            if ctx.validate_capacity(&m).is_ok() {
                valid += 1;
            }
        }
        assert!(valid > 0, "some random samples are fully valid");
        assert!(valid < 200, "and some overflow capacity");
    }

    #[test]
    fn slow_config_explores_more_than_fast() {
        let w = conv();
        let arch = presets::conventional();
        let fast = TimeloopMapper::new(
            "TL-fast",
            TimeloopConfig { threads: 2, seed: 1, ..TimeloopConfig::fast() },
        );
        let slow = TimeloopMapper::new(
            "TL-slow",
            TimeloopConfig {
                threads: 2,
                seed: 1,
                victory_condition: 200,
                timeout: 5_000,
                max_wall: Some(Duration::from_secs(20)),
            },
        );
        let fo = fast.map(&w, &arch);
        let so = slow.map(&w, &arch);
        assert!(so.stats.evaluated + so.stats.invalid >= fo.stats.evaluated + fo.stats.invalid);
        // More search never hurts quality.
        if let (Some(fe), Some(se)) = (fo.edp(), so.edp()) {
            assert!(se <= fe * 1.5, "fast={fe} slow={se}");
        }
    }
}

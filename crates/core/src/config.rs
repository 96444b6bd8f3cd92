//! Scheduler configuration.

use serde::{Deserialize, Serialize};
use sunstone_mapping::MappingConstraints;

use crate::error::ScheduleError;

/// The figure of merit the search minimizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[non_exhaustive]
pub enum Objective {
    /// Energy-delay product — the paper's merit.
    Edp,
    /// Energy only (battery-bound deployments).
    Energy,
    /// Delay only (latency-bound deployments).
    Delay,
}

impl Objective {
    /// Extracts the objective value from a cost report.
    pub fn of(self, report: &sunstone_model::CostReport) -> f64 {
        match self {
            Objective::Edp => report.edp,
            Objective::Energy => report.energy_pj,
            Objective::Delay => report.delay_cycles,
        }
    }

    /// [`of`](Self::of) from the two totals alone — bit-identical to it,
    /// since a report's `edp` is this very product.
    pub(crate) fn of_totals(self, totals: sunstone_model::CostTotals) -> f64 {
        match self {
            Objective::Edp => totals.edp(),
            Objective::Energy => totals.energy_pj,
            Objective::Delay => totals.delay_cycles,
        }
    }
}

/// Which of Sunstone's pruning techniques are active. All on by default;
/// individual flags exist for the ablation benches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PruningFlags {
    /// Prune loop orderings via the trie rules (Fig 4). When off, all
    /// permutations of the reuse dimensions are considered.
    pub ordering_trie: bool,
    /// Keep only maximal tiles (Tiling Principle, Fig 5). When off, every
    /// fitting tile along the allowed dimensions is kept.
    pub tiling_maximal: bool,
    /// Reject unroll dimensions that would spatially re-reuse the already
    /// temporally reused operand (Spatial Unrolling Principle).
    pub unrolling_principle: bool,
    /// Restrict tile growth to the reused operand's indexing dimensions.
    /// When off, tiles may grow along every dimension.
    pub tiling_reuse_dims: bool,
}

impl Default for PruningFlags {
    fn default() -> Self {
        PruningFlags {
            ordering_trie: true,
            tiling_maximal: true,
            unrolling_principle: true,
            tiling_reuse_dims: true,
        }
    }
}

/// Configuration of the [`Scheduler`](crate::Scheduler) session.
///
/// Construct via [`SunstoneConfig::builder`] to get validation at build
/// time, or with struct syntax + `..Default::default()`; hand-constructed
/// configs are validated on every scheduling call instead.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SunstoneConfig {
    /// The figure of merit to minimize (EDP by default, as in the paper).
    pub objective: Objective,
    /// Beam width for the alpha-beta-style pruning across levels: the
    /// number of best partial mappings kept alive after each stage.
    pub beam_width: usize,
    /// Number of worker threads for candidate evaluation and batch
    /// fan-out (0 = available parallelism).
    pub threads: usize,
    /// Minimum fraction of a spatial fabric that an unrolling must keep
    /// busy, when any unrolling can achieve it ("high throughput"
    /// constraint, Table I).
    pub min_spatial_utilization: f64,
    /// Cap on the tiles kept per tiling-tree enumeration (the largest
    /// tiles — most reuse — are kept). Bounds the per-stage candidate
    /// count on workloads with very long divisor ladders.
    pub max_tiles_per_enum: usize,
    /// Cap on the unrollings kept per fabric enumeration (the highest
    /// utilizations are kept).
    pub max_unrolls_per_enum: usize,
    /// Upper bound on the *(workload, architecture, config, constraints)*
    /// contexts whose result the session memoizes. A new context past the
    /// bound evicts the oldest ones, in the order they were first
    /// memoized (no recency clock: an evicted context is simply searched
    /// again). An entry is one packed byte string: the ranked finalists of
    /// one search — their mappings and cost totals — and the search
    /// statistics a hit reports; about 350 B at `top_k` 1 (the session's
    /// total is [`CacheStats::memo_bytes`](crate::CacheStats::memo_bytes)).
    /// Lower it to bound memory in long-lived many-workload sessions.
    pub max_cache_entries: usize,
    /// Active pruning techniques.
    pub pruning: PruningFlags,
    /// Mapping-space restrictions applied *inside* enumeration, before
    /// any pruning or beam selection (empty by default: full free
    /// search). Resolved against each workload/architecture pair at the
    /// start of a call; an unsatisfiable or ill-formed set surfaces as
    /// [`ScheduleError::InvalidConstraints`]. A per-call override exists
    /// on [`ScheduleOptions`](crate::ScheduleOptions).
    pub constraints: MappingConstraints,
}

impl Default for SunstoneConfig {
    fn default() -> Self {
        SunstoneConfig {
            objective: Objective::Edp,
            beam_width: 48,
            threads: 0,
            min_spatial_utilization: 0.5,
            max_tiles_per_enum: 24,
            max_unrolls_per_enum: 8,
            max_cache_entries: 1 << 20,
            pruning: PruningFlags::default(),
            constraints: MappingConstraints::default(),
        }
    }
}

impl SunstoneConfig {
    /// Starts a validating builder seeded with the defaults.
    pub fn builder() -> SunstoneConfigBuilder {
        SunstoneConfigBuilder { config: SunstoneConfig::default() }
    }

    /// Resolved worker-thread count.
    pub fn effective_threads(&self) -> usize {
        if self.threads > 0 {
            self.threads
        } else {
            std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
        }
    }

    /// Checks the configuration's invariants; every scheduling call runs
    /// this, so a hand-constructed invalid config fails with
    /// [`ScheduleError::InvalidConfig`] instead of searching nothing or
    /// panicking.
    ///
    /// # Errors
    ///
    /// [`ScheduleError::InvalidConfig`] naming the offending field.
    pub fn validate(&self) -> Result<(), ScheduleError> {
        if self.beam_width == 0 {
            return Err(ScheduleError::InvalidConfig {
                reason: "beam_width must be at least 1".into(),
            });
        }
        if self.max_tiles_per_enum == 0 {
            return Err(ScheduleError::InvalidConfig {
                reason: "max_tiles_per_enum must be at least 1".into(),
            });
        }
        if self.max_unrolls_per_enum == 0 {
            return Err(ScheduleError::InvalidConfig {
                reason: "max_unrolls_per_enum must be at least 1".into(),
            });
        }
        if !(0.0..=1.0).contains(&self.min_spatial_utilization) {
            return Err(ScheduleError::InvalidConfig {
                reason: "min_spatial_utilization must lie in [0, 1]".into(),
            });
        }
        if self.max_cache_entries == 0 {
            return Err(ScheduleError::InvalidConfig {
                reason: "max_cache_entries must be at least 1".into(),
            });
        }
        Ok(())
    }
}

/// Validating builder for [`SunstoneConfig`]
/// ([`SunstoneConfig::builder`]). Setters that take a count reject zero
/// immediately; [`build`](Self::build) re-checks the whole config.
#[derive(Debug, Clone)]
pub struct SunstoneConfigBuilder {
    config: SunstoneConfig,
}

impl SunstoneConfigBuilder {
    /// Sets the figure of merit.
    pub fn objective(mut self, objective: Objective) -> Self {
        self.config.objective = objective;
        self
    }

    /// Sets the beam width.
    ///
    /// # Errors
    ///
    /// [`ScheduleError::InvalidConfig`] when `width` is zero.
    pub fn beam_width(mut self, width: usize) -> Result<Self, ScheduleError> {
        if width == 0 {
            return Err(ScheduleError::InvalidConfig {
                reason: "beam_width must be at least 1".into(),
            });
        }
        self.config.beam_width = width;
        Ok(self)
    }

    /// Sets an explicit worker-thread count (use
    /// [`auto_threads`](Self::auto_threads) for the default).
    ///
    /// # Errors
    ///
    /// [`ScheduleError::InvalidConfig`] when `threads` is zero.
    pub fn threads(mut self, threads: usize) -> Result<Self, ScheduleError> {
        if threads == 0 {
            return Err(ScheduleError::InvalidConfig {
                reason: "threads must be at least 1 (use auto_threads() for automatic)".into(),
            });
        }
        self.config.threads = threads;
        Ok(self)
    }

    /// Uses the machine's available parallelism (the default).
    pub fn auto_threads(mut self) -> Self {
        self.config.threads = 0;
        self
    }

    /// Sets the minimum spatial-fabric utilization.
    ///
    /// # Errors
    ///
    /// [`ScheduleError::InvalidConfig`] when `fraction` is outside
    /// `[0, 1]`.
    pub fn min_spatial_utilization(mut self, fraction: f64) -> Result<Self, ScheduleError> {
        if !(0.0..=1.0).contains(&fraction) {
            return Err(ScheduleError::InvalidConfig {
                reason: "min_spatial_utilization must lie in [0, 1]".into(),
            });
        }
        self.config.min_spatial_utilization = fraction;
        Ok(self)
    }

    /// Sets the per-enumeration tile cap.
    ///
    /// # Errors
    ///
    /// [`ScheduleError::InvalidConfig`] when `cap` is zero.
    pub fn max_tiles_per_enum(mut self, cap: usize) -> Result<Self, ScheduleError> {
        if cap == 0 {
            return Err(ScheduleError::InvalidConfig {
                reason: "max_tiles_per_enum must be at least 1".into(),
            });
        }
        self.config.max_tiles_per_enum = cap;
        Ok(self)
    }

    /// Sets the per-enumeration unrolling cap.
    ///
    /// # Errors
    ///
    /// [`ScheduleError::InvalidConfig`] when `cap` is zero.
    pub fn max_unrolls_per_enum(mut self, cap: usize) -> Result<Self, ScheduleError> {
        if cap == 0 {
            return Err(ScheduleError::InvalidConfig {
                reason: "max_unrolls_per_enum must be at least 1".into(),
            });
        }
        self.config.max_unrolls_per_enum = cap;
        Ok(self)
    }

    /// Bounds the contexts the session's result memo retains (the oldest
    /// are evicted past the bound).
    ///
    /// # Errors
    ///
    /// [`ScheduleError::InvalidConfig`] when `cap` is zero.
    pub fn max_cache_entries(mut self, cap: usize) -> Result<Self, ScheduleError> {
        if cap == 0 {
            return Err(ScheduleError::InvalidConfig {
                reason: "max_cache_entries must be at least 1".into(),
            });
        }
        self.config.max_cache_entries = cap;
        Ok(self)
    }

    /// Sets the pruning flags.
    pub fn pruning(mut self, pruning: PruningFlags) -> Self {
        self.config.pruning = pruning;
        self
    }

    /// Sets the mapping constraints every call of the session searches
    /// under. Name/level resolution happens per call (it needs the
    /// workload and architecture), so ill-formed constraints surface as
    /// [`ScheduleError::InvalidConstraints`] at scheduling time.
    pub fn constraints(mut self, constraints: MappingConstraints) -> Self {
        self.config.constraints = constraints;
        self
    }

    /// Validates and returns the configuration.
    ///
    /// # Errors
    ///
    /// [`ScheduleError::InvalidConfig`] as in
    /// [`SunstoneConfig::validate`].
    pub fn build(self) -> Result<SunstoneConfig, ScheduleError> {
        self.config.validate()?;
        Ok(self.config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_enable_all_pruning() {
        let c = SunstoneConfig::default();
        assert!(c.pruning.ordering_trie);
        assert!(c.pruning.tiling_maximal);
        assert!(c.pruning.unrolling_principle);
        assert!(c.pruning.tiling_reuse_dims);
        assert!(c.beam_width > 0);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn objective_extracts_the_right_field() {
        let report = sunstone_model::CostReport {
            energy_pj: 10.0,
            delay_cycles: 5.0,
            edp: 50.0,
            total_ops: 1.0,
            mac_energy_pj: 1.0,
            noc_energy_pj: 0.0,
            compute_cycles: 5.0,
            levels: Vec::new(),
        };
        assert_eq!(Objective::Edp.of(&report), 50.0);
        assert_eq!(Objective::Energy.of(&report), 10.0);
        assert_eq!(Objective::Delay.of(&report), 5.0);
    }

    #[test]
    fn effective_threads_is_positive() {
        assert!(SunstoneConfig::default().effective_threads() >= 1);
        let c = SunstoneConfig { threads: 3, ..SunstoneConfig::default() };
        assert_eq!(c.effective_threads(), 3);
    }

    #[test]
    fn builder_accepts_valid_settings() {
        let c = SunstoneConfig::builder()
            .objective(Objective::Energy)
            .beam_width(8)
            .unwrap()
            .threads(2)
            .unwrap()
            .max_cache_entries(16)
            .unwrap()
            .build()
            .unwrap();
        assert_eq!(c.objective, Objective::Energy);
        assert_eq!(c.beam_width, 8);
        assert_eq!(c.threads, 2);
        assert_eq!(c.max_cache_entries, 16);
    }

    #[test]
    fn builder_rejects_zero_counts() {
        assert!(matches!(
            SunstoneConfig::builder().beam_width(0),
            Err(ScheduleError::InvalidConfig { .. })
        ));
        assert!(matches!(
            SunstoneConfig::builder().threads(0),
            Err(ScheduleError::InvalidConfig { .. })
        ));
        assert!(matches!(
            SunstoneConfig::builder().max_tiles_per_enum(0),
            Err(ScheduleError::InvalidConfig { .. })
        ));
        assert!(matches!(
            SunstoneConfig::builder().max_unrolls_per_enum(0),
            Err(ScheduleError::InvalidConfig { .. })
        ));
        assert!(matches!(
            SunstoneConfig::builder().min_spatial_utilization(1.5),
            Err(ScheduleError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn validate_catches_hand_constructed_invalid_configs() {
        let c = SunstoneConfig { beam_width: 0, ..SunstoneConfig::default() };
        assert!(matches!(c.validate(), Err(ScheduleError::InvalidConfig { .. })));
        let c = SunstoneConfig { min_spatial_utilization: -0.1, ..SunstoneConfig::default() };
        assert!(matches!(c.validate(), Err(ScheduleError::InvalidConfig { .. })));
    }
}

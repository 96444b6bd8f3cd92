//! The common mapper interface.

use std::time::Duration;

use sunstone::{ScheduleError, Scheduler, SunstoneConfig};
use sunstone_arch::ArchSpec;
use sunstone_ir::Workload;
use sunstone_mapping::Mapping;
use sunstone_model::CostReport;

/// Search statistics common to every mapper.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MapStats {
    /// Mappings evaluated with the cost model.
    pub evaluated: u64,
    /// Invalid mappings encountered during the search.
    pub invalid: u64,
    /// Wall-clock time of the search.
    pub elapsed: Duration,
}

/// The outcome of one mapping run.
#[derive(Debug, Clone)]
pub struct MapOutcome {
    /// Tool name that produced this outcome.
    pub mapper: String,
    /// The best mapping found, if any valid one exists.
    pub mapping: Option<Mapping>,
    /// Its cost report.
    pub report: Option<CostReport>,
    /// Why no (valid) mapping was returned — the paper's "invalid"
    /// category: utilization constraints unmet, preset unrolling unusable,
    /// tiles overflowing buffers, or unsupported workload shape.
    pub invalid_reason: Option<String>,
    /// Search statistics.
    pub stats: MapStats,
}

impl MapOutcome {
    /// Returns `true` if a valid mapping was produced.
    pub fn is_valid(&self) -> bool {
        self.mapping.is_some() && self.report.is_some()
    }

    /// The EDP of the result, or `None` when invalid.
    pub fn edp(&self) -> Option<f64> {
        self.report.as_ref().map(|r| r.edp)
    }

    pub(crate) fn invalid(mapper: &str, reason: impl Into<String>, stats: MapStats) -> Self {
        MapOutcome {
            mapper: mapper.to_string(),
            mapping: None,
            report: None,
            invalid_reason: Some(reason.into()),
            stats,
        }
    }

    pub(crate) fn valid(
        mapper: &str,
        mapping: Mapping,
        report: CostReport,
        stats: MapStats,
    ) -> Self {
        MapOutcome {
            mapper: mapper.to_string(),
            mapping: Some(mapping),
            report: Some(report),
            invalid_reason: None,
            stats,
        }
    }
}

/// A dataflow mapper: finds a mapping of a workload onto an architecture.
pub trait Mapper {
    /// The tool's display name (e.g. `"TL-fast"`).
    fn name(&self) -> &str;

    /// Runs the search.
    fn map(&self, workload: &Workload, arch: &ArchSpec) -> MapOutcome;
}

/// The real Sunstone scheduler behind the [`Mapper`] interface.
///
/// The mapper holds a [`Scheduler`] *session*, so mapping many layers
/// through one `SunstoneMapper` shares the session's result memo across
/// calls (a repeated layer shape is answered without a search).
#[derive(Debug, Clone)]
pub struct SunstoneMapper {
    name: String,
    scheduler: Scheduler,
}

impl SunstoneMapper {
    /// Creates a mapper with its own fresh session.
    pub fn new(config: SunstoneConfig) -> Self {
        Self::with_session(Scheduler::new(config))
    }

    /// Wraps an existing session (to share its cache with other users).
    pub fn with_session(scheduler: Scheduler) -> Self {
        SunstoneMapper { name: "Sunstone".to_string(), scheduler }
    }

    /// The backing session.
    pub fn session(&self) -> &Scheduler {
        &self.scheduler
    }
}

impl Default for SunstoneMapper {
    fn default() -> Self {
        Self::new(SunstoneConfig::default())
    }
}

impl Mapper for SunstoneMapper {
    fn name(&self) -> &str {
        &self.name
    }

    fn map(&self, workload: &Workload, arch: &ArchSpec) -> MapOutcome {
        match self.scheduler.schedule(workload, arch) {
            Ok(result) => MapOutcome::valid(
                &self.name,
                result.mapping,
                result.report,
                MapStats {
                    evaluated: result.stats.probed,
                    invalid: 0,
                    elapsed: result.stats.elapsed,
                },
            ),
            Err(ScheduleError::NoValidMapping | ScheduleError::InfeasibleLevel { .. }) => {
                MapOutcome::invalid(&self.name, "no valid mapping", MapStats::default())
            }
            Err(e) => MapOutcome::invalid(&self.name, e.to_string(), MapStats::default()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sunstone_arch::presets;

    fn matmul() -> Workload {
        let mut b = Workload::builder("mm");
        let m = b.dim("M", 64);
        let n = b.dim("N", 64);
        let k = b.dim("K", 64);
        b.input("a", [m.expr(), k.expr()]);
        b.input("b", [k.expr(), n.expr()]);
        b.output("out", [m.expr(), n.expr()]);
        b.build().unwrap()
    }

    #[test]
    fn sunstone_mapper_reports_valid_outcome() {
        let out = SunstoneMapper::default().map(&matmul(), &presets::conventional());
        assert!(out.is_valid());
        assert!(out.edp().unwrap() > 0.0);
        assert!(out.invalid_reason.is_none());
        assert_eq!(out.mapper, "Sunstone");
    }

    #[test]
    fn outcome_helpers() {
        let inv = MapOutcome::invalid("X", "reason", MapStats::default());
        assert!(!inv.is_valid());
        assert_eq!(inv.edp(), None);
        assert_eq!(inv.invalid_reason.as_deref(), Some("reason"));
    }
}

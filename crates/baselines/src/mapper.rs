//! The common mapper interface.

use std::time::{Duration, Instant};

use sunstone::{ScheduleError, Scheduler, SunstoneConfig};
use sunstone_arch::{ArchSpec, Binding};
use sunstone_ir::Workload;
use sunstone_mapping::{Mapping, MappingError, ValidationContext};
use sunstone_model::{CostModel, CostReport};

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

impl MapStats {
    /// No candidates, and the time since `start`: a run that stopped
    /// before its search.
    pub(crate) fn since(start: Instant) -> Self {
        MapStats { elapsed: start.elapsed(), ..MapStats::default() }
    }
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

/// One baseline run: its problem, its counters and its best candidate.
///
/// Every search baseline admits its candidates here, so they all share
/// one rule: a candidate is validated, counted as evaluated or invalid,
/// and priced once by the one cost model; the kept best is the first
/// candidate of strictly lowest EDP, and the outcome reports it with the
/// report it was priced with.
pub(crate) struct Trial<'a> {
    ctx: &'a ValidationContext<'a>,
    model: &'a CostModel<'a>,
    start: Instant,
    stats: MapStats,
    best: Option<(Mapping, CostReport)>,
}

impl<'a> Trial<'a> {
    /// Runs `search` over the workload bound to the architecture and
    /// returns the kept best; otherwise the reason `search` gave for
    /// keeping nothing; otherwise, when the binding fails, its error.
    /// The whole call is timed.
    pub(crate) fn run(
        name: &str,
        workload: &Workload,
        arch: &ArchSpec,
        search: impl FnOnce(&mut Trial<'_>) -> String,
    ) -> MapOutcome {
        let start = Instant::now();
        let (kept, mut stats) = match Binding::resolve(arch, workload) {
            Err(e) => (Err(e.to_string()), MapStats::default()),
            Ok(binding) => {
                let ctx = ValidationContext::new(workload, arch, &binding);
                let model = CostModel::new(workload, arch, &binding);
                let mut trial = Trial {
                    ctx: &ctx,
                    model: &model,
                    start,
                    stats: MapStats::default(),
                    best: None,
                };
                let reason = search(&mut trial);
                (trial.best.ok_or(reason), trial.stats)
            }
        };
        stats.elapsed = start.elapsed();
        match kept {
            Ok((mapping, report)) => MapOutcome::valid(name, mapping, report, stats),
            Err(reason) => MapOutcome::invalid(name, reason, stats),
        }
    }

    /// The validator of this trial's problem.
    pub(crate) fn ctx(&self) -> &'a ValidationContext<'a> {
        self.ctx
    }

    /// Candidates evaluated so far.
    pub(crate) fn evaluated(&self) -> u64 {
        self.stats.evaluated
    }

    /// Time since the run started.
    pub(crate) fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }

    /// Validates `mapping`, counts it as evaluated or invalid, and prices
    /// it when valid.
    pub(crate) fn admit(&mut self, mapping: &Mapping) -> Result<CostReport, MappingError> {
        match self.ctx.validate(mapping) {
            Ok(()) => {
                self.stats.evaluated += 1;
                Ok(self.model.evaluate_unchecked(mapping))
            }
            Err(e) => {
                self.stats.invalid += 1;
                Err(e)
            }
        }
    }

    /// [`admit`](Self::admit), then [`keep`](Self::keep): the candidate's
    /// EDP, or why it is invalid.
    pub(crate) fn offer(&mut self, mapping: &Mapping) -> Result<f64, MappingError> {
        let report = self.admit(mapping)?;
        let edp = report.edp;
        self.keep(mapping, report);
        Ok(edp)
    }

    /// Keeps an admitted candidate if its EDP is strictly below the best's,
    /// so the first of equals wins; returns whether it was kept.
    pub(crate) fn keep(&mut self, mapping: &Mapping, report: CostReport) -> bool {
        let better = self.best.as_ref().is_none_or(|(_, best)| report.edp < best.edp);
        if better {
            self.best = Some((mapping.clone(), report));
        }
        better
    }

    /// A trial over the same problem for one worker thread: its own
    /// counters and no best. [`join`](Self::join) adds its counters back.
    pub(crate) fn worker(&self) -> Trial<'a> {
        Trial { stats: MapStats::default(), best: None, ..*self }
    }

    /// Adds a finished worker's counters to this trial's.
    pub(crate) fn join(&mut self, worker: Trial<'_>) {
        self.stats.evaluated += worker.stats.evaluated;
        self.stats.invalid += worker.stats.invalid;
    }
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
        let start = Instant::now();
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
                MapOutcome::invalid(&self.name, "no valid mapping", MapStats::since(start))
            }
            Err(e) => MapOutcome::invalid(&self.name, e.to_string(), MapStats::since(start)),
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

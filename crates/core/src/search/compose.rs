//! The composition loop: expand → estimate → select, one stage per memory
//! level that decides something, innermost first.

use std::time::Instant;

use super::beam::{self, Beam};
use super::candidates::{self, Candidates};
use super::estimate::{self, SearchMemo};
use super::stats::SearchStats;
use super::SearchContext;
use crate::progress::ProgressEvent;

/// Why [`run_level_search`] stopped walking the hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SearchStop {
    /// Every stage ran; the beam holds the finished mappings.
    Completed,
    /// A stage produced no candidates (the workload cannot be placed at
    /// that memory level).
    Infeasible { stage: usize },
    /// The cancellation token fired.
    Cancelled,
    /// The wall-clock deadline passed; the beam holds the best partial
    /// states decided so far, each a whole mapping ([`Beam::mappings`]).
    DeadlineReached,
}

/// The outcome of the level walk: the surviving beam plus why it stopped.
pub(crate) struct SearchRun {
    pub(crate) beam: Beam,
    pub(crate) stop: SearchStop,
}

/// Runs the staged search: for each of the context's
/// [`stages`](SearchContext::stages), innermost memory first, expand every
/// beam row into the stage's candidate arena (its enumerations memoized in
/// `memo`), hash the candidates' nests, estimate them (in parallel), and
/// write the rows of the `beam_width` best out as the next beam. The
/// paper's default order (§V-A): partial costs track final costs closely
/// when reuse is resolved where most traffic lives, so the beam cuts early
/// and the explored space stays small. Returns the surviving beam
/// best-estimate first; every row is a whole mapping, what no stage placed
/// sitting at the outermost memory.
///
/// Every checkpoint asks the call's one stop rule,
/// [`CallControls::stop`](super::CallControls::stop): each stage start,
/// between parent expansions and after expansion, inside the enumeration
/// fits closures, and each claim of the estimate round. A stop discards
/// the stage in progress and returns the beam of the last finished stage
/// — the root's when none finished, so a zero time budget prices nothing
/// — whose mappings the caller ranks under the best-so-far contract of
/// [`ScheduleOptions::time_budget`](crate::ScheduleOptions). A cancel is
/// observed within a bounded number of evaluations and is never reported
/// as infeasibility.
pub(crate) fn run_level_search(
    ctx: &SearchContext<'_>,
    memo: &mut SearchMemo,
    stats: &mut SearchStats,
) -> SearchRun {
    let mut cands = Candidates::new(ctx);
    let controls = &ctx.controls;
    let mut beam_states = Beam::root(ctx);
    for stage in 0..ctx.stages {
        // Breadcrumb for the panic-isolation boundary: a fault caught
        // while this stage runs reports `search: level <stage>`.
        crate::session::fault_stage::set(&format!("search: level {stage}"));
        if let Some(stop) = controls.stop() {
            return SearchRun { beam: beam_states, stop };
        }
        if let Some(sink) = controls.progress {
            sink.on_event(&ProgressEvent::LevelStarted { stage, beam: beam_states.len() });
        }
        cands.start_stage(ctx, stage);
        let phase = Instant::now();
        // Between parent expansions (a single expansion is bounded by the
        // enumeration caps, and its fits closures ask too), and after the
        // last: a stop is monotone, so one seen inside the loop is seen
        // again below, and a candidate set a stop truncated never reads
        // as infeasibility.
        for parent in 0..beam_states.len() {
            if controls.stop().is_some() {
                break;
            }
            candidates::expand(ctx, &beam_states, parent, stage, &mut cands, memo, stats);
        }
        // With every run decided, the candidates' columns are sized once
        // and their nests hashed; a stopped stage is discarded unhashed.
        let stop = controls.stop();
        if stop.is_none() {
            let clock = Instant::now();
            cands.hash_children(&beam_states);
            stats.level_mut(stage).expand_rows += clock.elapsed();
        }
        // Recorded before any stop, so the phases still sum to the wall
        // clock of a search that ends here.
        stats.level_mut(stage).expand += phase.elapsed();
        if let Some(stop) = stop {
            return SearchRun { beam: beam_states, stop };
        }
        if cands.is_empty() {
            return SearchRun { beam: Beam::default(), stop: SearchStop::Infeasible { stage } };
        }
        #[cfg(test)]
        if let Some(repeats) = &mut memo.repeated_rows {
            repeats.push(cands.repeated_rows(&beam_states));
            cands.assert_runs_describe_rows(ctx, stage, &beam_states);
        }
        let before = cands.len();
        let phase = Instant::now();
        let round = estimate::estimate_all(ctx, &mut cands, &beam_states, stage, stats);
        stats.level_mut(stage).estimate += phase.elapsed();
        if let Some(stop) = round {
            return SearchRun { beam: beam_states, stop };
        }
        let phase = Instant::now();
        beam_states = beam::select(ctx, &cands, &beam_states, stage, stats);
        stats.level_mut(stage).select += phase.elapsed();
        if let Some(sink) = controls.progress {
            let level = &stats.levels[stage];
            let probes = level.cache_hits + level.cache_misses;
            sink.on_event(&ProgressEvent::LevelFinished {
                stage,
                candidates: before,
                beam: beam_states.len(),
                cache_hit_rate: if probes == 0 {
                    0.0
                } else {
                    level.cache_hits as f64 / probes as f64
                },
                constraint_filtered: level.constraint.pruned(),
            });
        }
    }
    SearchRun { beam: beam_states, stop: SearchStop::Completed }
}

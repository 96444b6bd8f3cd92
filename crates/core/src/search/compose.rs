//! The shared composition loop: expand → dedup → estimate → select, one
//! pass per memory level, with the walk direction abstracted as a
//! [`LevelPass`].

use std::time::Instant;

use sunstone_mapping::MappingLevel;

use super::candidates::{self, Candidates};
use super::estimate::SearchMemo;
use super::stats::SearchStats;
use super::{beam, estimate, CallControls, PartialState, SearchContext};
use crate::progress::ProgressEvent;
use crate::Direction;

/// A direction of the level-by-level walk (Table VI of the paper). Both
/// directions share [`run_level_search`]; a pass only decides the stage
/// order, how one beam state expands, and how the final beam turns into
/// complete mappings.
pub(crate) trait LevelPass {
    /// Direction used when completing partial mappings for estimation.
    fn direction(&self) -> Direction;

    /// Stage indices in visit order (stage `i` decides memory `mems[i]`).
    fn stages(&self, n_mem: usize) -> Vec<usize>;

    /// Expands one beam state at `stage` into candidate rows of `out`
    /// (whose current parent the caller has set to `state`).
    fn expand(
        &self,
        ctx: &SearchContext<'_>,
        state: &PartialState,
        stage: usize,
        out: &mut Candidates,
        memo: &mut SearchMemo,
        stats: &mut SearchStats,
    );

    /// Turns the surviving beam into complete mappings after the last
    /// stage.
    fn finalize(&self, ctx: &SearchContext<'_>, beam: &mut [PartialState]);
}

/// The paper's default: innermost memory outward. Partial costs track
/// final costs closely (reuse is resolved where most traffic lives), so
/// the beam cuts early and the explored space stays small.
pub(crate) struct BottomUpPass;

impl LevelPass for BottomUpPass {
    fn direction(&self) -> Direction {
        Direction::BottomUp
    }

    fn stages(&self, n_mem: usize) -> Vec<usize> {
        (0..n_mem).collect()
    }

    fn expand(
        &self,
        ctx: &SearchContext<'_>,
        state: &PartialState,
        stage: usize,
        out: &mut Candidates,
        memo: &mut SearchMemo,
        stats: &mut SearchStats,
    ) {
        candidates::bottom_up_expand(ctx, state, stage, out, memo, stats);
    }

    fn finalize(&self, _ctx: &SearchContext<'_>, _beam: &mut [PartialState]) {
        // The last stage already placed the remainder; quotas are all 1.
    }
}

/// DRAM inward (the Table VI study). Estimates of partial mappings are
/// far from final costs — the inner levels are undecided — so pruning
/// bites late and the explored space is much larger.
pub(crate) struct TopDownPass;

impl LevelPass for TopDownPass {
    fn direction(&self) -> Direction {
        Direction::TopDown
    }

    fn stages(&self, n_mem: usize) -> Vec<usize> {
        // Stage `i` decides the ordering at `mems[i + 1]`, the gap's
        // unrolls, and the resident tile at `mems[i]`; the innermost
        // memory's own loops are placed by `finalize`.
        (0..n_mem - 1).rev().collect()
    }

    fn expand(
        &self,
        ctx: &SearchContext<'_>,
        state: &PartialState,
        stage: usize,
        out: &mut Candidates,
        // The top-down enumerations are not memoized.
        _memo: &mut SearchMemo,
        stats: &mut SearchStats,
    ) {
        candidates::top_down_expand(ctx, state, stage, out, stats);
    }

    fn finalize(&self, ctx: &SearchContext<'_>, beam: &mut [PartialState]) {
        // The frontier resident tile becomes the innermost memory's own
        // loops.
        let m0 = ctx.mems[0];
        let ndims = ctx.workload.num_dims();
        for s in beam {
            if let MappingLevel::Temporal(t) = &mut s.mapping.levels_mut()[m0] {
                t.factors = s.quotas.to_vec();
                s.quotas = sunstone_ir::DimVec::ones(ndims);
            }
        }
    }
}

/// Why [`run_level_search`] stopped walking the hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SearchStop {
    /// Every stage ran; the beam is finalized.
    Completed,
    /// A stage produced no candidates (the workload cannot be placed at
    /// that memory level).
    Infeasible { stage: usize },
    /// The cancellation token fired.
    Cancelled,
    /// The wall-clock deadline passed; the beam holds the best partial
    /// states decided so far (completable via [`estimate::complete`]).
    DeadlineReached,
}

/// The outcome of the level walk: the surviving beam plus why it stopped.
pub(crate) struct SearchRun {
    pub(crate) beam: Vec<PartialState>,
    pub(crate) stop: SearchStop,
}

/// Runs the staged search: for each stage of the pass, expand every beam
/// state into the stage's candidate arena, dedup, estimate (memoized in
/// `memo`, parallel), and materialize the `beam_width` best as the next
/// beam.
/// Returns the surviving beam best-estimate first, finalized when the
/// walk completed.
///
/// Cancellation is checked before every stage, between parent expansions,
/// inside the enumeration fits closures, and per claim inside the
/// estimate round (a pre-cancelled token stops the search before any
/// work, and a mid-stage cancel is observed within a bounded number of
/// evaluations). The deadline is checked at the same points, with one
/// first-stage concession: the first estimate round always completes its
/// first claim chunk before the deadline engages
/// ([`estimate::DeadlinePolicy::AfterFirstClaim`]), so a zero time budget
/// still yields a usable best-so-far mapping while a large first round
/// cannot overshoot a few-millisecond budget by a whole stage — the
/// graceful-degradation contract of
/// [`ScheduleOptions::time_budget`](crate::ScheduleOptions).
/// A stage aborted mid-round returns the previous beam, which the caller
/// completes under the best-so-far contract.
pub(crate) fn run_level_search(
    ctx: &SearchContext<'_>,
    pass: &dyn LevelPass,
    memo: &mut SearchMemo,
    stats: &mut SearchStats,
    controls: &CallControls<'_>,
) -> SearchRun {
    candidates::with_arena(&ctx.layout, |cands| walk(ctx, pass, memo, stats, controls, cands))
}

/// [`run_level_search`] on the arena `cands`.
fn walk(
    ctx: &SearchContext<'_>,
    pass: &dyn LevelPass,
    memo: &mut SearchMemo,
    stats: &mut SearchStats,
    controls: &CallControls<'_>,
    cands: &mut Candidates,
) -> SearchRun {
    let mut beam_states = vec![PartialState::root(ctx)];
    for (i, stage) in pass.stages(ctx.mems.len()).into_iter().enumerate() {
        // Breadcrumb for the panic-isolation boundary: a fault caught
        // while this stage runs reports `search: level <stage>`.
        crate::session::fault_stage::set(&format!("search: level {stage}"));
        if controls.cancelled() {
            return SearchRun { beam: beam_states, stop: SearchStop::Cancelled };
        }
        if i > 0 && controls.past_deadline() {
            return SearchRun { beam: beam_states, stop: SearchStop::DeadlineReached };
        }
        if let Some(sink) = controls.progress {
            sink.on_event(&ProgressEvent::LevelStarted { stage, beam: beam_states.len() });
        }
        cands.clear();
        let phase = Instant::now();
        let mut stop = None;
        for (parent, state) in beam_states.iter().enumerate() {
            // Bounded-latency controls between parent expansions (a
            // single expansion is bounded by the enumeration caps; the
            // fits closures additionally observe cancellation inside the
            // enumeration trees). The deadline keeps the first-stage
            // exemption of the zero-budget contract.
            if controls.cancelled() {
                stop = Some(SearchStop::Cancelled);
                break;
            }
            if i > 0 && controls.past_deadline() {
                stop = Some(SearchStop::DeadlineReached);
                break;
            }
            cands.begin_parent(&ctx.layout, parent, state);
            pass.expand(ctx, state, stage, cands, memo, stats);
        }
        // Recorded before any stop, so the phases still sum to the wall
        // clock of a search that ends here.
        stats.level_mut(stage).expand += phase.elapsed();
        // A cancel that fired inside the enumeration closures can truncate
        // the candidate set; report it as a cancel, never as infeasibility.
        if stop.is_none() && controls.cancelled() {
            stop = Some(SearchStop::Cancelled);
        }
        if let Some(stop) = stop {
            return SearchRun { beam: beam_states, stop };
        }
        if cands.is_empty() {
            return SearchRun { beam: Vec::new(), stop: SearchStop::Infeasible { stage } };
        }
        let phase = Instant::now();
        let removed = beam::dedup(cands, &ctx.layout);
        let level = stats.level_mut(stage);
        level.dedup_removed += removed as u64;
        level.dedup += phase.elapsed();
        let before = cands.len();
        let deadline = if i > 0 {
            estimate::DeadlinePolicy::Always
        } else {
            estimate::DeadlinePolicy::AfterFirstClaim
        };
        let phase = Instant::now();
        let round =
            estimate::estimate_all(ctx, pass.direction(), cands, stage, deadline, memo, stats);
        stats.level_mut(stage).estimate += phase.elapsed();
        match round {
            estimate::RoundStatus::Done => {}
            estimate::RoundStatus::Cancelled => {
                return SearchRun { beam: beam_states, stop: SearchStop::Cancelled };
            }
            estimate::RoundStatus::DeadlineReached => {
                return SearchRun { beam: beam_states, stop: SearchStop::DeadlineReached };
            }
        }
        let phase = Instant::now();
        beam_states = beam::select(ctx, cands, stage, stats);
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
    pass.finalize(ctx, &mut beam_states);
    SearchRun { beam: beam_states, stop: SearchStop::Completed }
}

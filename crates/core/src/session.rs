//! The session-oriented scheduler API: [`Scheduler`].
//!
//! The paper's headline claim is scheduling *scale* — whole networks in
//! seconds — and the unit of scheduling at that scale is the network, not
//! the layer. A [`Scheduler`] is a long-lived, thread-safe session that
//! amortizes work across calls:
//!
//! * the **estimate cache** lives as long as the session and is keyed by
//!   *(workload, architecture, configuration, mapping)* fingerprints
//!   ([`crate::fingerprint`]), so repeated calls — and the repeated layer
//!   shapes every real network contains — skip the analytic model;
//! * [`schedule_batch`](Scheduler::schedule_batch) canonicalizes a slice
//!   of workloads, **dedups identical shapes** (ResNet-style networks
//!   repeat most blocks), searches only the unique shapes — fanned out
//!   over the session's persistent worker pool — and replays each result
//!   per occurrence;
//! * per-call **controls** bound the work — one shared [`CallOptions`]
//!   block (embedded in [`ScheduleOptions`] and [`BatchOptions`]) with a
//!   wall-clock [`time_budget`](CallOptions::time_budget) and graceful
//!   best-so-far return, a cooperative [`CancelToken`], a
//!   [`ProgressSink`] streaming level/layer events, and a per-call
//!   constraint override.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use sunstone_arch::{ArchSpec, Binding};
use sunstone_ir::Workload;
use sunstone_mapping::{Mapping, MappingConstraints, ValidationContext};
use sunstone_model::CostReport;

use crate::constraints::ResolvedConstraints;
use crate::error::ScheduleError;
use crate::fingerprint::{context_fingerprint, workload_fingerprint};
use crate::pool::{panic_message, SliceWriter, WorkerPool};
use crate::progress::{CancelToken, ProgressEvent, ProgressSink};
use crate::search::compose::{run_level_search, BottomUpPass, LevelPass, SearchStop, TopDownPass};
use crate::search::estimate::{self, EstimateCache, SessionCache};
use crate::search::{CacheStats, CallControls, SearchContext, SearchStats};
use crate::{Direction, SunstoneConfig};

/// Thread-local breadcrumb naming the pipeline stage currently executing,
/// read by the panic-isolation boundary when it catches a fault. A panic
/// inside a worker-pool round re-raises on the *submitting* thread — the
/// thread that set the breadcrumb — so the boundary always reads the
/// breadcrumb of the faulting call, even with parallel estimate rounds.
pub(crate) mod fault_stage {
    use std::cell::RefCell;

    thread_local! {
        static STAGE: RefCell<String> = const { RefCell::new(String::new()) };
    }

    pub(crate) fn set(stage: &str) {
        STAGE.with(|s| {
            let mut s = s.borrow_mut();
            s.clear();
            s.push_str(stage);
        });
    }

    pub(crate) fn get() -> String {
        STAGE.with(|s| s.borrow().clone())
    }
}

/// Emits a [`ProgressEvent::Fault`] on the sink, swallowing any panic the
/// sink itself raises: the fault path must never fault.
fn emit_fault(sink: Option<&dyn ProgressSink>, stage: &str, layer: Option<&str>, message: &str) {
    if let Some(sink) = sink {
        let event = ProgressEvent::Fault {
            stage: stage.to_string(),
            layer: layer.map(str::to_string),
            message: message.to_string(),
        };
        let _ = panic::catch_unwind(AssertUnwindSafe(|| sink.on_event(&event)));
    }
}

/// The result of one scheduling run.
#[derive(Debug, Clone)]
pub struct ScheduleResult {
    /// The best mapping found.
    pub mapping: Mapping,
    /// Its cost report (energy, delay, EDP, per-level breakdown).
    pub report: CostReport,
    /// Search statistics (flat totals plus the per-level, per-principle
    /// pruning breakdown).
    pub stats: SearchStats,
}

/// How a bounded scheduling call ended.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub enum ScheduleOutcome {
    /// The search ran every stage; the results are the real top-k.
    Complete(Vec<ScheduleResult>),
    /// The wall-clock budget expired mid-walk; the results are the best
    /// valid completions of the beam decided so far.
    BestSoFar(Vec<ScheduleResult>),
}

impl ScheduleOutcome {
    /// The ranked results, best first (never empty on an `Ok` outcome).
    pub fn results(&self) -> &[ScheduleResult] {
        match self {
            ScheduleOutcome::Complete(r) | ScheduleOutcome::BestSoFar(r) => r,
        }
    }

    /// Consumes the outcome into its ranked results.
    pub fn into_results(self) -> Vec<ScheduleResult> {
        match self {
            ScheduleOutcome::Complete(r) | ScheduleOutcome::BestSoFar(r) => r,
        }
    }

    /// Whether the search ran to completion (vs. a best-so-far cut).
    pub fn is_complete(&self) -> bool {
        matches!(self, ScheduleOutcome::Complete(_))
    }

    /// Consumes the outcome into its best result plus a *degraded*
    /// marker: `true` when the wall-clock budget cut the search short,
    /// so the result is the best-so-far of the beam, not the proven
    /// optimum. Serving layers use the marker to avoid caching a
    /// deadline-degraded mapping as if it were the true best.
    pub fn into_best(self) -> (ScheduleResult, bool) {
        let degraded = !self.is_complete();
        (self.into_results().remove(0), degraded)
    }
}

/// The per-call controls shared by **every** scheduling entry point:
/// constraint override, wall-clock budget, cooperative cancellation, and
/// progress reporting. [`ScheduleOptions`] and [`BatchOptions`] embed one
/// `CallOptions` (their [`call`](ScheduleOptions::call) field) and add
/// only what is specific to their call shape.
///
/// Construct with the builder-style setters — the struct is
/// `#[non_exhaustive]`, so fields can be *read* anywhere but new fields
/// can land without a major version:
///
/// ```
/// use std::time::Duration;
/// use sunstone::prelude::*;
///
/// let opts = ScheduleOptions::new()
///     .top_k(4)
///     .time_budget(Duration::from_millis(50))
///     .cancel(CancelToken::new());
/// assert_eq!(opts.top_k, 4);
/// assert!(opts.call.time_budget.is_some());
/// ```
#[derive(Clone, Default)]
#[non_exhaustive]
pub struct CallOptions {
    /// Mapping constraints for this call, overriding
    /// [`SunstoneConfig::constraints`] when set (`None` uses the config's
    /// set, which defaults to unconstrained). Unsatisfiable sets fail
    /// with [`ScheduleError::InvalidConstraints`].
    pub constraints: Option<MappingConstraints>,
    /// Wall-clock budget. When it expires mid-search the call returns
    /// [`ScheduleOutcome::BestSoFar`] with the best valid completions of
    /// the current beam — the first estimate round always completes its
    /// first claim chunk before the deadline engages, so even a zero
    /// budget yields a usable (if unrefined) mapping, while a large first
    /// round cannot overshoot a few-millisecond budget by a whole stage.
    /// For a batch the budget covers the *whole batch*.
    pub time_budget: Option<Duration>,
    /// Cooperative cancellation; when fired the call returns
    /// [`ScheduleError::Cancelled`]. A batch shares one token across
    /// every worker.
    pub cancel: Option<CancelToken>,
    /// Progress callback (level started/finished per search; layer
    /// started/finished per unique batch shape).
    pub progress: Option<Arc<dyn ProgressSink>>,
}

impl CallOptions {
    /// Empty controls: unconstrained, unbounded, uncancellable, silent.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the per-call constraint override.
    pub fn constraints(mut self, constraints: MappingConstraints) -> Self {
        self.constraints = Some(constraints);
        self
    }

    /// Sets the wall-clock budget.
    pub fn time_budget(mut self, budget: Duration) -> Self {
        self.time_budget = Some(budget);
        self
    }

    /// Sets the cancellation token.
    pub fn cancel(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Sets the progress sink.
    pub fn progress(mut self, sink: Arc<dyn ProgressSink>) -> Self {
        self.progress = Some(sink);
        self
    }
}

impl std::fmt::Debug for CallOptions {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CallOptions")
            .field("constraints", &self.constraints)
            .field("time_budget", &self.time_budget)
            .field("cancel", &self.cancel)
            .field("progress", &self.progress.as_ref().map(|_| "…"))
            .finish()
    }
}

/// Per-call options for [`Scheduler::schedule_with`]: the shared
/// [`CallOptions`] plus the result count. Construct with the
/// builder-style setters (see [`CallOptions`] for an example); the
/// shared setters are mirrored here, so one chain configures everything.
#[derive(Clone, Default)]
#[non_exhaustive]
pub struct ScheduleOptions {
    /// How many ranked results to return (0 is treated as 1).
    pub top_k: usize,
    /// The controls shared by every entry point (constraints, budget,
    /// cancellation, progress).
    pub call: CallOptions,
}

impl ScheduleOptions {
    /// Default options: best result only, no controls.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets how many ranked results to return.
    pub fn top_k(mut self, top_k: usize) -> Self {
        self.top_k = top_k;
        self
    }

    /// Replaces the whole shared-controls block.
    pub fn call(mut self, call: CallOptions) -> Self {
        self.call = call;
        self
    }

    /// Sets the per-call constraint override (see [`CallOptions::constraints`]).
    pub fn constraints(mut self, constraints: MappingConstraints) -> Self {
        self.call = self.call.constraints(constraints);
        self
    }

    /// Sets the wall-clock budget (see [`CallOptions::time_budget`]).
    pub fn time_budget(mut self, budget: Duration) -> Self {
        self.call = self.call.time_budget(budget);
        self
    }

    /// Sets the cancellation token (see [`CallOptions::cancel`]).
    pub fn cancel(mut self, token: CancelToken) -> Self {
        self.call = self.call.cancel(token);
        self
    }

    /// Sets the progress sink (see [`CallOptions::progress`]).
    pub fn progress(mut self, sink: Arc<dyn ProgressSink>) -> Self {
        self.call = self.call.progress(sink);
        self
    }
}

impl std::fmt::Debug for ScheduleOptions {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ScheduleOptions")
            .field("top_k", &self.top_k)
            .field("call", &self.call)
            .finish()
    }
}

/// Per-call options for [`Scheduler::schedule_batch_with`]: the shared
/// [`CallOptions`] plus the per-layer result count and the failure
/// policy. Construct with the builder-style setters.
#[derive(Clone, Default)]
#[non_exhaustive]
pub struct BatchOptions {
    /// Ranked results kept per layer (0 is treated as 1). The network
    /// layout-consistency pass uses this to choose among near-optimal
    /// candidates.
    pub top_k: usize,
    /// Stop starting new unique shapes after the first failure: shapes
    /// not yet started when a failure is observed report
    /// [`ScheduleError::Cancelled`] in the [`BatchOutcome`]. Off by
    /// default — the default contract is graceful partial failure, where
    /// every layer is attempted and reports its own `Result`.
    pub fail_fast: bool,
    /// The controls shared by every entry point. The constraint override
    /// applies to **every layer** of the batch; the time budget covers
    /// the whole batch.
    pub call: CallOptions,
}

impl BatchOptions {
    /// Default options: best result per layer, graceful partial failure.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets how many ranked results to keep per layer.
    pub fn top_k(mut self, top_k: usize) -> Self {
        self.top_k = top_k;
        self
    }

    /// Sets the fail-fast failure policy.
    pub fn fail_fast(mut self, fail_fast: bool) -> Self {
        self.fail_fast = fail_fast;
        self
    }

    /// Replaces the whole shared-controls block.
    pub fn call(mut self, call: CallOptions) -> Self {
        self.call = call;
        self
    }

    /// Sets the batch-wide constraint override (see [`CallOptions::constraints`]).
    pub fn constraints(mut self, constraints: MappingConstraints) -> Self {
        self.call = self.call.constraints(constraints);
        self
    }

    /// Sets the whole-batch wall-clock budget (see [`CallOptions::time_budget`]).
    pub fn time_budget(mut self, budget: Duration) -> Self {
        self.call = self.call.time_budget(budget);
        self
    }

    /// Sets the cancellation token (see [`CallOptions::cancel`]).
    pub fn cancel(mut self, token: CancelToken) -> Self {
        self.call = self.call.cancel(token);
        self
    }

    /// Sets the progress sink (see [`CallOptions::progress`]).
    pub fn progress(mut self, sink: Arc<dyn ProgressSink>) -> Self {
        self.call = self.call.progress(sink);
        self
    }
}

impl std::fmt::Debug for BatchOptions {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BatchOptions")
            .field("top_k", &self.top_k)
            .field("fail_fast", &self.fail_fast)
            .field("call", &self.call)
            .finish()
    }
}

/// Aggregate statistics of one [`Scheduler::schedule_batch`] call.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
#[non_exhaustive]
pub struct BatchStats {
    /// Input workloads.
    pub layers: usize,
    /// Distinct layer shapes actually searched.
    pub unique_shapes: usize,
    /// Layers served by replaying another layer's search
    /// (`layers − unique_shapes`).
    pub dedup_hits: usize,
    /// Unique searches cut short by the time budget (their layers hold
    /// best-so-far results).
    pub best_so_far: usize,
    /// Session-cache hits during this call.
    pub cache_hits: u64,
    /// Session-cache misses (model evaluations) during this call.
    pub cache_misses: u64,
    /// Mappings estimated across the unique searches
    /// ([`SearchStats::probed`] summed per unique shape).
    pub evaluated: u64,
    /// Layers whose search failed (their [`BatchOutcome`] entries are
    /// `Err`); every occurrence of a failed deduped shape counts.
    pub failed: usize,
    /// Wall-clock time of the whole batch call.
    pub elapsed: Duration,
}

/// The result of scheduling a batch of workloads.
#[derive(Debug, Clone)]
pub struct BatchResult {
    /// Per input layer, the ranked results (best first) — layers with
    /// identical shapes share identical (replayed) results.
    pub layers: Vec<Vec<ScheduleResult>>,
    /// Dedup/cache/parallelism statistics of the call.
    pub stats: BatchStats,
}

impl BatchResult {
    /// The best result of layer `i`.
    pub fn best(&self, i: usize) -> &ScheduleResult {
        &self.layers[i][0]
    }

    /// Iterates over the best result of each layer, in input order.
    pub fn bests(&self) -> impl Iterator<Item = &ScheduleResult> {
        self.layers.iter().map(|l| &l[0])
    }

    /// Total EDP across the batch (sum of each layer's best EDP).
    pub fn total_edp(&self) -> f64 {
        self.bests().map(|r| r.report.edp).sum()
    }
}

/// The outcome of a batch call with **per-layer failure granularity**
/// ([`Scheduler::schedule_batch_outcomes`]): one `Result` per input
/// layer. An infeasible or faulting layer no longer aborts the batch — a
/// failure in one deduped shape fails exactly the layers sharing that
/// shape (they replay the same error), and every other layer still
/// carries its ranked mappings.
#[derive(Debug, Clone)]
pub struct BatchOutcome {
    /// Per input layer, the ranked results (best first) or that layer's
    /// error. Layers with identical shapes share the replayed result —
    /// or the replayed error.
    pub layers: Vec<Result<Vec<ScheduleResult>, ScheduleError>>,
    /// Dedup/cache/parallelism statistics of the call; per-layer success
    /// is summarized by [`BatchStats::failed`].
    pub stats: BatchStats,
}

impl BatchOutcome {
    /// Whether every layer scheduled successfully.
    pub fn all_ok(&self) -> bool {
        self.layers.iter().all(Result::is_ok)
    }

    /// The best result of layer `i`, or `None` if that layer failed.
    pub fn best(&self, i: usize) -> Option<&ScheduleResult> {
        self.layers[i].as_ref().ok().and_then(|l| l.first())
    }

    /// Iterates over the failed layers as `(input position, error)`.
    pub fn failures(&self) -> impl Iterator<Item = (usize, &ScheduleError)> {
        self.layers.iter().enumerate().filter_map(|(i, l)| l.as_ref().err().map(|e| (i, e)))
    }

    /// Collapses into the all-or-nothing [`BatchResult`]: the first
    /// failing layer's error — input order, which coincides with the
    /// failing shape's first-occurrence order — or every layer's results.
    ///
    /// # Errors
    ///
    /// The first failing layer's error, if any layer failed.
    pub fn into_result(self) -> Result<BatchResult, ScheduleError> {
        let mut layers = Vec::with_capacity(self.layers.len());
        for layer in self.layers {
            layers.push(layer?);
        }
        Ok(BatchResult { layers, stats: self.stats })
    }
}

/// A long-lived, thread-safe scheduling session; see the
/// [module documentation](self).
///
/// Cloning is cheap and clones **share** the session's estimate cache, so
/// a `Scheduler` can be handed to several threads (it is also `Sync`, so
/// `&Scheduler` works just as well).
#[derive(Debug, Clone)]
pub struct Scheduler {
    config: SunstoneConfig,
    cache: Arc<SessionCache>,
    /// The session-persistent worker pool, created lazily on the first
    /// call that needs it (so constructing a `Scheduler` spawns nothing)
    /// and shared by clones. `threads − 1` background workers — the
    /// submitting thread always participates, so one configured thread
    /// means a pool with zero workers running inline.
    pool: Arc<OnceLock<WorkerPool>>,
}

impl Scheduler {
    /// Creates a session with the given configuration.
    ///
    /// The configuration is validated on each call (not here), so an
    /// invalid hand-constructed config fails with
    /// [`ScheduleError::InvalidConfig`] rather than panicking. Configs
    /// from [`SunstoneConfig::builder`](crate::SunstoneConfig::builder)
    /// are always valid.
    pub fn new(config: SunstoneConfig) -> Self {
        Scheduler { config, cache: Arc::new(SessionCache::new()), pool: Arc::new(OnceLock::new()) }
    }

    /// The active configuration.
    pub fn config(&self) -> &SunstoneConfig {
        &self.config
    }

    /// The session worker pool (lazily spawned).
    fn pool(&self) -> &WorkerPool {
        self.pool.get_or_init(|| WorkerPool::new(self.config.effective_threads().saturating_sub(1)))
    }

    /// Cumulative statistics of the session estimate cache and worker
    /// pool.
    pub fn cache_stats(&self) -> CacheStats {
        let mut stats = self.cache.stats();
        if let Some(pool) = self.pool.get() {
            stats.pool_rounds = pool.rounds();
        }
        stats
    }

    /// Drops every cached estimate and resets the session's counters.
    /// Useful for bounding memory in very long-lived sessions.
    pub fn clear_cache(&self) {
        self.cache.clear();
    }

    /// The *(workload, arch, config, constraints)* context fingerprint a
    /// [`schedule`](Self::schedule) call on this session would cache
    /// under, using the session config's constraint set (the default for
    /// calls without a per-call override). This is the stable identity
    /// out-of-process callers — the serve daemon's on-disk mapping store
    /// in particular — key persisted results by.
    pub fn context_fingerprint(&self, workload: &Workload, arch: &ArchSpec) -> u64 {
        context_fingerprint(workload, arch, &self.config, &self.config.constraints)
    }

    /// Validates and prices an externally supplied `mapping` (typically
    /// reloaded from a persistent store) for `workload` on `arch`,
    /// filing its estimate in the session estimate cache under the hash a
    /// search's own probe of that mapping uses. A daemon restarting on an
    /// existing store calls this per record so repeated queries hit the
    /// warm cache, and the returned [`CostReport`] re-prices the mapping
    /// under the *current* cost model — a stale stored EDP is never
    /// trusted.
    ///
    /// # Errors
    ///
    /// [`ScheduleError::InvalidMapping`] when the mapping fails
    /// re-validation for this (workload, arch) pair; configuration,
    /// architecture, and binding errors as in
    /// [`schedule`](Self::schedule). Panics inside the model are caught
    /// at the same isolation boundary as a search and surface as
    /// [`ScheduleError::Internal`].
    pub fn prime_mapping(
        &self,
        workload: &Workload,
        arch: &ArchSpec,
        mapping: &Mapping,
    ) -> Result<CostReport, ScheduleError> {
        fault_stage::set("prime");
        match panic::catch_unwind(AssertUnwindSafe(|| {
            self.prime_mapping_inner(workload, arch, mapping)
        })) {
            Ok(result) => result,
            Err(payload) => {
                self.cache.evict_context(self.context_fingerprint(workload, arch));
                let message = panic_message(payload.as_ref());
                emit_fault(None, "prime", Some(workload.name()), &message);
                Err(ScheduleError::Internal {
                    stage: "prime".into(),
                    layer: Some(workload.name().to_string()),
                    message,
                })
            }
        }
    }

    /// The body guarded by the boundary in
    /// [`prime_mapping`](Self::prime_mapping): resolve the context the
    /// way [`run_one_inner`](Self::run_one_inner) does, validate the
    /// mapping, and evaluate it through the session cache.
    fn prime_mapping_inner(
        &self,
        workload: &Workload,
        arch: &ArchSpec,
        mapping: &Mapping,
    ) -> Result<CostReport, ScheduleError> {
        self.config.validate()?;
        arch.validate()?;
        let constraints = &self.config.constraints;
        let resolved = ResolvedConstraints::resolve(constraints, workload, arch)?;
        let mut binding = Binding::resolve(arch, workload)?;
        for (level, tensor, name) in &resolved.bypass {
            binding = binding
                .with_bypass(*level, *tensor, name)
                .map_err(|e| ScheduleError::InvalidConstraints { reason: e.to_string() })?;
        }
        let vctx = ValidationContext::new(workload, arch, &binding);
        vctx.validate(mapping)
            .map_err(|e| ScheduleError::InvalidMapping { reason: e.to_string() })?;
        let ctx_fp = context_fingerprint(workload, arch, &self.config, constraints);
        let cache = EstimateCache::new(
            self.config.estimate_cache,
            ctx_fp,
            self.config.max_cache_entries,
            &self.cache,
        );
        let ctx = SearchContext::new(
            workload,
            arch,
            &binding,
            &self.config,
            cache,
            self.pool(),
            None,
            None,
            resolved,
        );
        let mut stats = SearchStats::default();
        Ok(estimate::evaluate_cached(&ctx, mapping, &mut stats))
    }

    /// Finds the best mapping of `workload` onto `arch`.
    ///
    /// # Errors
    ///
    /// Fails if the configuration or architecture is invalid, tensors
    /// cannot be bound, or no valid mapping exists.
    pub fn schedule(
        &self,
        workload: &Workload,
        arch: &ArchSpec,
    ) -> Result<ScheduleResult, ScheduleError> {
        Ok(self
            .schedule_with(workload, arch, &ScheduleOptions::default())?
            .into_results()
            .remove(0))
    }

    /// Finds the `k` best distinct mappings, best first (the survivors of
    /// the final beam).
    ///
    /// # Errors
    ///
    /// As [`schedule`](Self::schedule); an `Ok` result contains at least
    /// one mapping.
    pub fn schedule_top_k(
        &self,
        workload: &Workload,
        arch: &ArchSpec,
        k: usize,
    ) -> Result<Vec<ScheduleResult>, ScheduleError> {
        let opts = ScheduleOptions { top_k: k, ..ScheduleOptions::default() };
        Ok(self.schedule_with(workload, arch, &opts)?.into_results())
    }

    /// Schedules one workload under the full set of per-call controls.
    ///
    /// # Errors
    ///
    /// As [`schedule`](Self::schedule), plus
    /// [`ScheduleError::Cancelled`] when the token fires and
    /// [`ScheduleError::BudgetExhausted`] when the budget expires before
    /// any valid mapping exists.
    pub fn schedule_with(
        &self,
        workload: &Workload,
        arch: &ArchSpec,
        options: &ScheduleOptions,
    ) -> Result<ScheduleOutcome, ScheduleError> {
        let start = Instant::now();
        let controls = CallControls {
            deadline: options.call.time_budget.map(|b| start + b),
            cancel: options.call.cancel.as_ref(),
            progress: options.call.progress.as_deref(),
        };
        let constraints = options.call.constraints.as_ref().unwrap_or(&self.config.constraints);
        self.run_one(workload, arch, options.top_k, start, &controls, constraints)
    }

    /// Schedules a batch of workloads, deduplicating identical shapes and
    /// fanning the unique ones out across worker threads. Equivalent to —
    /// and bitwise consistent with — calling
    /// [`schedule`](Self::schedule) per layer, but each distinct shape is
    /// searched exactly once.
    ///
    /// # Errors
    ///
    /// Fails with the first failing layer's error (in first-occurrence
    /// order).
    pub fn schedule_batch(
        &self,
        workloads: &[Workload],
        arch: &ArchSpec,
    ) -> Result<BatchResult, ScheduleError> {
        self.schedule_batch_with(workloads, arch, &BatchOptions::default())
    }

    /// [`schedule_batch`](Self::schedule_batch) with per-call controls;
    /// see [`BatchOptions`]. All-or-nothing: for per-layer failure
    /// granularity use
    /// [`schedule_batch_outcomes`](Self::schedule_batch_outcomes), which
    /// this method delegates to.
    ///
    /// # Errors
    ///
    /// As [`schedule_batch`](Self::schedule_batch), plus cancellation and
    /// budget errors as in [`schedule_with`](Self::schedule_with).
    pub fn schedule_batch_with(
        &self,
        workloads: &[Workload],
        arch: &ArchSpec,
        options: &BatchOptions,
    ) -> Result<BatchResult, ScheduleError> {
        self.schedule_batch_outcomes(workloads, arch, options)?.into_result()
    }

    /// Schedules a batch with **graceful partial-failure semantics**: the
    /// returned [`BatchOutcome`] carries one `Result` per input layer, so
    /// an infeasible or internally faulting layer fails only the layers
    /// sharing its deduped shape while every other layer still gets its
    /// mappings. [`BatchOptions::fail_fast`] opts back into stopping at
    /// the first failure.
    ///
    /// # Errors
    ///
    /// Only whole-call failures error here: an invalid configuration or
    /// architecture (nothing can be scheduled), or an internal fault
    /// outside every per-layer boundary. Per-layer failures are reported
    /// inside the `Ok` outcome.
    pub fn schedule_batch_outcomes(
        &self,
        workloads: &[Workload],
        arch: &ArchSpec,
        options: &BatchOptions,
    ) -> Result<BatchOutcome, ScheduleError> {
        // Panic-isolation boundary for the batch infrastructure itself
        // (dedup, pool fan-out, assembly; a panic in one layer's search is
        // already converted inside `run_one`, and a worker-pool panic
        // re-raises here on the submitting thread).
        match panic::catch_unwind(AssertUnwindSafe(|| self.batch_inner(workloads, arch, options))) {
            Ok(result) => result,
            Err(payload) => {
                // Poison-and-recover: a fault at this level may have
                // interrupted any layer's publish, so evict every context
                // the batch can have touched.
                let constraints =
                    options.call.constraints.as_ref().unwrap_or(&self.config.constraints);
                for w in workloads {
                    self.cache.evict_context(context_fingerprint(
                        w,
                        arch,
                        &self.config,
                        constraints,
                    ));
                }
                let message = panic_message(payload.as_ref());
                emit_fault(options.call.progress.as_deref(), "batch", None, &message);
                Err(ScheduleError::Internal { stage: "batch".into(), layer: None, message })
            }
        }
    }

    /// The batch body guarded by the boundary in
    /// [`schedule_batch_outcomes`](Self::schedule_batch_outcomes).
    fn batch_inner(
        &self,
        workloads: &[Workload],
        arch: &ArchSpec,
        options: &BatchOptions,
    ) -> Result<BatchOutcome, ScheduleError> {
        let start = Instant::now();
        let cache_before = self.cache.stats();
        self.config.validate()?;
        arch.validate()?;

        // Canonicalize: identical shapes (names aside) collapse onto the
        // first occurrence.
        let mut slot_of: HashMap<u64, usize> = HashMap::new();
        let mut unique: Vec<usize> = Vec::new();
        let mut assign: Vec<usize> = Vec::with_capacity(workloads.len());
        for (i, w) in workloads.iter().enumerate() {
            match slot_of.entry(workload_fingerprint(w)) {
                Entry::Occupied(e) => assign.push(*e.get()),
                Entry::Vacant(v) => {
                    v.insert(unique.len());
                    assign.push(unique.len());
                    unique.push(i);
                }
            }
        }

        // Fan the unique shapes out over the session worker pool (the
        // submitting thread participates). Per-shape results are
        // deterministic and land in index-disjoint slots, so the assembly
        // below is identical for any worker count.
        let deadline = options.call.time_budget.map(|b| start + b);
        let constraints = options.call.constraints.as_ref().unwrap_or(&self.config.constraints);
        let failed = AtomicBool::new(false);
        let mut slots: Vec<Option<Result<ScheduleOutcome, ScheduleError>>> =
            unique.iter().map(|_| None).collect();
        {
            let writer = SliceWriter::new(&mut slots);
            self.pool().run(unique.len(), &|u| {
                let input_idx = unique[u];
                let w = &workloads[input_idx];
                let layer = || -> Result<ScheduleOutcome, ScheduleError> {
                    if options.fail_fast && failed.load(Ordering::Relaxed) {
                        // Documented fail-fast contract: shapes skipped
                        // after the first observed failure report
                        // `Cancelled`, distinguishable from real failures.
                        return Err(ScheduleError::Cancelled);
                    }
                    if let Some(sink) = &options.call.progress {
                        sink.on_event(&ProgressEvent::LayerStarted {
                            unique: u,
                            name: w.name().to_string(),
                        });
                    }
                    let layer_start = Instant::now();
                    let controls = CallControls {
                        deadline,
                        cancel: options.call.cancel.as_ref(),
                        progress: None,
                    };
                    let outcome =
                        self.run_one(w, arch, options.top_k, layer_start, &controls, constraints);
                    if let Some(sink) = &options.call.progress {
                        if let Err(ScheduleError::Internal { stage, layer, message }) = &outcome {
                            sink.on_event(&ProgressEvent::Fault {
                                stage: stage.clone(),
                                layer: layer.clone(),
                                message: message.clone(),
                            });
                        }
                        sink.on_event(&ProgressEvent::LayerFinished {
                            unique: u,
                            evaluated: outcome
                                .as_ref()
                                .map(|o| o.results()[0].stats.probed)
                                .unwrap_or(0),
                            elapsed: layer_start.elapsed(),
                        });
                    }
                    outcome
                };
                // Second boundary around the per-layer task: `run_one`
                // guards the search, but the progress callbacks run
                // arbitrary user code — a panicking sink must fail its
                // layer, not the batch.
                let outcome =
                    panic::catch_unwind(AssertUnwindSafe(layer)).unwrap_or_else(|payload| {
                        self.cache.evict_context(context_fingerprint(
                            w,
                            arch,
                            &self.config,
                            constraints,
                        ));
                        Err(ScheduleError::Internal {
                            stage: "batch: layer".into(),
                            layer: Some(w.name().to_string()),
                            message: panic_message(payload.as_ref()),
                        })
                    });
                if outcome.is_err() {
                    failed.store(true, Ordering::Relaxed);
                }
                // SAFETY: the pool feeds each index to exactly one task.
                unsafe { writer.write(u, Some(outcome)) };
            });
        }

        // Assemble: replay each unique result — or error — onto its
        // occurrences.
        let mut per_unique: Vec<Result<(Vec<ScheduleResult>, bool), ScheduleError>> =
            Vec::with_capacity(unique.len());
        for slot in slots {
            let outcome = slot.expect("every unique shape was scheduled");
            per_unique.push(outcome.map(|o| {
                let complete = o.is_complete();
                (o.into_results(), complete)
            }));
        }

        let stats = BatchStats {
            layers: workloads.len(),
            unique_shapes: unique.len(),
            dedup_hits: workloads.len() - unique.len(),
            best_so_far: per_unique
                .iter()
                .filter(|r| matches!(r, Ok((_, complete)) if !complete))
                .count(),
            cache_hits: self.cache.stats().hits - cache_before.hits,
            cache_misses: self.cache.stats().misses - cache_before.misses,
            evaluated: per_unique
                .iter()
                .filter_map(|r| r.as_ref().ok())
                .map(|(r, _)| r[0].stats.probed)
                .sum(),
            failed: assign.iter().filter(|&&slot| per_unique[slot].is_err()).count(),
            elapsed: start.elapsed(),
        };
        let layers = assign
            .iter()
            .map(|&slot| per_unique[slot].clone().map(|(results, _)| results))
            .collect();
        Ok(BatchOutcome { layers, stats })
    }

    /// One bounded search behind the **panic-isolation boundary**: any
    /// panic escaping the search (a model bug, an arithmetic overflow, an
    /// injected fault) is converted into
    /// [`ScheduleError::Internal`] instead of unwinding into the caller.
    /// The boundary also *poisons-and-recovers* the session cache: every
    /// cached estimate for this (workload, arch, config) context is
    /// evicted, because a fault mid-publish can leave the context
    /// partially populated. A follow-up call on the same session therefore
    /// recomputes from scratch and returns results bit-identical to a
    /// fresh session.
    fn run_one(
        &self,
        workload: &Workload,
        arch: &ArchSpec,
        top_k: usize,
        start: Instant,
        controls: &CallControls<'_>,
        constraints: &MappingConstraints,
    ) -> Result<ScheduleOutcome, ScheduleError> {
        fault_stage::set("setup");
        match panic::catch_unwind(AssertUnwindSafe(|| {
            self.run_one_inner(workload, arch, top_k, start, controls, constraints)
        })) {
            Ok(result) => result,
            Err(payload) => {
                self.cache.evict_context(context_fingerprint(
                    workload,
                    arch,
                    &self.config,
                    constraints,
                ));
                let stage = match fault_stage::get() {
                    s if s.is_empty() => "setup".to_string(),
                    s => s,
                };
                let message = panic_message(payload.as_ref());
                emit_fault(controls.progress, &stage, Some(workload.name()), &message);
                Err(ScheduleError::Internal {
                    stage,
                    layer: Some(workload.name().to_string()),
                    message,
                })
            }
        }
    }

    /// The search body guarded by the boundary in [`run_one`](Self::run_one):
    /// resolve the problem, pick the direction pass, walk the levels, and
    /// rank the valid completions.
    fn run_one_inner(
        &self,
        workload: &Workload,
        arch: &ArchSpec,
        top_k: usize,
        start: Instant,
        controls: &CallControls<'_>,
        constraints: &MappingConstraints,
    ) -> Result<ScheduleOutcome, ScheduleError> {
        self.config.validate()?;
        arch.validate()?;
        // Resolve the user constraints against this (workload, arch) pair
        // up front: an unsatisfiable set fails with the typed error before
        // any search work runs.
        let resolved = ResolvedConstraints::resolve(constraints, workload, arch)?;
        let mut binding = Binding::resolve(arch, workload)?;
        for (level, tensor, name) in &resolved.bypass {
            binding = binding
                .with_bypass(*level, *tensor, name)
                .map_err(|e| ScheduleError::InvalidConstraints { reason: e.to_string() })?;
        }
        let ctx_fp = context_fingerprint(workload, arch, &self.config, constraints);
        let cache = EstimateCache::new(
            self.config.estimate_cache,
            ctx_fp,
            self.config.max_cache_entries,
            &self.cache,
        );
        let ctx = SearchContext::new(
            workload,
            arch,
            &binding,
            &self.config,
            cache,
            self.pool(),
            controls.cancel,
            controls.deadline,
            resolved,
        );
        let mut stats = SearchStats::default();

        let pass: &dyn LevelPass = match self.config.direction {
            Direction::BottomUp => &BottomUpPass,
            // A single memory level has no inter-level decisions to make
            // top-down; the bottom-up pass covers it directly.
            Direction::TopDown if ctx.mems.len() > 1 => &TopDownPass,
            Direction::TopDown => &BottomUpPass,
        };

        let run = run_level_search(&ctx, pass, &mut stats, controls);
        fault_stage::set("rank");
        let truncated = match run.stop {
            SearchStop::Cancelled => return Err(ScheduleError::Cancelled),
            SearchStop::Infeasible { stage } => {
                return Err(ScheduleError::InfeasibleLevel { stage })
            }
            SearchStop::DeadlineReached => true,
            SearchStop::Completed => false,
        };
        // A truncated walk leaves quotas undecided; complete each partial
        // state the same way estimation does (best-so-far contract).
        let finals: Vec<Mapping> = if truncated {
            run.beam.iter().map(|s| estimate::complete(&ctx, s, pass.direction())).collect()
        } else {
            run.beam.into_iter().map(|s| s.mapping).collect()
        };

        let vctx = ValidationContext::new(workload, arch, &binding);
        let mut valid: Vec<(Mapping, CostReport)> = Vec::new();
        for mapping in finals {
            // Constrained calls additionally check the full mapping
            // against the constraint set — belt and braces over the
            // in-enumeration filters (and the only guard for truncated
            // best-so-far completions, which the filters never saw).
            if vctx.validate(&mapping).is_ok()
                && (ctx.constraints.is_empty() || vctx.satisfies(&mapping, constraints).is_ok())
            {
                // The cache only ranked these mappings: what the caller
                // receives is priced afresh, outside it.
                let report = estimate::evaluate_cached(&ctx, &mapping, &mut stats);
                valid.push((mapping, report));
            }
        }
        valid.sort_by(|a, b| {
            self.config.objective.of(&a.1).total_cmp(&self.config.objective.of(&b.1))
        });
        valid.dedup_by(|a, b| a.0 == b.0);
        valid.truncate(top_k.max(1));
        stats.elapsed = start.elapsed();
        if valid.is_empty() {
            return Err(if truncated {
                ScheduleError::BudgetExhausted
            } else {
                ScheduleError::NoValidMapping
            });
        }
        let results: Vec<ScheduleResult> = valid
            .into_iter()
            .map(|(mapping, report)| ScheduleResult { mapping, report, stats: stats.clone() })
            .collect();
        Ok(if truncated {
            ScheduleOutcome::BestSoFar(results)
        } else {
            ScheduleOutcome::Complete(results)
        })
    }
}

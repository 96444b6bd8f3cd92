//! The session-oriented scheduler API: [`Scheduler`].
//!
//! The paper's headline claim is scheduling *scale* — whole networks in
//! seconds — and the unit of scheduling at that scale is the network, not
//! the layer. A [`Scheduler`] is a long-lived, thread-safe session that
//! amortizes work across calls:
//!
//! * the **result memo** lives as long as the session: per
//!   *(workload, architecture, configuration, constraints)* context
//!   fingerprint ([`crate::fingerprint`]) it remembers the ranked
//!   finalists of the search that ran to completion there, so a repeated
//!   call — a compiler asking about the same operator again, a daemon
//!   serving the same layer — is answered without searching. Enumeration
//!   memos are *not* kept: they belong to one search and die with it, and
//!   an estimate lives only as long as its round;
//! * [`schedule_batch_outcomes`](Scheduler::schedule_batch_outcomes)
//!   canonicalizes a slice of workloads, **dedups identical shapes**
//!   (ResNet-style networks repeat most blocks), searches only the unique
//!   shapes — fanned out over the session's persistent worker pool — and
//!   replays each result, or error, per occurrence;
//! * per-call **controls** bound the work — one [`ScheduleOptions`] for
//!   every entry point, with a result count, a wall-clock
//!   [`time_budget`](ScheduleOptions::time_budget) and graceful
//!   best-so-far return, a cooperative [`CancelToken`], a
//!   [`ProgressSink`] streaming level/layer events, and a per-call
//!   constraint override.
//!
//! Three entry points cover every call shape: [`schedule`](Scheduler::schedule)
//! (the best mapping), [`schedule_with`](Scheduler::schedule_with) (one
//! workload under options) and
//! [`schedule_batch_outcomes`](Scheduler::schedule_batch_outcomes) (a
//! slice of workloads under options).

use std::any::Any;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use sunstone_arch::{ArchSpec, Binding};
use sunstone_ir::Workload;
use sunstone_mapping::{Mapping, MappingConstraints, ResolvedConstraints, ValidationContext};
use sunstone_model::{CostModel, CostReport};

use crate::error::ScheduleError;
use crate::fingerprint::{
    arch_fingerprint, combine_context, config_fingerprint, constraints_fingerprint,
    context_fingerprint, workload_fingerprint,
};
use crate::memo::ResultMemo;
pub use crate::memo::{Finalist, Finalists, Memoized};
use crate::pool::{panic_message, SliceWriter, WorkerPool};
use crate::progress::{CancelToken, ProgressEvent, ProgressSink};
use crate::search::compose::{run_level_search, SearchStop};
use crate::search::estimate::SearchMemo;
use crate::search::{CallControls, SearchContext, SearchStats};
use crate::SunstoneConfig;

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

/// A caught panic as the typed error, mirrored to the sink as a
/// [`ProgressEvent::Fault`] — swallowing any panic the sink itself raises:
/// the fault path must never fault.
fn faulted(
    sink: Option<&dyn ProgressSink>,
    stage: String,
    layer: Option<&str>,
    payload: Box<dyn Any + Send>,
) -> ScheduleError {
    let (layer, message) = (layer.map(str::to_string), panic_message(payload.as_ref()));
    if let Some(sink) = sink {
        let event = ProgressEvent::Fault {
            stage: stage.clone(),
            layer: layer.clone(),
            message: message.clone(),
        };
        let _ = panic::catch_unwind(AssertUnwindSafe(|| sink.on_event(&event)));
    }
    ScheduleError::Internal { stage, layer, message }
}

/// The result of one scheduling run.
#[derive(Debug, Clone)]
pub struct ScheduleResult {
    /// The best mapping found.
    pub mapping: Mapping,
    /// Its cost report (energy, delay, EDP, per-level breakdown).
    pub report: CostReport,
    /// Search statistics (flat totals plus the per-level, per-principle
    /// pruning breakdown). On a result answered from the session's memo
    /// they are the producing search's with the model columns reading
    /// zero: `modeled` says what *this call* ran the cost model for.
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

/// The per-call options of **every** scheduling entry point: result
/// count, failure policy, constraint override, wall-clock budget,
/// cooperative cancellation, and progress reporting.
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
/// assert!(opts.time_budget.is_some());
/// ```
#[derive(Clone, Default)]
#[non_exhaustive]
pub struct ScheduleOptions {
    /// How many ranked results to return — per layer, for a batch (0 is
    /// treated as 1). The network layout-consistency pass uses this to
    /// choose among near-optimal candidates.
    pub top_k: usize,
    /// Batch only (a single call ignores it): stop starting new unique
    /// shapes after the first failure; shapes not yet started when a
    /// failure is observed report [`ScheduleError::Cancelled`] in the
    /// [`BatchOutcome`]. Off by default — the default contract is graceful
    /// partial failure, where every layer is attempted and reports its own
    /// `Result`.
    pub fail_fast: bool,
    /// Mapping constraints for this call, overriding
    /// [`SunstoneConfig::constraints`] when set (`None` uses the config's
    /// set, which defaults to unconstrained); for a batch they apply to
    /// every layer. Unsatisfiable sets fail with
    /// [`ScheduleError::InvalidConstraints`].
    pub constraints: Option<MappingConstraints>,
    /// Wall-clock budget. Every checkpoint of the search asks whether it
    /// has expired, and an expiry discards the stage in progress: the call
    /// returns [`ScheduleOutcome::BestSoFar`] with the best valid
    /// completions of the last finished stage's beam — the root's, every
    /// dimension at the outermost memory, when no stage finished, so a
    /// zero budget prices nothing and its answer does not depend on the
    /// thread count. A budget past what an [`Instant`] can hold is no
    /// budget. For a batch the budget covers the *whole batch*.
    pub time_budget: Option<Duration>,
    /// Cooperative cancellation; when fired the call returns
    /// [`ScheduleError::Cancelled`]. A batch shares one token across
    /// every worker.
    pub cancel: Option<CancelToken>,
    /// Progress callback (level started/finished per search; layer
    /// started/finished per unique batch shape).
    pub progress: Option<Arc<dyn ProgressSink>>,
}

/// The options of [`Scheduler::schedule_batch_outcomes`]: the one options
/// type, under the name batch callers (the repo benchmark among them)
/// import.
pub type BatchOptions = ScheduleOptions;

impl ScheduleOptions {
    /// Default options: best result only, graceful partial failure, no
    /// controls.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets how many ranked results to return (per layer, for a batch).
    pub fn top_k(mut self, top_k: usize) -> Self {
        self.top_k = top_k;
        self
    }

    /// Sets the batch fail-fast failure policy.
    pub fn fail_fast(mut self, fail_fast: bool) -> Self {
        self.fail_fast = fail_fast;
        self
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

impl std::fmt::Debug for ScheduleOptions {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ScheduleOptions")
            .field("top_k", &self.top_k)
            .field("fail_fast", &self.fail_fast)
            .field("constraints", &self.constraints)
            .field("time_budget", &self.time_budget)
            .field("cancel", &self.cancel)
            .field("progress", &self.progress.as_ref().map(|_| "…"))
            .finish()
    }
}

/// Aggregate statistics of one batch call
/// ([`Scheduler::schedule_batch_outcomes`]).
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
    /// In-round repeats of the unique searches: candidates that took the
    /// price of an earlier one of their round with the same loop nest
    /// ([`SearchStats::cache_hits`] summed per unique shape).
    pub cache_hits: u64,
    /// Estimate misses of the unique searches: the first candidate of
    /// each loop nest of a round ([`SearchStats::cache_misses`] summed per
    /// unique shape). A miss is priced, cut by the bound or cut by a stop;
    /// the model evaluations are [`SearchStats::modeled`].
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
    /// Dedup/estimate/parallelism statistics of the call.
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
    /// Dedup/estimate/parallelism statistics of the call; per-layer success
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

/// Cumulative statistics of a session's result memo and worker pool
/// ([`Scheduler::cache_stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[non_exhaustive]
pub struct CacheStats {
    /// Calls (and [`Scheduler::memoized`] lookups) answered from the
    /// result memo since the session was created or last cleared.
    pub hits: u64,
    /// Searches started: the calls the memo could not answer.
    pub misses: u64,
    /// Contexts currently memoized (bounded by
    /// [`SunstoneConfig::max_cache_entries`]).
    pub entries: usize,
    /// Always 0: nothing writes it. Kept because the repo benchmark reads it.
    pub seed_probes: u64,
    /// Always 0: nothing writes it. Kept because the repo benchmark reads it.
    pub seed_hits: u64,
    /// Fan-out rounds the session worker pool has executed.
    pub pool_rounds: u64,
    /// Bytes the memoized contexts' entries hold, exactly: one packed
    /// entry per context ([`Memoized`]), summed as they are filed,
    /// replaced and evicted.
    pub memo_bytes: usize,
}

impl CacheStats {
    /// Fraction of calls answered from the memo (0 before any call).
    pub fn hit_rate(&self) -> f64 {
        let calls = self.hits + self.misses;
        if calls == 0 {
            0.0
        } else {
            self.hits as f64 / calls as f64
        }
    }
}

/// A long-lived, thread-safe scheduling session; see the
/// [module documentation](self).
///
/// Cloning is cheap and clones **share** the session's result memo and
/// worker pool, so a `Scheduler` can be handed to several threads (it is
/// also `Sync`, so `&Scheduler` works just as well).
#[derive(Debug, Clone)]
pub struct Scheduler {
    config: SunstoneConfig,
    /// The config's and its constraint set's fingerprints: fixed for the
    /// session's life, so taken once.
    config_fps: [u64; 2],
    memo: Arc<ResultMemo>,
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
        let config_fps =
            [config_fingerprint(&config), constraints_fingerprint(&config.constraints)];
        Scheduler { config, config_fps, memo: Arc::default(), pool: Arc::new(OnceLock::new()) }
    }

    /// The active configuration.
    pub fn config(&self) -> &SunstoneConfig {
        &self.config
    }

    /// The session's result memo, for its unit tests.
    #[cfg(test)]
    pub(crate) fn memo(&self) -> &ResultMemo {
        &self.memo
    }

    /// The session worker pool (lazily spawned).
    fn pool(&self) -> &WorkerPool {
        self.pool.get_or_init(|| WorkerPool::new(self.config.effective_threads().saturating_sub(1)))
    }

    /// Cumulative statistics of the session's result memo and worker pool.
    pub fn cache_stats(&self) -> CacheStats {
        let (entries, memo_bytes) = self.memo.size();
        CacheStats {
            hits: self.memo.hits.load(Ordering::Relaxed),
            misses: self.memo.searches.load(Ordering::Relaxed),
            entries,
            memo_bytes,
            pool_rounds: self.pool.get().map_or(0, WorkerPool::rounds),
            ..CacheStats::default()
        }
    }

    /// Drops every memoized result and resets the session's counters, the
    /// pool's round count included: afterwards
    /// [`cache_stats`](Self::cache_stats) reads [`CacheStats::default`].
    pub fn clear_cache(&self) {
        self.memo.clear();
        if let Some(pool) = self.pool.get() {
            pool.reset_rounds();
        }
    }

    /// The *(workload, arch, config, constraints)* context fingerprint a
    /// [`schedule`](Self::schedule) call on this session memoizes its
    /// result under, using the session config's constraint set (the
    /// default for calls without a per-call override). This is the stable
    /// identity out-of-process callers — the serve daemon's on-disk
    /// mapping store in particular — key persisted results by.
    pub fn context_fingerprint(&self, workload: &Workload, arch: &ArchSpec) -> u64 {
        self.context_fingerprint_of(workload_fingerprint(workload), arch_fingerprint(arch))
    }

    /// [`context_fingerprint`](Self::context_fingerprint) from the
    /// workload's [`workload_fingerprint`] and the architecture's
    /// [`arch_fingerprint`], for a caller that keeps an architecture's
    /// fingerprint beside it (the daemon's preset table).
    ///
    /// [`arch_fingerprint`]: crate::fingerprint::arch_fingerprint
    pub fn context_fingerprint_of(&self, workload_fp: u64, arch_fp: u64) -> u64 {
        let [config_fp, constraints_fp] = self.config_fps;
        combine_context([workload_fp, arch_fp, config_fp, constraints_fp])
    }

    /// The session's memoized answer for the context `ctx_fp`
    /// ([`context_fingerprint`](Self::context_fingerprint)), if it has
    /// one: what a [`schedule`](Self::schedule) call there would return
    /// without searching. Counts as a hit in
    /// [`cache_stats`](Self::cache_stats) when found.
    pub fn memoized(&self, ctx_fp: u64) -> Option<Memoized> {
        self.memo.get(ctx_fp, 1)
    }

    /// Validates and prices an externally supplied `mapping` (typically
    /// reloaded from a persistent store) for `workload` on `arch`, and
    /// files it as the context's memoized answer — unless this session
    /// already searched there, whose own answer stays. A
    /// daemon restarting on an existing store calls this per record so
    /// repeated queries are answered without a search, and the returned
    /// [`CostReport`] — whose totals the memo serves from then on —
    /// re-prices the mapping under the *current* cost model: a stale
    /// stored EDP is never trusted. The primed result carries empty
    /// [`SearchStats`]: no search produced it.
    ///
    /// # Errors
    ///
    /// [`ScheduleError::InvalidMapping`] when the mapping fails
    /// re-validation for this (workload, arch) pair or violates the
    /// session's constraints; configuration,
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
        // Admit the mapping the way a memo hit is admitted, then file it.
        let prime = || {
            let constraints = &self.config.constraints;
            let report =
                self.with_admission(workload, arch, constraints, |admit| admit(mapping))??;
            let ctx_fp = context_fingerprint(workload, arch, &self.config, constraints);
            let finalist = std::iter::once((mapping, report.totals()));
            self.memo.insert(ctx_fp, finalist, None, 1, self.config.max_cache_entries);
            Ok(report)
        };
        panic::catch_unwind(AssertUnwindSafe(prime)).unwrap_or_else(|payload| {
            Err(faulted(None, "prime".into(), Some(workload.name()), payload))
        })
    }

    /// Validates the configuration and architecture, resolves the user
    /// constraints against this (workload, arch) pair — an unsatisfiable
    /// set fails with the typed error before any search work runs — and
    /// binds the tensors, bypass overrides applied.
    fn resolve(
        &self,
        workload: &Workload,
        arch: &ArchSpec,
        constraints: &MappingConstraints,
    ) -> Result<(ResolvedConstraints, Binding), ScheduleError> {
        self.config.validate()?;
        arch.validate()?;
        let resolved = ResolvedConstraints::resolve(constraints, workload, arch)
            .map_err(|e| ScheduleError::InvalidConstraints { reason: e.to_string() })?;
        let mut binding = Binding::resolve(arch, workload)?;
        for (level, tensor, name) in resolved.bypass() {
            binding = binding
                .with_bypass(*level, *tensor, name)
                .map_err(|e| ScheduleError::InvalidConstraints { reason: e.to_string() })?;
        }
        Ok((resolved, binding))
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

    /// Schedules one workload under the full set of per-call controls; the
    /// outcome holds the `top_k` best distinct mappings, best first (the
    /// survivors of the final beam) —
    /// `schedule_with(w, arch, &ScheduleOptions::new().top_k(k))?.into_results()`.
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
        self.run_one(workload, arch, &CallControls::new(options, &self.config.constraints))
    }

    /// Schedules a batch of workloads, deduplicating identical shapes and
    /// fanning the unique ones out across worker threads. Equivalent to —
    /// and bitwise consistent with — calling
    /// [`schedule_with`](Self::schedule_with) per layer, but each distinct
    /// shape is searched exactly once.
    ///
    /// Failure is **graceful and per layer**: the returned [`BatchOutcome`]
    /// carries one `Result` per input layer, so an infeasible or internally
    /// faulting layer fails only the layers sharing its deduped shape while
    /// every other layer still gets its mappings.
    /// [`ScheduleOptions::fail_fast`] opts into stopping at the first
    /// failure, and [`BatchOutcome::into_result`] collapses the outcome
    /// into the all-or-nothing [`BatchResult`].
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
        options: &ScheduleOptions,
    ) -> Result<BatchOutcome, ScheduleError> {
        // Panic-isolation boundary for the batch infrastructure itself
        // (dedup, pool fan-out, assembly; a panic in one layer's search is
        // already converted inside `run_one`, and a worker-pool panic
        // re-raises here on the submitting thread).
        panic::catch_unwind(AssertUnwindSafe(|| self.batch_inner(workloads, arch, options)))
            .unwrap_or_else(|payload| {
                Err(faulted(options.progress.as_deref(), "batch".into(), None, payload))
            })
    }

    /// The batch body guarded by the boundary in
    /// [`schedule_batch_outcomes`](Self::schedule_batch_outcomes).
    fn batch_inner(
        &self,
        workloads: &[Workload],
        arch: &ArchSpec,
        options: &ScheduleOptions,
    ) -> Result<BatchOutcome, ScheduleError> {
        let controls = CallControls::new(options, &self.config.constraints);
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
                    if let Some(sink) = &options.progress {
                        sink.on_event(&ProgressEvent::LayerStarted {
                            unique: u,
                            name: w.name().to_string(),
                        });
                    }
                    let controls = controls.layer();
                    let outcome = self.run_one(w, arch, &controls);
                    if let Some(sink) = &options.progress {
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
                            elapsed: controls.start.elapsed(),
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
                        Err(faulted(None, "batch: layer".into(), Some(w.name()), payload))
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

        // Totals over the unique searches' own statistics: nothing here
        // reads a session-wide counter, so a concurrent call on a clone
        // cannot leak into them.
        let sum = |field: fn(&SearchStats) -> u64| -> u64 {
            per_unique.iter().filter_map(|r| r.as_ref().ok()).map(|(r, _)| field(&r[0].stats)).sum()
        };
        let stats = BatchStats {
            layers: workloads.len(),
            unique_shapes: unique.len(),
            dedup_hits: workloads.len() - unique.len(),
            best_so_far: per_unique
                .iter()
                .filter(|r| matches!(r, Ok((_, complete)) if !complete))
                .count(),
            cache_hits: sum(|s| s.cache_hits),
            cache_misses: sum(|s| s.cache_misses),
            evaluated: sum(|s| s.probed),
            failed: assign.iter().filter(|&&slot| per_unique[slot].is_err()).count(),
            elapsed: controls.start.elapsed(),
        };
        let layers = assign
            .iter()
            .map(|&slot| per_unique[slot].clone().map(|(results, _)| results))
            .collect();
        Ok(BatchOutcome { layers, stats })
    }

    /// One bounded call behind the **panic-isolation boundary**: any
    /// panic escaping the search (a model bug, an arithmetic overflow, an
    /// injected fault) is converted into
    /// [`ScheduleError::Internal`] instead of unwinding into the caller.
    /// Nothing needs recovering afterwards: everything a search writes
    /// while it runs is its own ([`SearchMemo`]) and unwinds with it, and
    /// the session's memo is only written after a search returned. A
    /// follow-up call on the same session therefore searches from scratch
    /// and returns results bit-identical to a fresh session.
    fn run_one(
        &self,
        workload: &Workload,
        arch: &ArchSpec,
        controls: &CallControls<'_>,
    ) -> Result<ScheduleOutcome, ScheduleError> {
        fault_stage::set("setup");
        panic::catch_unwind(AssertUnwindSafe(|| self.answer(workload, arch, controls)))
            .unwrap_or_else(|payload| {
                let stage = match fault_stage::get() {
                    s if s.is_empty() => "setup".to_string(),
                    s => s,
                };
                Err(faulted(controls.progress, stage, Some(workload.name()), payload))
            })
    }

    /// The memo tier every entry point passes through: answer from the
    /// session's memo when it holds this context's finalists — a request
    /// for at most as many results as the memoized search ranked is a
    /// prefix of its list — and otherwise search, filing the result if the
    /// search ran to completion. A hit is what that search returned,
    /// checked and priced again on the way out ([`verified`](Self::verified)),
    /// and it says so: its statistics are the search's with the model
    /// columns struck out (filed so by the memo, [`Memoized`]) — nothing
    /// was priced for this call. A time budget is moot for it.
    fn answer(
        &self,
        workload: &Workload,
        arch: &ArchSpec,
        controls: &CallControls<'_>,
    ) -> Result<ScheduleOutcome, ScheduleError> {
        let (top_k, constraints) = (controls.top_k, controls.constraints);
        let ctx_fp = context_fingerprint(workload, arch, &self.config, constraints);
        // A token that already fired must come back `Cancelled`, memoized
        // context or not: skip the lookup and let the search report it.
        if controls.stop() != Some(SearchStop::Cancelled) {
            if let Some(hit) = self.memo.get(ctx_fp, top_k) {
                if let Some(results) = self.verified(&hit, top_k, workload, arch, constraints)? {
                    return Ok(ScheduleOutcome::Complete(results));
                }
            }
        }
        self.memo.searches.fetch_add(1, Ordering::Relaxed);
        let outcome = self.search(workload, arch, controls)?;
        if let ScheduleOutcome::Complete(results) = &outcome {
            let finalists = results.iter().map(|r| (&r.mapping, r.report.totals()));
            let max = self.config.max_cache_entries;
            self.memo.insert(ctx_fp, finalists, Some(&results[0].stats), top_k, max);
        }
        Ok(outcome)
    }

    /// A memoized answer's first `top_k` finalists on their way out, held
    /// to what a search's own results are held to: the problem resolves,
    /// every mapping validates against *this call's* workload,
    /// architecture and constraints, and the report is priced in this
    /// call — the memo is never trusted, as the store's warm-load never
    /// trusts a record. `None` when a mapping does not validate: the entry
    /// was filed by a different context whose 64-bit fingerprint collides
    /// with this one, and the caller searches.
    fn verified(
        &self,
        memoized: &Memoized,
        top_k: usize,
        workload: &Workload,
        arch: &ArchSpec,
        constraints: &MappingConstraints,
    ) -> Result<Option<Vec<ScheduleResult>>, ScheduleError> {
        let stats = memoized.stats().unwrap_or_default();
        self.with_admission(workload, arch, constraints, |admit| {
            let admitted = memoized.finalists.iter().take(top_k).map(|f| {
                let report = admit(&f.mapping).ok()?;
                Some(ScheduleResult { mapping: f.mapping, report, stats: stats.clone() })
            });
            admitted.collect()
        })
    }

    /// Runs `f` with the one admission of a mapping no search of this
    /// call produced — a memo hit on its way out, a record primed from a
    /// store: resolve the problem the way a search does, then per mapping
    /// validate it, check it against the resolved constraints, and price
    /// it afresh. A mapping that fails either test is
    /// [`ScheduleError::InvalidMapping`].
    fn with_admission<R>(
        &self,
        workload: &Workload,
        arch: &ArchSpec,
        constraints: &MappingConstraints,
        f: impl FnOnce(&dyn Fn(&Mapping) -> Result<CostReport, ScheduleError>) -> R,
    ) -> Result<R, ScheduleError> {
        let (resolved, binding) = self.resolve(workload, arch, constraints)?;
        let vctx = ValidationContext::new(workload, arch, &binding);
        let model = CostModel::new(workload, arch, &binding);
        let invalid = |reason: String| ScheduleError::InvalidMapping { reason };
        Ok(f(&|mapping| {
            vctx.validate(mapping).map_err(|e| invalid(e.to_string()))?;
            resolved.check(mapping, workload, arch).map_err(|e| invalid(e.to_string()))?;
            Ok(model.evaluate_unchecked(mapping))
        }))
    }

    /// One search: resolve the problem, walk the levels, and rank the
    /// valid completions.
    fn search(
        &self,
        workload: &Workload,
        arch: &ArchSpec,
        controls: &CallControls<'_>,
    ) -> Result<ScheduleOutcome, ScheduleError> {
        let constraints = controls.constraints;
        let (resolved, binding) = self.resolve(workload, arch, constraints)?;
        let ctx = SearchContext::new(
            workload,
            arch,
            &binding,
            &self.config,
            self.pool(),
            *controls,
            resolved,
        );
        let mut memo = SearchMemo::default();
        let mut stats = SearchStats::default();

        let run = run_level_search(&ctx, &mut memo, &mut stats);
        fault_stage::set("rank");
        let truncated = match run.stop {
            SearchStop::Cancelled => return Err(ScheduleError::Cancelled),
            SearchStop::Infeasible { stage } => {
                return Err(ScheduleError::InfeasibleLevel { stage })
            }
            SearchStop::DeadlineReached => true,
            SearchStop::Completed => false,
        };
        let ranking = Instant::now();
        // Every row is a whole mapping: a truncated walk's rows keep what
        // no stage placed at the outermost memory, as estimation priced
        // them (best-so-far contract).
        let mut valid: Vec<(Mapping, CostReport)> = Vec::new();
        for mapping in run.beam.mappings(&ctx) {
            // Constrained calls additionally check the full mapping
            // against the resolved set the enumerators read — belt and
            // braces over the in-enumeration filters (and the only guard
            // for truncated best-so-far completions, which the filters
            // never saw).
            if ctx.validation.validate(&mapping).is_ok()
                && ctx.constraints.check(&mapping, workload, arch).is_ok()
            {
                // The estimate rounds only ranked these mappings: what the
                // caller receives is priced afresh.
                let report = ctx.model.evaluate_unchecked(&mapping);
                valid.push((mapping, report));
            }
        }
        valid.sort_by(|a, b| {
            self.config.objective.of(&a.1).total_cmp(&self.config.objective.of(&b.1))
        });
        valid.dedup_by(|a, b| a.0 == b.0);
        valid.truncate(controls.top_k);
        stats.rank = ranking.elapsed();
        stats.elapsed = controls.start.elapsed();
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

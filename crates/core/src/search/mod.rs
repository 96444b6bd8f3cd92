//! The staged search pipeline (Section III-C / V-A of the paper).
//!
//! The scheduler walks the memory hierarchy one level at a time; each
//! stage runs the same four-step pipeline over the surviving beam:
//!
//! 1. **expand** (`candidates`) — per partial mapping, enumerate the
//!    orderings × tiles × unrollings the pruning principles admit,
//! 2. **dedup** (`beam`) — drop candidates whose mapping an earlier
//!    enumeration path already produced,
//! 3. **estimate** (`estimate`) — complete each candidate and evaluate
//!    the analytic model, memoized by completed-mapping fingerprint and
//!    parallelized over the configured worker threads,
//! 4. **select** (`beam`) — keep the best `beam_width` candidates (the
//!    alpha-beta-style cut).
//!
//! The walk direction is a `compose::LevelPass`: `compose::BottomUpPass`
//! (the paper's default) starts at the innermost memory, where partial
//! costs track final costs closely and the beam cuts early;
//! `compose::TopDownPass` (Table VI) starts at DRAM. Both share the
//! composition loop in `compose::run_level_search`.
//!
//! Every pruning decision is recorded in the structured [`SearchStats`]:
//! per level and per principle, how many candidates were considered and
//! how many survived.

pub mod stats;

pub(crate) mod beam;
pub(crate) mod candidates;
pub(crate) mod compose;
pub(crate) mod estimate;

use std::time::Instant;

use sunstone_arch::{ArchSpec, Binding, Capacity, Level, LevelId};
use sunstone_ir::{DimVec, TensorDesc, Workload};
use sunstone_mapping::{Mapping, MappingLevel};
use sunstone_model::CostModel;

use crate::constraints::ResolvedConstraints;
use crate::factors::DivisorLadders;
use crate::ordering::{OrderingCandidate, OrderingTrie};
use crate::pool::WorkerPool;
use crate::progress::{CancelToken, ProgressSink};
use crate::SunstoneConfig;

use estimate::EstimateCache;

pub use estimate::CacheStats;
pub use stats::{LevelStats, PruneCounter, SearchStats};

/// Per-call controls threaded through the level walk: the wall-clock
/// deadline, the cooperative cancellation token, and the progress sink.
/// All optional; a default value runs the search to completion silently.
#[derive(Default)]
pub(crate) struct CallControls<'a> {
    /// Absolute deadline derived from the call's `time_budget`.
    pub(crate) deadline: Option<Instant>,
    /// Cooperative cancellation flag, checked at stage boundaries.
    pub(crate) cancel: Option<&'a CancelToken>,
    /// Progress callback for level started/finished events.
    pub(crate) progress: Option<&'a dyn ProgressSink>,
}

impl CallControls<'_> {
    pub(crate) fn cancelled(&self) -> bool {
        self.cancel.is_some_and(CancelToken::is_cancelled)
    }

    pub(crate) fn past_deadline(&self) -> bool {
        self.deadline.is_some_and(|d| Instant::now() >= d)
    }
}

/// The capacity-check plan of one memory: each partition's capacity and
/// the tensors bound to it with their per-word byte widths.
type FitPlan<'a> = Vec<(Capacity, Vec<(&'a TensorDesc, u64)>)>;

/// Everything the pipeline stages share for one scheduling run: the
/// problem, the derived level structure, the enumeration trie, the cost
/// model, and the memoized estimate cache.
pub(crate) struct SearchContext<'a> {
    pub(crate) workload: &'a Workload,
    pub(crate) arch: &'a ArchSpec,
    pub(crate) config: &'a SunstoneConfig,
    /// The call's cancellation token, if any: checked not only at stage
    /// boundaries but per pool claim and inside the enumeration fits
    /// closures, so cancellation latency is bounded by a handful of
    /// model evaluations, not a whole stage.
    pub(crate) cancel: Option<&'a CancelToken>,
    /// The call's absolute deadline, if any (checked inside estimate
    /// rounds past the first stage; see [`CallControls`]).
    pub(crate) deadline: Option<Instant>,
    pub(crate) model: CostModel<'a>,
    pub(crate) trie: OrderingTrie<'a>,
    /// Memory level positions, innermost first.
    pub(crate) mems: Vec<usize>,
    /// `lower_spatial[i]`: spatial positions between memory `i − 1` and
    /// memory `i` (for `i = 0`: below the innermost memory).
    pub(crate) lower_spatial: Vec<Vec<usize>>,
    /// This search's view of the session estimate cache.
    pub(crate) cache: EstimateCache<'a>,
    /// The session's persistent worker pool (estimate rounds fan out over
    /// it instead of spawning threads per round).
    pub(crate) pool: &'a WorkerPool,
    /// Precomputed sorted divisor ladders for every quota the search can
    /// produce (quotas only shrink by division, so they stay divisors of
    /// the dimension extents).
    pub(crate) ladders: DivisorLadders,
    /// Per architecture position: the capacity-check plan of the memory
    /// at that position (`None` for spatial levels). Each partition lists
    /// the tensors bound to it with their per-word byte widths, so a
    /// capacity probe is pure arithmetic — no binding lookups, no
    /// allocation.
    mem_fits: Vec<Option<FitPlan<'a>>>,
    /// The call's user constraints, resolved to per-architecture-position
    /// form. Empty (the common case) adds one cheap `is_empty` branch per
    /// enumeration; the free search path is otherwise untouched.
    pub(crate) constraints: ResolvedConstraints,
}

impl<'a> SearchContext<'a> {
    // Internal constructor with one call site; the per-call knobs
    // (cancel, deadline) are deliberately separate from the session
    // state, not worth an options struct.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        workload: &'a Workload,
        arch: &'a ArchSpec,
        binding: &'a Binding,
        config: &'a SunstoneConfig,
        cache: EstimateCache<'a>,
        pool: &'a WorkerPool,
        cancel: Option<&'a CancelToken>,
        deadline: Option<Instant>,
        constraints: ResolvedConstraints,
    ) -> Self {
        let mems: Vec<usize> = arch.memory_levels().map(|(id, _)| id.index()).collect();
        let mut lower_spatial: Vec<Vec<usize>> = Vec::with_capacity(mems.len());
        let mut prev: i64 = -1;
        for &m in &mems {
            let gap: Vec<usize> = ((prev + 1) as usize..m)
                .filter(|&p| matches!(arch.level(LevelId(p)), Level::Spatial(_)))
                .collect();
            lower_spatial.push(gap);
            prev = m as i64;
        }
        let mem_fits = (0..arch.num_levels())
            .map(|pos| {
                let mem = arch.level(LevelId(pos)).as_memory()?;
                let mut parts: FitPlan<'a> =
                    mem.partitions.iter().map(|p| (p.capacity, Vec::new())).collect();
                for t in workload.tensor_ids() {
                    if let Some(pid) = binding.partition_of(LevelId(pos), t) {
                        let tensor = workload.tensor(t);
                        parts[pid.0].1.push((tensor, u64::from(tensor.bits()).div_ceil(8)));
                    }
                }
                Some(parts)
            })
            .collect();
        SearchContext {
            workload,
            arch,
            config,
            cancel,
            deadline,
            model: CostModel::new(workload, arch, binding),
            trie: OrderingTrie::new(workload),
            mems,
            lower_spatial,
            cache,
            pool,
            ladders: DivisorLadders::new(&workload.dim_sizes()),
            mem_fits,
            constraints,
        }
    }

    /// Does the resident tile fit every partition of the memory at `pos`?
    ///
    /// The footprint sum saturates instead of wrapping: degenerate inputs
    /// (huge dimension extents) can overflow `u64`, and saturation is the
    /// conservative direction — a saturated footprint can never fit a
    /// bounded partition, so no invalid tile is ever admitted.
    pub(crate) fn fits_mem(&self, pos: usize, tile: &[u64]) -> bool {
        let Some(parts) = &self.mem_fits[pos] else {
            return true;
        };
        parts.iter().all(|(capacity, tensors)| {
            let needed: u64 = tensors.iter().fold(0u64, |acc, (t, bytes)| {
                acc.saturating_add(t.footprint(tile).saturating_mul(*bytes))
            });
            capacity.fits(needed)
        })
    }

    /// Whether the call's cancellation token has fired (one atomic load).
    pub(crate) fn cancelled(&self) -> bool {
        self.cancel.is_some_and(CancelToken::is_cancelled)
    }

    /// Whether the call's wall-clock deadline has passed.
    pub(crate) fn past_deadline(&self) -> bool {
        self.deadline.is_some_and(|d| Instant::now() >= d)
    }
}

/// One partial mapping alive in the beam.
#[derive(Debug, Clone)]
pub(crate) struct PartialState {
    pub(crate) mapping: Mapping,
    /// Remaining per-dimension quotient.
    pub(crate) quotas: DimVec,
    /// Ordering chosen for the *current frontier* memory (bottom-up: set
    /// by the previous stage; governs this stage's unrolling principle).
    pub(crate) ordering_here: Option<OrderingCandidate>,
    /// Objective estimate of the completed mapping.
    pub(crate) estimate: f64,
    /// Index of the beam state this candidate was expanded from (set by
    /// the composition loop). Candidates of one parent share every level
    /// decided before the current stage, which is what lets estimation
    /// memoize the decided-prefix cost per parent.
    pub(crate) parent: usize,
}

impl PartialState {
    /// The search starting point: nothing decided, the whole problem
    /// still to distribute.
    pub(crate) fn root(ctx: &SearchContext<'_>) -> Self {
        PartialState {
            mapping: streaming_base(ctx.workload, ctx.arch),
            quotas: DimVec::from(ctx.workload.dim_sizes()),
            ordering_here: None,
            estimate: f64::INFINITY,
            parent: 0,
        }
    }
}

/// A mapping with all factors 1 — `Mapping::streaming` puts the problem
/// at DRAM, which the search does itself at completion time.
pub(crate) fn streaming_base(workload: &Workload, arch: &ArchSpec) -> Mapping {
    let mut m = Mapping::streaming(workload, arch);
    let last = arch.num_levels() - 1;
    if let MappingLevel::Temporal(t) = &mut m.levels_mut()[last] {
        t.factors = vec![1; workload.num_dims()];
    }
    m
}

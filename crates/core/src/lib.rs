//! Sunstone: a scalable and versatile scheduler for mapping tensor algebra
//! on spatial accelerators.
//!
//! This crate implements the scheduler from the ISPASS 2023 paper. It
//! searches the mapping space level by level — bottom-up from the
//! innermost memory by default — and at each level enumerates only:
//!
//! * **loop orderings** that survive the ordering trie's pruning rules
//!   ([`ordering`], Fig 4 of the paper),
//! * **tiles** that are maximal along the indexing dimensions of the
//!   operand reused by the chosen ordering — the Tiling Principle
//!   ([`tiling`], Fig 5),
//! * **spatial unrollings** that avoid re-reusing the already temporally
//!   reused operand — the Spatial Unrolling Principle ([`unrolling`]),
//!
//! pruning partial mappings whose estimated cost cannot beat the best
//! candidate (alpha-beta style, realized as a beam).
//!
//! All principles are derived from the workload's algebraic reuse
//! structure ([`sunstone_ir::ReuseInfo`]), so the scheduler works on any
//! tensor-algebra workload — convolution, MTTKRP, TTMc, SDDMM, MMc, TCL —
//! and any architecture expressible as [`sunstone_arch::ArchSpec`],
//! including multi-level spatial designs like Simba.
//!
//! The public API is a long-lived [`Scheduler`] **session** with three
//! entry points: [`Scheduler::schedule`] for the best mapping,
//! [`Scheduler::schedule_with`] for one workload under options, and
//! [`Scheduler::schedule_batch_outcomes`] for whole networks at once, which
//! dedups identical layer shapes and searches the unique ones on parallel
//! workers. The session memoizes each context's result, so a repeated call
//! costs no search. Every per-call control (result count, constraints,
//! wall-clock budget, cancellation, progress) lives in one
//! [`ScheduleOptions`]. Import everything through [`prelude`].
//!
//! # Example
//!
//! ```
//! use sunstone::prelude::*;
//! use sunstone_arch::presets;
//! use sunstone_ir::Workload;
//!
//! let mut b = Workload::builder("mm");
//! let m = b.dim("M", 64);
//! let n = b.dim("N", 64);
//! let k = b.dim("K", 64);
//! b.input("a", [m.expr(), k.expr()]);
//! b.input("b", [k.expr(), n.expr()]);
//! b.output("out", [m.expr(), n.expr()]);
//! let w = b.build()?;
//!
//! let arch = presets::conventional();
//! let scheduler = Scheduler::new(SunstoneConfig::default());
//! let result = scheduler.schedule(&w, &arch)?;
//! println!("EDP = {}, estimated {} mappings", result.report.edp, result.stats.probed);
//!
//! // A session amortizes work across calls: scheduling a whole network
//! // dedups repeated layer shapes, and a repeated call is a memo hit.
//! let batch = scheduler
//!     .schedule_batch_outcomes(&[w.clone(), w], &arch, &ScheduleOptions::new())?
//!     .into_result()?;
//! assert_eq!(batch.stats.unique_shapes, 1);
//! assert_eq!(batch.stats.dedup_hits, 1);
//! assert_eq!(batch.best(0).report.edp, batch.best(1).report.edp);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

//! # Module map
//!
//! * [`session`] — the session API: [`Scheduler`], the per-call
//!   [`ScheduleOptions`], the result memo, batch dedup + parallel fan-out.
//! * [`search`] — the staged search pipeline: candidate enumeration
//!   (`candidates`), beam selection (`beam`), memoized parallel
//!   estimation (`estimate`), and the composition loop (`compose`),
//!   which walks the memories innermost first. [`search::stats`] holds
//!   the per-level, per-principle pruning statistics.
//! * [`ordering`], [`tiling`], [`unrolling`] — the three per-level
//!   enumerators and their pruning principles; the last two walk the
//!   divisor lattice of the private `lattice` module.
//! * [`fingerprint`] — stable workload/architecture/config fingerprints
//!   (the result memo's key and the batch dedup key).
//! * [`progress`] — per-call controls: [`CancelToken`], [`ProgressSink`].
//! * [`factors`] — shared per-dimension factor-vector arithmetic.
//! * [`network`] — the network-level layout-consistency pass.

/// Fires the named failpoint when the `fault-injection` feature is
/// enabled; expands to an empty statement otherwise, so instrumented hot
/// paths cost nothing in normal builds. Defined before the modules so
/// textual macro scoping makes it visible throughout the crate.
macro_rules! faultpoint {
    ($name:literal) => {
        #[cfg(feature = "fault-injection")]
        $crate::faultpoint::hit($name);
    };
}

mod config;
mod error;
pub mod factors;
#[cfg(feature = "fault-injection")]
pub mod faultpoint;
pub mod fingerprint;
mod lattice;
mod memo;
pub mod network;
pub mod ordering;
mod pool;
pub mod progress;
pub mod search;
pub mod session;
pub mod tiling;
pub mod unrolling;

pub use config::{Objective, PruningFlags, SunstoneConfig, SunstoneConfigBuilder};
pub use error::ScheduleError;
pub use ordering::{OrderingCandidate, OrderingTrie, ReuseKind};
pub use progress::{CancelToken, ProgressEvent, ProgressSink};
pub use search::{LevelStats, PruneCounter, SearchStats};
pub use session::{
    BatchOptions, BatchOutcome, BatchResult, BatchStats, CacheStats, Finalist, Finalists, Memoized,
    ScheduleOptions, ScheduleOutcome, ScheduleResult, Scheduler,
};
// The constraint vocabulary lives in `sunstone_mapping`, beside its one
// resolution and the check of a mapping against it
// (`ResolvedConstraints`); re-exported here because the scheduler is where
// constraints are *used*. `DimRole` backs `DimRef::role`.
pub use sunstone_ir::DimRole;
pub use sunstone_mapping::{
    BypassOverride, ConstraintError, DataflowTemplate, DimRef, MappingConstraints, OrderConstraint,
    TileConstraint, UnrollConstraint,
};

/// One-line import of the session API and its supporting types — the
/// single blessed import surface: the session types, the per-call
/// options, the constraint vocabulary, and the statistics structs.
pub mod prelude {
    pub use crate::config::{Objective, PruningFlags, SunstoneConfig, SunstoneConfigBuilder};
    pub use crate::error::ScheduleError;
    pub use crate::progress::{CancelToken, ProgressEvent, ProgressSink};
    pub use crate::search::{LevelStats, PruneCounter, SearchStats};
    pub use crate::session::{
        BatchOptions, BatchOutcome, BatchResult, BatchStats, CacheStats, Finalist, Finalists,
        Memoized, ScheduleOptions, ScheduleOutcome, ScheduleResult, Scheduler,
    };
    pub use sunstone_ir::DimRole;
    pub use sunstone_mapping::{
        BypassOverride, ConstraintError, DataflowTemplate, DimRef, MappingConstraints,
        OrderConstraint, TileConstraint, UnrollConstraint,
    };
}

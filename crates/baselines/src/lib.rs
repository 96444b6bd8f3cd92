//! Baseline mappers the paper compares Sunstone against (Section V-B).
//!
//! Each baseline reimplements the *search strategy* of the corresponding
//! tool over the same workload/architecture/cost-model substrate, so the
//! comparisons measure the strategies rather than implementation details:
//!
//! * [`TimeloopMapper`] — Timeloop's random sampling with `timeout` and
//!   `victory_condition` termination (Table V's TL-fast / TL-slow).
//! * [`DMazeMapper`] — dMazeRunner's utilization-threshold directed
//!   search; assumes symmetric convolutions and 2–3 memory levels, and
//!   returns *invalid* when its thresholds cannot be met (Fig 7).
//! * [`InterstellarMapper`] — Interstellar's preset C/K spatial unrolling
//!   with fallback, plus a throughput-driven tiling search.
//! * [`CosaMapper`] — CoSA's one-shot linear-relaxation assignment of
//!   prime factors to levels; fast, but its log-linear capacity
//!   approximation ignores sliding-window halos and can overflow real
//!   buffers, reproducing the invalid-mapping behaviour of Fig 8.
//! * [`GammaMapper`] — a GAMMA-like genetic algorithm, representing the
//!   black-box optimizers of the paper's related work (§VI).
//!
//! "Same substrate" means one admission rule. Every search baseline runs
//! inside one crate-private trial: it resolves the binding, builds the
//! one validator and the one cost model, and times the whole call. The
//! search proposes candidates; the trial validates each one, counts it as
//! evaluated or invalid, prices it once and keeps the first of strictly
//! lowest EDP. The outcome reports that winner with the report it was
//! priced with. Only the proposals differ from tool to tool. Timeloop's
//! random sampler also seeds GAMMA's initial population.
//!
//! All implement the [`Mapper`] trait; [`SunstoneMapper`] wraps the real
//! scheduler behind the same interface for the benchmark harness.
//! [`space`] provides the optimization-space size estimators behind
//! Table I.

mod cosa;
mod dmaze;
mod gamma;
mod interstellar;
mod mapper;
pub mod space;
mod timeloop;

pub use cosa::CosaMapper;
pub use dmaze::{DMazeConfig, DMazeMapper};
pub use gamma::{GammaConfig, GammaMapper};
pub use interstellar::InterstellarMapper;
pub use mapper::{MapOutcome, MapStats, Mapper, SunstoneMapper};
pub use timeloop::{TimeloopConfig, TimeloopMapper};

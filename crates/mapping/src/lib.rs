//! Dataflow-mapping representation and validation.
//!
//! A [`Mapping`] assigns the workload's operation space onto an
//! accelerator: for every *memory* level a temporal tile (per-dimension
//! tiling factors plus a loop order) and for every *spatial* level a set of
//! unroll factors. Mapping levels mirror the architecture's level list
//! one-to-one, innermost first.
//!
//! ## Conventions
//!
//! * Loop orders are stored **innermost-first** — `order[0]` is the
//!   innermost loop of that level. (The paper writes orders
//!   outermost-to-innermost; [`TemporalLevel::order_outermost_first`]
//!   converts.)
//! * `factors[d]` is the per-dimension tiling/unroll factor, indexed by
//!   [`sunstone_ir::DimId::index`]. The product over all levels must equal the problem
//!   dimension exactly (equal tiles, as in the paper).
//! * The tile *resident* in memory level ℓ spans the factors of every level
//!   at or below ℓ (spatial levels included — a shared memory serves the
//!   union of its children's tiles).
//!
//! [`ValidationContext::validate`] checks structural agreement with the
//! architecture, exact factorization, spatial fan-out and reduction rules,
//! and per-partition capacity — the same conditions the paper uses to call
//! baseline mappings *invalid* (Figs 7–8).
//!
//! Capacity is one rule, [`CapacityPlan`]: the resident tiles of the
//! tensors bound to each buffer partition, in saturating bytes, against
//! that partition's capacity. The validator owns one
//! ([`ValidationContext::capacity`]), and everything else that asks
//! whether a tile fits — the search's enumerators, the canonical
//! [`dataflows`], every baseline mapper — asks it, so a tile a search
//! admits is a tile the validator accepts.
//!
//! Constraints are one rule too, [`ResolvedConstraints`]
//! ([`constraints`]): a user's [`MappingConstraints`] resolved once per
//! call against the problem, beside its vocabulary. The search's
//! enumerators read the resolved form, and
//! [`ResolvedConstraints::check`] holds a finished mapping to that same
//! form — the finalists, a memo hit, a primed record — so a mapping a
//! search admits under a set is one the check accepts.

mod capacity;
pub mod constraints;
pub mod dataflows;
pub mod execute;
mod flatten;
mod mapping;
pub mod pretty;
pub mod templates;
mod validate;

pub use capacity::CapacityPlan;
pub use constraints::{
    BypassOverride, ConstraintError, DimRef, LevelConstraints, MappingConstraints, OrderConstraint,
    ResolvedConstraints, TileConstraint, UnrollConstraint,
};
pub use flatten::{FlatLoop, FlatNest, LoopKind};
pub use mapping::{Mapping, MappingLevel, SpatialAssignment, TemporalLevel};
pub use templates::DataflowTemplate;
pub use validate::{MappingError, ValidationContext};

//! Analytic (Timeloop-style) cost model for spatial accelerators.
//!
//! Given a workload, an architecture, a tensor binding, and a mapping, the
//! model computes per-level access counts, energy, delay, and the
//! energy-delay product (EDP) that the paper uses as its figure of merit.
//!
//! # Model semantics
//!
//! The mapping is flattened into one global loop nest (see
//! [`sunstone_mapping::FlatNest`]). For every tensor the model walks its
//! chain of *storing* memory levels (bypassed levels are skipped) and, for
//! each parent/child pair, derives:
//!
//! * **refills** — how many times the child tile changes: the product of
//!   all temporal loop bounds above the child boundary, *excluding* the
//!   innermost contiguous run of loops that do not index the tensor
//!   (Ordering Principles 1–2 of the paper fall out of this rule);
//! * **footprints** — per-child and across-children ("union") tile sizes,
//!   using exact sliding-window halo arithmetic (`P + R − 1`);
//! * **multicast** — spatial fan-out along dimensions that do not index
//!   the tensor reads the parent once per word (spatial reuse);
//! * **partial sums** — output tiles are written back on every eviction
//!   and re-read on every revisit (`refills − distinct` reloads), with
//!   spatial reduction merging partials across units;
//! * **sliding-window (halo) reuse** — when the loop driving refills
//!   partially reuses the tensor, adjacent refills only fetch the new
//!   window portion (can be disabled via [`ModelOptions`]).
//!
//! Reads/writes are multiplied by per-access energies from the
//! architecture's buffer partitions (scaled by each tensor's element
//! width), MACs by the MAC energy, and NoC traversals by the per-word
//! interconnect energy. Delay assumes double buffering: it is the maximum
//! of the compute time and every level's bandwidth-limited transfer time.
//!
//! The model reproduces the paper's Equations 1–3 (temporal) and 5–7
//! (spatial) exactly; see the `paper_equations` tests.
//!
//! # Example
//!
//! ```
//! use sunstone_arch::{presets, Binding};
//! use sunstone_ir::Workload;
//! use sunstone_mapping::Mapping;
//! use sunstone_model::CostModel;
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
//! let binding = Binding::resolve(&arch, &w)?;
//! let model = CostModel::new(&w, &arch, &binding);
//! let report = model.evaluate(&Mapping::streaming(&w, &arch))?;
//! assert!(report.edp > 0.0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

mod batch;
mod cost;
mod counts;
mod explain;
mod options;
mod prefix;

/// Version of the cost model's semantics. Bump whenever a change alters
/// any [`CostReport`] for any input (energy/delay formulas, reuse rules,
/// default [`ModelOptions`]). Persisted artifacts that cache model
/// outputs — the serve daemon's on-disk mapping store in particular —
/// embed this version and must discard entries produced under a
/// different one: a stored EDP from an older model would otherwise be
/// served as current.
pub const COST_MODEL_VERSION: u32 = 1;

pub use batch::{BatchEvalScratch, Nest, NestSource};
pub use cost::{CostModel, CostReport, CostTotals, LevelReport};
pub use counts::{AccessCounts, TensorLevelCounts};
pub use explain::compare;
pub use options::ModelOptions;
pub use prefix::MappingPrefix;

//! Workload intermediate representation for the Sunstone scheduler.
//!
//! Sunstone (ISPASS 2023) accepts a description of a tensor-algebra workload
//! — a perfectly nested loop program with no inter-loop dependencies — and
//! automatically infers its *reuse pattern*: which loop dimensions index
//! which tensors, which dimensions can fully reuse a tensor, and which only
//! partially reuse it through a sliding window (Section IV, Table III of the
//! paper).
//!
//! This crate provides that representation:
//!
//! * [`Dim`] / [`DimId`] — named, bounded problem dimensions,
//! * [`IndexExpr`] — affine index expressions such as `p + r` (sliding
//!   windows) or plain `k`,
//! * [`TensorDesc`] — an operand or result tensor described by its index
//!   expressions,
//! * [`Workload`] — a validated collection of dimensions and tensors, built
//!   with [`WorkloadBuilder`],
//! * [`ReuseInfo`] — the inferred per-tensor reuse table.
//!
//! # Example: the paper's running 1-D convolution
//!
//! ```
//! use sunstone_ir::Workload;
//!
//! let mut b = Workload::builder("conv1d");
//! let k = b.dim("K", 4);
//! let c = b.dim("C", 4);
//! let p = b.dim("P", 7);
//! let r = b.dim("R", 3);
//! b.input("ifmap", [c.expr(), p + r]);
//! b.input("weight", [k.expr(), c.expr(), r.expr()]);
//! b.output("ofmap", [k.expr(), p.expr()]);
//! let conv = b.build()?;
//!
//! let reuse = conv.reuse_info();
//! let ofmap = conv.tensor_by_name("ofmap").unwrap();
//! // ofmap is fully reused across C and R (its non-indexing dimensions).
//! assert_eq!(reuse.of(ofmap).full_reuse, conv.dim_set(&[c, r]));
//! # Ok::<(), sunstone_ir::WorkloadError>(())
//! ```

mod dim;
mod dimvec;
mod expr;
mod fxhash;
mod padding;
mod parse;
mod reuse;
mod tensor;
mod workload;

pub use dim::{sorted_divisors, Dim, DimId, DimRole, DimSet, DimSetIter};
pub use dimvec::DimVec;
pub use expr::{IndexExpr, Term};
pub use fxhash::{FxBuildHasher, FxHashMap, FxHashSet, FxHasher};
pub use padding::next_smooth;
pub use parse::{parse_einsum, ParseError};
pub use reuse::{ReuseInfo, TensorReuse};
pub use tensor::{TensorDesc, TensorId, TensorKind};
pub use workload::{Workload, WorkloadBuilder, WorkloadError};

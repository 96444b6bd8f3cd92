//! A DianNao-like accelerator ISA, compiler, and event simulator
//! (Section V-D of the Sunstone paper).
//!
//! DianNao (Chen et al., ASPLOS 2014) drives a 256-multiplier NFU from
//! three on-chip buffers — NBin (inputs), NBout (outputs), SB (weights) —
//! with wide control instructions fetched from DRAM. On-chip data is
//! processed by FSM controllers without further instructions, so
//! instructions are only needed per off-chip transfer.
//!
//! This crate reproduces the paper's overhead study:
//!
//! * [`Instruction`] — a 256-bit load/store/compute instruction set;
//! * [`Compiler`] — lowers a (workload, mapping) pair into an
//!   instruction stream, one load per changed tile per processing pass
//!   (reuse-aware, like the paper's FSM controllers), plus the data
//!   reordering pass that lays tiles out contiguously in DRAM. It lowers,
//!   it does not schedule: the caller finds the mapping (with a Sunstone
//!   `Scheduler` on `presets::diannao_like`, say) and hands it over;
//! * [`Simulator`] — executes the stream, tracking buffer occupancy and
//!   event counts, and reports a per-component energy breakdown
//!   ([`SimReport`]) including the instruction-fetch and reordering
//!   overheads of Fig 9.
//!
//! The simulator is event-level (counts, not cycles): the paper's Fig 9
//! is an energy study and double buffering hides transfer latency.
//!
//! # Example
//!
//! ```
//! use sunstone_diannao::{Compiler, Simulator};
//! use sunstone_workloads::{ConvSpec, Precision};
//!
//! let layer = ConvSpec::new("conv", 1, 16, 16, 14, 14, 3, 3, 1);
//! let workload = layer.inference(Precision::conventional());
//! let naive = Compiler::naive(&workload)?;
//! let mut sim = Simulator::new();
//! naive.run(&mut sim)?;
//! let report = sim.report();
//! assert_eq!(report.macs, workload.total_ops());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

mod compiler;
mod isa;
mod sim;

pub use compiler::{CompileError, Compiler, Program};
pub use isa::{BufferId, Instruction, INSTRUCTION_BITS};
pub use sim::{EnergyTable, SimError, SimReport, Simulator};

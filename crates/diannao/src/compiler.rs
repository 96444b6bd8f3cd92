//! Lowering (workload, mapping) pairs to DianNao instruction streams.

use std::collections::HashSet;
use std::error::Error;
use std::fmt;

use sunstone_arch::{presets, Binding};
use sunstone_ir::{TensorKind, Workload};
use sunstone_mapping::{FlatNest, Mapping, MappingLevel, ValidationContext};

use crate::{BufferId, Instruction, SimError, Simulator};

/// Errors raised while lowering.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum CompileError {
    /// The mapping is not valid for the DianNao architecture.
    InvalidMapping(String),
    /// The workload cannot be bound to the DianNao buffers (it needs a
    /// weight-named input for SB).
    Binding(String),
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::InvalidMapping(e) => write!(f, "invalid mapping: {e}"),
            CompileError::Binding(e) => write!(f, "binding failed: {e}"),
        }
    }
}

impl Error for CompileError {}

/// A compiled program, runnable against a [`Simulator`].
#[derive(Debug, Clone)]
pub struct Program {
    kind: ProgramKind,
}

#[derive(Debug, Clone)]
enum ProgramKind {
    /// Tiled execution following a mapping.
    Tiled(TiledProgram),
    /// Untiled streaming execution (the paper's naive baseline): operands
    /// stream from DRAM exploiting only the NFU's inherent spatial reuse.
    Naive { macs: u64, dram_reads: u64, dram_writes: u64 },
}

#[derive(Debug, Clone)]
struct TiledProgram {
    /// One entry per DRAM-level loop, outermost first: (factor, per-tensor
    /// "indexes this tensor" mask).
    loops: Vec<(u64, Vec<bool>)>,
    /// Per-tensor tile words resident in the buffers.
    tile_words: Vec<u64>,
    /// Which buffer each tensor occupies.
    buffers: Vec<BufferId>,
    /// Whether each tensor is the output.
    is_output: Vec<bool>,
    /// MACs per processing pass.
    macs_per_pass: u64,
    /// Per-tensor buffer reads per pass (after NFU spatial reuse).
    reads_per_pass: Vec<u64>,
    /// NBout read-modify-writes per pass (after spatial reduction).
    nbout_rmw_per_pass: u64,
    /// Words moved by the one-time DRAM data-reordering pass.
    reorder_words: u64,
}

/// The compiler.
#[derive(Debug, Clone, Copy, Default)]
pub struct Compiler {
    _private: (),
}

impl Compiler {
    /// Lowers an untiled, streaming execution of the workload: every
    /// operand word is fetched from DRAM as consumed (modulo the NFU's
    /// built-in broadcast/reduction), and outputs are written once.
    pub fn naive(workload: &Workload) -> Result<Program, CompileError> {
        let arch = presets::diannao_like();
        let units = arch.total_spatial_units();
        // The NFU is a 16×16 grid: inputs broadcast across 16 output
        // lanes, partials reduce across 16 input lanes.
        let side = (units as f64).sqrt() as u64;
        let ops = workload.total_ops();
        let mut dram_reads = 0u64;
        let mut dram_writes = 0u64;
        for t in workload.tensors() {
            match t.kind() {
                TensorKind::Input => {
                    // Streaming still amortizes each fetch over the NFU's
                    // 16-deep operand FIFOs (inputs broadcast across the
                    // output lanes, weights held across the input lanes'
                    // pipeline), but captures no tiling reuse beyond that.
                    dram_reads += ops / side.max(1);
                }
                TensorKind::Output => {
                    dram_writes += t.footprint(&workload.dim_sizes());
                }
            }
        }
        Ok(Program { kind: ProgramKind::Naive { macs: ops, dram_reads, dram_writes } })
    }

    /// Lowers a tiled execution following `mapping` (for the DianNao
    /// architecture of [`presets::diannao_like`]).
    ///
    /// # Errors
    ///
    /// Fails if the mapping is invalid for the DianNao architecture or a
    /// tensor cannot be bound to a buffer.
    pub fn tiled(workload: &Workload, mapping: &Mapping) -> Result<Program, CompileError> {
        let arch = presets::diannao_like();
        let binding =
            Binding::resolve(&arch, workload).map_err(|e| CompileError::Binding(e.to_string()))?;
        let ctx = ValidationContext::new(workload, &arch, &binding);
        ctx.validate(mapping).map_err(|e| CompileError::InvalidMapping(e.to_string()))?;

        let ndims = workload.num_dims();
        // DianNao layout: pos 0 = NFU (spatial), pos 1 = buffers, pos 2 =
        // DRAM. Resident tile at the buffers level includes the NFU
        // unrolls.
        let tile = mapping.resident_tile(1, ndims);
        let nest = FlatNest::of(mapping, workload);
        let dram_loops: Vec<_> = nest.loops_above(1).to_vec();

        let mut tile_words = Vec::new();
        let mut buffers = Vec::new();
        let mut is_output = Vec::new();
        let mut reads_per_pass = Vec::new();
        let mut reorder_words = 0u64;
        let macs_per_pass: u64 = tile.iter().product();
        let spatial_factors = match mapping.level(0) {
            MappingLevel::Spatial(s) => s.factors.clone(),
            MappingLevel::Temporal(_) => vec![1; ndims],
        };
        let mut nbout_rmw_per_pass = macs_per_pass;
        for t in workload.tensor_ids() {
            let tensor = workload.tensor(t);
            tile_words.push(tensor.footprint(&tile));
            is_output.push(tensor.is_output());
            buffers.push(match tensor.kind() {
                TensorKind::Output => BufferId::NBout,
                TensorKind::Input if tensor.name().contains("weight") => BufferId::Sb,
                TensorKind::Input => BufferId::NBin,
            });
            // Buffer reads per pass: one per MAC, divided by the spatial
            // broadcast across units that do not index the tensor.
            let indexing = tensor.indexing_dims();
            let broadcast: u64 = (0..ndims)
                .filter(|&d| !indexing.contains(sunstone_ir::DimId::from_index(d)))
                .map(|d| spatial_factors[d])
                .product();
            if tensor.is_output() {
                nbout_rmw_per_pass = macs_per_pass / broadcast.max(1);
                reads_per_pass.push(0);
            } else {
                reads_per_pass.push(macs_per_pass / broadcast.max(1));
            }
            // Runtime data reordering applies to activations only:
            // weights are laid out offline (they are static), and the
            // output is produced directly in its consumer's layout.
            if tensor.kind() == TensorKind::Input && !tensor.name().contains("weight") {
                reorder_words += tensor.footprint(&workload.dim_sizes());
            }
        }

        let loops = dram_loops
            .iter()
            .map(|l| {
                let mask =
                    workload.tensors().iter().map(|t| t.indexing_dims().contains(l.dim)).collect();
                (l.factor, mask)
            })
            .collect();

        Ok(Program {
            kind: ProgramKind::Tiled(TiledProgram {
                loops,
                tile_words,
                buffers,
                is_output,
                macs_per_pass,
                reads_per_pass,
                nbout_rmw_per_pass,
                reorder_words,
            }),
        })
    }

    /// Like [`Compiler::tiled`], but overriding the words charged to the
    /// one-time data-reordering pass — e.g. zero when the producer layer
    /// already emits this layer's ifmap layout (see the Fig 9 harness).
    pub fn tiled_with_reorder(
        workload: &Workload,
        mapping: &Mapping,
        reorder_words: u64,
    ) -> Result<Program, CompileError> {
        let mut program = Self::tiled(workload, mapping)?;
        if let ProgramKind::Tiled(p) = &mut program.kind {
            p.reorder_words = reorder_words;
        }
        Ok(program)
    }
}

impl Program {
    /// Executes the program on a simulator.
    ///
    /// # Errors
    ///
    /// Propagates simulator faults (buffer overflow, compute on empty
    /// buffers).
    pub fn run(&self, sim: &mut Simulator) -> Result<(), SimError> {
        match &self.kind {
            ProgramKind::Naive { macs, dram_reads, dram_writes } => {
                sim.stream_naive(*macs, *dram_reads, *dram_writes);
                Ok(())
            }
            ProgramKind::Tiled(p) => self.run_tiled(p, sim),
        }
    }

    fn run_tiled(&self, p: &TiledProgram, sim: &mut Simulator) -> Result<(), SimError> {
        sim.account_reorder(p.reorder_words);
        let n_tensors = p.tile_words.len();
        let n_loops = p.loops.len();
        let mut counters = vec![0u64; n_loops];
        let mut is_first = true;
        // Visited output tiles, keyed by the output-indexing loop indices.
        let mut visited: HashSet<u64> = HashSet::new();
        let out_idx = p.is_output.iter().position(|&o| o).expect("workloads have an output");
        loop {
            // Which loops changed this step? On the first pass, all; on
            // later passes, the incremented loop and everything inside it
            // (odometer semantics).
            let changed_from = if is_first {
                0
            } else {
                let mut i = n_loops;
                loop {
                    debug_assert!(i > 0, "iteration end is checked before incrementing");
                    i -= 1;
                    counters[i] += 1;
                    if counters[i] < p.loops[i].0 {
                        break;
                    }
                    counters[i] = 0;
                }
                i
            };

            // Loads for tensors whose tile changed: any changed loop that
            // indexes the tensor replaces its tile (non-indexing loops
            // leave it resident — the FSM reuse of the paper).
            for t in 0..n_tensors {
                let tile_changed =
                    is_first || p.loops[changed_from..].iter().any(|(_, mask)| mask[t]);
                if !tile_changed {
                    continue;
                }
                if p.is_output[t] {
                    // Evict the previous tile, then reload a revisited
                    // tile or zero-initialize a fresh one.
                    if !is_first {
                        sim.execute(Instruction::Store {
                            buffer: p.buffers[t],
                            words: p.tile_words[t],
                        })?;
                    }
                    let key = output_key(&counters, &p.loops, out_idx);
                    if !visited.insert(key) {
                        sim.execute(Instruction::Load {
                            buffer: p.buffers[t],
                            words: p.tile_words[t],
                        })?;
                    } else {
                        sim.initialize(p.buffers[t], p.tile_words[t])?;
                    }
                } else {
                    sim.execute(Instruction::Load {
                        buffer: p.buffers[t],
                        words: p.tile_words[t],
                    })?;
                }
            }
            is_first = false;

            let mut nbin_reads = 0;
            let mut sb_reads = 0;
            for t in 0..n_tensors {
                match p.buffers[t] {
                    BufferId::NBin => nbin_reads += p.reads_per_pass[t],
                    BufferId::Sb => sb_reads += p.reads_per_pass[t],
                    BufferId::NBout => {}
                }
            }
            sim.execute(Instruction::Compute {
                macs: p.macs_per_pass,
                nbin_reads,
                sb_reads,
                nbout_rmw: p.nbout_rmw_per_pass,
            })?;

            // Advance or finish.
            if counters.iter().zip(&p.loops).all(|(&c, (f, _))| c + 1 == *f) {
                // Final eviction of the last output tile.
                sim.execute(Instruction::Store {
                    buffer: p.buffers[out_idx],
                    words: p.tile_words[out_idx],
                })?;
                return Ok(());
            }
        }
    }
}

/// Hash key of the current output tile: the indices of the loops that
/// index the output tensor.
fn output_key(counters: &[u64], loops: &[(u64, Vec<bool>)], out_idx: usize) -> u64 {
    let mut key = 0u64;
    for (c, (f, mask)) in counters.iter().zip(loops) {
        if mask[out_idx] {
            key = key.wrapping_mul(*f).wrapping_add(*c);
        }
    }
    key
}

#[cfg(test)]
mod tests {
    use super::*;
    use sunstone::{Scheduler, SunstoneConfig};
    use sunstone_workloads::{ConvSpec, Precision};

    fn small() -> Workload {
        ConvSpec::new("t", 1, 8, 8, 8, 8, 3, 3, 1).inference(Precision::conventional())
    }

    /// Schedules on the DianNao architecture, then lowers the mapping.
    fn scheduled(w: &Workload) -> Program {
        let scheduler = Scheduler::new(SunstoneConfig::default());
        let result = scheduler.schedule(w, &presets::diannao_like()).unwrap();
        Compiler::tiled(w, &result.mapping).unwrap()
    }

    #[test]
    fn naive_program_counts_stream_traffic() {
        let w = small();
        let p = Compiler::naive(&w).unwrap();
        let mut sim = Simulator::new();
        p.run(&mut sim).unwrap();
        let r = sim.report();
        assert_eq!(r.macs, w.total_ops());
        // Both operands are amortized across the NFU's 16-deep FIFOs.
        assert_eq!(r.dram_reads, 2 * (w.total_ops() / 16));
        assert!(r.dram_writes > 0);
        assert_eq!(r.instructions, 0, "streaming needs no tiling instructions");
    }

    #[test]
    fn tiled_program_runs_and_covers_all_macs() {
        let w = small();
        let p = scheduled(&w);
        let mut sim = Simulator::new();
        p.run(&mut sim).unwrap();
        let r = sim.report();
        assert_eq!(r.macs, w.total_ops(), "every MAC is executed");
        assert!(r.instructions > 0);
        assert!(r.reorder_words > 0);
    }

    #[test]
    fn tiled_beats_naive_on_energy() {
        let w = ConvSpec::new("t", 1, 16, 16, 14, 14, 3, 3, 1).inference(Precision::conventional());
        let naive = Compiler::naive(&w).unwrap();
        let tiled = scheduled(&w);
        let mut s1 = Simulator::new();
        naive.run(&mut s1).unwrap();
        let mut s2 = Simulator::new();
        tiled.run(&mut s2).unwrap();
        let e_naive = s1.report().total_energy_pj();
        let e_tiled = s2.report().total_energy_pj();
        assert!(
            e_tiled < e_naive,
            "tiling + unrolling wins despite overheads: {e_tiled} vs {e_naive}"
        );
    }

    #[test]
    fn rejects_invalid_mapping() {
        let w = small();
        let arch = presets::diannao_like();
        let mut m = sunstone_mapping::Mapping::streaming(&w, &arch);
        m.levels_mut()[1].factors_mut()[0] = 3; // breaks factor product
        assert!(Compiler::tiled(&w, &m).is_err());
    }
}

#[cfg(test)]
mod edge_tests {
    use super::*;
    use sunstone_workloads::{ConvSpec, Precision};

    /// A workload whose tiles fit the buffers entirely: one pass, one
    /// load per tensor, one compute, one store.
    #[test]
    fn single_pass_program_is_minimal() {
        let w = ConvSpec::new("tiny", 1, 4, 4, 4, 4, 1, 1, 1).inference(Precision::conventional());
        let arch = presets::diannao_like();
        let mut mapping = sunstone_mapping::Mapping::streaming(&w, &arch);
        // Everything in the buffers level (pos 1), nothing at DRAM.
        let sizes = w.dim_sizes();
        for (d, &s) in sizes.iter().enumerate() {
            mapping.levels_mut()[1].factors_mut()[d] = s;
            mapping.levels_mut()[2].factors_mut()[d] = 1;
        }
        let program = Compiler::tiled(&w, &mapping).expect("compiles");
        let mut sim = Simulator::new();
        program.run(&mut sim).expect("runs");
        let r = sim.report();
        assert_eq!(r.macs, w.total_ops());
        // 2 input loads + 1 compute + 1 final store = 4 instructions.
        assert_eq!(r.instructions, 4, "{r:?}");
        let sizes = w.dim_sizes();
        let expected_reads: u64 =
            w.tensors().iter().filter(|t| !t.is_output()).map(|t| t.footprint(&sizes)).sum();
        assert_eq!(r.dram_reads, expected_reads, "compulsory traffic only");
    }

    /// Output revisits force NBout round trips: a mapping with the
    /// reduction dim at DRAM *outside* the output-indexing loops reloads
    /// psum tiles.
    #[test]
    fn psum_revisits_produce_loads() {
        let w = ConvSpec::new("t", 1, 4, 8, 4, 4, 1, 1, 1).inference(Precision::conventional());
        let arch = presets::diannao_like();
        let mut mapping = sunstone_mapping::Mapping::streaming(&w, &arch);
        let d = |n: &str| w.dim_by_name(n).unwrap().index();
        for (dim, &s) in w.dim_sizes().iter().enumerate() {
            mapping.levels_mut()[1].factors_mut()[dim] = s;
            mapping.levels_mut()[2].factors_mut()[dim] = 1;
        }
        // Split C and K to DRAM with C *outside* K: each ofmap tile is
        // revisited C_dram times.
        mapping.levels_mut()[1].factors_mut()[d("C")] = 2;
        mapping.levels_mut()[2].factors_mut()[d("C")] = 4;
        mapping.levels_mut()[1].factors_mut()[d("K")] = 2;
        mapping.levels_mut()[2].factors_mut()[d("K")] = 2;
        if let sunstone_mapping::MappingLevel::Temporal(t) = &mut mapping.levels_mut()[2] {
            // innermost-first: K inside C.
            let k = sunstone_ir::DimId::from_index(d("K"));
            let c = sunstone_ir::DimId::from_index(d("C"));
            t.order.retain(|x| *x != k && *x != c);
            t.order.insert(0, k);
            t.order.insert(1, c);
        }
        let program = Compiler::tiled(&w, &mapping).expect("compiles");
        let mut sim = Simulator::new();
        program.run(&mut sim).expect("runs");
        let r = sim.report();
        // 2 K-tiles × 4 C-steps = 8 output-tile residencies; 6 of them
        // are revisits that must be reloaded from DRAM.
        assert!(r.dram_writes > w.tensor(w.output()).footprint(&w.dim_sizes()));
    }
}

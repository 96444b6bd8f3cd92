//! Canonical hand-crafted dataflows — weight-stationary,
//! output-stationary, and input-stationary — as mapping constructors.
//!
//! These are the fixed dataflows hard-wired into many accelerators
//! (weight-stationary TPU-style, output-stationary ShiDianNao-style).
//! Sunstone's searched mappings can be compared against them directly;
//! the `dataflow_comparison` integration test and the ablation bench do.

use sunstone_arch::{ArchSpec, Binding, Level};
use sunstone_ir::{sorted_divisors, DimId, TensorId, Workload};

use crate::{CapacityPlan, Mapping, MappingLevel};

/// Which operand stays resident in the innermost memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stationarity {
    /// The named input tensor stays put (e.g. weights).
    Input(TensorId),
    /// The output tensor stays put (accumulate in place).
    Output,
}

/// Builds a canonical stationary mapping: the stationary tensor's tile is
/// maximized in the innermost memory, the loops that reuse it are placed
/// directly above (innermost at the next level), and the remaining
/// iteration space stays at DRAM.
///
/// The result is *valid but untuned* — no spatial unrolling is applied —
/// making it a clean single-variable baseline for dataflow studies.
///
/// Returns `None` if the tensors do not bind to the architecture, or if
/// even a unit tile of the stationary tensor does not fit the innermost
/// memory.
pub fn stationary(workload: &Workload, arch: &ArchSpec, what: Stationarity) -> Option<Mapping> {
    let tensor_id = match what {
        Stationarity::Input(t) => t,
        Stationarity::Output => workload.output(),
    };
    let indexing = workload.tensor(tensor_id).indexing_dims();

    // Innermost memory; the stationary tensor must be storable there.
    let (inner_pos, _) = arch.memory_levels().next()?;
    let binding = Binding::resolve(arch, workload).ok()?;
    binding.partition_of(inner_pos, tensor_id)?;
    // The capacity rule counts *all* tensors sharing each partition — a
    // unified buffer must also hold the streaming tensors' unit tiles.
    let plan = CapacityPlan::new(workload, arch, &binding);
    let fits = |tile: &[u64]| plan.fits(inner_pos.index(), tile);

    // Grow the stationary tensor's indexing dims greedily (round-robin
    // over divisor ladders, one rung a turn) while everything fits.
    let mut tile = vec![1u64; workload.num_dims()];
    if !fits(&tile) {
        return None;
    }
    let mut ladders: Vec<(usize, Vec<u64>, usize)> =
        indexing.iter().map(|d| (d.index(), sorted_divisors(workload.dim_size(d)), 0)).collect();
    let mut progress = true;
    while progress {
        progress = false;
        for (d, ladder, rung) in &mut ladders {
            // `ladder[rung]` is the tile's current extent.
            let Some(&next) = ladder.get(*rung + 1) else { continue };
            let current = tile[*d];
            tile[*d] = next;
            if fits(&tile) {
                *rung += 1;
                progress = true;
            } else {
                tile[*d] = current;
            }
        }
    }

    let mut mapping = Mapping::streaming(workload, arch);
    for level in mapping.levels_mut() {
        level.factors_mut().iter_mut().for_each(|f| *f = 1);
    }
    let last = arch.num_levels() - 1;
    for (d, &t) in tile.iter().enumerate() {
        mapping.levels_mut()[inner_pos.index()].factors_mut()[d] = t;
        // Multiplied in: with a single memory the innermost is the last.
        mapping.levels_mut()[last].factors_mut()[d] *= workload.dim_size(DimId::from_index(d)) / t;
    }
    // Loop order above the stationary tile: the tensor's non-indexing
    // (reuse) dims innermost, so the tile stays resident as long as
    // possible.
    let reuse = workload.reuse_info();
    let full = reuse.of(tensor_id).full_reuse;
    for pos in inner_pos.index() + 1..arch.num_levels() {
        if let (Level::Memory(_), MappingLevel::Temporal(t)) =
            (&arch.levels()[pos], &mut mapping.levels_mut()[pos])
        {
            t.order.sort_by_key(|d| u8::from(!full.contains(*d)));
        }
    }
    Some(mapping)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sunstone_arch::{presets, Binding};
    use sunstone_mapping_test_util::conv1d;

    // A tiny local helper module so the tests read cleanly.
    mod sunstone_mapping_test_util {
        use sunstone_ir::Workload;

        pub fn conv1d(k: u64, c: u64, p: u64, r: u64) -> Workload {
            let mut b = Workload::builder("conv1d");
            let kk = b.dim("K", k);
            let cc = b.dim("C", c);
            let pp = b.dim("P", p);
            let rr = b.dim("R", r);
            b.input("ifmap", [cc.expr(), pp + rr]);
            b.input("weight", [kk.expr(), cc.expr(), rr.expr()]);
            b.output("ofmap", [kk.expr(), pp.expr()]);
            b.build().unwrap()
        }
    }

    #[test]
    fn weight_stationary_mapping_is_valid_and_keeps_weights_put() {
        let w = conv1d(16, 16, 56, 3);
        let arch = presets::conventional();
        let weight = w.tensor_by_name("weight").unwrap();
        let m = stationary(&w, &arch, Stationarity::Input(weight)).expect("fits");
        let binding = Binding::resolve(&arch, &w).unwrap();
        let ctx = crate::ValidationContext::new(&w, &arch, &binding);
        ctx.validate(&m).expect("stationary mapping is valid");
        // The weight tile fills most of L1 (512 B = 256 words).
        let tile = m.resident_tile(0, 4);
        let words = w.tensor(weight).footprint(&tile);
        assert!(words > 128, "weights occupy L1: {words} words");
        // P (the weight's reuse dim) is innermost at the upper levels.
        if let MappingLevel::Temporal(t) = &m.levels()[2] {
            assert_eq!(w.dim(t.order[0]).name(), "P");
        }
    }

    #[test]
    fn output_stationary_accumulates_in_place() {
        let w = conv1d(16, 16, 56, 3);
        let arch = presets::conventional();
        let m = stationary(&w, &arch, Stationarity::Output).expect("fits");
        let binding = Binding::resolve(&arch, &w).unwrap();
        let ctx = crate::ValidationContext::new(&w, &arch, &binding);
        ctx.validate(&m).expect("valid");
        // C and R (reduction dims) are innermost above the tile.
        if let MappingLevel::Temporal(t) = &m.levels()[2] {
            let first = w.dim(t.order[0]).name();
            assert!(first == "C" || first == "R", "{first}");
        }
    }

    #[test]
    fn impossible_stationarity_returns_none() {
        use sunstone_arch::{
            ArchSpec, BufferPartition, Capacity, Level, MemoryLevel, TensorFilter,
        };
        let w = conv1d(16, 16, 56, 3);
        let arch = ArchSpec::new(
            "tiny",
            vec![
                Level::Memory(MemoryLevel::unified(
                    "L1",
                    BufferPartition::new("l1", TensorFilter::Any, Capacity::Bytes(1), 1.0, 1.0),
                )),
                Level::Memory(MemoryLevel::unified(
                    "DRAM",
                    BufferPartition::new("d", TensorFilter::Any, Capacity::Unbounded, 1.0, 1.0),
                )),
            ],
            1.0,
            16,
        );
        let weight = w.tensor_by_name("weight").unwrap();
        assert!(stationary(&w, &arch, Stationarity::Input(weight)).is_none());
    }
}

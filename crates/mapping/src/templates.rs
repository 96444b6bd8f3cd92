//! Named dataflow templates: canonical fixed-dataflow accelerator styles
//! expressed as [`MappingConstraints`] presets.
//!
//! A template is parameterized by the architecture (it names the arch's
//! spatial fabrics and memory levels) but stays workload-generic by
//! referring to dimensions by conv-standard name (`C`, `K`, `R`, `P`) or
//! by algebraic [`DimRole`]. Feeding a template's constraints to the
//! scheduler restricts the search to mappings with that dataflow — the
//! honest way to compare Sunstone against fixed-dataflow mappers, and the
//! way to target accelerators whose dataflow is baked into silicon.
//!
//! These templates *constrain a search*; the sibling
//! [`dataflows`](crate::dataflows) module instead *constructs* single
//! untuned stationary mappings directly.

use sunstone_arch::ArchSpec;
use sunstone_ir::DimRole;

use crate::constraints::{DimRef, MappingConstraints};

/// A named accelerator dataflow, convertible to [`MappingConstraints`]
/// for a concrete architecture.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum DataflowTemplate {
    /// Weight-stationary with `C`/`K` spatial unrolling (TPU/Simba/NVDLA
    /// PE-array style): every fabric parallelizes only input and output
    /// channels, so each unit keeps one weight slice resident.
    WeightStationaryCK,
    /// Output-stationary (ShiDianNao style): fabrics parallelize only
    /// output-indexing dimensions and the reduction loops run innermost
    /// above the innermost memory, so each partial sum accumulates in
    /// place before moving up.
    OutputStationary,
    /// Row-stationary (Eyeriss style, first-order approximation): fabrics
    /// parallelize the kernel-row `R` and output-row `P` dimensions —
    /// the 1-D convolution primitives of the Eyeriss PE grid. The full
    /// row-stationary dataflow also fixes how rows fold onto the physical
    /// grid, which is below this constraint language's level of detail.
    RowStationary,
    /// NVDLA-like: `C`/`K` spatial unrolling plus single-pass accumulation
    /// — reduction loops innermost at the outermost memory, so each output
    /// is finished before the next batch of partial sums starts.
    NvdlaLike,
}

impl DataflowTemplate {
    /// Builds the template's constraints for `arch`, restricting every
    /// spatial fabric (and, where the dataflow demands it, a memory
    /// level's loop order).
    pub fn constraints(&self, arch: &ArchSpec) -> MappingConstraints {
        let mut c = MappingConstraints::new();
        let allow: Vec<DimRef> = match self {
            DataflowTemplate::WeightStationaryCK | DataflowTemplate::NvdlaLike => {
                vec![DimRef::named("C"), DimRef::named("K")]
            }
            DataflowTemplate::OutputStationary => vec![DimRef::role(DimRole::Parallel)],
            DataflowTemplate::RowStationary => vec![DimRef::named("R"), DimRef::named("P")],
        };
        for (_, fabric) in arch.spatial_levels() {
            c = c.allow_unroll(&fabric.name, allow.clone());
        }
        match self {
            DataflowTemplate::OutputStationary => {
                // Reduction loops innermost at the memory directly above
                // the innermost one (the first level whose order the
                // scheduler actually enumerates).
                if let Some((_, mem)) = arch.memory_levels().nth(1) {
                    c = c.order_inner(&mem.name, [DimRef::role(DimRole::Reduction)]);
                }
            }
            DataflowTemplate::NvdlaLike => {
                if let Some((_, mem)) = arch.memory_levels().last() {
                    c = c.order_inner(&mem.name, [DimRef::role(DimRole::Reduction)]);
                }
            }
            _ => {}
        }
        c
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sunstone_arch::presets;

    #[test]
    fn weight_stationary_restricts_every_fabric() {
        let arch = presets::simba_like();
        let c = DataflowTemplate::WeightStationaryCK.constraints(&arch);
        let fabrics = arch.spatial_levels().count();
        assert_eq!(c.unroll.len(), fabrics);
        for u in &c.unroll {
            let allow = u.allow.as_ref().expect("allowlist present");
            assert_eq!(allow.len(), 2);
        }
        assert!(c.order.is_empty());
    }

    #[test]
    fn output_stationary_pins_reductions_innermost() {
        let arch = presets::conventional();
        let c = DataflowTemplate::OutputStationary.constraints(&arch);
        assert_eq!(c.order.len(), 1);
        assert_eq!(c.order[0].inner, vec![DimRef::role(DimRole::Reduction)]);
        for u in &c.unroll {
            assert_eq!(u.allow, Some(vec![DimRef::role(DimRole::Parallel)]));
        }
    }

    #[test]
    fn nvdla_constrains_outermost_memory() {
        let arch = presets::conventional();
        let c = DataflowTemplate::NvdlaLike.constraints(&arch);
        let dram = arch.memory_levels().last().unwrap().1.name.clone();
        assert_eq!(c.order[0].level, dram);
    }

    #[test]
    fn row_stationary_names_r_and_p() {
        let arch = presets::eyeriss_like();
        let c = DataflowTemplate::RowStationary.constraints(&arch);
        for u in &c.unroll {
            assert_eq!(
                u.allow,
                Some(vec![DimRef::named("R"), DimRef::named("P")]),
                "fabric `{}`",
                u.level
            );
        }
    }
}

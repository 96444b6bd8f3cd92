//! Mapping validation.

use std::error::Error;
use std::fmt;

use sunstone_arch::{ArchSpec, Binding, Capacity, Level, LevelId};
use sunstone_ir::{DimSet, DimVec, Workload};

use crate::capacity::CapacityPlan;
use crate::{Mapping, MappingLevel};

/// Reasons a mapping can be invalid.
///
/// These are the same failure modes the paper reports for baseline tools:
/// tiles that do not fit their designated memories (CoSA, Fig 8), mappings
/// that do not correspond to the original computation (factor products),
/// and unrollings that require unsupported spatial reduction.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum MappingError {
    /// The mapping's level list does not mirror the architecture.
    StructureMismatch { expected: usize, got: usize },
    /// Level `pos` is temporal where the architecture has a spatial level,
    /// or vice versa.
    KindMismatch { pos: usize },
    /// A level's factor vector has the wrong length.
    WrongArity { pos: usize },
    /// A factor is zero.
    ZeroFactor { pos: usize, dim: usize },
    /// The product of factors over all levels differs from the problem
    /// dimension: the mapping does not compute the original problem.
    FactorProductMismatch { dim: usize, product: u64, size: u64 },
    /// A temporal level's loop order is not a permutation of all dims.
    OrderNotPermutation { pos: usize },
    /// A spatial level unrolls more units than the fabric provides.
    SpatialOverflow { pos: usize, used: u64, units: u64 },
    /// A spatial level unrolls a reduction dimension but the fabric cannot
    /// reduce across units.
    ReductionNotSupported { pos: usize, dim: usize },
    /// A tile does not fit in its designated buffer partition.
    CapacityExceeded { level: String, partition: String, needed_bytes: u64, capacity_bytes: u64 },
}

impl fmt::Display for MappingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MappingError::StructureMismatch { expected, got } => {
                write!(f, "mapping has {got} levels but the architecture has {expected}")
            }
            MappingError::KindMismatch { pos } => {
                write!(f, "level {pos} kind differs from the architecture")
            }
            MappingError::WrongArity { pos } => {
                write!(f, "level {pos} factor vector length differs from the workload")
            }
            MappingError::ZeroFactor { pos, dim } => {
                write!(f, "level {pos} has factor 0 for dimension {dim}")
            }
            MappingError::FactorProductMismatch { dim, product, size } => {
                write!(f, "dimension {dim}: factors multiply to {product}, problem size is {size}")
            }
            MappingError::OrderNotPermutation { pos } => {
                write!(f, "level {pos} loop order is not a permutation of the dimensions")
            }
            MappingError::SpatialOverflow { pos, used, units } => {
                write!(f, "spatial level {pos} uses {used} units but only {units} exist")
            }
            MappingError::ReductionNotSupported { pos, dim } => {
                write!(f, "spatial level {pos} unrolls reduction dimension {dim} without support")
            }
            MappingError::CapacityExceeded { level, partition, needed_bytes, capacity_bytes } => {
                write!(
                    f,
                    "tile needs {needed_bytes} B in `{level}/{partition}` ({capacity_bytes} B)"
                )
            }
        }
    }
}

impl Error for MappingError {}

/// Everything needed to validate mappings for one (workload, architecture)
/// pair. Construct once, validate many candidate mappings.
#[derive(Debug, Clone)]
pub struct ValidationContext<'a> {
    workload: &'a Workload,
    arch: &'a ArchSpec,
    binding: &'a Binding,
    reduction_dims: DimSet,
    capacity: CapacityPlan<'a>,
}

impl<'a> ValidationContext<'a> {
    /// Creates a context.
    pub fn new(workload: &'a Workload, arch: &'a ArchSpec, binding: &'a Binding) -> Self {
        ValidationContext {
            workload,
            arch,
            binding,
            reduction_dims: workload.reduction_dims(),
            capacity: CapacityPlan::new(workload, arch, binding),
        }
    }

    /// The workload under validation.
    pub fn workload(&self) -> &'a Workload {
        self.workload
    }

    /// The architecture under validation.
    pub fn arch(&self) -> &'a ArchSpec {
        self.arch
    }

    /// The tensor-to-partition binding.
    pub fn binding(&self) -> &'a Binding {
        self.binding
    }

    /// The capacity rule the validator checks tiles against, for callers
    /// that need to know whether a tile fits before a mapping exists.
    pub fn capacity(&self) -> &CapacityPlan<'a> {
        &self.capacity
    }

    /// Checks every validity condition; see [`MappingError`].
    ///
    /// # Errors
    ///
    /// Returns the first violation found, structural checks before
    /// capacity checks.
    pub fn validate(&self, mapping: &Mapping) -> Result<(), MappingError> {
        self.validate_structure(mapping)?;
        self.validate_capacity(mapping)
    }

    /// Structural checks only (no capacity): level shape, factor products,
    /// order permutations, spatial limits.
    pub fn validate_structure(&self, mapping: &Mapping) -> Result<(), MappingError> {
        let n = self.workload.num_dims();
        let arch_levels = self.arch.levels();
        if mapping.levels().len() != arch_levels.len() {
            return Err(MappingError::StructureMismatch {
                expected: arch_levels.len(),
                got: mapping.levels().len(),
            });
        }
        for (pos, (ml, al)) in mapping.levels().iter().zip(arch_levels).enumerate() {
            match (ml, al) {
                (MappingLevel::Temporal(t), Level::Memory(_)) => {
                    if t.factors.len() != n {
                        return Err(MappingError::WrongArity { pos });
                    }
                    if t.order.len() != n {
                        return Err(MappingError::OrderNotPermutation { pos });
                    }
                    let seen: DimSet = t.order.iter().copied().collect();
                    if seen.len() != n {
                        return Err(MappingError::OrderNotPermutation { pos });
                    }
                }
                (MappingLevel::Spatial(s), Level::Spatial(fabric)) => {
                    if s.factors.len() != n {
                        return Err(MappingError::WrongArity { pos });
                    }
                    let used = s.used_units();
                    if used > fabric.units {
                        return Err(MappingError::SpatialOverflow {
                            pos,
                            used,
                            units: fabric.units,
                        });
                    }
                    if !fabric.allow_reduction {
                        for d in self.reduction_dims.iter() {
                            if s.factors[d.index()] > 1 {
                                return Err(MappingError::ReductionNotSupported {
                                    pos,
                                    dim: d.index(),
                                });
                            }
                        }
                    }
                }
                _ => return Err(MappingError::KindMismatch { pos }),
            }
            for (dim, &f) in ml.factors().iter().enumerate() {
                if f == 0 {
                    return Err(MappingError::ZeroFactor { pos, dim });
                }
            }
        }
        for d in self.workload.dim_ids() {
            let product = mapping.total_factor(d);
            let size = self.workload.dim_size(d);
            if product != size {
                return Err(MappingError::FactorProductMismatch { dim: d.index(), product, size });
            }
        }
        Ok(())
    }

    /// Capacity checks: at every bounded memory level, the resident tiles
    /// of the tensors bound to each partition must fit.
    pub fn validate_capacity(&self, mapping: &Mapping) -> Result<(), MappingError> {
        // The resident tile at a level spans every level at or below it,
        // so it is taken level by level into one running tile.
        let mut tile = DimVec::ones(self.workload.num_dims());
        for (pos, level) in mapping.levels().iter().enumerate() {
            for (t, &f) in tile.iter_mut().zip(level.factors()) {
                *t = t.saturating_mul(f);
            }
            if let Some((id, needed_bytes)) = self.capacity.overflow(pos, &tile) {
                let mem =
                    self.arch.level(LevelId(pos)).as_memory().expect("only a memory overflows");
                let part = mem.partition(id);
                let Capacity::Bytes(capacity_bytes) = part.capacity else {
                    unreachable!("an unbounded partition holds any tile")
                };
                return Err(MappingError::CapacityExceeded {
                    level: mem.name.clone(),
                    partition: part.name.clone(),
                    needed_bytes,
                    capacity_bytes,
                });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TemporalLevel;
    use sunstone_arch::presets;

    fn conv1d() -> Workload {
        let mut b = Workload::builder("conv1d");
        let k = b.dim("K", 4);
        let c = b.dim("C", 4);
        let p = b.dim("P", 14);
        let r = b.dim("R", 3);
        b.input("ifmap", [c.expr(), p + r]);
        b.input("weight", [k.expr(), c.expr(), r.expr()]);
        b.output("ofmap", [k.expr(), p.expr()]);
        b.build().unwrap()
    }

    #[test]
    fn streaming_mapping_is_valid() {
        let w = conv1d();
        let arch = presets::conventional();
        let binding = Binding::resolve(&arch, &w).unwrap();
        let ctx = ValidationContext::new(&w, &arch, &binding);
        let m = Mapping::streaming(&w, &arch);
        ctx.validate(&m).unwrap();
    }

    #[test]
    fn detects_factor_product_mismatch() {
        let w = conv1d();
        let arch = presets::conventional();
        let binding = Binding::resolve(&arch, &w).unwrap();
        let ctx = ValidationContext::new(&w, &arch, &binding);
        let mut m = Mapping::streaming(&w, &arch);
        m.levels_mut()[0].factors_mut()[0] = 2; // K now covered 2 × 4.
        assert_eq!(
            ctx.validate(&m).unwrap_err(),
            MappingError::FactorProductMismatch { dim: 0, product: 8, size: 4 }
        );
    }

    #[test]
    fn detects_spatial_overflow() {
        let w = conv1d();
        let arch = presets::conventional();
        let binding = Binding::resolve(&arch, &w).unwrap();
        let ctx = ValidationContext::new(&w, &arch, &binding);
        let mut m = Mapping::streaming(&w, &arch);
        // 14 × 4 × 4 × 3 = 672 ≤ 1024 units, so bump P beyond its size to
        // overflow; instead unroll a fake huge product: use K=4,C=4,P=14,R=3
        // on 1024 units is fine; force overflow via an absurd factor.
        m.levels_mut()[1].factors_mut()[2] = 2048;
        let err = ctx.validate(&m).unwrap_err();
        assert!(matches!(err, MappingError::SpatialOverflow { used: 2048, units: 1024, .. }));
    }

    #[test]
    fn detects_reduction_on_non_reducing_fabric() {
        let w = conv1d();
        let mut arch = presets::conventional();
        // Rebuild with a no-reduction grid.
        let levels: Vec<Level> = arch
            .levels()
            .iter()
            .cloned()
            .map(|l| match l {
                Level::Spatial(s) => Level::Spatial(s.without_reduction()),
                other => other,
            })
            .collect();
        arch = ArchSpec::new("noreduce", levels, arch.mac_energy_pj(), arch.ref_bits());
        let binding = Binding::resolve(&arch, &w).unwrap();
        let ctx = ValidationContext::new(&w, &arch, &binding);
        let mut m = Mapping::streaming(&w, &arch);
        // Unroll C (a reduction dim) on the grid and remove it from DRAM.
        m.levels_mut()[1].factors_mut()[1] = 2;
        m.levels_mut()[3].factors_mut()[1] = 2;
        let err = ctx.validate(&m).unwrap_err();
        assert!(matches!(err, MappingError::ReductionNotSupported { dim: 1, .. }));
    }

    #[test]
    fn detects_capacity_overflow() {
        let w = {
            let mut b = Workload::builder("conv1d-big");
            let k = b.dim("K", 64);
            let c = b.dim("C", 64);
            let p = b.dim("P", 56);
            let r = b.dim("R", 3);
            b.input("ifmap", [c.expr(), p + r]);
            b.input("weight", [k.expr(), c.expr(), r.expr()]);
            b.output("ofmap", [k.expr(), p.expr()]);
            b.build().unwrap()
        };
        let arch = presets::conventional();
        let binding = Binding::resolve(&arch, &w).unwrap();
        let ctx = ValidationContext::new(&w, &arch, &binding);
        let mut m = Mapping::streaming(&w, &arch);
        // Put the whole problem in L1 (512 B): footprints exceed capacity.
        m.levels_mut()[0].factors_mut().copy_from_slice(&w.dim_sizes());
        for d in 0..4 {
            m.levels_mut()[3].factors_mut()[d] = 1;
        }
        let err = ctx.validate(&m).unwrap_err();
        assert!(
            matches!(err, MappingError::CapacityExceeded { ref level, .. } if level == "L1"),
            "{err:?}"
        );
    }

    #[test]
    fn detects_bad_order_permutation() {
        let w = conv1d();
        let arch = presets::conventional();
        let binding = Binding::resolve(&arch, &w).unwrap();
        let ctx = ValidationContext::new(&w, &arch, &binding);
        let mut m = Mapping::streaming(&w, &arch);
        if let MappingLevel::Temporal(TemporalLevel { order, .. }) = &mut m.levels_mut()[0] {
            order[0] = order[1]; // duplicate dim
        }
        assert_eq!(ctx.validate(&m).unwrap_err(), MappingError::OrderNotPermutation { pos: 0 });
    }

    #[test]
    fn detects_zero_factor() {
        let w = conv1d();
        let arch = presets::conventional();
        let binding = Binding::resolve(&arch, &w).unwrap();
        let ctx = ValidationContext::new(&w, &arch, &binding);
        let mut m = Mapping::streaming(&w, &arch);
        m.levels_mut()[0].factors_mut()[0] = 0;
        assert_eq!(ctx.validate(&m).unwrap_err(), MappingError::ZeroFactor { pos: 0, dim: 0 });
    }

    #[test]
    fn detects_structure_mismatch() {
        let w = conv1d();
        let arch = presets::conventional();
        let binding = Binding::resolve(&arch, &w).unwrap();
        let ctx = ValidationContext::new(&w, &arch, &binding);
        let m =
            Mapping::from_levels(vec![MappingLevel::Temporal(TemporalLevel::unit(LevelId(0), 4))]);
        assert!(matches!(
            ctx.validate(&m).unwrap_err(),
            MappingError::StructureMismatch { expected: 4, got: 1 }
        ));
    }

    #[test]
    fn errors_display_nonempty() {
        let errs = [
            MappingError::StructureMismatch { expected: 4, got: 1 },
            MappingError::KindMismatch { pos: 0 },
            MappingError::WrongArity { pos: 0 },
            MappingError::ZeroFactor { pos: 0, dim: 0 },
            MappingError::FactorProductMismatch { dim: 0, product: 8, size: 4 },
            MappingError::OrderNotPermutation { pos: 0 },
            MappingError::SpatialOverflow { pos: 0, used: 9, units: 8 },
            MappingError::ReductionNotSupported { pos: 0, dim: 0 },
            MappingError::CapacityExceeded {
                level: "L1".into(),
                partition: "l1".into(),
                needed_bytes: 9,
                capacity_bytes: 8,
            },
        ];
        for e in errs {
            assert!(!e.to_string().is_empty());
        }
    }
}

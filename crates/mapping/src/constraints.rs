//! User-specified mapping constraints: the vocabulary, its resolution
//! against one problem, and the check of a mapping against the resolved
//! form.
//!
//! A [`MappingConstraints`] value restricts the mapping space *before*
//! search: pin or allowlist spatial unroll dimensions per fabric, fix a
//! loop-order prefix per memory level, pin or cap resident tile extents,
//! and override tensor bypass decisions. An empty value (the default)
//! constrains nothing — the scheduler's behaviour with
//! `MappingConstraints::default()` is bit-identical to a build without the
//! constraint layer.
//!
//! Constraints name architecture levels by their [`Level::name`] and
//! problem dimensions either by name or by algebraic [`DimRole`], so one
//! description — a *dataflow template*, see
//! [`crate::templates::DataflowTemplate`] — applies across workloads.
//!
//! A set has one meaning, [`ResolvedConstraints`]: resolved once per call
//! against a (workload, architecture) pair, it holds per architecture
//! position the dimension sets and factor pins as raw indices, and
//! rejects every statically unsatisfiable set. The search's enumerators
//! read it inside enumeration, and [`ResolvedConstraints::check`] holds a
//! finished mapping to it, so a mapping the search admits under a set is
//! one the check accepts, however the set was spelled.
//!
//! [`Level::name`]: sunstone_arch::Level::name

use std::error::Error;
use std::fmt;

use serde::{Deserialize, Serialize};
use sunstone_arch::{ArchSpec, LevelId};
use sunstone_ir::{DimId, DimRole, DimSet, TensorId, Workload};

use crate::Mapping;

/// A reference to one or more problem dimensions, resolved per workload.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum DimRef {
    /// A single dimension by exact name, e.g. `"K"`. Resolution fails with
    /// [`ConstraintError::UnknownDim`] if the workload has no such
    /// dimension.
    Named(String),
    /// Every dimension with the given role — resolves to a possibly empty
    /// set and never fails.
    Role(DimRole),
}

impl DimRef {
    /// Shorthand for [`DimRef::Named`].
    pub fn named(name: impl Into<String>) -> Self {
        DimRef::Named(name.into())
    }

    /// Shorthand for [`DimRef::Role`].
    pub fn role(role: DimRole) -> Self {
        DimRef::Role(role)
    }

    /// Resolves the reference against a workload.
    ///
    /// # Errors
    ///
    /// [`ConstraintError::UnknownDim`] for a [`DimRef::Named`] that matches
    /// no dimension.
    pub fn resolve(&self, workload: &Workload) -> Result<DimSet, ConstraintError> {
        match self {
            DimRef::Named(name) => workload
                .dim_by_name(name)
                .map(|d| DimSet::EMPTY.with(d))
                .ok_or_else(|| ConstraintError::UnknownDim { name: name.clone() }),
            DimRef::Role(role) => Ok(workload.dims_with_role(*role)),
        }
    }
}

impl fmt::Display for DimRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DimRef::Named(n) => write!(f, "`{n}`"),
            DimRef::Role(DimRole::Parallel) => write!(f, "role:parallel"),
            DimRef::Role(DimRole::Reduction) => write!(f, "role:reduction"),
        }
    }
}

/// Restricts the spatial unrolling at one fabric (by level name).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct UnrollConstraint {
    /// The spatial level's name, e.g. `"pe_grid"`.
    pub level: String,
    /// When `Some`, only dimensions in the union of these references may
    /// have an unroll factor > 1 here. `Some(vec![])` forbids unrolling
    /// anything beyond the pins below.
    pub allow: Option<Vec<DimRef>>,
    /// Exact unroll factors: every dimension each reference resolves to
    /// must be unrolled by exactly this factor at this fabric. Pinned
    /// dimensions are implicitly allowed.
    pub pins: Vec<(DimRef, u64)>,
}

/// Fixes the (innermost) loop order at one memory level.
///
/// `inner` is a sequence of dimension *groups*, innermost first. Reading
/// the level's loop order from the innermost loop outward and skipping
/// degenerate loops (factor 1 at that level), the order must consume each
/// group's dimensions — in any order within a group — before the next
/// group starts. A `Named` reference is a singleton group, so a list of
/// named references fixes the exact innermost sequence; a `Role` reference
/// constrains a whole class of loops to sit together.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OrderConstraint {
    /// The memory level's name, e.g. `"L2"`. The innermost memory level
    /// has no enumerated loop order and cannot be constrained.
    pub level: String,
    /// Dimension groups, innermost first.
    pub inner: Vec<DimRef>,
    /// When `true`, the groups must cover every non-degenerate loop at
    /// this level — the whole order is fixed up to intra-group
    /// permutation. When `false`, loops outside the groups are free but
    /// must all sit outside the constrained prefix.
    pub exact: bool,
}

/// Pins or caps per-dimension resident tile extents at one memory level.
///
/// The *resident tile* at a memory is the product of factors over all
/// levels at or below it ([`Mapping::resident_tile`]); a pin of `v` for
/// dimension `d` means exactly `v` consecutive indices of `d` are resident,
/// a cap means at most `v` are.
///
/// [`Mapping::resident_tile`]: crate::Mapping::resident_tile
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TileConstraint {
    /// The memory level's name. The outermost memory always holds the full
    /// problem and cannot be pinned or capped.
    pub level: String,
    /// Exact resident extents. A pin must divide the problem dimension.
    pub pins: Vec<(DimRef, u64)>,
    /// Upper bounds on resident extents.
    pub caps: Vec<(DimRef, u64)>,
}

/// Forces a tensor to bypass a memory level it would otherwise occupy.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BypassOverride {
    /// The memory level's name. The outermost memory must store every
    /// tensor and cannot be bypassed.
    pub level: String,
    /// The tensor's name in the workload.
    pub tensor: String,
}

/// A full set of mapping-space restrictions. The default is empty:
/// everything the architecture admits stays searchable.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct MappingConstraints {
    /// Per-fabric spatial unroll restrictions.
    pub unroll: Vec<UnrollConstraint>,
    /// Per-memory loop-order restrictions.
    pub order: Vec<OrderConstraint>,
    /// Per-memory tile-size restrictions.
    pub tile: Vec<TileConstraint>,
    /// Bypass overrides.
    pub bypass: Vec<BypassOverride>,
}

impl MappingConstraints {
    /// Creates an empty (unconstrained) set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns `true` if no constraint of any kind is present.
    pub fn is_empty(&self) -> bool {
        self.unroll.is_empty()
            && self.order.is_empty()
            && self.tile.is_empty()
            && self.bypass.is_empty()
    }

    /// Restricts unrolling at fabric `level` to the given dimensions
    /// (builder style).
    #[must_use]
    pub fn allow_unroll(
        mut self,
        level: impl Into<String>,
        dims: impl IntoIterator<Item = DimRef>,
    ) -> Self {
        self.unroll.push(UnrollConstraint {
            level: level.into(),
            allow: Some(dims.into_iter().collect()),
            pins: Vec::new(),
        });
        self
    }

    /// Pins the unroll factor of `dim` at fabric `level` (builder style).
    #[must_use]
    pub fn pin_unroll(mut self, level: impl Into<String>, dim: DimRef, factor: u64) -> Self {
        let level = level.into();
        if let Some(c) = self.unroll.iter_mut().find(|c| c.level == level) {
            c.pins.push((dim, factor));
        } else {
            self.unroll.push(UnrollConstraint { level, allow: None, pins: vec![(dim, factor)] });
        }
        self
    }

    /// Requires the given dimension groups to be innermost (in order) at
    /// memory `level` (builder style).
    #[must_use]
    pub fn order_inner(
        mut self,
        level: impl Into<String>,
        inner: impl IntoIterator<Item = DimRef>,
    ) -> Self {
        self.order.push(OrderConstraint {
            level: level.into(),
            inner: inner.into_iter().collect(),
            exact: false,
        });
        self
    }

    /// Fixes the whole loop order at memory `level` to the given groups
    /// (builder style).
    #[must_use]
    pub fn order_exact(
        mut self,
        level: impl Into<String>,
        inner: impl IntoIterator<Item = DimRef>,
    ) -> Self {
        self.order.push(OrderConstraint {
            level: level.into(),
            inner: inner.into_iter().collect(),
            exact: true,
        });
        self
    }

    /// Pins the resident tile extent of `dim` at memory `level` (builder
    /// style).
    #[must_use]
    pub fn pin_tile(mut self, level: impl Into<String>, dim: DimRef, extent: u64) -> Self {
        let level = level.into();
        if let Some(c) = self.tile.iter_mut().find(|c| c.level == level) {
            c.pins.push((dim, extent));
        } else {
            self.tile.push(TileConstraint { level, pins: vec![(dim, extent)], caps: Vec::new() });
        }
        self
    }

    /// Caps the resident tile extent of `dim` at memory `level` (builder
    /// style).
    #[must_use]
    pub fn cap_tile(mut self, level: impl Into<String>, dim: DimRef, extent: u64) -> Self {
        let level = level.into();
        if let Some(c) = self.tile.iter_mut().find(|c| c.level == level) {
            c.caps.push((dim, extent));
        } else {
            self.tile.push(TileConstraint { level, pins: Vec::new(), caps: vec![(dim, extent)] });
        }
        self
    }

    /// Forces `tensor` to bypass memory `level` (builder style).
    #[must_use]
    pub fn bypass(mut self, level: impl Into<String>, tensor: impl Into<String>) -> Self {
        self.bypass.push(BypassOverride { level: level.into(), tensor: tensor.into() });
        self
    }
}

/// Why a constraint set is invalid for a given workload/architecture pair,
/// or why a mapping violates it.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ConstraintError {
    /// A `DimRef::Named` matches no workload dimension.
    UnknownDim { name: String },
    /// A constraint names an architecture level that does not exist.
    UnknownLevel { name: String },
    /// An unroll constraint names a level that is not spatial.
    NotSpatial { level: String },
    /// An order/tile/bypass constraint names a level that is not a memory.
    NotMemory { level: String },
    /// A bypass override names a tensor the workload does not have.
    UnknownTensor { name: String },
    /// The constraint set can never be satisfied (contradictory pins,
    /// non-dividing tile pins, over-subscribed fabrics, ...).
    Unsatisfiable { reason: String },
    /// A mapping does not honor the constraint set (reported by
    /// [`ResolvedConstraints::check`]).
    Violated { level: String, reason: String },
}

impl fmt::Display for ConstraintError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConstraintError::UnknownDim { name } => {
                write!(f, "constraint references unknown dimension `{name}`")
            }
            ConstraintError::UnknownLevel { name } => {
                write!(f, "constraint references unknown level `{name}`")
            }
            ConstraintError::NotSpatial { level } => {
                write!(f, "unroll constraint on `{level}`, which is not a spatial level")
            }
            ConstraintError::NotMemory { level } => {
                write!(f, "constraint on `{level}`, which is not a memory level")
            }
            ConstraintError::UnknownTensor { name } => {
                write!(f, "bypass override references unknown tensor `{name}`")
            }
            ConstraintError::Unsatisfiable { reason } => {
                write!(f, "unsatisfiable constraints: {reason}")
            }
            ConstraintError::Violated { level, reason } => {
                write!(f, "mapping violates constraint at `{level}`: {reason}")
            }
        }
    }
}

impl Error for ConstraintError {}

/// Resolves the union of several references.
fn resolve_union(refs: &[DimRef], workload: &Workload) -> Result<DimSet, ConstraintError> {
    let mut set = DimSet::EMPTY;
    for r in refs {
        set = set.union(r.resolve(workload)?);
    }
    Ok(set)
}

/// Resolves `(DimRef, value)` pairs to per-dimension values. A reference
/// resolving to several dimensions pins each of them; conflicting values
/// for the same dimension are unsatisfiable.
fn resolve_pins(
    pins: &[(DimRef, u64)],
    workload: &Workload,
    what: &str,
    level: &str,
) -> Result<Vec<(DimId, u64)>, ConstraintError> {
    let mut out: Vec<(DimId, u64)> = Vec::new();
    for (r, v) in pins {
        for d in r.resolve(workload)?.iter() {
            match out.iter().find(|(e, _)| *e == d) {
                Some((_, prev)) if prev != v => {
                    return Err(ConstraintError::Unsatisfiable {
                        reason: format!(
                            "conflicting {what} pins for dimension `{}` at `{level}`: {prev} vs {v}",
                            workload.dim(d).name()
                        ),
                    });
                }
                Some(_) => {}
                None => out.push((d, *v)),
            }
        }
    }
    Ok(out)
}

/// Resolves `(DimRef, cap)` pairs to per-dimension upper bounds. Unlike
/// pins, several caps on one dimension are not a conflict — the tightest
/// wins.
fn resolve_caps(
    caps: &[(DimRef, u64)],
    workload: &Workload,
) -> Result<Vec<(DimId, u64)>, ConstraintError> {
    let mut out: Vec<(DimId, u64)> = Vec::new();
    for (r, v) in caps {
        for d in r.resolve(workload)?.iter() {
            match out.iter_mut().find(|(e, _)| *e == d) {
                Some((_, prev)) => *prev = (*prev).min(*v),
                None => out.push((d, *v)),
            }
        }
    }
    Ok(out)
}

fn unsat(reason: String) -> ConstraintError {
    ConstraintError::Unsatisfiable { reason }
}

/// Resolved constraint data of one architecture position (spatial fields
/// for fabrics, tile/order fields for memories), raw-indexed.
#[derive(Debug, Clone)]
pub struct LevelConstraints {
    /// Fabrics: the dimensions this fabric may unroll — every dimension,
    /// less the reductions when the fabric cannot reduce spatially, within
    /// the allow-list (pins included). Filled for every fabric, also when
    /// the set is empty; empty at memories. The one answer the search's
    /// unroll and tile enumerations and [`ResolvedConstraints::check`]
    /// read.
    pub unroll_dims: DimSet,
    /// Fabrics an allow-list or a pin names: what `unroll_dims` would be
    /// without them, the hardware's set, against which the search counts
    /// what the constraint cut. `None` elsewhere.
    pub unroll_free: Option<DimSet>,
    /// Fabrics: exact per-dimension unroll factors.
    pub unroll_pins: Vec<(usize, u64)>,
    /// The pinned dimensions of `unroll_pins`, as a set.
    pub unroll_pinned: DimSet,
    /// Product of the pinned unroll factors (1 when nothing is pinned);
    /// validated to not exceed the fabric's unit count.
    pub unroll_pin_product: u64,
    /// Memories: exact resident-tile extents.
    pub tile_pins: Vec<(usize, u64)>,
    /// Memories: resident-tile upper bounds.
    pub tile_caps: Vec<(usize, u64)>,
    /// Memories: forced innermost loop groups (innermost first) plus the
    /// exact flag of [`OrderConstraint`].
    pub order: Option<(Vec<DimSet>, bool)>,
}

impl Default for LevelConstraints {
    fn default() -> Self {
        LevelConstraints {
            unroll_dims: DimSet::EMPTY,
            unroll_free: None,
            unroll_pins: Vec::new(),
            unroll_pinned: DimSet::EMPTY,
            unroll_pin_product: 1,
            tile_pins: Vec::new(),
            tile_caps: Vec::new(),
            order: None,
        }
    }
}

/// A constraint set resolved against one (workload, architecture) pair,
/// indexed by architecture position. Statically valid by construction.
#[derive(Debug, Clone)]
pub struct ResolvedConstraints {
    levels: Vec<LevelConstraints>,
    bypass: Vec<(LevelId, TensorId, String)>,
    empty: bool,
}

impl ResolvedConstraints {
    /// Whether the originating constraint set was empty — the fast path
    /// every enumerator checks before touching constraint state.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.empty
    }

    /// The resolved constraints of the level at architecture position
    /// `pos`.
    #[inline]
    pub fn at(&self, pos: usize) -> &LevelConstraints {
        &self.levels[pos]
    }

    /// Bypass overrides as `(level, tensor, tensor name)`, applied to the
    /// [`Binding`](sunstone_arch::Binding) before the search starts.
    pub fn bypass(&self) -> &[(LevelId, TensorId, String)] {
        &self.bypass
    }

    /// Resolves and validates `constraints` for one problem.
    ///
    /// # Errors
    ///
    /// Unknown level, dimension or tensor names, constraints on levels of
    /// the wrong kind (unroll on a memory, tile on a fabric), restrictions
    /// the walk cannot honor (ordering the innermost memory, pinning the
    /// outermost memory's tile, bypassing the outermost memory), and
    /// statically unsatisfiable sets (conflicting or non-dividing pins,
    /// over-subscribed fabrics, overlapping order groups, pins above caps).
    pub fn resolve(
        constraints: &MappingConstraints,
        workload: &Workload,
        arch: &ArchSpec,
    ) -> Result<Self, ConstraintError> {
        // The one fabric rule: a fabric may unroll every dimension, less
        // the reductions when it cannot reduce spatially. An allow-list,
        // with its fabric's pins put back, narrows this set below;
        // nothing else decides it.
        let all = DimSet::first_n(workload.num_dims());
        let free = |pos: usize| match arch.level(LevelId(pos)).as_spatial() {
            Some(fabric) if fabric.allow_reduction => all,
            Some(_) => all.difference(workload.reduction_dims()),
            None => DimSet::EMPTY,
        };
        let mut levels: Vec<LevelConstraints> = (0..arch.num_levels())
            .map(|pos| LevelConstraints { unroll_dims: free(pos), ..LevelConstraints::default() })
            .collect();
        let mut bypass = Vec::new();
        if constraints.is_empty() {
            return Ok(ResolvedConstraints { levels, bypass, empty: true });
        }
        let find = |name: &str| -> Result<usize, ConstraintError> {
            (0..arch.num_levels())
                .find(|&p| arch.level(LevelId(p)).name() == name)
                .ok_or_else(|| ConstraintError::UnknownLevel { name: name.to_string() })
        };
        let innermost_mem = arch.memory_levels().next().map(|(id, _)| id.index());
        let outermost_mem = arch.memory_levels().last().map(|(id, _)| id.index());

        for uc in &constraints.unroll {
            let pos = find(&uc.level)?;
            if arch.level(LevelId(pos)).as_spatial().is_none() {
                return Err(ConstraintError::NotSpatial { level: uc.level.clone() });
            }
            let pins = resolve_pins(&uc.pins, workload, "unroll", &uc.level)?;
            let lc = &mut levels[pos];
            if uc.allow.is_some() || !pins.is_empty() {
                lc.unroll_free = Some(free(pos));
            }
            for (d, v) in pins {
                match lc.unroll_pins.iter().find(|(e, _)| *e == d.index()) {
                    Some((_, prev)) if *prev != v => {
                        return Err(unsat(format!(
                            "conflicting unroll pins for dimension `{}` at `{}`: {prev} vs {v}",
                            workload.dim(d).name(),
                            uc.level
                        )));
                    }
                    Some(_) => {}
                    None => lc.unroll_pins.push((d.index(), v)),
                }
            }
            if let Some(refs) = &uc.allow {
                lc.unroll_dims = lc.unroll_dims.intersection(resolve_union(refs, workload)?);
            }
        }
        // Per-fabric pin validation: each pin must divide its dimension,
        // respect the fabric's reduction capability, and jointly fit the
        // fabric; pinned dimensions are implicitly allowed.
        for (pos, lc) in levels.iter_mut().enumerate() {
            if lc.unroll_pins.is_empty() {
                continue;
            }
            let fabric = arch.level(LevelId(pos)).as_spatial().expect("checked spatial above");
            let hardware = free(pos);
            let mut product: u128 = 1;
            for &(d, v) in &lc.unroll_pins {
                let dim = workload.dim(DimId::from_index(d));
                if v == 0 || !dim.size().is_multiple_of(v) {
                    return Err(unsat(format!(
                        "unroll pin {v} for `{}` at `{}` does not divide the extent {}",
                        dim.name(),
                        arch.level(LevelId(pos)).name(),
                        dim.size()
                    )));
                }
                if !hardware.contains(DimId::from_index(d)) && v > 1 {
                    return Err(unsat(format!(
                        "unroll pin for reduction dimension `{}` at `{}`, which cannot \
                         spatially reduce",
                        dim.name(),
                        arch.level(LevelId(pos)).name()
                    )));
                }
                product *= u128::from(v);
                lc.unroll_pinned = lc.unroll_pinned.with(DimId::from_index(d));
            }
            if product > u128::from(fabric.units) {
                return Err(unsat(format!(
                    "unroll pins multiply to {product}, exceeding the {} units of `{}`",
                    fabric.units,
                    arch.level(LevelId(pos)).name()
                )));
            }
            lc.unroll_pin_product = product as u64;
            lc.unroll_dims = lc.unroll_dims.union(lc.unroll_pinned.intersection(hardware));
        }
        // Across fabrics: a dimension's pins multiply into its one loop
        // nest, so their product must divide its extent too — each pin
        // dividing it alone is not enough.
        for d in workload.dim_ids() {
            let pins =
                levels.iter().flat_map(|lc| &lc.unroll_pins).filter(|(e, _)| *e == d.index());
            let product = pins.fold(1u128, |p, &(_, v)| p.saturating_mul(u128::from(v)));
            let dim = workload.dim(d);
            if !u128::from(dim.size()).is_multiple_of(product) {
                return Err(unsat(format!(
                    "unroll pins for `{}` multiply to {product} across fabrics, which does \
                     not divide the extent {}",
                    dim.name(),
                    dim.size()
                )));
            }
        }

        for oc in &constraints.order {
            let pos = find(&oc.level)?;
            if arch.level(LevelId(pos)).as_memory().is_none() {
                return Err(ConstraintError::NotMemory { level: oc.level.clone() });
            }
            if Some(pos) == innermost_mem {
                return Err(unsat(format!(
                    "the loop order of the innermost memory `{}` is not enumerated and \
                     cannot be constrained",
                    oc.level
                )));
            }
            if levels[pos].order.is_some() {
                return Err(unsat(format!("multiple order constraints on `{}`", oc.level)));
            }
            let mut groups = Vec::with_capacity(oc.inner.len());
            for r in &oc.inner {
                groups.push(r.resolve(workload)?);
            }
            for i in 0..groups.len() {
                for j in i + 1..groups.len() {
                    if !groups[i].is_disjoint(groups[j]) {
                        return Err(unsat(format!("overlapping order groups at `{}`", oc.level)));
                    }
                }
            }
            levels[pos].order = Some((groups, oc.exact));
        }

        for tc in &constraints.tile {
            let pos = find(&tc.level)?;
            if arch.level(LevelId(pos)).as_memory().is_none() {
                return Err(ConstraintError::NotMemory { level: tc.level.clone() });
            }
            if Some(pos) == outermost_mem {
                return Err(unsat(format!(
                    "the outermost memory `{}` always holds the full problem; its tile \
                     cannot be pinned or capped",
                    tc.level
                )));
            }
            let pins = resolve_pins(&tc.pins, workload, "tile", &tc.level)?;
            let caps = resolve_caps(&tc.caps, workload)?;
            let lc = &mut levels[pos];
            for (d, v) in pins {
                let dim = workload.dim(d);
                if v == 0 || !dim.size().is_multiple_of(v) {
                    return Err(unsat(format!(
                        "tile pin {v} for `{}` at `{}` does not divide the extent {}",
                        dim.name(),
                        tc.level,
                        dim.size()
                    )));
                }
                match lc.tile_pins.iter().find(|(e, _)| *e == d.index()) {
                    Some((_, prev)) if *prev != v => {
                        return Err(unsat(format!(
                            "conflicting tile pins for dimension `{}` at `{}`: {prev} vs {v}",
                            dim.name(),
                            tc.level
                        )));
                    }
                    Some(_) => {}
                    None => lc.tile_pins.push((d.index(), v)),
                }
            }
            for (d, v) in caps {
                if v == 0 {
                    return Err(unsat(format!(
                        "tile cap 0 for `{}` at `{}` admits no tile",
                        workload.dim(d).name(),
                        tc.level
                    )));
                }
                match lc.tile_caps.iter_mut().find(|(e, _)| *e == d.index()) {
                    Some((_, prev)) => *prev = (*prev).min(v),
                    None => lc.tile_caps.push((d.index(), v)),
                }
            }
            for &(d, pin) in &lc.tile_pins {
                if let Some(&(_, cap)) = lc.tile_caps.iter().find(|(e, _)| *e == d) {
                    if pin > cap {
                        return Err(unsat(format!(
                            "tile pin {pin} exceeds cap {cap} for `{}` at `{}`",
                            workload.dim(DimId::from_index(d)).name(),
                            tc.level
                        )));
                    }
                }
            }
        }
        // Resident tiles nest: a pin at an inner memory must divide any
        // pin — and respect any cap — of every memory above it.
        let mems: Vec<usize> = arch.memory_levels().map(|(id, _)| id.index()).collect();
        for (i, &inner) in mems.iter().enumerate() {
            for &outer in &mems[i + 1..] {
                for &(d, pv) in &levels[inner].tile_pins {
                    if let Some(&(_, ov)) = levels[outer].tile_pins.iter().find(|(e, _)| *e == d) {
                        if ov % pv != 0 {
                            return Err(unsat(format!(
                                "tile pin {pv} at `{}` does not divide pin {ov} at `{}` \
                                 for dimension `{}`",
                                arch.level(LevelId(inner)).name(),
                                arch.level(LevelId(outer)).name(),
                                workload.dim(DimId::from_index(d)).name()
                            )));
                        }
                    }
                    if let Some(&(_, cap)) = levels[outer].tile_caps.iter().find(|(e, _)| *e == d) {
                        if cap < pv {
                            return Err(unsat(format!(
                                "tile pin {pv} at `{}` exceeds cap {cap} at the outer \
                                 memory `{}` for dimension `{}`",
                                arch.level(LevelId(inner)).name(),
                                arch.level(LevelId(outer)).name(),
                                workload.dim(DimId::from_index(d)).name()
                            )));
                        }
                    }
                }
            }
        }

        for b in &constraints.bypass {
            let pos = find(&b.level)?;
            if arch.level(LevelId(pos)).as_memory().is_none() {
                return Err(ConstraintError::NotMemory { level: b.level.clone() });
            }
            let tensor = workload
                .tensor_by_name(&b.tensor)
                .ok_or_else(|| ConstraintError::UnknownTensor { name: b.tensor.clone() })?;
            if Some(pos) == outermost_mem {
                return Err(unsat(format!(
                    "tensor `{}` cannot bypass the outermost memory `{}`",
                    b.tensor, b.level
                )));
            }
            bypass.push((LevelId(pos), tensor, b.tensor.clone()));
        }

        Ok(ResolvedConstraints { levels, bypass, empty: false })
    }

    /// Checks that `mapping` honors the set: per fabric, the allow-list
    /// (pins included) and the pins; per memory, the resident-tile pins
    /// and caps, and the order groups over that level's non-degenerate
    /// loops (a loop of factor 1 runs once, so where it sits is moot).
    /// Bypass overrides are a binding concern the mapping does not
    /// record, so they are not checked here.
    ///
    /// `mapping` must be structurally valid
    /// ([`ValidationContext::validate_structure`](crate::ValidationContext::validate_structure))
    /// for the `workload` and `arch` the set was resolved against.
    ///
    /// # Errors
    ///
    /// [`ConstraintError::Violated`], naming the level, for the first
    /// violation found.
    pub fn check(
        &self,
        mapping: &Mapping,
        workload: &Workload,
        arch: &ArchSpec,
    ) -> Result<(), ConstraintError> {
        if self.empty {
            return Ok(());
        }
        let name = |d: usize| workload.dim(DimId::from_index(d)).name();
        for (pos, lc) in self.levels.iter().enumerate() {
            let violated = |reason: String| ConstraintError::Violated {
                level: arch.level(LevelId(pos)).name().to_string(),
                reason,
            };
            let factors = mapping.level(pos).factors();
            // A structurally valid mapping unrolls no reduction a fabric
            // cannot reduce, so what leaves the set leaves the allow-list.
            if lc.unroll_free.is_some() {
                let outside = (0..factors.len())
                    .find(|&d| factors[d] > 1 && !lc.unroll_dims.contains(DimId::from_index(d)));
                if let Some(d) = outside {
                    return Err(violated(format!(
                        "dimension `{}` unrolled by {} outside the allowlist",
                        name(d),
                        factors[d]
                    )));
                }
            }
            if let Some(&(d, v)) = lc.unroll_pins.iter().find(|&&(d, v)| factors[d] != v) {
                return Err(violated(format!(
                    "dimension `{}` unrolled by {}, pinned to {v}",
                    name(d),
                    factors[d]
                )));
            }
            if !lc.tile_pins.is_empty() || !lc.tile_caps.is_empty() {
                let tile = mapping.resident_tile(pos, workload.num_dims());
                if let Some(&(d, v)) = lc.tile_pins.iter().find(|&&(d, v)| tile[d] != v) {
                    return Err(violated(format!(
                        "resident tile of `{}` is {}, pinned to {v}",
                        name(d),
                        tile[d]
                    )));
                }
                if let Some(&(d, v)) = lc.tile_caps.iter().find(|&&(d, v)| tile[d] > v) {
                    return Err(violated(format!(
                        "resident tile of `{}` is {}, capped at {v}",
                        name(d),
                        tile[d]
                    )));
                }
            }
            if let Some((groups, exact)) = &lc.order {
                let t =
                    mapping.level(pos).as_temporal().expect("order constraints sit at memories");
                let active: DimSet =
                    t.order.iter().copied().filter(|d| t.factors[d.index()] > 1).collect();
                let consumed =
                    inner_groups(&t.order, groups, active).map_err(|(loops, group)| {
                        violated(format!(
                            "loops {loops} occupy the positions constrained to {group}"
                        ))
                    })?;
                if *exact && consumed != active.len() {
                    return Err(violated(format!(
                        "{} non-degenerate loops outside the exact order groups",
                        active.len() - consumed
                    )));
                }
            }
        }
        Ok(())
    }
}

/// The order-group rule. Reads `order` (innermost first) over the
/// dimensions in `scope`, skipping the rest: the `groups` must be its
/// innermost run, in sequence, each group's dimensions in any order
/// within its stretch. Returns how many loops the groups take up, or the
/// loops that stand where a group should and that group.
///
/// The search asks it over the dimensions a stage still has in play, the
/// check over the loops of factor above 1.
///
/// # Errors
///
/// `(loops, group)` for the first group whose stretch holds other loops.
pub fn inner_groups(
    order: &[DimId],
    groups: &[DimSet],
    scope: DimSet,
) -> Result<usize, (DimSet, DimSet)> {
    let mut seq = order.iter().copied().filter(|&d| scope.contains(d));
    let mut taken = 0;
    for g in groups {
        let group = g.intersection(scope);
        let loops: DimSet = seq.by_ref().take(group.len()).collect();
        if loops != group {
            return Err((loops, group));
        }
        taken += group.len();
    }
    Ok(taken)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MappingLevel, ValidationContext};
    use sunstone_arch::{presets, Binding};

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
    fn default_is_empty() {
        assert!(MappingConstraints::default().is_empty());
        assert!(!MappingConstraints::new().bypass("L2", "weight").is_empty());
    }

    #[test]
    fn named_ref_resolves_to_singleton() {
        let w = conv1d();
        let set = DimRef::named("C").resolve(&w).unwrap();
        assert_eq!(set.len(), 1);
        assert!(set.contains(w.dim_by_name("C").unwrap()));
        assert_eq!(
            DimRef::named("Z").resolve(&w).unwrap_err(),
            ConstraintError::UnknownDim { name: "Z".into() }
        );
    }

    #[test]
    fn role_ref_resolves_to_role_set() {
        let w = conv1d();
        let red = DimRef::role(DimRole::Reduction).resolve(&w).unwrap();
        assert_eq!(red, w.reduction_dims());
        let par = DimRef::role(DimRole::Parallel).resolve(&w).unwrap();
        assert_eq!(par.union(red), DimSet::first_n(4));
        assert!(par.is_disjoint(red));
    }

    #[test]
    fn conflicting_pins_are_unsatisfiable() {
        let w = conv1d();
        let pins = vec![(DimRef::named("C"), 2), (DimRef::named("C"), 4)];
        let err = resolve_pins(&pins, &w, "unroll", "grid").unwrap_err();
        assert!(matches!(err, ConstraintError::Unsatisfiable { .. }), "{err:?}");
        // Agreeing duplicates collapse.
        let pins = vec![(DimRef::named("C"), 2), (DimRef::named("C"), 2)];
        assert_eq!(resolve_pins(&pins, &w, "unroll", "grid").unwrap().len(), 1);
    }

    #[test]
    fn builder_helpers_accumulate() {
        let c = MappingConstraints::new()
            .allow_unroll("grid", [DimRef::named("C"), DimRef::named("K")])
            .pin_unroll("grid", DimRef::named("C"), 4)
            .order_inner("L2", [DimRef::role(DimRole::Reduction)])
            .pin_tile("L1", DimRef::named("P"), 7)
            .cap_tile("L1", DimRef::named("K"), 2)
            .bypass("L2", "weight");
        assert_eq!(c.unroll.len(), 1, "pin merges into the allow entry");
        assert_eq!(c.unroll[0].pins.len(), 1);
        assert_eq!(c.order.len(), 1);
        assert_eq!(c.tile.len(), 1, "pin and cap merge per level");
        assert_eq!(c.tile[0].pins.len(), 1);
        assert_eq!(c.tile[0].caps.len(), 1);
        assert_eq!(c.bypass.len(), 1);
    }

    #[test]
    fn errors_display_nonempty() {
        let errs = [
            ConstraintError::UnknownDim { name: "Z".into() },
            ConstraintError::UnknownLevel { name: "L9".into() },
            ConstraintError::NotSpatial { level: "L1".into() },
            ConstraintError::NotMemory { level: "grid".into() },
            ConstraintError::UnknownTensor { name: "bias".into() },
            ConstraintError::Unsatisfiable { reason: "because".into() },
            ConstraintError::Violated { level: "grid".into(), reason: "because".into() },
        ];
        for e in errs {
            assert!(!e.to_string().is_empty());
        }
    }

    #[test]
    fn empty_resolves_empty() {
        let w = conv1d();
        let arch = presets::conventional();
        let r = ResolvedConstraints::resolve(&MappingConstraints::default(), &w, &arch).unwrap();
        assert!(r.is_empty());
        assert!(r.bypass.is_empty());
    }

    #[test]
    fn unknown_names_are_typed_errors() {
        let w = conv1d();
        let arch = presets::conventional();
        for (c, want) in [
            (
                MappingConstraints::new().allow_unroll("nope", [DimRef::named("C")]),
                ConstraintError::UnknownLevel { name: "nope".into() },
            ),
            (
                MappingConstraints::new().allow_unroll("pe_grid", [DimRef::named("Z")]),
                ConstraintError::UnknownDim { name: "Z".into() },
            ),
            (
                MappingConstraints::new().bypass("L1", "bias"),
                ConstraintError::UnknownTensor { name: "bias".into() },
            ),
        ] {
            assert_eq!(ResolvedConstraints::resolve(&c, &w, &arch).unwrap_err(), want);
        }
    }

    #[test]
    fn wrong_level_kinds_are_rejected() {
        let w = conv1d();
        let arch = presets::conventional();
        for (c, want) in [
            (
                MappingConstraints::new().allow_unroll("L1", [DimRef::named("C")]),
                ConstraintError::NotSpatial { level: "L1".into() },
            ),
            (
                MappingConstraints::new().pin_tile("pe_grid", DimRef::named("C"), 2),
                ConstraintError::NotMemory { level: "pe_grid".into() },
            ),
            (
                MappingConstraints::new().order_inner("pe_grid", [DimRef::named("C")]),
                ConstraintError::NotMemory { level: "pe_grid".into() },
            ),
        ] {
            assert_eq!(ResolvedConstraints::resolve(&c, &w, &arch).unwrap_err(), want);
        }
    }

    #[test]
    fn non_dividing_and_oversubscribed_pins_are_unsatisfiable() {
        let w = conv1d();
        let arch = presets::conventional();
        let nondiv = MappingConstraints::new().pin_unroll("pe_grid", DimRef::named("C"), 3);
        assert!(ResolvedConstraints::resolve(&nondiv, &w, &arch).is_err());
        let conflict = MappingConstraints::new()
            .pin_unroll("pe_grid", DimRef::named("C"), 2)
            .pin_unroll("pe_grid", DimRef::named("C"), 4);
        assert!(ResolvedConstraints::resolve(&conflict, &w, &arch).is_err());
    }

    #[test]
    fn innermost_order_and_outermost_tile_are_rejected() {
        let w = conv1d();
        let arch = presets::conventional();
        let inner = arch.memory_levels().next().unwrap().1.name.clone();
        let outer = arch.memory_levels().last().unwrap().1.name.clone();
        let c = MappingConstraints::new().order_inner(inner, [DimRef::named("C")]);
        assert!(ResolvedConstraints::resolve(&c, &w, &arch).is_err());
        let c = MappingConstraints::new().pin_tile(outer.clone(), DimRef::named("C"), 2);
        assert!(ResolvedConstraints::resolve(&c, &w, &arch).is_err());
        let c = MappingConstraints::new().bypass(outer, "weight");
        assert!(ResolvedConstraints::resolve(&c, &w, &arch).is_err());
    }

    #[test]
    fn valid_set_resolves_per_position() {
        let w = conv1d();
        let arch = presets::conventional();
        let c = w.dim_by_name("C").unwrap();
        let k = w.dim_by_name("K").unwrap();
        let set = MappingConstraints::new()
            .allow_unroll("pe_grid", [DimRef::named("C"), DimRef::named("K")])
            .pin_unroll("pe_grid", DimRef::named("C"), 4)
            .cap_tile("L1", DimRef::named("P"), 7);
        let r = ResolvedConstraints::resolve(&set, &w, &arch).unwrap();
        assert!(!r.is_empty());
        let grid =
            (0..arch.num_levels()).find(|&p| arch.level(LevelId(p)).name() == "pe_grid").unwrap();
        let lc = r.at(grid);
        assert_eq!(lc.unroll_dims, DimSet::EMPTY.with(c).with(k));
        assert_eq!(lc.unroll_free, Some(DimSet::first_n(w.num_dims())));
        assert_eq!(lc.unroll_pins, vec![(c.index(), 4)]);
        assert_eq!(lc.unroll_pin_product, 4);
        let l1 = (0..arch.num_levels()).find(|&p| arch.level(LevelId(p)).name() == "L1").unwrap();
        assert_eq!(r.at(l1).tile_caps, vec![(w.dim_by_name("P").unwrap().index(), 7)]);
    }

    /// The fabric rule, resolved for every fabric: the hardware's set on
    /// the empty fast path, a non-reducing fabric's without the
    /// reductions, narrowed by an allow-list with the pins put back, and
    /// never a reduction the fabric cannot reduce, even pinned to 1.
    #[test]
    fn every_fabric_resolves_the_dimensions_it_may_unroll() {
        let w = conv1d();
        let d = |n: &str| w.dim_by_name(n).unwrap();
        let set = |ns: &[&str]| ns.iter().map(|n| d(n)).collect::<DimSet>();
        let reducing = presets::conventional();
        let levels = reducing.levels().iter().cloned().map(|l| match l {
            sunstone_arch::Level::Spatial(s) => {
                sunstone_arch::Level::Spatial(s.without_reduction())
            }
            other => other,
        });
        let arch = ArchSpec::new(
            "noreduce",
            levels.collect(),
            reducing.mac_energy_pj(),
            reducing.ref_bits(),
        );
        // conventional: L1, pe_grid, L2, DRAM.
        let (l1, grid) = (0, 1);
        let resolve = |c: &MappingConstraints, arch: &ArchSpec, pos: usize| {
            ResolvedConstraints::resolve(c, &w, arch).unwrap().at(pos).clone()
        };
        let empty = MappingConstraints::new();
        assert_eq!(resolve(&empty, &reducing, grid).unroll_dims, DimSet::first_n(4));
        assert_eq!(resolve(&empty, &reducing, l1).unroll_dims, DimSet::EMPTY);
        let lc = resolve(&empty, &arch, grid);
        assert_eq!((lc.unroll_dims, lc.unroll_free), (w.dims_with_role(DimRole::Parallel), None));
        let c = MappingConstraints::new()
            .allow_unroll("pe_grid", [DimRef::named("P"), DimRef::named("C")])
            .pin_unroll("pe_grid", DimRef::named("K"), 2)
            .pin_unroll("pe_grid", DimRef::named("R"), 1);
        let lc = resolve(&c, &arch, grid);
        assert_eq!(lc.unroll_dims, set(&["K", "P"]));
        assert_eq!(lc.unroll_free, Some(set(&["K", "P"])));
        let lc = resolve(&c, &reducing, grid);
        assert_eq!(lc.unroll_dims, set(&["K", "P", "C", "R"]));
        assert_eq!(lc.unroll_free, Some(DimSet::first_n(4)));
    }

    /// `conv1d` on `conventional` (L1, pe_grid, L2, DRAM) with each
    /// `(position, dimension, factor)` taken out of DRAM, and the L2 loop
    /// order (innermost first) when given; structurally valid.
    fn mapping(moves: &[(usize, &str, u64)], l2_order: Option<[&str; 4]>) -> Mapping {
        let (w, arch) = (conv1d(), presets::conventional());
        let mut m = Mapping::streaming(&w, &arch);
        for &(pos, dim, f) in moves {
            let d = w.dim_by_name(dim).unwrap().index();
            m.levels_mut()[pos].factors_mut()[d] *= f;
            m.levels_mut()[3].factors_mut()[d] /= f;
        }
        if let (Some(names), MappingLevel::Temporal(t)) = (l2_order, &mut m.levels_mut()[2]) {
            t.order = names.iter().map(|n| w.dim_by_name(n).unwrap()).collect();
        }
        let binding = Binding::resolve(&arch, &w).unwrap();
        ValidationContext::new(&w, &arch, &binding).validate(&m).unwrap();
        m
    }

    fn check(set: &MappingConstraints, m: &Mapping) -> Result<(), ConstraintError> {
        let (w, arch) = (conv1d(), presets::conventional());
        ResolvedConstraints::resolve(set, &w, &arch).unwrap().check(m, &w, &arch)
    }

    fn assert_violates(set: &MappingConstraints, m: &Mapping, level: &str) {
        match check(set, m) {
            Err(ConstraintError::Violated { level: l, .. }) if l == level => {}
            other => panic!("expected a violation at `{level}`, got {other:?}"),
        }
    }

    /// One violating and one honoring hand-built mapping per kind of
    /// constraint: unroll allow-list, unroll pin, tile pin, tile cap,
    /// inner order and exact order.
    #[test]
    fn the_check_rejects_each_kind_of_violation_and_accepts_its_honoring_mapping() {
        let named = DimRef::named;
        let cases = [
            (
                MappingConstraints::new().allow_unroll("pe_grid", [named("C")]),
                "pe_grid",
                mapping(&[(1, "K", 4)], None),
                mapping(&[(1, "C", 4)], None),
            ),
            (
                MappingConstraints::new().pin_unroll("pe_grid", named("K"), 4),
                "pe_grid",
                mapping(&[(1, "K", 2), (1, "P", 7)], None),
                mapping(&[(1, "K", 4), (1, "P", 7)], None),
            ),
            (
                // A pin in an entry of its own is allowed by the other
                // entry's allow-list: one set, however it is spelled.
                MappingConstraints::new()
                    .pin_unroll("pe_grid", named("K"), 4)
                    .allow_unroll("pe_grid", [named("C")]),
                "pe_grid",
                mapping(&[(1, "K", 4), (1, "P", 7)], None),
                mapping(&[(1, "K", 4), (1, "C", 4)], None),
            ),
            (
                // The resident tile at L2 spans L1 and the fabric below it.
                MappingConstraints::new().pin_tile("L2", named("P"), 14),
                "L2",
                mapping(&[(0, "P", 2)], None),
                mapping(&[(0, "P", 2), (2, "P", 7)], None),
            ),
            (
                MappingConstraints::new().cap_tile("L1", named("K"), 2),
                "L1",
                mapping(&[(0, "K", 4)], None),
                mapping(&[(0, "K", 2)], None),
            ),
            (
                MappingConstraints::new().order_inner("L2", [named("C")]),
                "L2",
                mapping(&[(2, "K", 2), (2, "C", 2)], Some(["K", "C", "P", "R"])),
                mapping(&[(2, "K", 2), (2, "C", 2)], Some(["C", "K", "P", "R"])),
            ),
            (
                MappingConstraints::new().order_exact("L2", [named("C")]),
                "L2",
                mapping(&[(2, "K", 2), (2, "C", 2)], Some(["C", "K", "P", "R"])),
                mapping(&[(2, "C", 2)], Some(["K", "C", "P", "R"])),
            ),
        ];
        for (set, level, violating, honoring) in &cases {
            assert_violates(set, violating, level);
            assert_eq!(check(set, honoring), Ok(()), "{set:?}");
        }
    }

    /// A loop of factor 1 at the constrained level runs once: wherever it
    /// sits in the recorded order, the groups are read without it.
    #[test]
    fn a_degenerate_loop_is_ignored_wherever_it_sits() {
        let set = MappingConstraints::new().order_inner("L2", [DimRef::named("C")]);
        for order in
            [["P", "C", "K", "R"], ["C", "P", "K", "R"], ["C", "K", "P", "R"], ["R", "P", "C", "K"]]
        {
            let m = mapping(&[(2, "K", 2), (2, "C", 2)], Some(order));
            assert_eq!(check(&set, &m), Ok(()), "{order:?}");
        }
        let m = mapping(&[(2, "K", 2), (2, "C", 2)], Some(["P", "K", "R", "C"]));
        assert_violates(&set, &m, "L2");
    }

    #[test]
    fn inner_groups_reads_the_order_over_its_scope() {
        let w = conv1d();
        let d = |n: &str| w.dim_by_name(n).unwrap();
        let order = [d("K"), d("P"), d("C"), d("R")];
        let set = |ds: &[&str]| ds.iter().map(|n| d(n)).collect::<DimSet>();
        let groups = [set(&["C"]), set(&["K", "R"])];
        // P out of scope: K stands where C must.
        assert!(inner_groups(&order, &groups, set(&["K", "C", "R"])).is_err());
        // K out of scope too: C, then R.
        assert_eq!(inner_groups(&order, &groups, set(&["C", "R"])), Ok(2));
        // A group empty over the scope takes nothing.
        assert_eq!(inner_groups(&order, &groups, set(&["P"])), Ok(0));
        assert_eq!(
            inner_groups(&order, &[set(&["C", "P"])], set(&["K", "P", "C"])),
            Err((set(&["K", "P"]), set(&["C", "P"])))
        );
    }
}

//! Tensor descriptions.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::{DimSet, IndexExpr};

/// Identifier of a tensor within one [`Workload`](crate::Workload).
///
/// Dense index into the workload's tensor list, in declaration order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct TensorId(pub(crate) u8);

impl TensorId {
    /// Maximum number of tensors a single workload may declare (ids are
    /// stored as `u8`).
    pub const MAX_TENSORS: usize = 256;

    /// Creates a `TensorId` from a raw index (mostly useful in tests).
    ///
    /// # Panics
    ///
    /// Panics if `index >= TensorId::MAX_TENSORS`. This is a true
    /// invariant, not input validation:
    /// [`WorkloadBuilder::build`](crate::WorkloadBuilder) rejects
    /// over-capacity declarations with a typed error before any
    /// out-of-range id can be constructed.
    pub fn from_index(index: usize) -> Self {
        assert!(index < Self::MAX_TENSORS, "tensor index {index} out of range");
        TensorId(index as u8)
    }

    /// Returns the dense index of this tensor.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Whether a tensor is a read-only operand or the (accumulated) result.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TensorKind {
    /// A read-only input operand.
    Input,
    /// The output tensor, accumulated over the workload's reduction
    /// dimensions. Exactly one per workload.
    Output,
}

/// A tensor participating in the computation, described by one affine
/// [`IndexExpr`] per coordinate.
///
/// For the paper's 1-D convolution, `ifmap` is `[c, p + r]`: a 2-D tensor
/// whose first coordinate is the input channel and whose second coordinate
/// slides over the feature map.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TensorDesc {
    name: String,
    kind: TensorKind,
    indices: Vec<IndexExpr>,
    /// Bits per element, used by the cost model for word-size scaling.
    bits: u32,
    /// The union of every coordinate's dimensions, taken once.
    indexing: DimSet,
    /// Every coordinate's terms in one table, coordinate after
    /// coordinate: what [`footprint`](Self::footprint) walks.
    terms: Vec<FlatTerm>,
}

/// One term of a coordinate in [`TensorDesc`]'s flat term table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct FlatTerm {
    dim: usize,
    stride: u64,
    /// The coordinate's last term: its extent is complete here.
    closes: bool,
}

impl TensorDesc {
    pub(crate) fn new(
        name: impl Into<String>,
        kind: TensorKind,
        indices: Vec<IndexExpr>,
        bits: u32,
    ) -> Self {
        let indexing = indices.iter().fold(DimSet::EMPTY, |s, e| s.union(e.dims()));
        let mut terms = Vec::new();
        for e in &indices {
            let last = e.terms().len().wrapping_sub(1);
            terms.extend(e.terms().iter().enumerate().map(|(k, t)| FlatTerm {
                dim: t.dim.index(),
                stride: t.stride,
                closes: k == last,
            }));
        }
        TensorDesc { name: name.into(), kind, indices, bits, indexing, terms }
    }

    /// The tensor's name, e.g. `"ifmap"`.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Whether this tensor is an input or the output.
    pub fn kind(&self) -> TensorKind {
        self.kind
    }

    /// Returns `true` if this is the output tensor.
    pub fn is_output(&self) -> bool {
        self.kind == TensorKind::Output
    }

    /// The index expression of each coordinate.
    pub fn indices(&self) -> &[IndexExpr] {
        &self.indices
    }

    /// Number of coordinates (the tensor's order/rank).
    pub fn rank(&self) -> usize {
        self.indices.len()
    }

    /// Bits per element.
    pub fn bits(&self) -> u32 {
        self.bits
    }

    /// The set of dimensions that appear in any coordinate — the tensor's
    /// *indexing dimensions* (Table III).
    pub fn indexing_dims(&self) -> DimSet {
        self.indexing
    }

    /// The number of elements of this tensor touched by a tile whose
    /// per-dimension sizes are given by `tile` (indexed by
    /// [`DimId::index`](crate::DimId::index)).
    ///
    /// This is the product over coordinates of
    /// [`IndexExpr::extent_of`], i.e. exactly the footprint terms of the
    /// paper's Equations 1–3 (e.g. `(P_L1 + R − 1) × C_L1` for `ifmap`).
    ///
    /// The product saturates instead of wrapping: tiles derive from
    /// user-supplied dimension extents, so degenerate inputs (2^40-sized
    /// dims) can overflow `u64`, and saturation is the conservative
    /// direction — every consumer compares footprints against bounded
    /// capacities, so a saturated footprint can only cause a tile to be
    /// rejected, never admitted.
    ///
    /// One walk of the flat term table: each coordinate's extent is summed
    /// term by term as [`IndexExpr::extent`] sums it and multiplied in when
    /// the coordinate closes, so the result is the fold of the coordinates'
    /// extents, to the bit. A zero tile extent empties the coordinate, and
    /// with it the footprint.
    pub fn footprint(&self, tile: &[u64]) -> u64 {
        let (mut acc, mut extent) = (1u64, 1u64);
        for t in &self.terms {
            let e = tile[t.dim];
            if e == 0 {
                return 0;
            }
            extent = extent.saturating_add(t.stride.saturating_mul(e - 1));
            if t.closes {
                acc = acc.saturating_mul(extent);
                extent = 1;
            }
        }
        acc
    }
}

impl fmt::Display for TensorDesc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[", self.name)?;
        for (i, e) in self.indices.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{e}")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DimId;

    fn d(i: usize) -> DimId {
        DimId::from_index(i)
    }

    fn ifmap() -> TensorDesc {
        // ifmap[c, p + r] with dims: 0=K, 1=C, 2=P, 3=R
        TensorDesc::new("ifmap", TensorKind::Input, vec![d(1).expr(), d(2) + d(3)], 16)
    }

    #[test]
    fn indexing_dims_union_all_coordinates() {
        let t = ifmap();
        let idx = t.indexing_dims();
        assert!(idx.contains(d(1)) && idx.contains(d(2)) && idx.contains(d(3)));
        assert!(!idx.contains(d(0)), "K does not index ifmap");
    }

    #[test]
    fn footprint_matches_paper_equation() {
        let t = ifmap();
        // tile: K=2, C=4, P=5, R=3 → footprint = C * (P + R - 1) = 4 * 7.
        assert_eq!(t.footprint(&[2, 4, 5, 3]), 4 * 7);
    }

    /// The flat term table prices every tile as the fold of the
    /// coordinates' [`IndexExpr::extent_of`] does, bit for bit — on random
    /// tiles with zero extents and 2⁴⁰-sized dimensions, where extents and
    /// products saturate — and the cached indexing set is the fold of the
    /// coordinates' [`IndexExpr::dims`].
    #[test]
    fn flat_footprint_is_the_fold_of_coordinate_extents() {
        let tensors = [
            ifmap(),
            // conv ifmap with strides and a coordinate of three terms:
            // dims 0=N, 1=C, 2=P, 3=Q, 4=R, 5=S
            TensorDesc::new(
                "strided",
                TensorKind::Input,
                vec![
                    d(0).expr(),
                    d(1).expr(),
                    d(2).strided(2) + d(4),
                    d(3).strided(3) + d(5) + d(1),
                ],
                8,
            ),
            TensorDesc::new(
                "out",
                TensorKind::Output,
                vec![d(0).expr(), d(2).expr(), d(3).expr()],
                24,
            ),
            TensorDesc::new("scalar", TensorKind::Input, Vec::new(), 8),
        ];
        let mut state = 0x0123_4567_89ab_cdefu64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let (mut zeros, mut saturated) = (0, 0);
        for _ in 0..20_000 {
            let tile: Vec<u64> = (0..6)
                .map(|_| match next() % 8 {
                    0 => 0,
                    1 => 1 << 40,
                    2 => (1 << 40) + next() % 1000,
                    3 => u64::MAX - next() % 4,
                    _ => 1 + next() % 64,
                })
                .collect();
            for t in &tensors {
                let fold =
                    t.indices().iter().fold(1u64, |acc, e| acc.saturating_mul(e.extent_of(&tile)));
                assert_eq!(t.footprint(&tile), fold, "{t} over {tile:?}");
                zeros += usize::from(fold == 0);
                saturated += usize::from(fold == u64::MAX);
            }
        }
        assert!(zeros > 0 && saturated > 0, "{zeros} empty, {saturated} saturated footprints");
        for t in &tensors {
            let fold = t.indices().iter().fold(DimSet::EMPTY, |s, e| s.union(e.dims()));
            assert_eq!(t.indexing_dims(), fold, "{t}");
        }
    }

    #[test]
    fn rank_and_kind_accessors() {
        let t = ifmap();
        assert_eq!(t.rank(), 2);
        assert_eq!(t.kind(), TensorKind::Input);
        assert!(!t.is_output());
        assert_eq!(t.bits(), 16);
    }

    #[test]
    fn display_shows_structure() {
        assert_eq!(ifmap().to_string(), "ifmap[d1, d2+d3]");
    }
}

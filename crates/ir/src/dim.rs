//! Problem dimensions and compact dimension sets.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::IndexExpr;

/// Identifier of a problem dimension within one [`Workload`].
///
/// `DimId`s are dense indices handed out by [`WorkloadBuilder::dim`] in
/// declaration order, so they can be used to index per-dimension vectors
/// (tiling factors, unroll factors, ...).
///
/// [`Workload`]: crate::Workload
/// [`WorkloadBuilder::dim`]: crate::WorkloadBuilder::dim
///
/// # Examples
///
/// ```
/// use sunstone_ir::Workload;
///
/// let mut b = Workload::builder("matmul");
/// let m = b.dim("M", 64);
/// assert_eq!(m.index(), 0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct DimId(pub(crate) u8);

impl DimId {
    /// Maximum number of dimensions a single workload may declare.
    ///
    /// Dimension sets are stored as 64-bit masks; real tensor-algebra
    /// workloads use at most a handful of dimensions (seven for 2-D
    /// convolution), so this bound is generous.
    pub const MAX_DIMS: usize = 64;

    /// Creates a `DimId` from a raw index.
    ///
    /// Mostly useful in tests; normal code receives ids from
    /// [`WorkloadBuilder::dim`](crate::WorkloadBuilder::dim).
    ///
    /// # Panics
    ///
    /// Panics if `index >= DimId::MAX_DIMS`. This is a true invariant,
    /// not input validation:
    /// [`WorkloadBuilder::build`](crate::WorkloadBuilder) rejects
    /// over-capacity declarations with a typed `TooManyDims` error before
    /// any out-of-range id can be constructed.
    pub fn from_index(index: usize) -> Self {
        assert!(index < Self::MAX_DIMS, "dimension index {index} out of range");
        DimId(index as u8)
    }

    /// Returns the dense index of this dimension.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Returns the single-term index expression `self` (stride 1).
    ///
    /// Sugar for describing tensors: `b.input("w", [k.expr(), r.expr()])`.
    pub fn expr(self) -> IndexExpr {
        IndexExpr::from(self)
    }

    /// Returns an index expression `stride * self`, e.g. a strided
    /// convolution's `2·p` term.
    pub fn strided(self, stride: u64) -> IndexExpr {
        IndexExpr::term(self, stride)
    }
}

/// The algebraic role a dimension plays with respect to the output tensor.
///
/// Roles let architecture-independent constraint and dataflow descriptions
/// ("unroll only parallel dimensions", "keep reduction loops innermost")
/// resolve to concrete [`DimSet`]s per workload via
/// [`Workload::dims_with_role`](crate::Workload::dims_with_role) — the same
/// dataflow template then applies to convolution (`C`,`R`,`S` reductions)
/// and matmul (`K` reduction) alike.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DimRole {
    /// Indexes the output tensor: iterating it visits independent output
    /// elements (K, P, Q, N in conv; M, N in matmul).
    Parallel,
    /// Does not index the output: the output is accumulated over it
    /// (C, R, S in conv; K in matmul).
    Reduction,
}

/// A named, bounded problem dimension (one loop of the nested-loop program).
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Dim {
    name: String,
    size: u64,
}

impl Dim {
    pub(crate) fn new(name: impl Into<String>, size: u64) -> Self {
        Dim { name: name.into(), size }
    }

    /// The dimension's name, e.g. `"K"`.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The loop bound: indices run over `0..size`.
    pub fn size(&self) -> u64 {
        self.size
    }
}

/// All divisors of `n` in increasing order — the tile extents a dimension
/// of extent `n` can take under exact tiling. Trial division up to √n.
pub fn sorted_divisors(n: u64) -> Vec<u64> {
    let mut divs = Vec::new();
    let mut i = 1u64;
    while i <= n / i {
        if n.is_multiple_of(i) {
            divs.push(i);
            if i != n / i {
                divs.push(n / i);
            }
        }
        i += 1;
    }
    divs.sort_unstable();
    divs
}

impl fmt::Display for Dim {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.name, self.size)
    }
}

/// A set of dimensions, stored as a 64-bit mask.
///
/// Used throughout the scheduler for indexing/non-indexing dimension sets
/// (Table III of the paper) and for pruning decisions.
///
/// # Examples
///
/// ```
/// use sunstone_ir::{DimId, DimSet};
///
/// let a = DimId::from_index(0);
/// let b = DimId::from_index(3);
/// let set: DimSet = [a, b].into_iter().collect();
/// assert!(set.contains(a));
/// assert_eq!(set.len(), 2);
/// assert_eq!(set.iter().collect::<Vec<_>>(), vec![a, b]);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct DimSet(u64);

impl DimSet {
    /// The empty set.
    pub const EMPTY: DimSet = DimSet(0);

    /// Creates the empty set (same as [`DimSet::EMPTY`]).
    pub fn new() -> Self {
        Self::EMPTY
    }

    /// Creates a set containing the first `n` dimensions.
    ///
    /// # Panics
    ///
    /// Panics if `n > DimId::MAX_DIMS`.
    pub fn first_n(n: usize) -> Self {
        assert!(n <= DimId::MAX_DIMS);
        if n == 64 {
            DimSet(u64::MAX)
        } else {
            DimSet((1u64 << n) - 1)
        }
    }

    /// Returns `true` if `d` is in the set.
    pub fn contains(self, d: DimId) -> bool {
        self.0 & (1 << d.0) != 0
    }

    /// Inserts `d`; returns `true` if it was newly added.
    pub fn insert(&mut self, d: DimId) -> bool {
        let added = !self.contains(d);
        self.0 |= 1 << d.0;
        added
    }

    /// Removes `d`; returns `true` if it was present.
    pub fn remove(&mut self, d: DimId) -> bool {
        let present = self.contains(d);
        self.0 &= !(1 << d.0);
        present
    }

    /// Returns the set with `d` added.
    #[must_use]
    pub fn with(mut self, d: DimId) -> Self {
        self.insert(d);
        self
    }

    /// Returns the set with `d` removed.
    #[must_use]
    pub fn without(mut self, d: DimId) -> Self {
        self.remove(d);
        self
    }

    /// Number of dimensions in the set.
    pub fn len(self) -> usize {
        self.0.count_ones() as usize
    }

    /// Returns `true` if the set is empty.
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Set union.
    #[must_use]
    pub fn union(self, other: Self) -> Self {
        DimSet(self.0 | other.0)
    }

    /// Set intersection.
    #[must_use]
    pub fn intersection(self, other: Self) -> Self {
        DimSet(self.0 & other.0)
    }

    /// Set difference (`self \ other`).
    #[must_use]
    pub fn difference(self, other: Self) -> Self {
        DimSet(self.0 & !other.0)
    }

    /// Returns `true` if every member of `self` is in `other`.
    pub fn is_subset(self, other: Self) -> bool {
        self.0 & !other.0 == 0
    }

    /// Returns `true` if the two sets share no members.
    pub fn is_disjoint(self, other: Self) -> bool {
        self.0 & other.0 == 0
    }

    /// Iterates over the members in increasing index order.
    pub fn iter(self) -> DimSetIter {
        DimSetIter(self.0)
    }
}

impl FromIterator<DimId> for DimSet {
    fn from_iter<I: IntoIterator<Item = DimId>>(iter: I) -> Self {
        let mut s = DimSet::EMPTY;
        for d in iter {
            s.insert(d);
        }
        s
    }
}

impl Extend<DimId> for DimSet {
    fn extend<I: IntoIterator<Item = DimId>>(&mut self, iter: I) {
        for d in iter {
            self.insert(d);
        }
    }
}

impl IntoIterator for DimSet {
    type Item = DimId;
    type IntoIter = DimSetIter;

    fn into_iter(self) -> DimSetIter {
        self.iter()
    }
}

impl fmt::Display for DimSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, d) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{}", d.index())?;
        }
        write!(f, "}}")
    }
}

/// Iterator over the members of a [`DimSet`], produced by [`DimSet::iter`].
#[derive(Debug, Clone)]
pub struct DimSetIter(u64);

impl Iterator for DimSetIter {
    type Item = DimId;

    fn next(&mut self) -> Option<DimId> {
        if self.0 == 0 {
            None
        } else {
            let i = self.0.trailing_zeros() as u8;
            self.0 &= self.0 - 1;
            Some(DimId(i))
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.0.count_ones() as usize;
        (n, Some(n))
    }
}

impl ExactSizeIterator for DimSetIter {}

#[cfg(test)]
mod tests {
    use super::*;

    fn d(i: usize) -> DimId {
        DimId::from_index(i)
    }

    #[test]
    fn empty_set_has_no_members() {
        let s = DimSet::new();
        assert!(s.is_empty());
        assert_eq!(s.len(), 0);
        assert!(!s.contains(d(0)));
        assert_eq!(s.iter().count(), 0);
    }

    #[test]
    fn insert_and_remove_round_trip() {
        let mut s = DimSet::new();
        assert!(s.insert(d(5)));
        assert!(!s.insert(d(5)), "double insert reports no change");
        assert!(s.contains(d(5)));
        assert!(s.remove(d(5)));
        assert!(!s.remove(d(5)), "double remove reports no change");
        assert!(s.is_empty());
    }

    #[test]
    fn set_algebra() {
        let a: DimSet = [d(0), d(1), d(2)].into_iter().collect();
        let b: DimSet = [d(2), d(3)].into_iter().collect();
        assert_eq!(a.union(b), [d(0), d(1), d(2), d(3)].into_iter().collect());
        assert_eq!(a.intersection(b), [d(2)].into_iter().collect());
        assert_eq!(a.difference(b), [d(0), d(1)].into_iter().collect());
        assert!(a.intersection(b).is_subset(a));
        assert!(!a.is_disjoint(b));
        assert!(a.difference(b).is_disjoint(b));
    }

    #[test]
    fn first_n_covers_prefix() {
        let s = DimSet::first_n(3);
        assert_eq!(s.len(), 3);
        assert!(s.contains(d(0)) && s.contains(d(2)));
        assert!(!s.contains(d(3)));
        assert_eq!(DimSet::first_n(64).len(), 64);
    }

    #[test]
    fn iterates_in_index_order() {
        let s: DimSet = [d(7), d(1), d(40)].into_iter().collect();
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![d(1), d(7), d(40)]);
        assert_eq!(s.iter().len(), 3);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn dim_id_bounds_checked() {
        let _ = DimId::from_index(64);
    }

    #[test]
    fn display_formats() {
        let s: DimSet = [d(0), d(2)].into_iter().collect();
        assert_eq!(s.to_string(), "{0,2}");
        assert_eq!(Dim::new("K", 4).to_string(), "K:4");
    }
}

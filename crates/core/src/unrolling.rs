//! Spatial-unrolling candidate generation (Section III-B of the paper).
//!
//! Given a parallel level between memories X−1 and X, the **Spatial
//! Unrolling Principle** rejects unroll dimensions that would spatially
//! reuse the operand already temporally reused by the ordering at X — its
//! accesses are already optimized; parallel hardware should amplify the
//! reuse of the *other* tensors. The remaining dimensions are unrolled to
//! maximal, high-utilization combinations.

use std::borrow::Cow;

use sunstone_ir::{DimSet, DimVec};

use crate::factors::DivisorLadders;
use crate::lattice;

/// Result of an unrolling enumeration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnrollingOutcome {
    /// Surviving unroll-factor vectors (one entry per workload dimension).
    pub unrollings: Vec<DimVec>,
    /// Number of combinations explored (for search-space statistics):
    /// every feasible combination, the identity included — computed, not
    /// walked (see [`enumerate_unrollings`]).
    pub explored: usize,
    /// Calls of `fits` the enumeration made.
    pub probes: usize,
}

/// Enumerates unroll-factor vectors for one spatial level.
///
/// * `quota` — per-dimension budget (remaining problem quotient); factors
///   divide it.
/// * `allowed` — dimensions permitted by the Unrolling Principle and by
///   the fabric's reduction capability.
/// * `units` — fabric size; the factor product may not exceed it.
/// * `fits` — additional predicate over the unroll vector (e.g. shared
///   child-memory capacity). It must be monotone: if a vector fits, every
///   vector it divides fits. The maximal unrollings are found by bisecting
///   along the lattice, which trusts that.
/// * `min_utilization` — candidates below this busy fraction are dropped
///   unless nothing reaches it ("high throughput" constraint).
/// * `maximal_only` — when `true`, prune any vector that can still grow in
///   one dimension; when `false`, keep every feasible vector.
///
/// A vector is feasible when its product is at most `units` and it fits;
/// the identity only has to fit. `explored` is the size of the feasible
/// lattice, computed per projection point of the frontier walk rather
/// than walked; it equals the node count of a depth-first walk. Returns
/// nothing (one node explored) when the identity does not fit.
pub fn enumerate_unrollings(
    quota: &[u64],
    allowed: DimSet,
    units: u64,
    fits: impl Fn(&[u64]) -> bool,
    min_utilization: f64,
    maximal_only: bool,
) -> UnrollingOutcome {
    // An empty table computes every ladder it is asked for.
    let ladders = DivisorLadders::default();
    let ladders = ladders.ladder_set(quota);
    enumerate_unrollings_over(&ladders, allowed, units, fits, min_utilization, maximal_only)
}

/// [`enumerate_unrollings`] (same contract on `fits` and `explored`) over
/// `ladders`, per dimension the divisor ladder of its quota as
/// [`DivisorLadders::ladder_set`] resolves it: the search calls it with
/// its own ladder table.
pub(crate) fn enumerate_unrollings_over(
    ladders: &[Cow<'_, [u64]>],
    allowed: DimSet,
    units: u64,
    fits: impl Fn(&[u64]) -> bool,
    min_utilization: f64,
    maximal_only: bool,
) -> UnrollingOutcome {
    let mut probes = 0;
    let mut fits_counted = |f: &[u64]| {
        probes += 1;
        fits(f)
    };
    if !fits_counted(&DimVec::ones(ladders.len())) {
        return UnrollingOutcome { unrollings: Vec::new(), explored: 1, probes };
    }
    // An overflowing product is past any fabric.
    let within_units = |f: &[u64]| {
        f.iter().try_fold(1u64, |used, &x| used.checked_mul(x)).is_some_and(|u| u <= units)
    };
    let walk =
        lattice::walk(ladders, allowed, |f| within_units(f) && fits_counted(f), maximal_only);
    let frontier = walk.nodes;

    // High-throughput filter: keep candidates at or above the utilization
    // floor; if none qualify, keep the best achieved.
    let util = |f: &DimVec| f.iter().product::<u64>() as f64 / units as f64;
    let best = frontier.iter().map(&util).fold(0.0f64, f64::max);
    let floor = if best >= min_utilization { min_utilization } else { best };
    let unrollings: Vec<DimVec> = frontier.into_iter().filter(|f| util(f) >= floor).collect();
    UnrollingOutcome { unrollings, explored: walk.explored, probes }
}

/// Computes the dimensions the Unrolling Principle forbids: the
/// non-indexing (full-reuse) dimensions of every tensor temporally reused
/// by the upper-level ordering.
pub fn principle_excluded_dims(reused_full: impl IntoIterator<Item = DimSet>) -> DimSet {
    reused_full.into_iter().fold(DimSet::EMPTY, DimSet::union)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sunstone_ir::DimId;

    fn dims(ids: &[usize]) -> DimSet {
        ids.iter().map(|&i| DimId::from_index(i)).collect()
    }

    #[test]
    fn maximal_unrollings_fill_the_fabric() {
        // Quotas K=8, C=4, P=8 on 16 units; all dims allowed.
        let out = enumerate_unrollings(&[8, 4, 8], dims(&[0, 1, 2]), 16, |_| true, 0.5, true);
        assert!(!out.unrollings.is_empty());
        for f in &out.unrollings {
            let used: u64 = f.iter().product();
            assert_eq!(used, 16, "maximal candidates fully use the fabric: {f:?}");
        }
    }

    #[test]
    fn principle_excludes_reused_operands_dims() {
        // Reused tensor has full-reuse dims {1, 3} → excluded.
        let excluded = principle_excluded_dims([dims(&[1, 3])]);
        assert_eq!(excluded, dims(&[1, 3]));
        let allowed = dims(&[0, 1, 2, 3]).difference(excluded);
        assert_eq!(allowed, dims(&[0, 2]));
    }

    #[test]
    fn utilization_floor_drops_weak_candidates() {
        // Quotas allow only 2×3 = 6 of 16 units via dim 0+1, or 8 via
        // dim 2; with floor 0.5 only the 8 survives.
        let out = enumerate_unrollings(&[2, 3, 8], dims(&[0, 1, 2]), 16, |_| true, 0.5, true);
        for f in &out.unrollings {
            assert!(f.iter().product::<u64>() as f64 / 16.0 >= 0.5, "{f:?}");
        }
        assert!(out.unrollings.iter().any(|f| f[2] == 8));
    }

    #[test]
    fn keeps_best_when_nothing_meets_the_floor() {
        let out = enumerate_unrollings(&[2, 1, 1], dims(&[0]), 16, |_| true, 0.5, true);
        assert_eq!(out.unrollings, vec![DimVec::from_slice(&[2, 1, 1])]);
    }

    #[test]
    fn fits_predicate_limits_growth() {
        // Shared child memory only tolerates a factor-2 unroll in dim 0.
        let out = enumerate_unrollings(&[8, 8], dims(&[0, 1]), 64, |f| f[0] <= 2, 0.0, true);
        for f in &out.unrollings {
            assert!(f[0] <= 2);
        }
        assert!(out.unrollings.iter().any(|f| f[0] == 2 && f[1] == 8));
    }

    #[test]
    fn empty_allowed_set_yields_identity() {
        let out = enumerate_unrollings(&[8, 8], DimSet::EMPTY, 64, |_| true, 0.5, true);
        assert_eq!(out.unrollings, vec![DimVec::from_slice(&[1, 1])]);
    }

    #[test]
    fn non_maximal_mode_keeps_partial_unrollings() {
        let all = enumerate_unrollings(&[8], dims(&[0]), 8, |_| true, 0.0, false);
        // 1, 2, 4, 8 all kept.
        assert_eq!(all.unrollings.len(), 4);
        let maximal = enumerate_unrollings(&[8], dims(&[0]), 8, |_| true, 0.0, true);
        assert_eq!(maximal.unrollings, vec![DimVec::from_slice(&[8])]);
    }

    /// The search's filled ladder table and the empty one the public
    /// entry point asks, which computes every ladder, enumerate alike.
    #[test]
    fn cached_ladders_match_uncached_enumeration() {
        let extents = [64u64, 16, 28];
        let ladders = DivisorLadders::new(&extents);
        let quota = [32u64, 16, 14];
        for maximal in [true, false] {
            let plain = enumerate_unrollings(&quota, dims(&[0, 1, 2]), 16, |_| true, 0.5, maximal);
            let cached = enumerate_unrollings_over(
                &ladders.ladder_set(&quota),
                dims(&[0, 1, 2]),
                16,
                |_| true,
                0.5,
                maximal,
            );
            assert!(!plain.unrollings.is_empty());
            assert_eq!(plain, cached);
        }
    }

    #[test]
    fn factors_divide_quota() {
        let out = enumerate_unrollings(&[6, 10], dims(&[0, 1]), 15, |_| true, 0.0, true);
        for f in &out.unrollings {
            assert_eq!(6 % f[0], 0);
            assert_eq!(10 % f[1], 0);
            assert!(f.iter().product::<u64>() <= 15);
        }
    }
}

//! The tiling tree (Section IV-B, Fig 5 of the paper).
//!
//! Starting from a base tile, the tree grows one dimension per edge to the
//! next feasible factor. Per the **Tiling Principle**, only the indexing
//! dimensions of the operand(s) temporally reused by the upper-level
//! ordering are grown, and any node with a fitting child is pruned: the
//! child offers strictly more reuse. What remains is the *maximal
//! frontier* — tiles that cannot grow in any allowed dimension.

use std::borrow::Cow;

use sunstone_ir::{DimSet, DimVec};

pub use crate::factors::sorted_divisors;
use crate::factors::DivisorLadders;
use crate::lattice;

/// Result of a tiling-tree enumeration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TilingOutcome {
    /// The surviving resident tiles (per-dimension extents, including the
    /// base).
    pub tiles: Vec<DimVec>,
    /// Number of tree nodes explored (for search-space statistics): every
    /// tile the tree spans that fits, the base included — computed, not
    /// walked (see [`enumerate_tiles`]).
    pub explored: usize,
    /// Calls of `fits` the enumeration made.
    pub probes: usize,
}

/// Enumerates tiles reachable from `base` by growing the `allowed`
/// dimensions, subject to `fits`.
///
/// * `base` — the resident tile implied by the levels below (the root of
///   the tree; every dimension of the result is a multiple of it).
/// * `quota` — per-dimension growth budget: the result's extent in `d` is
///   `base[d] × f` with `f` a divisor of `quota[d]`.
/// * `allowed` — dimensions that may grow (the reused operand's indexing
///   dimensions, per the Tiling Principle).
/// * `fits` — capacity predicate over the full resident tile. It must be
///   monotone: if a tile fits, every tile it contains fits. The maximal
///   frontier is found by bisecting along the lattice, which trusts that.
/// * `maximal_only` — when `true` (the Tiling Principle), prune every node
///   with a fitting child; when `false`, return all fitting tiles
///   (ablation mode).
///
/// `explored` is the size of the fitting lattice the tree spans, computed
/// per projection point of the frontier walk rather than walked; it equals
/// the node count of a depth-first walk of the tree. Returns an empty tile
/// list (one node explored) when even `base` does not fit.
pub fn enumerate_tiles(
    base: &[u64],
    quota: &[u64],
    allowed: DimSet,
    fits: impl Fn(&[u64]) -> bool,
    maximal_only: bool,
) -> TilingOutcome {
    // An empty table computes every ladder it is asked for.
    let ladders = DivisorLadders::default();
    let mut outcome = enumerate_growths(
        &ladders.ladder_set(quota),
        base,
        allowed,
        |_, tile| fits(tile),
        maximal_only,
    );
    for tile in &mut outcome.tiles {
        for (t, &b) in tile.iter_mut().zip(base) {
            *t *= b;
        }
    }
    outcome
}

/// [`enumerate_tiles`] (same contract on `fits` and `explored`) over
/// `ladders`, per dimension the divisor ladder of its quota as
/// [`DivisorLadders::ladder_set`] resolves it, with every kept tile given
/// as its growth over `base` (the tile is `base × growth`, the growth a
/// divisor of the quota per dimension); `fits` sees each probe's growth
/// beside its tile. The search calls it with its own ladder table, and
/// needs the growths, so it never divides them back out of the tiles.
pub(crate) fn enumerate_growths(
    ladders: &[Cow<'_, [u64]>],
    base: &[u64],
    allowed: DimSet,
    fits: impl Fn(&[u64], &[u64]) -> bool,
    maximal_only: bool,
) -> TilingOutcome {
    debug_assert_eq!(ladders.len(), base.len());
    let mut probes = 0;
    let mut tile = DimVec::from_slice(base);
    // A saturated extent is past any capacity, so saturating keeps `fits`
    // monotone on tiles the frontier probes far above the boundary.
    let mut fits_grown = |factors: &[u64]| {
        probes += 1;
        for ((t, &b), &f) in tile.iter_mut().zip(base).zip(factors) {
            *t = b.saturating_mul(f);
        }
        fits(factors, &tile)
    };
    if !fits_grown(&DimVec::ones(base.len())) {
        return TilingOutcome { tiles: Vec::new(), explored: 1, probes };
    }
    let walk = lattice::walk(ladders, allowed, &mut fits_grown, maximal_only);
    TilingOutcome { tiles: walk.nodes, explored: walk.explored, probes }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sunstone_ir::DimId;

    fn dims(ids: &[usize]) -> DimSet {
        ids.iter().map(|&i| DimId::from_index(i)).collect()
    }

    /// The Fig 5 setting: 1-D conv K=4, C=4, P=14, R=3, unified L1 of 8
    /// entries, xxCR ordering at L2 → grow only K (dim 0) and P (dim 2).
    /// Footprints: ofmap K·P, ifmap C·(P+R−1) with C=1, weight K·C·R with
    /// C=R=1.
    fn fig5_fits(tile: &[u64]) -> bool {
        let (k, c, p, r) = (tile[0], tile[1], tile[2], tile[3]);
        let ofmap = k * p;
        let ifmap = c * (p + 3 - 1);
        let weight = k * c * r;
        ofmap + ifmap + weight <= 8
    }

    #[test]
    fn fig5_maximal_frontier() {
        let base = [1u64, 1, 1, 1];
        let quota = [4u64, 4, 14, 3];
        let out = enumerate_tiles(&base, &quota, dims(&[0, 2]), fig5_fits, true);
        // Maximal tiles: (K=1,P=2) → 2+3+1=6 fits, growing to (1,7)=17 or
        // (2,2)=10 overflows; (K=2,P=1) → 2+3+2=7 fits, (4,1) or (2,2)
        // overflow.
        let mut tiles: Vec<Vec<u64>> = out.tiles.iter().map(DimVec::to_vec).collect();
        tiles.sort();
        assert_eq!(tiles, vec![vec![1, 1, 2, 1], vec![2, 1, 1, 1]]);
        assert!(out.explored >= 3, "root plus both candidates explored");
    }

    #[test]
    fn non_maximal_mode_keeps_everything_fitting() {
        let base = [1u64, 1, 1, 1];
        let quota = [4u64, 4, 14, 3];
        let all = enumerate_tiles(&base, &quota, dims(&[0, 2]), fig5_fits, false);
        // Root (1,1), (2,1), (1,2) all fit.
        assert_eq!(all.tiles.len(), 3);
        let maximal = enumerate_tiles(&base, &quota, dims(&[0, 2]), fig5_fits, true);
        assert!(maximal.tiles.len() < all.tiles.len(), "the Tiling Principle prunes");
    }

    #[test]
    fn growth_steps_follow_divisors() {
        // Quota 12 → divisors 1,2,3,4,6,12; capacity allows up to 6.
        let out = enumerate_tiles(&[1], &[12], dims(&[0]), |t| t[0] <= 6, true);
        assert_eq!(out.tiles, vec![DimVec::from_slice(&[6])]);
    }

    #[test]
    fn base_that_does_not_fit_yields_nothing() {
        let out = enumerate_tiles(&[16], &[4], dims(&[0]), |t| t[0] <= 8, true);
        assert!(out.tiles.is_empty());
    }

    #[test]
    fn no_allowed_dims_returns_base() {
        let out = enumerate_tiles(&[2, 3], &[4, 4], DimSet::EMPTY, |_| true, true);
        assert_eq!(out.tiles, vec![DimVec::from_slice(&[2, 3])]);
    }

    #[test]
    fn unbounded_capacity_grows_to_quota() {
        let out = enumerate_tiles(&[1, 1], &[6, 10], dims(&[0, 1]), |_| true, true);
        assert_eq!(out.tiles, vec![DimVec::from_slice(&[6, 10])]);
    }

    #[test]
    fn base_multiplies_into_result() {
        let out = enumerate_tiles(&[2], &[4], dims(&[0]), |t| t[0] <= 8, true);
        // Factors over quota 4: 1,2,4 → tiles 2,4,8; maximal = 8.
        assert_eq!(out.tiles, vec![DimVec::from_slice(&[8])]);
    }

    #[test]
    fn reaches_80_percent_reduction_on_resnet_like_layer() {
        // §III-A claims ≥80% L1-tile-space reduction for ResNet layers.
        // Compare maximal-frontier size vs all fitting tiles for a
        // ResNet-18 conv3 layer (K=C=128, P=Q=28, R=S=3) on a 512-entry
        // unified buffer, growing ofmap's indexing dims {K,P,Q}.
        let base = vec![1u64; 7]; // K C P Q R S N
        let quota = vec![128, 128, 28, 28, 3, 3, 1];
        let fits = |t: &[u64]| {
            let (k, c, p, q, r, s) = (t[0], t[1], t[2], t[3], t[4], t[5]);
            let ofmap = k * p * q;
            let ifmap = c * (p + r - 1) * (q + s - 1);
            let weight = k * c * r * s;
            ofmap + ifmap + weight <= 512
        };
        let grow = dims(&[0, 2, 3]);
        let all = enumerate_tiles(&base, &quota, grow, fits, false);
        let maximal = enumerate_tiles(&base, &quota, grow, fits, true);
        let reduction = 1.0 - maximal.tiles.len() as f64 / all.tiles.len() as f64;
        assert!(
            reduction >= 0.5,
            "maximal frontier prunes most of the space: {} of {}",
            maximal.tiles.len(),
            all.tiles.len()
        );
    }

    /// The search's filled ladder table and the empty one the public
    /// entry point asks, which computes every ladder, enumerate alike.
    #[test]
    fn cached_ladders_match_uncached_enumeration() {
        let extents = [128u64, 128, 28, 28, 3, 3, 1];
        let ladders = DivisorLadders::new(&extents);
        let base = vec![2u64; 7];
        // A mid-search quota: every entry divides its extent.
        let quota = vec![64, 32, 14, 28, 3, 1, 1];
        let fits = |t: &[u64]| t.iter().product::<u64>() <= 4096;
        let grow = dims(&[0, 2, 3]);
        for maximal in [true, false] {
            let plain = enumerate_tiles(&base, &quota, grow, fits, maximal);
            let cached = enumerate_growths(
                &ladders.ladder_set(&quota),
                &base,
                grow,
                |_, t| fits(t),
                maximal,
            );
            let tiles: Vec<DimVec> = cached
                .tiles
                .iter()
                .map(|g| g.iter().zip(&base).map(|(g, b)| g * b).collect())
                .collect();
            assert!(!tiles.is_empty());
            assert_eq!(plain, TilingOutcome { tiles, ..cached });
        }
    }
}

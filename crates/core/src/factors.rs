//! Per-dimension factor-vector arithmetic shared by the search pipeline
//! ([`crate::search`]) and the tiling tree ([`crate::tiling`]).
//!
//! Tiles, quotas, and unroll assignments are all vectors of per-dimension
//! factors; the search composes them with element-wise products and
//! quotients. Centralizing the helpers here keeps the semantics (floor
//! quotient, zero-length tolerance) in one place.
//!
//! All elementwise results are [`DimVec`]s — inline up to eight
//! dimensions — so the search's inner loops do not touch the heap. The
//! [`DivisorLadders`] table precomputes every divisor ladder a search can
//! ask for, replacing per-candidate trial division with a lookup.

use sunstone_ir::FxHashMap;

pub use sunstone_ir::{sorted_divisors, DimVec};

/// Element-wise floor quotient `a[i] / b[i]`.
///
/// All search-internal callers divide exact multiples (tile extents are
/// built from divisor ladders), but the quotient intentionally floors so
/// callers probing non-divisible shapes (e.g. padding studies) get a
/// well-defined result instead of a panic.
///
/// # Panics
///
/// Panics when the lengths differ: silently zip-truncating would drop
/// trailing dimensions of the longer operand. This is a true caller
/// invariant (both vectors are indexed by the same workload's
/// dimensions), not input validation — no workload data can trigger it.
pub fn quot(a: &[u64], b: &[u64]) -> DimVec {
    assert_eq!(a.len(), b.len(), "factor vectors must have equal lengths");
    a.iter().zip(b).map(|(x, y)| x / y).collect()
}

/// Element-wise quotient, named for call sites distributing a remaining
/// quota over a chosen factor vector. Alias of [`quot`].
///
/// # Panics
///
/// Panics when the lengths differ (see [`quot`]).
pub fn divide(a: &[u64], b: &[u64]) -> DimVec {
    quot(a, b)
}

/// Element-wise product `a[i] * b[i]`.
///
/// The product is checked, not wrapping: factor vectors derive from
/// user-supplied dimension extents, so adversarial inputs (2^40-sized
/// dims) *can* reach this multiply, and a silent wraparound would
/// corrupt every downstream tile size. Overflow panics deterministically
/// in every build profile with a recognizable message; the scheduler's
/// panic-isolation boundary converts it into
/// `ScheduleError::Internal` at the public API. The length assert below
/// is the opposite kind of check — a true caller invariant (both vectors
/// are indexed by the same workload's dimensions), never reachable from
/// input data.
///
/// # Panics
///
/// Panics when the lengths differ (see [`quot`]) or a product exceeds
/// `u64::MAX`.
pub fn multiply(a: &[u64], b: &[u64]) -> DimVec {
    assert_eq!(a.len(), b.len(), "factor vectors must have equal lengths");
    a.iter().zip(b).map(|(x, y)| x.checked_mul(*y).expect("factor product overflows u64")).collect()
}

/// Product of all entries, widened to `u128` so large shapes cannot
/// overflow (a 7-dim workload with 2^16 extents already exceeds `u64`).
pub fn volume(a: &[u64]) -> u128 {
    a.iter().map(|&x| u128::from(x)).product()
}

/// Precomputed sorted divisor ladders for every quota a search over the
/// given dimension extents can encounter.
///
/// Quotas shrink only by division through chosen factors, so every quota
/// of dimension `d` is a divisor of `extents[d]` — a small, closed set.
/// One pass at construction computes the ladder of every such quota;
/// the hot path then asks [`of`](Self::of) instead of running trial
/// division per candidate.
#[derive(Debug, Clone, Default)]
pub struct DivisorLadders {
    /// `per_dim[d][q]` = sorted divisors of `q`, for each divisor `q` of
    /// the dimension's full extent.
    per_dim: Vec<FxHashMap<u64, Vec<u64>>>,
}

impl DivisorLadders {
    /// Builds the ladder table for a workload's dimension extents.
    pub fn new(extents: &[u64]) -> Self {
        let per_dim = extents
            .iter()
            .map(|&size| {
                let divs = sorted_divisors(size);
                divs.iter()
                    .map(|&q| {
                        let ladder: Vec<u64> =
                            divs.iter().copied().filter(|&d| q.is_multiple_of(d)).collect();
                        (q, ladder)
                    })
                    .collect()
            })
            .collect();
        DivisorLadders { per_dim }
    }

    /// The sorted divisors of quota `q` in dimension `dim`, when `q`
    /// divides the dimension's extent (the only quotas a search produces).
    pub fn of(&self, dim: usize, q: u64) -> Option<&[u64]> {
        self.per_dim.get(dim)?.get(&q).map(Vec::as_slice)
    }

    /// Resolves the ladders for a full quota vector, computing any entry
    /// outside the table (possible only for callers probing non-divisor
    /// quotas, e.g. padding studies).
    pub fn ladder_set<'a>(&'a self, quota: &[u64]) -> Vec<std::borrow::Cow<'a, [u64]>> {
        quota
            .iter()
            .enumerate()
            .map(|(i, &q)| match self.of(i, q) {
                Some(l) => std::borrow::Cow::Borrowed(l),
                None => std::borrow::Cow::Owned(sorted_divisors(q)),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quot_divides_exact_multiples() {
        assert_eq!(quot(&[8, 9, 10], &[2, 3, 5]), [4u64, 3, 2]);
    }

    #[test]
    fn quot_floors_non_divisible_entries() {
        // Non-divisible shapes (padding probes) floor instead of panicking.
        assert_eq!(quot(&[7, 5, 1], &[2, 3, 1]), [3u64, 1, 1]);
        assert_eq!(divide(&[10], &[4]), [2u64]);
    }

    #[test]
    fn empty_shapes_yield_empty_vectors() {
        assert_eq!(quot(&[], &[]), DimVec::new());
        assert_eq!(multiply(&[], &[]), DimVec::new());
        assert_eq!(volume(&[]), 1);
    }

    #[test]
    fn multiply_is_elementwise() {
        assert_eq!(multiply(&[2, 3, 1], &[4, 1, 7]), [8u64, 3, 7]);
    }

    #[test]
    fn multiply_then_quot_roundtrips() {
        let a = [6u64, 4, 15];
        let b = [3u64, 2, 5];
        assert_eq!(quot(&multiply(&a, &b), &b), a);
    }

    #[test]
    #[should_panic(expected = "equal lengths")]
    fn quot_rejects_length_mismatch() {
        let _ = quot(&[4, 2], &[2]);
    }

    #[test]
    #[should_panic(expected = "equal lengths")]
    fn multiply_rejects_length_mismatch() {
        let _ = multiply(&[4], &[2, 2]);
    }

    #[test]
    fn volume_survives_u64_overflow() {
        let big = [1u64 << 32; 3];
        assert_eq!(volume(&big), 1u128 << 96);
    }

    #[test]
    fn sorted_divisors_are_sorted_and_complete() {
        assert_eq!(sorted_divisors(12), vec![1, 2, 3, 4, 6, 12]);
        assert_eq!(sorted_divisors(1), vec![1]);
        assert_eq!(sorted_divisors(7), vec![1, 7]);
    }

    #[test]
    fn ladders_match_direct_computation() {
        let extents = [28u64, 12, 1, 97];
        let ladders = DivisorLadders::new(&extents);
        for (d, &size) in extents.iter().enumerate() {
            for q in sorted_divisors(size) {
                assert_eq!(
                    ladders.of(d, q).expect("quota divides extent"),
                    sorted_divisors(q).as_slice(),
                    "dim {d} quota {q}"
                );
            }
        }
        // Non-divisor quotas are not in the table …
        assert!(ladders.of(0, 5).is_none());
        // … but ladder_set falls back to computing them.
        let set = ladders.ladder_set(&[5, 12, 1, 97]);
        assert_eq!(set[0].as_ref(), sorted_divisors(5).as_slice());
        assert_eq!(set[1].as_ref(), sorted_divisors(12).as_slice());
    }
}

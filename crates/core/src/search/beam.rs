//! The beam between stages and the alpha-beta-style cut that keeps it,
//! plus the 128-bit hash that stands in for a nest key.
//!
//! The beam is kept as rows ([`Beam`]): a survivor is its candidate's
//! row, written out of the arena's runs once it is kept, with what its
//! ordering excludes from the next stage's unroll. The next stage starts
//! its children from the row and prices their shared prefix from it; only
//! the final ranking turns rows into mappings.

use sunstone_ir::DimSet;
use sunstone_mapping::Mapping;

use super::candidates::Candidates;
use super::stats::SearchStats;
use super::SearchContext;

/// 64 × 64 → 128-bit multiply folded back to 64 bits: every input bit
/// reaches every output bit through the carry chain.
#[inline]
fn folded_multiply(a: u64, b: u64) -> u64 {
    let wide = u128::from(a) * u128::from(b);
    (wide as u64) ^ ((wide >> 64) as u64)
}

/// The state of [`key_hash`]: two independent 64-bit lanes (different
/// seeds and multipliers, each word pair fed in opposite roles), each two
/// interleaved chains of folded multiplies over alternate word pairs —
/// four multiplies in flight per block of four words.
#[derive(Debug, Clone, Copy)]
struct Lanes([u64; 4]);

impl Lanes {
    // Digits of π (Blowfish's P-array), low bit set.
    const SEED: Lanes = Lanes([
        0x243f_6a88_85a3_08d3,
        0x1319_8a2e_0370_7345,
        0xa409_3822_299f_31d1,
        0x082e_fa98_ec4e_6c89,
    ]);
    const MUL: [u64; 4] = [
        0x4528_21e6_38d0_1377,
        0xbe54_66cf_34e9_0c6d,
        0xc0ac_29b7_c97c_50dd,
        0x3f84_d5b5_b547_0917,
    ];

    #[inline]
    fn block(&mut self, w: [u64; 4]) {
        let (l, m) = (&mut self.0, Self::MUL);
        l[0] = folded_multiply(l[0] ^ w[0], m[0] ^ w[1]);
        l[1] = folded_multiply(l[1] ^ w[2], m[1] ^ w[3]);
        l[2] = folded_multiply(l[2] ^ w[1], m[2] ^ w[0]);
        l[3] = folded_multiply(l[3] ^ w[3], m[3] ^ w[2]);
    }

    /// Absorbs `words` four at a time, the last block zero-padded.
    #[inline]
    fn absorb(mut self, words: &[u64]) -> Self {
        let mut blocks = words.chunks_exact(4);
        for w in &mut blocks {
            self.block([w[0], w[1], w[2], w[3]]);
        }
        let rest = blocks.remainder();
        if !rest.is_empty() {
            let mut last = [0u64; 4];
            last[..rest.len()].copy_from_slice(rest);
            self.block(last);
        }
        self
    }

    /// Absorbs the key's length — last, so that zero-padding the last
    /// block is unambiguous — and folds the lanes.
    #[inline]
    fn finish(mut self, len: usize) -> u128 {
        self.block([len as u64, !(len as u64), 0, 0]);
        let [a0, a1, b0, b1] = self.0;
        let m = Self::MUL;
        let a = folded_multiply(a0 ^ m[1], a1 ^ m[0]);
        let b = folded_multiply(b0 ^ m[3], b1 ^ m[2]);
        (u128::from(a) << 64) | u128::from(b)
    }
}

/// The 128-bit identity of a key of words (see [`Lanes`]).
pub(crate) fn key_hash(words: &[u64]) -> u128 {
    Lanes::SEED.absorb(words).finish(words.len())
}

/// The partial mappings alive between two stages, as rows: per survivor,
/// its candidate row ([`RowLayout`](super::RowLayout)) and the dimensions
/// the ordering it chose for the next memory excludes from that memory's
/// fabric (the Spatial Unrolling Principle's input; empty when it chose
/// none). At most `beam_width` rows.
#[derive(Debug, Default, PartialEq)]
pub(crate) struct Beam {
    stride: usize,
    rows: Vec<u64>,
    pub(crate) unroll_excluded: Vec<DimSet>,
}

impl Beam {
    /// The search starting point: the streaming mapping's row, nothing
    /// decided, the whole problem in the outermost memory's remainder.
    pub(crate) fn root(ctx: &SearchContext<'_>) -> Self {
        let layout = &ctx.layout;
        let mut rows = Vec::with_capacity(layout.stride());
        layout.write_row(&ctx.base, &mut rows);
        Beam { stride: layout.stride(), rows, unroll_excluded: vec![DimSet::EMPTY] }
    }

    pub(crate) fn len(&self) -> usize {
        self.unroll_excluded.len()
    }

    /// A beam of `rows` with nothing excluded from unrolling: what tests
    /// expand arenas from.
    #[cfg(test)]
    pub(crate) fn of_rows(ctx: &SearchContext<'_>, rows: &[Vec<u64>]) -> Self {
        Beam {
            stride: ctx.layout.stride(),
            rows: rows.concat(),
            unroll_excluded: vec![DimSet::EMPTY; rows.len()],
        }
    }

    /// The row of survivor `i`.
    pub(crate) fn row(&self, i: usize) -> &[u64] {
        &self.rows[i * self.stride..(i + 1) * self.stride]
    }

    /// Every survivor's mapping — what no stage placed still at the
    /// outermost memory — best first.
    pub(crate) fn mappings(&self, ctx: &SearchContext<'_>) -> Vec<Mapping> {
        (0..self.len())
            .map(|i| {
                let mut m = ctx.base.clone();
                ctx.layout.materialize_into(self.row(i), &mut m);
                m
            })
            .collect()
    }
}

/// Keeps the `beam_width` best-estimated candidates of the arena expanded
/// from `parents` as the next beam, writing their rows — the only rows a
/// stage writes ([`Candidates::write_row`]) — and records the cut in the
/// stage's beam counter. What a survivor's ordering excludes from the next
/// fabric is its run's (`Candidates::unroll_excluded_of`, a search of the
/// run ends per survivor).
/// Equal estimates rank in enumeration order and the estimates are
/// totally ordered, so the survivors do not depend on thread count or
/// enumeration accidents beyond the (deterministic) candidate order.
pub(crate) fn select(
    ctx: &SearchContext<'_>,
    cands: &Candidates,
    parents: &Beam,
    stage: usize,
    stats: &mut SearchStats,
) -> Beam {
    // Ranking by (estimate, arena index) is what a stable sort by estimate
    // computes, and being a total order it lets the cut partition first
    // and sort only the survivors.
    let by_estimate = |a: &u32, b: &u32| {
        cands.estimate[*a as usize].total_cmp(&cands.estimate[*b as usize]).then(a.cmp(b))
    };
    let width = ctx.config.beam_width.max(1);
    let mut ranked: Vec<u32> = (0..cands.len() as u32).collect();
    if ranked.len() > width {
        ranked.select_nth_unstable_by(width - 1, by_estimate);
        ranked.truncate(width);
    }
    ranked.sort_unstable_by(by_estimate);
    stats.level_mut(stage).beam.record(cands.len() as u64, ranked.len() as u64);
    let stride = ctx.layout.stride();
    let mut beam = Beam {
        stride,
        rows: Vec::with_capacity(ranked.len() * stride),
        unroll_excluded: Vec::with_capacity(ranked.len()),
    };
    for i in ranked {
        let i = i as usize;
        cands.write_row(parents, i, &mut beam.rows);
        beam.unroll_excluded.push(cands.unroll_excluded_of(i));
    }
    beam
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A key shaped like `simba_like`'s: 77 small words.
    fn key() -> Vec<u64> {
        (0..77u64).map(|i| 1 + (i * 7 + 3) % 13).collect()
    }

    fn halves(h: u128) -> (u64, u64) {
        ((h >> 64) as u64, h as u64)
    }

    #[test]
    fn flipping_any_single_word_changes_both_halves() {
        let base = key();
        let (a, b) = halves(key_hash(&base));
        for i in 0..base.len() {
            for delta in [1, 2, 1 << 20, u64::MAX] {
                let mut k = base.clone();
                k[i] ^= delta;
                let (a2, b2) = halves(key_hash(&k));
                assert!(a != a2 && b != b2, "word {i} ^ {delta:#x} left a half unchanged");
            }
        }
    }

    #[test]
    fn a_key_and_its_proper_prefixes_hash_differently() {
        let base = key();
        let mut seen = std::collections::HashSet::new();
        for len in 0..=base.len() {
            assert!(seen.insert(key_hash(&base[..len])), "prefix of {len} words collides");
        }
        // Trailing zeros are not padding either.
        let mut padded = base.clone();
        padded.push(0);
        assert!(seen.insert(key_hash(&padded)));
    }

    #[test]
    fn permuting_two_words_changes_the_hash() {
        let base = key();
        let (a, b) = halves(key_hash(&base));
        for i in 0..base.len() {
            for j in i + 1..base.len() {
                if base[i] == base[j] {
                    continue;
                }
                let mut k = base.clone();
                k.swap(i, j);
                let (a2, b2) = halves(key_hash(&k));
                assert!(a != a2 && b != b2, "swap {i},{j} left a half unchanged");
            }
        }
    }
}

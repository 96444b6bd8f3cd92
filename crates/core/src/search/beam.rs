//! Beam maintenance over the candidate arena: duplicate elimination and
//! the alpha-beta-style cut, plus the mapping key the arena's rows share
//! their prefix with and the 128-bit hash that stands in for it.
//!
//! Dedup meets rows by the hash of their [`nest_key`](RowLayout::nest_key)
//! — the estimate table's key, shared by rows that differ only where a
//! factor is 1 — which expansion files with each row. A candidate's
//! identity inside the search is one `u128`, a hash of its *completed*
//! mapping key ([`RowLayout::identity`]), taken only for rows whose nest
//! an earlier row had. A completed key and a row prefix
//! determine each other (the quotas are the extents divided by the
//! factors, and the completion level's own factors are 1 until the stage
//! that writes them), so equal identities mean equal rows up to a
//! 2⁻¹²⁸-per-pair collision — which debug builds rule out by comparing the
//! words.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use sunstone_ir::{DimVec, FxHashMap};
use sunstone_mapping::{Mapping, MappingLevel};

use super::candidates::Candidates;
use super::stats::SearchStats;
use super::{PartialState, RowLayout, SearchContext};

/// A mapping's search identity: every level's factors, then each
/// temporal level's loop order. Two mappings with equal keys are the same
/// point in the space. Inside the search the *row prefix* of a candidate
/// ([`RowLayout`]) is laid out word for word like this key and nothing
/// builds the key itself: rows are hashed in place. The function serves
/// [`RowLayout::nest_key_of`], which keys mappings that never were rows
/// (the final re-evaluation).
pub(crate) fn mapping_key(m: &Mapping) -> Vec<u64> {
    let words = m
        .levels()
        .iter()
        .map(|l| l.factors().len() + l.as_temporal().map_or(0, |t| t.order.len()))
        .sum();
    let mut key = Vec::with_capacity(words);
    write_key(m, &mut key);
    key
}

/// Appends [`mapping_key`]'s words to `key`.
pub(crate) fn write_key(m: &Mapping, key: &mut Vec<u64>) {
    for level in m.levels() {
        key.extend_from_slice(level.factors());
    }
    for level in m.levels() {
        if let MappingLevel::Temporal(t) = level {
            key.extend(t.order.iter().map(|d| d.index() as u64));
        }
    }
}

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

/// Hasher of maps keyed by a [`key_hash`] or its low half: the key is
/// already uniformly mixed, so its low half *is* the table hash.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct PassThrough(u64);

impl Hasher for PassThrough {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _: &[u8]) {
        unreachable!("PassThrough only hashes key hashes");
    }

    fn write_u64(&mut self, key: u64) {
        self.0 = key;
    }

    fn write_u128(&mut self, key: u128) {
        self.0 = key as u64;
    }
}

/// A map keyed by [`key_hash`] values.
pub(crate) type KeyHashMap<V> = HashMap<u128, V, BuildHasherDefault<PassThrough>>;

/// Removes candidates whose mapping an earlier row already describes,
/// returning how many were dropped: different enumeration paths (e.g. the
/// principled and relaxed unroll passes) can emit identical candidates,
/// and estimating each copy is pure waste. The first of equal rows stays
/// and the survivors keep their order, so one parent's children remain
/// contiguous.
///
/// Rows are met by the nest hash expansion filed with each
/// ([`Candidates::nest`]). Equal rows have equal nest keys, so a row whose
/// nest hash is new in this pass is unique and costs one map insert. A
/// row whose nest an earlier row had is compared with the rows kept of
/// that nest by identity: the nest hash combined with the hash of the
/// row's whole orders, which its parent and ordering decide
/// ([`Candidates::orders_hash`], once per pair). No row is read, and no
/// identity is kept: nests repeat a few rows deep.
pub(crate) fn dedup(cands: &mut Candidates, layout: &RowLayout) -> usize {
    const NONE: u32 = u32::MAX;
    let before = cands.len();
    let mut keep: Vec<u32> = Vec::with_capacity(before);
    // The low half of a nest hash → the last row kept with it. Two nests
    // that share a low half only share a chain.
    let mut nests: HashMap<u64, u32, BuildHasherDefault<PassThrough>> =
        HashMap::with_capacity_and_hasher(before, Default::default());
    // Per row kept, the row kept before it with the same low half.
    let mut prior = vec![NONE; before];
    // Per (parent, ordering) met among the repeated nests, the hash of its
    // orders.
    let mut lineages: FxHashMap<(u32, u32), u128> = FxHashMap::default();
    let mut orders = Vec::new();
    let mut identity = |i: usize| {
        let orders_hash =
            *lineages.entry(cands.lineage(i)).or_insert_with(|| cands.orders_hash(i, &mut orders));
        let identity = cands.nest[i] ^ orders_hash;
        debug_assert_eq!(
            identity,
            layout.identity(cands.row(i), cands.nest[i], &mut Vec::new()),
            "a child's orders are its parent's and its ordering's"
        );
        identity
    };
    for i in 0..before {
        match nests.entry(cands.nest[i] as u64) {
            Entry::Vacant(slot) => {
                slot.insert(i as u32);
            }
            Entry::Occupied(mut last) => {
                let id = identity(i);
                let mut j = *last.get();
                while j != NONE && identity(j as usize) != id {
                    j = prior[j as usize];
                }
                if j != NONE {
                    debug_assert_eq!(
                        cands.row(i)[..layout.key_len],
                        cands.row(j as usize)[..layout.key_len],
                        "128-bit row hash collision"
                    );
                    continue;
                }
                prior[i] = std::mem::replace(last.get_mut(), i as u32);
            }
        }
        keep.push(i as u32);
    }
    if keep.len() < before {
        cands.retain_indices(&keep);
    }
    before - cands.len()
}

/// [`dedup`] as it was before it met rows by their nest first: every
/// row's nest hash and identity taken from the row, rows compared by
/// identity alone, the kept rows' nest hashes written to the column. The
/// oracle the nest-first pass is held to.
#[cfg(test)]
pub(crate) fn dedup_by_identity(cands: &mut Candidates, layout: &RowLayout) -> usize {
    let before = cands.len();
    let mut keep: Vec<u32> = Vec::with_capacity(before);
    let (mut words, mut orders) = (Vec::new(), Vec::new());
    let mut seen: KeyHashMap<u32> = KeyHashMap::default();
    for i in 0..before {
        let row = cands.row(i);
        let nest = layout.nest_hash(row, &mut words);
        if let Entry::Vacant(slot) = seen.entry(layout.identity(row, nest, &mut orders)) {
            slot.insert(i as u32);
            keep.push(i as u32);
        }
        cands.nest[i] = nest;
    }
    cands.retain_indices(&keep);
    before - cands.len()
}

/// Keeps the `beam_width` best-estimated candidates and materializes them
/// as the next beam, recording the cut in the stage's beam counter.
/// Equal estimates rank in enumeration order and the estimates are
/// totally ordered, so the survivors do not depend on thread count or
/// enumeration accidents beyond the (deterministic) candidate order.
pub(crate) fn select(
    ctx: &SearchContext<'_>,
    cands: &Candidates,
    stage: usize,
    stats: &mut SearchStats,
) -> Vec<PartialState> {
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
    let layout = &ctx.layout;
    ranked
        .into_iter()
        .map(|i| {
            let row = cands.row(i as usize);
            PartialState {
                mapping: layout.materialize(row, &ctx.base),
                quotas: DimVec::from_slice(&row[layout.quotas()]),
                ordering_here: cands.ordering_of(i as usize).cloned(),
            }
        })
        .collect()
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

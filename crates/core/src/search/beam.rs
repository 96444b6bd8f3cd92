//! Beam maintenance over the candidate arena: duplicate elimination and
//! the alpha-beta-style cut, plus the mapping key the arena's rows share
//! their prefix with.

use sunstone_ir::{DimVec, FxHashSet};
use sunstone_mapping::{Mapping, MappingLevel};

use super::candidates::Candidates;
use super::stats::SearchStats;
use super::{PartialState, SearchContext};

/// A mapping's search identity: every level's factors plus each temporal
/// level's loop order. Two mappings with equal keys are the same point in
/// the space. Inside the search the *row prefix* of a candidate
/// ([`RowLayout`](super::RowLayout)) plays this role — dedup hashes it and
/// the estimate cache is probed with its completion — and is laid out
/// word for word like this key; the function itself only serves
/// [`evaluate_cached`](super::estimate::evaluate_cached), which prices
/// mappings that never were rows (the final re-evaluation, primed store
/// records).
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
        if let MappingLevel::Temporal(t) = level {
            key.extend(t.order.iter().map(|d| d.index() as u64));
        }
    }
}

/// Removes candidates whose mapping an earlier row already describes,
/// returning how many were dropped: different enumeration paths (e.g. the
/// principled and relaxed unroll passes) can emit identical candidates,
/// and estimating each copy is pure waste. The first of equal rows stays
/// and the survivors keep their order, so one parent's children remain
/// contiguous.
pub(crate) fn dedup(cands: &mut Candidates, key_len: usize) -> usize {
    let before = cands.len();
    let mut keep: Vec<u32> = Vec::with_capacity(before);
    {
        let mut seen: FxHashSet<&[u64]> =
            FxHashSet::with_capacity_and_hasher(before, Default::default());
        for i in 0..before {
            if seen.insert(&cands.row(i)[..key_len]) {
                keep.push(i as u32);
            }
        }
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

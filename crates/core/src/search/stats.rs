//! Structured search statistics: per-level, per-principle pruning counts
//! plus the flat totals the experiment binaries aggregate.
//!
//! Every pruning technique the paper describes reports into one
//! [`PruneCounter`] per stage: how many raw candidates its enumerator
//! visited (`considered`) and how many survived (`kept`). The
//! `prune_stats` bench binary prints these directly — no experiment needs
//! to re-run an enumerator just to count what it pruned — and later
//! performance work reports its wins against the same counters.

use std::time::Duration;

use serde::{Deserialize, Serialize};

/// Candidates visited vs. kept by one pruning principle at one stage.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PruneCounter {
    /// Raw candidates the enumerator visited.
    pub considered: u64,
    /// Candidates that survived the principle.
    pub kept: u64,
}

impl PruneCounter {
    /// Candidates the principle removed.
    pub fn pruned(&self) -> u64 {
        self.considered.saturating_sub(self.kept)
    }

    /// Fraction of considered candidates removed (0 when nothing was
    /// considered).
    pub fn pruned_fraction(&self) -> f64 {
        if self.considered == 0 {
            0.0
        } else {
            self.pruned() as f64 / self.considered as f64
        }
    }

    /// Records one enumeration.
    pub fn record(&mut self, considered: u64, kept: u64) {
        self.considered += considered;
        self.kept += kept;
    }

    /// Accumulates another counter into this one.
    pub fn merge(&mut self, other: &PruneCounter) {
        self.considered += other.considered;
        self.kept += other.kept;
    }
}

/// Pruning breakdown of one search stage (one memory level).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct LevelStats {
    /// Stage index: position in the per-level walk, with 0 the innermost
    /// memory.
    pub level: usize,
    /// Loop orderings: trie nodes explored vs. candidates kept (Ordering
    /// Principles 1–3 plus sibling dominance).
    pub ordering: PruneCounter,
    /// Suffix extensions the trie rejected for adding no further reuse
    /// (Ordering Principle 3).
    pub ordering_no_reuse: u64,
    /// Enumerated suffixes dropped by sibling dominance over the
    /// Principle 1–2 reuse scores.
    pub ordering_dominated: u64,
    /// Tiles: tiling-tree nodes explored vs. maximal-frontier tiles kept
    /// (Tiling Principle; the cap on tiles per enumeration also lands
    /// here).
    pub tiling: PruneCounter,
    /// Spatial unrollings: combinations explored vs. principled,
    /// high-utilization unrollings kept (Spatial Unrolling Principle).
    pub unrolling: PruneCounter,
    /// Candidates removed by the user constraint filter: orderings
    /// rejected against an order constraint, and pin-infeasible tile or
    /// unroll enumerations. Zero when the call carries no constraints.
    pub constraint: PruneCounter,
    /// Beam: candidates estimated vs. survivors after the alpha-beta-style
    /// cut. `considered` sums to [`SearchStats::probed`] across levels.
    pub beam: PruneCounter,
    /// In-round repeats at this stage: candidates that took the price of
    /// an earlier candidate of the round with the same loop nest.
    pub cache_hits: u64,
    /// The round's misses at this stage, the first candidate of each loop
    /// nest: each was priced or bounded (see [`SearchStats::bounded`]).
    pub cache_misses: u64,
    /// Misses of this stage the bound cut before they were priced.
    #[serde(default)]
    pub bounded: u64,
    /// Wall time of this stage's expand phase: enumerating orderings,
    /// tiles and unrollings for every beam parent and hashing the
    /// candidates' nests. One clock pair per phase per stage, never per
    /// candidate; the three phases leave only the stage's control checks
    /// and progress events unattributed.
    pub expand: Duration,
    /// Part of `expand`: the tile enumerations this stage actually ran
    /// (memo hits replay theirs and are not timed). One clock pair per
    /// enumeration, never per node.
    #[serde(default)]
    pub expand_tiles: Duration,
    /// Part of `expand`: the unrolling enumerations this stage actually
    /// ran, timed like `expand_tiles`.
    #[serde(default)]
    pub expand_unrolls: Duration,
    /// Part of `expand`: the ordering enumerations this stage actually ran
    /// (one per distinct in-play set), timed like `expand_tiles`.
    #[serde(default)]
    pub expand_orderings: Duration,
    /// Part of `expand`: hashing the stage's children once every parent's
    /// runs are decided — the `nest` and `estimate` columns allocated at
    /// their length, then one scratch row, which takes each parent's row
    /// and each run's unroll and ordering, then per child two slice writes
    /// over the last child's, two levels of the run's nest key rewritten
    /// and the key hashed. No row is written: a candidate is its run's
    /// entry plus its `nest` and `estimate` columns (the name predates
    /// that). One clock pair per stage. What `expand` has beyond its four
    /// parts is memo lookups and replays and deciding the children.
    #[serde(default)]
    pub expand_rows: Duration,
    /// Wall time of the estimate round: the search for the round's
    /// repeats in its own index, plus, for the misses, the three parts
    /// below; what they leave of it is that search.
    pub estimate: Duration,
    /// Part of `estimate`: the serial pass over the misses that builds one
    /// decided-prefix cost per beam parent.
    pub estimate_prefix: Duration,
    /// Part of `estimate`: the pool round — the cost model's count kernel
    /// over each claim's misses, each written as its row.
    pub estimate_price: Duration,
    /// Part of `estimate`: settling each miss's entry of the estimate
    /// column and copying prices to the in-round repeats.
    pub estimate_publish: Duration,
    /// Wall time of ranking the candidates and writing the survivors'
    /// rows as the next beam.
    pub select: Duration,
}

/// Search statistics of one scheduling run.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct SearchStats {
    /// Complete mappings whose estimate the search requested (the
    /// optimization space actually visited — comparable across tools in
    /// Table I). Split from the former `evaluated` counter: `probed`
    /// counts estimate requests, [`modeled`](Self::modeled) the subset
    /// that actually ran the analytic model.
    pub probed: u64,
    /// Estimate probes that were the first of their loop nest in their
    /// round and ran the cost model to the end (`probed − modeled −
    /// bounded` copied an earlier one's price). 0 on a result the session
    /// answered from its memo: nothing was modeled for that call.
    pub modeled: u64,
    /// Estimate probes that were the first of their loop nest in their
    /// round and were cut by the bound
    /// before they were priced: the model priced only their outermost
    /// storing pairs, and that already put them past the beam. Every miss
    /// is modeled or bounded (`cache_misses == modeled + bounded` on a
    /// search that ran to the end); 0 on a result answered from the memo.
    #[serde(default)]
    pub bounded: u64,
    /// Model evaluations that reused a memoized decided-prefix cost
    /// (prefix-incremental estimation) instead of re-deriving every
    /// level's access counts from scratch: per beam parent, its priced
    /// candidates but the first. Bounded candidates are not counted.
    pub prefix_hits: u64,
    /// Batch dispatches: contiguous runs of two or more candidates
    /// that share a decided prefix, priced by one call of the model's
    /// count kernel. Runs of one, and runs priced against the empty
    /// prefix of a stage that decides nothing, are not counted.
    #[serde(default)]
    pub batches: u64,
    /// Model evaluations priced to the end inside such a run (the
    /// remainder of [`modeled`](Self::modeled) was priced alone or with no
    /// prefix; bounded candidates are not counted).
    #[serde(default)]
    pub batched: u64,
    /// Always 0: nothing writes it. Kept because the repo benchmark reads it.
    #[serde(default)]
    pub seed_evals: u64,
    /// Parallel fan-out rounds dispatched to the session worker pool.
    pub rounds: u64,
    /// Loop orderings considered across all stages.
    pub orderings: u64,
    /// Tiles considered across all stages.
    pub tiles: u64,
    /// Spatial unrollings considered across all stages.
    pub unrollings: u64,
    /// Trie / tree nodes explored while enumerating: the logical count,
    /// replayed on every ask of an enumeration, memo hit or not, so it
    /// reads as if every beam parent had enumerated for itself.
    pub nodes_explored: u64,
    /// Calls of the tile and unrolling enumerators' `fits` predicates — the
    /// capacity probes actually made, beside the replayed
    /// [`nodes_explored`](Self::nodes_explored): a memo hit adds none. 0 on
    /// a result the session answered from its memo.
    #[serde(default)]
    pub capacity_probes: u64,
    /// Tile enumerations answered from the search's memo (or from the
    /// parent's own earlier asks with the same base and quotas).
    #[serde(default)]
    pub tile_memo_hits: u64,
    /// Tile enumerations that ran.
    #[serde(default)]
    pub tile_memo_misses: u64,
    /// Per-fabric unrolling enumerations answered from the search's memo.
    #[serde(default)]
    pub unroll_memo_hits: u64,
    /// Per-fabric unrolling enumerations that ran.
    #[serde(default)]
    pub unroll_memo_misses: u64,
    /// In-round repeats: estimates copied from an earlier candidate of the
    /// same round with the same loop nest.
    pub cache_hits: u64,
    /// Estimate misses, the first candidate of each loop nest of a round:
    /// each was modeled or bounded.
    pub cache_misses: u64,
    /// Wall-clock time of the search.
    pub elapsed: Duration,
    /// Part of `elapsed` after the last stage: completing (if the walk was
    /// cut short), validating and pricing the final beam afresh for the
    /// caller. With the per-level phases it
    /// accounts for the search's wall time, less building its context.
    #[serde(default)]
    pub rank: Duration,
    /// Per-level, per-principle pruning breakdown, indexed by stage.
    pub levels: Vec<LevelStats>,
}

impl SearchStats {
    /// The per-level record for `stage`, growing the vector as stages are
    /// first touched.
    pub(crate) fn level_mut(&mut self, stage: usize) -> &mut LevelStats {
        while self.levels.len() <= stage {
            let level = self.levels.len();
            self.levels.push(LevelStats { level, ..LevelStats::default() });
        }
        &mut self.levels[stage]
    }

    /// Total candidates the beam cut across all stages.
    pub fn beam_cut(&self) -> u64 {
        self.levels.iter().map(|l| l.beam.pruned()).sum()
    }

    /// Aggregate of one principle across all levels.
    pub fn total_of(&self, principle: impl Fn(&LevelStats) -> PruneCounter) -> PruneCounter {
        let mut total = PruneCounter::default();
        for l in &self.levels {
            total.merge(&principle(l));
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prune_counter_arithmetic() {
        let mut c = PruneCounter::default();
        c.record(10, 3);
        c.record(6, 1);
        assert_eq!(c.considered, 16);
        assert_eq!(c.kept, 4);
        assert_eq!(c.pruned(), 12);
        assert!((c.pruned_fraction() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn empty_counter_has_zero_fraction() {
        assert_eq!(PruneCounter::default().pruned_fraction(), 0.0);
    }

    #[test]
    fn level_mut_grows_and_labels() {
        let mut stats = SearchStats::default();
        stats.level_mut(2).beam.record(5, 2);
        assert_eq!(stats.levels.len(), 3);
        assert_eq!(stats.levels[2].level, 2);
        assert_eq!(stats.levels[0].level, 0);
        assert_eq!(stats.beam_cut(), 3);
    }

    #[test]
    fn totals_aggregate_across_levels() {
        let mut stats = SearchStats::default();
        stats.level_mut(0).tiling.record(8, 2);
        stats.level_mut(1).tiling.record(4, 1);
        let total = stats.total_of(|l| l.tiling);
        assert_eq!(total.considered, 12);
        assert_eq!(total.kept, 3);
    }
}

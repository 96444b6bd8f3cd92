//! Coverage of the structured per-level, per-principle search statistics
//! and the search's estimate rounds.

use sunstone::{Scheduler, SunstoneConfig};
use sunstone_arch::presets;
use sunstone_ir::Workload;

/// The Simba conv2d layer from the scheduler tests: deep enough that
/// every stage exercises every enumerator.
fn simba_conv2d() -> Workload {
    let mut b = Workload::builder("conv2d");
    let n = b.dim("N", 2);
    let k = b.dim("K", 32);
    let c = b.dim("C", 32);
    let p = b.dim("P", 14);
    let q = b.dim("Q", 14);
    let r = b.dim("R", 3);
    let s = b.dim("S", 3);
    b.input_bits("ifmap", [n.expr(), c.expr(), p + r, q + s], 8);
    b.input_bits("weight", [k.expr(), c.expr(), r.expr(), s.expr()], 8);
    b.output_bits("ofmap", [n.expr(), k.expr(), p.expr(), q.expr()], 24);
    b.build().unwrap()
}

#[test]
fn per_principle_counts_are_nonzero_on_simba_conv2d() {
    let w = simba_conv2d();
    let arch = presets::simba_like();
    let r = Scheduler::new(SunstoneConfig::default()).schedule(&w, &arch).unwrap();
    let stats = &r.stats;

    assert!(!stats.levels.is_empty(), "per-level records exist");
    for (i, level) in stats.levels.iter().enumerate() {
        assert_eq!(level.level, i, "levels are indexed by stage");
    }

    let ordering = stats.total_of(|l| l.ordering);
    let tiling = stats.total_of(|l| l.tiling);
    let unrolling = stats.total_of(|l| l.unrolling);
    let beam = stats.total_of(|l| l.beam);
    assert!(ordering.considered > 0 && ordering.kept > 0, "ordering: {ordering:?}");
    assert!(ordering.pruned() > 0, "the trie prunes orderings: {ordering:?}");
    assert!(tiling.considered > 0 && tiling.kept > 0, "tiling: {tiling:?}");
    assert!(tiling.pruned() > 0, "the maximal frontier prunes tiles: {tiling:?}");
    assert!(unrolling.considered > 0 && unrolling.kept > 0, "unrolling: {unrolling:?}");
    assert!(beam.considered > 0, "beam: {beam:?}");
    assert!(stats.beam_cut() > 0, "the beam cuts candidates on Simba");
    let no_reuse: u64 = stats.levels.iter().map(|l| l.ordering_no_reuse).sum();
    assert!(no_reuse > 0, "Ordering Principle 3 rejects some extensions");
    let dominated: u64 = stats.levels.iter().map(|l| l.ordering_dominated).sum();
    assert!(dominated > 0, "sibling dominance removes some orderings");
}

#[test]
fn beam_considered_sums_to_probed() {
    let w = simba_conv2d();
    let arch = presets::simba_like();
    let r = Scheduler::new(SunstoneConfig::default()).schedule(&w, &arch).unwrap();
    let per_level: u64 = r.stats.levels.iter().map(|l| l.beam.considered).sum();
    assert_eq!(per_level, r.stats.probed, "every estimated candidate faces the beam");
    let probes: u64 = r.stats.levels.iter().map(|l| l.cache_hits + l.cache_misses).sum();
    assert_eq!(probes, r.stats.probed, "every candidate is a hit or a miss of its round");
    // A miss is priced or, when its bound already puts it past the beam,
    // cut before it is: the two together are the misses.
    let per_level_misses: u64 = r.stats.levels.iter().map(|l| l.cache_misses).sum();
    assert_eq!(
        per_level_misses,
        r.stats.modeled + r.stats.bounded,
        "modeled and bounded split the per-level cache misses"
    );
    let per_level_bounded: u64 = r.stats.levels.iter().map(|l| l.bounded).sum();
    assert_eq!(per_level_bounded, r.stats.bounded, "bounded sums over the levels");
    assert!(r.stats.bounded > 0, "the bound cuts candidates on Simba");
    assert!(r.stats.modeled <= r.stats.probed, "the model runs at most once per probe");
    assert!(r.stats.rounds > 0, "estimation fans out over the pool");
    assert!(r.stats.prefix_hits > 0, "outer stages reuse memoized prefixes on Simba");
}

#[test]
fn estimate_cache_hits_and_preserves_edp() {
    let w = simba_conv2d();
    let arch = presets::simba_like();
    let cached = Scheduler::new(SunstoneConfig::default()).schedule(&w, &arch).unwrap();
    assert!(cached.stats.cache_hits > 0, "the rounds' repeats are exercised");
    assert!(cached.stats.cache_misses > 0, "misses are counted too");
    assert!(
        cached.stats.modeled < cached.stats.probed,
        "the rounds' repeats skip model evaluations: {} of {} probes modeled",
        cached.stats.modeled,
        cached.stats.probed
    );

    // What the rounds only ranked, the caller gets priced afresh: the
    // report is the model's own for the returned mapping.
    let binding = sunstone_arch::Binding::resolve(&arch, &w).unwrap();
    let fresh = sunstone_model::CostModel::new(&w, &arch, &binding).evaluate(&cached.mapping);
    assert_eq!(cached.report.edp.to_bits(), fresh.unwrap().edp.to_bits());
}

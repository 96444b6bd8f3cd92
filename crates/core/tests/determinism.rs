//! The search result must not depend on the worker-thread count: cache
//! probing and candidate ordering happen on the calling thread, and
//! parallel estimation writes results back by candidate index, so
//! a `top_k` call returns identical mappings in identical order for any
//! `threads` setting.

use std::time::Duration;

use sunstone::{ScheduleOptions, Scheduler, SearchStats, SunstoneConfig};
use sunstone_arch::presets;
use sunstone_ir::Workload;

fn conv2d() -> Workload {
    let mut b = Workload::builder("conv2d");
    let n = b.dim("N", 1);
    let k = b.dim("K", 16);
    let c = b.dim("C", 16);
    let p = b.dim("P", 14);
    let q = b.dim("Q", 14);
    let r = b.dim("R", 3);
    let s = b.dim("S", 3);
    b.input("ifmap", [n.expr(), c.expr(), p + r, q + s]);
    b.input("weight", [k.expr(), c.expr(), r.expr(), s.expr()]);
    b.output("ofmap", [n.expr(), k.expr(), p.expr(), q.expr()]);
    b.build().unwrap()
}

fn matmul() -> Workload {
    let mut b = Workload::builder("mm");
    let m = b.dim("M", 128);
    let n = b.dim("N", 128);
    let k = b.dim("K", 128);
    b.input("a", [m.expr(), k.expr()]);
    b.input("b", [k.expr(), n.expr()]);
    b.output("out", [m.expr(), n.expr()]);
    b.build().unwrap()
}

fn assert_thread_invariant(w: &Workload) {
    let arch = presets::conventional();
    let k = 8;
    let run = |threads: usize| {
        Scheduler::new(SunstoneConfig { threads, ..SunstoneConfig::default() })
            .schedule_with(w, &arch, &ScheduleOptions::new().top_k(k))
            .unwrap()
            .into_results()
    };
    let one = run(1);
    let four = run(4);
    assert_eq!(one.len(), four.len(), "same number of results");
    for (i, (a, b)) in one.iter().zip(&four).enumerate() {
        assert_eq!(a.report.edp, b.report.edp, "EDP differs at rank {i}");
        assert_eq!(a.mapping, b.mapping, "mapping differs at rank {i}");
    }
}

#[test]
fn conv2d_top_k_is_identical_for_1_and_4_threads() {
    assert_thread_invariant(&conv2d());
}

#[test]
fn matmul_top_k_is_identical_for_1_and_4_threads() {
    assert_thread_invariant(&matmul());
}

/// A small tensor-times-matrix chain (Tucker decomposition),
/// `out[i,l,m] = Σ_{j,k} A[i,j,k] × B[j,l] × C[k,m]`: a tensor kernel with
/// three inputs.
fn ttmc() -> Workload {
    let mut b = Workload::builder("ttmc");
    let i = b.dim("I", 128);
    let j = b.dim("J", 256);
    let k = b.dim("K", 64);
    let l = b.dim("L", 8);
    let m = b.dim("M", 8);
    b.input("A", [i.expr(), j.expr(), k.expr()]);
    b.input("B", [j.expr(), l.expr()]);
    b.input("C", [k.expr(), m.expr()]);
    b.output("out", [i.expr(), l.expr(), m.expr()]);
    b.build().unwrap()
}

/// The session worker pool must be invisible in the results: a pool with
/// 0, 1, or 7 background workers (threads = 1/2/8) claims candidate
/// indices in whatever order, but writes reports back by index, so the
/// chosen mapping and every report bit are identical. So is every
/// counter of the search's statistics ([`untimed`]): the estimate round
/// takes the bound's threshold between waves whose bounds depend only on
/// the round's size, so the same candidates are priced and the same are
/// cut at every thread count. Returns the one-thread result's `bounded`.
fn assert_pool_invariant(w: &Workload, arch: &sunstone_arch::ArchSpec) -> u64 {
    let run = |threads: usize| {
        let s = Scheduler::new(SunstoneConfig { threads, ..SunstoneConfig::default() });
        s.schedule(w, arch).unwrap()
    };
    let one = run(1);
    for threads in [2, 8] {
        let other = run(threads);
        assert_eq!(one.mapping, other.mapping, "mapping differs at {threads} threads");
        assert_eq!(
            one.report.energy_pj.to_bits(),
            other.report.energy_pj.to_bits(),
            "energy bits differ at {threads} threads"
        );
        assert_eq!(
            one.report.delay_cycles.to_bits(),
            other.report.delay_cycles.to_bits(),
            "delay bits differ at {threads} threads"
        );
        assert_eq!(
            one.report.edp.to_bits(),
            other.report.edp.to_bits(),
            "EDP bits differ at {threads} threads"
        );
        assert_eq!(
            untimed(&one.stats),
            untimed(&other.stats),
            "search counters differ at {threads} threads"
        );
    }
    one.stats.bounded
}

/// `stats` with every timer zeroed: the counters alone, search-wide and
/// per stage — `probed`, `modeled`, `bounded`, `nodes_explored`,
/// `capacity_probes`, the enumeration memos' and the estimate rounds' hits
/// and misses, every pruning counter.
fn untimed(stats: &SearchStats) -> SearchStats {
    let mut stats = stats.clone();
    (stats.elapsed, stats.rank) = (Duration::ZERO, Duration::ZERO);
    for l in &mut stats.levels {
        for timer in [
            &mut l.expand,
            &mut l.expand_tiles,
            &mut l.expand_unrolls,
            &mut l.expand_orderings,
            &mut l.expand_rows,
            &mut l.estimate,
            &mut l.estimate_prefix,
            &mut l.estimate_price,
            &mut l.estimate_publish,
            &mut l.select,
        ] {
            *timer = Duration::ZERO;
        }
    }
    stats
}

#[test]
fn pool_results_are_identical_for_1_2_and_8_threads() {
    assert_pool_invariant(&conv2d(), &presets::simba_like());
}

/// A ResNet-18 `conv3_x`-shaped Simba layer, where the bound cuts: the
/// cut set is thread-invariant.
#[test]
fn bounded_simba_layer_is_identical_for_1_2_and_8_threads() {
    let mut b = Workload::builder("conv3_x");
    let k = b.dim("K", 128);
    let c = b.dim("C", 128);
    let p = b.dim("P", 28);
    let q = b.dim("Q", 28);
    let r = b.dim("R", 3);
    let s = b.dim("S", 3);
    b.input_bits("ifmap", [c.expr(), p + r, q + s], 8);
    b.input_bits("weight", [k.expr(), c.expr(), r.expr(), s.expr()], 8);
    b.output_bits("ofmap", [k.expr(), p.expr(), q.expr()], 24);
    let bounded = assert_pool_invariant(&b.build().unwrap(), &presets::simba_like());
    assert!(bounded > 0, "the bound cuts candidates on this layer");
}

/// A tensor kernel on the conventional preset, where the bound cuts a
/// few candidates.
#[test]
fn tensor_kernel_on_conventional_is_identical_for_1_2_and_8_threads() {
    let bounded = assert_pool_invariant(&ttmc(), &presets::conventional());
    assert!(bounded > 0, "the bound cuts candidates on this kernel");
}

//! End-to-end scheduler tests over the preset architectures (previously
//! the driver's unit tests; they only use the public API).

use sunstone::{Scheduler, SunstoneConfig};
use sunstone_arch::{presets, Binding};
use sunstone_ir::Workload;
use sunstone_mapping::Mapping;
use sunstone_model::CostModel;

fn conv1d(k: u64, c: u64, p: u64, r: u64) -> Workload {
    let mut b = Workload::builder("conv1d");
    let kk = b.dim("K", k);
    let cc = b.dim("C", c);
    let pp = b.dim("P", p);
    let rr = b.dim("R", r);
    b.input("ifmap", [cc.expr(), pp + rr]);
    b.input("weight", [kk.expr(), cc.expr(), rr.expr()]);
    b.output("ofmap", [kk.expr(), pp.expr()]);
    b.build().unwrap()
}

fn conv2d(n: u64, k: u64, c: u64, hw: u64, rs: u64) -> Workload {
    let mut b = Workload::builder("conv2d");
    let nn = b.dim("N", n);
    let kk = b.dim("K", k);
    let cc = b.dim("C", c);
    let pp = b.dim("P", hw);
    let qq = b.dim("Q", hw);
    let rr = b.dim("R", rs);
    let ss = b.dim("S", rs);
    b.input("ifmap", [nn.expr(), cc.expr(), pp + rr, qq + ss]);
    b.input("weight", [kk.expr(), cc.expr(), rr.expr(), ss.expr()]);
    b.output("ofmap", [nn.expr(), kk.expr(), pp.expr(), qq.expr()]);
    b.build().unwrap()
}

#[test]
fn schedules_conv_on_conventional() {
    let w = conv1d(16, 16, 56, 3);
    let arch = presets::conventional();
    let result = Scheduler::new(SunstoneConfig::default()).schedule(&w, &arch).unwrap();
    // The found mapping must be valid and dramatically better than
    // streaming.
    let binding = Binding::resolve(&arch, &w).unwrap();
    let model = CostModel::new(&w, &arch, &binding);
    let streaming = model.evaluate(&Mapping::streaming(&w, &arch)).unwrap();
    assert!(result.report.edp < streaming.edp / 10.0);
    assert!(result.stats.probed > 0);
    assert!(result.mapping.used_parallelism() > 1, "the grid is used");
}

#[test]
fn schedules_conv2d_on_simba() {
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
    let w = b.build().unwrap();
    let arch = presets::simba_like();
    let result = Scheduler::new(SunstoneConfig::default()).schedule(&w, &arch).unwrap();
    assert!(result.report.edp > 0.0);
    assert!(
        result.mapping.used_parallelism() >= 64,
        "multi-level parallelism exploited: {}",
        result.mapping.used_parallelism()
    );
}

#[test]
fn schedules_matmul() {
    let mut b = Workload::builder("mm");
    let m = b.dim("M", 128);
    let n = b.dim("N", 128);
    let k = b.dim("K", 128);
    b.input("a", [m.expr(), k.expr()]);
    b.input("b", [k.expr(), n.expr()]);
    b.output("out", [m.expr(), n.expr()]);
    let w = b.build().unwrap();
    let arch = presets::conventional();
    let result = Scheduler::new(SunstoneConfig::default()).schedule(&w, &arch).unwrap();
    assert!(result.report.edp > 0.0);
}

#[test]
fn mttkrp_schedules_without_conv_specific_logic() {
    let mut b = Workload::builder("mttkrp");
    let i = b.dim("I", 64);
    let j = b.dim("J", 32);
    let k = b.dim("K", 64);
    let l = b.dim("L", 64);
    b.input("A", [i.expr(), k.expr(), l.expr()]);
    b.input("B", [k.expr(), j.expr()]);
    b.input("C", [l.expr(), j.expr()]);
    b.output("out", [i.expr(), j.expr()]);
    let w = b.build().unwrap();
    let arch = presets::conventional();
    let result = Scheduler::new(SunstoneConfig::default()).schedule(&w, &arch).unwrap();
    assert!(result.report.edp > 0.0);
    assert!(result.mapping.used_parallelism() > 1);
}

#[test]
fn larger_beam_never_hurts() {
    let w = conv2d(1, 16, 16, 14, 3);
    let arch = presets::conventional();
    let narrow = Scheduler::new(SunstoneConfig { beam_width: 2, ..Default::default() })
        .schedule(&w, &arch)
        .unwrap();
    let wide = Scheduler::new(SunstoneConfig { beam_width: 64, ..Default::default() })
        .schedule(&w, &arch)
        .unwrap();
    assert!(wide.report.edp <= narrow.report.edp * 1.0001);
}

#[test]
fn stats_are_populated() {
    let w = conv1d(16, 16, 28, 3);
    let arch = presets::conventional();
    let r = Scheduler::new(SunstoneConfig::default()).schedule(&w, &arch).unwrap();
    assert!(r.stats.probed > 0);
    assert!(r.stats.orderings > 0);
    assert!(r.stats.tiles > 0);
    assert!(r.stats.nodes_explored > 0);
    assert!(r.stats.elapsed.as_nanos() > 0);
}

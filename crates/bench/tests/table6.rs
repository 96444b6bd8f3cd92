//! The Table VI study search: every variant schedules, repeats itself
//! bit for bit, and keeps the paper's qualitative findings.

use sunstone::{Scheduler, SunstoneConfig};
use sunstone_arch::{presets, ArchSpec, Binding};
use sunstone_bench::table6::{self, Direction, IntraOrder, VARIANTS};
use sunstone_ir::Workload;
use sunstone_mapping::ValidationContext;

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

/// Named `weight`/`ifmap`/`ofmap` so the DianNao partition filters resolve.
fn conv2d(name: &str, n: u64, k: u64, c: u64, hw: u64, rs: u64) -> Workload {
    let mut b = Workload::builder(name);
    let nn = b.dim("N", n);
    let kk = b.dim("K", k);
    let cc = b.dim("C", c);
    let pp = b.dim("P", hw);
    let qq = b.dim("Q", hw);
    let rr = b.dim("R", rs);
    let ss = b.dim("S", rs);
    b.input_bits("ifmap", [nn.expr(), cc.expr(), pp + rr, qq + ss], 8);
    b.input_bits("weight", [kk.expr(), cc.expr(), rr.expr(), ss.expr()], 8);
    b.output_bits("ofmap", [nn.expr(), kk.expr(), pp.expr(), qq.expr()], 24);
    b.build().unwrap()
}

fn matmul() -> Workload {
    let mut b = Workload::builder("mm");
    let m = b.dim("M", 256);
    let n = b.dim("N", 192);
    let k = b.dim("K", 384);
    b.input("a", [m.expr(), k.expr()]);
    b.input("weight", [k.expr(), n.expr()]);
    b.output("out", [m.expr(), n.expr()]);
    b.build().unwrap()
}

/// The four (workload, architecture) pairs `golden_paths` pins the
/// library's search on.
fn golden_pairs() -> Vec<(&'static str, Workload, ArchSpec)> {
    vec![
        ("conv2d/simba", conv2d("conv2d", 2, 64, 64, 28, 3), presets::simba_like()),
        ("conv1d/conventional", conv1d(128, 128, 8192, 3), presets::conventional()),
        ("conv2d/diannao", conv2d("conv2d_s", 1, 32, 32, 14, 3), presets::diannao_like()),
        ("matmul/diannao", matmul(), presets::diannao_like()),
    ]
}

/// Every variant returns a mapping the validator accepts on every golden
/// pair — tile → unroll → order on `conv2d/simba` included — and a second
/// run returns the same mapping, price and counters.
#[test]
fn every_variant_returns_a_valid_mapping_and_repeats_bit_identically() {
    for (pair, w, arch) in golden_pairs() {
        let binding = Binding::resolve(&arch, &w).unwrap();
        let validation = ValidationContext::new(&w, &arch, &binding);
        for variant in VARIANTS {
            let case = format!("{pair} {variant:?}");
            let first =
                table6::search(&w, &arch, variant, 48).unwrap_or_else(|e| panic!("{case}: {e}"));
            validation.validate(&first.mapping).unwrap_or_else(|e| panic!("{case}: {e}"));
            assert!(first.priced > 0 && first.nodes > 0, "{case}");
            let again = table6::search(&w, &arch, variant, 48).unwrap();
            assert_eq!(first.mapping, again.mapping, "{case}");
            assert_eq!(first.report.edp.to_bits(), again.report.edp.to_bits(), "{case}");
            assert_eq!(
                (first.priced, first.nodes, first.beam_cut),
                (again.priced, again.nodes, again.beam_cut),
                "{case}"
            );
        }
    }
}

#[test]
fn top_down_finds_comparable_edp_with_larger_space() {
    // Large enough that the whole problem exceeds L2 (3.1 MB): the
    // off-chip level has real tiling decisions to make.
    let w = conv1d(128, 128, 8192, 3);
    let arch = presets::conventional();
    let bu = Scheduler::new(SunstoneConfig::default()).schedule(&w, &arch).unwrap();
    let top_down = (Direction::TopDown, IntraOrder::UnrollTileOrder);
    let td = table6::search(&w, &arch, top_down, 48).unwrap();
    // The paper's Table VI message: bottom-up is the right default.
    assert!(
        td.report.edp >= bu.report.edp,
        "bottom-up at least as good: bu={} td={}",
        bu.report.edp,
        td.report.edp
    );
    let wide = table6::search(&w, &arch, top_down, 512).unwrap();
    assert!(wide.report.edp <= td.report.edp, "a wider top-down beam only helps");
}

#[test]
fn intra_order_variants_agree_on_quality() {
    let w = conv1d(16, 16, 28, 3);
    let arch = presets::conventional();
    let mut edps = Vec::new();
    for intra in
        [IntraOrder::OrderTileUnroll, IntraOrder::UnrollTileOrder, IntraOrder::TileUnrollOrder]
    {
        let r = table6::search(&w, &arch, (Direction::BottomUp, intra), 48).unwrap();
        edps.push(r.report.edp);
    }
    let best = edps.iter().cloned().fold(f64::INFINITY, f64::min);
    for e in &edps {
        assert!(*e <= best * 2.0, "intra orders stay close: {edps:?}");
    }
}

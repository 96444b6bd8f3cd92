//! Bit-exact pins for the search calls no benchmark runs.
//!
//! The repo benchmark and `results/bench_baseline.json` only ever run a
//! plain default-configuration call. Constrained calls and `top_k > 1`
//! had only loose EDP inequalities, so a refactor of the search internals
//! could change *which* candidates they build and nothing would notice.
//! Each case below pins the result (`mapping_fingerprint`, EDP bits) and
//! the counters that describe the enumeration (`probed`, `modeled`,
//! `nodes_explored`, `beam_cut()`) of three calls per
//! pair: the default search (`bu uto cache`: bottom-up, unroll→tile→order),
//! a dataflow-template-constrained one, and a `top_k` 8 one.
//!
//! The constants were recorded at the commit before the candidate arena
//! landed; the labels date from when the configuration chose among two
//! walk directions and three intra-level orders and an `estimate_cache`
//! knob had a ` nocache` twin of every row (the knobs and their rows went,
//! the remaining rows are unedited; the other orders are now the Table VI
//! study in `sunstone-bench`). The `modeled` column of some rows was
//! re-recorded when the estimate table came to be keyed by loop nest:
//! candidates that differ only in where a factor-1 dimension sits in a
//! level's order are now priced once per round, every other column
//! unchanged. The `modeled` column of four rows (`conv2d/simba` default,
//! template and top-8; `conv1d/conventional` template) was re-recorded
//! again when the estimate round came to bound before it prices: a
//! candidate whose outermost storing pairs alone already price it past
//! the `beam_width`-th best estimate known in the round is cut (counted in
//! `SearchStats::bounded`, not `modeled`); it could never have entered the
//! beam, so every other column is unchanged. The rows had a seventh
//! column, Σ `dedup_removed`, until the duplicate-elimination pass went:
//! it read 0 in every row, and a stage's rows are now distinct by
//! construction, so nothing counts it; the other six columns are
//! unedited. The counters of the two `WeightStationaryCK` rows
//! (`conv2d/simba template`, `conv1d/conventional template`) were
//! re-recorded when the tile enumeration came to measure its parallelism
//! reserve over what the fabrics above may unroll (the allow-list's `C`
//! and `K`), not over every dimension: tiles that no allowed unroll
//! could feed are no longer grown, so `probed`, `modeled`,
//! `nodes_explored` and `beam_cut` fell, and the fingerprint and EDP bits
//! are unchanged. The `probed` column of every row was re-recorded when
//! the search stopped running the outermost memory's stage on
//! architectures with no fabric directly below that memory: that stage's
//! children were its parents, one per final-beam state, so `probed` fell
//! by each row's final beam (48, or 30 on the two DianNao template rows)
//! and every other column is unchanged. To regenerate after an
//! *intended* behaviour change:
//! `cargo test -p sunstone --test golden_paths -- --ignored --nocapture`
//! and paste the printed table over `GOLDEN`.

use sunstone::fingerprint::mapping_fingerprint;
use sunstone::prelude::*;
use sunstone_arch::{presets, ArchSpec};
use sunstone_ir::Workload;

/// `[mapping_fp, edp_bits, probed, modeled, nodes_explored, beam_cut]`.
type Row = [u64; 6];

fn conv1d() -> Workload {
    let mut b = Workload::builder("conv1d");
    let k = b.dim("K", 128);
    let c = b.dim("C", 128);
    let p = b.dim("P", 8192);
    let r = b.dim("R", 3);
    b.input("ifmap", [c.expr(), p + r]);
    b.input("weight", [k.expr(), c.expr(), r.expr()]);
    b.output("ofmap", [k.expr(), p.expr()]);
    b.build().unwrap()
}

/// Named `weight`/`ifmap`/`ofmap` so the DianNao partition filters and the
/// convolution dataflow templates both resolve.
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

/// (label, workload, arch, the dataflow template of the constrained call).
fn pairs() -> Vec<(&'static str, Workload, ArchSpec, DataflowTemplate)> {
    use DataflowTemplate::{OutputStationary, WeightStationaryCK};
    vec![
        (
            "conv2d/simba",
            conv2d("conv2d", 2, 64, 64, 28, 3),
            presets::simba_like(),
            WeightStationaryCK,
        ),
        ("conv1d/conventional", conv1d(), presets::conventional(), WeightStationaryCK),
        (
            "conv2d/diannao",
            conv2d("conv2d_s", 1, 32, 32, 14, 3),
            presets::diannao_like(),
            WeightStationaryCK,
        ),
        // No C/K dimensions to hold stationary: the role-based template.
        ("matmul/diannao", matmul(), presets::diannao_like(), OutputStationary),
    ]
}

/// One scheduling call condensed to its pinned row. Several results (the
/// `top_k` case) fold their fingerprints, so a single result pins its own
/// fingerprint unchanged.
fn row(outcome: Result<Vec<ScheduleResult>, ScheduleError>) -> Row {
    let results = outcome.expect("every pinned call schedules");
    let best = &results[0];
    let fp =
        results.iter().fold(0u64, |acc, r| acc.rotate_left(5) ^ mapping_fingerprint(&r.mapping));
    let s = &best.stats;
    [fp, best.report.edp.to_bits(), s.probed, s.modeled, s.nodes_explored, s.beam_cut()]
}

fn run_all() -> Vec<(String, Row)> {
    let mut rows = Vec::new();
    for (pair, w, arch, template) in pairs() {
        rows.push((
            format!("{pair} bu uto cache"),
            row(Scheduler::new(SunstoneConfig::default()).schedule(&w, &arch).map(|r| vec![r])),
        ));
        let session = Scheduler::new(SunstoneConfig::default());
        let opts = ScheduleOptions::new().constraints(template.constraints(&arch));
        rows.push((
            format!("{pair} template"),
            row(session.schedule_with(&w, &arch, &opts).map(ScheduleOutcome::into_results)),
        ));
        // A fresh session: the template call above memoized a different
        // context, but the pinned counters should not depend on that
        // being true.
        let session = Scheduler::new(SunstoneConfig::default());
        let opts = ScheduleOptions::new().top_k(8);
        rows.push((
            format!("{pair} top8"),
            row(session.schedule_with(&w, &arch, &opts).map(ScheduleOutcome::into_results)),
        ));
    }
    rows
}

/// The generator: prints `GOLDEN` in source form.
#[test]
#[ignore = "generator for the GOLDEN table; run with --ignored --nocapture"]
fn print_golden_table() {
    for (label, r) in run_all() {
        println!(
            "    (\"{label}\", [0x{:016x}, 0x{:016x}, {}, {}, {}, {}]),",
            r[0], r[1], r[2], r[3], r[4], r[5]
        );
    }
}

#[test]
fn every_path_matches_its_pinned_row() {
    let rows = run_all();
    assert_eq!(rows.len(), GOLDEN.len(), "case list and GOLDEN table differ in length");
    let mut diverged = Vec::new();
    for ((label, got), (want_label, want)) in rows.iter().zip(GOLDEN) {
        assert_eq!(label, want_label, "case order changed");
        if got != want {
            diverged.push(format!("{label}:\n   got {got:?}\n  want {want:?}"));
        }
    }
    assert!(diverged.is_empty(), "{} case(s) diverged:\n{}", diverged.len(), diverged.join("\n"));
}

#[rustfmt::skip]
const GOLDEN: &[(&str, Row)] = &[
    ("conv2d/simba bu uto cache", [0x933f821651cf458a, 0x42a03d0f611eb852, 6547, 1637, 44959, 6403]),
    ("conv2d/simba template", [0xa6791ecafb7a0633, 0x4297fb500d333333, 955, 485, 16417, 847]),
    ("conv2d/simba top8", [0xd53089560513c04b, 0x42a03d0f611eb852, 6547, 1637, 44959, 6403]),
    ("conv1d/conventional bu uto cache", [0x2694bf198284ec8b, 0x43155becc828f5c2, 238, 225, 4933, 164]),
    ("conv1d/conventional template", [0x4a53d7268cae913d, 0x4316d2b2c30a3d71, 160, 142, 3617, 95]),
    ("conv1d/conventional top8", [0xae7de35fe298f4b5, 0x43155becc828f5c2, 238, 225, 4933, 164]),
    ("conv2d/diannao bu uto cache", [0x797cbe96378131e4, 0x42374a3890000000, 48, 48, 1181, 0]),
    ("conv2d/diannao template", [0xebf4c25777838ca4, 0x422caddff3333333, 30, 30, 428, 0]),
    ("conv2d/diannao top8", [0x82034a8532fe9e40, 0x42374a3890000000, 48, 48, 1181, 0]),
    ("matmul/diannao bu uto cache", [0x6da91eaa9d4d9499, 0x42b5258000000000, 78, 78, 1103, 30]),
    ("matmul/diannao template", [0x48c16c55d2684469, 0x42f3375b99999999, 18, 18, 118, 0]),
    ("matmul/diannao top8", [0x748e44cccf569b6d, 0x42b5258000000000, 78, 78, 1103, 30]),
];

//! Bit-exact pins for the baseline mappers.
//!
//! The cross-tool tests and the figure binaries only check inequalities
//! between tools, so a refactor of a baseline could change what it
//! returns and nothing would notice. Each row below pins one
//! (mapper, case) run: the verdict (`mapping_fingerprint` of the mapping,
//! or the invalid reason), the EDP bits (0 when invalid) and the
//! `evaluated` / `invalid` counters. Timeloop runs on one thread, so its
//! sample stream — and with it the row — is deterministic.
//!
//! The constants were recorded when every baseline came to admit its
//! candidates through one rule (`Trial`). The code before that gave every
//! column equal except CoSA's `evaluated` on its invalid rows, which read
//! 1 there: an invalid solve was counted as evaluated and invalid both.
//!
//! To regenerate after an *intended* behaviour change:
//! `cargo test -p sunstone-baselines --test pins -- --ignored --nocapture`
//! and paste the printed table over `GOLDEN`.

use std::time::Duration;

use sunstone::fingerprint::mapping_fingerprint;
use sunstone_arch::{presets, ArchSpec};
use sunstone_baselines::{
    CosaMapper, DMazeConfig, DMazeMapper, GammaConfig, GammaMapper, InterstellarMapper, MapOutcome,
    Mapper, TimeloopConfig, TimeloopMapper,
};
use sunstone_ir::Workload;
use sunstone_workloads::{tensor, ConvSpec, Precision};

/// `(label, verdict, edp_bits, evaluated, invalid)`.
type Row = (String, String, u64, u64, u64);

fn mappers() -> Vec<Box<dyn Mapper>> {
    vec![
        Box::new(DMazeMapper::new("dMaze-fast", DMazeConfig::fast())),
        Box::new(InterstellarMapper::new()),
        Box::new(CosaMapper::new()),
        Box::new(GammaMapper::with_config(GammaConfig {
            population: 16,
            generations: 6,
            ..GammaConfig::default()
        })),
        Box::new(TimeloopMapper::new(
            "TL",
            TimeloopConfig {
                timeout: 200,
                victory_condition: 20,
                threads: 1,
                seed: 3,
                max_wall: Some(Duration::from_secs(60)),
            },
        )),
    ]
}

/// (label, workload, arch).
fn cases() -> Vec<(&'static str, Workload, ArchSpec)> {
    let conv = |n, k, c, pq, r, s, precision| {
        ConvSpec::new("conv", n, k, c, pq, pq, r, s, 1).inference(precision)
    };
    vec![
        (
            "conv k16/conventional",
            conv(2, 16, 16, 14, 3, 3, Precision::conventional()),
            presets::conventional(),
        ),
        (
            "conv k64/conventional",
            conv(2, 64, 64, 14, 3, 3, Precision::conventional()),
            presets::conventional(),
        ),
        (
            "conv k32/diannao",
            conv(1, 32, 32, 14, 3, 3, Precision::conventional()),
            presets::diannao_like(),
        ),
        ("conv k16/simba", conv(1, 16, 16, 8, 3, 3, Precision::simba()), presets::simba_like()),
        (
            "conv k256/conventional",
            conv(8, 256, 256, 14, 3, 3, Precision::conventional()),
            presets::conventional(),
        ),
        (
            "conv 1x7/conventional",
            conv(2, 16, 16, 16, 1, 7, Precision::conventional()),
            presets::conventional(),
        ),
        (
            "mttkrp/conventional",
            tensor::mttkrp(tensor::Shape3(16, 16, 16), 8),
            presets::conventional(),
        ),
    ]
}

fn row(label: String, out: &MapOutcome) -> Row {
    let verdict = match (&out.mapping, &out.invalid_reason) {
        (Some(m), _) => format!("{:016x}", mapping_fingerprint(m)),
        (None, reason) => reason.clone().unwrap_or_default(),
    };
    let edp_bits = out.edp().map_or(0, f64::to_bits);
    (label, verdict, edp_bits, out.stats.evaluated, out.stats.invalid)
}

fn run_all() -> Vec<Row> {
    let mut rows = Vec::new();
    for (case, w, arch) in cases() {
        for mapper in mappers() {
            rows.push(row(format!("{} {case}", mapper.name()), &mapper.map(&w, &arch)));
        }
    }
    rows
}

/// The generator: prints `GOLDEN` in source form.
#[test]
#[ignore = "generator for the GOLDEN table; run with --ignored --nocapture"]
fn print_golden_table() {
    for (label, verdict, edp_bits, evaluated, invalid) in run_all() {
        println!("    ({label:?}, {verdict:?}, 0x{edp_bits:016x}, {evaluated}, {invalid}),");
    }
}

#[test]
fn every_baseline_matches_its_pinned_row() {
    let rows = run_all();
    assert_eq!(rows.len(), GOLDEN.len(), "case list and GOLDEN table differ in length");
    let mut diverged = Vec::new();
    for (got, want) in rows.iter().zip(GOLDEN) {
        assert_eq!(got.0, want.0, "case order changed");
        let want_row = (want.0.to_string(), want.1.to_string(), want.2, want.3, want.4);
        if *got != want_row {
            diverged.push(format!("{}:\n   got {got:?}\n  want {want_row:?}", got.0));
        }
    }
    assert!(diverged.is_empty(), "{} case(s) diverged:\n{}", diverged.len(), diverged.join("\n"));
}

#[rustfmt::skip]
const GOLDEN: &[(&str, &str, u64, u64, u64)] = &[
    ("dMaze-fast conv k16/conventional", "no mapping meets the minimum utilization constraints", 0x0000000000000000, 0, 0),
    ("INTER conv k16/conventional", "6e9bb59bb3d757da", 0x420562d8911eb852, 5898, 0),
    ("CoSA conv k16/conventional", "linear relaxation produced an infeasible mapping: tile needs 608 B in `L1/l1` (512 B)", 0x0000000000000000, 0, 1),
    ("GAMMA conv k16/conventional", "a615271e6c04c9cb", 0x4211fafc40000000, 56, 50),
    ("TL conv k16/conventional", "5ea992f737c1fa1a", 0x421f28083547ae14, 23, 42),
    ("dMaze-fast conv k64/conventional", "no mapping meets the minimum utilization constraints", 0x0000000000000000, 0, 0),
    ("INTER conv k64/conventional", "e6f1fad27bec3f0b", 0x427da6df548f5c28, 213, 0),
    ("CoSA conv k64/conventional", "linear relaxation produced an infeasible mapping: tile needs 608 B in `L1/l1` (512 B)", 0x0000000000000000, 0, 1),
    ("GAMMA conv k64/conventional", "13da004649c5034a", 0x427d8288fc8f5c28, 67, 39),
    ("TL conv k64/conventional", "125181936a44465f", 0x4285e866edeb851e, 34, 123),
    ("dMaze-fast conv k32/diannao", "no L1 tiling meets the minimum utilization constraints", 0x0000000000000000, 0, 0),
    ("INTER conv k32/diannao", "no mapping can use the preset unrolling", 0x0000000000000000, 0, 9),
    ("CoSA conv k32/diannao", "ad1a8f7dbf4c8ec4", 0x425c49b293333332, 1, 0),
    ("GAMMA conv k32/diannao", "146f7c39501ccf23", 0x4252649453333333, 88, 18),
    ("TL conv k32/diannao", "2194b375579a8c9a", 0x424c3da344cccccd, 37, 30),
    ("dMaze-fast conv k16/simba", "supports at most 3 memory levels", 0x0000000000000000, 0, 0),
    ("INTER conv k16/simba", "multi-level hierarchies unsupported", 0x0000000000000000, 0, 0),
    ("CoSA conv k16/simba", "2fbff42db8b964ab", 0x41f1e2888f5c28f6, 1, 0),
    ("GAMMA conv k16/simba", "42a2f424b34bdd6e", 0x420c7b2e66666667, 19, 87),
    ("TL conv k16/simba", "623dd257692c250e", 0x41b5fc9f5c28f5c2, 38, 622),
    ("dMaze-fast conv k256/conventional", "75cb9733d0576927", 0x4338c15ee3bd70a4, 20646, 0),
    ("INTER conv k256/conventional", "f1c57eccd960dfe6", 0x4339fa177ae66666, 3579, 0),
    ("CoSA conv k256/conventional", "linear relaxation produced an infeasible mapping: tile needs 528 B in `L1/l1` (512 B)", 0x0000000000000000, 0, 1),
    ("GAMMA conv k256/conventional", "e2b4e8bec0a74ca3", 0x433c4f362d29851f, 36, 70),
    ("TL conv k256/conventional", "f362eac49b1324a9", 0x43438c37e61c0000, 35, 344),
    ("dMaze-fast conv 1x7/conventional", "assumes symmetric convolutions (R = S)", 0x0000000000000000, 0, 0),
    ("INTER conv 1x7/conventional", "d164b6fd1ffe9b2d", 0x42084745851eb852, 4512, 0),
    ("CoSA conv 1x7/conventional", "linear relaxation produced an infeasible mapping: tile needs 864 B in `L1/l1` (512 B)", 0x0000000000000000, 0, 1),
    ("GAMMA conv 1x7/conventional", "5b8d7952ee539848", 0x420f1738a3d70a3e, 64, 42),
    ("TL conv 1x7/conventional", "4e470d1052c9f7bc", 0x42199df3c28f5c29, 25, 64),
    ("dMaze-fast mttkrp/conventional", "no mapping meets the minimum utilization constraints", 0x0000000000000000, 0, 0),
    ("INTER mttkrp/conventional", "workload has no C/K channel dimensions (DNN-specific mapper)", 0x0000000000000000, 0, 0),
    ("CoSA mttkrp/conventional", "ee13420155d9f9c6", 0x41e2c1f0a3d70a3e, 1, 0),
    ("GAMMA mttkrp/conventional", "7877334455f030ec", 0x41b484087ae147ae, 96, 10),
    ("TL mttkrp/conventional", "c9532b9d5c721dec", 0x41b47cdc7ae147ae, 32, 12),
];

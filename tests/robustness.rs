//! Degenerate-input robustness grid: the public API must never panic.
//!
//! Every combination of pathological workload, architecture, and
//! configuration below is driven through `Scheduler::schedule` inside
//! `catch_unwind`; the contract is that each call returns `Ok` or a
//! *typed* `ScheduleError` — an escaped panic is a bug regardless of how
//! hostile the input is. (Internal panics converted by the isolation
//! boundary surface as `ScheduleError::Internal`, which this grid also
//! treats as a failure: none of these inputs should trip an internal
//! invariant.) The baseline mappers, the Table I space estimators and the
//! canonical dataflows run over the same inputs under the same contract:
//! an invalid outcome or `None`, never a panic, a hang, or a returned
//! mapping the validator rejects.

use std::panic::{self, AssertUnwindSafe};
use std::time::Duration;

use sunstone::prelude::*;
use sunstone_arch::{presets, ArchBuilder, ArchSpec, Binding};
use sunstone_baselines::{
    space, CosaMapper, DMazeConfig, DMazeMapper, GammaConfig, GammaMapper, InterstellarMapper,
    Mapper, SunstoneMapper, TimeloopConfig, TimeloopMapper,
};
use sunstone_ir::Workload;
use sunstone_mapping::dataflows::{stationary, Stationarity};
use sunstone_mapping::{Mapping, ValidationContext};

/// A workload where every dimension is 1: every divisor ladder is the
/// single factor {1}, every tile is one element.
fn all_ones() -> Workload {
    let mut b = Workload::builder("all_ones");
    let k = b.dim("K", 1);
    let c = b.dim("C", 1);
    let p = b.dim("P", 1);
    let r = b.dim("R", 1);
    b.input("ifmap", [c.expr(), p.expr() + r.expr()]);
    b.input("weight", [k.expr(), c.expr(), r.expr()]);
    b.output("ofmap", [k.expr(), p.expr()]);
    b.build().expect("valid workload")
}

/// Huge prime dimensions: divisor ladders collapse to {1, p}, tiling has
/// almost no freedom, and footprints/operation counts get large enough to
/// stress the arithmetic paths.
fn prime_dims() -> Workload {
    let mut b = Workload::builder("prime_dims");
    let m = b.dim("M", 104_729); // 10,000th prime
    let n = b.dim("N", 999_983); // largest prime below 10^6
    let k = b.dim("K", 2);
    b.input("a", [m.expr(), k.expr()]);
    b.input("b", [k.expr(), n.expr()]);
    b.output("c", [m.expr(), n.expr()]);
    b.build().expect("valid workload")
}

/// Power-of-two 2^40 dimensions: per-dim products reach 2^80 territory,
/// exercising the checked/saturating arithmetic in factors and footprints.
fn enormous_dims() -> Workload {
    let mut b = Workload::builder("enormous");
    let m = b.dim("M", 1 << 40);
    let n = b.dim("N", 1 << 40);
    b.input("a", [m.expr()]);
    b.input("b", [n.expr()]);
    b.output("c", [m.expr(), n.expr()]);
    b.build().expect("valid workload")
}

/// Four 2^40 dimensions in one contraction, `c[m,n,j] += a[m,k]·b[k,n,j]`:
/// the problem's 2^160 iterations are past even a `u128`, in which the
/// parallelism reserve multiplies quotas.
fn enormous_contraction() -> Workload {
    let mut b = Workload::builder("enormous_contraction");
    let m = b.dim("M", 1 << 40);
    let n = b.dim("N", 1 << 40);
    let j = b.dim("J", 1 << 40);
    let k = b.dim("K", 1 << 40);
    b.input("a", [m.expr(), k.expr()]);
    b.input("b", [k.expr(), n.expr(), j.expr()]);
    b.output("c", [m.expr(), n.expr(), j.expr()]);
    b.build().expect("valid workload")
}

/// A single unbounded DRAM level and nothing else: no tiling choices at
/// all, the mapping is forced.
fn dram_only() -> ArchSpec {
    ArchBuilder::new("dram-only").dram(200.0).build().expect("valid arch")
}

/// An L1 too small to hold even one element of each tensor: every
/// scheduling attempt is infeasible at stage 0.
fn tiny_l1() -> ArchSpec {
    ArchBuilder::new("tiny-l1")
        .unified_memory("L1", 1, 1.0, 1.0)
        .dram(200.0)
        .build()
        .expect("valid arch")
}

/// The degenerate corner of the configuration space: beam width 1, both
/// enumeration caps 1, deterministic single thread.
fn minimal_config() -> SunstoneConfig {
    SunstoneConfig {
        beam_width: 1,
        threads: 1,
        max_tiles_per_enum: 1,
        max_unrolls_per_enum: 1,
        ..SunstoneConfig::default()
    }
}

/// Runs one cell of the grid and asserts no panic escapes.
fn assert_no_panic(tag: &str, w: &Workload, arch: &ArchSpec, config: SunstoneConfig) {
    let outcome =
        panic::catch_unwind(AssertUnwindSafe(|| Scheduler::new(config).schedule(w, arch)));
    match outcome {
        Ok(Ok(_)) => {}
        Ok(Err(ScheduleError::Internal { stage, message, .. })) => {
            panic!("{tag}: internal invariant tripped at {stage}: {message}")
        }
        Ok(Err(_typed)) => {} // typed degradation is the contract
        Err(_) => panic!("{tag}: panic escaped the public API"),
    }
}

#[test]
fn degenerate_grid_never_panics() {
    let workloads: Vec<(&str, Workload)> = vec![
        ("all_ones", all_ones()),
        ("prime_dims", prime_dims()),
        ("enormous_dims", enormous_dims()),
        ("enormous_contraction", enormous_contraction()),
    ];
    let archs: Vec<(&str, ArchSpec)> = vec![
        ("conventional", presets::conventional()),
        ("eyeriss_like", presets::eyeriss_like()),
        ("diannao_like", presets::diannao_like()),
        ("dram_only", dram_only()),
        ("tiny_l1", tiny_l1()),
    ];
    let configs: Vec<(&str, SunstoneConfig)> = vec![
        ("default", SunstoneConfig::default()),
        ("minimal", minimal_config()),
        (
            "caps_1_two_threads",
            SunstoneConfig {
                max_tiles_per_enum: 1,
                max_unrolls_per_enum: 1,
                threads: 2,
                ..SunstoneConfig::default()
            },
        ),
    ];

    for (wname, w) in &workloads {
        for (aname, arch) in &archs {
            for (cname, config) in &configs {
                let tag = format!("{wname}/{aname}/{cname}");
                assert_no_panic(&tag, w, arch, config.clone());
            }
        }
    }
}

/// A spatial level declaring zero instances is a *specification* error:
/// it must surface as a typed `ArchError` at build time, never reach the
/// scheduler, and never panic.
#[test]
fn zero_instance_spatial_level_is_a_typed_arch_error() {
    let result = panic::catch_unwind(|| {
        ArchBuilder::new("zero-units")
            .unified_memory("L1", 1 << 14, 1.0, 1.0)
            .spatial("grid", 0)
            .dram(200.0)
            .build()
    });
    let built = result.expect("arch validation must not panic");
    assert!(built.is_err(), "a zero-instance fabric must be rejected");
}

/// The chain and batch entry points share the no-panic contract: a batch
/// mixing an infeasible layer (on the tiny arch) with nothing feasible
/// still returns typed per-layer errors.
#[test]
fn batch_over_degenerate_inputs_never_panics() {
    let arch = tiny_l1();
    let net = vec![all_ones(), prime_dims()];
    let outcome = panic::catch_unwind(AssertUnwindSafe(|| {
        Scheduler::new(minimal_config()).schedule_batch_outcomes(
            &net,
            &arch,
            &ScheduleOptions::new(),
        )
    }));
    let outcome = outcome.expect("batch over degenerate inputs must not panic");
    if let Ok(outcome) = outcome {
        for (i, layer) in outcome.layers.iter().enumerate() {
            if let Err(ScheduleError::Internal { stage, message, .. }) = layer {
                panic!("layer {i}: internal invariant tripped at {stage}: {message}");
            }
        }
    }
}

/// Every baseline mapper, each in a configuration small enough for a grid:
/// Timeloop on one thread with a short wall cap, a tiny GA, and a dMaze
/// evaluation budget of 2 000.
fn small_mappers() -> Vec<Box<dyn Mapper>> {
    let timeloop = TimeloopConfig {
        timeout: 200,
        threads: 1,
        max_wall: Some(Duration::from_millis(300)),
        ..TimeloopConfig::fast()
    };
    let dmaze = |config: DMazeConfig| DMazeConfig { max_evaluations: 2_000, ..config };
    let gamma = GammaConfig { population: 8, generations: 3, ..GammaConfig::default() };
    vec![
        Box::new(SunstoneMapper::new(minimal_config())),
        Box::new(TimeloopMapper::new("TL", timeloop)),
        Box::new(DMazeMapper::new("dMaze-fast", dmaze(DMazeConfig::fast()))),
        Box::new(DMazeMapper::new("dMaze-slow", dmaze(DMazeConfig::slow()))),
        Box::new(InterstellarMapper::new()),
        Box::new(CosaMapper::new()),
        Box::new(GammaMapper::with_config(gamma)),
    ]
}

/// Runs `f` and fails the test with `tag` if it panics.
fn no_panic<R>(tag: &str, f: impl FnOnce() -> R) -> R {
    panic::catch_unwind(AssertUnwindSafe(f))
        .unwrap_or_else(|_| panic!("{tag}: panic escaped the public API"))
}

#[test]
fn baselines_over_the_degenerate_grid_never_panic() {
    let workloads = [all_ones(), prime_dims(), enormous_dims()];
    let archs = [
        presets::conventional(),
        dram_only(),
        tiny_l1(),
        presets::simba_like(),
        presets::eyeriss_like(),
        presets::diannao_like(),
    ];
    let mappers = small_mappers();
    for w in &workloads {
        for arch in &archs {
            let cell = format!("{}/{}", w.name(), arch.name());
            // Whatever mapping comes back is held to the validator.
            let check = |tag: &str, mapping: Option<Mapping>| {
                if let Some(mapping) = mapping {
                    let binding = Binding::resolve(arch, w).expect("a returned mapping binds");
                    let verdict = ValidationContext::new(w, arch, &binding).validate(&mapping);
                    assert!(
                        verdict.is_ok(),
                        "{tag}: returned mapping fails validation: {verdict:?}"
                    );
                }
            };
            for mapper in &mappers {
                let tag = format!("{cell}/{}", mapper.name());
                check(&tag, no_panic(&tag, || mapper.map(w, arch)).mapping);
            }
            no_panic(&format!("{cell}/dmaze_space"), || space::dmaze_space(w, arch, 0.8, 0.5));
            no_panic(&format!("{cell}/interstellar_space"), || space::interstellar_space(w, arch));
            for t in w.tensor_ids() {
                let what =
                    if t == w.output() { Stationarity::Output } else { Stationarity::Input(t) };
                let tag = format!("{cell}/stationary {t:?}");
                check(&tag, no_panic(&tag, || stationary(w, arch, what)));
            }
        }
    }
}

//! Constrained-vs-free search invariants: the constraint layer must not
//! disturb the free path (bit-identical results with empty constraints),
//! must reproduce the free optimum when the optimum itself is pinned,
//! must reject contradictions with the typed error, and must keep
//! constrained and unconstrained cache contexts isolated. On the case
//! below, no template beats the free search; that is a fact of this case,
//! not a law: the constrained space is a subset, but the search is a beam
//! search, and a template can steer it to a better mapping than the free
//! search keeps (EXPERIMENTS.md lists such cases).

use sunstone::fingerprint::mapping_fingerprint;
use sunstone::prelude::*;
use sunstone::DimRef;
use sunstone_arch::presets;
use sunstone_ir::Workload;
use sunstone_mapping::{MappingLevel, ResolvedConstraints, UnrollConstraint};

fn conv(name: &str, k: u64, c: u64, pq: u64, r: u64) -> Workload {
    let mut b = Workload::builder(name);
    let kd = b.dim("K", k);
    let cd = b.dim("C", c);
    let p = b.dim("P", pq);
    let q = b.dim("Q", pq);
    let rd = b.dim("R", r);
    let s = b.dim("S", r);
    b.input("ifmap", [cd.expr(), p.expr() + rd.expr(), q.expr() + s.expr()]);
    b.input("weight", [kd.expr(), cd.expr(), rd.expr(), s.expr()]);
    b.output("ofmap", [kd.expr(), p.expr(), q.expr()]);
    b.build().expect("valid conv workload")
}

fn schedule_constrained(
    w: &Workload,
    arch: &sunstone_arch::ArchSpec,
    constraints: MappingConstraints,
) -> Result<ScheduleResult, ScheduleError> {
    let opts = ScheduleOptions::new().constraints(constraints);
    Ok(Scheduler::new(SunstoneConfig::default())
        .schedule_with(w, arch, &opts)?
        .into_results()
        .remove(0))
}

/// Asserts `result` honors `constraints` via the mapping-level checker.
fn assert_satisfies(
    w: &Workload,
    arch: &sunstone_arch::ArchSpec,
    result: &ScheduleResult,
    constraints: &MappingConstraints,
) {
    ResolvedConstraints::resolve(constraints, w, arch)
        .expect("constraints resolve")
        .check(&result.mapping, w, arch)
        .unwrap_or_else(|e| panic!("result violates its constraints: {e}"));
}

#[test]
fn empty_constraints_are_bit_identical_to_the_free_search() {
    let w = conv("c", 32, 16, 14, 3);
    let arch = presets::conventional();
    let free = Scheduler::new(SunstoneConfig::default()).schedule(&w, &arch).expect("schedules");
    let empty = schedule_constrained(&w, &arch, MappingConstraints::default()).expect("schedules");
    assert_eq!(free.mapping, empty.mapping, "empty constraints changed the mapping");
    assert_eq!(free.report.edp.to_bits(), empty.report.edp.to_bits());
    assert_eq!(free.stats.probed, empty.stats.probed, "empty constraints changed the search");
    let filtered = empty.stats.total_of(|l| l.constraint);
    assert_eq!(filtered.considered, 0, "no constraint filter may run unconstrained");
}

#[test]
fn constrained_best_never_beats_the_free_best() {
    let w = conv("c", 32, 16, 14, 3);
    let arch = presets::conventional();
    let free = Scheduler::new(SunstoneConfig::default()).schedule(&w, &arch).expect("schedules");
    for template in [
        DataflowTemplate::WeightStationaryCK,
        DataflowTemplate::OutputStationary,
        DataflowTemplate::RowStationary,
        DataflowTemplate::NvdlaLike,
    ] {
        let constraints = template.constraints(&arch);
        let constrained = schedule_constrained(&w, &arch, constraints.clone())
            .unwrap_or_else(|e| panic!("{template:?} schedules: {e}"));
        assert!(
            constrained.report.edp >= free.report.edp,
            "{template:?}: constrained EDP {} beat the free optimum {}",
            constrained.report.edp,
            free.report.edp
        );
        assert_satisfies(&w, &arch, &constrained, &constraints);
        let filtered = constrained.stats.total_of(|l| l.constraint);
        assert!(filtered.considered > 0, "{template:?}: the constraint filter never ran");
    }
}

#[test]
fn pinning_the_free_optimum_reproduces_it() {
    let w = conv("c", 16, 16, 7, 3);
    let arch = presets::conventional();
    let free = Scheduler::new(SunstoneConfig::default()).schedule(&w, &arch).expect("schedules");

    // Read the free optimum's spatial unrolling off its mapping and pin
    // exactly those factors (allow nothing else).
    let fabric = arch
        .spatial_levels()
        .next()
        .map(|(_, s)| s.name.clone())
        .expect("conventional has a fabric");
    let mut constraints = MappingConstraints::new().allow_unroll(&fabric, []);
    for (pos, _) in arch.spatial_levels() {
        if let MappingLevel::Spatial(s) = &free.mapping.levels()[pos.index()] {
            for (d, &f) in s.factors.iter().enumerate() {
                if f > 1 {
                    let name = w.dims()[d].name().to_string();
                    constraints = constraints.pin_unroll(&fabric, DimRef::named(name), f);
                }
            }
        }
    }
    let pinned = schedule_constrained(&w, &arch, constraints.clone()).expect("schedules");
    assert_eq!(pinned.mapping, free.mapping, "pinning the optimum must reproduce it");
    assert_eq!(pinned.report.edp.to_bits(), free.report.edp.to_bits());
    assert_satisfies(&w, &arch, &pinned, &constraints);
}

#[test]
fn contradictory_constraints_fail_with_the_typed_error() {
    let w = conv("c", 32, 16, 14, 3);
    let arch = presets::conventional();
    let fabric = arch.spatial_levels().next().map(|(_, s)| s.name.clone()).unwrap();

    // A pin that does not divide the dimension extent (C = 16, pin 3).
    let bad_pin = MappingConstraints::new().pin_unroll(&fabric, DimRef::named("C"), 3);
    let err = schedule_constrained(&w, &arch, bad_pin).expect_err("3 does not divide C");
    assert!(matches!(err, ScheduleError::InvalidConstraints { .. }), "{err:?}");

    // An unknown level name.
    let bad_level = MappingConstraints::new().pin_unroll("no_such_level", DimRef::named("C"), 2);
    let err = schedule_constrained(&w, &arch, bad_level).expect_err("unknown level");
    assert!(matches!(err, ScheduleError::InvalidConstraints { .. }), "{err:?}");

    // A tile pin above its own cap.
    let l1 = arch.memory_levels().next().map(|(_, m)| m.name.clone()).unwrap();
    let bad_tile = MappingConstraints::new().pin_tile(&l1, DimRef::named("K"), 16).cap_tile(
        &l1,
        DimRef::named("K"),
        8,
    );
    let err = schedule_constrained(&w, &arch, bad_tile).expect_err("pin above cap");
    assert!(matches!(err, ScheduleError::InvalidConstraints { .. }), "{err:?}");
}

/// An N1 K64 C16 14² R3 conv: C = 16 is small enough that Simba's inner
/// stages can take all of it.
fn c16_conv() -> Workload {
    let mut b = Workload::builder("c");
    let n = b.dim("N", 1);
    let k = b.dim("K", 64);
    let c = b.dim("C", 16);
    let (p, q) = (b.dim("P", 14), b.dim("Q", 14));
    let (r, s) = (b.dim("R", 3), b.dim("S", 3));
    b.input_bits("ifmap", [n.expr(), c.expr(), p + r, q + s], 8);
    b.input_bits("weight", [k.expr(), c.expr(), r.expr(), s.expr()], 8);
    b.output_bits("ofmap", [n.expr(), k.expr(), p.expr(), q.expr()], 24);
    b.build().expect("valid conv workload")
}

/// C pinned to `factor` on each of `fabrics`.
fn pin_c(fabrics: &[&str], factor: u64) -> MappingConstraints {
    fabrics.iter().fold(MappingConstraints::new(), |set, fabric| {
        set.pin_unroll(*fabric, DimRef::named("C"), factor)
    })
}

/// Unroll pins on one dimension at several fabrics multiply into one loop
/// nest: when each pin divides the extent but their product does not, the
/// set is rejected with the typed error before any search — C = 16 pinned
/// to 4 on all three of Simba's fabrics asks for 64 — while pins whose
/// product divides it (C = 2 on `vector` and on `lanes`) still schedule
/// and hold.
#[test]
fn unroll_pins_must_divide_the_extent_together() {
    let (w, arch) = (c16_conv(), presets::simba_like());
    let err = schedule_constrained(&w, &arch, pin_c(&["vector", "lanes", "pe_grid"], 4))
        .expect_err("4 × 4 × 4 does not divide C = 16");
    assert!(matches!(err, ScheduleError::InvalidConstraints { .. }), "{err:?}");
    let two = pin_c(&["vector", "lanes"], 2);
    let result = schedule_constrained(&w, &arch, two.clone()).expect("2 × 2 divides C = 16");
    assert_satisfies(&w, &arch, &result, &two);
}

/// A pin on an outer fabric is a factor the stages below it must leave:
/// C = 2 or 4 pinned on Simba's `pe_grid`, alone or beside the same pin on
/// `vector`, schedules and holds. The inner stages' tiles and unrolls used
/// to take all of C first, and the search dead-ended at the L2 stage.
#[test]
fn an_outer_fabrics_unroll_pin_is_left_by_the_stages_below() {
    let (w, arch) = (c16_conv(), presets::simba_like());
    for fabrics in [&["pe_grid"][..], &["vector", "pe_grid"]] {
        for factor in [2, 4] {
            let pins = pin_c(fabrics, factor);
            let result = schedule_constrained(&w, &arch, pins.clone())
                .unwrap_or_else(|e| panic!("C = {factor} on {fabrics:?}: {e}"));
            assert_satisfies(&w, &arch, &result, &pins);
        }
    }
}

/// Interleaving constrained and free calls on one session must not leak
/// results across cache contexts: the second free call replays the first
/// bitwise, and a fresh session agrees.
#[test]
fn constrained_and_free_calls_share_a_session_without_interference() {
    let w = conv("c", 32, 16, 14, 3);
    let arch = presets::conventional();
    let ws = DataflowTemplate::WeightStationaryCK.constraints(&arch);

    let session = Scheduler::new(SunstoneConfig::default());
    let free_cold = session.schedule(&w, &arch).expect("free schedules");
    let opts = ScheduleOptions::new().constraints(ws.clone());
    let constrained =
        session.schedule_with(&w, &arch, &opts).expect("constrained schedules").into_results();
    let free_warm = session.schedule(&w, &arch).expect("free schedules again");

    assert_eq!(free_cold.mapping, free_warm.mapping, "constrained call polluted the free context");
    assert_eq!(free_cold.report.edp.to_bits(), free_warm.report.edp.to_bits());
    assert_satisfies(&w, &arch, &constrained[0], &ws);

    let fresh = Scheduler::new(SunstoneConfig::default()).schedule(&w, &arch).expect("schedules");
    assert_eq!(fresh.mapping, free_warm.mapping);
    assert_eq!(fresh.report.edp.to_bits(), free_warm.report.edp.to_bits());

    // The config-level carrier reaches the same constrained result as the
    // per-call override.
    let via_config =
        Scheduler::new(SunstoneConfig { constraints: ws.clone(), ..SunstoneConfig::default() })
            .schedule(&w, &arch)
            .expect("config-level constraints schedule");
    assert_eq!(via_config.mapping, constrained[0].mapping);
    assert_eq!(via_config.report.edp.to_bits(), constrained[0].report.edp.to_bits());
}

/// A batched conv: N4 K64 C64 P14 Q14 R3 S3.
fn batched_conv() -> Workload {
    let mut b = Workload::builder("batched");
    let n = b.dim("N", 4);
    let k = b.dim("K", 64);
    let c = b.dim("C", 64);
    let p = b.dim("P", 14);
    let q = b.dim("Q", 14);
    let r = b.dim("R", 3);
    let s = b.dim("S", 3);
    b.input("ifmap", [n.expr(), c.expr(), p.expr() + r.expr(), q.expr() + s.expr()]);
    b.input("weight", [k.expr(), c.expr(), r.expr(), s.expr()]);
    b.output("ofmap", [n.expr(), k.expr(), p.expr(), q.expr()]);
    b.build().expect("valid conv workload")
}

/// One constraint set is one set however it is spelled: a pin and an
/// allow-list on one fabric, written as one entry or as two (in either
/// builder order, or as a struct literal), search to the same mapping, and
/// the check accepts it under every spelling.
#[test]
fn one_constraint_set_schedules_alike_under_any_spelling() {
    let w = batched_conv();
    let (c, k) = (DimRef::named("C"), DimRef::named("K"));
    let spellings = [
        MappingConstraints::new().allow_unroll("pe_grid", [c.clone()]).pin_unroll(
            "pe_grid",
            k.clone(),
            4,
        ),
        MappingConstraints::new()
            .pin_unroll("pe_grid", k.clone(), 4)
            .allow_unroll("pe_grid", [c.clone()]),
        MappingConstraints {
            unroll: vec![
                UnrollConstraint { level: "pe_grid".into(), allow: None, pins: vec![(k, 4)] },
                UnrollConstraint { level: "pe_grid".into(), allow: Some(vec![c]), pins: vec![] },
            ],
            ..MappingConstraints::default()
        },
    ];
    assert_eq!(spellings[0].unroll.len(), 1);
    assert_eq!(spellings[1].unroll.len(), 2);
    for arch in [presets::conventional(), presets::simba_like()] {
        let results: Vec<ScheduleResult> = spellings
            .iter()
            .map(|set| {
                schedule_constrained(&w, &arch, set.clone())
                    .unwrap_or_else(|e| panic!("{}: {set:?} schedules: {e}", arch.name()))
            })
            .collect();
        let grid = arch.levels().iter().position(|l| l.name() == "pe_grid").expect("a pe_grid");
        let kd = w.dim_by_name("K").expect("K").index();
        assert_eq!(results[0].mapping.level(grid).factors()[kd], 4, "the pin holds");
        for r in &results {
            assert_eq!(mapping_fingerprint(&r.mapping), mapping_fingerprint(&results[0].mapping));
            assert_eq!(r.report.edp.to_bits(), results[0].report.edp.to_bits());
            for set in &spellings {
                assert_satisfies(&w, &arch, r, set);
            }
        }
    }
}

/// `order_exact` decides which loops run at its memory, not only their
/// order: with `order_exact("L2", [K, C])` the tiling stage grows the L2
/// tile only in K and C, so no finalist carries another dimension's loop
/// there and the check drops none of them. Every one of the `top_k`
/// results the last stage kept comes back, and each honors the set.
#[test]
fn order_exact_admits_only_its_groups_loops() {
    let w = batched_conv();
    let set = MappingConstraints::new().order_exact("L2", [DimRef::named("K"), DimRef::named("C")]);
    let opts = ScheduleOptions::new().top_k(48).constraints(set.clone());
    for arch in [presets::conventional(), presets::eyeriss_like(), presets::simba_like()] {
        let outcome = Scheduler::new(SunstoneConfig::default())
            .schedule_with(&w, &arch, &opts)
            .unwrap_or_else(|e| panic!("{}: schedules: {e}", arch.name()));
        let results = outcome.results();
        let stats = &results[0].stats;
        let last = stats.levels.last().expect("a stage ran");
        assert_eq!(
            results.len() as u64,
            last.beam.kept,
            "{}: the check dropped finalists (best EDP {:e})",
            arch.name(),
            results[0].report.edp
        );
        for r in results {
            assert_satisfies(&w, &arch, r, &set);
        }
    }
}

/// The golden `conv2d/simba` workload under `OutputStationary`: every
/// `simba_like` fabric may unroll only the output-indexing dimensions N,
/// K, P and Q. While a tile's parallelism reserve was measured over every
/// dimension, it counted the quota of C, R and S, which none of them may
/// unroll, so stage 0 could keep tiles that left them nothing to unroll,
/// and the search ended in `InfeasibleLevel { stage: 1 }`. The reserve
/// now reads the set the fabrics above may unroll.
#[test]
fn a_template_schedules_where_its_fabrics_can_be_fed() {
    let mut b = Workload::builder("conv2d");
    let n = b.dim("N", 2);
    let k = b.dim("K", 64);
    let c = b.dim("C", 64);
    let p = b.dim("P", 28);
    let q = b.dim("Q", 28);
    let r = b.dim("R", 3);
    let s = b.dim("S", 3);
    b.input_bits("ifmap", [n.expr(), c.expr(), p + r, q + s], 8);
    b.input_bits("weight", [k.expr(), c.expr(), r.expr(), s.expr()], 8);
    b.output_bits("ofmap", [n.expr(), k.expr(), p.expr(), q.expr()], 24);
    let w = b.build().expect("valid conv workload");
    let arch = presets::simba_like();
    let constraints = DataflowTemplate::OutputStationary.constraints(&arch);
    let result = schedule_constrained(&w, &arch, constraints.clone())
        .unwrap_or_else(|e| panic!("OutputStationary schedules: {e}"));
    assert_satisfies(&w, &arch, &result, &constraints);
}

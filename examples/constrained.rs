//! Constraining the mapping space: schedule one convolution on the
//! Simba-like accelerator twice — once free, once under the C-K
//! weight-stationary dataflow template — and compare the results.
//!
//! A template is just a named [`MappingConstraints`] recipe: the
//! weight-stationary preset restricts every spatial fabric to unrolling
//! the weight-indexing dimensions C and K, so weights stay pinned to
//! their PEs while inputs and partials stream. The template's space is a
//! subset of the free one, but both searches are beam searches, not
//! exhaustive ones: a narrower space can steer the beam to a mapping the
//! free search never kept, so a template may beat the free search's best
//! (EXPERIMENTS.md lists such cases). On this layer it does not, and the
//! printed delta is the price of the dataflow.
//!
//! Run with `cargo run --release --example constrained`.

use sunstone::prelude::*;
use sunstone_arch::presets;
use sunstone_ir::Workload;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A mid-network ResNet-style convolution: 3×3, 128 in / 128 out
    // channels on a 14×14 feature map.
    let mut b = Workload::builder("conv3x3");
    let k = b.dim("K", 128);
    let c = b.dim("C", 128);
    let p = b.dim("P", 14);
    let q = b.dim("Q", 14);
    let r = b.dim("R", 3);
    let s = b.dim("S", 3);
    b.input("ifmap", [c.expr(), p.expr() + r.expr(), q.expr() + s.expr()]);
    b.input("weight", [k.expr(), c.expr(), r.expr(), s.expr()]);
    b.output("ofmap", [k.expr(), p.expr(), q.expr()]);
    let workload = b.build()?;

    let arch = presets::simba_like();
    let session = Scheduler::new(SunstoneConfig::default());

    // Free search: the scheduler may unroll and order anything.
    let free = session.schedule(&workload, &arch)?;

    // Constrained search: the same session, but every fabric
    // may only unroll C and K. Templates expand to plain constraints, so
    // `DataflowTemplate::WeightStationaryCK.constraints(&arch)` and a
    // hand-built `MappingConstraints` behave identically.
    let ws = DataflowTemplate::WeightStationaryCK.constraints(&arch);
    let opts = ScheduleOptions::new().constraints(ws);
    let constrained = session.schedule_with(&workload, &arch, &opts)?.into_results().remove(0);

    println!("workload          : {workload}");
    println!("architecture      : {arch}");
    println!("\nfree search");
    println!("  mapping         : {}", free.mapping);
    println!("  EDP             : {:.3e} pJ·cycles", free.report.edp);
    println!("\nweight-stationary (C-K) template");
    println!("  mapping         : {}", constrained.mapping);
    println!("  EDP             : {:.3e} pJ·cycles", constrained.report.edp);

    let filter = constrained.stats.total_of(|l| l.constraint);
    let delta = constrained.report.edp / free.report.edp;
    println!("\nEDP price of the dataflow: {delta:.3}x the free optimum");
    println!(
        "constraint filter: {} candidates considered, {} kept ({:.1}% of the space removed)",
        filter.considered,
        filter.kept,
        100.0 * filter.pruned_fraction()
    );
    assert!(
        constrained.report.edp >= free.report.edp,
        "on this layer the C-K template costs at least the free search's best"
    );
    Ok(())
}

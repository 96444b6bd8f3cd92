//! Quickstart: describe a tensor workload, pick an accelerator, schedule.
//!
//! Run with `cargo run --release --example quickstart`.

use sunstone::prelude::*;
use sunstone_arch::presets;
use sunstone_ir::Workload;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Describe the workload: a 64×64×64 matrix multiplication
    //    out[m,n] = Σ_k a[m,k] × b[k,n].
    let mut b = Workload::builder("matmul");
    let m = b.dim("M", 64);
    let n = b.dim("N", 64);
    let k = b.dim("K", 64);
    b.input("a", [m.expr(), k.expr()]);
    b.input("b", [k.expr(), n.expr()]);
    b.output("out", [m.expr(), n.expr()]);
    let workload = b.build()?;

    // 2. Pick an accelerator: the paper's conventional Eyeriss-like
    //    machine (32×32 PEs, 512 B L1, 3.1 MB L2).
    let arch = presets::conventional();

    // 3. Open a scheduling session and schedule. The session memoizes
    //    each context's result, so asking again about the same shape costs
    //    microseconds; `SunstoneConfig::builder()` validates knobs up front.
    let session = Scheduler::new(SunstoneConfig::builder().build()?);
    let result = session.schedule(&workload, &arch)?;

    println!("workload     : {workload}");
    println!("architecture : {arch}");
    println!("mapping      : {}", result.mapping);
    println!("energy       : {:.3e} pJ", result.report.energy_pj);
    println!("delay        : {:.3e} cycles", result.report.delay_cycles);
    println!("EDP          : {:.3e} pJ·cycles", result.report.edp);
    println!("parallelism  : {} PEs busy", result.mapping.used_parallelism());
    println!(
        "search       : {} mappings evaluated in {:?}",
        result.stats.probed, result.stats.elapsed
    );
    println!("\nPer-level breakdown:");
    for level in &result.report.levels {
        println!(
            "  {:<6} reads {:>12.3e}  writes {:>12.3e}  energy {:>12.3e} pJ",
            level.name, level.reads, level.writes, level.energy_pj
        );
    }
    Ok(())
}

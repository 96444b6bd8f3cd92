//! Fig 8: ResNet-18 inference (batch 16) on the Simba-like accelerator —
//! EDP (8a) and time-to-solution (8b) for Sunstone, Timeloop, and CoSA.
//! dMazeRunner and Interstellar do not support this multi-level
//! hierarchy; CoSA is fast but returns invalid mappings on most layers.
//!
//! A closing section schedules the *full* network (block repeats
//! included) through [`Scheduler::schedule_batch_outcomes`]: only the unique
//! shapes are searched, on parallel workers, and the per-layer EDPs are
//! checked identical to sequential per-layer scheduling.
//!
//! Run with `cargo run --release -p sunstone-bench --bin fig8_resnet_simba`
//! (append `quick` for a subsampled smoke run).

use std::time::Instant;

use sunstone::prelude::*;
use sunstone_arch::presets;
use sunstone_baselines::{
    CosaMapper, DMazeConfig, DMazeMapper, Mapper, SunstoneMapper, TimeloopConfig, TimeloopMapper,
};
use sunstone_bench::{print_summary, quick_mode, resnet18_experiment_layers, run_matrix};
use sunstone_workloads::{resnet18_network, Precision};

fn main() {
    let arch = presets::simba_like();
    let layers = resnet18_experiment_layers(16, 16, 4);
    let mut tl = TimeloopConfig::fast();
    if quick_mode() {
        tl.timeout = 2_000;
        tl.max_wall = Some(std::time::Duration::from_secs(15));
    }
    let workloads: Vec<(String, _)> =
        layers.iter().map(|l| (l.name.clone(), l.inference(Precision::simba()))).collect();

    let sunstone = SunstoneMapper::default();
    let timeloop = TimeloopMapper::new("TL", tl);
    let cosa = CosaMapper::new();
    // Unsupported tools: demonstrate the paper's point that they cannot
    // target this hierarchy at all.
    let dmaze = DMazeMapper::new("dMaze-fast", DMazeConfig::fast());
    let mappers: Vec<&dyn Mapper> = vec![&sunstone, &timeloop, &cosa, &dmaze];

    println!("Fig 8 — ResNet-18 inference (batch 16) on `{}`\n", arch.name());
    let cells = run_matrix(&mappers, &workloads, &arch);
    print_summary(&cells);
    println!(
        "\nExpected shape (paper): CoSA finishes fastest but most mappings are\n\
         invalid (tiles overflow their buffers); Timeloop needs far longer for\n\
         worse EDP; dMaze cannot target the hierarchy at all."
    );

    // Whole-network batch scheduling: the repeats are free and the result
    // is bitwise the same as scheduling layer by layer.
    let mut net = resnet18_network(if quick_mode() { 1 } else { 16 });
    if quick_mode() {
        net.truncate(6); // keeps conv2_x repeats for the dedup to find
    }
    let net_workloads: Vec<_> = net.iter().map(|l| l.inference(Precision::simba())).collect();

    let batch_session = Scheduler::new(SunstoneConfig::default());
    let batch_start = Instant::now();
    let batch = batch_session
        .schedule_batch_outcomes(&net_workloads, &arch, &ScheduleOptions::new())
        .and_then(BatchOutcome::into_result)
        .expect("network batch schedules");
    let batch_wall = batch_start.elapsed();

    let seq_session = Scheduler::new(SunstoneConfig::default());
    let seq_start = Instant::now();
    let sequential: Vec<f64> = net_workloads
        .iter()
        .map(|w| seq_session.schedule(w, &arch).expect("layer schedules").report.edp)
        .collect();
    let seq_wall = seq_start.elapsed();

    let identical =
        batch.bests().zip(&sequential).all(|(b, &s)| b.report.edp.to_bits() == s.to_bits());
    assert!(identical, "batch EDPs must match sequential scheduling bit for bit");

    println!("\n== Whole-network batch scheduling (session API) ==");
    println!(
        "  {} layers → {} unique shapes ({} dedup hits); estimates {}h/{}m",
        batch.stats.layers,
        batch.stats.unique_shapes,
        batch.stats.dedup_hits,
        batch.stats.cache_hits,
        batch.stats.cache_misses,
    );
    println!(
        "  batch {batch_wall:.2?} vs sequential {seq_wall:.2?} ({:.1}x); \
         per-layer EDPs identical: {identical}",
        seq_wall.as_secs_f64() / batch_wall.as_secs_f64().max(1e-9),
    );
}

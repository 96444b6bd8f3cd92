//! Extension study: network-level layout consistency. Scheduling
//! ResNet-18 as a *chain* (each layer choosing among its near-optimal
//! mappings the one whose DRAM traversal matches its producer) versus
//! scheduling every layer independently — the reordering overhead of
//! Section V-D, minimized rather than merely measured.
//!
//! The chain runs on the session batch path: the full 20-conv network
//! (block repeats included) collapses to its 11 unique shapes, which are
//! searched once each on parallel workers; a progress sink streams the
//! per-shape scheduling as it happens.
//!
//! Run with `cargo run --release -p sunstone-bench --bin network_chain`
//! (append `quick` for a subsampled run).

use std::sync::Arc;

use sunstone::network::{layout_signature, schedule_chain, ChainOptions};
use sunstone::prelude::*;
use sunstone_arch::presets;
use sunstone_bench::quick_mode;
use sunstone_workloads::{resnet18_network, Precision};

fn main() {
    let arch = presets::conventional();
    let mut specs = resnet18_network(if quick_mode() { 1 } else { 16 });
    if quick_mode() {
        // Keep a conv2_x repeat so the dedup still has work to do.
        specs.truncate(5);
    }
    let layers: Vec<_> = specs.iter().map(|l| l.inference(Precision::conventional())).collect();
    let scheduler = Scheduler::new(SunstoneConfig::default());

    println!("Network-level layout consistency on ResNet-18 / `{}`\n", arch.name());

    // Independent scheduling: per-layer optimum, reorder whenever the
    // producer signature differs from the consumer signature. Runs on the
    // same session, so repeated shapes are answered from its result memo.
    let mut independent_edp = 0.0f64;
    let mut independent_reorder = 0u64;
    let mut prev_sig: Option<Vec<String>> = None;
    let renames = [("K".to_string(), "C".to_string())];
    for w in &layers {
        let r = scheduler.schedule(w, &arch).expect("layer schedules");
        let consumer = layout_signature(w, &r.mapping, "ifmap", &[]);
        if prev_sig.is_some() && consumer != prev_sig {
            let t = w.tensor_by_name("ifmap").expect("conv has ifmap");
            independent_reorder += w.tensor(t).footprint(&w.dim_sizes());
        }
        prev_sig = layout_signature(w, &r.mapping, "ofmap", &renames);
        independent_edp += r.report.edp;
    }

    // Chain scheduling with layout matching, on the batch path: unique
    // shapes only, parallel workers, live progress.
    let progress: Arc<dyn ProgressSink> = Arc::new(|e: &ProgressEvent| {
        if let ProgressEvent::LayerFinished { unique, evaluated, elapsed } = e {
            println!("  [batch] unique shape #{unique}: {evaluated} mappings in {elapsed:.1?}");
        }
    });
    let controls = ScheduleOptions::new().progress(progress);
    let chain = schedule_chain(&scheduler, &layers, &arch, &ChainOptions::default(), &controls)
        .expect("chain schedules");

    println!(
        "\n  batch: {} layers → {} unique shapes ({} dedup hits), \
         estimates {}h/{}m, {:.1?}",
        chain.batch.layers,
        chain.batch.unique_shapes,
        chain.batch.dedup_hits,
        chain.batch.cache_hits,
        chain.batch.cache_misses,
        chain.batch.elapsed,
    );

    println!("\n  {:<26} {:>14} {:>18} {:>12}", "strategy", "Σ EDP", "reorder (words)", "matched");
    println!(
        "  {:<26} {:>14.4e} {:>18} {:>12}",
        "independent per-layer", independent_edp, independent_reorder, "-"
    );
    println!(
        "  {:<26} {:>14.4e} {:>18} {:>11}/{}",
        "chain (layout-matched)",
        chain.total_edp(),
        chain.reorder_words,
        chain.matched_transitions,
        layers.len() - 1,
    );
    let edp_cost = chain.total_edp() / independent_edp;
    let reorder_saving = if independent_reorder > 0 {
        1.0 - chain.reorder_words as f64 / independent_reorder as f64
    } else {
        0.0
    };
    println!(
        "\n  Matching eliminates {:.0}% of activation-reordering traffic at a {:+.2}% Σ-EDP cost.",
        100.0 * reorder_saving,
        100.0 * (edp_cost - 1.0),
    );
    println!(
        "\nThis implements the layout-consistency pass the paper's 0.2% reordering\n\
         overhead implies (EXPERIMENTS.md, Fig 9 deviation note)."
    );
}

//! Per-level, per-principle pruning statistics of real scheduling runs
//! (the observability substrate for §III's pruning claims).
//!
//! Unlike the earlier revision of this harness, nothing is re-enumerated
//! here: every number comes from the structured
//! [`SearchStats`](sunstone::SearchStats) the scheduler records while
//! searching — per memory level, how many candidates each principle
//! considered and kept (ordering trie, tiling maximal frontier, spatial
//! unrolling, beam cut), how many candidates repeated a loop nest of
//! their estimate round — and the SoA batch width of the rounds — and
//! where the stage's wall time went (expand — with its tile, unroll and ordering
//! enumerations and its row writes — / estimate — with its
//! prefix / price / publish parts — / select), what one priced candidate
//! cost (`price` time ÷ model evaluations), and how many lattice nodes
//! the tile and unroll enumerators spanned against the capacity probes
//! they made and how often their memos answered.
//!
//! Run with `cargo run --release -p sunstone-bench --bin prune_stats`
//! (append `quick` for a subsampled run).

use std::time::Duration;

use sunstone::{
    DataflowTemplate, LevelStats, PruneCounter, ScheduleOptions, Scheduler, SearchStats,
    SunstoneConfig,
};
use sunstone_arch::presets;
use sunstone_bench::resnet18_experiment_layers;
use sunstone_workloads::Precision;

fn pct(c: &PruneCounter) -> f64 {
    100.0 * c.pruned_fraction()
}

/// What one candidate through the count kernel costs, priced or cut by
/// the bound: the estimate rounds' pricing time per candidate, in
/// nanoseconds.
fn price_ns(stats: &SearchStats) -> f64 {
    let price: std::time::Duration = stats.levels.iter().map(|l| l.estimate_price).sum();
    let through = stats.modeled + stats.bounded;
    if through == 0 {
        0.0
    } else {
        price.as_secs_f64() * 1e9 / through as f64
    }
}

fn print_level_table(stats: &SearchStats) {
    println!(
        "    {:<5} {:>9} {:>7} {:>7}   {:>9} {:>7} {:>7}   {:>9} {:>7} {:>7}   {:>9} {:>7} {:>7}   {:>6} {:>7}   {:>9} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8}",
        "level", "ord.cons", "kept", "pruned", "tile.cons", "kept", "pruned", "unr.cons", "kept",
        "pruned", "beam.cons", "kept", "cut", "hit%", "bounded", "expand.ms", "x.tiles", "x.unrol",
        "x.order", "x.rows", "estim.ms", "e.prefix", "e.price", "e.publ", "selec.ms"
    );
    for l in &stats.levels {
        let probes = l.cache_hits + l.cache_misses;
        let hit = if probes == 0 { 0.0 } else { 100.0 * l.cache_hits as f64 / probes as f64 };
        println!(
            "    L{:<4} {:>9} {:>7} {:>6.1}%   {:>9} {:>7} {:>6.1}%   {:>9} {:>7} {:>6.1}%   {:>9} {:>7} {:>7} {:>5.1}% {:>7}   {:>9.2} {:>8.2} {:>8.2} {:>8.2} {:>8.2} {:>8.2} {:>8.2} {:>8.2} {:>8.2} {:>8.2}",
            l.level,
            l.ordering.considered,
            l.ordering.kept,
            pct(&l.ordering),
            l.tiling.considered,
            l.tiling.kept,
            pct(&l.tiling),
            l.unrolling.considered,
            l.unrolling.kept,
            pct(&l.unrolling),
            l.beam.considered,
            l.beam.kept,
            l.beam.pruned(),
            hit,
            l.bounded,
            l.expand.as_secs_f64() * 1e3,
            l.expand_tiles.as_secs_f64() * 1e3,
            l.expand_unrolls.as_secs_f64() * 1e3,
            l.expand_orderings.as_secs_f64() * 1e3,
            l.expand_rows.as_secs_f64() * 1e3,
            l.estimate.as_secs_f64() * 1e3,
            l.estimate_prefix.as_secs_f64() * 1e3,
            l.estimate_price.as_secs_f64() * 1e3,
            l.estimate_publish.as_secs_f64() * 1e3,
            l.select.as_secs_f64() * 1e3,
        );
    }
}

/// The layers' statistics summed field by field, per stage too: what the
/// "ALL LAYERS" block prints.
fn sum_of(all: &[SearchStats]) -> SearchStats {
    let sum = |f: fn(&SearchStats) -> u64| all.iter().map(f).sum();
    let stages = all.iter().map(|s| s.levels.len()).max().unwrap_or(0);
    let levels = (0..stages)
        .map(|level| {
            let at: Vec<&LevelStats> = all.iter().filter_map(|s| s.levels.get(level)).collect();
            let count = |f: fn(&LevelStats) -> u64| at.iter().map(|&l| f(l)).sum();
            let time = |f: fn(&LevelStats) -> Duration| at.iter().map(|&l| f(l)).sum();
            let counter = |f: fn(&LevelStats) -> PruneCounter| PruneCounter {
                considered: at.iter().map(|&l| f(l).considered).sum(),
                kept: at.iter().map(|&l| f(l).kept).sum(),
            };
            LevelStats {
                level,
                ordering: counter(|l| l.ordering),
                ordering_no_reuse: count(|l| l.ordering_no_reuse),
                ordering_dominated: count(|l| l.ordering_dominated),
                tiling: counter(|l| l.tiling),
                unrolling: counter(|l| l.unrolling),
                constraint: counter(|l| l.constraint),
                beam: counter(|l| l.beam),
                cache_hits: count(|l| l.cache_hits),
                cache_misses: count(|l| l.cache_misses),
                bounded: count(|l| l.bounded),
                expand: time(|l| l.expand),
                expand_tiles: time(|l| l.expand_tiles),
                expand_unrolls: time(|l| l.expand_unrolls),
                expand_orderings: time(|l| l.expand_orderings),
                expand_rows: time(|l| l.expand_rows),
                estimate: time(|l| l.estimate),
                estimate_prefix: time(|l| l.estimate_prefix),
                estimate_price: time(|l| l.estimate_price),
                estimate_publish: time(|l| l.estimate_publish),
                select: time(|l| l.select),
            }
        })
        .collect();
    SearchStats {
        probed: sum(|s| s.probed),
        modeled: sum(|s| s.modeled),
        bounded: sum(|s| s.bounded),
        prefix_hits: sum(|s| s.prefix_hits),
        batches: sum(|s| s.batches),
        batched: sum(|s| s.batched),
        rounds: sum(|s| s.rounds),
        nodes_explored: sum(|s| s.nodes_explored),
        capacity_probes: sum(|s| s.capacity_probes),
        tile_memo_hits: sum(|s| s.tile_memo_hits),
        tile_memo_misses: sum(|s| s.tile_memo_misses),
        unroll_memo_hits: sum(|s| s.unroll_memo_hits),
        unroll_memo_misses: sum(|s| s.unroll_memo_misses),
        cache_hits: sum(|s| s.cache_hits),
        cache_misses: sum(|s| s.cache_misses),
        rank: all.iter().map(|s| s.rank).sum(),
        levels,
        ..SearchStats::default()
    }
}

fn main() {
    let layers = resnet18_experiment_layers(16, 1, 4);
    let arch = presets::conventional();
    let scheduler = Scheduler::new(SunstoneConfig::default());

    println!("Per-level, per-principle pruning on ResNet-18 (conventional arch)\n");
    let mut all = Vec::new();
    for layer in &layers {
        let w = layer.inference(Precision::conventional());
        let r = scheduler.schedule(&w, &arch).expect("ResNet-18 layers schedule");
        let no_reuse: u64 = r.stats.levels.iter().map(|l| l.ordering_no_reuse).sum();
        let dominated: u64 = r.stats.levels.iter().map(|l| l.ordering_dominated).sum();
        println!(
            "  {:<10} probed {:>6} (modeled {:>5}, bounded {:>5}, {:>5.0} ns each), beam cut {:>6}, nodes explored {:>7} ({:>6} capacity probes), ordering rejections: {} no-reuse (P3), {} dominated (P1–2)",
            layer.name,
            r.stats.probed,
            r.stats.modeled,
            r.stats.bounded,
            price_ns(&r.stats),
            r.stats.beam_cut(),
            r.stats.nodes_explored,
            r.stats.capacity_probes,
            no_reuse,
            dominated,
        );
        print_level_table(&r.stats);
        all.push(r.stats);
    }
    let total = sum_of(&all);

    let ordering = total.total_of(|l| l.ordering);
    let tiling = total.total_of(|l| l.tiling);
    let unrolling = total.total_of(|l| l.unrolling);
    let probes = total.cache_hits + total.cache_misses;
    println!("\n  ALL LAYERS");
    print_level_table(&total);
    println!(
        "\n  ordering trie:    {:>8} explored → {:>6} kept ({:.1}% pruned)",
        ordering.considered,
        ordering.kept,
        pct(&ordering)
    );
    println!(
        "  tiling frontier:  {:>8} explored → {:>6} kept ({:.1}% pruned; paper: up to 80%)",
        tiling.considered,
        tiling.kept,
        pct(&tiling)
    );
    println!(
        "  unrolling:        {:>8} explored → {:>6} kept ({:.1}% pruned; paper: >90%)",
        unrolling.considered,
        unrolling.kept,
        pct(&unrolling)
    );
    println!(
        "  beam:             {:>8} estimated → {:>6} cut across levels",
        total.probed,
        total.beam_cut()
    );
    println!(
        "  model:            {:>8} evaluations ({:>6} prefix-incremental, {:.1}% of modeled), {:>6} bounded, {:.0} ns per candidate through the kernel",
        total.modeled,
        total.prefix_hits,
        if total.modeled == 0 {
            0.0
        } else {
            100.0 * total.prefix_hits as f64 / total.modeled as f64
        },
        total.bounded,
        price_ns(&total)
    );
    println!(
        "  SoA batches:      {:>8} dispatches, {:.1} candidates/batch, {:.1}% of modeled",
        total.batches,
        if total.batches == 0 { 0.0 } else { total.batched as f64 / total.batches as f64 },
        if total.modeled == 0 { 0.0 } else { 100.0 * total.batched as f64 / total.modeled as f64 }
    );
    println!(
        "  enumerators:      {:>8} nodes explored, {:>6} capacity probes",
        total.nodes_explored, total.capacity_probes
    );
    println!(
        "  enumeration memo: {:>8} tile hits / {} runs, {} unroll hits / {} runs",
        total.tile_memo_hits,
        total.tile_memo_misses,
        total.unroll_memo_hits,
        total.unroll_memo_misses
    );
    println!("  worker pool:      {:>8} rounds", total.rounds);
    println!("  final ranking:    {:>8.2} ms", total.rank.as_secs_f64() * 1e3);
    println!(
        "  estimate rounds:  {:>8} probes, {:.1}% in-round repeats",
        probes,
        if probes == 0 { 0.0 } else { 100.0 * total.cache_hits as f64 / probes as f64 }
    );

    // How much of the space each dataflow template removes, measured by
    // the in-enumeration constraint filter on one representative layer.
    let w = layers[0].inference(Precision::conventional());
    let free = scheduler.schedule(&w, &arch).expect("free baseline schedules");
    println!("\n  Dataflow templates on {} (constraint filter):", layers[0].name);
    println!(
        "    {:<20} {:>10} {:>7} {:>7}   {:>9} {:>9}",
        "template", "cons", "kept", "pruned", "probed", "free"
    );
    for template in [
        DataflowTemplate::WeightStationaryCK,
        DataflowTemplate::OutputStationary,
        DataflowTemplate::RowStationary,
        DataflowTemplate::NvdlaLike,
    ] {
        let opts = ScheduleOptions::new().constraints(template.constraints(&arch));
        let r = scheduler
            .schedule_with(&w, &arch, &opts)
            .expect("templates schedule")
            .into_results()
            .remove(0);
        let c = r.stats.total_of(|l| l.constraint);
        println!(
            "    {:<20} {:>10} {:>7} {:>6.1}%   {:>9} {:>9}",
            format!("{template:?}"),
            c.considered,
            c.kept,
            pct(&c),
            r.stats.probed,
            free.stats.probed,
        );
    }
}

//! Perf-trajectory benchmark: time-to-solution per fig8 layer — the
//! search itself and the session's answer to a repeat — plus raw estimate
//! throughput, emitted as `BENCH_schedule.json`.
//!
//! This binary produces the *recorded* perf baseline the repo tracks
//! across PRs: one JSON file with per-layer times, a mapping fingerprint
//! per layer (so optimization PRs can prove search results stayed
//! bit-identical), and a speedup ratio against a committed baseline file.
//!
//! ```text
//! Usage: bench_schedule [quick] [--reps N] [--baseline FILE] [--out FILE]
//! ```
//!
//! * `quick` — subsample layers and repetitions (the CI smoke mode).
//! * `--baseline FILE` — a previously emitted JSON to compare against
//!   (default `results/bench_baseline.json` if present).
//! * `--out FILE` — output path (default `BENCH_schedule.json`).
//!
//! The schema is documented in `results/README.md`.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use sunstone::prelude::*;
use sunstone_arch::{presets, Binding};
use sunstone_mapping::{Mapping, MappingLevel};
use sunstone_model::CostModel;
use sunstone_workloads::{resnet18_layers, Precision};

/// Timing and identity record of one layer's schedule.
struct LayerRow {
    name: String,
    /// The search: the session's first encounter with the shape.
    cold_ms: f64,
    /// Median of the repeats, each answered from the session's result
    /// memo, in microseconds.
    repeat_us: f64,
    best_edp: f64,
    mapping_fp: u64,
    mapping: String,
    probed: u64,
    modeled: u64,
    /// Candidates the bound cut before they were priced.
    bounded: u64,
    /// Tile and unrolling lattice nodes the search spans (replayed on a
    /// memo hit, so the logical count).
    nodes_explored: u64,
    /// Calls of the enumerators' `fits` predicates (the work done).
    capacity_probes: u64,
    /// Fraction of the model evaluations that reused a memoized
    /// decided-prefix cost.
    prefix_hit_rate: f64,
    /// What one candidate through the count kernel cost, priced or cut by
    /// the bound: `phase_ms.estimate_price` ÷ (`modeled` + `bounded`), in
    /// nanoseconds (comparable across layers).
    price_ns: f64,
    /// The search's own phase split.
    phase_ms: PhaseMs,
}

/// `LevelStats::{expand, estimate, select}` — and the parts
/// `expand` and `estimate` split into — summed over stages and over the
/// runs added, in milliseconds, then the search's final ranking
/// (`SearchStats::rank`), plus the wall time the five phases are a split
/// of.
struct PhaseMs {
    expand: f64,
    expand_tiles: f64,
    expand_unrolls: f64,
    expand_orderings: f64,
    expand_rows: f64,
    estimate: f64,
    estimate_prefix: f64,
    estimate_price: f64,
    estimate_publish: f64,
    select: f64,
    rank: f64,
    wall: f64,
}

impl PhaseMs {
    fn of(stats: &SearchStats, wall_ms: f64) -> Self {
        let sum = |phase: fn(&LevelStats) -> Duration| stats.levels.iter().map(phase).map(ms).sum();
        PhaseMs {
            expand: sum(|l| l.expand),
            expand_tiles: sum(|l| l.expand_tiles),
            expand_unrolls: sum(|l| l.expand_unrolls),
            expand_orderings: sum(|l| l.expand_orderings),
            expand_rows: sum(|l| l.expand_rows),
            estimate: sum(|l| l.estimate),
            estimate_prefix: sum(|l| l.estimate_prefix),
            estimate_price: sum(|l| l.estimate_price),
            estimate_publish: sum(|l| l.estimate_publish),
            select: sum(|l| l.select),
            rank: ms(stats.rank),
            wall: wall_ms,
        }
    }

    /// One JSON object; `uncovered_share` is the part of the wall time no
    /// phase timer saw (resolving and building the context, the session's
    /// memo, dropping the search's state).
    fn json(&self) -> String {
        let covered = self.expand + self.estimate + self.select + self.rank;
        let uncovered = if self.wall > 0.0 { 1.0 - covered / self.wall } else { 0.0 };
        format!(
            "{{\"expand\": {:.3}, \"expand_tiles\": {:.3}, \"expand_unrolls\": {:.3}, \
             \"expand_orderings\": {:.3}, \"expand_rows\": {:.3}, \"estimate\": {:.3}, \
             \"estimate_prefix\": {:.3}, \"estimate_price\": {:.3}, \
             \"estimate_publish\": {:.3}, \"select\": {:.3}, \"rank\": {:.3}, \"uncovered_share\": {:.4}}}",
            self.expand,
            self.expand_tiles,
            self.expand_unrolls,
            self.expand_orderings,
            self.expand_rows,
            self.estimate,
            self.estimate_prefix,
            self.estimate_price,
            self.estimate_publish,
            self.select,
            self.rank,
            uncovered
        )
    }
}

use sunstone::fingerprint::mapping_fingerprint;

fn median(samples: &mut [f64]) -> f64 {
    samples.sort_by(f64::total_cmp);
    let n = samples.len();
    if n == 0 {
        return 0.0;
    }
    if n % 2 == 1 {
        samples[n / 2]
    } else {
        0.5 * (samples[n / 2 - 1] + samples[n / 2])
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The most this process ever held resident, in MB: `VmHWM` from
/// `/proc/self/status` (0 where there is none).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Minimal JSON string escaping (names and mapping strings are ASCII).
fn esc(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// One layer row recovered from a previously emitted baseline file.
struct BaselineRow {
    name: String,
    cold_ms: Option<f64>,
    mapping_fp: Option<u64>,
}

/// Reads `"key": <value>` fields out of a flat JSON baseline file —
/// enough structure awareness to recover per-layer search times and
/// mapping fingerprints without a JSON dependency.
fn parse_baseline(text: &str) -> Vec<BaselineRow> {
    let mut rows: Vec<BaselineRow> = Vec::new();
    for line in text.lines() {
        let line = line.trim();
        if let Some(rest) = line.strip_prefix("\"name\": \"") {
            if let Some(end) = rest.find('"') {
                rows.push(BaselineRow {
                    name: rest[..end].to_string(),
                    cold_ms: None,
                    mapping_fp: None,
                });
            }
        } else if let Some(rest) = line.strip_prefix("\"cold_ms\": ") {
            let num: String =
                rest.chars().take_while(|c| c.is_ascii_digit() || *c == '.' || *c == '-').collect();
            if let (Some(row), Ok(v)) = (rows.last_mut(), num.parse::<f64>()) {
                row.cold_ms = Some(v);
            }
        } else if let Some(rest) = line.strip_prefix("\"mapping_fp\": ") {
            let num: String = rest.chars().take_while(char::is_ascii_digit).collect();
            if let (Some(row), Ok(v)) = (rows.last_mut(), num.parse::<u64>()) {
                row.mapping_fp = Some(v);
            }
        }
    }
    rows
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "quick");
    let flag = |name: &str| {
        args.iter().position(|a| a == name).and_then(|i| args.get(i + 1)).map(String::as_str)
    };
    let reps: usize =
        flag("--reps").and_then(|v| v.parse().ok()).unwrap_or(if quick { 3 } else { 7 });
    let out_path = flag("--out").unwrap_or("BENCH_schedule.json").to_string();
    let baseline_path = flag("--baseline").unwrap_or("results/bench_baseline.json").to_string();

    let arch = presets::simba_like();
    let mut layers = resnet18_layers(16);
    if quick {
        layers.truncate(4);
    }
    let config = SunstoneConfig::builder().threads(4).expect("valid").build().expect("valid");
    let scheduler = Scheduler::new(config);

    println!("bench_schedule: {} layers × {} reps on `{}`", layers.len(), reps, arch.name());
    let ratio = |n: u64, d: u64| if d == 0 { 0.0 } else { n as f64 / d as f64 };
    let mut rows: Vec<LayerRow> = Vec::new();
    // SoA dispatch totals over the searches.
    let (mut batches, mut batched, mut modeled_total) = (0u64, 0u64, 0u64);
    for layer in &layers {
        let w = layer.inference(Precision::simba());
        // Cold: the session's first encounter with this shape — the search.
        let t0 = Instant::now();
        let first = scheduler.schedule(&w, &arch).expect("schedules");
        let cold_ms = ms(t0.elapsed());
        let stats = &first.stats;
        let (modeled, bounded) = (stats.modeled, stats.bounded);
        batches += stats.batches;
        batched += stats.batched;
        modeled_total += modeled;
        // Repeat: the session has answered this context; its result memo
        // does again.
        let mut samples = Vec::with_capacity(reps);
        for _ in 0..reps {
            let t = Instant::now();
            let again = scheduler.schedule(&w, &arch).expect("schedules");
            samples.push(t.elapsed().as_secs_f64() * 1e6);
            assert_eq!(again.mapping, first.mapping, "a repeat is the search's own answer");
        }
        let repeat_us = median(&mut samples);
        let phase_ms = PhaseMs::of(stats, cold_ms);
        // What one candidate through the kernel cost, comparable across
        // layers.
        let through = modeled + bounded;
        let price_ns =
            if through == 0 { 0.0 } else { phase_ms.estimate_price * 1e6 / through as f64 };
        println!(
            "  {:10}  cold {:8.1} ms   repeat {:8.1} us   price {:6.0} ns   EDP {:.3e}",
            layer.name, cold_ms, repeat_us, price_ns, first.report.edp
        );
        rows.push(LayerRow {
            name: layer.name.clone(),
            cold_ms,
            repeat_us,
            best_edp: first.report.edp,
            mapping_fp: mapping_fingerprint(&first.mapping),
            mapping: first.mapping.to_string(),
            probed: stats.probed,
            modeled,
            bounded,
            nodes_explored: stats.nodes_explored,
            capacity_probes: stats.capacity_probes,
            prefix_hit_rate: ratio(stats.prefix_hits, modeled),
            price_ns,
            phase_ms,
        });
    }
    let avg_batch_width = ratio(batched, batches);
    println!("  SoA batches: {avg_batch_width:.1} cand/dispatch");

    // Estimate throughput: raw analytic-model evaluations per second on a
    // representative layer's best mapping (no cache in the loop): the count
    // kernel at width 1 against the empty prefix, with a report. Best of
    // three passes — the number records evaluator capability, and `ci.sh`
    // gates regressions against it, so transient load must not leak in.
    let w = layers[if layers.len() > 1 { 1 } else { 0 }].inference(Precision::simba());
    let best = scheduler.schedule(&w, &arch).expect("schedules").mapping;
    let binding = Binding::resolve(&arch, &w).expect("binds");
    let model = CostModel::new(&w, &arch, &binding);
    let evals: usize = if quick { 2_000 } else { 5_000 };
    let mut scratch = model.scratch();
    let mut acc = 0.0f64;
    let mut est_elapsed = Duration::MAX;
    for _ in 0..3 {
        acc = 0.0;
        let t0 = Instant::now();
        for _ in 0..evals {
            acc += model.evaluate_unchecked_with(&best, &mut scratch).edp;
        }
        est_elapsed = est_elapsed.min(t0.elapsed());
    }
    let evals_per_sec = evals as f64 / est_elapsed.as_secs_f64();
    println!("  estimate throughput: {evals_per_sec:.0} evals/s (checksum {acc:.3e})");

    // SoA batch throughput: the branch-free batch evaluator over a shared
    // decided prefix, in the totals-only form the estimate round takes for
    // every maximal same-parent run of candidates. The prefix boundary
    // mirrors the final bottom-up stage (everything below the outermost
    // memory is decided), and the batch width matches the round's claim
    // chunk.
    let mems: Vec<usize> = best
        .levels()
        .iter()
        .enumerate()
        .filter(|(_, l)| matches!(l, MappingLevel::Temporal(_)))
        .map(|(i, _)| i)
        .collect();
    let boundary = mems[mems.len().saturating_sub(2)];
    let prefix = model.prefix_of(&best, boundary);
    let batch_width = 16usize;
    let batch: Vec<Mapping> = vec![best.clone(); batch_width];
    let mut batch_scratch = model.batch_scratch();
    let dispatches: usize = if quick { 1_000 } else { 12_500 };
    let batch_evals = dispatches * batch_width;
    let mut acc2 = 0.0f64;
    let mut batch_elapsed = Duration::MAX;
    for _ in 0..3 {
        acc2 = 0.0;
        let t0 = Instant::now();
        for _ in 0..dispatches {
            model.price_prefixed_batch(&prefix, &batch[..], &mut batch_scratch, |_, totals| {
                acc2 += totals.energy_pj * totals.delay_cycles;
            });
        }
        batch_elapsed = batch_elapsed.min(t0.elapsed());
    }
    let batch_evals_per_sec = batch_evals as f64 / batch_elapsed.as_secs_f64();
    println!(
        "  batch estimate throughput: {batch_evals_per_sec:.0} evals/s \
         ({batch_width}-wide SoA, checksum {acc2:.3e})"
    );

    // Speedup against the committed baseline, when present: the median
    // over layers of (baseline search time / current search time). A
    // speedup is only meaningful if the search still finds the same
    // mappings, so every baseline fingerprint is checked first.
    let baseline = std::fs::read_to_string(&baseline_path).ok().map(|t| parse_baseline(&t));
    let mut fp_mismatches: Vec<&str> = Vec::new();
    let speedup = baseline.as_ref().and_then(|rows_base| {
        let mut ratios: Vec<f64> = Vec::new();
        for r in &rows {
            let Some(base) = rows_base.iter().find(|b| b.name == r.name) else { continue };
            if let Some(fp) = base.mapping_fp {
                if fp != r.mapping_fp {
                    fp_mismatches.push(&r.name);
                }
            }
            if let Some(base_ms) = base.cold_ms {
                ratios.push(base_ms / r.cold_ms);
            }
        }
        if ratios.is_empty() {
            None
        } else {
            Some(median(&mut ratios))
        }
    });
    let mappings_match = fp_mismatches.is_empty();
    if !mappings_match {
        println!(
            "  WARNING: best mappings diverged from the baseline for: {}",
            fp_mismatches.join(", ")
        );
    }
    if let Some(s) = speedup {
        let tag = if mappings_match { " (mappings bit-identical)" } else { " (NOT comparable)" };
        println!("  median speedup vs {baseline_path}: {s:.2}×{tag}");
    }

    let mut cold: Vec<f64> = rows.iter().map(|r| r.cold_ms).collect();
    let schedule_median_ms = median(&mut cold);
    let peak_rss_mb = peak_rss_mb();
    println!("  peak RSS: {peak_rss_mb:.1} MB");

    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"schema\": \"sunstone-bench-schedule/v13\",");
    let _ = writeln!(json, "  \"mode\": \"{}\",", if quick { "quick" } else { "full" });
    let _ = writeln!(json, "  \"arch\": \"{}\",", esc(arch.name()));
    let _ = writeln!(json, "  \"reps\": {reps},");
    let _ = writeln!(json, "  \"schedule_median_ms\": {schedule_median_ms:.3},");
    let _ = writeln!(json, "  \"peak_rss_mb\": {peak_rss_mb:.2},");
    let _ = writeln!(json, "  \"layers\": [");
    for (i, r) in rows.iter().enumerate() {
        let _ = writeln!(json, "    {{");
        let _ = writeln!(json, "      \"name\": \"{}\",", esc(&r.name));
        let _ = writeln!(json, "      \"cold_ms\": {:.3},", r.cold_ms);
        let _ = writeln!(json, "      \"repeat_us\": {:.3},", r.repeat_us);
        let _ = writeln!(json, "      \"best_edp\": {:.6e},", r.best_edp);
        let _ = writeln!(json, "      \"probed\": {},", r.probed);
        let _ = writeln!(json, "      \"modeled\": {},", r.modeled);
        let _ = writeln!(json, "      \"bounded\": {},", r.bounded);
        let _ = writeln!(json, "      \"nodes_explored\": {},", r.nodes_explored);
        let _ = writeln!(json, "      \"capacity_probes\": {},", r.capacity_probes);
        let _ = writeln!(json, "      \"prefix_hit_rate\": {:.4},", r.prefix_hit_rate);
        let _ = writeln!(json, "      \"price_ns\": {:.1},", r.price_ns);
        let _ = writeln!(json, "      \"phase_ms\": {},", r.phase_ms.json());
        let _ = writeln!(json, "      \"mapping_fp\": {},", r.mapping_fp);
        let _ = writeln!(json, "      \"mapping\": \"{}\"", esc(&r.mapping));
        let _ = writeln!(json, "    }}{}", if i + 1 < rows.len() { "," } else { "" });
    }
    let _ = writeln!(json, "  ],");
    let _ = writeln!(json, "  \"estimate\": {{");
    let _ = writeln!(json, "    \"evals\": {evals},");
    let _ = writeln!(json, "    \"elapsed_ms\": {:.3},", ms(est_elapsed));
    let _ = writeln!(json, "    \"evals_per_sec\": {evals_per_sec:.1},");
    let _ = writeln!(json, "    \"batch_evals\": {batch_evals},");
    let _ = writeln!(json, "    \"batch_width\": {batch_width},");
    let _ = writeln!(json, "    \"batch_elapsed_ms\": {:.3},", ms(batch_elapsed));
    let _ = writeln!(json, "    \"batch_evals_per_sec\": {batch_evals_per_sec:.1}");
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"batching\": {{");
    let _ = writeln!(json, "    \"batches\": {batches},");
    let _ = writeln!(json, "    \"avg_batch_width\": {avg_batch_width:.2},");
    let _ = writeln!(json, "    \"batched_fraction\": {:.4}", ratio(batched, modeled_total));
    let _ = writeln!(json, "  }},");
    match speedup {
        Some(s) => {
            let _ = writeln!(json, "  \"baseline\": \"{}\",", esc(&baseline_path));
            let _ = writeln!(json, "  \"mappings_match_baseline\": {mappings_match},");
            let _ = writeln!(json, "  \"speedup_vs_baseline\": {s:.3}");
        }
        None => {
            let _ = writeln!(json, "  \"baseline\": null,");
            let _ = writeln!(json, "  \"mappings_match_baseline\": null,");
            let _ = writeln!(json, "  \"speedup_vs_baseline\": null");
        }
    }
    let _ = writeln!(json, "}}");
    std::fs::write(&out_path, &json).expect("write BENCH json");
    println!("wrote {out_path}");
}

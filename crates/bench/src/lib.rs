//! Shared helpers for the experiment binaries.
//!
//! Each binary in `src/bin/` regenerates one table or figure of the
//! paper; see `DESIGN.md` for the experiment index and `EXPERIMENTS.md`
//! for recorded results. Binaries accept an optional `quick` argument to
//! subsample workloads for a fast smoke run.

use std::time::Duration;

pub mod table6;

use sunstone_arch::ArchSpec;
use sunstone_baselines::{MapOutcome, Mapper};
use sunstone_ir::Workload;
use sunstone_workloads::{resnet18_layers, ConvSpec};

/// Returns `true` when the binary was invoked with the `quick` argument.
pub fn quick_mode() -> bool {
    std::env::args().any(|a| a == "quick")
}

/// The ResNet-18 layer set of an experiment run: batch `full_batch`
/// normally; batch `quick_batch` truncated to the first `quick_len`
/// layers under [`quick_mode`]. Every ResNet bench shares this setup so
/// the quick-mode subsampling lives in one place.
pub fn resnet18_experiment_layers(
    full_batch: u64,
    quick_batch: u64,
    quick_len: usize,
) -> Vec<ConvSpec> {
    let mut layers = resnet18_layers(if quick_mode() { quick_batch } else { full_batch });
    if quick_mode() {
        layers.truncate(quick_len);
    }
    layers
}

/// One result cell: a mapper's outcome on a workload.
#[derive(Debug, Clone)]
pub struct Cell {
    /// Mapper display name.
    pub mapper: String,
    /// Workload name.
    pub workload: String,
    /// EDP in pJ·cycles, `None` when the mapping was invalid.
    pub edp: Option<f64>,
    /// Search energy in pJ.
    pub energy: Option<f64>,
    /// Delay in cycles.
    pub delay: Option<f64>,
    /// Time-to-solution.
    pub elapsed: Duration,
    /// Invalidity reason, if any.
    pub invalid_reason: Option<String>,
}

impl Cell {
    /// Builds a cell from a mapper outcome.
    pub fn from_outcome(workload: &str, out: &MapOutcome) -> Self {
        Cell {
            mapper: out.mapper.clone(),
            workload: workload.to_string(),
            edp: out.edp(),
            energy: out.report.as_ref().map(|r| r.energy_pj),
            delay: out.report.as_ref().map(|r| r.delay_cycles),
            elapsed: out.stats.elapsed,
            invalid_reason: out.invalid_reason.clone(),
        }
    }
}

/// Runs a set of mappers over a set of workloads, printing progress rows
/// as they finish, and returns all cells.
pub fn run_matrix(
    mappers: &[&dyn Mapper],
    workloads: &[(String, Workload)],
    arch: &ArchSpec,
) -> Vec<Cell> {
    let mut cells = Vec::new();
    for (name, w) in workloads {
        for mapper in mappers {
            let out = mapper.map(w, arch);
            let cell = Cell::from_outcome(name, &out);
            print_cell(&cell);
            cells.push(cell);
        }
    }
    cells
}

/// Prints one result row.
pub fn print_cell(c: &Cell) {
    match (&c.edp, &c.invalid_reason) {
        (Some(edp), _) => {
            println!(
            "  {:<22} {:<12} edp={:>12.4e}  energy={:>12.4e} pJ  delay={:>10.3e} cyc  t={:>9.3?}",
            c.workload, c.mapper, edp, c.energy.unwrap_or(0.0), c.delay.unwrap_or(0.0), c.elapsed
        )
        }
        (None, Some(reason)) => println!(
            "  {:<22} {:<12} INVALID ({reason})  t={:>9.3?}",
            c.workload, c.mapper, c.elapsed
        ),
        (None, None) => println!("  {:<22} {:<12} INVALID", c.workload, c.mapper),
    }
}

/// Geometric mean of positive values; `None` when empty.
pub fn geomean(values: impl IntoIterator<Item = f64>) -> Option<f64> {
    let mut log_sum = 0.0f64;
    let mut n = 0usize;
    for v in values {
        if v > 0.0 {
            log_sum += v.ln();
            n += 1;
        }
    }
    if n == 0 {
        None
    } else {
        Some((log_sum / n as f64).exp())
    }
}

/// Prints per-mapper EDP-vs-Sunstone and speed-vs-Sunstone summaries.
pub fn print_summary(cells: &[Cell]) {
    let mut mappers: Vec<String> = cells.iter().map(|c| c.mapper.clone()).collect();
    mappers.sort();
    mappers.dedup();
    println!("\n== Summary (ratios vs Sunstone, geometric mean over valid layers) ==");
    for m in &mappers {
        if m == "Sunstone" {
            continue;
        }
        let mut edp_ratios = Vec::new();
        let mut time_ratios = Vec::new();
        let mut invalid = 0usize;
        let mut total = 0usize;
        for c in cells.iter().filter(|c| &c.mapper == m) {
            total += 1;
            let Some(sun) =
                cells.iter().find(|s| s.mapper == "Sunstone" && s.workload == c.workload)
            else {
                continue;
            };
            match c.edp {
                Some(edp) => {
                    if let Some(se) = sun.edp {
                        edp_ratios.push(edp / se);
                    }
                    time_ratios.push(c.elapsed.as_secs_f64() / sun.elapsed.as_secs_f64().max(1e-9));
                }
                None => invalid += 1,
            }
        }
        println!(
            "  {:<12} edp/sunstone = {:>7}   time/sunstone = {:>9}   invalid {}/{}",
            m,
            geomean(edp_ratios).map(|g| format!("{g:.2}x")).unwrap_or_else(|| "-".into()),
            geomean(time_ratios).map(|g| format!("{g:.1}x")).unwrap_or_else(|| "-".into()),
            invalid,
            total,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_basics() {
        assert_eq!(geomean([4.0, 1.0]), Some(2.0));
        assert_eq!(geomean([]), None);
        assert_eq!(geomean([0.0, -1.0]), None, "non-positive values are skipped");
    }
}

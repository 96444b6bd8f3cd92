//! Table VI: effect of the optimization order — inter-level (bottom-up vs
//! top-down) and intra-level (unrolling/tiling/ordering permutations) —
//! on explored-space size and resulting EDP, for ResNet-18 convolution
//! layers on the Eyeriss-like accelerator.
//!
//! The six rows come from the study search of `sunstone_bench::table6`;
//! the library's own search (bottom-up, unroll→tile→order) follows for
//! reference. Exits non-zero when a row fails on a layer.
//!
//! Run with `cargo run --release -p sunstone-bench --bin table6_order`
//! (append `quick` for a subsampled run).

use std::process::ExitCode;

use sunstone::{Scheduler, SunstoneConfig};
use sunstone_arch::presets;
use sunstone_bench::resnet18_experiment_layers;
use sunstone_bench::table6::{self, Direction, VARIANTS};
use sunstone_ir::Workload;
use sunstone_workloads::Precision;

const BEAM: usize = 48;

/// What one search of a layer cost and found: candidates priced, nodes
/// explored, beam cut, EDP.
type Searched = Result<(u64, u64, u64, f64), String>;

/// Prints one row — the sums over the layers and the geo-mean EDP — and
/// returns the EDP, or `None` when `search` failed on a layer.
fn row(
    (inter, intra): (&str, &str),
    layers: &[(String, Workload)],
    search: impl Fn(&Workload) -> Searched,
) -> Option<f64> {
    let (mut priced, mut nodes, mut cut, mut log_edp, mut ok) = (0, 0, 0, 0.0f64, true);
    for (name, w) in layers {
        match search(w) {
            Ok((p, n, c, edp)) => {
                (priced, nodes, cut) = (priced + p, nodes + n, cut + c);
                log_edp += edp.ln();
            }
            Err(e) => {
                println!("    ! {inter}/{intra} failed on {name}: {e}");
                ok = false;
            }
        }
    }
    let edp = (log_edp / layers.len() as f64).exp();
    println!("  {inter:<16} {intra:<20} {priced:>12} {nodes:>14} {cut:>12} {edp:>14.4e}");
    ok.then_some(edp)
}

fn main() -> ExitCode {
    let arch = presets::eyeriss_like();
    let layers: Vec<_> = resnet18_experiment_layers(16, 16, 3)
        .iter()
        .map(|l| (l.name.clone(), l.inference(Precision::conventional())))
        .collect();
    println!("Table VI — optimization order on `{}` (ResNet-18, beam {BEAM})\n", arch.name());
    println!(
        "  {:<16} {:<20} {:>12} {:>14} {:>12} {:>14}",
        "inter-level", "intra-level", "priced", "nodes explored", "beam cut", "EDP (geo-mean)"
    );
    let study: Vec<Option<f64>> = VARIANTS
        .iter()
        .map(|&variant| {
            let inter = match variant.0 {
                Direction::BottomUp => "bottom-up",
                Direction::TopDown => "top-down",
            };
            row((inter, variant.1.label()), &layers, |w| {
                let r = table6::search(w, &arch, variant, BEAM)?;
                Ok((r.priced, r.nodes, r.beam_cut, r.report.edp))
            })
        })
        .collect();
    let scheduler = Scheduler::new(SunstoneConfig::default());
    let library = row(("library", "(default)"), &layers, |w| {
        let r = scheduler.schedule(w, &arch).map_err(|e| e.to_string())?;
        Ok((r.stats.probed, r.stats.nodes_explored, r.stats.beam_cut(), r.report.edp))
    });
    let geo: Option<Vec<f64>> = study.into_iter().collect();
    let (Some(geo), Some(_)) = (geo, library) else {
        eprintln!("table6_order: a row failed on a layer");
        return ExitCode::FAILURE;
    };
    println!("\ntop-down / bottom-up EDP (unroll→tile→order): {:.2}x", geo[3] / geo[0]);
    let lowest = (0..geo.len()).min_by(|&a, &b| geo[a].total_cmp(&geo[b])).expect("six rows");
    println!("lowest study EDP: {:?} {}", VARIANTS[lowest].0, VARIANTS[lowest].1.label());
    ExitCode::SUCCESS
}

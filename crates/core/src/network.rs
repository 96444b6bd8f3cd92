//! Network-level scheduling: a chain of layers with cross-layer layout
//! consistency.
//!
//! Scheduling each layer independently ignores a real cost: if layer
//! *i*'s output is laid out in DRAM differently from how layer *i+1*'s
//! mapping wants to read it, the activation must be reordered — a full
//! DRAM read+write pass (Section V-D of the paper). [`schedule_chain`]
//! keeps several near-optimal candidates per layer (the surviving beam)
//! and picks, layer by layer, the candidate whose consumption order
//! matches the producer's emission order, falling back to the best
//! standalone candidate when no match exists.
//!
//! Candidate generation rides on the session batch path
//! ([`Scheduler::schedule_batch_outcomes`]): repeated layer shapes are
//! searched once and their candidate lists replayed per occurrence, the
//! unique shapes fan out across worker threads, and the layout pass then
//! selects per *occurrence* — so two occurrences of the same shape may
//! still pick different candidates, as their upstream layouts differ.

use serde::{Deserialize, Serialize};
use sunstone_arch::ArchSpec;
use sunstone_ir::Workload;
use sunstone_mapping::{Mapping, MappingLevel};

use crate::session::{BatchStats, ScheduleOptions, Scheduler};
use crate::{ScheduleError, ScheduleResult};

/// Options for [`schedule_chain`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ChainOptions {
    /// How many candidate mappings to keep per layer when looking for a
    /// layout match.
    pub candidates_per_layer: usize,
    /// Name of each layer's consumed activation tensor.
    pub consumer_tensor: String,
    /// Name of each layer's produced activation tensor.
    pub producer_tensor: String,
    /// Dimension renames applied to the producer's signature before
    /// comparison (for convolutions, the producer's `K` is the consumer's
    /// `C`).
    pub renames: Vec<(String, String)>,
}

impl Default for ChainOptions {
    fn default() -> Self {
        ChainOptions {
            candidates_per_layer: 8,
            consumer_tensor: "ifmap".to_string(),
            producer_tensor: "ofmap".to_string(),
            renames: vec![("K".to_string(), "C".to_string())],
        }
    }
}

/// The result of scheduling a layer chain.
#[derive(Debug, Clone)]
pub struct ChainResult {
    /// Per-layer schedules, in input order.
    pub layers: Vec<ScheduleResult>,
    /// Layer-to-layer transitions whose layouts matched (no reordering
    /// needed), out of `layers.len() − 1`. The first layer's input
    /// arrives in an external layout and is not counted either way.
    pub matched_transitions: usize,
    /// Activation words requiring a DRAM reordering pass across the whole
    /// chain.
    pub reorder_words: u64,
    /// Dedup/estimate/parallelism statistics of the underlying batch call.
    pub batch: BatchStats,
}

impl ChainResult {
    /// Total EDP across the chain (sum of layer EDPs).
    pub fn total_edp(&self) -> f64 {
        self.layers.iter().map(|l| l.report.edp).sum()
    }
}

/// The DRAM-level traversal signature of a tensor under a mapping: the
/// outermost-first order of the dimensions (by name) that index the
/// tensor and iterate at the outermost memory, with `renames` applied.
pub fn layout_signature(
    workload: &Workload,
    mapping: &Mapping,
    tensor: &str,
    renames: &[(String, String)],
) -> Option<Vec<String>> {
    let t = workload.tensor_by_name(tensor)?;
    let indexing = workload.tensor(t).indexing_dims();
    let last = mapping.levels().len() - 1;
    let MappingLevel::Temporal(dram) = &mapping.levels()[last] else {
        return None;
    };
    Some(
        dram.order_outermost_first()
            .into_iter()
            .filter(|d| dram.factors[d.index()] > 1 && indexing.contains(*d))
            .map(|d| {
                let name = workload.dim(d).name();
                renames
                    .iter()
                    .find(|(from, _)| from == name)
                    .map(|(_, to)| to.clone())
                    .unwrap_or_else(|| name.to_string())
            })
            .collect(),
    )
}

/// Schedules a chain of layers with layout consistency; see the
/// [module documentation](self). `controls` carries the batch's per-call
/// controls (time budget, cancellation, progress); its `top_k` is
/// overridden by `options.candidates_per_layer`.
///
/// # Errors
///
/// Fails if any layer cannot be scheduled at all, plus cancellation and
/// budget errors as in [`Scheduler::schedule_batch_outcomes`].
pub fn schedule_chain(
    scheduler: &Scheduler,
    layers: &[Workload],
    arch: &ArchSpec,
    options: &ChainOptions,
    controls: &ScheduleOptions,
) -> Result<ChainResult, ScheduleError> {
    let batch_opts = controls.clone().top_k(options.candidates_per_layer);
    let batch = scheduler.schedule_batch_outcomes(layers, arch, &batch_opts)?.into_result()?;

    let mut results: Vec<ScheduleResult> = Vec::with_capacity(layers.len());
    let mut matched = 0usize;
    let mut reorder_words = 0u64;
    let mut producer_sig: Option<Vec<String>> = None;

    for (workload, candidates) in layers.iter().zip(batch.layers) {
        let pick = producer_sig
            .as_ref()
            .and_then(|sig| {
                candidates.iter().position(|c| {
                    layout_signature(workload, &c.mapping, &options.consumer_tensor, &[]).as_ref()
                        == Some(sig)
                })
            })
            .unwrap_or(0);
        // `pick` is in range whenever the batch upholds its non-empty
        // contract; a violation surfaces as a typed internal fault rather
        // than a panic (the chain is a public entry point).
        let chosen = candidates.into_iter().nth(pick).ok_or_else(|| ScheduleError::Internal {
            stage: "chain: layout selection".into(),
            layer: Some(workload.name().to_string()),
            message: "batch returned an empty candidate list".into(),
        })?;

        // Only layer-to-layer transitions count: the first layer's input
        // arrives in an external layout either way.
        if producer_sig.is_some() {
            let chosen_sig =
                layout_signature(workload, &chosen.mapping, &options.consumer_tensor, &[]);
            if chosen_sig == producer_sig {
                matched += 1;
            } else if let Some(t) = workload.tensor_by_name(&options.consumer_tensor) {
                reorder_words += workload.tensor(t).footprint(&workload.dim_sizes());
            }
        }
        producer_sig =
            layout_signature(workload, &chosen.mapping, &options.producer_tensor, &options.renames);
        results.push(chosen);
    }
    Ok(ChainResult {
        layers: results,
        matched_transitions: matched,
        reorder_words,
        batch: batch.stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SunstoneConfig;
    use sunstone_arch::presets;

    fn conv(name: &str, n: u64, k: u64, c: u64, pq: u64) -> Workload {
        let mut b = Workload::builder(name);
        let nn = b.dim("N", n);
        let kk = b.dim("K", k);
        let cc = b.dim("C", c);
        let pp = b.dim("P", pq);
        let qq = b.dim("Q", pq);
        let rr = b.dim("R", 3);
        let ss = b.dim("S", 3);
        b.input("ifmap", [nn.expr(), cc.expr(), pp + rr, qq + ss]);
        b.input("weight", [kk.expr(), cc.expr(), rr.expr(), ss.expr()]);
        b.output("ofmap", [nn.expr(), kk.expr(), pp.expr(), qq.expr()]);
        b.build().unwrap()
    }

    fn run_chain(scheduler: &Scheduler, layers: &[Workload], arch: &ArchSpec) -> ChainResult {
        let options = ChainOptions::default();
        schedule_chain(scheduler, layers, arch, &options, &ScheduleOptions::new()).unwrap()
    }

    #[test]
    fn chain_scheduling_matches_or_charges_reordering() {
        let arch = presets::conventional();
        let layers =
            vec![conv("l1", 2, 32, 16, 14), conv("l2", 2, 32, 32, 14), conv("l3", 2, 64, 32, 14)];
        let scheduler = Scheduler::new(SunstoneConfig::default());
        let chain = run_chain(&scheduler, &layers, &arch);
        assert_eq!(chain.layers.len(), 3);
        assert!(chain.total_edp() > 0.0);
        assert_eq!(chain.batch.layers, 3);
        assert_eq!(chain.batch.unique_shapes, 3);
        // Either every transition matched (no reorder) or the mismatches
        // were charged.
        assert!(chain.matched_transitions < layers.len());
        if chain.matched_transitions < layers.len() - 1 {
            assert!(chain.reorder_words > 0);
        } else {
            assert_eq!(chain.reorder_words, 0);
        }
    }

    #[test]
    fn chain_never_costs_more_edp_than_independent_plus_tiny_slack() {
        let arch = presets::conventional();
        let layers = vec![conv("l1", 2, 32, 16, 14), conv("l2", 2, 32, 32, 14)];
        let scheduler = Scheduler::new(SunstoneConfig::default());
        let chain = run_chain(&scheduler, &layers, &arch);
        let independent: f64 =
            layers.iter().map(|w| scheduler.schedule(w, &arch).unwrap().report.edp).sum();
        // Layout matching only ever picks among near-optimal candidates.
        assert!(chain.total_edp() <= independent * 1.25, "{} vs {independent}", chain.total_edp());
    }

    #[test]
    fn chain_dedups_repeated_shapes_but_selects_per_occurrence() {
        let arch = presets::conventional();
        // l2 and l3 share a shape (names differ); the batch searches it
        // once and the layout pass still selects per occurrence.
        let layers =
            vec![conv("l1", 2, 32, 16, 14), conv("l2", 2, 32, 32, 14), conv("l3", 2, 32, 32, 14)];
        let scheduler = Scheduler::new(SunstoneConfig::default());
        let chain = run_chain(&scheduler, &layers, &arch);
        assert_eq!(chain.layers.len(), 3);
        assert_eq!(chain.batch.unique_shapes, 2);
        assert_eq!(chain.batch.dedup_hits, 1);
    }

    #[test]
    fn signature_applies_renames() {
        let arch = presets::conventional();
        let w = conv("l", 2, 32, 16, 14);
        let scheduler = Scheduler::new(SunstoneConfig::default());
        let r = scheduler.schedule(&w, &arch).unwrap();
        let sig = layout_signature(&w, &r.mapping, "ofmap", &[("K".to_string(), "C".to_string())])
            .unwrap();
        assert!(!sig.iter().any(|n| n == "K"), "K renamed to C: {sig:?}");
    }
}

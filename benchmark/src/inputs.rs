//! The inputs of the five workloads. Everything here is a pure function
//! of its arguments: the seed only ever picks and orders, so the program
//! under test sees nothing but generated inputs.

use sunstone_arch::ArchSpec;
use sunstone_ir::Workload;
use sunstone_serve::wire::arch_by_name;
use sunstone_workloads::mobilenet::mobilenet_v2_blocks;
use sunstone_workloads::{extra, inception_v3_layers, resnet18_layers, resnet18_network, tensor};
use sunstone_workloads::{ConvSpec, Precision};

use crate::stats::Rng;

/// The architecture of the DNN and daemon workloads.
pub const NET_ARCH: &str = "simba_like";

/// One (workload, architecture) pair the scheduler is asked about.
#[derive(Debug, Clone)]
pub struct Context {
    /// Stable identity: the key into `benchmark/expected/`. Two contexts
    /// share a key exactly when they are the same shape on the same
    /// architecture (ResNet's block repeats do).
    pub key: String,
    pub workload: Workload,
    pub arch_name: &'static str,
    pub arch: ArchSpec,
}

impl Context {
    fn new(key: impl Into<String>, workload: Workload, arch_name: &'static str) -> Context {
        let arch = arch_by_name(arch_name).expect("the benchmark only names shipped presets");
        Context { key: format!("{}@{arch_name}", key.into()), workload, arch_name, arch }
    }
}

/// Positions of the first occurrence of every key, in input order.
pub fn unique_positions(contexts: &[Context]) -> Vec<usize> {
    let mut seen = std::collections::HashSet::new();
    (0..contexts.len()).filter(|&i| seen.insert(contexts[i].key.as_str())).collect()
}

/// ResNet-18 with block repeats (20 convolutions) followed by five
/// MobileNetV2 inverted residuals (expand, depthwise, project): 35 layers,
/// 26 distinct shapes, batch 16, Simba precision.
pub fn net_layers() -> Vec<Context> {
    let bits = Precision::simba();
    let mut out: Vec<Context> = resnet18_network(16)
        .iter()
        .map(|l| {
            // `conv2_x/3` is the fourth occurrence of the shape `conv2_x`.
            let shape = l.name.split('/').next().expect("split yields at least one piece");
            Context::new(shape, l.inference(bits), NET_ARCH)
        })
        .collect();
    for block in mobilenet_v2_blocks(16) {
        for w in block.workloads(bits) {
            out.push(Context::new(w.name().to_string(), w, NET_ARCH));
        }
    }
    out
}

/// The 11 distinct ResNet-18 layers of fig 8.
pub fn warm_layers() -> Vec<Context> {
    resnet18_layers(16)
        .iter()
        .map(|l| Context::new(l.name.clone(), l.inference(Precision::simba()), NET_ARCH))
        .collect()
}

/// 21 kernels that are not inference convolutions — the eight Fig-6
/// instances, four attention / contraction / FFN kernels and the nine
/// Inception-v3 weight updates — each on a one-spatial-level and a
/// three-memory-level architecture: 42 pairs.
pub fn tensor_pairs() -> Vec<Context> {
    let mut kernels: Vec<(String, Workload)> = vec![
        ("mttkrp_nell2".into(), tensor::mttkrp(tensor::NELL2, 32)),
        ("mttkrp_netflix".into(), tensor::mttkrp(tensor::NETFLIX, 32)),
        ("mttkrp_poisson1".into(), tensor::mttkrp(tensor::POISSON1, 32)),
        ("ttmc_nell2".into(), tensor::ttmc(tensor::NELL2, 8)),
        ("ttmc_netflix".into(), tensor::ttmc(tensor::NETFLIX, 8)),
        ("ttmc_poisson1".into(), tensor::ttmc(tensor::POISSON1, 8)),
        ("sddmm_bcsstk17".into(), tensor::sddmm(tensor::BCSSTK17, 512)),
        ("sddmm_cant".into(), tensor::sddmm(tensor::CANT, 512)),
        ("attention_mmc".into(), tensor::attention_mmc()),
        ("alexnet_tcl".into(), tensor::alexnet_tcl()),
        ("attention_scores".into(), extra::attention_scores(12, 512, 64)),
        ("transformer_ffn".into(), extra::transformer_ffn(512, 768, 3072)),
    ];
    for l in inception_v3_layers(16) {
        kernels.push((format!("{}_wu", l.name), l.weight_update(Precision::conventional())));
    }
    let mut out = Vec::with_capacity(2 * kernels.len());
    for (key, w) in kernels {
        for arch in ["conventional", "diannao_like"] {
            out.push(Context::new(key.clone(), w.clone(), arch));
        }
    }
    out
}

/// Every conv shape the churn workload can ask for: the full product of
/// the ranges below, 4320 shapes. The reference file covers all of them,
/// so any seed's draw has a reference.
pub fn churn_universe() -> Vec<ConvSpec> {
    let mut out = Vec::new();
    for n in [1u64, 2, 4, 8, 16] {
        for k in [16u64, 32, 64, 128, 256, 512] {
            for c in [16u64, 32, 64, 128, 256, 512] {
                for p in [7u64, 14, 28, 56] {
                    for r in [1u64, 3, 5] {
                        for stride in [1u64, 2] {
                            let name = format!("churn_n{n}_k{k}_c{c}_p{p}_r{r}_s{stride}");
                            out.push(ConvSpec::new(name, n, k, c, p, p, r, r, stride));
                        }
                    }
                }
            }
        }
    }
    out
}

pub fn churn_context(spec: &ConvSpec) -> Context {
    Context::new(spec.name.clone(), spec.inference(Precision::simba()), NET_ARCH)
}

/// One request of the churn plan: ask for the `context`-th distinct shape
/// of the plan, for the first time (`new`) or again.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Step {
    pub context: usize,
    pub new: bool,
}

/// The churn request plan: `steps.len() / 2` distinct shapes drawn from
/// the universe without repeats, each asked for once as `new`, and as many
/// repeats of a shape introduced earlier in the plan — so a daemon that
/// searches every shape once serves exactly half the plan from its memo.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Plan {
    /// Universe index of each distinct shape, in order of introduction.
    pub shapes: Vec<usize>,
    pub steps: Vec<Step>,
}

pub fn churn_plan(seed: u64, universe: usize, requests: usize) -> Plan {
    let mut rng = Rng::fork(seed, 0xC4_0121);
    let distinct = (requests / 2).min(universe);
    let mut pool: Vec<usize> = (0..universe).collect();
    for i in 0..distinct {
        let j = i + rng.below(universe - i);
        pool.swap(i, j);
    }
    pool.truncate(distinct);
    let mut steps = Vec::with_capacity(2 * distinct);
    for introduced in 0..distinct {
        let fresh = Step { context: introduced, new: true };
        // The first pair must open with its new shape: nothing precedes it.
        if introduced == 0 || rng.below(2) == 0 {
            steps.push(fresh);
            steps.push(Step { context: rng.below(introduced + 1), new: false });
        } else {
            steps.push(Step { context: rng.below(introduced), new: false });
            steps.push(fresh);
        }
    }
    Plan { shapes: pool, steps }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::{HashMap, HashSet};
    use sunstone::fingerprint::workload_fingerprint;

    /// Same key ⇔ same shape on the same architecture.
    fn keys_identify_shapes(contexts: &[Context]) {
        let mut by_key: HashMap<&str, u64> = HashMap::new();
        let mut by_shape: HashMap<(u64, &str), &str> = HashMap::new();
        for c in contexts {
            let fp = workload_fingerprint(&c.workload);
            assert_eq!(*by_key.entry(&c.key).or_insert(fp), fp, "key {} names two shapes", c.key);
            let key = by_shape.entry((fp, c.arch_name)).or_insert(&c.key);
            assert_eq!(*key, c.key, "one shape under two keys");
        }
    }

    #[test]
    fn library_inputs_have_the_documented_sizes() {
        let net = net_layers();
        assert_eq!((net.len(), unique_positions(&net).len()), (35, 26));
        keys_identify_shapes(&net);
        let warm = warm_layers();
        assert_eq!((warm.len(), unique_positions(&warm).len()), (11, 11));
        let net_keys: HashSet<&str> = net.iter().map(|c| c.key.as_str()).collect();
        assert!(warm.iter().all(|c| net_keys.contains(c.key.as_str())));
        let pairs = tensor_pairs();
        assert_eq!((pairs.len(), unique_positions(&pairs).len()), (42, 42));
        keys_identify_shapes(&pairs);
    }

    #[test]
    fn churn_universe_is_the_full_product_without_repeats() {
        let universe = churn_universe();
        assert_eq!(universe.len(), 5 * 6 * 6 * 4 * 3 * 2);
        let names: HashSet<&str> = universe.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names.len(), universe.len());
    }

    #[test]
    fn churn_plan_repeats_per_seed_and_is_half_repeats() {
        let plan = churn_plan(3, 4320, 1200);
        assert_eq!(plan, churn_plan(3, 4320, 1200));
        assert_ne!(plan, churn_plan(4, 4320, 1200));
        assert_eq!(plan.steps.len(), 1200);
        assert_eq!(plan.steps.iter().filter(|s| s.new).count() * 2, plan.steps.len());
        let shapes: HashSet<usize> = plan.shapes.iter().copied().collect();
        assert_eq!(shapes.len(), plan.shapes.len(), "a shape is introduced twice");
        // Each shape is new exactly once, in order, and a repeat only
        // names a shape an earlier step introduced.
        let mut introduced = 0usize;
        for step in &plan.steps {
            if step.new {
                assert_eq!(step.context, introduced);
                introduced += 1;
            } else {
                assert!(step.context < introduced, "repeat of a shape not yet introduced");
            }
        }
    }

    #[test]
    fn churn_plan_is_capped_by_the_universe() {
        let plan = churn_plan(1, 10, 1000);
        assert_eq!((plan.shapes.len(), plan.steps.len()), (10, 20));
    }
}

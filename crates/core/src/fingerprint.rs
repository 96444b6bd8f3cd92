//! Stable structural fingerprints for result-memo keys and batch dedup.
//!
//! The session's result memo ([`crate::Scheduler`]) is keyed by
//! *(workload, architecture, configuration, constraints)*, condensed into
//! one 64-bit fingerprint with a fixed FNV-1a hash — not
//! `std::hash::DefaultHasher`, whose output may change between Rust
//! releases — so keys are reproducible run to run, shared across calls
//! and worker threads, and good for keying results persisted on disk.
//!
//! Workload fingerprints deliberately exclude the workload's *name*: two
//! ResNet blocks with identical shapes ("conv2_1" and "conv2_2") must
//! collapse to one search in a batch
//! ([`Scheduler::schedule_batch_outcomes`](crate::Scheduler::schedule_batch_outcomes)).
//! Dimension and tensor names are included — tensor names feed binding
//! (buffer filters match by name) and dimension names feed nothing in the
//! search itself but keep the fingerprint an over- rather than
//! under-approximation of "schedules identically".

use sunstone_arch::{ArchSpec, Capacity, Level, TensorFilter};
use sunstone_ir::{DimRole, Workload};
use sunstone_mapping::{DimRef, MappingConstraints};

use crate::{Objective, SunstoneConfig};

/// 64-bit FNV-1a, the fixed-parameter streaming hash behind every
/// fingerprint.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Fnv1a(u64);

impl Fnv1a {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    pub(crate) fn new() -> Self {
        Fnv1a(Self::OFFSET)
    }

    pub(crate) fn write_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(Self::PRIME);
        }
    }

    pub(crate) fn write_u64(&mut self, v: u64) {
        self.write_bytes(&v.to_le_bytes());
    }

    pub(crate) fn write_f64(&mut self, v: f64) {
        self.write_bytes(&v.to_bits().to_le_bytes());
    }

    pub(crate) fn write_str(&mut self, s: &str) {
        self.write_u64(s.len() as u64);
        self.write_bytes(s.as_bytes());
    }

    pub(crate) fn finish(self) -> u64 {
        self.0
    }
}

/// Structural fingerprint of a workload, excluding its name.
pub fn workload_fingerprint(w: &Workload) -> u64 {
    let mut h = Fnv1a::new();
    h.write_u64(w.num_dims() as u64);
    for d in w.dims() {
        h.write_str(d.name());
        h.write_u64(d.size());
    }
    h.write_u64(w.num_tensors() as u64);
    for t in w.tensors() {
        h.write_str(t.name());
        h.write_u64(u64::from(t.is_output()));
        h.write_u64(u64::from(t.bits()));
        h.write_u64(t.rank() as u64);
        for e in t.indices() {
            h.write_u64(e.terms().len() as u64);
            for term in e.terms() {
                h.write_u64(term.dim.index() as u64);
                h.write_u64(term.stride);
            }
        }
    }
    h.finish()
}

fn hash_filter(h: &mut Fnv1a, f: &TensorFilter) {
    match f {
        TensorFilter::Any => h.write_u64(0),
        TensorFilter::Output => h.write_u64(1),
        TensorFilter::Inputs => h.write_u64(2),
        TensorFilter::InputsExcept(names) => {
            h.write_u64(3);
            h.write_u64(names.len() as u64);
            for n in names {
                h.write_str(n);
            }
        }
        TensorFilter::Named(names) => {
            h.write_u64(4);
            h.write_u64(names.len() as u64);
            for n in names {
                h.write_str(n);
            }
        }
    }
}

/// Structural fingerprint of an architecture (name included: presets with
/// equal structure but different names are rare, and including it is
/// harmless — a miss only costs one model evaluation).
pub fn arch_fingerprint(arch: &ArchSpec) -> u64 {
    let mut h = Fnv1a::new();
    h.write_str(arch.name());
    h.write_f64(arch.mac_energy_pj());
    h.write_u64(u64::from(arch.ref_bits()));
    h.write_u64(arch.num_levels() as u64);
    for level in arch.levels() {
        match level {
            Level::Memory(m) => {
                h.write_u64(1);
                h.write_str(&m.name);
                h.write_u64(m.bypass.len() as u64);
                for f in &m.bypass {
                    hash_filter(&mut h, f);
                }
                h.write_u64(m.partitions.len() as u64);
                for p in &m.partitions {
                    h.write_str(&p.name);
                    hash_filter(&mut h, &p.filter);
                    match p.capacity {
                        Capacity::Unbounded => h.write_u64(0),
                        Capacity::Bytes(b) => {
                            h.write_u64(1);
                            h.write_u64(b);
                        }
                    }
                    h.write_f64(p.read_energy_pj);
                    h.write_f64(p.write_energy_pj);
                    h.write_f64(p.read_bw.unwrap_or(-1.0));
                    h.write_f64(p.write_bw.unwrap_or(-1.0));
                }
            }
            Level::Spatial(s) => {
                h.write_u64(2);
                h.write_str(&s.name);
                h.write_u64(s.units);
                h.write_u64(u64::from(s.allow_reduction));
                h.write_u64(u64::from(s.noc.multicast));
                h.write_f64(s.noc.per_word_energy_pj);
            }
        }
    }
    h.finish()
}

/// Fingerprint of every configuration field that changes search results.
pub fn config_fingerprint(config: &SunstoneConfig) -> u64 {
    let mut h = Fnv1a::new();
    h.write_u64(match config.objective {
        Objective::Edp => 0,
        Objective::Energy => 1,
        Objective::Delay => 2,
    });
    // Where the walk direction (bottom-up = 0) and the intra-level order
    // (unroll→tile→order = 1) were once configurable: their tags keep the
    // fingerprint of every stored or memoized context unchanged.
    h.write_u64(0);
    h.write_u64(1);
    h.write_u64(config.beam_width as u64);
    h.write_f64(config.min_spatial_utilization);
    h.write_u64(config.max_tiles_per_enum as u64);
    h.write_u64(config.max_unrolls_per_enum as u64);
    h.write_u64(u64::from(config.pruning.ordering_trie));
    h.write_u64(u64::from(config.pruning.tiling_maximal));
    h.write_u64(u64::from(config.pruning.unrolling_principle));
    h.write_u64(u64::from(config.pruning.tiling_reuse_dims));
    // `threads` and `max_cache_entries` deliberately excluded: neither
    // changes any result (the bound only decides *retention*).
    // `constraints` is also excluded *here*: the context fingerprint
    // hashes the effective constraints (config-level or per-call
    // override) in a dedicated slot, so equal constraint sets share a
    // context regardless of how they were supplied.
    h.finish()
}

fn hash_dim_ref(h: &mut Fnv1a, r: &DimRef) {
    match r {
        DimRef::Named(n) => {
            h.write_u64(0);
            h.write_str(n);
        }
        DimRef::Role(DimRole::Parallel) => h.write_u64(1),
        DimRef::Role(DimRole::Reduction) => h.write_u64(2),
    }
}

/// Structural fingerprint of a constraint set. Folded into the context
/// key so constrained and unconstrained runs (and runs under *different*
/// constraints) never share a memoized result.
pub fn constraints_fingerprint(c: &MappingConstraints) -> u64 {
    let mut h = Fnv1a::new();
    h.write_u64(c.unroll.len() as u64);
    for u in &c.unroll {
        h.write_str(&u.level);
        match &u.allow {
            None => h.write_u64(0),
            Some(refs) => {
                h.write_u64(1 + refs.len() as u64);
                for r in refs {
                    hash_dim_ref(&mut h, r);
                }
            }
        }
        h.write_u64(u.pins.len() as u64);
        for (r, v) in &u.pins {
            hash_dim_ref(&mut h, r);
            h.write_u64(*v);
        }
    }
    h.write_u64(c.order.len() as u64);
    for o in &c.order {
        h.write_str(&o.level);
        h.write_u64(u64::from(o.exact));
        h.write_u64(o.inner.len() as u64);
        for r in &o.inner {
            hash_dim_ref(&mut h, r);
        }
    }
    h.write_u64(c.tile.len() as u64);
    for t in &c.tile {
        h.write_str(&t.level);
        h.write_u64(t.pins.len() as u64);
        for (r, v) in &t.pins {
            hash_dim_ref(&mut h, r);
            h.write_u64(*v);
        }
        h.write_u64(t.caps.len() as u64);
        for (r, v) in &t.caps {
            hash_dim_ref(&mut h, r);
            h.write_u64(*v);
        }
    }
    h.write_u64(c.bypass.len() as u64);
    for b in &c.bypass {
        h.write_str(&b.level);
        h.write_str(&b.tensor);
    }
    h.finish()
}

/// Structural fingerprint of a complete mapping: every level's tiling
/// factors in hierarchy order, then each temporal level's loop-order
/// indices. This is the bit-identity witness used by the benchmark
/// baselines and the serve path — two mappings fingerprint equal exactly
/// when they schedule identically, so a served or stored mapping can be
/// gated against a fresh library search without comparing structures
/// field by field. The byte stream (no length prefixes; levels and
/// orders have fixed arity for a given workload/arch context) is frozen:
/// committed baselines compare fingerprints across runs and releases.
pub fn mapping_fingerprint(m: &sunstone_mapping::Mapping) -> u64 {
    let mut h = Fnv1a::new();
    for level in m.levels() {
        for &f in level.factors() {
            h.write_u64(f);
        }
        if let sunstone_mapping::MappingLevel::Temporal(t) = level {
            for &d in &t.order {
                h.write_u64(d.index() as u64);
            }
        }
    }
    h.finish()
}

/// The combined *(workload, arch, config, constraints)* context
/// fingerprint the session memoizes results under. `constraints` is the
/// *effective* set for the call — the per-call override when present,
/// else the config's. Public so out-of-process callers (the serve
/// daemon's mapping store) can key persisted results by the same context
/// identity the session uses.
pub fn context_fingerprint(
    w: &Workload,
    arch: &ArchSpec,
    config: &SunstoneConfig,
    constraints: &MappingConstraints,
) -> u64 {
    combine_context([
        workload_fingerprint(w),
        arch_fingerprint(arch),
        config_fingerprint(config),
        constraints_fingerprint(constraints),
    ])
}

/// [`context_fingerprint`] from its four parts' own fingerprints
/// (workload, arch, config, constraints), for callers that keep some of
/// them.
pub(crate) fn combine_context(parts: [u64; 4]) -> u64 {
    let mut h = Fnv1a::new();
    for part in parts {
        h.write_u64(part);
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sunstone_arch::presets;

    fn mm(name: &str, m: u64) -> Workload {
        let mut b = Workload::builder(name);
        let dm = b.dim("M", m);
        let dn = b.dim("N", 64);
        let dk = b.dim("K", 64);
        b.input("a", [dm.expr(), dk.expr()]);
        b.input("b", [dk.expr(), dn.expr()]);
        b.output("out", [dm.expr(), dn.expr()]);
        b.build().unwrap()
    }

    #[test]
    fn workload_name_does_not_matter_but_shape_does() {
        assert_eq!(workload_fingerprint(&mm("a", 64)), workload_fingerprint(&mm("b", 64)));
        assert_ne!(workload_fingerprint(&mm("a", 64)), workload_fingerprint(&mm("a", 128)));
    }

    #[test]
    fn arch_fingerprints_distinguish_presets() {
        assert_ne!(
            arch_fingerprint(&presets::conventional()),
            arch_fingerprint(&presets::simba_like())
        );
        assert_eq!(
            arch_fingerprint(&presets::conventional()),
            arch_fingerprint(&presets::conventional())
        );
    }

    #[test]
    fn config_fingerprint_ignores_threads_but_not_beam() {
        let base = SunstoneConfig::default();
        let threads = SunstoneConfig { threads: 7, ..base.clone() };
        let cap = SunstoneConfig { max_cache_entries: 7, ..base.clone() };
        let beam = SunstoneConfig { beam_width: 7, ..base.clone() };
        assert_eq!(config_fingerprint(&base), config_fingerprint(&threads));
        assert_eq!(config_fingerprint(&base), config_fingerprint(&cap));
        assert_ne!(config_fingerprint(&base), config_fingerprint(&beam));
    }

    #[test]
    fn constraints_separate_cache_contexts() {
        use sunstone_mapping::{DimRef, MappingConstraints};
        let w = mm("a", 64);
        let arch = presets::conventional();
        let config = SunstoneConfig::default();
        let free = MappingConstraints::default();
        let ws = MappingConstraints::new()
            .allow_unroll("grid", [DimRef::named("C"), DimRef::named("K")]);
        assert_ne!(constraints_fingerprint(&free), constraints_fingerprint(&ws));
        assert_ne!(
            context_fingerprint(&w, &arch, &config, &free),
            context_fingerprint(&w, &arch, &config, &ws)
        );
        assert_eq!(constraints_fingerprint(&ws), constraints_fingerprint(&ws.clone()));
    }
}

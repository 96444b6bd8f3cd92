//! The metric table — the one place names, units, directions and bounds
//! are fixed. `BENCHMARK.json` is generated from it (`--manifest`) and a
//! test holds the two in step.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One named metric. `bound` is the share of the parent's median by which
/// an end-to-end metric may worsen before it counts as a regression;
/// per-layer metrics have none.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef { name, unit, better, bound: Some(bound) }
}

const fn lo(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit, better: Better::Lower, bound: None }
}

const fn hi(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit, better: Better::Higher, bound: None }
}

/// What a user of the system sees. Every workload reports all of them
/// with `--trace 0`.
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("unit_p50_ms", "ms", Better::Lower, 0.25),
    e2e("mappings_per_s", "1/s", Better::Higher, 0.25),
    e2e("peak_rss_mb", "MB", Better::Lower, 0.15),
];

/// One line per module-level measurement. Every workload reports all of
/// them with `--trace 1`; a metric the workload does not exercise (the
/// `server.*` rows on a library workload) reads 0 there.
pub const PER_LAYER: &[MetricDef] = &[
    lo("ir.build_us", "us"),
    lo("arch.bind_us", "us"),
    lo("mapping.validate_us", "us"),
    lo("mapping.flatten_us", "us"),
    hi("model.scalar_evals_per_s", "1/s"),
    hi("model.prefixed_evals_per_s", "1/s"),
    hi("model.batch16_evals_per_s", "1/s"),
    hi("model.batch1_evals_per_s", "1/s"),
    lo("model.prefix_build_us", "us"),
    lo("model.checked_eval_us", "us"),
    lo("ordering.candidates_us", "us"),
    lo("ordering.kept_share", "ratio"),
    lo("tiling.enumerate_us", "us"),
    lo("tiling.kept_share", "ratio"),
    lo("unrolling.enumerate_us", "us"),
    lo("unrolling.kept_share", "ratio"),
    lo("search.stage0_ms", "ms"),
    lo("search.stage1_ms", "ms"),
    lo("search.stage2_ms", "ms"),
    lo("search.stage3_ms", "ms"),
    lo("search.outside_stages_ms", "ms"),
    lo("search.us_per_probe", "us"),
    lo("search.probed", "count"),
    lo("search.modeled", "count"),
    hi("search.cache_hit_share", "ratio"),
    hi("search.prefix_hit_share", "ratio"),
    hi("search.batched_share", "ratio"),
    hi("search.avg_batch_width", "count"),
    lo("search.rounds", "count"),
    lo("search.nodes_explored", "count"),
    lo("search.beam_cut", "count"),
    hi("search.ordering_pruned_share", "ratio"),
    hi("search.tiling_pruned_share", "ratio"),
    hi("search.unrolling_pruned_share", "ratio"),
    lo("session.unique_shapes", "count"),
    hi("session.dedup_hits", "count"),
    lo("session.cache_entries", "count"),
    lo("session.seed_probes", "count"),
    hi("session.seed_hits", "count"),
    lo("session.seed_evals", "count"),
    lo("session.prime_mapping_us", "us"),
    lo("session.ctx_fp_us", "us"),
    lo("fingerprint.mapping_fp_ns", "ns"),
    lo("fingerprint.workload_fp_ns", "ns"),
    hi("pool.batch_speedup", "ratio"),
    hi("pool.single_speedup", "ratio"),
    hi("json.parse_mb_per_s", "MB/s"),
    hi("json.print_mb_per_s", "MB/s"),
    lo("wire.request_parse_us", "us"),
    lo("wire.workload_encode_us", "us"),
    lo("wire.mapping_encode_us", "us"),
    lo("wire.mapping_decode_us", "us"),
    lo("wire.frame_rt_us", "us"),
    lo("wire.request_bytes", "B"),
    lo("wire.response_bytes", "B"),
    hi("crc.mb_per_s", "MB/s"),
    lo("store.append_us", "us"),
    lo("store.append_fsync_us", "us"),
    lo("store.open_ms", "ms"),
    lo("store.compact_ms", "ms"),
    lo("store.bytes_per_record", "B"),
    lo("server.hit_p99_ms", "ms"),
    lo("server.hit_p999_ms", "ms"),
    lo("server.miss_p90_ms", "ms"),
    lo("server.hit_under_search_p50_ms", "ms"),
    hi("server.requests_per_s", "1/s"),
    lo("server.searches", "count"),
    hi("server.memo_hits", "count"),
    hi("server.store_hits", "count"),
    lo("server.shed", "count"),
    lo("server.degraded", "count"),
    lo("server.errors", "count"),
    lo("server.bind_ms", "ms"),
    lo("server.warm_load_ms", "ms"),
    lo("server.shutdown_ms", "ms"),
    lo("server.hit_replayed_us", "us"),
    lo("server.hit_unattributed_us", "us"),
    lo("trace.unit_ms", "ms"),
    lo("trace.harness_self_ms", "ms"),
    lo("trace.session_self_ms", "ms"),
    lo("trace.search_self_ms", "ms"),
    lo("trace.server_self_ms", "ms"),
    lo("trace.sum_error_share", "ratio"),
    lo("trace.overhead_share", "ratio"),
    lo("trace.spans", "count"),
    lo("quality.edp_ratio_geomean", "ratio"),
    hi("quality.fp_match_share", "ratio"),
    lo("quality.fail_share", "ratio"),
    lo("harness.threads", "count"),
    hi("harness.units", "count"),
];

/// The five workloads and why each exists (the `why` of `BENCHMARK.json`).
pub const WORKLOADS: &[(&str, &str)] = &[
    (
        "net_cold",
        "whole ResNet-18 + MobileNetV2 batch on a fresh session: every search module and the model run cold; batch dedup, pool fan-out and warm starts only act here",
    ),
    (
        "layer_warm",
        "the 11 fig-8 layers on a warmed session: same search code with the model idle (all estimate-cache hits), so enumeration, dedup, fingerprints and pool hand-off stand alone",
    ),
    (
        "tensor_cold",
        "42 non-conv and weight-update (kernel, arch) pairs, each a single call on a fresh session: long divisor ladders, other archs, no batch and no similar neighbour",
    ),
    (
        "serve_hot",
        "daemon answering zipfian repeats from its memo over two connections: frame, JSON, decode, fingerprint, memo and encode only; search and store are bypassed",
    ),
    (
        "serve_churn",
        "daemon with half of all requests new conv shapes: searches behind the socket contend for the pool, with memo insert, store append, cache eviction and a restart",
    ),
];

/// How long one run measures, in seconds (`run_seconds` of the manifest).
pub const RUN_SECONDS: u64 = 10;

pub fn lookup(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().chain(PER_LAYER).find(|m| m.name == name)
}

/// The values one run measured, keyed by metric name, each with the
/// number of samples behind it (0 when the value is not a statistic).
#[derive(Debug, Default, Clone)]
pub struct Metrics {
    values: BTreeMap<&'static str, (f64, usize)>,
}

impl Metrics {
    /// Records `value`; the name must be in the table.
    pub fn set(&mut self, name: &str, value: f64) {
        self.set_n(name, value, 0);
    }

    /// [`set`](Self::set) with the sample count behind the value.
    pub fn set_n(&mut self, name: &str, value: f64, samples: usize) {
        let def = lookup(name).unwrap_or_else(|| panic!("metric `{name}` is not in the table"));
        self.values.insert(def.name, (if value.is_finite() { value } else { 0.0 }, samples));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).map(|v| v.0)
    }

    pub fn merge(&mut self, other: Metrics) {
        self.values.extend(other.values);
    }

    /// Human-readable rows for `table`, in table order.
    pub fn print(&self, table: &[MetricDef]) {
        for def in table {
            let (value, n) = self.values.get(def.name).copied().unwrap_or((0.0, 0));
            let samples = if n > 0 { format!("  (n={n})") } else { String::new() };
            println!("  {:<32} {:>16} {}{samples}", def.name, format_value(value), def.unit);
        }
    }

    /// `{"name":{"value":v,"unit":"u"},...}` over every row of `table`; a
    /// row the run did not set reads 0.
    pub fn to_json(&self, table: &[MetricDef]) -> String {
        let mut out = String::from("{");
        for (i, def) in table.iter().enumerate() {
            let value = self.values.get(def.name).map_or(0.0, |v| v.0);
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                def.name,
                format_value(value),
                def.unit
            );
        }
        out.push('}');
        out
    }
}

/// Shortest round-trip decimal: every digit measured, nothing rounded.
pub fn format_value(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

/// `BENCHMARK.json`, generated from the tables above.
pub fn manifest() -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"command\": [\"bash\", \"benchmark/run.sh\"],\n");
    out.push_str("  \"paths\": [\"benchmark\"],\n");
    let _ = writeln!(out, "  \"run_seconds\": {RUN_SECONDS},");
    out.push_str("  \"workloads\": [\n");
    for (i, (name, why)) in WORKLOADS.iter().enumerate() {
        let comma = if i + 1 < WORKLOADS.len() { "," } else { "" };
        let _ = writeln!(out, "    {{\"name\": \"{name}\", \"why\": \"{why}\"}}{comma}");
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let comma = if i + 1 < END_TO_END.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{comma}",
            m.name,
            m.unit,
            m.better.as_str(),
            m.bound.expect("end-to-end metrics carry a bound"),
        );
    }
    out.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        let comma = if i + 1 < PER_LAYER.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{comma}",
            m.name,
            m.unit,
            m.better.as_str(),
        );
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn well_formed(s: &str, max: usize, extra: &str) -> bool {
        !s.is_empty()
            && s.len() <= max
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.chars().all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
    }

    #[test]
    fn table_meets_the_manifest_limits() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|m| m.name).collect();
        names.extend(WORKLOADS.iter().map(|w| w.0));
        for name in &names {
            assert!(well_formed(name, 64, "_.-"), "name {name}");
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(
                m.unit.len() <= 16
                    && m.unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
            );
        }
        assert!((1..=16).contains(&END_TO_END.len()) && (1..=128).contains(&PER_LAYER.len()));
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!(WORKLOADS.iter().all(|w| w.1.len() <= 200 && !w.1.contains('\n')));
        assert!(END_TO_END.iter().all(|m| m.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
        let setup = lookup("setup_s").expect("setup_s is required");
        assert!(setup.unit == "s" && setup.better == Better::Lower);
        let widest = END_TO_END.iter().filter_map(|m| m.bound).fold(0.0, f64::max);
        assert_eq!(setup.bound, Some(widest), "setup_s carries the largest bound");
        assert!((1..=60).contains(&RUN_SECONDS));
    }

    #[test]
    fn committed_manifest_is_the_generated_one() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(committed, manifest(), "regenerate with `benchmark/run.sh --manifest`");
        assert!(committed.len() <= 64 * 1024);
        sunstone_serve::json::parse(&committed).expect("the manifest is valid JSON");
    }

    #[test]
    fn json_lists_every_row_and_defaults_to_zero() {
        let mut m = Metrics::default();
        m.set_n("unit_p50_ms", 1.25, 7);
        let text = m.to_json(END_TO_END);
        let v = sunstone_serve::json::parse(&text).expect("valid JSON");
        for def in END_TO_END {
            let row = v.get(def.name).expect("row present");
            assert_eq!(row.get("unit").and_then(|u| u.as_str()), Some(def.unit));
        }
        assert_eq!(
            v.get("unit_p50_ms").and_then(|r| r.get("value")).and_then(|x| x.as_f64()),
            Some(1.25)
        );
        assert_eq!(
            v.get("setup_s").and_then(|r| r.get("value")).and_then(|x| x.as_f64()),
            Some(0.0)
        );
    }

    #[test]
    #[should_panic(expected = "not in the table")]
    fn unknown_names_are_rejected() {
        Metrics::default().set("no.such_metric", 1.0);
    }
}

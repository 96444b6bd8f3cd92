//! `--compare A.json B.json`: the benchmark's own bounds applied to two
//! merged outputs, one row per end-to-end metric and workload.

use std::fmt::Write as _;

use sunstone_serve::json::{self, Json};

use crate::metrics::{Better, END_TO_END, WORKLOADS};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Within,
    Regressed,
    Improved,
}

/// How much worse `b` is than `a`, as a share of `a`; negative is better.
pub fn worse_share(better: Better, a: f64, b: f64) -> f64 {
    match better {
        Better::Lower => (b - a) / a,
        Better::Higher => (a - b) / a,
    }
}

pub fn verdict(worse: f64, bound: f64) -> Verdict {
    if worse > bound {
        Verdict::Regressed
    } else if worse < -bound {
        Verdict::Improved
    } else {
        Verdict::Within
    }
}

fn number(doc: &Json, workload: &str, block: &str, metric: &str) -> Option<f64> {
    doc.get("workloads")?.get(workload)?.get(block)?.get(metric)?.as_f64()
}

/// The comparison table and whether any row regressed. `a` is the
/// baseline. A spread is the quartile distance of a side's runs over
/// their median; a row whose spread exceeds its bound cannot carry a
/// verdict either way and is marked.
pub fn compare(a: &str, b: &str) -> Result<(String, bool), String> {
    let a = json::parse(a).map_err(|e| format!("first file: {e}"))?;
    let b = json::parse(b).map_err(|e| format!("second file: {e}"))?;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<12} {:<16} {:>14} {:>14} {:>8} {:>7} {:>8} {:>8}  verdict",
        "workload", "metric", "first", "second", "worse %", "bound %", "iqr1 %", "iqr2 %"
    );
    let mut regressed = false;
    for (workload, _) in WORKLOADS {
        for def in END_TO_END {
            let (Some(va), Some(vb)) = (
                number(&a, workload, "median", def.name),
                number(&b, workload, "median", def.name),
            ) else {
                return Err(format!("{workload}: {} is missing from one of the files", def.name));
            };
            let bound = def.bound.expect("end-to-end metrics carry a bound");
            let worse = worse_share(def.better, va, vb);
            let v = verdict(worse, bound);
            regressed |= v == Verdict::Regressed;
            let spread = |doc: &Json| number(doc, workload, "spread", def.name).unwrap_or(0.0);
            let (sa, sb) = (spread(&a), spread(&b));
            let noisy =
                if sa.max(sb) > bound { "  (spread exceeds the bound: unresolved)" } else { "" };
            let _ = writeln!(
                out,
                "{workload:<12} {:<16} {va:>14.6} {vb:>14.6} {:>8.2} {:>7.1} {:>8.2} {:>8.2}  {}{noisy}",
                def.name,
                100.0 * worse,
                100.0 * bound,
                100.0 * sa,
                100.0 * sb,
                match v {
                    Verdict::Within => "within",
                    Verdict::Regressed => "REGRESSED",
                    Verdict::Improved => "improved",
                },
            );
        }
    }
    Ok((out, regressed))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worse_share_follows_the_direction() {
        assert!((worse_share(Better::Lower, 100.0, 112.0) - 0.12).abs() < 1e-12);
        assert!((worse_share(Better::Higher, 100.0, 112.0) + 0.12).abs() < 1e-12);
        assert_eq!(verdict(0.12, 0.10), Verdict::Regressed);
        assert_eq!(verdict(-0.12, 0.10), Verdict::Improved);
        assert_eq!(verdict(0.10, 0.10), Verdict::Within);
    }

    fn doc(unit_p50_ms: f64) -> String {
        let mut workloads = Vec::new();
        for (w, _) in WORKLOADS {
            let median: Vec<String> = END_TO_END
                .iter()
                .map(|m| {
                    format!(
                        "\"{}\":{}",
                        m.name,
                        if m.name == "unit_p50_ms" { unit_p50_ms } else { 5.0 }
                    )
                })
                .collect();
            workloads
                .push(format!("\"{w}\":{{\"median\":{{{}}},\"spread\":{{}}}}", median.join(",")));
        }
        format!("{{\"workloads\":{{{}}}}}", workloads.join(","))
    }

    #[test]
    fn applies_each_bound_and_flags_a_regression() {
        let bound = crate::metrics::lookup("unit_p50_ms").and_then(|m| m.bound).expect("bounded");
        let rows = WORKLOADS.len() * END_TO_END.len();
        let (table, regressed) =
            compare(&doc(10.0), &doc(10.0 * (1.0 + 0.5 * bound))).expect("well-formed");
        assert!(!regressed && table.matches("within").count() == rows, "{table}");
        let (table, regressed) =
            compare(&doc(10.0), &doc(10.0 * (1.05 + bound))).expect("well-formed");
        assert!(regressed && table.matches("REGRESSED").count() == WORKLOADS.len(), "{table}");
        let (table, regressed) =
            compare(&doc(10.0), &doc(10.0 * (0.95 - bound))).expect("well-formed");
        assert!(!regressed && table.matches("improved").count() == WORKLOADS.len(), "{table}");
        assert!(compare(&doc(10.0), "{}").is_err());
    }
}

//! Output checking against the committed references in
//! `benchmark/expected/`.
//!
//! A reference file is tab-separated text, read and written here and by
//! nothing else: the references stay independent of the program's own
//! JSON code (which also takes two seconds to parse the 4320 churn
//! entries — its string scanner is quadratic).
//!
//! A reference holds, per context key, the fingerprint and EDP of the
//! mapping a single-threaded search on a fresh session returned when the
//! reference was recorded. A returned mapping passes when it validates,
//! re-prices (checked path) to the EDP it was reported with, and that EDP
//! is no worse than the reference. A *different* mapping is not a failure
//! — a better one is allowed and shows as `quality.edp_ratio_geomean` < 1
//! and `quality.fp_match_share` < 1.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::path::Path;

use sunstone::fingerprint::mapping_fingerprint;
use sunstone::prelude::Scheduler;
use sunstone_arch::Binding;
use sunstone_mapping::Mapping;
use sunstone_model::{CostModel, COST_MODEL_VERSION};

use crate::inputs::Context;
use crate::stats::geomean;

/// EDPs are compared as ratios; equal means within this of 1.
const EDP_TOLERANCE: f64 = 1e-9;

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Reference {
    pub mapping_fp: u64,
    pub edp: f64,
}

/// The references of one workload, by context key.
#[derive(Debug, Default)]
pub struct Expected {
    entries: HashMap<String, Reference>,
}

impl Expected {
    /// Reads `<dir>/<workload>.tsv`.
    pub fn load(dir: &Path, workload: &str) -> Result<Expected, String> {
        let path = dir.join(format!("{workload}.tsv"));
        let text = std::fs::read_to_string(&path).map_err(|e| {
            format!("cannot read {}: {e} (record it with --record-expected)", path.display())
        })?;
        let mut lines = text.lines();
        let header = lines.next().unwrap_or_default();
        if header != header_line(workload) {
            return Err(format!(
                "{}: header is {header:?}, this build expects {:?}",
                path.display(),
                header_line(workload)
            ));
        }
        let mut entries = HashMap::new();
        for line in lines.filter(|l| !l.starts_with('#')) {
            let mut cells = line.split('\t');
            let entry = (|| {
                let key = cells.next()?;
                let mapping_fp = cells.next()?.parse().ok()?;
                let edp: f64 = cells.next()?.parse().ok()?;
                (edp > 0.0 && edp.is_finite())
                    .then(|| (key.to_string(), Reference { mapping_fp, edp }))
            })();
            let (key, reference) =
                entry.ok_or_else(|| format!("{}: malformed line {line:?}", path.display()))?;
            entries.insert(key, reference);
        }
        Ok(Expected { entries })
    }

    pub fn get(&self, key: &str) -> Option<Reference> {
        self.entries.get(key).copied()
    }
}

/// First line of a reference file: schema, workload, and the cost model
/// the EDPs were priced under (another model's EDPs are no reference).
fn header_line(workload: &str) -> String {
    format!("# sunstone-benchmark-expected/v1\tworkload={workload}\tcost_model_version={COST_MODEL_VERSION}")
}

/// Searches every context the way a reference is defined — one thread, a
/// fresh session per context — and writes `<dir>/<workload>.tsv`, one
/// context per line so a re-recording diffs by context.
pub fn record(dir: &Path, workload: &str, contexts: &[Context]) -> Result<usize, String> {
    let config = crate::run::config(1);
    let mut out = format!("{}\n# key\tmapping_fp\tedp\n", header_line(workload));
    for ctx in contexts {
        let result = Scheduler::new(config.clone())
            .schedule(&ctx.workload, &ctx.arch)
            .map_err(|e| format!("{}: {e}", ctx.key))?;
        // `{:?}` prints the shortest decimal that reads back to the same bits.
        let _ = writeln!(
            out,
            "{}\t{}\t{:?}",
            ctx.key,
            mapping_fingerprint(&result.mapping),
            result.report.edp
        );
    }
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!("{workload}.tsv"));
    std::fs::write(&path, out).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(contexts.len())
}

/// Checks one returned mapping (see the module docs); `Ok` carries its
/// EDP over the reference EDP and whether it is the reference mapping.
pub fn check_mapping(
    ctx: &Context,
    mapping: &Mapping,
    reported_edp: f64,
    expected: &Expected,
) -> Verdict {
    let reference =
        expected.get(&ctx.key).ok_or_else(|| format!("{}: no reference recorded", ctx.key))?;
    let binding =
        Binding::resolve(&ctx.arch, &ctx.workload).map_err(|e| format!("{}: {e}", ctx.key))?;
    // The checked path: `evaluate` validates structure and capacity first.
    let report = CostModel::new(&ctx.workload, &ctx.arch, &binding)
        .evaluate(mapping)
        .map_err(|e| format!("{}: invalid mapping: {e}", ctx.key))?;
    if (report.edp / reported_edp - 1.0).abs() > EDP_TOLERANCE {
        return Err(format!(
            "{}: reported EDP {reported_edp:e}, re-priced {:e}",
            ctx.key, report.edp
        ));
    }
    let ratio = report.edp / reference.edp;
    if ratio > 1.0 + EDP_TOLERANCE {
        return Err(format!(
            "{}: EDP {:e} is worse than the reference {:e}",
            ctx.key, report.edp, reference.edp
        ));
    }
    Ok((ratio, mapping_fingerprint(mapping) == reference.mapping_fp))
}

/// What [`check_mapping`] returns: the EDP ratio and fingerprint match of
/// a passing mapping, or why it failed.
type Verdict = Result<(f64, bool), String>;

/// Running tally of checked units: attempts, failures (with the first few
/// reasons) and the quality of everything that passed.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
    ratios: Vec<f64>,
    fp_matches: usize,
    /// Results already checked, by (context key, mapping fingerprint, EDP
    /// bits): repeats of a verdict need no second validation.
    verdicts: HashMap<(String, u64, u64), Verdict>,
}

impl Tally {
    /// Checks one mapping, memoized, and folds its quality in. Returns
    /// whether it passed; the caller decides what a unit is.
    pub fn check(
        &mut self,
        ctx: &Context,
        mapping: &Mapping,
        edp: f64,
        expected: &Expected,
    ) -> bool {
        let memo = (ctx.key.clone(), mapping_fingerprint(mapping), edp.to_bits());
        let verdict = self
            .verdicts
            .entry(memo)
            .or_insert_with(|| check_mapping(ctx, mapping, edp, expected))
            .clone();
        match verdict {
            Ok((ratio, fp_match)) => {
                self.ratios.push(ratio);
                self.fp_matches += usize::from(fp_match);
                true
            }
            Err(reason) => {
                self.problem(reason);
                false
            }
        }
    }

    /// Closes one unit.
    pub fn unit(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    pub fn problem(&mut self, reason: String) {
        if self.problems.len() < 8 && !self.problems.contains(&reason) {
            self.problems.push(reason);
        }
    }

    pub fn edp_ratio_geomean(&self) -> f64 {
        geomean(self.ratios.iter().copied())
    }

    pub fn fp_match_share(&self) -> f64 {
        if self.ratios.is_empty() {
            0.0
        } else {
            self.fp_matches as f64 / self.ratios.len() as f64
        }
    }

    pub fn fail_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::warm_layers;

    /// Under the ignored `benchmark/out/`.
    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join(format!("out/test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn recorded_reference_accepts_its_own_mapping_and_rejects_a_worse_edp() {
        let dir = temp_dir("expected");
        let contexts = &warm_layers()[10..];
        assert_eq!(record(&dir, "t", contexts), Ok(1));
        let expected = Expected::load(&dir, "t").expect("loads what it wrote");
        assert_eq!(expected.entries.len(), 1);
        let ctx = &contexts[0];
        let result = Scheduler::new(crate::run::config(2))
            .schedule(&ctx.workload, &ctx.arch)
            .expect("schedules");
        assert_eq!(
            check_mapping(ctx, &result.mapping, result.report.edp, &expected),
            Ok((1.0, true))
        );
        // A mis-reported EDP and a reference the result cannot meet both fail.
        assert!(check_mapping(ctx, &result.mapping, result.report.edp * 1.01, &expected).is_err());
        let mut tighter = Expected::default();
        let reference = expected.get(&ctx.key).expect("recorded");
        tighter
            .entries
            .insert(ctx.key.clone(), Reference { edp: reference.edp * 0.5, ..reference });
        let verdict = check_mapping(ctx, &result.mapping, result.report.edp, &tighter);
        assert!(verdict.is_err_and(|e| e.contains("worse than the reference")));
        // A looser reference passes with a ratio below one.
        tighter
            .entries
            .insert(ctx.key.clone(), Reference { edp: reference.edp * 2.0, mapping_fp: 0 });
        assert_eq!(
            check_mapping(ctx, &result.mapping, result.report.edp, &tighter),
            Ok((0.5, false))
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn load_rejects_a_missing_file_and_a_foreign_cost_model() {
        let dir = temp_dir("expected-bad");
        assert!(Expected::load(&dir, "nope").is_err());
        std::fs::create_dir_all(&dir).expect("temp dir");
        let stale = header_line("old").replace(&format!("={COST_MODEL_VERSION}"), "=0");
        std::fs::write(dir.join("old.tsv"), format!("{stale}\n")).expect("write");
        assert!(Expected::load(&dir, "old").is_err_and(|e| e.contains("header")));
        std::fs::write(
            dir.join("bad.tsv"),
            format!("{}\nkey\t12\tnot-a-number\n", header_line("bad")),
        )
        .expect("write");
        assert!(Expected::load(&dir, "bad").is_err_and(|e| e.contains("malformed")));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn tally_counts_units_and_keeps_the_first_reasons() {
        let mut t = Tally::default();
        t.unit(true);
        t.unit(false);
        t.problem("x".into());
        t.problem("x".into());
        assert_eq!((t.attempted, t.failed, t.problems.len()), (2, 1, 1));
        assert_eq!(t.fail_share(), 0.5);
    }
}

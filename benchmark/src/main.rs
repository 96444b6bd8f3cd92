//! The repo benchmark. See `benchmark/README.md` for what is measured and
//! why; this file is only the command line.
//!
//! ```text
//! sunstone-benchmark --workload W --seed N --seconds S --trace 0|1
//!     one workload in this process; the last line of output is the result
//! sunstone-benchmark [--seed N] [--runs R] [--seconds S] [--trace] [--smoke] [--out FILE]
//!     every workload, one process per run, merged JSON to FILE and stdout
//! sunstone-benchmark --compare A.json B.json
//! sunstone-benchmark --record-expected [--workload W]
//! sunstone-benchmark --manifest
//! common: [--expected DIR] [--out-dir DIR]   (defaults under ./benchmark)
//! ```
//!
//! Paths default to the repository root as working directory, which is
//! where `benchmark/run.sh` and the driver start it.

mod compare;
mod expected;
mod inputs;
mod layers;
mod library;
mod metrics;
mod run;
mod serve;
mod stats;
mod trace;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::{Command, ExitCode};

use sunstone_serve::json::{self, Json};

use metrics::{format_value, END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS};
use run::{Outcome, RunOpts, Scale};

struct Args(Vec<String>);

impl Args {
    fn has(&self, flag: &str) -> bool {
        self.0.iter().any(|a| a == flag)
    }

    fn values(&self, flag: &str, n: usize) -> Option<&[String]> {
        let at = self.0.iter().position(|a| a == flag)?;
        self.0.get(at + 1..at + 1 + n)
    }

    fn value(&self, flag: &str) -> Option<&str> {
        self.values(flag, 1).map(|v| v[0].as_str())
    }

    fn parsed<T: std::str::FromStr>(&self, flag: &str, default: T) -> Result<T, String> {
        match self.value(flag) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("{flag}: cannot read {v:?}")),
        }
    }

    /// `--trace`, `--trace 1` and `--trace 0`.
    fn trace(&self) -> bool {
        self.has("--trace") && self.value("--trace") != Some("0")
    }
}

fn threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get()).min(4)
}

fn run_opts(args: &Args, workload: &str) -> Result<RunOpts, String> {
    let smoke = args.has("--smoke");
    Ok(RunOpts {
        workload: workload.to_string(),
        seed: args.parsed("--seed", 1)?,
        seconds: args.parsed("--seconds", if smoke { 0.5 } else { RUN_SECONDS as f64 })?,
        trace: args.trace(),
        threads: threads(),
        expected_dir: PathBuf::from(args.value("--expected").unwrap_or("benchmark/expected")),
        out_dir: PathBuf::from(args.value("--out-dir").unwrap_or("benchmark/out")),
        scale: if smoke { Scale::SMOKE } else { Scale::FULL },
    })
}

fn run_workload(opts: &RunOpts) -> Result<Outcome, String> {
    match opts.workload.as_str() {
        "net_cold" => library::run(library::Kind::NetCold, opts),
        "layer_warm" => library::run(library::Kind::LayerWarm, opts),
        "tensor_cold" => library::run(library::Kind::TensorCold, opts),
        "serve_hot" => serve::run(serve::Kind::Hot, opts),
        "serve_churn" => serve::run(serve::Kind::Churn, opts),
        other => Err(format!("unknown workload {other:?}")),
    }
}

/// One workload in this process; the result line goes last.
fn single(args: &Args, workload: &str) -> Result<ExitCode, String> {
    let opts = run_opts(args, workload)?;
    let outcome = run_workload(&opts)?;
    for problem in &outcome.tally.problems {
        println!("  CHECK FAILED: {problem}");
    }
    let table = if opts.trace { PER_LAYER } else { END_TO_END };
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
        outcome.correct(),
        outcome.tally.attempted.max(1),
        outcome.tally.failed,
        outcome.metrics.to_json(table)
    );
    Ok(if outcome.correct() { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

/// Runs this executable again for one workload and returns its result
/// line, echoing everything it printed before that.
fn child(
    args: &Args,
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
) -> Result<(Json, bool), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args([
        "--workload",
        workload,
        "--seed",
        &seed.to_string(),
        "--seconds",
        &seconds.to_string(),
    ]);
    cmd.args(["--trace", if trace { "1" } else { "0" }]);
    for flag in ["--expected", "--out-dir"] {
        if let Some(v) = args.value(flag) {
            cmd.args([flag, v]);
        }
    }
    if args.has("--smoke") {
        cmd.arg("--smoke");
    }
    let output = cmd.output().map_err(|e| format!("cannot start {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines: Vec<&str> = stdout.lines().collect();
    let last = lines.pop().unwrap_or_default();
    lines.iter().for_each(|l| println!("{l}"));
    eprint!("{}", String::from_utf8_lossy(&output.stderr));
    let result = json::parse(last)
        .map_err(|_| format!("{workload} printed no result (exit {})", output.status))?;
    Ok((result, output.status.success()))
}

/// Every workload, each run in a process of its own.
fn all(args: &Args) -> Result<ExitCode, String> {
    let opts = run_opts(args, "")?;
    let runs: u64 = args.parsed("--runs", 1)?;
    let out_path =
        args.value("--out").map_or_else(|| opts.out_dir.join("bench.json"), PathBuf::from);
    let mut ok = true;
    let mut doc = String::new();
    let _ = write!(
        doc,
        "{{\n\"schema\":\"sunstone-benchmark/v1\",\n\"seed\":{},\"runs\":{runs},\"seconds\":{},\"threads\":{},\"smoke\":{},\n\"workloads\":{{",
        opts.seed,
        opts.seconds,
        opts.threads,
        args.has("--smoke")
    );
    let mut table =
        format!("\n{:<12} {:<16} {:>16} {:>9}  unit\n", "workload", "metric", "median", "iqr %");
    for (w, (workload, _)) in WORKLOADS.iter().enumerate() {
        let mut rows = Vec::new();
        let mut by_metric: Vec<Vec<f64>> = END_TO_END.iter().map(|_| Vec::new()).collect();
        for r in 0..runs.max(1) {
            let (result, success) = child(args, workload, opts.seed + r, opts.seconds, false)?;
            ok &= success;
            for (values, def) in by_metric.iter_mut().zip(END_TO_END) {
                let v = result
                    .get("metrics")
                    .and_then(|m| m.get(def.name))
                    .and_then(|m| m.get("value"));
                values.push(
                    v.and_then(Json::as_f64)
                        .ok_or_else(|| format!("{workload}: no {}", def.name))?,
                );
            }
            rows.push(format!("{{\"seed\":{},\"result\":{result}}}", opts.seed + r));
        }
        // Per metric: the median of the runs and their quartile distance
        // over it, the spread the driver computes.
        let (mut medians, mut spreads) = (Vec::new(), Vec::new());
        for (values, def) in by_metric.iter_mut().zip(END_TO_END) {
            let median = stats::median(values);
            let (q1, q3) = stats::quartiles(values);
            let spread = (q3 - q1) / median.max(f64::MIN_POSITIVE);
            medians.push(format!("\"{}\":{}", def.name, format_value(median)));
            spreads.push(format!("\"{}\":{}", def.name, format_value(spread)));
            let _ = writeln!(
                table,
                "{workload:<12} {:<16} {median:>16.6} {:>9.2}  {}",
                def.name,
                100.0 * spread,
                def.unit
            );
        }
        let _ = write!(
            doc,
            "{}\n\"{workload}\":{{\n\"runs\":[\n{}\n],\n\"median\":{{{}}},\n\"spread\":{{{}}}",
            if w > 0 { "," } else { "" },
            rows.join(",\n"),
            medians.join(","),
            spreads.join(",")
        );
        if opts.trace {
            let (result, success) = child(args, workload, opts.seed, opts.seconds, true)?;
            ok &= success;
            let _ = write!(doc, ",\n\"trace\":{result}");
        }
        doc.push_str("\n}");
    }
    doc.push_str("\n}\n}\n");
    if let Some(dir) = out_path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(&out_path, &doc).map_err(|e| format!("{}: {e}", out_path.display()))?;
    print!("{table}");
    println!(
        "{} — merged output in {}",
        if ok { "all checks passed" } else { "A CHECK FAILED" },
        out_path.display()
    );
    Ok(if ok { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

fn record(args: &Args) -> Result<ExitCode, String> {
    let dir = PathBuf::from(args.value("--expected").unwrap_or("benchmark/expected"));
    for (workload, _) in WORKLOADS {
        if args.value("--workload").is_some_and(|w| w != *workload) {
            continue;
        }
        let contexts = match *workload {
            "net_cold" | "serve_hot" => {
                let net = inputs::net_layers();
                inputs::unique_positions(&net).into_iter().map(|i| net[i].clone()).collect()
            }
            "layer_warm" => inputs::warm_layers(),
            "tensor_cold" => inputs::tensor_pairs(),
            _ => inputs::churn_universe().iter().map(inputs::churn_context).collect(),
        };
        let n = expected::record(&dir, workload, &contexts)?;
        println!("recorded {n} references in {}/{workload}.json", dir.display());
    }
    Ok(ExitCode::SUCCESS)
}

fn dispatch(args: &Args) -> Result<ExitCode, String> {
    if args.has("--manifest") {
        print!("{}", metrics::manifest());
        return Ok(ExitCode::SUCCESS);
    }
    if args.has("--record-expected") {
        return record(args);
    }
    if let Some(files) = args.values("--compare", 2) {
        let read = |p: &String| std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"));
        let (table, regressed) = compare::compare(&read(&files[0])?, &read(&files[1])?)?;
        print!("{table}");
        return Ok(if regressed { ExitCode::FAILURE } else { ExitCode::SUCCESS });
    }
    match args.value("--workload") {
        Some(workload) => single(args, workload),
        None => all(args),
    }
}

fn main() -> ExitCode {
    match dispatch(&Args(std::env::args().skip(1).collect())) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("sunstone-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

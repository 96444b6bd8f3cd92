//! The benchmark driven through its command line, at smoke size: every
//! workload, every check, and the exit status when a check fails.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};
use std::time::Instant;

use sunstone_serve::json::{self, Json};

const WORKLOADS: [&str; 5] = ["net_cold", "layer_warm", "tensor_cold", "serve_hot", "serve_churn"];

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("benchmark/ sits in the repository")
        .to_path_buf()
}

/// A scratch directory under the ignored `benchmark/out/`, relative to the
/// repository root (socket paths must stay short).
fn scratch(tag: &str) -> PathBuf {
    let dir = PathBuf::from(format!("benchmark/out/test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(repo_root().join(&dir));
    std::fs::create_dir_all(repo_root().join(&dir)).expect("scratch directory");
    dir
}

/// One benchmark process at a time: the tests share two cores with what
/// they start, and the smoke test reads a clock.
static ONE_AT_A_TIME: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn bench(args: &[&str]) -> Output {
    let _guard = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    Command::new(env!("CARGO_BIN_EXE_sunstone-benchmark"))
        .args(args)
        .current_dir(repo_root())
        .output()
        .expect("the benchmark starts")
}

fn last_line(output: &Output) -> String {
    String::from_utf8_lossy(&output.stdout).lines().last().unwrap_or_default().to_string()
}

fn manifest_names(block: &str) -> Vec<String> {
    let manifest =
        std::fs::read_to_string(repo_root().join("BENCHMARK.json")).expect("BENCHMARK.json");
    let manifest = json::parse(&manifest).expect("valid manifest");
    let rows = manifest.get(block).and_then(Json::as_arr).expect("a metric list");
    rows.iter().map(|r| r.get("name").and_then(Json::as_str).expect("a name").to_string()).collect()
}

#[test]
fn smoke_runs_every_workload_and_every_check() {
    let out_dir = scratch("smoke");
    let start = Instant::now();
    let output = bench(&["--smoke", "--trace", "--out-dir", out_dir.to_str().expect("utf-8")]);
    let elapsed = start.elapsed().as_secs_f64();
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(output.status.success(), "{stdout}\n{}", String::from_utf8_lossy(&output.stderr));
    // 14–16 s on an idle two-core box; the limit only catches a smoke mode
    // that has stopped being one, not a slow phase of a shared machine.
    assert!(elapsed < 60.0, "smoke took {elapsed:.1} s");

    let merged = std::fs::read_to_string(repo_root().join(&out_dir).join("bench.json"))
        .expect("merged output");
    let merged = json::parse(&merged).expect("merged output is JSON");
    let (end_to_end, per_layer) = (manifest_names("end_to_end"), manifest_names("per_layer"));
    for workload in WORKLOADS {
        let w = merged.get("workloads").and_then(|w| w.get(workload)).expect(workload);
        let run = &w.get("runs").and_then(Json::as_arr).expect("runs")[0];
        let result = run.get("result").expect("result");
        assert_eq!(result.get("correct").and_then(Json::as_bool), Some(true), "{workload}");
        assert_eq!(result.get("failed").and_then(Json::as_u64), Some(0), "{workload}");
        assert!(
            result.get("attempted").and_then(Json::as_u64).is_some_and(|n| n >= 1),
            "{workload}"
        );
        for name in &end_to_end {
            let value =
                result.get("metrics").and_then(|m| m.get(name)).and_then(|m| m.get("value"));
            assert!(
                value.and_then(Json::as_f64).is_some_and(|v| v > 0.0),
                "{workload}: {name} must never read 0"
            );
            assert!(
                w.get("median").and_then(|m| m.get(name)).is_some(),
                "{workload}: median of {name}"
            );
        }
        let traced = w.get("trace").expect("traced run");
        assert_eq!(traced.get("correct").and_then(Json::as_bool), Some(true), "{workload} traced");
        let metrics = traced.get("metrics").expect("per-layer metrics");
        for name in &per_layer {
            assert!(
                metrics.get(name).and_then(|m| m.get("value")).is_some(),
                "{workload}: {name} missing"
            );
        }
        let value = |name: &str| {
            metrics.get(name).and_then(|m| m.get("value")).and_then(Json::as_f64).expect(name)
        };
        assert_eq!(value("quality.edp_ratio_geomean"), 1.0, "{workload}");
        assert_eq!(value("quality.fail_share"), 0.0, "{workload}");
        assert!(
            value("trace.sum_error_share") < 0.05,
            "{workload}: self times must add up to the unit wall"
        );
        assert!(value("trace.spans") > 0.0 && value("search.probed") > 0.0, "{workload}");
        let trace_file = repo_root().join(&out_dir).join(format!("trace-{workload}.json"));
        let spans = json::parse(&std::fs::read_to_string(trace_file).expect("trace file"))
            .expect("trace JSON");
        assert!(
            spans.get("spans").and_then(Json::as_arr).is_some_and(|s| !s.is_empty()),
            "{workload}"
        );
    }
    // Warm passes never reach the model; a cold network dedups its repeats.
    let traced = |workload: &str, name: &str| {
        let w = merged.get("workloads").and_then(|w| w.get(workload)).expect("workload");
        let m = w
            .get("trace")
            .and_then(|t| t.get("metrics"))
            .and_then(|m| m.get(name))
            .expect("metric");
        m.get("value").and_then(Json::as_f64).expect("value")
    };
    assert_eq!(traced("layer_warm", "search.modeled"), 0.0);
    assert!(traced("net_cold", "search.modeled") > 0.0);
    assert!(traced("net_cold", "session.dedup_hits") > 0.0);
    assert!(
        traced("serve_hot", "server.memo_hits") > 0.0
            && traced("serve_hot", "server.searches") == 0.0
    );
    assert!(
        traced("serve_churn", "server.searches") > 0.0
            && traced("serve_churn", "server.store_hits") > 0.0
    );
    let _ = std::fs::remove_dir_all(repo_root().join(out_dir));
}

#[test]
fn a_reference_the_result_cannot_meet_fails_the_run() {
    let dir = scratch("corrupt");
    let expected = repo_root().join(&dir).join("expected");
    std::fs::create_dir_all(&expected).expect("expected directory");
    let good = std::fs::read_to_string(repo_root().join("benchmark/expected/layer_warm.tsv"))
        .expect("reference");
    // Halve the first EDP: the search can no longer return anything as good.
    let line = good.lines().find(|l| !l.starts_with('#')).expect("an entry");
    let (rest, edp) = line.rsplit_once('\t').expect("three columns");
    let edp: f64 = edp.parse().expect("an EDP");
    let corrupted = good.replace(line, &format!("{rest}\t{:?}", edp / 2.0));
    std::fs::write(expected.join("layer_warm.tsv"), corrupted).expect("write");

    let args = ["--workload", "layer_warm", "--smoke", "--seed", "5", "--trace", "0"];
    let paths = [
        "--expected",
        expected.to_str().expect("utf-8"),
        "--out-dir",
        dir.to_str().expect("utf-8"),
    ];
    let output = bench(&[&args[..], &paths[..]].concat());
    assert_eq!(output.status.code(), Some(1), "a failed check must exit nonzero");
    let result = json::parse(&last_line(&output)).expect("the result line is still printed");
    assert_eq!(result.get("correct").and_then(Json::as_bool), Some(false));
    assert!(result.get("failed").and_then(Json::as_u64).is_some_and(|n| n > 0));
    assert!(String::from_utf8_lossy(&output.stdout).contains("worse than the reference"));

    // The same run against the committed references passes.
    let output = bench(&[&args[..], &["--out-dir", dir.to_str().expect("utf-8")][..]].concat());
    assert!(output.status.success());
    let result = json::parse(&last_line(&output)).expect("result line");
    assert_eq!(result.get("correct").and_then(Json::as_bool), Some(true));
    let _ = std::fs::remove_dir_all(repo_root().join(dir));
}

#[test]
fn without_references_there_is_no_result_and_a_nonzero_exit() {
    let dir = scratch("empty");
    let dir_arg = dir.to_str().expect("utf-8");
    let output =
        bench(&["--workload", "net_cold", "--smoke", "--expected", dir_arg, "--out-dir", dir_arg]);
    assert_eq!(output.status.code(), Some(2));
    assert!(json::parse(&last_line(&output)).is_err(), "no result line may be printed");
    let output = bench(&["--workload", "no_such_workload", "--smoke"]);
    assert_eq!(output.status.code(), Some(2));
    let _ = std::fs::remove_dir_all(repo_root().join(dir));
}

#[test]
fn compare_accepts_a_run_against_itself() {
    let dir = scratch("compare");
    let dir_arg = dir.to_str().expect("utf-8");
    let merged = repo_root().join(&dir).join("bench.json");
    let output = bench(&["--smoke", "--seed", "9", "--out-dir", dir_arg]);
    assert!(output.status.success(), "{}", String::from_utf8_lossy(&output.stdout));
    let merged = merged.to_str().expect("utf-8");
    let output = bench(&["--compare", merged, merged]);
    let table = String::from_utf8_lossy(&output.stdout);
    assert!(output.status.success(), "{table}");
    assert_eq!(table.matches("within").count(), 5 * manifest_names("end_to_end").len(), "{table}");
    let _ = std::fs::remove_dir_all(repo_root().join(dir));
}

#!/usr/bin/env bash
# CI gate: formatting, lints on the core crates, and the tier-1 command.
# Run from the repo root: ./ci.sh
set -euo pipefail
cd "$(dirname "$0")"

echo "== cargo fmt --check =="
cargo fmt --check

echo "== one capacity rule =="
# Whether a tile fits its buffer is decided by `CapacityPlan` alone — the
# validator, the search and every baseline call it. A footprint compared
# with a partition's capacity anywhere else is a second copy of the rule,
# free to drift from the validator's.
if grep -rnE 'capacity\.(fits|bytes)\(' crates/*/src \
    | grep -v -e '^crates/mapping/src/capacity\.rs:' -e '^crates/arch/src/'; then
    echo "capacity compared outside crates/mapping/src/capacity.rs" >&2
    exit 1
fi

echo "== one stop rule =="
# Whether a search must stop is decided by `CallControls::stop` alone:
# every checkpoint asks it. A cancel token read, or a deadline compared
# with the clock, anywhere else is a second stop policy, free to drift.
if grep -rn 'is_cancelled' crates/*/src \
    | grep -v -e '^crates/core/src/progress\.rs:' -e '^crates/core/src/search/mod\.rs:'; then
    echo "cancel token read outside CallControls::stop" >&2
    exit 1
fi
if grep -rnE 'Instant::now\(\) *[<>]|[<>]=? *Instant::now\(\)' crates/*/src \
    | grep -v '^crates/core/src/search/mod\.rs:.*self\.deadline'; then
    echo "deadline compared with the clock outside CallControls::stop" >&2
    exit 1
fi

echo "== one constraint rule =="
# A constraint set means one thing: `ResolvedConstraints::resolve` gives
# it its one form, the search's enumerators read that form, and
# `ResolvedConstraints::check` holds a mapping to it. A `ConstraintError`
# raised anywhere else is a second resolver or checker, free to drift.
if grep -rn 'ConstraintError::' crates/*/src \
    | grep -v '^crates/mapping/src/constraints\.rs:'; then
    echo "ConstraintError raised outside crates/mapping/src/constraints.rs" >&2
    exit 1
fi

echo "== one admission rule =="
# Every search baseline validates, counts and prices its candidates
# through `Trial` (crates/baselines/src/mapper.rs), over the one cost
# model it builds. A `CostModel` built, or a mapping priced, in any other
# baseline file is a second admission loop, free to drift from the rest.
if grep -rnE 'evaluate_unchecked|CostModel::new' crates/baselines/src \
    | grep -v '^crates/baselines/src/mapper\.rs:'; then
    echo "a baseline prices mappings outside crates/baselines/src/mapper.rs" >&2
    exit 1
fi

echo "== one enumeration rule =="
# A search's enumeration counters have one writer: `Record::replay`
# (crates/core/src/search/estimate.rs), which every ask of an ordering,
# tile or unrolling enumeration runs, on a memo miss exactly as on a hit.
# A node count added, or a stage's ordering, tiling or unrolling counter
# written, anywhere else is a second writer, free to drift from what a
# memo hit replays. stats.rs's own unit tests are exempt.
stats_tests=$(grep -n '^#\[cfg(test)\]' crates/core/src/search/stats.rs | head -1 | cut -d: -f1)
if grep -rnE 'nodes_explored \+=|\.(tiling|unrolling)\.record\(|\.ordering\.merge\(' crates/*/src \
    | grep -v '^crates/core/src/search/estimate\.rs:.*+= self\.' \
    | awk -F: -v t="$stats_tests" '!($1 == "crates/core/src/search/stats.rs" && $2 > t)' \
    | grep .; then
    echo "an enumeration counter written outside Record::replay" >&2
    exit 1
fi

echo "== one fabric rule =="
# What a fabric may unroll is resolved once, with the constraints
# (`LevelConstraints::unroll_dims`, crates/mapping/src/constraints.rs):
# the search's unroll and tile enumerations and the Table VI study read
# that set. A fabric's reduction flag or an allow-list read anywhere else
# is a second answer, free to drift. Exempt: the architecture that
# defines the flag, the validator's own safety check, the fingerprint
# that hashes it, and the baselines, which model other tools.
if grep -rnE 'allow_reduction|unroll_allow' crates/*/src \
    | grep -v -e '^crates/arch/src/' -e '^crates/mapping/src/constraints\.rs:' \
        -e '^crates/mapping/src/validate\.rs:' -e '^crates/core/src/fingerprint\.rs:' \
        -e '^crates/baselines/src/'; then
    echo "what a fabric may unroll decided outside crates/mapping/src/constraints.rs" >&2
    exit 1
fi

echo "== one copy rule =="
# The daemon keeps each answer once, in its session memo. The store's
# in-memory state is an offset index (where each context's line lies on
# disk); it reads a line back when asked for one. A map from a context to
# its line, bytes, JSON tree or record in crates/serve/src/store.rs is a
# second copy of every answer the daemon has served.
if grep -nE '(HashMap|BTreeMap)<[^>]*(String|str|Vec<u8>|\[u8\]|Json|StoreRecord)' \
    crates/serve/src/store.rs; then
    echo "crates/serve/src/store.rs holds lines in an in-memory map" >&2
    exit 1
fi
# The index's heap per record, after 1 000 answer-sized appends (release,
# the build the daemon runs).
index_test=$(cargo test -q --release -p sunstone-serve --lib -- --exact \
    store::tests::the_index_holds_no_line 2>&1) || { echo "$index_test"; exit 1; }
if ! grep -q "1 passed" <<<"$index_test"; then
    echo "$index_test"
    echo "store::tests::the_index_holds_no_line did not run" >&2
    exit 1
fi

echo "== one round rule =="
# An estimate lives as long as its round: the round finds its own repeats
# in an index of its own and the final ranking prices what the caller
# receives afresh. A table of estimates kept across rounds, or a lookup of
# a finalist in one, is a second memory of prices; its only hits were the
# outermost memory's stage re-filing its parents, a stage the search now
# runs only when a fabric sits directly below that memory.
if grep -rnE 'EstimateTable|evaluate_cached|KeyHashMap' crates/core/src; then
    echo "crates/core/src keeps estimates across rounds" >&2
    exit 1
fi
# Without such a fabric, the outermost stage's children are its parents,
# on every preset (release, the build the search runs in).
round_test=$(cargo test -q --release -p sunstone --lib -- --exact \
    search::tests::the_outermost_stage_without_a_fabric_keeps_its_parents 2>&1) || { echo "$round_test"; exit 1; }
if ! grep -q "1 passed" <<<"$round_test"; then
    echo "$round_test"
    echo "search::tests::the_outermost_stage_without_a_fabric_keeps_its_parents did not run" >&2
    exit 1
fi

echo "== one memo rule =="
# The session remembers each context as one packed entry, its finalists and
# the statistics a hit reports in one byte string (crates/core/src/memo.rs).
# A finalist list or a statistics struct held beside it is the per-field
# storage the entry replaced: a dozen allocations and 2.4 kB a context.
if grep -rnE 'Arc<SearchStats>|Arc<\[Finalist\]>|Vec<Finalist>' crates/core/src \
    --include=memo.rs --include=session.rs; then
    echo "the session memo holds finalists or statistics outside its packed entries" >&2
    exit 1
fi
# Bytes per memoized context after 32 distinct Simba convs (release, the
# build the daemon runs).
memo_test=$(cargo test -q --release -p sunstone --lib -- --exact \
    memo::tests::a_memo_entry_is_small 2>&1) || { echo "$memo_test"; exit 1; }
if ! grep -q "1 passed" <<<"$memo_test"; then
    echo "$memo_test"
    echo "memo::tests::a_memo_entry_is_small did not run" >&2
    exit 1
fi

echo "== one row rule =="
# A candidate row is the whole mapping it stands for: what no stage has
# placed yet sits in the outermost memory's factors, where
# `Mapping::streaming` puts the problem, and the count kernel prices a
# candidate from the row `Candidates::write_row` writes. A completion —
# a remainder kept beside a row or a nest and multiplied in when it is
# read — or a view that reads a candidate level by level from its run
# (`ChildNest`, `MissRows`) is a second representation of the same
# mapping, free to drift from the row.
if grep -rnE 'fn completion|\.completion\(\)|materialize_completed|streaming_base|ChildNest|MissRows' \
    crates/model/src crates/core/src; then
    echo "a candidate is completed or viewed instead of kept whole" >&2
    exit 1
fi
# Every beam row of real searches on every preset, materialized, covers
# the problem, writes back to itself and prices as its mapping (release,
# the build the search runs in).
row_test=$(cargo test -q --release -p sunstone --lib -- --exact \
    search::tests::every_beam_row_is_a_whole_mapping 2>&1) || { echo "$row_test"; exit 1; }
if ! grep -q "1 passed" <<<"$row_test"; then
    echo "$row_test"
    echo "search::tests::every_beam_row_is_a_whole_mapping did not run" >&2
    exit 1
fi

echo "== cargo clippy (core crates, benches, repro tests) =="
cargo clippy --release \
    -p sunstone-ir -p sunstone-arch -p sunstone-mapping -p sunstone-model \
    -p sunstone -p sunstone-workloads -p sunstone-baselines -p sunstone-diannao \
    -p sunstone-serve -p sunstone-bench -p sunstone-repro \
    --all-targets -- -D warnings

echo "== tier-1: build + test =="
cargo build --release
cargo test -q

echo "== doctests (core crate) =="
cargo test -q --doc -p sunstone

echo "== example smoke: constrained-vs-free template =="
# The example asserts that, on its layer, the C-K template costs at least
# the free search's best. That holds for this case, not in general: both
# are beam searches, and a template can beat the free search elsewhere
# (EXPERIMENTS.md). A nonzero exit means this case's verdict changed.
cargo run --release --example constrained >/dev/null

echo "== fault injection: build + soak =="
# The failpoint harness only exists under this feature; the soak drives a
# panic through every registered failpoint and requires bit-identical
# recovery on the same session.
cargo clippy -p sunstone --features fault-injection --all-targets -- -D warnings
cargo test -q -p sunstone --features fault-injection --test fault_injection
# The serve-layer chaos soak: every serve failpoint (frame read, store
# append, fsync, compaction rename, handler spawn) cycled through panic
# and delay under eight concurrent clients, with fingerprint-checked
# responses, bounded joins, and restart-from-store after every cycle.
cargo clippy -p sunstone-serve --features fault-injection --all-targets -- -D warnings
cargo test -q -p sunstone-serve --features fault-injection --test fault_injection

echo "== release degenerate-input smoke =="
# Debug builds catch arithmetic overflow implicitly; the release profile
# wraps instead, so the no-panic grid must also hold there.
cargo test -q --release -p sunstone-repro --test robustness

echo "== release model + serve tests =="
# The search prices with release codegen, so the model's bit-identity
# tests (every entry point, width, prefix and source prices alike) run
# under it too. The daemon's suite runs there as well: its deadline test
# derives its budget from how long this machine takes to search, and it
# carries the daemon's end-to-end gates — served mappings bit-identical
# to the library, a connection flood against the admission cap that
# sheds exactly the excess and drains, the per-hit phase ledger, and a
# restart answered from the warm-loaded store. The daemon's speed is the
# repo benchmark's (`benchmark/run.sh --workload serve_hot|serve_churn`).
cargo test -q --release -p sunstone-model
cargo test -q --release -p sunstone-serve --test serve

echo "== bench smoke: quick schedule bench =="
cargo run --release -p sunstone-bench --bin bench_schedule -- quick --out BENCH_schedule_quick.json
python3 - <<'EOF'
import json
d = json.load(open("BENCH_schedule_quick.json"))
assert d.get("schema") == "sunstone-bench-schedule/v13", d.get("schema")
assert d.get("layers"), "no layers recorded"
for row in d["layers"]:
    for field in (
        "name", "cold_ms", "repeat_us", "best_edp",
        "probed", "modeled", "bounded", "nodes_explored", "capacity_probes",
        "prefix_hit_rate", "price_ns", "mapping_fp", "phase_ms",
    ):
        assert field in row, f"missing {field} in {row.get('name', '?')}"
    for phase in (
        "expand", "expand_tiles", "expand_unrolls", "expand_orderings",
        "expand_rows", "estimate",
        "estimate_prefix", "estimate_price", "estimate_publish", "select", "rank",
        "uncovered_share",
    ):
        assert phase in row["phase_ms"], f"missing {phase} in {row['name']}"
    assert row["cold_ms"] > 0 and row["repeat_us"] > 0, row["name"]
    # A repeat is a memo hit, not a second search.
    assert row["repeat_us"] < 1e3 * row["cold_ms"], row["name"]
    assert row["modeled"] + row["bounded"] <= row["probed"], row["name"]
    assert row["price_ns"] > 0, row["name"]
est = d.get("estimate", {})
for field in ("evals_per_sec", "batch_evals_per_sec", "batch_width"):
    assert field in est, f"missing estimate.{field}"
batching = d.get("batching", {})
for field in ("batches", "avg_batch_width"):
    assert field in batching, f"missing batching.{field}"
# Hard gate: every quick layer's best mapping must be bit-identical to
# the committed baseline. A fingerprint divergence means an optimization
# changed search results, not just speed — fail, don't warn.
base = {r["name"]: r["mapping_fp"] for r in json.load(open("results/bench_baseline.json"))["layers"]}
diverged = [
    f"{r['name']}: {r['mapping_fp']} != {base[r['name']]}"
    for r in d["layers"]
    if r["name"] in base and r["mapping_fp"] != base[r["name"]]
]
assert not diverged, "mapping_fp diverged from results/bench_baseline.json:\n" + "\n".join(diverged)
checked = sum(1 for r in d["layers"] if r["name"] in base)
assert checked > 0, "no quick layer found in the baseline — gate is vacuous"
# Count gate: a search's counters do not depend on session history (it
# owns its tables; these rows are each layer's first call, a search), so
# a quick layer must probe, model, bound and explore exactly what the
# committed full-mode row did. A refactor that changes *which* candidates
# are built, not only how, fails here even when the winning mapping
# survives; `nodes_explored` — computed per lattice column by the
# frontier walk, not walked — must still equal the count a walk of every
# node would give; and `capacity_probes` — the enumerators' `fits` calls,
# none on a memo hit — moves with any change to the enumeration memos or
# to how much enumeration they save.
committed = json.load(open("BENCH_schedule.json"))
committed_rows = {r["name"]: r for r in committed["layers"]}
drifted = [
    f"{r['name']}: {key} {r[key]} != {committed_rows[r['name']][key]}"
    for r in d["layers"]
    for key in ("probed", "modeled", "bounded", "nodes_explored", "capacity_probes")
    if r[key] != committed_rows[r["name"]][key]
]
assert not drifted, "search counters drifted from BENCH_schedule.json:\n" + "\n".join(drifted)
# Throughput gate: the count kernel at width 16 against a decided prefix
# must stay well ahead of the same kernel at width 1 with no prefix (a
# whole-nest evaluation). Both are measured in this very run, so the
# ratio cancels the machine's speed — an absolute floor committed from
# another run does not (the same binary reads 0.96–1.54 M batch evals/s
# from one quick run to the next on one box). 2.4–2.6 observed since the
# kernel reads rows.
ratio = est["batch_evals_per_sec"] / est["evals_per_sec"]
assert ratio >= 1.5, (
    f"batch evaluator only {ratio:.2f}x the width-1, no-prefix one"
    f" ({est['batch_evals_per_sec']:.0f} vs {est['evals_per_sec']:.0f} evals/s)"
)
# Memory gate: the process's peak resident set (`VmHWM`) over the quick
# run. A stage's candidates are columns over a run table, only the beam's
# survivors are written out as rows, and no estimate outlives its round;
# a change that keeps a row per candidate again (6.7 MB a Simba stage),
# or an entry per miss in a table kept across rounds, goes over this
# ceiling. 3.8-4.0 MB observed while a per-search table filed prices
# (4.6-5.0 MB when it reserved an entry per miss, 11.3 MB when every
# candidate had a row); the ceiling is the highest of those runs plus 25 %.
PEAK_RSS_CEILING_MB = 5.0
assert 0 < d["peak_rss_mb"] <= PEAK_RSS_CEILING_MB, (
    f"quick bench peaked at {d['peak_rss_mb']:.2f} MB resident,"
    f" over the {PEAK_RSS_CEILING_MB} MB ceiling"
)
print(
    f"BENCH_schedule_quick.json OK ({len(d['layers'])} layers, {checked} fingerprints"
    f" match baseline, batch {est['batch_evals_per_sec']:.0f} evals/s,"
    f" {ratio:.2f}x width 1, no prefix, peak {d['peak_rss_mb']:.1f} MB)"
)
EOF
rm -f BENCH_schedule_quick.json

echo "== Table VI study smoke =="
# The optimization-order study (`sunstone_bench::table6`): the binary exits
# non-zero when any of its six variants fails on any quick layer.
cargo run --release -q -p sunstone-bench --bin table6_order -- quick >/dev/null

echo "== repo benchmark: harness tests + smoke =="
# benchmark/ is a stand-alone package that imports public symbols from
# the crates and carries its own lock file, and a PR may not edit it: a
# change that breaks one of those symbols, or changes a crate's
# dependencies (--locked refuses to rewrite benchmark/Cargo.lock), must
# fail here rather than in the benchmark driver.
(cd benchmark && cargo test --release --offline --locked)
benchmark/run.sh --smoke

echo "== rustdoc (warnings denied) =="
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps -q \
    -p sunstone-ir -p sunstone-arch -p sunstone-mapping -p sunstone-model \
    -p sunstone -p sunstone-workloads -p sunstone-baselines -p sunstone-diannao \
    -p sunstone-serve

echo "CI OK"

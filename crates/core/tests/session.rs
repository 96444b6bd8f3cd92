//! Session API contract: batch/sequential equivalence, thread-count
//! independence, cancellation, time budgets, and the result memo.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use sunstone::prelude::*;
use sunstone_arch::{presets, ArchSpec};
use sunstone_ir::Workload;
use sunstone_mapping::Mapping;
use sunstone_model::CostReport;

fn conv(name: &str, k: u64, c: u64, pq: u64, r: u64) -> Workload {
    let mut b = Workload::builder(name);
    let kd = b.dim("K", k);
    let cd = b.dim("C", c);
    let p = b.dim("P", pq);
    let q = b.dim("Q", pq);
    let rd = b.dim("R", r);
    let s = b.dim("S", r);
    b.input("ifmap", [cd.expr(), p.expr() + rd.expr(), q.expr() + s.expr()]);
    b.input("weight", [kd.expr(), cd.expr(), rd.expr(), s.expr()]);
    b.output("ofmap", [kd.expr(), p.expr(), q.expr()]);
    b.build().expect("valid conv workload")
}

/// `y[t][f] = Σ_m x[t][m] · weight[f][m]`: the shape of
/// `sunstone_workloads::extra::transformer_ffn`.
fn ffn(tokens: u64, d_model: u64, d_ff: u64) -> Workload {
    let mut b = Workload::builder("ffn");
    let (t, f, m) = (b.dim("T", tokens), b.dim("F", d_ff), b.dim("M", d_model));
    b.input("x", [t.expr(), m.expr()]);
    b.input("weight", [f.expr(), m.expr()]);
    b.output("y", [t.expr(), f.expr()]);
    b.build().expect("valid ffn workload")
}

/// A batch under default options, all or nothing.
fn batch(
    session: &Scheduler,
    net: &[Workload],
    arch: &ArchSpec,
) -> Result<BatchResult, ScheduleError> {
    session.schedule_batch_outcomes(net, arch, &ScheduleOptions::new())?.into_result()
}

/// The `k` best mappings of one call, best first.
fn top_k(
    session: &Scheduler,
    w: &Workload,
    arch: &ArchSpec,
    k: usize,
) -> Result<Vec<ScheduleResult>, ScheduleError> {
    Ok(session.schedule_with(w, arch, &ScheduleOptions::new().top_k(k))?.into_results())
}

type Witness = (Mapping, CostReport, SearchStats);

/// Everything of a result that may depend on its context alone: the
/// mapping, the whole report, and the statistics with their wall-clock
/// fields blanked.
fn witness(r: &ScheduleResult) -> Witness {
    let mut stats = r.stats.clone();
    stats.elapsed = Duration::ZERO;
    stats.rank = Duration::ZERO;
    for l in &mut stats.levels {
        l.expand = Duration::ZERO;
        l.expand_tiles = Duration::ZERO;
        l.expand_unrolls = Duration::ZERO;
        l.expand_orderings = Duration::ZERO;
        l.expand_rows = Duration::ZERO;
        l.estimate = Duration::ZERO;
        l.estimate_prefix = Duration::ZERO;
        l.estimate_price = Duration::ZERO;
        l.estimate_publish = Duration::ZERO;
        l.select = Duration::ZERO;
    }
    (r.mapping.clone(), r.report.clone(), stats)
}

/// What the session's memo answers for a context whose search returned
/// `searched`: the same mapping, report and enumeration counters, with the
/// model and capacity-probe columns struck out — nothing modeled, bounded
/// or probed for the call, every estimate request served from memory, in
/// total and per level. Applied to both sides it is the part of a witness
/// that may not depend on whether the call searched or hit.
fn remembered(searched: &Witness) -> Witness {
    let (mapping, report, mut stats) = searched.clone();
    (stats.modeled, stats.bounded, stats.prefix_hits, stats.batches, stats.batched) =
        (0, 0, 0, 0, 0);
    stats.capacity_probes = 0;
    stats.cache_hits += stats.cache_misses;
    stats.cache_misses = 0;
    for l in &mut stats.levels {
        l.cache_hits += l.cache_misses;
        (l.cache_misses, l.bounded) = (0, 0);
    }
    (mapping, report, stats)
}

/// A small network with repeated shapes: four layers, two unique shapes.
/// The repeats carry different names, which must not defeat the dedup.
fn repeated_network() -> Vec<Workload> {
    vec![
        conv("a0", 32, 16, 14, 3),
        conv("b0", 64, 32, 7, 3),
        conv("a1", 32, 16, 14, 3),
        conv("a2", 32, 16, 14, 3),
    ]
}

#[test]
fn batch_matches_sequential_bitwise() {
    let arch = presets::conventional();
    let net = repeated_network();

    let batch =
        batch(&Scheduler::new(SunstoneConfig::default()), &net, &arch).expect("batch schedules");
    assert_eq!(batch.stats.layers, 4);
    assert_eq!(batch.stats.unique_shapes, 2, "renamed repeats share a shape");
    assert_eq!(batch.stats.dedup_hits, 2);
    assert_eq!(batch.stats.best_so_far, 0, "no shape was truncated by a budget");

    let seq = Scheduler::new(SunstoneConfig::default());
    for (i, w) in net.iter().enumerate() {
        let s = seq.schedule(w, &arch).expect("layer schedules");
        let b = batch.best(i);
        assert_eq!(b.mapping, s.mapping, "layer {i} mapping differs");
        assert_eq!(
            b.report.edp.to_bits(),
            s.report.edp.to_bits(),
            "layer {i} EDP not bitwise identical"
        );
    }
}

#[test]
fn batch_independent_of_worker_count() {
    let arch = presets::conventional();
    let net = repeated_network();

    let threads = |threads| Scheduler::new(SunstoneConfig { threads, ..SunstoneConfig::default() });
    let one = batch(&threads(1), &net, &arch).expect("1-thread batch schedules");
    let four = batch(&threads(4), &net, &arch).expect("4-thread batch schedules");

    assert_eq!(one.stats.unique_shapes, four.stats.unique_shapes);
    for (a, b) in one.bests().zip(four.bests()) {
        assert_eq!(a.mapping, b.mapping);
        assert_eq!(a.report.edp.to_bits(), b.report.edp.to_bits());
    }
}

#[test]
fn pre_cancelled_token_cancels_deterministically() {
    let arch = presets::conventional();
    let w = conv("c", 32, 16, 14, 3);
    let token = CancelToken::new();
    token.cancel();
    assert!(token.is_cancelled());

    let opts = ScheduleOptions::new().cancel(token);
    let err = Scheduler::new(SunstoneConfig::default())
        .schedule_with(&w, &arch, &opts)
        .expect_err("pre-cancelled call must not produce a result");
    assert!(matches!(err, ScheduleError::Cancelled));

    // Batch calls observe the same token.
    let err = Scheduler::new(SunstoneConfig::default())
        .schedule_batch_outcomes(&[w], &arch, &opts)
        .and_then(BatchOutcome::into_result)
        .expect_err("pre-cancelled batch must not produce a result");
    assert!(matches!(err, ScheduleError::Cancelled));
}

#[test]
fn zero_time_budget_returns_best_so_far() {
    let arch = presets::conventional();
    let w = conv("c", 32, 16, 14, 3);

    let opts = ScheduleOptions::new().time_budget(Duration::ZERO);
    let outcome = Scheduler::new(SunstoneConfig::default())
        .schedule_with(&w, &arch, &opts)
        .expect("zero budget still yields the root's completion");
    assert!(!outcome.is_complete(), "zero budget cannot complete the search");
    assert!(!outcome.results().is_empty(), "best-so-far carries a usable mapping");

    // The truncated result is deterministic: same budget, same answer.
    let again = Scheduler::new(SunstoneConfig::default())
        .schedule_with(&w, &arch, &opts)
        .expect("zero budget is deterministic");
    assert_eq!(outcome.results()[0].mapping, again.results()[0].mapping);

    // A generous budget completes and matches the unbudgeted search.
    let generous = ScheduleOptions::new().time_budget(Duration::from_secs(3600));
    let full = Scheduler::new(SunstoneConfig::default())
        .schedule_with(&w, &arch, &generous)
        .expect("generous budget schedules");
    assert!(full.is_complete());
    let unbudgeted =
        Scheduler::new(SunstoneConfig::default()).schedule(&w, &arch).expect("schedules");
    assert_eq!(full.results()[0].mapping, unbudgeted.mapping);
}

/// The deadline contract on the second layer of a session (the pool is
/// live, another context is memoized): an expired budget stops the search
/// at its first checkpoint, before stage 0 prices anything, so the call
/// returns the completion of the root — a usable best-so-far, never
/// `BudgetExhausted` — and the same mapping at every thread count, on a
/// conv and on a transformer FFN whose stage 0 is large.
#[test]
fn zero_budget_on_second_layer_returns_deterministic_best_so_far() {
    let first = conv("first", 32, 16, 14, 3);
    let cases = [
        (conv("second", 32, 16, 7, 3), presets::conventional()),
        (ffn(512, 768, 3072), presets::conventional()),
        (ffn(512, 768, 3072), presets::simba_like()),
    ];
    let zero = ScheduleOptions::new().time_budget(Duration::ZERO);
    for (w, arch) in &cases {
        let case = format!("{} on {}", w.name(), arch.name());
        let mut mappings = Vec::new();
        for threads in [1, 2, 8] {
            let session = Scheduler::new(SunstoneConfig { threads, ..SunstoneConfig::default() });
            session.schedule(&first, arch).expect("first layer completes");
            for _ in 0..10 {
                let outcome = session
                    .schedule_with(w, arch, &zero)
                    .expect("zero budget on a second layer must not error");
                assert!(!outcome.is_complete(), "{case}: zero budget cannot complete the search");
                let best = &outcome.results()[0];
                assert_eq!(best.stats.probed, 0, "{case}: an expired budget prices nothing");
                mappings.push(best.mapping.clone());
            }
        }
        assert!(
            mappings.iter().all(|m| *m == mappings[0]),
            "{case}: zero-budget answer depends on threads or timing"
        );
    }
}

/// A budget past what an `Instant` can hold is no deadline: the single
/// and the batch entry point complete, with the unbudgeted mapping.
#[test]
fn a_budget_past_the_clock_is_no_deadline() {
    let arch = presets::conventional();
    let w = conv("c", 32, 16, 14, 3);
    let unbudgeted =
        Scheduler::new(SunstoneConfig::default()).schedule(&w, &arch).expect("schedules");
    let opts = ScheduleOptions::new().time_budget(Duration::MAX);

    let one = Scheduler::new(SunstoneConfig::default())
        .schedule_with(&w, &arch, &opts)
        .expect("an unbounded budget schedules");
    assert!(one.is_complete());
    assert_eq!(one.results()[0].mapping, unbudgeted.mapping);

    let batch = Scheduler::new(SunstoneConfig::default())
        .schedule_batch_outcomes(std::slice::from_ref(&w), &arch, &opts)
        .expect("an unbounded budget schedules a batch")
        .into_result()
        .expect("every layer schedules");
    assert_eq!(batch.stats.best_so_far, 0);
    assert_eq!(batch.best(0).mapping, unbudgeted.mapping);
}

/// A search's result *and its work* are a function of its own context
/// alone: whatever the session scheduled before, in whatever order, on
/// however many threads, each layer returns the mapping, the EDP bits and
/// the counters of a fresh session. The layers share one shape class and
/// differ by a prime or two per dimension — the neighbours most likely
/// to leak into each other through any cross-call state.
#[test]
fn results_and_counters_do_not_depend_on_session_history() {
    let layers = [
        conv("adv_a", 32, 16, 12, 3),
        conv("adv_b", 48, 16, 8, 3),
        conv("stage1", 32, 16, 14, 3),
        conv("stage2", 64, 32, 7, 3),
    ];
    let config = SunstoneConfig { threads: 1, ..SunstoneConfig::default() };
    for arch in [presets::conventional(), presets::simba_like()] {
        let fresh: Vec<_> = layers
            .iter()
            .map(|w| {
                witness(&Scheduler::new(config.clone()).schedule(w, &arch).expect("schedules"))
            })
            .collect();

        // Both orders of arrival inside each pair, and of the pairs.
        for order in [[0, 1, 2, 3], [3, 2, 1, 0]] {
            let session = Scheduler::new(config.clone());
            for i in order {
                let r = session.schedule(&layers[i], &arch).expect("schedules");
                let (layer, preset) = (layers[i].name(), arch.name());
                assert_eq!(witness(&r), fresh[i], "{layer} on {preset} in order {order:?}");
            }
        }

        // The same layers searched concurrently by a two-thread batch.
        let batch = Scheduler::new(SunstoneConfig { threads: 2, ..config.clone() })
            .schedule_batch_outcomes(&layers, &arch, &ScheduleOptions::new())
            .expect("batch schedules");
        for (i, layer) in batch.layers.iter().enumerate() {
            let best = &layer.as_ref().expect("layer schedules")[0];
            let (name, preset) = (layers[i].name(), arch.name());
            assert_eq!(witness(best), fresh[i], "{name} on {preset} in a two-thread batch");
        }
    }
}

#[test]
fn session_cache_survives_across_calls() {
    let arch = presets::conventional();
    let w = conv("c", 32, 16, 14, 3);
    let session = Scheduler::new(SunstoneConfig::default());

    let first = session.schedule(&w, &arch).expect("first call schedules");
    let after_first = session.cache_stats();
    assert_eq!(after_first.entries, 1, "a complete search is memoized under its context");
    assert_eq!((after_first.hits, after_first.misses), (0, 1), "the first call searched");

    let second = session.schedule(&w, &arch).expect("second call schedules");
    let after_second = session.cache_stats();
    assert_eq!(
        (after_second.hits, after_second.misses),
        (1, 1),
        "the second call on the same shape is answered from the memo"
    );
    assert_eq!(first.mapping, second.mapping);
    assert_eq!(first.report.edp.to_bits(), second.report.edp.to_bits());

    // A renamed copy of the same shape also hits: the workload
    // fingerprint ignores names.
    let renamed = conv("c_renamed", 32, 16, 14, 3);
    session.schedule(&renamed, &arch).expect("renamed call schedules");
    assert_eq!(session.cache_stats().hits, 2);
    assert_eq!(session.cache_stats().entries, 1);

    // clear_cache starts over, the pool's round count included.
    assert!(session.cache_stats().pool_rounds > 0, "the search fanned out on the pool");
    session.clear_cache();
    assert_eq!(session.cache_stats(), CacheStats::default(), "every counter starts over");
    assert!(session.memoized(session.context_fingerprint(&w, &arch)).is_none());
    let third = session.schedule(&w, &arch).expect("searches again");
    assert_eq!(witness(&third), witness(&first));
    assert_eq!(session.cache_stats().misses, 1);
}

/// The repeat of a call is the answer a fresh session would give, bit for
/// bit — mapping, report, enumeration counters — through every entry
/// point, and its model columns say it was remembered, not searched:
/// `modeled` 0, every estimate request a hit.
#[test]
fn a_repeat_is_the_fresh_sessions_answer_bit_for_bit() {
    let arch = presets::conventional();
    let w = conv("c", 32, 16, 14, 3);
    let config = SunstoneConfig { threads: 1, ..SunstoneConfig::default() };
    let fresh = |k: usize| -> Vec<_> {
        let results = top_k(&Scheduler::new(config.clone()), &w, &arch, k);
        results.expect("schedules").iter().map(witness).collect()
    };
    let hit = |searched: &[Witness]| -> Vec<_> { searched.iter().map(remembered).collect() };
    let (fresh_1, fresh_8) = (fresh(1), fresh(8));
    assert!(fresh_8.len() > 1, "the final beam holds more than one distinct mapping");
    assert_eq!(fresh_8[0], fresh_1[0], "top_k only cuts the ranked list");
    let (searched, repeat) = (&fresh_1[0].2, &remembered(&fresh_1[0]).2);
    assert!(searched.modeled > 0 && repeat.modeled == 0);
    assert_eq!(repeat.probed, searched.probed);
    assert!(repeat.cache_hits >= repeat.probed && repeat.cache_misses == 0);

    // schedule, twice.
    let session = Scheduler::new(config.clone());
    let first = session.schedule(&w, &arch).expect("schedules");
    let again = session.schedule(&w, &arch).expect("schedules");
    assert_eq!(witness(&first), fresh_1[0]);
    assert_eq!(witness(&again), remembered(&fresh_1[0]));
    assert_eq!((session.cache_stats().hits, session.cache_stats().misses), (1, 1));

    // k = 8 then k = 1: the shorter request is a prefix of the memoized list.
    let session = Scheduler::new(config.clone());
    let top = |k: usize| -> Vec<_> {
        top_k(&session, &w, &arch, k).expect("schedules").iter().map(witness).collect()
    };
    assert_eq!(top(8), fresh_8);
    assert_eq!(top(1), hit(&fresh_1));
    assert_eq!(top(8), hit(&fresh_8));
    assert_eq!((session.cache_stats().hits, session.cache_stats().misses), (2, 1));

    // k = 1 then k = 8: one result cannot answer for eight — the wider
    // call searches and its list replaces the entry.
    let session = Scheduler::new(config.clone());
    let top = |k: usize| -> Vec<_> {
        top_k(&session, &w, &arch, k).expect("schedules").iter().map(witness).collect()
    };
    assert_eq!(top(1), fresh_1);
    assert_eq!(top(8), fresh_8);
    assert_eq!((session.cache_stats().hits, session.cache_stats().misses), (0, 2));
    assert_eq!(top(8), hit(&fresh_8));
    assert_eq!(top(1), hit(&fresh_1));
    assert_eq!((session.cache_stats().hits, session.cache_stats().misses), (2, 2));
    assert_eq!(session.cache_stats().entries, 1);

    // A batch, twice: the repeat is all hits, and its totals are
    // the same sums with every miss read as a hit.
    let net = repeated_network();
    let per_layer = |batch: &BatchResult| -> Vec<_> { batch.bests().map(witness).collect() };
    let reference = batch(&Scheduler::new(config.clone()), &net, &arch).expect("schedules");
    let session = Scheduler::new(config);
    let first = batch(&session, &net, &arch).expect("schedules");
    let again = batch(&session, &net, &arch).expect("schedules");
    assert_eq!(per_layer(&first), per_layer(&reference));
    assert_eq!(per_layer(&again), hit(&per_layer(&reference)));
    assert_eq!((session.cache_stats().hits, session.cache_stats().misses), (2, 2));
    let totals = |b: &BatchResult| (b.stats.cache_hits, b.stats.cache_misses, b.stats.evaluated);
    assert_eq!(totals(&first), totals(&reference));
    let (hits, misses, evaluated) = totals(&reference);
    assert_eq!(totals(&again), (hits + misses, 0, evaluated));
}

/// `BatchStats` totals are sums over the batch's own unique searches, not
/// differences of session-wide counters: another call on a clone of the
/// session while the batch runs cannot leak into them.
#[test]
fn batch_totals_are_sums_over_the_unique_searches() {
    let arch = presets::conventional();
    let net = repeated_network();
    let session = Scheduler::new(SunstoneConfig::default());
    let noise = conv("noise", 48, 16, 8, 3);
    let batch = std::thread::scope(|scope| {
        let other = session.clone();
        let (noise, arch) = (&noise, &arch);
        scope.spawn(move || {
            for _ in 0..4 {
                other.clear_cache();
                other.schedule(noise, arch).expect("schedules");
            }
        });
        batch(&session, &net, arch).expect("batch schedules")
    });
    // Layers 0 and 1 are the two unique shapes.
    let unique = [batch.best(0), batch.best(1)];
    let sum = |field: fn(&SearchStats) -> u64| unique.iter().map(|r| field(&r.stats)).sum::<u64>();
    assert_eq!(batch.stats.cache_hits, sum(|s| s.cache_hits));
    assert_eq!(batch.stats.cache_misses, sum(|s| s.cache_misses));
    assert_eq!(batch.stats.evaluated, sum(|s| s.probed));
    assert_eq!(
        batch.stats.cache_misses,
        sum(|s| s.modeled + s.bounded),
        "a miss is a model run or a bound"
    );
}

/// Only a search that ran to completion is memoized: a best-so-far
/// result, a cancelled call and a failed one leave the memo empty, so the
/// next call searches and gets the real answer.
#[test]
fn truncated_cancelled_and_failed_calls_are_never_memoized() {
    let arch = presets::conventional();
    let w = conv("c", 32, 16, 14, 3);
    let session = Scheduler::new(SunstoneConfig::default());

    let zero = ScheduleOptions::new().time_budget(Duration::ZERO);
    let cut = session.schedule_with(&w, &arch, &zero).expect("best-so-far");
    assert!(!cut.is_complete());
    assert_eq!(session.cache_stats().entries, 0, "a best-so-far result is not memoized");

    let token = CancelToken::new();
    token.cancel();
    let err = session.schedule_with(&w, &arch, &ScheduleOptions::new().cancel(token));
    assert!(matches!(err, Err(ScheduleError::Cancelled)));
    assert_eq!(session.cache_stats().entries, 0, "a cancelled call is not memoized");

    let bad = session.schedule(&conv1d_bits("bad", 16), &tiny_l1_arch());
    assert!(matches!(bad, Err(ScheduleError::InfeasibleLevel { .. })));
    assert_eq!(session.cache_stats().entries, 0, "an error is not memoized");
    assert_eq!(session.cache_stats().hits, 0);

    let full = session.schedule(&w, &arch).expect("schedules");
    let fresh = Scheduler::new(SunstoneConfig::default()).schedule(&w, &arch).expect("schedules");
    assert_eq!(full.mapping, fresh.mapping);
    assert_eq!(session.cache_stats().entries, 1);
}

/// A memoized context does not change what a call promises: a token that
/// already fired still comes back `Cancelled`, a time budget is moot (the
/// memoized answer is complete), and per-call constraints are a context
/// of their own.
#[test]
fn a_memo_hit_keeps_the_call_contract() {
    let arch = presets::conventional();
    let w = conv("c", 32, 16, 14, 3);
    let session = Scheduler::new(SunstoneConfig::default());
    let free = session.schedule(&w, &arch).expect("schedules");

    let token = CancelToken::new();
    token.cancel();
    let err = session.schedule_with(&w, &arch, &ScheduleOptions::new().cancel(token));
    assert!(matches!(err, Err(ScheduleError::Cancelled)), "a fired token wins over the memo");
    assert_eq!(session.cache_stats().hits, 0);

    let zero = ScheduleOptions::new().time_budget(Duration::ZERO);
    let hit = session.schedule_with(&w, &arch, &zero).expect("answered from the memo");
    assert!(hit.is_complete(), "the memoized answer is the complete search's");
    assert_eq!(witness(&hit.results()[0]), remembered(&witness(&free)));
    assert_eq!(session.cache_stats().hits, 1);

    let ws = DataflowTemplate::WeightStationaryCK.constraints(&arch);
    let opts = ScheduleOptions::new().constraints(ws);
    let searches = session.cache_stats().misses;
    let constrained = session.schedule_with(&w, &arch, &opts).expect("schedules");
    assert_eq!(session.cache_stats().misses, searches + 1, "constraints key separately");
    assert_eq!(session.cache_stats().entries, 2);
    let reference = Scheduler::new(SunstoneConfig::default())
        .schedule_with(&w, &arch, &opts)
        .expect("schedules");
    assert_eq!(witness(&constrained.results()[0]), witness(&reference.results()[0]));
    let again = session.schedule(&w, &arch).expect("the free context is still memoized");
    assert_eq!(witness(&again), remembered(&witness(&free)));
}

#[test]
fn bounded_memo_evicts_the_oldest_context_and_keeps_results_identical() {
    let arch = presets::conventional();
    let layers = [conv("a", 32, 16, 14, 3), conv("b", 64, 32, 7, 3), conv("c", 16, 16, 7, 3)];
    let fresh: Vec<_> = layers
        .iter()
        .map(|w| {
            let r = Scheduler::new(SunstoneConfig::default()).schedule(w, &arch);
            witness(&r.expect("schedules"))
        })
        .collect();

    // A bound of two contexts: the third evicts the first, in insertion
    // order — hitting `a` in between does not save it (no recency clock).
    let capped =
        Scheduler::new(SunstoneConfig { max_cache_entries: 2, ..SunstoneConfig::default() });
    let fp = |i: usize| capped.context_fingerprint(&layers[i], &arch);
    let call = |i: usize| witness(&capped.schedule(&layers[i], &arch).expect("schedules"));
    assert_eq!(call(0), fresh[0]);
    assert_eq!(call(1), fresh[1]);
    assert_eq!(call(0), remembered(&fresh[0]));
    assert_eq!((capped.cache_stats().entries, capped.cache_stats().hits), (2, 1));
    assert_eq!(call(2), fresh[2]);
    assert_eq!(capped.cache_stats().entries, 2, "the bound holds");
    assert!(capped.memoized(fp(0)).is_none(), "the oldest context went");
    assert!(capped.memoized(fp(1)).is_some() && capped.memoized(fp(2)).is_some());

    // The evicted shape is simply searched again — same answer, same work
    // — and evicts the next-oldest in turn.
    let searches = capped.cache_stats().misses;
    assert_eq!(call(0), fresh[0], "the bound never changes results");
    assert_eq!(capped.cache_stats().misses, searches + 1);
    assert!(capped.memoized(fp(1)).is_none() && capped.memoized(fp(0)).is_some());

    // An ample bound retains every context.
    let roomy = Scheduler::new(SunstoneConfig::default());
    for w in &layers {
        roomy.schedule(w, &arch).expect("schedules");
    }
    assert_eq!(roomy.cache_stats().entries, 3);
}

/// Eight threads on clones of one session whose bound is below the number
/// of contexts in play, each walking the same mixed layer list from a
/// different offset: hits, searches, inserts and evictions interleave
/// freely, and nothing of that may show beyond the model columns a hit
/// strikes out — every result is a fresh session's, and the bound holds
/// whenever it is read.
#[test]
fn concurrent_searches_under_a_tight_bound_match_fresh_sessions() {
    const THREADS: usize = 8;
    const ROUNDS: usize = 6;
    const BOUND: usize = 2;
    let arch = presets::conventional();
    let layers = [
        conv("a0", 16, 8, 7, 3),
        conv("a1", 8, 16, 7, 1),
        conv("b0", 16, 16, 4, 3),
        conv("b1", 24, 8, 6, 1),
        conv("c0", 8, 8, 14, 3),
    ];
    let config = SunstoneConfig { threads: 1, ..SunstoneConfig::default() };
    let fresh: Vec<_> = layers
        .iter()
        .map(|w| witness(&Scheduler::new(config.clone()).schedule(w, &arch).expect("schedules")))
        .collect();
    let fresh_hit: Vec<_> = fresh.iter().map(remembered).collect();
    let session = Scheduler::new(SunstoneConfig { max_cache_entries: BOUND, ..config });

    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let (session, arch, layers) = (session.clone(), &arch, &layers);
            let (fresh, fresh_hit) = (&fresh, &fresh_hit);
            scope.spawn(move || {
                for step in 0..ROUNDS * layers.len() {
                    let i = (t + step) % layers.len();
                    // Odd threads ask for the top three: a context's entry
                    // is replaced by wider and narrower lists as they race.
                    let k = 1 + 2 * (t % 2);
                    let r = top_k(&session, &layers[i], arch, k).expect("schedules");
                    // Searched or remembered, whichever the race made it.
                    let got = witness(&r[0]);
                    assert!(
                        got == fresh[i] || got == fresh_hit[i],
                        "{} on thread {t}: {got:?}",
                        layers[i].name()
                    );
                    let entries = session.cache_stats().entries;
                    assert!(entries <= BOUND, "{entries} contexts memoized");
                }
            });
        }
    });
    let stats = session.cache_stats();
    assert_eq!(stats.hits + stats.misses, (THREADS * ROUNDS * layers.len()) as u64);
    assert_eq!(stats.entries, BOUND);
    session.clear_cache();
    assert_eq!(session.cache_stats().entries, 0);
}

/// `prime_mapping` vouches for a mapping from outside: validated and
/// priced under the current model, it becomes the context's memoized
/// answer — marked as primed, with no search statistics — and an invalid
/// mapping is refused and files nothing.
#[test]
fn a_primed_mapping_is_the_contexts_memoized_answer() {
    let arch = presets::conventional();
    let w = conv("primed", 32, 16, 14, 3);
    let config = SunstoneConfig { threads: 1, ..SunstoneConfig::default() };
    let cold = Scheduler::new(config.clone()).schedule(&w, &arch).expect("schedules");

    let session = Scheduler::new(config);
    let report = session.prime_mapping(&w, &arch, &cold.mapping).expect("primes");
    assert_eq!(report, cold.report, "re-priced under the current model");
    assert_eq!(session.cache_stats().entries, 1);
    let entry = session.memoized(session.context_fingerprint(&w, &arch)).expect("memoized");
    assert!(entry.primed);
    assert_eq!(entry.mapping_fp, sunstone::fingerprint::mapping_fingerprint(&cold.mapping));

    let served = session.schedule(&w, &arch).expect("answered from the memo");
    assert_eq!(served.mapping, cold.mapping);
    assert_eq!(served.report, cold.report);
    assert_eq!(served.stats, SearchStats::default(), "no search produced it");
    assert_eq!(session.cache_stats().misses, 0);

    // One primed mapping cannot answer for three: the wider call searches,
    // and its own list replaces the primed entry.
    let top = top_k(&session, &w, &arch, 3).expect("schedules");
    assert_eq!(witness(&top[0]), witness(&cold));
    assert!(!session.memoized(session.context_fingerprint(&w, &arch)).expect("memoized").primed);

    // Priming a context the session searched itself displaces nothing.
    session.prime_mapping(&w, &arch, &cold.mapping).expect("primes");
    let entry = session.memoized(session.context_fingerprint(&w, &arch)).expect("memoized");
    assert!(!entry.primed && entry.finalists.len() == top.len(), "the searched list stays");

    // A mapping of another shape does not validate here.
    let other = conv("other", 64, 32, 7, 3);
    let foreign = Scheduler::new(SunstoneConfig::default()).schedule(&other, &arch);
    let fresh = Scheduler::new(SunstoneConfig::default());
    let err = fresh.prime_mapping(&w, &arch, &foreign.expect("schedules").mapping);
    assert!(matches!(err, Err(ScheduleError::InvalidMapping { .. })), "{err:?}");
    assert_eq!(fresh.cache_stats().entries, 0, "a refused mapping files nothing");
}

/// `prime_mapping` holds a mapping to the session's constraints as a memo
/// hit is held: the free optimum of a session that may unroll only `P`
/// is refused and files nothing, so the memo never serves it.
#[test]
fn a_primed_mapping_that_violates_the_sessions_constraints_is_refused() {
    let arch = presets::conventional();
    let mut b = Workload::builder("batched");
    let n = b.dim("N", 4);
    let k = b.dim("K", 64);
    let c = b.dim("C", 64);
    let p = b.dim("P", 14);
    let q = b.dim("Q", 14);
    let r = b.dim("R", 3);
    let s = b.dim("S", 3);
    b.input("ifmap", [n.expr(), c.expr(), p.expr() + r.expr(), q.expr() + s.expr()]);
    b.input("weight", [k.expr(), c.expr(), r.expr(), s.expr()]);
    b.output("ofmap", [n.expr(), k.expr(), p.expr(), q.expr()]);
    let w = b.build().expect("valid conv workload");
    let free = Scheduler::new(SunstoneConfig::default()).schedule(&w, &arch).expect("schedules");
    let grid = arch.levels().iter().position(|l| l.name() == "pe_grid").expect("a pe_grid");
    let unrolled = free.mapping.level(grid).factors();
    assert!(
        unrolled.iter().enumerate().any(|(d, &f)| f > 1 && d != p.index()),
        "the free optimum unrolls more than P: {unrolled:?}"
    );

    let constraints = MappingConstraints::new().allow_unroll("pe_grid", [DimRef::named("P")]);
    let session = Scheduler::new(SunstoneConfig { constraints, ..SunstoneConfig::default() });
    let err = session.prime_mapping(&w, &arch, &free.mapping);
    assert!(matches!(err, Err(ScheduleError::InvalidMapping { .. })), "{err:?}");
    assert!(session.memoized(session.context_fingerprint(&w, &arch)).is_none());
    assert_eq!(session.cache_stats().entries, 0, "a refused mapping files nothing");
}

#[test]
fn cloned_sessions_share_one_cache() {
    let arch = presets::conventional();
    let w = conv("c", 32, 16, 14, 3);
    let session = Scheduler::new(SunstoneConfig::default());
    let clone = session.clone();

    session.schedule(&w, &arch).expect("schedules");
    let hits_before = clone.cache_stats().hits;
    clone.schedule(&w, &arch).expect("schedules");
    assert!(clone.cache_stats().hits > hits_before, "clones share the session's memo");
    assert_eq!(session.cache_stats(), clone.cache_stats());
}

#[test]
fn progress_sink_sees_batch_layer_events() {
    let arch = presets::conventional();
    let net = repeated_network();

    let finished = Arc::new(AtomicU64::new(0));
    let sink: Arc<dyn ProgressSink> = Arc::new({
        let finished = Arc::clone(&finished);
        move |e: &ProgressEvent| {
            if matches!(e, ProgressEvent::LayerFinished { .. }) {
                finished.fetch_add(1, Ordering::Relaxed);
            }
        }
    });
    let opts = ScheduleOptions::new().progress(sink);
    let batch = Scheduler::new(SunstoneConfig::default())
        .schedule_batch_outcomes(&net, &arch, &opts)
        .expect("batch schedules");
    assert_eq!(
        finished.load(Ordering::Relaxed),
        batch.stats.unique_shapes as u64,
        "one LayerFinished event per unique shape"
    );
}

/// A 1-D conv with selectable element width: on the tiny-L1 architecture
/// below, 8-bit layers fit (three 1-element tiles = 3 bytes) while
/// 16-bit layers cannot (6 bytes > the 4-byte L1), giving a deterministic
/// per-layer infeasibility inside an otherwise healthy batch.
fn conv1d_bits(name: &str, bits: u32) -> Workload {
    let mut b = Workload::builder(name);
    let k = b.dim("K", 4);
    let c = b.dim("C", 4);
    let p = b.dim("P", 8);
    let r = b.dim("R", 3);
    b.input_bits("ifmap", [c.expr(), p.expr() + r.expr()], bits);
    b.input_bits("weight", [k.expr(), c.expr(), r.expr()], bits);
    b.output_bits("ofmap", [k.expr(), p.expr()], bits);
    b.build().expect("valid conv1d workload")
}

fn tiny_l1_arch() -> sunstone_arch::ArchSpec {
    sunstone_arch::ArchBuilder::new("tiny-l1")
        .unified_memory("L1", 4, 1.0, 1.0)
        .unified_memory("L2", 1 << 20, 6.0, 6.0)
        .dram(200.0)
        .build()
        .expect("valid arch")
}

#[test]
fn batch_outcomes_isolate_infeasible_layers() {
    let arch = tiny_l1_arch();
    let net = vec![
        conv1d_bits("bad", 16),
        conv1d_bits("good", 8),
        conv1d_bits("bad_again", 16), // dedups onto `bad`
    ];
    let session = Scheduler::new(SunstoneConfig::default());
    let outcome = session
        .schedule_batch_outcomes(&net, &arch, &ScheduleOptions::new())
        .expect("partial failure is an Ok outcome");

    assert!(!outcome.all_ok());
    assert!(matches!(outcome.layers[0], Err(ScheduleError::InfeasibleLevel { .. })));
    assert!(outcome.layers[1].is_ok(), "the feasible layer still gets its mappings");
    assert!(
        matches!(outcome.layers[2], Err(ScheduleError::InfeasibleLevel { .. })),
        "the error replays onto every occurrence of the deduped shape"
    );
    assert_eq!(outcome.stats.failed, 2, "failed counts occurrences, not unique shapes");
    assert_eq!(outcome.failures().count(), 2);
    assert_eq!(outcome.failures().map(|(i, _)| i).collect::<Vec<_>>(), vec![0, 2]);

    // The surviving layer is bit-identical to scheduling it alone.
    let reference = Scheduler::new(SunstoneConfig::default())
        .schedule(&net[1], &arch)
        .expect("feasible layer schedules alone");
    let good = outcome.best(1).expect("feasible layer has a mapping");
    assert_eq!(good.mapping, reference.mapping);
    assert_eq!(good.report.edp.to_bits(), reference.report.edp.to_bits());

    // The all-or-nothing wrapper surfaces the first failing layer's error.
    let err = batch(&session, &net, &arch)
        .expect_err("all-or-nothing batch fails on any infeasible layer");
    assert!(matches!(err, ScheduleError::InfeasibleLevel { .. }));
}

#[test]
fn fail_fast_skips_layers_after_the_first_failure() {
    let arch = tiny_l1_arch();
    // threads: 1 → unique shapes run inline in input order, so the
    // failing first layer deterministically precedes the second.
    let config = SunstoneConfig { threads: 1, ..SunstoneConfig::default() };
    let net = vec![conv1d_bits("bad", 16), conv1d_bits("good", 8)];

    let fail_fast = ScheduleOptions::new().fail_fast(true);
    let outcome = Scheduler::new(config.clone())
        .schedule_batch_outcomes(&net, &arch, &fail_fast)
        .expect("fail-fast partial failure is an Ok outcome");
    assert!(matches!(outcome.layers[0], Err(ScheduleError::InfeasibleLevel { .. })));
    assert!(
        matches!(outcome.layers[1], Err(ScheduleError::Cancelled)),
        "layers after the first failure are skipped as Cancelled: {:?}",
        outcome.layers[1]
    );
    assert_eq!(outcome.stats.failed, 2);

    // Without fail_fast the same batch still schedules the good layer.
    let outcome = Scheduler::new(config)
        .schedule_batch_outcomes(&net, &arch, &ScheduleOptions::new())
        .expect("default batch keeps going");
    assert!(outcome.layers[1].is_ok());
    assert_eq!(outcome.stats.failed, 1);
}

/// Every shipped preset — including the previously untested
/// `eyeriss_like` and `diannao_like` — schedules through the session API,
/// and a repeat on the same session is bit-identical to the first call.
#[test]
fn all_presets_schedule_through_the_session() {
    let archs = [
        presets::conventional(),
        presets::eyeriss_like(),
        presets::simba_like(),
        presets::diannao_like(),
    ];
    let w = conv("c", 32, 16, 14, 3);
    for arch in &archs {
        let session = Scheduler::new(SunstoneConfig::default());
        let cold =
            session.schedule(&w, arch).unwrap_or_else(|e| panic!("{} schedules: {e}", arch.name()));
        let repeat = session.schedule(&w, arch).expect("repeat schedules");
        assert_eq!(cold.mapping, repeat.mapping, "{}", arch.name());
        assert_eq!(cold.report.edp.to_bits(), repeat.report.edp.to_bits(), "{}", arch.name());
    }
}

#[test]
fn batch_top_k_returns_ranked_candidates() {
    let arch = presets::conventional();
    let net = repeated_network();
    let opts = ScheduleOptions::new().top_k(3);
    let batch = Scheduler::new(SunstoneConfig::default())
        .schedule_batch_outcomes(&net, &arch, &opts)
        .and_then(BatchOutcome::into_result)
        .expect("batch schedules");
    for layer in &batch.layers {
        assert!(!layer.is_empty() && layer.len() <= 3);
        for pair in layer.windows(2) {
            assert!(pair[0].report.edp <= pair[1].report.edp, "candidates sorted by EDP");
        }
    }
}

/// A hit is bit-identical to what it replaced. On every preset, for one
/// result and for three, a searched context answers with the search's
/// mappings, totals bits and `mapping_fp`, and with its statistics as
/// `remembered` says, timers and every level included; a primed context
/// answers with the primed mapping at the search's totals and with no
/// statistics.
#[test]
fn a_hit_is_bit_identical_to_the_search_it_replaced() {
    let w = conv("hit", 32, 16, 14, 3);
    let whole =
        |r: &ScheduleResult| -> Witness { (r.mapping.clone(), r.report.clone(), r.stats.clone()) };
    let bits = |r: &CostReport| (r.energy_pj.to_bits(), r.delay_cycles.to_bits(), r.edp.to_bits());
    let presets = [
        presets::conventional(),
        presets::eyeriss_like(),
        presets::simba_like(),
        presets::diannao_like(),
    ];
    for arch in &presets {
        for k in [1, 3] {
            let session = Scheduler::new(SunstoneConfig::default());
            let searched = top_k(&session, &w, arch, k).expect("schedules");
            let hit = top_k(&session, &w, arch, k).expect("answered from the memo");
            assert_eq!(session.cache_stats().misses, 1, "{}: the second call hit", arch.name());
            let fp = session.context_fingerprint(&w, arch);
            let entry = session.memoized(fp).expect("memoized");
            let best_fp = sunstone::fingerprint::mapping_fingerprint(&searched[0].mapping);
            assert_eq!((entry.mapping_fp, entry.primed), (best_fp, false));
            assert_eq!(entry.finalists.len(), searched.len());
            assert_eq!(hit.len(), searched.len());
            for ((s, h), f) in searched.iter().zip(&hit).zip(entry.finalists.iter()) {
                assert_eq!(whole(h), remembered(&whole(s)), "{} top {k}", arch.name());
                assert_eq!(h.stats.levels.len(), s.stats.levels.len());
                assert_eq!(bits(&h.report), bits(&s.report));
                assert_eq!(f.mapping, s.mapping);
                let filed = (f.totals.energy_pj.to_bits(), f.totals.delay_cycles.to_bits());
                assert_eq!(filed, (s.report.energy_pj.to_bits(), s.report.delay_cycles.to_bits()));
            }

            let primed = Scheduler::new(SunstoneConfig::default());
            primed.prime_mapping(&w, arch, &searched[0].mapping).expect("primes");
            let entry = primed.memoized(fp).expect("memoized");
            assert_eq!((entry.mapping_fp, entry.primed), (best_fp, true));
            let best = entry.best();
            assert_eq!(best.mapping, searched[0].mapping);
            assert_eq!(best.totals.energy_pj.to_bits(), searched[0].report.energy_pj.to_bits());
            assert_eq!(
                best.totals.delay_cycles.to_bits(),
                searched[0].report.delay_cycles.to_bits()
            );
            let served = primed.schedule(&w, arch).expect("answered from the memo");
            assert_eq!(
                (&served.mapping, bits(&served.report)),
                (&searched[0].mapping, bits(&searched[0].report))
            );
            assert_eq!(served.stats, SearchStats::default(), "no search produced it");
            assert_eq!(primed.cache_stats().misses, 0);
        }
    }
}

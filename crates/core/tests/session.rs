//! Session API contract: batch/sequential equivalence, thread-count
//! independence, cancellation, time budgets, and cross-call caching.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use sunstone::prelude::*;
use sunstone_arch::presets;
use sunstone_ir::Workload;

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

    let batch = Scheduler::new(SunstoneConfig::default())
        .schedule_batch(&net, &arch)
        .expect("batch schedules");
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

    let one = Scheduler::new(SunstoneConfig { threads: 1, ..SunstoneConfig::default() })
        .schedule_batch(&net, &arch)
        .expect("1-thread batch schedules");
    let four = Scheduler::new(SunstoneConfig { threads: 4, ..SunstoneConfig::default() })
        .schedule_batch(&net, &arch)
        .expect("4-thread batch schedules");

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

    let opts = ScheduleOptions::new().cancel(token.clone());
    let err = Scheduler::new(SunstoneConfig::default())
        .schedule_with(&w, &arch, &opts)
        .expect_err("pre-cancelled call must not produce a result");
    assert!(matches!(err, ScheduleError::Cancelled));

    // Batch calls observe the same token.
    let bopts = BatchOptions::new().cancel(token);
    let err = Scheduler::new(SunstoneConfig::default())
        .schedule_batch_with(&[w], &arch, &bopts)
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
        .expect("zero budget still yields the first-stage best");
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

/// The deadline contract on the second layer of a session (the pool and
/// cache are live, another context is resident): the deadline only
/// engages once the first claim chunk completes, so even a zero budget
/// must yield a usable, deterministic best-so-far instead of
/// `BudgetExhausted` or an empty result.
#[test]
fn zero_budget_on_second_layer_returns_deterministic_best_so_far() {
    let arch = presets::conventional();
    let a = conv("first", 32, 16, 14, 3);
    let b = conv("second", 32, 16, 7, 3);

    // Work bound: a full search of `b` on a session that already saw `a`.
    let full = Scheduler::new(SunstoneConfig::default());
    full.schedule(&a, &arch).expect("schedules");
    let before = full.cache_stats().misses;
    full.schedule(&b, &arch).expect("schedules");
    let full_misses = full.cache_stats().misses - before;

    let run = || {
        let session = Scheduler::new(SunstoneConfig::default());
        session.schedule(&a, &arch).expect("first layer completes");
        let before = session.cache_stats().misses;
        let opts = ScheduleOptions::new().time_budget(Duration::ZERO);
        let outcome = session
            .schedule_with(&b, &arch, &opts)
            .expect("zero budget on a second layer must not error");
        assert!(!outcome.is_complete(), "zero budget cannot complete the search");
        assert!(!outcome.results().is_empty(), "best-so-far carries a usable mapping");
        let spent = session.cache_stats().misses - before;
        assert!(
            spent < full_misses,
            "expired budget must stop after the first claim chunk \
             ({spent} misses vs {full_misses} for the full search)"
        );
        outcome.results()[0].mapping.clone()
    };
    // The truncation point is the first claim chunk — a fixed amount of
    // work, not a wall-clock race — so the result is reproducible.
    assert_eq!(run(), run(), "zero-budget truncation must be deterministic");
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
    let witness = |r: &ScheduleResult| {
        let s = &r.stats;
        let counts = [
            s.probed,
            s.modeled,
            s.prefix_hits,
            s.batches,
            s.batched,
            s.rounds,
            s.cache_hits,
            s.cache_misses,
        ];
        (r.mapping.clone(), r.report.edp.to_bits(), counts)
    };
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
            .schedule_batch_outcomes(&layers, &arch, &BatchOptions::default())
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
    assert!(after_first.entries > 0, "first call must populate the session cache");

    let second = session.schedule(&w, &arch).expect("second call schedules");
    let after_second = session.cache_stats();
    assert!(
        after_second.hits > after_first.hits,
        "second call on the same shape must hit the session cache \
         ({} -> {} hits)",
        after_first.hits,
        after_second.hits
    );
    assert_eq!(first.mapping, second.mapping);
    assert_eq!(first.report.edp.to_bits(), second.report.edp.to_bits());

    // A renamed copy of the same shape also hits: the workload
    // fingerprint ignores names.
    let renamed = conv("c_renamed", 32, 16, 14, 3);
    let before = session.cache_stats().hits;
    session.schedule(&renamed, &arch).expect("renamed call schedules");
    assert!(session.cache_stats().hits > before);

    // clear_cache starts over.
    session.clear_cache();
    assert_eq!(session.cache_stats().entries, 0);
    assert_eq!(session.cache_stats().hits, 0);
}

#[test]
fn bounded_cache_evicts_lru_context_and_keeps_results_identical() {
    let arch = presets::conventional();
    let a = conv("a", 32, 16, 14, 3);
    let b = conv("b", 64, 32, 7, 3);

    // Per-shape entry counts, measured on fresh unbounded sessions.
    let solo = |w: &Workload| {
        let s = Scheduler::new(SunstoneConfig::default());
        let out = s.schedule(w, &arch).expect("schedules");
        (out, s.cache_stats().entries)
    };
    let (a_ref, a_entries) = solo(&a);
    let (b_ref, b_entries) = solo(&b);
    assert!(a_entries > 1 && b_entries > 1, "both shapes populate the cache");

    // A cap of one entry cannot hold two contexts: scheduling `b` must
    // evict `a`'s whole context (LRU), but never the in-use context —
    // each search keeps its own entries, so results stay bit-identical.
    let capped =
        Scheduler::new(SunstoneConfig { max_cache_entries: 1, ..SunstoneConfig::default() });
    let a_out = capped.schedule(&a, &arch).expect("schedules");
    assert_eq!(
        capped.cache_stats().entries,
        a_entries,
        "the active context is never evicted mid-search, even over the cap"
    );
    let b_out = capped.schedule(&b, &arch).expect("schedules");
    assert_eq!(
        capped.cache_stats().entries,
        b_entries,
        "scheduling a second shape evicts the first shape's context"
    );
    assert_eq!(a_out.mapping, a_ref.mapping, "the bound never changes results");
    assert_eq!(b_out.mapping, b_ref.mapping, "the bound never changes results");
    assert_eq!(a_out.report.edp.to_bits(), a_ref.report.edp.to_bits());
    assert_eq!(b_out.report.edp.to_bits(), b_ref.report.edp.to_bits());

    // Re-scheduling the evicted shape misses the cache (it was dropped):
    // the model runs exactly as often as on a cold session, and the
    // re-populated context evicts `b` in turn.
    let again = capped.schedule(&a, &arch).expect("schedules");
    assert_eq!(again.mapping, a_ref.mapping);
    assert_eq!(capped.cache_stats().entries, a_entries, "`a` repopulated, `b` evicted");
    assert_eq!(
        again.stats.modeled, a_ref.stats.modeled,
        "the evicted context serves no cross-call reuse"
    );

    // An ample cap retains both contexts side by side.
    let roomy = Scheduler::new(SunstoneConfig {
        max_cache_entries: (a_entries + b_entries) * 2,
        ..SunstoneConfig::default()
    });
    roomy.schedule(&a, &arch).expect("schedules");
    roomy.schedule(&b, &arch).expect("schedules");
    assert_eq!(roomy.cache_stats().entries, a_entries + b_entries, "both contexts retained");
}

/// Two threads search disjoint layer sets on one session whose bound is
/// below a single context's size, so every publish that adds anything
/// evicts every other context — the other thread's live one included,
/// which then finishes on its detached table. Nothing of that may show:
/// each result and its counters are those of a fresh single-threaded
/// session, round after round, and the entry counter stays exact.
#[test]
fn concurrent_searches_under_a_tight_bound_match_fresh_sessions() {
    const ROUNDS: usize = 50;
    let arch = presets::conventional();
    let sets = [
        [conv("a0", 16, 8, 7, 3), conv("a1", 8, 16, 7, 1)],
        [conv("b0", 16, 16, 4, 3), conv("b1", 24, 8, 6, 1)],
    ];
    let config = SunstoneConfig { threads: 1, ..SunstoneConfig::default() };
    let witness = |r: &ScheduleResult| {
        (r.mapping.clone(), r.report.edp.to_bits(), r.stats.probed, r.stats.modeled)
    };
    // Per layer: the fresh-session witness and how many entries its
    // context holds.
    let fresh = sets.each_ref().map(|set| {
        set.each_ref().map(|w| {
            let s = Scheduler::new(config.clone());
            let r = s.schedule(w, &arch).expect("schedules");
            (witness(&r), s.cache_stats().entries)
        })
    });
    let sizes: Vec<usize> = fresh.iter().flatten().map(|(_, entries)| *entries).collect();
    let bound = sizes.iter().min().expect("four layers") / 2;
    assert!(bound > 0, "every context holds at least two estimates");
    let session = Scheduler::new(SunstoneConfig { max_cache_entries: bound, ..config });

    // Both threads start every round together, and meet again after it so
    // the counter can be read with no search in flight (`sizes` is
    // [a0, a1, b0, b1]).
    let round_start = std::sync::Barrier::new(2);
    let round_end = std::sync::Barrier::new(2);
    std::thread::scope(|scope| {
        for (set, fresh) in sets.iter().zip(&fresh) {
            let (session, arch) = (session.clone(), &arch);
            let (round_start, round_end, sizes) = (&round_start, &round_end, &sizes);
            scope.spawn(move || {
                for round in 0..ROUNDS {
                    round_start.wait();
                    for (w, (want, _)) in set.iter().zip(fresh) {
                        let r = session.schedule(w, arch).expect("schedules");
                        assert_eq!(&witness(&r), want, "{} in round {round}", w.name());
                        // Mid-flight on the other thread: each context is
                        // counted at most once, and nothing ever wraps.
                        let entries = session.cache_stats().entries;
                        assert!(entries <= sizes.iter().sum(), "{entries} entries counted");
                    }
                    if round_end.wait().is_leader() {
                        // At rest only each thread's last context can still
                        // be attached: its first over-bound publish evicted
                        // everything before it.
                        let entries = session.cache_stats().entries;
                        assert!(entries <= sizes[1] + sizes[3], "{entries} entries at rest");
                    }
                }
            });
        }
    });
    session.clear_cache();
    assert_eq!(session.cache_stats().entries, 0);
}

/// `prime_mapping` files a mapping under the hash of its `mapping_key`; a
/// search probes with the hash of its rows. They are the same hash: on a
/// session that only ever primed the winner, the search's first row that
/// completes to it is a hit instead of a model run.
#[test]
fn a_primed_mapping_is_a_hit_for_the_search_that_completes_to_it() {
    let arch = presets::conventional();
    let w = conv("primed", 32, 16, 14, 3);
    let config = SunstoneConfig { threads: 1, ..SunstoneConfig::default() };
    let cold = Scheduler::new(config.clone()).schedule(&w, &arch).expect("schedules");

    let session = Scheduler::new(config);
    let report = session.prime_mapping(&w, &arch, &cold.mapping).expect("primes");
    assert_eq!(report.edp.to_bits(), cold.report.edp.to_bits());
    assert_eq!(session.cache_stats().entries, 1);
    let primed = session.schedule(&w, &arch).expect("schedules");
    assert_eq!(primed.mapping, cold.mapping);
    assert_eq!(primed.report.edp.to_bits(), cold.report.edp.to_bits());
    assert_eq!(primed.stats.probed, cold.stats.probed);
    assert_eq!(primed.stats.modeled, cold.stats.modeled - 1, "the primed estimate was reused");
    assert_eq!(primed.stats.cache_hits, cold.stats.cache_hits + 1);
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
    assert!(clone.cache_stats().hits > hits_before, "clones share the session cache");
    assert_eq!(session.cache_stats().hits, clone.cache_stats().hits);
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
    let opts = BatchOptions::new().progress(sink);
    let batch = Scheduler::new(SunstoneConfig::default())
        .schedule_batch_with(&net, &arch, &opts)
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
        .schedule_batch_outcomes(&net, &arch, &BatchOptions::default())
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
    let err = session
        .schedule_batch(&net, &arch)
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

    let fail_fast = BatchOptions::new().fail_fast(true);
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
        .schedule_batch_outcomes(&net, &arch, &BatchOptions::default())
        .expect("default batch keeps going");
    assert!(outcome.layers[1].is_ok());
    assert_eq!(outcome.stats.failed, 1);
}

/// Every shipped preset — including the previously untested
/// `eyeriss_like` and `diannao_like` — schedules through the session API,
/// and a warm repeat on the same session is bit-identical to the cold run.
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
        let warm = session.schedule(&w, arch).expect("warm repeat schedules");
        assert_eq!(cold.mapping, warm.mapping, "{}", arch.name());
        assert_eq!(cold.report.edp.to_bits(), warm.report.edp.to_bits(), "{}", arch.name());
    }
}

#[test]
fn batch_top_k_returns_ranked_candidates() {
    let arch = presets::conventional();
    let net = repeated_network();
    let opts = BatchOptions::new().top_k(3);
    let batch = Scheduler::new(SunstoneConfig::default())
        .schedule_batch_with(&net, &arch, &opts)
        .expect("batch schedules");
    for layer in &batch.layers {
        assert!(!layer.is_empty() && layer.len() <= 3);
        for pair in layer.windows(2) {
            assert!(pair[0].report.edp <= pair[1].report.edp, "candidates sorted by EDP");
        }
    }
}

//! The per-layer ledger: every module measured from outside, by timing
//! calls into its public functions on the workload's own inputs.
//!
//! Three kinds of number come out of here. *Times* are medians over a
//! sample of the workload's contexts of a mean over many calls. *Counts*
//! come from one unit run at `threads = 1`, where they repeat exactly.
//! *Pool speed-ups* compare a cold pass at one thread with the same pass
//! at the benchmark's thread count.

use std::collections::HashMap;
use std::hint::black_box;
use std::io::Cursor;
use std::path::Path;
use std::time::Instant;

use sunstone::fingerprint::{mapping_fingerprint, workload_fingerprint};
use sunstone::ordering::OrderingTrie;
use sunstone::prelude::{PruneCounter, ScheduleResult, Scheduler, SearchStats};
use sunstone::tiling::enumerate_tiles;
use sunstone::unrolling::enumerate_unrollings;
use sunstone_arch::Binding;
use sunstone_ir::{DimSet, Workload};
use sunstone_mapping::{FlatNest, MappingLevel, ValidationContext};
use sunstone_model::CostModel;
use sunstone_serve::crc::crc32;
use sunstone_serve::json::{self, u64_str, Json};
use sunstone_serve::wire::{self, Request};
use sunstone_serve::{FsyncPolicy, MappingStore, StoreRecord};

use crate::expected::Tally;
use crate::inputs::{unique_positions, Context};
use crate::library::{schedule_all, Regime, TraceAt};
use crate::metrics::Metrics;
use crate::run::{config, ms, RunOpts, TraceCtx};
use crate::stats::{median, Rng};
use crate::trace::{self, Ledger, ROOT};

/// Mean nanoseconds per call of `op`: the median of five batches that
/// together fill about `budget_ms`. Results pass through `black_box`, so
/// the compiler cannot drop the measured work.
fn time_ns<T>(budget_ms: f64, mut op: impl FnMut() -> T) -> f64 {
    let t = Instant::now();
    black_box(op());
    let first = (t.elapsed().as_nanos() as f64).max(1.0);
    let per_batch = (budget_ms * 1e6 / 5.0 / first).clamp(1.0, 1e6) as usize;
    let mut batches: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..per_batch {
                black_box(op());
            }
            t.elapsed().as_nanos() as f64 / per_batch as f64
        })
        .collect();
    median(&mut batches)
}

/// The workload again, through the builder: what a client pays to state
/// its problem (`ir.build_us` adds the reuse analysis every search needs).
fn rebuild(w: &Workload) -> Workload {
    let mut b = Workload::builder(w.name());
    for d in w.dims() {
        b.dim(d.name(), d.size());
    }
    for t in w.tensors() {
        if t.is_output() {
            b.output_bits(t.name(), t.indices().iter().cloned(), t.bits());
        } else {
            b.input_bits(t.name(), t.indices().iter().cloned(), t.bits());
        }
    }
    b.build().expect("a rebuilt workload is as valid as its original")
}

/// `{"op":"schedule","arch":…,"workload":…}` — the request a client sends.
pub fn request_payload(ctx: &Context) -> String {
    Json::Obj(vec![
        ("op".into(), Json::Str("schedule".into())),
        ("arch".into(), Json::Str(ctx.arch_name.into())),
        ("workload".into(), wire::workload_to_json(&ctx.workload)),
    ])
    .to_string()
}

/// A response body of the daemon's shape, for sizing and for the replay of
/// a hit. The daemon's own constructor is private; the fields follow its
/// documented response.
fn response_body(ctx_fp: u64, result: &ScheduleResult) -> Json {
    let (mapping, report) = (&result.mapping, &result.report);
    Json::Obj(vec![
        ("ok".into(), Json::Bool(true)),
        ("source".into(), Json::Str("memo".into())),
        ("degraded".into(), Json::Bool(false)),
        ("ctx_fp".into(), u64_str(ctx_fp)),
        ("mapping_fp".into(), u64_str(mapping_fingerprint(mapping))),
        ("edp".into(), Json::Num(report.edp)),
        ("energy_pj".into(), Json::Num(report.energy_pj)),
        ("delay_cycles".into(), Json::Num(report.delay_cycles)),
        ("mapping".into(), wire::mapping_to_json(mapping)),
    ])
}

/// Capacity predicate over a resident tile at the innermost bounded
/// memory: per partition, the footprints of the tensors bound to it must
/// fit. Built from the public architecture description, the way the search
/// derives its own.
fn innermost_fits(ctx: &Context) -> impl Fn(&[u64]) -> bool + '_ {
    let level = ctx.arch.memory_levels().map(|(_, m)| m).find(|m| !m.is_unbounded());
    let plan: Vec<(u64, Vec<(usize, u64)>)> = level
        .map(|mem| {
            mem.partitions
                .iter()
                .enumerate()
                .filter_map(|(p, part)| {
                    let tensors: Vec<(usize, u64)> = ctx
                        .workload
                        .tensors()
                        .iter()
                        .enumerate()
                        .filter(|(_, t)| mem.partition_for(t).is_some_and(|id| id.0 == p))
                        .map(|(i, t)| (i, u64::from(t.bits().div_ceil(8))))
                        .collect();
                    part.capacity.bytes().map(|cap| (cap, tensors))
                })
                .collect()
        })
        .unwrap_or_default();
    move |tile: &[u64]| {
        plan.iter().all(|(cap, tensors)| {
            let needed = tensors.iter().fold(0u64, |acc, &(i, bytes)| {
                acc.saturating_add(ctx.workload.tensors()[i].footprint(tile).saturating_mul(bytes))
            });
            needed <= *cap
        })
    }
}

/// Per-context module timings, one value per metric name.
fn measure_context(
    ctx: &Context,
    result: &ScheduleResult,
    session: &Scheduler,
    budget: f64,
) -> Vec<(&'static str, f64)> {
    let (w, arch, m) = (&ctx.workload, &ctx.arch, &result.mapping);
    let us = |ns: f64| ns / 1e3;
    let ir_build = time_ns(budget, || rebuild(black_box(w)).reuse_info());
    let bind = time_ns(budget, || Binding::resolve(arch, black_box(w)));
    let binding = Binding::resolve(arch, w).expect("a scheduled context binds");
    let vctx = ValidationContext::new(w, arch, &binding);
    let validate = time_ns(budget, || vctx.validate(black_box(m)));
    let flatten = time_ns(budget, || FlatNest::of(black_box(m), w));

    // The model, four ways; the prefix boundary is the one the last
    // bottom-up stage prices against (everything below the outermost
    // memory decided), the batch width the estimate round's claim chunk.
    let model = CostModel::new(w, arch, &binding);
    let mut scratch = model.scratch();
    let scalar = time_ns(budget, || model.evaluate_unchecked_with(black_box(m), &mut scratch).edp);
    let mems: Vec<usize> = (0..m.levels().len())
        .filter(|&i| matches!(m.level(i), MappingLevel::Temporal(_)))
        .collect();
    let boundary = mems[mems.len().saturating_sub(2)];
    let prefix_build = time_ns(budget, || model.prefix_of(black_box(m), boundary));
    let prefix = model.prefix_of(m, boundary);
    let prefixed =
        time_ns(budget, || model.evaluate_prefixed_with(&prefix, black_box(m), &mut scratch).edp);
    let mut batch_scratch = model.batch_scratch();
    let mut batch_ns = |width: usize| {
        let batch = vec![m.clone(); width];
        let mut acc = 0.0f64;
        let ns = time_ns(budget, || {
            model.evaluate_prefixed_batch(
                &prefix,
                black_box(&batch),
                &mut batch_scratch,
                |_, r| {
                    acc += r.edp;
                },
            );
        });
        black_box(acc);
        ns / width as f64
    };
    let (batch16, batch1) = (batch_ns(16), batch_ns(1));
    let checked = time_ns(budget, || model.evaluate(black_box(m)));

    // The three enumerators on the whole problem: every dimension in
    // play, the full extents as quota, the innermost capacity and the
    // first fabric's size.
    let all = DimSet::first_n(w.num_dims());
    let trie = OrderingTrie::new(w);
    let ordering = time_ns(budget, || trie.candidates(black_box(all)));
    let (kept, explored) = trie.candidates(all);
    let dims = w.dim_sizes();
    let ones = vec![1u64; dims.len()];
    let fits = innermost_fits(ctx);
    let tiling = time_ns(budget, || enumerate_tiles(&ones, black_box(&dims), all, &fits, true));
    let tiles = enumerate_tiles(&ones, &dims, all, &fits, true);
    let units = arch.spatial_levels().next().map_or(1, |(_, s)| s.units);
    let floor = session.config().min_spatial_utilization;
    let unroll = || enumerate_unrollings(black_box(&dims), all, units, |_| true, floor, true);
    let unrolling = time_ns(budget, unroll);
    let unrolls = unroll();
    let share = |kept: usize, explored: usize| kept as f64 / explored.max(1) as f64;

    let ctx_fp_ns = time_ns(budget, || session.context_fingerprint(black_box(w), arch));
    let prime = time_ns(budget, || {
        session.clear_cache();
        session.prime_mapping(w, arch, black_box(m))
    });
    let mapping_fp = time_ns(budget, || mapping_fingerprint(black_box(m)));
    let workload_fp = time_ns(budget, || workload_fingerprint(black_box(w)));

    // The daemon's codecs on this context's own request and response.
    let request = request_payload(ctx);
    let body = response_body(session.context_fingerprint(w, arch), result);
    let response = body.to_string();
    let parse = time_ns(budget, || json::parse(black_box(&request)));
    let print = time_ns(budget, || black_box(&body).to_string());
    let request_parse = time_ns(budget, || Request::parse(black_box(&request)));
    let workload_encode = time_ns(budget, || wire::workload_to_json(black_box(w)));
    let mapping_encode = time_ns(budget, || wire::mapping_to_json(black_box(m)));
    let encoded = wire::mapping_to_json(m);
    let mapping_decode = time_ns(budget, || wire::mapping_from_json(black_box(&encoded)));
    let mut frame = Vec::with_capacity(request.len() + 4);
    let frame_rt = time_ns(budget, || {
        frame.clear();
        wire::write_frame(&mut frame, black_box(&request)).expect("writing to memory cannot fail");
        wire::read_frame(&mut Cursor::new(&frame))
    });
    let crc = time_ns(budget, || crc32(black_box(response.as_bytes())));
    // Bytes per nanosecond, as MB/s.
    let mb_per_s = |bytes: usize, ns: f64| bytes as f64 / ns * 1e3;

    vec![
        ("ir.build_us", us(ir_build)),
        ("arch.bind_us", us(bind)),
        ("mapping.validate_us", us(validate)),
        ("mapping.flatten_us", us(flatten)),
        ("model.scalar_evals_per_s", 1e9 / scalar),
        ("model.prefixed_evals_per_s", 1e9 / prefixed),
        ("model.batch16_evals_per_s", 1e9 / batch16),
        ("model.batch1_evals_per_s", 1e9 / batch1),
        ("model.prefix_build_us", us(prefix_build)),
        ("model.checked_eval_us", us(checked)),
        ("ordering.candidates_us", us(ordering)),
        ("ordering.kept_share", share(kept.len(), explored)),
        ("tiling.enumerate_us", us(tiling)),
        ("tiling.kept_share", share(tiles.tiles.len(), tiles.explored)),
        ("unrolling.enumerate_us", us(unrolling)),
        ("unrolling.kept_share", share(unrolls.unrollings.len(), unrolls.explored)),
        ("session.ctx_fp_us", us(ctx_fp_ns)),
        ("session.prime_mapping_us", us(prime)),
        ("fingerprint.mapping_fp_ns", mapping_fp),
        ("fingerprint.workload_fp_ns", workload_fp),
        ("json.parse_mb_per_s", mb_per_s(request.len(), parse)),
        ("json.print_mb_per_s", mb_per_s(response.len(), print)),
        ("wire.request_parse_us", us(request_parse)),
        ("wire.workload_encode_us", us(workload_encode)),
        ("wire.mapping_encode_us", us(mapping_encode)),
        ("wire.mapping_decode_us", us(mapping_decode)),
        ("wire.frame_rt_us", us(frame_rt)),
        ("wire.request_bytes", request.len() as f64),
        ("wire.response_bytes", response.len() as f64),
        ("crc.mb_per_s", mb_per_s(response.len(), crc)),
    ]
}

/// The `store.*` rows: a store of `records` records built from the sample
/// contexts' own requests and mappings under `dir`, then reopened and
/// compacted.
fn measure_store(
    dir: &Path,
    samples: &[(Context, ScheduleResult)],
    records: usize,
    m: &mut Metrics,
) -> std::io::Result<()> {
    let record = |i: usize| {
        let (ctx, r) = &samples[i % samples.len()];
        StoreRecord {
            ctx_fp: i as u64,
            mapping_fp: mapping_fingerprint(&r.mapping),
            arch: ctx.arch_name.to_string(),
            edp: r.report.edp,
            energy_pj: r.report.energy_pj,
            delay_cycles: r.report.delay_cycles,
            workload: wire::workload_to_json(&ctx.workload),
            mapping: wire::mapping_to_json(&r.mapping),
        }
    };
    let _ = std::fs::remove_dir_all(dir);
    let plain = dir.join("plain");
    let mut store = MappingStore::open_with(&plain, 4, FsyncPolicy::Never)?;
    let batch: Vec<StoreRecord> = (0..records).map(record).collect();
    let t = Instant::now();
    for rec in batch {
        store.append(rec)?;
    }
    m.set_n("store.append_us", t.elapsed().as_secs_f64() * 1e6 / records as f64, records);
    drop(store);
    let bytes: u64 = std::fs::read_dir(&plain)?
        .filter_map(Result::ok)
        .filter_map(|e| e.metadata().ok())
        .map(|meta| meta.len())
        .sum();
    m.set("store.bytes_per_record", bytes as f64 / records as f64);
    let t = Instant::now();
    let mut store = MappingStore::open_with(&plain, 4, FsyncPolicy::Never)?;
    m.set_n("store.open_ms", ms(t.elapsed()), records);
    let t = Instant::now();
    store.compact()?;
    m.set_n("store.compact_ms", ms(t.elapsed()), records);
    drop(store);

    // Disk-dependent, so never part of an end-to-end number.
    let synced = (records / 20).clamp(4, 32);
    let mut store = MappingStore::open_with(dir.join("fsync"), 4, FsyncPolicy::PerRecord)?;
    let mut each: Vec<f64> = Vec::with_capacity(synced);
    for i in 0..synced {
        let rec = record(i);
        let t = Instant::now();
        store.append(rec)?;
        each.push(t.elapsed().as_secs_f64() * 1e6);
    }
    m.set_n("store.append_fsync_us", median(&mut each), synced);
    drop(store);
    std::fs::remove_dir_all(dir)
}

/// The unit at `threads = 1` with the stage sink attached: sets the
/// `search.*` counts and stage times and the session's seed counts, and
/// returns one result per context key for the module timings to use.
fn count_unit(
    contexts: &[&Context],
    regime: Regime,
    warmed: bool,
    m: &mut Metrics,
) -> Result<HashMap<String, ScheduleResult>, String> {
    let config = config(1);
    // A batch emits no level events, so its searches run as the single
    // calls the batch makes of them at one thread: same order, one session.
    let regime = if regime == Regime::Batch { Regime::Shared } else { regime };
    let session = (regime == Regime::Shared).then(|| Scheduler::new(config.clone()));
    if warmed {
        schedule_all(&config, contexts, regime, session.as_ref(), None);
    }
    let ctx = TraceCtx::new();
    let root = ctx.tracer.open(ROOT, 0, "harness.unit");
    let pass = schedule_all(
        &config,
        contexts,
        regime,
        session.as_ref(),
        Some(TraceAt { ctx: &ctx, parent: root, unit: 0 }),
    );
    ctx.tracer.close(root);

    let mut results = HashMap::new();
    let mut total = SearchStats::default();
    let (mut ordering, mut tiling, mut unrolling) =
        (PruneCounter::default(), PruneCounter::default(), PruneCounter::default());
    let mut beam_cut = 0u64;
    for (c, r) in contexts.iter().zip(pass.results) {
        let r = r.map_err(|e| format!("threads = 1 unit: {}: {e}", c.key))?;
        let s = &r.stats;
        total.probed += s.probed;
        total.modeled += s.modeled;
        total.prefix_hits += s.prefix_hits;
        total.batches += s.batches;
        total.batched += s.batched;
        total.seed_evals += s.seed_evals;
        total.rounds += s.rounds;
        total.nodes_explored += s.nodes_explored;
        total.cache_hits += s.cache_hits;
        total.cache_misses += s.cache_misses;
        ordering.merge(&s.total_of(|l| l.ordering));
        tiling.merge(&s.total_of(|l| l.tiling));
        unrolling.merge(&s.total_of(|l| l.unrolling));
        beam_cut += s.beam_cut();
        results.insert(c.key.clone(), r);
    }
    let spans = ctx.tracer.spans();
    let span_ms = |name: &str| {
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
            .sum::<f64>()
    };
    let calls_ms = span_ms("session.schedule");
    let mut stages_ms = 0.0;
    for stage in 0..4 {
        let v = span_ms(&format!("search.stage{stage}"));
        stages_ms += v;
        m.set_n(&format!("search.stage{stage}_ms"), v, contexts.len());
    }
    let ratio = |a: u64, b: u64| a as f64 / b.max(1) as f64;
    m.set_n("search.outside_stages_ms", calls_ms - stages_ms, contexts.len());
    m.set("search.us_per_probe", calls_ms * 1e3 / total.probed.max(1) as f64);
    m.set("search.probed", total.probed as f64);
    m.set("search.modeled", total.modeled as f64);
    m.set("search.cache_hit_share", ratio(total.cache_hits, total.cache_hits + total.cache_misses));
    m.set("search.prefix_hit_share", ratio(total.prefix_hits, total.modeled));
    m.set("search.batched_share", ratio(total.batched, total.modeled));
    m.set("search.avg_batch_width", ratio(total.batched, total.batches));
    m.set("search.rounds", total.rounds as f64);
    m.set("search.nodes_explored", total.nodes_explored as f64);
    m.set("search.beam_cut", beam_cut as f64);
    m.set("search.ordering_pruned_share", ordering.pruned_fraction());
    m.set("search.tiling_pruned_share", tiling.pruned_fraction());
    m.set("search.unrolling_pruned_share", unrolling.pruned_fraction());
    m.set("session.cache_entries", pass.session.cache_entries as f64);
    m.set("session.seed_probes", pass.session.seed_probes as f64);
    m.set("session.seed_hits", pass.session.seed_hits as f64);
    m.set("session.seed_evals", total.seed_evals as f64);
    Ok(results)
}

/// `pool.*`: the same cold pass at one thread and at the benchmark's
/// count, as one batch and as single calls. The batch at one thread also
/// yields the dedup counts, which no thread count changes.
fn pool_speedups(contexts: &[&Context], opts: &RunOpts, m: &mut Metrics) {
    // The four passes run twice in turn and each keeps its faster time:
    // interference only ever adds, and a ratio of single readings would
    // swing with the machine.
    let mut best = [f64::INFINITY; 4];
    let mut dedup = (0, 0);
    for _ in 0..2 {
        let cases = [
            (1, Regime::Batch),
            (opts.threads, Regime::Batch),
            (1, Regime::Shared),
            (opts.threads, Regime::Shared),
        ];
        for (slot, (threads, regime)) in best.iter_mut().zip(cases) {
            let pass = schedule_all(&config(threads), contexts, regime, None, None);
            *slot = slot.min(pass.wall.as_secs_f64());
            if regime == Regime::Batch {
                dedup = (pass.unique_shapes, pass.dedup_hits);
            }
        }
    }
    m.set_n("pool.batch_speedup", best[0] / best[1], 2);
    m.set_n("pool.single_speedup", best[2] / best[3], 2);
    m.set("session.unique_shapes", dedup.0 as f64);
    m.set("session.dedup_hits", dedup.1 as f64);
}

/// What [`measure`] found: the per-layer rows, and the sampled contexts
/// with the mappings the module timings ran on.
pub struct Measured {
    pub metrics: Metrics,
    pub sample: Vec<(Context, ScheduleResult)>,
}

/// Everything a traced run measures besides its spans; see the module
/// docs. `contexts` is the workload's unit (repeats included), `regime`
/// how the unit schedules them, `warmed` whether the unit runs on a
/// session that has seen every context before.
pub fn measure(
    contexts: &[Context],
    regime: Regime,
    warmed: bool,
    opts: &RunOpts,
    tally: &mut Tally,
) -> Result<Measured, String> {
    let mut m = Metrics::default();
    let all: Vec<&Context> = contexts.iter().collect();
    let mut unique: Vec<&Context> =
        unique_positions(contexts).into_iter().map(|i| &contexts[i]).collect();
    let mut counted = count_unit(&unique, regime, warmed, &mut m)?;
    pool_speedups(&all, opts, &mut m);

    Rng::fork(opts.seed, 0x5A3).shuffle(&mut unique);
    unique.truncate(opts.scale.sample_contexts.max(1));
    let sample: Vec<(Context, ScheduleResult)> = unique
        .into_iter()
        .map(|c| {
            (c.clone(), counted.remove(&c.key).expect("the threads = 1 unit ran every context"))
        })
        .collect();
    let session = Scheduler::new(config(opts.threads));
    let mut by_name: Vec<(&'static str, Vec<f64>)> = Vec::new();
    for (ctx, result) in &sample {
        for (name, value) in measure_context(ctx, result, &session, opts.scale.micro_ms) {
            match by_name.iter_mut().find(|(n, _)| *n == name) {
                Some((_, values)) => values.push(value),
                None => by_name.push((name, vec![value])),
            }
        }
    }
    for (name, mut values) in by_name {
        m.set_n(name, median(&mut values), values.len());
    }
    let dir = opts.out_dir.join(format!("tmp-store-{}", std::process::id()));
    if let Err(e) = measure_store(&dir, &sample, opts.scale.store_records, &mut m) {
        tally.problem(format!("store measurements under {}: {e}", dir.display()));
    }
    Ok(Measured { metrics: m, sample })
}

/// The `trace.*` rows: the ledger, the overhead of tracing as the share by
/// which the traced units' median exceeds the untraced units' of the same
/// run (`medians` is untraced, traced), and the span count.
pub fn trace_metrics(
    m: &mut Metrics,
    ledger: &Ledger,
    medians: (f64, f64),
    traced_units: usize,
    spans: usize,
) {
    m.set_n("trace.unit_ms", ledger.unit_wall_ms, ledger.units);
    m.set("trace.harness_self_ms", ledger.self_ms_of("harness."));
    m.set("trace.session_self_ms", ledger.self_ms_of("session."));
    m.set("trace.search_self_ms", ledger.self_ms_of("search."));
    m.set("trace.server_self_ms", ledger.self_ms_of("client."));
    m.set("trace.sum_error_share", ledger.sum_error_share);
    m.set_n("trace.overhead_share", medians.1 / medians.0.max(1e-12) - 1.0, traced_units);
    m.set("trace.spans", spans as f64);
}

pub fn quality_metrics(m: &mut Metrics, tally: &Tally, threads: usize) {
    m.set_n("quality.edp_ratio_geomean", tally.edp_ratio_geomean(), tally.attempted as usize);
    m.set("quality.fp_match_share", tally.fp_match_share());
    m.set("quality.fail_share", tally.fail_share());
    m.set("harness.threads", threads as f64);
    m.set("harness.units", tally.attempted as f64);
}

/// One hit replayed through the public functions the daemon's hit path is
/// made of, on the same bytes, as spans of unit `unit` — so the trace
/// file shows the path the round-trip spans cannot.
pub fn replay_hit(
    tracer: &trace::Tracer,
    unit: u32,
    ctx: &Context,
    session: &Scheduler,
    result: &ScheduleResult,
) {
    let root = tracer.open(ROOT, unit, "harness.replay");
    let step = |name: &str| tracer.open(root, unit, name);
    let mut frame = Vec::new();
    wire::write_frame(&mut frame, &request_payload(ctx)).expect("writing to memory cannot fail");
    let id = step("wire.read_frame");
    let payload = wire::read_frame(&mut Cursor::new(&frame)).ok().flatten().unwrap_or_default();
    tracer.close(id);
    let id = step("wire.request_parse");
    let request = Request::parse(&payload);
    tracer.close(id);
    let id = step("session.ctx_fp");
    let ctx_fp = match &request {
        Ok(Request::Schedule { workload, .. }) => session.context_fingerprint(workload, &ctx.arch),
        _ => 0,
    };
    tracer.close(id);
    let id = step("wire.mapping_encode");
    let body = response_body(ctx_fp, result);
    tracer.close(id);
    let id = step("json.print");
    let text = body.to_string();
    tracer.close(id);
    let id = step("wire.write_frame");
    frame.clear();
    wire::write_frame(&mut frame, &text).expect("writing to memory cannot fail");
    tracer.close(id);
    tracer.close(root);
    black_box(frame);
}

//! The three library workloads — `net_cold`, `layer_warm`, `tensor_cold` —
//! and the one function that schedules a list of contexts under a given
//! session regime, which the per-layer measurements reuse.

use std::time::{Duration, Instant};

use sunstone::prelude::{BatchOptions, ScheduleOptions, ScheduleResult, Scheduler, SunstoneConfig};
use sunstone_ir::Workload;

use crate::expected::{Expected, Tally};
use crate::inputs::{self, Context};
use crate::layers;
use crate::metrics::{Metrics, PER_LAYER};
use crate::run::{config, end_to_end, ms, peak_rss_mb, Outcome, RunOpts, TraceCtx};
use crate::stats::{median, Rng};
use crate::trace::{self, SpanId, ROOT};

/// How a list of contexts meets the session API.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Regime {
    /// One `schedule_batch` per architecture on one session.
    Batch,
    /// One `schedule` per context on one session.
    Shared,
    /// One `schedule` per context, each on a session of its own.
    Fresh,
}

/// Session-level counts after a pass: the most cache entries any of its
/// sessions held, and the warm-start probes and hits of all of them.
#[derive(Debug, Default, Clone, Copy)]
pub struct SessionCounts {
    pub cache_entries: usize,
    pub seed_probes: u64,
    pub seed_hits: u64,
}

impl SessionCounts {
    fn absorb(&mut self, session: &Scheduler) {
        let stats = session.cache_stats();
        self.cache_entries = self.cache_entries.max(stats.entries);
        self.seed_probes += stats.seed_probes;
        self.seed_hits += stats.seed_hits;
    }
}

/// One pass over a list of contexts.
pub struct Pass {
    /// Wall time of the calls and of creating and dropping every session
    /// the pass made itself; input cloning and result sorting excluded.
    pub wall: Duration,
    /// One result per input context, in input order.
    pub results: Vec<Result<ScheduleResult, String>>,
    /// Summed over the batches of a [`Regime::Batch`] pass.
    pub unique_shapes: usize,
    pub dedup_hits: usize,
    pub session: SessionCounts,
}

/// Where the spans of a traced pass hang.
#[derive(Clone, Copy)]
pub struct TraceAt<'a> {
    pub ctx: &'a TraceCtx,
    pub parent: SpanId,
    pub unit: u32,
}

/// Schedules `contexts` in order under `regime`. `session` is the session
/// to use for `Batch` and `Shared`; with `None` the pass creates its own
/// and drops it again, both inside the timed region — a caller without a
/// session pays for both (dropping a cold network's cache is a tenth of
/// scheduling it).
pub fn schedule_all(
    config: &SunstoneConfig,
    contexts: &[&Context],
    regime: Regime,
    session: Option<&Scheduler>,
    trace: Option<TraceAt<'_>>,
) -> Pass {
    let mut schedule_options = ScheduleOptions::new();
    let mut batch_options = BatchOptions::new();
    if let Some(t) = trace {
        schedule_options = schedule_options.progress(t.ctx.progress());
        batch_options = batch_options.progress(t.ctx.progress());
    }
    // Calls `f` inside a span when traced, bare otherwise.
    fn spanned<T>(trace: Option<TraceAt<'_>>, name: &str, f: impl FnOnce() -> T) -> T {
        match trace {
            Some(t) => t.ctx.call(t.parent, t.unit, name, f),
            None => f(),
        }
    }
    let open = || spanned(trace, "session.new", || Scheduler::new(config.clone()));
    let close = |session: Scheduler, counts: &mut SessionCounts| {
        counts.absorb(&session);
        spanned(trace, "session.drop", || drop(session));
    };
    let single = |session: &Scheduler, c: &Context| {
        spanned(trace, "session.schedule", || {
            session.schedule_with(&c.workload, &c.arch, &schedule_options)
        })
        .map(|outcome| outcome.into_best().0)
        .map_err(|e| e.to_string())
    };
    let mut counts = SessionCounts::default();
    let (mut unique_shapes, mut dedup_hits) = (contexts.len(), 0);
    let mut results: Vec<Option<Result<ScheduleResult, String>>> =
        contexts.iter().map(|_| None).collect();
    let wall;
    match regime {
        Regime::Batch => {
            // One group per architecture, order kept within each.
            let mut groups: Vec<(Vec<usize>, Vec<Workload>)> = Vec::new();
            for (i, c) in contexts.iter().enumerate() {
                let at =
                    groups.iter().position(|(pos, _)| contexts[pos[0]].arch_name == c.arch_name);
                let at = at.unwrap_or_else(|| {
                    groups.push((Vec::new(), Vec::new()));
                    groups.len() - 1
                });
                groups[at].0.push(i);
                groups[at].1.push(c.workload.clone());
            }
            let start = Instant::now();
            let owned = session.is_none().then(open);
            let shared = session.or(owned.as_ref()).expect("a session was given or just created");
            let outcomes: Vec<_> = groups
                .iter()
                .map(|(positions, workloads)| {
                    let arch = &contexts[positions[0]].arch;
                    spanned(trace, "session.schedule_batch", || {
                        shared.schedule_batch_outcomes(workloads, arch, &batch_options)
                    })
                })
                .collect();
            match owned {
                Some(owned) => close(owned, &mut counts),
                None => counts.absorb(shared),
            }
            wall = start.elapsed();
            (unique_shapes, dedup_hits) = (0, 0);
            for ((positions, _), outcome) in groups.iter().zip(outcomes) {
                match outcome {
                    Ok(outcome) => {
                        unique_shapes += outcome.stats.unique_shapes;
                        dedup_hits += outcome.stats.dedup_hits;
                        for (&i, layer) in positions.iter().zip(outcome.layers) {
                            results[i] = Some(
                                layer
                                    .map(|mut ranked| ranked.swap_remove(0))
                                    .map_err(|e| e.to_string()),
                            );
                        }
                    }
                    Err(e) => positions.iter().for_each(|&i| results[i] = Some(Err(e.to_string()))),
                }
            }
        }
        Regime::Shared => {
            let start = Instant::now();
            let owned = session.is_none().then(open);
            let shared = session.or(owned.as_ref()).expect("a session was given or just created");
            for (slot, c) in results.iter_mut().zip(contexts) {
                *slot = Some(single(shared, c));
            }
            match owned {
                Some(owned) => close(owned, &mut counts),
                None => counts.absorb(shared),
            }
            wall = start.elapsed();
        }
        Regime::Fresh => {
            let start = Instant::now();
            for (slot, c) in results.iter_mut().zip(contexts) {
                let session = open();
                *slot = Some(single(&session, c));
                close(session, &mut counts);
            }
            wall = start.elapsed();
        }
    }
    Pass {
        wall,
        results: results.into_iter().map(|r| r.expect("every context was scheduled")).collect(),
        unique_shapes,
        dedup_hits,
        session: counts,
    }
}

/// Checks every result of a pass; true when all of them pass.
fn check_pass(contexts: &[&Context], pass: &Pass, expected: &Expected, tally: &mut Tally) -> bool {
    let mut ok = true;
    for (c, result) in contexts.iter().zip(&pass.results) {
        ok &= match result {
            Ok(r) => tally.check(c, &r.mapping, r.report.edp, expected),
            Err(e) => {
                tally.problem(format!("{}: {e}", c.key));
                false
            }
        };
    }
    ok
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    NetCold,
    LayerWarm,
    TensorCold,
}

impl Kind {
    pub fn name(self) -> &'static str {
        match self {
            Kind::NetCold => "net_cold",
            Kind::LayerWarm => "layer_warm",
            Kind::TensorCold => "tensor_cold",
        }
    }

    fn contexts(self) -> Vec<Context> {
        match self {
            Kind::NetCold => inputs::net_layers(),
            Kind::LayerWarm => inputs::warm_layers(),
            Kind::TensorCold => inputs::tensor_pairs(),
        }
    }

    /// The unit: a whole network as one batch on a fresh session, a pass
    /// of single calls on the warmed session, or a pass of single calls
    /// each on a fresh session.
    fn regime(self) -> Regime {
        match self {
            Kind::NetCold => Regime::Batch,
            Kind::LayerWarm => Regime::Shared,
            Kind::TensorCold => Regime::Fresh,
        }
    }
}

/// A library workload set up and ready to time.
struct Library {
    kind: Kind,
    contexts: Vec<Context>,
    expected: Expected,
    config: SunstoneConfig,
    /// `layer_warm`'s session, every layer scheduled once; `None` for the
    /// cold workloads, whose units bring their own sessions.
    session: Option<Scheduler>,
}

impl Library {
    /// Input generation, reference load, and the cache fill `layer_warm`
    /// needs. Part of set-up time.
    fn new(kind: Kind, opts: &RunOpts) -> Result<Library, String> {
        let mut contexts = kind.contexts();
        contexts.truncate(opts.scale.max_contexts);
        let expected = Expected::load(&opts.expected_dir, kind.name())?;
        let config = config(opts.threads);
        let session = (kind == Kind::LayerWarm).then(|| {
            let session = Scheduler::new(config.clone());
            let all: Vec<&Context> = contexts.iter().collect();
            schedule_all(&config, &all, Regime::Shared, Some(&session), None);
            session
        });
        Ok(Library { kind, contexts, expected, config, session })
    }

    /// The contexts in this unit's order: every unit visits all of them,
    /// shuffled by the seed.
    fn order(&self, rng: &mut Rng) -> Vec<&Context> {
        let mut order: Vec<&Context> = self.contexts.iter().collect();
        rng.shuffle(&mut order);
        order
    }

    fn unit(&self, order: &[&Context], trace: Option<TraceAt<'_>>) -> Pass {
        schedule_all(&self.config, order, self.kind.regime(), self.session.as_ref(), trace)
    }
}

/// Unit wall times of a timed section, traced and not.
#[derive(Default)]
struct Samples {
    plain_ms: Vec<f64>,
    traced_ms: Vec<f64>,
    mappings: usize,
    wall: Duration,
}

/// Runs units until `seconds` have passed (and at least `min_units`),
/// checking every result. With a trace context every other unit is traced,
/// so both kinds see the same drift.
fn timed(
    lib: &Library,
    rng: &mut Rng,
    seconds: f64,
    min_units: usize,
    trace: Option<&TraceCtx>,
    tally: &mut Tally,
) -> Samples {
    let mut samples = Samples::default();
    let start = Instant::now();
    let mut unit = 0u32;
    while start.elapsed().as_secs_f64() < seconds || (unit as usize) < min_units {
        let order = lib.order(rng);
        let traced = trace.filter(|_| unit % 2 == 1);
        let pass = match traced {
            Some(ctx) => {
                let root = ctx.tracer.open(ROOT, unit, "harness.unit");
                let pass = lib.unit(&order, Some(TraceAt { ctx, parent: root, unit }));
                ctx.tracer.close(root);
                pass
            }
            None => lib.unit(&order, None),
        };
        samples.wall += pass.wall;
        samples.mappings += order.len();
        if traced.is_some() { &mut samples.traced_ms } else { &mut samples.plain_ms }
            .push(ms(pass.wall));
        let ok = check_pass(&order, &pass, &lib.expected, tally);
        tally.unit(ok);
        unit += 1;
    }
    samples
}

/// One set-up and how long it took: inputs, references, cache fill and one
/// untimed unit, so lazy initialisation is paid before the timed section.
fn set_up(kind: Kind, opts: &RunOpts, tally: &mut Tally) -> Result<(Library, f64), String> {
    let start = Instant::now();
    let lib = Library::new(kind, opts)?;
    let order = lib.order(&mut Rng::fork(opts.seed, 0x5E7));
    let warmup = lib.unit(&order, None);
    let seconds = start.elapsed().as_secs_f64();
    if !check_pass(&order, &warmup, &lib.expected, tally) {
        tally.problem("the warm-up unit failed its checks".into());
    }
    Ok((lib, seconds))
}

pub fn run(kind: Kind, opts: &RunOpts) -> Result<Outcome, String> {
    let mut tally = Tally::default();
    let (lib, first_setup_s) = set_up(kind, opts, &mut tally)?;
    println!(
        "{}: {} contexts per unit, threads {}, seed {}, {} s{}",
        kind.name(),
        lib.contexts.len(),
        opts.threads,
        opts.seed,
        opts.seconds,
        if opts.trace { ", traced" } else { "" }
    );

    let trace_ctx = opts.trace.then(TraceCtx::new);
    let mut rng = Rng::fork(opts.seed, 0x0DE2);
    let samples =
        timed(&lib, &mut rng, opts.seconds, opts.scale.min_units, trace_ctx.as_ref(), &mut tally);

    let (mut plain_ms, mut traced_ms) = (samples.plain_ms, samples.traced_ms);
    let metrics = if let Some(ctx) = &trace_ctx {
        let spans = ctx.tracer.spans();
        let ledger = trace::ledger(&spans);
        ledger.print();
        let path = opts.out_dir.join(format!("trace-{}.json", kind.name()));
        trace::write(&path, kind.name(), &spans, usize::MAX)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        let mut metrics = Metrics::default();
        let medians = (median(&mut plain_ms), median(&mut traced_ms));
        layers::trace_metrics(&mut metrics, &ledger, medians, traced_ms.len(), spans.len());
        let warmed = kind == Kind::LayerWarm;
        metrics.merge(
            layers::measure(&lib.contexts, kind.regime(), warmed, opts, &mut tally)?.metrics,
        );
        layers::quality_metrics(&mut metrics, &tally, opts.threads);
        metrics.print(PER_LAYER);
        metrics
    } else {
        let peak_rss = peak_rss_mb();
        // The other set-ups come after the timed section, so peak memory
        // is that of one set-up and one run, not of the repetition.
        drop(lib);
        let mut setup_s = vec![first_setup_s];
        for _ in 1..opts.scale.setup_reps {
            setup_s.push(set_up(kind, opts, &mut tally)?.1);
        }
        let unit_ms = (median(&mut plain_ms), plain_ms.len());
        end_to_end(&mut setup_s, unit_ms, samples.mappings, samples.wall.as_secs_f64(), peak_rss)
    };
    Ok(Outcome { tally, metrics })
}

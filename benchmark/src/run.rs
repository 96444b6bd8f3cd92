//! What every workload shares: the run options, the outcome of a run and
//! the traced-call helper.

use std::path::PathBuf;
use std::sync::Arc;

use sunstone::prelude::{ProgressSink, SunstoneConfig};

use crate::expected::Tally;
use crate::metrics::{Metrics, END_TO_END};
use crate::stats::median;
use crate::trace::{SpanId, StageSink, Tracer};

/// How much work the parts of a run do that are not bound by `--seconds`.
/// `--smoke` shrinks all of them; nothing else may.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Set-ups per run; `setup_s` is their median.
    pub setup_reps: usize,
    /// Fewest units a timed section accepts, however short `--seconds` is.
    pub min_units: usize,
    /// Contexts the module-level measurements sample.
    pub sample_contexts: usize,
    /// Wall time each module-level measurement may take per context.
    pub micro_ms: f64,
    /// Records in the store the `store.*` measurements build.
    pub store_records: usize,
    /// Contexts of the threads = 1 unit and the pool comparison on the
    /// daemon workloads (the library workloads use their own unit).
    pub count_contexts: usize,
    /// Contexts per unit of a library workload and popular contexts of
    /// `serve_hot`; only `--smoke` cuts units short.
    pub max_contexts: usize,
    /// Requests of the churn plan sent, on one connection, before timing:
    /// 24 searches at full size, about a second, so that set-up time is
    /// not a handful of samples.
    pub churn_warmup_steps: usize,
}

impl Scale {
    pub const FULL: Scale = Scale {
        setup_reps: 3,
        min_units: 5,
        sample_contexts: 8,
        micro_ms: 4.0,
        store_records: 600,
        count_contexts: 26,
        max_contexts: usize::MAX,
        churn_warmup_steps: 48,
    };
    pub const SMOKE: Scale = Scale {
        setup_reps: 1,
        min_units: 2,
        sample_contexts: 2,
        micro_ms: 0.5,
        store_records: 30,
        count_contexts: 3,
        max_contexts: 4,
        churn_warmup_steps: 8,
    };
}

#[derive(Debug, Clone)]
pub struct RunOpts {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// `min(nproc, 4)`: pinned, so a run does not depend on what
    /// `available_parallelism` reads inside the scheduler.
    pub threads: usize,
    pub expected_dir: PathBuf,
    pub out_dir: PathBuf,
    pub scale: Scale,
}

/// `SunstoneConfig::default()` with only the thread count pinned.
pub fn config(threads: usize) -> SunstoneConfig {
    SunstoneConfig::builder()
        .threads(threads)
        .and_then(|b| b.build())
        .expect("a positive thread count is a valid configuration")
}

/// The end-to-end rows of a run, printed. `unit_ms` is the unit's median
/// and the number of units behind it.
pub fn end_to_end(
    setup_s: &mut [f64],
    unit_ms: (f64, usize),
    mappings: usize,
    wall_s: f64,
    peak_rss_mb: f64,
) -> Metrics {
    let mut metrics = Metrics::default();
    metrics.set_n("setup_s", median(setup_s), setup_s.len());
    metrics.set_n("unit_p50_ms", unit_ms.0, unit_ms.1);
    metrics.set_n("mappings_per_s", mappings as f64 / wall_s, mappings);
    metrics.set("peak_rss_mb", peak_rss_mb);
    metrics.print(END_TO_END);
    metrics
}

/// What one run of one workload produced.
#[derive(Debug, Default)]
pub struct Outcome {
    pub tally: Tally,
    pub metrics: Metrics,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.tally.failed == 0 && self.tally.problems.is_empty() && self.tally.attempted > 0
    }
}

/// The tracer and the progress sink of a traced section.
pub struct TraceCtx {
    pub tracer: Arc<Tracer>,
    pub sink: Arc<StageSink>,
}

impl TraceCtx {
    pub fn new() -> TraceCtx {
        let tracer = Arc::new(Tracer::default());
        let sink = Arc::new(StageSink::new(Arc::clone(&tracer)));
        TraceCtx { tracer, sink }
    }

    /// Runs `call` inside a span named `name` under `parent`, with the
    /// sink pointed at that span.
    pub fn call<T>(&self, parent: SpanId, unit: u32, name: &str, call: impl FnOnce() -> T) -> T {
        let id = self.tracer.open(parent, unit, name);
        self.sink.enter_call(id, unit);
        let out = call();
        self.tracer.close(id);
        out
    }

    pub fn progress(&self) -> Arc<dyn ProgressSink> {
        Arc::clone(&self.sink) as Arc<dyn ProgressSink>
    }
}

/// `VmHWM` of this process in MB: the most resident memory it ever held.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

pub fn ms(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

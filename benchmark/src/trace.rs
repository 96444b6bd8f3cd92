//! Spans recorded by the harness around its calls into the program, kept
//! in memory and written out at exit, and the self-time arithmetic over
//! them.
//!
//! A span is `{id, parent, unit, name, start_ns, end_ns}`; the spans of
//! one unit (one network, one pass, one request) share its number. Inside
//! the scheduler the only boundaries visible from outside are the progress
//! events, so a [`StageSink`] turns those into child spans of the call
//! that emitted them.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::thread::ThreadId;
use std::time::Instant;

use sunstone::prelude::{ProgressEvent, ProgressSink};

pub type SpanId = u32;

/// No parent: the span is the root of its unit.
pub const ROOT: SpanId = 0;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: SpanId,
    pub parent: SpanId,
    pub unit: u32,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// The in-memory span log. Opening and closing take one short lock each;
/// the harness opens a handful of spans per scheduler call.
pub struct Tracer {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer { origin: Instant::now(), spans: Mutex::new(Vec::new()) }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Span>> {
        // A span vector is valid at every step, so a panicking sink cannot
        // leave it half-updated.
        self.spans.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Starts a span now; ids count from 1 in opening order.
    pub fn open(&self, parent: SpanId, unit: u32, name: &str) -> SpanId {
        let start_ns = self.now_ns();
        let mut spans = self.lock();
        let id = spans.len() as SpanId + 1;
        spans.push(Span { id, parent, unit, name: name.to_string(), start_ns, end_ns: start_ns });
        id
    }

    /// Ends span `id` now.
    pub fn close(&self, id: SpanId) {
        let end_ns = self.now_ns();
        if let Some(span) = self.lock().get_mut(id as usize - 1) {
            span.end_ns = end_ns;
        }
    }

    /// Records a span measured elsewhere (the serve clients time their
    /// round trips themselves).
    pub fn push(
        &self,
        parent: SpanId,
        unit: u32,
        name: &str,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        let at = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        let mut spans = self.lock();
        let id = spans.len() as SpanId + 1;
        spans.push(Span {
            id,
            parent,
            unit,
            name: name.to_string(),
            start_ns: at(start),
            end_ns: at(end),
        });
        id
    }

    pub fn spans(&self) -> Vec<Span> {
        self.lock().clone()
    }
}

/// Turns the scheduler's progress events into spans under the call the
/// harness is currently making on the emitting thread.
///
/// Level events arrive on the thread that called `schedule`; layer events
/// of a batch arrive on whichever pool thread took the layer, so open
/// layers are keyed by their index, open levels by thread.
pub struct StageSink {
    tracer: Arc<Tracer>,
    state: Mutex<SinkState>,
}

#[derive(Default)]
struct SinkState {
    /// The span of the call in flight and its unit.
    call: (SpanId, u32),
    levels: HashMap<(ThreadId, usize), SpanId>,
    layers: HashMap<usize, SpanId>,
}

impl StageSink {
    pub fn new(tracer: Arc<Tracer>) -> Self {
        StageSink { tracer, state: Mutex::new(SinkState::default()) }
    }

    /// Names the call span that the next events belong under.
    pub fn enter_call(&self, call: SpanId, unit: u32) {
        self.state.lock().unwrap_or_else(|e| e.into_inner()).call = (call, unit);
    }
}

impl ProgressSink for StageSink {
    fn on_event(&self, event: &ProgressEvent) {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        let (call, unit) = state.call;
        match event {
            ProgressEvent::LevelStarted { stage, .. } => {
                let id = self.tracer.open(call, unit, &format!("search.stage{stage}"));
                state.levels.insert((std::thread::current().id(), *stage), id);
            }
            ProgressEvent::LevelFinished { stage, .. } => {
                if let Some(id) = state.levels.remove(&(std::thread::current().id(), *stage)) {
                    self.tracer.close(id);
                }
            }
            ProgressEvent::LayerStarted { unique, .. } => {
                let id = self.tracer.open(call, unit, "search.layer");
                state.layers.insert(*unique, id);
            }
            ProgressEvent::LayerFinished { unique, .. } => {
                if let Some(id) = state.layers.remove(unique) {
                    self.tracer.close(id);
                }
            }
            _ => {}
        }
    }
}

/// Self time of every span of one unit, in nanoseconds, by span id.
///
/// A span's self time is its duration minus the part its children cover.
/// Children may run side by side (the layers of a batch do), so the unit's
/// wall time is walked interval by interval and each interval is credited,
/// in equal shares, to the spans that are running with no running child.
/// For nested, sequential spans that is the usual duration-minus-children;
/// in every case the self times of a unit add up to its root's wall time.
/// Children are clipped to their parent, so a child can never exceed it.
pub fn self_times(unit_spans: &[Span]) -> HashMap<SpanId, f64> {
    let by_id: HashMap<SpanId, &Span> = unit_spans.iter().map(|s| (s.id, s)).collect();
    // Clip every span to its ancestors, parents first (ids grow with
    // opening order, and a parent is opened before its children).
    let mut order: Vec<&Span> = unit_spans.iter().collect();
    order.sort_by_key(|s| s.id);
    let mut clipped: HashMap<SpanId, (u64, u64)> = HashMap::new();
    for s in &order {
        let (mut start, mut end) = (s.start_ns, s.end_ns.max(s.start_ns));
        if let Some(&(ps, pe)) = clipped.get(&s.parent) {
            start = start.clamp(ps, pe);
            end = end.clamp(ps, pe);
        }
        clipped.insert(s.id, (start, end));
    }
    let mut cuts: Vec<u64> = clipped.values().flat_map(|&(s, e)| [s, e]).collect();
    cuts.sort_unstable();
    cuts.dedup();
    let mut out: HashMap<SpanId, f64> = unit_spans.iter().map(|s| (s.id, 0.0)).collect();
    for w in cuts.windows(2) {
        let (a, b) = (w[0], w[1]);
        let running: Vec<SpanId> = order
            .iter()
            .map(|s| s.id)
            .filter(|id| clipped[id].0 <= a && clipped[id].1 >= b)
            .collect();
        let leaves: Vec<SpanId> = running
            .iter()
            .copied()
            .filter(|id| !running.iter().any(|other| by_id[other].parent == *id))
            .collect();
        for id in &leaves {
            *out.get_mut(id).expect("every span has a slot") +=
                (b - a) as f64 / leaves.len() as f64;
        }
    }
    out
}

/// The ledger of a traced run: mean self time per unit by span name, the
/// mean unit wall time, and how far the two are apart.
#[derive(Debug, Default)]
pub struct Ledger {
    pub units: usize,
    pub unit_wall_ms: f64,
    /// (span name, mean self milliseconds per unit), largest first.
    pub self_ms: Vec<(String, f64)>,
    /// |Σ self − wall| / wall over all units.
    pub sum_error_share: f64,
}

impl Ledger {
    pub fn self_ms_of(&self, prefix: &str) -> f64 {
        self.self_ms.iter().filter(|(n, _)| n.starts_with(prefix)).map(|(_, v)| v).sum()
    }

    pub fn print(&self) {
        println!(
            "  self time per unit over {} traced units (wall {:.6} ms):",
            self.units, self.unit_wall_ms
        );
        for (name, ms) in &self.self_ms {
            println!(
                "    {name:<28} {ms:>14.6} ms  {:>5.1} %",
                100.0 * ms / self.unit_wall_ms.max(1e-12)
            );
        }
        println!(
            "    sum of self times is off the unit wall by {:.3} %",
            100.0 * self.sum_error_share
        );
    }
}

/// Builds the ledger. A unit's wall time is the span of its root(s).
pub fn ledger(spans: &[Span]) -> Ledger {
    let mut by_unit: HashMap<u32, Vec<Span>> = HashMap::new();
    for s in spans {
        by_unit.entry(s.unit).or_default().push(s.clone());
    }
    let units = by_unit.len();
    if units == 0 {
        return Ledger::default();
    }
    let (mut wall_ns, mut self_ns) = (0.0f64, 0.0f64);
    let mut by_name: HashMap<&str, f64> = HashMap::new();
    for unit_spans in by_unit.values() {
        wall_ns += unit_spans
            .iter()
            .filter(|s| s.parent == ROOT)
            .map(|s| s.end_ns.saturating_sub(s.start_ns) as f64)
            .sum::<f64>();
        let selfs = self_times(unit_spans);
        for s in unit_spans {
            *by_name.entry(s.name.as_str()).or_default() += selfs[&s.id];
            self_ns += selfs[&s.id];
        }
    }
    let mut self_ms: Vec<(String, f64)> =
        by_name.into_iter().map(|(n, ns)| (n.to_string(), ns / 1e6 / units as f64)).collect();
    self_ms.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    Ledger {
        units,
        unit_wall_ms: wall_ns / 1e6 / units as f64,
        self_ms,
        sum_error_share: (self_ns - wall_ns).abs() / wall_ns.max(1.0),
    }
}

/// Writes the last `limit` spans as
/// `{"workload":…,"total_spans":…,"spans":[…]}`.
pub fn write(path: &Path, workload: &str, spans: &[Span], limit: usize) -> std::io::Result<()> {
    let written = &spans[spans.len().saturating_sub(limit)..];
    let mut out = String::with_capacity(96 * written.len() + 128);
    let _ =
        write!(out, "{{\"workload\":\"{workload}\",\"total_spans\":{},\"spans\":[", spans.len());
    for (i, s) in written.iter().enumerate() {
        let _ = write!(
            out,
            "{}\n{{\"id\":{},\"parent\":{},\"unit\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            if i > 0 { "," } else { "" },
            s.id,
            s.parent,
            s.unit,
            s.name,
            s.start_ns,
            s.end_ns
        );
    }
    out.push_str("\n]}\n");
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: SpanId, parent: SpanId, name: &str, start_ns: u64, end_ns: u64) -> Span {
        Span { id, parent, unit: 0, name: name.into(), start_ns, end_ns }
    }

    #[test]
    fn nested_sequential_spans_give_duration_minus_children() {
        let spans = [
            span(1, ROOT, "unit", 0, 100),
            span(2, 1, "call", 10, 90),
            span(3, 2, "stage0", 20, 40),
            span(4, 2, "stage1", 40, 70),
        ];
        let t = self_times(&spans);
        assert_eq!((t[&1], t[&2], t[&3], t[&4]), (20.0, 30.0, 20.0, 30.0));
        assert_eq!(t.values().sum::<f64>(), 100.0);
    }

    #[test]
    fn concurrent_children_share_the_wall_and_never_exceed_the_parent() {
        // Two layers overlap on [20, 60); one sticks out past the call.
        let spans = [
            span(1, ROOT, "unit", 0, 100),
            span(2, 1, "batch", 0, 80),
            span(3, 2, "layer", 0, 60),
            span(4, 2, "layer", 20, 95),
        ];
        let t = self_times(&spans);
        assert_eq!(t[&3], 20.0 + 20.0);
        assert_eq!(t[&4], 20.0 + 20.0, "clipped to the batch's end at 80");
        assert_eq!(t[&2], 0.0);
        assert_eq!(t[&1], 20.0);
        assert!(t[&3] + t[&4] <= 80.0, "children never exceed the parent");
        assert_eq!(t.values().sum::<f64>(), 100.0);
    }

    #[test]
    fn ledger_sums_to_the_unit_wall_within_five_percent() {
        let mut spans = Vec::new();
        for unit in 0..3u32 {
            let base = u64::from(unit) * 1000;
            let id = unit * 4;
            for (k, (parent, name, s, e)) in [
                (ROOT, "harness.unit", 0, 900),
                (id + 1, "session.schedule", 5, 400),
                (id + 2, "search.stage0", 10, 300),
                (id + 1, "session.schedule", 405, 890),
            ]
            .into_iter()
            .enumerate()
            {
                spans.push(Span {
                    id: id + k as u32 + 1,
                    parent,
                    unit,
                    name: name.into(),
                    start_ns: base + s,
                    end_ns: base + e,
                });
            }
        }
        let l = ledger(&spans);
        assert_eq!(l.units, 3);
        assert!((l.unit_wall_ms - 900.0 / 1e6).abs() < 1e-12);
        assert!(l.sum_error_share < 0.05, "{}", l.sum_error_share);
        let total: f64 = l.self_ms.iter().map(|(_, v)| v).sum();
        assert!((total - l.unit_wall_ms).abs() <= 0.05 * l.unit_wall_ms);
        assert!((l.self_ms_of("search.") - 290.0 / 1e6).abs() < 1e-12);
        assert!((l.self_ms_of("harness.") - 20.0 / 1e6).abs() < 1e-12);
    }

    #[test]
    fn sink_nests_stage_spans_under_the_current_call() {
        let tracer = Arc::new(Tracer::default());
        let sink = StageSink::new(Arc::clone(&tracer));
        let call = tracer.open(ROOT, 7, "session.schedule");
        sink.enter_call(call, 7);
        sink.on_event(&ProgressEvent::LevelStarted { stage: 0, beam: 1 });
        sink.on_event(&ProgressEvent::LevelFinished {
            stage: 0,
            candidates: 1,
            beam: 1,
            cache_hit_rate: 0.0,
            constraint_filtered: 0,
        });
        tracer.close(call);
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(
            (spans[1].parent, spans[1].unit, spans[1].name.as_str()),
            (call, 7, "search.stage0")
        );
        assert!(spans[1].start_ns >= spans[0].start_ns && spans[1].end_ns <= spans[0].end_ns);
    }
}

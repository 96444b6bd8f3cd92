//! Per-call controls: cooperative cancellation and progress reporting,
//! both carried by [`ScheduleOptions`](crate::ScheduleOptions).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// A cooperative cancellation token.
///
/// Clone the token, hand one copy to
/// [`ScheduleOptions::cancel`](crate::ScheduleOptions::cancel), and call
/// [`cancel`](CancelToken::cancel) from any thread; every checkpoint of
/// the search observes the flag, and the call returns
/// [`ScheduleError::Cancelled`](crate::ScheduleError::Cancelled). A token
/// cancelled *before* the call starts fails the call deterministically.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// Creates a fresh, uncancelled token.
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// Requests cancellation. Idempotent; visible to every clone.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Release);
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Acquire)
    }
}

/// One progress event of a scheduling call.
///
/// Level events come from the per-level walk of a single search; layer
/// events frame each unique shape of a
/// [`schedule_batch_outcomes`](crate::Scheduler::schedule_batch_outcomes) call (batch
/// workers run concurrently, so layer events may interleave).
#[derive(Debug, Clone)]
#[non_exhaustive]
pub enum ProgressEvent {
    /// A search stage (one memory level) is starting.
    LevelStarted {
        /// Stage index, innermost memory first.
        stage: usize,
        /// Beam states entering the stage.
        beam: usize,
    },
    /// A search stage finished its expand → estimate → select
    /// pipeline.
    LevelFinished {
        /// Stage index, innermost memory first.
        stage: usize,
        /// Candidates estimated at this stage.
        candidates: usize,
        /// Beam states surviving the cut.
        beam: usize,
        /// Fraction of this stage's candidates that repeated an earlier
        /// candidate's loop nest in the round and took its price.
        cache_hit_rate: f64,
        /// Candidates the user constraint filter removed at this stage
        /// (0 on unconstrained calls).
        constraint_filtered: u64,
    },
    /// A batch worker picked up one unique layer shape.
    LayerStarted {
        /// Index into the batch's *unique* shapes (not input positions).
        unique: usize,
        /// Name of the first workload with this shape.
        name: String,
    },
    /// A batch worker finished one unique layer shape.
    LayerFinished {
        /// Index into the batch's unique shapes.
        unique: usize,
        /// Mappings estimated while searching this shape.
        evaluated: u64,
        /// Wall-clock time of this shape's search.
        elapsed: Duration,
    },
    /// The panic-isolation boundary caught an internal fault; the call
    /// returns [`ScheduleError::Internal`](crate::ScheduleError::Internal)
    /// with the same fields (there is nothing to recover: what the faulting
    /// search had written was its own and unwound with it).
    Fault {
        /// The pipeline stage the fault surfaced in.
        stage: String,
        /// The workload name, for per-layer faults.
        layer: Option<String>,
        /// The caught panic message.
        message: String,
    },
}

/// Receives [`ProgressEvent`]s during a scheduling call.
///
/// Implementations must be `Send + Sync`: batch scheduling invokes the
/// sink from its worker threads. Callbacks should be cheap — they run on
/// the search's critical path.
pub trait ProgressSink: Send + Sync {
    /// Called once per event, in the emitting worker's order.
    fn on_event(&self, event: &ProgressEvent);
}

/// Convenience: closures are sinks.
impl<F: Fn(&ProgressEvent) + Send + Sync> ProgressSink for F {
    fn on_event(&self, event: &ProgressEvent) {
        self(event)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    #[test]
    fn cancel_token_is_shared_between_clones() {
        let t = CancelToken::new();
        let u = t.clone();
        assert!(!t.is_cancelled());
        u.cancel();
        assert!(t.is_cancelled());
    }

    #[test]
    fn closures_implement_progress_sink() {
        let events: Mutex<Vec<usize>> = Mutex::new(Vec::new());
        let sink = |e: &ProgressEvent| {
            if let ProgressEvent::LevelStarted { stage, .. } = e {
                events.lock().unwrap_or_else(|e| e.into_inner()).push(*stage);
            }
        };
        sink.on_event(&ProgressEvent::LevelStarted { stage: 3, beam: 1 });
        assert_eq!(*events.lock().unwrap_or_else(|e| e.into_inner()), vec![3]);
    }
}

//! Deterministic fault injection for robustness tests.
//!
//! Compiled only under the `fault-injection` cargo feature; release and
//! default test builds pay nothing (the [`faultpoint!`] macro expands to
//! an empty statement without the feature).
//!
//! The scheduler's hot path is instrumented with **named failpoints**
//! ([`POINTS`]): the start of each estimate round, every pool claim, the
//! estimate publish, and the per-parent prefix memoization. A test
//! arms a point with [`arm`] to fire a [`FaultAction`] on the Nth hit —
//! panic (exercising the panic-isolation boundary), delay (widening race
//! windows), or a
//! spurious [`CancelToken`] fire (exercising bounded-latency
//! cancellation). Arms are one-shot: after firing they disarm
//! themselves, so the recovery call of a soak test runs clean.
//!
//! The registry is a process-wide global; tests that arm failpoints must
//! serialize themselves (e.g. behind a shared `Mutex`) because cargo runs
//! tests of one binary concurrently.

use std::collections::HashMap;
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::Duration;

use crate::progress::CancelToken;

/// Every failpoint compiled into the scheduler, in hot-path order:
///
/// * `"estimate.round"` — start of [`estimate_all`], before the round
///   finds its repeats (fires once per search stage that has candidates);
/// * `"estimate.prefix"` — per miss considered by the bottom-up
///   decided-prefix memoization loop;
/// * `"pool.claim"` — per index claimed in a worker-pool round, on the
///   claiming thread (worker or submitter) *inside* the pool's panic
///   catch, so an injected panic surfaces exactly like a model panic;
/// * `"estimate.publish"` — per estimate settled in the arena's estimate
///   column at the end of an estimate round (a fault here leaves the
///   column half-settled, which must not outlive the call).
///
/// [`estimate_all`]: crate::search::estimate
pub const POINTS: &[&str] =
    &["estimate.round", "estimate.prefix", "pool.claim", "estimate.publish"];

/// Failpoints owned by the `sunstone-serve` daemon, registered here so
/// every fault-injection test shares one registry (and one typo check):
///
/// * `"serve.handler_spawn"` — first statement of a freshly spawned
///   connection-handler thread, before the first frame is read (a panic
///   here must still unregister the connection and release its
///   admission slot);
/// * `"serve.frame_read"` — top of the per-connection request loop,
///   before each frame read;
/// * `"serve.store_append"` — *mid-write* of a store record, between the
///   two halves of the line, so an injected panic produces a genuine
///   short write (a torn record) on disk;
/// * `"serve.fsync"` — immediately before the store's `sync_data` call;
/// * `"serve.compact_rename"` — between writing a compacted shard's temp
///   file and the atomic rename that commits it.
///
/// These never fire from the scheduling library itself, so they live in
/// their own list: the library soak iterates [`POINTS`] and requires
/// every entry to be hit by a `schedule` call.
pub const SERVE_POINTS: &[&str] = &[
    "serve.handler_spawn",
    "serve.frame_read",
    "serve.store_append",
    "serve.fsync",
    "serve.compact_rename",
];

/// What an armed failpoint does when it fires.
#[derive(Debug, Clone)]
pub enum FaultAction {
    /// Panic with the message `"injected fault at <point>"`.
    Panic,
    /// Sleep for the given duration, then continue normally.
    Delay(Duration),
    /// Fire the given cancellation token, then continue normally.
    Cancel(CancelToken),
}

struct Armed {
    point: &'static str,
    /// Fires when the point's hit counter (reset by [`arm`]) reaches
    /// this 1-based value.
    nth: u64,
    action: FaultAction,
}

#[derive(Default)]
struct Registry {
    armed: Vec<Armed>,
    hits: HashMap<&'static str, u64>,
}

fn registry() -> MutexGuard<'static, Registry> {
    static REGISTRY: OnceLock<Mutex<Registry>> = OnceLock::new();
    // An injected panic can unwind while a *different* thread holds this
    // lock mid-delay; recover from poisoning — the registry holds only
    // counters and arms, both valid at every await point.
    REGISTRY
        .get_or_init(|| Mutex::new(Registry::default()))
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

/// Arms `point` to fire `action` on its `nth` hit (1-based), resetting
/// the point's hit counter. One-shot: the arm disarms itself when it
/// fires. Re-arming a point replaces its previous arm.
///
/// # Panics
///
/// Panics if `point` is not one of the registered [`POINTS`] — a typo in
/// a test should fail loudly, not silently never fire.
pub fn arm(point: &'static str, nth: u64, action: FaultAction) {
    assert!(
        POINTS.contains(&point) || SERVE_POINTS.contains(&point),
        "unknown failpoint {point:?} (see faultpoint::POINTS and faultpoint::SERVE_POINTS)"
    );
    assert!(nth >= 1, "failpoints fire on a 1-based hit count");
    let mut reg = registry();
    reg.hits.insert(point, 0);
    reg.armed.retain(|a| a.point != point);
    reg.armed.push(Armed { point, nth, action });
}

/// Disarms every failpoint and clears all hit counters.
pub fn disarm_all() {
    let mut reg = registry();
    reg.armed.clear();
    reg.hits.clear();
}

/// Hits recorded at `point` since it was last armed or cleared.
pub fn hits(point: &str) -> u64 {
    registry().hits.get(point).copied().unwrap_or(0)
}

/// Records a hit at `point` and fires its armed action when the count
/// matches. Called via the `faultpoint!` macro; not meant for direct use.
#[doc(hidden)]
pub fn hit(point: &'static str) {
    let action = {
        let mut reg = registry();
        let count = reg.hits.entry(point).or_insert(0);
        *count += 1;
        let count = *count;
        match reg.armed.iter().position(|a| a.point == point && a.nth == count) {
            // Disarm before acting so a panic cannot re-fire on retry.
            Some(i) => reg.armed.swap_remove(i).action,
            None => return,
        }
    };
    match action {
        FaultAction::Panic => panic!("injected fault at {point}"),
        FaultAction::Delay(d) => std::thread::sleep(d),
        FaultAction::Cancel(token) => token.cancel(),
    }
}

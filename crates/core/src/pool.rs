//! A session-persistent worker pool for the estimate and batch fan-outs.
//!
//! The search previously spawned a fresh `std::thread::scope` per
//! estimate round — thousands of OS thread spawns per schedule call. The
//! [`WorkerPool`] keeps `threads − 1` long-lived workers alive for the
//! whole [`Scheduler`](crate::Scheduler) session; a round becomes one
//! queue push plus atomic index claiming.
//!
//! Design invariants:
//!
//! * **Caller participation** — [`WorkerPool::run`] claims indices on the
//!   submitting thread too, so a pool with zero workers degenerates to a
//!   plain sequential loop, and *nested* `run` calls (a batch-layer task
//!   driving its own estimate rounds) always make progress: every caller
//!   drives its own job to completion regardless of what the workers are
//!   busy with.
//! * **Deterministic write-back** — work items are identified by index;
//!   tasks write results into index-disjoint slots (see [`SliceWriter`]),
//!   so results are bit-identical for any thread count.
//! * **Panic safety** — a panicking task marks the job and the panic is
//!   re-raised on the submitting thread after the round drains; workers
//!   survive (the panic is caught at the claim loop).

use std::collections::VecDeque;
use std::marker::PhantomData;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// One queued fan-out: `total` indices to feed to `task`, claimed in
/// contiguous ranges of `chunk` indices at a time.
struct Job {
    /// The task closure, lifetime-erased. Soundness: `WorkerPool::run`
    /// does not return before `pending` hits zero, and after that no
    /// thread dereferences the pointer again (every claim checks the
    /// bound *before* calling the task), so the borrow outlives every
    /// call through it.
    task: *const (dyn Fn(std::ops::Range<usize>) + Sync),
    total: usize,
    /// Indices claimed per atomic grab; 1 reproduces per-index claiming.
    chunk: usize,
    /// Next index to claim (may grow past `total`; claims re-check).
    next: AtomicUsize,
    /// Indices claimed but not yet completed, plus those never claimed.
    pending: AtomicUsize,
    /// Some task panicked; the submitter re-raises after the drain.
    panicked: AtomicBool,
    /// The first caught panic's message, so the submitter's re-raise (and
    /// ultimately [`ScheduleError::Internal`](crate::ScheduleError)) can
    /// report the original fault instead of a generic pool message.
    panic_note: Mutex<Option<String>>,
    done: Mutex<()>,
    done_cv: Condvar,
}

/// Best-effort extraction of a panic payload's message (`&str` and
/// `String` payloads cover `panic!`/`assert!`/`expect`; anything else is
/// summarized).
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

// SAFETY: `task` is only called while the submitting thread keeps the
// underlying closure alive (see the field comment); the closure itself is
// `Sync`, and all other fields are atomics or sync primitives.
unsafe impl Send for Job {}
unsafe impl Sync for Job {}

impl Job {
    /// Claims and runs index ranges until the job is exhausted. Returns
    /// once no range is left to claim (other claimants may still be
    /// running).
    fn drain(&self) {
        loop {
            let start = self.next.fetch_add(self.chunk, Ordering::Relaxed);
            if start >= self.total {
                return;
            }
            let end = (start + self.chunk).min(self.total);
            // SAFETY: `start < total`, so `pending > 0` and the submitter
            // is still inside `run`, keeping the closure alive.
            let task = unsafe { &*self.task };
            // The claim failpoint fires *inside* the catch: an injected
            // panic must surface exactly like a task panic (marking the
            // job, never killing the claiming worker thread).
            let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| {
                faultpoint!("pool.claim");
                task(start..end)
            }));
            if let Err(payload) = outcome {
                self.panicked.store(true, Ordering::Relaxed);
                // Poison recovery: the note mutex holds a plain Option,
                // valid at every point, so a poisoned lock is harmless.
                let mut note = self.panic_note.lock().unwrap_or_else(|e| e.into_inner());
                if note.is_none() {
                    *note = Some(panic_message(payload.as_ref()));
                }
            }
            if self.pending.fetch_sub(end - start, Ordering::AcqRel) == end - start {
                // Lock-bridge the notification so the submitter is either
                // before its re-check (and sees zero) or parked (and woken).
                // The mutex guards no data (`()`), so poisoning — possible
                // if the submitter's re-raise unwinds while parked — is
                // recoverable by definition.
                let _g = self.done.lock().unwrap_or_else(|e| e.into_inner());
                self.done_cv.notify_all();
            }
        }
    }

    fn exhausted(&self) -> bool {
        self.next.load(Ordering::Relaxed) >= self.total
    }
}

struct Shared {
    queue: Mutex<State>,
    work_cv: Condvar,
}

struct State {
    jobs: VecDeque<Arc<Job>>,
    shutdown: bool,
}

/// A fixed-size pool of long-lived worker threads executing indexed
/// fan-outs. See the module docs for the invariants.
pub(crate) struct WorkerPool {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
    /// Fan-out rounds executed (including inline ones).
    rounds: AtomicU64,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("workers", &self.workers.len())
            .field("rounds", &self.rounds)
            .finish_non_exhaustive()
    }
}

impl WorkerPool {
    /// Creates a pool with `workers` background threads (0 is valid: every
    /// `run` then executes inline on the submitting thread).
    pub(crate) fn new(workers: usize) -> Self {
        let shared = Arc::new(Shared {
            queue: Mutex::new(State { jobs: VecDeque::new(), shutdown: false }),
            work_cv: Condvar::new(),
        });
        let handles = (0..workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("sunstone-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("failed to spawn pool worker")
            })
            .collect();
        WorkerPool { shared, workers: handles, rounds: AtomicU64::new(0) }
    }

    /// Runs `task(i)` for every `i in 0..total`, distributed over the
    /// workers and the calling thread, and returns when all are done.
    /// Panics (on the calling thread) if any task panicked.
    pub(crate) fn run(&self, total: usize, task: &(dyn Fn(usize) + Sync)) {
        self.run_chunked(total, 1, &|range: std::ops::Range<usize>| {
            for i in range {
                task(i);
            }
        });
    }

    /// Runs `task(start..end)` over every contiguous `chunk`-sized range
    /// of `0..total` (the final range may be shorter), distributed over
    /// the workers and the calling thread, and returns when all are done.
    /// Claimants grab whole ranges with one atomic op, so tasks that
    /// batch-process their range amortize both the claim and any
    /// per-dispatch setup. Panics (on the calling thread) if any task
    /// panicked.
    pub(crate) fn run_chunked(
        &self,
        total: usize,
        chunk: usize,
        task: &(dyn Fn(std::ops::Range<usize>) + Sync),
    ) {
        if total == 0 {
            return;
        }
        let chunk = chunk.max(1);
        self.rounds.fetch_add(1, Ordering::Relaxed);
        if self.workers.is_empty() {
            let mut start = 0;
            while start < total {
                let end = (start + chunk).min(total);
                // Mirror the worker claim loop's failpoint so fault tests
                // behave identically with an inline (zero-worker) pool; an
                // injected panic propagates directly on the caller.
                faultpoint!("pool.claim");
                task(start..end);
                start = end;
            }
            return;
        }
        // SAFETY: erase the borrow's lifetime; `run_chunked` keeps the
        // closure alive until `pending == 0` (see `Job::task`).
        let task: *const (dyn Fn(std::ops::Range<usize>) + Sync) = unsafe {
            std::mem::transmute::<
                &(dyn Fn(std::ops::Range<usize>) + Sync),
                &'static (dyn Fn(std::ops::Range<usize>) + Sync),
            >(task)
        };
        let job = Arc::new(Job {
            task,
            total,
            chunk,
            next: AtomicUsize::new(0),
            pending: AtomicUsize::new(total),
            panicked: AtomicBool::new(false),
            panic_note: Mutex::new(None),
            done: Mutex::new(()),
            done_cv: Condvar::new(),
        });
        {
            let mut st = lock_queue(&self.shared);
            st.jobs.push_back(Arc::clone(&job));
        }
        self.shared.work_cv.notify_all();
        job.drain();
        // Poison recovery throughout the drain protocol: the `done` mutex
        // guards no data and the queue state is a plain job list, both
        // valid at every unwind point. A panic anywhere in the session
        // (injected faults included) must degrade to a caught error on the
        // submitter, never to a poisoned-mutex abort of a later round.
        let mut g = job.done.lock().unwrap_or_else(|e| e.into_inner());
        while job.pending.load(Ordering::Acquire) > 0 {
            g = job.done_cv.wait(g).unwrap_or_else(|e| e.into_inner());
        }
        drop(g);
        {
            // Drop our queue entry eagerly so the erased pointer never
            // outlives this call in the shared state.
            let mut st = lock_queue(&self.shared);
            st.jobs.retain(|j| !Arc::ptr_eq(j, &job));
        }
        if job.panicked.load(Ordering::Relaxed) {
            let note = job
                .panic_note
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .take()
                .unwrap_or_else(|| "unknown".to_string());
            panic!("worker pool task panicked: {note}");
        }
    }

    /// Fan-out rounds executed so far.
    pub(crate) fn rounds(&self) -> u64 {
        self.rounds.load(Ordering::Relaxed)
    }

    /// Starts the round count over (the session's `clear_cache`).
    pub(crate) fn reset_rounds(&self) {
        self.rounds.store(0, Ordering::Relaxed);
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut st = lock_queue(&self.shared);
            st.shutdown = true;
        }
        self.shared.work_cv.notify_all();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

/// Locks the pool's queue state, recovering from poisoning. The state is
/// a plain job list plus a shutdown flag — valid at every unwind point —
/// and the queue must stay usable after a panic unwound through a lock
/// holder (shutdown in particular must always be deliverable, or `Drop`
/// would deadlock the workers).
fn lock_queue(shared: &Shared) -> std::sync::MutexGuard<'_, State> {
    shared.queue.lock().unwrap_or_else(|e| e.into_inner())
}

fn worker_loop(shared: &Shared) {
    loop {
        let job = {
            let mut st = lock_queue(shared);
            loop {
                if st.shutdown {
                    return;
                }
                // Pop exhausted fronts left over from completed rounds.
                while st.jobs.front().is_some_and(|j| j.exhausted()) {
                    st.jobs.pop_front();
                }
                if let Some(job) = st.jobs.front() {
                    break Arc::clone(job);
                }
                st = shared.work_cv.wait(st).unwrap_or_else(|e| e.into_inner());
            }
        };
        job.drain();
    }
}

/// Shared-slice writer for index-disjoint result write-back: each task
/// writes only its own slot, so no synchronization is needed and the
/// result layout is independent of scheduling order.
pub(crate) struct SliceWriter<'a, T> {
    ptr: *mut T,
    len: usize,
    _marker: PhantomData<&'a mut [T]>,
}

// SAFETY: tasks write disjoint indices (caller contract of `write`).
unsafe impl<T: Send> Send for SliceWriter<'_, T> {}
unsafe impl<T: Send> Sync for SliceWriter<'_, T> {}

impl<'a, T> SliceWriter<'a, T> {
    pub(crate) fn new(slice: &'a mut [T]) -> Self {
        SliceWriter { ptr: slice.as_mut_ptr(), len: slice.len(), _marker: PhantomData }
    }

    /// Writes `value` into slot `i`.
    ///
    /// # Safety
    ///
    /// Each index must be written by at most one task per round (no two
    /// concurrent writers to the same slot).
    pub(crate) unsafe fn write(&self, i: usize, value: T) {
        // True invariant (the pool only feeds indices `< len`), kept as a
        // hard assert because an out-of-bounds write would be UB — there
        // is no graceful degradation from memory corruption.
        assert!(i < self.len);
        // SAFETY: in-bounds (asserted) and index-disjoint (caller contract).
        unsafe { *self.ptr.add(i) = value };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    #[test]
    fn zero_worker_pool_runs_inline() {
        let pool = WorkerPool::new(0);
        let mut out = vec![0usize; 17];
        let w = SliceWriter::new(&mut out);
        pool.run(17, &|i| unsafe { w.write(i, i * 2) });
        assert_eq!(out, (0..17).map(|i| i * 2).collect::<Vec<_>>());
        assert_eq!(pool.rounds(), 1);
    }

    #[test]
    fn pool_covers_every_index_exactly_once() {
        let pool = WorkerPool::new(3);
        let hits: Vec<AtomicU32> = (0..1000).map(|_| AtomicU32::new(0)).collect();
        for _ in 0..50 {
            pool.run(hits.len(), &|i| {
                hits[i].fetch_add(1, Ordering::Relaxed);
            });
        }
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 50));
        assert_eq!(pool.rounds(), 50);
    }

    #[test]
    fn chunked_run_covers_every_index_in_contiguous_ranges() {
        for workers in [0, 3] {
            let pool = WorkerPool::new(workers);
            for (total, chunk) in [(1000, 32), (17, 5), (8, 64), (64, 64), (9, 1)] {
                let hits: Vec<AtomicU32> = (0..total).map(|_| AtomicU32::new(0)).collect();
                pool.run_chunked(total, chunk, &|range| {
                    assert!(range.start % chunk == 0, "ranges start on chunk boundaries");
                    assert!(range.len() <= chunk);
                    assert!(range.end == range.start + chunk || range.end == total);
                    for i in range {
                        hits[i].fetch_add(1, Ordering::Relaxed);
                    }
                });
                assert!(
                    hits.iter().all(|h| h.load(Ordering::Relaxed) == 1),
                    "workers={workers} total={total} chunk={chunk}: some index missed or doubled"
                );
            }
        }
    }

    #[test]
    fn chunked_panic_propagates_to_submitter() {
        let pool = WorkerPool::new(2);
        let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.run_chunked(64, 8, &|range| {
                if range.contains(&19) {
                    panic!("chunk exploded");
                }
            });
        }))
        .expect_err("panic propagates");
        assert!(panic_message(caught.as_ref()).contains("chunk exploded"));
        // The pool survives and keeps working.
        let n = AtomicU32::new(0);
        pool.run_chunked(8, 4, &|range| {
            n.fetch_add(range.len() as u32, Ordering::Relaxed);
        });
        assert_eq!(n.load(Ordering::Relaxed), 8);
    }

    #[test]
    fn nested_runs_complete() {
        let pool = Arc::new(WorkerPool::new(2));
        let total = AtomicU32::new(0);
        let inner_pool = Arc::clone(&pool);
        pool.run(4, &|_| {
            inner_pool.run(8, &|_| {
                total.fetch_add(1, Ordering::Relaxed);
            });
        });
        assert_eq!(total.load(Ordering::Relaxed), 32);
    }

    #[test]
    fn pool_panic_carries_original_message() {
        let pool = WorkerPool::new(2);
        let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.run(16, &|i| {
                if i == 3 {
                    panic!("model exploded");
                }
            });
        }))
        .expect_err("panic propagates");
        assert!(panic_message(caught.as_ref()).contains("model exploded"));
    }

    #[test]
    fn pool_task_panic_propagates_to_submitter() {
        let pool = WorkerPool::new(2);
        let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.run(16, &|i| {
                if i == 7 {
                    panic!("boom");
                }
            });
        }));
        assert!(caught.is_err());
        // The pool survives and keeps working.
        let n = AtomicU32::new(0);
        pool.run(8, &|_| {
            n.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(n.load(Ordering::Relaxed), 8);
    }
}

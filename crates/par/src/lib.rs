//! Dependency-free parallel runtime for the GHD search stack.
//!
//! The offline build environment forbids `rayon`/`crossbeam`, so this crate
//! provides the primitives the workspace needs, on plain `std`:
//!
//! * [`parallel_map`] — deterministic fork-join map over a slice: results
//!   come back **in input order** regardless of scheduling, so callers that
//!   reduce with order-sensitive operators (first-minimum tie-breaks) get
//!   identical answers sequentially and in parallel.
//! * [`parallel_map_contained`] / [`for_each_mut_contained`] — the
//!   *fault-contained* variants: every task runs inside
//!   [`std::panic::catch_unwind`], a panicking task is converted into a
//!   structured [`WorkerFault`] record while its worker thread survives and
//!   keeps draining the queue, and the caller receives all non-faulted
//!   results in input order. This is the foundation of the search
//!   portfolio's "one poisoned subtree does not abort the run" guarantee.
//! * [`for_each_mut`] — in-place fork-join over disjoint `&mut` items (used
//!   by SAIGA's island evolution, where every island owns its generator).
//! * [`ThreadPool`] — a small queue-of-closures pool for `'static` jobs
//!   (used by long-lived services; the fork-join helpers use scoped threads
//!   and need no pool).
//! * [`fault`] — a deterministic fault-injection hook (test/bench-only):
//!   an installed [`fault::FaultPlan`] kills the nth task (one-shot) or
//!   injects seeded delays, so integration tests can prove graceful
//!   degradation without OS-level tricks.
//!
//! Work distribution uses an atomic cursor (work stealing by chunk), so
//! uneven item costs — ubiquitous in branch-and-bound root splitting — do
//! not serialise the run.
//!
//! # Unwind-safety of containment
//!
//! The contained variants wrap tasks in `AssertUnwindSafe`. That is sound
//! for every call site in this workspace because a faulted task's partial
//! state is discarded wholesale (its result slot stays empty and its owned
//! search state is dropped during unwinding), and all *shared* state is
//! mutated exclusively through atomics (incumbent bounds, budget pools),
//! which cannot be observed in a torn intermediate state. RAII guards run
//! during the unwind, so a dying worker still returns its unspent budget
//! credits.
//!
//! # Example
//!
//! ```
//! // Square 100 numbers on all available cores; order is preserved.
//! let xs: Vec<u64> = (0..100).collect();
//! let squares = ghd_par::parallel_map(&xs, 0, |&x| x * x);
//! assert_eq!(squares[17], 17 * 17);
//!
//! // Fork-join two closures.
//! let (a, b) = ghd_par::join(|| 2 + 2, || "done");
//! assert_eq!((a, b), (4, "done"));
//!
//! // A tiny pool for fire-and-forget 'static jobs.
//! use std::sync::atomic::{AtomicUsize, Ordering};
//! use std::sync::Arc;
//! let pool = ghd_par::ThreadPool::new(2);
//! let hits = Arc::new(AtomicUsize::new(0));
//! for _ in 0..8 {
//!     let hits = Arc::clone(&hits);
//!     pool.execute(move || {
//!         hits.fetch_add(1, Ordering::Relaxed);
//!     });
//! }
//! pool.wait_idle();
//! assert_eq!(hits.load(Ordering::Relaxed), 8);
//! ```

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread;

pub mod fault;
pub mod steal;

/// Structured record of one contained task panic: which worker thread was
/// executing which task (input index) and the stringified panic payload.
///
/// Produced by [`parallel_map_contained`] / [`for_each_mut_contained`] /
/// [`run_contained`] and surfaced by the search layer through
/// `SearchStats::faults` so a production caller can tell "the run finished"
/// apart from "the run finished *despite* a dead worker".
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WorkerFault {
    /// Index of the worker thread that executed the task (or
    /// [`RETRY_WORKER`] for a caller-thread retry).
    pub worker: usize,
    /// Index of the task in the input slice.
    pub task: usize,
    /// The panic payload, stringified (`&str`/`String` payloads verbatim;
    /// anything else a placeholder).
    pub payload: String,
}

impl std::fmt::Display for WorkerFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "worker {} faulted on task {}: {}",
            self.worker, self.task, self.payload
        )
    }
}

/// Sentinel worker id used by [`run_contained`] callers retrying a faulted
/// task on the coordinating thread.
pub const RETRY_WORKER: usize = usize::MAX;

/// Stringifies a panic payload (`&str` / `String` verbatim, placeholder
/// otherwise).
fn payload_string(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Runs one task fault-contained: the [`fault`] hook fires first (so
/// injected faults never tear caller state), then `f` runs inside
/// `catch_unwind`. A panic becomes an `Err(WorkerFault)`; the caller's
/// thread survives.
pub fn run_contained<U>(
    worker: usize,
    task: usize,
    f: impl FnOnce() -> U,
) -> Result<U, WorkerFault> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        fault::fault_point(worker, task);
        f()
    }))
    .map_err(|p| WorkerFault {
        worker,
        task,
        payload: payload_string(p.as_ref()),
    })
}

/// Outcome of a fault-contained fork-join map: per-item results in input
/// order (`None` where the task faulted) plus the fault records, sorted by
/// task index so reports are deterministic regardless of scheduling.
#[derive(Debug)]
pub struct Contained<U> {
    /// One slot per input item; `None` iff that task panicked.
    pub results: Vec<Option<U>>,
    /// Fault records, sorted by task index.
    pub faults: Vec<WorkerFault>,
}

impl<U> Contained<U> {
    /// `true` iff no task faulted.
    pub fn is_clean(&self) -> bool {
        self.faults.is_empty()
    }
}

/// Number of worker threads to use: the `GHD_THREADS` environment variable
/// when set to a positive integer, otherwise `std::thread::available_parallelism`.
pub fn num_threads() -> usize {
    if let Ok(v) = std::env::var("GHD_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n >= 1 {
                return n;
            }
        }
    }
    thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// Resolves a requested thread count: `0` means [`num_threads`], and the
/// result never exceeds `work_items` (no point spawning idle workers).
#[inline]
fn effective_threads(requested: usize, work_items: usize) -> usize {
    let t = if requested == 0 { num_threads() } else { requested };
    t.clamp(1, work_items.max(1))
}

/// Fault-contained fork-join map: applies `f` to every element of `items`
/// on up to `threads` workers (`0` = auto), running each task through
/// [`run_contained`]. A panicking task leaves its result slot `None` and
/// adds a [`WorkerFault`]; the worker thread survives and keeps draining
/// the queue, so all other results arrive **in input order** as usual.
///
/// Because every task is wrapped in `catch_unwind`, no worker thread ever
/// unwinds through the scope and no result-slot mutex is ever poisoned.
pub fn parallel_map_contained<T, U, F>(items: &[T], threads: usize, f: F) -> Contained<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    let threads = effective_threads(threads, items.len());
    let n = items.len();
    if threads <= 1 || n <= 1 {
        let mut results = Vec::with_capacity(n);
        let mut faults = Vec::new();
        for (i, item) in items.iter().enumerate() {
            match run_contained(0, i, || f(item)) {
                Ok(v) => results.push(Some(v)),
                Err(fault) => {
                    results.push(None);
                    faults.push(fault);
                }
            }
        }
        return Contained { results, faults };
    }
    let mut out: Vec<Option<U>> = Vec::with_capacity(n);
    out.resize_with(n, || None);
    let slots: Vec<Mutex<&mut Option<U>>> = out.iter_mut().map(Mutex::new).collect();
    let cursor = AtomicUsize::new(0);
    let faults: Mutex<Vec<WorkerFault>> = Mutex::new(Vec::new());
    thread::scope(|scope| {
        for w in 0..threads {
            let (slots, cursor, faults, f) = (&slots, &cursor, &faults, &f);
            scope.spawn(move || loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                match run_contained(w, i, || f(&items[i])) {
                    Ok(value) => {
                        **slots[i].lock().expect("result slot poisoned") = Some(value);
                    }
                    Err(fault) => faults
                        .lock()
                        .unwrap_or_else(std::sync::PoisonError::into_inner)
                        .push(fault),
                }
            });
        }
    });
    drop(slots);
    let mut faults = faults
        .into_inner()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    faults.sort_by_key(|f| f.task);
    Contained {
        results: out,
        faults,
    }
}

/// Applies `f` to every element of `items` on up to `threads` workers
/// (`0` = auto) and returns the results **in input order**.
///
/// Scheduling is dynamic (atomic cursor), results are written to each item's
/// own slot, so the output is deterministic whenever `f` itself is — the
/// foundation of the "width-identical in parallel mode" guarantee of the
/// search portfolio.
///
/// Panics in `f` propagate to the caller (the scope joins all workers
/// first; the re-raised payload is the stringified [`WorkerFault`]). Callers
/// that need to *survive* a panicking task use [`parallel_map_contained`].
pub fn parallel_map<T, U, F>(items: &[T], threads: usize, f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    let out = parallel_map_contained(items, threads, f);
    if let Some(fault) = out.faults.first() {
        panic!("{fault}");
    }
    out.results
        .into_iter()
        .map(|v| v.expect("every index visited exactly once"))
        .collect()
}

/// Fault-contained in-place fork-join: like [`for_each_mut`] but a
/// panicking task is recorded instead of aborting the run. Returns the
/// fault records sorted by task index.
///
/// An item whose task faulted is left exactly as `f` left it before the
/// panic; injected faults from the [`fault`] hook fire *before* `f` runs,
/// so they never tear item state.
pub fn for_each_mut_contained<T, F>(items: &mut [T], threads: usize, f: F) -> Vec<WorkerFault>
where
    T: Send,
    F: Fn(usize, &mut T) + Sync,
{
    let threads = effective_threads(threads, items.len());
    let n = items.len();
    if threads <= 1 || n <= 1 {
        let mut faults = Vec::new();
        for (i, item) in items.iter_mut().enumerate() {
            if let Err(fault) = run_contained(0, i, || f(i, item)) {
                faults.push(fault);
            }
        }
        return faults;
    }
    let slots: Vec<Mutex<&mut T>> = items.iter_mut().map(Mutex::new).collect();
    let cursor = AtomicUsize::new(0);
    let faults: Mutex<Vec<WorkerFault>> = Mutex::new(Vec::new());
    thread::scope(|scope| {
        for w in 0..threads {
            let (slots, cursor, faults, f) = (&slots, &cursor, &faults, &f);
            scope.spawn(move || loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let mut guard = slots[i].lock().expect("item slot poisoned");
                if let Err(fault) = run_contained(w, i, || f(i, &mut guard)) {
                    drop(guard);
                    faults
                        .lock()
                        .unwrap_or_else(std::sync::PoisonError::into_inner)
                        .push(fault);
                }
            });
        }
    });
    let mut faults = faults
        .into_inner()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    faults.sort_by_key(|f| f.task);
    faults
}

/// Runs `f` on every element of a mutable slice in parallel (up to
/// `threads` workers; `0` = auto). Items are disjoint, so each worker gets
/// exclusive access to the items it claims via the shared cursor.
///
/// Panics in `f` propagate (stringified); use [`for_each_mut_contained`]
/// to survive them.
pub fn for_each_mut<T, F>(items: &mut [T], threads: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut T) + Sync,
{
    let faults = for_each_mut_contained(items, threads, f);
    if let Some(fault) = faults.first() {
        panic!("{fault}");
    }
}

/// Runs the two closures, potentially in parallel, and returns both results.
pub fn join<A, B, RA, RB>(a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    if num_threads() <= 1 {
        return (a(), b());
    }
    thread::scope(|scope| {
        let hb = scope.spawn(b);
        let ra = a();
        let rb = hb.join().expect("joined task panicked");
        (ra, rb)
    })
}

type Job = Box<dyn FnOnce() + Send + 'static>;

struct PoolState {
    queue: VecDeque<Job>,
    in_flight: usize,
    shutdown: bool,
}

struct PoolShared {
    state: Mutex<PoolState>,
    /// Signalled when work arrives or shutdown begins.
    work: Condvar,
    /// Signalled when the pool drains (queue empty, nothing in flight).
    idle: Condvar,
}

/// A fixed-size thread pool for `'static` jobs with a [`ThreadPool::wait_idle`]
/// barrier. Workers are joined on drop.
pub struct ThreadPool {
    shared: Arc<PoolShared>,
    workers: Vec<thread::JoinHandle<()>>,
}

impl ThreadPool {
    /// Spawns `threads` workers (`0` = auto).
    pub fn new(threads: usize) -> Self {
        let threads = if threads == 0 { num_threads() } else { threads };
        let shared = Arc::new(PoolShared {
            state: Mutex::new(PoolState {
                queue: VecDeque::new(),
                in_flight: 0,
                shutdown: false,
            }),
            work: Condvar::new(),
            idle: Condvar::new(),
        });
        let workers = (0..threads)
            .map(|i| {
                let shared = Arc::clone(&shared);
                thread::Builder::new()
                    .name(format!("ghd-par-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("failed to spawn pool worker")
            })
            .collect();
        ThreadPool { shared, workers }
    }

    /// Number of workers.
    pub fn threads(&self) -> usize {
        self.workers.len()
    }

    /// Enqueues a job.
    pub fn execute<F: FnOnce() + Send + 'static>(&self, job: F) {
        let mut st = self.shared.state.lock().expect("pool state poisoned");
        assert!(!st.shutdown, "execute after shutdown");
        st.queue.push_back(Box::new(job));
        drop(st);
        self.shared.work.notify_one();
    }

    /// Blocks until the queue is empty and no job is running.
    pub fn wait_idle(&self) {
        let mut st = self.shared.state.lock().expect("pool state poisoned");
        while !st.queue.is_empty() || st.in_flight > 0 {
            st = self.shared.idle.wait(st).expect("pool state poisoned");
        }
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        {
            let mut st = self.shared.state.lock().expect("pool state poisoned");
            st.shutdown = true;
        }
        self.shared.work.notify_all();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

fn worker_loop(shared: &PoolShared) {
    loop {
        let job = {
            let mut st = shared.state.lock().expect("pool state poisoned");
            loop {
                if let Some(job) = st.queue.pop_front() {
                    st.in_flight += 1;
                    break job;
                }
                if st.shutdown {
                    return;
                }
                st = shared.work.wait(st).expect("pool state poisoned");
            }
        };
        job();
        let mut st = shared.state.lock().expect("pool state poisoned");
        st.in_flight -= 1;
        if st.queue.is_empty() && st.in_flight == 0 {
            shared.idle.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, AtomicU64};

    #[test]
    fn parallel_map_preserves_order() {
        // serialize with fault-plan-installing tests (process-global hook)
        let _guard = fault::install(fault::FaultPlan::new());
        let xs: Vec<usize> = (0..257).collect();
        for threads in [1, 2, 3, 8] {
            let ys = parallel_map(&xs, threads, |&x| x * 3);
            assert_eq!(ys, xs.iter().map(|&x| x * 3).collect::<Vec<_>>());
        }
    }

    #[test]
    fn parallel_map_handles_empty_and_singleton() {
        // serialize with fault-plan-installing tests (process-global hook)
        let _guard = fault::install(fault::FaultPlan::new());
        let empty: Vec<u8> = Vec::new();
        assert!(parallel_map(&empty, 4, |&x| x).is_empty());
        assert_eq!(parallel_map(&[9], 4, |&x| x + 1), vec![10]);
    }

    #[test]
    fn parallel_matches_sequential_for_uneven_work() {
        // serialize with fault-plan-installing tests (process-global hook)
        let _guard = fault::install(fault::FaultPlan::new());
        let xs: Vec<u64> = (0..64).collect();
        let seq = parallel_map(&xs, 1, |&x| (0..(x % 7) * 1000).sum::<u64>() + x);
        let par = parallel_map(&xs, 4, |&x| (0..(x % 7) * 1000).sum::<u64>() + x);
        assert_eq!(seq, par);
    }

    #[test]
    fn for_each_mut_touches_every_item_once() {
        // serialize with fault-plan-installing tests (process-global hook)
        let _guard = fault::install(fault::FaultPlan::new());
        let mut xs = vec![0u32; 100];
        for_each_mut(&mut xs, 4, |i, x| *x += i as u32 + 1);
        for (i, &x) in xs.iter().enumerate() {
            assert_eq!(x, i as u32 + 1);
        }
    }

    #[test]
    fn join_returns_both() {
        let (a, b) = join(|| 1 + 1, || "two".len());
        assert_eq!((a, b), (2, 3));
    }

    #[test]
    fn pool_runs_all_jobs_and_drains() {
        let pool = ThreadPool::new(3);
        assert_eq!(pool.threads(), 3);
        let sum = Arc::new(AtomicU64::new(0));
        for i in 1..=100u64 {
            let sum = Arc::clone(&sum);
            pool.execute(move || {
                sum.fetch_add(i, Ordering::Relaxed);
            });
        }
        pool.wait_idle();
        assert_eq!(sum.load(Ordering::Relaxed), 5050);
        // pool is reusable after an idle barrier
        let sum2 = Arc::clone(&sum);
        pool.execute(move || {
            sum2.fetch_add(1, Ordering::Relaxed);
        });
        pool.wait_idle();
        assert_eq!(sum.load(Ordering::Relaxed), 5051);
    }

    #[test]
    fn contained_map_records_faults_and_keeps_other_results() {
        // serialize with fault-plan-installing tests (process-global hook)
        let _guard = fault::install(fault::FaultPlan::new());
        let xs: Vec<usize> = (0..32).collect();
        for threads in [1, 2, 4] {
            let out = parallel_map_contained(&xs, threads, |&x| {
                assert!(x != 5 && x != 20, "boom on {x}");
                x * 2
            });
            assert_eq!(out.faults.len(), 2, "threads={threads}");
            assert!(!out.is_clean());
            assert_eq!(out.faults[0].task, 5);
            assert_eq!(out.faults[1].task, 20);
            assert!(out.faults[0].payload.contains("boom on 5"));
            for (i, slot) in out.results.iter().enumerate() {
                if i == 5 || i == 20 {
                    assert!(slot.is_none());
                } else {
                    assert_eq!(*slot, Some(i * 2));
                }
            }
        }
    }

    #[test]
    fn contained_for_each_mut_survives_a_panicking_item() {
        // serialize with fault-plan-installing tests (process-global hook)
        let _guard = fault::install(fault::FaultPlan::new());
        for threads in [1, 3] {
            let mut xs = vec![0u32; 16];
            let faults = for_each_mut_contained(&mut xs, threads, |i, x| {
                assert!(i != 7, "island 7 down");
                *x = i as u32 + 1;
            });
            assert_eq!(faults.len(), 1);
            assert_eq!(faults[0].task, 7);
            for (i, &x) in xs.iter().enumerate() {
                assert_eq!(x, if i == 7 { 0 } else { i as u32 + 1 });
            }
        }
    }

    #[test]
    fn injected_kill_is_contained_and_retry_succeeds() {
        let _scope = fault::install(fault::FaultPlan::new().kill_task(3));
        let xs: Vec<u64> = (0..8).collect();
        let out = parallel_map_contained(&xs, 2, |&x| x + 100);
        assert_eq!(out.faults.len(), 1);
        assert_eq!(out.faults[0].task, 3);
        assert!(out.faults[0].payload.contains("injected fault"));
        assert!(out.results[3].is_none());
        // One-shot: retrying the faulted task on the caller thread succeeds.
        let retried = run_contained(RETRY_WORKER, 3, || xs[3] + 100);
        assert_eq!(retried, Ok(103));
    }

    #[test]
    fn injected_delays_change_nothing_but_timing() {
        let xs: Vec<u64> = (0..24).collect();
        let clean = {
            // serialize with fault-plan-installing tests (process-global hook)
            let _guard = fault::install(fault::FaultPlan::new());
            parallel_map(&xs, 4, |&x| x * x)
        };
        let _scope = fault::install(fault::FaultPlan::new().delay(42, 200));
        let delayed = parallel_map_contained(&xs, 4, |&x| x * x);
        assert!(delayed.is_clean());
        let delayed: Vec<u64> = delayed.results.into_iter().map(Option::unwrap).collect();
        assert_eq!(clean, delayed);
    }

    #[test]
    fn a_clean_scope_keeps_a_concurrent_kill_plan_out() {
        // Every task-running test here holds a scope, an empty plan for
        // clean runs. A kill plan from a concurrent test then cannot be
        // installed while such a map runs, so it can neither fire nor be
        // consumed there: it waits and fires in its own map.
        let clean = fault::install(fault::FaultPlan::new());
        let installed = AtomicBool::new(false);
        let xs: Vec<usize> = (0..64).collect();
        thread::scope(|s| {
            let killer = s.spawn(|| {
                let scope = fault::install(fault::FaultPlan::new().kill_task(0));
                installed.store(true, Ordering::SeqCst);
                let out = parallel_map_contained(&xs, 2, |&x| x);
                (scope.fired(), out.faults.len())
            });
            for _ in 0..20 {
                let out = parallel_map_contained(&xs, 4, |&x| x);
                assert!(out.is_clean(), "a concurrent kill fired in a scoped map");
                assert!(!installed.load(Ordering::SeqCst), "plan installed over a held scope");
            }
            drop(clean);
            assert_eq!(killer.join().expect("killer thread"), (1, 1), "the kill waits for its own map");
        });
    }

    #[test]
    fn uncontained_map_still_propagates_panics() {
        // serialize with fault-plan-installing tests (process-global hook)
        let _guard = fault::install(fault::FaultPlan::new());
        let err = std::panic::catch_unwind(|| {
            parallel_map(&[1u8, 2, 3], 2, |&x| {
                assert!(x != 2, "no twos");
                x
            })
        });
        assert!(err.is_err());
    }

    #[test]
    fn threads_env_override_is_respected() {
        // effective_threads never exceeds the work size and never hits 0
        assert_eq!(effective_threads(8, 3), 3);
        assert_eq!(effective_threads(2, 100), 2);
        assert_eq!(effective_threads(5, 0), 1);
        assert!(effective_threads(0, 64) >= 1);
    }
}

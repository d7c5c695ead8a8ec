//! The work-stealing thread pool.
//!
//! A pool with `t` lanes spawns `t − 1` worker threads; the calling thread
//! is always the remaining lane and helps execute while it waits, so
//! `t = 1` degenerates to strictly inline execution. Every worker owns a
//! deque: it pushes and pops its own work LIFO (cache-warm), while idle
//! threads steal FIFO from siblings or from the shared injector — the
//! crossbeam-deque discipline, implemented here over mutexed `VecDeque`s
//! because the workspace is offline and the critical sections are a few
//! pointer moves on coarse chunk-sized tasks.
//!
//! Only spawned workers own a deque. A thread that [`ThreadPool::install`]s
//! the pool (or uses the global one from outside) has none: a scope it opens
//! queues its tasks on the shared injector, *behind* whatever is already
//! there, and between tasks it parks on the scope for up to 200 µs. A nested
//! fan-out opened from there while the outer level's chunks are still queued
//! therefore waits behind them and pays a scope for nothing; the iterator
//! layer runs such a fan-out inline instead (the grain rule, [`crate::iter`]).
//!
//! Scheduling is free to vary run to run; determinism is the *iterator*
//! layer's job (fixed chunks, indexed results, fixed-shape reductions — see
//! the crate docs). The pool only guarantees: every task runs exactly once,
//! scopes don't return until every task finished, and a panicking task is
//! re-thrown on the scoping thread instead of wedging a worker.

use std::any::Any;
use std::cell::RefCell;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::Duration;

/// A unit of work queued on the pool (lifetime-erased by [`Inner::scope`],
/// which cannot return before the task has run).
type Task = Box<dyn FnOnce() + Send + 'static>;

/// How long an idle thread sleeps between wake-up checks. A safety net on
/// top of explicit wake-ups, not the scheduling mechanism.
const IDLE_PARK: Duration = Duration::from_millis(20);

/// Shared pool state: queues, sleep machinery, shutdown flag.
struct Inner {
    /// One deque per spawned worker. Owners pop LIFO; thieves pop FIFO.
    deques: Vec<Mutex<VecDeque<Task>>>,
    /// Overflow queue for work submitted by non-worker threads.
    injector: Mutex<VecDeque<Task>>,
    /// Wake-up generation counter; bumped on every submission.
    work_gen: Mutex<u64>,
    /// Signalled (broadcast) whenever new work arrives or shutdown starts.
    work_cv: Condvar,
    /// Set once when the owning [`ThreadPool`] drops.
    shutdown: AtomicBool,
    /// Total execution lanes (spawned workers + the scoping thread).
    lanes: usize,
}

/// Completion state of one `scope` call.
struct ScopeState {
    /// Tasks not yet finished.
    remaining: AtomicUsize,
    /// First panic payload observed in any task of this scope.
    panic: Mutex<Option<Box<dyn Any + Send + 'static>>>,
    /// Completion flag + broadcast for the scoping thread.
    done: Mutex<bool>,
    done_cv: Condvar,
}

thread_local! {
    /// The pool this thread executes on: set permanently for workers
    /// (with their deque index), temporarily by [`ThreadPool::install`]
    /// for external threads (index `None`).
    static CURRENT: RefCell<Option<(Arc<Inner>, Option<usize>)>> = const { RefCell::new(None) };
}

/// A work-stealing thread pool; see the module docs for the model.
pub struct ThreadPool {
    inner: Arc<Inner>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl ThreadPool {
    /// Create a pool with `lanes` execution lanes (`lanes − 1` spawned
    /// workers plus the scoping thread). `lanes` is clamped to at least 1.
    pub fn new(lanes: usize) -> ThreadPool {
        let lanes = lanes.max(1);
        let inner = Arc::new(Inner {
            deques: (1..lanes).map(|_| Mutex::new(VecDeque::new())).collect(),
            injector: Mutex::new(VecDeque::new()),
            work_gen: Mutex::new(0),
            work_cv: Condvar::new(),
            shutdown: AtomicBool::new(false),
            lanes,
        });
        let workers = (0..lanes - 1)
            .map(|idx| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("bonsai-par-{idx}"))
                    .spawn(move || worker_main(inner, idx))
                    .expect("spawn pool worker")
            })
            .collect();
        ThreadPool { inner, workers }
    }

    /// Pool sized from the `BONSAI_THREADS` environment variable, falling
    /// back to the machine's available parallelism.
    pub fn from_env() -> ThreadPool {
        ThreadPool::new(threads_from_env())
    }

    /// Number of execution lanes (spawned workers + the scoping thread).
    pub fn lanes(&self) -> usize {
        self.inner.lanes
    }

    /// Number of spawned worker threads (`lanes − 1`).
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// Run `f` with this pool as the thread's current pool: every
    /// `par_iter`/`join` reached from `f` executes here. Restores the
    /// previous current pool on exit (panic-safe).
    pub fn install<R>(&self, f: impl FnOnce() -> R) -> R {
        struct Restore(Option<(Arc<Inner>, Option<usize>)>);
        impl Drop for Restore {
            fn drop(&mut self) {
                CURRENT.with(|c| *c.borrow_mut() = self.0.take());
            }
        }
        let prev = CURRENT.with(|c| {
            c.borrow_mut()
                .replace((Arc::clone(&self.inner), None))
        });
        let _restore = Restore(prev);
        f()
    }

    /// Run `inline` on the calling thread while `tasks` execute on the
    /// pool, returning when **all** of them (and `inline`) have finished.
    /// The first panic from any of them is re-thrown here afterwards.
    pub fn scope<'s>(&self, tasks: Vec<Box<dyn FnOnce() + Send + 's>>, inline: impl FnOnce()) {
        self.inner.scope(tasks, inline);
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        self.inner.shutdown.store(true, Ordering::SeqCst);
        {
            let mut g = self.inner.work_gen.lock().unwrap();
            *g += 1;
        }
        self.inner.work_cv.notify_all();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

/// Thread count from `BONSAI_THREADS` (≥ 1), else available parallelism.
pub fn threads_from_env() -> usize {
    std::env::var("BONSAI_THREADS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&t| t >= 1)
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
        })
}

/// The process-wide default pool (first use wins; sized by
/// [`threads_from_env`]).
fn global() -> &'static ThreadPool {
    static GLOBAL: OnceLock<ThreadPool> = OnceLock::new();
    GLOBAL.get_or_init(ThreadPool::from_env)
}

/// The pool the current thread executes on: its own (worker threads and
/// `install` scopes), else the global default.
fn current_inner() -> (Arc<Inner>, Option<usize>) {
    CURRENT.with(|c| {
        c.borrow()
            .as_ref()
            .map(|(i, idx)| (Arc::clone(i), *idx))
            .unwrap_or_else(|| (Arc::clone(&global().inner), None))
    })
}

/// Lanes of the current thread's pool (used by the iterator layer to pick
/// the inline fast path).
pub(crate) fn current_lanes() -> usize {
    current_inner().0.lanes
}

/// Run lifetime-scoped tasks on the current pool alongside `inline` on the
/// calling thread; returns when every task completed. Crate-internal
/// engine behind the iterator terminals.
pub(crate) fn scope_current<'s>(
    tasks: Vec<Box<dyn FnOnce() + Send + 's>>,
    inline: impl FnOnce(),
) {
    let (inner, _) = current_inner();
    inner.scope(tasks, inline);
}

/// Run `a` on the calling thread and `b` on the pool (work-stealing
/// `join`): either may be stolen back and executed inline if no worker is
/// free. Panics propagate after both sides finish, `a`'s first.
pub fn join<A, B, RA, RB>(a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    let mut ra: Option<RA> = None;
    let mut rb: Option<RB> = None;
    {
        let task: Box<dyn FnOnce() + Send + '_> = Box::new(|| {
            rb = Some(b());
        });
        scope_current(vec![task], || ra = Some(a()));
    }
    (ra.unwrap(), rb.unwrap())
}

impl Inner {
    /// See [`ThreadPool::scope`]. Lifetime-erases the tasks; sound because
    /// this function does not return until `remaining == 0`, so every
    /// borrow a task carries outlives its execution.
    fn scope<'s>(
        self: &Arc<Inner>,
        tasks: Vec<Box<dyn FnOnce() + Send + 's>>,
        inline: impl FnOnce(),
    ) {
        let state = Arc::new(ScopeState {
            remaining: AtomicUsize::new(tasks.len()),
            panic: Mutex::new(None),
            done: Mutex::new(tasks.is_empty()),
            done_cv: Condvar::new(),
        });

        // Strictly inline when there is nobody to offload to: a 1-lane
        // pool is the true sequential baseline of the thread sweeps.
        if self.deques.is_empty() || tasks.is_empty() {
            let inline_panic = catch_unwind(AssertUnwindSafe(inline)).err();
            for t in tasks {
                if let Err(p) = catch_unwind(AssertUnwindSafe(t)) {
                    let mut slot = state.panic.lock().unwrap();
                    slot.get_or_insert(p);
                }
            }
            resume_scope_panics(inline_panic, &state);
            return;
        }

        let me = CURRENT.with(|c| c.borrow().as_ref().and_then(|(_, idx)| *idx));
        {
            // Queue the wrapped, lifetime-erased tasks. A worker queues on
            // its own deque (stealable from the front); external threads
            // queue on the injector.
            let wrapped: Vec<Task> = tasks
                .into_iter()
                .map(|t| {
                    let state = Arc::clone(&state);
                    let run: Box<dyn FnOnce() + Send + 's> = Box::new(move || {
                        if let Err(p) = catch_unwind(AssertUnwindSafe(t)) {
                            let mut slot = state.panic.lock().unwrap();
                            slot.get_or_insert(p);
                        }
                        if state.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
                            let mut done = state.done.lock().unwrap();
                            *done = true;
                            state.done_cv.notify_all();
                        }
                    });
                    // SAFETY: `scope` blocks below until `remaining == 0`,
                    // i.e. until this closure (and the `'s` borrows inside
                    // it) has finished running on whatever thread took it.
                    unsafe {
                        std::mem::transmute::<
                            Box<dyn FnOnce() + Send + 's>,
                            Box<dyn FnOnce() + Send + 'static>,
                        >(run)
                    }
                })
                .collect();
            match me {
                Some(idx) => self.deques[idx].lock().unwrap().extend(wrapped),
                None => self.injector.lock().unwrap().extend(wrapped),
            }
            let mut g = self.work_gen.lock().unwrap();
            *g += 1;
            drop(g);
            self.work_cv.notify_all();
        }

        let inline_panic = catch_unwind(AssertUnwindSafe(inline)).err();

        // Help until the scope drains: execute own/stolen tasks while any
        // remain anywhere, park briefly when the only outstanding tasks are
        // already running on other threads.
        loop {
            if *state.done.lock().unwrap() {
                break;
            }
            if let Some(task) = self.find_task(me) {
                task();
                continue;
            }
            let done = state.done.lock().unwrap();
            if !*done {
                let _ = state
                    .done_cv
                    .wait_timeout(done, Duration::from_micros(200))
                    .unwrap();
            }
        }
        resume_scope_panics(inline_panic, &state);
    }

    /// Take one queued task, if any: own deque newest-first (when `me` is a
    /// worker), injector oldest-first, then steal oldest-first from
    /// sibling deques.
    fn find_task(&self, me: Option<usize>) -> Option<Task> {
        if let Some(idx) = me {
            if let Some(t) = self.deques[idx].lock().unwrap().pop_back() {
                return Some(t);
            }
        }
        if let Some(t) = self.injector.lock().unwrap().pop_front() {
            return Some(t);
        }
        let n = self.deques.len();
        let start = me.map_or(0, |i| (i + 1) % n.max(1));
        for k in 0..n {
            let victim = (start + k) % n;
            if Some(victim) == me {
                continue;
            }
            if let Some(t) = self.deques[victim].lock().unwrap().pop_front() {
                return Some(t);
            }
        }
        None
    }
}

/// Re-throw the scope's panics on the scoping thread: the inline closure's
/// own panic first, else the first task panic.
fn resume_scope_panics(inline_panic: Option<Box<dyn Any + Send>>, state: &ScopeState) {
    let task_panic = state.panic.lock().unwrap().take();
    if let Some(p) = inline_panic.or(task_panic) {
        std::panic::resume_unwind(p);
    }
}

/// Worker main loop: run tasks while any are queued, park otherwise.
fn worker_main(inner: Arc<Inner>, idx: usize) {
    CURRENT.with(|c| *c.borrow_mut() = Some((Arc::clone(&inner), Some(idx))));
    loop {
        if inner.shutdown.load(Ordering::SeqCst) {
            break;
        }
        // Read the generation *before* scanning so a submission racing the
        // scan bumps it and the wait below falls through (no lost wake-up).
        let gen = *inner.work_gen.lock().unwrap();
        if let Some(task) = inner.find_task(Some(idx)) {
            task();
            continue;
        }
        let g = inner.work_gen.lock().unwrap();
        if *g == gen && !inner.shutdown.load(Ordering::SeqCst) {
            // One wait; the queues are rescanned after any wake-up or timeout.
            drop(inner.work_cv.wait_timeout(g, IDLE_PARK).unwrap());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn single_lane_scope_runs_inline() {
        let pool = ThreadPool::new(1);
        assert_eq!(pool.workers(), 0);
        let mut hits = 0u32;
        {
            let task: Box<dyn FnOnce() + Send + '_> = Box::new(|| {});
            pool.scope(vec![task], || hits += 1);
        }
        assert_eq!(hits, 1);
    }

    #[test]
    fn scope_runs_every_task_exactly_once() {
        let pool = ThreadPool::new(4);
        let counter = AtomicU64::new(0);
        let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = (0..100)
            .map(|i| {
                let counter = &counter;
                Box::new(move || {
                    counter.fetch_add(1 + i as u64, Ordering::Relaxed);
                }) as Box<dyn FnOnce() + Send + '_>
            })
            .collect();
        pool.scope(tasks, || {});
        assert_eq!(counter.load(Ordering::Relaxed), (1..=100).sum::<u64>());
    }

    #[test]
    fn join_computes_both_sides() {
        let pool = ThreadPool::new(4);
        let (a, b) = pool.install(|| join(|| 6 * 7, || "ok"));
        assert_eq!((a, b), (42, "ok"));
    }

    #[test]
    fn nested_joins_complete() {
        let pool = ThreadPool::new(2);
        fn fib(n: u64) -> u64 {
            if n < 2 {
                return n;
            }
            let (a, b) = join(|| fib(n - 1), || fib(n - 2));
            a + b
        }
        assert_eq!(pool.install(|| fib(16)), 987);
    }

    #[test]
    fn task_panic_propagates_without_deadlock() {
        let pool = ThreadPool::new(3);
        let caught = catch_unwind(AssertUnwindSafe(|| {
            let task: Box<dyn FnOnce() + Send + '_> = Box::new(|| panic!("task boom"));
            pool.scope(vec![task], || {});
        }));
        assert!(caught.is_err());
        // The pool survives and keeps executing afterwards.
        let (a, b) = pool.install(|| join(|| 1, || 2));
        assert_eq!(a + b, 3);
    }

    #[test]
    fn install_overrides_and_restores() {
        let one = ThreadPool::new(1);
        let four = ThreadPool::new(4);
        assert_eq!(one.install(super::current_lanes), 1);
        assert_eq!(four.install(super::current_lanes), 4);
        four.install(|| {
            assert_eq!(super::current_lanes(), 4);
            one.install(|| assert_eq!(super::current_lanes(), 1));
            assert_eq!(super::current_lanes(), 4);
        });
    }
}

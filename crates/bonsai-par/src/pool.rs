//! The thread pool: one queue under one lock.
//!
//! A pool with `t` lanes spawns `t − 1` worker threads; the calling thread
//! is always the remaining lane and helps execute while it waits, so
//! `t = 1` degenerates to strictly inline execution.
//!
//! Every queued task of every scope sits in one `VecDeque` behind one
//! `Mutex`. Idle workers sleep on the `work` condvar and take the *oldest*
//! task. A thread waiting for its own scope takes that scope's *newest*
//! task, else the newest of any, and sleeps on the `done` condvar while the
//! queue is empty. Own tasks first lets a scope drain mostly on its own
//! thread; taking any scope's newest task left scoping threads idle longer.
//! Queuing a batch wakes both kinds of sleeper; a scope's last task to
//! finish wakes `done` again.
//!
//! Nothing sleeps with a timeout, because no wake-up can be lost: a sleeper
//! tests its condition (a task queued, shutdown, its scope's count at zero)
//! under the lock, and whoever changes it takes the lock for the change (a
//! push, shutdown) or after it (a scope's final decrement), then notifies.
//!
//! Scheduling varies run to run; determinism is the iterator layer's job
//! (crate docs). The pool only guarantees: every task runs exactly once, a
//! scope returns only after all its tasks finished, and a panicking task is
//! re-thrown on the scoping thread instead of wedging a worker.

use std::any::Any;
use std::cell::RefCell;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};

/// A task borrowing data that lives for `'s`.
type ScopedTask<'s> = Box<dyn FnOnce() + Send + 's>;

/// A unit of work queued on the pool (lifetime-erased by [`Inner::scope`],
/// which cannot return before the task has run).
type Task = ScopedTask<'static>;

/// A panic payload caught from a task or an inline closure.
type Panic = Box<dyn Any + Send + 'static>;

/// What the pool's one lock guards.
#[derive(Default)]
struct State {
    /// Queued tasks of every scope, tagged with their scope's id.
    queue: VecDeque<(usize, Task)>,
    /// Set once when the owning [`ThreadPool`] drops.
    shutdown: bool,
}

/// Shared pool state: the locked queue and its two condition variables.
struct Inner {
    state: Mutex<State>,
    /// Workers sleep here; notified when a batch is queued or shutdown starts.
    work: Condvar,
    /// Scoping threads sleep here; notified on a queued batch or a scope's end.
    done: Condvar,
    /// Total execution lanes (spawned workers + the scoping thread).
    lanes: usize,
}

/// Completion state of one `scope` call.
struct ScopeState {
    /// Tasks not yet finished.
    remaining: AtomicUsize,
    /// First panic payload observed in any task of this scope.
    panic: Mutex<Option<Panic>>,
}

impl ScopeState {
    /// The first-panic slot (a poisoned guard is fine: it holds one payload).
    fn first_panic(&self) -> MutexGuard<'_, Option<Panic>> {
        self.panic.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

thread_local! {
    /// The pool this thread executes on: set permanently for workers,
    /// temporarily by [`ThreadPool::install`] for any other thread.
    static CURRENT: RefCell<Option<Arc<Inner>>> = const { RefCell::new(None) };
}

/// A thread pool; see the module docs for the model.
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
            state: Mutex::default(),
            work: Condvar::new(),
            done: Condvar::new(),
            lanes,
        });
        let workers = (0..lanes - 1)
            .map(|idx| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("bonsai-par-{idx}"))
                    .spawn(move || worker_main(inner))
                    .expect("spawn pool worker")
            })
            .collect();
        ThreadPool { inner, workers }
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
    /// `par_iter` reached from `f` executes here. Restores the previous
    /// current pool on exit (panic-safe).
    pub fn install<R>(&self, f: impl FnOnce() -> R) -> R {
        struct Restore(Option<Arc<Inner>>);
        impl Drop for Restore {
            fn drop(&mut self) {
                CURRENT.with(|c| *c.borrow_mut() = self.0.take());
            }
        }
        let prev = CURRENT.with(|c| c.borrow_mut().replace(Arc::clone(&self.inner)));
        let _restore = Restore(prev);
        f()
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        self.inner.lock().shutdown = true;
        self.inner.work.notify_all();
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
    GLOBAL.get_or_init(|| ThreadPool::new(threads_from_env()))
}

/// The pool the current thread executes on: its own (worker threads and
/// `install` scopes), else the global default.
fn current_inner() -> Arc<Inner> {
    CURRENT
        .with(|c| c.borrow().clone())
        .unwrap_or_else(|| Arc::clone(&global().inner))
}

/// Lanes of the current thread's pool: the global pool's, or the one
/// [`ThreadPool::install`] made current.
pub fn current_lanes() -> usize {
    current_inner().lanes
}

/// Run `tasks` on the current pool beside `inline` on this thread; returns
/// once all finished, then re-throws the first panic (`inline`'s first).
pub(crate) fn scope_current<'s>(tasks: Vec<ScopedTask<'s>>, inline: impl FnOnce()) {
    current_inner().scope(tasks, inline);
}

impl Inner {
    /// The queue lock; it is never held while task code runs and every
    /// update under it leaves the state valid, so poisoning is harmless.
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// See [`scope_current`]. Lifetime-erases the tasks; sound because this
    /// function does not return until `remaining == 0`.
    fn scope<'s>(self: &Arc<Inner>, tasks: Vec<ScopedTask<'s>>, inline: impl FnOnce()) {
        let state = Arc::new(ScopeState {
            remaining: AtomicUsize::new(tasks.len()),
            panic: Mutex::default(),
        });

        // Strictly inline when there is nobody to offload to: a 1-lane
        // pool is the true sequential baseline of the thread sweeps.
        if self.lanes == 1 || tasks.is_empty() {
            let inline_panic = catch_unwind(AssertUnwindSafe(inline)).err();
            for t in tasks {
                if let Err(p) = catch_unwind(AssertUnwindSafe(t)) {
                    state.first_panic().get_or_insert(p);
                }
            }
            resume_scope_panics(inline_panic, &state);
            return;
        }

        let id = Arc::as_ptr(&state) as usize;
        let wrapped = tasks.into_iter().map(|t| {
            let (pool, state) = (Arc::clone(self), Arc::clone(&state));
            let run: ScopedTask<'s> = Box::new(move || {
                if let Err(p) = catch_unwind(AssertUnwindSafe(t)) {
                    state.first_panic().get_or_insert(p);
                }
                if state.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
                    // The lock orders this against the owner's test-then-sleep.
                    drop(pool.lock());
                    pool.done.notify_all();
                }
            });
            // SAFETY: `scope` returns only after an `Acquire` read of
            // `remaining == 0` (the loop below, which cannot unwind), and
            // this closure decrements `remaining` (`AcqRel`) only after `t`,
            // with every `'s` borrow in it, has run and been dropped; what
            // it touches afterwards is owned by its two `Arc`s.
            let run = unsafe { std::mem::transmute::<ScopedTask<'s>, Task>(run) };
            (id, run)
        });
        self.lock().queue.extend(wrapped);
        self.work.notify_all();
        self.done.notify_all();

        let inline_panic = catch_unwind(AssertUnwindSafe(inline)).err();

        // Help until the scope drains: run this scope's newest queued task,
        // else the newest of any, and sleep while none is queued.
        let mut guard = self.lock();
        while state.remaining.load(Ordering::Acquire) != 0 {
            let mine = guard.queue.iter().rposition(|&(scope, _)| scope == id);
            let at = mine.or(guard.queue.len().checked_sub(1));
            if let Some((_, task)) = at.and_then(|i| guard.queue.remove(i)) {
                drop(guard);
                task();
                guard = self.lock();
            } else {
                guard = sleep(&self.done, guard);
            }
        }
        drop(guard);
        resume_scope_panics(inline_panic, &state);
    }
}

/// Sleep on one of the pool's condition variables until notified.
fn sleep<'a>(cv: &Condvar, guard: MutexGuard<'a, State>) -> MutexGuard<'a, State> {
    cv.wait(guard).unwrap_or_else(PoisonError::into_inner)
}

/// Re-throw the scope's panics on the scoping thread: the inline closure's
/// own panic first, else the first task panic.
fn resume_scope_panics(inline_panic: Option<Panic>, state: &ScopeState) {
    let task_panic = state.first_panic().take();
    if let Some(p) = inline_panic.or(task_panic) {
        std::panic::resume_unwind(p);
    }
}

/// Worker main loop: run the oldest queued task, sleep on `work` while the
/// queue is empty, exit once it is empty after shutdown.
fn worker_main(inner: Arc<Inner>) {
    CURRENT.with(|c| *c.borrow_mut() = Some(Arc::clone(&inner)));
    let mut state = inner.lock();
    loop {
        if let Some((_, task)) = state.queue.pop_front() {
            drop(state);
            task();
            state = inner.lock();
        } else if state.shutdown {
            return;
        } else {
            state = sleep(&inner.work, state);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::iter::tests::wait_for;
    use std::sync::atomic::{AtomicBool, AtomicU64};
    use std::sync::mpsc;
    use std::thread;
    use std::time::Duration;

    /// How many times each protocol test repeats its schedule:
    /// `PAR_STRESS_ITERS`, default 1.
    fn stress_iters() -> usize {
        std::env::var("PAR_STRESS_ITERS")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(1)
            .max(1)
    }

    /// A scope task that counts itself into `started`, sleeps `ms`, then
    /// runs `then`. It owns only `'static` data, so a scope that returns
    /// too early fails an assertion instead of freeing what the task uses.
    fn task(
        started: &Arc<AtomicUsize>,
        ms: u64,
        then: impl FnOnce() + Send + 'static,
    ) -> Box<dyn FnOnce() + Send> {
        let started = Arc::clone(started);
        Box::new(move || {
            started.fetch_add(1, Ordering::SeqCst);
            thread::sleep(Duration::from_millis(ms));
            then();
        })
    }

    /// The inline closure of the protocol tests: hold the scoping thread
    /// until `n` tasks started, so they all run on workers.
    fn until_started(started: &AtomicUsize, n: usize) -> impl FnOnce() + '_ {
        move || {
            wait_for(|| started.load(Ordering::SeqCst) >= n);
        }
    }

    #[test]
    fn single_lane_scope_runs_inline() {
        let pool = ThreadPool::new(1);
        assert_eq!(pool.workers(), 0);
        let mut hits = 0u32;
        {
            let task: Box<dyn FnOnce() + Send + '_> = Box::new(|| {});
            pool.install(|| scope_current(vec![task], || hits += 1));
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
        pool.install(|| scope_current(tasks, || {}));
        assert_eq!(counter.load(Ordering::Relaxed), (1..=100).sum::<u64>());
    }

    #[test]
    fn task_panic_propagates_without_deadlock() {
        let pool = ThreadPool::new(3);
        let caught = catch_unwind(AssertUnwindSafe(|| {
            let task: Box<dyn FnOnce() + Send + '_> = Box::new(|| panic!("task boom"));
            pool.install(|| scope_current(vec![task], || {}));
        }));
        assert!(caught.is_err());
        // The pool survives and keeps executing afterwards.
        let ran = AtomicBool::new(false);
        let task: Box<dyn FnOnce() + Send + '_> = Box::new(|| ran.store(true, Ordering::SeqCst));
        pool.install(|| scope_current(vec![task], || {}));
        assert!(ran.load(Ordering::SeqCst));
    }

    #[test]
    fn a_scope_whose_last_task_ends_elsewhere_is_woken() {
        // The only task sleeps on the worker while the scoping thread, with
        // nothing left to help with, sleeps on `done`: only the task's final
        // notify can wake it. A lost wake-up hangs rather than costing time,
        // so the scope runs on its own thread under a watchdog.
        for _ in 0..stress_iters() {
            let (tx, rx) = mpsc::channel();
            thread::spawn(move || {
                let started = Arc::new(AtomicUsize::new(0));
                let only = task(&started, 20, || {});
                ThreadPool::new(2)
                    .install(|| scope_current(vec![only], until_started(&started, 1)));
                let _ = tx.send(());
            });
            assert!(
                rx.recv_timeout(Duration::from_secs(10)).is_ok(),
                "the scope was never woken after its last task finished"
            );
        }
    }

    #[test]
    fn scope_returns_only_after_every_task_ran() {
        // Three tasks start on the three workers before the scoping thread
        // first reads its count; each sets its flag after a short sleep.
        for _ in 0..stress_iters() {
            let pool = ThreadPool::new(4);
            let started = Arc::new(AtomicUsize::new(0));
            let flags: Arc<[AtomicBool; 3]> = Arc::default();
            let tasks = (0..3)
                .map(|i| {
                    let flags = Arc::clone(&flags);
                    task(&started, 5, move || flags[i].store(true, Ordering::SeqCst))
                })
                .collect();
            pool.install(|| scope_current(tasks, until_started(&started, 3)));
            assert!(
                flags.iter().all(|f| f.load(Ordering::SeqCst)),
                "the scope returned before every task ran"
            );
        }
    }

    #[test]
    fn a_task_panic_is_raised_only_after_its_siblings_finished() {
        // Both tasks start on the two workers; one panics at once, its
        // sibling finishes 20 ms later.
        for _ in 0..stress_iters() {
            let pool = ThreadPool::new(3);
            let started = Arc::new(AtomicUsize::new(0));
            let sibling_done = Arc::new(AtomicBool::new(false));
            let boom = task(&started, 0, || panic!("task boom"));
            let slow = {
                let sibling_done = Arc::clone(&sibling_done);
                task(&started, 20, move || {
                    sibling_done.store(true, Ordering::SeqCst)
                })
            };
            let caught = catch_unwind(AssertUnwindSafe(|| {
                pool.install(|| scope_current(vec![boom, slow], until_started(&started, 2)))
            }));
            assert!(caught.is_err(), "the task panic was lost");
            assert!(
                sibling_done.load(Ordering::SeqCst),
                "the panic was re-raised while a sibling still ran"
            );
        }
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

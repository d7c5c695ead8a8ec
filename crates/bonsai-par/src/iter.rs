//! Deterministic parallel iterators.
//!
//! [`Par`] holds the materialized items of a parallel computation; adapters
//! (`zip`, `enumerate`, `filter`) restructure that item list eagerly and
//! sequentially, while the work-carrying stages — [`Par::map`] (via
//! [`ParMap`]), [`Par::for_each`], [`Par::reduce`] — execute on the current
//! [`pool`] through the chunked engine:
//!
//! * items are split at [`chunk_bounds`], a pure
//!   function of the input length;
//! * each chunk becomes one pool task whose result lands in the chunk's own
//!   slot, so scheduling cannot reorder anything observable;
//! * `reduce` folds within chunks in item order and combines the per-chunk
//!   partials along a fixed-shape adjacent-pair binary tree — the same
//!   floating-point order at every thread count, *including one* (the
//!   single-lane path still uses the chunked shape).
//!
//! Closures therefore need `Fn + Sync` (they are shared by reference across
//! worker threads) instead of the `FnMut` the old sequential stand-in
//! accepted; items and results need `Send`.
//!
//! # Grain: where a nested fan-out runs
//!
//! A terminal reached from inside a chunk of an enclosing fan-out runs its
//! own chunks inline, in order, on the calling thread when the enclosing
//! fan-out still has at least `lanes − 1` chunks that no thread has started:
//! those siblings already keep every other lane busy, and queueing more
//! tasks behind them only costs scope bookkeeping and wake-ups. Otherwise —
//! at the top level, under a short outer fan-out, or on the tail of a long
//! one — it fans out as usual. A distributed step therefore fans out over
//! ranks, while its last ranks and a one-rank run keep the inner fan-out.
//! The decision moves only the *placement* of chunks: bounds and the
//! combine tree are the same either way, so results are bit-identical.

use crate::pool;
use crate::{chunk_bounds, deterministic_chunks};
use std::cell::RefCell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

thread_local! {
    /// Chunks not yet started of the fan-out whose chunk this thread is
    /// executing; `None` outside any chunk task.
    static UNSTARTED_SIBLINGS: RefCell<Option<Arc<AtomicUsize>>> = const { RefCell::new(None) };
}

/// Marks the current thread as executing one chunk of a fan-out for as long
/// as it lives, and restores the previous marker when dropped — on unwind
/// too, so a panicking chunk does not leave its fan-out's count behind.
struct InChunk(Option<Arc<AtomicUsize>>);

impl InChunk {
    /// Start one chunk of the fan-out counting `unstarted`. The count
    /// publishes no other data and only steers placement, hence `Relaxed`.
    fn enter(unstarted: &Arc<AtomicUsize>) -> InChunk {
        unstarted.fetch_sub(1, Ordering::Relaxed);
        let prev = UNSTARTED_SIBLINGS.with(|s| s.replace(Some(Arc::clone(unstarted))));
        InChunk(prev)
    }
}

impl Drop for InChunk {
    fn drop(&mut self) {
        UNSTARTED_SIBLINGS.with(|s| *s.borrow_mut() = self.0.take());
    }
}

/// The grain rule (module docs): true when this thread runs a chunk whose
/// fan-out still has enough unstarted siblings to occupy the other lanes.
fn siblings_fill(lanes: usize) -> bool {
    UNSTARTED_SIBLINGS.with(|s| {
        s.borrow()
            .as_ref()
            .is_some_and(|n| n.load(Ordering::Relaxed) >= lanes - 1)
    })
}

/// A parallel iterator over an owned list of items.
pub struct Par<T> {
    items: Vec<T>,
}

/// A parallel iterator with a pending `map` stage: the map closure runs on
/// the pool when a terminal (`collect`, `for_each`, `reduce`, `sum`) fires.
pub struct ParMap<T, F> {
    items: Vec<T>,
    f: F,
}

/// Split `items` into the deterministic chunk list for its length: chunk
/// count and boundaries depend on `items.len()` only.
fn split_chunks<T>(mut items: Vec<T>) -> Vec<Vec<T>> {
    let n = items.len();
    let c = deterministic_chunks(n);
    let bounds = chunk_bounds(n, c);
    let mut chunks = Vec::with_capacity(c);
    for j in (0..c).rev() {
        chunks.push(items.split_off(bounds[j]));
    }
    chunks.reverse();
    chunks
}

/// Run `work` once per chunk on the current pool and return the per-chunk
/// results in chunk order. The chunk shape is fixed by the input length;
/// only the *placement* of chunks on threads varies — including whether
/// they fan out at all (the grain rule in the module docs).
fn run_chunks<T, R, W>(items: Vec<T>, work: W) -> Vec<R>
where
    T: Send,
    R: Send,
    W: Fn(Vec<T>) -> R + Sync,
{
    let chunks = split_chunks(items);
    let lanes = pool::current_lanes();
    if chunks.len() == 1 || lanes == 1 || siblings_fill(lanes) {
        // Same chunks, executed in order on the calling thread.
        return chunks.into_iter().map(work).collect();
    }
    let slots: Vec<Mutex<Option<R>>> = chunks.iter().map(|_| Mutex::new(None)).collect();
    let unstarted = Arc::new(AtomicUsize::new(chunks.len()));
    {
        let work = &work;
        let slots = &slots;
        let unstarted = &unstarted;
        let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = chunks
            .into_iter()
            .enumerate()
            .map(|(j, chunk)| {
                Box::new(move || {
                    let _in_chunk = InChunk::enter(unstarted);
                    let r = work(chunk);
                    *slots[j].lock().unwrap() = Some(r);
                }) as Box<dyn FnOnce() + Send + '_>
            })
            .collect();
        pool::scope_current(tasks, || {});
    }
    slots
        .into_iter()
        .map(|m| m.into_inner().unwrap().expect("chunk task ran"))
        .collect()
}

/// Combine per-chunk partials along a fixed-shape binary tree: adjacent
/// pairs, level by level, odd tail carried up unchanged. The shape is a
/// pure function of the partial count (itself a pure function of the input
/// length), so the combination order never varies.
fn combine_tree<R>(mut xs: Vec<R>, op: impl Fn(R, R) -> R) -> R {
    debug_assert!(!xs.is_empty());
    while xs.len() > 1 {
        let mut next = Vec::with_capacity(xs.len().div_ceil(2));
        let mut it = xs.into_iter();
        while let Some(a) = it.next() {
            match it.next() {
                Some(b) => next.push(op(a, b)),
                None => next.push(a),
            }
        }
        xs = next;
    }
    xs.pop().unwrap()
}

/// Shared map+reduce engine: per-chunk `fold(identity(), op)` over mapped
/// items in order, then the fixed-shape combine.
fn map_reduce<T, R, M, ID, OP>(items: Vec<T>, m: M, identity: ID, op: OP) -> R
where
    T: Send,
    R: Send,
    M: Fn(T) -> R + Sync,
    ID: Fn() -> R + Sync,
    OP: Fn(R, R) -> R + Sync,
{
    let partials = run_chunks(items, |chunk| {
        chunk.into_iter().map(&m).fold(identity(), &op)
    });
    combine_tree(partials, op)
}

impl<T> Par<T> {
    /// Map each item; the closure runs on the pool at the terminal.
    pub fn map<R, F: Fn(T) -> R>(self, f: F) -> ParMap<T, F> {
        ParMap {
            items: self.items,
            f,
        }
    }

    /// Zip with another parallel iterator (truncating to the shorter).
    pub fn zip<U>(self, other: Par<U>) -> Par<(T, U)> {
        Par {
            items: self.items.into_iter().zip(other.items).collect(),
        }
    }

    /// Pair each item with its index.
    pub fn enumerate(self) -> Par<(usize, T)> {
        Par {
            items: self.items.into_iter().enumerate().collect(),
        }
    }

    /// Keep items matching the predicate (evaluated eagerly, in order).
    pub fn filter<F: FnMut(&T) -> bool>(self, f: F) -> Par<T> {
        Par {
            items: self.items.into_iter().filter(f).collect(),
        }
    }

    /// Consume every item with a side effect, in parallel over chunks.
    pub fn for_each<F>(self, f: F)
    where
        T: Send,
        F: Fn(T) + Sync,
    {
        run_chunks(self.items, |chunk| chunk.into_iter().for_each(&f));
    }

    /// Collect the items. Order is the item order by construction.
    pub fn collect<C: FromIterator<T>>(self) -> C {
        self.items.into_iter().collect()
    }

    /// Deterministic rayon-style reduce: per-chunk fold from `identity`,
    /// fixed-shape binary combine of the partials (see the module docs).
    pub fn reduce<ID, OP>(self, identity: ID, op: OP) -> T
    where
        T: Send,
        ID: Fn() -> T + Sync,
        OP: Fn(T, T) -> T + Sync,
    {
        map_reduce(self.items, |t| t, identity, op)
    }

    /// Sum the items: per-chunk sums in item order, folded in chunk order.
    pub fn sum<S>(self) -> S
    where
        T: Send,
        S: Send + std::iter::Sum<T> + std::iter::Sum<S>,
    {
        run_chunks(self.items, |chunk| chunk.into_iter().sum::<S>())
            .into_iter()
            .sum()
    }
}

impl<T, F> ParMap<T, F> {
    /// Chain another map; the closures compose and both run on the pool.
    pub fn map<R, R2, G>(self, g: G) -> ParMap<T, impl Fn(T) -> R2>
    where
        F: Fn(T) -> R,
        G: Fn(R) -> R2,
    {
        let f = self.f;
        ParMap {
            items: self.items,
            f: move |t| g(f(t)),
        }
    }

    /// Consume every mapped item with a side effect, in parallel.
    pub fn for_each<R, G>(self, g: G)
    where
        T: Send,
        F: Fn(T) -> R + Sync,
        G: Fn(R) + Sync,
    {
        let f = self.f;
        run_chunks(self.items, |chunk| {
            chunk.into_iter().for_each(|t| g(f(t)));
        });
    }

    /// Map on the pool and collect in item order.
    pub fn collect<R, C>(self) -> C
    where
        T: Send,
        R: Send,
        F: Fn(T) -> R + Sync,
        C: FromIterator<R>,
    {
        let f = self.f;
        run_chunks(self.items, |chunk| {
            chunk.into_iter().map(&f).collect::<Vec<R>>()
        })
        .into_iter()
        .flatten()
        .collect()
    }

    /// Deterministic map+reduce (see [`Par::reduce`]).
    pub fn reduce<R, ID, OP>(self, identity: ID, op: OP) -> R
    where
        T: Send,
        R: Send,
        F: Fn(T) -> R + Sync,
        ID: Fn() -> R + Sync,
        OP: Fn(R, R) -> R + Sync,
    {
        map_reduce(self.items, self.f, identity, op)
    }

    /// Sum the mapped items (per-chunk sums in item order, chunk order
    /// fold — fixed for a given input length).
    pub fn sum<R, S>(self) -> S
    where
        T: Send,
        R: Send,
        F: Fn(T) -> R + Sync,
        S: Send + std::iter::Sum<R> + std::iter::Sum<S>,
    {
        let f = self.f;
        run_chunks(self.items, |chunk| {
            chunk.into_iter().map(&f).sum::<S>()
        })
        .into_iter()
        .sum()
    }
}

/// Conversion of owned collections into a parallel iterator.
pub trait IntoParallelIterator {
    /// Item type of the parallel iterator.
    type Item;
    /// Convert into a parallel iterator.
    fn into_par_iter(self) -> Par<Self::Item>;
}

impl<T: IntoIterator> IntoParallelIterator for T {
    type Item = T::Item;
    fn into_par_iter(self) -> Par<T::Item> {
        Par {
            items: self.into_iter().collect(),
        }
    }
}

/// `par_iter` on shared references.
pub trait IntoParallelRefIterator<'a> {
    /// Item type (a shared borrow of the container's elements).
    type Item;
    /// Borrowing parallel iterator.
    fn par_iter(&'a self) -> Par<Self::Item>;
}

impl<'a, C: 'a + ?Sized> IntoParallelRefIterator<'a> for C
where
    &'a C: IntoIterator,
{
    type Item = <&'a C as IntoIterator>::Item;
    fn par_iter(&'a self) -> Par<Self::Item> {
        Par {
            items: self.into_iter().collect(),
        }
    }
}

/// `par_iter_mut` on exclusive references.
pub trait IntoParallelRefMutIterator<'a> {
    /// Item type (an exclusive borrow of the container's elements).
    type Item;
    /// Mutably borrowing parallel iterator.
    fn par_iter_mut(&'a mut self) -> Par<Self::Item>;
}

impl<'a, C: 'a + ?Sized> IntoParallelRefMutIterator<'a> for C
where
    &'a mut C: IntoIterator,
{
    type Item = <&'a mut C as IntoIterator>::Item;
    fn par_iter_mut(&'a mut self) -> Par<Self::Item> {
        Par {
            items: self.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ThreadPool;
    use std::sync::atomic::AtomicBool;
    use std::thread::{self, ThreadId};
    use std::time::{Duration, Instant};

    #[test]
    fn map_collect_matches_serial() {
        let v: Vec<u64> = (0..1000).collect();
        let serial: Vec<u64> = v.iter().map(|x| x * 3 + 1).collect();
        for lanes in [1, 2, 4, 8] {
            let pool = ThreadPool::new(lanes);
            let par: Vec<u64> = pool.install(|| v.par_iter().map(|&x| x * 3 + 1).collect());
            assert_eq!(par, serial, "lanes={lanes}");
        }
    }

    #[test]
    fn reduce_is_bit_identical_across_lane_counts() {
        // Floats chosen so that a *different* summation order would give a
        // different bit pattern; the chunked fixed-shape reduce must not.
        let v: Vec<f64> = (0..1777).map(|i| 1.0 / (i as f64 + 1.0)).collect();
        let reference = ThreadPool::new(1)
            .install(|| v.par_iter().map(|&x| x).reduce(|| 0.0, |a, b| a + b));
        for lanes in [2, 3, 4, 8] {
            let pool = ThreadPool::new(lanes);
            for _ in 0..5 {
                let s = pool.install(|| v.par_iter().map(|&x| x).reduce(|| 0.0, |a, b| a + b));
                assert_eq!(s.to_bits(), reference.to_bits(), "lanes={lanes}");
            }
        }
    }

    #[test]
    fn for_each_writes_disjoint_slots() {
        let pool = ThreadPool::new(4);
        let mut out = vec![0usize; 500];
        pool.install(|| {
            out.par_iter_mut()
                .enumerate()
                .for_each(|(i, slot)| *slot = i * i);
        });
        assert!(out.iter().enumerate().all(|(i, &v)| v == i * i));
    }

    #[test]
    fn zip_and_ranges_work() {
        let pool = ThreadPool::new(3);
        let a: Vec<u32> = (0..100).collect();
        let s: u32 = pool.install(|| {
            (0u32..100)
                .into_par_iter()
                .zip(a.par_iter())
                .map(|(x, &y)| x + y)
                .sum()
        });
        assert_eq!(s, 2 * (0..100u32).sum::<u32>());
    }

    #[test]
    fn empty_input_reduces_to_identity() {
        let v: Vec<f64> = Vec::new();
        let s = v.into_par_iter().reduce(|| 42.0, |a, b| a + b);
        assert_eq!(s, 42.0);
    }

    /// Spin until `done()` holds or five seconds pass; whether it held.
    fn wait_for(done: impl Fn() -> bool) -> bool {
        let deadline = Instant::now() + Duration::from_secs(5);
        while !done() {
            if Instant::now() > deadline {
                return false;
            }
            thread::yield_now();
        }
        true
    }

    /// Arrive at a meeting of `n` and wait for the others: true only if all
    /// `n` were running at once, i.e. on `n` threads.
    fn meet(arrived: &AtomicUsize, n: usize) -> bool {
        arrived.fetch_add(1, Ordering::SeqCst);
        wait_for(|| arrived.load(Ordering::SeqCst) >= n)
    }

    /// A fan-out of two items that must run at the same time: true only if
    /// it reached a second thread.
    fn spreads() -> bool {
        let arrived = AtomicUsize::new(0);
        let met: Vec<bool> = (0..2).into_par_iter().map(|_| meet(&arrived, 2)).collect();
        met == [true, true]
    }

    #[test]
    fn nested_fan_out_inside_a_saturated_one_runs_on_the_callers_thread() {
        // Outer chunk 1 holds the second lane until chunk 0 is done, so chunk
        // 0's nested fan-out starts with 62 siblings unstarted and nothing
        // else can take a ticket meanwhile.
        let chunk0_done = AtomicBool::new(false);
        let ticket = AtomicUsize::new(0);
        let take = || (thread::current().id(), ticket.fetch_add(1, Ordering::SeqCst));
        type Ticket = (ThreadId, usize);
        let runs: Vec<(Ticket, Vec<Ticket>)> = ThreadPool::new(2).install(|| {
            (0..64)
                .into_par_iter()
                .map(|i| {
                    if i == 1 {
                        wait_for(|| chunk0_done.load(Ordering::SeqCst));
                    }
                    let outer = take();
                    let nested: Vec<_> = (0..8).into_par_iter().map(|_| take()).collect();
                    chunk0_done.store(true, Ordering::SeqCst);
                    (outer, nested)
                })
                .collect()
        });
        let ((caller, first), nested) = &runs[0];
        let tickets: Vec<usize> = nested.iter().map(|&(_, t)| t).collect();
        assert!(nested.iter().all(|(t, _)| t == caller), "a nested chunk left the caller's thread");
        assert_eq!(tickets, (first + 1..first + 9).collect::<Vec<_>>(), "not inline, in order");
    }

    #[test]
    fn nested_fan_out_under_a_short_one_still_spreads_across_threads() {
        // Two outer chunks on four lanes leave lanes idle for the nested one.
        let met: Vec<bool> = ThreadPool::new(4)
            .install(|| (0..2).into_par_iter().map(|i| i == 1 || spreads()).collect());
        assert_eq!(met, [true, true], "the nested fan-out ran inline");
    }

    #[test]
    fn a_panicking_nested_chunk_leaves_no_marker_behind() {
        // The two outer chunks meet, so the installing thread runs one of
        // them; each one's nested fan-out panics.
        let pool = ThreadPool::new(2);
        let arrived = AtomicUsize::new(0);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.install(|| {
                (0..2).into_par_iter().for_each(|_| {
                    if meet(&arrived, 2) {
                        (0..4).into_par_iter().for_each(|k| assert_ne!(k, 2, "nested boom"));
                    }
                })
            })
        }));
        assert_eq!(arrived.load(Ordering::SeqCst), 2);
        assert!(caught.is_err(), "the outer chunks never met");
        assert!(
            UNSTARTED_SIBLINGS.with(|s| s.borrow().is_none()),
            "a chunk's marker outlived the chunk"
        );
        assert!(pool.install(spreads), "the next top-level fan-out ran inline");
    }

    #[test]
    fn nested_map_reduce_is_bit_identical_across_lane_counts() {
        let nested = || -> Vec<u64> {
            (0..24u32)
                .into_par_iter()
                .map(|i| {
                    (0..700u32)
                        .into_par_iter()
                        .map(|k| 1.0 / (f64::from(i * 700 + k) + 0.5))
                        .reduce(|| 0.0, |a, b| a + b)
                        .to_bits()
                })
                .collect()
        };
        let reference = ThreadPool::new(1).install(nested);
        for lanes in [2, 3, 4] {
            let pool = ThreadPool::new(lanes);
            for _ in 0..3 {
                assert_eq!(pool.install(nested), reference, "lanes={lanes}");
            }
        }
    }

    #[test]
    fn combine_tree_shape_is_adjacent_pairs() {
        // With string concatenation the combine order is observable.
        let xs: Vec<String> = (0..5).map(|i| i.to_string()).collect();
        let joined = combine_tree(xs, |a, b| format!("({a}{b})"));
        assert_eq!(joined, "(((01)(23))4)");
    }
}

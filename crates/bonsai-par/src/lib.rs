//! # bonsai-par
//!
//! A real thread pool with **deterministic** parallel iterators — the
//! in-tree replacement for the sequential `rayon` stand-in the workspace
//! used to build against. The `shims/rayon` facade re-exports
//! this crate, so every `par_iter` call site in the tree build, walk and
//! direct-summation hot paths now executes on worker threads.
//!
//! ## The deterministic-reduction contract
//!
//! The repo's crown-jewel invariant is byte-determinism: every
//! `BENCH_*.json` artifact and the force oracle must be bit-identical run
//! to run *and thread count to thread count*. Parallel execution keeps that
//! promise by construction:
//!
//! 1. **Fixed chunk boundaries.** Work is split into chunks whose
//!    boundaries are a pure function of the input length
//!    ([`deterministic_chunks`] / [`chunk_bounds`]) — never of the thread
//!    count, the scheduler state, or timing. A sweep over 1..=N threads
//!    executes the exact same chunks, merely on different workers.
//! 2. **Exactly-once indexed results.** `map`/`collect`/`for_each` write
//!    each item's result into its own slot (or disjoint `&mut` window), so
//!    scheduling order cannot reorder visible effects.
//! 3. **Fixed-shape reductions.** [`iter::Par::reduce`] folds each chunk
//!    sequentially in item order, then combines the per-chunk partials
//!    along a fixed-shape binary tree (adjacent pairs, level by level).
//!    The floating-point summation order is therefore identical for every
//!    thread count, including one.
//!
//! Point 3 is the one that costs something: a chunked tree reduction is a
//! *different* summation order than a single left fold, so the chunk shape
//! is part of the numerical contract and must not be "tuned" per machine.
//! Integer reductions (interaction counts, node-visit counters) are exact
//! either way.
//!
//! ## Pool model
//!
//! [`pool::ThreadPool::new(t)`](pool::ThreadPool::new) provides `t`
//! execution lanes: `t − 1` spawned workers plus the calling thread, which
//! always helps execute while it waits. `t = 1` therefore runs strictly
//! inline — no worker threads, no synchronization — which is what makes the
//! 1-thread rung of the conformance sweep a true sequential baseline. All
//! queued chunks share one queue under one lock: workers take the oldest,
//! a thread waiting for its own scope takes that scope's newest (else any
//! newest), so an uneven walk group costs only the thread that drew it. Idle threads sleep on one of
//! two condition variables with no timeout; the [`pool`] module docs say
//! why no wake-up can be lost. Panics inside tasks are caught, forwarded,
//! and re-thrown on the calling thread after the scope drains — a poisoned
//! chunk never deadlocks the pool.
//!
//! **Grain.** A `par_*` terminal reached from inside a chunk of an enclosing
//! fan-out runs its chunks inline, in order, while that fan-out still has at
//! least `t − 1` chunks no thread has started — they already fill the other
//! lanes — and fans out otherwise. So a distributed step's rank-level
//! fan-out is the one that spreads, its tail ranks and a one-rank run keep
//! the inner (walk-group) fan-out, and no knob chooses between them. Chunk
//! bounds and the combine tree do not depend on it, so neither do results
//! ([`iter`] module docs).
//!
//! The default global pool sizes itself from the `BONSAI_THREADS`
//! environment variable (falling back to the machine's available
//! parallelism); [`pool::ThreadPool::install`] overrides it for a scope,
//! which is how the thread-sweep benches drive 1/2/4/8-lane runs inside
//! one process.

#![deny(missing_docs)]

pub mod iter;
pub mod pool;

pub use pool::ThreadPool;

/// Upper bound on the number of chunks any single parallel call fans out
/// into. Part of the deterministic-reduction contract: chunk boundaries
/// derive from the input length and this constant only.
pub const MAX_CHUNKS: usize = 64;

/// Number of chunks used for an input of length `n` — a pure function of
/// `n` (never of thread count or timing), as the determinism contract
/// requires.
pub fn deterministic_chunks(n: usize) -> usize {
    n.clamp(1, MAX_CHUNKS)
}

/// Chunk boundaries for `n` items in `c` chunks: `c + 1` offsets starting
/// at 0 and ending at `n`, sizes differing by at most one, larger chunks
/// first. Fixed for a given `(n, c)`.
pub fn chunk_bounds(n: usize, c: usize) -> Vec<usize> {
    assert!(c >= 1);
    let base = n / c;
    let rem = n % c;
    let mut bounds = Vec::with_capacity(c + 1);
    let mut at = 0;
    bounds.push(0);
    for j in 0..c {
        at += base + usize::from(j < rem);
        bounds.push(at);
    }
    debug_assert_eq!(*bounds.last().unwrap(), n);
    bounds
}

/// The rayon-compatible prelude: traits that add the `par_*` methods.
pub mod prelude {
    pub use crate::iter::{
        IntoParallelIterator, IntoParallelRefIterator, IntoParallelRefMutIterator, Par, ParMap,
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunk_bounds_tile_exactly() {
        for n in [0usize, 1, 2, 63, 64, 65, 1000, 4096] {
            let c = deterministic_chunks(n.max(1));
            let b = chunk_bounds(n, c);
            assert_eq!(b[0], 0);
            assert_eq!(*b.last().unwrap(), n);
            for w in b.windows(2) {
                assert!(w[0] <= w[1]);
                assert!(w[1] - w[0] <= n / c + 1);
            }
        }
    }

    #[test]
    fn chunk_count_is_a_function_of_length_only() {
        assert_eq!(deterministic_chunks(1), 1);
        assert_eq!(deterministic_chunks(63), 63);
        assert_eq!(deterministic_chunks(64), MAX_CHUNKS);
        assert_eq!(deterministic_chunks(1 << 20), MAX_CHUNKS);
    }
}

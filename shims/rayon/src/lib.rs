//! Offline shim for [rayon](https://crates.io/crates/rayon), backed by the
//! in-tree [`bonsai_par`] thread pool.
//!
//! The build container has no access to crates.io, so this facade maps the
//! rayon API subset the workspace uses onto `bonsai-par`: `par_iter` /
//! `par_iter_mut` / `into_par_iter` with `map`, `zip`, `enumerate`,
//! `filter`, `for_each`, `collect`, `reduce`, `sum`, and `ThreadPool` — all
//! executing on worker threads of the current pool (sized by
//! `BONSAI_THREADS`, overridable with [`bonsai_par::ThreadPool::install`]).
//! There is no `par_chunks` and no `join`: nothing in the workspace calls
//! them.
//!
//! Unlike upstream rayon, reductions here are **deterministic**: chunk
//! boundaries derive from input length only and partials combine along a
//! fixed-shape binary tree, so results are bit-identical at every thread
//! count. See the `bonsai-par` crate docs for the contract.

pub use bonsai_par::iter::{
    IntoParallelIterator, IntoParallelRefIterator, IntoParallelRefMutIterator, Par, ParMap,
};
pub use bonsai_par::pool::{threads_from_env, ThreadPool};
pub use bonsai_par::MAX_CHUNKS;

/// The rayon prelude: traits that add the `par_*` methods.
pub mod prelude {
    pub use bonsai_par::prelude::*;
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn map_collect_matches_serial() {
        let v = vec![1u32, 2, 3];
        let out: Vec<u32> = v.par_iter().map(|x| x * 2).collect();
        assert_eq!(out, vec![2, 4, 6]);
    }

    #[test]
    fn reduce_with_identity() {
        let v = vec![1u32, 2, 3, 4];
        let s = v.into_par_iter().reduce(|| 0, |a, b| a + b);
        assert_eq!(s, 10);
    }

    #[test]
    fn zip_enumerate_for_each() {
        let mut a = vec![0i64; 3];
        let b = vec![10i64, 20, 30];
        a.par_iter_mut()
            .zip(b.par_iter())
            .enumerate()
            .for_each(|(i, (x, y))| *x = *y + i as i64);
        assert_eq!(a, vec![10, 21, 32]);
    }

    #[test]
    fn runs_on_a_real_pool() {
        let pool = super::ThreadPool::new(4);
        assert_eq!(pool.workers(), 3);
        let ids: Vec<std::thread::ThreadId> = pool.install(|| {
            (0..64usize)
                .into_par_iter()
                .map(|i| {
                    // Enough work per item that workers actually pick up chunks.
                    let mut acc = i as u64;
                    for _ in 0..10_000 {
                        acc = acc.wrapping_mul(6364136223846793005).wrapping_add(1);
                    }
                    let _ = acc;
                    std::thread::current().id()
                })
                .collect()
        });
        assert_eq!(ids.len(), 64);
    }
}

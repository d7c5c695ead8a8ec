//! Property-based tests for the thread pool: for arbitrary input lengths,
//! lane counts and workloads, the parallel combinators must agree *exactly*
//! with their sequential counterparts, panics must propagate without
//! deadlocking the pool, and nested fan-outs must complete.

use bonsai_par::prelude::*;
use bonsai_par::{chunk_bounds, deterministic_chunks, ThreadPool};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn par_map_collect_matches_sequential(xs in proptest::collection::vec(any::<u64>(), 0..500),
                                          lanes in 1usize..9) {
        let expect: Vec<u64> = xs.iter().map(|&x| x.wrapping_mul(0x9E3779B97F4A7C15) ^ 17).collect();
        let got: Vec<u64> = ThreadPool::new(lanes).install(|| {
            xs.clone()
                .into_par_iter()
                .map(|x| x.wrapping_mul(0x9E3779B97F4A7C15) ^ 17)
                .collect()
        });
        prop_assert_eq!(got, expect);
    }

    #[test]
    fn par_float_reduce_is_lane_invariant(xs in proptest::collection::vec(0.0f64..1.0, 1..600),
                                          lanes in 2usize..9) {
        // The reduction tree is a function of length alone, so the sum must
        // be bit-identical on 1 lane and on `lanes` lanes — floats included.
        let one = ThreadPool::new(1).install(|| {
            xs.clone().into_par_iter().map(|x| 1.0 / (x + 0.5)).reduce(|| 0.0, |a, b| a + b)
        });
        let many = ThreadPool::new(lanes).install(|| {
            xs.clone().into_par_iter().map(|x| 1.0 / (x + 0.5)).reduce(|| 0.0, |a, b| a + b)
        });
        prop_assert_eq!(one.to_bits(), many.to_bits());
    }

    #[test]
    fn chunk_bounds_tile_exactly(n in 0usize..100_000, c in 1usize..200) {
        let bounds = chunk_bounds(n, c);
        prop_assert_eq!(bounds[0], 0);
        prop_assert_eq!(*bounds.last().unwrap(), n);
        for w in bounds.windows(2) {
            prop_assert!(w[0] <= w[1]);
            // Balanced: chunk sizes differ by at most one.
            prop_assert!(w[1] - w[0] <= n / c + 1);
        }
        let chunks = deterministic_chunks(n);
        prop_assert!(chunks >= 1 && chunks <= bonsai_par::MAX_CHUNKS.max(1));
    }

    #[test]
    fn nested_fan_outs_complete(depth in 1usize..8, lanes in 1usize..5) {
        // One two-item fan-out per level; from three lanes on, the grain
        // rule lets the nested levels open real scopes.
        fn fib(n: usize) -> u64 {
            if n < 2 {
                return n as u64;
            }
            [n - 1, n - 2].into_par_iter().map(fib).sum()
        }
        let expect = [0, 1, 1, 2, 3, 5, 8, 13][depth];
        let got = ThreadPool::new(lanes).install(|| fib(depth));
        prop_assert_eq!(got, expect);
    }

    #[test]
    fn panic_propagates_without_deadlock(xs in proptest::collection::vec(any::<u64>(), 1..300),
                                         lanes in 1usize..6) {
        let poison = xs[xs.len() / 2];
        let input = xs.clone();
        let result = std::panic::catch_unwind(move || {
            ThreadPool::new(lanes).install(|| {
                input.into_par_iter().for_each(|x| {
                    if x == poison {
                        panic!("boom");
                    }
                });
            })
        });
        prop_assert!(result.is_err(), "poisoned element must panic the caller");
        // The pool that hosted the panic must still be usable afterwards.
        let sum: u64 = ThreadPool::new(lanes)
            .install(|| xs.clone().into_par_iter().map(|x| x % 97).sum());
        let expect: u64 = xs.iter().map(|x| x % 97).sum();
        prop_assert_eq!(sum, expect);
    }

    #[test]
    fn for_each_visits_each_index_exactly_once(n in 0usize..2000, lanes in 1usize..9) {
        use std::sync::atomic::{AtomicU32, Ordering};
        let hits: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(0)).collect();
        ThreadPool::new(lanes).install(|| {
            (0..n).collect::<Vec<_>>().into_par_iter().for_each(|i| {
                hits[i].fetch_add(1, Ordering::Relaxed);
            });
        });
        for (i, h) in hits.iter().enumerate() {
            prop_assert_eq!(h.load(Ordering::Relaxed), 1, "index {} hit count", i);
        }
    }
}

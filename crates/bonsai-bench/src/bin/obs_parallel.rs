//! Thread-sweep observability bench: parallel speedup and bit-determinism
//! of the hot pipeline (tree build → group walk → direct summation) under
//! the `bonsai-par` work-stealing pool. Artifact: `BENCH_parallel.json`
//! (repo root) — schema `bonsai-parallel-v1`, byte-deterministic: per-lane
//! force/tree digests, interaction counts and the determinism +
//! worker-census verdicts. Wall-clock per lane count is printed, not gated.
//!
//! `--pin-one-thread` builds every pool with a single lane regardless of
//! the requested width — the CI self-test proving the structural
//! `workers_ok` gate fires (exit 1).

use bonsai_bench::parallel::{parallel_json, run, ParallelBenchConfig};
use bonsai_bench::{arg_usize, has_flag};

fn main() {
    let d = ParallelBenchConfig::default();
    let cfg = ParallelBenchConfig {
        n: arg_usize("--n", d.n),
        reps: arg_usize("--reps", d.reps),
        seed: arg_usize("--seed", d.seed as usize) as u64,
        threads: d.threads,
        pin_one_thread: has_flag("--pin-one-thread"),
    };
    println!(
        "thread sweep: {} particles, lanes {:?}, best of {} reps{}",
        cfg.n,
        cfg.threads,
        cfg.reps,
        if cfg.pin_one_thread {
            " (SABOTAGE: pools pinned to one lane)"
        } else {
            ""
        }
    );
    let r = run(cfg);

    for p in &r.points {
        println!(
            "  t={:<2} workers={:<2} wall {:>8.4} ms  digest {:016x}  pp {} pc {}",
            p.threads,
            p.workers,
            p.wall_s * 1e3,
            p.digest,
            p.pp,
            p.pc
        );
    }
    println!(
        "  deterministic: {} ({} distinct digest{}), workers_ok: {} ({} core{} available)",
        r.deterministic,
        r.distinct_digests,
        if r.distinct_digests == 1 { "" } else { "s" },
        r.workers_ok,
        r.available_parallelism,
        if r.available_parallelism == 1 { "" } else { "s" }
    );

    std::fs::write("BENCH_parallel.json", parallel_json(&r)).expect("write BENCH_parallel.json");
    println!("wrote BENCH_parallel.json");

    if !r.passed() {
        eprintln!("parallel gate failed");
        std::process::exit(1);
    }
}

//! End-to-end determinism of the observability exports: two clusters built
//! from the same seed must yield byte-identical trace and metrics artefacts
//! (the property the `step` gate relies on for diffable bench trajectories).

use bonsai_bench::step::{run, StepExports};

fn one_run(seed: u64) -> StepExports {
    run(3000, 3, seed)
}

#[test]
fn step_exports_byte_identical_for_fixed_seed() {
    let a = one_run(7);
    let b = one_run(7);
    assert_eq!(
        a.trace_json, b.trace_json,
        "chrome trace differs between identical runs"
    );
    assert_eq!(
        a.folded, b.folded,
        "folded stacks differ between identical runs"
    );
    assert_eq!(
        a.prom, b.prom,
        "prometheus text differs between identical runs"
    );
    assert_eq!(
        a.bench_json, b.bench_json,
        "BENCH_step.json differs between identical runs"
    );
    assert!(
        a.registry_matches,
        "registry reduction diverged from the step breakdown"
    );
    // Sanity: the artefacts are non-trivial.
    assert!(a.trace_json.contains("\"GPU\"") && a.trace_json.contains("\"COMM\""));
    assert!(a.folded.lines().count() > 10);
    assert!(a.prom.contains("bonsai_walk_pp_total"));
}

#[test]
fn different_seeds_produce_different_traces() {
    let a = one_run(7);
    let b = one_run(8);
    assert_ne!(
        a.trace_json, b.trace_json,
        "trace insensitive to the workload seed"
    );
}

//! Thread-sweep bench: the observable proof that `bonsai-par` delivers
//! real parallelism *and* bit-determinism at the same time.
//!
//! The sweep runs the hot pipeline (tree build → group walk → direct
//! summation) on a Milky Way snapshot under dedicated pools of 1, 2, 4 and
//! 8 lanes, hashing every force buffer and every multipole, and writes
//! `BENCH_parallel.json` — schema `bonsai-parallel-v1`, **byte-
//! deterministic** on every machine and at every thread count: per-lane
//! force/tree digests, interaction counts and the two gate verdicts.
//!
//! The gate is about determinism and staffing only, and nothing here reads
//! a clock: on a shared 2-core host three runs of one binary gave a
//! two-lane speed-up of 1.01×, 0.83× and 1.83×. The wall-clock number is
//! `benchmark/`'s host-normalised `par.speedup_t2`.

use crate::milky_way_snapshot;
use bonsai_obs::json::{self, Value};
use bonsai_obs::obj;
use bonsai_tree::build::{Tree, TreeParams};
use bonsai_tree::direct::direct_self_forces;
use bonsai_tree::walk::{self, WalkParams};
use bonsai_tree::{Forces, Particles};
use rayon::ThreadPool;

/// Sweep configuration.
#[derive(Clone, Debug)]
pub struct ParallelBenchConfig {
    /// Particle count of the Milky Way snapshot.
    pub n: usize,
    /// Repetitions per lane count; every one must reproduce the first's
    /// digest and counts.
    pub reps: usize,
    /// IC seed.
    pub seed: u64,
    /// Lane counts to sweep.
    pub threads: Vec<usize>,
    /// Sabotage: build every pool with one lane regardless of the
    /// requested width. The structural `workers_ok` verdict must then
    /// fail — the gate's sabotage, proving the verdict can fire.
    pub pin_one_thread: bool,
}

impl Default for ParallelBenchConfig {
    fn default() -> Self {
        Self {
            n: 4096,
            reps: 3,
            seed: 2014,
            threads: vec![1, 2, 4, 8],
            pin_one_thread: false,
        }
    }
}

/// One lane count's outcome: digest, counts and worker census.
#[derive(Clone, Debug)]
pub struct SweepPoint {
    /// Requested lane count.
    pub threads: usize,
    /// Worker threads the pool actually spawned (lanes − 1 when honest).
    pub workers: usize,
    /// FNV-1a digest over walk forces, direct forces and tree multipoles.
    pub digest: u64,
    /// Particle-particle interactions of the walk.
    pub pp: u64,
    /// Particle-cell interactions of the walk.
    pub pc: u64,
    /// Traversal stack pops of the walk.
    pub nodes_visited: u64,
}

/// The sweep outcome plus the two gate verdicts.
#[derive(Clone, Debug)]
pub struct ParallelResult {
    /// One point per requested lane count, in sweep order.
    pub points: Vec<SweepPoint>,
    /// Number of distinct digests across the sweep (1 ⇔ deterministic).
    pub distinct_digests: usize,
    /// Every lane count, on every repetition, produced the 1-lane bit
    /// pattern and stats.
    pub deterministic: bool,
    /// Every pool spawned exactly `threads − 1` workers.
    pub workers_ok: bool,
    /// The configuration that produced this result.
    pub config: ParallelBenchConfig,
}

impl ParallelResult {
    /// Both gates green.
    pub fn passed(&self) -> bool {
        self.deterministic && self.workers_ok
    }
}

/// FNV-1a over a stream of u64 words.
fn fnv1a(words: impl Iterator<Item = u64>) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
    }
    h
}

fn force_words(f: &Forces) -> impl Iterator<Item = u64> + '_ {
    f.acc
        .iter()
        .zip(&f.pot)
        .flat_map(|(a, &p)| [a.x.to_bits(), a.y.to_bits(), a.z.to_bits(), p.to_bits()])
}

#[derive(Clone, Copy, PartialEq, Eq)]
struct PipelineOutcome {
    digest: u64,
    pp: u64,
    pc: u64,
    nodes_visited: u64,
}

/// The hot pipeline: build, walk, direct — exactly the three paths the pool
/// was wired through.
fn pipeline(ic: &Particles) -> PipelineOutcome {
    let tree = Tree::build(ic.clone(), TreeParams::default());
    let (walk_forces, stats) = walk::self_gravity(&tree, &WalkParams::new(0.4, 0.01));
    let (direct_forces, _) = direct_self_forces(&tree.particles, 0.01, 1.0);
    let tree_words = tree.nodes.iter().flat_map(|n| {
        [
            n.com.x.to_bits(),
            n.com.y.to_bits(),
            n.com.z.to_bits(),
            n.mass.to_bits(),
        ]
        .into_iter()
        .chain(n.quad.m.iter().map(|q| q.to_bits()))
    });
    let digest = fnv1a(
        force_words(&walk_forces)
            .chain(force_words(&direct_forces))
            .chain(tree_words),
    );
    PipelineOutcome {
        digest,
        pp: stats.counts.pp,
        pc: stats.counts.pc,
        nodes_visited: stats.nodes_visited,
    }
}

/// Run the sweep.
pub fn run(cfg: ParallelBenchConfig) -> ParallelResult {
    let ic = milky_way_snapshot(cfg.n, cfg.seed);
    sweep(cfg, || pipeline(&ic))
}

/// The sweep over `produce`, called `reps` times inside each lane count's
/// pool.
fn sweep(cfg: ParallelBenchConfig, mut produce: impl FnMut() -> PipelineOutcome) -> ParallelResult {
    assert!(!cfg.threads.is_empty(), "sweep needs at least one lane count");
    let mut points = Vec::with_capacity(cfg.threads.len());
    let mut repeatable = true;
    for &t in &cfg.threads {
        let lanes = if cfg.pin_one_thread { 1 } else { t };
        let pool = ThreadPool::new(lanes);
        let first = pool.install(&mut produce);
        for _ in 1..cfg.reps {
            repeatable &= pool.install(&mut produce) == first;
        }
        points.push(SweepPoint {
            threads: t,
            workers: pool.workers(),
            digest: first.digest,
            pp: first.pp,
            pc: first.pc,
            nodes_visited: first.nodes_visited,
        });
    }

    let base = &points[0];
    let mut digests: Vec<u64> = points.iter().map(|p| p.digest).collect();
    digests.sort_unstable();
    digests.dedup();
    let deterministic = repeatable
        && digests.len() == 1
        && points
            .iter()
            .all(|p| (p.pp, p.pc, p.nodes_visited) == (base.pp, base.pc, base.nodes_visited));
    let workers_ok = points.iter().all(|p| p.workers == p.threads - 1);

    ParallelResult {
        distinct_digests: digests.len(),
        points,
        deterministic,
        workers_ok,
        config: cfg,
    }
}

/// `BENCH_parallel.json`: schema `bonsai-parallel-v1`. Deterministic
/// content only — no wall-clock fields — so the document is byte-identical
/// across runs, machines and thread counts.
pub fn parallel_json(r: &ParallelResult) -> String {
    let c = &r.config;
    let sweep: Vec<Value> = r
        .points
        .iter()
        .map(|p| {
            obj!("threads": p.threads, "workers": p.workers,
                "force_digest": format!("{:016x}", p.digest),
                "pp": p.pp, "pc": p.pc, "nodes_visited": p.nodes_visited)
        })
        .collect();
    json::write(&obj!(
        "schema": "bonsai-parallel-v1",
        "config": obj!("n": c.n, "reps": c.reps, "seed": c.seed,
            "threads": c.threads.clone(), "pin_one_thread": c.pin_one_thread),
        "sweep": sweep,
        "distinct_digests": r.distinct_digests,
        "gate": obj!("deterministic": r.deterministic, "workers_ok": r.workers_ok,
            "passed": r.passed()),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::artifact::parse_artifact;

    fn tiny() -> ParallelBenchConfig {
        ParallelBenchConfig {
            n: 400,
            reps: 1,
            seed: 7,
            threads: vec![1, 2, 4],
            pin_one_thread: false,
        }
    }

    #[test]
    fn sweep_is_deterministic_and_fully_staffed() {
        let r = run(tiny());
        assert!(r.deterministic, "digests diverged: {:#?}", r.points);
        assert!(r.workers_ok);
        assert_eq!(r.distinct_digests, 1);
        for (p, &t) in r.points.iter().zip(&[1usize, 2, 4]) {
            assert_eq!(p.threads, t);
            assert_eq!(p.workers, t - 1);
            assert!(p.pp > 0 && p.pc > 0);
        }
    }

    #[test]
    fn a_repetition_that_differs_from_the_first_fails_deterministic() {
        // Every call agrees except the second one overall — repetition 1 of
        // the first lane count. Comparing lane counts alone would pass it.
        let mut calls = 0;
        let stub = || {
            calls += 1;
            PipelineOutcome {
                digest: if calls == 2 { 0xbad } else { 0x600d },
                pp: 1,
                pc: 1,
                nodes_visited: 1,
            }
        };
        let r = sweep(ParallelBenchConfig { reps: 3, ..tiny() }, stub);
        assert_eq!(r.distinct_digests, 1, "the first repetitions all agree");
        assert!(!r.deterministic);
        assert!(!r.passed());
    }

    #[test]
    fn artifact_is_byte_identical_across_runs() {
        let a = parallel_json(&run(tiny()));
        let b = parallel_json(&run(tiny()));
        assert_eq!(a, b, "BENCH_parallel.json must be byte-deterministic");
        let art = parse_artifact(&a).unwrap();
        assert_eq!(art.kind, "parallel");
        assert_eq!(art.version, 1);
    }

    #[test]
    fn pin_one_thread_sabotage_trips_the_workers_gate() {
        let cfg = ParallelBenchConfig {
            pin_one_thread: true,
            ..tiny()
        };
        let r = run(cfg);
        assert!(!r.workers_ok, "sabotaged pools must fail the census");
        assert!(!r.passed());
        // The physics stays right even when sabotaged — only width is lost.
        assert!(r.deterministic);
    }
}

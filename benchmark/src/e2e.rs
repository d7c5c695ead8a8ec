//! The untraced run: what a user of the tree-code sees.
//!
//! Closed loop, one client: step *k+1* starts when step *k* returns. The
//! run sets the engine up several times (the last instance is the one
//! stepped), warms it up, then makes the number of steps the requested run
//! length stands for and reports the step-time distribution, throughput,
//! creep and peak memory, in host-normalised seconds (see [`crate::host`]).
//! Correctness checks run between and after the timed steps, never inside
//! a timed interval.

use crate::checks::{self, Ops, Subscriber};
use crate::host::HostSpeed;
use crate::report::{RunResult, Values};
use crate::stats::{creep, median, peak_rss_mb, quantile};
use crate::workload::Workload;
use bonsai_par::ThreadPool;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};

/// How one run is driven.
#[derive(Clone, Debug)]
pub struct RunPlan {
    /// Seeds the initial conditions and the fault plan.
    pub seed: u64,
    /// Seconds the measured loop lasts on the reference host; each
    /// workload turns it into a fixed number of steps.
    pub seconds: f64,
    /// Steps the measured loop makes at least, however slow the host.
    pub min_steps: usize,
    /// Untimed steps before measuring: first-touch allocation, the
    /// balancer's first real weights, lazy thread start.
    pub warmup: usize,
    /// Fresh set-ups timed for `setup_s`.
    pub setups: usize,
    /// Directory for traces and checkpoint scratch.
    pub out_dir: PathBuf,
}

impl RunPlan {
    /// The benchmark's own settings for a `seconds`-long untraced run.
    pub fn untraced(seed: u64, seconds: f64, out_dir: PathBuf) -> Self {
        Self {
            seed,
            seconds,
            min_steps: 20,
            warmup: 3,
            setups: 5,
            out_dir,
        }
    }

    /// The same for a traced run, whose steps each cost a replay as well:
    /// fewer of them, and they are also the window the counts are taken
    /// over.
    pub fn traced(seed: u64, seconds: f64, out_dir: PathBuf) -> Self {
        Self {
            min_steps: 10,
            ..Self::untraced(seed, seconds, out_dir)
        }
    }

    /// Gravity epoch at which the chaos workload loses a rank: a few steps
    /// into the measured loop, early enough that the shortest run reaches
    /// it. Construction is epoch 1 and every step without a rollback is one
    /// more.
    pub fn crash_epoch(&self) -> u64 {
        (1 + self.warmup + self.min_steps.min(8)) as u64
    }
}

/// A checkpoint directory unique to this process, removed on drop.
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    /// `out_dir/ckpt_<label>_<pid>`, created empty.
    pub fn new(out_dir: &Path, label: &str) -> Self {
        let dir = out_dir.join(format!("ckpt_{label}_{}", std::process::id()));
        // A stale directory from a recycled pid must not leak into this run.
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create checkpoint scratch directory");
        Self(dir)
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Run `w` untraced and report the end-to-end metrics.
pub fn run(w: &Workload, plan: &RunPlan) -> RunResult {
    ThreadPool::new(w.lanes).install(|| run_on_pool(w, plan))
}

fn run_on_pool(w: &Workload, plan: &RunPlan) -> RunResult {
    let scratch = ScratchDir::new(&plan.out_dir, w.name);
    let mut ops = Ops::default();
    let mut sub = Subscriber::default();

    // Set-up, several times over; only the last engine is kept, and each is
    // dropped before the next is built so peak memory is one engine's.
    let host = HostSpeed::new(w.lanes);
    let mut slowdown = host.slowdown();
    let mut setup_s = Vec::with_capacity(plan.setups);
    let mut engine = None;
    for _ in 0..plan.setups {
        drop(engine.take());
        let (built, seconds) = host.timed(&mut slowdown, || {
            let ic = w.generate(plan.seed);
            w.engine(ic, plan.seed, w.lanes, plan.crash_epoch(), scratch.path())
        });
        engine = Some(built);
        setup_s.push(seconds.normalised);
    }
    let mut engine = engine.expect("at least one set-up");
    let expected_ids = engine.sorted_ids();
    let e0 = engine.total_energy();

    for _ in 0..plan.warmup {
        engine.step();
        sub.drain(&mut engine);
    }

    let n_steps = w.steps_for(plan.seconds, plan.min_steps);
    let mut steps: Vec<f64> = Vec::with_capacity(n_steps);
    while steps.len() < n_steps {
        let what = format!("step {}", steps.len() + 1);
        // The previous step's checks ran since the last sample.
        slowdown = host.slowdown();
        let (stepped, seconds) = host.timed(&mut slowdown, || {
            catch_unwind(AssertUnwindSafe(|| engine.step()))
        });
        if stepped.is_err() {
            // The engine's state is unknown after a panic: stop stepping.
            ops.record(&what, Some("panicked".to_string()));
            break;
        }
        steps.push(seconds.normalised);
        sub.drain(&mut engine);
        ops.record(&what, checks::step_problem(&engine, &expected_ids));
    }
    let rss = peak_rss_mb();
    assert!(!steps.is_empty(), "no step completed; nothing to report");

    checks::end_of_run(&mut ops, &engine, w, &sub, e0, plan.crash_epoch());

    let mut values = Values::new();
    values.insert("setup_s", median(&setup_s));
    values.insert("step_s_p50", median(&steps));
    values.insert("step_s_p90", quantile(&steps, 0.9));
    values.insert(
        "particles_per_s",
        (w.n * steps.len()) as f64 / steps.iter().sum::<f64>(),
    );
    values.insert("step_creep", creep(&steps));
    values.insert("peak_rss_mb", rss);
    RunResult { ops, values }
}

//! The four Milky Way workloads and the engine each one drives.
//!
//! Every workload is the paper's galaxy model at θ = 0.4 with quadrupoles,
//! galactic units, a 3 Myr step and the `bonsai-bench` softening recipe;
//! they differ in how the same physics is spread over ranks and lanes, and
//! in whether the fabric misbehaves. Lanes are fixed per workload and never
//! read from the host.

use bonsai_core::{Simulation, SimulationConfig};
use bonsai_ic::MilkyWayModel;
use bonsai_net::fault::{FaultKind, FaultPlan};
use bonsai_obs::stream::SubscriberConfig;
use bonsai_sim::{Cluster, ClusterConfig, LongRunConfig, RecoveryConfig, StreamConfig};
use bonsai_tree::Particles;
use bonsai_util::{units, Vec3};
use std::collections::HashMap;
use std::path::Path;

/// Opening angle of every workload (the paper's production value).
pub const THETA: f64 = 0.4;

/// Per-message probability of each message-level fault kind on the chaos
/// workload.
const CHAOS_FAULT_RATE: f64 = 0.01;

/// Steps between recovery checkpoints on the chaos workload.
const CHAOS_CHECKPOINT_EVERY: u64 = 4;

/// Ring capacity of the chaos workload's one telemetry subscriber.
const CHAOS_SUBSCRIBER_CAPACITY: usize = 64;

/// What a workload runs on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Shape {
    /// `bonsai_core::Simulation` on one process.
    Single,
    /// `bonsai_sim::Cluster` over this many logical ranks.
    Cluster(usize),
    /// `Cluster::with_faults` over this many ranks, with a seeded fault
    /// plan, a scheduled crash, recovery checkpoints, long-run monitoring
    /// and a streaming subscriber.
    Chaos(usize),
}

impl Shape {
    /// Logical ranks (1 for the single-process engine).
    pub fn ranks(self) -> usize {
        match self {
            Shape::Single => 1,
            Shape::Cluster(r) | Shape::Chaos(r) => r,
        }
    }
}

/// One benchmark workload.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    /// Stable name later issues refer to.
    pub name: &'static str,
    /// Total particles.
    pub n: usize,
    /// Engine and rank count.
    pub shape: Shape,
    /// Execution lanes of the `bonsai-par` pool.
    pub lanes: usize,
    /// Seconds a step takes on the reference host at the seed commit. Only
    /// turns a requested run length into a step count, so that a run does
    /// the same work on every host and at every commit: memory and creep
    /// grow with steps made, not with seconds passed.
    pub nominal_step_s: f64,
}

/// The benchmark's workloads, in reporting order. `BENCHMARK.json` and
/// `README.md` record why each was chosen.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "mw_r1",
        n: 16384,
        shape: Shape::Single,
        lanes: 1,
        nominal_step_s: 0.30,
    },
    Workload {
        name: "mw_r8",
        n: 16384,
        shape: Shape::Cluster(8),
        lanes: 2,
        nominal_step_s: 0.24,
    },
    Workload {
        name: "mw_r64_thin",
        n: 8192,
        shape: Shape::Cluster(64),
        lanes: 1,
        nominal_step_s: 0.45,
    },
    Workload {
        name: "mw_r32_chaos",
        n: 8192,
        shape: Shape::Chaos(32),
        lanes: 1,
        nominal_step_s: 0.35,
    },
];

/// Look a workload up by name.
pub fn find(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

impl Workload {
    /// The same workload with `1/div` of the particles (the smoke test).
    pub fn scaled_down(mut self, div: usize) -> Workload {
        self.n /= div;
        self
    }

    /// Steps of a run meant to measure for `seconds`, at least `min_steps`.
    pub fn steps_for(&self, seconds: f64, min_steps: usize) -> usize {
        ((seconds / self.nominal_step_s).round() as usize).max(min_steps)
    }

    /// Plummer softening: the `bonsai-bench` recipe, 0.1 kpc at N = 2·10⁵
    /// scaled with the mean inter-particle distance.
    pub fn eps(&self) -> f64 {
        0.1 * (2.0e5_f64 / self.n as f64).powf(1.0 / 3.0)
    }

    /// Generate the initial conditions: the program under test only ever
    /// sees these particles, never the seed.
    pub fn generate(&self, seed: u64) -> Particles {
        MilkyWayModel::paper().generate(self.n, seed)
    }

    /// Cluster configuration of the distributed shapes at `lanes` lanes.
    fn cluster_config(&self, lanes: usize) -> ClusterConfig {
        ClusterConfig {
            theta: THETA,
            eps: self.eps(),
            dt: units::myr_to_internal(3.0),
            g: units::G,
            threads: Some(lanes),
            ..ClusterConfig::default()
        }
    }

    /// Build the engine from generated particles: initial forces, and for
    /// the chaos shape the initial checkpoint under `ckpt_dir`, the
    /// monitors and the subscriber. `crash_epoch` is the gravity epoch at
    /// which the chaos shape loses its last rank. `lanes` overrides the
    /// workload's lane count (the traced run measures at 1 and 2).
    pub fn engine(
        &self,
        ic: Particles,
        seed: u64,
        lanes: usize,
        crash_epoch: u64,
        ckpt_dir: &Path,
    ) -> Engine {
        match self.shape {
            Shape::Single => {
                let mut cfg = SimulationConfig::galactic(self.eps(), units::myr_to_internal(3.0));
                cfg.theta = THETA;
                Engine::Single(Box::new(Simulation::new(ic, cfg)))
            }
            Shape::Cluster(ranks) => Engine::Cluster(Box::new(Cluster::new(
                ic,
                ranks,
                self.cluster_config(lanes),
            ))),
            Shape::Chaos(ranks) => {
                let mut plan = FaultPlan::new(seed).with_crash(ranks - 1, crash_epoch);
                for kind in FaultKind::MESSAGE_KINDS {
                    plan = plan.with_rate(kind, CHAOS_FAULT_RATE);
                }
                let recovery = RecoveryConfig {
                    dir: ckpt_dir.to_path_buf(),
                    every: CHAOS_CHECKPOINT_EVERY,
                };
                let mut cluster = Cluster::with_faults(
                    ic,
                    ranks,
                    self.cluster_config(lanes),
                    plan,
                    Some(recovery),
                );
                cluster.enable_longrun(LongRunConfig::default());
                cluster.enable_streaming(StreamConfig {
                    subscribers: vec![SubscriberConfig::new("bench", CHAOS_SUBSCRIBER_CAPACITY)],
                    ..StreamConfig::default()
                });
                Engine::Cluster(Box::new(cluster))
            }
        }
    }
}

/// What the engine itself reports about a step (zero where the engine has
/// no such notion).
#[derive(Clone, Copy, Debug)]
pub struct StepReport {
    /// Wall seconds the single-process engine spent in its force phase.
    pub force_seconds: f64,
    /// Modelled seconds the cluster priced the step at on its machine model.
    pub model_seconds: f64,
}

/// The system under test behind one closed-loop client.
pub enum Engine {
    /// Single-process tree-code.
    Single(Box<Simulation>),
    /// Lock-step logical-rank cluster.
    Cluster(Box<Cluster>),
}

impl Engine {
    /// One full step. The single-process engine runs on whatever pool the
    /// caller installed; the cluster installs its own.
    pub fn step(&mut self) -> StepReport {
        match self {
            Engine::Single(sim) => StepReport {
                force_seconds: sim.step().force_seconds,
                model_seconds: 0.0,
            },
            Engine::Cluster(c) => StepReport {
                force_seconds: 0.0,
                model_seconds: c.step().total(),
            },
        }
    }

    /// The cluster, when this is a distributed engine.
    pub fn cluster(&self) -> Option<&Cluster> {
        match self {
            Engine::Single(_) => None,
            Engine::Cluster(c) => Some(c),
        }
    }

    /// Mutable cluster access (draining the telemetry subscriber).
    pub fn cluster_mut(&mut self) -> Option<&mut Cluster> {
        match self {
            Engine::Single(_) => None,
            Engine::Cluster(c) => Some(c),
        }
    }

    /// Every particle id, ascending.
    pub fn sorted_ids(&self) -> Vec<u64> {
        let mut ids = match self {
            Engine::Single(sim) => sim.particles().id.clone(),
            Engine::Cluster(c) => (0..c.rank_count())
                .flat_map(|r| c.rank_particles(r).id.iter().copied())
                .collect(),
        };
        ids.sort_unstable();
        ids
    }

    /// All particles (order unspecified).
    pub fn gather(&self) -> Particles {
        match self {
            Engine::Single(sim) => sim.particles().clone(),
            Engine::Cluster(c) => c.gather(),
        }
    }

    /// Current accelerations keyed by particle id.
    pub fn accelerations_by_id(&self) -> HashMap<u64, Vec3> {
        match self {
            Engine::Single(sim) => sim.accelerations_by_id(),
            Engine::Cluster(c) => c.accelerations_by_id(),
        }
    }

    /// Total energy from the stored tree potentials.
    pub fn total_energy(&self) -> f64 {
        match self {
            Engine::Single(sim) => sim.energy_report().total(),
            Engine::Cluster(c) => c.energy_report().total(),
        }
    }
}

//! The lock-step cluster simulator: the paper's full distributed step
//! (§III-B) executed for real on logical ranks.
//!
//! Every phase manipulates real data — keys are sampled and cut, particles
//! migrate, boundary trees and LETs are built, serialized and re-parsed, and
//! per-rank force walks consume local trees plus remote LETs. What is
//! *simulated* is only time: measured interaction counts and byte volumes
//! are charged to the GPU model (`bonsai-gpu`) and network model
//! (`bonsai-net`) of the configured machine, yielding a Table II style
//! [`StepBreakdown`] per step.
//!
//! Every inter-rank payload crosses the real message fabric inside a
//! checksummed envelope, over the cluster's one [`Wire`], which can inject a
//! seeded [`FaultPlan`]: drops, duplicates, reorders, delays, truncation,
//! bit flips, rank stalls and hard crashes. The step survives them —
//! invalid frames are discarded and retransmitted within one bounded
//! budget, and a rank silent through it (crashed, stalled, or with every
//! copy of one frame lost) is declared dead and replaced by rolling the
//! cluster back to its last checkpoint: a fixed world replays to the
//! fault-free bits, an elastic one goes on without the rank. Every
//! injected fault and every recovery action lands in the [`FaultLog`], so
//! a chaos run can be audited end to end.
//!
//! The result is provably faithful: tests assert the distributed forces
//! agree with a direct-summation reference at the MAC-bounded error level,
//! that ranks respect the 30% load cap, and that distant ranks reuse the
//! broadcast boundary trees as LETs while only near neighbours receive
//! dedicated ones — the communication-avoidance core of the paper.
//!
//! The module, by file:
//!
//! * this file — configuration, the [`Cluster`] state, constructors,
//!   accessors, and the leapfrog [`Cluster::step`] around the gravity epoch;
//! * `gravity` — the gravity epoch as the paper's step: `bounds` →
//!   `update_domains` → `migrate` → `build` → `boundaries` → `let_rounds` →
//!   `store`, one function per Table II row but the LET exchange and the
//!   walk, which go a batch of receivers at a time in one (§III-B1 domain
//!   update, §III-A tree build and walk, §III-B2 boundary trees and LETs),
//!   every exchange one call of [`bonsai_net::collective::exchange`];
//! * `recovery` — where every epoch begins, and the checkpoint rollback
//!   that returns the cluster at the step it left, at a fixed world size or
//!   over the survivors (§VI-C);
//! * `membership` — online grow / shrink: gossip to an agreed view, re-split
//!   the key space, migrate over the fabric;
//! * `observe` — the completed epoch charged to the machine models and
//!   recorded as spans, fault instants and metrics, and the flow arrows
//!   drawn from the ledger when they are read.

mod gravity;
mod membership;
mod observe;
mod recovery;

pub use gravity::factor_ranks;

use crate::breakdown::StepBreakdown;
use crate::longrun::RunMonitor;
use bonsai_core::leapfrog;
use bonsai_gpu::{GpuModel, KernelVariant, K20X};
use bonsai_net::fault::{FaultLog, FaultPlan, Wire};
use bonsai_net::membership::{MembershipLog, View};
use bonsai_net::obs::ExchangeWindows;
use bonsai_net::{MachineSpec, NetworkModel, PIZ_DAINT};
use bonsai_obs::{MetricsRegistry, TraceStore};
use bonsai_sfc::KeyRange;
use bonsai_tree::build::TreeParams;
use bonsai_tree::{Forces, InteractionCounts, Particles};
use bonsai_util::Vec3;
use recovery::seed_decomposition;
use std::path::PathBuf;
use std::sync::Arc;

/// The one retry budget. Every exchange retransmits a missing frame this
/// many times; a peer silent through all of them is declared dead and the
/// cluster rolls back to its last checkpoint. A step, a construction or a
/// view change that would need more consecutive rollbacks than this
/// panics instead of looping.
pub use bonsai_net::collective::MAX_RETRIES;

/// Configuration of a cluster run.
#[derive(Clone, Debug)]
pub struct ClusterConfig {
    /// Opening angle θ.
    pub theta: f64,
    /// Plummer softening.
    pub eps: f64,
    /// Time step.
    pub dt: f64,
    /// Gravitational constant.
    pub g: f64,
    /// Tree parameters (NLEAF, curve, group size).
    pub tree: TreeParams,
    /// Machine whose GPU/network models are charged.
    pub machine: MachineSpec,
    /// Coarse sampling count per rank (rate R1 of §III-B1).
    pub sample_s1: usize,
    /// Fine sampling count per rank (rate R2).
    pub sample_s2: usize,
    /// Particle-count cap relative to mean (paper: 1.3).
    pub cap: f64,
    /// Execution lanes for the in-process thread pool the gravity phases
    /// run on. `None` uses the process-global pool (sized by the
    /// `BONSAI_THREADS` environment variable, falling back to the
    /// machine's available parallelism). Results are bit-identical for
    /// every setting — the pool's deterministic-reduction contract — so
    /// this only trades wall-clock time.
    pub threads: Option<usize>,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        Self {
            theta: 0.4,
            eps: 0.01,
            dt: 0.01,
            g: 1.0,
            tree: TreeParams::default(),
            machine: PIZ_DAINT,
            sample_s1: 16,
            sample_s2: 64,
            cap: 1.3,
            threads: None,
        }
    }
}

/// Where (and how often) the cluster checkpoints itself so a crashed rank
/// can be recovered by rollback.
#[derive(Clone, Debug)]
pub struct RecoveryConfig {
    /// Directory checkpoints are written to (created if missing).
    pub dir: PathBuf,
    /// Checkpoint every `every` completed steps (0 = only the initial one).
    pub every: u64,
}

/// Per-step measured quantities (what the real algorithm produced).
#[derive(Clone, Debug, Default)]
pub struct StepMeasurements {
    /// Serialized boundary-tree bytes per rank.
    pub boundary_bytes: Vec<usize>,
    /// Dedicated-LET bytes sent per rank.
    pub let_bytes_sent: Vec<usize>,
    /// Number of dedicated LETs each rank had to send.
    pub let_neighbors: Vec<usize>,
    /// Particle-exchange bytes sent per rank.
    pub exchange_bytes: Vec<usize>,
    /// Local-tree interaction counts per rank.
    pub counts_local: Vec<InteractionCounts>,
    /// LET interaction counts per rank.
    pub counts_lets: Vec<InteractionCounts>,
    /// Max/mean particle imbalance after the exchange.
    pub imbalance: f64,
    /// Keys each rank contributed to the two-level sample sort (the
    /// load-balance bookkeeping volume; 0 on single-rank runs).
    pub sampled_keys: Vec<usize>,
    /// Payload bytes sent again to recover lost or invalid frames, as the
    /// flow ledger counts them for the epoch.
    pub retransmit_bytes: usize,
    /// Always 0: a dedicated LET lost through the retry budget rolls the
    /// cluster back, so a completed epoch has received every one. Kept only
    /// for the benchmark, which still reads it.
    pub degraded_lets: usize,
    /// Recovery actions taken during the successful gravity epoch; the
    /// events themselves, and those of failed epochs, are in
    /// [`Cluster::fault_log`].
    pub recovery_actions: usize,
}

/// A finished step as a value: what the observers riding on
/// [`Cluster::step`] are handed in place of the cluster, and what a test
/// checks its invariants over ([`Cluster::step_facts`]). Plain data — no
/// borrow of the cluster outlives its construction.
#[derive(Clone, Debug, Default)]
pub struct StepFacts {
    /// Completed steps.
    pub step: u64,
    /// Gravity epochs executed so far.
    pub epoch: u64,
    /// Simulation time.
    pub time: f64,
    /// Rank count.
    pub world: usize,
    /// Total particles across ranks.
    pub particles: usize,
    /// Number of the current membership view.
    pub view: u64,
    /// Energy/momentum diagnostics; on the step path filled only for the
    /// run monitor, which measures drift with it.
    pub energy: Option<bonsai_analysis::EnergyReport>,
    /// Flow-conservation totals over the whole run.
    pub flows: bonsai_net::flow::FlowConservation,
}

/// A cluster of logical ranks executing Bonsai's distributed step.
pub struct Cluster {
    /// Configuration.
    pub cfg: ClusterConfig,
    gpu: GpuModel,
    net: NetworkModel,
    /// Per-rank particles (SFC order after each step).
    ranks: Vec<Particles>,
    /// Per-rank accelerations and potentials aligned with `ranks`.
    forces: Vec<Forces>,
    /// Current domain partition.
    domains: Vec<KeyRange>,
    /// Per-rank flop weights from the previous gravity phase.
    weights: Vec<f64>,
    time: f64,
    steps: u64,
    /// The fabric (one endpoint per rank), the fault plan applied on sends,
    /// the fault log and the flow ledger — the lifecycle of every envelope
    /// sealed (seal → inject → retransmit → deliver | dead) —
    /// both appended in driver order, so deterministic per plan. The
    /// ledger holds the trace's window of epochs plus run totals.
    wire: Wire,
    /// Monotonic gravity-phase counter. Never rewinds — a checkpoint
    /// rollback keeps advancing it, which is what makes stale frames from
    /// failed epochs detectable and scheduled crashes fire exactly once.
    epoch: u64,
    /// Ranks currently considered dead (crashed, awaiting recovery).
    dead: Vec<bool>,
    recovery: Option<RecoveryConfig>,
    /// Measurements of the most recent gravity phase.
    pub last_measurements: StepMeasurements,
    /// Span/event trace of the recent completed gravity epochs (the last
    /// [`bonsai_obs::TRACE_WINDOW`] epochs). It holds no flow arrow: they
    /// are drawn from the flow ledger and `exchange_windows` when read.
    trace: TraceStore,
    /// Each recorded epoch's clock base and per-rank LET-exchange windows:
    /// what drawing its arrows needs beside the ledger, evicted with the
    /// trace and the ledger.
    exchange_windows: ExchangeWindows,
    /// Metrics registry: monotonic counters over the whole run plus the
    /// most recent epoch's gauges.
    registry: MetricsRegistry,
    /// Global simulated clock base: completed epochs lay out sequentially.
    trace_clock: f64,
    /// The run monitor (time series, health rules, incidents, and the
    /// telemetry tap and autoscaling policy when attached), enabled via
    /// [`Cluster::enable_longrun`].
    monitor: Option<RunMonitor>,
    /// Current membership view; `view.members[rank]` is the stable node id
    /// holding `rank`, so the view *is* the rank assignment.
    view: View,
    /// Audit log of every completed view change.
    membership: MembershipLog,
    /// When true, a crashed rank is *removed from the view* during
    /// recovery (the survivors re-decompose the checkpoint among
    /// themselves) instead of being resurrected at the same world size.
    elastic: bool,
    /// Validation self-test hook: when true, view-change migrations
    /// silently discard every outbound migrant instead of shipping it —
    /// the sabotage the CI membership gate must catch through its particle
    /// conservation check. Never set in real runs.
    drop_migrants: bool,
    /// Dedicated thread pool when `cfg.threads` is set; `None` defers to
    /// the process-global pool. Shared via `Arc` so `step` can install it
    /// while mutably borrowing the rest of the cluster.
    pool: Option<Arc<rayon::ThreadPool>>,
    /// Each sender's LET frame buffers, one per pool lane, kept across
    /// rounds and epochs.
    let_buffers: Vec<Vec<Vec<u8>>>,
}

impl Cluster {
    /// Distribute `all` particles over `p` ranks and evaluate initial forces.
    pub fn new(all: Particles, p: usize, cfg: ClusterConfig) -> Self {
        Self::with_faults(all, p, cfg, FaultPlan::new(0), None)
    }

    /// Like [`Cluster::new`], but with a fault-injection plan and an
    /// optional checkpoint-based recovery configuration. With an empty plan
    /// the wire's sends are transparent (framed) pass-throughs and the step is
    /// byte-for-byte the fault-free algorithm.
    ///
    /// Crash faults require `recovery`: a rank death is survived by rolling
    /// back to the last checkpoint, so without one the step panics when a
    /// rank dies. At a fixed world size the rollback adopts the checkpoint's
    /// domains, load weights and forces verbatim, so the replay repeats the
    /// run that wrote it bit for bit. Rank-level faults need `p > 1` to be
    /// observable.
    pub fn with_faults(
        all: Particles,
        p: usize,
        cfg: ClusterConfig,
        plan: FaultPlan,
        recovery: Option<RecoveryConfig>,
    ) -> Self {
        assert!(p > 0 && !all.is_empty());
        let mut cluster = Self::at_rest(p, cfg, plan, recovery);
        (cluster.ranks, cluster.domains) = seed_decomposition(&all, p, &cluster.cfg);
        // Checkpoint the initial conditions *before* the first force
        // computation: a rank can die (or be falsely declared dead under
        // extreme fault rates) in the very first gravity epoch, and
        // recovery needs something to roll back to.
        cluster.write_recovery_checkpoint();
        cluster.on_pool(|c| {
            if let Err(silent) = c.try_gravity_phase() {
                c.restore_from_checkpoint(silent, &mut 0);
            }
        });
        cluster
    }

    /// A cluster of `p` empty ranks at time zero with no domains or forces,
    /// unit load weights and a fresh fabric, log and ledger.
    fn at_rest(
        p: usize,
        cfg: ClusterConfig,
        plan: FaultPlan,
        recovery: Option<RecoveryConfig>,
    ) -> Self {
        Self {
            gpu: GpuModel::new(K20X, KernelVariant::TreeKeplerTuned),
            net: NetworkModel::new(cfg.machine),
            pool: cfg.threads.map(|t| Arc::new(rayon::ThreadPool::new(t))),
            cfg,
            forces: vec![Forces::default(); p],
            ranks: vec![Particles::new(); p],
            domains: Vec::new(),
            weights: vec![1.0; p],
            time: 0.0,
            steps: 0,
            wire: Wire::new(p, plan),
            epoch: 0,
            dead: vec![false; p],
            recovery,
            last_measurements: StepMeasurements::default(),
            trace: TraceStore::new(),
            exchange_windows: ExchangeWindows::new(),
            registry: MetricsRegistry::new(),
            trace_clock: 0.0,
            monitor: None,
            view: View::initial(p),
            membership: MembershipLog::new(),
            elastic: false,
            drop_migrants: false,
            let_buffers: Vec::new(),
        }
    }

    /// A cluster of `p` ranks restored from `ck` (no fault plan, no
    /// recovery checkpoints), the clock carrying on from the snapshot, with
    /// forces: the checkpoint's own when `p` ranks wrote it, else one
    /// gravity epoch's. The body of
    /// [`restore_cluster`](crate::checkpoint::restore_cluster).
    pub(crate) fn from_checkpoint(
        ck: crate::checkpoint::Checkpoint,
        p: usize,
        cfg: ClusterConfig,
    ) -> Self {
        let mut c = Self::at_rest(p, cfg, FaultPlan::new(0), None);
        let held = c.adopt(ck, p);
        let left = c.steps;
        c.on_pool(|c| c.catch_up(held, left)).expect("a cluster without faults has no silent rank");
        c
    }

    /// Per-rank load weights (checkpoint state).
    pub(crate) fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// Rank `rank`'s accelerations and potentials (aligned with
    /// [`Cluster::rank_particles`]).
    pub(crate) fn rank_forces(&self, rank: usize) -> &Forces {
        &self.forces[rank]
    }

    /// Rank count.
    pub fn rank_count(&self) -> usize {
        self.ranks.len()
    }

    /// Total particles across ranks.
    pub fn total_particles(&self) -> usize {
        self.ranks.iter().map(Particles::len).sum()
    }

    /// Current domains.
    pub fn domains(&self) -> &[KeyRange] {
        &self.domains
    }

    /// Simulation time.
    pub fn time(&self) -> f64 {
        self.time
    }

    /// Completed steps.
    pub fn step_count(&self) -> u64 {
        self.steps
    }

    /// Gravity epochs executed so far (≥ `step_count() + 1`; recovery
    /// rollbacks consume extra epochs).
    pub fn current_epoch(&self) -> u64 {
        self.epoch
    }

    /// The last completed step as a value. The energy report (an O(N)
    /// reduction) is computed only for a caller that reads it.
    fn facts(&self, energy: bool) -> StepFacts {
        StepFacts {
            step: self.steps,
            epoch: self.epoch,
            time: self.time,
            world: self.ranks.len(),
            particles: self.total_particles(),
            view: self.view.number,
            energy: energy.then(|| self.energy_report()),
            flows: self.wire.flows.conservation(),
        }
    }

    /// Snapshot of the cluster as of the last completed step, every field
    /// filled: the one value a test's named invariants are checked over.
    pub fn step_facts(&self) -> StepFacts {
        self.facts(true)
    }

    /// Full audit log of injected faults and recovery actions since
    /// construction.
    pub fn fault_log(&self) -> &FaultLog {
        &self.wire.log
    }

    /// The current membership view (the rank assignment).
    pub fn view(&self) -> &View {
        &self.view
    }

    /// Audit log of every view change the cluster went through.
    pub fn membership_log(&self) -> &MembershipLog {
        &self.membership
    }

    /// Make crash recovery *elastic*: a dead rank is agreed out of the
    /// view by the survivors (gossip over the fabric) and the last
    /// checkpoint is re-decomposed among the smaller world, instead of
    /// resurrecting the rank at a fixed world size.
    pub fn enable_elastic_recovery(&mut self) {
        self.elastic = true;
    }

    /// Sabotage hook for the CI membership gate's self-test: when set,
    /// every view-change migration silently discards its outbound migrants
    /// (they are drained from the sender but never shipped), so the gate's
    /// particle-conservation check must fail. Never set in real runs.
    pub fn set_drop_migrants(&mut self, yes: bool) {
        self.drop_migrants = yes;
    }

    /// Enable run monitoring: per-metric time series, health rules and
    /// incident freezing, evaluated inside every subsequent
    /// [`Cluster::step`]. The current energy report becomes the drift
    /// baseline. Re-enabling replaces the monitor, its add-ons included.
    pub fn enable_longrun(&mut self, cfg: crate::longrun::LongRunConfig) {
        self.monitor = Some(RunMonitor::new(cfg, self.energy_report()));
    }

    /// Enable in-run telemetry streaming on the run monitor: each
    /// subsequent [`Cluster::step`] publishes versioned frames (step
    /// header, phase sample, gauges, flow digest, alerts, view changes) to
    /// the configured subscribers and meters the observability overhead
    /// against the 3% budget, a rule of the monitor's engine.
    ///
    /// Panics without a monitor ([`Cluster::enable_longrun`] first).
    pub fn enable_streaming(&mut self, cfg: crate::stream::StreamConfig) {
        self.monitor_mut("streaming").enable_streaming(cfg);
    }

    /// Enable health-driven autoscaling on the run monitor: the policy
    /// consumes the alerts its rules fire, and each step may then admit or
    /// retire ranks.
    ///
    /// Panics without a monitor ([`Cluster::enable_longrun`] first).
    pub fn enable_autoscale(&mut self, cfg: crate::autoscale::AutoscaleConfig) {
        self.monitor_mut("autoscaling").enable_autoscale(cfg);
    }

    fn monitor_mut(&mut self, addon: &str) -> &mut RunMonitor {
        self.monitor.as_mut().unwrap_or_else(|| {
            panic!("{addon} rides on the run monitor; call Cluster::enable_longrun first")
        })
    }

    /// The run monitor, if enabled.
    pub fn monitor(&self) -> Option<&RunMonitor> {
        self.monitor.as_ref()
    }

    /// Detach and return the run monitor (export at end of run).
    pub fn take_monitor(&mut self) -> Option<RunMonitor> {
        self.monitor.take()
    }

    /// The run monitor's streaming tap, if enabled (bus accounting,
    /// overhead meter).
    pub fn stream(&self) -> Option<&crate::stream::StreamTap> {
        self.monitor.as_ref()?.stream()
    }

    /// Mutable tap access — subscribers poll their rings through this.
    pub fn stream_mut(&mut self) -> Option<&mut crate::stream::StreamTap> {
        self.monitor.as_mut()?.stream_mut()
    }

    /// Borrow one rank's particle shard (checkpointing, inspection).
    pub fn rank_particles(&self, rank: usize) -> &Particles {
        &self.ranks[rank]
    }

    /// Gather all particles (analysis only; order unspecified).
    pub fn gather(&self) -> Particles {
        let mut all = Particles::with_capacity(self.total_particles());
        for r in &self.ranks {
            all.extend_from(r);
        }
        all
    }

    /// Distributed energy/momentum diagnostics from the stored tree
    /// potentials (no extra force evaluation) — the on-the-fly conservation
    /// monitor of a production run.
    pub fn energy_report(&self) -> bonsai_analysis::EnergyReport {
        bonsai_analysis::EnergyReport::from_shards(self.ranks.iter().zip(&self.forces))
    }

    /// Accelerations of every particle keyed by id (analysis/validation).
    pub fn accelerations_by_id(&self) -> std::collections::HashMap<u64, Vec3> {
        let mut map = std::collections::HashMap::with_capacity(self.total_particles());
        for (p, f) in self.ranks.iter().zip(&self.forces) {
            map.extend(p.id.iter().copied().zip(f.acc.iter().copied()));
        }
        map
    }

    /// One full kick–drift–(rebuild + force)–kick step. Returns the
    /// Table II style breakdown with simulated times for the configured
    /// machine.
    ///
    /// Each call advances [`Cluster::step_count`] by exactly one. If a rank
    /// stays silent mid-step the cluster rolls back to its last checkpoint
    /// and replays to the step it left, forces included, and the step is
    /// re-executed from there, so a returned breakdown always describes a
    /// completed step. More than [`MAX_RETRIES`] rollbacks in one call
    /// panic.
    pub fn step(&mut self) -> StepBreakdown {
        self.on_pool(Self::step_inner)
    }

    /// Run `f` with the cluster's dedicated pool installed as the current
    /// thread pool (no-op indirection when `cfg.threads` is unset).
    fn on_pool<R>(&mut self, f: impl FnOnce(&mut Self) -> R) -> R {
        match self.pool.clone() {
            Some(pool) => pool.install(|| f(self)),
            None => f(self),
        }
    }

    fn step_inner(&mut self) -> StepBreakdown {
        let mut rollbacks = 0;
        let breakdown = loop {
            match self.try_step() {
                Ok(breakdown) => break breakdown,
                Err(silent) => self.restore_from_checkpoint(silent, &mut rollbacks),
            }
        };
        self.monitor_step(&breakdown);
        breakdown
    }

    /// One step from the current state and its forces: kick–drift, the
    /// gravity epoch, kick, and the scheduled checkpoint. `Err(rank)` for a
    /// rank silent in the epoch, with the state half-stepped: only a
    /// rollback recovers it.
    fn try_step(&mut self) -> Result<StepBreakdown, usize> {
        let dt = self.cfg.dt;
        for (rank, forces) in self.ranks.iter_mut().zip(&self.forces) {
            leapfrog::kick_drift(rank, forces, dt);
        }
        let breakdown = self.try_gravity_phase()?;
        for (rank, forces) in self.ranks.iter_mut().zip(&self.forces) {
            leapfrog::kick(rank, forces, dt);
        }
        self.time += dt;
        self.steps += 1;
        if let Some(rec) = &self.recovery {
            if rec.every > 0 && self.steps.is_multiple_of(rec.every) {
                self.write_recovery_checkpoint();
            }
        }
        Ok(breakdown)
    }
}

#[cfg(test)]
mod tests;

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
//! invalid frames are discarded and retransmitted with bounded attempts,
//! lost dedicated LETs degrade gracefully to walking the sender's boundary
//! tree, and a crashed rank is detected via missing heartbeats and
//! replaced by rolling the cluster back to its last checkpoint. Every
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
//!   `update_domains` → `migrate` → `build` → `boundaries` → `lets` → `walk` →
//!   `store`, one function per Table II row (§III-B1 domain update, §III-A
//!   tree build and walk, §III-B2 boundary trees and LETs), every exchange
//!   one call of [`bonsai_net::collective::exchange`];
//! * `recovery` — epochs retried until one completes, scheduled crashes,
//!   checkpoint rollback at a fixed world size or over the survivors
//!   (§VI-C);
//! * `membership` — online grow / shrink: gossip to an agreed view, re-split
//!   the key space, migrate over the fabric;
//! * `observe` — the completed epoch charged to the machine models and
//!   recorded as spans, flow arrows and metrics.

mod gravity;
mod membership;
mod observe;
mod recovery;

pub use gravity::factor_ranks;

use crate::autoscale::ScaleDecision;
use crate::breakdown::StepBreakdown;
use bonsai_core::leapfrog;
use bonsai_gpu::{GpuModel, KernelVariant, K20X};
use bonsai_net::fault::{FaultLog, FaultPlan, Wire};
use bonsai_net::membership::{MembershipLog, View};
use bonsai_net::{MachineSpec, NetworkModel, PIZ_DAINT};
use bonsai_obs::{MetricsRegistry, TraceStore};
use bonsai_sfc::KeyRange;
use bonsai_tree::build::TreeParams;
use bonsai_tree::{Forces, InteractionCounts, Particles};
use bonsai_util::Vec3;
use recovery::seed_decomposition;
use std::path::PathBuf;
use std::sync::Arc;

/// Retransmission attempts for exchanges that must complete (heartbeat /
/// bounds, particle migration, boundary allgather). A peer that stays
/// silent through every attempt is declared dead.
const MAX_RETRIES_HARD: u32 = 4;

/// Retransmission attempts for dedicated LETs. Cheaper to give up early:
/// the receiver already holds the sender's boundary tree and can walk that
/// instead (graceful degradation, counted per step).
const MAX_RETRIES_LET: u32 = 2;

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
    /// `Cut` nodes that failed the receiver MAC: zero unless a dedicated LET
    /// was lost and its receiver walked the sender's boundary.
    pub forced_cuts: u64,
    /// Max/mean particle imbalance after the exchange.
    pub imbalance: f64,
    /// Keys each rank contributed to the two-level sample sort (the
    /// load-balance bookkeeping volume; 0 on single-rank runs).
    pub sampled_keys: Vec<usize>,
    /// Bytes retransmitted to recover lost or invalid frames.
    pub retransmit_bytes: usize,
    /// Dedicated LETs that never arrived and degraded to a boundary walk.
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
    /// long-run monitor, which measures drift with it.
    pub energy: Option<bonsai_analysis::EnergyReport>,
    /// Flow-conservation totals over the whole run; on the step path
    /// filled only for the streaming tap's digest frame.
    pub flows: Option<bonsai_net::flow::FlowConservation>,
    /// Health rules the long-run monitor evaluates per gauge each step
    /// (`None` when no monitor is enabled); the streaming tap prices them.
    pub longrun_rules: Option<usize>,
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
    /// sealed (seal → inject → retransmit → deliver | fallback | dead) —
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
    /// [`bonsai_obs::TRACE_WINDOW`] to twice that).
    trace: TraceStore,
    /// Metrics registry: monotonic counters over the whole run plus the
    /// most recent epoch's gauges.
    registry: MetricsRegistry,
    /// Global simulated clock base: completed epochs lay out sequentially.
    trace_clock: f64,
    /// Long-run monitor (time series + health rules + incidents),
    /// enabled via [`Cluster::enable_longrun`].
    longrun: Option<crate::longrun::LongRunMonitor>,
    /// Current membership view; `view.members[rank]` is the stable node id
    /// holding `rank`, so the view *is* the rank assignment.
    view: View,
    /// Audit log of every completed view change.
    membership: MembershipLog,
    /// When true, a crashed rank is *removed from the view* during
    /// recovery (the survivors re-decompose the checkpoint among
    /// themselves) instead of being resurrected at the same world size.
    elastic: bool,
    /// Health-driven scale-out/in policy, enabled via
    /// [`Cluster::enable_autoscale`]; consulted after every step's
    /// long-run observation.
    autoscale: Option<crate::autoscale::AutoscalePolicy>,
    /// In-run telemetry streaming tap, enabled via
    /// [`Cluster::enable_streaming`]; publishes each step's frames and
    /// self-meters the observability overhead.
    stream: Option<crate::stream::StreamTap>,
    /// Validation self-test hook: when true, view-change migrations
    /// silently discard every outbound migrant instead of shipping it —
    /// the sabotage the CI membership gate must catch through its particle
    /// conservation check. Never set in real runs.
    drop_migrants: bool,
    /// Dedicated thread pool when `cfg.threads` is set; `None` defers to
    /// the process-global pool. Shared via `Arc` so `step` can install it
    /// while mutably borrowing the rest of the cluster.
    pool: Option<Arc<rayon::ThreadPool>>,
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
    /// rank dies. Rank-level faults need `p > 1` to be observable.
    pub fn with_faults(
        all: Particles,
        p: usize,
        cfg: ClusterConfig,
        plan: FaultPlan,
        recovery: Option<RecoveryConfig>,
    ) -> Self {
        assert!(p > 0 && !all.is_empty());
        let (ranks, domains) = seed_decomposition(&all, p, &cfg);
        let mut cluster = Self::at_rest(ranks, domains, cfg, plan, recovery);
        // Checkpoint the initial conditions *before* the first force
        // computation: a rank can die (or be falsely declared dead under
        // extreme fault rates) in the very first gravity epoch, and
        // recovery needs something to roll back to.
        cluster.write_recovery_checkpoint();
        cluster.on_pool(Self::compute_forces_with_recovery);
        cluster
    }

    /// A cluster holding `ranks` over `domains` at time zero with no forces
    /// evaluated, unit load weights and a fresh fabric, log and ledger.
    fn at_rest(
        ranks: Vec<Particles>,
        domains: Vec<KeyRange>,
        cfg: ClusterConfig,
        plan: FaultPlan,
        recovery: Option<RecoveryConfig>,
    ) -> Self {
        let p = ranks.len();
        Self {
            gpu: GpuModel::new(K20X, KernelVariant::TreeKeplerTuned),
            net: NetworkModel::new(cfg.machine),
            pool: cfg.threads.map(|t| Arc::new(rayon::ThreadPool::new(t))),
            cfg,
            forces: vec![Forces::default(); p],
            ranks,
            domains,
            weights: vec![1.0; p],
            time: 0.0,
            steps: 0,
            wire: Wire::new(p, plan),
            epoch: 0,
            dead: vec![false; p],
            recovery,
            last_measurements: StepMeasurements::default(),
            trace: TraceStore::new(),
            registry: MetricsRegistry::new(),
            trace_clock: 0.0,
            longrun: None,
            view: View::initial(p),
            membership: MembershipLog::new(),
            elastic: false,
            autoscale: None,
            stream: None,
            drop_migrants: false,
        }
    }

    /// Reconstruct a cluster from exact-resume checkpoint state: per-rank
    /// particles, accelerations, potentials, domains and load weights are
    /// adopted verbatim, so no fresh decomposition or force phase runs and
    /// the next [`Cluster::step`] continues bit-for-bit where the
    /// checkpointed run would have. (Contrast with
    /// [`restore_cluster`](crate::checkpoint::restore_cluster), which
    /// re-decomposes and may change the rank count.)
    pub(crate) fn from_exact_state(
        ranks: Vec<Particles>,
        forces: Vec<Forces>,
        domains: Vec<KeyRange>,
        weights: Vec<f64>,
        time: f64,
        steps: u64,
        cfg: ClusterConfig,
    ) -> Self {
        let p = ranks.len();
        assert!(p > 0, "exact resume needs at least one rank");
        assert!(forces.len() == p && domains.len() == p && weights.len() == p);
        Self {
            forces,
            weights,
            time,
            steps,
            ..Self::at_rest(ranks, domains, cfg, FaultPlan::new(0), None)
        }
    }

    /// Re-decompose checkpoint `ck` over `p` ranks and evaluate forces, the
    /// simulation clock carrying on from the snapshot — the body of
    /// [`restore_cluster`](crate::checkpoint::restore_cluster).
    pub(crate) fn from_checkpoint(
        ck: crate::checkpoint::Checkpoint,
        p: usize,
        cfg: ClusterConfig,
    ) -> Self {
        let mut c = Self::new(ck.particles, p, cfg);
        (c.time, c.steps) = (ck.time, ck.steps);
        c
    }

    /// Per-rank load weights (exact-resume checkpoint state).
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
    /// reduction) and the flow totals (a scan of the ledger's window) are
    /// computed only for a caller that reads them.
    fn facts(&self, energy: bool, flows: bool) -> StepFacts {
        StepFacts {
            step: self.steps,
            epoch: self.epoch,
            time: self.time,
            world: self.ranks.len(),
            particles: self.total_particles(),
            view: self.view.number,
            energy: energy.then(|| self.energy_report()),
            flows: flows.then(|| self.wire.flows.conservation()),
            longrun_rules: self.longrun.as_ref().map(|lr| lr.config().rules.len()),
        }
    }

    /// Snapshot of the cluster as of the last completed step, every field
    /// filled: the one value a test's named invariants are checked over.
    pub fn step_facts(&self) -> StepFacts {
        self.facts(true, true)
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

    /// Enable health-driven autoscaling. Requires long-run monitoring
    /// ([`Cluster::enable_longrun`]) — the policy consumes the alerts its
    /// rules fire. Each step may then admit or retire ranks per the policy.
    pub fn enable_autoscale(&mut self, cfg: crate::autoscale::AutoscaleConfig) {
        self.autoscale = Some(crate::autoscale::AutoscalePolicy::new(cfg));
    }

    /// The autoscaling policy, if enabled (decision audit log).
    pub fn autoscale(&self) -> Option<&crate::autoscale::AutoscalePolicy> {
        self.autoscale.as_ref()
    }

    /// Sabotage hook for the CI membership gate's self-test: when set,
    /// every view-change migration silently discards its outbound migrants
    /// (they are drained from the sender but never shipped), so the gate's
    /// particle-conservation check must fail. Never set in real runs.
    pub fn set_drop_migrants(&mut self, yes: bool) {
        self.drop_migrants = yes;
    }

    /// Enable long-run monitoring: per-metric time series, health rules
    /// and incident freezing, evaluated inside every subsequent
    /// [`Cluster::step`]. The current energy report becomes the drift
    /// baseline. Re-enabling replaces the previous monitor.
    pub fn enable_longrun(&mut self, cfg: crate::longrun::LongRunConfig) {
        let baseline = self.energy_report();
        self.longrun = Some(crate::longrun::LongRunMonitor::new(cfg, baseline));
    }

    /// The long-run monitor, if enabled.
    pub fn longrun(&self) -> Option<&crate::longrun::LongRunMonitor> {
        self.longrun.as_ref()
    }

    /// Detach and return the long-run monitor (export at end of run).
    pub fn take_longrun(&mut self) -> Option<crate::longrun::LongRunMonitor> {
        self.longrun.take()
    }

    /// Enable in-run telemetry streaming: each subsequent
    /// [`Cluster::step`] publishes versioned frames (step header, phase
    /// sample, gauges, flow digest, alerts, view changes) to the
    /// configured subscribers and meters the observability overhead
    /// against the 3% budget. Re-enabling replaces the previous tap.
    pub fn enable_streaming(&mut self, cfg: crate::stream::StreamConfig) {
        self.stream = Some(crate::stream::StreamTap::new(cfg));
    }

    /// The streaming tap, if enabled (bus accounting, overhead meter).
    pub fn stream(&self) -> Option<&crate::stream::StreamTap> {
        self.stream.as_ref()
    }

    /// Mutable tap access — subscribers poll their rings through this.
    pub fn stream_mut(&mut self) -> Option<&mut crate::stream::StreamTap> {
        self.stream.as_mut()
    }

    /// Detach and return the streaming tap (export at end of run).
    pub fn take_stream(&mut self) -> Option<crate::stream::StreamTap> {
        self.stream.take()
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
    /// If a rank crashes mid-step the cluster rolls back to its last
    /// checkpoint and the whole step is re-executed from the restored
    /// state, so a returned breakdown always describes a completed step.
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
        let dt = self.cfg.dt;
        loop {
            for (rank, forces) in self.ranks.iter_mut().zip(&self.forces) {
                leapfrog::kick_drift(rank, forces, dt);
            }
            let (breakdown, restored) = self.compute_forces_with_recovery();
            if restored {
                // The rollback landed us on a step boundary with fresh
                // forces; redo the kick–drift from there.
                continue;
            }
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
            // The observers are a fixed chain over disjoint fields, each
            // handed the finished step as a value: longitudinal bookkeeping,
            // then the scaling policy (health alerts opening this step may
            // grow the world, sustained idle may shrink it).
            let mut fired: Vec<bonsai_obs::health::AlertEvent> = Vec::new();
            let facts = self.longrun.is_some().then(|| self.facts(true, false));
            if let (Some(lr), Some(facts)) = (self.longrun.as_mut(), &facts) {
                fired = lr.observe(
                    &mut self.trace,
                    &mut self.registry,
                    &self.last_measurements,
                    &breakdown,
                    facts,
                );
                let mean = facts.particles as f64 / facts.world as f64;
                let decision = self.autoscale.as_mut().map_or(ScaleDecision::Hold, |policy| {
                    policy.decide(facts.step, facts.world, mean, &fired)
                });
                match decision {
                    ScaleDecision::Grow(k) => {
                        self.record_autoscale_decision("grow", k);
                        self.admit_ranks(k)
                    }
                    ScaleDecision::Shrink(k) => {
                        self.record_autoscale_decision("shrink", k);
                        self.retire_ranks(k)
                    }
                    ScaleDecision::Hold => {}
                }
            }
            // The streaming tap runs last so its frames describe the step's
            // final state, including any autoscale-driven view change
            // published above.
            let facts = self.stream.is_some().then(|| self.facts(false, true));
            if let (Some(tap), Some(facts)) = (self.stream.as_mut(), &facts) {
                tap.observe(&self.trace, &mut self.registry, &breakdown, facts, &fired);
            }
            return breakdown;
        }
    }
}

#[cfg(test)]
mod tests;

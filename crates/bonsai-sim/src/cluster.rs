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
//! checksummed envelope, through a [`FaultyEndpoint`] that can inject a
//! seeded [`FaultPlan`]: drops, duplicates, reorders, delays, truncation,
//! bit flips, rank stalls and hard crashes. The step survives them —
//! invalid frames are discarded and retransmitted with bounded attempts,
//! lost dedicated LETs degrade gracefully to walking the already-held
//! boundary tree, and a crashed rank is detected via missing heartbeats and
//! replaced by rolling the cluster back to its last checkpoint. Every
//! injected fault and every recovery action lands in the [`FaultLog`], so
//! a chaos run can be audited end to end.
//!
//! The result is provably faithful: tests assert the distributed forces
//! agree with a direct-summation reference at the MAC-bounded error level,
//! that ranks respect the 30% load cap, and that distant ranks reuse the
//! broadcast boundary trees as LETs while only near neighbours receive
//! dedicated ones — the communication-avoidance core of the paper.

use crate::breakdown::StepBreakdown;
use crate::checkpoint;
use bonsai_domain::exchange::{particles_from_bytes, particles_to_bytes, ExchangePlan};
use bonsai_domain::letbuild::{boundary_sufficient_for, build_let};
use bonsai_domain::load::enforce_particle_cap;
use bonsai_domain::sampling::parallel_cuts;
use bonsai_domain::{boundary_tree, LetTree, Migration};
use bonsai_gpu::{
    GpuModel, KernelVariant, BUILD_COST, DOMAIN_COST, INTEGRATE_COST, K20X, PROPS_COST, SORT_COST,
};
use bonsai_net::envelope;
use bonsai_net::fault::{
    FaultEvent, FaultKind, FaultLog, FaultPlan, FaultyEndpoint, RecoveryAction, RecoveryEvent,
    SharedFaultLog,
};
use bonsai_net::flow::{FlowConservation, FlowLedger, SharedFlowLedger};
use bonsai_net::membership::{self, MembershipEvent, MembershipLog, View, ViewChange};
use bonsai_net::obs::FlowClock;
use bonsai_net::{Fabric, MachineSpec, MsgKind, NetworkModel, PIZ_DAINT};
use bonsai_obs::analysis::waits::{self, FlowSummary};
use bonsai_obs::{ArgValue, FlowPhase, Lane, MetricsRegistry, TraceStore};
use bonsai_sfc::{KeyMap, KeyRange};
use bonsai_tree::build::{Tree, TreeParams};
use bonsai_tree::stats::record_walk_counts;
use bonsai_tree::walk::{self, WalkParams};
use bonsai_tree::{Forces, InteractionCounts, Particles};
use bonsai_util::timer::PhaseTimes;
use bonsai_util::{Aabb, Vec3};
use bytes::Bytes;
use rayon::prelude::*;
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

/// How a target rank covers one remote source.
enum RemoteSource {
    /// The already-held boundary tree of rank `i` suffices (or serves as
    /// the fallback for a lost dedicated LET).
    Boundary,
    /// A dedicated LET arrived and is walked.
    Dedicated(LetTree),
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
    /// `Cut` nodes that failed the receiver MAC (should be ≈ 0).
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
    /// Faults injected and recovery actions taken during the successful
    /// gravity epoch (failed epochs live in [`Cluster::fault_log`]).
    pub faults: FaultLog,
}

/// A cluster of logical ranks executing Bonsai's distributed step.
pub struct Cluster {
    /// Configuration.
    pub cfg: ClusterConfig,
    gpu: GpuModel,
    net: NetworkModel,
    /// Per-rank particles (SFC order after each step).
    ranks: Vec<Particles>,
    /// Per-rank accelerations aligned with `ranks`.
    acc: Vec<Vec<Vec3>>,
    /// Per-rank potentials aligned with `ranks`.
    pot: Vec<Vec<f64>>,
    /// Current domain partition.
    domains: Vec<KeyRange>,
    /// Per-rank flop weights from the previous gravity phase.
    weights: Vec<f64>,
    time: f64,
    steps: u64,
    /// One fabric endpoint per rank, with the fault plan applied on sends.
    endpoints: Vec<FaultyEndpoint>,
    plan: Arc<FaultPlan>,
    fault_log: SharedFaultLog,
    /// Shared flow ledger: the lifecycle of every envelope sealed on the
    /// fabric (seal → inject → retransmit → deliver | fallback | dead),
    /// appended in driver order so it is deterministic per plan.
    flows: SharedFlowLedger,
    /// Flow summaries (modeled times) of the most recent recorded epoch.
    last_flows: Vec<FlowSummary>,
    /// Monotonic gravity-phase counter. Never rewinds — a checkpoint
    /// rollback keeps advancing it, which is what makes stale frames from
    /// failed epochs detectable and scheduled crashes fire exactly once.
    epoch: u64,
    /// Ranks currently considered dead (crashed, awaiting recovery).
    dead: Vec<bool>,
    recovery: Option<RecoveryConfig>,
    /// Measurements of the most recent gravity phase.
    pub last_measurements: StepMeasurements,
    /// Span/event trace of every completed gravity epoch.
    trace: TraceStore,
    /// Metrics registry: monotonic counters over the whole run plus the
    /// most recent epoch's gauges.
    registry: MetricsRegistry,
    /// Global simulated clock base: completed epochs lay out sequentially.
    trace_clock: f64,
    /// Long-run monitor (time series + health rules + flight recorder),
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
    /// the endpoints are transparent (framed) pass-throughs and the step is
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
        let pool = cfg.threads.map(|t| Arc::new(rayon::ThreadPool::new(t)));
        let gpu = GpuModel::new(K20X, KernelVariant::TreeKeplerTuned);
        let net = NetworkModel::new(cfg.machine);
        let (ranks, domains) = seed_decomposition(&all, p, &cfg);
        let plan = Arc::new(plan);
        let fault_log = SharedFaultLog::new();
        let flows = SharedFlowLedger::new();
        let endpoints: Vec<FaultyEndpoint> = Fabric::new(p)
            .into_iter()
            .map(|ep| FaultyEndpoint::new(ep, plan.clone(), fault_log.clone(), flows.clone()))
            .collect();
        let mut cluster = Self {
            cfg,
            gpu,
            net,
            acc: vec![Vec::new(); p],
            pot: vec![Vec::new(); p],
            ranks,
            domains,
            weights: vec![1.0; p],
            time: 0.0,
            steps: 0,
            endpoints,
            plan,
            fault_log,
            flows,
            last_flows: Vec::new(),
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
            pool,
        };
        // Checkpoint the initial conditions *before* the first force
        // computation: a rank can die (or be falsely declared dead under
        // extreme fault rates) in the very first gravity epoch, and
        // recovery needs something to roll back to.
        cluster.write_recovery_checkpoint();
        cluster.on_pool(Self::compute_forces_with_recovery);
        cluster
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
        acc: Vec<Vec<Vec3>>,
        pot: Vec<Vec<f64>>,
        domains: Vec<KeyRange>,
        weights: Vec<f64>,
        time: f64,
        steps: u64,
        cfg: ClusterConfig,
    ) -> Self {
        let p = ranks.len();
        assert!(p > 0, "exact resume needs at least one rank");
        assert!(acc.len() == p && pot.len() == p && domains.len() == p && weights.len() == p);
        let cfg_threads = cfg.threads;
        let gpu = GpuModel::new(K20X, KernelVariant::TreeKeplerTuned);
        let net = NetworkModel::new(cfg.machine);
        let plan = Arc::new(FaultPlan::new(0));
        let fault_log = SharedFaultLog::new();
        let flows = SharedFlowLedger::new();
        let endpoints: Vec<FaultyEndpoint> = Fabric::new(p)
            .into_iter()
            .map(|ep| FaultyEndpoint::new(ep, plan.clone(), fault_log.clone(), flows.clone()))
            .collect();
        Self {
            cfg,
            gpu,
            net,
            acc,
            pot,
            ranks,
            domains,
            weights,
            time,
            steps,
            endpoints,
            plan,
            fault_log,
            flows,
            last_flows: Vec::new(),
            epoch: 0,
            dead: vec![false; p],
            recovery: None,
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
            pool: cfg_threads.map(|t| Arc::new(rayon::ThreadPool::new(t))),
        }
    }

    /// Re-distribute `all` particles over `p` ranks while *preserving* the
    /// simulation clock — the elastic-resume constructor: a checkpoint
    /// written at one world size continues at another without resetting
    /// `time`/`steps` to zero (contrast with
    /// [`restore_cluster`](crate::checkpoint::restore_cluster)).
    pub(crate) fn from_redistributed(
        all: Particles,
        p: usize,
        cfg: ClusterConfig,
        time: f64,
        steps: u64,
    ) -> Self {
        let mut c = Self::new(all, p, cfg);
        c.time = time;
        c.steps = steps;
        c
    }

    /// Per-rank load weights (exact-resume checkpoint state).
    pub(crate) fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// Rank `rank`'s accelerations (aligned with [`Cluster::rank_particles`]).
    pub(crate) fn rank_acc(&self, rank: usize) -> &[Vec3] {
        &self.acc[rank]
    }

    /// Rank `rank`'s potentials (aligned with [`Cluster::rank_particles`]).
    pub(crate) fn rank_pot(&self, rank: usize) -> &[f64] {
        &self.pot[rank]
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

    /// Full audit log of injected faults and recovery actions since
    /// construction.
    pub fn fault_log(&self) -> FaultLog {
        self.fault_log.snapshot()
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

    /// The unified observability trace: spans for every Table II phase of
    /// every completed gravity epoch (keyed rank × epoch × phase), the LET
    /// communication and recovery windows on the COMM lanes, and fault
    /// instants. Failed epochs (rolled back by crash recovery) are not
    /// recorded — a trace describes completed work only.
    pub fn trace(&self) -> &TraceStore {
        &self.trace
    }

    /// The unified metrics registry: walk-interaction and link-byte
    /// counters accumulated over the run, per-kind latency histograms, and
    /// the most recent epoch's per-phase gauges.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.registry
    }

    /// Rebuild the most recent epoch's [`StepBreakdown`] purely from the
    /// metrics registry (the reduction view over the per-step gauge
    /// family). Matches the value returned by [`Cluster::step`] exactly:
    /// instrumentation changes observation, not physics or timing.
    pub fn breakdown_from_metrics(&self) -> StepBreakdown {
        let pt = PhaseTimes::from_pairs(crate::breakdown::PHASES.iter().map(|&ph| {
            let v = self
                .registry
                .gauge("bonsai_step_phase_seconds", &[("phase", ph)])
                .unwrap_or(0.0);
            (ph, v)
        }));
        let g = |name| self.registry.gauge(name, &[]).unwrap_or(0.0);
        StepBreakdown::from_phase_times(
            g("bonsai_step_gpus") as u32,
            g("bonsai_step_particles_per_gpu") as u64,
            g("bonsai_step_pp_per_particle"),
            g("bonsai_step_pc_per_particle"),
            &pt,
        )
    }

    /// Enable long-run monitoring: per-metric time series, health rules
    /// and the flight recorder, evaluated inside every subsequent
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

    /// Mutable registry access for the long-run monitor's derived gauges.
    pub(crate) fn registry_mut(&mut self) -> &mut MetricsRegistry {
        &mut self.registry
    }

    /// Mutable trace access for alert instants and window pruning.
    pub(crate) fn trace_mut(&mut self) -> &mut TraceStore {
        &mut self.trace
    }

    /// The observability surface of a completed view change: an instant on
    /// the coordinator's CPU lane (so membership epochs are visible next to
    /// the phase spans in Perfetto), plus the membership/migration counters
    /// the Prometheus exporter snapshots — epoch gauge, world-size gauge,
    /// and monotonic view-change / migrated-particle / migrated-byte
    /// totals.
    fn record_membership_change(&mut self, change: &ViewChange) {
        let kind = if change.to_world >= change.from_world {
            "grow"
        } else {
            "shrink"
        };
        let at = self.trace.makespan();
        let inst = self.trace.instant(
            0,
            change.epoch,
            Lane::Cpu,
            format!("membership:view-change:{kind}"),
            at,
        );
        inst.args.push(("from_world", ArgValue::U64(change.from_world as u64)));
        inst.args.push(("to_world", ArgValue::U64(change.to_world as u64)));
        inst.args.push(("to_view", ArgValue::U64(change.to_view)));
        inst.args.push((
            "migrated_particles",
            ArgValue::U64(change.migrated_particles as u64),
        ));
        inst.args
            .push(("migrated_bytes", ArgValue::U64(change.migrated_bytes as u64)));
        self.registry
            .gauge_set("bonsai_membership_epoch", &[], change.to_view as f64);
        self.registry
            .gauge_set("bonsai_membership_world", &[], change.to_world as f64);
        self.registry
            .counter_add("bonsai_membership_view_changes_total", &[], 1);
        self.registry.counter_add(
            "bonsai_membership_migrated_particles_total",
            &[],
            change.migrated_particles as u64,
        );
        self.registry.counter_add(
            "bonsai_membership_migrated_bytes_total",
            &[],
            change.migrated_bytes as u64,
        );
        // View changes are must-deliver telemetry: every subscriber sees
        // them even when it is dropping samples under backpressure.
        if let Some(mut tap) = self.stream.take() {
            tap.publish_view_change(self, change);
            self.stream = Some(tap);
        }
    }

    /// An autoscale decision's observability surface: an instant marking
    /// the policy's order (distinct from the view change that executes it)
    /// and a per-direction decision counter.
    fn record_autoscale_decision(&mut self, direction: &'static str, k: usize) {
        let at = self.trace.makespan();
        let inst = self.trace.instant(
            0,
            self.epoch,
            Lane::Cpu,
            format!("autoscale:{direction}"),
            at,
        );
        inst.args.push(("ranks", ArgValue::U64(k as u64)));
        self.registry.counter_add(
            "bonsai_autoscale_decisions_total",
            &[("decision", direction)],
            1,
        );
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
        let mut kinetic = bonsai_util::KahanSum::new();
        let mut potential = bonsai_util::KahanSum::new();
        let mut momentum = Vec3::zero();
        let mut l_z = bonsai_util::KahanSum::new();
        for (rank, pot) in self.ranks.iter().zip(&self.pot) {
            for i in 0..rank.len() {
                let m = rank.mass[i];
                kinetic.add(0.5 * m * rank.vel[i].norm2());
                potential.add(0.5 * m * pot[i]);
                momentum += rank.vel[i] * m;
                l_z.add(m * rank.pos[i].cross(rank.vel[i]).z);
            }
        }
        bonsai_analysis::EnergyReport {
            kinetic: kinetic.value(),
            potential: potential.value(),
            l_z: l_z.value(),
            momentum: momentum.norm(),
        }
    }

    /// Accelerations of every particle keyed by id (analysis/validation).
    pub fn accelerations_by_id(&self) -> std::collections::HashMap<u64, Vec3> {
        let mut map = std::collections::HashMap::with_capacity(self.total_particles());
        for (r, p) in self.ranks.iter().enumerate() {
            for i in 0..p.len() {
                map.insert(p.id[i], self.acc[r][i]);
            }
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
        let half = 0.5 * self.cfg.dt;
        let dt = self.cfg.dt;
        loop {
            for (rank, acc) in self.ranks.iter_mut().zip(&self.acc) {
                for i in 0..rank.len() {
                    rank.vel[i] += acc[i] * half;
                    let v = rank.vel[i];
                    rank.pos[i] += v * dt;
                }
            }
            let (breakdown, restored) = self.compute_forces_with_recovery();
            if restored {
                // The rollback landed us on a step boundary with fresh
                // forces; redo the kick–drift from there.
                continue;
            }
            for (rank, acc) in self.ranks.iter_mut().zip(&self.acc) {
                for i in 0..rank.len() {
                    rank.vel[i] += acc[i] * half;
                }
            }
            self.time += dt;
            self.steps += 1;
            if let Some(rec) = &self.recovery {
                if rec.every > 0 && self.steps % rec.every == 0 {
                    self.write_recovery_checkpoint();
                }
            }
            // Longitudinal bookkeeping (take/put-back so the monitor can
            // borrow the cluster freely), then the scaling policy: health
            // alerts opening this step may grow the world, sustained idle
            // may shrink it.
            let mut fired: Vec<bonsai_obs::health::AlertEvent> = Vec::new();
            if let Some(mut lr) = self.longrun.take() {
                fired = lr.observe(self, &breakdown);
                self.longrun = Some(lr);
                if let Some(mut policy) = self.autoscale.take() {
                    let mean = self.total_particles() as f64 / self.rank_count() as f64;
                    match policy.decide(self.steps, self.rank_count(), mean, &fired) {
                        crate::autoscale::ScaleDecision::Grow(k) => {
                            self.record_autoscale_decision("grow", k);
                            self.admit_ranks(k)
                        }
                        crate::autoscale::ScaleDecision::Shrink(k) => {
                            self.record_autoscale_decision("shrink", k);
                            self.retire_ranks(k)
                        }
                        crate::autoscale::ScaleDecision::Hold => {}
                    }
                    self.autoscale = Some(policy);
                }
            }
            // The streaming tap runs last (same take/put-back pattern) so
            // its frames describe the step's final state, including any
            // autoscale-driven view change published above.
            if let Some(mut tap) = self.stream.take() {
                tap.observe(self, &breakdown, &fired);
                self.stream = Some(tap);
            }
            return breakdown;
        }
    }

    fn write_recovery_checkpoint(&self) {
        if let Some(rec) = &self.recovery {
            checkpoint::write_checkpoint(self, &rec.dir).expect("checkpoint write failed");
        }
    }

    /// Run gravity epochs until one completes, rolling back to the last
    /// checkpoint when a rank dies. Returns the successful breakdown and
    /// whether any rollback happened (the caller must then redo its step).
    fn compute_forces_with_recovery(&mut self) -> (StepBreakdown, bool) {
        let mut restored = false;
        loop {
            // Elastic recovery changes the world size, so the rank count is
            // re-read on every attempt.
            let p = self.ranks.len();
            self.epoch += 1;
            // Frames held back by Delay/Stall surface now, carrying their
            // old epoch — receive-side validation discards them as stale.
            for ep in &mut self.endpoints {
                ep.flush_delayed();
            }
            if p > 1 {
                // Every rank the plan schedules to die this epoch dies —
                // simultaneous crashes are one detection pass, not a chain
                // of separate recoveries.
                for r in self.plan.crashed_ranks(self.epoch) {
                    if r >= p || self.dead[r] {
                        continue;
                    }
                    // Hard crash: the rank's in-memory state is gone and it
                    // sends nothing from here on.
                    self.fault_log.record_fault(FaultEvent {
                        epoch: self.epoch,
                        from: r,
                        to: r,
                        kind: MsgKind::Control,
                        fault: FaultKind::Crash,
                        attempt: 0,
                    });
                    self.dead[r] = true;
                    self.ranks[r] = Particles::new();
                    self.acc[r].clear();
                    self.pot[r].clear();
                }
            }
            match self.try_gravity_phase() {
                Ok(breakdown) => return (breakdown, restored),
                Err(dead) => {
                    self.restore_from_checkpoint(dead);
                    restored = true;
                }
            }
        }
    }

    /// Declare `dead` dead and roll the whole cluster back to the last
    /// checkpoint (the paper-scale recovery path: restart from the most
    /// recent snapshot, §VI-C). The epoch keeps advancing.
    ///
    /// With [`Cluster::enable_elastic_recovery`] the dead node is instead
    /// agreed *out of the view* by the survivors, and the checkpoint is
    /// re-decomposed over the shrunken world — the run continues with one
    /// rank fewer rather than pretending the node came back.
    fn restore_from_checkpoint(&mut self, dead: usize) {
        // The aborted epoch's unresolved flows die with the crash: they are
        // closed here so the flow-conservation invariant (every sealed flow
        // is delivered, recovered by fallback, or dead) survives rollback.
        self.flows.close_epoch_dead(self.epoch);
        self.fault_log.record_recovery(RecoveryEvent {
            epoch: self.epoch,
            rank: dead,
            peer: None,
            kind: None,
            action: RecoveryAction::DeclareDead,
            detail: format!("rank {dead} missed every retry window"),
        });
        self.dead[dead] = true;
        let rec = self.recovery.clone().unwrap_or_else(|| {
            panic!(
                "rank {dead} declared dead at epoch {} but no recovery checkpoint is \
                 configured; construct with Cluster::with_faults(.., Some(RecoveryConfig)) \
                 to survive crashes",
                self.epoch
            )
        });
        let ck = checkpoint::read_checkpoint_full(&rec.dir)
            .expect("checkpoint unreadable during crash recovery");
        if self.elastic && self.dead.iter().any(|&d| !d) && self.dead.len() > 1 {
            self.restore_elastic(&ck, dead);
            return;
        }
        let p = self.dead.len();
        let (ranks, domains) = seed_decomposition(&ck.particles, p, &self.cfg);
        self.ranks = ranks;
        self.domains = domains;
        self.acc = vec![Vec::new(); p];
        self.pot = vec![Vec::new(); p];
        self.weights = vec![1.0; p];
        self.time = ck.time;
        self.steps = ck.steps;
        self.dead = vec![false; p];
        self.fault_log.record_recovery(RecoveryEvent {
            epoch: self.epoch,
            rank: dead,
            peer: None,
            kind: None,
            action: RecoveryAction::RestoreCheckpoint,
            detail: format!("rolled back to step {} (t = {})", ck.steps, ck.time),
        });
    }

    /// Elastic crash recovery: the survivors gossip the death(s) to
    /// agreement, the dead node(s) leave the view, and the checkpoint is
    /// re-decomposed over the smaller world with the simulation clock
    /// rolled back to the snapshot. A rank that goes silent *during* the
    /// death gossip is added to the casualty list and the round restarts.
    fn restore_elastic(&mut self, ck: &checkpoint::Checkpoint, first_dead: usize) {
        let conv = loop {
            self.epoch += 1;
            for ep in &mut self.endpoints {
                ep.flush_delayed();
            }
            let p = self.ranks.len();
            let deaths: Vec<MembershipEvent> = (0..p)
                .filter(|&r| self.dead[r])
                .map(|r| MembershipEvent::Death(self.view.members[r]))
                .collect();
            let sponsor = (0..p)
                .find(|&r| !self.dead[r])
                .expect("no live rank left to recover the cluster");
            let mut events_at = vec![Vec::new(); p];
            events_at[sponsor] = deaths;
            let live: Vec<bool> = self.dead.iter().map(|&d| !d).collect();
            match membership::converge(
                &mut self.endpoints,
                &self.fault_log,
                &live,
                self.epoch,
                &self.view,
                &events_at,
                MAX_RETRIES_HARD,
            ) {
                Ok(c) => break c,
                Err(also) => {
                    self.flows.close_epoch_dead(self.epoch);
                    self.fault_log.record_recovery(RecoveryEvent {
                        epoch: self.epoch,
                        rank: also,
                        peer: None,
                        kind: Some(MsgKind::View),
                        action: RecoveryAction::DeclareDead,
                        detail: "silent during death gossip".to_string(),
                    });
                    self.dead[also] = true;
                }
            }
        };
        let old_view = std::mem::replace(&mut self.view, conv.view.clone());
        let new_p = conv.view.world();
        self.rebuild_fabric(new_p);
        let (ranks, domains) = seed_decomposition(&ck.particles, new_p, &self.cfg);
        self.ranks = ranks;
        self.domains = domains;
        self.acc = vec![Vec::new(); new_p];
        self.pot = vec![Vec::new(); new_p];
        self.weights = vec![1.0; new_p];
        self.time = ck.time;
        self.steps = ck.steps;
        self.dead = vec![false; new_p];
        self.fault_log.record_recovery(RecoveryEvent {
            epoch: self.epoch,
            rank: first_dead,
            peer: None,
            kind: None,
            action: RecoveryAction::RestoreCheckpoint,
            detail: format!(
                "rolled back to step {} (t = {}) over {} survivors",
                ck.steps, ck.time, new_p
            ),
        });
        self.fault_log.record_recovery(RecoveryEvent {
            epoch: self.epoch,
            rank: first_dead,
            peer: None,
            kind: Some(MsgKind::View),
            action: RecoveryAction::ViewChange,
            detail: format!(
                "view {} -> {} ({} -> {} ranks)",
                old_view.number,
                conv.view.number,
                old_view.world(),
                new_p
            ),
        });
        let change = ViewChange {
            epoch: self.epoch,
            from_view: old_view.number,
            to_view: conv.view.number,
            from_world: old_view.world(),
            to_world: new_p,
            events: conv.events,
            rounds: conv.rounds,
            migrated_particles: 0,
            migrated_bytes: 0,
        };
        self.record_membership_change(&change);
        self.membership.push(change);
    }

    /// Replace the fabric with a fresh one spanning `p` ranks (fault plan
    /// and log carry over; fault decisions are pure functions of the
    /// monotone epoch, so determinism survives the rebuild).
    fn rebuild_fabric(&mut self, p: usize) {
        self.endpoints = Fabric::new(p)
            .into_iter()
            .map(|ep| {
                FaultyEndpoint::new(ep, self.plan.clone(), self.fault_log.clone(), self.flows.clone())
            })
            .collect();
    }

    /// Grow the cluster online: admit `k` fresh ranks. Every member
    /// sponsors the same deterministic node ids for the joiners
    /// ([`View::next_node_id`]), the join is gossiped to agreement over
    /// the fabric, the key space is re-split for the new world, and each
    /// joiner receives its domain from the old owners — then forces are
    /// re-evaluated on the new decomposition (positions are untouched, so
    /// the physics is unchanged up to MAC-level summation order).
    pub fn admit_ranks(&mut self, k: usize) {
        assert!(k > 0, "admit at least one rank");
        let next = self.view.next_node_id();
        let events: Vec<MembershipEvent> = (0..k as u64)
            .map(|i| MembershipEvent::Join(next + i))
            .collect();
        self.change_view(events);
    }

    /// Shrink the cluster online: gracefully retire the `k` newest
    /// (highest node id) members. The leave is gossiped to agreement, the
    /// departing ranks ship their entire populations to the survivors'
    /// re-split domains, and the world compacts to the remaining members.
    pub fn retire_ranks(&mut self, k: usize) {
        assert!(k > 0, "retire at least one rank");
        assert!(
            k < self.view.world(),
            "cannot retire every rank ({k} of {})",
            self.view.world()
        );
        let events: Vec<MembershipEvent> = self
            .view
            .members
            .iter()
            .rev()
            .take(k)
            .map(|&n| MembershipEvent::Leave(n))
            .collect();
        self.change_view(events);
    }

    /// Agree `events` through membership gossip and apply the resulting
    /// view change. A rank that dies before or during the gossip is
    /// recovered first (checkpoint rollback, elastic or fixed) and the
    /// change retried against the recovered cluster.
    fn change_view(&mut self, events: Vec<MembershipEvent>) {
        loop {
            self.epoch += 1;
            for ep in &mut self.endpoints {
                ep.flush_delayed();
            }
            let p = self.ranks.len();
            // Crashes the plan schedules for this epoch fire during the
            // gossip round, exactly as they would during a physics phase.
            if p > 1 {
                for r in self.plan.crashed_ranks(self.epoch) {
                    if r >= p || self.dead[r] {
                        continue;
                    }
                    self.fault_log.record_fault(FaultEvent {
                        epoch: self.epoch,
                        from: r,
                        to: r,
                        kind: MsgKind::View,
                        fault: FaultKind::Crash,
                        attempt: 0,
                    });
                    self.dead[r] = true;
                    self.ranks[r] = Particles::new();
                    self.acc[r].clear();
                    self.pot[r].clear();
                }
            }
            if let Some(first) = (0..p).find(|&r| self.dead[r]) {
                // A member is down: its particles are gone, so recover
                // before changing the view — the change must not launder a
                // particle loss.
                self.restore_from_checkpoint(first);
                continue;
            }
            // Events the (possibly recovered) current view makes moot are
            // dropped; an all-moot change is a no-op.
            let evs: Vec<MembershipEvent> = events
                .iter()
                .copied()
                .filter(|e| match e {
                    MembershipEvent::Join(n) => !self.view.contains(*n),
                    MembershipEvent::Leave(n) | MembershipEvent::Death(n) => {
                        self.view.contains(*n)
                    }
                })
                .collect();
            if evs.is_empty() {
                return;
            }
            let mut events_at = vec![Vec::new(); p];
            events_at[0] = evs;
            let live = vec![true; p];
            match membership::converge(
                &mut self.endpoints,
                &self.fault_log,
                &live,
                self.epoch,
                &self.view,
                &events_at,
                MAX_RETRIES_HARD,
            ) {
                Ok(conv) => {
                    self.apply_view_change(conv);
                    return;
                }
                Err(silent) => {
                    // Gossip silence is a missed heartbeat: recover, retry.
                    self.restore_from_checkpoint(silent);
                }
            }
        }
    }

    /// Apply an agreed view change: re-split the key space for the new
    /// world ([`bonsai_domain::replan`]), migrate particles between the
    /// old and new rank sets over the fabric, compact or extend per-rank
    /// state, and re-evaluate forces on the new decomposition.
    fn apply_view_change(&mut self, conv: membership::Convergence) {
        let new_view = conv.view.clone();
        let old_view = self.view.clone();
        let (old_p, new_p) = (old_view.world(), new_view.world());
        debug_assert_eq!(old_p, self.ranks.len());
        let has_joiners = new_view.members.iter().any(|n| !old_view.contains(*n));
        let has_leavers = old_view.members.iter().any(|n| !new_view.contains(*n));
        assert!(
            !(has_joiners && has_leavers),
            "mixed join+leave view changes must be applied as separate changes"
        );
        let new_rank: Vec<Option<usize>> = old_view
            .members
            .iter()
            .map(|&n| new_view.rank_of(n))
            .collect();

        // Re-split the key space from the global (key, flop-weight)
        // multiset — the same balance objective as the steady-state
        // decomposition, evaluated driver-side like the sample sort.
        let mut bounds = Aabb::empty();
        for shard in &self.ranks {
            if !shard.is_empty() {
                bounds.merge(&shard.bounds());
            }
        }
        let keymap = KeyMap::new(&bounds, self.cfg.tree.curve);
        let keys: Vec<Vec<u64>> = self.ranks.iter().map(|r| keymap.keys_of(&r.pos)).collect();
        let mut pairs: Vec<(u64, f64)> = Vec::with_capacity(self.total_particles());
        for (r, ks) in keys.iter().enumerate() {
            let w = self.weights[r].max(1e-30);
            for &k in ks {
                pairs.push((k, w));
            }
        }
        pairs.sort_by(|a, b| a.0.cmp(&b.0));
        let new_domains = bonsai_domain::replan(&pairs, new_p, self.cfg.cap);
        let migration = Migration::plan(&keys, &new_domains, &new_rank);
        let migrated_particles = migration.migrant_count();
        let migrated_bytes = migration.wire_bytes();

        // Drain every old rank's emigrants into per-new-rank buckets. The
        // sabotage hook discards them here — drained but never shipped —
        // which retransmission cannot heal: exactly the loss the CI
        // conservation gate must catch.
        let mut buckets: Vec<Vec<Particles>> = Vec::with_capacity(old_p);
        for r in 0..old_p {
            let mut b = migration.apply(r, &mut self.ranks[r]);
            if self.drop_migrants {
                for pk in &mut b {
                    *pk = Particles::new();
                }
            }
            buckets.push(b);
        }
        let empty = particles_to_bytes(&Particles::new());
        let mut retx = 0usize;

        if new_p >= old_p {
            // Growth: joiners only exist on the new fabric, and old ranks
            // keep their indices (fresh ids sort last), so the migration
            // runs on the rebuilt world. Every pair exchanges a (possibly
            // empty) payload so receivers know exactly what to expect.
            debug_assert!(new_rank.iter().enumerate().all(|(r, &s)| s == Some(r)));
            self.rebuild_fabric(new_p);
            self.ranks.resize_with(new_p, Particles::new);
            self.acc = vec![Vec::new(); new_p];
            self.pot = vec![Vec::new(); new_p];
            let mut w = vec![1.0; new_p];
            w[..old_p].copy_from_slice(&self.weights);
            self.weights = w;
            self.dead = vec![false; new_p];
            self.view = new_view.clone();
            self.domains = new_domains;
            let mut payloads: Vec<Vec<Option<Bytes>>> = vec![vec![None; new_p]; new_p];
            for (from, row) in payloads.iter_mut().enumerate() {
                for (to, slot) in row.iter_mut().enumerate() {
                    if to == from {
                        continue;
                    }
                    *slot = Some(if from < old_p && !buckets[from][to].is_empty() {
                        particles_to_bytes(&buckets[from][to])
                    } else {
                        empty.clone()
                    });
                }
            }
            let expected = all_pairs_expected(new_p);
            let (got, missing) = exchange_validated(
                &mut self.endpoints,
                &self.fault_log,
                MsgKind::Particles,
                self.epoch,
                &payloads,
                &expected,
                MAX_RETRIES_HARD,
                &mut retx,
                |_, _, b| particles_from_bytes(b),
            );
            if let Some(&(_, from)) = missing.first() {
                self.restore_from_checkpoint(from);
                return;
            }
            for (to, row) in got.into_iter().enumerate() {
                for pk in row.into_iter().flatten() {
                    if !pk.is_empty() {
                        self.ranks[to].extend_from(&pk);
                    }
                }
            }
        } else {
            // Shrink: departing ranks only exist on the old fabric, so the
            // migration runs there; the world compacts afterwards.
            let mut payloads: Vec<Vec<Option<Bytes>>> = vec![vec![None; old_p]; old_p];
            for (from, row) in payloads.iter_mut().enumerate() {
                for (to, slot) in row.iter_mut().enumerate() {
                    if to == from {
                        continue;
                    }
                    let bucket = new_view
                        .rank_of(old_view.members[to])
                        .map(|d| &buckets[from][d])
                        .filter(|b| !b.is_empty());
                    *slot = Some(match bucket {
                        Some(b) => particles_to_bytes(b),
                        None => empty.clone(),
                    });
                }
            }
            let expected = all_pairs_expected(old_p);
            let (got, missing) = exchange_validated(
                &mut self.endpoints,
                &self.fault_log,
                MsgKind::Particles,
                self.epoch,
                &payloads,
                &expected,
                MAX_RETRIES_HARD,
                &mut retx,
                |_, _, b| particles_from_bytes(b),
            );
            if let Some(&(_, from)) = missing.first() {
                self.restore_from_checkpoint(from);
                return;
            }
            for (to, row) in got.into_iter().enumerate() {
                for pk in row.into_iter().flatten() {
                    if !pk.is_empty() {
                        self.ranks[to].extend_from(&pk);
                    }
                }
            }
            // Compact state to the surviving members, in new-view order.
            let survivors: Vec<usize> = new_view
                .members
                .iter()
                .map(|&n| old_view.rank_of(n).expect("survivor was a member"))
                .collect();
            self.ranks = survivors
                .iter()
                .map(|&o| std::mem::replace(&mut self.ranks[o], Particles::new()))
                .collect();
            self.weights = survivors.iter().map(|&o| self.weights[o]).collect();
            self.acc = vec![Vec::new(); new_p];
            self.pot = vec![Vec::new(); new_p];
            self.dead = vec![false; new_p];
            self.rebuild_fabric(new_p);
            self.view = new_view.clone();
            self.domains = new_domains;
        }

        self.fault_log.record_recovery(RecoveryEvent {
            epoch: self.epoch,
            rank: 0,
            peer: None,
            kind: Some(MsgKind::View),
            action: RecoveryAction::ViewChange,
            detail: format!(
                "view {} -> {} ({} -> {} ranks, {} migrants)",
                old_view.number,
                new_view.number,
                old_p,
                new_p,
                migrated_particles
            ),
        });
        let change = ViewChange {
            epoch: self.epoch,
            from_view: old_view.number,
            to_view: new_view.number,
            from_world: old_p,
            to_world: new_p,
            events: conv.events,
            rounds: conv.rounds,
            migrated_particles,
            migrated_bytes,
        };
        self.record_membership_change(&change);
        self.membership.push(change);
        // Fresh forces on the new decomposition; positions are unchanged,
        // so this is an observation change, not a physics change. Also
        // checkpoints the post-change state so a later crash does not roll
        // back across the membership boundary.
        self.compute_forces_with_recovery();
        self.write_recovery_checkpoint();
    }

    /// The distributed force computation: heartbeat + bounds, domain
    /// update, particle exchange, tree builds, boundary allgather,
    /// sufficiency checks, LET exchange, walks — with every inter-rank
    /// payload crossing the (possibly faulty) fabric in validated
    /// envelopes. Populates `self.acc` and returns the breakdown, or
    /// `Err(rank)` when a rank stayed silent through every retry and must
    /// be treated as crashed.
    fn try_gravity_phase(&mut self) -> Result<StepBreakdown, usize> {
        let p = self.ranks.len();
        let cfg = self.cfg.clone();
        let epoch = self.epoch;
        let mut meas = StepMeasurements {
            boundary_bytes: vec![0; p],
            let_bytes_sent: vec![0; p],
            let_neighbors: vec![0; p],
            exchange_bytes: vec![0; p],
            counts_local: vec![InteractionCounts::zero(); p],
            counts_lets: vec![InteractionCounts::zero(); p],
            sampled_keys: vec![0; p],
            ..StepMeasurements::default()
        };

        // --- 1. Heartbeat + global bounding box (an allreduce). ------------
        // Every alive rank broadcasts its local bounds as a Control frame;
        // this doubles as the liveness probe: a rank missing from every
        // retry round is reported dead.
        let mut bounds = Aabb::empty();
        if p > 1 {
            let mut payloads: Vec<Vec<Option<Bytes>>> = vec![vec![None; p]; p];
            for r in 0..p {
                if self.dead[r] {
                    continue;
                }
                let local = if self.ranks[r].is_empty() {
                    Aabb::empty()
                } else {
                    self.ranks[r].bounds()
                };
                let enc = Bytes::from(aabb_to_bytes(&local));
                for to in 0..p {
                    if to != r {
                        payloads[r][to] = Some(enc.clone());
                    }
                }
            }
            let expected = all_pairs_expected(p);
            let (got, missing) = exchange_validated(
                &mut self.endpoints,
                &self.fault_log,
                MsgKind::Control,
                epoch,
                &payloads,
                &expected,
                MAX_RETRIES_HARD,
                &mut meas.retransmit_bytes,
                |_, _, b| aabb_from_bytes(b),
            );
            if let Some(&(_, from)) = missing.first() {
                return Err(from);
            }
            // Every rank derives the same global box; use rank 0's view.
            if !self.ranks[0].is_empty() {
                bounds.merge(&self.ranks[0].bounds());
            }
            for from in 1..p {
                if let Some(b) = &got[0][from] {
                    bounds.merge(b);
                }
            }
        } else if !self.ranks[0].is_empty() {
            bounds.merge(&self.ranks[0].bounds());
        }
        let keymap = KeyMap::new(&bounds, cfg.tree.curve);

        // --- 2. Domain update: two-level sample sort + cap. ----------------
        if p > 1 {
            let per_rank_sorted: Vec<Vec<u64>> = self
                .ranks
                .par_iter()
                .map(|r| {
                    let mut ks = keymap.keys_of(&r.pos);
                    ks.sort_unstable();
                    ks
                })
                .collect();
            // Sampling-rate correction ∝ previous flop weight (§III-B1).
            let w_mean = self.weights.iter().sum::<f64>() / p as f64;
            let weighted: Vec<Vec<u64>> = per_rank_sorted
                .iter()
                .zip(&self.weights)
                .map(|(ks, &w)| {
                    let factor = (w / w_mean.max(1e-30)).clamp(0.25, 4.0);
                    let s = ((cfg.sample_s2 as f64 * factor) as usize).max(4);
                    bonsai_domain::sampling::systematic_sample(ks, s)
                })
                .collect();
            for (r, ks) in weighted.iter().enumerate() {
                meas.sampled_keys[r] = ks.len();
            }
            let (px, py) = factor_ranks(p);
            let (mut domains, _stats) = parallel_cuts(&weighted, px, py, cfg.sample_s1, cfg.sample_s2);
            // Enforce the 30% particle cap against the global key multiset.
            let mut all_keys: Vec<u64> = per_rank_sorted.iter().flatten().copied().collect();
            all_keys.sort_unstable();
            domains = enforce_particle_cap(&domains, &all_keys, cfg.cap);
            self.domains = domains;

            // --- 3. Particle exchange through the fabric. ------------------
            // Every pair exchanges a (possibly empty) migrant payload, so
            // the receive side knows exactly what to expect.
            let mut payloads: Vec<Vec<Option<Bytes>>> = vec![vec![None; p]; p];
            for me in 0..p {
                let ks = keymap.keys_of(&self.ranks[me].pos);
                let plan = ExchangePlan::plan(me, &ks, &self.domains);
                meas.exchange_bytes[me] = plan.wire_bytes();
                let shipped = plan.apply(&mut self.ranks[me]);
                for (dest, pk) in shipped.into_iter().enumerate() {
                    if dest != me {
                        payloads[me][dest] = Some(particles_to_bytes(&pk));
                    }
                }
            }
            let expected = all_pairs_expected(p);
            let (got, missing) = exchange_validated(
                &mut self.endpoints,
                &self.fault_log,
                MsgKind::Particles,
                epoch,
                &payloads,
                &expected,
                MAX_RETRIES_HARD,
                &mut meas.retransmit_bytes,
                |_, _, b| particles_from_bytes(b),
            );
            if let Some(&(_, from)) = missing.first() {
                return Err(from);
            }
            for (to, row) in got.into_iter().enumerate() {
                for pk in row.into_iter().flatten() {
                    if !pk.is_empty() {
                        self.ranks[to].extend_from(&pk);
                    }
                }
            }
        }

        // Imbalance after the exchange.
        let mean_n = self.total_particles() as f64 / p as f64;
        let max_n = self.ranks.iter().map(Particles::len).max().unwrap_or(0) as f64;
        meas.imbalance = if mean_n > 0.0 { max_n / mean_n } else { 1.0 };

        // --- 4. Per-rank trees over the shared key map. ---------------------
        let tree_params = cfg.tree;
        let rank_particles: Vec<Particles> = self.ranks.drain(..).collect();
        let trees: Vec<Tree> = rank_particles
            .into_par_iter()
            .map(|pr| Tree::build_with_keymap(pr, keymap.clone(), tree_params))
            .collect();

        // --- 5. Boundary allgather through the fabric. ----------------------
        let boundaries: Vec<LetTree> = trees
            .par_iter()
            .zip(self.domains.par_iter())
            .map(|(t, d)| boundary_tree(t, d))
            .collect();
        for (i, b) in boundaries.iter().enumerate() {
            meas.boundary_bytes[i] = b.wire_size();
        }
        // held[j][i]: rank j's validated wire copy of rank i's boundary.
        let mut held: Vec<Vec<Option<LetTree>>> =
            (0..p).map(|_| (0..p).map(|_| None).collect()).collect();
        if p > 1 {
            let mut payloads: Vec<Vec<Option<Bytes>>> = vec![vec![None; p]; p];
            for from in 0..p {
                let enc = boundaries[from].to_bytes();
                for to in 0..p {
                    if to != from {
                        payloads[from][to] = Some(enc.clone());
                    }
                }
            }
            let expected = all_pairs_expected(p);
            let (got, missing) = exchange_validated(
                &mut self.endpoints,
                &self.fault_log,
                MsgKind::Boundary,
                epoch,
                &payloads,
                &expected,
                MAX_RETRIES_HARD,
                &mut meas.retransmit_bytes,
                |_, _, b| parse_let_tree(b, "boundary"),
            );
            if let Some(&(_, from)) = missing.first() {
                return Err(from);
            }
            held = got;
        }

        // Each rank's own frontier geometry (walk targets for senders).
        let own_geoms: Vec<Vec<Aabb>> = boundaries.iter().map(LetTree::frontier_boxes).collect();

        // --- 6. Sufficiency checks + dedicated LETs (sender side). ----------
        // Sender i decides from its *received* copy of j's boundary; the
        // receiver re-derives the same decision from its own data, so both
        // sides agree on which LETs are in flight without extra messages.
        let let_builds: Vec<Vec<(usize, LetTree)>> = (0..p)
            .into_par_iter()
            .map(|i| {
                let mut out = Vec::new();
                if boundaries[i].is_empty() {
                    return out;
                }
                for j in 0..p {
                    if j == i {
                        continue;
                    }
                    let geom_j: Vec<Aabb> = held[i][j]
                        .as_ref()
                        .map(LetTree::frontier_boxes)
                        .unwrap_or_default();
                    if geom_j.is_empty() {
                        continue;
                    }
                    if !boundary_sufficient_for(&boundaries[i], &geom_j, cfg.theta) {
                        out.push((j, build_let(&trees[i], &geom_j, cfg.theta)));
                    }
                }
                out
            })
            .collect();
        let mut let_payloads: Vec<Vec<Option<Bytes>>> = vec![vec![None; p]; p];
        for (i, builds) in let_builds.iter().enumerate() {
            for (j, lt) in builds {
                meas.let_bytes_sent[i] += lt.wire_size();
                meas.let_neighbors[i] += 1;
                let_payloads[i][*j] = Some(lt.to_bytes());
            }
        }
        let expected_let: Vec<Vec<usize>> = (0..p)
            .map(|j| {
                (0..p)
                    .filter(|&i| i != j)
                    .filter(|&i| match &held[j][i] {
                        Some(bi) => {
                            !bi.is_empty()
                                && !own_geoms[j].is_empty()
                                && !boundary_sufficient_for(bi, &own_geoms[j], cfg.theta)
                        }
                        None => false,
                    })
                    .collect()
            })
            .collect();
        let mut got_lets: Vec<Vec<Option<LetTree>>> =
            (0..p).map(|_| (0..p).map(|_| None).collect()).collect();
        if p > 1 {
            let (got, missing) = exchange_validated(
                &mut self.endpoints,
                &self.fault_log,
                MsgKind::Let,
                epoch,
                &let_payloads,
                &expected_let,
                MAX_RETRIES_LET,
                &mut meas.retransmit_bytes,
                |_, _, b| parse_let_tree(b, "LET"),
            );
            got_lets = got;
            // A LET that never made it is not fatal: the receiver walks the
            // sender's boundary tree it already holds. Coarser MAC
            // acceptance shows up as forced cuts, which the step counts.
            for &(j, i) in &missing {
                // The flow resolves as recovered-by-fallback, not dead: the
                // receiver walks the boundary tree it already holds.
                self.flows.fallback_pending(epoch, i, j, MsgKind::Let);
                self.fault_log.record_recovery(RecoveryEvent {
                    epoch,
                    rank: j,
                    peer: Some(i),
                    kind: Some(MsgKind::Let),
                    action: RecoveryAction::BoundaryFallback,
                    detail: "dedicated LET lost; walking held boundary tree".to_string(),
                });
                meas.degraded_lets += 1;
            }
        }

        // sources[j] = what rank j walks for each remote rank i.
        let sources: Vec<Vec<(usize, RemoteSource)>> = (0..p)
            .map(|j| {
                let mut list = Vec::with_capacity(p.saturating_sub(1));
                for i in 0..p {
                    if i == j {
                        continue;
                    }
                    let Some(bi) = &held[j][i] else { continue };
                    if bi.is_empty() {
                        continue;
                    }
                    match got_lets[j][i].take() {
                        Some(lt) => list.push((i, RemoteSource::Dedicated(lt))),
                        None => list.push((i, RemoteSource::Boundary)),
                    }
                }
                list
            })
            .collect();

        // --- 7. Force walks: local tree + every remote source. -------------
        let params = WalkParams {
            theta: cfg.theta,
            eps: cfg.eps,
            g: cfg.g,
            use_quadrupole: true,
        };
        struct RankForces {
            forces: Forces,
            local: InteractionCounts,
            lets: InteractionCounts,
            forced: u64,
        }
        let results: Vec<RankForces> = (0..p)
            .into_par_iter()
            .map(|j| {
                let tree = &trees[j];
                let (mut forces, st_local) = walk::self_gravity(tree, &params);
                let mut lets = InteractionCounts::zero();
                let mut forced = st_local.forced_cuts;
                for (i, src) in &sources[j] {
                    let view = match src {
                        RemoteSource::Boundary => {
                            held[j][*i].as_ref().expect("held boundary").view()
                        }
                        RemoteSource::Dedicated(lt) => lt.view(),
                    };
                    let (f, st) =
                        walk::walk_tree(&view, &tree.particles.pos, &tree.groups, &params);
                    forces.accumulate(&f);
                    lets += st.counts;
                    forced += st.forced_cuts;
                }
                RankForces {
                    forces,
                    local: st_local.counts,
                    lets,
                    forced,
                }
            })
            .collect();

        // --- 8. Store state back; update weights. ---------------------------
        self.ranks = trees.into_iter().map(|t| t.particles).collect();
        self.acc = results.iter().map(|r| r.forces.acc.clone()).collect();
        self.pot = results.iter().map(|r| r.forces.pot.clone()).collect();
        for (i, r) in results.iter().enumerate() {
            meas.counts_local[i] = r.local;
            meas.counts_lets[i] = r.lets;
            meas.forced_cuts += r.forced;
            let flops = (r.local + r.lets).flops() as f64;
            self.weights[i] = flops / self.ranks[i].len().max(1) as f64;
        }

        meas.faults = self.fault_log.for_epoch(epoch);
        let breakdown = self.assemble_breakdown(&meas);
        self.record_observability(&meas, &breakdown);
        self.last_measurements = meas;
        Ok(breakdown)
    }

    /// Record a completed gravity epoch into the unified observability
    /// layer: per-rank spans for every Table II phase on the GPU lane
    /// (including the attributed integration sub-phase), load-balance and
    /// orchestration bookkeeping on the CPU lane, the LET exchange window
    /// and retransmission recovery on the COMM lane, explicit cross-rank
    /// `wait` spans for the barrier at the end of the epoch, fault
    /// instants, walk/link metrics, and the per-step gauge family
    /// [`Cluster::breakdown_from_metrics`] reduces over. The clock base
    /// then advances by the epoch's makespan so consecutive epochs render
    /// side by side in Perfetto.
    fn record_observability(&mut self, meas: &StepMeasurements, breakdown: &StepBreakdown) {
        // Drop the previous epoch's step-scoped gauges first: a label set
        // that existed only last epoch (a phase that didn't run, a derived
        // long-run signal) must not leak into this epoch's sample.
        self.registry.reset_step();
        let p = self.ranks.len();
        let step = self.epoch;
        let base = self.trace_clock;
        let gpu = self.gpu;
        // Host-CPU key-classification rate of the *configured* machine
        // (Titan's slower Opteron stretches this phase, §VI-B).
        let classify_rate = 130.0e6 * self.cfg.machine.cpu_let_rate;
        let orchestration = crate::breakdown::STEP_LAUNCHES * crate::breakdown::LAUNCH_LATENCY;
        let mut local_starts = vec![0.0; p];
        // Each rank's modeled LET-exchange window length; the flow anchors
        // below spread a sender's flows across it.
        let mut comm_durs = vec![0.0; p];
        // Per-rank busy end (all lanes): where each rank hits the epoch's
        // closing barrier and starts waiting for the straggler.
        let mut rank_end = vec![base; p];
        for r in 0..p {
            let n = self.ranks[r].len() as u64;
            let rank = r as u32;
            let mut t = base;
            for (name, dur, rate, cost) in [
                ("sort", gpu.sort_time(n), gpu.sort_rate, SORT_COST),
                ("domain", n as f64 / classify_rate, classify_rate, DOMAIN_COST),
                ("build", gpu.build_time(n), gpu.build_rate, BUILD_COST),
                ("props", gpu.props_time(n), gpu.props_rate, PROPS_COST),
            ] {
                let id = self.trace.span(rank, step, Lane::Gpu, name, t, t + dur);
                gpu.annotate_stream_span(&mut self.trace, id, n, rate, cost);
                t += dur;
            }
            let local_start = t;
            local_starts[r] = local_start;
            for (name, counts) in [("local", meas.counts_local[r]), ("lets", meas.counts_lets[r])]
            {
                let dur = gpu.gravity_time(counts);
                let id = self.trace.span(rank, step, Lane::Gpu, name, t, t + dur);
                gpu.annotate_gravity_span(&mut self.trace, id, counts);
                t += dur;
            }
            // The attributed tail of the former "other" bucket: leapfrog
            // integration on the device, then load-balance bookkeeping and
            // host orchestration on the CPU lane.
            let d_int = n as f64 / crate::breakdown::INTEGRATE_RATE;
            let id = self.trace.span(rank, step, Lane::Gpu, "integrate", t, t + d_int);
            gpu.annotate_stream_span(
                &mut self.trace,
                id,
                n,
                crate::breakdown::INTEGRATE_RATE,
                INTEGRATE_COST,
            );
            t += d_int;
            let d_bal = meas.sampled_keys[r] as f64 / classify_rate;
            let id = self.trace.span(rank, step, Lane::Cpu, "balance", t, t + d_bal);
            self.trace.arg_u64(id, "sampled_keys", meas.sampled_keys[r] as u64);
            t += d_bal;
            let id = self.trace.span(rank, step, Lane::Cpu, "orchestrate", t, t + orchestration);
            self.trace
                .arg_f64(id, "launches", crate::breakdown::STEP_LAUNCHES);
            t += orchestration;
            // COMM lane: the LET exchange runs concurrently with local
            // gravity (the overlap story of §III-B2).
            let nb = meas.let_neighbors[r] as u32;
            let per = if nb > 0 {
                (meas.let_bytes_sent[r] / nb as usize) as u64
            } else {
                0
            };
            let comm_dur = self.net.let_exchange_time(nb, per);
            comm_durs[r] = comm_dur;
            let id = self.trace.span(
                rank,
                step,
                Lane::Comm,
                "let-comm",
                local_start,
                local_start + comm_dur,
            );
            self.trace.arg_u64(id, "bytes", meas.let_bytes_sent[r] as u64);
            self.trace.arg_u64(id, "neighbors", nb as u64);
            rank_end[r] = t.max(local_start + comm_dur);

            record_walk_counts(&mut self.registry, "local", meas.counts_local[r]);
            record_walk_counts(&mut self.registry, "lets", meas.counts_lets[r]);
            for (kind, bytes) in [
                ("boundary", meas.boundary_bytes[r]),
                ("let", meas.let_bytes_sent[r]),
                ("exchange", meas.exchange_bytes[r]),
            ] {
                self.net.observe_link(&mut self.registry, kind, r, bytes as u64);
            }
        }
        // Flow lifecycles of this epoch: anchor every sealed envelope's
        // modeled send/resolve instants inside the step window, emit the
        // Perfetto arrow points (`s` on the sender's COMM lane, `t` per
        // retransmission, `f` at the receiver), and record the flow-level
        // metrics family.
        let flows = self.flows.for_epoch(step);
        let clock = FlowClock::new(&self.net);
        let mut summaries: Vec<FlowSummary> = Vec::new();
        // Spread each sender's flows across its exchange window (seal order
        // = slot order) so the arrows land where the transfer would be in
        // flight, not stacked at the window's opening instant. Delivery
        // latency is anchor-invariant: send and resolve shift together.
        let mut flow_count = vec![0usize; p];
        for r in &flows {
            if r.from < p {
                flow_count[r.from] += 1;
            }
        }
        let mut flow_seq = vec![0usize; p];
        for r in &flows {
            let slot = if r.from < p && flow_count[r.from] > 0 {
                let i = flow_seq[r.from];
                flow_seq[r.from] += 1;
                comm_durs[r.from] * i as f64 / flow_count[r.from] as f64
            } else {
                0.0
            };
            // `local_starts` is absolute (accumulated from `base`): the
            // exchange window of each rank opens at its local-gravity start.
            let base_from = local_starts.get(r.from).copied().unwrap_or(base) + slot;
            let base_to = local_starts.get(r.to).copied().unwrap_or(base);
            let send_at = clock.send_at(r, 0, base_from);
            let resolve_at = clock.resolve_at(r, base_from, base_to);
            let name = format!("flow:{:?}", r.kind);
            self.trace
                .flow_point(r.id, r.from as u32, step, Lane::Comm, name.clone(), send_at, FlowPhase::Start);
            for a in 1..r.attempts {
                self.trace.flow_point(
                    r.id,
                    r.from as u32,
                    step,
                    Lane::Comm,
                    name.clone(),
                    clock.send_at(r, a, base_from),
                    FlowPhase::Step,
                );
            }
            if let Some(at) = resolve_at {
                self.trace
                    .flow_point(r.id, r.to as u32, step, Lane::Comm, name, at, FlowPhase::Finish);
            }
            let link = format!("{}->{}", r.from, r.to);
            let outcome = r.outcome.label();
            if r.attempts > 1 {
                self.registry.counter_add(
                    "bonsai_flow_retransmits_total",
                    &[("link", link.as_str())],
                    (r.attempts - 1) as u64,
                );
            }
            if let Some(d) = clock.deliver_at(r, base_from) {
                self.registry
                    .histogram_observe("bonsai_flow_delivery_seconds", &[], d - send_at);
            }
            // Exposed flows: the ones whose cost the overlap window could
            // not hide (a retransmission or a fallback reroute).
            if r.attempts > 1 || outcome == "fallback" {
                self.registry.counter_add(
                    "bonsai_flow_exposed_total",
                    &[("kind", &format!("{:?}", r.kind))],
                    1,
                );
            }
            summaries.push(FlowSummary {
                id: r.id,
                step,
                epoch: r.epoch,
                from: r.from,
                to: r.to,
                kind: format!("{:?}", r.kind),
                bytes: r.bytes,
                attempts: r.attempts,
                faults: r.injected.iter().map(|(_, f)| f.to_string()).collect(),
                outcome: outcome.to_string(),
                send_at,
                resolve_at,
            });
        }

        // The epoch's closing barrier: every rank that finishes before the
        // straggler records an explicit cross-rank wait span, so the
        // critical-path analyzer sees slack instead of blank lanes. The
        // span carries the wait's *cause*, classified from the flows that
        // touched the straggler (fallback > stall > retransmission >
        // late-sender), which is what the critical path harvests into its
        // by-cause breakdown.
        let mut straggler = 0usize;
        for (r, &e) in rank_end.iter().enumerate() {
            if e > rank_end[straggler] {
                straggler = r;
            }
        }
        let cause = waits::classify(
            summaries
                .iter()
                .filter(|f| f.from == straggler || f.to == straggler),
        )
        .name();
        let barrier = rank_end[straggler];
        for (r, &e) in rank_end.iter().enumerate() {
            if barrier - e > 1e-15 {
                let id = self
                    .trace
                    .span(r as u32, step, Lane::Cpu, "wait", e, barrier);
                self.trace.arg_u64(id, "waiting_on", straggler as u64);
                self.trace.arg_str(id, "cause", cause);
            }
        }
        self.last_flows = summaries;
        let mut makespan = barrier - base;
        // Recovery retransmissions happen after the normal windows close;
        // the traffic is aggregate, so the span lands on rank 0's COMM lane.
        if breakdown.recovery > 0.0 {
            let start = base + makespan;
            let id = self.trace.span(
                0,
                step,
                Lane::Comm,
                "recovery",
                start,
                start + breakdown.recovery,
            );
            self.trace
                .arg_u64(id, "retransmit_bytes", meas.retransmit_bytes as u64);
            self.net
                .observe_link(&mut self.registry, "retransmit", 0, meas.retransmit_bytes as u64);
            makespan += breakdown.recovery;
        }
        bonsai_net::obs::record_fault_log(&meas.faults, &flows, &self.net, &mut self.trace, step, &|rank| {
            local_starts.get(rank).copied().unwrap_or(base)
        });

        for (phase, secs) in breakdown.phase_times().iter() {
            self.registry
                .step_gauge_set("bonsai_step_phase_seconds", &[("phase", phase)], secs);
        }
        self.registry
            .step_gauge_set("bonsai_step_gpus", &[], breakdown.gpus as f64);
        self.registry.step_gauge_set(
            "bonsai_step_particles_per_gpu",
            &[],
            breakdown.particles_per_gpu as f64,
        );
        self.registry
            .step_gauge_set("bonsai_step_pp_per_particle", &[], breakdown.pp_per_particle);
        self.registry
            .step_gauge_set("bonsai_step_pc_per_particle", &[], breakdown.pc_per_particle);
        self.trace_clock = base + makespan;
    }

    /// Charge the measured quantities to the machine models.
    fn assemble_breakdown(&self, meas: &StepMeasurements) -> StepBreakdown {
        let p = self.ranks.len() as u32;
        let n_max = self.ranks.iter().map(Particles::len).max().unwrap_or(0) as u64;
        let n_mean = (self.total_particles() as f64 / p as f64) as u64;

        let sort = self.gpu.sort_time(n_max);
        let tree_construction = self.gpu.build_time(n_max);
        let tree_properties = self.gpu.props_time(n_max);

        // Domain update: CPU key classification + boundary allgather +
        // exchange.
        let classify = n_max as f64 / (130.0e6 * self.cfg.machine.cpu_let_rate);
        let avg_boundary =
            meas.boundary_bytes.iter().sum::<usize>() as u64 / p.max(1) as u64;
        let allgather = self.net.allgatherv_time(p, avg_boundary);
        let max_exchange = meas.exchange_bytes.iter().copied().max().unwrap_or(0) as u64;
        let domain_update = if p <= 1 {
            0.0
        } else {
            classify + allgather + self.net.particle_exchange_time(max_exchange, 6)
        };

        // Gravity (critical path = slowest rank per phase).
        let gravity_local = meas
            .counts_local
            .iter()
            .map(|&c| self.gpu.gravity_time(c))
            .fold(0.0, f64::max);
        let gravity_lets = meas
            .counts_lets
            .iter()
            .map(|&c| self.gpu.gravity_time(c))
            .fold(0.0, f64::max);

        // LET communication (per-rank injection) vs the overlap window.
        let let_comm: f64 = meas
            .let_bytes_sent
            .iter()
            .zip(&meas.let_neighbors)
            .map(|(&b, &nb)| {
                let per = if nb > 0 { (b / nb.max(1)) as u64 } else { 0 };
                self.net.let_exchange_time(nb as u32, per)
            })
            .fold(0.0, f64::max);
        let non_hidden_comm = (let_comm - gravity_local).max(0.0);

        // Recovery traffic: retransmissions are extra injection-bandwidth
        // time that nothing overlaps (they happen after the phase's normal
        // window has closed).
        let recovery = if meas.retransmit_bytes > 0 {
            self.net.let_exchange_time(1, meas.retransmit_bytes as u64)
        } else {
            0.0
        };

        // The former "Unbalance + Other" bucket, attributed to its real
        // sub-phases: leapfrog integration (device, bandwidth-bound),
        // load-balance bookkeeping (host processing of the sampled keys),
        // host orchestration (kernel-launch / driver latency), and the
        // cross-rank straggler gap in total gravity.
        let totals: Vec<f64> = meas
            .counts_local
            .iter()
            .zip(&meas.counts_lets)
            .map(|(&a, &b)| self.gpu.gravity_time(a + b))
            .collect();
        let max_t = totals.iter().fold(0.0f64, |a, &b| a.max(b));
        let mean_t = totals.iter().sum::<f64>() / totals.len() as f64;
        let integration = n_max as f64 / crate::breakdown::INTEGRATE_RATE;
        let load_balance = meas.sampled_keys.iter().copied().max().unwrap_or(0) as f64
            / (130.0e6 * self.cfg.machine.cpu_let_rate);
        let orchestration = crate::breakdown::STEP_LAUNCHES * crate::breakdown::LAUNCH_LATENCY;
        let unbalance = max_t - mean_t;

        let total_counts: InteractionCounts = meas
            .counts_local
            .iter()
            .zip(&meas.counts_lets)
            .map(|(&a, &b)| a + b)
            .sum();
        let n_total = self.total_particles();
        let (pp_pp, pc_pp) = total_counts.per_particle(n_total);

        StepBreakdown {
            gpus: p,
            particles_per_gpu: n_mean,
            sort,
            domain_update,
            tree_construction,
            tree_properties,
            gravity_local,
            gravity_lets,
            non_hidden_comm,
            recovery,
            integration,
            load_balance,
            orchestration,
            unbalance,
            pp_per_particle: pp_pp,
            pc_per_particle: pc_pp,
        }
    }

    /// The flop-balance residual the §III-B1 balancer could attain *right
    /// now*: apply [`bonsai_domain::load::weighted_cuts`] to the global
    /// (key, flop-weight) multiset built from the current particles and the
    /// previous step's per-rank flop weights, and return the max/mean piece
    /// weight of the resulting cuts. The cross-rank analysis layer compares
    /// the *measured* per-rank flop shares against this attainable target —
    /// a measured imbalance far above it means the balancer is lagging the
    /// weight field, not that the field is unbalanceable.
    pub fn rebalance_residual(&self) -> f64 {
        let p = self.ranks.len();
        if p <= 1 {
            return 1.0;
        }
        let mut bounds = Aabb::empty();
        for shard in &self.ranks {
            if !shard.is_empty() {
                bounds.merge(&shard.bounds());
            }
        }
        let keymap = KeyMap::new(&bounds, self.cfg.tree.curve);
        let mut pairs: Vec<(u64, f64)> = Vec::with_capacity(self.total_particles());
        for (r, shard) in self.ranks.iter().enumerate() {
            let w = self.weights[r];
            for &q in &shard.pos {
                pairs.push((keymap.key_of(q), w));
            }
        }
        pairs.sort_by(|a, b| a.0.cmp(&b.0));
        let ranges = bonsai_domain::load::weighted_cuts(&pairs, p);
        let shares = bonsai_domain::load::weight_shares(&pairs, &ranges);
        bonsai_domain::load::share_imbalance(&shares)
    }

    /// Flow summaries (modeled times) of the most recent recorded epoch —
    /// the per-step slice the wait-attribution analysis and the flow bench
    /// consume.
    pub fn last_flow_summaries(&self) -> &[FlowSummary] {
        &self.last_flows
    }

    /// Snapshot of the whole run's flow ledger (every envelope sealed on
    /// the fabric since construction).
    pub fn flow_ledger(&self) -> FlowLedger {
        self.flows.snapshot()
    }

    /// Conservation totals over every flow sealed so far: in a completed
    /// run, sealed = delivered + fallback + dead with nothing pending.
    pub fn flow_conservation(&self) -> FlowConservation {
        self.flows.conservation()
    }
}

/// Initial decomposition: even counts along the SFC (also used to
/// re-scatter a checkpoint during crash recovery).
fn seed_decomposition(
    all: &Particles,
    p: usize,
    cfg: &ClusterConfig,
) -> (Vec<Particles>, Vec<KeyRange>) {
    let keymap = KeyMap::new(&all.bounds(), cfg.tree.curve);
    let keys: Vec<u64> = all.pos.iter().map(|&q| keymap.key_of(q)).collect();
    let mut sorted = keys.clone();
    sorted.sort_unstable();
    let cuts: Vec<u64> = (1..p).map(|i| sorted[i * all.len() / p]).collect();
    let domains = bonsai_sfc::range::ranges_from_cuts(&cuts);
    let mut ranks: Vec<Particles> = (0..p).map(|_| Particles::new()).collect();
    for i in 0..all.len() {
        let r = bonsai_sfc::range::find_owner(&domains, keys[i]);
        ranks[r].push(all.pos[i], all.vel[i], all.mass[i], all.id[i]);
    }
    (ranks, domains)
}

/// `expected[to]` = every other rank (the all-pairs exchanges).
fn all_pairs_expected(p: usize) -> Vec<Vec<usize>> {
    (0..p)
        .map(|to| (0..p).filter(|&f| f != to).collect())
        .collect()
}

fn aabb_to_bytes(b: &Aabb) -> Vec<u8> {
    let mut v = Vec::with_capacity(48);
    for f in [b.min.x, b.min.y, b.min.z, b.max.x, b.max.y, b.max.z] {
        v.extend_from_slice(&f.to_le_bytes());
    }
    v
}

fn aabb_from_bytes(d: &[u8]) -> Result<Aabb, String> {
    if d.len() != 48 {
        return Err(format!("bounds payload is {} bytes, expected 48", d.len()));
    }
    let f = |i: usize| f64::from_le_bytes(d[i * 8..i * 8 + 8].try_into().unwrap());
    for k in 0..6 {
        if f(k).is_nan() {
            return Err("bounds contain NaN".to_string());
        }
    }
    Ok(Aabb {
        min: Vec3::new(f(0), f(1), f(2)),
        max: Vec3::new(f(3), f(4), f(5)),
    })
}

fn parse_let_tree(b: &[u8], what: &str) -> Result<LetTree, String> {
    let lt = LetTree::from_bytes(b).ok_or_else(|| format!("{what} wire decode failed"))?;
    lt.check_invariants()
        .map_err(|e| format!("{what} invariants: {e}"))?;
    Ok(lt)
}

/// One all-to-all exchange over the (possibly faulty) fabric with strict
/// receive-side validation and bounded retransmission.
///
/// `payloads[from][to]` is what `from` owes `to` (`None` = nothing);
/// `expected[to]` lists the senders `to` waits for. Frames failing envelope
/// validation, carrying a stale epoch or the wrong kind, arriving twice, or
/// failing semantic `parse` are discarded (and logged); missing slots are
/// re-requested up to `max_retries` times, with retransmitted bytes counted
/// into `retransmit_bytes`. Returns the validated values plus the `(to,
/// from)` pairs still missing after the final attempt — the caller decides
/// whether that means degradation or a dead rank.
///
/// Every send and drain runs on the caller's thread in rank order, so the
/// resulting [`FaultLog`] is deterministic for a given plan.
#[allow(clippy::too_many_arguments)]
fn exchange_validated<T>(
    endpoints: &mut [FaultyEndpoint],
    log: &SharedFaultLog,
    kind: MsgKind,
    epoch: u64,
    payloads: &[Vec<Option<Bytes>>],
    expected: &[Vec<usize>],
    max_retries: u32,
    retransmit_bytes: &mut usize,
    parse: impl Fn(usize, usize, &[u8]) -> Result<T, String>,
) -> (Vec<Vec<Option<T>>>, Vec<(usize, usize)>) {
    let p = endpoints.len();
    for from in 0..p {
        for to in 0..p {
            if let Some(pl) = &payloads[from][to] {
                endpoints[from].send_framed(to, kind, epoch, 0, pl);
            }
        }
        endpoints[from].flush_reordered();
    }
    let mut got: Vec<Vec<Option<T>>> = (0..p).map(|_| (0..p).map(|_| None).collect()).collect();
    let mut attempt = 0u32;
    loop {
        for to in 0..p {
            while let Some(msg) = endpoints[to].try_recv() {
                let discard = |action: RecoveryAction, peer: Option<usize>, detail: String| {
                    log.record_recovery(RecoveryEvent {
                        epoch,
                        rank: to,
                        peer,
                        kind: Some(kind),
                        action,
                        detail,
                    });
                };
                let env = match envelope::open(&msg.payload) {
                    Ok(env) => env,
                    Err(e) => {
                        discard(RecoveryAction::DiscardCorrupt, Some(msg.from), e.to_string());
                        continue;
                    }
                };
                let from = env.from;
                if env.epoch != epoch {
                    discard(
                        RecoveryAction::DiscardStale,
                        Some(from),
                        format!("frame from epoch {}", env.epoch),
                    );
                    continue;
                }
                if env.kind != kind {
                    discard(
                        RecoveryAction::DiscardStale,
                        Some(from),
                        format!("late {:?} frame during {kind:?} phase", env.kind),
                    );
                    continue;
                }
                if from >= p || !expected[to].contains(&from) {
                    discard(
                        RecoveryAction::DiscardStale,
                        Some(from),
                        "unexpected sender".to_string(),
                    );
                    continue;
                }
                if got[to][from].is_some() {
                    discard(
                        RecoveryAction::DiscardDuplicate,
                        Some(from),
                        "extra copy discarded".to_string(),
                    );
                    continue;
                }
                match parse(to, from, env.payload) {
                    Ok(v) => {
                        // Validated arrival closes the flow's lifecycle; the
                        // id rode inside the envelope, so reordered and
                        // delayed frames settle their own flow.
                        endpoints[to].flows().deliver(env.flow, env.seq);
                        got[to][from] = Some(v);
                    }
                    Err(why) => discard(RecoveryAction::DiscardCorrupt, Some(from), why),
                }
            }
        }
        let missing: Vec<(usize, usize)> = (0..p)
            .flat_map(|to| {
                expected[to]
                    .iter()
                    .filter(|&&f| got[to][f].is_none())
                    .map(move |&f| (to, f))
                    .collect::<Vec<_>>()
            })
            .collect();
        if missing.is_empty() || attempt >= max_retries {
            return (got, missing);
        }
        attempt += 1;
        for &(to, from) in &missing {
            if let Some(pl) = &payloads[from][to] {
                log.record_recovery(RecoveryEvent {
                    epoch,
                    rank: to,
                    peer: Some(from),
                    kind: Some(kind),
                    action: RecoveryAction::Retransmit,
                    detail: format!("attempt {attempt}"),
                });
                *retransmit_bytes += pl.len();
                endpoints[from].send_framed(to, kind, epoch, attempt, pl);
            }
        }
        for ep in endpoints.iter_mut() {
            ep.flush_reordered();
        }
    }
}

/// Factor `p = px·py` with `px ≈ √p` (the paper's DD-process grid).
pub fn factor_ranks(p: usize) -> (usize, usize) {
    let mut px = (p as f64).sqrt() as usize;
    while px > 1 && p % px != 0 {
        px -= 1;
    }
    (px.max(1), p / px.max(1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use bonsai_ic::plummer_sphere;
    use bonsai_tree::direct::direct_self_forces;

    fn small_cluster(n: usize, p: usize, seed: u64) -> Cluster {
        let ic = plummer_sphere(n, seed);
        Cluster::new(ic, p, ClusterConfig::default())
    }

    #[test]
    fn factorization() {
        assert_eq!(factor_ranks(16), (4, 4));
        assert_eq!(factor_ranks(12), (3, 4));
        assert_eq!(factor_ranks(7), (1, 7));
        assert_eq!(factor_ranks(1), (1, 1));
    }

    #[test]
    fn particles_conserved_across_steps() {
        let mut c = small_cluster(4000, 8, 1);
        assert_eq!(c.total_particles(), 4000);
        for _ in 0..3 {
            c.step();
        }
        assert_eq!(c.total_particles(), 4000);
        let mut ids: Vec<u64> = c.gather().id;
        ids.sort_unstable();
        assert_eq!(ids, (0..4000).collect::<Vec<u64>>());
    }

    #[test]
    fn fault_free_runs_have_clean_logs() {
        let mut c = small_cluster(2000, 5, 9);
        for _ in 0..2 {
            c.step();
        }
        assert!(c.fault_log().is_clean());
        assert_eq!(c.last_measurements.retransmit_bytes, 0);
        assert_eq!(c.last_measurements.degraded_lets, 0);
        assert!(c.last_measurements.faults.is_clean());
    }

    #[test]
    fn distributed_forces_match_direct_reference() {
        let n = 3000;
        let ic = plummer_sphere(n, 2);
        let cfg = ClusterConfig::default();
        let (reference, _) = direct_self_forces(&ic, cfg.eps, cfg.g);
        let ref_by_id: std::collections::HashMap<u64, Vec3> = ic
            .id
            .iter()
            .zip(&reference.acc)
            .map(|(&i, &a)| (i, a))
            .collect();

        let c = Cluster::new(ic, 7, cfg);
        let acc = c.accelerations_by_id();
        assert_eq!(acc.len(), n);
        let mut rms = 0.0;
        for (id, a) in &acc {
            let r = ref_by_id[id];
            let e = (*a - r).norm() / r.norm().max(1e-12);
            rms += e * e;
        }
        let rms = (rms / n as f64).sqrt();
        assert!(rms < 3e-3, "distributed vs direct rms error {rms}");
        // LETs were essentially never violated.
        let frac = c.last_measurements.forced_cuts as f64
            / (c.last_measurements.counts_lets.iter().map(|x| x.pc).sum::<u64>() as f64).max(1.0);
        assert!(frac < 1e-3, "forced-cut fraction {frac}");
    }

    #[test]
    fn distributed_matches_single_process_accuracy() {
        // The distributed result must be as accurate as a single-process
        // tree walk at the same θ (paper: identical algorithm).
        let n = 3000;
        let ic = plummer_sphere(n, 3);
        let cfg = ClusterConfig::default();
        let (reference, _) = direct_self_forces(&ic, cfg.eps, cfg.g);

        // Single-process error:
        let tree = Tree::build(ic.clone(), cfg.tree);
        let (single, _) = walk::self_gravity(
            &tree,
            &WalkParams {
                theta: cfg.theta,
                eps: cfg.eps,
                g: cfg.g,
                use_quadrupole: true,
            },
        );
        let mut ref_sorted = Forces::zeros(n);
        for i in 0..n {
            let idx = tree.particles.id[i] as usize;
            ref_sorted.acc[i] = reference.acc[idx];
            ref_sorted.pot[i] = reference.pot[idx];
        }
        let err_single = single.rms_rel_acc_error(&ref_sorted);

        // Distributed error:
        let c = Cluster::new(ic.clone(), 5, cfg);
        let acc = c.accelerations_by_id();
        let mut err2 = 0.0;
        for i in 0..n {
            let a = acc[&(i as u64)];
            let r = reference.acc[i];
            let e = (a - r).norm() / r.norm().max(1e-12);
            err2 += e * e;
        }
        let err_dist = (err2 / n as f64).sqrt();
        assert!(
            err_dist < 2.0 * err_single + 1e-6,
            "distributed {err_dist} vs single {err_single}"
        );
    }

    #[test]
    fn load_stays_within_cap() {
        let mut c = small_cluster(6000, 6, 4);
        for _ in 0..2 {
            c.step();
        }
        let imb = c.last_measurements.imbalance;
        assert!(imb <= 1.4, "imbalance {imb} exceeds cap era");
    }

    #[test]
    fn distant_ranks_reuse_boundaries() {
        // Two well-separated galaxies: ranks inside the same blob are near
        // neighbours needing dedicated LETs, while cross-blob pairs are far
        // enough to use the broadcast boundary tree as the LET (the paper's
        // "~40 nearest neighbours" situation in miniature).
        let mut a = plummer_sphere(4000, 5);
        let b = plummer_sphere(4000, 55);
        for i in 0..b.len() {
            a.push(b.pos[i] + Vec3::new(60.0, 0.0, 0.0), b.vel[i], b.mass[i], 4000 + b.id[i]);
        }
        let c = Cluster::new(a, 8, ClusterConfig::default());
        let m = &c.last_measurements;
        let total_pairs = 8 * 7;
        let dedicated: usize = m.let_neighbors.iter().sum();
        assert!(
            dedicated < total_pairs,
            "every pair needed a dedicated LET ({dedicated}/{total_pairs})"
        );
        assert!(dedicated > 0, "adjacent ranks must need dedicated LETs");
    }

    #[test]
    fn energy_conserved_by_distributed_leapfrog() {
        let n = 2000;
        let ic = plummer_sphere(n, 6);
        let e0 = bonsai_tree::direct::total_energy(&ic, 0.01, 1.0);
        let mut cfg = ClusterConfig::default();
        cfg.eps = 0.01;
        cfg.dt = 0.005;
        let mut c = Cluster::new(ic, 4, cfg);
        // The distributed on-the-fly energy monitor must agree with the
        // direct-summation energy at start…
        let r0 = c.energy_report();
        assert!(
            ((r0.total() - e0) / e0).abs() < 2e-3,
            "tree energy {} vs direct {e0}",
            r0.total()
        );
        for _ in 0..20 {
            c.step();
        }
        let final_p = c.gather();
        let e1 = bonsai_tree::direct::total_energy(&final_p, 0.01, 1.0);
        let drift = ((e1 - e0) / e0).abs();
        assert!(drift < 5e-3, "energy drift {drift} over 20 distributed steps");
        // …and track the drift itself.
        let r1 = c.energy_report();
        assert!(r1.drift_from(&r0) < 5e-3, "monitored drift {}", r1.drift_from(&r0));
        assert!((r1.virial_ratio() - 0.5).abs() < 0.1);
    }

    #[test]
    fn breakdown_is_populated_and_gravity_dominates() {
        let mut c = small_cluster(8000, 4, 7);
        let b = c.step();
        assert_eq!(b.gpus, 4);
        assert!(b.gravity_local > 0.0);
        assert!(b.gravity_lets > 0.0);
        assert!(b.pp_per_particle > 0.0 && b.pc_per_particle > 0.0);
        assert!(b.total() > 0.0);
        assert_eq!(b.recovery, 0.0, "no recovery cost without faults");
        // At small N the GPU model still makes gravity the dominant phase
        // relative to tree build.
        assert!(b.gravity_local + b.gravity_lets > b.tree_construction);
    }

    #[test]
    fn breakdown_reduces_from_registry() {
        // The registry view must reproduce the returned breakdown exactly:
        // instrumentation changes observation, not physics or timing.
        let mut c = small_cluster(3000, 4, 12);
        let b = c.step();
        let r = c.breakdown_from_metrics();
        assert_eq!(r.gpus, b.gpus);
        assert_eq!(r.particles_per_gpu, b.particles_per_gpu);
        assert_eq!(r.sort, b.sort);
        assert_eq!(r.domain_update, b.domain_update);
        assert_eq!(r.gravity_local, b.gravity_local);
        assert_eq!(r.gravity_lets, b.gravity_lets);
        assert_eq!(r.non_hidden_comm, b.non_hidden_comm);
        assert_eq!(r.recovery, b.recovery);
        assert_eq!(r.integration, b.integration);
        assert_eq!(r.load_balance, b.load_balance);
        assert_eq!(r.orchestration, b.orchestration);
        assert_eq!(r.unbalance, b.unbalance);
        assert_eq!(r.other(), b.other());
        assert_eq!(r.pp_per_particle, b.pp_per_particle);
        assert_eq!(r.pc_per_particle, b.pc_per_particle);
        assert_eq!(r.total(), b.total());
    }

    #[test]
    fn trace_records_every_phase_and_lays_steps_out_sequentially() {
        let mut c = small_cluster(2000, 3, 13);
        c.step();
        let store = c.trace();
        // Construction runs epoch 1; the step runs epoch 2.
        assert_eq!(store.last_step(), Some(2));
        for r in 0..3 {
            let names: Vec<&str> = store
                .spans_for(r, 2)
                .filter(|s| s.lane == bonsai_obs::Lane::Gpu)
                .map(|s| s.name.as_str())
                .collect();
            assert_eq!(
                names,
                ["sort", "domain", "build", "props", "local", "lets", "integrate"]
            );
            let comm: Vec<&str> = store
                .spans_for(r, 2)
                .filter(|s| s.lane == bonsai_obs::Lane::Comm)
                .map(|s| s.name.as_str())
                .collect();
            assert_eq!(comm, ["let-comm"]);
            // The CPU lane carries the bookkeeping tail; every rank but the
            // straggler also records a cross-rank barrier wait.
            let cpu: Vec<&str> = store
                .spans_for(r, 2)
                .filter(|s| s.lane == bonsai_obs::Lane::Cpu)
                .map(|s| s.name.as_str())
                .collect();
            assert!(cpu.starts_with(&["balance", "orchestrate"]), "cpu lane {cpu:?}");
        }
        let waits = store
            .spans()
            .iter()
            .filter(|s| s.step == 2 && s.name == "wait")
            .count();
        assert!(waits >= 1, "expected at least one barrier wait span");
        // Gravity spans carry the device model's annotations.
        let local = store
            .spans_for(0, 2)
            .find(|s| s.name == "local")
            .expect("local span");
        assert!(local.args.iter().any(|(k, _)| *k == "gflops"));
        assert!(local.args.iter().any(|(k, _)| *k == "occupancy"));
        // Counters accumulate across epochs; gauges hold the latest.
        assert!(c.metrics().counter_family_total("bonsai_walk_flops_total") > 0);
        assert!(c.metrics().counter_family_total("bonsai_net_kind_bytes_total") > 0);
        // Epoch 2 starts on the global clock where epoch 1 ended.
        let e1_end = store
            .spans()
            .iter()
            .filter(|s| s.step == 1)
            .map(|s| s.end)
            .fold(0.0, f64::max);
        let e2_start = store
            .spans()
            .iter()
            .filter(|s| s.step == 2)
            .map(|s| s.start)
            .fold(f64::INFINITY, f64::min);
        assert!(e2_start >= e1_end - 1e-12, "epochs overlap on the clock");
    }

    #[test]
    fn single_rank_cluster_equals_single_process() {
        let n = 1500;
        let ic = plummer_sphere(n, 8);
        let cfg = ClusterConfig::default();
        let tree = Tree::build(ic.clone(), cfg.tree);
        let (single, _) = walk::self_gravity(
            &tree,
            &WalkParams {
                theta: cfg.theta,
                eps: cfg.eps,
                g: cfg.g,
                use_quadrupole: true,
            },
        );
        let c = Cluster::new(ic, 1, cfg);
        let acc = c.accelerations_by_id();
        for i in 0..n {
            let a = acc[&tree.particles.id[i]];
            assert!(
                (a - single.acc[i]).norm() <= 1e-12 * single.acc[i].norm().max(1e-30),
                "particle {i} differs"
            );
        }
    }
}

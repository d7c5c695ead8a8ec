//! Observability of a completed gravity epoch: the measured quantities
//! charged to the machine models ([`StepBreakdown`], Table II), the spans,
//! flow arrows and metrics recorded from them, and the read-only views over
//! trace, registry and flow ledger.

use super::{Cluster, StepMeasurements};
use crate::autoscale::ScaleDecision;
use crate::breakdown::{Phase, StepBreakdown, INTEGRATE_RATE, STEP_LAUNCHES};
use bonsai_gpu::{BUILD_COST, DOMAIN_COST, INTEGRATE_COST, PROPS_COST, SORT_COST};
use bonsai_net::flow::{FlowConservation, FlowLedger, FlowOutcome};
use bonsai_net::membership::ViewChange;
use bonsai_net::obs::{classify, FlowClock};
use bonsai_obs::stream::{FrameKind, FrameValue};
use bonsai_obs::{ArgValue, FlowPhase, Lane, MetricsRegistry, TraceStore, TRACE_WINDOW};
use bonsai_sfc::KeyMap;
use bonsai_tree::stats::record_walk_counts;
use bonsai_tree::InteractionCounts;
use bonsai_util::Aabb;

/// Host orchestration per step: kernel-launch / driver latency.
const ORCHESTRATION: f64 = STEP_LAUNCHES * crate::breakdown::LAUNCH_LATENCY;

/// One rank's share of a gravity epoch, charged to the machine models once:
/// the span lengths [`Cluster::record_observability`] draws for the rank,
/// and the per-rank seconds [`Cluster::assemble_breakdown`] takes the
/// slowest rank's of.
pub(super) struct RankCost {
    sort: f64,
    classify: f64,
    build: f64,
    props: f64,
    local: f64,
    lets: f64,
    integrate: f64,
    balance: f64,
    let_comm: f64,
}

impl Cluster {
    /// Host-CPU key-classification rate (keys/s) of the *configured* machine
    /// (Titan's slower Opteron stretches the phases charged at it, §VI-B).
    fn classify_rate(&self) -> f64 {
        crate::model::XEON_KEY_RATE * self.cfg.machine.cpu_let_rate
    }

    /// The unified observability trace: spans for every Table II phase of
    /// the recent completed gravity epochs (keyed rank × epoch × phase), the
    /// LET communication and recovery windows on the COMM lanes, and fault
    /// instants. Failed epochs (rolled back by crash recovery) are not
    /// recorded — a trace describes completed work only. History is
    /// bounded: the store always holds every record of the last
    /// [`TRACE_WINDOW`] epochs, and never more than twice that many.
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
        let gauge = |name, labels: &[_]| self.registry.gauge(name, labels).unwrap_or(0.0);
        StepBreakdown::from_phases(
            gauge("bonsai_step_gpus", &[]) as u32,
            gauge("bonsai_step_particles_per_gpu", &[]) as u64,
            gauge("bonsai_step_pp_per_particle", &[]),
            gauge("bonsai_step_pc_per_particle", &[]),
            |phase| gauge("bonsai_step_phase_seconds", &[("phase", phase.name())]),
        )
    }

    /// The observability surface of a completed view change: an instant on
    /// the coordinator's CPU lane (so membership epochs are visible next to
    /// the phase spans in Perfetto), plus the membership/migration counters
    /// the Prometheus exporter snapshots — epoch gauge, world-size gauge,
    /// and monotonic view-change / migrated-particle / migrated-byte
    /// totals — and, when streaming, a `view-change` frame with the
    /// instant's fields.
    pub(super) fn record_membership_change(&mut self, change: &ViewChange) {
        let kind = if change.to_world >= change.from_world {
            "grow"
        } else {
            "shrink"
        };
        let fields = [
            ("from_world", change.from_world as u64),
            ("to_world", change.to_world as u64),
            ("to_view", change.to_view),
            ("migrated_particles", change.migrated_particles as u64),
            ("migrated_bytes", change.migrated_bytes as u64),
        ];
        let at = self.trace.makespan();
        let name = format!("membership:view-change:{kind}");
        let inst = self.trace.instant(0, change.epoch, Lane::Cpu, name, at);
        inst.args.extend(fields.map(|(k, v)| (k, ArgValue::U64(v))));
        let reg = &mut self.registry;
        reg.gauge_set("bonsai_membership_epoch", &[], change.to_view as f64);
        reg.gauge_set("bonsai_membership_world", &[], change.to_world as f64);
        reg.counter_add("bonsai_membership_view_changes_total", &[], 1);
        let (particles, bytes) = (change.migrated_particles as u64, change.migrated_bytes as u64);
        reg.counter_add("bonsai_membership_migrated_particles_total", &[], particles);
        reg.counter_add("bonsai_membership_migrated_bytes_total", &[], bytes);
        // View changes are must-deliver telemetry: every subscriber sees
        // them even when it is dropping samples under backpressure. Between
        // steps, its charges fold into the next step's overhead sample.
        let step = self.steps;
        if let Some(tap) = self.stream_mut() {
            let frame = fields.map(|(k, v)| (k, FrameValue::U64(v)));
            tap.publish(step, FrameKind::ViewChange, at, frame);
        }
    }

    /// The run monitor's share of a finished step, handed the step as a
    /// value: observe (signals, rules, incidents) and let the policy
    /// decide; apply any grow or shrink, marked by an instant and a
    /// per-direction counter distinct from the view change that executes
    /// it; then stream the step's frames from facts taken after that
    /// change, so they describe the step's final state (the view-change
    /// frame precedes the step header).
    pub(super) fn monitor_step(&mut self, breakdown: &StepBreakdown) {
        if self.monitor.is_none() {
            return;
        }
        let facts = self.facts(true, false);
        let Some(monitor) = self.monitor.as_mut() else {
            return;
        };
        let (trace, registry, meas) = (&mut self.trace, &mut self.registry, &self.last_measurements);
        let (fired, decision) = monitor.observe(trace, registry, meas, breakdown, &facts);
        let order = match decision {
            ScaleDecision::Grow(k) => Some(("grow", k)),
            ScaleDecision::Shrink(k) => Some(("shrink", k)),
            ScaleDecision::Hold => None,
        };
        if let Some((direction, k)) = order {
            let (name, at) = (format!("autoscale:{direction}"), self.trace.makespan());
            let inst = self.trace.instant(0, self.epoch, Lane::Cpu, name, at);
            inst.args.push(("ranks", ArgValue::U64(k as u64)));
            let labels = [("decision", direction)];
            self.registry.counter_add("bonsai_autoscale_decisions_total", &labels, 1);
            if direction == "grow" {
                self.admit_ranks(k)
            } else {
                self.retire_ranks(k)
            }
        }
        if self.stream().is_none() {
            return;
        }
        let facts = self.facts(false, true);
        if let Some(monitor) = self.monitor.as_mut() {
            monitor.publish(&self.trace, &mut self.registry, breakdown, &facts, &fired);
        }
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
    pub(super) fn record_observability(
        &mut self,
        meas: &StepMeasurements,
        costs: &[RankCost],
        breakdown: &StepBreakdown,
    ) {
        let step = self.epoch;
        // Bounded history: once the oldest epoch held is two windows back,
        // trace and flow ledger keep only the last TRACE_WINDOW − 1, so they
        // hold between one and two windows and pay one drain per window.
        let oldest = self.trace.spans().first().map_or(step, |s| s.step);
        if oldest + 2 * TRACE_WINDOW <= step {
            self.trace.retain_steps(step + 1 - TRACE_WINDOW);
            self.wire.flows.retain_epochs(step + 1 - TRACE_WINDOW);
        }
        // Drop the previous epoch's step-scoped gauges first: a label set
        // that existed only last epoch (a phase that didn't run, a derived
        // long-run signal) must not leak into this epoch's sample.
        self.registry.reset_step();
        let p = self.ranks.len();
        let base = self.trace_clock;
        let gpu = self.gpu;
        let classify_rate = self.classify_rate();
        let mut local_starts = vec![0.0; p];
        // Per-rank busy end (all lanes): where each rank hits the epoch's
        // closing barrier and starts waiting for the straggler.
        let mut rank_end = vec![base; p];
        for (r, c) in costs.iter().enumerate() {
            let n = self.ranks[r].len() as u64;
            let rank = r as u32;
            let mut t = base;
            for (name, dur, rate, cost) in [
                ("sort", c.sort, gpu.sort_rate, SORT_COST),
                ("domain", c.classify, classify_rate, DOMAIN_COST),
                ("build", c.build, gpu.build_rate, BUILD_COST),
                ("props", c.props, gpu.props_rate, PROPS_COST),
            ] {
                let id = self.trace.span(rank, step, Lane::Gpu, name, t, t + dur);
                gpu.annotate_stream_span(&mut self.trace, id, n, rate, cost);
                t += dur;
            }
            let local_start = t;
            local_starts[r] = local_start;
            for (name, dur, counts) in [
                ("local", c.local, meas.counts_local[r]),
                ("lets", c.lets, meas.counts_lets[r]),
            ] {
                let id = self.trace.span(rank, step, Lane::Gpu, name, t, t + dur);
                gpu.annotate_gravity_span(&mut self.trace, id, counts);
                t += dur;
            }
            // The attributed tail of the former "other" bucket: leapfrog
            // integration on the device, then load-balance bookkeeping and
            // host orchestration on the CPU lane.
            let id = self.trace.span(rank, step, Lane::Gpu, "integrate", t, t + c.integrate);
            gpu.annotate_stream_span(&mut self.trace, id, n, INTEGRATE_RATE, INTEGRATE_COST);
            t += c.integrate;
            let id = self.trace.span(rank, step, Lane::Cpu, "balance", t, t + c.balance);
            self.trace.arg_u64(id, "sampled_keys", meas.sampled_keys[r] as u64);
            t += c.balance;
            let id = self.trace.span(rank, step, Lane::Cpu, "orchestrate", t, t + ORCHESTRATION);
            self.trace.arg_f64(id, "launches", STEP_LAUNCHES);
            t += ORCHESTRATION;
            // COMM lane: the LET exchange runs concurrently with local
            // gravity (the overlap story of §III-B2).
            let comm_end = local_start + c.let_comm;
            let id = self.trace.span(rank, step, Lane::Comm, "let-comm", local_start, comm_end);
            self.trace.arg_u64(id, "bytes", meas.let_bytes_sent[r] as u64);
            self.trace.arg_u64(id, "neighbors", meas.let_neighbors[r] as u64);
            rank_end[r] = t.max(comm_end);

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
        let flows = self.wire.flows.for_epoch(step);
        let clock = FlowClock::new(&self.net);
        // Spread each sender's flows across its LET-exchange window (seal
        // order = slot order) so the arrows land where the transfer would be
        // in flight, not stacked at the window's opening instant. Delivery
        // latency is anchor-invariant: send and resolve shift together.
        let mut flow_count = vec![0usize; p];
        for r in flows {
            if r.from < p {
                flow_count[r.from] += 1;
            }
        }
        let mut flow_seq = vec![0usize; p];
        // Looked up once per epoch, and only when a flow delivered: an
        // epoch that delivers nothing does not create the histogram.
        let mut delivery = flows
            .iter()
            .any(|r| matches!(r.outcome, FlowOutcome::Delivered { .. }))
            .then(|| self.registry.histogram_entry("bonsai_flow_delivery_seconds", &[]));
        for r in flows {
            let slot = if r.from < p && flow_count[r.from] > 0 {
                let i = flow_seq[r.from];
                flow_seq[r.from] += 1;
                costs[r.from].let_comm * i as f64 / flow_count[r.from] as f64
            } else {
                0.0
            };
            // `local_starts` is absolute (accumulated from `base`): the
            // exchange window of each rank opens at its local-gravity start.
            let base_from = local_starts.get(r.from).copied().unwrap_or(base) + slot;
            let send_at = clock.send_at(r, 0, base_from);
            let deliver_at = clock.deliver_at(r, base_from);
            let name = r.kind.flow_name();
            self.trace
                .flow_point(r.id, r.from as u32, step, Lane::Comm, name, send_at, FlowPhase::Start);
            for a in 1..r.attempts {
                self.trace.flow_point(
                    r.id,
                    r.from as u32,
                    step,
                    Lane::Comm,
                    name,
                    clock.send_at(r, a, base_from),
                    FlowPhase::Step,
                );
            }
            if let Some(at) = deliver_at {
                self.trace
                    .flow_point(r.id, r.to as u32, step, Lane::Comm, name, at, FlowPhase::Finish);
            }
            if let (Some(h), Some(d)) = (delivery.as_deref_mut(), deliver_at) {
                h.observe(d - send_at);
            }
        }
        // Exposed flows: the ones whose cost the overlap window could not
        // hide (a retransmission). Only they are labelled, so only they pay
        // for a metric key.
        for r in flows.iter().filter(|r| r.attempts > 1) {
            self.registry.counter_add(
                "bonsai_flow_retransmits_total",
                &[("link", &format!("{}->{}", r.from, r.to))],
                (r.attempts - 1) as u64,
            );
            self.registry
                .counter_add("bonsai_flow_exposed_total", &[("kind", r.kind.name())], 1);
        }

        // The epoch's closing barrier: every rank that finishes before the
        // straggler records an explicit cross-rank wait span, so the
        // critical-path analyzer sees slack instead of blank lanes. The
        // span carries the wait's *cause*, classified from the flows that
        // touched the straggler (retransmission > late-sender), which is what the critical path harvests into its
        // by-cause breakdown.
        let mut straggler = 0usize;
        for (r, &e) in rank_end.iter().enumerate() {
            if e > rank_end[straggler] {
                straggler = r;
            }
        }
        let cause = classify(flows.iter().filter(|f| f.from == straggler || f.to == straggler)).name();
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
        let mut makespan = barrier - base;
        // Recovery retransmissions happen after the normal windows close;
        // the traffic is aggregate, so the span lands on rank 0's COMM lane.
        let recovery = breakdown[Phase::Recovery];
        if recovery > 0.0 {
            let start = base + makespan;
            let id = self.trace.span(
                0,
                step,
                Lane::Comm,
                "recovery",
                start,
                start + recovery,
            );
            self.trace
                .arg_u64(id, "retransmit_bytes", meas.retransmit_bytes as u64);
            self.net
                .observe_link(&mut self.registry, "retransmit", 0, meas.retransmit_bytes as u64);
            makespan += recovery;
        }
        let (injected, recoveries) = self.wire.log.for_epoch(step);
        let at = |rank: usize| local_starts.get(rank).copied().unwrap_or(base);
        bonsai_net::obs::record_fault_log(injected, recoveries, flows, &self.net, &mut self.trace, step, &at);

        for phase in Phase::ALL {
            let labels = [("phase", phase.name())];
            self.registry
                .step_gauge_set("bonsai_step_phase_seconds", &labels, breakdown[phase]);
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

    /// Modeled time for one rank to inject `bytes` of dedicated LETs, split
    /// evenly over `neighbors` messages.
    fn let_comm_time(&self, bytes: usize, neighbors: usize) -> f64 {
        let per = bytes.checked_div(neighbors).unwrap_or(0);
        self.net.let_exchange_time(neighbors as u32, per as u64)
    }

    /// Charge each rank's share of the epoch to the machine models.
    pub(super) fn price_ranks(&self, meas: &StepMeasurements) -> Vec<RankCost> {
        let (gpu, classify_rate) = (self.gpu, self.classify_rate());
        (0..self.ranks.len())
            .map(|r| {
                let n = self.ranks[r].len() as u64;
                RankCost {
                    sort: gpu.sort_time(n),
                    classify: n as f64 / classify_rate,
                    build: gpu.build_time(n),
                    props: gpu.props_time(n),
                    local: gpu.gravity_time(meas.counts_local[r]),
                    lets: gpu.gravity_time(meas.counts_lets[r]),
                    integrate: n as f64 / INTEGRATE_RATE,
                    balance: meas.sampled_keys[r] as f64 / classify_rate,
                    let_comm: self.let_comm_time(meas.let_bytes_sent[r], meas.let_neighbors[r]),
                }
            })
            .collect()
    }

    /// The epoch's Table II column from the priced ranks and the
    /// machine-wide measurements.
    pub(super) fn assemble_breakdown(&self, meas: &StepMeasurements, costs: &[RankCost]) -> StepBreakdown {
        let p = self.ranks.len() as u32;
        let n_mean = (self.total_particles() as f64 / p as f64) as u64;
        // Critical path = the slowest rank per phase. Each rank's cost is
        // monotone in what it prices, so the slowest sort is the largest
        // shard's.
        let slowest = |cost: fn(&RankCost) -> f64| costs.iter().map(cost).fold(0.0, f64::max);

        // Domain update: CPU key classification + boundary allgather +
        // exchange.
        let domain_update = if p <= 1 {
            0.0
        } else {
            let avg_boundary = meas.boundary_bytes.iter().sum::<usize>() as u64 / p as u64;
            let allgather = self.net.allgatherv_time(p, avg_boundary);
            let max_exchange = meas.exchange_bytes.iter().copied().max().unwrap_or(0) as u64;
            slowest(|c| c.classify) + allgather + self.net.particle_exchange_time(max_exchange, 6)
        };

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

        let total_counts: InteractionCounts = meas
            .counts_local
            .iter()
            .zip(&meas.counts_lets)
            .map(|(&a, &b)| a + b)
            .sum();
        let (pp_pp, pc_pp) = total_counts.per_particle(self.total_particles());

        let gravity_local = slowest(|c| c.local);
        StepBreakdown::from_phases(p, n_mean, pp_pp, pc_pp, |phase| match phase {
            Phase::Sort => slowest(|c| c.sort),
            Phase::DomainUpdate => domain_update,
            Phase::TreeConstruction => slowest(|c| c.build),
            Phase::TreeProperties => slowest(|c| c.props),
            Phase::GravityLocal => gravity_local,
            Phase::GravityLets => slowest(|c| c.lets),
            // LET communication (per-rank injection) vs the overlap window.
            Phase::NonHiddenComm => (slowest(|c| c.let_comm) - gravity_local).max(0.0),
            Phase::Recovery => recovery,
            Phase::Integration => slowest(|c| c.integrate),
            Phase::LoadBalance => slowest(|c| c.balance),
            Phase::Orchestration => ORCHESTRATION,
            Phase::Unbalance => max_t - mean_t,
        })
    }

    /// The key map over the bounding box of every particle held right now
    /// (driver-side; the gravity epoch agrees its own through the fabric).
    pub(super) fn global_keymap(&self) -> KeyMap {
        let mut bounds = Aabb::empty();
        for shard in self.ranks.iter().filter(|shard| !shard.is_empty()) {
            bounds.merge(&shard.bounds());
        }
        KeyMap::new(&bounds, self.cfg.tree.curve)
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
        let keymap = self.global_keymap();
        let keys: Vec<Vec<u64>> = self.ranks.iter().map(|r| keymap.keys_of(&r.pos)).collect();
        let pairs = sorted_key_weights(&keys, &self.weights);
        let ranges = bonsai_domain::load::weighted_cuts(&pairs, p);
        let shares = bonsai_domain::load::weight_shares(&pairs, &ranges);
        bonsai_domain::load::share_imbalance(&shares)
    }

    /// The flow ledger: every envelope sealed on the fabric in the epochs
    /// the trace holds (its records of epoch `e` are `for_epoch(e)`, drawn
    /// as the trace's flow points of step `e`), plus run totals.
    pub fn flow_ledger(&self) -> &FlowLedger {
        &self.wire.flows
    }

    /// Conservation totals over every flow sealed so far, evicted epochs
    /// included: in a completed run, sealed = delivered + dead with nothing
    /// pending.
    pub fn flow_conservation(&self) -> FlowConservation {
        self.wire.flows.conservation()
    }
}

/// Every particle's `(key, its rank's flop weight)`, sorted by key: the
/// global multiset the balancer cuts. `keys[r]` are rank `r`'s keys.
pub(super) fn sorted_key_weights(keys: &[Vec<u64>], weights: &[f64]) -> Vec<(u64, f64)> {
    let mut pairs: Vec<(u64, f64)> = Vec::with_capacity(keys.iter().map(Vec::len).sum());
    for (ks, &w) in keys.iter().zip(weights) {
        pairs.extend(ks.iter().map(|&k| (k, w)));
    }
    pairs.sort_by_key(|&(k, _)| k);
    pairs
}

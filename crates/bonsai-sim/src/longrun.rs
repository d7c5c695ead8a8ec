//! Run monitoring: the cluster-side wiring of `bonsai-obs`'s longitudinal
//! layer (time series + health rules + incidents), and the owner of the
//! add-ons that ride on it — the telemetry tap and the autoscaling policy.
//!
//! The paper's deliverable is a *sustained* multi-thousand-step run, and
//! sustaining it means watching the run-level signals — energy drift,
//! balancer residual, comm exposure, achieved Gflops, fault-recovery
//! pressure — while the run is in flight. [`RunMonitor`] rides inside the
//! [cluster](crate::cluster)'s step: each step it derives those signals
//! from the step's measurements, writes them as step-scoped gauges, samples
//! *every* gauge into a bounded [`SeriesStore`], evaluates its one
//! [`HealthMonitor`], and freezes an [`Incident`] over the live trace's last
//! epochs when an alert opens. The alert transitions are
//! what the [`AutoscalePolicy`] scales on and what the [`StreamTap`]
//! publishes; the tap's observability budget ([`overhead_rule`]) is one
//! more rule of the same engine, fed once the step's frames are priced. It
//! works on the cluster's trace and metrics stores and on the finished
//! step as plain data ([`StepFacts`]), never on the cluster. The trace's
//! history is bounded by the cluster itself, with or without a monitor.
//!
//! An incident's window outlives the cluster's, so the monitor keeps one
//! history of the epochs incidents froze, each epoch once however many
//! windows cover it, in the cluster's own forms: the trace's spans and
//! instants, and each epoch's flow-ledger records and exchange windows,
//! read through the cluster's [`FlowArrows`]. An [`Incident`] is the alert
//! and its window; its Perfetto-loadable trace is cut from the history,
//! with the window's arrows drawn ([`draw_flows`]), only when it is read
//! ([`IncidentView`]).

use crate::autoscale::{AutoscaleConfig, AutoscalePolicy, ScaleDecision};
use crate::breakdown::StepBreakdown;
use crate::cluster::{StepFacts, StepMeasurements};
use crate::stream::{StreamConfig, StreamTap};
use bonsai_analysis::EnergyReport;
use bonsai_net::flow::{EpochFlows, Flows};
use bonsai_net::obs::{
    draw_flows, drawn_point_count, mean_hidden_comm_fraction, DrawnEpoch, ExchangeWindows, FlowArrows,
};
use bonsai_net::NetworkModel;
use bonsai_obs::chrome::chrome_trace_json;
use bonsai_obs::health::{default_rules, AlertEvent, AlertKind, HealthMonitor, Rule};
use bonsai_obs::overhead::{overhead_rule, OVERHEAD_GAUGE};
use bonsai_obs::timeseries::{SeriesConfig, SeriesStore};
use bonsai_obs::{flop_balance, Incident, Lane, MetricsRegistry, TraceStore, TRACE_WINDOW};
use std::ops::Deref;

/// Incidents frozen at most (their windows share one history, which holds
/// each epoch once).
const MAX_INCIDENTS: usize = 4;

/// The epochs incidents froze, each held once: the live trace's spans and
/// instants of them (no flow points), and each drawn epoch's ledger
/// records, 16 B a flow as the ledger holds them, and exchange windows,
/// from which its arrows are drawn again when an incident is read.
/// Append-only: a later incident's window never opens before an earlier
/// one's, so a freeze adds the epochs the history lacks, and what the last
/// epoch it holds has recorded since.
#[derive(Clone, Debug)]
struct History {
    trace: TraceStore,
    /// The ledger records of each held drawn epoch that sealed any,
    /// ascending by epoch.
    flows: Vec<EpochFlows>,
    /// The same epochs' clock bases and exchange windows.
    windows: ExchangeWindows,
    /// What the arrows are priced by.
    net: NetworkModel,
}

impl History {
    fn new(net: NetworkModel) -> Self {
        Self {
            trace: TraceStore::new(),
            flows: Vec::new(),
            windows: ExchangeWindows::new(),
            net,
        }
    }

    /// Hold the last [`TRACE_WINDOW`] epochs up to `epoch` of the live
    /// `trace` and of the records and windows `arrows` reads, and freeze
    /// incident `id` of the alert `trigger` over them. A drawn epoch's
    /// records and windows are final, so the epochs held already are not
    /// read again.
    fn freeze(&mut self, id: usize, trace: &TraceStore, arrows: &FlowArrows, epoch: u64, trigger: &AlertEvent) -> Incident {
        let from = (epoch + 1).saturating_sub(TRACE_WINDOW);
        self.trace.sync_from(trace, from);
        let next = self.windows.epochs().last().map_or(from, |held| from.max(held + 1));
        for e in next..=epoch {
            if let Some((flows, base, windows)) = arrows.epoch(e) {
                self.flows.extend(flows.copy_epochs());
                self.windows.record(e, base, windows);
            }
        }
        let first_arrow = self.drawn((from, epoch)).find(|(_, (flows, ..))| drawn_point_count(*flows) > 0);
        Incident::freeze(id, &self.trace, first_arrow.map(|(e, ..)| e), epoch, trigger)
    }

    /// The held drawn epochs of `window`, each with its records, clock base
    /// and exchange windows.
    fn drawn(&self, window: (u64, u64)) -> impl Iterator<Item = (u64, DrawnEpoch<'_>)> + '_ {
        let epochs = self.windows.epochs().skip_while(move |&e| e < window.0).take_while(move |&e| e <= window.1);
        epochs.map(|e| {
            let (base, windows) = self.windows.get(e).expect("a held epoch has its windows");
            let flows = self.flows.binary_search_by_key(&e, EpochFlows::epoch);
            (e, (flows.map_or(Flows::default(), |i| self.flows[i].view()), base, windows))
        })
    }
}

/// An incident read through the monitor's history: the alert and its
/// window (by [`Deref`]), and its trace, cut from the history with the
/// window's arrows drawn only when asked for. The counts are taken without
/// cutting or drawing anything.
#[derive(Clone, Copy)]
pub struct IncidentView<'a> {
    incident: &'a Incident,
    history: &'a History,
}

impl Deref for IncidentView<'_> {
    type Target = Incident;

    fn deref(&self) -> &Incident {
        self.incident
    }
}

impl IncidentView<'_> {
    /// The incident's trace: its window's spans and instants as they were
    /// when it froze, with the window's flow arrows drawn.
    pub fn trace(&self) -> TraceStore {
        let net = &self.history.net;
        let arrows = (self.history.drawn(self.window))
            .flat_map(|(_, (flows, base, windows))| draw_flows(flows, base, windows, net))
            .collect();
        self.incident.cut(&self.history.trace, arrows)
    }

    /// Chrome-trace JSON of the incident window (Perfetto-loadable).
    pub fn trace_json(&self) -> String {
        chrome_trace_json(&self.trace())
    }

    /// Deterministic structured incident report (plain text).
    pub fn report(&self) -> String {
        self.incident.report(&self.history.trace, self.flow_points())
    }

    /// Spans of the incident's trace.
    pub fn spans(&self) -> usize {
        self.incident.records(&self.history.trace).0.len()
    }

    /// Instants of the incident's trace.
    pub fn instants(&self) -> usize {
        self.incident.records(&self.history.trace).1.len()
    }

    /// Flow points of the incident's trace, counted from the held records
    /// ([`drawn_point_count`]).
    pub fn flow_points(&self) -> usize {
        self.history.drawn(self.window).map(|(_, (flows, ..))| drawn_point_count(flows)).sum()
    }
}

/// The run-level signals [`RunMonitor`] writes each step as unlabelled
/// step gauges, in the order it derives them; the stream tap publishes
/// them in this order too.
pub(crate) const RUN_SIGNALS: [&str; 8] = [
    "bonsai_energy_drift",
    "bonsai_flop_residual",
    "bonsai_hidden_comm_fraction",
    "bonsai_gpu_gflops",
    "bonsai_step_seconds",
    "bonsai_recovery_actions",
    "bonsai_retransmit_bytes",
    "bonsai_particle_imbalance",
];

/// Configuration of the long-run monitor.
#[derive(Clone, Debug)]
pub struct LongRunConfig {
    /// Bins per metric series (downsampling bound), clamped to ≥ 8.
    pub max_bins: usize,
    /// Alert rules to evaluate each step.
    pub rules: Vec<Rule>,
}

impl Default for LongRunConfig {
    fn default() -> Self {
        Self {
            max_bins: 512,
            rules: default_rules(),
        }
    }
}

/// Per-run monitoring state: series store, rule engine, frozen incidents
/// and the history their windows share, the energy baseline drift is
/// measured against, and the optional telemetry tap and autoscaling policy.
#[derive(Clone, Debug)]
pub struct RunMonitor {
    series: SeriesStore,
    health: HealthMonitor,
    /// Rules the configuration brought, each evaluated against every gauge
    /// (what the tap prices; the budget rule sees one gauge).
    rules: usize,
    baseline: EnergyReport,
    incidents: Vec<Incident>,
    history: History,
    stream: Option<StreamTap>,
    autoscale: Option<AutoscalePolicy>,
    /// Each incident's window as a copy of the live trace with its arrows
    /// drawn, taken as it froze: what an incident kept before the history,
    /// and the oracle its trace is checked against.
    #[cfg(test)]
    copies: Vec<((u64, u64), TraceStore)>,
}

impl RunMonitor {
    /// Monitor with `baseline` as the energy-conservation reference
    /// (normally the cluster's energy at enable time), whose incidents'
    /// arrows are priced by `net`.
    pub(crate) fn new(cfg: LongRunConfig, baseline: EnergyReport, net: NetworkModel) -> Self {
        Self {
            series: SeriesStore::new(SeriesConfig {
                max_bins: cfg.max_bins,
            }),
            rules: cfg.rules.len(),
            health: HealthMonitor::new(cfg.rules),
            baseline,
            incidents: Vec::new(),
            history: History::new(net),
            stream: None,
            autoscale: None,
            #[cfg(test)]
            copies: Vec::new(),
        }
    }

    /// The bounded per-metric run histories.
    pub fn series(&self) -> &SeriesStore {
        &self.series
    }

    /// The rule engine (alert log, open rules, worst severity), the
    /// budget rule included when streaming.
    pub fn health(&self) -> &HealthMonitor {
        &self.health
    }

    /// Incidents frozen so far, in firing order, read through the history
    /// their windows share.
    pub fn incidents(&self) -> Vec<IncidentView<'_>> {
        let history = &self.history;
        self.incidents.iter().map(|incident| IncidentView { incident, history }).collect()
    }

    /// The telemetry tap, if streaming (bus accounting, overhead meter).
    pub fn stream(&self) -> Option<&StreamTap> {
        self.stream.as_ref()
    }

    /// Mutable tap access — subscribers poll their rings through this.
    pub fn stream_mut(&mut self) -> Option<&mut StreamTap> {
        self.stream.as_mut()
    }

    /// The autoscaling policy, if enabled (decision audit log).
    pub fn autoscale(&self) -> Option<&AutoscalePolicy> {
        self.autoscale.as_ref()
    }

    /// Attach a telemetry tap and arm the budget rule on the one engine
    /// (once: a second tap replaces the first's bus and meter).
    pub(crate) fn enable_streaming(&mut self, cfg: StreamConfig) {
        if self.stream.replace(StreamTap::new(cfg)).is_none() {
            self.health.add_rule(overhead_rule());
        }
    }

    /// Attach the autoscaling policy, consulted after every observation.
    pub(crate) fn enable_autoscale(&mut self, cfg: AutoscaleConfig) {
        self.autoscale = Some(AutoscalePolicy::new(cfg));
    }

    /// One step's longitudinal bookkeeping over the cluster's `trace` and
    /// `registry`, after the step completes (`facts.energy` must be
    /// filled); an incident freezes the trace's window into the history,
    /// with the records and windows its arrows are drawn from, read through
    /// `arrows`. Returns the alert transitions the step fired and what the
    /// autoscaling policy, if any, decided from them.
    pub(crate) fn observe(
        &mut self,
        trace: &mut TraceStore,
        registry: &mut MetricsRegistry,
        arrows: &FlowArrows,
        meas: &StepMeasurements,
        b: &StepBreakdown,
        facts: &StepFacts,
    ) -> (Vec<AlertEvent>, ScaleDecision) {
        let (step, epoch) = (facts.step, facts.epoch);
        // Derived run-level signals for this step, written as step-scoped
        // gauges so they reset with everything else.
        let energy = facts.energy.expect("long-run facts carry the energy report");
        let drift = energy.drift_from(&self.baseline);
        let residual = flop_balance(trace, epoch).map_or(1.0, |f| f.residual);
        let hidden = mean_hidden_comm_fraction(trace, epoch);
        let derived = [
            drift,
            residual,
            hidden,
            b.gpu_tflops() * 1e3,
            b.total(),
            meas.recovery_actions as f64,
            meas.retransmit_bytes as f64,
            meas.imbalance,
        ];
        for (name, v) in RUN_SIGNALS.into_iter().zip(derived) {
            registry.step_gauge_set(name, &[], v);
        }

        // Sample every gauge of the step into the bounded series store and
        // feed the rule engine (rules filter by metric name).
        let mut fired: Vec<AlertEvent> = Vec::new();
        for (key, v) in registry.gauges() {
            let name = key.render();
            self.series.record(&name, step, v);
            fired.extend(self.health.observe(step, &name, v));
        }

        // Alert transitions become instants on the trace (rank 0's CPU
        // lane, at the end of the completed epoch) *before* an incident
        // freezes the window, so incident windows carry them.
        if !fired.is_empty() {
            let at = trace.makespan();
            for ev in &fired {
                let name = format!("alert:{}:{}", ev.kind.name(), ev.rule);
                trace
                    .instant(0, epoch, Lane::Cpu, name, at)
                    .args
                    .push(("detail", bonsai_obs::ArgValue::Str(ev.detail.clone())));
            }
        }
        for ev in &fired {
            if ev.kind == AlertKind::Open && self.incidents.len() < MAX_INCIDENTS {
                let incident = self.history.freeze(self.incidents.len(), trace, arrows, epoch, ev);
                self.incidents.push(incident);
                #[cfg(test)]
                self.copies.push(tests::copy_window(trace, arrows, epoch));
            }
        }
        let mean = facts.particles as f64 / facts.world as f64;
        let decision = self.autoscale.as_mut().map_or(ScaleDecision::Hold, |policy| {
            policy.decide(step, facts.world, mean, &fired)
        });
        (fired, decision)
    }

    /// One step's streaming, after any scaling the step's alerts ordered:
    /// publish the step's frames (`fired` among them) from `facts`, which
    /// must carry the flow totals, then close the overhead sample and feed
    /// it to the budget rule, whose transitions are published too. A no-op
    /// without a tap.
    pub(crate) fn publish(
        &mut self,
        trace: &TraceStore,
        registry: &mut MetricsRegistry,
        arrows: &FlowArrows,
        b: &StepBreakdown,
        facts: &StepFacts,
        fired: &[AlertEvent],
    ) {
        let Some(tap) = self.stream.as_mut() else {
            return;
        };
        tap.charge_trace(trace, arrows, facts.epoch);
        let fraction = tap.observe(trace, registry, b, facts, self.rules, fired);
        let budget = self.health.observe(facts.step, OVERHEAD_GAUGE, fraction);
        tap.publish_alerts(facts.step, trace.makespan(), &budget);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::{Cluster, ClusterConfig, RecoveryConfig};
    use bonsai_ic::plummer_sphere;
    use bonsai_net::flow::FlowLedger;
    use bonsai_net::{FaultKind, FaultPlan, RecoveryAction, PIZ_DAINT};
    use bonsai_obs::health::{Condition, Severity};
    use bonsai_obs::{Span, SpanId};
    use std::collections::BTreeMap;

    /// The window an incident kept before the history: the live trace's
    /// records of the last [`TRACE_WINDOW`] epochs up to `epoch` copied
    /// out, parents before the window `None`, with every held epoch's
    /// arrows from the window on drawn in; and the window's first and last
    /// epoch.
    pub(super) fn copy_window(trace: &TraceStore, arrows: &FlowArrows, epoch: u64) -> ((u64, u64), TraceStore) {
        let from = (epoch + 1).saturating_sub(TRACE_WINDOW);
        let cut = trace.spans().partition_point(|s| s.step < from);
        let spans: Vec<Span> = (trace.spans()[cut..].iter())
            .map(|s| Span { parent: s.parent.and_then(|p| p.0.checked_sub(cut)).map(SpanId), ..s.clone() })
            .collect();
        let instants = trace.instants()[trace.instants().partition_point(|i| i.step < from)..].to_vec();
        let flows: Vec<_> = arrows.held_points().skip_while(|f| f.step < from).collect();
        let first = [spans.first().map(|s| s.step), instants.first().map(|i| i.step), flows.first().map(|f| f.step)];
        let window = (first.into_iter().flatten().min().unwrap_or(epoch), epoch);
        (window, TraceStore::from_parts(spans, instants, flows))
    }

    fn small_cluster() -> Cluster {
        let ic = plummer_sphere(256, 42);
        Cluster::new(
            ic,
            2,
            ClusterConfig {
                dt: 1.0e-3,
                ..ClusterConfig::default()
            },
        )
    }

    #[test]
    fn an_alert_opens_on_a_crafted_gauge_with_no_cluster() {
        // Hand-built stores and facts: two recorded epochs — one of them
        // older than the incident window — and one gauge over its rule's
        // limit.
        let energy = EnergyReport {
            kinetic: 1.0,
            potential: -2.0,
            l_z: 0.0,
            momentum: 0.0,
        };
        let hot = Rule::new("hot", "crafted", Condition::Above(1.0), Severity::Warning, 1, 1);
        let mut lr = RunMonitor::new(
            LongRunConfig {
                rules: vec![hot],
                ..LongRunConfig::default()
            },
            energy,
            NetworkModel::new(PIZ_DAINT),
        );
        let mut trace = TraceStore::new();
        let now = TRACE_WINDOW + 1;
        trace.span(0, 1, Lane::Gpu, "local", 0.0, 1.0);
        trace.span(0, now, Lane::Gpu, "local", 1.0, 3.0);
        let mut registry = MetricsRegistry::new();
        registry.step_gauge_set("crafted", &[], 2.0);
        let facts = StepFacts {
            step: 1,
            epoch: now,
            time: 0.01,
            world: 1,
            particles: 10,
            energy: Some(energy),
            ..StepFacts::default()
        };
        let (ledger, windows) = (FlowLedger::new(), ExchangeWindows::new());
        let net = NetworkModel::new(PIZ_DAINT);
        let (fired, decision) = lr.observe(
            &mut trace,
            &mut registry,
            &FlowArrows::new(&ledger, &windows, &net),
            &StepMeasurements::default(),
            &StepBreakdown::default(),
            &facts,
        );
        assert_eq!(decision, ScaleDecision::Hold, "no policy, no scaling");
        assert_eq!(fired.len(), 1);
        assert_eq!((fired[0].rule.as_str(), fired[0].kind), ("hot", AlertKind::Open));
        // The derived signals were written and sampled beside the crafted one.
        assert_eq!(registry.gauge("bonsai_energy_drift", &[]), Some(0.0));
        assert_eq!(lr.series().series("crafted").map(|s| s.count()), Some(1));
        // The alert is an instant on the epoch, frozen into an incident
        // whose window epoch 1 just left. The live trace is not pruned.
        assert_eq!(trace.instants().len(), 1);
        assert_eq!(trace.instants()[0].name, "alert:open:hot");
        assert_eq!(trace.spans().len(), 2);
        let inc = lr.incidents();
        assert_eq!(inc.len(), 1);
        assert_eq!(inc[0].window, (now, now));
        let frozen = inc[0].trace();
        assert!(frozen.spans().iter().all(|s| s.step == now));
        assert_eq!(frozen.instants()[0].name, "alert:open:hot");
    }

    #[test]
    fn monitor_samples_every_step_and_prunes_the_trace() {
        let mut c = small_cluster();
        c.enable_longrun(LongRunConfig::default());
        for _ in 0..20 {
            c.step();
        }
        let lr = c.monitor().expect("monitor enabled");
        // Every derived signal has one sample per step.
        for name in [
            "bonsai_energy_drift",
            "bonsai_flop_residual",
            "bonsai_hidden_comm_fraction",
            "bonsai_gpu_gflops",
            "bonsai_step_seconds",
        ] {
            let s = lr.series().series(name).unwrap_or_else(|| {
                panic!("missing series {name}: have {:?}", lr.series().names())
            });
            assert_eq!(s.count(), 20, "{name}");
        }
        // Per-phase gauges are sampled too (rendered with labels).
        assert!(lr
            .series()
            .names()
            .iter()
            .any(|n| n.starts_with("bonsai_step_phase_seconds{")));
        // The monitored run's trace is pruned like any other: 21 epochs
        // (initial eval = epoch 1) leave the last window, 14..=21.
        assert_eq!(c.trace().spans()[0].step, 14);
        assert_eq!(c.trace().last_step(), Some(21));
        // A clean Plummer run opens nothing.
        assert!(c.monitor().unwrap().health().events().is_empty());
        assert!(c.monitor().unwrap().incidents().is_empty());
    }

    #[test]
    fn an_incident_is_the_step_records_of_its_window() {
        // A rule that opens on the 20th step: by then the cluster has
        // evicted once, and the frozen window is epochs 14..=21.
        let mut c = small_cluster();
        let late = Rule::new(
            "late",
            "bonsai_step_seconds",
            Condition::Above(0.0),
            Severity::Info,
            20,
            1,
        );
        c.enable_longrun(LongRunConfig {
            rules: vec![late],
            ..LongRunConfig::default()
        });
        for _ in 0..20 {
            c.step();
        }
        let epoch = c.current_epoch();
        let inc = &c.monitor().unwrap().incidents()[0];
        assert_eq!(inc.window, (epoch + 1 - TRACE_WINDOW, epoch));
        let (mut spans, mut instants, mut flows) = (0, 0, 0);
        for e in inc.window.0..=inc.window.1 {
            let recs = c.trace().step_records(e);
            spans += recs.spans.len();
            instants += recs.instants.len();
            flows += c.flow_arrows().count(e);
        }
        assert!(flows > 0 && c.trace().flow_points().is_empty());
        let frozen = inc.trace();
        assert_eq!((inc.spans(), frozen.spans().len()), (spans, spans));
        assert_eq!((inc.instants(), frozen.instants().len()), (instants, instants));
        assert_eq!((inc.flow_points(), frozen.flow_points().len()), (flows, flows));
        let trigger = frozen.instants().iter().find(|i| i.step == epoch);
        assert_eq!(trigger.map(|i| i.name.as_str()), Some("alert:open:late"));
    }

    #[test]
    fn breakdown_from_metrics_survives_the_monitor() {
        // The derived step-scoped gauges must not perturb the reduction
        // that rebuilds the breakdown from the registry.
        let mut c = small_cluster();
        c.enable_longrun(LongRunConfig::default());
        let b = c.step();
        assert_eq!(c.breakdown_from_metrics(), b);
    }

    #[test]
    fn monitor_is_deterministic() {
        let run = || {
            let mut c = small_cluster();
            c.enable_longrun(LongRunConfig::default());
            for _ in 0..4 {
                c.step();
            }
            let lr = c.take_monitor().unwrap();
            let mut dump = String::new();
            for (name, s) in lr.series().iter() {
                dump.push_str(&format!("{name} {:?}\n", s.bins()));
            }
            dump.push_str(&lr.health().render_log());
            dump
        };
        assert_eq!(run(), run());
    }

    /// Everything a trace holds, field by field: spans with their parents,
    /// instants, and flow points, floats by their `Debug` (shortest
    /// round-trip) form.
    fn dump(t: &TraceStore) -> String {
        format!("{:?}\n{:?}\n{:?}", t.spans(), t.instants(), t.flow_points())
    }

    #[test]
    fn each_incident_exports_the_window_it_froze() {
        // The chaos shape in small: message faults, a crash rolled back to
        // a checkpoint, the monitor, and three rules on a signal that is
        // always positive, opening at steps 3, 6 and 9. Their windows
        // overlap; the first also grows the world, so its trigger epoch
        // gains an `autoscale:grow` instant after it froze, which the
        // second window covers.
        let dir = std::env::temp_dir().join(format!("bonsai_incident_oracle_{}", std::process::id()));
        let plan = FaultPlan::new(5).with_rate(FaultKind::Drop, 0.03).with_rate(FaultKind::Corrupt, 0.02).with_crash(1, 16);
        let recovery = Some(RecoveryConfig { dir: dir.clone(), every: 2 });
        let mut c = Cluster::with_faults(plummer_sphere(400, 9), 4, ClusterConfig::default(), plan, recovery);
        let rule = |name: &str, after| Rule::new(name, "bonsai_step_seconds", Condition::Above(0.0), Severity::Info, after, 1);
        c.enable_longrun(LongRunConfig { rules: vec![rule("a", 3), rule("b", 6), rule("c", 9)], ..LongRunConfig::default() });
        c.enable_autoscale(AutoscaleConfig {
            max_ranks: 5,
            grow_by: 1,
            cooldown_steps: 100,
            idle_steps: 100,
            grow_rules: vec!["a".into()],
            ..AutoscaleConfig::default()
        });
        for _ in 0..20 {
            c.step();
        }
        std::fs::remove_dir_all(&dir).ok();
        let log = c.fault_log();
        assert!(log.recoveries_of(RecoveryAction::Retransmit) > 0, "no message fault was recovered");
        assert!(log.recoveries_of(RecoveryAction::RestoreCheckpoint) > 0, "the crash never rolled back");
        assert_eq!(c.rank_count(), 5, "the first incident's alert did not grow the world");

        let lr = c.monitor().unwrap();
        let (incidents, copies) = (lr.incidents(), &lr.copies);
        assert_eq!(incidents.len(), 3);
        let (a, b) = (&incidents[0], &incidents[1]);
        assert!(b.window.0 <= a.window.1, "windows {:?} and {:?} do not overlap", a.window, b.window);
        assert!(c.trace().spans()[0].step > a.window.1, "the first window is still live");
        // The first trigger epoch recorded after it froze, and the second
        // window saw that.
        let grew = |t: &TraceStore| t.step_records(a.window.1).instants.iter().any(|i| i.name == "autoscale:grow");
        assert!(!grew(&copies[0].1) && grew(&copies[1].1));
        for (inc, (window, copy)) in incidents.iter().zip(copies) {
            assert_eq!(inc.window, *window, "incident {}", inc.id);
            let trace = inc.trace();
            assert!(dump(&trace) == dump(copy), "incident {}: not the window it froze", inc.id);
            assert_eq!(inc.trace_json(), chrome_trace_json(copy), "incident {}", inc.id);
            let held = Incident { held: (copy.spans().len(), copy.instants().len()), ..(**inc).clone() };
            assert_eq!(inc.report(), held.report(copy, copy.flow_points().len()), "incident {}", inc.id);
            let counts = (inc.spans(), inc.instants(), inc.flow_points());
            assert_eq!(counts, (copy.spans().len(), copy.instants().len(), copy.flow_points().len()));
            assert!(counts.2 > 0, "incident {} drew no arrow", inc.id);
        }
        // Each epoch the windows cover is held once, as it was last frozen.
        let mut last = BTreeMap::new();
        for (_, copy) in copies {
            for s in copy.spans() {
                last.insert(s.step, copy.step_records(s.step).spans.len());
            }
        }
        assert_eq!(lr.history.trace.spans().len(), last.values().sum::<usize>());
        assert!(lr.history.trace.flow_points().is_empty());
    }
}

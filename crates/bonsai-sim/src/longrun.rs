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
//! [`HealthMonitor`], and freezes a Perfetto-loadable [`Incident`] from the
//! live trace's last epochs when an alert opens. The alert transitions are
//! what the [`AutoscalePolicy`] scales on and what the [`StreamTap`]
//! publishes; the tap's observability budget ([`overhead_rule`]) is one
//! more rule of the same engine, fed once the step's frames are priced. It
//! works on the cluster's trace and metrics stores and on the finished
//! step as plain data ([`StepFacts`]), never on the cluster; the flow
//! arrows an incident keeps are drawn for it through the cluster's
//! [`FlowArrows`]. The trace's history is bounded by the cluster itself,
//! with or without a monitor.

use crate::autoscale::{AutoscaleConfig, AutoscalePolicy, ScaleDecision};
use crate::breakdown::StepBreakdown;
use crate::cluster::{StepFacts, StepMeasurements};
use crate::stream::{StreamConfig, StreamTap};
use bonsai_analysis::EnergyReport;
use bonsai_net::obs::{mean_hidden_comm_fraction, FlowArrows};
use bonsai_obs::health::{default_rules, AlertEvent, AlertKind, HealthMonitor, Rule};
use bonsai_obs::overhead::{overhead_rule, OVERHEAD_GAUGE};
use bonsai_obs::timeseries::{SeriesConfig, SeriesStore};
use bonsai_obs::{flop_balance, Incident, Lane, MetricsRegistry, TraceStore};

/// Incidents frozen at most (each owns a copy of the window).
const MAX_INCIDENTS: usize = 4;

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

/// Per-run monitoring state: series store, rule engine, frozen incidents,
/// the energy baseline drift is measured against, and the optional
/// telemetry tap and autoscaling policy.
#[derive(Clone, Debug)]
pub struct RunMonitor {
    series: SeriesStore,
    health: HealthMonitor,
    /// Rules the configuration brought, each evaluated against every gauge
    /// (what the tap prices; the budget rule sees one gauge).
    rules: usize,
    baseline: EnergyReport,
    incidents: Vec<Incident>,
    stream: Option<StreamTap>,
    autoscale: Option<AutoscalePolicy>,
}

impl RunMonitor {
    /// Monitor with `baseline` as the energy-conservation reference
    /// (normally the cluster's energy at enable time).
    pub(crate) fn new(cfg: LongRunConfig, baseline: EnergyReport) -> Self {
        Self {
            series: SeriesStore::new(SeriesConfig {
                max_bins: cfg.max_bins,
            }),
            rules: cfg.rules.len(),
            health: HealthMonitor::new(cfg.rules),
            baseline,
            incidents: Vec::new(),
            stream: None,
            autoscale: None,
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

    /// Incidents frozen so far, in firing order.
    pub fn incidents(&self) -> &[Incident] {
        &self.incidents
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
    /// filled); an incident freezes the trace with the window's flow
    /// arrows, drawn from `arrows`. Returns the alert transitions the step fired and what the
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
                self.incidents
                    .push(Incident::freeze(self.incidents.len(), trace, arrows.held_points(), epoch, ev));
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
    use crate::cluster::{Cluster, ClusterConfig};
    use bonsai_ic::plummer_sphere;
    use bonsai_obs::health::{Condition, Severity};
    use bonsai_net::flow::FlowLedger;
    use bonsai_net::obs::ExchangeWindows;
    use bonsai_net::{NetworkModel, PIZ_DAINT};
    use bonsai_obs::TRACE_WINDOW;

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
        assert!(inc[0].trace.spans().iter().all(|s| s.step == now));
        assert_eq!(inc[0].trace.instants()[0].name, "alert:open:hot");
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
        assert_eq!(inc.trace.spans().len(), spans);
        assert_eq!(inc.trace.instants().len(), instants);
        assert_eq!(inc.trace.flow_points().len(), flows);
        let trigger = inc.trace.instants().iter().find(|i| i.step == epoch);
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
}

//! In-run telemetry streaming: the cluster-side tap that feeds
//! `bonsai-obs`'s [`TelemetryBus`] each step and self-meters what the
//! whole observability stack costs.
//!
//! [`StreamTap`] rides inside the [cluster](crate::cluster)'s step after
//! the long-run monitor, on the cluster's trace and metrics stores and the
//! finished step as plain data ([`StepFacts`]): each step it prices
//! the step's observability work (spans, gauges, rule evaluations) through
//! an [`OverheadMeter`], publishes the step's telemetry
//! frames — step header, per-phase seconds, key gauges, flow-conservation
//! digest, and any alert transitions the health rules fired — and closes
//! the meter against the step's modelled duration. The resulting overhead
//! fraction is written as the `bonsai_obs_overhead_fraction` gauge and fed
//! to the tap's *own* health monitor carrying [`overhead_rule`] (the
//! long-run monitor samples gauges *before* the tap runs, so the budget
//! rule must live here to see the fraction), whose transitions are
//! themselves published as must-deliver alert frames.
//!
//! Everything runs under the modelled clock: frame timestamps are the
//! trace makespan and costs are op counts × the fixed
//! [`bonsai_obs::overhead`] rates, so a fixed-seed run streams
//! byte-identical frames.

use crate::breakdown::{Phase, StepBreakdown};
use crate::cluster::StepFacts;
use bonsai_obs::health::{AlertEvent, HealthMonitor};
use bonsai_obs::overhead::{self, overhead_rule, OverheadMeter, OVERHEAD_GAUGE};
use bonsai_obs::stream::{FrameKind, FrameValue, SubscriberConfig, TelemetryBus};
use bonsai_obs::{MetricsRegistry, TraceStore};

/// Unlabelled gauges streamed in each step's `gauges` frame.
const STREAMED_GAUGES: [&str; 9] = [
    "bonsai_energy_drift",
    "bonsai_flop_residual",
    "bonsai_hidden_comm_fraction",
    "bonsai_gpu_gflops",
    "bonsai_step_seconds",
    "bonsai_recovery_actions",
    "bonsai_degraded_lets",
    "bonsai_retransmit_bytes",
    "bonsai_particle_imbalance",
];

/// Configuration of the streaming tap.
#[derive(Clone, Debug, Default)]
pub struct StreamConfig {
    /// Subscribers to attach at enable time (name + ring capacity).
    pub subscribers: Vec<SubscriberConfig>,
    /// Sabotage mode: the bus stalls the producer on a full ring instead
    /// of dropping. Never set in honest runs — exists so the CI gate can
    /// prove the overhead budget catches a bus that blocks the hot path.
    pub block_on_full: bool,
}

/// The per-run streaming state: bus, overhead meter, and the tap's own
/// health monitor enforcing the observability budget.
#[derive(Clone, Debug)]
pub struct StreamTap {
    bus: TelemetryBus,
    meter: OverheadMeter,
    health: HealthMonitor,
    prev_stalls: u64,
}

impl StreamTap {
    /// Build a tap: attaches every configured subscriber and arms the
    /// overhead budget rule.
    pub fn new(cfg: StreamConfig) -> Self {
        let mut bus = TelemetryBus::new();
        for sub in &cfg.subscribers {
            bus.add_subscriber(sub.clone());
        }
        bus.set_block_on_full(cfg.block_on_full);
        Self {
            bus,
            meter: OverheadMeter::default(),
            health: HealthMonitor::new(vec![overhead_rule()]),
            prev_stalls: 0,
        }
    }

    /// The telemetry bus (accounting reports, lag).
    pub fn bus(&self) -> &TelemetryBus {
        &self.bus
    }

    /// Mutable bus access — subscribers poll their rings through this.
    pub fn bus_mut(&mut self) -> &mut TelemetryBus {
        &mut self.bus
    }

    /// The overhead meter (run totals, mean/max fraction).
    pub fn meter(&self) -> &OverheadMeter {
        &self.meter
    }

    /// The tap's own health monitor (the `obs-overhead` budget rule).
    pub fn health(&self) -> &HealthMonitor {
        &self.health
    }

    /// Publish one frame and charge its encoding + fan-out to the meter.
    fn publish(
        &mut self,
        step: u64,
        kind: FrameKind,
        at: f64,
        fields: Vec<(String, FrameValue)>,
    ) {
        let bytes = self.bus.publish(step, kind, at, fields);
        self.meter.charge_ops("encode", bytes as u64, overhead::ENCODE_BYTE_S);
        let subscribers = self.bus.subscriber_count() as u64;
        self.meter.charge_ops("publish", subscribers, overhead::PUBLISH_S);
        let stalls = self.bus.stalls();
        self.meter.charge_ops("stall", stalls - self.prev_stalls, overhead::STALL_S);
        self.prev_stalls = stalls;
    }

    /// A completed view change's telemetry surface: one must-deliver
    /// `view-change` frame stamped `at` (the trace makespan). Called by the
    /// cluster between steps (its charges fold into the next step's
    /// overhead sample).
    pub(crate) fn publish_view_change(
        &mut self,
        step: u64,
        at: f64,
        change: &bonsai_net::membership::ViewChange,
    ) {
        let fields = vec![
            (
                "from_world".to_string(),
                FrameValue::U64(change.from_world as u64),
            ),
            (
                "to_world".to_string(),
                FrameValue::U64(change.to_world as u64),
            ),
            ("to_view".to_string(), FrameValue::U64(change.to_view)),
            (
                "migrated_particles".to_string(),
                FrameValue::U64(change.migrated_particles as u64),
            ),
            (
                "migrated_bytes".to_string(),
                FrameValue::U64(change.migrated_bytes as u64),
            ),
        ];
        self.publish(step, FrameKind::ViewChange, at, fields);
    }

    /// One step's streaming over the cluster's `trace` and `registry`:
    /// price the step's observability work, publish the step's frames,
    /// close the overhead sample, and run the budget rule. `facts.flows`
    /// must be filled; `fired` is the alert transitions the long-run
    /// monitor raised this step (published as must-deliver frames).
    pub(crate) fn observe(
        &mut self,
        trace: &TraceStore,
        registry: &mut MetricsRegistry,
        b: &StepBreakdown,
        facts: &StepFacts,
        fired: &[AlertEvent],
    ) {
        let (step, epoch) = (facts.step, facts.epoch);
        let at = trace.makespan();

        // Price what the observability stack did this step, from the
        // observable op counts: the trace events the step recorded, the
        // gauges the registry carries, and (when long-run monitoring is
        // on) the rule evaluations it performed.
        let recs = trace.step_records(epoch);
        let spans = recs.spans.len() as u64;
        let instants = recs.instants.len() as u64;
        let flow_points = recs.flow_points.len() as u64;
        self.meter.charge_ops("trace", spans, overhead::SPAN_RECORD_S);
        self.meter.charge_ops("trace", instants, overhead::INSTANT_RECORD_S);
        self.meter.charge_ops("trace", flow_points, overhead::FLOW_POINT_S);
        let gauges = registry.gauges().count() as u64;
        self.meter.charge_ops("metrics", gauges, overhead::GAUGE_SAMPLE_S);
        if let Some(rules) = facts.longrun_rules {
            self.meter.charge_ops("health", rules as u64 * gauges, overhead::RULE_EVAL_S);
        }

        // The step's frames, in a fixed kind order.
        self.publish(
            step,
            FrameKind::StepHeader,
            at,
            vec![
                ("epoch".to_string(), FrameValue::U64(epoch)),
                ("world".to_string(), FrameValue::U64(facts.world as u64)),
                (
                    "particles".to_string(),
                    FrameValue::U64(facts.particles as u64),
                ),
                ("view".to_string(), FrameValue::U64(facts.view)),
                ("time".to_string(), FrameValue::F64(facts.time)),
            ],
        );
        let mut phases: Vec<(String, FrameValue)> = Phase::ALL
            .iter()
            .map(|&ph| (ph.name().to_string(), FrameValue::F64(b[ph])))
            .collect();
        phases.push(("total".to_string(), FrameValue::F64(b.total())));
        self.publish(step, FrameKind::PhaseSample, at, phases);
        let gauge_fields: Vec<(String, FrameValue)> = STREAMED_GAUGES
            .into_iter()
            .filter_map(|name| {
                let v = registry.gauge(name, &[])?;
                Some((name.to_string(), FrameValue::F64(v)))
            })
            .collect();
        self.publish(step, FrameKind::Gauges, at, gauge_fields);
        let cons = facts.flows.expect("stream facts carry the flow totals");
        self.publish(
            step,
            FrameKind::FlowDigest,
            at,
            vec![
                ("sealed".to_string(), FrameValue::U64(cons.sealed)),
                ("delivered".to_string(), FrameValue::U64(cons.delivered)),
                ("fallback".to_string(), FrameValue::U64(cons.fallback)),
                ("dead".to_string(), FrameValue::U64(cons.dead)),
                ("pending".to_string(), FrameValue::U64(cons.pending)),
                (
                    "holds".to_string(),
                    FrameValue::U64(u64::from(cons.holds())),
                ),
            ],
        );
        for ev in fired {
            self.publish(step, FrameKind::Alert, at, alert_fields(ev));
        }

        // Close the step's overhead sample and run the budget rule. The
        // fraction lands as a step gauge so exporters and dashboards see
        // it; budget transitions are themselves must-deliver frames (their
        // own encoding cost lands in the next step's sample).
        let sample = self.meter.end_step(step, b.total());
        registry.step_gauge_set(OVERHEAD_GAUGE, &[], sample.fraction);
        for (cat, secs) in &sample.categories {
            registry.step_gauge_set("bonsai_obs_overhead_seconds", &[("category", cat)], *secs);
        }
        let budget_fired = self.health.observe(step, OVERHEAD_GAUGE, sample.fraction);
        for ev in &budget_fired {
            self.publish(step, FrameKind::Alert, at, alert_fields(ev));
        }
    }
}

fn alert_fields(ev: &AlertEvent) -> Vec<(String, FrameValue)> {
    vec![
        ("rule".to_string(), FrameValue::Str(ev.rule.clone())),
        ("metric".to_string(), FrameValue::Str(ev.metric.clone())),
        (
            "kind".to_string(),
            FrameValue::Str(ev.kind.name().to_string()),
        ),
        (
            "severity".to_string(),
            FrameValue::Str(ev.severity.name().to_string()),
        ),
        ("value".to_string(), FrameValue::F64(ev.value)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::{Cluster, ClusterConfig};
    use bonsai_ic::plummer_sphere;
    use bonsai_obs::overhead::OVERHEAD_BUDGET_FRACTION;

    fn streaming_cluster(block_on_full: bool, capacity: usize) -> Cluster {
        let ic = plummer_sphere(256, 42);
        let mut c = Cluster::new(
            ic,
            2,
            ClusterConfig {
                dt: 1.0e-3,
                ..ClusterConfig::default()
            },
        );
        c.enable_longrun(crate::longrun::LongRunConfig::default());
        c.enable_streaming(StreamConfig {
            subscribers: vec![SubscriberConfig::new("watch", capacity)],
            block_on_full,
            ..StreamConfig::default()
        });
        c
    }

    #[test]
    fn frames_are_published_in_kind_order_with_no_cluster() {
        // Hand-built stores and facts: one recorded epoch, one streamed gauge.
        let mut tap = StreamTap::new(StreamConfig {
            subscribers: vec![SubscriberConfig::new("watch", 16)],
            ..StreamConfig::default()
        });
        let mut trace = TraceStore::new();
        trace.span(0, 3, bonsai_obs::Lane::Gpu, "local", 0.0, 2.5);
        let mut registry = MetricsRegistry::new();
        registry.step_gauge_set("bonsai_step_seconds", &[], 2.5);
        let facts = StepFacts {
            step: 2,
            epoch: 3,
            time: 0.02,
            world: 4,
            particles: 100,
            view: 1,
            flows: Some(bonsai_net::flow::FlowConservation {
                sealed: 7,
                delivered: 6,
                fallback: 1,
                ..Default::default()
            }),
            ..StepFacts::default()
        };
        let mut b = StepBreakdown::default();
        b[Phase::GravityLocal] = 2.5;
        tap.observe(&trace, &mut registry, &b, &facts, &[]);
        let frames = tap.bus_mut().poll(0, usize::MAX);
        let kinds: Vec<FrameKind> = frames.iter().map(|f| f.kind).collect();
        assert_eq!(
            kinds,
            [FrameKind::StepHeader, FrameKind::PhaseSample, FrameKind::Gauges, FrameKind::FlowDigest]
        );
        assert!(frames.iter().all(|f| f.step == 2 && f.at == 2.5));
        assert_eq!(frames[0].f64("world"), Some(4.0));
        assert_eq!(frames[0].f64("view"), Some(1.0));
        assert_eq!(frames[2].f64("bonsai_step_seconds"), Some(2.5));
        assert_eq!(frames[3].f64("sealed"), Some(7.0));
        assert_eq!(frames[3].f64("holds"), Some(1.0));
        // The overhead sample closed against the step and landed as a gauge.
        assert_eq!(tap.meter().steps(), 1);
        assert!(registry.gauge(OVERHEAD_GAUGE, &[]).is_some());
    }

    #[test]
    fn tap_publishes_the_step_frame_set_each_step() {
        let mut c = streaming_cluster(false, 256);
        for _ in 0..4 {
            c.step();
        }
        let tap = c.stream().expect("streaming enabled");
        let p = tap.bus().published();
        assert_eq!(p.get("step-header"), Some(&4));
        assert_eq!(p.get("phase-sample"), Some(&4));
        assert_eq!(p.get("gauges"), Some(&4));
        assert_eq!(p.get("flow-digest"), Some(&4));
        assert!(tap.bus().accounting_violation().is_none());
        // Frames carry the streamed gauges and step fields.
        let frames = c.stream_mut().unwrap().bus_mut().poll(0, usize::MAX);
        let gauges = frames
            .iter()
            .find(|f| f.kind == FrameKind::Gauges)
            .expect("gauges frame");
        assert!(gauges.f64("bonsai_step_seconds").unwrap() > 0.0);
        let header = frames
            .iter()
            .find(|f| f.kind == FrameKind::StepHeader)
            .expect("header frame");
        assert_eq!(header.f64("world"), Some(2.0));
        assert_eq!(header.f64("particles"), Some(256.0));
    }

    #[test]
    fn honest_overhead_stays_inside_budget() {
        let mut c = streaming_cluster(false, 256);
        for _ in 0..5 {
            c.step();
        }
        let tap = c.take_stream().expect("streaming enabled");
        assert!(tap.meter().steps() == 5);
        assert!(
            tap.meter().max_fraction() < OVERHEAD_BUDGET_FRACTION,
            "honest streaming must fit the budget, got {}",
            tap.meter().max_fraction()
        );
        assert!(tap.health().events().is_empty());
    }

    #[test]
    fn block_on_full_sabotage_blows_the_budget() {
        // A one-slot ring that is never polled: every publish past the
        // first stalls the producer, and the stall charges must open the
        // obs-overhead alert.
        let mut c = streaming_cluster(true, 1);
        for _ in 0..5 {
            c.step();
        }
        let tap = c.take_stream().unwrap();
        assert!(tap.bus().stalls() > 0);
        assert!(tap.meter().max_fraction() > OVERHEAD_BUDGET_FRACTION);
        assert!(
            tap.health()
                .events()
                .iter()
                .any(|e| e.rule == "obs-overhead"),
            "budget rule must fire under the stalling bus"
        );
    }

    #[test]
    fn streaming_is_deterministic_and_does_not_perturb_physics() {
        let run = |streaming: bool| {
            let ic = plummer_sphere(256, 42);
            let mut c = Cluster::new(
                ic,
                2,
                ClusterConfig {
                    dt: 1.0e-3,
                    ..ClusterConfig::default()
                },
            );
            c.enable_longrun(crate::longrun::LongRunConfig::default());
            if streaming {
                c.enable_streaming(StreamConfig {
                    subscribers: vec![SubscriberConfig::new("watch", 64)],
                    ..StreamConfig::default()
                });
            }
            for _ in 0..3 {
                c.step();
            }
            let e = c.energy_report();
            let frames = c.take_stream().map(|mut t| {
                t.bus_mut()
                    .poll(0, usize::MAX)
                    .iter()
                    .map(|f| f.encode())
                    .collect::<Vec<_>>()
                    .join("\n")
            });
            (e.total(), frames)
        };
        let (e1, f1) = run(true);
        let (e2, f2) = run(true);
        let (e0, _) = run(false);
        assert_eq!(e1, e2);
        assert_eq!(f1.as_deref(), f2.as_deref(), "frames are byte-identical");
        assert_eq!(e1, e0, "streaming does not perturb the physics");
    }
}

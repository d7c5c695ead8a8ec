//! In-run telemetry streaming: the cluster-side tap that feeds
//! `bonsai-obs`'s [`TelemetryBus`] each step and self-meters what the
//! whole observability stack costs.
//!
//! [`StreamTap`] is an add-on of the [run monitor](crate::longrun), fed
//! after the monitor's observation and any scaling it ordered, on the
//! cluster's trace and metrics stores and the finished step as plain data
//! ([`StepFacts`]): each step it prices the step's observability work
//! (spans, gauges, rule evaluations) through an [`OverheadMeter`],
//! publishes the step's telemetry frames — step header, per-phase seconds,
//! key gauges, flow-conservation digest, and any alert transitions the
//! health rules fired — and closes the meter against the step's modelled
//! duration. The resulting overhead fraction is written as the
//! `bonsai_obs_overhead_fraction` gauge and handed back to the monitor,
//! whose engine carries the budget rule; the budget's transitions are
//! published as must-deliver alert frames too.
//!
//! Everything runs under the modelled clock: frame timestamps are the
//! trace makespan and costs are op counts × the fixed
//! [`bonsai_obs::overhead`] rates, so a fixed-seed run streams
//! byte-identical frames.

use crate::breakdown::{Phase, StepBreakdown};
use crate::cluster::StepFacts;
use crate::longrun::RUN_SIGNALS;
use bonsai_net::obs::FlowArrows;
use bonsai_obs::health::AlertEvent;
use bonsai_obs::overhead::{self, OverheadMeter, OVERHEAD_GAUGE};
use bonsai_obs::stream::FrameValue::{self, Str, F64, U64};
use bonsai_obs::stream::{FrameKind, SubscriberConfig, TelemetryBus};
use bonsai_obs::{MetricsRegistry, TraceStore};

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

/// The per-run streaming state: bus and overhead meter.
#[derive(Clone, Debug)]
pub struct StreamTap {
    bus: TelemetryBus,
    meter: OverheadMeter,
    prev_stalls: u64,
}

impl StreamTap {
    /// Build a tap with every configured subscriber attached.
    pub(crate) fn new(cfg: StreamConfig) -> Self {
        let mut bus = TelemetryBus::new();
        for sub in &cfg.subscribers {
            bus.add_subscriber(sub.clone());
        }
        bus.set_block_on_full(cfg.block_on_full);
        Self {
            bus,
            meter: OverheadMeter::default(),
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

    /// Publish one frame and charge its encoding + fan-out to the meter.
    pub(crate) fn publish<'a>(
        &mut self,
        step: u64,
        kind: FrameKind,
        at: f64,
        fields: impl IntoIterator<Item = (&'a str, FrameValue)>,
    ) {
        let fields = fields.into_iter().map(|(k, v)| (k.to_string(), v));
        let bytes = self.bus.publish(step, kind, at, fields);
        self.meter.charge_ops("encode", bytes as u64, overhead::ENCODE_BYTE_S);
        let subscribers = self.bus.subscriber_count() as u64;
        self.meter.charge_ops("publish", subscribers, overhead::PUBLISH_S);
        let stalls = self.bus.stalls();
        self.meter.charge_ops("stall", stalls - self.prev_stalls, overhead::STALL_S);
        self.prev_stalls = stalls;
    }

    /// Publish one must-deliver alert frame per event, stamped `at`.
    pub(crate) fn publish_alerts(&mut self, step: u64, at: f64, events: &[AlertEvent]) {
        for ev in events {
            self.publish(step, FrameKind::Alert, at, alert_fields(ev));
        }
    }

    /// Price the trace work of the step's `epoch`: the spans and instants
    /// `trace` recorded, and the flow points its `arrows` draw, counted
    /// from the ledger. Called just before [`observe`](Self::observe)
    /// closes the step's sample.
    pub(crate) fn charge_trace(&mut self, trace: &TraceStore, arrows: &FlowArrows, epoch: u64) {
        let recs = trace.step_records(epoch);
        let spans = recs.spans.len() as u64;
        let instants = recs.instants.len() as u64;
        let flow_points = arrows.count(epoch) as u64;
        self.meter.charge_ops("trace", spans, overhead::SPAN_RECORD_S);
        self.meter.charge_ops("trace", instants, overhead::INSTANT_RECORD_S);
        self.meter.charge_ops("trace", flow_points, overhead::FLOW_POINT_S);
    }

    /// One step's streaming over the cluster's `trace` and `registry`:
    /// price the rest of the step's observability work (`rules` health
    /// rules evaluated against every gauge), publish the step's frames,
    /// and close the overhead sample. `fired` is the alert transitions the monitor raised
    /// this step (published as must-deliver frames). Returns the step's
    /// overhead fraction for the budget rule.
    pub(crate) fn observe(
        &mut self,
        trace: &TraceStore,
        registry: &mut MetricsRegistry,
        b: &StepBreakdown,
        facts: &StepFacts,
        rules: usize,
        fired: &[AlertEvent],
    ) -> f64 {
        let (step, epoch) = (facts.step, facts.epoch);
        let at = trace.makespan();

        // Price the rest of what the observability stack did this step,
        // from the observable op counts (the trace's share is charged by
        // `charge_trace`): the gauges the registry carries, and the rule
        // evaluations the monitor performed.
        let gauges = registry.gauges().count() as u64;
        self.meter.charge_ops("metrics", gauges, overhead::GAUGE_SAMPLE_S);
        self.meter.charge_ops("health", rules as u64 * gauges, overhead::RULE_EVAL_S);

        // The step's frames, in a fixed kind order.
        let header = [
            ("epoch", U64(epoch)),
            ("world", U64(facts.world as u64)),
            ("particles", U64(facts.particles as u64)),
            ("view", U64(facts.view)),
            ("time", F64(facts.time)),
        ];
        self.publish(step, FrameKind::StepHeader, at, header);
        let phases = Phase::ALL.iter().map(|&ph| (ph.name(), F64(b[ph])));
        let phases: Vec<_> = phases.chain([("total", F64(b.total()))]).collect();
        self.publish(step, FrameKind::PhaseSample, at, phases);
        let gauges: Vec<_> = RUN_SIGNALS
            .into_iter()
            .filter_map(|name| Some((name, F64(registry.gauge(name, &[])?))))
            .collect();
        self.publish(step, FrameKind::Gauges, at, gauges);
        let cons = facts.flows;
        let digest = [
            ("sealed", U64(cons.sealed)),
            ("delivered", U64(cons.delivered)),
            ("dead", U64(cons.dead)),
            ("pending", U64(cons.pending)),
            ("holds", U64(u64::from(cons.holds()))),
        ];
        self.publish(step, FrameKind::FlowDigest, at, digest);
        self.publish_alerts(step, at, fired);

        // Close the step's overhead sample. The fraction lands as a step
        // gauge so exporters and dashboards see it; the budget rule's
        // transitions are published by the caller (their own encoding cost
        // lands in the next step's sample).
        let sample = self.meter.end_step(step, b.total());
        registry.step_gauge_set(OVERHEAD_GAUGE, &[], sample.fraction);
        for (cat, secs) in &sample.categories {
            registry.step_gauge_set("bonsai_obs_overhead_seconds", &[("category", cat)], *secs);
        }
        sample.fraction
    }
}

fn alert_fields(ev: &AlertEvent) -> [(&str, FrameValue); 5] {
    [
        ("rule", Str(ev.rule.clone())),
        ("metric", Str(ev.metric.clone())),
        ("kind", Str(ev.kind.name().to_string())),
        ("severity", Str(ev.severity.name().to_string())),
        ("value", F64(ev.value)),
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
            flows: bonsai_net::flow::FlowConservation {
                sealed: 7,
                delivered: 6,
                dead: 1,
                ..Default::default()
            },
            ..StepFacts::default()
        };
        let mut b = StepBreakdown::default();
        b[Phase::GravityLocal] = 2.5;
        let fraction = tap.observe(&trace, &mut registry, &b, &facts, 0, &[]);
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
        assert_eq!(registry.gauge(OVERHEAD_GAUGE, &[]), Some(fraction));
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
    fn a_rollback_streams_each_step_once() {
        // A crash in step 4's epoch rolls the cluster back to step 2's
        // checkpoint, and the failed step replays step 3 before it runs
        // again: the replay is not streamed twice, and no step goes missing.
        let dir = std::env::temp_dir().join(format!("bonsai_stream_rollback_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let plan = bonsai_net::FaultPlan::new(0).with_crash(2, 5);
        let recovery = crate::cluster::RecoveryConfig { dir: dir.clone(), every: 2 };
        let cfg = ClusterConfig::default();
        let mut c = Cluster::with_faults(plummer_sphere(256, 42), 4, cfg, plan, Some(recovery));
        c.enable_longrun(crate::longrun::LongRunConfig::default());
        c.enable_streaming(StreamConfig {
            subscribers: vec![SubscriberConfig::new("watch", 256)],
            block_on_full: false,
        });
        for _ in 0..6 {
            c.step();
        }
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(c.fault_log().injected_of(bonsai_net::FaultKind::Crash), 1, "the crash never fired");
        let frames = c.stream_mut().unwrap().bus_mut().poll(0, usize::MAX);
        let headers = frames.iter().filter(|f| f.kind == FrameKind::StepHeader);
        assert_eq!(headers.map(|f| f.step).collect::<Vec<u64>>(), [1, 2, 3, 4, 5, 6]);
    }

    #[test]
    fn honest_overhead_stays_inside_budget() {
        let mut c = streaming_cluster(false, 256);
        for _ in 0..5 {
            c.step();
        }
        let monitor = c.take_monitor().expect("monitor enabled");
        let tap = monitor.stream().expect("streaming enabled");
        assert!(tap.meter().steps() == 5);
        assert!(
            tap.meter().max_fraction() < OVERHEAD_BUDGET_FRACTION,
            "honest streaming must fit the budget, got {}",
            tap.meter().max_fraction()
        );
        assert!(monitor.health().events().is_empty());
        // One engine: the budget rule joined the long-run rules.
        let rules = bonsai_obs::health::default_rules().len() + 1;
        assert_eq!(monitor.health().rules().len(), rules);
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
        let monitor = c.take_monitor().unwrap();
        let tap = monitor.stream().unwrap();
        assert!(tap.bus().stalls() > 0);
        assert!(tap.meter().max_fraction() > OVERHEAD_BUDGET_FRACTION);
        assert!(
            monitor
                .health()
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
            let frames = c.stream_mut().map(|t| {
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

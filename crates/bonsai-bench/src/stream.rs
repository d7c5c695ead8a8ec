//! The streaming-telemetry bench: a seeded faulty Milky Way run watched
//! *live* through the in-run telemetry bus by two subscribers — a fast one
//! polled every step and a deliberately slow one that must lose only
//! droppable frames — with deterministic mid-run dashboard snapshots and a
//! byte-deterministic `BENCH_stream.json` artifact.
//!
//! The run gates on the bus's own contract:
//!
//! * **losslessness where promised** — alerts and view changes reach every
//!   subscriber even under backpressure; sample drops are accounted
//!   exactly (`published == delivered + lost + in-ring` per subscriber);
//! * **the observability budget** — the self-metered overhead fraction
//!   stays under 3% of modelled step time.
//!
//! [`StreamBenchConfig::block_on_full`] is the sabotage self-test: the bus
//! stalls the producer instead of dropping, the stall charges blow the
//! overhead budget, and the `overhead_ok` verdict must fail.

use crate::stream_dash as dash;
use crate::{alert_row, drop_storm, milky_way_config, milky_way_snapshot};
use bonsai_obs::json::{self, Value};
use bonsai_obs::obj;
use bonsai_obs::overhead::{overhead_rule, OVERHEAD_BUDGET_FRACTION};
use bonsai_obs::stream::{FrameKind, SubscriberConfig, TelemetryFrame};
use bonsai_sim::{Cluster, LongRunConfig, RunMonitor, StreamConfig, StreamTap};
use bonsai_util::units;
use std::collections::BTreeMap;

/// The streaming bench configuration.
#[derive(Clone, Debug)]
pub struct StreamBenchConfig {
    /// Total particles of the scaled Milky Way model.
    pub n: usize,
    /// Logical ranks.
    pub ranks: usize,
    /// Steps to drive.
    pub steps: usize,
    /// IC + fault-plan seed.
    pub seed: u64,
    /// `[first, last)` gravity epochs of the injected drop storm (makes
    /// the health rules fire, so alert frames exist to stream).
    pub storm_epochs: (u64, u64),
    /// Step after which one rank is admitted (0 = no grow) — exercises a
    /// must-deliver view-change frame.
    pub grow_at: usize,
    /// Step after which one rank is retired (0 = no shrink).
    pub shrink_at: usize,
    /// Ring capacity of the fast subscriber (polled every step).
    pub fast_capacity: usize,
    /// Ring capacity of the slow subscriber — deliberately tiny, so it
    /// sheds samples between its sparse polls.
    pub slow_capacity: usize,
    /// The slow subscriber drains its ring only every this many steps.
    pub slow_drain_every: usize,
    /// Steps at which a dashboard snapshot is rendered.
    pub snapshots: Vec<usize>,
    /// Sabotage: make the bus stall the producer on a full ring. The
    /// overhead gate must catch this.
    pub block_on_full: bool,
}

impl Default for StreamBenchConfig {
    fn default() -> Self {
        Self {
            n: 1_500,
            ranks: 4,
            steps: 120,
            seed: 2014,
            storm_epochs: (41, 61),
            grow_at: 70,
            shrink_at: 100,
            fast_capacity: 64,
            slow_capacity: 8,
            slow_drain_every: 16,
            snapshots: vec![40, 80, 120],
            block_on_full: false,
        }
    }
}

/// Everything the exporters need from one completed streamed run.
pub struct StreamResult {
    /// The configuration that produced it.
    pub config: StreamBenchConfig,
    /// The detached run monitor: its tap (bus accounting, overhead meter)
    /// and its one rule engine, the budget rule among the long-run ones.
    pub monitor: RunMonitor,
    /// Every frame the fast subscriber received, in delivery order.
    pub fast_frames: Vec<TelemetryFrame>,
    /// Frames the slow subscriber received, by kind name.
    pub slow_received: BTreeMap<&'static str, u64>,
    /// `(step, html)` dashboard snapshots, in step order.
    pub snapshots: Vec<(u64, String)>,
    /// Final simulated time in Gyr.
    pub time_gyr: f64,
}

impl StreamResult {
    /// The monitor's telemetry tap.
    pub fn tap(&self) -> &StreamTap {
        self.monitor.stream().expect("the streamed run has a tap")
    }

    /// Losslessness gate: no subscriber lost a must-deliver frame, the
    /// fast subscriber lost nothing at all, and the slow subscriber
    /// received every published alert and view change.
    pub fn lossless_ok(&self) -> bool {
        let reports = self.tap().bus().reports();
        let fast_clean = reports[0].lost_total() == 0;
        let no_md_loss = reports.iter().all(|r| r.must_deliver_lost() == 0);
        let slow_got_all = FrameKind::ALL.iter().filter(|k| !k.droppable()).all(|k| {
            self.slow_received.get(k.name()).copied().unwrap_or(0)
                == self.tap().bus().published().get(k.name()).copied().unwrap_or(0)
        });
        fast_clean && no_md_loss && slow_got_all
    }

    /// Accounting gate: every subscriber's ledger balances exactly.
    pub fn accounting_ok(&self) -> bool {
        self.tap().bus().accounting_violation().is_none()
    }

    /// Overhead gate: worst per-step observability fraction under budget.
    pub fn overhead_ok(&self) -> bool {
        self.tap().meter().max_fraction() < OVERHEAD_BUDGET_FRACTION
    }

    /// The whole gate.
    pub fn passed(&self) -> bool {
        self.lossless_ok() && self.accounting_ok() && self.overhead_ok()
    }
}

/// Drive the run: scaled Milky Way over `ranks` ranks with long-run
/// monitoring and streaming enabled, the drop storm injected over
/// `storm_epochs`, and scripted grow/shrink churn.
pub fn run(cfg: StreamBenchConfig) -> StreamResult {
    let ic = milky_way_snapshot(cfg.n, cfg.seed);
    let ccfg = milky_way_config(cfg.n);
    let plan = drop_storm(cfg.seed, cfg.storm_epochs);
    let mut cluster = Cluster::with_faults(ic, cfg.ranks, ccfg, plan, None);
    cluster.enable_longrun(LongRunConfig::default());
    cluster.enable_streaming(StreamConfig {
        subscribers: vec![
            SubscriberConfig::new("fast", cfg.fast_capacity),
            SubscriberConfig::new("slow", cfg.slow_capacity),
        ],
        block_on_full: cfg.block_on_full,
    });

    let mut fast_frames: Vec<TelemetryFrame> = Vec::new();
    let mut slow_received: BTreeMap<&'static str, u64> = BTreeMap::new();
    let mut snapshots: Vec<(u64, String)> = Vec::new();
    let tally_slow = |frames: &[TelemetryFrame],
                          slow_received: &mut BTreeMap<&'static str, u64>| {
        for f in frames {
            *slow_received.entry(f.kind.name()).or_insert(0) += 1;
        }
    };
    for step in 1..=cfg.steps {
        cluster.step();
        if cfg.grow_at > 0 && step == cfg.grow_at {
            cluster.admit_ranks(1);
        }
        if cfg.shrink_at > 0 && step == cfg.shrink_at {
            cluster.retire_ranks(1);
        }
        // The fast subscriber keeps up: fully drained every step. The slow
        // one only wakes every `slow_drain_every` steps and sheds samples
        // in between — the backpressure policy under test.
        let tap = cluster.stream_mut().expect("streaming enabled");
        fast_frames.extend(tap.bus_mut().poll(0, usize::MAX));
        if step % cfg.slow_drain_every == 0 {
            let drained = tap.bus_mut().poll(1, usize::MAX);
            tally_slow(&drained, &mut slow_received);
        }
        if cfg.snapshots.contains(&step) {
            let tap = cluster.stream().expect("streaming enabled");
            snapshots.push((
                step as u64,
                dash::render_snapshot(&cfg, step as u64, &fast_frames, tap),
            ));
        }
    }
    // Final drain: both rings empty, so the accounting identity reduces to
    // published == delivered + lost for every subscriber.
    let tap = cluster.stream_mut().expect("streaming enabled");
    fast_frames.extend(tap.bus_mut().poll(0, usize::MAX));
    let drained = tap.bus_mut().poll(1, usize::MAX);
    tally_slow(&drained, &mut slow_received);
    StreamResult {
        config: cfg,
        monitor: cluster.take_monitor().expect("monitor enabled"),
        fast_frames,
        slow_received,
        snapshots,
        time_gyr: units::internal_to_gyr(cluster.time()),
    }
}

/// `BENCH_stream.json`: schema `bonsai-stream-v1`, byte-deterministic.
pub fn stream_json(r: &StreamResult) -> String {
    let c = &r.config;
    let (bus, meter) = (r.tap().bus(), r.tap().meter());
    let by_kind = |m: &BTreeMap<&'static str, u64>| {
        let count = |k: &FrameKind| m.get(k.name()).copied().unwrap_or(0);
        FrameKind::ALL
            .iter()
            .map(|k| (k.name(), count(k)))
            .collect::<Value>()
    };
    let subscribers: Vec<Value> = bus
        .reports()
        .iter()
        .map(|s| {
            obj!("name": s.name.as_str(), "capacity": s.capacity, "delivered": s.delivered,
                "dropped": by_kind(&s.dropped), "evicted": by_kind(&s.evicted),
                "overflow": s.overflow, "in_ring": s.in_ring, "max_lag": s.max_lag,
                "must_deliver_lost": s.must_deliver_lost())
        })
        .collect();
    let categories: Value = meter.totals().iter().map(|(k, v)| (*k, *v)).collect();
    // The budget rule's transitions; the long-run rules' are the longrun
    // artifact's business.
    let budget = overhead_rule().name;
    let alerts = r.monitor.health().events().iter().filter(|e| e.rule == budget);
    let alerts: Vec<Value> = alerts.map(alert_row).collect();
    json::write(&obj!(
        "schema": "bonsai-stream-v1",
        "config": obj!("n": c.n, "ranks": c.ranks, "steps": c.steps, "seed": c.seed,
            "storm_epochs": vec![c.storm_epochs.0, c.storm_epochs.1], "grow_at": c.grow_at,
            "shrink_at": c.shrink_at, "fast_capacity": c.fast_capacity,
            "slow_capacity": c.slow_capacity, "slow_drain_every": c.slow_drain_every,
            "block_on_full": c.block_on_full),
        "final": obj!("time_gyr": r.time_gyr, "fast_frames": r.fast_frames.len(),
            "snapshots": r.snapshots.len()),
        "bus": obj!("published": by_kind(bus.published()),
            "published_total": bus.published_total(), "bytes_encoded": bus.bytes_encoded(),
            "stalls": bus.stalls()),
        "subscribers": subscribers,
        "overhead": obj!("categories": categories, "total_s": meter.total_s(),
            "mean_fraction": meter.mean_fraction(), "max_fraction": meter.max_fraction(),
            "budget_fraction": OVERHEAD_BUDGET_FRACTION),
        "alerts": alerts,
        "gate": obj!("lossless_ok": r.lossless_ok(), "accounting_ok": r.accounting_ok(),
            "overhead_ok": r.overhead_ok(), "passed": r.passed()),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    pub(crate) fn tiny() -> StreamBenchConfig {
        StreamBenchConfig {
            n: 600,
            ranks: 4,
            steps: 40,
            seed: 7,
            storm_epochs: (11, 16),
            grow_at: 22,
            shrink_at: 33,
            fast_capacity: 64,
            slow_capacity: 4,
            slow_drain_every: 8,
            snapshots: vec![20, 40],
            block_on_full: false,
        }
    }

    #[test]
    fn slow_subscriber_loses_only_droppable_frames() {
        let r = run(tiny());
        let reports = r.tap().bus().reports();
        let slow = &reports[1];
        assert!(slow.lost_total() > 0, "the tiny ring must shed samples");
        assert_eq!(slow.must_deliver_lost(), 0);
        // The storm fired alerts and the churn produced view changes, so
        // the lossless check is exercised, not vacuous.
        let p = r.tap().bus().published();
        assert!(p.get("alert").copied().unwrap_or(0) > 0, "{p:?}");
        assert!(p.get("view-change").copied().unwrap_or(0) >= 2, "{p:?}");
        assert!(r.lossless_ok());
        assert!(r.accounting_ok());
    }

    #[test]
    fn honest_run_passes_the_gate_and_meters_overhead() {
        let r = run(tiny());
        assert!(r.passed());
        assert!(r.tap().meter().max_fraction() > 0.0);
        assert!(r.tap().meter().max_fraction() < OVERHEAD_BUDGET_FRACTION);
        // The fast subscriber saw the full frame set.
        assert!(r.fast_frames.iter().any(|f| f.kind == FrameKind::StepHeader));
        assert!(r.fast_frames.iter().any(|f| f.kind == FrameKind::Alert));
        assert!(r.fast_frames.iter().any(|f| f.kind == FrameKind::ViewChange));
    }

    #[test]
    fn block_on_full_sabotage_fails_the_gate() {
        let r = run(StreamBenchConfig {
            block_on_full: true,
            ..tiny()
        });
        assert!(r.tap().bus().stalls() > 0);
        assert!(!r.overhead_ok(), "stall charges must blow the budget");
        assert!(!r.passed());
        assert!(stream_json(&r).contains("\"passed\": false"));
    }

    #[test]
    fn a_quoted_subscriber_name_survives_the_artifact() {
        let name = "a\"b\\c";
        let n = 200;
        let mut cluster = Cluster::new(milky_way_snapshot(n, 1), 1, milky_way_config(n));
        cluster.enable_longrun(LongRunConfig::default());
        cluster.enable_streaming(StreamConfig {
            subscribers: vec![SubscriberConfig::new(name, 4)],
            block_on_full: false,
        });
        let r = StreamResult {
            config: tiny(),
            monitor: cluster.take_monitor().expect("monitor enabled"),
            fast_frames: Vec::new(),
            slow_received: BTreeMap::new(),
            snapshots: Vec::new(),
            time_gyr: 0.0,
        };
        let v = bonsai_obs::json::parse(&stream_json(&r)).expect("valid JSON");
        let subscribers = v.get("subscribers").unwrap().as_arr().unwrap();
        assert_eq!(subscribers[0].get("name").unwrap().as_str(), Some(name));
    }

    #[test]
    fn exports_are_deterministic() {
        let a = run(tiny());
        let b = run(tiny());
        assert_eq!(stream_json(&a), stream_json(&b));
        assert_eq!(a.snapshots.len(), b.snapshots.len());
        for ((sa, ha), (sb, hb)) in a.snapshots.iter().zip(&b.snapshots) {
            assert_eq!(sa, sb);
            assert_eq!(ha, hb, "snapshot at step {sa} differs");
        }
        let json = stream_json(&a);
        let v = bonsai_obs::json::parse(&json).expect("valid JSON");
        assert_eq!(v.get("schema").unwrap().as_str(), Some("bonsai-stream-v1"));
        assert!(json.contains("\"passed\": true"));
    }
}

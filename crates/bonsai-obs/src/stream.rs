//! The in-run telemetry bus: incremental, versioned frames pushed through
//! bounded single-producer ring buffers to subscribers, with an explicit
//! backpressure policy and exact per-subscriber drop/lag accounting.
//!
//! Every other exporter in this crate is post-hoc — artifacts are reduced
//! and written after the run ends. The paper's runs were watched *live* on
//! 18600 GPUs without perturbing the compute–communication overlap
//! (§V–VI), and a multi-tenant service streaming progress to clients (a
//! parked ROADMAP aim) would need the same property: a producer that never
//! blocks on a slow consumer and an honest ledger of what each consumer
//! missed.
//!
//! The backpressure contract, per frame kind:
//!
//! | kind | policy on a full ring |
//! |---|---|
//! | `step-header`, `phase-sample`, `gauges`, `flow-digest` | **lossy tail drop** — the new frame is discarded for that subscriber and counted |
//! | `alert`, `view-change` | **must deliver** — the oldest *droppable* frame in the ring is evicted (counted); if none, the ring overflows its capacity (counted) |
//!
//! The producer therefore never waits: a slow subscriber loses samples, and
//! only samples. [`TelemetryBus::set_block_on_full`] flips the sabotage
//! mode the CI gate must catch — a bus that *stalls the producer* instead
//! of dropping (each stall is counted so the overhead meter can charge it).
//!
//! Frames encode byte-deterministically ([`TelemetryFrame::encode`]): all
//! field maps are `BTreeMap`-ordered and floats render through
//! [`fmt_f64`], so a fixed-seed run streams byte-identical lines.

use crate::json::{escape, fmt_f64};
use std::collections::{BTreeMap, VecDeque};

/// Telemetry frame schema version (the `"v"` field of every encoded frame).
pub const FRAME_VERSION: u32 = 1;

/// The kind of a telemetry frame; determines its backpressure policy.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum FrameKind {
    /// Once per step: step/epoch ids, world size, particle count, clock.
    StepHeader,
    /// Once per step: the Table II per-phase seconds of the step.
    PhaseSample,
    /// Once per step: the configured key gauges of the step.
    Gauges,
    /// Once per step: the flow-conservation digest of the run so far.
    FlowDigest,
    /// A health-rule transition (open/close). Must deliver.
    Alert,
    /// A completed membership view change. Must deliver.
    ViewChange,
}

impl FrameKind {
    /// Every kind, in declaration order (stable for accounting tables).
    pub const ALL: [FrameKind; 6] = [
        FrameKind::StepHeader,
        FrameKind::PhaseSample,
        FrameKind::Gauges,
        FrameKind::FlowDigest,
        FrameKind::Alert,
        FrameKind::ViewChange,
    ];

    /// Stable kebab-case name (the `"kind"` field of the encoding).
    pub fn name(self) -> &'static str {
        match self {
            FrameKind::StepHeader => "step-header",
            FrameKind::PhaseSample => "phase-sample",
            FrameKind::Gauges => "gauges",
            FrameKind::FlowDigest => "flow-digest",
            FrameKind::Alert => "alert",
            FrameKind::ViewChange => "view-change",
        }
    }

    /// Whether backpressure may drop this kind (lossy-tail policy). Alerts
    /// and view changes must always reach every subscriber.
    pub fn droppable(self) -> bool {
        !matches!(self, FrameKind::Alert | FrameKind::ViewChange)
    }
}

/// A typed frame field value.
#[derive(Clone, Debug, PartialEq)]
pub enum FrameValue {
    /// A float (rendered via [`fmt_f64`]).
    F64(f64),
    /// An unsigned integer (rendered bare).
    U64(u64),
    /// A string (JSON-escaped).
    Str(String),
}

impl FrameValue {
    fn encode(&self) -> String {
        match self {
            FrameValue::F64(x) => fmt_f64(*x),
            FrameValue::U64(x) => x.to_string(),
            FrameValue::Str(s) => escape(s),
        }
    }
}

/// One versioned telemetry frame: a sequence-numbered, step-stamped record
/// with a deterministic field map.
#[derive(Clone, Debug, PartialEq)]
pub struct TelemetryFrame {
    /// Bus-wide publish sequence number (1-based, gapless at the producer).
    pub seq: u64,
    /// Simulation step the frame describes.
    pub step: u64,
    /// Frame kind (fixes the backpressure policy).
    pub kind: FrameKind,
    /// Modelled-clock timestamp (seconds) the frame was published at.
    pub at: f64,
    /// Frame payload, deterministically ordered.
    pub fields: BTreeMap<String, FrameValue>,
}

impl TelemetryFrame {
    /// Byte-deterministic single-line JSON encoding:
    /// `{"v":1,"seq":…,"step":…,"kind":"…","at":…,"data":{…}}`.
    pub fn encode(&self) -> String {
        let data: Vec<String> = self
            .fields
            .iter()
            .map(|(k, v)| format!("{}:{}", escape(k), v.encode()))
            .collect();
        format!(
            "{{\"v\":{FRAME_VERSION},\"seq\":{},\"step\":{},\"kind\":\"{}\",\"at\":{},\"data\":{{{}}}}}",
            self.seq,
            self.step,
            self.kind.name(),
            fmt_f64(self.at),
            data.join(",")
        )
    }

    /// A field's float value, accepting integer fields (`None` otherwise).
    pub fn f64(&self, key: &str) -> Option<f64> {
        match self.fields.get(key) {
            Some(FrameValue::F64(x)) => Some(*x),
            Some(FrameValue::U64(x)) => Some(*x as f64),
            _ => None,
        }
    }

    /// A field's string value (`None` otherwise).
    pub fn str(&self, key: &str) -> Option<&str> {
        match self.fields.get(key) {
            Some(FrameValue::Str(s)) => Some(s),
            _ => None,
        }
    }
}

/// One subscriber's static configuration.
#[derive(Clone, Debug)]
pub struct SubscriberConfig {
    /// Stable subscriber name (appears in the accounting report).
    pub name: String,
    /// Ring capacity in frames (clamped to ≥ 1). Must-deliver frames may
    /// exceed it transiently (counted as overflow).
    pub capacity: usize,
}

impl SubscriberConfig {
    /// Build a config.
    pub fn new(name: &str, capacity: usize) -> Self {
        Self {
            name: name.to_string(),
            capacity: capacity.max(1),
        }
    }
}

/// Per-subscriber live state: the bounded ring plus the drop/lag ledger.
#[derive(Clone, Debug)]
struct Subscriber {
    cfg: SubscriberConfig,
    ring: VecDeque<TelemetryFrame>,
    delivered: u64,
    /// Lossy-tail drops by kind name (the new frame was discarded).
    dropped: BTreeMap<&'static str, u64>,
    /// Droppable frames evicted from the ring to admit a must-deliver one.
    evicted: BTreeMap<&'static str, u64>,
    /// Must-deliver frames admitted past capacity (ring had nothing
    /// droppable left to evict).
    overflow: u64,
    /// Highest sequence number consumed via poll.
    consumed_seq: u64,
    /// Worst observed lag (newest published seq − last consumed seq).
    max_lag: u64,
}

impl Subscriber {
    fn new(cfg: SubscriberConfig) -> Self {
        Self {
            cfg,
            ring: VecDeque::new(),
            delivered: 0,
            dropped: BTreeMap::new(),
            evicted: BTreeMap::new(),
            overflow: 0,
            consumed_seq: 0,
            max_lag: 0,
        }
    }

    fn dropped_total(&self) -> u64 {
        self.dropped.values().sum::<u64>() + self.evicted.values().sum::<u64>()
    }
}

/// The frozen accounting view of one subscriber (export surface).
#[derive(Clone, Debug)]
pub struct SubscriberReport {
    /// Subscriber name.
    pub name: String,
    /// Configured ring capacity.
    pub capacity: usize,
    /// Frames delivered through [`TelemetryBus::poll`].
    pub delivered: u64,
    /// Lossy-tail drops by kind name.
    pub dropped: BTreeMap<&'static str, u64>,
    /// Evictions (droppable frames displaced by must-deliver ones) by kind.
    pub evicted: BTreeMap<&'static str, u64>,
    /// Must-deliver frames admitted past capacity.
    pub overflow: u64,
    /// Frames still buffered in the ring.
    pub in_ring: usize,
    /// Worst observed lag over the run.
    pub max_lag: u64,
    /// Lag right now (newest published seq − last consumed seq).
    pub lag: u64,
}

impl SubscriberReport {
    /// Frames of *must-deliver* kinds this subscriber lost (must be 0 under
    /// the honest policy; only the `block_on_full` sabotage can raise it).
    pub fn must_deliver_lost(&self) -> u64 {
        let lost = |m: &BTreeMap<&'static str, u64>| {
            FrameKind::ALL
                .iter()
                .filter(|k| !k.droppable())
                .map(|k| m.get(k.name()).copied().unwrap_or(0))
                .sum::<u64>()
        };
        lost(&self.dropped) + lost(&self.evicted)
    }

    /// Total frames lost (dropped + evicted) across kinds.
    pub fn lost_total(&self) -> u64 {
        self.dropped.values().sum::<u64>() + self.evicted.values().sum::<u64>()
    }
}

/// The single-producer telemetry bus: one bounded ring per subscriber.
#[derive(Clone, Debug, Default)]
pub struct TelemetryBus {
    next_seq: u64,
    subs: Vec<Subscriber>,
    /// Frames published, by kind name.
    published: BTreeMap<&'static str, u64>,
    /// Total encoded frame bytes (each frame is encoded exactly once).
    bytes_encoded: u64,
    /// Sabotage mode: stall the producer instead of dropping.
    block_on_full: bool,
    /// Producer stalls taken in `block_on_full` mode.
    stalls: u64,
}

impl TelemetryBus {
    /// An empty bus (no subscribers).
    pub fn new() -> Self {
        Self::default()
    }

    /// Attach a subscriber; returns its index (poll handle).
    pub fn add_subscriber(&mut self, cfg: SubscriberConfig) -> usize {
        self.subs.push(Subscriber::new(cfg));
        self.subs.len() - 1
    }

    /// Flip the sabotage mode: on a full ring the producer *stalls* (each
    /// stall is counted, and the frame is then force-admitted by evicting
    /// the ring's oldest frame regardless of kind). Never set in honest
    /// runs — this is the failure mode the CI overhead gate must catch.
    pub fn set_block_on_full(&mut self, yes: bool) {
        self.block_on_full = yes;
    }

    /// Whether the sabotage mode is active.
    pub fn block_on_full(&self) -> bool {
        self.block_on_full
    }

    /// Publish one frame to every subscriber. Returns the encoded byte
    /// length of the frame (the overhead meter's encoding charge); the
    /// frame is encoded exactly once regardless of subscriber count.
    pub fn publish(
        &mut self,
        step: u64,
        kind: FrameKind,
        at: f64,
        fields: impl IntoIterator<Item = (String, FrameValue)>,
    ) -> usize {
        self.next_seq += 1;
        let frame = TelemetryFrame {
            seq: self.next_seq,
            step,
            kind,
            at,
            fields: fields.into_iter().collect(),
        };
        let bytes = frame.encode().len();
        self.bytes_encoded += bytes as u64;
        *self.published.entry(kind.name()).or_insert(0) += 1;
        for sub in &mut self.subs {
            let lag = frame.seq - sub.consumed_seq;
            sub.max_lag = sub.max_lag.max(lag);
            if sub.ring.len() < sub.cfg.capacity {
                sub.ring.push_back(frame.clone());
                continue;
            }
            if self.block_on_full {
                // Sabotage: the producer waits for the consumer. The stall
                // is counted (and priced by the overhead meter); the oldest
                // frame then gives way so the run can finish.
                self.stalls += 1;
                if let Some(old) = sub.ring.pop_front() {
                    *sub.evicted.entry(old.kind.name()).or_insert(0) += 1;
                }
                sub.ring.push_back(frame.clone());
            } else if kind.droppable() {
                // Lossy tail: the new sample is the one discarded.
                *sub.dropped.entry(kind.name()).or_insert(0) += 1;
            } else if let Some(pos) = sub.ring.iter().position(|f| f.kind.droppable()) {
                // Must deliver: the oldest droppable frame gives way.
                let old = sub.ring.remove(pos).expect("position was valid");
                *sub.evicted.entry(old.kind.name()).or_insert(0) += 1;
                sub.ring.push_back(frame.clone());
            } else {
                // Ring full of must-deliver frames: overflow past capacity
                // rather than lose one.
                sub.overflow += 1;
                sub.ring.push_back(frame.clone());
            }
        }
        bytes
    }

    /// Drain up to `max` frames from subscriber `idx`'s ring, oldest first.
    pub fn poll(&mut self, idx: usize, max: usize) -> Vec<TelemetryFrame> {
        let sub = &mut self.subs[idx];
        let n = max.min(sub.ring.len());
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            let f = sub.ring.pop_front().expect("ring length checked");
            sub.consumed_seq = sub.consumed_seq.max(f.seq);
            sub.delivered += 1;
            out.push(f);
        }
        out
    }

    /// Subscriber `idx`'s current lag: newest published seq minus the last
    /// sequence it consumed.
    pub fn lag(&self, idx: usize) -> u64 {
        self.next_seq - self.subs[idx].consumed_seq.min(self.next_seq)
    }

    /// Number of attached subscribers.
    pub fn subscriber_count(&self) -> usize {
        self.subs.len()
    }

    /// Total frames published (across kinds).
    pub fn published_total(&self) -> u64 {
        self.published.values().sum()
    }

    /// Frames published by kind name, deterministically ordered.
    pub fn published(&self) -> &BTreeMap<&'static str, u64> {
        &self.published
    }

    /// Total encoded frame bytes.
    pub fn bytes_encoded(&self) -> u64 {
        self.bytes_encoded
    }

    /// Producer stalls taken (nonzero only under `block_on_full`).
    pub fn stalls(&self) -> u64 {
        self.stalls
    }

    /// The frozen accounting view of every subscriber, in attach order.
    /// The exact conservation identity per subscriber:
    /// `published == delivered + dropped + evicted + in_ring`
    /// (overflow frames are in `delivered`/`in_ring` — overflow counts
    /// capacity violations, not losses).
    pub fn reports(&self) -> Vec<SubscriberReport> {
        self.subs
            .iter()
            .map(|s| SubscriberReport {
                name: s.cfg.name.clone(),
                capacity: s.cfg.capacity,
                delivered: s.delivered,
                dropped: s.dropped.clone(),
                evicted: s.evicted.clone(),
                overflow: s.overflow,
                in_ring: s.ring.len(),
                max_lag: s.max_lag,
                lag: self.next_seq - s.consumed_seq.min(self.next_seq),
            })
            .collect()
    }

    /// Check the per-subscriber conservation identity; returns the name of
    /// the first subscriber whose ledger does not balance.
    pub fn accounting_violation(&self) -> Option<String> {
        let total = self.published_total();
        for s in &self.subs {
            let accounted = s.delivered + s.dropped_total() + s.ring.len() as u64;
            if accounted != total {
                return Some(format!(
                    "{}: published {total} != delivered {} + lost {} + in-ring {}",
                    s.cfg.name,
                    s.delivered,
                    s.dropped_total(),
                    s.ring.len()
                ));
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn field(k: &str, v: f64) -> (String, FrameValue) {
        (k.to_string(), FrameValue::F64(v))
    }

    #[test]
    fn frames_encode_deterministically_and_versioned() {
        let mk = || {
            let mut f = TelemetryFrame {
                seq: 3,
                step: 7,
                kind: FrameKind::Gauges,
                at: 1.25,
                fields: BTreeMap::new(),
            };
            f.fields.insert("b".into(), FrameValue::F64(2.5));
            f.fields.insert("a".into(), FrameValue::U64(9));
            f.fields.insert("s".into(), FrameValue::Str("x\"y".into()));
            f
        };
        let a = mk().encode();
        assert_eq!(a, mk().encode());
        assert_eq!(
            a,
            "{\"v\":1,\"seq\":3,\"step\":7,\"kind\":\"gauges\",\"at\":1.25,\
             \"data\":{\"a\":9,\"b\":2.5,\"s\":\"x\\\"y\"}}"
        );
        // The encoding is valid JSON and round-trips the fields.
        let v = crate::json::parse(&a).unwrap();
        assert_eq!(v.get("v").unwrap().as_f64(), Some(1.0));
        assert_eq!(v.get("data").unwrap().get("a").unwrap().as_f64(), Some(9.0));
    }

    #[test]
    fn fast_subscriber_sees_everything_in_order() {
        let mut bus = TelemetryBus::new();
        let s = bus.add_subscriber(SubscriberConfig::new("fast", 16));
        for step in 1..=5u64 {
            bus.publish(step, FrameKind::StepHeader, step as f64, [field("t", 0.1)]);
        }
        let got = bus.poll(s, usize::MAX);
        assert_eq!(got.len(), 5);
        let seqs: Vec<u64> = got.iter().map(|f| f.seq).collect();
        assert_eq!(seqs, vec![1, 2, 3, 4, 5]);
        assert_eq!(bus.lag(s), 0);
        assert!(bus.accounting_violation().is_none());
    }

    #[test]
    fn slow_subscriber_loses_only_droppable_frames() {
        let mut bus = TelemetryBus::new();
        let s = bus.add_subscriber(SubscriberConfig::new("slow", 2));
        // Fill the ring, then keep publishing samples and two must-deliver
        // frames; never poll until the end.
        for step in 1..=6u64 {
            bus.publish(step, FrameKind::Gauges, 0.0, [field("g", 1.0)]);
        }
        bus.publish(7, FrameKind::Alert, 0.0, [field("v", 9.0)]);
        bus.publish(8, FrameKind::ViewChange, 0.0, [field("w", 5.0)]);
        let got = bus.poll(s, usize::MAX);
        // Ring of 2: both must-deliver frames survive (evicting the two
        // buffered gauges), every later gauge was tail-dropped.
        let kinds: Vec<FrameKind> = got.iter().map(|f| f.kind).collect();
        assert_eq!(kinds, vec![FrameKind::Alert, FrameKind::ViewChange]);
        let r = &bus.reports()[0];
        assert_eq!(r.must_deliver_lost(), 0);
        assert_eq!(r.dropped.get("gauges"), Some(&4));
        assert_eq!(r.evicted.get("gauges"), Some(&2));
        assert_eq!(r.overflow, 0);
        assert!(bus.accounting_violation().is_none());
    }

    #[test]
    fn must_deliver_overflows_rather_than_drops() {
        let mut bus = TelemetryBus::new();
        let s = bus.add_subscriber(SubscriberConfig::new("tiny", 1));
        for step in 1..=3u64 {
            bus.publish(step, FrameKind::Alert, 0.0, [field("v", 1.0)]);
        }
        let r = &bus.reports()[0];
        assert_eq!(r.must_deliver_lost(), 0);
        assert_eq!(r.overflow, 2, "two alerts admitted past capacity 1");
        assert_eq!(bus.poll(s, usize::MAX).len(), 3);
        assert!(bus.accounting_violation().is_none());
    }

    #[test]
    fn lag_tracks_the_unconsumed_backlog() {
        let mut bus = TelemetryBus::new();
        let s = bus.add_subscriber(SubscriberConfig::new("lagger", 4));
        for step in 1..=4u64 {
            bus.publish(step, FrameKind::StepHeader, 0.0, [field("t", 1.0)]);
        }
        assert_eq!(bus.lag(s), 4);
        bus.poll(s, 2);
        assert_eq!(bus.lag(s), 2);
        bus.poll(s, usize::MAX);
        assert_eq!(bus.lag(s), 0);
        assert_eq!(bus.reports()[0].max_lag, 4);
    }

    #[test]
    fn block_on_full_stalls_the_producer() {
        let mut bus = TelemetryBus::new();
        bus.add_subscriber(SubscriberConfig::new("victim", 1));
        bus.set_block_on_full(true);
        for step in 1..=5u64 {
            bus.publish(step, FrameKind::Gauges, 0.0, [field("g", 1.0)]);
        }
        assert_eq!(bus.stalls(), 4, "every publish past the first stalls");
        assert!(bus.accounting_violation().is_none());
    }

    #[test]
    fn publish_counts_bytes_once_regardless_of_subscribers() {
        let mut a = TelemetryBus::new();
        a.add_subscriber(SubscriberConfig::new("one", 4));
        let mut b = TelemetryBus::new();
        b.add_subscriber(SubscriberConfig::new("one", 4));
        b.add_subscriber(SubscriberConfig::new("two", 4));
        let ba = a.publish(1, FrameKind::Gauges, 0.5, [field("g", 2.0)]);
        let bb = b.publish(1, FrameKind::Gauges, 0.5, [field("g", 2.0)]);
        assert_eq!(ba, bb);
        assert_eq!(a.bytes_encoded(), b.bytes_encoded());
    }
}

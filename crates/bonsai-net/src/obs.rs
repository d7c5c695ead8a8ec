//! Bridges from the network layer into the unified observability model
//! (`bonsai-obs`), and the one reader and writer of the trace's COMM lanes.
//!
//! **Placement.** [`record_flows`] draws a gravity epoch's flows: each flow
//! gets one anchor on the modelled clock, and its arrow points and every
//! fault and recovery instant that names it are placed from that anchor,
//! so an instant sits exactly on the arrow point it is about. Measured link
//! traffic lands in the metrics registry priced by the interconnect cost
//! model ([`NetworkModel::observe_link`]).
//!
//! **Exposure.** [`hidden_comm_fractions`] and [`exposed_comm`] read a
//! step's COMM and GPU spans through one per-rank view of the step's
//! records: the first says how much of each rank's COMM time the GPU work
//! hides (§III-B2's overlap claim), the second finds the rest.
//!
//! **Wait attribution.** The ledger knows *what happened to every sealed
//! envelope* — delivered on attempt k, or dead with an epoch a rollback
//! abandoned — and the trace knows *where the time went*, including each flow's
//! modeled send and resolve instants (its `Start` / `Finish` flow points).
//! [`classify`] reduces a causal flow set to a [`WaitCause`] by severity
//! (retransmission > late-sender); [`exposed_comm`]
//! attributes unhidden COMM time to the flows whose modeled lifetime
//! overlaps it; [`link_ledger`] reduces flows to per-link reliability and
//! delivery-latency statistics.

use crate::cost::NetworkModel;
use crate::fault::{RecoveryAction, Wire};
use crate::flow::{FlowOutcome, FlowRecord};
use bonsai_obs::{
    interval_union, overlap_with_union, ArgValue, FlowPhase, Lane, MetricsRegistry, Span,
    TraceStore, WaitCause,
};
use std::collections::BTreeMap;

/// Models where a flow's frames sit on the trace clock.
///
/// The fabric itself is instantaneous (in-process channels); what the trace
/// shows is the *priced* wire time: attempt `k` of a flow leaves its sender
/// `k` retransmit-timeouts after the flow's anchor, and arrives one modeled
/// point-to-point latency later. The retransmit timeout is two
/// point-to-point times — a request/ack round trip — so every
/// retransmission chain is strictly ordered on the timeline.
struct FlowClock<'a> {
    net: &'a NetworkModel,
}

impl<'a> FlowClock<'a> {
    fn new(net: &'a NetworkModel) -> Self {
        Self { net }
    }

    /// Modeled retransmit timeout for a payload of `bytes`.
    fn rto(&self, bytes: usize) -> f64 {
        2.0 * self.net.p2p_time(bytes as u64)
    }

    /// When attempt `k` of `r` leaves the sender, given the flow's anchor.
    fn send_at(&self, r: &FlowRecord, attempt: u32, anchor: f64) -> f64 {
        anchor + attempt as f64 * self.rto(r.bytes)
    }

    /// When the delivering frame of `r` lands, if it was delivered.
    fn deliver_at(&self, r: &FlowRecord, anchor: f64) -> Option<f64> {
        match r.outcome {
            FlowOutcome::Delivered { attempt } => {
                Some(self.send_at(r, attempt, anchor) + self.net.p2p_time(r.bytes as u64))
            }
            _ => None,
        }
    }
}

/// Draw gravity epoch `step` of `wire` — its flows and its fault log — on
/// the COMM lanes of `store`, and count its flows into `registry`.
///
/// `windows[r]` is rank `r`'s LET-exchange window on the trace clock,
/// `(start, length)`; a rank without one uses `base`. Each flow is anchored
/// once, at its sender's window start plus its seal-order slot in that
/// window (`length · i / n` for the sender's `i`-th of `n` flows), so the
/// arrows land where the transfers would be in flight rather than stacked
/// at the window's opening. Placed from that anchor are the flow's arrow
/// points — `Start` on the sender at attempt 0, a `Step` per retransmitted
/// attempt, `Finish` on the receiver at delivery — and every instant that
/// names the flow: an injection at attempt `k` and the `k`-th
/// retransmission sit on attempt `k`'s point, any other recovery on the
/// `Finish`. Instants are recorded in log order, injections first, and
/// carry the flow id, so Perfetto log order is causal. An event that names
/// no flow of the epoch (a crash, a restore, a view change) sits at its
/// rank's window start.
///
/// Metrics: each delivery's latency into `bonsai_flow_delivery_seconds`
/// (created only when a flow delivered) and, per retransmitted flow — the
/// cost the overlap window could not hide — its retransmissions into
/// `bonsai_flow_retransmits_total{link}` and one into
/// `bonsai_flow_exposed_total{kind}`.
pub fn record_flows(
    wire: &Wire,
    net: &NetworkModel,
    step: u64,
    windows: &[(f64, f64)],
    base: f64,
    store: &mut TraceStore,
    registry: &mut MetricsRegistry,
) {
    let flows = wire.flows.for_epoch(step);
    let clock = FlowClock::new(net);
    let mut sent = vec![0usize; windows.len()];
    for r in flows.iter().filter(|r| r.from < windows.len()) {
        sent[r.from] += 1;
    }
    let mut slot = vec![0usize; windows.len()];
    let anchors: Vec<f64> = (flows.iter())
        .map(|r| match windows.get(r.from) {
            Some(&(start, length)) => {
                let i = slot[r.from];
                slot[r.from] += 1;
                start + length * i as f64 / sent[r.from] as f64
            }
            None => base,
        })
        .collect();

    // Looked up once per epoch, and only when a flow delivered: an epoch
    // that delivers nothing does not create the histogram.
    let mut delivery = (flows.iter())
        .any(|r| matches!(r.outcome, FlowOutcome::Delivered { .. }))
        .then(|| registry.histogram_entry("bonsai_flow_delivery_seconds", &[]));
    for (r, &anchor) in flows.iter().zip(&anchors) {
        let mut point = |rank: usize, at: f64, phase: FlowPhase| {
            store.flow_point(r.id, rank as u32, step, Lane::Comm, r.kind.flow_name(), at, phase)
        };
        point(r.from, anchor, FlowPhase::Start);
        for a in 1..r.attempts {
            point(r.from, clock.send_at(r, a, anchor), FlowPhase::Step);
        }
        if let Some(at) = clock.deliver_at(r, anchor) {
            point(r.to, at, FlowPhase::Finish);
            if let Some(h) = delivery.as_deref_mut() {
                h.observe(at - anchor);
            }
        }
    }
    for r in flows.iter().filter(|r| r.attempts > 1) {
        let link = format!("{}->{}", r.from, r.to);
        let retransmits = (r.attempts - 1) as u64;
        registry.counter_add("bonsai_flow_retransmits_total", &[("link", &link)], retransmits);
        registry.counter_add("bonsai_flow_exposed_total", &[("kind", r.kind.name())], 1);
    }

    let (injected, recoveries) = wire.log.for_epoch(step);
    let window_start = |rank: usize| windows.get(rank).map_or(base, |w| w.0);
    // Ids are dense within the epoch's slice: an event finds its flow by
    // subtraction.
    let index = |id: u64| {
        let i = id.checked_sub(flows.first()?.id)? as usize;
        (i < flows.len()).then_some(i)
    };
    for e in injected {
        let flow = index(e.flow);
        let at = flow.map_or(window_start(e.to), |i| clock.send_at(&flows[i], e.attempt, anchors[i]));
        let ev = store.instant(e.to as u32, step, Lane::Comm, format!("inject:{}", e.fault), at);
        ev.args.push(("from", ArgValue::U64(e.from as u64)));
        ev.args.push(("to", ArgValue::U64(e.to as u64)));
        ev.args.push(("kind", ArgValue::Str(e.kind.name().into())));
        ev.args.push(("attempt", ArgValue::U64(e.attempt as u64)));
        if flow.is_some() {
            ev.args.push(("flow", ArgValue::U64(e.flow)));
        }
    }
    // The k-th retransmission of a flow is the send of its attempt k.
    let mut retries = vec![0u32; flows.len()];
    for e in recoveries {
        let flow = index(e.flow);
        let at = match flow {
            Some(i) if e.action == RecoveryAction::Retransmit => {
                retries[i] += 1;
                clock.send_at(&flows[i], retries[i], anchors[i])
            }
            Some(i) => clock.deliver_at(&flows[i], anchors[i]).unwrap_or_else(|| window_start(e.rank)),
            None => window_start(e.rank),
        };
        let ev = store.instant(e.rank as u32, step, Lane::Comm, format!("recover:{}", e.action), at);
        if let Some(p) = e.peer {
            ev.args.push(("peer", ArgValue::U64(p as u64)));
        }
        if let Some(k) = e.kind {
            ev.args.push(("kind", ArgValue::Str(k.name().into())));
        }
        if flow.is_some() {
            ev.args.push(("flow", ArgValue::U64(e.flow)));
        }
        ev.args.push(("detail", ArgValue::Str(e.detail.clone())));
    }
}

impl NetworkModel {
    /// Record one rank's traffic of a given `kind` ("boundary", "let",
    /// "exchange", "retransmit") into the registry: a byte counter per
    /// (kind, rank), a machine-wide byte counter per kind, and the modelled
    /// point-to-point latency for the volume as a histogram observation.
    pub fn observe_link(
        &self,
        reg: &mut MetricsRegistry,
        kind: &str,
        rank: usize,
        bytes: u64,
    ) {
        if bytes == 0 {
            return;
        }
        let rank_s = rank.to_string();
        reg.counter_add(
            "bonsai_net_bytes_total",
            &[("kind", kind), ("rank", &rank_s)],
            bytes,
        );
        reg.counter_add("bonsai_net_kind_bytes_total", &[("kind", kind)], bytes);
        reg.histogram_observe(
            "bonsai_net_link_seconds",
            &[("kind", kind)],
            self.p2p_time(bytes),
        );
    }
}

/// Classify a causal flow set into the dominant [`WaitCause`].
///
/// Priority: retransmission > late-sender. An empty set means the interval
/// had no identifiable flow — [`WaitCause::Unattributed`].
pub fn classify<'a>(flows: impl IntoIterator<Item = &'a FlowRecord>) -> WaitCause {
    let retried = |f: &FlowRecord| f.attempts > 1;
    let cause = |f| if retried(f) { WaitCause::Retransmission } else { WaitCause::LateSender };
    // WaitCause derives Ord in severity order (Retransmission first).
    flows.into_iter().map(cause).min().unwrap_or(WaitCause::Unattributed)
}

/// A flow's modeled instants as the trace drew them.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FlowTimes {
    /// When the first attempt left the sender (its `Start` point).
    pub send_at: f64,
    /// When the flow was delivered (its `Finish` point); `None` while
    /// pending or dead.
    pub resolve_at: Option<f64>,
}

/// The instants of every flow the trace drew in `step`, by flow id.
pub fn flow_times(store: &TraceStore, step: u64) -> BTreeMap<u64, FlowTimes> {
    let mut times = BTreeMap::new();
    for p in store.step_records(step).flow_points {
        match p.phase {
            FlowPhase::Start => {
                times.insert(p.id, FlowTimes { send_at: p.at, resolve_at: None });
            }
            FlowPhase::Finish => {
                if let Some(t) = times.get_mut(&p.id) {
                    t.resolve_at = Some(p.at);
                }
            }
            FlowPhase::Step => {}
        }
    }
    times
}

/// Per-link ledger: traffic, reliability, and delivery-latency percentiles.
#[derive(Clone, Debug, PartialEq)]
pub struct LinkStats {
    /// Sender rank.
    pub from: usize,
    /// Receiver rank.
    pub to: usize,
    /// Flows sealed on the link.
    pub flows: usize,
    /// Total payload bytes sealed on the link.
    pub bytes: u64,
    /// Total send attempts (originals + retransmissions).
    pub attempts: u64,
    /// Retransmitted attempts (attempts beyond each flow's first).
    pub retransmits: u64,
    /// Flows that delivered.
    pub delivered: usize,
    /// Flows killed by a crash.
    pub dead: usize,
    /// Median modeled delivery latency (delivered flows; 0 if none).
    pub latency_p50: f64,
    /// 90th-percentile modeled delivery latency.
    pub latency_p90: f64,
    /// 99th-percentile modeled delivery latency — the tail a few
    /// retransmitted flows drag out while p50/p90 look clean.
    pub latency_p99: f64,
    /// Worst modeled delivery latency.
    pub latency_max: f64,
}

impl LinkStats {
    /// Retransmitted fraction of all attempts on the link.
    pub fn retransmit_ratio(&self) -> f64 {
        if self.attempts == 0 {
            0.0
        } else {
            self.retransmits as f64 / self.attempts as f64
        }
    }

    /// `"from->to"` link label.
    pub fn label(&self) -> String {
        format!("{}->{}", self.from, self.to)
    }
}

/// Nearest-rank percentile of an ascending-sorted slice (0 if empty).
fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = (q * (sorted.len() - 1) as f64).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// Aggregate flows into a per-link ledger, sorted by `(from, to)`. A
/// delivered flow's latency is its resolve minus its send instant in
/// `times` (see [`flow_times`]).
pub fn link_ledger(flows: &[FlowRecord], times: &BTreeMap<u64, FlowTimes>) -> Vec<LinkStats> {
    let mut by_link: BTreeMap<(usize, usize), Vec<&FlowRecord>> = BTreeMap::new();
    for f in flows {
        by_link.entry((f.from, f.to)).or_default().push(f);
    }
    let latency = |f: &FlowRecord| match (f.outcome, times.get(&f.id)) {
        (FlowOutcome::Delivered { .. }, Some(t)) => t.resolve_at.map(|r| (r - t.send_at).max(0.0)),
        _ => None,
    };
    by_link
        .into_iter()
        .map(|((from, to), fs)| {
            let mut lat: Vec<f64> = fs.iter().filter_map(|f| latency(f)).collect();
            lat.sort_by(|a, b| a.partial_cmp(b).unwrap());
            let count = |o: fn(&FlowOutcome) -> bool| fs.iter().filter(|f| o(&f.outcome)).count();
            LinkStats {
                from,
                to,
                flows: fs.len(),
                bytes: fs.iter().map(|f| f.bytes as u64).sum(),
                attempts: fs.iter().map(|f| f.attempts as u64).sum(),
                retransmits: fs.iter().map(|f| f.attempts.saturating_sub(1) as u64).sum(),
                delivered: count(|o| matches!(o, FlowOutcome::Delivered { .. })),
                dead: count(|o| *o == FlowOutcome::Dead),
                latency_p50: percentile(&lat, 0.5),
                latency_p90: percentile(&lat, 0.9),
                latency_p99: percentile(&lat, 0.99),
                latency_max: lat.last().copied().unwrap_or(0.0),
            }
        })
        .collect()
}

/// One exposed-communication interval: COMM-lane time on a rank not hidden
/// behind GPU work, with its causal flow set and classified cause.
#[derive(Clone, Debug, PartialEq)]
pub struct ExposedComm {
    /// Rank the interval belongs to.
    pub rank: usize,
    /// Interval start (trace seconds).
    pub start: f64,
    /// Interval end (trace seconds).
    pub end: f64,
    /// Dominant cause classified from `flows`.
    pub cause: WaitCause,
    /// Ids of the flows whose modeled lifetime overlaps the interval and
    /// touches this rank.
    pub flows: Vec<u64>,
}

impl ExposedComm {
    /// Interval length in seconds.
    pub fn seconds(&self) -> f64 {
        (self.end - self.start).max(0.0)
    }
}

/// Subtract the union of `cover` from `[start, end)`, returning the exposed
/// sub-intervals in order.
fn subtract(start: f64, end: f64, cover: &[(f64, f64)]) -> Vec<(f64, f64)> {
    let mut out = Vec::new();
    let mut cursor = start;
    for &(cs, ce) in cover {
        if ce <= cursor {
            continue;
        }
        if cs >= end {
            break;
        }
        if cs > cursor {
            out.push((cursor, cs.min(end)));
        }
        cursor = cursor.max(ce);
        if cursor >= end {
            break;
        }
    }
    if cursor < end {
        out.push((cursor, end));
    }
    out
}

/// One rank's COMM-lane and GPU-lane `(start, end)` intervals in a step,
/// in record order.
#[derive(Default)]
struct RankLanes {
    comm: Vec<(f64, f64)>,
    gpu: Vec<(f64, f64)>,
}

/// Every rank with a span in `step`, ascending, with its COMM and GPU
/// intervals measured from `origin` (`0.0` keeps the trace clock).
fn rank_lanes(spans: &[Span], origin: f64) -> BTreeMap<u32, RankLanes> {
    let mut by_rank: BTreeMap<u32, RankLanes> = BTreeMap::new();
    for s in spans {
        let lanes = by_rank.entry(s.rank).or_default();
        let interval = (s.start - origin, s.end - origin);
        match s.lane {
            Lane::Comm => lanes.comm.push(interval),
            Lane::Gpu => lanes.gpu.push(interval),
            Lane::Cpu => {}
        }
    }
    by_rank
}

/// Each rank's fraction of COMM time hidden under its own GPU work in
/// `step`, ranks ascending (every rank with a span in the step; one without
/// COMM time reads 1.0). Hiding is measured against the union of the GPU
/// intervals, so COMM time that straddles a gap between GPU phases counts
/// as exposed. Intervals are measured from the step's earliest span start.
pub fn hidden_comm_fractions(store: &TraceStore, step: u64) -> Vec<(u32, f64)> {
    let spans = store.step_records(step).spans;
    let origin = spans.iter().map(|s| s.start).fold(f64::INFINITY, f64::min);
    (rank_lanes(spans, origin).into_iter())
        .map(|(rank, mut lanes)| {
            lanes.comm.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
            let total: f64 = lanes.comm.iter().map(|(s, e)| e - s).sum();
            if total <= 0.0 {
                return (rank, 1.0);
            }
            let union = interval_union(lanes.gpu);
            let hidden: f64 = lanes.comm.iter().map(|&(s, e)| overlap_with_union(s, e, &union)).sum();
            (rank, (hidden / total).clamp(0.0, 1.0))
        })
        .collect()
}

/// Mean over ranks of [`hidden_comm_fractions`] in `step`. A step with no
/// span has no communication to expose and reads 1.0, as a rank without
/// COMM time does.
pub fn mean_hidden_comm_fraction(store: &TraceStore, step: u64) -> f64 {
    let fractions = hidden_comm_fractions(store, step);
    if fractions.is_empty() {
        return 1.0;
    }
    fractions.iter().map(|&(_, f)| f).sum::<f64>() / fractions.len() as f64
}

/// Find each rank's exposed-communication intervals in `step` and attribute
/// them to the causal flows among `flows` (the step's ledger records).
///
/// A COMM-lane span interval is *exposed* where no GPU-lane span of the same
/// rank and step covers it. Each exposed interval is matched against the
/// flows touching the rank whose modeled `[send_at, resolve_at]` window —
/// read from the step's flow points — overlaps it, and classified with
/// [`classify`]. Results are sorted by `(rank, start)`.
pub fn exposed_comm(store: &TraceStore, step: u64, flows: &[FlowRecord]) -> Vec<ExposedComm> {
    let times = flow_times(store, step);
    let mut out = Vec::new();
    for (rank, mut lanes) in rank_lanes(store.step_records(step).spans, 0.0) {
        let cover = interval_union(lanes.gpu);
        lanes.comm.sort_by(|a, b| a.partial_cmp(b).unwrap());
        for (cs, ce) in lanes.comm {
            for (xs, xe) in subtract(cs, ce, &cover) {
                if xe - xs <= 0.0 {
                    continue;
                }
                let causal: Vec<&FlowRecord> = flows
                    .iter()
                    .filter(|f| f.from == rank as usize || f.to == rank as usize)
                    .filter(|f| {
                        times.get(&f.id).is_some_and(|t| {
                            t.send_at < xe && t.resolve_at.unwrap_or(t.send_at) > xs
                        })
                    })
                    .collect();
                out.push(ExposedComm {
                    rank: rank as usize,
                    start: xs,
                    end: xe,
                    cause: classify(causal.iter().copied()),
                    flows: causal.iter().map(|f| f.id).collect(),
                });
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::envelope::NO_FLOW;
    use crate::fabric::MsgKind;
    use crate::fault::{FaultEvent, FaultKind, FaultLog, FaultPlan, RecoveryEvent};
    use crate::flow::FlowLedger;
    use crate::machine::PIZ_DAINT;

    /// A step-1 flow `from → to` with `attempts` sends and `outcome`.
    fn flow(id: u64, from: usize, to: usize, attempts: u32, outcome: FlowOutcome) -> FlowRecord {
        let mut r = FlowRecord::new(id, 1, from, to, MsgKind::Let, 1024);
        r.attempts = attempts;
        r.outcome = outcome;
        r
    }

    /// Draw `f` into `t` as [`record_flows`] does: a `Start` point at `send_at`,
    /// a `Finish` point at `resolve_at` when it resolved.
    fn draw(t: &mut TraceStore, f: &FlowRecord, send_at: f64, resolve_at: Option<f64>) {
        t.flow_point(f.id, f.from as u32, f.epoch, Lane::Comm, "flow:Let", send_at, FlowPhase::Start);
        if let Some(at) = resolve_at {
            t.flow_point(f.id, f.to as u32, f.epoch, Lane::Comm, "flow:Let", at, FlowPhase::Finish);
        }
    }

    const DELIVERED: FlowOutcome = FlowOutcome::Delivered { attempt: 0 };

    #[test]
    fn classify_takes_the_most_severe_cause() {
        let clean = flow(1, 0, 1, 1, DELIVERED);
        let retx = flow(2, 0, 1, 3, DELIVERED);

        assert_eq!(classify([]), WaitCause::Unattributed);
        assert_eq!(classify([&clean]), WaitCause::LateSender);
        assert_eq!(classify([&clean, &retx]), WaitCause::Retransmission);
        assert_eq!(classify([&retx, &clean]), WaitCause::Retransmission);
    }

    #[test]
    fn chrome_export_names_flows_of_every_kind() {
        let mut t = TraceStore::new();
        for (i, kind) in MsgKind::ALL.into_iter().enumerate() {
            let (id, at) = (i as u64 + 1, 0.1 * (i + 1) as f64);
            t.flow_point(id, 0, 1, Lane::Comm, kind.flow_name(), at, FlowPhase::Start);
            t.flow_point(id, 1, 1, Lane::Comm, kind.flow_name(), at + 0.05, FlowPhase::Finish);
        }
        let doc = bonsai_obs::chrome::chrome_trace_json(&t);
        for (i, name) in ["flow:Boundary", "flow:Particles", "flow:Let", "flow:Control", "flow:View"]
            .into_iter()
            .enumerate()
        {
            let id = i + 1;
            let start = format!(
                "{{\"ph\":\"s\",\"id\":{id},\"bp\":\"e\",\"name\":\"{name}\",\"cat\":\"step1\",\
                 \"pid\":0,\"tid\":1,\"ts\":{}.000}}",
                id * 100_000
            );
            assert!(doc.contains(&start), "{start} missing from\n{doc}");
            assert_eq!(doc.matches(&format!("\"name\":\"{name}\"")).count(), 2, "{name}");
        }
    }

    #[test]
    fn flow_times_read_start_and_finish_points() {
        let mut t = TraceStore::new();
        draw(&mut t, &flow(1, 0, 1, 1, DELIVERED), 0.1, Some(0.3));
        draw(&mut t, &flow(2, 1, 0, 1, FlowOutcome::Dead), 0.2, None);
        t.flow_point(1, 0, 1, Lane::Comm, "flow:Let", 0.2, FlowPhase::Step);
        let times = flow_times(&t, 1);
        assert_eq!(times[&1], FlowTimes { send_at: 0.1, resolve_at: Some(0.3) });
        assert_eq!(times[&2], FlowTimes { send_at: 0.2, resolve_at: None });
        assert!(flow_times(&t, 2).is_empty());
    }

    #[test]
    fn link_ledger_aggregates_per_directed_link() {
        let flows = vec![
            flow(1, 0, 1, 1, DELIVERED),
            flow(2, 0, 1, 3, DELIVERED),
            flow(3, 1, 0, 1, FlowOutcome::Dead),
            flow(4, 0, 1, 2, FlowOutcome::Dead),
        ];
        let mut t = TraceStore::new();
        for f in &flows {
            let delivered = matches!(f.outcome, FlowOutcome::Delivered { .. });
            draw(&mut t, f, 0.1, delivered.then_some(0.1 + 0.05 * f.attempts as f64));
        }
        let links = link_ledger(&flows, &flow_times(&t, 1));
        assert_eq!(links.len(), 2);
        let l01 = &links[0];
        assert_eq!((l01.from, l01.to), (0, 1));
        assert_eq!(l01.flows, 3);
        assert_eq!(l01.bytes, 3 * 1024);
        assert_eq!(l01.attempts, 6);
        assert_eq!(l01.retransmits, 3);
        assert_eq!(l01.delivered, 2);
        assert_eq!(l01.dead, 1);
        assert!((l01.retransmit_ratio() - 0.5).abs() < 1e-12);
        assert_eq!(l01.label(), "0->1");
        // Latencies of the two delivered flows: 0.05 and 0.15; nearest-rank
        // p50 over two samples rounds up to the later one.
        assert!((l01.latency_p50 - 0.15).abs() < 1e-12);
        assert!((l01.latency_p99 - 0.15).abs() < 1e-12);
        assert!((l01.latency_max - 0.15).abs() < 1e-12);
        let l10 = &links[1];
        assert_eq!((l10.from, l10.to), (1, 0));
        assert_eq!((l10.delivered, l10.dead), (0, 1));
        assert_eq!(l10.latency_max, 0.0); // a dead flow has no delivery latency
    }

    #[test]
    fn latency_percentiles_are_monotone() {
        // 100 delivered flows with distinct latencies on one link: the
        // percentile ladder must be ordered and p99 must sit in the tail.
        let flows: Vec<FlowRecord> = (1..=100).map(|i| flow(i, 0, 1, 1, DELIVERED)).collect();
        let mut t = TraceStore::new();
        for f in &flows {
            draw(&mut t, f, 0.0, Some(f.id as f64 * 1e-3));
        }
        let links = link_ledger(&flows, &flow_times(&t, 1));
        assert_eq!(links.len(), 1);
        let l = &links[0];
        assert!(l.latency_p50 <= l.latency_p90);
        assert!(l.latency_p90 <= l.latency_p99);
        assert!(l.latency_p99 <= l.latency_max);
        assert!((l.latency_p99 - 0.099).abs() < 1e-12);
        assert!((l.latency_max - 0.100).abs() < 1e-12);
    }

    #[test]
    fn exposed_comm_subtracts_gpu_cover_and_attributes_flows() {
        let mut t = TraceStore::new();
        // Rank 0: GPU covers [0, 0.4); COMM runs [0.2, 1.0) → exposed [0.4, 1.0).
        t.span(0, 1, Lane::Gpu, "local", 0.0, 0.4);
        t.span(0, 1, Lane::Comm, "let-comm", 0.2, 1.0);
        // Rank 1: no GPU overlap at all → whole comm span exposed.
        t.span(1, 1, Lane::Comm, "let-comm", 0.0, 0.5);
        let flows = vec![flow(7, 1, 0, 3, DELIVERED)];
        draw(&mut t, &flows[0], 0.5, Some(0.9));

        let exposed = exposed_comm(&t, 1, &flows);
        assert_eq!(exposed.len(), 2);
        let r0 = &exposed[0];
        assert_eq!(r0.rank, 0);
        assert!((r0.start - 0.4).abs() < 1e-12 && (r0.end - 1.0).abs() < 1e-12);
        assert_eq!(r0.cause, WaitCause::Retransmission);
        assert_eq!(r0.flows, vec![7]);
        assert!((r0.seconds() - 0.6).abs() < 1e-12);
        // Rank 1's exposed window [0, 0.5) only grazes the flow's send at
        // 0.5 (not < 0.5), so nothing is attributed.
        let r1 = &exposed[1];
        assert_eq!(r1.rank, 1);
        assert_eq!(r1.cause, WaitCause::Unattributed);
        assert!(r1.flows.is_empty());
        // A flow the trace never drew is never causal.
        let undrawn = vec![flow(8, 1, 0, 3, FlowOutcome::Dead)];
        assert!(exposed_comm(&t, 1, &undrawn).iter().all(|x| x.flows.is_empty()));
    }

    #[test]
    fn interval_subtraction_handles_partial_and_full_cover() {
        assert_eq!(subtract(0.0, 1.0, &[]), vec![(0.0, 1.0)]);
        assert_eq!(subtract(0.0, 1.0, &[(0.0, 1.0)]), Vec::<(f64, f64)>::new());
        assert_eq!(
            subtract(0.0, 1.0, &[(0.2, 0.4), (0.6, 0.8)]),
            vec![(0.0, 0.2), (0.4, 0.6), (0.8, 1.0)]
        );
        assert_eq!(subtract(0.0, 1.0, &[(-1.0, 0.5)]), vec![(0.5, 1.0)]);
    }

    /// A wire holding `flows` and `log`, as the cluster's holds an epoch.
    fn wire(flows: FlowLedger, log: FaultLog) -> Wire {
        let mut w = Wire::new(1, FaultPlan::new(0));
        (w.flows, w.log) = (flows, log);
        w
    }

    /// `wire`'s epoch `step` drawn over `windows` (fallback 0.0), and what
    /// it counted.
    fn record(wire: &Wire, step: u64, windows: &[(f64, f64)]) -> (TraceStore, MetricsRegistry) {
        let (mut store, mut reg) = (TraceStore::new(), MetricsRegistry::new());
        let net = NetworkModel::new(PIZ_DAINT);
        record_flows(wire, &net, step, windows, 0.0, &mut store, &mut reg);
        (store, reg)
    }

    /// Flow `id`'s points, in record order.
    fn points(store: &TraceStore, id: u64) -> Vec<(FlowPhase, f64)> {
        store.flow_points().iter().filter(|p| p.id == id).map(|p| (p.phase, p.at)).collect()
    }

    fn flow_arg(i: &bonsai_obs::Instant) -> Option<u64> {
        i.args.iter().find_map(|(k, v)| match (k, v) {
            (&"flow", ArgValue::U64(id)) => Some(*id),
            _ => None,
        })
    }

    fn fault(epoch: u64, flow: &FlowRecord, fault: FaultKind, attempt: u32) -> FaultEvent {
        let (from, to, kind, flow) = (flow.from, flow.to, flow.kind, flow.id);
        FaultEvent { epoch, from, to, kind, fault, attempt, flow }
    }

    fn recovery(r: &FlowRecord, action: RecoveryAction, detail: &str) -> RecoveryEvent {
        RecoveryEvent {
            epoch: r.epoch,
            rank: r.to,
            peer: Some(r.from),
            kind: Some(r.kind),
            action,
            detail: detail.to_string(),
            flow: r.id,
        }
    }

    #[test]
    fn fault_log_lands_on_comm_track_with_flow_ids() {
        let mut ledger = FlowLedger::new();
        let id = ledger.seal(3, 0, 1, MsgKind::Let, 2048);
        ledger.retransmit(id);
        ledger.deliver(id, 1);
        let r = ledger.get(id).unwrap().clone();
        let log = FaultLog {
            injected: vec![fault(3, &r, FaultKind::Corrupt, 0)],
            recoveries: vec![recovery(&r, RecoveryAction::DiscardCorrupt, "checksum mismatch")],
        };
        let (store, _) = record(&wire(ledger, log), 3, &[(1.5, 0.0), (1.5, 0.0)]);
        assert_eq!(store.instants().len(), 2);
        let inj = &store.instants()[0];
        assert_eq!((inj.rank, inj.lane, inj.name.as_str()), (1, Lane::Comm, "inject:corrupt"));
        // Attempt 0 leaves right at the sender's window start.
        assert_eq!(inj.at, 1.5);
        let rec = &store.instants()[1];
        assert_eq!(rec.name, "recover:discard-corrupt");
        assert_eq!([flow_arg(inj), flow_arg(rec)], [Some(id), Some(id)]);
        // The injection sits on the faulted attempt's point, the discard on
        // the delivery: the flow's own arrow.
        let pts = points(&store, id);
        assert_eq!(pts.iter().map(|p| p.0).collect::<Vec<_>>(), [FlowPhase::Start, FlowPhase::Step, FlowPhase::Finish]);
        assert_eq!((inj.at, rec.at), (pts[0].1, pts[2].1));
    }

    #[test]
    fn two_faults_on_one_coordinate_find_their_own_flows() {
        // Two flows on one coordinate, each dropped once, then the first
        // retransmitted and dropped again: each event lands on the flow it
        // names, in that flow's slot of the sender's window.
        let mut ledger = FlowLedger::new();
        let a = ledger.seal(2, 1, 0, MsgKind::Let, 64);
        let b = ledger.seal(2, 1, 0, MsgKind::Let, 4096);
        ledger.retransmit(a);
        let (ra, rb) = (ledger.get(a).unwrap().clone(), ledger.get(b).unwrap().clone());
        let drop = |r, attempt| fault(2, r, FaultKind::Drop, attempt);
        let log = FaultLog { injected: vec![drop(&ra, 0), drop(&rb, 0), drop(&ra, 1)], recoveries: vec![] };
        let (store, _) = record(&wire(ledger, log), 2, &[(0.0, 0.0), (0.0, 1e-3)]);
        let inst = store.instants();
        assert_eq!([flow_arg(&inst[0]), flow_arg(&inst[1]), flow_arg(&inst[2])], [Some(a), Some(b), Some(a)]);
        let rto = FlowClock::new(&NetworkModel::new(PIZ_DAINT)).rto(64);
        assert_eq!([inst[0].at, inst[1].at, inst[2].at], [0.0, 0.5e-3, rto], "slots 0 and 1 of 2, then a's retry");
        assert_eq!(points(&store, b)[0], (FlowPhase::Start, inst[1].at));
        assert_eq!(points(&store, a)[1], (FlowPhase::Step, inst[2].at));
    }

    #[test]
    fn retransmit_chain_is_causally_ordered() {
        let mut ledger = FlowLedger::new();
        let id = ledger.seal(4, 2, 0, MsgKind::Control, 64);
        ledger.retransmit(id);
        ledger.deliver(id, 1);
        let r = ledger.get(id).unwrap().clone();
        let log = FaultLog {
            injected: vec![fault(4, &r, FaultKind::Drop, 0)],
            recoveries: vec![recovery(&r, RecoveryAction::Retransmit, "attempt 1")],
        };
        let (store, reg) = record(&wire(ledger, log), 4, &[(0.25, 0.0); 3]);
        let (inj, rec) = (&store.instants()[0], &store.instants()[1]);
        // The retransmit send sits exactly one RTO after the dropped send,
        // on the arrow's step point, before the delivery.
        let rto = FlowClock::new(&NetworkModel::new(PIZ_DAINT)).rto(64);
        assert!((rec.at - inj.at - rto).abs() < 1e-15);
        let pts = points(&store, id);
        assert_eq!((pts[0].1, pts[1].1), (inj.at, rec.at));
        assert!(pts[2].1 > rec.at);
        // The retransmitted flow is counted as exposed and per link.
        assert_eq!(reg.counter("bonsai_flow_retransmits_total", &[("link", "2->0")]), 1);
        assert_eq!(reg.counter("bonsai_flow_exposed_total", &[("kind", "Control")]), 1);
        assert_eq!(reg.histogram("bonsai_flow_delivery_seconds", &[]).unwrap().count(), 1);
    }

    #[test]
    fn events_without_a_flow_anchor_at_the_rank_window() {
        let restore = |rank| RecoveryEvent {
            epoch: 9,
            rank,
            peer: None,
            kind: None,
            action: RecoveryAction::RestoreCheckpoint,
            detail: "rank 3 crashed".to_string(),
            flow: NO_FLOW,
        };
        let log = FaultLog { injected: vec![], recoveries: vec![restore(2), restore(7)] };
        let windows = [(0.0, 1.0), (1.0, 1.0), (2.0, 1.0)];
        let (store, reg) = record(&wire(FlowLedger::new(), log), 9, &windows);
        // At the rank's window start; past the windows, at the base.
        assert_eq!([store.instants()[0].at, store.instants()[1].at], [2.0, 0.0]);
        assert!(store.instants().iter().all(|i| flow_arg(i).is_none()));
        assert!(reg.histogram("bonsai_flow_delivery_seconds", &[]).is_none(), "nothing delivered");
    }

    #[test]
    fn observe_link_prices_and_counts() {
        let net = NetworkModel::new(PIZ_DAINT);
        let mut reg = MetricsRegistry::new();
        net.observe_link(&mut reg, "let", 2, 10_000);
        net.observe_link(&mut reg, "let", 2, 5_000);
        net.observe_link(&mut reg, "boundary", 0, 100);
        net.observe_link(&mut reg, "boundary", 0, 0); // no-op
        assert_eq!(
            reg.counter("bonsai_net_bytes_total", &[("kind", "let"), ("rank", "2")]),
            15_000
        );
        assert_eq!(
            reg.counter("bonsai_net_kind_bytes_total", &[("kind", "boundary")]),
            100
        );
        let h = reg
            .histogram("bonsai_net_link_seconds", &[("kind", "let")])
            .unwrap();
        assert_eq!(h.count(), 2);
        assert!(h.sum() > 0.0);
    }
}

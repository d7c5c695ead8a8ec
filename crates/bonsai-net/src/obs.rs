//! Bridges from the network layer into the unified observability model
//! (`bonsai-obs`): fault-log entries become trace events on the COMM track
//! anchored at their flow's modeled wire times, measured link traffic
//! lands in the metrics registry priced by the interconnect cost model, and
//! the flow analysis joins ledger records with the trace.
//!
//! **Wait attribution.** The ledger knows *what happened to every sealed
//! envelope* — delivered on attempt k, or dead with an epoch a rollback
//! abandoned — and the trace knows *where the time went*, including each flow's
//! modeled send and resolve instants (its `Start` / `Finish` flow points).
//! [`classify`] reduces a causal flow set to a [`WaitCause`] by severity
//! (retransmission > late-sender); [`exposed_comm`]
//! finds COMM time no GPU span hides and attributes it to the flows whose
//! modeled lifetime overlaps it; [`link_ledger`] reduces flows to per-link
//! reliability and delivery-latency statistics.

use crate::cost::NetworkModel;
use crate::fabric::MsgKind;
use crate::fault::{FaultEvent, RecoveryAction, RecoveryEvent};
use crate::flow::{FlowOutcome, FlowRecord};
use bonsai_obs::{
    interval_union, ArgValue, FlowPhase, Lane, MetricsRegistry, TraceStore, WaitCause,
};
use std::collections::BTreeMap;

/// Models where a flow's frames sit on the trace clock.
///
/// The fabric itself is instantaneous (in-process channels); what the trace
/// shows is the *priced* wire time: attempt `k` of a flow leaves its sender
/// `k` retransmit-timeouts after the sender's communication window opens,
/// and arrives one modeled point-to-point latency later. The retransmit
/// timeout is two point-to-point times — a request/ack round trip — so
/// every retransmission chain is strictly ordered on the timeline.
pub struct FlowClock<'a> {
    net: &'a NetworkModel,
}

impl<'a> FlowClock<'a> {
    /// A clock pricing frames with `net`.
    pub fn new(net: &'a NetworkModel) -> Self {
        Self { net }
    }

    /// Modeled retransmit timeout for a payload of `bytes`.
    pub fn rto(&self, bytes: usize) -> f64 {
        2.0 * self.net.p2p_time(bytes as u64)
    }

    /// When attempt `k` of `r` leaves the sender, given the sender's
    /// communication-window start `base_from`.
    pub fn send_at(&self, r: &FlowRecord, attempt: u32, base_from: f64) -> f64 {
        base_from + attempt as f64 * self.rto(r.bytes)
    }

    /// When the delivering frame of `r` lands, if it was delivered.
    pub fn deliver_at(&self, r: &FlowRecord, base_from: f64) -> Option<f64> {
        match r.outcome {
            FlowOutcome::Delivered { attempt } => {
                Some(self.send_at(r, attempt, base_from) + self.net.p2p_time(r.bytes as u64))
            }
            _ => None,
        }
    }

}

/// One epoch's ledger records grouped by coordinate `(epoch, from, to,
/// kind)`: the indices of each coordinate's records, in ledger order, found
/// by binary search.
struct Coordinates<'a> {
    flows: &'a [FlowRecord],
    order: Vec<usize>,
}

impl<'a> Coordinates<'a> {
    fn key(r: &FlowRecord) -> (u64, usize, usize, u8) {
        (r.epoch, r.from, r.to, crate::envelope::kind_code(r.kind))
    }

    fn new(flows: &'a [FlowRecord]) -> Self {
        let mut order: Vec<usize> = (0..flows.len()).collect();
        // Stable: a coordinate's records stay in ledger order.
        order.sort_by_key(|&i| Self::key(&flows[i]));
        Self { flows, order }
    }

    /// Indices into `flows` of the records on one coordinate, in ledger order.
    fn of(&self, epoch: u64, from: usize, to: usize, kind: MsgKind) -> &[usize] {
        let key = (epoch, from, to, crate::envelope::kind_code(kind));
        let key_at = |&i: &usize| Self::key(&self.flows[i]);
        let start = self.order.partition_point(|i| key_at(i) < key);
        let len = self.order[start..].partition_point(|i| key_at(i) == key);
        &self.order[start..start + len]
    }
}

/// Record every fault-log event, `injected` then `recoveries`, as instants
/// on the COMM lanes of the involved ranks, anchored at the modeled wire
/// time of the flow each event belongs to (injection: the faulted attempt's
/// send instant; recovery: the flow's resolution instant) and carrying the
/// flow id as an arg, so Perfetto log order is causal. `at_for_rank(rank)`
/// gives each rank's communication-window start on the global trace clock;
/// events without a flow (crash handling, restores, view changes) anchor there.
///
/// `flows` must hold, in ledger order, every flow of the events' epochs: the
/// per-step caller passes `FaultLog::for_epoch` and
/// [`FlowLedger::for_epoch`](crate::flow::FlowLedger::for_epoch) of one
/// epoch, which writes what the whole log and ledger would. The records are
/// indexed by coordinate once, so the cost is the events plus the records,
/// not their product.
pub fn record_fault_log(
    injected: &[FaultEvent],
    recoveries: &[RecoveryEvent],
    flows: &[FlowRecord],
    net: &NetworkModel,
    store: &mut TraceStore,
    step: u64,
    at_for_rank: &dyn Fn(usize) -> f64,
) {
    if injected.is_empty() && recoveries.is_empty() {
        return;
    }
    let clock = FlowClock::new(net);
    let coordinates = Coordinates::new(flows);
    // Injections and ledger `injected` entries were appended in the same
    // driver order, so the k-th fault event on a coordinate matches the
    // k-th ledger injection there: walk each flow's injection list with a
    // per-flow cursor.
    let mut cursor = vec![0usize; flows.len()];
    for e in injected {
        let hit = coordinates
            .of(e.epoch, e.from, e.to, e.kind)
            .iter()
            .find(|&&i| flows[i].injected().get(cursor[i]) == Some(&(e.attempt, e.fault)));
        let (at, flow_id) = match hit {
            Some(&i) => {
                cursor[i] += 1;
                let r = &flows[i];
                (clock.send_at(r, e.attempt, at_for_rank(e.from)), r.id)
            }
            None => (at_for_rank(e.to), 0),
        };
        let ev = store.instant(
            e.to as u32,
            step,
            Lane::Comm,
            format!("inject:{}", e.fault),
            at,
        );
        ev.args.push(("from", ArgValue::U64(e.from as u64)));
        ev.args.push(("to", ArgValue::U64(e.to as u64)));
        ev.args.push(("kind", ArgValue::Str(e.kind.name().into())));
        ev.args.push(("attempt", ArgValue::U64(e.attempt as u64)));
        if flow_id != 0 {
            ev.args.push(("flow", ArgValue::U64(flow_id)));
        }
    }
    // A flow-bound recovery belongs to the latest record on its coordinate.
    // The k-th Retransmit recovery there is the send of attempt k; other
    // recoveries anchor at the flow's delivery.
    let mut retries = vec![0u32; flows.len()];
    for e in recoveries {
        let flow = e.peer.zip(e.kind).and_then(|(peer, kind)| {
            coordinates.of(e.epoch, peer, e.rank, kind).last().copied()
        });
        let at = match flow {
            Some(i) => {
                let r = &flows[i];
                match e.action {
                    RecoveryAction::Retransmit => {
                        retries[i] += 1;
                        clock.send_at(r, retries[i], at_for_rank(r.from))
                    }
                    _ => clock
                        .deliver_at(r, at_for_rank(r.from))
                        .unwrap_or_else(|| at_for_rank(e.rank)),
                }
            }
            None => at_for_rank(e.rank),
        };
        let ev = store.instant(
            e.rank as u32,
            step,
            Lane::Comm,
            format!("recover:{}", e.action),
            at,
        );
        if let Some(p) = e.peer {
            ev.args.push(("peer", ArgValue::U64(p as u64)));
        }
        if let Some(k) = e.kind {
            ev.args.push(("kind", ArgValue::Str(k.name().into())));
        }
        if let Some(i) = flow {
            ev.args.push(("flow", ArgValue::U64(flows[i].id)));
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

/// Find each rank's exposed-communication intervals in `step` and attribute
/// them to the causal flows among `flows` (the step's ledger records).
///
/// A COMM-lane span interval is *exposed* where no GPU-lane span of the same
/// rank and step covers it. Each exposed interval is matched against the
/// flows touching the rank whose modeled `[send_at, resolve_at]` window —
/// read from the step's flow points — overlaps it, and classified with
/// [`classify`]. Results are sorted by `(rank, start)`.
pub fn exposed_comm(store: &TraceStore, step: u64, flows: &[FlowRecord]) -> Vec<ExposedComm> {
    let spans = store.step_records(step).spans;
    let times = flow_times(store, step);
    let mut ranks: Vec<u32> = spans
        .iter()
        .filter(|s| s.lane == Lane::Comm)
        .map(|s| s.rank)
        .collect();
    ranks.sort_unstable();
    ranks.dedup();

    let mut out = Vec::new();
    for rank in ranks {
        let lane = |lane: Lane| -> Vec<(f64, f64)> {
            spans
                .iter()
                .filter(|s| s.rank == rank && s.lane == lane)
                .map(|s| (s.start, s.end))
                .collect()
        };
        let cover = interval_union(lane(Lane::Gpu));
        let mut comm = lane(Lane::Comm);
        comm.sort_by(|a, b| a.partial_cmp(b).unwrap());
        for (cs, ce) in comm {
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
    use crate::flow::FlowLedger;
    use crate::fault::{FaultKind, FaultLog};
    use crate::machine::PIZ_DAINT;

    /// A step-1 flow `from → to` with `attempts` sends and `outcome`.
    fn flow(id: u64, from: usize, to: usize, attempts: u32, outcome: FlowOutcome) -> FlowRecord {
        let mut r = FlowRecord::new(id, 1, from, to, MsgKind::Let, 1024);
        r.attempts = attempts;
        r.outcome = outcome;
        r
    }

    /// Draw `f` into `t` as the cluster does: a `Start` point at `send_at`,
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
            draw(&mut t, f, 0.1, delivered.then(|| 0.1 + 0.05 * f.attempts as f64));
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

    fn sample_log() -> FaultLog {
        FaultLog {
            injected: vec![FaultEvent {
                epoch: 3,
                from: 0,
                to: 1,
                kind: MsgKind::Let,
                fault: FaultKind::Corrupt,
                attempt: 0,
            }],
            recoveries: vec![RecoveryEvent {
                epoch: 3,
                rank: 1,
                peer: Some(0),
                kind: Some(MsgKind::Let),
                action: RecoveryAction::DiscardCorrupt,
                detail: "checksum mismatch".to_string(),
            }],
        }
    }

    fn sample_ledger() -> FlowLedger {
        let mut l = FlowLedger::new();
        let id = l.seal(3, 0, 1, MsgKind::Let, 2048);
        l.inject(id, 0, FaultKind::Corrupt);
        l.retransmit_latest(3, 0, 1, MsgKind::Let, 2048);
        l.deliver(id, 1);
        l
    }

    #[test]
    fn fault_log_lands_on_comm_track_with_flow_ids() {
        let net = NetworkModel::new(PIZ_DAINT);
        let mut store = TraceStore::new();
        let log = sample_log();
        record_fault_log(
            &log.injected,
            &log.recoveries,
            sample_ledger().records(),
            &net,
            &mut store,
            3,
            &|_r| 1.5,
        );
        assert_eq!(store.instants().len(), 2);
        let inj = &store.instants()[0];
        assert_eq!(inj.rank, 1);
        assert_eq!(inj.lane, Lane::Comm);
        assert_eq!(inj.name, "inject:corrupt");
        // Attempt 0 leaves right at the sender's window start.
        assert_eq!(inj.at, 1.5);
        assert!(
            inj.args
                .iter()
                .any(|(k, v)| *k == "flow" && *v == ArgValue::U64(1)),
            "injection carries its flow id"
        );
        let rec = &store.instants()[1];
        assert_eq!(rec.name, "recover:discard-corrupt");
        assert!(
            rec.at > inj.at,
            "the discard anchors at the delivery, after the faulted send: {} vs {}",
            rec.at,
            inj.at
        );
        assert!(rec
            .args
            .iter()
            .any(|(k, v)| *k == "flow" && *v == ArgValue::U64(1)));
    }

    #[test]
    fn two_faults_on_one_coordinate_find_their_own_flows() {
        // Two flows on one coordinate, each dropped once, then the first
        // retransmitted and dropped again: each event finds the flow whose
        // next unmatched injection it is, in ledger order.
        let net = NetworkModel::new(PIZ_DAINT);
        let mut ledger = FlowLedger::new();
        let a = ledger.seal(2, 1, 0, MsgKind::Let, 64);
        let b = ledger.seal(2, 1, 0, MsgKind::Let, 4096);
        let fault = |attempt| FaultEvent {
            epoch: 2,
            from: 1,
            to: 0,
            kind: MsgKind::Let,
            fault: FaultKind::Drop,
            attempt,
        };
        ledger.inject(a, 0, FaultKind::Drop);
        ledger.inject(b, 0, FaultKind::Drop);
        ledger.inject(a, 1, FaultKind::Drop);
        let injected = [fault(0), fault(0), fault(1)];
        let mut store = TraceStore::new();
        record_fault_log(&injected, &[], ledger.records(), &net, &mut store, 2, &|_r| 0.0);
        let flow_of = |i: usize| {
            store.instants()[i].args.iter().find_map(|(k, v)| match (k, v) {
                (&"flow", ArgValue::U64(id)) => Some(*id),
                _ => None,
            })
        };
        assert_eq!([flow_of(0), flow_of(1), flow_of(2)], [Some(a), Some(b), Some(a)]);
        let clock = FlowClock::new(&net);
        assert_eq!(store.instants()[2].at, clock.rto(64));
    }

    #[test]
    fn retransmit_chain_is_causally_ordered() {
        let net = NetworkModel::new(PIZ_DAINT);
        let mut ledger = FlowLedger::new();
        let id = ledger.seal(4, 2, 0, MsgKind::Control, 64);
        ledger.inject(id, 0, FaultKind::Drop);
        ledger.retransmit_latest(4, 2, 0, MsgKind::Control, 64);
        ledger.deliver(id, 1);
        let log = FaultLog {
            injected: vec![FaultEvent {
                epoch: 4,
                from: 2,
                to: 0,
                kind: MsgKind::Control,
                fault: FaultKind::Drop,
                attempt: 0,
            }],
            recoveries: vec![RecoveryEvent {
                epoch: 4,
                rank: 0,
                peer: Some(2),
                kind: Some(MsgKind::Control),
                action: RecoveryAction::Retransmit,
                detail: "attempt 1".to_string(),
            }],
        };
        let mut store = TraceStore::new();
        let records = ledger.records();
        record_fault_log(&log.injected, &log.recoveries, records, &net, &mut store, 4, &|_r| 0.25);
        let inj = &store.instants()[0];
        let rec = &store.instants()[1];
        // The retransmit send sits exactly one RTO after the dropped send.
        let clock = FlowClock::new(&net);
        assert!((rec.at - inj.at - clock.rto(64)).abs() < 1e-15);
    }

    #[test]
    fn events_without_a_flow_anchor_at_the_rank_window() {
        let net = NetworkModel::new(PIZ_DAINT);
        let log = FaultLog {
            injected: vec![],
            recoveries: vec![RecoveryEvent {
                epoch: 9,
                rank: 2,
                peer: None,
                kind: None,
                action: RecoveryAction::RestoreCheckpoint,
                detail: "rank 3 crashed".to_string(),
            }],
        };
        let mut store = TraceStore::new();
        record_fault_log(&log.injected, &log.recoveries, &[], &net, &mut store, 9, &|r| r as f64);
        assert_eq!(store.instants()[0].at, 2.0);
        assert!(!store.instants()[0].args.iter().any(|(k, _)| *k == "flow"));
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

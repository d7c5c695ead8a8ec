//! Bridges from the network layer into the unified observability model
//! (`bonsai-obs`), and the one reader and writer of the trace's COMM lanes.
//!
//! **Placement.** Each flow of a gravity epoch gets one anchor on the
//! modelled clock, and its arrow points and every fault and recovery
//! instant that names it are placed from that anchor, so an instant sits
//! exactly on the arrow point it is about. [`record_flows`] records the
//! epoch's instants and flow metrics as the epoch completes; the arrows
//! themselves are not stored: [`draw_flows`] draws them from the ledger's
//! records and the epoch's [`ExchangeWindows`] when they are read, through
//! [`FlowArrows`]. Measured link traffic lands in the metrics registry
//! priced by the interconnect cost model ([`NetworkModel::observe_link`]).
//!
//! **Exposure.** [`hidden_comm_fractions`] and [`exposed_comm`] read a
//! step's COMM and GPU spans through one per-rank view of the step's
//! records: the first says how much of each rank's COMM time the GPU work
//! hides (§III-B2's overlap claim), the second finds the rest.
//!
//! **Wait attribution.** The ledger knows *what happened to every sealed
//! envelope* — delivered on attempt k, or dead with an epoch a rollback
//! abandoned — and the trace knows *where the time went*; each flow's
//! modeled send and resolve instants ([`flow_times`], its arrow's `Start`
//! and `Finish`) join the two. [`classify`] reduces a causal flow set to a
//! [`WaitCause`] by severity (retransmission > late-sender);
//! [`exposed_comm`] attributes unhidden COMM time to the flows whose
//! modeled lifetime overlaps it; [`link_ledger`] reduces flows to per-link
//! reliability and delivery-latency statistics.

use crate::cost::NetworkModel;
use crate::fault::{RecoveryAction, Wire};
use crate::flow::{FlowLedger, FlowOutcome, FlowRecord, Flows};
use bonsai_obs::{
    interval_union, overlap_with_union, ArgValue, FlowPhase, FlowPoint, Lane, MetricsRegistry,
    Span, TraceStore, WaitCause,
};
use bonsai_util::sorted::EpochRuns;
use std::collections::{BTreeMap, VecDeque};

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

/// Each flow's anchor on the trace clock: its sender's window start plus
/// its seal-order slot in that window (`length · i / n` for the sender's
/// `i`-th of `n` flows), so the arrows land where the transfers would be in
/// flight rather than stacked at the window's opening; `base` for a sender
/// without a window.
fn anchors(flows: Flows, windows: &[(f64, f64)], base: f64) -> Vec<f64> {
    let mut sent = vec![0usize; windows.len()];
    for r in flows.iter().filter(|r| r.from < windows.len()) {
        sent[r.from] += 1;
    }
    let mut slot = vec![0usize; windows.len()];
    (flows.iter())
        .map(|r| match windows.get(r.from) {
            Some(&(start, length)) => {
                let i = slot[r.from];
                slot[r.from] += 1;
                start + length * i as f64 / sent[r.from] as f64
            }
            None => base,
        })
        .collect()
}

/// Draw one epoch's flow arrows from its ledger records `flows` (one
/// epoch's, in seal order), the clock `base` and `windows[r]`, rank `r`'s
/// LET-exchange window `(start, length)` on the trace clock.
///
/// A pure function of its arguments: the same records and windows draw
/// the same points, bit for bit, however long after the epoch they are
/// drawn. Each flow is anchored once (see [`record_flows`], which places
/// the epoch's fault instants from the same anchors), and its points are,
/// in this order: `Start` on the sender at attempt 0, a `Step` per
/// retransmitted attempt, `Finish` on the receiver at delivery. So an
/// epoch draws [`drawn_point_count`] points.
pub fn draw_flows(
    flows: Flows,
    base: f64,
    windows: &[(f64, f64)],
    net: &NetworkModel,
) -> Vec<FlowPoint> {
    let clock = FlowClock::new(net);
    let mut points = Vec::with_capacity(drawn_point_count(flows));
    for (r, anchor) in flows.iter().zip(anchors(flows, windows, base)) {
        let mut point = |rank: usize, at: f64, phase: FlowPhase| {
            points.push(FlowPoint {
                id: r.id,
                rank: rank as u32,
                step: r.epoch,
                lane: Lane::Comm,
                name: r.kind.flow_name(),
                at,
                phase,
            })
        };
        point(r.from, anchor, FlowPhase::Start);
        for a in 1..r.attempts {
            point(r.from, clock.send_at(&r, a, anchor), FlowPhase::Step);
        }
        if let Some(at) = clock.deliver_at(&r, anchor) {
            point(r.to, at, FlowPhase::Finish);
        }
    }
    points
}

/// How many points [`draw_flows`] draws for `flows`, without drawing them:
/// one per attempt, and one more per delivery.
pub fn drawn_point_count(flows: Flows) -> usize {
    let delivered = |r: &FlowRecord| matches!(r.outcome, FlowOutcome::Delivered { .. }) as usize;
    flows.iter().map(|r| r.attempts as usize + delivered(&r)).sum()
}

/// Record gravity epoch `step` of `wire` — the fault log's instants on the
/// COMM lanes of `store`, and its flows' counts into `registry`. The
/// epoch's arrows are not recorded: [`draw_flows`] draws them from the
/// same records and windows when they are read ([`FlowArrows`]).
///
/// `windows[r]` is rank `r`'s LET-exchange window on the trace clock,
/// `(start, length)`; a rank without one uses `base`. Every instant that
/// names a flow of the epoch is placed from that flow's anchor, as its
/// arrow's points are: an injection at attempt `k` and the `k`-th
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
    let anchors = anchors(flows, windows, base);

    // Looked up once per epoch, and only when a flow delivered: an epoch
    // that delivers nothing does not create the histogram.
    if flows.iter().any(|r| matches!(r.outcome, FlowOutcome::Delivered { .. })) {
        let delivery = registry.histogram_entry("bonsai_flow_delivery_seconds", &[]);
        for (r, &anchor) in flows.iter().zip(&anchors) {
            if let Some(at) = clock.deliver_at(&r, anchor) {
                delivery.observe(at - anchor);
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
        Some((i, flows.get(i)?))
    };
    for e in injected {
        let flow = index(e.flow);
        let at = flow.map_or(window_start(e.to), |(i, r)| clock.send_at(&r, e.attempt, anchors[i]));
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
            Some((i, r)) if e.action == RecoveryAction::Retransmit => {
                retries[i] += 1;
                clock.send_at(&r, retries[i], anchors[i])
            }
            Some((i, r)) => clock.deliver_at(&r, anchors[i]).unwrap_or_else(|| window_start(e.rank)),
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
pub fn classify(flows: impl IntoIterator<Item = FlowRecord>) -> WaitCause {
    let cause = |f: FlowRecord| if f.attempts > 1 { WaitCause::Retransmission } else { WaitCause::LateSender };
    // WaitCause derives Ord in severity order (Retransmission first).
    flows.into_iter().map(cause).min().unwrap_or(WaitCause::Unattributed)
}

/// A flow's modeled instants: where its arrow starts and finishes.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FlowTimes {
    /// When the first attempt left the sender (its `Start` point).
    pub send_at: f64,
    /// When the flow was delivered (its `Finish` point); `None` while
    /// pending or dead.
    pub resolve_at: Option<f64>,
}

/// The instants of every flow of one epoch's records `flows`, by flow id,
/// from the same anchors as [`draw_flows`]'s points: `send_at` is the
/// flow's `Start`, `resolve_at` its `Finish`, bit for bit.
pub fn flow_times(
    flows: Flows,
    base: f64,
    windows: &[(f64, f64)],
    net: &NetworkModel,
) -> BTreeMap<u64, FlowTimes> {
    let clock = FlowClock::new(net);
    (flows.iter().zip(anchors(flows, windows, base)))
        .map(|(r, anchor)| (r.id, FlowTimes { send_at: anchor, resolve_at: clock.deliver_at(&r, anchor) }))
        .collect()
}

/// Each drawn epoch's clock base and per-rank LET-exchange windows
/// `(start, length)`: what drawing the epoch's arrows needs beside its
/// ledger records, 16 B a rank. A run keeps it beside its trace and its
/// flow ledger and evicts it with them, so it holds exactly the drawn
/// epochs of their window.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ExchangeWindows {
    /// `(epoch, base)` of every epoch held, ascending.
    bases: VecDeque<(u64, f64)>,
    /// Every held epoch's windows, rank by rank.
    windows: EpochRuns<(f64, f64)>,
}

impl ExchangeWindows {
    /// No epoch held.
    pub fn new() -> Self {
        Self::default()
    }

    /// Hold `epoch`'s clock `base` and `windows`, rank by rank.
    ///
    /// # Panics
    /// If `epoch` is not newer than every epoch held.
    pub fn record(&mut self, epoch: u64, base: f64, windows: &[(f64, f64)]) {
        if let Some(&(latest, _)) = self.bases.back() {
            assert!(latest < epoch, "windows of epoch {epoch} after epoch {latest}: epochs are recorded once, in order");
        }
        self.bases.push_back((epoch, base));
        for &w in windows {
            self.windows.push(epoch, w);
        }
    }

    /// Drop every epoch older than `min_epoch`.
    pub fn retain_epochs(&mut self, min_epoch: u64) {
        let gone = self.bases.partition_point(|&(e, _)| e < min_epoch);
        self.bases.drain(..gone);
        self.windows.evict_before(min_epoch);
    }

    /// `epoch`'s clock base and windows, if it is held.
    pub fn get(&self, epoch: u64) -> Option<(f64, &[(f64, f64)])> {
        let i = self.bases.binary_search_by_key(&epoch, |&(e, _)| e).ok()?;
        Some((self.bases[i].1, self.windows.epoch(epoch)))
    }

    /// The epochs held, ascending.
    pub fn epochs(&self) -> impl Iterator<Item = u64> + '_ {
        self.bases.iter().map(|&(e, _)| e)
    }
}

/// One drawn epoch's ledger records, clock base and per-rank LET-exchange
/// windows: everything [`draw_flows`] reads.
pub type DrawnEpoch<'a> = (Flows<'a>, f64, &'a [(f64, f64)]);

/// The flow arrows of the epochs a run holds, drawn when they are read
/// from the flow ledger's records and the [`ExchangeWindows`]: no store
/// keeps a second copy of a flow. An epoch the windows do not hold (one
/// that never completed, or was evicted) has no arrows.
#[derive(Clone, Copy)]
pub struct FlowArrows<'a> {
    ledger: &'a FlowLedger,
    windows: &'a ExchangeWindows,
    net: &'a NetworkModel,
}

impl<'a> FlowArrows<'a> {
    /// The arrows `ledger` and `windows` draw, priced by `net`.
    pub fn new(ledger: &'a FlowLedger, windows: &'a ExchangeWindows, net: &'a NetworkModel) -> Self {
        Self { ledger, windows, net }
    }

    /// `epoch`'s ledger records, clock base and windows, what drawing its
    /// arrows reads, if it was drawn and is held.
    pub fn epoch(&self, epoch: u64) -> Option<DrawnEpoch<'a>> {
        let (base, windows) = self.windows.get(epoch)?;
        Some((self.ledger.for_epoch(epoch), base, windows))
    }

    /// `epoch`'s arrow points ([`draw_flows`]).
    pub fn points(&self, epoch: u64) -> Vec<FlowPoint> {
        self.epoch(epoch).map(|(flows, base, windows)| draw_flows(flows, base, windows, self.net)).unwrap_or_default()
    }

    /// How many points [`points`](Self::points) draws for `epoch`, counted
    /// from the ledger ([`drawn_point_count`]).
    pub fn count(&self, epoch: u64) -> usize {
        self.epoch(epoch).map_or(0, |(flows, ..)| drawn_point_count(flows))
    }

    /// `epoch`'s flow instants ([`flow_times`]).
    pub fn times(&self, epoch: u64) -> BTreeMap<u64, FlowTimes> {
        self.epoch(epoch).map(|(flows, base, windows)| flow_times(flows, base, windows, self.net)).unwrap_or_default()
    }

    /// Every held epoch's points, oldest epoch first, drawn one epoch at a
    /// time as the iterator reaches it.
    pub fn held_points(&self) -> impl Iterator<Item = FlowPoint> + '_ {
        self.windows.epochs().flat_map(|e| self.points(e))
    }

    /// A copy of `live` (a store that holds no arrows) with every held
    /// epoch's arrows drawn in: what exports read.
    pub fn drawn_trace(&self, live: &TraceStore) -> TraceStore {
        TraceStore::from_parts(live.spans().to_vec(), live.instants().to_vec(), self.held_points().collect())
    }
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
pub fn link_ledger(flows: impl IntoIterator<Item = FlowRecord>, times: &BTreeMap<u64, FlowTimes>) -> Vec<LinkStats> {
    let mut by_link: BTreeMap<(usize, usize), Vec<FlowRecord>> = BTreeMap::new();
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
            let mut lat: Vec<f64> = fs.iter().filter_map(latency).collect();
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
/// them to the causal flows among `flows` (the step's ledger records, read
/// once per interval).
///
/// A COMM-lane span interval is *exposed* where no GPU-lane span of the same
/// rank and step covers it. Each exposed interval is matched against the
/// flows touching the rank whose modeled `[send_at, resolve_at]` window in
/// `times` (the step's [`flow_times`]) overlaps it, and classified with
/// [`classify`]; a flow without times is never causal. Results are sorted
/// by `(rank, start)`.
pub fn exposed_comm(
    store: &TraceStore,
    step: u64,
    flows: impl Iterator<Item = FlowRecord> + Clone,
    times: &BTreeMap<u64, FlowTimes>,
) -> Vec<ExposedComm> {
    let mut out = Vec::new();
    for (rank, mut lanes) in rank_lanes(store.step_records(step).spans, 0.0) {
        let cover = interval_union(lanes.gpu);
        lanes.comm.sort_by(|a, b| a.partial_cmp(b).unwrap());
        for (cs, ce) in lanes.comm {
            for (xs, xe) in subtract(cs, ce, &cover) {
                if xe - xs <= 0.0 {
                    continue;
                }
                let causal: Vec<FlowRecord> = flows
                    .clone()
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
    use crate::machine::PIZ_DAINT;

    /// A step-1 flow `from → to` with `attempts` sends and `outcome`.
    fn flow(id: u64, from: usize, to: usize, attempts: u32, outcome: FlowOutcome) -> FlowRecord {
        FlowRecord { id, epoch: 1, from, to, kind: MsgKind::Let, bytes: 1024, attempts, outcome }
    }

    /// A ledger that holds `flows`, step-1 flows with ids 1, 2, … in order,
    /// none of them pending.
    fn ledger_of(flows: &[FlowRecord]) -> FlowLedger {
        let mut ledger = FlowLedger::new();
        for r in flows {
            assert_eq!(ledger.seal(r.epoch, r.from, r.to, r.kind, r.bytes), r.id);
            for _ in 1..r.attempts {
                ledger.retransmit(r.id);
            }
            if let FlowOutcome::Delivered { attempt } = r.outcome {
                ledger.deliver(r.id, attempt);
            }
        }
        ledger.close_epoch_dead(1);
        assert!(ledger.records().iter().eq(flows.iter().copied()));
        ledger
    }

    /// Give `f` the instants `send_at` and `resolve_at` in `times`.
    fn time(times: &mut BTreeMap<u64, FlowTimes>, f: &FlowRecord, send_at: f64, resolve_at: Option<f64>) {
        times.insert(f.id, FlowTimes { send_at, resolve_at });
    }

    const DELIVERED: FlowOutcome = FlowOutcome::Delivered { attempt: 0 };

    #[test]
    fn classify_takes_the_most_severe_cause() {
        let clean = flow(1, 0, 1, 1, DELIVERED);
        let retx = flow(2, 0, 1, 3, DELIVERED);

        assert_eq!(classify([]), WaitCause::Unattributed);
        assert_eq!(classify([clean]), WaitCause::LateSender);
        assert_eq!(classify([clean, retx]), WaitCause::Retransmission);
        assert_eq!(classify([retx, clean]), WaitCause::Retransmission);
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
        // A flow delivered on its second attempt, one dead after two, and a
        // clean one on another sender: each flow's times are, bit for bit,
        // its drawn `Start` and `Finish`; `Step` points are not times.
        let ledger = ledger_of(&[
            flow(1, 0, 1, 2, FlowOutcome::Delivered { attempt: 1 }),
            flow(2, 0, 1, 2, FlowOutcome::Dead),
            flow(3, 1, 0, 1, DELIVERED),
        ]);
        let flows = ledger.for_epoch(1);
        let (net, windows) = (NetworkModel::new(PIZ_DAINT), [(0.1, 1e-3), (0.2, 2e-3)]);
        let times = flow_times(flows, 0.0, &windows, &net);
        let points = draw_flows(flows, 0.0, &windows, &net);
        assert_eq!(points.len(), drawn_point_count(flows));
        assert_eq!(times.len(), flows.len());
        let at = |id, phase| points.iter().find(|p| p.id == id && p.phase == phase).map(|p| p.at.to_bits());
        for (&id, t) in &times {
            assert_eq!(Some(t.send_at.to_bits()), at(id, FlowPhase::Start), "flow {id}");
            assert_eq!(t.resolve_at.map(f64::to_bits), at(id, FlowPhase::Finish), "flow {id}");
        }
        assert_eq!(times[&2].resolve_at, None, "a dead flow never resolves");
        assert_eq!(points.iter().filter(|p| p.phase == FlowPhase::Step).count(), 2);
        assert_eq!(times[&3].send_at, 0.2, "attempt 0 leaves at the sender's window start");
    }

    #[test]
    fn arrows_are_drawn_for_held_epochs_only() {
        let mut ledger = FlowLedger::new();
        for epoch in [3, 4, 4, 6] {
            let id = ledger.seal(epoch, 0, 1, MsgKind::Let, 512);
            ledger.deliver(id, 0);
        }
        let net = NetworkModel::new(PIZ_DAINT);
        let mut windows = ExchangeWindows::new();
        // Epoch 5 never completed: it sealed nothing here and drew nothing.
        for epoch in [3, 4, 6] {
            windows.record(epoch, epoch as f64, &[(epoch as f64 + 0.5, 0.25), (epoch as f64, 0.0)]);
        }
        let arrows = FlowArrows::new(&ledger, &windows, &net);
        for epoch in [3, 4, 6] {
            let (flows, (base, w)) = (ledger.for_epoch(epoch), windows.get(epoch).unwrap());
            assert_eq!(base, epoch as f64);
            let drawn = arrows.points(epoch);
            assert_eq!(drawn.len(), arrows.count(epoch));
            assert_eq!(format!("{drawn:?}"), format!("{:?}", draw_flows(flows, base, w, &net)));
            assert_eq!(arrows.times(epoch), flow_times(flows, base, w, &net));
        }
        assert_eq!((arrows.count(4), arrows.count(5)), (4, 0));
        assert!(arrows.points(5).is_empty() && arrows.times(5).is_empty());
        assert_eq!(windows.epochs().collect::<Vec<_>>(), [3, 4, 6]);
        let steps = |arrows: &FlowArrows| arrows.held_points().map(|p| p.step).collect::<Vec<_>>();
        assert_eq!(steps(&arrows), [3, 3, 4, 4, 4, 4, 6, 6]);
        let mut live = TraceStore::new();
        live.span(0, 6, Lane::Comm, "let-comm", 6.5, 6.75);
        let drawn = arrows.drawn_trace(&live);
        assert_eq!((drawn.spans().len(), drawn.flow_points().len()), (1, 8));
        windows.retain_epochs(4);
        let arrows = FlowArrows::new(&ledger, &windows, &net);
        assert!(arrows.points(3).is_empty() && arrows.count(3) == 0, "an evicted epoch has no arrows");
        assert_eq!(steps(&arrows), [4, 4, 4, 4, 6, 6]);
    }

    #[test]
    #[should_panic(expected = "epochs are recorded once, in order")]
    fn an_epoch_is_windowed_once() {
        let mut windows = ExchangeWindows::new();
        windows.record(2, 0.0, &[(0.0, 1.0)]);
        windows.record(2, 1.0, &[(1.0, 1.0)]);
    }

    #[test]
    fn link_ledger_aggregates_per_directed_link() {
        let flows = vec![
            flow(1, 0, 1, 1, DELIVERED),
            flow(2, 0, 1, 3, DELIVERED),
            flow(3, 1, 0, 1, FlowOutcome::Dead),
            flow(4, 0, 1, 2, FlowOutcome::Dead),
        ];
        let mut times = BTreeMap::new();
        for f in &flows {
            let delivered = matches!(f.outcome, FlowOutcome::Delivered { .. });
            time(&mut times, f, 0.1, delivered.then_some(0.1 + 0.05 * f.attempts as f64));
        }
        let links = link_ledger(flows.iter().copied(), &times);
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
        let mut times = BTreeMap::new();
        for f in &flows {
            time(&mut times, f, 0.0, Some(f.id as f64 * 1e-3));
        }
        let links = link_ledger(flows.iter().copied(), &times);
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
        let flows = [flow(7, 1, 0, 3, DELIVERED)];
        let mut times = BTreeMap::new();
        time(&mut times, &flows[0], 0.5, Some(0.9));

        let exposed = exposed_comm(&t, 1, flows.iter().copied(), &times);
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
        // A flow without times is never causal.
        let untimed = [flow(8, 1, 0, 3, FlowOutcome::Dead)];
        assert!(exposed_comm(&t, 1, untimed.iter().copied(), &times).iter().all(|x| x.flows.is_empty()));
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

    /// `wire`'s epoch `step` recorded over `windows` (fallback 0.0), what
    /// it counted, and its arrows drawn. The store records no arrow.
    fn record(wire: &Wire, step: u64, windows: &[(f64, f64)]) -> (TraceStore, MetricsRegistry, Vec<FlowPoint>) {
        let (mut store, mut reg) = (TraceStore::new(), MetricsRegistry::new());
        let net = NetworkModel::new(PIZ_DAINT);
        record_flows(wire, &net, step, windows, 0.0, &mut store, &mut reg);
        assert!(store.flow_points().is_empty(), "an arrow was recorded");
        let drawn = draw_flows(wire.flows.for_epoch(step), 0.0, windows, &net);
        (store, reg, drawn)
    }

    /// Flow `id`'s points, in draw order.
    fn points(drawn: &[FlowPoint], id: u64) -> Vec<(FlowPhase, f64)> {
        drawn.iter().filter(|p| p.id == id).map(|p| (p.phase, p.at)).collect()
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
        let r = ledger.get(id).unwrap();
        let log = FaultLog {
            injected: vec![fault(3, &r, FaultKind::Corrupt, 0)],
            recoveries: vec![recovery(&r, RecoveryAction::DiscardCorrupt, "checksum mismatch")],
        };
        let (store, _, drawn) = record(&wire(ledger, log), 3, &[(1.5, 0.0), (1.5, 0.0)]);
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
        let pts = points(&drawn, id);
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
        let (ra, rb) = (ledger.get(a).unwrap(), ledger.get(b).unwrap());
        let drop = |r, attempt| fault(2, r, FaultKind::Drop, attempt);
        let log = FaultLog { injected: vec![drop(&ra, 0), drop(&rb, 0), drop(&ra, 1)], recoveries: vec![] };
        let (store, _, drawn) = record(&wire(ledger, log), 2, &[(0.0, 0.0), (0.0, 1e-3)]);
        let inst = store.instants();
        assert_eq!([flow_arg(&inst[0]), flow_arg(&inst[1]), flow_arg(&inst[2])], [Some(a), Some(b), Some(a)]);
        let rto = FlowClock::new(&NetworkModel::new(PIZ_DAINT)).rto(64);
        assert_eq!([inst[0].at, inst[1].at, inst[2].at], [0.0, 0.5e-3, rto], "slots 0 and 1 of 2, then a's retry");
        assert_eq!(points(&drawn, b)[0], (FlowPhase::Start, inst[1].at));
        assert_eq!(points(&drawn, a)[1], (FlowPhase::Step, inst[2].at));
    }

    #[test]
    fn retransmit_chain_is_causally_ordered() {
        let mut ledger = FlowLedger::new();
        let id = ledger.seal(4, 2, 0, MsgKind::Control, 64);
        ledger.retransmit(id);
        ledger.deliver(id, 1);
        let r = ledger.get(id).unwrap();
        let log = FaultLog {
            injected: vec![fault(4, &r, FaultKind::Drop, 0)],
            recoveries: vec![recovery(&r, RecoveryAction::Retransmit, "attempt 1")],
        };
        let (store, reg, drawn) = record(&wire(ledger, log), 4, &[(0.25, 0.0); 3]);
        let (inj, rec) = (&store.instants()[0], &store.instants()[1]);
        // The retransmit send sits exactly one RTO after the dropped send,
        // on the arrow's step point, before the delivery.
        let rto = FlowClock::new(&NetworkModel::new(PIZ_DAINT)).rto(64);
        assert!((rec.at - inj.at - rto).abs() < 1e-15);
        let pts = points(&drawn, id);
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
        let (store, reg, drawn) = record(&wire(FlowLedger::new(), log), 9, &windows);
        assert!(drawn.is_empty());
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

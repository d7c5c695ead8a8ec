//! Bridges from the network layer into the unified observability model
//! (`bonsai-obs`): fault-log entries become trace events on the COMM track
//! anchored at their flow's modeled wire times, and measured link traffic
//! lands in the metrics registry priced by the interconnect cost model.

use crate::cost::NetworkModel;
use crate::fault::{FaultEvent, RecoveryAction, RecoveryEvent};
use crate::flow::{FlowOutcome, FlowRecord};
use bonsai_obs::{Lane, MetricsRegistry, TraceStore};

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

    /// When `r` was resolved — delivery time, or for fallback flows the
    /// moment the receiver gave up waiting (after every attempt's timeout).
    pub fn resolve_at(&self, r: &FlowRecord, base_from: f64, base_to: f64) -> Option<f64> {
        match r.outcome {
            FlowOutcome::Delivered { .. } => self.deliver_at(r, base_from),
            FlowOutcome::Fallback => Some(
                base_from.max(base_to)
                    + r.attempts as f64 * self.rto(r.bytes)
                    + self.net.p2p_time(r.bytes as u64),
            ),
            _ => None,
        }
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
/// epoch, which writes what the whole log and ledger would.
pub fn record_fault_log(
    injected: &[FaultEvent],
    recoveries: &[RecoveryEvent],
    flows: &[FlowRecord],
    net: &NetworkModel,
    store: &mut TraceStore,
    step: u64,
    at_for_rank: &dyn Fn(usize) -> f64,
) {
    let clock = FlowClock::new(net);
    // Injections and ledger `injected` entries were appended in the same
    // driver order, so the k-th fault event on a coordinate matches the
    // k-th ledger injection there: walk each flow's injection list with a
    // per-flow cursor.
    let mut cursor = vec![0usize; flows.len()];
    for e in injected {
        let hit = flows.iter().zip(&mut cursor).find(|(r, next)| {
            r.epoch == e.epoch
                && r.from == e.from
                && r.to == e.to
                && r.kind == e.kind
                && r.injected.get(**next) == Some(&(e.attempt, e.fault))
        });
        let (at, flow_id) = match hit {
            Some((r, next)) => {
                *next += 1;
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
        ev.args.push(("from", bonsai_obs::ArgValue::U64(e.from as u64)));
        ev.args.push(("to", bonsai_obs::ArgValue::U64(e.to as u64)));
        ev.args
            .push(("kind", bonsai_obs::ArgValue::Str(format!("{:?}", e.kind))));
        ev.args
            .push(("attempt", bonsai_obs::ArgValue::U64(e.attempt as u64)));
        if flow_id != 0 {
            ev.args.push(("flow", bonsai_obs::ArgValue::U64(flow_id)));
        }
    }
    // The k-th Retransmit recovery on a coordinate is the send of attempt
    // k; other flow-bound recoveries anchor at the flow's resolution.
    let mut retries: std::collections::BTreeMap<(u64, usize, usize, u8), u32> =
        std::collections::BTreeMap::new();
    for e in recoveries {
        let flow = e.peer.and_then(|peer| {
            e.kind.and_then(|kind| {
                flows
                    .iter()
                    .rev()
                    .find(|r| r.epoch == e.epoch && r.from == peer && r.to == e.rank && r.kind == kind)
            })
        });
        let at = match flow {
            Some(r) => match e.action {
                RecoveryAction::Retransmit => {
                    let key = (e.epoch, r.from, r.to, crate::envelope::kind_code(r.kind));
                    let k = retries.entry(key).or_insert(0);
                    *k += 1;
                    clock.send_at(r, *k, at_for_rank(r.from))
                }
                _ => clock
                    .resolve_at(r, at_for_rank(r.from), at_for_rank(r.to))
                    .unwrap_or_else(|| at_for_rank(e.rank)),
            },
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
            ev.args.push(("peer", bonsai_obs::ArgValue::U64(p as u64)));
        }
        if let Some(k) = e.kind {
            ev.args
                .push(("kind", bonsai_obs::ArgValue::Str(format!("{k:?}"))));
        }
        if let Some(r) = flow {
            ev.args.push(("flow", bonsai_obs::ArgValue::U64(r.id)));
        }
        ev.args
            .push(("detail", bonsai_obs::ArgValue::Str(e.detail.clone())));
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fabric::MsgKind;
    use crate::flow::FlowLedger;
    use crate::fault::{FaultKind, FaultLog};
    use crate::machine::PIZ_DAINT;

    fn sample_log() -> FaultLog {
        FaultLog {
            injected: vec![FaultEvent {
                epoch: 3,
                from: 0,
                to: 1,
                kind: MsgKind::Let,
                fault: FaultKind::Drop,
                attempt: 0,
            }],
            recoveries: vec![RecoveryEvent {
                epoch: 3,
                rank: 1,
                peer: Some(0),
                kind: Some(MsgKind::Let),
                action: RecoveryAction::BoundaryFallback,
                detail: "dedicated LET lost".to_string(),
            }],
        }
    }

    fn sample_ledger() -> FlowLedger {
        let mut l = FlowLedger::new();
        let id = l.seal(3, 0, 1, MsgKind::Let, 2048);
        l.inject(id, 0, FaultKind::Drop);
        l.retransmit_latest(3, 0, 1, MsgKind::Let, 2048);
        l.fallback_pending(3, 0, 1, MsgKind::Let);
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
        assert_eq!(inj.name, "inject:drop");
        // Attempt 0 leaves right at the sender's window start.
        assert_eq!(inj.at, 1.5);
        assert!(
            inj.args
                .iter()
                .any(|(k, v)| *k == "flow" && *v == bonsai_obs::ArgValue::U64(1)),
            "injection carries its flow id"
        );
        let rec = &store.instants()[1];
        assert_eq!(rec.name, "recover:boundary-fallback");
        assert!(
            rec.at > inj.at,
            "fallback resolves after the faulted send: {} vs {}",
            rec.at,
            inj.at
        );
        assert!(rec
            .args
            .iter()
            .any(|(k, v)| *k == "flow" && *v == bonsai_obs::ArgValue::U64(1)));
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

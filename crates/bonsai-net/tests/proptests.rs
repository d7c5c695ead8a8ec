//! Property-based tests for the envelope wire format — flow frames
//! round-trip every field for arbitrary inputs, and `open` never panics and
//! never accepts a corrupted frame, for any byte soup or bit flip — and for
//! the per-epoch views of the flow ledger and fault log: whatever the
//! driver did, in epoch order, the view of an epoch is that epoch's records
//! and nothing is lost by reading the view instead of the history — and for
//! the validated collective: under any fault plan it hands back only what
//! the fault-free exchange would, accounts for every flow, and logs the same
//! text twice — and for the fault log's trace instants, which equal what a
//! scan of every record per event draws.

use bonsai_net::collective::{exchange, received_from, Expect, Inline, Outbox, Round};
use bonsai_net::envelope::{open, seal_flow, EnvelopeError};
use bonsai_net::envelope::kind_code;
use bonsai_net::obs::{record_fault_log, FlowClock};
use bonsai_net::{
    FaultEvent, FaultKind, FaultLog, FaultPlan, FlowLedger, FlowRecord, MsgKind, NetworkModel,
    RecoveryAction, RecoveryEvent, Wire, PIZ_DAINT,
};
use bonsai_obs::{ArgValue, Lane, TraceStore};
use bytes::Bytes;
use proptest::prelude::*;

/// One collective's shape, drawn from the case's random bits.
struct Shape {
    members: Vec<usize>,
    outbox: Vec<Outbox>,
    /// `None`: every receiver waits for all its peers.
    expected: Option<Vec<Vec<usize>>>,
    retries: u32,
}

/// Everything a run of [`Shape`] under one plan leaves behind.
#[derive(Debug, PartialEq)]
struct Outcome {
    received: Vec<Vec<(usize, Vec<u8>)>>,
    missing: Vec<(usize, usize)>,
    retransmit_bytes: usize,
    log: String,
    conserved: bool,
}

fn run_collective(p: usize, shape: &Shape, plan: FaultPlan) -> Outcome {
    const EPOCH: u64 = 3;
    let mut wire = Wire::new(p, plan);
    let round = Round {
        kind: MsgKind::Particles,
        epoch: EPOCH,
        max_retries: shape.retries,
        stale_frame: "frame",
        during: "Particles phase",
        stranger: "unexpected sender",
        duplicate: "extra copy discarded",
    };
    let expect = shape.expected.as_deref().map_or(Expect::AllPeers, Expect::From);
    let got = exchange(&mut wire, &Inline, &shape.members, &round, &shape.outbox, expect, |b| {
        Ok(b.to_vec())
    });
    // What never arrived (and what nobody was waiting for) dies with the epoch.
    wire.flows.close_epoch_dead(EPOCH);
    Outcome {
        received: got.received,
        missing: got.missing,
        retransmit_bytes: got.retransmit_bytes,
        log: wire.log.render(),
        conserved: wire.flows.conservation().holds(),
    }
}

/// The fault log's instants as a scan of every record per event draws them:
/// the reference [`record_fault_log`] must reproduce, instant for instant.
fn scanned_fault_log(
    injected: &[FaultEvent],
    recoveries: &[RecoveryEvent],
    flows: &[FlowRecord],
    net: &NetworkModel,
    step: u64,
    at_for_rank: &dyn Fn(usize) -> f64,
) -> TraceStore {
    let mut store = TraceStore::new();
    let clock = FlowClock::new(net);
    let mut cursor = vec![0usize; flows.len()];
    for e in injected {
        let hit = flows.iter().zip(&mut cursor).find(|(r, next)| {
            r.epoch == e.epoch
                && r.from == e.from
                && r.to == e.to
                && r.kind == e.kind
                && r.injected().get(**next) == Some(&(e.attempt, e.fault))
        });
        let (at, flow_id) = match hit {
            Some((r, next)) => {
                *next += 1;
                (clock.send_at(r, e.attempt, at_for_rank(e.from)), r.id)
            }
            None => (at_for_rank(e.to), 0),
        };
        let ev = store.instant(e.to as u32, step, Lane::Comm, format!("inject:{}", e.fault), at);
        ev.args.push(("from", ArgValue::U64(e.from as u64)));
        ev.args.push(("to", ArgValue::U64(e.to as u64)));
        ev.args.push(("kind", ArgValue::Str(format!("{:?}", e.kind))));
        ev.args.push(("attempt", ArgValue::U64(e.attempt as u64)));
        if flow_id != 0 {
            ev.args.push(("flow", ArgValue::U64(flow_id)));
        }
    }
    let mut retries = std::collections::BTreeMap::new();
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
                    let k = retries.entry((e.epoch, r.from, r.to, kind_code(r.kind))).or_insert(0);
                    *k += 1;
                    clock.send_at(r, *k, at_for_rank(r.from))
                }
                _ => clock
                    .resolve_at(r, at_for_rank(r.from), at_for_rank(r.to))
                    .unwrap_or_else(|| at_for_rank(e.rank)),
            },
            None => at_for_rank(e.rank),
        };
        let ev = store.instant(e.rank as u32, step, Lane::Comm, format!("recover:{}", e.action), at);
        if let Some(p) = e.peer {
            ev.args.push(("peer", ArgValue::U64(p as u64)));
        }
        if let Some(k) = e.kind {
            ev.args.push(("kind", ArgValue::Str(format!("{k:?}"))));
        }
        if let Some(r) = flow {
            ev.args.push(("flow", ArgValue::U64(r.id)));
        }
        ev.args.push(("detail", ArgValue::Str(e.detail.clone())));
    }
    store
}

/// Every `(to, from)` pair an outcome accounts for, received or missing.
fn pairs(o: &Outcome) -> Vec<(usize, usize)> {
    let received = o.received.iter().enumerate();
    let mut all: Vec<(usize, usize)> = received
        .flat_map(|(to, list)| list.iter().map(move |(from, _)| (to, *from)))
        .chain(o.missing.iter().copied())
        .collect();
    all.sort_unstable();
    all
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn collective_returns_only_fault_free_values_under_any_plan(
        seed in any::<u64>(),
        p in 2usize..6,
        rates in [0u32..12, 0u32..12, 0u32..12, 0u32..12, 0u32..12, 0u32..12],
        bits in proptest::collection::vec(any::<u64>(), 16..17),
        retries in 0u32..4,
    ) {
        let bit = |word: usize, i: usize| bits[word] >> (i % 64) & 1 == 1;
        let mut members: Vec<usize> = (0..p).filter(|&r| bit(0, r)).collect();
        if members.len() < 2 {
            members = (0..p).collect();
        }
        let outbox = (0..p)
            .map(|from| match bits[1] >> (2 * from) & 3 {
                0 => Outbox::Silent,
                1 => Outbox::Broadcast(Bytes::from(vec![from as u8; 1 + from * 7])),
                _ => Outbox::To(
                    members.iter().filter(|&&to| to != from && bit(2 + from, to))
                        .map(|&to| (to, Bytes::from(vec![from as u8, to as u8, 42])))
                        .collect(),
                ),
            })
            .collect();
        let expected = bit(0, 63).then(|| {
            (0..p)
                .map(|to| members.iter().copied().filter(|&f| f != to && bit(8 + to, f)).collect())
                .collect()
        });
        let shape = Shape { members, outbox, expected, retries };
        let plan = || {
            FaultKind::MESSAGE_KINDS.into_iter().zip(rates).fold(FaultPlan::new(seed), |plan, (kind, pct)| {
                plan.with_rate(kind, pct as f64 / 100.0)
            })
        };

        let clean = run_collective(p, &shape, FaultPlan::new(seed));
        let faulty = run_collective(p, &shape, plan());
        prop_assert!(!clean.log.contains("inject"), "the reference run saw faults");
        for (to, list) in faulty.received.iter().enumerate() {
            for (from, value) in list {
                prop_assert_eq!(received_from(&clean.received[to], *from), Some(value));
            }
        }
        prop_assert_eq!(pairs(&faulty), pairs(&clean), "a pair was invented or forgotten");
        prop_assert!(faulty.conserved && clean.conserved, "flows leaked");
        prop_assert_eq!(&faulty, &run_collective(p, &shape, plan()), "same plan, different run");
    }

    #[test]
    fn flow_frames_round_trip_every_field(
        kind_ix in 0usize..5,
        from in 0usize..(u32::MAX as usize + 1),
        epoch in any::<u64>(),
        flow in any::<u64>(),
        seq in any::<u32>(),
        payload in proptest::collection::vec(any::<u8>(), 0..512),
    ) {
        let frame = seal_flow(MsgKind::ALL[kind_ix], from, epoch, flow, seq, &payload);
        let env = open(&frame).unwrap();
        prop_assert_eq!(env.kind, MsgKind::ALL[kind_ix]);
        prop_assert_eq!(env.from, from);
        prop_assert_eq!(env.epoch, epoch);
        prop_assert_eq!(env.flow, flow);
        prop_assert_eq!(env.seq, seq);
        prop_assert_eq!(env.payload, &payload[..]);
    }

    #[test]
    fn open_never_panics_on_garbage(
        bytes in proptest::collection::vec(any::<u8>(), 0..600),
    ) {
        // Decode or reject — never panic — whatever a hostile or broken
        // peer delivers.
        let _ = open(&bytes);
    }

    #[test]
    fn any_single_bit_flip_is_rejected(
        flow in any::<u64>(),
        seq in any::<u32>(),
        payload in proptest::collection::vec(any::<u8>(), 1..256),
        flip in any::<u64>(),
    ) {
        let frame = seal_flow(MsgKind::Let, 3, 9, flow, seq, &payload);
        let mut bad = frame.to_vec();
        let i = (flip as usize) % bad.len();
        bad[i] ^= 1 << (flip % 8) as u8;
        prop_assert!(open(&bad).is_err(), "bit flip at byte {} went undetected", i);
    }

    #[test]
    fn every_truncation_is_reported_as_truncated_or_mismatch(
        flow in any::<u64>(),
        payload in proptest::collection::vec(any::<u8>(), 0..128),
        cut_bits in any::<u64>(),
    ) {
        let frame = seal_flow(MsgKind::Boundary, 1, 2, flow, 0, &payload);
        let cut = (cut_bits as usize) % frame.len();
        match open(&frame[..cut]) {
            Err(EnvelopeError::Truncated { need, have }) => {
                prop_assert_eq!(have, cut);
                prop_assert!(need > cut);
            }
            Err(e) => prop_assert!(false, "cut {}: unexpected error {}", cut, e),
            Ok(_) => prop_assert!(false, "cut {} opened successfully", cut),
        }
    }

    #[test]
    fn epoch_views_equal_the_filtered_history(
        ops in proptest::collection::vec(
            (0u8..8, 0u8..5, 0usize..3, 0usize..3, 0usize..5, any::<u64>()),
            1..120,
        ),
    ) {
        // Drive the ledger and log the way the cluster does: any mix of
        // seal / retransmit / inject / deliver / fallback / close, the
        // epoch only ever moving forward (sometimes skipping a number).
        let mut flows = FlowLedger::new();
        let mut log = FaultLog::default();
        let mut epoch = 1u64;
        for (op, gap, from, to, kind_ix, pick) in ops {
            if gap == 0 {
                epoch += 1 + pick % 2;
            }
            let kind = MsgKind::ALL[kind_ix];
            let recovery = |action| RecoveryEvent {
                epoch,
                rank: to,
                peer: Some(from),
                kind: Some(kind),
                action,
                detail: format!("pick {pick}"),
            };
            match op {
                0..=2 => {
                    flows.seal(epoch, from, to, kind, 64 + (pick % 4096) as usize);
                }
                3 => {
                    flows.retransmit_latest(epoch, from, to, kind, 64);
                    log.record_recovery(recovery(RecoveryAction::Retransmit));
                }
                4 => {
                    // A fault on one of this epoch's flows, logged at the
                    // flow's coordinate as `Wire::send_framed` does.
                    let open_now = flows.for_epoch(epoch);
                    if !open_now.is_empty() {
                        let r = open_now[pick as usize % open_now.len()].clone();
                        let fault = FaultKind::MESSAGE_KINDS[(pick >> 8) as usize % 6];
                        let attempt = r.attempts - 1;
                        flows.inject(r.id, attempt, fault);
                        log.record_fault(FaultEvent {
                            epoch,
                            from: r.from,
                            to: r.to,
                            kind: r.kind,
                            fault,
                            attempt,
                        });
                    }
                }
                5 => flows.deliver(1 + pick % (flows.len() as u64 + 1), (pick >> 8) as u32 % 3),
                6 => {
                    flows.fallback_pending(epoch, from, to, kind);
                    log.record_recovery(recovery(RecoveryAction::BoundaryFallback));
                }
                _ => flows.close_epoch_dead(epoch - pick % 2),
            }
        }

        let net = NetworkModel::new(PIZ_DAINT);
        for e in 0..=epoch + 1 {
            let want: Vec<_> = flows.records().iter().filter(|r| r.epoch == e).cloned().collect();
            let view = flows.for_epoch(e);
            prop_assert_eq!(view, &want[..], "flow view of epoch {}", e);
            let (injected, recoveries) = log.for_epoch(e);
            let want_injected: Vec<_> = log.injected.iter().filter(|f| f.epoch == e).cloned().collect();
            let want_recoveries: Vec<_> =
                log.recoveries.iter().filter(|r| r.epoch == e).cloned().collect();
            prop_assert_eq!(injected, &want_injected[..], "injected view of epoch {}", e);
            prop_assert_eq!(recoveries, &want_recoveries[..], "recovery view of epoch {}", e);

            // The trace written from the view is the one written from the
            // whole ledger: same instants, anchors, flow ids, order.
            let write = |records: &[bonsai_net::FlowRecord]| {
                let mut store = TraceStore::new();
                let at = |rank: usize| rank as f64;
                record_fault_log(injected, recoveries, records, &net, &mut store, e, &at);
                format!("{:?}", store.instants())
            };
            prop_assert_eq!(write(view), write(flows.records()));
        }
    }

    #[test]
    fn fault_instants_equal_the_scanning_reference(
        ops in proptest::collection::vec(
            (0u8..7, 0u8..6, 0usize..2, 0usize..2, 0usize..2, any::<u64>()),
            0..80,
        ),
    ) {
        // Few coordinates (two epochs, two senders, two receivers, two
        // kinds), so faults, retransmissions and reseals pile up on the
        // same one. Every case starts with two faults on one coordinate:
        // one on each of two flows sealed there.
        let mut flows = FlowLedger::new();
        let mut log = FaultLog::default();
        let fault_on = |flows: &mut FlowLedger, log: &mut FaultLog, r: FlowRecord, fault| {
            let attempt = r.attempts - 1;
            flows.inject(r.id, attempt, fault);
            log.record_fault(FaultEvent { epoch: r.epoch, from: r.from, to: r.to, kind: r.kind, fault, attempt });
        };
        let first = flows.seal(1, 0, 1, MsgKind::Let, 512);
        let second = flows.seal(1, 0, 1, MsgKind::Let, 256);
        let r = flows.records()[(first - 1) as usize].clone();
        fault_on(&mut flows, &mut log, r, FaultKind::Drop);
        let r = flows.records()[(second - 1) as usize].clone();
        fault_on(&mut flows, &mut log, r, FaultKind::Corrupt);
        let mut epoch = 1u64;
        for (op, gap, from, to, kind_ix, pick) in ops {
            if gap == 0 && epoch == 1 {
                epoch = 2;
            }
            let kind = [MsgKind::Let, MsgKind::Control][kind_ix];
            let recovery = |action| RecoveryEvent {
                epoch,
                rank: to,
                peer: Some(from),
                kind: Some(kind),
                action,
                detail: format!("pick {pick}"),
            };
            match op {
                0 | 1 => {
                    flows.seal(epoch, from, to, kind, 64 + (pick % 4096) as usize);
                }
                2 => {
                    flows.retransmit_latest(epoch, from, to, kind, 64);
                    log.record_recovery(recovery(RecoveryAction::Retransmit));
                }
                3 => {
                    let open_now = flows.for_epoch(epoch);
                    if !open_now.is_empty() {
                        let r = open_now[pick as usize % open_now.len()].clone();
                        let fault = FaultKind::MESSAGE_KINDS[(pick >> 8) as usize % 6];
                        fault_on(&mut flows, &mut log, r, fault);
                    }
                }
                // A fault the ledger never saw: it anchors at the receiver.
                4 => log.record_fault(FaultEvent { epoch, from, to, kind, fault: FaultKind::Delay, attempt: 0 }),
                5 => flows.deliver(1 + pick % (flows.len() as u64 + 1), (pick >> 8) as u32 % 3),
                _ => {
                    flows.fallback_pending(epoch, from, to, kind);
                    log.record_recovery(recovery(RecoveryAction::BoundaryFallback));
                }
            }
        }

        let net = NetworkModel::new(PIZ_DAINT);
        let at = |rank: usize| 0.5 + rank as f64;
        for e in 1..=2 {
            let (injected, recoveries) = log.for_epoch(e);
            let view = flows.for_epoch(e);
            let mut store = TraceStore::new();
            record_fault_log(injected, recoveries, view, &net, &mut store, e, &at);
            let want = scanned_fault_log(injected, recoveries, view, &net, e, &at);
            prop_assert_eq!(
                format!("{:?}", store.instants()),
                format!("{:?}", want.instants()),
                "epoch {}", e
            );
        }
        // The opening pair both found their flow: the first fault the
        // first flow, the second whichever flow's next injection it is.
        let (injected, recoveries) = log.for_epoch(1);
        let mut store = TraceStore::new();
        record_fault_log(injected, recoveries, flows.for_epoch(1), &net, &mut store, 1, &at);
        let flow_arg = |i: usize| {
            store.instants()[i].args.iter().find(|(k, _)| *k == "flow").map(|(_, v)| v.clone())
        };
        prop_assert_eq!(flow_arg(0), Some(ArgValue::U64(first)));
        prop_assert!(flow_arg(1).is_some());
    }
}

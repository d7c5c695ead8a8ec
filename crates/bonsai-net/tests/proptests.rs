//! Property-based tests for the envelope wire format — flow frames
//! round-trip every field for arbitrary inputs, and `open` never panics and
//! never accepts a corrupted frame, for any byte soup or bit flip — and for
//! the per-epoch views of the flow ledger and fault log: whatever the
//! driver did, in epoch order, the view of an epoch is that epoch's records
//! and nothing is lost by reading the view instead of the history — and for
//! the validated collective: under any fault plan it hands back only what
//! the fault-free exchange would, accounts for every flow, and logs the same
//! text twice — and for the compact ledger, which answers every read as a
//! ledger of whole records would.

use bonsai_net::collective::{exchange, received_from, Inline, Outbox, Round, MAX_RETRIES};
use bonsai_net::envelope::{open, seal_flow, EnvelopeError, NO_FLOW};
use bonsai_net::flow::{FlowConservation, FlowOutcome, FlowRecord};
use bonsai_util::sorted::EpochRuns;
use bonsai_net::{
    FaultEvent, FaultKind, FaultLog, FaultPlan, FlowLedger, Injection, MsgKind, RecoveryAction,
    RecoveryEvent, Wire,
};
use bytes::Bytes;
use proptest::prelude::*;

/// One collective's shape, drawn from the case's random bits.
struct Shape {
    members: Vec<usize>,
    outbox: Vec<Outbox>,
}

/// The epoch every collective of these properties runs in.
const EPOCH: u64 = 3;

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
    let mut wire = Wire::new(p, plan);
    let round = Round {
        kind: MsgKind::Particles,
        epoch: EPOCH,
        stale_frame: "frame",
        during: "Particles phase",
        stranger: "unexpected sender",
        duplicate: "extra copy discarded",
    };
    let got = exchange(&mut wire, &Inline, &shape.members, &round, &shape.outbox, |_, b| Ok(b.to_vec()));
    // What never arrived dies with the epoch.
    wire.flows.close_epoch_dead(EPOCH);
    Outcome {
        received: got.received,
        missing: got.missing,
        retransmit_bytes: wire.flows.retransmit_bytes(EPOCH),
        log: wire.log.render(),
        conserved: wire.flows.conservation().holds(),
    }
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
        lost in 0usize..8,
    ) {
        let bit = |word: usize, i: usize| bits[word] >> (i % 64) & 1 == 1;
        let mut members: Vec<usize> = (0..p).filter(|&r| bit(0, r)).collect();
        if members.len() < 2 {
            members = (0..p).collect();
        }
        let outbox: Vec<Outbox> = (0..p)
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
        // What the outboxes owe among the members, `(to, from)`: a silent
        // rank owes every other member.
        let mut owed: Vec<(usize, usize)> = members.iter()
            .flat_map(|&from| members.iter().map(move |&to| (to, from)))
            .filter(|&(to, from)| to != from && match &outbox[from] {
                Outbox::To(list) => received_from(list, to).is_some(),
                _ => true,
            })
            .collect();
        owed.sort_unstable();
        let shape = Shape { members, outbox };
        let plan = || {
            let rated = FaultKind::MESSAGE_KINDS.into_iter().zip(rates).fold(FaultPlan::new(seed), |plan, (kind, pct)| {
                plan.with_rate(kind, pct as f64 / 100.0)
            });
            // Sender `lost`, if it is a rank, is silent through the budget.
            let (epoch, from, fault) = (EPOCH, Some(lost), FaultKind::Drop);
            let attempts = 0..MAX_RETRIES + 1;
            rated.with_injection(Injection { epoch, from, to: None, kind: None, fault, attempts })
        };

        let clean = run_collective(p, &shape, FaultPlan::new(seed));
        let faulty = run_collective(p, &shape, plan());
        prop_assert!(!clean.log.contains("inject"), "the reference run saw faults");
        prop_assert_eq!(pairs(&clean), owed, "a receiver waited for what no outbox owes it");
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
            (0u8..9, 0u8..5, 0usize..3, 0usize..3, 0usize..5, any::<u64>()),
            1..120,
        ),
    ) {
        // Drive the ledger and log the way the cluster does: any mix of
        // seal / retransmit / fault / deliver / discard / close / evict, the
        // epoch only ever moving forward (sometimes skipping a number), every
        // event naming one of its epoch's flows or none.
        let mut flows = FlowLedger::new();
        let mut evicted: Vec<FlowRecord> = Vec::new();
        let mut log = FaultLog::default();
        let mut epoch = 1u64;
        for (op, gap, from, to, kind_ix, pick) in ops {
            if gap == 0 {
                epoch += 1 + pick % 2;
            }
            let kind = MsgKind::ALL[kind_ix];
            let held = flows.for_epoch(epoch);
            let picked = (!held.is_empty()).then(|| held.get(pick as usize % held.len()).unwrap());
            let recovery = |action, flow| RecoveryEvent {
                epoch,
                rank: to,
                peer: Some(from),
                kind: Some(kind),
                action,
                detail: format!("pick {pick}"),
                flow,
            };
            match (op, picked) {
                (0..=2, _) => {
                    flows.seal(epoch, from, to, kind, 64 + (pick % 4096) as usize);
                }
                (3, Some(r)) => {
                    flows.retransmit(r.id);
                    log.record_recovery(recovery(RecoveryAction::Retransmit, r.id));
                }
                // A fault on one of this epoch's flows, as `Wire` logs it.
                (4, Some(r)) => {
                    let fault = FaultKind::MESSAGE_KINDS[(pick >> 8) as usize % 6];
                    let (from, to, kind, attempt, flow) = (r.from, r.to, r.kind, r.attempts - 1, r.id);
                    log.record_fault(FaultEvent { epoch, from, to, kind, fault, attempt, flow });
                }
                (5, _) => flows.deliver(1 + pick % (flows.len() as u64 + 1), (pick >> 8) as u32 % 3),
                // A discarded frame, from a peer that owes a flow or not.
                (6, r) => {
                    let flow = r.filter(|_| pick & 1 == 0).map_or(NO_FLOW, |r| r.id);
                    log.record_recovery(recovery(RecoveryAction::DiscardCorrupt, flow));
                }
                (7, _) => flows.close_epoch_dead(epoch - pick % 2),
                (8, _) => {
                    let min = epoch.saturating_sub(pick % 3);
                    evicted.extend(flows.records().iter().filter(|r| r.epoch < min));
                    flows.retain_epochs(min);
                }
                _ => {}
            }
        }

        // The run totals count every flow ever sealed, evicted ones too.
        let mut want = FlowConservation::default();
        for r in evicted.iter().copied().chain(flows.records().iter()) {
            want.sealed += 1;
            match r.outcome {
                FlowOutcome::Pending => want.pending += 1,
                FlowOutcome::Delivered { .. } => want.delivered += 1,
                FlowOutcome::Dead => want.dead += 1,
            }
        }
        prop_assert_eq!(flows.conservation(), want);
        prop_assert_eq!(flows.next_id(), want.sealed + 1);

        for e in 0..=epoch + 1 {
            let want: Vec<_> = flows.records().iter().filter(|r| r.epoch == e).collect();
            let view: Vec<_> = flows.for_epoch(e).iter().collect();
            prop_assert_eq!(view, want, "flow view of epoch {}", e);
            let (injected, recoveries) = log.for_epoch(e);
            let want_injected: Vec<_> = log.injected.iter().filter(|f| f.epoch == e).cloned().collect();
            let want_recoveries: Vec<_> =
                log.recoveries.iter().filter(|r| r.epoch == e).cloned().collect();
            prop_assert_eq!(injected, &want_injected[..], "injected view of epoch {}", e);
            prop_assert_eq!(recoveries, &want_recoveries[..], "recovery view of epoch {}", e);
        }
    }
}

/// The flow ledger as whole records, ids and epochs stored in each, under
/// the ledger's update rules: the oracle the compact ledger is held to.
#[derive(Default)]
struct RecordLedger {
    records: EpochRuns<FlowRecord>,
    totals: FlowConservation,
}

impl RecordLedger {
    fn seal(&mut self, epoch: u64, from: usize, to: usize, kind: MsgKind, bytes: usize) -> u64 {
        let id = self.records.next_ordinal() + 1;
        let outcome = FlowOutcome::Pending;
        self.records.push(epoch, FlowRecord { id, epoch, from, to, kind, bytes, attempts: 1, outcome });
        self.totals.sealed += 1;
        id
    }

    fn get(&self, id: u64) -> Option<FlowRecord> {
        self.records.get(id.checked_sub(1)?).map(|(_, r)| *r)
    }

    fn get_mut(&mut self, id: u64) -> Option<&mut FlowRecord> {
        self.records.get_mut(id.checked_sub(1)?)
    }

    fn retransmit(&mut self, id: u64) -> FlowRecord {
        let r = self.get_mut(id).expect("a held flow");
        r.attempts += 1;
        *r
    }

    fn deliver(&mut self, id: u64, attempt: u32) {
        if let Some(r) = self.get_mut(id) {
            if r.outcome == FlowOutcome::Pending {
                r.outcome = FlowOutcome::Delivered { attempt };
                self.totals.delivered += 1;
            }
        }
    }

    fn close_epoch_dead(&mut self, epoch: u64) {
        for r in self.records.epoch_mut(epoch) {
            if r.outcome == FlowOutcome::Pending {
                r.outcome = FlowOutcome::Dead;
                self.totals.dead += 1;
            }
        }
    }

    fn retransmit_bytes(&self, epoch: u64) -> usize {
        (self.records.epoch(epoch).iter()).map(|r| r.bytes * (r.attempts - 1) as usize).sum()
    }

    fn conservation(&self) -> FlowConservation {
        let t = self.totals;
        FlowConservation { pending: t.sealed - t.delivered - t.dead, ..t }
    }
}

/// Every read of `ledger` equals the oracle's: the held records' `Debug`
/// text, `get` of every id up to two past the last (evicted, held, not yet
/// sealed, and `NO_FLOW`), every epoch's view up to `last_epoch + 1`, and
/// the id, byte and conservation counts.
fn same_reads(ledger: &FlowLedger, oracle: &RecordLedger, last_epoch: u64) {
    let held = ledger.records();
    prop_assert_eq!(format!("{held:?}"), format!("{:?}", oracle.records));
    prop_assert_eq!((held.len(), ledger.len(), ledger.is_empty()), (oracle.records.len(), oracle.records.len(), oracle.records.is_empty()));
    prop_assert_eq!(held.first(), oracle.records.iter().next().copied());
    for (i, want) in oracle.records.iter().enumerate() {
        prop_assert_eq!(held.get(i), Some(*want), "held record {}", i);
    }
    prop_assert_eq!(held.get(oracle.records.len()), None);
    prop_assert_eq!(ledger.next_id(), oracle.records.next_ordinal() + 1);
    for id in NO_FLOW..=ledger.next_id() + 1 {
        prop_assert_eq!(ledger.get(id), oracle.get(id), "get({})", id);
    }
    for e in 0..=last_epoch + 1 {
        let (view, want) = (ledger.for_epoch(e), oracle.records.epoch(e));
        prop_assert_eq!(format!("{view:?}"), format!("{want:?}"), "epoch {}", e);
        prop_assert_eq!((view.len(), view.is_empty(), view.first()), (want.len(), want.is_empty(), want.first().copied()));
        for i in 0..=want.len() {
            prop_assert_eq!(view.get(i), want.get(i).copied(), "epoch {} record {}", e, i);
        }
        prop_assert_eq!(ledger.retransmit_bytes(e), oracle.retransmit_bytes(e), "epoch {}", e);
    }
    prop_assert_eq!(ledger.conservation(), oracle.conservation());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn the_compact_ledger_reads_as_whole_records(
        ops in proptest::collection::vec((0u8..7, 0u8..4, any::<u64>(), any::<u64>()), 1..150),
    ) {
        // Seal at non-decreasing epochs (sometimes skipping one), send held
        // flows again up to the retry budget, deliver any id (held,
        // evicted, unsealed, `NO_FLOW`; late duplicates too), close epochs
        // dead and evict, on the ledger and the oracle alike; after every
        // operation the two read the same.
        let (mut ledger, mut oracle) = (FlowLedger::new(), RecordLedger::default());
        let mut epoch = 1u64;
        let wide = |bits: u64| [0, 1, 63, 4096, u32::MAX as usize][bits as usize % 5];
        for (op, gap, a, b) in ops {
            if gap == 0 {
                epoch += 1 + a % 2;
            }
            match op {
                0..=2 => {
                    let from = if a & 4 == 0 { (a >> 8) as usize % 64 } else { wide(a >> 8) };
                    let to = if a & 8 == 0 { (b >> 8) as usize % 64 } else { wide(b >> 8) };
                    let bytes = if a & 16 == 0 { (b >> 16) as usize % 10_000 } else { wide(b >> 16) };
                    let kind = MsgKind::ALL[(b % 5) as usize];
                    prop_assert_eq!(ledger.seal(epoch, from, to, kind, bytes), oracle.seal(epoch, from, to, kind, bytes));
                }
                3 => {
                    let held: Vec<u64> = (oracle.records.iter())
                        .filter(|r| r.attempts <= MAX_RETRIES)
                        .map(|r| r.id)
                        .collect();
                    if !held.is_empty() {
                        let id = held[a as usize % held.len()];
                        prop_assert_eq!(ledger.retransmit(id), oracle.retransmit(id));
                    }
                }
                4 => {
                    let id = a % (ledger.next_id() + 2);
                    let attempt = (b % (u64::from(MAX_RETRIES) + 1)) as u32;
                    ledger.deliver(id, attempt);
                    oracle.deliver(id, attempt);
                }
                5 => {
                    let e = epoch.saturating_sub(a % 3);
                    ledger.close_epoch_dead(e);
                    oracle.close_epoch_dead(e);
                }
                _ => {
                    let min = epoch.saturating_sub(a % 4);
                    ledger.retain_epochs(min);
                    oracle.records.evict_before(min);
                }
            }
            same_reads(&ledger, &oracle, epoch);
        }
    }
}

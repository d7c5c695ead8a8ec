//! Deterministic per-message flow ledger.
//!
//! Every logical message sealed on the fabric — original transmission plus
//! all its retransmissions — is one **flow**. The ledger records the
//! lifecycle: seal → retransmit → deliver | dead, keyed by a dense flow id
//! that also rides inside the [envelope](crate::envelope) so the receive
//! side can close the loop exactly. The id is the one key for everything
//! that happens to the frame: each fault the plan injects and each
//! retransmission or discard is a [`FaultLog`](crate::fault::FaultLog)
//! event that names its flow, not a second copy kept here. The ledger is a
//! plain value owned by the
//! [`Wire`](crate::fault::Wire): all mutations happen on the simulation
//! driver thread, through `&mut`, in the order the driver sends and drains,
//! so ids, record order and outcomes are byte-deterministic per seed — the
//! property the `flows` bench gate relies on.
//!
//! The ledger is **epoch-ordered**: the driver's epoch counter never goes
//! back (a rollback restores particles, not the epoch), so
//! [`FlowLedger::seal`] asserts that epochs arrive in non-decreasing order.
//! The records are held one buffer per epoch ([`EpochRuns`]): one epoch's
//! records are the run that [`FlowLedger::for_epoch`] finds by binary search
//! over the held epochs, and everything a step does with the ledger — the
//! dead sweep, the observability pass — touches that run only, never the
//! history before it.
//!
//! The ledger is also **bounded**: [`FlowLedger::retain_epochs`] drops whole
//! epochs from the front without moving the ones it keeps (the cluster
//! evicts it with its trace, one epoch as each begins). Ids stay dense and
//! global, and [`FlowLedger::conservation`] still answers for the whole
//! run: it reads run totals kept as flows are sealed and resolved, so
//! evicting an epoch reads none of its records.
//!
//! The conservation invariant the chaos suites assert: at any epoch
//! boundary, every sealed flow is **exactly one** of delivered or dead (its
//! epoch abandoned by a rollback), with no flow left `Pending`.

use crate::fabric::MsgKind;
use bonsai_util::sorted::EpochRuns;

/// Terminal (or not-yet-terminal) state of one flow.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FlowOutcome {
    /// Sealed, not yet resolved.
    Pending,
    /// The payload was validated and accepted by the receiver.
    Delivered {
        /// Attempt number of the frame that got through (0 = original).
        attempt: u32,
    },
    /// Never delivered: the epoch was abandoned (a peer silent through the
    /// retry budget, declared dead, and the cluster rolled back).
    Dead,
}

impl FlowOutcome {
    /// Stable lower-case label (`pending`/`delivered`/`dead`).
    pub fn label(&self) -> &'static str {
        match self {
            Self::Pending => "pending",
            Self::Delivered { .. } => "delivered",
            Self::Dead => "dead",
        }
    }
}

/// One logical message and its recorded lifecycle.
#[derive(Clone, Debug, PartialEq)]
pub struct FlowRecord {
    /// Ledger-assigned id, dense and 1-based (0 is the reserved
    /// [`NO_FLOW`](crate::envelope::NO_FLOW)).
    pub id: u64,
    /// Sender's epoch at seal time.
    pub epoch: u64,
    /// Sending rank.
    pub from: usize,
    /// Receiving rank.
    pub to: usize,
    /// Message kind.
    pub kind: MsgKind,
    /// Payload bytes (pre-envelope).
    pub bytes: usize,
    /// Transmissions attempted so far (1 = original only).
    pub attempts: u32,
    /// Lifecycle state.
    pub outcome: FlowOutcome,
}

impl FlowRecord {
    /// A freshly sealed flow: one attempt, pending.
    pub fn new(id: u64, epoch: u64, from: usize, to: usize, kind: MsgKind, bytes: usize) -> Self {
        Self {
            id,
            epoch,
            from,
            to,
            kind,
            bytes,
            attempts: 1,
            outcome: FlowOutcome::Pending,
        }
    }
}

/// Totals for the conservation check.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FlowConservation {
    /// Flows sealed.
    pub sealed: u64,
    /// Flows delivered.
    pub delivered: u64,
    /// Flows dead by crash/abort.
    pub dead: u64,
    /// Flows still pending (must be 0 at epoch boundaries).
    pub pending: u64,
}

impl FlowConservation {
    /// True iff every sealed flow has exactly one terminal outcome.
    pub fn holds(&self) -> bool {
        self.pending == 0 && self.sealed == self.delivered + self.dead
    }
}

/// The epoch-ordered, bounded flow ledger. See the module docs for the
/// lifecycle.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FlowLedger {
    /// The held epochs' records, in seal order: flow `id` is ordinal
    /// `id - 1`.
    records: EpochRuns<FlowRecord>,
    /// Flows sealed, delivered and dead over the whole run (`pending` is
    /// what the other three leave).
    totals: FlowConservation,
}

impl FlowLedger {
    /// Fresh empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// The held records (every epoch not yet evicted), in seal order.
    pub fn records(&self) -> &EpochRuns<FlowRecord> {
        &self.records
    }

    /// Number of records held.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when no record is held.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Drop every record sealed before `min_epoch`; the run totals
    /// [`conservation`](Self::conservation) reports keep counting them.
    /// The epochs kept stay where they are; ids stay global: the next seal
    /// continues the sequence.
    pub fn retain_epochs(&mut self, min_epoch: u64) {
        self.records.evict_before(min_epoch);
    }

    /// The records sealed at `epoch`, in seal order, with their ledger ids:
    /// `for_epoch(e)[i].id == for_epoch(e)[0].id + i`.
    pub fn for_epoch(&self, epoch: u64) -> &[FlowRecord] {
        self.records.epoch(epoch)
    }

    /// Payload bytes sent again at `epoch`: each attempt after a flow's
    /// first carried its payload once more.
    pub fn retransmit_bytes(&self, epoch: u64) -> usize {
        (self.for_epoch(epoch).iter()).map(|r| r.bytes * (r.attempts - 1) as usize).sum()
    }

    /// The id the next [`seal`](Self::seal) returns: ids are dense, so a
    /// sender that seals frames off the ledger can be handed a range.
    pub fn next_id(&self) -> u64 {
        self.records.next_ordinal() + 1
    }

    /// Record a fresh flow; returns its id.
    ///
    /// # Panics
    /// If `epoch` is older than the latest sealed flow's: the per-epoch
    /// accessors rely on the records being epoch-ordered.
    pub fn seal(&mut self, epoch: u64, from: usize, to: usize, kind: MsgKind, bytes: usize) -> u64 {
        if let Some(last) = self.records.last() {
            assert!(
                last.epoch <= epoch,
                "flow sealed at epoch {epoch} after epoch {}: the ledger is epoch-ordered",
                last.epoch
            );
        }
        let id = self.next_id();
        self.records.push(epoch, FlowRecord::new(id, epoch, from, to, kind, bytes));
        self.totals.sealed += 1;
        id
    }

    /// The held record of `id`; `None` for an evicted id and for
    /// [`NO_FLOW`](crate::envelope::NO_FLOW).
    pub fn get(&self, id: u64) -> Option<&FlowRecord> {
        self.records.get(id.checked_sub(1)?)
    }

    fn get_mut(&mut self, id: u64) -> Option<&mut FlowRecord> {
        self.records.get_mut(id.checked_sub(1)?)
    }

    /// Count one more transmission of `flow`; returns its record.
    ///
    /// # Panics
    /// If the ledger does not hold `flow`: a frame is only sent again
    /// within the exchange that sealed it.
    pub fn retransmit(&mut self, flow: u64) -> &FlowRecord {
        let r = self
            .get_mut(flow)
            .unwrap_or_else(|| panic!("retransmission of flow {flow}, which the ledger does not hold"));
        r.attempts += 1;
        r
    }

    /// Mark `flow` delivered by the frame with sequence `attempt`. Late
    /// duplicates of an already-resolved flow are ignored.
    pub fn deliver(&mut self, flow: u64, attempt: u32) {
        if let Some(r) = self.get_mut(flow) {
            if r.outcome == FlowOutcome::Pending {
                r.outcome = FlowOutcome::Delivered { attempt };
                self.totals.delivered += 1;
            }
        }
    }

    /// Close an abandoned epoch: every flow sealed at `epoch` and still
    /// pending becomes dead-by-crash. Call before a rollback and after a
    /// completed epoch (where it sweeps flows to/from ranks that died).
    pub fn close_epoch_dead(&mut self, epoch: u64) {
        for r in self.records.epoch_mut(epoch) {
            if r.outcome == FlowOutcome::Pending {
                r.outcome = FlowOutcome::Dead;
                self.totals.dead += 1;
            }
        }
    }

    /// Conservation totals over the whole run, evicted epochs included.
    pub fn conservation(&self) -> FlowConservation {
        let t = self.totals;
        FlowConservation {
            pending: t.sealed - t.delivered - t.dead,
            ..t
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::envelope::NO_FLOW;

    #[test]
    fn lifecycle_delivered_first_try() {
        let mut l = FlowLedger::new();
        let id = l.seal(3, 0, 1, MsgKind::Control, 16);
        assert_eq!(id, 1);
        l.deliver(id, 0);
        let r = l.get(id).unwrap();
        assert_eq!(r.outcome, FlowOutcome::Delivered { attempt: 0 });
        assert_eq!(r.attempts, 1);
        assert!(l.conservation().holds());
    }

    #[test]
    fn retransmit_counts_an_attempt_on_its_flow() {
        let mut l = FlowLedger::new();
        let a = l.seal(3, 0, 1, MsgKind::Let, 100);
        assert_eq!(l.retransmit(a).attempts, 2);
        l.deliver(a, 1);
        assert_eq!(l.get(a).unwrap().outcome, FlowOutcome::Delivered { attempt: 1 });
        assert!(l.conservation().holds());
        // Every attempt after the first carries the payload again, and is
        // counted in its flow's epoch only.
        let b = l.seal(4, 1, 0, MsgKind::Let, 30);
        l.retransmit(b);
        l.retransmit(b);
        assert_eq!((l.retransmit_bytes(3), l.retransmit_bytes(4), l.retransmit_bytes(5)), (100, 60, 0));
    }

    #[test]
    #[should_panic(expected = "which the ledger does not hold")]
    fn retransmitting_an_unheld_flow_panics() {
        let mut l = FlowLedger::new();
        l.seal(3, 0, 1, MsgKind::Let, 100);
        l.retransmit(NO_FLOW);
    }

    #[test]
    fn same_coordinate_flows_resolve_independently() {
        // Membership gossip seals several View frames per (epoch, from, to)
        // across rounds; a retransmission names its own.
        let mut l = FlowLedger::new();
        let round1 = l.seal(5, 2, 0, MsgKind::View, 40);
        let round2 = l.seal(5, 2, 0, MsgKind::View, 44);
        assert_eq!(l.retransmit(round1).id, round1);
        l.deliver(round2, 0);
        l.deliver(round1, 1);
        let attempts: Vec<_> = l.records().iter().map(|r| (r.attempts, r.outcome)).collect();
        let delivered = |attempt| FlowOutcome::Delivered { attempt };
        assert_eq!(attempts, [(2, delivered(1)), (1, delivered(0))]);
    }

    #[test]
    fn an_abandoned_epoch_closes_the_books_dead() {
        let mut l = FlowLedger::new();
        l.seal(7, 1, 2, MsgKind::Let, 500);
        let delivered = l.seal(7, 3, 2, MsgKind::Control, 8);
        l.deliver(delivered, 0);
        l.seal(7, 3, 1, MsgKind::Control, 8);
        assert!(!l.conservation().holds());
        l.close_epoch_dead(7);
        let outcomes: Vec<_> = l.records().iter().map(|r| r.outcome).collect();
        let dead = FlowOutcome::Dead;
        assert_eq!(outcomes, [dead, FlowOutcome::Delivered { attempt: 0 }, dead]);
        let c = l.conservation();
        assert!(c.holds());
        assert_eq!((c.delivered, c.dead), (1, 2));
    }

    #[test]
    fn for_epoch_is_the_contiguous_run_with_ledger_ids() {
        let mut l = FlowLedger::new();
        l.seal(2, 0, 1, MsgKind::Control, 8);
        l.seal(4, 0, 1, MsgKind::Let, 100);
        l.seal(4, 1, 0, MsgKind::Let, 200);
        l.seal(7, 0, 1, MsgKind::Control, 8);
        assert!(l.for_epoch(1).is_empty());
        assert!(l.for_epoch(3).is_empty());
        assert!(l.for_epoch(8).is_empty());
        let ids = |e: u64| l.for_epoch(e).iter().map(|r| r.id).collect::<Vec<_>>();
        assert_eq!(ids(2), [1]);
        assert_eq!(ids(4), [2, 3]);
        assert_eq!(ids(7), [4]);
    }

    #[test]
    fn sweeps_leave_other_epochs_alone() {
        let mut l = FlowLedger::new();
        l.seal(3, 0, 1, MsgKind::Let, 100);
        l.seal(5, 0, 1, MsgKind::Let, 100);
        l.close_epoch_dead(3);
        assert_eq!(l.get(1).unwrap().outcome, FlowOutcome::Dead);
        assert_eq!(l.get(2).unwrap().outcome, FlowOutcome::Pending);
    }

    #[test]
    #[should_panic(expected = "the ledger is epoch-ordered")]
    fn sealing_an_older_epoch_panics() {
        let mut l = FlowLedger::new();
        l.seal(5, 0, 1, MsgKind::Control, 8);
        l.seal(4, 0, 1, MsgKind::Control, 8);
    }

    #[test]
    fn late_duplicate_delivery_ignored() {
        let mut l = FlowLedger::new();
        let id = l.seal(2, 0, 1, MsgKind::Boundary, 64);
        l.deliver(id, 0);
        l.deliver(id, 1); // duplicate copy arrives later
        assert_eq!(l.get(id).unwrap().outcome, FlowOutcome::Delivered { attempt: 0 });
    }

    #[test]
    fn no_flow_id_is_inert() {
        let mut l = FlowLedger::new();
        l.deliver(NO_FLOW, 0);
        assert!(l.get(NO_FLOW).is_none() && l.is_empty());
    }

    /// Epochs 2, 3, 4, 4, 7: one delivered and one dead flow evicted with
    /// epochs 2..4, the rest held.
    fn evicted_at_epoch_4() -> FlowLedger {
        let mut l = FlowLedger::new();
        let a = l.seal(2, 0, 1, MsgKind::Control, 8);
        l.deliver(a, 0);
        l.seal(3, 1, 0, MsgKind::Let, 50);
        l.close_epoch_dead(3);
        l.seal(4, 0, 1, MsgKind::Let, 100);
        l.seal(4, 1, 0, MsgKind::Let, 200);
        l.seal(7, 0, 1, MsgKind::Control, 8);
        l.retain_epochs(4);
        l
    }

    #[test]
    fn retain_epochs_keeps_later_ids_and_epoch_runs() {
        let mut l = evicted_at_epoch_4();
        assert_eq!(l.len(), 3);
        assert!(l.for_epoch(2).is_empty() && l.for_epoch(3).is_empty());
        let ids = |l: &FlowLedger, e: u64| l.for_epoch(e).iter().map(|r| r.id).collect::<Vec<_>>();
        assert_eq!(ids(&l, 4), [3, 4]);
        assert_eq!(ids(&l, 7), [5]);
        // Ids continue the global sequence.
        assert_eq!(l.next_id(), 6);
        assert_eq!(l.seal(7, 1, 0, MsgKind::Control, 8), 6);
        // Evicting again, or below what is held, is a no-op on held epochs.
        l.retain_epochs(1);
        assert_eq!(ids(&l, 4), [3, 4]);
        l.retain_epochs(5);
        assert_eq!(ids(&l, 7), [5, 6]);
        assert_eq!(l.records().first().map(|r| r.id), Some(5));
    }

    #[test]
    fn sweeps_work_on_held_epochs_after_an_eviction() {
        let mut l = evicted_at_epoch_4();
        // Epoch 4: deliver one after a retransmission, leave the other
        // pending.
        l.retransmit(3);
        l.deliver(3, 1);
        l.close_epoch_dead(7);
        let held: Vec<_> = l.records().iter().map(|r| (r.id, r.attempts, r.outcome)).collect();
        assert_eq!(
            held,
            [
                (3, 2, FlowOutcome::Delivered { attempt: 1 }),
                (4, 1, FlowOutcome::Pending),
                (5, 1, FlowOutcome::Dead),
            ]
        );
        // An evicted id is inert: a late duplicate of flow 1 changes nothing.
        let before = l.clone();
        l.deliver(1, 3);
        assert_eq!(l, before);
        assert!(l.get(2).is_none() && l.get(3).is_some_and(|r| r.id == 3));
    }

    #[test]
    fn conservation_counts_evicted_epochs() {
        let mut l = evicted_at_epoch_4();
        let c = l.conservation();
        assert_eq!(
            (c.sealed, c.delivered, c.dead, c.pending),
            (5, 1, 1, 3)
        );
        l.close_epoch_dead(4);
        l.close_epoch_dead(7);
        l.retain_epochs(8);
        assert!(l.is_empty());
        let c = l.conservation();
        assert_eq!((c.sealed, c.delivered, c.dead), (5, 1, 4));
        assert!(c.holds());
    }

    #[test]
    fn a_record_is_fixed_size() {
        assert!(std::mem::size_of::<FlowRecord>() <= 56);
    }

    #[test]
    fn outcome_labels_are_stable() {
        assert_eq!(FlowOutcome::Pending.label(), "pending");
        assert_eq!(FlowOutcome::Delivered { attempt: 2 }.label(), "delivered");
        assert_eq!(FlowOutcome::Dead.label(), "dead");
    }
}

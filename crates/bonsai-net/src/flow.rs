//! Deterministic per-message flow ledger.
//!
//! Every logical message sealed on the fabric — original transmission plus
//! all its retransmissions — is one **flow**. The ledger records the full
//! lifecycle: seal → inject(drop/dup/corrupt/…) → retransmit → deliver |
//! fallback | dead, keyed by a dense flow id that also rides inside the
//! [envelope](crate::envelope) so the receive side can close the loop
//! exactly. The ledger is a plain value owned by the
//! [`Wire`](crate::fault::Wire): all mutations happen on the simulation
//! driver thread, through `&mut`, in the order the driver sends and drains,
//! so ids, record order and outcomes are byte-deterministic per seed — the
//! property the `flows` bench gate relies on.
//!
//! The ledger is **epoch-ordered**: the driver's epoch counter never goes
//! back (a rollback restores particles, not the epoch), so
//! [`FlowLedger::seal`] asserts that epochs arrive in non-decreasing order.
//! One epoch's records are therefore a contiguous run that
//! [`FlowLedger::for_epoch`] finds by binary search, and everything a step
//! does with the ledger — retransmission matching, fallback and dead
//! sweeps, the observability pass — touches that run only, never the
//! history before it.
//!
//! The ledger is also **bounded**: [`FlowLedger::retain_epochs`] drops whole
//! epochs from the front (the cluster evicts it with its trace) and folds
//! their outcomes into run totals, so ids stay dense and global and
//! [`FlowLedger::conservation`] still answers for the whole run.
//!
//! The conservation invariant the chaos suites assert: at any epoch
//! boundary, every sealed flow is **exactly one** of delivered /
//! recovered-by-fallback / dead-by-crash (no flow left `Pending`).

use crate::fabric::MsgKind;
use crate::fault::FaultKind;
use bonsai_util::sorted::equal_run;

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
    /// Never delivered; the receiver recovered through a fabric fallback
    /// (e.g. boundary-tree LET substitution).
    Fallback,
    /// Never delivered and no fallback: the epoch was abandoned (crash,
    /// rollback, or a peer declared dead).
    Dead,
}

impl FlowOutcome {
    /// Stable lower-case label (`pending`/`delivered`/`fallback`/`dead`).
    pub fn label(&self) -> &'static str {
        match self {
            Self::Pending => "pending",
            Self::Delivered { .. } => "delivered",
            Self::Fallback => "fallback",
            Self::Dead => "dead",
        }
    }
}

/// One logical message and its recorded lifecycle.
///
/// The ledger keeps one record per sealed message for the whole history
/// window, so a record is fixed-size (64 B): the injection list, empty on
/// almost every flow, sits behind one pointer that is `None` until a fault
/// is injected.
#[derive(Clone, PartialEq)]
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
    /// Faults injected on this flow; `None` when there are none, never an
    /// empty list. Read through [`FlowRecord::injected`].
    // The box is the point: one thin pointer, where a bare `Vec` is three
    // words on every record and a boxed slice two.
    #[allow(clippy::box_collection)]
    injected: Option<Box<Vec<(u32, FaultKind)>>>,
    /// Lifecycle state.
    pub outcome: FlowOutcome,
}

impl FlowRecord {
    /// A freshly sealed flow: one attempt, nothing injected, pending.
    pub fn new(id: u64, epoch: u64, from: usize, to: usize, kind: MsgKind, bytes: usize) -> Self {
        Self {
            id,
            epoch,
            from,
            to,
            kind,
            bytes,
            attempts: 1,
            injected: None,
            outcome: FlowOutcome::Pending,
        }
    }

    /// Faults injected on this flow, as `(attempt, fault)` pairs in
    /// injection order.
    pub fn injected(&self) -> &[(u32, FaultKind)] {
        self.injected.as_deref().map_or(&[], Vec::as_slice)
    }

    /// Record a fault injected at transmission `attempt`.
    pub fn push_injected(&mut self, attempt: u32, fault: FaultKind) {
        self.injected.get_or_insert_default().push((attempt, fault));
    }

    /// Forget every injection.
    pub fn clear_injected(&mut self) {
        self.injected = None;
    }
}

/// Renders as `#[derive(Debug)]` would with `injected` a plain list: the
/// exchange digests hash this text.
impl std::fmt::Debug for FlowRecord {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FlowRecord")
            .field("id", &self.id)
            .field("epoch", &self.epoch)
            .field("from", &self.from)
            .field("to", &self.to)
            .field("kind", &self.kind)
            .field("bytes", &self.bytes)
            .field("attempts", &self.attempts)
            .field("injected", &self.injected())
            .field("outcome", &self.outcome)
            .finish()
    }
}

/// Totals for the conservation check.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FlowConservation {
    /// Flows sealed.
    pub sealed: u64,
    /// Flows delivered.
    pub delivered: u64,
    /// Flows resolved by a fabric fallback.
    pub fallback: u64,
    /// Flows dead by crash/abort.
    pub dead: u64,
    /// Flows still pending (must be 0 at epoch boundaries).
    pub pending: u64,
}

impl FlowConservation {
    /// True iff every sealed flow has exactly one terminal outcome.
    pub fn holds(&self) -> bool {
        self.pending == 0 && self.sealed == self.delivered + self.fallback + self.dead
    }

    /// Count `records` in.
    fn add(&mut self, records: &[FlowRecord]) {
        self.sealed += records.len() as u64;
        for r in records {
            match r.outcome {
                FlowOutcome::Pending => self.pending += 1,
                FlowOutcome::Delivered { .. } => self.delivered += 1,
                FlowOutcome::Fallback => self.fallback += 1,
                FlowOutcome::Dead => self.dead += 1,
            }
        }
    }
}

/// The epoch-ordered, bounded flow ledger. See the module docs for the
/// lifecycle.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FlowLedger {
    /// The held epochs' records, in seal order.
    records: Vec<FlowRecord>,
    /// Outcome totals of the evicted records; `evicted.sealed` ids precede
    /// `records[0]`.
    evicted: FlowConservation,
}

impl FlowLedger {
    /// Fresh empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// The held records (every epoch not yet evicted), in seal order.
    pub fn records(&self) -> &[FlowRecord] {
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

    /// Drop every record sealed before `min_epoch`, counting its outcome
    /// into the run totals [`conservation`](Self::conservation) reports.
    /// Ids stay global: the next seal continues the sequence.
    pub fn retain_epochs(&mut self, min_epoch: u64) {
        let cut = self.records.partition_point(|r| r.epoch < min_epoch);
        self.evicted.add(&self.records[..cut]);
        self.records.drain(..cut);
    }

    /// Index range of the records sealed at `epoch` (contiguous, because
    /// [`seal`](Self::seal) keeps the records epoch-ordered).
    fn epoch_range(&self, epoch: u64) -> std::ops::Range<usize> {
        equal_run(&self.records, epoch, |r| r.epoch)
    }

    /// The records sealed at `epoch`, in seal order, with their ledger ids:
    /// `for_epoch(e)[i].id == for_epoch(e)[0].id + i`.
    pub fn for_epoch(&self, epoch: u64) -> &[FlowRecord] {
        &self.records[self.epoch_range(epoch)]
    }

    /// The id the next [`seal`](Self::seal) returns: ids are dense, so a
    /// sender that seals frames off the ledger can be handed a range.
    pub fn next_id(&self) -> u64 {
        self.evicted.sealed + self.records.len() as u64 + 1
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
        self.records.push(FlowRecord::new(id, epoch, from, to, kind, bytes));
        id
    }

    /// The held record of `id`; `None` for an evicted id and for
    /// [`NO_FLOW`](crate::envelope::NO_FLOW).
    fn get_mut(&mut self, id: u64) -> Option<&mut FlowRecord> {
        let first = self.evicted.sealed + 1;
        let index = id.checked_sub(first)?;
        self.records.get_mut(index as usize)
    }

    /// A retransmission re-uses the most recent still-pending flow on the
    /// same `(epoch, from, to, kind)` coordinate, bumping its attempt
    /// count; if none is open (shouldn't happen in a well-formed exchange)
    /// a fresh flow is sealed so nothing goes unrecorded.
    pub fn retransmit_latest(
        &mut self,
        epoch: u64,
        from: usize,
        to: usize,
        kind: MsgKind,
        bytes: usize,
    ) -> u64 {
        let range = self.epoch_range(epoch);
        let found = self.records[range]
            .iter_mut()
            .rev()
            .find(|r| {
                r.from == from && r.to == to && r.kind == kind && r.outcome == FlowOutcome::Pending
            })
            .map(|r| {
                r.attempts += 1;
                r.id
            });
        found.unwrap_or_else(|| self.seal(epoch, from, to, kind, bytes))
    }

    /// Record a fault injected on `flow` at transmission `attempt`.
    pub fn inject(&mut self, flow: u64, attempt: u32, fault: FaultKind) {
        if let Some(r) = self.get_mut(flow) {
            r.push_injected(attempt, fault);
        }
    }

    /// Mark `flow` delivered by the frame with sequence `attempt`. Late
    /// duplicates of an already-resolved flow are ignored.
    pub fn deliver(&mut self, flow: u64, attempt: u32) {
        if let Some(r) = self.get_mut(flow) {
            if r.outcome == FlowOutcome::Pending {
                r.outcome = FlowOutcome::Delivered { attempt };
            }
        }
    }

    /// Mark every still-pending flow on `(epoch, from → to, kind)` as
    /// recovered-by-fallback (the receiver substituted local data).
    pub fn fallback_pending(&mut self, epoch: u64, from: usize, to: usize, kind: MsgKind) {
        let range = self.epoch_range(epoch);
        for r in &mut self.records[range] {
            if r.from == from && r.to == to && r.kind == kind && r.outcome == FlowOutcome::Pending {
                r.outcome = FlowOutcome::Fallback;
            }
        }
    }

    /// Close an abandoned epoch: every flow sealed at `epoch` and still
    /// pending becomes dead-by-crash. Call before a rollback and after a
    /// completed epoch (where it sweeps flows to/from ranks that died).
    pub fn close_epoch_dead(&mut self, epoch: u64) {
        let range = self.epoch_range(epoch);
        for r in &mut self.records[range] {
            if r.outcome == FlowOutcome::Pending {
                r.outcome = FlowOutcome::Dead;
            }
        }
    }

    /// Conservation totals over the whole run: the evicted records' counts
    /// plus the held ones'.
    pub fn conservation(&self) -> FlowConservation {
        let mut c = self.evicted;
        c.add(&self.records);
        c
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
        let r = &l.records()[0];
        assert_eq!(r.outcome, FlowOutcome::Delivered { attempt: 0 });
        assert_eq!(r.attempts, 1);
        assert!(l.conservation().holds());
    }

    #[test]
    fn retransmit_reuses_latest_pending() {
        let mut l = FlowLedger::new();
        let a = l.seal(3, 0, 1, MsgKind::Let, 100);
        l.inject(a, 0, FaultKind::Drop);
        let b = l.retransmit_latest(3, 0, 1, MsgKind::Let, 100);
        assert_eq!(a, b);
        assert_eq!(l.records()[0].attempts, 2);
        l.deliver(a, 1);
        assert_eq!(l.records()[0].outcome, FlowOutcome::Delivered { attempt: 1 });
        assert!(l.conservation().holds());
    }

    #[test]
    fn retransmit_without_open_flow_seals_fresh() {
        let mut l = FlowLedger::new();
        let a = l.seal(3, 0, 1, MsgKind::Let, 100);
        l.deliver(a, 0);
        let b = l.retransmit_latest(3, 0, 1, MsgKind::Let, 100);
        assert_ne!(a, b);
        assert_eq!(l.len(), 2);
    }

    #[test]
    fn same_coordinate_flows_resolve_independently() {
        // Membership gossip seals several View frames per (epoch, from, to)
        // across rounds; the latest-pending rule must not cross wires.
        let mut l = FlowLedger::new();
        let round1 = l.seal(5, 2, 0, MsgKind::View, 40);
        l.deliver(round1, 0);
        let round2 = l.seal(5, 2, 0, MsgKind::View, 44);
        let re = l.retransmit_latest(5, 2, 0, MsgKind::View, 44);
        assert_eq!(re, round2);
        l.deliver(round2, 1);
        assert!(l.conservation().holds());
    }

    #[test]
    fn fallback_and_dead_close_the_books() {
        let mut l = FlowLedger::new();
        let stalled = l.seal(7, 1, 2, MsgKind::Let, 500);
        l.inject(stalled, 0, FaultKind::Stall);
        let doomed = l.seal(7, 3, 2, MsgKind::Control, 8);
        l.fallback_pending(7, 1, 2, MsgKind::Let);
        l.close_epoch_dead(7);
        assert_eq!(l.records()[0].outcome, FlowOutcome::Fallback);
        assert_eq!(l.records()[1].outcome, FlowOutcome::Dead);
        let _ = doomed;
        let c = l.conservation();
        assert!(c.holds());
        assert_eq!((c.delivered, c.fallback, c.dead), (0, 1, 1));
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
        let old = l.seal(3, 0, 1, MsgKind::Let, 100);
        let cur = l.seal(5, 0, 1, MsgKind::Let, 100);
        l.fallback_pending(5, 0, 1, MsgKind::Let);
        assert_eq!(l.records()[0].outcome, FlowOutcome::Pending);
        assert_eq!(l.records()[1].outcome, FlowOutcome::Fallback);
        // A retransmission at epoch 5 finds nothing open there and seals
        // afresh rather than re-opening epoch 3's flow.
        let re = l.retransmit_latest(5, 0, 1, MsgKind::Let, 100);
        assert!(re != old && re != cur);
        l.close_epoch_dead(3);
        assert_eq!(l.records()[0].outcome, FlowOutcome::Dead);
        assert_eq!(l.records()[2].outcome, FlowOutcome::Pending);
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
        assert_eq!(l.records()[0].outcome, FlowOutcome::Delivered { attempt: 0 });
    }

    #[test]
    fn no_flow_id_is_inert() {
        let mut l = FlowLedger::new();
        l.deliver(NO_FLOW, 0);
        l.inject(NO_FLOW, 0, FaultKind::Drop);
        assert!(l.is_empty());
    }

    /// Epochs 2, 4, 4, 7: one delivered and one fallback flow evicted with
    /// epoch 2..4, the rest held.
    fn evicted_at_epoch_4() -> FlowLedger {
        let mut l = FlowLedger::new();
        let a = l.seal(2, 0, 1, MsgKind::Control, 8);
        l.deliver(a, 0);
        l.seal(3, 1, 0, MsgKind::Let, 50);
        l.fallback_pending(3, 1, 0, MsgKind::Let);
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
        assert_eq!(l.records()[0].id, 5);
    }

    #[test]
    fn sweeps_work_on_held_epochs_after_an_eviction() {
        let mut l = evicted_at_epoch_4();
        // Epoch 4: deliver one after a retransmission, fall back the other.
        let re = l.retransmit_latest(4, 0, 1, MsgKind::Let, 100);
        assert_eq!(re, 3);
        l.inject(re, 0, FaultKind::Drop);
        l.deliver(re, 1);
        l.fallback_pending(4, 1, 0, MsgKind::Let);
        l.close_epoch_dead(7);
        let held: Vec<_> = l.records().iter().map(|r| (r.id, r.attempts, r.outcome)).collect();
        assert_eq!(
            held,
            [
                (3, 2, FlowOutcome::Delivered { attempt: 1 }),
                (4, 1, FlowOutcome::Fallback),
                (5, 1, FlowOutcome::Dead),
            ]
        );
        assert_eq!(l.records()[0].injected(), [(0, FaultKind::Drop)]);
        // An evicted id is inert: a late duplicate of flow 1 changes nothing.
        let before = l.clone();
        l.deliver(1, 3);
        l.inject(2, 0, FaultKind::Corrupt);
        assert_eq!(l, before);
    }

    #[test]
    fn conservation_counts_evicted_epochs() {
        let mut l = evicted_at_epoch_4();
        let c = l.conservation();
        assert_eq!(
            (c.sealed, c.delivered, c.fallback, c.dead, c.pending),
            (5, 1, 1, 0, 3)
        );
        l.close_epoch_dead(4);
        l.close_epoch_dead(7);
        l.retain_epochs(8);
        assert!(l.is_empty());
        let c = l.conservation();
        assert_eq!((c.sealed, c.delivered, c.fallback, c.dead), (5, 1, 1, 3));
        assert!(c.holds());
    }

    #[test]
    fn a_record_is_fixed_size() {
        assert!(std::mem::size_of::<FlowRecord>() <= 64);
    }

    #[test]
    fn debug_renders_as_the_derived_impl_did() {
        let mut l = FlowLedger::new();
        let clean = l.seal(3, 0, 1, MsgKind::Let, 100);
        let hit = l.seal(3, 2, 1, MsgKind::Control, 16);
        l.inject(hit, 0, FaultKind::Drop);
        l.retransmit_latest(3, 2, 1, MsgKind::Control, 16);
        l.inject(hit, 1, FaultKind::Stall);
        l.deliver(clean, 0);
        l.fallback_pending(3, 2, 1, MsgKind::Control);
        assert_eq!(
            format!("{:?}", l.records()[0]),
            "FlowRecord { id: 1, epoch: 3, from: 0, to: 1, kind: Let, bytes: 100, attempts: 1, \
             injected: [], outcome: Delivered { attempt: 0 } }"
        );
        assert_eq!(
            format!("{:?}", l.records()[1]),
            "FlowRecord { id: 2, epoch: 3, from: 2, to: 1, kind: Control, bytes: 16, attempts: 2, \
             injected: [(0, Drop), (1, Stall)], outcome: Fallback }"
        );
    }

    #[test]
    fn cleared_injections_compare_equal_to_none() {
        let mut l = FlowLedger::new();
        let id = l.seal(1, 0, 1, MsgKind::Let, 8);
        let clean = l.records()[0].clone();
        l.inject(id, 0, FaultKind::Corrupt);
        let mut r = l.records()[0].clone();
        assert_ne!(r, clean);
        r.clear_injected();
        assert!(r.injected().is_empty());
        assert_eq!(r, clean);
    }

    #[test]
    fn outcome_labels_are_stable() {
        assert_eq!(FlowOutcome::Pending.label(), "pending");
        assert_eq!(FlowOutcome::Delivered { attempt: 2 }.label(), "delivered");
        assert_eq!(FlowOutcome::Fallback.label(), "fallback");
        assert_eq!(FlowOutcome::Dead.label(), "dead");
    }
}

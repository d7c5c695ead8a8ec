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
//! The ledger is **compact**: it stores a flow in 16 B, only what the
//! flow's id and epoch do not say. The id is the flow's ordinal + 1 and the
//! epoch is the run the flow sits in, so neither is stored; the endpoints
//! and the payload length are `u32`, as on the wire, and the kind, the
//! attempt count and the outcome a byte each. A value that does not fit
//! panics at the call that brings it, never truncated. Readers get
//! [`FlowRecord`] values, assembled on read through a [`Flows`] view, and a
//! copy of an epoch kept apart from the ledger ([`EpochFlows`]) is as
//! compact as the ledger.
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
use std::fmt;

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

/// One logical message and its recorded lifecycle, as a reader sees it.
#[derive(Clone, Copy, Debug, PartialEq)]
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

/// `value` in a ledger field of type `T`.
///
/// # Panics
/// If it does not fit: the ledger never truncates.
fn narrow<T: TryFrom<U>, U: Copy + fmt::Display>(value: U, what: &str) -> T {
    T::try_from(value).unwrap_or_else(|_| {
        panic!("flow {what} {value} exceeds its {}-bit ledger field", 8 * std::mem::size_of::<T>())
    })
}

/// [`Packed::outcome`] of a pending flow.
const PENDING: u8 = 0;
/// [`Packed::outcome`] of a dead flow.
const DEAD: u8 = 1;
/// [`Packed::outcome`] of a flow delivered on attempt `k`: `DELIVERED + k`.
const DELIVERED: u8 = 2;

/// A flow as the ledger stores it: 16 B, without the id and the epoch its
/// place in the ledger says.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Packed {
    from: u32,
    to: u32,
    bytes: u32,
    kind: MsgKind,
    attempts: u8,
    /// [`PENDING`], [`DEAD`], or [`DELIVERED`] + the delivered attempt.
    outcome: u8,
}

impl Packed {
    /// A freshly sealed flow: one attempt, pending.
    fn sealed(from: usize, to: usize, kind: MsgKind, bytes: usize) -> Self {
        Self {
            from: narrow(from, "`from` rank"),
            to: narrow(to, "`to` rank"),
            bytes: narrow(bytes, "payload length"),
            kind,
            attempts: 1,
            outcome: PENDING,
        }
    }

    fn outcome(self) -> FlowOutcome {
        match self.outcome {
            PENDING => FlowOutcome::Pending,
            DEAD => FlowOutcome::Dead,
            code => FlowOutcome::Delivered { attempt: u32::from(code - DELIVERED) },
        }
    }

    /// The record of the flow with `id`, sealed at `epoch`.
    fn record(self, id: u64, epoch: u64) -> FlowRecord {
        FlowRecord {
            id,
            epoch,
            from: self.from as usize,
            to: self.to as usize,
            kind: self.kind,
            bytes: self.bytes as usize,
            attempts: u32::from(self.attempts),
            outcome: self.outcome(),
        }
    }
}

/// Flow records read from a ledger, or from an epoch kept apart from one
/// ([`EpochFlows`]), assembled on read: one epoch's
/// ([`FlowLedger::for_epoch`]) or every held epoch's
/// ([`FlowLedger::records`]), in seal order.
#[derive(Clone, Copy)]
pub struct Flows<'a>(Viewed<'a>);

#[derive(Clone, Copy)]
enum Viewed<'a> {
    /// One epoch's flows: the epoch, its first flow's id and the flows.
    Epoch(u64, u64, &'a [Packed]),
    /// Every epoch a ledger holds (flow `id` is ordinal `id - 1`).
    Held(&'a EpochRuns<Packed>),
}

impl<'a> Flows<'a> {
    /// Every viewed epoch, oldest first: `(epoch, first id, flows)`.
    fn runs(self) -> impl DoubleEndedIterator<Item = (u64, u64, &'a [Packed])> + Clone {
        let (epoch, held) = match self.0 {
            Viewed::Epoch(epoch, first, flows) => (Some((epoch, first, flows)), None),
            Viewed::Held(runs) => (None, Some(runs)),
        };
        let held = held.into_iter().flat_map(|runs| runs.runs().map(|(e, first, flows)| (e, first + 1, flows)));
        epoch.into_iter().chain(held)
    }

    /// Number of records viewed.
    pub fn len(&self) -> usize {
        match self.0 {
            Viewed::Epoch(_, _, flows) => flows.len(),
            Viewed::Held(runs) => runs.len(),
        }
    }

    /// True when no record is viewed.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The `i`-th record viewed.
    pub fn get(&self, i: usize) -> Option<FlowRecord> {
        match self.0 {
            Viewed::Epoch(epoch, first, flows) => flows.get(i).map(|p| p.record(first + i as u64, epoch)),
            Viewed::Held(runs) => {
                let ordinal = runs.runs().next()?.1 + i as u64;
                runs.get(ordinal).map(|(epoch, p)| p.record(ordinal + 1, epoch))
            }
        }
    }

    /// The first record viewed.
    pub fn first(&self) -> Option<FlowRecord> {
        self.get(0)
    }

    /// Every record viewed, in seal order.
    pub fn iter(&self) -> impl DoubleEndedIterator<Item = FlowRecord> + Clone + 'a {
        (self.runs()).flat_map(|(epoch, first, flows)| {
            (flows.iter().enumerate()).map(move |(i, p)| p.record(first + i as u64, epoch))
        })
    }

    /// A copy of each viewed epoch, as compact as the ledger holds it.
    pub fn copy_epochs(&self) -> impl Iterator<Item = EpochFlows> + 'a {
        self.runs().map(|(epoch, first, flows)| EpochFlows { epoch, first, flows: flows.into() })
    }
}

/// No records.
impl Default for Flows<'_> {
    fn default() -> Self {
        Flows(Viewed::Epoch(0, 1, &[]))
    }
}

/// Two views are equal when they view the same records.
impl PartialEq for Flows<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.iter().eq(other.iter())
    }
}

/// The viewed records, as a list.
impl fmt::Debug for Flows<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// One epoch's flows copied out of a ledger ([`Flows::copy_epochs`]), 16 B a
/// flow as the ledger holds them, with the epoch and the first flow's id.
#[derive(Clone, Debug, PartialEq)]
pub struct EpochFlows {
    epoch: u64,
    first: u64,
    flows: Box<[Packed]>,
}

impl EpochFlows {
    /// The epoch the flows were sealed at.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The flows' records.
    pub fn view(&self) -> Flows<'_> {
        Flows(Viewed::Epoch(self.epoch, self.first, &self.flows))
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
    /// The held epochs' flows, in seal order: flow `id` is ordinal
    /// `id - 1`.
    flows: EpochRuns<Packed>,
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
    pub fn records(&self) -> Flows<'_> {
        Flows(Viewed::Held(&self.flows))
    }

    /// Number of records held.
    pub fn len(&self) -> usize {
        self.flows.len()
    }

    /// True when no record is held.
    pub fn is_empty(&self) -> bool {
        self.flows.is_empty()
    }

    /// Drop every record sealed before `min_epoch`; the run totals
    /// [`conservation`](Self::conservation) reports keep counting them.
    /// The epochs kept stay where they are; ids stay global: the next seal
    /// continues the sequence.
    pub fn retain_epochs(&mut self, min_epoch: u64) {
        self.flows.evict_before(min_epoch);
    }

    /// The records sealed at `epoch`, in seal order, with their ledger ids:
    /// `for_epoch(e).get(i)` has the id of `for_epoch(e).first()` + `i`.
    pub fn for_epoch(&self, epoch: u64) -> Flows<'_> {
        let (first, flows) = self.flows.run(epoch).unwrap_or((0, &[]));
        Flows(Viewed::Epoch(epoch, first + 1, flows))
    }

    /// Payload bytes sent again at `epoch`: each attempt after a flow's
    /// first carried its payload once more.
    pub fn retransmit_bytes(&self, epoch: u64) -> usize {
        (self.flows.epoch(epoch).iter()).map(|p| p.bytes as usize * usize::from(p.attempts - 1)).sum()
    }

    /// The id the next [`seal`](Self::seal) returns: ids are dense, so a
    /// sender that seals frames off the ledger can be handed a range.
    pub fn next_id(&self) -> u64 {
        self.flows.next_ordinal() + 1
    }

    /// Record a fresh flow; returns its id.
    ///
    /// # Panics
    /// If `epoch` is older than the latest sealed flow's: the per-epoch
    /// accessors rely on the records being epoch-ordered. If `from`, `to`
    /// or `bytes` exceeds `u32`.
    pub fn seal(&mut self, epoch: u64, from: usize, to: usize, kind: MsgKind, bytes: usize) -> u64 {
        if let Some((last, ..)) = self.flows.runs().next_back() {
            assert!(last <= epoch, "flow sealed at epoch {epoch} after epoch {last}: the ledger is epoch-ordered");
        }
        let id = self.next_id();
        self.flows.push(epoch, Packed::sealed(from, to, kind, bytes));
        self.totals.sealed += 1;
        id
    }

    /// The held record of `id`; `None` for an evicted id and for
    /// [`NO_FLOW`](crate::envelope::NO_FLOW).
    pub fn get(&self, id: u64) -> Option<FlowRecord> {
        let (epoch, p) = self.flows.get(id.checked_sub(1)?)?;
        Some(p.record(id, epoch))
    }

    fn get_mut(&mut self, id: u64) -> Option<&mut Packed> {
        self.flows.get_mut(id.checked_sub(1)?)
    }

    /// Count one more transmission of `flow`; returns its record.
    ///
    /// # Panics
    /// If the ledger does not hold `flow`: a frame is only sent again
    /// within the exchange that sealed it. If the flow was already sent 255
    /// times.
    pub fn retransmit(&mut self, flow: u64) -> FlowRecord {
        let p = self
            .get_mut(flow)
            .unwrap_or_else(|| panic!("retransmission of flow {flow}, which the ledger does not hold"));
        p.attempts = narrow(u32::from(p.attempts) + 1, "attempt count");
        self.get(flow).expect("the flow is held")
    }

    /// Mark `flow` delivered by the frame with sequence `attempt`. Late
    /// duplicates of an already-resolved flow are ignored.
    ///
    /// # Panics
    /// If `attempt` is past 253, what the stored outcome's byte holds.
    pub fn deliver(&mut self, flow: u64, attempt: u32) {
        if let Some(p) = self.get_mut(flow) {
            if p.outcome == PENDING {
                let code = u8::try_from(attempt).ok().and_then(|a| a.checked_add(DELIVERED));
                p.outcome = code.unwrap_or_else(|| {
                    panic!("flow {flow} delivered on attempt {attempt}: the ledger's outcome byte holds attempts up to 253")
                });
                self.totals.delivered += 1;
            }
        }
    }

    /// Close an abandoned epoch: every flow sealed at `epoch` and still
    /// pending becomes dead-by-crash. Call before a rollback and after a
    /// completed epoch (where it sweeps flows to/from ranks that died).
    pub fn close_epoch_dead(&mut self, epoch: u64) {
        for p in self.flows.epoch_mut(epoch) {
            if p.outcome == PENDING {
                p.outcome = DEAD;
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
    fn a_stored_flow_is_16_bytes() {
        assert!(std::mem::size_of::<Packed>() <= 16);
    }

    #[test]
    fn views_assemble_ids_and_epochs() {
        let l = evicted_at_epoch_4();
        let held = l.records();
        assert_eq!((held.len(), held.first().map(|r| (r.id, r.epoch))), (3, Some((3, 4))));
        let got: Vec<_> = (0..4).map(|i| held.get(i).map(|r| (r.id, r.epoch))).collect();
        assert_eq!(got, [Some((3, 4)), Some((4, 4)), Some((5, 7)), None]);
        assert_eq!(held.iter().rev().map(|r| r.id).collect::<Vec<_>>(), [5, 4, 3]);
        for r in held.iter() {
            assert_eq!(l.get(r.id), Some(r));
            assert_eq!(l.for_epoch(r.epoch).iter().find(|x| x.id == r.id), Some(r));
        }
        let four = l.for_epoch(4);
        assert_eq!((four.len(), four.get(1).map(|r| r.bytes), four.get(2)), (2, Some(200), None));
        assert!(l.for_epoch(5).is_empty() && l.for_epoch(5).first().is_none());
        // A copy out of the ledger views the same records.
        let copies: Vec<EpochFlows> = held.copy_epochs().collect();
        assert_eq!(copies.iter().map(EpochFlows::epoch).collect::<Vec<_>>(), [4, 7]);
        assert_eq!((copies[0].view(), copies[1].view()), (four, l.for_epoch(7)));
        assert_eq!(format!("{:?}", copies[1].view()), format!("{:?}", [l.get(5).unwrap()]));
    }

    #[test]
    #[should_panic(expected = "flow `from` rank 4294967296 exceeds its 32-bit ledger field")]
    fn a_from_rank_past_u32_panics_at_seal() {
        FlowLedger::new().seal(1, 1 << 32, 0, MsgKind::Let, 8);
    }

    #[test]
    #[should_panic(expected = "flow `to` rank 4294967296 exceeds its 32-bit ledger field")]
    fn a_to_rank_past_u32_panics_at_seal() {
        FlowLedger::new().seal(1, 0, 1 << 32, MsgKind::Let, 8);
    }

    #[test]
    #[should_panic(expected = "flow payload length 4294967296 exceeds its 32-bit ledger field")]
    fn a_payload_past_u32_panics_at_seal() {
        FlowLedger::new().seal(1, 0, 1, MsgKind::Let, 1 << 32);
    }

    #[test]
    fn the_widest_fields_round_trip() {
        let mut l = FlowLedger::new();
        let max = u32::MAX as usize;
        let id = l.seal(1, max, max, MsgKind::View, max);
        l.deliver(id, 253);
        let r = l.get(id).unwrap();
        assert_eq!((r.from, r.to, r.bytes, r.kind), (max, max, max, MsgKind::View));
        assert_eq!(r.outcome, FlowOutcome::Delivered { attempt: 253 });
    }

    #[test]
    #[should_panic(expected = "delivered on attempt 254")]
    fn an_attempt_past_the_outcome_byte_panics() {
        let mut l = FlowLedger::new();
        let id = l.seal(1, 0, 1, MsgKind::Let, 8);
        l.deliver(id, 254);
    }

    #[test]
    #[should_panic(expected = "flow attempt count 256 exceeds its 8-bit ledger field")]
    fn a_256th_attempt_panics() {
        let mut l = FlowLedger::new();
        let id = l.seal(1, 0, 1, MsgKind::Let, 8);
        for _ in 0..255 {
            l.retransmit(id);
        }
    }

    #[test]
    fn outcome_labels_are_stable() {
        assert_eq!(FlowOutcome::Pending.label(), "pending");
        assert_eq!(FlowOutcome::Delivered { attempt: 2 }.label(), "delivered");
        assert_eq!(FlowOutcome::Dead.label(), "dead");
    }
}

//! Deterministic fault injection for the message fabric.
//!
//! A [`FaultPlan`] is a *seeded schedule* of faults: message-level faults
//! (drop, duplicate, reorder, delay, truncate, bit-flip) decided by a pure
//! hash of `(seed, from, to, kind, epoch, attempt)`, plus rank-level stalls
//! and hard crashes pinned to specific epochs. Because every decision is a
//! pure function of the plan and the message coordinates, the same seed
//! produces the same faults — and therefore the same [`FaultLog`] — on
//! every run, which is what makes chaos tests reproducible.
//!
//! [`Wire`] is the one value the driver holds for all of it: the raw
//! [`Endpoint`]s, the plan (applied on the send side to every first
//! transmission of a [`collective::exchange`](crate::collective::exchange)
//! and to every [`Wire::retransmit`]), the frames the plan is holding back,
//! the [`FaultLog`] and the [`FlowLedger`]. With an empty plan a send is a
//! transparent pass-through (modulo the [`envelope`](crate::envelope)
//! header sealed beside the payload), so `Cluster` runs unmodified when no
//! faults are scheduled. Nothing here is shared or locked: a collective may
//! seal and open frames on other threads, but everything it does to the
//! `&mut Wire` happens on the caller's thread.
//!
//! Injection lives here; *detection* is envelope validation on the receive
//! side ([`collective::exchange`](crate::collective::exchange)), and
//! *recovery* is driven by `bonsai-sim`'s cluster: a lost or invalid frame
//! is retransmitted within one bounded budget, and a peer silent through
//! that budget (crashed, stalled, or with every copy of one frame lost) is
//! declared dead and the cluster rolls back to its last checkpoint. Both
//! halves append to the wire's [`FaultLog`] so a run can be audited: every
//! injected fault is either recovered or explicitly surfaced. A fault, a
//! retransmission and a discard each name the flow id of the frame they
//! concern (see [`FlowLedger`]); crashes, declared deaths, restores and view
//! changes concern no frame and carry
//! [`NO_FLOW`](crate::envelope::NO_FLOW).

use crate::envelope::{kind_code, seal_header, Header};
use crate::fabric::{Endpoint, Fabric, Message, MsgKind};
use crate::flow::FlowLedger;
use bonsai_util::hash::mix_many;
use bonsai_util::sorted::equal_run;
use bytes::Bytes;

/// The kinds of fault the plan can inject.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// Message silently discarded.
    Drop,
    /// Message delivered twice.
    Duplicate,
    /// Message held back and delivered after the sender's later messages
    /// in the same phase.
    Reorder,
    /// Message held back a full epoch (arrives stale and is discarded).
    Delay,
    /// Message cut short at a deterministic length.
    Truncate,
    /// One bit of the frame flipped at a deterministic position.
    Corrupt,
    /// Rank-level: the rank's dedicated-LET sends hang for one epoch
    /// (the rank stalls mid-step, after the boundary exchange).
    Stall,
    /// Rank-level: the rank dies at the start of an epoch and sends
    /// nothing from then on until recovery replaces it.
    Crash,
}

impl FaultKind {
    /// All message-level kinds (excludes rank-level `Stall`/`Crash`).
    pub const MESSAGE_KINDS: [FaultKind; 6] = [
        FaultKind::Drop,
        FaultKind::Duplicate,
        FaultKind::Reorder,
        FaultKind::Delay,
        FaultKind::Truncate,
        FaultKind::Corrupt,
    ];
}

impl std::fmt::Display for FaultKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            FaultKind::Drop => "drop",
            FaultKind::Duplicate => "duplicate",
            FaultKind::Reorder => "reorder",
            FaultKind::Delay => "delay",
            FaultKind::Truncate => "truncate",
            FaultKind::Corrupt => "corrupt",
            FaultKind::Stall => "stall",
            FaultKind::Crash => "crash",
        };
        f.write_str(s)
    }
}

/// A forced fault pinned to exact message coordinates (used by tests to
/// guarantee coverage of every fault kind regardless of rates). `None`
/// fields match any value. A forced fault fires on the send attempts in
/// `attempts` (0 is the first send): `0..1` lets the retransmissions
/// succeed, a range through an exchange's retry budget exhausts it.
#[derive(Clone, Debug)]
pub struct Injection {
    /// Epoch the fault fires in.
    pub epoch: u64,
    /// Sending rank filter.
    pub from: Option<usize>,
    /// Receiving rank filter.
    pub to: Option<usize>,
    /// Message kind filter.
    pub kind: Option<MsgKind>,
    /// The fault to inject (message-level kinds only).
    pub fault: FaultKind,
    /// The attempts it fires on.
    pub attempts: std::ops::Range<u32>,
}

/// A seeded, deterministic schedule of faults.
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    seed: u64,
    /// `(fault, probability)` pairs; evaluated as cumulative thresholds.
    rates: Vec<(FaultKind, f64)>,
    injections: Vec<Injection>,
    crashes: Vec<(usize, u64)>,
    stalls: Vec<(usize, u64)>,
}

impl FaultPlan {
    /// A plan with the given seed and no faults scheduled.
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            ..Self::default()
        }
    }

    /// The plan's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// True when no fault can ever fire (the fast path: sends become
    /// transparent pass-throughs).
    pub fn is_empty(&self) -> bool {
        self.rates.iter().all(|&(_, r)| r == 0.0)
            && self.injections.is_empty()
            && self.crashes.is_empty()
            && self.stalls.is_empty()
    }

    /// Schedule message-level fault `fault` with probability `rate` per
    /// (message, attempt). Panics on rank-level kinds or rates outside
    /// `[0, 1]`.
    pub fn with_rate(mut self, fault: FaultKind, rate: f64) -> Self {
        assert!(
            FaultKind::MESSAGE_KINDS.contains(&fault),
            "{fault} is a rank-level fault; use crash()/stall()"
        );
        assert!((0.0..=1.0).contains(&rate), "rate {rate} outside [0, 1]");
        self.rates.push((fault, rate));
        self
    }

    /// Force a specific fault at specific message coordinates.
    pub fn with_injection(mut self, injection: Injection) -> Self {
        assert!(
            FaultKind::MESSAGE_KINDS.contains(&injection.fault),
            "{} is a rank-level fault; use crash()/stall()",
            injection.fault
        );
        self.injections.push(injection);
        self
    }

    /// Hard-crash `rank` at the start of `epoch`.
    pub fn with_crash(mut self, rank: usize, epoch: u64) -> Self {
        self.crashes.push((rank, epoch));
        self
    }

    /// Stall `rank`'s dedicated-LET sends during `epoch`.
    pub fn with_stall(mut self, rank: usize, epoch: u64) -> Self {
        self.stalls.push((rank, epoch));
        self
    }

    /// Every rank scheduled to crash at `epoch`, in ascending rank order.
    /// A correlated failure (e.g. one node hosting several ranks dying)
    /// schedules multiple crashes in the same epoch; recovery must replace
    /// all of them in one restore, not one per rollback.
    pub fn crashed_ranks(&self, epoch: u64) -> Vec<usize> {
        let mut ranks: Vec<usize> = self
            .crashes
            .iter()
            .filter(|&&(_, e)| e == epoch)
            .map(|&(r, _)| r)
            .collect();
        ranks.sort_unstable();
        ranks.dedup();
        ranks
    }

    /// Whether `rank` stalls during `epoch`.
    pub fn stalled(&self, rank: usize, epoch: u64) -> bool {
        self.stalls.contains(&(rank, epoch))
    }

    fn decision_hash(&self, from: usize, to: usize, kind: MsgKind, epoch: u64, attempt: u32) -> u64 {
        mix_many(&[
            self.seed,
            from as u64,
            to as u64,
            kind_code(kind) as u64,
            epoch,
            attempt as u64,
        ])
    }

    /// The fault (if any) to inject into this send. Pure: the same
    /// coordinates always yield the same answer. At most one fault fires
    /// per (message, attempt); forced injections take precedence on the
    /// attempts they name, then the rate table is consulted via the
    /// decision hash.
    pub fn message_fault(
        &self,
        from: usize,
        to: usize,
        kind: MsgKind,
        epoch: u64,
        attempt: u32,
    ) -> Option<FaultKind> {
        for inj in &self.injections {
            let hit = inj.epoch == epoch
                && inj.attempts.contains(&attempt)
                && inj.from.is_none_or(|f| f == from)
                && inj.to.is_none_or(|t| t == to)
                && inj.kind.is_none_or(|k| k == kind);
            if hit {
                return Some(inj.fault);
            }
        }
        if self.rates.is_empty() {
            return None;
        }
        let h = self.decision_hash(from, to, kind, epoch, attempt);
        let u = (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        let mut acc = 0.0;
        for &(fault, rate) in &self.rates {
            acc += rate;
            if u < acc {
                return Some(fault);
            }
        }
        None
    }

    /// Deterministic bit position to flip for a `Corrupt` fault on a frame
    /// of `len` bytes: `(byte index, bit mask)`.
    pub fn corrupt_position(
        &self,
        from: usize,
        to: usize,
        kind: MsgKind,
        epoch: u64,
        len: usize,
    ) -> (usize, u8) {
        let h = mix_many(&[
            self.decision_hash(from, to, kind, epoch, u32::MAX),
            len as u64,
        ]);
        ((h as usize) % len.max(1), 1 << ((h >> 32) % 8))
    }

    /// Deterministic truncated length for a `Truncate` fault on a frame of
    /// `len` bytes (always strictly shorter than `len`).
    pub fn truncate_len(
        &self,
        from: usize,
        to: usize,
        kind: MsgKind,
        epoch: u64,
        len: usize,
    ) -> usize {
        let h = mix_many(&[
            self.decision_hash(from, to, kind, epoch, u32::MAX - 1),
            len as u64,
        ]);
        (h as usize) % len.max(1)
    }
}

/// One injected fault, as recorded in the [`FaultLog`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FaultEvent {
    /// Epoch the fault fired in.
    pub epoch: u64,
    /// Sending rank.
    pub from: usize,
    /// Receiving rank (for rank-level faults, the faulty rank itself).
    pub to: usize,
    /// Kind of the affected message (`Control` for rank-level faults).
    pub kind: MsgKind,
    /// The injected fault.
    pub fault: FaultKind,
    /// Send attempt the fault applied to (0 = original transmission).
    pub attempt: u32,
    /// Flow id of the faulted frame; [`NO_FLOW`](crate::envelope::NO_FLOW)
    /// for a crash.
    pub flow: u64,
}

/// What the recovery machinery did about a detected problem.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RecoveryAction {
    /// A missing or invalid message was re-requested from its sender.
    Retransmit,
    /// A frame failed envelope validation and was discarded.
    DiscardCorrupt,
    /// A frame arrived twice and the extra copy was discarded.
    DiscardDuplicate,
    /// A frame from a previous epoch arrived late and was discarded.
    DiscardStale,
    /// A rank missed every heartbeat and retry window and was declared
    /// dead.
    DeclareDead,
    /// Cluster state was rolled back to the last checkpoint to replace a
    /// dead rank.
    RestoreCheckpoint,
    /// The membership view changed (join, graceful leave, or a dead rank
    /// excised) and the cluster re-decomposed onto the new rank set.
    ViewChange,
}

impl std::fmt::Display for RecoveryAction {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            RecoveryAction::Retransmit => "retransmit",
            RecoveryAction::DiscardCorrupt => "discard-corrupt",
            RecoveryAction::DiscardDuplicate => "discard-duplicate",
            RecoveryAction::DiscardStale => "discard-stale",
            RecoveryAction::DeclareDead => "declare-dead",
            RecoveryAction::RestoreCheckpoint => "restore-checkpoint",
            RecoveryAction::ViewChange => "view-change",
        };
        f.write_str(s)
    }
}

/// One recovery action, as recorded in the [`FaultLog`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RecoveryEvent {
    /// Epoch the action happened in.
    pub epoch: u64,
    /// Rank that acted (usually the receiver).
    pub rank: usize,
    /// The peer involved (sender of the affected message), if any.
    pub peer: Option<usize>,
    /// Kind of the affected message, if any.
    pub kind: Option<MsgKind>,
    /// What was done.
    pub action: RecoveryAction,
    /// Human-readable context (e.g. the envelope error).
    pub detail: String,
    /// Flow id of the frame the receiver is waiting on from `peer` in this
    /// round; [`NO_FLOW`](crate::envelope::NO_FLOW) when the peer owes it
    /// nothing, and for crash handling, restores and view changes.
    pub flow: u64,
}

/// Audit log of injected faults and the recovery actions taken.
///
/// Append-only and **epoch-ordered**, like the flow ledger: the driver's
/// epoch never goes back, so both lists are appended in non-decreasing
/// epoch order (asserted by [`record_fault`](Self::record_fault) and
/// [`record_recovery`](Self::record_recovery)), one epoch's events are a
/// contiguous run of each, and [`for_epoch`](Self::for_epoch) finds it
/// without reading the history.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FaultLog {
    /// Faults injected by the plan, in injection order.
    pub injected: Vec<FaultEvent>,
    /// Recovery actions, in the order they were taken.
    pub recoveries: Vec<RecoveryEvent>,
}

/// Panic unless `epoch` may follow an event stamped `last`.
fn assert_epoch_ordered(last: Option<u64>, epoch: u64) {
    if let Some(last) = last {
        assert!(
            last <= epoch,
            "fault-log event at epoch {epoch} after epoch {last}: the log is epoch-ordered"
        );
    }
}

impl FaultLog {
    /// Record an injected fault.
    ///
    /// # Panics
    /// If the event's epoch is older than the last recorded fault's.
    pub fn record_fault(&mut self, event: FaultEvent) {
        assert_epoch_ordered(self.injected.last().map(|e| e.epoch), event.epoch);
        self.injected.push(event);
    }

    /// Record a recovery action.
    ///
    /// # Panics
    /// If the event's epoch is older than the last recorded recovery's.
    pub fn record_recovery(&mut self, event: RecoveryEvent) {
        assert_epoch_ordered(self.recoveries.last().map(|e| e.epoch), event.epoch);
        self.recoveries.push(event);
    }

    /// Number of injected faults of `kind`.
    pub fn injected_of(&self, kind: FaultKind) -> usize {
        self.injected.iter().filter(|e| e.fault == kind).count()
    }

    /// Number of recovery actions of `action`.
    pub fn recoveries_of(&self, action: RecoveryAction) -> usize {
        self.recoveries.iter().filter(|e| e.action == action).count()
    }

    /// The injected faults and recovery actions of one epoch, borrowed,
    /// found by binary search: it costs that epoch's events however long
    /// the run.
    pub fn for_epoch(&self, epoch: u64) -> (&[FaultEvent], &[RecoveryEvent]) {
        (
            &self.injected[equal_run(&self.injected, epoch, |e| e.epoch)],
            &self.recoveries[equal_run(&self.recoveries, epoch, |e| e.epoch)],
        )
    }

    /// True when nothing was injected and nothing needed recovery.
    pub fn is_clean(&self) -> bool {
        self.injected.is_empty() && self.recoveries.is_empty()
    }

    /// One-line-per-event rendering for traces and reports.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for e in &self.injected {
            out.push_str(&format!(
                "[epoch {:>3}] inject  {:<9} {:?} {} -> {} (attempt {})\n",
                e.epoch, e.fault.to_string(), e.kind, e.from, e.to, e.attempt
            ));
        }
        for e in &self.recoveries {
            let peer = e.peer.map_or("-".to_string(), |p| p.to_string());
            let kind = e.kind.map_or("-".to_string(), |k| format!("{k:?}"));
            out.push_str(&format!(
                "[epoch {:>3}] recover {:<18} rank {} peer {} {} {}\n",
                e.epoch,
                e.action.to_string(),
                e.rank,
                peer,
                kind,
                e.detail
            ));
        }
        out
    }
}

/// A frame the plan holds back: receiver, kind, its header and the payload
/// buffer the header travels beside.
type Held = (usize, MsgKind, Header, Bytes);

/// The first `len` bytes of `header` followed by `body`, in a private
/// buffer: what a fault may mangle without touching a buffer another
/// receiver, or the sender's retransmission, still reads.
fn private_copy(header: &Header, body: &[u8], len: usize) -> Vec<u8> {
    let mut whole = Vec::with_capacity(len);
    whole.extend_from_slice(&header[..len.min(header.len())]);
    whole.extend_from_slice(&body[..len.saturating_sub(header.len())]);
    whole
}

/// The wire: the fabric's endpoints, the [`FaultPlan`] applied on the way
/// out, the frames the plan is holding back, and the two audit records of
/// what crossed — one value with one owner (the driver), so the log and the
/// ledger are plain data appended in the order the driver acts.
pub struct Wire {
    endpoints: Vec<Endpoint>,
    plan: FaultPlan,
    /// Per sender: frames held back by `Reorder`, delivered at the end of
    /// the send burst (i.e. after the sender's subsequent messages).
    reordered: Vec<Vec<Held>>,
    /// Per sender: frames held back by `Delay`/`Stall`, delivered at the
    /// start of the next epoch (where they arrive stale and are discarded).
    delayed: Vec<Vec<Held>>,
    /// Every injected fault and recovery action, in the order taken.
    pub log: FaultLog,
    /// The lifecycle of every envelope sealed here; ids follow send order.
    pub flows: FlowLedger,
}

impl Wire {
    /// A fresh fabric of `p` ranks under `plan`, with an empty log and
    /// ledger. With an empty plan sends are framed pass-throughs.
    pub fn new(p: usize, plan: FaultPlan) -> Self {
        Self {
            endpoints: Fabric::new(p),
            plan,
            reordered: vec![Vec::new(); p],
            delayed: vec![Vec::new(); p],
            log: FaultLog::default(),
            flows: FlowLedger::default(),
        }
    }

    /// Replace the fabric with a fresh one spanning `p` ranks. Frames still
    /// queued or held back go with the old one; plan, log and ledger carry
    /// over (fault decisions are pure functions of the monotone epoch, so
    /// determinism survives the rebuild).
    pub fn resize(&mut self, p: usize) {
        self.endpoints = Fabric::new(p);
        self.reordered = vec![Vec::new(); p];
        self.delayed = vec![Vec::new(); p];
    }

    /// Number of ranks the fabric spans.
    pub fn world(&self) -> usize {
        self.endpoints.len()
    }

    /// The fault plan in force.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Seal `payload` as a fresh flow and send it `from` → `to`, applying
    /// the fault plan: a stray frame beside an exchange. Returns the flow id
    /// the frame carries.
    #[cfg(test)]
    pub(crate) fn send_framed(&mut self, from: usize, to: usize, kind: MsgKind, epoch: u64, payload: &[u8]) -> u64 {
        let flow = self.flows.next_id();
        let header = seal_header(kind, from, epoch, flow, 0, payload);
        self.send_sealed(from, to, kind, epoch, flow, (header, Bytes::copy_from_slice(payload)));
        flow
    }

    /// Send `payload` again as transmission `attempt` (1 for the first
    /// retransmission) of `flow`, to the receiver and under the epoch the
    /// flow was sealed with, applying the fault plan. A new header is sealed
    /// beside the same buffer; the payload is not copied.
    ///
    /// # Panics
    /// If the ledger does not hold `flow`.
    pub fn retransmit(&mut self, flow: u64, attempt: u32, payload: Bytes) {
        let r = self.flows.retransmit(flow);
        let header = seal_header(r.kind, r.from, r.epoch, flow, attempt, &payload);
        self.transmit(flow, attempt, header, payload);
    }

    /// The effects of a first transmission whose header was sealed
    /// elsewhere (possibly on another thread) under `flow`: record the flow
    /// in the ledger, then apply the plan and send `header` beside `body`.
    ///
    /// # Panics
    /// If `flow` is not the id the ledger hands out next: ids follow send
    /// order, so the sealer must have been handed them in that order.
    pub(crate) fn send_sealed(
        &mut self,
        from: usize,
        to: usize,
        kind: MsgKind,
        epoch: u64,
        flow: u64,
        (header, body): (Header, Bytes),
    ) {
        let id = self.flows.seal(epoch, from, to, kind, body.len());
        assert_eq!(id, flow, "frame sealed under flow {flow}, sent as flow {id}");
        self.transmit(flow, 0, header, body);
    }

    /// Apply the plan to transmission `attempt` of `flow`, `header` sealed
    /// beside `body`: put it on the wire, hold it back, mangle or drop it,
    /// and log the fault under the flow's id. A buffer is only ever shared,
    /// never written: truncation and corruption mangle a private contiguous
    /// copy of the same bytes, so the other receivers of a shared payload
    /// and the sender's retransmission read the bytes that were sealed.
    fn transmit(&mut self, flow: u64, attempt: u32, header: Header, body: Bytes) {
        let r = self.flows.get(flow).expect("a frame is sent under a flow the ledger holds");
        let (epoch, from, to, kind) = (r.epoch, r.from, r.to, r.kind);
        let fault = if self.plan.is_empty() {
            None
        } else if kind == MsgKind::Let && self.plan.stalled(from, epoch) {
            // A stalled rank's dedicated-LET sends hang until the next epoch.
            Some(FaultKind::Stall)
        } else {
            self.plan.message_fault(from, to, kind, epoch, attempt)
        };
        let Some(fault) = fault else {
            self.endpoints[from].send_frame(to, kind, Some(header), body);
            return;
        };
        self.log.record_fault(FaultEvent { epoch, from, to, kind, fault, attempt, flow });
        let ep = &self.endpoints[from];
        let len = header.len() + body.len();
        match fault {
            FaultKind::Drop => {}
            FaultKind::Duplicate => {
                ep.send_frame(to, kind, Some(header), body.clone());
                ep.send_frame(to, kind, Some(header), body);
            }
            FaultKind::Reorder => self.reordered[from].push((to, kind, header, body)),
            FaultKind::Delay | FaultKind::Stall => self.delayed[from].push((to, kind, header, body)),
            FaultKind::Truncate => {
                let cut = self.plan.truncate_len(from, to, kind, epoch, len);
                ep.send(to, kind, Bytes::from(private_copy(&header, &body, cut)));
            }
            FaultKind::Corrupt => {
                let (byte, mask) = self.plan.corrupt_position(from, to, kind, epoch, len);
                let mut bad = private_copy(&header, &body, len);
                bad[byte] ^= mask;
                ep.send(to, kind, Bytes::from(bad));
            }
            FaultKind::Crash => unreachable!("crash cannot be a message fault"),
        }
    }

    /// Deliver the frames of `from` held back by `Reorder`. Call at the end
    /// of a send burst so they arrive after the sender's later messages.
    pub fn flush_reordered(&mut self, from: usize) {
        for (to, kind, header, body) in self.reordered[from].drain(..) {
            self.endpoints[from].send_frame(to, kind, Some(header), body);
        }
    }

    /// Deliver every rank's frames held back by `Delay`/`Stall`, sender
    /// ascending. Call at the start of a new epoch; the frames carry their
    /// original (now stale) epoch and are discarded by receive-side
    /// validation.
    pub fn flush_delayed(&mut self) {
        for (ep, held) in self.endpoints.iter().zip(&mut self.delayed) {
            for (to, kind, header, body) in held.drain(..) {
                ep.send_frame(to, kind, Some(header), body);
            }
        }
    }

    /// Non-blocking receive of the next raw frame queued for `rank`.
    pub fn try_recv(&self, rank: usize) -> Option<Message> {
        self.endpoints[rank].try_recv()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::envelope::{open, NO_FLOW};

    /// Ranks 0 and 1 under `plan`; every test sends 0 → 1.
    fn pair(plan: FaultPlan) -> Wire {
        Wire::new(2, plan)
    }

    /// The next frame queued for `rank`, header and payload in one buffer.
    fn frame_for(w: &Wire, rank: usize) -> Vec<u8> {
        let m = w.try_recv(rank).expect("a frame is queued");
        let (header, payload) = m.parts();
        [header, payload].concat()
    }

    /// The next frame queued for rank 1.
    fn recv(w: &Wire) -> Vec<u8> {
        frame_for(w, 1)
    }

    #[test]
    fn empty_plan_is_transparent() {
        let mut w = pair(FaultPlan::new(1));
        w.send_framed(0, 1, MsgKind::Control, 5, b"payload");
        let m = recv(&w);
        let env = open(&m).unwrap();
        assert_eq!(env.payload, b"payload");
        assert_eq!(env.epoch, 5);
        assert_eq!(env.from, 0);
        assert!(w.log.is_clean());
    }

    fn recovery(epoch: u64) -> RecoveryEvent {
        RecoveryEvent {
            epoch,
            rank: 0,
            peer: None,
            kind: None,
            action: RecoveryAction::DiscardStale,
            detail: String::new(),
            flow: NO_FLOW,
        }
    }

    #[test]
    fn for_epoch_equals_the_filtered_log() {
        let mut log = FaultLog::default();
        for epoch in [2, 2, 5, 9] {
            log.record_recovery(recovery(epoch));
            log.record_fault(FaultEvent {
                epoch,
                from: 0,
                to: 1,
                kind: MsgKind::Let,
                fault: FaultKind::Drop,
                attempt: 0,
                flow: 1,
            });
        }
        for epoch in 0..=10 {
            let injected: Vec<_> = log.injected.iter().filter(|e| e.epoch == epoch).cloned().collect();
            let recoveries: Vec<_> =
                log.recoveries.iter().filter(|e| e.epoch == epoch).cloned().collect();
            assert_eq!(log.for_epoch(epoch), (&injected[..], &recoveries[..]));
        }
        assert_eq!(log.for_epoch(2).1.len(), 2);
    }

    #[test]
    #[should_panic(expected = "the log is epoch-ordered")]
    fn recording_an_older_epoch_panics() {
        let mut log = FaultLog::default();
        log.record_recovery(recovery(5));
        log.record_recovery(recovery(4));
    }

    #[test]
    fn forced_drop_suppresses_delivery_and_logs() {
        let plan = FaultPlan::new(2).with_injection(Injection {
            epoch: 1,
            from: Some(0),
            to: Some(1),
            kind: None,
            fault: FaultKind::Drop,
            attempts: 0..1,
        });
        let mut w = pair(plan);
        let flow = w.send_framed(0, 1, MsgKind::Let, 1, b"x");
        assert!(w.try_recv(1).is_none());
        // Retransmission (attempt 1) bypasses the first-attempt injection.
        w.retransmit(flow, 1, Bytes::from_static(b"x"));
        let m = recv(&w);
        let env = open(&m).unwrap();
        assert_eq!((env.flow, env.seq), (flow, 1));
        assert_eq!(w.log.injected_of(FaultKind::Drop), 1);
        assert_eq!((w.log.injected[0].flow, w.flows.get(flow).unwrap().attempts), (flow, 2));
    }

    #[test]
    fn corrupt_and_truncate_are_detected_by_envelope() {
        for fault in [FaultKind::Corrupt, FaultKind::Truncate] {
            let plan = FaultPlan::new(3).with_injection(Injection {
                epoch: 0,
                from: None,
                to: None,
                kind: None,
                fault,
                attempts: 0..1,
            });
            let mut w = pair(plan);
            w.send_framed(0, 1, MsgKind::Boundary, 0, &[7u8; 256]);
            assert!(open(&recv(&w)).is_err(), "{fault} not detected");
        }
    }

    #[test]
    fn duplicate_delivers_twice() {
        let plan = FaultPlan::new(4).with_injection(Injection {
            epoch: 0,
            from: None,
            to: None,
            kind: None,
            fault: FaultKind::Duplicate,
            attempts: 0..1,
        });
        let mut w = pair(plan);
        w.send_framed(0, 1, MsgKind::Particles, 0, b"p");
        assert!(w.try_recv(1).is_some());
        assert!(w.try_recv(1).is_some());
        assert!(w.try_recv(1).is_none());
    }

    #[test]
    fn delay_arrives_stale_next_epoch() {
        let plan = FaultPlan::new(5).with_injection(Injection {
            epoch: 3,
            from: None,
            to: None,
            kind: None,
            fault: FaultKind::Delay,
            attempts: 0..1,
        });
        let mut w = pair(plan);
        w.send_framed(0, 1, MsgKind::Control, 3, b"late");
        assert!(w.try_recv(1).is_none());
        w.flush_delayed();
        let m = recv(&w);
        let env = open(&m).unwrap();
        assert_eq!(env.epoch, 3, "delayed frame keeps its original epoch");
    }

    #[test]
    fn reorder_flushes_after_later_sends() {
        let plan = FaultPlan::new(6).with_injection(Injection {
            epoch: 0,
            from: None,
            to: None,
            kind: Some(MsgKind::Let),
            fault: FaultKind::Reorder,
            attempts: 0..1,
        });
        let mut w = pair(plan);
        w.send_framed(0, 1, MsgKind::Let, 0, b"first");
        w.send_framed(0, 1, MsgKind::Control, 0, b"second");
        w.flush_reordered(0);
        let a = open(&recv(&w)).unwrap().payload.to_vec();
        let b = open(&recv(&w)).unwrap().payload.to_vec();
        assert_eq!(a, b"second");
        assert_eq!(b, b"first");
    }

    #[test]
    fn stall_holds_let_but_not_control() {
        let plan = FaultPlan::new(7).with_stall(0, 2);
        let mut w = pair(plan);
        w.send_framed(0, 1, MsgKind::Control, 2, b"heartbeat");
        w.send_framed(0, 1, MsgKind::Let, 2, b"let");
        assert_eq!(open(&recv(&w)).unwrap().payload, b"heartbeat");
        assert!(w.try_recv(1).is_none(), "LET send must hang while stalled");
        assert_eq!(w.log.injected_of(FaultKind::Stall), 1);
    }

    #[test]
    fn resize_drops_queued_and_held_back_frames_and_keeps_plan_log_and_ledger() {
        let forced = |kind, fault| Injection {
            epoch: 4,
            from: Some(0),
            to: Some(1),
            kind: Some(kind),
            fault,
            attempts: 0..1,
        };
        let plan = FaultPlan::new(8)
            .with_injection(forced(MsgKind::View, FaultKind::Delay))
            .with_injection(forced(MsgKind::Particles, FaultKind::Reorder))
            .with_stall(0, 4);
        let mut w = pair(plan);
        w.send_framed(0, 1, MsgKind::View, 4, b"delayed");
        w.send_framed(0, 1, MsgKind::Particles, 4, b"reordered");
        w.send_framed(0, 1, MsgKind::Let, 4, b"stalled");
        w.send_framed(0, 1, MsgKind::Control, 4, b"queued");
        let (log, flows) = (w.log.clone(), w.flows.clone());
        assert_eq!((log.injected.len(), flows.len()), (3, 4));

        w.resize(3);
        assert_eq!(w.world(), 3);
        w.flush_reordered(0);
        w.flush_delayed();
        assert!((0..3).all(|r| w.try_recv(r).is_none()), "a frame outlived its fabric");
        assert_eq!((&w.log, &w.flows), (&log, &flows), "resize touched the books");
        // The plan carried over, and flow ids carry on where they were.
        assert!(w.plan().stalled(0, 4));
        assert_eq!(w.send_framed(2, 0, MsgKind::Control, 5, b"next"), 5);
        assert_eq!(open(&frame_for(&w, 0)).unwrap().from, 2);
    }

    #[test]
    fn plan_decisions_are_deterministic() {
        let a = FaultPlan::new(99)
            .with_rate(FaultKind::Drop, 0.2)
            .with_rate(FaultKind::Corrupt, 0.2);
        let b = a.clone();
        for epoch in 0..50 {
            for attempt in 0..3 {
                assert_eq!(
                    a.message_fault(0, 1, MsgKind::Let, epoch, attempt),
                    b.message_fault(0, 1, MsgKind::Let, epoch, attempt)
                );
            }
        }
    }

    #[test]
    fn rates_hit_roughly_proportionally() {
        let plan = FaultPlan::new(11).with_rate(FaultKind::Drop, 0.25);
        let mut hits = 0;
        let trials = 4000;
        for epoch in 0..trials {
            if plan.message_fault(0, 1, MsgKind::Control, epoch, 0).is_some() {
                hits += 1;
            }
        }
        let frac = hits as f64 / trials as f64;
        assert!((0.18..0.32).contains(&frac), "drop rate {frac} far from 0.25");
    }

    #[test]
    fn crash_and_stall_schedules() {
        let plan = FaultPlan::new(0).with_crash(2, 7).with_stall(1, 3);
        assert_eq!(plan.crashed_ranks(7), [2]);
        assert!(plan.crashed_ranks(6).is_empty());
        assert!(plan.stalled(1, 3));
        assert!(!plan.stalled(1, 4));
        assert!(!plan.is_empty());
        assert!(FaultPlan::new(123).is_empty());
    }
}

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
//! [`FaultyEndpoint`] wraps a plain [`Endpoint`] and applies the plan on
//! the send side. With an empty plan it is a transparent pass-through
//! (modulo sealing payloads in [`envelope`](crate::envelope) frames), so
//! `Cluster` and the live-mode driver run unmodified when no faults are
//! scheduled.
//!
//! Injection lives here; *detection* is envelope validation on the receive
//! side, and *recovery* (retransmit with bounded attempts, boundary-tree
//! fallback for lost LETs, checkpoint restore for crashed ranks) is driven
//! by `bonsai-sim`'s cluster. Both halves append to the shared [`FaultLog`]
//! so a run can be audited: every injected fault is either recovered or
//! explicitly surfaced.

use crate::envelope::{kind_code, seal_flow};
use crate::fabric::{Endpoint, Message, MsgKind};
use crate::flow::SharedFlowLedger;
use bonsai_util::hash::mix_many;
use bonsai_util::sorted::equal_run;
use bytes::Bytes;
use std::sync::{Arc, Mutex};

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
/// fields match any value. Forced faults fire on first-attempt sends only,
/// so retransmissions can succeed.
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

    /// True when no fault can ever fire (the fast path: endpoints become
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
    /// per (message, attempt); forced injections take precedence on first
    /// attempts, then the rate table is consulted via the decision hash.
    pub fn message_fault(
        &self,
        from: usize,
        to: usize,
        kind: MsgKind,
        epoch: u64,
        attempt: u32,
    ) -> Option<FaultKind> {
        if attempt == 0 {
            for inj in &self.injections {
                let hit = inj.epoch == epoch
                    && inj.from.map_or(true, |f| f == from)
                    && inj.to.map_or(true, |t| t == to)
                    && inj.kind.map_or(true, |k| k == kind);
                if hit {
                    return Some(inj.fault);
                }
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
    /// A dedicated LET never arrived; the receiver fell back to walking
    /// the sender's already-held boundary tree (graceful degradation).
    BoundaryFallback,
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
            RecoveryAction::BoundaryFallback => "boundary-fallback",
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
}

/// Audit log of injected faults and the recovery actions taken.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FaultLog {
    /// Faults injected by the plan, in injection order.
    pub injected: Vec<FaultEvent>,
    /// Recovery actions, in the order they were taken.
    pub recoveries: Vec<RecoveryEvent>,
}

impl FaultLog {
    /// Number of injected faults of `kind`.
    pub fn injected_of(&self, kind: FaultKind) -> usize {
        self.injected.iter().filter(|e| e.fault == kind).count()
    }

    /// Number of recovery actions of `action`.
    pub fn recoveries_of(&self, action: RecoveryAction) -> usize {
        self.recoveries.iter().filter(|e| e.action == action).count()
    }

    /// Events restricted to one epoch (used to attach per-step slices to
    /// step measurements).
    pub fn for_epoch(&self, epoch: u64) -> FaultLog {
        FaultLog {
            injected: self
                .injected
                .iter()
                .filter(|e| e.epoch == epoch)
                .cloned()
                .collect(),
            recoveries: self
                .recoveries
                .iter()
                .filter(|e| e.epoch == epoch)
                .cloned()
                .collect(),
        }
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

/// A [`FaultLog`] shared between endpoints and the recovery machinery.
///
/// Append-only and **epoch-ordered**, like the flow ledger: the driver's
/// epoch never goes back, so both lists are appended in non-decreasing
/// epoch order (asserted), one epoch's events are a contiguous run of each,
/// and [`SharedFaultLog::for_epoch`] finds it without reading the history.
#[derive(Clone, Default)]
pub struct SharedFaultLog(Arc<Mutex<FaultLog>>);

/// Panic unless `epoch` may follow an event stamped `last`.
fn assert_epoch_ordered(last: Option<u64>, epoch: u64) {
    if let Some(last) = last {
        assert!(
            last <= epoch,
            "fault-log event at epoch {epoch} after epoch {last}: the log is epoch-ordered"
        );
    }
}

impl SharedFaultLog {
    /// Fresh empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record an injected fault.
    ///
    /// # Panics
    /// If the event's epoch is older than the last recorded fault's.
    pub fn record_fault(&self, event: FaultEvent) {
        let mut log = self.0.lock().unwrap();
        assert_epoch_ordered(log.injected.last().map(|e| e.epoch), event.epoch);
        log.injected.push(event);
    }

    /// Record a recovery action.
    ///
    /// # Panics
    /// If the event's epoch is older than the last recorded recovery's.
    pub fn record_recovery(&self, event: RecoveryEvent) {
        let mut log = self.0.lock().unwrap();
        assert_epoch_ordered(log.recoveries.last().map(|e| e.epoch), event.epoch);
        log.recoveries.push(event);
    }

    /// Copy of the events of one epoch — [`FaultLog::for_epoch`] of the
    /// whole log, found by binary search instead of a scan and a copy of
    /// every event since construction.
    pub fn for_epoch(&self, epoch: u64) -> FaultLog {
        let log = self.0.lock().unwrap();
        FaultLog {
            injected: log.injected[equal_run(&log.injected, epoch, |e| e.epoch)].to_vec(),
            recoveries: log.recoveries[equal_run(&log.recoveries, epoch, |e| e.epoch)].to_vec(),
        }
    }

    /// Copy of the full log (every event since construction): for
    /// end-of-run accessors and tests, never for per-step work.
    pub fn snapshot(&self) -> FaultLog {
        self.0.lock().unwrap().clone()
    }
}

/// An [`Endpoint`] that seals outgoing payloads in envelopes and applies a
/// [`FaultPlan`] on the way out. With an empty plan the wrapper is a
/// transparent framed pass-through.
pub struct FaultyEndpoint {
    ep: Endpoint,
    plan: Arc<FaultPlan>,
    log: SharedFaultLog,
    flows: SharedFlowLedger,
    /// Frames held back by `Reorder`, delivered at the end of the send
    /// burst (i.e. after the sender's subsequent messages).
    reordered: Vec<(usize, MsgKind, Bytes)>,
    /// Frames held back by `Delay`/`Stall`, delivered at the start of the
    /// next epoch (where they arrive stale and are discarded).
    delayed: Vec<(usize, MsgKind, Bytes)>,
}

impl FaultyEndpoint {
    /// Wrap `ep` with the given plan, shared log and shared flow ledger.
    /// Every endpoint of one cluster shares a single ledger so flow ids are
    /// assigned globally in driver-thread send order.
    pub fn new(
        ep: Endpoint,
        plan: Arc<FaultPlan>,
        log: SharedFaultLog,
        flows: SharedFlowLedger,
    ) -> Self {
        Self {
            ep,
            plan,
            log,
            flows,
            reordered: Vec::new(),
            delayed: Vec::new(),
        }
    }

    /// This rank's id.
    pub fn rank(&self) -> usize {
        self.ep.rank
    }

    /// Number of ranks.
    pub fn world(&self) -> usize {
        self.ep.world
    }

    /// The shared fault log.
    pub fn log(&self) -> &SharedFaultLog {
        &self.log
    }

    /// The shared flow ledger.
    pub fn flows(&self) -> &SharedFlowLedger {
        &self.flows
    }

    /// Seal `payload` in an envelope and send it to `to`, applying the
    /// fault plan. `attempt` is 0 for the original transmission and
    /// increments on each retransmission. Returns the ledger flow id the
    /// frame carries: attempt 0 seals a fresh flow, retransmissions re-use
    /// the open flow on the same `(epoch, from, to, kind)` coordinate.
    pub fn send_framed(
        &mut self,
        to: usize,
        kind: MsgKind,
        epoch: u64,
        attempt: u32,
        payload: &[u8],
    ) -> u64 {
        let flow = if attempt == 0 {
            self.flows.seal(epoch, self.ep.rank, to, kind, payload.len())
        } else {
            self.flows
                .retransmit_latest(epoch, self.ep.rank, to, kind, payload.len())
        };
        let frame = seal_flow(kind, self.ep.rank, epoch, flow, attempt, payload);
        if self.plan.is_empty() {
            self.ep.send(to, kind, frame);
            return flow;
        }

        // A stalled rank's dedicated-LET sends hang until the next epoch.
        if kind == MsgKind::Let && self.plan.stalled(self.ep.rank, epoch) {
            self.record(to, kind, epoch, attempt, flow, FaultKind::Stall);
            self.delayed.push((to, kind, frame));
            return flow;
        }

        match self.plan.message_fault(self.ep.rank, to, kind, epoch, attempt) {
            None => self.ep.send(to, kind, frame),
            Some(FaultKind::Drop) => {
                self.record(to, kind, epoch, attempt, flow, FaultKind::Drop);
            }
            Some(FaultKind::Duplicate) => {
                self.record(to, kind, epoch, attempt, flow, FaultKind::Duplicate);
                self.ep.send(to, kind, frame.clone());
                self.ep.send(to, kind, frame);
            }
            Some(FaultKind::Reorder) => {
                self.record(to, kind, epoch, attempt, flow, FaultKind::Reorder);
                self.reordered.push((to, kind, frame));
            }
            Some(FaultKind::Delay) => {
                self.record(to, kind, epoch, attempt, flow, FaultKind::Delay);
                self.delayed.push((to, kind, frame));
            }
            Some(FaultKind::Truncate) => {
                self.record(to, kind, epoch, attempt, flow, FaultKind::Truncate);
                let cut = self
                    .plan
                    .truncate_len(self.ep.rank, to, kind, epoch, frame.len());
                self.ep
                    .send(to, kind, Bytes::copy_from_slice(&frame[..cut]));
            }
            Some(FaultKind::Corrupt) => {
                self.record(to, kind, epoch, attempt, flow, FaultKind::Corrupt);
                let (byte, mask) = self
                    .plan
                    .corrupt_position(self.ep.rank, to, kind, epoch, frame.len());
                let mut bad = frame.to_vec();
                bad[byte] ^= mask;
                self.ep.send(to, kind, Bytes::from(bad));
            }
            Some(rank_level) => unreachable!("{rank_level} cannot be a message fault"),
        }
        flow
    }

    fn record(&self, to: usize, kind: MsgKind, epoch: u64, attempt: u32, flow: u64, fault: FaultKind) {
        self.log.record_fault(FaultEvent {
            epoch,
            from: self.ep.rank,
            to,
            kind,
            fault,
            attempt,
        });
        self.flows.inject(flow, attempt, fault);
    }

    /// Deliver frames held back by `Reorder`. Call at the end of a send
    /// burst so they arrive after the sender's later messages.
    pub fn flush_reordered(&mut self) {
        for (to, kind, frame) in std::mem::take(&mut self.reordered) {
            self.ep.send(to, kind, frame);
        }
    }

    /// Deliver frames held back by `Delay`/`Stall`. Call at the start of a
    /// new epoch; the frames carry their original (now stale) epoch and
    /// are discarded by receive-side validation.
    pub fn flush_delayed(&mut self) {
        for (to, kind, frame) in std::mem::take(&mut self.delayed) {
            self.ep.send(to, kind, frame);
        }
    }

    /// Non-blocking receive of the next raw frame.
    pub fn try_recv(&self) -> Option<Message> {
        self.ep.try_recv()
    }

    /// Blocking receive of the next raw frame.
    pub fn recv(&self) -> Message {
        self.ep.recv()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::envelope::open;
    use crate::fabric::Fabric;

    fn pair(plan: FaultPlan) -> (FaultyEndpoint, FaultyEndpoint, SharedFaultLog) {
        let mut eps = Fabric::new(2);
        let log = SharedFaultLog::new();
        let flows = SharedFlowLedger::new();
        let plan = Arc::new(plan);
        let e1 = FaultyEndpoint::new(eps.pop().unwrap(), plan.clone(), log.clone(), flows.clone());
        let e0 = FaultyEndpoint::new(eps.pop().unwrap(), plan, log.clone(), flows);
        (e0, e1, log)
    }

    #[test]
    fn empty_plan_is_transparent() {
        let (mut e0, e1, log) = pair(FaultPlan::new(1));
        e0.send_framed(1, MsgKind::Control, 5, 0, b"payload");
        let m = e1.recv();
        let env = open(&m.payload).unwrap();
        assert_eq!(env.payload, b"payload");
        assert_eq!(env.epoch, 5);
        assert_eq!(env.from, 0);
        assert!(log.snapshot().is_clean());
    }

    fn recovery(epoch: u64) -> RecoveryEvent {
        RecoveryEvent {
            epoch,
            rank: 0,
            peer: None,
            kind: None,
            action: RecoveryAction::DiscardStale,
            detail: String::new(),
        }
    }

    #[test]
    fn shared_log_for_epoch_equals_the_filtered_log() {
        let log = SharedFaultLog::new();
        for epoch in [2, 2, 5, 9] {
            log.record_recovery(recovery(epoch));
        }
        for epoch in 0..=10 {
            assert_eq!(log.for_epoch(epoch), log.snapshot().for_epoch(epoch));
        }
        assert_eq!(log.for_epoch(2).recoveries.len(), 2);
    }

    #[test]
    #[should_panic(expected = "the log is epoch-ordered")]
    fn recording_an_older_epoch_panics() {
        let log = SharedFaultLog::new();
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
        });
        let (mut e0, e1, log) = pair(plan);
        e0.send_framed(1, MsgKind::Let, 1, 0, b"x");
        assert!(e1.try_recv().is_none());
        // Retransmission (attempt 1) bypasses the first-attempt injection.
        e0.send_framed(1, MsgKind::Let, 1, 1, b"x");
        assert!(e1.try_recv().is_some());
        let snap = log.snapshot();
        assert_eq!(snap.injected_of(FaultKind::Drop), 1);
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
            });
            let (mut e0, e1, _log) = pair(plan);
            e0.send_framed(1, MsgKind::Boundary, 0, 0, &[7u8; 256]);
            let m = e1.recv();
            assert!(open(&m.payload).is_err(), "{fault} not detected");
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
        });
        let (mut e0, e1, _log) = pair(plan);
        e0.send_framed(1, MsgKind::Particles, 0, 0, b"p");
        assert!(e1.try_recv().is_some());
        assert!(e1.try_recv().is_some());
        assert!(e1.try_recv().is_none());
    }

    #[test]
    fn delay_arrives_stale_next_epoch() {
        let plan = FaultPlan::new(5).with_injection(Injection {
            epoch: 3,
            from: None,
            to: None,
            kind: None,
            fault: FaultKind::Delay,
        });
        let (mut e0, e1, _log) = pair(plan);
        e0.send_framed(1, MsgKind::Control, 3, 0, b"late");
        assert!(e1.try_recv().is_none());
        e0.flush_delayed();
        let m = e1.recv().payload;
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
        });
        let (mut e0, e1, _log) = pair(plan);
        e0.send_framed(1, MsgKind::Let, 0, 0, b"first");
        e0.send_framed(1, MsgKind::Control, 0, 0, b"second");
        e0.flush_reordered();
        let a = open(&e1.recv().payload).unwrap().payload.to_vec();
        let b = open(&e1.recv().payload).unwrap().payload.to_vec();
        assert_eq!(a, b"second");
        assert_eq!(b, b"first");
    }

    #[test]
    fn stall_holds_let_but_not_control() {
        let plan = FaultPlan::new(7).with_stall(0, 2);
        let (mut e0, e1, log) = pair(plan);
        e0.send_framed(1, MsgKind::Control, 2, 0, b"heartbeat");
        e0.send_framed(1, MsgKind::Let, 2, 0, b"let");
        let m = e1.recv();
        assert_eq!(open(&m.payload).unwrap().payload, b"heartbeat");
        assert!(e1.try_recv().is_none(), "LET send must hang while stalled");
        assert_eq!(log.snapshot().injected_of(FaultKind::Stall), 1);
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

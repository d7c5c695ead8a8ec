//! The one validated collective every inter-rank exchange rides on.
//!
//! The paper's step is a fixed sequence of collectives — bounds allreduce,
//! particle exchange, boundary allgatherv, LET exchange (§III-B, Table II) —
//! and the membership gossip adds one more. Over a fabric that may drop,
//! duplicate, reorder, delay, truncate and corrupt frames they all need the
//! same protocol, written here once: every member sends what it owes, every
//! member drains its endpoint and validates each frame (envelope, epoch,
//! kind, sender, duplicate, semantic `parse`), and whatever is still missing
//! is re-requested a bounded number of times. What a caller does about a
//! peer that stays silent — degrade, or declare it dead — is its own
//! business; [`exchange`] only reports the pairs.
//!
//! Both sides are sparse. The sender side is an [`Outbox`] per rank: one
//! payload for everybody, or a short list of `(to, payload)`. The receiver
//! side comes back as one `(from, value)` list per rank, ascending by
//! sender. Nothing is dense in the world size.
//!
//! # Order contract
//!
//! The [`FaultPlan`](crate::fault::FaultPlan)'s decisions are a pure function
//! of message coordinates, but flow ids are handed out in send order and the
//! [`FaultLog`] is appended in drain order, so every byte-deterministic
//! artifact hangs on the order of operations here:
//!
//! 1. first transmissions leave sender-ascending, receiver-ascending, with
//!    the sender's reordered frames flushed after its burst;
//! 2. endpoints are drained receiver-ascending, each to exhaustion;
//! 3. retransmissions leave in `(to, from)` order — the order of
//!    [`Exchanged::missing`] — followed by a flush of every member.
//!
//! It all runs on the caller's thread, over the one `&mut` [`Wire`] the
//! driver owns: log and ledger are plain values, and this order is the only
//! thing that makes them deterministic. Sealing per sender and draining per
//! receiver are independent across ranks; running them as rank-level tasks
//! means splitting `&mut Wire` into per-rank send halves (a rank's endpoint,
//! its held-back queues, a flow buffer) and drain halves (its inbox, a
//! recovery buffer), and merging the buffers into log and ledger in this
//! order. Nothing stands between that split and the type any more — no lock,
//! no shared handle.

use crate::envelope;
use crate::fabric::MsgKind;
use crate::fault::{FaultLog, RecoveryAction, RecoveryEvent, Wire};
use bytes::Bytes;

/// What one rank owes its peers in a collective.
#[derive(Clone, Debug)]
pub enum Outbox {
    /// Nothing: the rank is dead or has no part in the sending side.
    Silent,
    /// The same payload to every other member (an allreduce or allgather
    /// leg).
    Broadcast(Bytes),
    /// Distinct payloads to some peers, ascending by receiver.
    To(Vec<(usize, Bytes)>),
}

impl Outbox {
    fn owed_to(&self, to: usize) -> Option<&Bytes> {
        match self {
            Outbox::Silent => None,
            Outbox::Broadcast(payload) => Some(payload),
            Outbox::To(list) => received_from(list, to),
        }
    }
}

/// Whom each receiver waits for.
#[derive(Clone, Copy, Debug)]
pub enum Expect<'a> {
    /// Every other member.
    AllPeers,
    /// `lists[to]`: the senders rank `to` waits for, ascending.
    From(&'a [Vec<usize>]),
}

impl Expect<'_> {
    fn includes(&self, members: &[usize], to: usize, from: usize) -> bool {
        match self {
            Expect::AllPeers => from != to && members.binary_search(&from).is_ok(),
            Expect::From(lists) => lists[to].binary_search(&from).is_ok(),
        }
    }

    fn for_each_sender(&self, members: &[usize], to: usize, f: impl FnMut(usize)) {
        match self {
            Expect::AllPeers => members.iter().copied().filter(|&m| m != to).for_each(f),
            Expect::From(lists) => lists[to].iter().copied().for_each(f),
        }
    }
}

/// Why `parse` refused a payload that passed envelope validation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Reject {
    /// Well-formed but about a state that no longer holds; logged as
    /// [`RecoveryAction::DiscardStale`].
    Stale(String),
    /// Does not decode or breaks an invariant; logged as
    /// [`RecoveryAction::DiscardCorrupt`].
    Corrupt(String),
}

/// The coordinates of one collective and the words its discards are logged
/// with (the fault log is an audited text; each caller keeps its phrasing).
#[derive(Clone, Copy, Debug)]
pub struct Round<'a> {
    /// Kind every frame of this collective carries.
    pub kind: MsgKind,
    /// Epoch the collective runs in; frames from any other are stale.
    pub epoch: u64,
    /// Retransmission rounds before giving up on a missing payload.
    pub max_retries: u32,
    /// Subject of "`{stale_frame}` from epoch N".
    pub stale_frame: &'a str,
    /// Tail of "late K frame during `{during}`".
    pub during: &'a str,
    /// Detail for a frame from a rank the receiver does not expect.
    pub stranger: &'a str,
    /// Detail for a second valid copy of an accepted payload.
    pub duplicate: &'a str,
}

/// What a collective delivered.
#[derive(Debug)]
pub struct Exchanged<T> {
    /// `received[to]`: the values rank `to` accepted, as `(from, value)`
    /// ascending by sender. Indexed by rank; empty for non-members.
    pub received: Vec<Vec<(usize, T)>>,
    /// `(to, from)` pairs still missing after the last attempt, in
    /// ascending order.
    pub missing: Vec<(usize, usize)>,
    /// Payload bytes sent again to recover lost or invalid frames.
    pub retransmit_bytes: usize,
}

impl<T> Exchanged<T> {
    /// For collectives that must complete: everything received, or the
    /// sender of the first missing pair — the rank to declare dead.
    pub fn complete(self) -> Result<Vec<Vec<(usize, T)>>, usize> {
        match self.missing.first() {
            Some(&(_, from)) => Err(from),
            None => Ok(self.received),
        }
    }
}

/// The entry for `peer` in a list kept ascending by peer.
pub fn received_from<T>(list: &[(usize, T)], peer: usize) -> Option<&T> {
    list.binary_search_by_key(&peer, |e| e.0)
        .ok()
        .map(|i| &list[i].1)
}

/// Run one collective among `members` (ascending ranks of `wire`) over the
/// possibly faulty fabric.
///
/// `outbox[from]` is what `from` owes; `expect` is whom each receiver waits
/// for. A frame that fails envelope validation, carries another epoch or
/// kind, comes from an unexpected sender, arrives twice, or is refused by
/// `parse` is discarded and logged; missing payloads are re-requested up to
/// `round.max_retries` times. Non-members' endpoints and held-back queues
/// are never touched. See the module docs for the order contract.
pub fn exchange<T>(
    wire: &mut Wire,
    members: &[usize],
    round: &Round<'_>,
    outbox: &[Outbox],
    expect: Expect<'_>,
    parse: impl Fn(&[u8]) -> Result<T, Reject>,
) -> Exchanged<T> {
    let Round { kind, epoch, .. } = *round;
    debug_assert!(members.windows(2).all(|w| w[0] < w[1]), "members ascending");
    for &from in members {
        match &outbox[from] {
            Outbox::Silent => {}
            Outbox::Broadcast(payload) => {
                for &to in members.iter().filter(|&&to| to != from) {
                    wire.send_framed(from, to, kind, epoch, 0, payload);
                }
            }
            Outbox::To(list) => {
                for (to, payload) in list {
                    wire.send_framed(from, *to, kind, epoch, 0, payload);
                }
            }
        }
        wire.flush_reordered(from);
    }
    let mut out = Exchanged {
        received: (0..wire.world()).map(|_| Vec::new()).collect(),
        missing: Vec::new(),
        retransmit_bytes: 0,
    };
    let record = |log: &mut FaultLog, rank, peer, action, detail| {
        log.record_recovery(RecoveryEvent {
            epoch,
            rank,
            peer: Some(peer),
            kind: Some(kind),
            action,
            detail,
        });
    };
    let mut attempt = 0u32;
    loop {
        for &to in members {
            let got = &mut out.received[to];
            while let Some(msg) = wire.try_recv(to) {
                let env = match envelope::open(&msg.payload) {
                    Ok(env) => env,
                    Err(e) => {
                        let why = e.to_string();
                        record(&mut wire.log, to, msg.from, RecoveryAction::DiscardCorrupt, why);
                        continue;
                    }
                };
                let from = env.from;
                let mut stale = |detail: String| {
                    record(&mut wire.log, to, from, RecoveryAction::DiscardStale, detail)
                };
                if env.epoch != epoch {
                    stale(format!("{} from epoch {}", round.stale_frame, env.epoch));
                } else if env.kind != kind {
                    stale(format!("late {:?} frame during {}", env.kind, round.during));
                } else if !expect.includes(members, to, from) {
                    stale(round.stranger.to_string());
                } else if let Err(at) = got.binary_search_by_key(&from, |e| e.0) {
                    match parse(env.payload) {
                        Ok(value) => {
                            // Validated arrival closes the flow's lifecycle;
                            // the id rode inside the envelope, so reordered
                            // and delayed frames settle their own flow.
                            wire.flows.deliver(env.flow, env.seq);
                            got.insert(at, (from, value));
                        }
                        Err(Reject::Stale(why)) => stale(why),
                        Err(Reject::Corrupt(why)) => {
                            record(&mut wire.log, to, from, RecoveryAction::DiscardCorrupt, why)
                        }
                    }
                } else {
                    let extra = round.duplicate.to_string();
                    record(&mut wire.log, to, from, RecoveryAction::DiscardDuplicate, extra);
                }
            }
        }
        out.missing.clear();
        for &to in members {
            let mut have = out.received[to].iter().map(|e| e.0).peekable();
            expect.for_each_sender(members, to, |from| {
                if have.next_if_eq(&from).is_none() {
                    out.missing.push((to, from));
                }
            });
        }
        if out.missing.is_empty() || attempt >= round.max_retries {
            return out;
        }
        attempt += 1;
        for &(to, from) in &out.missing {
            if let Some(payload) = outbox[from].owed_to(to) {
                let detail = format!("attempt {attempt}");
                record(&mut wire.log, to, from, RecoveryAction::Retransmit, detail);
                out.retransmit_bytes += payload.len();
                wire.send_framed(from, to, kind, epoch, attempt, payload);
            }
        }
        for &m in members {
            wire.flush_reordered(m);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultKind, FaultPlan, Injection};

    const EPOCH: u64 = 7;

    /// The cluster's words and the gossip's: every discard must come out in
    /// the caller's phrasing.
    const PHASE: Round<'static> = Round {
        kind: MsgKind::Control,
        epoch: EPOCH,
        max_retries: 2,
        stale_frame: "frame",
        during: "Control phase",
        stranger: "unexpected sender",
        duplicate: "extra copy discarded",
    };
    const GOSSIP: Round<'static> = Round {
        kind: MsgKind::View,
        epoch: EPOCH,
        max_retries: 2,
        stale_frame: "view frame",
        during: "view gossip",
        stranger: "view frame from non-member",
        duplicate: "extra view copy discarded",
    };

    fn forced(fault: FaultKind, from: usize, to: usize) -> FaultPlan {
        FaultPlan::new(1).with_injection(Injection {
            epoch: EPOCH,
            from: Some(from),
            to: Some(to),
            kind: None,
            fault,
        })
    }

    /// Rank r broadcasts the single byte `r`.
    fn hello(p: usize) -> Vec<Outbox> {
        (0..p)
            .map(|r| Outbox::Broadcast(Bytes::from(vec![r as u8])))
            .collect()
    }

    fn bytes(b: &[u8]) -> Result<Vec<u8>, Reject> {
        Ok(b.to_vec())
    }

    /// `(action, rank, peer, detail)` of every recovery logged.
    fn recoveries(wire: &Wire) -> Vec<(RecoveryAction, usize, usize, String)> {
        let events = wire.log.recoveries.iter();
        events
            .map(|e| (e.action, e.rank, e.peer.unwrap(), e.detail.clone()))
            .collect()
    }

    #[test]
    fn fault_free_exchange_delivers_everything_sorted_by_sender() {
        let mut wire = Wire::new(4, FaultPlan::new(0));
        let got = exchange(
            &mut wire,
            &[0, 1, 2, 3],
            &PHASE,
            &hello(4),
            Expect::AllPeers,
            bytes,
        );
        assert!(got.missing.is_empty() && got.retransmit_bytes == 0);
        assert_eq!(
            got.received[2],
            vec![(0, vec![0]), (1, vec![1]), (3, vec![3])]
        );
        assert_eq!(received_from(&got.received[2], 3), Some(&vec![3]));
        assert_eq!(received_from(&got.received[2], 2), None);
        assert!(wire.log.is_clean() && wire.flows.conservation().holds());
        assert_eq!(got.complete().unwrap().len(), 4);
    }

    #[test]
    fn stale_epoch_and_wrong_kind_are_discarded_in_the_callers_words() {
        for (round, stale, late) in [
            (
                PHASE,
                "frame from epoch 6",
                "late Let frame during Control phase",
            ),
            (
                GOSSIP,
                "view frame from epoch 6",
                "late Let frame during view gossip",
            ),
        ] {
            let mut wire = Wire::new(2, FaultPlan::new(0));
            wire.send_framed(1, 0, round.kind, EPOCH - 1, 0, b"held back an epoch");
            wire.send_framed(1, 0, MsgKind::Let, EPOCH, 0, b"from a later phase");
            let got = exchange(
                &mut wire,
                &[0, 1],
                &round,
                &hello(2),
                Expect::AllPeers,
                bytes,
            );
            assert!(got.missing.is_empty());
            assert_eq!(
                recoveries(&wire),
                [
                    (RecoveryAction::DiscardStale, 0, 1, stale.to_string()),
                    (RecoveryAction::DiscardStale, 0, 1, late.to_string()),
                ]
            );
        }
    }

    #[test]
    fn unexpected_and_non_member_senders_are_strangers() {
        // Rank 0 waits for rank 1 only; rank 2 sends to it anyway.
        let mut wire = Wire::new(3, FaultPlan::new(0));
        let lists = vec![vec![1], vec![], vec![]];
        let got = exchange(
            &mut wire,
            &[0, 1, 2],
            &PHASE,
            &hello(3),
            Expect::From(&lists),
            bytes,
        );
        assert_eq!(got.received[0], vec![(1, vec![1])]);
        let strangers: Vec<_> = recoveries(&wire)
            .into_iter()
            .filter(|e| e.3 == PHASE.stranger)
            .collect();
        assert_eq!(strangers.len(), 5, "every frame but 1 -> 0 is unexpected");
        assert_eq!(
            strangers[0],
            (
                RecoveryAction::DiscardStale,
                0,
                2,
                "unexpected sender".to_string()
            )
        );

        // Gossip among {0, 1}: rank 2 is dead to them. A frame it sent
        // before dying is a non-member's, and its own endpoint — inbox and
        // outbox — is never touched.
        let mut wire = Wire::new(3, FaultPlan::new(0));
        wire.send_framed(2, 0, MsgKind::View, EPOCH, 0, b"from beyond");
        wire.send_framed(0, 2, MsgKind::View, EPOCH, 0, b"unread");
        let got = exchange(
            &mut wire,
            &[0, 1],
            &GOSSIP,
            &hello(3),
            Expect::AllPeers,
            bytes,
        );
        assert!(got.missing.is_empty() && got.received[2].is_empty());
        assert_eq!(
            recoveries(&wire),
            [(
                RecoveryAction::DiscardStale,
                0,
                2,
                "view frame from non-member".to_string()
            )]
        );
        assert_eq!(
            &wire.try_recv(2).expect("still queued").payload[44..],
            b"unread"
        );
        assert!(
            wire.try_recv(2).is_none(),
            "a member sent to the dead rank"
        );
    }

    #[test]
    fn a_non_members_held_back_frames_stay_held() {
        // Rank 2 has a reordered and a delayed frame in hand when {0, 1}
        // run a collective without it: neither queue is flushed for it.
        let held = |kind, fault| Injection {
            epoch: EPOCH,
            from: Some(2),
            to: Some(0),
            kind: Some(kind),
            fault,
        };
        let plan = FaultPlan::new(1)
            .with_injection(held(MsgKind::View, FaultKind::Reorder))
            .with_injection(held(MsgKind::Let, FaultKind::Delay));
        let mut wire = Wire::new(3, plan);
        wire.send_framed(2, 0, MsgKind::View, EPOCH, 0, b"reordered");
        wire.send_framed(2, 0, MsgKind::Let, EPOCH, 0, b"delayed");
        let got = exchange(&mut wire, &[0, 1], &GOSSIP, &hello(3), Expect::AllPeers, bytes);
        assert!(got.missing.is_empty() && recoveries(&wire).is_empty());
        assert!(wire.try_recv(0).is_none() && wire.try_recv(2).is_none());
        wire.flush_reordered(2);
        assert_eq!(&wire.try_recv(0).expect("still held").payload[44..], b"reordered");
        wire.flush_delayed();
        assert_eq!(&wire.try_recv(0).expect("still held").payload[44..], b"delayed");
    }

    #[test]
    fn duplicates_are_discarded_once_the_first_copy_is_in() {
        for (round, words) in [
            (PHASE, "extra copy discarded"),
            (GOSSIP, "extra view copy discarded"),
        ] {
            let mut wire = Wire::new(2, forced(FaultKind::Duplicate, 1, 0));
            let got = exchange(
                &mut wire,
                &[0, 1],
                &round,
                &hello(2),
                Expect::AllPeers,
                bytes,
            );
            assert!(got.missing.is_empty() && got.retransmit_bytes == 0);
            assert_eq!(
                recoveries(&wire),
                [(RecoveryAction::DiscardDuplicate, 0, 1, words.to_string())]
            );
            assert!(wire.flows.conservation().holds());
        }
    }

    #[test]
    fn crc_failure_is_corrupt_and_the_payload_is_sent_again() {
        let mut wire = Wire::new(3, forced(FaultKind::Corrupt, 2, 0));
        let outbox: Vec<Outbox> = (0..3)
            .map(|r| Outbox::Broadcast(Bytes::from(vec![r as u8; 100])))
            .collect();
        let got = exchange(
            &mut wire,
            &[0, 1, 2],
            &PHASE,
            &outbox,
            Expect::AllPeers,
            bytes,
        );
        assert!(got.missing.is_empty());
        assert_eq!(got.retransmit_bytes, 100);
        assert_eq!(received_from(&got.received[0], 2), Some(&vec![2u8; 100]));
        let events = recoveries(&wire);
        assert_eq!(events.len(), 2);
        assert_eq!(
            (events[0].0, events[0].1, events[0].2),
            (RecoveryAction::DiscardCorrupt, 0, 2)
        );
        assert!(
            events[0].3.contains("checksum mismatch") || events[0].3.contains("bad magic"),
            "{events:?}"
        );
        assert_eq!(
            events[1],
            (RecoveryAction::Retransmit, 0, 2, "attempt 1".to_string())
        );
        assert!(wire.flows.conservation().holds());
    }

    #[test]
    fn parse_rejects_as_stale_or_as_corrupt() {
        let mut wire = Wire::new(3, FaultPlan::new(0));
        let parse = |b: &[u8]| match b[0] {
            1 => Err(Reject::Stale("amends an older view".to_string())),
            2 => Err(Reject::Corrupt("does not decode".to_string())),
            _ => Ok(b[0]),
        };
        let round = Round {
            max_retries: 1,
            ..GOSSIP
        };
        let got = exchange(
            &mut wire,
            &[0, 1, 2],
            &round,
            &hello(3),
            Expect::AllPeers,
            parse,
        );
        // Nobody accepts rank 1's or rank 2's payload, first time or again.
        assert_eq!(got.missing, [(0, 1), (0, 2), (1, 2), (2, 1)]);
        assert_eq!(got.received[1], vec![(0, 0)]);
        assert_eq!(got.retransmit_bytes, 4);
        let stale = (
            RecoveryAction::DiscardStale,
            0,
            1,
            "amends an older view".to_string(),
        );
        let corrupt = (
            RecoveryAction::DiscardCorrupt,
            0,
            2,
            "does not decode".to_string(),
        );
        let events = recoveries(&wire);
        assert_eq!(events[..2], [stale.clone(), corrupt.clone()]);
        assert_eq!(events.iter().filter(|e| e.0 == stale.0).count(), 4);
        assert_eq!(events.iter().filter(|e| e.0 == corrupt.0).count(), 4);
        assert_eq!(
            events
                .iter()
                .filter(|e| e.0 == RecoveryAction::Retransmit)
                .count(),
            4
        );
        assert_eq!(got.complete().unwrap_err(), 1);
    }

    #[test]
    fn retry_exhaustion_reports_the_missing_pairs_in_order() {
        // Everything rank 1 sends is lost the first time; rank 3 owes nothing.
        let plan = (0..4).fold(FaultPlan::new(3), |plan, to| {
            plan.with_injection(Injection {
                epoch: EPOCH,
                from: Some(1),
                to: Some(to),
                kind: None,
                fault: FaultKind::Drop,
            })
        });
        let mut wire = Wire::new(4, plan);
        let mut outbox = hello(4);
        outbox[1] = Outbox::To(vec![
            (0, Bytes::from(vec![9; 10])),
            (2, Bytes::from(vec![9; 30])),
        ]);
        outbox[3] = Outbox::Silent;
        let round = Round {
            max_retries: 0,
            ..PHASE
        };
        let got = exchange(
            &mut wire,
            &[0, 1, 2, 3],
            &round,
            &outbox,
            Expect::AllPeers,
            bytes,
        );
        assert_eq!(
            got.missing,
            [(0, 1), (0, 3), (1, 3), (2, 1), (2, 3), (3, 1)]
        );
        assert_eq!(got.retransmit_bytes, 0);
        assert!(recoveries(&wire).is_empty());

        // With retries, the forced drops (first attempts only) heal, and
        // only what was owed is sent again: nothing for the silent rank,
        // nothing from 1 to 3.
        let round = Round {
            max_retries: 2,
            ..PHASE
        };
        let got = exchange(
            &mut wire,
            &[0, 1, 2, 3],
            &round,
            &outbox,
            Expect::AllPeers,
            bytes,
        );
        assert_eq!(got.missing, [(0, 3), (1, 3), (2, 3), (3, 1)]);
        assert_eq!(got.retransmit_bytes, 10 + 30);
        assert_eq!(received_from(&got.received[2], 1), Some(&vec![9; 30]));
        let again = [0, 2].map(|to| (RecoveryAction::Retransmit, to, 1, "attempt 1".to_string()));
        assert_eq!(recoveries(&wire), again);
        assert_eq!(got.complete().unwrap_err(), 3);
        wire.flows.close_epoch_dead(EPOCH);
        assert!(wire.flows.conservation().holds());
    }
}

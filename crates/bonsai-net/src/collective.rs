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
//! peer that stays silent (the cluster declares it dead and rolls back) is
//! its own business; [`exchange`] only reports the pairs.
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
//! # Rank tasks and driver effects
//!
//! Log and ledger are plain values in the one `&mut` [`Wire`] the driver
//! owns, and the order above is the only thing that makes them
//! deterministic, so every step that touches the wire is a *driver effect*,
//! applied on the caller's thread in that order. The byte-proportional work
//! in between depends on one rank's data only and runs as *rank tasks*
//! through the caller's [`Lanes`]:
//!
//! | rank task (pure; any thread, any order) | driver effect (serial, in contract order) |
//! |---|---|
//! | seal a sender's first transmissions, under flow ids handed out by a prefix sum of the senders' first-transmission counts (silent 0, broadcast `members − 1`, a `To` list its length) | the ledger's `seal`, asserting the pre-assigned id; the fault decision and its log record; channel sends; `flush_reordered` |
//! | once every member's inbox is drained: `envelope::open`, the epoch / kind / sender checks and a speculative `parse` of each frame | the duplicate check against what the receiver already holds; `flows.deliver`; every log record |
//! | — | retransmissions, sealed and sent on the driver |
//!
//! A task's result is a function of its inputs and the driver consumes the
//! results in rank order, so the log, the ledger and the received lists are
//! the same whichever order and however many lanes the tasks ran on. The
//! only price of speculation is parsing a duplicate that is then discarded.
//! [`Inline`] runs the tasks in order on the caller's thread; this crate
//! depends on no thread pool, and `bonsai-sim` passes a pool-backed
//! [`Lanes`].

use crate::envelope::{self, seal_flow};
use crate::fabric::{Message, MsgKind};
use crate::fault::{FaultLog, RecoveryAction, RecoveryEvent, Wire};
use bytes::Bytes;

/// How a collective runs its rank tasks: `map` is
/// `items.into_iter().map(f).collect()`, free to evaluate the items
/// concurrently and in any order but returning the results in item order.
pub trait Lanes {
    /// Apply `f` to every item; results in item order.
    fn map<T: Send, R: Send>(&self, items: Vec<T>, f: impl Fn(T) -> R + Sync) -> Vec<R>;
}

/// Every rank task on the calling thread, in rank order.
#[derive(Clone, Copy, Debug, Default)]
pub struct Inline;

impl Lanes for Inline {
    fn map<T: Send, R: Send>(&self, items: Vec<T>, f: impl Fn(T) -> R + Sync) -> Vec<R> {
        items.into_iter().map(f).collect()
    }
}

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

    /// `(to, payload)` of every first transmission `from` makes among
    /// `members`, in send order.
    fn first_sends(&self, members: &[usize], from: usize) -> Vec<(usize, &Bytes)> {
        match self {
            Outbox::Silent => Vec::new(),
            Outbox::Broadcast(payload) => {
                members.iter().filter(|&&to| to != from).map(|&to| (to, payload)).collect()
            }
            Outbox::To(list) => list.iter().map(|(to, payload)| (*to, payload)).collect(),
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

/// A drained frame after the checks that need nothing but the frame and the
/// round.
enum Checked<T> {
    /// Refused: logged against the peer as the action, with the detail.
    Refused(usize, RecoveryAction, String),
    /// A frame of this round from a sender the receiver expects, with
    /// `parse`'s verdict — taken before it is known whether the receiver
    /// already holds that sender's payload.
    Expected {
        from: usize,
        flow: u64,
        seq: u32,
        parsed: Result<T, (RecoveryAction, String)>,
    },
}

/// The rank-task half of receiving one frame addressed to `to`.
fn check<T>(
    round: &Round<'_>,
    members: &[usize],
    expect: Expect<'_>,
    to: usize,
    msg: &Message,
    parse: &impl Fn(&[u8]) -> Result<T, Reject>,
) -> Checked<T> {
    let env = match envelope::open(&msg.payload) {
        Ok(env) => env,
        Err(e) => return Checked::Refused(msg.from, RecoveryAction::DiscardCorrupt, e.to_string()),
    };
    let stale = |detail| Checked::Refused(env.from, RecoveryAction::DiscardStale, detail);
    if env.epoch != round.epoch {
        stale(format!("{} from epoch {}", round.stale_frame, env.epoch))
    } else if env.kind != round.kind {
        stale(format!("late {:?} frame during {}", env.kind, round.during))
    } else if !expect.includes(members, to, env.from) {
        stale(round.stranger.to_string())
    } else {
        Checked::Expected {
            from: env.from,
            flow: env.flow,
            seq: env.seq,
            parsed: parse(env.payload).map_err(|reject| match reject {
                Reject::Stale(why) => (RecoveryAction::DiscardStale, why),
                Reject::Corrupt(why) => (RecoveryAction::DiscardCorrupt, why),
            }),
        }
    }
}

/// Run one collective among `members` (ascending ranks of `wire`) over the
/// possibly faulty fabric, its rank tasks on `lanes`.
///
/// `outbox[from]` is what `from` owes; `expect` is whom each receiver waits
/// for. A frame that fails envelope validation, carries another epoch or
/// kind, comes from an unexpected sender, arrives twice, or is refused by
/// `parse` is discarded and logged; missing payloads are re-requested up to
/// `round.max_retries` times. Non-members' endpoints and held-back queues
/// are never touched. See the module docs for the order contract and for
/// which parts run as rank tasks.
pub fn exchange<T: Send>(
    wire: &mut Wire,
    lanes: &impl Lanes,
    members: &[usize],
    round: &Round<'_>,
    outbox: &[Outbox],
    expect: Expect<'_>,
    parse: impl Fn(&[u8]) -> Result<T, Reject> + Sync,
) -> Exchanged<T> {
    let Round { kind, epoch, .. } = *round;
    debug_assert!(members.windows(2).all(|w| w[0] < w[1]), "members ascending");
    let mut next_flow = wire.flows.next_id();
    let bursts: Vec<_> = (members.iter())
        .map(|&from| {
            let sends = outbox[from].first_sends(members, from);
            let first = next_flow;
            next_flow += sends.len() as u64;
            (from, first, sends)
        })
        .collect();
    let sealed = lanes.map(bursts, |(from, first, sends)| {
        (sends.into_iter().zip(first..))
            .map(|((to, payload), flow)| (to, flow, seal_flow(kind, from, epoch, flow, 0, payload)))
            .collect::<Vec<_>>()
    });
    for (&from, burst) in members.iter().zip(sealed) {
        for (to, flow, frame) in burst {
            wire.send_sealed(from, to, kind, epoch, flow, frame);
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
        let inboxes: Vec<(usize, Vec<Message>)> = (members.iter())
            .map(|&to| (to, std::iter::from_fn(|| wire.try_recv(to)).collect()))
            .collect();
        let checked = lanes.map(inboxes, |(to, frames)| {
            (frames.iter())
                .map(|msg| check(round, members, expect, to, msg, &parse))
                .collect::<Vec<_>>()
        });
        for (&to, frames) in members.iter().zip(checked) {
            let got = &mut out.received[to];
            for frame in frames {
                let (from, flow, seq, parsed) = match frame {
                    Checked::Refused(peer, action, why) => {
                        record(&mut wire.log, to, peer, action, why);
                        continue;
                    }
                    Checked::Expected { from, flow, seq, parsed } => (from, flow, seq, parsed),
                };
                match (got.binary_search_by_key(&from, |e| e.0), parsed) {
                    (Ok(_), _) => {
                        let extra = round.duplicate.to_string();
                        record(&mut wire.log, to, from, RecoveryAction::DiscardDuplicate, extra);
                    }
                    (Err(at), Ok(value)) => {
                        // Validated arrival closes the flow's lifecycle; the
                        // id rode inside the envelope, so reordered and
                        // delayed frames settle their own flow.
                        wire.flows.deliver(flow, seq);
                        got.insert(at, (from, value));
                    }
                    (Err(_), Err((action, why))) => record(&mut wire.log, to, from, action, why),
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
    use crate::flow::FlowRecord;

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
            attempts: 0..1,
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
            &Inline,
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
                &Inline,
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
            &Inline,
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
            &Inline,
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
            attempts: 0..1,
        };
        let plan = FaultPlan::new(1)
            .with_injection(held(MsgKind::View, FaultKind::Reorder))
            .with_injection(held(MsgKind::Let, FaultKind::Delay));
        let mut wire = Wire::new(3, plan);
        wire.send_framed(2, 0, MsgKind::View, EPOCH, 0, b"reordered");
        wire.send_framed(2, 0, MsgKind::Let, EPOCH, 0, b"delayed");
        let got = exchange(&mut wire, &Inline, &[0, 1], &GOSSIP, &hello(3), Expect::AllPeers, bytes);
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
                &Inline,
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
            &Inline,
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
            &Inline,
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
                attempts: 0..1,
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
            &Inline,
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
            &Inline,
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

    /// Runs the rank tasks last rank first, results still in rank order.
    struct Reversed;

    impl Lanes for Reversed {
        fn map<T: Send, R: Send>(&self, items: Vec<T>, f: impl Fn(T) -> R + Sync) -> Vec<R> {
            let mut out: Vec<R> = items.into_iter().rev().map(f).collect();
            out.reverse();
            out
        }
    }

    type Delivered = (Vec<Vec<(usize, Vec<u8>)>>, Vec<(usize, usize)>, usize);

    /// Twelve epochs of a broadcast, an all-pairs and a sparse LET round
    /// among six ranks under 2 % of every message fault and a stalled LET
    /// sender, rank tasks on `lanes`: what each round delivered, the log and
    /// the ledger.
    fn chaos_rounds(lanes: &impl Lanes) -> (Vec<Delivered>, FaultLog, Vec<FlowRecord>) {
        let plan = (FaultKind::MESSAGE_KINDS.into_iter())
            .fold(FaultPlan::new(25).with_stall(2, 4), |plan, f| plan.with_rate(f, 0.02));
        let members: Vec<usize> = (0..6).collect();
        let mut wire = Wire::new(members.len(), plan);
        let payload = |from: usize, to: usize, epoch: u64| {
            let len = 16 + (epoch as usize * 13 + from * 5 + to) % 40;
            Bytes::from(vec![(from * 8 + to) as u8; len])
        };
        let near = |from: usize, to: usize| from != to && (from + to) % 2 == 1;
        let near_senders: Vec<Vec<usize>> = (members.iter())
            .map(|&to| members.iter().copied().filter(|&from| near(from, to)).collect())
            .collect();
        let mut delivered = Vec::new();
        for epoch in 1..=12 {
            wire.flush_delayed();
            for kind in [MsgKind::Control, MsgKind::Particles, MsgKind::Let] {
                let owed = |from: usize, to: usize| match kind {
                    MsgKind::Let => near(from, to),
                    _ => from != to,
                };
                let outbox: Vec<Outbox> = (members.iter())
                    .map(|&from| match kind {
                        MsgKind::Control => Outbox::Broadcast(payload(from, from, epoch)),
                        _ => Outbox::To(
                            (members.iter().filter(|&&to| owed(from, to)))
                                .map(|&to| (to, payload(from, to, epoch)))
                                .collect(),
                        ),
                    })
                    .collect();
                let expect = match kind {
                    MsgKind::Let => Expect::From(&near_senders),
                    _ => Expect::AllPeers,
                };
                let round = Round { kind, epoch, ..PHASE };
                let got = exchange(&mut wire, lanes, &members, &round, &outbox, expect, bytes);
                delivered.push((got.received, got.missing, got.retransmit_bytes));
            }
            wire.flows.close_epoch_dead(epoch);
        }
        (delivered, wire.log, wire.flows.records().to_vec())
    }

    #[test]
    fn rank_tasks_in_any_order_decide_nothing() {
        let (delivered, log, flows) = chaos_rounds(&Inline);
        let (delivered_rev, log_rev, flows_rev) = chaos_rounds(&Reversed);
        assert_eq!(delivered, delivered_rev, "received / missing / retransmit bytes moved");
        assert_eq!(log.render(), log_rev.render(), "fault log moved");
        assert_eq!(flows, flows_rev, "ledger records moved");
        // The schedule exercised every path: all six message faults, the
        // stall, retransmissions and a missing pair that outlived them.
        for fault in FaultKind::MESSAGE_KINDS.into_iter().chain([FaultKind::Stall]) {
            assert!(log.injected_of(fault) > 0, "no {fault} fired");
        }
        assert!(log.recoveries_of(RecoveryAction::Retransmit) > 0);
        assert!(log.recoveries_of(RecoveryAction::DiscardDuplicate) > 0);
        assert!(delivered.iter().any(|d| !d.1.is_empty()), "nothing stayed missing");
    }
}

//! The one validated collective every inter-rank exchange rides on.
//!
//! The paper's step is a fixed sequence of collectives — bounds allreduce,
//! particle exchange, boundary allgatherv, LET exchange (§III-B, Table II) —
//! and the membership gossip adds one more. Over a fabric that may drop,
//! duplicate, reorder, delay, truncate and corrupt frames they all need the
//! same protocol, written here once: every member sends what it owes, every
//! member drains its endpoint and validates each frame (envelope, epoch,
//! kind, sender, duplicate, semantic `parse`), and whatever is still missing
//! is re-requested up to [`MAX_RETRIES`] times. What a caller does about a
//! peer that stays silent (the cluster declares it dead and rolls back) is
//! its own business; [`exchange`] only reports the pairs.
//!
//! The outboxes are the whole contract. The sender side is an [`Outbox`]
//! per rank: one payload for every peer, a short list of `(to, payload)`,
//! or — for a dead rank — nothing at all. A receiver waits for exactly the
//! members whose outbox owes it: every peer of a broadcast or of a silent
//! rank, and the receivers a `To` list names. The receiver side comes back
//! as one `(from, value)` list per rank, ascending by sender. Nothing is
//! dense in the world size.
//!
//! # One buffer per message
//!
//! Nothing here copies a payload on the way out, and nothing but this
//! exchange writes a header. Every payload is sealed as one header per
//! receiver ([`envelope::seal_header`]) that travels beside the payload's
//! one buffer, shared by every receiver of a broadcast; a retransmission
//! seals a new header, its attempt number in it, beside the same buffer.
//! The outbox keeps every buffer to the end of the round, and only a fault
//! that mangles a frame copies it first (the [`Wire`]); such a copy never
//! opens. Nothing on the receive side copies either: `parse` gets the
//! sender's buffer itself and may keep a handle to it instead of decoding
//! a copy. Once the caller drops what `parse` kept, it holds the only
//! handle to each buffer it sent — a buffer no frame held back by the plan
//! still holds — and may take it back for its next round.
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
//! The round's first transmissions are its seal table: flow ids are dense
//! and `(from, to)`-ascending within it, so a retransmission, and every
//! discard a receiver logs against a peer, names the flow that peer sealed
//! for that receiver in this round, found by binary search — or
//! [`NO_FLOW`] when the peer owes it nothing.
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
//! | seal the first transmissions of a sender that makes any (a task per such sender), under flow ids handed out by a prefix sum of the senders' first-transmission counts (silent 0, broadcast `members − 1`, a `To` list its length) | the ledger's `seal`, asserting the pre-assigned id; the fault decision and its log record; channel sends; `flush_reordered` |
//! | once every member's inbox is drained, a task per frame: `envelope::open`, the epoch / kind checks, the sender check against what the outboxes owe, and a speculative `parse` | the duplicate check against what the receiver already holds; `flows.deliver`; every log record |
//! | — | retransmissions: a new header beside the kept buffer, sealed and sent on the driver |
//!
//! A task's result is a function of its inputs and the driver consumes the
//! results in contract order (senders ascending; frames receiver-ascending,
//! in arrival order per receiver), so the log, the ledger and the received
//! lists are the same whichever order and however many lanes the tasks ran
//! on. The only price of speculation is parsing a duplicate that is then
//! discarded.
//! [`Inline`] runs the tasks in order on the caller's thread; this crate
//! depends on no thread pool, and `bonsai-sim` passes a pool-backed
//! [`Lanes`].

use crate::envelope::{self, seal_header, NO_FLOW};
use crate::fabric::{Message, MsgKind};
use crate::fault::{FaultLog, RecoveryAction, RecoveryEvent, Wire};
use bytes::Bytes;

/// The one retry budget: every exchange sends a missing payload again this
/// many times before reporting the pair missing.
pub const MAX_RETRIES: u32 = 4;

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
    /// A dead rank: it owes every peer a payload and sends none, so each
    /// receiver reports it missing (a live rank that owes nothing is an
    /// empty `To` list).
    Silent,
    /// The same payload to every other member (an allreduce or allgather
    /// leg). Every receiver's frame is its own sealed header beside this
    /// one buffer.
    Broadcast(Bytes),
    /// Distinct payloads to some peers, ascending by receiver; each frame
    /// is a sealed header beside its payload's buffer.
    To(Vec<(usize, Bytes)>),
}

impl Outbox {
    /// The payload owed to `to`, if any: the buffer a retransmission's new
    /// header travels beside.
    fn owed_to(&self, to: usize) -> Option<&Bytes> {
        match self {
            Outbox::Silent => None,
            Outbox::Broadcast(payload) => Some(payload),
            Outbox::To(list) => received_from(list, to),
        }
    }

    /// `(to, buffer)` of every first transmission `from` makes among
    /// `members`, in send order.
    fn first_sends(&self, members: &[usize], from: usize) -> Vec<(usize, &Bytes)> {
        match self {
            Outbox::Silent => Vec::new(),
            Outbox::Broadcast(payload) => {
                members.iter().filter(|&&to| to != from).map(|&to| (to, payload)).collect()
            }
            Outbox::To(list) => list.iter().map(|(to, b)| (*to, b)).collect(),
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
    /// A frame of this round from a sender that owes the receiver, with
    /// `parse`'s verdict — taken before it is known whether the receiver
    /// already holds that sender's payload.
    Expected {
        from: usize,
        flow: u64,
        seq: u32,
        parsed: Result<T, (RecoveryAction, String)>,
    },
}

/// The rank-task half of receiving one frame addressed to `to`; `owed`
/// holds the round's `(to, from)` pairs, ascending.
fn check<T>(
    round: &Round<'_>,
    owed: &[(usize, usize)],
    to: usize,
    msg: &Message,
    parse: &impl Fn(usize, &Bytes) -> Result<T, Reject>,
) -> Checked<T> {
    let (header, payload) = msg.parts();
    let env = match envelope::open_parts(header, payload) {
        Ok(env) => env,
        Err(e) => return Checked::Refused(msg.from, RecoveryAction::DiscardCorrupt, e.to_string()),
    };
    let stale = |detail| Checked::Refused(env.from, RecoveryAction::DiscardStale, detail);
    if env.epoch != round.epoch {
        stale(format!("{} from epoch {}", round.stale_frame, env.epoch))
    } else if env.kind != round.kind {
        stale(format!("late {:?} frame during {}", env.kind, round.during))
    } else if owed.binary_search(&(to, env.from)).is_err() {
        stale(round.stranger.to_string())
    } else {
        // A frame sealed whole (a direct send; no exchange makes one that
        // opens) has no buffer of its payload's own: `parse` gets a copy.
        let whole;
        let payload = match msg.header {
            Some(_) => &msg.payload,
            None => {
                whole = Bytes::copy_from_slice(payload);
                &whole
            }
        };
        Checked::Expected {
            from: env.from,
            flow: env.flow,
            seq: env.seq,
            parsed: parse(env.from, payload).map_err(|reject| match reject {
                Reject::Stale(why) => (RecoveryAction::DiscardStale, why),
                Reject::Corrupt(why) => (RecoveryAction::DiscardCorrupt, why),
            }),
        }
    }
}

/// Run one collective among `members` (ascending ranks of `wire`) over the
/// possibly faulty fabric, its rank tasks on `lanes`.
///
/// `outbox[from]` is what `from` owes, and each receiver waits for exactly
/// the members that owe it (module docs). `parse(from, payload)` decodes a
/// payload its envelope says `from` sent; it must be a pure function of the
/// payload's bytes (the sender lets a caller reuse one verdict for every
/// copy of a broadcast), and gets the sender's buffer, so it may keep a
/// handle to it instead of copying. A frame that fails envelope
/// validation, carries another epoch or kind, comes from a sender that owes
/// the receiver nothing, arrives twice, or is refused by `parse` is
/// discarded and logged; missing payloads are re-requested up to
/// [`MAX_RETRIES`] times. Non-members' endpoints and held-back queues
/// are never touched. See the module docs for the order contract and for
/// which parts run as rank tasks.
pub fn exchange<T: Send>(
    wire: &mut Wire,
    lanes: &impl Lanes,
    members: &[usize],
    round: &Round<'_>,
    outbox: &[Outbox],
    parse: impl Fn(usize, &Bytes) -> Result<T, Reject> + Sync,
) -> Exchanged<T> {
    let Round { kind, epoch, .. } = *round;
    debug_assert!(members.windows(2).all(|w| w[0] < w[1]), "members ascending");
    let first = wire.flows.next_id();
    let sends: Vec<_> = members.iter().map(|&from| outbox[from].first_sends(members, from)).collect();
    // Each sender's first flow id: the prefix sum of the bursts before it.
    let firsts: Vec<u64> = (sends.iter())
        .scan(first, |next, burst| Some(std::mem::replace(next, *next + burst.len() as u64)))
        .collect();
    let bursts: Vec<_> = members.iter().copied().zip(firsts).zip(sends).collect();
    // The round's seal table: flow `first + i` goes `sent[i].0 → sent[i].1`.
    let sent: Vec<(usize, usize)> = (bursts.iter())
        .flat_map(|((from, _), sends)| sends.iter().map(|&(to, _)| (*from, to)))
        .collect();
    debug_assert!(sent.windows(2).all(|w| w[0] < w[1]), "first sends (from, to)-ascending");
    debug_assert!(sent.iter().all(|(_, to)| members.binary_search(to).is_ok()), "a receiver is no member");
    let flow_of = |from: usize, to: usize| {
        sent.binary_search(&(from, to)).map_or(NO_FLOW, |i| first + i as u64)
    };
    // Whom each receiver waits for, `(to, from)`-ascending: every first
    // send, and every peer of a silent rank.
    let silent = members.iter().filter(|&&from| matches!(outbox[from], Outbox::Silent));
    let mut owed: Vec<(usize, usize)> = (sent.iter().map(|&(from, to)| (to, from)))
        .chain(silent.flat_map(|&from| members.iter().filter(move |&&to| to != from).map(move |&to| (to, from))))
        .collect();
    owed.sort_unstable();
    // One task per sender that has a frame: a sparse round seals nothing
    // for the members that owe nobody.
    let bursts: Vec<_> = bursts.into_iter().filter(|(_, sends)| !sends.is_empty()).collect();
    let sealed = lanes.map(bursts, |((from, burst_first), sends)| {
        let frames = (sends.into_iter().zip(burst_first..))
            .map(|((to, body), flow)| (to, flow, (seal_header(kind, from, epoch, flow, 0, body), body.clone())));
        (from, frames.collect::<Vec<_>>())
    });
    let mut sealed = sealed.into_iter().peekable();
    for &from in members {
        for (to, flow, frame) in sealed.next_if(|(sender, _)| *sender == from).into_iter().flat_map(|b| b.1) {
            wire.send_sealed(from, to, kind, epoch, flow, frame);
        }
        wire.flush_reordered(from);
    }
    let mut out = Exchanged {
        received: (0..wire.world()).map(|_| Vec::new()).collect(),
        missing: Vec::new(),
    };
    let record = |log: &mut FaultLog, rank, peer, action, detail| {
        log.record_recovery(RecoveryEvent {
            epoch,
            rank,
            peer: Some(peer),
            kind: Some(kind),
            action,
            detail,
            flow: flow_of(peer, rank),
        });
    };
    let mut attempt = 0u32;
    loop {
        // Every drained frame, receiver-ascending and in arrival order per
        // receiver; one task each, so a round whose frames all go to one
        // receiver still spreads them over the lanes.
        let drained: &Wire = wire;
        let inbox: Vec<(usize, Message)> = (members.iter())
            .flat_map(|&to| std::iter::from_fn(move || drained.try_recv(to)).map(move |msg| (to, msg)))
            .collect();
        let checked = lanes.map(inbox, |(to, msg)| (to, check(round, &owed, to, &msg, &parse)));
        for (to, frame) in checked {
            let (from, flow, seq, parsed) = match frame {
                Checked::Refused(peer, action, why) => {
                    record(&mut wire.log, to, peer, action, why);
                    continue;
                }
                Checked::Expected { from, flow, seq, parsed } => (from, flow, seq, parsed),
            };
            let got = &mut out.received[to];
            match (got.binary_search_by_key(&from, |e| e.0), parsed) {
                (Ok(_), _) => {
                    let extra = round.duplicate.to_string();
                    record(&mut wire.log, to, from, RecoveryAction::DiscardDuplicate, extra);
                }
                (Err(at), Ok(value)) => {
                    // Validated arrival closes the flow's lifecycle; the id
                    // rode inside the envelope, so reordered and delayed
                    // frames settle their own flow.
                    wire.flows.deliver(flow, seq);
                    got.insert(at, (from, value));
                }
                (Err(_), Err((action, why))) => record(&mut wire.log, to, from, action, why),
            }
        }
        out.missing = (owed.iter().copied())
            .filter(|&(to, from)| received_from(&out.received[to], from).is_none())
            .collect();
        if out.missing.is_empty() || attempt >= MAX_RETRIES {
            return out;
        }
        attempt += 1;
        for &(to, from) in &out.missing {
            if let Some(payload) = outbox[from].owed_to(to) {
                let detail = format!("attempt {attempt}");
                record(&mut wire.log, to, from, RecoveryAction::Retransmit, detail);
                wire.retransmit(flow_of(from, to), attempt, payload.clone());
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
    use crate::envelope::ENVELOPE_HEADER_LEN;
    use crate::fault::{FaultKind, FaultPlan, Injection};
    use crate::flow::FlowRecord;

    const EPOCH: u64 = 7;

    /// The cluster's words and the gossip's: every discard must come out in
    /// the caller's phrasing.
    const PHASE: Round<'static> = Round {
        kind: MsgKind::Control,
        epoch: EPOCH,
        stale_frame: "frame",
        during: "Control phase",
        stranger: "unexpected sender",
        duplicate: "extra copy discarded",
    };
    const GOSSIP: Round<'static> = Round {
        kind: MsgKind::View,
        epoch: EPOCH,
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

    fn bytes(_from: usize, b: &Bytes) -> Result<Vec<u8>, Reject> {
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
    fn parse_is_told_each_frame_s_sender() {
        let mut wire = Wire::new(3, FaultPlan::new(0));
        let parse = |from: usize, b: &Bytes| Ok((from, b[0] as usize));
        let got = exchange(&mut wire, &Inline, &[0, 1, 2], &PHASE, &hello(3), parse);
        for (to, list) in got.received.iter().enumerate() {
            assert!(list.iter().all(|&(from, (told, payload))| from == told && told == payload), "{to}");
        }
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
            bytes,
        );
        assert!(got.missing.is_empty() && wire.flows.retransmit_bytes(EPOCH) == 0);
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
            wire.send_framed(1, 0, round.kind, EPOCH - 1, b"held back an epoch");
            wire.send_framed(1, 0, MsgKind::Let, EPOCH, b"from a later phase");
            let got = exchange(
                &mut wire,
                &Inline,
                &[0, 1],
                &round,
                &hello(2),
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
        // Rank 1 owes rank 0 a payload and rank 2 owes nobody, so rank 0
        // waits for rank 1 only; a stray frame from rank 2 reaches it anyway.
        let mut wire = Wire::new(3, FaultPlan::new(0));
        wire.send_framed(2, 0, PHASE.kind, EPOCH, b"owed to nobody");
        let outbox = [Outbox::To(vec![]), Outbox::To(vec![(0, Bytes::from(vec![1]))]), Outbox::To(vec![])];
        let got = exchange(&mut wire, &Inline, &[0, 1, 2], &PHASE, &outbox, bytes);
        assert!(got.missing.is_empty());
        assert_eq!(got.received[0], vec![(1, vec![1])]);
        let stranger = (RecoveryAction::DiscardStale, 0, 2, "unexpected sender".to_string());
        assert_eq!(recoveries(&wire), [stranger]);
        // Rank 2 sealed nothing for rank 0 this round: the discard names no flow.
        assert_eq!(wire.log.recoveries[0].flow, NO_FLOW);

        // Gossip among {0, 1}: rank 2 is dead to them. A frame it sent
        // before dying is a non-member's, and its own endpoint — inbox and
        // outbox — is never touched.
        let mut wire = Wire::new(3, FaultPlan::new(0));
        wire.send_framed(2, 0, MsgKind::View, EPOCH, b"from beyond");
        wire.send_framed(0, 2, MsgKind::View, EPOCH, b"unread");
        let got = exchange(
            &mut wire,
            &Inline,
            &[0, 1],
            &GOSSIP,
            &hello(3),
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
        // A non-member sealed nothing this round: its frame names no flow.
        assert_eq!(wire.log.recoveries[0].flow, NO_FLOW);
        assert_eq!(
            &wire.try_recv(2).expect("still queued").payload[..],
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
        wire.send_framed(2, 0, MsgKind::View, EPOCH, b"reordered");
        wire.send_framed(2, 0, MsgKind::Let, EPOCH, b"delayed");
        let got = exchange(&mut wire, &Inline, &[0, 1], &GOSSIP, &hello(3), bytes);
        assert!(got.missing.is_empty() && recoveries(&wire).is_empty());
        assert!(wire.try_recv(0).is_none() && wire.try_recv(2).is_none());
        wire.flush_reordered(2);
        assert_eq!(&wire.try_recv(0).expect("still held").payload[..], b"reordered");
        wire.flush_delayed();
        assert_eq!(&wire.try_recv(0).expect("still held").payload[..], b"delayed");
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
                bytes,
            );
            assert!(got.missing.is_empty() && wire.flows.retransmit_bytes(EPOCH) == 0);
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
            bytes,
        );
        assert!(got.missing.is_empty());
        assert_eq!(wire.flows.retransmit_bytes(EPOCH), 100);
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
        // Flows 1..=6 leave sender-ascending: 2 -> 0 is flow 5, and the
        // fault, the discard and the retransmission all name it.
        let flows = wire.log.injected.iter().map(|e| e.flow);
        assert!(flows.chain(wire.log.recoveries.iter().map(|e| e.flow)).all(|f| f == 5));
        assert_eq!(wire.flows.get(5).map(|r| (r.from, r.to, r.attempts)), Some((2, 0, 2)));
        assert!(wire.flows.conservation().holds());
    }

    /// A kibibyte and a half of distinct bytes: long enough that the CRC
    /// takes its fold, and a corrupted bit lands in the payload.
    fn long_payload() -> Vec<u8> {
        (0..1500u64).map(|i| (bonsai_util::mix64(i) >> 16) as u8).collect()
    }

    #[test]
    fn a_fault_on_one_copy_of_a_broadcast_leaves_the_others_intact() {
        // Rank 0 broadcasts one buffer; a fault hits its copy to rank 1.
        for fault in [FaultKind::Corrupt, FaultKind::Truncate, FaultKind::Duplicate] {
            let payload = long_payload();
            let mut wire = Wire::new(4, forced(fault, 0, 1));
            let none = || Outbox::To(vec![]);
            let outbox = [Outbox::Broadcast(Bytes::from(payload.clone())), none(), none(), none()];
            let got = exchange(&mut wire, &Inline, &[0, 1, 2, 3], &PHASE, &outbox, bytes);
            assert!(got.missing.is_empty(), "{fault}");
            for to in 1..4 {
                assert_eq!(received_from(&got.received[to], 0), Some(&payload), "{fault}: rank {to}");
            }
            let Outbox::Broadcast(shared) = &outbox[0] else { unreachable!() };
            assert_eq!(shared[..], payload[..], "{fault} wrote the shared buffer");
            let resent = if fault == FaultKind::Duplicate { 0 } else { payload.len() };
            assert_eq!(wire.flows.retransmit_bytes(EPOCH), resent, "{fault}");
        }
    }

    #[test]
    fn a_let_corrupted_on_the_wire_is_sent_again_intact() {
        // Rank 0 sends its LET to rank 1; the first transmission is
        // corrupted in the payload, and the retransmission carries the
        // original bytes.
        let payload = long_payload();
        let mut wire = Wire::new(2, forced(FaultKind::Corrupt, 0, 1));
        let len = ENVELOPE_HEADER_LEN + payload.len();
        let (byte, _) = wire.plan().corrupt_position(0, 1, MsgKind::Let, EPOCH, len);
        assert!(byte >= ENVELOPE_HEADER_LEN, "the fault must land in the payload");
        let flow = wire.flows.next_id();
        let outbox = [Outbox::To(vec![(1, Bytes::from(payload.clone()))]), Outbox::To(vec![])];
        let round = Round { kind: MsgKind::Let, ..PHASE };
        let got = exchange(&mut wire, &Inline, &[0, 1], &round, &outbox, bytes);
        assert!(got.missing.is_empty());
        assert_eq!(received_from(&got.received[1], 0), Some(&payload));
        assert_eq!(wire.flows.retransmit_bytes(EPOCH), payload.len());
        let Outbox::To(sent) = &outbox[0] else { unreachable!() };
        assert_eq!(sent[0].1[..], payload[..], "the fault wrote the sender's buffer");
        assert_eq!(wire.flows.get(flow).map(|r| r.attempts), Some(2));
    }

    #[test]
    fn a_retransmission_is_the_senders_buffer() {
        // Rank 0's first transmission to rank 1 is dropped, then (second
        // run) its first retransmission corrupted too: the frame that
        // delivers is a new header beside the buffer the sender kept, and
        // the corruption mangled a copy of it.
        let payload = long_payload();
        let len = ENVELOPE_HEADER_LEN + payload.len();
        for faults in [&[FaultKind::Drop][..], &[FaultKind::Drop, FaultKind::Corrupt]] {
            let plan = (faults.iter().zip(0..)).fold(FaultPlan::new(1), |plan, (&fault, attempt)| {
                let (epoch, from, to, kind, attempts) = (EPOCH, Some(0), Some(1), None, attempt..attempt + 1);
                plan.with_injection(Injection { epoch, from, to, kind, fault, attempts })
            });
            let mut wire = Wire::new(2, plan);
            let (byte, _) = wire.plan().corrupt_position(0, 1, PHASE.kind, EPOCH, len);
            assert!(byte >= ENVELOPE_HEADER_LEN, "a corruption must land in the payload");
            let flow = wire.flows.next_id();
            let outbox = [Outbox::To(vec![(1, Bytes::from(payload.clone()))]), Outbox::To(vec![])];
            let keep = |_, b: &Bytes| Ok(b.clone());
            let got = exchange(&mut wire, &Inline, &[0, 1], &PHASE, &outbox, keep);
            let Outbox::To(sent) = &outbox[0] else { unreachable!() };
            let buffer = received_from(&got.received[1], 0).expect("delivered");
            assert_eq!(buffer.as_ptr(), sent[0].1.as_ptr(), "{faults:?}: the payload was copied");
            assert_eq!(sent[0].1[..], payload[..], "{faults:?} wrote the sender's buffer");
            assert_eq!(wire.flows.retransmit_bytes(EPOCH), faults.len() * payload.len());
            assert_eq!(wire.flows.get(flow).map(|r| r.attempts), Some(1 + faults.len() as u32));
            assert_eq!(wire.log.injected.len(), faults.len());
        }
    }

    #[test]
    fn a_kept_payload_is_the_senders_buffer() {
        // Rank 0 sends rank 1 a payload of its own; rank 1 broadcasts. Each
        // receiver keeps the buffer its payload arrived in: the sender's
        // own, handed back once the receivers drop their handles.
        let payload = long_payload();
        let mut wire = Wire::new(2, FaultPlan::new(0));
        let to_1 = Outbox::To(vec![(1, Bytes::from(payload.clone()))]);
        let outbox = [to_1, Outbox::Broadcast(Bytes::from(payload.clone()))];
        let keep = |_, b: &Bytes| Ok((b.clone(), b.to_vec()));
        let got = exchange(&mut wire, &Inline, &[0, 1], &PHASE, &outbox, keep);
        assert!(got.missing.is_empty());
        let [Outbox::To(list), Outbox::Broadcast(shared)] = &outbox else { unreachable!() };
        for (to, sent) in [(1, &list[0].1), (0, shared)] {
            let (buffer, bytes) = received_from(&got.received[to], 1 - to).expect("delivered");
            assert_eq!(buffer.as_ptr(), sent.as_ptr(), "rank {to} holds a copy");
            assert_eq!((&buffer[..], &bytes[..]), (&payload[..], &payload[..]));
        }
        drop(got);
        let [Outbox::To(mut list), Outbox::Broadcast(shared)] = outbox else { unreachable!() };
        assert!(list.remove(0).1.try_into_vec().is_ok(), "a receiver still holds the payload sent to it");
        assert!(shared.try_into_vec().is_ok(), "a receiver still holds the broadcast payload");
    }

    #[test]
    fn parse_rejects_as_stale_or_as_corrupt() {
        let mut wire = Wire::new(3, FaultPlan::new(0));
        let parse = |_from: usize, b: &Bytes| match b[0] {
            1 => Err(Reject::Stale("amends an older view".to_string())),
            2 => Err(Reject::Corrupt("does not decode".to_string())),
            _ => Ok(b[0]),
        };
        let got = exchange(
            &mut wire,
            &Inline,
            &[0, 1, 2],
            &GOSSIP,
            &hello(3),
            parse,
        );
        // Nobody accepts rank 1's or rank 2's payload, first time or on
        // any of the retries: four pairs, each sent 1 + MAX_RETRIES times.
        let sends = 1 + MAX_RETRIES as usize;
        assert_eq!(got.missing, [(0, 1), (0, 2), (1, 2), (2, 1)]);
        assert_eq!(got.received[1], vec![(0, 0)]);
        assert_eq!(wire.flows.retransmit_bytes(EPOCH), 4 * MAX_RETRIES as usize);
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
        let count = |action| events.iter().filter(|e| e.0 == action).count();
        assert_eq!(count(stale.0), 2 * sends);
        assert_eq!(count(corrupt.0), 2 * sends);
        assert_eq!(count(RecoveryAction::Retransmit), 4 * MAX_RETRIES as usize);
        assert_eq!(got.complete().unwrap_err(), 1);
    }

    #[test]
    fn retry_exhaustion_reports_the_missing_pairs_in_order() {
        // Everything rank 1 sends is dropped on `attempts`; rank 3 is dead:
        // it owes every peer and sends nothing.
        let run = |attempts: std::ops::Range<u32>| {
            let plan = (0..4).fold(FaultPlan::new(3), |plan, to| {
                let (epoch, from, to, kind, fault) = (EPOCH, Some(1), Some(to), None, FaultKind::Drop);
                plan.with_injection(Injection { epoch, from, to, kind, fault, attempts: attempts.clone() })
            });
            let mut wire = Wire::new(4, plan);
            let mut outbox = hello(4);
            outbox[1] = Outbox::To(vec![
                (0, Bytes::from(vec![9; 10])),
                (2, Bytes::from(vec![9; 30])),
            ]);
            outbox[3] = Outbox::Silent;
            let got = exchange(&mut wire, &Inline, &[0, 1, 2, 3], &PHASE, &outbox, bytes);
            (got, wire)
        };
        // Lost through the budget: rank 1 is as silent as rank 3 towards
        // the ranks it owes, but its payloads were sent again on every retry.
        let (got, wire) = run(0..MAX_RETRIES + 1);
        assert_eq!(got.missing, [(0, 1), (0, 3), (1, 3), (2, 1), (2, 3)]);
        assert_eq!(wire.flows.retransmit_bytes(EPOCH), (10 + 30) * MAX_RETRIES as usize);
        assert_eq!(recoveries(&wire).len(), 2 * MAX_RETRIES as usize);

        // Lost on the first attempt only, the drops heal, and only what was
        // owed is sent again: nothing for the silent rank, nothing from 1
        // to 3.
        let (got, mut wire) = run(0..1);
        assert_eq!(got.missing, [(0, 3), (1, 3), (2, 3)]);
        assert_eq!(wire.flows.retransmit_bytes(EPOCH), 10 + 30);
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

    /// Runs the rank tasks as [`Reversed`] does and records how many tasks
    /// each fan-out had.
    #[derive(Default)]
    struct Counted(std::sync::Mutex<Vec<usize>>);

    impl Lanes for Counted {
        fn map<T: Send, R: Send>(&self, items: Vec<T>, f: impl Fn(T) -> R + Sync) -> Vec<R> {
            self.0.lock().unwrap().push(items.len());
            Reversed.map(items, f)
        }
    }

    #[test]
    fn a_round_to_one_receiver_is_checked_a_task_per_frame() {
        // Ranks 0, 1, 3, 4 and 5 each owe rank 2 one payload; rank 2 owes
        // nobody. Rank 0's frame is duplicated, rank 3's corrupted and
        // rank 4's truncated on the first attempt.
        let plan = [(FaultKind::Duplicate, 0), (FaultKind::Corrupt, 3), (FaultKind::Truncate, 4)]
            .into_iter()
            .fold(FaultPlan::new(1), |plan, (fault, from)| {
                let (epoch, from, to, kind, attempts) = (EPOCH, Some(from), Some(2), None, 0..1);
                plan.with_injection(Injection { epoch, from, to, kind, fault, attempts })
            });
        let outbox: Vec<Outbox> = (0..6)
            .map(|from| match from {
                2 => Outbox::To(vec![]),
                _ => Outbox::To(vec![(2, Bytes::from(vec![from as u8; 64]))]),
            })
            .collect();
        let members = [0, 1, 2, 3, 4, 5];
        let run = |lanes: &dyn Fn(&mut Wire) -> Exchanged<Vec<u8>>| {
            let mut wire = Wire::new(6, plan.clone());
            let got = lanes(&mut wire);
            (got.received, got.missing, wire.log.render(), recoveries(&wire))
        };
        let counted = Counted::default();
        let spread = run(&|wire| exchange(wire, &counted, &members, &PHASE, &outbox, bytes));
        let inline = run(&|wire| exchange(wire, &Inline, &members, &PHASE, &outbox, bytes));
        assert_eq!(spread, inline, "verdicts or log order moved with the fan-out");
        // Five bursts sealed, none for the receiver; six frames checked one
        // task each (rank 0's twice); then the two frames sent again.
        assert_eq!(*counted.0.lock().unwrap(), [5, 6, 2]);
        let (received, missing, _, events) = spread;
        let from: Vec<usize> = received[2].iter().map(|e| e.0).collect();
        assert_eq!((from, missing), (vec![0, 1, 3, 4, 5], vec![]));
        // The discards in arrival order, then the retransmissions in
        // `(to, from)` order.
        let events: Vec<_> = events.into_iter().map(|(action, rank, peer, _)| (action, rank, peer)).collect();
        let (duplicate, corrupt, again) =
            (RecoveryAction::DiscardDuplicate, RecoveryAction::DiscardCorrupt, RecoveryAction::Retransmit);
        let expected = [(duplicate, 0), (corrupt, 3), (corrupt, 4), (again, 3), (again, 4)];
        assert_eq!(events, expected.map(|(action, peer)| (action, 2, peer)));
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
                let round = Round { kind, epoch, ..PHASE };
                let got = exchange(&mut wire, lanes, &members, &round, &outbox, bytes);
                delivered.push((got.received, got.missing, wire.flows.retransmit_bytes(epoch)));
            }
            wire.flows.close_epoch_dead(epoch);
        }
        (delivered, wire.log, wire.flows.records().iter().collect())
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

//! Coordinator-free, epoch-based rank membership.
//!
//! The SC14 code assumes a fixed world for the entire run; this module
//! removes that assumption. A [`View`] is a versioned, sorted set of stable
//! *node ids*; a node's rank is its index in the sorted member list, so
//! every process that holds the same view derives the same rank ordering
//! with no coordinator assigning ranks.
//!
//! View changes are agreed by deterministic gossip over the existing
//! envelope/fault fabric. Each live rank starts from the events it knows
//! locally — a join announcement it sponsors, its own graceful leave, a
//! death it detected through missed heartbeats — encoded as a [`Proposal`]:
//! three sets (joined, left, died) amending the current view. Proposals
//! form a join-semilattice under set union, so merging is commutative,
//! associative and idempotent: ranks flood proposals all-to-all (validated
//! frames, bounded retransmission, exactly like the physics payloads) and
//! re-merge until a round changes nothing anywhere. Union-merge of fully
//! exchanged proposals converges in one round; the loop exists so the
//! protocol *self-stabilizes* — any interleaving of duplicated, reordered
//! or delayed view frames the fault plan produces ends in the same view,
//! and a rank that goes silent mid-gossip is reported to the caller, which
//! restarts the round with that rank's death added to the event set.
//!
//! The agreed next view is `(members ∪ joined) ∖ left ∖ died` with the
//! version bumped by one. Versions are monotone; receivers discard view
//! frames from other epochs, so a stale gossip round can never resurrect a
//! departed rank.

use crate::collective::{self, Inline, Outbox, Reject, Round};
use crate::fabric::MsgKind;
use crate::fault::Wire;
use bytes::Bytes;
use std::collections::BTreeSet;

/// A versioned membership view: the sorted stable node ids currently in
/// the cluster. A node's rank is its index in `members`, so a view *is* a
/// rank assignment — identical views imply identical orderings.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct View {
    /// Monotone view version; bumped by one per agreed change.
    pub number: u64,
    /// Sorted stable node ids; `members[rank]` is the node holding `rank`.
    pub members: Vec<u64>,
}

impl View {
    /// The bootstrap view: nodes `0..p`, version 0.
    pub fn initial(p: usize) -> Self {
        assert!(p > 0, "a view needs at least one member");
        Self {
            number: 0,
            members: (0..p as u64).collect(),
        }
    }

    /// Number of ranks in this view.
    pub fn world(&self) -> usize {
        self.members.len()
    }

    /// The rank `node` holds in this view, if it is a member.
    pub fn rank_of(&self, node: u64) -> Option<usize> {
        self.members.binary_search(&node).ok()
    }

    /// Whether `node` is a member.
    pub fn contains(&self, node: u64) -> bool {
        self.rank_of(node).is_some()
    }

    /// The smallest node id not yet used by this view — the id a newly
    /// admitted node receives. Deterministic, so every member sponsors the
    /// same id for the k-th joiner.
    pub fn next_node_id(&self) -> u64 {
        self.members.last().map_or(0, |&m| m + 1)
    }
}

/// One membership event, as known locally before gossip spreads it.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum MembershipEvent {
    /// A new node (with this pre-assigned id) asks to join.
    Join(u64),
    /// A member announces its own graceful departure.
    Leave(u64),
    /// A member was detected dead (missed heartbeats / silent in gossip).
    Death(u64),
}

impl MembershipEvent {
    /// The node the event concerns.
    pub fn node(&self) -> u64 {
        match *self {
            MembershipEvent::Join(n) | MembershipEvent::Leave(n) | MembershipEvent::Death(n) => n,
        }
    }
}

impl std::fmt::Display for MembershipEvent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MembershipEvent::Join(n) => write!(f, "join({n})"),
            MembershipEvent::Leave(n) => write!(f, "leave({n})"),
            MembershipEvent::Death(n) => write!(f, "death({n})"),
        }
    }
}

/// A proposed amendment to a specific view: the sets of nodes joining,
/// leaving gracefully, and detected dead. Proposals merge by set union,
/// which is commutative, associative and idempotent — the property that
/// makes the gossip self-stabilizing.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Proposal {
    /// The view number this proposal amends.
    pub base: u64,
    /// Nodes joining.
    pub joined: BTreeSet<u64>,
    /// Nodes leaving gracefully.
    pub left: BTreeSet<u64>,
    /// Nodes detected dead.
    pub died: BTreeSet<u64>,
}

impl Proposal {
    /// A proposal amending `view` with the locally-known `events`.
    pub fn from_events(view: &View, events: &[MembershipEvent]) -> Self {
        let mut p = Self {
            base: view.number,
            ..Self::default()
        };
        for e in events {
            match *e {
                MembershipEvent::Join(n) => {
                    assert!(
                        !view.contains(n),
                        "node {n} cannot join view {}: already a member",
                        view.number
                    );
                    p.joined.insert(n);
                }
                MembershipEvent::Leave(n) => {
                    p.left.insert(n);
                }
                MembershipEvent::Death(n) => {
                    p.died.insert(n);
                }
            }
        }
        p
    }

    /// Union-merge `other` into `self`.
    pub fn absorb(&mut self, other: &Proposal) {
        debug_assert_eq!(self.base, other.base, "proposals amend different views");
        self.joined.extend(other.joined.iter().copied());
        self.left.extend(other.left.iter().copied());
        self.died.extend(other.died.iter().copied());
    }

    /// The deduplicated event list this proposal carries, in deterministic
    /// (join, leave, death; ascending node) order. A node both joining and
    /// departing in the same change reports only the departure.
    pub fn events(&self) -> Vec<MembershipEvent> {
        let mut out = Vec::new();
        for &n in &self.joined {
            if !self.left.contains(&n) && !self.died.contains(&n) {
                out.push(MembershipEvent::Join(n));
            }
        }
        for &n in &self.left {
            out.push(MembershipEvent::Leave(n));
        }
        for &n in &self.died {
            if !self.left.contains(&n) {
                out.push(MembershipEvent::Death(n));
            }
        }
        out
    }

    /// Apply the amendment: `(members ∪ joined) ∖ left ∖ died`, version
    /// bumped by one. Panics if the result would be an empty cluster.
    pub fn apply(&self, view: &View) -> View {
        assert_eq!(self.base, view.number, "proposal amends a different view");
        let mut members: BTreeSet<u64> = view.members.iter().copied().collect();
        members.extend(self.joined.iter().copied());
        for n in self.left.iter().chain(self.died.iter()) {
            members.remove(n);
        }
        assert!(
            !members.is_empty(),
            "view change would leave an empty cluster"
        );
        View {
            number: view.number + 1,
            members: members.into_iter().collect(),
        }
    }

    /// Wire encoding: `[base u64][nj u32][nl u32][nd u32][joined…][left…][died…]`,
    /// all little-endian u64 node ids.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut v = Vec::with_capacity(20 + 8 * (self.joined.len() + self.left.len() + self.died.len()));
        v.extend_from_slice(&self.base.to_le_bytes());
        v.extend_from_slice(&(self.joined.len() as u32).to_le_bytes());
        v.extend_from_slice(&(self.left.len() as u32).to_le_bytes());
        v.extend_from_slice(&(self.died.len() as u32).to_le_bytes());
        for set in [&self.joined, &self.left, &self.died] {
            for &n in set {
                v.extend_from_slice(&n.to_le_bytes());
            }
        }
        v
    }

    /// Strict wire decoding; rejects short frames, trailing garbage, and
    /// unsorted or duplicated node lists.
    pub fn from_bytes(d: &[u8]) -> Result<Self, String> {
        if d.len() < 20 {
            return Err(format!("proposal header needs 20 bytes, have {}", d.len()));
        }
        let base = u64::from_le_bytes(d[0..8].try_into().unwrap());
        let nj = u32::from_le_bytes(d[8..12].try_into().unwrap()) as usize;
        let nl = u32::from_le_bytes(d[12..16].try_into().unwrap()) as usize;
        let nd = u32::from_le_bytes(d[16..20].try_into().unwrap()) as usize;
        let want = 20 + 8 * (nj + nl + nd);
        if d.len() != want {
            return Err(format!(
                "proposal declares {} nodes but frame is {} bytes (want {want})",
                nj + nl + nd,
                d.len()
            ));
        }
        let mut off = 20;
        let mut read_set = |count: usize| -> Result<BTreeSet<u64>, String> {
            let mut set = BTreeSet::new();
            let mut prev: Option<u64> = None;
            for _ in 0..count {
                let n = u64::from_le_bytes(d[off..off + 8].try_into().unwrap());
                off += 8;
                if prev.is_some_and(|p| p >= n) {
                    return Err("proposal node list not strictly ascending".to_string());
                }
                prev = Some(n);
                set.insert(n);
            }
            Ok(set)
        };
        let joined = read_set(nj)?;
        let left = read_set(nl)?;
        let died = read_set(nd)?;
        Ok(Self {
            base,
            joined,
            left,
            died,
        })
    }
}

/// The outcome of one converged view change.
#[derive(Clone, Debug)]
pub struct Convergence {
    /// The agreed next view.
    pub view: View,
    /// Gossip rounds until no rank's proposal changed (≥ 1).
    pub rounds: usize,
    /// The deduplicated events the change carries.
    pub events: Vec<MembershipEvent>,
}

/// Run the gossip protocol to agreement over the (possibly faulty) fabric.
///
/// `live[r]` masks ranks known dead before the round starts; dead ranks
/// send nothing and nothing is expected from them. `events_at[r]` is what
/// rank `r` knows locally before gossip — the protocol's job is to spread
/// exactly that information everywhere. Frames cross the fabric as
/// [`MsgKind::View`] envelopes subject to the fault plan, with the same
/// validation/retransmission discipline as physics payloads.
///
/// Returns `Err(rank)` if a live rank stayed silent through every
/// retransmission window — the caller should declare it dead and re-run
/// with its `Death` added to the events.
pub fn converge(
    wire: &mut Wire,
    live: &[bool],
    epoch: u64,
    current: &View,
    events_at: &[Vec<MembershipEvent>],
) -> Result<Convergence, usize> {
    let p = wire.world();
    assert_eq!(live.len(), p);
    assert_eq!(events_at.len(), p);
    let alive: Vec<usize> = (0..p).filter(|&r| live[r]).collect();
    assert!(!alive.is_empty(), "no live ranks to run membership gossip");

    let mut props: Vec<Proposal> = (0..p)
        .map(|r| Proposal::from_events(current, &events_at[r]))
        .collect();
    // The flood rides the same validated collective as the physics payloads,
    // among the living only; a proposal amending another view is stale.
    let base = current.number;
    let round = Round {
        kind: MsgKind::View,
        epoch,
        stale_frame: "view frame",
        during: "view gossip",
        stranger: "view frame from non-member",
        duplicate: "extra view copy discarded",
    };
    let mut rounds = 0usize;
    if alive.len() > 1 {
        loop {
            rounds += 1;
            assert!(
                rounds <= p + 2,
                "membership gossip failed to stabilize in {rounds} rounds"
            );
            let outbox: Vec<Outbox> = (0..p)
                .map(|r| {
                    if live[r] {
                        Outbox::Broadcast(Bytes::from(props[r].to_bytes()))
                    } else {
                        Outbox::Silent
                    }
                })
                .collect();
            let parse = |_from: usize, b: &Bytes| match Proposal::from_bytes(b) {
                Ok(prop) if prop.base == base => Ok(prop),
                Ok(prop) => Err(Reject::Stale(format!(
                    "proposal amends view {} (current {base})",
                    prop.base
                ))),
                Err(why) => Err(Reject::Corrupt(why)),
            };
            let got = collective::exchange(wire, &Inline, &alive, &round, &outbox, parse).complete()?;
            let mut changed = false;
            for &to in &alive {
                let mut merged = props[to].clone();
                for (_, theirs) in &got[to] {
                    merged.absorb(theirs);
                }
                if merged != props[to] {
                    props[to] = merged;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        let agreed = &props[alive[0]];
        for &r in &alive[1..] {
            assert_eq!(
                props[r], *agreed,
                "membership gossip stabilized without agreement"
            );
        }
    } else {
        rounds = 1;
    }
    let agreed = props[alive[0]].clone();
    Ok(Convergence {
        view: agreed.apply(current),
        rounds,
        events: agreed.events(),
    })
}

/// One completed view change, as recorded in the [`MembershipLog`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ViewChange {
    /// Gravity epoch the change was agreed in.
    pub epoch: u64,
    /// View number before the change.
    pub from_view: u64,
    /// View number after the change.
    pub to_view: u64,
    /// World size before the change.
    pub from_world: usize,
    /// World size after the change.
    pub to_world: usize,
    /// The deduplicated events the change carried.
    pub events: Vec<MembershipEvent>,
    /// Gossip rounds until stabilization.
    pub rounds: usize,
    /// Particles that moved between ranks during re-decomposition.
    pub migrated_particles: usize,
    /// Wire bytes those migrants cost.
    pub migrated_bytes: usize,
}

/// Audit log of every view change a cluster went through.
#[derive(Clone, Debug, Default)]
pub struct MembershipLog {
    changes: Vec<ViewChange>,
}

impl MembershipLog {
    /// Fresh empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record a completed view change.
    pub fn push(&mut self, change: ViewChange) {
        self.changes.push(change);
    }

    /// All recorded changes, in order.
    pub fn changes(&self) -> &[ViewChange] {
        &self.changes
    }

    /// True when the world never changed.
    pub fn is_empty(&self) -> bool {
        self.changes.is_empty()
    }

    /// One-line-per-change rendering for traces and reports.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for c in &self.changes {
            let events: Vec<String> = c.events.iter().map(|e| e.to_string()).collect();
            out.push_str(&format!(
                "[epoch {:>3}] view {} -> {} ({} -> {} ranks, {} rounds) [{}] migrated {} particles / {} B\n",
                c.epoch,
                c.from_view,
                c.to_view,
                c.from_world,
                c.to_world,
                c.rounds,
                events.join(", "),
                c.migrated_particles,
                c.migrated_bytes
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collective::MAX_RETRIES;
    use crate::fault::{FaultKind, FaultPlan, Injection};

    #[test]
    fn initial_view_assigns_ranks_by_id() {
        let v = View::initial(4);
        assert_eq!(v.world(), 4);
        assert_eq!(v.rank_of(2), Some(2));
        assert_eq!(v.rank_of(9), None);
        assert_eq!(v.next_node_id(), 4);
    }

    #[test]
    fn proposal_round_trips_and_rejects_garbage() {
        let v = View::initial(3);
        let p = Proposal::from_events(
            &v,
            &[
                MembershipEvent::Join(7),
                MembershipEvent::Leave(1),
                MembershipEvent::Death(2),
            ],
        );
        let bytes = p.to_bytes();
        assert_eq!(Proposal::from_bytes(&bytes).unwrap(), p);
        assert!(Proposal::from_bytes(&bytes[..bytes.len() - 1]).is_err());
        assert!(Proposal::from_bytes(&[0u8; 4]).is_err());
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert!(Proposal::from_bytes(&trailing).is_err());
    }

    #[test]
    fn apply_joins_and_departures() {
        let v = View::initial(4);
        let p = Proposal::from_events(
            &v,
            &[MembershipEvent::Join(4), MembershipEvent::Death(1)],
        );
        let next = p.apply(&v);
        assert_eq!(next.number, 1);
        assert_eq!(next.members, vec![0, 2, 3, 4]);
        assert_eq!(next.rank_of(4), Some(3));
    }

    #[test]
    fn gossip_spreads_single_sponsor_knowledge() {
        // Only rank 0 knows about the join; only rank 2 knows about the
        // death. Everyone must converge to the same amended view.
        let mut wire = Wire::new(4, FaultPlan::new(1));
        let v = View::initial(4);
        let mut events = vec![Vec::new(); 4];
        events[0].push(MembershipEvent::Join(4));
        events[2].push(MembershipEvent::Death(3));
        let live = vec![true, true, true, false];
        let out = converge(&mut wire, &live, 5, &v, &events).unwrap();
        assert_eq!(out.view.members, vec![0, 1, 2, 4]);
        assert_eq!(out.view.number, 1);
        assert_eq!(
            out.events,
            vec![MembershipEvent::Join(4), MembershipEvent::Death(3)]
        );
        assert!(out.rounds >= 2, "knowledge needs a round to spread");
    }

    #[test]
    fn gossip_converges_under_message_faults() {
        let plan = FaultPlan::new(9)
            .with_rate(FaultKind::Drop, 0.15)
            .with_rate(FaultKind::Duplicate, 0.1)
            .with_rate(FaultKind::Corrupt, 0.1)
            .with_injection(Injection {
                epoch: 3,
                from: Some(1),
                to: Some(0),
                kind: Some(MsgKind::View),
                fault: FaultKind::Drop,
                attempts: 0..1,
            });
        let mut wire = Wire::new(5, plan);
        let v = View::initial(5);
        let mut events = vec![Vec::new(); 5];
        events[1].push(MembershipEvent::Leave(4));
        let live = vec![true; 5];
        let out = converge(&mut wire, &live, 3, &v, &events).unwrap();
        assert_eq!(out.view.members, vec![0, 1, 2, 3]);
        assert!(!wire.log.injected.is_empty(), "plan must have fired");
    }

    #[test]
    fn identical_seed_identical_outcome() {
        let run = || {
            let plan = FaultPlan::new(77)
                .with_rate(FaultKind::Drop, 0.2)
                .with_rate(FaultKind::Reorder, 0.1);
            let mut wire = Wire::new(4, plan);
            let v = View::initial(4);
            let mut events = vec![Vec::new(); 4];
            events[3].push(MembershipEvent::Join(4));
            let live = vec![true; 4];
            let out = converge(&mut wire, &live, 2, &v, &events).unwrap();
            (out.view, wire.log.render())
        };
        let (va, la) = run();
        let (vb, lb) = run();
        assert_eq!(va, vb);
        assert_eq!(la, lb);
    }

    #[test]
    fn silent_rank_is_reported() {
        // Rank 2 is marked live, but every frame it sends is dropped on
        // every attempt the retry budget allows.
        let plan = FaultPlan::new(5).with_injection(Injection {
            epoch: 1,
            from: Some(2),
            to: None,
            kind: Some(MsgKind::View),
            fault: FaultKind::Drop,
            attempts: 0..MAX_RETRIES + 1,
        });
        let mut wire = Wire::new(3, plan);
        let v = View::initial(3);
        let events = vec![Vec::new(); 3];
        let live = vec![true; 3];
        let err = converge(&mut wire, &live, 1, &v, &events).unwrap_err();
        assert_eq!(err, 2);
    }

    #[test]
    fn membership_log_renders_deterministically() {
        let mut log = MembershipLog::new();
        log.push(ViewChange {
            epoch: 7,
            from_view: 0,
            to_view: 1,
            from_world: 4,
            to_world: 5,
            events: vec![MembershipEvent::Join(4)],
            rounds: 2,
            migrated_particles: 120,
            migrated_bytes: 7680,
        });
        let r = log.render();
        assert!(r.contains("view 0 -> 1"), "{r}");
        assert!(r.contains("join(4)"), "{r}");
        assert!(r.contains("4 -> 5 ranks"), "{r}");
        assert_eq!(r, log.render());
    }
}

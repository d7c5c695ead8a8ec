//! Online view changes: admit or retire ranks by membership gossip, then
//! re-split the key space and migrate particles between the old and the new
//! rank set over the fabric.

use super::observe::sorted_key_weights;
use super::Cluster;
use bonsai_domain::exchange::{particles_from_bytes, particles_to_bytes, ExchangePlan};
use bonsai_net::collective::Outbox;
use bonsai_net::membership::{self, MembershipEvent};
use bonsai_net::MsgKind;
use bonsai_tree::{Forces, Particles};

impl Cluster {
    /// Grow the cluster online: admit `k` fresh ranks. Every member
    /// sponsors the same deterministic node ids for the joiners
    /// ([`View::next_node_id`](bonsai_net::membership::View::next_node_id)),
    /// the join is gossiped to agreement over the fabric, the key space is
    /// re-split for the new world, and each joiner receives its domain from
    /// the old owners — then forces are re-evaluated on the new
    /// decomposition (positions are untouched, so the physics is unchanged
    /// up to MAC-level summation order).
    pub fn admit_ranks(&mut self, k: usize) {
        assert!(k > 0, "admit at least one rank");
        let next = self.view.next_node_id();
        let events: Vec<MembershipEvent> = (0..k as u64)
            .map(|i| MembershipEvent::Join(next + i))
            .collect();
        self.change_view(events);
    }

    /// Shrink the cluster online: gracefully retire the `k` newest
    /// (highest node id) members. The leave is gossiped to agreement, the
    /// departing ranks ship their entire populations to the survivors'
    /// re-split domains, and the world compacts to the remaining members.
    pub fn retire_ranks(&mut self, k: usize) {
        assert!(k > 0, "retire at least one rank");
        assert!(
            k < self.view.world(),
            "cannot retire every rank ({k} of {})",
            self.view.world()
        );
        let events: Vec<MembershipEvent> = self
            .view
            .members
            .iter()
            .rev()
            .take(k)
            .map(|&n| MembershipEvent::Leave(n))
            .collect();
        self.change_view(events);
    }

    /// Agree `events` through membership gossip and apply the resulting
    /// view change, under one rollback budget. A rank that dies before or
    /// during the gossip is recovered first (a rollback that returns the
    /// cluster at the step it left, with forces) and the change retried
    /// against the recovered cluster, or dropped when the recovery made it
    /// moot. A rank silent through the migration or the new forces epoch is
    /// recovered the same way, and the change is not retried. The state the
    /// change leaves is checkpointed, so a later crash does not roll back
    /// across the membership boundary.
    fn change_view(&mut self, events: Vec<MembershipEvent>) {
        let mut rollbacks = 0;
        loop {
            // Crashes the plan schedules for this epoch fire during the
            // gossip round, exactly as they would during a physics phase.
            self.begin_epoch(MsgKind::View);
            let p = self.ranks.len();
            if let Some(first) = (0..p).find(|&r| self.dead[r]) {
                // A member is down: its particles are gone, so recover
                // before changing the view — the change must not launder a
                // particle loss.
                self.restore_from_checkpoint(first, &mut rollbacks);
                continue;
            }
            // Events the (possibly recovered) current view makes moot are
            // dropped; an all-moot change is a no-op.
            let evs: Vec<MembershipEvent> = events
                .iter()
                .copied()
                .filter(|e| match e {
                    MembershipEvent::Join(n) => !self.view.contains(*n),
                    MembershipEvent::Leave(n) | MembershipEvent::Death(n) => {
                        self.view.contains(*n)
                    }
                })
                .collect();
            if evs.is_empty() {
                return;
            }
            match self.gossip(0, evs) {
                Ok(conv) => {
                    if let Err(silent) = self.apply_view_change(conv) {
                        self.restore_from_checkpoint(silent, &mut rollbacks);
                    }
                    self.write_recovery_checkpoint();
                    return;
                }
                // Gossip silence is a missed heartbeat: recover, retry.
                Err(silent) => self.restore_from_checkpoint(silent, &mut rollbacks),
            }
        }
    }

    /// Apply an agreed view change: re-split the key space for the new
    /// world ([`bonsai_domain::replan`]), migrate particles between the
    /// old and new rank sets over the fabric, compact or extend per-rank
    /// state, and re-evaluate forces on the new decomposition. `Err(rank)`
    /// for a rank silent through the migration or the forces epoch.
    fn apply_view_change(&mut self, conv: membership::Convergence) -> Result<(), usize> {
        let new_view = conv.view;
        let old_view = self.view.clone();
        let (old_p, new_p) = (old_view.world(), new_view.world());
        debug_assert_eq!(old_p, self.ranks.len());
        let has_joiners = new_view.members.iter().any(|n| !old_view.contains(*n));
        let has_leavers = old_view.members.iter().any(|n| !new_view.contains(*n));
        assert!(
            !(has_joiners && has_leavers),
            "mixed join+leave view changes must be applied as separate changes"
        );
        let new_rank: Vec<Option<usize>> = old_view
            .members
            .iter()
            .map(|&n| new_view.rank_of(n))
            .collect();

        // Re-split the key space from the global (key, flop-weight)
        // multiset — the same balance objective as the steady-state
        // decomposition, evaluated driver-side like the sample sort.
        let keymap = self.global_keymap();
        let keys: Vec<Vec<u64>> = self.ranks.iter().map(|r| keymap.keys_of(&r.pos)).collect();
        let floored: Vec<f64> = self.weights.iter().map(|w| w.max(1e-30)).collect();
        let pairs = sorted_key_weights(&keys, &floored);
        let new_domains = bonsai_domain::replan(&pairs, new_p, self.cfg.cap);
        // One plan per old rank, made against the rank its node holds in
        // the new view; a departing rank ships its entire population.
        let plans: Vec<ExchangePlan> = (keys.iter().zip(&new_rank))
            .map(|(ks, &stay)| ExchangePlan::plan_onto(stay, ks, &new_domains))
            .collect();
        let migrated: (usize, usize) = (
            plans.iter().map(ExchangePlan::emigrant_count).sum(),
            plans.iter().map(ExchangePlan::wire_bytes).sum(),
        );

        // Drain every old rank's emigrants into per-new-rank buckets. The
        // sabotage hook discards them here — drained but never shipped —
        // which retransmission cannot heal: exactly the loss the CI
        // conservation gate must catch.
        let mut buckets: Vec<Vec<Particles>> = Vec::with_capacity(old_p);
        for (plan, rank) in plans.iter().zip(&mut self.ranks) {
            let mut b = plan.apply(rank);
            if self.drop_migrants {
                for pk in &mut b {
                    *pk = Particles::new();
                }
            }
            buckets.push(b);
        }

        // The migration runs on the wider of the two worlds: joiners only
        // exist on the new fabric (old ranks keep their indices — fresh ids
        // sort last — so it is rebuilt first), departing ranks only on the
        // old one (rebuilt after the world compacts). Per-rank state moves
        // into the wide world before the exchange, so a rank that dies
        // during it is recovered against that view.
        let wide = if new_p > old_p { &new_view } else { &old_view };
        let world = wide.world();
        if new_p > old_p {
            debug_assert!(new_rank.iter().enumerate().all(|(r, &s)| s == Some(r)));
            self.wire.resize(world);
        }
        self.ranks.resize_with(world, Particles::new);
        self.weights.resize(world, 1.0);
        self.forces = vec![Forces::default(); world];
        self.dead = vec![false; world];
        self.view = wide.clone();
        // Every pair exchanges a (possibly empty) payload so receivers know
        // exactly what to expect.
        let empty = particles_to_bytes(&Particles::new());
        let bucket = |from: usize, to: usize| {
            let src = old_view.rank_of(wide.members[from])?;
            let dst = new_view.rank_of(wide.members[to])?;
            Some(&buckets[src][dst]).filter(|b| !b.is_empty())
        };
        let outbox: Vec<Outbox> = (0..world)
            .map(|from| {
                let owed = (0..world).filter(|&to| to != from).map(|to| {
                    (to, bucket(from, to).map_or_else(|| empty.clone(), particles_to_bytes))
                });
                Outbox::To(owed.collect())
            })
            .collect();
        // `migrated_bytes` is the planned volume; bytes sent again are in
        // the fault log's `Retransmit` events, not in the `ViewChange`.
        let got = self.exchange(MsgKind::Particles, &outbox, |_, b| particles_from_bytes(b));
        self.absorb_migrants(got.complete()?);
        // Compact state to the new view's members, in new-view order.
        let kept = |n: &u64| wide.rank_of(*n).expect("new member is in the wide world");
        self.ranks = (new_view.members.iter().map(kept))
            .map(|o| std::mem::replace(&mut self.ranks[o], Particles::new()))
            .collect();
        self.weights = new_view.members.iter().map(|n| self.weights[kept(n)]).collect();
        self.forces.truncate(new_p);
        self.dead.truncate(new_p);
        if new_p < old_p {
            self.wire.resize(new_p);
        }
        self.domains = new_domains;
        self.view = new_view;
        self.commit_view_change(0, &old_view, conv.events, conv.rounds, Some(migrated));
        // Fresh forces on the new decomposition; positions are unchanged,
        // so this is an observation change, not a physics change.
        self.try_gravity_phase().map(drop)
    }
}

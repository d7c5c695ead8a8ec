//! Recovery: where every epoch begins, and the rollback to the last
//! checkpoint — at a fixed world size or, elastically, over the survivors
//! (§VI-C). Every fault the retry budget does not absorb ends here: a
//! crash, a stall, and a frame lost on every attempt are all one silent
//! rank. A rollback returns the cluster at the step it left, with forces.

use super::{Cluster, ClusterConfig, MAX_RETRIES};
use crate::checkpoint::{self, Checkpoint};
use bonsai_net::envelope::NO_FLOW;
use bonsai_net::fault::{FaultEvent, FaultKind, RecoveryAction, RecoveryEvent};
use bonsai_net::membership::{self, MembershipEvent, View, ViewChange};
use bonsai_net::MsgKind;
use bonsai_obs::TRACE_WINDOW;
use bonsai_sfc::{KeyMap, KeyRange};
use bonsai_tree::{Forces, Particles};

impl Cluster {
    pub(super) fn write_recovery_checkpoint(&self) {
        if let Some(rec) = &self.recovery {
            checkpoint::write_checkpoint(self, &rec.dir).expect("checkpoint write failed");
        }
    }

    /// Open the next epoch — gravity, membership gossip or death gossip,
    /// completed or not; `kind` is what it is about to exchange. Trace,
    /// flow ledger and exchange windows drop the one epoch that leaves the
    /// window, so they hold exactly the last [`TRACE_WINDOW`] epochs, this
    /// one included; the records and windows kept do not move. Frames held back by
    /// Delay/Stall surface, carrying their old epoch, to be discarded as
    /// stale. Every rank the plan schedules to die this epoch dies, in one
    /// detection pass: a hard crash, its in-memory state gone, silent from
    /// here on.
    pub(super) fn begin_epoch(&mut self, kind: MsgKind) {
        self.epoch += 1;
        let epoch = self.epoch;
        let first_kept = (epoch + 1).saturating_sub(TRACE_WINDOW);
        self.trace.retain_steps(first_kept);
        self.wire.flows.retain_epochs(first_kept);
        self.exchange_windows.retain_epochs(first_kept);
        self.wire.flush_delayed();
        let p = self.ranks.len();
        if p == 1 {
            return;
        }
        for r in self.wire.plan().crashed_ranks(epoch) {
            if r >= p || self.dead[r] {
                continue;
            }
            self.wire.log.record_fault(FaultEvent {
                epoch,
                from: r,
                to: r,
                kind,
                fault: FaultKind::Crash,
                attempt: 0,
                flow: NO_FLOW,
            });
            self.dead[r] = true;
            self.ranks[r] = Particles::new();
            self.forces[r] = Forces::default();
        }
    }

    /// Declare `dead` dead and roll the whole cluster back to the last
    /// checkpoint (§VI-C: restart from the most recent snapshot): the one
    /// rollback, for every rank silent through the retry budget. It returns
    /// the cluster at the step it left, with forces ([`Cluster::catch_up`]);
    /// a rank silent on the way rolls it back again. The epoch keeps
    /// advancing. `rollbacks` is the one budget of the caller — a step, a
    /// construction or a view change.
    ///
    /// At a fixed world size the checkpoint's particles, domains, load
    /// weights and forces are adopted verbatim, so the replay repeats the
    /// run that wrote it bit for bit. With
    /// [`Cluster::enable_elastic_recovery`] the dead node is instead agreed
    /// *out of the view* by the survivors, and the checkpoint is re-split
    /// over the shrunken world, as it is when a crash lands mid-migration,
    /// where the world no longer has the checkpoint's rank count.
    ///
    /// # Panics
    /// Without a recovery checkpoint, and, naming the rank and the epoch,
    /// when `rollbacks` reaches [`MAX_RETRIES`].
    pub(super) fn restore_from_checkpoint(&mut self, mut dead: usize, rollbacks: &mut u32) {
        let left = self.steps;
        loop {
            assert!(
                *rollbacks < MAX_RETRIES,
                "rank {dead} silent through the retry budget at epoch {}, after {MAX_RETRIES} \
                 consecutive rollbacks",
                self.epoch
            );
            *rollbacks += 1;
            self.declare_dead(dead, None, format!("rank {dead} missed every retry window"));
            let rec = self.recovery.clone().unwrap_or_else(|| {
                panic!(
                    "rank {dead} declared dead at epoch {} but no recovery checkpoint is \
                     configured; construct with Cluster::with_faults(.., Some(RecoveryConfig)) \
                     to survive crashes",
                    self.epoch
                )
            });
            let ck = checkpoint::read_checkpoint_full(&rec.dir)
                .expect("checkpoint unreadable during crash recovery");
            let mut detail = format!("rolled back to step {} (t = {})", ck.steps, ck.time);
            let mut change = None;
            if self.elastic && self.dead.iter().any(|&d| !d) && self.dead.len() > 1 {
                let conv = self.agree_on_deaths();
                change = Some((std::mem::replace(&mut self.view, conv.view.clone()), conv));
                self.wire.resize(self.view.world());
                detail += &format!(" over {} survivors", self.view.world());
            }
            let held = self.adopt(ck, self.view.world());
            self.wire.log.record_recovery(RecoveryEvent {
                epoch: self.epoch,
                rank: dead,
                peer: None,
                kind: None,
                action: RecoveryAction::RestoreCheckpoint,
                detail,
                flow: NO_FLOW,
            });
            if let Some((old_view, conv)) = change {
                self.commit_view_change(dead, &old_view, conv.events, conv.rounds, None);
            }
            match self.catch_up(held, left) {
                Ok(()) => return,
                Err(silent) => dead = silent,
            }
        }
    }

    /// Take checkpoint `ck` as the state of `p` live ranks, the simulation
    /// clock rolled back to the snapshot: verbatim when `p` ranks wrote it,
    /// else re-split along the curve with unit load weights and no forces.
    /// True when the adopted state holds forces.
    pub(super) fn adopt(&mut self, ck: Checkpoint, p: usize) -> bool {
        let exact = ck.shards.len() == p;
        (self.time, self.steps) = (ck.time, ck.steps);
        self.dead = vec![false; p];
        if exact {
            (self.ranks, self.domains, self.weights) = (ck.shards, ck.domains, ck.weights);
        } else {
            (self.ranks, self.domains) = seed_decomposition(&ck.particles, p, &self.cfg);
            self.weights = vec![1.0; p];
        }
        let forces = ck.forces.filter(|_| exact);
        let held = forces.is_some();
        self.forces = forces.unwrap_or_else(|| vec![Forces::default(); p]);
        held
    }

    /// Bring an adopted state to step `left` with forces: one gravity
    /// epoch unless it `held` them, then the steps from its own to `left`.
    /// `Err(rank)` for a rank silent in one of those epochs.
    pub(super) fn catch_up(&mut self, held: bool, left: u64) -> Result<(), usize> {
        if !held {
            self.try_gravity_phase()?;
        }
        while self.steps < left {
            self.try_step()?;
        }
        Ok(())
    }

    /// The aborted epoch's unresolved flows die with the rank: they are
    /// closed here so the flow-conservation invariant (every sealed flow is
    /// delivered or dead) survives rollback.
    fn declare_dead(&mut self, rank: usize, kind: Option<MsgKind>, detail: String) {
        self.wire.flows.close_epoch_dead(self.epoch);
        self.wire.log.record_recovery(RecoveryEvent {
            epoch: self.epoch,
            rank,
            peer: None,
            kind,
            action: RecoveryAction::DeclareDead,
            detail,
            flow: NO_FLOW,
        });
        self.dead[rank] = true;
    }

    /// One membership gossip among the living, with `events` known to
    /// `sponsor` only. `Err(rank)`: a live rank stayed silent throughout.
    pub(super) fn gossip(
        &mut self,
        sponsor: usize,
        events: Vec<MembershipEvent>,
    ) -> Result<membership::Convergence, usize> {
        let mut events_at = vec![Vec::new(); self.dead.len()];
        events_at[sponsor] = events;
        let live: Vec<bool> = self.dead.iter().map(|&d| !d).collect();
        membership::converge(&mut self.wire, &live, self.epoch, &self.view, &events_at)
    }

    /// The survivors gossip the death(s) to agreement, in a view without
    /// the dead node(s). A rank that goes silent *during* the death gossip
    /// is added to the casualty list and the round restarts. The world is
    /// counted by liveness flags, not shards: an epoch that failed after
    /// its tree build leaves the shards with the dropped trees.
    fn agree_on_deaths(&mut self) -> membership::Convergence {
        loop {
            self.begin_epoch(MsgKind::View);
            let p = self.dead.len();
            let deaths: Vec<MembershipEvent> = (0..p)
                .filter(|&r| self.dead[r])
                .map(|r| MembershipEvent::Death(self.view.members[r]))
                .collect();
            let sponsor = (0..p)
                .find(|&r| !self.dead[r])
                .expect("no live rank left to recover the cluster");
            match self.gossip(sponsor, deaths) {
                Ok(c) => return c,
                Err(also) => {
                    self.declare_dead(also, Some(MsgKind::View), "silent during death gossip".to_string())
                }
            }
        }
    }

    /// Log, record and publish the change from `old` to the current view,
    /// agreed through `events` in `rounds` gossip rounds. `migrated` is the
    /// `(particles, wire bytes)` a live migration planned to move; a
    /// rollback over the survivors moves none.
    pub(super) fn commit_view_change(
        &mut self,
        rank: usize,
        old: &View,
        events: Vec<MembershipEvent>,
        rounds: usize,
        migrated: Option<(usize, usize)>,
    ) {
        let migrants = migrated.map_or(String::new(), |(n, _)| format!(", {n} migrants"));
        let (from_world, to_world) = (old.world(), self.view.world());
        self.wire.log.record_recovery(RecoveryEvent {
            epoch: self.epoch,
            rank,
            peer: None,
            kind: Some(MsgKind::View),
            action: RecoveryAction::ViewChange,
            detail: format!(
                "view {} -> {} ({from_world} -> {to_world} ranks{migrants})",
                old.number, self.view.number
            ),
            flow: NO_FLOW,
        });
        let (migrated_particles, migrated_bytes) = migrated.unwrap_or((0, 0));
        let change = ViewChange {
            epoch: self.epoch,
            from_view: old.number,
            to_view: self.view.number,
            from_world,
            to_world,
            events,
            rounds,
            migrated_particles,
            migrated_bytes,
        };
        self.record_membership_change(&change);
        self.membership.push(change);
    }
}

/// Initial decomposition: even counts along the SFC (also used to
/// re-split a checkpoint over a world of another size).
pub(super) fn seed_decomposition(
    all: &Particles,
    p: usize,
    cfg: &ClusterConfig,
) -> (Vec<Particles>, Vec<KeyRange>) {
    let keymap = KeyMap::new(&all.bounds(), cfg.tree.curve);
    let keys: Vec<u64> = all.pos.iter().map(|&q| keymap.key_of(q)).collect();
    let mut sorted = keys.clone();
    sorted.sort_unstable();
    let cuts: Vec<u64> = (1..p).map(|i| sorted[i * all.len() / p]).collect();
    let domains = bonsai_sfc::range::ranges_from_cuts(&cuts);
    let mut ranks: Vec<Particles> = (0..p).map(|_| Particles::new()).collect();
    for (i, &key) in keys.iter().enumerate() {
        let r = bonsai_sfc::range::find_owner(&domains, key);
        ranks[r].push(all.pos[i], all.vel[i], all.mass[i], all.id[i]);
    }
    (ranks, domains)
}

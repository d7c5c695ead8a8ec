//! Crash recovery: epochs that retry until one completes, scheduled
//! crashes, and the rollback to the last checkpoint — at a fixed world size
//! or, elastically, over the survivors (§VI-C: restart from the most recent
//! snapshot).

use super::{Cluster, ClusterConfig, MAX_RETRIES_HARD};
use crate::breakdown::StepBreakdown;
use crate::checkpoint::{self, Checkpoint};
use bonsai_net::fault::{FaultEvent, FaultKind, RecoveryAction, RecoveryEvent};
use bonsai_net::membership::{self, MembershipEvent, View, ViewChange};
use bonsai_net::MsgKind;
use bonsai_sfc::{KeyMap, KeyRange};
use bonsai_tree::{Forces, Particles};

impl Cluster {
    pub(super) fn write_recovery_checkpoint(&self) {
        if let Some(rec) = &self.recovery {
            checkpoint::write_checkpoint(self, &rec.dir).expect("checkpoint write failed");
        }
    }

    /// Open the next epoch. Frames held back by Delay/Stall surface now,
    /// carrying their old epoch — receive-side validation discards them as
    /// stale.
    pub(super) fn begin_epoch(&mut self) {
        self.epoch += 1;
        self.wire.flush_delayed();
    }

    /// Every rank the plan schedules to die this epoch dies — simultaneous
    /// crashes are one detection pass, not a chain of separate recoveries.
    /// A hard crash: the rank's in-memory state is gone and it sends
    /// nothing from here on. `kind` is what the epoch was about to exchange.
    pub(super) fn fire_scheduled_crashes(&mut self, kind: MsgKind) {
        let p = self.ranks.len();
        if p == 1 {
            return;
        }
        for r in self.wire.plan().crashed_ranks(self.epoch) {
            if r >= p || self.dead[r] {
                continue;
            }
            self.wire.log.record_fault(FaultEvent {
                epoch: self.epoch,
                from: r,
                to: r,
                kind,
                fault: FaultKind::Crash,
                attempt: 0,
            });
            self.dead[r] = true;
            self.ranks[r] = Particles::new();
            self.forces[r] = Forces::default();
        }
    }

    /// Run gravity epochs until one completes, rolling back to the last
    /// checkpoint when a rank dies. Returns the successful breakdown and
    /// whether any rollback happened (the caller must then redo its step).
    pub(super) fn compute_forces_with_recovery(&mut self) -> (StepBreakdown, bool) {
        let mut restored = false;
        loop {
            self.begin_epoch();
            self.fire_scheduled_crashes(MsgKind::Control);
            match self.try_gravity_phase() {
                Ok(breakdown) => return (breakdown, restored),
                Err(dead) => {
                    self.restore_from_checkpoint(dead);
                    restored = true;
                }
            }
        }
    }

    /// Declare `dead` dead and roll the whole cluster back to the last
    /// checkpoint (the paper-scale recovery path: restart from the most
    /// recent snapshot, §VI-C). The epoch keeps advancing.
    ///
    /// With [`Cluster::enable_elastic_recovery`] the dead node is instead
    /// agreed *out of the view* by the survivors, and the checkpoint is
    /// re-decomposed over the shrunken world — the run continues with one
    /// rank fewer rather than pretending the node came back.
    pub(super) fn restore_from_checkpoint(&mut self, dead: usize) {
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
        if self.elastic && self.dead.iter().any(|&d| !d) && self.dead.len() > 1 {
            self.restore_elastic(&ck, dead);
            return;
        }
        self.reseed_from_checkpoint(&ck, self.dead.len(), dead, "");
    }

    /// The aborted epoch's unresolved flows die with the rank: they are
    /// closed here so the flow-conservation invariant (every sealed flow is
    /// delivered, recovered by fallback, or dead) survives rollback.
    fn declare_dead(&mut self, rank: usize, kind: Option<MsgKind>, detail: String) {
        self.wire.flows.close_epoch_dead(self.epoch);
        self.wire.log.record_recovery(RecoveryEvent {
            epoch: self.epoch,
            rank,
            peer: None,
            kind,
            action: RecoveryAction::DeclareDead,
            detail,
        });
        self.dead[rank] = true;
    }

    /// Re-scatter the checkpoint over a world of `p` live ranks, roll the
    /// simulation clock back to the snapshot, and log it against `dead`.
    fn reseed_from_checkpoint(&mut self, ck: &Checkpoint, p: usize, dead: usize, over: &str) {
        (self.ranks, self.domains) = seed_decomposition(&ck.particles, p, &self.cfg);
        self.forces = vec![Forces::default(); p];
        self.weights = vec![1.0; p];
        self.time = ck.time;
        self.steps = ck.steps;
        self.dead = vec![false; p];
        self.wire.log.record_recovery(RecoveryEvent {
            epoch: self.epoch,
            rank: dead,
            peer: None,
            kind: None,
            action: RecoveryAction::RestoreCheckpoint,
            detail: format!("rolled back to step {} (t = {}){over}", ck.steps, ck.time),
        });
    }

    /// One membership gossip among the living, with `events` known to
    /// `sponsor` only. `Err(rank)`: a live rank stayed silent throughout.
    pub(super) fn gossip(
        &mut self,
        sponsor: usize,
        events: Vec<MembershipEvent>,
    ) -> Result<membership::Convergence, usize> {
        let mut events_at = vec![Vec::new(); self.ranks.len()];
        events_at[sponsor] = events;
        let live: Vec<bool> = self.dead.iter().map(|&d| !d).collect();
        membership::converge(
            &mut self.wire,
            &live,
            self.epoch,
            &self.view,
            &events_at,
            MAX_RETRIES_HARD,
        )
    }

    /// Elastic crash recovery: the survivors gossip the death(s) to
    /// agreement, the dead node(s) leave the view, and the checkpoint is
    /// re-decomposed over the smaller world with the simulation clock
    /// rolled back to the snapshot. A rank that goes silent *during* the
    /// death gossip is added to the casualty list and the round restarts.
    fn restore_elastic(&mut self, ck: &Checkpoint, first_dead: usize) {
        let conv = loop {
            self.begin_epoch();
            let p = self.ranks.len();
            let deaths: Vec<MembershipEvent> = (0..p)
                .filter(|&r| self.dead[r])
                .map(|r| MembershipEvent::Death(self.view.members[r]))
                .collect();
            let sponsor = (0..p)
                .find(|&r| !self.dead[r])
                .expect("no live rank left to recover the cluster");
            match self.gossip(sponsor, deaths) {
                Ok(c) => break c,
                Err(also) => {
                    self.declare_dead(also, Some(MsgKind::View), "silent during death gossip".to_string())
                }
            }
        };
        let old_view = std::mem::replace(&mut self.view, conv.view.clone());
        let new_p = conv.view.world();
        self.wire.resize(new_p);
        self.reseed_from_checkpoint(ck, new_p, first_dead, &format!(" over {new_p} survivors"));
        self.commit_view_change(first_dead, &old_view, conv.events, conv.rounds, None);
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
/// re-scatter a checkpoint during crash recovery).
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

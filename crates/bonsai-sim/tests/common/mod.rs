//! What the integration tests that compare runs bit for bit share: the six
//! named invariants over consecutive [`StepFacts`] snapshots, and the
//! harness that runs fault schedules one by one against a fault-free
//! reference.

use bonsai_net::{FaultKind, FaultLog, FaultPlan, FlowRecord, Injection};
use bonsai_sim::{Cluster, ClusterConfig, RecoveryConfig, StepFacts};
use bonsai_tree::Particles;

/// Positions and accelerations in id order, as bits.
pub fn state_bits(c: &Cluster) -> Vec<(u64, [u64; 6])> {
    let acc = c.accelerations_by_id();
    let g = c.gather();
    let mut bits: Vec<(u64, [u64; 6])> = (g.id.iter().zip(&g.pos))
        .map(|(id, x)| {
            let a = acc[id];
            (*id, [x.x, x.y, x.z, a.x, a.y, a.z].map(f64::to_bits))
        })
        .collect();
    bits.sort_unstable_by_key(|&(id, _)| id);
    bits
}

fn particles_conserved(prev: &StepFacts, now: &StepFacts) {
    assert_eq!(now.particles, prev.particles, "particles lost or made at epoch {}", now.epoch);
}

/// Sealed = delivered + dead, nothing pending.
fn flows_conserved(now: &StepFacts) {
    let flows = now.flows.expect("a snapshot carries the flow totals");
    assert!(flows.holds(), "flow ledger out of balance at epoch {}: {flows:?}", now.epoch);
    assert!(flows.sealed > 0, "nothing crossed the fabric");
}

/// Every step and every view change consumes at least one gravity epoch,
/// and a rollback never rewinds the counter.
fn epoch_strictly_increases(prev: &StepFacts, now: &StepFacts) {
    assert!(now.epoch > prev.epoch, "epoch {} after {}", now.epoch, prev.epoch);
}

/// The world size is a function of the view: it moves only with the view
/// number, which never goes back.
fn world_matches_view(prev: &StepFacts, now: &StepFacts) {
    assert!(now.view >= prev.view, "view {} after {}", now.view, prev.view);
    if now.view == prev.view {
        assert_eq!(now.world, prev.world, "world changed inside view {}", now.view);
    }
}

/// The clock follows the step counter, forwards and — across a rollback to
/// an older checkpoint — backwards.
fn time_advances_by_dt(prev: &StepFacts, now: &StepFacts, dt: f64) {
    let steps = now.step as f64 - prev.step as f64;
    let advanced = now.time - prev.time;
    assert!((advanced - steps * dt).abs() < 1e-12, "{steps} steps moved the clock by {advanced}");
}

/// Whatever recovery did, the cluster comes back with a finite force for
/// every particle it holds. (That no walk forces a `Cut` node is asserted
/// inside the walk, in every debug build.)
fn every_particle_has_a_finite_force(c: &Cluster, now: &StepFacts) {
    let acc = c.accelerations_by_id();
    assert_eq!(acc.len(), now.particles, "particles without a force at epoch {}", now.epoch);
    assert!(acc.values().all(|a| a.is_finite()), "a non-finite force at epoch {}", now.epoch);
}

/// Let `act` loose on the cluster, then check every invariant between the
/// snapshot before it and the one after.
pub fn checked(c: &mut Cluster, prev: &mut StepFacts, act: impl FnOnce(&mut Cluster)) {
    act(c);
    let now = c.step_facts();
    particles_conserved(prev, &now);
    flows_conserved(&now);
    epoch_strictly_increases(prev, &now);
    world_matches_view(prev, &now);
    time_advances_by_dt(prev, &now, c.cfg.dt);
    every_particle_has_a_finite_force(c, &now);
    *prev = now;
}

pub fn step(c: &mut Cluster) {
    c.step();
}

/// A fault-free run: the flows a family is enumerated from, and the state
/// each of its schedules must end on.
pub struct Reference {
    ic: Particles,
    ranks: usize,
    steps: usize,
    clean: Cluster,
    want: Vec<(u64, [u64; 6])>,
}

impl Reference {
    /// `steps` fault-free steps of `ic` over `ranks` ranks, on the process
    /// pool: bits do not depend on the lane count.
    pub fn new(ic: Particles, ranks: usize, steps: usize) -> Self {
        let mut clean = Cluster::new(ic.clone(), ranks, ClusterConfig::default());
        for _ in 0..steps {
            clean.step();
        }
        Self { want: state_bits(&clean), ic, ranks, steps, clean }
    }

    /// One schedule per flow of `epochs` that `keep` accepts: `fault` on its
    /// `attempts`.
    pub fn per_flow(
        &self,
        epochs: std::ops::RangeInclusive<u64>,
        keep: impl Fn(&FlowRecord) -> bool,
        fault: FaultKind,
        attempts: std::ops::Range<u32>,
    ) -> Vec<Injection> {
        let flows = epochs.flat_map(|e| self.clean.flow_ledger().for_epoch(e)).filter(|f| keep(f));
        let at = |f: &FlowRecord| (Some(f.from), Some(f.to), Some(f.kind));
        flows
            .map(|f| {
                let (from, to, kind) = at(f);
                Injection { epoch: f.epoch, from, to, kind, fault, attempts: attempts.clone() }
            })
            .collect()
    }

    /// Run every `stride`-th of `plans` alone, checkpointing every step
    /// when `recover`, with the six invariants after every step; require
    /// `fired` of its fault log, and the fault-free run's world, step count
    /// and bits at the end.
    pub fn replay_each(
        &self,
        name: &str,
        plans: Vec<FaultPlan>,
        stride: usize,
        recover: bool,
        fired: impl Fn(&FaultLog) -> bool,
    ) {
        let dir = std::env::temp_dir().join(format!("bonsai_replay_{name}_{}", std::process::id()));
        for (i, plan) in plans.into_iter().enumerate().step_by(stride) {
            let what = format!("{name} #{i}: {plan:?}");
            let recovery = recover.then(|| {
                let _ = std::fs::remove_dir_all(&dir);
                std::fs::create_dir_all(&dir).unwrap();
                RecoveryConfig { dir: dir.clone(), every: 1 }
            });
            let cfg = ClusterConfig::default();
            let mut c = Cluster::with_faults(self.ic.clone(), self.ranks, cfg, plan, recovery);
            let mut prev = c.step_facts();
            for _ in 0..self.steps {
                checked(&mut c, &mut prev, step);
            }
            assert!(fired(c.fault_log()), "{what}:\n{}", c.fault_log().render());
            assert_eq!((c.rank_count(), c.step_count()), (self.ranks, self.steps as u64), "{what}");
            assert!(state_bits(&c) == self.want, "{what} ended on other bits than the fault-free run");
        }
        let _ = std::fs::remove_dir_all(dir);
    }
}


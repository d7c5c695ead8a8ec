//! Named invariants over consecutive [`StepFacts`] snapshots: whatever the
//! cluster went through between two looks — message faults, a crash rolled
//! back over the survivors, ranks admitted or retired — the same six
//! statements must hold of the pair.

use bonsai_ic::plummer_sphere;
use bonsai_net::{FaultKind, FaultPlan};
use bonsai_sim::{Cluster, ClusterConfig, RecoveryConfig, StepFacts};

fn particles_conserved(prev: &StepFacts, now: &StepFacts) {
    assert_eq!(now.particles, prev.particles, "particles lost or made at epoch {}", now.epoch);
}

/// Sealed = delivered + fallback + dead, nothing pending.
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

/// The LET property: a walk forces a `Cut` node only where a dedicated LET
/// was lost and its receiver walked the sender's boundary instead, so a
/// fault-free step forces none.
fn no_forced_cut_without_a_lost_let(c: &Cluster, epoch: u64) {
    let m = &c.last_measurements;
    if m.degraded_lets == 0 {
        let forced = m.forced_cuts;
        assert_eq!(forced, 0, "{forced} forced cuts with every LET delivered, epoch {epoch}");
    }
}

/// Let `act` loose on the cluster, then check every invariant between the
/// snapshot before it and the one after.
fn checked(c: &mut Cluster, prev: &mut StepFacts, act: impl FnOnce(&mut Cluster)) {
    act(c);
    let now = c.step_facts();
    particles_conserved(prev, &now);
    flows_conserved(&now);
    epoch_strictly_increases(prev, &now);
    world_matches_view(prev, &now);
    time_advances_by_dt(prev, &now, c.cfg.dt);
    no_forced_cut_without_a_lost_let(c, now.epoch);
    *prev = now;
}

fn step(c: &mut Cluster) {
    c.step();
}

fn cluster(name: &str, p: usize, plan: FaultPlan, every: u64) -> Cluster {
    let dir = std::env::temp_dir().join(format!("bonsai_invariants_{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let recovery = Some(RecoveryConfig { dir, every });
    Cluster::with_faults(plummer_sphere(900, 23), p, ClusterConfig::default(), plan, recovery)
}

#[test]
fn invariants_hold_under_message_faults() {
    let plan = (FaultKind::MESSAGE_KINDS.into_iter())
        .fold(FaultPlan::new(11), |plan, kind| plan.with_rate(kind, 0.02));
    let mut c = cluster("faults", 4, plan, 2);
    let mut prev = c.step_facts();
    for _ in 0..8 {
        checked(&mut c, &mut prev, step);
    }
    assert!(!c.fault_log().injected.is_empty(), "the plan injected nothing");
    assert_eq!((prev.step, prev.world), (8, 4));
}

#[test]
fn invariants_hold_across_an_elastic_crash_recovery() {
    // Checkpoints every other step, so the rollback lands on an older step.
    let mut c = cluster("crash", 5, FaultPlan::new(7).with_crash(2, 7), 2);
    c.enable_elastic_recovery();
    let mut prev = c.step_facts();
    for _ in 0..8 {
        checked(&mut c, &mut prev, step);
    }
    assert_eq!((prev.world, prev.view), (4, 1), "the dead rank left the view");
    assert!(prev.step < 8, "the rollback cost no step");
}

#[test]
fn invariants_hold_across_admit_and_retire() {
    let mut c = cluster("churn", 3, FaultPlan::new(0), 0);
    let mut prev = c.step_facts();
    for act in [step, |c: &mut Cluster| c.admit_ranks(2), step, step, |c: &mut Cluster| c.retire_ranks(1), step] {
        checked(&mut c, &mut prev, act);
    }
    assert_eq!((prev.step, prev.world, prev.view), (4, 4, 2));
}

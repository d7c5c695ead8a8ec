//! Named invariants over consecutive [`StepFacts`] snapshots: whatever the
//! cluster went through between two looks — message faults, a crash rolled
//! back over the survivors, ranks admitted or retired — the same six
//! statements must hold of the pair.

use bonsai_ic::plummer_sphere;
use bonsai_net::{FaultKind, FaultPlan, Injection, MsgKind};
use bonsai_sim::{Cluster, ClusterConfig, RecoveryConfig, StepFacts};

mod common;
use common::state_bits;

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

/// Every single message fault over a three-step run at R = 4: each fault
/// kind on each physics message kind, from each sender, in each of the four
/// epochs (the constructor's and three steps'). 6 × 4 × 4 × 4 = 384.
fn single_faults() -> Vec<Injection> {
    let kinds = [MsgKind::Boundary, MsgKind::Particles, MsgKind::Let, MsgKind::Control];
    let mut all = Vec::new();
    for fault in FaultKind::MESSAGE_KINDS {
        for kind in kinds {
            for epoch in 1..=4 {
                for from in 0..4 {
                    let (kind, from) = (Some(kind), Some(from));
                    all.push(Injection { epoch, from, to: None, kind, fault, attempts: 0..1 });
                }
            }
        }
    }
    all
}

/// Run each of `faults` alone and require the fault to fire, the six
/// invariants to hold after every step, and the run to end on the
/// fault-free run's bits.
fn each_single_fault_recovers_to_the_fault_free_bits(faults: &[Injection]) {
    let cfg = ClusterConfig {
        threads: Some(1),
        ..ClusterConfig::default()
    };
    let ic = plummer_sphere(1200, 21);
    let mut clean = Cluster::new(ic.clone(), 4, cfg.clone());
    for _ in 0..3 {
        clean.step();
    }
    let want = state_bits(&clean);
    for inj in faults {
        let plan = FaultPlan::new(0).with_injection(inj.clone());
        let mut c = Cluster::with_faults(ic.clone(), 4, cfg.clone(), plan, None);
        let mut prev = c.step_facts();
        for _ in 0..3 {
            checked(&mut c, &mut prev, step);
        }
        assert!(!c.fault_log().injected.is_empty(), "{inj:?} never fired");
        assert!(state_bits(&c) == want, "{inj:?} recovered to other bits than the fault-free run");
    }
}

#[test]
fn a_stratified_sample_of_single_message_faults_recovers_to_the_fault_free_bits() {
    // Every 7th schedule: 7 is prime to the 16 (epoch, sender) pairs of a
    // (fault, message kind) stratum, so 55 runs cover every stratum at
    // least twice and every epoch and sender in turn.
    let sample: Vec<Injection> = single_faults().into_iter().step_by(7).collect();
    each_single_fault_recovers_to_the_fault_free_bits(&sample);
}

#[test]
#[ignore = "all 384 schedules, ≈ 37 s at the dev profile; scripts/ci.sh runs it in release"]
fn every_single_message_fault_recovers_to_the_fault_free_bits() {
    each_single_fault_recovers_to_the_fault_free_bits(&single_faults());
}

//! Named invariants over consecutive [`StepFacts`] snapshots: whatever the
//! cluster went through between two looks — message faults, a rank silent
//! through the retry budget and rolled back, ranks admitted or retired —
//! the same eight statements must hold of the pair.
//!
//! Then the enumerations: each fault schedule of a family, run alone, with
//! the invariants checked after every step, must end on the fault-free
//! run's bits. Tier-1 runs a stratified sample of the larger families;
//! `scripts/ci.sh` runs every family whole, in release, at one and at three
//! lanes (the runs take the process pool, sized by `BONSAI_THREADS`).

use bonsai_ic::plummer_sphere;
use bonsai_net::{FaultKind, FaultLog, FaultPlan, FlowRecord, Injection, MsgKind, RecoveryAction};
use bonsai_sim::cluster::MAX_RETRIES;
use bonsai_sim::{Cluster, ClusterConfig, RecoveryConfig};

mod common;
use common::{checked, step, Reference};

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
    assert_eq!(prev.step, 8, "the rollback cost a step");
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

/// The R = 4 run the single-fault, LET and stall families share.
fn four_ranks(steps: usize) -> Reference {
    Reference::new(plummer_sphere(1200, 21), 4, steps)
}

/// Every single message fault over a three-step run at R = 4: each fault
/// kind on each physics message kind, from each sender, in each of the four
/// epochs (the constructor's and three steps'). 6 × 4 × 4 × 4 = 384.
fn each_single_message_fault_recovers(stride: usize) {
    let kinds = [MsgKind::Boundary, MsgKind::Particles, MsgKind::Let, MsgKind::Control];
    let mut all = Vec::new();
    for fault in FaultKind::MESSAGE_KINDS {
        for kind in kinds {
            for epoch in 1..=4 {
                for from in 0..4 {
                    let (kind, from) = (Some(kind), Some(from));
                    let inj = Injection { epoch, from, to: None, kind, fault, attempts: 0..1 };
                    all.push(FaultPlan::new(0).with_injection(inj));
                }
            }
        }
    }
    four_ranks(3).replay_each("single", all, stride, false, |log| !log.injected.is_empty());
}

#[test]
fn a_stratified_sample_of_single_message_faults_recovers_to_the_fault_free_bits() {
    // Every 7th schedule: 7 is prime to the 16 (epoch, sender) pairs of a
    // (fault, message kind) stratum, so 55 runs cover every stratum at
    // least twice and every epoch and sender in turn.
    each_single_message_fault_recovers(7);
}

#[test]
#[ignore = "all 384 schedules; scripts/ci.sh runs it in release"]
fn every_single_message_fault_recovers_to_the_fault_free_bits() {
    each_single_message_fault_recovers(1);
}

/// Every dedicated LET of a three-step run at R = 4 dropped on every
/// attempt of the retry budget: its sender is silent, the cluster rolls
/// back to the last checkpoint, one or two steps old, and replays to the
/// step it left.
fn each_let_lost_through_the_budget_replays(stride: usize) {
    let reference = four_ranks(3);
    let is_let = |f: &FlowRecord| f.kind == MsgKind::Let;
    let lets = reference.per_flow(1..=4, is_let, FaultKind::Drop, 0..MAX_RETRIES + 1);
    assert!(lets.len() >= 16, "only {} dedicated LETs in the reference run", lets.len());
    let plans = lets.into_iter().map(|inj| FaultPlan::new(0).with_injection(inj)).collect();
    let one_rollback = |log: &FaultLog| log.recoveries_of(RecoveryAction::RestoreCheckpoint) == 1;
    reference.replay_each("let_budget", plans, stride, true, one_rollback);
}

#[test]
fn a_stratified_sample_of_lets_lost_through_the_budget_replays_to_the_fault_free_bits() {
    // Every 5th LET in ledger order: every epoch, and most senders.
    each_let_lost_through_the_budget_replays(5);
}

#[test]
#[ignore = "every dedicated LET of the run; scripts/ci.sh runs it in release"]
fn every_let_lost_through_the_budget_replays_to_the_fault_free_bits() {
    each_let_lost_through_the_budget_replays(1);
}

#[test]
fn a_stall_of_every_rank_in_every_epoch_replays_to_the_fault_free_bits() {
    // A stalled rank's dedicated LETs hang for the epoch, so it is silent
    // to their receivers and the cluster rolls back. Four steps at R = 4,
    // ranks 0–3 × epochs 1–4, a fixed world; every rank owes a LET in
    // every epoch there, so every stall fires.
    let grid = (0..4).flat_map(|r| (1..=4).map(move |e| FaultPlan::new(0).with_stall(r, e)));
    let stalled = std::cell::Cell::new(0);
    let rolled_back_if_stalled = |log: &FaultLog| {
        let fired = log.injected_of(FaultKind::Stall) > 0;
        stalled.set(stalled.get() + usize::from(fired));
        log.recoveries_of(RecoveryAction::RestoreCheckpoint) == usize::from(fired)
    };
    four_ranks(4).replay_each("stall_grid", grid.collect(), 1, true, rolled_back_if_stalled);
    assert_eq!(stalled.get(), 16, "stalls that held a LET back");
}

/// Every pair of message faults on two distinct flows of one epoch at
/// R = 3 — the first step's, of a two-step run — each fault of any message
/// kind on the flow's first attempt, so retransmission heals both.
fn each_fault_pair_recovers(stride: usize) {
    let reference = Reference::new(plummer_sphere(600, 27), 3, 2);
    let single: Vec<Injection> = (FaultKind::MESSAGE_KINDS.into_iter())
        .flat_map(|fault| reference.per_flow(2..=2, |_| true, fault, 0..1))
        .collect();
    let mut pairs = Vec::new();
    for (i, a) in single.iter().enumerate() {
        let other_flow = |b: &&Injection| (b.from, b.to, b.kind) != (a.from, a.to, a.kind);
        for b in single[i + 1..].iter().filter(other_flow) {
            pairs.push(FaultPlan::new(0).with_injection(a.clone()).with_injection(b.clone()));
        }
    }
    assert!(pairs.len() > 5_000, "only {} pairs", pairs.len());
    reference.replay_each("pairs", pairs, stride, false, |log| log.injected.len() == 2);
}

#[test]
fn a_stratified_sample_of_fault_pairs_recovers_to_the_fault_free_bits() {
    // Every 101st pair, a prime step: the sample walks every pair of fault
    // kinds and every flow in turn.
    each_fault_pair_recovers(101);
}

#[test]
#[ignore = "every pair of one epoch; scripts/ci.sh runs it in release"]
fn every_fault_pair_recovers_to_the_fault_free_bits() {
    each_fault_pair_recovers(1);
}

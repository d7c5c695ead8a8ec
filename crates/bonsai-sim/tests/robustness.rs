//! Robustness and failure-injection tests for the distributed stack:
//! degenerate inputs (empty ranks, coincident particles), corrupted wire
//! payloads, and protocol violations must fail loudly or be absorbed
//! gracefully — never silently corrupt physics.

use bonsai_domain::LetTree;
use bonsai_ic::plummer_sphere;
use bonsai_net::{FaultKind, FaultLog, FaultPlan, FlowRecord, Injection, MsgKind, RecoveryAction};
use bonsai_sim::cluster::MAX_RETRIES;
use bonsai_sim::{Cluster, ClusterConfig, RecoveryConfig};
use bonsai_tree::Particles;
use bonsai_util::Vec3;
use bonsai_verify::{acceleration_diff, equivalence_band, serial_reference};

mod common;
use common::Reference;

#[test]
fn more_ranks_than_justified_by_particles() {
    // 60 particles over 12 ranks: several domains end up nearly or totally
    // empty after sampling. Everything must still work.
    let ic = plummer_sphere(60, 1);
    let mut c = Cluster::new(ic, 12, ClusterConfig::default());
    for _ in 0..3 {
        c.step();
    }
    assert_eq!(c.total_particles(), 60);
    let mut ids = c.gather().id;
    ids.sort_unstable();
    assert_eq!(ids, (0..60).collect::<Vec<u64>>());
}

#[test]
fn heavily_clustered_input_respects_cap_eventually() {
    // All particles initially in a corner blob: the first decomposition is
    // extreme, but the cap keeps the worst rank bounded.
    let mut ic = Particles::new();
    let mut rng = bonsai_util::rng::Xoshiro256::seed_from(2);
    for i in 0..4000 {
        let r = if i < 3800 { 0.05 } else { 3.0 };
        ic.push(rng.unit_sphere() * (r * rng.uniform()), Vec3::zero(), 1.0, i as u64);
    }
    let mut c = Cluster::new(ic, 8, ClusterConfig::default());
    c.step();
    let imb = c.last_measurements.imbalance;
    assert!(imb < 1.6, "imbalance {imb} after capped decomposition");
}

#[test]
fn coincident_particles_do_not_break_the_cluster() {
    let mut ic = plummer_sphere(1000, 3);
    // inject 40 exactly coincident particles (deeper than MAX_LEVEL can split)
    for i in 0..40 {
        ic.push(Vec3::splat(0.123), Vec3::zero(), 1e-3, 10_000 + i);
    }
    let mut c = Cluster::new(ic, 4, ClusterConfig::default());
    c.step();
    assert_eq!(c.total_particles(), 1040);
    for a in c.accelerations_by_id().values() {
        assert!(a.is_finite(), "coincident particles produced non-finite forces");
    }
}

#[test]
fn truncated_let_payload_is_rejected() {
    let ic = plummer_sphere(500, 4);
    let tree = bonsai_tree::build::Tree::build(ic, bonsai_tree::build::TreeParams::default());
    let lt = bonsai_domain::boundary_tree(&tree, &bonsai_sfc::KeyRange::everything());
    let bytes = lt.to_bytes();
    // Any truncation must be detected, not mis-parsed.
    for cut in [0usize, 1, 8, 15, bytes.len() / 2, bytes.len() - 1] {
        assert!(
            LetTree::from_bytes(&bytes[..cut]).is_none(),
            "truncation at {cut} bytes went unnoticed"
        );
    }
}

#[test]
fn corrupted_node_kind_is_rejected() {
    let ic = plummer_sphere(200, 5);
    let tree = bonsai_tree::build::Tree::build(ic, bonsai_tree::build::TreeParams::default());
    let lt = bonsai_domain::boundary_tree(&tree, &bonsai_sfc::KeyRange::everything());
    let mut bytes = lt.to_bytes().to_vec();
    // Find the first node's kind byte and clobber it with an invalid tag:
    // the header, then the record's 14 f64s and two u32s.
    let kind_offset = bonsai_domain::lettree::HEADER_SIZE + 8 * 14 + 4 + 4;
    bytes[kind_offset] = 0xFF;
    assert!(LetTree::from_bytes(&bytes).is_none(), "bad node kind accepted");
}

#[test]
fn single_particle_per_rank_extreme() {
    let ic = plummer_sphere(6, 6);
    let mut c = Cluster::new(ic, 6, ClusterConfig::default());
    let b = c.step();
    assert_eq!(c.total_particles(), 6);
    assert!(b.total() >= 0.0);
}

/// A fresh, unique checkpoint directory for a chaos run.
fn chaos_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("bonsai_chaos_{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The full chaos plan: background fault rates on every message-level kind,
/// one forced injection of each kind (all from rank 0, so guaranteed to hit
/// real traffic), a stalled rank and a hard crash.
fn chaos_plan(seed: u64) -> FaultPlan {
    let mut plan = FaultPlan::new(seed);
    for kind in FaultKind::MESSAGE_KINDS {
        plan = plan.with_rate(kind, 0.02);
    }
    for (i, kind) in FaultKind::MESSAGE_KINDS.into_iter().enumerate() {
        plan = plan.with_injection(Injection {
            epoch: 2 + i as u64,
            from: Some(0),
            to: None,
            kind: None,
            fault: kind,
            attempts: 0..1,
        });
    }
    plan.with_stall(1, 8).with_stall(1, 9).with_crash(2, 12)
}

#[test]
fn chaos_soak_every_fault_kind_recovered() {
    // 20 steps under a plan that injects at least one fault of every kind,
    // including a mid-run rank crash recovered from checkpoint. Physics
    // must come out whole: no lost particles, finite forces, bounded
    // energy drift.
    let dir = chaos_dir("soak");
    let ic = plummer_sphere(3000, 17);
    let mut c = Cluster::with_faults(
        ic,
        6,
        ClusterConfig::default(),
        chaos_plan(2024),
        Some(RecoveryConfig { dir, every: 2 }),
    );
    let e0 = c.energy_report().total();
    // Retransmissions are read from the ledger epoch by epoch as each step
    // completes: 20 steps cross the ledger's first eviction.
    let mut retx = 0;
    let mut counted = 0;
    for _ in 0..20 {
        c.step();
        for e in counted + 1..=c.current_epoch() {
            let records = c.flow_ledger().for_epoch(e);
            retx += records.iter().map(|r| r.attempts - 1).sum::<u32>();
        }
        counted = c.current_epoch();
    }
    assert!(
        c.flow_ledger().records()[0].epoch > 1,
        "the soak no longer crosses an eviction"
    );

    // Conservation: every particle survived the crash + rollback.
    assert_eq!(c.total_particles(), 3000);
    let mut ids = c.gather().id;
    ids.sort_unstable();
    assert_eq!(ids, (0..3000).collect::<Vec<u64>>());
    for a in c.accelerations_by_id().values() {
        assert!(a.is_finite(), "chaos run produced non-finite forces");
    }
    let drift = ((c.energy_report().total() - e0) / e0).abs();
    assert!(drift < 0.05, "energy drift {drift} under faults");

    // Every fault kind was actually exercised …
    let log = c.fault_log();
    for kind in FaultKind::MESSAGE_KINDS {
        assert!(log.injected_of(kind) >= 1, "no {kind} fault injected");
    }
    assert!(log.injected_of(FaultKind::Stall) >= 1, "no stall injected");
    assert!(log.injected_of(FaultKind::Crash) >= 1, "no crash injected");
    // … and every one was detected and handled.
    assert!(log.recoveries_of(RecoveryAction::Retransmit) >= 1);
    assert!(log.recoveries_of(RecoveryAction::DeclareDead) >= 1);
    assert!(log.recoveries_of(RecoveryAction::RestoreCheckpoint) >= 1);
    assert!(!log.render().is_empty());

    // Flow-ledger conservation: even with every fault kind firing, each
    // sealed envelope must reach exactly one terminal outcome — nothing
    // pending, nothing double-counted, nothing vanished.
    let k = c.flow_conservation();
    assert!(
        k.holds(),
        "flow ledger does not conserve under chaos: {} sealed vs {} delivered \
         + {} dead (+{} pending)",
        k.sealed,
        k.delivered,
        k.dead,
        k.pending
    );
    assert!(k.dead >= 1, "chaos plan terminated no flow abnormally");
    assert!(retx >= 1, "chaos soak recorded no retransmission in the ledger");
}

#[test]
fn chaos_identical_seed_identical_log() {
    // Fault injection is a pure function of (seed, message coordinates):
    // the same plan must produce bit-identical fault logs and trajectories.
    let run = |tag: &str| {
        let dir = chaos_dir(tag);
        let mut c = Cluster::with_faults(
            plummer_sphere(1500, 23),
            4,
            ClusterConfig::default(),
            FaultPlan::new(77)
                .with_rate(FaultKind::Drop, 0.05)
                .with_rate(FaultKind::Corrupt, 0.05)
                .with_crash(1, 6),
            Some(RecoveryConfig { dir, every: 2 }),
        );
        for _ in 0..10 {
            c.step();
        }
        (c.fault_log().clone(), c.flow_ledger().clone(), c.gather())
    };
    let (log_a, flows_a, pa) = run("det_a");
    let (log_b, flows_b, pb) = run("det_b");
    assert!(!log_a.is_clean(), "plan injected nothing");
    assert_eq!(log_a, log_b, "same seed produced different fault logs");
    // The flow ledger is part of the deterministic surface too: same seed,
    // same envelope lifecycles (ids, attempts, injected faults, outcomes).
    assert!(!flows_a.records().is_empty(), "run sealed no flows");
    assert_eq!(
        flows_a.records(),
        flows_b.records(),
        "same seed produced different flow ledgers"
    );

    let sorted = |p: &Particles| {
        let mut v: Vec<(u64, Vec3)> = p.id.iter().copied().zip(p.pos.iter().copied()).collect();
        v.sort_by_key(|&(id, _)| id);
        v
    };
    assert_eq!(sorted(&pa), sorted(&pb), "same seed diverged");
}

#[test]
fn chaos_crash_without_recovery_config_panics_loudly() {
    let plan = FaultPlan::new(5).with_crash(1, 3);
    let msg = panic_message(|| {
        let mut c = Cluster::with_faults(plummer_sphere(600, 29), 3, ClusterConfig::default(), plan, None);
        for _ in 0..5 {
            c.step();
        }
    });
    assert!(msg.contains("no recovery checkpoint"), "panic message: {msg}");
}

#[test]
fn simultaneous_crashes_in_one_epoch_recover_in_one_pass() {
    // Two ranks scheduled to die in the *same* epoch: detection must treat
    // them as one casualty set — a single rollback, not a chain of partial
    // recoveries that could observe a half-dead world.
    let dir = chaos_dir("double_crash");
    let plan = FaultPlan::new(13).with_crash(1, 5).with_crash(3, 5);
    let mut c = Cluster::with_faults(
        plummer_sphere(2000, 19),
        5,
        ClusterConfig::default(),
        plan,
        Some(RecoveryConfig { dir, every: 1 }),
    );
    for _ in 0..8 {
        c.step();
    }
    assert_eq!(c.rank_count(), 5, "fixed-world recovery resized the world");
    assert_eq!(c.total_particles(), 2000);
    let mut ids = c.gather().id;
    ids.sort_unstable();
    assert_eq!(ids, (0..2000).collect::<Vec<u64>>());
    for a in c.accelerations_by_id().values() {
        assert!(a.is_finite());
    }
    let log = c.fault_log();
    assert_eq!(
        log.injected_of(FaultKind::Crash),
        2,
        "both scheduled crashes must fire"
    );
    assert!(log.recoveries_of(RecoveryAction::RestoreCheckpoint) >= 1);
}

#[test]
fn simultaneous_crashes_with_elastic_recovery_drop_both_from_view() {
    // The elastic variant of the same-epoch double crash: one death-gossip
    // round agrees both nodes out, and the world shrinks by two at once.
    let dir = chaos_dir("double_crash_elastic");
    let plan = FaultPlan::new(13).with_crash(1, 5).with_crash(3, 5);
    let mut c = Cluster::with_faults(
        plummer_sphere(2000, 19),
        5,
        ClusterConfig::default(),
        plan,
        Some(RecoveryConfig { dir, every: 1 }),
    );
    c.enable_elastic_recovery();
    for _ in 0..8 {
        c.step();
    }
    assert_eq!(c.rank_count(), 3, "both dead ranks must leave the world");
    assert_eq!(c.view().world(), 3);
    assert!(!c.view().contains(1) && !c.view().contains(3));
    assert_eq!(c.total_particles(), 2000);
    let mut ids = c.gather().id;
    ids.sort_unstable();
    assert_eq!(ids, (0..2000).collect::<Vec<u64>>());
    let ch = c.membership_log().changes().last().expect("deaths logged");
    assert_eq!((ch.from_world, ch.to_world), (5, 3));
}

#[test]
fn checkpoint_resumes_across_changed_world_size() {
    // A manifest written at R = 4 resumed at R = 6: the population is
    // re-decomposed over the new world, the simulation clock carries over,
    // and the resumed force field matches the serial oracle.
    let ic = plummer_sphere(1600, 47);
    let cfg = ClusterConfig::default();
    let mut a = Cluster::new(ic, 4, cfg.clone());
    for _ in 0..3 {
        a.step();
    }
    let dir = chaos_dir("elastic_resume");
    bonsai_sim::checkpoint::write_checkpoint(&a, &dir).unwrap();

    let b = bonsai_sim::checkpoint::restore_cluster(&dir, 6, cfg.clone()).unwrap();
    assert_eq!(b.rank_count(), 6);
    assert_eq!(b.step_count(), a.step_count(), "resume reset the step count");
    assert_eq!(b.time().to_bits(), a.time().to_bits(), "resume reset the clock");
    assert_eq!(b.total_particles(), 1600);
    let mut ids = b.gather().id;
    ids.sort_unstable();
    assert_eq!(ids, (0..1600).collect::<Vec<u64>>());

    let reference = serial_reference(&b.gather(), &cfg);
    let diff = acceleration_diff(&b.accelerations_by_id(), &reference);
    let band = equivalence_band(cfg.theta, 6);
    assert!(
        band.violation(&diff).is_none(),
        "resumed forces {diff:?} outside {band:?}"
    );

    // The widened world keeps stepping and keeps every particle.
    let mut b = b;
    b.step();
    assert_eq!(b.total_particles(), 1600);
}

#[test]
fn zero_velocity_cold_collapse_survives_many_steps() {
    // Cold collapse: the most violent load-rebalancing scenario (everything
    // falls to the centre and re-expands).
    let mut ic = plummer_sphere(1500, 7);
    for v in &mut ic.vel {
        *v = Vec3::zero();
    }
    let mut cfg = ClusterConfig::default();
    cfg.dt = 0.005;
    cfg.eps = 0.05;
    let mut c = Cluster::new(ic, 5, cfg);
    for _ in 0..30 {
        c.step();
    }
    assert_eq!(c.total_particles(), 1500);
    for a in c.accelerations_by_id().values() {
        assert!(a.is_finite());
    }
}

#[test]
fn exact_resume_trajectory_is_bit_identical() {
    // The conformance-suite contract (DESIGN.md §6f): restoring from an
    // exact-resume v2 checkpoint mid-run and stepping on must reproduce the
    // uninterrupted run's accelerations and positions to the bit — not
    // within a tolerance. (Contrast with restore_cluster over another rank
    // count, which re-splits and evaluates forces afresh.)
    let ic = plummer_sphere(800, 11);
    let cfg = ClusterConfig::default();
    let mut a = Cluster::new(ic.clone(), 4, cfg.clone());
    a.step();
    a.step();

    let dir = std::env::temp_dir().join("bonsai_robust").join("exact_resume");
    let _ = std::fs::remove_dir_all(&dir);
    bonsai_sim::checkpoint::write_checkpoint(&a, &dir).unwrap();
    let mut b = bonsai_sim::checkpoint::resume_cluster_exact(&dir, cfg).unwrap();

    for step in 0..3 {
        a.step();
        b.step();
        let (fa, fb) = (a.accelerations_by_id(), b.accelerations_by_id());
        assert_eq!(fa.len(), fb.len());
        for (id, acc) in &fa {
            assert_eq!(
                acc, &fb[id],
                "step {step}: acceleration of particle {id} diverged after exact resume"
            );
        }
    }
    assert_eq!(a.time().to_bits(), b.time().to_bits());
    assert_eq!(a.step_count(), b.step_count());
    let mut pa: Vec<(u64, Vec3)> = {
        let g = a.gather();
        g.id.iter().copied().zip(g.pos.iter().copied()).collect()
    };
    let mut pb: Vec<(u64, Vec3)> = {
        let g = b.gather();
        g.id.iter().copied().zip(g.pos.iter().copied()).collect()
    };
    pa.sort_by_key(|(i, _)| *i);
    pb.sort_by_key(|(i, _)| *i);
    assert_eq!(pa, pb, "positions diverged after exact resume");
}

#[test]
fn a_fixed_world_crash_replays_to_the_fault_free_bits() {
    // A crash of every rank in every epoch of a four-step run that
    // checkpoints every step. The rollback adopts the checkpoint's domains,
    // load weights and forces, so the replay is the fault-free run to the
    // bit: epoch 1 rolls back to the pre-force initial checkpoint, later
    // epochs to a checkpoint whose weights are no longer the unit ones.
    let grid = (0..4).flat_map(|r| (1..=4).map(move |e| FaultPlan::new(0).with_crash(r, e)));
    let rolled_back = |log: &FaultLog| {
        log.injected_of(FaultKind::Crash) == 1 && log.recoveries_of(RecoveryAction::RestoreCheckpoint) == 1
    };
    Reference::new(plummer_sphere(1200, 21), 4, 4).replay_each("crash_grid", grid.collect(), 1, true, rolled_back);
}

/// A two-step fault-free run at R = 4, and a plan that drops the first
/// dedicated LET it sent on `attempts`.
fn first_dedicated_let(attempts: std::ops::Range<u32>) -> (Reference, FaultPlan) {
    let reference = Reference::new(plummer_sphere(1200, 21), 4, 2);
    let is_let = |f: &FlowRecord| f.kind == MsgKind::Let;
    let first = reference.per_flow(1..=1, is_let, FaultKind::Drop, attempts).remove(0);
    (reference, FaultPlan::new(0).with_injection(first))
}

#[test]
fn a_let_dropped_through_the_retry_budget_replays_to_the_fault_free_bits() {
    // Every attempt the retry budget allows is dropped: the sender is
    // silent to its receiver, the same event as a rank silent on the
    // heartbeat. The cluster declares it dead, rolls back to the initial
    // checkpoint and replays the epoch: the fault-free run to the bit.
    let (reference, plan) = first_dedicated_let(0..MAX_RETRIES + 1);
    reference.replay_each("let_through_the_budget", vec![plan], 1, true, |log| {
        log.injected_of(FaultKind::Drop) == MAX_RETRIES as usize + 1
            && log.recoveries_of(RecoveryAction::DeclareDead) == 1
            && log.recoveries_of(RecoveryAction::RestoreCheckpoint) == 1
    });
}

#[test]
fn a_let_dropped_one_attempt_short_of_the_budget_is_the_fault_free_run() {
    let (reference, plan) = first_dedicated_let(0..MAX_RETRIES);
    reference.replay_each("let_short_of_the_budget", vec![plan], 1, false, |log| {
        log.injected_of(FaultKind::Drop) == MAX_RETRIES as usize
            && log.recoveries_of(RecoveryAction::DeclareDead) == 0
    });
}

/// The panic message of `f`, which must panic.
fn panic_message(f: impl FnOnce() + std::panic::UnwindSafe) -> String {
    let err = std::panic::catch_unwind(f).expect_err("a run that had to stop went on");
    err.downcast_ref::<String>().cloned().unwrap_or_default()
}

#[test]
fn a_rank_silent_through_every_replay_ends_the_run_by_name() {
    // A fabric that loses everything: each rollback replays into the same
    // silence, and after MAX_RETRIES consecutive rollbacks the one recovery
    // loop names the rank and the epoch — in construction, whose checkpoint
    // holds no forces, and in the second step, whose checkpoint holds them.
    let all_lost = FaultPlan::new(5).with_rate(FaultKind::Drop, 1.0);
    let from_epoch_3 = (3..=3 + u64::from(MAX_RETRIES)).fold(FaultPlan::new(5), |plan, epoch| {
        let (from, to, kind, fault) = (None, None, None, FaultKind::Drop);
        plan.with_injection(Injection { epoch, from, to, kind, fault, attempts: 0..MAX_RETRIES + 1 })
    });
    for (plan, steps, epoch) in [(all_lost, 0, 1 + MAX_RETRIES), (from_epoch_3, 2, 3 + MAX_RETRIES)] {
        let dir = chaos_dir(&format!("silent_after_{steps}_steps"));
        let recovery = Some(RecoveryConfig { dir: dir.clone(), every: 1 });
        let msg = panic_message(|| {
            let mut c = Cluster::with_faults(plummer_sphere(400, 3), 4, ClusterConfig::default(), plan, recovery);
            for _ in 0..steps {
                c.step();
            }
        });
        let _ = std::fs::remove_dir_all(dir);
        let budget = format!("after {MAX_RETRIES} consecutive rollbacks");
        let want = format!("rank 1 silent through the retry budget at epoch {epoch}, {budget}");
        assert!(msg.contains(&want), "{msg}");
    }
}

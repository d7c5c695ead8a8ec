//! Elastic-membership integration tests: online grow/shrink under churn and
//! message faults, elastic crash recovery, and health-driven autoscaling.
//! The contract throughout is the one the CI membership gate enforces — a
//! view change moves *observation* (rank assignment, domains, forces), never
//! physics: no particle is lost, the clock is untouched, and the post-change
//! force field matches the serial oracle at the cluster's own positions.

use bonsai_ic::plummer_sphere;
use bonsai_net::fault::Injection;
use bonsai_net::{FaultKind, FaultPlan, MsgKind, RecoveryAction};
use bonsai_obs::health::{Condition, Rule, Severity};
use bonsai_obs::stream::{FrameKind, SubscriberConfig};
use bonsai_sim::{
    AutoscaleConfig, Cluster, ClusterConfig, LongRunConfig, RecoveryConfig, StreamConfig,
};
use bonsai_verify::{acceleration_diff, equivalence_band, serial_reference};

/// A fresh, unique checkpoint directory for an elastic run.
fn elastic_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("bonsai_elastic_{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Sorted particle ids — the conservation invariant.
fn sorted_ids(c: &Cluster) -> Vec<u64> {
    let mut ids = c.gather().id;
    ids.sort_unstable();
    ids
}

/// Assert the cluster's current force field sits inside the distributed
/// equivalence band against a serial walk over the *same* positions.
fn assert_matches_serial_oracle(c: &Cluster, cfg: &ClusterConfig, what: &str) {
    let reference = serial_reference(&c.gather(), cfg);
    let diff = acceleration_diff(&c.accelerations_by_id(), &reference);
    let band = equivalence_band(cfg.theta, c.rank_count());
    assert!(
        band.violation(&diff).is_none(),
        "{what}: {diff:?} outside {band:?}"
    );
}

#[test]
fn grow_online_preserves_population_and_clock() {
    let cfg = ClusterConfig::default();
    let mut c = Cluster::new(plummer_sphere(1200, 31), 3, cfg.clone());
    c.step();
    c.step();
    let (t, s) = (c.time(), c.step_count());

    c.admit_ranks(2);

    assert_eq!(c.rank_count(), 5);
    assert_eq!(c.view().world(), 5);
    assert_eq!(c.total_particles(), 1200, "growth lost particles");
    assert_eq!(c.time(), t, "view change must not advance the clock");
    assert_eq!(c.step_count(), s);
    let ch = c.membership_log().changes().last().expect("change logged");
    assert_eq!((ch.from_world, ch.to_world), (3, 5));
    assert!(
        ch.migrated_particles > 0,
        "joiners received no particles: the re-split did nothing"
    );
    assert_matches_serial_oracle(&c, &cfg, "post-growth forces");

    // The grown world keeps stepping and keeps every particle.
    c.step();
    c.step();
    assert_eq!(sorted_ids(&c), (0..1200).collect::<Vec<u64>>());
}

#[test]
fn shrink_online_ships_departures_to_survivors() {
    let cfg = ClusterConfig::default();
    let mut c = Cluster::new(plummer_sphere(1500, 37), 6, cfg.clone());
    c.step();

    c.retire_ranks(2);

    assert_eq!(c.rank_count(), 4);
    assert_eq!(c.view().world(), 4);
    assert_eq!(c.total_particles(), 1500, "retirement lost particles");
    let ch = c.membership_log().changes().last().expect("change logged");
    assert_eq!((ch.from_world, ch.to_world), (6, 4));
    assert!(
        ch.migrated_particles > 0,
        "departing ranks shipped nothing yet the population is intact?"
    );
    assert_matches_serial_oracle(&c, &cfg, "post-shrink forces");

    c.step();
    c.step();
    assert_eq!(sorted_ids(&c), (0..1500).collect::<Vec<u64>>());
}

#[test]
fn membership_chaos_soak_with_churn_keeps_physics_whole() {
    // The tentpole gate: grow/shrink churn every few steps while the fabric
    // drops, duplicates and corrupts messages. Afterwards the population,
    // the energy budget and the force field must all come out whole.
    let dir = elastic_dir("soak");
    let cfg = ClusterConfig::default();
    let plan = FaultPlan::new(4242)
        .with_rate(FaultKind::Drop, 0.02)
        .with_rate(FaultKind::Duplicate, 0.02)
        .with_rate(FaultKind::Corrupt, 0.02);
    let mut c = Cluster::with_faults(
        plummer_sphere(2400, 41),
        4,
        cfg.clone(),
        plan,
        Some(RecoveryConfig { dir, every: 2 }),
    );
    let e0 = c.energy_report().total();

    for step in 0..18 {
        c.step();
        match step {
            2 => c.admit_ranks(2),  // 4 -> 6
            5 => c.retire_ranks(1), // 6 -> 5
            8 => c.admit_ranks(1),  // 5 -> 6
            11 => c.retire_ranks(2), // 6 -> 4
            14 => c.admit_ranks(2), // 4 -> 6
            _ => {}
        }
    }

    assert_eq!(c.rank_count(), 6);
    assert_eq!(c.total_particles(), 2400, "churn under faults lost particles");
    assert_eq!(sorted_ids(&c), (0..2400).collect::<Vec<u64>>());
    for a in c.accelerations_by_id().values() {
        assert!(a.is_finite(), "churn produced non-finite forces");
    }
    let drift = ((c.energy_report().total() - e0) / e0).abs();
    assert!(drift < 0.05, "energy drift {drift} across elastic churn");

    // Every scripted change was agreed and audited.
    assert_eq!(c.membership_log().changes().len(), 5);
    assert!(c.fault_log().recoveries_of(RecoveryAction::ViewChange) >= 5);
    assert!(
        !c.fault_log().is_clean(),
        "the plan injected nothing — the soak proved nothing"
    );
    // View numbers are strictly increasing (self-stabilizing assignment).
    let numbers: Vec<u64> = c
        .membership_log()
        .changes()
        .iter()
        .map(|ch| ch.to_view)
        .collect();
    assert!(numbers.windows(2).all(|w| w[0] < w[1]), "{numbers:?}");

    assert_matches_serial_oracle(&c, &cfg, "post-soak forces");
}

#[test]
fn membership_churn_is_deterministic() {
    // Same seed, same churn script: bit-identical fault logs, membership
    // logs and trajectories — the elastic layer must not introduce any
    // nondeterminism (this is what makes BENCH_membership.json comparable
    // byte-for-byte across runs).
    let run = |tag: &str| {
        let dir = elastic_dir(tag);
        let plan = FaultPlan::new(99).with_rate(FaultKind::Drop, 0.03);
        let mut c = Cluster::with_faults(
            plummer_sphere(900, 43),
            3,
            ClusterConfig::default(),
            plan,
            Some(RecoveryConfig { dir, every: 2 }),
        );
        for step in 0..8 {
            c.step();
            if step == 2 {
                c.admit_ranks(1);
            }
            if step == 5 {
                c.retire_ranks(1);
            }
        }
        let mut pos: Vec<(u64, bonsai_util::Vec3)> = {
            let g = c.gather();
            g.id.iter().copied().zip(g.pos.iter().copied()).collect()
        };
        pos.sort_by_key(|&(id, _)| id);
        (c.fault_log().clone(), c.membership_log().render(), pos)
    };
    let (fa, ma, pa) = run("det_a");
    let (fb, mb, pb) = run("det_b");
    assert_eq!(fa, fb, "fault logs diverged");
    assert_eq!(ma, mb, "membership logs diverged");
    assert_eq!(pa, pb, "trajectories diverged");
}

/// `Delay` on the first transmission of every `kind` frame 1 → 0 in `epoch`.
fn delay_1_to_0(plan: FaultPlan, epoch: u64, kind: MsgKind) -> FaultPlan {
    plan.with_injection(Injection {
        epoch,
        from: Some(1),
        to: Some(0),
        kind: Some(kind),
        fault: FaultKind::Delay,
        attempts: 0..1,
    })
}

/// The books of a run whose plan held frames back: every one was sent
/// again, every flow is settled, and `stale` discards were logged.
fn assert_held_back_frames_settled(c: &Cluster, n: usize, stale: usize, what: &str) {
    let log = c.fault_log();
    assert!(log.injected_of(FaultKind::Delay) >= 1, "{what}: the plan held nothing back");
    assert!(log.recoveries_of(RecoveryAction::Retransmit) >= 1, "{what}: nothing was sent again");
    assert_eq!(log.recoveries_of(RecoveryAction::DiscardStale), stale, "{what}:\n{}", log.render());
    assert!(c.flow_conservation().holds(), "{what}: {:?}", c.flow_conservation());
    assert_eq!(c.total_particles(), n, "{what}: lost particles");
}

#[test]
fn frames_held_back_when_the_fabric_is_rebuilt_are_dropped_with_it() {
    // A delayed frame normally surfaces at the next `begin_epoch` and is
    // discarded as stale. One still held when a view change or an elastic
    // rollback replaces the fabric goes with the old fabric instead: its
    // flow was settled by the retransmission, and no stale discard for it
    // is ever logged. The epoch after construction is 1, a step adds one,
    // and the view-change gossip opens the next.
    let cfg = ClusterConfig::default;

    // Grow: the fabric is rebuilt between the gossip and the migration.
    let plan = delay_1_to_0(FaultPlan::new(3), 3, MsgKind::View);
    let mut c = Cluster::with_faults(plummer_sphere(900, 33), 3, cfg(), plan, None);
    c.step();
    c.admit_ranks(1);
    assert_eq!((c.rank_count(), c.current_epoch()), (4, 4));
    c.step();
    assert_held_back_frames_settled(&c, 900, 0, "grow");

    // Shrink: rebuilt after the migration, which is held back too.
    let plan = delay_1_to_0(FaultPlan::new(3), 3, MsgKind::View);
    let plan = delay_1_to_0(plan, 3, MsgKind::Particles);
    let mut c = Cluster::with_faults(plummer_sphere(900, 33), 4, cfg(), plan, None);
    c.step();
    c.retire_ranks(1);
    assert_eq!((c.rank_count(), c.current_epoch()), (3, 4));
    c.step();
    assert_eq!(c.fault_log().injected_of(FaultKind::Delay), 3, "two gossip rounds, one migration");
    assert_held_back_frames_settled(&c, 900, 0, "shrink");

    // Elastic rollback: rank 3 dies in epoch 3, the survivors gossip it out
    // in epoch 4 and the fabric is rebuilt over them.
    let plan = delay_1_to_0(FaultPlan::new(3).with_crash(3, 3), 4, MsgKind::View);
    let recovery = RecoveryConfig { dir: elastic_dir("held_back"), every: 1 };
    let mut c = Cluster::with_faults(plummer_sphere(900, 33), 4, cfg(), plan, Some(recovery));
    c.enable_elastic_recovery();
    c.step();
    c.step();
    c.step();
    assert_eq!(c.rank_count(), 3);
    assert_held_back_frames_settled(&c, 900, 0, "elastic rollback");
}

#[test]
fn frames_held_back_in_the_epoch_before_a_view_change_surface_stale_in_its_gossip() {
    // The contrast: what `Delay` holds back during the gravity epoch
    // *before* a view change is released by the change's own
    // `begin_epoch`, onto the old fabric, and discarded by the gossip's
    // drain in the gossip's words — one discard per held frame, none lost.
    // (No stall here: a stalled rank is silent, and its epoch rolls back
    // instead of completing.)
    let plan = delay_1_to_0(FaultPlan::new(3), 2, MsgKind::Control);
    let cfg = ClusterConfig::default();
    let mut c = Cluster::with_faults(plummer_sphere(900, 33), 3, cfg, plan, None);
    c.step();
    let held = {
        let log = c.fault_log();
        assert_eq!(log.recoveries_of(RecoveryAction::DiscardStale), 0);
        log.injected_of(FaultKind::Delay)
    };
    c.admit_ranks(1);
    c.step();
    assert_held_back_frames_settled(&c, 900, held, "epoch before a grow");
    let log = c.fault_log();
    let stale = log.recoveries.iter().filter(|e| e.action == RecoveryAction::DiscardStale);
    for e in stale {
        assert_eq!((e.epoch, e.kind), (3, Some(MsgKind::View)), "{e:?}");
        assert_eq!(e.detail, "view frame from epoch 2");
    }
}

#[test]
fn elastic_crash_recovery_shrinks_the_world() {
    // With elastic recovery enabled, a dead rank is gossiped out of the
    // view and the checkpoint re-decomposed over the survivors — the world
    // gets smaller instead of resurrecting the crashed rank.
    let dir = elastic_dir("crash");
    let plan = FaultPlan::new(7).with_crash(2, 6);
    let mut c = Cluster::with_faults(
        plummer_sphere(1500, 51),
        5,
        ClusterConfig::default(),
        plan,
        Some(RecoveryConfig { dir, every: 1 }),
    );
    c.enable_elastic_recovery();
    for _ in 0..8 {
        c.step();
    }

    assert_eq!(c.rank_count(), 4, "dead rank was resurrected");
    assert_eq!(c.view().world(), 4);
    assert!(!c.view().contains(2), "dead node still in the view");
    assert_eq!(c.total_particles(), 1500, "elastic recovery lost particles");
    assert_eq!(sorted_ids(&c), (0..1500).collect::<Vec<u64>>());

    let ch = c.membership_log().changes().last().expect("death logged");
    assert_eq!((ch.from_world, ch.to_world), (5, 4));
    let log = c.fault_log();
    assert!(log.injected_of(FaultKind::Crash) >= 1);
    assert!(log.recoveries_of(RecoveryAction::DeclareDead) >= 1);
    assert!(log.recoveries_of(RecoveryAction::RestoreCheckpoint) >= 1);
    assert!(log.recoveries_of(RecoveryAction::ViewChange) >= 1);
}

#[test]
fn fixed_world_recovery_still_works_when_elastic_is_off() {
    // Regression guard: the elastic field must not change the default
    // crash-recovery semantics (world size stays fixed).
    let dir = elastic_dir("fixed");
    let plan = FaultPlan::new(7).with_crash(2, 6);
    let mut c = Cluster::with_faults(
        plummer_sphere(1500, 51),
        5,
        ClusterConfig::default(),
        plan,
        Some(RecoveryConfig { dir, every: 1 }),
    );
    for _ in 0..8 {
        c.step();
    }
    assert_eq!(c.rank_count(), 5, "fixed-world recovery changed the world");
    assert_eq!(c.view().world(), 5);
    assert_eq!(c.total_particles(), 1500);
    assert!(c.membership_log().is_empty(), "no view change expected");
}

#[test]
fn an_elastic_rollback_inside_a_view_change_leaves_forces() {
    // The retire target dies in the gossip epoch of its own leave: the
    // survivors roll back over four ranks, the `Leave` is moot, and the
    // view change returns. The restore must leave a force for every
    // particle, or the next kick–drift zips over an empty set and moves
    // nothing.
    let dir = elastic_dir("crash_in_view_change");
    let plan = FaultPlan::new(7).with_crash(4, 4);
    let mut c = Cluster::with_faults(
        plummer_sphere(1500, 51),
        5,
        ClusterConfig::default(),
        plan,
        Some(RecoveryConfig { dir, every: 1 }),
    );
    c.enable_elastic_recovery();
    c.step();
    c.step();
    c.retire_ranks(1);

    assert_eq!(c.fault_log().injected_of(FaultKind::Crash), 1, "the crash never fired");
    assert_eq!(c.rank_count(), 4);
    assert!(!c.view().contains(4), "the dead retire target is still in the view");
    let acc = c.accelerations_by_id();
    assert_eq!(acc.len(), 1500, "the rollback left particles without forces");
    assert!(acc.values().all(|a| a.is_finite()));

    let before: std::collections::HashMap<u64, _> = {
        let g = c.gather();
        g.id.iter().copied().zip(g.pos.iter().copied()).collect()
    };
    c.step();
    let after = c.gather();
    let moved = (after.id.iter().zip(&after.pos)).filter(|(id, x)| before[id] != **x).count();
    assert_eq!(moved, 1500, "the step after the rollback left particles in place");
    assert_eq!(sorted_ids(&c), (0..1500).collect::<Vec<u64>>());
}

#[test]
fn a_rollback_inside_a_view_change_returns_to_the_step_it_left() {
    // Rank 1 dies in the gossip epoch of a join, one step after the last
    // checkpoint: the rollback replays that step, then the join goes
    // through. Fixed, rank 1 is restored and the joiner makes 4 ranks;
    // elastic, the survivors agree rank 1 out first and the joiner makes 3.
    for elastic in [false, true] {
        let dir = elastic_dir(&format!("rollback_in_view_change_{elastic}"));
        let plan = FaultPlan::new(7).with_crash(1, 5);
        let recovery = Some(RecoveryConfig { dir, every: 2 });
        let mut c = Cluster::with_faults(plummer_sphere(900, 52), 3, ClusterConfig::default(), plan, recovery);
        if elastic {
            c.enable_elastic_recovery();
        }
        for _ in 0..3 {
            c.step();
        }
        let (t, s) = (c.time(), c.step_count());
        c.admit_ranks(1);

        let what = if elastic { "elastic" } else { "fixed" };
        assert_eq!(c.fault_log().injected_of(FaultKind::Crash), 1, "{what}: the crash never fired");
        assert_eq!(c.fault_log().recoveries_of(RecoveryAction::RestoreCheckpoint), 1, "{what}");
        assert_eq!((c.step_count(), c.time()), (s, t), "{what}: the view change moved the step");
        assert_eq!(s, 3);
        assert_eq!(c.rank_count(), if elastic { 3 } else { 4 }, "{what}");
        assert!(c.view().contains(3), "{what}: the joiner is not in the view");
        assert_eq!(sorted_ids(&c), (0..900).collect::<Vec<u64>>(), "{what}");
        assert_eq!(c.accelerations_by_id().len(), 900, "{what}: particles without forces");
    }
}

#[test]
fn a_crash_scheduled_on_a_death_gossip_epoch_fires() {
    // Rank 2 dies in step 2's epoch; rank 3 is scheduled to die in the next
    // epoch, which is the survivors' death gossip. It dies there too, and
    // the survivors agree both out in one view change.
    let dir = elastic_dir("crash_in_death_gossip");
    let plan = FaultPlan::new(7).with_crash(2, 3).with_crash(3, 4);
    let recovery = Some(RecoveryConfig { dir, every: 1 });
    let mut c = Cluster::with_faults(plummer_sphere(1500, 51), 5, ClusterConfig::default(), plan, recovery);
    c.enable_elastic_recovery();
    for _ in 0..3 {
        c.step();
    }
    assert_eq!(c.fault_log().injected_of(FaultKind::Crash), 2, "{}", c.fault_log().render());
    assert_eq!(c.rank_count(), 3);
    let changes = c.membership_log().changes();
    assert_eq!(changes.len(), 1, "one view change");
    assert_eq!((changes[0].from_world, changes[0].to_world), (5, 3));
    assert_eq!(c.step_count(), 3);
    assert_eq!(sorted_ids(&c), (0..1500).collect::<Vec<u64>>());
}

#[test]
fn autoscale_shrinks_an_idle_cluster_to_the_floor() {
    // 8 ranks over 640 particles is far below the idle threshold: the
    // policy retires ranks every cooldown window until the floor.
    let mut c = Cluster::new(plummer_sphere(640, 61), 8, ClusterConfig::default());
    c.enable_longrun(LongRunConfig::default());
    c.enable_autoscale(AutoscaleConfig {
        min_ranks: 4,
        idle_particles_per_rank: 1.0e4,
        idle_steps: 2,
        cooldown_steps: 2,
        shrink_by: 2,
        ..AutoscaleConfig::default()
    });
    for _ in 0..12 {
        c.step();
    }
    assert_eq!(c.rank_count(), 4, "idle cluster did not shrink to the floor");
    assert_eq!(c.total_particles(), 640);
    let monitor = c.monitor().expect("monitor enabled");
    let decisions = monitor.autoscale().expect("policy enabled").decisions();
    assert!(decisions.len() >= 2, "decisions: {decisions:?}");
    assert!(!c.membership_log().is_empty());
}

#[test]
fn autoscale_grows_when_a_grow_rule_opens() {
    // A rule that opens immediately (step seconds are always positive)
    // stands in for sustained step-time creep; its open transition must
    // drive an admit through the same membership path as a manual grow,
    // and the step's frames must be published after the admit.
    let mut cfg = LongRunConfig::default();
    cfg.rules.push(Rule::new(
        "always-hot",
        "bonsai_step_seconds",
        Condition::Above(0.0),
        Severity::Warning,
        1,
        1,
    ));
    let mut c = Cluster::new(plummer_sphere(800, 67), 4, ClusterConfig::default());
    c.enable_longrun(cfg);
    c.enable_autoscale(AutoscaleConfig {
        grow_rules: vec!["always-hot".to_string()],
        grow_by: 2,
        // Idle shrink disabled for the test: the population is tiny.
        idle_particles_per_rank: 0.0,
        ..AutoscaleConfig::default()
    });
    c.enable_streaming(StreamConfig {
        subscribers: vec![SubscriberConfig::new("watch", 64)],
        ..StreamConfig::default()
    });
    for _ in 0..3 {
        c.step();
    }
    assert_eq!(c.rank_count(), 6, "open grow-rule did not admit ranks");
    // The rule opens on step 1, so step 1 grows: its view-change frame
    // leaves before its step header, and the header describes the grown
    // world.
    let frames = c.stream_mut().expect("streaming enabled").bus_mut().poll(0, usize::MAX);
    let first: Vec<_> = frames.iter().filter(|f| f.step == 1).collect();
    let at = |kind| first.iter().position(|f| f.kind == kind);
    let (view, header) = (at(FrameKind::ViewChange), at(FrameKind::StepHeader));
    assert!(view.is_some() && view < header, "step 1 frames: {first:?}");
    assert_eq!(first[header.unwrap()].f64("world"), Some(6.0));
    assert_eq!(c.total_particles(), 800);
    let ch = c.membership_log().changes().last().expect("grow logged");
    assert_eq!((ch.from_world, ch.to_world), (4, 6));
    assert_eq!(sorted_ids(&c), (0..800).collect::<Vec<u64>>());
}

#[test]
#[should_panic(expected = "enable_longrun")]
fn autoscaling_without_a_monitor_is_refused() {
    // The policy scales on the monitor's alerts; without one it would
    // never be consulted, so enabling it alone must fail loudly.
    let mut c = Cluster::new(plummer_sphere(400, 73), 2, ClusterConfig::default());
    c.enable_autoscale(AutoscaleConfig::default());
}

#[test]
fn drop_migrants_sabotage_loses_particles() {
    // The CI gate's self-test hook: with migrants silently discarded, a
    // view change must visibly violate conservation — proof the gate's
    // particle-count check is load-bearing.
    let mut c = Cluster::new(plummer_sphere(1000, 71), 4, ClusterConfig::default());
    c.set_drop_migrants(true);
    c.admit_ranks(2);
    assert!(
        c.total_particles() < 1000,
        "sabotaged migration lost nothing — the conservation gate would pass vacuously"
    );
}

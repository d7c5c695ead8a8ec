//! Integration tests for the distributed equivalence oracle: the rank
//! ladder against the serial reference, and fault-plan runs proving that
//! retransmission and checkpoint rollback are physics-preserving.

use bonsai_ic::plummer_sphere;
use bonsai_net::fault::{FaultKind, FaultPlan, Injection};
use bonsai_net::MsgKind;
use bonsai_sim::cluster::MAX_RETRIES;
use bonsai_sim::{ClusterConfig, RecoveryConfig};
use bonsai_verify::{equivalence, equivalence_band, serial_reference};

const N: usize = 2048;
const IC_SEED: u64 = 9;

#[test]
fn rank_ladder_matches_serial_reference() {
    let cfg = ClusterConfig::default();
    let ic = plummer_sphere(N, IC_SEED);
    let reference = serial_reference(&ic, &cfg);
    for ranks in [1usize, 2, 4, 8] {
        let rep = equivalence(&ic, ranks, &cfg, None, &reference);
        assert_eq!(rep.faults_injected, 0);
        let band = equivalence_band(cfg.theta, ranks);
        assert!(
            band.violation(&rep.diff).is_none(),
            "R={ranks}: {:?} outside {band:?}",
            rep.diff
        );
    }
}

#[test]
fn single_rank_is_exactly_the_serial_walk() {
    // R = 1 builds the same tree over the same SFC order and runs the same
    // kernels; the distributed plumbing must be invisible to round-off.
    let cfg = ClusterConfig::default();
    let ic = plummer_sphere(N, IC_SEED);
    let rep = equivalence(&ic, 1, &cfg, None, &serial_reference(&ic, &cfg));
    assert_eq!(rep.diff.max, 0.0, "R=1 must be bit-identical to serial");
}

#[test]
fn recovered_message_faults_are_physics_invisible() {
    // Drop/duplicate/corrupt/reorder at rates the retransmission machinery
    // fully absorbs: the accepted gravity epoch must be *identical* to the
    // clean run — recovery is physics-preserving, not merely crash-free.
    let cfg = ClusterConfig::default();
    let ic = plummer_sphere(N, IC_SEED);
    let reference = serial_reference(&ic, &cfg);
    let clean = equivalence(&ic, 8, &cfg, None, &reference);
    let plan = FaultPlan::new(0xFA17)
        .with_rate(FaultKind::Drop, 0.04)
        .with_rate(FaultKind::Duplicate, 0.03)
        .with_rate(FaultKind::Corrupt, 0.03)
        .with_rate(FaultKind::Reorder, 0.05);
    let faulty = equivalence(&ic, 8, &cfg, Some((plan, None)), &reference);
    assert!(faulty.faults_injected > 0, "plan injected nothing");
    assert_eq!(
        (faulty.diff.median, faulty.diff.p95, faulty.diff.max),
        (clean.diff.median, clean.diff.p95, clean.diff.max),
        "recovered faults must not perturb the force field at all"
    );
}

#[test]
fn a_drop_rate_that_defeats_the_retry_budget_rolls_back_to_the_clean_forces() {
    // Under a heavy drop rate, every dedicated LET of the first epoch is
    // also dropped on every attempt of the retry budget: its senders count
    // as silent, the cluster rolls back to the initial checkpoint and
    // replays the epoch under fresh fault decisions (they hang on the
    // epoch, which keeps advancing). The accepted forces are the clean
    // run's to the bit.
    let cfg = ClusterConfig::default();
    let ic = plummer_sphere(1024, IC_SEED);
    let reference = serial_reference(&ic, &cfg);
    let clean = equivalence(&ic, 8, &cfg, None, &reference);
    let dir = std::env::temp_dir().join("bonsai_verify_drop_rollback");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let plan = FaultPlan::new(14).with_rate(FaultKind::Drop, 0.35).with_injection(Injection {
        epoch: 1,
        from: None,
        to: None,
        kind: Some(MsgKind::Let),
        fault: FaultKind::Drop,
        attempts: 0..MAX_RETRIES + 1,
    });
    let recovery = RecoveryConfig { dir: dir.clone(), every: 0 };
    let cluster = bonsai_sim::Cluster::with_faults(ic.clone(), 8, cfg.clone(), plan, Some(recovery));
    let _ = std::fs::remove_dir_all(dir);
    let log = cluster.fault_log();
    let rollbacks = log.recoveries_of(bonsai_net::RecoveryAction::RestoreCheckpoint);
    assert!(rollbacks >= 1, "no LET was lost through the budget");
    let diff = bonsai_verify::acceleration_diff(&cluster.accelerations_by_id(), &reference);
    assert_eq!(
        (diff.median, diff.p95, diff.max),
        (clean.diff.median, clean.diff.p95, clean.diff.max),
        "{rollbacks} rollbacks moved the force field"
    );
}

#[test]
fn cluster_steps_bit_equal_across_thread_counts() {
    // The threading rung of the equivalence ladder: decomposing the *work*
    // across threads (on top of decomposing the *domain* across ranks) must
    // be invisible to round-off. Two full steps at 4 ranks, threads swept
    // 1/2/4/8 — every accepted acceleration bit-identical to the 1-thread run.
    use bonsai_sim::Cluster;

    let ic = plummer_sphere(N, IC_SEED);
    let run = |threads: usize| {
        let cfg = ClusterConfig {
            threads: Some(threads),
            ..ClusterConfig::default()
        };
        let mut cluster = Cluster::new(ic.clone(), 4, cfg);
        cluster.step();
        cluster.step();
        cluster.accelerations_by_id()
    };
    let reference = run(1);
    for t in [2usize, 4, 8] {
        let acc = run(t);
        assert_eq!(acc.len(), reference.len(), "particle count at threads={t}");
        for (id, a) in &acc {
            let r = reference[id];
            assert_eq!(
                (a.x.to_bits(), a.y.to_bits(), a.z.to_bits()),
                (r.x.to_bits(), r.y.to_bits(), r.z.to_bits()),
                "particle {id} acceleration differs at threads={t}"
            );
        }
    }
}

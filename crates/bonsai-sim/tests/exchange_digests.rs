//! Pinned digests of everything the exchange path decides: the fault log's
//! rendered text (the only check on its detail strings — no `BENCH_*.json`
//! carries them), the flow-ledger records and the force bits, for three
//! seeded chaos runs, each at one, two and four lanes, and for one fault-free
//! thin run whose ranks each walk dozens of remote sources, at one to four
//! lanes. A refactor of the collective, the gravity phases, the force walk,
//! recovery, the view-change migration or the thread pool must leave all
//! twelve values alone at every lane count; a change that means to move them
//! re-pins them and says so in CHANGES.md.

use bonsai_ic::plummer_sphere;
use bonsai_net::{FaultKind, FaultPlan};
use bonsai_sim::{Cluster, ClusterConfig, RecoveryConfig};
use bonsai_util::hash::Crc64;
use std::path::PathBuf;

/// Lane counts every digest is pinned at.
const THREADS: [usize; 3] = [1, 2, 4];

/// A fresh checkpoint directory for run `name` at `threads` lanes, private
/// to this process so concurrent runs of the suite cannot collide.
fn digest_dir(name: &str, threads: usize) -> PathBuf {
    let pid = std::process::id();
    let dir = std::env::temp_dir().join(format!("bonsai_digest_{pid}_{name}_t{threads}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn config(threads: usize) -> ClusterConfig {
    ClusterConfig {
        threads: Some(threads),
        ..ClusterConfig::default()
    }
}

/// 2 % of every message-level fault kind.
fn two_percent_plan(seed: u64) -> FaultPlan {
    FaultKind::MESSAGE_KINDS
        .into_iter()
        .fold(FaultPlan::new(seed), |plan, kind| plan.with_rate(kind, 0.02))
}

/// `(fault-log text, flow-ledger records, force bits in id order)`.
fn digests(c: &Cluster) -> (u64, u64, u64) {
    let log = bonsai_util::hash::crc64(c.fault_log().render().as_bytes());
    let mut flows = Crc64::new();
    for record in c.flow_ledger().records() {
        flows.update(format!("{record:?}\n").as_bytes());
    }
    let mut acc: Vec<_> = c.accelerations_by_id().into_iter().collect();
    acc.sort_by_key(|&(id, _)| id);
    let mut forces = Crc64::new();
    for (id, a) in acc {
        forces.update(&id.to_le_bytes());
        for x in [a.x, a.y, a.z] {
            forces.update(&x.to_bits().to_le_bytes());
        }
    }
    (log, flows.finish(), forces.finish())
}

fn crash_and_rollback(name: &str, elastic: bool, threads: usize) -> (u64, u64, u64) {
    let plan = two_percent_plan(2014).with_stall(1, 3).with_crash(2, 5);
    let dir = digest_dir(name, threads);
    let recovery = RecoveryConfig {
        dir: dir.clone(),
        every: 2,
    };
    let mut c = Cluster::with_faults(
        plummer_sphere(1200, 21),
        6,
        config(threads),
        plan,
        Some(recovery),
    );
    if elastic {
        c.enable_elastic_recovery();
    }
    for _ in 0..8 {
        c.step();
    }
    let log = c.fault_log();
    assert!(log.injected_of(FaultKind::Crash) == 1, "the crash never fired");
    assert!(log.injected_of(FaultKind::Stall) >= 1, "the stall held nothing back");
    // The stalled rank is silent to its LETs' receivers, the same event as
    // the crash: an elastic world retires both.
    assert_eq!(c.rank_count(), if elastic { 4 } else { 6 });
    assert!(c.flow_conservation().holds());
    let _ = std::fs::remove_dir_all(dir);
    digests(&c)
}

#[test]
fn fixed_world_crash_and_rollback_digests_are_pinned() {
    for t in THREADS {
        assert_eq!(
            crash_and_rollback("fixed", false, t),
            (0x2bda3d07fb008ab5, 0xb54f2a78c18a3622, 0x399c3f1acad7c647),
            "fault log / flow ledger / force bits moved at {t} threads"
        );
    }
}

#[test]
fn elastic_crash_recovery_digests_are_pinned() {
    for t in THREADS {
        assert_eq!(
            crash_and_rollback("elastic", true, t),
            (0x8dc17d6693306921, 0xde9af87d8894977c, 0x070c5d4236090a43),
            "fault log / flow ledger / force bits moved at {t} threads"
        );
    }
}

#[test]
fn grow_and_shrink_churn_digests_are_pinned() {
    for t in THREADS {
        assert_eq!(
            churn(t),
            (0x84f624a65495b178, 0x2569bafdada9153d, 0x4b21ea620278a500),
            "fault log / flow ledger / force bits moved at {t} threads"
        );
    }
}

/// Thin ranks, no faults: 64 particles a rank, so every rank walks its own
/// tree and up to 31 remote sources (dedicated LETs or boundary trees) a
/// step — the many-source fold the small chaos runs above never reach.
fn thin(threads: usize) -> (u64, u64, u64) {
    let mut c = Cluster::new(plummer_sphere(2048, 36), 32, config(threads));
    for _ in 0..3 {
        c.step();
    }
    assert!(c.fault_log().is_clean(), "a fault-free run injected or recovered something");
    assert!(c.flow_conservation().holds());
    digests(&c)
}

#[test]
fn thin_many_source_digests_are_pinned() {
    for t in [1, 2, 3, 4] {
        assert_eq!(
            thin(t),
            (0, 0x6c0104eeefaca20c, 0x7c7c2db6fd59bb4a),
            "fault log / flow ledger / force bits moved at {t} threads"
        );
    }
}

fn churn(threads: usize) -> (u64, u64, u64) {
    let dir = digest_dir("churn", threads);
    let recovery = RecoveryConfig {
        dir: dir.clone(),
        every: 2,
    };
    let mut c = Cluster::with_faults(
        plummer_sphere(1200, 22),
        4,
        config(threads),
        two_percent_plan(1412),
        Some(recovery),
    );
    for step in 0..8 {
        c.step();
        match step {
            2 => c.admit_ranks(2),
            5 => c.retire_ranks(2),
            _ => {}
        }
    }
    assert_eq!(c.rank_count(), 4);
    assert_eq!(c.membership_log().changes().len(), 2);
    assert!(c.flow_conservation().holds());
    let _ = std::fs::remove_dir_all(dir);
    digests(&c)
}


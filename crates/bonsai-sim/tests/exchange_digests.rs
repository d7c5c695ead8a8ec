//! Pinned digests of everything the exchange path decides: the fault log's
//! rendered text (the only check on its detail strings — no `BENCH_*.json`
//! carries them), the flow-ledger records, the force bits and the trace's
//! fault instants (where each fault and recovery lands on the COMM lanes,
//! with its flow id — no artifact carries those either), for three
//! seeded chaos runs, each at one, two and four lanes, and for one fault-free
//! thin run whose ranks each walk dozens of remote sources, at one to four
//! lanes. A refactor of the collective, the gravity phases, the force walk,
//! recovery, the view-change migration or the thread pool must leave all
//! sixteen values alone at every lane count; a change that means to move them
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

/// `(fault-log text, flow-ledger records, force bits in id order, trace
/// instants)`.
fn digests(c: &Cluster) -> (u64, u64, u64, u64) {
    let log = bonsai_util::hash::crc64(c.fault_log().render().as_bytes());
    let mut flows = Crc64::new();
    for record in c.flow_ledger().records().iter() {
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
    let instants = bonsai_util::hash::crc64(format!("{:?}", c.trace().instants()).as_bytes());
    (log, flows.finish(), forces.finish(), instants)
}

/// Whether the trace holds an instant named `prefix…` that carries a flow
/// id: the instants digest pins fault events anchored at their flows.
fn flow_bound_instant(c: &Cluster, prefix: &str) -> bool {
    let instants = c.trace().instants().iter();
    instants
        .filter(|i| i.name.starts_with(prefix))
        .any(|i| i.args.iter().any(|(key, _)| *key == "flow"))
}

fn crash_and_rollback(name: &str, elastic: bool, threads: usize) -> (u64, u64, u64, u64) {
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
    assert_eq!(c.step_count(), 8, "a rollback cost a step");
    let log = c.fault_log();
    assert!(log.injected_of(FaultKind::Crash) == 1, "the crash never fired");
    assert!(log.injected_of(FaultKind::Stall) >= 1, "the stall held nothing back");
    // The stalled rank is silent to its LETs' receivers, the same event as
    // the crash: an elastic world retires both.
    assert_eq!(c.rank_count(), if elastic { 4 } else { 6 });
    assert!(c.flow_conservation().holds());
    assert!(flow_bound_instant(&c, "inject:") && flow_bound_instant(&c, "recover:"));
    let _ = std::fs::remove_dir_all(dir);
    digests(&c)
}

/// Require `got` to equal the pinned `want`; a mismatch prints both in the
/// pinned hex form.
fn assert_pinned(got: (u64, u64, u64, u64), want: (u64, u64, u64, u64), threads: usize) {
    let hex = |(a, b, c, d): (u64, u64, u64, u64)| format!("({a:#x}, {b:#x}, {c:#x}, {d:#x})");
    assert!(
        got == want,
        "fault log / flow ledger / force bits / instants moved at {threads} threads:\n  got  {}\n  want {}",
        hex(got),
        hex(want)
    );
}

/// The force digest of the chaos runs' particles after 8 fault-free steps
/// at R = 6.
fn fault_free_forces(threads: usize) -> u64 {
    let mut c = Cluster::new(plummer_sphere(1200, 21), 6, config(threads));
    for _ in 0..8 {
        c.step();
    }
    digests(&c).2
}

#[test]
fn fixed_world_crash_and_rollback_digests_are_pinned() {
    for t in THREADS {
        let got = crash_and_rollback("fixed", false, t);
        assert_pinned(got, (0xf85b55c7e3ebb0eb, 0x20c5ff5093f08bf1, 0xc89f0d4c80c34e38, 0xbf9c35d2d6572d07), t);
        // A fixed world rolls back and replays to the step it left: 8
        // steps end on the fault-free run's forces.
        assert_eq!(got.2, fault_free_forces(t), "the replay missed the fault-free bits at {t} threads");
    }
}

#[test]
fn elastic_crash_recovery_digests_are_pinned() {
    for t in THREADS {
        let got = crash_and_rollback("elastic", true, t);
        assert_pinned(got, (0x11150fc17ca5f707, 0xb618926640fd3650, 0xaad369e472f699fe, 0x6885c19c76103423), t);
    }
}

#[test]
fn grow_and_shrink_churn_digests_are_pinned() {
    for t in THREADS {
        assert_pinned(churn(t), (0x3e94b0e03047c10f, 0xbae73312d44158c8, 0x4b21ea620278a500, 0xdaffcb91bc9164b1), t);
    }
}

/// Thin ranks, no faults: 64 particles a rank, so every rank walks its own
/// tree and up to 31 remote sources (dedicated LETs or boundary trees) a
/// step — the many-source fold the small chaos runs above never reach.
fn thin(threads: usize) -> (u64, u64, u64, u64) {
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
        assert_pinned(thin(t), (0, 0xc8f1c29ace4e1161, 0x7c7c2db6fd59bb4a, 0x282eeca289eeb653), t);
    }
}

fn churn(threads: usize) -> (u64, u64, u64, u64) {
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
    assert!(flow_bound_instant(&c, "inject:") && flow_bound_instant(&c, "recover:"));
    let _ = std::fs::remove_dir_all(dir);
    digests(&c)
}


//! The elastic-membership bench: a scaled Milky Way run with scripted
//! grow/shrink churn riding on a seeded message-fault plan, gated on the
//! three invariants a view change must preserve — the particle population
//! (exact id multiset), the energy budget, and force-field equivalence
//! against the serial oracle at the final positions. Exported as the
//! byte-deterministic `BENCH_membership.json` (schema
//! `bonsai-membership-v1`).
//!
//! The gate is self-testing: [`MembershipBenchConfig::drop_migrants`]
//! flips the cluster's sabotage hook so every migration silently discards
//! its outbound particles. A run under sabotage *must* fail the
//! conservation verdict — the gate runner produces it in memory to prove
//! the gate has teeth.

use bonsai_net::fault::{FaultKind, FaultPlan};
use bonsai_net::RecoveryAction;
use bonsai_obs::json::{self, Value};
use bonsai_obs::obj;
use bonsai_sim::{AutoscaleConfig, Cluster, LongRunConfig, RecoveryConfig, ScaleDecision};
use bonsai_util::units;
use bonsai_verify::{acceleration_diff, equivalence_band, serial_reference, ErrorPercentiles};

use crate::{milky_way_config, milky_way_snapshot, view_change_row};

/// The membership bench configuration.
#[derive(Clone, Debug)]
pub struct MembershipBenchConfig {
    /// Total particles of the scaled Milky Way model.
    pub n: usize,
    /// Initial logical ranks.
    pub ranks: usize,
    /// Steps to drive.
    pub steps: usize,
    /// IC + fault-plan seed.
    pub seed: u64,
    /// A scripted view change fires after every `churn_every`-th step.
    pub churn_every: usize,
    /// Background drop/duplicate/corrupt rate on every message kind.
    pub fault_rate: f64,
    /// Sabotage hook: discard every migrated particle (the gate self-test).
    pub drop_migrants: bool,
}

impl Default for MembershipBenchConfig {
    fn default() -> Self {
        Self {
            n: 2_000,
            ranks: 4,
            steps: 24,
            seed: 2014,
            churn_every: 4,
            fault_rate: 0.02,
            drop_migrants: false,
        }
    }
}

/// The scripted churn cycle: net-zero over a full period so the run's
/// world size stays bounded regardless of step count.
const CHURN: [(bool, usize); 4] = [(true, 2), (false, 1), (true, 1), (false, 2)];

/// Everything the exporter and the gate need from one completed run.
pub struct MembershipResult {
    /// The configuration that produced it.
    pub config: MembershipBenchConfig,
    /// Final simulated time in Gyr.
    pub time_gyr: f64,
    /// Final relative energy drift.
    pub energy_drift: f64,
    /// Final world size.
    pub ranks_final: usize,
    /// Particles lost (0 unless sabotaged).
    pub lost_particles: usize,
    /// Whether the surviving ids are exactly the initial multiset.
    pub ids_intact: bool,
    /// Per-change audit rows from the cluster's membership log.
    pub view_changes: Vec<bonsai_net::ViewChange>,
    /// Autoscale decisions the policy ordered (step, decision).
    pub decisions: Vec<(u64, ScaleDecision)>,
    /// View-change recovery actions in the fault log.
    pub view_change_recoveries: usize,
    /// Force-field difference vs the serial oracle at the final positions
    /// (`None` when particles were lost — the diff would be meaningless).
    pub equivalence: Option<ErrorPercentiles>,
    /// Whether the equivalence diff sits inside the distributed band.
    pub equivalence_ok: bool,
    /// Whether the energy drift stayed inside the gate band.
    pub drift_ok: bool,
}

impl MembershipResult {
    /// The gate verdict: conservation AND energy AND equivalence.
    pub fn passed(&self) -> bool {
        self.lost_particles == 0 && self.ids_intact && self.drift_ok && self.equivalence_ok
    }
}

/// Drive the run: scripted churn every `churn_every` steps over a faulty
/// fabric, then evaluate the gate invariants on the final state.
pub fn run(cfg: MembershipBenchConfig) -> MembershipResult {
    let ic = milky_way_snapshot(cfg.n, cfg.seed);
    let ccfg = milky_way_config(cfg.n);
    let mut plan = FaultPlan::new(cfg.seed);
    for kind in [FaultKind::Drop, FaultKind::Duplicate, FaultKind::Corrupt] {
        plan = plan.with_rate(kind, cfg.fault_rate);
    }
    let dir = crate::scratch_dir("bonsai_membership_bench");
    let mut cluster = Cluster::with_faults(
        ic,
        cfg.ranks,
        ccfg.clone(),
        plan,
        Some(RecoveryConfig {
            dir: dir.clone(),
            every: cfg.churn_every as u64,
        }),
    );
    cluster.set_drop_migrants(cfg.drop_migrants);
    let baseline = cluster.energy_report();
    cluster.enable_longrun(LongRunConfig::default());
    // The policy is live (its decisions land in the JSON) but its idle
    // shrink is disabled so the scripted churn stays the only planned
    // driver of world-size change — the run must be reproducible from the
    // config alone.
    cluster.enable_autoscale(AutoscaleConfig {
        idle_particles_per_rank: 0.0,
        ..AutoscaleConfig::default()
    });

    let mut cycle = 0usize;
    for step in 0..cfg.steps {
        cluster.step();
        if cfg.churn_every > 0 && (step + 1) % cfg.churn_every == 0 {
            let (grow, k) = CHURN[cycle % CHURN.len()];
            cycle += 1;
            if grow {
                cluster.admit_ranks(k);
            } else if cluster.rank_count() > k {
                cluster.retire_ranks(k);
            }
        }
    }

    let energy_drift = cluster.energy_report().drift_from(&baseline);
    let lost_particles = cfg.n.saturating_sub(cluster.total_particles());
    let ids_intact = {
        let mut ids = cluster.gather().id;
        ids.sort_unstable();
        ids == (0..cfg.n as u64).collect::<Vec<u64>>()
    };
    let (equivalence, equivalence_ok) = if lost_particles == 0 && ids_intact {
        let reference = serial_reference(&cluster.gather(), &ccfg);
        let diff = acceleration_diff(&cluster.accelerations_by_id(), &reference);
        let ok = equivalence_band(ccfg.theta, cluster.rank_count())
            .violation(&diff)
            .is_none();
        (Some(diff), ok)
    } else {
        (None, false)
    };
    let _ = std::fs::remove_dir_all(&dir);
    MembershipResult {
        time_gyr: units::internal_to_gyr(cluster.time()),
        energy_drift,
        ranks_final: cluster.rank_count(),
        lost_particles,
        ids_intact,
        view_changes: cluster.membership_log().changes().to_vec(),
        decisions: cluster
            .monitor()
            .and_then(|m| m.autoscale())
            .map(|p| p.decisions().to_vec())
            .unwrap_or_default(),
        view_change_recoveries: cluster
            .fault_log()
            .recoveries_of(RecoveryAction::ViewChange),
        equivalence,
        equivalence_ok,
        drift_ok: energy_drift.abs() < 0.05,
        config: cfg,
    }
}

/// `BENCH_membership.json`: schema `bonsai-membership-v1`, byte-
/// deterministic per seed.
pub fn membership_json(r: &MembershipResult) -> String {
    let c = &r.config;
    let decisions: Vec<Value> = r
        .decisions
        .iter()
        .map(|(step, d)| obj!("step": *step, "decision": d.to_string()))
        .collect();
    let equivalence = r
        .equivalence
        .as_ref()
        .map(|d| obj!("median": d.median, "p95": d.p95, "max": d.max));
    json::write(&obj!(
        "schema": "bonsai-membership-v1",
        "config": obj!("n": c.n, "ranks": c.ranks, "steps": c.steps, "seed": c.seed,
            "churn_every": c.churn_every, "fault_rate": c.fault_rate,
            "drop_migrants": c.drop_migrants),
        "final": obj!("time_gyr": r.time_gyr, "energy_drift": r.energy_drift,
            "ranks": r.ranks_final, "lost_particles": r.lost_particles,
            "ids_intact": r.ids_intact),
        "view_changes": r.view_changes.iter().map(view_change_row).collect::<Vec<_>>(),
        "autoscale_decisions": decisions,
        "view_change_recoveries": r.view_change_recoveries,
        "equivalence": equivalence,
        "gate": obj!("conserved": r.lost_particles == 0 && r.ids_intact,
            "drift_ok": r.drift_ok, "equivalence_ok": r.equivalence_ok,
            "passed": r.passed()),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> MembershipBenchConfig {
        MembershipBenchConfig {
            n: 800,
            ranks: 3,
            steps: 12,
            seed: 11,
            churn_every: 3,
            fault_rate: 0.02,
            drop_migrants: false,
        }
    }

    #[test]
    fn clean_run_passes_the_gate_and_churns() {
        let r = run(tiny());
        assert!(r.passed(), "gate failed: drift {}, eq {:?}", r.energy_drift, r.equivalence);
        assert_eq!(r.lost_particles, 0);
        assert!(r.view_changes.len() >= 3, "churn script barely ran: {:?}", r.view_changes.len());
        assert!(r.view_change_recoveries >= r.view_changes.len());
        // The final world honours the net-zero churn cycle's bounds
        // (start 3, script peaks at 5).
        assert!(r.ranks_final >= 3 && r.ranks_final <= 5, "world {}", r.ranks_final);
    }

    #[test]
    fn sabotaged_run_fails_conservation() {
        let r = run(MembershipBenchConfig {
            drop_migrants: true,
            ..tiny()
        });
        assert!(r.lost_particles > 0, "sabotage lost nothing — the gate is vacuous");
        assert!(!r.passed(), "gate passed a run that lost particles");
        assert!(r.equivalence.is_none());
    }

    #[test]
    fn json_is_byte_deterministic_and_parses() {
        let a = membership_json(&run(tiny()));
        let b = membership_json(&run(tiny()));
        assert_eq!(a, b, "same seed produced different BENCH_membership.json");
        let v = bonsai_obs::json::parse(&a).expect("valid JSON");
        assert_eq!(v.get("schema").unwrap().as_str(), Some("bonsai-membership-v1"));
        let gate = v.get("gate").unwrap();
        assert_eq!(
            gate.get("passed").unwrap(),
            &bonsai_obs::json::Value::Bool(true)
        );
        assert!(!v.get("view_changes").unwrap().as_arr().unwrap().is_empty());
    }
}

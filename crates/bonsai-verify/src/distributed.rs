//! The distributed equivalence oracle.
//!
//! The full distributed pipeline — PH sort, domain exchange, per-rank tree
//! build, boundary allgather, LET construction and exchange, per-rank
//! walks — must produce the *same physics* as one serial tree walk at the
//! same θ. This module runs a [`Cluster`] at R ranks against the serial
//! [`Simulation`] on identical initial conditions and summarizes the
//! per-particle-id acceleration differences, optionally with a fault plan
//! injected so retransmission and checkpoint rollback are proven
//! physics-preserving rather than merely crash-free.

use crate::oracle::ErrorPercentiles;
use bonsai_core::{Simulation, SimulationConfig};
use bonsai_net::fault::FaultPlan;
use bonsai_sim::{Cluster, ClusterConfig, RecoveryConfig};
use bonsai_tree::Particles;
use bonsai_util::Vec3;
use std::collections::HashMap;

/// Outcome of one serial-vs-distributed comparison.
#[derive(Clone, Debug)]
pub struct EquivalenceReport {
    /// Rank count of the distributed run.
    pub ranks: usize,
    /// Percentiles of the per-id relative acceleration difference.
    pub diff: ErrorPercentiles,
    /// Faults injected during the accepted gravity epoch.
    pub faults_injected: usize,
}

/// Serial reference accelerations, keyed by particle id, computed by a
/// single-process tree walk with the same θ/ε/tree parameters a default
/// [`ClusterConfig`] uses.
pub fn serial_reference(ic: &Particles, cfg: &ClusterConfig) -> HashMap<u64, Vec3> {
    let scfg = SimulationConfig {
        theta: cfg.theta,
        eps: cfg.eps,
        dt: cfg.dt,
        g: cfg.g,
        tree: cfg.tree,
    };
    Simulation::new(ic.clone(), scfg).accelerations_by_id()
}

/// Percentiles of the per-id relative difference between two acceleration
/// maps (denominator floored at `1e-3 · ⟨|a_ref|⟩`, as in the differential
/// oracle). Panics if the key sets differ — losing a particle *is* a
/// conformance failure.
pub fn acceleration_diff(
    test: &HashMap<u64, Vec3>,
    reference: &HashMap<u64, Vec3>,
) -> ErrorPercentiles {
    assert_eq!(
        test.len(),
        reference.len(),
        "particle count diverged: {} vs {}",
        test.len(),
        reference.len()
    );
    let mean = reference.values().map(|a| a.norm()).sum::<f64>() / reference.len().max(1) as f64;
    let floor = 1e-3 * mean;
    let errors: Vec<f64> = reference
        .iter()
        .map(|(id, r)| {
            let t = test
                .get(id)
                .unwrap_or_else(|| panic!("particle id {id} missing from distributed run"));
            (*t - *r).norm() / r.norm().max(floor)
        })
        .collect();
    ErrorPercentiles::from_errors(errors)
}

/// Build a cluster at `ranks` ranks (with an optional fault plan and
/// recovery directory) and compare its initial-force field against the
/// serial reference.
pub fn equivalence(
    ic: &Particles,
    ranks: usize,
    cfg: &ClusterConfig,
    faults: Option<(FaultPlan, Option<RecoveryConfig>)>,
    reference: &HashMap<u64, Vec3>,
) -> EquivalenceReport {
    let cluster = match faults {
        Some((plan, recovery)) => Cluster::with_faults(ic.clone(), ranks, cfg.clone(), plan, recovery),
        None => Cluster::new(ic.clone(), ranks, cfg.clone()),
    };
    let diff = acceleration_diff(&cluster.accelerations_by_id(), reference);
    EquivalenceReport {
        ranks,
        diff,
        faults_injected: cluster.fault_log().injected.len(),
    }
}

/// Equivalence tolerance for a distributed run at opening angle θ.
///
/// R = 1 must match the serial walk to round-off: same tree, same groups,
/// same kernels — only the code path differs. R > 1 legitimately differs
/// from the serial walk at the MAC-error level: each rank's groups (and
/// hence MAC decisions) come from its local tree, and remote mass arrives
/// through LETs. Both fields are within the MAC band of the true forces,
/// so their mutual distance is bounded by ~2× the Fig. 2 error at that θ;
/// the constants below carry the same ≥ 4× headroom as the differential
/// bands.
pub fn equivalence_band(theta: f64, ranks: usize) -> crate::oracle::ToleranceBand {
    if ranks <= 1 {
        crate::oracle::ToleranceBand {
            median: 1e-13,
            p95: 1e-13,
            max: 1e-11,
        }
    } else {
        crate::oracle::ToleranceBand {
            median: 2.0e-3 * theta.powi(4),
            p95: 2.0e-2 * theta.powi(4),
            max: 4.0e-1 * theta.powi(4),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bonsai_ic::plummer_sphere;

    #[test]
    fn serial_reference_covers_every_id() {
        let ic = plummer_sphere(600, 4);
        let reference = serial_reference(&ic, &ClusterConfig::default());
        assert_eq!(reference.len(), 600);
        for id in 0..600u64 {
            assert!(reference.contains_key(&id));
        }
    }

    #[test]
    #[should_panic(expected = "particle count diverged")]
    fn missing_particles_are_a_failure() {
        let mut a = HashMap::new();
        a.insert(0u64, Vec3::zero());
        let b = HashMap::new();
        acceleration_diff(&b, &a);
    }
}

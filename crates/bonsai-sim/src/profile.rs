//! Cost-model attribution: measured per-phase seconds vs the Table II
//! analytic model.
//!
//! The scaling model ([`crate::model::ScalingModel`]) predicts every phase
//! of a step from two scalars (ranks, particles/GPU). A measured
//! [`StepBreakdown`] carries the same twelve phases. Attribution is then
//! just a signed subtraction per term: `residual = measured − modelled`.
//! A positive residual names a phase running slower than the calibrated
//! model says it should — exactly the per-term diagnosis the paper's
//! authors perform by hand when a run misses the Table II column.
//!
//! The residual type itself lives in `bonsai-obs` ([`TermResidual`]) so the
//! bench layer can render residual tables without depending on the
//! simulator; this module supplies the simulator-side constructor.

use bonsai_obs::TermResidual;

use crate::breakdown::{Phase, StepBreakdown};
use crate::model::ScalingModel;

/// Fit a measured breakdown against the analytic model evaluated at the
/// same (ranks, particles/GPU) point, returning one signed residual per
/// Table II phase, in [`Phase::ALL`] presentation order.
///
/// Residuals on a breakdown the model itself produced are exactly zero —
/// a property the tests pin — so every nonzero entry on a real run is
/// genuine measurement-vs-model disagreement, not plumbing noise.
pub fn cost_model_attribution(
    measured: &StepBreakdown,
    model: &ScalingModel,
) -> Vec<TermResidual> {
    let modelled = model.predict(measured.gpus, measured.particles_per_gpu);
    Phase::ALL
        .iter()
        .map(|&ph| TermResidual {
            term: ph.name().to_string(),
            measured_s: measured[ph],
            modelled_s: modelled[ph],
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::{Cluster, ClusterConfig};
    use bonsai_ic::plummer_sphere;
    use bonsai_obs::{prom, roofline, telescoping_error};

    #[test]
    fn residuals_vanish_on_a_model_generated_breakdown() {
        let model = ScalingModel::piz_daint();
        let b = model.predict(256, 500_000);
        let res = cost_model_attribution(&b, &model);
        assert_eq!(res.len(), Phase::ALL.len());
        for r in &res {
            assert_eq!(
                r.residual_s(),
                0.0,
                "phase {} should have an exactly zero residual",
                r.term
            );
        }
        // Order is the Table II presentation order.
        let names: Vec<&str> = res.iter().map(|r| r.term.as_str()).collect();
        assert_eq!(names, Phase::ALL.map(Phase::name));
    }

    #[test]
    fn residuals_are_signed_measured_minus_modelled() {
        let model = ScalingModel::titan();
        let mut b = model.predict(64, 200_000);
        b[Phase::GravityLocal] *= 1.5; // a sandbagged kernel runs slow...
        b[Phase::Sort] *= 0.5; // ...and a miracle sort runs fast.
        let res = cost_model_attribution(&b, &model);
        let by_name = |n: &str| res.iter().find(|r| r.term == n).unwrap();
        assert!(by_name("gravity_local").residual_s() > 0.0);
        assert!(by_name("sort").residual_s() < 0.0);
        assert_eq!(by_name("tree_construction").residual_s(), 0.0);
    }

    #[test]
    fn cluster_trace_satisfies_the_roofline_invariants() {
        let ic = plummer_sphere(1500, 11);
        let mut c = Cluster::new(ic, 3, ClusterConfig::default());
        c.step();
        c.step();
        let points = roofline(c.trace());
        assert!(
            !points.is_empty(),
            "a stepped cluster must yield roofline points"
        );
        // Every named GPU kernel appears with its coordinates populated.
        for p in &points {
            assert!(p.seconds > 0.0, "{}: zero seconds", p.kernel);
            assert!(p.flops > 0.0, "{}: zero flops", p.kernel);
            let ceiling = p.binding_ceiling_gflops();
            assert!(ceiling.is_finite() && ceiling > 0.0);
            // The central invariant: attained never exceeds the binding
            // ceiling (the model prices kernels *under* the roof).
            assert!(
                p.attained_gflops() <= ceiling * (1.0 + 1e-9),
                "{} rank {}: attained {:.1} above its {} ceiling {:.1}",
                p.kernel,
                p.rank,
                p.attained_gflops(),
                p.binding_ceiling(),
                ceiling
            );
            let frac = p.attained_fraction();
            assert!((0.0..=1.0 + 1e-9).contains(&frac));
        }
        // Gravity kernels carry modelled occupancy below 1; streaming
        // phases are charged at full residency.
        assert!(points
            .iter()
            .any(|p| p.kernel == "local" || p.kernel == "lets"));
        // Per-kernel seconds telescope to the per-(rank, step) GPU span
        // extent: the lanes are gap-free and overlap-free by construction.
        assert!(
            telescoping_error(c.trace()) < 1e-9,
            "GPU lane spans must telescope"
        );
    }

    #[test]
    fn membership_counters_flow_through_the_prometheus_exporter() {
        let ic = plummer_sphere(1200, 13);
        let mut c = Cluster::new(ic, 3, ClusterConfig::default());
        c.step();
        c.admit_ranks(1);
        c.retire_ranks(1);
        let text = prom::prometheus_text(c.metrics());
        assert!(text.contains("bonsai_membership_view_changes_total 2"));
        assert!(text.contains("bonsai_membership_epoch"));
        assert!(text.contains("bonsai_membership_world 3"));
        assert!(text.contains("bonsai_membership_migrated_particles_total"));
        assert!(text.contains("bonsai_membership_migrated_bytes_total"));
        // The view-change instants are on the trace, next to the spans.
        let grew = c
            .trace()
            .instants()
            .iter()
            .any(|i| i.name == "membership:view-change:grow");
        let shrank = c
            .trace()
            .instants()
            .iter()
            .any(|i| i.name == "membership:view-change:shrink");
        assert!(grew && shrank, "view-change instants missing from trace");
    }
}

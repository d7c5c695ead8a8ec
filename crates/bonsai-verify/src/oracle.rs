//! The differential force oracle: tree walk vs direct summation.
//!
//! The gold standard of every tree-code paper (Fig. 2 of the SC'14 paper,
//! §III of the Bonsai paper): evaluate the same particle set with
//! `walk_tree` at finite θ and with the O(N²) reference, and look at the
//! *distribution* of per-particle relative force errors. The oracle
//! reports the distribution's median, 95th percentile and maximum and
//! checks them against θ-dependent tolerance bands, for both the 65-flop
//! quadrupole kernel and the monopole-only ablation.

use crate::ic::Family;
use bonsai_tree::build::{Tree, TreeParams};
use bonsai_tree::direct::direct_self_forces;
use bonsai_tree::walk::{self, WalkParams};
use bonsai_tree::{Forces, Particles};
use bonsai_util::stats::percentile_sorted;

/// The θ values the conformance sweep covers (paper production value 0.4;
/// 0.2 near-direct, 0.75 the loose end of Fig. 2's range).
pub const THETA_SWEEP: [f64; 4] = [0.2, 0.4, 0.5, 0.75];

/// Summary of a relative-error distribution.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ErrorPercentiles {
    /// 50th percentile.
    pub median: f64,
    /// 95th percentile.
    pub p95: f64,
    /// Largest error.
    pub max: f64,
}

impl ErrorPercentiles {
    /// Reduce a list of per-particle errors (need not be sorted).
    pub fn from_errors(mut errors: Vec<f64>) -> Self {
        if errors.is_empty() {
            return Self::default();
        }
        errors.sort_by(|a, b| a.partial_cmp(b).expect("non-finite error"));
        Self {
            median: percentile_sorted(&errors, 0.50),
            p95: percentile_sorted(&errors, 0.95),
            max: *errors.last().unwrap(),
        }
    }
}

/// Allowed ceilings for one error distribution.
#[derive(Clone, Copy, Debug)]
pub struct ToleranceBand {
    /// Ceiling on the median error.
    pub median: f64,
    /// Ceiling on the 95th percentile.
    pub p95: f64,
    /// Ceiling on the maximum error.
    pub max: f64,
}

impl ToleranceBand {
    /// `Some(reason)` if `p` pokes through the band.
    pub fn violation(&self, p: &ErrorPercentiles) -> Option<String> {
        if p.median > self.median {
            Some(format!("median {:.3e} > band {:.3e}", p.median, self.median))
        } else if p.p95 > self.p95 {
            Some(format!("p95 {:.3e} > band {:.3e}", p.p95, self.p95))
        } else if p.max > self.max {
            Some(format!("max {:.3e} > band {:.3e}", p.max, self.max))
        } else {
            None
        }
    }
}

/// θ-dependent tolerance band for the tree-vs-direct error.
///
/// Rationale: with the offset MAC the error of an accepted cell scales like
/// θ^(pole+2) — θ³ for monopole, θ⁴ for quadrupole (§III of the Bonsai
/// paper; the orderings of Fig. 2). The constants are calibrated on the
/// five IC families at N = 4096 with ≥ 4× headroom over the worst observed
/// value, so the gate trips on genuine MAC/multipole regressions rather
/// than on noise. The max ceiling is the loosest: a single particle
/// sitting in a near-cancellation of the field can legitimately see a
/// large *relative* error (which is why the denominator is floored, see
/// [`rel_errors`]).
pub fn tolerance_band(theta: f64, quadrupole: bool) -> ToleranceBand {
    // θ = 0 degenerates to direct summation: round-off only, that of the
    // walk's `f32` p-p terms against `f64` direct summation. A term carries
    // about eight roundings of 2⁻²⁴ (separation, r², rsqrt, three products,
    // the fused add): 16 units leave 2× for the median and p95; the max,
    // where the floored denominator meets a near-cancellation, gets 16× more.
    if theta <= 0.0 {
        let u = f64::from(f32::EPSILON) / 2.0;
        return ToleranceBand {
            median: 16.0 * u,
            p95: 16.0 * u,
            max: 256.0 * u,
        };
    }
    if quadrupole {
        ToleranceBand {
            median: 1.2e-2 * theta.powi(4),
            p95: 4.0e-2 * theta.powi(4),
            max: 1.0 * theta.powi(4),
        }
    } else {
        ToleranceBand {
            median: 3.0e-2 * theta.powi(3),
            p95: 1.5e-1 * theta.powi(3),
            max: 4.0 * theta.powi(3),
        }
    }
}

/// Per-particle relative acceleration errors `|a − a_ref| / denom`.
///
/// The denominator is `max(|a_ref[i]|, 1e-3 · ⟨|a_ref|⟩)`: Fig. 2-style
/// relative error, floored at a fraction of the mean field so particles
/// sitting in a near-perfect cancellation (the cold-cube interior) don't
/// divide by ≈ 0 and dominate the tail for reasons unrelated to the MAC.
pub fn rel_errors(test: &Forces, reference: &Forces) -> Vec<f64> {
    assert_eq!(test.len(), reference.len());
    let n = reference.len();
    if n == 0 {
        return Vec::new();
    }
    let mean: f64 = reference.acc.iter().map(|a| a.norm()).sum::<f64>() / n as f64;
    let floor = 1e-3 * mean;
    (0..n)
        .map(|i| (test.acc[i] - reference.acc[i]).norm() / reference.acc[i].norm().max(floor))
        .collect()
}

/// One oracle evaluation: build the tree, walk it at (θ, kernel), compare
/// against direct summation over the same (sorted) particles.
///
/// `theta_inflation` multiplies the θ the *walk* actually uses while the
/// tolerance band stays keyed to the nominal θ — the deliberate-loosening
/// hook the CI gate uses to prove it would catch a MAC regression. Pass
/// 1.0 for a real measurement.
pub fn measure_family(
    particles: Particles,
    theta: f64,
    eps: f64,
    quadrupole: bool,
    theta_inflation: f64,
) -> ErrorPercentiles {
    let tree = Tree::build(particles, TreeParams::default());
    let (reference, _) = direct_self_forces(&tree.particles, eps, 1.0);
    let mut params = WalkParams::new(theta * theta_inflation, eps);
    if !quadrupole {
        params = params.monopole_only();
    }
    let (forces, _) = walk::self_gravity(&tree, &params);
    ErrorPercentiles::from_errors(rel_errors(&forces, &reference))
}

/// [`measure_family`] for a named family at its own softening length.
pub fn measure(
    family: Family,
    n: usize,
    seed: u64,
    theta: f64,
    quadrupole: bool,
    theta_inflation: f64,
) -> ErrorPercentiles {
    measure_family(
        family.generate(n, seed),
        theta,
        family.eps(),
        quadrupole,
        theta_inflation,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ic;

    #[test]
    fn percentiles_reduce_correctly() {
        let p = ErrorPercentiles::from_errors(vec![0.4, 0.1, 0.2, 0.3, 1.0]);
        assert_eq!(p.median, 0.3);
        assert_eq!(p.max, 1.0);
        assert!(p.p95 >= 0.4 && p.p95 <= 1.0);
        assert_eq!(ErrorPercentiles::from_errors(vec![]), ErrorPercentiles::default());
    }

    #[test]
    fn rel_errors_floor_guards_cancellation() {
        // Two opposite reference accelerations and a tiny one: the tiny
        // one's error is measured against the floor, not against ≈ 0.
        use bonsai_util::Vec3;
        let reference = Forces {
            acc: vec![Vec3::new(1.0, 0.0, 0.0), Vec3::new(-1.0, 0.0, 0.0), Vec3::zero()],
            pot: vec![0.0; 3],
        };
        let mut test = reference.clone();
        test.acc[2] = Vec3::new(1e-6, 0.0, 0.0);
        let e = rel_errors(&test, &reference);
        assert!(e[2] <= 1e-6 / (1e-3 * (2.0 / 3.0)) + 1e-12);
    }

    #[test]
    fn zero_theta_is_roundoff_exact() {
        // The band's own ceilings: 16 and 256 units of the `f32` round-off.
        let p = measure(ic::Family::Plummer, 512, 1, 0.0, true, 1.0);
        assert_eq!(tolerance_band(0.0, true).violation(&p), None, "θ=0 errors {p:?}");
    }

    #[test]
    fn f32_walk_stays_finite_at_the_extremes() {
        // The walk's kernels are `f32`: nothing in them — `rsqrt32`, a
        // cell's `rinv⁵` — may overflow where the MAC accepts, neither on the
        // paper's galaxy at the wall-clock benchmark's softening (galactic
        // units, N = 16384) nor on near-coincident pairs without softening.
        let n = 16384;
        let benchmark_eps = 0.1 * (2.0e5 / n as f64).cbrt();
        let cases = [
            (Family::MilkyWay.generate(n, 2014), benchmark_eps, bonsai_util::units::G),
            (ic::near_coincident_pairs(4096, 2014), 0.0, 1.0),
        ];
        for (particles, eps, g) in cases {
            let tree = Tree::build(particles, TreeParams::default());
            let (forces, stats) = walk::self_gravity(&tree, &WalkParams { g, ..WalkParams::new(0.4, eps) });
            assert!(stats.counts.pc > 0, "ε = {eps}: no cell accepted");
            for (pot, acc) in forces.pot.iter().zip(&forces.acc) {
                assert!(pot.is_finite() && acc.is_finite(), "ε = {eps}: φ = {pot}, a = {acc}");
            }
        }
    }

    #[test]
    fn inflation_hook_degrades_accuracy() {
        let honest = measure(ic::Family::Plummer, 1024, 2, 0.4, true, 1.0);
        let inflated = measure(ic::Family::Plummer, 1024, 2, 0.4, true, 2.0);
        assert!(
            inflated.p95 > 4.0 * honest.p95,
            "inflating θ must visibly degrade accuracy ({} vs {})",
            inflated.p95,
            honest.p95
        );
    }
}

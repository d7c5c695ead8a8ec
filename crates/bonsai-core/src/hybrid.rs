//! Hybrid direct + tree integration for massive black holes (§VII).
//!
//! "The gravitational interactions around the black holes require the
//! accuracy of a direct N-body code which … would be running on the CPU
//! while the tree-code would be running on the GPU."
//!
//! This module implements that decomposition: particles above a mass
//! threshold are *black holes*; they and every star within `direct_radius`
//! of any of them form the **direct set**, whose forces are recomputed by
//! exact summation over all particles each step (replacing the θ-limited
//! tree forces). Everything else keeps its tree forces. The scheme is the
//! bridge-style split used by AMUSE [56, 57], which the paper cites as the
//! vehicle for this extension.

use crate::config::SimulationConfig;
use crate::sim::Simulation;
use bonsai_tree::kernels::p_p;
use bonsai_tree::{Forces, InteractionCounts, Particles};
use bonsai_util::Vec3;
use rayon::prelude::*;

/// Configuration of the hybrid scheme on top of [`SimulationConfig`].
#[derive(Clone, Copy, Debug)]
pub struct HybridConfig {
    /// Base tree-code configuration.
    pub base: SimulationConfig,
    /// Particles at least this massive are treated as black holes.
    pub bh_mass_threshold: f64,
    /// Stars within this distance of any black hole join the direct set.
    pub direct_radius: f64,
    /// Softening used *inside* the direct set (typically ≪ the tree ε; 0 for
    /// a true collisional core).
    pub direct_eps: f64,
}

impl HybridConfig {
    /// The direct core (CPU side): replace the tree forces of the black
    /// holes and of every star within `direct_radius` of one by exact sums
    /// over all particles. Returns the black-hole and direct-set counts.
    fn correct(&self, particles: &Particles, forces: &mut Forces) -> (usize, usize) {
        let (pos, mass) = (&particles.pos, &particles.mass);
        let bhs: Vec<usize> =
            (0..pos.len()).filter(|&i| mass[i] >= self.bh_mass_threshold).collect();
        if bhs.is_empty() {
            return (0, 0);
        }
        let r2 = self.direct_radius * self.direct_radius;
        let direct: Vec<usize> = (0..pos.len())
            .filter(|&i| bhs.iter().any(|&b| pos[i].distance2(pos[b]) <= r2))
            .collect();
        let g = self.base.g;
        let eps2 = self.direct_eps * self.direct_eps;
        let exact: Vec<(usize, Vec3, f64)> = direct
            .par_iter()
            .map(|&i| {
                let t = pos[i];
                let mut a = Vec3::zero();
                let mut p = 0.0;
                for j in (0..pos.len()).filter(|&j| j != i) {
                    let (dp, da) = p_p(t, pos[j], mass[j], eps2);
                    p += dp;
                    a += da;
                }
                (i, a * g, p * g)
            })
            .collect();
        for (i, a, p) in exact {
            forces.acc[i] = a;
            forces.pot[i] = p;
        }
        (bhs.len(), direct.len())
    }
}

/// Per-step diagnostics of the hybrid integrator.
#[derive(Clone, Copy, Debug)]
pub struct HybridStepStats {
    /// Size of the direct set this step.
    pub direct_set: usize,
    /// Black holes found.
    pub black_holes: usize,
    /// Tree interactions.
    pub tree_counts: InteractionCounts,
    /// Direct (exact) interactions evaluated on the CPU side.
    pub direct_pp: u64,
}

impl HybridStepStats {
    /// The stats of `sim`'s last force evaluation, whose direct core found
    /// `black_holes` and a direct set of `direct_set`.
    fn of(sim: &Simulation, (black_holes, direct_set): (usize, usize)) -> Self {
        Self {
            direct_set,
            black_holes,
            tree_counts: sim.last_counts(),
            direct_pp: direct_set as u64 * (sim.particles().len() as u64 - 1),
        }
    }
}

/// A simulation with an embedded direct-summation region around black
/// holes: the tree-code [`Simulation`] (GPU side: tree forces for
/// everyone), its forces corrected by the direct core after every tree
/// evaluation and before the closing kick.
pub struct HybridSimulation {
    sim: Simulation,
    cfg: HybridConfig,
    last: HybridStepStats,
}

impl HybridSimulation {
    /// Create and evaluate initial forces.
    pub fn new(particles: Particles, cfg: HybridConfig) -> Self {
        let (sim, core) = Simulation::new_with(particles, cfg.base, |p, f| cfg.correct(p, f));
        let last = HybridStepStats::of(&sim, core);
        Self { sim, cfg, last }
    }

    /// Advance one kick–drift–kick step.
    pub fn step(&mut self) -> HybridStepStats {
        let cfg = self.cfg;
        let (_, core) = self.sim.step_with(|p, f| cfg.correct(p, f));
        self.last = HybridStepStats::of(&self.sim, core);
        self.last
    }

    /// Run `n` steps.
    pub fn run(&mut self, n: usize) {
        for _ in 0..n {
            self.step();
        }
    }

    /// Current particles (SFC order).
    pub fn particles(&self) -> &Particles {
        self.sim.particles()
    }

    /// Current time.
    pub fn time(&self) -> f64 {
        self.sim.time()
    }

    /// Diagnostics of the last force evaluation.
    pub fn last_stats(&self) -> HybridStepStats {
        self.last
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bonsai_ic::plummer_sphere;

    /// A tight equal-mass BH binary embedded in a light stellar background.
    fn binary_in_cluster(n_stars: usize) -> Particles {
        let mut p = plummer_sphere(n_stars, 31);
        // scale star masses down so the binary dominates locally
        for m in &mut p.mass {
            *m *= 0.01;
        }
        let m_bh = 0.2_f64;
        let sep = 0.02_f64;
        // circular mutual orbit: v² = G(m1+m2)/(4·(sep/2))… for equal masses
        // each orbits at r = sep/2 with v = sqrt(G·m_other·… ) = sqrt(m/(2·sep))
        let v = (m_bh / (2.0 * sep)).sqrt();
        p.push(Vec3::new(sep / 2.0, 0.0, 0.0), Vec3::new(0.0, v, 0.0), m_bh, 900_001);
        p.push(Vec3::new(-sep / 2.0, 0.0, 0.0), Vec3::new(0.0, -v, 0.0), m_bh, 900_002);
        p
    }

    fn cfg(eps_tree: f64) -> HybridConfig {
        HybridConfig {
            base: SimulationConfig::nbody_units(0.5, eps_tree, 2e-4),
            bh_mass_threshold: 0.1,
            direct_radius: 0.1,
            direct_eps: 0.0,
        }
    }

    fn binary_separation(p: &Particles) -> f64 {
        let a = p.id.iter().position(|&i| i == 900_001).unwrap();
        let b = p.id.iter().position(|&i| i == 900_002).unwrap();
        p.pos[a].distance(p.pos[b])
    }

    #[test]
    fn classification_finds_bhs_and_neighbours() {
        let p = binary_in_cluster(500);
        let sim = HybridSimulation::new(p, cfg(0.02));
        let s = sim.last_stats();
        assert_eq!(s.black_holes, 2);
        assert!(s.direct_set >= 2, "direct set must include the binary");
        assert!(s.direct_set < 502, "direct set must not be everything");
        assert!(s.direct_pp > 0);
        assert!(s.tree_counts.flops() > 0);
    }

    #[test]
    fn hybrid_preserves_tight_binary_better_than_pure_tree() {
        // With a large tree softening, a pure tree code corrupts the tight
        // binary; the hybrid's zero-softened direct core keeps its
        // separation near the initial value over several orbital periods.
        let eps_tree = 0.05; // deliberately larger than the binary separation
        let n_steps = 400;

        let mut hybrid = HybridSimulation::new(binary_in_cluster(300), cfg(eps_tree));
        hybrid.run(n_steps);
        let sep_hybrid = binary_separation(hybrid.particles());

        let mut pure = crate::Simulation::new(
            binary_in_cluster(300),
            SimulationConfig::nbody_units(0.5, eps_tree, 2e-4),
        );
        pure.run(n_steps);
        let sep_pure = binary_separation(pure.particles());

        let err_hybrid = (sep_hybrid - 0.02_f64).abs() / 0.02;
        let err_pure = (sep_pure - 0.02_f64).abs() / 0.02;
        assert!(
            err_hybrid < 0.2,
            "hybrid binary separation drifted: {sep_hybrid} ({err_hybrid:.2})"
        );
        assert!(
            err_hybrid < err_pure,
            "hybrid ({err_hybrid:.3}) must beat pure tree ({err_pure:.3})"
        );
    }

    #[test]
    fn no_black_holes_degenerates_to_tree() {
        let p = plummer_sphere(300, 5);
        let mut sim = HybridSimulation::new(
            p,
            HybridConfig {
                base: SimulationConfig::nbody_units(0.4, 0.02, 0.01),
                bh_mass_threshold: 1e9, // nothing qualifies
                direct_radius: 0.1,
                direct_eps: 0.0,
            },
        );
        let s = sim.step();
        assert_eq!(s.black_holes, 0);
        assert_eq!(s.direct_set, 0);
        assert_eq!(s.direct_pp, 0);
    }

    /// The hybrid's accelerations and energy report.
    fn forces_and_energy(h: &HybridSimulation) -> (Vec<Vec3>, bonsai_analysis::EnergyReport) {
        (h.sim.accelerations().to_vec(), h.sim.energy_report())
    }

    #[test]
    fn without_black_holes_the_hybrid_is_the_tree_code_bit_for_bit() {
        let base = SimulationConfig::nbody_units(0.4, 0.02, 0.01);
        let hcfg = HybridConfig { base, bh_mass_threshold: 1e9, direct_radius: 0.1, direct_eps: 0.0 };
        let mut hybrid = HybridSimulation::new(plummer_sphere(600, 23), hcfg);
        let mut tree = crate::Simulation::new(plummer_sphere(600, 23), base);
        for _ in 0..5 {
            hybrid.step();
            tree.step();
        }
        let bits = |v: &[Vec3]| {
            v.iter().flat_map(|a| [a.x, a.y, a.z]).map(f64::to_bits).collect::<Vec<_>>()
        };
        let (h, t) = (hybrid.particles(), tree.particles());
        assert_eq!(h.id, t.id);
        assert_eq!(bits(&h.pos), bits(&t.pos));
        assert_eq!(bits(&h.vel), bits(&t.vel));
        let (acc, energy) = forces_and_energy(&hybrid);
        assert_eq!(bits(&acc), bits(tree.accelerations()));
        assert_eq!(energy.total().to_bits(), tree.energy_report().total().to_bits());
    }

    #[test]
    fn energy_roughly_conserved_with_direct_core() {
        let mut sim = HybridSimulation::new(binary_in_cluster(200), cfg(0.02));
        // crude energy via direct sum at matching softening structure is not
        // well-defined across the eps boundary; just assert stability of the
        // binary + boundedness of the cluster.
        sim.run(200);
        let p = sim.particles();
        assert!(p.pos.iter().all(|q| q.norm() < 50.0), "cluster must stay bound");
        let sep = binary_separation(p);
        assert!(sep < 0.1, "binary must remain tight, sep = {sep}");
    }
}

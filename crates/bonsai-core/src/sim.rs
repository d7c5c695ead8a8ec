//! The single-process simulation driver.
//!
//! One step is the single-GPU slice of the paper's pipeline (§III-A):
//! SFC-sort + tree build + multipoles (all inside [`Tree::build`]), fused
//! tree-walk force evaluation, and a kick–drift–kick leap-frog update
//! (§III-B2 cites Hut, Makino & McMillan's "better leapfrog"). The tree is
//! rebuilt from scratch every step, exactly as Bonsai does on the GPU.

use crate::config::SimulationConfig;
use crate::leapfrog;
use bonsai_analysis::EnergyReport;
use bonsai_tree::build::Tree;
use bonsai_tree::walk;
use bonsai_tree::{Forces, InteractionCounts, Particles};
use bonsai_util::Vec3;

/// Diagnostics of one completed step.
#[derive(Clone, Copy, Debug)]
pub struct StepStats {
    /// Simulation time *after* the step.
    pub time: f64,
    /// Steps completed so far.
    pub step: u64,
    /// Interactions evaluated by the walk.
    pub counts: InteractionCounts,
    /// Tree nodes built.
    pub tree_nodes: usize,
    /// Wall-clock seconds of the force phase (host measurement).
    pub force_seconds: f64,
}

/// A running N-body simulation.
pub struct Simulation {
    /// Particle state (input order is *not* preserved across steps; identity
    /// lives in `particles.id`).
    particles: Particles,
    config: SimulationConfig,
    /// Accelerations and potentials matching `particles` (same order), with
    /// G applied: the last walk's result, kept as it returned.
    forces: Forces,
    time: f64,
    step: u64,
    last_counts: InteractionCounts,
    last_nodes: usize,
}

impl Simulation {
    /// Create a simulation and evaluate initial forces.
    pub fn new(particles: Particles, config: SimulationConfig) -> Self {
        Self::new_with(particles, config, |_, _| ()).0
    }

    /// [`Simulation::new`] for a state taken at `time` (a snapshot's): the
    /// clock carries on from there, so after `s` steps it reads `time`
    /// advanced by `dt` `s` times, and a snapshot written then records that.
    pub fn resume(particles: Particles, config: SimulationConfig, time: f64) -> Self {
        let mut sim = Self::new(particles, config);
        sim.time = time;
        sim
    }

    /// [`Simulation::new`] with `correct` applied to the initial forces, as
    /// [`Simulation::step_with`] applies it to each step's.
    pub(crate) fn new_with<R>(
        particles: Particles,
        config: SimulationConfig,
        correct: impl FnOnce(&Particles, &mut Forces) -> R,
    ) -> (Self, R) {
        particles.validate().expect("invalid initial conditions");
        let mut sim = Self {
            particles,
            config,
            forces: Forces::default(),
            time: 0.0,
            step: 0,
            last_counts: InteractionCounts::zero(),
            last_nodes: 0,
        };
        sim.refresh_forces();
        let corrected = correct(&sim.particles, &mut sim.forces);
        (sim, corrected)
    }

    /// Rebuild the tree and recompute forces for the current positions.
    /// Particle order becomes SFC order as a side effect (as on the GPU).
    fn refresh_forces(&mut self) {
        let particles = std::mem::take(&mut self.particles);
        let tree = Tree::build(particles, self.config.tree_params());
        let (forces, stats) = walk::self_gravity(&tree, &self.config.walk_params());
        self.last_counts = stats.counts;
        self.last_nodes = tree.nodes.len();
        self.forces = forces;
        self.particles = tree.particles;
    }

    /// Advance one kick–drift–kick leap-frog step of `config.dt`.
    pub fn step(&mut self) -> StepStats {
        self.step_with(|_, _| ()).0
    }

    /// One leap-frog step whose new tree forces `correct` amends before the
    /// closing kick (the hybrid's direct core); `force_seconds` times the
    /// tree build and walk only.
    pub(crate) fn step_with<R>(
        &mut self,
        correct: impl FnOnce(&Particles, &mut Forces) -> R,
    ) -> (StepStats, R) {
        let dt = self.config.dt;
        leapfrog::kick_drift(&mut self.particles, &self.forces, dt);
        let sw = std::time::Instant::now();
        self.refresh_forces();
        let force_seconds = sw.elapsed().as_secs_f64();
        let corrected = correct(&self.particles, &mut self.forces);
        leapfrog::kick(&mut self.particles, &self.forces, dt);
        self.time += dt;
        self.step += 1;
        let stats = StepStats {
            time: self.time,
            step: self.step,
            counts: self.last_counts,
            tree_nodes: self.last_nodes,
            force_seconds,
        };
        (stats, corrected)
    }

    /// Run `n` steps, returning the last step's stats.
    pub fn run(&mut self, n: usize) -> Option<StepStats> {
        let mut last = None;
        for _ in 0..n {
            last = Some(self.step());
        }
        last
    }

    /// Current particle state (SFC order).
    pub fn particles(&self) -> &Particles {
        &self.particles
    }

    /// Current simulation time.
    pub fn time(&self) -> f64 {
        self.time
    }

    /// Steps completed.
    pub fn step_count(&self) -> u64 {
        self.step
    }

    /// Configuration in effect.
    pub fn config(&self) -> &SimulationConfig {
        &self.config
    }

    /// Accelerations of the current state (matching `particles()` order).
    pub fn accelerations(&self) -> &[Vec3] {
        &self.forces.acc
    }

    /// Interaction counts of the most recent force evaluation.
    pub fn last_counts(&self) -> InteractionCounts {
        self.last_counts
    }

    /// Accelerations keyed by particle id — the serial reference the
    /// distributed equivalence oracle compares a `bonsai-sim` cluster
    /// against (mirrors `Cluster::accelerations_by_id`).
    pub fn accelerations_by_id(&self) -> std::collections::HashMap<u64, Vec3> {
        self.particles
            .id
            .iter()
            .copied()
            .zip(self.forces.acc.iter().copied())
            .collect()
    }

    /// Energy/momentum diagnostics from the tree potentials of the current
    /// state (no extra force evaluation).
    pub fn energy_report(&self) -> EnergyReport {
        EnergyReport::from_forces(&self.particles, &self.forces)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bonsai_ic::plummer_sphere;

    #[test]
    fn two_body_circular_orbit() {
        // Two equal masses on a circular orbit: separation 2, each at r=1,
        // v = sqrt(G m_other · ... ) — for m=1 each, a = 1/4 = v²/1 ⇒ v = 1/2.
        let mut p = Particles::new();
        p.push(Vec3::new(1.0, 0.0, 0.0), Vec3::new(0.0, 0.5, 0.0), 1.0, 0);
        p.push(Vec3::new(-1.0, 0.0, 0.0), Vec3::new(0.0, -0.5, 0.0), 1.0, 1);
        let period = std::f64::consts::TAU / 0.5; // ω = v/r = 0.5
        let dt = period / 2000.0;
        let mut sim = Simulation::new(p, SimulationConfig::nbody_units(0.0, 0.0, dt));
        sim.run(2000);
        // After one full period both bodies are back (2nd-order accuracy).
        let p = sim.particles();
        for i in 0..2 {
            let expect = if p.id[i] == 0 {
                Vec3::new(1.0, 0.0, 0.0)
            } else {
                Vec3::new(-1.0, 0.0, 0.0)
            };
            assert!(
                (p.pos[i] - expect).norm() < 5e-3,
                "body {i} at {} after one period",
                p.pos[i]
            );
        }
    }

    #[test]
    fn leapfrog_is_second_order() {
        // Halving dt must reduce the one-orbit position error ~4x.
        let orbit_error = |steps: usize| -> f64 {
            let mut p = Particles::new();
            p.push(Vec3::new(1.0, 0.0, 0.0), Vec3::new(0.0, 0.5, 0.0), 1.0, 0);
            p.push(Vec3::new(-1.0, 0.0, 0.0), Vec3::new(0.0, -0.5, 0.0), 1.0, 1);
            let period = std::f64::consts::TAU / 0.5;
            let dt = period / steps as f64;
            let mut sim = Simulation::new(p, SimulationConfig::nbody_units(0.0, 0.0, dt));
            sim.run(steps);
            let p = sim.particles();
            let i0 = if p.id[0] == 0 { 0 } else { 1 };
            (p.pos[i0] - Vec3::new(1.0, 0.0, 0.0)).norm()
        };
        let e1 = orbit_error(500);
        let e2 = orbit_error(1000);
        let order = (e1 / e2).log2();
        assert!(order > 1.7 && order < 2.3, "convergence order {order} (e1={e1}, e2={e2})");
    }

    #[test]
    fn plummer_energy_conservation() {
        let ic = plummer_sphere(2000, 17);
        let mut sim = Simulation::new(ic, SimulationConfig::nbody_units(0.4, 0.02, 0.005));
        let e0 = sim.energy_report();
        sim.run(60);
        let e1 = sim.energy_report();
        let drift = e1.drift_from(&e0);
        assert!(drift < 2e-3, "energy drift {drift} over 60 steps");
        // Momentum drifts only through the (non-antisymmetric) multipole
        // approximation; it must stay tiny relative to the Σ m|v| scale ~0.5.
        assert!(e1.momentum < 1e-4, "momentum {}", e1.momentum);
    }

    #[test]
    fn energy_report_fields_are_the_per_field_reductions() {
        let cfg = SimulationConfig::nbody_units(0.4, 0.02, 0.01);
        let mut sim = Simulation::new(plummer_sphere(700, 11), cfg);
        sim.run(3);
        let p = sim.particles();
        let halves = p.mass.iter().zip(&sim.forces.pot).map(|(&m, &phi)| 0.5 * m * phi);
        let potential = bonsai_util::KahanSum::sum_iter(halves);
        let e = sim.energy_report();
        assert_eq!(e.kinetic.to_bits(), p.kinetic_energy().to_bits());
        assert_eq!(e.potential.to_bits(), potential.to_bits());
        assert_eq!(e.momentum.to_bits(), p.momentum().norm().to_bits());
    }

    #[test]
    fn time_and_step_advance() {
        let ic = plummer_sphere(100, 3);
        let mut sim = Simulation::new(ic, SimulationConfig::nbody_units(0.5, 0.05, 0.01));
        assert_eq!(sim.step_count(), 0);
        let s = sim.step();
        assert_eq!(s.step, 1);
        assert!((sim.time() - 0.01).abs() < 1e-15);
        assert!(s.counts.flops() > 0);
        assert!(s.tree_nodes > 0);
    }

    #[test]
    fn identity_preserved_across_steps() {
        let ic = plummer_sphere(500, 5);
        let mut sim = Simulation::new(ic, SimulationConfig::nbody_units(0.4, 0.02, 0.01));
        sim.run(3);
        let mut ids = sim.particles().id.clone();
        ids.sort_unstable();
        assert_eq!(ids, (0..500).collect::<Vec<u64>>());
    }

    #[test]
    fn virialized_model_stays_virialized() {
        let ic = plummer_sphere(3000, 29);
        let mut sim = Simulation::new(ic, SimulationConfig::nbody_units(0.4, 0.02, 0.01));
        sim.run(50);
        let q = sim.energy_report().virial_ratio();
        assert!((q - 0.5).abs() < 0.08, "virial ratio {q} after 50 steps");
    }
}

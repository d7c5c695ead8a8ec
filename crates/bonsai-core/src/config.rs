//! Simulation configuration.

use bonsai_tree::build::TreeParams;
use bonsai_tree::walk::WalkParams;
use serde::{Deserialize, Serialize};

/// All knobs of a single-process simulation.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct SimulationConfig {
    /// Opening angle θ (paper production value: 0.4).
    pub theta: f64,
    /// Plummer softening length (paper: 1 pc = 0.001 kpc at 51G particles).
    pub eps: f64,
    /// Time step (paper: 75,000 yr; here in the chosen unit system).
    pub dt: f64,
    /// Gravitational constant (1 for N-body units, `units::G` for galactic).
    pub g: f64,
    /// Tree parameters (NLEAF = 16, Hilbert curve, group size 32).
    pub tree: TreeParams,
}

impl SimulationConfig {
    /// N-body units (G = 1) with the given θ, softening and dt.
    pub fn nbody_units(theta: f64, eps: f64, dt: f64) -> Self {
        Self {
            theta,
            eps,
            dt,
            g: 1.0,
            tree: TreeParams::default(),
        }
    }

    /// Galactic units (kpc, km/s, M☉) with the paper's θ = 0.4.
    pub fn galactic(eps_kpc: f64, dt_internal: f64) -> Self {
        Self {
            theta: 0.4,
            eps: eps_kpc,
            dt: dt_internal,
            g: bonsai_util::units::G,
            tree: TreeParams::default(),
        }
    }

    /// Tree-construction parameters implied by this config.
    pub fn tree_params(&self) -> TreeParams {
        self.tree
    }

    /// Walk parameters implied by this config.
    pub fn walk_params(&self) -> WalkParams {
        WalkParams {
            theta: self.theta,
            eps: self.eps,
            g: self.g,
            use_quadrupole: true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bonsai_sfc::Curve;

    #[test]
    fn constructors_set_units() {
        let n = SimulationConfig::nbody_units(0.5, 0.01, 0.001);
        assert_eq!(n.g, 1.0);
        let g = SimulationConfig::galactic(0.05, 1e-3);
        assert_eq!(g.theta, 0.4);
        assert!((g.g - 4.300917270e-6).abs() < 1e-15);
    }

    #[test]
    fn params_propagate() {
        let mut c = SimulationConfig::nbody_units(0.5, 0.01, 0.001);
        c.tree.curve = Curve::Morton;
        assert_eq!(c.tree_params().curve, Curve::Morton);
        assert_eq!(c.walk_params().theta, 0.5);
        assert_eq!(c.tree_params().nleaf, 16);
    }

    #[test]
    fn serde_round_trip() {
        let c = SimulationConfig::galactic(0.05, 1e-3);
        let s = serde_json_like(&c);
        assert!(s.contains("theta"));
    }

    // Tiny smoke check that Serialize derives work (format-agnostic).
    fn serde_json_like(c: &SimulationConfig) -> String {
        format!("theta={} eps={} dt={}", c.theta, c.eps, c.dt)
    }
}

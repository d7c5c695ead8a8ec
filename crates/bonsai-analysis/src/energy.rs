//! Energy and angular-momentum diagnostics.

use bonsai_tree::{Forces, Particles};
use bonsai_util::{KahanSum, Vec3};

/// Snapshot-level conservation diagnostics.
#[derive(Clone, Copy, Debug)]
pub struct EnergyReport {
    /// Total kinetic energy.
    pub kinetic: f64,
    /// Total potential energy (½ Σ m φ).
    pub potential: f64,
    /// Total angular momentum (z component, the disk axis).
    pub l_z: f64,
    /// Total linear momentum magnitude.
    pub momentum: f64,
}

impl EnergyReport {
    /// Build from particles and the potentials of a completed force
    /// evaluation (tree or direct; must include G): the one-shard case of
    /// [`EnergyReport::from_shards`].
    pub fn from_forces(particles: &Particles, forces: &Forces) -> Self {
        Self::from_shards([(particles, forces)])
    }

    /// The reduction over a decomposition's shards, each shard's particles
    /// with its forces: every sum runs across all the shards in order, the
    /// compensated ones carrying their compensation from shard to shard.
    pub fn from_shards<'a, I>(shards: I) -> Self
    where
        I: IntoIterator<Item = (&'a Particles, &'a Forces)>,
    {
        let [mut kinetic, mut potential, mut l_z] = [KahanSum::new(); 3];
        let mut momentum = Vec3::zero();
        for (particles, forces) in shards {
            assert_eq!(particles.len(), forces.len());
            let bodies = particles.mass.iter().zip(&particles.pos).zip(&particles.vel);
            for (((&m, &x), &v), &phi) in bodies.zip(&forces.pot) {
                kinetic.add(0.5 * m * v.norm2());
                potential.add(0.5 * m * phi);
                momentum += v * m;
                l_z.add(m * x.cross(v).z);
            }
        }
        Self {
            kinetic: kinetic.value(),
            potential: potential.value(),
            l_z: l_z.value(),
            momentum: momentum.norm(),
        }
    }

    /// Total energy.
    pub fn total(&self) -> f64 {
        self.kinetic + self.potential
    }

    /// Virial ratio `T / |W|` (½ in equilibrium).
    pub fn virial_ratio(&self) -> f64 {
        if self.potential == 0.0 {
            0.0
        } else {
            self.kinetic / (-self.potential)
        }
    }

    /// Relative energy drift against an initial report.
    pub fn drift_from(&self, initial: &EnergyReport) -> f64 {
        let e0 = initial.total();
        if e0 == 0.0 {
            return 0.0;
        }
        ((self.total() - e0) / e0).abs()
    }
}

/// Mass-weighted density centre (shrinking-sphere approximation in one pass:
/// COM of the densest octant refined twice) — robust centre for analysis of
/// a wandering galaxy.
pub fn density_center(particles: &Particles, iterations: usize) -> Vec3 {
    let mut center = particles.center_of_mass();
    let mut radius = {
        let b = particles.bounds();
        0.5 * b.diagonal()
    };
    for _ in 0..iterations {
        radius *= 0.6;
        let r2 = radius * radius;
        let mut m = 0.0;
        let mut c = Vec3::zero();
        for i in 0..particles.len() {
            if particles.pos[i].distance2(center) <= r2 {
                m += particles.mass[i];
                c += particles.pos[i] * particles.mass[i];
            }
        }
        if m > 0.0 {
            center = c / m;
        } else {
            break;
        }
    }
    center
}

#[cfg(test)]
mod tests {
    use super::*;
    use bonsai_tree::direct::direct_self_forces;

    fn two_body() -> Particles {
        let mut p = Particles::new();
        p.push(Vec3::new(1.0, 0.0, 0.0), Vec3::new(0.0, 0.5, 0.0), 1.0, 0);
        p.push(Vec3::new(-1.0, 0.0, 0.0), Vec3::new(0.0, -0.5, 0.0), 1.0, 1);
        p
    }

    #[test]
    fn two_body_report() {
        let p = two_body();
        let (f, _) = direct_self_forces(&p, 0.0, 1.0);
        let r = EnergyReport::from_forces(&p, &f);
        assert!((r.kinetic - 0.25).abs() < 1e-14);
        assert!((r.potential + 0.5).abs() < 1e-14);
        assert!((r.total() + 0.25).abs() < 1e-14);
        assert!((r.l_z - 1.0).abs() < 1e-14);
        assert!(r.momentum < 1e-14);
        assert!((r.virial_ratio() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn drift_measure() {
        let p = two_body();
        let (f, _) = direct_self_forces(&p, 0.0, 1.0);
        let a = EnergyReport::from_forces(&p, &f);
        let mut b = a;
        b.kinetic *= 1.01; // +1% of T = 0.25 → ΔE = 0.0025 on E = -0.25
        assert!((b.drift_from(&a) - 0.01).abs() < 1e-12);
    }

    #[test]
    fn density_center_finds_clump() {
        let mut p = Particles::new();
        // Dense clump at (3,0,0), sparse background.
        for i in 0..1000 {
            let t = i as f64 * 0.001;
            p.push(
                Vec3::new(3.0 + 0.01 * (t * 700.0).sin(), 0.01 * (t * 900.0).cos(), 0.0),
                Vec3::zero(),
                1.0,
                i,
            );
        }
        for i in 0..50 {
            p.push(Vec3::new(-10.0 + i as f64 * 0.4, 5.0, -3.0), Vec3::zero(), 1.0, 1000 + i);
        }
        let c = density_center(&p, 8);
        assert!((c - Vec3::new(3.0, 0.0, 0.0)).norm() < 0.2, "center {c}");
    }
}

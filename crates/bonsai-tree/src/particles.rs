//! Structure-of-arrays particle storage.
//!
//! Positions, velocities and masses live in separate contiguous arrays so the
//! hot force kernels stream exactly the fields they touch — the CPU analogue
//! of the coalesced-access layout the paper's GPU kernels rely on. Every
//! particle carries a stable 64-bit id so tests can track identity across the
//! SFC reorderings and inter-rank exchanges.

use bonsai_util::{Aabb, Vec3};

/// A set of particles in structure-of-arrays layout.
#[derive(Clone, Debug, Default)]
pub struct Particles {
    /// Positions (kpc).
    pub pos: Vec<Vec3>,
    /// Velocities (km/s).
    pub vel: Vec<Vec3>,
    /// Masses (M☉).
    pub mass: Vec<f64>,
    /// Stable identity, unique within a simulation.
    pub id: Vec<u64>,
}

impl Particles {
    /// Empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Empty set with reserved capacity.
    pub fn with_capacity(n: usize) -> Self {
        Self {
            pos: Vec::with_capacity(n),
            vel: Vec::with_capacity(n),
            mass: Vec::with_capacity(n),
            id: Vec::with_capacity(n),
        }
    }

    /// Number of particles.
    pub fn len(&self) -> usize {
        self.pos.len()
    }

    /// `true` if there are no particles.
    pub fn is_empty(&self) -> bool {
        self.pos.is_empty()
    }

    /// Append one particle.
    pub fn push(&mut self, pos: Vec3, vel: Vec3, mass: f64, id: u64) {
        self.pos.push(pos);
        self.vel.push(vel);
        self.mass.push(mass);
        self.id.push(id);
    }

    /// Append all particles of `other`.
    pub fn extend_from(&mut self, other: &Particles) {
        self.pos.extend_from_slice(&other.pos);
        self.vel.extend_from_slice(&other.vel);
        self.mass.extend_from_slice(&other.mass);
        self.id.extend_from_slice(&other.id);
    }

    /// Remove and return the particle at `i` (order not preserved).
    pub fn swap_remove(&mut self, i: usize) -> (Vec3, Vec3, f64, u64) {
        (
            self.pos.swap_remove(i),
            self.vel.swap_remove(i),
            self.mass.swap_remove(i),
            self.id.swap_remove(i),
        )
    }

    /// Total mass.
    pub fn total_mass(&self) -> f64 {
        self.mass.iter().sum()
    }

    /// Mass-weighted centre of mass.
    pub fn center_of_mass(&self) -> Vec3 {
        let m = self.total_mass();
        if m == 0.0 {
            return Vec3::zero();
        }
        let mut c = Vec3::zero();
        for (&p, &w) in self.pos.iter().zip(&self.mass) {
            c += p * w;
        }
        c / m
    }

    /// Total momentum `Σ m v`.
    pub fn momentum(&self) -> Vec3 {
        let mut p = Vec3::zero();
        for (&v, &m) in self.vel.iter().zip(&self.mass) {
            p += v * m;
        }
        p
    }

    /// Total angular momentum `Σ m r × v` about the origin.
    pub fn angular_momentum(&self) -> Vec3 {
        let mut l = Vec3::zero();
        for i in 0..self.len() {
            l += self.pos[i].cross(self.vel[i]) * self.mass[i];
        }
        l
    }

    /// Total kinetic energy `Σ ½ m v²`.
    pub fn kinetic_energy(&self) -> f64 {
        let mut k = bonsai_util::KahanSum::new();
        for (&v, &m) in self.vel.iter().zip(&self.mass) {
            k.add(0.5 * m * v.norm2());
        }
        k.value()
    }

    /// Tight bounding box of all positions.
    pub fn bounds(&self) -> Aabb {
        Aabb::from_points(&self.pos)
    }

    /// Apply a permutation: output slot `i` receives input slot `perm[i]`.
    /// `perm` must be a permutation of `0..len`.
    pub fn permute(&mut self, perm: &[u32]) {
        assert_eq!(perm.len(), self.len());
        self.pos = perm.iter().map(|&j| self.pos[j as usize]).collect();
        self.vel = perm.iter().map(|&j| self.vel[j as usize]).collect();
        self.mass = perm.iter().map(|&j| self.mass[j as usize]).collect();
        self.id = perm.iter().map(|&j| self.id[j as usize]).collect();
    }

    /// Structural validity: equal array lengths, finite values, positive mass.
    pub fn validate(&self) -> Result<(), String> {
        let n = self.len();
        if self.vel.len() != n || self.mass.len() != n || self.id.len() != n {
            return Err(format!(
                "length mismatch: pos {} vel {} mass {} id {}",
                n,
                self.vel.len(),
                self.mass.len(),
                self.id.len()
            ));
        }
        for i in 0..n {
            if !self.pos[i].is_finite() || !self.vel[i].is_finite() {
                return Err(format!("non-finite state at {i}"));
            }
            // NaN fails every comparison, so it is rejected by name.
            if self.mass[i].is_nan() || self.mass[i] <= 0.0 {
                return Err(format!("non-positive mass at {i}"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Particles {
        let mut p = Particles::new();
        p.push(Vec3::new(1.0, 0.0, 0.0), Vec3::new(0.0, 1.0, 0.0), 2.0, 10);
        p.push(Vec3::new(-1.0, 0.0, 0.0), Vec3::new(0.0, -1.0, 0.0), 2.0, 11);
        p.push(Vec3::new(0.0, 3.0, 0.0), Vec3::zero(), 1.0, 12);
        p
    }

    #[test]
    fn aggregates() {
        let p = sample();
        assert_eq!(p.len(), 3);
        assert_eq!(p.total_mass(), 5.0);
        // COM: (2*1 - 2*1 + 0, 3*1, 0)/5
        assert_eq!(p.center_of_mass(), Vec3::new(0.0, 0.6, 0.0));
        assert_eq!(p.momentum(), Vec3::zero());
        // L = 2*(x̂ × ŷ) + 2*(-x̂ × -ŷ) = 4 ẑ
        assert_eq!(p.angular_momentum(), Vec3::new(0.0, 0.0, 4.0));
        assert_eq!(p.kinetic_energy(), 2.0);
    }

    #[test]
    fn permute_preserves_identity() {
        let mut p = sample();
        p.permute(&[2, 0, 1]);
        assert_eq!(p.id, vec![12, 10, 11]);
        assert_eq!(p.pos[0], Vec3::new(0.0, 3.0, 0.0));
        p.validate().unwrap();
    }

    #[test]
    fn validate_catches_bad_mass() {
        let mut p = sample();
        p.mass[1] = 0.0;
        assert!(p.validate().is_err());
    }

    #[test]
    fn validate_catches_nan() {
        let mut p = sample();
        p.pos[0].x = f64::NAN;
        assert!(p.validate().is_err());
    }

    #[test]
    fn bounds_are_tight() {
        let p = sample();
        let b = p.bounds();
        assert_eq!(b.min, Vec3::new(-1.0, 0.0, 0.0));
        assert_eq!(b.max, Vec3::new(1.0, 3.0, 0.0));
    }

    #[test]
    fn extend_and_swap_remove() {
        let mut p = sample();
        let q = sample();
        p.extend_from(&q);
        assert_eq!(p.len(), 6);
        let (pos, _, m, id) = p.swap_remove(0);
        assert_eq!(pos, Vec3::new(1.0, 0.0, 0.0));
        assert_eq!(m, 2.0);
        assert_eq!(id, 10);
        assert_eq!(p.len(), 5);
    }
}

//! The paper's Milky Way model (§IV).
//!
//! | component | profile | mass | scale |
//! |---|---|---|---|
//! | dark halo | NFW, truncated at 200 kpc | 6.0×10¹¹ M☉ | r_s = 20 kpc |
//! | stellar disk | exponential, sech² vertical | 5.0×10¹⁰ M☉ | R_d = 2.5 kpc, z_d = 0.3 kpc |
//! | bulge | Hernquist | 4.6×10⁹ M☉ | a = 0.7 kpc |
//!
//! All particles have **equal mass** (the paper's choice to avoid numerical
//! heating), so component particle counts are proportional to component
//! masses — the same ~1 : 3 : 47 bulge/disk/halo split as the 51-billion
//! production run.
//!
//! Generation is deterministic *per particle index*: particle `i` is drawn
//! from its own RNG stream, so [`MilkyWayModel::generate_range`] produces
//! bit-identical particles regardless of how index ranges are distributed
//! over ranks — exactly the property the paper exploits to generate 51
//! billion particles on the fly with no start-up I/O.

use crate::disk::{ExponentialDisk, RotationCurve};
use crate::jeans::JeansTable;
use crate::profile::{Hernquist, Nfw, Profile};
use bonsai_tree::Particles;
use bonsai_util::rng::Xoshiro256;
use bonsai_util::units::G;
use bonsai_util::Vec3;

/// The composite Milky Way model.
#[derive(Clone, Debug)]
pub struct MilkyWayModel {
    /// NFW dark halo.
    pub halo: Nfw,
    /// Hernquist bulge.
    pub bulge: Hernquist,
    /// Exponential stellar disk.
    pub disk: ExponentialDisk,
    /// Gravitational constant (galactic units).
    pub g: f64,
}

impl MilkyWayModel {
    /// The §IV model in galactic units (kpc, km/s, M☉).
    pub fn paper() -> Self {
        Self {
            halo: Nfw::new(6.0e11, 20.0, 200.0),
            bulge: Hernquist::new(4.6e9, 0.7),
            disk: ExponentialDisk::new(5.0e10, 2.5, 0.3),
            g: G,
        }
    }

    /// Total mass of all components (truncated).
    pub fn total_mass(&self) -> f64 {
        self.halo.total_mass() + self.bulge.total_mass() + self.disk.total_mass()
    }

    /// Equal-mass particle counts `(bulge, disk, halo)` for `n_total`.
    pub fn component_counts(&self, n_total: usize) -> (usize, usize, usize) {
        let total = self.total_mass();
        let nb = ((self.bulge.total_mass() / total) * n_total as f64).round() as usize;
        let nd = ((self.disk.total_mass() / total) * n_total as f64).round() as usize;
        let nb = nb.max(1).min(n_total.saturating_sub(2));
        let nd = nd.max(1).min(n_total - nb - 1);
        (nb, nd, n_total - nb - nd)
    }

    /// Total enclosed mass at spherical radius `r` (disk folded in via its
    /// cylindrical enclosed mass — the usual spherical approximation).
    pub fn enclosed_mass_total(&self, r: f64) -> f64 {
        self.halo.enclosed_mass(r) + self.bulge.enclosed_mass(r) + self.disk.enclosed_mass_cyl(r)
    }

    /// Circular velocity of the composite model at radius `r` (km/s).
    pub fn circular_velocity(&self, r: f64) -> f64 {
        (self.g * self.enclosed_mass_total(r) / r).sqrt()
    }

    /// Generate the complete model with `n` particles.
    pub fn generate(&self, n: usize, seed: u64) -> Particles {
        self.generate_range(n, 0, n, seed)
    }

    /// Generate exactly the particles with indices `begin..end` of an
    /// `n_total`-particle realization. Deterministic and slice-independent.
    pub fn generate_range(&self, n_total: usize, begin: usize, end: usize, seed: u64) -> Particles {
        assert!(begin <= end && end <= n_total && n_total > 0);
        let m_part = self.total_mass() / n_total as f64;
        let (nb, nd, _) = self.component_counts(n_total);

        // Shared lookup tables (depend only on the model, not the slice).
        let m_tot = |r: f64| self.enclosed_mass_total(r);
        let halo_jeans = JeansTable::build(
            &|r| self.halo.density(r),
            &m_tot,
            self.g,
            1e-2,
            self.halo.rmax() * 1.5,
            400,
        );
        let bulge_jeans = JeansTable::build(
            &|r| self.bulge.density(r),
            &m_tot,
            self.g,
            1e-3,
            self.bulge.rmax() * 1.5,
            400,
        );
        let curve = RotationCurve::build(&m_tot, self.g, self.disk.r_cut * 1.5, 2048);
        let kappa_ref = curve.kappa(self.disk.r_ref);

        let mut out = Particles::with_capacity(end - begin);
        for i in begin..end {
            let mut rng = Xoshiro256::stream(seed, i as u64);
            let (pos, vel) = if i < nb {
                self.sample_spheroid(&self.bulge, &bulge_jeans, &mut rng)
            } else if i < nb + nd {
                self.sample_disk(&curve, kappa_ref, &mut rng)
            } else {
                self.sample_spheroid(&self.halo, &halo_jeans, &mut rng)
            };
            out.push(pos, vel, m_part, i as u64);
        }
        out
    }

    fn sample_spheroid(
        &self,
        profile: &dyn Profile,
        jeans: &JeansTable,
        rng: &mut Xoshiro256,
    ) -> (Vec3, Vec3) {
        let r = profile.sample_radius(rng.uniform());
        let pos = rng.unit_sphere() * r;
        let sigma = jeans.sigma(r);
        // Gaussian components, clipped at 3σ to avoid an unbound tail.
        let clip = |v: f64| v.clamp(-3.0 * sigma, 3.0 * sigma);
        let vel = Vec3::new(
            clip(rng.normal_scaled(0.0, sigma)),
            clip(rng.normal_scaled(0.0, sigma)),
            clip(rng.normal_scaled(0.0, sigma)),
        );
        (pos, vel)
    }

    fn sample_disk(&self, curve: &RotationCurve, kappa_ref: f64, rng: &mut Xoshiro256) -> (Vec3, Vec3) {
        let d = &self.disk;
        let r = d.sample_radius(rng.uniform());
        let phi = rng.uniform_in(0.0, std::f64::consts::TAU);
        let z = d.sample_z(rng.uniform());
        let pos = Vec3::new(r * phi.cos(), r * phi.sin(), z);

        let vc = curve.vc(r);
        let omega = curve.omega(r);
        let kappa = curve.kappa(r);
        let sigma_r = d.sigma_r(r, self.g, kappa_ref);
        let sigma_z = d.sigma_z(r, self.g);
        let sigma_phi = sigma_r * (kappa / (2.0 * omega)).min(1.0);
        // Asymmetric drift (Hernquist 1993 moment closure):
        // v̄_φ² = v_c² + σ_R²(1 − κ²/4Ω² − 2R/R_d), clamped non-negative.
        let va2 = vc * vc
            + sigma_r * sigma_r
                * (1.0 - (kappa * kappa) / (4.0 * omega * omega) - 2.0 * r / d.r_scale);
        let v_phi_mean = va2.max(0.0).sqrt();

        let clip = |v: f64, s: f64| v.clamp(-3.0 * s, 3.0 * s);
        let v_r = clip(rng.normal_scaled(0.0, sigma_r), sigma_r);
        let v_phi = v_phi_mean + clip(rng.normal_scaled(0.0, sigma_phi), sigma_phi);
        let v_z = clip(rng.normal_scaled(0.0, sigma_z), sigma_z);

        let (s, c) = phi.sin_cos();
        let vel = Vec3::new(v_r * c - v_phi * s, v_r * s + v_phi * c, v_z);
        (pos, vel)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn component_counts_match_paper_ratios() {
        let mw = MilkyWayModel::paper();
        let n = 1_000_000;
        let (nb, nd, nh) = mw.component_counts(n);
        assert_eq!(nb + nd + nh, n);
        // Paper: 51e9 total → ~1e9 bulge (2%), ~3e9 disk (6%), ~47e9 halo (92%).
        let fb = nb as f64 / n as f64;
        let fd = nd as f64 / n as f64;
        let fh = nh as f64 / n as f64;
        assert!((0.004..0.02).contains(&fb), "bulge fraction {fb}");
        assert!((0.05..0.11).contains(&fd), "disk fraction {fd}");
        assert!(fh > 0.85, "halo fraction {fh}");
    }

    #[test]
    fn equal_particle_masses() {
        let mw = MilkyWayModel::paper();
        let p = mw.generate(5000, 1);
        let m0 = p.mass[0];
        assert!(p.mass.iter().all(|&m| (m - m0).abs() < 1e-9 * m0));
        assert!((p.total_mass() - mw.total_mass()).abs() < 1e-6 * mw.total_mass());
    }

    #[test]
    fn rotation_curve_is_milky_way_like() {
        let mw = MilkyWayModel::paper();
        let v8 = mw.circular_velocity(8.0);
        assert!((180.0..260.0).contains(&v8), "v_c(8 kpc) = {v8} km/s");
        // roughly flat between 8 and 20 kpc
        let v20 = mw.circular_velocity(20.0);
        assert!((v20 / v8 - 1.0).abs() < 0.25, "flatness: v20/v8 = {}", v20 / v8);
    }

    #[test]
    fn slice_generation_is_consistent() {
        let mw = MilkyWayModel::paper();
        let n = 2000;
        let whole = mw.generate(n, 9);
        let a = mw.generate_range(n, 0, 700, 9);
        let b = mw.generate_range(n, 700, 2000, 9);
        assert_eq!(a.len() + b.len(), n);
        assert_eq!(&whole.pos[..700], &a.pos[..]);
        assert_eq!(&whole.pos[700..], &b.pos[..]);
        assert_eq!(&whole.vel[..700], &a.vel[..]);
        assert_eq!(whole.id[700], 700);
    }

    #[test]
    fn disk_particles_are_thin_and_rotating() {
        let mw = MilkyWayModel::paper();
        let n = 20_000;
        let (nb, nd, _) = mw.component_counts(n);
        let p = mw.generate_range(n, nb, nb + nd, 3);
        // Thin: rms |z| ~ z_d.
        let rms_z: f64 = (p.pos.iter().map(|q| q.z * q.z).sum::<f64>() / p.len() as f64).sqrt();
        assert!(rms_z < 3.0 * mw.disk.z_scale, "rms z = {rms_z}");
        // Rotating: mean tangential velocity close to v_c at the mass-weighted
        // mean radius.
        let mut vphi_sum = 0.0;
        let mut r_sum = 0.0;
        for i in 0..p.len() {
            let r = p.pos[i].cyl_radius();
            let t = Vec3::new(-p.pos[i].y / r, p.pos[i].x / r, 0.0);
            vphi_sum += p.vel[i].dot(t);
            r_sum += r;
        }
        let vphi = vphi_sum / p.len() as f64;
        let rbar = r_sum / p.len() as f64;
        let vc = mw.circular_velocity(rbar);
        assert!(
            (vphi / vc - 1.0).abs() < 0.25,
            "mean v_phi {vphi} vs v_c({rbar}) = {vc}"
        );
    }

    #[test]
    fn disk_rotation_matches_the_model_in_each_annulus() {
        // Mean streaming velocity ⟨v_φ⟩ of the disk particles in 2 kpc
        // annuli against the composite model's circular velocity at the
        // annulus centre, wherever an annulus outside the bulge holds more
        // than 200 particles.
        const ANNULI: usize = 8;
        const R_MAX: f64 = 16.0;
        let mw = MilkyWayModel::paper();
        let n = 40_000;
        let (nb, nd, _) = mw.component_counts(n);
        let p = mw.generate_range(n, nb, nb + nd, 3);
        let mut vphi_sum = [0.0f64; ANNULI];
        let mut count = [0usize; ANNULI];
        for (pos, vel) in p.pos.iter().zip(&p.vel) {
            let r = pos.cyl_radius();
            if r > 0.0 && r < R_MAX {
                let b = ((r / R_MAX * ANNULI as f64) as usize).min(ANNULI - 1);
                vphi_sum[b] += vel.dot(Vec3::new(-pos.y / r, pos.x / r, 0.0));
                count[b] += 1;
            }
        }
        let mut checked = 0;
        for b in 0..ANNULI {
            let r = (b as f64 + 0.5) * R_MAX / ANNULI as f64;
            if count[b] <= 200 || r <= 4.0 {
                continue;
            }
            let vphi = vphi_sum[b] / count[b] as f64;
            let vc = mw.circular_velocity(r);
            assert!((vphi / vc - 1.0).abs() < 0.25, "r {r}: measured {vphi} vs model {vc}");
            checked += 1;
        }
        assert!(checked >= 3, "only {checked} annuli measured");
    }

    #[test]
    fn halo_particles_are_extended_and_pressure_supported() {
        let mw = MilkyWayModel::paper();
        let n = 20_000;
        let (nb, nd, _) = mw.component_counts(n);
        let p = mw.generate_range(n, nb + nd, n, 4);
        let mean_r: f64 = p.pos.iter().map(|q| q.norm()).sum::<f64>() / p.len() as f64;
        assert!(mean_r > 30.0, "halo mean radius {mean_r} kpc");
        // Net rotation ~ 0.
        let mut l = Vec3::zero();
        for i in 0..p.len() {
            l += p.pos[i].cross(p.vel[i]);
        }
        let l = l / p.len() as f64;
        let typical = mean_r * 100.0; // kpc · km/s scale
        assert!(l.norm() < 0.1 * typical, "halo net L {l}");
    }

    #[test]
    fn com_is_near_origin() {
        let mw = MilkyWayModel::paper();
        let p = mw.generate(30_000, 5);
        let com = p.center_of_mass();
        assert!(com.norm() < 5.0, "COM {com} kpc"); // statistical, halo-dominated
    }
}

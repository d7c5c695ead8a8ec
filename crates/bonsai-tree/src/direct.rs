//! Direct O(N²) summation — the accuracy reference and the "direct N-body
//! kernel" whose device performance appears alongside the tree kernel in the
//! paper's Fig. 1.
//!
//! It stays in `f64` where the tree walk's kernels are `f32`: it is the
//! reference the walk's accuracy is measured against. It runs the `f64` p-p
//! lane kernel with every source as one leaf: the targets are transposed
//! into `LANES`-wide blocks (the last one padded with the last target, as
//! the walk pads a group), and each block is dispatched to the
//! instantiation `Isa::detect` picks, as the walk's groups are. Lane `i` is
//! therefore [`p_p_batch`](crate::kernels::p_p_batch)'s sum over all
//! sources for target `i`, bit for bit, on every instruction set.

use crate::forces::{Forces, InteractionCounts};
use crate::kernels::{p_p_lanes, Isa, LANES};
use crate::particles::Particles;
use bonsai_util::{KahanSum, Vec3};
use rayon::prelude::*;

/// One block of targets: rows x, y, z, then accumulated φ, ax, ay, az.
type TargetBlock = [[f64; LANES]; 7];

/// Forces of `src` particles on `tgt` positions by direct summation.
///
/// If `skip_same_index` is true, pair `(i, i)` is skipped by *index* — use
/// this when `tgt` and `src` are the same set in the same order. (The kernel
/// masks zero-distance pairs, which covers the self term; a distinct source
/// coincident with its target is also masked — physically a zero force
/// anyway, see `kernels::p_p`.) The flag only changes the returned count.
pub fn direct_forces(
    tgt: &[Vec3],
    src_pos: &[Vec3],
    src_mass: &[f64],
    eps: f64,
    g: f64,
    skip_same_index: bool,
) -> (Forces, InteractionCounts) {
    assert_eq!(src_pos.len(), src_mass.len());
    let eps2 = eps * eps;
    let mut blocks: Vec<TargetBlock> = tgt
        .chunks(LANES)
        .map(|chunk| {
            let target = |l: usize| chunk.get(l).unwrap_or(&chunk[chunk.len() - 1]);
            let mut block = [[0.0; LANES]; 7];
            block[0] = std::array::from_fn(|l| target(l).x);
            block[1] = std::array::from_fn(|l| target(l).y);
            block[2] = std::array::from_fn(|l| target(l).z);
            block
        })
        .collect();
    let isa = Isa::detect();
    blocks.par_iter_mut().for_each(|block| match isa {
        Isa::Plain => direct_block(block, src_pos, src_mass, eps2),
        // SAFETY: `direct_block_avx2_fma` requires only that the CPU supports
        // AVX2 and FMA, and `Isa::Avx2Fma` exists only where `Isa::detect`
        // saw `is_x86_feature_detected!` report both on this machine.
        #[cfg(target_arch = "x86_64")]
        Isa::Avx2Fma => unsafe { direct_block_avx2_fma(block, src_pos, src_mass, eps2) },
        // SAFETY: `direct_block_avx512` requires only that the CPU supports
        // AVX-512 F and VL, AVX2 and FMA, and `Isa::Avx512` exists only where
        // `Isa::detect` saw `is_x86_feature_detected!` report all four.
        #[cfg(target_arch = "x86_64")]
        Isa::Avx512 => unsafe { direct_block_avx512(block, src_pos, src_mass, eps2) },
    });

    // Transpose back, dropping the padding lanes.
    let mut forces = Forces::zeros(tgt.len());
    for (i, (acc, pot)) in forces.acc.iter_mut().zip(&mut forces.pot).enumerate() {
        let [.., phi, ax, ay, az] = &blocks[i / LANES];
        let l = i % LANES;
        *acc = Vec3::new(ax[l], ay[l], az[l]) * g;
        *pot = phi[l] * g;
    }
    let n = tgt.len() as u64;
    let m = src_pos.len() as u64;
    let pp = if skip_same_index { n * m - n } else { n * m };
    (forces, InteractionCounts { pp, pc: 0 })
}

/// [`direct_block`] compiled with AVX2 and FMA enabled.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
fn direct_block_avx2_fma(block: &mut TargetBlock, src_pos: &[Vec3], src_mass: &[f64], eps2: f64) {
    direct_block(block, src_pos, src_mass, eps2)
}

/// [`direct_block`] compiled with AVX-512 as well.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512vl,avx2,fma")]
fn direct_block_avx512(block: &mut TargetBlock, src_pos: &[Vec3], src_mass: &[f64], eps2: f64) {
    direct_block(block, src_pos, src_mass, eps2)
}

/// Every source on one block of targets, as one leaf.
#[inline(always)]
fn direct_block(block: &mut TargetBlock, src_pos: &[Vec3], src_mass: &[f64], eps2: f64) {
    let [tx, ty, tz, phi, ax, ay, az] = block;
    p_p_lanes(tx, ty, tz, src_pos, src_mass, eps2, phi, ax, ay, az);
}

/// Self-gravity of a particle set by direct summation.
pub fn direct_self_forces(particles: &Particles, eps: f64, g: f64) -> (Forces, InteractionCounts) {
    direct_forces(&particles.pos, &particles.pos, &particles.mass, eps, g, true)
}

/// Total potential energy `½ Σᵢ mᵢ φᵢ` by direct summation (Kahan-compensated).
pub fn potential_energy(particles: &Particles, eps: f64, g: f64) -> f64 {
    let (forces, _) = direct_self_forces(particles, eps, g);
    let mut k = KahanSum::new();
    for i in 0..particles.len() {
        k.add(0.5 * particles.mass[i] * forces.pot[i]);
    }
    k.value()
}

/// Total energy (kinetic + potential) by direct summation.
pub fn total_energy(particles: &Particles, eps: f64, g: f64) -> f64 {
    particles.kinetic_energy() + potential_energy(particles, eps, g)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::{p_p_batch, split_soa};

    fn two_body() -> Particles {
        let mut p = Particles::new();
        p.push(Vec3::new(1.0, 0.0, 0.0), Vec3::new(0.0, 0.5, 0.0), 1.0, 0);
        p.push(Vec3::new(-1.0, 0.0, 0.0), Vec3::new(0.0, -0.5, 0.0), 1.0, 1);
        p
    }

    #[test]
    fn two_body_forces() {
        let (f, c) = direct_self_forces(&two_body(), 0.0, 1.0);
        // |a| = m/r² = 1/4, attracting.
        assert!((f.acc[0].x + 0.25).abs() < 1e-15);
        assert!((f.acc[1].x - 0.25).abs() < 1e-15);
        assert!((f.pot[0] + 0.5).abs() < 1e-15);
        assert_eq!(c.pp, 2);
    }

    #[test]
    fn lane_blocks_sum_what_the_batch_kernel_sums() {
        // 203 targets: twelve whole blocks and a padded one. The sources are
        // the targets plus a copy of the first 40, so at ε = 0 some pairs
        // are coincident without being the same index.
        let mut rng = bonsai_util::rng::Xoshiro256::seed_from(29);
        let tgt: Vec<Vec3> = (0..203)
            .map(|_| rng.unit_sphere() * rng.uniform_in(0.05, 2.0))
            .collect();
        let src: Vec<Vec3> = tgt.iter().chain(&tgt[..40]).copied().collect();
        let mass: Vec<f64> = (0..src.len()).map(|_| rng.uniform_in(0.1, 2.0)).collect();
        let (sx, sy, sz) = split_soa(&src);
        for eps in [0.0, 0.01] {
            let (f, _) = direct_forces(&tgt, &src, &mass, eps, 1.0, false);
            for (i, &t) in tgt.iter().enumerate() {
                let (phi, acc) = p_p_batch(t, &sx, &sy, &sz, &mass, eps * eps);
                let want = [phi, acc.x, acc.y, acc.z].map(f64::to_bits);
                let got = [f.pot[i], f.acc[i].x, f.acc[i].y, f.acc[i].z];
                assert_eq!(got.map(f64::to_bits), want, "eps {eps}, target {i}");
                assert!(got.iter().all(|v| v.is_finite()), "eps {eps}, target {i}");
            }
        }
    }

    #[test]
    fn newtons_third_law() {
        let mut p = two_body();
        p.push(Vec3::new(0.0, 2.0, 1.0), Vec3::zero(), 3.0, 2);
        let (f, _) = direct_self_forces(&p, 0.0, 1.0);
        let net: Vec3 = (0..3).map(|i| f.acc[i] * p.mass[i]).sum();
        assert!(net.norm() < 1e-14);
    }

    #[test]
    fn two_body_energy() {
        // E = 2·(½·1·0.25) + ½(m0 φ0 + m1 φ1) = 0.25 - 0.5
        let e = total_energy(&two_body(), 0.0, 1.0);
        assert!((e + 0.25).abs() < 1e-14);
    }

    #[test]
    fn g_factor_scales_linearly() {
        let p = two_body();
        let e1 = total_energy(&p, 0.0, 1.0);
        let e2 = total_energy(&p, 0.0, 2.0);
        let ke = p.kinetic_energy();
        assert!(((e2 - ke) - 2.0 * (e1 - ke)).abs() < 1e-14);
    }

    #[test]
    fn cross_set_forces_count() {
        let p = two_body();
        let probes = [Vec3::new(0.0, 5.0, 0.0)];
        let (f, c) = direct_forces(&probes, &p.pos, &p.mass, 0.0, 1.0, false);
        assert_eq!(c.pp, 2);
        // Symmetric sources: x components cancel, net pull in -y.
        assert!(f.acc[0].x.abs() < 1e-15);
        assert!(f.acc[0].y < 0.0);
    }
}

//! The two force kernels of the paper (§VI-A, Eq. 1–2).
//!
//! * [`p_p`] — particle–particle: softened monopole, 23 flops in the paper's
//!   count (4 sub, 3 mul, 6 fma, 1 rsqrt counted as 4);
//! * [`p_c`] — particle–cell with quadrupole corrections, 65 flops in the
//!   paper's count (4 sub, 6 add, 17 mul, 17 fma, 1 rsqrt counted as 4).
//!
//! Both kernels accumulate `(φ, a)` *without* the gravitational constant —
//! G is applied once per walk — and use Plummer softening `r² → r² + ε²`.
//!
//! Sign conventions, with `r = r_source − r_target` (pointing at the source):
//!
//! ```text
//! φ  += −m/|r| + ½ tr(Q)/|r|³ − (3/2) (rᵀQr)/|r|⁵
//!     = (−m + (½ tr(Q) − (3/2) (rᵀQr)/|r|²)/|r|²) / |r|
//! a  += m r/|r|³ − (3/2) tr(Q) r/|r|⁵ − 3 Q r/|r|⁵ + (15/2) (rᵀQr) r/|r|⁷
//!     = r (m + (−(3/2) tr(Q) + (15/2) (rᵀQr)/|r|²)/|r|²) / |r|³ − Q r (3/|r|⁵)
//! ```
//!
//! where `Q = Σ mⱼ dⱼ dⱼᵀ` is the *un-detraced* quadrupole about the cell's
//! centre of mass (so the monopole term uses the cell mass and COM, and the
//! dipole vanishes identically).
//!
//! **Instruction mix.** `p_c` is written in the paper's mix: every `a·b + c`
//! is an explicit [`f64::mul_add`] and both sums are factored as on the second
//! lines above, which makes it 3 sub, 2 add, 17 mul, 18 fma, one `sqrt` and
//! one `div` per evaluation (the trace and the two multiples of it are per
//! cell, not per lane). `1/sqrt` stays the hardware `sqrt` + `div` pair: at
//! AVX2 width a division-free Newton iteration lands on the same two multiply
//! ports and was measured slower (ROADMAP item 2). The p-p family ([`p_p`],
//! `p_p_masked`, [`p_p_batch`], `p_p_lanes`) is deliberately *not* fused: it
//! is bound by the divider, fusing it was measured neutral, and leaving it
//! keeps direct summation and every θ = 0 walk bit-identical to what they
//! have always produced (pinned by a digest test in `walk.rs`).
//!
//! Each kernel comes in the shapes its callers need:
//!
//! * scalar [`p_p`] and [`p_c`] — one target, one source: the definitions;
//! * [`p_p_batch`] — one target, a run of sources, reduced in source order:
//!   direct summation;
//! * `p_p_lanes` and `p_c_lanes` — one *source* broadcast to a block of
//!   target lanes, the tree walk's kernels. A lane is a target, as a thread
//!   of a warp is in the paper's kernel (§III-A), so the loop over lanes
//!   carries no dependence and vectorises, where a reduction over sources
//!   into one `f64` sum cannot without reordering it.
//!
//! The shapes agree bit for bit: `p_c_lanes` evaluates [`p_c`]'s body per
//! lane, and `p_p_lanes` and [`p_p_batch`] share one masked term (which equals
//! [`p_p`] wherever `p_p` is nonzero) and add the terms in the same source
//! order. Every operation is a lane-wise IEEE-754 `f64` operation —
//! `mul_add` is fusedMultiplyAdd on every target, one instruction where the
//! hardware has it and libm's `fma` otherwise — and Rust never contracts
//! `a * b + c` on its own nor reassociates, so a lane's bits depend neither
//! on the vector width the loop was compiled for nor on the machine. What
//! does depend on the machine is speed: compiled without the `fma` target
//! feature `p_c` makes 18 libm calls (≈ 20× slower), so on x86_64 it has a
//! second, `avx2,fma` instantiation selected by `Isa`.

use bonsai_util::{Sym3, Vec3};

/// Particle–particle interaction: accumulate the softened monopole force of a
/// source point `(src_pos, src_mass)` on a target at `tgt_pos`.
///
/// Returns `(dφ, da)` (G **not** applied). A zero separation (the target
/// itself when walking its own leaf) contributes nothing — not even the
/// softened self-potential, matching the `i != j` guard of a direct code.
#[inline(always)]
pub fn p_p(tgt_pos: Vec3, src_pos: Vec3, src_mass: f64, eps2: f64) -> (f64, Vec3) {
    let dr = src_pos - tgt_pos; // 3 sub (the 4th sub of the count is the mass reuse slot)
    let r2 = dr.norm2() + eps2;
    if dr.norm2() == 0.0 {
        return (0.0, Vec3::zero());
    }
    let rinv = 1.0 / r2.sqrt(); // the kernel's rsqrt
    let rinv2 = rinv * rinv;
    let mrinv = src_mass * rinv;
    let mrinv3 = mrinv * rinv2;
    (-mrinv, dr * mrinv3)
}

/// Which instantiation of the fused code (the scalar [`p_c`] and the walk's
/// group body) a call runs. One detection, shared by both.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Isa {
    /// The build's baseline instruction set: portable and bit-identical, but
    /// `mul_add` is a libm call unless the build itself enables `fma`.
    Plain,
    /// AVX2 and FMA. Constructed only by [`Isa::pick`] from what the CPU
    /// reported — the calls into `#[target_feature(enable = "avx2,fma")]`
    /// functions rely on that.
    #[cfg(target_arch = "x86_64")]
    Avx2Fma,
}

impl Isa {
    /// The fastest instantiation this CPU can run (`std` caches the probe).
    pub(crate) fn detect() -> Isa {
        #[cfg(target_arch = "x86_64")]
        {
            use std::arch::is_x86_feature_detected as has;
            Isa::pick(has!("avx2"), has!("fma"))
        }
        #[cfg(not(target_arch = "x86_64"))]
        Isa::Plain
    }

    /// `Avx2Fma` needs both features: an AVX2 part without FMA stays `Plain`.
    #[cfg(target_arch = "x86_64")]
    fn pick(avx2: bool, fma: bool) -> Isa {
        if avx2 && fma {
            Isa::Avx2Fma
        } else {
            Isa::Plain
        }
    }
}

/// Particle–cell interaction: softened monopole plus quadrupole correction of
/// a cell with mass `m`, centre of mass `com`, and un-detraced quadrupole `q`
/// (about `com`), acting on a target at `tgt_pos`.
///
/// Returns `(dφ, da)` (G **not** applied). Same bits from either instantiation.
pub fn p_c(tgt_pos: Vec3, com: Vec3, m: f64, q: &Sym3, eps2: f64) -> (f64, Vec3) {
    match Isa::detect() {
        Isa::Plain => p_c_inline(tgt_pos, com, m, q, eps2),
        // SAFETY: `p_c_avx2_fma` requires only that the CPU supports AVX2 and
        // FMA, and `Isa::Avx2Fma` exists only where `Isa::detect` saw
        // `is_x86_feature_detected!` report both on this machine.
        #[cfg(target_arch = "x86_64")]
        Isa::Avx2Fma => unsafe { p_c_avx2_fma(tgt_pos, com, m, q, eps2) },
    }
}

/// [`p_c_inline`] compiled with FMA enabled, so `mul_add` is one instruction.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
fn p_c_avx2_fma(tgt_pos: Vec3, com: Vec3, m: f64, q: &Sym3, eps2: f64) -> (f64, Vec3) {
    p_c_inline(tgt_pos, com, m, q, eps2)
}

/// The body of [`p_c`], inlined into whichever instantiation calls it (the
/// two above, and `p_c_lanes` inside the walk's).
#[inline(always)]
fn p_c_inline(tgt_pos: Vec3, com: Vec3, m: f64, q: &Sym3, eps2: f64) -> (f64, Vec3) {
    let Vec3 { x: dx, y: dy, z: dz } = com - tgt_pos;
    let r2 = dx.mul_add(dx, dy.mul_add(dy, dz.mul_add(dz, eps2)));
    let rinv = 1.0 / r2.sqrt(); // rsqrt
    let rinv2 = rinv * rinv;
    let rinv3 = rinv * rinv2;
    let rinv5 = rinv3 * rinv2;

    let [qxx, qxy, qxz, qyy, qyz, qzz] = q.m;
    let tr_q = q.trace();
    let qx = qxz.mul_add(dz, qxy.mul_add(dy, qxx * dx));
    let qy = qyz.mul_add(dz, qyy.mul_add(dy, qxy * dx));
    let qz = qzz.mul_add(dz, qyz.mul_add(dy, qxz * dx));
    let rqr = dz.mul_add(qz, dy.mul_add(qy, dx * qx));

    // Both brackets of the header's formulas, by Horner's rule in 1/r².
    let phi = rinv * (-1.5 * rqr).mul_add(rinv2, 0.5 * tr_q).mul_add(rinv2, -m);
    let c = rinv3 * (7.5 * rqr).mul_add(rinv2, -1.5 * tr_q).mul_add(rinv2, m);
    let k = 3.0 * rinv5;
    let acc = Vec3::new(
        (-qx).mul_add(k, dx * c),
        (-qy).mul_add(k, dy * c),
        (-qz).mul_add(k, dz * c),
    );
    (phi, acc)
}

/// The masked particle–particle term every batched and lane kernel shares:
/// `(m/|r|, m/|r|³)` for separation `(dx, dy, dz)`, exactly zero for a
/// coincident pair. Branchless — the self/coincident guard is a mask factor
/// of zero instead of a skip — so a loop over it vectorises.
#[inline(always)]
fn p_p_masked(dx: f64, dy: f64, dz: f64, m: f64, eps2: f64) -> (f64, f64) {
    let dr2 = dx * dx + dy * dy + dz * dz;
    // Branchless self/coincident mask: exactly zero distance → 0 weight.
    let mask = if dr2 > 0.0 { 1.0 } else { 0.0 };
    let r2 = dr2 + eps2;
    // max(r2, tiny) keeps the rsqrt finite when eps = 0 and dr = 0; the
    // mask zeroes the contribution anyway.
    let rinv = mask / r2.max(f64::MIN_POSITIVE).sqrt();
    let rinv2 = rinv * rinv;
    let mrinv = m * rinv;
    (mrinv, mrinv * rinv2)
}

/// Batched particle-particle kernel: accumulate the forces of a contiguous
/// SoA batch of sources on one target, in source order.
///
/// This is the direct-summation kernel ([`crate::direct`]) and the
/// per-target definition the walk's lane kernel reproduces: lane `l` of
/// `p_p_lanes` computes exactly this sum for target `l`.
#[inline]
pub fn p_p_batch(
    tgt_pos: Vec3,
    src_x: &[f64],
    src_y: &[f64],
    src_z: &[f64],
    src_m: &[f64],
    eps2: f64,
) -> (f64, Vec3) {
    let n = src_x.len();
    debug_assert!(src_y.len() == n && src_z.len() == n && src_m.len() == n);
    let (mut phi, mut ax, mut ay, mut az) = (0.0f64, 0.0f64, 0.0f64, 0.0f64);
    for j in 0..n {
        let dx = src_x[j] - tgt_pos.x;
        let dy = src_y[j] - tgt_pos.y;
        let dz = src_z[j] - tgt_pos.z;
        let (mrinv, mrinv3) = p_p_masked(dx, dy, dz, src_m[j], eps2);
        phi -= mrinv;
        ax += dx * mrinv3;
        ay += dy * mrinv3;
        az += dz * mrinv3;
    }
    (phi, Vec3::new(ax, ay, az))
}

/// Targets per register block of the lane kernels. Lane arrays handed to
/// [`p_p_lanes`] / [`p_c_lanes`] are a whole number of blocks long.
pub(crate) const LANES: usize = 8;

/// One block of lane values.
type Block = [f64; LANES];

/// Borrow block `b` of a lane array.
#[inline(always)]
fn block(lanes: &[f64], b: usize) -> &Block {
    lanes[b * LANES..(b + 1) * LANES].try_into().expect("a whole lane block")
}

/// Mutably borrow block `b` of a lane array.
#[inline(always)]
fn block_mut(lanes: &mut [f64], b: usize) -> &mut Block {
    (&mut lanes[b * LANES..(b + 1) * LANES]).try_into().expect("a whole lane block")
}

/// Lane-parallel particle–particle kernel: add the forces of the sources
/// `(src_pos, src_mass)` (one leaf) to every target lane.
///
/// Lane `l` holds target `(tx[l], ty[l], tz[l])` and accumulators
/// `(phi[l], ax[l], ay[l], az[l])`. Each source is broadcast to all lanes —
/// the warp mapping of §III-A — so the loop over lanes is a plain map with
/// no cross-lane reduction. Per lane the arithmetic is [`p_p_batch`]'s: a
/// partial sum over the sources in order, started from zero, then added to
/// the accumulator.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
pub(crate) fn p_p_lanes(
    tx: &[f64],
    ty: &[f64],
    tz: &[f64],
    src_pos: &[Vec3],
    src_mass: &[f64],
    eps2: f64,
    phi: &mut [f64],
    ax: &mut [f64],
    ay: &mut [f64],
    az: &mut [f64],
) {
    debug_assert_eq!(src_pos.len(), src_mass.len());
    debug_assert_eq!(tx.len() % LANES, 0);
    for b in 0..tx.len() / LANES {
        // One block at a time, so the partial sums of all its lanes stay in
        // registers across the whole leaf.
        let (tx, ty, tz) = (block(tx, b), block(ty, b), block(tz, b));
        let [mut dphi, mut dax, mut day, mut daz] = [[0.0; LANES]; 4];
        for (s, &m) in src_pos.iter().zip(src_mass) {
            for l in 0..LANES {
                let dx = s.x - tx[l];
                let dy = s.y - ty[l];
                let dz = s.z - tz[l];
                let (mrinv, mrinv3) = p_p_masked(dx, dy, dz, m, eps2);
                dphi[l] -= mrinv;
                dax[l] += dx * mrinv3;
                day[l] += dy * mrinv3;
                daz[l] += dz * mrinv3;
            }
        }
        let (phi, ax) = (block_mut(phi, b), block_mut(ax, b));
        let (ay, az) = (block_mut(ay, b), block_mut(az, b));
        for l in 0..LANES {
            phi[l] += dphi[l];
            ax[l] += dax[l];
            ay[l] += day[l];
            az[l] += daz[l];
        }
    }
}

/// Lane-parallel particle–cell kernel: add one cell's [`p_c`] contribution
/// to every target lane (same lane layout as [`p_p_lanes`]). Each lane
/// evaluates `p_c`'s body itself, so its expression tree is the scalar
/// kernel's.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
pub(crate) fn p_c_lanes(
    tx: &[f64],
    ty: &[f64],
    tz: &[f64],
    com: Vec3,
    m: f64,
    q: &Sym3,
    eps2: f64,
    phi: &mut [f64],
    ax: &mut [f64],
    ay: &mut [f64],
    az: &mut [f64],
) {
    let n = tx.len();
    let (ty, tz) = (&ty[..n], &tz[..n]);
    let (phi, ax, ay, az) = (&mut phi[..n], &mut ax[..n], &mut ay[..n], &mut az[..n]);
    for l in 0..n {
        let (dphi, da) = p_c_inline(Vec3::new(tx[l], ty[l], tz[l]), com, m, q, eps2);
        phi[l] += dphi;
        ax[l] += da.x;
        ay[l] += da.y;
        az[l] += da.z;
    }
}

/// Split an AoS position slice into SoA component buffers (helper for
/// [`p_p_batch`] callers that hold `&[Vec3]`).
pub fn split_soa(pos: &[Vec3]) -> (Vec<f64>, Vec<f64>, Vec<f64>) {
    let mut x = Vec::with_capacity(pos.len());
    let mut y = Vec::with_capacity(pos.len());
    let mut z = Vec::with_capacity(pos.len());
    for p in pos {
        x.push(p.x);
        y.push(p.y);
        z.push(p.z);
    }
    (x, y, z)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[cfg(target_arch = "x86_64")]
    fn fused_instantiation_needs_both_avx2_and_fma() {
        assert_eq!(Isa::pick(true, true), Isa::Avx2Fma);
        assert_eq!(Isa::pick(true, false), Isa::Plain);
        assert_eq!(Isa::pick(false, true), Isa::Plain);
        assert_eq!(Isa::pick(false, false), Isa::Plain);
    }

    #[test]
    fn pp_matches_newton() {
        // Unit mass at distance 2 along x: φ = -1/2, a = 1/4 toward source.
        let (phi, a) = p_p(Vec3::zero(), Vec3::new(2.0, 0.0, 0.0), 1.0, 0.0);
        assert!((phi + 0.5).abs() < 1e-15);
        assert!((a.x - 0.25).abs() < 1e-15);
        assert_eq!(a.y, 0.0);
        assert_eq!(a.z, 0.0);
    }

    #[test]
    fn pp_self_interaction_is_zero() {
        let p = Vec3::new(1.0, 2.0, 3.0);
        let (phi, a) = p_p(p, p, 5.0, 0.01);
        assert_eq!(phi, 0.0);
        assert_eq!(a, Vec3::zero());
    }

    #[test]
    fn pp_softening_caps_close_encounters() {
        let eps2 = 1.0;
        let (phi, a) = p_p(Vec3::zero(), Vec3::new(1e-8, 0.0, 0.0), 1.0, eps2);
        // φ → -1/ε, a → r/ε³ → 0
        assert!((phi + 1.0).abs() < 1e-6);
        assert!(a.norm() < 1e-6);
    }

    #[test]
    fn pc_with_zero_quadrupole_equals_pp() {
        let tgt = Vec3::new(0.1, -0.2, 0.3);
        let com = Vec3::new(3.0, 4.0, -1.0);
        let m = 2.5;
        let (p1, a1) = p_p(tgt, com, m, 0.0);
        let (p2, a2) = p_c(tgt, com, m, &Sym3::zero(), 0.0);
        assert!((p1 - p2).abs() < 1e-15);
        assert!((a1 - a2).norm() < 1e-15);
    }

    #[test]
    fn pc_quadrupole_matches_two_point_expansion() {
        // Cell: two unit masses at com ± d. Exact field vs multipole field at
        // distance R ≫ |d|: the quadrupole-corrected error must be O((d/R)^3)
        // relative — check it is dramatically smaller than the monopole error.
        let d = Vec3::new(0.05, 0.02, -0.03);
        let com = Vec3::zero();
        let (s1, s2) = (com + d, com - d);
        let q = Sym3::outer(d, 1.0) + Sym3::outer(-d, 1.0);
        let tgt = Vec3::new(2.0, 1.0, 0.5);

        let (pe1, ae1) = p_p(tgt, s1, 1.0, 0.0);
        let (pe2, ae2) = p_p(tgt, s2, 1.0, 0.0);
        let (phi_exact, acc_exact) = (pe1 + pe2, ae1 + ae2);

        let (phi_mono, acc_mono) = p_p(tgt, com, 2.0, 0.0);
        let (phi_quad, acc_quad) = p_c(tgt, com, 2.0, &q, 0.0);

        let e_mono = (acc_mono - acc_exact).norm() / acc_exact.norm();
        let e_quad = (acc_quad - acc_exact).norm() / acc_exact.norm();
        assert!(e_quad < e_mono / 10.0, "quad error {e_quad} vs mono {e_mono}");

        let p_mono = (phi_mono - phi_exact).abs() / phi_exact.abs();
        let p_quad = (phi_quad - phi_exact).abs() / phi_exact.abs();
        assert!(p_quad < p_mono / 10.0, "quad pot error {p_quad} vs mono {p_mono}");
    }

    #[test]
    fn pc_acceleration_is_gradient_of_potential() {
        // Numerical gradient check: a = -∇φ.
        let com = Vec3::new(1.0, -2.0, 0.5);
        let m = 3.0;
        let q = Sym3::outer(Vec3::new(0.2, 0.1, -0.1), 4.0);
        let tgt = Vec3::new(-1.0, 0.5, 2.0);
        let h = 1e-6;
        let phi_at = |p: Vec3| p_c(p, com, m, &q, 0.0).0;
        let grad = Vec3::new(
            (phi_at(tgt + Vec3::new(h, 0.0, 0.0)) - phi_at(tgt - Vec3::new(h, 0.0, 0.0))) / (2.0 * h),
            (phi_at(tgt + Vec3::new(0.0, h, 0.0)) - phi_at(tgt - Vec3::new(0.0, h, 0.0))) / (2.0 * h),
            (phi_at(tgt + Vec3::new(0.0, 0.0, h)) - phi_at(tgt - Vec3::new(0.0, 0.0, h))) / (2.0 * h),
        );
        let (_, acc) = p_c(tgt, com, m, &q, 0.0);
        assert!((acc + grad).norm() < 1e-6 * acc.norm().max(1.0), "a != -grad phi: {acc} vs {grad}");
    }

    /// `p_c` as it was before it was fused — separate multiplies and adds,
    /// four acceleration terms — kept as the accuracy yardstick.
    fn p_c_unfused(tgt_pos: Vec3, com: Vec3, m: f64, q: &Sym3, eps2: f64) -> (f64, Vec3) {
        let dr = com - tgt_pos;
        let r2 = dr.norm2() + eps2;
        let rinv = 1.0 / r2.sqrt();
        let rinv2 = rinv * rinv;
        let rinv3 = rinv * rinv2;
        let rinv5 = rinv3 * rinv2;
        let rinv7 = rinv5 * rinv2;

        let tr_q = q.trace();
        let qdr = q.mul_vec(dr);
        let rqr = dr.dot(qdr);

        let phi = -m * rinv + 0.5 * tr_q * rinv3 - 1.5 * rqr * rinv5;
        let acc = dr * (m * rinv3) - dr * (1.5 * tr_q * rinv5) - qdr * (3.0 * rinv5)
            + dr * (7.5 * rqr * rinv7);
        (phi, acc)
    }

    /// Double-double arithmetic (an unevaluated sum `hi + lo`, ≈ 106 bits):
    /// just enough of it to evaluate `p_c` far beyond `f64` round-off.
    #[derive(Clone, Copy)]
    struct Dd(f64, f64);

    impl Dd {
        /// `a + b` exactly.
        fn sum(a: f64, b: f64) -> Dd {
            let s = a + b;
            let bb = s - a;
            Dd(s, (a - (s - bb)) + (b - bb))
        }

        /// `a · b` exactly.
        fn prod(a: f64, b: f64) -> Dd {
            let p = a * b;
            Dd(p, a.mul_add(b, -p))
        }

        fn recip_sqrt(self) -> Dd {
            // One Newton step on the f64 estimate doubles its precision.
            let x = Dd(1.0 / self.0.sqrt(), 0.0);
            x + x * (Dd(1.0, 0.0) - self * x * x) * Dd(0.5, 0.0)
        }
    }

    impl std::ops::Add for Dd {
        type Output = Dd;
        fn add(self, o: Dd) -> Dd {
            let s = Dd::sum(self.0, o.0);
            Dd::sum(s.0, s.1 + self.1 + o.1)
        }
    }

    impl std::ops::Sub for Dd {
        type Output = Dd;
        fn sub(self, o: Dd) -> Dd {
            self + Dd(-o.0, -o.1)
        }
    }

    impl std::ops::Mul for Dd {
        type Output = Dd;
        fn mul(self, o: Dd) -> Dd {
            let p = Dd::prod(self.0, o.0);
            Dd::sum(p.0, p.1 + (self.0 * o.1 + self.1 * o.0))
        }
    }

    /// The textbook `p_c` expression in double-double: `(φ, [ax, ay, az])`.
    fn p_c_dd(tgt_pos: Vec3, com: Vec3, m: f64, q: &Sym3, eps2: f64) -> (Dd, [Dd; 3]) {
        let d = |x: f64| Dd(x, 0.0);
        let dr = [
            Dd::sum(com.x, -tgt_pos.x),
            Dd::sum(com.y, -tgt_pos.y),
            Dd::sum(com.z, -tgt_pos.z),
        ];
        let r2 = dr[0] * dr[0] + dr[1] * dr[1] + dr[2] * dr[2] + d(eps2);
        let rinv = r2.recip_sqrt();
        let rinv2 = rinv * rinv;
        let rinv3 = rinv * rinv2;
        let rinv5 = rinv3 * rinv2;
        let rinv7 = rinv5 * rinv2;
        let [qxx, qxy, qxz, qyy, qyz, qzz] = q.m.map(d);
        let tr_q = qxx + qyy + qzz;
        let qdr = [
            qxx * dr[0] + qxy * dr[1] + qxz * dr[2],
            qxy * dr[0] + qyy * dr[1] + qyz * dr[2],
            qxz * dr[0] + qyz * dr[1] + qzz * dr[2],
        ];
        let rqr = dr[0] * qdr[0] + dr[1] * qdr[1] + dr[2] * qdr[2];
        let phi = d(0.5) * tr_q * rinv3 - d(m) * rinv - d(1.5) * rqr * rinv5;
        let c = d(m) * rinv3 - d(1.5) * tr_q * rinv5 + d(7.5) * rqr * rinv7;
        let k = d(3.0) * rinv5;
        (phi, [0, 1, 2].map(|i| dr[i] * c - qdr[i] * k))
    }

    #[test]
    fn fused_pc_is_at_least_as_accurate_as_the_unfused_expression() {
        // Relative error of (φ, a) against the double-double value, over
        // random plausible cells: a few point masses within 0.4 of the
        // target's distance from their centre of mass.
        let mut rng = bonsai_util::rng::Xoshiro256::seed_from(2014);
        let rel_err = |got: (f64, Vec3), want: &(Dd, [Dd; 3])| {
            let (phi, acc) = want;
            let dphi = (got.0 - phi.0) - phi.1;
            let da = Vec3::new(
                (got.1.x - acc[0].0) - acc[0].1,
                (got.1.y - acc[1].0) - acc[1].1,
                (got.1.z - acc[2].0) - acc[2].1,
            );
            let a = Vec3::new(acc[0].0, acc[1].0, acc[2].0);
            (dphi.abs() / phi.0.abs()).max(da.norm() / a.norm())
        };
        let draws = 100_000;
        let (mut max_fused, mut max_unfused) = (0.0f64, 0.0f64);
        let (mut sum_fused, mut sum_unfused) = (0.0f64, 0.0f64);
        for draw in 0..draws {
            let tgt = rng.unit_sphere() * rng.uniform_in(0.0, 2.0);
            let com = tgt + rng.unit_sphere() * rng.uniform_in(0.5, 20.0);
            let size = 0.4 * (com - tgt).norm();
            let (mut m, mut q) = (0.0, Sym3::zero());
            for _ in 0..4 {
                let mj = rng.uniform_in(0.01, 1.0);
                m += mj;
                q += Sym3::outer(rng.unit_sphere() * rng.uniform_in(0.0, size), mj);
            }
            let eps2 = if draw % 2 == 0 { 0.0 } else { 1e-4 };

            let want = p_c_dd(tgt, com, m, &q, eps2);
            let fused = p_c(tgt, com, m, &q, eps2);
            // The dispatched instantiation and this build's baseline one
            // (libm `fma` unless the build enables the feature): same bits.
            let plain = p_c_inline(tgt, com, m, &q, eps2);
            assert_eq!(
                [fused.0, fused.1.x, fused.1.y, fused.1.z].map(f64::to_bits),
                [plain.0, plain.1.x, plain.1.y, plain.1.z].map(f64::to_bits),
                "draw {draw}"
            );
            let ef = rel_err(fused, &want);
            let eu = rel_err(p_c_unfused(tgt, com, m, &q, eps2), &want);
            max_fused = max_fused.max(ef);
            max_unfused = max_unfused.max(eu);
            sum_fused += ef;
            sum_unfused += eu;
        }
        assert!(max_fused <= max_unfused, "max error {max_fused:e} > unfused {max_unfused:e}");
        assert!(sum_fused <= sum_unfused, "summed error {sum_fused:e} > unfused {sum_unfused:e}");
        // Both are round-off: the reference and the kernels are one formula.
        assert!(max_unfused < 1e-14, "double-double reference vs old kernel: {max_unfused:e}");
    }

    #[test]
    fn batch_kernel_matches_scalar_kernel() {
        let mut rng = bonsai_util::rng::Xoshiro256::seed_from(7);
        let n = 137; // deliberately not a multiple of any lane width
        let pos: Vec<Vec3> = (0..n).map(|_| rng.unit_sphere() * rng.uniform_in(0.1, 3.0)).collect();
        let mass: Vec<f64> = (0..n).map(|_| rng.uniform_in(0.1, 2.0)).collect();
        let (x, y, z) = split_soa(&pos);
        let tgt = Vec3::new(0.3, -0.2, 0.1);
        for &eps2 in &[0.0, 0.01] {
            let (bp, ba) = p_p_batch(tgt, &x, &y, &z, &mass, eps2);
            let mut sp = 0.0;
            let mut sa = Vec3::zero();
            for j in 0..n {
                let (p, a) = p_p(tgt, pos[j], mass[j], eps2);
                sp += p;
                sa += a;
            }
            assert!((bp - sp).abs() < 1e-12 * sp.abs().max(1.0), "phi {bp} vs {sp}");
            assert!((ba - sa).norm() < 1e-12 * sa.norm().max(1.0), "acc {ba} vs {sa}");
        }
    }

    #[test]
    fn batch_kernel_skips_coincident_source() {
        let tgt = Vec3::new(1.0, 2.0, 3.0);
        let pos = [tgt, Vec3::new(2.0, 2.0, 3.0)];
        let (x, y, z) = split_soa(&pos);
        let m = [5.0, 1.0];
        let (phi, acc) = p_p_batch(tgt, &x, &y, &z, &m, 0.0);
        // only the second source contributes: φ = -1, a = +x̂
        assert!((phi + 1.0).abs() < 1e-15);
        assert!((acc - Vec3::new(1.0, 0.0, 0.0)).norm() < 1e-15);
        // and the same with softening on (coincident still masked out)
        let (phi_s, _) = p_p_batch(tgt, &x, &y, &z, &m, 0.25);
        assert!(phi_s > -1.0, "softened potential magnitude shrinks: {phi_s}");
    }

    #[test]
    fn pp_acceleration_is_gradient_of_potential() {
        let src = Vec3::new(0.3, 0.4, -0.7);
        let m = 2.0;
        let eps2 = 0.01;
        let tgt = Vec3::new(1.5, -0.5, 0.2);
        let h = 1e-6;
        let phi_at = |p: Vec3| p_p(p, src, m, eps2).0;
        let grad = Vec3::new(
            (phi_at(tgt + Vec3::new(h, 0.0, 0.0)) - phi_at(tgt - Vec3::new(h, 0.0, 0.0))) / (2.0 * h),
            (phi_at(tgt + Vec3::new(0.0, h, 0.0)) - phi_at(tgt - Vec3::new(0.0, h, 0.0))) / (2.0 * h),
            (phi_at(tgt + Vec3::new(0.0, 0.0, h)) - phi_at(tgt - Vec3::new(0.0, 0.0, h))) / (2.0 * h),
        );
        let (_, acc) = p_p(tgt, src, m, eps2);
        assert!((acc + grad).norm() < 1e-6 * acc.norm().max(1.0));
    }
}

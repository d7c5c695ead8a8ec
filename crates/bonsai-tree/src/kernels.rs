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
//! **Two precisions.** The tree walk's kernels, `p_p_lanes32` and
//! `p_c_lanes32`, do the paper's arithmetic in single precision, as
//! Bonsai's GPU kernels do: each lane takes its separation `s − t` in `f64`
//! and rounds it once to `f32`, and everything after that is `f32` — `r²`,
//! `1/√r²`, the p-p and p-c terms and the walk's sums. The separation stays
//! `f64` because positions do not fit `f32` at the resolution a close pair
//! needs: `f32` offsets from the centre of a group 0.1 wide are a few 1e-9
//! off, as large as the closest pairs' separation. A cell's mass and
//! quadrupole are rounded once per cell (`Cell32`), a leaf's masses once
//! per source. Direct summation, the accuracy oracle's reference, stays
//! `f64` (`p_p_lanes`), as do the scalar [`p_p`], [`p_c`] and [`p_p_batch`].
//!
//! **Instruction mix.** Every `a·b + c` is an explicit `mul_add` and both
//! sums of `p_c` are factored as on the second lines above. No kernel
//! divides: `1/√r²` is an integer seed and third-order Newton corrections —
//! `rsqrt`, three of them in `f64` (six multiplies, nine fused
//! multiply-adds, within one ulp; the `sqrt` + `div` pair is within 1.5),
//! and `rsqrt32`, two of them in `f32` (within one `f32` ulp over the
//! normal range). Per lane and interaction the walk's p-c is then 3 `f64`
//! sub and 3 conversions, 15 mul and 28 fma in `f32`; its p-p is the same
//! separation, 9 mul, 11 fma, one add, one sub and a mask select. The `f64`
//! p-p keeps `r²` and the accumulations unfused — separate multiplies and
//! adds, as the paper counts them — and scalar `p_c` keeps the `sqrt` +
//! `div` pair, for the calibration kernels that time them. A digest test in
//! `walk.rs` pins what direct summation and a θ = 0 walk produce, so a change
//! to either arithmetic has to re-pin it knowingly.
//!
//! Each kernel comes in the shapes its callers need:
//!
//! * scalar [`p_p`] and [`p_c`] — one target, one source: the definitions;
//! * [`p_p_batch`] — one target, a run of sources, reduced in source order:
//!   what direct summation computes per target;
//! * `p_p_lanes` (`f64`, direct summation's) and `p_p_lanes32` /
//!   `p_c_lanes32` (`f32`, the tree walk's) — one *source* broadcast to a
//!   block of 16 target lanes. A lane is a target, as a thread of a warp is
//!   in the paper's kernel (§III-A), so the loop over lanes carries no
//!   dependence and vectorises, where a reduction over sources into one sum
//!   cannot without reordering it.
//!
//! [`p_p`], [`p_p_batch`] and `p_p_lanes` agree bit for bit: they share one
//! masked term, the last two adding the terms in the same source order. The
//! `f32` kernels evaluate `p_p_add32` and `p_c_add32` per lane, which is
//! what the walk's scalar reference calls. Every operation is a lane-wise
//! IEEE-754 operation — `mul_add` is fusedMultiplyAdd on every target
//! (`vfmadd…pd` / `vfmadd…ps` where the hardware has it, libm's `fma` /
//! `fmaf` otherwise), the `f64` → `f32` conversion rounds to nearest, and no
//! hardware reciprocal-square-root estimate is used — and Rust never
//! contracts `a * b + c` on its own nor reassociates, so a lane's bits
//! depend neither on the vector width the loop was compiled for nor on the
//! machine. What does depend on the machine is speed: compiled without the
//! `fma` target feature every `mul_add` is a libm call (≈ 20× slower), so
//! on x86_64 the scalar kernels have a second, `avx2,fma` instantiation
//! selected by `Isa`, and the lane kernels run inside the walk's and direct
//! summation's `avx2,fma` and AVX-512 ones.

use bonsai_util::{Sym3, Vec3};

/// Particle–particle interaction: accumulate the softened monopole force of a
/// source point `(src_pos, src_mass)` on a target at `tgt_pos`.
///
/// Returns `(dφ, da)` (G **not** applied). A zero separation (the target
/// itself when walking its own leaf) contributes nothing — not even the
/// softened self-potential, matching the `i != j` guard of a direct code.
/// Same bits from every instantiation, and the same term a lane of the walk
/// adds.
pub fn p_p(tgt_pos: Vec3, src_pos: Vec3, src_mass: f64, eps2: f64) -> (f64, Vec3) {
    match Isa::detect() {
        Isa::Plain => p_p_inline(tgt_pos, src_pos, src_mass, eps2),
        // SAFETY: `p_p_avx2_fma` requires only that the CPU supports AVX2 and
        // FMA, and both variants exist only where `Isa::detect` saw
        // `is_x86_feature_detected!` report both on this machine.
        #[cfg(target_arch = "x86_64")]
        Isa::Avx2Fma | Isa::Avx512 => unsafe { p_p_avx2_fma(tgt_pos, src_pos, src_mass, eps2) },
    }
}

/// [`p_p_inline`] compiled with FMA enabled, so `rsqrt`'s `mul_add`s are
/// single instructions.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
fn p_p_avx2_fma(tgt_pos: Vec3, src_pos: Vec3, src_mass: f64, eps2: f64) -> (f64, Vec3) {
    p_p_inline(tgt_pos, src_pos, src_mass, eps2)
}

/// The body of [`p_p`]: the masked lane term, for one pair.
#[inline(always)]
fn p_p_inline(tgt_pos: Vec3, src_pos: Vec3, src_mass: f64, eps2: f64) -> (f64, Vec3) {
    let dr = src_pos - tgt_pos; // 3 sub (the 4th sub of the count is the mass reuse slot)
    let (mrinv, mrinv3) = p_p_masked(dr.x, dr.y, dr.z, src_mass, eps2);
    (-mrinv, dr * mrinv3)
}

/// Which instantiation of the fused code (the scalar kernels, the walk's
/// group body and direct summation's target blocks) a call runs. One
/// detection, shared by all of them. Each variant needs every feature of the
/// ones before it, so `a <= b` reads "`b` can run `a`".
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum Isa {
    /// The build's baseline instruction set: portable and bit-identical, but
    /// `mul_add` is a libm call unless the build itself enables `fma`.
    Plain,
    /// AVX2 and FMA. Constructed only by [`Isa::pick`] from what the CPU
    /// reported — the calls into `#[target_feature(enable = "avx2,fma")]`
    /// functions rely on that.
    #[cfg(target_arch = "x86_64")]
    Avx2Fma,
    /// AVX-512 F and VL on top of AVX2 and FMA: the lane loops at 512 bits.
    /// Constructed only by [`Isa::pick`], like `Avx2Fma`; the scalar kernels
    /// run their `avx2,fma` instantiation on it.
    #[cfg(target_arch = "x86_64")]
    Avx512,
}

impl Isa {
    /// The fastest instantiation this CPU can run (`std` caches the probe).
    pub(crate) fn detect() -> Isa {
        #[cfg(target_arch = "x86_64")]
        {
            use std::arch::is_x86_feature_detected as has;
            Isa::pick(has!("avx2"), has!("fma"), has!("avx512f"), has!("avx512vl"))
        }
        #[cfg(not(target_arch = "x86_64"))]
        Isa::Plain
    }

    /// `Avx2Fma` needs both AVX2 and FMA, and `Avx512` needs those two and
    /// AVX-512 F and VL: a part missing any of them gets the variant below.
    #[cfg(target_arch = "x86_64")]
    fn pick(avx2: bool, fma: bool, avx512f: bool, avx512vl: bool) -> Isa {
        match (avx2 && fma, avx512f && avx512vl) {
            (false, _) => Isa::Plain,
            (true, false) => Isa::Avx2Fma,
            (true, true) => Isa::Avx512,
        }
    }

    /// Every instantiation this CPU can run, the baseline first.
    #[cfg(test)]
    pub(crate) fn supported() -> Vec<Isa> {
        #[cfg(target_arch = "x86_64")]
        let all = [Isa::Plain, Isa::Avx2Fma, Isa::Avx512];
        #[cfg(not(target_arch = "x86_64"))]
        let all = [Isa::Plain];
        let detected = Isa::detect();
        all.into_iter().filter(|&isa| isa <= detected).collect()
    }
}

/// Particle–cell interaction: softened monopole plus quadrupole correction of
/// a cell with mass `m`, centre of mass `com`, and un-detraced quadrupole `q`
/// (about `com`), acting on a target at `tgt_pos`.
///
/// Returns `(dφ, da)` (G **not** applied). Same bits from every instantiation.
pub fn p_c(tgt_pos: Vec3, com: Vec3, m: f64, q: &Sym3, eps2: f64) -> (f64, Vec3) {
    match Isa::detect() {
        Isa::Plain => p_c_inline(tgt_pos, com, m, q, eps2),
        // SAFETY: `p_c_avx2_fma` requires only that the CPU supports AVX2 and
        // FMA, and both variants exist only where `Isa::detect` saw
        // `is_x86_feature_detected!` report both on this machine.
        #[cfg(target_arch = "x86_64")]
        Isa::Avx2Fma | Isa::Avx512 => unsafe { p_c_avx2_fma(tgt_pos, com, m, q, eps2) },
    }
}

/// [`p_c_inline`] compiled with FMA enabled, so `mul_add` is one instruction.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
fn p_c_avx2_fma(tgt_pos: Vec3, com: Vec3, m: f64, q: &Sym3, eps2: f64) -> (f64, Vec3) {
    p_c_inline(tgt_pos, com, m, q, eps2)
}

/// The body of [`p_c`], inlined into the two instantiations above.
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

/// `1/√r2` for `r2 ≥ 0`, with no divide and no square root: within one ulp
/// on `[2⁻¹⁰⁰⁰, 2¹⁰⁰⁰]`, and finite (not infinite) at `r2 = 0`, so a mask
/// factor of zero still zeroes a coincident pair.
///
/// The seed halves the exponent bits and subtracts them from a constant
/// (a few percent off everywhere), and each step `y ← y·(1 + e/2 + 3e²/8)`
/// with `e = 1 − r2·y²` cubes the relative error; three steps reach the
/// last bit. Every operation is an IEEE `f64` multiply or fused
/// multiply-add, so the bits are those of every instantiation.
#[inline(always)]
fn rsqrt(r2: f64) -> f64 {
    let mut y = f64::from_bits(0x5fe6_eb50_c7b5_37a9 - (r2.to_bits() >> 1));
    for _ in 0..3 {
        let e = (-r2 * y).mul_add(y, 1.0);
        y = (y * e).mul_add(e.mul_add(0.375, 0.5), y);
    }
    y
}

/// The masked particle–particle term every p-p kernel shares:
/// `(m/|r|, m/|r|³)` for separation `(dx, dy, dz)`, exactly zero for a
/// coincident pair. Branchless — the self/coincident guard is a mask factor
/// of zero instead of a skip — so a loop over it vectorises.
#[inline(always)]
fn p_p_masked(dx: f64, dy: f64, dz: f64, m: f64, eps2: f64) -> (f64, f64) {
    let dr2 = dx * dx + dy * dy + dz * dz;
    // Branchless self/coincident mask: exactly zero distance → 0 weight.
    let mask = if dr2 > 0.0 { 1.0 } else { 0.0 };
    let rinv = mask * rsqrt(dr2 + eps2);
    let rinv2 = rinv * rinv;
    let mrinv = m * rinv;
    (mrinv, mrinv * rinv2)
}

/// Batched particle-particle kernel: accumulate the forces of a contiguous
/// SoA batch of sources on one target, in source order.
///
/// This is the per-target definition direct summation ([`crate::direct`])
/// reproduces: lane `l` of `p_p_lanes` computes exactly this sum for target
/// `l`. Same bits from every instantiation.
pub fn p_p_batch(
    tgt_pos: Vec3,
    src_x: &[f64],
    src_y: &[f64],
    src_z: &[f64],
    src_m: &[f64],
    eps2: f64,
) -> (f64, Vec3) {
    match Isa::detect() {
        Isa::Plain => p_p_batch_inline(tgt_pos, src_x, src_y, src_z, src_m, eps2),
        // SAFETY: `p_p_batch_avx2_fma` requires only that the CPU supports
        // AVX2 and FMA, and both variants exist only where `Isa::detect` saw
        // `is_x86_feature_detected!` report both on this machine.
        #[cfg(target_arch = "x86_64")]
        Isa::Avx2Fma | Isa::Avx512 => unsafe {
            p_p_batch_avx2_fma(tgt_pos, src_x, src_y, src_z, src_m, eps2)
        },
    }
}

/// [`p_p_batch_inline`] compiled with FMA enabled.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
fn p_p_batch_avx2_fma(
    tgt_pos: Vec3,
    src_x: &[f64],
    src_y: &[f64],
    src_z: &[f64],
    src_m: &[f64],
    eps2: f64,
) -> (f64, Vec3) {
    p_p_batch_inline(tgt_pos, src_x, src_y, src_z, src_m, eps2)
}

/// The body of [`p_p_batch`].
#[inline(always)]
fn p_p_batch_inline(
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
/// [`p_p_lanes`], [`p_p_lanes32`] and [`p_c_lanes32`] are a whole number of
/// blocks long.
///
/// Sixteen on every instruction set: in `f64` each broadcast source then
/// feeds two independent 512-bit (or four 256-bit) chains through `rsqrt`'s
/// multiply-adds, and in `f32` one 512-bit vector (or two 256-bit ones) —
/// a loop over lanes without whole blocks vectorised at 8 lanes with scalar
/// tails and ran slower than `f64`.
pub(crate) const LANES: usize = 16;

/// One block of `f64` lane values.
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

/// Lane-parallel particle–particle kernel in `f64`, direct summation's: add
/// the forces of the sources `(src_pos, src_mass)` to every target lane.
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

/// `1/√r2` in `f32` for `r2 ≥ 0`: [`rsqrt`]'s seed-and-correct scheme at
/// single precision. The integer seed is a few percent off everywhere and
/// each third-order correction cubes the relative error, so two of them
/// reach the last bit over the normal `f32` range. Every operation is an
/// IEEE `f32` multiply or fused multiply-add — never the hardware estimate
/// (`vrsqrt14ps`, `vrsqrtps`), whose bits differ between instruction sets —
/// so the bits are those of every instantiation. Finite at `r2 = 0`.
#[inline(always)]
pub(crate) fn rsqrt32(r2: f32) -> f32 {
    let mut y = f32::from_bits(0x5f37_5a86 - (r2.to_bits() >> 1));
    for _ in 0..2 {
        let e = (-r2 * y).mul_add(y, 1.0);
        y = (y * e).mul_add(e.mul_add(0.375, 0.5), y);
    }
    y
}

/// The separation `s − t` of one source from a block of target lanes, per
/// component: taken in `f64`, then rounded once to `f32`. Everything after
/// it is `f32` arithmetic.
#[inline(always)]
fn separation(s: Vec3, tx: &Block, ty: &Block, tz: &Block) -> [Block32; 3] {
    [
        std::array::from_fn(|l| (s.x - tx[l]) as f32),
        std::array::from_fn(|l| (s.y - ty[l]) as f32),
        std::array::from_fn(|l| (s.z - tz[l]) as f32),
    ]
}

/// One source particle's p-p term added to a lane's partial sums
/// `(φ, ax, ay, az)`, in `f32` from the rounded separation `d`: `r²` and the
/// accumulation fused, the coincident pair masked to exactly zero as in
/// [`p_p_masked`].
#[inline(always)]
pub(crate) fn p_p_add32([dx, dy, dz]: [f32; 3], m: f32, eps2: f32, [phi, ax, ay, az]: [f32; 4]) -> [f32; 4] {
    let dr2 = dx.mul_add(dx, dy.mul_add(dy, dz * dz));
    let mask = if dr2 > 0.0 { 1.0 } else { 0.0 };
    let rinv = mask * rsqrt32(dr2 + eps2);
    let mrinv = m * rinv;
    let mrinv3 = mrinv * (rinv * rinv);
    [phi - mrinv, dx.mul_add(mrinv3, ax), dy.mul_add(mrinv3, ay), dz.mul_add(mrinv3, az)]
}

/// A cell's multipoles rounded once to `f32` for [`p_c_lanes32`]: the mass,
/// the six quadrupole entries, and the two multiples of the trace that the
/// brackets of the header's formulas use.
pub(crate) struct Cell32 {
    m: f32,
    q: [f32; 6],
    half_tr: f32,
    minus_three_half_tr: f32,
}

impl Cell32 {
    /// Round a cell of mass `m` and un-detraced quadrupole `q`.
    #[inline(always)]
    pub(crate) fn new(m: f64, q: &Sym3) -> Cell32 {
        let tr = q.trace();
        Cell32 {
            m: m as f32,
            q: q.m.map(|v| v as f32),
            half_tr: (0.5 * tr) as f32,
            minus_three_half_tr: (-1.5 * tr) as f32,
        }
    }
}

/// One cell's p-c term added to a lane's sums `(φ, ax, ay, az)`, in `f32`
/// from the rounded separation `d`: [`p_c`]'s expression tree, with `1/√r²`
/// from [`rsqrt32`] and the accumulation fused.
#[inline(always)]
pub(crate) fn p_c_add32([dx, dy, dz]: [f32; 3], c: &Cell32, eps2: f32, [phi, ax, ay, az]: [f32; 4]) -> [f32; 4] {
    let r2 = dx.mul_add(dx, dy.mul_add(dy, dz.mul_add(dz, eps2)));
    let rinv = rsqrt32(r2);
    let rinv2 = rinv * rinv;
    let rinv3 = rinv * rinv2;
    let rinv5 = rinv3 * rinv2;

    let [qxx, qxy, qxz, qyy, qyz, qzz] = c.q;
    let qx = qxz.mul_add(dz, qxy.mul_add(dy, qxx * dx));
    let qy = qyz.mul_add(dz, qyy.mul_add(dy, qxy * dx));
    let qz = qzz.mul_add(dz, qyz.mul_add(dy, qxz * dx));
    let rqr = dz.mul_add(qz, dy.mul_add(qy, dx * qx));

    let bphi = (-1.5 * rqr).mul_add(rinv2, c.half_tr).mul_add(rinv2, -c.m);
    let k = rinv3 * (7.5 * rqr).mul_add(rinv2, c.minus_three_half_tr).mul_add(rinv2, c.m);
    let kq = 3.0 * rinv5;
    [
        rinv.mul_add(bphi, phi),
        (-qx).mul_add(kq, dx.mul_add(k, ax)),
        (-qy).mul_add(kq, dy.mul_add(k, ay)),
        (-qz).mul_add(kq, dz.mul_add(k, az)),
    ]
}

/// One block of `f32` lane values.
type Block32 = [f32; LANES];

/// Mutably borrow block `b` of an `f32` lane array.
#[inline(always)]
fn block32_mut(lanes: &mut [f32], b: usize) -> &mut Block32 {
    (&mut lanes[b * LANES..(b + 1) * LANES]).try_into().expect("a whole lane block")
}

/// The walk's particle–particle kernel: add the forces of the sources
/// `(src_pos, src_mass)` (one leaf) to every target lane, in `f32`.
///
/// Same lane layout as [`p_p_lanes`], with `f32` accumulators. Per lane and
/// per source, the separation is taken in `f64` and rounded once
/// ([`separation`]), the mass is rounded once, and [`p_p_add32`] adds the
/// term to a partial sum started from zero; the leaf's partial is then added
/// to the accumulator.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
pub(crate) fn p_p_lanes32(
    tx: &[f64],
    ty: &[f64],
    tz: &[f64],
    src_pos: &[Vec3],
    src_mass: &[f64],
    eps2: f32,
    phi: &mut [f32],
    ax: &mut [f32],
    ay: &mut [f32],
    az: &mut [f32],
) {
    debug_assert_eq!(src_pos.len(), src_mass.len());
    debug_assert_eq!(tx.len() % LANES, 0);
    for b in 0..tx.len() / LANES {
        // One block at a time, so the partial sums of all its lanes stay in
        // registers across the whole leaf.
        let (tx, ty, tz) = (block(tx, b), block(ty, b), block(tz, b));
        let [mut dphi, mut dax, mut day, mut daz] = [[0.0f32; LANES]; 4];
        for (&s, &m) in src_pos.iter().zip(src_mass) {
            let m = m as f32;
            let [dx, dy, dz] = separation(s, tx, ty, tz);
            for l in 0..LANES {
                let sums = [dphi[l], dax[l], day[l], daz[l]];
                [dphi[l], dax[l], day[l], daz[l]] = p_p_add32([dx[l], dy[l], dz[l]], m, eps2, sums);
            }
        }
        let (phi, ax) = (block32_mut(phi, b), block32_mut(ax, b));
        let (ay, az) = (block32_mut(ay, b), block32_mut(az, b));
        for l in 0..LANES {
            phi[l] += dphi[l];
            ax[l] += dax[l];
            ay[l] += day[l];
            az[l] += daz[l];
        }
    }
}

/// The walk's particle–cell kernel: add one cell's contribution to every
/// target lane, in `f32` (same lane layout as [`p_p_lanes32`]). The cell is
/// rounded once ([`Cell32::new`]); each lane takes its separation in `f64`,
/// rounds it once, and evaluates [`p_c_add32`].
#[inline(always)]
#[allow(clippy::too_many_arguments)]
pub(crate) fn p_c_lanes32(
    tx: &[f64],
    ty: &[f64],
    tz: &[f64],
    com: Vec3,
    m: f64,
    q: &Sym3,
    eps2: f32,
    phi: &mut [f32],
    ax: &mut [f32],
    ay: &mut [f32],
    az: &mut [f32],
) {
    debug_assert_eq!(tx.len() % LANES, 0);
    let cell = Cell32::new(m, q);
    for b in 0..tx.len() / LANES {
        let [dx, dy, dz] = separation(com, block(tx, b), block(ty, b), block(tz, b));
        let (phi, ax) = (block32_mut(phi, b), block32_mut(ax, b));
        let (ay, az) = (block32_mut(ay, b), block32_mut(az, b));
        for l in 0..LANES {
            let sums = [phi[l], ax[l], ay[l], az[l]];
            [phi[l], ax[l], ay[l], az[l]] = p_c_add32([dx[l], dy[l], dz[l]], &cell, eps2, sums);
        }
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
    fn isa_pick_needs_every_feature_of_its_instantiation() {
        // All sixteen combinations of (avx2, fma, avx512f, avx512vl).
        for bits in 0..16u32 {
            let [avx2, fma, avx512f, avx512vl] = [0, 1, 2, 3].map(|b| bits & (1 << b) != 0);
            let want = if !(avx2 && fma) {
                Isa::Plain
            } else if !(avx512f && avx512vl) {
                Isa::Avx2Fma
            } else {
                Isa::Avx512
            };
            assert_eq!(Isa::pick(avx2, fma, avx512f, avx512vl), want, "{bits:04b}");
        }
    }

    #[test]
    fn rsqrt_is_within_one_ulp() {
        // Ulps of `rsqrt(r2)` from the double-double value of 1/√r2.
        let ulps = |r2: f64| {
            let want = Dd(r2, 0.0).recip_sqrt();
            let got = rsqrt(r2);
            // The power of two at or below `want.0`, times 2⁻⁵²: its ulp.
            let ulp = f64::from_bits(want.0.to_bits() >> 52 << 52) * f64::EPSILON;
            ((got - want.0) - want.1).abs() / ulp
        };
        let mut rng = bonsai_util::rng::Xoshiro256::seed_from(1412);
        let mut worst = ulps(f64::MIN_POSITIVE).max(ulps(f64::MAX));
        for _ in 0..200_000 {
            worst = worst.max(ulps(rng.uniform_in(-1000.0, 1000.0).exp2()));
        }
        assert!(worst <= 1.0, "worst error {worst} ulp");
        // Finite at zero, so the coincident mask's zero factor gives zero.
        assert!(rsqrt(0.0).is_finite());
        assert_eq!(0.0 * rsqrt(0.0), 0.0);
    }

    #[test]
    fn rsqrt32_is_within_one_ulp_over_the_normal_range() {
        // Ulps of `rsqrt32(r2)` from 1/√r2 in `f64`, which is exact far
        // below an `f32` ulp.
        let ulps = |r2: f32| {
            let want = 1.0 / f64::from(r2).sqrt();
            // The power of two at or below `want`, times 2⁻²³: its `f32` ulp.
            let ulp = f64::from_bits(want.to_bits() >> 52 << 52) * f64::from(f32::EPSILON);
            (f64::from(rsqrt32(r2)) - want).abs() / ulp
        };
        let mut rng = bonsai_util::rng::Xoshiro256::seed_from(1412);
        let mut worst = ulps(f32::MIN_POSITIVE).max(ulps(f32::MAX));
        for _ in 0..200_000 {
            worst = worst.max(ulps(rng.uniform_in(-126.0, 127.0).exp2() as f32));
        }
        assert!(worst <= 1.0, "worst error {worst} ulp");
        // Finite at zero, so the coincident mask's zero factor gives zero.
        assert!(rsqrt32(0.0).is_finite());
        assert_eq!(0.0 * rsqrt32(0.0), 0.0);
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

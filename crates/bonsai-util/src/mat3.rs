//! Symmetric 3×3 matrices.
//!
//! The Barnes–Hut quadrupole moment of a cell is a symmetric 3×3 matrix
//! `Q = Σ mⱼ (rⱼ − r̄)(rⱼ − r̄)ᵀ` (the paper's Eq. 1–2 use this un-detraced
//! form together with explicit `tr(Q)` terms). We store the six independent
//! components in the order `[xx, xy, xz, yy, yz, zz]`.

use crate::vec3::Vec3;
use std::ops::{Add, AddAssign, Mul, Sub};

/// A symmetric 3×3 matrix with components `[xx, xy, xz, yy, yz, zz]`.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Sym3 {
    /// The six independent components.
    pub m: [f64; 6],
}

impl Sym3 {
    /// The zero matrix.
    #[inline(always)]
    pub const fn zero() -> Self {
        Self { m: [0.0; 6] }
    }

    /// The identity matrix.
    #[inline(always)]
    pub const fn identity() -> Self {
        Self { m: [1.0, 0.0, 0.0, 1.0, 0.0, 1.0] }
    }

    /// Outer product `w · v vᵀ` (symmetric by construction).
    #[inline(always)]
    pub fn outer(v: Vec3, w: f64) -> Self {
        Self {
            m: [
                w * v.x * v.x,
                w * v.x * v.y,
                w * v.x * v.z,
                w * v.y * v.y,
                w * v.y * v.z,
                w * v.z * v.z,
            ],
        }
    }

    /// `xx` component.
    #[inline(always)]
    pub fn xx(&self) -> f64 {
        self.m[0]
    }
    /// `xy` component.
    #[inline(always)]
    pub fn xy(&self) -> f64 {
        self.m[1]
    }
    /// `xz` component.
    #[inline(always)]
    pub fn xz(&self) -> f64 {
        self.m[2]
    }
    /// `yy` component.
    #[inline(always)]
    pub fn yy(&self) -> f64 {
        self.m[3]
    }
    /// `yz` component.
    #[inline(always)]
    pub fn yz(&self) -> f64 {
        self.m[4]
    }
    /// `zz` component.
    #[inline(always)]
    pub fn zz(&self) -> f64 {
        self.m[5]
    }

    /// Trace `xx + yy + zz`.
    #[inline(always)]
    pub fn trace(&self) -> f64 {
        self.m[0] + self.m[3] + self.m[5]
    }

    /// Matrix–vector product `Q·v`.
    #[inline(always)]
    pub fn mul_vec(&self, v: Vec3) -> Vec3 {
        Vec3::new(
            self.m[0] * v.x + self.m[1] * v.y + self.m[2] * v.z,
            self.m[1] * v.x + self.m[3] * v.y + self.m[4] * v.z,
            self.m[2] * v.x + self.m[4] * v.y + self.m[5] * v.z,
        )
    }

    /// Quadratic form `vᵀ Q v`.
    #[inline(always)]
    pub fn quad_form(&self, v: Vec3) -> f64 {
        v.dot(self.mul_vec(v))
    }

    /// Frobenius norm (treating the matrix as dense symmetric).
    pub fn frobenius(&self) -> f64 {
        let d = self.m[0] * self.m[0] + self.m[3] * self.m[3] + self.m[5] * self.m[5];
        let o = self.m[1] * self.m[1] + self.m[2] * self.m[2] + self.m[4] * self.m[4];
        (d + 2.0 * o).sqrt()
    }

    /// Detraced (traceless) version: `Q − tr(Q)/3 · I`.
    pub fn detraced(&self) -> Self {
        let t = self.trace() / 3.0;
        let mut m = self.m;
        m[0] -= t;
        m[3] -= t;
        m[5] -= t;
        Self { m }
    }

    /// `true` if every component is finite.
    pub fn is_finite(&self) -> bool {
        self.m.iter().all(|x| x.is_finite())
    }
}

impl Add for Sym3 {
    type Output = Self;
    #[inline(always)]
    fn add(self, o: Self) -> Self {
        let mut m = self.m;
        for (a, b) in m.iter_mut().zip(o.m) {
            *a += b;
        }
        Self { m }
    }
}

impl AddAssign for Sym3 {
    #[inline(always)]
    fn add_assign(&mut self, o: Self) {
        for i in 0..6 {
            self.m[i] += o.m[i];
        }
    }
}

impl Sub for Sym3 {
    type Output = Self;
    #[inline(always)]
    fn sub(self, o: Self) -> Self {
        let mut m = self.m;
        for (a, b) in m.iter_mut().zip(o.m) {
            *a -= b;
        }
        Self { m }
    }
}

impl Mul<f64> for Sym3 {
    type Output = Self;
    #[inline(always)]
    fn mul(self, s: f64) -> Self {
        let mut m = self.m;
        for v in &mut m {
            *v *= s;
        }
        Self { m }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outer_product_matches_definition() {
        let v = Vec3::new(1.0, 2.0, 3.0);
        let q = Sym3::outer(v, 2.0);
        assert_eq!(q.xx(), 2.0);
        assert_eq!(q.xy(), 4.0);
        assert_eq!(q.xz(), 6.0);
        assert_eq!(q.yy(), 8.0);
        assert_eq!(q.yz(), 12.0);
        assert_eq!(q.zz(), 18.0);
        assert_eq!(q.trace(), 2.0 * v.norm2());
    }

    #[test]
    fn mul_vec_vs_quadratic_form() {
        let v = Vec3::new(0.3, -1.1, 2.2);
        let q = Sym3::outer(Vec3::new(1.0, 2.0, -1.0), 1.5) + Sym3::identity() * 0.2;
        // For Q = w·u uᵀ + c·I: vᵀQv = w (u·v)² + c v·v
        let u = Vec3::new(1.0, 2.0, -1.0);
        let expect = 1.5 * u.dot(v) * u.dot(v) + 0.2 * v.norm2();
        assert!((q.quad_form(v) - expect).abs() < 1e-12);
    }

    #[test]
    fn detraced_is_traceless() {
        let q = Sym3::outer(Vec3::new(3.0, -2.0, 0.5), 4.0);
        assert!(q.detraced().trace().abs() < 1e-12);
    }

    #[test]
    fn identity_acts_as_identity() {
        let v = Vec3::new(5.0, -7.0, 11.0);
        assert_eq!(Sym3::identity().mul_vec(v), v);
        assert_eq!(Sym3::identity().trace(), 3.0);
    }

    #[test]
    fn arithmetic() {
        let a = Sym3::outer(Vec3::new(1.0, 0.0, 0.0), 1.0);
        let b = Sym3::outer(Vec3::new(0.0, 1.0, 0.0), 1.0);
        let s = a + b;
        assert_eq!(s.trace(), 2.0);
        assert_eq!((s - b), a);
        assert_eq!((a * 3.0).xx(), 3.0);
    }

    #[test]
    fn frobenius_norm() {
        assert!((Sym3::identity().frobenius() - 3f64.sqrt()).abs() < 1e-15);
    }
}

//! 3-component double-precision vector.
//!
//! The tree-code stores particle state in structure-of-arrays form, but all
//! point-wise arithmetic goes through [`Vec3`]. The type is `Copy`, 24 bytes,
//! and deliberately has no SIMD intrinsics: the hot kernels operate on slices
//! and rely on auto-vectorization (see `bonsai-tree::kernels`).

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, DivAssign, Index, IndexMut, Mul, MulAssign, Neg, Sub, SubAssign};

/// A 3-vector of `f64` components.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Vec3 {
    /// x component.
    pub x: f64,
    /// y component.
    pub y: f64,
    /// z component.
    pub z: f64,
}

/// The zero vector.
pub const ZERO: Vec3 = Vec3 { x: 0.0, y: 0.0, z: 0.0 };

impl Vec3 {
    /// Create a vector from components.
    #[inline(always)]
    pub const fn new(x: f64, y: f64, z: f64) -> Self {
        Self { x, y, z }
    }

    /// The zero vector.
    #[inline(always)]
    pub const fn zero() -> Self {
        ZERO
    }

    /// All components set to `v`.
    #[inline(always)]
    pub const fn splat(v: f64) -> Self {
        Self::new(v, v, v)
    }

    /// Build from a `[f64; 3]` array.
    #[inline(always)]
    pub const fn from_array(a: [f64; 3]) -> Self {
        Self::new(a[0], a[1], a[2])
    }

    /// Convert to a `[f64; 3]` array.
    #[inline(always)]
    pub const fn to_array(self) -> [f64; 3] {
        [self.x, self.y, self.z]
    }

    /// Dot product.
    #[inline(always)]
    pub fn dot(self, o: Self) -> f64 {
        self.x * o.x + self.y * o.y + self.z * o.z
    }

    /// Cross product.
    #[inline(always)]
    pub fn cross(self, o: Self) -> Self {
        Self::new(
            self.y * o.z - self.z * o.y,
            self.z * o.x - self.x * o.z,
            self.x * o.y - self.y * o.x,
        )
    }

    /// Squared Euclidean norm.
    #[inline(always)]
    pub fn norm2(self) -> f64 {
        self.dot(self)
    }

    /// Euclidean norm.
    #[inline(always)]
    pub fn norm(self) -> f64 {
        self.norm2().sqrt()
    }

    /// Component-wise minimum.
    #[inline(always)]
    pub fn min(self, o: Self) -> Self {
        Self::new(self.x.min(o.x), self.y.min(o.y), self.z.min(o.z))
    }

    /// Component-wise maximum.
    #[inline(always)]
    pub fn max(self, o: Self) -> Self {
        Self::new(self.x.max(o.x), self.y.max(o.y), self.z.max(o.z))
    }

    /// Component-wise absolute value.
    #[inline(always)]
    pub fn abs(self) -> Self {
        Self::new(self.x.abs(), self.y.abs(), self.z.abs())
    }

    /// Largest component.
    #[inline(always)]
    pub fn max_component(self) -> f64 {
        self.x.max(self.y).max(self.z)
    }

    /// Euclidean distance to another point.
    #[inline(always)]
    pub fn distance(self, o: Self) -> f64 {
        (self - o).norm()
    }

    /// Squared Euclidean distance to another point.
    #[inline(always)]
    pub fn distance2(self, o: Self) -> f64 {
        (self - o).norm2()
    }

    /// `true` if every component is finite.
    #[inline]
    pub fn is_finite(self) -> bool {
        self.x.is_finite() && self.y.is_finite() && self.z.is_finite()
    }

    /// Cylindrical radius `sqrt(x² + y²)` (galactic-disk convention: the disk
    /// lies in the x–y plane).
    #[inline(always)]
    pub fn cyl_radius(self) -> f64 {
        self.x.hypot(self.y)
    }

    /// Azimuthal angle in the x–y plane, in `(-π, π]`.
    #[inline(always)]
    pub fn azimuth(self) -> f64 {
        self.y.atan2(self.x)
    }
}

impl Add for Vec3 {
    type Output = Self;
    #[inline(always)]
    fn add(self, o: Self) -> Self {
        Self::new(self.x + o.x, self.y + o.y, self.z + o.z)
    }
}

impl AddAssign for Vec3 {
    #[inline(always)]
    fn add_assign(&mut self, o: Self) {
        *self = *self + o;
    }
}

impl Sub for Vec3 {
    type Output = Self;
    #[inline(always)]
    fn sub(self, o: Self) -> Self {
        Self::new(self.x - o.x, self.y - o.y, self.z - o.z)
    }
}

impl SubAssign for Vec3 {
    #[inline(always)]
    fn sub_assign(&mut self, o: Self) {
        *self = *self - o;
    }
}

impl Mul<f64> for Vec3 {
    type Output = Self;
    #[inline(always)]
    fn mul(self, s: f64) -> Self {
        Self::new(self.x * s, self.y * s, self.z * s)
    }
}

impl Mul<Vec3> for f64 {
    type Output = Vec3;
    #[inline(always)]
    fn mul(self, v: Vec3) -> Vec3 {
        v * self
    }
}

impl MulAssign<f64> for Vec3 {
    #[inline(always)]
    fn mul_assign(&mut self, s: f64) {
        *self = *self * s;
    }
}

impl Div<f64> for Vec3 {
    type Output = Self;
    #[inline(always)]
    fn div(self, s: f64) -> Self {
        Self::new(self.x / s, self.y / s, self.z / s)
    }
}

impl DivAssign<f64> for Vec3 {
    #[inline(always)]
    fn div_assign(&mut self, s: f64) {
        *self = *self / s;
    }
}

impl Neg for Vec3 {
    type Output = Self;
    #[inline(always)]
    fn neg(self) -> Self {
        Self::new(-self.x, -self.y, -self.z)
    }
}

impl Index<usize> for Vec3 {
    type Output = f64;
    #[inline(always)]
    fn index(&self, i: usize) -> &f64 {
        match i {
            0 => &self.x,
            1 => &self.y,
            2 => &self.z,
            _ => panic!("Vec3 index out of range: {i}"),
        }
    }
}

impl IndexMut<usize> for Vec3 {
    #[inline(always)]
    fn index_mut(&mut self, i: usize) -> &mut f64 {
        match i {
            0 => &mut self.x,
            1 => &mut self.y,
            2 => &mut self.z,
            _ => panic!("Vec3 index out of range: {i}"),
        }
    }
}

impl Sum for Vec3 {
    fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
        iter.fold(ZERO, Add::add)
    }
}

impl fmt::Display for Vec3 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({:.6e}, {:.6e}, {:.6e})", self.x, self.y, self.z)
    }
}

impl From<[f64; 3]> for Vec3 {
    fn from(a: [f64; 3]) -> Self {
        Self::from_array(a)
    }
}

impl From<Vec3> for [f64; 3] {
    fn from(v: Vec3) -> Self {
        v.to_array()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_identities() {
        let a = Vec3::new(1.0, -2.0, 3.0);
        let b = Vec3::new(0.5, 4.0, -1.5);
        assert_eq!(a + b - b, a);
        assert_eq!(a * 2.0 / 2.0, a);
        assert_eq!(-(-a), a);
        assert_eq!(a + Vec3::zero(), a);
    }

    #[test]
    fn dot_and_cross() {
        let x = Vec3::new(1.0, 0.0, 0.0);
        let y = Vec3::new(0.0, 1.0, 0.0);
        let z = Vec3::new(0.0, 0.0, 1.0);
        assert_eq!(x.cross(y), z);
        assert_eq!(y.cross(z), x);
        assert_eq!(z.cross(x), y);
        assert_eq!(x.dot(y), 0.0);
        // cross product is orthogonal to both operands
        let a = Vec3::new(1.2, 3.4, -0.7);
        let b = Vec3::new(-2.0, 0.3, 9.1);
        let c = a.cross(b);
        assert!(c.dot(a).abs() < 1e-12);
        assert!(c.dot(b).abs() < 1e-12);
    }

    #[test]
    fn norms() {
        let v = Vec3::new(3.0, 4.0, 12.0);
        assert_eq!(v.norm2(), 169.0);
        assert_eq!(v.norm(), 13.0);
    }

    #[test]
    fn component_ops() {
        let a = Vec3::new(1.0, 5.0, -3.0);
        let b = Vec3::new(2.0, -1.0, 0.0);
        assert_eq!(a.min(b), Vec3::new(1.0, -1.0, -3.0));
        assert_eq!(a.max(b), Vec3::new(2.0, 5.0, 0.0));
        assert_eq!(a.abs(), Vec3::new(1.0, 5.0, 3.0));
        assert_eq!(a.max_component(), 5.0);
    }

    #[test]
    fn indexing() {
        let mut v = Vec3::new(1.0, 2.0, 3.0);
        assert_eq!(v[0], 1.0);
        assert_eq!(v[1], 2.0);
        assert_eq!(v[2], 3.0);
        v[1] = 9.0;
        assert_eq!(v.y, 9.0);
    }

    #[test]
    #[should_panic]
    fn index_out_of_range_panics() {
        let v = Vec3::zero();
        let _ = v[3];
    }

    #[test]
    fn cylindrical_helpers() {
        let v = Vec3::new(3.0, 4.0, 7.0);
        assert!((v.cyl_radius() - 5.0).abs() < 1e-15);
        let e = Vec3::new(0.0, 2.0, 0.0);
        assert!((e.azimuth() - std::f64::consts::FRAC_PI_2).abs() < 1e-15);
    }

    #[test]
    fn sum_iterator() {
        let vs = [Vec3::new(1.0, 0.0, 0.0), Vec3::new(0.0, 2.0, 0.0), Vec3::new(0.0, 0.0, 3.0)];
        let s: Vec3 = vs.iter().copied().sum();
        assert_eq!(s, Vec3::new(1.0, 2.0, 3.0));
    }

    #[test]
    fn array_round_trip() {
        let v = Vec3::new(0.1, 0.2, 0.3);
        let a: [f64; 3] = v.into();
        assert_eq!(Vec3::from(a), v);
    }
}

//! Axis-aligned bounding boxes and cubic tree cells.
//!
//! Two geometric queries drive the whole parallel tree-code:
//!
//! 1. point-to-box minimum distance — used by the group-based multipole
//!    acceptance criterion (MAC) during the tree walk, and
//! 2. box-to-box minimum distance — used when building a Local Essential Tree
//!    for a *remote domain*: a local cell must be opened if **any** point of
//!    the remote domain could open it, i.e. if the minimum distance from the
//!    cell to the remote domain geometry fails the MAC.

use crate::vec3::Vec3;

/// An axis-aligned bounding box given by inclusive min/max corners.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Aabb {
    /// Minimum corner.
    pub min: Vec3,
    /// Maximum corner.
    pub max: Vec3,
}

impl Aabb {
    /// An "empty" box that absorbs any point on the first [`Aabb::grow`].
    pub fn empty() -> Self {
        Self {
            min: Vec3::splat(f64::INFINITY),
            max: Vec3::splat(f64::NEG_INFINITY),
        }
    }

    /// Box from explicit corners. Panics in debug builds if inverted.
    pub fn new(min: Vec3, max: Vec3) -> Self {
        debug_assert!(min.x <= max.x && min.y <= max.y && min.z <= max.z, "inverted AABB");
        Self { min, max }
    }

    /// Cube centred at `center` with half-side `half`.
    pub fn cube(center: Vec3, half: f64) -> Self {
        Self {
            min: center - Vec3::splat(half),
            max: center + Vec3::splat(half),
        }
    }

    /// Smallest box containing a set of points. Returns [`Aabb::empty`] for an
    /// empty slice.
    pub fn from_points(points: &[Vec3]) -> Self {
        let mut b = Self::empty();
        for &p in points {
            b.grow(p);
        }
        b
    }

    /// `true` if the box contains no points (min > max on some axis).
    pub fn is_empty(&self) -> bool {
        self.min.x > self.max.x || self.min.y > self.max.y || self.min.z > self.max.z
    }

    /// Extend to include point `p`.
    #[inline]
    pub fn grow(&mut self, p: Vec3) {
        self.min = self.min.min(p);
        self.max = self.max.max(p);
    }

    /// Extend to include another box.
    #[inline]
    pub fn merge(&mut self, o: &Aabb) {
        self.min = self.min.min(o.min);
        self.max = self.max.max(o.max);
    }

    /// Geometric centre.
    #[inline]
    pub fn center(&self) -> Vec3 {
        (self.min + self.max) * 0.5
    }

    /// Per-axis extent.
    #[inline]
    pub fn size(&self) -> Vec3 {
        self.max - self.min
    }

    /// Length of the longest axis.
    #[inline]
    pub fn longest_side(&self) -> f64 {
        self.size().max_component()
    }

    /// Full-diagonal length.
    #[inline]
    pub fn diagonal(&self) -> f64 {
        self.size().norm()
    }

    /// `true` if the point lies inside or on the boundary.
    #[inline]
    pub fn contains(&self, p: Vec3) -> bool {
        p.x >= self.min.x
            && p.x <= self.max.x
            && p.y >= self.min.y
            && p.y <= self.max.y
            && p.z >= self.min.z
            && p.z <= self.max.z
    }

    /// `true` if `o` lies fully inside `self`.
    pub fn contains_box(&self, o: &Aabb) -> bool {
        self.contains(o.min) && self.contains(o.max)
    }

    /// Squared minimum distance from a point to the box (0 inside).
    #[inline]
    pub fn min_dist2_point(&self, p: Vec3) -> f64 {
        let dx = (self.min.x - p.x).max(0.0).max(p.x - self.max.x);
        let dy = (self.min.y - p.y).max(0.0).max(p.y - self.max.y);
        let dz = (self.min.z - p.z).max(0.0).max(p.z - self.max.z);
        dx * dx + dy * dy + dz * dz
    }

    /// Squared minimum distance between two boxes (0 if they overlap).
    #[inline]
    pub fn min_dist2_box(&self, o: &Aabb) -> f64 {
        let dx = (self.min.x - o.max.x).max(0.0).max(o.min.x - self.max.x);
        let dy = (self.min.y - o.max.y).max(0.0).max(o.min.y - self.max.y);
        let dz = (self.min.z - o.max.z).max(0.0).max(o.min.z - self.max.z);
        dx * dx + dy * dy + dz * dz
    }

    /// Expand symmetrically by `pad` on every side.
    pub fn padded(&self, pad: f64) -> Self {
        Self {
            min: self.min - Vec3::splat(pad),
            max: self.max + Vec3::splat(pad),
        }
    }

    /// The smallest *cube* that contains this box, centred on the box centre.
    ///
    /// The global tree root must be a cube so that octant subdivision maps
    /// exactly onto space-filling-curve key prefixes.
    pub fn bounding_cube(&self) -> Aabb {
        let half = 0.5 * self.longest_side();
        // Tiny padding keeps max-corner particles strictly inside so key
        // quantization never produces an out-of-range coordinate.
        Aabb::cube(self.center(), half * (1.0 + 1e-12) + f64::MIN_POSITIVE)
    }

    /// One of the 8 octants of a cubic cell. `idx` bit 0 → x-high, bit 1 →
    /// y-high, bit 2 → z-high.
    pub fn octant(&self, idx: u8) -> Aabb {
        debug_assert!(idx < 8);
        let c = self.center();
        let mut min = self.min;
        let mut max = c;
        if idx & 1 != 0 {
            min.x = c.x;
            max.x = self.max.x;
        }
        if idx & 2 != 0 {
            min.y = c.y;
            max.y = self.max.y;
        }
        if idx & 4 != 0 {
            min.z = c.z;
            max.z = self.max.z;
        }
        Aabb { min, max }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grow_and_contains() {
        let mut b = Aabb::empty();
        assert!(b.is_empty());
        b.grow(Vec3::new(1.0, 2.0, 3.0));
        b.grow(Vec3::new(-1.0, 0.0, 5.0));
        assert!(!b.is_empty());
        assert!(b.contains(Vec3::new(0.0, 1.0, 4.0)));
        assert!(!b.contains(Vec3::new(0.0, 1.0, 5.1)));
        assert_eq!(b.min, Vec3::new(-1.0, 0.0, 3.0));
        assert_eq!(b.max, Vec3::new(1.0, 2.0, 5.0));
    }

    #[test]
    fn point_distance() {
        let b = Aabb::new(Vec3::zero(), Vec3::splat(1.0));
        // inside
        assert_eq!(b.min_dist2_point(Vec3::splat(0.5)), 0.0);
        // face
        assert!((b.min_dist2_point(Vec3::new(2.0, 0.5, 0.5)) - 1.0).abs() < 1e-15);
        // corner
        assert!((b.min_dist2_point(Vec3::splat(2.0)) - 3.0).abs() < 1e-15);
    }

    #[test]
    fn box_distance() {
        let a = Aabb::new(Vec3::zero(), Vec3::splat(1.0));
        let b = Aabb::new(Vec3::splat(2.0), Vec3::splat(3.0));
        assert!((a.min_dist2_box(&b) - 3.0).abs() < 1e-15);
        assert!((b.min_dist2_box(&a) - 3.0).abs() < 1e-15);
        let c = Aabb::new(Vec3::splat(0.5), Vec3::splat(1.5));
        assert_eq!(a.min_dist2_box(&c), 0.0);
    }

    #[test]
    fn octants_partition_cube() {
        let cell = Aabb::cube(Vec3::new(1.0, 2.0, 3.0), 2.0);
        let mut vol = 0.0;
        for i in 0..8u8 {
            let o = cell.octant(i);
            let s = o.size();
            vol += s.x * s.y * s.z;
            assert!(cell.contains_box(&o));
        }
        let s = cell.size();
        assert!((vol - s.x * s.y * s.z).abs() < 1e-9);
    }

    #[test]
    fn octant_index_convention() {
        let cell = Aabb::cube(Vec3::zero(), 1.0);
        let o7 = cell.octant(7);
        assert_eq!(o7.min, Vec3::zero());
        assert_eq!(o7.max, Vec3::splat(1.0));
        let o0 = cell.octant(0);
        assert_eq!(o0.min, Vec3::splat(-1.0));
        assert_eq!(o0.max, Vec3::zero());
    }

    #[test]
    fn bounding_cube_contains_box() {
        let b = Aabb::new(Vec3::new(-3.0, 1.0, 0.0), Vec3::new(5.0, 2.0, 0.5));
        let c = b.bounding_cube();
        assert!(c.contains_box(&b));
        let s = c.size();
        assert!((s.x - s.y).abs() < 1e-9 && (s.y - s.z).abs() < 1e-9);
    }

    #[test]
    fn from_points_and_merge() {
        let pts = [Vec3::new(0.0, 0.0, 0.0), Vec3::new(1.0, -1.0, 2.0)];
        let b = Aabb::from_points(&pts);
        assert_eq!(b.min, Vec3::new(0.0, -1.0, 0.0));
        let mut m = b;
        m.merge(&Aabb::cube(Vec3::splat(10.0), 1.0));
        assert!(m.contains(Vec3::splat(10.5)));
        assert!(m.contains(Vec3::zero()));
    }

    #[test]
    fn padded_expands() {
        let b = Aabb::cube(Vec3::zero(), 1.0).padded(0.5);
        assert_eq!(b.min, Vec3::splat(-1.5));
        assert_eq!(b.max, Vec3::splat(1.5));
    }
}

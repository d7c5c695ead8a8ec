//! Mapping physical coordinates to SFC keys and back.
//!
//! The paper (§III-B1): each GPU computes a local bounding box, the CPUs
//! reduce these to a *global* bounding box, and its geometry maps particle
//! coordinates to global PH keys. [`KeyMap`] captures exactly that geometry:
//! a root cube plus the chosen curve.

use crate::{hilbert, morton, DIM_BITS, DIM_CELLS, MAX_LEVEL};
use bonsai_util::{Aabb, Vec3};

/// Which space-filling curve orders the lattice.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Curve {
    /// Morton / Z-order: cheap, poorer locality.
    Morton,
    /// Peano–Hilbert: unit-step locality, the production choice.
    Hilbert,
}

/// Quantizer from a cubic root volume to 63-bit keys.
#[derive(Clone, Debug)]
pub struct KeyMap {
    root: Aabb,
    cell: f64,
    inv_cell: f64,
    curve: Curve,
}

impl KeyMap {
    /// Build from the global bounding box of all particles. The box is
    /// expanded to its bounding cube so octants map to key prefixes.
    pub fn new(global_bounds: &Aabb, curve: Curve) -> Self {
        assert!(!global_bounds.is_empty(), "empty global bounds");
        let root = global_bounds.bounding_cube();
        let side = root.size().x;
        let cell = side / DIM_CELLS as f64;
        Self {
            root,
            cell,
            inv_cell: DIM_CELLS as f64 / side,
            curve,
        }
    }

    /// The cubic root volume.
    pub fn root(&self) -> &Aabb {
        &self.root
    }

    /// The curve in use.
    pub fn curve(&self) -> Curve {
        self.curve
    }

    /// Side length of one lattice cell.
    pub fn cell_size(&self) -> f64 {
        self.cell
    }

    /// Quantize a position to lattice coordinates, clamped to the lattice.
    #[inline]
    pub fn coords_of(&self, p: Vec3) -> [u32; 3] {
        let q = (p - self.root.min) * self.inv_cell;
        let clamp = |v: f64| -> u32 {
            if v <= 0.0 {
                0
            } else if v >= (DIM_CELLS - 1) as f64 {
                DIM_CELLS - 1
            } else {
                v as u32
            }
        };
        [clamp(q.x), clamp(q.y), clamp(q.z)]
    }

    /// Key of a position under the configured curve.
    #[inline]
    pub fn key_of(&self, p: Vec3) -> u64 {
        let c = self.coords_of(p);
        match self.curve {
            Curve::Morton => morton::encode(c),
            Curve::Hilbert => hilbert::encode(c),
        }
    }

    /// Keys for a slice of positions.
    pub fn keys_of(&self, ps: &[Vec3]) -> Vec<u64> {
        ps.iter().map(|&p| self.key_of(p)).collect()
    }

    /// Centre of the lattice cell with the given coordinates.
    #[inline]
    pub fn cell_center(&self, c: [u32; 3]) -> Vec3 {
        self.root.min
            + Vec3::new(
                (c[0] as f64 + 0.5) * self.cell,
                (c[1] as f64 + 0.5) * self.cell,
                (c[2] as f64 + 0.5) * self.cell,
            )
    }

    /// Decode a key back to its lattice cell centre.
    pub fn point_of_key(&self, key: u64) -> Vec3 {
        let c = match self.curve {
            Curve::Morton => morton::decode(key),
            Curve::Hilbert => hilbert::decode(key),
        };
        self.cell_center(c)
    }

    /// Geometric AABB of the level-`level` octree cell that contains `key`.
    ///
    /// Level 0 is the root cube; each level halves the side. Works for both
    /// curves because a 3·level-bit key prefix always stays inside a single
    /// geometric octant at that level, so only those `level` digits are
    /// decoded.
    pub fn cell_aabb(&self, key: u64, level: u32) -> Aabb {
        assert!(level <= MAX_LEVEL);
        let shift = DIM_BITS - level;
        let lo = match self.curve {
            Curve::Morton => morton::decode(key >> (3 * shift) << (3 * shift)),
            Curve::Hilbert => hilbert::cell_corner(key, level),
        };
        let cells = 1u64 << shift;
        // Both corners are computed from integer lattice coordinates through
        // the same monotone map, so cells at finer levels nest *exactly*
        // inside their parents despite floating-point rounding.
        let corner = |v: [u64; 3]| -> Vec3 {
            self.root.min
                + Vec3::new(
                    v[0] as f64 * self.cell,
                    v[1] as f64 * self.cell,
                    v[2] as f64 * self.cell,
                )
        };
        let min = corner([lo[0] as u64, lo[1] as u64, lo[2] as u64]);
        let max = corner([lo[0] as u64 + cells, lo[1] as u64 + cells, lo[2] as u64 + cells]);
        Aabb::new(min, max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit_map(curve: Curve) -> KeyMap {
        KeyMap::new(&Aabb::new(Vec3::zero(), Vec3::splat(1.0)), curve)
    }

    #[test]
    fn quantization_round_trip_is_within_one_cell() {
        for curve in [Curve::Morton, Curve::Hilbert] {
            let km = unit_map(curve);
            let pts = [
                Vec3::new(0.1, 0.2, 0.3),
                Vec3::new(0.999, 0.001, 0.5),
                Vec3::splat(0.5),
            ];
            for &p in &pts {
                let k = km.key_of(p);
                let q = km.point_of_key(k);
                assert!((p - q).abs().max_component() <= km.cell_size(), "curve {curve:?}: {p} -> {q}");
            }
        }
    }

    #[test]
    fn clamping_keeps_out_of_range_points_on_lattice() {
        let km = unit_map(Curve::Hilbert);
        let k = km.key_of(Vec3::splat(10.0)); // far outside
        assert!(k < crate::KEY_END);
        let k = km.key_of(Vec3::splat(-10.0));
        assert!(k < crate::KEY_END);
    }

    #[test]
    fn keys_preserve_coincidence() {
        let km = unit_map(Curve::Hilbert);
        let p = Vec3::new(0.25, 0.75, 0.5);
        assert_eq!(km.key_of(p), km.key_of(p));
    }

    #[test]
    fn cell_aabb_nests() {
        for curve in [Curve::Morton, Curve::Hilbert] {
            let km = unit_map(curve);
            let p = Vec3::new(0.3, 0.6, 0.9);
            let key = km.key_of(p);
            let mut prev = km.cell_aabb(key, 0);
            assert!(prev.contains(p));
            for level in 1..=10 {
                let cur = km.cell_aabb(key, level);
                assert!(prev.contains_box(&cur), "level {level} not nested ({curve:?})");
                assert!(cur.contains(p), "level {level} lost the point ({curve:?})");
                assert!((cur.size().x - prev.size().x / 2.0).abs() < 1e-12);
                prev = cur;
            }
        }
    }

    #[test]
    fn cell_aabb_is_the_skilling_decoded_cell_at_every_level() {
        let km = unit_map(Curve::Hilbert);
        let mut rng = bonsai_util::rng::Xoshiro256::seed_from(21);
        for _ in 0..500 {
            let key = rng.next_u64() >> 1;
            let c = crate::hilbert::skilling::decode(key, DIM_BITS);
            for level in 0..=MAX_LEVEL {
                let side = 1u64 << (DIM_BITS - level);
                let lo = c.map(|v| v as u64 / side * side);
                let corner = |d: u64| {
                    let v = lo.map(|l| (l + d) as f64 * km.cell_size());
                    km.root().min + Vec3::new(v[0], v[1], v[2])
                };
                let want = Aabb::new(corner(0), corner(side));
                let got = km.cell_aabb(key, level);
                assert_eq!((got.min, got.max), (want.min, want.max), "{key:#x} at level {level}");
            }
        }
    }

    #[test]
    fn root_cell_is_root_cube() {
        let km = unit_map(Curve::Hilbert);
        let b = km.cell_aabb(12345, 0);
        assert_eq!(b.min, km.root().min);
        assert!((b.size().x - km.root().size().x).abs() < 1e-12);
    }

    #[test]
    fn nearby_points_share_key_prefix_under_hilbert() {
        let km = unit_map(Curve::Hilbert);
        // Two points in the same level-8 cell must share the 24-bit prefix.
        let p = Vec3::new(0.123, 0.456, 0.789);
        let eps = km.cell_size() * 0.25;
        let q = p + Vec3::splat(eps);
        let (kp, kq) = (km.key_of(p), km.key_of(q));
        // They are at most one lattice cell apart, so prefixes at a coarse
        // level usually agree; just assert both decode near each other.
        let dp = km.point_of_key(kp).distance(km.point_of_key(kq));
        assert!(dp <= 2.0 * km.cell_size() * 3f64.sqrt());
    }
}

//! The multipole acceptance criterion (MAC).
//!
//! The paper parameterizes acceptance by an opening angle θ (§I, citing \[9\]):
//! a cell of side `l` at distance `d` from the target may be used as a single
//! particle-cell interaction when
//!
//! ```text
//! d  >  l/θ + s
//! ```
//!
//! where `s = |com − geometric cell centre|` guards against cells whose mass
//! is concentrated far from their geometric centre (Barnes' "offset" MAC, the
//! variant Bonsai implements). Distances are measured from the target
//! *group's* tight bounding box to the cell's centre of mass, which makes the
//! test conservative for every particle in the group — the same trick the GPU
//! code uses so one warp shares one interaction list.
//!
//! θ → 0 degenerates to direct summation (everything opens); the paper's
//! production value is θ = 0.4, and the cost grows like θ⁻³ (§IV).

use crate::node::Node;
use bonsai_util::{Aabb, Vec3};

/// Precomputed opening criterion for a walk at fixed θ.
#[derive(Clone, Copy, Debug)]
pub struct OpeningCriterion {
    inv_theta: f64,
}

impl OpeningCriterion {
    /// Criterion for opening angle `theta`. `theta <= 0` means "always open"
    /// (degenerate direct summation).
    pub fn new(theta: f64) -> Self {
        Self {
            inv_theta: if theta > 0.0 { 1.0 / theta } else { f64::INFINITY },
        }
    }

    /// The squared radius around a cell's centre of mass within which a
    /// target opens the cell, given its centre of mass and its octree cell
    /// (centre, half side), wherever they are read from: `(l/θ + s)²`.
    /// `None` at θ ≤ 0, where every cell opens. The walk and the LET
    /// builder both decide through this one function, so a LET is cut
    /// exactly where its receiver's walk stops.
    #[inline(always)]
    pub fn opening_radius2(&self, com: Vec3, geo_center: Vec3, geo_half: f64) -> Option<f64> {
        if !self.inv_theta.is_finite() {
            return None;
        }
        let crit = 2.0 * geo_half * self.inv_theta + (com - geo_center).norm();
        Some(crit * crit)
    }

    /// `true` if the cell must be **opened** (descended into) for any target
    /// inside `target_box`.
    #[inline(always)]
    pub fn must_open(&self, target_box: &Aabb, node: &Node) -> bool {
        self.must_open_cell(target_box, node.com, node.geo_center, node.geo_half)
    }

    /// [`must_open`](Self::must_open) for a cell given by its fields, as
    /// [`opening_radius2`](Self::opening_radius2) takes them.
    #[inline(always)]
    pub fn must_open_cell(&self, target_box: &Aabb, com: Vec3, geo_center: Vec3, geo_half: f64) -> bool {
        (self.opening_radius2(com, geo_center, geo_half)).is_none_or(|r2| target_box.min_dist2_point(com) <= r2)
    }

    /// Point-target variant (used by accuracy sweeps on single particles).
    #[inline(always)]
    pub fn must_open_point(&self, target: Vec3, node: &Node) -> bool {
        (self.opening_radius2(node.com, node.geo_center, node.geo_half))
            .is_none_or(|r2| node.com.distance2(target) <= r2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::NodeKind;
    use bonsai_util::{Sym3, Vec3};

    fn cell_at(center: Vec3, half: f64, com: Vec3) -> Node {
        Node {
            com,
            mass: 1.0,
            quad: Sym3::zero(),
            bbox: Aabb::cube(center, half),
            geo_center: center,
            geo_half: half,
            first: 0,
            count: 0,
            kind: NodeKind::Internal,
            level: 1,
        }
    }

    #[test]
    fn far_cells_are_accepted() {
        let mac = OpeningCriterion::new(0.5);
        let node = cell_at(Vec3::zero(), 0.5, Vec3::zero());
        // crit = 1/0.5 = 2; a target 10 away must accept.
        let tgt = Aabb::cube(Vec3::new(10.0, 0.0, 0.0), 0.1);
        assert!(!mac.must_open(&tgt, &node));
    }

    #[test]
    fn near_cells_must_open() {
        let mac = OpeningCriterion::new(0.5);
        let node = cell_at(Vec3::zero(), 0.5, Vec3::zero());
        let tgt = Aabb::cube(Vec3::new(1.5, 0.0, 0.0), 0.1);
        assert!(mac.must_open(&tgt, &node));
    }

    #[test]
    fn smaller_theta_opens_more() {
        let node = cell_at(Vec3::zero(), 0.5, Vec3::zero());
        let tgt = Aabb::cube(Vec3::new(3.0, 0.0, 0.0), 0.1);
        // θ=0.8: crit = 1.25 → accept. θ=0.2: crit = 5 → open.
        assert!(!OpeningCriterion::new(0.8).must_open(&tgt, &node));
        assert!(OpeningCriterion::new(0.2).must_open(&tgt, &node));
    }

    #[test]
    fn com_offset_makes_test_stricter() {
        let centered = cell_at(Vec3::zero(), 0.5, Vec3::zero());
        let offset = cell_at(Vec3::zero(), 0.5, Vec3::new(0.45, 0.0, 0.0));
        let tgt = Aabb::cube(Vec3::new(2.4, 0.0, 0.0), 0.01);
        let mac = OpeningCriterion::new(0.5);
        // Same geometric cell: the offset-COM one must be opened although the
        // centred one is accepted (distance measured to COM: 2.39 vs crit
        // 2.0 for centred, 1.94 vs crit 2.45 for offset).
        assert!(!mac.must_open(&tgt, &centered));
        assert!(mac.must_open(&tgt, &offset));
    }

    #[test]
    fn zero_theta_always_opens() {
        let mac = OpeningCriterion::new(0.0);
        let node = cell_at(Vec3::zero(), 0.1, Vec3::zero());
        let tgt = Aabb::cube(Vec3::splat(1e9), 0.1);
        assert!(mac.must_open(&tgt, &node));
    }

    #[test]
    fn group_test_is_conservative_for_members() {
        // If the group box accepts, every point in the box accepts.
        let mac = OpeningCriterion::new(0.7);
        let node = cell_at(Vec3::zero(), 0.5, Vec3::new(0.1, -0.2, 0.0));
        let tgt = Aabb::new(Vec3::new(2.0, 1.0, -1.0), Vec3::new(4.0, 3.0, 1.0));
        if !mac.must_open(&tgt, &node) {
            for &p in &[tgt.min, tgt.max, tgt.center(), Vec3::new(2.0, 3.0, 1.0)] {
                assert!(!mac.must_open_point(p, &node));
            }
        } else {
            // The nearest corner must also open it.
            assert!(mac.must_open_point(Vec3::new(2.0, 1.0, -1.0), &node));
        }
    }
}

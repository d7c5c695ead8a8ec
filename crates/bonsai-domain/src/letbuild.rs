//! LET construction and the boundary-sufficiency check (§III-B2).
//!
//! To compute forces on a remote domain's particles, that domain needs, from
//! us, every local cell it might open plus the particles of every local leaf
//! it might reach — its *Local Essential Tree*. Whether the receiver opens a
//! cell is decided by the multipole acceptance criterion against the
//! receiver's particle geometry, which we know conservatively from its
//! boundary tree ([`crate::lettree::LetTree::frontier_boxes`]): if no point
//! of the remote geometry can open a cell, the cell travels as a pruned
//! `Cut` node.
//!
//! The *sufficiency check* mirrors the paper's first step: if the
//! already-broadcast boundary tree would never be opened past its frontier by
//! the remote domain, no dedicated LET need be sent at all — only the ~40
//! nearest neighbours require one. It reads only two boundary trees, which
//! every rank holds bit-identically after the allgather, so sender and
//! receiver reach the same decision without a message about it.

use crate::lettree::{LetTree, Role};
use bonsai_tree::build::Tree;
use bonsai_tree::mac::OpeningCriterion;
use bonsai_tree::node::{Node, NodeKind};
use bonsai_util::Aabb;

/// `true` if any point of `geom` would open `node` under `mac` (the
/// group-MAC of the walk, taken over a whole domain's geometry).
#[inline]
pub fn geometry_opens(node: &Node, geom: &[Aabb], mac: &OpeningCriterion) -> bool {
    (mac.opening_radius2(node.com, node.geo_center, node.geo_half))
        .is_none_or(|r2| geom.iter().any(|b| b.min_dist2_point(node.com) <= r2))
}

/// The smallest box holding every box of `geom` (empty for none): what
/// [`build_let`] and the sufficiency check test a node against before
/// they scan the boxes.
pub fn hull_of(geom: &[Aabb]) -> Aabb {
    let mut hull = Aabb::empty();
    for b in geom {
        hull.merge(b);
    }
    hull
}

/// [`geometry_opens`], decided first against `hull`, the [`hull_of`]
/// `geom`: a node whose opening sphere misses the hull is not opened
/// without the per-box scan. That is exact, not an approximation: the
/// hull's corners are exact minima and maxima of the boxes' corners, and
/// rounding is monotone, so the hull's `min_dist2_point` is never larger
/// than any box's.
#[inline]
fn hull_geometry_opens(node: &Node, geom: &[Aabb], hull: &Aabb, mac: &OpeningCriterion) -> bool {
    (mac.opening_radius2(node.com, node.geo_center, node.geo_half)).is_none_or(|r2| {
        hull.min_dist2_point(node.com) <= r2 && geom.iter().any(|b| b.min_dist2_point(node.com) <= r2)
    })
}

/// What the pruning traversal does with a node.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Action {
    /// Keep as multipole-only `Cut` node; do not descend.
    Cut,
    /// Descend (internal) or ship particles (leaf).
    Open,
}

/// Generic pruned-copy extraction: BFS over the local tree, applying
/// `decide` to every visited node — once per node of the result, in the
/// result's order. Children of kept internal nodes stay contiguous, so the
/// result is directly walkable.
pub fn extract_pruned<F>(tree: &Tree, decide: F) -> LetTree
where
    F: FnMut(usize, &Node) -> Action,
{
    let mut out = LetTree::default();
    extract_pruned_into(tree, decide, &mut out);
    out
}

/// [`extract_pruned`] into `out`, as [`build_let_into`] builds.
fn extract_pruned_into<F>(tree: &Tree, mut decide: F, out: &mut LetTree)
where
    F: FnMut(usize, &Node) -> Action,
{
    out.nodes.clear();
    out.pos.clear();
    out.mass.clear();
    out.role = Role::Let;
    if tree.is_empty() {
        return;
    }
    // `out.nodes` is its own BFS queue: slot `slot` is visited after every
    // slot before it, and `source[slot]` is its local node index.
    let mut source: Vec<u32> = vec![0];
    out.nodes.push(tree.nodes[0]);
    let mut slot = 0;
    while slot < out.nodes.len() {
        let local_idx = source[slot] as usize;
        let node = tree.nodes[local_idx];
        match (decide(local_idx, &node), node.kind) {
            (Action::Cut, _) => {
                let n = &mut out.nodes[slot];
                n.kind = NodeKind::Cut;
                n.first = 0;
                n.count = 0;
            }
            (Action::Open, NodeKind::Leaf) => {
                let first = out.pos.len() as u32;
                let (b, e) = (node.first as usize, (node.first + node.count) as usize);
                out.pos.extend_from_slice(&tree.particles.pos[b..e]);
                out.mass.extend_from_slice(&tree.particles.mass[b..e]);
                let n = &mut out.nodes[slot];
                n.kind = NodeKind::Leaf;
                n.first = first;
                // count already equals the particle count
            }
            (Action::Open, NodeKind::Internal) => {
                let (b, e) = (node.first as usize, (node.first + node.count) as usize);
                out.nodes[slot].first = out.nodes.len() as u32;
                // count already equals the child count
                out.nodes.extend_from_slice(&tree.nodes[b..e]);
                source.extend(node.first..node.first + node.count);
            }
            (Action::Open, NodeKind::Cut) => unreachable!("local trees have no Cut nodes"),
        }
        slot += 1;
    }
}

/// Build the Local Essential Tree of `tree` for a receiver whose particle
/// geometry is (conservatively) covered by `remote_geom`, at opening angle
/// `theta`.
///
/// Decides each node as [`geometry_opens`] does, but first against the hull
/// of `remote_geom`: a node whose opening sphere misses the hull is `Cut`
/// without the per-box scan, exactly (see [`hull_of`]).
pub fn build_let(tree: &Tree, remote_geom: &[Aabb], theta: f64) -> LetTree {
    let mut out = LetTree::default();
    build_let_into(tree, remote_geom, theta, &mut out);
    out
}

/// [`build_let`] into `out`, a [`Role::Let`] tree afterwards whatever it
/// held: its buffers are cleared and kept, so a sender that builds one LET
/// after another into the same tree allocates only when one outgrows every
/// LET before it.
pub fn build_let_into(tree: &Tree, remote_geom: &[Aabb], theta: f64, out: &mut LetTree) {
    let (mac, hull) = (OpeningCriterion::new(theta), hull_of(remote_geom));
    let decide = |_, node: &Node| {
        if hull_geometry_opens(node, remote_geom, &hull, &mac) {
            Action::Open
        } else {
            Action::Cut
        }
    };
    extract_pruned_into(tree, decide, out);
}

/// Sender-side check: can the receiver with geometry `remote_geom` compute
/// its forces from the already-broadcast `boundary` tree alone?
///
/// True iff no frontier (`Cut`) node of the boundary would be opened. (Leaf
/// nodes never occur in boundary trees; internal nodes being opened is fine —
/// their children are present.)
pub fn boundary_sufficient_for(boundary: &LetTree, remote_geom: &[Aabb], theta: f64) -> bool {
    boundary_sufficient_within(boundary, remote_geom, &hull_of(remote_geom), theta)
}

/// [`boundary_sufficient_for`] with the receiver's hull, [`hull_of`]
/// `remote_geom`, taken once by a caller that checks many boundaries
/// against one geometry: each `Cut` node is tested against the hull before
/// the per-box scan, which decides exactly as the scan alone.
pub fn boundary_sufficient_within(boundary: &LetTree, remote_geom: &[Aabb], hull: &Aabb, theta: f64) -> bool {
    let mac = OpeningCriterion::new(theta);
    (boundary.nodes.iter())
        .filter(|n| n.kind == NodeKind::Cut)
        .all(|n| !hull_geometry_opens(n, remote_geom, hull, &mac))
}

#[cfg(test)]
mod tests {
    use super::*;
    use bonsai_tree::build::TreeParams;
    use bonsai_tree::walk::{walk_tree, WalkParams};
    use bonsai_tree::Particles;
    use bonsai_util::rng::Xoshiro256;
    use bonsai_util::Vec3;

    fn blob(n: usize, center: Vec3, radius: f64, seed: u64) -> Particles {
        let mut rng = Xoshiro256::seed_from(seed);
        let mut p = Particles::with_capacity(n);
        for i in 0..n {
            let r = radius * rng.uniform().powf(1.0 / 3.0);
            p.push(center + rng.unit_sphere() * r, Vec3::zero(), 1.0 / n as f64, i as u64);
        }
        p
    }

    #[test]
    fn far_geometry_gets_tiny_let() {
        let tree = Tree::build(blob(2000, Vec3::zero(), 1.0, 1), TreeParams::default());
        let far = vec![Aabb::cube(Vec3::splat(100.0), 1.0)];
        let near = vec![Aabb::cube(Vec3::new(1.5, 0.0, 0.0), 1.0)];
        let let_far = build_let(&tree, &far, 0.5);
        let let_near = build_let(&tree, &near, 0.5);
        assert!(let_far.nodes.len() < let_near.nodes.len());
        assert!(let_far.particle_count() < let_near.particle_count());
        assert!(let_far.wire_size() < let_near.wire_size());
        // Mass is always fully represented.
        assert!((let_far.total_mass() - 1.0).abs() < 1e-12);
        assert!((let_near.total_mass() - 1.0).abs() < 1e-12);
        let_far.check_invariants().unwrap();
        let_near.check_invariants().unwrap();
    }

    #[test]
    fn let_forces_match_full_tree_forces() {
        // The defining LET property: walking the LET from the receiver's
        // geometry gives *identical* forces to walking the full local tree,
        // because every pruned node would have been accepted anyway.
        let tree = Tree::build(blob(3000, Vec3::zero(), 1.0, 2), TreeParams::default());
        let theta = 0.5;

        // Receiver geometry: a box to the side; probes inside it.
        let geom = vec![Aabb::cube(Vec3::new(3.0, 0.5, -0.2), 0.8)];
        let mut rng = Xoshiro256::seed_from(3);
        let probes: Vec<Vec3> = (0..200)
            .map(|_| {
                Vec3::new(
                    rng.uniform_in(2.2, 3.8),
                    rng.uniform_in(-0.3, 1.3),
                    rng.uniform_in(-1.0, 0.6),
                )
            })
            .collect();
        // Group per small chunk with tight boxes (all inside geom).
        let mut groups = Vec::new();
        for c in (0..probes.len()).step_by(16) {
            let end = (c + 16).min(probes.len());
            groups.push(bonsai_tree::node::Group {
                begin: c as u32,
                end: end as u32,
                bbox: Aabb::from_points(&probes[c..end]),
            });
        }
        let params = WalkParams::new(theta, 0.01);
        let (f_full, _) = walk_tree(&tree.view(), &probes, &groups, &params);

        let lt = build_let(&tree, &geom, theta);
        lt.check_invariants().unwrap();
        let (f_let, stats) = walk_tree(&lt.view(), &probes, &groups, &params);

        assert_eq!(stats.forced_cuts, 0, "LET must never be opened past its frontier");
        for i in 0..probes.len() {
            assert!(
                (f_full.acc[i] - f_let.acc[i]).norm() <= 1e-12 * f_full.acc[i].norm().max(1e-30),
                "probe {i} differs"
            );
        }
        // And the LET is a strict subset of the tree.
        assert!(lt.nodes.len() <= tree.nodes.len());
        assert!(lt.particle_count() < tree.len());
    }

    #[test]
    fn overlapping_geometry_ships_everything_needed() {
        // Receiver geometry overlapping the source: the LET degenerates to
        // (almost) the whole tree including particles.
        let tree = Tree::build(blob(500, Vec3::zero(), 1.0, 4), TreeParams::default());
        let geom = vec![Aabb::cube(Vec3::zero(), 2.0)];
        let lt = build_let(&tree, &geom, 0.5);
        assert_eq!(lt.particle_count(), tree.len());
    }

    #[test]
    fn sufficiency_check_distinguishes_near_and_far() {
        let tree = Tree::build(blob(2000, Vec3::zero(), 1.0, 5), TreeParams::default());
        let range = bonsai_sfc::KeyRange::everything();
        let boundary = crate::boundary::boundary_tree(&tree, &range);
        let far = vec![Aabb::cube(Vec3::splat(200.0), 1.0)];
        let near = vec![Aabb::cube(Vec3::new(1.2, 0.0, 0.0), 0.5)];
        assert!(boundary_sufficient_for(&boundary, &far, 0.5));
        assert!(!boundary_sufficient_for(&boundary, &near, 0.5));
    }

    #[test]
    fn zero_theta_let_ships_all_particles() {
        let tree = Tree::build(blob(300, Vec3::zero(), 1.0, 6), TreeParams::default());
        let geom = vec![Aabb::cube(Vec3::splat(50.0), 1.0)];
        let lt = build_let(&tree, &geom, 0.0);
        assert_eq!(lt.particle_count(), tree.len());
    }

    #[test]
    fn empty_tree_gives_empty_let() {
        let tree = Tree::build(Particles::new(), TreeParams::default());
        let lt = build_let(&tree, &[Aabb::cube(Vec3::zero(), 1.0)], 0.5);
        assert!(lt.is_empty());
    }
}

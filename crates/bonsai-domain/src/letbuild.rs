//! LET construction and the boundary-sufficiency check (§III-B2).
//!
//! To compute forces on a remote domain's particles, that domain needs, from
//! us, every local cell it might open plus the particles of every local leaf
//! it might reach — its *Local Essential Tree*. Whether the receiver opens a
//! cell is decided by the multipole acceptance criterion against the
//! receiver's particle geometry, which we know conservatively from its
//! boundary tree ([`crate::lettree::LetFrame::frontier_boxes`]): if no point
//! of the remote geometry can open a cell, the cell travels as a pruned
//! `Cut` node.
//!
//! A LET is born as records: the pruning traversal decides each node of the
//! local tree once, breadth first, then writes every node and particle
//! record straight into the sender's frame buffer ([`write_let`]). A
//! boundary tree is written the same way ([`crate::boundary`]).
//!
//! The *sufficiency check* mirrors the paper's first step: if the
//! already-broadcast boundary tree would never be opened past its frontier by
//! the remote domain, no dedicated LET need be sent at all — only the ~40
//! nearest neighbours require one. It reads only two boundary trees, which
//! every rank holds bit-identically after the allgather, so sender and
//! receiver reach the same decision without a message about it.

use crate::lettree::{write_frame, LetTree, Role};
use bonsai_tree::records::{encode_node, encode_particle};
use bonsai_tree::build::Tree;
use bonsai_tree::mac::OpeningCriterion;
use bonsai_tree::node::{Node, NodeKind};
use bonsai_tree::records::RecordView;
use bonsai_util::{Aabb, Vec3};

/// `true` if any point of `geom` would open `node` under `mac` (the
/// group-MAC of the walk, taken over a whole domain's geometry), box by
/// box: what [`write_let`] and the sufficiency check decide with the hull
/// of `geom` in front.
#[inline]
pub fn geometry_opens(node: &Node, geom: &[Aabb], mac: &OpeningCriterion) -> bool {
    (mac.opening_radius2(node.com, node.geo_center, node.geo_half))
        .is_none_or(|r2| geom.iter().any(|b| b.min_dist2_point(node.com) <= r2))
}

/// The smallest box holding every box of `geom` (empty for none): what
/// [`write_let`] and the sufficiency check test a node against before
/// they scan the boxes.
pub fn hull_of(geom: &[Aabb]) -> Aabb {
    let mut hull = Aabb::empty();
    for b in geom {
        hull.merge(b);
    }
    hull
}

/// [`geometry_opens`] for the cell of centre of mass `com` and octree cell
/// `(geo_center, geo_half)`, wherever they are read from (a [`Node`] or a
/// record), decided first against `hull`, the [`hull_of`] `geom`: a cell
/// whose opening sphere misses the hull is not opened without the per-box
/// scan. That is exact, not an approximation: the hull's corners are exact
/// minima and maxima of the boxes' corners, and rounding is monotone, so
/// the hull's `min_dist2_point` is never larger than any box's.
#[inline]
fn cell_opens(com: Vec3, geo_center: Vec3, geo_half: f64, geom: &[Aabb], hull: &Aabb, mac: &OpeningCriterion) -> bool {
    (mac.opening_radius2(com, geo_center, geo_half)).is_none_or(|r2| {
        hull.min_dist2_point(com) <= r2 && geom.iter().any(|b| b.min_dist2_point(com) <= r2)
    })
}

/// The one pruning writer: a breadth-first traversal of `tree` decides each
/// visited node once (`opens`, in the frame's node order: `true` descends
/// into an internal node or ships a leaf's particles, `false` keeps the node
/// as a multipole-only `Cut` node), then the frame is written into `buf` in
/// one pass, every node and particle record at its offset (see
/// [`write_frame`] for the buffer). Children of kept internal nodes stay
/// contiguous, so the frame is directly walkable. With a `frontier_box`,
/// the frame is a boundary whose `Cut` nodes carry `frontier_box(local
/// index)` as their box; without, a LET.
pub(crate) fn write_pruned(
    tree: &Tree,
    mut opens: impl FnMut(usize, &Node) -> bool,
    frontier_box: Option<&dyn Fn(usize) -> Aabb>,
    buf: Vec<u8>,
) -> Vec<u8> {
    // Slot `s` of the frame: the local node it copies, and whether it
    // opened. The list is its own BFS queue: children are appended as their
    // parent opens.
    let mut kept: Vec<(u32, bool)> = Vec::with_capacity(tree.nodes.len());
    kept.extend((!tree.is_empty()).then_some((0, true)));
    let (mut slot, mut particles) = (0, 0);
    while slot < kept.len() {
        let local = kept[slot].0;
        let node = &tree.nodes[local as usize];
        let open = opens(local as usize, node);
        kept[slot].1 = open;
        match (open, node.kind) {
            (false, _) => {}
            (true, NodeKind::Internal) => kept.extend((node.first..node.first + node.count).map(|c| (c, true))),
            (true, NodeKind::Leaf) => particles += node.count as usize,
            (true, NodeKind::Cut) => unreachable!("local trees have no Cut nodes"),
        }
        slot += 1;
    }
    let role = if frontier_box.is_some() { Role::Boundary } else { Role::Let };
    let (mut next_child, mut next_particle) = (1, 0);
    // A leaf's particles are written as its node record is: fed to the
    // frame writer as separate node and particle streams, the same records
    // took 1.5× as long to write.
    write_frame(role, (kept.len(), particles), buf, |node_recs, mut particle_recs| {
        for (&(local, open), rec) in kept.iter().zip(node_recs) {
            let mut n = tree.nodes[local as usize];
            match (open, n.kind) {
                (false, _) => {
                    (n.kind, n.first, n.count) = (NodeKind::Cut, 0, 0);
                    if let Some(frontier_box) = frontier_box {
                        n.bbox = frontier_box(local as usize);
                    }
                }
                (true, NodeKind::Leaf) => {
                    let range = n.first as usize..(n.first + n.count) as usize;
                    let (pos, mass) = (&tree.particles.pos[range.clone()], &tree.particles.mass[range]);
                    for ((&p, &m), prec) in pos.iter().zip(mass).zip(&mut particle_recs) {
                        encode_particle(p, m, prec);
                    }
                    (n.first, next_particle) = (next_particle, next_particle + n.count);
                }
                (true, _) => (n.first, next_child) = (next_child, next_child + n.count),
            }
            encode_node(&n, rec);
        }
    })
}

/// Write the Local Essential Tree of `tree` for a receiver whose particle
/// geometry is (conservatively) covered by `remote_geom`, at opening angle
/// `theta`, into the frame buffer `buf`, and return the frame. `buf` may
/// hold anything: one too small is replaced by a zeroed one of the frame's
/// size, a larger one keeps its capacity, and old bytes are never copied.
///
/// Decides each node as [`geometry_opens`] does, but first against the hull
/// of `remote_geom`: a node whose opening sphere misses the hull is `Cut`
/// without the per-box scan, exactly (the hull's corners are exact minima
/// and maxima of the boxes' corners).
pub fn write_let(tree: &Tree, remote_geom: &[Aabb], theta: f64, buf: Vec<u8>) -> Vec<u8> {
    let (mac, hull) = (OpeningCriterion::new(theta), hull_of(remote_geom));
    let opens = |_, n: &Node| cell_opens(n.com, n.geo_center, n.geo_half, remote_geom, &hull, &mac);
    write_pruned(tree, opens, None, buf)
}

/// The LET [`write_let`] writes, decoded.
pub fn build_let(tree: &Tree, remote_geom: &[Aabb], theta: f64) -> LetTree {
    LetTree::from_bytes(&write_let(tree, remote_geom, theta, Vec::new())).expect("a written LET is valid")
}

/// Sender-side check: can the receiver with geometry `remote_geom` compute
/// its forces from the already-broadcast `boundary` tree alone?
///
/// True iff no frontier (`Cut`) node of the boundary would be opened. (Leaf
/// nodes never occur in boundary trees; internal nodes being opened is fine —
/// their children are present.)
pub fn boundary_sufficient_for(boundary: &LetTree, remote_geom: &[Aabb], theta: f64) -> bool {
    let (mac, hull) = (OpeningCriterion::new(theta), hull_of(remote_geom));
    (boundary.nodes.iter().filter(|n| n.kind == NodeKind::Cut))
        .all(|n| !cell_opens(n.com, n.geo_center, n.geo_half, remote_geom, &hull, &mac))
}

/// The `Cut` cells of a boundary, decoded from its records once: each
/// one's centre of mass and octree cell, all the sufficiency check reads of
/// a `Cut` node, so that checking one boundary against every receiver
/// decodes it once, not once per receiver.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CutCells(Vec<(Vec3, Vec3, f64)>);

impl CutCells {
    /// The `Cut` cells of `boundary`, in record order.
    pub fn of(boundary: &RecordView<'_>) -> Self {
        let cuts = ((0..boundary.len()).map(|i| boundary.node(i))).filter(|n| n.kind() == Some(NodeKind::Cut));
        Self(cuts.map(|n| (n.com(), n.geo_center(), n.geo_half())).collect())
    }

    /// [`boundary_sufficient_for`] of the boundary the cells were decoded
    /// from, with the receiver's hull, [`hull_of`] `remote_geom`, taken once
    /// by a caller that checks many boundaries against one geometry.
    pub fn sufficient_within(&self, remote_geom: &[Aabb], hull: &Aabb, theta: f64) -> bool {
        let mac = OpeningCriterion::new(theta);
        (self.0.iter()).all(|&(com, geo_center, geo_half)| !cell_opens(com, geo_center, geo_half, remote_geom, hull, &mac))
    }
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

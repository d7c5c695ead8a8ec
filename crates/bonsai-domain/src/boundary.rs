//! Boundary-tree extraction (§III-B2, Fig. 2).
//!
//! "To extract these boundaries we use the local tree-structure and select
//! the cells that form the edges of the local particle set (gray squares in
//! Fig. 2). We then send a copy of our local tree in which all cells except
//! these boundary cells (and their parents) are removed. In this way, we can
//! also use this tree as a LET structure."
//!
//! Because domains are SFC key ranges, the "gray squares" are exactly the
//! minimal octree-cell covering of the rank's key range
//! ([`bonsai_sfc::KeyRange::covering_cells`]). The boundary tree is the local
//! tree pruned at those cells: covering cells become multipole-only `Cut`
//! nodes, their ancestors stay `Internal`, and nothing below the frontier —
//! in particular no particle data — is shipped. Every rank broadcasts its
//! boundary tree with one `MPI_Allgatherv`-style collective; distant ranks
//! then use it directly as their LET. It is written straight into its frame
//! by the pruning writer that writes LETs ([`write_boundary`]).
//!
//! A frontier node's `bbox` is not its own tight box but the union of the
//! tight boxes of the rank's walk groups (`Tree::groups`) that share a
//! particle with it. Peers build their LETs for this rank against these
//! boxes ([`LetFrame::frontier_boxes`](crate::LetFrame::frontier_boxes)),
//! while the rank walks with its groups, and a group may straddle two
//! frontier cells: its box can sit nearer a cell's centre of mass than
//! either cell's own box. With the grown boxes
//! every group box lies inside a frontier box, and the box distance is
//! monotone under containment, so any cell a group's MAC opens was opened
//! by the sender too: no `Cut` node is ever forced. The box is patched into
//! the frontier node's record as the record is written.

use crate::letbuild::write_pruned;
use crate::lettree::LetTree;
use bonsai_sfc::{KeyRange, DIM_BITS};
use bonsai_tree::build::Tree;
use bonsai_tree::node::{Node, NodeKind};
use bonsai_util::Aabb;
use std::collections::HashSet;

/// Mask `key` to the aligned prefix of `level`.
#[inline]
fn prefix_at(key: u64, level: u32) -> u64 {
    let shift = 3 * (DIM_BITS - level);
    if shift >= 64 {
        0
    } else {
        key >> shift << shift
    }
}

/// The particles under node `idx`, `lo..hi`. Children are pushed in
/// ascending digit order: the first child holds the lowest keys, the last
/// the highest.
fn particle_span(tree: &Tree, idx: usize) -> (usize, usize) {
    let leaf = |mut idx: usize, last: bool| loop {
        let n = &tree.nodes[idx];
        match n.kind {
            NodeKind::Leaf => return n,
            NodeKind::Internal => idx = (n.first + if last { n.count - 1 } else { 0 }) as usize,
            NodeKind::Cut => unreachable!("local trees have no Cut nodes"),
        }
    };
    let last = leaf(idx, true);
    (leaf(idx, false).first as usize, (last.first + last.count) as usize)
}

/// Union of the tight boxes of the walk groups sharing a particle with
/// node `idx`.
fn group_cover(tree: &Tree, idx: usize) -> Aabb {
    let (lo, hi) = particle_span(tree, idx);
    let groups = &tree.groups;
    let first = groups.partition_point(|g| g.end as usize <= lo);
    let end = groups.partition_point(|g| (g.begin as usize) < hi);
    let mut cover = Aabb::empty();
    for g in &groups[first..end] {
        cover.merge(&g.bbox);
    }
    cover
}

/// Write the boundary tree of `tree`, whose particles occupy the key range
/// `domain`, into a new frame.
///
/// Frontier nodes are the covering cells of `domain` — or local *leaves*
/// sitting above a covering cell, in which case the frontier is slightly
/// coarser there (still correct: frontier nodes carry exact multipoles of
/// exactly the local particles below them). Their boxes cover the walk
/// groups they touch (module docs).
pub fn write_boundary(tree: &Tree, domain: &KeyRange) -> Vec<u8> {
    let covering: HashSet<(u64, u32)> = domain.covering_cells().into_iter().collect();
    let opens = |idx, node: &Node| {
        let left_key = tree.keys[particle_span(tree, idx).0];
        let cell = (prefix_at(left_key, node.level), node.level);
        // Cut at a covering cell, or a leaf coarser than the covering cells
        // below it.
        !(covering.contains(&cell) || node.kind == NodeKind::Leaf)
    };
    write_pruned(tree, opens, Some(&|idx| group_cover(tree, idx)), Vec::new())
}

/// The boundary tree [`write_boundary`] writes, decoded.
pub fn boundary_tree(tree: &Tree, domain: &KeyRange) -> LetTree {
    LetTree::from_bytes(&write_boundary(tree, domain)).expect("a written boundary is valid")
}

#[cfg(test)]
mod tests {
    use super::*;
    use bonsai_sfc::range::find_owner;
    use bonsai_tree::build::TreeParams;
    use bonsai_tree::Particles;
    use bonsai_util::rng::Xoshiro256;
    use bonsai_util::Vec3;

    fn uniform(n: usize, seed: u64) -> Particles {
        let mut rng = Xoshiro256::seed_from(seed);
        let mut p = Particles::with_capacity(n);
        for i in 0..n {
            p.push(
                Vec3::new(rng.uniform(), rng.uniform(), rng.uniform()),
                Vec3::zero(),
                1.0,
                i as u64,
            );
        }
        p
    }

    /// Split a particle set into per-rank trees sharing one keymap.
    fn split_ranks(n: usize, ranks: usize, seed: u64) -> (Vec<Tree>, Vec<KeyRange>) {
        let all = uniform(n, seed);
        let keymap = bonsai_sfc::KeyMap::new(&all.bounds(), bonsai_sfc::Curve::Hilbert);
        let mut keys: Vec<u64> = all.pos.iter().map(|&p| keymap.key_of(p)).collect();
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        let cuts: Vec<u64> = (1..ranks).map(|i| sorted[i * n / ranks]).collect();
        let domains = bonsai_sfc::range::ranges_from_cuts(&cuts);
        let mut per_rank: Vec<Particles> = (0..ranks).map(|_| Particles::new()).collect();
        for (i, &key) in keys.iter().enumerate() {
            let r = find_owner(&domains, key);
            per_rank[r].push(all.pos[i], all.vel[i], all.mass[i], all.id[i]);
        }
        keys.clear();
        let trees: Vec<Tree> = per_rank
            .into_iter()
            .map(|p| Tree::build_with_keymap(p, keymap.clone(), TreeParams::default()))
            .collect();
        (trees, domains)
    }

    #[test]
    fn boundary_has_no_particles_and_full_mass() {
        let (trees, domains) = split_ranks(4000, 4, 1);
        for (t, d) in trees.iter().zip(&domains) {
            let b = boundary_tree(t, d);
            assert_eq!(b.particle_count(), 0, "boundary trees ship no particles");
            assert!((b.total_mass() - t.particles.total_mass()).abs() < 1e-9);
            b.check_invariants().unwrap();
        }
    }

    #[test]
    fn frontier_cells_tile_domain_mass() {
        // Sum of Cut-node masses equals total mass (each particle under
        // exactly one frontier cell).
        let (trees, domains) = split_ranks(3000, 5, 2);
        for (t, d) in trees.iter().zip(&domains) {
            let b = boundary_tree(t, d);
            let cut_mass: f64 = b
                .nodes
                .iter()
                .filter(|n| n.kind == NodeKind::Cut)
                .map(|n| n.mass)
                .sum();
            assert!(
                (cut_mass - t.particles.total_mass()).abs() < 1e-9,
                "cut mass {cut_mass} vs {}",
                t.particles.total_mass()
            );
        }
    }

    #[test]
    fn boundary_is_small() {
        let (trees, domains) = split_ranks(20_000, 8, 3);
        for (t, d) in trees.iter().zip(&domains) {
            let b = boundary_tree(t, d);
            assert!(
                b.nodes.len() * 4 < t.nodes.len(),
                "boundary {} nodes vs tree {}",
                b.nodes.len(),
                t.nodes.len()
            );
        }
    }

    #[test]
    fn single_rank_boundary_is_root_cut() {
        let all = uniform(500, 4);
        let tree = Tree::build(all, TreeParams::default());
        let b = boundary_tree(&tree, &KeyRange::everything());
        assert_eq!(b.nodes.len(), 1);
        assert_eq!(b.nodes[0].kind, NodeKind::Cut);
    }

    #[test]
    fn every_walk_group_sits_inside_a_frontier_box() {
        let (trees, domains) = split_ranks(6000, 6, 6);
        for (t, d) in trees.iter().zip(&domains) {
            let b = boundary_tree(t, d);
            b.check_invariants().unwrap();
            let boxes = b.frontier_boxes();
            for g in &t.groups {
                assert!(
                    boxes.iter().any(|bb| bb.contains_box(&g.bbox)),
                    "group {}..{} lies inside no frontier box",
                    g.begin,
                    g.end
                );
            }
        }
    }

    #[test]
    fn frontier_boxes_contain_local_particles() {
        let (trees, domains) = split_ranks(2000, 4, 5);
        for (t, d) in trees.iter().zip(&domains) {
            let b = boundary_tree(t, d);
            let boxes = b.frontier_boxes();
            for &p in &t.particles.pos {
                assert!(
                    boxes.iter().any(|bb| bb.contains(p)),
                    "particle {p} outside all frontier boxes"
                );
            }
        }
    }
}

//! Tree-structure statistics, and the walk's interaction-count metrics.
//!
//! [`tree_stats`] measures depth, occupancy and memory footprint of a built
//! tree; its tests use it as an independent cross-check on the builder and
//! on the paper's device-memory budget (13M particles in 5.4 GB depends on
//! node counts and per-node size). [`record_walk_counts`] is what the
//! cluster records per rank after each walk.

use crate::build::Tree;
use crate::forces::InteractionCounts;
use crate::node::NodeKind;
use bonsai_obs::MetricsRegistry;

/// Summary statistics of a built tree.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TreeStats {
    /// Total nodes.
    pub nodes: usize,
    /// Leaf nodes.
    pub leaves: usize,
    /// Internal nodes.
    pub internals: usize,
    /// Deepest level (root = 0).
    pub max_depth: u32,
    /// Mean leaf depth.
    pub mean_leaf_depth: f64,
    /// Mean particles per leaf.
    pub mean_leaf_occupancy: f64,
    /// Largest leaf population.
    pub max_leaf_occupancy: u32,
    /// Approximate in-memory bytes (nodes + particle arrays + keys).
    pub memory_bytes: usize,
}

/// Compute statistics for a tree.
pub fn tree_stats(tree: &Tree) -> TreeStats {
    let mut leaves = 0usize;
    let mut internals = 0usize;
    let mut max_depth = 0u32;
    let mut depth_sum = 0u64;
    let mut occ_sum = 0u64;
    let mut occ_max = 0u32;
    for n in &tree.nodes {
        max_depth = max_depth.max(n.level);
        match n.kind {
            NodeKind::Leaf => {
                leaves += 1;
                depth_sum += n.level as u64;
                occ_sum += n.count as u64;
                occ_max = occ_max.max(n.count);
            }
            NodeKind::Internal => internals += 1,
            NodeKind::Cut => {}
        }
    }
    let node_bytes = std::mem::size_of::<crate::node::Node>();
    let particle_bytes = 7 * 8 + 8; // pos+vel+mass+id
    TreeStats {
        nodes: tree.nodes.len(),
        leaves,
        internals,
        max_depth,
        mean_leaf_depth: if leaves > 0 {
            depth_sum as f64 / leaves as f64
        } else {
            0.0
        },
        mean_leaf_occupancy: if leaves > 0 {
            occ_sum as f64 / leaves as f64
        } else {
            0.0
        },
        max_leaf_occupancy: occ_max,
        memory_bytes: tree.nodes.len() * node_bytes
            + tree.len() * (particle_bytes + 8 /* key */ + 4 /* origin */),
    }
}

/// Record one rank's walk interaction counts into the unified metrics
/// registry: log-scale histograms over ranks of particle-particle and
/// particle-cell interactions per `scope` ("local" or "lets"), plus
/// machine-wide counters. These are the distributions behind Table II's
/// pp/pc-per-particle rows — the histogram spread is the load imbalance.
pub fn record_walk_counts(reg: &mut MetricsRegistry, scope: &str, counts: InteractionCounts) {
    reg.histogram_observe(
        "bonsai_walk_pp_interactions",
        &[("scope", scope)],
        counts.pp as f64,
    );
    reg.histogram_observe(
        "bonsai_walk_pc_interactions",
        &[("scope", scope)],
        counts.pc as f64,
    );
    reg.counter_add("bonsai_walk_pp_total", &[("scope", scope)], counts.pp);
    reg.counter_add("bonsai_walk_pc_total", &[("scope", scope)], counts.pc);
    reg.counter_add("bonsai_walk_flops_total", &[("scope", scope)], counts.flops());
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::TreeParams;
    use crate::particles::Particles;
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

    #[test]
    fn counts_are_consistent() {
        let tree = Tree::build(uniform(10_000, 1), TreeParams::default());
        let s = tree_stats(&tree);
        assert_eq!(s.nodes, s.leaves + s.internals);
        assert!(s.leaves > 0);
        // Leaves hold every particle exactly once.
        let leaf_total: u64 = tree
            .nodes
            .iter()
            .filter(|n| n.kind == NodeKind::Leaf)
            .map(|n| n.count as u64)
            .sum();
        assert_eq!(leaf_total, 10_000);
        assert!((s.mean_leaf_occupancy - leaf_total as f64 / s.leaves as f64).abs() < 1e-12);
    }

    #[test]
    fn depth_scales_logarithmically_for_uniform_points() {
        // Uniform points: depth ≈ log8(N / NLEAF) + O(1).
        let t1 = tree_stats(&Tree::build(uniform(1_000, 2), TreeParams::default()));
        let t2 = tree_stats(&Tree::build(uniform(64_000, 3), TreeParams::default()));
        // 64x more particles = 2 more octree levels.
        let dd = t2.mean_leaf_depth - t1.mean_leaf_depth;
        assert!((dd - 2.0).abs() < 0.7, "depth growth {dd}");
    }

    #[test]
    fn occupancy_bounded_by_nleaf() {
        let tree = Tree::build(uniform(20_000, 4), TreeParams::default());
        let s = tree_stats(&tree);
        assert!(s.max_leaf_occupancy as usize <= tree.params.nleaf);
        assert!(s.mean_leaf_occupancy > 1.0);
    }

    #[test]
    fn memory_footprint_matches_paper_budget_order() {
        // Extrapolating the per-particle footprint to 13M particles must
        // land in the K20X's 5.4 GB envelope (~100-300 B/particle).
        let tree = Tree::build(uniform(50_000, 5), TreeParams::default());
        let s = tree_stats(&tree);
        let per_particle = s.memory_bytes as f64 / tree.len() as f64;
        assert!(
            (80.0..400.0).contains(&per_particle),
            "footprint {per_particle} B/particle"
        );
    }

    #[test]
    fn empty_tree_stats() {
        let tree = Tree::build(Particles::new(), TreeParams::default());
        let s = tree_stats(&tree);
        assert_eq!(s.nodes, 0);
        assert_eq!(s.mean_leaf_occupancy, 0.0);
    }

    #[test]
    fn walk_counts_land_in_registry() {
        let mut reg = MetricsRegistry::new();
        record_walk_counts(&mut reg, "local", InteractionCounts { pp: 100, pc: 300 });
        record_walk_counts(&mut reg, "local", InteractionCounts { pp: 140, pc: 260 });
        record_walk_counts(&mut reg, "lets", InteractionCounts { pp: 50, pc: 900 });
        assert_eq!(reg.counter("bonsai_walk_pp_total", &[("scope", "local")]), 240);
        assert_eq!(reg.counter("bonsai_walk_pc_total", &[("scope", "lets")]), 900);
        // flops at the §VI-A rates: 23·pp + 65·pc
        assert_eq!(
            reg.counter("bonsai_walk_flops_total", &[("scope", "lets")]),
            23 * 50 + 65 * 900
        );
        let h = reg
            .histogram("bonsai_walk_pp_interactions", &[("scope", "local")])
            .unwrap();
        assert_eq!(h.count(), 2);
        assert_eq!(h.min(), Some(100.0));
        assert_eq!(h.max(), Some(140.0));
    }
}

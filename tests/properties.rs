//! Workspace-level property-based tests: randomized invariants that span
//! crate boundaries (SFC keys ↔ tree topology ↔ LET exchange ↔ forces).

use bonsai::domain::letbuild::{build_let, geometry_opens};
use bonsai::domain::{boundary_tree, LetTree};
use bonsai::sfc::{hilbert, morton, KeyRange};
use bonsai::tree::build::{Tree, TreeParams};
use bonsai::tree::mac::OpeningCriterion;
use bonsai::tree::node::NodeKind;
use bonsai::tree::walk::{walk_tree, WalkParams};
use bonsai::tree::Particles;
use bonsai::util::{Aabb, Vec3};
use proptest::prelude::*;

fn arb_coords() -> impl Strategy<Value = [u32; 3]> {
    [0u32..(1 << 21), 0u32..(1 << 21), 0u32..(1 << 21)]
}

fn arb_particles(max_n: usize) -> impl Strategy<Value = Particles> {
    (2..max_n, any::<u64>()).prop_map(|(n, seed)| {
        let mut rng = bonsai::util::rng::Xoshiro256::seed_from(seed);
        let mut p = Particles::with_capacity(n);
        for i in 0..n {
            // clustered: half in a tight blob, half spread out
            let scale = if i % 2 == 0 { 0.1 } else { 2.0 };
            p.push(
                rng.unit_sphere() * (scale * rng.uniform()),
                Vec3::zero(),
                rng.uniform_in(0.5, 2.0),
                i as u64,
            );
        }
        p
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn morton_round_trip(c in arb_coords()) {
        prop_assert_eq!(morton::decode(morton::encode(c)), c);
    }

    #[test]
    fn hilbert_round_trip(c in arb_coords()) {
        prop_assert_eq!(hilbert::decode(hilbert::encode(c)), c);
    }

    #[test]
    fn hilbert_and_morton_are_injective_on_pairs(a in arb_coords(), b in arb_coords()) {
        if a != b {
            prop_assert_ne!(hilbert::encode(a), hilbert::encode(b));
            prop_assert_ne!(morton::encode(a), morton::encode(b));
        }
    }

    #[test]
    fn covering_cells_tile_any_range(start in 0u64..(1u64 << 63), len in 1u64..(1u64 << 40)) {
        let end = (start + len).min(1u64 << 63);
        let r = KeyRange::new(start.min(end), end);
        let mut cursor = r.start;
        for (key, level) in r.covering_cells() {
            prop_assert_eq!(key, cursor);
            let span = 1u64 << (3 * (21 - level));
            prop_assert_eq!(key % span, 0u64);
            cursor += span;
        }
        prop_assert_eq!(cursor, r.end);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn tree_invariants_hold_for_random_clustered_sets(p in arb_particles(600)) {
        let tree = Tree::build(p, TreeParams::default());
        prop_assert!(tree.check_invariants().is_ok());
    }

    #[test]
    fn boundary_tree_mass_partition(p in arb_particles(500)) {
        let total = p.total_mass();
        let tree = Tree::build(p, TreeParams::default());
        let b = boundary_tree(&tree, &KeyRange::everything());
        prop_assert!(b.check_invariants().is_ok());
        let cut_mass: f64 = b
            .nodes
            .iter()
            .filter(|n| n.kind == NodeKind::Cut)
            .map(|n| n.mass)
            .sum();
        prop_assert!((cut_mass - total).abs() < 1e-9 * total.max(1.0));
        prop_assert_eq!(b.particle_count(), 0);
    }

    #[test]
    fn let_forces_equal_full_tree_forces(p in arb_particles(400), seed in any::<u64>()) {
        // The central LET theorem, fuzzed: for any source set and any probe
        // geometry, walking the pruned LET equals walking the full tree.
        let tree = Tree::build(p, TreeParams::default());
        let mut rng = bonsai::util::rng::Xoshiro256::seed_from(seed);
        let center = Vec3::new(
            rng.uniform_in(-4.0, 4.0),
            rng.uniform_in(-4.0, 4.0),
            rng.uniform_in(-4.0, 4.0),
        );
        let geom = vec![Aabb::cube(center, rng.uniform_in(0.2, 1.0))];
        let probes: Vec<Vec3> = (0..24)
            .map(|_| {
                Vec3::new(
                    rng.uniform_in(geom[0].min.x, geom[0].max.x),
                    rng.uniform_in(geom[0].min.y, geom[0].max.y),
                    rng.uniform_in(geom[0].min.z, geom[0].max.z),
                )
            })
            .collect();
        let groups = vec![bonsai::tree::node::Group {
            begin: 0,
            end: probes.len() as u32,
            bbox: Aabb::from_points(&probes),
        }];
        let theta = rng.uniform_in(0.3, 0.9);
        let params = WalkParams::new(theta, 0.01);
        let (full, _) = walk_tree(&tree.view(), &probes, &groups, &params);
        let lt = build_let(&tree, &geom, theta);
        let lt = LetTree::from_bytes(&lt.to_bytes()).unwrap(); // exercise codec
        let (pruned, stats) = walk_tree(&lt.view(), &probes, &groups, &params);
        prop_assert_eq!(stats.forced_cuts, 0u64);
        for i in 0..probes.len() {
            let d = (full.acc[i] - pruned.acc[i]).norm();
            prop_assert!(d <= 1e-11 * full.acc[i].norm().max(1e-30),
                "probe {} differs by {}", i, d);
        }
    }

    #[test]
    fn geometry_opens_is_monotone_in_theta(p in arb_particles(200), seed in any::<u64>()) {
        // A cell opened at large θ must also be opened at smaller θ.
        let tree = Tree::build(p, TreeParams::default());
        let mut rng = bonsai::util::rng::Xoshiro256::seed_from(seed);
        let geom = vec![Aabb::cube(
            Vec3::new(rng.uniform_in(-3.0, 3.0), 0.0, 0.0),
            rng.uniform_in(0.1, 0.5),
        )];
        for node in &tree.nodes {
            let open_loose = geometry_opens(node, &geom, &OpeningCriterion::new(0.8));
            let open_tight = geometry_opens(node, &geom, &OpeningCriterion::new(0.3));
            if open_loose {
                prop_assert!(open_tight, "monotonicity violated");
            }
        }
    }
}

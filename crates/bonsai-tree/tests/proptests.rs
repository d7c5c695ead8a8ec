//! Property-based tests for the Barnes–Hut engine: topology invariants,
//! multipole identities, walk/direct agreement, and accounting consistency.

use bonsai_sfc::Curve;
use bonsai_tree::build::{Tree, TreeParams};
use bonsai_tree::direct::direct_self_forces;
use bonsai_tree::node::NodeKind;
use bonsai_tree::walk::{self, WalkParams};
use bonsai_tree::{Node, OpeningCriterion, Particles};
use bonsai_util::rng::Xoshiro256;
use bonsai_util::{Aabb, Sym3, Vec3};
use proptest::prelude::*;

fn make_particles(n: usize, seed: u64, clustered: bool) -> Particles {
    let mut rng = Xoshiro256::seed_from(seed);
    let mut p = Particles::with_capacity(n);
    for i in 0..n {
        let pos = if clustered && i % 3 == 0 {
            rng.unit_sphere() * (0.05 * rng.uniform())
        } else {
            rng.unit_sphere() * (2.0 * rng.uniform().powf(0.33))
        };
        p.push(pos, Vec3::zero(), rng.uniform_in(0.1, 2.0), i as u64);
    }
    p
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn invariants_for_all_shapes(n in 1usize..400, seed in any::<u64>(), clustered in any::<bool>(),
                                 nleaf in 1usize..40) {
        let params = TreeParams { nleaf, curve: Curve::Hilbert, group_size: 2 * nleaf.max(4) };
        let tree = Tree::build(make_particles(n, seed, clustered), params);
        prop_assert!(tree.check_invariants().is_ok(), "{:?}", tree.check_invariants());
    }

    #[test]
    fn morton_and_hilbert_trees_carry_identical_physics(n in 2usize..300, seed in any::<u64>()) {
        // Different curves give different topologies but the same root
        // moments and, at θ=0, the same forces up to the order of the walk's
        // `f32` sums: each walk is within 64 units of 2⁻²⁴ of the exact
        // forces (`zero_theta_walk_equals_direct`), so two differ by ≤ 128.
        let p = make_particles(n, seed, true);
        let th = Tree::build(p.clone(), TreeParams { curve: Curve::Hilbert, ..Default::default() });
        let tm = Tree::build(p, TreeParams { curve: Curve::Morton, ..Default::default() });
        prop_assert!((th.nodes[0].mass - tm.nodes[0].mass).abs() < 1e-9);
        prop_assert!((th.nodes[0].com - tm.nodes[0].com).norm() < 1e-9);
        let (fh, _) = walk::self_gravity(&th, &WalkParams::new(0.0, 0.01));
        let (fm, _) = walk::self_gravity(&tm, &WalkParams::new(0.0, 0.01));
        // compare per id
        for i in 0..th.len() {
            let id = th.particles.id[i];
            let j = tm.particles.id.iter().position(|&x| x == id).unwrap();
            let bound = 128.0 * f64::from(f32::EPSILON) / 2.0;
            prop_assert!((fh.acc[i] - fm.acc[j]).norm() <= bound * fh.acc[i].norm().max(1e-20));
        }
    }

    #[test]
    fn root_quadrupole_matches_brute_force(n in 2usize..300, seed in any::<u64>()) {
        let p = make_particles(n, seed, false);
        let tree = Tree::build(p, TreeParams::default());
        let root = tree.nodes[0];
        let mut q = Sym3::zero();
        for i in 0..tree.len() {
            q += Sym3::outer(tree.particles.pos[i] - root.com, tree.particles.mass[i]);
        }
        let err = (root.quad - q).frobenius();
        prop_assert!(err <= 1e-8 * q.frobenius().max(1e-12), "quad err {}", err);
    }

    #[test]
    fn walk_error_bounded_by_mac(n in 50usize..300, seed in any::<u64>(), theta in 0.2f64..0.9) {
        let p = make_particles(n, seed, false);
        let tree = Tree::build(p, TreeParams::default());
        let (direct, _) = direct_self_forces(&tree.particles, 0.05, 1.0);
        let (forces, _) = walk::self_gravity(&tree, &WalkParams::new(theta, 0.05));
        let rms = forces.rms_rel_acc_error(&direct);
        // Empirical MAC bound with quadrupoles: rms error ≲ θ⁴ for these
        // sizes (generous factor to avoid flakes).
        prop_assert!(rms < 0.5 * theta.powi(3), "theta {}: rms {}", theta, rms);
    }

    #[test]
    fn counts_scale_with_targets(n in 100usize..250, seed in any::<u64>()) {
        // Walking the same source tree for twice the probes must produce
        // exactly twice the interactions (per-group accounting sanity).
        let p = make_particles(n, seed, false);
        let tree = Tree::build(p, TreeParams::default());
        let mut rng = Xoshiro256::seed_from(seed ^ 0xDEAD);
        let probes: Vec<Vec3> = (0..32).map(|_| rng.unit_sphere() * 3.0).collect();
        let bbox = bonsai_util::Aabb::from_points(&probes);
        let one = vec![bonsai_tree::node::Group { begin: 0, end: 32, bbox }];
        let params = WalkParams::new(0.5, 0.01);
        let (_, s1) = walk::walk_tree(&tree.view(), &probes, &one, &params);

        let mut doubled = probes.clone();
        doubled.extend_from_slice(&probes);
        let two = vec![
            bonsai_tree::node::Group { begin: 0, end: 32, bbox },
            bonsai_tree::node::Group { begin: 32, end: 64, bbox },
        ];
        let (_, s2) = walk::walk_tree(&tree.view(), &doubled, &two, &params);
        prop_assert_eq!(s2.counts.pp, 2 * s1.counts.pp);
        prop_assert_eq!(s2.counts.pc, 2 * s1.counts.pc);
    }

    #[test]
    fn potential_is_negative_and_bounded(n in 10usize..200, seed in any::<u64>()) {
        let p = make_particles(n, seed, true);
        let tree = Tree::build(p, TreeParams::default());
        let (forces, _) = walk::self_gravity(&tree, &WalkParams::new(0.4, 0.05));
        let eps = 0.05;
        for i in 0..tree.len() {
            prop_assert!(forces.pot[i] < 0.0, "potential must be negative");
            // |φ| ≤ Σ m / ε (worst case: everything at zero distance)
            let bound = tree.particles.total_mass() / eps;
            prop_assert!(forces.pot[i].abs() <= bound * (1.0 + 1e-9));
        }
    }

    #[test]
    fn mac_is_monotone_in_theta(seed in any::<u64>(), t_lo in 0.05f64..1.2, t_hi in 0.05f64..1.2) {
        // Shrinking θ grows the opening radius l/θ + s, so the set of
        // (target, cell) pairs a walk opens at θ_hi is a subset of what it
        // opens at θ_lo ≤ θ_hi: a smaller θ never opens fewer nodes.
        let (t_lo, t_hi) = if t_lo <= t_hi { (t_lo, t_hi) } else { (t_hi, t_lo) };
        let mut rng = Xoshiro256::seed_from(seed);
        for _ in 0..16 {
            let center = rng.unit_sphere() * (4.0 * rng.uniform());
            let half = rng.uniform_in(0.01, 1.5);
            // COM anywhere inside the geometric cell (offset MAC territory).
            let com = center
                + Vec3::new(
                    half * (2.0 * rng.uniform() - 1.0),
                    half * (2.0 * rng.uniform() - 1.0),
                    half * (2.0 * rng.uniform() - 1.0),
                );
            let node = Node {
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
            };
            let target = Aabb::cube(rng.unit_sphere() * (6.0 * rng.uniform()), rng.uniform_in(0.01, 2.0));
            if OpeningCriterion::new(t_hi).must_open(&target, &node) {
                prop_assert!(
                    OpeningCriterion::new(t_lo).must_open(&target, &node),
                    "θ={t_lo} accepted a cell that θ={t_hi} opened"
                );
            }
            let point = rng.unit_sphere() * (6.0 * rng.uniform());
            if OpeningCriterion::new(t_hi).must_open_point(point, &node) {
                prop_assert!(OpeningCriterion::new(t_lo).must_open_point(point, &node));
            }
            // Group acceptance must be conservative for every member point.
            if !OpeningCriterion::new(t_hi).must_open(&target, &node) {
                let inside = Vec3::new(
                    target.min.x + (target.max.x - target.min.x) * rng.uniform(),
                    target.min.y + (target.max.y - target.min.y) * rng.uniform(),
                    target.min.z + (target.max.z - target.min.z) * rng.uniform(),
                );
                prop_assert!(!OpeningCriterion::new(t_hi).must_open_point(inside, &node));
            }
        }
    }

    #[test]
    fn walk_opens_monotonically_more_as_theta_shrinks(n in 100usize..300, seed in any::<u64>()) {
        // Whole-walk corollary of the MAC monotonicity: at smaller θ the
        // walk resolves more cells, so p-p work never decreases and p-c
        // approximations never increase.
        let p = make_particles(n, seed, true);
        let tree = Tree::build(p, TreeParams::default());
        let mut prev: Option<bonsai_tree::InteractionCounts> = None;
        for theta in [0.8, 0.5, 0.3, 0.15] {
            let (_, stats) = walk::self_gravity(&tree, &WalkParams::new(theta, 0.05));
            if let Some(c) = prev {
                prop_assert!(
                    stats.counts.pp >= c.pp,
                    "θ={theta}: pp fell {} -> {}", c.pp, stats.counts.pp
                );
            }
            prev = Some(stats.counts);
        }
    }

    #[test]
    fn forces_invariant_under_particle_permutation(n in 2usize..250, seed in any::<u64>(),
                                                   theta in 0.2f64..0.9) {
        // The SFC sort canonicalizes particle order before the walk, so the
        // same point set fed in any order must give bit-identical per-id
        // forces (same tree, same groups, same summation order).
        let p = make_particles(n, seed, true);
        let mut order: Vec<usize> = (0..n).collect();
        let mut rng = Xoshiro256::seed_from(seed ^ 0x5EED);
        for i in (1..n).rev() {
            let j = (rng.next_u64() % (i as u64 + 1)) as usize;
            order.swap(i, j);
        }
        let mut q = Particles::with_capacity(n);
        for &i in &order {
            q.push(p.pos[i], p.vel[i], p.mass[i], p.id[i]);
        }
        let ta = Tree::build(p, TreeParams::default());
        let tb = Tree::build(q, TreeParams::default());
        let (fa, _) = walk::self_gravity(&ta, &WalkParams::new(theta, 0.05));
        let (fb, _) = walk::self_gravity(&tb, &WalkParams::new(theta, 0.05));
        for i in 0..n {
            let id = ta.particles.id[i];
            let j = tb.particles.id.iter().position(|&x| x == id).unwrap();
            prop_assert_eq!(fa.acc[i], fb.acc[j], "id {} acc differs under permutation", id);
            prop_assert_eq!(fa.pot[i], fb.pot[j], "id {} pot differs under permutation", id);
        }
    }

    #[test]
    fn unsort_scatter_is_inverse_of_sort(n in 1usize..300, seed in any::<u64>()) {
        let p = make_particles(n, seed, false);
        let positions_in = p.pos.clone();
        let tree = Tree::build(p, TreeParams::default());
        let restored = tree.unsort(&tree.particles.pos);
        for i in 0..n {
            prop_assert_eq!(restored[i], positions_in[i]);
        }
    }
}

//! Failure injection: the structural validators must actually catch
//! corrupted trees and particle sets — a validator that never fires is
//! worse than none.

use bonsai_ic::plummer_sphere;
use bonsai_tree::build::{Tree, TreeParams};
use bonsai_tree::node::NodeKind;
use bonsai_util::Vec3;

fn healthy_tree(n: usize, seed: u64) -> Tree {
    Tree::build(plummer_sphere(n, seed), TreeParams::default())
}

#[test]
fn healthy_tree_passes() {
    healthy_tree(500, 1).check_invariants().unwrap();
}

#[test]
fn detects_corrupted_root_mass() {
    let mut t = healthy_tree(500, 2);
    t.nodes[0].mass *= 1.5;
    assert!(t.check_invariants().is_err());
}

#[test]
fn detects_corrupted_com() {
    let mut t = healthy_tree(500, 3);
    t.nodes[0].com += Vec3::splat(10.0);
    assert!(t.check_invariants().is_err());
}

#[test]
fn detects_unsorted_keys() {
    let mut t = healthy_tree(500, 4);
    let len = t.keys.len();
    t.keys.swap(0, len - 1);
    assert!(t.check_invariants().is_err());
}

#[test]
fn detects_leaf_gap() {
    let mut t = healthy_tree(500, 5);
    // Shrink some leaf's particle range: creates a coverage gap.
    let leaf_idx = t
        .nodes
        .iter()
        .position(|n| n.kind == NodeKind::Leaf && n.count > 1)
        .unwrap();
    t.nodes[leaf_idx].count -= 1;
    assert!(t.check_invariants().is_err());
}

#[test]
fn detects_escaped_particle() {
    let mut t = healthy_tree(500, 6);
    // Move a particle out of its leaf's bounding box without rebuilding.
    t.particles.pos[0] = Vec3::splat(1e9);
    assert!(t.check_invariants().is_err());
}

#[test]
fn particle_validator_catches_all_corruption_modes() {
    let make = || plummer_sphere(50, 7);

    let mut p = make();
    p.mass[10] = -1.0;
    assert!(p.validate().is_err(), "negative mass");

    let mut p = make();
    p.mass[10] = 0.0;
    assert!(p.validate().is_err(), "zero mass");

    let mut p = make();
    p.pos[3].y = f64::INFINITY;
    assert!(p.validate().is_err(), "infinite position");

    let mut p = make();
    p.vel[3].z = f64::NAN;
    assert!(p.validate().is_err(), "NaN velocity");

    let mut p = make();
    p.id.pop();
    assert!(p.validate().is_err(), "length mismatch");

    assert!(make().validate().is_ok(), "healthy set must pass");
}

#[test]
fn group_walk_rejects_non_tiling_groups() {
    // The walk asserts that groups tile the target range — a mis-specified
    // group set must panic, not compute garbage, whatever the source.
    let t = healthy_tree(100, 8);
    let bad_groups = vec![bonsai_tree::node::Group {
        begin: 10, // gap: does not start at 0
        end: 100,
        bbox: bonsai_util::Aabb::cube(Vec3::zero(), 5.0),
    }];
    // An empty source exerts no force, but the group set is still checked.
    let empty = bonsai_tree::TreeView {
        nodes: &[],
        pos: &[],
        mass: &[],
    };
    for (what, src) in [("tree", t.view()), ("empty source", empty)] {
        let result = std::panic::catch_unwind(|| {
            bonsai_tree::walk::walk_tree(
                &src,
                &t.particles.pos,
                &bad_groups,
                &bonsai_tree::walk::WalkParams::new(0.4, 0.01),
            )
        });
        assert!(result.is_err(), "{what}: non-tiling groups must be rejected");
    }
}

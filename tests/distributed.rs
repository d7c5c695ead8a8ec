//! Cross-crate integration: the distributed stack (sfc + tree + domain +
//! net + sim) must agree with the single-process stack (tree + core) and
//! with direct summation.

use bonsai::ic::plummer_sphere;
use bonsai::sim::{Cluster, ClusterConfig};
use bonsai::tree::build::{Tree, TreeParams};
use bonsai::tree::direct::direct_self_forces;
use bonsai::tree::walk::{self, WalkParams};
use bonsai::util::Vec3;
use std::collections::HashMap;

fn reference_by_id(ic: &bonsai::tree::Particles, eps: f64) -> HashMap<u64, Vec3> {
    let (f, _) = direct_self_forces(ic, eps, 1.0);
    ic.id.iter().zip(&f.acc).map(|(&i, &a)| (i, a)).collect()
}

#[test]
fn lockstep_and_single_process_agree() {
    let n = 2500;
    let ic = plummer_sphere(n, 10);
    let eps = 0.01;
    let theta = 0.4;
    let reference = reference_by_id(&ic, eps);

    // Single process.
    let tree = Tree::build(ic.clone(), TreeParams::default());
    let (single, _) = walk::self_gravity(&tree, &WalkParams::new(theta, eps));
    let mut errs = vec![];
    for i in 0..n {
        let exact = reference[&tree.particles.id[i]];
        errs.push((single.acc[i] - exact).norm() / exact.norm().max(1e-12));
    }
    let rms_single = (errs.iter().map(|e| e * e).sum::<f64>() / n as f64).sqrt();

    // Lock-step cluster.
    let cluster = Cluster::new(ic.clone(), 5, ClusterConfig::default());
    let acc = cluster.accelerations_by_id();
    let rms_cluster = {
        let mut s = 0.0;
        for (id, a) in &acc {
            let exact = reference[id];
            let e = (*a - exact).norm() / exact.norm().max(1e-12);
            s += e * e;
        }
        (s / n as f64).sqrt()
    };

    // Both are MAC-accurate against direct summation and mutually consistent.
    assert!(rms_single < 2e-3, "single rms {rms_single}");
    assert!(rms_cluster < 2.0 * rms_single + 1e-6, "cluster rms {rms_cluster}");
}

#[test]
fn distribution_does_not_inflate_work() {
    // The essence of the paper's weak scaling: splitting the problem over
    // ranks must not multiply the evaluated interactions. Compare the total
    // flops of the distributed evaluation against a single-process tree walk
    // over the *same* particles — the distributed walk (coarser group
    // boxes near domain edges, LET frontiers) may do somewhat more work,
    // but never O(p) more.
    let n = 12_000;
    let ic = plummer_sphere(n, 20);
    let tree = Tree::build(ic.clone(), TreeParams::default());
    let (_, st_single) = walk::self_gravity(&tree, &WalkParams::new(0.4, 0.01));
    let single_flops = st_single.counts.flops() as f64;

    for p in [2usize, 4, 8] {
        let cluster = Cluster::new(ic.clone(), p, ClusterConfig::default());
        let m = &cluster.last_measurements;
        let dist_flops: f64 = m
            .counts_local
            .iter()
            .zip(&m.counts_lets)
            .map(|(&a, &b)| (a + b).flops() as f64)
            .sum();
        let ratio = dist_flops / single_flops;
        assert!(
            ratio < 2.5,
            "p = {p}: distributed work is {ratio:.2}x the single-process work"
        );
        assert!(ratio > 0.8, "p = {p}: suspiciously little work ({ratio:.2}x)");
    }
}

#[test]
fn cluster_survives_many_steps_with_migration() {
    // A rotating, collapsing system forces real particle migration between
    // ranks every step.
    let mut ic = plummer_sphere(2000, 30);
    for i in 0..ic.len() {
        // add solid-body rotation to force azimuthal motion
        let p = ic.pos[i];
        ic.vel[i] += Vec3::new(-p.y, p.x, 0.0) * 0.3;
    }
    let cfg = ClusterConfig { dt: 0.02, ..ClusterConfig::default() };
    let mut cluster = Cluster::new(ic, 6, cfg);
    let mut migrated_total = 0usize;
    for _ in 0..10 {
        cluster.step();
        migrated_total += cluster
            .last_measurements
            .exchange_bytes
            .iter()
            .sum::<usize>();
    }
    assert_eq!(cluster.total_particles(), 2000);
    assert!(migrated_total > 0, "rotation must move particles between domains");
    let mut ids = cluster.gather().id;
    ids.sort_unstable();
    assert_eq!(ids, (0..2000).collect::<Vec<u64>>());
}

#[test]
fn boundary_bytes_are_tiny_compared_to_particle_data() {
    // §III-B2: boundary exchange is "virtually independent of the number of
    // particles per GPU" — check boundaries stay small as N grows.
    let mut sizes = vec![];
    for n in [4000usize, 16000] {
        let ic = plummer_sphere(n, 40);
        let cluster = Cluster::new(ic, 4, ClusterConfig::default());
        let total: usize = cluster.last_measurements.boundary_bytes.iter().sum();
        sizes.push(total as f64);
        let particle_bytes = n * 56;
        assert!(
            (total as f64) < 0.25 * particle_bytes as f64,
            "boundaries {total} B vs particles {particle_bytes} B"
        );
    }
    // 4x more particles should grow boundaries far less than 4x.
    assert!(sizes[1] / sizes[0] < 3.0, "boundary growth {:.2}", sizes[1] / sizes[0]);
}

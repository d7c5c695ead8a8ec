//! Property-based tests for the decomposition/LET layer: partitions always
//! cover, exchanges conserve, serialization round-trips, and boundary/LET
//! structures honour their contracts for arbitrary particle sets.

use bonsai_domain::exchange::ExchangePlan;
use bonsai_domain::letbuild::{
    boundary_sufficient_for, boundary_sufficient_within, build_let, extract_pruned, geometry_opens, hull_of, Action,
};
use bonsai_domain::load::{enforce_particle_cap, populations, weighted_cuts};
use bonsai_domain::lettree::{validate, Invalid, LetTree, Role, HEADER_SIZE};
use bonsai_domain::{boundary_tree, replan, sampling};
use bonsai_sfc::range::{find_owner, ranges_from_cuts};
use bonsai_sfc::{KeyMap, KeyRange, KEY_END, MAX_LEVEL};
use bonsai_tree::build::{Tree, TreeParams};
use bonsai_tree::mac::OpeningCriterion;
use bonsai_tree::node::{Node, NodeKind};
use bonsai_tree::records::{decode_node, PARTICLE_RECORD_SIZE};
use bonsai_tree::walk::{walk_tree, WalkParams};
use bonsai_tree::{Forces, Particles};
use bonsai_util::rng::Xoshiro256;
use bonsai_util::{Aabb, Vec3};
use proptest::prelude::*;

fn blob(n: usize, seed: u64) -> Particles {
    let mut rng = Xoshiro256::seed_from(seed);
    let mut p = Particles::with_capacity(n);
    for i in 0..n {
        p.push(
            rng.unit_sphere() * (1.5 * rng.uniform().powf(0.4)),
            Vec3::zero(),
            rng.uniform_in(0.5, 1.5),
            i as u64,
        );
    }
    p
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn sampled_partitions_always_cover_key_space(
        ranks in 1usize..12, per_rank in 1usize..200, seed in any::<u64>(), s in 2usize..32
    ) {
        let mut rng = Xoshiro256::seed_from(seed);
        let data: Vec<Vec<u64>> = (0..ranks)
            .map(|_| {
                let mut ks: Vec<u64> = (0..per_rank).map(|_| rng.next_u64() >> 1).collect();
                ks.sort_unstable();
                ks
            })
            .collect();
        let (serial, _) = sampling::serial_cuts(&data, ranks, s);
        prop_assert_eq!(serial.len(), ranks);
        prop_assert_eq!(serial[0].start, 0u64);
        prop_assert_eq!(serial.last().unwrap().end, KEY_END);
        for w in serial.windows(2) {
            prop_assert_eq!(w[0].end, w[1].start);
        }
        // parallel variant with any factorization
        let px = (1..=ranks).rev().find(|px| ranks % px == 0).unwrap();
        let (parallel, _) = sampling::parallel_cuts(&data, px, ranks / px, s, s);
        prop_assert_eq!(parallel.len(), ranks);
        for w in parallel.windows(2) {
            prop_assert_eq!(w[0].end, w[1].start);
        }
    }

    #[test]
    fn cap_enforcement_never_loses_keys(
        nkeys in 1usize..500, p in 1usize..10, seed in any::<u64>(), cap in 1.05f64..2.0
    ) {
        let mut rng = Xoshiro256::seed_from(seed);
        let mut keys: Vec<u64> = (0..nkeys).map(|_| rng.next_u64() >> 1).collect();
        keys.sort_unstable();
        let sorted: Vec<(u64, f64)> = keys.iter().map(|&k| (k, rng.uniform_in(0.1, 10.0))).collect();
        let ranges = weighted_cuts(&sorted, p);
        let capped = enforce_particle_cap(&ranges, &keys, cap);
        prop_assert_eq!(capped.len(), p);
        let pops = populations(&capped, &keys);
        prop_assert_eq!(pops.iter().sum::<usize>(), nkeys);
    }

    #[test]
    fn exchange_conserves_everything(n in 1usize..300, p in 1usize..8, seed in any::<u64>()) {
        let mut particles = blob(n, seed);
        let keymap = KeyMap::new(&particles.bounds(), bonsai_sfc::Curve::Hilbert);
        let keys: Vec<u64> = particles.pos.iter().map(|&q| keymap.key_of(q)).collect();
        let mut rng = Xoshiro256::seed_from(seed ^ 1);
        let mut cuts: Vec<u64> = (0..p - 1).map(|_| rng.next_u64() >> 1).collect();
        cuts.sort_unstable();
        let domains = ranges_from_cuts(&cuts);
        let me = rng.uniform_usize(p);
        let plan = ExchangePlan::plan(me, &keys, &domains);
        let mass_before = particles.total_mass();
        let shipped = plan.apply(&mut particles);
        let total: usize = particles.len() + shipped.iter().map(Particles::len).sum::<usize>();
        prop_assert_eq!(total, n);
        let mass_after = particles.total_mass()
            + shipped.iter().map(Particles::total_mass).sum::<f64>();
        prop_assert!((mass_before - mass_after).abs() < 1e-9 * mass_before);
        prop_assert!(shipped[me].is_empty());
        // All keepers really belong to me.
        for i in 0..particles.len() {
            let k = keymap.key_of(particles.pos[i]);
            prop_assert!(domains[me].contains(k));
        }
    }

    #[test]
    fn let_serialization_round_trips(n in 2usize..300, seed in any::<u64>(), theta in 0.2f64..1.0) {
        let tree = Tree::build(blob(n, seed), TreeParams::default());
        let geom = vec![Aabb::cube(Vec3::new(3.0, 0.0, 0.0), 0.5)];
        let lt = build_let(&tree, &geom, theta);
        let bytes = lt.to_bytes();
        prop_assert_eq!(bytes.len(), lt.wire_size());
        let back = LetTree::from_bytes(&bytes).unwrap();
        prop_assert_eq!(back.nodes.len(), lt.nodes.len());
        prop_assert_eq!(back.particle_count(), lt.particle_count());
        prop_assert!(back.check_invariants().is_ok());
        prop_assert!((back.total_mass() - tree.particles.total_mass()).abs() < 1e-9);
        prop_assert_eq!(back.to_bytes(), bytes);
    }

    #[test]
    fn to_bytes_equals_a_field_by_field_encoder(
        n in 2usize..300, seed in any::<u64>(), theta in 0.2f64..1.0, boundary in any::<bool>()
    ) {
        let (sender, domain, receiver) = two_ranks(n, seed);
        let lt = if boundary {
            boundary_tree(&sender, &domain)
        } else {
            build_let(&sender, &[receiver.particles.bounds()], theta)
        };
        prop_assert_eq!(lt.role, if boundary { Role::Boundary } else { Role::Let });
        prop_assert_eq!(&lt.to_bytes()[..], &encode_by_fields(&lt)[..]);
    }

    #[test]
    fn walking_a_decoded_frame_gives_the_senders_forces(
        n in 2usize..300, seed in any::<u64>(), theta in 0.2f64..1.0, boundary in any::<bool>()
    ) {
        // What a receiver reads survives the wire bit for bit: it may
        // validate its copy of a boundary and walk the sender's tree.
        let (sender, domain, receiver) = two_ranks(n, seed);
        let lt = if boundary {
            boundary_tree(&sender, &domain)
        } else {
            build_let(&sender, &[receiver.particles.bounds()], theta)
        };
        let back = LetTree::from_bytes(&lt.to_bytes()).unwrap();
        prop_assert!(back.check_invariants().is_ok());
        let params = WalkParams::new(theta, 0.01);
        let targets = &receiver.particles.pos;
        let walk = |t: &LetTree| walk_tree(&t.view(), targets, &receiver.groups, &params);
        let ((fa, sa), (fb, sb)) = (walk(&lt), walk(&back));
        let bits = |f: &Forces| -> Vec<u64> {
            let acc = f.acc.iter().flat_map(|a| [a.x, a.y, a.z]);
            acc.chain(f.pot.iter().copied()).map(f64::to_bits).collect()
        };
        prop_assert_eq!(bits(&fa), bits(&fb));
        prop_assert_eq!(sa.counts, sb.counts);
        prop_assert_eq!(sa.nodes_visited, sb.nodes_visited);
        prop_assert_eq!(sa.forced_cuts, sb.forced_cuts);
    }

    #[test]
    fn boundary_frontier_masses_partition(n in 2usize..300, seed in any::<u64>(), pieces in 1usize..6) {
        // Split the key space arbitrarily; the boundary of each rank's tree
        // carries exactly that rank's mass on its frontier.
        let all = blob(n, seed);
        let keymap = KeyMap::new(&all.bounds(), bonsai_sfc::Curve::Hilbert);
        let mut keys: Vec<u64> = all.pos.iter().map(|&q| keymap.key_of(q)).collect();
        keys.sort_unstable();
        let cuts: Vec<u64> = (1..pieces).map(|i| keys[i * n / pieces]).collect();
        let domains = ranges_from_cuts(&cuts);
        let mut total_frontier = 0.0;
        for d in &domains {
            let mut mine = Particles::new();
            for i in 0..all.len() {
                if d.contains(keymap.key_of(all.pos[i])) {
                    mine.push(all.pos[i], all.vel[i], all.mass[i], all.id[i]);
                }
            }
            let local_mass = mine.total_mass();
            let tree = Tree::build_with_keymap(mine, keymap.clone(), TreeParams::default());
            let b = boundary_tree(&tree, d);
            let bytes = b.to_bytes();
            prop_assert_eq!(LetTree::from_bytes(&bytes).unwrap().to_bytes(), bytes);
            let frontier: f64 = b
                .nodes
                .iter()
                .filter(|x| x.kind == NodeKind::Cut)
                .map(|x| x.mass)
                .sum();
            prop_assert!((frontier - local_mass).abs() < 1e-9 * local_mass.max(1.0));
            total_frontier += frontier;
        }
        prop_assert!((total_frontier - all.total_mass()).abs() < 1e-9 * all.total_mass());
    }

    #[test]
    fn validating_in_place_gives_the_decode_then_check_verdict(
        n in 2usize..200, seed in any::<u64>(), shape in 0usize..3, edit in 0usize..8, pick in any::<u64>(),
    ) {
        // A boundary, or a LET of either reach, of a random Plummer sphere.
        let (tree, domain, receiver) = split_in_two(bonsai_ic::plummer_sphere(n, seed));
        let lt = match shape {
            0 => boundary_tree(&tree, &domain),
            1 => build_let(&tree, &[receiver.particles.bounds()], 0.4),
            _ => build_let(&tree, &[Aabb::cube(Vec3::splat(50.0), 1.0)], 0.4),
        };
        prop_assert!(!lt.is_empty());
        prop_assert_eq!(validate(&lt.to_bytes()).map(drop), Ok(()));
        let bytes = damaged(&lt, edit, pick);
        let want = decode_then_check(&bytes);
        prop_assert_eq!(validate(&bytes).map(drop), want.clone());
        prop_assert_eq!(LetTree::from_bytes(&bytes).is_some(), want.is_ok());
    }

    #[test]
    fn from_bytes_never_panics_on_garbage(bytes in proptest::collection::vec(any::<u8>(), 0..4096)) {
        // Wire-format decoding must reject or parse — never panic — for any
        // byte soup a buggy or malicious peer could deliver.
        let _ = LetTree::from_bytes(&bytes);
        prop_assert_eq!(validate(&bytes).map(drop), decode_then_check(&bytes));
    }

    #[test]
    fn from_bytes_never_panics_on_bitflipped_valid_trees(
        n in 2usize..120, seed in any::<u64>(), flip in any::<u64>(), shape in 0usize..3
    ) {
        // A boundary, or a LET of either reach: both record shapes.
        let (tree, domain, _) = two_ranks(n, seed);
        let lt = match shape {
            0 => boundary_tree(&tree, &domain),
            1 => build_let(&tree, &[Aabb::cube(Vec3::new(1.2, 0.0, 0.0), 0.5)], 0.4),
            _ => build_let(&tree, &[Aabb::cube(Vec3::splat(50.0), 1.0)], 0.4),
        };
        let mut bytes = lt.to_bytes().to_vec();
        if !bytes.is_empty() {
            let idx = (flip as usize) % bytes.len();
            bytes[idx] ^= 1 << (flip % 8) as u8;
            // Decode or reject, no panic — and the receiver's second check
            // must survive whatever decodes.
            if let Some(damaged) = LetTree::from_bytes(&bytes) {
                let _ = damaged.check_invariants();
            }
        }
    }

    #[test]
    fn replan_yields_disjoint_covering_ranges(
        nkeys in 1usize..600, new_p in 1usize..12, seed in any::<u64>(), cap in 1.05f64..2.0
    ) {
        // Any re-partition for any new world size must tile the full key
        // space with contiguous, disjoint ranges that account for every
        // live key exactly once — a gap or overlap would lose or duplicate
        // particles at the next view change.
        let mut rng = Xoshiro256::seed_from(seed);
        let mut keys: Vec<u64> = (0..nkeys).map(|_| rng.next_u64() >> 1).collect();
        keys.sort_unstable();
        let sorted: Vec<(u64, f64)> =
            keys.iter().map(|&k| (k, rng.uniform_in(0.1, 10.0))).collect();
        let domains = replan(&sorted, new_p, cap);
        prop_assert_eq!(domains.len(), new_p);
        prop_assert_eq!(domains[0].start, 0u64);
        prop_assert_eq!(domains.last().unwrap().end, KEY_END);
        for w in domains.windows(2) {
            prop_assert_eq!(w[0].end, w[1].start, "gap or overlap between ranges");
        }
        // Every key has exactly one owner and find_owner agrees with
        // range membership.
        for &k in &keys {
            let owner = find_owner(&domains, k);
            prop_assert!(domains[owner].contains(k));
        }
    }

    #[test]
    fn migration_preserves_the_exact_id_multiset(
        old_p in 1usize..7, per_rank in 0usize..80, seed in any::<u64>(),
        grow in any::<bool>(), delta in 1usize..4
    ) {
        // Arbitrary old world, arbitrary grow/shrink: after plan + apply +
        // routing, the union of kept and landed particles is *exactly* the
        // original id multiset, every particle sits in its new owner's
        // domain, and departing ranks end empty.
        let mut rng = Xoshiro256::seed_from(seed);
        let keys: Vec<Vec<u64>> = (0..old_p)
            .map(|_| (0..per_rank).map(|_| rng.next_u64() >> 1).collect())
            .collect();
        let (new_p, new_rank): (usize, Vec<Option<usize>>) = if grow {
            // Joins append: old ranks keep their indices.
            (old_p + delta, (0..old_p).map(Some).collect())
        } else {
            // Retire the highest ranks (at least one survivor).
            let survivors = (old_p - delta.min(old_p - 1)).max(1);
            (
                survivors,
                (0..old_p).map(|r| if r < survivors { Some(r) } else { None }).collect(),
            )
        };
        let sorted: Vec<(u64, f64)> = {
            let mut all: Vec<u64> = keys.iter().flatten().copied().collect();
            all.sort_unstable();
            all.into_iter().map(|k| (k, 1.0)).collect()
        };
        let new_domains = replan(&sorted, new_p, 2.0);
        let m: Vec<ExchangePlan> = (keys.iter().zip(&new_rank))
            .map(|(ks, &stay)| ExchangePlan::plan_onto(stay, ks, &new_domains))
            .collect();

        // Drain every old rank and route the buckets like the cluster does.
        let mut landed: Vec<Particles> = (0..new_p).map(|_| Particles::new()).collect();
        let mut landed_keys: Vec<Vec<u64>> = vec![Vec::new(); new_p];
        let mut before: Vec<u64> = Vec::new();
        let mut shipped_total = 0usize;
        for (r, ks) in keys.iter().enumerate() {
            let mut p = Particles::new();
            for (i, _) in ks.iter().enumerate() {
                p.push(Vec3::splat(i as f64), Vec3::zero(), 1.0, (r * 1000 + i) as u64);
            }
            before.extend(p.id.iter().copied());
            let buckets = m[r].apply(&mut p);
            shipped_total += buckets.iter().map(Particles::len).sum::<usize>();
            match new_rank[r] {
                Some(d) => {
                    landed_keys[d].extend(
                        ks.iter().enumerate()
                            .filter(|(i, _)| p.id.contains(&((r * 1000 + i) as u64)))
                            .map(|(_, &k)| k),
                    );
                    landed[d].extend_from(&p);
                }
                None => prop_assert!(p.is_empty(), "departing rank {} kept particles", r),
            }
            for (d, b) in buckets.iter().enumerate() {
                landed_keys[d].extend(
                    b.id.iter().map(|&id| keys[(id / 1000) as usize][(id % 1000) as usize]),
                );
                landed[d].extend_from(b);
            }
        }
        prop_assert_eq!(shipped_total, m.iter().map(ExchangePlan::emigrant_count).sum::<usize>());

        // Exact multiset conservation.
        let mut after: Vec<u64> = landed.iter().flat_map(|p| p.id.iter().copied()).collect();
        before.sort_unstable();
        after.sort_unstable();
        prop_assert_eq!(before, after, "id multiset changed across migration");

        // Every landed particle belongs to its new owner's domain.
        for (d, ks) in landed_keys.iter().enumerate() {
            for &k in ks {
                prop_assert!(new_domains[d].contains(k), "key {} landed outside domain {}", k, d);
            }
        }
    }

    #[test]
    fn sufficiency_is_monotone_in_distance(n in 50usize..300, seed in any::<u64>()) {
        // If the boundary suffices for a near geometry it must suffice for
        // the same geometry moved farther away (along +x).
        let tree = Tree::build(blob(n, seed), TreeParams::default());
        let b = boundary_tree(&tree, &KeyRange::everything());
        let theta = 0.5;
        let mut prev_ok = false;
        for dist in [2.0, 4.0, 8.0, 16.0, 64.0, 256.0] {
            let geom = vec![Aabb::cube(Vec3::new(dist, 0.0, 0.0), 0.5)];
            let ok = boundary_sufficient_for(&b, &geom, theta);
            prop_assert!(!prev_ok || ok, "sufficiency regressed at distance {}", dist);
            prev_ok = ok;
        }
        prop_assert!(prev_ok, "far geometry must always be satisfied by the boundary");
    }
}

proptest! {
    // Its own case count: a LET the hull test alone would get wrong, or a
    // walk that reaches a `Cut` node, needs several boxes, θ > 0 and a tree
    // deep enough to reach a hull corner.
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn a_walk_inside_the_receivers_geometry_opens_no_cut_node(
        n in 1usize..1500, seed in any::<u64>(), boxes in 1usize..6, theta_at in 0usize..3, at in any::<u64>()
    ) {
        // A release build of the cluster walks a dedicated LET unchecked:
        // every group of the receiver lies inside one of its frontier
        // boxes, and the LET was cut against those boxes. So every node the walk opens for such
        // a group, the geometry opens, and no `Cut` node of the LET is one.
        let tree = Tree::build(blob(n, seed), TreeParams::default());
        let geom = receiver_geometry(boxes, seed);
        let theta = [0.0, 0.4, 0.75][theta_at];
        let mac = OpeningCriterion::new(theta);
        let outer = geom[at as usize % boxes];
        let mut rng = Xoshiro256::seed_from(at);
        let mut inside = || {
            let (lo, hi) = (rng.uniform(), rng.uniform());
            let axis = |lo: f64, hi: f64, t: f64| (lo + t * (hi - lo)).min(hi);
            let (a, b) = (outer.min, outer.max);
            let lerp = |t: f64| Vec3::new(axis(a.x, b.x, t), axis(a.y, b.y, t), axis(a.z, b.z, t));
            Aabb::new(lerp(lo.min(hi)), lerp(lo.max(hi)))
        };
        // The whole box, and a random group inside it.
        let groups = [outer, inside()];
        let let_tree = build_let(&tree, &geom, theta);
        for group in &groups {
            for node in &tree.nodes {
                prop_assert!(!mac.must_open(group, node) || geometry_opens(node, &geom, &mac));
            }
            for node in let_tree.nodes.iter().filter(|n| n.kind == NodeKind::Cut) {
                prop_assert!(!mac.must_open(group, node), "the walk of {:?} opens a Cut node", group);
            }
        }
    }

    #[test]
    fn build_let_equals_the_per_box_oracle(
        n in 1usize..1500, seed in any::<u64>(), boxes in 0usize..6, theta_at in 0usize..3
    ) {
        // The hull test in front of the per-box scan changes no decision:
        // node for node and bit for bit the LET the plain `geometry_opens`
        // decision builds, for no box, one box and 2 to 5 overlapping boxes.
        let tree = Tree::build(blob(n, seed), TreeParams::default());
        let geom = receiver_geometry(boxes, seed);
        let theta = [0.0, 0.4, 0.75][theta_at];
        let mac = OpeningCriterion::new(theta);
        let oracle = extract_pruned(&tree, |_, node| {
            if geometry_opens(node, &geom, &mac) { Action::Open } else { Action::Cut }
        });
        let got = build_let(&tree, &geom, theta);
        prop_assert_eq!(got.role, oracle.role);
        prop_assert_eq!(got.nodes.iter().map(node_bits).collect::<Vec<_>>(),
                        oracle.nodes.iter().map(node_bits).collect::<Vec<_>>());
        let payload = |t: &LetTree| -> Vec<u64> {
            let pos = t.pos.iter().flat_map(|p| [p.x, p.y, p.z]);
            pos.chain(t.mass.iter().copied()).map(f64::to_bits).collect()
        };
        prop_assert_eq!(payload(&got), payload(&oracle));
    }
}

proptest! {
    // Random boundaries against geometries at every distance from near
    // (most `Cut` nodes opened) to far (none), so both verdicts occur.
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn sufficiency_equals_the_all_scan_oracle(
        n in 2usize..1500, seed in any::<u64>(), boxes in 1usize..6, theta_at in 0usize..3
    ) {
        // The hull test in front of the per-box scan changes no decision:
        // for the whole boundary and for each of its `Cut` nodes alone, the
        // verdict is the one the plain `geometry_opens` scan reaches, with
        // the geometry moved away in steps of 1/8 until nothing opens.
        let (sender, domain, _) = two_ranks(n, seed);
        let b = boundary_tree(&sender, &domain);
        let theta = [0.0, 0.4, 0.75][theta_at];
        let mac = OpeningCriterion::new(theta);
        let near = receiver_geometry(boxes, seed);
        let away = Xoshiro256::seed_from(seed).unit_sphere();
        let cuts: Vec<LetTree> = (b.nodes.iter().filter(|c| c.kind == NodeKind::Cut))
            .map(|&c| LetTree { nodes: vec![c], ..b.clone() })
            .collect();
        let mut verdicts = [false, false];
        for dist in (0..64).map(|k| k as f64 / 8.0).chain([16.0, 64.0]) {
            let geom: Vec<Aabb> = near.iter().map(|g| Aabb::new(g.min + away * dist, g.max + away * dist)).collect();
            let hull = hull_of(&geom);
            for cut in &cuts {
                let oracle = !geometry_opens(&cut.nodes[0], &geom, &mac);
                prop_assert_eq!(boundary_sufficient_within(cut, &geom, &hull, theta), oracle, "at distance {}", dist);
            }
            let oracle = cuts.iter().all(|cut| !geometry_opens(&cut.nodes[0], &geom, &mac));
            prop_assert_eq!(boundary_sufficient_for(&b, &geom, theta), oracle, "at distance {}", dist);
            verdicts[oracle as usize] = true;
        }
        // At θ = 0 every `Cut` node opens, so no distance suffices.
        prop_assert_eq!(verdicts[1], theta > 0.0 || cuts.is_empty());
    }
}

/// A receiver's frontier boxes: `count` boxes of random extents around one
/// shared point near `blob`'s sphere. They overlap, but their hull has wide
/// corners that no box covers, where the hull test alone would open nodes
/// the boxes do not.
fn receiver_geometry(count: usize, seed: u64) -> Vec<Aabb> {
    let mut rng = Xoshiro256::seed_from(seed ^ 0x9e37_79b9_7f4a_7c15);
    let centre = rng.unit_sphere() * rng.uniform_in(0.0, 2.0);
    let mut extent = move || {
        let mut axis = || rng.uniform_in(0.02, 0.8);
        Vec3::new(axis(), axis(), axis())
    };
    (0..count)
        .map(|_| Aabb::new(centre - extent(), centre + extent()))
        .collect()
}

/// Every field of `n`, floats by their bits.
fn node_bits(n: &Node) -> Vec<u64> {
    let floats = [n.com.x, n.com.y, n.com.z, n.mass]
        .into_iter()
        .chain(n.quad.m)
        .chain([n.bbox.min.x, n.bbox.min.y, n.bbox.min.z, n.bbox.max.x, n.bbox.max.y, n.bbox.max.z])
        .chain([n.geo_center.x, n.geo_center.y, n.geo_center.z, n.geo_half]);
    let kind = match n.kind {
        NodeKind::Internal => 0,
        NodeKind::Leaf => 1,
        NodeKind::Cut => 2,
    };
    floats
        .map(f64::to_bits)
        .chain([n.first as u64, n.count as u64, kind, n.level as u64])
        .collect()
}

/// The wire encoding of the `lettree` module docs, written out field by
/// field with no shared code: the oracle for `LetTree::to_bytes`.
fn encode_by_fields(lt: &LetTree) -> Vec<u8> {
    let mut out = Vec::new();
    let f64s = |out: &mut Vec<u8>, vals: &[f64]| {
        for v in vals {
            out.extend_from_slice(&v.to_le_bytes());
        }
    };
    out.extend_from_slice(&(lt.nodes.len() as u64).to_le_bytes());
    out.extend_from_slice(&(lt.pos.len() as u64).to_le_bytes());
    out.push(if lt.role == Role::Boundary { 1 } else { 0 });
    for n in &lt.nodes {
        f64s(&mut out, &[n.com.x, n.com.y, n.com.z, n.mass]);
        f64s(&mut out, &n.quad.m);
        f64s(&mut out, &[n.geo_center.x, n.geo_center.y, n.geo_center.z, n.geo_half]);
        out.extend_from_slice(&n.first.to_le_bytes());
        out.extend_from_slice(&n.count.to_le_bytes());
        out.push(match n.kind {
            NodeKind::Internal => 0,
            NodeKind::Leaf => 1,
            NodeKind::Cut => 2,
        });
        out.push(n.level as u8);
        if lt.role == Role::Boundary {
            let (lo, hi) = (n.bbox.min, n.bbox.max);
            f64s(&mut out, &[lo.x, lo.y, lo.z, hi.x, hi.y, hi.z]);
        }
    }
    for (p, &m) in lt.pos.iter().zip(&lt.mass) {
        f64s(&mut out, &[p.x, p.y, p.z, m]);
    }
    out
}

/// Two ranks over one key map: `blob(n, seed)` split at its median key.
/// Returns the first rank's tree and key range, and the second rank's tree.
fn two_ranks(n: usize, seed: u64) -> (Tree, KeyRange, Tree) {
    split_in_two(blob(n, seed))
}

/// [`two_ranks`] of any particle set of at least two particles.
fn split_in_two(all: Particles) -> (Tree, KeyRange, Tree) {
    let n = all.len();
    let keymap = KeyMap::new(&all.bounds(), bonsai_sfc::Curve::Hilbert);
    let keys: Vec<u64> = all.pos.iter().map(|&q| keymap.key_of(q)).collect();
    let mut sorted = keys.clone();
    sorted.sort_unstable();
    let domains = ranges_from_cuts(&[sorted[n / 2]]);
    let mut halves = [Particles::new(), Particles::new()];
    for (i, &k) in keys.iter().enumerate() {
        halves[find_owner(&domains, k)].push(all.pos[i], all.vel[i], all.mass[i], all.id[i]);
    }
    let [a, b] = halves.map(|h| Tree::build_with_keymap(h, keymap.clone(), TreeParams::default()));
    (a, domains[0], b)
}

/// `lt` round-tripped through the wire with its first `kind` node's range
/// patched to `first = u32::MAX, count = 2` — a sum that wraps in `u32`.
/// Its encoding must be refused in place with the in-memory check's text.
fn with_wrapping_range(lt: LetTree, kind: NodeKind) -> LetTree {
    let mut lt = LetTree::from_bytes(&lt.to_bytes()).unwrap();
    lt.check_invariants().expect("round-tripped tree is valid");
    let victim = lt.nodes.iter_mut().find(|n| n.kind == kind).expect("sample tree has the node kind");
    (victim.first, victim.count) = (u32::MAX, 2);
    let bytes = lt.to_bytes();
    assert_eq!(validate(&bytes).map(drop), lt.check_invariants().map_err(Invalid::Invariant));
    assert!(LetTree::from_bytes(&bytes).is_none(), "a wrapped range decodes");
    lt
}

/// The receive path's verdict before received frames were walked in place,
/// kept as the oracle of [`validate`]: decode every record of the encoding
/// (a malformed header or length, or an unknown kind, fails), then check the
/// decoded tree with [`LetTree::check_invariants`].
fn decode_then_check(b: &[u8]) -> Result<(), Invalid> {
    let decoded = decode_unchecked(b).ok_or(Invalid::Encoding)?;
    decoded.check_invariants().map_err(Invalid::Invariant)
}

/// The decoder before it validated: header, lengths and node kinds only.
fn decode_unchecked(b: &[u8]) -> Option<LetTree> {
    let (header, body) = b.split_first_chunk::<HEADER_SIZE>()?;
    let count = |at: usize| u64::from_le_bytes(header[at..at + 8].try_into().unwrap()) as usize;
    let (n_nodes, n_part) = (count(0), count(8));
    let role = match header[16] {
        0 => Role::Let,
        1 => Role::Boundary,
        _ => return None,
    };
    let stride = role.record_size();
    let node_bytes = n_nodes.checked_mul(stride)?;
    let need = n_part.checked_mul(PARTICLE_RECORD_SIZE).and_then(|p| p.checked_add(node_bytes))?;
    if body.len() != need {
        return None;
    }
    let (node_part, particle_part) = body.split_at(node_bytes);
    let mut lt = LetTree { role, ..LetTree::default() };
    for rec in node_part.chunks_exact(stride) {
        lt.nodes.push(decode_node(rec)?);
    }
    for rec in particle_part.chunks_exact(PARTICLE_RECORD_SIZE) {
        let f = |k: usize| f64::from_le_bytes(rec[8 * k..8 * k + 8].try_into().unwrap());
        lt.pos.push(Vec3::new(f(0), f(1), f(2)));
        lt.mass.push(f(3));
    }
    Some(lt)
}

/// Byte offset of a node record's kind byte, and of its level byte.
const KIND_AT: usize = 120;
const LEVEL_AT: usize = 121;

/// The encoding of `lt` with one edit, picked by `edit` and placed by
/// `pick`: a single byte flip anywhere, or one targeted break — a NaN
/// field, an unknown kind, a child or leaf range past its end, a mass-sum
/// mismatch, a level past [`MAX_LEVEL`], an inverted boundary box. An edit
/// with nothing to act on (no leaf, say) leaves the encoding valid.
fn damaged(lt: &LetTree, edit: usize, pick: u64) -> Vec<u8> {
    let mut rng = Xoshiro256::seed_from(pick);
    let mut t = lt.clone();
    let any_node = |rng: &mut Xoshiro256, t: &LetTree| rng.uniform_usize(t.nodes.len());
    let of_kind = |rng: &mut Xoshiro256, t: &LetTree, kind: NodeKind| {
        let them: Vec<usize> = (0..t.nodes.len()).filter(|&i| t.nodes[i].kind == kind).collect();
        (!them.is_empty()).then(|| them[rng.uniform_usize(them.len())])
    };
    let stride = t.role.record_size();
    let record_at = |i: usize| HEADER_SIZE + i * stride;
    let mut byte_edit = None;
    match edit {
        0 => {
            let mut bytes = t.to_bytes().to_vec();
            let at = rng.uniform_usize(bytes.len());
            bytes[at] ^= 1 + rng.uniform_usize(255) as u8;
            return bytes;
        }
        1 => {
            // A NaN in a multipole, cell, particle or box field.
            let i = any_node(&mut rng, &t);
            let n = &mut t.nodes[i];
            match rng.uniform_usize(7) {
                0 => n.com.y = f64::NAN,
                1 => n.mass = f64::NAN,
                2 => n.quad.m[rng.uniform_usize(6)] = f64::NAN,
                3 => n.geo_center.z = f64::NAN,
                4 => n.geo_half = f64::NAN,
                5 => n.bbox.max.x = f64::NAN,
                _ if !t.pos.is_empty() => {
                    let k = rng.uniform_usize(t.pos.len());
                    t.mass[k] = f64::NAN;
                }
                _ => n.com.x = f64::NAN,
            }
        }
        2 => byte_edit = Some((record_at(any_node(&mut rng, &t)) + KIND_AT, 3 + rng.uniform_usize(253) as u8)),
        3 => {
            if let Some(i) = of_kind(&mut rng, &t, NodeKind::Internal) {
                t.nodes[i].count = (t.nodes.len() as u32 + 1).saturating_sub(t.nodes[i].first);
            }
        }
        4 => {
            if let Some(i) = of_kind(&mut rng, &t, NodeKind::Leaf) {
                t.nodes[i].count = (t.pos.len() as u32 + 1).saturating_sub(t.nodes[i].first);
            }
        }
        5 => {
            // A child's mass, so its parent's sum breaks (the root's, if
            // it is alone).
            let i = if t.nodes.len() > 1 { 1 + rng.uniform_usize(t.nodes.len() - 1) } else { 0 };
            t.nodes[i].mass = t.nodes[i].mass * 1.5 + 1.0;
        }
        6 => byte_edit = Some((record_at(any_node(&mut rng, &t)) + LEVEL_AT, MAX_LEVEL as u8 + 1 + rng.uniform_usize(200) as u8)),
        _ => {
            let i = any_node(&mut rng, &t);
            let b = &mut t.nodes[i].bbox;
            (b.min.y, b.max.y) = (b.max.y + 1.0, b.min.y);
        }
    }
    let mut bytes = t.to_bytes().to_vec();
    if let Some((at, value)) = byte_edit {
        bytes[at] = value;
    }
    bytes
}

/// A LET for a nearby receiver: internal nodes, cut nodes and leaves.
fn near_let() -> LetTree {
    let tree = Tree::build(blob(200, 7), TreeParams::default());
    let lt = build_let(&tree, &[Aabb::cube(Vec3::new(1.2, 0.0, 0.0), 0.5)], 0.4);
    assert!(lt.particle_count() > 1, "a near LET ships leaf particles");
    lt
}

#[test]
fn invariants_reject_an_internal_child_range_that_wraps_u32() {
    // Used to panic inside the validator (`nodes[4294967295..1]`).
    assert!(with_wrapping_range(near_let(), NodeKind::Internal).check_invariants().is_err());
}

#[test]
fn invariants_reject_a_leaf_range_that_wraps_u32() {
    // Used to be accepted: the wrapped end (1) is inside the payload.
    assert!(with_wrapping_range(near_let(), NodeKind::Leaf).check_invariants().is_err());
}

#[test]
fn from_bytes_rejects_trailing_bytes() {
    let mut bytes = near_let().to_bytes().to_vec();
    assert!(LetTree::from_bytes(&bytes).is_some());
    bytes.extend_from_slice(&[0u8; 7]);
    assert!(LetTree::from_bytes(&bytes).is_none());
}

//! Online re-decomposition across a membership view change.
//!
//! When ranks join or depart mid-run the PH-key partition must be re-split
//! for the new world size and the live particles migrated from the old
//! view's owners to the new ones — while the galaxy keeps spinning. This is
//! the domain-layer half of elastic membership: [`replan`] produces the new
//! partition from the same flop-weighted balance the steady-state
//! decomposition uses ([`weighted_cuts`] + particle cap, validated with
//! [`weight_shares`](crate::load::weight_shares)), and one
//! [`ExchangePlan::plan_onto`](crate::exchange::ExchangePlan::plan_onto)
//! per *old* rank maps each of its particles to its *new* owner, including
//! ranks that exist in only one of the two views: a departing rank ships
//! its entire population, a joining rank starts empty and receives its
//! domain from the old owners.
//!
//! Rank indices mean different things before and after the change (a rank
//! is an index into a view's sorted member list), so each old rank's plan is
//! made against the rank its node holds in the new view, or `None` if it
//! departs.

use crate::load::{enforce_particle_cap, weighted_cuts};
use bonsai_sfc::range::KeyRange;

/// Re-split the key space for a new world size from the globally sorted
/// `(key, weight)` sequence of the live particles, honouring the paper's
/// particle cap. Returns `new_p` disjoint ranges covering the full key
/// space.
pub fn replan(sorted: &[(u64, f64)], new_p: usize, cap: f64) -> Vec<KeyRange> {
    let ranges = weighted_cuts(sorted, new_p);
    let keys: Vec<u64> = sorted.iter().map(|&(k, _)| k).collect();
    enforce_particle_cap(&ranges, &keys, cap)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exchange::{ExchangePlan, PARTICLE_WIRE_SIZE};
    use bonsai_sfc::KEY_END;
    use bonsai_tree::Particles;
    use bonsai_util::Vec3;

    fn particles_for(keys: &[u64], id0: u64) -> Particles {
        let mut p = Particles::new();
        for (i, _) in keys.iter().enumerate() {
            p.push(Vec3::splat(i as f64), Vec3::zero(), 1.0, id0 + i as u64);
        }
        p
    }

    /// One plan per old rank, as `Cluster::apply_view_change` makes them.
    fn plans(keys: &[Vec<u64>], new_domains: &[KeyRange], new_rank: &[Option<usize>]) -> Vec<ExchangePlan> {
        (keys.iter().zip(new_rank))
            .map(|(ks, &stay)| ExchangePlan::plan_onto(stay, ks, new_domains))
            .collect()
    }

    #[test]
    fn replan_covers_and_respects_cap() {
        let sorted: Vec<(u64, f64)> = (0..600u64).map(|k| (k * 1000, 1.0 + (k % 7) as f64)).collect();
        for new_p in [1, 2, 5, 6] {
            let domains = replan(&sorted, new_p, crate::load::PAPER_CAP);
            assert_eq!(domains.len(), new_p);
            assert_eq!(domains[0].start, 0);
            assert_eq!(domains.last().unwrap().end, KEY_END);
            for w in domains.windows(2) {
                assert_eq!(w[0].end, w[1].start);
            }
        }
    }

    #[test]
    fn migration_routes_growing_world() {
        // Two old ranks, three new ranks; old rank 0 keeps new rank 0,
        // old rank 1 moves to new rank 2 (new rank 1 is a joiner).
        let keys = vec![vec![10, 150, 290], vec![110, 250]];
        let new_domains = vec![
            KeyRange::new(0, 100),
            KeyRange::new(100, 200),
            KeyRange::new(200, KEY_END),
        ];
        let m = plans(&keys, &new_domains, &[Some(0), Some(2)]);
        // Old rank 0: key 10 stays, 150 -> new 1, 290 -> new 2.
        assert_eq!(m[0].send[1], vec![1]);
        assert_eq!(m[0].send[2], vec![2]);
        // Old rank 1 (now new rank 2): 110 -> new 1, 250 stays.
        assert_eq!(m[1].send[1], vec![0]);
        assert!(m[1].send[2].is_empty());
        assert_eq!(m.iter().map(ExchangePlan::emigrant_count).sum::<usize>(), 3);
        assert_eq!(m.iter().map(ExchangePlan::wire_bytes).sum::<usize>(), 3 * PARTICLE_WIRE_SIZE);
    }

    #[test]
    fn departing_rank_ships_everything() {
        let keys = vec![vec![10, 20], vec![500, 600, 700]];
        let new_domains = vec![KeyRange::new(0, KEY_END)];
        let m = plans(&keys, &new_domains, &[Some(0), None]);
        let mut p1 = particles_for(&keys[1], 100);
        let shipped = m[1].apply(&mut p1);
        assert!(p1.is_empty(), "departing rank must end empty");
        assert_eq!(shipped[0].id, vec![100, 101, 102]);
        // The surviving rank keeps its own particles.
        let mut p0 = particles_for(&keys[0], 0);
        let kept = m[0].apply(&mut p0);
        assert_eq!(p0.len(), 2);
        assert!(kept[0].is_empty());
    }

    #[test]
    fn migration_conserves_the_id_multiset() {
        let keys = vec![vec![5, 105, 205, 305], vec![55, 155, 255], vec![99, 199]];
        let new_domains = vec![KeyRange::new(0, 150), KeyRange::new(150, KEY_END)];
        let m = plans(&keys, &new_domains, &[Some(1), None, Some(0)]);
        let mut all_ids = Vec::new();
        for (r, ks) in keys.iter().enumerate() {
            let mut p = particles_for(ks, (r * 10) as u64);
            all_ids.extend(p.id.clone());
            let shipped = m[r].apply(&mut p);
            let mut landed: Vec<u64> = p.id.clone();
            landed.extend(shipped.iter().flat_map(|s| s.id.iter().copied()));
            assert_eq!(landed.len(), ks.len());
        }
        let total: usize = keys.iter().map(Vec::len).sum();
        assert_eq!(all_ids.len(), total);
    }
}

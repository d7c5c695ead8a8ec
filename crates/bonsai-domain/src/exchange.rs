//! Particle exchange after a domain update (§III-B1).
//!
//! "With the domain boundaries at hand, each GPU generates a list of
//! particles that are not part of its local domain, and these particles are
//! then exchanged between the processes." [`ExchangePlan`] is that list;
//! applying it drains the emigrants per destination, and the byte volume it
//! reports feeds the network model.

use bonsai_sfc::range::{find_owner, KeyRange};
use bonsai_tree::Particles;
use bytes::Bytes;

/// Bytes a particle occupies on the wire: the one particle record.
pub use bonsai_tree::particles::RECORD_LEN as PARTICLE_WIRE_SIZE;

/// Serialize a particle set for the wire: [`Particles::encode`]'s payload.
pub fn particles_to_bytes(p: &Particles) -> Bytes {
    Bytes::from(p.encode(Vec::new()))
}

/// Deserialize and strictly validate a particle payload
/// ([`Particles::decode`]).
pub fn particles_from_bytes(b: &[u8]) -> Result<Particles, String> {
    Particles::decode(b)
}

/// Which local particles must move to which rank.
#[derive(Clone, Debug)]
pub struct ExchangePlan {
    /// `send[r]` = local indices destined for rank `r` (sorted ascending).
    /// A particle whose owner is the rank it stays on appears in no bucket.
    pub send: Vec<Vec<usize>>,
}

impl ExchangePlan {
    /// Classify every local particle against the new `domains` partition;
    /// rank `me`'s own bucket is always empty.
    pub fn plan(me: usize, keys: &[u64], domains: &[KeyRange]) -> Self {
        Self::plan_onto(Some(me), keys, domains)
    }

    /// [`ExchangePlan::plan`] across a membership view change, where rank
    /// indices mean different things before and after: `stay` is the rank
    /// this node holds in the partition `domains` describes, or `None` for
    /// a departing node, which ships its entire population.
    pub fn plan_onto(stay: Option<usize>, keys: &[u64], domains: &[KeyRange]) -> Self {
        let mut send: Vec<Vec<usize>> = vec![Vec::new(); domains.len()];
        for (i, &k) in keys.iter().enumerate() {
            let owner = find_owner(domains, k);
            if Some(owner) != stay {
                send[owner].push(i);
            }
        }
        Self { send }
    }

    /// Number of particles leaving this rank.
    pub fn emigrant_count(&self) -> usize {
        self.send.iter().map(Vec::len).sum()
    }

    /// Bytes this rank puts on the wire.
    pub fn wire_bytes(&self) -> usize {
        self.emigrant_count() * PARTICLE_WIRE_SIZE
    }

    /// Drop the emigrants' entries from `values`, a per-particle array
    /// parallel to the set the plan was built from, keeping the stayers in
    /// the order [`ExchangePlan::apply`] keeps their particles.
    pub fn retain_stayers<T>(&self, values: &mut Vec<T>) {
        let mut stays = vec![true; values.len()];
        for &i in self.send.iter().flatten() {
            stays[i] = false;
        }
        let mut i = 0;
        values.retain(|_| {
            i += 1;
            stays[i - 1]
        });
    }

    /// Drain the emigrants out of `particles`; returns one [`Particles`] per
    /// destination rank (empty for ranks receiving nothing, including the
    /// rank the node stays on). A departing node ends empty.
    ///
    /// `particles` must be the same set (same order) the plan was built from.
    pub fn apply(&self, particles: &mut Particles) -> Vec<Particles> {
        // Single pass: mark destination per index.
        let mut dest: Vec<i32> = vec![-1; particles.len()];
        for (r, idxs) in self.send.iter().enumerate() {
            for &i in idxs {
                dest[i] = r as i32;
            }
        }
        let mut out: Vec<Particles> = (0..self.send.len()).map(|_| Particles::new()).collect();
        let mut keep = Particles::with_capacity(particles.len() - self.emigrant_count());
        for i in 0..particles.len() {
            let target = if dest[i] >= 0 {
                &mut out[dest[i] as usize]
            } else {
                &mut keep
            };
            target.push(particles.pos[i], particles.vel[i], particles.mass[i], particles.id[i]);
        }
        *particles = keep;
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bonsai_sfc::range::ranges_from_cuts;
    use bonsai_util::Vec3;

    fn particles_with_keys(keys: &[u64]) -> (Particles, Vec<u64>) {
        let mut p = Particles::new();
        for (i, _) in keys.iter().enumerate() {
            p.push(Vec3::splat(i as f64), Vec3::zero(), 1.0, i as u64);
        }
        (p, keys.to_vec())
    }

    #[test]
    fn plan_routes_by_owner() {
        let domains = ranges_from_cuts(&[100, 200]);
        let (_, keys) = particles_with_keys(&[50, 150, 250, 99, 100]);
        let plan = ExchangePlan::plan(0, &keys, &domains);
        assert_eq!(plan.send[0], Vec::<usize>::new());
        assert_eq!(plan.send[1], vec![1, 4]);
        assert_eq!(plan.send[2], vec![2]);
        assert_eq!(plan.emigrant_count(), 3);
        assert_eq!(plan.wire_bytes(), 3 * PARTICLE_WIRE_SIZE);
    }

    #[test]
    fn apply_partitions_particles() {
        let domains = ranges_from_cuts(&[100, 200]);
        let (mut p, keys) = particles_with_keys(&[50, 150, 250, 99, 100]);
        let plan = ExchangePlan::plan(0, &keys, &domains);
        let shipped = plan.apply(&mut p);
        // stayers: ids 0, 3 (keys 50, 99)
        assert_eq!(p.id, vec![0, 3]);
        assert_eq!(shipped[1].id, vec![1, 4]);
        assert_eq!(shipped[2].id, vec![2]);
        assert!(shipped[0].is_empty());
        let total: usize = shipped.iter().map(|s| s.len()).sum::<usize>() + p.len();
        assert_eq!(total, 5);
    }

    #[test]
    fn retained_keys_stay_parallel_to_the_stayers() {
        let domains = ranges_from_cuts(&[100, 200]);
        let (mut p, mut keys) = particles_with_keys(&[50, 150, 250, 99, 100, 7]);
        let plan = ExchangePlan::plan(0, &keys, &domains);
        plan.apply(&mut p);
        plan.retain_stayers(&mut keys);
        assert_eq!(p.id, vec![0, 3, 5]);
        assert_eq!(keys, vec![50, 99, 7]);
    }

    #[test]
    fn no_movement_when_all_local() {
        let domains = ranges_from_cuts(&[1000]);
        let (mut p, keys) = particles_with_keys(&[1, 2, 3]);
        let plan = ExchangePlan::plan(0, &keys, &domains);
        assert_eq!(plan.emigrant_count(), 0);
        let shipped = plan.apply(&mut p);
        assert_eq!(p.len(), 3);
        assert!(shipped.iter().all(|s| s.is_empty()));
    }

    #[test]
    fn the_migrant_payload_is_pinned() {
        let mut p = Particles::new();
        p.push(Vec3::new(1.5, -2.25, 3.0e-3), Vec3::new(-0.5, 0.125, 7.0), 2.5, 7);
        p.push(Vec3::new(-1.0e5, 0.0, -0.0), Vec3::new(1.0e-9, -3.5, 2.0), 0.0, 1 << 40);
        p.push(Vec3::new(8.0, 8.5, -8.25), Vec3::zero(), 1.0e10, u64::MAX);
        let bytes = particles_to_bytes(&p);
        assert_eq!(bytes.len(), 8 + 3 * PARTICLE_WIRE_SIZE);
        let crc = bonsai_util::crc64(&bytes);
        assert_eq!(crc, 0xabf3_b695_69e6_6ebd, "migrant payload layout moved");
        assert_eq!(particles_from_bytes(&bytes).unwrap().id, p.id);
    }
}

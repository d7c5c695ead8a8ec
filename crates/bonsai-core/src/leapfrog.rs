//! The kick–drift–kick leap-frog of §III-B2, the one integrator every
//! engine runs around its force evaluation: [`kick_drift`] with the old
//! forces, new forces at the drifted positions, then [`kick`] with those.

use bonsai_tree::{Forces, Particles};

/// Opening half-kick and full drift: `v += a·½dt`, then `x += v·dt`.
pub fn kick_drift(particles: &mut Particles, forces: &Forces, dt: f64) {
    let half = 0.5 * dt;
    let bodies = particles.vel.iter_mut().zip(&mut particles.pos).zip(&forces.acc);
    for ((v, x), &a) in bodies {
        *v += a * half;
        *x += *v * dt;
    }
}

/// Closing half-kick with the forces at the drifted positions: `v += a·½dt`.
pub fn kick(particles: &mut Particles, forces: &Forces, dt: f64) {
    let half = 0.5 * dt;
    for (v, &a) in particles.vel.iter_mut().zip(&forces.acc) {
        *v += a * half;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bonsai_util::Vec3;

    #[test]
    fn the_opening_kick_comes_before_the_drift() {
        let mut p = Particles::new();
        p.push(Vec3::zero(), Vec3::new(1.0, 0.0, 0.0), 1.0, 0);
        let forces = Forces { acc: vec![Vec3::new(2.0, 0.0, 0.0)], pot: vec![0.0] };
        kick_drift(&mut p, &forces, 1.0);
        // v = 1 + 2·½ = 2, then x = 0 + 2·1 (drifting first would give x = 1).
        assert_eq!((p.pos[0].x, p.vel[0].x), (2.0, 2.0));
        kick(&mut p, &forces, 1.0);
        assert_eq!((p.pos[0].x, p.vel[0].x), (2.0, 3.0));
    }
}

//! Helpers shared by the integration tests that compare runs bit for bit.

use bonsai_sim::Cluster;

/// Positions and accelerations in id order, as bits.
pub fn state_bits(c: &Cluster) -> Vec<(u64, [u64; 6])> {
    let acc = c.accelerations_by_id();
    let g = c.gather();
    let mut bits: Vec<(u64, [u64; 6])> = (g.id.iter().zip(&g.pos))
        .map(|(id, x)| {
            let a = acc[id];
            (*id, [x.x, x.y, x.z, a.x, a.y, a.z].map(f64::to_bits))
        })
        .collect();
    bits.sort_unstable_by_key(|&(id, _)| id);
    bits
}

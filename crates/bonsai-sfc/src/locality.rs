//! Curve-locality metrics for the Morton-vs-Hilbert ablation.
//!
//! The paper chooses the Peano–Hilbert curve because contiguous key ranges
//! have smaller surfaces, which directly reduces boundary-tree and LET
//! communication volume (§III-B). These metrics quantify that claim:
//!
//! * [`mean_step`] — mean lattice (L1) distance between consecutive keys
//!   (exactly 1.0 for Hilbert; > 1 for Morton);
//! * [`range_surface_cells`] — for an equal split of a point set into `p`
//!   key ranges, the number of lattice-surface cells of each piece, i.e. the
//!   communication proxy the `paper sfc` row of `bonsai-bench` reports.

use crate::keymap::{Curve, KeyMap};
use crate::range::{find_owner, KeyRange};
use bonsai_util::Vec3;

/// Mean L1 lattice step between consecutive keys of `curve`, sampled over
/// `samples` consecutive pairs starting at `start` on a `bits`-per-axis
/// lattice.
pub fn mean_step(curve: Curve, bits: u32, start: u64, samples: u64) -> f64 {
    let decode = |k: u64| -> [u32; 3] {
        match curve {
            Curve::Morton => {
                // reduced-resolution Morton = full-resolution on small coords
                let c = crate::morton::decode(k);
                [c[0], c[1], c[2]]
            }
            Curve::Hilbert => crate::hilbert::decode_bits(k, bits),
        }
    };
    let end = (start + samples).min((1u64 << (3 * bits)) - 1);
    let mut total = 0u64;
    let mut prev = decode(start);
    let mut n = 0u64;
    for k in (start + 1)..=end {
        let cur = decode(k);
        total += (0..3)
            .map(|i| (cur[i] as i64 - prev[i] as i64).unsigned_abs())
            .sum::<u64>();
        prev = cur;
        n += 1;
    }
    if n == 0 {
        0.0
    } else {
        total as f64 / n as f64
    }
}

/// Assign `points` to `p` equal key ranges under `map`'s curve and count, for
/// each range, how many occupied lattice cells have at least one face
/// neighbour owned by a different range. Returns per-range surface counts.
///
/// This is the communication proxy: boundary trees and LETs scale with the
/// number of surface cells of a domain.
pub fn range_surface_cells(map: &KeyMap, points: &[Vec3], p: usize) -> Vec<usize> {
    assert!(p > 0);
    let keys: Vec<u64> = points.iter().map(|&q| map.key_of(q)).collect();
    let mut sorted = keys.clone();
    sorted.sort_unstable();
    // Equal-count cuts (weighted by particles, like the sampling method).
    let cuts: Vec<u64> = (1..p).map(|i| sorted[i * sorted.len() / p]).collect();
    let ranges: Vec<KeyRange> = crate::range::ranges_from_cuts(&cuts);

    // Occupied cells per owner at a coarse level; a cell is assigned to the
    // owner holding the majority of its particles.
    let coarse_bits = 4u32; // 16^3 lattice, dense enough for adjacency to mean something
    let shift = crate::DIM_BITS - coarse_bits;
    let mut cell_counts: std::collections::HashMap<[u32; 3], Vec<u32>> = std::collections::HashMap::new();
    for (&k, &pt) in keys.iter().zip(points) {
        let owner = find_owner(&ranges, k);
        let c = map.coords_of(pt);
        let cc = [c[0] >> shift, c[1] >> shift, c[2] >> shift];
        let counts = cell_counts.entry(cc).or_insert_with(|| vec![0; p]);
        counts[owner] += 1;
    }
    let cell_owner: std::collections::HashMap<[u32; 3], usize> = cell_counts
        .into_iter()
        .map(|(c, counts)| {
            let owner = counts
                .iter()
                .enumerate()
                .max_by_key(|(_, &n)| n)
                .map(|(i, _)| i)
                .unwrap();
            (c, owner)
        })
        .collect();
    let mut surface = vec![0usize; p];
    for (&c, &owner) in &cell_owner {
        let mut is_surface = false;
        'outer: for axis in 0..3 {
            for d in [-1i64, 1] {
                let v = c[axis] as i64 + d;
                if v < 0 || v >= (1i64 << coarse_bits) {
                    continue;
                }
                let mut n = c;
                n[axis] = v as u32;
                if let Some(&other) = cell_owner.get(&n) {
                    if other != owner {
                        is_surface = true;
                        break 'outer;
                    }
                }
            }
        }
        if is_surface {
            surface[owner] += 1;
        }
    }
    surface
}

#[cfg(test)]
mod tests {
    use super::*;
    use bonsai_util::rng::Xoshiro256;
    use bonsai_util::Aabb;

    #[test]
    fn hilbert_mean_step_is_one() {
        let s = mean_step(Curve::Hilbert, 5, 0, 5000);
        assert!((s - 1.0).abs() < 1e-12, "hilbert step {s}");
    }

    #[test]
    fn morton_mean_step_exceeds_one() {
        let s = mean_step(Curve::Morton, 5, 0, 5000);
        assert!(s > 1.2, "morton step {s} should be clearly worse than Hilbert");
    }

    #[test]
    fn hilbert_surface_smaller_than_morton() {
        // Uniform points, 5 ranges (deliberately not a power of 8: for p=8^k
        // on uniform density the Morton cuts coincide with octant boundaries
        // and are optimal, so the curves tie). With p=5 the Morton pieces
        // straddle octants and fragment, while Hilbert pieces stay connected
        // — the paper's motivation for PH decomposition (§III-B).
        let mut rng = Xoshiro256::seed_from(99);
        let pts: Vec<Vec3> = (0..40_000)
            .map(|_| Vec3::new(rng.uniform(), rng.uniform(), rng.uniform()))
            .collect();
        let bounds = Aabb::from_points(&pts);
        let mh = KeyMap::new(&bounds, Curve::Hilbert);
        let mm = KeyMap::new(&bounds, Curve::Morton);
        let sh: usize = range_surface_cells(&mh, &pts, 5).iter().sum();
        let sm: usize = range_surface_cells(&mm, &pts, 5).iter().sum();
        assert!(sh < sm, "hilbert surface {sh} should be < morton {sm}");
    }
}

//! SFC-aware rank placement on the interconnect (§VII).
//!
//! "With future techniques, such as the recently announced NVIDIA NVLINK
//! technology, it will be possible to have much faster communication between
//! GPUs in the same physical node. For Bonsai this could mean that by
//! careful placement of the MPI ranks we can communicate with our direct
//! neighbors in particle space using this high speed connection."
//!
//! Bonsai's heavy traffic is between *SFC-adjacent* ranks (the ~40 nearest
//! neighbours that need dedicated LETs). On a 3D torus, naive rank order
//! (row-major over the torus) puts SFC neighbours many hops apart; walking
//! the torus itself along a 3D Hilbert curve keeps them physically adjacent.
//! This module implements both placements and the hop-count metric the
//! `paper placement` row of `bonsai-bench` reports.

use crate::machine::Topology;

/// A placement: rank → router coordinates on a 3D torus.
#[derive(Clone, Debug)]
pub struct Placement {
    dims: [u32; 3],
    coords: Vec<[u32; 3]>,
}

/// Strategy for laying ranks onto the torus.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PlacementStrategy {
    /// Ranks in row-major (x fastest) order — the scheduler default.
    RowMajor,
    /// Ranks along a 3D Hilbert walk of the torus, so consecutive ranks are
    /// physically adjacent (the §VII proposal).
    HilbertWalk,
}

impl Placement {
    /// Place `p` ranks on a torus of the given dimensions.
    pub fn new(topology: &Topology, p: usize, strategy: PlacementStrategy) -> Self {
        let dims = match topology {
            Topology::Torus3D { dims } => *dims,
            // Dragonfly has near-uniform distance; model as a flat 1-group
            // "torus" for comparison purposes.
            Topology::Dragonfly => [1, 1, 1],
        };
        let capacity = (dims[0] * dims[1] * dims[2]) as usize;
        assert!(capacity >= 1);
        let coords = match strategy {
            PlacementStrategy::RowMajor => (0..p)
                .map(|r| {
                    let r = (r % capacity) as u32;
                    [
                        r % dims[0],
                        (r / dims[0]) % dims[1],
                        r / (dims[0] * dims[1]),
                    ]
                })
                .collect(),
            PlacementStrategy::HilbertWalk => {
                // Walk a Hilbert curve over the bounding power-of-two cube and
                // keep the visits that land inside the torus; consecutive
                // surviving cells remain close because the curve is local.
                let side = dims.iter().copied().max().unwrap().next_power_of_two();
                let bits = side.trailing_zeros().max(1);
                let mut cells = Vec::with_capacity(capacity);
                let total = 1u64 << (3 * bits);
                for k in 0..total {
                    let c = bonsai_sfc::hilbert::decode_bits(k, bits);
                    if c[0] < dims[0] && c[1] < dims[1] && c[2] < dims[2] {
                        cells.push(c);
                        if cells.len() == capacity {
                            break;
                        }
                    }
                }
                (0..p).map(|r| cells[r % cells.len()]).collect()
            }
        };
        Self { dims, coords }
    }

    /// Torus hop distance between two ranks (wrap-around Manhattan).
    pub fn hops(&self, a: usize, b: usize) -> u32 {
        let ca = self.coords[a];
        let cb = self.coords[b];
        (0..3)
            .map(|i| {
                let d = ca[i].abs_diff(cb[i]);
                d.min(self.dims[i] - d)
            })
            .sum()
    }

    /// Mean hops between each rank and its `k` nearest SFC neighbours on
    /// either side — the traffic pattern of the LET exchange.
    pub fn mean_neighbor_hops(&self, k: usize) -> f64 {
        let p = self.coords.len();
        if p < 2 {
            return 0.0;
        }
        let mut total = 0u64;
        let mut count = 0u64;
        for r in 0..p {
            for d in 1..=k {
                if r + d < p {
                    total += self.hops(r, r + d) as u64;
                    count += 1;
                }
            }
        }
        if count == 0 {
            0.0
        } else {
            total as f64 / count as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::TITAN;

    #[test]
    fn row_major_coords_cover_torus() {
        let p = Placement::new(&TITAN.topology, 1000, PlacementStrategy::RowMajor);
        assert_eq!(p.coords.len(), 1000);
        // first 25 ranks walk the x dimension
        assert_eq!(p.coords[0], [0, 0, 0]);
        assert_eq!(p.coords[1], [1, 0, 0]);
        assert_eq!(p.coords[24], [24, 0, 0]);
        assert_eq!(p.coords[25], [0, 1, 0]);
    }

    #[test]
    fn hops_metric_respects_wraparound() {
        let p = Placement::new(&TITAN.topology, 1000, PlacementStrategy::RowMajor);
        // rank 0 at [0,0,0] and rank 24 at [24,0,0]: wrap distance is 1 on a
        // 25-wide torus.
        assert_eq!(p.hops(0, 24), 1);
        assert_eq!(p.hops(0, 12), 12);
    }

    #[test]
    fn hilbert_walk_consecutive_ranks_are_adjacent() {
        let p = Placement::new(&TITAN.topology, 4096, PlacementStrategy::HilbertWalk);
        let mean = p.mean_neighbor_hops(1);
        // The curve occasionally skips (cells pruned outside the torus) but
        // stays very local.
        assert!(mean < 2.0, "hilbert mean adjacent hops {mean}");
    }

    #[test]
    fn hilbert_beats_row_major_for_let_traffic() {
        // The §VII claim, quantified: SFC placement brings the ~40-neighbour
        // LET exchange physically closer.
        for p_count in [1024usize, 4096, 16384] {
            let rm = Placement::new(&TITAN.topology, p_count, PlacementStrategy::RowMajor);
            let hw = Placement::new(&TITAN.topology, p_count, PlacementStrategy::HilbertWalk);
            let (a, b) = (rm.mean_neighbor_hops(20), hw.mean_neighbor_hops(20));
            assert!(
                b < a,
                "p={p_count}: hilbert {b} must beat row-major {a}"
            );
        }
    }

    #[test]
    fn single_rank_is_trivial() {
        let p = Placement::new(&TITAN.topology, 1, PlacementStrategy::HilbertWalk);
        assert_eq!(p.mean_neighbor_hops(4), 0.0);
    }
}

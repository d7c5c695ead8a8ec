//! # bonsai-tree
//!
//! The Barnes–Hut octree engine at the heart of the reproduction: everything
//! the paper's GPU executes (§III-A) — SFC sort, tree construction, multipole
//! computation, and the fused tree-walk + force kernel — implemented as a
//! multithreaded CPU library (key mapping, the multipole pass, the walk's
//! group fan-out and direct summation all run on the `bonsai-par`
//! thread pool, with deterministic reductions keeping every result
//! bit-identical at any thread count) with exact interaction accounting so
//! the device-model crate (`bonsai-gpu`) can convert the same operation
//! counts the paper reports into simulated device time.
//!
//! Pipeline (mirroring Bonsai's GPU stages):
//!
//! 1. [`particles::Particles`] — structure-of-arrays particle storage;
//! 2. [`build::Tree::build`] — sort by SFC key, then split key ranges by
//!    3-bit octant digits until ≤ `NLEAF` (= 16, §I) particles per leaf;
//! 3. multipole upward pass — monopole + quadrupole per cell (paper Eq. 1–2);
//! 4. [`walk`] — group-based (warp-like) tree walk with the opening-angle
//!    multipole acceptance criterion, counting every particle-particle
//!    (23 flop) and particle-cell (65 flop) interaction;
//! 5. [`direct`] — the O(N²) reference used for accuracy tests and the
//!    direct-kernel bar of the paper's Fig. 1.
//!
//! ```
//! use bonsai_tree::build::{Tree, TreeParams};
//! use bonsai_tree::walk::{self, WalkParams};
//! use bonsai_ic::plummer_sphere;
//!
//! // Build the octree over a small star cluster and evaluate self-gravity
//! // at the paper's production opening angle.
//! let tree = Tree::build(plummer_sphere(500, 42), TreeParams::default());
//! let (forces, stats) = walk::self_gravity(&tree, &WalkParams::new(0.4, 0.01));
//! assert_eq!(forces.len(), 500);
//! assert!(stats.counts.pp > 0 && stats.counts.pc > 0);
//! // flops are charged at the §VI-A rates: 23 per p-p, 65 per p-c
//! assert_eq!(stats.counts.flops(), 23 * stats.counts.pp + 65 * stats.counts.pc);
//! ```

#![deny(missing_docs)]

pub mod build;
pub mod direct;
pub mod forces;
pub mod kernels;
pub mod mac;
pub mod node;
pub mod particles;
pub mod records;
pub mod stats;
pub mod walk;

pub use build::{Tree, TreeParams};
pub use forces::{Forces, InteractionCounts};
pub use mac::OpeningCriterion;
pub use node::{Node, TreeView};
pub use particles::Particles;
pub use walk::{walk_tree, WalkParams};

/// The paper's leaf capacity: octants are split until they hold fewer than
/// this many particles (§I cites \[9\] for the choice of 16).
pub const NLEAF: usize = 16;

/// Flops charged per particle-particle interaction (§VI-A: 4 sub, 3 mul,
/// 6 fma, 1 rsqrt counted as 4).
pub const PP_FLOPS: u64 = 23;

/// Flops charged per particle-cell interaction with quadrupole corrections
/// (§VI-A: 4 sub, 6 add, 17 mul, 17 fma, 1 rsqrt counted as 4).
pub const PC_FLOPS: u64 = 65;

#[cfg(test)]
mod flop_accounting {
    use super::*;

    #[test]
    fn pp_instruction_mix_sums_to_23() {
        let (sub, mul, fma, rsqrt) = (4u64, 3, 6, 1);
        assert_eq!(sub + mul + 2 * fma + 4 * rsqrt, PP_FLOPS);
    }

    #[test]
    fn pc_instruction_mix_sums_to_65() {
        let (sub, add, mul, fma, rsqrt) = (4u64, 6, 17, 17, 1);
        assert_eq!(sub + add + mul + 2 * fma + 4 * rsqrt, PC_FLOPS);
    }
}

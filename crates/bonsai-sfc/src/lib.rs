//! # bonsai-sfc
//!
//! Space-filling-curve machinery for the parallel tree-code.
//!
//! The paper's domain decomposition (§III-B1) maps particle coordinates to
//! 63-bit Peano–Hilbert keys, sorts the global key sequence, and cuts it into
//! contiguous pieces, which guarantees every sub-domain is a union of branches
//! of a hypothetical global octree. This crate provides:
//!
//! * [`morton`] — Morton (Z-order) encode/decode, the simpler baseline curve
//!   used for tree construction and in the SFC ablation study;
//! * [`hilbert`] — 3D Hilbert encode/decode by a finite-state table (two
//!   levels a lookup, built at compile time from Skilling's per-level
//!   rule), the production curve whose superior locality shrinks domain
//!   surfaces and therefore communication volume;
//! * [`keymap`] — quantization of physical coordinates in a root cube to
//!   integer lattice coordinates and keys, and cell-geometry recovery;
//! * [`range`] — half-open key ranges as domain descriptors, plus the minimal
//!   octree-cell covering of a range (the "gray squares" of the paper's
//!   Fig. 2);
//! * [`locality`] — curve-locality metrics for the Morton-vs-Hilbert ablation.
//!
//! ```
//! use bonsai_sfc::{hilbert, KeyRange};
//!
//! // Hilbert keys are bijective and consecutive keys are lattice neighbours.
//! let c = [123_456u32, 42, 1_000_000];
//! assert_eq!(hilbert::decode(hilbert::encode(c)), c);
//!
//! // A domain (key range) decomposes into a handful of aligned octree cells.
//! let domain = KeyRange::new(1_000, 2_000_000);
//! let cells = domain.covering_cells();
//! let covered: u64 = cells.iter()
//!     .map(|&(_, level)| 1u64 << (3 * (bonsai_sfc::MAX_LEVEL - level)))
//!     .sum();
//! assert_eq!(covered, domain.len());
//! ```

#![deny(missing_docs)]

pub mod hilbert;
pub mod keymap;
pub mod locality;
pub mod morton;
pub mod range;

pub use keymap::{Curve, KeyMap};
pub use range::KeyRange;

/// Bits of resolution per spatial dimension.
pub const DIM_BITS: u32 = 21;

/// Total key bits (`3 * DIM_BITS`); keys occupy the low 63 bits of a `u64`.
pub const KEY_BITS: u32 = 3 * DIM_BITS;

/// Number of lattice cells per dimension (2²¹).
pub const DIM_CELLS: u32 = 1 << DIM_BITS;

/// One past the largest valid key (8²¹ = 2⁶³).
pub const KEY_END: u64 = 1u64 << KEY_BITS;

/// Maximum octree depth representable by a key (one level per 3 bits).
pub const MAX_LEVEL: u32 = DIM_BITS;

//! # bonsai-util
//!
//! Foundation utilities shared by every crate in the bonsai-rs workspace:
//!
//! * [`vec3`] — 3-component `f64` vector used for positions, velocities and
//!   accelerations throughout the tree-code.
//! * [`mat3`] — symmetric 3×3 matrices for multipole (quadrupole) moments.
//! * [`aabb`] — axis-aligned bounding boxes and cubic tree cells, including the
//!   box–box minimum-distance query used by the multipole acceptance criterion
//!   during Local Essential Tree construction.
//! * [`rng`] — deterministic, platform-stable pseudo-random number generators
//!   (SplitMix64 and Xoshiro256++) so that initial conditions and tests
//!   reproduce bit-identically everywhere.
//! * [`hash`] — CRC-64 checksums and mixing functions backing message-envelope
//!   and snapshot integrity checks, plus the deterministic fault-injection
//!   schedule.
//! * [`kahan`] — compensated summation for energy diagnostics.
//! * [`sorted`] — the run of one step or epoch in an append-only,
//!   key-ordered list, by binary search; such a list held one buffer per
//!   epoch ([`sorted::EpochRuns`]); the merge of sorted runs.
//! * [`stats`] — the 2D histogram of the velocity-structure analysis and
//!   the interpolated percentile of the accuracy oracle and the benchmark.
//! * [`units`] — the galactic unit system (kpc, km/s, M☉) used to express the
//!   paper's Milky Way model.

#![deny(missing_docs)]

pub mod aabb;
pub mod hash;
pub mod kahan;
pub mod mat3;
pub mod rng;
pub mod sorted;
pub mod stats;
pub mod units;
pub mod vec3;

pub use aabb::Aabb;
pub use hash::{crc64, mix64, mix_many};
pub use kahan::KahanSum;
pub use mat3::Sym3;
pub use rng::{SplitMix64, Xoshiro256};
pub use vec3::Vec3;

//! # bonsai-verify
//!
//! The force-accuracy conformance layer: the correctness backstop every
//! kernel and parallelism change is gated on.
//!
//! Three pillars (DESIGN.md §6f):
//!
//! * [`oracle`] — the **differential force oracle**: `walk_tree` vs
//!   `direct_forces` over seeded IC families ([`ic`]), sweeping
//!   θ ∈ {0.2, 0.4, 0.5, 0.75} and monopole/quadrupole kernels, with
//!   θ-dependent tolerance bands on the median/p95/max of the relative
//!   force-error distribution — the reproduction of the paper's Fig. 2
//!   methodology.
//! * [`distributed`] — the **distributed equivalence oracle**: a
//!   `bonsai-sim` [`Cluster`](bonsai_sim::Cluster) at R ∈ {1, 2, 4, 8}
//!   ranks must match the serial [`Simulation`](bonsai_core::Simulation)
//!   per particle id, with and without injected faults, proving LET
//!   construction and recovery physics-preserving.
//! * [`report`] — the **accuracy baseline**: byte-deterministic
//!   `bonsai-accuracy-v1` JSON plus the `check_accuracy` oracle that the
//!   bench gate runner (`gates`, row `accuracy`) holds in CI.

#![deny(missing_docs)]

pub mod distributed;
pub mod ic;
pub mod oracle;
pub mod report;

pub use distributed::{
    acceleration_diff, equivalence, equivalence_band, serial_reference, EquivalenceReport,
};
pub use ic::{Family, FAMILIES};
pub use oracle::{measure, tolerance_band, ErrorPercentiles, ToleranceBand, THETA_SWEEP};
pub use report::{accuracy_json, check_accuracy, run, AccuracyReport, RunConfig};

//! # bonsai-ic
//!
//! Initial-condition generators for the reproduction, standing in for the
//! (modified, distributed) GalacticICS generator the paper used (§IV).
//!
//! * [`profile`] — spherical density profiles with analytic enclosed mass
//!   and inverse-CDF radius sampling: Plummer, Hernquist (the paper's
//!   bulge), and a truncated NFW (the paper's dark halo);
//! * [`disk`] — the exponential stellar disk with sech² vertical structure,
//!   circular velocities from the composite potential, Toomre-Q radial
//!   dispersion and asymmetric-drift-corrected streaming;
//! * [`jeans`] — isotropic Jeans dispersion tables for the spheroidal
//!   components embedded in the total potential;
//! * [`plummer`] — a self-consistent Plummer sphere (distribution-function
//!   sampling) in N-body units: the standard test model;
//! * [`milkyway`] — the paper's Milky Way model: NFW halo 6.0×10¹¹ M☉ +
//!   exponential disk 5.0×10¹⁰ M☉ + Hernquist bulge 4.6×10⁹ M☉ with
//!   *equal-mass* particles, generated deterministically and in parallel
//!   slices so every rank can build exactly its share on the fly, as the
//!   paper does to avoid start-up I/O.
//!
//! ```
//! use bonsai_ic::MilkyWayModel;
//!
//! let mw = MilkyWayModel::paper();
//! // Equal-mass particles, components proportional to the §IV masses.
//! let (bulge, disk, halo) = mw.component_counts(100_000);
//! assert!(halo > 10 * disk && disk > bulge);
//! // Slice-deterministic generation: any index range, identical particles.
//! let a = mw.generate_range(10_000, 500, 510, 42);
//! let b = mw.generate_range(10_000, 0, 1_000, 42);
//! assert_eq!(a.pos[0], b.pos[500]);
//! ```

#![deny(missing_docs)]

pub mod disk;
pub mod jeans;
pub mod merger;
pub mod milkyway;
pub mod plummer;
pub mod profile;

pub use merger::{make_merger, MergerOrbit};
pub use milkyway::MilkyWayModel;
pub use plummer::plummer_sphere;
pub use profile::{Hernquist, Nfw, Plummer, Profile};

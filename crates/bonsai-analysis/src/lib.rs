//! # bonsai-analysis
//!
//! The science instruments behind the paper's Fig. 3 and the conservation
//! diagnostics behind every long integration:
//!
//! * [`density`] — mass-weighted face-on surface-density maps and radial
//!   profiles (the galaxy images of Fig. 3);
//! * [`bar`] — m = 2 Fourier bar strength `A₂`, bar phase, and pattern-speed
//!   estimation from phase drift (how we detect that "a barred spiral galaxy
//!   similar to the Milky Way has formed");
//! * [`spiral`] — azimuthal mode spectra `A_m(R)` and the pitch angle of
//!   the m-armed spiral (the arms of Fig. 3);
//! * [`velocity`] — the solar-neighbourhood (v_r, v_φ) velocity-structure
//!   histogram (Fig. 3 bottom-left, the moving-groups panel);
//! * [`energy`] — kinetic/potential/total energy, angular momentum and
//!   virial ratio (every engine's energy report), and the density centre;
//! * [`ppm`] — tiny dependency-free PPM/CSV writers so every figure can be
//!   regenerated as an actual image/table.
//!
//! ```
//! use bonsai_analysis::bar::BarAnalysis;
//! use bonsai_ic::plummer_sphere;
//!
//! // A spherical cluster has no m=2 distortion.
//! let p = plummer_sphere(5_000, 1);
//! let bar = BarAnalysis::measure(&p, 2.0, None);
//! assert!(bar.a2 < 0.1);
//! ```

#![deny(missing_docs)]

pub mod bar;
pub mod density;
pub mod energy;
pub mod ppm;
pub mod spiral;
pub mod velocity;

pub use bar::BarAnalysis;
pub use density::SurfaceDensityMap;
pub use energy::EnergyReport;
pub use velocity::VelocityStructure;

//! # bonsai-core
//!
//! The public single-process simulation API of the reproduction: a complete
//! Barnes–Hut N-body engine with the paper's algorithmic choices baked in —
//! Peano–Hilbert sorted octree rebuilt every step, NLEAF = 16, monopole +
//! quadrupole multipoles, opening angle θ (production value 0.4), Plummer
//! softening, and the 2nd-order leap-frog integrator of §III-B2.
//!
//! ```
//! use bonsai_core::{Simulation, SimulationConfig};
//! use bonsai_ic::plummer_sphere;
//!
//! let ic = plummer_sphere(1_000, 42);
//! let mut sim = Simulation::new(ic, SimulationConfig::nbody_units(0.4, 0.01, 0.01));
//! let e0 = sim.energy_report().total();
//! for _ in 0..10 {
//!     sim.step();
//! }
//! let e1 = sim.energy_report().total();
//! assert!(((e1 - e0) / e0).abs() < 1e-3);
//! ```

#![deny(missing_docs)]

pub mod config;
pub mod hybrid;
pub mod leapfrog;
pub mod sim;
pub mod snapshot;

pub use config::SimulationConfig;
pub use hybrid::{HybridConfig, HybridSimulation};
pub use sim::{Simulation, StepStats};

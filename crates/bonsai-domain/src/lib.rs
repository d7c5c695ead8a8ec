//! # bonsai-domain
//!
//! The distributed-memory machinery of the paper (§III-B): how 18600 ranks
//! agree on who owns which particles and what they must tell each other so
//! every rank can compute exact (MAC-bounded) global gravity from local data.
//!
//! * [`sampling`] — the domain decomposition: the original serial sampling
//!   method and the paper's two-level parallel variant (`p = px × py`
//!   DD-processes) that removes the serial bottleneck;
//! * [`load`] — flop-weighted load balancing with the paper's restriction
//!   that no process exceeds the mean particle count by more than 30%;
//! * [`exchange`] — the particle-exchange plan after domains move;
//! * [`remap`] — online re-decomposition across a membership view change:
//!   re-split the key space for a new world size and migrate particles
//!   between the old and new rank sets;
//! * [`lettree`] — the wire format of boundary trees and Local Essential
//!   Trees: pruned trees with `Cut` nodes as byte-level records, one writer
//!   and an in-place validator, so the network model sees real message
//!   sizes and receivers walk what arrived;
//! * [`boundary`] — boundary-tree extraction: the covering cells of a rank's
//!   key range ("gray squares" of Fig. 2) plus their ancestors;
//! * [`letbuild`] — LET construction against a remote domain's geometry,
//!   written straight into a frame, and the sender-side sufficiency check
//!   that lets distant ranks reuse the already-broadcast boundary tree as
//!   their LET.
//!
//! ```
//! use bonsai_domain::build_let;
//! use bonsai_tree::build::{Tree, TreeParams};
//! use bonsai_ic::plummer_sphere;
//! use bonsai_util::{Aabb, Vec3};
//!
//! let tree = Tree::build(plummer_sphere(2_000, 1), TreeParams::default());
//! // A distant receiver needs only a pruned multipole skeleton…
//! let far = build_let(&tree, &[Aabb::cube(Vec3::splat(100.0), 1.0)], 0.4);
//! // …while a nearby one needs cells *and* surface particles.
//! let near = build_let(&tree, &[Aabb::cube(Vec3::new(1.2, 0.0, 0.0), 0.5)], 0.4);
//! assert!(far.wire_size() < near.wire_size());
//! assert_eq!(far.particle_count(), 0);
//! // Both carry the sender's full mass — forces stay exact.
//! assert!((far.total_mass() - tree.particles.total_mass()).abs() < 1e-9);
//! ```

#![deny(missing_docs)]

pub mod boundary;
pub mod exchange;
pub mod letbuild;
pub mod lettree;
pub mod load;
pub mod remap;
pub mod sampling;

pub use boundary::{boundary_tree, write_boundary};
pub use exchange::ExchangePlan;
pub use letbuild::{boundary_sufficient_for, build_let, write_let};
pub use lettree::{LetFrame, LetTree, Role};
pub use remap::replan;

//! # bonsai-net
//!
//! The machines and networks of the paper, as models, plus a real in-process
//! message fabric for the logical ranks of the cluster simulator.
//!
//! * [`machine`] — Table I as data: Piz Daint (Cray XC30, Aries dragonfly,
//!   Xeon E5-2670) and Titan (Cray XK7, Gemini 3D torus, Opteron 6274),
//!   including the host-CPU rates that make LET generation visibly slower on
//!   Titan (§VI-B);
//! * [`collective`] — the one validated exchange every inter-rank payload
//!   and the membership gossip ride on: send, drain, validate, retransmit
//!   the missing, over the `&mut` [`Wire`] its caller owns, with a fixed
//!   order of operations so logs and flow ids are deterministic — sealing
//!   and opening run as rank tasks on the caller's
//!   [`Lanes`](collective::Lanes), every wire effect on the caller's thread;
//! * [`cost`] — the interconnect cost model: point-to-point and allgatherv
//!   times from (latency, injection bandwidth, topology congestion), the
//!   bytes→seconds half of the communication rows of Table II;
//! * [`fabric`] — crossbeam-channel message passing between in-process
//!   ranks, driven by `bonsai-sim`'s cluster through [`collective`]: real
//!   bytes flow, the network model charges simulated time for them;
//! * [`envelope`] — versioned, CRC-64-checksummed framing for every payload
//!   that crosses the fabric, so corruption and truncation are detected
//!   instead of deserialized;
//! * [`fault`] — deterministic, seeded fault injection ([`FaultPlan`]), the
//!   audit log of injected faults and recovery actions ([`FaultLog`]), and
//!   [`Wire`]: endpoints, plan, held-back frames, log and ledger as one
//!   plain value with one owner — no lock, no shared handle;
//! * [`flow`] — the per-message flow ledger ([`FlowLedger`], owned by the
//!   wire): every sealed envelope is one flow whose lifecycle (seal →
//!   retransmit → deliver | dead) is recorded deterministically, with a
//!   conservation invariant the chaos suites assert; its id is the key the
//!   fault log's events name;
//! * [`membership`] — coordinator-free epoch-based rank membership: views
//!   as sorted stable node-id sets, join/leave/death proposals gossiped
//!   over the faulty fabric until every live rank holds the same next
//!   view, giving the cluster a dynamic world size;
//! * [`obs`] — bridges into the unified `bonsai-obs` layer: fault-log
//!   entries become COMM-track trace events anchored at the flows they
//!   name, link traffic lands in the
//!   metrics registry priced by the cost model;
//! * [`placement`] — §VII's SFC-aware rank placement on the torus.
//!
//! ```
//! use bonsai_net::{NetworkModel, PIZ_DAINT, TITAN};
//!
//! // The Aries dragonfly beats the Gemini torus for dense collectives —
//! // the reason Piz Daint's Table II communication rows are smaller.
//! let daint = NetworkModel::new(PIZ_DAINT);
//! let titan = NetworkModel::new(TITAN);
//! assert!(daint.allgatherv_time(4096, 12_000) < titan.allgatherv_time(4096, 12_000));
//! ```

#![deny(missing_docs)]

pub mod collective;
pub mod cost;
pub mod envelope;
pub mod fabric;
pub mod fault;
pub mod flow;
pub mod machine;
pub mod membership;
pub mod obs;
pub mod placement;

pub use cost::NetworkModel;
pub use envelope::{Envelope, EnvelopeError};
pub use fabric::{Endpoint, Fabric, Message, MsgKind};
pub use fault::{
    FaultEvent, FaultKind, FaultLog, FaultPlan, Injection, RecoveryAction, RecoveryEvent, Wire,
};
pub use flow::{FlowConservation, FlowLedger, FlowOutcome, FlowRecord};
pub use machine::{MachineSpec, Topology, PIZ_DAINT, TITAN};
pub use membership::{Convergence, MembershipEvent, MembershipLog, View, ViewChange};
pub use placement::{Placement, PlacementStrategy};

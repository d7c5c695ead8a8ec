//! # bonsai-sim
//!
//! The distributed half of the reproduction: logical MPI ranks executing the
//! full Bonsai step of §III-B on real data, plus the calibrated machine
//! model that extrapolates the measured algorithm to the paper's 18600-GPU
//! scale.
//!
//! Two layers:
//!
//! * [`cluster`] — the lock-step cluster simulator, the one distributed
//!   runtime. Every phase of the paper's step runs for real: two-level
//!   sample-sort domain decomposition, particle exchange, per-rank tree
//!   builds over a shared global key map, boundary-tree "allgather",
//!   sender-side sufficiency checks, dedicated LET construction for near
//!   neighbours, and per-rank force walks whose results are *provably*
//!   equivalent to a single-process evaluation. Byte volumes and
//!   interaction counts are measured, then charged to the GPU/network
//!   models to produce simulated per-phase times (Table II rows).
//!
//!   Every cluster payload crosses `bonsai-net`'s fabric in checksummed
//!   envelopes, and [`Cluster::with_faults`] accepts a seeded fault plan:
//!   the step detects and recovers from dropped, duplicated, reordered,
//!   delayed, truncated and bit-flipped messages, degrades gracefully when
//!   dedicated LETs are lost, and rolls back to the last [`checkpoint`]
//!   when a rank crashes — with every event recorded in an auditable fault
//!   log. A finished step is a value ([`StepFacts`]): the one run monitor
//!   ([`longrun`]), with its optional scaling policy ([`autoscale`]) and
//!   telemetry tap ([`stream`]), reads it and the cluster's trace and
//!   metrics stores, never the cluster.
//! * [`model`] — the calibrated scaling model: given a machine, rank count
//!   and particles/GPU, predict every row of Table II and every curve of
//!   Fig. 4, including the 24.77 / 33.49 Pflops headline numbers.
//!
//! ```
//! use bonsai_sim::ScalingModel;
//!
//! // The record configuration: 18600 Titan GPUs × 13M particles.
//! let b = ScalingModel::titan().predict(18600, 13_000_000);
//! let app_pflops = b.total_flops() / b.total() / 1e15;
//! assert!((app_pflops - 24.77).abs() / 24.77 < 0.05); // §VI-D headline
//! assert!((b.total() - 4.77).abs() < 0.3);            // Table II step time
//! ```

#![deny(missing_docs)]

pub mod autoscale;
pub mod breakdown;
pub mod checkpoint;
pub mod cluster;
pub mod longrun;
pub mod model;
pub mod profile;
pub mod stream;
pub mod trace;

pub use autoscale::{AutoscaleConfig, AutoscalePolicy, ScaleDecision};
pub use breakdown::StepBreakdown;
pub use checkpoint::Checkpoint;
pub use cluster::{Cluster, ClusterConfig, RecoveryConfig, StepFacts};
pub use longrun::{LongRunConfig, RunMonitor};
pub use model::ScalingModel;
pub use profile::cost_model_attribution;
pub use stream::{StreamConfig, StreamTap};

//! Cross-rank analysis over the span store.
//!
//! The paper's headline claims are *cross-rank*: Table II's breakdown is a
//! max-over-ranks story, Fig. 4's >95% weak-scaling efficiency is a ratio of
//! step wall-times, and the flop balancer's job is to keep 18600 GPUs
//! finishing together. A single rank's timeline cannot explain any of them.
//! This module family turns the [`TraceStore`](crate::TraceStore) into those
//! answers:
//!
//! * [`critical`] — extract the critical path of a step: the chain of spans
//!   (plus cross-rank waits) whose durations sum exactly to the measured
//!   step wall-time, with per-phase attribution and waits by cause.
//! * [`imbalance`] — per-phase max/mean across ranks, named worst-rank
//!   attribution, and the flop-balance residual recomputed from
//!   gravity-span `flops` annotations.
//! * [`efficiency`] — weak- and strong-scaling parallel efficiency from a
//!   series of measured step wall-times.
//! * [`waits`] — the causal taxonomy a wait is charged to (late sender,
//!   retransmission, stall, fabric fallback). The flow analysis that
//!   classifies into it reads the flow ledger, so it lives beside the
//!   ledger, in `bonsai-net::obs`.

pub mod critical;
pub mod efficiency;
pub mod imbalance;
pub mod waits;

pub use critical::{critical_path, CriticalPath, PathNode, UNATTRIBUTED};
pub use efficiency::{strong_efficiency, weak_efficiency, ScalingPoint};
pub use imbalance::{flop_balance, phase_stats, step_wall_time, FlopBalance, PhaseStats};
pub use waits::WaitCause;

//! The wait-attribution taxonomy: the causal classes a critical-path wait
//! or an exposed-communication interval is charged to.
//!
//! | cause            | meaning                                              |
//! |------------------|------------------------------------------------------|
//! | `fallback`       | a causal flow was abandoned to the fabric fallback   |
//! | `stall`          | a causal flow was stalled in the fabric              |
//! | `retransmission` | a causal flow needed ≥ 2 attempts                    |
//! | `late-sender`    | flows arrived clean; the sender was simply late      |
//! | `unattributed`   | no causal flow could be identified                   |
//!
//! The priority order (fallback > stall > retransmission > late-sender)
//! mirrors severity: a fallback costs a whole collective reroute, a stall a
//! full timeout, a retransmission one RTO, a late sender only imbalance.
//! The producer classifies the flows it owns (`bonsai-net::obs::classify`)
//! and records the label as the `cause` arg of its barrier `wait` spans,
//! which is what [`critical_path`](super::critical_path) harvests.

/// Causal classification of a wait or exposed-comm interval.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum WaitCause {
    /// A causal flow was recovered by the fabric fallback path.
    Fallback,
    /// A causal flow was stalled inside the fabric.
    Stall,
    /// A causal flow needed more than one attempt.
    Retransmission,
    /// Flows arrived clean on the first attempt; the sender was late.
    LateSender,
    /// No causal flow could be identified for the interval.
    Unattributed,
}

impl WaitCause {
    /// Stable label used in trace args, reports, and bench artifacts.
    pub fn name(self) -> &'static str {
        match self {
            WaitCause::Fallback => "fallback",
            WaitCause::Stall => "stall",
            WaitCause::Retransmission => "retransmission",
            WaitCause::LateSender => "late-sender",
            WaitCause::Unattributed => "unattributed",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification_follows_severity_priority() {
        assert!(WaitCause::Fallback < WaitCause::Stall);
        assert!(WaitCause::Stall < WaitCause::Retransmission);
        assert!(WaitCause::Retransmission < WaitCause::LateSender);
        assert!(WaitCause::LateSender < WaitCause::Unattributed);
        assert_eq!(WaitCause::Fallback.name(), "fallback");
        assert_eq!(WaitCause::Unattributed.name(), "unattributed");
    }
}

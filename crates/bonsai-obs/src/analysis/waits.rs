//! The wait-attribution taxonomy: the causal classes a critical-path wait
//! or an exposed-communication interval is charged to.
//!
//! | cause            | meaning                                              |
//! |------------------|------------------------------------------------------|
//! | `retransmission` | a causal flow needed ≥ 2 attempts                    |
//! | `late-sender`    | flows arrived clean; the sender was simply late      |
//! | `unattributed`   | no causal flow could be identified                   |
//!
//! The priority order (retransmission > late-sender) mirrors severity: a
//! retransmission costs one RTO, a late sender only imbalance. A completed
//! epoch carries no other kind of flow: a peer silent through the retry
//! budget rolls the cluster back, and the abandoned epoch is never
//! attributed. The producer classifies the flows it owns
//! (`bonsai-net::obs::classify`) and records the label as the `cause` arg
//! of its barrier `wait` spans, which is what
//! [`critical_path`](super::critical_path) harvests.

/// Causal classification of a wait or exposed-comm interval.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum WaitCause {
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
        assert!(WaitCause::Retransmission < WaitCause::LateSender);
        assert!(WaitCause::LateSender < WaitCause::Unattributed);
        assert_eq!(WaitCause::Retransmission.name(), "retransmission");
        assert_eq!(WaitCause::Unattributed.name(), "unattributed");
    }
}

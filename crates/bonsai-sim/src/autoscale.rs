//! Health-driven autoscaling: the policy half of elastic membership.
//!
//! The membership protocol (`bonsai-net::membership`) gives the cluster a
//! dynamic world size; this module decides *when* to use it. The policy
//! consumes the alert transitions the long-run health rules fire inside
//! every [`Cluster::step`](crate::Cluster::step) — a sustained step-time
//! creep or flop imbalance means the current rank count is struggling, so
//! grow; a sustained stretch of under-populated ranks means capacity is
//! idle, so shrink. Decisions are pure functions of the observed signals,
//! so a seeded run autoscales identically every time.
//!
//! Scaling actions are rate-limited by a cooldown: a view change re-splits
//! the key space and re-evaluates forces, and the health rules need a few
//! steps of post-change signal before their verdict on the *new* world
//! means anything.

use bonsai_obs::health::{AlertEvent, AlertKind};

/// Bounds and thresholds of the autoscaling policy.
#[derive(Clone, Debug)]
pub struct AutoscaleConfig {
    /// Never shrink below this many ranks.
    pub min_ranks: usize,
    /// Never grow beyond this many ranks.
    pub max_ranks: usize,
    /// Ranks admitted per grow decision.
    pub grow_by: usize,
    /// Ranks retired per shrink decision.
    pub shrink_by: usize,
    /// Steps to hold after any scaling action before deciding again.
    pub cooldown_steps: u64,
    /// Mean particles per rank below which a rank is considered idle.
    pub idle_particles_per_rank: f64,
    /// Consecutive idle steps before a shrink fires.
    pub idle_steps: u64,
    /// Health rules whose *open* transition triggers a grow.
    pub grow_rules: Vec<String>,
}

impl Default for AutoscaleConfig {
    fn default() -> Self {
        Self {
            min_ranks: 1,
            max_ranks: 64,
            grow_by: 2,
            shrink_by: 1,
            cooldown_steps: 8,
            idle_particles_per_rank: 256.0,
            idle_steps: 4,
            grow_rules: vec!["step-time-creep".to_string(), "flop-imbalance".to_string()],
        }
    }
}

/// What the policy wants done after a step.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ScaleDecision {
    /// Admit this many fresh ranks.
    Grow(usize),
    /// Gracefully retire this many ranks.
    Shrink(usize),
    /// Leave the world alone.
    Hold,
}

impl std::fmt::Display for ScaleDecision {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScaleDecision::Grow(k) => write!(f, "grow(+{k})"),
            ScaleDecision::Shrink(k) => write!(f, "shrink(-{k})"),
            ScaleDecision::Hold => write!(f, "hold"),
        }
    }
}

/// The stateful policy: tracks the cooldown window and the idle streak,
/// and keeps an auditable log of every non-hold decision.
#[derive(Clone, Debug)]
pub struct AutoscalePolicy {
    cfg: AutoscaleConfig,
    last_change: Option<u64>,
    idle_run: u64,
    decisions: Vec<(u64, ScaleDecision)>,
}

impl AutoscalePolicy {
    /// Fresh policy with no history.
    pub fn new(cfg: AutoscaleConfig) -> Self {
        Self {
            cfg,
            last_change: None,
            idle_run: 0,
            decisions: Vec::new(),
        }
    }

    /// Every grow/shrink the policy ordered, in step order.
    pub fn decisions(&self) -> &[(u64, ScaleDecision)] {
        &self.decisions
    }

    /// One decision from one step's evidence: the current world size, the
    /// mean particles per rank, and the alert transitions the health rules
    /// fired this step. Growth (a rule from `grow_rules` opening) wins over
    /// shrink; both respect the min/max bounds and the cooldown.
    pub fn decide(
        &mut self,
        step: u64,
        world: usize,
        mean_particles_per_rank: f64,
        alerts: &[AlertEvent],
    ) -> ScaleDecision {
        // The idle streak accumulates even through the cooldown, so a
        // genuinely over-provisioned cluster shrinks as soon as the window
        // opens rather than restarting the count.
        if mean_particles_per_rank < self.cfg.idle_particles_per_rank && world > self.cfg.min_ranks
        {
            self.idle_run += 1;
        } else {
            self.idle_run = 0;
        }
        if let Some(last) = self.last_change {
            if step.saturating_sub(last) < self.cfg.cooldown_steps {
                return ScaleDecision::Hold;
            }
        }
        let wants_growth = alerts.iter().any(|a| {
            a.kind == AlertKind::Open && self.cfg.grow_rules.contains(&a.rule)
        });
        let decision = if wants_growth {
            let k = self.cfg.grow_by.min(self.cfg.max_ranks.saturating_sub(world));
            if k > 0 {
                ScaleDecision::Grow(k)
            } else {
                ScaleDecision::Hold
            }
        } else if self.idle_run >= self.cfg.idle_steps {
            let k = self.cfg.shrink_by.min(world.saturating_sub(self.cfg.min_ranks));
            if k > 0 {
                ScaleDecision::Shrink(k)
            } else {
                ScaleDecision::Hold
            }
        } else {
            ScaleDecision::Hold
        };
        if decision != ScaleDecision::Hold {
            self.last_change = Some(step);
            self.idle_run = 0;
            self.decisions.push((step, decision));
        }
        decision
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bonsai_obs::health::Severity;

    fn open_alert(step: u64, rule: &str) -> AlertEvent {
        AlertEvent {
            step,
            rule: rule.to_string(),
            metric: "m".to_string(),
            severity: Severity::Warning,
            kind: AlertKind::Open,
            value: 1.0,
            detail: String::new(),
        }
    }

    #[test]
    fn grow_rule_opening_triggers_growth_once_per_cooldown() {
        let mut p = AutoscalePolicy::new(AutoscaleConfig {
            cooldown_steps: 5,
            ..AutoscaleConfig::default()
        });
        let a = [open_alert(3, "step-time-creep")];
        assert_eq!(p.decide(3, 4, 1e4, &a), ScaleDecision::Grow(2));
        // Same alert inside the cooldown: held.
        let b = [open_alert(5, "flop-imbalance")];
        assert_eq!(p.decide(5, 6, 1e4, &b), ScaleDecision::Hold);
        // After the window, growth resumes.
        assert_eq!(p.decide(9, 6, 1e4, &b), ScaleDecision::Grow(2));
        assert_eq!(p.decisions().len(), 2);
    }

    #[test]
    fn unrelated_rules_and_close_transitions_do_not_grow() {
        let mut p = AutoscalePolicy::new(AutoscaleConfig::default());
        let mut close = open_alert(1, "step-time-creep");
        close.kind = AlertKind::Close;
        assert_eq!(p.decide(1, 4, 1e4, &[close]), ScaleDecision::Hold);
        let other = [open_alert(2, "energy-drift")];
        assert_eq!(p.decide(2, 4, 1e4, &other), ScaleDecision::Hold);
    }

    #[test]
    fn sustained_idle_shrinks_and_respects_min() {
        let mut p = AutoscalePolicy::new(AutoscaleConfig {
            idle_steps: 3,
            cooldown_steps: 0,
            min_ranks: 2,
            ..AutoscaleConfig::default()
        });
        assert_eq!(p.decide(1, 4, 10.0, &[]), ScaleDecision::Hold);
        assert_eq!(p.decide(2, 4, 10.0, &[]), ScaleDecision::Hold);
        assert_eq!(p.decide(3, 4, 10.0, &[]), ScaleDecision::Shrink(1));
        // The streak resets after the action.
        assert_eq!(p.decide(4, 3, 10.0, &[]), ScaleDecision::Hold);
        // At the floor, idleness no longer counts.
        let mut q = AutoscalePolicy::new(AutoscaleConfig {
            idle_steps: 1,
            cooldown_steps: 0,
            min_ranks: 2,
            ..AutoscaleConfig::default()
        });
        assert_eq!(q.decide(1, 2, 10.0, &[]), ScaleDecision::Hold);
    }

    #[test]
    fn growth_clamps_to_max_ranks() {
        let mut p = AutoscalePolicy::new(AutoscaleConfig {
            max_ranks: 5,
            grow_by: 4,
            ..AutoscaleConfig::default()
        });
        let a = [open_alert(1, "flop-imbalance")];
        assert_eq!(p.decide(1, 4, 1e4, &a), ScaleDecision::Grow(1));
        let b = [open_alert(20, "flop-imbalance")];
        assert_eq!(p.decide(20, 5, 1e4, &b), ScaleDecision::Hold);
    }
}

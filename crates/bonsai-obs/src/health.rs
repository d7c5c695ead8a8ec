//! Declarative health rules over the per-step metric stream.
//!
//! A sustained production run lives or dies on catching energy drift,
//! load-imbalance creep and comm-exposure regressions *while the run is in
//! flight*. A [`Rule`] names a metric, a [`Condition`] (threshold, relative
//! drift against the first observed value, or windowed trend), a
//! [`Severity`], and a time hysteresis: the alert opens only after
//! `for_steps` consecutive breaches and closes only after `clear_steps`
//! consecutive clean steps, so a single noisy sample neither pages nor
//! flaps. Every open/close lands in an append-only [`AlertEvent`] log whose
//! rendering is byte-deterministic — the incident log can be diffed across
//! runs like every other artefact of this workspace.
//!
//! The engine is pure state-machine arithmetic over `(step, metric, value)`
//! observations; feeding it is the caller's job (the cluster evaluates it
//! inside its step, benches feed synthetic streams in tests).

use crate::json::fmt_f64;
use std::collections::VecDeque;

/// How loudly an open alert should be treated.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Worth a line in the log.
    Info,
    /// Needs a look before the run ends.
    Warning,
    /// The run is wasting allocation; stop or intervene.
    Critical,
}

impl Severity {
    /// Stable lowercase name (used by exports).
    pub fn name(self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Critical => "critical",
        }
    }
}

/// The breach predicate of a rule.
#[derive(Clone, Debug)]
pub enum Condition {
    /// Breach while `value > limit`.
    Above(f64),
    /// Breach while `value < limit`.
    Below(f64),
    /// Breach while `|value − first| > limit · max(|first|, 1e-12)`, where
    /// `first` is the rule's first observed value (relative drift against
    /// the run's own baseline).
    DriftAbove(f64),
    /// Windowed trend: keep the last `window` values; once full, breach
    /// while `mean(newer half) − mean(older half)` exceeds
    /// `rise · max(|mean(older half)|, 1e-12)` (relative creep detector).
    TrendAbove {
        /// Samples in the comparison window (≥ 2).
        window: usize,
        /// Relative rise between the window's halves that breaches.
        rise: f64,
    },
}

impl Condition {
    fn describe(&self) -> String {
        match self {
            Condition::Above(l) => format!("above {}", fmt_f64(*l)),
            Condition::Below(l) => format!("below {}", fmt_f64(*l)),
            Condition::DriftAbove(l) => format!("drifted more than {} from baseline", fmt_f64(*l)),
            Condition::TrendAbove { window, rise } => {
                format!("rising more than {} over {window} steps", fmt_f64(*rise))
            }
        }
    }
}

/// One declarative health rule.
#[derive(Clone, Debug)]
pub struct Rule {
    /// Stable rule name (`energy-drift`, `recovery-storm`).
    pub name: String,
    /// Metric the rule watches (rendered registry key).
    pub metric: String,
    /// Breach predicate.
    pub condition: Condition,
    /// Severity while open.
    pub severity: Severity,
    /// Consecutive breaching steps before the alert opens (≥ 1).
    pub for_steps: u32,
    /// Consecutive clean steps before an open alert closes (≥ 1).
    pub clear_steps: u32,
}

impl Rule {
    /// Build a rule (clamps the hysteresis counts to ≥ 1).
    pub fn new(
        name: &str,
        metric: &str,
        condition: Condition,
        severity: Severity,
        for_steps: u32,
        clear_steps: u32,
    ) -> Self {
        Self {
            name: name.to_string(),
            metric: metric.to_string(),
            condition,
            severity,
            for_steps: for_steps.max(1),
            clear_steps: clear_steps.max(1),
        }
    }
}

/// The default rule set of a long production run: the five failure modes
/// the paper's §VI-C run had to watch. Thresholds are deliberately loose —
/// they flag pathology, not noise.
pub fn default_rules() -> Vec<Rule> {
    vec![
        // Energy drift: the conservation monitor. Warning at 0.1%, critical
        // at 1% relative drift from the run's initial energy.
        Rule::new(
            "energy-drift",
            "bonsai_energy_drift",
            Condition::Above(1.0e-3),
            Severity::Warning,
            3,
            3,
        ),
        Rule::new(
            "energy-runaway",
            "bonsai_energy_drift",
            Condition::Above(1.0e-2),
            Severity::Critical,
            2,
            2,
        ),
        // Flop-balance residual: the §III-B1 balancer is lagging when the
        // measured max/mean walk-flop share stays above 1.6.
        Rule::new(
            "flop-imbalance",
            "bonsai_flop_residual",
            Condition::Above(1.6),
            Severity::Warning,
            5,
            5,
        ),
        // Hidden-comm fraction: §III-B2's overlap story fails when most of
        // the LET exchange is exposed.
        Rule::new(
            "comm-exposed",
            "bonsai_hidden_comm_fraction",
            Condition::Below(0.10),
            Severity::Warning,
            5,
            5,
        ),
        // Achieved-Gflops floor and sag: a collapse to (near) zero is
        // critical; a sustained 40% sag from the run's own opening rate is
        // a warning.
        Rule::new(
            "gflops-floor",
            "bonsai_gpu_gflops",
            Condition::Below(1.0),
            Severity::Critical,
            3,
            3,
        ),
        Rule::new(
            "gflops-sag",
            "bonsai_gpu_gflops",
            Condition::DriftAbove(0.4),
            Severity::Warning,
            5,
            5,
        ),
        // Step-time creep: the windowed-trend detector over the simulated
        // step seconds.
        Rule::new(
            "step-time-creep",
            "bonsai_step_seconds",
            Condition::TrendAbove {
                window: 50,
                rise: 0.25,
            },
            Severity::Warning,
            1,
            10,
        ),
        // Fault-recovery storm: more than 10 recovery actions per step,
        // sustained, means the fabric (or a rank) is sick.
        Rule::new(
            "recovery-storm",
            "bonsai_recovery_actions",
            Condition::Above(10.0),
            Severity::Warning,
            2,
            2,
        ),
    ]
}

/// Did an alert open or close?
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AlertKind {
    /// The rule breached through its hysteresis and is now open.
    Open,
    /// The open rule stayed clean through its hysteresis and closed.
    Close,
}

impl AlertKind {
    /// Stable lowercase name.
    pub fn name(self) -> &'static str {
        match self {
            AlertKind::Open => "open",
            AlertKind::Close => "close",
        }
    }
}

/// One entry of the incident log.
#[derive(Clone, Debug)]
pub struct AlertEvent {
    /// Step the transition happened on.
    pub step: u64,
    /// Rule name.
    pub rule: String,
    /// Metric the rule watches.
    pub metric: String,
    /// Rule severity.
    pub severity: Severity,
    /// Open or close.
    pub kind: AlertKind,
    /// Metric value at the transition.
    pub value: f64,
    /// Human-readable, deterministic description.
    pub detail: String,
}

impl AlertEvent {
    /// One-line deterministic rendering (the incident-log line format).
    pub fn render(&self) -> String {
        format!(
            "step {:>6}  {:<5}  {:<18} [{}]  {} = {}  ({})",
            self.step,
            self.kind.name().to_uppercase(),
            self.rule,
            self.severity.name(),
            self.metric,
            fmt_f64(self.value),
            self.detail
        )
    }
}

/// Per-rule evaluation state.
#[derive(Clone, Debug, Default)]
struct RuleState {
    baseline: Option<f64>,
    window: VecDeque<f64>,
    breach_run: u32,
    clear_run: u32,
    open: bool,
    opened_at: Option<u64>,
}

/// The rule engine: evaluates every rule against the metric stream and
/// keeps the append-only alert log.
#[derive(Clone, Debug)]
pub struct HealthMonitor {
    rules: Vec<Rule>,
    states: Vec<RuleState>,
    events: Vec<AlertEvent>,
}

impl HealthMonitor {
    /// Engine over the given rules.
    pub fn new(rules: Vec<Rule>) -> Self {
        let states = rules.iter().map(|_| RuleState::default()).collect();
        Self {
            rules,
            states,
            events: Vec::new(),
        }
    }

    /// Evaluate `rule` too, from the next observation on.
    pub fn add_rule(&mut self, rule: Rule) {
        self.rules.push(rule);
        self.states.push(RuleState::default());
    }

    /// The rules being evaluated.
    pub fn rules(&self) -> &[Rule] {
        &self.rules
    }

    /// Feed one `(step, metric, value)` observation to every rule watching
    /// `metric`. Returns the events (opens/closes) this observation fired;
    /// they are also appended to [`HealthMonitor::events`].
    pub fn observe(&mut self, step: u64, metric: &str, value: f64) -> Vec<AlertEvent> {
        let mut fired = Vec::new();
        for (rule, st) in self.rules.iter().zip(&mut self.states) {
            if rule.metric != metric {
                continue;
            }
            let breach = evaluate(&rule.condition, value, st);
            if st.open {
                if breach {
                    st.clear_run = 0;
                } else {
                    st.clear_run += 1;
                    if st.clear_run >= rule.clear_steps {
                        st.open = false;
                        st.clear_run = 0;
                        st.breach_run = 0;
                        let opened = st.opened_at.take();
                        let ev = AlertEvent {
                            step,
                            rule: rule.name.clone(),
                            metric: rule.metric.clone(),
                            severity: rule.severity,
                            kind: AlertKind::Close,
                            value,
                            detail: match opened {
                                Some(o) => format!(
                                    "clean for {} steps; was open since step {o}",
                                    rule.clear_steps
                                ),
                                None => format!("clean for {} steps", rule.clear_steps),
                            },
                        };
                        fired.push(ev.clone());
                        self.events.push(ev);
                    }
                }
            } else if breach {
                st.breach_run += 1;
                if st.breach_run >= rule.for_steps {
                    st.open = true;
                    st.breach_run = 0;
                    st.clear_run = 0;
                    st.opened_at = Some(step);
                    let ev = AlertEvent {
                        step,
                        rule: rule.name.clone(),
                        metric: rule.metric.clone(),
                        severity: rule.severity,
                        kind: AlertKind::Open,
                        value,
                        detail: format!("{} for {} consecutive steps", rule.condition.describe(), rule.for_steps),
                    };
                    fired.push(ev.clone());
                    self.events.push(ev);
                }
            } else {
                st.breach_run = 0;
            }
        }
        fired
    }

    /// The full append-only alert log.
    pub fn events(&self) -> &[AlertEvent] {
        &self.events
    }

    /// Names of the rules currently open, in rule order.
    pub fn open_rules(&self) -> Vec<&Rule> {
        self.rules
            .iter()
            .zip(&self.states)
            .filter(|(_, s)| s.open)
            .map(|(r, _)| r)
            .collect()
    }

    /// The worst severity that ever opened (`None` = the run stayed clean).
    pub fn worst_opened(&self) -> Option<Severity> {
        self.events
            .iter()
            .filter(|e| e.kind == AlertKind::Open)
            .map(|e| e.severity)
            .max()
    }

    /// Number of opens at `severity` over the whole run.
    pub fn opened_count(&self, severity: Severity) -> usize {
        self.events
            .iter()
            .filter(|e| e.kind == AlertKind::Open && e.severity == severity)
            .count()
    }

    /// Byte-deterministic incident log: one line per open/close in order,
    /// or an explicit all-clear line.
    pub fn render_log(&self) -> String {
        if self.events.is_empty() {
            return "no alerts opened\n".to_string();
        }
        let mut s = String::new();
        for e in &self.events {
            s.push_str(&e.render());
            s.push('\n');
        }
        s
    }
}

/// Evaluate `cond` for one new `value`, updating the per-rule `state`
/// (baseline capture, trend window).
fn evaluate(cond: &Condition, value: f64, st: &mut RuleState) -> bool {
    match cond {
        Condition::Above(l) => value > *l,
        Condition::Below(l) => value < *l,
        Condition::DriftAbove(l) => {
            let base = *st.baseline.get_or_insert(value);
            (value - base).abs() > *l * base.abs().max(1e-12)
        }
        Condition::TrendAbove { window, rise } => {
            let w = (*window).max(2);
            st.window.push_back(value);
            while st.window.len() > w {
                st.window.pop_front();
            }
            if st.window.len() < w {
                return false;
            }
            let half = w / 2;
            let older: f64 = st.window.iter().take(half).sum::<f64>() / half as f64;
            let newer: f64 =
                st.window.iter().skip(w - half).sum::<f64>() / half as f64;
            newer - older > *rise * older.abs().max(1e-12)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn above_rule(for_steps: u32, clear_steps: u32) -> Vec<Rule> {
        vec![Rule::new(
            "hot",
            "m",
            Condition::Above(1.0),
            Severity::Warning,
            for_steps,
            clear_steps,
        )]
    }

    #[test]
    fn hysteresis_filters_single_step_noise() {
        let mut h = HealthMonitor::new(above_rule(3, 2));
        // One-step spike: never opens.
        for (step, v) in [(1, 0.0), (2, 5.0), (3, 0.0), (4, 0.0)] {
            assert!(h.observe(step, "m", v).is_empty());
        }
        // Three consecutive breaches open exactly once.
        assert!(h.observe(5, "m", 2.0).is_empty());
        assert!(h.observe(6, "m", 2.0).is_empty());
        let fired = h.observe(7, "m", 2.0);
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].kind, AlertKind::Open);
        assert_eq!(fired[0].step, 7);
        // Still breaching: no duplicate open.
        assert!(h.observe(8, "m", 3.0).is_empty());
        assert_eq!(h.open_rules().len(), 1);
        // One clean step is not enough to close...
        assert!(h.observe(9, "m", 0.5).is_empty());
        // ...a breach resets the clear run...
        assert!(h.observe(10, "m", 2.0).is_empty());
        assert!(h.observe(11, "m", 0.5).is_empty());
        // ...two consecutive clean steps close.
        let fired = h.observe(12, "m", 0.5);
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].kind, AlertKind::Close);
        assert!(h.open_rules().is_empty());
        assert_eq!(h.worst_opened(), Some(Severity::Warning));
    }

    #[test]
    fn drift_rule_uses_first_value_as_baseline() {
        let mut h = HealthMonitor::new(vec![Rule::new(
            "sag",
            "g",
            Condition::DriftAbove(0.5),
            Severity::Warning,
            1,
            1,
        )]);
        assert!(h.observe(1, "g", 100.0).is_empty()); // baseline = 100
        assert!(h.observe(2, "g", 80.0).is_empty()); // 20% drift: clean
        let fired = h.observe(3, "g", 40.0); // 60% drift: open
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].kind, AlertKind::Open);
        let fired = h.observe(4, "g", 90.0);
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].kind, AlertKind::Close);
    }

    #[test]
    fn trend_rule_needs_a_full_window() {
        let mut h = HealthMonitor::new(vec![Rule::new(
            "creep",
            "t",
            Condition::TrendAbove {
                window: 4,
                rise: 0.5,
            },
            Severity::Info,
            1,
            1,
        )]);
        // Rising stream, but the window isn't full yet.
        assert!(h.observe(1, "t", 1.0).is_empty());
        assert!(h.observe(2, "t", 1.0).is_empty());
        assert!(h.observe(3, "t", 2.0).is_empty());
        // Window [1,1,2,2]: newer mean 2.0 vs older 1.0 → +100% > 50%.
        let fired = h.observe(4, "t", 2.0);
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].kind, AlertKind::Open);
        // Flattening stream closes it: window [1,2,2,2] → newer mean 2.0 vs
        // older 1.5 = +33% < 50%, and clear_steps = 1 closes at once.
        let fired = h.observe(5, "t", 2.0);
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].kind, AlertKind::Close);
        assert!(h.open_rules().is_empty());
    }

    #[test]
    fn unrelated_metrics_do_not_advance_rules() {
        let mut h = HealthMonitor::new(above_rule(1, 1));
        assert!(h.observe(1, "other", 99.0).is_empty());
        assert!(h.events().is_empty());
    }

    #[test]
    fn log_renders_deterministically() {
        let run = || {
            let mut h = HealthMonitor::new(above_rule(2, 1));
            for (s, v) in [(1, 2.0), (2, 2.0), (3, 0.0), (4, 0.0)] {
                h.observe(s, "m", v);
            }
            h.render_log()
        };
        let a = run();
        assert_eq!(a, run());
        assert!(a.contains("OPEN") && a.contains("CLOSE"));
        let empty = HealthMonitor::new(above_rule(1, 1));
        assert_eq!(empty.render_log(), "no alerts opened\n");
    }

    #[test]
    fn default_rules_cover_the_documented_failure_modes() {
        let rules = default_rules();
        for metric in [
            "bonsai_energy_drift",
            "bonsai_flop_residual",
            "bonsai_hidden_comm_fraction",
            "bonsai_gpu_gflops",
            "bonsai_recovery_actions",
        ] {
            assert!(
                rules.iter().any(|r| r.metric == metric),
                "no default rule for {metric}"
            );
        }
        assert!(rules.iter().any(|r| r.severity == Severity::Critical));
    }
}

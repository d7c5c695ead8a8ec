//! Observability self-metering: the run prices what its own telemetry
//! costs and reports the overhead as a fraction of modelled step time.
//!
//! The SC14 runs gathered Table II per-phase timings live on 18600 GPUs
//! precisely because the instrumentation was cheap enough to leave on;
//! an observability layer that cannot state its own cost cannot make that
//! claim. Everything here runs under the *modelled* clock — op counts
//! (spans recorded, gauges sampled, frames encoded…) are priced by
//! [`ObsCostModel`] rates, never wall-clock, so the overhead fraction is
//! byte-deterministic like every other exported number.
//!
//! [`overhead_rule`] turns the fraction into a health rule: a run whose
//! telemetry costs more than [`OVERHEAD_BUDGET_FRACTION`] of its modelled
//! step time opens an `obs-overhead` alert, and the `stream` bench gate
//! holds it as a verdict — this is exactly the verdict the `block_on_full`
//! sabotage (a bus that stalls the hot path) must trip.

use crate::health::{Condition, Rule, Severity};
use std::collections::BTreeMap;

/// Hard budget: observability may cost at most this fraction of the
/// modelled step time (3%).
pub const OVERHEAD_BUDGET_FRACTION: f64 = 0.03;

/// Gauge name carrying the per-step overhead fraction.
pub const OVERHEAD_GAUGE: &str = "bonsai_obs_overhead_fraction";

/// Modelled cost rates (seconds per operation) for every observability
/// primitive. Rates are fixed constants of the cost model — think of them
/// as the modelled host's instrumentation microbenchmarks, amortized over
/// batched lock-free recording — so charged totals depend only on op
/// counts. They are sized so a fully-instrumented honest step at bench
/// scale stays well under [`OVERHEAD_BUDGET_FRACTION`] while one producer
/// stall exceeds a whole modelled step.
#[derive(Clone, Debug)]
pub struct ObsCostModel {
    /// Recording one span (two timestamps + args).
    pub span_record_s: f64,
    /// Recording one instant event.
    pub instant_record_s: f64,
    /// Recording one flow point.
    pub flow_point_s: f64,
    /// Sampling one gauge into a time series.
    pub gauge_sample_s: f64,
    /// Evaluating one health rule against one sample.
    pub rule_eval_s: f64,
    /// Encoding one byte of a telemetry frame.
    pub encode_byte_s: f64,
    /// Publishing one frame to one subscriber ring.
    pub publish_s: f64,
    /// One producer stall when a saboteur makes the bus block on a full
    /// ring. Deliberately enormous next to the honest rates: a single
    /// stall costs as much as ~10⁵ span records, so stalls blow the
    /// overhead budget immediately.
    pub stall_s: f64,
}

impl Default for ObsCostModel {
    fn default() -> Self {
        Self {
            span_record_s: 4e-9,
            instant_record_s: 2.5e-9,
            flow_point_s: 3e-9,
            gauge_sample_s: 2e-9,
            rule_eval_s: 1e-9,
            encode_byte_s: 0.08e-9,
            publish_s: 5e-9,
            stall_s: 2e-3,
        }
    }
}

/// One step's metered overhead: per-category modelled seconds, their
/// total, and the fraction of the step's modelled time they represent.
#[derive(Clone, Debug)]
pub struct OverheadSample {
    /// Step the sample describes.
    pub step: u64,
    /// Modelled seconds charged per category this step.
    pub categories: BTreeMap<&'static str, f64>,
    /// Total charged seconds this step.
    pub total_s: f64,
    /// `total_s / step_s` (0 when the step time is not positive).
    pub fraction: f64,
}

/// Accumulates modelled observability charges within a step and reduces
/// them to per-step [`OverheadSample`]s plus run-level totals.
#[derive(Clone, Debug)]
pub struct OverheadMeter {
    cost: ObsCostModel,
    pending: BTreeMap<&'static str, f64>,
    totals: BTreeMap<&'static str, f64>,
    steps: u64,
    sum_fraction: f64,
    max_fraction: f64,
    total_s: f64,
}

impl OverheadMeter {
    /// A meter pricing ops with `cost`.
    pub fn new(cost: ObsCostModel) -> Self {
        Self {
            cost,
            pending: BTreeMap::new(),
            totals: BTreeMap::new(),
            steps: 0,
            sum_fraction: 0.0,
            max_fraction: 0.0,
            total_s: 0.0,
        }
    }

    /// The cost model in force.
    pub fn cost(&self) -> &ObsCostModel {
        &self.cost
    }

    /// Charge `seconds` of modelled time to `category` for the current step.
    pub fn charge(&mut self, category: &'static str, seconds: f64) {
        if seconds > 0.0 {
            *self.pending.entry(category).or_insert(0.0) += seconds;
        }
    }

    /// Charge `ops` operations at `per_op_s` seconds each.
    pub fn charge_ops(&mut self, category: &'static str, ops: u64, per_op_s: f64) {
        self.charge(category, ops as f64 * per_op_s);
    }

    /// Close the current step: reduce pending charges against the step's
    /// modelled duration and fold them into the run totals.
    pub fn end_step(&mut self, step: u64, step_s: f64) -> OverheadSample {
        let categories = std::mem::take(&mut self.pending);
        let total_s: f64 = categories.values().sum();
        for (k, v) in &categories {
            *self.totals.entry(k).or_insert(0.0) += v;
        }
        let fraction = if step_s > 0.0 { total_s / step_s } else { 0.0 };
        self.steps += 1;
        self.sum_fraction += fraction;
        self.max_fraction = self.max_fraction.max(fraction);
        self.total_s += total_s;
        OverheadSample {
            step,
            categories,
            total_s,
            fraction,
        }
    }

    /// Run-level charged seconds per category, deterministically ordered.
    pub fn totals(&self) -> &BTreeMap<&'static str, f64> {
        &self.totals
    }

    /// Total charged seconds across the run.
    pub fn total_s(&self) -> f64 {
        self.total_s
    }

    /// Steps metered so far.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Mean per-step overhead fraction (0 before the first step).
    pub fn mean_fraction(&self) -> f64 {
        if self.steps == 0 {
            0.0
        } else {
            self.sum_fraction / self.steps as f64
        }
    }

    /// Worst per-step overhead fraction seen.
    pub fn max_fraction(&self) -> f64 {
        self.max_fraction
    }
}

impl Default for OverheadMeter {
    fn default() -> Self {
        Self::new(ObsCostModel::default())
    }
}

/// The health rule enforcing the observability budget: warn when the
/// per-step overhead fraction sits above [`OVERHEAD_BUDGET_FRACTION`]
/// for 3 consecutive steps (3 clean steps to clear).
pub fn overhead_rule() -> Rule {
    Rule::new(
        "obs-overhead",
        OVERHEAD_GAUGE,
        Condition::Above(OVERHEAD_BUDGET_FRACTION),
        Severity::Warning,
        3,
        3,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charges_reduce_to_fraction_of_step_time() {
        let mut m = OverheadMeter::default();
        let expected = 1000.0 * m.cost().span_record_s + 10e-6;
        m.charge_ops("trace", 1000, m.cost().span_record_s);
        m.charge("metrics", 10e-6);
        let s = m.end_step(1, 1.0e-2);
        assert_eq!(s.step, 1);
        assert!((s.total_s - expected).abs() < 1e-12);
        assert!((s.fraction - expected / 1.0e-2).abs() < 1e-12);
        assert_eq!(s.categories.len(), 2);
        // Pending charges were consumed by end_step.
        let s2 = m.end_step(2, 1.0e-2);
        assert_eq!(s2.total_s, 0.0);
        assert_eq!(m.steps(), 2);
    }

    #[test]
    fn run_totals_and_fractions_accumulate() {
        let mut m = OverheadMeter::default();
        m.charge("trace", 1e-4);
        m.end_step(1, 1e-2); // fraction 0.01
        m.charge("trace", 3e-4);
        m.charge("publish", 1e-4);
        m.end_step(2, 1e-2); // fraction 0.04
        assert!((m.mean_fraction() - 0.025).abs() < 1e-12);
        assert!((m.max_fraction() - 0.04).abs() < 1e-12);
        assert!((m.totals()["trace"] - 4e-4).abs() < 1e-12);
        assert!((m.total_s() - 5e-4).abs() < 1e-12);
    }

    #[test]
    fn zero_step_time_yields_zero_fraction() {
        let mut m = OverheadMeter::default();
        m.charge("trace", 1.0);
        let s = m.end_step(1, 0.0);
        assert_eq!(s.fraction, 0.0);
    }

    #[test]
    fn honest_rates_stay_inside_budget_stalls_do_not() {
        let cost = ObsCostModel::default();
        // A modest step: 5 ms modelled, a generous honest op mix.
        let mut m = OverheadMeter::new(cost.clone());
        m.charge_ops("trace", 200, cost.span_record_s);
        m.charge_ops("trace", 100, cost.instant_record_s);
        m.charge_ops("metrics", 400, cost.gauge_sample_s);
        m.charge_ops("encode", 4000, cost.encode_byte_s);
        m.charge_ops("publish", 20, cost.publish_s);
        let honest = m.end_step(1, 5e-3);
        assert!(
            honest.fraction < OVERHEAD_BUDGET_FRACTION,
            "honest op mix must fit the budget, got {}",
            honest.fraction
        );
        // One stall alone blows the same budget.
        m.charge_ops("stall", 1, cost.stall_s);
        let stalled = m.end_step(2, 5e-3);
        assert!(stalled.fraction > OVERHEAD_BUDGET_FRACTION);
    }

    #[test]
    fn overhead_rule_opens_above_budget() {
        let mut mon = crate::health::HealthMonitor::new(vec![overhead_rule()]);
        for step in 1..=3 {
            mon.observe(step, OVERHEAD_GAUGE, 0.10);
        }
        let open: Vec<&str> = mon.open_rules().iter().map(|r| r.name.as_str()).collect();
        assert_eq!(open, vec!["obs-overhead"]);
        for step in 4..=6 {
            mon.observe(step, OVERHEAD_GAUGE, 0.001);
        }
        assert!(mon.open_rules().is_empty());
    }
}

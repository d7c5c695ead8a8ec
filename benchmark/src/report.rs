//! The benchmark's metric names, units and bounds, and the result line.
//!
//! These tables are the single definition of what the benchmark reports;
//! `BENCHMARK.json` repeats them for the driver and a test keeps the two
//! in step. Later issues name their claims by these names, so they are
//! fixed: add, never rename.

use crate::checks::Ops;
use bonsai_obs::json::{escape, fmt_f64};
use std::collections::BTreeMap;

/// One reported metric.
#[derive(Clone, Copy, Debug)]
pub struct MetricSpec {
    /// Stable name.
    pub name: &'static str,
    /// Unit of the value.
    pub unit: &'static str,
    /// `true` when a higher value is better.
    pub higher_is_better: bool,
    /// Share of the parent's median by which the metric may worsen before
    /// a change is rejected — also the bound two runs of the same code must
    /// agree within. Per-layer metrics have none.
    pub bound: Option<f64>,
    /// The value is a count made by the program over a fixed window of
    /// steps: two runs at one seed must report it identically.
    pub exact: bool,
}

const fn e2e(name: &'static str, unit: &'static str, higher: bool, bound: f64) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        higher_is_better: higher,
        bound: Some(bound),
        exact: false,
    }
}

const fn lower(name: &'static str, unit: &'static str) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        higher_is_better: false,
        bound: None,
        exact: false,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricSpec {
    MetricSpec {
        higher_is_better: true,
        ..lower(name, unit)
    }
}

/// A metric that repeats exactly; fewer is better for all of them.
const fn exact(name: &'static str, unit: &'static str) -> MetricSpec {
    MetricSpec {
        exact: true,
        ..lower(name, unit)
    }
}

/// What a user of the tree-code sees, measured with tracing off.
pub const END_TO_END: [MetricSpec; 6] = [
    e2e("setup_s", "s", false, 0.25),
    e2e("step_s_p50", "s", false, 0.12),
    e2e("step_s_p90", "s", false, 0.20),
    e2e("particles_per_s", "1/s", true, 0.15),
    e2e("step_creep", "ratio", false, 0.20),
    e2e("peak_rss_mb", "MB", false, 0.15),
];

/// What each layer did, from the traced run. Times are seconds per step
/// summed over ranks; counts are per step.
pub const PER_LAYER: [MetricSpec; 73] = [
    lower("ic.generate_s", "s"),
    lower("sfc.keys_s", "s"),
    lower("sfc.sort_s", "s"),
    higher("sfc.keys_per_s", "1/s"),
    lower("tree.build_s", "s"),
    higher("tree.build_particles_per_s", "1/s"),
    lower("tree.walk_local_s", "s"),
    lower("tree.walk_let_s", "s"),
    higher("tree.walk_interactions_per_s", "1/s"),
    higher("tree.walk_gflops", "Gflop/s"),
    higher("tree.walk_kernel_fraction", "ratio"),
    exact("tree.pp_local", "count"),
    exact("tree.pc_local", "count"),
    exact("tree.pp_let", "count"),
    exact("tree.pc_let", "count"),
    exact("tree.nodes_visited", "count"),
    exact("tree.forced_cuts", "count"),
    higher("tree.kernel_pp_scalar_per_s", "1/s"),
    higher("tree.kernel_pp_batch_per_s", "1/s"),
    higher("tree.kernel_pc_per_s", "1/s"),
    higher("tree.direct_per_s", "1/s"),
    lower("domain.sampling_s", "s"),
    lower("domain.exchange_s", "s"),
    lower("domain.boundary_s", "s"),
    lower("domain.sufficiency_s", "s"),
    lower("domain.let_build_s", "s"),
    lower("domain.let_encode_s", "s"),
    lower("domain.let_decode_s", "s"),
    exact("domain.lets", "count"),
    exact("domain.let_bytes", "B"),
    exact("domain.boundary_bytes", "B"),
    exact("domain.wire_amplification", "ratio"),
    exact("domain.imbalance", "ratio"),
    lower("net.seal_s", "s"),
    lower("net.open_s", "s"),
    higher("net.seal_mb_per_s", "MB/s"),
    higher("net.open_mb_per_s", "MB/s"),
    higher("net.crc_fraction", "ratio"),
    lower("net.fabric_s", "s"),
    exact("net.frames", "count"),
    exact("net.wire_bytes", "B"),
    exact("net.faults_injected", "count"),
    exact("net.retransmits", "count"),
    exact("net.retransmit_bytes", "B"),
    exact("net.degraded_lets", "count"),
    higher("util.crc64_mb_per_s", "MB/s"),
    lower("sim.step_s", "s"),
    lower("sim.residual_s", "s"),
    lower("sim.residual_share", "ratio"),
    lower("sim.dist_overhead_x", "ratio"),
    lower("sim.checkpoint_write_s", "s"),
    lower("sim.checkpoint_read_s", "s"),
    lower("sim.checkpoint_bytes", "B"),
    lower("sim.restores", "count"),
    lower("sim.energy_drift", "ratio"),
    exact("sim.model_step_s", "s"),
    lower("core.step_s", "s"),
    higher("core.force_share", "ratio"),
    exact("obs.spans_per_step", "count"),
    lower("obs.span_record_ns", "ns"),
    lower("obs.record_est_s", "s"),
    lower("obs.trace_export_s", "s"),
    lower("obs.trace_export_mb", "MB"),
    lower("obs.frames_published", "count"),
    higher("par.speedup_t2", "ratio"),
    higher("par.efficiency_t2", "ratio"),
    lower("verify.force_err_p50", "ratio"),
    lower("verify.force_err_p95", "ratio"),
    lower("bench.trace_overhead", "ratio"),
    higher("bench.replay_match", "count"),
    lower("bench.telescoping_err", "ratio"),
    lower("bench.traced_steps", "count"),
    lower("bench.host_slowdown", "ratio"),
];

/// Measured values by metric name.
pub type Values = BTreeMap<&'static str, f64>;

/// `a / b`, or 0 when the denominator is: a layer that did nothing on this
/// workload has no rate.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// What one run of one workload produced.
#[derive(Debug)]
pub struct RunResult {
    /// Operations attempted and failed.
    pub ops: Ops,
    /// One value per metric of the run's table.
    pub values: Values,
}

impl RunResult {
    /// The run is correct when every operation succeeded.
    pub fn correct(&self) -> bool {
        self.ops.failed == 0
    }

    /// The result line the driver reads: one JSON object holding exactly
    /// the metrics of `specs`, in table order. Panics if the run did not
    /// measure one of them, or measured something non-finite.
    pub fn json_line(&self, specs: &[MetricSpec]) -> String {
        let metrics: Vec<String> = specs
            .iter()
            .map(|s| {
                let v = *self
                    .values
                    .get(s.name)
                    .unwrap_or_else(|| panic!("metric {} was not measured", s.name));
                assert!(v.is_finite(), "metric {} is not finite", s.name);
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    escape(s.name),
                    fmt_f64(v),
                    escape(s.unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.ops.attempted,
            self.ops.failed,
            metrics.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bonsai_obs::json::{parse, Value};

    fn manifest() -> Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root"))
            .expect("BENCHMARK.json parses")
    }

    fn check_table(listed: &Value, specs: &[MetricSpec]) {
        let listed = listed.as_arr().expect("metric list");
        assert_eq!(listed.len(), specs.len());
        for (m, s) in listed.iter().zip(specs) {
            assert_eq!(m.get("name").and_then(Value::as_str), Some(s.name));
            assert_eq!(
                m.get("unit").and_then(Value::as_str),
                Some(s.unit),
                "{}",
                s.name
            );
            let better = if s.higher_is_better {
                "higher"
            } else {
                "lower"
            };
            assert_eq!(
                m.get("better").and_then(Value::as_str),
                Some(better),
                "{}",
                s.name
            );
            assert_eq!(
                m.get("bound").and_then(Value::as_f64),
                s.bound,
                "{}",
                s.name
            );
        }
    }

    #[test]
    fn manifest_lists_exactly_these_metrics_and_workloads() {
        let m = manifest();
        check_table(m.get("end_to_end").unwrap(), &END_TO_END);
        check_table(m.get("per_layer").unwrap(), &PER_LAYER);
        let names: Vec<&str> = m
            .get("workloads")
            .and_then(Value::as_arr)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Value::as_str).unwrap())
            .collect();
        let ours: Vec<&str> = crate::workload::WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(names, ours);
    }

    #[test]
    fn setup_has_the_largest_bound_and_names_are_unique() {
        let setup = END_TO_END[0].bound.unwrap();
        assert!(END_TO_END[1..].iter().all(|s| s.bound.unwrap() < setup));
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .map(|s| s.name)
            .collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), END_TO_END.len() + PER_LAYER.len());
    }

    #[test]
    fn result_line_is_one_json_object_in_table_order() {
        let mut values = Values::new();
        for (i, s) in END_TO_END.iter().enumerate() {
            values.insert(s.name, 0.25 + i as f64);
        }
        let mut ops = Ops::default();
        ops.record("step", None);
        ops.record("energy", Some("drifted".into()));
        let r = RunResult { ops, values };
        let line = r.json_line(&END_TO_END);
        assert!(!line.contains('\n'));
        let v = parse(&line).unwrap();
        assert_eq!(v.get("correct"), Some(&Value::Bool(false)));
        assert_eq!(v.get("attempted").and_then(Value::as_f64), Some(2.0));
        assert_eq!(v.get("failed").and_then(Value::as_f64), Some(1.0));
        let p50 = v.get("metrics").unwrap().get("step_s_p50").unwrap();
        assert_eq!(p50.get("value").and_then(Value::as_f64), Some(1.25));
        assert_eq!(p50.get("unit").and_then(Value::as_str), Some("s"));
        assert_eq!(ratio(1.0, 0.0), 0.0);
    }
}

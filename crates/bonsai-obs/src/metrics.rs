//! The typed metrics registry: counters, gauges and log-scale histograms
//! addressed by Prometheus-style `name{label="value"}` keys.
//!
//! Ordering is deterministic (a `BTreeMap` over the rendered key), so the
//! text exposition and any reduction over the registry are byte-stable for
//! identical inputs — the property the bench trajectory relies on.

use std::collections::{BTreeMap, BTreeSet};

/// A fully-qualified metric key: name plus sorted label pairs.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct MetricKey {
    /// Metric name (`bonsai_phase_seconds`).
    pub name: String,
    /// Label pairs, sorted by label name.
    pub labels: Vec<(String, String)>,
}

impl MetricKey {
    fn new(name: &str, labels: &[(&str, &str)]) -> Self {
        let mut ls: Vec<(String, String)> = labels
            .iter()
            .map(|&(k, v)| (k.to_string(), v.to_string()))
            .collect();
        ls.sort();
        Self {
            name: name.to_string(),
            labels: ls,
        }
    }

    /// Render as `name{k="v",…}` (bare `name` without labels).
    pub fn render(&self) -> String {
        if self.labels.is_empty() {
            return self.name.clone();
        }
        let inner: Vec<String> = self
            .labels
            .iter()
            .map(|(k, v)| format!("{k}=\"{v}\""))
            .collect();
        format!("{}{{{}}}", self.name, inner.join(","))
    }
}

/// A histogram with logarithmic (power-of-two) buckets, for quantities that
/// span orders of magnitude: interaction counts, byte volumes, latencies.
#[derive(Clone, Debug)]
pub struct LogHistogram {
    /// Count per power-of-two bucket: key `k` holds samples in
    /// `[2^k, 2^(k+1))`. Non-positive samples land in the `i32::MIN` bucket.
    buckets: BTreeMap<i32, u64>,
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LogHistogram {
    /// Empty histogram.
    pub fn new() -> Self {
        Self {
            buckets: BTreeMap::new(),
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Record one observation.
    pub fn observe(&mut self, x: f64) {
        let b = if x > 0.0 {
            x.log2().floor() as i32
        } else {
            i32::MIN
        };
        *self.buckets.entry(b).or_insert(0) += 1;
        self.count += 1;
        self.sum += x;
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of observations.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Mean observation (0 for empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Smallest observation (`None` for empty).
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest observation (`None` for empty).
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// Approximate `q`-quantile (`q` in `[0, 1]`) by geometric interpolation
    /// inside the target power-of-two bucket, clamped to the observed
    /// `[min, max]` range. `None` for an empty histogram; exact for a
    /// single-sample histogram.
    pub fn percentile(&self, q: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        if self.count == 1 {
            return Some(self.min);
        }
        let q = q.clamp(0.0, 1.0);
        let target = q * self.count as f64;
        let mut seen = 0u64;
        for (&b, &c) in &self.buckets {
            let next = seen + c;
            if target <= next as f64 {
                let frac = ((target - seen as f64) / c as f64).clamp(0.0, 1.0);
                let v = if b == i32::MIN {
                    self.min
                } else {
                    let lo = (2f64).powi(b);
                    let hi = (2f64).powi(b + 1);
                    // geometric interpolation within the bucket
                    lo * (hi / lo).powf(frac)
                };
                return Some(v.clamp(self.min, self.max));
            }
            seen = next;
        }
        Some(self.max)
    }

    /// The exported quantile ladder: `(q, value)` for each of
    /// [`EXPORT_QUANTILES`] (p50, p90, p99). Empty for an empty histogram.
    /// Values are non-decreasing in `q` and bracketed by `[min, max]`.
    pub fn export_quantiles(&self) -> Vec<(f64, f64)> {
        EXPORT_QUANTILES
            .iter()
            .filter_map(|&q| self.percentile(q).map(|v| (q, v)))
            .collect()
    }

    /// `(bucket_upper_bound, cumulative_count)` pairs for text exposition.
    pub fn cumulative_buckets(&self) -> Vec<(f64, u64)> {
        let mut out = Vec::with_capacity(self.buckets.len());
        let mut cum = 0;
        for (&b, &c) in &self.buckets {
            cum += c;
            let le = if b == i32::MIN {
                0.0
            } else {
                (2f64).powi(b + 1)
            };
            out.push((le, cum));
        }
        out
    }
}

/// Quantiles every histogram exports (text exposition, bench ledgers):
/// the median, the bulk tail, and the p99 stragglers that dominate a
/// bulk-synchronous step.
pub const EXPORT_QUANTILES: [f64; 3] = [0.5, 0.9, 0.99];

/// The registry: every metric of a run, deterministically ordered.
#[derive(Clone, Debug, Default)]
pub struct MetricsRegistry {
    counters: BTreeMap<MetricKey, u64>,
    gauges: BTreeMap<MetricKey, f64>,
    histograms: BTreeMap<MetricKey, LogHistogram>,
    /// Gauge *names* declared step-scoped: the whole family is dropped by
    /// [`MetricsRegistry::reset_step`] so a label set written on step N
    /// (e.g. a phase that only ran that step) can never leak into step
    /// N+1's sample of the family.
    step_scoped: BTreeSet<String>,
}

impl MetricsRegistry {
    /// Empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add `v` to a monotonic counter.
    pub fn counter_add(&mut self, name: &str, labels: &[(&str, &str)], v: u64) {
        *self.counters.entry(MetricKey::new(name, labels)).or_insert(0) += v;
    }

    /// Set a point-in-time gauge.
    pub fn gauge_set(&mut self, name: &str, labels: &[(&str, &str)], v: f64) {
        self.gauges.insert(MetricKey::new(name, labels), v);
    }

    /// Set a *step-scoped* gauge: like [`MetricsRegistry::gauge_set`], but
    /// the metric name is also registered for [`MetricsRegistry::reset_step`].
    pub fn step_gauge_set(&mut self, name: &str, labels: &[(&str, &str)], v: f64) {
        self.step_scoped.insert(name.to_string());
        self.gauges.insert(MetricKey::new(name, labels), v);
    }

    /// Drop every gauge belonging to a step-scoped family. Call at the top
    /// of each step, before the step's gauges are written: label sets that
    /// existed only on the previous step disappear instead of going stale.
    /// Counters, histograms and plain gauges are untouched.
    pub fn reset_step(&mut self) {
        let scoped = std::mem::take(&mut self.step_scoped);
        self.gauges.retain(|k, _| !scoped.contains(&k.name));
        self.step_scoped = scoped;
    }

    /// Record one histogram observation.
    pub fn histogram_observe(&mut self, name: &str, labels: &[(&str, &str)], v: f64) {
        self.histogram_entry(name, labels).observe(v);
    }

    /// The histogram under `name` and `labels`, created empty if absent: a
    /// caller observing many values into one histogram looks it up once.
    pub fn histogram_entry(&mut self, name: &str, labels: &[(&str, &str)]) -> &mut LogHistogram {
        self.histograms
            .entry(MetricKey::new(name, labels))
            .or_default()
    }

    /// Counter value (0 when absent).
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> u64 {
        self.counters
            .get(&MetricKey::new(name, labels))
            .copied()
            .unwrap_or(0)
    }

    /// Gauge value (`None` when absent).
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Option<f64> {
        self.gauges.get(&MetricKey::new(name, labels)).copied()
    }

    /// Histogram (`None` when absent).
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Option<&LogHistogram> {
        self.histograms.get(&MetricKey::new(name, labels))
    }

    /// All counters in key order.
    pub fn counters(&self) -> impl Iterator<Item = (&MetricKey, u64)> {
        self.counters.iter().map(|(k, &v)| (k, v))
    }

    /// All gauges in key order.
    pub fn gauges(&self) -> impl Iterator<Item = (&MetricKey, f64)> {
        self.gauges.iter().map(|(k, &v)| (k, v))
    }

    /// All histograms in key order.
    pub fn histograms(&self) -> impl Iterator<Item = (&MetricKey, &LogHistogram)> {
        self.histograms.iter()
    }

    /// Sum of every counter named `name`, across label sets.
    pub fn counter_family_total(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .filter(|(k, _)| k.name == name)
            .map(|(_, &v)| v)
            .sum()
    }

    /// Drop every metric (per-step gauges are rewritten each step).
    pub fn clear(&mut self) {
        self.counters.clear();
        self.gauges.clear();
        self.histograms.clear();
        self.step_scoped.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_read_back() {
        let mut r = MetricsRegistry::new();
        r.counter_add("bytes", &[("kind", "let")], 10);
        r.counter_add("bytes", &[("kind", "let")], 5);
        r.counter_add("bytes", &[("kind", "boundary")], 7);
        assert_eq!(r.counter("bytes", &[("kind", "let")]), 15);
        assert_eq!(r.counter("bytes", &[("kind", "missing")]), 0);
        assert_eq!(r.counter_family_total("bytes"), 22);
    }

    #[test]
    fn label_order_is_canonical() {
        let mut r = MetricsRegistry::new();
        r.gauge_set("g", &[("b", "2"), ("a", "1")], 3.0);
        assert_eq!(r.gauge("g", &[("a", "1"), ("b", "2")]), Some(3.0));
        let key = MetricKey::new("g", &[("b", "2"), ("a", "1")]);
        assert_eq!(key.render(), "g{a=\"1\",b=\"2\"}");
    }

    #[test]
    fn step_scoped_gauges_cannot_leak_across_steps() {
        // Two dissimilar steps: step 1 runs phases {sort, local, let}; step
        // 2 runs only {local}. Without reset_step, the stale sort/let
        // gauges from step 1 would still be present — and a time-series
        // sample of the family would silently re-record step 1's values.
        let mut r = MetricsRegistry::new();
        r.counter_add("bonsai_steps_total", &[], 1);
        r.gauge_set("bonsai_run_seed", &[], 2014.0); // run-scoped: survives

        // step 1
        r.reset_step();
        r.step_gauge_set("bonsai_step_phase_seconds", &[("phase", "sort")], 0.1);
        r.step_gauge_set("bonsai_step_phase_seconds", &[("phase", "local")], 0.7);
        r.step_gauge_set("bonsai_step_phase_seconds", &[("phase", "let")], 0.2);
        let phases = |r: &MetricsRegistry| {
            r.gauges()
                .filter(|(k, _)| k.name == "bonsai_step_phase_seconds")
                .map(|(_, v)| v)
                .collect::<Vec<_>>()
        };
        assert_eq!(phases(&r).len(), 3);

        // step 2: only `local` runs
        r.reset_step();
        r.step_gauge_set("bonsai_step_phase_seconds", &[("phase", "local")], 0.9);
        assert_eq!(phases(&r), vec![0.9], "stale phase gauges leaked");
        assert_eq!(
            r.gauge("bonsai_step_phase_seconds", &[("phase", "sort")]),
            None
        );
        // Run-scoped metrics are untouched.
        assert_eq!(r.gauge("bonsai_run_seed", &[]), Some(2014.0));
        assert_eq!(r.counter("bonsai_steps_total", &[]), 1);
    }

    #[test]
    fn histogram_percentiles_interpolate() {
        let mut h = LogHistogram::new();
        for i in 1..=1000 {
            h.observe(i as f64);
        }
        assert_eq!(h.count(), 1000);
        let p50 = h.percentile(0.5).unwrap();
        assert!((300.0..800.0).contains(&p50), "p50 {p50}");
        let p100 = h.percentile(1.0).unwrap();
        assert!(p100 <= 1000.0 + 1e-9);
        assert!(h.percentile(0.0).unwrap() >= 1.0);
    }

    #[test]
    fn histogram_edge_cases() {
        let h = LogHistogram::new();
        assert_eq!(h.percentile(0.5), None);
        assert_eq!(h.min(), None);

        let mut one = LogHistogram::new();
        one.observe(42.0);
        assert_eq!(one.percentile(0.0), Some(42.0));
        assert_eq!(one.percentile(0.5), Some(42.0));
        assert_eq!(one.percentile(1.0), Some(42.0));
        assert_eq!(one.min(), Some(42.0));
        assert_eq!(one.max(), Some(42.0));

        let mut z = LogHistogram::new();
        z.observe(0.0);
        z.observe(-3.0);
        assert_eq!(z.count(), 2);
        assert!(z.percentile(0.5).is_some());
    }

    #[test]
    fn percentile_is_monotonic_in_q() {
        // Log-spaced samples across many buckets plus heavy duplication:
        // percentile(q) must never decrease as q grows, q outside [0,1]
        // must clamp, and the extremes must bracket the observed range.
        let mut h = LogHistogram::new();
        for i in 0..200 {
            h.observe((1.07f64).powi(i)); // ~1 .. ~7e5 across buckets
        }
        for _ in 0..50 {
            h.observe(64.0); // a spike inside one bucket
        }
        let mut prev = f64::NEG_INFINITY;
        for i in 0..=100 {
            let q = i as f64 / 100.0;
            let v = h.percentile(q).unwrap();
            assert!(
                v >= prev - 1e-12,
                "percentile must be monotonic: p({q}) = {v} < {prev}"
            );
            assert!(v >= h.min().unwrap() && v <= h.max().unwrap());
            prev = v;
        }
        // Out-of-range q clamps to the extremes rather than panicking.
        assert_eq!(h.percentile(-0.5), h.percentile(0.0));
        assert_eq!(h.percentile(7.0), h.percentile(1.0));
    }

    #[test]
    fn export_quantile_ladder_is_ordered() {
        let mut h = LogHistogram::new();
        for i in 1..=500 {
            h.observe(i as f64);
        }
        let ladder = h.export_quantiles();
        assert_eq!(ladder.len(), 3);
        assert_eq!(
            ladder.iter().map(|&(q, _)| q).collect::<Vec<_>>(),
            EXPORT_QUANTILES.to_vec()
        );
        let (p50, p90, p99) = (ladder[0].1, ladder[1].1, ladder[2].1);
        assert!(p50 <= p90, "p50 {p50} > p90 {p90}");
        assert!(p90 <= p99, "p90 {p90} > p99 {p99}");
        assert!(p99 <= h.max().unwrap(), "p99 {p99} above max");
        assert!(LogHistogram::new().export_quantiles().is_empty());
    }

    #[test]
    fn cumulative_buckets_are_monotonic() {
        let mut h = LogHistogram::new();
        for x in [0.5, 1.5, 3.0, 3.5, 100.0] {
            h.observe(x);
        }
        let cb = h.cumulative_buckets();
        assert_eq!(cb.last().unwrap().1, 5);
        for w in cb.windows(2) {
            assert!(w[0].0 < w[1].0);
            assert!(w[0].1 <= w[1].1);
        }
    }
}

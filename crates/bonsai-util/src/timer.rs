//! Wall-clock timing and named accumulators.
//!
//! The paper's Table II decomposes a full N-body step into named phases
//! (sorting, domain update, tree construction, tree properties, local gravity,
//! LET gravity, non-hidden communication, other). [`PhaseTimes`] is the
//! mutable record each simulated rank fills in per step; the cluster simulator
//! reduces these across ranks.

use std::collections::BTreeMap;
use std::time::Instant;

/// A simple wall-clock stopwatch.
#[derive(Debug)]
pub struct Stopwatch {
    start: Instant,
}

impl Stopwatch {
    /// Start a new stopwatch.
    pub fn start() -> Self {
        Self { start: Instant::now() }
    }

    /// Elapsed seconds since start.
    pub fn elapsed(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }

    /// Restart and return the elapsed seconds of the lap just finished.
    pub fn lap(&mut self) -> f64 {
        let e = self.elapsed();
        self.start = Instant::now();
        e
    }
}

/// Named accumulation of (simulated or measured) seconds per phase.
#[derive(Clone, Debug, Default)]
pub struct PhaseTimes {
    phases: BTreeMap<&'static str, f64>,
}

impl PhaseTimes {
    /// Empty record.
    pub fn new() -> Self {
        Self::default()
    }

    /// Build from `(phase, seconds)` pairs (duplicates accumulate). This is
    /// the interchange used by the observability layer: a `StepBreakdown`
    /// flattens into phase pairs, the metrics registry stores them as a
    /// gauge family, and a reduction rebuilds the record from either side.
    pub fn from_pairs(pairs: impl IntoIterator<Item = (&'static str, f64)>) -> Self {
        let mut pt = Self::new();
        for (name, secs) in pairs {
            pt.add(name, secs);
        }
        pt
    }

    /// Add `secs` to phase `name`.
    pub fn add(&mut self, name: &'static str, secs: f64) {
        *self.phases.entry(name).or_insert(0.0) += secs;
    }

    /// Seconds recorded for `name` (0 if absent).
    pub fn get(&self, name: &str) -> f64 {
        self.phases.get(name).copied().unwrap_or(0.0)
    }

    /// Total over all phases.
    pub fn total(&self) -> f64 {
        self.phases.values().sum()
    }

    /// Iterate `(phase, seconds)` in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, f64)> + '_ {
        self.phases.iter().map(|(k, v)| (*k, *v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stopwatch_measures_time() {
        let mut sw = Stopwatch::start();
        std::thread::sleep(std::time::Duration::from_millis(10));
        let lap = sw.lap();
        assert!(lap >= 0.009, "lap {lap} too short");
        // after lap the clock restarted
        assert!(sw.elapsed() < lap + 0.005);
    }

    #[test]
    fn from_pairs_accumulates() {
        let p = PhaseTimes::from_pairs([("sort", 0.1), ("gravity", 1.0), ("gravity", 0.5)]);
        assert_eq!(p.get("sort"), 0.1);
        assert_eq!(p.get("gravity"), 1.5);
        assert_eq!(p.iter().count(), 2);
    }

    #[test]
    fn phase_accumulation() {
        let mut p = PhaseTimes::new();
        p.add("gravity", 1.5);
        p.add("gravity", 0.5);
        p.add("sort", 0.1);
        assert_eq!(p.get("gravity"), 2.0);
        assert_eq!(p.get("missing"), 0.0);
        assert!((p.total() - 2.1).abs() < 1e-12);
    }
}

//! Roofline extraction, cost-model residuals and the deterministic
//! span-stack profile — the attribution layer over the trace.
//!
//! The paper's performance argument names, for every kernel, *which ceiling
//! it sits under*: the tuned force kernel reaches ~45% of the K20X's
//! single-precision peak (compute-bound, Fig. 1), while the sort/build/
//! properties passes are priced as bandwidth-bound streaming (§VI-B,
//! Table II). This module recovers exactly that view from a recorded
//! [`TraceStore`]:
//!
//! * [`roofline`] — every GPU-lane span that carries roofline args
//!   (`flops`, `bytes`, `ceil_gflops`, `bw_gbs`, written by
//!   `bonsai-gpu`'s span annotators) is aggregated into one
//!   [`RooflinePoint`] per kernel × rank, with the binding ceiling named
//!   and the attained fraction computed.
//! * [`TermResidual`] — one row of a cost-model attribution: a measured
//!   per-phase time against the analytic model's prediction, with the
//!   signed residual (measured − modelled) as the drift metric.
//! * [`folded_profile`] — deterministic self/total seconds per
//!   rank × lane × phase, aggregated over steps: the numeric form of a
//!   flame graph, diffable across commits.
//! * [`telescoping_error`] — the invariant that per-kernel spans tile
//!   their phase window exactly (no gaps, no overlap) on every rank × step
//!   GPU lane.
//!
//! Everything here is pure inspection over the trace: no dependency on the
//! GPU or simulator crates, so any subsystem that annotates spans with the
//! same arg names gets roofline treatment for free.

use crate::span::{ArgValue, Lane, Span, TraceStore};
use std::collections::BTreeMap;

/// One kernel × rank point on the roofline, aggregated over steps.
#[derive(Clone, Debug, PartialEq)]
pub struct RooflinePoint {
    /// Kernel (span) name, e.g. `sort`, `local`, `lets`.
    pub kernel: String,
    /// Rank the kernel ran on.
    pub rank: u32,
    /// Spans aggregated into this point.
    pub count: u64,
    /// Total modelled seconds across the aggregated spans.
    pub seconds: f64,
    /// Total flops charged across the aggregated spans.
    pub flops: f64,
    /// Total device-memory bytes moved across the aggregated spans.
    pub bytes: f64,
    /// Modelled occupancy (from the most recent span).
    pub occupancy: f64,
    /// Occupancy-limited compute ceiling, Gflops.
    pub compute_ceiling_gflops: f64,
    /// Device memory bandwidth, GB/s.
    pub bandwidth_gbs: f64,
}

impl RooflinePoint {
    /// Attained Gflops: total flops over total seconds.
    pub fn attained_gflops(&self) -> f64 {
        if self.seconds <= 0.0 {
            0.0
        } else {
            self.flops / self.seconds / 1e9
        }
    }

    /// Arithmetic intensity in flops per byte (infinite when no bytes
    /// were charged).
    pub fn intensity(&self) -> f64 {
        if self.bytes <= 0.0 {
            f64::INFINITY
        } else {
            self.flops / self.bytes
        }
    }

    /// The bandwidth roof at this point's intensity, Gflops.
    pub fn bandwidth_ceiling_gflops(&self) -> f64 {
        let i = self.intensity();
        if i.is_finite() {
            i * self.bandwidth_gbs
        } else {
            f64::INFINITY
        }
    }

    /// The binding (lower) ceiling in Gflops.
    pub fn binding_ceiling_gflops(&self) -> f64 {
        self.compute_ceiling_gflops
            .min(self.bandwidth_ceiling_gflops())
    }

    /// Which roof binds: `"compute"` or `"bandwidth"`.
    pub fn binding_ceiling(&self) -> &'static str {
        if self.bandwidth_ceiling_gflops() < self.compute_ceiling_gflops {
            "bandwidth"
        } else {
            "compute"
        }
    }

    /// Attained Gflops as a fraction of the binding ceiling.
    pub fn attained_fraction(&self) -> f64 {
        let c = self.binding_ceiling_gflops();
        if c <= 0.0 || !c.is_finite() {
            0.0
        } else {
            self.attained_gflops() / c
        }
    }
}

fn arg_num(span: &Span, key: &str) -> Option<f64> {
    span.args.iter().find(|(k, _)| *k == key).map(|(_, v)| match v {
        ArgValue::F64(x) => *x,
        ArgValue::U64(x) => *x as f64,
        ArgValue::Str(_) => f64::NAN,
    })
}

/// Extract the roofline points of a trace: every GPU-lane span carrying
/// `flops`, `bytes`, `ceil_gflops` and `bw_gbs` args contributes to the
/// point of its (kernel name, rank) pair; spans without work (zero
/// seconds and zero flops) are dropped. Deterministically ordered by
/// kernel name, then rank.
pub fn roofline(store: &TraceStore) -> Vec<RooflinePoint> {
    let mut points: BTreeMap<(String, u32), RooflinePoint> = BTreeMap::new();
    for s in store.spans() {
        if s.lane != Lane::Gpu {
            continue;
        }
        let (Some(flops), Some(bytes), Some(ceil), Some(bw)) = (
            arg_num(s, "flops"),
            arg_num(s, "bytes"),
            arg_num(s, "ceil_gflops"),
            arg_num(s, "bw_gbs"),
        ) else {
            continue;
        };
        let p = points
            .entry((s.name.clone(), s.rank))
            .or_insert_with(|| RooflinePoint {
                kernel: s.name.clone(),
                rank: s.rank,
                count: 0,
                seconds: 0.0,
                flops: 0.0,
                bytes: 0.0,
                occupancy: 1.0,
                compute_ceiling_gflops: ceil,
                bandwidth_gbs: bw,
            });
        p.count += 1;
        p.seconds += s.end - s.start;
        p.flops += flops;
        p.bytes += bytes;
        p.compute_ceiling_gflops = ceil;
        p.bandwidth_gbs = bw;
        if let Some(occ) = arg_num(s, "occupancy") {
            p.occupancy = occ;
        }
    }
    points
        .into_values()
        .filter(|p| p.seconds > 0.0 || p.flops > 0.0)
        .collect()
}

/// One signed row of a cost-model attribution: measured vs modelled
/// seconds for a named term of the analytic step model.
#[derive(Clone, Debug, PartialEq)]
pub struct TermResidual {
    /// The model term (a Table II phase name).
    pub term: String,
    /// Measured seconds.
    pub measured_s: f64,
    /// The analytic model's prediction, seconds.
    pub modelled_s: f64,
}

impl TermResidual {
    /// Signed residual: measured − modelled. Positive means the run is
    /// slower than the model says it should be.
    pub fn residual_s(&self) -> f64 {
        self.measured_s - self.modelled_s
    }

    /// Residual relative to the modelled value (or to the measured value
    /// when the model predicts zero; 0 when both are zero).
    pub fn relative(&self) -> f64 {
        let denom = if self.modelled_s != 0.0 {
            self.modelled_s
        } else if self.measured_s != 0.0 {
            self.measured_s
        } else {
            return 0.0;
        };
        self.residual_s() / denom
    }
}

/// One row of the span-stack profile: aggregated self/total seconds for a
/// rank × lane × phase over every step in the trace.
#[derive(Clone, Debug, PartialEq)]
pub struct ProfileRow {
    /// Rank the spans ran on.
    pub rank: u32,
    /// Lane the spans were drawn on.
    pub lane: Lane,
    /// Span (phase/kernel) name.
    pub name: String,
    /// Spans aggregated.
    pub count: u64,
    /// Total seconds (children included).
    pub total_s: f64,
    /// Self seconds (direct children subtracted).
    pub self_s: f64,
}

/// Fold the trace into deterministic per-rank × lane × phase self/total
/// seconds. Self time subtracts direct children only (the trace is at most
/// two levels deep today, but the subtraction is correct at any depth).
/// Ordered by rank, lane, then name.
pub fn folded_profile(store: &TraceStore) -> Vec<ProfileRow> {
    let spans = store.spans();
    let mut child_sum = vec![0.0f64; spans.len()];
    for s in spans {
        if let Some(pid) = s.parent {
            if let Some(slot) = child_sum.get_mut(pid.0) {
                *slot += s.end - s.start;
            }
        }
    }
    let mut rows: BTreeMap<(u32, u32, String), ProfileRow> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        let dur = s.end - s.start;
        let row = rows
            .entry((s.rank, s.lane.tid(), s.name.clone()))
            .or_insert_with(|| ProfileRow {
                rank: s.rank,
                lane: s.lane,
                name: s.name.clone(),
                count: 0,
                total_s: 0.0,
                self_s: 0.0,
            });
        row.count += 1;
        row.total_s += dur;
        row.self_s += dur - child_sum[i];
    }
    rows.into_values().collect()
}

/// The telescoping invariant of the GPU lanes: on every rank × step, the
/// kernel spans must tile their window exactly — the sum of their
/// durations equals the extent from the first start to the last end.
/// Returns the worst absolute error over all rank × step groups (0 for an
/// empty trace). A nonzero value means a gap or an overlap: some kernel
/// time is double-counted or unattributed.
pub fn telescoping_error(store: &TraceStore) -> f64 {
    let mut groups: BTreeMap<(u32, u64), (f64, f64, f64)> = BTreeMap::new();
    for s in store.spans() {
        if s.lane != Lane::Gpu {
            continue;
        }
        let g = groups
            .entry((s.rank, s.step))
            .or_insert((f64::INFINITY, f64::NEG_INFINITY, 0.0));
        g.0 = g.0.min(s.start);
        g.1 = g.1.max(s.end);
        g.2 += s.end - s.start;
    }
    groups
        .values()
        .map(|&(lo, hi, sum)| (sum - (hi - lo)).abs())
        .fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A GPU span over `start..end` with the roofline args `[flops, bytes,
    /// ceil_gflops, bw_gbs]`.
    fn annotated_span(
        t: &mut TraceStore,
        rank: u32,
        step: u64,
        name: &str,
        (start, end): (f64, f64),
        [flops, bytes, ceil, bw]: [f64; 4],
    ) {
        let id = t.span(rank, step, Lane::Gpu, name, start, end);
        t.arg_f64(id, "flops", flops);
        t.arg_f64(id, "bytes", bytes);
        t.arg_f64(id, "ceil_gflops", ceil);
        t.arg_f64(id, "bw_gbs", bw);
        t.arg_f64(id, "occupancy", 0.75);
    }

    #[test]
    fn roofline_aggregates_and_names_the_binding_ceiling() {
        let mut t = TraceStore::new();
        // Compute-bound kernel: high intensity (1e10 flops / 1e7 bytes
        // = 1000 flops/B, bandwidth roof 250_000 Gflops >> ceiling 3000).
        annotated_span(&mut t, 0, 1, "local", (0.0, 5.0), [1.0e10, 1.0e7, 3000.0, 250.0]);
        annotated_span(&mut t, 0, 2, "local", (5.0, 10.0), [1.0e10, 1.0e7, 3000.0, 250.0]);
        // Bandwidth-bound kernel: 0.0133 flops/B, roof = 3.33 Gflops.
        annotated_span(&mut t, 0, 1, "sort", (0.0, 1.0), [2.0e9, 1.5e11, 3935.0, 250.0]);
        // A span without roofline args is ignored.
        t.span(0, 1, Lane::Gpu, "bare", 0.0, 1.0);
        // A COMM span is ignored even with args.
        let id = t.span(0, 1, Lane::Comm, "let-comm", 0.0, 1.0);
        t.arg_f64(id, "flops", 1.0);
        t.arg_f64(id, "bytes", 1.0);
        t.arg_f64(id, "ceil_gflops", 1.0);
        t.arg_f64(id, "bw_gbs", 1.0);

        let pts = roofline(&t);
        assert_eq!(pts.len(), 2);
        let local = pts.iter().find(|p| p.kernel == "local").unwrap();
        assert_eq!(local.count, 2);
        assert_eq!(local.seconds, 10.0);
        assert_eq!(local.binding_ceiling(), "compute");
        assert!((local.attained_gflops() - 2.0).abs() < 1e-12);
        assert!((local.attained_fraction() - 2.0 / 3000.0).abs() < 1e-15);
        let sort = pts.iter().find(|p| p.kernel == "sort").unwrap();
        assert_eq!(sort.binding_ceiling(), "bandwidth");
        let roof = sort.bandwidth_ceiling_gflops();
        assert!(roof < sort.compute_ceiling_gflops);
        assert!(sort.attained_gflops() <= roof);
        assert!((sort.intensity() - 2.0e9 / 1.5e11).abs() < 1e-15);
    }

    #[test]
    fn zero_byte_points_bind_on_compute() {
        let mut t = TraceStore::new();
        annotated_span(&mut t, 3, 1, "k", (0.0, 1.0), [1.0e9, 0.0, 100.0, 250.0]);
        let pts = roofline(&t);
        assert_eq!(pts.len(), 1);
        assert_eq!(pts[0].binding_ceiling(), "compute");
        assert_eq!(pts[0].binding_ceiling_gflops(), 100.0);
        assert!((pts[0].attained_fraction() - 0.01).abs() < 1e-12);
    }

    #[test]
    fn residual_signs_and_relative() {
        let r = TermResidual {
            term: "sort".into(),
            measured_s: 0.12,
            modelled_s: 0.10,
        };
        assert!((r.residual_s() - 0.02).abs() < 1e-15);
        assert!((r.relative() - 0.2).abs() < 1e-12);
        let zero_model = TermResidual {
            term: "recovery".into(),
            measured_s: 0.5,
            modelled_s: 0.0,
        };
        assert_eq!(zero_model.relative(), 1.0);
        let both_zero = TermResidual {
            term: "recovery".into(),
            measured_s: 0.0,
            modelled_s: 0.0,
        };
        assert_eq!(both_zero.relative(), 0.0);
        let fast = TermResidual {
            term: "build".into(),
            measured_s: 0.08,
            modelled_s: 0.10,
        };
        assert!(fast.residual_s() < 0.0, "faster than modelled is negative");
    }

    #[test]
    fn folded_profile_subtracts_children_and_orders_deterministically() {
        let mut t = TraceStore::new();
        let parent = t.span(1, 1, Lane::Cpu, "step", 0.0, 10.0);
        t.child_span(parent, "inner", 2.0, 5.0);
        t.span(0, 1, Lane::Gpu, "sort", 0.0, 1.0);
        t.span(0, 2, Lane::Gpu, "sort", 1.0, 3.0);
        let rows = folded_profile(&t);
        assert_eq!(rows.len(), 3);
        // Ordered by rank first.
        assert_eq!(rows[0].rank, 0);
        let sort = &rows[0];
        assert_eq!(sort.count, 2);
        assert_eq!(sort.total_s, 3.0);
        assert_eq!(sort.self_s, 3.0);
        let step = rows.iter().find(|r| r.name == "step").unwrap();
        assert_eq!(step.total_s, 10.0);
        assert_eq!(step.self_s, 7.0);
        let inner = rows.iter().find(|r| r.name == "inner").unwrap();
        assert_eq!(inner.self_s, 3.0);
    }

    #[test]
    fn telescoping_error_detects_gaps_and_overlaps() {
        let mut t = TraceStore::new();
        t.span(0, 1, Lane::Gpu, "a", 0.0, 1.0);
        t.span(0, 1, Lane::Gpu, "b", 1.0, 3.0);
        assert_eq!(telescoping_error(&t), 0.0);
        // A gap on another rank×step group.
        t.span(1, 1, Lane::Gpu, "a", 0.0, 1.0);
        t.span(1, 1, Lane::Gpu, "b", 1.5, 2.0);
        assert!((telescoping_error(&t) - 0.5).abs() < 1e-15);
        // CPU spans do not participate.
        t.span(2, 1, Lane::Cpu, "x", 0.0, 1.0);
        t.span(2, 1, Lane::Cpu, "y", 5.0, 6.0);
        assert!((telescoping_error(&t) - 0.5).abs() < 1e-15);
    }

    #[test]
    fn empty_trace_is_trivially_telescoped() {
        let t = TraceStore::new();
        assert_eq!(telescoping_error(&t), 0.0);
        assert!(roofline(&t).is_empty());
        assert!(folded_profile(&t).is_empty());
    }
}

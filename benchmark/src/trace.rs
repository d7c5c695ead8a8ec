//! Wall-clock span recording for the traced run.
//!
//! Spans are recorded by the harness around its own calls into each layer
//! (the program is not instrumented), kept in memory, and exported at exit
//! through the repository's own exporters. They use the `bonsai-obs` span
//! model, with seconds since the recorder's origin in place of modelled
//! seconds, so the Chrome trace and folded stacks need no new writer.

use bonsai_obs::span::{ArgValue, Lane, Span, SpanId};
use bonsai_obs::TraceStore;
use std::collections::BTreeMap;
use std::time::Instant;

/// Lane a span is drawn on, from the layer prefix of its name: walk, build
/// and key work on the device lane, wire work on the comm lane, everything
/// else (domain logic, harness roots) on the host lane.
fn lane_of(name: &str) -> Lane {
    match name.split('.').next() {
        Some("tree") | Some("sfc") => Lane::Gpu,
        Some("net") => Lane::Comm,
        _ => Lane::Cpu,
    }
}

/// In-memory wall-clock span recorder.
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

impl Recorder {
    /// Empty recorder; its clock starts now.
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// Start a span. The clock is read after the span is stored, so the
    /// recorder's own allocation falls outside the measured interval.
    pub fn open(&mut self, rank: usize, step: u64, name: &str, parent: Option<SpanId>) -> SpanId {
        self.spans.push(Span {
            rank: rank as u32,
            step,
            lane: lane_of(name),
            name: name.to_string(),
            start: 0.0,
            end: 0.0,
            parent,
            args: Vec::new(),
        });
        let id = SpanId(self.spans.len() - 1);
        let t = self.now();
        self.spans[id.0].start = t;
        self.spans[id.0].end = t;
        id
    }

    /// End a span; returns its duration in seconds.
    pub fn close(&mut self, id: SpanId) -> f64 {
        let t = self.now();
        let s = &mut self.spans[id.0];
        s.end = t;
        s.end - s.start
    }

    /// Attach a count (bytes, interactions, frames) to a span.
    pub fn arg(&mut self, id: SpanId, key: &'static str, v: u64) {
        self.spans[id.0].args.push((key, ArgValue::U64(v)));
    }

    /// Spans recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Hand the spans to the repository's trace store for export.
    pub fn into_store(self) -> TraceStore {
        TraceStore::from_parts(self.spans, Vec::new(), Vec::new())
    }
}

/// Self time (duration minus the part covered by direct children) summed by
/// span name, per step.
pub fn self_time_by_step(spans: &[Span]) -> BTreeMap<u64, BTreeMap<String, f64>> {
    let mut child_time = vec![0.0f64; spans.len()];
    for s in spans {
        if let Some(SpanId(p)) = s.parent {
            child_time[p] += s.end - s.start;
        }
    }
    let mut out: BTreeMap<u64, BTreeMap<String, f64>> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        *out.entry(s.step)
            .or_default()
            .entry(s.name.clone())
            .or_insert(0.0) += s.end - s.start - child_time[i];
    }
    out
}

/// Telescoping error of one step: how far the seconds attributed to layers
/// are from the self time the trace holds for that step (both exclude the
/// `step` and `replay` roots), as a share of the real step. Nonzero means a
/// span is attributed to no layer metric, or to two.
pub fn telescoping_error(step_s: f64, self_s: f64, attributed_s: f64) -> f64 {
    (attributed_s - self_s).abs() / step_s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(step: u64, name: &str, start: f64, end: f64, parent: Option<usize>) -> Span {
        Span {
            rank: 0,
            step,
            lane: lane_of(name),
            name: name.to_string(),
            start,
            end,
            parent: parent.map(SpanId),
            args: Vec::new(),
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_per_step() {
        let spans = vec![
            span(1, "replay", 0.0, 10.0, None),
            span(1, "domain.exchange", 1.0, 5.0, Some(0)),
            span(1, "sfc.keys", 2.0, 3.0, Some(1)),
            span(1, "tree.walk_local", 5.0, 9.0, Some(0)),
            span(2, "replay", 10.0, 12.0, None),
            span(2, "tree.walk_local", 10.5, 11.5, Some(4)),
        ];
        let by_step = self_time_by_step(&spans);
        let s1 = &by_step[&1];
        assert_eq!(s1["replay"], 2.0);
        assert_eq!(s1["domain.exchange"], 3.0);
        assert_eq!(s1["sfc.keys"], 1.0);
        assert_eq!(s1["tree.walk_local"], 4.0);
        // Self times of a properly nested step add up to its root.
        assert_eq!(s1.values().sum::<f64>(), 10.0);
        assert_eq!(by_step[&2]["tree.walk_local"], 1.0);
        assert_eq!(by_step[&2]["replay"], 1.0);
    }

    #[test]
    fn telescoping_flags_unattributed_time() {
        assert_eq!(telescoping_error(2.0, 1.5, 1.5), 0.0);
        assert_eq!(telescoping_error(2.0, 1.5, 1.0), 0.25);
        assert_eq!(telescoping_error(2.0, 1.0, 1.5), 0.25);
    }

    #[test]
    fn recorder_nests_and_exports() {
        let mut rec = Recorder::new();
        let root = rec.open(0, 7, "replay", None);
        let kid = rec.open(3, 7, "net.seal", Some(root));
        rec.arg(kid, "bytes", 4096);
        // Long enough to survive the folded format's whole microseconds.
        std::thread::sleep(std::time::Duration::from_millis(2));
        let d_kid = rec.close(kid);
        let d_root = rec.close(root);
        assert!(d_root >= d_kid && d_kid >= 2e-3);
        assert_eq!(rec.spans()[1].lane, Lane::Comm);
        assert_eq!(rec.spans()[1].rank, 3);
        let store = rec.into_store();
        let json = bonsai_obs::chrome::chrome_trace_json(&store);
        assert!(json.contains("\"net.seal\"") && json.contains("\"bytes\":4096"));
        let folded = bonsai_obs::folded::folded_stacks(&store);
        assert!(folded.contains("rank 3;COMM;replay;net.seal "), "{folded}");
    }
}

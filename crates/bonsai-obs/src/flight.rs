//! Ring-buffer flight recorder: last-K-steps of full-fidelity spans, frozen
//! into an exportable incident window when an alert fires.
//!
//! A multi-thousand-step run cannot keep its whole trace, and the
//! interesting steps are precisely the ones *around* an alert — the storm
//! of retransmissions before a recovery alert, the balancer wobble before a
//! flop-residual alert. The [`FlightRecorder`] therefore copies each step's
//! spans and instants out of the live [`TraceStore`] into a bounded ring;
//! [`FlightRecorder::freeze`] snapshots the ring into an [`Incident`] — a
//! self-contained [`TraceStore`] of the window (Perfetto-loadable via the
//! chrome exporter) plus a deterministic structured report.

use crate::chrome::chrome_trace_json;
use crate::health::AlertEvent;
use crate::json::fmt_f64;
use crate::span::{FlowPoint, Instant, Span, SpanId, TraceStore};
use std::collections::VecDeque;

/// One recorded step: its spans (parents remapped to window-local ids),
/// instants, and flow points.
#[derive(Clone, Debug)]
struct StepFrame {
    step: u64,
    spans: Vec<Span>,
    instants: Vec<Instant>,
    flows: Vec<FlowPoint>,
}

/// Bounded ring of the last K steps of full-fidelity trace data.
#[derive(Clone, Debug)]
pub struct FlightRecorder {
    window: usize,
    frames: VecDeque<StepFrame>,
}

impl FlightRecorder {
    /// Recorder keeping the last `window` steps (clamped to ≥ 1).
    pub fn new(window: usize) -> Self {
        Self {
            window: window.max(1),
            frames: VecDeque::new(),
        }
    }

    /// Steps the ring holds at most.
    pub fn window(&self) -> usize {
        self.window
    }

    /// Steps currently held, oldest first.
    pub fn steps(&self) -> Vec<u64> {
        self.frames.iter().map(|f| f.step).collect()
    }

    /// Copy `step`'s spans and instants out of `trace` into the ring,
    /// evicting the oldest frame when full. Span parents are remapped to
    /// frame-local indices; a parent outside the step becomes `None`.
    pub fn record_step(&mut self, trace: &TraceStore, step: u64) {
        let recs = trace.step_records(step);
        let mut spans = recs.spans.to_vec();
        for s in &mut spans {
            s.parent = s
                .parent
                .and_then(|p| p.0.checked_sub(recs.first_span))
                .filter(|&local| local < recs.spans.len())
                .map(SpanId);
        }
        let instants = recs.instants.to_vec();
        let flows = recs.flow_points.to_vec();
        self.frames.push_back(StepFrame {
            step,
            spans,
            instants,
            flows,
        });
        while self.frames.len() > self.window {
            self.frames.pop_front();
        }
    }

    /// Materialise the current ring as one self-contained [`TraceStore`]
    /// (frames concatenated oldest-first, parents re-offset).
    fn window_trace(&self) -> TraceStore {
        let mut spans: Vec<Span> = Vec::new();
        let mut instants: Vec<Instant> = Vec::new();
        let mut flows: Vec<FlowPoint> = Vec::new();
        for f in &self.frames {
            let base = spans.len();
            for s in &f.spans {
                let mut s = s.clone();
                s.parent = s.parent.map(|p| SpanId(p.0 + base));
                spans.push(s);
            }
            instants.extend(f.instants.iter().cloned());
            flows.extend(f.flows.iter().cloned());
        }
        TraceStore::from_parts(spans, instants, flows)
    }

    /// Freeze the ring into an [`Incident`] for the alert that fired at
    /// `step`. The recorder keeps running afterwards; the incident owns an
    /// independent copy of the window.
    pub fn freeze(&self, id: usize, trigger: &AlertEvent) -> Incident {
        let trace = self.window_trace();
        let steps = self.steps();
        let window = (
            steps.first().copied().unwrap_or(trigger.step),
            steps.last().copied().unwrap_or(trigger.step),
        );
        Incident {
            id,
            rule: trigger.rule.clone(),
            metric: trigger.metric.clone(),
            severity: trigger.severity,
            value: trigger.value,
            step: trigger.step,
            window,
            trace,
        }
    }
}

/// A frozen incident: the alert that fired plus the flight-recorder window
/// around it.
#[derive(Clone, Debug)]
pub struct Incident {
    /// Incident number within the run (0-based, in firing order).
    pub id: usize,
    /// Rule that fired.
    pub rule: String,
    /// Metric the rule watches.
    pub metric: String,
    /// Severity of the alert.
    pub severity: crate::health::Severity,
    /// Metric value at the trigger.
    pub value: f64,
    /// Step the alert opened on.
    pub step: u64,
    /// `(first, last)` step covered by the frozen window.
    pub window: (u64, u64),
    /// Full-fidelity spans and instants of the window.
    pub trace: TraceStore,
}

impl Incident {
    /// Chrome-trace JSON of the incident window (Perfetto-loadable).
    pub fn trace_json(&self) -> String {
        chrome_trace_json(&self.trace)
    }

    /// Deterministic structured incident report (plain text).
    pub fn report(&self) -> String {
        let mut s = String::new();
        s.push_str(&format!("incident {}\n", self.id));
        s.push_str(&format!("rule:     {}\n", self.rule));
        s.push_str(&format!("severity: {}\n", self.severity.name()));
        s.push_str(&format!("metric:   {} = {}\n", self.metric, fmt_f64(self.value)));
        s.push_str(&format!("step:     {}\n", self.step));
        s.push_str(&format!(
            "window:   steps {}..={} ({} spans, {} instants, {} flow points)\n",
            self.window.0,
            self.window.1,
            self.trace.spans().len(),
            self.trace.instants().len(),
            self.trace.flow_points().len()
        ));
        s.push_str(&format!(
            "makespan: {} s\n",
            fmt_f64(self.trace.makespan())
        ));
        if let Some(cp) = crate::analysis::critical_path(&self.trace, self.step) {
            let by_cause = cp.wait_seconds_by_cause();
            if !by_cause.is_empty() {
                s.push_str("waits:    ");
                let parts: Vec<String> = by_cause
                    .iter()
                    .map(|(cause, secs)| format!("{cause}={} s", fmt_f64(*secs)))
                    .collect();
                s.push_str(&parts.join(", "));
                s.push('\n');
            }
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::health::{AlertKind, Severity};
    use crate::span::{FlowPhase, Lane};

    fn alert(step: u64) -> AlertEvent {
        AlertEvent {
            step,
            rule: "recovery-storm".into(),
            metric: "bonsai_recovery_actions".into(),
            severity: Severity::Warning,
            kind: AlertKind::Open,
            value: 17.0,
            detail: "test".into(),
        }
    }

    fn store_with_steps(n: u64) -> TraceStore {
        let mut t = TraceStore::new();
        for step in 1..=n {
            let base = step as f64;
            let root = t.span(0, step, Lane::Gpu, "gravity", base, base + 0.5);
            t.child_span(root, "local", base, base + 0.3);
            t.span(1, step, Lane::Comm, "let-comm", base, base + 0.2);
            t.instant(1, step, Lane::Comm, "fault:drop", base + 0.1);
            // One complete flow arrow per step: sent on rank 1, stepped and
            // finished on rank 0 — the causal links an incident must keep.
            t.flow_point(step, 1, step, Lane::Comm, "flow:Let", base, FlowPhase::Start);
            t.flow_point(step, 0, step, Lane::Comm, "flow:Let", base + 0.1, FlowPhase::Step);
            t.flow_point(step, 0, step, Lane::Comm, "flow:Let", base + 0.2, FlowPhase::Finish);
        }
        t
    }

    #[test]
    fn ring_keeps_only_the_window() {
        let t = store_with_steps(10);
        let mut fr = FlightRecorder::new(3);
        for step in 1..=10 {
            fr.record_step(&t, step);
        }
        assert_eq!(fr.steps(), vec![8, 9, 10]);
        let w = fr.window_trace();
        assert_eq!(w.spans().len(), 9); // 3 steps × 3 spans
        assert_eq!(w.instants().len(), 3);
        assert_eq!(w.flow_points().len(), 9); // 3 steps × 3 flow points
        assert_eq!(w.last_step(), Some(10));
        // Parent links survive the per-frame remap + concatenation.
        let children: Vec<_> = w.spans().iter().filter(|s| s.parent.is_some()).collect();
        assert_eq!(children.len(), 3);
        for c in &children {
            let p = &w.spans()[c.parent.unwrap().0];
            assert_eq!(p.name, "gravity");
            assert_eq!(p.step, c.step);
        }
    }

    #[test]
    fn freeze_exports_a_loadable_window() {
        let t = store_with_steps(6);
        let mut fr = FlightRecorder::new(4);
        for step in 1..=6 {
            fr.record_step(&t, step);
        }
        let inc = fr.freeze(0, &alert(6));
        assert_eq!(inc.window, (3, 6));
        assert_eq!(inc.rule, "recovery-storm");
        let json = inc.trace_json();
        // Chrome export of the window parses and contains the phases.
        let v = crate::json::parse(&json).expect("incident trace must be valid JSON");
        assert!(v.get("traceEvents").and_then(|e| e.as_arr()).is_some());
        assert!(json.contains("\"gravity\""));
        assert!(json.contains("fault:drop"));
        let report = inc.report();
        assert!(report.contains("rule:     recovery-storm"));
        assert!(report.contains("steps 3..=6"));
        // Deterministic: freezing twice renders identically.
        let again = fr.freeze(0, &alert(6));
        assert_eq!(inc.trace_json(), again.trace_json());
        assert_eq!(inc.report(), again.report());
    }

    #[test]
    fn frozen_incident_keeps_flow_arrows() {
        // The regression this guards: an incident trace that drops its flow
        // points still loads in Perfetto but loses the causal arrows — the
        // exact thing one opens an incident to follow.
        let t = store_with_steps(6);
        let mut fr = FlightRecorder::new(4);
        for step in 1..=6 {
            fr.record_step(&t, step);
        }
        let inc = fr.freeze(0, &alert(6));
        let json = inc.trace_json();
        for ph in ["\"ph\":\"s\"", "\"ph\":\"t\"", "\"ph\":\"f\""] {
            assert!(json.contains(ph), "frozen trace lost {ph} events");
        }
        // Only window steps 3..=6 survive: 4 steps × 3 points.
        assert_eq!(inc.trace.flow_points().len(), 12);
        assert!(inc.report().contains("12 flow points"));
    }

    #[test]
    fn freeze_on_empty_ring_is_safe() {
        let fr = FlightRecorder::new(2);
        let inc = fr.freeze(1, &alert(5));
        assert_eq!(inc.window, (5, 5));
        assert!(inc.trace.is_empty());
        assert!(inc.report().contains("0 spans"));
    }
}

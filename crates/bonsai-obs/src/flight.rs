//! Incidents: the trace window around an alert, frozen into an exportable
//! copy when the alert fires.
//!
//! A multi-thousand-step run cannot keep its whole trace, and the
//! interesting steps are precisely the ones *around* an alert — the storm
//! of retransmissions before a recovery alert, the balancer wobble before a
//! flop-residual alert. The live [`TraceStore`] holds the last
//! [`TRACE_WINDOW`] epochs, so [`Incident::freeze`] copies that window
//! out of it, with the window's flow arrows drawn for it: a self-contained
//! [`TraceStore`] (Perfetto-loadable via the chrome exporter) plus a
//! deterministic structured report.

use crate::chrome::chrome_trace_json;
use crate::health::AlertEvent;
use crate::json::fmt_f64;
use crate::span::{shift_parent, FlowPoint, Span, TraceStore, TRACE_WINDOW};

/// A frozen incident: the alert that fired plus the trace window around it.
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
    /// `(first, last)` epoch covered by the frozen window.
    pub window: (u64, u64),
    /// Full-fidelity spans, instants and flow arrows of the window.
    pub trace: TraceStore,
}

/// The suffix of step-ordered `items` whose step is `≥ from`.
fn from_step<T>(items: &[T], from: u64, step: impl Fn(&T) -> u64) -> &[T] {
    &items[items.partition_point(|x| step(x) < from)..]
}

impl Incident {
    /// Freeze the records of the last [`TRACE_WINDOW`] epochs of `trace`,
    /// up to `epoch`, with those of `arrows` (flow points in step order,
    /// drawn for the freeze: a live store holds none), for the alert
    /// `trigger`. The copy is independent of the live store; parents
    /// recorded before the window become `None`.
    pub fn freeze(
        id: usize,
        trace: &TraceStore,
        arrows: impl IntoIterator<Item = FlowPoint>,
        epoch: u64,
        trigger: &AlertEvent,
    ) -> Self {
        let from = (epoch + 1).saturating_sub(TRACE_WINDOW);
        let spans = from_step(trace.spans(), from, |s| s.step);
        let instants = from_step(trace.instants(), from, |i| i.step);
        let flows: Vec<_> = (arrows.into_iter()).skip_while(|f| f.step < from).collect();
        let cut = trace.spans().len() - spans.len();
        let first = [
            spans.first().map(|s| s.step),
            instants.first().map(|i| i.step),
            flows.first().map(|f| f.step),
        ];
        let window = (first.into_iter().flatten().min().unwrap_or(epoch), epoch);
        let spans = spans
            .iter()
            .map(|s| Span {
                parent: shift_parent(s.parent, cut),
                ..s.clone()
            })
            .collect();
        Incident {
            id,
            rule: trigger.rule.clone(),
            metric: trigger.metric.clone(),
            severity: trigger.severity,
            value: trigger.value,
            step: trigger.step,
            window,
            trace: TraceStore::from_parts(spans, instants.to_vec(), flows),
        }
    }

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
        // Spans are keyed by gravity epoch, which runs ahead of the alert's
        // step: analyse the trigger epoch, the window's last.
        if let Some(cp) = crate::analysis::critical_path(&self.trace, self.window.1) {
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

    /// `n` steps of a live store, and their flow arrows beside it.
    fn store_with_steps(n: u64) -> (TraceStore, Vec<FlowPoint>) {
        let (mut t, mut arrows) = (TraceStore::new(), TraceStore::new());
        for step in 1..=n {
            let base = step as f64;
            let root = t.span(0, step, Lane::Gpu, "gravity", base, base + 0.5);
            t.child_span(root, "local", base, base + 0.3);
            t.span(1, step, Lane::Comm, "let-comm", base, base + 0.2);
            t.instant(1, step, Lane::Comm, "fault:drop", base + 0.1);
            // One complete flow arrow per step: sent on rank 1, stepped and
            // finished on rank 0 — the causal links an incident must keep.
            arrows.flow_point(step, 1, step, Lane::Comm, "flow:Let", base, FlowPhase::Start);
            arrows.flow_point(step, 0, step, Lane::Comm, "flow:Let", base + 0.1, FlowPhase::Step);
            arrows.flow_point(step, 0, step, Lane::Comm, "flow:Let", base + 0.2, FlowPhase::Finish);
        }
        (t, arrows.flow_points().iter().cloned().collect())
    }

    #[test]
    fn parents_survive_the_cut() {
        let (t, arrows) = store_with_steps(12);
        let inc = Incident::freeze(0, &t, arrows, 12, &alert(11));
        assert_eq!(inc.window, (5, 12));
        let w = &inc.trace;
        assert_eq!(w.spans().len(), 24); // 8 epochs × 3 spans
        assert_eq!(w.instants().len(), 8);
        assert_eq!(w.flow_points().len(), 24);
        assert_eq!(w.last_step(), Some(12));
        assert!(w.spans().iter().all(|s| s.step >= 5));
        // Parent links survive the shift by the cut.
        let children: Vec<_> = w.spans().iter().filter(|s| s.parent.is_some()).collect();
        assert_eq!(children.len(), 8);
        for c in &children {
            let p = &w.spans()[c.parent.unwrap().0];
            assert_eq!(p.name, "gravity");
            assert_eq!(p.step, c.step);
        }
    }

    #[test]
    fn freeze_exports_a_loadable_window() {
        let (t, arrows) = store_with_steps(6);
        let inc = Incident::freeze(0, &t, arrows.clone(), 6, &alert(5));
        assert_eq!(inc.window, (1, 6), "a short run freezes all it has");
        assert_eq!(inc.rule, "recovery-storm");
        let json = inc.trace_json();
        // Chrome export of the window parses and contains the phases.
        let v = crate::json::parse(&json).expect("incident trace must be valid JSON");
        assert!(v.get("traceEvents").and_then(|e| e.as_arr()).is_some());
        assert!(json.contains("\"gravity\""));
        assert!(json.contains("fault:drop"));
        let report = inc.report();
        assert!(report.contains("rule:     recovery-storm"));
        assert!(report.contains("steps 1..=6"));
        // Deterministic: freezing twice renders identically.
        let again = Incident::freeze(0, &t, arrows, 6, &alert(5));
        assert_eq!(inc.trace_json(), again.trace_json());
        assert_eq!(inc.report(), again.report());
    }

    #[test]
    fn frozen_incident_keeps_flow_arrows() {
        // The regression this guards: an incident trace that drops its flow
        // points still loads in Perfetto but loses the causal arrows — the
        // exact thing one opens an incident to follow.
        let (t, arrows) = store_with_steps(10);
        let inc = Incident::freeze(0, &t, arrows, 10, &alert(9));
        let json = inc.trace_json();
        for ph in ["\"ph\":\"s\"", "\"ph\":\"t\"", "\"ph\":\"f\""] {
            assert!(json.contains(ph), "frozen trace lost {ph} events");
        }
        // Only window epochs 3..=10 survive: 8 epochs × 3 points.
        assert_eq!(inc.trace.flow_points().len(), 24);
        assert!(inc.report().contains("24 flow points"));
    }

    #[test]
    fn the_report_analyses_the_trigger_epoch() {
        // An alert at step 3 fired in epoch 5 (a rollback consumed epochs):
        // rank 1 idles 0.4 s after rank 0's last span, and the report's
        // critical path must see that wait.
        let mut t = TraceStore::new();
        t.span(0, 5, Lane::Gpu, "local", 0.0, 1.0);
        t.span(1, 5, Lane::Gpu, "lets", 1.4, 2.0);
        let inc = Incident::freeze(0, &t, [], 5, &alert(3));
        assert_eq!((inc.step, inc.window), (3, (5, 5)));
        assert!(inc.report().contains("waits:"), "{}", inc.report());
    }

    #[test]
    fn freeze_on_an_empty_store_is_safe() {
        let inc = Incident::freeze(1, &TraceStore::new(), [], 5, &alert(4));
        assert_eq!(inc.window, (5, 5));
        assert!(inc.trace.is_empty());
        assert!(inc.report().contains("0 spans"));
    }
}

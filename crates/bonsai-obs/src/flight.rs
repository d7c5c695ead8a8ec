//! Incidents: the alert that fired plus the trace window around it, cut
//! from one history of frozen epochs when read.
//!
//! A multi-thousand-step run cannot keep its whole trace, and the
//! interesting steps are precisely the ones *around* an alert — the storm
//! of retransmissions before a recovery alert, the balancer wobble before a
//! flop-residual alert. The live [`TraceStore`] holds the last
//! [`TRACE_WINDOW`] epochs, so when an alert fires the run syncs that
//! window into a history store ([`TraceStore::sync_from`]), which holds
//! each frozen epoch once however many incidents' windows cover it, and
//! holds no flow arrows: they are drawn again when read. [`Incident::freeze`]
//! keeps the alert, its window and how much of the history it saw, and
//! [`Incident::cut`] builds its trace from the history when it is read: a
//! self-contained [`TraceStore`] (Perfetto-loadable via the chrome
//! exporter) plus a deterministic structured report.

use crate::health::AlertEvent;
use crate::json::fmt_f64;
use crate::span::{shift_parent, FlowPoint, Instant, Span, TraceStore, TRACE_WINDOW};

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
    /// Spans and instants the history held when the incident froze: its
    /// trace ends there, whatever the history gains later.
    pub held: (usize, usize),
}

/// The suffix of step-ordered `items` whose step is `≥ from`.
fn from_step<T>(items: &[T], from: u64, step: impl Fn(&T) -> u64) -> &[T] {
    &items[items.partition_point(|x| step(x) < from)..]
}

impl Incident {
    /// Freeze the alert `trigger` at `epoch` over `history`, a store that
    /// holds every span and instant of the last [`TRACE_WINDOW`] epochs up
    /// to `epoch` as the live trace holds them now (and perhaps older
    /// records; no flow points). `first_arrow` is the first of those
    /// epochs that draws a flow arrow, if any. The window opens at the
    /// first of them with any record.
    pub fn freeze(
        id: usize,
        history: &TraceStore,
        first_arrow: Option<u64>,
        epoch: u64,
        trigger: &AlertEvent,
    ) -> Self {
        let from = (epoch + 1).saturating_sub(TRACE_WINDOW);
        let first = [
            from_step(history.spans(), from, |s| s.step).first().map(|s| s.step),
            from_step(history.instants(), from, |i| i.step).first().map(|i| i.step),
            first_arrow,
        ];
        Incident {
            id,
            rule: trigger.rule.clone(),
            metric: trigger.metric.clone(),
            severity: trigger.severity,
            value: trigger.value,
            step: trigger.step,
            window: (first.into_iter().flatten().min().unwrap_or(epoch), epoch),
            held: (history.spans().len(), history.instants().len()),
        }
    }

    /// The spans and instants of the window that `history` held when the
    /// incident froze.
    pub fn records<'a>(&self, history: &'a TraceStore) -> (&'a [Span], &'a [Instant]) {
        let (spans, instants) = (&history.spans()[..self.held.0], &history.instants()[..self.held.1]);
        (from_step(spans, self.window.0, |s| s.step), from_step(instants, self.window.0, |i| i.step))
    }

    /// The incident's trace, cut from the `history` it froze over: the
    /// window's records as they were when it froze, parents recorded
    /// before the window `None`, with `arrows` (the window's flow points,
    /// in step order) drawn in.
    pub fn cut(&self, history: &TraceStore, arrows: Vec<FlowPoint>) -> TraceStore {
        let (spans, instants) = self.records(history);
        let cut = self.held.0 - spans.len();
        let spans = (spans.iter())
            .map(|s| Span {
                parent: shift_parent(s.parent, cut),
                ..s.clone()
            })
            .collect();
        TraceStore::from_parts(spans, instants.to_vec(), arrows)
    }

    /// Deterministic structured report (plain text) of the incident's
    /// trace, cut from `history`, whose window draws `flow_points` arrow
    /// points: nothing in it reads the arrows themselves.
    pub fn report(&self, history: &TraceStore, flow_points: usize) -> String {
        let trace = self.cut(history, Vec::new());
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
            trace.spans().len(),
            trace.instants().len(),
            flow_points
        ));
        s.push_str(&format!(
            "makespan: {} s\n",
            fmt_f64(trace.makespan())
        ));
        // Spans are keyed by gravity epoch, which runs ahead of the alert's
        // step: analyse the trigger epoch, the window's last.
        if let Some(cp) = crate::analysis::critical_path(&trace, self.window.1) {
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
    use crate::chrome::chrome_trace_json;
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

    /// Record `step` into a live store `t`, and its flow arrows into
    /// `arrows` beside it.
    fn record_step(t: &mut TraceStore, arrows: &mut TraceStore, step: u64) {
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

    /// `n` steps of a live store, and their flow arrows beside it.
    fn store_with_steps(n: u64) -> (TraceStore, Vec<FlowPoint>) {
        let (mut t, mut arrows) = (TraceStore::new(), TraceStore::new());
        for step in 1..=n {
            record_step(&mut t, &mut arrows, step);
        }
        (t, arrows.flow_points().iter().cloned().collect())
    }

    /// Freeze the alert at `epoch` the way a run does: sync the window into
    /// `history`, then cut the incident's trace from it with the window's
    /// arrows.
    fn freeze(history: &mut TraceStore, live: &TraceStore, arrows: &[FlowPoint], epoch: u64) -> (Incident, TraceStore) {
        let from = (epoch + 1).saturating_sub(TRACE_WINDOW);
        history.sync_from(live, from);
        let first_arrow = arrows.iter().map(|f| f.step).find(|&e| e >= from);
        let inc = Incident::freeze(0, history, first_arrow, epoch, &alert(epoch - 1));
        let drawn = arrows.iter().filter(|f| (inc.window.0..=inc.window.1).contains(&f.step));
        let trace = inc.cut(history, drawn.cloned().collect());
        (inc, trace)
    }

    #[test]
    fn parents_survive_the_cut() {
        let (t, arrows) = store_with_steps(12);
        let (inc, w) = freeze(&mut TraceStore::new(), &t, &arrows, 12);
        assert_eq!(inc.window, (5, 12));
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
    fn an_overlapping_freeze_holds_each_epoch_once() {
        // Windows 5..=12 and 9..=16 over one history: the epochs they share
        // are held once. Epoch 12 gains an instant after the first freeze,
        // as a step's close records after its alerts: the second incident
        // sees it, and the first still ends where it froze.
        let (mut live, mut arrows) = (TraceStore::new(), TraceStore::new());
        for step in 1..=12 {
            record_step(&mut live, &mut arrows, step);
        }
        let mut history = TraceStore::new();
        history.sync_from(&live, 5);
        let first = Incident::freeze(0, &history, Some(5), 12, &alert(11));
        let before = chrome_trace_json(&first.cut(&history, Vec::new()));
        live.instant(0, 12, Lane::Cpu, "autoscale:grow", 12.5);
        for step in 13..=16 {
            record_step(&mut live, &mut arrows, step);
        }
        live.retain_steps(9);
        history.sync_from(&live, 9);
        assert_eq!(history.spans().len(), 12 * 3, "epochs 5..=16, once each");
        assert_eq!(history.instants().len(), 12 + 1);
        assert_eq!(chrome_trace_json(&first.cut(&history, Vec::new())), before, "the first incident grew");
        let second = Incident::freeze(1, &history, Some(9), 16, &alert(15));
        assert_eq!(second.window, (9, 16));
        let w = second.cut(&history, Vec::new());
        assert_eq!(chrome_trace_json(&w), chrome_trace_json(&live), "the second window is the live one");
        for c in w.spans().iter().filter(|s| s.parent.is_some()) {
            let p = &w.spans()[c.parent.unwrap().0];
            assert_eq!((p.name.as_str(), p.step), ("gravity", c.step));
        }
    }

    #[test]
    fn freeze_exports_a_loadable_window() {
        let (t, arrows) = store_with_steps(6);
        let (inc, w) = freeze(&mut TraceStore::new(), &t, &arrows, 6);
        assert_eq!(inc.window, (1, 6), "a short run freezes all it has");
        assert_eq!(inc.rule, "recovery-storm");
        let json = chrome_trace_json(&w);
        // Chrome export of the window parses and contains the phases.
        let v = crate::json::parse(&json).expect("incident trace must be valid JSON");
        assert!(v.get("traceEvents").and_then(|e| e.as_arr()).is_some());
        assert!(json.contains("\"gravity\""));
        assert!(json.contains("fault:drop"));
        let mut history = TraceStore::new();
        history.sync_from(&t, 1);
        let report = inc.report(&history, w.flow_points().len());
        assert!(report.contains("rule:     recovery-storm"));
        assert!(report.contains("steps 1..=6"));
        // Deterministic: freezing twice renders identically.
        let (again, w2) = freeze(&mut TraceStore::new(), &t, &arrows, 6);
        assert_eq!(json, chrome_trace_json(&w2));
        assert_eq!(report, again.report(&history, w2.flow_points().len()));
    }

    #[test]
    fn frozen_incident_keeps_flow_arrows() {
        // The regression this guards: an incident trace that drops its flow
        // points still loads in Perfetto but loses the causal arrows — the
        // exact thing one opens an incident to follow.
        let (t, arrows) = store_with_steps(10);
        let mut history = TraceStore::new();
        let (inc, w) = freeze(&mut history, &t, &arrows, 10);
        let json = chrome_trace_json(&w);
        for ph in ["\"ph\":\"s\"", "\"ph\":\"t\"", "\"ph\":\"f\""] {
            assert!(json.contains(ph), "frozen trace lost {ph} events");
        }
        // Only window epochs 3..=10 survive: 8 epochs × 3 points.
        assert_eq!(w.flow_points().len(), 24);
        assert!(inc.report(&history, w.flow_points().len()).contains("24 flow points"));
    }

    #[test]
    fn the_report_analyses_the_trigger_epoch() {
        // An alert at step 3 fired in epoch 5 (a rollback consumed epochs):
        // rank 1 idles 0.4 s after rank 0's last span, and the report's
        // critical path must see that wait.
        let mut t = TraceStore::new();
        t.span(0, 5, Lane::Gpu, "local", 0.0, 1.0);
        t.span(1, 5, Lane::Gpu, "lets", 1.4, 2.0);
        let inc = Incident::freeze(0, &t, None, 5, &alert(3));
        assert_eq!((inc.step, inc.window), (3, (5, 5)));
        assert!(inc.report(&t, 0).contains("waits:"), "{}", inc.report(&t, 0));
    }

    #[test]
    fn freeze_on_an_empty_store_is_safe() {
        let history = TraceStore::new();
        let inc = Incident::freeze(1, &history, None, 5, &alert(4));
        assert_eq!(inc.window, (5, 5));
        assert!(inc.cut(&history, Vec::new()).is_empty());
        assert!(inc.report(&history, 0).contains("0 spans"));
    }
}

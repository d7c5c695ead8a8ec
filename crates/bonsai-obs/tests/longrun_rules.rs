//! Satellite regression: a synthetic metric stream that dips, recovers and
//! then drifts must produce *exactly* the expected alert open/close
//! sequence, and the rendered incident log must be byte-deterministic.
//! Also exercises the incident freeze path end-to-end against the rule
//! engine (the integration the cluster performs each step).

use bonsai_obs::{
    default_rules, AlertKind, Condition, HealthMonitor, Incident, Lane, Rule, Severity, TraceStore,
};

/// The synthetic Gflops stream: healthy, a dip below the floor, recovery,
/// then a slow sag (relative drift from the baseline).
fn gflops_stream() -> Vec<(u64, f64)> {
    let mut v = Vec::new();
    // steps 1..=10: healthy around 1500
    for s in 1..=10u64 {
        v.push((s, 1500.0));
    }
    // steps 11..=16: collapse to near zero (floor dip)
    for s in 11..=16u64 {
        v.push((s, 0.2));
    }
    // steps 17..=30: recovered
    for s in 17..=30u64 {
        v.push((s, 1480.0));
    }
    // steps 31..=50: sagging to 60% loss — drifts past the 40% band
    for s in 31..=50u64 {
        let t = (s - 30) as f64 / 20.0;
        v.push((s, 1480.0 - 900.0 * t));
    }
    v
}

fn floor_and_sag_rules() -> Vec<Rule> {
    vec![
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
    ]
}

#[test]
fn dip_recover_drift_produces_exact_sequence() {
    let mut h = HealthMonitor::new(floor_and_sag_rules());
    for (step, v) in gflops_stream() {
        h.observe(step, "bonsai_gpu_gflops", v);
    }
    let seq: Vec<(u64, &str, AlertKind)> = h
        .events()
        .iter()
        .map(|e| (e.step, e.rule.as_str(), e.kind))
        .collect();
    // Floor: breaches 11..16, opens on the 3rd consecutive breach (13),
    // closes on the 3rd clean step after recovery (19).
    // Sag: |v − 1500| > 0.4·1500 ⟺ v < 900 — true for the dip (11..16) and
    // again once the ramp sinks below 900 at step 43. The dip opens it at
    // 15 (5th breach), recovery closes it at 21 (5th clean), and the drift
    // reopens it at 47 (5th consecutive sagging step).
    assert_eq!(
        seq,
        vec![
            (13, "gflops-floor", AlertKind::Open),
            (15, "gflops-sag", AlertKind::Open),
            (19, "gflops-floor", AlertKind::Close),
            (21, "gflops-sag", AlertKind::Close),
            (47, "gflops-sag", AlertKind::Open),
        ],
        "unexpected alert sequence: {seq:?}"
    );
    assert_eq!(h.worst_opened(), Some(Severity::Critical));
    assert_eq!(h.opened_count(Severity::Critical), 1);
    assert_eq!(h.opened_count(Severity::Warning), 2);
    assert_eq!(h.open_rules().len(), 1, "the sag is still open at the end");
}

#[test]
fn incident_log_is_byte_deterministic() {
    let render = || {
        let mut h = HealthMonitor::new(floor_and_sag_rules());
        for (step, v) in gflops_stream() {
            h.observe(step, "bonsai_gpu_gflops", v);
        }
        h.render_log()
    };
    let a = render();
    let b = render();
    assert_eq!(a, b);
    assert_eq!(a.lines().count(), 5);
    assert!(a.contains("gflops-floor"));
    assert!(a.contains("[critical]"));
    // Stable line shape: every line carries step, kind, rule, value.
    for line in a.lines() {
        assert!(line.starts_with("step "), "bad log line: {line}");
        assert!(line.contains("bonsai_gpu_gflops"), "bad log line: {line}");
    }
}

#[test]
fn alert_firing_freezes_a_flight_window() {
    // Drive the default rule set with a recovery storm while a synthetic
    // trace records every step — the coupling the cluster runs.
    let mut h = HealthMonitor::new(default_rules());
    let mut trace = TraceStore::new();
    let mut incidents = Vec::new();
    for step in 1..=20u64 {
        let base = step as f64;
        trace.span(0, step, Lane::Gpu, "gravity", base, base + 0.8);
        let storm = (12..=15).contains(&step);
        if storm {
            trace.instant(0, step, Lane::Comm, "recovery:retransmit", base + 0.1);
        }
        let actions = if storm { 24.0 } else { 0.0 };
        for ev in h.observe(step, "bonsai_recovery_actions", actions) {
            if ev.kind == AlertKind::Open {
                // Freeze twice at the trigger to check determinism.
                incidents.push(Incident::freeze(incidents.len() / 2, &trace, [], step, &ev));
                incidents.push(Incident::freeze(incidents.len() / 2, &trace, [], step, &ev));
            }
        }
    }
    // for_steps = 2 ⇒ the storm (12..=15) opens at step 13; clear_steps = 2
    // ⇒ closes at step 17.
    let kinds: Vec<_> = h.events().iter().map(|e| (e.step, e.kind)).collect();
    assert_eq!(kinds, vec![(13, AlertKind::Open), (17, AlertKind::Close)]);
    assert_eq!(incidents.len(), 2);
    let inc = &incidents[0];
    assert_eq!(inc.rule, "recovery-storm");
    assert_eq!(inc.step, 13);
    assert_eq!(
        inc.window,
        (6, 13),
        "the trace window ending at the trigger step"
    );
    assert_eq!(inc.trace.spans().len(), 8);
    assert_eq!(inc.trace.instants().len(), 2, "the storm so far");
    // The frozen window is Perfetto-loadable and contains the storm.
    let json = inc.trace_json();
    let v = bonsai_obs::json::parse(&json).expect("valid JSON");
    assert!(v.get("traceEvents").and_then(|e| e.as_arr()).is_some());
    assert!(json.contains("recovery:retransmit"));
    // The two freezes taken at the trigger are byte-identical.
    assert_eq!(inc.report(), incidents[1].report());
    assert_eq!(inc.trace_json(), incidents[1].trace_json());
}

//! The in-run dashboard: a deterministic, zero-dependency HTML snapshot of
//! a streamed run *as a subscriber sees it* — rendered purely from the
//! telemetry frames the fast subscriber has received so far plus the bus's
//! accounting reports, never from the cluster's internal state. What the
//! dashboard can show is exactly what the bus delivered, so a frame the
//! backpressure policy dropped is visibly absent.

use crate::report::page;
use crate::short;
use crate::stream::StreamBenchConfig;
use bonsai_obs::overhead::OVERHEAD_BUDGET_FRACTION;
use bonsai_obs::stream::{FrameKind, TelemetryFrame};
use bonsai_sim::StreamTap;

/// The gauges charted as live sparklines, in display order.
pub const DASH_GAUGES: [&str; 4] = [
    "bonsai_step_seconds",
    "bonsai_gpu_gflops",
    "bonsai_recovery_actions",
    "bonsai_energy_drift",
];

/// One live sparkline over `(step, value)` points received so far.
fn spark(name: &str, pts: &[(u64, f64)], steps: u64) -> String {
    const W: f64 = 440.0;
    const H: f64 = 110.0;
    const L: f64 = 8.0;
    const T: f64 = 22.0;
    const B: f64 = 8.0;
    let lo = pts.iter().map(|&(_, v)| v).fold(f64::INFINITY, f64::min);
    let hi = pts.iter().map(|&(_, v)| v).fold(f64::NEG_INFINITY, f64::max);
    let span = (hi - lo).max(1e-300);
    let x = |step: f64| L + (W - 2.0 * L) * step / steps.max(1) as f64;
    let y = |v: f64| T + (H - T - B) * (1.0 - (v - lo) / span);
    let last = pts.last().map(|&(_, v)| v).unwrap_or(0.0);
    let mut svg = format!(
        "<svg viewBox=\"0 0 {W} {H}\" width=\"{W}\" height=\"{H}\" role=\"img\">\n\
         <text class=\"t\" x=\"{L}\" y=\"14\">{name}</text>\n\
         <text class=\"a\" x=\"{:.1}\" y=\"14\" text-anchor=\"end\">min {} · max {} · last {}</text>\n",
        W - L,
        short(lo),
        short(hi),
        short(last)
    );
    let line: Vec<String> = pts
        .iter()
        .map(|&(s, v)| format!("{:.1},{:.1}", x(s as f64), y(v)))
        .collect();
    svg.push_str(&format!(
        "<polyline points=\"{}\" fill=\"none\" stroke=\"#2563eb\" stroke-width=\"2\"><title>{name}: {} frames</title></polyline>\n</svg>\n",
        line.join(" "),
        pts.len()
    ));
    svg
}

/// Render the dashboard snapshot at `step` from the frames `received` so
/// far by the fast subscriber and the tap's live accounting.
pub fn render_snapshot(
    cfg: &StreamBenchConfig,
    step: u64,
    received: &[TelemetryFrame],
    tap: &StreamTap,
) -> String {
    let mut s = String::from("<h1>Live telemetry — streamed Milky Way run</h1>\n");
    s.push_str(&format!(
        "<p>Snapshot at step {step} of {} ({} particles over {} ranks, seed {}). Rendered \
         entirely from the {} telemetry frames the <code>fast</code> subscriber received — \
         what the bus did not deliver is not shown.</p>\n",
        cfg.steps,
        cfg.n,
        cfg.ranks,
        cfg.seed,
        received.len()
    ));

    // Live sparklines from the gauges frames received so far.
    s.push_str("<h2>Live gauges</h2>\n<div class=\"charts\">\n");
    for name in DASH_GAUGES {
        let pts: Vec<(u64, f64)> = received
            .iter()
            .filter(|f| f.kind == FrameKind::Gauges)
            .filter_map(|f| f.f64(name).map(|v| (f.step, v)))
            .collect();
        if !pts.is_empty() {
            s.push_str(&spark(name, &pts, cfg.steps as u64));
        }
    }
    s.push_str("</div>\n");

    // The latest step as streamed: phase seconds of the newest phase frame.
    s.push_str("<h2>Latest step</h2>\n");
    if let Some(phase) = received
        .iter()
        .rev()
        .find(|f| f.kind == FrameKind::PhaseSample)
    {
        s.push_str(&format!(
            "<table>\n<tr><th>phase (step {})</th><th>seconds</th></tr>\n",
            phase.step
        ));
        for name in phase.fields.keys() {
            if let Some(v) = phase.f64(name) {
                s.push_str(&format!("<tr><td>{name}</td><td>{}</td></tr>\n", short(v)));
            }
        }
        s.push_str("</table>\n");
    } else {
        s.push_str("<p>No phase frame received yet.</p>\n");
    }

    // Flow-conservation digest: the newest flow-digest frame.
    s.push_str("<h2>Flow digest</h2>\n");
    if let Some(d) = received
        .iter()
        .rev()
        .find(|f| f.kind == FrameKind::FlowDigest)
    {
        let holds = d.f64("holds") == Some(1.0);
        s.push_str(&format!(
            "<p>Flows at step {}: sealed {} = delivered {} + fallback {} + dead {} \
             (pending {}) — conservation <span class=\"{}\">{}</span>.</p>\n",
            d.step,
            d.f64("sealed").unwrap_or(0.0) as u64,
            d.f64("delivered").unwrap_or(0.0) as u64,
            d.f64("fallback").unwrap_or(0.0) as u64,
            d.f64("dead").unwrap_or(0.0) as u64,
            d.f64("pending").unwrap_or(0.0) as u64,
            if holds { "ok" } else { "bad" },
            if holds { "holds" } else { "VIOLATED" }
        ));
    } else {
        s.push_str("<p>No flow digest received yet.</p>\n");
    }

    // Subscriber accounting: the backpressure ledger, live.
    s.push_str(
        "<h2>Subscribers</h2>\n<table>\n<tr><th>subscriber</th><th>capacity</th>\
         <th>delivered</th><th>dropped</th><th>evicted</th><th>overflow</th>\
         <th>in ring</th><th>lag</th><th>max lag</th><th>must-deliver lost</th></tr>\n",
    );
    for r in tap.bus().reports() {
        let md = r.must_deliver_lost();
        s.push_str(&format!(
            "<tr><td>{}</td><td>{}</td><td>{}</td><td>{}</td><td>{}</td><td>{}</td><td>{}</td><td>{}</td><td>{}</td><td class=\"{}\">{}</td></tr>\n",
            r.name,
            r.capacity,
            r.delivered,
            r.dropped.values().sum::<u64>(),
            r.evicted.values().sum::<u64>(),
            r.overflow,
            r.in_ring,
            r.lag,
            r.max_lag,
            if md == 0 { "ok" } else { "bad" },
            md
        ));
    }
    s.push_str("</table>\n");

    // Observability overhead: the self-metered budget, live.
    let frac = tap.meter().max_fraction();
    s.push_str(&format!(
        "<h2>Observability overhead</h2>\n<p>Worst per-step overhead fraction so far \
         <span class=\"{}\">{}</span> (budget {}); mean {}. Charged categories:</p>\n",
        if frac < OVERHEAD_BUDGET_FRACTION { "ok" } else { "bad" },
        short(frac),
        short(OVERHEAD_BUDGET_FRACTION),
        short(tap.meter().mean_fraction())
    ));
    s.push_str("<table>\n<tr><th>category</th><th>modelled seconds</th></tr>\n");
    for (cat, secs) in tap.meter().totals() {
        s.push_str(&format!(
            "<tr><td>{cat}</td><td>{}</td></tr>\n",
            short(*secs)
        ));
    }
    s.push_str("</table>\n");

    // Alerts as streamed: every must-deliver alert frame received.
    s.push_str("<h2>Alerts</h2>\n");
    let alerts: Vec<&TelemetryFrame> = received
        .iter()
        .filter(|f| f.kind == FrameKind::Alert)
        .collect();
    if alerts.is_empty() {
        s.push_str("<p>No alert frames received.</p>\n");
    } else {
        s.push_str(
            "<table>\n<tr><th>step</th><th>event</th><th>rule</th><th>severity</th><th>value</th></tr>\n",
        );
        for f in alerts {
            s.push_str(&format!(
                "<tr><td>{}</td><td>{}</td><td>{}</td><td>{}</td><td>{}</td></tr>\n",
                f.step,
                f.str("kind").unwrap_or("?"),
                f.str("rule").unwrap_or("?"),
                f.str("severity").unwrap_or("?"),
                short(f.f64("value").unwrap_or(0.0))
            ));
        }
        s.push_str("</table>\n");
    }
    page("bonsai live telemetry", &s)
}

#[cfg(test)]
mod tests {
    use crate::stream::{run, StreamBenchConfig};

    #[test]
    fn snapshots_are_self_contained_and_show_the_live_state() {
        let r = run(StreamBenchConfig {
            n: 600,
            ranks: 4,
            steps: 24,
            seed: 7,
            storm_epochs: (6, 10),
            grow_at: 0,
            shrink_at: 0,
            fast_capacity: 64,
            slow_capacity: 4,
            slow_drain_every: 8,
            snapshots: vec![12, 24],
            block_on_full: false,
        });
        assert_eq!(r.snapshots.len(), 2);
        for (step, html) in &r.snapshots {
            assert!(html.starts_with("<!DOCTYPE html>"));
            assert!(!html.contains("<script"), "snapshot must be zero-JS");
            assert!(!html.contains("http://") && !html.contains("https://"));
            assert!(html.contains(&format!("Snapshot at step {step}")));
            assert!(html.contains("<h2>Subscribers</h2>"));
            assert!(html.contains("<h2>Observability overhead</h2>"));
            assert!(html.contains("bonsai_step_seconds"));
        }
        // The mid-run snapshot shows fewer frames than the final one.
        assert_ne!(r.snapshots[0].1, r.snapshots[1].1);
    }
}

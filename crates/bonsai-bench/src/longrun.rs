//! The long-run monitoring bench: a scaled-down Milky Way production run
//! driven for hundreds of steps with the [`bonsai_sim::RunMonitor`]
//! enabled and a seeded mid-run fault storm, exported as a byte-
//! deterministic JSON record plus a self-contained zero-dependency HTML
//! dashboard (inline-SVG sparklines with alert annotations, incident and
//! rollup tables).
//!
//! The storm is scheduled by *epoch* through the deterministic
//! [`FaultPlan`](bonsai_net::fault::FaultPlan): every first-attempt message
//! in the window is dropped, so retransmission recovery actions spike, the
//! `recovery-storm` rule opens, the trace's last epochs are frozen into an
//! incident, and once the window passes the rule closes — the full open →
//! freeze → close lifecycle in one reproducible run.

use bonsai_obs::health::{AlertKind, Severity};
use bonsai_obs::json::{self, Value};
use bonsai_obs::obj;
use bonsai_obs::timeseries::Series;
use bonsai_sim::{Cluster, LongRunConfig, RunMonitor};
use bonsai_util::units;

use crate::report::page;
use crate::{alert_row, drop_storm, milky_way_config, milky_way_snapshot, short, view_change_row};

/// The long-run bench configuration.
#[derive(Clone, Debug)]
pub struct LongRunBenchConfig {
    /// Total particles of the scaled Milky Way model.
    pub n: usize,
    /// Logical ranks.
    pub ranks: usize,
    /// Steps to drive (the issue floor is 500).
    pub steps: usize,
    /// IC + fault-plan seed.
    pub seed: u64,
    /// Series-store bin bound (small enough that the run downsamples).
    pub max_bins: usize,
    /// `[first, last)` gravity epochs of the injected drop storm.
    pub storm_epochs: (u64, u64),
    /// Step after which one rank is admitted (0 = no grow).
    pub grow_at: usize,
    /// Step after which one rank is retired (0 = no shrink).
    pub shrink_at: usize,
}

impl Default for LongRunBenchConfig {
    fn default() -> Self {
        Self {
            n: 3_000,
            ranks: 4,
            steps: 520,
            seed: 2014,
            max_bins: 160,
            storm_epochs: (261, 281),
            grow_at: 120,
            shrink_at: 380,
        }
    }
}

/// The headline derived metrics charted by the dashboard, in display order.
pub const HEADLINE: [&str; 9] = [
    "bonsai_energy_drift",
    "bonsai_gpu_gflops",
    "bonsai_step_seconds",
    "bonsai_recovery_actions",
    "bonsai_retransmit_bytes",
    "bonsai_degraded_lets",
    "bonsai_flop_residual",
    "bonsai_hidden_comm_fraction",
    "bonsai_particle_imbalance",
];

/// Everything the exporters need from one completed run.
pub struct LongRunResult {
    /// The configuration that produced it.
    pub config: LongRunBenchConfig,
    /// The detached monitor (series, alert log, incidents).
    pub monitor: RunMonitor,
    /// Final simulated time in Gyr.
    pub time_gyr: f64,
    /// Final relative energy drift.
    pub energy_drift: f64,
    /// Per-change audit rows from the cluster's membership log (the
    /// scripted grow/shrink churn).
    pub view_changes: Vec<bonsai_net::ViewChange>,
}

/// Drive the run: scaled Milky Way over `ranks` ranks with the monitor
/// enabled and the drop storm injected over `storm_epochs`.
pub fn run(cfg: LongRunBenchConfig) -> LongRunResult {
    let ic = milky_way_snapshot(cfg.n, cfg.seed);
    let ccfg = milky_way_config(cfg.n);
    let plan = drop_storm(cfg.seed, cfg.storm_epochs);
    let mut cluster = Cluster::with_faults(ic, cfg.ranks, ccfg, plan, None);
    let baseline = cluster.energy_report();
    cluster.enable_longrun(LongRunConfig {
        max_bins: cfg.max_bins,
        ..LongRunConfig::default()
    });
    for step in 0..cfg.steps {
        cluster.step();
        // Scripted elastic churn: one rank in, later one rank out, so the
        // run exercises a view change in each direction mid-flight.
        if cfg.grow_at > 0 && step + 1 == cfg.grow_at {
            cluster.admit_ranks(1);
        }
        if cfg.shrink_at > 0 && step + 1 == cfg.shrink_at {
            cluster.retire_ranks(1);
        }
    }
    let energy_drift = cluster.energy_report().drift_from(&baseline);
    let time_gyr = units::internal_to_gyr(cluster.time());
    let view_changes = cluster.membership_log().changes().to_vec();
    let monitor = cluster.take_monitor().expect("monitor was enabled");
    LongRunResult {
        config: cfg,
        monitor,
        time_gyr,
        energy_drift,
        view_changes,
    }
}

/// `BENCH_longrun.json`: schema `bonsai-longrun-v1`, byte-deterministic.
pub fn longrun_json(r: &LongRunResult) -> String {
    let c = &r.config;
    let series: Value = HEADLINE
        .iter()
        .filter_map(|&name| Some((name, r.monitor.series().series(name)?)))
        .map(|(name, s)| {
            let sum = s.summary().expect("non-empty series");
            let bins: Vec<Value> = s
                .bins()
                .iter()
                .map(|b| {
                    let ints = [b.step_lo, b.step_hi, b.count].map(Value::from);
                    let nums = [b.min, b.max, b.mean(), b.last].map(Value::from);
                    Value::Arr(ints.into_iter().chain(nums).collect())
                })
                .collect();
            let summary =
                obj!("min": sum.min, "max": sum.max, "mean": sum.mean(), "last": sum.last);
            (
                name,
                obj!("stride": s.stride(), "count": s.count(), "summary": summary, "bins": bins),
            )
        })
        .collect();
    let incidents: Vec<Value> = r
        .monitor
        .incidents()
        .iter()
        .map(|i| {
            obj!("id": i.id, "rule": i.rule.as_str(), "severity": i.severity.name(),
                "step": i.step, "window": vec![i.window.0, i.window.1],
                "spans": i.trace.spans().len(), "instants": i.trace.instants().len(),
                "flows": i.trace.flow_points().len())
        })
        .collect();
    json::write(&obj!(
        "schema": "bonsai-longrun-v1",
        "config": obj!("n": c.n, "ranks": c.ranks, "steps": c.steps, "seed": c.seed,
            "max_bins": c.max_bins, "storm_epochs": vec![c.storm_epochs.0, c.storm_epochs.1],
            "grow_at": c.grow_at, "shrink_at": c.shrink_at),
        "final": obj!("time_gyr": r.time_gyr, "energy_drift": r.energy_drift),
        "series": series,
        "alerts": r.monitor.health().events().iter().map(alert_row).collect::<Vec<_>>(),
        "incidents": incidents,
        "view_changes": r.view_changes.iter().map(view_change_row).collect::<Vec<_>>(),
    ))
}

/// `(open_step, close_step_or_end, severity)` intervals per metric, from
/// the alert log (an alert still open at run end extends to the last step).
fn alert_intervals(r: &LongRunResult, metric: &str) -> Vec<(u64, u64, Severity)> {
    let end = r.config.steps as u64;
    let mut out = Vec::new();
    let mut open: Vec<(String, u64, Severity)> = Vec::new();
    for e in r.monitor.health().events() {
        if e.metric != metric {
            continue;
        }
        match e.kind {
            AlertKind::Open => open.push((e.rule.clone(), e.step, e.severity)),
            AlertKind::Close => {
                if let Some(pos) = open.iter().position(|(rule, _, _)| *rule == e.rule) {
                    let (_, s, sev) = open.remove(pos);
                    out.push((s, e.step, sev));
                }
            }
        }
    }
    for (_, s, sev) in open {
        out.push((s, end, sev));
    }
    out.sort_by_key(|&(s, e, _)| (s, e));
    out
}

fn sev_color(sev: Severity) -> &'static str {
    match sev {
        Severity::Critical => "#dc2626",
        Severity::Warning => "#d97706",
        Severity::Info => "#2563eb",
    }
}

/// `(step, label, color)` vertical annotation marks for membership churn:
/// green for a grow, amber for a shrink.
fn churn_marks(r: &LongRunResult) -> Vec<(u64, String, &'static str)> {
    r.view_changes
        .iter()
        .map(|ch| {
            let (kind, color) = if ch.to_world >= ch.from_world {
                ("grow", "#16a34a")
            } else {
                ("shrink", "#d97706")
            };
            (
                ch.epoch,
                format!(
                    "view {} -> {} ({kind} {} -> {} ranks, {} particles / {} B migrated)",
                    ch.from_view,
                    ch.to_view,
                    ch.from_world,
                    ch.to_world,
                    ch.migrated_particles,
                    ch.migrated_bytes
                ),
                color,
            )
        })
        .collect()
}

/// One inline-SVG sparkline: min–max band + mean polyline over step
/// number, with translucent alert-interval rects, dashed view-change
/// marker lines and native `<title>` tooltips. Exactly one series per
/// chart — the title names it.
fn sparkline(
    name: &str,
    s: &Series,
    alerts: &[(u64, u64, Severity)],
    marks: &[(u64, String, &'static str)],
    steps: u64,
) -> String {
    const W: f64 = 440.0;
    const H: f64 = 110.0;
    const L: f64 = 8.0; // left pad
    const T: f64 = 22.0; // title band
    const B: f64 = 8.0; // bottom pad
    let sum = s.summary().expect("non-empty series");
    let (lo, hi) = (sum.min, sum.max);
    let span = (hi - lo).max(1e-300);
    let x = |step: f64| L + (W - 2.0 * L) * step / steps.max(1) as f64;
    let y = |v: f64| T + (H - T - B) * (1.0 - (v - lo) / span);
    let mid = |b: &bonsai_obs::timeseries::Bin| 0.5 * (b.step_lo as f64 + b.step_hi as f64);
    let mut svg = format!(
        "<svg viewBox=\"0 0 {W} {H}\" width=\"{W}\" height=\"{H}\" role=\"img\">\n\
         <text class=\"t\" x=\"{L}\" y=\"14\">{name}</text>\n\
         <text class=\"a\" x=\"{:.1}\" y=\"14\" text-anchor=\"end\">min {} · mean {} · max {}</text>\n",
        W - L,
        short(sum.min),
        short(sum.mean()),
        short(sum.max)
    );
    // Alert annotation rects under the data marks.
    for &(a, b, sev) in alerts {
        let (xa, xb) = (x(a as f64), x(b as f64));
        svg.push_str(&format!(
            "<rect x=\"{:.1}\" y=\"{T}\" width=\"{:.1}\" height=\"{:.1}\" fill=\"{}\" opacity=\"0.15\"><title>{} alert open: steps {a}–{b}</title></rect>\n",
            xa,
            (xb - xa).max(1.0),
            H - T - B,
            sev_color(sev),
            sev.name()
        ));
    }
    // View-change markers: one dashed vertical line per membership epoch.
    for (step, label, color) in marks {
        let xm = x(*step as f64);
        svg.push_str(&format!(
            "<line x1=\"{xm:.1}\" y1=\"{T}\" x2=\"{xm:.1}\" y2=\"{:.1}\" stroke=\"{color}\" stroke-width=\"1.5\" stroke-dasharray=\"3 2\"><title>{label}</title></line>\n",
            H - B
        ));
    }
    // min–max band.
    let mut band = String::new();
    for b in s.bins() {
        band.push_str(&format!("{:.1},{:.1} ", x(mid(b)), y(b.max)));
    }
    for b in s.bins().iter().rev() {
        band.push_str(&format!("{:.1},{:.1} ", x(mid(b)), y(b.min)));
    }
    svg.push_str(&format!(
        "<polygon points=\"{}\" fill=\"#2563eb\" opacity=\"0.18\"/>\n",
        band.trim_end()
    ));
    // Mean polyline with a whole-chart tooltip.
    let pts: Vec<String> = s
        .bins()
        .iter()
        .map(|b| format!("{:.1},{:.1}", x(mid(b)), y(b.mean())))
        .collect();
    svg.push_str(&format!(
        "<polyline points=\"{}\" fill=\"none\" stroke=\"#2563eb\" stroke-width=\"2\"><title>{name}: {} samples, stride {}</title></polyline>\n",
        pts.join(" "),
        s.count(),
        s.stride()
    ));
    svg.push_str("</svg>\n");
    svg
}

/// `out/longrun_report.html`: fully self-contained (no scripts, no
/// external references), deterministic.
pub fn render_html(r: &LongRunResult) -> String {
    let c = &r.config;
    let steps = c.steps as u64;
    let mut s = String::from("<h1>Long-run monitor — sustained Milky Way run</h1>\n");
    s.push_str(&format!(
        "<p>{} particles over {} ranks, {} steps to t = {} Gyr (seed {}). Final relative \
         energy drift {}. Shaded spans mark steps where a health rule was open \
         (<span class=\"swatch\" style=\"background:#d97706\"></span>warning, \
         <span class=\"swatch\" style=\"background:#dc2626\"></span>critical); dashed vertical \
         lines mark membership view changes (<span class=\"swatch\" style=\"background:#16a34a\">\
         </span>grow, <span class=\"swatch\" style=\"background:#d97706\"></span>shrink); the band \
         is the per-bin min–max envelope, the line the bin mean.</p>\n",
        c.n,
        c.ranks,
        c.steps,
        short(r.time_gyr),
        c.seed,
        short(r.energy_drift)
    ));
    s.push_str("<div class=\"charts\">\n");
    let marks = churn_marks(r);
    for name in HEADLINE {
        if let Some(ser) = r.monitor.series().series(name) {
            let alerts = alert_intervals(r, name);
            s.push_str(&sparkline(name, ser, &alerts, &marks, steps));
        }
    }
    s.push_str("</div>\n");

    // Membership churn table.
    s.push_str("<h2>Membership</h2>\n");
    if r.view_changes.is_empty() {
        s.push_str("<p>No view changes — the world held its initial size.</p>\n");
    } else {
        s.push_str(
            "<table>\n<tr><th>epoch</th><th>view</th><th>world</th><th>rounds</th>\
             <th>migrated particles</th><th>migrated bytes</th></tr>\n",
        );
        for ch in &r.view_changes {
            s.push_str(&format!(
                "<tr><td>{}</td><td>{} → {}</td><td>{} → {}</td><td>{}</td><td>{}</td><td>{}</td></tr>\n",
                ch.epoch,
                ch.from_view,
                ch.to_view,
                ch.from_world,
                ch.to_world,
                ch.rounds,
                ch.migrated_particles,
                ch.migrated_bytes
            ));
        }
        s.push_str("</table>\n");
    }

    // Incident table.
    s.push_str("<h2>Incidents</h2>\n");
    if r.monitor.incidents().is_empty() {
        s.push_str("<p>No incidents frozen — no alert opened during the run.</p>\n");
    } else {
        s.push_str(
            "<table>\n<tr><th>id</th><th>rule</th><th>severity</th><th>opened at step</th>\
             <th>window (epochs)</th><th>spans</th><th>instants</th><th>flows</th></tr>\n",
        );
        for i in r.monitor.incidents() {
            s.push_str(&format!(
                "<tr><td>{}</td><td>{}</td><td><span class=\"swatch\" style=\"background:{}\"></span>{}</td><td>{}</td><td>{}–{}</td><td>{}</td><td>{}</td><td>{}</td></tr>\n",
                i.id,
                i.rule,
                sev_color(i.severity),
                i.severity.name(),
                i.step,
                i.window.0,
                i.window.1,
                i.trace.spans().len(),
                i.trace.instants().len(),
                i.trace.flow_points().len()
            ));
        }
        s.push_str("</table>\n");
        s.push_str(
            "<p>Incident windows are exported as Chrome trace JSON \
             (<code>out/longrun_incident.json</code>) — open in \
             <code>ui.perfetto.dev</code>.</p>\n",
        );
    }

    // Alert log.
    s.push_str("<h2>Alert log</h2>\n");
    if r.monitor.health().events().is_empty() {
        s.push_str("<p>No alerts opened.</p>\n");
    } else {
        s.push_str(
            "<table>\n<tr><th>step</th><th>event</th><th>rule</th><th>severity</th>\
             <th>metric</th><th>value</th></tr>\n",
        );
        for e in r.monitor.health().events() {
            s.push_str(&format!(
                "<tr><td>{}</td><td>{}</td><td>{}</td><td><span class=\"swatch\" style=\"background:{}\"></span>{}</td><td>{}</td><td>{}</td></tr>\n",
                e.step,
                e.kind.name(),
                e.rule,
                sev_color(e.severity),
                e.severity.name(),
                e.metric,
                short(e.value)
            ));
        }
        s.push_str("</table>\n");
    }

    // Whole-run rollups — the table view of every charted series.
    s.push_str("<h2>Run rollups</h2>\n<table>\n<tr><th>metric</th><th>samples</th><th>stride</th><th>min</th><th>mean</th><th>max</th><th>last</th></tr>\n");
    for name in HEADLINE {
        if let Some(ser) = r.monitor.series().series(name) {
            let sum = ser.summary().expect("non-empty");
            s.push_str(&format!(
                "<tr><td>{name}</td><td>{}</td><td>{}</td><td>{}</td><td>{}</td><td>{}</td><td>{}</td></tr>\n",
                ser.count(),
                ser.stride(),
                short(sum.min),
                short(sum.mean()),
                short(sum.max),
                short(sum.last)
            ));
        }
    }
    s.push_str("</table>\n");
    page("bonsai long-run report", &s)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> LongRunBenchConfig {
        LongRunBenchConfig {
            n: 600,
            ranks: 4,
            steps: 40,
            seed: 7,
            max_bins: 16,
            storm_epochs: (11, 16),
            // Churn after the storm window so the recovery-storm lifecycle
            // assertions see the same epochs with or without elasticity.
            grow_at: 25,
            shrink_at: 33,
        }
    }

    #[test]
    fn storm_opens_and_closes_a_recovery_alert() {
        let r = run(tiny());
        let events = r.monitor.health().events();
        let opened = events
            .iter()
            .any(|e| e.rule == "recovery-storm" && e.kind == AlertKind::Open);
        let closed = events
            .iter()
            .any(|e| e.rule == "recovery-storm" && e.kind == AlertKind::Close);
        assert!(opened, "storm must open a recovery alert: {events:?}");
        assert!(closed, "storm must close after the window: {events:?}");
        assert!(!r.monitor.incidents().is_empty());
        let inc = &r.monitor.incidents()[0];
        assert!(inc.trace_json().contains("traceEvents"));
        // Every step sampled.
        let ser = r.monitor.series().series("bonsai_recovery_actions").unwrap();
        assert_eq!(ser.count(), 40);
    }

    #[test]
    fn exports_are_deterministic_and_self_contained() {
        let a = run(tiny());
        let b = run(tiny());
        assert_eq!(longrun_json(&a), longrun_json(&b));
        let html = render_html(&a);
        assert_eq!(html, render_html(&b));
        assert!(!html.contains("<script"), "report must be zero-JS");
        assert!(!html.contains("http://") && !html.contains("https://"));
        assert!(html.contains("bonsai_energy_drift"));
        assert!(html.contains("recovery-storm"));
        // The JSON parses and carries the schema + alert kinds.
        let v = bonsai_obs::json::parse(&longrun_json(&a)).expect("valid JSON");
        assert_eq!(v.get("schema").unwrap().as_str(), Some("bonsai-longrun-v1"));
        let alerts = v.get("alerts").unwrap().as_arr().unwrap();
        assert!(!alerts.is_empty());
    }

    #[test]
    fn scripted_churn_lands_in_report_and_json() {
        let r = run(tiny());
        // One grow + one shrink, back at the initial world size.
        assert_eq!(r.view_changes.len(), 2, "{:?}", r.view_changes.len());
        assert_eq!(r.view_changes[0].to_world, 5);
        assert_eq!(r.view_changes[1].to_world, 4);
        assert!(r.view_changes[1].migrated_particles > 0);
        let v = bonsai_obs::json::parse(&longrun_json(&r)).expect("valid JSON");
        assert_eq!(v.get("view_changes").unwrap().as_arr().unwrap().len(), 2);
        let html = render_html(&r);
        assert!(html.contains("<h2>Membership</h2>"));
        assert!(html.contains("stroke-dasharray"), "churn marker lines missing");
        assert!(html.contains("grow 4 -&gt; 5 ranks") || html.contains("grow 4 -> 5 ranks"));
    }

    #[test]
    fn downsampling_kicks_in_on_long_series() {
        let r = run(LongRunBenchConfig {
            steps: 80,
            max_bins: 16,
            ..tiny()
        });
        let ser = r.monitor.series().series("bonsai_step_seconds").unwrap();
        assert_eq!(ser.count(), 80);
        assert!(ser.bins().len() <= 16);
        assert!(ser.stride() > 1, "80 steps into 16 bins must downsample");
    }
}

//! The message-flow bench: a seeded faulty Milky Way step ladder whose
//! flow ledger is reduced to (a) conservation totals (every sealed envelope
//! delivered or dead — nothing pending), (b) a
//! per-directed-link ledger (traffic, retransmit ratio, delivery-latency
//! percentiles), (c) the critical-path wait attribution by causal class,
//! and (d) per-step exposed-communication intervals tied to their causal
//! flows. Exported as the byte-deterministic `BENCH_flows.json` (schema
//! `bonsai-flows-v1`) plus a zero-dependency `out/flows_report.html` with
//! the link matrix, the wait-attribution table and per-link latency
//! sparklines.
//!
//! The gate is self-testing: [`FlowsBenchConfig::mask_retransmits`]
//! rewrites every flow record to a clean single-attempt delivery before
//! the reduction — a masked run *must* diff against the honest baseline,
//! which is how CI proves the flow gate has teeth.

use bonsai_net::fault::{FaultKind, FaultPlan};
use bonsai_net::flow::{FlowConservation, FlowRecord};
use bonsai_net::obs::{exposed_comm, link_ledger, LinkStats};
use bonsai_obs::json::{self, Value};
use bonsai_obs::{critical_path, obj, ArgValue, WaitCause};
use bonsai_sim::Cluster;
use std::collections::BTreeMap;

use crate::report::page;
use crate::{milky_way_config, milky_way_snapshot};

/// The flows bench configuration.
#[derive(Clone, Debug)]
pub struct FlowsBenchConfig {
    /// Total particles of the scaled Milky Way model.
    pub n: usize,
    /// Logical ranks.
    pub ranks: usize,
    /// Steps to drive under the fault plan.
    pub steps: usize,
    /// IC + fault-plan seed.
    pub seed: u64,
    /// Sabotage hook: rewrite every flow to a clean first-attempt delivery
    /// before the reduction. The gate's sabotage sets this and must see
    /// the retransmit counts move.
    pub mask_retransmits: bool,
}

impl Default for FlowsBenchConfig {
    fn default() -> Self {
        Self {
            n: 4_000,
            ranks: 4,
            steps: 8,
            seed: 2014,
            mask_retransmits: false,
        }
    }
}

/// The seeded fault plan the bench drives: every message-level fault kind
/// at a rate high enough that retransmissions are common. No crash and no
/// stall: either is a rollback, and the ladder has no checkpoint.
pub fn bench_fault_plan(seed: u64) -> FaultPlan {
    FaultPlan::new(seed)
        .with_rate(FaultKind::Drop, 0.08)
        .with_rate(FaultKind::Corrupt, 0.05)
        .with_rate(FaultKind::Duplicate, 0.04)
        .with_rate(FaultKind::Delay, 0.04)
        .with_rate(FaultKind::Reorder, 0.04)
        .with_rate(FaultKind::Truncate, 0.03)
}

/// Per-step flow digest (one artifact row per driven step).
#[derive(Clone, Debug)]
pub struct StepFlows {
    /// The step (= protocol epoch) the row describes.
    pub step: u64,
    /// Flows sealed in the step.
    pub flows: usize,
    /// Retransmitted attempts beyond each flow's first.
    pub retransmits: u64,
    /// Exposed-communication intervals found in the step.
    pub exposed_intervals: usize,
    /// Total exposed-communication seconds in the step.
    pub exposed_s: f64,
    /// Critical-path wait seconds in the step.
    pub wait_s: f64,
}

/// Everything the exporters need from one completed flows run.
pub struct FlowsResult {
    /// The configuration that produced it.
    pub config: FlowsBenchConfig,
    /// Per-directed-link ledger.
    pub links: Vec<LinkStats>,
    /// Whole-run conservation totals from the cluster's own ledger.
    pub conservation: FlowConservation,
    /// Critical-path wait seconds per causal class, summed over steps.
    pub wait_by_cause: Vec<(String, f64)>,
    /// Exposed-communication seconds per causal class, summed over steps.
    pub exposed_by_cause: Vec<(String, f64)>,
    /// Per-step digests.
    pub steps: Vec<StepFlows>,
}

impl FlowsResult {
    /// Total critical-path wait seconds.
    pub fn wait_total_s(&self) -> f64 {
        self.wait_by_cause.iter().map(|(_, s)| s).sum()
    }

    /// Fraction of critical-path wait seconds with no identified cause
    /// (the acceptance bar is < 5%).
    pub fn unattributed_fraction(&self) -> f64 {
        let total = self.wait_total_s();
        if total <= 0.0 {
            return 0.0;
        }
        // Fold from +0.0: an empty sum must not leak a −0.0 into the
        // byte-deterministic artifact.
        self.wait_by_cause
            .iter()
            .filter(|(c, _)| c == WaitCause::Unattributed.name())
            .fold(0.0, |a, (_, s)| a + s)
            / total
    }
}

/// Drive the faulty ladder and reduce each step's ledger records and trace
/// as the step completes.
pub fn run(cfg: FlowsBenchConfig) -> FlowsResult {
    let ic = milky_way_snapshot(cfg.n, cfg.seed);
    let plan = bench_fault_plan(cfg.seed);
    let mut cluster = Cluster::with_faults(ic, cfg.ranks, milky_way_config(cfg.n), plan, None);

    let mut flows: Vec<FlowRecord> = Vec::new();
    let mut times = BTreeMap::new();
    let mut wait_by_cause: BTreeMap<String, f64> = BTreeMap::new();
    let mut exposed_by_cause: BTreeMap<String, f64> = BTreeMap::new();
    let mut steps = Vec::new();
    for _ in 0..cfg.steps {
        cluster.step();
        // The step's recorded epoch: its flows are the ledger's records of
        // that epoch, and their times are drawn from those records and the
        // epoch's exchange windows.
        let step = cluster.current_epoch();
        let mut step_flows = cluster.flow_ledger().for_epoch(step).to_vec();
        if cfg.mask_retransmits {
            // The sabotage hook: pretend every flow was a clean
            // first-attempt delivery. The link ledger and the step rows
            // collapse, which the diff gate must flag against the honest
            // baseline.
            for f in &mut step_flows {
                f.attempts = 1;
            }
        }
        let step_times = cluster.flow_arrows().times(step);
        let exposed = exposed_comm(cluster.trace(), step, &step_flows, &step_times);
        times.extend(step_times);
        for x in &exposed {
            *exposed_by_cause.entry(x.cause.name().to_string()).or_insert(0.0) += x.seconds();
        }
        // Wait seconds of the step: the explicit barrier fills the cluster
        // records per non-straggler rank (each carries the causal class of
        // the straggler's flow set) plus any synthetic waits the critical
        // path had to invent to cover the wall time.
        let mut wait_s = 0.0;
        for span in cluster
            .trace()
            .spans()
            .iter()
            .filter(|s| s.step == step && s.name == "wait")
        {
            let cause = span
                .args
                .iter()
                .find_map(|(k, v)| match (k, v) {
                    (&"cause", ArgValue::Str(c)) => Some(c.clone()),
                    _ => None,
                })
                .unwrap_or_else(|| WaitCause::Unattributed.name().to_string());
            let secs = (span.end - span.start).max(0.0);
            wait_s += secs;
            *wait_by_cause.entry(cause).or_insert(0.0) += secs;
        }
        if let Some(cp) = critical_path(cluster.trace(), step) {
            for (cause, secs) in cp.wait_seconds_by_cause() {
                wait_s += secs;
                *wait_by_cause.entry(cause).or_insert(0.0) += secs;
            }
        }
        steps.push(StepFlows {
            step,
            flows: step_flows.len(),
            retransmits: step_flows
                .iter()
                .map(|f| f.attempts.saturating_sub(1) as u64)
                .sum(),
            exposed_intervals: exposed.len(),
            exposed_s: exposed.iter().map(|x| x.seconds()).sum(),
            wait_s,
        });
        flows.extend(step_flows);
    }

    FlowsResult {
        links: link_ledger(&flows, &times),
        conservation: cluster.flow_conservation(),
        wait_by_cause: wait_by_cause.into_iter().collect(),
        exposed_by_cause: exposed_by_cause.into_iter().collect(),
        steps,
        config: cfg,
    }
}

/// `BENCH_flows.json`: schema `bonsai-flows-v1`, byte-deterministic per
/// seed.
pub fn flows_json(r: &FlowsResult) -> String {
    let c = &r.config;
    let total_wait = r.wait_total_s();
    let share = |secs: f64| {
        if total_wait > 0.0 {
            secs / total_wait
        } else {
            0.0
        }
    };
    let waits: Vec<Value> = r
        .wait_by_cause
        .iter()
        .map(|(cause, secs)| obj!("cause": cause.as_str(), "seconds": *secs, "share": share(*secs)))
        .collect();
    let exposed: Vec<Value> = r
        .exposed_by_cause
        .iter()
        .map(|(cause, secs)| obj!("cause": cause.as_str(), "seconds": *secs))
        .collect();
    let links: Vec<Value> = r
        .links
        .iter()
        .map(|l| {
            obj!("link": l.label(), "from": l.from, "to": l.to, "flows": l.flows,
                "bytes": l.bytes, "attempts": l.attempts, "retransmits": l.retransmits,
                "retransmit_ratio": l.retransmit_ratio(), "delivered": l.delivered,
                "dead": l.dead, "latency_p50": l.latency_p50,
                "latency_p90": l.latency_p90, "latency_p99": l.latency_p99,
                "latency_max": l.latency_max)
        })
        .collect();
    let steps: Vec<Value> = r
        .steps
        .iter()
        .map(|s| {
            obj!("step": s.step, "flows": s.flows, "retransmits": s.retransmits,
                "exposed_intervals": s.exposed_intervals,
                "exposed_s": s.exposed_s, "wait_s": s.wait_s)
        })
        .collect();
    let k = &r.conservation;
    json::write(&obj!(
        "schema": "bonsai-flows-v1",
        "config": obj!("n": c.n, "ranks": c.ranks, "steps": c.steps, "seed": c.seed,
            "mask_retransmits": c.mask_retransmits),
        "conservation": obj!("sealed": k.sealed, "delivered": k.delivered,
            "dead": k.dead, "pending": k.pending, "holds": k.holds()),
        "wait_total_s": total_wait,
        "unattributed_fraction": r.unattributed_fraction(),
        "wait_attribution": waits,
        "exposed": exposed,
        "links": links,
        "steps": steps,
    ))
}

/// Cell shade for the link matrix: white (clean) → red (high retransmit
/// ratio).
fn ratio_color(ratio: f64) -> String {
    let t = (ratio * 2.5).clamp(0.0, 1.0);
    let g = (255.0 - t * 140.0) as u8;
    format!("#ff{g:02x}{g:02x}")
}

/// A tiny inline-SVG sparkline of a link's delivery-latency percentiles
/// (p50, p90, p99, max) as bars scaled against the run-wide worst latency.
fn latency_sparkline(l: &LinkStats, lat_max: f64) -> String {
    const W: f64 = 64.0;
    const H: f64 = 18.0;
    if lat_max <= 0.0 || l.delivered == 0 {
        return String::from("<span style=\"color:#a1a1aa\">—</span>");
    }
    let bars = [l.latency_p50, l.latency_p90, l.latency_p99, l.latency_max];
    let mut s = format!("<svg viewBox=\"0 0 {W} {H}\" width=\"{W}\" height=\"{H}\" role=\"img\"><title>p50 {:.2} ms · p90 {:.2} ms · p99 {:.2} ms · max {:.2} ms</title>", l.latency_p50 * 1e3, l.latency_p90 * 1e3, l.latency_p99 * 1e3, l.latency_max * 1e3);
    for (i, v) in bars.iter().enumerate() {
        let h = (v / lat_max * (H - 2.0)).max(1.0);
        s.push_str(&format!(
            "<rect x=\"{:.1}\" y=\"{:.1}\" width=\"13\" height=\"{:.1}\" fill=\"#2563eb\" fill-opacity=\"{}\"/>",
            2.0 + i as f64 * 16.0,
            H - h,
            h,
            0.4 + 0.2 * i as f64
        ));
    }
    s.push_str("</svg>");
    s
}

/// `out/flows_report.html`: self-contained, zero JavaScript.
pub fn render_html(r: &FlowsResult) -> String {
    let c = &r.config;
    let mut s = String::new();
    let k = &r.conservation;
    s.push_str(&format!(
        "<h1>Message-flow trace</h1>\n<p>{} particles × {} ranks × {} steps under the seeded \
         fault ladder (seed {}){}.</p>\n",
        c.n,
        c.ranks,
        c.steps,
        c.seed,
        if c.mask_retransmits {
            " — <strong>retransmits masked (sabotage run)</strong>"
        } else {
            ""
        }
    ));
    s.push_str(&format!(
        "<h2>Conservation</h2>\n<p class=\"{}\">{} sealed = {} delivered + {} dead \
         (+ {} pending) — {}</p>\n",
        if k.holds() { "ok" } else { "bad" },
        k.sealed,
        k.delivered,
        k.dead,
        k.pending,
        if k.holds() { "holds" } else { "VIOLATED" }
    ));

    // Wait attribution.
    let total_wait = r.wait_total_s();
    s.push_str(&format!(
        "<h2>Critical-path wait attribution</h2>\n\
         <p>{:.4} ms of critical-path waits, {:.2}% unattributed.</p>\n\
         <table>\n<tr><th class=\"l\">cause</th><th>seconds</th><th>share</th></tr>\n",
        total_wait * 1e3,
        100.0 * r.unattributed_fraction()
    ));
    for (cause, secs) in &r.wait_by_cause {
        s.push_str(&format!(
            "<tr><td class=\"l\">{}</td><td>{:.6}</td><td>{:.1}%</td></tr>\n",
            cause,
            secs,
            if total_wait > 0.0 { 100.0 * secs / total_wait } else { 0.0 }
        ));
    }
    s.push_str("</table>\n");
    if !r.exposed_by_cause.is_empty() {
        s.push_str(
            "<h3>Exposed communication by cause</h3>\n\
             <table>\n<tr><th class=\"l\">cause</th><th>seconds</th></tr>\n",
        );
        for (cause, secs) in &r.exposed_by_cause {
            s.push_str(&format!(
                "<tr><td class=\"l\">{cause}</td><td>{secs:.6}</td></tr>\n"
            ));
        }
        s.push_str("</table>\n");
    }

    // Per-link matrix: rows = sender, columns = receiver.
    s.push_str(
        "<h2>Link matrix</h2>\n<p>Cells show flows sealed / retransmit ratio; shading tracks \
         the retransmit ratio.</p>\n<table>\n<tr><th class=\"l\">from \\ to</th>",
    );
    for to in 0..c.ranks {
        s.push_str(&format!("<th>{to}</th>"));
    }
    s.push_str("</tr>\n");
    for from in 0..c.ranks {
        s.push_str(&format!("<tr><th class=\"l\">{from}</th>"));
        for to in 0..c.ranks {
            match r.links.iter().find(|l| l.from == from && l.to == to) {
                Some(l) => s.push_str(&format!(
                    "<td style=\"background:{}\">{} / {:.2}</td>",
                    ratio_color(l.retransmit_ratio()),
                    l.flows,
                    l.retransmit_ratio()
                )),
                None => s.push_str("<td style=\"color:#a1a1aa\">·</td>"),
            }
        }
        s.push_str("</tr>\n");
    }
    s.push_str("</table>\n");

    // Full link ledger with latency sparklines.
    let lat_max = r.links.iter().map(|l| l.latency_max).fold(0.0_f64, f64::max);
    s.push_str(
        "<h2>Link ledger</h2>\n<table>\n<tr><th class=\"l\">link</th><th>flows</th>\
         <th>bytes</th><th>attempts</th><th>retx</th><th>delivered</th>\
         <th>dead</th><th>p50 ms</th><th>p90 ms</th><th>p99 ms</th><th>max ms</th><th class=\"l\">latency</th></tr>\n",
    );
    for l in &r.links {
        s.push_str(&format!(
            "<tr><td class=\"l\">{}</td><td>{}</td><td>{}</td><td>{}</td><td>{}</td>\
             <td>{}</td><td>{}</td><td>{:.3}</td><td>{:.3}</td><td>{:.3}</td>\
             <td>{:.3}</td><td class=\"l\">{}</td></tr>\n",
            l.label(),
            l.flows,
            l.bytes,
            l.attempts,
            l.retransmits,
            l.delivered,
            l.dead,
            l.latency_p50 * 1e3,
            l.latency_p90 * 1e3,
            l.latency_p99 * 1e3,
            l.latency_max * 1e3,
            latency_sparkline(l, lat_max)
        ));
    }
    s.push_str("</table>\n");

    // Per-step digest.
    s.push_str(
        "<h2>Per-step digest</h2>\n<table>\n<tr><th>step</th><th>flows</th><th>retx</th>\
         <th>exposed intervals</th><th>exposed ms</th><th>wait ms</th></tr>\n",
    );
    for st in &r.steps {
        s.push_str(&format!(
            "<tr><td>{}</td><td>{}</td><td>{}</td><td>{}</td><td>{:.4}</td><td>{:.4}</td></tr>\n",
            st.step,
            st.flows,
            st.retransmits,
            st.exposed_intervals,
            st.exposed_s * 1e3,
            st.wait_s * 1e3
        ));
    }
    s.push_str("</table>\n");
    page("bonsai message-flow report", &s)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> FlowsBenchConfig {
        FlowsBenchConfig {
            n: 1_200,
            ranks: 3,
            steps: 4,
            seed: 7,
            mask_retransmits: false,
        }
    }

    #[test]
    fn exports_are_deterministic_and_self_contained() {
        let a = run(tiny());
        let b = run(tiny());
        assert_eq!(flows_json(&a), flows_json(&b), "JSON not byte-stable");
        assert_eq!(render_html(&a), render_html(&b), "HTML not byte-stable");
        let html = render_html(&a);
        assert!(!html.contains("<script"), "report must be zero-JS");
        assert!(html.contains("<svg"));
        assert!(html.contains("Critical-path wait attribution"));
        assert!(html.contains("Link matrix"));
    }

    #[test]
    fn json_parses_and_the_ledger_conserves_flows() {
        let r = run(tiny());
        let v = bonsai_obs::json::parse(&flows_json(&r)).expect("valid JSON");
        assert_eq!(v.get("schema").unwrap().as_str(), Some("bonsai-flows-v1"));
        assert!(
            matches!(
                v.get("conservation").unwrap().get("holds").unwrap(),
                bonsai_obs::json::Value::Bool(true)
            ),
            "every sealed flow must resolve: {:?}",
            r.conservation
        );
        // Under the bench fault ladder retransmissions are guaranteed.
        let retx: f64 = v
            .get("links")
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .map(|l| l.get("retransmits").unwrap().as_f64().unwrap())
            .sum();
        assert!(retx > 0.0, "fault ladder produced no retransmissions");
        // Every critical-path wait second lands in a named cause bucket.
        let frac = v.get("unattributed_fraction").unwrap().as_f64().unwrap();
        assert!(frac < 0.05, "unattributed fraction {frac} ≥ 5%");
        assert!(!v.get("wait_attribution").unwrap().as_arr().unwrap().is_empty());
        assert!(!v.get("steps").unwrap().as_arr().unwrap().is_empty());
    }

    #[test]
    fn masking_retransmits_is_caught_by_the_artifact() {
        let honest = run(tiny());
        let masked = run(FlowsBenchConfig {
            mask_retransmits: true,
            ..tiny()
        });
        assert_ne!(flows_json(&honest), flows_json(&masked));
        let total_retx = |r: &FlowsResult| -> u64 { r.links.iter().map(|l| l.retransmits).sum() };
        assert!(total_retx(&honest) > 0);
        assert_eq!(total_retx(&masked), 0, "mask must hide every retransmit");
    }
}

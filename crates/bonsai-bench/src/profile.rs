//! The roofline-profiler bench: a scaled Milky Way run whose trace is
//! reduced to (a) a per-kernel × per-rank roofline placement against the
//! device model's compute and bandwidth ceilings, (b) a signed per-term
//! residual fit of the measured step against the Table II analytic model,
//! and (c) a folded self/total span profile. Exported as the
//! byte-deterministic `BENCH_profile.json` (schema `bonsai-profile-v1`)
//! plus a zero-dependency `out/profile_report.html` with the roofline
//! scatter and the residual tables.
//!
//! The gate is self-testing: [`ProfileBenchConfig::sandbag`] multiplies
//! the gravity kernels' seconds before the reduction, so a sandbagged run
//! *must* move the roofline seconds and the gravity residuals against the
//! honest one — the gate runner produces it in memory to prove that.

use bonsai_obs::json::{self, fmt_f64, Value};
use bonsai_obs::{
    folded_profile, obj, roofline, telescoping_error, ProfileRow, RooflinePoint, TermResidual,
};
use bonsai_sim::breakdown::Phase;
use bonsai_sim::profile::cost_model_attribution;
use bonsai_sim::{Cluster, ScalingModel, StepBreakdown};

use crate::report::page;
use crate::{milky_way_config, milky_way_snapshot};

/// The profile bench configuration.
#[derive(Clone, Debug)]
pub struct ProfileBenchConfig {
    /// Total particles of the scaled Milky Way model.
    pub n: usize,
    /// Logical ranks.
    pub ranks: usize,
    /// Steps to drive (the profile folds over all of them; the residual
    /// fit uses the last step's breakdown).
    pub steps: usize,
    /// IC seed.
    pub seed: u64,
    /// Gravity-kernel slowdown factor (1.0 = honest run). The gate's
    /// sabotage sets 1.5 and must see the roofline and residuals move.
    pub sandbag: f64,
}

impl Default for ProfileBenchConfig {
    fn default() -> Self {
        Self {
            n: 6_000,
            ranks: 4,
            steps: 6,
            seed: 2014,
            sandbag: 1.0,
        }
    }
}

/// Everything the exporters need from one completed profiling run.
pub struct ProfileResult {
    /// The configuration that produced it.
    pub config: ProfileBenchConfig,
    /// Per-kernel × per-rank roofline placements.
    pub roofline: Vec<RooflinePoint>,
    /// Signed measured-vs-model residuals, Table II order.
    pub residuals: Vec<TermResidual>,
    /// Folded self/total profile over rank × lane × span name.
    pub profile: Vec<ProfileRow>,
    /// Worst |Σ durations − lane extent| over (rank, step) GPU groups.
    pub telescoping_error_s: f64,
    /// The last step's measured breakdown (post-sandbag).
    pub breakdown: StepBreakdown,
}

/// Drive the run and reduce its trace.
pub fn run(cfg: ProfileBenchConfig) -> ProfileResult {
    let ic = milky_way_snapshot(cfg.n, cfg.seed);
    let ccfg = milky_way_config(cfg.n);
    let mut cluster = Cluster::new(ic, cfg.ranks, ccfg.clone());
    let mut last = StepBreakdown::default();
    for _ in 0..cfg.steps {
        last = cluster.step();
    }

    // The sandbag hook: gravity kernels report `sandbag`× their modelled
    // seconds, both on the roofline (attained drops below the ceiling)
    // and in the measured breakdown (the gravity residuals go positive).
    let mut points = roofline(cluster.trace());
    for p in &mut points {
        if p.kernel == "local" || p.kernel == "lets" {
            p.seconds *= cfg.sandbag;
        }
    }
    last[Phase::GravityLocal] *= cfg.sandbag;
    last[Phase::GravityLets] *= cfg.sandbag;

    let model = ScalingModel::new(ccfg.machine);
    ProfileResult {
        roofline: points,
        residuals: cost_model_attribution(&last, &model),
        profile: folded_profile(cluster.trace()),
        telescoping_error_s: telescoping_error(cluster.trace()),
        breakdown: last,
        config: cfg,
    }
}

/// `BENCH_profile.json`: schema `bonsai-profile-v1`, byte-deterministic
/// per seed.
pub fn profile_json(r: &ProfileResult) -> String {
    let c = &r.config;
    let roofline: Vec<Value> = r
        .roofline
        .iter()
        .map(|p| {
            obj!("kernel": p.kernel.as_str(), "rank": p.rank, "count": p.count,
                "seconds": p.seconds, "flops": p.flops, "bytes": p.bytes,
                "occupancy": p.occupancy, "intensity": p.intensity(),
                "attained_gflops": p.attained_gflops(),
                "compute_ceiling_gflops": p.compute_ceiling_gflops,
                "bandwidth_ceiling_gflops": p.bandwidth_ceiling_gflops(),
                "binding_ceiling": p.binding_ceiling(),
                "attained_fraction": p.attained_fraction())
        })
        .collect();
    let residuals: Vec<Value> = r
        .residuals
        .iter()
        .map(|t| {
            obj!("term": t.term.as_str(), "measured_s": t.measured_s, "modelled_s": t.modelled_s,
                "residual_s": t.residual_s(), "relative": t.relative())
        })
        .collect();
    let profile: Vec<Value> = r
        .profile
        .iter()
        .map(|row| {
            obj!("rank": row.rank, "lane": row.lane.name(), "name": row.name.as_str(),
                "count": row.count, "total_s": row.total_s, "self_s": row.self_s)
        })
        .collect();
    json::write(&obj!(
        "schema": "bonsai-profile-v1",
        "config": obj!("n": c.n, "ranks": c.ranks, "steps": c.steps, "seed": c.seed,
            "sandbag": c.sandbag),
        "telescoping_error_s": r.telescoping_error_s,
        "step_total_s": r.breakdown.total(),
        "roofline": roofline,
        "residuals": residuals,
        "profile": profile,
    ))
}

/// Colors of the two binding regimes (shared with the report legend).
fn regime_color(binding: &str) -> &'static str {
    if binding == "compute" {
        "#dc2626"
    } else {
        "#2563eb"
    }
}

/// The log-log roofline scatter as inline SVG: the device roof (bandwidth
/// diagonal meeting the compute ceiling) plus one point per kernel × rank,
/// colored by its binding regime.
fn roofline_svg(points: &[RooflinePoint]) -> String {
    const W: f64 = 560.0;
    const H: f64 = 360.0;
    const L: f64 = 56.0;
    const R: f64 = 16.0;
    const T: f64 = 18.0;
    const B: f64 = 40.0;
    let finite: Vec<&RooflinePoint> = points
        .iter()
        .filter(|p| p.intensity().is_finite() && p.attained_gflops() > 0.0)
        .collect();
    if finite.is_empty() {
        return String::from("<p>no finite roofline points</p>");
    }
    let roof = finite
        .iter()
        .map(|p| p.compute_ceiling_gflops)
        .fold(0.0_f64, f64::max);
    let bw = finite
        .iter()
        .map(|p| p.bandwidth_gbs)
        .fold(0.0_f64, f64::max);
    // Log bounds padded half a decade around the data and the ridge.
    let ridge = roof / bw;
    let xs: Vec<f64> = finite.iter().map(|p| p.intensity().log10()).collect();
    let ys: Vec<f64> = finite.iter().map(|p| p.attained_gflops().log10()).collect();
    let xmin = xs.iter().cloned().fold(ridge.log10(), f64::min) - 0.5;
    let xmax = xs.iter().cloned().fold(ridge.log10(), f64::max) + 0.5;
    let ymax = roof.log10() + 0.3;
    let ymin = ys.iter().cloned().fold(ymax - 3.0, f64::min) - 0.3;
    let px = |lx: f64| L + (lx - xmin) / (xmax - xmin) * (W - L - R);
    let py = |ly: f64| T + (ymax - ly) / (ymax - ymin) * (H - T - B);
    let mut s = format!(
        "<svg viewBox=\"0 0 {W} {H}\" width=\"{W}\" height=\"{H}\" role=\"img\">\n\
         <rect x=\"0\" y=\"0\" width=\"{W}\" height=\"{H}\" fill=\"#ffffff\" stroke=\"#d4d4d8\"/>\n"
    );
    // Decade gridlines + labels.
    let mut d = xmin.ceil() as i64;
    while (d as f64) <= xmax {
        let x = px(d as f64);
        s.push_str(&format!(
            "<line x1=\"{x:.1}\" y1=\"{T}\" x2=\"{x:.1}\" y2=\"{:.1}\" stroke=\"#f1f1f4\"/>\n\
             <text x=\"{x:.1}\" y=\"{:.1}\" font-size=\"11\" text-anchor=\"middle\" fill=\"#52525b\">1e{d}</text>\n",
            H - B,
            H - B + 16.0
        ));
        d += 1;
    }
    let mut d = ymin.ceil() as i64;
    while (d as f64) <= ymax {
        let y = py(d as f64);
        s.push_str(&format!(
            "<line x1=\"{L}\" y1=\"{y:.1}\" x2=\"{:.1}\" y2=\"{y:.1}\" stroke=\"#f1f1f4\"/>\n\
             <text x=\"{:.1}\" y=\"{:.1}\" font-size=\"11\" text-anchor=\"end\" fill=\"#52525b\">1e{d}</text>\n",
            W - R,
            L - 6.0,
            y + 4.0
        ));
        d += 1;
    }
    // The roof: bandwidth diagonal up to the ridge, compute ceiling after.
    let ridge_lx = ridge.log10();
    let bw_y0 = (bw * 10f64.powf(xmin)).log10();
    s.push_str(&format!(
        "<polyline points=\"{:.1},{:.1} {:.1},{:.1} {:.1},{:.1}\" fill=\"none\" stroke=\"#18181b\" stroke-width=\"1.5\"/>\n",
        px(xmin),
        py(bw_y0),
        px(ridge_lx),
        py(roof.log10()),
        px(xmax),
        py(roof.log10())
    ));
    s.push_str(&format!(
        "<text x=\"{:.1}\" y=\"{:.1}\" font-size=\"11\" fill=\"#18181b\">{:.0} Gflop/s roof · {:.0} GB/s</text>\n",
        px(ridge_lx) + 8.0,
        py(roof.log10()) - 6.0,
        roof,
        bw
    ));
    // Points.
    for p in &finite {
        s.push_str(&format!(
            "<circle cx=\"{:.1}\" cy=\"{:.1}\" r=\"4\" fill=\"{}\" fill-opacity=\"0.8\"><title>{} rank {}: {:.1} Gflop/s @ {:.2} flop/B ({} bound, {:.0}% of ceiling)</title></circle>\n",
            px(p.intensity().log10()),
            py(p.attained_gflops().log10()),
            regime_color(p.binding_ceiling()),
            p.kernel,
            p.rank,
            p.attained_gflops(),
            p.intensity(),
            p.binding_ceiling(),
            100.0 * p.attained_fraction()
        ));
    }
    s.push_str(&format!(
        "<text x=\"{:.1}\" y=\"{:.1}\" font-size=\"11\" fill=\"#52525b\" text-anchor=\"middle\">arithmetic intensity (flop/byte)</text>\n",
        L + (W - L - R) / 2.0,
        H - 6.0
    ));
    s.push_str("</svg>\n");
    s
}

/// `out/profile_report.html`: self-contained, zero JavaScript.
pub fn render_html(r: &ProfileResult) -> String {
    let c = &r.config;
    let mut s = String::new();
    s.push_str(&format!(
        "<h1>Roofline profile</h1>\n<p>{} particles × {} ranks × {} steps (seed {}), \
         step total {:.4} ms, telescoping error {:.3} ns{}</p>\n",
        c.n,
        c.ranks,
        c.steps,
        c.seed,
        r.breakdown.total() * 1e3,
        r.telescoping_error_s * 1e9,
        if c.sandbag != 1.0 {
            format!(", <strong>sandbag ×{}</strong>", fmt_f64(c.sandbag))
        } else {
            String::new()
        }
    ));
    s.push_str("<h2>Roofline</h2>\n");
    s.push_str(&format!(
        "<p><span class=\"swatch\" style=\"background:{}\"></span>compute-bound \
         <span class=\"swatch\" style=\"background:{}\"></span>bandwidth-bound</p>\n",
        regime_color("compute"),
        regime_color("bandwidth")
    ));
    s.push_str(&roofline_svg(&r.roofline));
    s.push_str(
        "<table>\n<tr><th class=\"l\">kernel</th><th>rank</th><th>calls</th><th>seconds</th>\
         <th>attained Gflop/s</th><th class=\"l\">binding ceiling</th><th>ceiling Gflop/s</th>\
         <th>of ceiling</th></tr>\n",
    );
    for p in &r.roofline {
        s.push_str(&format!(
            "<tr><td class=\"l\">{}</td><td>{}</td><td>{}</td><td>{:.3e}</td><td>{:.1}</td>\
             <td class=\"l\"><span class=\"swatch\" style=\"background:{}\"></span>{}</td>\
             <td>{:.1}</td><td>{:.1}%</td></tr>\n",
            p.kernel,
            p.rank,
            p.count,
            p.seconds,
            p.attained_gflops(),
            regime_color(p.binding_ceiling()),
            p.binding_ceiling(),
            p.binding_ceiling_gflops(),
            100.0 * p.attained_fraction()
        ));
    }
    s.push_str("</table>\n");
    s.push_str(
        "<h2>Cost-model attribution</h2>\n\
         <p>Signed residual per Table II term: measured − modelled at the same \
         (ranks, particles/GPU) point. Positive (red) = slower than the calibrated model.</p>\n\
         <table>\n<tr><th class=\"l\">term</th><th>measured ms</th><th>modelled ms</th>\
         <th>residual ms</th><th>relative</th></tr>\n",
    );
    for t in &r.residuals {
        let cls = if t.residual_s() > 0.0 { "pos" } else { "neg" };
        s.push_str(&format!(
            "<tr><td class=\"l\">{}</td><td>{:.4}</td><td>{:.4}</td>\
             <td class=\"{}\">{:+.4}</td><td class=\"{}\">{:+.1}%</td></tr>\n",
            t.term,
            t.measured_s * 1e3,
            t.modelled_s * 1e3,
            cls,
            t.residual_s() * 1e3,
            cls,
            100.0 * t.relative()
        ));
    }
    s.push_str("</table>\n");
    s.push_str(
        "<h2>Folded span profile</h2>\n\
         <table>\n<tr><th>rank</th><th class=\"l\">lane</th><th class=\"l\">span</th>\
         <th>calls</th><th>total ms</th><th>self ms</th></tr>\n",
    );
    for row in &r.profile {
        s.push_str(&format!(
            "<tr><td>{}</td><td class=\"l\">{}</td><td class=\"l\">{}</td>\
             <td>{}</td><td>{:.4}</td><td>{:.4}</td></tr>\n",
            row.rank,
            row.lane.name(),
            row.name,
            row.count,
            row.total_s * 1e3,
            row.self_s * 1e3
        ));
    }
    s.push_str("</table>\n");
    page("bonsai profile report", &s)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ProfileBenchConfig {
        ProfileBenchConfig {
            n: 1_200,
            ranks: 3,
            steps: 3,
            seed: 7,
            sandbag: 1.0,
        }
    }

    #[test]
    fn exports_are_deterministic_and_self_contained() {
        let a = run(tiny());
        let b = run(tiny());
        assert_eq!(profile_json(&a), profile_json(&b), "JSON not byte-stable");
        assert_eq!(render_html(&a), render_html(&b), "HTML not byte-stable");
        let html = render_html(&a);
        assert!(!html.contains("<script"), "report must be zero-JS");
        assert!(html.contains("<svg"));
        assert!(html.contains("Cost-model attribution"));
    }

    #[test]
    fn json_parses_and_satisfies_the_roofline_invariants() {
        let r = run(tiny());
        let v = bonsai_obs::json::parse(&profile_json(&r)).expect("valid JSON");
        assert_eq!(v.get("schema").unwrap().as_str(), Some("bonsai-profile-v1"));
        let points = v.get("roofline").unwrap().as_arr().unwrap();
        assert!(!points.is_empty());
        for p in points {
            let attained = p.get("attained_gflops").unwrap().as_f64().unwrap();
            let binding = p.get("binding_ceiling").unwrap().as_str().unwrap();
            assert!(binding == "compute" || binding == "bandwidth");
            let ceiling = match binding {
                "compute" => p.get("compute_ceiling_gflops").unwrap().as_f64().unwrap(),
                _ => p.get("bandwidth_ceiling_gflops").unwrap().as_f64().unwrap(),
            };
            assert!(
                attained <= ceiling * (1.0 + 1e-9),
                "attained {attained} above {binding} ceiling {ceiling}"
            );
            let frac = p.get("attained_fraction").unwrap().as_f64().unwrap();
            assert!((0.0..=1.0 + 1e-9).contains(&frac));
        }
        // The GPU lanes telescope: per-kernel seconds sum to the span
        // extent within float noise.
        let tel = v.get("telescoping_error_s").unwrap().as_f64().unwrap();
        assert!(tel < 1e-9, "telescoping error {tel}");
        // All twelve Table II terms are attributed.
        assert_eq!(v.get("residuals").unwrap().as_arr().unwrap().len(), 12);
    }

    #[test]
    fn sandbagging_shows_up_as_a_positive_gravity_residual() {
        let honest = run(tiny());
        let slow = run(ProfileBenchConfig {
            sandbag: 1.5,
            ..tiny()
        });
        assert_ne!(profile_json(&honest), profile_json(&slow));
        let by_name = |r: &ProfileResult, n: &str| -> f64 {
            r.residuals
                .iter()
                .find(|t| t.term == n)
                .unwrap()
                .residual_s()
        };
        assert!(
            by_name(&slow, "gravity_local") > by_name(&honest, "gravity_local"),
            "sandbag must push the gravity_local residual up"
        );
        // And the sandbagged kernels fall further below their ceiling.
        let frac = |r: &ProfileResult| -> f64 {
            r.roofline
                .iter()
                .filter(|p| p.kernel == "local")
                .map(RooflinePoint::attained_fraction)
                .fold(0.0, f64::max)
        };
        assert!(frac(&slow) < frac(&honest));
    }
}

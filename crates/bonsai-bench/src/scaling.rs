//! Scaling-sweep driver (the `scaling` row of [`crate::gates::GATES`]).
//!
//! Runs the real distributed algorithm at a ladder of rank counts — weak
//! (fixed particles/rank) and strong (fixed total particles) — and reduces
//! each step's span store through `bonsai-obs::analysis`: wall time,
//! critical path, per-phase imbalance, flop-balance residuals and parallel
//! efficiency. The result serializes to a byte-deterministic
//! `BENCH_scaling.json` and a self-contained zero-dependency HTML dashboard
//! with the Fig. 4-style efficiency curves.
//!
//! The JSON doubles as a perf contract: the gate runner pins it byte for
//! byte and explains any drift through [`crate::diff`].

use bonsai_ic::plummer_sphere;
use bonsai_net::obs::mean_hidden_comm_fraction;
use bonsai_obs::analysis::{critical_path, flop_balance, phase_stats, step_wall_time};
use bonsai_obs::json::{self, Value};
use bonsai_obs::obj;
use bonsai_sim::{Cluster, ClusterConfig};
use std::collections::BTreeMap;

use crate::report::page;

/// Sweep configuration. The defaults are the checked-in baseline's shape:
/// small enough for CI, large enough that every rank count exercises the
/// full distributed pipeline (LET exchange, balancing, barrier waits).
#[derive(Clone, Debug)]
pub struct SweepConfig {
    /// RNG seed for the initial conditions.
    pub seed: u64,
    /// Rank counts of both ladders.
    pub ranks: Vec<usize>,
    /// Weak sweep: particles per rank at every rung.
    pub weak_n_per_rank: usize,
    /// Strong sweep: total particles split across ranks.
    pub strong_total: usize,
    /// Synthetic wall-time multiplier applied to every rung except the
    /// smallest (1.0 = honest run): the scaling gate's sabotage, which
    /// must move `weak.efficiency` / `wall_seconds`.
    pub slowdown: f64,
}

impl Default for SweepConfig {
    fn default() -> Self {
        Self {
            seed: 42,
            ranks: vec![1, 2, 4, 8],
            weak_n_per_rank: 2000,
            strong_total: 16_000,
            slowdown: 1.0,
        }
    }
}

/// One measured rung of a sweep.
#[derive(Clone, Debug)]
pub struct SweepPoint {
    /// Rank count.
    pub p: usize,
    /// Particles per rank at this rung.
    pub n_per_rank: usize,
    /// Measured step wall-time (max span end − min span start), seconds.
    pub wall: f64,
    /// Critical-path seconds per phase (waits under `"wait"`).
    pub critical_phases: BTreeMap<String, f64>,
    /// Critical-path seconds doing work.
    pub work_seconds: f64,
    /// Critical-path seconds waiting on other ranks.
    pub wait_seconds: f64,
    /// Sum of critical-path node durations over wall time (1.0 by
    /// construction; the acceptance invariant).
    pub coverage: f64,
    /// Per-phase max/mean across ranks.
    pub phase_max_over_mean: BTreeMap<String, f64>,
    /// max/mean walk-flop residual from gravity-span annotations.
    pub flop_residual: f64,
    /// max/mean flop share the balancer *would* leave after re-cutting with
    /// `bonsai-domain::load::weighted_cuts` (the cross-check target).
    pub rebalance_residual: f64,
    /// Rank that set the step time (straggler attribution).
    pub worst_rank: u32,
    /// Mean hidden-communication fraction across ranks.
    pub hidden_comm: f64,
}

/// A full weak + strong sweep with derived efficiencies.
#[derive(Clone, Debug)]
pub struct SweepReport {
    /// Configuration the sweep ran with.
    pub config: SweepConfig,
    /// Weak-scaling rungs.
    pub weak: Vec<SweepPoint>,
    /// Weak parallel efficiency per rung (T(p₀)/T(p)).
    pub weak_eff: Vec<f64>,
    /// Strong-scaling rungs.
    pub strong: Vec<SweepPoint>,
    /// Strong parallel efficiency per rung (p₀·T(p₀)/(p·T(p))).
    pub strong_eff: Vec<f64>,
}

/// Measure one rung: build a fresh cluster, run one step, reduce its span
/// store through the analysis layer.
fn measure_point(p: usize, n_per_rank: usize, seed: u64) -> SweepPoint {
    let mut cluster = Cluster::new(
        plummer_sphere(n_per_rank * p, seed),
        p,
        ClusterConfig::default(),
    );
    cluster.step();
    let store = cluster.trace();
    let step = store.last_step().expect("step recorded spans");
    let wall = step_wall_time(store, step).expect("step has wall time");
    let cp = critical_path(store, step).expect("critical path");
    let coverage = cp.total() / wall;

    let stats = phase_stats(store, step);
    let mut phase_max_over_mean = BTreeMap::new();
    for s in &stats {
        phase_max_over_mean.insert(s.phase.clone(), s.max_over_mean());
    }
    // The straggler is whoever owns the terminal work of the critical path.
    let worst_rank = cp.nodes.iter().rev().find(|n| !n.wait).map_or(0, |n| n.rank);
    let fb = flop_balance(store, step);
    let hidden = mean_hidden_comm_fraction(store, step);

    SweepPoint {
        p,
        n_per_rank,
        wall,
        critical_phases: cp.phase_seconds(),
        work_seconds: cp.work_seconds(),
        wait_seconds: cp.wait_seconds(),
        coverage,
        phase_max_over_mean,
        flop_residual: fb.as_ref().map_or(1.0, |f| f.residual),
        rebalance_residual: cluster.rebalance_residual(),
        worst_rank,
        hidden_comm: hidden,
    }
}

/// Run the weak and strong ladders of `cfg` and derive efficiencies.
pub fn run_sweep(cfg: &SweepConfig) -> SweepReport {
    let min_p = cfg.ranks.iter().copied().min().unwrap_or(1);
    let run = |points: Vec<(usize, usize)>| -> Vec<SweepPoint> {
        points
            .into_iter()
            .map(|(p, n)| {
                let mut pt = measure_point(p, n, cfg.seed);
                if p != min_p && cfg.slowdown != 1.0 {
                    pt.wall *= cfg.slowdown;
                }
                pt
            })
            .collect()
    };
    let weak = run(cfg.ranks.iter().map(|&p| (p, cfg.weak_n_per_rank)).collect());
    let strong = run(
        cfg.ranks
            .iter()
            .map(|&p| (p, (cfg.strong_total / p).max(1)))
            .collect(),
    );
    let eff = |pts: &[SweepPoint], strongly: bool| -> Vec<f64> {
        let points: Vec<bonsai_obs::ScalingPoint> = pts
            .iter()
            .map(|pt| bonsai_obs::ScalingPoint {
                p: pt.p as u32,
                n_per_rank: pt.n_per_rank as u64,
                wall: pt.wall,
            })
            .collect();
        if strongly {
            bonsai_obs::strong_efficiency(&points)
        } else {
            bonsai_obs::weak_efficiency(&points)
        }
    };
    let weak_eff = eff(&weak, false);
    let strong_eff = eff(&strong, true);
    SweepReport {
        config: cfg.clone(),
        weak,
        weak_eff,
        strong,
        strong_eff,
    }
}

/// One rung of `BENCH_scaling.json`.
fn point_value(pt: &SweepPoint) -> Value {
    let map =
        |m: &BTreeMap<String, f64>| m.iter().map(|(k, v)| (k.as_str(), *v)).collect::<Value>();
    obj!("p": pt.p, "n_per_rank": pt.n_per_rank, "wall_seconds": pt.wall,
        "critical": obj!("coverage": pt.coverage, "work_seconds": pt.work_seconds,
            "wait_seconds": pt.wait_seconds, "phase_seconds": map(&pt.critical_phases)),
        "imbalance": obj!("flop_residual": pt.flop_residual,
            "rebalance_residual": pt.rebalance_residual, "worst_rank": pt.worst_rank,
            "phase_max_over_mean": map(&pt.phase_max_over_mean)),
        "hidden_comm_fraction": pt.hidden_comm)
}

/// Serialize a report to the byte-deterministic `BENCH_scaling.json` form.
pub fn scaling_json(r: &SweepReport) -> String {
    let ladder = |pts: &[SweepPoint], eff: &[f64]| {
        let points: Vec<Value> = pts.iter().map(point_value).collect();
        obj!("points": points, "efficiency": eff.to_vec())
    };
    json::write(&obj!(
        "schema": "bonsai-scaling-v1",
        "config": obj!("seed": r.config.seed, "ranks": r.config.ranks.clone(),
            "weak_n_per_rank": r.config.weak_n_per_rank, "strong_total": r.config.strong_total),
        "weak": ladder(&r.weak, &r.weak_eff),
        "strong": ladder(&r.strong, &r.strong_eff),
    ))
}

// ---------------------------------------------------------------------------
// HTML dashboard
// ---------------------------------------------------------------------------

/// Map an efficiency curve to an SVG polyline over a fixed viewport.
fn polyline(points: &[(f64, f64)], x0: f64, y0: f64, w: f64, h: f64) -> String {
    let coords: Vec<String> = points
        .iter()
        .map(|&(fx, fy)| {
            format!(
                "{:.1},{:.1}",
                x0 + fx * w,
                y0 + (1.0 - fy.clamp(0.0, 1.3) / 1.3) * h
            )
        })
        .collect();
    coords.join(" ")
}

fn efficiency_chart(title: &str, ranks: &[usize], curves: &[(&str, &str, &[f64])]) -> String {
    // Viewport: 420×260, plot area 360×200 at (50, 20). X is log2(p),
    // normalized; Y is efficiency on [0, 1.3].
    let (x0, y0, w, h) = (50.0, 20.0, 360.0, 200.0);
    let lx = |p: usize| (p.max(1) as f64).log2();
    let span = (lx(*ranks.last().unwrap_or(&1)) - lx(ranks[0])).max(1e-9);
    let fx = |p: usize| (lx(p) - lx(ranks[0])) / span;
    let mut s = format!(
        "<svg viewBox=\"0 0 420 260\" width=\"420\" height=\"260\" role=\"img\" \
         aria-label=\"{title}\">\n<text x=\"210\" y=\"14\" text-anchor=\"middle\" \
         class=\"t\">{title}</text>\n"
    );
    // Gridlines + y labels at 0, 0.25, 0.5, 0.75, 1.0.
    for i in 0..=4 {
        let e = i as f64 * 0.25;
        let y = y0 + (1.0 - e / 1.3) * h;
        s.push_str(&format!(
            "<line x1=\"{x0}\" y1=\"{y:.1}\" x2=\"{:.1}\" y2=\"{y:.1}\" class=\"g\"/>\
             <text x=\"{:.1}\" y=\"{:.1}\" text-anchor=\"end\" class=\"a\">{e:.2}</text>\n",
            x0 + w,
            x0 - 6.0,
            y + 4.0
        ));
    }
    // Ideal-efficiency line.
    let y1 = y0 + (1.0 - 1.0 / 1.3) * h;
    s.push_str(&format!(
        "<line x1=\"{x0}\" y1=\"{y1:.1}\" x2=\"{:.1}\" y2=\"{y1:.1}\" class=\"ideal\"/>\n",
        x0 + w
    ));
    // X labels.
    for &p in ranks {
        let x = x0 + fx(p) * w;
        s.push_str(&format!(
            "<text x=\"{x:.1}\" y=\"{:.1}\" text-anchor=\"middle\" class=\"a\">{p}</text>\n",
            y0 + h + 16.0
        ));
    }
    s.push_str(&format!(
        "<text x=\"{:.1}\" y=\"{:.1}\" text-anchor=\"middle\" class=\"a\">ranks</text>\n",
        x0 + w / 2.0,
        y0 + h + 32.0
    ));
    for (name, color, eff) in curves {
        let pts: Vec<(f64, f64)> = ranks.iter().zip(eff.iter()).map(|(&p, &e)| (fx(p), e)).collect();
        s.push_str(&format!(
            "<polyline points=\"{}\" fill=\"none\" stroke=\"{color}\" stroke-width=\"2\"/>\n",
            polyline(&pts, x0, y0, w, h)
        ));
        for (i, &(px, py)) in pts.iter().enumerate() {
            s.push_str(&format!(
                "<circle cx=\"{:.1}\" cy=\"{:.1}\" r=\"3\" fill=\"{color}\"><title>{name} p={} \
                 e={:.3}</title></circle>\n",
                x0 + px * w,
                y0 + (1.0 - py.clamp(0.0, 1.3) / 1.3) * h,
                ranks[i],
                eff[i]
            ));
        }
    }
    s.push_str("</svg>\n");
    s
}

fn point_table(title: &str, pts: &[SweepPoint]) -> String {
    let mut s = format!(
        "<h2>{title}</h2>\n<table>\n<tr><th>ranks</th><th>N/rank</th><th>wall s</th>\
         <th>critical work s</th><th>critical wait s</th><th>worst rank</th>\
         <th>flop residual</th><th>rebalance residual</th><th>hidden comm</th></tr>\n"
    );
    for pt in pts {
        s.push_str(&format!(
            "<tr><td>{}</td><td>{}</td><td>{:.4}</td><td>{:.4}</td><td>{:.4}</td><td>{}</td>\
             <td>{:.3}</td><td>{:.3}</td><td>{:.3}</td></tr>\n",
            pt.p,
            pt.n_per_rank,
            pt.wall,
            pt.work_seconds,
            pt.wait_seconds,
            pt.worst_rank,
            pt.flop_residual,
            pt.rebalance_residual,
            pt.hidden_comm
        ));
    }
    s.push_str("</table>\n");
    // Per-phase imbalance for the largest rung (where stragglers bite).
    if let Some(last) = pts.last() {
        s.push_str(&format!(
            "<h3>per-phase imbalance at {} ranks (max/mean over ranks)</h3>\n<table>\n\
             <tr><th>phase</th><th>max/mean</th><th>critical-path s</th></tr>\n",
            last.p
        ));
        for (phase, imb) in &last.phase_max_over_mean {
            s.push_str(&format!(
                "<tr><td>{phase}</td><td>{imb:.3}</td><td>{:.5}</td></tr>\n",
                last.critical_phases.get(phase).copied().unwrap_or(0.0)
            ));
        }
        s.push_str("</table>\n");
    }
    s
}

/// Render the self-contained HTML dashboard (no external assets, no JS).
pub fn render_html(r: &SweepReport) -> String {
    let mut s =
        String::from("<h1>Scaling sweep — parallel efficiency &amp; cross-rank imbalance</h1>\n");
    s.push_str(&format!(
        "<p>seed {}, ranks {:?}, weak {} particles/rank, strong {} total. Efficiency is \
         measured from step wall-times reduced out of the span store (Fig. 4 methodology); \
         the dashed line is ideal.</p>\n",
        r.config.seed, r.config.ranks, r.config.weak_n_per_rank, r.config.strong_total
    ));
    s.push_str("<div class=\"charts\">\n");
    s.push_str(&efficiency_chart(
        "Weak scaling efficiency T(p0)/T(p)",
        &r.config.ranks,
        &[("weak", "#2563eb", &r.weak_eff)],
    ));
    s.push_str(&efficiency_chart(
        "Strong scaling efficiency p0·T(p0)/(p·T(p))",
        &r.config.ranks,
        &[("strong", "#dc2626", &r.strong_eff)],
    ));
    s.push_str("</div>\n<p class=\"legend\"><span><span class=\"swatch\" style=\"background:#2563eb\"></span>weak</span><span><span class=\"swatch\" style=\"background:#dc2626\"></span>strong</span></p>\n");
    s.push_str(&point_table("Weak sweep (fixed particles per rank)", &r.weak));
    s.push_str(&point_table("Strong sweep (fixed total particles)", &r.strong));
    s.push_str(
        "<p>Critical-path coverage (node durations over measured wall time) is 1.000 by \
         construction on every rung; see <code>BENCH_scaling.json</code> for the full \
         per-phase decomposition and tolerance-gated fields.</p>\n",
    );
    page("bonsai scaling report", &s)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_cfg() -> SweepConfig {
        SweepConfig {
            seed: 11,
            ranks: vec![1, 2],
            weak_n_per_rank: 600,
            strong_total: 1200,
            slowdown: 1.0,
        }
    }

    #[test]
    fn sweep_is_deterministic_and_covers_wall() {
        let a = run_sweep(&tiny_cfg());
        let b = run_sweep(&tiny_cfg());
        assert_eq!(scaling_json(&a), scaling_json(&b), "sweep must be byte-deterministic");
        for pt in a.weak.iter().chain(&a.strong) {
            assert!(
                (pt.coverage - 1.0).abs() < 0.01,
                "critical path must cover wall time within 1%, got {}",
                pt.coverage
            );
            assert!(pt.wall > 0.0 && pt.work_seconds > 0.0);
        }
        assert_eq!(a.weak_eff.len(), 2);
        assert!((a.weak_eff[0] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn json_parses_and_round_trips_fields() {
        let r = run_sweep(&tiny_cfg());
        let j = scaling_json(&r);
        let v = bonsai_obs::json::parse(&j).expect("valid JSON");
        assert_eq!(v.get("schema").unwrap().as_str(), Some("bonsai-scaling-v1"));
        let weak = v.get("weak").unwrap();
        assert_eq!(weak.get("points").unwrap().as_arr().unwrap().len(), 2);
        let e = weak.get("efficiency").unwrap().as_arr().unwrap();
        assert_eq!(e[0].as_f64(), Some(r.weak_eff[0]));
    }

    #[test]
    fn check_passes_against_itself_and_fails_on_slowdown() {
        use crate::diff::{diff_values, Tolerance};
        let sweep = |cfg: &SweepConfig| {
            bonsai_obs::json::parse(&scaling_json(&run_sweep(cfg))).expect("valid JSON")
        };
        let honest = sweep(&tiny_cfg());
        assert!(diff_values(&honest, &honest, Tolerance::default()).is_empty());

        let slow = sweep(&SweepConfig {
            slowdown: 1.5,
            ..tiny_cfg()
        });
        let deltas = diff_values(&honest, &slow, Tolerance::default());
        assert!(!deltas.is_empty(), "50% slowdown must move the artifact");
        assert!(
            deltas
                .iter()
                .all(|d| d.path.ends_with(".wall_seconds") || d.path.contains(".efficiency")),
            "the slowdown should move wall time and efficiency only: {deltas:?}"
        );
    }

    #[test]
    fn html_is_self_contained() {
        let r = run_sweep(&tiny_cfg());
        let html = render_html(&r);
        assert!(html.starts_with("<!DOCTYPE html>"));
        assert!(html.contains("<svg"));
        assert!(html.contains("polyline"));
        // Zero external references: no scripts, no links, no imports.
        assert!(!html.contains("<script"));
        assert!(!html.contains("http://") && !html.contains("https://"));
        assert_eq!(render_html(&r), html, "render must be deterministic");
    }
}

//! The `bonsai-accuracy-v1` report: a byte-deterministic JSON record of
//! the differential and distributed oracles, plus the [`check_accuracy`]
//! oracle that judges a fresh run against the committed artifact.
//!
//! Gate semantics:
//!
//! 1. **Absolute bands** — every differential entry of the *current* run
//!    must sit inside its θ-dependent tolerance band, and every
//!    distributed entry inside the equivalence band. This catches a MAC
//!    or multipole regression even if someone regenerates the baseline
//!    with the regression in place.
//! 2. **Fig. 2 ordering** — per family/kernel the error must not grow as
//!    θ shrinks, and quadrupole must beat monopole at every θ.
//! 3. **Baseline drift** — numeric leaves are compared against the
//!    baseline with per-key tolerance bands (exact for configuration and
//!    counts, relative for error percentiles).

use crate::distributed::{equivalence, equivalence_band, serial_reference, EquivalenceReport};
use crate::ic::{Family, FAMILIES};
use crate::oracle::{measure, tolerance_band, ErrorPercentiles, THETA_SWEEP};
use bonsai_net::fault::FaultKind;
use bonsai_net::FaultPlan;
use bonsai_obs::json::{self, parse, Value};
use bonsai_obs::obj;
use bonsai_sim::ClusterConfig;

/// Configuration of a conformance run.
#[derive(Clone, Debug)]
pub struct RunConfig {
    /// Particles per family in the differential sweep.
    pub n: usize,
    /// Seed for every generator.
    pub seed: u64,
    /// Particles in the distributed comparisons.
    pub dist_n: usize,
    /// Rank ladder of the distributed comparisons.
    pub dist_ranks: Vec<usize>,
    /// Multiplier on the θ the walk uses (1.0 = honest; the accuracy gate's
    /// sabotage passes 1.5 to prove the bands trip).
    pub theta_inflation: f64,
}

impl Default for RunConfig {
    fn default() -> Self {
        Self {
            n: 4096,
            seed: 42,
            dist_n: 2048,
            dist_ranks: vec![1, 2, 4, 8],
            theta_inflation: 1.0,
        }
    }
}

/// One differential-oracle row.
#[derive(Clone, Debug)]
pub struct DifferentialRow {
    /// IC family.
    pub family: Family,
    /// Nominal opening angle.
    pub theta: f64,
    /// Quadrupole (`true`) or monopole-only kernel.
    pub quadrupole: bool,
    /// Measured error percentiles.
    pub pcts: ErrorPercentiles,
}

/// One distributed-oracle row.
#[derive(Clone, Debug)]
pub struct DistributedRow {
    /// Whether a fault plan was injected.
    pub faulty: bool,
    /// The comparison outcome.
    pub report: EquivalenceReport,
}

/// Full conformance-run record.
#[derive(Clone, Debug)]
pub struct AccuracyReport {
    /// The configuration that produced it.
    pub config: RunConfig,
    /// θ used by the distributed section.
    pub dist_theta: f64,
    /// Differential sweep: family × θ × kernel.
    pub differential: Vec<DifferentialRow>,
    /// Distributed ladder (clean runs plus one faulty rung).
    pub distributed: Vec<DistributedRow>,
}

/// The message-level fault plan the faulty rung injects: drops, duplicates
/// and bit flips at rates the retransmission budget absorbs, so the run
/// exercises recovery while remaining physics-preserving.
pub fn conformance_fault_plan(seed: u64) -> FaultPlan {
    FaultPlan::new(seed)
        .with_rate(FaultKind::Drop, 0.04)
        .with_rate(FaultKind::Duplicate, 0.03)
        .with_rate(FaultKind::Corrupt, 0.03)
        .with_rate(FaultKind::Reorder, 0.05)
}

/// Execute the full conformance run.
pub fn run(cfg: &RunConfig) -> AccuracyReport {
    let mut differential = Vec::new();
    for family in FAMILIES {
        for &theta in &THETA_SWEEP {
            for quadrupole in [true, false] {
                differential.push(DifferentialRow {
                    family,
                    theta,
                    quadrupole,
                    pcts: measure(
                        family,
                        cfg.n,
                        cfg.seed,
                        theta,
                        quadrupole,
                        cfg.theta_inflation,
                    ),
                });
            }
        }
    }

    let ccfg = ClusterConfig {
        theta: 0.4 * cfg.theta_inflation,
        ..ClusterConfig::default()
    };
    let ic = Family::Plummer.generate(cfg.dist_n, cfg.seed ^ 0xD157);
    let reference = serial_reference(&ic, &ClusterConfig::default());
    let mut distributed = Vec::new();
    for &r in &cfg.dist_ranks {
        distributed.push(DistributedRow {
            faulty: false,
            report: equivalence(&ic, r, &ccfg, None, &reference),
        });
    }
    // One faulty rung: message-level faults only (no crash), so no
    // recovery directory is needed and the run stays byte-deterministic.
    if let Some(&r) = cfg.dist_ranks.iter().max() {
        if r > 1 {
            distributed.push(DistributedRow {
                faulty: true,
                report: equivalence(
                    &ic,
                    r,
                    &ccfg,
                    Some((conformance_fault_plan(cfg.seed), None)),
                    &reference,
                ),
            });
        }
    }
    AccuracyReport {
        config: cfg.clone(),
        dist_theta: 0.4,
        differential,
        distributed,
    }
}

/// Render the report as byte-deterministic `bonsai-accuracy-v1` JSON.
pub fn accuracy_json(r: &AccuracyReport) -> String {
    let c = &r.config;
    let differential: Vec<Value> = r
        .differential
        .iter()
        .map(|row| {
            let (p, band) = (&row.pcts, tolerance_band(row.theta, row.quadrupole));
            let kernel = if row.quadrupole {
                "quadrupole"
            } else {
                "monopole"
            };
            obj!("family": row.family.name(), "theta": row.theta, "kernel": kernel,
                "median": p.median, "p95": p.p95, "max": p.max,
                "band_median": band.median, "band_p95": band.p95, "band_max": band.max)
        })
        .collect();
    let distributed: Vec<Value> = r
        .distributed
        .iter()
        .map(|row| {
            let (rep, band) = (
                &row.report,
                equivalence_band(r.dist_theta, row.report.ranks),
            );
            obj!("ranks": rep.ranks, "faulty": row.faulty,
                "median": rep.diff.median, "p95": rep.diff.p95, "max": rep.diff.max,
                "faults_injected": rep.faults_injected,
                "band_median": band.median, "band_p95": band.p95, "band_max": band.max)
        })
        .collect();
    json::write(&obj!(
        "schema": "bonsai-accuracy-v1",
        "config": obj!("n": c.n, "seed": c.seed, "dist_n": c.dist_n,
            "dist_ranks": c.dist_ranks.clone(), "dist_theta": r.dist_theta,
            "thetas": THETA_SWEEP.to_vec(), "theta_inflation": c.theta_inflation),
        "differential": differential,
        "distributed": distributed,
    ))
}

fn num(v: &Value, key: &str, path: &str, out: &mut Vec<String>) -> Option<f64> {
    let x = v.get(key).and_then(Value::as_f64);
    if x.is_none() {
        out.push(format!("{path}.{key}: missing or non-numeric"));
    }
    x
}

fn str_of(v: &Value, key: &str) -> String {
    match v.get(key) {
        Some(Value::Str(s)) => s.clone(),
        other => format!("{other:?}"),
    }
}

/// Check the *current* run against its own recorded bands and the Fig. 2
/// orderings (baseline-independent). Returns violations.
fn check_bands_and_ordering(cur: &Value, out: &mut Vec<String>) {
    let rows = match cur.get("differential") {
        Some(Value::Arr(rows)) => rows,
        _ => {
            out.push("$.differential: missing".into());
            return;
        }
    };
    // (family, kernel, theta) -> p95, for the ordering checks.
    let mut by_key: Vec<(String, String, f64, f64)> = Vec::new();
    for (i, row) in rows.iter().enumerate() {
        let path = format!("$.differential[{i}]");
        let (fam, kern) = (str_of(row, "family"), str_of(row, "kernel"));
        let theta = num(row, "theta", &path, out).unwrap_or(0.0);
        for key in ["median", "p95", "max"] {
            let (Some(v), Some(b)) = (
                num(row, key, &path, out),
                num(row, &format!("band_{key}"), &path, out),
            ) else {
                continue;
            };
            if v > b {
                out.push(format!(
                    "{path} ({fam}/{kern}/θ={theta}): {key} {v:.3e} outside tolerance band {b:.3e}"
                ));
            }
        }
        if let Some(p95) = num(row, "p95", &path, out) {
            by_key.push((fam, kern, theta, p95));
        }
    }
    // Both orderings compare truncation errors. A pair whose two p95s are
    // both inside the θ = 0 band (the walk's `f32` round-off) is not
    // compared: their order is that of two summations, not of θ or of the
    // kernel. One p95 above the band and the pair is compared as before.
    let roundoff = tolerance_band(0.0, true).p95;
    // Fig. 2 ordering 1: at fixed family+kernel, shrinking θ must not
    // increase the p95 error.
    for (fam, kern, theta, p95) in &by_key {
        for (fam2, kern2, theta2, p95b) in &by_key {
            if fam == fam2
                && kern == kern2
                && theta2 > theta
                && p95b < p95
                && p95.max(*p95b) > roundoff
            {
                out.push(format!(
                    "ordering: {fam}/{kern} p95 at θ={theta} ({p95:.3e}) exceeds θ={theta2} ({p95b:.3e})"
                ));
            }
        }
    }
    // Fig. 2 ordering 2: quadrupole beats monopole at every (family, θ).
    for (fam, kern, theta, p95) in &by_key {
        if kern != "quadrupole" {
            continue;
        }
        if let Some((_, _, _, mono)) = by_key
            .iter()
            .find(|(f2, k2, t2, _)| f2 == fam && k2 == "monopole" && t2 == theta)
        {
            if p95 > mono && p95.max(*mono) > roundoff {
                out.push(format!(
                    "ordering: {fam} θ={theta}: quadrupole p95 {p95:.3e} worse than monopole {mono:.3e}"
                ));
            }
        }
    }
    if let Some(Value::Arr(rows)) = cur.get("distributed") {
        for (i, row) in rows.iter().enumerate() {
            let path = format!("$.distributed[{i}]");
            for key in ["median", "p95", "max"] {
                let (Some(v), Some(b)) = (
                    num(row, key, &path, out),
                    num(row, &format!("band_{key}"), &path, out),
                ) else {
                    continue;
                };
                if v > b {
                    out.push(format!(
                        "{path} (ranks {}): {key} {v:.3e} outside equivalence band {b:.3e}",
                        str_of(row, "ranks")
                    ));
                }
            }
        }
    } else {
        out.push("$.distributed: missing".into());
    }
}

/// Per-key drift tolerance against the baseline. Configuration, counts and
/// bands must match exactly; error percentiles drift only if the physics changed, but small refactors
/// (summation order, rayon chunking) can move round-off, so they get a
/// relative band with a floor far below any real error scale.
fn drift_ok(key: &str, base: f64, cur: f64) -> bool {
    match key {
        "n" | "seed" | "dist_n" | "dist_ranks" | "dist_theta" | "thetas" | "theta" | "ranks"
        | "theta_inflation" | "faults_injected" => base == cur,
        k if k.starts_with("band_") => base == cur,
        // median / p95 / max
        _ => (base - cur).abs() <= 0.25 * base.abs().max(1e-12),
    }
}

fn compare(path: &str, key: &str, base: &Value, cur: &Value, out: &mut Vec<String>) {
    if let (Some(b), Some(c)) = (base.as_f64(), cur.as_f64()) {
        if !drift_ok(key, b, c) {
            out.push(format!(
                "{path}: baseline {b} vs current {c} out of tolerance"
            ));
        }
        return;
    }
    match (base, cur) {
        (Value::Obj(b), Value::Obj(c)) => {
            for (k, bv) in b {
                match cur.get(k) {
                    Some(cv) => compare(&format!("{path}.{k}"), k, bv, cv, out),
                    None => out.push(format!("{path}.{k}: missing from current run")),
                }
            }
            for (k, _) in c.iter().filter(|(k, _)| base.get(k).is_none()) {
                out.push(format!("{path}.{k}: not in baseline (regenerate it)"));
            }
        }
        (Value::Arr(b), Value::Arr(c)) => {
            if b.len() != c.len() {
                out.push(format!(
                    "{path}: length {} in baseline vs {} current",
                    b.len(),
                    c.len()
                ));
                return;
            }
            for (i, (bv, cv)) in b.iter().zip(c).enumerate() {
                compare(&format!("{path}[{i}]"), key, bv, cv, out);
            }
        }
        (b, c) if b == c => {}
        _ => out.push(format!("{path}: baseline {base:?} vs current {cur:?} differ")),
    }
}

/// Compare a fresh `BENCH_accuracy.json` against the committed baseline
/// and the absolute tolerance bands. Returns the violation list (empty =
/// gate passes) or an error if either document fails to parse.
pub fn check_accuracy(baseline: &str, current: &str) -> Result<Vec<String>, String> {
    let b = parse(baseline).map_err(|e| format!("baseline: {e}"))?;
    let c = parse(current).map_err(|e| format!("current: {e}"))?;
    let mut out = Vec::new();
    check_bands_and_ordering(&c, &mut out);
    compare("$", "", &b, &c, &mut out);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_cfg() -> RunConfig {
        RunConfig {
            n: 256,
            seed: 9,
            dist_n: 400,
            dist_ranks: vec![1, 2],
            theta_inflation: 1.0,
        }
    }

    #[test]
    fn json_is_deterministic_and_parses() {
        let cfg = tiny_cfg();
        let a = accuracy_json(&run(&cfg));
        let b = accuracy_json(&run(&cfg));
        assert_eq!(a, b, "report must be byte-deterministic");
        let v = parse(&a).expect("report JSON parses");
        assert_eq!(
            v.get("schema"),
            Some(&Value::Str("bonsai-accuracy-v1".into()))
        );
    }

    #[test]
    fn self_check_passes() {
        let json = accuracy_json(&run(&tiny_cfg()));
        let ok = check_accuracy(&json, &json).unwrap();
        assert!(ok.is_empty(), "self-comparison must pass: {ok:?}");
    }

    /// A handcrafted two-row document exercising every gate clause at a
    /// realistic error scale (real tiny-N runs sit in the θ-opens-all
    /// regime where errors are round-off and the drift floor hides them).
    fn doc(median: f64, p95: f64, mono_p95: f64, small_theta_p95: f64) -> String {
        format!(
            r#"{{"schema": "bonsai-accuracy-v1",
  "config": {{"n": 64, "seed": 1, "dist_n": 0, "dist_ranks": [], "dist_theta": 0.4, "thetas": [0.2, 0.4], "theta_inflation": 1.0}},
  "differential": [
    {{"family": "plummer", "theta": 0.4, "kernel": "quadrupole", "median": {median}, "p95": {p95}, "max": 0.001, "band_median": 6e-5, "band_p95": 7e-4, "band_max": 0.026}},
    {{"family": "plummer", "theta": 0.4, "kernel": "monopole", "median": 2e-4, "p95": {mono_p95}, "max": 0.01, "band_median": 1.3e-3, "band_p95": 9.6e-3, "band_max": 0.26}},
    {{"family": "plummer", "theta": 0.2, "kernel": "quadrupole", "median": 1e-6, "p95": {small_theta_p95}, "max": 1e-4, "band_median": 4e-6, "band_p95": 4e-5, "band_max": 0.0016}}
  ],
  "distributed": []}}
"#
        )
    }

    #[test]
    fn drift_band_and_ordering_violations_trip() {
        let good = doc(2e-5, 2e-4, 2e-3, 2e-5);
        assert_eq!(check_accuracy(&good, &good).unwrap(), Vec::<String>::new());
        // Drift: p95 moved 10x against an unchanged baseline.
        let bad = check_accuracy(&good, &doc(2e-5, 2e-3, 2e-2, 2e-5)).unwrap();
        assert!(bad.iter().any(|v| v.contains("out of tolerance")), "{bad:?}");
        // Absolute band: p95 above band_p95 even with baseline == current.
        let inflated = doc(2e-5, 8e-4, 2e-3, 2e-5);
        let bad = check_accuracy(&inflated, &inflated).unwrap();
        assert!(bad.iter().any(|v| v.contains("outside tolerance band")), "{bad:?}");
        // Ordering 1: smaller θ must not have a larger p95.
        let unordered = doc(2e-5, 2e-4, 2e-3, 3e-4);
        let bad = check_accuracy(&unordered, &unordered).unwrap();
        assert!(bad.iter().any(|v| v.contains("ordering")), "{bad:?}");
        // Ordering 2: quadrupole worse than monopole at the same θ.
        let flipped = doc(2e-5, 4e-3, 2e-3, 2e-5);
        let bad = check_accuracy(&flipped, &flipped).unwrap();
        assert!(
            bad.iter().any(|v| v.contains("worse than monopole")),
            "{bad:?}"
        );
    }

    #[test]
    fn round_off_p95s_are_not_ordered_but_still_drift() {
        // Two p95s both inside the θ = 0 band (16 units of 2⁻²⁴) are the
        // walk's round-off: neither ordering compares them.
        let by_theta = doc(2e-7, 3e-7, 4e-7, 3.1e-7);
        assert_eq!(check_accuracy(&by_theta, &by_theta).unwrap(), Vec::<String>::new());
        let by_kernel = doc(2e-7, 4e-7, 3e-7, 2e-7);
        assert_eq!(check_accuracy(&by_kernel, &by_kernel).unwrap(), Vec::<String>::new());
        // One of the two above the band, and the pair is ordered again.
        let unordered = doc(2e-7, 3e-7, 4e-7, 1.2e-6);
        let bad = check_accuracy(&unordered, &unordered).unwrap();
        assert!(bad.iter().any(|v| v.contains("ordering")), "{bad:?}");
        let flipped = doc(2e-7, 1.2e-6, 4e-7, 2e-7);
        let bad = check_accuracy(&flipped, &flipped).unwrap();
        assert!(bad.iter().any(|v| v.contains("worse than monopole")), "{bad:?}");
        // Drift keeps its 25 % rule at any scale: a median moving from
        // `f64` to `f32` round-off is out of tolerance.
        let f64_roundoff = doc(1e-15, 2e-4, 2e-3, 2e-5);
        let bad = check_accuracy(&f64_roundoff, &doc(4e-7, 2e-4, 2e-3, 2e-5)).unwrap();
        assert!(bad.iter().any(|v| v.contains("out of tolerance")), "{bad:?}");
    }

    #[test]
    fn malformed_inputs_are_errors() {
        assert!(check_accuracy("{", "{}").is_err());
        assert!(check_accuracy("{}", "nope").is_err());
    }
}

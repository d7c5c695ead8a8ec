//! # bonsai-bench
//!
//! The benchmark harness that regenerates **every table and figure** of the
//! SC'14 paper. Two binaries, each with one contract:
//!
//! | binary | what it runs |
//! |---|---|
//! | `paper` | the paper's evaluation, one row per figure, table, ablation or run; each row's claims must fall in their bands ([`paper`]) |
//! | `gates` | the nine `BENCH_<kind>.json` artifact gates; each artifact must equal its checked-in file byte for byte ([`gates`]) |
//!
//! The rows of `paper <row>`:
//!
//! | row | paper artefact |
//! |---|---|
//! | `table1` | Table I — machine descriptions |
//! | `fig1` | Fig. 1 — force-kernel Gflops bars |
//! | `fig2` | Fig. 2 — PH-SFC domain decomposition image |
//! | `fig3` | Fig. 3 — Milky Way surface density + velocity structure (runs only when named) |
//! | `fig4` | Fig. 4 — weak scaling on Piz Daint and Titan |
//! | `table2` | Table II — per-phase time breakdown |
//! | `time_to_solution` | §VI-C — days to 8 Gyr at full scale |
//! | `production` | §VI-C — the production run in miniature: monitor, on-the-fly analysis, restart check |
//! | `chaos` | §VI-C restart — seeded fault sweep and crash drill over the distributed step |
//! | `power` | §II — energy efficiency |
//! | `theta` … `placement` | the design-choice ablations listed in DESIGN.md §5 |
//!
//! Wall-clock rates of the hot CPU kernels (force kernels, tree construction,
//! SFC key generation, cluster steps) are the repository benchmark's job:
//! `benchmark/` at the root.
//!
//! This library hosts the rows, the gates, the shared workload builders and
//! the paper-vs-measured claim formatting.

#![deny(missing_docs)]

pub mod artifact;
pub mod diff;
pub mod flows;
pub mod gates;
pub mod longrun;
pub mod membership;
pub mod paper;
pub mod parallel;
pub mod profile;
pub mod report;
pub mod scaling;
pub mod step;
pub mod stream;
pub mod stream_dash;

use std::ops::RangeInclusive;

use bonsai_ic::MilkyWayModel;
use bonsai_net::fault::{FaultKind, FaultPlan, Injection};
use bonsai_net::ViewChange;
use bonsai_obs::health::AlertEvent;
use bonsai_obs::json::Value;
use bonsai_obs::obj;
use bonsai_sim::ClusterConfig;
use bonsai_tree::Particles;
use bonsai_util::units;

/// Default output directory for generated artifacts (PPM/CSV).
pub const OUT_DIR: &str = "out";

/// A fresh checkpoint directory under the system temp dir, named
/// `<tag>_<pid>_<n>`: no other run shares it, neither a test running in
/// parallel in this process nor another process given the same seed. The
/// caller removes it when done.
pub fn scratch_dir(tag: &str) -> std::path::PathBuf {
    static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    std::env::temp_dir().join(format!("{tag}_{}_{n}", std::process::id()))
}

/// The plan of a drop storm: every first-attempt message of the epochs
/// `from..to` is dropped, so each one is retransmitted.
pub(crate) fn drop_storm(seed: u64, (from, to): (u64, u64)) -> FaultPlan {
    (from..to).fold(FaultPlan::new(seed), |plan, epoch| {
        plan.with_injection(Injection { epoch, from: None, to: None, kind: None, fault: FaultKind::Drop, attempts: 0..1 })
    })
}

/// One alert-log row of an artifact (`BENCH_longrun.json`,
/// `BENCH_stream.json`).
pub(crate) fn alert_row(e: &AlertEvent) -> Value {
    obj!("step": e.step, "rule": e.rule.as_str(), "metric": e.metric.as_str(),
        "severity": e.severity.name(), "kind": e.kind.name(), "value": e.value)
}

/// One view-change row of an artifact (`BENCH_longrun.json`,
/// `BENCH_membership.json`).
pub(crate) fn view_change_row(ch: &ViewChange) -> Value {
    obj!("epoch": ch.epoch, "from_view": ch.from_view, "to_view": ch.to_view,
        "from_world": ch.from_world, "to_world": ch.to_world, "rounds": ch.rounds,
        "migrated_particles": ch.migrated_particles, "migrated_bytes": ch.migrated_bytes)
}

/// A scaled Milky Way snapshot: the standard workload of the performance
/// figures (the paper uses its MW model for all measurements, §VI-B).
pub fn milky_way_snapshot(n: usize, seed: u64) -> Particles {
    MilkyWayModel::paper().generate(n, seed)
}

/// The cluster configuration an `n`-particle Milky Way snapshot runs at:
/// physical units, softening `0.1·(2·10⁵/n)^⅓` and a 3 Myr step.
pub fn milky_way_config(n: usize) -> ClusterConfig {
    ClusterConfig {
        g: units::G,
        eps: 0.1 * (2.0e5_f64 / n as f64).powf(1.0 / 3.0),
        dt: units::myr_to_internal(3.0),
        ..ClusterConfig::default()
    }
}

/// The value of `--flag value` in `args`: the default when the flag is
/// absent, an error naming the flag when its value is missing or does not
/// parse — a mistyped size must not silently run the default workload.
fn parse_arg(args: &[String], name: &str, default: usize) -> Result<usize, String> {
    match args.iter().position(|a| a == name) {
        None => Ok(default),
        Some(i) => {
            let value = args.get(i + 1).map_or("", String::as_str);
            value
                .parse()
                .map_err(|_| format!("{name}: cannot parse {value}"))
        }
    }
}

/// Parse a `--flag value` style integer argument of this process with a
/// default; a present flag with a missing or unparseable value exits 2.
pub fn arg_usize(name: &str, default: usize) -> usize {
    let args: Vec<String> = std::env::args().collect();
    parse_arg(&args, name, default).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2)
    })
}

/// Compact deterministic number for chart captions.
pub(crate) fn short(v: f64) -> String {
    if v == 0.0 {
        return "0".into();
    }
    let a = v.abs();
    if !(1e-3..1e5).contains(&a) {
        format!("{v:.2e}")
    } else if a >= 100.0 {
        format!("{v:.0}")
    } else {
        format!("{v:.3}")
    }
}

/// One claim of the reproduction: the paper's value, ours, and the band
/// ours must fall in.
pub struct Compared {
    /// What is being compared.
    pub label: String,
    /// The paper's value; NaN where the paper states the claim without one.
    pub paper: f64,
    /// Our value.
    pub ours: f64,
    /// Unit suffix.
    pub unit: &'static str,
    /// The interval our value must fall in for the claim to hold.
    pub band: RangeInclusive<f64>,
}

impl Compared {
    /// A claim that `ours` falls in `band`.
    pub fn new(
        label: impl Into<String>,
        paper: f64,
        ours: f64,
        unit: &'static str,
        band: RangeInclusive<f64>,
    ) -> Self {
        Self {
            label: label.into(),
            paper,
            ours,
            unit,
            band,
        }
    }

    /// A claim that `ours` lies within the relative tolerance `tol` of the
    /// paper's value.
    pub fn near(label: impl Into<String>, paper: f64, ours: f64, unit: &'static str, tol: f64) -> Self {
        let (a, b) = (paper * (1.0 - tol), paper * (1.0 + tol));
        Self::new(label, paper, ours, unit, a.min(b)..=a.max(b))
    }

    /// A claim the paper states without a figure: `ours` is at least `lo`.
    pub fn at_least(label: impl Into<String>, ours: f64, unit: &'static str, lo: f64) -> Self {
        Self::new(label, f64::NAN, ours, unit, lo..=f64::INFINITY)
    }

    /// Whether our value falls in the band.
    pub fn holds(&self) -> bool {
        self.band.contains(&self.ours)
    }

    /// Relative deviation from the paper value.
    pub fn deviation(&self) -> f64 {
        if self.paper == 0.0 {
            0.0
        } else {
            (self.ours - self.paper) / self.paper
        }
    }
}

/// Format claims as a paper-vs-ours table with each band and verdict.
pub fn comparison_table(rows: &[Compared]) -> String {
    let mut table = format!(
        "{:<48} {:>9} {:>9} {:<3} {:>7}  band\n",
        "claim", "paper", "ours", "", "dev"
    );
    for r in rows {
        let (paper, dev) = match r.paper {
            p if p.is_nan() => ("—".to_string(), String::new()),
            p => (short(p), format!("{:+.1}%", 100.0 * r.deviation())),
        };
        let band = format!("[{}, {}]", short(*r.band.start()), short(*r.band.end()));
        let verdict = if r.holds() { "ok" } else { "FAIL" };
        table.push_str(&format!(
            "{:<48} {paper:>9} {:>9} {:<3} {dev:>7}  {band:<20} {verdict}\n",
            r.label,
            short(r.ours),
            r.unit
        ));
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_has_requested_size() {
        let p = milky_way_snapshot(1000, 1);
        assert_eq!(p.len(), 1000);
        p.validate().unwrap();
    }

    #[test]
    fn comparison_math() {
        let c = Compared::new("x", 2.0, 2.2, "s", 2.1..=2.3);
        assert!((c.deviation() - 0.1).abs() < 1e-12);
        assert!(c.holds());
        let z = Compared::new("x", 0.0, 1.0, "s", 0.0..=0.5);
        assert_eq!(z.deviation(), 0.0);
        assert!(!z.holds());
        let near = Compared::near("x", -2.0, -2.1, "s", 0.10);
        assert!(near.holds() && near.band.start() < near.band.end());
        let table = comparison_table(&[c, z, Compared::at_least("y", 3.0, "x", 1.0)]);
        let verdicts: Vec<&str> = table.lines().skip(1).map(|l| l.rsplit(' ').next().unwrap()).collect();
        assert_eq!(verdicts, ["ok", "FAIL", "ok"]);
    }

    #[test]
    fn absent_flag_yields_the_default_and_a_bad_value_is_an_error() {
        let args = |s: &str| -> Vec<String> { s.split(' ').map(String::from).collect() };
        assert_eq!(parse_arg(&args("bin --steps 3"), "--n", 60_000), Ok(60_000));
        assert_eq!(parse_arg(&args("bin --n 500"), "--n", 60_000), Ok(500));
        assert_eq!(
            parse_arg(&args("bin --n 6o000"), "--n", 60_000),
            Err("--n: cannot parse 6o000".to_string())
        );
        assert_eq!(
            parse_arg(&args("bin --n"), "--n", 60_000),
            Err("--n: cannot parse ".to_string())
        );
    }
}

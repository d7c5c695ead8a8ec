//! # bonsai-bench
//!
//! The benchmark harness that regenerates **every table and figure** of the
//! SC'14 paper. Each target is a standalone binary:
//!
//! | target | paper artefact |
//! |---|---|
//! | `table1_hardware` | Table I — machine descriptions |
//! | `fig1_force_kernel` | Fig. 1 — force-kernel Gflops bars |
//! | `fig2_decomposition` | Fig. 2 — PH-SFC domain decomposition image |
//! | `fig3_galaxy` | Fig. 3 — Milky Way surface density + velocity structure |
//! | `fig4_weak_scaling` | Fig. 4 — weak scaling on Piz Daint and Titan |
//! | `table2_breakdown` | Table II — per-phase time breakdown |
//! | `time_to_solution` | §VI-C — days to 8 Gyr at full scale |
//! | `ablation_*` | design-choice studies listed in DESIGN.md |
//! | `gates` | the nine `BENCH_<kind>.json` artifact gates ([`gates`]) |
//!
//! Wall-clock rates of the hot CPU kernels (force kernels, tree construction,
//! SFC key generation, cluster steps) are the repository benchmark's job:
//! `benchmark/` at the root.
//!
//! This library hosts the shared workload builders and the paper-vs-measured
//! report formatting used by all targets.

#![deny(missing_docs)]

pub mod artifact;
pub mod diff;
pub mod flows;
pub mod gates;
pub mod longrun;
pub mod membership;
pub mod parallel;
pub mod profile;
pub mod report;
pub mod scaling;
pub mod step;
pub mod stream;
pub mod stream_dash;

use bonsai_ic::MilkyWayModel;
use bonsai_sim::ClusterConfig;
use bonsai_tree::Particles;
use bonsai_util::units;

/// Default output directory for generated artifacts (PPM/CSV).
pub const OUT_DIR: &str = "out";

/// Ensure the artifact directory exists and return its path.
pub fn out_dir() -> std::path::PathBuf {
    let p = std::path::PathBuf::from(OUT_DIR);
    let _ = std::fs::create_dir_all(&p);
    p
}

/// A fresh checkpoint directory under the system temp dir, named
/// `<tag>_<pid>_<n>`: no other run shares it, neither a test running in
/// parallel in this process nor another process given the same seed. The
/// caller removes it when done.
pub fn scratch_dir(tag: &str) -> std::path::PathBuf {
    static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    std::env::temp_dir().join(format!("{tag}_{}_{n}", std::process::id()))
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

/// One line of a paper-vs-reproduction comparison.
pub struct Compared {
    /// What is being compared.
    pub label: String,
    /// The paper's value.
    pub paper: f64,
    /// Our value.
    pub ours: f64,
    /// Unit suffix.
    pub unit: &'static str,
}

impl Compared {
    /// Build a row.
    pub fn new(label: impl Into<String>, paper: f64, ours: f64, unit: &'static str) -> Self {
        Self {
            label: label.into(),
            paper,
            ours,
            unit,
        }
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

/// Print a formatted paper-vs-ours table.
pub fn print_comparison(title: &str, rows: &[Compared]) {
    println!("\n── {title} ──");
    println!("{:<42} {:>12} {:>12} {:>8}", "quantity", "paper", "ours", "dev");
    for r in rows {
        println!(
            "{:<42} {:>9.3} {:<2} {:>9.3} {:<2} {:>7.1}%",
            r.label,
            r.paper,
            r.unit,
            r.ours,
            r.unit,
            100.0 * r.deviation()
        );
    }
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
        let c = Compared::new("x", 2.0, 2.2, "s");
        assert!((c.deviation() - 0.1).abs() < 1e-12);
        let z = Compared::new("x", 0.0, 1.0, "s");
        assert_eq!(z.deviation(), 0.0);
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

    #[test]
    fn out_dir_created() {
        let d = out_dir();
        assert!(d.exists());
    }
}

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
pub mod longrun;
pub mod membership;
pub mod parallel;
pub mod profile;
pub mod report;
pub mod scaling;
pub mod stream;
pub mod stream_dash;

use bonsai_ic::MilkyWayModel;
use bonsai_tree::Particles;

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

/// Parse `--flag value` style integer arguments with a default.
pub fn arg_usize(name: &str, default: usize) -> usize {
    let args: Vec<String> = std::env::args().collect();
    for i in 0..args.len() {
        if args[i] == name {
            if let Some(v) = args.get(i + 1).and_then(|s| s.parse().ok()) {
                return v;
            }
        }
    }
    default
}

/// Parse `--flag value` style float arguments with a default.
pub fn arg_f64(name: &str, default: f64) -> f64 {
    let args: Vec<String> = std::env::args().collect();
    for i in 0..args.len() {
        if args[i] == name {
            if let Some(v) = args.get(i + 1).and_then(|s| s.parse().ok()) {
                return v;
            }
        }
    }
    default
}

/// Parse a `--flag value` string argument.
pub fn arg_str(name: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    for i in 0..args.len() {
        if args[i] == name {
            return args.get(i + 1).cloned();
        }
    }
    None
}

/// Whether a bare `--flag` is present.
pub fn has_flag(name: &str) -> bool {
    std::env::args().any(|a| a == name)
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
    fn out_dir_created() {
        let d = out_dir();
        assert!(d.exists());
    }
}

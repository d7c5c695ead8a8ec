//! Per-step timing breakdowns in the shape of the paper's Table II.
//!
//! [`Phase`] declares the twelve phases once; a [`StepBreakdown`] holds one
//! second count per phase, indexed by it. Everything that walks the phases
//! — the total, the printed column, the per-step gauge family, the streamed
//! phase sample, the cost-model residuals — loops over [`Phase::ALL`], and
//! both pricings (the cluster's and the scaling model's) fill a column
//! through one exhaustive `match`, so a new phase does not compile until it
//! is priced.

use serde::Serialize;
use std::ops::{Index, IndexMut};

/// One Table II phase. The paper's single "Unbalance + Other" row is kept
/// only for presentation ([`StepBreakdown::other`]); internally it is
/// attributed to four real sub-phases — leapfrog integration, load-balance
/// bookkeeping, host orchestration and the cross-rank straggler gap — so
/// the critical-path analyzer never sees an opaque bucket.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    /// "Sorting SFC" row (GPU).
    Sort,
    /// "Domain Update" row (CPU + network).
    DomainUpdate,
    /// "Tree-construction" row (GPU).
    TreeConstruction,
    /// "Tree-properties" row (GPU).
    TreeProperties,
    /// "Compute gravity Local-tree" row (GPU).
    GravityLocal,
    /// "Compute gravity LETs" row (GPU, overlapped with CPU LET builds).
    GravityLets,
    /// "Non-hidden LET comm" row.
    NonHiddenComm,
    /// "Recovery" row: retransmissions and fault handling (0 in clean runs).
    Recovery,
    /// Leapfrog kick–drift integration (device, bandwidth-bound).
    Integration,
    /// Load-balance bookkeeping: key sampling and flop-weight updates (host).
    LoadBalance,
    /// Host orchestration: kernel launches, queue management, driver sync.
    Orchestration,
    /// Cross-rank straggler gap in total gravity (max − mean rank time).
    Unbalance,
}

impl Phase {
    /// Every phase, in presentation order; the sub-phases of "Unbalance +
    /// Other" come last, from [`Phase::Integration`] on.
    pub const ALL: [Phase; 12] = [
        Phase::Sort,
        Phase::DomainUpdate,
        Phase::TreeConstruction,
        Phase::TreeProperties,
        Phase::GravityLocal,
        Phase::GravityLets,
        Phase::NonHiddenComm,
        Phase::Recovery,
        Phase::Integration,
        Phase::LoadBalance,
        Phase::Orchestration,
        Phase::Unbalance,
    ];

    /// The `phase` label of the per-step seconds gauge family, and the
    /// phase's key in streamed and exported records.
    pub fn name(self) -> &'static str {
        self.labels().0
    }

    /// The phase's name, and the row label [`StepBreakdown::format_column`]
    /// prints.
    fn labels(self) -> (&'static str, &'static str) {
        match self {
            Phase::Sort => ("sort", "Sorting SFC"),
            Phase::DomainUpdate => ("domain_update", "Domain Update"),
            Phase::TreeConstruction => ("tree_construction", "Tree-construction"),
            Phase::TreeProperties => ("tree_properties", "Tree-properties"),
            Phase::GravityLocal => ("gravity_local", "Compute gravity Local-tree"),
            Phase::GravityLets => ("gravity_lets", "Compute gravity LETs"),
            Phase::NonHiddenComm => ("non_hidden_comm", "Non-hidden LET comm"),
            Phase::Recovery => ("recovery", "Recovery"),
            Phase::Integration => ("integration", "  · integration"),
            Phase::LoadBalance => ("load_balance", "  · load balance"),
            Phase::Orchestration => ("orchestration", "  · orchestration"),
            Phase::Unbalance => ("unbalance", "  · unbalance"),
        }
    }
}

/// Where the sub-phases of "Unbalance + Other" start in [`Phase::ALL`].
const OTHER: usize = Phase::Integration as usize;

/// Leapfrog kick–drift throughput of the device (particles/s): a handful of
/// fused multiply-adds per particle, fully bandwidth-bound on a K20X.
pub const INTEGRATE_RATE: f64 = 1.0e9;

/// Host-side kernel-launch / driver latency charged per launch (seconds).
pub const LAUNCH_LATENCY: f64 = 5.0e-6;

/// Kernel launches issued by the step driver outside the phases that are
/// already priced (sort passes, build levels, gravity blocks bookkeeping).
pub const STEP_LAUNCHES: f64 = 32.0;

/// One Table II column: simulated seconds per [`Phase`] (read and written
/// as `b[phase]`) plus the derived performance numbers.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize)]
pub struct StepBreakdown {
    /// Ranks (GPUs) in the run.
    pub gpus: u32,
    /// Particles per GPU.
    pub particles_per_gpu: u64,
    /// Mean particle-particle interactions per particle.
    pub pp_per_particle: f64,
    /// Mean particle-cell interactions per particle.
    pub pc_per_particle: f64,
    seconds: [f64; 12],
}

impl Index<Phase> for StepBreakdown {
    type Output = f64;
    fn index(&self, phase: Phase) -> &f64 {
        &self.seconds[phase as usize]
    }
}

impl IndexMut<Phase> for StepBreakdown {
    fn index_mut(&mut self, phase: Phase) -> &mut f64 {
        &mut self.seconds[phase as usize]
    }
}

impl StepBreakdown {
    /// A column whose phase seconds are `seconds(phase)`, asked once per
    /// phase in [`Phase::ALL`] order.
    pub fn from_phases(
        gpus: u32,
        particles_per_gpu: u64,
        pp_per_particle: f64,
        pc_per_particle: f64,
        seconds: impl FnMut(Phase) -> f64,
    ) -> Self {
        Self {
            gpus,
            particles_per_gpu,
            pp_per_particle,
            pc_per_particle,
            seconds: Phase::ALL.map(seconds),
        }
    }

    /// The paper's "Unbalance + Other" presentation row: the four
    /// attributed sub-phases summed back into one bucket, left to right.
    pub fn other(&self) -> f64 {
        sum(&self.seconds[OTHER..])
    }

    /// Total wall-clock of the step (sum of the rows, as in Table II): the
    /// rows above "Unbalance + Other" left to right, then that row.
    pub fn total(&self) -> f64 {
        sum(&self.seconds[..OTHER]) + self.other()
    }

    /// Counted flops per particle at the §VI-A rates.
    pub fn flops_per_particle(&self) -> f64 {
        23.0 * self.pp_per_particle + 65.0 * self.pc_per_particle
    }

    /// Total counted flops across the machine for one step.
    pub fn total_flops(&self) -> f64 {
        self.flops_per_particle() * self.particles_per_gpu as f64 * self.gpus as f64
    }

    /// "GPU" performance row: flops over time spent in the force kernels.
    pub fn gpu_tflops(&self) -> f64 {
        let t = self[Phase::GravityLocal] + self[Phase::GravityLets];
        if t <= 0.0 {
            0.0
        } else {
            self.total_flops() / t / 1e12
        }
    }

    /// "Application" performance row: flops over the full step.
    pub fn application_tflops(&self) -> f64 {
        let t = self.total();
        if t <= 0.0 {
            0.0
        } else {
            self.total_flops() / t / 1e12
        }
    }

    /// Render as a Table II style column. The "Recovery" row prints only
    /// when it is positive.
    pub fn format_column(&self, label: &str) -> String {
        let mut s = String::new();
        s.push_str(&format!("=== {label}: {} GPUs × {:.2}M particles ===\n", self.gpus, self.particles_per_gpu as f64 / 1e6));
        let mut row = |name: &str, secs: f64| s.push_str(&format!("{name:<28} {secs:>8.3} s\n"));
        for phase in Phase::ALL {
            if phase == Phase::Integration {
                row("Unbalance + Other", self.other());
            }
            if phase != Phase::Recovery || self[phase] > 0.0 {
                row(phase.labels().1, self[phase]);
            }
        }
        row("Total", self.total());
        s.push_str(&format!("{:<28} {:>8.0}\n", "Particle-Particle /particle", self.pp_per_particle));
        s.push_str(&format!("{:<28} {:>8.0}\n", "Particle-Cell /particle", self.pc_per_particle));
        s.push_str(&format!("{:<28} {:>8.1} Tflops\n", "GPU", self.gpu_tflops()));
        s.push_str(&format!("{:<28} {:>8.1} Tflops\n", "Application", self.application_tflops()));
        s
    }
}

/// Left-to-right sum: `a + b + c + …`, bit for bit as written out.
fn sum(seconds: &[f64]) -> f64 {
    seconds.iter().copied().reduce(|a, b| a + b).unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> StepBreakdown {
        let seconds = [0.1, 0.2, 0.1, 0.03, 1.45, 2.0, 0.1, 0.0, 0.04, 0.03, 0.13, 0.1];
        StepBreakdown::from_phases(2, 1000, 1716.0, 6765.0, |phase| seconds[phase as usize])
    }

    #[test]
    fn totals_and_flops() {
        let b = sample();
        assert!((b.total() - 4.28).abs() < 1e-12);
        let fpp = b.flops_per_particle();
        assert!((fpp - (23.0 * 1716.0 + 65.0 * 6765.0)).abs() < 1e-9);
        assert!((b.total_flops() - fpp * 2000.0).abs() < 1e-6);
    }

    #[test]
    fn performance_rows() {
        let b = sample();
        let gpu = b.gpu_tflops();
        let app = b.application_tflops();
        assert!(gpu > app, "kernel rate must exceed application rate");
        let gravity = b[Phase::GravityLocal] + b[Phase::GravityLets];
        assert!((gpu / app - b.total() / gravity).abs() < 1e-9);
    }

    #[test]
    fn format_column_renders_the_sample_exactly() {
        let expected = "=== test: 2 GPUs × 0.00M particles ===
Sorting SFC                     0.100 s
Domain Update                   0.200 s
Tree-construction               0.100 s
Tree-properties                 0.030 s
Compute gravity Local-tree      1.450 s
Compute gravity LETs            2.000 s
Non-hidden LET comm             0.100 s
Unbalance + Other               0.300 s
  · integration                 0.040 s
  · load balance                0.030 s
  · orchestration               0.130 s
  · unbalance                   0.100 s
Total                           4.280 s
Particle-Particle /particle      1716
Particle-Cell /particle          6765
GPU                               0.0 Tflops
Application                       0.0 Tflops
";
        assert_eq!(sample().format_column("test"), expected);
    }

    #[test]
    fn format_column_prints_the_recovery_row_only_when_positive() {
        let mut b = sample();
        (b.gpus, b.particles_per_gpu) = (18600, 13_000_000);
        b[Phase::Recovery] = 0.25;
        let expected = "=== faulty: 18600 GPUs × 13.00M particles ===
Sorting SFC                     0.100 s
Domain Update                   0.200 s
Tree-construction               0.100 s
Tree-properties                 0.030 s
Compute gravity Local-tree      1.450 s
Compute gravity LETs            2.000 s
Non-hidden LET comm             0.100 s
Recovery                        0.250 s
Unbalance + Other               0.300 s
  · integration                 0.040 s
  · load balance                0.030 s
  · orchestration               0.130 s
  · unbalance                   0.100 s
Total                           4.530 s
Particle-Particle /particle      1716
Particle-Cell /particle          6765
GPU                           33585.2 Tflops
Application                   25578.1 Tflops
";
        assert_eq!(b.format_column("faulty"), expected);
    }

    #[test]
    fn format_contains_all_rows() {
        let s = sample().format_column("test");
        for key in [
            "Sorting SFC",
            "Domain Update",
            "Tree-construction",
            "Tree-properties",
            "Local-tree",
            "LETs",
            "Non-hidden",
            "Unbalance",
            "Total",
            "GPU",
            "Application",
        ] {
            assert!(s.contains(key), "missing row {key}");
        }
    }

    #[test]
    fn phase_index_round_trip() {
        // Each phase owns its own slot, and its name is the gauge label.
        let names: Vec<&str> = Phase::ALL.iter().map(|p| p.name()).collect();
        assert_eq!(
            names,
            [
                "sort", "domain_update", "tree_construction", "tree_properties",
                "gravity_local", "gravity_lets", "non_hidden_comm", "recovery",
                "integration", "load_balance", "orchestration", "unbalance",
            ]
        );
        let b = sample();
        let r = StepBreakdown::from_phases(b.gpus, b.particles_per_gpu, 1716.0, 6765.0, |p| b[p]);
        assert_eq!(r, b);
        for phase in Phase::ALL {
            let mut c = b;
            c[phase] += 1.0;
            assert_ne!(c, b, "{phase:?}");
            assert!((c.total() - b.total() - 1.0).abs() < 1e-12, "{phase:?}");
        }
    }

    #[test]
    fn other_is_the_sum_of_its_attributed_sub_phases() {
        let b = sample();
        assert!((b.other() - 0.3).abs() < 1e-12);
        let all = Phase::ALL.iter().fold(0.0, |s, &p| s + b[p]);
        assert!((b.total() - all).abs() < 1e-12);
        let sub = [Phase::Integration, Phase::LoadBalance, Phase::Orchestration, Phase::Unbalance];
        assert_eq!(b.other(), sub.iter().fold(0.0, |s, &p| s + b[p]));
    }

    #[test]
    fn zero_guard() {
        let b = StepBreakdown::default();
        assert_eq!(b.gpu_tflops(), 0.0);
        assert_eq!(b.application_tflops(), 0.0);
    }
}

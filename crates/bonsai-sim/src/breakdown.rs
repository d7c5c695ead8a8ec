//! Per-step timing breakdowns in the shape of the paper's Table II.

use bonsai_util::timer::PhaseTimes;
use serde::Serialize;

/// The Table II phase names, in presentation order. Each maps 1:1 onto a
/// field of [`StepBreakdown`]; the observability layer uses them as the
/// `phase` label of the per-step seconds gauge family.
///
/// The paper's single "Unbalance + Other" row is kept only for
/// presentation ([`StepBreakdown::other`]); internally it is attributed to
/// four real sub-phases — leapfrog integration, load-balance bookkeeping,
/// host orchestration and the cross-rank straggler gap — so the
/// critical-path analyzer never sees an opaque bucket.
pub const PHASES: [&str; 12] = [
    "sort",
    "domain_update",
    "tree_construction",
    "tree_properties",
    "gravity_local",
    "gravity_lets",
    "non_hidden_comm",
    "recovery",
    "integration",
    "load_balance",
    "orchestration",
    "unbalance",
];

/// Leapfrog kick–drift throughput of the device (particles/s): a handful of
/// fused multiply-adds per particle, fully bandwidth-bound on a K20X.
pub const INTEGRATE_RATE: f64 = 1.0e9;

/// Host-side kernel-launch / driver latency charged per launch (seconds).
pub const LAUNCH_LATENCY: f64 = 5.0e-6;

/// Kernel launches issued by the step driver outside the phases that are
/// already priced (sort passes, build levels, gravity blocks bookkeeping).
pub const STEP_LAUNCHES: f64 = 32.0;

/// One Table II column: per-phase simulated seconds plus the derived
/// performance numbers.
#[derive(Clone, Copy, Debug, Default, Serialize)]
pub struct StepBreakdown {
    /// Ranks (GPUs) in the run.
    pub gpus: u32,
    /// Particles per GPU.
    pub particles_per_gpu: u64,
    /// "Sorting SFC" row (GPU).
    pub sort: f64,
    /// "Domain Update" row (CPU + network).
    pub domain_update: f64,
    /// "Tree-construction" row (GPU).
    pub tree_construction: f64,
    /// "Tree-properties" row (GPU).
    pub tree_properties: f64,
    /// "Compute gravity Local-tree" row (GPU).
    pub gravity_local: f64,
    /// "Compute gravity LETs" row (GPU, overlapped with CPU LET builds).
    pub gravity_lets: f64,
    /// "Non-hidden LET comm" row.
    pub non_hidden_comm: f64,
    /// "Recovery" row: retransmissions and fault handling (0 in clean runs).
    pub recovery: f64,
    /// Leapfrog kick–drift integration (device, bandwidth-bound).
    pub integration: f64,
    /// Load-balance bookkeeping: key sampling and flop-weight updates (host).
    pub load_balance: f64,
    /// Host orchestration: kernel launches, queue management, driver sync.
    pub orchestration: f64,
    /// Cross-rank straggler gap in total gravity (max − mean rank time).
    pub unbalance: f64,
    /// Mean particle-particle interactions per particle.
    pub pp_per_particle: f64,
    /// Mean particle-cell interactions per particle.
    pub pc_per_particle: f64,
}

impl StepBreakdown {
    /// Flatten the timing rows into a named phase record (the interchange
    /// with the metrics registry: one gauge per [`PHASES`] entry).
    pub fn phase_times(&self) -> PhaseTimes {
        PhaseTimes::from_pairs([
            ("sort", self.sort),
            ("domain_update", self.domain_update),
            ("tree_construction", self.tree_construction),
            ("tree_properties", self.tree_properties),
            ("gravity_local", self.gravity_local),
            ("gravity_lets", self.gravity_lets),
            ("non_hidden_comm", self.non_hidden_comm),
            ("recovery", self.recovery),
            ("integration", self.integration),
            ("load_balance", self.load_balance),
            ("orchestration", self.orchestration),
            ("unbalance", self.unbalance),
        ])
    }

    /// Rebuild the timing rows from a phase record plus the scalar context
    /// (inverse of [`StepBreakdown::phase_times`]).
    pub fn from_phase_times(
        gpus: u32,
        particles_per_gpu: u64,
        pp_per_particle: f64,
        pc_per_particle: f64,
        pt: &PhaseTimes,
    ) -> Self {
        Self {
            gpus,
            particles_per_gpu,
            sort: pt.get("sort"),
            domain_update: pt.get("domain_update"),
            tree_construction: pt.get("tree_construction"),
            tree_properties: pt.get("tree_properties"),
            gravity_local: pt.get("gravity_local"),
            gravity_lets: pt.get("gravity_lets"),
            non_hidden_comm: pt.get("non_hidden_comm"),
            recovery: pt.get("recovery"),
            integration: pt.get("integration"),
            load_balance: pt.get("load_balance"),
            orchestration: pt.get("orchestration"),
            unbalance: pt.get("unbalance"),
            pp_per_particle,
            pc_per_particle,
        }
    }

    /// The paper's "Unbalance + Other" presentation row: the four
    /// attributed sub-phases summed back into one bucket.
    pub fn other(&self) -> f64 {
        self.integration + self.load_balance + self.orchestration + self.unbalance
    }

    /// Total wall-clock of the step (sum of the rows, as in Table II).
    pub fn total(&self) -> f64 {
        self.sort
            + self.domain_update
            + self.tree_construction
            + self.tree_properties
            + self.gravity_local
            + self.gravity_lets
            + self.non_hidden_comm
            + self.recovery
            + self.other()
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
        let t = self.gravity_local + self.gravity_lets;
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

    /// Render as a Table II style column.
    pub fn format_column(&self, label: &str) -> String {
        let mut s = String::new();
        s.push_str(&format!("=== {label}: {} GPUs × {:.2}M particles ===\n", self.gpus, self.particles_per_gpu as f64 / 1e6));
        s.push_str(&format!("{:<28} {:>8.3} s\n", "Sorting SFC", self.sort));
        s.push_str(&format!("{:<28} {:>8.3} s\n", "Domain Update", self.domain_update));
        s.push_str(&format!("{:<28} {:>8.3} s\n", "Tree-construction", self.tree_construction));
        s.push_str(&format!("{:<28} {:>8.3} s\n", "Tree-properties", self.tree_properties));
        s.push_str(&format!("{:<28} {:>8.3} s\n", "Compute gravity Local-tree", self.gravity_local));
        s.push_str(&format!("{:<28} {:>8.3} s\n", "Compute gravity LETs", self.gravity_lets));
        s.push_str(&format!("{:<28} {:>8.3} s\n", "Non-hidden LET comm", self.non_hidden_comm));
        if self.recovery > 0.0 {
            s.push_str(&format!("{:<28} {:>8.3} s\n", "Recovery", self.recovery));
        }
        s.push_str(&format!("{:<28} {:>8.3} s\n", "Unbalance + Other", self.other()));
        s.push_str(&format!("{:<28} {:>8.3} s\n", "  · integration", self.integration));
        s.push_str(&format!("{:<28} {:>8.3} s\n", "  · load balance", self.load_balance));
        s.push_str(&format!("{:<28} {:>8.3} s\n", "  · orchestration", self.orchestration));
        s.push_str(&format!("{:<28} {:>8.3} s\n", "  · unbalance", self.unbalance));
        s.push_str(&format!("{:<28} {:>8.3} s\n", "Total", self.total()));
        s.push_str(&format!("{:<28} {:>8.0}\n", "Particle-Particle /particle", self.pp_per_particle));
        s.push_str(&format!("{:<28} {:>8.0}\n", "Particle-Cell /particle", self.pc_per_particle));
        s.push_str(&format!("{:<28} {:>8.1} Tflops\n", "GPU", self.gpu_tflops()));
        s.push_str(&format!("{:<28} {:>8.1} Tflops\n", "Application", self.application_tflops()));
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> StepBreakdown {
        StepBreakdown {
            gpus: 2,
            particles_per_gpu: 1000,
            sort: 0.1,
            domain_update: 0.2,
            tree_construction: 0.1,
            tree_properties: 0.03,
            gravity_local: 1.45,
            gravity_lets: 2.0,
            non_hidden_comm: 0.1,
            recovery: 0.0,
            integration: 0.04,
            load_balance: 0.03,
            orchestration: 0.13,
            unbalance: 0.1,
            pp_per_particle: 1716.0,
            pc_per_particle: 6765.0,
        }
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
        assert!((gpu / app - b.total() / (b.gravity_local + b.gravity_lets)).abs() < 1e-9);
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
    fn phase_times_round_trip() {
        let b = sample();
        let pt = b.phase_times();
        // Every declared phase name is present in the record…
        for name in PHASES {
            assert_eq!(pt.get(name), {
                let r = StepBreakdown::from_phase_times(1, 1, 0.0, 0.0, &pt);
                match name {
                    "sort" => r.sort,
                    "domain_update" => r.domain_update,
                    "tree_construction" => r.tree_construction,
                    "tree_properties" => r.tree_properties,
                    "gravity_local" => r.gravity_local,
                    "gravity_lets" => r.gravity_lets,
                    "non_hidden_comm" => r.non_hidden_comm,
                    "recovery" => r.recovery,
                    "integration" => r.integration,
                    "load_balance" => r.load_balance,
                    "orchestration" => r.orchestration,
                    "unbalance" => r.unbalance,
                    _ => unreachable!(),
                }
            });
        }
        // …and the full record survives the round trip.
        let r = StepBreakdown::from_phase_times(
            b.gpus,
            b.particles_per_gpu,
            b.pp_per_particle,
            b.pc_per_particle,
            &pt,
        );
        assert_eq!(r.total(), b.total());
        assert_eq!(r.gravity_local, b.gravity_local);
        assert_eq!(r.gpus, b.gpus);
        assert!((pt.total() - b.total()).abs() < 1e-12);
    }

    #[test]
    fn other_is_the_sum_of_its_attributed_sub_phases() {
        let b = sample();
        assert!((b.other() - 0.3).abs() < 1e-12);
        assert!((b.total() - (b.sort + b.domain_update + b.tree_construction
            + b.tree_properties + b.gravity_local + b.gravity_lets
            + b.non_hidden_comm + b.recovery + b.integration + b.load_balance
            + b.orchestration + b.unbalance)).abs() < 1e-12);
    }

    #[test]
    fn zero_guard() {
        let b = StepBreakdown::default();
        assert_eq!(b.gpu_tflops(), 0.0);
        assert_eq!(b.application_tflops(), 0.0);
    }
}

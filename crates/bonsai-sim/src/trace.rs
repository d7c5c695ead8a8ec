//! Per-rank step timelines and the ASCII Gantt chart of the overlap story.
//!
//! §III-B2's central engineering claim is *concurrency*: while the GPU
//! grinds the local tree, the CPU threads build LETs and the network moves
//! them, so only a small residue of communication is ever exposed. This
//! module reconstructs that schedule from a step's measured quantities and
//! renders it, making the claim visible:
//!
//! ```text
//! rank 0 GPU  SSDDBBPLLLLLLLLLLRRRRRRRR......
//! rank 0 COMM ......mmmmmm...................
//! ```
//!
//! (`S` sort, `D` domain update, `B` build, `P` properties, `L` local
//! gravity, `R` remote/LET gravity, `m` LET communication, `.` idle.)

use std::collections::BTreeMap;

use bonsai_obs::{interval_union, overlap_with_union, Lane, TraceStore};

/// One rank's reconstructed schedule (seconds from step start).
#[derive(Clone, Debug, Default)]
pub struct RankTimeline {
    /// `(label, start, end)` for every busy interval on the GPU lane.
    pub gpu: Vec<(String, f64, f64)>,
    /// `(label, start, end)` for the communication lane.
    pub comm: Vec<(String, f64, f64)>,
    /// `(label, start, end)` for host-CPU bookkeeping (load balance,
    /// orchestration) and cross-rank barrier waits.
    pub cpu: Vec<(String, f64, f64)>,
}

impl RankTimeline {
    /// Wall-clock span of the timeline.
    pub fn makespan(&self) -> f64 {
        self.gpu
            .iter()
            .chain(self.comm.iter())
            .chain(self.cpu.iter())
            .map(|(_, _, e)| *e)
            .fold(0.0, f64::max)
    }

    /// Fraction of LET communication hidden under GPU work. Exposure is
    /// measured against the union of GPU busy intervals, so comm that
    /// straddles a gap between GPU phases is correctly counted as exposed.
    pub fn hidden_comm_fraction(&self) -> f64 {
        let comm_total: f64 = self.comm.iter().map(|(_, s, e)| e - s).sum();
        if comm_total <= 0.0 {
            return 1.0;
        }
        let union = interval_union(self.gpu.iter().map(|(_, s, e)| (*s, *e)).collect());
        let hidden: f64 = self
            .comm
            .iter()
            .map(|(_, s, e)| overlap_with_union(*s, *e, &union))
            .sum();
        (hidden / comm_total).clamp(0.0, 1.0)
    }
}

/// Per-rank timelines of the most recent recorded epoch: a view over a
/// [cluster](crate::cluster)'s span store, re-based to step-relative
/// seconds. The spans were recorded with the cluster's *configured* device
/// and machine-rate models, so a Titan cluster's timeline shows Titan's
/// slower host phases.
pub fn step_timelines(store: &TraceStore) -> Vec<RankTimeline> {
    let Some(step) = store.last_step() else {
        return Vec::new();
    };
    let in_step = store.step_records(step).spans;
    let base = in_step.iter().map(|s| s.start).fold(f64::INFINITY, f64::min);
    // One pass, bucketed by rank in record order; ranks come out ascending.
    let mut by_rank: BTreeMap<u32, RankTimeline> = BTreeMap::new();
    for s in in_step {
        let t = by_rank.entry(s.rank).or_default();
        let item = (s.name.clone(), s.start - base, s.end - base);
        match s.lane {
            Lane::Gpu => t.gpu.push(item),
            Lane::Comm => t.comm.push(item),
            Lane::Cpu => t.cpu.push(item),
        }
    }
    by_rank
        .into_values()
        .map(|mut t| {
            for lane in [&mut t.gpu, &mut t.comm, &mut t.cpu] {
                lane.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap());
            }
            t
        })
        .collect()
}

/// Mean over ranks of [`RankTimeline::hidden_comm_fraction`] in the most
/// recent recorded epoch of `store`. A store with no recorded step has no
/// communication to expose and reads 1.0, as a rank without comm does.
pub fn mean_hidden_comm_fraction(store: &TraceStore) -> f64 {
    let timelines = step_timelines(store);
    if timelines.is_empty() {
        return 1.0;
    }
    timelines.iter().map(RankTimeline::hidden_comm_fraction).sum::<f64>() / timelines.len() as f64
}

/// Render timelines as an ASCII Gantt chart, `width` characters across.
pub fn render_gantt(timelines: &[RankTimeline], width: usize) -> String {
    let makespan = timelines
        .iter()
        .map(RankTimeline::makespan)
        .fold(0.0, f64::max)
        .max(1e-12);
    let glyph = |label: &str| -> char {
        match label {
            "sort" => 'S',
            "domain" => 'D',
            "build" => 'B',
            "props" => 'P',
            "local" => 'L',
            "lets" => 'R',
            "integrate" => 'I',
            "balance" => 'b',
            "orchestrate" => 'o',
            "wait" => 'w',
            "let-comm" => 'm',
            "recovery" => 'r',
            _ => '?',
        }
    };
    let mut out = String::new();
    for (r, tl) in timelines.iter().enumerate() {
        for (lane_name, lane) in [("GPU ", &tl.gpu), ("COMM", &tl.comm), ("CPU ", &tl.cpu)] {
            let mut row = vec!['.'; width];
            for (label, s, e) in lane {
                let c0 = ((s / makespan) * width as f64) as usize;
                let c1 = (((e / makespan) * width as f64).ceil() as usize).min(width);
                for cell in row.iter_mut().take(c1).skip(c0.min(width)) {
                    *cell = glyph(label);
                }
            }
            out.push_str(&format!("rank {r:>2} {lane_name} "));
            out.extend(row);
            out.push('\n');
        }
    }
    out.push_str(
        "S sort  D domain  B build  P props  L local gravity  R LET gravity  I integrate  \
         b balance  o orchestrate  w wait  m LET comm\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::{Cluster, ClusterConfig};
    use bonsai_ic::plummer_sphere;

    fn sample_cluster() -> Cluster {
        Cluster::new(plummer_sphere(6000, 9), 4, ClusterConfig::default())
    }

    #[test]
    fn timelines_cover_every_rank_and_phase() {
        let c = sample_cluster();
        let tls = step_timelines(c.trace());
        assert_eq!(tls.len(), 4);
        for tl in &tls {
            assert_eq!(tl.gpu.len(), 7);
            // phases are contiguous and ordered
            for w in tl.gpu.windows(2) {
                assert!((w[0].2 - w[1].1).abs() < 1e-12, "gap between phases");
            }
            // CPU bookkeeping tail follows the device phases.
            assert!(tl.cpu.iter().any(|(l, _, _)| l == "balance"));
            assert!(tl.cpu.iter().any(|(l, _, _)| l == "orchestrate"));
            assert!(tl.makespan() > 0.0);
        }
    }

    #[test]
    fn timelines_bucket_interleaved_ranks_in_record_order() {
        // Ranks recorded out of order and interleaved, ties on start time:
        // ranks come out ascending, ties keep their record order, and
        // earlier steps are ignored.
        let mut t = TraceStore::new();
        t.span(0, 1, Lane::Gpu, "old", 0.0, 9.0);
        for (rank, lane, name, start) in [
            (2, Lane::Gpu, "local", 2.0),
            (0, Lane::Comm, "a", 3.0),
            (2, Lane::Gpu, "build", 1.0),
            (0, Lane::Comm, "b", 3.0),
            (1, Lane::Cpu, "balance", 2.5),
            (2, Lane::Gpu, "sort", 1.0),
        ] {
            t.span(rank, 2, lane, name, start, start + 0.5);
        }
        let tls = step_timelines(&t);
        assert_eq!(tls.len(), 3);
        let labels = |v: &[(String, f64, f64)]| -> Vec<String> {
            v.iter().map(|(l, _, _)| l.clone()).collect()
        };
        assert_eq!(labels(&tls[0].comm), ["a", "b"]);
        assert_eq!(labels(&tls[1].cpu), ["balance"]);
        assert_eq!(labels(&tls[2].gpu), ["build", "sort", "local"]);
        assert_eq!(tls[2].gpu[0].1, 0.0, "re-based to the step's first start");
    }

    #[test]
    fn comm_is_mostly_hidden() {
        let c = sample_cluster();
        let tls = step_timelines(c.trace());
        for tl in &tls {
            let f = tl.hidden_comm_fraction();
            assert!(
                f > 0.5,
                "LET comm should be mostly hidden behind gravity, got {f}"
            );
        }
        let mean = tls.iter().map(RankTimeline::hidden_comm_fraction).sum::<f64>() / tls.len() as f64;
        assert_eq!(mean_hidden_comm_fraction(c.trace()), mean);
        assert_eq!(mean_hidden_comm_fraction(&TraceStore::new()), 1.0, "no step recorded");
    }

    #[test]
    fn hidden_fraction_counts_gaps_between_gpu_intervals() {
        // Regression: comm straddling a gap between GPU busy intervals must
        // count the gap as exposed. The old computation measured exposure
        // only past the *end* of GPU work and reported 1.0 here.
        let tl = RankTimeline {
            gpu: vec![
                ("local".to_string(), 0.0, 1.0),
                ("lets".to_string(), 2.0, 3.0),
            ],
            comm: vec![("let-comm".to_string(), 0.5, 2.5)],
            cpu: Vec::new(),
        };
        let f = tl.hidden_comm_fraction();
        // 2.0 s of comm, hidden only under [0.5,1.0] and [2.0,2.5] = 1.0 s.
        assert!((f - 0.5).abs() < 1e-12, "union-based hidden fraction, got {f}");
    }

    #[test]
    fn timelines_use_configured_machine_rates() {
        // Regression: the domain phase must be charged at the configured
        // machine's host-CPU rate, not a hard-coded constant. Titan's
        // slower Opteron (cpu_let_rate 0.55) stretches it by 1/0.55.
        let ic = plummer_sphere(3000, 11);
        let daint = Cluster::new(ic.clone(), 2, ClusterConfig::default());
        let cfg = ClusterConfig { machine: bonsai_net::TITAN, ..ClusterConfig::default() };
        let titan = Cluster::new(ic, 2, cfg);
        let dur = |c: &Cluster, name: &str| {
            step_timelines(c.trace())[0]
                .gpu
                .iter()
                .find(|(l, _, _)| l == name)
                .map(|(_, s, e)| e - s)
                .expect("phase present")
        };
        let ratio = dur(&titan, "domain") / dur(&daint, "domain");
        assert!(
            (ratio - 1.0 / bonsai_net::TITAN.cpu_let_rate).abs() < 1e-9,
            "domain phase ratio {ratio}"
        );
        // The GPU-side phases are machine-independent (same K20X model).
        assert!((dur(&titan, "sort") - dur(&daint, "sort")).abs() < 1e-12);
    }

    #[test]
    fn gantt_renders_all_rows() {
        let c = sample_cluster();
        let art = render_gantt(&step_timelines(c.trace()), 60);
        let lines: Vec<&str> = art.lines().collect();
        assert_eq!(lines.len(), 4 * 3 + 1); // three lanes per rank + legend
        assert!(art.contains('L') && art.contains('R'));
        // every timeline row is the same width
        for l in &lines[..12] {
            assert_eq!(l.chars().count(), "rank  0 GPU  ".chars().count() + 60);
        }
    }
}

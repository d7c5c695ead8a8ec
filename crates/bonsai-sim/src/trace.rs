//! The ASCII Gantt chart of the overlap story.
//!
//! §III-B2's central engineering claim is *concurrency*: while the GPU
//! grinds the local tree, the CPU threads build LETs and the network moves
//! them, so only a small residue of communication is ever exposed.
//! [`render_gantt`] draws that schedule straight from the last recorded
//! step's spans, making the claim visible:
//!
//! ```text
//! rank 0 GPU  SSDDBBPLLLLLLLLLLRRRRRRRR......
//! rank 0 COMM ......mmmmmm...................
//! ```
//!
//! (`S` sort, `D` domain update, `B` build, `P` properties, `L` local
//! gravity, `R` remote/LET gravity, `m` LET communication, `.` idle.) How
//! much of each rank's COMM time the GPU work hides is
//! [`bonsai_net::obs::hidden_comm_fractions`], read from the same spans.

use bonsai_obs::{Lane, TraceStore};

/// Render the last recorded step of `store` as an ASCII Gantt chart,
/// `width` characters across: a GPU, a COMM and a CPU row for every rank
/// with a span in the step, ranks ascending, time measured from the step's
/// earliest span start. A row draws its spans in start order (ties in
/// record order), each over the ones before it. The spans were recorded
/// with the cluster's *configured* device and machine-rate models, so a
/// Titan cluster's chart shows Titan's slower host phases.
pub fn render_gantt(store: &TraceStore, width: usize) -> String {
    let spans = store.last_step().map_or(&[][..], |step| store.step_records(step).spans);
    let origin = spans.iter().map(|s| s.start).fold(f64::INFINITY, f64::min);
    let makespan = spans.iter().map(|s| s.end - origin).fold(0.0, f64::max).max(1e-12);
    let mut ranks: Vec<u32> = spans.iter().map(|s| s.rank).collect();
    ranks.sort_unstable();
    ranks.dedup();
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
    for rank in ranks {
        for (lane_name, lane) in [("GPU ", Lane::Gpu), ("COMM", Lane::Comm), ("CPU ", Lane::Cpu)] {
            let mut drawn: Vec<(f64, f64, &str)> = (spans.iter())
                .filter(|s| s.rank == rank && s.lane == lane)
                .map(|s| (s.start - origin, s.end - origin, s.name.as_str()))
                .collect();
            drawn.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
            let mut row = vec!['.'; width];
            for (s, e, label) in drawn {
                let c0 = ((s / makespan) * width as f64) as usize;
                let c1 = (((e / makespan) * width as f64).ceil() as usize).min(width);
                for cell in row.iter_mut().take(c1).skip(c0.min(width)) {
                    *cell = glyph(label);
                }
            }
            out.push_str(&format!("rank {rank:>2} {lane_name} "));
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
    use bonsai_net::obs::{hidden_comm_fractions, mean_hidden_comm_fraction};
    use bonsai_obs::Span;

    fn sample_cluster() -> Cluster {
        Cluster::new(plummer_sphere(6000, 9), 4, ClusterConfig::default())
    }

    /// The last recorded step's spans of `c`.
    fn last_spans(c: &Cluster) -> &[Span] {
        let t = c.trace();
        t.step_records(t.last_step().expect("a step recorded")).spans
    }

    #[test]
    fn timelines_cover_every_rank_and_phase() {
        let c = sample_cluster();
        let spans = last_spans(&c);
        for rank in 0..4 {
            let on = |lane| spans.iter().filter(move |s| s.rank == rank && s.lane == lane);
            let gpu: Vec<&Span> = on(Lane::Gpu).collect();
            assert_eq!(gpu.len(), 7);
            // phases are contiguous and ordered
            for w in gpu.windows(2) {
                assert!((w[0].end - w[1].start).abs() < 1e-12, "gap between phases");
            }
            // CPU bookkeeping tail follows the device phases.
            assert!(on(Lane::Cpu).any(|s| s.name == "balance"));
            assert!(on(Lane::Cpu).any(|s| s.name == "orchestrate"));
        }
        assert!(c.trace().makespan() > 0.0);
    }

    #[test]
    fn timelines_bucket_interleaved_ranks_in_record_order() {
        // Ranks recorded out of order and interleaved, ties on start time:
        // rows come out by ascending rank, a tie draws the later record over
        // the earlier, earlier steps are ignored, and time is measured from
        // the step's first start (1.0 s; the step ends at 5.0 s, so a cell
        // is 0.5 s).
        let mut t = TraceStore::new();
        t.span(0, 1, Lane::Gpu, "old", 0.0, 9.0);
        for (rank, lane, name, start) in [
            (2, Lane::Gpu, "local", 2.0),
            (0, Lane::Comm, "let-comm", 3.0),
            (2, Lane::Gpu, "build", 1.0),
            (0, Lane::Comm, "recovery", 3.0),
            (1, Lane::Cpu, "balance", 2.5),
            (2, Lane::Gpu, "sort", 1.0),
            (0, Lane::Cpu, "wait", 4.5),
        ] {
            t.span(rank, 2, lane, name, start, start + 0.5);
        }
        let art = render_gantt(&t, 8);
        let rows: Vec<&str> = art.lines().take(9).collect();
        assert_eq!(
            rows,
            [
                "rank  0 GPU  ........",
                "rank  0 COMM ....r...",
                "rank  0 CPU  .......w",
                "rank  1 GPU  ........",
                "rank  1 COMM ........",
                "rank  1 CPU  ...b....",
                "rank  2 GPU  S.L.....",
                "rank  2 COMM ........",
                "rank  2 CPU  ........",
            ]
        );
    }

    #[test]
    fn comm_is_mostly_hidden() {
        let c = sample_cluster();
        let step = c.trace().last_step().unwrap();
        let fractions = hidden_comm_fractions(c.trace(), step);
        assert_eq!(fractions.iter().map(|&(r, _)| r).collect::<Vec<_>>(), [0, 1, 2, 3]);
        for &(r, f) in &fractions {
            assert!(f > 0.5, "rank {r}: LET comm should be mostly hidden behind gravity, got {f}");
        }
        let mean = fractions.iter().map(|&(_, f)| f).sum::<f64>() / fractions.len() as f64;
        assert_eq!(mean_hidden_comm_fraction(c.trace(), step), mean);
        assert_eq!(mean_hidden_comm_fraction(&TraceStore::new(), 0), 1.0, "no step recorded");
    }

    #[test]
    fn hidden_fraction_counts_gaps_between_gpu_intervals() {
        // Regression: comm straddling a gap between GPU busy intervals must
        // count the gap as exposed. The old computation measured exposure
        // only past the *end* of GPU work and reported 1.0 here.
        let mut t = TraceStore::new();
        t.span(0, 1, Lane::Gpu, "local", 0.0, 1.0);
        t.span(0, 1, Lane::Comm, "let-comm", 0.5, 2.5);
        t.span(0, 1, Lane::Gpu, "lets", 2.0, 3.0);
        let f = hidden_comm_fractions(&t, 1)[0].1;
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
            let mut on_rank_0 = last_spans(c).iter().filter(|s| s.rank == 0 && s.lane == Lane::Gpu);
            on_rank_0.find(|s| s.name == name).map(|s| s.end - s.start).expect("phase present")
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
        let art = render_gantt(c.trace(), 60);
        let lines: Vec<&str> = art.lines().collect();
        assert_eq!(lines.len(), 4 * 3 + 1); // three lanes per rank + legend
        assert!(art.contains('L') && art.contains('R'));
        // every timeline row is the same width
        for l in &lines[..12] {
            assert_eq!(l.chars().count(), "rank  0 GPU  ".chars().count() + 60);
        }
    }
}

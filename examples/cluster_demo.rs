//! Distributed-memory demo: the paper's parallel machinery on logical ranks.
//!
//! ```sh
//! cargo run --release --example cluster_demo -- 8 12000
//! ```
//!
//! (arguments: rank count, total particles; defaults 6 × 9000.)
//!
//! Runs the full Bonsai step — Peano–Hilbert sample-sort decomposition,
//! particle exchange, boundary-tree allgather, sufficiency checks, LET
//! construction, per-rank force walks — on the lock-step cluster, every
//! payload a real serialized message over the crossbeam fabric, and prints
//! the Table II breakdown and the per-rank overlap schedule.

use bonsai::ic::plummer_sphere;
use bonsai::sim::{Cluster, ClusterConfig};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let ranks: usize = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(6);
    let n: usize = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(9_000);

    println!("=== lock-step cluster: {ranks} ranks, {n} particles ===\n");
    let ic = plummer_sphere(n, 99);
    let mut cluster = Cluster::new(ic, ranks, ClusterConfig::default());
    let breakdown = cluster.step();
    print!("{}", breakdown.format_column("simulated Piz Daint timings"));

    let m = &cluster.last_measurements;
    println!("\nmeasured communication (real serialized bytes):");
    println!(
        "  boundary trees: {} B total ({} B/rank avg)",
        m.boundary_bytes.iter().sum::<usize>(),
        m.boundary_bytes.iter().sum::<usize>() / ranks
    );
    println!(
        "  dedicated LETs: {} B over {} pairs (of {} possible)",
        m.let_bytes_sent.iter().sum::<usize>(),
        m.let_neighbors.iter().sum::<usize>(),
        ranks * (ranks - 1)
    );
    println!("  particle exchange: {} B", m.exchange_bytes.iter().sum::<usize>());
    println!("  load imbalance (max/mean): {:.3} (paper cap: 1.3)", m.imbalance);

    println!("\nper-rank schedule (the §III-B2 overlap, reconstructed):");
    print!("{}", bonsai::sim::trace::render_gantt(cluster.trace(), 72));
    let step = cluster.trace().last_step().expect("a step recorded");
    let hidden = bonsai::net::obs::hidden_comm_fractions(cluster.trace(), step)
        .into_iter()
        .map(|(_, f)| f)
        .fold(f64::INFINITY, f64::min);
    println!("worst-case hidden-communication fraction: {:.0}%", hidden * 100.0);
}

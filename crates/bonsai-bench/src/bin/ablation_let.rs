//! Ablation: LET method vs particle export; boundary reuse.
//!
//! §III-B: "The LET method requires the least amount of communication."
//! Alternatives ship raw particles to remote ranks (compute-and-return) or
//! request subtrees on demand. This study measures, on a real decomposed
//! cluster, the bytes a rank would send under each strategy, and how many
//! pairs get away with reusing the broadcast boundary tree (zero extra
//! bytes) — the paper's headline communication saving.

use bonsai_bench::{arg_usize, milky_way_snapshot};
use bonsai_domain::exchange::PARTICLE_WIRE_SIZE;
use bonsai_sim::{Cluster, ClusterConfig};

fn main() {
    let n = arg_usize("--n", 24_000);
    println!("Ablation: LET vs particle export ({n}-particle Milky Way model)\n");
    println!("(the MW model spans ~200 kpc of halo, so domains are genuinely far apart,");
    println!(" as on the production machine)\n");
    println!(
        "{:>6} {:>16} {:>16} {:>16} {:>12}",
        "ranks", "export bytes", "LET bytes", "boundary bytes", "LET pairs"
    );
    for p in [4usize, 8, 16, 24] {
        let ic = milky_way_snapshot(n, 13);
        let cfg = ClusterConfig {
            eps: 0.05,
            g: bonsai_util::units::G,
            ..ClusterConfig::default()
        };
        let c = Cluster::new(ic, p, cfg);
        let m = &c.last_measurements;
        // Particle-export strategy: every rank ships its *whole* particle
        // set to every rank that interacts with it (here: all others —
        // gravity is all-to-all).
        let export: usize = (0..p).map(|_| (n / p) * PARTICLE_WIRE_SIZE * (p - 1)).sum();
        let lets: usize = m.let_bytes_sent.iter().sum();
        let boundaries: usize = m.boundary_bytes.iter().sum::<usize>() * (p - 1); // allgather cost
        let pairs: usize = m.let_neighbors.iter().sum();
        println!(
            "{:>6} {:>16} {:>16} {:>16} {:>9}/{:<3}",
            p,
            export,
            lets,
            boundaries,
            pairs,
            p * (p - 1)
        );
    }
    println!("\nEven at laptop scale the LET undercuts naive export and boundary-only");
    println!("pairs appear as ranks separate. The asymmetry explodes with scale: export");
    println!("ships volume, Θ(N/p) per pair to all p−1 ranks, while a LET ships surface,");
    println!("Θ((N/p)^⅔), to ~40 neighbours plus one broadcast boundary.");
    println!("\nProduction scale (13M particles/rank, p = 18600):");
    let export_prod = 13.0e6 * PARTICLE_WIRE_SIZE as f64 * 18599.0;
    let let_prod = 40.0 * 2.0e6 + 18600.0 * 12_320.0; // dedicated LETs + boundary allgather
    println!("  naive export : {:.1} TB per rank per step", export_prod / 1e12);
    println!("  LET method   : {:.1} GB per rank per step  ({:.0}x less)",
        let_prod / 1e9, export_prod / let_prod);
    println!("  (§III-B2: only ~40 of 18600 ranks need dedicated LETs)");
}

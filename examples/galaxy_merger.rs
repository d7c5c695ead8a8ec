//! A 1:4 minor merger of two star clusters — the workload family of the
//! earlier Bonsai science runs the paper cites (§II: minor-merger growth of
//! compact galaxies), and a stress test for the dynamic load balancer: two
//! dense clumps falling through each other force particles to migrate
//! between domains every few steps.
//!
//! ```sh
//! cargo run --release --example galaxy_merger -- 4000 150
//! ```
//!
//! (arguments: particles per progenitor, steps per epoch; defaults
//! 4000 × 150).

use bonsai::analysis::energy::density_center;
use bonsai::core::{Simulation, SimulationConfig};
use bonsai::ic::{make_merger, plummer_sphere, MergerOrbit};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let n: usize = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(4_000);
    let steps: usize = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(150);

    let primary = plummer_sphere(n, 1);
    let secondary = plummer_sphere(n, 2);
    let orbit = MergerOrbit {
        separation: 6.0,
        impact_parameter: 1.0,
        approach_speed: 0.55, // slightly sub-parabolic: bound pair
        mass_ratio: 0.25,
    };
    let ic = make_merger(&primary, &secondary, orbit, 1_000_000);
    println!(
        "1:4 merger: {} + {} particles, separation {}, impact parameter {}\n",
        primary.len(),
        secondary.len(),
        orbit.separation,
        orbit.impact_parameter
    );

    let mut sim = Simulation::new(ic, SimulationConfig::nbody_units(0.4, 0.03, 0.01));
    let e0 = sim.energy_report();

    for epoch in 1..=8 {
        sim.run(steps);
        let p = sim.particles();
        // centres of the two progenitors
        let mut prim = bonsai::tree::Particles::new();
        let mut sec = bonsai::tree::Particles::new();
        for i in 0..p.len() {
            if p.id[i] < 1_000_000 {
                prim.push(p.pos[i], p.vel[i], p.mass[i], p.id[i]);
            } else {
                sec.push(p.pos[i], p.vel[i], p.mass[i], p.id[i]);
            }
        }
        let c1 = density_center(&prim, 6);
        let c2 = density_center(&sec, 6);
        let e = sim.energy_report();
        println!(
            "t = {:>5.2}  nuclear separation = {:>6.3}  E drift = {:.2e}",
            sim.time(),
            c1.distance(c2),
            e.drift_from(&e0)
        );
        let _ = epoch;
    }
    println!("\nthe nuclei sink and merge through dynamical friction; energy stays");
    println!("conserved through the violent phase — the regime the tree-code's");
    println!("per-step rebuild and re-decomposition are designed for.");
}

//! `bonsai` — the command-line driver, mirroring the original Bonsai's role
//! as a standalone simulation tool.
//!
//! ```text
//! bonsai run plummer --n 10000 --steps 100 --theta 0.4
//! bonsai run milkyway --n 40000 --steps 200 --snapshot out/mw.bin
//! bonsai run cluster --n 20000 --ranks 8 --steps 10
//! bonsai resume out/mw.bin --steps 50
//! bonsai info
//! ```

use bonsai::analysis::bar::BarAnalysis;
use bonsai::core::{snapshot, Simulation, SimulationConfig};
use bonsai::ic::{plummer_sphere, MilkyWayModel};
use bonsai::sim::{Cluster, ClusterConfig};
use bonsai::util::units;
use std::process::ExitCode;

/// Minimal flag parser: `--key value` pairs after the positional arguments.
struct Args {
    positional: Vec<String>,
    flags: Vec<(String, String)>,
}

impl Args {
    fn parse() -> Self {
        Self::from_args(std::env::args().skip(1))
    }

    fn from_args(args: impl IntoIterator<Item = String>) -> Self {
        let mut positional = Vec::new();
        let mut flags = Vec::new();
        let mut it = args.into_iter();
        while let Some(a) = it.next() {
            if let Some(key) = a.strip_prefix("--") {
                let value = it.next().unwrap_or_default();
                flags.push((key.to_string(), value));
            } else {
                positional.push(a);
            }
        }
        Self { positional, flags }
    }

    /// The value of `--key`, or `default` when the flag is absent; a present
    /// flag whose value is missing or does not parse is an error naming both.
    fn value<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.get_str(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("--{key}: cannot parse {v}")),
        }
    }

    /// [`Args::value`], exiting with status 2 on a malformed value.
    fn get<T: std::str::FromStr>(&self, key: &str, default: T) -> T {
        self.value(key, default).unwrap_or_else(|e| {
            eprintln!("{e}");
            std::process::exit(2)
        })
    }

    fn get_str(&self, key: &str) -> Option<&str> {
        self.flags
            .iter()
            .rev()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

fn usage() -> ExitCode {
    eprintln!(
        "bonsai — gravitational tree-code (SC'14 Bonsai reproduction)

USAGE:
  bonsai run plummer   [--n N] [--steps S] [--theta T] [--eps E] [--dt DT] [--snapshot FILE]
  bonsai run milkyway  [--n N] [--steps S] [--snapshot FILE]
  bonsai run cluster   [--n N] [--ranks P] [--steps S]
  bonsai resume FILE   [--steps S] [--theta T] [--eps E] [--dt DT] [--snapshot FILE]
  bonsai info

`resume` carries on from the snapshot's time in N-body units (G = 1): a
snapshot records the particles and the time, not the units, theta, eps or dt.

Paper rows:     `cargo run --release -p bonsai-bench --bin paper [ROW..]`
Artifact gates: `cargo run --release -p bonsai-bench --bin gates [KIND..]`"
    );
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let args = Args::parse();
    match args.positional.first().map(String::as_str) {
        Some("run") => match args.positional.get(1).map(String::as_str) {
            Some("plummer") => run_plummer(&args),
            Some("milkyway") => run_milkyway(&args),
            Some("cluster") => run_cluster(&args),
            _ => usage(),
        },
        Some("resume") => resume(&args),
        Some("info") => info(),
        _ => usage(),
    }
}

fn progress(sim: &Simulation, label: &str) {
    let e = sim.energy_report();
    println!(
        "  {label} t = {:>8.4}  E = {:+.6e}  T/|W| = {:.3}  ({} steps)",
        sim.time(),
        e.total(),
        e.virial_ratio(),
        sim.step_count()
    );
}

fn run_loop(mut sim: Simulation, steps: usize, snapshot_path: Option<&str>) -> ExitCode {
    let e0 = sim.energy_report();
    progress(&sim, "start ");
    let report_every = (steps / 5).max(1);
    for s in 1..=steps {
        sim.step();
        if s % report_every == 0 {
            progress(&sim, "      ");
        }
    }
    let e1 = sim.energy_report();
    println!("energy drift: {:.3e}", e1.drift_from(&e0));
    if let Some(path) = snapshot_path {
        if let Err(e) = snapshot::write_snapshot(path, sim.particles(), sim.time()) {
            eprintln!("snapshot write failed: {e}");
            return ExitCode::FAILURE;
        }
        println!("snapshot written to {path}");
    }
    ExitCode::SUCCESS
}

fn run_plummer(args: &Args) -> ExitCode {
    let n = args.get("n", 10_000usize);
    let steps = args.get("steps", 100usize);
    let cfg = SimulationConfig::nbody_units(
        args.get("theta", 0.4),
        args.get("eps", 0.02),
        args.get("dt", 0.01),
    );
    println!("Plummer sphere: {n} bodies, theta = {}, eps = {}, dt = {}", cfg.theta, cfg.eps, cfg.dt);
    let sim = Simulation::new(plummer_sphere(n, args.get("seed", 42u64)), cfg);
    run_loop(sim, steps, args.get_str("snapshot"))
}

fn run_milkyway(args: &Args) -> ExitCode {
    let n = args.get("n", 40_000usize);
    let steps = args.get("steps", 200usize);
    let mw = MilkyWayModel::paper();
    let (nb, nd, nh) = mw.component_counts(n);
    let eps = 0.1 * (2.0e5_f64 / n as f64).powf(1.0 / 3.0);
    let dt = units::myr_to_internal(args.get("dt-myr", 3.0));
    println!("Milky Way (§IV model): {nb} bulge + {nd} disk + {nh} halo, eps = {eps:.3} kpc");
    let mut sim = Simulation::new(
        mw.generate(n, args.get("seed", 42u64)),
        SimulationConfig::galactic(eps, dt),
    );
    let stellar = (0u64, (nb + nd) as u64);
    let e0 = sim.energy_report();
    for s in 1..=steps {
        sim.step();
        if s % (steps / 5).max(1) == 0 {
            let bar = BarAnalysis::measure(sim.particles(), 4.0, Some(stellar));
            println!(
                "  t = {:>5.2} Gyr  A2 = {:.3}  E drift = {:.2e}",
                units::internal_to_gyr(sim.time()),
                bar.a2,
                sim.energy_report().drift_from(&e0)
            );
        }
    }
    if let Some(path) = args.get_str("snapshot") {
        if let Err(e) = snapshot::write_snapshot(path, sim.particles(), sim.time()) {
            eprintln!("snapshot write failed: {e}");
            return ExitCode::FAILURE;
        }
        println!("snapshot written to {path}");
    }
    ExitCode::SUCCESS
}

fn run_cluster(args: &Args) -> ExitCode {
    let n = args.get("n", 20_000usize);
    let ranks = args.get("ranks", 8usize);
    let steps = args.get("steps", 10usize);
    println!("distributed run: {n} particles on {ranks} logical ranks");
    let mut cluster = Cluster::new(plummer_sphere(n, 7), ranks, ClusterConfig::default());
    let mut last = None;
    for _ in 0..steps {
        last = Some(cluster.step());
    }
    if let Some(b) = last {
        print!("{}", b.format_column("last step, simulated Piz Daint timings"));
        let m = &cluster.last_measurements;
        println!(
            "boundaries {} B, dedicated LETs {} B over {} pairs, imbalance {:.3}",
            m.boundary_bytes.iter().sum::<usize>(),
            m.let_bytes_sent.iter().sum::<usize>(),
            m.let_neighbors.iter().sum::<usize>(),
            m.imbalance
        );
    }
    ExitCode::SUCCESS
}

fn resume(args: &Args) -> ExitCode {
    let Some(path) = args.positional.get(1) else {
        return usage();
    };
    let (particles, time) = match snapshot::read_snapshot(path) {
        Ok(x) => x,
        Err(e) => {
            eprintln!("cannot read snapshot {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("resumed {} particles at t = {time} from {path}", particles.len());
    let cfg = SimulationConfig::nbody_units(
        args.get("theta", 0.4),
        args.get("eps", 0.02),
        args.get("dt", 0.01),
    );
    let sim = Simulation::resume(particles, cfg, time);
    run_loop(sim, args.get("steps", 100usize), args.get_str("snapshot"))
}

fn info() -> ExitCode {
    println!("bonsai-rs: Rust reproduction of Bédorf et al., SC'14");
    println!("paper: 24.77 Pflops on a Gravitational Tree-Code to Simulate the");
    println!("       Milky Way Galaxy with 18600 GPUs\n");
    let k20x = bonsai::gpu::K20X;
    println!("modelled GPU: {} ({:.2} Tflops SP, {} GB)", k20x.name, k20x.peak_sp_gflops() / 1e3, k20x.mem_gb);
    for machine in [bonsai::net::PIZ_DAINT, bonsai::net::TITAN] {
        println!(
            "machine: {} — {} nodes, {} + {:?}",
            machine.name, machine.total_nodes, machine.cpu, machine.topology
        );
    }
    let b = bonsai::sim::ScalingModel::titan().predict(18600, 13_000_000);
    println!(
        "\nrecord configuration model: {:.2} s/step, {:.2} Pflops application",
        b.total(),
        b.total_flops() / b.total() / 1e15
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::Args;

    fn args(line: &str) -> Args {
        Args::from_args(line.split_whitespace().map(String::from))
    }

    #[test]
    fn a_malformed_flag_value_is_an_error_not_the_default() {
        assert_eq!(args("run plummer --steps 3").value("n", 10_000usize), Ok(10_000));
        assert_eq!(args("run plummer --n 500").value("n", 10_000usize), Ok(500));
        assert_eq!(
            args("run plummer --n 6o000").value("n", 10_000usize),
            Err("--n: cannot parse 6o000".to_string())
        );
        assert_eq!(
            args("run plummer --steps").value("steps", 100usize),
            Err("--steps: cannot parse ".to_string())
        );
        assert_eq!(args("run plummer --theta 0.5").value("theta", 0.4), Ok(0.5));
    }
}

//! §VI-C in miniature: the 51-billion-particle production run, scaled down
//! and executed end to end on the distributed simulator.
//!
//! The paper's production configuration — the Milky Way model decomposed
//! over GPU ranks, evolved with per-step re-decomposition, boundary/LET
//! exchange, snapshots "for the dual purpose of restarting and detailed
//! analysis", and on-the-fly analysis — all running for real, with the
//! Table II style breakdown averaged over the run and a restart check at
//! the end.

use bonsai_analysis::bar::BarAnalysis;
use bonsai_bench::{arg_usize, milky_way_config, out_dir};
use bonsai_ic::MilkyWayModel;
use bonsai_obs::health::Severity;
use bonsai_sim::checkpoint::{restore_cluster, write_checkpoint};
use bonsai_sim::{Cluster, LongRunConfig};
use bonsai_util::units;

fn main() {
    let n = arg_usize("--n", 24_000);
    let ranks = arg_usize("--ranks", 8);
    let steps = arg_usize("--steps", 40);
    println!("production run in miniature: {n} particles over {ranks} ranks, {steps} steps");

    let mw = MilkyWayModel::paper();
    let (nb, nd, _) = mw.component_counts(n);
    // Paper trick: every rank could generate its own slice on the fly; here
    // the IC is generated once (slice-determinism is covered by tests).
    let ic = mw.generate(n, 2014);

    let cfg = milky_way_config(n);
    let mut cluster = Cluster::new(ic, ranks, cfg.clone());
    // The rule engine replaces the old ad-hoc energy-drift print: the same
    // default rules the long-run bench evaluates, live inside every step.
    cluster.enable_longrun(LongRunConfig::default());

    let mut avg = bonsai_sim::StepBreakdown::default();
    let stellar = (0u64, (nb + nd) as u64);
    for s in 1..=steps {
        let b = cluster.step();
        // accumulate the averaged breakdown
        avg.sort += b.sort;
        avg.domain_update += b.domain_update;
        avg.tree_construction += b.tree_construction;
        avg.tree_properties += b.tree_properties;
        avg.gravity_local += b.gravity_local;
        avg.gravity_lets += b.gravity_lets;
        avg.non_hidden_comm += b.non_hidden_comm;
        avg.integration += b.integration;
        avg.load_balance += b.load_balance;
        avg.orchestration += b.orchestration;
        avg.unbalance += b.unbalance;
        avg.pp_per_particle += b.pp_per_particle;
        avg.pc_per_particle += b.pc_per_particle;
        avg.gpus = b.gpus;
        avg.particles_per_gpu = b.particles_per_gpu;
        if s % 10 == 0 {
            // on-the-fly analysis, as the production run did
            let snap = cluster.gather();
            let bar = BarAnalysis::measure(&snap, 4.0, Some(stellar));
            println!(
                "  step {s:>4}  t = {:.3} Gyr  A2 = {:.3}  imbalance = {:.3}  migrated = {} B",
                units::internal_to_gyr(cluster.time()),
                bar.a2,
                cluster.last_measurements.imbalance,
                cluster.last_measurements.exchange_bytes.iter().sum::<usize>()
            );
        }
    }
    let inv = 1.0 / steps as f64;
    avg.sort *= inv;
    avg.domain_update *= inv;
    avg.tree_construction *= inv;
    avg.tree_properties *= inv;
    avg.gravity_local *= inv;
    avg.gravity_lets *= inv;
    avg.non_hidden_comm *= inv;
    avg.integration *= inv;
    avg.load_balance *= inv;
    avg.orchestration *= inv;
    avg.unbalance *= inv;
    avg.pp_per_particle *= inv;
    avg.pc_per_particle *= inv;
    let e1 = cluster.energy_report();
    let lr = cluster.take_longrun().expect("long-run monitor was enabled");
    let drift = lr
        .series()
        .series("bonsai_energy_drift")
        .and_then(|s| s.last())
        .unwrap_or(0.0);
    println!(
        "\nhealth monitor: {} rules over {steps} steps — drift {:.2e} (T/|W| = {:.3})",
        lr.health().rules().len(),
        drift,
        e1.virial_ratio()
    );
    print!("{}", lr.health().render_log());
    println!("\naveraged per-step breakdown (simulated {} timings):", cfg.machine.name);
    print!("{}", avg.format_column("production miniature"));

    // Snapshot + restart check, as the production run relies on.
    let dir = out_dir().join("production_ckpt");
    write_checkpoint(&cluster, &dir).expect("checkpoint");
    let restored = restore_cluster(&dir, ranks, cfg).expect("restore");
    assert_eq!(restored.total_particles(), n);
    println!("\ncheckpoint written to {} and verified restorable", dir.display());
    println!("paper context: 51G particles, 4096 Piz Daint GPUs, 4.6 s/step at T = 3.8 Gyr");

    if lr.health().opened_count(Severity::Critical) > 0 {
        eprintln!("FAIL: a critical health alert opened during the run");
        std::process::exit(1);
    }
}

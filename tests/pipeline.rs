//! End-to-end integration: initial conditions → simulation → analysis,
//! exercising the whole public API across crates.

use bonsai::analysis::bar::BarAnalysis;
use bonsai::analysis::{SurfaceDensityMap, VelocityStructure};
use bonsai::core::{Simulation, SimulationConfig};
use bonsai::ic::{plummer_sphere, MilkyWayModel};
use bonsai::util::units;
use bonsai::util::Vec3;

#[test]
fn plummer_cluster_stays_in_equilibrium() {
    let ic = plummer_sphere(3000, 1);
    let mut sim = Simulation::new(ic, SimulationConfig::nbody_units(0.4, 0.02, 0.01));
    let e0 = sim.energy_report();
    assert!((e0.total() + 0.25).abs() < 0.03, "Plummer energy {}", e0.total());
    sim.run(50);
    let e1 = sim.energy_report();
    assert!(e1.drift_from(&e0) < 2e-3);
    assert!((e1.virial_ratio() - 0.5).abs() < 0.06);
}

#[test]
fn milky_way_end_to_end() {
    let mw = MilkyWayModel::paper();
    let n = 8000;
    let (nb, nd, _) = mw.component_counts(n);
    let ic = mw.generate(n, 2);
    let eps = 0.1 * (2.0e5_f64 / n as f64).powf(1.0 / 3.0);
    let dt = units::myr_to_internal(3.0);
    let mut sim = Simulation::new(ic, SimulationConfig::galactic(eps, dt));
    let e0 = sim.energy_report();
    // The composite model must be bound and roughly virialized.
    assert!(e0.total() < 0.0, "galaxy must be bound");
    let q = e0.virial_ratio();
    assert!((0.3..0.8).contains(&q), "virial ratio {q}");

    sim.run(20);
    let e1 = sim.energy_report();
    assert!(e1.drift_from(&e0) < 0.05, "drift {}", e1.drift_from(&e0));

    // Analysis chain on the evolved state.
    let stellar = (0u64, (nb + nd) as u64);
    let map = SurfaceDensityMap::compute(sim.particles(), 15.0, 64, Some(stellar));
    assert!(map.total_mass() > 0.0);
    // The disk stays a disk over 60 Myr.
    let bar = BarAnalysis::measure(sim.particles(), 4.0, Some(stellar));
    assert!(bar.count > 0);
    assert!(bar.a2 < 0.5, "no instant bar after 20 steps: A2 = {}", bar.a2);

    // There are rotating stars near the solar radius.
    let vs = VelocityStructure::measure(
        sim.particles(),
        Vec3::new(8.0, 0.0, 0.0),
        2.0,
        150.0,
        20,
        Some(stellar),
    );
    if vs.count > 20 {
        assert!(vs.v_rot > 100.0, "solar-radius rotation {}", vs.v_rot);
    }
}

#[test]
fn galactic_units_are_consistent_through_the_stack() {
    // A circular orbit at 8 kpc in the composite potential should take
    // 2π·8/v_c internal units — integrate a tracer and verify.
    let mw = MilkyWayModel::paper();
    let vc = mw.circular_velocity(8.0);
    // Tracer: tiny mass orbiting the full analytic model approximated by a
    // heavy central particle with M(<8 kpc).
    let mut p = bonsai::tree::Particles::new();
    let m_enc = mw.enclosed_mass_total(8.0);
    p.push(Vec3::zero(), Vec3::zero(), m_enc, 0);
    let v = bonsai::util::units::circular_velocity(m_enc, 8.0);
    p.push(Vec3::new(8.0, 0.0, 0.0), Vec3::new(0.0, v, 0.0), 1.0, 1);
    let period = std::f64::consts::TAU * 8.0 / v;
    let steps = 600;
    let mut sim = Simulation::new(
        p,
        SimulationConfig::galactic(0.0, period / steps as f64),
    );
    sim.run(steps);
    let pos = {
        let ps = sim.particles();
        let idx = ps.id.iter().position(|&i| i == 1).unwrap();
        ps.pos[idx]
    };
    assert!(
        (pos - Vec3::new(8.0, 0.0, 0.0)).norm() < 0.1,
        "tracer after one period at {pos}"
    );
    // And v_c from the model matches the two-body derivation to ~2x
    // (the full model has mass outside 8 kpc that the tracer test ignores).
    assert!((v / vc - 1.0).abs() < 0.2, "v = {v}, model v_c = {vc}");
}

#[test]
fn snapshot_io_through_facade() {
    let dir = std::env::temp_dir().join("bonsai_facade_snap");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("s.bin");
    let ic = plummer_sphere(500, 3);
    bonsai::core::snapshot::write_snapshot(&path, &ic, 0.5).unwrap();
    let (back, t) = bonsai::core::snapshot::read_snapshot(&path).unwrap();
    assert_eq!(t, 0.5);
    assert_eq!(back.len(), 500);
}

#[test]
fn a_resumed_run_carries_on_from_the_snapshot_time() {
    use bonsai::core::snapshot::{read_snapshot, write_snapshot};
    let dir = std::env::temp_dir().join(format!("bonsai_facade_resume_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let dt = 0.01;
    let cfg = SimulationConfig::nbody_units(0.4, 0.02, dt);
    let mut sim = Simulation::new(plummer_sphere(400, 5), cfg);
    sim.run(3);
    let (first, second) = (dir.join("first.bin"), dir.join("second.bin"));
    write_snapshot(&first, sim.particles(), sim.time()).unwrap();

    let (particles, t0) = read_snapshot(&first).unwrap();
    assert_eq!(t0, sim.time());
    let mut resumed = Simulation::resume(particles, cfg, t0);
    assert_eq!(resumed.time(), t0, "the clock starts at the snapshot's time, not at 0");
    resumed.run(2);
    write_snapshot(&second, resumed.particles(), resumed.time()).unwrap();
    let (_, t1) = read_snapshot(&second).unwrap();
    // t0 advanced by dt twice, as the uninterrupted run's clock would read.
    assert_eq!(t1, t0 + dt + dt);
    sim.run(2);
    assert_eq!(t1, sim.time());
    std::fs::remove_dir_all(&dir).unwrap();
}

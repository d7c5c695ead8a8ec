use super::*;
use crate::breakdown::Phase;
use bonsai_tree::build::Tree;
use bonsai_tree::walk::{self, WalkParams};
use bonsai_tree::Forces;
use bonsai_ic::plummer_sphere;
use bonsai_tree::direct::direct_self_forces;

fn small_cluster(n: usize, p: usize, seed: u64) -> Cluster {
    let ic = plummer_sphere(n, seed);
    Cluster::new(ic, p, ClusterConfig::default())
}

#[test]
fn factorization() {
    assert_eq!(factor_ranks(16), (4, 4));
    assert_eq!(factor_ranks(12), (3, 4));
    assert_eq!(factor_ranks(7), (1, 7));
    assert_eq!(factor_ranks(1), (1, 1));
}

#[test]
fn particles_conserved_across_steps() {
    let mut c = small_cluster(4000, 8, 1);
    assert_eq!(c.total_particles(), 4000);
    for _ in 0..3 {
        c.step();
    }
    assert_eq!(c.total_particles(), 4000);
    let mut ids: Vec<u64> = c.gather().id;
    ids.sort_unstable();
    assert_eq!(ids, (0..4000).collect::<Vec<u64>>());
}

#[test]
fn fault_free_runs_have_clean_logs() {
    let mut c = small_cluster(2000, 5, 9);
    for _ in 0..2 {
        c.step();
    }
    assert!(c.fault_log().is_clean());
    assert_eq!(c.last_measurements.retransmit_bytes, 0);
    assert_eq!(c.last_measurements.recovery_actions, 0);
}

#[test]
fn distributed_forces_match_direct_reference() {
    let n = 3000;
    let ic = plummer_sphere(n, 2);
    let cfg = ClusterConfig::default();
    let (reference, _) = direct_self_forces(&ic, cfg.eps, cfg.g);
    let ref_by_id: std::collections::HashMap<u64, Vec3> = ic
        .id
        .iter()
        .zip(&reference.acc)
        .map(|(&i, &a)| (i, a))
        .collect();

    let c = Cluster::new(ic, 7, cfg);
    let acc = c.accelerations_by_id();
    assert_eq!(acc.len(), n);
    let mut rms = 0.0;
    for (id, a) in &acc {
        let r = ref_by_id[id];
        let e = (*a - r).norm() / r.norm().max(1e-12);
        rms += e * e;
    }
    let rms = (rms / n as f64).sqrt();
    assert!(rms < 3e-3, "distributed vs direct rms error {rms}");
}

#[test]
fn distributed_matches_single_process_accuracy() {
    // The distributed result must be as accurate as a single-process
    // tree walk at the same θ (paper: identical algorithm).
    let n = 3000;
    let ic = plummer_sphere(n, 3);
    let cfg = ClusterConfig::default();
    let (reference, _) = direct_self_forces(&ic, cfg.eps, cfg.g);

    // Single-process error:
    let tree = Tree::build(ic.clone(), cfg.tree);
    let (single, _) = walk::self_gravity(
        &tree,
        &WalkParams {
            theta: cfg.theta,
            eps: cfg.eps,
            g: cfg.g,
            use_quadrupole: true,
        },
    );
    let mut ref_sorted = Forces::zeros(n);
    for i in 0..n {
        let idx = tree.particles.id[i] as usize;
        ref_sorted.acc[i] = reference.acc[idx];
        ref_sorted.pot[i] = reference.pot[idx];
    }
    let err_single = single.rms_rel_acc_error(&ref_sorted);

    // Distributed error:
    let c = Cluster::new(ic.clone(), 5, cfg);
    let acc = c.accelerations_by_id();
    let mut err2 = 0.0;
    for i in 0..n {
        let a = acc[&(i as u64)];
        let r = reference.acc[i];
        let e = (a - r).norm() / r.norm().max(1e-12);
        err2 += e * e;
    }
    let err_dist = (err2 / n as f64).sqrt();
    assert!(
        err_dist < 2.0 * err_single + 1e-6,
        "distributed {err_dist} vs single {err_single}"
    );
}

#[test]
fn load_stays_within_cap() {
    let mut c = small_cluster(6000, 6, 4);
    for _ in 0..2 {
        c.step();
    }
    let imb = c.last_measurements.imbalance;
    assert!(imb <= 1.4, "imbalance {imb} exceeds cap era");
}

#[test]
fn distant_ranks_reuse_boundaries() {
    // Two well-separated galaxies: ranks inside the same blob are near
    // neighbours needing dedicated LETs, while cross-blob pairs are far
    // enough to use the broadcast boundary tree as the LET (the paper's
    // "~40 nearest neighbours" situation in miniature).
    let mut a = plummer_sphere(4000, 5);
    let b = plummer_sphere(4000, 55);
    for i in 0..b.len() {
        a.push(b.pos[i] + Vec3::new(60.0, 0.0, 0.0), b.vel[i], b.mass[i], 4000 + b.id[i]);
    }
    let c = Cluster::new(a, 8, ClusterConfig::default());
    let m = &c.last_measurements;
    let total_pairs = 8 * 7;
    let dedicated: usize = m.let_neighbors.iter().sum();
    assert!(
        dedicated < total_pairs,
        "every pair needed a dedicated LET ({dedicated}/{total_pairs})"
    );
    assert!(dedicated > 0, "adjacent ranks must need dedicated LETs");
}

#[test]
fn energy_conserved_by_distributed_leapfrog() {
    let n = 2000;
    let ic = plummer_sphere(n, 6);
    let e0 = bonsai_tree::direct::total_energy(&ic, 0.01, 1.0);
    let mut cfg = ClusterConfig::default();
    cfg.eps = 0.01;
    cfg.dt = 0.005;
    let mut c = Cluster::new(ic, 4, cfg);
    // The distributed on-the-fly energy monitor must agree with the
    // direct-summation energy at start…
    let r0 = c.energy_report();
    assert!(
        ((r0.total() - e0) / e0).abs() < 2e-3,
        "tree energy {} vs direct {e0}",
        r0.total()
    );
    for _ in 0..20 {
        c.step();
    }
    let final_p = c.gather();
    let e1 = bonsai_tree::direct::total_energy(&final_p, 0.01, 1.0);
    let drift = ((e1 - e0) / e0).abs();
    assert!(drift < 5e-3, "energy drift {drift} over 20 distributed steps");
    // …and track the drift itself.
    let r1 = c.energy_report();
    assert!(r1.drift_from(&r0) < 5e-3, "monitored drift {}", r1.drift_from(&r0));
    assert!((r1.virial_ratio() - 0.5).abs() < 0.1);
}

#[test]
fn breakdown_is_populated_and_gravity_dominates() {
    let mut c = small_cluster(8000, 4, 7);
    let b = c.step();
    assert_eq!(b.gpus, 4);
    assert!(b[Phase::GravityLocal] > 0.0);
    assert!(b[Phase::GravityLets] > 0.0);
    assert!(b.pp_per_particle > 0.0 && b.pc_per_particle > 0.0);
    assert!(b.total() > 0.0);
    assert_eq!(b[Phase::Recovery], 0.0, "no recovery cost without faults");
    // At small N the GPU model still makes gravity the dominant phase
    // relative to tree build.
    assert!(b[Phase::GravityLocal] + b[Phase::GravityLets] > b[Phase::TreeConstruction]);
}

#[test]
fn breakdown_reduces_from_registry() {
    // The registry view must reproduce the returned breakdown exactly, every
    // phase included: instrumentation changes observation, not physics or
    // timing. The second cluster drops sends, so `recovery` is priced too.
    let plan = FaultPlan::new(12).with_rate(bonsai_net::FaultKind::Drop, 0.2);
    let faulty = Cluster::with_faults(plummer_sphere(3000, 12), 4, ClusterConfig::default(), plan, None);
    for (mut c, recovers) in [(small_cluster(3000, 4, 12), false), (faulty, true)] {
        let b = c.step();
        assert_eq!(b[Phase::Recovery] > 0.0, recovers);
        assert_eq!(c.breakdown_from_metrics(), b);
    }
}

#[test]
fn trace_records_every_phase_and_lays_steps_out_sequentially() {
    let mut c = small_cluster(2000, 3, 13);
    c.step();
    let store = c.trace();
    // Construction runs epoch 1; the step runs epoch 2.
    assert_eq!(store.last_step(), Some(2));
    for r in 0..3 {
        let names: Vec<&str> = store
            .spans_for(r, 2)
            .filter(|s| s.lane == bonsai_obs::Lane::Gpu)
            .map(|s| s.name.as_str())
            .collect();
        assert_eq!(
            names,
            ["sort", "domain", "build", "props", "local", "lets", "integrate"]
        );
        let comm: Vec<&str> = store
            .spans_for(r, 2)
            .filter(|s| s.lane == bonsai_obs::Lane::Comm)
            .map(|s| s.name.as_str())
            .collect();
        assert_eq!(comm, ["let-comm"]);
        // The CPU lane carries the bookkeeping tail; every rank but the
        // straggler also records a cross-rank barrier wait.
        let cpu: Vec<&str> = store
            .spans_for(r, 2)
            .filter(|s| s.lane == bonsai_obs::Lane::Cpu)
            .map(|s| s.name.as_str())
            .collect();
        assert!(cpu.starts_with(&["balance", "orchestrate"]), "cpu lane {cpu:?}");
    }
    let waits = store
        .spans()
        .iter()
        .filter(|s| s.step == 2 && s.name == "wait")
        .count();
    assert!(waits >= 1, "expected at least one barrier wait span");
    // Gravity spans carry the device model's annotations.
    let local = store
        .spans_for(0, 2)
        .find(|s| s.name == "local")
        .expect("local span");
    assert!(local.args.iter().any(|(k, _)| *k == "gflops"));
    assert!(local.args.iter().any(|(k, _)| *k == "occupancy"));
    // Counters accumulate across epochs; gauges hold the latest.
    assert!(c.metrics().counter_family_total("bonsai_walk_flops_total") > 0);
    assert!(c.metrics().counter_family_total("bonsai_net_kind_bytes_total") > 0);
    // Epoch 2 starts on the global clock where epoch 1 ended.
    let e1_end = store
        .spans()
        .iter()
        .filter(|s| s.step == 1)
        .map(|s| s.end)
        .fold(0.0, f64::max);
    let e2_start = store
        .spans()
        .iter()
        .filter(|s| s.step == 2)
        .map(|s| s.start)
        .fold(f64::INFINITY, f64::min);
    assert!(e2_start >= e1_end - 1e-12, "epochs overlap on the clock");
}

#[test]
fn trace_history_is_a_bounded_window() {
    // No monitor: the cluster alone bounds its trace. After 40 steps (41
    // epochs) it holds at most two windows, and every record of the last.
    use bonsai_obs::TRACE_WINDOW;
    let mut c = small_cluster(256, 2, 42);
    let mut recorded = vec![c.trace().step_records(1).spans.len()];
    for _ in 0..40 {
        c.step();
        recorded.push(c.trace().step_records(c.current_epoch()).spans.len());
    }
    let last = c.current_epoch();
    assert_eq!(last, 41);
    let first = c.trace().spans()[0].step;
    assert!(last - first < 2 * TRACE_WINDOW, "holds {first}..={last}");
    for e in last + 1 - TRACE_WINDOW..=last {
        let held = c.trace().step_records(e).spans.len();
        assert_eq!(held, recorded[(e - 1) as usize], "epoch {e}");
    }
    let fold = c.trace().spans().iter().map(|s| s.end).fold(0.0, f64::max);
    assert_eq!(c.trace().makespan(), fold);
}

#[test]
fn flow_history_is_a_bounded_window() {
    // No monitor: the cluster evicts its flow ledger with its trace. Under
    // light drops (so outcomes and attempts vary) 40 steps hold at most two
    // windows of epochs, every record of the last, and run totals equal to
    // the per-epoch counts taken as each epoch completed.
    use bonsai_net::flow::{FlowConservation, FlowOutcome, FlowRecord};
    use bonsai_net::FaultKind;
    use bonsai_obs::TRACE_WINDOW;
    let plan = FaultPlan::new(5).with_rate(FaultKind::Drop, 0.05);
    let mut c = Cluster::with_faults(plummer_sphere(256, 42), 3, ClusterConfig::default(), plan, None);
    let mut totals = FlowConservation::default();
    let mut recorded: Vec<Vec<FlowRecord>> = vec![Vec::new()];
    let mut count_epochs_up_to = |c: &Cluster, recorded: &mut Vec<Vec<FlowRecord>>| {
        for e in recorded.len() as u64..=c.current_epoch() {
            let records = c.flow_ledger().for_epoch(e);
            totals.sealed += records.len() as u64;
            for r in records {
                match r.outcome {
                    FlowOutcome::Pending => totals.pending += 1,
                    FlowOutcome::Delivered { .. } => totals.delivered += 1,
                    FlowOutcome::Dead => totals.dead += 1,
                }
            }
            recorded.push(records.to_vec());
        }
        let (now, held) = (c.current_epoch(), c.flow_ledger().records());
        assert!(now - held[0].epoch < 2 * TRACE_WINDOW, "epoch {now} holds from {}", held[0].epoch);
        assert_eq!(c.flow_conservation(), totals, "epoch {now}");
    };
    count_epochs_up_to(&c, &mut recorded);
    for _ in 0..40 {
        c.step();
        count_epochs_up_to(&c, &mut recorded);
    }
    let last = c.current_epoch();
    assert_eq!(last, 41);
    assert!(totals.holds() && totals.sealed > c.flow_ledger().len() as u64);
    for e in last + 1 - TRACE_WINDOW..=last {
        assert_eq!(c.flow_ledger().for_epoch(e), recorded[e as usize], "epoch {e}");
    }
    let held = c.flow_ledger().records();
    assert!(held.iter().any(|r| r.attempts > 1), "no retransmission held");
}

#[test]
fn single_rank_cluster_equals_single_process() {
    let n = 1500;
    let ic = plummer_sphere(n, 8);
    let cfg = ClusterConfig::default();
    let tree = Tree::build(ic.clone(), cfg.tree);
    let (single, _) = walk::self_gravity(
        &tree,
        &WalkParams {
            theta: cfg.theta,
            eps: cfg.eps,
            g: cfg.g,
            use_quadrupole: true,
        },
    );
    let c = Cluster::new(ic, 1, cfg);
    let acc = c.accelerations_by_id();
    for i in 0..n {
        let a = acc[&tree.particles.id[i]];
        assert!(
            (a - single.acc[i]).norm() <= 1e-12 * single.acc[i].norm().max(1e-30),
            "particle {i} differs"
        );
    }
}

#[test]
fn delivery_histogram_exists_only_once_a_flow_delivered() {
    use bonsai_net::flow::FlowOutcome;
    const DELIVERY: &str = "bonsai_flow_delivery_seconds";
    // One rank seals nothing, so none of its epochs delivers a flow: the
    // histogram is never created and the exposition does not name it.
    let mut c = small_cluster(500, 1, 3);
    c.step();
    assert!(c.flow_ledger().is_empty());
    assert!(c.metrics().histogram(DELIVERY, &[]).is_none());
    assert!(!bonsai_obs::prom::prometheus_text(c.metrics()).contains(DELIVERY));
    // Two ranks deliver: one observation per delivered flow.
    let mut c = small_cluster(500, 2, 3);
    c.step();
    let delivered = c
        .flow_ledger()
        .records()
        .iter()
        .filter(|r| matches!(r.outcome, FlowOutcome::Delivered { .. }))
        .count();
    assert!(delivered > 0);
    let h = c.metrics().histogram(DELIVERY, &[]).expect("a flow delivered");
    assert_eq!(h.count(), delivered as u64);
}

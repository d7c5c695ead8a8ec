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
    let cfg = ClusterConfig { eps: 0.01, dt: 0.005, ..ClusterConfig::default() };
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

/// The first epoch of the window a cluster holds once `epoch` has begun.
fn window_start(epoch: u64) -> u64 {
    (epoch + 1).saturating_sub(bonsai_obs::TRACE_WINDOW).max(1)
}

#[test]
fn trace_history_is_a_bounded_window() {
    // No monitor: the cluster alone bounds its trace. After every one of 40
    // steps (41 epochs) it holds exactly the last window: every span and
    // instant of those epochs, and nothing older; and it draws exactly
    // those epochs' arrows, holding none itself.
    let mut c = small_cluster(256, 2, 42);
    let counts = |c: &Cluster, e: u64| {
        let recs = c.trace().step_records(e);
        (recs.spans.len(), recs.instants.len(), c.flow_arrows().points(e).len())
    };
    let mut recorded = vec![(0, 0, 0), counts(&c, 1)];
    for _ in 0..40 {
        c.step();
        let now = c.current_epoch();
        recorded.push(counts(&c, now));
        let first = window_start(now);
        let t = c.trace();
        assert!(t.spans().iter().all(|s| s.step >= first), "a span before epoch {first}");
        assert!(t.instants().iter().all(|i| i.step >= first), "an instant before epoch {first}");
        assert!(t.flow_points().is_empty(), "the live trace holds arrows");
        let drawn: Vec<_> = c.flow_arrows().held_points().collect();
        assert!(drawn.iter().all(|f| f.step >= first), "a point before epoch {first}");
        let held: Vec<_> = (first..=now).map(|e| counts(&c, e)).collect();
        assert_eq!(held, recorded[first as usize..], "epoch {now}");
        let sum = |column: fn(&(usize, usize, usize)) -> usize| held.iter().map(column).sum::<usize>();
        assert_eq!(t.len(), sum(|&(s, i, _)| s + i), "epoch {now}");
        assert_eq!(drawn.len(), sum(|&(.., f)| f), "epoch {now}");
    }
    assert_eq!(c.current_epoch(), 41);
    assert_eq!(c.trace().spans()[0].step, 41 + 1 - bonsai_obs::TRACE_WINDOW);
    let fold = c.trace().spans().iter().map(|s| s.end).fold(0.0, f64::max);
    assert_eq!(c.trace().makespan(), fold);
}

#[test]
fn flow_history_is_a_bounded_window() {
    // No monitor: the cluster evicts its flow ledger with its trace. Under
    // light drops (so outcomes and attempts vary), after every one of 40
    // steps the ledger holds exactly the records of the last window, and run
    // totals equal the per-epoch counts taken as each epoch completed.
    use bonsai_net::flow::{FlowConservation, FlowOutcome, FlowRecord};
    use bonsai_net::FaultKind;
    let plan = FaultPlan::new(5).with_rate(FaultKind::Drop, 0.05);
    let mut c = Cluster::with_faults(plummer_sphere(256, 42), 3, ClusterConfig::default(), plan, None);
    let mut totals = FlowConservation::default();
    let mut recorded: Vec<Vec<FlowRecord>> = vec![Vec::new()];
    let mut count_epochs_up_to = |c: &Cluster, recorded: &mut Vec<Vec<FlowRecord>>| {
        for e in recorded.len() as u64..=c.current_epoch() {
            let records = c.flow_ledger().for_epoch(e);
            totals.sealed += records.len() as u64;
            for r in records.iter() {
                match r.outcome {
                    FlowOutcome::Pending => totals.pending += 1,
                    FlowOutcome::Delivered { .. } => totals.delivered += 1,
                    FlowOutcome::Dead => totals.dead += 1,
                }
            }
            recorded.push(records.iter().collect());
        }
        let now = c.current_epoch();
        let held: Vec<FlowRecord> = c.flow_ledger().records().iter().collect();
        assert_eq!(held, recorded[window_start(now) as usize..].concat(), "epoch {now}");
        assert_eq!(c.flow_conservation(), totals, "epoch {now}");
    };
    count_epochs_up_to(&c, &mut recorded);
    for _ in 0..40 {
        c.step();
        count_epochs_up_to(&c, &mut recorded);
    }
    assert_eq!(c.current_epoch(), 41);
    assert!(totals.holds() && totals.sealed > c.flow_ledger().len() as u64);
    let held = c.flow_ledger().records();
    assert!(held.iter().any(|r| r.attempts > 1), "no retransmission held");
}

#[test]
fn epochs_that_never_complete_still_evict() {
    // Aborted epochs seal flows and record no spans; each evicts the epoch
    // that leaves the window as it begins, also once the trace is empty.
    use bonsai_obs::TRACE_WINDOW;
    let mut c = small_cluster(256, 3, 42);
    c.step();
    let completed = c.current_epoch();
    let mut sealed: Vec<usize> = (0..=completed).map(|e| c.flow_ledger().for_epoch(e).len()).collect();
    assert!(sealed[completed as usize] > 0 && !c.trace().is_empty());
    for _ in 0..5 * TRACE_WINDOW {
        c.begin_epoch(bonsai_net::MsgKind::Control);
        let (e, floor) = (c.current_epoch(), window_start(c.current_epoch()));
        c.wire.flows.seal(e, 0, 1, bonsai_net::MsgKind::Let, 8);
        sealed.push(1);
        let held: Vec<u64> = c.flow_ledger().records().iter().map(|r| r.epoch).collect();
        let want: Vec<u64> = (floor..=e)
            .flat_map(|k| std::iter::repeat_n(k, sealed[k as usize]))
            .collect();
        assert_eq!(held, want, "epoch {e}");
        assert!(c.trace().spans().iter().all(|s| s.step >= floor), "a span before epoch {floor}");
        assert_eq!(c.trace().is_empty(), floor > completed, "epoch {e}");
        let windowed: Vec<u64> = c.exchange_windows.epochs().collect();
        assert_eq!(windowed, (floor..=completed).collect::<Vec<_>>(), "epoch {e}");
    }
}

#[test]
fn arrows_drawn_at_the_end_of_their_window_are_those_drawn_first() {
    // Drawing is pure: under retransmissions, a crash rolled back in a fixed
    // world and one that shrinks an elastic world, each epoch's arrows drawn
    // after every later step, to the end of its window, equal bit for bit
    // those drawn as the epoch completed, and the stream tap charged each
    // step's epoch for exactly the points it draws.
    use crate::longrun::LongRunConfig;
    use crate::stream::StreamConfig;
    use bonsai_net::{FaultKind, RecoveryAction};
    use bonsai_obs::overhead::{FLOW_POINT_S, INSTANT_RECORD_S, SPAN_RECORD_S};
    use bonsai_obs::{FlowPoint, TRACE_WINDOW};
    use std::collections::BTreeMap;
    let bits = |points: Vec<FlowPoint>| -> Vec<_> {
        (points.into_iter()).map(|p| (p.id, p.rank, p.step, p.lane, p.name, p.at.to_bits(), p.phase)).collect()
    };
    for elastic in [false, true] {
        let dir = std::env::temp_dir().join(format!("bonsai_pure_arrows_{elastic}_{}", std::process::id()));
        let plan = FaultPlan::new(11).with_rate(FaultKind::Drop, 0.05).with_crash(2, 6);
        let recovery = Some(RecoveryConfig { dir: dir.clone(), every: 2 });
        let mut c = Cluster::with_faults(plummer_sphere(600, 23), 4, ClusterConfig::default(), plan, recovery);
        if elastic {
            c.enable_elastic_recovery();
        }
        c.enable_longrun(LongRunConfig::default());
        c.enable_streaming(StreamConfig::default());
        let mut first = BTreeMap::new();
        for _ in 0..2 * TRACE_WINDOW {
            c.step();
            let (arrows, now) = (c.flow_arrows(), c.current_epoch());
            for e in window_start(now)..=now {
                let drawn = bits(arrows.points(e));
                let first = first.entry(e).or_insert_with(|| drawn.clone());
                assert!(*first == drawn, "epoch {e} drawn again at epoch {now} (elastic: {elastic})");
            }
            let recs = c.trace().step_records(now);
            let mut charged = 0.0;
            for (ops, rate) in [
                (recs.spans.len(), SPAN_RECORD_S),
                (recs.instants.len(), INSTANT_RECORD_S),
                (arrows.points(now).len(), FLOW_POINT_S),
            ] {
                if ops > 0 {
                    charged += ops as f64 * rate;
                }
            }
            let gauge = c.metrics().gauge("bonsai_obs_overhead_seconds", &[("category", "trace")]);
            assert_eq!(gauge.map(f64::to_bits), Some(charged.to_bits()), "epoch {now} (elastic: {elastic})");
        }
        // The schedule did what it is here for.
        let log = c.fault_log();
        assert!(log.recoveries_of(RecoveryAction::Retransmit) > 0 && log.recoveries_of(RecoveryAction::RestoreCheckpoint) > 0);
        assert_eq!(c.rank_count(), if elastic { 3 } else { 4 });
        assert!(first.values().filter(|drawn| !drawn.is_empty()).count() > 2 * TRACE_WINDOW as usize);
        std::fs::remove_dir_all(dir).ok();
    }
}

#[test]
fn eviction_leaves_kept_epochs_in_place() {
    // Each step evicts the epoch that leaves the window and moves no
    // exchange window of the epochs it keeps, nor renumbers their ledger
    // records (that the ledger's runs stay in place is `EpochRuns`'s own
    // test).
    use bonsai_obs::TRACE_WINDOW;
    let mut c = small_cluster(256, 3, 42);
    for _ in 0..TRACE_WINDOW {
        c.step();
    }
    let at = |c: &Cluster, e: u64| {
        let windows = c.exchange_windows.get(e).map_or(&[][..], |(_, w)| w);
        let records = c.flow_ledger().for_epoch(e);
        (windows.as_ptr(), windows.len(), records.first().map(|r| r.id), records.len())
    };
    for _ in 0..TRACE_WINDOW + 2 {
        let leaving = window_start(c.current_epoch());
        let kept: Vec<u64> = (leaving + 1..=c.current_epoch()).collect();
        let before: Vec<_> = kept.iter().map(|&e| at(&c, e)).collect();
        assert!(before.iter().all(|&(_, windows, _, records)| windows > 0 && records > 0));
        c.step();
        let gone = at(&c, leaving);
        assert_eq!((gone.1, gone.3), (0, 0), "epoch {leaving} was not evicted");
        let after: Vec<_> = kept.iter().map(|&e| at(&c, e)).collect();
        assert_eq!(after, before, "a kept epoch moved as epoch {leaving} left");
    }
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

mod let_frames {
    use super::gravity::let_frame;
    use bonsai_ic::plummer_sphere;
    use bonsai_domain::build_let;
    use bonsai_tree::build::{Tree, TreeParams};
    use bonsai_tree::Particles;
    use bonsai_util::rng::Xoshiro256;
    use bonsai_util::{Aabb, Vec3};
    use proptest::prelude::*;

    /// `count` receiver frontier boxes of random centres and extents.
    fn geometry(count: usize, seed: u64) -> Vec<Aabb> {
        let mut rng = Xoshiro256::seed_from(seed);
        (0..count)
            .map(|_| {
                let centre = rng.unit_sphere() * rng.uniform_in(0.0, 4.0);
                let half = Vec3::new(rng.uniform_in(0.01, 1.0), rng.uniform_in(0.01, 1.0), rng.uniform_in(0.01, 1.0));
                Aabb::new(centre - half, centre + half)
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn a_let_written_in_place_is_its_encoding(
            n in 0usize..400, seed in any::<u64>(), boxes in 1usize..5, theta in 0.2f64..1.0,
            stale in proptest::collection::vec(any::<u8>(), 0..2048),
        ) {
            // The sender's tree, empty at n = 0 (an empty LET), and a frame
            // buffer that held another frame before, longer or shorter.
            let particles = if n == 0 { Particles::new() } else { plummer_sphere(n, seed) };
            let tree = Tree::build(particles, TreeParams::default());
            let geom = geometry(boxes, seed ^ 0x5eed);
            let lt = build_let(&tree, &geom, theta);
            prop_assert_eq!(lt.is_empty(), n == 0);
            let oracle = lt.to_bytes();
            let frame = let_frame(&tree, &geom, theta, stale);
            prop_assert_eq!(&frame[..], &oracle[..]);
        }
    }
}

#[test]
fn frame_buffers_come_back_unless_a_fault_holds_them() {
    use bonsai_domain::lettree::validate;
    use bonsai_net::{FaultKind, FaultPlan, Injection, MsgKind};
    // Every ordered pair of this shape ships a LET of 110–130 KB. The third
    // step (epoch 4) delays each of rank 0's LETs on its first attempt, so
    // the held frames keep their buffers into the next epoch.
    let fault = FaultKind::Delay;
    let (epoch, from, to, kind, attempts) = (4, Some(0), None, Some(MsgKind::Let), 0..1);
    let plan = FaultPlan::new(1).with_injection(Injection { epoch, from, to, kind, fault, attempts });
    let mut c = Cluster::with_faults(plummer_sphere(6000, 3), 3, ClusterConfig::default(), plan, None);
    for step in 1..=3 {
        c.step();
        let last = c.current_epoch();
        let lets = c.flow_ledger().records().iter().filter(|r| r.kind == MsgKind::Let && r.epoch == last);
        for (sender, bufs) in c.let_buffers.iter().enumerate() {
            let sent: Vec<(usize, usize)> = lets.clone().filter(|r| r.from == sender).map(|r| (r.to, r.bytes)).collect();
            assert_eq!(sent.len(), 2, "step {step}: rank {sender} ships a LET to each peer");
            let largest = sent.iter().map(|s| s.1).max().unwrap();
            // One buffer per lane: receiver j's frames go in buffer j mod lanes.
            for (slot, buf) in bufs.iter().enumerate() {
                assert!(buf.capacity() <= largest + largest / 4, "step {step}: rank {sender}, slot {slot}");
                // Receiver-major: the last flow to a receiver of this slot is
                // the last frame written into this buffer.
                let Some(&(_, bytes)) = sent.iter().rfind(|s| s.0 % bufs.len() == slot) else { continue };
                if step == 3 && sender == 0 {
                    assert_eq!(buf.capacity(), 0, "a held frame's buffer was reused or replaced");
                } else {
                    // Back from the receivers, its last frame still in it.
                    assert_eq!(buf.len(), bytes, "step {step}: rank {sender} holds no frame of its own");
                    assert!(validate(buf).is_ok(), "step {step}: rank {sender}, slot {slot}");
                }
            }
        }
    }
    // Rank 0's held frames are intact.
    c.wire.flush_delayed();
    let wire = &c.wire;
    let held: Vec<_> = (1..3).flat_map(|to| std::iter::from_fn(move || wire.try_recv(to))).collect();
    assert_eq!(held.iter().map(|m| (m.from, m.kind)).collect::<Vec<_>>(), [(0, MsgKind::Let); 2]);
    assert!(held.iter().all(|m| validate(&m.payload).is_ok()), "a held frame was written over");
}

//! What the integration tests that compare runs bit for bit share: the eight
//! named invariants over consecutive [`StepFacts`] snapshots, and the
//! harness that runs fault schedules one by one against a fault-free
//! reference.

use bonsai_net::envelope::NO_FLOW;
use bonsai_net::{FaultKind, FaultLog, FaultPlan, FlowRecord, Injection};
use bonsai_obs::{ArgValue, FlowPhase};
use bonsai_sim::{Cluster, ClusterConfig, RecoveryConfig, StepFacts};
use bonsai_tree::Particles;
use std::collections::HashMap;

/// Positions and accelerations in id order, as bits.
pub fn state_bits(c: &Cluster) -> Vec<(u64, [u64; 6])> {
    let acc = c.accelerations_by_id();
    let g = c.gather();
    let mut bits: Vec<(u64, [u64; 6])> = (g.id.iter().zip(&g.pos))
        .map(|(id, x)| {
            let a = acc[id];
            (*id, [x.x, x.y, x.z, a.x, a.y, a.z].map(f64::to_bits))
        })
        .collect();
    bits.sort_unstable_by_key(|&(id, _)| id);
    bits
}

fn particles_conserved(prev: &StepFacts, now: &StepFacts) {
    assert_eq!(now.particles, prev.particles, "particles lost or made at epoch {}", now.epoch);
}

/// Sealed = delivered + dead, nothing pending.
fn flows_conserved(now: &StepFacts) {
    let flows = now.flows;
    assert!(flows.holds(), "flow ledger out of balance at epoch {}: {flows:?}", now.epoch);
    assert!(flows.sealed > 0, "nothing crossed the fabric");
}

/// Every step and every view change consumes at least one gravity epoch,
/// and a rollback never rewinds the counter.
fn epoch_strictly_increases(prev: &StepFacts, now: &StepFacts) {
    assert!(now.epoch > prev.epoch, "epoch {} after {}", now.epoch, prev.epoch);
}

/// The world size is a function of the view: it moves only with the view
/// number, which never goes back.
fn world_matches_view(prev: &StepFacts, now: &StepFacts) {
    assert!(now.view >= prev.view, "view {} after {}", now.view, prev.view);
    if now.view == prev.view {
        assert_eq!(now.world, prev.world, "world changed inside view {}", now.view);
    }
}

/// The clock follows the step counter. A rollback returns the cluster at
/// the step it left, so neither runs backwards across an act.
fn time_advances_by_dt(prev: &StepFacts, now: &StepFacts, dt: f64) {
    let steps = now.step as f64 - prev.step as f64;
    let advanced = now.time - prev.time;
    assert!((advanced - steps * dt).abs() < 1e-12, "{steps} steps moved the clock by {advanced}");
}

/// Whatever recovery did, the cluster comes back with a finite force for
/// every particle it holds. (That no walk forces a `Cut` node is asserted
/// inside the walk, in every debug build.)
fn every_particle_has_a_finite_force(c: &Cluster, now: &StepFacts) {
    let acc = c.accelerations_by_id();
    assert_eq!(acc.len(), now.particles, "particles without a force at epoch {}", now.epoch);
    assert!(acc.values().all(|a| a.is_finite()), "a non-finite force at epoch {}", now.epoch);
}

/// Every fault event names its flow: a fault or a recovery whose flow the
/// ledger still holds is about that frame — same epoch, kind and endpoints
/// (`from → to`, or `peer → rank`) — and a faulted attempt is one the flow
/// made. A crash concerns no frame.
fn every_fault_event_names_its_flow(c: &Cluster) {
    let (log, ledger) = (c.fault_log(), c.flow_ledger());
    for e in &log.injected {
        if e.fault == FaultKind::Crash {
            assert_eq!(e.flow, NO_FLOW, "a crash names a flow: {e:?}");
        } else if let Some(r) = ledger.get(e.flow) {
            assert_eq!((r.epoch, r.kind, r.from, r.to), (e.epoch, e.kind, e.from, e.to), "{e:?} names {r:?}");
            assert!(r.attempts > e.attempt, "{e:?} names {r:?}");
        }
    }
    for e in &log.recoveries {
        if let Some(r) = ledger.get(e.flow) {
            let named = (r.epoch, Some(r.kind), Some(r.from), r.to);
            assert_eq!(named, (e.epoch, e.kind, e.peer, e.rank), "{e:?} names {r:?}");
        }
    }
}

/// Every fault instant sits on its flow: an `inject:` or `recover:`
/// instant that carries a flow id has, bit for bit, the `at` of one point
/// of that flow as its step's arrows draw. An injection at attempt k and
/// the flow's k-th retransmission sit on the point of attempt k (`Start`
/// for k = 0, the k-th `Step` after it); any other recovery sits on the
/// flow's `Finish`, which every flow of a completed epoch has. The live
/// trace itself holds no arrow.
fn every_fault_instant_sits_on_its_flow(c: &Cluster) {
    let (trace, arrows) = (c.trace(), c.flow_arrows());
    assert!(trace.flow_points().is_empty(), "the live trace holds arrows");
    let mut drawn = HashMap::new();
    let arg = |args: &[(&str, ArgValue)], key: &str| {
        args.iter().find_map(|(k, v)| match v {
            ArgValue::U64(x) if *k == key => Some(*x),
            _ => None,
        })
    };
    let mut retries: HashMap<u64, u64> = HashMap::new();
    for i in trace.instants() {
        let Some(flow) = arg(&i.args, "flow") else { continue };
        let step = drawn.entry(i.step).or_insert_with(|| arrows.points(i.step));
        let points = step.iter().filter(|p| p.id == flow);
        let mut attempts = points.clone().filter(|p| p.phase != FlowPhase::Finish);
        let point = if i.name.starts_with("inject:") {
            attempts.nth(arg(&i.args, "attempt").expect("an injection names its attempt") as usize)
        } else if i.name == "recover:retransmit" {
            let k = retries.entry(flow).or_default();
            *k += 1;
            attempts.nth(*k as usize)
        } else if i.name.starts_with("recover:") {
            points.clone().find(|p| p.phase == FlowPhase::Finish)
        } else {
            continue;
        };
        let point = point.unwrap_or_else(|| panic!("{i:?} names no point of its flow: {:?}", points.collect::<Vec<_>>()));
        assert_eq!(i.at.to_bits(), point.at.to_bits(), "{i:?} is not on its flow's {point:?}");
    }
}

/// Let `act` loose on the cluster, then check every invariant between the
/// snapshot before it and the one after.
pub fn checked(c: &mut Cluster, prev: &mut StepFacts, act: impl FnOnce(&mut Cluster)) {
    act(c);
    let now = c.step_facts();
    particles_conserved(prev, &now);
    flows_conserved(&now);
    epoch_strictly_increases(prev, &now);
    world_matches_view(prev, &now);
    time_advances_by_dt(prev, &now, c.cfg.dt);
    every_particle_has_a_finite_force(c, &now);
    every_fault_event_names_its_flow(c);
    every_fault_instant_sits_on_its_flow(c);
    *prev = now;
}

/// One step is one step: whatever it rolled back and replayed, each
/// [`Cluster::step`] advances the step counter by exactly one.
pub fn step(c: &mut Cluster) {
    let before = c.step_count();
    c.step();
    assert_eq!(c.step_count(), before + 1, "a step from step {before} ended at step {}", c.step_count());
}

/// A fault-free run: the flows a family is enumerated from, and the state
/// each of its schedules must end on.
pub struct Reference {
    ic: Particles,
    ranks: usize,
    steps: usize,
    clean: Cluster,
    want: Vec<(u64, [u64; 6])>,
}

impl Reference {
    /// `steps` fault-free steps of `ic` over `ranks` ranks, on the process
    /// pool: bits do not depend on the lane count.
    pub fn new(ic: Particles, ranks: usize, steps: usize) -> Self {
        let mut clean = Cluster::new(ic.clone(), ranks, ClusterConfig::default());
        for _ in 0..steps {
            clean.step();
        }
        Self { want: state_bits(&clean), ic, ranks, steps, clean }
    }

    /// One schedule per flow of `epochs` that `keep` accepts: `fault` on its
    /// `attempts`.
    pub fn per_flow(
        &self,
        epochs: std::ops::RangeInclusive<u64>,
        keep: impl Fn(&FlowRecord) -> bool,
        fault: FaultKind,
        attempts: std::ops::Range<u32>,
    ) -> Vec<Injection> {
        let flows = epochs.flat_map(|e| self.clean.flow_ledger().for_epoch(e)).filter(|f| keep(f));
        let at = |f: &FlowRecord| (Some(f.from), Some(f.to), Some(f.kind));
        flows
            .map(|f| {
                let (from, to, kind) = at(f);
                Injection { epoch: f.epoch, from, to, kind, fault, attempts: attempts.clone() }
            })
            .collect()
    }

    /// Run every `stride`-th of `plans` alone, checkpointing every 2 steps
    /// when `recover` (so a rollback lands on an older step and replays),
    /// with the eight invariants after every step; require
    /// `fired` of its fault log, and the fault-free run's world, step count
    /// and bits at the end.
    pub fn replay_each(
        &self,
        name: &str,
        plans: Vec<FaultPlan>,
        stride: usize,
        recover: bool,
        fired: impl Fn(&FaultLog) -> bool,
    ) {
        let dir = std::env::temp_dir().join(format!("bonsai_replay_{name}_{}", std::process::id()));
        for (i, plan) in plans.into_iter().enumerate().step_by(stride) {
            let what = format!("{name} #{i}: {plan:?}");
            let recovery = recover.then(|| {
                let _ = std::fs::remove_dir_all(&dir);
                std::fs::create_dir_all(&dir).unwrap();
                RecoveryConfig { dir: dir.clone(), every: 2 }
            });
            let cfg = ClusterConfig::default();
            let mut c = Cluster::with_faults(self.ic.clone(), self.ranks, cfg, plan, recovery);
            let mut prev = c.step_facts();
            for _ in 0..self.steps {
                checked(&mut c, &mut prev, step);
            }
            assert!(fired(c.fault_log()), "{what}:\n{}", c.fault_log().render());
            assert_eq!((c.rank_count(), c.step_count()), (self.ranks, self.steps as u64), "{what}");
            assert!(state_bits(&c) == self.want, "{what} ended on other bits than the fault-free run");
        }
        let _ = std::fs::remove_dir_all(dir);
    }
}


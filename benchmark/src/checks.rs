//! Correctness checks, run outside the timed region and counted as
//! operations: one per timed step, plus the end-of-run checks.

use crate::workload::{Engine, Shape, Workload, THETA};
use bonsai_net::fault::RecoveryAction;
use bonsai_obs::stream::FrameKind;
use bonsai_tree::direct::direct_forces;
use bonsai_tree::Forces;
use bonsai_verify::oracle::{rel_errors, tolerance_band, ErrorPercentiles};
use std::collections::{BTreeMap, HashMap};

/// Relative energy drift above which a run is wrong: the critical
/// threshold of the repository's `energy-runaway` health rule.
pub const MAX_ENERGY_DRIFT: f64 = 1.0e-2;

/// Particles whose tree force is compared against direct summation.
const FORCE_SAMPLE: usize = 512;

/// Operations attempted and failed, with a line per failure.
#[derive(Debug, Default)]
pub struct Ops {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// What failed, for stderr.
    pub failures: Vec<String>,
}

impl Ops {
    /// Count one operation; `problem` says what went wrong, if anything.
    pub fn record(&mut self, what: &str, problem: Option<String>) {
        self.attempted += 1;
        if let Some(why) = problem {
            self.failed += 1;
            self.failures.push(format!("{what}: {why}"));
        }
    }
}

/// The state every step must preserve: the id multiset, finite forces.
pub fn step_problem(engine: &Engine, expected_ids: &[u64]) -> Option<String> {
    let ids = engine.sorted_ids();
    if ids != expected_ids {
        return Some(format!(
            "particle ids not conserved ({} held, {} expected)",
            ids.len(),
            expected_ids.len()
        ));
    }
    let acc = engine.accelerations_by_id();
    if acc.len() != expected_ids.len() {
        return Some(format!("{} accelerations for {} ids", acc.len(), ids.len()));
    }
    acc.values()
        .any(|a| !(a.x.is_finite() && a.y.is_finite() && a.z.is_finite()))
        .then(|| "non-finite acceleration".to_string())
}

/// Median and 95th percentile of the relative force error of a fixed,
/// evenly spaced sample of particles against direct summation over all
/// particles at the engine's current positions.
fn sampled_force_error(engine: &Engine, w: &Workload) -> ErrorPercentiles {
    let all = engine.gather();
    let index_of: HashMap<u64, usize> = all.id.iter().enumerate().map(|(i, &id)| (id, i)).collect();
    let mut ids = all.id.clone();
    ids.sort_unstable();
    let sample: Vec<u64> = (0..FORCE_SAMPLE.min(ids.len()))
        .map(|k| ids[k * ids.len() / FORCE_SAMPLE.min(ids.len())])
        .collect();
    let targets: Vec<_> = sample.iter().map(|id| all.pos[index_of[id]]).collect();
    let (reference, _) = direct_forces(
        &targets,
        &all.pos,
        &all.mass,
        w.eps(),
        bonsai_util::units::G,
        false,
    );
    let acc_by_id = engine.accelerations_by_id();
    let test = Forces {
        acc: sample.iter().map(|id| acc_by_id[id]).collect(),
        pot: vec![0.0; sample.len()],
    };
    ErrorPercentiles::from_errors(rel_errors(&test, &reference))
}

/// Why the sampled force error is outside the repository's θ-keyed band,
/// if it is (median and 95th percentile; the maximum of a 512-particle
/// sample is not a stable statistic).
fn force_error_problem(e: &ErrorPercentiles) -> Option<String> {
    let band = tolerance_band(THETA, true);
    if e.median > band.median {
        Some(format!(
            "p50 {:.3e} above band {:.3e}",
            e.median, band.median
        ))
    } else if e.p95 > band.p95 {
        Some(format!("p95 {:.3e} above band {:.3e}", e.p95, band.p95))
    } else {
        None
    }
}

/// Why the energy drifted too far, if it did.
fn energy_problem(drift: f64) -> Option<String> {
    (drift.is_nan() || drift >= MAX_ENERGY_DRIFT)
        .then(|| format!("|dE/E0| = {drift:.3e} (limit {MAX_ENERGY_DRIFT:.0e})"))
}

/// The benchmark's telemetry subscriber: drained after every step, it
/// tallies what it received so the end-of-run check can compare against
/// what the bus published.
#[derive(Debug, Default)]
pub struct Subscriber {
    received: BTreeMap<&'static str, u64>,
}

impl Subscriber {
    /// Drain the engine's bus (no-op for engines without one).
    pub fn drain(&mut self, engine: &mut Engine) {
        let Some(tap) = engine.cluster_mut().and_then(|c| c.stream_mut()) else {
            return;
        };
        for frame in tap.bus_mut().poll(0, usize::MAX) {
            *self.received.entry(frame.kind.name()).or_insert(0) += 1;
        }
    }

    /// Why a must-deliver frame is missing, if one is.
    fn problem(&self, engine: &Engine) -> Option<String> {
        let tap = engine.cluster().and_then(|c| c.stream())?;
        let lost = tap.bus().reports()[0].must_deliver_lost();
        if lost > 0 {
            return Some(format!("{lost} must-deliver frames dropped or evicted"));
        }
        FrameKind::ALL
            .iter()
            .filter(|k| !k.droppable())
            .find_map(|k| {
                let published = tap.bus().published().get(k.name()).copied().unwrap_or(0);
                let received = self.received.get(k.name()).copied().unwrap_or(0);
                (published != received).then(|| {
                    format!(
                        "{} frames: {published} published, {received} received",
                        k.name()
                    )
                })
            })
    }
}

/// Checkpoint rollbacks the cluster performed so far.
pub fn restores(engine: &Engine) -> u64 {
    engine.cluster().map_or(0, |c| {
        c.fault_log()
            .recoveries_of(RecoveryAction::RestoreCheckpoint) as u64
    })
}

/// The end-of-run checks: energy drift since `e0`, sampled force error,
/// and on the chaos shape that the fabric misbehaved and was recovered from
/// with balanced flow books and lossless alert telemetry (the rollback is
/// only demanded of a run that got as far as `crash_epoch`). Returns the
/// drift and the force error for the metrics that report them.
pub fn end_of_run(
    ops: &mut Ops,
    engine: &Engine,
    w: &Workload,
    sub: &Subscriber,
    e0: f64,
    crash_epoch: u64,
) -> (f64, ErrorPercentiles) {
    let drift = ((engine.total_energy() - e0) / e0).abs();
    ops.record("energy drift", energy_problem(drift));
    let err = sampled_force_error(engine, w);
    ops.record("force error", force_error_problem(&err));

    if let (Shape::Chaos(_), Some(cluster)) = (w.shape, engine.cluster()) {
        let flows = cluster.flow_conservation();
        ops.record(
            "flow conservation",
            (!flows.holds()).then(|| format!("{flows:?}")),
        );
        let retransmits = cluster
            .fault_log()
            .recoveries_of(RecoveryAction::Retransmit);
        ops.record(
            "retransmits",
            (retransmits == 0).then(|| "no frame was ever retransmitted".to_string()),
        );
        if cluster.current_epoch() >= crash_epoch {
            ops.record(
                "crash recovery",
                (restores(engine) == 0)
                    .then(|| "the scheduled crash caused no rollback".to_string()),
            );
        }
        ops.record("must-deliver telemetry", sub.problem(engine));
    }
    (drift, err)
}

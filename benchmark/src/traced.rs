//! The traced run: per-layer metrics from a replay of every step.
//!
//! Runs at one lane. Each step is one `step` root span around the real
//! `step()`, followed by a `replay` root span under which the harness
//! re-runs the epoch through each layer's public functions (see
//! [`crate::replay`]). A layer's seconds are the self time of its spans,
//! summed over ranks, median over steps; counts are per-step means. The
//! number of steps is fixed by the requested run length, not by the clock,
//! so the counts repeat exactly. What the real step spends outside the
//! replayed calls is the residual. All seconds are host-normalised (see
//! [`crate::host`]); the trace file keeps the raw wall clock.

use crate::calibrate;
use crate::checks::{self, Ops, Subscriber};
use crate::e2e::{RunPlan, ScratchDir};
use crate::host::HostSpeed;
use crate::replay::{replay_single, ClusterReplayer, EpochCounts};
use crate::report::{ratio, RunResult, Values};
use crate::stats::median;
use crate::trace::{self_time_by_step, telescoping_error, Recorder};
use crate::workload::{Engine, Shape, StepReport, Workload};
use bonsai_domain::exchange::PARTICLE_WIRE_SIZE;
use bonsai_net::fault::RecoveryAction;
use bonsai_par::ThreadPool;
use bonsai_sim::{checkpoint, Cluster};
use bonsai_tree::Particles;
use std::collections::BTreeMap;
use std::path::Path;

/// Span names that are layer work, and the per-layer metric each is
/// reported as. The `step` and `replay` roots are the harness, not a layer.
const LAYERS: [(&str, &str); 15] = [
    ("sfc.keys", "sfc.keys_s"),
    ("sfc.sort", "sfc.sort_s"),
    ("tree.build", "tree.build_s"),
    ("tree.walk_local", "tree.walk_local_s"),
    ("tree.walk_let", "tree.walk_let_s"),
    ("domain.sampling", "domain.sampling_s"),
    ("domain.exchange", "domain.exchange_s"),
    ("domain.boundary", "domain.boundary_s"),
    ("domain.sufficiency", "domain.sufficiency_s"),
    ("domain.let_build", "domain.let_build_s"),
    ("domain.let_encode", "domain.let_encode_s"),
    ("domain.let_decode", "domain.let_decode_s"),
    ("net.seal", "net.seal_s"),
    ("net.open", "net.open_s"),
    ("net.fabric", "net.fabric_s"),
];

/// Untraced back-to-back steps made before, and again after, the traced
/// steps, which are compared against them.
const REFERENCE_STEPS: usize = 4;
/// Share of the run's seconds the traced loop may use; the rest pays for
/// calibration, the two comparison engines and the exports.
const TRACED_SHARE: f64 = 0.5;
/// Steps timed on each comparison engine (2 lanes; single process).
const COMPARISON_STEPS: usize = 8;
/// Warm-up steps of a comparison engine.
const COMPARISON_WARMUP: usize = 2;
/// Checkpoint write/read repetitions; the median is reported.
const CHECKPOINT_REPS: usize = 3;

/// What one traced step recorded besides its spans.
struct StepRecord {
    /// Host-normalised seconds of the real step.
    seconds: f64,
    /// Share of the step the single-process engine spent in its force phase.
    force_share: f64,
    /// Host slowdown while the step was replayed.
    replay_slowdown: f64,
    report: StepReport,
    replayed: EpochCounts,
    /// Spans, instants and flow points the cluster's own trace gained.
    engine_spans: u64,
    imbalance: f64,
    retransmit_bytes: u64,
    degraded_lets: u64,
}

/// The engine's own account of the epoch, in the replay's terms; `None`
/// when the epoch is not comparable (a fallback walk changes the counts).
fn engine_counts(engine: &Engine) -> Option<EpochCounts> {
    match engine {
        Engine::Single(sim) => Some(EpochCounts {
            pp_local: sim.last_counts().pp,
            pc_local: sim.last_counts().pc,
            ..EpochCounts::default()
        }),
        Engine::Cluster(c) => {
            let m = &c.last_measurements;
            (m.degraded_lets == 0).then(|| EpochCounts {
                pp_local: m.counts_local.iter().map(|x| x.pp).sum(),
                pc_local: m.counts_local.iter().map(|x| x.pc).sum(),
                pp_let: m.counts_lets.iter().map(|x| x.pp).sum(),
                pc_let: m.counts_lets.iter().map(|x| x.pc).sum(),
                lets: m.let_neighbors.iter().sum::<usize>() as u64,
                let_bytes: m.let_bytes_sent.iter().sum::<usize>() as u64,
                boundary_bytes: m.boundary_bytes.iter().sum::<usize>() as u64,
                ..EpochCounts::default()
            })
        }
    }
}

/// The fields of the replay's counts the engine also measures.
fn comparable(c: &EpochCounts) -> EpochCounts {
    EpochCounts {
        pp_local: c.pp_local,
        pc_local: c.pc_local,
        pp_let: c.pp_let,
        pc_let: c.pc_let,
        lets: c.lets,
        let_bytes: c.let_bytes,
        boundary_bytes: c.boundary_bytes,
        ..EpochCounts::default()
    }
}

/// Records of the cluster's trace that belong to its latest epoch. They
/// were appended last, so this never scans the whole (growing) store.
fn engine_spans_of_latest_epoch(c: &Cluster) -> u64 {
    let epoch = c.current_epoch();
    let t = c.trace();
    let spans = t
        .spans()
        .iter()
        .rev()
        .take_while(|s| s.step == epoch)
        .count();
    let instants = t
        .instants()
        .iter()
        .rev()
        .take_while(|i| i.step == epoch)
        .count();
    let flows = t
        .flow_points()
        .iter()
        .rev()
        .take_while(|f| f.step == epoch)
        .count();
    (spans + instants + flows) as u64
}

/// Median step time of a fresh engine of `w` at `lanes` lanes: the
/// comparison runs behind `par.speedup_t2` and `sim.dist_overhead_x`. The
/// chaos shape never crashes here, so no rollback skews the few steps.
fn comparison_median(w: &Workload, ic: &Particles, seed: u64, lanes: usize, dir: &Path) -> f64 {
    ThreadPool::new(lanes).install(|| {
        let host = HostSpeed::new(lanes);
        let mut engine = w.engine(ic.clone(), seed, lanes, u64::MAX, dir);
        for _ in 0..COMPARISON_WARMUP {
            engine.step();
        }
        let mut slowdown = host.slowdown();
        let steps: Vec<f64> = (0..COMPARISON_STEPS)
            .map(|_| host.timed(&mut slowdown, || engine.step()).1.normalised)
            .collect();
        median(&steps)
    })
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .expect("list checkpoint directory")
        .filter_map(|e| e.ok()?.metadata().ok())
        .filter(|m| m.is_file())
        .map(|m| m.len())
        .sum()
}

/// Run `w` traced; returns the per-layer metrics and the wall-clock trace.
pub fn run(w: &Workload, plan: &RunPlan) -> (RunResult, Recorder) {
    ThreadPool::new(1).install(|| run_on_pool(w, plan))
}

fn run_on_pool(w: &Workload, plan: &RunPlan) -> (RunResult, Recorder) {
    let scratch = ScratchDir::new(&plan.out_dir, &format!("{}_traced", w.name));
    let side_scratch = ScratchDir::new(&plan.out_dir, &format!("{}_side", w.name));
    let mut ops = Ops::default();
    let mut sub = Subscriber::default();
    let mut values = Values::new();
    let mut rec = Recorder::new();
    let single = w.shape == Shape::Single;

    let host = HostSpeed::new(1);
    let (ic, seconds) = host.timed(&mut host.slowdown(), || w.generate(plan.seed));
    values.insert("ic.generate_s", seconds.normalised);
    calibrate::run(&ic, w.eps(), &mut values);

    let mut engine = w.engine(ic.clone(), plan.seed, 1, plan.crash_epoch(), scratch.path());
    let expected_ids = engine.sorted_ids();
    let e0 = engine.total_energy();
    for _ in 0..plan.warmup {
        engine.step();
        sub.drain(&mut engine);
    }
    // Plain back-to-back steps before and after the traced ones, so that
    // creep over the run does not read as tracing overhead.
    let mut reference: Vec<f64> = Vec::with_capacity(2 * REFERENCE_STEPS);
    let mut reference_steps = |engine: &mut Engine, sub: &mut Subscriber| {
        let mut slowdown = host.slowdown();
        for _ in 0..REFERENCE_STEPS {
            let (_, seconds) = host.timed(&mut slowdown, || engine.step());
            sub.drain(engine);
            reference.push(seconds.normalised);
        }
    };
    reference_steps(&mut engine, &mut sub);

    // Fault bookkeeping is cumulative in the engine; the traced steps are
    // charged what it gains while they run.
    let fault_totals = |engine: &Engine| {
        engine.cluster().map_or((0, 0), |c| {
            let log = c.fault_log();
            (
                log.injected.len() as u64,
                log.recoveries_of(RecoveryAction::Retransmit) as u64,
            )
        })
    };
    let faults_before = fault_totals(&engine);

    let replayer = ClusterReplayer::new(w.shape.ranks());
    let mut records: Vec<StepRecord> = Vec::new();
    let mut replay_match = true;
    // A traced step costs a step and its replay, about two steps.
    let n_steps = w.steps_for(TRACED_SHARE * plan.seconds / 2.0, plan.min_steps);
    while records.len() < n_steps {
        let step = records.len() as u64 + 1;
        let mut slowdown = host.slowdown();
        let (report, seconds) = host.timed(&mut slowdown, || {
            let root = rec.open(0, step, "step", None);
            let report = engine.step();
            rec.close(root);
            report
        });
        let after_step = slowdown;
        sub.drain(&mut engine);
        ops.record(
            &format!("step {step}"),
            checks::step_problem(&engine, &expected_ids),
        );

        let root = rec.open(0, step, "replay", None);
        let replayed = match &engine {
            Engine::Single(sim) => replay_single(sim, &mut rec, step, root),
            Engine::Cluster(c) => replayer.replay(c, &mut rec, step, root),
        };
        rec.close(root);
        let after_replay = host.slowdown();

        if let Some(own) = engine_counts(&engine) {
            let replay = comparable(&replayed);
            if own != replay {
                replay_match = false;
                eprintln!(
                    "warning: {} step {step}: replay disagrees with the engine's own counts\n  \
                     engine {own:?}\n  replay {replay:?}",
                    w.name
                );
            }
        }
        let m = engine.cluster().map(|c| &c.last_measurements);
        records.push(StepRecord {
            seconds: seconds.normalised,
            force_share: report.force_seconds / seconds.raw,
            replay_slowdown: 0.5 * (after_step + after_replay),
            report,
            replayed,
            engine_spans: engine.cluster().map_or(0, engine_spans_of_latest_epoch),
            imbalance: m.map_or(1.0, |m| m.imbalance),
            retransmit_bytes: m.map_or(0, |m| m.retransmit_bytes as u64),
            degraded_lets: m.map_or(0, |m| m.degraded_lets as u64),
        });
    }
    let faults_after = fault_totals(&engine);
    reference_steps(&mut engine, &mut sub);

    // End-of-run checks on the traced engine.
    let (drift, err) = checks::end_of_run(&mut ops, &engine, w, &sub, e0, plan.crash_epoch());

    // --- Layer seconds: self time by span name, per step. -----------------
    let by_step = self_time_by_step(rec.spans());
    let mut layer_steps: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let mut residuals = Vec::with_capacity(records.len());
    let mut telescoping: f64 = 0.0;
    for (k, r) in records.iter().enumerate() {
        let names = &by_step[&(k as u64 + 1)];
        let mut attributed = 0.0;
        for (layer, _) in LAYERS {
            let s = names.get(layer).copied().unwrap_or(0.0) / r.replay_slowdown;
            layer_steps.entry(layer).or_default().push(s);
            attributed += s;
        }
        let self_s: f64 = names
            .iter()
            .filter(|(n, _)| *n != "step" && *n != "replay")
            .map(|(_, s)| s / r.replay_slowdown)
            .sum();
        residuals.push(r.seconds - attributed);
        telescoping = telescoping.max(telescoping_error(r.seconds, self_s, attributed));
    }
    let total = |layer: &str| layer_steps[layer].iter().sum::<f64>();
    for (layer, metric) in LAYERS {
        values.insert(metric, median(&layer_steps[layer]));
    }

    // --- Counts: per-step means. --------------------------------------------
    let n_records = records.len() as f64;
    let mean =
        |f: &dyn Fn(&StepRecord) -> u64| records.iter().map(f).sum::<u64>() as f64 / n_records;
    values.insert("tree.pp_local", mean(&|r| r.replayed.pp_local));
    values.insert("tree.pc_local", mean(&|r| r.replayed.pc_local));
    values.insert("tree.pp_let", mean(&|r| r.replayed.pp_let));
    values.insert("tree.pc_let", mean(&|r| r.replayed.pc_let));
    values.insert("tree.nodes_visited", mean(&|r| r.replayed.nodes_visited));
    values.insert("tree.forced_cuts", mean(&|r| r.replayed.forced_cuts));
    values.insert("domain.lets", mean(&|r| r.replayed.lets));
    values.insert("domain.let_bytes", mean(&|r| r.replayed.let_bytes));
    values.insert(
        "domain.boundary_bytes",
        mean(&|r| r.replayed.boundary_bytes),
    );
    values.insert("net.frames", mean(&|r| r.replayed.frames));
    values.insert("net.wire_bytes", mean(&|r| r.replayed.wire_bytes));
    values.insert("net.retransmit_bytes", mean(&|r| r.retransmit_bytes));
    values.insert("net.degraded_lets", mean(&|r| r.degraded_lets));
    values.insert("obs.spans_per_step", mean(&|r| r.engine_spans));
    values.insert(
        "net.faults_injected",
        (faults_after.0 - faults_before.0) as f64 / n_records,
    );
    values.insert(
        "net.retransmits",
        (faults_after.1 - faults_before.1) as f64 / n_records,
    );
    // Every rank receives every other rank's boundary; LETs cross once.
    let others = w.shape.ranks().saturating_sub(1) as u64;
    values.insert(
        "domain.wire_amplification",
        mean(&|r| r.replayed.let_bytes + r.replayed.boundary_bytes * others)
            / (w.n * PARTICLE_WIRE_SIZE) as f64,
    );
    values.insert(
        "domain.imbalance",
        records.iter().map(|r| r.imbalance).sum::<f64>() / n_records,
    );

    // --- Rates: totals over every traced step. -----------------------------
    let sum = |f: &dyn Fn(&EpochCounts) -> u64| {
        records.iter().map(|r| f(&r.replayed)).sum::<u64>() as f64
    };
    // Keys computed inside `domain.exchange` are timed by its child span.
    values.insert("sfc.keys_per_s", ratio(sum(&|c| c.keys), total("sfc.keys")));
    values.insert(
        "tree.build_particles_per_s",
        ratio(w.n as f64 * n_records, total("tree.build")),
    );
    let walk_s = total("tree.walk_local") + total("tree.walk_let");
    let walk_rate = ratio(sum(&|c| c.interactions()), walk_s);
    values.insert("tree.walk_interactions_per_s", walk_rate);
    values.insert("tree.walk_gflops", ratio(sum(&|c| c.flops()), walk_s) / 1e9);
    values.insert(
        "tree.walk_kernel_fraction",
        ratio(walk_rate, values["tree.kernel_pp_batch_per_s"]),
    );
    let seal_mb_per_s = ratio(sum(&|c| c.wire_bytes), total("net.seal")) / 1e6;
    values.insert("net.seal_mb_per_s", seal_mb_per_s);
    values.insert(
        "net.open_mb_per_s",
        ratio(sum(&|c| c.wire_bytes), total("net.open")) / 1e6,
    );
    values.insert(
        "net.crc_fraction",
        ratio(seal_mb_per_s, values["util.crc64_mb_per_s"]),
    );

    // --- The step as a whole. ----------------------------------------------
    let step_times: Vec<f64> = records.iter().map(|r| r.seconds).collect();
    let step_s = median(&step_times);
    let residual_s = median(&residuals);
    values.insert(if single { "core.step_s" } else { "sim.step_s" }, step_s);
    values.insert(if single { "sim.step_s" } else { "core.step_s" }, 0.0);
    values.insert("sim.residual_s", residual_s);
    values.insert("sim.residual_share", residual_s / step_s);
    values.insert(
        "core.force_share",
        median(&records.iter().map(|r| r.force_share).collect::<Vec<_>>()),
    );
    values.insert(
        "sim.model_step_s",
        records.iter().map(|r| r.report.model_seconds).sum::<f64>() / n_records,
    );
    values.insert("sim.energy_drift", drift);
    values.insert("sim.restores", checks::restores(&engine) as f64);
    values.insert("verify.force_err_p50", err.median);
    values.insert("verify.force_err_p95", err.p95);
    values.insert(
        "obs.record_est_s",
        values["obs.spans_per_step"] * values["obs.span_record_ns"] * 1e-9,
    );
    values.insert("bench.trace_overhead", step_s / median(&reference) - 1.0);
    values.insert("bench.replay_match", f64::from(u8::from(replay_match)));
    values.insert("bench.telescoping_err", telescoping);
    values.insert("bench.traced_steps", records.len() as f64);
    values.insert(
        "bench.host_slowdown",
        median(
            &records
                .iter()
                .map(|r| r.replay_slowdown)
                .collect::<Vec<_>>(),
        ),
    );

    // --- Checkpoint, trace export, telemetry: the cluster's side services. -
    let (mut write_s, mut read_s, mut ckpt_bytes, mut export_s, mut export_mb, mut frames) =
        (0.0, 0.0, 0.0, 0.0, 0.0, 0.0);
    if let Some(c) = engine.cluster() {
        let after = records.len() as u64 + 1;
        let (mut writes, mut reads) = (Vec::new(), Vec::new());
        for _ in 0..CHECKPOINT_REPS {
            let id = rec.open(0, after, "sim.checkpoint_write", None);
            checkpoint::write_checkpoint(c, side_scratch.path()).expect("checkpoint write");
            writes.push(rec.close(id));
            let id = rec.open(0, after, "sim.checkpoint_read", None);
            let ck =
                checkpoint::read_checkpoint_full(side_scratch.path()).expect("checkpoint read");
            reads.push(rec.close(id));
            assert_eq!(ck.particles.len(), w.n, "checkpoint holds every particle");
        }
        write_s = median(&writes);
        read_s = median(&reads);
        ckpt_bytes = dir_bytes(side_scratch.path()) as f64;
        let id = rec.open(0, after, "obs.trace_export", None);
        let json = bonsai_obs::chrome::chrome_trace_json(c.trace());
        export_s = rec.close(id);
        export_mb = json.len() as f64 / 1e6;
        frames = c.stream().map_or(0.0, |t| t.bus().published_total() as f64);
    }
    values.insert("sim.checkpoint_write_s", write_s);
    values.insert("sim.checkpoint_read_s", read_s);
    values.insert("sim.checkpoint_bytes", ckpt_bytes);
    values.insert("obs.trace_export_s", export_s);
    values.insert("obs.trace_export_mb", export_mb);
    values.insert("obs.frames_published", frames);
    drop(engine);

    // --- Comparison engines: two lanes; the same particles on one process. -
    let t2 = comparison_median(w, &ic, plan.seed, 2, side_scratch.path());
    values.insert("par.speedup_t2", step_s / t2);
    values.insert("par.efficiency_t2", step_s / t2 / 2.0);
    let dist_overhead = if single {
        1.0
    } else {
        let alone = Workload {
            shape: Shape::Single,
            ..*w
        };
        step_s / comparison_median(&alone, &ic, plan.seed, 1, side_scratch.path())
    };
    values.insert("sim.dist_overhead_x", dist_overhead);

    (RunResult { ops, values }, rec)
}

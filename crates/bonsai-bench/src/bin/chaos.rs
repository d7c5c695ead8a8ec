//! Chaos harness — seeded fault sweep over the distributed step.
//!
//! Runs the lock-step cluster under increasing message-fault rates (every
//! message-level kind enabled at once), then a crash drill with checkpoint
//! rollback, and prints a recovery-rate table: how many faults were
//! injected, what the recovery machinery did about them, and whether the
//! physics came out whole. Everything is seeded — rerunning with the same
//! `--seed` reproduces every fault and every recovery action exactly.
//!
//! ```text
//! cargo run --release -p bonsai-bench --bin chaos -- --particles 4000 --ranks 6 --steps 10
//! ```

use bonsai_bench::{arg_usize, scratch_dir};
use bonsai_ic::plummer_sphere;
use bonsai_net::{FaultKind, FaultLog, FaultPlan, RecoveryAction};
use bonsai_sim::{Cluster, ClusterConfig, RecoveryConfig};

/// Outcome of one chaos run.
struct Outcome {
    label: String,
    log: FaultLog,
    survived: bool,
    conserved: bool,
    finite: bool,
    degraded_lets: usize,
    retransmit_bytes: usize,
}

fn run_once(
    label: String,
    n: usize,
    ranks: usize,
    steps: usize,
    seed: u64,
    plan: FaultPlan,
    recovery: Option<RecoveryConfig>,
) -> Outcome {
    let ic = plummer_sphere(n, seed);
    let dir = recovery.as_ref().map(|r| r.dir.clone());
    let result = std::panic::catch_unwind(|| {
        let mut c = Cluster::with_faults(ic, ranks, ClusterConfig::default(), plan, recovery);
        let mut degraded = 0;
        let mut retx = 0;
        for _ in 0..steps {
            c.step();
            degraded += c.last_measurements.degraded_lets;
            retx += c.last_measurements.retransmit_bytes;
        }
        let conserved = c.total_particles() == n;
        let finite = c.accelerations_by_id().values().all(|a| a.is_finite());
        (c.fault_log().clone(), conserved, finite, degraded, retx)
    });
    if let Some(dir) = dir {
        let _ = std::fs::remove_dir_all(dir);
    }
    match result {
        Ok((log, conserved, finite, degraded_lets, retransmit_bytes)) => Outcome {
            label,
            log,
            survived: true,
            conserved,
            finite,
            degraded_lets,
            retransmit_bytes,
        },
        Err(_) => Outcome {
            label,
            log: FaultLog::default(),
            survived: false,
            conserved: false,
            finite: false,
            degraded_lets: 0,
            retransmit_bytes: 0,
        },
    }
}

fn main() {
    let n = arg_usize("--particles", 4000);
    let ranks = arg_usize("--ranks", 6);
    let steps = arg_usize("--steps", 10);
    let seed = arg_usize("--seed", 1994) as u64;

    println!("chaos sweep — {n} particles, {ranks} ranks, {steps} steps, seed {seed}\n");

    let mut outcomes = Vec::new();
    for rate in [0.0, 0.01, 0.02, 0.05, 0.10] {
        let mut plan = FaultPlan::new(seed);
        for kind in FaultKind::MESSAGE_KINDS {
            plan = plan.with_rate(kind, rate);
        }
        let dir = scratch_dir("bonsai_chaos_bin");
        outcomes.push(run_once(
            format!("rate {rate:.2}"),
            n,
            ranks,
            steps,
            seed,
            plan,
            Some(RecoveryConfig { dir, every: 2 }),
        ));
    }

    // Crash drill: kill one rank mid-run and recover from checkpoint.
    let crash_epoch = (steps as u64 / 2).max(2);
    let dir = scratch_dir("bonsai_chaos_bin");
    outcomes.push(run_once(
        "crash drill".to_string(),
        n,
        ranks,
        steps,
        seed,
        FaultPlan::new(seed)
            .with_rate(FaultKind::Drop, 0.02)
            .with_stall(1 % ranks, crash_epoch)
            .with_crash(ranks - 1, crash_epoch + 2),
        Some(RecoveryConfig { dir, every: 2 }),
    ));

    println!(
        "{:<12} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8} {:>10}  physics",
        "run", "injected", "retx", "discard", "fallbk", "restore", "retx-B", "recovery"
    );
    for o in &outcomes {
        let injected = o.log.injected.len();
        let retx = o.log.recoveries_of(RecoveryAction::Retransmit);
        let discard = o.log.recoveries_of(RecoveryAction::DiscardCorrupt)
            + o.log.recoveries_of(RecoveryAction::DiscardDuplicate)
            + o.log.recoveries_of(RecoveryAction::DiscardStale);
        let fallback = o.log.recoveries_of(RecoveryAction::BoundaryFallback);
        let restore = o.log.recoveries_of(RecoveryAction::RestoreCheckpoint);
        // A run "recovered" when it survived every injected fault with the
        // physics intact: all particles present, all forces finite.
        let recovered = o.survived && o.conserved && o.finite;
        let physics = if !o.survived {
            "DIED"
        } else if recovered {
            "conserved, finite"
        } else {
            "CORRUPTED"
        };
        println!(
            "{:<12} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8} {:>9}%  {}",
            o.label,
            injected,
            retx,
            discard,
            fallback,
            restore,
            o.retransmit_bytes,
            if recovered { 100 } else { 0 },
            physics
        );
        if o.degraded_lets > 0 {
            println!("{:<12} ({} degraded LET walks)", "", o.degraded_lets);
        }
    }

    if let Some(heavy) = outcomes
        .iter()
        .rev()
        .find(|o| o.survived && o.label.starts_with("rate") && !o.log.injected.is_empty())
    {
        println!("\nper-kind injection counts ({}):", heavy.label);
        for kind in FaultKind::MESSAGE_KINDS {
            println!("  {:<10} {}", kind.to_string(), heavy.log.injected_of(kind));
        }
    }
    println!("\nrerun with the same --seed to reproduce this table exactly.");
}

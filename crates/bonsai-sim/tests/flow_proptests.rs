//! Property-based chaos for the flow ledger: for an *arbitrary* fault plan
//! — background rates on every message kind, a stall, a forced injection
//! and (sometimes) a mid-run crash recovered from checkpoint — every sealed
//! envelope must still reach exactly one terminal outcome, and the physics
//! must come out whole.

use bonsai_ic::plummer_sphere;
use bonsai_net::{FaultKind, FaultPlan, FlowOutcome, Injection};
use bonsai_sim::{Cluster, ClusterConfig, RecoveryConfig};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn flow_ledger_conserves_under_arbitrary_fault_plans(
        seed in any::<u64>(),
        ranks in 2usize..5,
        steps in 3usize..7,
        rate_bits in any::<u64>(),
        stall_rank in 0usize..8,
        stall_epoch in 2u64..8,
        inj_kind in 0usize..6,
        inj_epoch in 2u64..8,
        crash in any::<bool>(),
        crash_epoch in 3u64..8,
    ) {
        let mut plan = FaultPlan::new(seed);
        for (i, kind) in FaultKind::MESSAGE_KINDS.into_iter().enumerate() {
            // Per-kind background rate in [0, 0.06), carved from seed bits.
            let rate = ((rate_bits >> (8 * i)) & 0xFF) as f64 / 255.0 * 0.06;
            plan = plan.with_rate(kind, rate);
        }
        plan = plan.with_stall(stall_rank % ranks, stall_epoch);
        plan = plan.with_injection(Injection {
            epoch: inj_epoch,
            from: Some(0),
            to: None,
            kind: None,
            fault: FaultKind::MESSAGE_KINDS[inj_kind],
            attempts: 0..1,
        });
        if crash && ranks > 1 {
            plan = plan.with_crash(1 + (seed as usize) % (ranks - 1), crash_epoch);
        }

        // A checkpoint is always configured so even a declared-dead rank
        // recovers; the ledger must conserve across the rollback too.
        let dir = std::env::temp_dir().join(format!("bonsai_flow_prop_{seed:x}"));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let n = 240;
        let mut c = Cluster::with_faults(
            plummer_sphere(n, seed ^ 0x5EED),
            ranks,
            ClusterConfig::default(),
            plan,
            Some(RecoveryConfig { dir: dir.clone(), every: 2 }),
        );
        for _ in 0..steps {
            c.step();
        }

        let k = c.flow_conservation();
        prop_assert!(
            k.holds(),
            "ledger does not conserve: {} sealed vs {} delivered + {} fallback \
             + {} dead (+{} pending)",
            k.sealed, k.delivered, k.fallback, k.dead, k.pending
        );
        prop_assert!(k.sealed > 0, "run sealed no flows");

        // Per-record sanity: ids dense from the first held id, which the
        // evicted count precedes; at least one attempt; no flow left
        // pending after the run.
        let ledger = c.flow_ledger();
        let first = k.sealed - ledger.len() as u64 + 1;
        for (i, r) in ledger.records().iter().enumerate() {
            prop_assert_eq!(r.id, first + i as u64, "flow ids must be dense");
            prop_assert!(r.attempts >= 1);
            prop_assert!(
                !matches!(r.outcome, FlowOutcome::Pending),
                "flow {} still pending after the run", r.id
            );
        }

        // The chaos did not corrupt the physics.
        prop_assert_eq!(c.total_particles(), n);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

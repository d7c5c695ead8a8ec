//! Imbalance and straggler metrics across ranks.
//!
//! §III-B1 balances *flops*, not particles: a step is only as fast as its
//! slowest rank, so the interesting statistic is max-over-ranks relative
//! to the mean (how much wall time imbalance costs), with the worst rank
//! named so the regression report can say *who* was slow, not just that
//! someone was.

use std::collections::BTreeMap;

use crate::span::{ArgValue, Span, TraceStore};

/// Per-phase cross-rank statistics for one step.
#[derive(Clone, Debug)]
pub struct PhaseStats {
    /// Phase name.
    pub phase: String,
    /// Per-rank total seconds, max across ranks.
    pub max: f64,
    /// Mean across ranks (ranks without the phase count as 0).
    pub mean: f64,
    /// Rank holding the maximum (lowest such rank on ties).
    pub worst_rank: u32,
}

impl PhaseStats {
    /// Imbalance as max/mean (1.0 = perfectly balanced).
    pub fn max_over_mean(&self) -> f64 {
        if self.mean > 0.0 {
            self.max / self.mean
        } else {
            1.0
        }
    }
}

/// Flop-balance residual recomputed from gravity-span `flops` annotations.
#[derive(Clone, Debug)]
pub struct FlopBalance {
    /// Per-rank walk flops (ascending rank order).
    pub per_rank: Vec<u64>,
    /// max/mean residual (1.0 = the balancer's target).
    pub residual: f64,
    /// Rank holding the maximum.
    pub worst_rank: u32,
}

/// The ranks with a span among `spans`, ascending, each with its index.
fn ranks_of(spans: &[Span]) -> (Vec<u32>, BTreeMap<u32, usize>) {
    let mut ranks: Vec<u32> = spans.iter().map(|s| s.rank).collect();
    ranks.sort_unstable();
    ranks.dedup();
    let idx = ranks.iter().enumerate().map(|(i, &r)| (r, i)).collect();
    (ranks, idx)
}

/// Measured wall time of `step`: max span end − min span start (`None`
/// when the store holds no spans for it).
pub fn step_wall_time(store: &TraceStore, step: u64) -> Option<f64> {
    let mut lo = f64::INFINITY;
    let mut hi = f64::NEG_INFINITY;
    for s in store.step_records(step).spans {
        lo = lo.min(s.start);
        hi = hi.max(s.end);
    }
    (hi > lo).then_some(hi - lo)
}

/// Per-phase cross-rank statistics for `step`, one entry per phase name in
/// deterministic (lexicographic) order. A rank's time in a phase is the sum
/// of its spans with that name; a rank of the step missing the phase
/// contributes 0 (a rank with no span in the step is not counted).
pub fn phase_stats(store: &TraceStore, step: u64) -> Vec<PhaseStats> {
    let spans = store.step_records(step).spans;
    let (ranks, idx) = ranks_of(spans);
    let mut per_phase: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for s in spans {
        per_phase
            .entry(s.name.clone())
            .or_insert_with(|| vec![0.0; ranks.len()])[idx[&s.rank]] += s.end - s.start;
    }
    per_phase
        .into_iter()
        .map(|(phase, durs)| {
            let mut worst = 0usize;
            for (i, &d) in durs.iter().enumerate() {
                if d > durs[worst] {
                    worst = i;
                }
            }
            PhaseStats {
                phase,
                max: durs[worst],
                mean: durs.iter().sum::<f64>() / durs.len() as f64,
                worst_rank: ranks[worst],
            }
        })
        .collect()
}

/// Recompute the flop balance of `step` from the `flops` annotations the
/// device model attaches to gravity spans. Returns `None` when no span of
/// the step carries a `flops` argument. Only the ranks with a span in the
/// step are counted.
pub fn flop_balance(store: &TraceStore, step: u64) -> Option<FlopBalance> {
    let spans = store.step_records(step).spans;
    let (ranks, idx) = ranks_of(spans);
    let mut per_rank = vec![0u64; ranks.len()];
    let mut any = false;
    for s in spans {
        for (k, v) in &s.args {
            if *k == "flops" {
                if let ArgValue::U64(f) = v {
                    per_rank[idx[&s.rank]] += f;
                    any = true;
                }
            }
        }
    }
    if !any {
        return None;
    }
    let mut worst = 0usize;
    for (i, &f) in per_rank.iter().enumerate() {
        if f > per_rank[worst] {
            worst = i;
        }
    }
    let mean = per_rank.iter().sum::<u64>() as f64 / per_rank.len() as f64;
    let residual = if mean > 0.0 {
        per_rank[worst] as f64 / mean
    } else {
        1.0
    };
    Some(FlopBalance {
        residual,
        worst_rank: ranks[worst],
        per_rank,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::{Lane, TraceStore};

    fn skewed_store() -> TraceStore {
        let mut t = TraceStore::new();
        // Four ranks; rank 2 is a 2× straggler in "local".
        for r in 0..4u32 {
            let d = if r == 2 { 2.0 } else { 1.0 };
            let id = t.span(r, 1, Lane::Gpu, "local", 0.0, d);
            t.arg_u64(id, "flops", if r == 2 { 200 } else { 100 });
            t.span(r, 1, Lane::Gpu, "sort", d, d + 0.5);
        }
        t
    }

    #[test]
    fn phase_stats_name_the_straggler() {
        let stats = phase_stats(&skewed_store(), 1);
        assert_eq!(stats.len(), 2); // lexicographic: local, sort
        let local = &stats[0];
        assert_eq!(local.phase, "local");
        assert_eq!(local.worst_rank, 2);
        assert!((local.max - 2.0).abs() < 1e-12);
        assert!((local.mean - 1.25).abs() < 1e-12);
        assert!((local.max_over_mean() - 1.6).abs() < 1e-12);
        // Sort is balanced.
        assert!((stats[1].max_over_mean() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn flop_balance_reads_span_annotations() {
        let fb = flop_balance(&skewed_store(), 1).unwrap();
        assert_eq!(fb.per_rank, vec![100, 100, 200, 100]);
        assert_eq!(fb.worst_rank, 2);
        assert!((fb.residual - 1.6).abs() < 1e-12);
    }

    #[test]
    fn flop_balance_none_without_annotations() {
        let mut t = TraceStore::new();
        t.span(0, 1, Lane::Gpu, "sort", 0.0, 1.0);
        assert!(flop_balance(&t, 1).is_none());
    }

    #[test]
    fn wall_time_spans_min_to_max() {
        let t = skewed_store();
        assert!((step_wall_time(&t, 1).unwrap() - 2.5).abs() < 1e-12);
        assert!(step_wall_time(&t, 9).is_none());
    }

    #[test]
    fn a_rank_that_left_the_world_is_not_a_zero() {
        // Step 1 holds ranks 0–2; step 2, after a shrink, ranks 0–1 with
        // 100 flops each: step 2 is balanced.
        let mut t = TraceStore::new();
        for (step, ranks) in [(1, 3), (2, 2)] {
            for r in 0..ranks {
                let id = t.span(r, step, Lane::Gpu, "local", 0.0, 1.0);
                t.arg_u64(id, "flops", 100);
            }
        }
        let fb = flop_balance(&t, 2).unwrap();
        assert_eq!((fb.per_rank, fb.residual), (vec![100, 100], 1.0));
        let stats = phase_stats(&t, 2);
        assert_eq!((stats[0].mean, stats[0].max_over_mean()), (1.0, 1.0));
        assert_eq!(flop_balance(&t, 1).unwrap().per_rank, vec![100, 100, 100]);
    }

    #[test]
    fn empty_store_yields_no_stats() {
        assert!(phase_stats(&TraceStore::new(), 1).is_empty());
    }
}

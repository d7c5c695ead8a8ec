//! Flop-weighted load balancing (§III-B1).
//!
//! The paper balances "the number of floating point operations executed by
//! the GPU tree-walk kernel, with the restriction that a process cannot have
//! 30% more than the average number of particles per GPU". We implement both
//! halves:
//!
//! * [`weighted_cuts`] — cut a (key, weight) sequence into pieces of equal
//!   total weight, where the weight of a particle is the flop count its
//!   group incurred during the previous step's walk;
//! * [`enforce_particle_cap`] — post-adjust the cuts so no piece exceeds
//!   `cap × mean` particles (paper: cap = 1.3).

use bonsai_sfc::range::{ranges_from_cuts, KeyRange};

/// The paper's particle-count cap relative to the mean.
pub const PAPER_CAP: f64 = 1.3;

/// Cut a *sorted* `(key, weight)` sequence into `p` pieces of near-equal
/// total weight. Returns `p` ranges.
pub fn weighted_cuts(sorted: &[(u64, f64)], p: usize) -> Vec<KeyRange> {
    assert!(p > 0);
    let total: f64 = sorted.iter().map(|&(_, w)| w).sum();
    if sorted.is_empty() || total <= 0.0 {
        return KeyRange::everything().split_even(p);
    }
    let target = total / p as f64;
    let mut cuts = Vec::with_capacity(p - 1);
    let mut acc = 0.0;
    let mut next = target;
    for &(k, w) in sorted {
        if cuts.len() == p - 1 {
            break;
        }
        acc += w;
        while acc >= next && cuts.len() < p - 1 {
            cuts.push(k);
            next += target;
        }
    }
    while cuts.len() < p - 1 {
        cuts.push(sorted.last().unwrap().0);
    }
    ranges_from_cuts(&cuts)
}

/// Enforce the particle cap: move cut keys so that no piece holds more than
/// `cap × (n / p)` of the keys in `sorted_keys`. Overflow is shed to the
/// following piece (a single left-to-right sweep, as in a prefix rebalance).
pub fn enforce_particle_cap(ranges: &[KeyRange], sorted_keys: &[u64], cap: f64) -> Vec<KeyRange> {
    let p = ranges.len();
    if p <= 1 || sorted_keys.is_empty() {
        return ranges.to_vec();
    }
    let n = sorted_keys.len();
    let max_per = ((cap * n as f64 / p as f64).floor() as usize).max(1);

    // Current piece populations via binary search on the sorted keys.
    let mut cuts: Vec<u64> = ranges[..p - 1].iter().map(|r| r.end).collect();
    let mut begin_idx = 0usize;
    for c in cuts.iter_mut() {
        let mut end_idx = sorted_keys.partition_point(|&k| k < *c);
        if end_idx - begin_idx > max_per {
            end_idx = begin_idx + max_per;
            *c = sorted_keys[end_idx]; // first key of the next piece
        }
        begin_idx = end_idx.max(begin_idx);
    }
    // Keep cuts monotone (shedding can only move cuts left-to-right earlier,
    // but clamp defensively).
    for i in 1..cuts.len() {
        if cuts[i] < cuts[i - 1] {
            cuts[i] = cuts[i - 1];
        }
    }
    ranges_from_cuts(&cuts)
}

/// Total weight captured by each range of a *sorted* `(key, weight)`
/// sequence, normalized so the shares sum to 1. All-zero (or empty) input
/// yields perfectly even shares — the balancer has nothing to act on.
pub fn weight_shares(sorted: &[(u64, f64)], ranges: &[KeyRange]) -> Vec<f64> {
    let p = ranges.len().max(1);
    let total: f64 = sorted.iter().map(|&(_, w)| w).sum();
    if sorted.is_empty() || total <= 0.0 {
        return vec![1.0 / p as f64; ranges.len()];
    }
    ranges
        .iter()
        .map(|r| {
            let lo = sorted.partition_point(|&(k, _)| k < r.start);
            let hi = sorted.partition_point(|&(k, _)| k < r.end);
            sorted[lo..hi].iter().map(|&(_, w)| w).sum::<f64>() / total
        })
        .collect()
}

/// Imbalance of a share vector: max share over mean share (1.0 = perfectly
/// balanced). This is the flop-balance residual the paper's balancer drives
/// toward 1; [`weighted_cuts`] should keep it near 1 up to key granularity.
pub fn share_imbalance(shares: &[f64]) -> f64 {
    if shares.is_empty() {
        return 1.0;
    }
    let mean = shares.iter().sum::<f64>() / shares.len() as f64;
    if mean <= 0.0 {
        return 1.0;
    }
    shares.iter().cloned().fold(0.0f64, f64::max) / mean
}

/// Population of each range given the full sorted key multiset.
pub fn populations(ranges: &[KeyRange], sorted_keys: &[u64]) -> Vec<usize> {
    ranges
        .iter()
        .map(|r| {
            sorted_keys.partition_point(|&k| k < r.end) - sorted_keys.partition_point(|&k| k < r.start)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weighted_cuts_equalize_weight() {
        // Keys 0..1000, weight of key k is 1 for k<500 and 3 for k>=500:
        // total = 500 + 1500 = 2000; two pieces of 1000 ⇒ cut near k=833.
        let sorted: Vec<(u64, f64)> = (0..1000u64)
            .map(|k| (k, if k < 500 { 1.0 } else { 3.0 }))
            .collect();
        let ranges = weighted_cuts(&sorted, 2);
        assert_eq!(ranges.len(), 2);
        let cut = ranges[0].end;
        assert!((600..700).contains(&cut), "cut at {cut}, expected ~666");
        let w0: f64 = sorted.iter().filter(|&&(k, _)| k < cut).map(|&(_, w)| w).sum();
        assert!((w0 - 1000.0).abs() < 10.0, "piece weight {w0}");
    }

    #[test]
    fn uniform_weights_give_even_split() {
        let sorted: Vec<(u64, f64)> = (0..900u64).map(|k| (k * 100, 1.0)).collect();
        let keys: Vec<u64> = sorted.iter().map(|&(k, _)| k).collect();
        let ranges = weighted_cuts(&sorted, 9);
        let pops = populations(&ranges, &keys);
        for &c in &pops {
            assert!((95..=105).contains(&c), "pop {c}");
        }
    }

    #[test]
    fn cap_is_enforced() {
        // Deliberately terrible cuts: everything in piece 0.
        let keys: Vec<u64> = (0..1000u64).collect();
        let bad = ranges_from_cuts(&[999, 1000, 1001]); // p = 4
        let fixed = enforce_particle_cap(&bad, &keys, PAPER_CAP);
        let pops = populations(&fixed, &keys);
        let mean = 1000.0 / 4.0;
        for (i, &c) in pops.iter().enumerate() {
            if i < pops.len() - 1 {
                assert!(
                    c as f64 <= PAPER_CAP * mean + 1.0,
                    "piece {i} pop {c} exceeds cap"
                );
            }
        }
        // total conserved
        assert_eq!(pops.iter().sum::<usize>(), 1000);
    }

    #[test]
    fn cap_noop_when_already_balanced() {
        let keys: Vec<u64> = (0..1000u64).collect();
        let even = KeyRange::new(0, 1000).split_even(4);
        // widen to full key space partition
        let cuts: Vec<u64> = even[..3].iter().map(|r| r.end).collect();
        let ranges = ranges_from_cuts(&cuts);
        let fixed = enforce_particle_cap(&ranges, &keys, PAPER_CAP);
        assert_eq!(populations(&fixed, &keys), populations(&ranges, &keys));
    }

    #[test]
    fn weight_shares_normalize_and_balance() {
        let sorted: Vec<(u64, f64)> = (0..1000u64)
            .map(|k| (k, if k < 500 { 1.0 } else { 3.0 }))
            .collect();
        let ranges = weighted_cuts(&sorted, 4);
        let shares = weight_shares(&sorted, &ranges);
        assert_eq!(shares.len(), 4);
        let sum: f64 = shares.iter().sum();
        assert!((sum - 1.0).abs() < 1e-12, "shares sum {sum}");
        // Cuts follow the weight profile, so the residual stays near 1.
        let res = share_imbalance(&shares);
        assert!((1.0..1.05).contains(&res), "residual {res}");
    }

    #[test]
    fn share_imbalance_flags_skew() {
        assert!((share_imbalance(&[0.25, 0.25, 0.25, 0.25]) - 1.0).abs() < 1e-12);
        assert!((share_imbalance(&[0.7, 0.1, 0.1, 0.1]) - 2.8).abs() < 1e-12);
        assert_eq!(share_imbalance(&[]), 1.0);
        // Even shares for degenerate (all-zero) weights.
        let ranges = KeyRange::everything().split_even(3);
        let shares = weight_shares(&[(1, 0.0), (2, 0.0)], &ranges);
        assert!((share_imbalance(&shares) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_weights_fall_back_to_even_split() {
        let ranges = weighted_cuts(&[], 5);
        assert_eq!(ranges.len(), 5);
        assert_eq!(ranges[0].start, 0);
        assert_eq!(ranges.last().unwrap().end, bonsai_sfc::KEY_END);
    }
}

//! Domain decomposition via sampling (§III-B1).
//!
//! The decomposition cuts the sorted global key sequence into `p` equal-weight
//! pieces. Gathering *every* key is out of the question, so cut positions are
//! estimated from samples:
//!
//! * [`serial_cuts`] — the original method of Blackston & Suel: every rank
//!   systematically samples its keys at a fixed rate and ships them to one
//!   DD-process, which sorts and cuts. Its gather size grows linearly with
//!   the rank count, the serial bottleneck the paper identifies.
//! * [`parallel_cuts`] — the paper's two-level scheme: factor `p = px × py`.
//!   A first, coarse sample round cuts the curve into `px` super-domains; a
//!   second round bins finer samples by super-domain so `px` DD-processes
//!   each cut their own piece into `py` parts. No single process ever
//!   gathers more than `O(total_samples / px)` keys.
//!
//! Both return [`SamplingStats`] whose `max_dd_gather` is the quantity the
//! `paper sampling` row of `bonsai-bench` tabulates against rank count.

use bonsai_sfc::range::{ranges_from_cuts, KeyRange};
use bonsai_util::rng::Xoshiro256;

/// Cost accounting of a decomposition round.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SamplingStats {
    /// Largest number of sample keys any single DD-process had to gather,
    /// sort and cut — the serial bottleneck metric.
    pub max_dd_gather: usize,
    /// Total samples shipped across the machine.
    pub total_samples: usize,
    /// Communication rounds used.
    pub rounds: usize,
}

/// Systematic (deterministic, evenly spaced) sample of `count` keys from a
/// sorted slice. Returns fewer if the slice is shorter than `count`.
pub fn systematic_sample(sorted_keys: &[u64], count: usize) -> Vec<u64> {
    if sorted_keys.is_empty() || count == 0 {
        return Vec::new();
    }
    if sorted_keys.len() <= count {
        return sorted_keys.to_vec();
    }
    (0..count)
        .map(|i| sorted_keys[(i * sorted_keys.len()) / count + sorted_keys.len() / (2 * count)])
        .collect()
}

/// Cut a sorted sample sequence into `p` equal pieces; returns the `p - 1`
/// interior cut keys.
fn cuts_from_sorted_samples(samples: &[u64], p: usize) -> Vec<u64> {
    assert!(p > 0);
    (1..p)
        .map(|i| {
            if samples.is_empty() {
                0
            } else {
                samples[(i * samples.len() / p).min(samples.len() - 1)]
            }
        })
        .collect()
}

/// The original serial sampling method: one DD-process gathers
/// `samples_per_rank` keys from every rank.
pub fn serial_cuts(
    per_rank_keys: &[Vec<u64>],
    p: usize,
    samples_per_rank: usize,
) -> (Vec<KeyRange>, SamplingStats) {
    assert!(p > 0);
    let mut samples: Vec<u64> = Vec::with_capacity(per_rank_keys.len() * samples_per_rank);
    for keys in per_rank_keys {
        samples.extend(systematic_sample(keys, samples_per_rank));
    }
    let total = samples.len();
    samples.sort_unstable();
    let cuts = cuts_from_sorted_samples(&samples, p);
    (
        ranges_from_cuts(&cuts),
        SamplingStats {
            max_dd_gather: total,
            total_samples: total,
            rounds: 1,
        },
    )
}

/// The paper's two-level parallel sampling method with `p = px × py`.
///
/// `s1` is the per-rank sample count of the coarse round (rate R1), `s2` of
/// the fine round (rate R2).
pub fn parallel_cuts(
    per_rank_keys: &[Vec<u64>],
    px: usize,
    py: usize,
    s1: usize,
    s2: usize,
) -> (Vec<KeyRange>, SamplingStats) {
    assert!(px > 0 && py > 0);

    // Round 1: coarse cut into px super-domains at DD-process 0.
    let mut coarse: Vec<u64> = Vec::with_capacity(per_rank_keys.len() * s1);
    for keys in per_rank_keys {
        coarse.extend(systematic_sample(keys, s1));
    }
    let round1_gather = coarse.len();
    coarse.sort_unstable();
    let super_cuts = cuts_from_sorted_samples(&coarse, px); // px-1 boundaries

    // Round 2: fine samples, binned by super-domain; DD-process j gathers
    // bin j from everyone and cuts it into py pieces.
    let mut bins: Vec<Vec<u64>> = vec![Vec::new(); px];
    let mut round2_total = 0usize;
    for keys in per_rank_keys {
        for k in systematic_sample(keys, s2) {
            let j = super_cuts.partition_point(|&c| c <= k);
            bins[j].push(k);
            round2_total += 1;
        }
    }
    let max_bin = bins.iter().map(Vec::len).max().unwrap_or(0);
    let mut cuts: Vec<u64> = Vec::with_capacity(px * py - 1);
    for (j, bin) in bins.iter_mut().enumerate() {
        bin.sort_unstable();
        let inner = cuts_from_sorted_samples(bin, py);
        // Clamp inner cuts inside the super-domain so the final partition is
        // monotone even with skewed bins.
        let lo = if j == 0 { 0 } else { super_cuts[j - 1] };
        let hi = if j == px - 1 { u64::MAX } else { super_cuts[j] };
        for c in inner {
            cuts.push(c.clamp(lo, hi));
        }
        if j < px - 1 {
            cuts.push(super_cuts[j]);
        }
    }
    (
        ranges_from_cuts(&cuts),
        SamplingStats {
            max_dd_gather: round1_gather.max(max_bin),
            total_samples: round1_gather + round2_total,
            rounds: 2,
        },
    )
}

/// Quality metric: given the true per-rank key multiset and a candidate
/// partition, the max/mean particle imbalance the partition would produce.
pub fn partition_imbalance(per_rank_keys: &[Vec<u64>], ranges: &[KeyRange]) -> f64 {
    let mut counts = vec![0usize; ranges.len()];
    for keys in per_rank_keys {
        for &k in keys {
            counts[bonsai_sfc::range::find_owner(ranges, k)] += 1;
        }
    }
    let total: usize = counts.iter().sum();
    if total == 0 {
        return 0.0;
    }
    let mean = total as f64 / ranges.len() as f64;
    counts.iter().map(|&c| c as f64).fold(0.0f64, f64::max) / mean
}

/// Clustered synthetic key sets, one sorted run per rank: each rank draws
/// `per_rank` keys within `spread` of its own random centre, mimicking
/// spatially clustered particles after an exchange.
pub fn clustered_keys(ranks: usize, per_rank: usize, spread: u64, seed: u64) -> Vec<Vec<u64>> {
    let mut rng = Xoshiro256::seed_from(seed);
    (0..ranks)
        .map(|_| {
            let center = rng.next_u64() >> 1;
            let mut keys: Vec<u64> = (0..per_rank)
                .map(|_| {
                    let off = (rng.uniform() * spread as f64) as u64;
                    center.saturating_sub(spread / 2).saturating_add(off) & (bonsai_sfc::KEY_END - 1)
                })
                .collect();
            keys.sort_unstable();
            keys
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn clustered_keys(ranks: usize, per_rank: usize, seed: u64) -> Vec<Vec<u64>> {
        super::clustered_keys(ranks, per_rank, 1 << 55, seed)
    }

    #[test]
    fn systematic_sample_is_sorted_subset() {
        let keys: Vec<u64> = (0..1000u64).map(|i| i * 7).collect();
        let s = systematic_sample(&keys, 10);
        assert_eq!(s.len(), 10);
        assert!(s.windows(2).all(|w| w[0] <= w[1]));
        for k in &s {
            assert!(keys.binary_search(k).is_ok());
        }
        // Degenerate cases.
        assert!(systematic_sample(&[], 5).is_empty());
        assert_eq!(systematic_sample(&keys, 5000).len(), 1000);
    }

    #[test]
    fn serial_cuts_balance_uniform_data() {
        let data = clustered_keys(16, 2000, 1);
        let (ranges, stats) = serial_cuts(&data, 16, 64);
        assert_eq!(ranges.len(), 16);
        assert_eq!(stats.max_dd_gather, 16 * 64);
        let imb = partition_imbalance(&data, &ranges);
        assert!(imb < 1.35, "serial imbalance {imb}");
    }

    #[test]
    fn parallel_cuts_balance_matches_serial() {
        let data = clustered_keys(16, 2000, 2);
        let (serial, _) = serial_cuts(&data, 16, 64);
        let (parallel, _) = parallel_cuts(&data, 4, 4, 16, 64);
        assert_eq!(parallel.len(), 16);
        let imb_s = partition_imbalance(&data, &serial);
        let imb_p = partition_imbalance(&data, &parallel);
        assert!(imb_p < 1.5, "parallel imbalance {imb_p} (serial {imb_s})");
    }

    #[test]
    fn parallel_sampling_shrinks_dd_gather() {
        // The whole point of the two-level method: the biggest gather any
        // DD-process performs is much smaller than the serial gather.
        let data = clustered_keys(64, 500, 3);
        let (_, st_serial) = serial_cuts(&data, 64, 64);
        let (_, st_par) = parallel_cuts(&data, 8, 8, 8, 64);
        assert!(
            st_par.max_dd_gather * 2 < st_serial.max_dd_gather,
            "parallel {} vs serial {}",
            st_par.max_dd_gather,
            st_serial.max_dd_gather
        );
        assert_eq!(st_par.rounds, 2);
        assert_eq!(st_serial.rounds, 1);
    }

    #[test]
    fn partition_is_monotone_and_complete() {
        let data = clustered_keys(9, 300, 4);
        let (ranges, _) = parallel_cuts(&data, 3, 3, 8, 32);
        assert_eq!(ranges[0].start, 0);
        assert_eq!(ranges.last().unwrap().end, bonsai_sfc::KEY_END);
        for w in ranges.windows(2) {
            assert_eq!(w[0].end, w[1].start);
        }
    }

    #[test]
    fn single_rank_partition() {
        let data = clustered_keys(1, 100, 5);
        let (ranges, _) = serial_cuts(&data, 1, 16);
        assert_eq!(ranges.len(), 1);
        assert_eq!(ranges[0], KeyRange::everything());
    }
}

//! Order statistics and process-memory parsing used by every metric.

use bonsai_util::stats::percentile_sorted;

/// Linear-interpolated quantile `q ∈ [0, 1]` of `values` (need not be
/// sorted), so `quantile(v, 0.5)` is the usual median. Panics on an empty
/// slice: every caller measures at least one sample.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("non-finite sample"));
    percentile_sorted(&v, q)
}

/// Median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Step-time creep: median of the second half of `steps` over the median
/// of the first half. 1.0 means the run neither slowed down nor sped up.
/// (Halves, not outer quarters: on a noisy host the larger samples resolve
/// a given growth per step better than the longer lever arm does.)
pub fn creep(steps: &[f64]) -> f64 {
    let h = (steps.len() / 2).max(1);
    median(&steps[steps.len() - h..]) / median(&steps[..h])
}

/// Relative disagreement of two measurements of the same quantity.
pub fn rel_spread(a: f64, b: f64) -> f64 {
    let scale = a.abs().max(b.abs());
    if scale == 0.0 {
        0.0
    } else {
        (a - b).abs() / scale
    }
}

/// `VmHWM` (peak resident set) in MB from the text of `/proc/<pid>/status`.
pub fn parse_vm_hwm_mb(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Peak resident set of this process so far, in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    parse_vm_hwm_mb(&status).expect("VmHWM line in /proc/self/status")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert!((quantile(&hundred, 0.9) - 90.1).abs() < 1e-12);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn creep_compares_second_half_to_first() {
        let flat = vec![1.0; 40];
        assert_eq!(creep(&flat), 1.0);
        let mut rising = vec![1.0; 20];
        rising.extend(vec![2.0; 20]);
        assert_eq!(creep(&rising), 2.0);
        // The middle sample of an odd count belongs to neither half.
        assert_eq!(creep(&[1.0, 1.0, 50.0, 3.0, 3.0]), 3.0);
        // One outlier in a half does not move its median.
        let mut spiky = vec![1.0; 40];
        spiky[35] = 9.0;
        assert_eq!(creep(&spiky), 1.0);
        assert_eq!(creep(&[2.0, 3.0]), 1.5);
        assert_eq!(creep(&[2.0]), 1.0);
    }

    #[test]
    fn spread_is_symmetric_and_relative() {
        assert_eq!(rel_spread(1.0, 1.0), 0.0);
        assert_eq!(rel_spread(0.0, 0.0), 0.0);
        assert!((rel_spread(100.0, 90.0) - 0.1).abs() < 1e-12);
        assert_eq!(rel_spread(90.0, 100.0), rel_spread(100.0, 90.0));
    }

    #[test]
    fn vm_hwm_parses_proc_status() {
        let status = "Name:\tbench\nVmPeak:\t  999999 kB\nVmHWM:\t  204800 kB\nVmRSS:\t  1024 kB\n";
        assert_eq!(parse_vm_hwm_mb(status), Some(200.0));
        assert_eq!(parse_vm_hwm_mb("Name:\tbench\n"), None);
        assert_eq!(parse_vm_hwm_mb("VmHWM:\tgarbage kB\n"), None);
        assert!(peak_rss_mb() > 0.0);
    }
}

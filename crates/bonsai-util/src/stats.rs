//! Running statistics and histograms.
//!
//! Used by the analysis crate (velocity-structure histograms for Fig. 3, bar
//! strength time series) and by the benchmark harness (per-rank load-balance
//! statistics and interaction-count summaries for Table II).

/// Welford-style running mean/variance/min/max accumulator.
#[derive(Clone, Debug, Default)]
pub struct Running {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Running {
    /// Empty accumulator.
    pub fn new() -> Self {
        Self {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Add an observation.
    pub fn add(&mut self, x: f64) {
        self.n += 1;
        let d = x - self.mean;
        self.mean += d / self.n as f64;
        self.m2 += d * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean (0 for empty).
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Population variance (0 for n < 2).
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / self.n as f64
        }
    }

    /// Population standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Minimum observation (+inf for empty).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Maximum observation (-inf for empty).
    pub fn max(&self) -> f64 {
        self.max
    }

    /// max / mean — the paper's load-imbalance metric (§III-B1 caps a rank at
    /// 1.3× the mean particle count).
    pub fn imbalance(&self) -> f64 {
        if self.n == 0 || self.mean == 0.0 {
            0.0
        } else {
            self.max / self.mean
        }
    }

    /// Fold observations from another accumulator.
    pub fn merge(&mut self, o: &Running) {
        if o.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = o.clone();
            return;
        }
        let n = (self.n + o.n) as f64;
        let d = o.mean - self.mean;
        let mean = self.mean + d * o.n as f64 / n;
        let m2 = self.m2 + o.m2 + d * d * self.n as f64 * o.n as f64 / n;
        self.n += o.n;
        self.mean = mean;
        self.m2 = m2;
        self.min = self.min.min(o.min);
        self.max = self.max.max(o.max);
    }
}

/// A fixed-range 1D histogram.
#[derive(Clone, Debug)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    bins: Vec<u64>,
    under: u64,
    over: u64,
}

impl Histogram {
    /// Histogram over `[lo, hi)` with `nbins` equal bins.
    pub fn new(lo: f64, hi: f64, nbins: usize) -> Self {
        assert!(hi > lo && nbins > 0);
        Self {
            lo,
            hi,
            bins: vec![0; nbins],
            under: 0,
            over: 0,
        }
    }

    /// Add an observation.
    pub fn add(&mut self, x: f64) {
        if x < self.lo {
            self.under += 1;
        } else if x >= self.hi {
            self.over += 1;
        } else {
            let f = (x - self.lo) / (self.hi - self.lo);
            let i = ((f * self.bins.len() as f64) as usize).min(self.bins.len() - 1);
            self.bins[i] += 1;
        }
    }

    /// Raw bin counts.
    pub fn bins(&self) -> &[u64] {
        &self.bins
    }

    /// Bin centre of bin `i`.
    pub fn center(&self, i: usize) -> f64 {
        let w = (self.hi - self.lo) / self.bins.len() as f64;
        self.lo + (i as f64 + 0.5) * w
    }

    /// Count below range / above range.
    pub fn outliers(&self) -> (u64, u64) {
        (self.under, self.over)
    }

    /// Total in-range count.
    pub fn total(&self) -> u64 {
        self.bins.iter().sum()
    }
}

/// A fixed-range 2D histogram (used for the v_r–v_φ plane of Fig. 3 and for
/// face-on surface-density maps).
#[derive(Clone, Debug)]
pub struct Histogram2d {
    x_lo: f64,
    x_hi: f64,
    y_lo: f64,
    y_hi: f64,
    nx: usize,
    ny: usize,
    bins: Vec<u64>,
}

impl Histogram2d {
    /// Histogram over `[x_lo,x_hi) × [y_lo,y_hi)` with `nx × ny` bins.
    pub fn new(x_lo: f64, x_hi: f64, nx: usize, y_lo: f64, y_hi: f64, ny: usize) -> Self {
        assert!(x_hi > x_lo && y_hi > y_lo && nx > 0 && ny > 0);
        Self {
            x_lo,
            x_hi,
            y_lo,
            y_hi,
            nx,
            ny,
            bins: vec![0; nx * ny],
        }
    }

    /// Add an observation; out-of-range points are dropped.
    pub fn add(&mut self, x: f64, y: f64) {
        if x < self.x_lo || x >= self.x_hi || y < self.y_lo || y >= self.y_hi {
            return;
        }
        let fx = (x - self.x_lo) / (self.x_hi - self.x_lo);
        let fy = (y - self.y_lo) / (self.y_hi - self.y_lo);
        let ix = ((fx * self.nx as f64) as usize).min(self.nx - 1);
        let iy = ((fy * self.ny as f64) as usize).min(self.ny - 1);
        self.bins[iy * self.nx + ix] += 1;
    }

    /// Grid dimensions `(nx, ny)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.nx, self.ny)
    }

    /// Count in cell `(ix, iy)`.
    pub fn get(&self, ix: usize, iy: usize) -> u64 {
        self.bins[iy * self.nx + ix]
    }

    /// Raw row-major counts.
    pub fn bins(&self) -> &[u64] {
        &self.bins
    }

    /// Largest cell count.
    pub fn max_count(&self) -> u64 {
        self.bins.iter().copied().max().unwrap_or(0)
    }

    /// Total in-range count.
    pub fn total(&self) -> u64 {
        self.bins.iter().sum()
    }
}

/// Percentile of a *sorted* slice using linear interpolation; `q` in \[0,1\].
pub fn percentile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty());
    let q = q.clamp(0.0, 1.0);
    let pos = q * (sorted.len() - 1) as f64;
    let i = pos.floor() as usize;
    let frac = pos - i as f64;
    if i + 1 < sorted.len() {
        sorted[i] * (1.0 - frac) + sorted[i + 1] * frac
    } else {
        sorted[i]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn running_basic() {
        let mut r = Running::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            r.add(x);
        }
        assert_eq!(r.count(), 8);
        assert!((r.mean() - 5.0).abs() < 1e-12);
        assert!((r.std_dev() - 2.0).abs() < 1e-12);
        assert_eq!(r.min(), 2.0);
        assert_eq!(r.max(), 9.0);
        assert!((r.imbalance() - 9.0 / 5.0).abs() < 1e-12);
    }

    #[test]
    fn running_merge_equals_sequential() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 3.0 + 1.0).collect();
        let mut whole = Running::new();
        for &x in &xs {
            whole.add(x);
        }
        let mut a = Running::new();
        let mut b = Running::new();
        for &x in &xs[..37] {
            a.add(x);
        }
        for &x in &xs[37..] {
            b.add(x);
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert!((a.mean() - whole.mean()).abs() < 1e-12);
        assert!((a.variance() - whole.variance()).abs() < 1e-10);
    }

    #[test]
    fn histogram_bins_and_outliers() {
        let mut h = Histogram::new(0.0, 10.0, 10);
        for i in 0..10 {
            h.add(i as f64 + 0.5);
        }
        h.add(-1.0);
        h.add(10.0); // hi edge is exclusive -> over
        assert_eq!(h.total(), 10);
        assert!(h.bins().iter().all(|&c| c == 1));
        assert_eq!(h.outliers(), (1, 1));
        assert!((h.center(0) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn histogram2d_placement() {
        let mut h = Histogram2d::new(0.0, 4.0, 4, 0.0, 2.0, 2);
        h.add(0.5, 0.5);
        h.add(3.9, 1.9);
        h.add(5.0, 0.0); // dropped
        assert_eq!(h.get(0, 0), 1);
        assert_eq!(h.get(3, 1), 1);
        assert_eq!(h.total(), 2);
        assert_eq!(h.max_count(), 1);
        assert_eq!(h.shape(), (4, 2));
    }

    #[test]
    fn percentiles() {
        let xs: Vec<f64> = (0..=100).map(|i| i as f64).collect();
        assert_eq!(percentile_sorted(&xs, 0.0), 0.0);
        assert_eq!(percentile_sorted(&xs, 1.0), 100.0);
        assert!((percentile_sorted(&xs, 0.5) - 50.0).abs() < 1e-12);
        assert!((percentile_sorted(&xs, 0.25) - 25.0).abs() < 1e-12);
    }
}

//! A 2-D histogram and a percentile.
//!
//! [`Histogram2d`] bins the (v_r, v_φ) plane of Fig. 3's velocity-structure
//! panel; [`percentile_sorted`] reads the force-error percentiles of the
//! accuracy oracle and the benchmark's medians and quantiles.

/// A fixed-range 2D histogram (used for the v_r–v_φ plane of Fig. 3).
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
    fn histogram2d_placement() {
        let mut h = Histogram2d::new(0.0, 4.0, 4, 0.0, 2.0, 2);
        h.add(0.5, 0.5);
        h.add(3.9, 1.9);
        h.add(5.0, 0.0); // dropped
        assert_eq!(h.get(0, 0), 1);
        assert_eq!(h.get(3, 1), 1);
        assert_eq!(h.total(), 2);
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

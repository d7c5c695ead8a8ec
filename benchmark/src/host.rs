//! Host-speed reference: how slow is this machine right now?
//!
//! The benchmark runs on shared virtual machines whose effective speed
//! moves by a third for seconds to minutes at a time (a neighbour on the
//! sibling hyper-thread), which no statistic taken inside one run can
//! remove. So every timed interval is bracketed by a fixed reference
//! computation owned by the benchmark — a 512-body direct summation, the
//! same instruction mix as the walk's leaf kernel but none of the
//! program's code — and reported divided by the *slowdown*: the reference's
//! measured time over its nominal time. On a quiet host of the reference
//! class the slowdown is 1 and the values are plain wall-clock seconds; on
//! a disturbed one they estimate what the quiet host would have shown. The
//! reference never changes with the program, so it cancels nothing a
//! change to the program does.

use crate::stats::median;
use bonsai_par::prelude::*;
use std::hint::black_box;
use std::time::Instant;

/// Seconds one reference unit takes on an undisturbed reference host
/// (2.1 GHz Xeon, one hardware thread to itself).
pub const NOMINAL_UNIT_S: f64 = 1.0e-3;

/// Bodies of the reference summation: 512² interactions is about 1 ms.
const BODIES: usize = 512;

/// Units per sample; the median is taken, so a single descheduling of the
/// thread inside a sample does not count as a slow host.
const UNITS_PER_SAMPLE: usize = 5;

/// A timed interval.
#[derive(Clone, Copy, Debug)]
pub struct Seconds {
    /// Wall-clock seconds as they passed.
    pub raw: f64,
    /// The same divided by the host's slowdown around the interval: what
    /// every metric reports.
    pub normalised: f64,
}

/// The reference computation and its fixed inputs.
pub struct HostSpeed {
    lanes: usize,
    x: Vec<f64>,
    y: Vec<f64>,
    z: Vec<f64>,
    m: Vec<f64>,
}

impl HostSpeed {
    /// Build the reference's inputs. Samples run on `lanes` lanes of the
    /// installed `bonsai-par` pool at once, because a workload on two lanes
    /// is slowed by a disturbance on either.
    pub fn new(lanes: usize) -> Self {
        let coord = |k: f64| (0..BODIES).map(|i| (i as f64 * k).sin() * 3.0).collect();
        Self {
            lanes,
            x: coord(1.0),
            y: coord(1.3),
            z: coord(0.7),
            m: (0..BODIES).map(|i| 1.0 + 0.001 * i as f64).collect(),
        }
    }

    /// Seconds one unit takes right now.
    fn unit_seconds(&self) -> f64 {
        let (x, y, z, m) = (&self.x[..], &self.y[..], &self.z[..], &self.m[..]);
        let t = Instant::now();
        let mut total = 0.0;
        for i in 0..BODIES {
            let (tx, ty, tz) = (x[i], y[i], z[i]);
            let (mut phi, mut ax, mut ay, mut az) = (0.0f64, 0.0f64, 0.0f64, 0.0f64);
            for j in 0..BODIES {
                let (dx, dy, dz) = (x[j] - tx, y[j] - ty, z[j] - tz);
                let rinv = 1.0 / (dx * dx + dy * dy + dz * dz + 1e-4).sqrt();
                let mr = m[j] * rinv;
                let mr3 = mr * rinv * rinv;
                phi -= mr;
                ax += dx * mr3;
                ay += dy * mr3;
                az += dz * mr3;
            }
            total += phi + ax + ay + az;
        }
        black_box(total);
        t.elapsed().as_secs_f64()
    }

    /// The host's slowdown right now: 1.0 on an undisturbed reference host,
    /// 1.3 when everything takes 30 % longer; the mean over the lanes.
    /// Costs about 5 ms.
    pub fn slowdown(&self) -> f64 {
        let per_lane: Vec<f64> = (0..self.lanes)
            .into_par_iter()
            .map(|_| {
                let units: Vec<f64> = (0..UNITS_PER_SAMPLE).map(|_| self.unit_seconds()).collect();
                median(&units) / NOMINAL_UNIT_S
            })
            .collect();
        per_lane.iter().sum::<f64>() / per_lane.len() as f64
    }

    /// Time `f`, bracketed by the reference: returns its result and its
    /// wall seconds divided by the mean of the slowdown before (`before`,
    /// from the previous sample) and after, which is stored back in
    /// `before`.
    pub fn timed<T>(&self, before: &mut f64, f: impl FnOnce() -> T) -> (T, Seconds) {
        let t = Instant::now();
        let out = f();
        let raw = t.elapsed().as_secs_f64();
        let after = self.slowdown();
        let normalised = raw / (0.5 * (*before + after));
        *before = after;
        (out, Seconds { raw, normalised })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slowdown_is_positive_and_bracketing_divides_by_it() {
        let host = HostSpeed::new(2);
        let s = host.slowdown();
        assert!(s.is_finite() && s > 0.0);
        // A `before` of 3 and any plausible `after` must shrink the raw time.
        let mut before = 3.0;
        let t = Instant::now();
        let ((), seconds) = host.timed(&mut before, || {
            black_box((0..200_000u64).sum::<u64>());
        });
        let raw_upper = t.elapsed().as_secs_f64();
        assert!(seconds.raw > 0.0 && seconds.raw <= raw_upper);
        assert!(seconds.normalised > 0.0 && seconds.normalised < seconds.raw);
        assert!(before > 0.0 && before != 3.0);
    }
}

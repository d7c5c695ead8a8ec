//! Force accumulators and interaction accounting.
//!
//! The paper's performance numbers (§VI-A) are *derived* from interaction
//! counts: `flops = 23·N_pp + 65·N_pc`, divided by execution time. Every walk
//! in this crate therefore returns an [`InteractionCounts`] alongside the
//! physical result, and the device model in `bonsai-gpu` turns those counts
//! into simulated seconds.

use crate::particles::{take_records, whole};
use crate::{PC_FLOPS, PP_FLOPS};
use bonsai_util::Vec3;
use std::ops::{Add, AddAssign};

/// Bytes of one force record: `acc(3×f64) pot(f64)`, little endian.
const FORCE_RECORD_LEN: usize = 32;

/// Accelerations and potentials for a set of target particles.
#[derive(Clone, Debug, Default)]
pub struct Forces {
    /// Acceleration per particle (kpc-internal units; includes G).
    pub acc: Vec<Vec3>,
    /// Specific potential per particle (includes G; negative near mass).
    pub pot: Vec<f64>,
}

impl Forces {
    /// Zeroed accumulator for `n` targets.
    pub fn zeros(n: usize) -> Self {
        Self {
            acc: vec![Vec3::zero(); n],
            pot: vec![0.0; n],
        }
    }

    /// Number of targets.
    pub fn len(&self) -> usize {
        self.acc.len()
    }

    /// `true` if no targets.
    pub fn is_empty(&self) -> bool {
        self.acc.is_empty()
    }

    /// Element-wise accumulate another force set (e.g. one per LET source).
    pub fn accumulate(&mut self, o: &Forces) {
        assert_eq!(self.len(), o.len());
        for i in 0..self.len() {
            self.acc[i] += o.acc[i];
            self.pot[i] += o.pot[i];
        }
    }

    /// Scale all entries (used to apply the gravitational constant once).
    pub fn scale(&mut self, s: f64) {
        for a in &mut self.acc {
            *a *= s;
        }
        for p in &mut self.pot {
            *p *= s;
        }
    }

    /// Append the force payload to `out` and return it: the count as a
    /// `u64`, then one 32-byte `acc(3×f64) pot(f64)` record per target,
    /// little endian.
    pub fn encode(&self, mut out: Vec<u8>) -> Vec<u8> {
        out.reserve(8 + self.len() * FORCE_RECORD_LEN);
        out.extend_from_slice(&(self.len() as u64).to_le_bytes());
        for (a, &phi) in self.acc.iter().zip(&self.pot) {
            for v in [a.x, a.y, a.z, phi] {
                out.extend_from_slice(&v.to_le_bytes());
            }
        }
        out
    }

    /// Decode a force payload that is the whole of `b`; errors name what
    /// is wrong with its length.
    pub fn decode(b: &[u8]) -> Result<Forces, String> {
        let (n, records, rest) = take_records(b, FORCE_RECORD_LEN, "force")?;
        let mut f = Forces { acc: Vec::with_capacity(n), pot: Vec::with_capacity(n) };
        for r in records.chunks_exact(FORCE_RECORD_LEN) {
            let v = |k: usize| f64::from_le_bytes(r[8 * k..8 * k + 8].try_into().unwrap());
            f.acc.push(Vec3::new(v(0), v(1), v(2)));
            f.pot.push(v(3));
        }
        whole((f, rest), "force")
    }

    /// Largest relative acceleration difference against a reference
    /// (`|a - a_ref| / |a_ref|`), the accuracy metric of the θ sweeps.
    pub fn max_rel_acc_error(&self, reference: &Forces) -> f64 {
        assert_eq!(self.len(), reference.len());
        let mut worst = 0.0f64;
        for i in 0..self.len() {
            let denom = reference.acc[i].norm();
            if denom > 0.0 {
                worst = worst.max((self.acc[i] - reference.acc[i]).norm() / denom);
            }
        }
        worst
    }

    /// RMS relative acceleration error against a reference.
    pub fn rms_rel_acc_error(&self, reference: &Forces) -> f64 {
        assert_eq!(self.len(), reference.len());
        let mut sum = 0.0;
        let mut n = 0usize;
        for i in 0..self.len() {
            let denom = reference.acc[i].norm();
            if denom > 0.0 {
                let e = (self.acc[i] - reference.acc[i]).norm() / denom;
                sum += e * e;
                n += 1;
            }
        }
        if n == 0 {
            0.0
        } else {
            (sum / n as f64).sqrt()
        }
    }
}

/// Counts of evaluated interactions, the currency of the performance model.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct InteractionCounts {
    /// Particle-particle interactions (23 flops each).
    pub pp: u64,
    /// Particle-cell interactions (65 flops each).
    pub pc: u64,
}

impl InteractionCounts {
    /// Zero counts.
    pub fn zero() -> Self {
        Self::default()
    }

    /// Total flops at the paper's §VI-A rates.
    pub fn flops(&self) -> u64 {
        PP_FLOPS * self.pp + PC_FLOPS * self.pc
    }

    /// Mean interactions per particle, the quantity Table II reports.
    pub fn per_particle(&self, n: usize) -> (f64, f64) {
        if n == 0 {
            (0.0, 0.0)
        } else {
            (self.pp as f64 / n as f64, self.pc as f64 / n as f64)
        }
    }
}

impl Add for InteractionCounts {
    type Output = Self;
    fn add(self, o: Self) -> Self {
        Self {
            pp: self.pp + o.pp,
            pc: self.pc + o.pc,
        }
    }
}

impl AddAssign for InteractionCounts {
    fn add_assign(&mut self, o: Self) {
        self.pp += o.pp;
        self.pc += o.pc;
    }
}

impl std::iter::Sum for InteractionCounts {
    fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
        iter.fold(Self::zero(), Add::add)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flop_arithmetic_matches_paper() {
        let c = InteractionCounts { pp: 10, pc: 3 };
        assert_eq!(c.flops(), 10 * 23 + 3 * 65);
    }

    #[test]
    fn per_particle_rates() {
        let c = InteractionCounts { pp: 100, pc: 50 };
        let (pp, pc) = c.per_particle(10);
        assert_eq!(pp, 10.0);
        assert_eq!(pc, 5.0);
        assert_eq!(c.per_particle(0), (0.0, 0.0));
    }

    #[test]
    fn counts_sum() {
        let a = InteractionCounts { pp: 1, pc: 2 };
        let b = InteractionCounts { pp: 10, pc: 20 };
        let s: InteractionCounts = [a, b].into_iter().sum();
        assert_eq!(s, InteractionCounts { pp: 11, pc: 22 });
    }

    #[test]
    fn forces_accumulate_and_scale() {
        let mut f = Forces::zeros(2);
        let mut g = Forces::zeros(2);
        g.acc[0] = Vec3::new(1.0, 0.0, 0.0);
        g.pot[1] = -3.0;
        f.accumulate(&g);
        f.accumulate(&g);
        f.scale(0.5);
        assert_eq!(f.acc[0], Vec3::new(1.0, 0.0, 0.0));
        assert_eq!(f.pot[1], -3.0);
    }

    #[test]
    fn error_metrics() {
        let mut a = Forces::zeros(2);
        let mut b = Forces::zeros(2);
        a.acc[0] = Vec3::new(1.0, 0.0, 0.0);
        b.acc[0] = Vec3::new(1.1, 0.0, 0.0);
        a.acc[1] = Vec3::new(0.0, 2.0, 0.0);
        b.acc[1] = Vec3::new(0.0, 2.0, 0.0);
        let max = b.max_rel_acc_error(&a);
        assert!((max - 0.1).abs() < 1e-12);
        let rms = b.rms_rel_acc_error(&a);
        assert!((rms - (0.01f64 / 2.0).sqrt()).abs() < 1e-12);
    }
}

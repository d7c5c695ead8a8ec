//! Calibration microbenchmarks run on the same host, in the same process,
//! as the traced steps: the rates that bound the walk and the envelope, so
//! that a layer's attained rate can be reported as a fraction that travels
//! between machines.

use crate::report::Values;
use crate::stats::median;
use bonsai_obs::{Lane, TraceStore};
use bonsai_tree::direct::direct_self_forces;
use bonsai_tree::kernels::{p_c, p_p, p_p_batch, split_soa};
use bonsai_tree::Particles;
use bonsai_util::hash::crc64;
use bonsai_util::{Sym3, Vec3};
use std::hint::black_box;
use std::time::Instant;

/// Sources per kernel call.
const KERNEL_SOURCES: usize = 1024;
/// Kernel calls per timed batch.
const KERNEL_CALLS: usize = 100;
/// Particles of the direct-summation calibration.
const DIRECT_N: usize = 2048;
/// Buffer the checksum rate is measured on.
const CRC_BYTES: usize = 1 << 20;
/// Spans per timed batch of the recording microbenchmark.
const SPAN_BATCH: usize = 20_000;
/// Timed batches per rate; the median is reported.
const REPS: usize = 9;

/// Median items per second of `batch`, which does `items` items per call.
fn rate(items: usize, mut batch: impl FnMut()) -> f64 {
    batch(); // warm caches and branch predictors
    let per_s: Vec<f64> = (0..REPS)
        .map(|_| {
            let t = Instant::now();
            batch();
            items as f64 / t.elapsed().as_secs_f64()
        })
        .collect();
    median(&per_s)
}

/// Measure the kernel, direct-summation, checksum and span-recording rates.
/// `sample` supplies the particles of the direct-summation run.
pub fn run(sample: &Particles, eps: f64, values: &mut Values) {
    let sources: Vec<(Vec3, f64)> = (0..KERNEL_SOURCES)
        .map(|i| {
            let f = i as f64;
            (
                Vec3::new(f.sin(), f.cos(), (f * 0.7).sin()) * 3.0,
                1.0 + 0.001 * f,
            )
        })
        .collect();
    let target = |call: usize| Vec3::new(0.1 + 1e-3 * call as f64, 0.2, 0.3);
    let eps2 = 1e-4;
    let interactions = KERNEL_SOURCES * KERNEL_CALLS;

    values.insert(
        "tree.kernel_pp_scalar_per_s",
        rate(interactions, || {
            for call in 0..KERNEL_CALLS {
                let tgt = black_box(target(call));
                let (mut pot, mut acc) = (0.0, Vec3::zero());
                for &(s, m) in &sources {
                    let (dp, da) = p_p(tgt, s, m, eps2);
                    pot += dp;
                    acc += da;
                }
                black_box((pot, acc));
            }
        }),
    );

    let pos: Vec<Vec3> = sources.iter().map(|&(p, _)| p).collect();
    let (sx, sy, sz) = split_soa(&pos);
    let masses: Vec<f64> = sources.iter().map(|&(_, m)| m).collect();
    values.insert(
        "tree.kernel_pp_batch_per_s",
        rate(interactions, || {
            for call in 0..KERNEL_CALLS {
                black_box(p_p_batch(
                    black_box(target(call)),
                    &sx,
                    &sy,
                    &sz,
                    &masses,
                    eps2,
                ));
            }
        }),
    );

    let q = Sym3::outer(Vec3::new(0.1, 0.2, -0.1), 2.0);
    values.insert(
        "tree.kernel_pc_per_s",
        rate(interactions, || {
            for call in 0..KERNEL_CALLS {
                let tgt = black_box(target(call));
                let (mut pot, mut acc) = (0.0, Vec3::zero());
                for &(s, m) in &sources {
                    let (dp, da) = p_c(tgt, s, m, &q, eps2);
                    pot += dp;
                    acc += da;
                }
                black_box((pot, acc));
            }
        }),
    );

    let mut subset = Particles::with_capacity(DIRECT_N);
    for i in 0..DIRECT_N.min(sample.len()) {
        subset.push(sample.pos[i], sample.vel[i], sample.mass[i], sample.id[i]);
    }
    let n = subset.len();
    values.insert(
        "tree.direct_per_s",
        rate(n * (n - 1), || {
            black_box(direct_self_forces(
                black_box(&subset),
                eps,
                bonsai_util::units::G,
            ));
        }),
    );

    let buffer: Vec<u8> = (0..CRC_BYTES).map(|i| (i * 31 + 7) as u8).collect();
    values.insert(
        "util.crc64_mb_per_s",
        rate(CRC_BYTES, || {
            black_box(crc64(black_box(&buffer)));
        }) / 1e6,
    );

    // What the always-on tracing pays per span: `TraceStore::span` with two
    // arguments, the shape of the cluster's per-phase spans.
    let spans_per_s = rate(SPAN_BATCH, || {
        let mut store = TraceStore::new();
        for i in 0..SPAN_BATCH {
            let id = store.span(0, 1, Lane::Gpu, "local", i as f64, i as f64 + 1.0);
            store.arg_f64(id, "gflops", 1.0);
            store.arg_u64(id, "bytes", i as u64);
        }
        black_box(store.len());
    });
    values.insert("obs.span_record_ns", 1e9 / spans_per_s);
}

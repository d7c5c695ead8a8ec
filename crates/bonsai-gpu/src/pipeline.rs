//! Whole-device model: force kernel plus the non-gravity GPU stages.
//!
//! Table II's single-GPU column for 13M particles on a K20X:
//!
//! | stage | time |
//! |---|---|
//! | SFC sort            | 0.10 s |
//! | tree construction   | 0.11 s |
//! | tree properties     | 0.03 s |
//! | gravity (local)     | 2.45 s |
//!
//! The non-gravity stages are bandwidth-bound streaming passes, so we model
//! them as fixed particle rates calibrated to that column and scaled by
//! memory bandwidth across devices. Gravity goes through the instruction
//! level model in [`crate::kernel`].

use crate::device::DeviceSpec;
use crate::kernel::{KernelModel, KernelVariant};
use bonsai_obs::{SpanId, TraceStore};
use bonsai_tree::InteractionCounts;
use serde::Serialize;

/// Per-device throughput model of every GPU stage of a Bonsai step.
#[derive(Clone, Copy, Debug, Serialize)]
pub struct GpuModel {
    /// Device description.
    pub device: DeviceSpec,
    /// Force-kernel model (variant of Fig. 1).
    pub kernel: KernelModel,
    /// SFC key generation + radix sort rate, particles/second.
    pub sort_rate: f64,
    /// Tree construction rate, particles/second.
    pub build_rate: f64,
    /// Multipole (tree properties) rate, particles/second.
    pub props_rate: f64,
}

/// K20X reference rates from Table II, single-GPU column (13M particles).
const K20X_SORT_RATE: f64 = 13.0e6 / 0.10;
const K20X_BUILD_RATE: f64 = 13.0e6 / 0.11;
const K20X_PROPS_RATE: f64 = 13.0e6 / 0.03;
const K20X_BW: f64 = 250.0;

/// Roofline cost of a streaming GPU phase: flops and device-memory bytes
/// charged per particle. These are what turn a phase's particle rate into
/// a point on the roofline — every streaming phase must come out
/// bandwidth-bound (its per-particle byte volume times the calibrated rate
/// stays below the device's memory bandwidth), which is the modelling
/// premise behind scaling the rates with `mem_bw_gbs` across devices.
#[derive(Clone, Copy, Debug, Serialize)]
pub struct StreamCost {
    /// Arithmetic charged per particle (key math, prefix sums, kicks).
    pub flops_per_particle: f64,
    /// Device-memory traffic charged per particle, bytes.
    pub bytes_per_particle: f64,
}

/// SFC sort: ~16 flops of 60-bit key arithmetic per particle against
/// ~1200 B of traffic — position reads plus eight counting/scatter radix
/// passes over 64-bit keys and payload indices. At the calibrated
/// 130 M particles/s this is 156 GB/s, 62% of the K20X's 250 GB/s roof.
pub const SORT_COST: StreamCost = StreamCost {
    flops_per_particle: 16.0,
    bytes_per_particle: 1200.0,
};
/// Domain classification: one key compare-walk against the rank
/// boundaries per particle (~20 flops) over a 176-byte key+payload record.
pub const DOMAIN_COST: StreamCost = StreamCost {
    flops_per_particle: 20.0,
    bytes_per_particle: 176.0,
};
/// Tree construction: mask/compact passes and parent linking, ~24 flops
/// and ~800 B per particle (keys re-read per level plus node writes).
pub const BUILD_COST: StreamCost = StreamCost {
    flops_per_particle: 24.0,
    bytes_per_particle: 800.0,
};
/// Multipole properties: COM + quadrupole accumulation up the levels,
/// ~48 flops over ~400 B per particle (body reads plus node read-modify-
/// write). 173 GB/s at the calibrated rate — the most bandwidth-hungry
/// streaming pass, still under the roof.
pub const PROPS_COST: StreamCost = StreamCost {
    flops_per_particle: 48.0,
    bytes_per_particle: 400.0,
};
/// Leapfrog integration: ~12 flops (kick + drift) over three float4
/// streams read and written in place plus the acceleration read — 120 B.
pub const INTEGRATE_COST: StreamCost = StreamCost {
    flops_per_particle: 12.0,
    bytes_per_particle: 120.0,
};

impl GpuModel {
    /// Model for `device` running the given kernel variant; streaming rates
    /// scale with memory bandwidth relative to the K20X calibration point.
    pub fn new(device: DeviceSpec, variant: KernelVariant) -> Self {
        let bw_scale = device.mem_bw_gbs / K20X_BW;
        Self {
            device,
            kernel: KernelModel::new(device, variant),
            sort_rate: K20X_SORT_RATE * bw_scale,
            build_rate: K20X_BUILD_RATE * bw_scale,
            props_rate: K20X_PROPS_RATE * bw_scale,
        }
    }

    /// The production configuration: K20X with the tuned kernel.
    pub fn k20x_tuned() -> Self {
        Self::new(crate::device::K20X, KernelVariant::TreeKeplerTuned)
    }

    /// Simulated seconds for the SFC sort of `n` particles.
    pub fn sort_time(&self, n: u64) -> f64 {
        n as f64 / self.sort_rate
    }

    /// Simulated seconds for tree construction over `n` particles.
    pub fn build_time(&self, n: u64) -> f64 {
        n as f64 / self.build_rate
    }

    /// Simulated seconds for the multipole pass over `n` particles.
    pub fn props_time(&self, n: u64) -> f64 {
        n as f64 / self.props_rate
    }

    /// Simulated seconds for a gravity batch with the configured kernel.
    pub fn gravity_time(&self, counts: InteractionCounts) -> f64 {
        self.kernel.time_for(counts)
    }

    /// Simulated seconds the walk spends traversing: every node a group
    /// visits costs one warp-level MAC evaluation plus stack operation,
    /// ~20 cycles of a warp-instruction slot. Flop counting ignores this
    /// cost; it is why tiny leaves and tiny groups lose on a real GPU despite
    /// their lower flop totals.
    pub fn traversal_time(&self, nodes_visited: u64) -> f64 {
        const WARP: f64 = 32.0;
        const MAC_CYCLES: f64 = 20.0;
        nodes_visited as f64 * MAC_CYCLES / (self.device.lane_rate() / WARP)
    }

    /// Annotate a gravity span with the device model's view of the batch:
    /// modelled occupancy, achieved Gflops, the interaction counts that
    /// were charged, and the roofline coordinates (flops, bytes moved, the
    /// occupancy-limited compute ceiling, the device memory bandwidth).
    /// This is how Table II's "GPU performance" row attaches to the trace a
    /// kernel invocation at a time — `bonsai_obs::profile::roofline` reads
    /// these args back without depending on this crate.
    pub fn annotate_gravity_span(
        &self,
        store: &mut TraceStore,
        id: SpanId,
        counts: InteractionCounts,
    ) {
        store.arg_str(id, "device", self.device.name);
        store.arg_f64(id, "occupancy", self.kernel.occupancy);
        store.arg_f64(id, "gflops", self.kernel.achieved_gflops(counts));
        store.arg_u64(id, "pp", counts.pp);
        store.arg_u64(id, "pc", counts.pc);
        store.arg_u64(id, "flops", counts.flops());
        store.arg_f64(id, "bytes", self.kernel.bytes_for(counts));
        store.arg_f64(id, "ceil_gflops", self.kernel.compute_ceiling_gflops());
        store.arg_f64(id, "bw_gbs", self.device.mem_bw_gbs);
    }

    /// Annotate a streaming-phase span (sort / domain / build / properties /
    /// integrate) with the particle count, the modelled rate it was charged
    /// at, and the roofline coordinates from its [`StreamCost`]. Streaming
    /// passes run at full occupancy — their roofline ceiling is the memory
    /// bandwidth, not the issue rate.
    pub fn annotate_stream_span(
        &self,
        store: &mut TraceStore,
        id: SpanId,
        n: u64,
        rate_per_s: f64,
        cost: StreamCost,
    ) {
        store.arg_str(id, "device", self.device.name);
        store.arg_u64(id, "particles", n);
        store.arg_f64(id, "rate_per_s", rate_per_s);
        store.arg_f64(id, "occupancy", 1.0);
        store.arg_f64(id, "flops", n as f64 * cost.flops_per_particle);
        store.arg_f64(id, "bytes", n as f64 * cost.bytes_per_particle);
        store.arg_f64(id, "ceil_gflops", self.device.peak_sp_gflops());
        store.arg_f64(id, "bw_gbs", self.device.mem_bw_gbs);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::{C2075, K20X};
    use crate::kernel::paper_mix;

    #[test]
    fn table2_single_gpu_column_reproduced() {
        let m = GpuModel::k20x_tuned();
        let n = 13_000_000u64;
        assert!((m.sort_time(n) - 0.10).abs() < 0.01);
        assert!((m.build_time(n) - 0.11).abs() < 0.01);
        assert!((m.props_time(n) - 0.03).abs() < 0.005);
        // Gravity, single GPU: 2.45 s at the single-GPU interaction mix
        // (1745 pp + 4529 pc per particle, Table II column 1).
        let counts = InteractionCounts {
            pp: 1745 * n,
            pc: 4529 * n,
        };
        let t = m.gravity_time(counts);
        assert!((t - 2.45).abs() / 2.45 < 0.10, "gravity time {t}");
    }

    #[test]
    fn single_gpu_application_performance_matches_table2() {
        // Table II: 1 GPU → 1.77 Tflops kernel, 1.55 Tflops application.
        let m = GpuModel::k20x_tuned();
        let n = 13_000_000u64;
        let counts = InteractionCounts { pp: 1745 * n, pc: 4529 * n };
        let grav = m.gravity_time(counts);
        let total = m.sort_time(n) + m.build_time(n) + m.props_time(n) + grav + 0.1; // + "other"
        let kernel_tflops = counts.flops() as f64 / grav / 1e12;
        let app_tflops = counts.flops() as f64 / total / 1e12;
        assert!((kernel_tflops - 1.77).abs() < 0.2, "kernel {kernel_tflops}");
        assert!((app_tflops - 1.55).abs() < 0.2, "app {app_tflops}");
    }

    #[test]
    fn fermi_rates_scale_with_bandwidth() {
        let k = GpuModel::new(K20X, KernelVariant::TreeKeplerTuned);
        let c = GpuModel::new(C2075, KernelVariant::TreeFermi);
        let ratio = k.sort_rate / c.sort_rate;
        assert!((ratio - 250.0 / 144.0).abs() < 1e-9);
    }

    #[test]
    fn gravity_dominates_the_step() {
        // The pipeline must spend most of its time in the force kernel —
        // the premise of hiding communication behind gravity (§III-B2).
        let m = GpuModel::k20x_tuned();
        let n = 13_000_000u64;
        let grav = m.gravity_time(paper_mix(n));
        let rest = m.sort_time(n) + m.build_time(n) + m.props_time(n);
        assert!(grav > 5.0 * rest);
    }

    #[test]
    fn gravity_span_annotation_carries_model_view() {
        use bonsai_obs::{ArgValue, Lane, TraceStore};
        let m = GpuModel::k20x_tuned();
        let counts = InteractionCounts { pp: 1_716_000, pc: 6_765_000 };
        let mut t = TraceStore::new();
        let id = t.span(0, 1, Lane::Gpu, "local", 0.0, m.gravity_time(counts));
        m.annotate_gravity_span(&mut t, id, counts);
        let args = &t.spans()[0].args;
        let get = |key: &str| args.iter().find(|(k, _)| *k == key).map(|(_, v)| v.clone());
        assert_eq!(get("pp"), Some(ArgValue::U64(counts.pp)));
        assert_eq!(get("device"), Some(ArgValue::Str("K20X".into())));
        let Some(ArgValue::F64(gflops)) = get("gflops") else {
            panic!("gflops arg missing")
        };
        assert!((gflops - m.kernel.achieved_gflops(counts)).abs() < 1e-9);
        let Some(ArgValue::F64(occ)) = get("occupancy") else {
            panic!("occupancy arg missing")
        };
        assert!(occ > 0.0 && occ <= 1.0);
        // Roofline coordinates: the attained rate stays under the
        // occupancy-scaled compute ceiling carried on the same span.
        let Some(ArgValue::F64(ceil)) = get("ceil_gflops") else {
            panic!("ceil_gflops arg missing")
        };
        let Some(ArgValue::F64(gflops)) = get("gflops") else {
            panic!("gflops arg missing")
        };
        assert!(gflops <= ceil, "attained {gflops} above ceiling {ceil}");
        let Some(ArgValue::F64(bytes)) = get("bytes") else {
            panic!("bytes arg missing")
        };
        assert!((bytes - m.kernel.bytes_for(counts)).abs() < 1e-9);
    }

    #[test]
    fn stream_span_annotation_carries_roofline_coordinates() {
        use bonsai_obs::{ArgValue, Lane, TraceStore};
        let m = GpuModel::k20x_tuned();
        let n = 2_000_000u64;
        let mut t = TraceStore::new();
        let id = t.span(0, 1, Lane::Gpu, "sort", 0.0, m.sort_time(n));
        m.annotate_stream_span(&mut t, id, n, m.sort_rate, SORT_COST);
        let args = &t.spans()[0].args;
        let get = |key: &str| args.iter().find(|(k, _)| *k == key).map(|(_, v)| v.clone());
        assert_eq!(get("particles"), Some(ArgValue::U64(n)));
        let Some(ArgValue::F64(bytes)) = get("bytes") else {
            panic!("bytes arg missing")
        };
        assert_eq!(bytes, n as f64 * SORT_COST.bytes_per_particle);
        let Some(ArgValue::F64(flops)) = get("flops") else {
            panic!("flops arg missing")
        };
        assert_eq!(flops, n as f64 * SORT_COST.flops_per_particle);
    }

    #[test]
    fn streaming_phases_are_bandwidth_bound_under_the_roof() {
        // Every streaming phase's calibrated rate × per-particle bytes must
        // stay below the device bandwidth (the phase is feasible), and its
        // bandwidth roof must sit below the compute roof (the phase is
        // bandwidth-bound on the roofline). The ratio is bandwidth-invariant
        // because the rates scale with `mem_bw_gbs`.
        for dev in [K20X, C2075] {
            let variant = match dev.arch {
                crate::device::Arch::Kepler => KernelVariant::TreeKeplerTuned,
                crate::device::Arch::Fermi => KernelVariant::TreeFermi,
            };
            let m = GpuModel::new(dev, variant);
            for (name, rate, cost) in [
                ("sort", m.sort_rate, SORT_COST),
                ("build", m.build_rate, BUILD_COST),
                ("props", m.props_rate, PROPS_COST),
                ("integrate", 1.0e9 * dev.mem_bw_gbs / K20X_BW, INTEGRATE_COST),
            ] {
                let gbs = rate * cost.bytes_per_particle / 1e9;
                assert!(
                    gbs < dev.mem_bw_gbs,
                    "{}/{name}: {gbs} GB/s exceeds the {} GB/s roof",
                    dev.name,
                    dev.mem_bw_gbs
                );
                let bw_roof = cost.flops_per_particle / cost.bytes_per_particle * dev.mem_bw_gbs;
                assert!(
                    bw_roof < dev.peak_sp_gflops(),
                    "{}/{name}: bandwidth roof above compute roof",
                    dev.name
                );
                // Attained = rate × flops; never above the bandwidth roof.
                let attained = rate * cost.flops_per_particle / 1e9;
                assert!(attained <= bw_roof * (1.0 + 1e-12), "{name} attained {attained} roof {bw_roof}");
            }
        }
    }

    #[test]
    fn traversal_charges_twenty_cycles_of_a_warp_slot_per_visit() {
        // 14 SMX × 192 cores × 0.732 GHz / 32 lanes = 6.1e9 warp slots/s.
        let t = GpuModel::k20x_tuned().traversal_time(1_000_000);
        let expected = 1e6 * 20.0 / (14.0 * 192.0 * 0.732e9 / 32.0);
        assert!((t - expected).abs() < 1e-15, "{t} vs {expected}");
    }
}

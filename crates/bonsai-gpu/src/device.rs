//! GPU hardware descriptions and occupancy rules.

use serde::Serialize;

/// GPU micro-architecture generation.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize)]
pub enum Arch {
    /// Fermi (GF1xx): dedicated SFU issue port that overlaps with the ALU
    /// pipeline; 1536 resident threads per SM.
    Fermi,
    /// Kepler (GK110): SFU shares scheduler issue bandwidth; static
    /// scheduling needs ILP; 2048 resident threads per SMX.
    Kepler,
}

/// Description of one GPU model.
#[derive(Clone, Copy, Debug, Serialize)]
pub struct DeviceSpec {
    /// Marketing name.
    pub name: &'static str,
    /// Architecture generation.
    pub arch: Arch,
    /// Streaming multiprocessors.
    pub sm_count: u32,
    /// Core clock in GHz.
    pub clock_ghz: f64,
    /// FP32 cores per SM.
    pub cores_per_sm: u32,
    /// Special-function units per SM (rsqrt throughput).
    pub sfus_per_sm: u32,
    /// Shared memory per SM in bytes.
    pub shared_per_sm: u32,
    /// Maximum resident threads per SM.
    pub max_threads_per_sm: u32,
    /// Maximum resident blocks per SM.
    pub max_blocks_per_sm: u32,
    /// Device memory in GB (ECC-on usable, as Table I reports 5.4 GB).
    pub mem_gb: f64,
    /// Device memory bandwidth, GB/s.
    pub mem_bw_gbs: f64,
}

impl DeviceSpec {
    /// Theoretical peak single-precision Gflops (`2 × cores × clock`).
    pub fn peak_sp_gflops(&self) -> f64 {
        2.0 * self.sm_count as f64 * self.cores_per_sm as f64 * self.clock_ghz
    }

    /// Lane-cycles per second: how many per-thread instructions the whole
    /// device retires per second at one instruction per core per cycle.
    pub fn lane_rate(&self) -> f64 {
        self.sm_count as f64 * self.cores_per_sm as f64 * self.clock_ghz * 1e9
    }

    /// Cost of one `rsqrt` in core-cycle equivalents (ALU:SFU ratio).
    pub fn rsqrt_core_cycles(&self) -> f64 {
        self.cores_per_sm as f64 / self.sfus_per_sm as f64
    }

    /// Achieved occupancy for a kernel using `shared_per_block` bytes of
    /// shared memory with `threads_per_block` threads.
    pub fn occupancy(&self, shared_per_block: u32, threads_per_block: u32) -> f64 {
        let by_shared = self
            .shared_per_sm
            .checked_div(shared_per_block)
            .unwrap_or(self.max_blocks_per_sm);
        let by_threads = self.max_threads_per_sm / threads_per_block;
        let blocks = by_shared.min(by_threads).min(self.max_blocks_per_sm);
        (blocks * threads_per_block) as f64 / self.max_threads_per_sm as f64
    }

    /// Largest particle count that fits in device memory, at the working-set
    /// footprint of the tree-code (positions, velocities, accelerations,
    /// keys, tree nodes and buffers — ~270 bytes/particle, consistent with
    /// the paper's "up to 20 million particles per K20X" on 5.4 GB).
    pub fn max_particles(&self) -> u64 {
        const BYTES_PER_PARTICLE: f64 = 270.0;
        (self.mem_gb * 1e9 / BYTES_PER_PARTICLE) as u64
    }
}

/// NVIDIA Tesla K20X (Kepler GK110), the GPU of Titan and Piz Daint.
pub const K20X: DeviceSpec = DeviceSpec {
    name: "K20X",
    arch: Arch::Kepler,
    sm_count: 14,
    clock_ghz: 0.732,
    cores_per_sm: 192,
    sfus_per_sm: 32,
    shared_per_sm: 48 * 1024,
    max_threads_per_sm: 2048,
    max_blocks_per_sm: 16,
    mem_gb: 5.4,
    mem_bw_gbs: 250.0,
};

/// NVIDIA Tesla C2075 (Fermi GF110), the comparison GPU of Fig. 1.
pub const C2075: DeviceSpec = DeviceSpec {
    name: "C2075",
    arch: Arch::Fermi,
    sm_count: 14,
    clock_ghz: 1.15,
    cores_per_sm: 32,
    sfus_per_sm: 4,
    shared_per_sm: 48 * 1024,
    max_threads_per_sm: 1536,
    max_blocks_per_sm: 8,
    mem_gb: 5.4,
    mem_bw_gbs: 144.0,
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn k20x_peak_matches_spec_sheet() {
        // 3.935 Tflops SP; the paper rounds to 3.95.
        let peak = K20X.peak_sp_gflops();
        assert!((peak - 3935.0).abs() < 1.0, "peak {peak}");
    }

    #[test]
    fn c2075_peak_matches_spec_sheet() {
        let peak = C2075.peak_sp_gflops();
        assert!((peak - 1030.0).abs() < 1.0, "peak {peak}");
    }

    #[test]
    fn kepler_is_four_times_fermi_peak() {
        // Fig. 1 caption: "the hardware is four times faster in (peak)
        // single precision".
        let ratio = K20X.peak_sp_gflops() / C2075.peak_sp_gflops();
        assert!((ratio - 3.82).abs() < 0.1, "ratio {ratio}");
    }

    #[test]
    fn occupancy_rules() {
        // Shared-memory-free kernel: limited by threads (2048/256 = 8 blocks).
        assert_eq!(K20X.occupancy(0, 256), 1.0);
        // 8 KB/block: 6 blocks by shared → 1536/2048 threads.
        assert!((K20X.occupancy(8 * 1024, 256) - 0.75).abs() < 1e-12);
        // Fermi with 8 KB/block: 6 blocks → full 1536 threads.
        assert!((C2075.occupancy(8 * 1024, 256) - 1.0).abs() < 1e-12);
        // Huge shared use: single block.
        assert!((K20X.occupancy(40 * 1024, 256) - 0.125).abs() < 1e-12);
    }

    #[test]
    fn memory_capacity_matches_paper_envelope() {
        // Paper: 13M/GPU in production, up to 20M possible on 5.4 GB.
        let cap = K20X.max_particles();
        assert!((13_000_000..25_000_000).contains(&cap), "capacity {cap}");
    }

    #[test]
    fn rsqrt_cost() {
        assert!((K20X.rsqrt_core_cycles() - 6.0).abs() < 1e-12);
        assert!((C2075.rsqrt_core_cycles() - 8.0).abs() < 1e-12);
    }
}

//! Power-efficiency model (§II).
//!
//! "The move from CPU-based to GPU-based supercomputers is motivated by
//! lower energy consumption per flop … K computer offers 830 Mflops/watt
//! compared to 2.1 (2.7) Gflops/watt for Titan (Piz Daint)."
//!
//! We model per-node power as a GPU TDP share (scaled by how busy the force
//! kernels keep the device) plus host CPU and network interface shares, and
//! reproduce the §II machine-efficiency comparison as well as the achieved
//! application efficiency of the record run.

use serde::Serialize;

/// Node-level power characteristics.
#[derive(Clone, Copy, Debug, Serialize)]
pub struct NodePower {
    /// GPU board power at full load, watts (K20X TDP: 235 W).
    pub gpu_tdp_w: f64,
    /// GPU idle power, watts.
    pub gpu_idle_w: f64,
    /// Host CPU package power under the Bonsai load, watts.
    pub cpu_w: f64,
    /// NIC + blade overhead share per node, watts.
    pub overhead_w: f64,
}

/// A K20X node on a Cray XK7/XC30 blade.
pub const K20X_NODE: NodePower = NodePower {
    gpu_tdp_w: 235.0,
    gpu_idle_w: 25.0,
    cpu_w: 90.0,
    overhead_w: 40.0,
};

impl NodePower {
    /// Mean node power when the GPU is busy for `gpu_duty` (0..1) of the
    /// step.
    pub fn node_watts(&self, gpu_duty: f64) -> f64 {
        let duty = gpu_duty.clamp(0.0, 1.0);
        self.gpu_idle_w + duty * (self.gpu_tdp_w - self.gpu_idle_w) + self.cpu_w + self.overhead_w
    }

    /// Application energy efficiency in Gflops/W given achieved per-node
    /// Gflops and GPU duty cycle.
    pub fn gflops_per_watt(&self, achieved_gflops_per_node: f64, gpu_duty: f64) -> f64 {
        achieved_gflops_per_node / self.node_watts(gpu_duty)
    }
}

/// Green500-style machine peak efficiencies quoted by §II, as data for the
/// comparison bench.
#[derive(Clone, Copy, Debug, Serialize)]
pub struct MachineEfficiency {
    /// Machine name.
    pub name: &'static str,
    /// Peak-linpack Gflops per watt (the §II numbers).
    pub peak_gflops_per_watt: f64,
}

/// §II: K computer, 830 Mflops/W.
pub const K_COMPUTER: MachineEfficiency = MachineEfficiency {
    name: "K computer",
    peak_gflops_per_watt: 0.83,
};
/// §II: Titan, 2.1 Gflops/W.
pub const TITAN_EFF: MachineEfficiency = MachineEfficiency {
    name: "Titan",
    peak_gflops_per_watt: 2.1,
};
/// §II: Piz Daint, 2.7 Gflops/W.
pub const PIZ_DAINT_EFF: MachineEfficiency = MachineEfficiency {
    name: "Piz Daint",
    peak_gflops_per_watt: 2.7,
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn section_ii_ordering() {
        // GPUs beat the CPU-only K computer by 2.5-3x per watt. The specs
        // are constants: the ordering is checked at compile time.
        const {
            assert!(TITAN_EFF.peak_gflops_per_watt / K_COMPUTER.peak_gflops_per_watt > 2.0);
            assert!(PIZ_DAINT_EFF.peak_gflops_per_watt > TITAN_EFF.peak_gflops_per_watt);
        }
    }

    #[test]
    fn node_power_magnitude() {
        // A busy XK7 node draws ~350-400 W; idle GPU ~150-160 W.
        let busy = K20X_NODE.node_watts(1.0);
        let idle = K20X_NODE.node_watts(0.0);
        assert!((330.0..420.0).contains(&busy), "busy {busy} W");
        assert!((120.0..180.0).contains(&idle), "idle {idle} W");
    }

    #[test]
    fn record_run_application_efficiency() {
        // At 18600 GPUs the application sustains 1.33 Tflops/node with the
        // GPU busy ~75% of the step (3.58 s of 4.77 s): ~3.6 Gflops/W
        // application efficiency — comfortably above Titan's 2.1 GF/W
        // Linpack number because SP flops are cheaper than DP.
        let duty = 3.58 / 4.77;
        let eff = K20X_NODE.gflops_per_watt(1330.0, duty);
        assert!((3.0..4.5).contains(&eff), "app efficiency {eff} GF/W");
    }

    #[test]
    fn duty_cycle_clamps() {
        assert_eq!(K20X_NODE.node_watts(2.0), K20X_NODE.node_watts(1.0));
        assert_eq!(K20X_NODE.node_watts(-1.0), K20X_NODE.node_watts(0.0));
    }
}

//! Machine descriptions — Table I of the paper as data.

use serde::Serialize;

/// Interconnect topology families of the two Crays.
#[derive(Clone, Copy, Debug, PartialEq, Serialize)]
pub enum Topology {
    /// Cray Aries dragonfly (Piz Daint): low diameter, high global bandwidth.
    Dragonfly,
    /// Cray Gemini 3D torus (Titan): diameter grows with machine size.
    Torus3D {
        /// Torus dimensions (x, y, z) in Gemini router units.
        dims: [u32; 3],
    },
}

impl Topology {
    /// Average hop count for uniformly random traffic.
    pub fn mean_hops(&self) -> f64 {
        match self {
            // min-routed dragonfly: ≤ 3 hops (local, global, local); adaptive
            // routing averages a little above 3.
            Topology::Dragonfly => 3.2,
            // 3D torus: quarter of each dimension on average per axis.
            Topology::Torus3D { dims } => dims.iter().map(|&d| d as f64 / 4.0).sum(),
        }
    }

    /// Effective fraction of injection bandwidth usable during dense
    /// collectives (bisection-limited congestion factor).
    pub fn collective_efficiency(&self) -> f64 {
        match self {
            Topology::Dragonfly => 0.75,
            Topology::Torus3D { .. } => 0.35,
        }
    }
}

/// One supercomputer (Table I).
#[derive(Clone, Copy, Debug, Serialize)]
pub struct MachineSpec {
    /// Machine name.
    pub name: &'static str,
    /// Total nodes installed.
    pub total_nodes: u32,
    /// Nodes used in the paper's largest runs.
    pub nodes_used: u32,
    /// Host CPU marketing name.
    pub cpu: &'static str,
    /// Host CPU cores per node used by Bonsai's thread groups.
    pub cpu_cores: u32,
    /// Host node RAM in GB.
    pub node_ram_gb: u32,
    /// Relative host-CPU throughput for LET construction (Xeon E5-2670 = 1;
    /// the Opteron 6274's weaker per-core throughput is why Titan shows
    /// "slightly longer LET generation times", §VI-B).
    pub cpu_let_rate: f64,
    /// Network family.
    pub topology: Topology,
    /// Injection bandwidth per node, GB/s.
    pub injection_gbs: f64,
    /// Base one-way message latency, microseconds.
    pub latency_us: f64,
}

/// Piz Daint, Cray XC30 at CSCS.
pub const PIZ_DAINT: MachineSpec = MachineSpec {
    name: "Piz Daint",
    total_nodes: 5272,
    nodes_used: 5200,
    cpu: "Xeon E5-2670",
    cpu_cores: 8,
    node_ram_gb: 32,
    cpu_let_rate: 1.0,
    topology: Topology::Dragonfly,
    injection_gbs: 10.0,
    latency_us: 1.5,
};

/// Titan, Cray XK7 at ORNL.
pub const TITAN: MachineSpec = MachineSpec {
    name: "Titan",
    total_nodes: 18688,
    nodes_used: 18600,
    cpu: "Opteron 6274",
    cpu_cores: 16,
    node_ram_gb: 32,
    cpu_let_rate: 0.55,
    topology: Topology::Torus3D { dims: [25, 16, 24] },
    injection_gbs: 6.0,
    latency_us: 2.5,
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_node_counts() {
        assert_eq!(PIZ_DAINT.total_nodes, 5272);
        assert_eq!(PIZ_DAINT.nodes_used, 5200);
        assert_eq!(TITAN.total_nodes, 18688);
        assert_eq!(TITAN.nodes_used, 18600);
    }

    #[test]
    fn titan_torus_holds_all_nodes() {
        if let Topology::Torus3D { dims } = TITAN.topology {
            let routers: u32 = dims.iter().product();
            // Gemini: 2 nodes per router.
            assert!(routers * 2 >= TITAN.total_nodes);
        } else {
            panic!("Titan must be a torus");
        }
    }

    #[test]
    fn dragonfly_beats_torus_on_hops_and_congestion() {
        assert!(PIZ_DAINT.topology.mean_hops() < TITAN.topology.mean_hops());
        assert!(
            PIZ_DAINT.topology.collective_efficiency() > TITAN.topology.collective_efficiency()
        );
    }

    #[test]
    fn piz_daint_cpu_is_faster_for_lets() {
        // Both specs are constants: the ordering is checked at compile time.
        const { assert!(PIZ_DAINT.cpu_let_rate > TITAN.cpu_let_rate) }
    }
}

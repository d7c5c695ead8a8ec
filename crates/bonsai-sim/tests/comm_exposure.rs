//! Regression tests for communication exposure under comm-heavy configs.
//!
//! At the default config (fast interconnect, ample per-rank work) the LET
//! exchange hides completely behind gravity and `hidden_comm_fractions`
//! legitimately read 1.0 with `non_hidden_comm == 0`. Those readings are
//! degenerate as *test signals*: they would stay pinned even if the overlap
//! accounting broke. These tests starve the overlap window instead — a
//! crawling interconnect and little per-rank work — so the fraction must
//! land strictly inside (0, 1), the breakdown must charge a nonzero
//! exposed-communication term, and the exposed intervals must be exactly
//! the unhidden share of each rank's COMM time.

use bonsai_ic::plummer_sphere;
use bonsai_net::obs::{exposed_comm, hidden_comm_fractions};
use bonsai_net::{MachineSpec, Topology};
use bonsai_obs::Lane;
use bonsai_sim::breakdown::Phase;
use bonsai_sim::{Cluster, ClusterConfig};

/// A deliberately terrible interconnect: Piz Daint's shape with ~1000×
/// less injection bandwidth, so LET windows dwarf the gravity they
/// overlap with.
fn dialup_machine() -> MachineSpec {
    MachineSpec {
        name: "dialup",
        total_nodes: 64,
        nodes_used: 64,
        cpu: "Xeon E5-2670",
        cpu_cores: 8,
        node_ram_gb: 32,
        cpu_let_rate: 1.0,
        topology: Topology::Dragonfly,
        injection_gbs: 0.01,
        latency_us: 50.0,
    }
}

fn comm_heavy_cluster() -> Cluster {
    let cfg = ClusterConfig { machine: dialup_machine(), ..ClusterConfig::default() };
    // Small N per rank: little gravity to hide behind.
    Cluster::new(plummer_sphere(1600, 21), 4, cfg)
}

#[test]
fn hidden_fraction_is_strictly_interior_when_comm_heavy() {
    let mut c = comm_heavy_cluster();
    c.step();
    let fractions = hidden_comm_fractions(c.trace(), c.trace().last_step().unwrap());
    assert_eq!(fractions.len(), 4);
    for (r, f) in fractions {
        assert!(
            f > 0.0 && f < 1.0,
            "rank {r}: comm-heavy fraction must be strictly in (0,1), got {f}"
        );
    }
}

#[test]
fn breakdown_charges_exposed_comm_when_comm_heavy() {
    let mut c = comm_heavy_cluster();
    let b = c.step();
    assert!(
        b[Phase::NonHiddenComm] > 0.0,
        "slow network must leave exposed communication, got {}",
        b[Phase::NonHiddenComm]
    );
    // The exposure can't exceed the full exchange window: sanity-bound it
    // by the total step time.
    assert!(b[Phase::NonHiddenComm] < b.total());
}

#[test]
fn default_config_still_hides_comm_completely() {
    // The paper's overlap claim at the default config stays intact: this is
    // the contrast that makes the comm-heavy readings meaningful.
    let mut c = Cluster::new(plummer_sphere(8000, 21), 4, ClusterConfig::default());
    let b = c.step();
    assert_eq!(b[Phase::NonHiddenComm], 0.0);
    for (_, f) in hidden_comm_fractions(c.trace(), c.trace().last_step().unwrap()) {
        assert!(f > 0.9);
    }
}

#[test]
fn exposed_comm_is_the_unhidden_share_of_comm() {
    // The two readers of the COMM lane agree: per rank, the exposed
    // intervals add up to (1 − hidden fraction) × COMM seconds.
    let mut c = comm_heavy_cluster();
    c.step();
    let (trace, step) = (c.trace(), c.trace().last_step().unwrap());
    let times = c.flow_arrows().times(step);
    let exposed = exposed_comm(trace, step, c.flow_ledger().for_epoch(step).iter(), &times);
    for (rank, hidden) in hidden_comm_fractions(trace, step) {
        let spans = trace.step_records(step).spans.iter();
        let comm: f64 = (spans.filter(|s| s.rank == rank && s.lane == Lane::Comm))
            .map(|s| s.end - s.start)
            .sum();
        let exposed: f64 = (exposed.iter().filter(|x| x.rank == rank as usize)).map(|x| x.seconds()).sum();
        assert!(comm > 0.0 && exposed > 0.0, "rank {rank}: comm {comm}, exposed {exposed}");
        assert!(
            (exposed - (1.0 - hidden) * comm).abs() <= 1e-12 * comm,
            "rank {rank}: exposed {exposed} s, hidden fraction {hidden} of {comm} s"
        );
    }
}

//! The one-step observability exports: one step of the cluster simulator on
//! a fixed-seed Plummer sphere, exported through every observability
//! surface at once.
//!
//! * `trace_json` — Chrome trace-event JSON, loadable in
//!   [Perfetto](https://ui.perfetto.dev) or `chrome://tracing`: one process
//!   per rank with GPU and COMM lanes, spans for every Table II phase,
//!   fault/recovery instants and the flow arrows (drawn from the ledger)
//!   on the COMM track;
//! * `folded` — folded stacks for flamegraph tooling;
//! * `prom` — Prometheus text exposition of the registry;
//! * `bench_json` — `BENCH_step.json`, schema `bonsai-step-v1`: per-phase
//!   seconds, Gflops, hidden-comm fraction and bytes moved.
//!
//! Every output is deterministic: a fixed seed yields byte-identical text
//! run over run, so the artefacts can be diffed across commits.

use bonsai_ic::plummer_sphere;
use bonsai_net::obs::mean_hidden_comm_fraction;
use bonsai_obs::json::{self, Value};
use bonsai_obs::{chrome, folded, obj, prom};
use bonsai_sim::breakdown::Phase;
use bonsai_sim::{Cluster, ClusterConfig};

/// Everything one traced step exports.
pub struct StepExports {
    /// `BENCH_step.json`.
    pub bench_json: String,
    /// `out/trace_step.json`.
    pub trace_json: String,
    /// `out/folded_step.txt`.
    pub folded: String,
    /// `out/metrics_step.prom`.
    pub prom: String,
    /// Whether the registry reduction reproduces the returned breakdown
    /// exactly — instrumentation changes observation, not physics or timing.
    pub registry_matches: bool,
}

/// Run one step of `n` Plummer particles over `ranks` ranks and export it.
pub fn run(n: usize, ranks: usize, seed: u64) -> StepExports {
    let mut cluster = Cluster::new(plummer_sphere(n, seed), ranks, ClusterConfig::default());
    let b = cluster.step();
    let registry_matches = cluster.breakdown_from_metrics() == b;

    let step = cluster.trace().last_step().expect("step recorded spans");
    let hidden = mean_hidden_comm_fraction(cluster.trace(), step);
    let m = &cluster.last_measurements;
    let boundary: usize = m.boundary_bytes.iter().sum();
    let lets: usize = m.let_bytes_sent.iter().sum();
    let exchange: usize = m.exchange_bytes.iter().sum();
    let total_bytes = boundary + lets + exchange + m.retransmit_bytes;
    let mut phases = Phase::ALL.map(|phase| (phase.name(), b[phase]));
    phases.sort_by_key(|&(name, _)| name);

    let bench_json = json::write(&obj!(
        "schema": "bonsai-step-v1",
        "config": obj!("particles": n, "ranks": ranks, "seed": seed),
        "phase_seconds": phases.into_iter().collect::<Value>(),
        "total_seconds": b.total(),
        "gpu_gflops": b.gpu_tflops() * 1e3,
        "application_gflops": b.application_tflops() * 1e3,
        "hidden_comm_fraction": hidden,
        "bytes_moved": obj!("boundary": boundary, "let": lets, "exchange": exchange,
            "retransmit": m.retransmit_bytes, "total": total_bytes),
    ));

    StepExports {
        bench_json,
        trace_json: chrome::chrome_trace_json(&cluster.flow_arrows().drawn_trace(cluster.trace())),
        folded: folded::folded_stacks(cluster.trace()),
        prom: prom::prometheus_text(cluster.metrics()),
        registry_matches,
    }
}

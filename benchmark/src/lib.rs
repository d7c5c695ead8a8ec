//! Wall-clock benchmark of the bonsai-rs tree-code.
//!
//! Four Milky Way workloads driven through the public API of the real code
//! (`bonsai_core::Simulation`, `bonsai_sim::Cluster`); six end-to-end
//! metrics from an untraced run ([`e2e`]); per-layer metrics from a traced
//! run that replays every epoch through each layer's public functions
//! ([`traced`], [`replay`]). `README.md` beside this package is the metric
//! glossary and says how the layers and the end-to-end metrics interact.

#![deny(missing_docs)]

pub mod calibrate;
pub mod checks;
pub mod e2e;
pub mod host;
pub mod replay;
pub mod report;
pub mod stats;
pub mod trace;
pub mod traced;
pub mod workload;

/// Where traces and checkpoint scratch go: `out/` beside this package's
/// manifest, wherever the binary is run from.
pub fn out_dir() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

//! # bonsai-obs
//!
//! The unified observability layer of the workspace: one event model and one
//! metrics registry that every subsystem reports through, with
//! zero-dependency machine-readable exporters.
//!
//! The paper's entire performance argument is a measurement story — Table
//! II's per-phase decomposition, Fig. 4's scaling curves, and the §III-B2
//! claim that LET communication hides under GPU compute. This crate gives
//! those measurements a first-class home instead of ad-hoc structs scattered
//! across the stack:
//!
//! * [`span`] — hierarchical spans and instant events keyed by
//!   rank × step × phase, collected in a [`TraceStore`]. Each rank is a
//!   track with GPU, COMM and CPU lanes; spans carry typed arguments
//!   (modelled occupancy, flops, byte volumes).
//! * [`metrics`] — a typed [`MetricsRegistry`]: monotonic counters,
//!   point-in-time gauges and log-scale histograms, addressed by
//!   Prometheus-style `name{label="value"}` keys with deterministic
//!   ordering.
//! * [`timeseries`] — bounded per-metric run histories: step-aligned bins
//!   with min/max/mean rollups that downsample by doubling the bin width,
//!   so a 10k-step run costs the same memory as a 100-step run.
//! * [`health`] — declarative alert rules (threshold / relative-drift /
//!   windowed-trend, with severities and open/close hysteresis) over the
//!   per-step metric stream, logging a byte-deterministic incident log.
//! * [`flight`] — incidents: on alert firing, the live trace's last
//!   [`TRACE_WINDOW`] epochs are frozen into a Perfetto-loadable incident
//!   trace plus a structured report.
//! * [`stream`] — the in-run telemetry bus: versioned frames (step header,
//!   phase sample, gauges, flow digest, alerts, view changes) pushed through
//!   bounded per-subscriber rings with an explicit backpressure policy
//!   (lossy-tail for samples, must-deliver for alerts) and exact drop/lag
//!   accounting.
//! * [`overhead`] — observability self-metering: op counts priced by a
//!   modelled cost model reduce to a per-step overhead fraction, budgeted
//!   by a health rule (≤ 3% of modelled step time).
//! * [`chrome`] — Chrome trace-event JSON export, loadable in Perfetto or
//!   `chrome://tracing` (one process per rank, one thread per lane).
//! * [`folded`] — folded-stacks text for flamegraph tooling.
//! * [`prom`] — Prometheus text-exposition snapshot of the registry.
//! * [`json`] — the minimal JSON writer the exporters share, plus a tiny
//!   parser used to round-trip-validate exports in tests.
//!
//! Everything is deterministic: identical inputs produce byte-identical
//! exports, which is what lets the bench trajectory (`BENCH_*.json`) and
//! the trace artefacts be diffed across commits.
//!
//! ```
//! use bonsai_obs::{Lane, TraceStore, MetricsRegistry, chrome};
//!
//! let mut t = TraceStore::new();
//! let s = t.span(0, 1, Lane::Gpu, "gravity", 0.0, 2.45);
//! t.arg_f64(s, "occupancy", 0.94);
//! let mut reg = MetricsRegistry::new();
//! reg.counter_add("bonsai_bytes_total", &[("kind", "let")], 4096);
//! let json = chrome::chrome_trace_json(&t);
//! assert!(json.contains("\"gravity\""));
//! ```

#![deny(missing_docs)]

pub mod analysis;
pub mod chrome;
pub mod flight;
pub mod folded;
pub mod health;
pub mod json;
pub mod metrics;
pub mod overhead;
pub mod profile;
pub mod prom;
pub mod span;
pub mod stream;
pub mod timeseries;

pub use analysis::{
    critical_path, flop_balance, phase_stats, step_wall_time, strong_efficiency, weak_efficiency,
    CriticalPath, FlopBalance, PathNode, PhaseStats, ScalingPoint, WaitCause, UNATTRIBUTED,
};
pub use flight::Incident;
pub use health::{
    default_rules, AlertEvent, AlertKind, Condition, HealthMonitor, Rule, Severity,
};
pub use metrics::{LogHistogram, MetricsRegistry, EXPORT_QUANTILES};
pub use overhead::{
    overhead_rule, ObsCostModel, OverheadMeter, OverheadSample, OVERHEAD_BUDGET_FRACTION,
    OVERHEAD_GAUGE,
};
pub use profile::{
    folded_profile, roofline, telescoping_error, ProfileRow, RooflinePoint, TermResidual,
};
pub use span::{
    interval_union, overlap_with_union, ArgValue, FlowPhase, FlowPoint, Instant, Lane, Span,
    SpanId, StepRecords, TraceStore, TRACE_WINDOW,
};
pub use stream::{
    FrameKind, FrameValue, SubscriberConfig, SubscriberReport, TelemetryBus, TelemetryFrame,
    FRAME_VERSION,
};
pub use timeseries::{Bin, Series, SeriesConfig, SeriesStore};

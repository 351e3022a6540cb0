//! Deterministic, low-overhead observability for the CloudTalk stack.
//!
//! Three pieces, each usable on its own:
//!
//! * [`trace`] — query-scoped spans. A [`Trace`] is created per unit of
//!   work (one `Server::answer`), passed by `&mut` down the call path —
//!   **no globals** — and records into a pre-sized arena so the warm path
//!   performs no heap allocation (pinned by `tests/trace_alloc.rs`).
//!   Every span carries two clocks: the *simulated* interval (from the
//!   deterministic [`desim`] clock) and a *host* interval read from a
//!   monotonic timer behind the [`HostClock`] trait. Tests plug
//!   [`NullClock`] / [`ManualClock`] so recorded traces are bit-stable;
//!   benches plug [`MonotonicClock`] to see real time.
//! * [`metrics`] — a [`MetricsRegistry`] of named counters, gauges, and
//!   fixed-bucket histograms. Handles are dense indices; updating a
//!   metric is one bounds-checked array write, cheap enough for the
//!   simulation engine's event loop.
//! * [`export`] — Chrome `trace_event` JSON (load it at
//!   `chrome://tracing` or <https://ui.perfetto.dev>) and a flat
//!   `name value` metrics dump. Hand-rolled serialisation: this
//!   workspace has no serde available offline.
//!
//! The continuous-telemetry layer builds on those three:
//!
//! * [`timeseries`] — per-worker [`RingRecorder`]s of fixed-width
//!   sim-time windows (alloc-free hot path), merged by a [`WindowHub`]
//!   into per-window p50/p99/p999, rates, and per-class/per-shard
//!   counts.
//! * [`slo`] — declarative [`SloSpec`]s evaluated per window with
//!   burn-rate accounting, emitting typed [`SloEvent`]s on transitions.
//! * [`sample`] — a deterministic hash-based [`TraceSampler`] minting
//!   [`TraceCtx`]s whose sampled set is independent of worker count.
//! * [`recorder`] — a bounded [`FlightRecorder`] of recent windows,
//!   stitched traces, and SLO events, dumpable as a postmortem bundle.
//!
//! Determinism contract: nothing in this crate reads wall-clock time,
//! global state, or environment unless the caller explicitly installs a
//! [`MonotonicClock`]. Two runs of a deterministic workload produce
//! byte-identical reports and dumps.

#![warn(missing_docs)]

pub mod clock;
pub mod export;
pub mod metrics;
pub mod recorder;
pub mod sample;
pub mod slo;
pub mod timeseries;
pub mod trace;

pub use clock::{HostClock, ManualClock, MonotonicClock, NullClock};
pub use export::{chrome_trace_json, metrics_dump};
pub use metrics::{quantile_from_counts, CounterId, GaugeId, HistogramId, MetricsRegistry};
pub use recorder::{FlightRecorder, PostmortemBundle, RecorderCfg, StitchedTrace};
pub use sample::{TraceCtx, TraceSampler};
pub use slo::{SloEvent, SloEventKind, SloKind, SloSpec, SloStats, SloTracker};
pub use timeseries::{
    ClassWindow, QueryRecord, RingRecorder, RingSpec, WindowData, WindowHub, WindowSummary,
};
pub use trace::{SpanId, SpanRecord, Trace, TraceReport, NO_PARENT};

//! Observability layer for the `agilepm` workspace.
//!
//! Everything the paper's evaluation needs to *explain* a run — not just
//! its aggregate totals — flows through this crate:
//!
//! * [`json`] — a zero-dependency JSON value model, writer, and parser.
//!   The workspace builds in hermetic environments, so the telemetry
//!   formats carry their own serialization.
//! * [`sink`] — the [`TraceSink`] trait and its implementations: the
//!   constant-memory [`JsonlSink`] streams one record per line to disk,
//!   [`MemorySink`] buffers for tests, [`CountingSink`] measures volume,
//!   and [`NullSink`] compiles the whole path down to one branch.
//! * [`metrics`] — a [`MetricsRegistry`] of named counters, gauges, and
//!   log-bucketed histograms, frozen into deterministic
//!   [`MetricsSnapshot`]s that land in simulation reports.
//! * [`span`] — the hierarchical wall-clock [`SpanTracer`]: nested
//!   spans (`plan > consolidate > candidate_scan`, ...) aggregated per
//!   call path, exportable as attribution tables, chrome://tracing
//!   JSON, and collapsed-stack flamegraph text. Wall time never touches
//!   simulation state, so runs stay bit-deterministic with tracing on
//!   or off.
//!
//! # Design rule: observe, never steer
//!
//! Nothing in this crate may influence simulation results. Sinks consume
//! records; registries count; profilers read real clocks that the
//! simulation cannot see. The `dcsim` determinism tests enforce this by
//! comparing reports across telemetry configurations.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod json;
pub mod metrics;
pub mod sink;
pub mod span;

pub use json::{Json, JsonError, ToJson};
pub use metrics::{
    CounterId, GaugeId, Histogram, HistogramId, MetricEntry, MetricValue, MetricsRegistry,
    MetricsSnapshot, Quantiles,
};
pub use sink::{CountingSink, JsonlSink, MemorySink, NullSink, TraceSink};
pub use span::{SpanName, SpanStat, SpanSummary, SpanTracer};

//! Observability layer for the `agilepm` workspace.
//!
//! Everything the paper's evaluation needs to *explain* a run — not just
//! its aggregate totals — flows through this crate:
//!
//! * [`json`] — a zero-dependency JSON value model, writer, and parser.
//!   The workspace builds in hermetic environments, so the telemetry
//!   formats carry their own serialization.
//! * [`sink`] — the trace writer: [`JsonlSink`] streams one record per
//!   line to disk in constant memory and latches its first write error
//!   for the closing flush.
//! * [`metrics`] — a [`MetricsRegistry`] of named counters, gauges, and
//!   log-bucketed histograms, frozen into deterministic
//!   [`MetricsSnapshot`]s that land in simulation reports.
//! * [`span`] — the hierarchical wall-clock [`SpanTracer`]: nested
//!   spans (`plan > consolidate > candidate_scan`, ...) aggregated per
//!   call path, rendered as attribution tables and carried in the
//!   end-of-run trace record as JSON. Wall time never touches
//!   simulation state, so runs stay bit-deterministic with tracing on
//!   or off.
//!
//! # Design rule: observe, never steer
//!
//! Nothing in this crate may influence simulation results. The sink
//! consumes records; registries count; profilers read real clocks that the
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
pub use sink::JsonlSink;
pub use span::{SpanName, SpanStat, SpanSummary, SpanTracer};

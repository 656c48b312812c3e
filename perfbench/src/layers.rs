//! Per-layer attribution of one traced day.
//!
//! The engine already returns a span tree (`SimOutput::spans`) and the
//! deterministic `work.*` counters (`SimReport::metrics`). This module
//! maps each span path to a metric named after the workspace module it
//! measures, pairs every span with a count, and derives the cost per
//! operation. A span the map expects but the run did not emit is reported
//! as absent, never as 0; a span the run emitted but the map does not
//! know is listed as unmapped. Either one means the engine's spans were
//! renamed or split, and the map must follow.

use std::fmt::Write as _;

use dcsim::SimReport;
use obs::{MetricValue, SpanStat, SpanSummary};

use crate::Metric;

/// One span path the engine emits and the metric its total time becomes.
#[derive(Debug, Clone, Copy)]
pub struct SpanRow {
    /// `;`-joined call path, as `SpanSummary` reports it.
    pub path: &'static str,
    /// Name of the per-layer metric holding the span's total seconds.
    pub metric: &'static str,
    /// The counter that counts the span's operations; `None` pairs the
    /// span with its own call count.
    pub work: Option<&'static str>,
}

const fn row(path: &'static str, metric: &'static str, work: Option<&'static str>) -> SpanRow {
    SpanRow { path, metric, work }
}

/// Every span path the three workloads emit, in the engine's order.
pub const SPAN_MAP: [SpanRow; 18] = [
    row("demand", "sim.demand_s", Some("work.cluster.dirty_marks")),
    row("observe", "sim.observe_s", None),
    row("plan", "core.plan_s", Some("work.commit.planned")),
    // Wraps observation bookkeeping, not rescoring: see ROADMAP item 1.
    row("plan;rescore", "core.plan.rescore_s", None),
    row("plan;capacity_wake", "core.plan.capacity_wake_s", None),
    row(
        "plan;index_maintain",
        "core.plan.index_maintain_s",
        Some("work.index.rebuckets"),
    ),
    row("plan;overload", "core.plan.overload_s", None),
    row("plan;consolidate", "core.plan.consolidate_s", None),
    row("plan;consolidate;drain", "core.plan.drain_s", None),
    row(
        "plan;consolidate;candidate_scan",
        "core.plan.candidate_scan_s",
        Some("work.plan.candidates_scanned"),
    ),
    row(
        "plan;consolidate;trial",
        "core.plan.trial_s",
        Some("work.plan.trials_attempted"),
    ),
    row(
        "plan;consolidate;trial;undo",
        "core.plan.undo_s",
        Some("work.plan.trials_rolled_back"),
    ),
    row("plan;rebalance", "core.plan.rebalance_s", None),
    row("plan;park", "core.plan.park_s", None),
    row("execute", "sim.execute_s", Some("work.commit.accepted")),
    row(
        "execute;migration",
        "cluster.migration_s",
        Some("work.migrations.executed"),
    ),
    row("execute;power", "power.transition_s", None),
    row("dispatch", "sim.dispatch_s", None),
];

/// The `work.*` counters reported as per-layer counts.
pub const WORK_COUNTERS: [&str; 10] = [
    "work.cluster.dirty_marks",
    "work.plan.candidates_scanned",
    "work.plan.hosts_rescored",
    "work.plan.trials_attempted",
    "work.plan.trials_rolled_back",
    "work.index.rebuckets",
    "work.commit.planned",
    "work.commit.accepted",
    "work.commit.rejected",
    "work.commit.dropped_unowned",
];

/// A counter from the report's metrics snapshot; `None` when the run did
/// not register it.
fn counter(report: &SimReport, name: &str) -> Option<f64> {
    match report.metrics.get(name) {
        Some(MetricValue::Counter(v)) => Some(*v as f64),
        _ => None,
    }
}

/// `num / den`, or `None` when either is absent or the base is 0.
fn ratio(num: Option<f64>, den: Option<f64>) -> Option<f64> {
    match (num, den) {
        (Some(n), Some(d)) if d > 0.0 => Some(n / d),
        _ => None,
    }
}

/// The per-layer metrics of one traced day whose `run` call took
/// `traced_run_s` seconds, plus the attribution table that explains
/// them.
pub fn attribute(
    spans: &SpanSummary,
    report: &SimReport,
    traced_run_s: f64,
) -> (Vec<Metric>, String) {
    let secs = |path: &str| spans.span(path).map(|s| s.total_secs);
    let calls = |path: &str| spans.span(path).map(|s| s.calls as f64);
    let mut metrics: Vec<Metric> = SPAN_MAP
        .iter()
        .map(|r| Metric::new(r.metric, "s", secs(r.path)))
        .collect();
    metrics.extend(
        WORK_COUNTERS
            .iter()
            .map(|&name| Metric::new(name, "count", counter(report, name))),
    );
    let depth1: f64 = spans.children_of("").iter().map(|s| s.total_secs).sum();
    let scaled = |v: Option<f64>, k: f64| v.map(|v| v * k);
    metrics.extend([
        Metric::new("sim.dispatch_events", "count", calls("dispatch")),
        Metric::new(
            "sim.dispatch_us_per_event",
            "us",
            scaled(ratio(secs("dispatch"), calls("dispatch")), 1e6),
        ),
        Metric::new(
            "sim.demand_ns_per_dirty_mark",
            "ns",
            scaled(
                ratio(secs("demand"), counter(report, "work.cluster.dirty_marks")),
                1e9,
            ),
        ),
        Metric::new(
            "core.plan.trial_us_per_trial",
            "us",
            scaled(
                ratio(
                    secs("plan;consolidate;trial"),
                    counter(report, "work.plan.trials_attempted"),
                ),
                1e6,
            ),
        ),
        Metric::new(
            "core.plan.trial_waste_ratio",
            "ratio",
            ratio(
                counter(report, "work.plan.trials_rolled_back"),
                counter(report, "work.plan.trials_attempted"),
            ),
        ),
        Metric::new(
            "core.commit.accept_ratio",
            "ratio",
            ratio(
                counter(report, "work.commit.accepted"),
                counter(report, "work.commit.planned"),
            ),
        ),
        Metric::new(
            "sim.action_failures",
            "count",
            Some(report.action_failures as f64),
        ),
        Metric::new(
            "cluster.migration_failures",
            "count",
            Some(report.migration_failures as f64),
        ),
        Metric::new(
            "power.transition_failures",
            "count",
            Some(report.transition_failures as f64),
        ),
        Metric::new(
            "power.hung_transitions",
            "count",
            Some(report.hung_transitions as f64),
        ),
        Metric::new(
            "obs.span_coverage_pct",
            "%",
            scaled(ratio(Some(depth1), Some(traced_run_s)), 100.0),
        ),
    ]);
    (metrics, table(spans, report))
}

/// The attribution table: per mapped span its seconds, calls, paired
/// count and cost per operation, then any span the map does not know.
fn table(spans: &SpanSummary, report: &SimReport) -> String {
    let mut out = format!(
        "{:<28} {:<32} {:>9} {:>9} {:>9}  {:<42} {:>12}\n",
        "metric", "span", "total s", "self s", "calls", "paired count", "cost/op"
    );
    for r in &SPAN_MAP {
        let Some(s) = spans.span(r.path) else {
            let _ = writeln!(out, "{:<28} {:<32} {:>9}", r.metric, r.path, "absent");
            continue;
        };
        let (paired, ops) = match r.work {
            Some(name) => match counter(report, name) {
                Some(v) => (format!("{name}={v}"), Some(v)),
                None => (format!("{name} absent"), None),
            },
            None => ("calls".to_string(), Some(s.calls as f64)),
        };
        let cost = match ratio(Some(s.total_secs), ops) {
            Some(c) => format!("{:.1} ns", c * 1e9),
            None => "-".to_string(),
        };
        let _ = writeln!(
            out,
            "{:<28} {:<32} {:>9.3} {:>9.3} {:>9}  {:<42} {:>12}",
            r.metric, r.path, s.total_secs, s.self_secs, s.calls, paired, cost
        );
    }
    for s in unmapped(spans) {
        let _ = writeln!(
            out,
            "{:<28} {:<32} {:>9.3} {:>9.3} {:>9}",
            "unmapped", s.path, s.total_secs, s.self_secs, s.calls
        );
    }
    out
}

/// The spans of `spans` whose path [`SPAN_MAP`] does not cover.
pub fn unmapped(spans: &SpanSummary) -> Vec<&SpanStat> {
    spans
        .spans
        .iter()
        .filter(|s| !SPAN_MAP.iter().any(|r| r.path == s.path))
        .collect()
}

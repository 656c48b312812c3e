//! Measurement pipeline: per-tick collection and the final report.

use agile_core::DecisionActions;
use cluster::{Cluster, DemandOutcome};
use obs::{Json, JsonError, MetricsSnapshot};

use crate::events::EventRecord;
use simcore::{SimDuration, SimTime, TimeSeries, Welford};

/// Demand below this many cores counts as zero when deciding whether a
/// tick had a violation (absorbs floating-point dust).
const VIOLATION_EPS_CORES: f64 = 1e-6;

/// Collects metrics during a run; folded into a [`SimReport`] at the end.
#[derive(Debug, Clone)]
pub(crate) struct MetricsCollector {
    tick_dt: SimDuration,
    power_series: TimeSeries,
    hosts_on_series: TimeSeries,
    unserved_series: TimeSeries,
    offered_core_secs: f64,
    served_core_secs: f64,
    unserved_core_secs: f64,
    offered_interactive_core_secs: f64,
    offered_batch_core_secs: f64,
    unserved_interactive_core_secs: f64,
    unserved_batch_core_secs: f64,
    violation_ticks: u64,
    ticks: u64,
    util_on: Welford,
    latency_weighted_sum: f64,
    latency_weight: f64,
    peak_latency_factor: f64,
}

impl MetricsCollector {
    pub fn new(tick_dt: SimDuration) -> Self {
        MetricsCollector {
            tick_dt,
            power_series: TimeSeries::new(),
            hosts_on_series: TimeSeries::new(),
            unserved_series: TimeSeries::new(),
            offered_core_secs: 0.0,
            served_core_secs: 0.0,
            unserved_core_secs: 0.0,
            offered_interactive_core_secs: 0.0,
            offered_batch_core_secs: 0.0,
            unserved_interactive_core_secs: 0.0,
            unserved_batch_core_secs: 0.0,
            violation_ticks: 0,
            ticks: 0,
            util_on: Welford::new(),
            latency_weighted_sum: 0.0,
            latency_weight: 0.0,
            peak_latency_factor: 1.0,
        }
    }

    /// Records one demand-weighted response-time-factor sample (an M/M/1
    /// style `1/(1-rho)` stretch; rho capped at 0.98). Both the simulated
    /// and the analytic (oracle) paths feed this.
    pub fn record_latency_sample(&mut self, rho: f64, demand_weight: f64) {
        if demand_weight <= 0.0 {
            return;
        }
        let factor = 1.0 / (1.0 - rho.clamp(0.0, 0.98));
        self.latency_weighted_sum += factor * demand_weight;
        self.latency_weight += demand_weight;
        self.peak_latency_factor = self.peak_latency_factor.max(factor);
    }

    /// Records one demand tick.
    pub fn record_tick(&mut self, now: SimTime, outcome: &DemandOutcome, cluster: &Cluster) {
        let dt = self.tick_dt.as_secs_f64();
        self.offered_core_secs += outcome.offered_cores * dt;
        self.served_core_secs += outcome.served_cores * dt;
        self.unserved_core_secs += outcome.unserved_cores * dt;
        self.offered_interactive_core_secs += outcome.offered_interactive_cores * dt;
        self.offered_batch_core_secs += outcome.offered_batch_cores * dt;
        self.unserved_interactive_core_secs += outcome.unserved_interactive_cores * dt;
        self.unserved_batch_core_secs += outcome.unserved_batch_cores * dt;
        self.ticks += 1;
        if outcome.unserved_cores > VIOLATION_EPS_CORES {
            self.violation_ticks += 1;
        }
        self.unserved_series.record(now, outcome.unserved_cores);

        // Queueing stretch per host: demand-based utilization drives the
        // response-time factor; demand weights the average.
        for (i, host) in cluster.hosts().iter().enumerate() {
            if host.is_operational() {
                let cap = host.capacity().cpu_cores;
                if cap > 0.0 {
                    let rho = outcome.host_demand_cores[i] / cap;
                    self.record_latency_sample(rho, outcome.host_demand_cores[i]);
                }
            }
        }

        let on = cluster.num_operational_hosts();
        self.hosts_on_series.record(now, on as f64);
        let on_capacity = cluster.operational_capacity_cores();
        if on_capacity > 0.0 {
            self.util_on.push(outcome.served_cores / on_capacity);
        }
    }

    /// Records an instantaneous cluster power sample (ticks and power
    /// events).
    pub fn record_power(&mut self, now: SimTime, watts: f64) {
        self.power_series.record(now, watts);
    }

    /// Produces the final report. `energy_j` comes from the cluster's
    /// exact meters, not the sampled power series. `planned` counts the
    /// actions the control plane's schedulers kept after the ownership
    /// filter, by planning step (see [`DecisionActions`]); each
    /// event count is read from its one registry counter in `metrics`
    /// (all zero in the empty snapshot of an analytic run).
    #[allow(clippy::too_many_arguments)]
    pub fn finalize(
        self,
        scenario: String,
        policy: String,
        seed: u64,
        horizon: SimDuration,
        num_hosts: usize,
        num_vms: usize,
        energy_j: f64,
        planned: DecisionActions,
        migration_busy_secs: f64,
        transition_busy_secs: f64,
        events: Vec<EventRecord>,
        metrics: MetricsSnapshot,
    ) -> SimReport {
        let hours = horizon.as_hours_f64();
        let host_secs = num_hosts as f64 * horizon.as_secs_f64();
        let migrations = metrics.counter("sim.migrations.completed");
        SimReport {
            scenario,
            policy,
            seed,
            horizon,
            num_hosts,
            num_vms,
            energy_j,
            peak_power_w: self.power_series.max().unwrap_or(0.0),
            violation_fraction: if self.ticks > 0 {
                self.violation_ticks as f64 / self.ticks as f64
            } else {
                0.0
            },
            unserved_ratio: if self.offered_core_secs > 0.0 {
                self.unserved_core_secs / self.offered_core_secs
            } else {
                0.0
            },
            unserved_interactive_ratio: if self.offered_interactive_core_secs > 0.0 {
                self.unserved_interactive_core_secs / self.offered_interactive_core_secs
            } else {
                0.0
            },
            unserved_batch_ratio: if self.offered_batch_core_secs > 0.0 {
                self.unserved_batch_core_secs / self.offered_batch_core_secs
            } else {
                0.0
            },
            migrations,
            overload_migrations: planned.overload_migrations,
            consolidation_migrations: planned.consolidation_migrations,
            rebalance_migrations: planned.rebalance_migrations,
            power_ups: planned.power_ups,
            power_downs: planned.power_downs,
            migrations_per_hour: migrations as f64 / hours,
            power_actions_per_hour: (planned.power_ups + planned.power_downs) as f64 / hours,
            avg_hosts_on: self
                .hosts_on_series
                .time_weighted_mean(SimTime::ZERO + horizon)
                .unwrap_or(0.0),
            avg_util_on: self.util_on.mean(),
            action_failures: metrics.counter("sim.actions.rejected"),
            migration_overhead_frac: if host_secs > 0.0 {
                migration_busy_secs / host_secs
            } else {
                0.0
            },
            transition_overhead_frac: if host_secs > 0.0 {
                transition_busy_secs / host_secs
            } else {
                0.0
            },
            transition_failures: metrics.counter("sim.power.failed"),
            placement_retries: metrics.counter("sim.vm.deferred"),
            migration_failures: metrics.counter("sim.migrations.failed"),
            rejected_admissions: metrics.counter("sim.vm.rejected"),
            hung_transitions: metrics.counter("sim.power.stuck"),
            events,
            metrics,
            avg_latency_factor: if self.latency_weight > 0.0 {
                self.latency_weighted_sum / self.latency_weight
            } else {
                1.0
            },
            peak_latency_factor: self.peak_latency_factor,
            power_series: self.power_series,
            hosts_on_series: self.hosts_on_series,
            unserved_series: self.unserved_series,
        }
    }
}

/// The distilled result of one simulation run — every quantity the paper's
/// tables and figures report.
#[derive(Debug, Clone, PartialEq)]
pub struct SimReport {
    /// Scenario name.
    pub scenario: String,
    /// Policy label (see [`agile_core::PowerPolicy::label`]).
    pub policy: String,
    /// Generation seed.
    pub seed: u64,
    /// Simulated horizon.
    pub horizon: SimDuration,
    /// Number of hosts.
    pub num_hosts: usize,
    /// Number of VMs.
    pub num_vms: usize,
    /// Total cluster energy, joules.
    pub energy_j: f64,
    /// Peak sampled cluster power, watts.
    pub peak_power_w: f64,
    /// Fraction of demand ticks with any unserved demand.
    pub violation_fraction: f64,
    /// Unserved core-seconds over offered core-seconds.
    pub unserved_ratio: f64,
    /// Unserved fraction of *interactive-class* demand (served first).
    pub unserved_interactive_ratio: f64,
    /// Unserved fraction of *batch-class* demand (absorbs overload).
    pub unserved_batch_ratio: f64,
    /// Completed live migrations (`sim.migrations.completed`).
    pub migrations: u64,
    /// Requested migrations attributed to overload mitigation (base DRM).
    pub overload_migrations: u64,
    /// Requested migrations attributed to consolidation (PM work).
    pub consolidation_migrations: u64,
    /// Requested migrations attributed to background rebalancing.
    pub rebalance_migrations: u64,
    /// Host power-up actions requested.
    pub power_ups: u64,
    /// Host power-down actions requested.
    pub power_downs: u64,
    /// Migration rate.
    pub migrations_per_hour: f64,
    /// Power-action (up+down) rate.
    pub power_actions_per_hour: f64,
    /// Time-weighted average number of hosts in the `On` state.
    pub avg_hosts_on: f64,
    /// Average CPU utilization of powered-on capacity.
    pub avg_util_on: f64,
    /// Management actions the cluster rejected as stale
    /// (`sim.actions.rejected`).
    pub action_failures: u64,
    /// Fraction of total host-time spent carrying live migrations — the
    /// time-based management overhead the paper compares to base DRM.
    pub migration_overhead_frac: f64,
    /// Fraction of total host-time spent in transitional power states.
    pub transition_overhead_frac: f64,
    /// Power transitions that failed (fault injection;
    /// `sim.power.failed`).
    pub transition_failures: u64,
    /// Arrivals deferred a round for capacity, counted per deferral
    /// (lifecycle churn; `sim.vm.deferred`).
    pub placement_retries: u64,
    /// Live migrations that aborted mid-flight (fault injection); the VM
    /// stayed on its source host (`sim.migrations.failed`).
    pub migration_failures: u64,
    /// Deferred arrivals whose retry would have landed past the horizon:
    /// the admission was rejected outright instead of silently dropped
    /// (`sim.vm.rejected`).
    pub rejected_admissions: u64,
    /// Power transitions that hung in a stuck interval before failing
    /// (fault injection; `sim.power.stuck`); also counted in
    /// `transition_failures`.
    pub hung_transitions: u64,
    /// The audit log (empty unless event recording was enabled).
    pub events: Vec<EventRecord>,
    /// Deterministic snapshot of the engine's metrics registry
    /// (counters, gauges, and histograms — names in `DESIGN.md`). Empty
    /// for reports produced by analytic paths that never tick the
    /// engine.
    pub metrics: MetricsSnapshot,
    /// Demand-weighted mean response-time stretch (`1/(1-rho)`, M/M/1
    /// style) — the queueing cost of running hosts hotter.
    pub avg_latency_factor: f64,
    /// Worst single-host response-time stretch observed.
    pub peak_latency_factor: f64,
    /// Cluster power over time (step function).
    pub power_series: TimeSeries,
    /// Powered-on host count over time.
    pub hosts_on_series: TimeSeries,
    /// Unserved demand (cores) over time.
    pub unserved_series: TimeSeries,
}

impl SimReport {
    /// Total energy in kilowatt-hours.
    pub fn energy_kwh(&self) -> f64 {
        self.energy_j / 3.6e6
    }

    /// Mean cluster power over the horizon, watts.
    pub fn avg_power_w(&self) -> f64 {
        self.energy_j / self.horizon.as_secs_f64()
    }

    /// Energy savings relative to `baseline`, as a fraction in `[0, 1]`
    /// for a win (negative if this run used more energy).
    pub fn savings_vs(&self, baseline: &SimReport) -> f64 {
        if baseline.energy_j <= 0.0 {
            return 0.0;
        }
        1.0 - self.energy_j / baseline.energy_j
    }

    /// Renders the full report as a JSON object (scalar fields by name,
    /// series as `[millis, value]` pair arrays, events in the trace
    /// schema, metrics via [`MetricsSnapshot::to_json`]).
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("scenario", Json::Str(self.scenario.clone())),
            ("policy", Json::Str(self.policy.clone())),
            ("seed", seed_to_json(self.seed)),
            ("horizon_millis", Json::Int(self.horizon.as_millis() as i64)),
            ("num_hosts", Json::Int(self.num_hosts as i64)),
            ("num_vms", Json::Int(self.num_vms as i64)),
            ("energy_j", Json::Num(self.energy_j)),
            ("peak_power_w", Json::Num(self.peak_power_w)),
            ("violation_fraction", Json::Num(self.violation_fraction)),
            ("unserved_ratio", Json::Num(self.unserved_ratio)),
            (
                "unserved_interactive_ratio",
                Json::Num(self.unserved_interactive_ratio),
            ),
            ("unserved_batch_ratio", Json::Num(self.unserved_batch_ratio)),
            ("migrations", Json::Int(self.migrations as i64)),
            (
                "overload_migrations",
                Json::Int(self.overload_migrations as i64),
            ),
            (
                "consolidation_migrations",
                Json::Int(self.consolidation_migrations as i64),
            ),
            (
                "rebalance_migrations",
                Json::Int(self.rebalance_migrations as i64),
            ),
            ("power_ups", Json::Int(self.power_ups as i64)),
            ("power_downs", Json::Int(self.power_downs as i64)),
            ("migrations_per_hour", Json::Num(self.migrations_per_hour)),
            (
                "power_actions_per_hour",
                Json::Num(self.power_actions_per_hour),
            ),
            ("avg_hosts_on", Json::Num(self.avg_hosts_on)),
            ("avg_util_on", Json::Num(self.avg_util_on)),
            ("action_failures", Json::Int(self.action_failures as i64)),
            (
                "migration_overhead_frac",
                Json::Num(self.migration_overhead_frac),
            ),
            (
                "transition_overhead_frac",
                Json::Num(self.transition_overhead_frac),
            ),
            (
                "transition_failures",
                Json::Int(self.transition_failures as i64),
            ),
            (
                "placement_retries",
                Json::Int(self.placement_retries as i64),
            ),
            (
                "migration_failures",
                Json::Int(self.migration_failures as i64),
            ),
            (
                "rejected_admissions",
                Json::Int(self.rejected_admissions as i64),
            ),
            ("hung_transitions", Json::Int(self.hung_transitions as i64)),
            (
                "events",
                Json::Array(self.events.iter().map(EventRecord::to_json).collect()),
            ),
            ("metrics", self.metrics.to_json()),
            ("avg_latency_factor", Json::Num(self.avg_latency_factor)),
            ("peak_latency_factor", Json::Num(self.peak_latency_factor)),
            ("power_series", series_to_json(&self.power_series)),
            ("hosts_on_series", series_to_json(&self.hosts_on_series)),
            ("unserved_series", series_to_json(&self.unserved_series)),
        ])
    }

    /// Parses a report produced by [`to_json`](Self::to_json).
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] naming the first missing or mistyped
    /// field.
    pub fn from_json(json: &Json) -> Result<Self, JsonError> {
        let str_f = |k: &str| -> Result<String, JsonError> {
            Ok(json
                .get(k)
                .and_then(Json::as_str)
                .ok_or_else(|| report_field_err(k))?
                .to_string())
        };
        let u64_f = |k: &str| -> Result<u64, JsonError> {
            json.get(k)
                .and_then(Json::as_u64)
                .ok_or_else(|| report_field_err(k))
        };
        let f64_f = |k: &str| -> Result<f64, JsonError> {
            json.get(k)
                .and_then(Json::as_f64)
                .ok_or_else(|| report_field_err(k))
        };
        let series_f = |k: &str| -> Result<TimeSeries, JsonError> {
            series_from_json(json.get(k).ok_or_else(|| report_field_err(k))?)
        };
        let events = json
            .get("events")
            .and_then(Json::as_array)
            .ok_or_else(|| report_field_err("events"))?
            .iter()
            .map(EventRecord::from_json)
            .collect::<Result<Vec<_>, _>>()?;
        let metrics = MetricsSnapshot::from_json(
            json.get("metrics")
                .ok_or_else(|| report_field_err("metrics"))?,
        )?;
        Ok(SimReport {
            scenario: str_f("scenario")?,
            policy: str_f("policy")?,
            seed: json
                .get("seed")
                .and_then(Json::as_i64)
                .map(|bits| bits as u64)
                .ok_or_else(|| report_field_err("seed"))?,
            horizon: SimDuration::from_millis(u64_f("horizon_millis")?),
            num_hosts: u64_f("num_hosts")? as usize,
            num_vms: u64_f("num_vms")? as usize,
            energy_j: f64_f("energy_j")?,
            peak_power_w: f64_f("peak_power_w")?,
            violation_fraction: f64_f("violation_fraction")?,
            unserved_ratio: f64_f("unserved_ratio")?,
            unserved_interactive_ratio: f64_f("unserved_interactive_ratio")?,
            unserved_batch_ratio: f64_f("unserved_batch_ratio")?,
            migrations: u64_f("migrations")?,
            overload_migrations: u64_f("overload_migrations")?,
            consolidation_migrations: u64_f("consolidation_migrations")?,
            rebalance_migrations: u64_f("rebalance_migrations")?,
            power_ups: u64_f("power_ups")?,
            power_downs: u64_f("power_downs")?,
            migrations_per_hour: f64_f("migrations_per_hour")?,
            power_actions_per_hour: f64_f("power_actions_per_hour")?,
            avg_hosts_on: f64_f("avg_hosts_on")?,
            avg_util_on: f64_f("avg_util_on")?,
            action_failures: u64_f("action_failures")?,
            migration_overhead_frac: f64_f("migration_overhead_frac")?,
            transition_overhead_frac: f64_f("transition_overhead_frac")?,
            transition_failures: u64_f("transition_failures")?,
            placement_retries: u64_f("placement_retries")?,
            migration_failures: u64_f("migration_failures")?,
            rejected_admissions: u64_f("rejected_admissions")?,
            hung_transitions: u64_f("hung_transitions")?,
            events,
            metrics,
            avg_latency_factor: f64_f("avg_latency_factor")?,
            peak_latency_factor: f64_f("peak_latency_factor")?,
            power_series: series_f("power_series")?,
            hosts_on_series: series_f("hosts_on_series")?,
            unserved_series: series_f("unserved_series")?,
        })
    }
}

/// A seed as JSON: its 64 bits as a JSON integer, so a seed past
/// `i64::MAX` is written negative and [`SimReport::from_json`] reads
/// the same bits back. Every writer of a seed goes through here.
pub(crate) fn seed_to_json(seed: u64) -> Json {
    Json::Int(seed as i64)
}

fn report_field_err(field: &str) -> JsonError {
    JsonError {
        message: format!("report missing or malformed field {field:?}"),
        offset: 0,
    }
}

/// `[[millis, value], ...]` — exact, since sample times are integral
/// milliseconds and values round-trip through the shortest-float writer.
fn series_to_json(series: &TimeSeries) -> Json {
    Json::Array(
        series
            .points()
            .iter()
            .map(|p| {
                Json::Array(vec![
                    Json::Int(p.time.as_millis() as i64),
                    Json::Num(p.value),
                ])
            })
            .collect(),
    )
}

fn series_from_json(json: &Json) -> Result<TimeSeries, JsonError> {
    let pairs = json.as_array().ok_or_else(|| report_field_err("series"))?;
    // Reconstruct verbatim rather than replaying through `record`: a
    // recorded series can contain consecutive equal values (a
    // same-instant overwrite may converge two neighbouring samples),
    // and `record` would coalesce the second away, losing a point
    // across the round-trip.
    let mut points = Vec::with_capacity(pairs.len());
    for pair in pairs {
        let pair = pair
            .as_array()
            .ok_or_else(|| report_field_err("series point"))?;
        let (millis, value) = match pair {
            [t, v] => (
                t.as_u64().ok_or_else(|| report_field_err("series time"))?,
                v.as_f64().ok_or_else(|| report_field_err("series value"))?,
            ),
            _ => return Err(report_field_err("series point")),
        };
        if !value.is_finite() {
            return Err(report_field_err("series value"));
        }
        let time = SimTime::from_millis(millis);
        if points.last().is_some_and(|&(last, _)| last >= time) {
            return Err(report_field_err("series order"));
        }
        points.push((time, value));
    }
    Ok(TimeSeries::from_points(points))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cluster::{HostSpec, Resources, VmSpec};
    use power::HostPowerProfile;

    fn one_host_cluster() -> Cluster {
        Cluster::new(
            vec![HostSpec::new(
                Resources::new(8.0, 64.0),
                HostPowerProfile::prototype_rack(),
            )],
            vec![VmSpec::new(Resources::new(2.0, 4.0))],
            SimTime::ZERO,
        )
    }

    fn outcome(offered: f64, served: f64) -> DemandOutcome {
        DemandOutcome {
            offered_cores: offered,
            served_cores: served,
            unserved_cores: offered - served,
            offered_interactive_cores: offered,
            offered_batch_cores: 0.0,
            unserved_interactive_cores: offered - served,
            unserved_batch_cores: 0.0,
            host_demand_cores: vec![offered],
        }
    }

    fn finalize(c: MetricsCollector) -> SimReport {
        let mut registry = obs::MetricsRegistry::new();
        for (name, n) in [("sim.migrations.completed", 6), ("sim.power.failed", 3)] {
            let id = registry.counter(name);
            registry.add(id, n);
        }
        c.finalize(
            "test".into(),
            "AlwaysOn".into(),
            1,
            SimDuration::from_hours(1),
            1,
            1,
            3.6e6, // exactly 1 kWh
            DecisionActions {
                power_ups: 2,
                power_downs: 2,
                ..DecisionActions::default()
            },
            36.0, // migration busy seconds
            72.0, // transition busy seconds
            Vec::new(),
            registry.snapshot(),
        )
    }

    #[test]
    fn violation_and_ratio_accounting() {
        let cluster = one_host_cluster();
        let mut c = MetricsCollector::new(SimDuration::from_mins(30));
        c.record_tick(SimTime::ZERO, &outcome(4.0, 4.0), &cluster);
        c.record_tick(SimTime::from_secs(1800), &outcome(4.0, 3.0), &cluster);
        let r = finalize(c);
        assert_eq!(r.violation_fraction, 0.5);
        // 1 core * 1800 s unserved over 8 core*1800*... offered = 4*1800*2
        assert!((r.unserved_ratio - 1.0 / 8.0).abs() < 1e-12);
    }

    #[test]
    fn report_derived_quantities() {
        let cluster = one_host_cluster();
        let mut c = MetricsCollector::new(SimDuration::from_mins(30));
        c.record_power(SimTime::ZERO, 500.0);
        c.record_power(SimTime::from_secs(600), 800.0);
        c.record_tick(SimTime::ZERO, &outcome(2.0, 2.0), &cluster);
        let r = finalize(c);
        assert!((r.energy_kwh() - 1.0).abs() < 1e-12);
        assert!((r.avg_power_w() - 1000.0).abs() < 1e-9);
        assert_eq!(r.peak_power_w, 800.0);
        assert_eq!(r.migrations_per_hour, 6.0);
        assert_eq!(r.power_actions_per_hour, 4.0);
    }

    #[test]
    fn converged_series_samples_survive_the_json_round_trip() {
        // A same-instant overwrite can leave the power series with two
        // consecutive equal-valued samples; deserialization must keep
        // both rather than coalescing the second away (regression: the
        // parse path used to replay through `TimeSeries::record`).
        let cluster = one_host_cluster();
        let mut c = MetricsCollector::new(SimDuration::from_mins(30));
        c.record_power(SimTime::ZERO, 500.0);
        c.record_power(SimTime::from_secs(600), 800.0);
        c.record_power(SimTime::from_secs(600), 500.0);
        c.record_tick(SimTime::ZERO, &outcome(2.0, 2.0), &cluster);
        let r = finalize(c);
        assert_eq!(r.power_series.len(), 2, "converged neighbours recorded");
        let text = r.to_json().to_string_compact();
        let back = SimReport::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, r, "round-trip must preserve every sample");
    }

    #[test]
    fn event_counts_come_from_their_registry_counters() {
        let owners = [
            ("sim.migrations.completed", 1),
            ("sim.migrations.failed", 2),
            ("sim.power.failed", 3),
            ("sim.power.stuck", 4),
            ("sim.vm.deferred", 5),
            ("sim.vm.rejected", 6),
            ("sim.actions.rejected", 7),
            ("sim.migrations.started", 8),
        ];
        let mut registry = obs::MetricsRegistry::new();
        for (name, n) in owners {
            let id = registry.counter(name);
            registry.add(id, n);
        }
        let r = MetricsCollector::new(SimDuration::from_mins(30)).finalize(
            "test".into(),
            "AlwaysOn".into(),
            1,
            SimDuration::from_hours(1),
            1,
            1,
            0.0,
            DecisionActions::default(),
            0.0,
            0.0,
            Vec::new(),
            registry.snapshot(),
        );
        let counts = [
            r.migrations,
            r.migration_failures,
            r.transition_failures,
            r.hung_transitions,
            r.placement_retries,
            r.rejected_admissions,
            r.action_failures,
        ];
        assert_eq!(counts, [1, 2, 3, 4, 5, 6, 7]);
    }

    #[test]
    fn seeds_past_i64_max_round_trip_through_json() {
        let cluster = one_host_cluster();
        for seed in [i64::MAX as u64, i64::MAX as u64 + 1, u64::MAX] {
            let mut c = MetricsCollector::new(SimDuration::from_mins(30));
            c.record_tick(SimTime::ZERO, &outcome(2.0, 2.0), &cluster);
            let mut r = finalize(c);
            r.seed = seed;
            let text = r.to_json().to_string_compact();
            let back = SimReport::from_json(&Json::parse(&text).unwrap()).unwrap();
            assert_eq!(back, r, "seed {seed}");
            let summary = crate::trace::run_summary_json(&r, None);
            assert_eq!(summary.get("seed"), r.to_json().get("seed"), "seed {seed}");
        }
        // Seeds up to i64::MAX keep their plain spelling.
        let r = finalize(MetricsCollector::new(SimDuration::from_mins(30)));
        assert!(r.to_json().to_string_compact().contains("\"seed\":1,"));
    }

    #[test]
    fn savings_vs_baseline() {
        let cluster = one_host_cluster();
        let mk = |energy: f64| {
            let c = MetricsCollector::new(SimDuration::from_mins(30));
            let mut r = finalize(c);
            r.energy_j = energy;
            r
        };
        let _ = cluster;
        let base = mk(100.0);
        let pm = mk(60.0);
        assert!((pm.savings_vs(&base) - 0.4).abs() < 1e-12);
        assert!(base.savings_vs(&pm) < 0.0);
    }

    #[test]
    fn util_tracks_operational_capacity() {
        let cluster = one_host_cluster();
        let mut c = MetricsCollector::new(SimDuration::from_mins(30));
        c.record_tick(SimTime::ZERO, &outcome(4.0, 4.0), &cluster);
        let r = finalize(c);
        assert!((r.avg_util_on - 0.5).abs() < 1e-12);
        assert_eq!(r.avg_hosts_on, 1.0);
    }
}

//! Trace-record schema and the engine's metric registrations.
//!
//! Every record the engine streams to an [`obs::JsonlSink`] is a flat JSON
//! object with a `record` discriminator and, where meaningful, a
//! `t_seconds` simulated timestamp:
//!
//! * `migration` — live-migration start/completion (`phase`).
//! * `power-transition` — host power transition start/completion/failure.
//! * `vm-lifecycle` — transient VM arrival/deferral/departure.
//! * `action-rejected` — the cluster refused a stale management action.
//! * `manager-decision` — see [`agile_core::DecisionRecord::to_json`].
//! * `run-summary` — one final record with the report headline, the
//!   metrics snapshot, and the hierarchical wall-clock span summary
//!   (`spans`; `null` unless the run was profiled).
//!
//! [`SimTelemetry`] owns the engine's [`MetricsRegistry`] and the handles
//! to every metric it updates; names are dot-paths (`sim.migrations.
//! started`, `power.residency_secs.on`, ...) listed in `DESIGN.md`.

use cluster::Cluster;
use obs::{CounterId, GaugeId, HistogramId, Json, MetricsRegistry, SpanSummary};
use power::PowerState;
use simcore::SimTime;

use crate::events::{EventKind, EventRecord};
use crate::SimReport;

/// Renders one audit-log event as a trace record (the
/// [`EventRecord::to_json`] schema).
pub(crate) fn event_json(time: SimTime, kind: &EventKind) -> Json {
    EventRecord { time, kind: *kind }.to_json()
}

/// The final trace record: report headline + metrics + wall-clock span
/// tree (the only place wall time appears; it never enters the
/// deterministic [`SimReport`]). `spans` is present only when the tracer
/// ran enabled.
pub(crate) fn run_summary_json(report: &SimReport, spans: Option<&SpanSummary>) -> Json {
    Json::obj([
        ("record", Json::Str("run-summary".into())),
        ("scenario", Json::Str(report.scenario.clone())),
        ("policy", Json::Str(report.policy.clone())),
        ("seed", Json::Int(report.seed as i64)),
        ("horizon_secs", Json::Num(report.horizon.as_secs_f64())),
        ("energy_kwh", Json::Num(report.energy_kwh())),
        ("unserved_ratio", Json::Num(report.unserved_ratio)),
        ("migrations", Json::Int(report.migrations as i64)),
        ("metrics", report.metrics.to_json()),
        (
            "spans",
            match spans {
                Some(s) => s.to_json(),
                None => Json::Null,
            },
        ),
    ])
}

/// The engine's metric registry plus handles for every metric it
/// updates on the hot path.
#[derive(Debug)]
pub(crate) struct SimTelemetry {
    pub registry: MetricsRegistry,
    /// `sim.rounds` — management rounds executed.
    pub rounds: CounterId,
    /// `sim.migrations.started`.
    pub migrations_started: CounterId,
    /// `sim.migrations.completed`.
    pub migrations_completed: CounterId,
    /// `sim.migrations.failed` — fault-injected migration aborts.
    pub migrations_failed: CounterId,
    /// `sim.power.ups` — power-up transitions begun.
    pub power_ups: CounterId,
    /// `sim.power.downs` — power-down transitions begun.
    pub power_downs: CounterId,
    /// `sim.power.failed` — fault-injected transition failures.
    pub power_failures: CounterId,
    /// `sim.power.stuck` — fault-injected transition hangs.
    pub power_hangs: CounterId,
    /// `sim.actions.rejected` — stale actions the cluster refused.
    pub action_rejections: CounterId,
    /// `sim.commits.rejected` — scheduler commits the placement store
    /// refused (allocation races, stale beliefs).
    pub commit_rejections: CounterId,
    /// `sim.vm.arrivals`.
    pub vm_arrivals: CounterId,
    /// `sim.vm.deferred`.
    pub vm_deferrals: CounterId,
    /// `sim.vm.rejected` — admissions that never found capacity.
    pub vm_rejections: CounterId,
    /// `sim.vm.departures`.
    pub vm_departures: CounterId,
    /// `sim.migration.duration_secs` — scheduled migration durations.
    pub migration_secs: HistogramId,
    /// `sim.power.transition_secs` — scheduled transition latencies.
    pub transition_secs: HistogramId,
    /// `sim.manager.actions_per_round`.
    pub actions_per_round: HistogramId,
    /// `work.migrations.executed` — planned migrations the cluster
    /// accepted and began. Deterministic (counts events, not time).
    pub work_migrations_executed: CounterId,
    /// `work.migrations.aborted` — planned migrations the cluster
    /// refused (plan/world races). Deterministic.
    pub work_migrations_aborted: CounterId,
    /// `sim.hosts_on` — operational host count at the last tick.
    pub hosts_on: GaugeId,
    /// `sim.queue.peak` — peak event-queue length.
    pub peak_queue: GaugeId,
}

impl SimTelemetry {
    pub fn new() -> Self {
        let mut registry = MetricsRegistry::new();
        let rounds = registry.counter("sim.rounds");
        let migrations_started = registry.counter("sim.migrations.started");
        let migrations_completed = registry.counter("sim.migrations.completed");
        let migrations_failed = registry.counter("sim.migrations.failed");
        let power_ups = registry.counter("sim.power.ups");
        let power_downs = registry.counter("sim.power.downs");
        let power_failures = registry.counter("sim.power.failed");
        let power_hangs = registry.counter("sim.power.stuck");
        let action_rejections = registry.counter("sim.actions.rejected");
        let commit_rejections = registry.counter("sim.commits.rejected");
        let vm_arrivals = registry.counter("sim.vm.arrivals");
        let vm_deferrals = registry.counter("sim.vm.deferred");
        let vm_rejections = registry.counter("sim.vm.rejected");
        let vm_departures = registry.counter("sim.vm.departures");
        let migration_secs = registry.histogram("sim.migration.duration_secs");
        let transition_secs = registry.histogram("sim.power.transition_secs");
        let actions_per_round = registry.histogram("sim.manager.actions_per_round");
        let work_migrations_executed = registry.counter("work.migrations.executed");
        let work_migrations_aborted = registry.counter("work.migrations.aborted");
        let hosts_on = registry.gauge("sim.hosts_on");
        let peak_queue = registry.gauge("sim.queue.peak");
        SimTelemetry {
            registry,
            rounds,
            migrations_started,
            migrations_completed,
            migrations_failed,
            power_ups,
            power_downs,
            power_failures,
            power_hangs,
            action_rejections,
            commit_rejections,
            vm_arrivals,
            vm_deferrals,
            vm_rejections,
            vm_departures,
            migration_secs,
            transition_secs,
            actions_per_round,
            work_migrations_executed,
            work_migrations_aborted,
            hosts_on,
            peak_queue,
        }
    }

    /// Counts one audit-log event into the registry (durations are
    /// observed separately, where they are known).
    pub fn count_event(&mut self, kind: &EventKind) {
        match kind {
            EventKind::MigrationStarted { .. } => self.registry.inc(self.migrations_started),
            EventKind::MigrationCompleted { .. } => self.registry.inc(self.migrations_completed),
            EventKind::MigrationFailed { .. } => self.registry.inc(self.migrations_failed),
            EventKind::PowerStarted { .. } => {}
            EventKind::PowerCompleted { .. } => {}
            EventKind::PowerFailed { .. } => self.registry.inc(self.power_failures),
            EventKind::PowerStuck { .. } => self.registry.inc(self.power_hangs),
            EventKind::ActionRejected => self.registry.inc(self.action_rejections),
            EventKind::VmArrived { .. } => self.registry.inc(self.vm_arrivals),
            EventKind::VmArrivalDeferred { .. } => self.registry.inc(self.vm_deferrals),
            EventKind::VmArrivalRejected { .. } => self.registry.inc(self.vm_rejections),
            EventKind::VmDeparted { .. } => self.registry.inc(self.vm_departures),
            EventKind::CommitRejected { .. } => self.registry.inc(self.commit_rejections),
        }
    }

    /// Folds each host's cumulative per-state residency into the
    /// `power.residency_secs.<state>` histograms (one sample per host;
    /// call once, after the final `sync`).
    pub fn record_residency(&mut self, cluster: &Cluster) {
        for state in PowerState::ALL {
            let name = format!("power.residency_secs.{}", state.to_string().to_lowercase());
            let id = self.registry.histogram(&name);
            for host in cluster.hosts() {
                let secs = host.power().residency().in_state(state).as_secs_f64();
                self.registry.observe(id, secs);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cluster::{HostId, VmId};
    use power::TransitionKind;

    #[test]
    fn event_records_carry_discriminator_and_time() {
        let cases = [
            (
                EventKind::MigrationStarted {
                    vm: VmId(4),
                    to: HostId(2),
                },
                "migration",
            ),
            (
                EventKind::PowerStarted {
                    host: HostId(1),
                    kind: TransitionKind::Resume,
                },
                "power-transition",
            ),
            (EventKind::ActionRejected, "action-rejected"),
            (EventKind::VmDeparted { vm: VmId(0) }, "vm-lifecycle"),
        ];
        for (kind, want) in cases {
            let j = event_json(SimTime::from_secs(90), &kind);
            assert_eq!(j.get("record").unwrap().as_str(), Some(want), "{kind:?}");
            assert_eq!(j.get("t_seconds").unwrap().as_f64(), Some(90.0));
            // Round-trips through the compact writer.
            assert_eq!(Json::parse(&j.to_string_compact()).unwrap(), j);
        }
    }

    #[test]
    fn telemetry_counts_events() {
        let mut t = SimTelemetry::new();
        t.count_event(&EventKind::MigrationStarted {
            vm: VmId(0),
            to: HostId(0),
        });
        t.count_event(&EventKind::MigrationCompleted { vm: VmId(0) });
        t.count_event(&EventKind::ActionRejected);
        let snap = t.registry.snapshot();
        assert_eq!(snap.counter("sim.migrations.started"), 1);
        assert_eq!(snap.counter("sim.migrations.completed"), 1);
        assert_eq!(snap.counter("sim.actions.rejected"), 1);
        assert_eq!(snap.counter("sim.vm.arrivals"), 0);
    }
}

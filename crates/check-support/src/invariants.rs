//! The invariant catalog: what must hold after *every* simulated run.
//!
//! Each check takes the artifacts of a finished run and returns
//! `Err(description)` on violation, so the catalog composes directly
//! with `check` properties. [`check_report`] is the portmanteau most
//! property tests call after each generated run.

use cluster::Cluster;
use dcsim::{EventKind, Scenario, SimReport};
use power::breakeven::LadderSummary;
use power::{HostPowerProfile, PowerState};

/// Slack multiplier on the physical power ceiling: transition states may
/// briefly draw above the utilization curve's peak (boot surges), and
/// the sampled peak is a step function.
const POWER_CEILING_SLACK: f64 = 1.25;

/// Tolerance for quantities that are ratios of accumulated floats.
const EPS: f64 = 1e-9;

/// The fleet's physical power ceiling in watts: every host flat out,
/// with transition slack.
fn power_ceiling_w(scenario: &Scenario) -> f64 {
    scenario
        .host_specs()
        .iter()
        .map(|h| h.profile().curve().peak_w())
        .sum::<f64>()
        * POWER_CEILING_SLACK
}

/// Energy and capacity conservation plus report-shape sanity:
///
/// * energy is finite, non-negative, and below the fleet's physical
///   ceiling over the horizon;
/// * sampled peak power respects the same ceiling;
/// * every ratio field lies in `[0, 1]`;
/// * host/VM counts echo the scenario;
/// * the event log (if any) is time-ordered;
/// * the report survives its own JSON round-trip bit-exactly.
pub fn check_report(scenario: &Scenario, report: &SimReport) -> Result<(), String> {
    if !report.energy_j.is_finite() || report.energy_j < 0.0 {
        return Err(format!("energy {} J is not physical", report.energy_j));
    }
    let ceiling_w = power_ceiling_w(scenario);
    let max_energy = ceiling_w * report.horizon.as_secs_f64();
    if report.energy_j > max_energy {
        return Err(format!(
            "energy {} J exceeds the fleet ceiling {} J",
            report.energy_j, max_energy
        ));
    }
    if report.peak_power_w > ceiling_w + EPS {
        return Err(format!(
            "peak power {} W exceeds the fleet ceiling {} W",
            report.peak_power_w, ceiling_w
        ));
    }
    for (name, value) in [
        ("violation_fraction", report.violation_fraction),
        ("unserved_ratio", report.unserved_ratio),
        (
            "unserved_interactive_ratio",
            report.unserved_interactive_ratio,
        ),
        ("unserved_batch_ratio", report.unserved_batch_ratio),
        ("avg_util_on", report.avg_util_on),
    ] {
        if !value.is_finite() || !(-EPS..=1.0 + EPS).contains(&value) {
            return Err(format!("{name} = {value} outside [0, 1]"));
        }
    }
    if report.avg_hosts_on < -EPS || report.avg_hosts_on > report.num_hosts as f64 + EPS {
        return Err(format!(
            "avg_hosts_on {} outside [0, {}]",
            report.avg_hosts_on, report.num_hosts
        ));
    }
    if report.num_hosts != scenario.host_specs().len() {
        return Err(format!(
            "report says {} hosts, scenario has {}",
            report.num_hosts,
            scenario.host_specs().len()
        ));
    }
    if report.num_vms != scenario.fleet().len() {
        return Err(format!(
            "report says {} VMs, scenario has {}",
            report.num_vms,
            scenario.fleet().len()
        ));
    }
    check_event_log(report)?;
    check_work_counters(report)?;
    check_commit_ledger(report)?;
    check_json_round_trip(report)
}

/// The deterministic op-counters must be internally consistent: every
/// trial evacuation scans at least one candidate first, a rollback
/// implies an attempt, and every planned migration is accounted for as
/// either executed or aborted by the cluster — no third fate.
pub fn check_work_counters(report: &SimReport) -> Result<(), String> {
    let c = |name: &str| report.metrics.counter(name);
    let candidates = c("work.plan.candidates_scanned");
    let trials = c("work.plan.trials_attempted");
    let rolled_back = c("work.plan.trials_rolled_back");
    let planned = c("work.plan.migrations_planned");
    let executed = c("work.migrations.executed");
    let aborted = c("work.migrations.aborted");
    if trials > candidates {
        return Err(format!(
            "{trials} trial evacuations but only {candidates} candidates scanned"
        ));
    }
    if rolled_back > trials {
        return Err(format!(
            "{rolled_back} rollbacks but only {trials} trials attempted"
        ));
    }
    // A planned migration has exactly four fates: the cluster executed
    // or aborted it, or the commit layer refused it (conflict), dropped
    // it (not the planner's partition), or expired it (control latency
    // outlived the horizon). Under the direct (single-planner) path the
    // commit terms are all zero and this is the classic two-fate ledger.
    let commit_migrations = c("work.commit.migrations_rejected")
        + c("work.commit.migrations_dropped")
        + c("work.commit.migrations_expired");
    if planned != executed + aborted + commit_migrations {
        return Err(format!(
            "{planned} migrations planned but {executed} executed + {aborted} aborted \
             + {commit_migrations} refused at commit"
        ));
    }
    // Index maintenance must be change-driven: a host is only re-bucketed
    // because something dirtied cluster state, so cumulative re-buckets
    // can never outrun the cluster's dirty marks (which charge one mark
    // per operational host per demand sweep). Each scheduler in a
    // distributed control plane maintains its own index, so the bound
    // scales with the planner count (`work.commit.schedulers`, 1 by
    // default). Trivially true in scan mode, where every
    // `work.index.*` counter stays zero.
    let rebuckets = c("work.index.rebuckets");
    let schedulers = c("work.commit.schedulers").max(1);
    let dirty = c("work.cluster.dirty_marks") * schedulers;
    if rebuckets > dirty {
        return Err(format!(
            "{rebuckets} index re-buckets but only {dirty} cluster dirty marks \
             across {schedulers} scheduler(s)"
        ));
    }
    Ok(())
}

/// The control plane's commit ledger must balance exactly:
///
/// * every planned action has exactly one fate —
///   `planned == accepted + rejected + dropped_unowned + expired`;
/// * the per-reason rejection breakdown sums to the rejected total;
/// * per-kind migration sub-counters never exceed their parents;
/// * the engine-level `sim.commits.rejected` event counter agrees with
///   the store's `work.commit.rejected`, and when the audit log was
///   recorded, so does the number of `CommitRejected` entries;
/// * the report's planner counts are the actions the schedulers kept
///   after the ownership filter: `overload_ + consolidation_ +
///   rebalance_migrations == work.plan.migrations_planned −
///   work.commit.migrations_dropped`, and `power_ups + power_downs ==
///   work.commit.planned − work.commit.dropped_unowned −` those
///   migrations.
///
/// Trivially true (all zeros) on runs without a control plane.
pub fn check_commit_ledger(report: &SimReport) -> Result<(), String> {
    let c = |name: &str| report.metrics.counter(name);
    let planned = c("work.commit.planned");
    let accepted = c("work.commit.accepted");
    let rejected = c("work.commit.rejected");
    let dropped = c("work.commit.dropped_unowned");
    let expired = c("work.commit.expired");
    if planned != accepted + rejected + dropped + expired {
        return Err(format!(
            "commit ledger out of balance: {planned} planned != {accepted} accepted \
             + {rejected} rejected + {dropped} dropped + {expired} expired"
        ));
    }
    let by_reason: u64 = [
        "work.commit.rejected_vm_busy",
        "work.commit.rejected_vm_race",
        "work.commit.rejected_not_owner",
        "work.commit.rejected_dest_unavailable",
        "work.commit.rejected_headroom",
        "work.commit.rejected_power_clash",
        "work.commit.rejected_power_stale",
    ]
    .iter()
    .map(|name| c(name))
    .sum();
    if by_reason != rejected {
        return Err(format!(
            "rejection reasons sum to {by_reason} but {rejected} commits were rejected"
        ));
    }
    for (kind, parent_name, parent) in [
        ("work.commit.migrations_rejected", "rejected", rejected),
        ("work.commit.migrations_dropped", "dropped", dropped),
        ("work.commit.migrations_expired", "expired", expired),
    ] {
        let sub = c(kind);
        if sub > parent {
            return Err(format!(
                "{sub} {kind} but only {parent} commits {parent_name} in total"
            ));
        }
    }
    let migrations =
        report.overload_migrations + report.consolidation_migrations + report.rebalance_migrations;
    let migrations_dropped = c("work.commit.migrations_dropped");
    let migrations_planned = c("work.plan.migrations_planned");
    if migrations + migrations_dropped != migrations_planned {
        return Err(format!(
            "the report requests {migrations} migrations, but {migrations_planned} were planned \
             and {migrations_dropped} dropped as unowned"
        ));
    }
    let power = report.power_ups + report.power_downs;
    if power + migrations + dropped != planned {
        return Err(format!(
            "the report requests {power} power actions and {migrations} migrations, but \
             {planned} actions were planned and {dropped} dropped as unowned"
        ));
    }
    let engine_rejections = c("sim.commits.rejected");
    if engine_rejections != rejected {
        return Err(format!(
            "engine logged {engine_rejections} commit rejections but the store counted {rejected}"
        ));
    }
    if !report.events.is_empty() {
        let logged = report
            .events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::CommitRejected { .. }))
            .count() as u64;
        if logged != rejected {
            return Err(format!(
                "{logged} CommitRejected events but the store counted {rejected}"
            ));
        }
    }
    Ok(())
}

/// No VM is ever placed twice: the event log may never show a VM in two
/// concurrent live migrations, a migration ending without a start, or a
/// transient VM provisioned again while already running — the races the
/// placement store exists to arbitrate away when several schedulers plan
/// over the same fleet. Vacuous when no events were recorded.
pub fn check_no_vm_double_placed(report: &SimReport) -> Result<(), String> {
    let mut migrating = std::collections::BTreeSet::new();
    let mut resident = std::collections::BTreeSet::new();
    for e in &report.events {
        let fresh = match e.kind {
            EventKind::MigrationStarted { vm, .. } => migrating.insert(vm),
            EventKind::MigrationCompleted { vm } | EventKind::MigrationFailed { vm } => {
                migrating.remove(&vm)
            }
            EventKind::VmArrived { vm, .. } => resident.insert(vm),
            EventKind::VmDeparted { vm } => {
                resident.remove(&vm);
                true
            }
            _ => true,
        };
        if !fresh {
            return Err(match e.kind {
                EventKind::MigrationStarted { vm, .. } => {
                    format!("{vm:?} entered two concurrent migrations")
                }
                EventKind::MigrationCompleted { vm } | EventKind::MigrationFailed { vm } => {
                    format!("{vm:?} finished a migration that never started")
                }
                EventKind::VmArrived { vm, .. } => {
                    format!("{vm:?} provisioned while already running")
                }
                _ => unreachable!("only placement events can fail the freshness check"),
            });
        }
    }
    Ok(())
}

/// The audit log must be time-ordered, and when events were recorded
/// every event-derived report count must be *exact*: the
/// `MigrationCompleted`, `MigrationFailed`, `PowerFailed`, `PowerStuck`,
/// `VmArrivalDeferred`, `VmArrivalRejected` and `ActionRejected` entries
/// must each agree with their report counter, and no VM may be both
/// admitted and rejected (the silent-drop class of bug).
pub fn check_event_log(report: &SimReport) -> Result<(), String> {
    for pair in report.events.windows(2) {
        if pair[1].time < pair[0].time {
            return Err(format!(
                "event log goes backwards: {} after {}",
                pair[1], pair[0]
            ));
        }
    }
    if !report.events.is_empty() {
        let mut ledger = [
            ("migrations", 0u64, report.migrations),
            ("migration_failures", 0, report.migration_failures),
            ("transition_failures", 0, report.transition_failures),
            ("hung_transitions", 0, report.hung_transitions),
            ("placement_retries", 0, report.placement_retries),
            ("rejected_admissions", 0, report.rejected_admissions),
            ("action_failures", 0, report.action_failures),
        ];
        for e in &report.events {
            let slot = match e.kind {
                EventKind::MigrationCompleted { .. } => 0,
                EventKind::MigrationFailed { .. } => 1,
                EventKind::PowerFailed { .. } => 2,
                EventKind::PowerStuck { .. } => 3,
                EventKind::VmArrivalDeferred { .. } => 4,
                EventKind::VmArrivalRejected { .. } => 5,
                EventKind::ActionRejected => 6,
                _ => continue,
            };
            ledger[slot].1 += 1;
        }
        for (name, events, counter) in ledger {
            if events != counter {
                return Err(format!(
                    "{events} {name} events but the report counter says {counter}"
                ));
            }
        }
        check_no_vm_lost(report)?;
        check_no_vm_double_placed(report)?;
    }
    Ok(())
}

/// No VM is silently lost at admission: a VM either arrives or is
/// rejected, never both — and a rejected VM must make no further
/// lifecycle appearance (it was turned away, not dropped mid-life).
pub fn check_no_vm_lost(report: &SimReport) -> Result<(), String> {
    let mut arrived = std::collections::BTreeSet::new();
    let mut rejected = std::collections::BTreeSet::new();
    for e in &report.events {
        match e.kind {
            EventKind::VmArrived { vm, .. } => {
                if rejected.contains(&vm) {
                    return Err(format!("{vm:?} arrived after being rejected"));
                }
                arrived.insert(vm);
            }
            EventKind::VmArrivalRejected { vm } => {
                if arrived.contains(&vm) {
                    return Err(format!("{vm:?} rejected after arriving"));
                }
                if !rejected.insert(vm) {
                    return Err(format!("{vm:?} rejected twice"));
                }
            }
            EventKind::VmDeparted { vm } | EventKind::MigrationStarted { vm, .. }
                if rejected.contains(&vm) =>
            {
                return Err(format!("rejected {vm:?} re-appeared in the lifecycle"));
            }
            _ => {}
        }
    }
    Ok(())
}

/// `to_json` → text → parse → `from_json` must reproduce the report
/// bit-exactly (the serialization layer may not lose precision).
pub fn check_json_round_trip(report: &SimReport) -> Result<(), String> {
    let text = report.to_json().to_string_compact();
    let parsed = obs::Json::parse(&text).map_err(|e| format!("report JSON unparsable: {e:?}"))?;
    let round_tripped =
        SimReport::from_json(&parsed).map_err(|e| format!("report JSON undecodable: {e:?}"))?;
    if &round_tripped != report {
        return Err("report changed across its JSON round-trip".to_string());
    }
    Ok(())
}

/// Placement sanity on a finished cluster: a host that is not
/// operational can hold no VMs (the manager must evacuate before
/// parking, and a parked host can never receive a placement).
pub fn check_cluster(cluster: &Cluster) -> Result<(), String> {
    for host in cluster.hosts() {
        if !host.is_operational() {
            let stranded = cluster.vms_on(host.id());
            if !stranded.is_empty() {
                return Err(format!(
                    "host {:?} is {} but holds {} VMs",
                    host.id(),
                    host.power_state(),
                    stranded.len()
                ));
            }
        }
    }
    Ok(())
}

/// Power-state ladder monotonicity: walking a profile's supported rungs
/// shallow→deep, each deeper rung must rest at strictly lower power and
/// wake no faster than the rung above it — otherwise the deeper rung is
/// never the right choice and the "ladder" is mislabeled. Vacuously true
/// for profiles with at most one rung.
///
/// This is a property of *calibrated* profiles, not a constructor error:
/// sweep tooling legitimately builds non-monotone tables (e.g. the F7
/// wake-latency sweep shrinks resume latency below the park latency), so
/// the check is applied to the presets and to generated ladder worlds
/// rather than enforced at construction.
pub fn check_ladder_monotonic(profile: &HostPowerProfile) -> Result<(), String> {
    let ladder: Vec<_> = LadderSummary::of(profile).rungs().collect();
    for pair in ladder.windows(2) {
        let ((shallow, s), (deep, d)) = (pair[0], pair[1]);
        let (shallow_w, deep_w) = (
            shallow.resting_power_w(profile),
            deep.resting_power_w(profile),
        );
        if deep_w >= shallow_w {
            return Err(format!(
                "{}: rung {deep} rests at {deep_w} W, not below the shallower {shallow} ({shallow_w} W)",
                profile.name(),
            ));
        }
        if d.wake_latency < s.wake_latency {
            return Err(format!(
                "{}: rung {deep} wakes in {}, faster than the shallower {shallow} ({})",
                profile.name(),
                d.wake_latency,
                s.wake_latency
            ));
        }
    }
    Ok(())
}

/// Per-state energy accounting on a finished cluster: every host's
/// by-state energies must be non-negative and sum to its meter total
/// (within float tolerance) — the breakdown may never invent or lose
/// joules relative to the step-function integral.
pub fn check_energy_breakdown(cluster: &Cluster) -> Result<(), String> {
    for host in cluster.hosts() {
        let meter = host.power().meter();
        let total = meter.total_j();
        let mut sum = 0.0;
        for state in PowerState::ALL {
            let j = meter.state_j(state);
            if !j.is_finite() || j < 0.0 {
                return Err(format!("host {:?}: energy in {state} is {j} J", host.id()));
            }
            sum += j;
        }
        let tol = EPS * total.max(1.0);
        if (sum - total).abs() > tol {
            return Err(format!(
                "host {:?}: by-state energy sums to {sum} J but the meter total is {total} J",
                host.id()
            ));
        }
    }
    Ok(())
}

/// The policy ladder: on the same world, the analytic Oracle bound must
/// not exceed a power-managing run, which must not exceed always-on.
/// `tolerance` is a relative slack (e.g. `0.001`) absorbing boundary
/// effects on tiny fleets.
pub fn check_energy_ordering(
    oracle: &SimReport,
    managed: &SimReport,
    always_on: &SimReport,
    tolerance: f64,
) -> Result<(), String> {
    let slack = 1.0 + tolerance;
    if oracle.energy_j > managed.energy_j * slack {
        return Err(format!(
            "Oracle energy {} J exceeds managed {} J",
            oracle.energy_j, managed.energy_j
        ));
    }
    if managed.energy_j > always_on.energy_j * slack {
        return Err(format!(
            "managed energy {} J exceeds always-on {} J",
            managed.energy_j, always_on.energy_j
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use agile_core::PowerPolicy;
    use dcsim::{Experiment, SimulationBuilder};
    use simcore::SimDuration;

    #[test]
    fn catalog_passes_on_a_reference_run() {
        let scenario = Scenario::small_test(3);
        let experiment = Experiment::new(scenario.clone())
            .policy(PowerPolicy::reactive_suspend())
            .horizon(SimDuration::from_hours(2))
            .record_events();
        let out = SimulationBuilder::new(experiment)
            .capture_cluster(true)
            .build()
            .and_then(|sim| sim.run())
            .unwrap();
        let cluster = out.cluster.expect("capture_cluster returns the cluster");
        check_report(&scenario, &out.report).unwrap();
        check_cluster(&cluster).unwrap();
    }

    #[test]
    fn catalog_rejects_a_cooked_report() {
        let scenario = Scenario::small_test(3);
        let mut report = SimulationBuilder::new(
            Experiment::new(scenario.clone())
                .policy(PowerPolicy::always_on())
                .horizon(SimDuration::from_hours(2)),
        )
        .run_report()
        .unwrap();
        report.unserved_ratio = 1.5; // physically impossible
        let err = check_report(&scenario, &report).unwrap_err();
        assert!(err.contains("unserved_ratio"), "{err}");
    }

    #[test]
    fn ledger_rejects_planner_counts_of_unowned_actions() {
        let report = SimulationBuilder::new(
            Experiment::new(Scenario::datacenter(8, 32, 22))
                .policy(PowerPolicy::reactive_suspend())
                .horizon(SimDuration::from_hours(24))
                .schedulers(4),
        )
        .run_report()
        .unwrap();
        check_commit_ledger(&report).unwrap();
        assert!(report.metrics.counter("work.commit.dropped_unowned") > 0);
        // One unowned migration or power action counted as requested.
        let mut migrations = report.clone();
        migrations.consolidation_migrations += 1;
        let err = check_commit_ledger(&migrations).unwrap_err();
        assert!(err.contains("dropped as unowned"), "{err}");
        let mut power = report;
        power.power_downs += 1;
        let err = check_commit_ledger(&power).unwrap_err();
        assert!(err.contains("power actions"), "{err}");
    }

    #[test]
    fn ladder_check_orders_the_reference_policies() {
        let scenario = Scenario::datacenter(4, 16, 11);
        let run = |p: PowerPolicy| {
            SimulationBuilder::new(
                Experiment::new(scenario.clone())
                    .policy(p)
                    .horizon(SimDuration::from_hours(24)),
            )
            .run_report()
            .unwrap()
        };
        let oracle = run(PowerPolicy::oracle());
        let managed = run(PowerPolicy::reactive_suspend());
        let base = run(PowerPolicy::always_on());
        check_energy_ordering(&oracle, &managed, &base, 0.001).unwrap();
        // And the check really is a check: a flipped ladder fails.
        assert!(check_energy_ordering(&base, &managed, &oracle, 0.001).is_err());
    }
}

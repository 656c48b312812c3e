//! Integration tests combining the resilience features: fault injection,
//! lifecycle churn, audit logging, and their interactions.

use agilepm::core::{ClusterObservation, HostObservation, RecoveryConfig, RecoveryTracker};
use agilepm::obs::Json;
use agilepm::prelude::*;
use agilepm::sim::events::EventKind;
use check::{gen, prop_assert};
use check_support::{check_report, experiment_spec, failure_spec};

#[test]
fn failures_churn_and_audit_log_compose() {
    // All the hard modes at once: transient VMs, resume failures, spiky
    // demand, agile loop, full audit trail.
    let scenario = Scenario::datacenter_churn(8, 48, 0.4, 77);
    let report = SimulationBuilder::new(
        Experiment::new(scenario)
            .policy(PowerPolicy::reactive_suspend())
            .failure_model(FailureModel::new(0.1, 0.02))
            .control_interval(SimDuration::from_mins(1))
            .record_events(),
    )
    .run_report()
    .expect("hard-mode scenario runs");

    // The run completed with sane outputs.
    assert!(report.energy_j > 0.0);
    assert!(report.unserved_ratio < 0.05);
    assert!(!report.events.is_empty());

    // The audit log is time-ordered and internally consistent.
    assert!(report.events.windows(2).all(|w| w[0].time <= w[1].time));
    let failed = report
        .events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::PowerFailed { .. }))
        .count() as u64;
    assert_eq!(failed, report.transition_failures);

    // Churn shows in the log: arrivals and departures both happened.
    let arrivals = report
        .events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::VmArrived { .. }))
        .count();
    let departures = report
        .events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::VmDeparted { .. }))
        .count();
    assert!(arrivals > 0, "transient VMs should arrive");
    assert!(departures > 0, "transient VMs should depart");
}

#[test]
fn resume_failures_force_recovery_boots() {
    // With a high failure rate on a suspend-heavy day, the log must show
    // the recovery path: PowerFailed followed eventually by a boot.
    let scenario = Scenario::datacenter(8, 48, 31);
    let report = SimulationBuilder::new(
        Experiment::new(scenario)
            .policy(PowerPolicy::reactive_suspend())
            .failure_model(FailureModel::new(0.5, 0.0))
            .control_interval(SimDuration::from_mins(1))
            .record_events(),
    )
    .run_report()
    .expect("scenario runs");
    // Whether any failures fired is seed-dependent; what must hold is
    // that the log agrees with the counter and service quality survived.
    let logged_failures = report
        .events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::PowerFailed { .. }))
        .count() as u64;
    assert_eq!(logged_failures, report.transition_failures);
    assert!(
        report.unserved_ratio < 0.02,
        "failures degraded service to {:.4}%",
        report.unserved_ratio * 100.0
    );
    // A stranded host never serves again without a boot: if the fleet
    // needed it back, a boot must appear after the failure.
    if report.transition_failures > 0 {
        let first_failure = report
            .events
            .iter()
            .find(|e| matches!(e.kind, EventKind::PowerFailed { .. }))
            .expect("counted above")
            .time;
        let boots_after = report
            .events
            .iter()
            .filter(|e| {
                e.time >= first_failure
                    && matches!(
                        e.kind,
                        EventKind::PowerStarted {
                            kind: agilepm::power::TransitionKind::Boot,
                            ..
                        }
                    )
            })
            .count();
        // The manager wanted that capacity (it tried to resume), so the
        // recovery boot should follow.
        assert!(boots_after > 0, "no recovery boot after a failed resume");
    }
}

/// For any generated world and any failure probabilities in [0, 0.5),
/// the audit ledger stays exact — every injected failure is logged as a
/// `PowerFailed` event, and the counter agrees — and service quality
/// stays bounded despite the faults.
#[test]
fn generated_failure_models_keep_the_ledger_and_service_quality() {
    let input = experiment_spec().zip(&failure_spec(499));
    check::check(
        "failure ledger and service quality",
        &input,
        |(spec, failures)| {
            let scenario = spec.scenario.build();
            let report = check_support::run_experiment(
                spec.experiment()
                    .failure_model(failures.build())
                    .record_events(),
            )
            .map_err(|e| format!("{spec:?}: run failed: {e:?}"))?;
            // The full catalog, which includes the PowerFailed-vs-counter
            // ledger check; repeat the count here so a violation names it.
            check_report(&scenario, &report)?;
            let count = |pred: fn(&EventKind) -> bool| {
                report.events.iter().filter(|e| pred(&e.kind)).count() as u64
            };
            check::prop_assert_eq!(
                count(|k| matches!(k, EventKind::PowerFailed { .. })),
                report.transition_failures
            );
            check::prop_assert_eq!(
                count(|k| matches!(k, EventKind::MigrationFailed { .. })),
                report.migration_failures
            );
            check::prop_assert_eq!(
                count(|k| matches!(k, EventKind::PowerStuck { .. })),
                report.hung_transitions
            );
            check::prop_assert_eq!(
                count(|k| matches!(k, EventKind::VmArrivalRejected { .. })),
                report.rejected_admissions
            );
            prop_assert!(
                report.unserved_ratio <= 0.05,
                "failures at ({}, {}) permille degraded service to {:.4}%",
                failures.resume_permille,
                failures.boot_permille,
                report.unserved_ratio * 100.0
            );
            Ok(())
        },
    );
}

/// Joint-ladder worlds under fault injection: park/unpark is
/// resume-class hardware work, so quarantine, fail-safe rounds, and the
/// recovery boot path must hold at every rung the SLO admits. The final
/// cluster is captured so the per-state energy breakdown — which now
/// includes the Parking/Unparking residencies — can be audited too.
#[test]
fn joint_ladder_survives_fault_injection() {
    use check_support::{check_cluster, check_energy_breakdown, ladder_policy};
    let input = experiment_spec()
        .zip(&ladder_policy())
        .zip(&failure_spec(499));
    check::check_cases(
        "joint-ladder under faults",
        32,
        &input,
        |((spec, policy), failures)| {
            let mut spec = *spec;
            spec.scenario.workload = check_support::WorkloadKind::Ladder;
            let scenario = spec.scenario.build();
            let out = SimulationBuilder::new(
                spec.experiment()
                    .policy(*policy)
                    .failure_model(failures.build())
                    .record_events(),
            )
            .capture_cluster(true)
            .build()
            .map_err(|e| format!("{spec:?}: build failed: {e:?}"))?
            .run()
            .map_err(|e| format!("{spec:?}: run failed: {e:?}"))?;
            check_report(&scenario, &out.report)?;
            let cluster = out.cluster.ok_or("cluster capture requested but absent")?;
            check_cluster(&cluster)?;
            check_energy_breakdown(&cluster)?;
            prop_assert!(
                out.report.unserved_ratio <= 0.05,
                "{policy:?} with failures at ({}, {}) permille degraded service to {:.4}%",
                failures.resume_permille,
                failures.boot_permille,
                out.report.unserved_ratio * 100.0
            );
            Ok(())
        },
    );
}

/// For any generated failure schedule, every host that stops failing is
/// eventually readmitted to service (free to power-cycle again), and any
/// host still quarantined got there through a release time that only
/// ever moved *later* — never earlier — while quarantined.
#[test]
fn failing_hosts_eventually_return_or_stay_quarantined() {
    // A schedule is, per host, the set of 5-minute rounds (out of 24)
    // in which one transition failure lands.
    let schedule = gen::usize_in(1..=4).zip(&gen::vec_of(
        &gen::u64_in(0..=23).zip(&gen::u64_in(0..=3)),
        0..=16,
    ));
    check::check(
        "failing hosts return or stay quarantined",
        &schedule,
        |(num_hosts, failures)| {
            let num_hosts = *num_hosts;
            let config = RecoveryConfig::new();
            let mut tracker = RecoveryTracker::new(config.clone(), num_hosts);
            let mut cumulative = vec![0u64; num_hosts];
            let mut last_release = vec![None; num_hosts];
            let observe = |tracker: &mut RecoveryTracker, now: SimTime, cumulative: &[u64]| {
                let hosts = cumulative
                    .iter()
                    .map(|&failed| HostObservation {
                        state: PowerState::On,
                        evacuated: true,
                        failed_transitions: failed,
                        ..HostObservation::default()
                    })
                    .collect();
                tracker.observe(&ClusterObservation {
                    now,
                    hosts,
                    vms: Default::default(),
                });
            };
            // Phase 1: 24 rounds with the generated failures landing.
            for round in 0..24u64 {
                for &(r, host) in failures {
                    if r == round && (host as usize) < num_hosts {
                        cumulative[host as usize] += 1;
                    }
                }
                let now = SimTime::from_secs(round * 300);
                observe(&mut tracker, now, &cumulative);
                for (h, last) in last_release.iter_mut().enumerate() {
                    let release = tracker.quarantine_release(h);
                    if let (Some(prev), Some(cur)) = (*last, release) {
                        prop_assert!(
                            cur >= prev,
                            "host {h}: quarantine release moved earlier ({cur} < {prev})"
                        );
                    }
                    *last = release;
                }
            }
            // Phase 2: failures stop. After the one-hour probation plus
            // the longest backoff, every host must be back in service.
            let quiet = SimTime::from_secs(24 * 300)
                + SimDuration::from_mins(60)
                + config.backoff_cap()
                + SimDuration::from_mins(5);
            observe(&mut tracker, quiet, &cumulative);
            for h in 0..num_hosts {
                prop_assert!(
                    tracker.may_power_cycle(h, quiet),
                    "host {h} never returned to service after failures stopped"
                );
            }
            Ok(())
        },
    );
}

/// Runs with recovery active and heavy fault injection stay bit-exactly
/// reproducible: same seed, same report, byte-identical JSON.
#[test]
fn recovery_under_injection_is_bit_reproducible() {
    let run = || {
        SimulationBuilder::new(
            Experiment::new(Scenario::datacenter_churn(8, 40, 0.3, 55))
                .policy(PowerPolicy::reactive_suspend())
                .failure_model(
                    FailureModel::new(0.3, 0.1)
                        .with_migration_failures(0.15)
                        .with_hangs(0.1, 4.0)
                        .with_rack_bursts(4, 0.02, SimDuration::from_mins(30)),
                )
                .control_interval(SimDuration::from_mins(1))
                .record_events(),
        )
        .run_report()
        .expect("faulty run completes")
    };
    let a = run();
    let b = run();
    assert_eq!(a, b, "recovery made the run non-deterministic");
    assert_eq!(
        a.to_json().to_string_compact(),
        b.to_json().to_string_compact()
    );
    // The hard modes actually fired.
    assert!(a.transition_failures > 0, "no transition failures injected");
    assert!(a.events.iter().any(|e| matches!(
        e.kind,
        EventKind::MigrationFailed { .. } | EventKind::PowerStuck { .. }
    )));
}

#[test]
fn report_round_trips_through_json() {
    let report = SimulationBuilder::new(
        Experiment::new(Scenario::small_test(3))
            .policy(PowerPolicy::reactive_suspend())
            .horizon(SimDuration::from_hours(4))
            .record_events(),
    )
    .run_report()
    .expect("scenario runs");
    let json = report.to_json().to_string_compact();
    let back = SimReport::from_json(&agilepm::obs::Json::parse(&json).expect("valid JSON"))
        .expect("report deserializes");
    // Floats are written with shortest-round-trip formatting and times
    // as integral milliseconds, so the round-trip is exact.
    assert_eq!(back, report);
    let json2 = back.to_json().to_string_compact();
    assert_eq!(json2, json, "serialization must be stable");
}

/// One targeted edit of a report's JSON. Indices wrap around the
/// report's fields, its events and an event's fields.
#[derive(Debug, Clone)]
enum Corruption {
    /// Remove a top-level field.
    Drop(usize),
    /// Replace a top-level field's value.
    Set(usize, Json),
    /// Remove one field of one event.
    DropInEvent(usize, usize),
    /// Replace one field of one event.
    SetInEvent(usize, usize, Json),
}

/// Values of every JSON type: wrong types for most fields, and numbers
/// and strings that stress the typed ones (negative, fractional, past
/// `i64`/`u64` milliseconds, non-finite, between milliseconds, and
/// labels of the wrong record or phase).
fn json_value() -> gen::Gen<Json> {
    let nums = [
        -5.0,
        -0.4,
        -0.0,
        0.5,
        1.0005,
        3.0,
        1e30,
        -1e300,
        1.8446744073709552e19,
        f64::NAN,
        f64::INFINITY,
    ];
    let labels = [
        "",
        "x",
        "migration",
        "started",
        "completed",
        "failed",
        "stuck",
        "arrived",
        "deferred",
        "departed",
        "boot",
        "On",
        "Headroom",
    ];
    gen::choice(vec![
        gen::one_of(vec![
            Json::Null,
            Json::Bool(true),
            Json::Int(0),
            Json::Int(-1),
        ]),
        gen::one_of(vec![
            Json::Int(i64::MAX),
            Json::Int(i64::MIN),
            Json::Int(1 << 32),
        ]),
        gen::one_of(nums.map(Json::Num).to_vec()),
        gen::i64_in(-2..=5_000).map(Json::Int),
        gen::f64_in(-1.0, 1e6).map(Json::Num),
        gen::one_of(labels.map(|s| Json::Str(s.to_string())).to_vec()),
        gen::one_of(vec![
            Json::Array(vec![]),
            Json::Array(vec![Json::Int(1), Json::Num(2.0)]),
            Json::Array(vec![Json::Array(vec![Json::Int(0), Json::Num(1.5)])]),
            Json::obj([]),
            Json::obj([("name", Json::Str("x".into()))]),
        ]),
    ])
}

fn corruption() -> gen::Gen<Corruption> {
    let index = || gen::usize_in(0..=63);
    gen::choice(vec![
        index().map(Corruption::Drop),
        index()
            .zip(&json_value())
            .map(|(f, v)| Corruption::Set(f, v)),
        index()
            .zip(&index())
            .map(|(e, f)| Corruption::DropInEvent(e, f)),
        index()
            .zip(&index())
            .zip(&json_value())
            .map(|((e, f), v)| Corruption::SetInEvent(e, f, v)),
    ])
}

/// Index `i` wrapped into `0..len` (0 when empty).
fn wrap(i: usize, len: usize) -> usize {
    i % len.max(1)
}

/// The fields of event `e` (wrapped) in a report's top-level members.
fn event_fields(fields: &mut [(String, Json)], e: usize) -> Option<&mut Vec<(String, Json)>> {
    let (_, Json::Array(events)) = fields.iter_mut().find(|(k, _)| k == "events")? else {
        return None;
    };
    let i = wrap(e, events.len());
    match events.get_mut(i)? {
        Json::Object(event) => Some(event),
        _ => None,
    }
}

/// Applies `corruption` to `fields`, the report's top-level members.
fn corrupt(fields: &mut Vec<(String, Json)>, corruption: &Corruption) {
    match corruption {
        Corruption::Drop(f) => {
            fields.remove(wrap(*f, fields.len()));
        }
        Corruption::Set(f, v) => {
            let i = wrap(*f, fields.len());
            fields[i].1 = v.clone();
        }
        Corruption::DropInEvent(e, f) => {
            if let Some(event) = event_fields(fields, *e) {
                event.remove(wrap(*f, event.len()));
            }
        }
        Corruption::SetInEvent(e, f, v) => {
            if let Some(event) = event_fields(fields, *e) {
                let i = wrap(*f, event.len());
                event[i].1 = v.clone();
            }
        }
    }
}

/// JSON equality up to number spelling: `5` and `5.0` are one number.
fn same_json(a: &Json, b: &Json) -> bool {
    match (a, b) {
        (Json::Array(x), Json::Array(y)) => {
            x.len() == y.len() && x.iter().zip(y).all(|(a, b)| same_json(a, b))
        }
        (Json::Object(x), Json::Object(y)) => {
            x.len() == y.len()
                && x.iter()
                    .zip(y)
                    .all(|((k, a), (l, b))| k == l && same_json(a, b))
        }
        (&Json::Int(i), &Json::Num(x)) | (&Json::Num(x), &Json::Int(i)) => i as f64 == x,
        _ => a == b,
    }
}

#[test]
fn report_from_json_is_total_and_accepts_only_what_it_writes() {
    let input = experiment_spec().zip(&failure_spec(200)).zip(&corruption());
    check::check(
        "corrupted report JSON parses to a typed error or round-trips",
        &input,
        |((spec, failures), corruption)| {
            let report = check_support::run_experiment(
                spec.experiment()
                    .failure_model(failures.build())
                    .record_events(),
            )
            .map_err(|e| format!("{spec:?}: run failed: {e:?}"))?;
            let Json::Object(mut fields) = report.to_json() else {
                unreachable!("a report renders as an object")
            };
            corrupt(&mut fields, corruption);
            // Through the writer and parser, as a file would arrive.
            let text = Json::Object(fields).to_string_compact();
            let json = Json::parse(&text).map_err(|e| format!("writer output rejected: {e}"))?;
            if let Ok(back) = SimReport::from_json(&json) {
                prop_assert!(
                    same_json(&back.to_json(), &json),
                    "accepted JSON re-serialises differently: {corruption:?}"
                );
            }
            Ok(())
        },
    );
}

#[test]
fn per_class_ratios_are_consistent_with_total() {
    let report = SimulationBuilder::new(
        Experiment::new(Scenario::datacenter_spiky(8, 48, 3))
            .policy(PowerPolicy::reactive_suspend())
            .control_interval(SimDuration::from_mins(1)),
    )
    .run_report()
    .expect("scenario runs");
    // Interactive is served first, so its unserved ratio can never exceed
    // batch's under this workload (both tiers present on every host mix).
    assert!(
        report.unserved_interactive_ratio <= report.unserved_batch_ratio + 1e-9,
        "interactive {} > batch {}",
        report.unserved_interactive_ratio,
        report.unserved_batch_ratio
    );
    // The total sits between the per-class extremes.
    let lo = report
        .unserved_interactive_ratio
        .min(report.unserved_batch_ratio);
    let hi = report
        .unserved_interactive_ratio
        .max(report.unserved_batch_ratio);
    assert!(report.unserved_ratio >= lo - 1e-9 && report.unserved_ratio <= hi + 1e-9);
}

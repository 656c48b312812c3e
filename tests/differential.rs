//! Differential verification: generated scenarios run through the
//! execution paths the codebase promises are equivalent, asserting
//! bit-identical [`SimReport`]s, with the invariant catalog
//! ([`check_support::invariants`]) applied after every generated run.
//!
//! The equivalence pairs under test:
//!
//! * incremental vs `Scan` cluster accounting (PR 2's speedup);
//! * `Indexed` vs `Scan` consolidation planning (the bucket-index
//!   speedup), including a failure-injected variant — the work counters
//!   that measure *how* each mode searched are mode-variant by design
//!   and are compared structurally instead;
//! * one scheduler over a fresh view vs any view staleness, and a lone
//!   scheduler never conflicting with itself at commit;
//! * pooled (`SweepBuilder::scale`) vs serial sweep execution;
//! * a JSONL trace sink attached vs no sink at all;
//! * the hierarchical span tracer enabled vs disabled (and with it the
//!   deterministic `work.*` op-counters, which ride in the report's
//!   metrics snapshot).
//!
//! Case counts default to 64 per property (`AGILEPM_CHECK_CASES`
//! raises them in CI), so each pair is exercised on at least 64
//! generated scenarios under plain `cargo test`.

use std::sync::atomic::{AtomicU64, Ordering};

use agilepm::cluster::AccountingMode;
use agilepm::core::{ManagerConfig, PlanMode, PowerPolicy, RecoveryConfig};
use agilepm::obs::Json;
use agilepm::sim::{Experiment, Scenario, SimReport, SimulationBuilder, SweepBuilder};
use agilepm::simcore::SimDuration;
use check::gen;
use check_support::{
    check_energy_ordering, check_report, experiment_spec, failure_spec, scenario_spec,
    ExperimentSpec, FailureSpec,
};

/// Bit-identical comparison plus the serialized form, plus the invariant
/// catalog on both halves of the pair.
fn assert_equivalent(
    scenario: &Scenario,
    left: &SimReport,
    right: &SimReport,
    what: &str,
) -> Result<(), String> {
    check_report(scenario, left)?;
    check_report(scenario, right)?;
    check::prop_assert!(
        left == right,
        "{what}: reports differ (energy {} vs {} J, {} vs {} migrations)",
        left.energy_j,
        right.energy_j,
        left.migrations,
        right.migrations
    );
    check::prop_assert_eq!(
        left.to_json().to_string_compact(),
        right.to_json().to_string_compact(),
        "{what}: serialized reports differ"
    );
    Ok(())
}

#[test]
fn incremental_accounting_matches_scan_reference() {
    check::check(
        "incremental == Scan accounting",
        &experiment_spec(),
        |spec| {
            let scenario = spec.scenario.build();
            let run = |mode: AccountingMode| {
                check_support::run_experiment(spec.experiment().accounting(mode).record_events())
                    .map_err(|e| format!("{spec:?}: run failed: {e:?}"))
            };
            let incremental = run(AccountingMode::Incremental)?;
            let scan = run(AccountingMode::Scan)?;
            assert_equivalent(&scenario, &incremental, &scan, "incremental-vs-scan")
        },
    );
}

/// The `work.*` counters that measure *how* a planning mode searched —
/// scan charges per-host sweep work, indexed charges bucket walks plus
/// index maintenance — so they legitimately differ between modes.
/// Everything else in the report must match bit-for-bit.
const PLAN_MODE_VARIANT_COUNTERS: [&str; 3] = [
    "work.plan.candidates_scanned",
    "work.plan.hosts_rescored",
    "work.plan.fold_elements",
];

/// The `work.*` counters that must NOT depend on the planning mode: what
/// the planner *decided* (trials, rollbacks, migrations) rather than how
/// it searched.
const PLAN_MODE_INVARIANT_COUNTERS: [&str; 5] = [
    "work.plan.trials_attempted",
    "work.plan.trials_rolled_back",
    "work.plan.rollback_moves",
    "work.plan.undo_depth_max",
    "work.plan.migrations_planned",
];

/// Indexed-vs-scan equivalence: full invariant catalog on both, the
/// decision counters equal, and — after dropping the search-cost
/// counters — bit-identical reports including their serialized form.
fn assert_plan_modes_equivalent(
    scenario: &Scenario,
    indexed: &SimReport,
    scan: &SimReport,
    what: &str,
) -> Result<(), String> {
    check_report(scenario, indexed)?;
    check_report(scenario, scan)?;
    for name in PLAN_MODE_INVARIANT_COUNTERS {
        check::prop_assert_eq!(
            indexed.metrics.counter(name),
            scan.metrics.counter(name),
            "{what}: mode-invariant counter {name} differs"
        );
    }
    let strip = |report: &SimReport| {
        let mut r = report.clone();
        r.metrics.entries.retain(|e| {
            !PLAN_MODE_VARIANT_COUNTERS.contains(&e.name.as_str())
                && !e.name.starts_with("work.index.")
        });
        r
    };
    let indexed = strip(indexed);
    let scan = strip(scan);
    check::prop_assert!(
        indexed == scan,
        "{what}: reports differ beyond search-cost counters (energy {} vs {} J, {} vs {} migrations)",
        indexed.energy_j,
        scan.energy_j,
        indexed.migrations,
        scan.migrations
    );
    check::prop_assert_eq!(
        indexed.to_json().to_string_compact(),
        scan.to_json().to_string_compact(),
        "{what}: serialized reports differ"
    );
    Ok(())
}

#[test]
fn indexed_planning_matches_scan_reference() {
    check::check("Indexed == Scan planning", &experiment_spec(), |spec| {
        let scenario = spec.scenario.build();
        let run = |mode: PlanMode| {
            check_support::run_experiment(spec.experiment().plan_mode(mode).record_events())
                .map_err(|e| format!("{spec:?}: {} run failed: {e:?}", mode.label()))
        };
        let indexed = run(PlanMode::Indexed)?;
        let scan = run(PlanMode::Scan)?;
        // Non-vacuousness: under a power-managing policy the index must
        // actually have been maintained — otherwise this property would
        // silently compare scan against scan.
        if matches!(spec.policy, PowerPolicy::Reactive { .. }) {
            check::prop_assert!(
                indexed.metrics.counter("work.index.refreshes") > 0,
                "{spec:?}: indexed run never refreshed the index"
            );
            check::prop_assert_eq!(
                scan.metrics.counter("work.index.refreshes"),
                0,
                "{spec:?}: scan run maintained an index"
            );
        }
        assert_plan_modes_equivalent(&scenario, &indexed, &scan, "indexed-vs-scan")
    });
}

/// Rounds in a JSONL trace whose `manager-decision` record was planned
/// in fail-safe and carried at least one overload migration.
fn failsafe_overload_rounds(trace: &str) -> usize {
    trace
        .lines()
        .filter_map(|line| Json::parse(line).ok())
        .filter(|r| r.get("record").and_then(Json::as_str) == Some("manager-decision"))
        .filter(|r| r.get("failsafe").and_then(Json::as_bool) == Some(true))
        .filter(|r| {
            r.get("overload_migrations")
                .and_then(Json::as_i64)
                .is_some_and(|n| n > 0)
        })
        .count()
}

#[test]
fn indexed_planning_matches_scan_under_fault_injection() {
    // The index must stay coherent through quarantines, fail-safe
    // rounds, cancelled drains, and aborted migrations — all of which
    // perturb the hosts the planner may touch. Fail-safe rounds skip
    // consolidation but still pick overload destinations through the
    // index, so at least one case must plan such a migration for the
    // comparison to cover that path. These small worlds rarely trip the
    // default fail-safe (8 failures in 30 min) or overload a host, so
    // half the cases also draw a hair-trigger manager: fail-safe after
    // one failure, held for 2 h, and underload / target / overload
    // thresholds of 0.4 / 0.5 / 0.55.
    static SINK_SERIAL: AtomicU64 = AtomicU64::new(0);
    static FAILSAFE_OVERLOAD_CASES: AtomicU64 = AtomicU64::new(0);
    let input = experiment_spec()
        .zip(&failure_spec(499))
        .zip(&gen::boolean());
    check::check_cases(
        "Indexed == Scan planning under faults",
        32,
        &input,
        |&((spec, failures), hair_trigger)| {
            let scenario = spec.scenario.build();
            let mut experiment = spec.experiment().failure_model(failures.build());
            if hair_trigger {
                experiment = experiment.manager_config(
                    ManagerConfig::for_fleet(spec.policy, spec.scenario.hosts, spec.scenario.vms())
                        .with_underload_threshold(0.4)
                        .with_target_utilization(0.5)
                        .with_overload_threshold(0.55)
                        .with_recovery(
                            RecoveryConfig::new().with_failsafe(SimDuration::from_hours(2), 1),
                        ),
                );
            }
            let run = |mode: PlanMode, trace: Option<&std::path::Path>| {
                let mut experiment = experiment.clone().plan_mode(mode).record_events();
                if let Some(path) = trace {
                    experiment = experiment.trace_path(path);
                }
                check_support::run_experiment(experiment).map_err(|e| {
                    format!("{spec:?}/{failures:?}: {} run failed: {e:?}", mode.label())
                })
            };
            // The trace sink does not perturb the run
            // (`jsonl_sink_does_not_perturb_the_simulation`).
            let path = std::env::temp_dir().join(format!(
                "agilepm-differential-faults-{}-{}.jsonl",
                std::process::id(),
                SINK_SERIAL.fetch_add(1, Ordering::Relaxed)
            ));
            let indexed = run(PlanMode::Indexed, Some(&path));
            let trace = std::fs::read_to_string(&path).unwrap_or_default();
            let _ = std::fs::remove_file(&path);
            let indexed = indexed?;
            if failsafe_overload_rounds(&trace) > 0 {
                FAILSAFE_OVERLOAD_CASES.fetch_add(1, Ordering::Relaxed);
            }
            let scan = run(PlanMode::Scan, None)?;
            assert_plan_modes_equivalent(&scenario, &indexed, &scan, "indexed-vs-scan-faults")
        },
    );
    // A single-case replay need not land on such a round.
    if check::Config::from_env().replay.is_none() {
        assert!(
            FAILSAFE_OVERLOAD_CASES.load(Ordering::Relaxed) > 0,
            "no generated case planned an overload migration in a fail-safe round"
        );
    }
}

#[test]
fn pooled_sweep_matches_serial_loop() {
    // SweepBuilder::scale dispatches the (size, policy) grid through
    // the bounded worker pool; the result must equal running the same
    // grid serially, run by run.
    let sizes_and_seed = gen::usize_in(2..=4)
        .zip(&gen::usize_in(5..=7))
        .zip(&gen::u64_in(0..=999));
    check::check_cases(
        "pooled == serial sweeps",
        16,
        &sizes_and_seed,
        |&((small, large), seed)| {
            let host_counts = [small, large];
            let policies = [PowerPolicy::always_on(), PowerPolicy::reactive_suspend()];
            let pooled: Vec<(usize, PowerPolicy, SimReport)> =
                SweepBuilder::scale(&host_counts, &policies, seed)
                    .run()
                    .map_err(|e| format!("pooled sweep failed: {e:?}"))?
                    .into_iter()
                    .flat_map(|row| {
                        let hosts = row.value;
                        policies
                            .iter()
                            .copied()
                            .zip(row.reports)
                            .map(move |(policy, report)| (hosts, policy, report))
                    })
                    .collect();
            let mut serial = Vec::new();
            for &hosts in &host_counts {
                for &policy in &policies {
                    let scenario = Scenario::datacenter(hosts, hosts * 6, seed);
                    let report =
                        SimulationBuilder::new(Experiment::new(scenario.clone()).policy(policy))
                            .run_report()
                            .map_err(|e| format!("serial run failed: {e:?}"))?;
                    check_report(&scenario, &report)?;
                    serial.push((hosts, policy, report));
                }
            }
            check::prop_assert_eq!(pooled.len(), serial.len());
            for (p, s) in pooled.iter().zip(&serial) {
                check::prop_assert!(
                    p == s,
                    "pooled and serial disagree at {} hosts / {:?}",
                    s.0,
                    s.1
                );
            }
            Ok(())
        },
    );
}

#[test]
fn jsonl_sink_does_not_perturb_the_simulation() {
    static SINK_SERIAL: AtomicU64 = AtomicU64::new(0);
    check::check("JSONL sink == null sink", &experiment_spec(), |spec| {
        let scenario = spec.scenario.build();
        let path = std::env::temp_dir().join(format!(
            "agilepm-differential-{}-{}.jsonl",
            std::process::id(),
            SINK_SERIAL.fetch_add(1, Ordering::Relaxed)
        ));
        let with_sink =
            check_support::run_experiment(spec.experiment().record_events().trace_path(&path))
                .map_err(|e| format!("{spec:?}: sink run failed: {e:?}"));
        let trace_len = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
        let _ = std::fs::remove_file(&path);
        let with_sink = with_sink?;
        let without = check_support::run_experiment(spec.experiment().record_events())
            .map_err(|e| format!("{spec:?}: null run failed: {e:?}"))?;
        check::prop_assert!(trace_len > 0, "sink produced an empty trace file");
        assert_equivalent(&scenario, &with_sink, &without, "sink-vs-null")
    });
}

#[test]
fn span_tracer_does_not_perturb_the_simulation() {
    // "Observe, never steer": a run with the hierarchical span tracer
    // enabled must produce a report bit-identical to one with the
    // tracer off. The report embeds the metrics snapshot — including
    // the deterministic `work.*` op-counters — so this also proves the
    // counters are tracer-independent, and the accounting pair above
    // proves them mode-independent.
    check::check("tracer on == tracer off", &experiment_spec(), |spec| {
        let scenario = spec.scenario.build();
        let run = |profiling: bool| {
            SimulationBuilder::new(spec.experiment().record_events())
                .profiling(profiling)
                .run_report()
                .map_err(|e| format!("{spec:?}: profiling={profiling} run failed: {e:?}"))
        };
        let traced = run(true)?;
        let untraced = run(false)?;
        assert_equivalent(&scenario, &traced, &untraced, "tracer-vs-off")
    });
}

/// Proves the joint-ladder policy degenerates to PM-Suspend(S3) when the
/// SLO admits exactly the S3 rung: with a 12 s wake SLO every stock
/// profile resumes just in time (rack 12 s, blade 10 s), boot is minutes
/// away, and C6 — where present — is shallower than the deepest feasible
/// rung; with no prewake lookahead the warm pool is empty. The two runs
/// must then match decision-for-decision; only the policy label differs.
fn assert_ladder_degenerates(
    spec: &ExperimentSpec,
    ladder: &SimReport,
    suspend: &SimReport,
    what: &str,
) -> Result<(), String> {
    let scenario = spec.scenario.build();
    check_report(&scenario, ladder)?;
    check_report(&scenario, suspend)?;
    let normalize = |report: &SimReport| {
        let mut r = report.clone();
        r.policy = "normalized".to_string();
        r
    };
    let (ladder, suspend) = (normalize(ladder), normalize(suspend));
    check::prop_assert!(
        ladder == suspend,
        "{what}: {spec:?}: reports differ beyond the policy label (energy {} vs {} J, {} vs {} migrations)",
        ladder.energy_j,
        suspend.energy_j,
        ladder.migrations,
        suspend.migrations
    );
    check::prop_assert_eq!(
        ladder.to_json().to_string_compact(),
        suspend.to_json().to_string_compact(),
        "{what}: serialized reports differ"
    );
    Ok(())
}

#[test]
fn joint_ladder_at_s3_slo_degenerates_to_reactive_suspend() {
    check::check(
        "JointLadder(12s) == PM-Suspend(S3)",
        &experiment_spec(),
        |spec| {
            let run = |policy: PowerPolicy| {
                check_support::run_experiment(spec.experiment().policy(policy).record_events())
                    .map_err(|e| format!("{spec:?}: run failed: {e:?}"))
            };
            let ladder = run(PowerPolicy::joint_ladder(SimDuration::from_secs(12)))?;
            let suspend = run(PowerPolicy::reactive_suspend())?;
            assert_ladder_degenerates(spec, &ladder, &suspend, "ladder-vs-suspend")
        },
    );
}

#[test]
fn policy_ladder_orders_energy_on_generated_diurnal_worlds() {
    // Oracle <= managed <= always-on, on worlds where consolidation has
    // something to harvest (the diurnal mix over a full day).
    let world = scenario_spec().map(|mut spec| {
        spec.workload = check_support::WorkloadKind::Diurnal;
        spec.hosts = spec.hosts.max(4);
        spec.vms_per_host = spec.vms_per_host.max(3);
        spec
    });
    check::check_cases("Oracle <= managed <= AlwaysOn", 8, &world, |spec| {
        let scenario = spec.build();
        let run = |p: PowerPolicy| {
            SimulationBuilder::new(
                Experiment::new(scenario.clone())
                    .policy(p)
                    .horizon(SimDuration::from_hours(24)),
            )
            .run_report()
            .map_err(|e| format!("{spec:?}: run failed: {e:?}"))
        };
        let oracle = run(PowerPolicy::oracle())?;
        let managed = run(PowerPolicy::reactive_suspend())?;
        let base = run(PowerPolicy::always_on())?;
        check_report(&scenario, &managed)?;
        check_report(&scenario, &base)?;
        check_energy_ordering(&oracle, &managed, &base, 0.002).map_err(|e| format!("{spec:?}: {e}"))
    });
}

/// One scheduler over a fresh view plans against the very state its
/// commits are checked against: the placement store must admit every
/// action it planned.
fn check_lone_scheduler_commits_everything(
    spec: &ExperimentSpec,
    failures: Option<&FailureSpec>,
) -> Result<(), String> {
    let scenario = spec.scenario.build();
    let mut experiment = spec.experiment().schedulers(1).record_events();
    if let Some(failures) = failures {
        experiment = experiment.failure_model(failures.build());
    }
    let report = check_support::run_experiment(experiment)
        .map_err(|e| format!("{spec:?}/{failures:?}: run failed: {e:?}"))?;
    check_report(&scenario, &report)?;
    let c = |name: &str| report.metrics.counter(name);
    check::prop_assert_eq!(
        c("work.commit.rejected"),
        0,
        "{spec:?}/{failures:?}: a lone scheduler rejected its own commit"
    );
    check::prop_assert_eq!(
        c("work.commit.planned"),
        c("work.commit.accepted"),
        "{spec:?}/{failures:?}: a lone scheduler lost planned actions"
    );
    Ok(())
}

#[test]
fn lone_scheduler_never_conflicts_with_itself() {
    check::check(
        "lone scheduler never conflicts",
        &experiment_spec(),
        |spec| check_lone_scheduler_commits_everything(spec, None),
    );
}

#[test]
fn lone_scheduler_never_conflicts_under_fault_injection() {
    // Fault injection perturbs the ground truth the store checks against
    // (failed resumes, aborted migrations, hung transitions); a lone
    // scheduler observing the same post-fault state still agrees with it.
    let input = experiment_spec().zip(&failure_spec(499));
    check::check(
        "lone scheduler never conflicts under faults",
        &input,
        |(spec, failures)| check_lone_scheduler_commits_everything(spec, Some(failures)),
    );
}

#[test]
fn single_scheduler_plane_is_staleness_invariant() {
    // View staleness only matters when partitioned views can diverge;
    // with one scheduler the merged view IS the fresh observation, so
    // any staleness bound must reproduce the fresh plane bit-exactly.
    let input = experiment_spec().zip(&gen::usize_in(1..=4));
    check::check_cases(
        "schedulers=1 is staleness-invariant",
        32,
        &input,
        |(spec, staleness)| {
            let scenario = spec.scenario.build();
            let run = |staleness: usize| {
                check_support::run_experiment(
                    spec.experiment()
                        .schedulers(1)
                        .view_staleness(staleness)
                        .record_events(),
                )
                .map_err(|e| format!("{spec:?}/staleness={staleness}: run failed: {e:?}"))
            };
            let fresh = run(0)?;
            let stale = run(*staleness)?;
            assert_equivalent(&scenario, &stale, &fresh, "plane-staleness-vs-fresh")
        },
    );
}

//! Randomized integration tests, on the [`check`] framework: invariants
//! that must hold for any scenario the generators can produce. Failures
//! shrink to minimal counterexamples and replay from the printed seed.

use agilepm::cluster::{Cluster, HostId, HostSpec, Resources, VmId, VmSpec};
use agilepm::core::PowerPolicy;
use agilepm::power::{HostPowerProfile, PowerState, PowerStateMachine, TransitionKind};
use agilepm::sim::{Experiment, Scenario, SimulationBuilder};
use agilepm::simcore::{RngStream, SimDuration, SimTime};
use agilepm::workload::{presets, DemandProcess, Shape};
use check::gen::{boolean, f64_in, u64_in, usize_in};
use check::{prop_assert, prop_assert_eq};
use check_support::check_report;

/// Any small scenario simulates without panicking, the report's
/// conservation laws hold, and the full invariant catalog passes.
#[test]
fn simulation_invariants() {
    let input = usize_in(2..=9)
        .zip(&usize_in(1..=7))
        .zip(&u64_in(0..=999))
        .zip(&boolean());
    check::check_cases(
        "simulation invariants",
        16,
        &input,
        |&(((hosts, vms_per_host), seed), suspend)| {
            let policy = if suspend {
                PowerPolicy::reactive_suspend()
            } else {
                PowerPolicy::reactive_off()
            };
            let scenario = Scenario::datacenter(hosts, hosts * vms_per_host, seed);
            let r = SimulationBuilder::new(
                Experiment::new(scenario.clone())
                    .policy(policy)
                    .horizon(SimDuration::from_hours(4)),
            )
            .run_report()
            .map_err(|e| format!("scenario failed to run: {e:?}"))?;
            check_report(&scenario, &r)?;
            prop_assert!(r.energy_j > 0.0, "zero energy");
            // Energy is bounded by every host at peak the whole time...
            let max_j = hosts as f64 * 315.0 * 4.0 * 3600.0;
            prop_assert!(
                r.energy_j <= max_j * 1.01,
                "energy {} above physical cap {max_j}",
                r.energy_j
            );
            // ...and at least every host parked the whole time.
            let min_j = hosts as f64 * 4.5 * 4.0 * 3600.0 * 0.9;
            prop_assert!(
                r.energy_j >= min_j,
                "energy {} below park floor {min_j}",
                r.energy_j
            );
            Ok(())
        },
    );
}

/// Any legal sequence of power transitions keeps the residency, energy,
/// and state bookkeeping consistent.
#[test]
fn power_machine_random_walk() {
    let input = usize_in(1..=40).zip(&u64_in(0..=999));
    check::check("power machine random walk", &input, |&(steps, seed)| {
        let mut rng = RngStream::new(seed);
        let mut m = PowerStateMachine::new(HostPowerProfile::prototype_rack(), SimTime::ZERO);
        let mut now = SimTime::ZERO;
        for _ in 0..steps {
            now += SimDuration::from_secs(rng.below(600) + 1);
            let kind = match m.state() {
                PowerState::On => {
                    if rng.chance(0.5) {
                        TransitionKind::Suspend
                    } else {
                        TransitionKind::Shutdown
                    }
                }
                PowerState::Suspended => TransitionKind::Resume,
                PowerState::Off => TransitionKind::Boot,
                _ => unreachable!("walk only visits stable states"),
            };
            let done = m.begin(kind, now).expect("legal transition");
            m.complete(done).expect("scheduled completion");
            now = done;
        }
        m.sync(now);
        // Residency sums to elapsed time exactly.
        prop_assert_eq!(m.residency().total(), now.since(SimTime::ZERO));
        // Energy equals the per-state breakdown.
        let by_state: f64 = PowerState::ALL.iter().map(|&s| m.meter().state_j(s)).sum();
        prop_assert!((by_state - m.meter().total_j()).abs() < 1e-6);
        // Transition counts match the walk length.
        prop_assert_eq!(m.total_transitions(), steps as u64);
        Ok(())
    });
}

/// Cluster placement bookkeeping stays consistent under random
/// place/migrate/power sequences.
#[test]
fn cluster_random_operations() {
    let input = usize_in(1..=60).zip(&u64_in(0..=999));
    check::check("cluster random operations", &input, |&(ops, seed)| {
        let mut rng = RngStream::new(seed);
        let hosts = vec![
            HostSpec::new(
                Resources::new(16.0, 64.0),
                HostPowerProfile::prototype_rack()
            );
            4
        ];
        let vms = vec![VmSpec::new(Resources::new(2.0, 4.0)); 12];
        let mut cluster = Cluster::new(hosts, vms, SimTime::ZERO);
        let mut now = SimTime::ZERO;
        let mut pending_migrations: Vec<(VmId, SimTime)> = Vec::new();
        let mut pending_power: Vec<(HostId, SimTime)> = Vec::new();

        for _ in 0..ops {
            now += SimDuration::from_secs(rng.below(120) + 1);
            // Complete anything due.
            pending_migrations.retain(|&(vm, at)| {
                if at <= now {
                    cluster
                        .complete_migration(vm, at)
                        .expect("scheduled completion");
                    false
                } else {
                    true
                }
            });
            pending_power.retain(|&(h, at)| {
                if at <= now {
                    cluster
                        .complete_power_transition(h, at)
                        .expect("scheduled completion");
                    false
                } else {
                    true
                }
            });

            let vm = VmId(rng.below(12) as u32);
            let host = HostId(rng.below(4) as u32);
            match rng.below(4) {
                0 => {
                    let _ = cluster.place(vm, host);
                }
                1 => {
                    if let Ok(done) = cluster.begin_migration(vm, host, now) {
                        pending_migrations.push((vm, done));
                    }
                }
                2 => {
                    if let Ok(done) =
                        cluster.begin_power_transition(host, TransitionKind::Suspend, now)
                    {
                        pending_power.push((host, done));
                    }
                }
                _ => {
                    if let Ok(done) =
                        cluster.begin_power_transition(host, TransitionKind::Resume, now)
                    {
                        pending_power.push((host, done));
                    }
                }
            }
            prop_assert!(cluster.placement().check_invariants(), "placement broken");
            // Memory never overcommitted on any host.
            for h in 0..4u32 {
                prop_assert!(
                    cluster.mem_committed_gb(HostId(h)) <= 64.0 + 1e-9,
                    "host {h} memory overcommitted"
                );
            }
        }
        Ok(())
    });
}

/// Demand traces are always within [0, 1] and deterministic.
#[test]
fn demand_process_bounds() {
    let input = f64_in(0.0, 0.7)
        .zip(&f64_in(0.0, 0.3))
        .zip(&f64_in(0.0, 0.99))
        .zip(&f64_in(0.0, 0.4))
        .zip(&u64_in(0..=999));
    check::check(
        "demand process bounds",
        &input,
        |&((((base, amplitude), rho), sigma), seed)| {
            let p = DemandProcess::new(Shape::diurnal(base, amplitude)).with_noise(rho, sigma);
            let t1 = p.generate(
                SimDuration::from_hours(6),
                SimDuration::from_mins(5),
                &mut RngStream::new(seed),
            );
            let t2 = p.generate(
                SimDuration::from_hours(6),
                SimDuration::from_mins(5),
                &mut RngStream::new(seed),
            );
            prop_assert_eq!(&t1, &t2);
            for &s in t1.samples() {
                prop_assert!((0.0..=1.0).contains(&s), "sample {s} out of range");
            }
            Ok(())
        },
    );
}

/// Fleet generation conserves counts and footprints for any mix size.
#[test]
fn fleet_generation_counts() {
    let input = usize_in(1..=200).zip(&u64_in(0..=999));
    check::check_cases("fleet generation counts", 30, &input, |&(count, seed)| {
        let fleet = presets::enterprise_diurnal().generate(
            count,
            SimDuration::from_hours(2),
            SimDuration::from_mins(10),
            seed,
        );
        prop_assert_eq!(fleet.len(), count);
        prop_assert_eq!(fleet.traces().len(), count);
        prop_assert!(fleet.total_mem_gb() >= count as f64 * 4.0);
        prop_assert!(fleet.total_cpu_cap_cores() >= count as f64 * 2.0);
        Ok(())
    });
}

/// Every calibrated preset must present a monotonic power-state ladder:
/// deeper rungs rest at lower power and wake slower. (The theoretical
/// `ideal_proportional` machine is exempt — its rungs all rest at 0 W —
/// as are the F7 resume-latency overrides, which perturb wake latency
/// on purpose.)
#[test]
fn calibrated_profiles_have_monotonic_ladders() {
    for profile in [
        HostPowerProfile::prototype_rack(),
        HostPowerProfile::prototype_blade(),
        HostPowerProfile::prototype_rack_sublinear(),
        HostPowerProfile::prototype_rack_superlinear(),
        HostPowerProfile::prototype_rack_ladder(),
        HostPowerProfile::prototype_blade_ladder(),
        HostPowerProfile::legacy_rack(),
    ] {
        check_support::check_ladder_monotonic(&profile)
            .unwrap_or_else(|e| panic!("{}: {e}", profile.name()));
    }
}

/// N concurrent schedulers over the conflict-checked placement store:
/// every generated world runs deterministically (two runs are
/// bit-identical), the commit ledger balances exactly (the catalog's
/// `check_commit_ledger`, applied through `check_report`), and the
/// recorded event log shows no VM placed twice.
#[test]
fn distributed_control_plane_invariants() {
    use std::sync::atomic::{AtomicU64, Ordering};
    let planned_total = AtomicU64::new(0);
    let input = check_support::experiment_spec()
        .zip(&check_support::scheduler_count())
        .zip(&usize_in(0..=3))
        .zip(&usize_in(0..=2));
    check::check_cases(
        "distributed control plane invariants",
        24,
        &input,
        |(((spec, schedulers), staleness), latency)| {
            let schedulers = (*schedulers).min(spec.scenario.hosts);
            let scenario = spec.scenario.build();
            let run = || {
                check_support::run_experiment(
                    spec.experiment()
                        .schedulers(schedulers)
                        .view_staleness(*staleness)
                        .control_latency(*latency)
                        .record_events(),
                )
                .map_err(|e| format!("{spec:?}/n={schedulers}/s={staleness}/d={latency}: {e:?}"))
            };
            let a = run()?;
            let b = run()?;
            prop_assert!(
                a == b,
                "control plane not deterministic at n={schedulers} s={staleness} d={latency}"
            );
            check_report(&scenario, &a)?;
            planned_total.fetch_add(a.metrics.counter("work.commit.planned"), Ordering::Relaxed);
            Ok(())
        },
    );
    // Non-vacuousness across the whole batch: the store saw real plans.
    assert!(
        planned_total.load(Ordering::Relaxed) > 0,
        "no generated world ever planned an action through the store"
    );
}

/// A commit the store refuses is not lost work: the action's subject
/// stays where it was, the owning scheduler re-observes it, and the plan
/// stream keeps flowing. On a spiky world driven hard enough to produce
/// real rejections, the run must still execute migrations, finish with a
/// balanced ledger, and leave no parked host holding VMs.
#[test]
fn rejected_commits_are_eventually_replanned() {
    use agilepm::sim::SimOutput;
    let scenario = Scenario::datacenter_spiky(8, 48, 22);
    let out: SimOutput = SimulationBuilder::new(
        Experiment::new(scenario.clone())
            .policy(PowerPolicy::reactive_suspend())
            .control_interval(SimDuration::from_mins(1))
            .schedulers(4)
            .view_staleness(2)
            .control_latency(1)
            .record_events(),
    )
    .capture_cluster(true)
    .build()
    .and_then(|sim| sim.run())
    .expect("distributed run completes");
    let r = &out.report;
    check_report(&scenario, r).unwrap();
    let c = |name: &str| r.metrics.counter(name);
    assert!(
        c("work.commit.rejected") > 0,
        "stale 4-scheduler views on a spiky day should produce at least one conflict"
    );
    assert!(
        c("work.migrations.executed") > 0,
        "rejections must not starve the migration pipeline"
    );
    // Plans kept flowing after the first rejection: commits continued
    // to land and the fleet still parked hosts for real savings.
    assert!(c("work.commit.accepted") > 0, "no commit ever landed");
    assert!(r.power_downs > 0, "rejections starved power management");
    let cluster = out.cluster.expect("capture_cluster returns the cluster");
    check_support::check_cluster(&cluster).unwrap();
}

//! Property tests of the manager, on the [`check`] framework: for any
//! observation the generator can produce, planned actions must be
//! well-formed and internally consistent. Failing observations shrink
//! toward the smallest all-on cluster and replay from the printed seed.

use agile_core::{
    ActionReason, ClusterObservation, HostObservation, ManagementAction, ManagerConfig,
    PowerPolicy, PredictorConfig, VirtManager, VmObservation,
};
use check::gen::{boolean, choice, f64_in, u64_in, usize_in, vec_of, Gen};
use check::prop_assert;
use cluster::{HostId, HostSpec, Resources, ServiceClass, VmSpec};
use power::{HostPowerProfile, PowerState};
use simcore::{SimDuration, SimTime};

/// Raw material for one VM: (cpu demand, host pick, is-batch).
type RawVm = ((f64, u64), bool);

/// A round's observation and the specs of its VMs; every host is a
/// 16-core, 128 GB rack host.
type World = (Vec<VmSpec>, ClusterObservation);

/// A manager under `config` for `world`'s fleet.
fn manager(config: ManagerConfig, (vms, obs): &World) -> VirtManager {
    let host = HostSpec::new(
        Resources::new(16.0, 128.0),
        HostPowerProfile::prototype_rack(),
    );
    VirtManager::new(config, &vec![host; obs.hosts.len()], vms).expect("valid config")
}

/// Decodes raw generator choices into a structurally valid world: VMs
/// of 2 cores and 4 GB land only on operational hosts (the cluster
/// invariant), and host commitments are the sums of their VMs.
fn build_world(states: Vec<usize>, raw_vms: Vec<RawVm>) -> World {
    let mut hosts: Vec<HostObservation> = states
        .iter()
        .map(|&s| HostObservation {
            state: match s {
                0 => PowerState::On,
                1 => PowerState::Suspended,
                _ => PowerState::Off,
            },
            evacuated: true,
            ..HostObservation::default()
        })
        .collect();
    let operational: Vec<usize> = hosts
        .iter()
        .enumerate()
        .filter(|(_, h)| h.state == PowerState::On)
        .map(|(i, _)| i)
        .collect();
    let (mut specs, mut vms) = (Vec::new(), Vec::new());
    for ((demand, pick), batch) in raw_vms {
        let host = if operational.is_empty() {
            None
        } else {
            Some(operational[(pick % operational.len() as u64) as usize])
        };
        if let Some(h) = host {
            hosts[h].mem_committed += 4.0;
            hosts[h].evacuated = false;
        }
        vms.push(VmObservation {
            host: host.map(|h| HostId(h as u32)),
            cpu_demand: demand,
            migrating: false,
        });
        let class = if batch {
            ServiceClass::Batch
        } else {
            ServiceClass::Interactive
        };
        specs.push(VmSpec::new(Resources::new(2.0, 4.0)).with_class(class));
    }
    let obs = ClusterObservation {
        now: SimTime::from_secs(600),
        hosts,
        vms: vms.into_iter().collect(),
    };
    (specs, obs)
}

/// Arbitrary structurally valid worlds, with up to 9 hot VMs
/// (1.8-2.0 cores) on the first operational host so overload mitigation
/// can run in the same round as consolidation; shrinks toward two all-on
/// hosts and one idle interactive VM on the first host.
fn observations(max_hosts: usize, max_vms: usize) -> Gen<World> {
    let states = vec_of(&usize_in(0..=2), 2..=max_hosts);
    let raw_vms = vec_of(
        &f64_in(0.0, 2.0).zip(&u64_in(0..=u64::MAX)).zip(&boolean()),
        1..=max_vms,
    );
    let hot = vec_of(&f64_in(1.8, 2.0), 0..=9);
    states.zip(&raw_vms).zip(&hot).map(|((s, v), hot)| {
        let hot = hot.into_iter().map(|d| ((d, 0), false));
        build_world(s, hot.chain(v).collect())
    })
}

/// Every planned action is structurally valid: migrations target
/// operational hosts and move placed, non-migrating VMs; power-downs
/// only hit evacuated hosts that no migration of the same plan targets;
/// power-ups only hit parked hosts. At most one action per VM and per
/// host.
#[test]
fn planned_actions_are_well_formed() {
    // Planning one round is cheap. Half the cases draw a small world
    // (at most 8 spread VMs) where the hot VMs' overload moves often land
    // on an empty host; at least 512 cases reach that rare
    // overload-onto-an-empty-host shape the power-down rule guards.
    let env = check::Config::from_env();
    let cases = env.cases.max(512);
    let worlds = choice(vec![observations(8, 24), observations(8, 8)]);
    check::check_with(
        "planned actions well-formed",
        &env.with_cases(cases),
        &worlds.zip(&boolean()),
        |(world, suspend)| {
            let obs = &world.1;
            let policy = if *suspend {
                PowerPolicy::reactive_suspend()
            } else {
                PowerPolicy::reactive_off()
            };
            let config = ManagerConfig::for_fleet(policy, obs.hosts.len(), obs.vms.len())
                .with_min_on_time(SimDuration::ZERO)
                .with_predictor(PredictorConfig::LastValue);
            let mut mgr = manager(config, world);
            let actions = mgr.plan(obs).expect("well-shaped observation");
            prop_assert!(
                mgr.last_round_reasons().len() == actions.len(),
                "reasons and actions disagree"
            );

            let mut moved_vms = std::collections::HashSet::new();
            let mut powered_hosts = std::collections::HashSet::new();
            for action in &actions {
                match *action {
                    ManagementAction::Migrate { vm, to } => {
                        let v = obs.vms.get(vm.index()).expect("planned VM exists");
                        prop_assert!(v.host.is_some(), "migrating unplaced {vm}");
                        prop_assert!(v.host.unwrap() != to, "self-migration of {vm}");
                        prop_assert!(!v.migrating, "vm {vm} already migrating");
                        prop_assert!(
                            obs.hosts[to.index()].is_operational(),
                            "migrating {vm} to non-operational {to}"
                        );
                        prop_assert!(moved_vms.insert(vm), "vm {vm} moved twice");
                    }
                    ManagementAction::PowerDown { host, .. } => {
                        prop_assert!(
                            obs.hosts[host.index()].evacuated,
                            "powering down non-evacuated {host}"
                        );
                        prop_assert!(
                            obs.hosts[host.index()].is_operational(),
                            "powering down non-operational {host}"
                        );
                        prop_assert!(powered_hosts.insert(host), "host {host} power-cycled twice");
                        prop_assert!(
                            !actions.iter().any(
                                |a| matches!(*a, ManagementAction::Migrate { to, .. } if to == host)
                            ),
                            "powering down {host}, a migration destination of the same plan"
                        );
                    }
                    ManagementAction::PowerUp { host } => {
                        prop_assert!(
                            matches!(
                                obs.hosts[host.index()].state,
                                PowerState::Suspended | PowerState::Off
                            ),
                            "waking non-parked {host}"
                        );
                        prop_assert!(powered_hosts.insert(host), "host {host} power-cycled twice");
                    }
                }
            }
            Ok(())
        },
    );
}

/// Overload mitigation moves VMs onto the one empty host; consolidation
/// must then skip that host (its inbound VMs are not movable, so a trial
/// evacuation would look complete) and drain another one instead of
/// parking a host it is migrating onto.
#[test]
fn consolidation_never_parks_a_host_receiving_vms() {
    // Host 0 carries 8 VMs of 1.95 cores (overloaded), hosts 1-8 carry 3
    // VMs of 2.0 cores each, host 9 is empty.
    let states = vec![0usize; 10];
    let mut raw_vms: Vec<RawVm> = (0..8).map(|_| ((1.95, 0), false)).collect();
    for h in 1..=8u64 {
        raw_vms.extend((0..3).map(|_| ((2.0, h), false)));
    }
    let world = build_world(states, raw_vms);
    let obs = &world.1;
    assert!(obs.hosts[9].evacuated);
    let config = ManagerConfig::for_fleet(PowerPolicy::reactive_suspend(), 10, obs.vms.len())
        .with_min_on_time(SimDuration::ZERO)
        .with_predictor(PredictorConfig::LastValue);
    let mut mgr = manager(config, &world);
    let actions = mgr.plan(obs).expect("well-shaped observation");
    let reasons = mgr.last_round_reasons();
    let onto_9 = actions
        .iter()
        .zip(reasons)
        .filter(|(a, r)| {
            matches!(a, ManagementAction::Migrate { to: HostId(9), .. })
                && **r == ActionReason::OverloadMitigation
        })
        .count();
    assert!(onto_9 > 0, "overload must relieve host 0 onto host 9");
    assert!(
        !actions.iter().any(|a| matches!(
            a,
            ManagementAction::PowerDown {
                host: HostId(9),
                ..
            }
        )),
        "parked host 9 while migrating onto it: {actions:?}"
    );
    assert!(
        reasons.contains(&ActionReason::Consolidation),
        "consolidation stopped instead of draining another host: {actions:?}"
    );
}

/// AlwaysOn never emits power actions, for any observation.
#[test]
fn always_on_never_power_manages() {
    check::check(
        "AlwaysOn never power-manages",
        &observations(6, 16),
        |world| {
            let obs = &world.1;
            let config =
                ManagerConfig::for_fleet(PowerPolicy::always_on(), obs.hosts.len(), obs.vms.len());
            let mut mgr = manager(config, world);
            for action in mgr.plan(obs).expect("well-shaped observation") {
                prop_assert!(!action.is_power_action(), "power action {action}");
            }
            Ok(())
        },
    );
}

/// The migration budget is respected for any observation.
#[test]
fn migration_budget_respected() {
    check::check(
        "migration budget respected",
        &observations(8, 24).zip(&usize_in(1..=3)),
        |(world, budget)| {
            let obs = &world.1;
            let config = ManagerConfig::for_fleet(
                PowerPolicy::reactive_suspend(),
                obs.hosts.len(),
                obs.vms.len(),
            )
            .with_max_migrations_per_round(*budget)
            .with_min_on_time(SimDuration::ZERO);
            let mut mgr = manager(config, world);
            let migrations = mgr
                .plan(obs)
                .expect("well-shaped observation")
                .iter()
                .filter(|a| matches!(a, ManagementAction::Migrate { .. }))
                .count();
            prop_assert!(migrations <= *budget, "{migrations} > budget {budget}");
            Ok(())
        },
    );
}

/// Planning twice on the same observation from the same state is
/// deterministic.
#[test]
fn planning_is_deterministic() {
    check::check("planning is deterministic", &observations(6, 16), |world| {
        let obs = &world.1;
        let mk = || {
            let config = ManagerConfig::for_fleet(
                PowerPolicy::reactive_suspend(),
                obs.hosts.len(),
                obs.vms.len(),
            );
            manager(config, world)
        };
        let a = mk().plan(obs);
        let b = mk().plan(obs);
        check::prop_assert_eq!(a, b);
        Ok(())
    });
}

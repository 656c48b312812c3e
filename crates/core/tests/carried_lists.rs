//! Property test of the planner's carried host lists: the manager keeps
//! each host's VM list across rounds, takes off the previous round's
//! tentative moves and patches only the VMs whose observed host changed,
//! so every round's lists — and therefore every plan — must equal a
//! from-scratch build from that round's observation.
//!
//! Generated round sequences move VMs between rounds, place and unplace
//! them (a VM may return to a host it left), include rounds in which
//! every VM moves and fleets with no VMs, and feed 1–3 schedulers merged
//! views whose stale partitions come from the previous round, so a
//! replica's view of a VM can jump between hosts that no fresh round
//! ever paired.
//!
//! Two references check it. In a debug build every rebuild asserts its
//! carried lists equal to a from-scratch build, so every round of every
//! replica here — an `AlwaysOn` one and a power-managing one — is
//! checked directly; run it in debug (CI does). In any build, a
//! long-lived `AlwaysOn` replica with a last-value predictor must plan
//! like a fresh manager per round: its plan depends on nothing but the
//! observation (no drains, hysteresis or demand history), and overload
//! mitigation's and rebalancing's stable orders pin the lists' order,
//! not just their contents. A fresh manager's lists come out of the same
//! patching (every VM arrives), so only the debug twin catches a patch
//! that both would get wrong, such as a skipped arrival.

use std::ops::Range;

use agile_core::{
    ClusterObservation, HostObservation, ManagerConfig, PowerPolicy, PredictorConfig, VirtManager,
    VmObservation,
};
use check::gen::{boolean, one_of, u64_in, usize_in, vec_of, Gen};
use cluster::{HostId, HostSpec, Resources, ServiceClass, VmSpec};
use power::{HostPowerProfile, PowerState};
use simcore::{pool, SimDuration, SimTime};

/// How one round's placement derives from the previous round's.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    /// Each VM's pick in `0..hosts` places it there, `hosts` unplaces
    /// it, anything larger keeps its previous host.
    Drift,
    /// Every placed VM moves to the next host; unplaced VMs land on
    /// host 0.
    AllMove,
}

/// One generated round: its kind, a placement pick and a demand per VM.
type Round = (Kind, Vec<u64>, Vec<f64>);

/// A generated case: hosts, each VM's batch flag, the rounds, and the
/// scheduler count.
type Case = (usize, Vec<bool>, Vec<Round>, usize);

fn cases() -> Gen<Case> {
    usize_in(1..=5)
        .zip(&usize_in(0..=10))
        .and_then(|(hosts, vms)| {
            let round = one_of(vec![Kind::Drift, Kind::Drift, Kind::AllMove])
                .zip(&vec_of(&u64_in(0..=2 * hosts as u64 + 1), vms..=vms))
                .zip(&vec_of(&one_of(vec![0.0, 0.5, 1.0, 2.0, 3.0]), vms..=vms))
                .map(|((kind, picks), demand)| (kind, picks, demand));
            vec_of(&boolean(), vms..=vms)
                .zip(&vec_of(&round, 1..=8))
                .zip(&usize_in(1..=3))
                .map(move |((batch, rounds), schedulers)| (hosts, batch, rounds, schedulers))
        })
}

/// The fresh observation of every round: all hosts `On` (8 cores,
/// 64 GB), each VM's host derived from the previous round's.
fn fresh_rounds(hosts: usize, rounds: &[Round]) -> Vec<ClusterObservation> {
    let mut placement: Vec<Option<usize>> = Vec::new();
    let mut out = Vec::new();
    for (r, (kind, picks, demand)) in rounds.iter().enumerate() {
        placement.resize(picks.len(), None);
        for (place, &pick) in placement.iter_mut().zip(picks) {
            *place = match kind {
                Kind::Drift if pick < hosts as u64 => Some(pick as usize),
                Kind::Drift if pick == hosts as u64 => None,
                Kind::Drift => *place,
                Kind::AllMove => Some(place.map_or(0, |h| (h + 1) % hosts)),
            };
        }
        let mut host_obs = vec![
            HostObservation {
                state: PowerState::On,
                evacuated: true,
                ..HostObservation::default()
            };
            hosts
        ];
        for h in placement.iter().flatten() {
            host_obs[*h].mem_committed += 4.0;
            host_obs[*h].evacuated = false;
        }
        out.push(ClusterObservation {
            now: SimTime::from_secs(300 * r as u64),
            hosts: host_obs,
            vms: placement
                .iter()
                .zip(demand)
                .map(|(h, &cpu_demand)| VmObservation {
                    host: h.map(|h| HostId(h as u32)),
                    cpu_demand,
                    migrating: false,
                })
                .collect(),
        });
    }
    out
}

/// A scheduler's view as the control plane splices it: the hosts of
/// `owned` and the VMs on them (and unplaced VMs) from `fresh`, the rest
/// from `stale`.
fn merged_view(
    fresh: &ClusterObservation,
    stale: &ClusterObservation,
    owned: &Range<usize>,
) -> ClusterObservation {
    let mut view = fresh.clone();
    for h in (0..fresh.hosts.len()).filter(|h| !owned.contains(h)) {
        view.hosts[h] = stale.hosts[h];
    }
    let remote = |v: usize| fresh.vms.host()[v].is_some_and(|h| !owned.contains(&h.index()));
    view.vms = (0..fresh.vms.len())
        .map(|v| {
            if remote(v) {
                stale.vms.get(v)
            } else {
                fresh.vms.get(v)
            }
            .unwrap()
        })
        .collect();
    view
}

#[test]
fn carried_host_lists_plan_like_a_from_scratch_build() {
    check::check(
        "carried host lists == from-scratch build",
        &cases(),
        |(hosts, batch, rounds, schedulers)| {
            let host = HostSpec::new(
                Resources::new(8.0, 64.0),
                HostPowerProfile::prototype_rack(),
            );
            let host_specs = vec![host; *hosts];
            let vm_specs: Vec<_> = batch
                .iter()
                .map(|&b| {
                    let class = if b {
                        ServiceClass::Batch
                    } else {
                        ServiceClass::Interactive
                    };
                    VmSpec::new(Resources::new(4.0, 4.0)).with_class(class)
                })
                .collect();
            let manager = |policy| {
                let config = ManagerConfig::for_fleet(policy, *hosts, vm_specs.len())
                    .with_min_on_time(SimDuration::ZERO)
                    .with_predictor(PredictorConfig::LastValue);
                VirtManager::new(config, &host_specs, &vm_specs).expect("valid config")
            };
            let partitions = pool::shard_ranges(*hosts, (*schedulers).min(*hosts));
            let mut carried: Vec<_> = partitions
                .iter()
                .map(|_| {
                    (
                        manager(PowerPolicy::always_on()),
                        manager(PowerPolicy::reactive_suspend()),
                    )
                })
                .collect();
            let fresh = fresh_rounds(*hosts, rounds);
            for (r, obs) in fresh.iter().enumerate() {
                for (s, owned) in partitions.iter().enumerate() {
                    // Remote partitions are seen one round late, as in the
                    // control plane's staleness ring.
                    let view = if r > 0 && partitions.len() > 1 {
                        merged_view(obs, &fresh[r - 1], owned)
                    } else {
                        obs.clone()
                    };
                    let (always_on, managed) = &mut carried[s];
                    let got = always_on.plan(&view).expect("well-shaped view");
                    let want = manager(PowerPolicy::always_on())
                        .plan(&view)
                        .expect("well-shaped view");
                    check::prop_assert_eq!(got, want, "round {r}, scheduler {s}");
                    managed.plan(&view).expect("well-shaped view");
                }
            }
            Ok(())
        },
    );
}

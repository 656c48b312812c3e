//! Micro-benchmarks of one management round at fleet scale.

use agile_core::{
    ClusterObservation, ControlPlane, HostObservation, ManagerConfig, PowerPolicy, VirtManager,
    VmObservation,
};
use bench::microbench::time;
use cluster::{HostId, HostSpec, Resources, VmSpec};
use obs::SpanTracer;
use power::{HostPowerProfile, PowerState};
use simcore::{RngStream, SimTime};

/// VMs per host in the synthetic fleet.
const VMS_PER_HOST: usize = 4;

/// The drifting fleet: hosts, VMs per host, VMs that change host between
/// consecutive rounds, and rounds in its cycle.
const DRIFT_HOSTS: usize = 16_384;
const DRIFT_VMS_PER_HOST: usize = 6;
const DRIFT_MOVES: usize = 32;
const DRIFT_ROUNDS: usize = 8;

/// The control-plane round: hosts, scheduler replicas, and how many
/// rounds old a replica's view of the other partitions is.
const PLANE_HOSTS: usize = 4096;
const PLANE_SCHEDULERS: usize = 4;
const PLANE_STALENESS: usize = 1;

/// A synthetic steady-state observation: `hosts` 16-core, 128 GB hosts,
/// each carrying 4 VMs of 2 cores and 4 GB.
fn observation(hosts: usize) -> ClusterObservation {
    let mut rng = RngStream::new(11);
    let mut vm_obs = Vec::with_capacity(hosts * VMS_PER_HOST);
    for h in 0..hosts {
        for _ in 0..VMS_PER_HOST {
            vm_obs.push(VmObservation {
                host: Some(HostId(h as u32)),
                cpu_demand: rng.uniform(0.2, 1.8),
                migrating: false,
            });
        }
    }
    let host = HostObservation {
        state: PowerState::On,
        mem_committed: 16.0,
        ..HostObservation::default()
    };
    ClusterObservation {
        now: SimTime::from_secs(300),
        hosts: vec![host; hosts],
        vms: vm_obs.into_iter().collect(),
    }
}

/// A cycle of `DRIFT_ROUNDS` observations of `DRIFT_HOSTS` 16-core,
/// 128 GB hosts carrying 6 VMs each, placed round-robin (VM `i` starts
/// on host `i % hosts`). Every round draws fresh demand and moves
/// `DRIFT_MOVES` VMs to other hosts, so each round re-buckets hosts and
/// patches host lists, unlike a replayed frozen observation.
fn drifting_rounds() -> Vec<ClusterObservation> {
    let mut rng = RngStream::new(13);
    let vms = DRIFT_HOSTS * DRIFT_VMS_PER_HOST;
    let mut placement: Vec<usize> = (0..vms).map(|i| i % DRIFT_HOSTS).collect();
    let mut rounds = Vec::with_capacity(DRIFT_ROUNDS);
    for r in 0..DRIFT_ROUNDS {
        for _ in 0..DRIFT_MOVES {
            let vm = rng.below(vms as u64) as usize;
            placement[vm] = rng.below(DRIFT_HOSTS as u64) as usize;
        }
        let mut hosts = vec![
            HostObservation {
                state: PowerState::On,
                ..HostObservation::default()
            };
            DRIFT_HOSTS
        ];
        for &h in &placement {
            hosts[h].mem_committed += 4.0;
        }
        rounds.push(ClusterObservation {
            now: SimTime::from_secs(300 * (r as u64 + 1)),
            hosts,
            vms: placement
                .iter()
                .map(|&h| VmObservation {
                    host: Some(HostId(h as u32)),
                    cpu_demand: rng.uniform(0.2, 1.8),
                    migrating: false,
                })
                .collect(),
        });
    }
    rounds
}

fn main() {
    let host = HostSpec::new(
        Resources::new(16.0, 128.0),
        HostPowerProfile::prototype_rack(),
    );
    let vm = VmSpec::new(Resources::new(2.0, 4.0));
    for hosts in [64usize, 256, 1024] {
        let obs = observation(hosts);
        let mut mgr = VirtManager::new(
            ManagerConfig::new(PowerPolicy::reactive_suspend()),
            &vec![host.clone(); hosts],
            &vec![vm; hosts * VMS_PER_HOST],
        )
        .expect("default config is valid");
        time(&format!("manager_plan_{hosts}_hosts"), 3, 20, || {
            mgr.plan(&obs).expect("well-shaped observation").len()
        });
    }

    let rounds = drifting_rounds();
    let mut mgr = VirtManager::new(
        ManagerConfig::new(PowerPolicy::reactive_suspend()),
        &vec![host.clone(); DRIFT_HOSTS],
        &vec![vm; DRIFT_HOSTS * DRIFT_VMS_PER_HOST],
    )
    .expect("default config is valid");
    let mut round = 0;
    time(
        &format!("manager_round_{DRIFT_HOSTS}_hosts_drifting"),
        DRIFT_ROUNDS,
        2 * DRIFT_ROUNDS,
        || {
            round += 1;
            let obs = &rounds[round % DRIFT_ROUNDS];
            mgr.plan(obs).expect("well-shaped observation").len()
        },
    );

    // One steady-state round of the scheduler replicas over stale views;
    // each round's kept batches come due at once and are dropped unadmitted.
    let obs = observation(PLANE_HOSTS);
    let mgr = VirtManager::new(
        ManagerConfig::new(PowerPolicy::reactive_suspend()),
        &vec![host; PLANE_HOSTS],
        &vec![vm; PLANE_HOSTS * VMS_PER_HOST],
    )
    .expect("default config is valid");
    let mut plane = ControlPlane::new(mgr, (PLANE_SCHEDULERS, PLANE_STALENESS, 0));
    let mut tracer = SpanTracer::new();
    time(
        &format!("control_plane_round_{PLANE_HOSTS}_hosts_{PLANE_SCHEDULERS}_schedulers"),
        3,
        20,
        || {
            let kept = plane
                .plan(&obs, &mut tracer)
                .expect("well-shaped observation");
            plane.due_round();
            kept
        },
    );
}

//! Micro-benchmarks of one management round at fleet scale.

use agile_core::{
    ClusterObservation, HostObservation, ManagerConfig, PowerPolicy, VirtManager, VmObservation,
};
use bench::microbench::time;
use cluster::{HostId, HostSpec, Resources, VmSpec};
use power::{HostPowerProfile, PowerState};
use simcore::{RngStream, SimTime};

/// VMs per host in the synthetic fleet.
const VMS_PER_HOST: usize = 4;

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
}

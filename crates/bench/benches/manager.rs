//! Micro-benchmarks of one management round at fleet scale.

use agile_core::{
    ClusterObservation, HostObservation, ManagerConfig, PowerPolicy, VirtManager, VmObservation,
};
use bench::microbench::time;
use cluster::HostId;
use power::PowerState;
use simcore::{RngStream, SimTime};

/// A synthetic steady-state observation: `hosts` hosts, 4 VMs each.
fn observation(hosts: usize) -> ClusterObservation {
    let mut rng = RngStream::new(11);
    let vms_per_host = 4;
    let mut host_obs = Vec::with_capacity(hosts);
    let mut vm_obs = Vec::with_capacity(hosts * vms_per_host);
    for h in 0..hosts {
        let mut demand = 0.0;
        for _ in 0..vms_per_host {
            let d = rng.uniform(0.2, 1.8);
            demand += d;
            vm_obs.push(VmObservation {
                host: Some(HostId(h as u32)),
                cpu_demand: d,
                cpu_cap: 2.0,
                mem_gb: 4.0,
                migrating: false,
                service_class: Default::default(),
            });
        }
        host_obs.push(HostObservation {
            id: HostId(h as u32),
            state: PowerState::On,
            pending: None,
            cpu_capacity: 16.0,
            mem_capacity: 128.0,
            mem_committed: 16.0,
            cpu_demand: demand,
            evacuated: false,
            failed_transitions: 0,
            ladder: Default::default(),
        });
    }
    ClusterObservation {
        now: SimTime::from_secs(300),
        hosts: host_obs,
        vms: vm_obs.into_iter().collect(),
    }
}

fn main() {
    for hosts in [64usize, 256, 1024] {
        let obs = observation(hosts);
        let mut mgr = VirtManager::new(
            ManagerConfig::new(PowerPolicy::reactive_suspend()),
            hosts,
            hosts * 4,
        )
        .expect("default config is valid");
        time(&format!("manager_plan_{hosts}_hosts"), 3, 20, || {
            mgr.plan(&obs).expect("well-shaped observation").len()
        });
    }
}

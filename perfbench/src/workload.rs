//! The benchmark's workloads: three simulated datacenter days that stress
//! different layers.
//!
//! Every workload is a 24 h day at a 5 min control interval (289 control
//! rounds) at 6 VMs per host, planned with the indexed planner. The
//! program receives only the scenario generated from the seed.

use agile_core::{PlanMode, PowerPolicy};
use dcsim::{Experiment, FailureModel, Scenario, SimulationBuilder};
use power::{DvfsModel, HostPowerProfile};
use simcore::SimDuration;

/// The workspace-wide experiment seed, used when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 2013;

/// VMs per host in every workload (the headline density).
const VMS_PER_HOST: usize = 6;

/// Which scenario and manager configuration a workload runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// Diurnal enterprise day, PM-Suspend, direct planner.
    Diurnal,
    /// Diurnal enterprise day, PM-Suspend, through the distributed control
    /// plane: 4 schedulers, views 1 round stale, commits 1 round late.
    Plane,
    /// Lifecycle churn on ladder hardware under the joint sleep+speed
    /// policy, with the full fault surface at intensity 0.1.
    ChurnFaults,
}

/// One named workload of the benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Workload {
    /// Name as given to `--workload`.
    pub name: &'static str,
    /// Scenario and manager configuration.
    pub family: Family,
    /// Fleet size in hosts.
    pub hosts: usize,
    /// Worker threads of the sharded tick engine.
    pub threads: usize,
}

/// The benchmark's workloads, in the order `BENCHMARK.json` lists them
/// (its `why` fields, and the README beside this crate, say what each one
/// stresses).
pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "diurnal-16k",
        family: Family::Diurnal,
        hosts: 16384,
        threads: 2,
    },
    Workload {
        name: "plane-4k",
        family: Family::Plane,
        hosts: 4096,
        threads: 1,
    },
    Workload {
        name: "churn-faults-8k",
        family: Family::ChurnFaults,
        hosts: 8192,
        threads: 1,
    },
];

impl Workload {
    /// The workload called `name`, if there is one.
    pub fn by_name(name: &str) -> Option<Workload> {
        WORKLOADS.iter().copied().find(|w| w.name == name)
    }

    /// The same workload on a fleet of `hosts` hosts (for tests).
    pub fn resized(self, hosts: usize) -> Workload {
        Workload { hosts, ..self }
    }

    /// Fleet size in VMs.
    pub fn vms(&self) -> usize {
        self.hosts * VMS_PER_HOST
    }

    /// Generates the workload's world from `seed`.
    pub fn scenario(&self, seed: u64) -> Scenario {
        match self.family {
            Family::Diurnal | Family::Plane => Scenario::datacenter(self.hosts, self.vms(), seed),
            Family::ChurnFaults => Scenario::datacenter_churn(self.hosts, self.vms(), 0.3, seed)
                .with_host_profile(
                    HostPowerProfile::prototype_rack_ladder().with_dvfs(DvfsModel::typical_2013()),
                ),
        }
    }

    /// The managed day: the run the benchmark times.
    pub fn managed(&self, scenario: Scenario) -> SimulationBuilder {
        let policy = match self.family {
            Family::Diurnal | Family::Plane => PowerPolicy::reactive_suspend(),
            Family::ChurnFaults => PowerPolicy::joint_ladder(SimDuration::from_secs(2)),
        };
        let builder = SimulationBuilder::new(self.experiment(scenario, policy));
        match self.family {
            Family::Plane => builder.schedulers(4).view_staleness(1).control_latency(1),
            Family::Diurnal | Family::ChurnFaults => builder,
        }
    }

    /// The AlwaysOn reference day on the same world and fault surface.
    pub fn always_on(&self, scenario: Scenario) -> SimulationBuilder {
        SimulationBuilder::new(self.experiment(scenario, PowerPolicy::always_on()))
    }

    /// The analytic Oracle bound on the same world.
    pub fn oracle(&self, scenario: Scenario) -> SimulationBuilder {
        SimulationBuilder::new(Experiment::new(scenario).policy(PowerPolicy::oracle()))
    }

    fn experiment(&self, scenario: Scenario, policy: PowerPolicy) -> Experiment {
        let experiment = Experiment::new(scenario)
            .policy(policy)
            .plan_mode(PlanMode::Indexed);
        match self.family {
            Family::ChurnFaults => experiment.failure_model(fault_surface(0.1)),
            Family::Diurnal | Family::Plane => experiment,
        }
    }
}

/// The full fault surface at intensity `p`, as the failure-overhead
/// sweep (T13b) builds it: resume failures at `p`; boot failures,
/// migration aborts and 4x transition hangs at `p / 2`; rack bursts of 4
/// hosts at `p / 10` lasting 30 min.
fn fault_surface(p: f64) -> FailureModel {
    FailureModel::new(p, p * 0.5)
        .with_migration_failures(p * 0.5)
        .with_hangs(p * 0.5, 4.0)
        .with_rack_bursts(4, p * 0.1, SimDuration::from_mins(30))
}

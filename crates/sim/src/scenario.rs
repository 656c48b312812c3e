//! Reproducible simulation worlds.

use cluster::{HostSpec, Resources};
use power::HostPowerProfile;
use simcore::SimDuration;
use workload::{presets, Fleet, FleetSpec, LifetimePlan};

/// The canonical host shape used by the paper-scale scenarios: a 2U
/// 16-core / 128 GB server.
pub(crate) const HOST_CORES: f64 = 16.0;
pub(crate) const HOST_MEM_GB: f64 = 128.0;

/// A fully-specified simulation world: the host fleet, the VM fleet with
/// its demand traces, and the seed everything was generated from.
///
/// Scenarios are deterministic: the same constructor arguments always
/// produce the same world.
///
/// # Example
///
/// ```
/// use dcsim::Scenario;
///
/// let s = Scenario::datacenter(16, 64, 7);
/// assert_eq!(s.host_specs().len(), 16);
/// assert_eq!(s.fleet().len(), 64);
/// ```
#[derive(Debug, Clone)]
pub struct Scenario {
    name: String,
    host_specs: Vec<HostSpec>,
    fleet: Fleet,
    demand_step: SimDuration,
    seed: u64,
}

impl Scenario {
    /// Builds a scenario from parts. Only stores:
    /// [`try_validate`](Self::try_validate) checks the parts, and
    /// [`crate::SimulationBuilder::build`] runs it first.
    pub fn new(
        name: impl Into<String>,
        host_specs: Vec<HostSpec>,
        fleet: Fleet,
        demand_step: SimDuration,
        seed: u64,
    ) -> Self {
        Scenario {
            name: name.into(),
            host_specs,
            fleet,
            demand_step,
            seed,
        }
    }

    /// Checks that the scenario can be simulated.
    ///
    /// # Errors
    ///
    /// [`crate::SimError::InvalidConfig`] if there are no hosts, the
    /// fleet is empty, the demand step is zero, or the seed is past
    /// `i64::MAX` (a report stores it as a JSON integer).
    pub fn try_validate(&self) -> Result<(), crate::SimError> {
        let invalid = |message: &str| {
            Err(crate::SimError::InvalidConfig {
                message: message.to_string(),
            })
        };
        if self.host_specs.is_empty() {
            return invalid("scenario needs hosts");
        }
        if self.fleet.is_empty() {
            return invalid("scenario needs VMs");
        }
        if self.demand_step.is_zero() {
            return invalid("demand step must be non-zero");
        }
        if i64::try_from(self.seed).is_err() {
            return invalid("seed must be at most i64::MAX (9223372036854775807)");
        }
        Ok(())
    }

    /// A tiny world for tests and the quickstart example: 4 prototype
    /// hosts, 16 enterprise VMs, 24 h of demand at a 5 min step.
    pub fn small_test(seed: u64) -> Self {
        Self::datacenter(4, 16, seed)
    }

    /// The paper-scale world: `hosts` prototype rack servers and `vms`
    /// enterprise-mix VMs, 24 h of diurnal demand at a 5 min step.
    pub fn datacenter(hosts: usize, vms: usize, seed: u64) -> Self {
        Self::with_workload(
            format!("datacenter-{hosts}x{vms}"),
            hosts,
            vms,
            presets::enterprise_diurnal(),
            SimDuration::from_hours(24),
            seed,
        )
    }

    /// The paper-scale world on ladder hardware: the same diurnal fleet as
    /// [`datacenter`](Self::datacenter), but every host carries the full
    /// C6→S3→S5 power-state ladder plus an attached DVFS model — the
    /// hardware the joint sleep + speed-scaling policy manages
    /// (experiment T26).
    pub fn datacenter_ladder(hosts: usize, vms: usize, seed: u64) -> Self {
        let mut s = Self::datacenter(hosts, vms, seed).with_host_profile(
            HostPowerProfile::prototype_rack_ladder().with_dvfs(power::DvfsModel::typical_2013()),
        );
        s.name = format!("datacenter-ladder-{hosts}x{vms}");
        s
    }

    /// The paper-scale world with flash spikes layered on (the harder
    /// responsiveness regime).
    pub fn datacenter_spiky(hosts: usize, vms: usize, seed: u64) -> Self {
        Self::with_workload(
            format!("datacenter-spiky-{hosts}x{vms}"),
            hosts,
            vms,
            presets::enterprise_with_spikes(),
            SimDuration::from_hours(24),
            seed,
        )
    }

    /// The paper-scale world with lifecycle churn: `churn_frac` of the
    /// VMs are transient (provisioned and retired during the day, mean
    /// lifetime 4 h) on top of the diurnal enterprise mix.
    ///
    /// # Panics
    ///
    /// Panics if `churn_frac` is outside `[0, 1]`.
    pub fn datacenter_churn(hosts: usize, vms: usize, churn_frac: f64, seed: u64) -> Self {
        let horizon = SimDuration::from_hours(24);
        let mut scenario = Self::with_workload(
            format!("datacenter-churn-{hosts}x{vms}"),
            hosts,
            vms,
            presets::enterprise_diurnal(),
            horizon,
            seed,
        );
        let plan =
            LifetimePlan::with_churn(vms, churn_frac, SimDuration::from_hours(4), horizon, seed);
        scenario.fleet = scenario.fleet.with_lifetime_plan(plan);
        scenario
    }

    /// A mixed-hardware world: `racks` 16-core/128 GB rack prototypes plus
    /// `blades` 8-core/64 GB blade prototypes, running the enterprise
    /// diurnal mix — the two server classes the paper prototyped.
    pub fn heterogeneous(racks: usize, blades: usize, vms: usize, seed: u64) -> Self {
        let horizon = SimDuration::from_hours(24);
        let step = SimDuration::from_mins(5);
        let mut host_specs = Self::uniform_hosts(racks, HostPowerProfile::prototype_rack());
        let blade_spec = HostSpec::new(
            Resources::new(HOST_CORES / 2.0, HOST_MEM_GB / 2.0),
            HostPowerProfile::prototype_blade(),
        );
        host_specs.extend(vec![blade_spec; blades]);
        let fleet = presets::enterprise_diurnal().generate(vms, horizon, step, seed);
        Scenario::new(
            format!("hetero-{racks}r+{blades}b-x{vms}"),
            host_specs,
            fleet,
            step,
            seed,
        )
    }

    /// A scenario with an arbitrary workload preset on uniform prototype
    /// hosts, 5 min demand step.
    pub fn with_workload(
        name: impl Into<String>,
        hosts: usize,
        vms: usize,
        workload: FleetSpec,
        horizon: SimDuration,
        seed: u64,
    ) -> Self {
        let step = SimDuration::from_mins(5);
        let fleet = workload.generate(vms, horizon, step, seed);
        Scenario::new(
            name,
            Self::uniform_hosts(hosts, HostPowerProfile::prototype_rack()),
            fleet,
            step,
            seed,
        )
    }

    /// `n` identical hosts of the canonical shape with the given profile.
    pub fn uniform_hosts(n: usize, profile: HostPowerProfile) -> Vec<HostSpec> {
        let spec = HostSpec::new(Resources::new(HOST_CORES, HOST_MEM_GB), profile);
        vec![spec; n]
    }

    /// Replaces every host's power profile (keeps capacities).
    pub fn with_host_profile(mut self, profile: HostPowerProfile) -> Self {
        let n = self.host_specs.len();
        self.host_specs = Self::uniform_hosts(n, profile);
        self
    }

    /// Scenario name (used in reports).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The host fleet.
    pub fn host_specs(&self) -> &[HostSpec] {
        &self.host_specs
    }

    /// The VM fleet and demand traces.
    pub fn fleet(&self) -> &Fleet {
        &self.fleet
    }

    /// The demand sampling step (also the default control interval).
    pub fn demand_step(&self) -> SimDuration {
        self.demand_step
    }

    /// The generation seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn datacenter_is_deterministic() {
        let a = Scenario::datacenter(8, 32, 5);
        let b = Scenario::datacenter(8, 32, 5);
        assert_eq!(a.fleet(), b.fleet());
        assert_eq!(a.name(), "datacenter-8x32");
        assert_eq!(a.seed(), 5);
    }

    #[test]
    fn small_test_shape() {
        let s = Scenario::small_test(1);
        assert_eq!(s.host_specs().len(), 4);
        assert_eq!(s.fleet().len(), 16);
        assert_eq!(s.demand_step(), SimDuration::from_mins(5));
    }

    #[test]
    fn with_host_profile_swaps_profiles() {
        let s = Scenario::small_test(1).with_host_profile(HostPowerProfile::legacy_rack());
        assert_eq!(s.host_specs()[0].profile().name(), "legacy-rack");
        assert_eq!(s.host_specs().len(), 4);
    }

    #[test]
    fn fleet_memory_fits_fleet_wide() {
        // The canonical sizing must leave consolidation memory headroom:
        // total VM memory well under half of total host memory.
        let s = Scenario::datacenter(16, 64, 2);
        let host_mem: f64 = s.host_specs().iter().map(|h| h.capacity().mem_gb).sum();
        assert!(s.fleet().total_mem_gb() < 0.5 * host_mem);
    }

    #[test]
    fn try_validate_reports_inconsistencies_as_values() {
        use crate::SimError;
        let donor = Scenario::small_test(1);
        let (hosts, fleet, step) = (donor.host_specs(), donor.fleet(), donor.demand_step());
        let new = |hosts: &[HostSpec], fleet: &Fleet, step, seed| {
            Scenario::new("parts", hosts.to_vec(), fleet.clone(), step, seed)
        };
        let no_vms = Fleet::from_parts(Vec::new(), Vec::new());
        let past_i64 = i64::MAX as u64 + 1;
        for (scenario, expected) in [
            (new(&[], fleet, step, 1), "needs hosts"),
            (new(hosts, &no_vms, step, 1), "needs VMs"),
            (new(hosts, fleet, SimDuration::ZERO, 1), "non-zero"),
            (new(hosts, fleet, step, past_i64), "at most i64::MAX"),
            (new(hosts, fleet, step, u64::MAX), "at most i64::MAX"),
        ] {
            let err = scenario.try_validate().unwrap_err();
            assert!(matches!(err, SimError::InvalidConfig { .. }));
            assert!(err.to_string().contains(expected), "{err}");
        }
        assert!(new(hosts, fleet, step, 1).try_validate().is_ok());
        assert!(new(hosts, fleet, step, i64::MAX as u64)
            .try_validate()
            .is_ok());
    }
}

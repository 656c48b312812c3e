//! Generators for the simulator's domain objects.
//!
//! Every generator produces a small `Debug`-friendly *spec* value (a
//! [`ScenarioSpec`], not a built [`Scenario`]) so a shrunk
//! counterexample prints as a few readable fields; `build()` turns the
//! spec into the real object deterministically. Specs are sized for
//! property testing — a few hosts, a few dozen VMs, hours not days — so
//! hundreds of generated runs stay fast in debug builds.

use agile_core::PowerPolicy;
use check::gen::{self, Gen};
use dcsim::{Experiment, FailureModel, Scenario};
use simcore::SimDuration;
use workload::presets;

/// Which workload family a generated scenario draws; shrinks toward the
/// canonical diurnal day.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadKind {
    /// The paper's enterprise diurnal mix.
    Diurnal,
    /// Diurnal with fleet-correlated flash crowds.
    Spiky,
    /// Diurnal with this percentage of transient (churning) VMs.
    Churn {
        /// Percent of the fleet that is transient, in `[10, 60]`.
        transient_pct: u8,
    },
    /// Flat demand at this percentage of VM capacity.
    Steady {
        /// Demand level in percent of capacity, in `[10, 80]`.
        level_pct: u8,
    },
    /// Mixed rack + blade hardware running the diurnal mix.
    Heterogeneous,
    /// The diurnal mix on C6→S3→S5 ladder hardware with DVFS attached.
    Ladder,
}

/// A compact, shrink-friendly description of a simulation world.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScenarioSpec {
    /// Host count, in `[2, 8]`.
    pub hosts: usize,
    /// VMs per host, in `[2, 5]`.
    pub vms_per_host: usize,
    /// The workload family.
    pub workload: WorkloadKind,
    /// Generation seed.
    pub seed: u64,
}

impl ScenarioSpec {
    /// Total VM count.
    pub fn vms(&self) -> usize {
        self.hosts * self.vms_per_host
    }

    /// Builds the described world (deterministic in the spec).
    pub fn build(&self) -> Scenario {
        let (hosts, vms, seed) = (self.hosts, self.vms(), self.seed);
        match self.workload {
            WorkloadKind::Diurnal => Scenario::datacenter(hosts, vms, seed),
            WorkloadKind::Spiky => Scenario::datacenter_spiky(hosts, vms, seed),
            WorkloadKind::Churn { transient_pct } => {
                Scenario::datacenter_churn(hosts, vms, f64::from(transient_pct) / 100.0, seed)
            }
            WorkloadKind::Steady { level_pct } => Scenario::with_workload(
                format!("steady-{level_pct}pct-{hosts}x{vms}"),
                hosts,
                vms,
                presets::steady(f64::from(level_pct) / 100.0),
                SimDuration::from_hours(24),
                seed,
            ),
            WorkloadKind::Heterogeneous => {
                let blades = hosts / 2;
                Scenario::heterogeneous(hosts - blades, blades, vms, seed)
            }
            WorkloadKind::Ladder => Scenario::datacenter_ladder(hosts, vms, seed),
        }
    }
}

/// All workload families; shrinks toward [`WorkloadKind::Diurnal`].
pub fn workload_kind() -> Gen<WorkloadKind> {
    gen::choice(vec![
        gen::constant(WorkloadKind::Diurnal),
        gen::constant(WorkloadKind::Spiky),
        gen::u64_in(10..=60).map(|p| WorkloadKind::Churn {
            transient_pct: p as u8,
        }),
        gen::u64_in(10..=80).map(|p| WorkloadKind::Steady { level_pct: p as u8 }),
        gen::constant(WorkloadKind::Heterogeneous),
        gen::constant(WorkloadKind::Ladder),
    ])
}

/// Arbitrary small worlds: 2–8 hosts, 2–5 VMs per host, any workload
/// family, seeds in `[0, 9999]`.
pub fn scenario_spec() -> Gen<ScenarioSpec> {
    gen::usize_in(2..=8)
        .zip(&gen::usize_in(2..=5))
        .zip(&workload_kind())
        .zip(&gen::u64_in(0..=9999))
        .map(|(((hosts, vms_per_host), workload), seed)| ScenarioSpec {
            hosts,
            vms_per_host,
            workload,
            seed,
        })
}

/// Any runnable policy (the analytic `Oracle` is excluded — it has no
/// event loop to differentiate against); shrinks toward `AlwaysOn`.
pub fn policy() -> Gen<PowerPolicy> {
    gen::one_of(vec![
        PowerPolicy::always_on(),
        PowerPolicy::reactive_suspend(),
        PowerPolicy::reactive_off(),
    ])
}

/// Joint-ladder policies across the wake-SLO range that discriminates
/// the rungs: 2 s admits only the C6-class rung, 12 s adds S3, 600 s
/// admits the full ladder. Shrinks toward the tightest SLO.
pub fn ladder_policy() -> Gen<PowerPolicy> {
    gen::one_of(vec![
        PowerPolicy::joint_ladder(SimDuration::from_secs(2)),
        PowerPolicy::joint_ladder(SimDuration::from_secs(12)),
        PowerPolicy::joint_ladder(SimDuration::from_secs(600)),
    ])
}

/// A complete experiment description: scenario, policy, horizon, and
/// control interval.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExperimentSpec {
    /// The world to simulate.
    pub scenario: ScenarioSpec,
    /// The power-management policy.
    pub policy: PowerPolicy,
    /// Simulated horizon in hours, in `[2, 6]`.
    pub horizon_hours: u64,
    /// Control-loop interval in minutes (1 or 5).
    pub control_mins: u64,
}

impl ExperimentSpec {
    /// The configured (not yet run) experiment.
    ///
    /// Every run plans through the utilization index; in debug builds
    /// each of its picks is checked against a full-fleet scan, so a
    /// generated debug run is also an indexed-vs-scan comparison.
    ///
    /// `AGILEPM_SCHEDULERS` (unset means 1) sets the control
    /// plane's scheduler count, clamped to the world's host count so
    /// small shrunk worlds stay buildable.
    pub fn experiment(&self) -> Experiment {
        Experiment::new(self.scenario.build())
            .policy(self.policy)
            .horizon(SimDuration::from_hours(self.horizon_hours))
            .control_interval(SimDuration::from_mins(self.control_mins))
            .schedulers(default_schedulers().min(self.scenario.hosts))
    }
}

/// The control plane's scheduler count selected by
/// `AGILEPM_SCHEDULERS` (default 1).
///
/// # Panics
///
/// Panics on a non-numeric or zero value — a typo in a CI matrix must
/// fail loudly, not silently test the default count.
pub fn default_schedulers() -> usize {
    match std::env::var("AGILEPM_SCHEDULERS") {
        Ok(v) => match v.parse::<usize>() {
            Ok(n) if n >= 1 => n,
            _ => panic!("AGILEPM_SCHEDULERS must be a positive integer, got `{v}`"),
        },
        Err(_) => 1,
    }
}

/// Scheduler counts for distributed-control-plane properties: the T27
/// ladder `{1, 2, 4, 8}`; shrinks toward the single-scheduler plane.
pub fn scheduler_count() -> Gen<usize> {
    gen::one_of(vec![1usize, 2, 4, 8])
}

/// Arbitrary experiments over [`scenario_spec`] worlds; shrinks toward
/// an always-on 2-hour run on the smallest diurnal world.
pub fn experiment_spec() -> Gen<ExperimentSpec> {
    scenario_spec()
        .zip(&policy())
        .zip(&gen::u64_in(2..=6))
        .zip(&gen::one_of(vec![5u64, 1]))
        .map(
            |(((scenario, policy), horizon_hours), control_mins)| ExperimentSpec {
                scenario,
                policy,
                horizon_hours,
                control_mins,
            },
        )
}

/// Per-transition failure probabilities in permille, so counterexamples
/// print as integers and probabilities stay on an exact grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FailureSpec {
    /// Resume failure probability, permille.
    pub resume_permille: u16,
    /// Boot failure probability, permille.
    pub boot_permille: u16,
    /// Migration-abort probability, permille.
    pub migration_permille: u16,
    /// Transition-hang probability, permille.
    pub hang_permille: u16,
    /// Hang stretch factor (× nominal latency), in `[2, 8]`; only
    /// meaningful when `hang_permille > 0`.
    pub hang_factor: u8,
    /// Per-epoch per-rack outage-burst probability, permille.
    pub rack_burst_permille: u16,
    /// Hosts per rack for correlated bursts, in `[2, 4]`.
    pub rack_size: u8,
}

impl FailureSpec {
    /// Resume failure probability as a float in `[0, 1)`.
    pub fn resume_prob(&self) -> f64 {
        f64::from(self.resume_permille) / 1000.0
    }

    /// Boot failure probability as a float in `[0, 1)`.
    pub fn boot_prob(&self) -> f64 {
        f64::from(self.boot_permille) / 1000.0
    }

    /// Migration-abort probability as a float in `[0, 1)`.
    pub fn migration_prob(&self) -> f64 {
        f64::from(self.migration_permille) / 1000.0
    }

    /// Transition-hang probability as a float in `[0, 1)`.
    pub fn hang_prob(&self) -> f64 {
        f64::from(self.hang_permille) / 1000.0
    }

    /// Rack-burst probability as a float in `[0, 1)`.
    pub fn rack_burst_prob(&self) -> f64 {
        f64::from(self.rack_burst_permille) / 1000.0
    }

    /// The corresponding [`FailureModel`]. Inactive dimensions (zero
    /// permille) stay off so the zero spec builds an inert model.
    pub fn build(&self) -> FailureModel {
        let mut model = FailureModel::new(self.resume_prob(), self.boot_prob());
        if self.migration_permille > 0 {
            model = model.with_migration_failures(self.migration_prob());
        }
        if self.hang_permille > 0 {
            model = model.with_hangs(self.hang_prob(), f64::from(self.hang_factor));
        }
        if self.rack_burst_permille > 0 {
            model = model.with_rack_bursts(
                usize::from(self.rack_size),
                self.rack_burst_prob(),
                SimDuration::from_mins(30),
            );
        }
        model
    }
}

/// Failure models with every dimension up to `max_permille` (transition
/// and migration failures capped at 499 so hosts and migrations stay
/// recoverable; correlated rack bursts capped at 125 so the fleet is not
/// permanently dark); shrinks toward no failures.
pub fn failure_spec(max_permille: u16) -> Gen<FailureSpec> {
    let cap = u64::from(max_permille.min(499));
    let rack_cap = u64::from(max_permille.min(125));
    gen::u64_in(0..=cap)
        .zip(&gen::u64_in(0..=cap))
        .zip(&gen::u64_in(0..=cap))
        .zip(&gen::u64_in(0..=cap))
        .zip(&gen::u64_in(2..=8))
        .zip(&gen::u64_in(0..=rack_cap))
        .zip(&gen::u64_in(2..=4))
        .map(
            |((((((resume, boot), migration), hang), factor), rack), rack_size)| FailureSpec {
                resume_permille: resume as u16,
                boot_permille: boot as u16,
                migration_permille: migration as u16,
                hang_permille: hang as u16,
                hang_factor: factor as u8,
                rack_burst_permille: rack as u16,
                rack_size: rack_size as u8,
            },
        )
}

#[cfg(test)]
mod tests {
    use super::*;
    use check::Source;

    #[test]
    fn scenario_specs_build_valid_worlds() {
        check::check_cases("generated scenarios build", 12, &scenario_spec(), |spec| {
            let scenario = spec.build();
            check::prop_assert_eq!(scenario.host_specs().len(), spec.hosts);
            check::prop_assert_eq!(scenario.fleet().len(), spec.vms());
            check::prop_assert!(!scenario.name().is_empty(), "unnamed scenario");
            Ok(())
        });
    }

    #[test]
    fn simplest_scenario_is_the_smallest_diurnal_world() {
        // The all-zero choice stream must decode to the minimal world so
        // shrinking converges there.
        let spec = scenario_spec().sample(&mut Source::replay(&[])).unwrap();
        assert_eq!(
            spec,
            ScenarioSpec {
                hosts: 2,
                vms_per_host: 2,
                workload: WorkloadKind::Diurnal,
                seed: 0,
            }
        );
    }

    #[test]
    fn failure_specs_stay_in_the_recoverable_band() {
        check::check("failure probabilities < 0.5", &failure_spec(499), |spec| {
            let model = spec.build();
            check::prop_assert!(model.resume_failure_prob() < 0.5, "resume too failing");
            check::prop_assert!(model.boot_failure_prob() < 0.5, "boot too failing");
            check::prop_assert!(
                model.migration_failure_prob() < 0.5,
                "migrations too failing"
            );
            check::prop_assert!(model.hang_prob() < 0.5, "hangs too frequent");
            check::prop_assert!(model.rack_burst_prob() < 0.5, "bursts too frequent");
            check::prop_assert!(
                model.hang_prob() == 0.0 || model.hang_factor() >= 2.0,
                "hang factor below 2x"
            );
            Ok(())
        });
    }

    #[test]
    fn simplest_failure_spec_is_inert() {
        // The all-zero choice stream must decode to a model that injects
        // nothing, so shrinking converges on the failure-free world.
        let spec = failure_spec(499).sample(&mut Source::replay(&[])).unwrap();
        assert!(!spec.build().is_active());
        assert_eq!(spec.resume_permille, 0);
        assert_eq!(spec.migration_permille, 0);
        assert_eq!(spec.hang_permille, 0);
        assert_eq!(spec.rack_burst_permille, 0);
    }
}
